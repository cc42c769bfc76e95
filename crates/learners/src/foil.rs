//! FOIL: greedy top-down relational learning (Quinlan 1990; Section 5).
//!
//! FOIL's `LearnClause` starts from the most general clause for the target
//! and repeatedly adds the single literal with the best information gain,
//! without backtracking, until the clause covers no negative example (or the
//! `clauselength` bound is hit). Because the candidate literals and the
//! greedy choice both depend on how the schema splits attributes across
//! relations, FOIL is not schema independent (Theorem 5.1, Example 1.1).

use crate::covering::{covering_loop, ClauseLearner};
use crate::params::LearnerParams;
use crate::scoring::clauses_coverage_engine;
use crate::task::LearningTask;
use castor_engine::Engine;
use castor_logic::{Atom, Clause, Definition, Term};
use castor_relational::{DatabaseInstance, Tuple, Value};

/// The FOIL learner.
#[derive(Debug, Default)]
pub struct Foil {
    fresh_counter: usize,
}

impl Foil {
    /// Creates a FOIL learner.
    pub fn new() -> Self {
        Foil::default()
    }

    /// Learns a Horn definition for the task over `db`, building a private
    /// evaluation engine from `params`.
    pub fn learn(
        &mut self,
        db: &DatabaseInstance,
        task: &LearningTask,
        params: &LearnerParams,
    ) -> Definition {
        let engine = Engine::new(db, params.engine_config());
        self.learn_with_engine(&engine, task, params)
    }

    fn fresh_var(&mut self) -> String {
        let name = format!("N{}", self.fresh_counter);
        self.fresh_counter += 1;
        name
    }

    /// Generates candidate literals to append to `clause`: for every
    /// relation, every placement of one or two existing variables into
    /// argument slots (remaining slots get fresh variables), plus — when
    /// constants are allowed — placements that combine one existing variable
    /// with one frequent constant.
    fn candidate_literals(
        &mut self,
        db: &DatabaseInstance,
        clause: &Clause,
        params: &LearnerParams,
    ) -> Vec<Atom> {
        let existing: Vec<String> = clause.variables().into_iter().collect();
        let mut candidates = Vec::new();
        for relation in db.schema().relations() {
            let arity = relation.arity();
            if arity == 0 {
                continue;
            }
            // One existing variable at position `pos`, fresh everywhere else.
            for pos in 0..arity {
                for var in &existing {
                    let mut terms: Vec<Term> =
                        (0..arity).map(|_| Term::var(self.fresh_var())).collect();
                    terms[pos] = Term::var(var.clone());
                    candidates.push(Atom::new(relation.name(), terms));

                    // Optionally also bind one other position to a constant.
                    if params.allow_constants {
                        let instance = db
                            .relation(relation.name())
                            .expect("schema relation has an instance");
                        for const_pos in 0..arity {
                            if const_pos == pos {
                                continue;
                            }
                            let mut values: Vec<Value> =
                                instance.active_domain_at(const_pos).into_iter().collect();
                            values.sort();
                            values.truncate(params.max_constants_per_attribute);
                            for value in values {
                                let mut terms: Vec<Term> =
                                    (0..arity).map(|_| Term::var(self.fresh_var())).collect();
                                terms[pos] = Term::var(var.clone());
                                terms[const_pos] = Term::Const(value);
                                candidates.push(Atom::new(relation.name(), terms));
                            }
                        }
                    }
                }
            }
            // Two existing variables (all ordered pairs), fresh elsewhere.
            if arity >= 2 {
                for pos_a in 0..arity {
                    for pos_b in 0..arity {
                        if pos_a == pos_b {
                            continue;
                        }
                        for var_a in &existing {
                            for var_b in &existing {
                                let mut terms: Vec<Term> =
                                    (0..arity).map(|_| Term::var(self.fresh_var())).collect();
                                terms[pos_a] = Term::var(var_a.clone());
                                terms[pos_b] = Term::var(var_b.clone());
                                candidates.push(Atom::new(relation.name(), terms));
                            }
                        }
                    }
                }
            }
        }
        candidates
    }
}

/// FOIL's information gain for extending a clause: `p1 * (log2(prec1) -
/// log2(prec0))` computed over example counts.
fn foil_gain(pos_before: usize, neg_before: usize, pos_after: usize, neg_after: usize) -> f64 {
    if pos_after == 0 {
        return f64::NEG_INFINITY;
    }
    let prec = |p: usize, n: usize| {
        let p = p as f64;
        let n = n as f64;
        (p / (p + n)).max(1e-12)
    };
    pos_after as f64 * (prec(pos_after, neg_after).log2() - prec(pos_before, neg_before).log2())
}

/// Variable names used for the head literal (targets in the benchmark
/// datasets have arity at most 3).
const HEAD_VAR_NAMES: [&str; 6] = ["x", "y", "z", "w", "v", "u"];

/// Internal adapter binding the task's target relation name and arity into
/// the clause learner so heads are built with the right relation symbol.
struct FoilWithTarget<'a> {
    inner: &'a mut Foil,
    target: String,
    target_arity: usize,
}

impl ClauseLearner for FoilWithTarget<'_> {
    fn learn_clause(
        &mut self,
        engine: &Engine,
        uncovered: &[Tuple],
        negative: &[Tuple],
        params: &LearnerParams,
    ) -> Option<Clause> {
        let db = engine.snapshot();
        let db = db.as_ref();
        let head_vars: Vec<&str> = HEAD_VAR_NAMES
            .iter()
            .take(self.target_arity)
            .copied()
            .collect();
        let mut clause = Clause::fact(Atom::vars(self.target.clone(), &head_vars));
        self.inner.fresh_counter = 0;

        let mut coverage = crate::scoring::ClauseCoverage {
            positive: uncovered.len(),
            negative: negative.len(),
        };

        while coverage.negative > 0 && clause.body_len() < params.clause_length {
            // Every candidate literal extends the same clause, so the whole
            // greedy choice is one sibling beam: score it in a single
            // batched engine call (the shared body prefix joins once).
            let candidates: Vec<Atom> = self
                .inner
                .candidate_literals(db, &clause, params)
                .into_iter()
                .filter(|literal| !clause.body.contains(literal)) // duplicates never help FOIL
                .collect();
            let extensions: Vec<Clause> = candidates
                .iter()
                .map(|literal| {
                    let mut extended = clause.clone();
                    extended.push(literal.clone());
                    extended
                })
                .collect();
            let coverages = clauses_coverage_engine(engine, &extensions, uncovered, negative);
            let mut best: Option<(f64, Atom, crate::scoring::ClauseCoverage)> = None;
            for (literal, cov) in candidates.into_iter().zip(coverages) {
                if cov.positive == 0 {
                    continue;
                }
                let gain = foil_gain(
                    coverage.positive,
                    coverage.negative,
                    cov.positive,
                    cov.negative,
                );
                let better = match &best {
                    None => true,
                    Some((best_gain, _, best_cov)) => {
                        gain > *best_gain
                            || (gain == *best_gain && cov.positive > best_cov.positive)
                            || (gain == *best_gain
                                && cov.positive == best_cov.positive
                                && cov.negative < best_cov.negative)
                    }
                };
                if better {
                    best = Some((gain, literal, cov));
                }
            }
            // Greedy, no backtracking: add the best literal even when its
            // gain is zero (it may introduce the variables a later literal
            // needs), bounded by `clauselength`.
            let Some((_, literal, cov)) = best else {
                break;
            };
            clause.push(literal);
            coverage = cov;
        }

        if coverage.positive == 0 || clause.body_len() == 0 {
            return None;
        }
        Some(clause)
    }
}

impl Foil {
    /// Learns a definition over a shared evaluation engine, binding the
    /// task's target relation name into the clause heads (the entry point
    /// used by the experiment harness, which reuses one engine — and its
    /// coverage cache — across folds and algorithms).
    pub fn learn_with_engine(
        &mut self,
        engine: &Engine,
        task: &LearningTask,
        params: &LearnerParams,
    ) -> Definition {
        let mut adapter = FoilWithTarget {
            target: task.target.clone(),
            target_arity: task.target_arity,
            inner: self,
        };
        covering_loop(&mut adapter, engine, task, params)
    }

    /// Backwards-compatible alias for [`Foil::learn`].
    pub fn learn_with_target(
        &mut self,
        db: &DatabaseInstance,
        task: &LearningTask,
        params: &LearnerParams,
    ) -> Definition {
        self.learn(db, task, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_relational::{RelationSymbol, Schema};

    /// A database where the target `parent_of_student` holds for professors
    /// who share a publication with a student.
    fn db() -> DatabaseInstance {
        let mut schema = Schema::new("t");
        schema
            .add_relation(RelationSymbol::new("professor", &["p"]))
            .add_relation(RelationSymbol::new("student", &["s"]))
            .add_relation(RelationSymbol::new("publication", &["title", "person"]));
        let mut db = DatabaseInstance::empty(&schema);
        for p in ["prof1", "prof2"] {
            db.insert("professor", Tuple::from_strs(&[p])).unwrap();
        }
        for s in ["stud1", "stud2", "stud3"] {
            db.insert("student", Tuple::from_strs(&[s])).unwrap();
        }
        for (t, person) in [
            ("a", "prof1"),
            ("a", "stud1"),
            ("b", "prof2"),
            ("b", "stud2"),
            ("c", "stud3"),
        ] {
            db.insert("publication", Tuple::from_strs(&[t, person]))
                .unwrap();
        }
        db
    }

    fn task() -> LearningTask {
        LearningTask::new(
            "advisedBy",
            2,
            vec![
                Tuple::from_strs(&["stud1", "prof1"]),
                Tuple::from_strs(&["stud2", "prof2"]),
            ],
            vec![
                Tuple::from_strs(&["stud1", "prof2"]),
                Tuple::from_strs(&["stud2", "prof1"]),
                Tuple::from_strs(&["stud3", "prof1"]),
            ],
        )
    }

    #[test]
    fn foil_learns_shared_publication_definition() {
        let db = db();
        let mut foil = Foil::new();
        let params = LearnerParams {
            clause_length: 4,
            allow_constants: false,
            ..Default::default()
        };
        let def = foil.learn_with_target(&db, &task(), &params);
        assert!(!def.is_empty(), "FOIL should learn at least one clause");
        // The learned definition must cover both positives and no negative.
        let t = task();
        for pos in &t.positive {
            assert!(def
                .clauses
                .iter()
                .any(|c| castor_logic::covers_example(c, &db, pos)));
        }
        for neg in &t.negative {
            assert!(!def
                .clauses
                .iter()
                .all(|c| castor_logic::covers_example(c, &db, neg)));
        }
    }

    #[test]
    fn clause_length_limits_hypothesis_space() {
        // With clauselength = 1 FOIL cannot express the shared-publication
        // join, so the learned definition covers negatives or nothing.
        let db = db();
        let mut foil = Foil::new();
        let params = LearnerParams {
            clause_length: 1,
            allow_constants: false,
            min_pos: 2,
            ..Default::default()
        };
        let def = foil.learn_with_target(&db, &task(), &params);
        let exact = Clause::new(
            Atom::vars("advisedBy", &["x", "y"]),
            vec![
                Atom::vars("publication", &["p", "x"]),
                Atom::vars("publication", &["p", "y"]),
            ],
        );
        // The two-literal definition is out of the restricted space.
        assert!(def.clauses.iter().all(|c| c.body_len() <= 1));
        assert!(def
            .clauses
            .iter()
            .all(|c| castor_logic::subsumption::theta_equivalent(c, &exact) == Some(false)));
    }

    #[test]
    fn gain_prefers_literals_that_keep_positives() {
        assert!(foil_gain(10, 10, 10, 0) > foil_gain(10, 10, 5, 0));
        assert!(foil_gain(10, 10, 8, 1) > foil_gain(10, 10, 8, 8));
        assert_eq!(foil_gain(10, 10, 0, 0), f64::NEG_INFINITY);
    }

    #[test]
    fn candidate_generation_respects_constant_flag() {
        let db = db();
        let mut foil = Foil::new();
        let clause = Clause::fact(Atom::vars("advisedBy", &["x", "y"]));
        let with = foil.candidate_literals(
            &db,
            &clause,
            &LearnerParams {
                allow_constants: true,
                ..Default::default()
            },
        );
        let without = foil.candidate_literals(
            &db,
            &clause,
            &LearnerParams {
                allow_constants: false,
                ..Default::default()
            },
        );
        assert!(with.len() > without.len());
        assert!(without.iter().all(|a| a.constants().is_empty()));
    }
}

//! ProGolem: bottom-up learning with asymmetric relative minimal
//! generalization (Muggleton et al. 2009; Section 6.4 of the paper).
//!
//! ProGolem's `LearnClause` builds the (ordered, variablized) bottom clause
//! of a seed example and then beam-searches over repeated applications of
//! the **armg** operator (Algorithm 3): to make the clause cover another
//! positive example, drop its *blocking atoms* — the first body literal at
//! which the prefix clause stops covering the example — and every literal
//! that loses head-connection as a result. Because armg drops whole
//! literals, and the granularity of literals depends on how the schema
//! splits attributes across relations, ProGolem is not schema independent
//! (Example 6.5, Theorem 6.6). Castor repairs exactly this step with
//! IND-awareness.

use crate::bottom_clause::{variablized_bottom_clause, BottomClauseConfig};
use crate::covering::{covering_loop, ClauseLearner};
use crate::params::LearnerParams;
use crate::scoring::{clause_coverage_engine, clauses_coverage_engine};
use crate::task::LearningTask;
use castor_engine::Engine;
use castor_logic::{minimize_clause, Clause, Definition};
use castor_relational::{DatabaseInstance, Tuple};

/// The ProGolem learner.
#[derive(Debug, Default)]
pub struct ProGolem;

impl ProGolem {
    /// Creates a ProGolem learner.
    pub fn new() -> Self {
        ProGolem
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

    /// Learns a definition over a shared evaluation engine.
    pub fn learn_with_engine(
        &mut self,
        engine: &Engine,
        task: &LearningTask,
        params: &LearnerParams,
    ) -> Definition {
        let mut adapter = ProGolemClauseLearner {
            target: task.target.clone(),
        };
        covering_loop(&mut adapter, engine, task, params)
    }
}

/// The asymmetric relative minimal generalization of `clause` towards
/// example `e'` (Algorithm 3): repeatedly remove the blocking atom — the
/// first body literal at which the prefix clause stops covering `e'` — and
/// any literal left unconnected to the head, until the clause covers `e'`.
/// Returns `None` if even the empty-bodied clause fails to cover `e'`
/// (which can only happen if the head constants conflict). The loop is
/// [`Engine::armg`]: prefix coverage tests run through the engine, and each
/// blocking-atom scan resumes at the first body position the last removal
/// changed.
pub fn armg(clause: &Clause, engine: &Engine, example: &Tuple) -> Option<Clause> {
    engine.armg(clause, example, |current, blocking| {
        current.body.remove(blocking);
        current.remove_unconnected();
    })
}

struct ProGolemClauseLearner {
    target: String,
}

impl ClauseLearner for ProGolemClauseLearner {
    fn learn_clause(
        &mut self,
        engine: &Engine,
        uncovered: &[Tuple],
        negative: &[Tuple],
        params: &LearnerParams,
    ) -> Option<Clause> {
        let db = engine.snapshot();
        let db = db.as_ref();
        let seed = uncovered.first()?;
        let config = BottomClauseConfig {
            max_iterations: params.max_iterations,
            max_recall_per_relation: params.max_recall_per_relation,
            constant_positions: params.constant_positions.clone(),
            ..Default::default()
        };
        let bottom = variablized_bottom_clause(db, &self.target, seed, &config);
        if bottom.body.is_empty() {
            return None;
        }

        let score_of = |c: &Clause| clause_coverage_engine(engine, c, uncovered, negative).score();
        let mut beam: Vec<(Clause, i64)> = vec![(bottom.clone(), score_of(&bottom))];
        let mut best = beam[0].clone();

        loop {
            // Sample of positives to generalize towards (deterministic
            // prefix, like our Golem implementation). The round's armg
            // products are gathered first and scored as one batch — armg
            // drops literals, so generalizations of one beam round share
            // long body prefixes.
            let sample: Vec<&Tuple> = uncovered.iter().take(params.sample_size.max(1)).collect();
            let mut generalizations: Vec<Clause> = Vec::new();
            for (clause, _) in &beam {
                for example in &sample {
                    if engine.covers(clause, example) {
                        continue;
                    }
                    let Some(generalized) = armg(clause, engine, example) else {
                        continue;
                    };
                    if generalized.body.is_empty() {
                        continue;
                    }
                    generalizations.push(generalized);
                }
            }
            let coverages = clauses_coverage_engine(engine, &generalizations, uncovered, negative);
            let mut candidates: Vec<(Clause, i64)> = generalizations
                .into_iter()
                .zip(coverages)
                .map(|(generalized, cov)| (generalized, cov.score()))
                .filter(|&(_, score)| score > best.1)
                .collect();
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by_key(|(_, score)| std::cmp::Reverse(*score));
            candidates.truncate(params.beam_width.max(1));
            if candidates[0].1 > best.1 {
                best = candidates[0].clone();
            }
            beam = candidates;
        }

        let cov = clause_coverage_engine(engine, &best.0, uncovered, negative);
        if cov.positive == 0 {
            return None;
        }
        Some(minimize_clause(&best.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_logic::{covers_example, Atom};
    use castor_relational::{RelationSymbol, Schema};

    fn engine_for(db: &DatabaseInstance) -> Engine {
        // Exercise the zero-copy construction path (shared instance).
        Engine::from_arc(
            std::sync::Arc::new(db.clone()),
            LearnerParams::default().engine_config(),
        )
    }

    /// Example 6.5: hardWorking over the Original UW-CSE schema.
    fn uwcse_original_db() -> DatabaseInstance {
        let mut schema = Schema::new("uwcse-original");
        schema
            .add_relation(RelationSymbol::new("student", &["stud"]))
            .add_relation(RelationSymbol::new("inPhase", &["stud", "phase"]))
            .add_relation(RelationSymbol::new("yearsInProgram", &["stud", "years"]));
        let mut db = DatabaseInstance::empty(&schema);
        for (s, phase, years) in [
            ("ann", "prelim", "3"),
            ("bob", "prelim", "3"),
            ("carl", "post", "7"),
        ] {
            db.insert("student", Tuple::from_strs(&[s])).unwrap();
            db.insert("inPhase", Tuple::from_strs(&[s, phase])).unwrap();
            db.insert("yearsInProgram", Tuple::from_strs(&[s, years]))
                .unwrap();
        }
        db
    }

    #[test]
    fn armg_drops_blocking_atom_and_keeps_rest() {
        let db = uwcse_original_db();
        // hardWorking(x) ← student(x), inPhase(x,prelim), yearsInProgram(x,3)
        let clause = Clause::new(
            Atom::vars("hardWorking", &["x"]),
            vec![
                Atom::vars("student", &["x"]),
                Atom::new(
                    "inPhase",
                    vec![
                        castor_logic::Term::var("x"),
                        castor_logic::Term::constant("prelim"),
                    ],
                ),
                Atom::new(
                    "yearsInProgram",
                    vec![
                        castor_logic::Term::var("x"),
                        castor_logic::Term::constant("3"),
                    ],
                ),
            ],
        );
        // carl is in phase post with 7 years: both constant literals block.
        let engine = engine_for(&db);
        let generalized = armg(&clause, &engine, &Tuple::from_strs(&["carl"])).unwrap();
        assert!(covers_example(
            &generalized,
            &db,
            &Tuple::from_strs(&["carl"])
        ));
        // student(x) survives — the schema-dependence example relies on this.
        assert!(generalized.body.iter().any(|a| a.relation == "student"));
        assert!(generalized
            .body
            .iter()
            .all(|a| a.relation != "inPhase" || a.constants().is_empty()));
    }

    #[test]
    fn blocking_atom_is_first_failing_prefix() {
        let db = uwcse_original_db();
        let clause = Clause::new(
            Atom::vars("hardWorking", &["x"]),
            vec![
                Atom::vars("student", &["x"]),
                Atom::new(
                    "inPhase",
                    vec![
                        castor_logic::Term::var("x"),
                        castor_logic::Term::constant("post"),
                    ],
                ),
            ],
        );
        let engine = engine_for(&db);
        let first_blocking = |name: &str| {
            let mut first = None;
            engine.armg(&clause, &Tuple::from_strs(&[name]), |current, blocking| {
                first.get_or_insert(blocking);
                current.body.remove(blocking);
            });
            first
        };
        // For ann, student(x) holds but inPhase(x,post) fails → index 1.
        assert_eq!(first_blocking("ann"), Some(1));
        // For carl, both hold → no blocking atom.
        assert_eq!(first_blocking("carl"), None);
    }

    #[test]
    fn armg_returns_original_clause_when_example_already_covered() {
        let db = uwcse_original_db();
        let clause = Clause::new(
            Atom::vars("hardWorking", &["x"]),
            vec![Atom::vars("student", &["x"])],
        );
        let engine = engine_for(&db);
        let out = armg(&clause, &engine, &Tuple::from_strs(&["ann"])).unwrap();
        assert_eq!(out, clause);
    }

    #[test]
    fn progolem_learns_on_small_task() {
        let db = uwcse_original_db();
        let task = LearningTask::new(
            "hardWorking",
            1,
            vec![Tuple::from_strs(&["ann"]), Tuple::from_strs(&["bob"])],
            vec![Tuple::from_strs(&["carl"])],
        );
        let params = LearnerParams {
            sample_size: 2,
            beam_width: 3,
            min_pos: 2,
            constant_positions: [
                ("inPhase".to_string(), 1),
                ("yearsInProgram".to_string(), 1),
            ]
            .into_iter()
            .collect(),
            ..Default::default()
        };
        let def = ProGolem::new().learn(&db, &task, &params);
        assert!(!def.is_empty());
        for pos in &task.positive {
            assert!(def.clauses.iter().any(|c| covers_example(c, &db, pos)));
        }
        for neg in &task.negative {
            assert!(def.clauses.iter().all(|c| !covers_example(c, &db, neg)));
        }
    }
}

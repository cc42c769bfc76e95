//! Precision and recall of learned definitions (Section 9.1.3).

use castor_engine::Engine;
use castor_logic::{covers_example, Clause, Definition};
use castor_relational::{DatabaseInstance, Tuple};

/// Precision/recall of a definition over a test split.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvaluationResult {
    /// True positives: covered test positives.
    pub true_positives: usize,
    /// Covered test negatives.
    pub false_positives: usize,
    /// Uncovered test positives.
    pub false_negatives: usize,
}

impl EvaluationResult {
    /// Proportion of covered examples that are true positives. An empty
    /// definition (covering nothing) has precision 0.
    pub fn precision(&self) -> f64 {
        let covered = self.true_positives + self.false_positives;
        if covered == 0 {
            0.0
        } else {
            self.true_positives as f64 / covered as f64
        }
    }

    /// Proportion of test positives covered.
    pub fn recall(&self) -> f64 {
        let positives = self.true_positives + self.false_negatives;
        if positives == 0 {
            0.0
        } else {
            self.true_positives as f64 / positives as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Accumulates another fold's counts (micro-averaging across folds).
    pub fn accumulate(&mut self, other: &EvaluationResult) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
    }
}

/// The transport-independent core of definition evaluation: run one
/// batched coverage job over the concatenated test splits through
/// `covered_sets`, then classify. Both the in-process session path and
/// the RPC client path delegate here, so their scoring arithmetic cannot
/// diverge.
fn evaluate_definition_via(
    definition: &Definition,
    test_positive: &[Tuple],
    test_negative: &[Tuple],
    covered_sets: impl FnOnce(Vec<Clause>, Vec<Tuple>) -> Vec<std::collections::HashSet<Tuple>>,
) -> EvaluationResult {
    if definition.clauses.is_empty() {
        return EvaluationResult {
            true_positives: 0,
            false_positives: 0,
            false_negatives: test_positive.len(),
        };
    }
    let mut examples: Vec<Tuple> = Vec::with_capacity(test_positive.len() + test_negative.len());
    examples.extend_from_slice(test_positive);
    examples.extend_from_slice(test_negative);
    let sets = covered_sets(definition.clauses.clone(), examples);
    let covered_by_any: std::collections::HashSet<&Tuple> =
        sets.iter().flat_map(|set| set.iter()).collect();
    let true_positives = test_positive
        .iter()
        .filter(|e| covered_by_any.contains(e))
        .count();
    let false_positives = test_negative
        .iter()
        .filter(|e| covered_by_any.contains(e))
        .count();
    EvaluationResult {
        true_positives,
        false_positives,
        false_negatives: test_positive.len() - true_positives,
    }
}

/// Evaluates a learned definition through a serving-layer session: the
/// definition's clauses and both test splits go to the session's database
/// queue as one batched coverage job, so fold evaluation shares the
/// engine's memoized coverage and compiled plans with the learner run that
/// produced the definition.
pub fn evaluate_definition_with_session(
    session: &castor_service::Session,
    definition: &Definition,
    test_positive: &[Tuple],
    test_negative: &[Tuple],
) -> EvaluationResult {
    evaluate_definition_via(
        definition,
        test_positive,
        test_negative,
        |clauses, examples| {
            session
                .covered_sets(clauses, examples)
                .expect("evaluation sessions are never cancelled")
        },
    )
}

/// Evaluates a learned definition over a live RPC connection — the wire
/// counterpart of [`evaluate_definition_with_session`]: one batched
/// coverage job travels the socket and the covered sets come back framed.
/// Results are bit-identical to the in-process path (the server executes
/// the same `CoverageJob`).
pub fn evaluate_definition_with_client(
    client: &mut castor_rpc::RpcClient,
    definition: &Definition,
    test_positive: &[Tuple],
    test_negative: &[Tuple],
) -> EvaluationResult {
    evaluate_definition_via(
        definition,
        test_positive,
        test_negative,
        |clauses, examples| {
            client
                .covered_sets(clauses, examples)
                .expect("evaluation connections are never cancelled")
        },
    )
}

/// Evaluates a learned definition through a shared evaluation engine
/// (compiled plans + memoized coverage), so repeated evaluations of
/// overlapping definitions across folds reuse cached results.
pub fn evaluate_definition_with_engine(
    engine: &Engine,
    definition: &Definition,
    test_positive: &[Tuple],
    test_negative: &[Tuple],
) -> EvaluationResult {
    let covers = |e: &Tuple| definition.clauses.iter().any(|c| engine.covers(c, e));
    let true_positives = test_positive.iter().filter(|e| covers(e)).count();
    let false_positives = test_negative.iter().filter(|e| covers(e)).count();
    EvaluationResult {
        true_positives,
        false_positives,
        false_negatives: test_positive.len() - true_positives,
    }
}

/// Evaluates a learned definition on held-out positive and negative
/// examples relative to the background database (uncached reference path).
pub fn evaluate_definition(
    definition: &Definition,
    db: &DatabaseInstance,
    test_positive: &[Tuple],
    test_negative: &[Tuple],
) -> EvaluationResult {
    let covers = |e: &Tuple| definition.clauses.iter().any(|c| covers_example(c, db, e));
    let true_positives = test_positive.iter().filter(|e| covers(e)).count();
    let false_positives = test_negative.iter().filter(|e| covers(e)).count();
    EvaluationResult {
        true_positives,
        false_positives,
        false_negatives: test_positive.len() - true_positives,
    }
}

/// Whether a set of per-variant results is schema independent in the sense
/// used by the paper's tables: equal precision and recall (within a small
/// tolerance) across every schema variant.
pub fn schema_independent(results: &[EvaluationResult], tolerance: f64) -> bool {
    let Some(first) = results.first() else {
        return true;
    };
    results.iter().all(|r| {
        (r.precision() - first.precision()).abs() <= tolerance
            && (r.recall() - first.recall()).abs() <= tolerance
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_logic::{Atom, Clause};
    use castor_relational::{RelationSymbol, Schema};

    fn db() -> DatabaseInstance {
        let mut schema = Schema::new("t");
        schema.add_relation(RelationSymbol::new("p", &["x"]));
        let mut db = DatabaseInstance::empty(&schema);
        for v in ["a", "b", "c"] {
            db.insert("p", Tuple::from_strs(&[v])).unwrap();
        }
        db
    }

    fn p_definition() -> Definition {
        Definition::new(
            "t",
            vec![Clause::new(
                Atom::vars("t", &["x"]),
                vec![Atom::vars("p", &["x"])],
            )],
        )
    }

    #[test]
    fn precision_recall_computation() {
        let db = db();
        let result = evaluate_definition(
            &p_definition(),
            &db,
            &[Tuple::from_strs(&["a"]), Tuple::from_strs(&["zz"])],
            &[Tuple::from_strs(&["b"]), Tuple::from_strs(&["yy"])],
        );
        assert_eq!(result.true_positives, 1);
        assert_eq!(result.false_positives, 1);
        assert_eq!(result.false_negatives, 1);
        assert!((result.precision() - 0.5).abs() < 1e-9);
        assert!((result.recall() - 0.5).abs() < 1e-9);
        assert!((result.f1() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn engine_evaluation_matches_reference() {
        let db = db();
        let engine = Engine::new(&db, castor_engine::EngineConfig::default());
        let pos = [Tuple::from_strs(&["a"]), Tuple::from_strs(&["zz"])];
        let neg = [Tuple::from_strs(&["b"]), Tuple::from_strs(&["yy"])];
        assert_eq!(
            evaluate_definition_with_engine(&engine, &p_definition(), &pos, &neg),
            evaluate_definition(&p_definition(), &db, &pos, &neg)
        );
    }

    #[test]
    fn session_evaluation_matches_reference() {
        let db = db();
        let server = castor_service::Server::new(castor_service::ServerConfig::default());
        server
            .register("t", std::sync::Arc::new(db.clone()))
            .unwrap();
        let session = server.session("t").unwrap();
        let pos = [Tuple::from_strs(&["a"]), Tuple::from_strs(&["zz"])];
        let neg = [Tuple::from_strs(&["b"]), Tuple::from_strs(&["yy"])];
        assert_eq!(
            evaluate_definition_with_session(&session, &p_definition(), &pos, &neg),
            evaluate_definition(&p_definition(), &db, &pos, &neg)
        );
        // Empty definitions never submit a job.
        assert_eq!(
            evaluate_definition_with_session(&session, &Definition::empty("t"), &pos, &neg),
            evaluate_definition(&Definition::empty("t"), &db, &pos, &neg)
        );
    }

    #[test]
    fn empty_definition_scores_zero() {
        let db = db();
        let result = evaluate_definition(
            &Definition::empty("t"),
            &db,
            &[Tuple::from_strs(&["a"])],
            &[Tuple::from_strs(&["b"])],
        );
        assert_eq!(result.precision(), 0.0);
        assert_eq!(result.recall(), 0.0);
        assert_eq!(result.f1(), 0.0);
    }

    #[test]
    fn accumulation_micro_averages() {
        let mut total = EvaluationResult::default();
        total.accumulate(&EvaluationResult {
            true_positives: 3,
            false_positives: 1,
            false_negatives: 0,
        });
        total.accumulate(&EvaluationResult {
            true_positives: 1,
            false_positives: 1,
            false_negatives: 2,
        });
        assert_eq!(total.true_positives, 4);
        assert!((total.precision() - 4.0 / 6.0).abs() < 1e-9);
        assert!((total.recall() - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn schema_independence_check() {
        let same = vec![
            EvaluationResult {
                true_positives: 5,
                false_positives: 1,
                false_negatives: 1,
            };
            3
        ];
        assert!(schema_independent(&same, 1e-9));
        let mut different = same.clone();
        different[2].false_positives = 4;
        assert!(!schema_independent(&different, 1e-9));
        assert!(schema_independent(&[], 1e-9));
    }
}

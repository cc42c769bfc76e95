//! The Castor learner: Algorithm 4 (`LearnClause`) inside the covering loop
//! of Algorithm 1, plus the general-IND preprocessing of Section 7.4.

use crate::armg::castor_armg;
use crate::bottom_clause::castor_bottom_clause;
use crate::config::CastorConfig;
use crate::coverage::CoverageEngine;
use crate::plan::BottomClausePlan;
use crate::reduction::negative_reduce;
use castor_engine::{Engine, EngineReport, LearnProgress, Prior};
use castor_learners::LearningTask;
use castor_logic::{is_safe, minimize_clause, Clause, Definition};
use castor_relational::{DatabaseInstance, InclusionDependency, Schema, Tuple};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The result of a Castor run, with the measurements the experiment harness
/// reports.
#[derive(Debug, Clone)]
pub struct LearnOutcome {
    /// The learned Horn definition.
    pub definition: Definition,
    /// Wall-clock learning time.
    pub elapsed: Duration,
    /// Number of coverage (subsumption) tests performed.
    pub coverage_tests: usize,
    /// Combined engine counters for the whole run — the θ-subsumption
    /// coverage engine plus the ARMG evaluation engine: cache behavior,
    /// generality skips, and budget exhaustions (exhaustions flag
    /// approximate coverage counts).
    pub engine: EngineReport,
    /// Average fraction of bottom-clause literals removed by minimization.
    pub minimization_reduction: f64,
}

/// The Castor learner.
#[derive(Debug, Clone)]
pub struct Castor {
    config: CastorConfig,
}

impl Castor {
    /// Creates a Castor learner with the given configuration.
    pub fn new(config: CastorConfig) -> Self {
        Castor { config }
    }

    /// The learner's configuration.
    pub fn config(&self) -> &CastorConfig {
        &self.config
    }

    /// Learns a Horn definition for `task` over `db`. The instance is
    /// deep-cloned once so the engine's worker threads can share it; callers
    /// that already hold an `Arc` (the experiment harness, dataset variants)
    /// should use [`Castor::learn_shared`] and skip the copy.
    pub fn learn(&mut self, db: &DatabaseInstance, task: &LearningTask) -> LearnOutcome {
        self.learn_shared(&Arc::new(db.clone()), task)
    }

    /// Learns a Horn definition for `task` over a shared database instance,
    /// without copying it (zero-copy engine construction). Builds a private
    /// evaluation engine for the run; long-lived callers (the serving
    /// layer's `LearnJob`) pass their own engine to [`Castor::learn_in`]
    /// instead, so plans and cached coverage survive across jobs.
    pub fn learn_shared(
        &mut self,
        db: &Arc<DatabaseInstance>,
        task: &LearningTask,
    ) -> LearnOutcome {
        let eval_engine = Engine::from_arc(Arc::clone(db), self.config.params.engine_config());
        self.learn_in(&eval_engine, task)
    }

    /// Learns a Horn definition for `task` against an existing evaluation
    /// engine: the run evaluates over the engine's current database
    /// snapshot, shares its worker pool, and reports only the engine
    /// activity this run caused (shared engines carry counters from earlier
    /// runs).
    pub fn learn_in(&mut self, eval_engine: &Engine, task: &LearningTask) -> LearnOutcome {
        let start = Instant::now();
        let db = eval_engine.snapshot();
        let eval_baseline = eval_engine.report();

        // Section 7.4 preprocessing: promote subset INDs that hold with
        // equality over this instance.
        let schema = if self.config.promote_general_inds {
            promote_general_inds(&db)
        } else {
            db.schema().clone()
        };

        let mut plan = BottomClausePlan::compile(&schema, self.config.use_general_inds);
        plan.use_indexes = self.config.use_stored_procedures;

        // The subsumption-based coverage engine materializes ground bottom
        // clauses for this run's examples and shares the evaluation
        // engine's worker pool, so one learner run drives a single set of
        // workers. ARMG's prefix coverage tests go through `eval_engine`
        // (compiled plans + memoized prefixes). The eval engine's live
        // budget template carries a serving session's node-budget override
        // and cancellation token into the subsumption tests too.
        let engine = CoverageEngine::build_with_pool(
            &db,
            &plan,
            &task.target,
            &task.positive,
            &task.negative,
            &self.config,
            Arc::clone(eval_engine.pool()),
        )
        .with_budget_template(eval_engine.budget_template());

        let mut definition = Definition::empty(task.target.clone());
        let mut uncovered: Vec<Tuple> = task.positive.clone();
        let mut reduction_samples: Vec<f64> = Vec::new();

        while !uncovered.is_empty() {
            let Some(clause) = self.learn_clause(
                &db,
                &plan,
                &engine,
                eval_engine,
                &task.target,
                &uncovered,
                &task.negative,
                &mut reduction_samples,
            ) else {
                break;
            };
            let covered_pos = engine.covered_set(&clause, &uncovered, Prior::None);
            let covered_neg = engine.covered_set(&clause, &task.negative, Prior::None);
            if !self
                .config
                .params
                .meets_minimum(covered_pos.len(), covered_neg.len())
            {
                break;
            }
            if covered_pos.is_empty() {
                break;
            }
            uncovered.retain(|e| !covered_pos.contains(e));
            eval_engine.emit_progress(&LearnProgress {
                round: definition.len(),
                clause: clause.clone(),
                covered_positive: covered_pos.len(),
                covered_negative: covered_neg.len(),
                uncovered_remaining: uncovered.len(),
            });
            definition.push(clause);
        }

        LearnOutcome {
            definition,
            elapsed: start.elapsed(),
            coverage_tests: engine.tests_performed(),
            engine: engine
                .report()
                .combined(&eval_engine.report().delta_since(&eval_baseline)),
            minimization_reduction: if reduction_samples.is_empty() {
                0.0
            } else {
                reduction_samples.iter().sum::<f64>() / reduction_samples.len() as f64
            },
        }
    }

    /// Castor's `LearnClause` (Algorithm 4): bottom clause of the first
    /// uncovered example, minimization, beam search over IND-aware ARMGs,
    /// and negative reduction of the best candidate.
    #[allow(clippy::too_many_arguments)]
    fn learn_clause(
        &self,
        db: &DatabaseInstance,
        plan: &BottomClausePlan,
        engine: &CoverageEngine,
        eval_engine: &Engine,
        target: &str,
        uncovered: &[Tuple],
        negative: &[Tuple],
        reduction_samples: &mut Vec<f64>,
    ) -> Option<Clause> {
        let params = &self.config.params;
        let seed = uncovered.first()?;
        let mut bottom = castor_bottom_clause(db, plan, target, seed, &self.config);
        if self.config.minimize_clauses {
            let before = bottom.body_len();
            bottom = minimize_clause(&bottom);
            if before > 0 {
                reduction_samples.push((before - bottom.body_len()) as f64 / before as f64);
            }
        }
        if bottom.body.is_empty() {
            return None;
        }

        // Beam of candidates, each carrying the set of positives it is known
        // to cover (used to skip redundant coverage tests, Section 7.5.4).
        let initial_cov = engine.covered_set(&bottom, uncovered, Prior::None);
        let initial_neg = engine.covered_set(&bottom, negative, Prior::None);
        let mut beam: Vec<(Clause, HashSet<Tuple>, usize)> =
            vec![(bottom.clone(), initial_cov.clone(), initial_neg.len())];
        let mut best: (Clause, i64) = (
            bottom.clone(),
            initial_cov.len() as i64 - initial_neg.len() as i64,
        );

        loop {
            let sample: Vec<&Tuple> = uncovered.iter().take(params.sample_size.max(1)).collect();
            // Generate the whole round's ARMG candidates first: sibling
            // generalizations of one beam share long body prefixes, so the
            // round is scored in one batched engine call instead of one
            // covered_set per candidate.
            let mut generated: Vec<(Clause, usize)> = Vec::new();
            for (parent_idx, (clause, known_cov, _)) in beam.iter().enumerate() {
                for example in &sample {
                    if known_cov.contains(*example) {
                        continue;
                    }
                    let Some(generalized) = castor_armg(clause, eval_engine, plan, example) else {
                        continue;
                    };
                    if generalized.body.is_empty() {
                        continue;
                    }
                    if self.config.safe_clauses && !is_safe(&generalized) {
                        continue;
                    }
                    generated.push((generalized, parent_idx));
                }
            }
            if generated.is_empty() {
                break;
            }
            // Generality-order invariant, batched: the engine accepts every
            // example a candidate's beam parent is cached as covering, and
            // `known_cov` (always a subset of `uncovered`, since it came
            // from covered_set over it) adds what the beam entry accumulated
            // even if the cache evicted it.
            let clauses: Vec<Clause> = generated.iter().map(|(c, _)| c.clone()).collect();
            let priors: Vec<Prior> = generated
                .iter()
                .map(|&(_, parent_idx)| Prior::GeneralizationOf(&beam[parent_idx].0))
                .collect();
            let pos_sets = engine.covered_sets_batch_with_priors(&clauses, &priors, uncovered);
            let neg_sets = engine.covered_sets_batch(&clauses, negative);
            let mut candidates: Vec<(Clause, HashSet<Tuple>, usize)> = Vec::new();
            for (((generalized, parent_idx), mut cov), neg) in
                generated.into_iter().zip(pos_sets).zip(neg_sets)
            {
                cov.extend(beam[parent_idx].1.iter().cloned());
                let score = cov.len() as i64 - neg.len() as i64;
                if score > best.1 {
                    candidates.push((generalized, cov, neg.len()));
                }
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by_key(|(_, cov, neg)| -(cov.len() as i64 - *neg as i64));
            candidates.truncate(params.beam_width.max(1));
            let top_score = candidates[0].1.len() as i64 - candidates[0].2 as i64;
            if top_score > best.1 {
                best = (candidates[0].0.clone(), top_score);
            }
            beam = candidates;
        }

        // Negative reduction of the best candidate, then minimization.
        let reduced = negative_reduce(&best.0, engine, negative, plan, self.config.safe_clauses);
        let final_clause = if self.config.minimize_clauses {
            minimize_clause(&reduced)
        } else {
            reduced
        };
        if final_clause.body.is_empty() {
            return None;
        }
        Some(final_clause)
    }
}

/// Promotes subset INDs that hold with equality over the given instance
/// (the preprocessing step of Section 7.4).
pub fn promote_general_inds(db: &DatabaseInstance) -> Schema {
    let schema = db.schema().clone();
    let promoted: Vec<InclusionDependency> = schema
        .inds()
        .filter(|ind| !ind.with_equality)
        .filter(|ind| {
            let mut as_equality = (*ind).clone();
            as_equality.with_equality = true;
            db.satisfies_ind(&as_equality).unwrap_or(false)
        })
        .cloned()
        .collect();
    if promoted.is_empty() {
        return schema;
    }
    let mut out = Schema::new(schema.name());
    for r in schema.relations() {
        out.add_relation(r.clone());
    }
    for c in schema.constraints() {
        match c {
            castor_relational::Constraint::Ind(ind) if promoted.iter().any(|p| p == ind) => {
                let mut eq = ind.clone();
                eq.with_equality = true;
                out.add_ind(eq);
            }
            other => {
                out.add_constraint(other.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_relational::{RelationSymbol, Tuple};

    /// Collaboration database: the target is "x and y co-authored a paper".
    fn collaboration_db() -> DatabaseInstance {
        let mut schema = Schema::new("demo");
        schema.add_relation(RelationSymbol::new("publication", &["title", "person"]));
        schema.add_relation(RelationSymbol::new("professor", &["prof"]));
        let mut db = DatabaseInstance::empty(&schema);
        for (t, p) in [
            ("p1", "ann"),
            ("p1", "bob"),
            ("p2", "carol"),
            ("p2", "dan"),
            ("p3", "eve"),
            ("p4", "ann"),
        ] {
            db.insert("publication", Tuple::from_strs(&[t, p])).unwrap();
        }
        for p in ["bob", "dan"] {
            db.insert("professor", Tuple::from_strs(&[p])).unwrap();
        }
        db
    }

    fn collaboration_task() -> LearningTask {
        LearningTask::new(
            "advisedBy",
            2,
            vec![
                Tuple::from_strs(&["ann", "bob"]),
                Tuple::from_strs(&["carol", "dan"]),
            ],
            vec![
                Tuple::from_strs(&["ann", "dan"]),
                Tuple::from_strs(&["eve", "bob"]),
                Tuple::from_strs(&["carol", "bob"]),
            ],
        )
    }

    #[test]
    fn castor_learns_consistent_definition() {
        let db = collaboration_db();
        let task = collaboration_task();
        let mut castor = Castor::new(CastorConfig::default());
        let outcome = castor.learn(&db, &task);
        assert!(!outcome.definition.is_empty());
        for pos in &task.positive {
            assert!(
                outcome
                    .definition
                    .clauses
                    .iter()
                    .any(|c| castor_logic::covers_example(c, &db, pos)),
                "positive {pos} must be covered"
            );
        }
        for neg in &task.negative {
            assert!(
                !outcome
                    .definition
                    .clauses
                    .iter()
                    .any(|c| castor_logic::covers_example(c, &db, neg)),
                "negative {neg} must not be covered"
            );
        }
        assert!(outcome.coverage_tests > 0);
    }

    #[test]
    fn safe_mode_produces_safe_definitions() {
        let db = collaboration_db();
        let task = collaboration_task();
        let config = CastorConfig {
            safe_clauses: true,
            ..Default::default()
        };
        let outcome = Castor::new(config).learn(&db, &task);
        assert!(castor_logic::safety::is_safe_definition(
            &outcome.definition
        ));
    }

    #[test]
    fn stored_procedure_ablation_learns_same_definition() {
        let db = collaboration_db();
        let task = collaboration_task();
        let with = Castor::new(CastorConfig::default()).learn(&db, &task);
        let without =
            Castor::new(CastorConfig::default().without_stored_procedures()).learn(&db, &task);
        assert_eq!(with.definition.len(), without.definition.len());
        for (a, b) in with
            .definition
            .clauses
            .iter()
            .zip(without.definition.clauses.iter())
        {
            assert_eq!(
                castor_logic::subsumption::theta_equivalent(a, b),
                Some(true)
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let db = collaboration_db();
        let task = collaboration_task();
        let single = Castor::new(CastorConfig::default().with_threads(1)).learn(&db, &task);
        let multi = Castor::new(CastorConfig::default().with_threads(4)).learn(&db, &task);
        assert_eq!(single.definition.len(), multi.definition.len());
    }

    #[test]
    fn promote_general_inds_upgrades_matching_subset_inds() {
        let mut schema = Schema::new("s");
        schema
            .add_relation(RelationSymbol::new("a", &["x"]))
            .add_relation(RelationSymbol::new("b", &["x"]))
            .add_ind(InclusionDependency::subset("a", &["x"], "b", &["x"]));
        let mut db = DatabaseInstance::empty(&schema);
        db.insert("a", Tuple::from_strs(&["1"])).unwrap();
        db.insert("b", Tuple::from_strs(&["1"])).unwrap();
        let promoted = promote_general_inds(&db);
        assert_eq!(promoted.equality_inds().len(), 1);
        // Add an extra b tuple: the IND no longer holds with equality.
        db.insert("b", Tuple::from_strs(&["2"])).unwrap();
        let db2 = {
            let mut fresh = DatabaseInstance::empty(&schema);
            fresh.insert("a", Tuple::from_strs(&["1"])).unwrap();
            fresh.insert("b", Tuple::from_strs(&["1"])).unwrap();
            fresh.insert("b", Tuple::from_strs(&["2"])).unwrap();
            fresh
        };
        assert!(promote_general_inds(&db2).equality_inds().is_empty());
    }

    #[test]
    fn empty_task_learns_empty_definition() {
        let db = collaboration_db();
        let task = LearningTask::new("advisedBy", 2, vec![], vec![]);
        let outcome = Castor::new(CastorConfig::default()).learn(&db, &task);
        assert!(outcome.definition.is_empty());
    }
}

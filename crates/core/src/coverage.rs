//! Coverage testing by θ-subsumption with caching and parallelism
//! (Sections 7.5.3–7.5.4), built on the `castor-engine` subsystem.
//!
//! Castor evaluates a candidate clause by checking, for each example,
//! whether the clause θ-subsumes the example's *ground bottom clause* — the
//! same semantics as evaluating against the database, but over a small
//! pre-materialized neighborhood, which is what lets coverage tests be
//! parallelized and cached. The engine below:
//!
//! * materializes the ground bottom clause of every example once (the
//!   "stored procedure" call per example in the paper's implementation);
//! * runs pending tests on the persistent [`WorkerPool`] with work-stealing
//!   over examples (Figure 2's ablation) — no per-call thread spawning, and
//!   the pool can be shared with the database-evaluation [`castor_engine::Engine`]
//!   so one learner run drives a single set of workers;
//! * memoizes results per canonical clause through the shared
//!   [`castor_engine::CoverageRuntime`], so the covering loop's re-scoring
//!   of α-equivalent candidates is free;
//! * exploits the generality order as an engine invariant: pass
//!   [`Prior::GeneralizationOf`] and everything the parent is known to
//!   cover is accepted without a test;
//! * reports subsumption-budget exhaustions (the bounded θ-subsumption
//!   search treating "ran out of nodes" as "not covered") through the
//!   engine counters instead of hiding them — and memoizes them in the
//!   cache's budget-keyed exhaustion tier (keyed by the subsumption node
//!   budget, served only to equal-or-smaller budgets), so exhaustion-heavy
//!   workloads like HIV stop re-running the same doomed searches.

use crate::config::CastorConfig;
use crate::plan::BottomClausePlan;
use castor_engine::{
    canonicalize, CoverageRuntime, CoverageTester, EngineReport, EngineStats, Prior, WorkerPool,
};
use castor_logic::{subsumes_with_eval_budget, Clause, CoverageOutcome, EvalBudget};
use castor_relational::{DatabaseInstance, Tuple};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Coverage-testing engine holding the ground bottom clauses of the
/// training examples.
#[derive(Debug)]
pub struct CoverageEngine {
    ground: Arc<HashMap<Tuple, Clause>>,
    runtime: CoverageRuntime,
    /// Per-test budget template, cloned per subsumption test. Carries the
    /// serving session's node-budget override and cancellation token when
    /// installed through [`CoverageEngine::with_budget_template`].
    budget: EvalBudget,
}

impl CoverageEngine {
    /// Materializes ground bottom clauses for every positive and negative
    /// example of the task and spins up a private worker pool sized by
    /// `config.params` (see [`CoverageEngine::build_with_pool`] to share
    /// an existing pool instead).
    pub fn build(
        db: &DatabaseInstance,
        plan: &BottomClausePlan,
        target: &str,
        positive: &[Tuple],
        negative: &[Tuple],
        config: &CastorConfig,
    ) -> Self {
        let pool = Arc::new(WorkerPool::new(config.params.threads.max(1)));
        CoverageEngine::build_with_pool(db, plan, target, positive, negative, config, pool)
    }

    /// [`CoverageEngine::build`] reusing the caller's worker pool (the
    /// Castor learner passes its evaluation engine's pool so one run drives
    /// a single set of workers). Cache capacity and the parallel threshold
    /// come from `config.params.engine_config()`.
    pub fn build_with_pool(
        db: &DatabaseInstance,
        plan: &BottomClausePlan,
        target: &str,
        positive: &[Tuple],
        negative: &[Tuple],
        config: &CastorConfig,
        pool: Arc<WorkerPool>,
    ) -> Self {
        let examples: Vec<Tuple> = positive.iter().chain(negative.iter()).cloned().collect();
        let ground = ground_bottom_clauses(db, plan, target, &examples, config, &pool);
        let engine_config = config.params.engine_config();
        CoverageEngine {
            ground: Arc::new(ground),
            runtime: CoverageRuntime::new(&engine_config, pool),
            budget: EvalBudget::new(engine_config.eval_budget),
        }
    }

    /// The materialized ground bottom clause of `example`, if it is one of
    /// the engine's training examples (used by equivalence tests and the
    /// Figure 2 parallelism reports).
    pub fn ground_clause(&self, example: &Tuple) -> Option<&Clause> {
        self.ground.get(example)
    }

    /// Replaces the per-test budget template (builder style). The Castor
    /// learner passes its evaluation engine's live template here, so a
    /// serving session's budget override and cancellation token govern the
    /// θ-subsumption tests too.
    pub fn with_budget_template(mut self, budget: EvalBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Number of subsumption tests performed so far (used by the ablation
    /// reports). Cache hits do not count: no test ran.
    pub fn tests_performed(&self) -> usize {
        self.report().coverage_tests
    }

    /// Snapshot of the full engine counters (tests, cache behavior,
    /// generality skips, subsumption-budget exhaustions).
    pub fn report(&self) -> EngineReport {
        self.runtime.report()
    }

    /// Whether `clause` covers `example` (θ-subsumes its ground bottom
    /// clause), going through the memo cache.
    pub fn covers(&self, clause: &Clause, example: &Tuple) -> bool {
        let canonical = canonicalize(clause);
        self.runtime
            .try_covers(self, &canonical, example)
            .is_covered()
    }

    /// The subset of `examples` covered by `clause`. `prior` carries the
    /// generality order: with [`Prior::GeneralizationOf`], every example
    /// the parent clause is cached as covering is accepted without a test
    /// (valid because generalization can only grow the covered set).
    pub fn covered_set(
        &self,
        clause: &Clause,
        examples: &[Tuple],
        prior: Prior<'_>,
    ) -> HashSet<Tuple> {
        let canonical = canonicalize(clause);
        self.runtime.covered_set(self, &canonical, examples, prior)
    }

    /// Positive/negative coverage counts for `clause`.
    pub fn coverage_counts(
        &self,
        clause: &Clause,
        positive: &[Tuple],
        negative: &[Tuple],
    ) -> (usize, usize) {
        let pos = self.covered_set(clause, positive, Prior::None).len();
        let neg = self.covered_set(clause, negative, Prior::None).len();
        (pos, neg)
    }

    /// The covered subsets for a whole beam of candidate clauses at once:
    /// candidates are deduplicated per canonical clause, the memo cache is
    /// probed under one lock for the entire beam, and the remaining
    /// (candidate, example) subsumption tests run as one flat work list on
    /// the worker pool instead of one pool dispatch per candidate.
    pub fn covered_sets_batch(
        &self,
        clauses: &[Clause],
        examples: &[Tuple],
    ) -> Vec<HashSet<Tuple>> {
        self.runtime
            .covered_sets_batch(self, clauses, examples, &[])
    }

    /// [`CoverageEngine::covered_sets_batch`] with one [`Prior`] per
    /// candidate — the beam loop passes `Prior::GeneralizationOf(parent)`
    /// so every example a candidate's beam parent is cached as covering is
    /// accepted without a subsumption test.
    pub fn covered_sets_batch_with_priors(
        &self,
        clauses: &[Clause],
        priors: &[Prior<'_>],
        examples: &[Tuple],
    ) -> Vec<HashSet<Tuple>> {
        self.runtime
            .covered_sets_batch(self, clauses, examples, priors)
    }
}

impl CoverageTester for CoverageEngine {
    fn test(&self, canonical: &Clause, example: &Tuple) -> CoverageOutcome {
        test_subsumption(
            &self.ground,
            self.runtime.metrics(),
            canonical,
            example,
            &self.budget,
        )
    }

    fn parallel_task(
        &self,
        canonical: &Clause,
        examples: &Arc<Vec<Tuple>>,
    ) -> Box<dyn Fn(usize) -> CoverageOutcome + Send + Sync + 'static> {
        let ground = Arc::clone(&self.ground);
        let metrics = Arc::clone(self.runtime.metrics());
        let clause = canonical.clone();
        let examples = Arc::clone(examples);
        let budget = self.budget.clone();
        Box::new(move |i| test_subsumption(&ground, &metrics, &clause, &examples[i], &budget))
    }

    fn pair_task(
        &self,
        canonicals: &Arc<Vec<Clause>>,
        examples: &Arc<Vec<Tuple>>,
        pairs: &Arc<Vec<(usize, usize)>>,
    ) -> Box<dyn Fn(usize) -> CoverageOutcome + Send + Sync + 'static> {
        let ground = Arc::clone(&self.ground);
        let metrics = Arc::clone(self.runtime.metrics());
        let canonicals = Arc::clone(canonicals);
        let examples = Arc::clone(examples);
        let pairs = Arc::clone(pairs);
        let budget = self.budget.clone();
        Box::new(move |i| {
            let (slot, ei) = pairs[i];
            test_subsumption(&ground, &metrics, &canonicals[slot], &examples[ei], &budget)
        })
    }

    /// The subsumption node budget exhaustions are comparable under. Every
    /// test clones the same budget template, so its `remaining()` *is* the
    /// per-test node budget — exhaustion verdicts enter the memo cache's
    /// budget-keyed tier and HIV-style exhaustion-heavy workloads stop
    /// re-testing every probe. While a cancellation is pending the scope is
    /// `None`: aborted searches unwind through the exhaustion path and must
    /// never be memoized (the runtime re-reads this scope at write-back, so
    /// a cancellation firing mid-evaluation drops the verdicts too).
    fn exhaustion_scope(&self) -> Option<usize> {
        if self.budget.cancel_pending() {
            None
        } else {
            Some(self.budget.remaining())
        }
    }
}

/// Materializes the ground bottom clause of every distinct example, on the
/// worker pool when it has more than one thread (each example's saturation
/// is independent, so work-stealing across examples is safe) and inline
/// otherwise. The merge is deterministic either way: results come back in
/// example order and each example's saturation loop is itself sequential,
/// so the parallel build is bit-identical to the sequential one — this is
/// the Figure 2 "parallel bottom-clause construction" axis.
pub fn ground_bottom_clauses(
    db: &DatabaseInstance,
    plan: &BottomClausePlan,
    target: &str,
    examples: &[Tuple],
    config: &CastorConfig,
    pool: &WorkerPool,
) -> HashMap<Tuple, Clause> {
    let mut seen = HashSet::new();
    let unique: Vec<Tuple> = examples
        .iter()
        .filter(|e| seen.insert((*e).clone()))
        .cloned()
        .collect();
    let clauses: Vec<Clause> = if pool.size() > 1 && unique.len() > 1 {
        // The instance clone is cheap (relations are `Arc`-backed
        // copy-on-write) and pins a consistent snapshot for the workers.
        let db = Arc::new(db.clone());
        let plan = Arc::new(plan.clone());
        let config = Arc::new(config.clone());
        let target = target.to_string();
        let work = Arc::new(unique.clone());
        pool.map_indices(unique.len(), move |i| {
            crate::bottom_clause::castor_ground_bottom_clause(
                &db, &plan, &target, &work[i], &config,
            )
        })
    } else {
        unique
            .iter()
            .map(|e| crate::bottom_clause::castor_ground_bottom_clause(db, plan, target, e, config))
            .collect()
    };
    unique.into_iter().zip(clauses).collect()
}

/// One θ-subsumption test against an example's ground bottom clause. An
/// exhausted search budget is reported as [`CoverageOutcome::Exhausted`]
/// (and counted) rather than conflated with "not covered".
fn test_subsumption(
    ground: &HashMap<Tuple, Clause>,
    metrics: &EngineStats,
    clause: &Clause,
    example: &Tuple,
    budget_template: &EvalBudget,
) -> CoverageOutcome {
    let Some(bottom) = ground.get(example) else {
        return CoverageOutcome::NotCovered;
    };
    EngineStats::bump(&metrics.coverage_tests);
    let mut budget = budget_template.clone();
    let outcome = subsumes_with_eval_budget(clause, bottom, &mut budget);
    if outcome.subsumes() {
        CoverageOutcome::Covered
    } else if outcome.exhausted {
        EngineStats::bump(&metrics.budget_exhausted);
        CoverageOutcome::Exhausted
    } else {
        CoverageOutcome::NotCovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_logic::Atom;
    use castor_relational::{RelationSymbol, Schema};

    fn db() -> DatabaseInstance {
        let mut schema = Schema::new("demo");
        schema.add_relation(RelationSymbol::new("publication", &["title", "person"]));
        let mut db = DatabaseInstance::empty(&schema);
        for (t, p) in [
            ("p1", "ann"),
            ("p1", "bob"),
            ("p2", "carol"),
            ("p2", "dan"),
            ("p3", "eve"),
        ] {
            db.insert("publication", Tuple::from_strs(&[t, p])).unwrap();
        }
        db
    }

    fn collaborated() -> Clause {
        Clause::new(
            Atom::vars("collaborated", &["x", "y"]),
            vec![
                Atom::vars("publication", &["p", "x"]),
                Atom::vars("publication", &["p", "y"]),
            ],
        )
    }

    fn engine(threads: usize) -> CoverageEngine {
        let db = db();
        let plan = BottomClausePlan::compile(db.schema(), false);
        let config = CastorConfig::default().with_threads(threads);
        CoverageEngine::build(
            &db,
            &plan,
            "collaborated",
            &[
                Tuple::from_strs(&["ann", "bob"]),
                Tuple::from_strs(&["carol", "dan"]),
            ],
            &[
                Tuple::from_strs(&["ann", "carol"]),
                Tuple::from_strs(&["eve", "bob"]),
            ],
            &config,
        )
    }

    #[test]
    fn subsumption_coverage_matches_semantics() {
        let engine = engine(1);
        let clause = collaborated();
        assert!(engine.covers(&clause, &Tuple::from_strs(&["ann", "bob"])));
        assert!(!engine.covers(&clause, &Tuple::from_strs(&["ann", "carol"])));
        let (pos, neg) = engine.coverage_counts(
            &clause,
            &[
                Tuple::from_strs(&["ann", "bob"]),
                Tuple::from_strs(&["carol", "dan"]),
            ],
            &[
                Tuple::from_strs(&["ann", "carol"]),
                Tuple::from_strs(&["eve", "bob"]),
            ],
        );
        assert_eq!((pos, neg), (2, 0));
    }

    #[test]
    fn unknown_example_is_not_covered() {
        let engine = engine(1);
        assert!(!engine.covers(&collaborated(), &Tuple::from_strs(&["nobody", "else"])));
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let sequential = engine(1);
        let parallel = engine(4);
        let clause = collaborated();
        let examples: Vec<Tuple> = vec![
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["carol", "dan"]),
            Tuple::from_strs(&["ann", "carol"]),
            Tuple::from_strs(&["eve", "bob"]),
        ];
        // Exceed the parallel threshold so the pool path actually runs.
        let many: Vec<Tuple> = examples.iter().cycle().take(32).cloned().collect();
        assert_eq!(
            sequential.covered_set(&clause, &many, Prior::None),
            parallel.covered_set(&clause, &many, Prior::None)
        );
    }

    #[test]
    fn shared_pool_is_reused() {
        let db = db();
        let plan = BottomClausePlan::compile(db.schema(), false);
        let config = CastorConfig::default().with_threads(3);
        let pool = Arc::new(WorkerPool::new(3));
        let engine = CoverageEngine::build_with_pool(
            &db,
            &plan,
            "collaborated",
            &[Tuple::from_strs(&["ann", "bob"])],
            &[],
            &config,
            Arc::clone(&pool),
        );
        assert!(Arc::ptr_eq(engine.runtime.pool(), &pool));
        assert!(engine.covers(&collaborated(), &Tuple::from_strs(&["ann", "bob"])));
    }

    #[test]
    fn generalizations_inherit_parent_coverage_from_cache() {
        let engine = engine(1);
        let parent = collaborated();
        let examples = [
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["ann", "carol"]),
        ];
        engine.covered_set(&parent, &examples, Prior::None);
        let child = Clause::new(
            Atom::vars("collaborated", &["x", "y"]),
            vec![Atom::vars("publication", &["p", "x"])],
        );
        let tests_before = engine.tests_performed();
        let covered = engine.covered_set(&child, &examples, Prior::GeneralizationOf(&parent));
        assert!(covered.contains(&Tuple::from_strs(&["ann", "bob"])));
        // Only the example the parent did NOT cover needed a test.
        assert_eq!(engine.tests_performed(), tests_before + 1);
    }

    #[test]
    fn alpha_equivalent_candidates_share_the_cache() {
        let engine = engine(1);
        let a = collaborated();
        let b = Clause::new(
            Atom::vars("collaborated", &["u", "v"]),
            vec![
                Atom::vars("publication", &["w", "u"]),
                Atom::vars("publication", &["w", "v"]),
            ],
        );
        let e = Tuple::from_strs(&["ann", "bob"]);
        engine.covers(&a, &e);
        let tests_before = engine.tests_performed();
        assert!(engine.covers(&b, &e));
        assert_eq!(engine.tests_performed(), tests_before);
    }

    #[test]
    fn batched_beam_matches_per_clause_covered_sets() {
        let batched = engine(1);
        let solo = engine(1);
        let examples: Vec<Tuple> = vec![
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["carol", "dan"]),
            Tuple::from_strs(&["ann", "carol"]),
            Tuple::from_strs(&["eve", "bob"]),
        ];
        let parent = collaborated();
        let child = Clause::new(
            Atom::vars("collaborated", &["x", "y"]),
            vec![Atom::vars("publication", &["p", "x"])],
        );
        let beam = vec![parent.clone(), child.clone()];
        let sets = batched.covered_sets_batch(&beam, &examples);
        for (clause, set) in beam.iter().zip(&sets) {
            assert_eq!(set, &solo.covered_set(clause, &examples, Prior::None));
        }
        // With the parent's coverage now cached, a prior-carrying batch
        // skips the parent-covered examples.
        let tests_before = batched.tests_performed();
        let priors = vec![Prior::GeneralizationOf(&parent)];
        let with_prior = batched.covered_sets_batch_with_priors(
            std::slice::from_ref(&child),
            &priors,
            &examples,
        );
        assert_eq!(with_prior[0], sets[1]);
        assert_eq!(batched.tests_performed(), tests_before); // all answered by cache/prior
    }

    #[test]
    fn budget_template_carries_cancellation_into_subsumption() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let token = Arc::new(AtomicBool::new(false));
        let engine =
            engine(1).with_budget_template(EvalBudget::with_cancel(30_000, Arc::clone(&token)));
        let e = Tuple::from_strs(&["ann", "bob"]);
        assert!(engine.covers(&collaborated(), &e));
        token.store(true, Ordering::Relaxed);
        // A different (uncached) example: the cancelled search aborts as an
        // exhaustion and is counted.
        let exhausted_before = engine.report().budget_exhausted;
        assert!(!engine.covers(&collaborated(), &Tuple::from_strs(&["carol", "dan"])));
        assert!(engine.report().budget_exhausted > exhausted_before);
    }

    #[test]
    fn exhausted_subsumption_verdicts_hit_the_budget_tier() {
        // Regression: `exhaustion_scope` used to return `None` for the
        // subsumption engine, so every exhausted probe re-ran its search.
        let db = db();
        let plan = BottomClausePlan::compile(db.schema(), false);
        let mut config = CastorConfig::default();
        config.params.eval_budget = 0;
        let engine = CoverageEngine::build(
            &db,
            &plan,
            "collaborated",
            &[Tuple::from_strs(&["ann", "bob"])],
            &[],
            &config,
        );
        let e = Tuple::from_strs(&["ann", "bob"]);
        // Zero budget: the subsumption search exhausts and is memoized
        // keyed by that budget...
        assert!(!engine.covers(&collaborated(), &e));
        let first = engine.report();
        assert_eq!(first.budget_exhausted, 1);
        assert_eq!(first.coverage_tests, 1);
        // ...so the re-test is a cache hit: no new search runs.
        assert!(!engine.covers(&collaborated(), &e));
        let second = engine.report();
        assert_eq!(second.coverage_tests, first.coverage_tests);
        assert_eq!(second.cache_hits, first.cache_hits + 1);
        assert_eq!(second.budget_exhausted, first.budget_exhausted);
        // A larger per-test budget treats the entry as a miss and decides
        // the test for real.
        let engine = engine.with_budget_template(EvalBudget::new(30_000));
        assert!(engine.covers(&collaborated(), &e));
        assert_eq!(engine.report().coverage_tests, second.coverage_tests + 1);
    }

    #[test]
    fn parallel_ground_construction_is_bit_identical_to_sequential() {
        let db = db();
        let plan = BottomClausePlan::compile(db.schema(), false);
        let config = CastorConfig::default();
        let examples: Vec<Tuple> = vec![
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["carol", "dan"]),
            Tuple::from_strs(&["ann", "carol"]),
            Tuple::from_strs(&["eve", "bob"]),
            Tuple::from_strs(&["ann", "bob"]), // duplicate: built once
        ];
        let inline = WorkerPool::new(1);
        let pooled = WorkerPool::new(4);
        let sequential =
            ground_bottom_clauses(&db, &plan, "collaborated", &examples, &config, &inline);
        let parallel =
            ground_bottom_clauses(&db, &plan, "collaborated", &examples, &config, &pooled);
        assert_eq!(sequential.len(), 4);
        assert_eq!(sequential, parallel);
        // Body order matters for bit-identity, not just set equality.
        for (example, clause) in &sequential {
            assert_eq!(parallel[example].body, clause.body);
        }
    }

    #[test]
    fn test_counter_increments() {
        let engine = engine(1);
        let n0 = engine.tests_performed();
        engine.covers(&collaborated(), &Tuple::from_strs(&["ann", "bob"]));
        assert_eq!(engine.tests_performed(), n0 + 1);
    }
}

//! # castor-engine
//!
//! The compiled clause-evaluation and coverage subsystem of the Castor
//! reproduction. The paper credits Castor's speed to treating coverage
//! testing as a database problem — stored-procedure-style evaluation
//! (Section 7.5.2), parallel coverage tests (Figure 2), and aggressive
//! reuse of results across candidate clauses (Sections 7.5.3–7.5.4). This
//! crate owns that machinery for the whole workspace:
//!
//! * [`stats`] — per-relation/per-attribute selectivity statistics (incl.
//!   the skew-aware histograms/MCV lists of `castor-relational`) read off
//!   the database's incrementally-maintained indexes and sketches;
//! * [`cost`] — pluggable [`CostModel`]s: the skew-aware histogram model
//!   (default) and the uniform baseline;
//! * [`plan`] — compiled per-clause join orders chosen once from those
//!   statistics instead of re-ranking literals at every backtracking node;
//! * [`executor`] — budgeted execution of a compiled plan against the
//!   positional hash indexes;
//! * [`batch`] — shared-prefix tries that evaluate a beam of sibling
//!   candidates in one walk per example;
//! * [`cache`] — a memoized coverage cache keyed by canonical
//!   (variable-renamed) clauses, with generality-order propagation
//!   ([`Prior::GeneralizationOf`]) promoted to an engine invariant and a
//!   budget-aware tier for `Exhausted` verdicts;
//! * [`pool`] — a persistent worker pool with work-stealing over examples,
//!   replacing per-call thread spawning;
//! * [`runtime`] — the one coverage pipeline every entry point runs
//!   (dedup, priors, one cache probe, inline or pooled tests, one
//!   write-back), generic over a [`CoverageTester`].
//!
//! The [`Engine`] front end combines all of these; every learner in the
//! workspace (Castor, FOIL, Golem, Progol, ProGolem) routes coverage tests
//! through it.

pub mod batch;
pub mod cache;
pub mod cost;
pub mod executor;
pub mod plan;
pub mod pool;
pub mod runtime;
pub mod stats;

pub use batch::{BatchItemStats, BatchPlan};
pub use cache::{canonicalize, CoverageCache};
pub use castor_logic::{CoverageOutcome, EvalBudget, DEFAULT_EVAL_NODE_BUDGET};
pub use castor_relational::fx;
pub use cost::{CostModel, CostModelKind, HistogramCost, UniformCost};
pub use fx::{FxBuildHasher, FxHashMap, FxHasher};
pub use plan::{ClausePlan, PlanStep};
pub use pool::{PoolStats, WorkerPool};
pub use runtime::{CoverageRuntime, CoverageTester};
pub use stats::{DatabaseStatistics, EngineReport, EngineStats};

use castor_logic::{Atom, Clause};
use castor_obs::{Histogram, Obs};
use castor_relational::{DatabaseInstance, MutationBatch, MutationSummary, Tuple};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One accepted covering-round clause, reported live while a learner runs.
/// Emitted by every covering loop in the workspace (the generic
/// `covering_loop` in `castor-learners` and Castor's own loop in
/// `castor-core`) through the sink installed with
/// [`Engine::set_progress_sink`] — the serving layer streams these to
/// wire clients as incremental `LearnJob` progress frames.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnProgress {
    /// 0-based covering-round index (one round = one accepted clause).
    pub round: usize,
    /// The clause this round added to the definition.
    pub clause: Clause,
    /// Positive examples the clause covered (of those still uncovered).
    pub covered_positive: usize,
    /// Negative examples the clause covered.
    pub covered_negative: usize,
    /// Positive examples still uncovered after this round.
    pub uncovered_remaining: usize,
}

/// The callback type installed with [`Engine::set_progress_sink`].
pub type ProgressSink = Arc<dyn Fn(&LearnProgress) + Send + Sync>;

/// The progress-sink runtime slot. A newtype so the closure (which has no
/// useful `Debug`) does not block `#[derive(Debug)]` on [`Engine`].
#[derive(Default)]
struct ProgressSlot(Mutex<Option<ProgressSink>>);

impl std::fmt::Debug for ProgressSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let installed = self.0.lock().unwrap_or_else(|e| e.into_inner()).is_some();
        f.debug_tuple("ProgressSlot").field(&installed).finish()
    }
}

/// Engine construction knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for parallel coverage testing (1 = inline).
    pub threads: usize,
    /// Node budget per coverage test (replaces the old hardcoded
    /// `EVAL_NODE_BUDGET`); exhaustions are counted and reported.
    pub eval_budget: usize,
    /// Memoize coverage results per canonical clause.
    pub cache_coverage: bool,
    /// Maximum distinct clauses held by the coverage cache (and by the
    /// compiled-plan table).
    pub cache_capacity: usize,
    /// The cost model consulted by plan and trie compilation (histogram by
    /// default; [`CostModelKind::Uniform`] is the ablation baseline).
    pub cost_model: CostModelKind,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1,
            eval_budget: DEFAULT_EVAL_NODE_BUDGET,
            cache_coverage: true,
            cache_capacity: 16_384,
            cost_model: CostModelKind::Histogram,
        }
    }
}

impl EngineConfig {
    /// Returns a copy with the given worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns a copy with the given per-test node budget.
    pub fn with_eval_budget(mut self, budget: usize) -> Self {
        self.eval_budget = budget;
        self
    }

    /// Returns a copy with memoization disabled (benchmark baseline).
    pub fn without_cache(mut self) -> Self {
        self.cache_coverage = false;
        self
    }

    /// Returns a copy using the uniform-selectivity baseline model
    /// (ablation/benchmark baseline).
    pub fn with_uniform_costs(mut self) -> Self {
        self.cost_model = CostModelKind::Uniform;
        self
    }
}

/// Prior knowledge a caller can hand to [`Engine::covered_set`] to skip
/// redundant tests.
#[derive(Debug, Clone, Copy, Default)]
pub enum Prior<'a> {
    /// No prior knowledge: test every example (cache permitting).
    #[default]
    None,
    /// The queried clause generalizes this clause, so everything the parent
    /// is cached as covering is covered — the generality order of
    /// Section 7.5.4 as an engine invariant.
    GeneralizationOf(&'a Clause),
}

/// Positive/negative coverage counts for one clause of a batch — the
/// engine-level shape of the learners' `ClauseCoverage`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClauseCounts {
    /// Number of positive examples covered.
    pub positive: usize,
    /// Number of negative examples covered.
    pub negative: usize,
}

/// The database-backed evaluation engine: statistics, compiled plans,
/// memoized coverage, and a persistent worker pool behind one front end.
///
/// The engine is *versioned*: it owns a live database reference that a
/// serving layer mutates through [`Engine::apply`]. Every compiled plan
/// records the mutation epochs of the relations it was costed against and
/// is re-planned lazily when a touched relation's epoch advances (the epoch
/// check runs on every plan fetch, so stale-plan reuse is impossible by
/// construction); the coverage cache drops exactly the clauses that
/// reference a mutated relation. Evaluation entry points and mutations are
/// serialized by a reader–writer gate: any number of concurrent evaluations
/// run against one consistent snapshot, and a mutation batch applies only
/// between them.
#[derive(Debug)]
pub struct Engine {
    db: RwLock<Arc<DatabaseInstance>>,
    db_stats: RwLock<Arc<DatabaseStatistics>>,
    plans: Mutex<fx::FxHashMap<Clause, Arc<ClausePlan>>>,
    runtime: CoverageRuntime,
    config: EngineConfig,
    /// Live per-test node budget (initialized from the config; a serving
    /// session can override it for the duration of its jobs).
    eval_budget: AtomicUsize,
    /// Cancellation token installed by the current serving job, if any;
    /// threaded into every [`EvalBudget`] the executors consume.
    cancel: Mutex<Option<Arc<AtomicBool>>>,
    /// Per-job learn-progress sink installed by the serving layer, if any;
    /// covering loops report each accepted clause through it.
    progress: ProgressSlot,
    /// Readers: evaluation entry points. Writer: [`Engine::apply`].
    gate: RwLock<()>,
    /// Instrumentation: latency histograms plus the trace id of the job
    /// currently driving this engine.
    obs: EngineObs,
}

/// The engine's slice of an [`Obs`] handle: pre-resolved histograms for
/// the load-bearing paths, and the trace id the serving layer installs
/// before running a job (engine spans join that job's timeline).
#[derive(Debug)]
struct EngineObs {
    obs: Arc<Obs>,
    /// Wall time of one `covered_sets_batch*` call (trie or fallback).
    batch_eval_ns: Arc<Histogram>,
    /// Fresh plan/trie compilation time.
    plan_compile_ns: Arc<Histogram>,
    /// Coverage-cache probe phase of a batch (memo lookup + prior
    /// propagation, before any plan executes).
    cache_probe_ns: Arc<Histogram>,
    /// Trace id installed by [`Engine::set_trace`]; 0 = no active job.
    current_trace: AtomicU64,
}

impl EngineObs {
    fn new(obs: Arc<Obs>) -> Self {
        EngineObs::with_label(obs, None)
    }

    /// With `db: Some(name)` every histogram carries a `db` label, so a
    /// multi-database server's eval latencies separate per database in
    /// one scrape; `None` keeps the plain unlabeled series (standalone
    /// engines, benchmarks).
    fn with_label(obs: Arc<Obs>, db: Option<&str>) -> Self {
        let r = obs.registry();
        let hist = |name: &str, help: &str| match db {
            Some(db) => r.labeled_histogram(name, help, &[("db", db)]),
            None => r.histogram(name, help),
        };
        EngineObs {
            batch_eval_ns: hist(
                "castor_engine_batch_eval_ns",
                "Latency of one batched coverage evaluation (a clause batch over an example list).",
            ),
            plan_compile_ns: hist(
                "castor_engine_plan_compile_ns",
                "Latency of compiling a fresh clause plan or shared-prefix trie.",
            ),
            cache_probe_ns: hist(
                "castor_engine_cache_probe_ns",
                "Latency of the coverage-cache probe phase of a batch (memo lookup + priors).",
            ),
            current_trace: AtomicU64::new(0),
            obs,
        }
    }
}

impl Engine {
    /// Builds an engine over a snapshot of `db`. The instance is deep-cloned
    /// once (tuples and indexes) so worker threads can share it; callers
    /// that already hold an `Arc` should use [`Engine::from_arc`] instead.
    pub fn new(db: &DatabaseInstance, config: EngineConfig) -> Self {
        Engine::from_arc(Arc::new(db.clone()), config)
    }

    /// Builds an engine sharing `db` without copying it, with a private
    /// worker pool sized by the configuration and a private enabled
    /// observability handle.
    pub fn from_arc(db: Arc<DatabaseInstance>, config: EngineConfig) -> Self {
        let pool = Arc::new(WorkerPool::new(config.threads));
        Engine::with_observability(db, config, pool, Obs::enabled_default())
    }

    /// Builds an engine sharing `db` and the caller's worker pool, recording
    /// into the caller's [`Obs`] handle — the serving layer drives every
    /// engine off one set of workers and passes its server-wide handle so
    /// engine latency histograms land in the registry the wire scrape
    /// reads, and engine spans land in the server's trace ring (histogram
    /// names are idempotent per registry, so engines sharing a handle share
    /// histograms).
    pub fn with_observability(
        db: Arc<DatabaseInstance>,
        config: EngineConfig,
        pool: Arc<WorkerPool>,
        obs: Arc<Obs>,
    ) -> Self {
        Engine::build(db, config, pool, EngineObs::new(obs))
    }

    /// [`Engine::with_observability`], but every engine latency histogram
    /// carries a `db="<label>"` label. A multi-database server registers
    /// each engine under its database name so one scrape separates eval
    /// latencies per database instead of folding them into one series.
    pub fn with_labeled_observability(
        db: Arc<DatabaseInstance>,
        config: EngineConfig,
        pool: Arc<WorkerPool>,
        obs: Arc<Obs>,
        db_label: &str,
    ) -> Self {
        Engine::build(db, config, pool, EngineObs::with_label(obs, Some(db_label)))
    }

    fn build(
        db: Arc<DatabaseInstance>,
        config: EngineConfig,
        pool: Arc<WorkerPool>,
        obs: EngineObs,
    ) -> Self {
        let db_stats = DatabaseStatistics::gather(&db);
        let runtime = CoverageRuntime::new(&config, pool);
        Engine {
            db_stats: RwLock::new(Arc::new(db_stats)),
            plans: Mutex::new(fx::FxHashMap::default()),
            runtime,
            eval_budget: AtomicUsize::new(config.eval_budget),
            cancel: Mutex::new(None),
            progress: ProgressSlot::default(),
            gate: RwLock::new(()),
            config,
            db: RwLock::new(db),
            obs,
        }
    }

    /// A consistent snapshot of the database the engine currently evaluates
    /// against. Mutations applied later ([`Engine::apply`]) never alter a
    /// snapshot already handed out (copy-on-write per relation).
    pub fn snapshot(&self) -> Arc<DatabaseInstance> {
        Arc::clone(&self.db.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The current statistics snapshot (incrementally refreshed after every
    /// mutation batch).
    pub fn statistics(&self) -> Arc<DatabaseStatistics> {
        Arc::clone(&self.db_stats.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Applies a mutation batch to the live database: per-relation indexes
    /// and statistics are maintained incrementally, the mutated relations'
    /// epochs advance (invalidating affected compiled plans on their next
    /// fetch), and cached coverage for clauses referencing those relations
    /// is dropped. The batch waits for in-flight evaluations to finish and
    /// excludes new ones while it applies, so every evaluation sees either
    /// the pre-batch or the post-batch state — never a mix.
    pub fn apply(&self, batch: &MutationBatch) -> castor_relational::Result<MutationSummary> {
        let _exclusive = self.gate.write().unwrap_or_else(|e| e.into_inner());
        let metrics = self.runtime.metrics();
        let result = {
            let mut db = self.db.write().unwrap_or_else(|e| e.into_inner());
            Arc::make_mut(&mut db).apply_batch(batch)
        };
        // Refresh statistics even on a mid-batch error: ops before the
        // failing one are applied, and stale statistics would let an old
        // plan pass its epoch check against data it was not costed for.
        let changed = {
            let db = self.snapshot();
            let mut stats = self.db_stats.write().unwrap_or_else(|e| e.into_inner());
            Arc::make_mut(&mut stats).refresh(&db)
        };
        if !changed.is_empty() {
            let changed: std::collections::BTreeSet<String> = changed.into_iter().collect();
            self.runtime.invalidate_relations(&changed);
        }
        if result.is_ok() {
            EngineStats::bump(&metrics.mutation_batches);
        }
        result
    }

    /// Overrides the per-test node budget (serving sessions install their
    /// override for the duration of their jobs; pass the config value to
    /// restore the default).
    pub fn set_eval_budget(&self, budget: usize) {
        self.eval_budget.store(budget, Ordering::Relaxed);
    }

    /// The per-test node budget currently in effect.
    pub fn current_eval_budget(&self) -> usize {
        self.eval_budget.load(Ordering::Relaxed)
    }

    /// Installs (or clears) the cancellation token checked by the executor
    /// budget loop: once set, every in-flight coverage test unwinds through
    /// its budget-exhaustion path within one candidate tuple.
    pub fn set_cancel_token(&self, token: Option<Arc<AtomicBool>>) {
        *self.cancel.lock().unwrap_or_else(|e| e.into_inner()) = token;
    }

    /// Installs (or clears) the learn-progress sink covering loops report
    /// accepted clauses through. Like the trace id and cancel token, this
    /// is a per-job slot: jobs on one engine are serialized by the
    /// per-database queue, so install-before / clear-after is sound.
    pub fn set_progress_sink(&self, sink: Option<ProgressSink>) {
        *self.progress.0.lock().unwrap_or_else(|e| e.into_inner()) = sink;
    }

    /// Reports one accepted covering-round clause to the installed sink
    /// (no-op when none is installed). The sink is cloned out before the
    /// call so slow consumers never hold the slot lock.
    pub fn emit_progress(&self, progress: &LearnProgress) {
        let sink = self
            .progress
            .0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if let Some(sink) = sink {
            sink(progress);
        }
    }

    /// Drops every memoized coverage result (administrative reset; routine
    /// mutation invalidation is relation-targeted and automatic).
    pub fn clear_coverage_cache(&self) {
        self.runtime.clear_cache();
    }

    /// A fresh budget for one coverage test: current node budget plus the
    /// installed cancellation token, if any. Public so sibling coverage
    /// engines (the θ-subsumption tester in `castor-core`) run their tests
    /// under the same session overrides and cancellation as this engine.
    pub fn budget_template(&self) -> EvalBudget {
        let nodes = self.current_eval_budget();
        match &*self.cancel.lock().unwrap_or_else(|e| e.into_inner()) {
            Some(token) => EvalBudget::with_cancel(nodes, Arc::clone(token)),
            None => EvalBudget::new(nodes),
        }
    }

    /// The engine's worker pool. `castor-core`'s subsumption coverage
    /// engine accepts this handle so one learner run drives a single pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        self.runtime.pool()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Snapshot of the engine counters.
    pub fn report(&self) -> EngineReport {
        self.runtime.report()
    }

    /// The observability handle this engine records into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs.obs
    }

    /// Installs the trace id subsequent evaluations attribute their spans
    /// to (0 clears it). The serving layer calls this before running a
    /// job; jobs on one engine are serialized by the per-database queue,
    /// so a plain store is sound.
    pub fn set_trace(&self, trace: u64) {
        self.obs.current_trace.store(trace, Ordering::Relaxed);
    }

    /// The compiled join order currently cached for `clause`, rendered as
    /// one string per plan step (the literal executed at that step).
    /// `None` when no current plan is cached. The slow-job watchdog
    /// attaches this to its report so a stall can be read against the
    /// order that produced it.
    pub fn plan_order(&self, clause: &Clause) -> Option<Vec<String>> {
        let canonical = canonicalize(clause);
        let plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        plans.get(&canonical).map(|plan| {
            plan.steps
                .iter()
                .map(|step| canonical.body[step.literal].to_string())
                .collect()
        })
    }

    /// Takes the evaluation side of the mutation gate: mutations wait for
    /// the guard to drop and evaluations started after a mutation see its
    /// effects. Every public evaluation entry point takes this exactly once.
    fn read_gate(&self) -> std::sync::RwLockReadGuard<'_, ()> {
        self.gate.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The exhaustion scope of this engine's coverage tests: the node
    /// budget exhaustions are comparable under, or `None` while a
    /// cancellation is *pending* (a cancelled search aborts through the
    /// exhaustion path, and those verdicts must never enter the cache —
    /// the runtime re-captures this scope at write-back time, so verdicts
    /// produced under a cancellation that fired mid-evaluation are dropped
    /// too). A merely *installed* but untriggered token keeps the tier
    /// active: serving sessions run every job with a token installed.
    fn exhaustion_scope(&self) -> Option<usize> {
        let tripped = self
            .cancel
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .is_some_and(|token| token.load(Ordering::Relaxed));
        if tripped {
            None
        } else {
            Some(self.current_eval_budget())
        }
    }

    /// The compiled plan for a canonical clause, compiling on first use.
    /// Every fetch re-validates the cached plan's epoch stamps against the
    /// live statistics: a plan costed before a mutation of any relation it
    /// touches is discarded and recompiled, so a stale plan can never
    /// execute. Bounded like the coverage cache: at capacity the table is
    /// cleared rather than growing without limit. A recompiled plan picks
    /// the same join order as the discarded one — the order depends only on
    /// the statistics, and those change only through a mutation, which also
    /// drops the clause's memoized verdicts — so memoized exhaustions stay
    /// valid across the clear.
    fn plan_for(&self, canonical: &Clause, stats: &DatabaseStatistics) -> Arc<ClausePlan> {
        let metrics = self.runtime.metrics();
        let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(plan) = plans.get(canonical) {
            if plan.is_current(stats) {
                EngineStats::bump(&metrics.plan_cache_hits);
                return Arc::clone(plan);
            }
            EngineStats::bump(&metrics.plans_invalidated);
            plans.remove(canonical);
        }
        if plans.len() >= self.config.cache_capacity {
            plans.clear();
        }
        let timer = self.obs.obs.timer();
        let plan = Arc::new(ClausePlan::compile_with(
            canonical,
            stats,
            self.config.cost_model.model(),
        ));
        timer.stop_ns(&self.obs.plan_compile_ns);
        EngineStats::bump(&metrics.plans_compiled);
        plans.insert(canonical.clone(), Arc::clone(&plan));
        plan
    }

    /// Tri-state coverage test for one example, going through the cache and
    /// the compiled plan.
    pub fn try_covers(&self, clause: &Clause, example: &Tuple) -> CoverageOutcome {
        let _gate = self.read_gate();
        let canonical = canonicalize(clause);
        self.runtime.try_covers(self, &canonical, example)
    }

    /// Boolean coverage test (exhausted budgets count as "not covered").
    pub fn covers(&self, clause: &Clause, example: &Tuple) -> bool {
        self.try_covers(clause, example).is_covered()
    }

    /// The asymmetric relative minimal generalization of `clause` towards
    /// `example`, the loop shared by ProGolem's armg (Algorithm 3) and
    /// Castor's IND-aware armg (Algorithm 4): while the clause does not
    /// cover the example, find its *blocking atom* — the least `i` such that
    /// the prefix clause `head ← L1, …, L(i+1)` does not cover it — and let
    /// `remove(clause, i)` drop that literal together with whatever else
    /// the caller's operator drops with it. Returns the first clause that
    /// covers the example, or `None` when not even the empty-bodied clause
    /// does (the head cannot bind to the example).
    ///
    /// Each blocking-atom scan resumes where the clause last changed
    /// instead of restarting at the empty prefix: the prefixes before the
    /// first body position the last removal changed are the same clauses
    /// the previous scan proved covering. Prefixes are cut from the
    /// clause's canonical form — variables are numbered by first
    /// occurrence, so a prefix's canonical form is a prefix of the
    /// clause's — which is computed once per removal. The verdicts, and
    /// the tests actually run, are those of restarting every scan at the
    /// empty prefix: the prefixes skipped are the ones such a scan would
    /// find in the coverage cache (a scan restarted without the cache
    /// re-tests them). The whole loop holds the evaluation gate, so no
    /// mutation can invalidate a proven prefix mid-loop; `remove` must not
    /// call back into the engine.
    pub fn armg(
        &self,
        clause: &Clause,
        example: &Tuple,
        mut remove: impl FnMut(&mut Clause, usize),
    ) -> Option<Clause> {
        let _gate = self.read_gate();
        let covers = |canonical: &Clause| {
            self.runtime
                .try_covers(self, canonical, example)
                .is_covered()
        };
        let mut current = clause.clone();
        let mut canonical = canonicalize(&current);
        // Prefixes with fewer than `proven` body literals cover the example.
        let mut proven = 0;
        loop {
            if covers(&canonical) {
                return Some(current);
            }
            let body = &canonical.body;
            let mut len = proven.min(body.len());
            let mut prefix = Clause::new(canonical.head.clone(), body[..len].to_vec());
            let failing = loop {
                if !covers(&prefix) {
                    break len;
                }
                if len == body.len() {
                    return None;
                }
                prefix.body.push(body[len].clone());
                len += 1;
            };
            // The empty prefix failing means the head cannot bind.
            let blocking = failing.checked_sub(1)?;
            remove(&mut current, blocking);
            let next = canonicalize(&current);
            let unchanged = body
                .iter()
                .zip(&next.body)
                .take_while(|(a, b)| a == b)
                .count();
            proven = unchanged.min(blocking) + 1;
            canonical = next;
        }
    }

    /// The subset of `examples` covered by `clause`. `prior` feeds the
    /// generality order: examples covered by a clause this one generalizes
    /// are accepted without a test. Pending examples are spread over the
    /// worker pool when there are enough of them.
    pub fn covered_set(
        &self,
        clause: &Clause,
        examples: &[Tuple],
        prior: Prior<'_>,
    ) -> HashSet<Tuple> {
        let _gate = self.read_gate();
        let canonical = canonicalize(clause);
        self.runtime.covered_set(self, &canonical, examples, prior)
    }

    /// Positive/negative coverage counts for a whole beam of candidate
    /// clauses — the entry point the beam learners score candidates with.
    ///
    /// The positive and negative passes are *fused*: the engine walks the
    /// shared-prefix trie once over the concatenated example list and splits
    /// the per-clause covered sets back into per-class counts, halving
    /// head-binding and trie-dispatch overhead relative to two passes.
    pub fn coverage_counts_batch(
        &self,
        clauses: &[Clause],
        positive: &[Tuple],
        negative: &[Tuple],
    ) -> Vec<ClauseCounts> {
        let _gate = self.read_gate();
        let mut fused: Vec<Tuple> = Vec::with_capacity(positive.len() + negative.len());
        fused.extend_from_slice(positive);
        fused.extend_from_slice(negative);
        let sets = self.covered_sets_batch_gated(clauses, &[], &fused);
        let pos_set: HashSet<&Tuple> = positive.iter().collect();
        let neg_set: HashSet<&Tuple> = negative.iter().collect();
        sets.into_iter()
            .map(|covered| ClauseCounts {
                positive: covered.iter().filter(|e| pos_set.contains(e)).count(),
                negative: covered.iter().filter(|e| neg_set.contains(e)).count(),
            })
            .collect()
    }

    /// The subset of `examples` covered by each clause of a candidate
    /// batch, with no prior knowledge. See
    /// [`Engine::covered_sets_batch_with_priors`].
    pub fn covered_sets_batch(
        &self,
        clauses: &[Clause],
        examples: &[Tuple],
    ) -> Vec<HashSet<Tuple>> {
        let _gate = self.read_gate();
        self.covered_sets_batch_gated(clauses, &[], examples)
    }

    /// The subset of `examples` covered by each clause of a candidate
    /// batch. Sibling candidates produced by beam refinement share a head
    /// and a body prefix; the engine folds them into a literal trie
    /// ([`BatchPlan`]), executes the shared prefix join once per example,
    /// and forks per-candidate suffixes off the materialized prefix
    /// bindings — one index probe feeds every candidate in the beam.
    ///
    /// `priors` is empty or one [`Prior`] per clause (the generality order,
    /// exactly as in [`Engine::covered_set`]). The engine falls back to
    /// per-clause compiled plans when batching cannot help: a batch of fewer
    /// than two clauses, or candidates that share no head with any other
    /// candidate.
    pub fn covered_sets_batch_with_priors(
        &self,
        clauses: &[Clause],
        priors: &[Prior<'_>],
        examples: &[Tuple],
    ) -> Vec<HashSet<Tuple>> {
        let _gate = self.read_gate();
        self.covered_sets_batch_gated(clauses, priors, examples)
    }

    /// [`Engine::covered_sets_batch_with_priors`] with the mutation gate
    /// already held by the caller. Records the whole call into the
    /// batch-eval latency histogram and, when a trace is installed,
    /// emits an `engine.batch_eval` span on the current job's timeline.
    fn covered_sets_batch_gated(
        &self,
        clauses: &[Clause],
        priors: &[Prior<'_>],
        examples: &[Tuple],
    ) -> Vec<HashSet<Tuple>> {
        let start_ns = self.obs.obs.now_ns();
        let timer = self.obs.obs.timer();
        let out = self.covered_sets_batch_inner(clauses, priors, examples);
        if timer.is_live() {
            let dur_ns = timer.stop_ns(&self.obs.batch_eval_ns);
            self.obs.obs.span_measured(
                "engine.batch_eval",
                self.obs.current_trace.load(Ordering::Relaxed),
                start_ns,
                dur_ns,
                vec![
                    ("clauses".to_string(), clauses.len().to_string()),
                    ("examples".to_string(), examples.len().to_string()),
                ],
            );
        }
        out
    }

    fn covered_sets_batch_inner(
        &self,
        clauses: &[Clause],
        priors: &[Prior<'_>],
        examples: &[Tuple],
    ) -> Vec<HashSet<Tuple>> {
        if clauses.is_empty() {
            return Vec::new();
        }
        EngineStats::add(&self.runtime.metrics().batch_clauses, clauses.len());
        let probe = self.obs.obs.timer();
        let canonicals: Vec<Clause> = clauses.iter().map(canonicalize).collect();
        if clauses.len() < 2 || examples.is_empty() {
            return self
                .runtime
                .run(self, &canonicals, priors, examples, None)
                .into_sets();
        }
        // The tries are the pipeline's shared stage, so the probe phase
        // (dedup, priors and the memo probe) ends where they start.
        let mut tries = |unique: &[&Clause], pending: &mut [Vec<usize>]| {
            probe.stop_ns(&self.obs.cache_probe_ns);
            self.evaluate_tries(unique, pending, examples)
        };
        self.runtime
            .run(self, &canonicals, priors, examples, Some(&mut tries))
            .into_sets()
    }

    /// The shared stage of a batched evaluation: head groups with at least
    /// two pending candidates run through a shared-prefix trie compiled for
    /// the group (work-stolen over the subtree × example grid); their pairs
    /// leave `pending` and come back settled. Lone candidates stay pending
    /// for the runtime's per-clause compiled plans.
    fn evaluate_tries(
        &self,
        unique: &[&Clause],
        pending: &mut [Vec<usize>],
        examples: &[Tuple],
    ) -> Vec<(usize, usize, CoverageOutcome)> {
        let metrics = self.runtime.metrics();
        let db = self.snapshot();
        let db_stats = self.statistics();
        let model = self.config.cost_model.model();
        let mut groups: fx::FxHashMap<&Atom, Vec<usize>> = fx::FxHashMap::default();
        for (slot, clause) in unique.iter().enumerate() {
            if !pending[slot].is_empty() {
                groups.entry(&clause.head).or_default().push(slot);
            }
        }

        // One trie per head group; its candidate slots are the batch's
        // slots.
        let mut plans: Vec<BatchPlan> = Vec::new();
        // (slot, example index, outcome) verdicts; empty-bodied candidates
        // are settled without a search: covered iff the head binds.
        let mut evaluated: Vec<(usize, usize, CoverageOutcome)> = Vec::new();
        let mut trivial_tests = 0usize;
        // The work grid: rows are trie subtrees (across all head groups),
        // columns are examples; each cell decides every live candidate of
        // its subtree for its example. Live masks are per example, in slot
        // space.
        let mut masks: Vec<Vec<bool>> = vec![vec![false; unique.len()]; examples.len()];
        for (head, slots) in groups {
            if slots.len() == 1 {
                continue;
            }
            let group: Vec<(usize, &[Atom])> = slots
                .iter()
                .map(|&s| (s, unique[s].body.as_slice()))
                .collect();
            let timer = self.obs.obs.timer();
            let plan = BatchPlan::compile_with(head, &group, &db_stats, model);
            timer.stop_ns(&self.obs.plan_compile_ns);
            EngineStats::bump(&metrics.batch_plans_compiled);
            if !plan.root_accepting.is_empty() {
                let head_clause = Clause::fact(head.clone());
                for &s in &plan.root_accepting {
                    for &ei in &pending[s] {
                        let outcome =
                            if castor_logic::evaluation::bind_head(&head_clause, &examples[ei])
                                .is_some()
                            {
                                CoverageOutcome::Covered
                            } else {
                                CoverageOutcome::NotCovered
                            };
                        evaluated.push((s, ei, outcome));
                        trivial_tests += 1;
                    }
                }
            }
            for &s in &slots {
                for ei in std::mem::take(&mut pending[s]) {
                    masks[ei][s] = true;
                }
            }
            plans.push(plan);
        }

        let subtrees: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(pi, plan)| plan.roots.iter().map(move |&root| (pi, root)))
            .collect();
        let batches = plans.len();
        let plans = Arc::new(plans);
        let budget = self.budget_template();
        let cells = subtrees.len() * examples.len();
        type Item = (Vec<(usize, CoverageOutcome)>, BatchItemStats);
        let items: Vec<Item> =
            if self.runtime.pool().size() > 1 && cells >= runtime::PARALLEL_THRESHOLD {
                let plans = Arc::clone(&plans);
                let subtrees_shared = Arc::new(subtrees.clone());
                let examples_shared = Arc::new(examples.to_vec());
                let masks = Arc::new(masks);
                let db = Arc::clone(&db);
                let budget = budget.clone();
                self.runtime
                    .pool()
                    .map_grid(subtrees.len(), examples.len(), move |row, col| {
                        let (pi, root) = subtrees_shared[row];
                        batch::evaluate_subtree(
                            &plans[pi],
                            root,
                            &db,
                            &examples_shared[col],
                            &masks[col],
                            &budget,
                        )
                    })
            } else {
                let mut out: Vec<Item> = Vec::with_capacity(cells);
                for &(pi, root) in &subtrees {
                    for (ei, example) in examples.iter().enumerate() {
                        out.push(batch::evaluate_subtree(
                            &plans[pi], root, &db, example, &masks[ei], &budget,
                        ));
                    }
                }
                out
            };

        let mut agg = BatchItemStats::default();
        for (idx, (outcomes, stats)) in items.into_iter().enumerate() {
            // map_grid and the inline loop are both row-major over
            // (subtree, example).
            let ei = idx % examples.len();
            agg.absorb(&stats);
            evaluated.extend(outcomes.into_iter().map(|(s, o)| (s, ei, o)));
        }
        EngineStats::add(&metrics.coverage_tests, agg.tests + trivial_tests);
        EngineStats::add(&metrics.budget_exhausted, agg.budget_exhausted);
        EngineStats::add(&metrics.batch_prefix_hits, agg.prefix_hits);
        EngineStats::add(&metrics.batch_suffix_forks, agg.suffix_forks);
        EngineStats::add(&metrics.batches, batches);

        evaluated
    }
}

impl CoverageTester for Engine {
    fn test(&self, canonical: &Clause, example: &Tuple) -> CoverageOutcome {
        let metrics = self.runtime.metrics();
        EngineStats::bump(&metrics.coverage_tests);
        let db = self.snapshot();
        let mut budget = self.budget_template();
        let plan = self.plan_for(canonical, &self.statistics());
        let outcome = executor::covers_with_plan(&plan, &db, example, &mut budget);
        if outcome.is_exhausted() {
            EngineStats::bump(&metrics.budget_exhausted);
        }
        outcome
    }

    fn pair_task(
        &self,
        canonicals: &[&Clause],
        examples: &Arc<Vec<Tuple>>,
        pairs: &Arc<Vec<(usize, usize)>>,
    ) -> Box<dyn Fn(usize) -> CoverageOutcome + Send + Sync + 'static> {
        let db = self.snapshot();
        let metrics = Arc::clone(self.runtime.metrics());
        let budget = self.budget_template();
        let examples = Arc::clone(examples);
        let pairs = Arc::clone(pairs);
        let stats = self.statistics();
        // Only the slots the pairs test get a plan: in a trie batch the
        // other slots were settled by the trie and never run here.
        let mut plans: Vec<Option<Arc<ClausePlan>>> = vec![None; canonicals.len()];
        for &(slot, _) in pairs.iter() {
            if plans[slot].is_none() {
                plans[slot] = Some(self.plan_for(canonicals[slot], &stats));
            }
        }
        Box::new(move |i| {
            let (slot, ei) = pairs[i];
            EngineStats::bump(&metrics.coverage_tests);
            let mut node_budget = budget.clone();
            let plan = plans[slot].as_ref().expect("every paired slot is planned");
            let outcome = executor::covers_with_plan(plan, &db, &examples[ei], &mut node_budget);
            if outcome.is_exhausted() {
                EngineStats::bump(&metrics.budget_exhausted);
            }
            outcome
        })
    }

    fn exhaustion_scope(&self) -> Option<usize> {
        Engine::exhaustion_scope(self)
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

    fn collaborated(x: &str, y: &str, p: &str) -> Clause {
        Clause::new(
            Atom::vars("collaborated", &[x, y]),
            vec![
                Atom::vars("publication", &[p, x]),
                Atom::vars("publication", &[p, y]),
            ],
        )
    }

    #[test]
    fn engine_coverage_matches_reference_semantics() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default());
        let clause = collaborated("x", "y", "p");
        let examples = [
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["ann", "carol"]),
            Tuple::from_strs(&["eve", "eve"]),
            Tuple::from_strs(&["carol", "dan"]),
            Tuple::from_strs(&["ann", "dan"]),
        ];
        for example in &examples {
            assert_eq!(
                engine.covers(&clause, example),
                castor_logic::covers_example(&clause, &db, example),
                "engine disagrees on {example}"
            );
        }
        // The batched trie path agrees with the reference evaluator too.
        let beam = sibling_beam();
        let sets = engine.covered_sets_batch(&beam, &examples);
        assert!(engine.report().batches >= 1, "trie path not taken");
        for (clause, set) in beam.iter().zip(&sets) {
            for example in &examples {
                assert_eq!(
                    set.contains(example),
                    castor_logic::covers_example(clause, &db, example),
                    "batched {clause} disagrees on {example}"
                );
            }
        }
    }

    #[test]
    fn repeated_scoring_hits_the_cache() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default());
        let examples = [
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["carol", "dan"]),
        ];
        // Alpha-variant clauses must share cache entries.
        engine.covered_set(&collaborated("x", "y", "p"), &examples, Prior::None);
        let before = engine.report();
        engine.covered_set(&collaborated("u", "v", "w"), &examples, Prior::None);
        let after = engine.report();
        assert_eq!(after.coverage_tests, before.coverage_tests);
        assert_eq!(after.cache_hits, before.cache_hits + examples.len());
        assert_eq!(after.plans_compiled, 1);
    }

    #[test]
    fn generality_prior_skips_parent_covered_examples() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default());
        let parent = collaborated("x", "y", "p");
        let examples = [
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["ann", "carol"]),
        ];
        let parent_covered = engine.covered_set(&parent, &examples, Prior::None);
        assert_eq!(parent_covered.len(), 1);
        // A strictly more general clause (one literal dropped).
        let child = Clause::new(
            Atom::vars("collaborated", &["x", "y"]),
            vec![Atom::vars("publication", &["p", "x"])],
        );
        let before = engine.report();
        let child_covered = engine.covered_set(&child, &examples, Prior::GeneralizationOf(&parent));
        let after = engine.report();
        assert!(child_covered.contains(&Tuple::from_strs(&["ann", "bob"])));
        assert_eq!(after.generality_skips, before.generality_skips + 1);
    }

    #[test]
    fn uncached_config_reevaluates_every_time() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default().without_cache());
        let clause = collaborated("x", "y", "p");
        let e = Tuple::from_strs(&["ann", "bob"]);
        engine.covers(&clause, &e);
        engine.covers(&clause, &e);
        let report = engine.report();
        assert_eq!(report.coverage_tests, 2);
        assert_eq!(report.cache_hits, 0);
    }

    #[test]
    fn parallel_and_sequential_paths_agree() {
        let db = db();
        let sequential = Engine::new(&db, EngineConfig::default());
        let parallel = Engine::new(&db, EngineConfig::default().with_threads(4));
        let clause = collaborated("x", "y", "p");
        let base = [
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["carol", "dan"]),
            Tuple::from_strs(&["ann", "dan"]),
            Tuple::from_strs(&["eve", "eve"]),
        ];
        let many: Vec<Tuple> = base.iter().cycle().take(64).cloned().collect();
        assert_eq!(
            sequential.covered_set(&clause, &many, Prior::None),
            parallel.covered_set(&clause, &many, Prior::None)
        );
    }

    #[test]
    fn budget_exhaustion_is_reported_not_silent() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default().with_eval_budget(0));
        let clause = collaborated("x", "y", "p");
        assert!(!engine.covers(&clause, &Tuple::from_strs(&["ann", "bob"])));
        assert_eq!(engine.report().budget_exhausted, 1);
    }

    /// A beam of siblings sharing the collaborated-clause prefix.
    fn sibling_beam() -> Vec<Clause> {
        let mut base = collaborated("x", "y", "p");
        base.push(Atom::vars("publication", &["q", "x"]));
        let mut with_self = collaborated("x", "y", "p");
        with_self.push(Atom::vars("publication", &["p", "p2"]));
        vec![collaborated("x", "y", "p"), base, with_self]
    }

    fn batch_examples() -> Vec<Tuple> {
        vec![
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["carol", "dan"]),
            Tuple::from_strs(&["ann", "carol"]),
            Tuple::from_strs(&["eve", "eve"]),
        ]
    }

    #[test]
    fn batched_counts_match_per_clause_scoring() {
        let db = db();
        let batched = Engine::new(&db, EngineConfig::default());
        let solo = Engine::new(&db, EngineConfig::default());
        let beam = sibling_beam();
        let positive = batch_examples();
        let negative = vec![Tuple::from_strs(&["bob", "nobody"])];
        let counts = batched.coverage_counts_batch(&beam, &positive, &negative);
        for (clause, counts) in beam.iter().zip(counts) {
            let pos = solo.covered_set(clause, &positive, Prior::None).len();
            let neg = solo.covered_set(clause, &negative, Prior::None).len();
            assert_eq!(
                (counts.positive, counts.negative),
                (pos, neg),
                "on {clause}"
            );
        }
        let report = batched.report();
        assert!(report.batches >= 1, "trie path not taken: {report}");
        // The positive and negative passes are fused into one trie walk:
        // the beam is submitted once, not once per class.
        assert_eq!(report.batch_clauses, beam.len());
        assert!(report.batch_prefix_hits > 0, "no shared probes: {report}");
    }

    #[test]
    fn fused_counts_ignore_duplicate_examples_like_two_passes() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default());
        let beam = sibling_beam();
        // Duplicates inside a class and across classes: counts stay
        // set-semantic, exactly like two covered_set passes.
        let positive = vec![
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["carol", "dan"]),
        ];
        let negative = vec![
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["eve", "eve"]),
        ];
        let counts = engine.coverage_counts_batch(&beam, &positive, &negative);
        let solo = Engine::new(&db, EngineConfig::default());
        for (clause, counts) in beam.iter().zip(counts) {
            let pos = solo.covered_set(clause, &positive, Prior::None).len();
            let neg = solo.covered_set(clause, &negative, Prior::None).len();
            assert_eq!(
                (counts.positive, counts.negative),
                (pos, neg),
                "on {clause}"
            );
        }
    }

    #[test]
    fn batched_sets_share_cache_with_per_clause_path() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default());
        let beam = sibling_beam();
        let examples = batch_examples();
        let sets = engine.covered_sets_batch(&beam, &examples);
        // Re-scoring the same candidates per-clause is pure cache hits.
        let before = engine.report();
        for (clause, set) in beam.iter().zip(&sets) {
            assert_eq!(&engine.covered_set(clause, &examples, Prior::None), set);
        }
        let after = engine.report();
        assert_eq!(after.coverage_tests, before.coverage_tests);
        assert_eq!(
            after.cache_hits,
            before.cache_hits + beam.len() * examples.len()
        );
    }

    #[test]
    fn duplicate_candidates_are_deduplicated() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default());
        // α-equivalent duplicates must share one evaluation.
        let beam = vec![collaborated("x", "y", "p"), collaborated("u", "v", "w")];
        let examples = batch_examples();
        let sets = engine.covered_sets_batch(&beam, &examples);
        assert_eq!(sets[0], sets[1]);
        assert_eq!(engine.report().coverage_tests, examples.len());
    }

    #[test]
    fn batched_parallel_and_sequential_agree() {
        let db = db();
        let sequential = Engine::new(&db, EngineConfig::default());
        let parallel = Engine::new(&db, EngineConfig::default().with_threads(4));
        let beam = sibling_beam();
        let many: Vec<Tuple> = batch_examples().into_iter().cycle().take(64).collect();
        assert_eq!(
            sequential.covered_sets_batch(&beam, &many),
            parallel.covered_sets_batch(&beam, &many)
        );
    }

    #[test]
    fn pooled_pairs_plan_only_the_clauses_they_test() {
        let db = db();
        // Two trie siblings and one candidate alone under its head: only
        // the lone candidate runs as (clause, example) pairs, so it is the
        // only clause that gets a per-clause plan, whatever the thread
        // count.
        let mut beam = sibling_beam();
        beam.truncate(2);
        beam.push(Clause::new(
            Atom::vars("collaborated", &["x", "x"]),
            vec![Atom::vars("publication", &["p", "x"])],
        ));
        let examples: Vec<Tuple> = [
            ["ann", "bob"],
            ["bob", "ann"],
            ["carol", "dan"],
            ["dan", "carol"],
            ["ann", "ann"],
            ["eve", "eve"],
            ["ann", "carol"],
            ["bob", "dan"],
            ["carol", "carol"],
            ["dan", "eve"],
        ]
        .iter()
        .map(|pair| Tuple::from_strs(pair))
        .collect();
        let run = |threads| {
            let engine = Engine::new(&db, EngineConfig::default().with_threads(threads));
            let sets = engine.covered_sets_batch(&beam, &examples);
            (sets, engine.report().plans_compiled)
        };
        let inline = run(1);
        assert_eq!(inline.1, 1);
        assert_eq!(run(2), inline);
    }

    #[test]
    fn batch_priors_apply_the_generality_order() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default());
        let parent = collaborated("x", "y", "p");
        let examples = batch_examples();
        engine.covered_set(&parent, &examples, Prior::None);
        // Two children generalizing the parent (one literal dropped each).
        let child_a = Clause::new(
            Atom::vars("collaborated", &["x", "y"]),
            vec![Atom::vars("publication", &["p", "x"])],
        );
        let child_b = Clause::new(
            Atom::vars("collaborated", &["x", "y"]),
            vec![Atom::vars("publication", &["p", "y"])],
        );
        let beam = vec![child_a.clone(), child_b.clone()];
        let priors = vec![
            Prior::GeneralizationOf(&parent),
            Prior::GeneralizationOf(&parent),
        ];
        let before = engine.report();
        let sets = engine.covered_sets_batch_with_priors(&beam, &priors, &examples);
        let after = engine.report();
        assert!(after.generality_skips > before.generality_skips);
        let fresh = Engine::new(&db, EngineConfig::default());
        assert_eq!(sets[0], fresh.covered_set(&child_a, &examples, Prior::None));
        assert_eq!(sets[1], fresh.covered_set(&child_b, &examples, Prior::None));
    }

    #[test]
    fn empty_bodied_candidates_resolve_by_head_binding() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default());
        let beam = vec![
            Clause::fact(Atom::vars("collaborated", &["x", "y"])),
            collaborated("x", "y", "p"),
            Clause::new(
                Atom::vars("collaborated", &["x", "y"]),
                vec![Atom::vars("publication", &["p", "x"])],
            ),
        ];
        let examples = batch_examples();
        let sets = engine.covered_sets_batch(&beam, &examples);
        // The most general clause covers everything its head binds — all
        // examples here.
        assert_eq!(sets[0].len(), examples.len());
        let solo = Engine::new(&db, EngineConfig::default());
        for (clause, set) in beam.iter().zip(&sets) {
            assert_eq!(set, &solo.covered_set(clause, &examples, Prior::None));
        }
    }

    #[test]
    fn batched_budget_exhaustion_is_counted() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default().with_eval_budget(0));
        let beam = sibling_beam();
        let examples = batch_examples();
        let sets = engine.covered_sets_batch(&beam, &examples);
        assert!(sets.iter().all(HashSet::is_empty));
        assert!(engine.report().budget_exhausted > 0);
    }

    #[test]
    fn mutations_are_visible_and_invalidate_plans_and_cache() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default());
        let clause = collaborated("x", "y", "p");
        let example = Tuple::from_strs(&["ann", "eve"]);
        assert!(!engine.covers(&clause, &example));
        // Make ann and eve co-authors after the engine was built.
        let batch = MutationBatch::new().insert("publication", Tuple::from_strs(&["p3", "ann"]));
        let summary = engine.apply(&batch).unwrap();
        assert_eq!(summary.inserted, 1);
        let report = engine.report();
        assert_eq!(report.mutation_batches, 1);
        assert!(
            report.cache_clauses_invalidated >= 1,
            "stale coverage survived: {report}"
        );
        // The next test sees the new tuple: the cached plan fails its epoch
        // check, recompiles, and the stale cached verdict is gone.
        assert!(engine.covers(&clause, &example));
        assert!(engine.report().plans_invalidated >= 1);
        // Equivalent to a fresh snapshot engine over the mutated database.
        let fresh = Engine::from_arc(engine.snapshot(), EngineConfig::default());
        let examples = batch_examples();
        assert_eq!(
            engine.covered_set(&clause, &examples, Prior::None),
            fresh.covered_set(&clause, &examples, Prior::None)
        );
    }

    #[test]
    fn removal_revokes_previously_covered_examples() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default());
        let clause = collaborated("x", "y", "p");
        let example = Tuple::from_strs(&["ann", "bob"]);
        assert!(engine.covers(&clause, &example));
        let batch = MutationBatch::new().remove("publication", Tuple::from_strs(&["p1", "bob"]));
        engine.apply(&batch).unwrap();
        assert!(!engine.covers(&clause, &example));
        // Statistics were refreshed incrementally alongside the data.
        assert_eq!(
            engine
                .statistics()
                .relation("publication")
                .unwrap()
                .cardinality,
            4
        );
    }

    #[test]
    fn failed_batches_are_not_counted_as_applied() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default());
        let batch = MutationBatch::new()
            .insert("publication", Tuple::from_strs(&["p9", "zoe"]))
            .insert("missing", Tuple::from_strs(&["x"]));
        assert!(engine.apply(&batch).is_err());
        assert_eq!(engine.report().mutation_batches, 0);
        // The op before the failure is applied and statistics stayed in
        // sync with it (refreshed even on the error path).
        assert!(engine
            .snapshot()
            .contains("publication", &Tuple::from_strs(&["p9", "zoe"])));
        assert_eq!(
            engine
                .statistics()
                .relation("publication")
                .unwrap()
                .cardinality,
            6
        );
    }

    #[test]
    fn mutations_of_unreferenced_relations_keep_the_cache() {
        let mut schema = Schema::new("demo");
        schema.add_relation(RelationSymbol::new("publication", &["title", "person"]));
        schema.add_relation(RelationSymbol::new("untouched", &["x"]));
        let mut db = DatabaseInstance::empty(&schema);
        db.insert("publication", Tuple::from_strs(&["p1", "ann"]))
            .unwrap();
        db.insert("publication", Tuple::from_strs(&["p1", "bob"]))
            .unwrap();
        let engine = Engine::new(&db, EngineConfig::default());
        let clause = collaborated("x", "y", "p");
        let example = Tuple::from_strs(&["ann", "bob"]);
        engine.covers(&clause, &example);
        let batch = MutationBatch::new().insert("untouched", Tuple::from_strs(&["v"]));
        engine.apply(&batch).unwrap();
        let before = engine.report();
        assert!(engine.covers(&clause, &example));
        let after = engine.report();
        // Answered from cache: the mutated relation is not referenced.
        assert_eq!(after.coverage_tests, before.coverage_tests);
        assert_eq!(after.cache_clauses_invalidated, 0);
        assert_eq!(after.plans_invalidated, 0);
    }

    #[test]
    fn exhaustions_are_memoized_per_budget_tier() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default().with_eval_budget(1));
        let clause = collaborated("x", "y", "p");
        let e = Tuple::from_strs(&["ann", "bob"]);
        // First test exhausts and is memoized keyed by budget 1.
        assert!(!engine.covers(&clause, &e));
        let before = engine.report();
        assert_eq!(before.budget_exhausted, 1);
        // Same budget: answered from the cache, no new evaluation.
        assert!(!engine.covers(&clause, &e));
        let same = engine.report();
        assert_eq!(same.coverage_tests, before.coverage_tests);
        assert_eq!(same.cache_hits, before.cache_hits + 1);
        // Smaller budget: still served (an exhaustion under 1 node implies
        // exhaustion under 0).
        engine.set_eval_budget(0);
        assert!(!engine.covers(&clause, &e));
        assert_eq!(engine.report().coverage_tests, before.coverage_tests);
        // Larger budget: the cached exhaustion is *not* served — the test
        // re-runs and this time finds the answer.
        engine.set_eval_budget(DEFAULT_EVAL_NODE_BUDGET);
        assert!(engine.covers(&clause, &e));
        let after = engine.report();
        assert_eq!(after.coverage_tests, before.coverage_tests + 1);
        // The definite verdict replaced the exhaustion: a small budget now
        // gets "covered" from the cache instead of re-exhausting.
        engine.set_eval_budget(1);
        assert!(engine.covers(&clause, &e));
        assert_eq!(engine.report().coverage_tests, after.coverage_tests);
    }

    #[test]
    fn cancellation_pending_keeps_exhaustions_out_of_the_cache() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default());
        let clause = collaborated("x", "y", "p");
        let e = Tuple::from_strs(&["ann", "bob"]);
        let token = Arc::new(AtomicBool::new(true));
        engine.set_cancel_token(Some(Arc::clone(&token)));
        assert!(!engine.covers(&clause, &e)); // aborted as exhaustion
                                              // Lifting the cancellation must re-evaluate: the abort was never
                                              // cached even though budgets are identical.
        token.store(false, Ordering::Relaxed);
        let before = engine.report();
        assert!(engine.covers(&clause, &e));
        assert_eq!(engine.report().coverage_tests, before.coverage_tests + 1);
        // An *installed but untriggered* token keeps the tier active: the
        // definite verdict above came from a real evaluation and is served
        // from cache now.
        assert!(engine.covers(&clause, &e));
        assert_eq!(engine.report().coverage_tests, before.coverage_tests + 1);
    }

    #[test]
    fn plan_table_clear_keeps_join_orders_and_memoized_exhaustions() {
        let db = db();
        // Capacity 2 bounds the plan table (and the coverage cache), so a
        // third clause clears the plan table.
        let config = EngineConfig {
            cache_capacity: 2,
            ..EngineConfig::default().with_eval_budget(1)
        };
        let engine = Engine::new(&db, config.clone());
        let clause = collaborated("x", "y", "p");
        let e = Tuple::from_strs(&["ann", "bob"]);
        assert_eq!(engine.try_covers(&clause, &e), CoverageOutcome::Exhausted);
        let order = engine.plan_order(&clause).expect("plan was compiled");
        let one_literal = |var: &str| {
            Clause::new(
                Atom::vars("collaborated", &["x", "y"]),
                vec![Atom::vars("publication", &["p", var])],
            )
        };
        engine.covers(&one_literal("x"), &e);
        // Re-reading the clause keeps it the most recent coverage-cache
        // entry, so the next insert evicts the other clause instead.
        assert_eq!(engine.try_covers(&clause, &e), CoverageOutcome::Exhausted);
        engine.covers(&one_literal("y"), &e);
        assert_eq!(engine.plan_order(&clause), None, "plan table not cleared");
        // The memoized exhaustion survives the clear and is served without
        // a test, and a fresh engine decides the pair the same way.
        let before = engine.report();
        assert_eq!(engine.try_covers(&clause, &e), CoverageOutcome::Exhausted);
        assert_eq!(engine.report().coverage_tests, before.coverage_tests);
        let fresh = Engine::new(&db, config);
        assert_eq!(fresh.try_covers(&clause, &e), CoverageOutcome::Exhausted);
        // Recompiling after the clear picks the same join order: it
        // depends only on the statistics, which no mutation changed.
        engine.covers(&clause, &Tuple::from_strs(&["carol", "dan"]));
        assert_eq!(engine.plan_order(&clause), Some(order));
    }

    #[test]
    fn session_budget_override_and_cancellation_token() {
        let db = db();
        let engine = Engine::new(&db, EngineConfig::default().without_cache());
        let clause = collaborated("x", "y", "p");
        let example = Tuple::from_strs(&["ann", "bob"]);
        assert!(engine.covers(&clause, &example));
        // Budget override: zero nodes → exhaustion.
        engine.set_eval_budget(0);
        assert!(!engine.covers(&clause, &example));
        engine.set_eval_budget(engine.config().eval_budget);
        assert!(engine.covers(&clause, &example));
        // Cancellation: a set token aborts every test as an exhaustion.
        let token = Arc::new(AtomicBool::new(true));
        engine.set_cancel_token(Some(Arc::clone(&token)));
        let before = engine.report().budget_exhausted;
        assert!(!engine.covers(&clause, &example));
        assert!(engine.report().budget_exhausted > before);
        engine.set_cancel_token(None);
        assert!(engine.covers(&clause, &example));
    }
}

//! Database-wide selectivity statistics and engine counters.
//!
//! The statistics are read off the per-attribute hash indexes the database
//! already maintains and drive clause-plan compilation: join orders are
//! chosen from estimated access-path costs instead of being re-derived at
//! every backtracking node. Each relation's entry is stamped with the
//! *mutation epoch* it was read at, so after a mutation batch
//! [`DatabaseStatistics::refresh`] re-reads only the relations whose epoch
//! advanced — incremental maintenance instead of a full re-gather — and
//! compiled plans can compare the epochs they were costed against with the
//! current ones to detect staleness. The counters mirror what the paper's
//! implementation reports for its ablations: number of coverage tests,
//! cache behavior, and — new in this reproduction — how many tests ended by
//! budget exhaustion rather than a definite verdict, plus plan/cache
//! invalidation traffic caused by mutations.

use castor_relational::{DatabaseInstance, RelationStatistics};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-relation selectivity statistics for a whole database instance, each
/// entry stamped with the relation's mutation epoch at read time.
#[derive(Debug, Clone, Default)]
pub struct DatabaseStatistics {
    relations: HashMap<String, (RelationStatistics, u64)>,
}

impl DatabaseStatistics {
    /// Snapshots statistics for every relation of `db`.
    pub fn gather(db: &DatabaseInstance) -> Self {
        DatabaseStatistics {
            relations: db
                .relations()
                .map(|r| (r.name().to_string(), (r.statistics(), r.epoch())))
                .collect(),
        }
    }

    /// Re-reads statistics for exactly the relations whose mutation epoch
    /// advanced since this snapshot was taken, returning their names. This
    /// is the incremental-maintenance entry point a serving layer calls
    /// after applying a mutation batch.
    pub fn refresh(&mut self, db: &DatabaseInstance) -> Vec<String> {
        let mut changed = Vec::new();
        for r in db.relations() {
            let epoch = r.epoch();
            match self.relations.get(r.name()) {
                Some((_, stamped)) if *stamped == epoch => {}
                _ => {
                    self.relations
                        .insert(r.name().to_string(), (r.statistics(), epoch));
                    changed.push(r.name().to_string());
                }
            }
        }
        changed
    }

    /// Statistics for one relation, if it exists.
    pub fn relation(&self, name: &str) -> Option<&RelationStatistics> {
        self.relations.get(name).map(|(stats, _)| stats)
    }

    /// The mutation epoch one relation's statistics were read at.
    pub fn epoch_of(&self, name: &str) -> Option<u64> {
        self.relations.get(name).map(|(_, epoch)| *epoch)
    }

    /// Number of relations covered by the snapshot.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

/// Monotonic engine counters, updated atomically from every worker thread.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Coverage tests actually evaluated (cache misses included, hits not).
    pub coverage_tests: AtomicUsize,
    /// Tests answered from the memoized coverage cache.
    pub cache_hits: AtomicUsize,
    /// Tests that had to be evaluated and were then cached.
    pub cache_misses: AtomicUsize,
    /// Cache hits whose verdict was proven by a *different* schema variant
    /// sharing the cache arena (a subset of `cache_hits` plus the covered
    /// subsets served by the generality order).
    pub cross_variant_hits: AtomicUsize,
    /// Clause keys translated through a variant lens before a cache probe
    /// or insert (the per-variant boundary cost of cross-variant reuse).
    pub cross_variant_translations: AtomicUsize,
    /// Tests skipped through the generality order (a generalization covers
    /// everything its parent covered).
    pub generality_skips: AtomicUsize,
    /// Tests whose node budget ran out before a definite verdict.
    pub budget_exhausted: AtomicUsize,
    /// Clause plans compiled (one per distinct canonical clause).
    pub plans_compiled: AtomicUsize,
    /// Plan lookups answered from the plan cache.
    pub plan_cache_hits: AtomicUsize,
    /// Cached plans discarded because a relation they were costed against
    /// mutated (the epoch check on plan fetch failed); each is followed by
    /// a recompilation against fresh statistics.
    pub plans_invalidated: AtomicUsize,
    /// Cached-coverage clauses dropped because they reference a mutated
    /// relation.
    pub cache_clauses_invalidated: AtomicUsize,
    /// Mutation batches applied to the engine's live database.
    pub mutation_batches: AtomicUsize,
    /// Batched evaluations executed through a shared-prefix trie.
    pub batches: AtomicUsize,
    /// Candidate clauses submitted through the batch API.
    pub batch_clauses: AtomicUsize,
    /// Index probes at shared trie nodes that fed more than one candidate
    /// clause: for a probe serving `k` live candidates, `k - 1` per-clause
    /// probes were saved.
    pub batch_prefix_hits: AtomicUsize,
    /// Per-candidate suffix evaluations forked off a materialized shared
    /// binding (descents beyond the first live child of a trie node).
    pub batch_suffix_forks: AtomicUsize,
    /// Shared-prefix tries compiled (one per sibling group of a batch).
    pub batch_plans_compiled: AtomicUsize,
    /// Always 0: tries are compiled per batch and never reused. Kept only
    /// because the benchmark runner reads it.
    pub batch_plan_cache_hits: AtomicUsize,
    /// Always 0, like `batch_plan_cache_hits`.
    pub batch_plans_invalidated: AtomicUsize,
}

impl EngineStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        EngineStats::default()
    }

    /// Atomically increments a counter (shared with the subsumption-based
    /// coverage engine in `castor-core`).
    pub fn bump(counter: &AtomicUsize) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Atomically adds `n` to a counter.
    pub fn add(counter: &AtomicUsize, n: usize) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of every counter.
    pub fn snapshot(&self) -> EngineReport {
        EngineReport {
            coverage_tests: self.coverage_tests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cross_variant_hits: self.cross_variant_hits.load(Ordering::Relaxed),
            cross_variant_translations: self.cross_variant_translations.load(Ordering::Relaxed),
            generality_skips: self.generality_skips.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
            // Owned by the coverage cache, not these counters; the runtime
            // patches the live number into its reports.
            exhaustions_evicted: 0,
            plans_compiled: self.plans_compiled.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plans_invalidated: self.plans_invalidated.load(Ordering::Relaxed),
            cache_clauses_invalidated: self.cache_clauses_invalidated.load(Ordering::Relaxed),
            mutation_batches: self.mutation_batches.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_clauses: self.batch_clauses.load(Ordering::Relaxed),
            batch_prefix_hits: self.batch_prefix_hits.load(Ordering::Relaxed),
            batch_suffix_forks: self.batch_suffix_forks.load(Ordering::Relaxed),
            batch_plans_compiled: self.batch_plans_compiled.load(Ordering::Relaxed),
            batch_plan_cache_hits: self.batch_plan_cache_hits.load(Ordering::Relaxed),
            batch_plans_invalidated: self.batch_plans_invalidated.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data snapshot of [`EngineStats`], reported by the experiment
/// harnesses alongside timing numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Coverage tests actually evaluated.
    pub coverage_tests: usize,
    /// Tests answered from the coverage cache.
    pub cache_hits: usize,
    /// Tests evaluated and cached.
    pub cache_misses: usize,
    /// Cache serves whose verdict was proven by a different schema variant
    /// sharing the cache arena.
    pub cross_variant_hits: usize,
    /// Clause keys translated through a variant lens at the cache boundary.
    pub cross_variant_translations: usize,
    /// Tests skipped through the generality order.
    pub generality_skips: usize,
    /// Tests that ended by budget exhaustion (approximate "not covered").
    pub budget_exhausted: usize,
    /// Cached exhaustion entries dropped by the budget-tier eviction policy
    /// (three consecutive failed serves to larger budgets).
    pub exhaustions_evicted: usize,
    /// Distinct clause plans compiled.
    pub plans_compiled: usize,
    /// Plan lookups served from cache.
    pub plan_cache_hits: usize,
    /// Cached plans discarded by the epoch check after a mutation.
    pub plans_invalidated: usize,
    /// Cached-coverage clauses dropped because a referenced relation mutated.
    pub cache_clauses_invalidated: usize,
    /// Mutation batches applied to the live database.
    pub mutation_batches: usize,
    /// Batched (shared-prefix trie) evaluations executed.
    pub batches: usize,
    /// Candidate clauses submitted through the batch API.
    pub batch_clauses: usize,
    /// Per-clause index probes saved by shared trie-prefix probes.
    pub batch_prefix_hits: usize,
    /// Per-candidate suffix forks off materialized shared bindings.
    pub batch_suffix_forks: usize,
    /// Shared-prefix tries compiled (one per sibling group of a batch).
    pub batch_plans_compiled: usize,
    /// Always 0: tries are compiled per batch and never reused. Kept only
    /// because the benchmark runner reads it.
    pub batch_plan_cache_hits: usize,
    /// Always 0, like `batch_plan_cache_hits`.
    pub batch_plans_invalidated: usize,
}

impl EngineReport {
    /// Element-wise sum of two reports (used to aggregate the subsumption
    /// coverage engine and the ARMG evaluation engine of one learner run).
    pub fn combined(&self, other: &EngineReport) -> EngineReport {
        EngineReport {
            coverage_tests: self.coverage_tests + other.coverage_tests,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cross_variant_hits: self.cross_variant_hits + other.cross_variant_hits,
            cross_variant_translations: self.cross_variant_translations
                + other.cross_variant_translations,
            generality_skips: self.generality_skips + other.generality_skips,
            budget_exhausted: self.budget_exhausted + other.budget_exhausted,
            exhaustions_evicted: self.exhaustions_evicted + other.exhaustions_evicted,
            plans_compiled: self.plans_compiled + other.plans_compiled,
            plan_cache_hits: self.plan_cache_hits + other.plan_cache_hits,
            plans_invalidated: self.plans_invalidated + other.plans_invalidated,
            cache_clauses_invalidated: self.cache_clauses_invalidated
                + other.cache_clauses_invalidated,
            mutation_batches: self.mutation_batches + other.mutation_batches,
            batches: self.batches + other.batches,
            batch_clauses: self.batch_clauses + other.batch_clauses,
            batch_prefix_hits: self.batch_prefix_hits + other.batch_prefix_hits,
            batch_suffix_forks: self.batch_suffix_forks + other.batch_suffix_forks,
            batch_plans_compiled: self.batch_plans_compiled + other.batch_plans_compiled,
            batch_plan_cache_hits: self.batch_plan_cache_hits + other.batch_plan_cache_hits,
            batch_plans_invalidated: self.batch_plans_invalidated + other.batch_plans_invalidated,
        }
    }

    /// Element-wise difference against an earlier snapshot of the *same*
    /// counters (saturating, since relaxed atomics may be read mid-update).
    /// Serving sessions use this to attribute shared-engine activity to the
    /// session whose job produced it.
    pub fn delta_since(&self, baseline: &EngineReport) -> EngineReport {
        EngineReport {
            coverage_tests: self.coverage_tests.saturating_sub(baseline.coverage_tests),
            cache_hits: self.cache_hits.saturating_sub(baseline.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(baseline.cache_misses),
            cross_variant_hits: self
                .cross_variant_hits
                .saturating_sub(baseline.cross_variant_hits),
            cross_variant_translations: self
                .cross_variant_translations
                .saturating_sub(baseline.cross_variant_translations),
            generality_skips: self
                .generality_skips
                .saturating_sub(baseline.generality_skips),
            budget_exhausted: self
                .budget_exhausted
                .saturating_sub(baseline.budget_exhausted),
            exhaustions_evicted: self
                .exhaustions_evicted
                .saturating_sub(baseline.exhaustions_evicted),
            plans_compiled: self.plans_compiled.saturating_sub(baseline.plans_compiled),
            plan_cache_hits: self
                .plan_cache_hits
                .saturating_sub(baseline.plan_cache_hits),
            plans_invalidated: self
                .plans_invalidated
                .saturating_sub(baseline.plans_invalidated),
            cache_clauses_invalidated: self
                .cache_clauses_invalidated
                .saturating_sub(baseline.cache_clauses_invalidated),
            mutation_batches: self
                .mutation_batches
                .saturating_sub(baseline.mutation_batches),
            batches: self.batches.saturating_sub(baseline.batches),
            batch_clauses: self.batch_clauses.saturating_sub(baseline.batch_clauses),
            batch_prefix_hits: self
                .batch_prefix_hits
                .saturating_sub(baseline.batch_prefix_hits),
            batch_suffix_forks: self
                .batch_suffix_forks
                .saturating_sub(baseline.batch_suffix_forks),
            batch_plans_compiled: self
                .batch_plans_compiled
                .saturating_sub(baseline.batch_plans_compiled),
            batch_plan_cache_hits: self
                .batch_plan_cache_hits
                .saturating_sub(baseline.batch_plan_cache_hits),
            batch_plans_invalidated: self
                .batch_plans_invalidated
                .saturating_sub(baseline.batch_plans_invalidated),
        }
    }

    /// Fraction of lookups answered from the cache (0 when nothing ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for EngineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tests={} cache={}/{} ({:.0}% hit) cross-variant={}hits/{}xl \
             generality-skips={} budget-exhausted={} \
             exhaustions-evicted={} \
             plans={} (+{} reused) \
             batches={}/{} clauses (prefix-hits={} suffix-forks={}) \
             batch-plans={} (+{} reused) \
             mutations={} (plans-invalidated={} batch-plans-invalidated={} \
             cache-clauses-invalidated={})",
            self.coverage_tests,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            100.0 * self.cache_hit_rate(),
            self.cross_variant_hits,
            self.cross_variant_translations,
            self.generality_skips,
            self.budget_exhausted,
            self.exhaustions_evicted,
            self.plans_compiled,
            self.plan_cache_hits,
            self.batches,
            self.batch_clauses,
            self.batch_prefix_hits,
            self.batch_suffix_forks,
            self.batch_plans_compiled,
            self.batch_plan_cache_hits,
            self.mutation_batches,
            self.plans_invalidated,
            self.batch_plans_invalidated,
            self.cache_clauses_invalidated,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_relational::{RelationSymbol, Schema, Tuple};

    #[test]
    fn gather_reads_every_relation() {
        let mut schema = Schema::new("s");
        schema
            .add_relation(RelationSymbol::new("a", &["x", "y"]))
            .add_relation(RelationSymbol::new("b", &["z"]));
        let mut db = DatabaseInstance::empty(&schema);
        db.insert("a", Tuple::from_strs(&["1", "2"])).unwrap();
        db.insert("a", Tuple::from_strs(&["1", "3"])).unwrap();
        let stats = DatabaseStatistics::gather(&db);
        assert_eq!(stats.len(), 2);
        let a = stats.relation("a").unwrap();
        assert_eq!(a.cardinality, 2);
        assert_eq!(a.distinct_per_position, vec![1, 2]);
        assert_eq!(stats.relation("b").unwrap().cardinality, 0);
        assert!(stats.relation("missing").is_none());
    }

    #[test]
    fn report_formats_and_computes_hit_rate() {
        let stats = EngineStats::new();
        EngineStats::bump(&stats.cache_hits);
        EngineStats::bump(&stats.cache_hits);
        EngineStats::bump(&stats.cache_misses);
        EngineStats::bump(&stats.coverage_tests);
        let report = stats.snapshot();
        assert!((report.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        let text = report.to_string();
        assert!(text.contains("tests=1"));
        assert!(text.contains("cache=2/3"));
    }

    #[test]
    fn batch_counters_aggregate_and_render() {
        let stats = EngineStats::new();
        EngineStats::bump(&stats.batches);
        EngineStats::add(&stats.batch_clauses, 6);
        EngineStats::add(&stats.batch_prefix_hits, 10);
        EngineStats::add(&stats.batch_suffix_forks, 4);
        let report = stats.snapshot();
        assert_eq!(report.batches, 1);
        assert_eq!(report.batch_clauses, 6);
        let doubled = report.combined(&report);
        assert_eq!(doubled.batch_prefix_hits, 20);
        assert_eq!(doubled.batch_suffix_forks, 8);
        assert!(report.to_string().contains("batches=1/6 clauses"));
    }

    #[test]
    fn refresh_rereads_only_mutated_relations() {
        let mut schema = Schema::new("s");
        schema
            .add_relation(RelationSymbol::new("a", &["x"]))
            .add_relation(RelationSymbol::new("b", &["y"]));
        let mut db = DatabaseInstance::empty(&schema);
        db.insert("a", Tuple::from_strs(&["1"])).unwrap();
        let mut stats = DatabaseStatistics::gather(&db);
        assert_eq!(stats.epoch_of("a"), Some(1));
        assert_eq!(stats.refresh(&db), Vec::<String>::new());
        db.insert("a", Tuple::from_strs(&["2"])).unwrap();
        db.remove("a", &Tuple::from_strs(&["1"])).unwrap();
        assert_eq!(stats.refresh(&db), vec!["a".to_string()]);
        assert_eq!(stats.relation("a").unwrap().cardinality, 1);
        assert_eq!(stats.epoch_of("a"), Some(3));
        assert_eq!(stats.epoch_of("b"), Some(0));
    }

    #[test]
    fn delta_since_isolates_new_activity() {
        let stats = EngineStats::new();
        EngineStats::add(&stats.coverage_tests, 5);
        let baseline = stats.snapshot();
        EngineStats::add(&stats.coverage_tests, 3);
        EngineStats::bump(&stats.mutation_batches);
        let delta = stats.snapshot().delta_since(&baseline);
        assert_eq!(delta.coverage_tests, 3);
        assert_eq!(delta.mutation_batches, 1);
        assert_eq!(delta.cache_hits, 0);
        assert!(delta.to_string().contains("mutations=1"));
    }
}

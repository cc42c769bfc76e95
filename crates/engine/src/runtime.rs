//! The coverage pipeline shared by every coverage engine in the
//! workspace: [`CoverageRuntime`] runs it, parameterized by a
//! [`CoverageTester`] — the database executor of [`crate::Engine`] or the
//! θ-subsumption tester of `castor-core`.

use crate::{
    canonicalize, fx, CoverageCache, EngineConfig, EngineReport, EngineStats, Prior, WorkerPool,
};
use castor_logic::{Clause, CoverageOutcome};
use castor_relational::Tuple;
use std::collections::HashSet;
use std::sync::Arc;

/// A pluggable per-example coverage test driven by [`CoverageRuntime`]:
/// the database-evaluation engine and the subsumption-based coverage engine
/// in `castor-core` differ only in this trait's methods.
pub trait CoverageTester {
    /// Evaluates one (canonical clause, example) pair inline, counting the
    /// test in the runtime's metrics.
    fn test(&self, canonical: &Clause, example: &Tuple) -> CoverageOutcome;

    /// Builds the `'static` task worker threads run over a batch's
    /// `(clause slot, example index)` pairs: task `i` evaluates
    /// `canonicals[pairs[i].0]` on `examples[pairs[i].1]`. The closure must
    /// own (`Arc`-clone) everything it touches.
    fn pair_task(
        &self,
        canonicals: &[&Clause],
        examples: &Arc<Vec<Tuple>>,
        pairs: &Arc<Vec<(usize, usize)>>,
    ) -> Box<dyn Fn(usize) -> CoverageOutcome + Send + Sync + 'static>;

    /// The node budget this tester's exhaustion verdicts are comparable
    /// under — the *scope* of the memo cache's budget-aware exhaustion tier:
    /// `Some(budget)` makes exhaustions cacheable keyed by that budget and
    /// lets cached exhaustions observed under an equal-or-larger budget be
    /// served; `None` (the default) keeps exhaustions out of the cache
    /// entirely, e.g. while a cancellation token can abort searches through
    /// the exhaustion path.
    fn exhaustion_scope(&self) -> Option<usize> {
        None
    }
}

/// Narrows an exhaustion scope across an evaluation: the budget recorded
/// for a new exhaustion is the one captured when the evaluation *started*
/// (a concurrent budget raise must not inflate the stored key), and the
/// verdicts are dropped entirely (`None`) when a cancellation fired before
/// write-back (the exhaustions are aborts, not budget verdicts).
fn narrow_scope(start: Option<usize>, end: Option<usize>) -> Option<usize> {
    match (start, end) {
        (Some(a), Some(b)) => Some(a.min(b)),
        _ => None,
    }
}

/// Pending pairs (or trie cells) below this count run inline: dispatching
/// them to the worker pool costs more than it saves.
pub(crate) const PARALLEL_THRESHOLD: usize = 8;

/// A caller-side stage of `CoverageRuntime::run` that settles part of a
/// batch itself after the cache probe: it is handed the batch's unique
/// canonical clauses and their pending example indices, returns
/// `(slot, example index, outcome)` verdicts, and removes what it settled
/// from `pending`. The engine's shared-prefix tries are such a stage.
pub(crate) type SharedStage<'s> =
    &'s mut dyn FnMut(&[&Clause], &mut [Vec<usize>]) -> Vec<(usize, usize, CoverageOutcome)>;

/// The orchestration shared by every coverage engine, as one pipeline
/// (`CoverageRuntime::run`): canonical-clause dedup, prior folding (the
/// generality order), one memo probe for the whole batch, the remaining
/// `(clause, example)` pairs evaluated inline or on the worker pool, and
/// one scope-narrowed write-back. Single-clause entry points are
/// one-clause calls into it. Parameterized by a [`CoverageTester`] so the
/// database executor and the θ-subsumption tester share it. The runtime
/// owns its memo cache; the cache key of a clause is its α-canonical form.
#[derive(Debug)]
pub struct CoverageRuntime {
    cache: CoverageCache,
    pool: Arc<WorkerPool>,
    metrics: Arc<EngineStats>,
    cache_coverage: bool,
}

impl CoverageRuntime {
    /// Builds a runtime from the engine configuration and a (possibly
    /// shared) worker pool, with its own coverage cache.
    pub fn new(config: &EngineConfig, pool: Arc<WorkerPool>) -> Self {
        CoverageRuntime {
            cache: CoverageCache::new(config.cache_capacity),
            pool,
            metrics: Arc::new(EngineStats::new()),
            cache_coverage: config.cache_coverage,
        }
    }

    /// The worker pool this runtime dispatches on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The shared counters (testers bump `coverage_tests` and
    /// `budget_exhausted` through this handle).
    pub fn metrics(&self) -> &Arc<EngineStats> {
        &self.metrics
    }

    /// Snapshot of the runtime counters.
    pub fn report(&self) -> EngineReport {
        self.metrics.snapshot()
    }

    /// Drops cached coverage for every clause referencing one of
    /// `relations` (the mutation-invalidation hook; see
    /// [`CoverageCache::invalidate_relations`]). Returns the number of
    /// clauses dropped.
    pub fn invalidate_relations(&self, relations: &std::collections::BTreeSet<String>) -> usize {
        let dropped = self.cache.invalidate_relations(relations);
        if dropped > 0 {
            EngineStats::add(&self.metrics.cache_clauses_invalidated, dropped);
        }
        dropped
    }

    /// Drops the whole coverage cache (see [`CoverageCache::clear`]).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Tri-state coverage test of one canonical clause on one example: a
    /// one-clause, one-example pass of `CoverageRuntime::run`.
    pub fn try_covers<T: CoverageTester>(
        &self,
        tester: &T,
        canonical: &Clause,
        example: &Tuple,
    ) -> CoverageOutcome {
        let batch = self.run(
            tester,
            std::slice::from_ref(canonical),
            &[],
            std::slice::from_ref(example),
            None,
        );
        if !batch.covered[0].is_empty() {
            CoverageOutcome::Covered
        } else if batch.exhausted[0] > 0 {
            CoverageOutcome::Exhausted
        } else {
            CoverageOutcome::NotCovered
        }
    }

    /// The subset of `examples` covered by one canonical clause: a
    /// one-clause pass of `CoverageRuntime::run`. `prior` feeds the
    /// generality order.
    pub fn covered_set<T: CoverageTester>(
        &self,
        tester: &T,
        canonical: &Clause,
        examples: &[Tuple],
        prior: Prior<'_>,
    ) -> HashSet<Tuple> {
        self.run(
            tester,
            std::slice::from_ref(canonical),
            std::slice::from_ref(&prior),
            examples,
            None,
        )
        .into_sets()
        .swap_remove(0)
    }

    /// Per-clause covered subsets for a whole batch of candidate clauses:
    /// canonicalizes them and runs one pass of `CoverageRuntime::run`.
    /// `priors` is either empty (no prior knowledge) or exactly one
    /// [`Prior`] per clause.
    pub fn covered_sets_batch<T: CoverageTester>(
        &self,
        tester: &T,
        clauses: &[Clause],
        examples: &[Tuple],
        priors: &[Prior<'_>],
    ) -> Vec<HashSet<Tuple>> {
        let canonicals: Vec<Clause> = clauses.iter().map(canonicalize).collect();
        self.run(tester, &canonicals, priors, examples, None)
            .into_sets()
    }

    /// The coverage pipeline, the only place the runtime probes its cache
    /// or dispatches tests:
    ///
    /// 1. α-equivalent `canonicals` are deduplicated into slots;
    /// 2. `priors` (empty or one per clause) fold the generality order into
    ///    known coverage, counted as generality skips and cached;
    /// 3. one memo probe answers what the cache can, under the tester's
    ///    exhaustion scope;
    /// 4. the optional `shared` stage settles pending pairs itself — the
    ///    probe then opts out of the exhaustion tier (`None` scope), and the
    ///    stage's exhaustions are never cached, because a shared-prefix trie
    ///    charges shared probes to every live candidate, so its exhaustions
    ///    are not node-comparable with per-clause ones;
    /// 5. the remaining `(slot, example)` pairs run inline or, when there
    ///    are enough of them, on the worker pool;
    /// 6. their outcomes are written back under the tester's scope narrowed
    ///    across the evaluation: a cancellation that fired meanwhile turns
    ///    exhaustions into aborts (dropped), and a concurrent budget change
    ///    cannot inflate the stored key.
    pub(crate) fn run<'c, T: CoverageTester>(
        &self,
        tester: &T,
        canonicals: &'c [Clause],
        priors: &[Prior<'_>],
        examples: &[Tuple],
        shared: Option<SharedStage<'_>>,
    ) -> BatchPrep<'c> {
        debug_assert!(
            priors.is_empty() || priors.len() == canonicals.len(),
            "priors must be empty or parallel to the clause batch"
        );
        let scope = tester.exhaustion_scope();
        let probe_scope = if shared.is_some() { None } else { scope };
        let mut unique: Vec<&Clause> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(canonicals.len());
        let mut index: fx::FxHashMap<&Clause, usize> = fx::FxHashMap::default();
        for canonical in canonicals {
            // A lone clause needs no dedup index, so it is never hashed here.
            let slot = match canonicals.len() {
                1 => 0,
                _ => *index.entry(canonical).or_insert(unique.len()),
            };
            if slot == unique.len() {
                unique.push(canonical);
            }
            slot_of.push(slot);
        }

        let mut covered: Vec<HashSet<Tuple>> = vec![HashSet::new(); unique.len()];
        // Generality-derived coverage, written back to the cache below.
        let mut derived: Vec<Vec<Tuple>> = vec![Vec::new(); unique.len()];
        for (i, prior) in priors.iter().enumerate() {
            let Prior::GeneralizationOf(parent) = prior else {
                continue;
            };
            let slot = slot_of[i];
            for e in self.cache.covered_subset(&canonicalize(parent), examples) {
                if covered[slot].insert(e.clone()) {
                    derived[slot].push(e);
                }
            }
        }
        let skips: usize = covered.iter().map(HashSet::len).sum();
        if skips > 0 {
            EngineStats::add(&self.metrics.generality_skips, skips);
        }
        if self.cache_coverage {
            for (slot, derived) in derived.into_iter().enumerate() {
                if !derived.is_empty() {
                    self.cache.insert_many(
                        unique[slot],
                        derived.into_iter().map(|e| (e, CoverageOutcome::Covered)),
                        scope,
                    );
                }
            }
        }

        let rows = if self.cache_coverage {
            self.cache.get_batch_multi(&unique, examples, probe_scope)
        } else {
            vec![vec![None; examples.len()]; unique.len()]
        };
        let mut batch = BatchPrep {
            exhausted: vec![0; unique.len()],
            pending: vec![Vec::new(); unique.len()],
            unique,
            slot_of,
            covered,
        };
        let mut hits = 0usize;
        let mut misses = 0usize;
        for (slot, row) in rows.into_iter().enumerate() {
            for (ei, cached) in row.into_iter().enumerate() {
                if batch.covered[slot].contains(&examples[ei]) {
                    continue;
                }
                match cached {
                    Some(outcome) => {
                        hits += 1;
                        batch.record(slot, &examples[ei], outcome);
                    }
                    None => {
                        misses += 1;
                        batch.pending[slot].push(ei);
                    }
                }
            }
        }
        if self.cache_coverage {
            EngineStats::add(&self.metrics.cache_hits, hits);
            EngineStats::add(&self.metrics.cache_misses, misses);
        }

        if let Some(stage) = shared {
            let settled = stage(&batch.unique, &mut batch.pending);
            self.absorb(&mut batch, examples, &settled, None);
        }
        let pairs: Vec<(usize, usize)> = batch
            .pending
            .iter()
            .enumerate()
            .flat_map(|(slot, exs)| exs.iter().map(move |&ei| (slot, ei)))
            .collect();
        if !pairs.is_empty() {
            let outcomes = self.evaluate_pairs(tester, &batch.unique, examples, &pairs);
            let settled: Vec<(usize, usize, CoverageOutcome)> = pairs
                .iter()
                .zip(outcomes)
                .map(|(&(slot, ei), outcome)| (slot, ei, outcome))
                .collect();
            let scope = narrow_scope(scope, tester.exhaustion_scope());
            self.absorb(&mut batch, examples, &settled, scope);
        }
        batch
    }

    /// Evaluates a flat `(slot, example index)` work list, on the pool when
    /// it is large enough. Testers bump `coverage_tests`/`budget_exhausted`
    /// themselves.
    fn evaluate_pairs<T: CoverageTester>(
        &self,
        tester: &T,
        unique: &[&Clause],
        examples: &[Tuple],
        pairs: &[(usize, usize)],
    ) -> Vec<CoverageOutcome> {
        if self.pool.size() > 1 && pairs.len() >= PARALLEL_THRESHOLD {
            let examples = Arc::new(examples.to_vec());
            let pairs = Arc::new(pairs.to_vec());
            let task = tester.pair_task(unique, &examples, &pairs);
            self.pool.map_indices(pairs.len(), task)
        } else {
            pairs
                .iter()
                .map(|&(slot, ei)| tester.test(unique[slot], &examples[ei]))
                .collect()
        }
    }

    /// Writes settled `(slot, example index, outcome)` verdicts back to the
    /// memo cache under `scope` (grouped per clause, one lock each) and
    /// folds them into the batch.
    fn absorb(
        &self,
        batch: &mut BatchPrep<'_>,
        examples: &[Tuple],
        settled: &[(usize, usize, CoverageOutcome)],
        scope: Option<usize>,
    ) {
        if self.cache_coverage {
            let mut by_slot: Vec<Vec<(Tuple, CoverageOutcome)>> =
                vec![Vec::new(); batch.unique.len()];
            for &(slot, ei, outcome) in settled {
                by_slot[slot].push((examples[ei].clone(), outcome));
            }
            for (slot, outcomes) in by_slot.into_iter().enumerate() {
                if !outcomes.is_empty() {
                    self.cache.insert_many(batch.unique[slot], outcomes, scope);
                }
            }
        }
        for &(slot, ei, outcome) in settled {
            batch.record(slot, &examples[ei], outcome);
        }
    }
}

/// The state of one `CoverageRuntime::run` pass: the unique canonical
/// clauses (also their cache keys), the mapping from the caller's clause
/// order onto them, the known coverage and exhaustion count per clause,
/// and the (slot → example indices) work still to evaluate.
pub(crate) struct BatchPrep<'c> {
    unique: Vec<&'c Clause>,
    slot_of: Vec<usize>,
    covered: Vec<HashSet<Tuple>>,
    exhausted: Vec<usize>,
    pending: Vec<Vec<usize>>,
}

impl BatchPrep<'_> {
    /// Folds one settled verdict into its slot.
    fn record(&mut self, slot: usize, example: &Tuple, outcome: CoverageOutcome) {
        match outcome {
            CoverageOutcome::Covered => {
                self.covered[slot].insert(example.clone());
            }
            CoverageOutcome::Exhausted => self.exhausted[slot] += 1,
            CoverageOutcome::NotCovered => {}
        }
    }

    /// Maps the per-slot covered sets back onto the caller's clause order,
    /// moving each set out on its last use.
    pub(crate) fn into_sets(self) -> Vec<HashSet<Tuple>> {
        let BatchPrep {
            slot_of,
            mut covered,
            ..
        } = self;
        let mut uses = vec![0usize; covered.len()];
        for &slot in &slot_of {
            uses[slot] += 1;
        }
        slot_of
            .iter()
            .map(|&slot| {
                uses[slot] -= 1;
                if uses[slot] == 0 {
                    std::mem::take(&mut covered[slot])
                } else {
                    covered[slot].clone()
                }
            })
            .collect()
    }
}

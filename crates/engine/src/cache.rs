//! Memoized coverage results keyed by canonical (variable-renamed) clauses.
//!
//! The covering loop re-scores near-identical candidates constantly: beam
//! search re-evaluates surviving clauses, ARMG produces the same
//! generalization from different parents, and negative reduction tests
//! prefixes that earlier iterations already tested. Clauses that differ
//! only in variable names have identical coverage, so results are cached
//! under a canonical renaming: variables are numbered in first-occurrence
//! order (head first, then body), making any two α-equivalent clauses
//! collide on purpose.
//!
//! The cache also records enough to make the generality order an engine
//! invariant (Section 7.5.4): when a caller declares that clause `C`
//! generalizes clause `P`, every example cached as covered by `P` is
//! covered by `C` without a test.
//!
//! Eviction is LRU over canonical clauses: at capacity the least recently
//! *touched* clause is dropped (reads count as touches), so the hot
//! candidates a covering loop re-scores across iterations survive instead
//! of being wiped by the old clear-at-capacity policy.
//!
//! [`CoverageOutcome::Exhausted`] verdicts get a *budget-aware tier*: an
//! exhaustion is a property of the (clause, example, **budget**) triple, so
//! it is memoized together with the node budget it was observed under and
//! served only to probes running with an equal-or-smaller budget (a search
//! that ran out of `B` nodes certainly runs out of `B' ≤ B`). Probes with a
//! larger budget treat the entry as a miss and re-evaluate; definite
//! verdicts always beat exhaustions on write-back.
//!
//! Exhaustion entries also *expire*: an entry that loses
//! [`EXHAUSTION_STRIKE_LIMIT`] consecutive serve attempts to larger budgets
//! is dropped (counted in [`CoverageCache::exhaustions_evicted`]). A
//! workload that permanently grows its budget would otherwise leave dead
//! `ExhaustedAt` entries behind until whole-clause LRU eviction; any
//! successful serve or write-back refresh resets the strike count.

use crate::fx::FxHashMap;
use castor_logic::{Clause, CoverageOutcome, Term};
use castor_relational::Tuple;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Renames the clause's variables to `_0, _1, ...` in first-occurrence
/// order (head first, then body literals in clause order). α-equivalent
/// clauses map to the same canonical clause; the renaming is a bijection,
/// so equal canonical forms imply isomorphic clauses and therefore equal
/// coverage.
pub fn canonicalize(clause: &Clause) -> Clause {
    let mut names: HashMap<String, String> = HashMap::new();
    let mut rename = |atom: &castor_logic::Atom| castor_logic::Atom {
        relation: atom.relation.clone(),
        terms: atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(name) => {
                    let next = names.len();
                    Term::Var(
                        names
                            .entry(name.clone())
                            .or_insert_with(|| format!("_{next}"))
                            .clone(),
                    )
                }
                Term::Const(_) => t.clone(),
            })
            .collect(),
    };
    let head = rename(&clause.head);
    let body = clause.body.iter().map(&mut rename).collect();
    Clause { head, body }
}

/// Consecutive failed serve attempts (probes with a larger budget) after
/// which an exhaustion entry is dropped — the ROADMAP budget-tier eviction
/// policy. A successful serve or a write-back refresh resets the count.
pub const EXHAUSTION_STRIKE_LIMIT: u8 = 3;

/// One memoized verdict. Definite verdicts are budget-independent;
/// exhaustions remember the node budget they were observed under plus how
/// many consecutive probes they failed to answer (the eviction strikes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CachedVerdict {
    /// The clause covers the example (budget-independent).
    Covered,
    /// The clause does not cover the example (budget-independent).
    NotCovered,
    /// The search exhausted a budget of `budget` nodes; servable to any
    /// probe with an equal-or-smaller budget. `strikes` counts consecutive
    /// failed serves to larger budgets (see [`EXHAUSTION_STRIKE_LIMIT`]).
    ExhaustedAt { budget: usize, strikes: u8 },
}

impl CachedVerdict {
    /// The verdict to store for `outcome`, or `None` when it must not be
    /// memoized (an exhaustion with no comparable budget scope — e.g. a
    /// cancellation-driven abort).
    fn admit(outcome: CoverageOutcome, scope: Option<usize>) -> Option<CachedVerdict> {
        match outcome {
            CoverageOutcome::Covered => Some(CachedVerdict::Covered),
            CoverageOutcome::NotCovered => Some(CachedVerdict::NotCovered),
            CoverageOutcome::Exhausted => {
                scope.map(|budget| CachedVerdict::ExhaustedAt { budget, strikes: 0 })
            }
        }
    }
}

/// A memoized verdict together with the schema variant that proved it.
/// Variant ids are issued by the engine's cache arena; a cache used by a
/// single engine runs entirely at variant 0. Definite verdicts are schema-
/// invariant (the arena keys clauses by their canonical-schema image, and
/// coverage is preserved by the definition mapping δτ), so they are served
/// across variants; exhaustions are artifacts of one variant's plan and
/// node accounting, so they are confined to the variant that observed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stored {
    verdict: CachedVerdict,
    source: u16,
}

/// What one cache probe produced: the servable outcome, whether a dead
/// exhaustion entry was struck out, and whether the serve crossed schema
/// variants (a definite verdict proven by a different variant).
struct Served {
    outcome: Option<CoverageOutcome>,
    evicted: bool,
    cross: bool,
}

/// One cached clause: its per-example outcomes plus the recency stamp the
/// LRU order is kept under.
#[derive(Debug, Default)]
struct CacheSlot {
    outcomes: FxHashMap<Tuple, Stored>,
    stamp: u64,
}

impl CacheSlot {
    /// Merges one observed verdict into the slot. Definite verdicts always
    /// win over exhaustions and are never downgraded (the first definite
    /// prover keeps the credit). Of two same-variant exhaustions the larger
    /// observed budget is kept (it answers more probes) and the refresh
    /// resets the eviction strikes; an exhaustion observed by a *different*
    /// variant replaces the entry outright — budgets under different
    /// variants' plans are not comparable, so the latest writer wins.
    fn absorb(&mut self, example: Tuple, verdict: CachedVerdict, source: u16) {
        match self.outcomes.entry(example) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let stored = e.get_mut();
                match (stored.verdict, verdict) {
                    (
                        CachedVerdict::ExhaustedAt { budget: old, .. },
                        CachedVerdict::ExhaustedAt { budget: new, .. },
                    ) => {
                        if stored.source == source {
                            stored.verdict = CachedVerdict::ExhaustedAt {
                                budget: old.max(new),
                                strikes: 0,
                            };
                        } else {
                            *stored = Stored { verdict, source };
                        }
                    }
                    (CachedVerdict::ExhaustedAt { .. }, definite) => {
                        *stored = Stored {
                            verdict: definite,
                            source,
                        };
                    }
                    // A definite verdict is never downgraded.
                    (_, _) => {}
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Stored { verdict, source });
            }
        }
    }

    /// Serves one example's verdict to a probe from `variant` under its
    /// exhaustion `scope`, applying the budget-tier eviction policy: a
    /// same-variant probe with a larger budget than a cached exhaustion is
    /// a *strike*, and an entry that collects [`EXHAUSTION_STRIKE_LIMIT`]
    /// consecutive strikes is removed on the spot. Probes with no
    /// comparable budget (`scope == None`) neither serve nor strike
    /// exhaustions; neither do probes from a different variant (a foreign
    /// exhaustion is a plain miss — the entry stays for its owner).
    fn serve_tracked(&mut self, example: &Tuple, scope: Option<usize>, variant: u16) -> Served {
        let miss = Served {
            outcome: None,
            evicted: false,
            cross: false,
        };
        let Some(stored) = self.outcomes.get_mut(example) else {
            return miss;
        };
        let cross = stored.source != variant;
        match &mut stored.verdict {
            CachedVerdict::Covered => Served {
                outcome: Some(CoverageOutcome::Covered),
                evicted: false,
                cross,
            },
            CachedVerdict::NotCovered => Served {
                outcome: Some(CoverageOutcome::NotCovered),
                evicted: false,
                cross,
            },
            CachedVerdict::ExhaustedAt { .. } if cross => miss,
            CachedVerdict::ExhaustedAt { budget, strikes } => match scope {
                Some(probe) if probe <= *budget => {
                    *strikes = 0;
                    Served {
                        outcome: Some(CoverageOutcome::Exhausted),
                        evicted: false,
                        cross: false,
                    }
                }
                Some(_) => {
                    *strikes += 1;
                    if *strikes >= EXHAUSTION_STRIKE_LIMIT {
                        self.outcomes.remove(example);
                        Served {
                            outcome: None,
                            evicted: true,
                            cross: false,
                        }
                    } else {
                        miss
                    }
                }
                None => miss,
            },
        }
    }
}

/// The lock-guarded cache state: clause slots plus a recency index mapping
/// stamps back to clauses (stamps are unique, so the index is a total LRU
/// order with O(log n) touches and evictions). Keys are `Arc`-shared
/// between the two maps, so a touch on the hot read path moves a pointer —
/// it never deep-clones a clause while holding the lock.
#[derive(Debug, Default)]
struct CacheInner {
    slots: FxHashMap<Arc<Clause>, CacheSlot>,
    recency: BTreeMap<u64, Arc<Clause>>,
    clock: u64,
}

impl CacheInner {
    /// Marks `canonical` as most recently used (no-op when absent).
    fn touch(&mut self, canonical: &Clause) {
        let Some((key, slot)) = self.slots.get_key_value(canonical) else {
            return;
        };
        let key = Arc::clone(key);
        let old_stamp = slot.stamp;
        self.recency.remove(&old_stamp);
        self.clock += 1;
        let stamp = self.clock;
        self.recency.insert(stamp, key);
        if let Some(slot) = self.slots.get_mut(canonical) {
            slot.stamp = stamp;
        }
    }

    /// Evicts least-recently-used clauses until at most `capacity` remain.
    fn evict_to(&mut self, capacity: usize) {
        while self.slots.len() > capacity {
            let Some((_, oldest)) = self.recency.pop_first() else {
                break;
            };
            self.slots.remove(oldest.as_ref());
        }
    }
}

/// A thread-safe memo table from (canonical clause, example) to the cached
/// coverage outcome. Bounded: at capacity the least-recently-used clause is
/// evicted, so candidates that keep being re-scored across covering
/// iterations stay resident while one-shot candidates age out.
#[derive(Debug)]
pub struct CoverageCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    /// Exhaustion entries dropped by the budget-tier eviction policy.
    evicted: std::sync::atomic::AtomicUsize,
}

impl CoverageCache {
    /// Creates a cache holding at most `capacity` distinct clauses.
    pub fn new(capacity: usize) -> Self {
        CoverageCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            evicted: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Exhaustion entries dropped so far because they lost
    /// [`EXHAUSTION_STRIKE_LIMIT`] consecutive serve attempts to
    /// larger-budget probes.
    pub fn exhaustions_evicted(&self) -> usize {
        self.evicted.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Removes `canonical`'s slot entirely when serving emptied it (its
    /// last exhaustion entry was struck out), keeping the recency index in
    /// lock-step; otherwise touches it when `served` answered something.
    fn settle_slot(&self, inner: &mut CacheInner, canonical: &Clause, served: bool) {
        let Some(slot) = inner.slots.get(canonical) else {
            return;
        };
        if slot.outcomes.is_empty() {
            let stamp = slot.stamp;
            inner.slots.remove(canonical);
            inner.recency.remove(&stamp);
        } else if served {
            inner.touch(canonical);
        }
    }

    /// The cached outcome for `(canonical, example)` servable under the
    /// probe's exhaustion `scope` (its node budget, or `None` when
    /// exhaustions are not comparable — see the module docs), if any. A hit
    /// counts as a use in the LRU order; a failed serve of an exhaustion to
    /// a larger budget counts an eviction strike.
    pub fn get(
        &self,
        canonical: &Clause,
        example: &Tuple,
        scope: Option<usize>,
    ) -> Option<CoverageOutcome> {
        self.get_from(canonical, example, scope, 0).0
    }

    /// [`CoverageCache::get`] for a probe from schema variant `variant`:
    /// returns the outcome plus whether the serve crossed variants (a
    /// definite verdict proven by a different variant — the cross-variant
    /// reuse the arena keying exists for). Exhaustions are never served
    /// across variants and foreign probes never strike them.
    pub fn get_from(
        &self,
        canonical: &Clause,
        example: &Tuple,
        scope: Option<usize>,
        variant: u16,
    ) -> (Option<CoverageOutcome>, bool) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Some(slot) = inner.slots.get_mut(canonical) else {
            return (None, false);
        };
        let served = slot.serve_tracked(example, scope, variant);
        if served.evicted {
            self.evicted
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        self.settle_slot(&mut inner, canonical, served.outcome.is_some());
        (served.outcome, served.cross && served.outcome.is_some())
    }

    /// Records an outcome for `(canonical, example)` observed under the
    /// exhaustion `scope`.
    pub fn insert(
        &self,
        canonical: &Clause,
        example: &Tuple,
        outcome: CoverageOutcome,
        scope: Option<usize>,
    ) {
        self.insert_many(
            canonical,
            std::iter::once((example.clone(), outcome)),
            scope,
        );
    }

    /// Records a batch of outcomes for one clause under a single lock.
    ///
    /// Definite verdicts are memoized unconditionally.
    /// [`CoverageOutcome::Exhausted`] verdicts are memoized *keyed by the
    /// budget they were observed under* (`scope`) and later served only to
    /// probes with an equal-or-smaller budget; with `scope = None` (no
    /// comparable budget — e.g. a cancellation token is installed, which
    /// aborts searches through the exhaustion path) they are dropped, so
    /// cancellation pollution stays impossible.
    pub fn insert_many<I>(&self, canonical: &Clause, outcomes: I, scope: Option<usize>)
    where
        I: IntoIterator<Item = (Tuple, CoverageOutcome)>,
    {
        self.insert_many_from(canonical, outcomes, scope, 0);
    }

    /// [`CoverageCache::insert_many`] with the writing schema variant
    /// recorded as each verdict's source alongside the stored outcome.
    pub fn insert_many_from<I>(
        &self,
        canonical: &Clause,
        outcomes: I,
        scope: Option<usize>,
        variant: u16,
    ) where
        I: IntoIterator<Item = (Tuple, CoverageOutcome)>,
    {
        let verdicts: Vec<(Tuple, CachedVerdict)> = outcomes
            .into_iter()
            .filter_map(|(example, outcome)| {
                CachedVerdict::admit(outcome, scope).map(|v| (example, v))
            })
            .collect();
        if verdicts.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.slots.get_mut(canonical) {
            Some(slot) => {
                for (example, verdict) in verdicts {
                    slot.absorb(example, verdict, variant);
                }
            }
            None => {
                // The only place a clause key is ever cloned: first insert.
                let mut slot = CacheSlot::default();
                for (example, verdict) in verdicts {
                    slot.absorb(example, verdict, variant);
                }
                inner.slots.insert(Arc::new(canonical.clone()), slot);
            }
        }
        inner.touch(canonical);
        // The just-inserted clause holds the freshest stamp, so it can never
        // evict itself.
        inner.evict_to(self.capacity);
    }

    /// Cached outcomes for a whole batch of examples under one lock (and
    /// one hashing of the clause key) — the covering loop re-scores the
    /// same candidate over many examples, so per-example locking dominates
    /// the hit path otherwise.
    pub fn get_batch(
        &self,
        canonical: &Clause,
        examples: &[Tuple],
        scope: Option<usize>,
    ) -> Vec<Option<CoverageOutcome>> {
        self.get_batch_multi(std::slice::from_ref(canonical), examples, scope)
            .pop()
            .expect("one clause in, one row out")
    }

    /// [`CoverageCache::get_batch`] for a probe from schema variant
    /// `variant`; additionally returns how many serves crossed variants.
    pub fn get_batch_from(
        &self,
        canonical: &Clause,
        examples: &[Tuple],
        scope: Option<usize>,
        variant: u16,
    ) -> (Vec<Option<CoverageOutcome>>, usize) {
        let (mut rows, cross) =
            self.get_batch_multi_from(std::slice::from_ref(canonical), examples, scope, variant);
        (rows.pop().expect("one clause in, one row out"), cross)
    }

    /// Cached outcomes for a whole batch of clauses × examples under a
    /// single lock — the beam-evaluation entry point: one memo probe per
    /// beam instead of one per candidate.
    pub fn get_batch_multi(
        &self,
        canonicals: &[Clause],
        examples: &[Tuple],
        scope: Option<usize>,
    ) -> Vec<Vec<Option<CoverageOutcome>>> {
        self.get_batch_multi_from(canonicals, examples, scope, 0).0
    }

    /// [`CoverageCache::get_batch_multi`] for a probe from schema variant
    /// `variant`; additionally returns how many serves crossed variants.
    pub fn get_batch_multi_from(
        &self,
        canonicals: &[Clause],
        examples: &[Tuple],
        scope: Option<usize>,
        variant: u16,
    ) -> (Vec<Vec<Option<CoverageOutcome>>>, usize) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut cross_hits = 0usize;
        let rows = canonicals
            .iter()
            .map(|canonical| match inner.slots.get_mut(canonical) {
                None => vec![None; examples.len()],
                Some(slot) => {
                    let mut evictions = 0usize;
                    let row: Vec<Option<CoverageOutcome>> = examples
                        .iter()
                        .map(|e| {
                            let served = slot.serve_tracked(e, scope, variant);
                            evictions += served.evicted as usize;
                            cross_hits += (served.cross && served.outcome.is_some()) as usize;
                            served.outcome
                        })
                        .collect();
                    if evictions > 0 {
                        self.evicted
                            .fetch_add(evictions, std::sync::atomic::Ordering::Relaxed);
                    }
                    self.settle_slot(&mut inner, canonical, row.iter().any(Option::is_some));
                    row
                }
            })
            .collect();
        (rows, cross_hits)
    }

    /// The examples from `examples` cached as covered by `canonical` —
    /// the generality-order shortcut: callers pass a *parent* clause here
    /// and skip testing these examples on its generalizations.
    pub fn covered_subset(&self, canonical: &Clause, examples: &[Tuple]) -> Vec<Tuple> {
        self.covered_subset_from(canonical, examples, 0).0
    }

    /// [`CoverageCache::covered_subset`] for a probe from schema variant
    /// `variant`; additionally returns how many of the served verdicts were
    /// proven by a different variant. Covered verdicts are definite and
    /// therefore schema-invariant under the arena keying, so the subset
    /// itself is the same for every variant.
    pub fn covered_subset_from(
        &self,
        canonical: &Clause,
        examples: &[Tuple],
        variant: u16,
    ) -> (Vec<Tuple>, usize) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Some(slot) = inner.slots.get(canonical) else {
            return (Vec::new(), 0);
        };
        let mut cross_hits = 0usize;
        let covered: Vec<Tuple> = examples
            .iter()
            .filter(|e| match slot.outcomes.get(*e) {
                Some(stored) if stored.verdict == CachedVerdict::Covered => {
                    cross_hits += (stored.source != variant) as usize;
                    true
                }
                _ => false,
            })
            .cloned()
            .collect();
        if !covered.is_empty() {
            inner.touch(canonical);
        }
        (covered, cross_hits)
    }

    /// Drops every cached clause that references one of `relations` (in its
    /// head or body), returning how many clauses were dropped. This is the
    /// mutation-invalidation hook: after a batch changes a relation's
    /// contents, only coverage results of clauses that actually read that
    /// relation are stale — everything else stays resident.
    pub fn invalidate_relations(&self, relations: &std::collections::BTreeSet<String>) -> usize {
        if relations.is_empty() {
            return 0;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let stale: Vec<Arc<Clause>> = inner
            .slots
            .keys()
            .filter(|clause| {
                relations.contains(&clause.head.relation)
                    || clause
                        .body
                        .iter()
                        .any(|atom| relations.contains(&atom.relation))
            })
            .cloned()
            .collect();
        for key in &stale {
            if let Some(slot) = inner.slots.remove(key.as_ref()) {
                inner.recency.remove(&slot.stamp);
            }
        }
        stale.len()
    }

    /// Drops every cached result (administrative reset).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.slots.clear();
        inner.recency.clear();
    }

    /// Number of distinct clauses currently cached.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .slots
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for CoverageCache {
    fn default() -> Self {
        CoverageCache::new(16_384)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_logic::Atom;

    fn clause(x: &str, y: &str, p: &str) -> Clause {
        Clause::new(
            Atom::vars("collaborated", &[x, y]),
            vec![
                Atom::vars("publication", &[p, x]),
                Atom::vars("publication", &[p, y]),
            ],
        )
    }

    #[test]
    fn alpha_equivalent_clauses_share_a_key() {
        let a = canonicalize(&clause("x", "y", "p"));
        let b = canonicalize(&clause("u", "v", "w"));
        assert_eq!(a, b);
    }

    #[test]
    fn different_structure_keeps_distinct_keys() {
        let a = canonicalize(&clause("x", "y", "p"));
        // Same variable in both head positions is a different clause.
        let b = canonicalize(&clause("x", "x", "p"));
        assert_ne!(a, b);
    }

    #[test]
    fn constants_survive_canonicalization() {
        let c = Clause::new(
            Atom::vars("t", &["x"]),
            vec![Atom::new("r", vec![Term::var("x"), Term::constant("k")])],
        );
        let canon = canonicalize(&c);
        assert_eq!(canon.body[0].terms[1], Term::constant("k"));
    }

    #[test]
    fn cache_roundtrip_and_covered_subset() {
        let cache = CoverageCache::default();
        let key = canonicalize(&clause("x", "y", "p"));
        let e1 = Tuple::from_strs(&["ann", "bob"]);
        let e2 = Tuple::from_strs(&["ann", "carol"]);
        cache.insert(&key, &e1, CoverageOutcome::Covered, None);
        cache.insert(&key, &e2, CoverageOutcome::NotCovered, None);
        assert_eq!(cache.get(&key, &e1, None), Some(CoverageOutcome::Covered));
        assert_eq!(
            cache.get(&key, &e2, None),
            Some(CoverageOutcome::NotCovered)
        );
        assert_eq!(
            cache.covered_subset(&key, &[e1.clone(), e2.clone()]),
            vec![e1]
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_overflow_evicts_instead_of_growing() {
        let cache = CoverageCache::new(2);
        let e = Tuple::from_strs(&["a", "b"]);
        for i in 0..5 {
            let key = canonicalize(&Clause::new(
                Atom::vars(format!("t{i}"), &["x", "y"]),
                vec![],
            ));
            cache.insert(&key, &e, CoverageOutcome::Covered, None);
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_keeps_hot_clauses() {
        let cache = CoverageCache::new(2);
        let e = Tuple::from_strs(&["a", "b"]);
        let key_of = |name: &str| canonicalize(&Clause::new(Atom::vars(name, &["x", "y"]), vec![]));
        let hot = key_of("hot");
        cache.insert(&hot, &e, CoverageOutcome::Covered, None);
        // Keep touching the hot clause while cold clauses stream through.
        for i in 0..6 {
            cache.insert(
                &key_of(&format!("cold{i}")),
                &e,
                CoverageOutcome::NotCovered,
                None,
            );
            assert_eq!(
                cache.get(&hot, &e, None),
                Some(CoverageOutcome::Covered),
                "hot clause evicted after cold{i}"
            );
        }
        // The most recent cold clause survived; earlier ones were evicted.
        assert_eq!(
            cache.get(&key_of("cold5"), &e, None),
            Some(CoverageOutcome::NotCovered)
        );
        assert_eq!(cache.get(&key_of("cold0"), &e, None), None);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn exhausted_verdicts_are_never_memoized() {
        let cache = CoverageCache::default();
        let key = canonicalize(&clause("x", "y", "p"));
        let e1 = Tuple::from_strs(&["ann", "bob"]);
        let e2 = Tuple::from_strs(&["ann", "carol"]);
        cache.insert(&key, &e1, CoverageOutcome::Exhausted, None);
        // An all-exhausted first insert must not even create the slot.
        assert!(cache.is_empty());
        cache.insert_many(
            &key,
            [
                (e1.clone(), CoverageOutcome::Covered),
                (e2.clone(), CoverageOutcome::Exhausted),
            ],
            None,
        );
        assert_eq!(cache.get(&key, &e1, None), Some(CoverageOutcome::Covered));
        assert_eq!(cache.get(&key, &e2, None), None);
    }

    #[test]
    fn invalidation_targets_only_clauses_reading_the_relation() {
        let cache = CoverageCache::default();
        let e = Tuple::from_strs(&["ann", "bob"]);
        let pub_clause = canonicalize(&clause("x", "y", "p"));
        let other = canonicalize(&Clause::new(
            Atom::vars("t", &["x"]),
            vec![Atom::vars("unrelated", &["x"])],
        ));
        cache.insert(&pub_clause, &e, CoverageOutcome::Covered, None);
        cache.insert(&other, &e, CoverageOutcome::Covered, None);
        let mutated: std::collections::BTreeSet<String> =
            ["publication".to_string()].into_iter().collect();
        assert_eq!(cache.invalidate_relations(&mutated), 1);
        assert_eq!(cache.get(&pub_clause, &e, None), None);
        assert_eq!(cache.get(&other, &e, None), Some(CoverageOutcome::Covered));
        // Dropped clauses leave no recency residue: filling to capacity
        // still evicts correctly.
        assert_eq!(cache.invalidate_relations(&mutated), 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn exhaustions_are_served_to_equal_or_smaller_budgets_only() {
        let cache = CoverageCache::default();
        let key = canonicalize(&clause("x", "y", "p"));
        let e = Tuple::from_strs(&["ann", "bob"]);
        // Observed under a 100-node budget.
        cache.insert(&key, &e, CoverageOutcome::Exhausted, Some(100));
        // Equal and smaller budgets are served the exhaustion...
        assert_eq!(
            cache.get(&key, &e, Some(100)),
            Some(CoverageOutcome::Exhausted)
        );
        assert_eq!(
            cache.get(&key, &e, Some(10)),
            Some(CoverageOutcome::Exhausted)
        );
        // ...a larger budget (or an incomparable probe) re-evaluates.
        assert_eq!(cache.get(&key, &e, Some(101)), None);
        assert_eq!(cache.get(&key, &e, None), None);
        // A batched read honors the same tier.
        let row = cache.get_batch(&key, std::slice::from_ref(&e), Some(50));
        assert_eq!(row[0], Some(CoverageOutcome::Exhausted));
        let row = cache.get_batch(&key, std::slice::from_ref(&e), Some(500));
        assert_eq!(row[0], None);
    }

    #[test]
    fn exhaustion_entries_upgrade_but_never_downgrade() {
        let cache = CoverageCache::default();
        let key = canonicalize(&clause("x", "y", "p"));
        let e = Tuple::from_strs(&["ann", "bob"]);
        cache.insert(&key, &e, CoverageOutcome::Exhausted, Some(10));
        // A later, larger-budget exhaustion widens the servable range.
        cache.insert(&key, &e, CoverageOutcome::Exhausted, Some(100));
        assert_eq!(
            cache.get(&key, &e, Some(50)),
            Some(CoverageOutcome::Exhausted)
        );
        // A definite verdict replaces the exhaustion outright...
        cache.insert(&key, &e, CoverageOutcome::Covered, Some(1_000));
        assert_eq!(cache.get(&key, &e, Some(5)), Some(CoverageOutcome::Covered));
        // ...and is never downgraded back to an exhaustion.
        cache.insert(&key, &e, CoverageOutcome::Exhausted, Some(7));
        assert_eq!(cache.get(&key, &e, Some(7)), Some(CoverageOutcome::Covered));
        assert_eq!(cache.get(&key, &e, None), Some(CoverageOutcome::Covered));
    }

    #[test]
    fn budget_growing_workload_evicts_dead_exhaustions() {
        // Regression for the ROADMAP budget-tier eviction policy: a
        // workload that upgrades its budget forever used to leave dead
        // `ExhaustedAt` entries behind until whole-clause LRU eviction.
        let cache = CoverageCache::default();
        let key = canonicalize(&clause("x", "y", "p"));
        let examples: Vec<Tuple> = (0..4)
            .map(|i| Tuple::from_strs(&[&format!("a{i}"), "b"]))
            .collect();
        for e in &examples {
            cache.insert(&key, e, CoverageOutcome::Exhausted, Some(10));
        }
        assert_eq!(cache.len(), 1);
        // Three rounds of probes under ever-larger budgets (each a failed
        // serve, with no write-back — e.g. the evaluations were cancelled
        // mid-flight): the entries are struck out on the third round.
        for (round, budget) in [20usize, 40, 80].iter().enumerate() {
            for e in &examples {
                assert_eq!(cache.get(&key, e, Some(*budget)), None);
            }
            let expected = if round + 1 >= EXHAUSTION_STRIKE_LIMIT as usize {
                examples.len()
            } else {
                0
            };
            assert_eq!(cache.exhaustions_evicted(), expected, "round {round}");
        }
        // Nothing is left, not even for the budgets the entries answered.
        assert_eq!(cache.get(&key, &examples[0], Some(5)), None);
        assert!(cache.is_empty(), "slot emptied by eviction must be removed");
        // Recency left no residue: the cache still fills and evicts sanely.
        let e = Tuple::from_strs(&["x", "y"]);
        cache.insert(&key, &e, CoverageOutcome::Covered, None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn successful_serves_reset_eviction_strikes() {
        let cache = CoverageCache::default();
        let key = canonicalize(&clause("x", "y", "p"));
        let e = Tuple::from_strs(&["ann", "bob"]);
        cache.insert(&key, &e, CoverageOutcome::Exhausted, Some(100));
        // Two strikes...
        assert_eq!(cache.get(&key, &e, Some(200)), None);
        assert_eq!(cache.get(&key, &e, Some(300)), None);
        // ...then a successful smaller-budget serve resets the count...
        assert_eq!(
            cache.get(&key, &e, Some(50)),
            Some(CoverageOutcome::Exhausted)
        );
        // ...so two more failed serves still do not evict.
        assert_eq!(cache.get(&key, &e, Some(200)), None);
        assert_eq!(cache.get(&key, &e, Some(200)), None);
        assert_eq!(cache.exhaustions_evicted(), 0);
        assert_eq!(
            cache.get(&key, &e, Some(100)),
            Some(CoverageOutcome::Exhausted)
        );
        // An incomparable probe (scope None) is not a strike either.
        cache.get(&key, &e, None);
        cache.get(&key, &e, Some(200));
        cache.get(&key, &e, Some(200));
        assert_eq!(cache.exhaustions_evicted(), 0);
        // A write-back refresh (budget upgrade) also resets the count.
        cache.insert(&key, &e, CoverageOutcome::Exhausted, Some(150));
        cache.get(&key, &e, Some(200));
        cache.get(&key, &e, Some(200));
        assert_eq!(cache.exhaustions_evicted(), 0);
        assert_eq!(
            cache.get(&key, &e, Some(150)),
            Some(CoverageOutcome::Exhausted)
        );
    }

    #[test]
    fn batched_reads_strike_and_evict_exhaustions_too() {
        let cache = CoverageCache::default();
        let key = canonicalize(&clause("x", "y", "p"));
        let e1 = Tuple::from_strs(&["ann", "bob"]);
        let e2 = Tuple::from_strs(&["ann", "carol"]);
        cache.insert_many(
            &key,
            [
                (e1.clone(), CoverageOutcome::Exhausted),
                (e2.clone(), CoverageOutcome::Covered),
            ],
            Some(10),
        );
        for _ in 0..EXHAUSTION_STRIKE_LIMIT {
            let row = cache.get_batch(&key, &[e1.clone(), e2.clone()], Some(999));
            assert_eq!(row[0], None);
            assert_eq!(row[1], Some(CoverageOutcome::Covered));
        }
        assert_eq!(cache.exhaustions_evicted(), 1);
        // The definite verdict survives; the struck exhaustion is gone even
        // for budgets it used to answer.
        assert_eq!(cache.get(&key, &e1, Some(5)), None);
        assert_eq!(
            cache.get(&key, &e2, Some(5)),
            Some(CoverageOutcome::Covered)
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn batch_reads_touch_the_lru_order() {
        let cache = CoverageCache::new(2);
        let e = Tuple::from_strs(&["a", "b"]);
        let key_of = |name: &str| canonicalize(&Clause::new(Atom::vars(name, &["x", "y"]), vec![]));
        let (a, b) = (key_of("a"), key_of("b"));
        cache.insert(&a, &e, CoverageOutcome::Covered, None);
        cache.insert(&b, &e, CoverageOutcome::Covered, None);
        // Touch `a` through the multi-clause read path, then overflow: `b`
        // must be the eviction victim.
        let rows = cache.get_batch_multi(std::slice::from_ref(&a), std::slice::from_ref(&e), None);
        assert_eq!(rows[0][0], Some(CoverageOutcome::Covered));
        cache.insert(&key_of("c"), &e, CoverageOutcome::Covered, None);
        assert!(cache.get(&a, &e, None).is_some());
        assert!(cache.get(&b, &e, None).is_none());
    }
}

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
//! verdicts always beat exhaustions on write-back, and a larger-budget
//! exhaustion widens the stored one.

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

/// One memoized verdict. Definite verdicts are budget-independent;
/// exhaustions remember the node budget they were observed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CachedVerdict {
    /// The clause covers the example (budget-independent).
    Covered,
    /// The clause does not cover the example (budget-independent).
    NotCovered,
    /// The search exhausted a budget of `budget` nodes; servable to any
    /// probe with an equal-or-smaller budget.
    ExhaustedAt { budget: usize },
}

impl CachedVerdict {
    /// The verdict to store for `outcome`, or `None` when it must not be
    /// memoized (an exhaustion with no comparable budget scope — e.g. a
    /// cancellation-driven abort).
    fn admit(outcome: CoverageOutcome, scope: Option<usize>) -> Option<CachedVerdict> {
        match outcome {
            CoverageOutcome::Covered => Some(CachedVerdict::Covered),
            CoverageOutcome::NotCovered => Some(CachedVerdict::NotCovered),
            CoverageOutcome::Exhausted => scope.map(|budget| CachedVerdict::ExhaustedAt { budget }),
        }
    }
}

/// One cached clause: its per-example outcomes plus the recency stamp the
/// LRU order is kept under.
#[derive(Debug, Default)]
struct CacheSlot {
    outcomes: FxHashMap<Tuple, CachedVerdict>,
    stamp: u64,
}

impl CacheSlot {
    /// Merges one observed verdict into the slot. Definite verdicts always
    /// win over exhaustions and are never downgraded. Of two exhaustions the
    /// larger observed budget is kept (it answers more probes).
    fn absorb(&mut self, example: Tuple, verdict: CachedVerdict) {
        match self.outcomes.entry(example) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let stored = e.get_mut();
                match (*stored, verdict) {
                    (
                        CachedVerdict::ExhaustedAt { budget: old },
                        CachedVerdict::ExhaustedAt { budget: new },
                    ) => {
                        *stored = CachedVerdict::ExhaustedAt {
                            budget: old.max(new),
                        };
                    }
                    (CachedVerdict::ExhaustedAt { .. }, definite) => *stored = definite,
                    // A definite verdict is never downgraded.
                    (_, _) => {}
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(verdict);
            }
        }
    }

    /// Serves one example's verdict to a probe under its exhaustion
    /// `scope`: a cached exhaustion answers only a probe with an
    /// equal-or-smaller budget, and never a probe with no comparable budget
    /// (`scope == None`).
    fn serve(&self, example: &Tuple, scope: Option<usize>) -> Option<CoverageOutcome> {
        match *self.outcomes.get(example)? {
            CachedVerdict::Covered => Some(CoverageOutcome::Covered),
            CachedVerdict::NotCovered => Some(CoverageOutcome::NotCovered),
            CachedVerdict::ExhaustedAt { budget } => scope
                .filter(|&probe| probe <= budget)
                .map(|_| CoverageOutcome::Exhausted),
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
}

impl CoverageCache {
    /// Creates a cache holding at most `capacity` distinct clauses.
    pub fn new(capacity: usize) -> Self {
        CoverageCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
        }
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
                    slot.absorb(example, verdict);
                }
            }
            None => {
                // The only place a clause key is ever cloned: first insert.
                let mut slot = CacheSlot::default();
                for (example, verdict) in verdicts {
                    slot.absorb(example, verdict);
                }
                inner.slots.insert(Arc::new(canonical.clone()), slot);
            }
        }
        inner.touch(canonical);
        // The just-inserted clause holds the freshest stamp, so it can never
        // evict itself.
        inner.evict_to(self.capacity);
    }

    /// Cached outcomes for a whole batch of clauses × examples under a
    /// single lock — one memo probe per batch instead of one per candidate
    /// or example. Each outcome is servable under the probe's exhaustion
    /// `scope` (its node budget, or `None` when exhaustions are not
    /// comparable — see the module docs). A clause that answers anything
    /// counts as a use in the LRU order.
    pub fn get_batch_multi(
        &self,
        canonicals: &[&Clause],
        examples: &[Tuple],
        scope: Option<usize>,
    ) -> Vec<Vec<Option<CoverageOutcome>>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        canonicals
            .iter()
            .map(|&canonical| {
                let Some(slot) = inner.slots.get(canonical) else {
                    return vec![None; examples.len()];
                };
                let row: Vec<Option<CoverageOutcome>> =
                    examples.iter().map(|e| slot.serve(e, scope)).collect();
                if row.iter().any(Option::is_some) {
                    inner.touch(canonical);
                }
                row
            })
            .collect()
    }

    /// The examples from `examples` cached as covered by `canonical` —
    /// the generality-order shortcut: callers pass a *parent* clause here
    /// and skip testing these examples on its generalizations.
    pub fn covered_subset(&self, canonical: &Clause, examples: &[Tuple]) -> Vec<Tuple> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Some(slot) = inner.slots.get(canonical) else {
            return Vec::new();
        };
        let covered: Vec<Tuple> = examples
            .iter()
            .filter(|e| slot.outcomes.get(*e) == Some(&CachedVerdict::Covered))
            .cloned()
            .collect();
        if !covered.is_empty() {
            inner.touch(canonical);
        }
        covered
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

    /// Records one verdict through the batch write path.
    fn record(
        cache: &CoverageCache,
        key: &Clause,
        example: &Tuple,
        outcome: CoverageOutcome,
        scope: Option<usize>,
    ) {
        cache.insert_many(key, [(example.clone(), outcome)], scope);
    }

    /// Probes one (clause, example) pair through the batch read path.
    fn probe(
        cache: &CoverageCache,
        key: &Clause,
        example: &Tuple,
        scope: Option<usize>,
    ) -> Option<CoverageOutcome> {
        cache.get_batch_multi(&[key], std::slice::from_ref(example), scope)[0][0]
    }

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
        record(&cache, &key, &e1, CoverageOutcome::Covered, None);
        record(&cache, &key, &e2, CoverageOutcome::NotCovered, None);
        assert_eq!(
            probe(&cache, &key, &e1, None),
            Some(CoverageOutcome::Covered)
        );
        assert_eq!(
            probe(&cache, &key, &e2, None),
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
            record(&cache, &key, &e, CoverageOutcome::Covered, None);
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_keeps_hot_clauses() {
        let cache = CoverageCache::new(2);
        let e = Tuple::from_strs(&["a", "b"]);
        let key_of = |name: &str| canonicalize(&Clause::new(Atom::vars(name, &["x", "y"]), vec![]));
        let hot = key_of("hot");
        record(&cache, &hot, &e, CoverageOutcome::Covered, None);
        // Keep touching the hot clause while cold clauses stream through.
        for i in 0..6 {
            record(
                &cache,
                &key_of(&format!("cold{i}")),
                &e,
                CoverageOutcome::NotCovered,
                None,
            );
            assert_eq!(
                probe(&cache, &hot, &e, None),
                Some(CoverageOutcome::Covered),
                "hot clause evicted after cold{i}"
            );
        }
        // The most recent cold clause survived; earlier ones were evicted.
        assert_eq!(
            probe(&cache, &key_of("cold5"), &e, None),
            Some(CoverageOutcome::NotCovered)
        );
        assert_eq!(probe(&cache, &key_of("cold0"), &e, None), None);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn exhausted_verdicts_are_never_memoized() {
        let cache = CoverageCache::default();
        let key = canonicalize(&clause("x", "y", "p"));
        let e1 = Tuple::from_strs(&["ann", "bob"]);
        let e2 = Tuple::from_strs(&["ann", "carol"]);
        record(&cache, &key, &e1, CoverageOutcome::Exhausted, None);
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
        assert_eq!(
            probe(&cache, &key, &e1, None),
            Some(CoverageOutcome::Covered)
        );
        assert_eq!(probe(&cache, &key, &e2, None), None);
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
        record(&cache, &pub_clause, &e, CoverageOutcome::Covered, None);
        record(&cache, &other, &e, CoverageOutcome::Covered, None);
        let mutated: std::collections::BTreeSet<String> =
            ["publication".to_string()].into_iter().collect();
        assert_eq!(cache.invalidate_relations(&mutated), 1);
        assert_eq!(probe(&cache, &pub_clause, &e, None), None);
        assert_eq!(
            probe(&cache, &other, &e, None),
            Some(CoverageOutcome::Covered)
        );
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
        record(&cache, &key, &e, CoverageOutcome::Exhausted, Some(100));
        // Equal and smaller budgets are served the exhaustion...
        assert_eq!(
            probe(&cache, &key, &e, Some(100)),
            Some(CoverageOutcome::Exhausted)
        );
        assert_eq!(
            probe(&cache, &key, &e, Some(10)),
            Some(CoverageOutcome::Exhausted)
        );
        // ...a larger budget (or an incomparable probe) re-evaluates.
        assert_eq!(probe(&cache, &key, &e, Some(101)), None);
        assert_eq!(probe(&cache, &key, &e, None), None);
        // A batched read honors the same tier.
        let rows = cache.get_batch_multi(&[&key], &[e.clone(), e.clone()], Some(50));
        assert_eq!(rows[0], vec![Some(CoverageOutcome::Exhausted); 2]);
        let rows = cache.get_batch_multi(&[&key], std::slice::from_ref(&e), Some(500));
        assert_eq!(rows[0][0], None);
    }

    #[test]
    fn exhaustion_entries_upgrade_but_never_downgrade() {
        let cache = CoverageCache::default();
        let key = canonicalize(&clause("x", "y", "p"));
        let e = Tuple::from_strs(&["ann", "bob"]);
        record(&cache, &key, &e, CoverageOutcome::Exhausted, Some(10));
        // A later, larger-budget exhaustion widens the servable range.
        record(&cache, &key, &e, CoverageOutcome::Exhausted, Some(100));
        assert_eq!(
            probe(&cache, &key, &e, Some(50)),
            Some(CoverageOutcome::Exhausted)
        );
        // A definite verdict replaces the exhaustion outright...
        record(&cache, &key, &e, CoverageOutcome::Covered, Some(1_000));
        assert_eq!(
            probe(&cache, &key, &e, Some(5)),
            Some(CoverageOutcome::Covered)
        );
        // ...and is never downgraded back to an exhaustion.
        record(&cache, &key, &e, CoverageOutcome::Exhausted, Some(7));
        assert_eq!(
            probe(&cache, &key, &e, Some(7)),
            Some(CoverageOutcome::Covered)
        );
        assert_eq!(
            probe(&cache, &key, &e, None),
            Some(CoverageOutcome::Covered)
        );
    }

    #[test]
    fn batch_reads_touch_the_lru_order() {
        let cache = CoverageCache::new(2);
        let e = Tuple::from_strs(&["a", "b"]);
        let key_of = |name: &str| canonicalize(&Clause::new(Atom::vars(name, &["x", "y"]), vec![]));
        let (a, b) = (key_of("a"), key_of("b"));
        record(&cache, &a, &e, CoverageOutcome::Covered, None);
        record(&cache, &b, &e, CoverageOutcome::Covered, None);
        // Touch `a` through the multi-clause read path, then overflow: `b`
        // must be the eviction victim.
        let rows = cache.get_batch_multi(&[&a], std::slice::from_ref(&e), None);
        assert_eq!(rows[0][0], Some(CoverageOutcome::Covered));
        record(&cache, &key_of("c"), &e, CoverageOutcome::Covered, None);
        assert!(probe(&cache, &a, &e, None).is_some());
        assert!(probe(&cache, &b, &e, None).is_none());
    }
}

//! Relation instances with per-attribute hash indexes.
//!
//! Bottom-clause construction (Section 6.1 / 7.1 of the paper) repeatedly
//! asks "which tuples of relation `R` contain constant `c`?" and "which
//! tuples of `R` agree with tuple `t` on attribute set `X`?". Both queries
//! are answered from hash indexes maintained on every attribute position,
//! which is the role the in-memory RDBMS (VoltDB) plays in the paper's
//! implementation.

use crate::error::RelationalError;
use crate::fx::FxHashMap;
use crate::relation::RelationSymbol;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Number of most-common values kept per attribute position.
pub const MCV_TARGET: usize = 8;

/// Number of equi-depth histogram buckets kept per attribute position
/// (over the non-MCV remainder of the value distribution).
pub const HISTOGRAM_BUCKET_TARGET: usize = 8;

/// One equi-depth histogram bucket: a run of distinct values (grouped by
/// per-value tuple count) covering roughly `total tuples / bucket count`
/// rows each. Buckets are ordered by ascending per-value count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramBucket {
    /// Total rows covered by the bucket's values.
    pub tuples: usize,
    /// Number of distinct values in the bucket.
    pub distinct: usize,
    /// Largest per-value tuple count inside the bucket.
    pub max_count: usize,
}

impl HistogramBucket {
    /// Average posting-list length inside the bucket.
    pub fn average_count(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            self.tuples as f64 / self.distinct as f64
        }
    }
}

/// Skew-aware statistics for one attribute position: the most common
/// values with their exact counts, an equi-depth histogram over the
/// remaining frequency distribution, and the exact sum of squared counts
/// (the numerator of the frequency-weighted expected-match estimate).
///
/// All fields are derived from the incrementally-maintained per-column
/// frequency sketch, so a snapshot costs O(distinct values) — no data scan
/// — and is bit-identical to one computed over a from-scratch rebuild.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnStatistics {
    /// Number of distinct values at this position.
    pub distinct: usize,
    /// The most common values, count-descending (ties broken by value
    /// order), up to [`MCV_TARGET`] entries.
    pub most_common: Vec<(Value, usize)>,
    /// Equi-depth histogram over the non-MCV remainder, ascending count.
    pub histogram: Vec<HistogramBucket>,
    /// Σ count² over *all* distinct values (MCVs included).
    pub sum_squared_counts: u128,
}

impl ColumnStatistics {
    /// The exact tuple count of `value` if it is one of the most common
    /// values at this position.
    pub fn mcv_count(&self, value: &Value) -> Option<usize> {
        self.most_common
            .iter()
            .find(|(v, _)| v == value)
            .map(|(_, c)| *c)
    }

    /// Total tuples and distinct values covered by the histogram (the
    /// non-MCV remainder of the distribution).
    pub fn histogram_totals(&self) -> (usize, usize) {
        self.histogram
            .iter()
            .fold((0, 0), |(t, d), b| (t + b.tuples, d + b.distinct))
    }

    /// Expected posting-list length for an equality probe whose value is
    /// *not* in the MCV list: the average count over the histogram portion
    /// of the distribution.
    pub fn non_mcv_expected(&self) -> f64 {
        let (tuples, distinct) = self.histogram_totals();
        if distinct == 0 {
            0.0
        } else {
            tuples as f64 / distinct as f64
        }
    }

    /// Expected posting-list length when the probe value is drawn
    /// *frequency-weighted* — the right model for join-bound variables,
    /// where a hub value is exactly as over-represented among probes as it
    /// is among rows: the exact `Σ count² / n`, read off the incrementally
    /// maintained sum of squared counts (the MCV/histogram decomposition
    /// approximates the same quantity; the exact numerator is cheaper and
    /// never wrong on skewed non-MCV tails).
    pub fn expected_matches_weighted(&self, cardinality: usize) -> f64 {
        if cardinality == 0 {
            return 0.0;
        }
        self.sum_squared_counts as f64 / cardinality as f64
    }
}

/// Selectivity statistics for one relation instance, read off the hash
/// indexes and per-column frequency sketches in O(distinct values):
/// cardinality, the number of distinct values per attribute position, and
/// skew-aware per-position [`ColumnStatistics`] (most-common values plus
/// equi-depth histograms). The evaluation engine uses these to choose join
/// orders once per clause instead of re-ranking literals at every
/// backtracking node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationStatistics {
    /// Number of tuples in the instance.
    pub cardinality: usize,
    /// Number of distinct values at each attribute position.
    pub distinct_per_position: Vec<usize>,
    /// Skew-aware statistics per attribute position.
    pub columns: Vec<ColumnStatistics>,
}

impl RelationStatistics {
    /// Expected number of tuples matching an equality selection on `pos`
    /// (cardinality divided by the distinct count; the classic uniform
    /// selectivity estimate).
    pub fn expected_matches(&self, pos: usize) -> f64 {
        match self.distinct_per_position.get(pos) {
            Some(&d) if d > 0 => self.cardinality as f64 / d as f64,
            _ => self.cardinality as f64,
        }
    }

    /// Skew-aware statistics for one attribute position, if in range.
    pub fn column(&self, pos: usize) -> Option<&ColumnStatistics> {
        self.columns.get(pos)
    }
}

/// The incrementally-maintained frequency sketch of one attribute
/// position: distinct values grouped by their current posting-list length,
/// plus the running sum of squared lengths. Every successful
/// insert/remove *shifts* the touched value between count groups in
/// O(log distinct), which is what makes histogram/MCV snapshots scan-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ColumnSketch {
    /// `by_count[c]` = the distinct values whose posting list holds exactly
    /// `c` rows. Values inside a group iterate in `Value` order, so every
    /// derived statistic is deterministic.
    by_count: BTreeMap<usize, BTreeSet<Value>>,
    /// Σ count² over all distinct values.
    sum_squares: u128,
}

impl ColumnSketch {
    /// Moves `value` from the `old` count group to the `new` one (0 means
    /// absent), keeping `sum_squares` exact.
    fn shift(&mut self, value: &Value, old: usize, new: usize) {
        if old > 0 {
            let group = self
                .by_count
                .get_mut(&old)
                .expect("indexed value must be sketched");
            group.remove(value);
            if group.is_empty() {
                self.by_count.remove(&old);
            }
            self.sum_squares -= (old as u128) * (old as u128);
        }
        if new > 0 {
            self.by_count.entry(new).or_default().insert(value.clone());
            self.sum_squares += (new as u128) * (new as u128);
        }
    }

    /// Projects the sketch into [`ColumnStatistics`]: the globally most
    /// common values become the MCV list, and the remainder is packed into
    /// equi-depth buckets (ascending count). O(distinct values), no data
    /// scan, deterministic.
    fn statistics(&self) -> ColumnStatistics {
        let distinct: usize = self.by_count.values().map(BTreeSet::len).sum();
        // MCVs: walk count groups descending; within a group, value order.
        let mut most_common: Vec<(Value, usize)> = Vec::with_capacity(MCV_TARGET);
        // How many values of each count group went into the MCV list (a
        // group can be cut mid-way when the MCV budget runs out).
        let mut taken: BTreeMap<usize, usize> = BTreeMap::new();
        'mcv: for (&count, values) in self.by_count.iter().rev() {
            for value in values {
                if most_common.len() == MCV_TARGET {
                    break 'mcv;
                }
                most_common.push((value.clone(), count));
                *taken.entry(count).or_default() += 1;
            }
        }
        // Equi-depth packing of the remainder, ascending count. Groups
        // share a count, so splitting one across buckets is exact.
        let mut rest: Vec<(usize, usize)> = Vec::new(); // (count, values)
        let mut rest_tuples = 0usize;
        for (&count, values) in self.by_count.iter() {
            let left = values.len() - taken.get(&count).copied().unwrap_or(0);
            if left > 0 {
                rest.push((count, left));
                rest_tuples += count * left;
            }
        }
        let mut histogram = Vec::new();
        if rest_tuples > 0 {
            let target = rest_tuples.div_ceil(HISTOGRAM_BUCKET_TARGET).max(1);
            let mut bucket = HistogramBucket {
                tuples: 0,
                distinct: 0,
                max_count: 0,
            };
            for (count, mut values) in rest {
                while values > 0 {
                    // How many values of this group fit before the bucket
                    // reaches its depth target; at least one always goes
                    // in, so the loop terminates (posting lists are never
                    // empty, so `count >= 1`).
                    let room = target.saturating_sub(bucket.tuples);
                    let fit = (room.div_ceil(count)).clamp(1, values);
                    bucket.tuples += count * fit;
                    bucket.distinct += fit;
                    bucket.max_count = bucket.max_count.max(count);
                    values -= fit;
                    if bucket.tuples >= target {
                        histogram.push(bucket);
                        bucket = HistogramBucket {
                            tuples: 0,
                            distinct: 0,
                            max_count: 0,
                        };
                    }
                }
            }
            if bucket.distinct > 0 {
                histogram.push(bucket);
            }
        }
        ColumnStatistics {
            distinct,
            most_common,
            histogram,
            sum_squared_counts: self.sum_squares,
        }
    }
}

/// An instance of a single relation symbol: a set of tuples plus hash
/// indexes on every attribute position.
///
/// Every successful mutation ([`RelationInstance::insert`] /
/// [`RelationInstance::remove`]) maintains the indexes incrementally and
/// bumps the instance's *epoch* — a monotonic per-relation version counter
/// that lets downstream consumers (compiled clause plans, coverage caches)
/// detect that results costed or computed against an older state of this
/// relation are stale.
#[derive(Debug, Clone)]
pub struct RelationInstance {
    symbol: RelationSymbol,
    tuples: Vec<Tuple>,
    /// `indexes[pos][value]` = row ids of tuples whose `pos`-th value is `value`.
    indexes: Vec<FxHashMap<Value, Vec<usize>>>,
    /// Per-position frequency sketches (histogram/MCV source), maintained
    /// in lock-step with the posting lists.
    sketches: Vec<ColumnSketch>,
    /// Set of tuples for O(1) duplicate elimination (set semantics).
    present: HashSet<Tuple>,
    /// Monotonic mutation counter, bumped on every successful insert/remove.
    epoch: u64,
}

impl RelationInstance {
    /// Creates an empty instance of the given relation symbol.
    pub fn empty(symbol: RelationSymbol) -> Self {
        let arity = symbol.arity();
        RelationInstance {
            symbol,
            tuples: Vec::new(),
            indexes: vec![FxHashMap::default(); arity],
            sketches: vec![ColumnSketch::default(); arity],
            present: HashSet::new(),
            epoch: 0,
        }
    }

    /// The instance's mutation epoch: 0 at creation, bumped by every
    /// successful insert or remove. Clones inherit the epoch, so two
    /// snapshots of the same lineage compare meaningfully.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The relation symbol this instance belongs to.
    pub fn symbol(&self) -> &RelationSymbol {
        &self.symbol
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        self.symbol.name()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the instance has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Inserts a tuple. Duplicate tuples are ignored (relations are sets).
    /// Returns `true` if the tuple was newly inserted.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        if tuple.arity() != self.symbol.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: self.name().to_string(),
                expected: self.symbol.arity(),
                actual: tuple.arity(),
            });
        }
        if self.present.contains(&tuple) {
            return Ok(false);
        }
        let row = self.tuples.len();
        for (pos, value) in tuple.iter().enumerate() {
            let list = self.indexes[pos].entry(value.clone()).or_default();
            let old = list.len();
            list.push(row);
            self.sketches[pos].shift(value, old, old + 1);
        }
        self.present.insert(tuple.clone());
        self.tuples.push(tuple);
        self.epoch += 1;
        Ok(true)
    }

    /// Removes a tuple, maintaining every positional index incrementally
    /// (the removed row's posting entries are dropped and the last row is
    /// swapped into its slot, so removal costs O(arity × posting list)
    /// rather than a rebuild). Returns `true` if the tuple was present.
    pub fn remove(&mut self, tuple: &Tuple) -> Result<bool> {
        if tuple.arity() != self.symbol.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: self.name().to_string(),
                expected: self.symbol.arity(),
                actual: tuple.arity(),
            });
        }
        if !self.present.remove(tuple) {
            return Ok(false);
        }
        let row = match tuple.iter().next() {
            // Locate the row through the first position's posting list.
            Some(first) => self.indexes[0]
                .get(first)
                .and_then(|rows| rows.iter().copied().find(|&r| self.tuples[r] == *tuple))
                .expect("present tuple must be indexed"),
            // Zero-arity relation: the single possible tuple is row 0.
            None => 0,
        };
        for (pos, value) in tuple.iter().enumerate() {
            let list = self.indexes[pos]
                .get_mut(value)
                .expect("present tuple must be indexed at every position");
            let old = list.len();
            list.retain(|&r| r != row);
            self.sketches[pos].shift(value, old, old - 1);
            if list.is_empty() {
                self.indexes[pos].remove(value);
            }
        }
        let last = self.tuples.len() - 1;
        if row != last {
            // Re-point the swapped-in last row's posting entries at `row`.
            let moved = self.tuples[last].clone();
            for (pos, value) in moved.iter().enumerate() {
                for r in self.indexes[pos]
                    .get_mut(value)
                    .expect("resident tuple must be indexed")
                {
                    if *r == last {
                        *r = row;
                    }
                }
            }
        }
        self.tuples.swap_remove(row);
        self.epoch += 1;
        Ok(true)
    }

    /// Whether the instance contains exactly this tuple.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.present.contains(tuple)
    }

    /// Iterates over all tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// All tuples as a slice.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Tuples whose value at `pos` equals `value` (index lookup).
    pub fn select_eq(&self, pos: usize, value: &Value) -> Vec<&Tuple> {
        match self.indexes.get(pos).and_then(|idx| idx.get(value)) {
            Some(rows) => rows.iter().map(|&r| &self.tuples[r]).collect(),
            None => Vec::new(),
        }
    }

    /// Tuples that agree with `key` on the attribute positions `positions`
    /// (a multi-column index lookup implemented by probing the most
    /// selective single-column index and post-filtering).
    pub fn select_on_positions(&self, positions: &[usize], key: &[&Value]) -> Vec<&Tuple> {
        assert_eq!(
            positions.len(),
            key.len(),
            "key length must match positions"
        );
        if positions.is_empty() {
            return self.tuples.iter().collect();
        }
        // Probe the column whose posting list is shortest.
        let mut best: Option<(usize, &Vec<usize>)> = None;
        for (i, (&pos, value)) in positions.iter().zip(key.iter()).enumerate() {
            match self.indexes.get(pos).and_then(|idx| idx.get(*value)) {
                Some(rows) => {
                    if best.is_none_or(|(_, b)| rows.len() < b.len()) {
                        best = Some((i, rows));
                    }
                }
                None => return Vec::new(),
            }
        }
        let (_, rows) = best.expect("non-empty positions");
        rows.iter()
            .map(|&r| &self.tuples[r])
            .filter(|t| {
                positions
                    .iter()
                    .zip(key.iter())
                    .all(|(&pos, &v)| t.value(pos) == v)
            })
            .collect()
    }

    /// Tuples containing `value` at *any* position. Used by bottom-clause
    /// construction to pull in every tuple mentioning a constant seen so far.
    pub fn tuples_containing(&self, value: &Value) -> Vec<&Tuple> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for idx in &self.indexes {
            if let Some(rows) = idx.get(value) {
                for &r in rows {
                    if seen.insert(r) {
                        out.push(&self.tuples[r]);
                    }
                }
            }
        }
        out
    }

    /// The projection `π_positions` of the instance, as a set of tuples.
    pub fn project(&self, positions: &[usize]) -> HashSet<Tuple> {
        self.tuples.iter().map(|t| t.project(positions)).collect()
    }

    /// The set of distinct values appearing at attribute position `pos`.
    pub fn active_domain_at(&self, pos: usize) -> HashSet<Value> {
        self.indexes
            .get(pos)
            .map(|idx| idx.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// The set of distinct values appearing anywhere in the instance, read
    /// as the union of the positional index keys — O(Σ distinct-per-column)
    /// instead of the old O(tuples × arity) rescan.
    pub fn active_domain(&self) -> HashSet<Value> {
        let mut out = HashSet::new();
        for idx in &self.indexes {
            out.extend(idx.keys().cloned());
        }
        out
    }

    /// Number of distinct values at attribute position `pos`, read off the
    /// posting-list index (out-of-range positions report 0).
    pub fn distinct_values_at(&self, pos: usize) -> usize {
        self.indexes.get(pos).map_or(0, FxHashMap::len)
    }

    /// Snapshot of the instance's selectivity statistics, computed from the
    /// maintained indexes and frequency sketches (no data scan).
    pub fn statistics(&self) -> RelationStatistics {
        RelationStatistics {
            cardinality: self.tuples.len(),
            distinct_per_position: self.indexes.iter().map(|idx| idx.len()).collect(),
            columns: self.sketches.iter().map(ColumnSketch::statistics).collect(),
        }
    }

    /// Checks the functional dependency `lhs → rhs` (given as attribute
    /// positions) over this instance.
    pub fn satisfies_fd(&self, lhs: &[usize], rhs: &[usize]) -> bool {
        let mut seen: HashMap<Tuple, Tuple> = HashMap::new();
        for t in &self.tuples {
            let key = t.project(lhs);
            let val = t.project(rhs);
            match seen.get(&key) {
                Some(existing) if existing != &val => return false,
                Some(_) => {}
                None => {
                    seen.insert(key, val);
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ta_instance() -> RelationInstance {
        let mut inst = RelationInstance::empty(RelationSymbol::new("ta", &["crs", "stud", "term"]));
        inst.insert(Tuple::from_strs(&["c1", "alice", "t1"]))
            .unwrap();
        inst.insert(Tuple::from_strs(&["c1", "bob", "t1"])).unwrap();
        inst.insert(Tuple::from_strs(&["c2", "alice", "t2"]))
            .unwrap();
        inst
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut inst = ta_instance();
        assert!(matches!(
            inst.insert(Tuple::from_strs(&["only-two", "values"])),
            Err(RelationalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let mut inst = ta_instance();
        let added = inst
            .insert(Tuple::from_strs(&["c1", "alice", "t1"]))
            .unwrap();
        assert!(!added);
        assert_eq!(inst.len(), 3);
    }

    #[test]
    fn select_eq_uses_index() {
        let inst = ta_instance();
        let hits = inst.select_eq(1, &Value::str("alice"));
        assert_eq!(hits.len(), 2);
        assert!(inst.select_eq(1, &Value::str("carol")).is_empty());
    }

    #[test]
    fn select_on_positions_multi_column() {
        let inst = ta_instance();
        let hits = inst.select_on_positions(&[0, 1], &[&Value::str("c1"), &Value::str("alice")]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0], &Tuple::from_strs(&["c1", "alice", "t1"]));
        let empty = inst.select_on_positions(&[0, 1], &[&Value::str("c2"), &Value::str("bob")]);
        assert!(empty.is_empty());
    }

    #[test]
    fn tuples_containing_deduplicates_rows() {
        let mut inst = RelationInstance::empty(RelationSymbol::new("pair", &["a", "b"]));
        inst.insert(Tuple::from_strs(&["x", "x"])).unwrap();
        inst.insert(Tuple::from_strs(&["x", "y"])).unwrap();
        let hits = inst.tuples_containing(&Value::str("x"));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn projection_is_a_set() {
        let inst = ta_instance();
        let proj = inst.project(&[0]);
        assert_eq!(proj.len(), 2); // c1, c2
    }

    #[test]
    fn fd_checking() {
        let mut inst = RelationInstance::empty(RelationSymbol::new("student", &["stud", "phase"]));
        inst.insert(Tuple::from_strs(&["alice", "prelim"])).unwrap();
        inst.insert(Tuple::from_strs(&["bob", "post"])).unwrap();
        assert!(inst.satisfies_fd(&[0], &[1]));
        inst.insert(Tuple::from_strs(&["alice", "post"])).unwrap();
        assert!(!inst.satisfies_fd(&[0], &[1]));
    }

    #[test]
    fn statistics_reflect_indexes() {
        let inst = ta_instance();
        let stats = inst.statistics();
        assert_eq!(stats.cardinality, 3);
        assert_eq!(stats.distinct_per_position, vec![2, 2, 2]);
        assert!((stats.expected_matches(0) - 1.5).abs() < 1e-9);
        // Out-of-range position falls back to the full cardinality.
        assert!((stats.expected_matches(9) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn remove_maintains_indexes_incrementally() {
        let mut inst = ta_instance();
        assert!(inst
            .remove(&Tuple::from_strs(&["c1", "alice", "t1"]))
            .unwrap());
        assert_eq!(inst.len(), 2);
        assert!(!inst.contains(&Tuple::from_strs(&["c1", "alice", "t1"])));
        // Index lookups survive the swap-remove row compaction.
        assert_eq!(inst.select_eq(1, &Value::str("alice")).len(), 1);
        assert_eq!(inst.select_eq(1, &Value::str("bob")).len(), 1);
        let hits = inst.select_on_positions(&[0, 1], &[&Value::str("c2"), &Value::str("alice")]);
        assert_eq!(hits, vec![&Tuple::from_strs(&["c2", "alice", "t2"])]);
        // Statistics (read off the indexes) reflect the removal.
        let stats = inst.statistics();
        assert_eq!(stats.cardinality, 2);
        assert_eq!(stats.distinct_per_position, vec![2, 2, 2]);
    }

    #[test]
    fn remove_absent_tuple_is_a_noop() {
        let mut inst = ta_instance();
        let epoch = inst.epoch();
        assert!(!inst
            .remove(&Tuple::from_strs(&["c9", "zoe", "t9"]))
            .unwrap());
        assert_eq!(inst.len(), 3);
        assert_eq!(inst.epoch(), epoch);
        assert!(matches!(
            inst.remove(&Tuple::from_strs(&["wrong", "arity"])),
            Err(RelationalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn epoch_counts_successful_mutations_only() {
        let mut inst = ta_instance();
        let base = inst.epoch();
        inst.insert(Tuple::from_strs(&["c1", "alice", "t1"]))
            .unwrap(); // duplicate
        assert_eq!(inst.epoch(), base);
        inst.insert(Tuple::from_strs(&["c3", "carol", "t3"]))
            .unwrap();
        assert_eq!(inst.epoch(), base + 1);
        inst.remove(&Tuple::from_strs(&["c3", "carol", "t3"]))
            .unwrap();
        assert_eq!(inst.epoch(), base + 2);
    }

    #[test]
    fn remove_then_reinsert_round_trips() {
        let mut inst = ta_instance();
        let t = Tuple::from_strs(&["c1", "bob", "t1"]);
        assert!(inst.remove(&t).unwrap());
        assert!(inst.insert(t.clone()).unwrap());
        assert!(inst.contains(&t));
        assert_eq!(inst.select_eq(1, &Value::str("bob")), vec![&t]);
        assert_eq!(inst.statistics(), ta_instance().statistics());
    }

    #[test]
    fn active_domain_collects_all_values() {
        let inst = ta_instance();
        let dom = inst.active_domain();
        assert!(dom.contains(&Value::str("alice")));
        assert!(dom.contains(&Value::str("c2")));
        assert_eq!(inst.active_domain_at(2).len(), 2);
    }

    #[test]
    fn index_backed_domain_reads_match_a_full_scan() {
        // `active_domain` / `distinct_values_at` read the posting-list
        // indexes; micro-assert they agree with the brute-force tuple scan
        // they replaced.
        let mut inst = ta_instance();
        inst.remove(&Tuple::from_strs(&["c1", "bob", "t1"]))
            .unwrap();
        inst.insert(Tuple::from_strs(&["c3", "alice", "t1"]))
            .unwrap();
        let mut scanned: HashSet<Value> = HashSet::new();
        for t in inst.iter() {
            scanned.extend(t.iter().cloned());
        }
        assert_eq!(inst.active_domain(), scanned);
        for pos in 0..3 {
            let scan_distinct: HashSet<&Value> = inst.iter().map(|t| t.value(pos)).collect();
            assert_eq!(
                inst.distinct_values_at(pos),
                scan_distinct.len(),
                "position {pos}"
            );
        }
        assert_eq!(inst.distinct_values_at(9), 0);
    }

    /// Rebuilds a column-statistics snapshot by brute force from the
    /// tuples: the reference the incremental sketch must match.
    fn scan_column(inst: &RelationInstance, pos: usize) -> ColumnStatistics {
        let mut counts: HashMap<&Value, usize> = HashMap::new();
        for t in inst.iter() {
            *counts.entry(t.value(pos)).or_default() += 1;
        }
        let mut sketch = ColumnSketch::default();
        for (value, count) in counts {
            sketch.shift(value, 0, count);
        }
        sketch.statistics()
    }

    #[test]
    fn column_statistics_capture_skew() {
        let mut inst = RelationInstance::empty(RelationSymbol::new("link", &["src", "dst"]));
        // A hub value with 30 rows against 20 singleton values.
        for i in 0..30 {
            inst.insert(Tuple::from_strs(&["hub", &format!("d{i}")]))
                .unwrap();
        }
        for i in 0..20 {
            inst.insert(Tuple::from_strs(&[&format!("s{i}"), &format!("e{i}")]))
                .unwrap();
        }
        let stats = inst.statistics();
        let col = stats.column(0).unwrap();
        assert_eq!(col.distinct, 21);
        assert_eq!(col.mcv_count(&Value::str("hub")), Some(30));
        assert_eq!(col.mcv_count(&Value::str("s0")), Some(1));
        assert_eq!(col.mcv_count(&Value::str("nope")), None);
        assert_eq!(col.sum_squared_counts, 30 * 30 + 20);
        // Uniform estimate says ~2.4 rows per probe; the weighted estimate
        // sees the hub (exact value Σc²/n = 920/50 = 18.4).
        assert!(stats.expected_matches(0) < 3.0);
        let weighted = col.expected_matches_weighted(stats.cardinality);
        assert!(
            (weighted - 18.4).abs() < 1e-9,
            "weighted estimate {weighted} should equal exact Σc²/n"
        );
        // Non-MCV probes expect ~1 row (the histogram holds singletons).
        assert!((col.non_mcv_expected() - 1.0).abs() < 1e-9);
        // Histogram covers exactly the non-MCV remainder.
        let (tuples, distinct) = col.histogram_totals();
        assert_eq!(distinct, 21 - col.most_common.len());
        assert_eq!(tuples + 30 + 7, stats.cardinality); // hub + 7 MCV singletons
    }

    #[test]
    fn incremental_sketch_matches_scan_after_mutations() {
        let mut inst = RelationInstance::empty(RelationSymbol::new("r", &["a", "b"]));
        let keys = ["k0", "k1", "k2", "k3", "k4"];
        // Deterministic mixed churn: inserts with collisions, then removes.
        for i in 0..40usize {
            inst.insert(Tuple::from_strs(&[keys[i * i % 5], &format!("v{}", i % 7)]))
                .unwrap();
        }
        for i in (0..40usize).step_by(3) {
            let t = Tuple::from_strs(&[keys[i * i % 5], &format!("v{}", i % 7)]);
            inst.remove(&t).ok();
        }
        for pos in 0..2 {
            assert_eq!(
                inst.statistics().columns[pos],
                scan_column(&inst, pos),
                "sketch diverged from scan at position {pos}"
            );
        }
    }

    #[test]
    fn equi_depth_buckets_balance_depth() {
        let mut inst = RelationInstance::empty(RelationSymbol::new("r", &["a"]));
        // 64 distinct singleton values and no skew: every bucket should
        // cover roughly equal depth.
        for i in 0..64 {
            inst.insert(Tuple::from_strs(&[&format!("v{i:02}")]))
                .unwrap();
        }
        let col = &inst.statistics().columns[0];
        assert_eq!(col.most_common.len(), MCV_TARGET);
        let (tuples, distinct) = col.histogram_totals();
        assert_eq!(tuples, 64 - MCV_TARGET);
        assert_eq!(distinct, 64 - MCV_TARGET);
        assert!(col.histogram.len() <= HISTOGRAM_BUCKET_TARGET);
        for bucket in &col.histogram {
            assert!(bucket.tuples >= 1);
            assert_eq!(bucket.max_count, 1);
        }
    }
}

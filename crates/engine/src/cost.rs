//! Pluggable plan-costing models.
//!
//! Join orders used to be chosen from a single hard-coded estimate:
//! `cardinality / distinct`, the classic uniform-selectivity assumption.
//! That estimate is *worst* exactly where the paper's schema-independence
//! guarantee makes it matter most — decomposed schemas concentrate skew
//! into link relations, where one hub value can hold thousands of rows
//! while the distinct count stays high. The [`CostModel`] trait makes the
//! estimate a pluggable decision consulted by both [`crate::ClausePlan`]
//! literal ordering and [`crate::BatchPlan`] child/prefix ordering:
//!
//! * [`UniformCost`] — the old model, kept as the ablation baseline;
//! * [`HistogramCost`] — the default: consults the per-position
//!   most-common-value lists and equi-depth histograms maintained by
//!   `castor-relational`, so hub-heavy access paths are priced at their
//!   frequency-weighted expected fan-out instead of the uniform average.

use crate::stats::DatabaseStatistics;
use castor_logic::{Atom, Term};
use std::collections::BTreeSet;
use std::fmt;

/// A plan-costing model: estimates candidate rows for solving one body
/// literal given the currently bound variables.
pub trait CostModel: fmt::Debug + Send + Sync {
    /// Estimated number of candidate tuples for solving `atom` given the
    /// bound variables `bound`. Unknown relations must cost 0 — probing
    /// them first fails the whole body immediately, which is the cheapest
    /// possible outcome.
    fn estimate_atom(&self, atom: &Atom, bound: &BTreeSet<&str>, stats: &DatabaseStatistics)
        -> f64;

    /// Short model name for reports and bench labels.
    fn name(&self) -> &'static str;
}

/// Which [`CostModel`] an engine consults (configuration-friendly handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModelKind {
    /// `cardinality / distinct` per bound position (the ablation baseline).
    Uniform,
    /// MCV + equi-depth-histogram estimates (skew-aware; the default).
    #[default]
    Histogram,
}

impl CostModelKind {
    /// The model instance behind the handle.
    pub fn model(self) -> &'static dyn CostModel {
        match self {
            CostModelKind::Uniform => &UniformCost,
            CostModelKind::Histogram => &HistogramCost,
        }
    }
}

/// The argument positions of `atom` that are bound under `bound` (constants
/// and already-bound variables) — the access path an index probe would use.
pub fn bound_positions(atom: &Atom, bound: &BTreeSet<&str>) -> Vec<usize> {
    atom.terms
        .iter()
        .enumerate()
        .filter(|(_, term)| match term {
            Term::Const(_) => true,
            Term::Var(name) => bound.contains(name.as_str()),
        })
        .map(|(i, _)| i)
        .collect()
}

/// One literal scheduled by [`greedy_order`]: its index in the caller's
/// input, the access path it executes with, and its estimated candidate
/// rows at that position.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderedLiteral {
    /// Index into the caller's atom list.
    pub index: usize,
    /// Bound argument positions at execution time.
    pub bound_positions: Vec<usize>,
    /// Estimated candidate rows per invocation.
    pub estimated_rows: f64,
}

/// The greedy cheapest-bindable-literal schedule shared by
/// [`crate::ClausePlan::compile_with`] and the batch trie's shared-prefix
/// reordering: starting from `bound`, repeatedly pick the atom with the
/// smallest `cost(atom, bound)` — first wins ties — record its access
/// path, then mark its variables bound. `bound` is left holding every
/// scheduled atom's variables. Access paths are computed once per *chosen*
/// literal.
pub fn greedy_order(
    atoms: &[&Atom],
    bound: &mut BTreeSet<String>,
    mut cost: impl FnMut(&Atom, &BTreeSet<&str>) -> f64,
) -> Vec<OrderedLiteral> {
    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    let mut ordered = Vec::with_capacity(atoms.len());
    while !remaining.is_empty() {
        let borrowed: BTreeSet<&str> = bound.iter().map(String::as_str).collect();
        let mut best: Option<(usize, f64)> = None;
        for (slot, &idx) in remaining.iter().enumerate() {
            let estimate = cost(atoms[idx], &borrowed);
            if best.is_none_or(|(_, b)| estimate < b) {
                best = Some((slot, estimate));
            }
        }
        let (slot, estimated_rows) = best.expect("remaining is non-empty");
        let index = remaining.remove(slot);
        let positions = bound_positions(atoms[index], &borrowed);
        drop(borrowed);
        bound.extend(
            atoms[index]
                .terms
                .iter()
                .filter_map(Term::var_name)
                .map(str::to_string),
        );
        ordered.push(OrderedLiteral {
            index,
            bound_positions: positions,
            estimated_rows,
        });
    }
    ordered
}

/// The classic uniform-selectivity model: the smallest expected
/// posting-list size (`cardinality / distinct`) over the bound positions,
/// or the full relation cardinality when no position is bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformCost;

impl CostModel for UniformCost {
    fn estimate_atom(
        &self,
        atom: &Atom,
        bound: &BTreeSet<&str>,
        stats: &DatabaseStatistics,
    ) -> f64 {
        let Some(rel) = stats.relation(&atom.relation) else {
            return 0.0;
        };
        let mut best: Option<f64> = None;
        for (pos, term) in atom.terms.iter().enumerate() {
            let is_bound = match term {
                Term::Const(_) => true,
                Term::Var(name) => bound.contains(name.as_str()),
            };
            if is_bound {
                let expected = rel.expected_matches(pos);
                if best.is_none_or(|b| expected < b) {
                    best = Some(expected);
                }
            }
        }
        best.unwrap_or(rel.cardinality as f64)
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// The skew-aware model: constants are priced from the most-common-value
/// list (exact counts for hubs, histogram average otherwise) and bound
/// variables from the frequency-weighted expected fan-out — a variable
/// bound by a join (or by an example drawn from the data) hits a hub value
/// exactly as often as the hub occurs in the data, which the equi-depth
/// histogram approximation of `Σ count² / n` captures and the uniform
/// average hides.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramCost;

impl CostModel for HistogramCost {
    fn estimate_atom(
        &self,
        atom: &Atom,
        bound: &BTreeSet<&str>,
        stats: &DatabaseStatistics,
    ) -> f64 {
        let Some(rel) = stats.relation(&atom.relation) else {
            return 0.0;
        };
        let mut best: Option<f64> = None;
        for (pos, term) in atom.terms.iter().enumerate() {
            let expected = match term {
                Term::Const(value) => match rel.column(pos) {
                    Some(col) => match col.mcv_count(value) {
                        // A hub constant costs its exact posting size.
                        Some(count) => count as f64,
                        // Known-absent or average non-MCV value.
                        None => col.non_mcv_expected(),
                    },
                    None => rel.expected_matches(pos),
                },
                Term::Var(name) if bound.contains(name.as_str()) => match rel.column(pos) {
                    Some(col) => col.expected_matches_weighted(rel.cardinality),
                    None => rel.expected_matches(pos),
                },
                Term::Var(_) => continue,
            };
            if best.is_none_or(|b| expected < b) {
                best = Some(expected);
            }
        }
        best.unwrap_or(rel.cardinality as f64)
    }

    fn name(&self) -> &'static str {
        "histogram"
    }
}

/// Shared unit-test fixture (also used by the plan tests): a skewed
/// relation named `rel0` hiding a hub value behind 200 singleton keys
/// (uniform estimate ~2.5 rows/probe, frequency-weighted ~180) and a
/// genuinely uniform relation `rel1` (10 rows per key).
#[cfg(test)]
pub(crate) fn skewed_hub_db(rel0: &str, rel1: &str) -> castor_relational::DatabaseInstance {
    use castor_relational::{DatabaseInstance, RelationSymbol, Schema, Tuple};
    let mut schema = Schema::new("s");
    schema
        .add_relation(RelationSymbol::new(rel0, &["a", "b"]))
        .add_relation(RelationSymbol::new(rel1, &["a", "b"]));
    let mut db = DatabaseInstance::empty(&schema);
    for i in 0..300 {
        db.insert(rel0, Tuple::from_strs(&["hub", &format!("v{i}")]))
            .unwrap();
    }
    for i in 0..200 {
        db.insert(
            rel0,
            Tuple::from_strs(&[&format!("k{i}"), &format!("w{i}")]),
        )
        .unwrap();
    }
    for i in 0..500 {
        db.insert(
            rel1,
            Tuple::from_strs(&[&format!("f{}", i % 50), &format!("x{i}")]),
        )
        .unwrap();
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_stats() -> DatabaseStatistics {
        DatabaseStatistics::gather(&skewed_hub_db("link", "flat"))
    }

    #[test]
    fn histogram_prices_skew_that_uniform_hides() {
        let stats = skewed_stats();
        let atom = Atom::vars("link", &["x", "y"]);
        let bound: BTreeSet<&str> = ["x"].into_iter().collect();
        // Uniform: 500 rows / 201 distinct ≈ 2.5 — skew invisible.
        let uniform = UniformCost.estimate_atom(&atom, &bound, &stats);
        assert!(uniform < 3.0, "uniform estimate {uniform}");
        // Histogram: frequency-weighted ≈ (300² + 200) / 500 ≈ 180.
        let hist = HistogramCost.estimate_atom(&atom, &bound, &stats);
        assert!(hist > 100.0, "histogram estimate {hist} should see the hub");
        // On the flat relation the two models agree (10 rows per key).
        let flat = Atom::vars("flat", &["x", "y"]);
        let u = UniformCost.estimate_atom(&flat, &bound, &stats);
        let h = HistogramCost.estimate_atom(&flat, &bound, &stats);
        assert!((u - 10.0).abs() < 1e-9);
        assert!((h - 10.0).abs() < 1.0, "flat histogram estimate {h}");
    }

    #[test]
    fn constants_use_exact_mcv_counts() {
        let stats = skewed_stats();
        let bound = BTreeSet::new();
        let hub = Atom::new("link", vec![Term::constant("hub"), Term::var("y")]);
        assert!((HistogramCost.estimate_atom(&hub, &bound, &stats) - 300.0).abs() < 1e-9);
        let rare = Atom::new("link", vec![Term::constant("k5"), Term::var("y")]);
        let est = HistogramCost.estimate_atom(&rare, &bound, &stats);
        assert!(est < 2.0, "non-MCV constant estimate {est}");
        // Uniform prices both identically.
        let u = UniformCost.estimate_atom(&hub, &bound, &stats);
        assert!((u - UniformCost.estimate_atom(&rare, &bound, &stats)).abs() < 1e-9);
    }

    #[test]
    fn both_models_zero_unknown_relations_and_scan_unbound() {
        let stats = skewed_stats();
        let bound = BTreeSet::new();
        let missing = Atom::vars("missing", &["x"]);
        assert_eq!(UniformCost.estimate_atom(&missing, &bound, &stats), 0.0);
        assert_eq!(HistogramCost.estimate_atom(&missing, &bound, &stats), 0.0);
        let unbound = Atom::vars("link", &["x", "y"]);
        assert_eq!(UniformCost.estimate_atom(&unbound, &bound, &stats), 500.0);
        assert_eq!(HistogramCost.estimate_atom(&unbound, &bound, &stats), 500.0);
    }
}

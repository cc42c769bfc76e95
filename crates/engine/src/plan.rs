//! Compiled clause plans: a join order chosen once per clause.
//!
//! The interpreted evaluator in `castor_logic::evaluation` re-ranks the
//! remaining body literals at every backtracking node (an O(body²) choice
//! per node). A [`ClausePlan`] makes that decision once, at compile time,
//! from the selectivity statistics gathered when the engine was built —
//! exactly the stored-procedure-style preparation the paper attributes
//! Castor's speed to (Section 7.5.2). The executor then walks the fixed
//! order with index lookups and never reconsiders it.

use crate::cost::{greedy_order, CostModel, CostModelKind};
use crate::stats::DatabaseStatistics;
use castor_logic::{Clause, Term};
use std::collections::BTreeSet;

/// One step of a compiled plan: which body literal to solve next, and which
/// of its argument positions are already bound (by the head binding, by a
/// constant, or by an earlier step) when the step runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Index of the literal in the clause body.
    pub literal: usize,
    /// Argument positions guaranteed to be bound when this step executes.
    pub bound_positions: Vec<usize>,
    /// Estimated candidate rows per invocation of this step.
    pub estimated_rows: f64,
}

/// A compiled evaluation plan for one clause, assuming the head variables
/// are bound to an example before execution (the coverage-test calling
/// convention).
///
/// The plan records the mutation epoch of every relation it was costed
/// against ([`ClausePlan::epochs`]); [`ClausePlan::is_current`] compares
/// them with the live statistics so a plan compiled before a mutation batch
/// is detected as stale on the very next fetch and re-planned — stale-plan
/// reuse is impossible by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ClausePlan {
    /// The body literal order to execute.
    pub steps: Vec<PlanStep>,
    /// Sum of estimated candidate counts along the chosen order (kept for
    /// introspection and tests; not used at execution time).
    pub estimated_cost: f64,
    /// `(relation, epoch)` for every body relation known to the statistics
    /// the plan was costed against, in name order.
    pub epochs: Vec<(String, u64)>,
}

impl ClausePlan {
    /// Whether the plan's costing is still current: every relation it was
    /// costed against sits at the same mutation epoch in `stats`.
    pub fn is_current(&self, stats: &DatabaseStatistics) -> bool {
        self.epochs
            .iter()
            .all(|(name, epoch)| stats.epoch_of(name) == Some(*epoch))
    }

    /// The `(relation, epoch)` stamps for every relation of `atoms` present
    /// in `stats`, deduplicated in name order.
    fn stamp_epochs(
        atoms: &[castor_logic::Atom],
        stats: &DatabaseStatistics,
    ) -> Vec<(String, u64)> {
        let names: BTreeSet<&str> = atoms.iter().map(|a| a.relation.as_str()).collect();
        names
            .into_iter()
            .filter_map(|name| stats.epoch_of(name).map(|e| (name.to_string(), e)))
            .collect()
    }

    /// Compiles a join order for `clause` with the uniform-selectivity
    /// baseline model (convenience wrapper over [`ClausePlan::compile_with`],
    /// kept for ablations and tests).
    pub fn compile(clause: &Clause, stats: &DatabaseStatistics) -> ClausePlan {
        ClausePlan::compile_with(clause, stats, CostModelKind::Uniform.model())
    }

    /// Compiles a join order for `clause` using greedy cost estimation:
    /// starting from the bound set {head variables ∪ constants}, repeatedly
    /// pick the literal with the smallest estimated candidate count given
    /// the current bound set, then mark its variables bound. Estimates come
    /// from `model`.
    pub fn compile_with(
        clause: &Clause,
        stats: &DatabaseStatistics,
        model: &dyn CostModel,
    ) -> ClausePlan {
        let mut bound: BTreeSet<String> = clause
            .head
            .terms
            .iter()
            .filter_map(Term::var_name)
            .map(str::to_string)
            .collect();
        let atoms: Vec<&castor_logic::Atom> = clause.body.iter().collect();
        let ordered = greedy_order(&atoms, &mut bound, |atom, borrowed| {
            model.estimate_atom(atom, borrowed, stats)
        });
        let estimated_cost = ordered.iter().map(|o| o.estimated_rows).sum();
        let steps = ordered
            .into_iter()
            .map(|o| PlanStep {
                literal: o.index,
                bound_positions: o.bound_positions,
                estimated_rows: o.estimated_rows,
            })
            .collect();

        ClausePlan {
            steps,
            estimated_cost,
            epochs: ClausePlan::stamp_epochs(&clause.body, stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_logic::Atom;
    use castor_relational::{DatabaseInstance, RelationSymbol, Schema, Tuple};

    fn stats() -> DatabaseStatistics {
        let mut schema = Schema::new("s");
        schema
            .add_relation(RelationSymbol::new("big", &["a", "b"]))
            .add_relation(RelationSymbol::new("small", &["a"]));
        let mut db = DatabaseInstance::empty(&schema);
        for i in 0..100 {
            db.insert(
                "big",
                Tuple::from_strs(&[&format!("k{}", i % 10), &i.to_string()]),
            )
            .unwrap();
        }
        db.insert("small", Tuple::from_strs(&["k1"])).unwrap();
        db.insert("small", Tuple::from_strs(&["k2"])).unwrap();
        DatabaseStatistics::gather(&db)
    }

    #[test]
    fn selective_literal_is_scheduled_first() {
        // t(x) ← big(x, y), small(x): both have x bound by the head, but
        // small has 2 expected matches vs big's 10, so small goes first.
        let clause = Clause::new(
            Atom::vars("t", &["x"]),
            vec![Atom::vars("big", &["x", "y"]), Atom::vars("small", &["x"])],
        );
        let plan = ClausePlan::compile(&clause, &stats());
        assert_eq!(plan.steps[0].literal, 1, "small(x) should be probed first");
        assert_eq!(plan.steps[0].bound_positions, vec![0]);
        // After solving small(x), big's position 0 is still the bound one.
        assert_eq!(plan.steps[1].literal, 0);
        assert_eq!(plan.steps[1].bound_positions, vec![0]);
    }

    #[test]
    fn unknown_relation_short_circuits_to_front() {
        let clause = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("big", &["x", "y"]),
                Atom::vars("missing", &["x"]),
            ],
        );
        let plan = ClausePlan::compile(&clause, &stats());
        assert_eq!(plan.steps[0].literal, 1);
    }

    #[test]
    fn constants_count_as_bound() {
        // z is not a head variable, so only the constant position is bound.
        let clause = Clause::new(
            Atom::vars("t", &["y"]),
            vec![
                Atom::vars("small", &["y"]),
                Atom::new("big", vec![Term::constant("k1"), Term::var("z")]),
            ],
        );
        let plan = ClausePlan::compile(&clause, &stats());
        let big_step = plan.steps.iter().find(|s| s.literal == 1).unwrap();
        assert_eq!(big_step.bound_positions, vec![0]);
        assert!(plan.estimated_cost < 100.0);
    }

    #[test]
    fn empty_body_compiles_to_empty_plan() {
        let clause = Clause::fact(Atom::vars("t", &["x"]));
        let plan = ClausePlan::compile(&clause, &stats());
        assert!(plan.steps.is_empty());
        assert_eq!(plan.estimated_cost, 0.0);
        assert!(plan.epochs.is_empty());
    }

    #[test]
    fn plans_record_epochs_and_detect_staleness() {
        let mut schema = Schema::new("s");
        schema
            .add_relation(RelationSymbol::new("big", &["a", "b"]))
            .add_relation(RelationSymbol::new("small", &["a"]));
        let mut db = DatabaseInstance::empty(&schema);
        db.insert("big", Tuple::from_strs(&["k1", "1"])).unwrap();
        db.insert("small", Tuple::from_strs(&["k1"])).unwrap();
        let mut stats = DatabaseStatistics::gather(&db);
        let clause = Clause::new(
            Atom::vars("t", &["x"]),
            vec![Atom::vars("big", &["x", "y"]), Atom::vars("small", &["x"])],
        );
        let plan = ClausePlan::compile(&clause, &stats);
        assert_eq!(
            plan.epochs,
            vec![("big".to_string(), 1), ("small".to_string(), 1)]
        );
        assert!(plan.is_current(&stats));
        // Mutating a relation the plan was costed against makes it stale.
        db.insert("big", Tuple::from_strs(&["k2", "2"])).unwrap();
        stats.refresh(&db);
        assert!(!plan.is_current(&stats));
        let recompiled = ClausePlan::compile(&clause, &stats);
        assert!(recompiled.is_current(&stats));
    }

    #[test]
    fn unknown_relations_are_not_stamped() {
        let clause = Clause::new(
            Atom::vars("t", &["x"]),
            vec![Atom::vars("missing", &["x"]), Atom::vars("small", &["x"])],
        );
        let plan = ClausePlan::compile(&clause, &stats());
        assert_eq!(plan.epochs.len(), 1);
        assert_eq!(plan.epochs[0].0, "small");
        assert!(plan.is_current(&stats()));
    }

    /// `skewed` hides a hub under a high distinct count (uniform thinks it
    /// is cheap); `flat` really is 10 rows per key (the shared fixture in
    /// `crate::cost`).
    fn skewed_stats() -> DatabaseStatistics {
        DatabaseStatistics::gather(&crate::cost::skewed_hub_db("skewed", "flat"))
    }

    #[test]
    fn histogram_model_reorders_skewed_joins() {
        // t(x) ← skewed(x, y), flat(x, z): uniform sees 2.5 vs 10 expected
        // rows and schedules the skewed hub first; the histogram model sees
        // the frequency-weighted ~180 vs 10 and flips the order.
        let clause = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("skewed", &["x", "y"]),
                Atom::vars("flat", &["x", "z"]),
            ],
        );
        let stats = skewed_stats();
        let uniform = ClausePlan::compile_with(&clause, &stats, CostModelKind::Uniform.model());
        assert_eq!(uniform.steps[0].literal, 0, "uniform should pick skewed");
        let hist = ClausePlan::compile_with(&clause, &stats, CostModelKind::Histogram.model());
        assert_eq!(hist.steps[0].literal, 1, "histogram should pick flat");
        assert!(hist.steps[0].estimated_rows < hist.steps[1].estimated_rows);
    }
}

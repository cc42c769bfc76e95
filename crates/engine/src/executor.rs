//! Plan execution: a backtracking index-nested-loop join over a compiled
//! [`ClausePlan`].
//!
//! Unlike the interpreted evaluator, the executor never reconsiders literal
//! order: each step's access path (the index positions to probe) was fixed
//! at compile time, so the per-node work is one index lookup plus
//! unification. Bindings are undone through a trail rather than cloning the
//! substitution per candidate.

use crate::plan::ClausePlan;
use castor_logic::evaluation::{bind_head, unify_with_tuple};
use castor_logic::{Clause, CoverageOutcome, EvalBudget, Substitution, Term};
use castor_relational::{DatabaseInstance, Tuple, Value};

/// Whether `clause` covers `example` over `db`, following `plan`.
///
/// Semantics match [`castor_logic::covers_example_budgeted`]: the head is
/// bound to the example, then the body is searched for one satisfying
/// assignment within the node budget.
pub fn covers_with_plan(
    clause: &Clause,
    plan: &ClausePlan,
    db: &DatabaseInstance,
    example: &Tuple,
    budget: &mut EvalBudget,
) -> CoverageOutcome {
    debug_assert_eq!(plan.steps.len(), clause.body.len(), "plan/clause mismatch");
    let Some(mut theta) = bind_head(clause, example) else {
        return CoverageOutcome::NotCovered;
    };
    let mut trail: Vec<String> = Vec::new();
    let found = solve(clause, plan, db, 0, &mut theta, &mut trail, budget);
    if found {
        CoverageOutcome::Covered
    } else if budget.was_exhausted() {
        CoverageOutcome::Exhausted
    } else {
        CoverageOutcome::NotCovered
    }
}

fn solve(
    clause: &Clause,
    plan: &ClausePlan,
    db: &DatabaseInstance,
    step_idx: usize,
    theta: &mut Substitution,
    trail: &mut Vec<String>,
    budget: &mut EvalBudget,
) -> bool {
    let Some(step) = plan.steps.get(step_idx) else {
        return true; // every literal solved
    };
    let atom = &clause.body[step.literal];
    let Some(instance) = db.relation(&atom.relation) else {
        return false; // unknown relation ⇒ body unsatisfiable
    };

    let candidates: Vec<&Tuple> = if step.bound_positions.is_empty() {
        instance.iter().collect()
    } else {
        let key: Vec<Value> = step
            .bound_positions
            .iter()
            .map(|&pos| match &atom.terms[pos] {
                Term::Const(v) => v.clone(),
                Term::Var(name) => match theta.get(name) {
                    Some(Term::Const(v)) => v.clone(),
                    // The planner guarantees the variable is bound here; a
                    // miss would be a plan/execution mismatch.
                    _ => unreachable!("planned-bound variable {name} unbound at execution"),
                },
            })
            .collect();
        instance.select_on_positions(&step.bound_positions, &key)
    };

    for tuple in candidates {
        if !budget.consume() {
            return false;
        }
        let mark = trail.len();
        if unify_with_tuple(atom, tuple, theta, trail)
            && solve(clause, plan, db, step_idx + 1, theta, trail, budget)
        {
            return true;
        }
        for name in trail.drain(mark..) {
            theta.unbind(&name);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DatabaseStatistics;
    use castor_logic::Atom;
    use castor_relational::{RelationSymbol, Schema};

    fn db() -> DatabaseInstance {
        let mut schema = Schema::new("t");
        schema
            .add_relation(RelationSymbol::new("publication", &["title", "person"]))
            .add_relation(RelationSymbol::new("professor", &["prof"]));
        let mut db = DatabaseInstance::empty(&schema);
        for (t, p) in [("p1", "ann"), ("p1", "bob"), ("p2", "carol")] {
            db.insert("publication", Tuple::from_strs(&[t, p])).unwrap();
        }
        db.insert("professor", Tuple::from_strs(&["ann"])).unwrap();
        db
    }

    fn plan_for(clause: &Clause, db: &DatabaseInstance) -> ClausePlan {
        ClausePlan::compile(clause, &DatabaseStatistics::gather(db))
    }

    #[test]
    fn executor_agrees_with_reference_semantics() {
        let db = db();
        let clause = Clause::new(
            Atom::vars("collaborated", &["x", "y"]),
            vec![
                Atom::vars("publication", &["p", "x"]),
                Atom::vars("publication", &["p", "y"]),
            ],
        );
        let plan = plan_for(&clause, &db);
        for example in [
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["ann", "carol"]),
            Tuple::from_strs(&["carol", "carol"]),
            Tuple::from_strs(&["nobody", "ann"]),
        ] {
            let mut budget = EvalBudget::default();
            let planned = covers_with_plan(&clause, &plan, &db, &example, &mut budget);
            let reference = castor_logic::covers_example(&clause, &db, &example);
            assert_eq!(planned.is_covered(), reference, "example {example}");
        }
    }

    #[test]
    fn zero_budget_reports_exhaustion() {
        let db = db();
        let clause = Clause::new(
            Atom::vars("t", &["x"]),
            vec![Atom::vars("professor", &["x"])],
        );
        let plan = plan_for(&clause, &db);
        let mut budget = EvalBudget::new(0);
        assert_eq!(
            covers_with_plan(
                &clause,
                &plan,
                &db,
                &Tuple::from_strs(&["ann"]),
                &mut budget
            ),
            CoverageOutcome::Exhausted
        );
    }

    #[test]
    fn empty_body_covers_iff_head_binds() {
        let db = db();
        let clause = Clause::fact(Atom::vars("t", &["x"]));
        let plan = plan_for(&clause, &db);
        let mut budget = EvalBudget::default();
        assert_eq!(
            covers_with_plan(
                &clause,
                &plan,
                &db,
                &Tuple::from_strs(&["anything"]),
                &mut budget
            ),
            CoverageOutcome::Covered
        );
    }
}

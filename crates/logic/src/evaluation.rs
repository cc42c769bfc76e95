//! Clause and definition evaluation over database instances.
//!
//! The result of applying a Horn definition `h_R` to an instance `I`
//! (written `h_R(I)` in Section 3.2.2) is the set of head instantiations
//! whose body is satisfied in `I`. This module evaluates clauses with a
//! backtracking join that drives candidate generation from the per-attribute
//! hash indexes of [`castor_relational::RelationInstance`].
//!
//! Evaluation is *budgeted*: body satisfiability over a database is NP-hard
//! in the clause size, so each test explores at most a configurable number
//! of candidate tuples. Unlike the original implementation, an exhausted
//! budget is reported as [`CoverageOutcome::Exhausted`] rather than silently
//! conflated with "not covered" — callers (notably `castor-engine`) surface
//! the distinction through their statistics.

use crate::atom::Atom;
use crate::clause::Clause;
use crate::definition::Definition;
use crate::substitution::Substitution;
use crate::term::Term;
use castor_relational::{DatabaseInstance, Tuple, Value};
use std::collections::HashSet;

/// Default backtracking budget for one clause evaluation / coverage test.
/// Bounding the number of candidate tuples explored keeps coverage testing
/// predictable on the long clauses bottom-up learners produce (an exhausted
/// budget mirrors the approximate subsumption the paper uses).
pub const DEFAULT_EVAL_NODE_BUDGET: usize = 30_000;

/// The outcome of one budgeted coverage test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoverageOutcome {
    /// A satisfying assignment of the body was found.
    Covered,
    /// The search space was exhausted without finding one.
    NotCovered,
    /// The node budget ran out before the search completed; the example is
    /// *treated* as not covered, but the caller can tell the difference.
    Exhausted,
}

impl CoverageOutcome {
    /// Whether the example counts as covered.
    pub fn is_covered(self) -> bool {
        matches!(self, CoverageOutcome::Covered)
    }

    /// Whether the verdict is approximate (budget ran out).
    pub fn is_exhausted(self) -> bool {
        matches!(self, CoverageOutcome::Exhausted)
    }
}

/// A consumable node budget for one evaluation, tracking whether it ever ran
/// dry (which downgrades a "not covered" verdict to "exhausted").
///
/// A budget can additionally carry a *cancellation token* (an
/// `Arc<AtomicBool>` shared with a serving layer). Once it is set, the next
/// [`EvalBudget::consume`] fails exactly like an exhausted budget, so a
/// long-running coverage job unwinds through its normal budget-exhaustion
/// path within one candidate tuple of the cancel request.
#[derive(Debug, Clone)]
pub struct EvalBudget {
    remaining: usize,
    exhausted: bool,
    cancelled: bool,
    cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl EvalBudget {
    /// A budget of `nodes` candidate tuples.
    pub fn new(nodes: usize) -> Self {
        EvalBudget {
            remaining: nodes,
            exhausted: false,
            cancelled: false,
            cancel: None,
        }
    }

    /// A budget of `nodes` candidate tuples that also aborts (as an
    /// exhaustion) once `cancel` is set.
    pub fn with_cancel(
        nodes: usize,
        cancel: std::sync::Arc<std::sync::atomic::AtomicBool>,
    ) -> Self {
        EvalBudget {
            remaining: nodes,
            exhausted: false,
            cancelled: false,
            cancel: Some(cancel),
        }
    }

    /// Consumes one node; returns `false` (and records exhaustion) when the
    /// budget has run out or the cancellation token was set.
    /// Public so `castor-engine`'s per-clause plan executor shares the same
    /// accounting. Its batched trie executor does not call it: it keeps one
    /// plain counter per candidate, starting from the template's
    /// [`EvalBudget::remaining`], and polls [`EvalBudget::cancel_pending`]
    /// once per probed tuple.
    pub fn consume(&mut self) -> bool {
        if self.cancel_pending() {
            self.cancelled = true;
            self.exhausted = true;
            return false;
        }
        if self.remaining == 0 {
            self.exhausted = true;
            return false;
        }
        self.remaining -= 1;
        true
    }

    /// Whether the budget ran out at any point during the search.
    pub fn was_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Whether the search was aborted by the cancellation token (implies
    /// [`EvalBudget::was_exhausted`]).
    pub fn was_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Whether the installed cancellation token is currently set: the next
    /// [`EvalBudget::consume`] (of this budget or any clone of it) will
    /// abort through the exhaustion path. Coverage engines consult this to
    /// keep abort-driven verdicts out of budget-keyed exhaustion caches.
    pub fn cancel_pending(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|t| t.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Nodes still available.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl Default for EvalBudget {
    fn default() -> Self {
        EvalBudget::new(DEFAULT_EVAL_NODE_BUDGET)
    }
}

/// Evaluates a clause over `db`, returning every head tuple derivable from
/// the instance. Unsafe clauses (head variables not bound by the body) yield
/// only the instantiations justified by the body; unbound head variables
/// make the clause produce no tuples, mirroring the finite-answer semantics
/// used in the paper's discussion of safe clauses.
pub fn clause_results(clause: &Clause, db: &DatabaseInstance) -> HashSet<Tuple> {
    clause_results_budgeted(clause, db, &mut EvalBudget::default())
}

/// [`clause_results`] with an explicit, reusable budget.
pub fn clause_results_budgeted(
    clause: &Clause,
    db: &DatabaseInstance,
    budget: &mut EvalBudget,
) -> HashSet<Tuple> {
    let mut results = HashSet::new();
    let mut theta = Substitution::new();
    let mut search = Search::new(db, &clause.body, budget);
    search.run(&mut theta, &mut |theta| {
        let head = theta.apply_atom(&clause.head);
        if let Some(tuple) = head.to_tuple() {
            results.insert(tuple);
        }
        false // keep enumerating: we want every result
    });
    results
}

/// Evaluates a definition (union of clauses) over `db`.
pub fn definition_results(def: &Definition, db: &DatabaseInstance) -> HashSet<Tuple> {
    let mut out = HashSet::new();
    for clause in &def.clauses {
        out.extend(clause_results(clause, db));
    }
    out
}

/// Whether the clause covers `example` relative to `db`: binding the head
/// arguments to the example's constants, is the body satisfiable in `db`?
/// An exhausted budget counts as "not covered"; use
/// [`covers_example_budgeted`] to observe the distinction.
pub fn covers_example(clause: &Clause, db: &DatabaseInstance, example: &Tuple) -> bool {
    covers_example_budgeted(clause, db, example, &mut EvalBudget::default()).is_covered()
}

/// Budgeted coverage test with a tri-state outcome.
pub fn covers_example_budgeted(
    clause: &Clause,
    db: &DatabaseInstance,
    example: &Tuple,
    budget: &mut EvalBudget,
) -> CoverageOutcome {
    let Some(mut theta) = bind_head(clause, example) else {
        return CoverageOutcome::NotCovered;
    };
    let mut found = false;
    let mut search = Search::new(db, &clause.body, budget);
    search.run(&mut theta, &mut |_| {
        found = true;
        true // stop at the first satisfying assignment
    });
    if found {
        CoverageOutcome::Covered
    } else if budget.was_exhausted() {
        CoverageOutcome::Exhausted
    } else {
        CoverageOutcome::NotCovered
    }
}

/// Binds the clause head to the example's constants, or `None` when a head
/// constant conflicts with the example (in which case the clause can never
/// cover it).
pub fn bind_head(clause: &Clause, example: &Tuple) -> Option<Substitution> {
    if clause.head.arity() != example.arity() {
        return None;
    }
    let mut theta = Substitution::new();
    for (term, value) in clause.head.terms.iter().zip(example.iter()) {
        match term {
            Term::Const(c) => {
                if c != value {
                    return None;
                }
            }
            Term::Var(name) => {
                if !theta.try_bind(name, &Term::Const(value.clone())) {
                    return None;
                }
            }
        }
    }
    Some(theta)
}

/// Whether any clause of the definition covers the example.
pub fn definition_covers(def: &Definition, db: &DatabaseInstance, example: &Tuple) -> bool {
    def.clauses.iter().any(|c| covers_example(c, db, example))
}

/// Counts how many of `examples` are covered by the definition.
pub fn covered_count(def: &Definition, db: &DatabaseInstance, examples: &[Tuple]) -> usize {
    examples
        .iter()
        .filter(|e| definition_covers(def, db, e))
        .count()
}

/// Backtracking evaluation of a clause body under θ. Literals are selected
/// dynamically (most θ-bound arguments first, mirroring an index-backed
/// access path), tracked through a boolean mask over the body instead of
/// re-allocating the remaining-literal vector at every node, and bindings
/// are undone through a trail instead of cloning θ per candidate tuple.
struct Search<'a> {
    db: &'a DatabaseInstance,
    body: &'a [Atom],
    used: Vec<bool>,
    trail: Vec<String>,
    budget: &'a mut EvalBudget,
}

impl<'a> Search<'a> {
    fn new(db: &'a DatabaseInstance, body: &'a [Atom], budget: &'a mut EvalBudget) -> Self {
        Search {
            db,
            body,
            used: vec![false; body.len()],
            trail: Vec::new(),
            budget,
        }
    }

    /// Runs the search, invoking `on_solution` for every satisfying
    /// assignment; `on_solution` returns `true` to stop early.
    fn run(
        &mut self,
        theta: &mut Substitution,
        on_solution: &mut dyn FnMut(&Substitution) -> bool,
    ) -> bool {
        self.enumerate(self.body.len(), theta, on_solution)
    }

    fn enumerate(
        &mut self,
        remaining: usize,
        theta: &mut Substitution,
        on_solution: &mut dyn FnMut(&Substitution) -> bool,
    ) -> bool {
        if remaining == 0 {
            return on_solution(theta);
        }
        // Pick the next literal to solve: the unused one with the most bound
        // arguments (most selective first).
        let pos = (0..self.body.len())
            .filter(|&i| !self.used[i])
            .max_by_key(|&i| bound_positions(&self.body[i], theta).len())
            .expect("remaining > 0 implies an unused literal");
        let atom = &self.body[pos];

        let Some(instance) = self.db.relation(&atom.relation) else {
            return false; // unknown relation ⇒ body unsatisfiable
        };

        let bound = bound_positions(atom, theta);
        let candidates: Vec<&Tuple> = if bound.is_empty() {
            instance.iter().collect()
        } else {
            let positions: Vec<usize> = bound.iter().map(|(p, _)| *p).collect();
            let key: Vec<&Value> = bound.iter().map(|&(_, v)| v).collect();
            instance.select_on_positions(&positions, &key)
        };

        self.used[pos] = true;
        let mut stop = false;
        for tuple in candidates {
            if !self.budget.consume() {
                break;
            }
            let mark = self.trail.len();
            if unify_with_tuple(atom, tuple, theta, &mut self.trail)
                && self.enumerate(remaining - 1, theta, on_solution)
            {
                stop = true;
            }
            for name in self.trail.drain(mark..) {
                theta.unbind(&name);
            }
            if stop {
                break;
            }
        }
        self.used[pos] = false;
        stop
    }
}

/// The argument positions of `atom` that are constants or θ-bound variables,
/// together with the constant each must equal.
fn bound_positions<'t>(atom: &'t Atom, theta: &'t Substitution) -> Vec<(usize, &'t Value)> {
    let mut out = Vec::new();
    for (i, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Const(v) => out.push((i, v)),
            Term::Var(name) => {
                if let Some(Term::Const(v)) = theta.get(name) {
                    out.push((i, v));
                }
            }
        }
    }
    out
}

/// Extends θ so that `atom` matches the ground `tuple`, recording every
/// newly created binding on `trail` so the caller can undo it. Public so
/// the substitution-based oracle in `castor-engine`'s executor tests unifies
/// exactly as this evaluator does.
pub fn unify_with_tuple(
    atom: &Atom,
    tuple: &Tuple,
    theta: &mut Substitution,
    trail: &mut Vec<String>,
) -> bool {
    if atom.arity() != tuple.arity() {
        return false;
    }
    for (term, value) in atom.terms.iter().zip(tuple.iter()) {
        match term {
            Term::Const(c) => {
                if c != value {
                    return false;
                }
            }
            Term::Var(name) => {
                if theta.binds(name) {
                    if theta.get(name) != Some(&Term::Const(value.clone())) {
                        return false;
                    }
                } else {
                    theta.bind(name.clone(), Term::Const(value.clone()));
                    trail.push(name.clone());
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_relational::{RelationSymbol, Schema};

    fn collaboration_db() -> DatabaseInstance {
        let mut schema = Schema::new("test");
        schema
            .add_relation(RelationSymbol::new("publication", &["title", "person"]))
            .add_relation(RelationSymbol::new("professor", &["prof"]));
        let mut db = DatabaseInstance::empty(&schema);
        for (t, p) in [("p1", "ann"), ("p1", "bob"), ("p2", "ann"), ("p3", "carol")] {
            db.insert("publication", Tuple::from_strs(&[t, p])).unwrap();
        }
        db.insert("professor", Tuple::from_strs(&["ann"])).unwrap();
        db.insert("professor", Tuple::from_strs(&["bob"])).unwrap();
        db
    }

    fn collaborated_clause() -> Clause {
        Clause::new(
            Atom::vars("collaborated", &["x", "y"]),
            vec![
                Atom::vars("publication", &["p", "x"]),
                Atom::vars("publication", &["p", "y"]),
            ],
        )
    }

    #[test]
    fn clause_results_enumerate_head_tuples() {
        let db = collaboration_db();
        let results = clause_results(&collaborated_clause(), &db);
        // Co-authorship pairs including self-pairs: (ann,ann),(ann,bob),
        // (bob,ann),(bob,bob),(carol,carol).
        assert!(results.contains(&Tuple::from_strs(&["ann", "bob"])));
        assert!(results.contains(&Tuple::from_strs(&["bob", "ann"])));
        assert!(results.contains(&Tuple::from_strs(&["carol", "carol"])));
        assert!(!results.contains(&Tuple::from_strs(&["ann", "carol"])));
        assert_eq!(results.len(), 5);
    }

    #[test]
    fn covers_example_checks_body_satisfiability() {
        let db = collaboration_db();
        let c = collaborated_clause();
        assert!(covers_example(&c, &db, &Tuple::from_strs(&["ann", "bob"])));
        assert!(!covers_example(
            &c,
            &db,
            &Tuple::from_strs(&["ann", "carol"])
        ));
    }

    #[test]
    fn constants_in_body_restrict_results() {
        let db = collaboration_db();
        let c = Clause::new(
            Atom::vars("hasPub", &["x"]),
            vec![Atom::new(
                "publication",
                vec![Term::constant("p1"), Term::var("x")],
            )],
        );
        let results = clause_results(&c, &db);
        assert_eq!(results.len(), 2);
        assert!(results.contains(&Tuple::from_strs(&["ann"])));
    }

    #[test]
    fn definition_union_semantics() {
        let db = collaboration_db();
        let def = Definition::new(
            "person",
            vec![
                Clause::new(
                    Atom::vars("person", &["x"]),
                    vec![Atom::vars("professor", &["x"])],
                ),
                Clause::new(
                    Atom::vars("person", &["x"]),
                    vec![Atom::vars("publication", &["p", "x"])],
                ),
            ],
        );
        let results = definition_results(&def, &db);
        assert_eq!(results.len(), 3); // ann, bob, carol
        assert!(definition_covers(&def, &db, &Tuple::from_strs(&["carol"])));
        assert_eq!(
            covered_count(
                &def,
                &db,
                &[Tuple::from_strs(&["ann"]), Tuple::from_strs(&["nobody"])]
            ),
            1
        );
    }

    #[test]
    fn unknown_relation_in_body_yields_nothing() {
        let db = collaboration_db();
        let c = Clause::new(
            Atom::vars("t", &["x"]),
            vec![Atom::vars("missingRelation", &["x"])],
        );
        assert!(clause_results(&c, &db).is_empty());
        assert!(!covers_example(&c, &db, &Tuple::from_strs(&["ann"])));
    }

    #[test]
    fn unsafe_clause_produces_no_tuples() {
        let db = collaboration_db();
        // Head variable y never appears in the body.
        let c = Clause::new(
            Atom::vars("t", &["x", "y"]),
            vec![Atom::vars("professor", &["x"])],
        );
        assert!(clause_results(&c, &db).is_empty());
    }

    #[test]
    fn empty_body_clause_with_ground_head() {
        let db = collaboration_db();
        let c = Clause::fact(Atom::new(
            "t",
            vec![Term::constant("a"), Term::constant("b")],
        ));
        let results = clause_results(&c, &db);
        assert_eq!(results.len(), 1);
        assert!(results.contains(&Tuple::from_strs(&["a", "b"])));
    }

    #[test]
    fn head_with_constant_filters_examples() {
        let db = collaboration_db();
        let c = Clause::new(
            Atom::new("t", vec![Term::constant("ann")]),
            vec![Atom::vars("professor", &["x"])],
        );
        assert!(covers_example(&c, &db, &Tuple::from_strs(&["ann"])));
        assert!(!covers_example(&c, &db, &Tuple::from_strs(&["bob"])));
    }

    #[test]
    fn exhausted_budget_is_distinguished_from_not_covered() {
        let db = collaboration_db();
        let c = collaborated_clause();
        // Zero budget: cannot even look at one candidate tuple.
        let mut starved = EvalBudget::new(0);
        let outcome =
            covers_example_budgeted(&c, &db, &Tuple::from_strs(&["ann", "bob"]), &mut starved);
        assert_eq!(outcome, CoverageOutcome::Exhausted);
        assert!(starved.was_exhausted());
        // A genuinely uncovered example with ample budget is NotCovered.
        let mut ample = EvalBudget::default();
        let outcome =
            covers_example_budgeted(&c, &db, &Tuple::from_strs(&["ann", "carol"]), &mut ample);
        assert_eq!(outcome, CoverageOutcome::NotCovered);
        assert!(!ample.was_exhausted());
    }

    #[test]
    fn head_constant_conflict_short_circuits() {
        let db = collaboration_db();
        let c = Clause::new(
            Atom::new("t", vec![Term::constant("ann")]),
            vec![Atom::vars("professor", &["x"])],
        );
        assert!(bind_head(&c, &Tuple::from_strs(&["bob"])).is_none());
        let mut budget = EvalBudget::default();
        assert_eq!(
            covers_example_budgeted(&c, &db, &Tuple::from_strs(&["bob"]), &mut budget),
            CoverageOutcome::NotCovered
        );
        assert_eq!(budget.remaining(), DEFAULT_EVAL_NODE_BUDGET);
    }

    #[test]
    fn budget_is_shared_across_calls() {
        let db = collaboration_db();
        let c = collaborated_clause();
        let mut budget = EvalBudget::new(1_000);
        let before = budget.remaining();
        covers_example_budgeted(&c, &db, &Tuple::from_strs(&["ann", "bob"]), &mut budget);
        assert!(budget.remaining() < before);
    }

    #[test]
    fn cancellation_token_aborts_as_exhaustion() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let token = Arc::new(AtomicBool::new(false));
        let mut budget = EvalBudget::with_cancel(1_000, Arc::clone(&token));
        assert!(budget.consume());
        assert!(!budget.was_cancelled());
        token.store(true, Ordering::Relaxed);
        assert!(!budget.consume());
        assert!(budget.was_exhausted());
        assert!(budget.was_cancelled());
        // A cancelled search reports Exhausted through the normal path.
        let db = collaboration_db();
        let c = collaborated_clause();
        let mut cancelled = EvalBudget::with_cancel(1_000, token);
        assert_eq!(
            covers_example_budgeted(&c, &db, &Tuple::from_strs(&["ann", "bob"]), &mut cancelled),
            CoverageOutcome::Exhausted
        );
    }
}

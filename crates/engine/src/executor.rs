//! Plan execution: a backtracking index-nested-loop join over a compiled
//! [`ClausePlan`].
//!
//! Unlike the interpreted evaluator, the executor never reconsiders literal
//! order: each step's access path (the index positions to probe) and its
//! arguments (constants and registers) were fixed when the plan was
//! compiled, so the per-node work is one index probe plus one comparison
//! or binding per argument. Bindings live in a register file of references
//! into the example and the database tuples and are undone through a trail
//! of register indexes: no substitution keyed by variable name, no value
//! clones. The batched trie executor in [`crate::batch`] runs on the same
//! bindings.

use crate::plan::ClausePlan;
use castor_logic::{Atom, CoverageOutcome, EvalBudget, Term};
use castor_relational::{DatabaseInstance, RelationInstance, Tuple, Value};
use std::collections::BTreeMap;

/// A literal argument compiled against a plan's registers and constant
/// pool. It is eight bytes: cached plans hold one per argument of every
/// step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arg {
    /// The constant at this index of the plan's pool, which the tuple must
    /// carry at this position.
    Const(u32),
    /// A variable's register: bound by the first literal on the path that
    /// reaches it unbound, compared by every later one.
    Var(u32),
}

/// Compiles the literals of one plan: a register per distinct variable and
/// a pool slot per constant occurrence.
#[derive(Debug, Default)]
pub(crate) struct ArgCompiler {
    registers: BTreeMap<String, u32>,
    constants: Vec<Value>,
}

impl ArgCompiler {
    /// Compiles `atom`'s arguments.
    pub(crate) fn compile(&mut self, atom: &Atom) -> Vec<Arg> {
        atom.terms
            .iter()
            .map(|term| match term {
                Term::Const(v) => {
                    self.constants.push(v.clone());
                    let slot = self.constants.len() - 1;
                    Arg::Const(u32::try_from(slot).expect("under 2^32 constants per plan"))
                }
                Term::Var(name) => {
                    let next =
                        u32::try_from(self.registers.len()).expect("under 2^32 variables per plan");
                    Arg::Var(*self.registers.entry(name.clone()).or_insert(next))
                }
            })
            .collect()
    }

    /// The size of the register file and the constant pool.
    pub(crate) fn finish(self) -> (usize, Vec<Value>) {
        (self.registers.len(), self.constants)
    }
}

/// The variable bindings of one search: the value each register is bound
/// to, the registers bound since each choice point, a reusable index-probe
/// key, and the plan's constant pool.
pub(crate) struct Bindings<'a> {
    registers: Vec<Option<&'a Value>>,
    trail: Vec<u32>,
    key: Vec<&'a Value>,
    constants: &'a [Value],
}

impl<'a> Bindings<'a> {
    /// An empty register file of `registers` slots for arguments compiled
    /// against `constants`.
    pub(crate) fn new(registers: usize, constants: &'a [Value]) -> Self {
        Bindings {
            registers: vec![None; registers],
            trail: Vec::new(),
            key: Vec::new(),
            constants,
        }
    }

    /// Matches `args` against `tuple`, binding unbound registers and
    /// recording them on the trail. On failure, bindings made so far stay
    /// on the trail for the caller to [`Bindings::undo`].
    pub(crate) fn unify(&mut self, args: &[Arg], tuple: &'a Tuple) -> bool {
        if args.len() != tuple.arity() {
            return false;
        }
        for (&arg, value) in args.iter().zip(tuple.values()) {
            match arg {
                Arg::Const(c) => {
                    if self.constants[c as usize] != *value {
                        return false;
                    }
                }
                Arg::Var(r) => match self.registers[r as usize] {
                    Some(bound) => {
                        if bound != value {
                            return false;
                        }
                    }
                    None => {
                        self.registers[r as usize] = Some(value);
                        self.trail.push(r);
                    }
                },
            }
        }
        true
    }

    /// The current trail position, to [`Bindings::undo`] back to.
    pub(crate) fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Unbinds every register bound since `mark`.
    pub(crate) fn undo(&mut self, mark: usize) {
        for r in self.trail.drain(mark..) {
            self.registers[r as usize] = None;
        }
    }

    /// The tuples of `instance` that agree with the bound `positions` of
    /// `args` (every tuple when none is bound). The compiler guarantees
    /// that a bound position holds a constant or an already-bound register.
    pub(crate) fn probe(
        &mut self,
        instance: &'a RelationInstance,
        positions: &[usize],
        args: &[Arg],
    ) -> Vec<&'a Tuple> {
        if positions.is_empty() {
            return instance.iter().collect();
        }
        self.key.clear();
        for &pos in positions {
            self.key.push(match args[pos] {
                Arg::Const(c) => &self.constants[c as usize],
                Arg::Var(r) => self.registers[r as usize].expect("planned-bound register unbound"),
            });
        }
        instance.select_on_positions(positions, &self.key)
    }
}

/// Whether the clause `plan` was compiled from covers `example` over `db`.
///
/// Semantics match [`castor_logic::covers_example_budgeted`]: the head is
/// bound to the example, then the body is searched for one satisfying
/// assignment within the node budget, one [`EvalBudget::consume`] per
/// candidate tuple.
pub fn covers_with_plan(
    plan: &ClausePlan,
    db: &DatabaseInstance,
    example: &Tuple,
    budget: &mut EvalBudget,
) -> CoverageOutcome {
    let mut bindings = Bindings::new(plan.registers, &plan.constants);
    if !bindings.unify(&plan.head_args, example) {
        return CoverageOutcome::NotCovered;
    }
    let mut search = Search {
        plan,
        relations: plan
            .steps
            .iter()
            .map(|s| s.relation.and_then(|i| db.relation(&plan.epochs[i].0)))
            .collect(),
        bindings,
        budget,
    };
    if search.solve(0) {
        CoverageOutcome::Covered
    } else if search.budget.was_exhausted() {
        CoverageOutcome::Exhausted
    } else {
        CoverageOutcome::NotCovered
    }
}

/// Execution state of one coverage test.
struct Search<'a, 'b> {
    plan: &'a ClausePlan,
    /// Each step's relation instance (`None`: unknown to the database).
    relations: Vec<Option<&'a RelationInstance>>,
    bindings: Bindings<'a>,
    budget: &'b mut EvalBudget,
}

impl Search<'_, '_> {
    fn solve(&mut self, step_idx: usize) -> bool {
        let plan = self.plan;
        let Some(step) = plan.steps.get(step_idx) else {
            return true; // every literal solved
        };
        let Some(instance) = self.relations[step_idx] else {
            return false; // unknown relation ⇒ body unsatisfiable
        };
        let candidates = self
            .bindings
            .probe(instance, &step.bound_positions, &step.args);
        for tuple in candidates {
            if !self.budget.consume() {
                return false;
            }
            let mark = self.bindings.mark();
            if self.bindings.unify(&step.args, tuple) && self.solve(step_idx + 1) {
                return true;
            }
            self.bindings.undo(mark);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModelKind;
    use crate::stats::DatabaseStatistics;
    use castor_logic::evaluation::{bind_head, unify_with_tuple};
    use castor_logic::{Clause, Substitution};
    use castor_relational::{RelationSymbol, Schema};

    /// The substitution-based executor the register executor replaced,
    /// kept as an oracle: the same plan order and one
    /// [`EvalBudget::consume`] per candidate tuple, over a
    /// `Substitution` with a trail of variable names.
    fn reference_covers(
        clause: &Clause,
        plan: &ClausePlan,
        db: &DatabaseInstance,
        example: &Tuple,
        budget: &mut EvalBudget,
    ) -> CoverageOutcome {
        let Some(mut theta) = bind_head(clause, example) else {
            return CoverageOutcome::NotCovered;
        };
        let mut trail: Vec<String> = Vec::new();
        if reference_solve(clause, plan, db, 0, &mut theta, &mut trail, budget) {
            CoverageOutcome::Covered
        } else if budget.was_exhausted() {
            CoverageOutcome::Exhausted
        } else {
            CoverageOutcome::NotCovered
        }
    }

    fn reference_solve(
        clause: &Clause,
        plan: &ClausePlan,
        db: &DatabaseInstance,
        step_idx: usize,
        theta: &mut Substitution,
        trail: &mut Vec<String>,
        budget: &mut EvalBudget,
    ) -> bool {
        let Some(step) = plan.steps.get(step_idx) else {
            return true;
        };
        let atom = &clause.body[step.literal];
        let Some(instance) = db.relation(&atom.relation) else {
            return false;
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
                        _ => unreachable!("planned-bound variable {name} unbound"),
                    },
                })
                .collect();
            let key: Vec<&Value> = key.iter().collect();
            instance.select_on_positions(&step.bound_positions, &key)
        };
        for tuple in candidates {
            if !budget.consume() {
                return false;
            }
            let mark = trail.len();
            if unify_with_tuple(atom, tuple, theta, trail)
                && reference_solve(clause, plan, db, step_idx + 1, theta, trail, budget)
            {
                return true;
            }
            for name in trail.drain(mark..) {
                theta.unbind(&name);
            }
        }
        false
    }

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
            let planned = covers_with_plan(&plan, &db, &example, &mut budget);
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
            covers_with_plan(&plan, &db, &Tuple::from_strs(&["ann"]), &mut budget),
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
            covers_with_plan(&plan, &db, &Tuple::from_strs(&["anything"]), &mut budget),
            CoverageOutcome::Covered
        );
    }

    /// A deterministic xorshift generator, so every case replays.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Three relations of arity 1–3 over a six-value domain, dense enough
    /// that long bodies branch and small budgets run out.
    fn random_db(rng: &mut Rng) -> DatabaseInstance {
        let mut schema = Schema::new("random");
        schema
            .add_relation(RelationSymbol::new("u", &["a"]))
            .add_relation(RelationSymbol::new("r", &["a", "b"]))
            .add_relation(RelationSymbol::new("s", &["a", "b", "c"]));
        let mut db = DatabaseInstance::empty(&schema);
        for (relation, arity, rows) in [("u", 1, 4), ("r", 2, 24), ("s", 3, 30)] {
            for _ in 0..rows {
                let values: Vec<String> =
                    (0..arity).map(|_| format!("c{}", rng.below(6))).collect();
                let values: Vec<&str> = values.iter().map(String::as_str).collect();
                let _ = db.insert(relation, Tuple::from_strs(&values));
            }
        }
        db
    }

    /// A term: mostly one of six variables, sometimes a constant (one
    /// outside the domain now and then).
    fn random_term(rng: &mut Rng) -> Term {
        match rng.below(10) {
            0 => Term::constant(format!("c{}", rng.below(7))),
            _ => Term::var(format!("v{}", rng.below(6))),
        }
    }

    fn random_clause(rng: &mut Rng) -> Clause {
        let head = Atom::new(
            "t",
            (0..1 + rng.below(2)).map(|_| random_term(rng)).collect(),
        );
        let body = (0..rng.below(7))
            .map(|_| {
                let (relation, arity) = [
                    ("u", 1),
                    ("r", 2),
                    ("s", 3),
                    ("r", 2),
                    ("s", 3),
                    ("missing", 1),
                ][rng.below(6)];
                Atom::new(relation, (0..arity).map(|_| random_term(rng)).collect())
            })
            .collect();
        Clause::new(head, body)
    }

    #[test]
    fn register_executor_matches_the_substitution_oracle() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let budgets = [0, 1, 2, 3, 5, 8, 13, 40, 150, 1_000, 30_000];
        let mut seen = [0usize; 3];
        for round in 0..30 {
            let db = random_db(&mut rng);
            let stats = DatabaseStatistics::gather(&db);
            for case in 0..100 {
                let clause = random_clause(&mut rng);
                let model = if case % 2 == 0 {
                    CostModelKind::Uniform
                } else {
                    CostModelKind::Histogram
                };
                let plan = ClausePlan::compile_with(&clause, &stats, model.model());
                let example: Vec<String> = (0..clause.head.arity())
                    .map(|_| format!("c{}", rng.below(7)))
                    .collect();
                let example: Vec<&str> = example.iter().map(String::as_str).collect();
                let example = Tuple::from_strs(&example);
                let nodes = match rng.below(4) {
                    0 => rng.below(30_001),
                    _ => budgets[rng.below(budgets.len())],
                };
                let mut ours = EvalBudget::new(nodes);
                let mut oracle = EvalBudget::new(nodes);
                let got = covers_with_plan(&plan, &db, &example, &mut ours);
                let want = reference_covers(&clause, &plan, &db, &example, &mut oracle);
                assert_eq!(
                    got, want,
                    "round {round} case {case}: {clause} on {example}"
                );
                assert_eq!(
                    ours.remaining(),
                    oracle.remaining(),
                    "round {round} case {case}: {clause} on {example}, budget {nodes}"
                );
                seen[got as usize] += 1;
            }
        }
        // Every verdict kind occurs, so the comparison is not vacuous.
        assert!(seen.iter().all(|&n| n >= 100), "verdict mix {seen:?}");
    }
}

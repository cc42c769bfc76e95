//! θ-subsumption.
//!
//! Clause `C` θ-subsumes clause `D` iff there is a substitution θ such that
//! `Cθ ⊆ D` (treating clauses as sets of literals). Castor's coverage test
//! is exactly θ-subsumption of a candidate clause against the ground
//! bottom-clause of an example (Section 7.5.3); the paper delegates this to
//! the Resumer2 engine, which this module replaces with a backtracking
//! matcher with literal ordering and forward-pruning heuristics.
//!
//! # The kernel
//!
//! Each test first numbers the variables of `C` with dense *slots* and
//! compiles every literal of `C` into a pattern of slots and constants. The
//! bindings are a `Vec<Option<&Term>>` indexed by slot, pointing into `D`'s
//! own terms, so binding a variable copies nothing. Every new binding is
//! pushed on a *trail*; when a candidate literal of `D` fails (at once or
//! further down the search), the bindings made since the trail mark taken
//! before it are undone. The witnessing [`Substitution`] is built once, on
//! success.
//!
//! Invariant: the search visits nodes in exactly the order of the
//! reference matcher in this module's tests, which clones a
//! `BTreeMap`-backed substitution per node — same literal order
//! (duplicates dropped, fewest candidates first, then connected literals
//! first), same candidate order, one [`EvalBudget::consume`] per candidate
//! tried — so verdicts, exhaustions and node counts are identical to it.

use crate::atom::Atom;
use crate::clause::Clause;
use crate::evaluation::EvalBudget;
use crate::substitution::Substitution;
use crate::term::Term;
use std::collections::{HashMap, HashSet};

/// Backtracking budget for one subsumption test. θ-subsumption is
/// NP-complete; like the paper's implementation (which uses a restarting
/// engine and a polynomial approximation for clause minimization), we bound
/// the search and treat an exhausted budget as "does not subsume". The
/// budget is generous enough that it is only hit on pathological clauses.
const NODE_BUDGET: usize = 4_000;

/// The result of a budgeted subsumption test: the witnessing substitution
/// (when one was found) plus whether the node budget ran out, in which case
/// a `None` witness means "unknown", not "does not subsume".
#[derive(Debug, Clone)]
pub struct SubsumptionOutcome {
    /// The witnessing substitution, if subsumption was established.
    pub witness: Option<Substitution>,
    /// Whether the search budget was exhausted before completing.
    pub exhausted: bool,
}

impl SubsumptionOutcome {
    /// Whether subsumption was established.
    pub fn subsumes(&self) -> bool {
        self.witness.is_some()
    }
}

/// Whether `general` θ-subsumes `specific` (an exhausted budget counts as
/// "does not subsume"; use [`subsumes_with_eval_budget`] to tell the
/// difference).
pub fn subsumes(general: &Clause, specific: &Clause) -> bool {
    subsumes_with(general, specific).is_some()
}

/// Whether `general` θ-subsumes `specific`, returning the witnessing
/// substitution when it does.
pub fn subsumes_with(general: &Clause, specific: &Clause) -> Option<Substitution> {
    subsumes_with_eval_budget(general, specific, &mut EvalBudget::new(NODE_BUDGET)).witness
}

/// One argument of a compiled general literal.
#[derive(Clone, Copy)]
enum Arg<'g> {
    /// A constant, matched by equality.
    Const(&'g Term),
    /// A variable, by slot.
    Slot(usize),
}

/// A general body literal compiled for the search: its arguments and the
/// specific body literals of the same relation (their term lists), in
/// clause order.
struct Pattern<'g, 's> {
    args: Vec<Arg<'g>>,
    candidates: &'s [&'s [Term]],
}

/// Variable slots of the general clause, numbered in first-seen order.
#[derive(Default)]
struct Slots<'g> {
    index: HashMap<&'g str, usize>,
    names: Vec<&'g str>,
}

impl<'g> Slots<'g> {
    fn compile(&mut self, atom: &'g Atom) -> Vec<Arg<'g>> {
        atom.terms
            .iter()
            .map(|term| match term {
                Term::Const(_) => Arg::Const(term),
                Term::Var(name) => Arg::Slot(*self.index.entry(name).or_insert_with(|| {
                    self.names.push(name);
                    self.names.len() - 1
                })),
            })
            .collect()
    }
}

/// Slot bindings into the specific clause, with the trail of slots bound
/// since the search began.
struct Bindings<'s> {
    bound: Vec<Option<&'s Term>>,
    trail: Vec<usize>,
}

impl<'s> Bindings<'s> {
    /// Extends the bindings so that `args` maps onto `terms`. Constants must
    /// match exactly; a bound slot must agree, an unbound one binds. On
    /// failure the bindings are left as they were.
    fn unify(&mut self, args: &[Arg<'_>], terms: &'s [Term]) -> bool {
        if args.len() != terms.len() {
            return false;
        }
        let mark = self.trail.len();
        for (arg, term) in args.iter().zip(terms) {
            let ok = match *arg {
                Arg::Const(c) => c == term,
                Arg::Slot(slot) => match self.bound[slot] {
                    Some(bound) => bound == term,
                    None => {
                        self.bound[slot] = Some(term);
                        self.trail.push(slot);
                        true
                    }
                },
            };
            if !ok {
                self.undo(mark);
                return false;
            }
        }
        true
    }

    /// Unbinds every slot bound since the trail was `mark` long.
    fn undo(&mut self, mark: usize) {
        for slot in self.trail.drain(mark..) {
            self.bound[slot] = None;
        }
    }

    /// Matches `patterns` in order, backtracking over each one's
    /// candidates; on success the bindings hold the witness.
    fn search(
        &mut self,
        patterns: &[Pattern<'_, 's>],
        budget: &mut EvalBudget,
        exhausted: &mut bool,
    ) -> bool {
        let Some((pattern, rest)) = patterns.split_first() else {
            return true;
        };
        for &candidate in pattern.candidates {
            if !budget.consume() {
                // The search was actually cut short (budget dry or the
                // cancellation token set): only now is a negative answer
                // approximate (a run that consumed its whole budget on its
                // final node still decided the question exactly).
                *exhausted = true;
                return false;
            }
            let mark = self.trail.len();
            if self.unify(&pattern.args, candidate) && self.search(rest, budget, exhausted) {
                return true;
            }
            self.undo(mark);
        }
        false
    }
}

/// Subsumption test driven by a caller-supplied [`EvalBudget`], reporting
/// budget exhaustion instead of conflating it with a negative answer. The
/// coverage engine passes its configured evaluation budget here, so the
/// knob governs both database evaluation and θ-subsumption coverage
/// testing, and a cancellation token installed on the budget aborts the
/// search (as an exhaustion) within one candidate literal — the serving
/// layer cancels θ-subsumption coverage tests through this entry point.
pub fn subsumes_with_eval_budget(
    general: &Clause,
    specific: &Clause,
    budget: &mut EvalBudget,
) -> SubsumptionOutcome {
    let decided = |witness| SubsumptionOutcome {
        witness,
        exhausted: false,
    };
    // The head must match under θ as well: heads of both clauses use the
    // target relation, so this amounts to unifying the head arguments.
    if general.head.relation != specific.head.relation
        || general.head.arity() != specific.head.arity()
    {
        return decided(None);
    }
    let mut slots = Slots::default();
    let head = slots.compile(&general.head);

    // Index the specific clause's body literals by relation name so each
    // general literal only tries compatible candidates.
    let mut by_relation: HashMap<&str, Vec<&[Term]>> = HashMap::new();
    for atom in &specific.body {
        by_relation
            .entry(atom.relation.as_str())
            .or_default()
            .push(&atom.terms);
    }

    // Deduplicate general body literals (duplicates map to the same target
    // and only multiply the search), keeping first occurrences. Fail fast:
    // a general literal whose relation does not appear in the specific
    // clause can never be matched.
    let mut seen: HashSet<&Atom> = HashSet::new();
    let mut patterns = Vec::new();
    for atom in &general.body {
        if !seen.insert(atom) {
            continue;
        }
        let Some(candidates) = by_relation.get(atom.relation.as_str()) else {
            return decided(None);
        };
        patterns.push(Pattern {
            args: slots.compile(atom),
            candidates,
        });
    }

    let mut bindings = Bindings {
        bound: vec![None; slots.names.len()],
        trail: Vec::new(),
    };
    if !bindings.unify(&head, &specific.head.terms) {
        return decided(None);
    }

    // Order the literals: fewest candidate matches first, and among those
    // prefer literals connected by shared variables to the ones already
    // placed (the head's first) — both prune the search dramatically on
    // the long clauses produced by bottom-up learners.
    patterns.sort_by_key(|p| p.candidates.len());
    let slot_of = |arg: &Arg<'_>| match *arg {
        Arg::Slot(slot) => Some(slot),
        Arg::Const(_) => None,
    };
    let mut placed = vec![false; slots.names.len()];
    for slot in head.iter().filter_map(slot_of) {
        placed[slot] = true;
    }
    let mut ordered = Vec::with_capacity(patterns.len());
    while !patterns.is_empty() {
        let pos = patterns
            .iter()
            .position(|p| p.args.iter().filter_map(slot_of).any(|slot| placed[slot]))
            .unwrap_or(0);
        let pattern = patterns.remove(pos);
        for slot in pattern.args.iter().filter_map(slot_of) {
            placed[slot] = true;
        }
        ordered.push(pattern);
    }

    let mut exhausted = false;
    if !bindings.search(&ordered, budget, &mut exhausted) {
        return SubsumptionOutcome {
            witness: None,
            exhausted,
        };
    }
    let mut theta = Substitution::new();
    for (name, term) in slots.names.iter().zip(&bindings.bound) {
        if let Some(term) = term {
            theta.bind(*name, (*term).clone());
        }
    }
    decided(Some(theta))
}

/// Whether two clauses are θ-equivalent (each subsumes the other). This is
/// the syntactic notion of clause equivalence used when checking that two
/// learned definitions are "the same" across schemas.
pub fn theta_equivalent(a: &Clause, b: &Clause) -> bool {
    subsumes(a, b) && subsumes(b, a)
}

/// The clone-per-node backtracking matcher the kernel must agree with: the
/// oracle for its verdicts, witnesses and node accounting.
#[cfg(test)]
mod reference {
    use super::SubsumptionOutcome;
    use crate::atom::Atom;
    use crate::clause::Clause;
    use crate::evaluation::EvalBudget;
    use crate::substitution::Substitution;
    use crate::term::Term;
    use std::collections::HashMap;

    /// The reference for [`super::subsumes_with_eval_budget`].
    pub fn subsumes_with_eval_budget(
        general: &Clause,
        specific: &Clause,
        budget: &mut EvalBudget,
    ) -> SubsumptionOutcome {
        // The head must match under θ as well: heads of both clauses use the
        // target relation, so this amounts to unifying the head arguments.
        let decided = |witness| SubsumptionOutcome {
            witness,
            exhausted: false,
        };
        if general.head.relation != specific.head.relation
            || general.head.arity() != specific.head.arity()
        {
            return decided(None);
        }
        let mut theta = Substitution::new();
        if !match_atom(&general.head, &specific.head, &mut theta) {
            return decided(None);
        }

        // Index the specific clause's body literals by relation name so each
        // general literal only tries compatible candidates.
        let mut by_relation: HashMap<&str, Vec<&Atom>> = HashMap::new();
        for atom in &specific.body {
            by_relation
                .entry(atom.relation.as_str())
                .or_default()
                .push(atom);
        }

        // Deduplicate general body literals (duplicates map to the same target
        // and only multiply the search), then order them: fewest candidate
        // matches first, and among those prefer literals connected by shared
        // variables to the ones already placed — both prune the search
        // dramatically on the long clauses produced by bottom-up learners.
        let mut unique: Vec<&Atom> = Vec::new();
        for atom in &general.body {
            if !unique.contains(&atom) {
                unique.push(atom);
            }
        }
        // Fail fast: a general literal whose relation does not appear in the
        // specific clause can never be matched.
        if unique
            .iter()
            .any(|a| !by_relation.contains_key(a.relation.as_str()))
        {
            return decided(None);
        }
        unique.sort_by_key(|a| by_relation.get(a.relation.as_str()).map_or(0, |v| v.len()));
        let mut ordered: Vec<&Atom> = Vec::new();
        let mut placed_vars: std::collections::BTreeSet<String> = general.head.variables();
        let mut remaining = unique;
        while !remaining.is_empty() {
            let pos = remaining
                .iter()
                .position(|a| a.shares_variable_with(&placed_vars))
                .unwrap_or(0);
            let atom = remaining.remove(pos);
            placed_vars.extend(atom.variables());
            ordered.push(atom);
        }

        let mut exhausted = false;
        if search(
            &ordered,
            0,
            &by_relation,
            &mut theta,
            budget,
            &mut exhausted,
        ) {
            SubsumptionOutcome {
                witness: Some(theta),
                exhausted: false,
            }
        } else {
            SubsumptionOutcome {
                witness: None,
                exhausted,
            }
        }
    }

    /// Attempts to extend θ so that `general` maps onto the (possibly
    /// non-ground) atom `specific`. Constants must match exactly; variables of
    /// the general atom may bind to any term of the specific atom.
    fn match_atom(general: &Atom, specific: &Atom, theta: &mut Substitution) -> bool {
        if general.relation != specific.relation || general.arity() != specific.arity() {
            return false;
        }
        let mut bound_here: Vec<String> = Vec::new();
        for (g, s) in general.terms.iter().zip(specific.terms.iter()) {
            let ok = match g {
                Term::Const(_) => g == s,
                Term::Var(name) => {
                    if theta.binds(name) {
                        theta.get(name) == Some(s)
                    } else {
                        theta.bind(name.clone(), s.clone());
                        bound_here.push(name.clone());
                        true
                    }
                }
            };
            if !ok {
                for v in bound_here {
                    theta.unbind(&v);
                }
                return false;
            }
        }
        // Note: callers that need to backtrack past this atom must snapshot θ.
        // `search` handles that by cloning θ per candidate.
        let _ = bound_here;
        true
    }

    fn search(
        ordered: &[&Atom],
        index: usize,
        by_relation: &HashMap<&str, Vec<&Atom>>,
        theta: &mut Substitution,
        budget: &mut EvalBudget,
        exhausted: &mut bool,
    ) -> bool {
        let Some(general) = ordered.get(index) else {
            return true;
        };
        let candidates = by_relation
            .get(general.relation.as_str())
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        for candidate in candidates {
            if !budget.consume() {
                // The search was actually cut short (budget dry or the
                // cancellation token set): only now is a negative answer
                // approximate (a run that consumed its whole budget on its
                // final node still decided the question exactly).
                *exhausted = true;
                return false;
            }
            let mut attempt = theta.clone();
            if match_atom(general, candidate, &mut attempt)
                && search(
                    ordered,
                    index + 1,
                    by_relation,
                    &mut attempt,
                    budget,
                    exhausted,
                )
            {
                *theta = attempt;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::term::Term;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn a(rel: &str, vars: &[&str]) -> Atom {
        Atom::vars(rel, vars)
    }

    #[test]
    fn clause_subsumes_itself() {
        let c = Clause::new(
            a("t", &["x", "y"]),
            vec![a("p", &["x", "z"]), a("q", &["z", "y"])],
        );
        assert!(subsumes(&c, &c));
        assert!(theta_equivalent(&c, &c));
    }

    #[test]
    fn more_general_clause_subsumes_specialization() {
        let general = Clause::new(a("t", &["x", "y"]), vec![a("p", &["x", "z"])]);
        let specific = Clause::new(
            a("t", &["x", "y"]),
            vec![a("p", &["x", "y"]), a("q", &["y"])],
        );
        assert!(subsumes(&general, &specific));
        assert!(!subsumes(&specific, &general));
    }

    #[test]
    fn subsumption_of_ground_bottom_clause() {
        // Candidate: collaborated(x,y) ← publication(p,x), publication(p,y)
        // Ground ⊥e: collaborated(ann,bob) ← publication(pl1,ann), publication(pl1,bob)
        let candidate = Clause::new(
            a("collaborated", &["x", "y"]),
            vec![a("publication", &["p", "x"]), a("publication", &["p", "y"])],
        );
        let ground = Clause::new(
            Atom::new(
                "collaborated",
                vec![Term::constant("ann"), Term::constant("bob")],
            ),
            vec![
                Atom::new(
                    "publication",
                    vec![Term::constant("pl1"), Term::constant("ann")],
                ),
                Atom::new(
                    "publication",
                    vec![Term::constant("pl1"), Term::constant("bob")],
                ),
            ],
        );
        let theta = subsumes_with(&candidate, &ground).expect("should subsume");
        assert_eq!(theta.get("x"), Some(&Term::constant("ann")));
        assert_eq!(theta.get("y"), Some(&Term::constant("bob")));
    }

    #[test]
    fn subsumption_fails_when_shared_variable_cannot_be_consistent() {
        // Candidate requires the same publication p for both authors; the
        // ground clause has different publications.
        let candidate = Clause::new(
            a("collaborated", &["x", "y"]),
            vec![a("publication", &["p", "x"]), a("publication", &["p", "y"])],
        );
        let ground = Clause::new(
            Atom::new(
                "collaborated",
                vec![Term::constant("ann"), Term::constant("bob")],
            ),
            vec![
                Atom::new(
                    "publication",
                    vec![Term::constant("pl1"), Term::constant("ann")],
                ),
                Atom::new(
                    "publication",
                    vec![Term::constant("pl2"), Term::constant("bob")],
                ),
            ],
        );
        assert!(!subsumes(&candidate, &ground));
    }

    #[test]
    fn constants_in_candidate_must_match_exactly() {
        let candidate = Clause::new(
            a("t", &["x"]),
            vec![Atom::new(
                "yearsInProgram",
                vec![Term::var("x"), Term::constant(seven())],
            )],
        );
        let ground_match = Clause::new(
            Atom::new("t", vec![Term::constant("s1")]),
            vec![Atom::new(
                "yearsInProgram",
                vec![Term::constant("s1"), Term::constant(seven())],
            )],
        );
        let ground_mismatch = Clause::new(
            Atom::new("t", vec![Term::constant("s1")]),
            vec![Atom::new(
                "yearsInProgram",
                vec![
                    Term::constant("s1"),
                    Term::Const(castor_relational::Value::int(3)),
                ],
            )],
        );
        assert!(subsumes(&candidate, &ground_match));
        assert!(!subsumes(&candidate, &ground_mismatch));
    }

    fn seven() -> castor_relational::Value {
        castor_relational::Value::int(7)
    }

    #[test]
    fn missing_relation_fails_fast() {
        let candidate = Clause::new(a("t", &["x"]), vec![a("nonexistent", &["x"])]);
        let ground = Clause::new(
            Atom::new("t", vec![Term::constant("a")]),
            vec![Atom::new("p", vec![Term::constant("a")])],
        );
        assert!(!subsumes(&candidate, &ground));
    }

    #[test]
    fn different_heads_never_subsume() {
        let c1 = Clause::new(a("t", &["x"]), vec![a("p", &["x"])]);
        let c2 = Clause::new(a("u", &["x"]), vec![a("p", &["x"])]);
        assert!(!subsumes(&c1, &c2));
    }

    #[test]
    fn theta_equivalence_of_variable_renamings() {
        let c1 = Clause::new(a("t", &["x", "y"]), vec![a("p", &["x", "y"])]);
        let c2 = Clause::new(a("t", &["u", "v"]), vec![a("p", &["u", "v"])]);
        assert!(theta_equivalent(&c1, &c2));
    }

    #[test]
    fn redundant_literals_do_not_affect_equivalence() {
        let minimal = Clause::new(a("t", &["x"]), vec![a("p", &["x", "y"])]);
        let redundant = Clause::new(
            a("t", &["x"]),
            vec![a("p", &["x", "y"]), a("p", &["x", "z"])],
        );
        assert!(theta_equivalent(&minimal, &redundant));
    }

    /// A random clause for the oracle test. Relation `q` appears with two
    /// arities so candidates of the right name but wrong arity occur.
    fn random_clause(rng: &mut StdRng, max_body: usize, ground: bool) -> Clause {
        const RELATIONS: [(&str, usize); 5] = [("p", 1), ("q", 2), ("q", 3), ("r", 2), ("s", 3)];
        let term = |rng: &mut StdRng| {
            if ground || rng.gen_bool(0.25) {
                Term::constant(format!("c{}", rng.gen_range(0..3usize)))
            } else {
                // Variable names shared between general and specific
                // clauses, as in minimization.
                Term::var(format!("x{}", rng.gen_range(0..5usize)))
            }
        };
        let head = Atom::new("t", vec![term(rng), term(rng)]);
        let mut atoms: Vec<Atom> = Vec::new();
        for _ in 0..rng.gen_range(0..max_body) {
            if !atoms.is_empty() && rng.gen_bool(0.15) {
                let copy = atoms[rng.gen_range(0..atoms.len())].clone();
                atoms.push(copy);
                continue;
            }
            let (relation, arity) = RELATIONS[rng.gen_range(0..RELATIONS.len())];
            atoms.push(Atom::new(relation, (0..arity).map(|_| term(rng)).collect()));
        }
        Clause::new(head, atoms)
    }

    #[test]
    fn kernel_matches_reference_matcher() {
        let budgets = [0, 1, 2, 3, 5, 8, 20, 60, NODE_BUDGET];
        let (mut exhausted, mut decided) = (0, [0, 0]);
        for seed in 0..3_000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let general = random_clause(&mut rng, 7, false);
            let specific = match seed % 3 {
                0 => random_clause(&mut rng, 14, true),
                1 => random_clause(&mut rng, 14, false),
                // The minimization shape: the clause against itself minus
                // one literal.
                _ => {
                    let mut less = general.clone();
                    if !less.body.is_empty() {
                        less.body.remove(rng.gen_range(0..less.body.len()));
                    }
                    less
                }
            };
            let nodes = budgets[rng.gen_range(0..budgets.len())];
            let mut kernel_budget = EvalBudget::new(nodes);
            let mut reference_budget = EvalBudget::new(nodes);
            let got = subsumes_with_eval_budget(&general, &specific, &mut kernel_budget);
            let want =
                reference::subsumes_with_eval_budget(&general, &specific, &mut reference_budget);
            let case = format!("seed {seed}: {general}  vs  {specific}, budget {nodes}");
            assert_eq!(got.subsumes(), want.subsumes(), "{case}");
            assert_eq!(got.exhausted, want.exhausted, "{case}");
            assert_eq!(got.witness, want.witness, "{case}");
            assert_eq!(
                kernel_budget.remaining(),
                reference_budget.remaining(),
                "{case}"
            );
            assert_eq!(
                kernel_budget.was_exhausted(),
                reference_budget.was_exhausted(),
                "{case}"
            );
            if want.exhausted {
                exhausted += 1;
            } else {
                decided[usize::from(want.subsumes())] += 1;
            }
        }
        // The generator reaches every kind of verdict.
        assert!(
            exhausted > 100 && decided[0] > 100 && decided[1] > 100,
            "{exhausted} {decided:?}"
        );
    }

    #[test]
    fn cancelled_search_reports_exhaustion_like_reference() {
        let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let general = Clause::new(a("t", &["x"]), vec![a("p", &["x", "y"])]);
        let specific = Clause::new(
            Atom::new("t", vec![Term::constant("a")]),
            vec![Atom::new(
                "p",
                vec![Term::constant("a"), Term::constant("b")],
            )],
        );
        let mut kernel_budget = EvalBudget::with_cancel(10, cancel.clone());
        let mut reference_budget = EvalBudget::with_cancel(10, cancel);
        let got = subsumes_with_eval_budget(&general, &specific, &mut kernel_budget);
        let want = reference::subsumes_with_eval_budget(&general, &specific, &mut reference_budget);
        assert!(got.exhausted && want.exhausted && !got.subsumes());
        assert!(kernel_budget.was_cancelled() && reference_budget.was_cancelled());
        assert_eq!(kernel_budget.remaining(), reference_budget.remaining());
    }
}

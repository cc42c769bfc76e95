//! Batched beam evaluation: shared join-prefix execution for sibling
//! candidate clauses.
//!
//! Beam refinement scores sets of candidates that differ by a single
//! trailing literal: every sibling re-joins the same body prefix, so
//! per-clause execution re-probes the same indexes `beam_width × branching`
//! times per search level. A [`BatchPlan`] folds the candidates of one beam
//! into a *literal trie*: clauses sharing a body prefix share the trie path
//! for it, so the prefix join executes once per example and each
//! materialized prefix binding forks into the per-candidate suffixes.
//!
//! The executor decides one (root subtree, example) cell at a time, and a
//! cell's work is proportional to its own subtree, not to the batch:
//!
//! * each root numbers its candidates locally ([`BatchNode::slots`]), so
//!   the per-cell candidate state — live, decided, or idle, plus the
//!   remaining node budget — is one array sized to the root's subtree;
//! * head and body arguments are compiled to constants and *registers*,
//!   so bindings are a register file of tuple-value references with an
//!   index trail, not a substitution keyed by variable name;
//! * every candidate keeps its own node budget as a plain counter taken
//!   from the budget template: a live candidate is charged one node per
//!   tuple probed at a node on its path, and the template's cancellation
//!   token is checked once per probed tuple — a cancel exhausts every live
//!   candidate of the cell. Batched verdicts thus
//!   degrade the same way per-clause verdicts do.
//!
//! Sharing is structural: bodies are inserted in clause order (beam
//! refinement appends literals, so siblings share their parent's body
//! verbatim), and candidates whose bodies diverge immediately simply occupy
//! disjoint root subtrees — the trie generalizes gracefully to mixed-parent
//! beams.

use crate::cost::{CostModel, CostModelKind};
use crate::executor::{Arg, ArgCompiler, Bindings};
use crate::stats::DatabaseStatistics;
use castor_logic::{Atom, CoverageOutcome, EvalBudget, Term};
use castor_relational::{DatabaseInstance, Tuple, Value};
use std::collections::BTreeSet;

/// One trie node: a body literal, the argument positions known to be bound
/// when the node executes (head bindings, constants, and every ancestor
/// literal's variables), and the candidates whose bodies end here.
///
/// Candidates are identified by their *local position*: an index into the
/// owning root's [`BatchNode::slots`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNode {
    /// The body literal this node solves.
    pub atom: Atom,
    /// Argument positions guaranteed bound at execution time.
    pub bound_positions: Vec<usize>,
    /// Child nodes (next body literals), cheapest estimated probe first.
    pub children: Vec<usize>,
    /// Local positions of the candidates whose last body literal is this
    /// node.
    pub accepting: Vec<usize>,
    /// Local positions of every candidate in this node's subtree
    /// (`accepting` of self and all descendants), ascending — the
    /// executor's live-set domain.
    pub subtree: Vec<usize>,
    /// On a root: the caller's slot of each local position, ascending (the
    /// root's `subtree` is `0..slots.len()`). Empty on inner nodes.
    pub slots: Vec<usize>,
    /// Estimated candidate count for this node's probe (child ordering).
    pub estimated_cost: f64,
    /// `atom`'s arguments, compiled against the plan's registers and
    /// constant pool.
    args: Vec<Arg>,
}

/// A compiled evaluation plan for a set of candidate clauses sharing one
/// canonical head: a literal trie over their bodies. Candidate identity is
/// the *slot* index the caller supplied at compile time.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    /// The canonical head shared by every candidate in the batch.
    pub head: Atom,
    head_args: Vec<Arg>,
    /// Size of the register file: distinct variables over head and trie.
    registers: usize,
    /// The constants the compiled arguments refer to.
    constants: Vec<Value>,
    nodes: Vec<BatchNode>,
    /// Top-level trie nodes (first body literals), cheapest first.
    pub roots: Vec<usize>,
    /// Candidate slots with empty bodies: covered iff the head binds.
    pub root_accepting: Vec<usize>,
}

impl BatchPlan {
    /// Compiles a literal trie with the uniform baseline model
    /// (convenience wrapper over [`BatchPlan::compile_with`]).
    pub fn compile(head: &Atom, bodies: &[(usize, &[Atom])], stats: &DatabaseStatistics) -> Self {
        BatchPlan::compile_with(head, bodies, stats, CostModelKind::Uniform.model())
    }

    /// Compiles a literal trie for candidates sharing `head`. Each entry of
    /// `bodies` is `(slot, body)`; the slot is echoed back by the executor.
    /// Bodies are inserted in literal order — canonicalized siblings produced
    /// by beam refinement share their parent prefix verbatim and therefore
    /// share trie nodes. After insertion, *shared prefix chains* (runs of
    /// trie nodes every candidate in the subtree passes through) are
    /// reordered by `model`'s selectivity estimates — the per-clause greedy
    /// order, applied to the shared prefix without breaking sharing.
    /// Finally each root numbers its candidates locally and every argument
    /// is compiled to a constant or a register.
    pub fn compile_with(
        head: &Atom,
        bodies: &[(usize, &[Atom])],
        stats: &DatabaseStatistics,
        model: &dyn CostModel,
    ) -> Self {
        let mut plan = BatchPlan {
            head: head.clone(),
            head_args: Vec::new(),
            registers: 0,
            constants: Vec::new(),
            nodes: Vec::new(),
            roots: Vec::new(),
            root_accepting: Vec::new(),
        };
        let head_vars: BTreeSet<String> = head
            .terms
            .iter()
            .filter_map(Term::var_name)
            .map(str::to_string)
            .collect();
        for &(slot, body) in bodies {
            if body.is_empty() {
                plan.root_accepting.push(slot);
                continue;
            }
            let mut bound: BTreeSet<String> = head_vars.clone();
            let mut parent: Option<usize> = None;
            for atom in body {
                let siblings = match parent {
                    None => &plan.roots,
                    Some(p) => &plan.nodes[p].children,
                };
                let existing = siblings
                    .iter()
                    .copied()
                    .find(|&i| plan.nodes[i].atom == *atom);
                let node_idx = match existing {
                    Some(i) => i,
                    None => {
                        let borrowed: BTreeSet<&str> = bound.iter().map(String::as_str).collect();
                        let bound_positions: Vec<usize> = atom
                            .terms
                            .iter()
                            .enumerate()
                            .filter(|(_, term)| match term {
                                Term::Const(_) => true,
                                Term::Var(name) => bound.contains(name.as_str()),
                            })
                            .map(|(i, _)| i)
                            .collect();
                        let estimated_cost = model.estimate_atom(atom, &borrowed, stats);
                        let idx = plan.nodes.len();
                        plan.nodes.push(BatchNode {
                            atom: atom.clone(),
                            bound_positions,
                            children: Vec::new(),
                            accepting: Vec::new(),
                            subtree: Vec::new(),
                            slots: Vec::new(),
                            estimated_cost,
                            args: Vec::new(),
                        });
                        match parent {
                            None => plan.roots.push(idx),
                            Some(p) => plan.nodes[p].children.push(idx),
                        }
                        idx
                    }
                };
                bound.extend(
                    atom.terms
                        .iter()
                        .filter_map(Term::var_name)
                        .map(str::to_string),
                );
                parent = Some(node_idx);
            }
            let leaf = parent.expect("non-empty body created at least one node");
            plan.nodes[leaf].accepting.push(slot);
        }
        let roots = plan.roots.clone();
        for root in roots {
            plan.reorder_chain(root, head_vars.clone(), model, stats);
        }
        plan.finish();
        plan
    }

    /// Reorders the *shared prefix chains* of the trie by selectivity: a
    /// maximal run of nodes in which every node has exactly one child and
    /// accepts no candidate (except possibly the last) is a conjunction
    /// every candidate in the subtree executes in full, so its literals can
    /// be permuted freely — sharing, accepted bodies, and semantics are
    /// unchanged. Each chain is re-ordered greedily (cheapest bindable
    /// literal first, exactly like [`crate::ClausePlan`] does per clause)
    /// and its nodes' access paths and cost estimates are recomputed for
    /// the new positions. Recurses into the children of each chain end with
    /// the accumulated bound set.
    fn reorder_chain(
        &mut self,
        start: usize,
        mut bound: BTreeSet<String>,
        model: &dyn CostModel,
        stats: &DatabaseStatistics,
    ) {
        // Collect the maximal chain: interior nodes must be non-accepting
        // single-child links, so no candidate's body ends mid-chain.
        let mut chain = vec![start];
        loop {
            let node = &self.nodes[*chain.last().expect("chain is non-empty")];
            if node.children.len() == 1 && node.accepting.is_empty() {
                chain.push(node.children[0]);
            } else {
                break;
            }
        }
        if chain.len() > 1 {
            // Greedy reorder of the chain's atoms under the entry bound
            // set — the same schedule `ClausePlan` computes per clause.
            let atoms: Vec<Atom> = chain.iter().map(|&i| self.nodes[i].atom.clone()).collect();
            let atom_refs: Vec<&Atom> = atoms.iter().collect();
            let ordered = crate::cost::greedy_order(&atom_refs, &mut bound, |atom, borrowed| {
                model.estimate_atom(atom, borrowed, stats)
            });
            // Rewrite the chain nodes in the new order; the link structure
            // (and the accepting slots of the chain end) stay put.
            for (&idx, scheduled) in chain.iter().zip(ordered) {
                let node = &mut self.nodes[idx];
                node.atom = atoms[scheduled.index].clone();
                node.bound_positions = scheduled.bound_positions;
                node.estimated_cost = scheduled.estimated_rows;
            }
        } else {
            for &idx in &chain {
                bound.extend(
                    self.nodes[idx]
                        .atom
                        .terms
                        .iter()
                        .filter_map(Term::var_name)
                        .map(str::to_string),
                );
            }
        }
        let end = *chain.last().expect("chain is non-empty");
        for child in self.nodes[end].children.clone() {
            self.reorder_chain(child, bound.clone(), model, stats);
        }
    }

    /// Numbers each root's candidates locally (computing subtree lists
    /// bottom-up), orders every child list by estimated probe cost
    /// (cheapest first — pure heuristic, the executor visits every live
    /// child anyway), and compiles head and body arguments to registers.
    fn finish(&mut self) {
        let roots = self.roots.clone();
        for &root in &roots {
            self.fill_subtree(root);
            let slots = self.nodes[root].subtree.clone();
            self.localize(root, &slots);
            self.nodes[root].slots = slots;
        }
        let mut order: Vec<usize> = roots;
        self.sort_by_cost(&mut order);
        self.roots = order;
        for i in 0..self.nodes.len() {
            let mut children = std::mem::take(&mut self.nodes[i].children);
            self.sort_by_cost(&mut children);
            self.nodes[i].children = children;
        }
        let mut args = ArgCompiler::default();
        self.head_args = args.compile(&self.head);
        for node in &mut self.nodes {
            node.args = args.compile(&node.atom);
        }
        (self.registers, self.constants) = args.finish();
    }

    /// Fills `subtree` with the caller's slots, bottom-up.
    fn fill_subtree(&mut self, node: usize) {
        let children = self.nodes[node].children.clone();
        let mut subtree = self.nodes[node].accepting.clone();
        for child in children {
            self.fill_subtree(child);
            subtree.extend(self.nodes[child].subtree.iter().copied());
        }
        subtree.sort_unstable();
        subtree.dedup();
        self.nodes[node].subtree = subtree;
    }

    /// Rewrites the `accepting` and `subtree` slots under `node` as
    /// positions in `slots` (its root's ascending slot list). The mapping
    /// is monotone, so `subtree` stays ascending.
    fn localize(&mut self, node: usize, slots: &[usize]) {
        let local = |slot: &mut usize| {
            *slot = slots
                .binary_search(slot)
                .expect("a subtree's slots are its root's");
        };
        let entry = &mut self.nodes[node];
        entry.accepting.iter_mut().for_each(local);
        entry.subtree.iter_mut().for_each(local);
        for child in self.nodes[node].children.clone() {
            self.localize(child, slots);
        }
    }

    fn sort_by_cost(&self, indices: &mut [usize]) {
        indices.sort_by(|&a, &b| {
            self.nodes[a]
                .estimated_cost
                .total_cmp(&self.nodes[b].estimated_cost)
        });
    }

    /// The trie node arena (read-only).
    pub fn node(&self, idx: usize) -> &BatchNode {
        &self.nodes[idx]
    }

    /// Number of trie nodes (shared prefixes collapse candidates, so this
    /// is strictly less than the total literal count whenever sharing
    /// happened).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Every candidate slot in the plan (root-accepting included).
    pub fn slots(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.root_accepting.clone();
        for &root in &self.roots {
            out.extend(self.nodes[root].slots.iter().copied());
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Counters gathered while executing one batch work item; merged into the
/// engine's [`crate::EngineStats`] by the caller (no atomics on the inner
/// loop).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchItemStats {
    /// (candidate, example) verdicts produced by actual evaluation.
    pub tests: usize,
    /// Verdicts that ended by per-candidate budget exhaustion.
    pub budget_exhausted: usize,
    /// Per-clause probes saved at shared nodes (`live − 1` per probe that
    /// fed more than one live candidate).
    pub prefix_hits: usize,
    /// Suffix descents forked off a shared binding beyond the first live
    /// child.
    pub suffix_forks: usize,
}

impl BatchItemStats {
    /// Element-wise accumulation.
    pub fn absorb(&mut self, other: &BatchItemStats) {
        self.tests += other.tests;
        self.budget_exhausted += other.budget_exhausted;
        self.prefix_hits += other.prefix_hits;
        self.suffix_forks += other.suffix_forks;
    }
}

/// Where one candidate of a cell stands.
#[derive(Debug, Clone, Copy)]
enum SlotState {
    /// Not asked for by the cell's live mask.
    Idle,
    /// Undecided, with this many budget nodes left.
    Live(usize),
    /// Decided.
    Done(CoverageOutcome),
}

/// Mutable execution state for one (root subtree, example) cell. Every
/// per-candidate array is indexed by local position in the root's
/// [`BatchNode::slots`], so the state is sized to the subtree, never to
/// the batch.
struct BatchSearch<'a> {
    plan: &'a BatchPlan,
    db: &'a DatabaseInstance,
    /// The budget template, consulted only for its abort tokens.
    budget: &'a EvalBudget,
    /// The register file of the current path.
    bindings: Bindings<'a>,
    slots: Vec<SlotState>,
    stats: BatchItemStats,
}

/// Evaluates one root subtree of `plan` against one example: every live
/// candidate in the subtree gets a [`CoverageOutcome`]. `live` flags (in
/// the caller's slot space) select which candidates this item must decide;
/// slots outside the subtree are never read. Each candidate starts with
/// `budget`'s remaining nodes as its own counter, and an abort token
/// installed on `budget` aborts every candidate of the item. Returns
/// `(slot, outcome)` pairs in ascending slot order plus the item's
/// counters.
pub fn evaluate_subtree<'a>(
    plan: &'a BatchPlan,
    root: usize,
    db: &'a DatabaseInstance,
    example: &'a Tuple,
    live: &[bool],
    budget: &'a EvalBudget,
) -> (Vec<(usize, CoverageOutcome)>, BatchItemStats) {
    let root_slots = &plan.node(root).slots;
    let nodes = budget.remaining();
    let slots: Vec<SlotState> = root_slots
        .iter()
        .map(|&s| {
            if live[s] {
                SlotState::Live(nodes)
            } else {
                SlotState::Idle
            }
        })
        .collect();
    let wanted = slots
        .iter()
        .filter(|s| matches!(s, SlotState::Live(_)))
        .count();
    if wanted == 0 {
        return (Vec::new(), BatchItemStats::default());
    }
    let mut search = BatchSearch {
        plan,
        db,
        budget,
        bindings: Bindings::new(plan.registers, &plan.constants),
        slots,
        stats: BatchItemStats::default(),
    };
    // A head that cannot bind leaves every candidate not covered. Its
    // bindings sit below every choice point's trail mark, so they stay
    // for the whole search.
    if search.bindings.unify(&plan.head_args, example) {
        search.explore(root);
    }
    let mut stats = BatchItemStats {
        tests: wanted,
        ..search.stats
    };
    let outcomes = root_slots
        .iter()
        .zip(&search.slots)
        .filter_map(|(&slot, state)| {
            let outcome = match *state {
                SlotState::Idle => return None,
                SlotState::Live(_) => CoverageOutcome::NotCovered,
                SlotState::Done(outcome) => outcome,
            };
            if outcome.is_exhausted() {
                stats.budget_exhausted += 1;
            }
            Some((slot, outcome))
        })
        .collect();
    (outcomes, stats)
}

impl<'a> BatchSearch<'a> {
    fn is_live(&self, position: usize) -> bool {
        matches!(self.slots[position], SlotState::Live(_))
    }

    /// Charges one node to every live candidate among `positions`;
    /// candidates with no node left are exhausted. Returns whether any
    /// candidate is still live.
    fn charge(&mut self, positions: &[usize]) -> bool {
        let mut any_live = false;
        for &p in positions {
            match self.slots[p] {
                SlotState::Live(0) => self.slots[p] = SlotState::Done(CoverageOutcome::Exhausted),
                SlotState::Live(n) => {
                    self.slots[p] = SlotState::Live(n - 1);
                    any_live = true;
                }
                SlotState::Idle | SlotState::Done(_) => {}
            }
        }
        any_live
    }

    /// Exhausts every live candidate of the cell (an abort token fired).
    fn abort(&mut self) {
        for state in &mut self.slots {
            if let SlotState::Live(_) = state {
                *state = SlotState::Done(CoverageOutcome::Exhausted);
            }
        }
    }

    /// Depth-first execution of one trie node: probe the index once, then
    /// per candidate tuple fork into the live children. Mirrors the
    /// per-clause executor's semantics (one node charged per candidate
    /// tuple, bindings undone through the trail).
    fn explore(&mut self, node_idx: usize) {
        // Copy the references out of `self` so node and tuple borrows do
        // not pin the whole search state.
        let plan = self.plan;
        let db = self.db;
        let node = plan.node(node_idx);
        let live = node.subtree.iter().filter(|&&p| self.is_live(p)).count();
        if live == 0 {
            return;
        }
        let Some(instance) = db.relation(&node.atom.relation) else {
            // Unknown relation ⇒ no body through this node is satisfiable;
            // the slots resolve to NotCovered at item end.
            return;
        };
        // The trie guarantees ancestor literals bound every variable of
        // the bound positions.
        let candidates = self
            .bindings
            .probe(instance, &node.bound_positions, &node.args);
        if live > 1 {
            // One probe fed `live` candidates.
            self.stats.prefix_hits += live - 1;
        }
        for tuple in candidates {
            if self.budget.cancel_pending() {
                self.abort();
                return;
            }
            // Charge the probe of this tuple to every live candidate whose
            // body runs through this node — the same per-tuple accounting
            // the per-clause executor uses.
            if !self.charge(&node.subtree) {
                return;
            }
            let mark = self.bindings.mark();
            if self.bindings.unify(&node.args, tuple) {
                for &p in &node.accepting {
                    if self.is_live(p) {
                        self.slots[p] = SlotState::Done(CoverageOutcome::Covered);
                    }
                }
                // Sibling subtrees are disjoint, so exploring one child
                // never changes whether a later one is live (short of an
                // abort, which ends the cell): checking each just before
                // its descent counts the same forks as checking all of
                // them up front.
                let mut descents = 0usize;
                for &child in &node.children {
                    if plan.node(child).subtree.iter().any(|&p| self.is_live(p)) {
                        descents += 1;
                        self.explore(child);
                    }
                }
                self.stats.suffix_forks += descents.saturating_sub(1);
            }
            self.bindings.undo(mark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_logic::Clause;
    use castor_relational::{RelationSymbol, Schema};

    fn db() -> DatabaseInstance {
        let mut schema = Schema::new("t");
        schema
            .add_relation(RelationSymbol::new("publication", &["title", "person"]))
            .add_relation(RelationSymbol::new("professor", &["prof"]))
            .add_relation(RelationSymbol::new("student", &["stud"]));
        let mut db = DatabaseInstance::empty(&schema);
        for (t, p) in [("p1", "ann"), ("p1", "bob"), ("p2", "carol"), ("p2", "dan")] {
            db.insert("publication", Tuple::from_strs(&[t, p])).unwrap();
        }
        db.insert("professor", Tuple::from_strs(&["bob"])).unwrap();
        db.insert("student", Tuple::from_strs(&["ann"])).unwrap();
        db
    }

    /// advisedBy(x, y) ← publication(p, x), publication(p, y) [, extra]
    fn siblings() -> (Atom, Vec<Vec<Atom>>) {
        let head = Atom::vars("advisedBy", &["_0", "_1"]);
        let prefix = vec![
            Atom::vars("publication", &["_2", "_0"]),
            Atom::vars("publication", &["_2", "_1"]),
        ];
        let mut with_prof = prefix.clone();
        with_prof.push(Atom::vars("professor", &["_1"]));
        let mut with_stud = prefix.clone();
        with_stud.push(Atom::vars("student", &["_0"]));
        (head, vec![prefix, with_prof, with_stud])
    }

    fn plan_of(head: &Atom, bodies: &[Vec<Atom>], db: &DatabaseInstance) -> BatchPlan {
        let stats = DatabaseStatistics::gather(db);
        let slotted: Vec<(usize, &[Atom])> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.as_slice()))
            .collect();
        BatchPlan::compile(head, &slotted, &stats)
    }

    #[test]
    fn siblings_share_prefix_nodes() {
        let db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        // 2 shared prefix nodes + 2 suffix leaves, not 2+3+3 literals.
        assert_eq!(plan.node_count(), 4);
        assert_eq!(plan.roots.len(), 1);
        assert_eq!(plan.slots(), vec![0, 1, 2]);
        // The shared second literal accepts the prefix clause and forks into
        // both suffixes.
        let root = plan.node(plan.roots[0]);
        assert_eq!(root.subtree, vec![0, 1, 2]);
        let second = plan.node(root.children[0]);
        assert_eq!(second.accepting, vec![0]);
        assert_eq!(second.children.len(), 2);
    }

    #[test]
    fn batched_outcomes_match_reference_semantics() {
        let db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        let clauses: Vec<Clause> = bodies
            .iter()
            .map(|b| Clause::new(head.clone(), b.clone()))
            .collect();
        let live = vec![true; clauses.len()];
        for example in [
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["ann", "carol"]),
            Tuple::from_strs(&["carol", "dan"]),
            Tuple::from_strs(&["dan", "dan"]),
        ] {
            let (outcomes, stats) = evaluate_subtree(
                &plan,
                plan.roots[0],
                &db,
                &example,
                &live,
                &EvalBudget::new(10_000),
            );
            assert_eq!(outcomes.len(), clauses.len());
            assert_eq!(stats.tests, clauses.len());
            for (slot, outcome) in outcomes {
                assert_eq!(
                    outcome.is_covered(),
                    castor_logic::covers_example(&clauses[slot], &db, &example),
                    "slot {slot} diverged on {example}"
                );
            }
        }
    }

    #[test]
    fn shared_probes_and_forks_are_counted() {
        let db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        let live = vec![true; 3];
        let (_, stats) = evaluate_subtree(
            &plan,
            plan.roots[0],
            &db,
            &Tuple::from_strs(&["ann", "bob"]),
            &live,
            &EvalBudget::new(10_000),
        );
        assert!(stats.prefix_hits > 0, "no shared probes counted: {stats:?}");
        assert!(stats.suffix_forks > 0, "no suffix forks counted: {stats:?}");
    }

    #[test]
    fn zero_budget_reports_exhaustion_per_candidate() {
        let db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        let live = vec![true; 3];
        let (outcomes, stats) = evaluate_subtree(
            &plan,
            plan.roots[0],
            &db,
            &Tuple::from_strs(&["ann", "bob"]),
            &live,
            &EvalBudget::new(0),
        );
        assert!(outcomes.iter().all(|(_, o)| o.is_exhausted()));
        assert_eq!(stats.budget_exhausted, 3);
    }

    /// `t(_0)` with two siblings under the shared root `a(_0, _1)`:
    /// slot 0 appends `b(_1)`, slot 1 appends `c(_1, _2), d(_2)`. For the
    /// example `t(x)` the root yields `a(x, v1)`, `a(x, v2)`; `b` holds
    /// only `v2`; `c` yields three tuples under `v1` and one under `v2`,
    /// none of whose second values is in `d`. Slot 0 is covered after 3
    /// charged tuples (both root tuples and `b(v2)`); slot 1 needs 6 (both
    /// root tuples and the four `c` tuples) to finish as not covered.
    fn budget_split_plan() -> (DatabaseInstance, BatchPlan) {
        let mut schema = Schema::new("budget");
        schema
            .add_relation(RelationSymbol::new("a", &["k", "v"]))
            .add_relation(RelationSymbol::new("b", &["v"]))
            .add_relation(RelationSymbol::new("c", &["v", "w"]))
            .add_relation(RelationSymbol::new("d", &["w"]));
        let mut db = DatabaseInstance::empty(&schema);
        for v in ["v1", "v2"] {
            db.insert("a", Tuple::from_strs(&["x", v])).unwrap();
        }
        db.insert("b", Tuple::from_strs(&["v2"])).unwrap();
        for (v, w) in [("v1", "w1"), ("v1", "w2"), ("v1", "w3"), ("v2", "w4")] {
            db.insert("c", Tuple::from_strs(&[v, w])).unwrap();
        }
        // More `d` tuples than `c` tuples per `v`, so the chain `c, d`
        // keeps its order under the cost model.
        for z in ["z1", "z2", "z3", "z4", "z5"] {
            db.insert("d", Tuple::from_strs(&[z])).unwrap();
        }
        let head = Atom::vars("t", &["_0"]);
        let root = Atom::vars("a", &["_0", "_1"]);
        let bodies = vec![
            vec![root.clone(), Atom::vars("b", &["_1"])],
            vec![
                root,
                Atom::vars("c", &["_1", "_2"]),
                Atom::vars("d", &["_2"]),
            ],
        ];
        let plan = plan_of(&head, &bodies, &db);
        (db, plan)
    }

    #[test]
    fn node_budget_exhausts_one_sibling_and_lets_the_other_finish() {
        let (db, plan) = budget_split_plan();
        assert_eq!(plan.roots.len(), 1);
        let example = Tuple::from_strs(&["x"]);
        let run = |nodes: usize| {
            let (mut outcomes, stats) = evaluate_subtree(
                &plan,
                plan.roots[0],
                &db,
                &example,
                &[true, true],
                &EvalBudget::new(nodes),
            );
            outcomes.sort_by_key(|&(slot, _)| slot);
            let verdicts: Vec<CoverageOutcome> = outcomes.into_iter().map(|(_, o)| o).collect();
            (verdicts, stats)
        };
        use CoverageOutcome::{Covered, Exhausted, NotCovered};

        // 3 nodes: exactly enough for slot 0; slot 1 runs dry on the third
        // `c` tuple under `v1`, so only slot 0 forks off `v2`.
        let (verdicts, stats) = run(3);
        assert_eq!(verdicts, vec![Covered, Exhausted]);
        assert_eq!(stats.budget_exhausted, 1);
        assert_eq!(stats.tests, 2);
        assert_eq!(stats.prefix_hits, 1);
        assert_eq!(stats.suffix_forks, 1);

        // 5 nodes: slot 1 runs dry on `c(v2, w4)`, its sixth tuple.
        assert_eq!(run(5).0, vec![Covered, Exhausted]);

        // 2 nodes: slot 0 runs dry on `b(v2)`, slot 1 inside `c`.
        let (verdicts, stats) = run(2);
        assert_eq!(verdicts, vec![Exhausted, Exhausted]);
        assert_eq!(stats.budget_exhausted, 2);

        // 6 nodes: both finish; both siblings fork off both root tuples.
        let (verdicts, stats) = run(6);
        assert_eq!(verdicts, vec![Covered, NotCovered]);
        assert_eq!(stats.budget_exhausted, 0);
        assert_eq!(stats.suffix_forks, 2);
    }

    #[test]
    fn cancel_set_before_the_cell_exhausts_every_live_slot() {
        let db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        let example = Tuple::from_strs(&["ann", "bob"]);
        let live = [true, false, true];
        let (_, ample) = evaluate_subtree(
            &plan,
            plan.roots[0],
            &db,
            &example,
            &live,
            &EvalBudget::new(10_000),
        );
        let token = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let (outcomes, stats) = evaluate_subtree(
            &plan,
            plan.roots[0],
            &db,
            &example,
            &live,
            &EvalBudget::with_cancel(10_000, token),
        );
        let mut slots: Vec<usize> = outcomes.iter().map(|&(s, _)| s).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 2]);
        assert!(outcomes.iter().all(|(_, o)| o.is_exhausted()));
        assert_eq!(stats.budget_exhausted, 2);
        assert_eq!(stats.tests, ample.tests);
    }

    #[test]
    fn live_mask_restricts_the_verdicts() {
        let db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        let live = vec![false, true, false];
        let (outcomes, _) = evaluate_subtree(
            &plan,
            plan.roots[0],
            &db,
            &Tuple::from_strs(&["ann", "bob"]),
            &live,
            &EvalBudget::new(10_000),
        );
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].0, 1);
    }

    #[test]
    fn shared_prefix_chains_are_reordered_by_selectivity() {
        // Siblings share the badly-ordered prefix [skewed(x,y), flat(x,z)]:
        // the hub relation first, the selective one second. The histogram
        // model must flip the *shared chain* without breaking sharing.
        let mut schema = Schema::new("s");
        schema
            .add_relation(RelationSymbol::new("skewed", &["a", "b"]))
            .add_relation(RelationSymbol::new("flat", &["a", "b"]))
            .add_relation(RelationSymbol::new("p1", &["a"]))
            .add_relation(RelationSymbol::new("p2", &["a"]));
        let mut db = DatabaseInstance::empty(&schema);
        for i in 0..120 {
            db.insert("skewed", Tuple::from_strs(&["hub", &format!("v{i}")]))
                .unwrap();
        }
        for i in 0..80 {
            db.insert(
                "skewed",
                Tuple::from_strs(&[&format!("k{i}"), &format!("w{i}")]),
            )
            .unwrap();
        }
        for i in 0..60 {
            db.insert(
                "flat",
                Tuple::from_strs(&[&format!("f{}", i % 20), &format!("x{i}")]),
            )
            .unwrap();
        }
        db.insert("flat", Tuple::from_strs(&["hub", "y0"])).unwrap();
        db.insert("p1", Tuple::from_strs(&["v0"])).unwrap();
        db.insert("p2", Tuple::from_strs(&["y0"])).unwrap();

        let head = Atom::vars("t", &["_0"]);
        let prefix = vec![
            Atom::vars("skewed", &["_0", "_1"]),
            Atom::vars("flat", &["_0", "_2"]),
        ];
        let mut with_p1 = prefix.clone();
        with_p1.push(Atom::vars("p1", &["_1"]));
        let mut with_p2 = prefix.clone();
        with_p2.push(Atom::vars("p2", &["_2"]));
        let bodies = [prefix.clone(), with_p1, with_p2];
        let slotted: Vec<(usize, &[Atom])> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.as_slice()))
            .collect();
        let stats = DatabaseStatistics::gather(&db);

        let uniform =
            BatchPlan::compile_with(&head, &slotted, &stats, CostModelKind::Uniform.model());
        assert_eq!(uniform.node(uniform.roots[0]).atom.relation, "skewed");

        let hist =
            BatchPlan::compile_with(&head, &slotted, &stats, CostModelKind::Histogram.model());
        // Sharing intact: still 2 chain nodes + 2 suffix leaves...
        assert_eq!(hist.node_count(), 4);
        assert_eq!(hist.roots.len(), 1);
        // ...but the selective literal now leads the shared chain.
        let root = hist.node(hist.roots[0]);
        assert_eq!(root.atom.relation, "flat");
        let second = hist.node(root.children[0]);
        assert_eq!(second.atom.relation, "skewed");
        assert_eq!(second.accepting, vec![0]);
        assert_eq!(second.children.len(), 2);
        // Access paths were recomputed for the new positions.
        assert_eq!(root.bound_positions, vec![0]);
        assert_eq!(second.bound_positions, vec![0]);

        // Semantics are untouched by the reorder.
        let clauses: Vec<Clause> = bodies
            .iter()
            .map(|b| Clause::new(head.clone(), b.clone()))
            .collect();
        let live = vec![true; clauses.len()];
        for example in [
            Tuple::from_strs(&["hub"]),
            Tuple::from_strs(&["k3"]),
            Tuple::from_strs(&["f0"]),
        ] {
            for plan in [&uniform, &hist] {
                let (outcomes, _) = evaluate_subtree(
                    plan,
                    plan.roots[0],
                    &db,
                    &example,
                    &live,
                    &EvalBudget::new(100_000),
                );
                for (slot, outcome) in outcomes {
                    assert_eq!(
                        outcome.is_covered(),
                        castor_logic::covers_example(&clauses[slot], &db, &example),
                        "slot {slot} diverged on {example}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_bodies_collect_at_the_root() {
        let db = db();
        let head = Atom::vars("t", &["_0"]);
        let stats = DatabaseStatistics::gather(&db);
        let empty: Vec<Atom> = Vec::new();
        let plan = BatchPlan::compile(&head, &[(7, empty.as_slice())], &stats);
        assert_eq!(plan.root_accepting, vec![7]);
        assert!(plan.roots.is_empty());
        assert_eq!(plan.slots(), vec![7]);
    }
}

//! θ-subsumption.
//!
//! Clause `C` θ-subsumes clause `D` iff there is a substitution θ such that
//! `Cθ ⊆ D` (treating clauses as sets of literals). Castor's coverage test
//! is exactly θ-subsumption of a candidate clause against the ground
//! bottom-clause of an example (Section 7.5.3); the paper delegates this to
//! the Resumer2 engine, which this module replaces with a forward-checking
//! constraint search in the style of Django (Maloberti & Sebag, *Fast
//! θ-subsumption with constraint satisfaction algorithms*, 2004).
//!
//! # The kernel
//!
//! Each body literal of `C` is a constraint variable whose values are the
//! body literals of `D` it could map onto.
//!
//! * *Index.* Each test numbers the variables of `C` with dense *slots*,
//!   gives every distinct term of `D` a dense id, and turns every body
//!   literal of `D` into a row of term ids, grouped by relation and arity.
//!   The rows are indexed once per test by (group, argument position,
//!   term): one sorted run of candidates per key.
//! * *Domains.* Every open literal of `C` keeps its live candidate rows.
//!   Its initial domain is filtered by `C`'s constants, the head bindings
//!   and repeated variables, and an empty one fails the test before the
//!   rest of `C` is even compiled. A domain is the literal's whole group
//!   while nothing constrains it, a run of the index while one constant or
//!   bound slot does, and otherwise a run on one shared stack: a filter
//!   appends the shrunk domain there and records the domain it replaces on
//!   a trail, so backtracking restores the old domain and truncates the
//!   stack. Memory follows the work done, not `|C| × |D|`.
//! * *Order.* The search always expands the open literal with the smallest
//!   live domain. Ties go by a static order: fewest candidates first, then
//!   literals connected by shared variables to the ones placed before (the
//!   head's first).
//! * *Propagation.* Trying a candidate binds the literal's unbound slots,
//!   and each binding filters the domains of the open literals that use the
//!   slot: through the index when fewer candidates carry the bound term
//!   than are live, by scanning the live domain otherwise. A domain that
//!   empties fails the branch before it is entered. Every live candidate of
//!   a literal whose slots are all bound is the same row, so such a literal
//!   is tried once (which also makes duplicate literals of `C` free).
//!
//! # Budget
//!
//! [`EvalBudget::consume`] is called once per candidate tried, once per
//! candidate examined while filtering (initial domains included) and once
//! per whole-group domain narrowed to an index run, so the budget bounds
//! the real work and a cancellation token aborts the test within one unit
//! of it. `exhausted` is reported only when a
//! `consume` failed, that is when the budget cut the search short; a test
//! that decides on its last unit is exact. Wherever the kernel decides, its
//! verdict is the one a plain backtracking matcher (the oracle in this
//! module's tests) reaches with an ample budget; node counts and the
//! witness found may differ from it.

use crate::clause::Clause;
use crate::evaluation::EvalBudget;
use crate::substitution::Substitution;
use crate::term::Term;
use castor_relational::fx::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An unbound slot, and a constant of `C` that `D` does not contain.
const NONE: u32 = u32::MAX;

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

/// Whether `general` θ-subsumes `specific` under the default evaluation
/// budget (an exhausted budget counts as "does not subsume"; use
/// [`subsumes_with_eval_budget`] to tell the difference).
pub fn subsumes(general: &Clause, specific: &Clause) -> bool {
    subsumes_with(general, specific).is_some()
}

/// Whether `general` θ-subsumes `specific` under the default evaluation
/// budget, returning the witnessing substitution when it does.
pub fn subsumes_with(general: &Clause, specific: &Clause) -> Option<Substitution> {
    subsumes_with_eval_budget(general, specific, &mut EvalBudget::default()).witness
}

/// One argument of a compiled general body literal.
#[derive(Clone, Copy)]
enum Arg {
    /// A constant, by term id ([`NONE`] when `D` does not contain it).
    Const(u32),
    /// The first occurrence of a variable in the literal, by slot.
    Slot(usize),
    /// A later occurrence of a variable: the term at this earlier position.
    Same(usize),
}

/// Variable slots of the general clause, numbered in first-seen order.
#[derive(Default)]
struct Slots<'g> {
    index: FxHashMap<&'g str, usize>,
    names: Vec<&'g str>,
}

impl<'g> Slots<'g> {
    fn slot(&mut self, name: &'g str) -> usize {
        *self.index.entry(name).or_insert_with(|| {
            self.names.push(name);
            self.names.len() - 1
        })
    }
}

/// The candidate rows of one relation (name and arity) of `D`.
struct Group {
    arity: usize,
    /// The index's number for the group's first argument position; the
    /// others follow it.
    first_position: usize,
    len: usize,
    /// Row `c` is `rows[c * arity..][..arity]`.
    rows: Vec<u32>,
}

impl Group {
    fn row(&self, c: u32) -> &[u32] {
        &self.rows[c as usize * self.arity..][..self.arity]
    }
}

/// The specific clause interned for one test.
struct Index<'s> {
    /// Term id → term.
    terms: Vec<&'s Term>,
    ids: FxHashMap<&'s Term, u32>,
    group_of: FxHashMap<(&'s str, usize), usize>,
    groups: Vec<Group>,
    /// The (group, position, term) key of every argument of every
    /// candidate, sorted, so the candidates of a key are one run of
    /// `postings` (the candidate of `keys[i]` is `postings[i]`).
    keys: Vec<u64>,
    postings: Vec<u32>,
}

impl<'s> Index<'s> {
    fn intern(&mut self, term: &'s Term) -> u32 {
        let next = self.terms.len() as u32;
        *self.ids.entry(term).or_insert_with(|| {
            self.terms.push(term);
            next
        })
    }

    /// Interns the head and body of `specific`, groups its body literals
    /// by relation and arity, and indexes each group by (position, term).
    fn build(specific: &'s Clause) -> Self {
        let terms: usize = specific.body.iter().map(|a| a.terms.len()).sum();
        let mut index = Index {
            terms: Vec::with_capacity(terms),
            ids: FxHashMap::with_capacity_and_hasher(terms, Default::default()),
            group_of: FxHashMap::default(),
            groups: Vec::new(),
            keys: Vec::new(),
            postings: Vec::new(),
        };
        let mut entries: Vec<(u64, u32)> = Vec::with_capacity(terms);
        for term in &specific.head.terms {
            index.intern(term);
        }
        for atom in &specific.body {
            let arity = atom.terms.len();
            let next = index.groups.len();
            let g = *index
                .group_of
                .entry((atom.relation.as_str(), arity))
                .or_insert(next);
            if g == next {
                let first_position = index
                    .groups
                    .last()
                    .map_or(0, |g| g.first_position + g.arity);
                index.groups.push(Group {
                    arity,
                    first_position,
                    len: 0,
                    rows: Vec::new(),
                });
            }
            let c = index.groups[g].len as u32;
            index.groups[g].len += 1;
            for (p, term) in atom.terms.iter().enumerate() {
                let id = index.intern(term);
                index.groups[g].rows.push(id);
                entries.push((index.key(g, p, id), c));
            }
        }
        entries.sort_unstable();
        (index.keys, index.postings) = entries.into_iter().unzip();
        index
    }

    /// The index key of `term` at `position` in group `g`.
    fn key(&self, g: usize, position: usize, term: u32) -> u64 {
        ((self.groups[g].first_position + position) as u64) << 32 | u64::from(term)
    }

    /// The candidates of group `g` with `term` at `position`.
    fn postings(&self, g: usize, position: usize, term: u32) -> Domain {
        let key = self.key(g, position, term);
        let start = self.keys.partition_point(|&k| k < key);
        let size = self.keys[start..].partition_point(|&k| k == key);
        Domain::Index { start, size }
    }
}

/// A general body literal compiled for the search.
#[derive(Clone, Copy)]
struct Literal {
    group: usize,
    /// Offset of its arguments in [`Search::args`].
    args: usize,
    domain: Domain,
}

/// The live candidates of a literal.
#[derive(Clone, Copy)]
enum Domain {
    /// Every row of its group: `0..size`.
    All { size: usize },
    /// A run of [`Index::postings`]: every row with one term at one
    /// position.
    Index { start: usize, size: usize },
    /// A run of [`Search::live`].
    Live { start: usize, size: usize },
}

impl Domain {
    fn size(self) -> usize {
        match self {
            Domain::All { size } | Domain::Index { size, .. } | Domain::Live { size, .. } => size,
        }
    }

    /// The `i`-th live candidate.
    fn candidate(self, index: &Index<'_>, live: &[u32], i: usize) -> u32 {
        match self {
            Domain::All { .. } => i as u32,
            Domain::Index { start, .. } => index.postings[start + i],
            Domain::Live { start, .. } => live[start + i],
        }
    }
}

/// The budget ran out, or an abort token was set.
struct Cut;

/// The search state: slot bindings and literal domains, each with a trail.
struct Search<'i, 's, 'b> {
    index: &'i Index<'s>,
    /// The literals, in static order once [`Search::rank`] ran: a
    /// literal's index is then its tie-break rank.
    lits: Vec<Literal>,
    args: Vec<Arg>,
    /// For slot `s`, the (literal, first position) pairs using it are
    /// `uses[use_start[s]..use_start[s + 1]]`.
    use_start: Vec<usize>,
    uses: Vec<(usize, usize)>,
    /// Slot → term id, or [`NONE`].
    bound: Vec<u32>,
    trail: Vec<usize>,
    /// The live domains that are not a whole group, each one run: a filter
    /// appends the shrunk domain, and backtracking truncates it again.
    live: Vec<u32>,
    /// (literal, domain) of the domains filters replaced.
    shrunk: Vec<(usize, Domain)>,
    /// (live domain size, rank) of the open literals, lazily: an entry is
    /// pushed whenever a size changes, and one whose literal is closed or
    /// whose size is no longer current is skipped when it surfaces.
    open: BinaryHeap<Reverse<(usize, usize)>>,
    closed: Vec<bool>,
    budget: &'b mut EvalBudget,
}

impl Search<'_, '_, '_> {
    fn charge(&mut self) -> Result<(), Cut> {
        // Only a failed `consume` makes a negative answer approximate: a
        // search that spends its whole budget on its final unit decided.
        if self.budget.consume() {
            Ok(())
        } else {
            Err(Cut)
        }
    }

    fn args_of(&self, lit: &Literal) -> &[Arg] {
        &self.args[lit.args..lit.args + self.index.groups[lit.group].arity]
    }

    /// Whether candidate `c` of `lit`'s group agrees with its constants,
    /// its repeated variables and the bound slots.
    fn consistent(&self, lit: &Literal, c: u32) -> bool {
        let row = self.index.groups[lit.group].row(c);
        self.args_of(lit)
            .iter()
            .zip(row)
            .all(|(arg, &term)| match *arg {
                Arg::Const(id) => term == id,
                Arg::Slot(s) => self.bound[s] == NONE || self.bound[s] == term,
                Arg::Same(q) => term == row[q],
            })
    }

    /// Adds a literal of `group` whose arguments start at `args`, with its
    /// initial domain: the candidates consistent with its constants, the
    /// bound slots and its repeated variables. When one constant or bound
    /// slot is the only constraint, the domain is its run of the index;
    /// otherwise the candidates of the fewest-candidate run (or the whole
    /// group) are examined, each charged. `Ok(false)` when the domain is
    /// empty.
    fn add_literal(&mut self, group: usize, args: usize) -> Result<bool, Cut> {
        let index = self.index;
        let mut lit = Literal {
            group,
            args,
            domain: Domain::All {
                size: index.groups[group].len,
            },
        };
        let (mut fixed, mut repeated) = (0, false);
        for (p, arg) in self.args_of(&lit).iter().enumerate() {
            let term = match *arg {
                Arg::Const(c) => c,
                Arg::Slot(s) if self.bound[s] != NONE => self.bound[s],
                Arg::Slot(_) => continue,
                Arg::Same(_) => {
                    repeated = true;
                    continue;
                }
            };
            fixed += 1;
            let hits = index.postings(group, p, term);
            if hits.size() < lit.domain.size() {
                lit.domain = hits;
            }
        }
        if repeated || fixed > 1 {
            let start = self.live.len();
            for i in 0..lit.domain.size() {
                let c = lit.domain.candidate(index, &self.live, i);
                self.charge()?;
                if self.consistent(&lit, c) {
                    self.live.push(c);
                }
            }
            lit.domain = Domain::Live {
                start,
                size: self.live.len() - start,
            };
        }
        self.lits.push(lit);
        Ok(lit.domain.size() > 0)
    }

    /// Puts the literals in static order, fewest candidates first and then
    /// connected first: among the remaining literals, the first one sharing
    /// a slot with those already placed (the first `head_slots` slots are
    /// placed from the start), else the first one. Builds the slot → uses
    /// table in that order and opens every literal.
    fn rank(&mut self, head_slots: usize) {
        let slots = self.bound.len();
        let index = self.index;
        let key = |lit: usize, lits: &[Literal]| (index.groups[lits[lit].group].len, lit);
        let mut uses: Vec<(usize, usize, usize)> = Vec::new();
        for (lit, l) in self.lits.iter().enumerate() {
            for (p, arg) in self.args_of(l).iter().enumerate() {
                if let Arg::Slot(s) = *arg {
                    uses.push((s, lit, p));
                }
            }
        }
        uses.sort_unstable();
        let mut use_start = vec![0; slots + 1];
        for &(s, _, _) in &uses {
            use_start[s + 1] += 1;
        }
        for s in 0..slots {
            use_start[s + 1] += use_start[s];
        }
        let mut by_key: Vec<(usize, usize)> =
            (0..self.lits.len()).map(|l| key(l, &self.lits)).collect();
        by_key.sort_unstable();
        let mut placed = vec![false; slots];
        let mut ranked = vec![false; self.lits.len()];
        let mut frontier: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        let mut place = |s: usize, frontier: &mut BinaryHeap<_>| {
            if !std::mem::replace(&mut placed[s], true) {
                frontier.extend(
                    uses[use_start[s]..use_start[s + 1]]
                        .iter()
                        .map(|u| Reverse(key(u.1, &self.lits))),
                );
            }
        };
        for s in 0..head_slots {
            place(s, &mut frontier);
        }
        let mut order: Vec<usize> = Vec::with_capacity(self.lits.len());
        let mut fallback = by_key.iter().map(|k| k.1);
        while order.len() < self.lits.len() {
            let lit = match frontier.pop() {
                Some(Reverse((_, lit))) => lit,
                None => fallback.next().expect("an unranked literal remains"),
            };
            if std::mem::replace(&mut ranked[lit], true) {
                continue;
            }
            order.push(lit);
            for arg in self.args_of(&self.lits[lit]) {
                if let Arg::Slot(s) = *arg {
                    place(s, &mut frontier);
                }
            }
        }
        let mut rank = vec![0; self.lits.len()];
        for (r, &lit) in order.iter().enumerate() {
            rank[lit] = r;
        }
        self.lits = order.iter().map(|&lit| self.lits[lit]).collect();
        self.uses = uses.iter().map(|&(_, lit, p)| (rank[lit], p)).collect();
        self.use_start = use_start;
        self.closed = vec![false; self.lits.len()];
        self.open = self
            .lits
            .iter()
            .enumerate()
            .map(|(lit, l)| Reverse((l.domain.size(), lit)))
            .collect();
    }

    /// Restricts the domain of open literal `lit` to the candidates with
    /// `term` at `position`; `Ok(false)` when it empties.
    fn filter(&mut self, lit: usize, position: usize, term: u32) -> Result<bool, Cut> {
        let index = self.index;
        let l = self.lits[lit];
        let hits = index.postings(l.group, position, term);
        let domain = match l.domain {
            // The whole group narrows to the index run as it is, for one
            // unit: the lookup.
            Domain::All { .. } => {
                self.charge()?;
                hits
            }
            old => {
                let start = self.live.len();
                if hits.size() < old.size() {
                    // Walk the index: a hit is live when it agrees with
                    // the literal's bound slots.
                    for i in 0..hits.size() {
                        self.charge()?;
                        let c = hits.candidate(index, &self.live, i);
                        if self.consistent(&l, c) {
                            self.live.push(c);
                        }
                    }
                } else {
                    // Scan the live domain.
                    for i in 0..old.size() {
                        self.charge()?;
                        let c = old.candidate(index, &self.live, i);
                        if index.groups[l.group].row(c)[position] == term {
                            self.live.push(c);
                        }
                    }
                }
                Domain::Live {
                    start,
                    size: self.live.len() - start,
                }
            }
        };
        if domain.size() == l.domain.size() {
            if let Domain::Live { start, .. } = domain {
                self.live.truncate(start);
            }
        } else {
            self.shrunk.push((lit, l.domain));
            self.lits[lit].domain = domain;
            self.open.push(Reverse((domain.size(), lit)));
        }
        Ok(domain.size() > 0)
    }

    /// Maps `lit` onto candidate `c`: binds its unbound slots and filters
    /// the open literals that use them. `Ok(false)` when a domain empties.
    fn assign(&mut self, lit: usize, c: u32) -> Result<bool, Cut> {
        let index = self.index;
        let l = self.lits[lit];
        let row = index.groups[l.group].row(c);
        let mark = self.trail.len();
        for (p, &term) in row.iter().enumerate() {
            if let Arg::Slot(s) = self.args[l.args + p] {
                if self.bound[s] == NONE {
                    self.bound[s] = term;
                    self.trail.push(s);
                }
            }
        }
        for t in mark..self.trail.len() {
            let s = self.trail[t];
            for u in self.use_start[s]..self.use_start[s + 1] {
                // Every other literal using a slot that was unbound is open:
                // assigning a literal binds all of its slots.
                let (other, position) = self.uses[u];
                if other != lit && !self.filter(other, position, self.bound[s])? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Unbinds the slots, restores the domains and drops the runs recorded
    /// since the trails were as long as `marks`.
    fn undo(&mut self, (trail, shrunk, live): (usize, usize, usize)) {
        for s in self.trail.drain(trail..) {
            self.bound[s] = NONE;
        }
        for (lit, domain) in self.shrunk.drain(shrunk..).rev() {
            self.lits[lit].domain = domain;
            self.open.push(Reverse((domain.size(), lit)));
        }
        self.live.truncate(live);
    }

    /// Expands the open literal with the smallest live domain; on success
    /// the bindings hold the witness.
    fn search(&mut self) -> Result<bool, Cut> {
        let (size, lit) = loop {
            match self.open.pop() {
                None => return Ok(true),
                Some(Reverse((size, lit)))
                    if !self.closed[lit] && size == self.lits[lit].domain.size() =>
                {
                    break (size, lit);
                }
                Some(_) => {}
            }
        };
        self.closed[lit] = true;
        let l = self.lits[lit];
        let fully_bound = self.args_of(&l).iter().all(|arg| match *arg {
            Arg::Slot(s) => self.bound[s] != NONE,
            _ => true,
        });
        for i in 0..if fully_bound { 1 } else { size } {
            self.charge()?;
            let marks = (self.trail.len(), self.shrunk.len(), self.live.len());
            if self.assign(lit, l.domain.candidate(self.index, &self.live, i))? && self.search()? {
                return Ok(true);
            }
            self.undo(marks);
        }
        self.closed[lit] = false;
        self.open.push(Reverse((size, lit)));
        Ok(false)
    }
}

/// Subsumption test driven by a caller-supplied [`EvalBudget`], reporting
/// budget exhaustion instead of conflating it with a negative answer. The
/// coverage engine passes its configured evaluation budget here, so the
/// knob governs both database evaluation and θ-subsumption coverage
/// testing, and a cancellation token installed on the budget aborts the
/// search (as an exhaustion) within one unit of work — the serving layer
/// cancels θ-subsumption coverage tests through this entry point.
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
    let index = Index::build(specific);
    let mut slots = Slots::default();
    let mut bound: Vec<u32> = Vec::new();
    for (g, s) in general.head.terms.iter().zip(&specific.head.terms) {
        let ok = match g {
            Term::Const(_) => g == s,
            Term::Var(name) => {
                let slot = slots.slot(name);
                let term = index.ids[s];
                if slot == bound.len() {
                    bound.push(term);
                }
                bound[slot] == term
            }
        };
        if !ok {
            return decided(None);
        }
    }
    let head_slots = bound.len();

    let mut search = Search {
        index: &index,
        lits: Vec::with_capacity(general.body.len()),
        args: Vec::new(),
        use_start: Vec::new(),
        uses: Vec::new(),
        bound,
        trail: Vec::new(),
        live: Vec::new(),
        shrunk: Vec::new(),
        open: BinaryHeap::new(),
        closed: Vec::new(),
        budget,
    };
    // Compile each literal and fill its initial domain right away, so an
    // empty one fails the test before the rest is compiled or ordered.
    let mut filled = || -> Result<bool, Cut> {
        for atom in &general.body {
            let Some(&group) = index
                .group_of
                .get(&(atom.relation.as_str(), atom.terms.len()))
            else {
                return Ok(false);
            };
            let at = search.args.len();
            for (p, term) in atom.terms.iter().enumerate() {
                search.args.push(match term {
                    Term::Const(_) => Arg::Const(index.ids.get(term).copied().unwrap_or(NONE)),
                    Term::Var(name) => match atom.terms[..p].iter().position(|t| t == term) {
                        Some(q) => Arg::Same(q),
                        None => Arg::Slot(slots.slot(name)),
                    },
                });
            }
            search.bound.resize(slots.names.len(), NONE);
            if !search.add_literal(group, at)? {
                return Ok(false);
            }
        }
        search.rank(head_slots);
        search.search()
    };
    match filled() {
        Err(Cut) => SubsumptionOutcome {
            witness: None,
            exhausted: true,
        },
        Ok(false) => decided(None),
        Ok(true) => {
            let mut theta = Substitution::new();
            for (name, &term) in slots.names.iter().zip(&search.bound) {
                theta.bind(*name, index.terms[term as usize].clone());
            }
            decided(Some(theta))
        }
    }
}

/// Whether two clauses are θ-equivalent (each subsumes the other) under the
/// default evaluation budget: `None` when a search ran out of it. This is
/// the syntactic notion of clause equivalence used when checking that two
/// learned definitions are "the same" across schemas.
pub fn theta_equivalent(a: &Clause, b: &Clause) -> Option<bool> {
    let decide = |general, specific| {
        let outcome = subsumes_with_eval_budget(general, specific, &mut EvalBudget::default());
        (!outcome.exhausted).then(|| outcome.subsumes())
    };
    let forward = decide(a, b);
    if forward == Some(false) {
        return forward;
    }
    match decide(b, a) {
        Some(true) => forward,
        backward => backward,
    }
}

/// A clone-per-node backtracking matcher with one fixed literal order: the
/// oracle for the kernel's verdicts.
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
        assert_eq!(theta_equivalent(&c, &c), Some(true));
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
        assert_eq!(theta_equivalent(&c1, &c2), Some(true));
    }

    #[test]
    fn redundant_literals_do_not_affect_equivalence() {
        let minimal = Clause::new(a("t", &["x"]), vec![a("p", &["x", "y"])]);
        let redundant = Clause::new(
            a("t", &["x"]),
            vec![a("p", &["x", "y"]), a("p", &["x", "z"])],
        );
        assert_eq!(theta_equivalent(&minimal, &redundant), Some(true));
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
    fn kernel_agrees_with_reference_matcher() {
        let budgets = [0, 1, 2, 3, 5, 8, 20, 60, crate::DEFAULT_EVAL_NODE_BUDGET];
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
            let got = subsumes_with_eval_budget(&general, &specific, &mut EvalBudget::new(nodes));
            let want = reference::subsumes_with_eval_budget(
                &general,
                &specific,
                &mut EvalBudget::new(1_000_000),
            );
            let case = format!("seed {seed}: {general}  vs  {specific}, budget {nodes}");
            assert!(!want.exhausted, "{case}");
            if got.exhausted {
                assert!(!got.subsumes(), "{case}");
                exhausted += 1;
                continue;
            }
            assert_eq!(got.subsumes(), want.subsumes(), "{case}");
            decided[usize::from(got.subsumes())] += 1;
            // The witness maps the head onto the specific head and every
            // body literal into the specific body.
            if let Some(theta) = got.witness {
                assert_eq!(theta.apply_atom(&general.head), specific.head, "{case}");
                for atom in &general.body {
                    assert!(specific.body.contains(&theta.apply_atom(atom)), "{case}");
                }
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

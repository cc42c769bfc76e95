//! Ordered Horn clauses.
//!
//! Bottom-up learners (ProGolem, Castor) operate on *ordered* clauses where
//! the order and duplication of body literals matter (Section 6.4 of the
//! paper), so the body is a `Vec<Atom>` rather than a set. Set-style
//! equality is still available through [`Clause::same_literals`].

use crate::atom::Atom;
use crate::term::Term;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A definite Horn clause `head ← body`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Clause {
    /// The single positive literal (the target atom).
    pub head: Atom,
    /// The (ordered) list of body literals.
    pub body: Vec<Atom>,
}

impl Clause {
    /// Creates a clause.
    pub fn new(head: Atom, body: Vec<Atom>) -> Self {
        Clause { head, body }
    }

    /// Creates a clause with an empty body (the most general clause for a
    /// target relation — the root of a top-down refinement graph).
    pub fn fact(head: Atom) -> Self {
        Clause {
            head,
            body: Vec::new(),
        }
    }

    /// Number of literals in the clause, counting the head; the paper calls
    /// the number of body literals the clause *length*, exposed separately
    /// as [`Clause::body_len`].
    pub fn len(&self) -> usize {
        self.body.len() + 1
    }

    /// Number of body literals (the clause length used by the
    /// `clauselength` parameter of top-down learners).
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Whether the clause has an empty body.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Whether every literal in the clause is ground.
    pub fn is_ground(&self) -> bool {
        self.head.is_ground() && self.body.iter().all(Atom::is_ground)
    }

    /// All variable names appearing in the clause.
    pub fn variables(&self) -> BTreeSet<String> {
        let mut vars = self.head.variables();
        for a in &self.body {
            vars.extend(a.variables());
        }
        vars
    }

    /// Variables appearing in the head literal.
    pub fn head_variables(&self) -> BTreeSet<String> {
        self.head.variables()
    }

    /// Number of distinct variables; Castor's bottom-clause construction
    /// uses this as its stopping condition because it is invariant under
    /// (de)composition (Section 7.1).
    pub fn distinct_variable_count(&self) -> usize {
        self.variables().len()
    }

    /// Adds a literal to the end of the body.
    pub fn push(&mut self, atom: Atom) {
        self.body.push(atom);
    }

    /// The depth of each variable, following Section 6.1: head variables
    /// have depth 0; any other variable `x` has depth
    /// `min over body literals containing x of (1 + min depth of the other
    /// variables in that literal)`. Variables unreachable from the head get
    /// `usize::MAX`.
    pub fn variable_depths(&self) -> BTreeMap<String, usize> {
        let mut depths: BTreeMap<String, usize> = BTreeMap::new();
        for v in self.head.variables() {
            depths.insert(v, 0);
        }
        for v in self.variables() {
            depths.entry(v).or_insert(usize::MAX);
        }
        // Relax repeatedly until a fixpoint (the body is small in practice).
        loop {
            let mut changed = false;
            for atom in &self.body {
                let vars: Vec<String> = atom.variables().into_iter().collect();
                let min_depth = vars.iter().map(|v| depths[v]).min().unwrap_or(usize::MAX);
                if min_depth == usize::MAX {
                    continue;
                }
                for v in &vars {
                    let candidate = min_depth.saturating_add(1);
                    let current = depths[v];
                    if candidate < current && current != 0 {
                        depths.insert(v.clone(), candidate);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        depths
    }

    /// The depth of the clause: the maximum literal depth, where a literal's
    /// depth is the maximum depth of its variables.
    pub fn depth(&self) -> usize {
        let depths = self.variable_depths();
        self.body
            .iter()
            .map(|a| a.variables().iter().map(|v| depths[v]).max().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    /// Whether the two clauses have the same head and the same *set* of body
    /// literals (ignoring order and duplicates).
    pub fn same_literals(&self, other: &Clause) -> bool {
        if self.head != other.head {
            return false;
        }
        let a: BTreeSet<&Atom> = self.body.iter().collect();
        let b: BTreeSet<&Atom> = other.body.iter().collect();
        a == b
    }

    /// Removes body literals that are not *head-connected*: literals that
    /// cannot be reached from the head through shared variables. ProGolem's
    /// and Castor's ARMG drop such literals after removing a blocking atom.
    pub fn remove_unconnected(&mut self) {
        fn vars(atom: &Atom) -> impl Iterator<Item = &str> {
            atom.terms.iter().filter_map(Term::var_name)
        }
        let ground_head = vars(&self.head).next().is_none();
        let mut reachable: BTreeSet<&str> = vars(&self.head).collect();
        let mut reached = vec![false; self.body.len()];
        loop {
            let before = reachable.len();
            for (i, atom) in self.body.iter().enumerate() {
                if !reached[i] && vars(atom).any(|v| reachable.contains(v)) {
                    reached[i] = true;
                    reachable.extend(vars(atom));
                }
            }
            if reachable.len() == before {
                break;
            }
        }
        // Ground body literals carry no variables; keep them only if the
        // clause head is itself ground (rare), otherwise they are
        // unconnected by definition.
        let keep: Vec<bool> = self
            .body
            .iter()
            .zip(reached)
            .map(|(atom, reached)| match vars(atom).next() {
                None => ground_head,
                Some(_) => reached,
            })
            .collect();
        let mut keep = keep.into_iter();
        self.body.retain(|_| keep.next().unwrap_or(true));
    }

    /// Renames every variable by applying `f` to its name. Used to
    /// standardize clauses apart before lgg or subsumption checks.
    pub fn rename_variables(&self, f: impl Fn(&str) -> String) -> Clause {
        let rename_atom = |a: &Atom| Atom {
            relation: a.relation.clone(),
            terms: a
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(name) => Term::Var(f(name)),
                    Term::Const(_) => t.clone(),
                })
                .collect(),
        };
        Clause {
            head: rename_atom(&self.head),
            body: self.body.iter().map(rename_atom).collect(),
        }
    }

    /// Renames all variables with a numeric suffix, producing a clause with
    /// no variable in common with any clause renamed with a different suffix.
    pub fn standardize_apart(&self, suffix: usize) -> Clause {
        self.rename_variables(|name| format!("{name}_{suffix}"))
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.body.is_empty() {
            return write!(f, "{}.", self.head);
        }
        let body: Vec<String> = self.body.iter().map(|a| a.to_string()).collect();
        write!(f, "{} ← {}", self.head, body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clause(head: Atom, body: Vec<Atom>) -> Clause {
        Clause::new(head, body)
    }

    #[test]
    fn length_counts_body_literals() {
        let c = clause(
            Atom::vars("t", &["x"]),
            vec![Atom::vars("p", &["x", "y"]), Atom::vars("q", &["y"])],
        );
        assert_eq!(c.body_len(), 2);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(Clause::fact(Atom::vars("t", &["x"])).is_empty());
    }

    #[test]
    fn variable_depths_follow_paper_definition() {
        // taLevel(x,y) ← ta(c,x,t), courseLevel(c,y): depth 1 (Example 6.1).
        let c = clause(
            Atom::vars("taLevel", &["x", "y"]),
            vec![
                Atom::vars("ta", &["c", "x", "t"]),
                Atom::vars("courseLevel", &["c", "y"]),
            ],
        );
        let d = c.variable_depths();
        assert_eq!(d["x"], 0);
        assert_eq!(d["y"], 0);
        assert_eq!(d["c"], 1);
        assert_eq!(d["t"], 1);
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn depth_two_clause_from_example_6_1() {
        // commonLevel(x,y) ← ta(c1,x,t1), ta(c2,y,t2),
        //                    courseLevel(c1,l), courseLevel(c2,l): depth 2.
        let c = clause(
            Atom::vars("commonLevel", &["x", "y"]),
            vec![
                Atom::vars("ta", &["c1", "x", "t1"]),
                Atom::vars("ta", &["c2", "y", "t2"]),
                Atom::vars("courseLevel", &["c1", "l"]),
                Atom::vars("courseLevel", &["c2", "l"]),
            ],
        );
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn same_literals_ignores_order_and_duplicates() {
        let a = clause(
            Atom::vars("t", &["x"]),
            vec![Atom::vars("p", &["x"]), Atom::vars("q", &["x"])],
        );
        let b = clause(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("q", &["x"]),
                Atom::vars("p", &["x"]),
                Atom::vars("p", &["x"]),
            ],
        );
        assert!(a.same_literals(&b));
        assert_ne!(a, b); // ordered equality still distinguishes them
    }

    #[test]
    fn remove_unconnected_drops_unreachable_literals() {
        let mut c = clause(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("p", &["x", "y"]),
                Atom::vars("q", &["y"]),
                Atom::vars("r", &["z", "w"]), // unreachable from head
            ],
        );
        c.remove_unconnected();
        assert_eq!(c.body_len(), 2);
        assert!(c.body.iter().all(|a| a.relation != "r"));
    }

    #[test]
    fn remove_unconnected_keeps_transitively_connected() {
        let mut c = clause(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("p", &["x", "y"]),
                Atom::vars("q", &["y", "z"]),
                Atom::vars("r", &["z"]),
            ],
        );
        c.remove_unconnected();
        assert_eq!(c.body_len(), 3);
    }

    #[test]
    fn standardize_apart_removes_shared_variables() {
        let c = clause(Atom::vars("t", &["x"]), vec![Atom::vars("p", &["x", "y"])]);
        let c1 = c.standardize_apart(1);
        let c2 = c.standardize_apart(2);
        assert!(c1.variables().is_disjoint(&c2.variables()));
    }

    #[test]
    fn distinct_variable_count_matches_variables() {
        let c = clause(
            Atom::vars("t", &["x", "y"]),
            vec![Atom::vars("p", &["x", "z"]), Atom::vars("q", &["z", "y"])],
        );
        assert_eq!(c.distinct_variable_count(), 3);
    }

    #[test]
    fn display_renders_datalog_style() {
        let c = clause(
            Atom::vars("collaborated", &["x", "y"]),
            vec![
                Atom::vars("publication", &["p", "x"]),
                Atom::vars("publication", &["p", "y"]),
            ],
        );
        assert_eq!(
            c.to_string(),
            "collaborated(x,y) ← publication(p,x), publication(p,y)"
        );
    }
}

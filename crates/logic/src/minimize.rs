//! Clause minimization by θ-reduction.
//!
//! A literal `L` of clause `C` is redundant if `C` is θ-equivalent to
//! `C − {L}`. Since `C − {L}` always θ-subsumes `C` (it is a subset of the
//! literals, so the identity substitution witnesses it), equivalence holds
//! exactly when `C` θ-subsumes `C − {L}`, i.e. there is a substitution
//! mapping `C` into its own subset. Castor minimizes every
//! bottom-clause and every learned clause this way (Section 7.5.5). The
//! paper uses a polynomial-time approximation of the subsumption test; here
//! each test runs the exact subsumption kernel under the default evaluation
//! budget, and a test that exhausts it keeps the literal.

use crate::clause::Clause;
use crate::subsumption::subsumes;

/// Removes syntactically redundant body literals.
///
/// Scans body literals left to right; a literal is dropped when the clause
/// without it still θ-subsumes the original clause. The result is equivalent
/// to the input (it subsumes and is subsumed by it). A subsumption test
/// that exhausts the default evaluation budget keeps its literal, so the
/// result is always sound but not necessarily minimal.
pub fn minimize_clause(clause: &Clause) -> Clause {
    let mut current = clause.clone();
    let mut i = 0;
    while i < current.body.len() {
        let mut candidate = current.clone();
        candidate.body.remove(i);
        // Removing a literal always generalizes, so `candidate` subsumes
        // `current` trivially. The literal is redundant only if the full
        // clause still maps *into* the reduced one, i.e. `current` θ-subsumes
        // `candidate`; then the two are θ-equivalent.
        if subsumes(&current, &candidate) {
            current = candidate;
            // do not advance: the literal at position i is now a new one
        } else {
            i += 1;
        }
    }
    current
}

/// Number of literals removed when minimizing `clause`, as a fraction of the
/// original body length. The paper reports 13–19% reductions on the HIV
/// bottom-clauses; this helper feeds that statistic in our experiment
/// reports.
pub fn reduction_ratio(clause: &Clause) -> f64 {
    if clause.body.is_empty() {
        return 0.0;
    }
    let minimized = minimize_clause(clause);
    (clause.body.len() - minimized.body.len()) as f64 / clause.body.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::subsumption::theta_equivalent;

    #[test]
    fn removes_duplicate_literals() {
        let c = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("p", &["x", "y"]),
                Atom::vars("p", &["x", "y"]),
                Atom::vars("q", &["y"]),
            ],
        );
        let m = minimize_clause(&c);
        assert_eq!(m.body.len(), 2);
        assert_eq!(theta_equivalent(&c, &m), Some(true));
    }

    #[test]
    fn removes_subsumed_variants() {
        // p(x,z) with a fresh z is redundant given p(x,y), q(y).
        let c = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("p", &["x", "y"]),
                Atom::vars("q", &["y"]),
                Atom::vars("p", &["x", "z"]),
            ],
        );
        let m = minimize_clause(&c);
        assert_eq!(m.body.len(), 2);
        assert_eq!(theta_equivalent(&c, &m), Some(true));
    }

    #[test]
    fn keeps_essential_literals() {
        let c = Clause::new(
            Atom::vars("collaborated", &["x", "y"]),
            vec![
                Atom::vars("publication", &["p", "x"]),
                Atom::vars("publication", &["p", "y"]),
            ],
        );
        let m = minimize_clause(&c);
        assert_eq!(m.body.len(), 2);
    }

    #[test]
    fn empty_body_is_untouched() {
        let c = Clause::fact(Atom::vars("t", &["x"]));
        assert_eq!(minimize_clause(&c), c);
        assert_eq!(reduction_ratio(&c), 0.0);
    }

    #[test]
    fn reduction_ratio_reflects_removed_literals() {
        let c = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("p", &["x"]),
                Atom::vars("p", &["x"]),
                Atom::vars("p", &["x"]),
                Atom::vars("q", &["x"]),
            ],
        );
        let ratio = reduction_ratio(&c);
        assert!((ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn minimized_clause_is_equivalent_to_original() {
        let c = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("r", &["x", "a"]),
                Atom::vars("r", &["x", "b"]),
                Atom::vars("s", &["a", "b"]),
                Atom::vars("r", &["x", "c"]),
            ],
        );
        let m = minimize_clause(&c);
        assert_eq!(theta_equivalent(&c, &m), Some(true));
        assert!(m.body.len() <= c.body.len());
    }
}

//! The definition mapping δτ for (de)composition steps.
//!
//! By Proposition 3.7 a bijective Horn transformation τ induces a mapping
//! δτ(h) = h ∘ τ⁻¹ between Horn definitions such that `h(I) = δτ(h)(τ(I))`.
//! Both directions are syntactic:
//!
//! * **Decomposition** — every literal over the decomposed relation `R(u)`
//!   is replaced by literals over the parts, each projecting `u` onto the
//!   part's attributes — exactly the rewriting the paper applies in the
//!   proofs of Lemmas 7.5–7.8.
//! * **Composition** — the inverse: maximal groups of part-literals that
//!   agree on their shared attributes are merged into one literal over the
//!   composed relation. Target attributes no group member constrains are
//!   padded with fresh (existential) variables; the INDs with equality a
//!   lossless decomposition declares between the parts (Definition 4.1)
//!   guarantee every part tuple extends to a full composed tuple, so the
//!   padding preserves the definition's results on corresponding instances.
//!
//! Grouping is greedy and deterministic: literals are scanned in body
//! order, and each part-literal joins the first open group whose already-
//! placed terms agree with it on every shared target position (and whose
//! slot for that part is still open), otherwise it opens a new group. On a
//! body produced by the matching decomposition split this regroups each
//! split exactly — compose ∘ decompose is the identity on clauses — which
//! is what lets α-equivalent clauses from different schema variants
//! map to one canonical clause (see [`crate::CanonicalSchema`]).

use crate::step::{RelationSpec, TransformStep};
use crate::transformation::Transformation;
use castor_logic::{Atom, Clause, Definition, Term};
use std::collections::HashSet;

/// Maps a definition through one transformation step, in either direction:
/// decomposition splits literals over the source relation, composition
/// merges joinable groups of part-literals (padding unconstrained target
/// attributes with fresh variables). Literals over other relations are
/// unchanged.
pub fn map_definition_through_step(def: &Definition, step: &TransformStep) -> Definition {
    let clauses = def
        .clauses
        .iter()
        .map(|c| map_clause_through_step(c, step))
        .collect();
    Definition::new(def.target.clone(), clauses)
}

/// Maps a definition through every step of a transformation, in order —
/// decomposition and composition steps alike.
pub fn map_definition_through(def: &Definition, tau: &Transformation) -> Definition {
    let mut current = def.clone();
    for step in tau.steps() {
        current = map_definition_through_step(&current, step);
    }
    current
}

/// Maps a definition through every step of a transformation, in order.
/// Historical name from when only the decomposition direction existed;
/// composition steps are mapped too (see [`map_definition_through`], which
/// this delegates to).
pub fn map_definition_through_decomposition(def: &Definition, tau: &Transformation) -> Definition {
    map_definition_through(def, tau)
}

/// Maps one clause through one transformation step (see
/// [`map_definition_through_step`]). Only the body is rewritten: the head
/// is over the learning target, which schema transformations never touch.
pub fn map_clause_through_step(clause: &Clause, step: &TransformStep) -> Clause {
    match step {
        TransformStep::Decompose { source, parts } => split_clause(clause, source, parts),
        TransformStep::Compose { sources, target } => merge_clause(clause, sources, target),
    }
}

/// The decomposition direction: one literal over `source` becomes one
/// literal per part, projecting the terms onto the part's attributes.
fn split_clause(clause: &Clause, source: &RelationSpec, parts: &[RelationSpec]) -> Clause {
    let mut body = Vec::new();
    for atom in &clause.body {
        if atom.relation == source.name && atom.arity() == source.attrs.len() {
            for part in parts {
                let terms = part
                    .attrs
                    .iter()
                    .map(|a| {
                        let pos = source
                            .attrs
                            .iter()
                            .position(|x| x == a)
                            .expect("part attribute must exist in source");
                        atom.terms[pos].clone()
                    })
                    .collect();
                body.push(Atom::new(part.name.clone(), terms));
            }
        } else {
            body.push(atom.clone());
        }
    }
    Clause::new(clause.head.clone(), body)
}

/// One group of part-literals being merged into a composed literal: the
/// target's term vector as far as placed members constrain it, plus which
/// source slots are already taken.
struct ComposeGroup {
    terms: Vec<Option<Term>>,
    filled: Vec<bool>,
}

impl ComposeGroup {
    /// Whether `atom` (known to match `sources[si]`) is consistent with
    /// this group: the slot is open and every target position the part
    /// constrains either is unplaced or already holds the same term.
    fn accepts(&self, si: usize, positions: &[usize], atom: &Atom) -> bool {
        !self.filled[si]
            && positions
                .iter()
                .zip(&atom.terms)
                .all(|(&p, t)| match &self.terms[p] {
                    Some(placed) => placed == t,
                    None => true,
                })
    }

    fn place(&mut self, si: usize, positions: &[usize], atom: &Atom) {
        self.filled[si] = true;
        for (&p, t) in positions.iter().zip(&atom.terms) {
            self.terms[p] = Some(t.clone());
        }
    }
}

/// The composition direction: greedy deterministic grouping of
/// part-literals into composed literals (module docs). Each composed
/// literal is emitted at the body position of its group's first member.
fn merge_clause(clause: &Clause, sources: &[RelationSpec], target: &RelationSpec) -> Clause {
    // Target position of each source attribute, per source. The compose
    // builder derives the target's attributes from the sources, so every
    // source attribute has a target position.
    let positions: Vec<Vec<usize>> = sources
        .iter()
        .map(|s| {
            s.attrs
                .iter()
                .map(|a| {
                    target
                        .attrs
                        .iter()
                        .position(|x| x == a)
                        .expect("source attribute must exist in compose target")
                })
                .collect()
        })
        .collect();

    // Body entries: pass-through atoms, group anchors (the first member's
    // position, where the composed literal lands), and consumed members.
    enum Slot {
        Keep(Atom),
        Group(usize),
        Consumed,
    }
    let mut slots: Vec<Slot> = Vec::with_capacity(clause.body.len());
    let mut groups: Vec<ComposeGroup> = Vec::new();
    for atom in &clause.body {
        let source_index = sources
            .iter()
            .position(|s| s.name == atom.relation && s.attrs.len() == atom.arity());
        let Some(si) = source_index else {
            slots.push(Slot::Keep(atom.clone()));
            continue;
        };
        match groups
            .iter()
            .position(|g| g.accepts(si, &positions[si], atom))
        {
            Some(gi) => {
                groups[gi].place(si, &positions[si], atom);
                slots.push(Slot::Consumed);
            }
            None => {
                let mut group = ComposeGroup {
                    terms: vec![None; target.attrs.len()],
                    filled: vec![false; sources.len()],
                };
                group.place(si, &positions[si], atom);
                groups.push(group);
                slots.push(Slot::Group(groups.len() - 1));
            }
        }
    }

    // Pad unconstrained target positions with fresh existential variables
    // (sound under the lossless decomposition's INDs with equality — every
    // part tuple extends to a composed tuple). Names avoid capture against
    // every variable of the clause.
    let used: HashSet<String> = clause.variables().into_iter().collect();
    let mut pad = 0usize;
    let mut fresh = || loop {
        let name = format!("_pad{pad}");
        pad += 1;
        if !used.contains(&name) {
            return Term::var(name);
        }
    };
    let composed: Vec<Atom> = groups
        .into_iter()
        .map(|g| {
            let terms = g
                .terms
                .into_iter()
                .map(|t| t.unwrap_or_else(&mut fresh))
                .collect();
            Atom::new(target.name.clone(), terms)
        })
        .collect();

    let body = slots
        .into_iter()
        .filter_map(|slot| match slot {
            Slot::Keep(atom) => Some(atom),
            Slot::Group(gi) => Some(composed[gi].clone()),
            Slot::Consumed => None,
        })
        .collect();
    Clause::new(clause.head.clone(), body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_logic::Term;
    use castor_relational::{RelationSymbol, Schema};

    fn schema_4nf() -> Schema {
        let mut s = Schema::new("uwcse-4nf");
        s.add_relation(RelationSymbol::new("student", &["stud", "phase", "years"]));
        s.add_relation(RelationSymbol::new("publication", &["title", "person"]));
        s
    }

    fn decomposition(schema: &Schema) -> Transformation {
        Transformation::new(
            "to-original",
            vec![TransformStep::decompose(
                schema,
                "student",
                &[
                    ("student", &["stud"]),
                    ("inPhase", &["stud", "phase"]),
                    ("yearsInProgram", &["stud", "years"]),
                ],
            )],
        )
    }

    #[test]
    fn literal_over_decomposed_relation_is_split() {
        // hardWorking(x) ← student(x, prelim, 3)   (Example 6.5, 4NF form)
        let def = Definition::new(
            "hardWorking",
            vec![Clause::new(
                Atom::vars("hardWorking", &["x"]),
                vec![Atom::new(
                    "student",
                    vec![
                        Term::var("x"),
                        Term::constant("prelim"),
                        Term::constant("3"),
                    ],
                )],
            )],
        );
        let s = schema_4nf();
        let mapped = map_definition_through_decomposition(&def, &decomposition(&s));
        let body = &mapped.clauses[0].body;
        assert_eq!(body.len(), 3);
        assert_eq!(body[0], Atom::new("student", vec![Term::var("x")]));
        assert_eq!(
            body[1],
            Atom::new("inPhase", vec![Term::var("x"), Term::constant("prelim")])
        );
        assert_eq!(
            body[2],
            Atom::new("yearsInProgram", vec![Term::var("x"), Term::constant("3")])
        );
    }

    #[test]
    fn untouched_literals_are_preserved() {
        let def = Definition::new(
            "collaborated",
            vec![Clause::new(
                Atom::vars("collaborated", &["x", "y"]),
                vec![
                    Atom::vars("publication", &["p", "x"]),
                    Atom::vars("publication", &["p", "y"]),
                ],
            )],
        );
        let s = schema_4nf();
        let mapped = map_definition_through_decomposition(&def, &decomposition(&s));
        assert_eq!(mapped, def);
    }

    #[test]
    fn semantics_preserved_on_corresponding_instances() {
        use castor_logic::definition_results;
        use castor_relational::{DatabaseInstance, Tuple};
        // h(I) over the 4NF instance must equal δτ(h)(τ(I)).
        let s = schema_4nf();
        let tau = decomposition(&s);
        let mut db = DatabaseInstance::empty(&s);
        db.insert("student", Tuple::from_strs(&["alice", "prelim", "3"]))
            .unwrap();
        db.insert("student", Tuple::from_strs(&["bob", "post", "7"]))
            .unwrap();
        let def = Definition::new(
            "hardWorking",
            vec![Clause::new(
                Atom::vars("hardWorking", &["x"]),
                vec![Atom::new(
                    "student",
                    vec![
                        Term::var("x"),
                        Term::constant("prelim"),
                        Term::constant("3"),
                    ],
                )],
            )],
        );
        let mapped = map_definition_through_decomposition(&def, &tau);
        let transformed = tau.apply_instance(&db).unwrap();
        assert_eq!(
            definition_results(&def, &db),
            definition_results(&mapped, &transformed)
        );
    }

    #[test]
    fn compose_merges_split_literals_back_exactly() {
        // compose ∘ decompose is the identity on clauses: mapping through
        // τ then τ⁻¹ reproduces the original definition literal-for-literal.
        let s = schema_4nf();
        let tau = decomposition(&s);
        let def = Definition::new(
            "hardWorking",
            vec![Clause::new(
                Atom::vars("hardWorking", &["x"]),
                vec![
                    Atom::new(
                        "student",
                        vec![Term::var("x"), Term::constant("prelim"), Term::var("y")],
                    ),
                    Atom::vars("publication", &["p", "x"]),
                ],
            )],
        );
        let split = map_definition_through(&def, &tau);
        assert_eq!(split.clauses[0].body.len(), 4);
        let merged = map_definition_through(&split, &tau.invert());
        assert_eq!(merged, def);
    }

    #[test]
    fn compose_pads_missing_parts_with_fresh_variables() {
        // A clause constraining only inPhase: composing pads stud's other
        // attributes (years) with a fresh variable not used in the clause.
        let s = schema_4nf();
        let tau = decomposition(&s);
        let def = Definition::new(
            "t",
            vec![Clause::new(
                Atom::vars("t", &["x"]),
                vec![Atom::new(
                    "inPhase",
                    vec![Term::var("x"), Term::constant("prelim")],
                )],
            )],
        );
        let merged = map_definition_through(&def, &tau.invert());
        let body = &merged.clauses[0].body;
        assert_eq!(body.len(), 1);
        assert_eq!(body[0].relation, "student");
        assert_eq!(body[0].terms[0], Term::var("x"));
        assert_eq!(body[0].terms[1], Term::constant("prelim"));
        let Term::Var(padded) = &body[0].terms[2] else {
            panic!("padded position must be a variable");
        };
        assert!(!merged.clauses[0].head.terms.contains(&body[0].terms[2]));
        assert_ne!(padded, "x");
    }

    #[test]
    fn compose_separates_literals_that_disagree_on_shared_attributes() {
        // Two inPhase literals over different students must not merge into
        // one composed literal.
        let s = schema_4nf();
        let tau = decomposition(&s);
        let def = Definition::new(
            "t",
            vec![Clause::new(
                Atom::vars("t", &["x", "y"]),
                vec![
                    Atom::vars("inPhase", &["x", "ph"]),
                    Atom::vars("inPhase", &["y", "ph"]),
                ],
            )],
        );
        let merged = map_definition_through(&def, &tau.invert());
        let body = &merged.clauses[0].body;
        assert_eq!(body.len(), 2);
        assert!(body.iter().all(|a| a.relation == "student"));
        assert_ne!(body[0].terms[0], body[1].terms[0]);
    }
}

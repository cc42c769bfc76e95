//! The canonical-schema anchor for schema-independence checks.
//!
//! All schema variants of one logical database are bijective-transformation
//! images of a shared base schema (Definition 3.4). Fixing one variant —
//! conventionally the *most composed* one — as the canonical anchor gives
//! every variant a lens: the definition mapping δτ from that variant's
//! schema into the canonical schema (variant τ inverted, then the canonical
//! τ, both from the base). Two clauses learned on different variants that
//! denote the same hypothesis map to θ-equivalent canonical clauses, which
//! is how a test compares definitions learned on different variants
//! (Proposition 3.7).

use crate::definition_map::map_clause_through_step;
use crate::step::TransformStep;
use crate::transformation::Transformation;
use castor_logic::{Clause, Definition};
use castor_relational::Schema;

/// The canonical (most-composed) schema of a logical database, anchored by
/// the transformation that produces it from the shared base schema.
#[derive(Debug, Clone)]
pub struct CanonicalSchema {
    schema: Schema,
    to_canonical: Transformation,
}

impl CanonicalSchema {
    /// Anchors the canonical schema: `to_canonical` maps the base schema of
    /// the logical database to the chosen canonical variant.
    pub fn anchor(base: &Schema, to_canonical: Transformation) -> Self {
        let schema = to_canonical.apply_schema(base);
        CanonicalSchema {
            schema,
            to_canonical,
        }
    }

    /// The canonical schema itself.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The transformation from the base schema to the canonical schema.
    pub fn to_canonical(&self) -> &Transformation {
        &self.to_canonical
    }

    /// The lens mapping clauses of the variant produced by `variant_tau`
    /// (a transformation from the same base schema) into the canonical
    /// schema: invert the variant's transformation back to the base, then
    /// apply the canonical one.
    pub fn lens_for(&self, variant_tau: &Transformation) -> VariantLens {
        let mut steps = variant_tau.invert().steps().to_vec();
        steps.extend(self.to_canonical.steps().iter().cloned());
        VariantLens { steps }
    }
}

/// The definition mapping δτ from one variant's schema into the canonical
/// schema, as a reusable step sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantLens {
    steps: Vec<TransformStep>,
}

impl VariantLens {
    /// Maps one clause of the variant schema to the canonical schema.
    pub fn map_clause(&self, clause: &Clause) -> Clause {
        let mut current = clause.clone();
        for step in &self.steps {
            current = map_clause_through_step(&current, step);
        }
        current
    }

    /// Maps a whole definition of the variant schema to the canonical
    /// schema. Nothing calls it yet; it is kept for the golden check of
    /// Proposition 3.7, which maps every variant's learned definition
    /// through its lens and compares the images by θ-equivalence.
    pub fn map_definition(&self, def: &Definition) -> Definition {
        let clauses = def.clauses.iter().map(|c| self.map_clause(c)).collect();
        Definition::new(def.target.clone(), clauses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_logic::subsumption::theta_equivalent;
    use castor_logic::{Atom, Term};
    use castor_relational::RelationSymbol;

    /// Base: 4NF-style student(stud, phase, years) + publication.
    fn base_schema() -> Schema {
        let mut s = Schema::new("base");
        s.add_relation(RelationSymbol::new("student", &["stud", "phase", "years"]));
        s.add_relation(RelationSymbol::new("publication", &["title", "person"]));
        s
    }

    /// Variant transformation: decompose student into three parts.
    fn to_decomposed(base: &Schema) -> Transformation {
        Transformation::new(
            "to-decomposed",
            vec![TransformStep::decompose(
                base,
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
    fn anchor_applies_transformation_to_base() {
        let base = base_schema();
        let canonical = CanonicalSchema::anchor(&base, Transformation::identity("id"));
        assert!(canonical.schema().contains_relation("student"));
        assert_eq!(canonical.schema().relation("student").unwrap().arity(), 3);
    }

    #[test]
    fn variant_lens_maps_clause_to_canonical_form() {
        // Canonical = the base (composed) schema; the variant is the
        // decomposed one. The lens must merge part-literals back.
        let base = base_schema();
        let canonical = CanonicalSchema::anchor(&base, Transformation::identity("id"));
        let lens = canonical.lens_for(&to_decomposed(&base));

        let variant_clause = Clause::new(
            Atom::vars("hardWorking", &["x"]),
            vec![
                Atom::new("student", vec![Term::var("x")]),
                Atom::new("inPhase", vec![Term::var("x"), Term::constant("prelim")]),
                Atom::vars("yearsInProgram", &["x", "y"]),
            ],
        );
        let mapped = lens.map_clause(&variant_clause);
        let expected = Clause::new(
            Atom::vars("hardWorking", &["x"]),
            vec![Atom::new(
                "student",
                vec![Term::var("x"), Term::constant("prelim"), Term::var("y")],
            )],
        );
        assert_eq!(mapped, expected);
    }

    #[test]
    fn lenses_of_different_variants_agree_up_to_theta_equivalence() {
        // The same hypothesis expressed on the composed and decomposed
        // variants maps to θ-equivalent canonical clauses.
        let base = base_schema();
        let canonical = CanonicalSchema::anchor(&base, Transformation::identity("id"));
        let composed_lens = canonical.lens_for(&Transformation::identity("id"));
        let decomposed_lens = canonical.lens_for(&to_decomposed(&base));

        let on_composed = Clause::new(
            Atom::vars("hardWorking", &["x"]),
            vec![Atom::new(
                "student",
                vec![Term::var("x"), Term::constant("prelim"), Term::var("y")],
            )],
        );
        let on_decomposed = Clause::new(
            Atom::vars("hardWorking", &["x"]),
            vec![
                Atom::new("student", vec![Term::var("x")]),
                Atom::new("inPhase", vec![Term::var("x"), Term::constant("prelim")]),
                Atom::vars("yearsInProgram", &["x", "z"]),
            ],
        );
        let a = composed_lens.map_clause(&on_composed);
        let b = decomposed_lens.map_clause(&on_decomposed);
        assert_eq!(theta_equivalent(&a, &b), Some(true));
    }
}

//! # castor-transform
//!
//! Schema transformations for the Castor reproduction of *Schema Independent
//! Relational Learning* (Picado et al., 2017).
//!
//! Section 4 of the paper studies two Horn transformations between
//! information-equivalent schemas:
//!
//! * **decomposition** — a relation `R` is replaced by projections
//!   `S1, ..., Sn` whose natural join losslessly reconstructs `R`, with INDs
//!   with equality between the shared attributes of the `Si`;
//! * **composition** — the inverse: a set of relations joined back into one.
//!
//! This crate provides:
//!
//! * [`Transformation`] — a sequence of per-relation (de)composition steps
//!   that can map schemas, database instances (τ), and be inverted (τ⁻¹);
//! * [`InclusionClass`] — maximal sets of relations connected by INDs with
//!   equality (Definition 7.1), used by Castor's bottom-clause construction
//!   and negative reduction;
//! * join-tree acyclicity and cyclic-IND checks (Proposition 7.4);
//! * the definition mapping δτ in both directions — literal splitting for
//!   decomposition steps and greedy literal merging (with fresh-variable
//!   padding) for composition steps;
//! * [`CanonicalSchema`] — a most-composed anchor giving every variant of a
//!   logical database a [`VariantLens`] into one shared clause space, so
//!   definitions learned on different variants can be compared;
//! * an information-equivalence verifier that round-trips instances.

pub mod acyclicity;
pub mod canonical;
pub mod definition_map;
pub mod equivalence;
pub mod inclusion_class;
pub mod step;
pub mod transformation;

pub use acyclicity::{inds_are_cyclic, join_is_acyclic};
pub use canonical::{CanonicalSchema, VariantLens};
pub use definition_map::{
    map_clause_through_step, map_definition_through, map_definition_through_decomposition,
};
pub use equivalence::verify_information_equivalence;
pub use inclusion_class::{inclusion_classes, InclusionClass};
pub use step::TransformStep;
pub use transformation::Transformation;

//! # castor-logic
//!
//! First-order Horn-clause machinery for the Castor reproduction of
//! *Schema Independent Relational Learning* (Picado et al., 2017).
//!
//! This crate provides the hypothesis representation shared by every
//! learning algorithm in the workspace:
//!
//! * [`Term`], [`Atom`], [`Clause`] (ordered Horn clauses) and
//!   [`Definition`] (Horn definitions, i.e. unions of conjunctive queries);
//! * [`Substitution`]s and θ-subsumption ([`subsumption`]) — the coverage
//!   test used by bottom-up learners (standing in for the Resumer2 engine
//!   used by the paper's implementation);
//! * clause evaluation over a [`castor_relational::DatabaseInstance`]
//!   ([`evaluation`]) — the semantics `h_R(I)` used to define definition
//!   equivalence;
//! * Plotkin's least general generalization ([`lgg`]) used by Golem's rlgg
//!   operator;
//! * clause minimization by θ-reduction ([`minimize`]) and safety checks
//!   ([`safety`]);
//! * a constant→variable mapping helper ([`varmap`]) shared by all
//!   bottom-clause construction algorithms.

pub mod atom;
pub mod clause;
pub mod definition;
pub mod evaluation;
pub mod lgg;
pub mod minimize;
pub mod safety;
pub mod substitution;
pub mod subsumption;
pub mod term;
pub mod varmap;

pub use atom::Atom;
pub use clause::Clause;
pub use definition::Definition;
pub use evaluation::{
    clause_results, covers_example, covers_example_budgeted, definition_results, CoverageOutcome,
    EvalBudget, DEFAULT_EVAL_NODE_BUDGET,
};
pub use lgg::{lgg_atoms, lgg_clauses};
pub use minimize::minimize_clause;
pub use safety::is_safe;
pub use substitution::Substitution;
pub use subsumption::{subsumes, subsumes_with, subsumes_with_eval_budget, SubsumptionOutcome};
pub use term::Term;
pub use varmap::VariableMap;

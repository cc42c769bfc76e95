//! # castor-eval
//!
//! Evaluation harness for the Castor reproduction: precision/recall
//! metrics, cross-validated experiment runs over every schema variant of a
//! dataset family, schema-independence checking, and plain-text rendering
//! of the paper's result tables.

pub mod experiment;
pub mod metrics;
pub mod report;

pub use experiment::{run_algorithm_over_family, AlgorithmKind, ExperimentRow};
pub use metrics::{
    evaluate_definition, evaluate_definition_with_engine, evaluate_definition_with_session,
    schema_independent, EvaluationResult,
};
pub use report::render_table;

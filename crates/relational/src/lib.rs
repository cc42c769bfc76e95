//! # castor-relational
//!
//! An in-memory relational database engine that serves as the substrate for
//! the Castor relational-learning system (Picado et al., *Schema Independent
//! Relational Learning*, 2017).
//!
//! The paper runs Castor on top of the in-memory RDBMS VoltDB; this crate is
//! the equivalent substrate built from scratch: relation symbols with named
//! attribute sorts, schemas with functional and inclusion dependencies,
//! database instances with per-attribute hash indexes, and the relational
//! operators (projection, selection, natural join) needed both by the
//! learning algorithms and by the schema (de)composition transformations.
//!
//! ## Quick tour
//!
//! ```
//! use castor_relational::{Schema, RelationSymbol, DatabaseInstance, Value, Tuple};
//!
//! let mut schema = Schema::new("uwcse");
//! schema.add_relation(RelationSymbol::new("student", &["stud"]));
//! schema.add_relation(RelationSymbol::new("inPhase", &["stud", "phase"]));
//!
//! let mut db = DatabaseInstance::empty(&schema);
//! db.insert("student", Tuple::from_strs(&["alice"])).unwrap();
//! db.insert("inPhase", Tuple::from_strs(&["alice", "prelim"])).unwrap();
//!
//! assert_eq!(db.relation("student").unwrap().len(), 1);
//! let hits = db.tuples_containing(&Value::str("alice"));
//! assert_eq!(hits.len(), 2);
//! ```

pub mod attribute;
pub mod constraint;
pub mod database;
pub mod error;
pub mod fx;
pub mod instance;
pub mod mutation;
pub mod ops;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use attribute::{AttrName, Sort};
pub use constraint::{Constraint, FunctionalDependency, InclusionDependency};
pub use database::DatabaseInstance;
pub use error::RelationalError;
pub use instance::{
    ColumnStatistics, HistogramBucket, RelationInstance, RelationStatistics,
    HISTOGRAM_BUCKET_TARGET, MCV_TARGET,
};
pub use mutation::{MutationBatch, MutationOp, MutationSummary};
pub use ops::{natural_join, natural_join_all, project, select_eq};
pub use relation::RelationSymbol;
pub use schema::Schema;
pub use tuple::Tuple;
pub use value::Value;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, RelationalError>;

//! Workspace facade for the Castor reproduction of *Schema Independent
//! Relational Learning* (Picado et al., SIGMOD 2017).
//!
//! Each subsystem lives in its own crate; this crate re-exports them under
//! one roof so the root `tests/` and `examples/` can exercise the full
//! pipeline, and so downstream users can depend on a single crate.
//!
//! * [`relational`] — in-memory relational substrate (schemas, instances,
//!   per-attribute hash indexes, constraints).
//! * [`logic`] — Horn-clause machinery: terms, atoms, clauses, evaluation,
//!   θ-subsumption, lgg, minimization.
//! * [`engine`] — the compiled clause-evaluation and coverage subsystem:
//!   per-relation statistics, compiled join plans, a memoized coverage
//!   cache, and a persistent worker pool.
//! * [`transform`] — schema (de)composition transformations.
//! * [`learners`] — FOIL, Progol, Golem, ProGolem, and query-based LogAn-H.
//! * [`core`] — the Castor learner itself.
//! * [`datasets`] — synthetic UW-CSE / HIV / IMDb families.
//! * [`eval`] — cross-validated experiment harness and metrics.
//! * [`obs`] — dependency-free observability: lock-free metrics with
//!   Prometheus-style exposition, span tracing with Chrome-trace export.
//! * [`service`] — the multi-session serving facade: long-lived versioned
//!   engines over mutating databases behind a `Server → Session → Job` API.
//! * [`rpc`] — the network front end over `service`: a dependency-free
//!   std-TCP wire protocol (`RpcServer`/`RpcClient`) with admission
//!   control, typed error frames, and flow-controlled streaming of
//!   learn progress and covered sets.
//! * `bench` ([`castor_bench`]) — table/figure reproduction harnesses.

pub use castor_bench as bench;
pub use castor_core as core;
pub use castor_datasets as datasets;
pub use castor_engine as engine;
pub use castor_eval as eval;
pub use castor_learners as learners;
pub use castor_logic as logic;
pub use castor_obs as obs;
pub use castor_relational as relational;
pub use castor_rpc as rpc;
pub use castor_service as service;
pub use castor_transform as transform;

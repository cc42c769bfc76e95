//! # castor-service
//!
//! The multi-session serving facade of the Castor workspace: long-lived
//! engines over *mutating* databases, behind a `Server → Session → Job`
//! API.
//!
//! The paper (Picado et al., SIGMOD 2017) pitches schema-independent
//! learning over real relational databases — and real databases mutate
//! while learners run. The one-shot snapshot front end (`Engine::new` per
//! run) cannot serve that: statistics freeze at construction, inserts are
//! invisible to the planner, and every caller wires pool/cache/config by
//! hand. This crate replaces that with:
//!
//! * [`Server`] — owns one **versioned** [`castor_engine::Engine`] per
//!   registered database (shared worker pool, shared plan/coverage caches)
//!   plus a FIFO job queue and runner thread per database;
//! * [`Session`] — a cheap per-client handle carrying config overrides
//!   (per-test node budget), an isolated counter view (engine-report
//!   deltas), and a cancellation token checked by the executor budget loop;
//! * [`Job`]s — [`CoverageJob`] / [`ScoreJob`] / [`LearnJob`] plus mutation
//!   batches, submitted with [`Session::submit`] for a [`JobHandle`] with
//!   blocking `join` and non-blocking `try_poll`.
//!
//! Mutations ([`Session::apply`]) maintain per-relation indexes and
//! statistics incrementally and bump per-relation epochs; compiled plans
//! re-validate their epoch stamps on every fetch (stale-plan reuse is
//! impossible by construction) and the coverage cache drops exactly the
//! clauses referencing a mutated relation. A session created before a
//! mutation therefore returns, after it, exactly what a fresh snapshot
//! engine over the mutated database would.
//!
//! ```
//! use castor_relational::{DatabaseInstance, MutationBatch, RelationSymbol, Schema, Tuple};
//! use castor_service::{Server, ServerConfig};
//! use castor_logic::{Atom, Clause};
//! use std::sync::Arc;
//!
//! let mut schema = Schema::new("demo");
//! schema.add_relation(RelationSymbol::new("publication", &["title", "person"]));
//! let mut db = DatabaseInstance::empty(&schema);
//! db.insert("publication", Tuple::from_strs(&["p1", "ann"])).unwrap();
//!
//! let server = Server::new(ServerConfig::default());
//! server.register("demo", Arc::new(db)).unwrap();
//! let session = server.session("demo").unwrap();
//!
//! let clause = Clause::new(
//!     Atom::vars("collaborated", &["x", "y"]),
//!     vec![
//!         Atom::vars("publication", &["p", "x"]),
//!         Atom::vars("publication", &["p", "y"]),
//!     ],
//! );
//! let example = Tuple::from_strs(&["ann", "bob"]);
//!
//! // Not covered yet: bob has no shared publication...
//! let sets = session.covered_sets(vec![clause.clone()], vec![example.clone()]).unwrap();
//! assert!(sets[0].is_empty());
//!
//! // ...until a mutation lands — the live engine sees it immediately.
//! let batch = MutationBatch::new().insert("publication", Tuple::from_strs(&["p1", "bob"]));
//! session.apply(batch).unwrap();
//! let sets = session.covered_sets(vec![clause], vec![example]).unwrap();
//! assert_eq!(sets[0].len(), 1);
//! ```

pub mod job;
pub mod server;
pub mod session;
pub mod stats;

pub use job::{
    CoverageJob, Job, JobError, JobHandle, JobResult, LearnAlgorithm, LearnJob, ScoreJob,
};
pub use server::{Server, ServerConfig, ServerError};
pub use session::Session;
pub use stats::{QueueReport, ServerReport, ServerStats};

pub(crate) use server::QueuedJob;

#[cfg(test)]
mod tests {
    use super::*;
    use castor_engine::Prior;
    use castor_learners::{LearnerParams, LearningTask};
    use castor_logic::{Atom, Clause};
    use castor_relational::{DatabaseInstance, MutationBatch, RelationSymbol, Schema, Tuple};
    use std::sync::Arc;

    fn demo_db() -> DatabaseInstance {
        let mut schema = Schema::new("demo");
        schema.add_relation(RelationSymbol::new("publication", &["title", "person"]));
        let mut db = DatabaseInstance::empty(&schema);
        for (t, p) in [
            ("p1", "ann"),
            ("p1", "bob"),
            ("p2", "carol"),
            ("p2", "dan"),
            ("p3", "eve"),
        ] {
            db.insert("publication", Tuple::from_strs(&[t, p])).unwrap();
        }
        db
    }

    fn collaborated() -> Clause {
        Clause::new(
            Atom::vars("collaborated", &["x", "y"]),
            vec![
                Atom::vars("publication", &["p", "x"]),
                Atom::vars("publication", &["p", "y"]),
            ],
        )
    }

    fn server_with_demo() -> Server {
        let server = Server::new(ServerConfig::default());
        server.register("demo", Arc::new(demo_db())).unwrap();
        server
    }

    #[test]
    fn registration_is_unique_and_listed() {
        let server = server_with_demo();
        assert_eq!(server.databases(), vec!["demo".to_string()]);
        assert_eq!(
            server.register("demo", Arc::new(demo_db())),
            Err(ServerError::DuplicateDatabase("demo".to_string()))
        );
        assert!(matches!(
            server.session("missing"),
            Err(ServerError::UnknownDatabase(_))
        ));
    }

    #[test]
    fn coverage_job_matches_direct_engine_results() {
        let server = server_with_demo();
        let session = server.session("demo").unwrap();
        let examples = vec![
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["ann", "carol"]),
        ];
        let sets = session
            .covered_sets(vec![collaborated()], examples.clone())
            .unwrap();
        let reference =
            castor_engine::Engine::new(&demo_db(), castor_engine::EngineConfig::default());
        assert_eq!(
            sets[0],
            reference.covered_set(&collaborated(), &examples, Prior::None)
        );
    }

    #[test]
    fn score_job_counts_both_classes_in_one_fused_pass() {
        let server = server_with_demo();
        let session = server.session("demo").unwrap();
        let counts = session
            .score(
                vec![collaborated()],
                vec![
                    Tuple::from_strs(&["ann", "bob"]),
                    Tuple::from_strs(&["carol", "dan"]),
                ],
                vec![Tuple::from_strs(&["ann", "carol"])],
            )
            .unwrap();
        assert_eq!((counts[0].positive, counts[0].negative), (2, 0));
    }

    #[test]
    fn handles_poll_and_join_from_other_threads() {
        let server = server_with_demo();
        let session = server.session("demo").unwrap();
        let handle = session.submit(Job::Coverage(CoverageJob::new(
            vec![collaborated()],
            vec![Tuple::from_strs(&["ann", "bob"])],
        )));
        let result = handle.join().unwrap();
        assert_eq!(result.into_covered().unwrap()[0].len(), 1);
        assert!(handle.try_poll().is_some());
    }

    #[test]
    fn mutations_are_visible_to_later_jobs_of_the_session() {
        let server = server_with_demo();
        let session = server.session("demo").unwrap();
        let example = Tuple::from_strs(&["ann", "eve"]);
        let before = session
            .covered_sets(vec![collaborated()], vec![example.clone()])
            .unwrap();
        assert!(before[0].is_empty());
        let summary = session
            .apply(MutationBatch::new().insert("publication", Tuple::from_strs(&["p3", "ann"])))
            .unwrap();
        assert_eq!(summary.inserted, 1);
        let after = session
            .covered_sets(vec![collaborated()], vec![example])
            .unwrap();
        assert_eq!(after[0].len(), 1);
        // The invalidation traffic is observable in the server report.
        let report = server.report("demo").unwrap();
        assert_eq!(report.mutation_batches, 1);
        assert!(report.cache_clauses_invalidated >= 1);
    }

    #[test]
    fn cancelled_sessions_fail_fast_and_other_sessions_continue() {
        let server = server_with_demo();
        let cancelled = server.session("demo").unwrap();
        let healthy = server.session("demo").unwrap();
        cancelled.cancel();
        assert!(cancelled.is_cancelled());
        let err = cancelled
            .covered_sets(
                vec![collaborated()],
                vec![Tuple::from_strs(&["ann", "bob"])],
            )
            .unwrap_err();
        assert_eq!(err, JobError::Cancelled);
        let ok = healthy
            .covered_sets(
                vec![collaborated()],
                vec![Tuple::from_strs(&["ann", "bob"])],
            )
            .unwrap();
        assert_eq!(ok[0].len(), 1);
        cancelled.reset_cancel();
        assert!(cancelled
            .covered_sets(
                vec![collaborated()],
                vec![Tuple::from_strs(&["ann", "bob"])]
            )
            .is_ok());
    }

    #[test]
    fn session_reports_isolate_and_sum_to_the_server_total() {
        let server = server_with_demo();
        let a = server.session("demo").unwrap();
        let b = server.session("demo").unwrap();
        a.covered_sets(
            vec![collaborated()],
            vec![Tuple::from_strs(&["ann", "bob"])],
        )
        .unwrap();
        b.covered_sets(
            vec![collaborated()],
            vec![
                Tuple::from_strs(&["carol", "dan"]),
                Tuple::from_strs(&["eve", "eve"]),
            ],
        )
        .unwrap();
        let (ra, rb) = (a.report(), b.report());
        assert!(ra.coverage_tests >= 1);
        assert!(rb.coverage_tests >= 2);
        let total = server.report("demo").unwrap();
        assert_eq!(
            ra.combined(&rb).coverage_tests,
            total.coverage_tests,
            "per-session deltas must sum to the server total"
        );
    }

    #[test]
    fn per_session_budget_override_does_not_leak() {
        let server = server_with_demo();
        let starved = server.session("demo").unwrap().with_eval_budget(0);
        let normal = server.session("demo").unwrap();
        let starved_sets = starved
            .covered_sets(
                vec![collaborated()],
                vec![Tuple::from_strs(&["ann", "bob"])],
            )
            .unwrap();
        assert!(starved_sets[0].is_empty(), "zero budget must exhaust");
        assert!(starved.report().budget_exhausted >= 1);
        // Another session on the same engine keeps the default budget...
        let normal_sets = normal
            .covered_sets(
                vec![collaborated()],
                vec![Tuple::from_strs(&["ann", "bob"])],
            )
            .unwrap();
        assert_eq!(normal_sets[0].len(), 1);
        assert_eq!(normal.report().budget_exhausted, 0);
    }

    #[test]
    fn session_budget_override_reaches_castor_subsumption_tests() {
        let server = server_with_demo();
        let starved = server.session("demo").unwrap().with_eval_budget(0);
        let task = LearningTask::new(
            "collaborated",
            2,
            vec![
                Tuple::from_strs(&["ann", "bob"]),
                Tuple::from_strs(&["carol", "dan"]),
            ],
            vec![Tuple::from_strs(&["ann", "carol"])],
        );
        let definition = starved
            .learn(LearnJob::new(task, LearnAlgorithm::Castor(Box::default())))
            .unwrap();
        // Zero budget exhausts every θ-subsumption coverage test, so the
        // override provably reached Castor's coverage engine and nothing
        // could be learned.
        assert!(definition.is_empty());
        assert!(starved.report().budget_exhausted > 0);
    }

    #[test]
    fn session_cap_rejects_and_releases_on_drop() {
        let server = Server::new(ServerConfig::default().with_max_sessions(2));
        server.register("demo", Arc::new(demo_db())).unwrap();
        let a = server.session("demo").unwrap();
        let _b = server.session("demo").unwrap();
        assert_eq!(
            server.session("demo").unwrap_err(),
            ServerError::SessionLimit { limit: 2 }
        );
        let report = server.server_report();
        assert_eq!(report.sessions_active, 2);
        assert_eq!(report.sessions_accepted, 2);
        assert_eq!(report.sessions_rejected, 1);
        // Dropping a session releases its slot.
        drop(a);
        let _c = server.session("demo").unwrap();
        let report = server.server_report();
        assert_eq!(report.sessions_active, 2);
        assert_eq!(report.sessions_accepted, 3);
        assert_eq!(server.queue_report("demo").unwrap().open_sessions, 2);
    }

    /// A coverage job that holds the runner for tens of milliseconds
    /// *deterministically*: the triangle query over the bipartite `pair`
    /// graph below can never succeed (bipartite graphs have no odd
    /// cycles), so the search runs until its node budget is gone — no
    /// lucky early match can make it fast.
    fn slow_job() -> Job {
        let clause = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("pair", &["a", "b"]),
                Atom::vars("pair", &["b", "c"]),
                Atom::vars("pair", &["c", "a"]),
            ],
        );
        Job::Coverage(CoverageJob::new(
            vec![clause],
            vec![Tuple::from_strs(&["x"])],
        ))
    }

    /// A complete bipartite graph, both edge directions stored: ~20k
    /// tuples, ~2M search nodes for the triangle query of [`slow_job`].
    fn bulk_db() -> DatabaseInstance {
        let mut schema = Schema::new("bulk");
        schema.add_relation(RelationSymbol::new("pair", &["a", "b"]));
        let mut db = DatabaseInstance::empty(&schema);
        for i in 0..100 {
            for j in 0..100 {
                let (l, r) = (format!("l{i}"), format!("r{j}"));
                db.insert("pair", Tuple::from_strs(&[&l, &r])).unwrap();
                db.insert("pair", Tuple::from_strs(&[&r, &l])).unwrap();
            }
        }
        db
    }

    #[test]
    fn inflight_cap_rejects_with_typed_error() {
        let server = Server::new(ServerConfig::default().with_max_inflight(2));
        server.register("bulk", Arc::new(bulk_db())).unwrap();
        // The budget override makes the blocker genuinely slow (millions of
        // nodes), so the submissions below land while it still runs.
        let session = server.session("bulk").unwrap().with_eval_budget(2_000_000);
        let blocker = session.submit(slow_job());
        let queued = session.submit(slow_job());
        // Two jobs in flight (one running, one queued): the third submission
        // is rejected with the typed error, not silently dropped.
        let rejected = session.submit(slow_job());
        assert_eq!(
            rejected.join().unwrap_err(),
            JobError::Rejected { limit: 2 }
        );
        assert!(server.server_report().jobs_rejected >= 1);
        // The accepted jobs still complete.
        assert!(blocker.join().is_ok());
        assert!(queued.join().is_ok());
        // With the queue drained, submissions are accepted again.
        assert!(session.submit(slow_job()).join().is_ok());
        let report = server.server_report();
        assert_eq!(report.jobs_submitted, 3);
        assert_eq!(server.queue_report("bulk").unwrap().drains, 3);
    }

    #[test]
    fn learn_job_learns_over_the_live_database() {
        let mut schema = Schema::new("demo");
        schema.add_relation(RelationSymbol::new("p", &["x"]));
        let mut db = DatabaseInstance::empty(&schema);
        for v in ["a", "b", "c"] {
            db.insert("p", Tuple::from_strs(&[v])).unwrap();
        }
        let server = Server::new(ServerConfig::default());
        server.register("tiny", Arc::new(db)).unwrap();
        let session = server.session("tiny").unwrap();
        let task = LearningTask::new(
            "t",
            1,
            vec![
                Tuple::from_strs(&["a"]),
                Tuple::from_strs(&["b"]),
                Tuple::from_strs(&["c"]),
            ],
            vec![Tuple::from_strs(&["z"])],
        );
        let definition = session
            .learn(LearnJob::new(
                task,
                LearnAlgorithm::Foil(LearnerParams {
                    allow_constants: false,
                    ..LearnerParams::default()
                }),
            ))
            .unwrap();
        assert!(!definition.is_empty());
    }
}

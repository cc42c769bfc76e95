//! The server: one long-lived versioned engine per registered database,
//! a shared worker pool, and one runner thread per database draining its
//! sessions' job queues.
//!
//! Concurrency model: *jobs of one database execute one at a time*;
//! parallelism comes from the engine's worker pool inside each job
//! (work-stealing over clauses × examples) and from running different
//! databases' queues on their own runner threads. Serializing per database
//! is what makes per-session counter deltas and budget/cancellation
//! overrides sound on a shared engine, and it gives mutation batches a
//! natural atomicity point: a batch is a queue item like any other, so
//! every job sees either the pre- or post-batch state.
//!
//! Scheduling is *fair across sessions*: every session owns its own FIFO
//! queue, and the runner drains the queues of one database round-robin —
//! one job per turn — instead of a single database-wide FIFO. A session
//! that floods hundreds of jobs no longer head-of-line-blocks a session
//! that submits one. Jobs of one session still execute in submission
//! order.
//!
//! Admission control bounds both layers: [`ServerConfig::max_sessions`]
//! caps concurrently open sessions server-wide (excess `session()` calls
//! fail with [`ServerError::SessionLimit`]), and
//! [`ServerConfig::max_inflight_per_database`] caps queued-plus-running
//! jobs per database (excess submissions complete with
//! [`JobError::Rejected`]). Both are observable through
//! [`Server::server_report`] and [`Server::queue_report`].

use crate::job::{Job, JobError, JobResult, JobShared, LearnAlgorithm};
use crate::session::Session;
use crate::stats::{QueueReport, ServerReport, ServerStats};
use castor_core::Castor;
use castor_engine::{Engine, EngineConfig, EngineReport, ProgressSink, WorkerPool};
use castor_learners::{Foil, Golem, ProGolem, Progol};
use castor_obs::{Collect, Counter, Exposition, Histogram, Obs, ObsConfig};
use castor_relational::DatabaseInstance;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the pool shared by every registered engine
    /// (1 = inline evaluation).
    pub threads: usize,
    /// Engine configuration applied to every registered database (its
    /// `threads` field is overridden by the shared pool).
    pub engine: EngineConfig,
    /// Maximum concurrently open sessions across the server; further
    /// `session()` calls fail with [`ServerError::SessionLimit`] until a
    /// session handle is dropped. 0 = unlimited.
    pub max_sessions: usize,
    /// Maximum queued-plus-running jobs per database; further submissions
    /// complete with [`JobError::Rejected`] until the runner drains the
    /// queue. 0 = unlimited.
    pub max_inflight_per_database: usize,
    /// Observability configuration: the server-wide [`Obs`] handle every
    /// engine, queue runner, and the RPC front end record into
    /// (instrumentation is on by default).
    pub obs: ObsConfig,
    /// Post-mortem trace path: when set, the server arms
    /// [`Obs::dump_on_drop`] *and* installs a process panic hook, so both
    /// orderly shutdowns and crashes leave the span ring behind as
    /// Chrome-trace JSON at this path. `None` (the default) writes nothing.
    pub trace_dump_path: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 1,
            engine: EngineConfig::default(),
            max_sessions: 0,
            max_inflight_per_database: 0,
            obs: ObsConfig::default(),
            trace_dump_path: None,
        }
    }
}

impl ServerConfig {
    /// Returns a copy with the given shared-pool size.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns a copy with the given per-database engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Returns a copy with the server-wide session cap (0 = unlimited).
    pub fn with_max_sessions(mut self, max_sessions: usize) -> Self {
        self.max_sessions = max_sessions;
        self
    }

    /// Returns a copy with the per-database in-flight job cap
    /// (0 = unlimited).
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight_per_database = max_inflight;
        self
    }

    /// Returns a copy with the given observability configuration
    /// (`ObsConfig::disabled()` turns every timer and span into a no-op).
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Returns a copy that writes the span ring to `path` as Chrome-trace
    /// JSON on shutdown *and* on panic — a crashed server leaves a
    /// post-mortem trace behind (see [`ServerConfig::trace_dump_path`]).
    pub fn with_trace_dump_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.trace_dump_path = Some(path.into());
        self
    }
}

/// Errors raised by server administration calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// A database name was registered twice.
    DuplicateDatabase(String),
    /// A session or report was requested for an unregistered database.
    UnknownDatabase(String),
    /// The server-wide session cap is reached; the request was turned away
    /// (counted in `sessions_rejected`).
    SessionLimit {
        /// The configured [`ServerConfig::max_sessions`].
        limit: usize,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::DuplicateDatabase(name) => {
                write!(f, "database `{name}` is already registered")
            }
            ServerError::UnknownDatabase(name) => write!(f, "unknown database `{name}`"),
            ServerError::SessionLimit { limit } => {
                write!(f, "server session limit reached ({limit} sessions)")
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// Per-session state shared between the session handle and the runner.
#[derive(Debug)]
pub(crate) struct SessionCtx {
    /// Cancellation token; also installed on the engine while the
    /// session's jobs run.
    pub(crate) cancel: Arc<AtomicBool>,
    /// Per-test node budget override (meaningful when
    /// `has_budget_override`).
    pub(crate) eval_budget: AtomicUsize,
    /// Whether `eval_budget` overrides the engine default.
    pub(crate) has_budget_override: AtomicBool,
    /// Engine-counter deltas attributed to this session's jobs.
    pub(crate) consumed: Mutex<EngineReport>,
}

impl SessionCtx {
    fn new() -> Self {
        SessionCtx {
            cancel: Arc::new(AtomicBool::new(false)),
            eval_budget: AtomicUsize::new(0),
            has_budget_override: AtomicBool::new(false),
            consumed: Mutex::new(EngineReport::default()),
        }
    }
}

/// One queue item: the job, its result slot, and the submitting session.
pub(crate) struct QueuedJob {
    pub(crate) job: Job,
    pub(crate) shared: Arc<JobShared>,
    pub(crate) ctx: Arc<SessionCtx>,
    /// Trace id the job's spans are recorded under (the RPC request id
    /// for wire submissions, a locally minted id otherwise).
    pub(crate) trace: u64,
    /// `Obs::now_ns` at submit time — the runner measures queue wait as
    /// pop time minus this (0 when observability is disabled).
    pub(crate) submitted_ns: u64,
    /// Learn-progress sink installed on the engine for the duration of the
    /// run (the RPC layer streams accepted covering-round clauses to
    /// clients through it). Ignored by non-learn jobs.
    pub(crate) progress: Option<ProgressSink>,
}

impl fmt::Debug for QueuedJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueuedJob")
            .field("job", &self.job)
            .field("trace", &self.trace)
            .field("submitted_ns", &self.submitted_ns)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

/// One session's pending jobs on a database queue.
#[derive(Debug, Default)]
struct SessionQueue {
    jobs: VecDeque<QueuedJob>,
    /// The session handle was dropped; the entry is removed once drained
    /// (queued jobs still run — dropping a handle does not revoke work).
    detached: bool,
}

/// The lock-guarded state of one database's scheduling.
#[derive(Debug, Default)]
struct QueueState {
    /// Per-session pending jobs.
    queues: HashMap<u64, SessionQueue>,
    /// Round-robin order over session ids with pending jobs. A session id
    /// appears at most once; the runner pops the front, takes one job, and
    /// re-appends the id while its queue stays non-empty.
    rr: VecDeque<u64>,
    /// Jobs queued or currently running (the admission gauge).
    inflight: usize,
    /// Live [`Session`] handles bound to this database.
    sessions: usize,
    /// The server was dropped; the runner exits once every session is gone
    /// and the queues are drained.
    closed: bool,
    next_session: u64,
}

/// What happened to a submission. On `Closed`/`Rejected` the job is
/// dropped here — the caller still holds the result slot and fails it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubmitOutcome {
    /// Queued; the runner will execute it.
    Queued,
    /// The server is gone; the caller fails the handle.
    Closed,
    /// The database's in-flight cap is reached; the caller fails the
    /// handle with [`JobError::Rejected`].
    Rejected,
}

/// One database's scheduling structure: per-session FIFO queues drained
/// round-robin by the database's runner thread, plus the in-flight
/// admission gauge.
#[derive(Debug)]
pub(crate) struct DatabaseQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    /// Per-database in-flight cap (0 = unlimited).
    max_inflight: usize,
    /// Queue items drained by this database's runner.
    drains: AtomicUsize,
}

impl DatabaseQueue {
    fn new(max_inflight: usize) -> Self {
        DatabaseQueue {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
            max_inflight,
            drains: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a new session and returns its queue id.
    pub(crate) fn open_session(&self) -> u64 {
        let mut state = self.lock();
        let id = state.next_session;
        state.next_session += 1;
        state.sessions += 1;
        state.queues.insert(id, SessionQueue::default());
        id
    }

    /// Unbinds a session handle: its empty queue is removed immediately,
    /// a non-empty one is marked detached and removed once drained.
    pub(crate) fn close_session(&self, id: u64) {
        let mut state = self.lock();
        state.sessions = state.sessions.saturating_sub(1);
        if let Some(queue) = state.queues.get_mut(&id) {
            if queue.jobs.is_empty() {
                state.queues.remove(&id);
            } else {
                queue.detached = true;
            }
        }
        // The runner may be waiting to exit on the last session.
        self.ready.notify_all();
    }

    /// Enqueues one job for `session`, enforcing the in-flight cap.
    pub(crate) fn submit(&self, session: u64, job: QueuedJob) -> SubmitOutcome {
        let mut state = self.lock();
        if state.closed {
            return SubmitOutcome::Closed;
        }
        if self.max_inflight > 0 && state.inflight >= self.max_inflight {
            return SubmitOutcome::Rejected;
        }
        let Some(queue) = state.queues.get_mut(&session) else {
            // The session handle is gone; treat like a closed queue.
            return SubmitOutcome::Closed;
        };
        let was_empty = queue.jobs.is_empty();
        queue.jobs.push_back(job);
        if was_empty {
            state.rr.push_back(session);
        }
        state.inflight += 1;
        self.ready.notify_one();
        SubmitOutcome::Queued
    }

    /// Blocks for the next job in round-robin order, or `None` when the
    /// server is gone, every session handle is dropped, and the queues are
    /// drained — the runner's exit condition.
    fn pop(&self) -> Option<QueuedJob> {
        let mut state = self.lock();
        loop {
            if let Some(&session) = state.rr.front() {
                state.rr.pop_front();
                let queue = state
                    .queues
                    .get_mut(&session)
                    .expect("rr ids always have a queue");
                let job = queue.jobs.pop_front().expect("rr queues are non-empty");
                if !queue.jobs.is_empty() {
                    state.rr.push_back(session);
                } else if queue.detached {
                    state.queues.remove(&session);
                }
                self.drains.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
            if state.closed && state.sessions == 0 {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The configured in-flight cap (0 = unlimited).
    pub(crate) fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Marks one drained job finished (decrements the in-flight gauge).
    fn job_done(&self) {
        let mut state = self.lock();
        state.inflight = state.inflight.saturating_sub(1);
    }

    /// Closes the queue: submissions fail fast and the runner exits once
    /// the sessions are gone and the queues are drained.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Snapshot of the queue gauges.
    pub(crate) fn report(&self) -> QueueReport {
        let state = self.lock();
        QueueReport {
            drains: self.drains.load(Ordering::Relaxed),
            inflight: state.inflight,
            open_sessions: state.sessions,
        }
    }
}

struct DatabaseEntry {
    engine: Arc<Engine>,
    queue: Arc<DatabaseQueue>,
}

/// Scrape-time bridge from [`ServerStats`] to the exposition: the atomics
/// stay the single storage site, read when `Server::metrics_text` renders.
struct ServerStatsCollector(Arc<ServerStats>);

impl Collect for ServerStatsCollector {
    fn collect(&self, exp: &mut Exposition) {
        let s = self.0.snapshot();
        exp.counter(
            "castor_sessions_accepted_total",
            "Sessions opened successfully.",
            &[],
            s.sessions_accepted as u64,
        );
        exp.counter(
            "castor_sessions_rejected_total",
            "Session requests refused by the server-wide session cap.",
            &[],
            s.sessions_rejected as u64,
        );
        exp.gauge(
            "castor_sessions_active",
            "Sessions currently open.",
            &[],
            s.sessions_active as i64,
        );
        exp.counter(
            "castor_jobs_submitted_total",
            "Jobs accepted onto a database queue.",
            &[],
            s.jobs_submitted as u64,
        );
        exp.counter(
            "castor_jobs_rejected_total",
            "Jobs refused by a database's in-flight cap.",
            &[],
            s.jobs_rejected as u64,
        );
    }
}

/// Scrape-time bridge from the shared worker pool's steal/idle counters.
struct PoolCollector(Arc<WorkerPool>);

impl Collect for PoolCollector {
    fn collect(&self, exp: &mut Exposition) {
        let stats = self.0.stats();
        exp.gauge(
            "castor_pool_workers",
            "Worker threads in the shared evaluation pool.",
            &[],
            self.0.size() as i64,
        );
        exp.counter(
            "castor_pool_steals_total",
            "Work items claimed off the shared cursor by pool workers.",
            &[],
            stats.steals(),
        );
        exp.counter(
            "castor_pool_idle_ns_total",
            "Nanoseconds pool workers spent parked waiting for a job.",
            &[],
            stats.idle_ns(),
        );
    }
}

/// Scrape-time bridge from one registered database: its engine counters
/// (labelled by database) and its queue gauges. Reads the same atomics
/// [`Server::report`] and [`Server::queue_report`] serve, so the wire
/// exposition can never disagree with the report structs.
struct DatabaseCollector {
    name: String,
    // Weak: the collector lives inside the `Obs` registry and the engine
    // holds the `Obs` handle, so a strong reference here would cycle and
    // keep the observability state (and any armed `dump_on_drop`) alive
    // after the server is gone. A dropped database simply stops exporting.
    engine: std::sync::Weak<Engine>,
    queue: Arc<DatabaseQueue>,
}

impl Collect for DatabaseCollector {
    fn collect(&self, exp: &mut Exposition) {
        let Some(engine) = self.engine.upgrade() else {
            return;
        };
        let db = [("db", self.name.as_str())];
        let e = engine.report();
        for (name, help, value) in [
            (
                "castor_engine_coverage_tests_total",
                "Coverage tests actually evaluated.",
                e.coverage_tests,
            ),
            (
                "castor_engine_cache_hits_total",
                "Tests answered from a coverage cache (memo or exhaustion tiers).",
                e.cache_hits,
            ),
            (
                "castor_engine_budget_exhausted_total",
                "Tests that ended by budget exhaustion.",
                e.budget_exhausted,
            ),
            (
                "castor_engine_plans_compiled_total",
                "Distinct clause plans compiled.",
                e.plans_compiled,
            ),
            (
                "castor_engine_batches_total",
                "Batched (shared-prefix trie) evaluations executed.",
                e.batches,
            ),
            (
                "castor_engine_mutation_batches_total",
                "Mutation batches applied to the live database.",
                e.mutation_batches,
            ),
        ] {
            exp.counter(name, help, &db, value as u64);
        }
        let q = self.queue.report();
        exp.counter(
            "castor_queue_drains_total",
            "Queue items drained by this database's runner.",
            &db,
            q.drains as u64,
        );
        exp.gauge(
            "castor_queue_inflight",
            "Jobs currently queued or running.",
            &db,
            q.inflight as i64,
        );
        exp.gauge(
            "castor_queue_open_sessions",
            "Live session handles bound to this database.",
            &db,
            q.open_sessions as i64,
        );
    }
}

/// The runner-loop metric handles, resolved once per runner thread from
/// the server's registry. The latency histograms are labelled by database
/// (`{db="..."}`), so a slow tenant shows up as its own series instead of
/// skewing a pooled one; the slow-job counter is server-wide.
pub(crate) struct ServiceMetrics {
    pub(crate) queue_wait_ns: Arc<Histogram>,
    pub(crate) job_run_ns: Arc<Histogram>,
    pub(crate) slow_jobs: Arc<Counter>,
}

impl ServiceMetrics {
    pub(crate) fn new(obs: &Obs, database: &str) -> Self {
        let r = obs.registry();
        let db = [("db", database)];
        ServiceMetrics {
            queue_wait_ns: r.labeled_histogram(
                "castor_queue_wait_ns",
                "Time a job spent queued before its runner popped it.",
                &db,
            ),
            job_run_ns: r.labeled_histogram(
                "castor_job_run_ns",
                "Time a popped job spent on its runner (including cancel fast-paths).",
                &db,
            ),
            slow_jobs: r.counter(
                "castor_slow_jobs_total",
                "Jobs that ran past the slow-job watchdog threshold.",
            ),
        }
    }
}

/// A multi-session serving facade: long-lived engines over mutating
/// databases, per-session FIFO queues drained round-robin per database, a
/// worker pool shared by every engine, and admission control over sessions
/// and queue depth.
pub struct Server {
    pool: Arc<WorkerPool>,
    config: ServerConfig,
    databases: Mutex<HashMap<String, DatabaseEntry>>,
    stats: Arc<ServerStats>,
    obs: Arc<Obs>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self
            .databases
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        f.debug_struct("Server")
            .field("threads", &self.config.threads)
            .field("databases", &names)
            .finish()
    }
}

impl Server {
    /// Creates a server with no registered databases.
    pub fn new(config: ServerConfig) -> Self {
        let pool = Arc::new(WorkerPool::new(config.threads));
        let stats = Arc::new(ServerStats::default());
        let obs = Arc::new(Obs::new(config.obs.clone()));
        obs.registry()
            .register_collector(Box::new(ServerStatsCollector(Arc::clone(&stats))));
        obs.registry()
            .register_collector(Box::new(PoolCollector(Arc::clone(&pool))));
        if let Some(path) = &config.trace_dump_path {
            // Drop guard: an orderly shutdown (or an unwinding panic that
            // drops the last `Obs` handle) writes the trace file.
            obs.dump_on_drop(path);
            // Panic hook: a crash that aborts before the handles unwind
            // still dumps. A `Weak` keeps the process-global hook from
            // pinning the registry alive after the server is gone.
            let hook_obs = Arc::downgrade(&obs);
            let hook_path = path.clone();
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if let Some(obs) = hook_obs.upgrade() {
                    let _ = std::fs::write(&hook_path, obs.trace_json());
                }
                previous(info);
            }));
        }
        Server {
            pool,
            config,
            databases: Mutex::new(HashMap::new()),
            stats,
            obs,
        }
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The server-wide observability handle (shared with every registered
    /// engine and the RPC front end).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The full metric exposition in Prometheus text format: server
    /// counters, pool steal/idle counters, per-database engine and queue
    /// counters, and the runner latency histograms — all read at scrape
    /// time from the same atomics the report structs serve.
    pub fn metrics_text(&self) -> String {
        self.obs.expose()
    }

    /// The span ring rendered as Chrome-trace JSON.
    pub fn trace_json(&self) -> String {
        self.obs.trace_json()
    }

    /// Registers a database under `name`: builds its versioned engine on
    /// the shared pool and spawns its runner thread. The instance is shared,
    /// not copied; the caller's `Arc` stays a pre-registration snapshot
    /// once mutations start (copy-on-write).
    pub fn register(
        &self,
        name: impl Into<String>,
        db: Arc<DatabaseInstance>,
    ) -> Result<(), ServerError> {
        let name = name.into();
        let mut databases = self.databases.lock().unwrap_or_else(|e| e.into_inner());
        if databases.contains_key(&name) {
            return Err(ServerError::DuplicateDatabase(name));
        }
        let mut engine_config = self.config.engine.clone();
        engine_config.threads = self.config.threads;
        let engine = Arc::new(Engine::with_labeled_observability(
            db,
            engine_config,
            Arc::clone(&self.pool),
            Arc::clone(&self.obs),
            &name,
        ));
        let queue = Arc::new(DatabaseQueue::new(self.config.max_inflight_per_database));
        self.obs
            .registry()
            .register_collector(Box::new(DatabaseCollector {
                name: name.clone(),
                engine: Arc::downgrade(&engine),
                queue: Arc::clone(&queue),
            }));
        let runner_engine = Arc::clone(&engine);
        let runner_queue = Arc::clone(&queue);
        let runner_db = name.clone();
        std::thread::Builder::new()
            .name(format!("castor-service-runner-{name}"))
            .spawn(move || run_queue(runner_engine, runner_queue, runner_db))
            .expect("failed to spawn runner thread");
        databases.insert(name, DatabaseEntry { engine, queue });
        Ok(())
    }

    /// The names of every registered database, sorted.
    pub fn databases(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .databases
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Claims one slot under the server-wide session cap (compare-and-swap
    /// on the active gauge, so concurrent admissions never overshoot).
    fn admit_session(&self) -> bool {
        let max = self.config.max_sessions;
        if max == 0 {
            self.stats.sessions_active.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        loop {
            let active = self.stats.sessions_active.load(Ordering::Relaxed);
            if active >= max {
                return false;
            }
            if self
                .stats
                .sessions_active
                .compare_exchange(active, active + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Opens a session on a registered database, subject to the
    /// server-wide session cap. Dropping the returned [`Session`] releases
    /// its slot.
    pub fn session(&self, database: &str) -> Result<Session, ServerError> {
        let databases = self.databases.lock().unwrap_or_else(|e| e.into_inner());
        let entry = databases
            .get(database)
            .ok_or_else(|| ServerError::UnknownDatabase(database.to_string()))?;
        if !self.admit_session() {
            self.stats.sessions_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::SessionLimit {
                limit: self.config.max_sessions,
            });
        }
        self.stats.sessions_accepted.fetch_add(1, Ordering::Relaxed);
        let id = entry.queue.open_session();
        Ok(Session::new(
            database.to_string(),
            Arc::clone(&entry.engine),
            Arc::clone(&entry.queue),
            id,
            Arc::new(SessionCtx::new()),
            Arc::clone(&self.stats),
        ))
    }

    /// The total engine counters of one database (every session's activity
    /// combined).
    pub fn report(&self, database: &str) -> Result<EngineReport, ServerError> {
        let databases = self.databases.lock().unwrap_or_else(|e| e.into_inner());
        databases
            .get(database)
            .map(|entry| entry.engine.report())
            .ok_or_else(|| ServerError::UnknownDatabase(database.to_string()))
    }

    /// The serving-layer counters: session admissions/rejections and queue
    /// traffic across every database (`queue_drains` is the sum of every
    /// database's drains — each drain is counted once, by its queue).
    pub fn server_report(&self) -> ServerReport {
        let mut report = self.stats.snapshot();
        let databases = self.databases.lock().unwrap_or_else(|e| e.into_inner());
        report.queue_drains = databases
            .values()
            .map(|entry| entry.queue.report().drains)
            .sum();
        report
    }

    /// One database's queue gauges (drains, in-flight jobs, open sessions).
    pub fn queue_report(&self, database: &str) -> Result<QueueReport, ServerError> {
        let databases = self.databases.lock().unwrap_or_else(|e| e.into_inner());
        databases
            .get(database)
            .map(|entry| entry.queue.report())
            .ok_or_else(|| ServerError::UnknownDatabase(database.to_string()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let databases = self.databases.lock().unwrap_or_else(|e| e.into_inner());
        for entry in databases.values() {
            entry.queue.close();
        }
    }
}

/// The runner loop of one database: drains the sessions' queues
/// round-robin (one job per turn). Exits when the server is dropped, every
/// session handle is gone, and the queues are drained — queued jobs are
/// always finished first, so no handle is left hanging.
///
/// Instrumentation contract (the wire-consistency invariant the
/// observability tests pin down): queue wait is recorded on *every* pop
/// and job run time around *every* popped job's processing — cancel
/// fast-paths included — so at quiescence
/// `castor_queue_wait_ns_count == castor_job_run_ns_count == queue drains`.
fn run_queue(engine: Arc<Engine>, queue: Arc<DatabaseQueue>, database: String) {
    let obs = Arc::clone(engine.obs());
    let metrics = ServiceMetrics::new(&obs, &database);
    while let Some(QueuedJob {
        job,
        shared,
        ctx,
        trace,
        submitted_ns,
        progress,
    }) = queue.pop()
    {
        let enabled = obs.enabled();
        let run_start_ns = obs.now_ns();
        if enabled {
            let wait_ns = run_start_ns.saturating_sub(submitted_ns);
            metrics.queue_wait_ns.record_ns(wait_ns);
            obs.span_measured(
                "service.queue_wait",
                trace,
                submitted_ns,
                wait_ns,
                Vec::new(),
            );
        }
        if ctx.cancel.load(Ordering::Relaxed) {
            shared.complete(Err(JobError::Cancelled));
            if enabled {
                metrics
                    .job_run_ns
                    .record_ns(obs.now_ns().saturating_sub(run_start_ns));
            }
            queue.job_done();
            continue;
        }
        // Watchdog payload, captured before `execute` consumes the job —
        // only cloned when instrumentation is live.
        let watch = enabled.then(|| (job_kind(&job), first_clause(&job)));
        // Mutations don't run the executor, so cancellation cannot corrupt
        // them; evaluation jobs cancelled mid-run are reported as such.
        let cancellable = !matches!(job, Job::Mutate(_));
        let default_budget = engine.config().eval_budget;
        if ctx.has_budget_override.load(Ordering::Relaxed) {
            engine.set_eval_budget(ctx.eval_budget.load(Ordering::Relaxed));
        }
        engine.set_cancel_token(Some(Arc::clone(&ctx.cancel)));
        engine.set_trace(trace);
        engine.set_progress_sink(progress);
        let before = engine.report();
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(&engine, job)));
        let after = engine.report();
        engine.set_trace(0);
        engine.set_progress_sink(None);
        engine.set_cancel_token(None);
        engine.set_eval_budget(default_budget);
        {
            let delta = after.delta_since(&before);
            let mut consumed = ctx.consumed.lock().unwrap_or_else(|e| e.into_inner());
            *consumed = consumed.combined(&delta);
        }
        let mut result = match outcome {
            Ok(result) => result,
            Err(panic) => Err(JobError::Panicked(panic_message(panic))),
        };
        if cancellable && ctx.cancel.load(Ordering::Relaxed) {
            // The job was cancelled mid-run: its aborted searches ended as
            // budget exhaustions, which the memo cache refuses at
            // write-back while the cancellation is pending (genuine
            // exhaustions are cached keyed by the budget they were observed
            // under and served only to equal-or-smaller budgets), so no
            // cancellation-tainted verdict can leak to other sessions — the
            // partial result is simply discarded.
            result = Err(JobError::Cancelled);
        }
        if enabled {
            let run_ns = obs.now_ns().saturating_sub(run_start_ns);
            metrics.job_run_ns.record_ns(run_ns);
            if run_ns > obs.slow_job_threshold_ns() {
                metrics.slow_jobs.inc();
                let (kind, clause) = watch.unwrap_or(("unknown", None));
                let mut args = vec![
                    ("kind".to_string(), kind.to_string()),
                    ("run_ms".to_string(), (run_ns / 1_000_000).to_string()),
                ];
                if let Some(clause) = clause {
                    // The plan is queried *after* execution, so the order
                    // reported is the one the slow run actually compiled.
                    if let Some(order) = engine.plan_order(&clause) {
                        args.push(("plan_order".to_string(), order.join(" -> ")));
                    }
                    args.push(("clause".to_string(), clause.to_string()));
                }
                obs.span_measured("watchdog.slow_job", trace, run_start_ns, run_ns, args);
            }
        }
        shared.complete(result);
        queue.job_done();
    }
}

/// A static label for the watchdog's `kind` argument.
fn job_kind(job: &Job) -> &'static str {
    match job {
        Job::Coverage(_) => "coverage",
        Job::Score(_) => "score",
        Job::Learn(_) => "learn",
        Job::Mutate(_) => "mutate",
    }
}

/// The clause a slow-job report is pinned to: the first clause of an
/// evaluation batch (learn and mutation jobs have no fixed clause).
fn first_clause(job: &Job) -> Option<castor_logic::Clause> {
    match job {
        Job::Coverage(j) => j.clauses.first().cloned(),
        Job::Score(j) => j.clauses.first().cloned(),
        Job::Learn(_) | Job::Mutate(_) => None,
    }
}

/// Executes one job against the database's engine.
fn execute(engine: &Engine, job: Job) -> Result<JobResult, JobError> {
    match job {
        Job::Coverage(job) => Ok(JobResult::Covered(
            engine.covered_sets_batch(&job.clauses, &job.examples),
        )),
        Job::Score(job) => Ok(JobResult::Scores(engine.coverage_counts_batch(
            &job.clauses,
            &job.positive,
            &job.negative,
        ))),
        Job::Learn(job) => {
            let definition = match &job.algorithm {
                LearnAlgorithm::Foil(params) => {
                    Foil::new().learn_with_engine(engine, &job.task, params)
                }
                LearnAlgorithm::Progol(params) => {
                    Progol::new().learn_with_engine(engine, &job.task, params)
                }
                LearnAlgorithm::Golem(params) => {
                    Golem::new().learn_with_engine(engine, &job.task, params)
                }
                LearnAlgorithm::ProGolem(params) => {
                    ProGolem::new().learn_with_engine(engine, &job.task, params)
                }
                LearnAlgorithm::Castor(config) => {
                    Castor::new((**config).clone())
                        .learn_in(engine, &job.task)
                        .definition
                }
            };
            Ok(JobResult::Learned(definition))
        }
        Job::Mutate(batch) => engine
            .apply(&batch)
            .map(JobResult::Mutated)
            .map_err(JobError::Mutation),
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(msg) = panic.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = panic.downcast_ref::<String>() {
        msg.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobHandle;
    use castor_relational::MutationBatch;

    fn queued(ctx: &Arc<SessionCtx>) -> (QueuedJob, JobHandle) {
        let (handle, shared) = JobHandle::new(0);
        (
            QueuedJob {
                job: Job::Mutate(MutationBatch::new()),
                shared,
                ctx: Arc::clone(ctx),
                trace: 0,
                submitted_ns: 0,
                progress: None,
            },
            handle,
        )
    }

    /// The fairness contract at the queue level, fully deterministic: a
    /// flooding session's backlog is interleaved one-per-turn with the
    /// other sessions' jobs instead of draining first.
    #[test]
    fn round_robin_drains_one_job_per_session_turn() {
        let queue = DatabaseQueue::new(0);
        let flooder = queue.open_session();
        let light = queue.open_session();
        let ctx = Arc::new(SessionCtx::new());
        let mut handles = Vec::new();
        // The flooder enqueues five jobs before the light session's one.
        for _ in 0..5 {
            let (job, handle) = queued(&ctx);
            assert!(matches!(queue.submit(flooder, job), SubmitOutcome::Queued));
            handles.push(handle);
        }
        let (job, _light_handle) = queued(&ctx);
        assert!(matches!(queue.submit(light, job), SubmitOutcome::Queued));
        // Drain order: flood0, light0, flood1, flood2, ... — the light job
        // waits behind exactly one flooder job, not five.
        let mut order = Vec::new();
        for _ in 0..6 {
            queue.pop().expect("job queued");
            let state = queue.lock();
            let flooder_left = state
                .queues
                .get(&flooder)
                .map_or(0, |q: &SessionQueue| q.jobs.len());
            let light_left = state
                .queues
                .get(&light)
                .map_or(0, |q: &SessionQueue| q.jobs.len());
            drop(state);
            order.push((flooder_left, light_left));
            queue.job_done();
        }
        assert_eq!(
            order,
            vec![(4, 1), (4, 0), (3, 0), (2, 0), (1, 0), (0, 0)],
            "light session must be served on the second turn"
        );
        assert_eq!(queue.report().drains, 6);
        assert_eq!(queue.report().inflight, 0);
    }

    #[test]
    fn inflight_cap_rejects_excess_submissions() {
        let queue = DatabaseQueue::new(2);
        let session = queue.open_session();
        let ctx = Arc::new(SessionCtx::new());
        let (a, _ha) = queued(&ctx);
        let (b, _hb) = queued(&ctx);
        let (c, _hc) = queued(&ctx);
        assert!(matches!(queue.submit(session, a), SubmitOutcome::Queued));
        assert!(matches!(queue.submit(session, b), SubmitOutcome::Queued));
        assert!(matches!(queue.submit(session, c), SubmitOutcome::Rejected));
        assert_eq!(queue.report().inflight, 2);
        // Draining both makes room again (`job_done` releases the slot
        // only after execution, so a running job still counts).
        queue.pop().unwrap();
        queue.job_done();
        queue.pop().unwrap();
        assert_eq!(queue.report().inflight, 1);
        queue.job_done();
        let (d, _hd) = queued(&ctx);
        assert!(matches!(queue.submit(session, d), SubmitOutcome::Queued));
    }

    /// The post-mortem wiring end to end: a server configured with
    /// [`ServerConfig::with_trace_dump_path`] leaves its span ring behind
    /// as Chrome-trace JSON once the last observability handle drops —
    /// no explicit dump call anywhere.
    #[test]
    fn orderly_shutdown_leaves_a_trace_dump_behind() {
        use castor_logic::{Atom, Clause};
        use castor_relational::{RelationSymbol, Schema, Tuple};

        let path = std::env::temp_dir().join(format!(
            "castor-trace-dump-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let server = Server::new(
                ServerConfig::default()
                    .with_threads(1)
                    .with_trace_dump_path(&path),
            );
            let mut schema = Schema::new("demo");
            schema.add_relation(RelationSymbol::new("edge", &["a", "b"]));
            let mut db = DatabaseInstance::empty(&schema);
            db.insert("edge", Tuple::from_strs(&["x", "y"])).unwrap();
            server.register("demo", Arc::new(db)).unwrap();
            let session = server.session("demo").unwrap();
            let clause = Clause::new(
                Atom::vars("linked", &["a", "b"]),
                vec![Atom::vars("edge", &["a", "b"])],
            );
            session
                .covered_sets(vec![clause], vec![Tuple::from_strs(&["x", "y"])])
                .unwrap();
        }
        // The runner threads exit (and drop their `Obs` clones) shortly
        // after the server handle goes; the last drop writes the file.
        let mut dump = None;
        for _ in 0..200 {
            if let Ok(text) = std::fs::read_to_string(&path) {
                dump = Some(text);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let dump = dump.expect("trace dump file was never written");
        assert!(
            dump.contains("service.queue_wait"),
            "dump missing the job's spans: {dump}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn detached_sessions_drain_then_disappear() {
        let queue = DatabaseQueue::new(0);
        let session = queue.open_session();
        let ctx = Arc::new(SessionCtx::new());
        let (job, _handle) = queued(&ctx);
        assert!(matches!(queue.submit(session, job), SubmitOutcome::Queued));
        queue.close_session(session);
        // The queued job survives the handle drop...
        assert_eq!(queue.report().open_sessions, 0);
        assert!(queue.pop().is_some());
        queue.job_done();
        // ...and the emptied queue entry is reclaimed.
        assert!(queue.lock().queues.is_empty());
        // New submissions against the dead session id fail closed.
        let (job, _handle) = queued(&ctx);
        assert!(matches!(queue.submit(session, job), SubmitOutcome::Closed));
    }
}

//! Sessions: per-client handles on a server-owned engine.
//!
//! A [`Session`] is cheap to create and owns no engine state. It carries:
//!
//! * per-session **config overrides** (currently the per-test node budget),
//!   installed on the shared engine only for the duration of the session's
//!   jobs;
//! * an isolated **counter view**: the runner snapshots the engine counters
//!   around every job and accumulates the delta here, so
//!   [`Session::report`] shows exactly the engine activity this session
//!   caused — per-session deltas sum to the server total;
//! * a **cancellation token** checked by the executor and θ-subsumption
//!   budget loops: after [`Session::cancel`], queued jobs fail fast with
//!   [`JobError::Cancelled`] and a running job's coverage tests abort
//!   within one candidate tuple. (Bottom-clause *grounding* inside a
//!   Castor [`LearnJob`] is not budget-driven, so a
//!   cancelled learn job stops at its next coverage test rather than
//!   mid-grounding.)

use crate::job::{CoverageJob, Job, JobError, JobHandle, LearnJob, ScoreJob};
use crate::server::{DatabaseQueue, SessionCtx, SubmitOutcome};
use crate::stats::ServerStats;
use crate::QueuedJob;
use castor_engine::{ClauseCounts, Engine, EngineReport, ProgressSink};
use castor_logic::{Clause, Definition};
use castor_relational::{DatabaseInstance, MutationBatch, MutationSummary, Tuple};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A client handle on one database of a [`crate::Server`]. Each session
/// owns its own FIFO queue on the database, drained round-robin against
/// the other sessions' queues; dropping the handle releases its admission
/// slot (queued jobs still run to completion).
#[derive(Debug)]
pub struct Session {
    database: String,
    engine: Arc<Engine>,
    queue: Arc<DatabaseQueue>,
    id: u64,
    ctx: Arc<SessionCtx>,
    stats: Arc<ServerStats>,
}

impl Session {
    pub(crate) fn new(
        database: String,
        engine: Arc<Engine>,
        queue: Arc<DatabaseQueue>,
        id: u64,
        ctx: Arc<SessionCtx>,
        stats: Arc<ServerStats>,
    ) -> Self {
        Session {
            database,
            engine,
            queue,
            id,
            ctx,
            stats,
        }
    }

    /// The database this session is bound to.
    pub fn database(&self) -> &str {
        &self.database
    }

    /// Overrides the per-test node budget for this session's jobs (builder
    /// style). Other sessions on the same engine keep the engine default.
    pub fn with_eval_budget(self, budget: usize) -> Self {
        self.ctx.eval_budget.store(budget, Ordering::Relaxed);
        self.ctx.has_budget_override.store(true, Ordering::Relaxed);
        self
    }

    /// A consistent snapshot of the database the session's engine currently
    /// serves (copy-on-write: later mutations never alter it).
    pub fn snapshot(&self) -> Arc<DatabaseInstance> {
        self.engine.snapshot()
    }

    /// Sets the session's cancellation token: queued jobs fail fast with
    /// [`JobError::Cancelled`] and a running job's coverage tests (database
    /// execution and θ-subsumption alike) abort within one candidate tuple
    /// of their budget loops.
    pub fn cancel(&self) {
        self.ctx.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the session has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.ctx.cancel.load(Ordering::Relaxed)
    }

    /// Lifts a previous [`Session::cancel`], so new jobs run again.
    pub fn reset_cancel(&self) {
        self.ctx.cancel.store(false, Ordering::Relaxed);
    }

    /// The engine activity this session's jobs caused so far (isolated
    /// counter deltas; see the module docs).
    pub fn report(&self) -> EngineReport {
        *self.ctx.consumed.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues a job on this session's queue, returning a handle
    /// immediately. Jobs of one session run in submission order; different
    /// sessions' queues are drained round-robin. A submission over the
    /// database's in-flight cap fails fast with [`JobError::Rejected`].
    ///
    /// The job is assigned a freshly minted local trace id (readable via
    /// [`JobHandle::trace_id`]); work arriving over the wire should use
    /// [`Session::submit_traced`] with its request id instead.
    pub fn submit(&self, job: Job) -> JobHandle {
        let trace = self.engine.obs().mint_trace();
        self.submit_traced(job, trace)
    }

    /// [`Session::submit`] under a caller-chosen trace id — the RPC front
    /// end passes the frame request id verbatim, so one job's spans
    /// (client encode, queue wait, engine evaluation, reply write) share
    /// one id across processes.
    pub fn submit_traced(&self, job: Job, trace: u64) -> JobHandle {
        self.submit_traced_with_progress(job, trace, None)
    }

    /// [`Session::submit_traced`] with a learn-progress sink installed on
    /// the engine for the duration of the job: covering loops report each
    /// accepted clause through it (the wire front end streams these to
    /// the client as incremental progress frames). The sink runs on the
    /// database's runner thread, so it must never block on the consumer.
    pub fn submit_traced_with_progress(
        &self,
        job: Job,
        trace: u64,
        progress: Option<ProgressSink>,
    ) -> JobHandle {
        let (handle, shared) = JobHandle::new(trace);
        let queued = QueuedJob {
            job,
            shared: Arc::clone(&shared),
            ctx: Arc::clone(&self.ctx),
            trace,
            submitted_ns: self.engine.obs().now_ns(),
            progress,
        };
        match self.queue.submit(self.id, queued) {
            SubmitOutcome::Queued => {
                self.stats.jobs_submitted.fetch_add(1, Ordering::Relaxed);
            }
            SubmitOutcome::Closed => {
                // The runner is gone (server shut down): fail the job
                // rather than leaving the handle hanging forever.
                shared.complete(Err(JobError::Cancelled));
            }
            SubmitOutcome::Rejected => {
                self.stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                shared.complete(Err(JobError::Rejected {
                    limit: self.queue.max_inflight(),
                }));
            }
        }
        handle
    }

    /// Submits a [`CoverageJob`] and blocks for the per-clause covered sets.
    pub fn covered_sets(
        &self,
        clauses: Vec<Clause>,
        examples: Vec<Tuple>,
    ) -> Result<Vec<HashSet<Tuple>>, JobError> {
        let handle = self.submit(Job::Coverage(CoverageJob::new(clauses, examples)));
        Ok(handle
            .join()?
            .into_covered()
            .expect("coverage job returns covered sets"))
    }

    /// Submits a [`ScoreJob`] and blocks for the per-clause counts (fused
    /// positive/negative pass).
    pub fn score(
        &self,
        clauses: Vec<Clause>,
        positive: Vec<Tuple>,
        negative: Vec<Tuple>,
    ) -> Result<Vec<ClauseCounts>, JobError> {
        let handle = self.submit(Job::Score(ScoreJob::new(clauses, positive, negative)));
        Ok(handle
            .join()?
            .into_scores()
            .expect("score job returns counts"))
    }

    /// Submits a [`LearnJob`] and blocks for the learned definition.
    pub fn learn(&self, job: LearnJob) -> Result<Definition, JobError> {
        let handle = self.submit(Job::Learn(Box::new(job)));
        Ok(handle
            .join()?
            .into_definition()
            .expect("learn job returns a definition"))
    }

    /// Submits a mutation batch and blocks until it is applied. The batch
    /// is serialized with the database's other jobs, so this session's
    /// later jobs observe it while unrelated sessions' in-flight jobs do
    /// not see a half-applied state.
    pub fn apply(&self, batch: MutationBatch) -> Result<MutationSummary, JobError> {
        let handle = self.submit(Job::Mutate(batch));
        Ok(handle
            .join()?
            .into_summary()
            .expect("mutation job returns a summary"))
    }
}

impl Drop for Session {
    /// Releases the session's admission slot and unbinds its queue. Jobs
    /// already queued still run to completion (their handles resolve);
    /// call [`Session::cancel`] first to discard them instead.
    fn drop(&mut self) {
        self.queue.close_session(self.id);
        self.stats.sessions_active.fetch_sub(1, Ordering::Relaxed);
    }
}

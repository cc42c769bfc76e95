//! Jobs, results, and handles for the serving layer's per-database queues.
//!
//! A [`Job`] is submitted through a [`crate::Session`] and executed by the
//! owning database's runner thread in submission order. The caller gets a
//! [`JobHandle`] back immediately: `join` blocks until the result is in,
//! `try_poll` peeks without blocking. Handles are cheap to clone and can be
//! waited on from any thread.

use castor_core::CastorConfig;
use castor_engine::ClauseCounts;
use castor_learners::{LearnerParams, LearningTask};
use castor_logic::{Clause, Definition};
use castor_relational::{MutationBatch, MutationSummary, RelationalError, Tuple};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// Compute the covered subset of `examples` for every clause of a batch
/// (the serving-layer shape of `Engine::covered_sets_batch`).
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageJob {
    /// Candidate clauses (a beam, a learned definition, ...).
    pub clauses: Vec<Clause>,
    /// Examples to test each clause against.
    pub examples: Vec<Tuple>,
}

impl CoverageJob {
    /// A coverage job.
    pub fn new(clauses: Vec<Clause>, examples: Vec<Tuple>) -> Self {
        CoverageJob { clauses, examples }
    }
}

/// Count positive/negative coverage for every clause of a batch through the
/// fused batched scoring path.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreJob {
    /// Candidate clauses.
    pub clauses: Vec<Clause>,
    /// Positive examples.
    pub positive: Vec<Tuple>,
    /// Negative examples.
    pub negative: Vec<Tuple>,
}

impl ScoreJob {
    /// A score job.
    pub fn new(clauses: Vec<Clause>, positive: Vec<Tuple>, negative: Vec<Tuple>) -> Self {
        ScoreJob {
            clauses,
            positive,
            negative,
        }
    }
}

/// Run one learner over the engine's current database snapshot.
///
/// The session's budget override and cancellation token govern every
/// coverage test the learner performs (database execution and, for Castor,
/// θ-subsumption against ground bottom clauses). Bottom-clause grounding
/// itself is not budget-driven: cancellation takes effect at the job's
/// next coverage test.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnJob {
    /// The learning task (target relation plus labeled examples).
    pub task: LearningTask,
    /// Which learner to run, with its parameters.
    pub algorithm: LearnAlgorithm,
}

impl LearnJob {
    /// A learn job.
    pub fn new(task: LearningTask, algorithm: LearnAlgorithm) -> Self {
        LearnJob { task, algorithm }
    }
}

/// The learners the serving layer can run.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnAlgorithm {
    /// FOIL (greedy top-down).
    Foil(LearnerParams),
    /// Progol (bottom-clause-bounded beam search).
    Progol(LearnerParams),
    /// Golem (rlgg-based bottom-up).
    Golem(LearnerParams),
    /// ProGolem (ARMG-based bottom-up).
    ProGolem(LearnerParams),
    /// Castor (the paper's schema-independent learner).
    Castor(Box<CastorConfig>),
}

/// Work a session can enqueue.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// Covered-set computation.
    Coverage(CoverageJob),
    /// Fused positive/negative scoring.
    Score(ScoreJob),
    /// A learner run.
    Learn(Box<LearnJob>),
    /// A mutation batch against the live database (serialized with the
    /// database's other jobs, so a session's own jobs see its mutations in
    /// submission order).
    Mutate(MutationBatch),
}

/// The value a completed job produced.
#[derive(Debug, Clone)]
pub enum JobResult {
    /// Per-clause covered subsets, in the submitted clause order.
    Covered(Vec<HashSet<Tuple>>),
    /// Per-clause positive/negative counts, in the submitted clause order.
    Scores(Vec<ClauseCounts>),
    /// The learned definition.
    Learned(Definition),
    /// What the mutation batch changed.
    Mutated(MutationSummary),
}

impl JobResult {
    /// The covered sets, if this was a coverage job.
    pub fn into_covered(self) -> Option<Vec<HashSet<Tuple>>> {
        match self {
            JobResult::Covered(sets) => Some(sets),
            _ => None,
        }
    }

    /// The scores, if this was a score job.
    pub fn into_scores(self) -> Option<Vec<ClauseCounts>> {
        match self {
            JobResult::Scores(counts) => Some(counts),
            _ => None,
        }
    }

    /// The definition, if this was a learn job.
    pub fn into_definition(self) -> Option<Definition> {
        match self {
            JobResult::Learned(def) => Some(def),
            _ => None,
        }
    }

    /// The mutation summary, if this was a mutation job.
    pub fn into_summary(self) -> Option<MutationSummary> {
        match self {
            JobResult::Mutated(summary) => Some(summary),
            _ => None,
        }
    }
}

/// Why a job did not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The session's cancellation token was set before or during the job.
    Cancelled,
    /// The database's in-flight job cap was reached; the job was never
    /// queued (admission control — see
    /// [`crate::ServerConfig::max_inflight_per_database`]).
    Rejected {
        /// The configured per-database in-flight cap.
        limit: usize,
    },
    /// A mutation op failed (unknown relation, arity mismatch). Ops before
    /// the failing one remain applied; affected caches were invalidated.
    Mutation(RelationalError),
    /// The job panicked on the runner thread (the runner survives).
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Cancelled => write!(f, "job cancelled by its session"),
            JobError::Rejected { limit } => {
                write!(f, "database job queue at capacity ({limit} in flight)")
            }
            JobError::Mutation(e) => write!(f, "mutation failed: {e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// A completion callback armed on a handle: runs exactly once, on the
/// thread that completes the job (or inline on the arming thread if the
/// job already finished). Must never block — runner threads call it.
type CompletionHook = Box<dyn FnOnce() + Send>;

/// The slot a runner thread fills and waiters block on.
#[derive(Default)]
struct SharedState {
    result: Option<Result<JobResult, JobError>>,
    hook: Option<CompletionHook>,
}

/// The slot a runner thread fills and waiters block on, plus an optional
/// completion hook (see [`JobHandle::on_complete`]).
#[derive(Default)]
pub(crate) struct JobShared {
    state: Mutex<SharedState>,
    done: Condvar,
}

impl fmt::Debug for JobShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("JobShared")
            .field("done", &state.result.is_some())
            .field("hooked", &state.hook.is_some())
            .finish()
    }
}

impl JobShared {
    pub(crate) fn complete(&self, result: Result<JobResult, JobError>) {
        let hook = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.result = Some(result);
            self.done.notify_all();
            state.hook.take()
        };
        // The hook runs outside the lock: it may fan out into arbitrary
        // notification machinery (an event loop's waker), and a waiter
        // woken by the notify above must not contend with it.
        if let Some(hook) = hook {
            hook();
        }
    }
}

/// A handle on a submitted job. Cloneable; every clone waits on the same
/// result slot.
#[derive(Debug, Clone)]
pub struct JobHandle {
    pub(crate) shared: Arc<JobShared>,
    pub(crate) trace: u64,
}

impl JobHandle {
    pub(crate) fn new(trace: u64) -> (JobHandle, Arc<JobShared>) {
        let shared = Arc::new(JobShared::default());
        (
            JobHandle {
                shared: Arc::clone(&shared),
                trace,
            },
            shared,
        )
    }

    /// The trace id this job's spans are recorded under: the RPC request
    /// id for wire-submitted jobs, a locally minted id (high bit set) for
    /// in-process submissions. Grep the server's trace dump for it to see
    /// the job's queue wait and engine time.
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// Blocks until the job finishes and returns its result.
    pub fn join(&self) -> Result<JobResult, JobError> {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = state.result.as_ref() {
                return result.clone();
            }
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The job's result if it already finished, `None` while it is still
    /// queued or running.
    pub fn try_poll(&self) -> Option<Result<JobResult, JobError>> {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .result
            .clone()
    }

    /// Arms a completion notification: `hook` runs exactly once when the
    /// job completes — on the completing runner thread, or inline right
    /// here if the result is already in. One hook per job (arming again
    /// replaces an unfired hook); the hook must not block, since it runs
    /// on the database's runner. This is how a non-blocking front end
    /// (the RPC event loop) learns a handle became joinable without
    /// parking a thread in [`JobHandle::join`].
    pub fn on_complete(&self, hook: impl FnOnce() + Send + 'static) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.result.is_none() {
                state.hook = Some(Box::new(hook));
                return;
            }
        }
        // Already complete: fire inline, outside the lock.
        hook();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_polls_none_then_joins_the_completed_result() {
        let (handle, shared) = JobHandle::new(7);
        assert_eq!(handle.trace_id(), 7);
        assert!(handle.try_poll().is_none());
        let waiter = handle.clone();
        let thread = std::thread::spawn(move || waiter.join());
        shared.complete(Ok(JobResult::Covered(Vec::new())));
        let joined = thread.join().unwrap().unwrap();
        assert!(matches!(joined, JobResult::Covered(sets) if sets.is_empty()));
        assert!(handle.try_poll().is_some());
    }

    #[test]
    fn result_downcasts_select_the_right_variant() {
        let covered = JobResult::Covered(vec![HashSet::new()]);
        assert!(covered.clone().into_covered().is_some());
        assert!(covered.into_scores().is_none());
        let learned = JobResult::Learned(Definition::empty("t"));
        assert_eq!(learned.into_definition().unwrap().len(), 0);
    }

    #[test]
    fn completion_hook_fires_once_on_complete_or_inline_when_late() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Armed before completion: fires on the completing thread.
        let (handle, shared) = JobHandle::new(1);
        let fired = Arc::new(AtomicUsize::new(0));
        let hook_fired = Arc::clone(&fired);
        handle.on_complete(move || {
            hook_fired.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 0, "not before completion");
        shared.complete(Ok(JobResult::Covered(Vec::new())));
        assert_eq!(fired.load(Ordering::SeqCst), 1);

        // Armed after completion: fires inline, exactly once.
        let late = Arc::new(AtomicUsize::new(0));
        let hook_late = Arc::clone(&late);
        handle.on_complete(move || {
            hook_late.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(late.load(Ordering::SeqCst), 1);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "first hook not re-run");
    }

    #[test]
    fn errors_render_their_cause() {
        assert!(JobError::Cancelled.to_string().contains("cancelled"));
        assert!(JobError::Panicked("boom".into())
            .to_string()
            .contains("boom"));
    }
}

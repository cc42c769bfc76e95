//! A retrying, reconnecting wrapper around [`RpcClient`].
//!
//! [`RetryClient`] mirrors the blocking client's convenience API but
//! survives transport failures: dropped connections are re-established,
//! idempotent requests are replayed under a capped exponential backoff
//! with decorrelated jitter, and load-shedding rejections honor the
//! server's retry-after hint. The line it will not cross is **ambiguity**:
//! a non-idempotent request (mutation, learn) that fails *after* it was
//! sent is surfaced as [`RpcError::Ambiguous`] instead of being replayed,
//! because the server may have applied it — replaying could double-apply.
//!
//! What is safe to replay:
//!
//! | request                          | on transport failure        |
//! |----------------------------------|-----------------------------|
//! | coverage / score / reports / metrics / trace | reconnect and replay |
//! | mutate / learn, failure **before** send      | reconnect and replay |
//! | mutate / learn, failure **after** send       | [`RpcError::Ambiguous`] |
//! | any request the server *answered* with `Rejected` | replay after the hint (the server never queued it) |
//!
//! Every retry, reconnect, exhaustion, and ambiguity is counted on the
//! wrapper's own observability handle ([`RetryClient::obs`]), so a chaos
//! suite can assert exactly how hard the client had to work.

use crate::client::{ClientConfig, RpcClient, RpcError};
use castor_engine::{ClauseCounts, EngineReport, LearnProgress};
use castor_learners::LearningTask;
use castor_logic::{Clause, Definition};
use castor_obs::{Counter, Obs};
use castor_relational::{MutationBatch, MutationSummary, Tuple};
use castor_service::{LearnAlgorithm, ServerReport};
use std::collections::HashSet;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When and how hard to retry.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per request, the first included.
    pub max_attempts: u32,
    /// First backoff sleep; later sleeps jitter upward from here.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep.
    pub max_backoff: Duration,
    /// Wall-clock budget across all of one request's attempts; when it
    /// runs out the next failure is final even if attempts remain.
    pub budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            budget: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// Sets the attempt cap (builder style).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the base backoff (builder style).
    pub fn with_base_backoff(mut self, base: Duration) -> Self {
        self.base_backoff = base;
        self
    }

    /// Sets the backoff cap (builder style).
    pub fn with_max_backoff(mut self, cap: Duration) -> Self {
        self.max_backoff = cap;
        self
    }

    /// Sets the wall-clock budget (builder style).
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }
}

/// A reconnecting, retrying RPC client (see the module docs for the
/// replay-safety rules).
#[derive(Debug)]
pub struct RetryClient {
    addrs: Vec<SocketAddr>,
    database: String,
    config: ClientConfig,
    policy: RetryPolicy,
    conn: Option<RpcClient>,
    /// Decorrelated-jitter state: the previous sleep, and the RNG.
    prev_backoff: Duration,
    rng: u64,
    obs: Arc<Obs>,
    retries: Arc<Counter>,
    reconnects: Arc<Counter>,
    exhausted: Arc<Counter>,
    ambiguous: Arc<Counter>,
}

impl RetryClient {
    /// A retrying client for `database` at `addr` with default config and
    /// policy. No connection is opened until the first request.
    pub fn new(addr: impl ToSocketAddrs, database: &str) -> Result<RetryClient, RpcError> {
        RetryClient::with_config(
            addr,
            database,
            ClientConfig::default(),
            RetryPolicy::default(),
        )
    }

    /// [`RetryClient::new`] under explicit connection and retry knobs.
    pub fn with_config(
        addr: impl ToSocketAddrs,
        database: &str,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> Result<RetryClient, RpcError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| RpcError::Io(e.to_string()))?
            .collect();
        if addrs.is_empty() {
            return Err(RpcError::Io("address resolved to nothing".to_string()));
        }
        let obs = Obs::enabled_default();
        let r = obs.registry();
        let retries = r.counter(
            "castor_client_retries_total",
            "Requests replayed after a retryable failure.",
        );
        let reconnects = r.counter(
            "castor_client_reconnects_total",
            "Connections re-established after a transport failure.",
        );
        let exhausted = r.counter(
            "castor_client_retry_exhausted_total",
            "Requests that failed every attempt inside the retry budget.",
        );
        let ambiguous = r.counter(
            "castor_client_ambiguous_total",
            "Non-idempotent requests whose outcome is unknown (sent, then the transport failed).",
        );
        let prev_backoff = policy.base_backoff;
        Ok(RetryClient {
            addrs,
            database: database.to_string(),
            config,
            policy,
            conn: None,
            prev_backoff,
            // Any nonzero constant works: determinism of the *schedule*
            // does not matter for correctness (only fault plans need
            // seeds), it just must not be zero for the xorshift step.
            rng: 0x853C_49E6_748F_EA9B,
            obs,
            retries,
            reconnects,
            exhausted,
            ambiguous,
        })
    }

    /// Reseeds the jitter RNG (deterministic backoff schedules in tests).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.rng = seed | 1;
        self
    }

    /// The wrapper's observability handle: retry/reconnect/exhausted/
    /// ambiguous counters.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Whether a connection is currently established.
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Drops the current connection (the next request reconnects). Chaos
    /// tests use this to simulate client-side restarts.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    fn xorshift(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Decorrelated jitter: sleep uniform in `[base, prev * 3]`, capped.
    /// Spreads a thundering herd of retrying clients across time instead
    /// of synchronizing them on powers of two.
    fn next_backoff(&mut self) -> Duration {
        let base = self.policy.base_backoff.as_millis() as u64;
        let high = (self.prev_backoff.as_millis() as u64)
            .saturating_mul(3)
            .max(base + 1);
        let span = high - base;
        let sleep =
            Duration::from_millis(base + self.xorshift() % span).min(self.policy.max_backoff);
        self.prev_backoff = sleep;
        sleep
    }

    fn ensure_conn(&mut self) -> Result<&mut RpcClient, RpcError> {
        if self.conn.is_none() {
            let client =
                RpcClient::connect_config(self.addrs.as_slice(), &self.database, &self.config)?;
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    /// Runs `op` with retries that are safe **only for idempotent
    /// requests**: transport failures drop the connection and replay on a
    /// fresh one; `Rejected` keeps the connection and sleeps at least the
    /// server's retry-after hint; semantic errors return immediately.
    fn retry_idempotent<T>(
        &mut self,
        mut op: impl FnMut(&mut RpcClient) -> Result<T, RpcError>,
    ) -> Result<T, RpcError> {
        let started = Instant::now();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let result = match self.ensure_conn() {
                Ok(client) => op(client),
                Err(e) => Err(e),
            };
            let error = match result {
                Ok(value) => return Ok(value),
                Err(error) => error,
            };
            if !error.is_retryable_for_idempotent() {
                return Err(error);
            }
            let rejected_hint = match &error {
                RpcError::Remote { retry_after_ms, .. } if error.is_admission_rejection() => {
                    Some(Duration::from_millis(*retry_after_ms))
                }
                _ => None,
            };
            if rejected_hint.is_none() {
                // Transport-level failure: the connection is poisoned
                // (framing is byte-positional, there is no resync). A live
                // connection torn down here is re-established by the next
                // attempt's `ensure_conn`.
                if self.conn.take().is_some() {
                    self.reconnects.inc();
                }
            }
            if attempts >= self.policy.max_attempts || started.elapsed() >= self.policy.budget {
                self.exhausted.inc();
                return Err(RpcError::RetryExhausted {
                    attempts,
                    last: Box::new(error),
                });
            }
            self.retries.inc();
            let backoff = self.next_backoff();
            // An overloaded server's hint wins over local jitter: clients
            // must not come back before the queue can have drained.
            std::thread::sleep(rejected_hint.map_or(backoff, |hint| hint.max(backoff)));
        }
    }

    /// Runs a **non-idempotent** `op` at most once per established
    /// session. Connection establishment is retried (nothing has been
    /// sent yet, so it is safe); once `op` runs, a transport failure is
    /// [`RpcError::Ambiguous`] — except `Rejected`, which the server
    /// answers *before* queueing, so it is replayed like the idempotent
    /// case.
    fn once_per_send<T>(
        &mut self,
        mut op: impl FnMut(&mut RpcClient) -> Result<T, RpcError>,
        what: &str,
    ) -> Result<T, RpcError> {
        let started = Instant::now();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            // Phase 1 (retryable): get a connection. Failures here cannot
            // have sent the request.
            match self.ensure_conn() {
                Ok(_) => {}
                Err(error) => {
                    if attempts >= self.policy.max_attempts
                        || started.elapsed() >= self.policy.budget
                    {
                        self.exhausted.inc();
                        return Err(RpcError::RetryExhausted {
                            attempts,
                            last: Box::new(error),
                        });
                    }
                    self.retries.inc();
                    let backoff = self.next_backoff();
                    std::thread::sleep(backoff);
                    continue;
                }
            }
            // Phase 2 (at most once per session): send and await.
            let client = self.conn.as_mut().expect("just ensured");
            let error = match op(client) {
                Ok(value) => return Ok(value),
                Err(error) => error,
            };
            match &error {
                RpcError::Remote { retry_after_ms, .. } if error.is_admission_rejection() => {
                    // The server answered: the job was never queued.
                    // Replaying cannot double-apply.
                    if attempts >= self.policy.max_attempts
                        || started.elapsed() >= self.policy.budget
                    {
                        self.exhausted.inc();
                        return Err(RpcError::RetryExhausted {
                            attempts,
                            last: Box::new(error),
                        });
                    }
                    self.retries.inc();
                    let hint = Duration::from_millis(*retry_after_ms);
                    let backoff = self.next_backoff();
                    std::thread::sleep(hint.max(backoff));
                }
                RpcError::Io(_) | RpcError::Timeout(_) | RpcError::Malformed(_) => {
                    // The request left this process and no authoritative
                    // answer came back: applied-or-not is unknowable here.
                    self.conn = None;
                    self.ambiguous.inc();
                    return Err(RpcError::Ambiguous {
                        message: format!("{what} failed after send: {error}"),
                    });
                }
                _ => return Err(error),
            }
        }
    }

    /// Covered subsets, replayed transparently across transport failures
    /// (see [`RpcClient::covered_sets`]).
    pub fn covered_sets(
        &mut self,
        clauses: Vec<Clause>,
        examples: Vec<Tuple>,
    ) -> Result<Vec<HashSet<Tuple>>, RpcError> {
        self.retry_idempotent(|c| c.covered_sets(clauses.clone(), examples.clone()))
    }

    /// Deadline-carrying coverage, replayed transparently. The deadline
    /// is re-sent whole on each attempt — it is the per-attempt patience,
    /// not a shared budget across attempts.
    pub fn covered_sets_deadline(
        &mut self,
        clauses: Vec<Clause>,
        examples: Vec<Tuple>,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<HashSet<Tuple>>, RpcError> {
        self.retry_idempotent(|c| {
            c.covered_sets_deadline(clauses.clone(), examples.clone(), deadline_ms)
        })
    }

    /// Fused scoring, replayed transparently (see [`RpcClient::score`]).
    pub fn score(
        &mut self,
        clauses: Vec<Clause>,
        positive: Vec<Tuple>,
        negative: Vec<Tuple>,
    ) -> Result<Vec<ClauseCounts>, RpcError> {
        self.retry_idempotent(|c| c.score(clauses.clone(), positive.clone(), negative.clone()))
    }

    /// Session counter deltas, replayed transparently. Note that a
    /// reconnect opens a *new* session, whose deltas restart from zero.
    pub fn report(&mut self) -> Result<EngineReport, RpcError> {
        self.retry_idempotent(|c| c.report())
    }

    /// Server totals, replayed transparently.
    pub fn server_report(&mut self) -> Result<(EngineReport, ServerReport), RpcError> {
        self.retry_idempotent(|c| c.server_report())
    }

    /// The metric exposition, replayed transparently.
    pub fn metrics(&mut self) -> Result<String, RpcError> {
        self.retry_idempotent(|c| c.metrics())
    }

    /// The trace dump, replayed transparently.
    pub fn trace_dump(&mut self) -> Result<String, RpcError> {
        self.retry_idempotent(|c| c.trace_dump())
    }

    /// Runs a learner — **not** replayed after send (a learn holds the
    /// queue; replaying doubles the work): post-send transport failures
    /// surface as [`RpcError::Ambiguous`].
    pub fn learn(
        &mut self,
        task: LearningTask,
        algorithm: LearnAlgorithm,
    ) -> Result<Definition, RpcError> {
        self.once_per_send(|c| c.learn(task.clone(), algorithm.clone()), "learn")
    }

    /// [`RetryClient::learn`] returning the covering-round progress the
    /// server streamed; same replay rules.
    pub fn learn_with_progress(
        &mut self,
        task: LearningTask,
        algorithm: LearnAlgorithm,
    ) -> Result<(Definition, Vec<LearnProgress>), RpcError> {
        self.once_per_send(
            |c| c.learn_with_progress(task.clone(), algorithm.clone()),
            "learn",
        )
    }

    /// Deadline-carrying learn, same replay rules as [`RetryClient::learn`].
    pub fn learn_deadline(
        &mut self,
        task: LearningTask,
        algorithm: LearnAlgorithm,
        deadline_ms: Option<u64>,
    ) -> Result<Definition, RpcError> {
        self.once_per_send(
            |c| c.learn_deadline(task.clone(), algorithm.clone(), deadline_ms),
            "learn",
        )
    }

    /// Applies a mutation batch — **not** replayed after send (the server
    /// may have applied it): post-send transport failures surface as
    /// [`RpcError::Ambiguous`]. Reconcile via
    /// [`RetryClient::server_report`] (mutation counters/epochs) before
    /// resubmitting.
    pub fn apply(&mut self, batch: MutationBatch) -> Result<MutationSummary, RpcError> {
        self.once_per_send(|c| c.apply(batch.clone()), "mutation batch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_jitters_within_decorrelated_bounds_and_caps() {
        let mut client = RetryClient::new("127.0.0.1:9", "x")
            .unwrap()
            .with_jitter_seed(7);
        let base = client.policy.base_backoff;
        let cap = client.policy.max_backoff;
        let mut prev = base;
        for _ in 0..50 {
            let sleep = client.next_backoff();
            assert!(sleep >= base.min(cap), "sleep {sleep:?} under base");
            assert!(sleep <= (prev * 3).min(cap), "sleep {sleep:?} over 3x prev");
            prev = sleep;
        }
    }

    #[test]
    fn jitter_schedules_reproduce_under_one_seed() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut c = RetryClient::new("127.0.0.1:9", "x")
                .unwrap()
                .with_jitter_seed(seed);
            (0..10).map(|_| c.next_backoff()).collect()
        };
        assert_eq!(schedule(42), schedule(42));
    }

    #[test]
    fn connect_failures_to_a_dead_port_exhaust_with_typed_error() {
        // Port 9 (discard) is almost never listening; connect fails fast.
        let mut client = RetryClient::with_config(
            "127.0.0.1:9",
            "demo",
            ClientConfig::default().with_connect_timeout(Duration::from_millis(200)),
            RetryPolicy::default()
                .with_max_attempts(2)
                .with_base_backoff(Duration::from_millis(1))
                .with_budget(Duration::from_secs(2)),
        )
        .unwrap();
        match client.report() {
            Err(RpcError::RetryExhausted { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected RetryExhausted, got {other:?}"),
        }
        let exposition = client.obs().registry().expose();
        assert!(exposition.contains("castor_client_retry_exhausted_total 1"));
    }
}

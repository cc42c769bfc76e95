//! The blocking RPC client: one TCP connection, one session.
//!
//! Requests can be *pipelined*: [`RpcClient::submit`] sends a request and
//! returns a lightweight [`RpcHandle`] immediately; [`RpcClient::join`]
//! blocks until that request's response arrives, buffering any other
//! responses that land first. The convenience methods
//! ([`RpcClient::covered_sets`], [`RpcClient::learn`], ...) are
//! submit-then-join in one call — the same shapes
//! [`castor_service::Session`] offers in-process, so callers can swap the
//! transports.

use crate::frame::{
    read_response, write_request, ErrorCode, FrameError, Request, Response, StreamBody,
    DEFAULT_MAX_FRAME_BYTES, DEFAULT_STREAM_CREDIT,
};
use castor_engine::{ClauseCounts, EngineReport, LearnProgress};
use castor_learners::LearningTask;
use castor_logic::{Clause, Definition};
use castor_obs::{Histogram, Obs};
use castor_relational::{MutationBatch, MutationSummary, Tuple};
use castor_service::{LearnAlgorithm, ServerReport};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Connection knobs for [`RpcClient`]. The defaults are conservative for
/// a well-behaved LAN: a bounded connect, unbounded reads/writes (jobs
/// can legitimately run long). Chaos and retry setups should set the
/// read timeout so a stalled or half-dead server turns into a typed
/// [`RpcError::Timeout`] instead of a hang.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Cap on TCP connection establishment (`None` = OS default).
    pub connect_timeout: Option<Duration>,
    /// Cap on one blocking socket read (`None` = wait forever).
    pub read_timeout: Option<Duration>,
    /// Cap on one blocking socket write (`None` = wait forever).
    pub write_timeout: Option<Duration>,
    /// Cap on received frames (servers enforce their own for requests).
    pub max_frame_bytes: usize,
    /// Per-session node-budget override sent in `Hello`.
    pub eval_budget: Option<usize>,
    /// Initial stream-frame credit granted in `Hello` (see
    /// [`Request::StreamCredit`]). The client replenishes automatically
    /// as it consumes stream frames; `0` grants nothing — the server will
    /// not stream to this connection until an explicit grant
    /// (starvation-test territory, not a production setting).
    pub stream_credit: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: None,
            write_timeout: None,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            eval_budget: None,
            stream_credit: DEFAULT_STREAM_CREDIT,
        }
    }
}

impl ClientConfig {
    /// Sets the connect timeout (builder style).
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Sets the per-read socket timeout (builder style).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Sets the per-write socket timeout (builder style).
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = Some(timeout);
        self
    }

    /// Sets the received-frame cap (builder style).
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self
    }

    /// Sets the per-session node-budget override (builder style).
    pub fn with_eval_budget(mut self, budget: usize) -> Self {
        self.eval_budget = Some(budget);
        self
    }

    /// Sets the initial stream-frame credit (builder style).
    pub fn with_stream_credit(mut self, credit: u64) -> Self {
        self.stream_credit = credit;
        self
    }
}

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The socket failed or closed mid-exchange.
    Io(String),
    /// A socket operation exceeded its configured timeout (connect, read,
    /// or write) — distinct from [`RpcError::Io`] because a timeout on an
    /// idempotent request is safely retryable.
    Timeout(String),
    /// A frame or payload could not be decoded locally.
    Malformed(String),
    /// The server answered with a typed error frame.
    Remote {
        /// The server's error code.
        code: ErrorCode,
        /// The relevant admission limit, when the code carries one.
        limit: usize,
        /// The server's message.
        message: String,
        /// Load-aware backoff hint for rejections (0 = none); retrying
        /// clients sleep at least this long before the next attempt.
        retry_after_ms: u64,
    },
    /// The server answered with a response of the wrong shape.
    UnexpectedResponse(String),
    /// A retrying client gave up: every attempt inside its budget failed.
    /// `last` is the final attempt's error.
    RetryExhausted {
        /// How many attempts were made.
        attempts: u32,
        /// The error that ended the last attempt.
        last: Box<RpcError>,
    },
    /// A non-idempotent request (mutation, learn) failed *after* it was
    /// sent: the server may or may not have applied it, and retrying
    /// could double-apply. The caller must reconcile — e.g. compare
    /// mutation epochs via a server report — before resubmitting.
    Ambiguous {
        /// What failed, for the human reading the log.
        message: String,
    },
}

impl RpcError {
    /// Whether this is an admission-control rejection (session cap or
    /// per-database in-flight cap).
    pub fn is_admission_rejection(&self) -> bool {
        matches!(
            self,
            RpcError::Remote {
                code: ErrorCode::Rejected | ErrorCode::SessionLimit,
                ..
            }
        )
    }

    /// Whether the server cancelled the job (session cancel or
    /// disconnect).
    pub fn is_cancelled(&self) -> bool {
        matches!(
            self,
            RpcError::Remote {
                code: ErrorCode::Cancelled,
                ..
            }
        )
    }

    /// Whether the job's deadline expired server-side.
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(
            self,
            RpcError::Remote {
                code: ErrorCode::DeadlineExceeded,
                ..
            }
        )
    }

    /// Whether retrying this error on a fresh connection is safe *for an
    /// idempotent request*: transport failures, timeouts, torn frames,
    /// and load-shedding rejections qualify; typed semantic errors (bad
    /// request, unknown database, deadline exceeded) do not — the retry
    /// would fail identically.
    pub fn is_retryable_for_idempotent(&self) -> bool {
        match self {
            RpcError::Io(_) | RpcError::Timeout(_) | RpcError::Malformed(_) => true,
            RpcError::Remote { .. } => self.is_admission_rejection(),
            RpcError::UnexpectedResponse(_)
            | RpcError::RetryExhausted { .. }
            | RpcError::Ambiguous { .. } => false,
        }
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Io(msg) => write!(f, "rpc transport failed: {msg}"),
            RpcError::Timeout(msg) => write!(f, "rpc timed out: {msg}"),
            RpcError::Malformed(msg) => write!(f, "rpc frame malformed: {msg}"),
            RpcError::Remote { code, message, .. } => {
                write!(f, "server error ({code:?}): {message}")
            }
            RpcError::UnexpectedResponse(what) => {
                write!(f, "server sent an unexpected response: {what}")
            }
            RpcError::RetryExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            RpcError::Ambiguous { message } => {
                write!(
                    f,
                    "request outcome ambiguous (may or may not have been applied): {message}"
                )
            }
        }
    }
}

impl std::error::Error for RpcError {}

impl From<FrameError> for RpcError {
    fn from(error: FrameError) -> Self {
        match error {
            FrameError::Io(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                RpcError::Timeout(e.to_string())
            }
            FrameError::Io(e) => RpcError::Io(e.to_string()),
            FrameError::Closed => RpcError::Io("connection closed".to_string()),
            FrameError::TooLarge { .. } | FrameError::Malformed(_) | FrameError::Version { .. } => {
                RpcError::Malformed(error.to_string())
            }
        }
    }
}

/// A pipelined request awaiting [`RpcClient::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "join the handle to read the response"]
pub struct RpcHandle(u64);

impl RpcHandle {
    /// The request id — also the trace id the server records this
    /// request's spans under (queue wait, engine evaluation, reply
    /// write), and the one the client's `rpc.client.encode` span uses.
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// Reassembly state of one request's in-progress response stream.
#[derive(Debug, Default)]
struct StreamState {
    /// The sequence number the next chunk must carry.
    next_seq: u64,
    /// Covered sets accumulated from `CoveredChunk` frames.
    chunks: Vec<HashSet<Tuple>>,
    /// Learn-progress events, in arrival (covering-round) order.
    progress: Vec<LearnProgress>,
}

/// A blocking client bound to one database session on an
/// [`crate::RpcServer`].
#[derive(Debug)]
pub struct RpcClient {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Responses that arrived while waiting for a different request id.
    pending: HashMap<u64, Response>,
    /// Partially reassembled response streams, by request id.
    streams: HashMap<u64, StreamState>,
    max_frame_bytes: usize,
    /// The initial credit granted in `Hello`; replenishment targets it.
    stream_credit: u64,
    /// Stream frames consumed since the last replenishment grant.
    consumed_since_grant: u64,
    /// The client's own observability handle: `rpc.client.encode` spans
    /// plus encode/roundtrip latency histograms, recorded under the same
    /// trace ids (request ids) the server records its spans under.
    obs: Arc<Obs>,
    encode_ns: Arc<Histogram>,
    roundtrip_ns: Arc<Histogram>,
    /// Submit times of in-flight requests, for the roundtrip histogram.
    started: HashMap<u64, u64>,
}

impl RpcClient {
    /// Connects and opens a session on `database` with the server's
    /// default evaluation budget.
    pub fn connect(addr: impl ToSocketAddrs, database: &str) -> Result<RpcClient, RpcError> {
        RpcClient::connect_config(addr, database, &ClientConfig::default())
    }

    /// [`RpcClient::connect`] with a per-session node-budget override and
    /// a frame cap (the cap applies to *received* frames; servers enforce
    /// their own).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        database: &str,
        eval_budget: Option<usize>,
        max_frame_bytes: usize,
    ) -> Result<RpcClient, RpcError> {
        let config = ClientConfig {
            eval_budget,
            max_frame_bytes,
            ..ClientConfig::default()
        };
        RpcClient::connect_config(addr, database, &config)
    }

    /// [`RpcClient::connect`] under explicit [`ClientConfig`] knobs:
    /// connect/read/write timeouts, frame cap, budget override. Timeouts
    /// surface as [`RpcError::Timeout`], which a retry layer treats as
    /// safely retryable for idempotent requests.
    pub fn connect_config(
        addr: impl ToSocketAddrs,
        database: &str,
        config: &ClientConfig,
    ) -> Result<RpcClient, RpcError> {
        let stream = connect_stream(addr, config.connect_timeout)?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(config.read_timeout)
            .map_err(|e| RpcError::Io(e.to_string()))?;
        stream
            .set_write_timeout(config.write_timeout)
            .map_err(|e| RpcError::Io(e.to_string()))?;
        let (eval_budget, max_frame_bytes) = (config.eval_budget, config.max_frame_bytes);
        let reader = stream
            .try_clone()
            .map_err(|e| RpcError::Io(e.to_string()))?;
        let obs = Obs::enabled_default();
        let encode_ns = obs.registry().histogram(
            "castor_rpc_encode_ns",
            "Nanoseconds spent encoding and writing one request frame.",
        );
        let roundtrip_ns = obs.registry().histogram(
            "castor_rpc_roundtrip_ns",
            "Nanoseconds from request submit to its response being joined.",
        );
        let mut client = RpcClient {
            reader,
            writer: BufWriter::new(stream),
            next_id: 0,
            pending: HashMap::new(),
            streams: HashMap::new(),
            max_frame_bytes,
            stream_credit: config.stream_credit,
            consumed_since_grant: 0,
            obs,
            encode_ns,
            roundtrip_ns,
            started: HashMap::new(),
        };
        let handle = client.submit(Request::Hello {
            database: database.to_string(),
            eval_budget,
            stream_credit: Some(config.stream_credit),
        })?;
        match client.join(handle)? {
            Response::HelloOk => Ok(client),
            other => Err(RpcError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Sends one request, returning its handle without waiting for the
    /// response. Any number of requests may be in flight.
    ///
    /// The encode+write is recorded as an `rpc.client.encode` span under
    /// the request id — the same id the server uses as the job's trace id,
    /// so the client- and server-side spans of one request line up.
    pub fn submit(&mut self, request: Request) -> Result<RpcHandle, RpcError> {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.obs.now_ns();
        let timer = self.obs.timer();
        write_request(&mut self.writer, id, &request)?;
        if timer.is_live() {
            let dur_ns = timer.stop_ns(&self.encode_ns);
            self.obs
                .span_measured("rpc.client.encode", id, start_ns, dur_ns, Vec::new());
            self.started.insert(id, start_ns);
        }
        Ok(RpcHandle(id))
    }

    /// Blocks until the response for `handle` arrives (buffering other
    /// responses), then surfaces typed error frames as [`RpcError`].
    pub fn join(&mut self, handle: RpcHandle) -> Result<Response, RpcError> {
        loop {
            if let Some(response) = self.pending.remove(&handle.0) {
                if let Some(start_ns) = self.started.remove(&handle.0) {
                    self.obs.record_since(&self.roundtrip_ns, start_ns);
                }
                return match response {
                    Response::Error {
                        code,
                        limit,
                        message,
                        retry_after_ms,
                    } => Err(RpcError::Remote {
                        code,
                        limit,
                        message,
                        retry_after_ms,
                    }),
                    other => Ok(other),
                };
            }
            let (id, response) = read_response(&mut self.reader, self.max_frame_bytes)?;
            self.accept(id, response)?;
        }
    }

    /// Routes one received frame: stream chunks accumulate (completing
    /// into `pending` when the last chunk lands), everything else goes to
    /// `pending` directly. Consuming stream frames replenishes the
    /// server's flow-control credit once half the initial grant is spent.
    fn accept(&mut self, id: u64, response: Response) -> Result<(), RpcError> {
        let Response::Stream { seq, last, body } = response else {
            self.pending.insert(id, response);
            return Ok(());
        };
        self.consumed_since_grant += 1;
        let state = self.streams.entry(id).or_default();
        if seq != state.next_seq {
            return Err(RpcError::Malformed(format!(
                "stream chunk for request {id} arrived out of order: got seq {seq}, expected {}",
                state.next_seq
            )));
        }
        state.next_seq += 1;
        match body {
            StreamBody::Progress(progress) => {
                if last {
                    return Err(RpcError::Malformed(format!(
                        "progress stream for request {id} marked last: the terminal \
                         frame of a learn is its result, never a progress chunk"
                    )));
                }
                state.progress.push(progress);
            }
            StreamBody::CoveredChunk(mut sets) => {
                state.chunks.append(&mut sets);
                if last {
                    let state = self.streams.remove(&id).expect("stream state just touched");
                    self.pending.insert(id, Response::Covered(state.chunks));
                }
            }
        }
        self.replenish_credit()
    }

    /// Tops the server's stream credit back up after the client has
    /// consumed half its grant (batched so grants are not per-frame).
    /// Grants ride with request id 0 — [`Request::StreamCredit`] has no
    /// response frame, so the id is never echoed and cannot collide.
    fn replenish_credit(&mut self) -> Result<(), RpcError> {
        let threshold = (self.stream_credit / 2).max(1);
        if self.stream_credit == 0 || self.consumed_since_grant < threshold {
            return Ok(());
        }
        let grant = std::mem::take(&mut self.consumed_since_grant);
        write_request(&mut self.writer, 0, &Request::StreamCredit { grant })?;
        Ok(())
    }

    /// Submit-then-join for a request expecting one response shape.
    fn request(&mut self, request: Request) -> Result<Response, RpcError> {
        let handle = self.submit(request)?;
        self.join(handle)
    }

    /// Covered subsets for a batch of clauses — the wire shape of
    /// [`castor_service::Session::covered_sets`].
    pub fn covered_sets(
        &mut self,
        clauses: Vec<Clause>,
        examples: Vec<Tuple>,
    ) -> Result<Vec<HashSet<Tuple>>, RpcError> {
        self.covered_sets_deadline(clauses, examples, None)
    }

    /// [`RpcClient::covered_sets`] with a relative deadline: the server
    /// sheds the job (never touching the engine) if it is still queued
    /// when the deadline passes, and aborts it mid-run otherwise —
    /// either way the call fails with [`ErrorCode::DeadlineExceeded`].
    pub fn covered_sets_deadline(
        &mut self,
        clauses: Vec<Clause>,
        examples: Vec<Tuple>,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<HashSet<Tuple>>, RpcError> {
        match self.request(Request::Coverage {
            clauses,
            examples,
            deadline_ms,
        })? {
            Response::Covered(sets) => Ok(sets),
            other => Err(RpcError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fused positive/negative scoring — the wire shape of
    /// [`castor_service::Session::score`].
    pub fn score(
        &mut self,
        clauses: Vec<Clause>,
        positive: Vec<Tuple>,
        negative: Vec<Tuple>,
    ) -> Result<Vec<ClauseCounts>, RpcError> {
        match self.request(Request::Score {
            clauses,
            positive,
            negative,
            deadline_ms: None,
        })? {
            Response::Scores(counts) => Ok(counts),
            other => Err(RpcError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Runs a learner over the session's database — the wire shape of
    /// [`castor_service::Session::learn`].
    pub fn learn(
        &mut self,
        task: LearningTask,
        algorithm: LearnAlgorithm,
    ) -> Result<Definition, RpcError> {
        self.learn_deadline(task, algorithm, None)
    }

    /// [`RpcClient::learn`] with a relative deadline (see
    /// [`RpcClient::covered_sets_deadline`]): a deadline firing mid-learn
    /// aborts at the learner's next coverage test and the call fails with
    /// [`ErrorCode::DeadlineExceeded`] instead of a partial definition.
    pub fn learn_deadline(
        &mut self,
        task: LearningTask,
        algorithm: LearnAlgorithm,
        deadline_ms: Option<u64>,
    ) -> Result<Definition, RpcError> {
        self.learn_deadline_with_progress(task, algorithm, deadline_ms)
            .map(|(definition, _)| definition)
    }

    /// [`RpcClient::learn`] returning the covering-round progress the
    /// server streamed ahead of the result — one [`LearnProgress`] per
    /// accepted clause, in covering order.
    pub fn learn_with_progress(
        &mut self,
        task: LearningTask,
        algorithm: LearnAlgorithm,
    ) -> Result<(Definition, Vec<LearnProgress>), RpcError> {
        self.learn_deadline_with_progress(task, algorithm, None)
    }

    /// [`RpcClient::learn_with_progress`] with a relative deadline.
    pub fn learn_deadline_with_progress(
        &mut self,
        task: LearningTask,
        algorithm: LearnAlgorithm,
        deadline_ms: Option<u64>,
    ) -> Result<(Definition, Vec<LearnProgress>), RpcError> {
        let handle = self.submit(Request::Learn {
            task,
            algorithm,
            deadline_ms,
        })?;
        let result = self.join(handle);
        // The terminal frame ends the stream, so whatever progress state
        // accumulated is complete (and must not leak on the error path).
        let progress = self
            .streams
            .remove(&handle.0)
            .map(|state| state.progress)
            .unwrap_or_default();
        match result? {
            Response::Learned(definition) => Ok((definition, progress)),
            other => Err(RpcError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Applies a mutation batch — the wire shape of
    /// [`castor_service::Session::apply`].
    pub fn apply(&mut self, batch: MutationBatch) -> Result<MutationSummary, RpcError> {
        match self.request(Request::Mutate(batch))? {
            Response::Mutated(summary) => Ok(summary),
            other => Err(RpcError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// The session's isolated engine-counter deltas.
    pub fn report(&mut self) -> Result<EngineReport, RpcError> {
        match self.request(Request::Report)? {
            Response::Report(report) => Ok(report),
            other => Err(RpcError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// The database's engine totals plus the serving-layer counters.
    pub fn server_report(&mut self) -> Result<(EngineReport, ServerReport), RpcError> {
        match self.request(Request::ServerReport)? {
            Response::ServerReport { engine, server } => Ok((engine, server)),
            other => Err(RpcError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// The server's full metric exposition in Prometheus text format:
    /// admission/queue counters, per-database engine counters, and the
    /// queue-wait/run-time/engine-latency histograms.
    pub fn metrics(&mut self) -> Result<String, RpcError> {
        match self.request(Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => Err(RpcError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// The server's recent spans as Chrome-trace JSON (load into
    /// `chrome://tracing` or Perfetto).
    pub fn trace_dump(&mut self) -> Result<String, RpcError> {
        match self.request(Request::TraceDump)? {
            Response::TraceDump(text) => Ok(text),
            other => Err(RpcError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// The client-side observability handle: `rpc.client.encode` spans and
    /// the `castor_rpc_encode_ns` / `castor_rpc_roundtrip_ns` histograms.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Whether any request has been written on this connection since the
    /// session opened (the Hello exchange itself does not count). A retry
    /// layer uses this to classify connection failures: a failure with
    /// nothing in flight is safely retryable even for mutations.
    pub fn has_inflight(&self) -> bool {
        !self.started.is_empty() || !self.pending.is_empty()
    }
}

/// Resolves `addr` and connects, honoring the connect timeout per
/// candidate address. `TcpStream::connect_timeout` takes a single
/// `SocketAddr`, so resolution happens here.
fn connect_stream(
    addr: impl ToSocketAddrs,
    timeout: Option<Duration>,
) -> Result<TcpStream, RpcError> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| RpcError::Io(e.to_string()))?
        .collect();
    if addrs.is_empty() {
        return Err(RpcError::Io("address resolved to nothing".to_string()));
    }
    let mut last = None;
    for candidate in addrs {
        let attempt = match timeout {
            Some(t) => TcpStream::connect_timeout(&candidate, t),
            None => TcpStream::connect(candidate),
        };
        match attempt {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    let e = last.expect("at least one candidate was tried");
    if e.kind() == std::io::ErrorKind::TimedOut || e.kind() == std::io::ErrorKind::WouldBlock {
        Err(RpcError::Timeout(e.to_string()))
    } else {
        Err(RpcError::Io(e.to_string()))
    }
}

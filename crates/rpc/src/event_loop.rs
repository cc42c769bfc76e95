//! The RPC server core: one readiness-driven epoll event loop driving
//! every connection.
//!
//! One thread owns the listener, a wake [`EventFd`], and every accepted
//! connection. Sockets run non-blocking; epoll (level-triggered) says
//! which are readable/writable, and a per-connection state machine does
//! the rest:
//!
//! ```text
//!            accept                Hello ok
//!   listener ------> [Handshake] ----------> [Open] ---+
//!                        |                     |       | read: frames -> jobs
//!                        | bad first frame     |       | write: outq -> wbuf -> socket
//!                        v                     v       |
//!                 [error frame queued,   EOF / error <-+
//!                  close after flush] ->  cancel session, drop conn
//! ```
//!
//! Jobs dispatch onto the per-database runner queues; nothing on the
//! loop thread ever blocks on one. Every submitted handle gets a
//! completion hook ([`castor_service::JobHandle::on_complete`]) that
//! pushes the connection's token onto the wake queue and signals its
//! eventfd — the loop wakes, polls the handle without blocking, and
//! resumes encoding. The wire contract:
//!
//! * responses leave in submission order (the write queue is drained
//!   strictly head-first; an unfinished job at the head blocks encoding,
//!   never reorders);
//! * lazy responses (reports, metrics, trace dumps) are evaluated only
//!   when they reach the head — after every earlier job of this
//!   connection has completed — so a pipelined `Report` observes the
//!   jobs submitted before it;
//! * stream frames consume connection-scoped flow-control credit; a
//!   spent budget parks the stream (credit grants arrive on the read
//!   path and resume it) without blocking the loop;
//! * a disconnect — EOF, `EPOLLRDHUP`, or a socket error — fires the
//!   session's cancel token and drops the connection, reclaiming the
//!   admission slot.
//!
//! Writes are buffered per connection with partial-write resumption: a
//! `WouldBlock` mid-frame leaves the buffer positioned where the kernel
//! stopped, `EPOLLOUT` interest is registered, and the flush resumes on
//! the next writability event. Fault injection stays byte-exact: the
//! [`FaultStream`] wrapper caps reads/writes at the scheduled
//! thresholds, and delay faults are confirmed only by byte-moving calls
//! (see the fault module docs), so `WouldBlock` outcomes cannot burn a
//! scheduled fault.
//!
//! The loop exports its own health as metrics: a
//! `castor_rpc_loop_connections` gauge, a
//! `castor_rpc_loop_ready_batches_total` counter (epoll wakeups that
//! carried events), and a `castor_rpc_loop_wake_ns` histogram (latency
//! from a runner thread signalling a completion to the loop observing
//! it).

use crate::fault::{FaultStats, FaultStream};
use crate::frame::{
    write_response, ErrorCode, FrameAccumulator, FrameError, Request, Response, StreamBody,
    COVERED_CHUNK_SETS, DEFAULT_STREAM_CREDIT,
};
use crate::server::RpcConfig;
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use castor_engine::{LearnProgress, ProgressSink};
use castor_obs::{Counter, Gauge, Histogram, Obs};
use castor_service::{
    CoverageJob, Deadline, Job, JobHandle, JobResult, LearnJob, ScoreJob, Server, ServerError,
    Session,
};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Stop encoding new responses into a connection's write buffer once
/// this many bytes are pending: bounds per-connection memory against a
/// slow reader without stalling anyone else.
const WBUF_TARGET: usize = 256 * 1024;

/// How runner threads reach the loop: push the completed connection's
/// token (plus the signal timestamp, for the wake-latency histogram)
/// and ring the eventfd.
struct Waker {
    eventfd: EventFd,
    pending: Mutex<Vec<(u64, u64)>>,
}

impl Waker {
    fn notify(&self, token: u64, now_ns: u64) {
        self.pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((token, now_ns));
        self.eventfd.signal();
    }

    fn drain(&self) -> Vec<(u64, u64)> {
        self.eventfd.drain();
        std::mem::take(&mut *self.pending.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Where a connection is in its lifecycle.
enum ConnState {
    /// Waiting for the Hello frame; no session yet.
    Handshake,
    /// Hello accepted: a live session.
    Open { session: Arc<Session> },
}

/// One queued response, in wire order. Streams carry their resumption
/// state, so a stream parked on spent credit picks up where it stopped.
enum Pending {
    Ready(u64, Response),
    Job(u64, JobHandle),
    Lazy(u64, Box<dyn FnOnce() -> Response + Send>),
    /// A covered result being streamed as flow-controlled chunks.
    CoveredStream {
        id: u64,
        trace: u64,
        chunks: VecDeque<Vec<std::collections::HashSet<castor_relational::Tuple>>>,
        seq: u64,
        total: u64,
        start_ns: u64,
    },
    /// A learn: the sink pushes progress events here from the runner
    /// thread (never blocking) and wakes the loop; the terminal result
    /// follows once the handle completes and the queue is drained.
    LearnStream {
        id: u64,
        handle: JobHandle,
        events: Arc<Mutex<VecDeque<LearnProgress>>>,
        seq: u64,
    },
}

struct Conn {
    stream: FaultStream,
    state: ConnState,
    decoder: FrameAccumulator,
    outq: VecDeque<Pending>,
    /// Encoded-but-unsent bytes; `wpos` is the partial-write cursor.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Remaining stream-frame budget (grants add, stream frames take).
    credit: u64,
    /// Set after a framing/handshake error: flush what is queued, then
    /// close. Reading stops (the stream cannot be resynchronized).
    close_after_flush: bool,
    /// The interest mask currently registered with epoll.
    interest: u32,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn queue_error(&mut self, id: u64, code: ErrorCode, limit: usize, message: String) {
        self.outq.push_back(Pending::Ready(
            id,
            Response::Error {
                code,
                limit,
                message,
                retry_after_ms: 0,
            },
        ));
    }
}

/// What pumping one connection concluded.
#[derive(PartialEq, Eq)]
enum Pumped {
    Alive,
    Dead,
}

struct EventLoop {
    listener: TcpListener,
    service: Arc<Server>,
    config: RpcConfig,
    shutdown: Arc<AtomicBool>,
    fault_stats: Arc<FaultStats>,
    epoll: Epoll,
    waker: Arc<Waker>,
    obs: Arc<Obs>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Accept-order index for arming fault schedules (independent of the
    /// epoll token, so plans target "the first connection" whatever
    /// tokens the loop has handed out before).
    conn_index: u64,
    reply_ns: Arc<Histogram>,
    loop_connections: Arc<Gauge>,
    ready_batches: Arc<Counter>,
    wake_ns: Arc<Histogram>,
    /// Per-phase loop profiling (`castor_rpc_loop_phase_ns{phase=...}`):
    /// where a loop iteration's time actually goes — draining sockets,
    /// dispatching parsed frames onto runner queues, encoding responses,
    /// or flushing write buffers — so a saturated loop can be diagnosed
    /// from metrics alone.
    phase_read_ns: Arc<Histogram>,
    phase_dispatch_ns: Arc<Histogram>,
    phase_encode_ns: Arc<Histogram>,
    phase_flush_ns: Arc<Histogram>,
}

/// Runs the event loop to completion (the shutdown flag, checked on
/// every wakeup, ends it). Called on the dedicated `castor-rpc-loop`
/// thread by [`crate::RpcServer::bind`].
pub(crate) fn run(
    listener: TcpListener,
    service: Arc<Server>,
    config: RpcConfig,
    shutdown: Arc<AtomicBool>,
    fault_stats: Arc<FaultStats>,
) {
    let Ok(epoll) = Epoll::new() else { return };
    let Ok(eventfd) = EventFd::new() else { return };
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    if epoll
        .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
        .is_err()
    {
        return;
    }
    if epoll.add(eventfd.raw(), EPOLLIN, TOKEN_WAKER).is_err() {
        return;
    }
    let obs = Arc::clone(service.obs());
    let registry = obs.registry();
    let mut el = EventLoop {
        reply_ns: registry.histogram(
            "castor_rpc_reply_encode_ns",
            "Nanoseconds spent encoding and writing one response frame.",
        ),
        loop_connections: registry.gauge(
            "castor_rpc_loop_connections",
            "Connections currently registered with the RPC event loop.",
        ),
        ready_batches: registry.counter(
            "castor_rpc_loop_ready_batches_total",
            "Epoll wakeups of the RPC event loop that carried ready events.",
        ),
        wake_ns: registry.histogram(
            "castor_rpc_loop_wake_ns",
            "Nanoseconds from a job-completion signal to the event loop observing it.",
        ),
        phase_read_ns: registry.labeled_histogram(
            "castor_rpc_loop_phase_ns",
            "Nanoseconds one event-loop phase took for one ready connection.",
            &[("phase", "read")],
        ),
        phase_dispatch_ns: registry.labeled_histogram(
            "castor_rpc_loop_phase_ns",
            "Nanoseconds one event-loop phase took for one ready connection.",
            &[("phase", "dispatch")],
        ),
        phase_encode_ns: registry.labeled_histogram(
            "castor_rpc_loop_phase_ns",
            "Nanoseconds one event-loop phase took for one ready connection.",
            &[("phase", "encode")],
        ),
        phase_flush_ns: registry.labeled_histogram(
            "castor_rpc_loop_phase_ns",
            "Nanoseconds one event-loop phase took for one ready connection.",
            &[("phase", "flush")],
        ),
        listener,
        service,
        config,
        shutdown,
        fault_stats,
        epoll,
        waker: Arc::new(Waker {
            eventfd,
            pending: Mutex::new(Vec::new()),
        }),
        obs,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        conn_index: 0,
    };
    el.run_loop();
}

impl EventLoop {
    fn run_loop(&mut self) {
        let mut events = vec![EpollEvent::default(); 256];
        let mut scratch = vec![0u8; 64 * 1024];
        loop {
            // The 500ms timeout is a belt-and-braces shutdown check; the
            // normal path is the Drop impl's connect() nudge making the
            // listener readable.
            let n = match self.epoll.wait(&mut events, 500) {
                Ok(n) => n,
                Err(_) => return,
            };
            if self.shutdown.load(Ordering::SeqCst) {
                // Cancel whatever is still running so runner queues drain
                // promptly; dropping the sessions reclaims their slots.
                for (_, conn) in self.conns.drain() {
                    if let ConnState::Open { session } = &conn.state {
                        session.cancel();
                    }
                }
                self.loop_connections.set(0);
                return;
            }
            if n > 0 {
                self.ready_batches.inc();
            }
            let mut to_pump: Vec<u64> = Vec::new();
            for ev in &events[..n] {
                let token = { ev.data };
                let ready = { ev.events };
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        let now_ns = self.obs.now_ns();
                        for (conn_token, signalled_ns) in self.waker.drain() {
                            if signalled_ns > 0 && now_ns >= signalled_ns {
                                self.wake_ns.record_ns(now_ns - signalled_ns);
                            }
                            to_pump.push(conn_token);
                        }
                    }
                    _ => {
                        if ready & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                            self.read_ready(token, &mut scratch);
                        }
                        to_pump.push(token);
                    }
                }
            }
            for token in to_pump {
                if self.conns.contains_key(&token) && self.pump(token) == Pumped::Dead {
                    self.drop_conn(token);
                }
            }
        }
    }

    /// Accepts until the listener would block, registering each new
    /// connection in the Handshake state.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Connections are armed with their fault schedule by accept
            // order, so deterministic chaos plans reproduce run to run.
            let fault_state = self
                .config
                .fault_plan
                .as_ref()
                .and_then(|plan| plan.arm(self.conn_index, &self.fault_stats));
            self.conn_index += 1;
            let stream = FaultStream::new(stream, fault_state);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .epoll
                .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                .is_err()
            {
                continue;
            }
            self.conns.insert(
                token,
                Conn {
                    stream,
                    state: ConnState::Handshake,
                    decoder: FrameAccumulator::new(self.config.max_frame_bytes),
                    outq: VecDeque::new(),
                    wbuf: Vec::new(),
                    wpos: 0,
                    credit: 0,
                    close_after_flush: false,
                    interest: EPOLLIN | EPOLLRDHUP,
                },
            );
            self.loop_connections.set(self.conns.len() as i64);
        }
    }

    /// Drains the socket into the frame accumulator and dispatches every
    /// complete frame. A disconnect or unrecoverable frame error is
    /// recorded on the connection; the subsequent pump acts on it.
    fn read_ready(&mut self, token: u64, scratch: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.close_after_flush {
            return;
        }
        let mut disconnected = false;
        let read_timer = self.obs.timer();
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    disconnected = true;
                    break;
                }
                Ok(n) => conn.decoder.feed(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    disconnected = true;
                    break;
                }
            }
        }
        read_timer.stop_ns(&self.phase_read_ns);
        // Frames already buffered are dispatched even when the read
        // ended in EOF — the client may have pipelined requests and
        // half-closed.
        let dispatch_timer = self.obs.timer();
        while let Some(next) = {
            let conn = self.conns.get_mut(&token).expect("conn present");
            if conn.close_after_flush {
                None
            } else {
                conn.decoder.next_request()
            }
        } {
            match next {
                Ok((request_id, request)) => {
                    self.dispatch(token, request_id, request);
                }
                Err((request_id, error)) => {
                    let conn = self.conns.get_mut(&token).expect("conn present");
                    if let Some((code, limit, message)) = frame_error_response(&error) {
                        // Payload decode failures parsed the header, so
                        // the error frame echoes the client's request id
                        // (0 only for header-level failures).
                        conn.queue_error(request_id.unwrap_or(0), code, limit, message);
                    }
                    // Framing is byte-positional: no resync after a bad
                    // frame, so flush the error and close.
                    conn.close_after_flush = true;
                }
            }
        }
        dispatch_timer.stop_ns(&self.phase_dispatch_ns);
        if disconnected {
            let conn = self.conns.get_mut(&token).expect("conn present");
            // The client is gone: nothing further can be read and any
            // response we still hold has no reader worth waiting for.
            // Cancel in-flight work and close once the pump runs.
            if let ConnState::Open { session } = &conn.state {
                session.cancel();
            }
            conn.close_after_flush = true;
        }
    }

    /// Handles one complete request frame: the Hello exchange in the
    /// Handshake state, the full dispatch table once Open.
    fn dispatch(&mut self, token: u64, request_id: u64, request: Request) {
        let conn = self.conns.get_mut(&token).expect("conn present");
        match &conn.state {
            ConnState::Handshake => {
                let Request::Hello {
                    database,
                    eval_budget,
                    stream_credit,
                } = request
                else {
                    conn.queue_error(
                        request_id,
                        ErrorCode::Protocol,
                        0,
                        "first frame must be Hello".to_string(),
                    );
                    conn.close_after_flush = true;
                    return;
                };
                let session = match self.service.session(&database) {
                    Ok(session) => session,
                    Err(error) => {
                        let (code, limit) = match &error {
                            ServerError::UnknownDatabase(_) => (ErrorCode::UnknownDatabase, 0),
                            ServerError::SessionLimit { limit } => {
                                (ErrorCode::SessionLimit, *limit)
                            }
                            ServerError::DuplicateDatabase(_) => (ErrorCode::Protocol, 0),
                        };
                        conn.queue_error(request_id, code, limit, error.to_string());
                        conn.close_after_flush = true;
                        return;
                    }
                };
                let session = match eval_budget {
                    Some(budget) => session.with_eval_budget(budget),
                    None => session,
                };
                conn.state = ConnState::Open {
                    session: Arc::new(session),
                };
                conn.credit = stream_credit.unwrap_or(DEFAULT_STREAM_CREDIT);
                conn.outq
                    .push_back(Pending::Ready(request_id, Response::HelloOk));
            }
            ConnState::Open { session } => {
                let session = Arc::clone(session);
                self.dispatch_open(token, &session, request_id, request);
            }
        }
    }

    /// The Open-state dispatch table: each request kind becomes one
    /// queue item (or, for credit grants, acts at once).
    fn dispatch_open(
        &mut self,
        token: u64,
        session: &Arc<Session>,
        request_id: u64,
        request: Request,
    ) {
        let pending = match request {
            Request::Hello { .. } => {
                let conn = self.conns.get_mut(&token).expect("conn present");
                conn.queue_error(
                    request_id,
                    ErrorCode::Protocol,
                    0,
                    "session already open".to_string(),
                );
                return;
            }
            Request::Coverage {
                clauses,
                examples,
                deadline_ms,
            } => {
                let job =
                    with_wire_deadline(CoverageJob::new(clauses, examples), deadline_ms, |j, d| {
                        j.with_deadline(d)
                    });
                let handle = session.submit_traced(Job::Coverage(job), request_id);
                self.arm_completion(&handle, token);
                Pending::Job(request_id, handle)
            }
            Request::Score {
                clauses,
                positive,
                negative,
                deadline_ms,
            } => {
                let job = with_wire_deadline(
                    ScoreJob::new(clauses, positive, negative),
                    deadline_ms,
                    |j, d| j.with_deadline(d),
                );
                let handle = session.submit_traced(Job::Score(job), request_id);
                self.arm_completion(&handle, token);
                Pending::Job(request_id, handle)
            }
            Request::Learn {
                task,
                algorithm,
                deadline_ms,
            } => {
                let job =
                    with_wire_deadline(LearnJob::new(task, algorithm), deadline_ms, |j, d| {
                        j.with_deadline(d)
                    });
                // Progress events cross from the runner thread through
                // this queue; every push also wakes the loop so frames
                // flush promptly. The runner clears the engine's sink
                // before completing the handle, so once `try_poll`
                // returns the queue is final.
                let events: Arc<Mutex<VecDeque<LearnProgress>>> =
                    Arc::new(Mutex::new(VecDeque::new()));
                let sink: ProgressSink = {
                    let events = Arc::clone(&events);
                    let waker = Arc::clone(&self.waker);
                    let obs = Arc::clone(&self.obs);
                    Arc::new(move |p: &LearnProgress| {
                        events
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push_back(p.clone());
                        waker.notify(token, obs.now_ns());
                    })
                };
                let handle = session.submit_traced_with_progress(
                    Job::Learn(Box::new(job)),
                    request_id,
                    Some(sink),
                );
                self.arm_completion(&handle, token);
                Pending::LearnStream {
                    id: request_id,
                    handle,
                    events,
                    seq: 0,
                }
            }
            Request::Mutate(batch) => {
                let handle = session.submit_traced(Job::Mutate(batch), request_id);
                self.arm_completion(&handle, token);
                Pending::Job(request_id, handle)
            }
            // Lazy responses are evaluated at the head of the queue,
            // after every earlier job completed — pipelined reports see
            // their deltas, matching in-process semantics.
            Request::Report => {
                let session = Arc::clone(session);
                Pending::Lazy(
                    request_id,
                    Box::new(move || Response::Report(session.report())),
                )
            }
            Request::ServerReport => {
                let session = Arc::clone(session);
                let service = Arc::clone(&self.service);
                Pending::Lazy(
                    request_id,
                    Box::new(move || {
                        let engine = service.report(session.database()).unwrap_or_default();
                        Response::ServerReport {
                            engine,
                            server: service.server_report(),
                        }
                    }),
                )
            }
            Request::Metrics => {
                let service = Arc::clone(&self.service);
                Pending::Lazy(
                    request_id,
                    Box::new(move || Response::Metrics(service.metrics_text())),
                )
            }
            Request::TraceDump => {
                let service = Arc::clone(&self.service);
                Pending::Lazy(
                    request_id,
                    Box::new(move || Response::TraceDump(service.trace_json())),
                )
            }
            // Credit grants act immediately — possibly resuming a stream
            // parked at the queue head — and have no response frame.
            Request::StreamCredit { grant } => {
                let conn = self.conns.get_mut(&token).expect("conn present");
                conn.credit = conn.credit.saturating_add(grant);
                return;
            }
        };
        let conn = self.conns.get_mut(&token).expect("conn present");
        conn.outq.push_back(pending);
    }

    /// Arms the completion hook that brings a finished job back to the
    /// loop. Firing is idempotent-cheap: a spurious wake pumps a
    /// connection that has nothing to do.
    fn arm_completion(&self, handle: &JobHandle, token: u64) {
        let waker = Arc::clone(&self.waker);
        let obs = Arc::clone(&self.obs);
        handle.on_complete(move || waker.notify(token, obs.now_ns()));
    }

    /// Encodes whatever the head of the queue allows, flushes the write
    /// buffer as far as the socket accepts, and updates epoll interest.
    fn pump(&mut self, token: u64) -> Pumped {
        let encode_timer = self.obs.timer();
        let encoded = self.encode_ready(token);
        encode_timer.stop_ns(&self.phase_encode_ns);
        if encoded == Pumped::Dead {
            return Pumped::Dead;
        }
        let conn = self.conns.get_mut(&token).expect("conn present");
        // Flush with partial-write resumption: `wpos` marks how far the
        // kernel got; a WouldBlock leaves it mid-frame and EPOLLOUT
        // interest resumes the flush on the next writability event.
        let flush_timer = self.obs.timer();
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return Pumped::Dead,
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Pumped::Dead,
            }
        }
        flush_timer.stop_ns(&self.phase_flush_ns);
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        } else if conn.wpos >= WBUF_TARGET {
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
        if conn.close_after_flush && conn.outq.is_empty() && conn.wbuf.is_empty() {
            return Pumped::Dead;
        }
        let mut want = EPOLLRDHUP;
        if !conn.close_after_flush {
            want |= EPOLLIN;
        }
        if !conn.wbuf.is_empty() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            if self
                .epoll
                .modify(conn.stream.as_raw_fd(), want, token)
                .is_err()
            {
                return Pumped::Dead;
            }
            conn.interest = want;
        }
        Pumped::Alive
    }

    /// Drains the response queue head-first into the write buffer, up to
    /// the buffering target. Stops (without reordering) at the first item
    /// that cannot make progress: an unfinished job, or a stream frame
    /// with no credit.
    fn encode_ready(&mut self, token: u64) -> Pumped {
        loop {
            let conn = self.conns.get_mut(&token).expect("conn present");
            if conn.unsent() >= WBUF_TARGET {
                return Pumped::Alive;
            }
            let Some(head) = conn.outq.front_mut() else {
                return Pumped::Alive;
            };
            match head {
                Pending::Ready(..) | Pending::Lazy(..) => {
                    let (id, response) = match conn.outq.pop_front().expect("head exists") {
                        Pending::Ready(id, response) => (id, response),
                        Pending::Lazy(id, produce) => (id, produce()),
                        _ => unreachable!("matched above"),
                    };
                    self.encode_response(token, id, id, &response);
                }
                Pending::Job(id, handle) => {
                    let Some(result) = handle.try_poll() else {
                        // Head not done: everything behind it waits (order
                        // on the wire is submission order). The completion
                        // hook wakes us.
                        return Pumped::Alive;
                    };
                    let id = *id;
                    let trace = handle.trace_id();
                    conn.outq.pop_front();
                    match result {
                        Ok(JobResult::Covered(sets)) => {
                            // Covered sets stream as flow-controlled
                            // chunks; an empty result still sends one
                            // (empty) final chunk so the request completes.
                            let chunks: VecDeque<_> = if sets.is_empty() {
                                VecDeque::from([Vec::new()])
                            } else {
                                sets.chunks(COVERED_CHUNK_SETS)
                                    .map(|chunk| chunk.to_vec())
                                    .collect()
                            };
                            let total = chunks.len() as u64;
                            let start_ns = self.obs.now_ns();
                            conn.outq.push_front(Pending::CoveredStream {
                                id,
                                trace,
                                chunks,
                                seq: 0,
                                total,
                                start_ns,
                            });
                        }
                        Ok(JobResult::Scores(counts)) => {
                            self.encode_response(token, id, trace, &Response::Scores(counts));
                        }
                        Ok(JobResult::Learned(definition)) => {
                            self.encode_response(token, id, trace, &Response::Learned(definition));
                        }
                        Ok(JobResult::Mutated(summary)) => {
                            self.encode_response(token, id, trace, &Response::Mutated(summary));
                        }
                        Err(error) => {
                            self.encode_response(
                                token,
                                id,
                                trace,
                                &Response::from_job_error(error),
                            );
                        }
                    }
                }
                Pending::CoveredStream {
                    id,
                    trace,
                    chunks,
                    seq,
                    total,
                    start_ns,
                } => {
                    if chunks.is_empty() {
                        let (trace, start_ns) = (*trace, *start_ns);
                        conn.outq.pop_front();
                        let dur_ns = self.obs.record_since(&self.reply_ns, start_ns);
                        if dur_ns > 0 {
                            self.obs.span_measured(
                                "rpc.server.reply",
                                trace,
                                start_ns,
                                dur_ns,
                                Vec::new(),
                            );
                        }
                        continue;
                    }
                    if conn.credit == 0 {
                        if conn.close_after_flush {
                            // The read path is done, so no grant can ever
                            // arrive: the stream is permanently wedged.
                            // Tear down.
                            return Pumped::Dead;
                        }
                        // Parked mid-stream: a StreamCredit grant on the
                        // read path resumes this head.
                        return Pumped::Alive;
                    }
                    conn.credit -= 1;
                    let chunk = chunks.pop_front().expect("non-empty");
                    let frame = Response::Stream {
                        seq: *seq,
                        last: *seq + 1 == *total,
                        body: StreamBody::CoveredChunk(chunk),
                    };
                    *seq += 1;
                    write_response(&mut conn.wbuf, *id, &frame).expect("vec writes cannot fail");
                }
                Pending::LearnStream {
                    id,
                    handle,
                    events,
                    seq,
                } => {
                    let next = events.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                    if let Some(progress) = next {
                        if conn.credit == 0 {
                            if conn.close_after_flush {
                                // No grant can ever arrive (see the
                                // covered-stream park above).
                                return Pumped::Dead;
                            }
                            // Put it back: parked until a grant arrives.
                            events
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push_front(progress);
                            return Pumped::Alive;
                        }
                        conn.credit -= 1;
                        let frame = Response::Stream {
                            seq: *seq,
                            last: false,
                            body: StreamBody::Progress(progress),
                        };
                        *seq += 1;
                        write_response(&mut conn.wbuf, *id, &frame)
                            .expect("vec writes cannot fail");
                        continue;
                    }
                    let Some(result) = handle.try_poll() else {
                        return Pumped::Alive;
                    };
                    // The runner drops the sink before completing the
                    // handle, so the queue is final; one more drain pass
                    // above has already emptied it. Terminal frame now.
                    let id = *id;
                    let trace = handle.trace_id();
                    let response = match result {
                        Ok(JobResult::Learned(definition)) => Response::Learned(definition),
                        Ok(_) => Response::Error {
                            code: ErrorCode::Panicked,
                            limit: 0,
                            message: "learn job returned a non-learn result".to_string(),
                            retry_after_ms: 0,
                        },
                        Err(error) => Response::from_job_error(error),
                    };
                    conn.outq.pop_front();
                    self.encode_response(token, id, trace, &response);
                }
            }
        }
    }

    /// Encodes one ordinary (non-stream) response into the write buffer,
    /// timing it into `castor_rpc_reply_encode_ns` and recording the
    /// `rpc.server.reply` span under the request's trace id.
    fn encode_response(&mut self, token: u64, request_id: u64, trace: u64, response: &Response) {
        let conn = self.conns.get_mut(&token).expect("conn present");
        let start_ns = self.obs.now_ns();
        let timer = self.obs.timer();
        write_response(&mut conn.wbuf, request_id, response).expect("vec writes cannot fail");
        if timer.is_live() {
            let dur_ns = timer.stop_ns(&self.reply_ns);
            self.obs
                .span_measured("rpc.server.reply", trace, start_ns, dur_ns, Vec::new());
        }
    }

    /// Deregisters and drops one connection: the session (if open) is
    /// cancelled, its admission slot released on drop.
    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            if let ConnState::Open { session } = &conn.state {
                session.cancel();
            }
            self.loop_connections.set(self.conns.len() as i64);
        }
    }
}

/// The typed error frame (if any) to send for a framing failure.
/// Socket-level failures get no frame — there is no one to read it.
fn frame_error_response(error: &FrameError) -> Option<(ErrorCode, usize, String)> {
    match error {
        FrameError::Io(_) | FrameError::Closed => None,
        FrameError::TooLarge { declared: _, limit } => {
            Some((ErrorCode::FrameTooLarge, *limit, error.to_string()))
        }
        FrameError::Malformed(_) => Some((ErrorCode::Malformed, 0, error.to_string())),
        FrameError::Version { .. } => Some((ErrorCode::UnsupportedVersion, 0, error.to_string())),
    }
}

/// Applies a wire deadline to a job through its builder, when one rode
/// along on the frame. A wire deadline is relative (milliseconds of
/// patience the client has left) and re-anchored to this server's clock
/// on arrival — the two hosts' clocks never need to agree.
fn with_wire_deadline<J>(
    job: J,
    deadline_ms: Option<u64>,
    attach: impl FnOnce(J, Deadline) -> J,
) -> J {
    match deadline_ms {
        Some(ms) => attach(job, Deadline::within(Duration::from_millis(ms))),
        None => job,
    }
}

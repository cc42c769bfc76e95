//! Length-prefixed frames: the unit of exchange on a castor-rpc
//! connection.
//!
//! ```text
//! offset  size  field
//! 0       4     frame length N (u32 LE) — bytes after this prefix
//! 4       1     protocol version (PROTOCOL_VERSION = 5)
//! 5       1     frame kind (request or response discriminant)
//! 6       8     request id (u64 LE) — echoed verbatim in the response
//! 14      N-10  payload (kind-specific binary, see `codec`)
//! ```
//!
//! The length prefix is read first and validated against the configured
//! maximum *before* any allocation, so an oversized or forged frame is
//! rejected with a typed error instead of a giant buffer. The version
//! byte is checked once the whole frame has been consumed; any value
//! other than [`PROTOCOL_VERSION`] produces
//! [`ErrorCode::UnsupportedVersion`] and the connection closes. Request
//! ids are chosen by the client and echoed by the server, which lets a
//! client multiplex any number of in-flight requests on one connection.

use crate::codec::{ByteReader, ByteWriter, CodecError, Wire};
use castor_engine::{EngineReport, LearnProgress};
use castor_learners::LearningTask;
use castor_logic::{Clause, Definition};
use castor_relational::{MutationBatch, MutationSummary, Tuple};
use castor_service::{LearnAlgorithm, ServerReport};
use std::collections::HashSet;
use std::fmt;
use std::io::{Read, Write};

/// The protocol version stamped into, and required of, every frame's
/// header. Version 2 added streaming responses ([`Response::Stream`])
/// under client-granted flow-control credit ([`Request::StreamCredit`],
/// plus an initial-credit field trailing `Hello`). Version 3 dropped two
/// counters from the `EngineReport` payload; a version-2 peer would decode
/// its counters shifted, so it is refused like any other version. Version
/// 4 dropped one more `EngineReport` counter and the unused `Covered`
/// response frame (tag `0x82`): covered sets only ever travel as
/// [`StreamBody::CoveredChunk`] frames. Version 5 dropped the trailing
/// deadline field of `Coverage`, `Score` and `Learn` requests, the
/// trailing retry-after hint of `Error` responses and error code 11
/// (deadline exceeded).
pub const PROTOCOL_VERSION: u8 = 5;

/// Stream frames a server may write before it needs a fresh
/// [`Request::StreamCredit`] grant, when the client's `Hello` carries no
/// explicit initial credit.
pub const DEFAULT_STREAM_CREDIT: u64 = 1024;

/// Covered sets per [`StreamBody::CoveredChunk`] frame when the server
/// streams a coverage result.
pub const COVERED_CHUNK_SETS: usize = 8;

/// Frame header bytes after the length prefix (version + kind + request
/// id).
pub const HEADER_BYTES: usize = 10;

/// Default cap on one frame's length field (32 MiB).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 32 * 1024 * 1024;

/// Why a frame could not be produced or consumed.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (includes clean EOF between frames).
    Io(std::io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The frame declared a length over the configured cap; nothing was
    /// allocated.
    TooLarge {
        /// The declared frame length.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The frame was structurally invalid (short header, bad payload).
    Malformed(CodecError),
    /// The peer speaks a different protocol version.
    Version {
        /// The version byte the peer sent.
        got: u8,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge { declared, limit } => {
                write!(f, "frame of {declared} bytes exceeds the {limit}-byte cap")
            }
            FrameError::Malformed(e) => write!(f, "{e}"),
            FrameError::Version { got } => {
                write!(
                    f,
                    "peer speaks protocol version {got}, this build speaks {PROTOCOL_VERSION}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Malformed(e)
    }
}

/// Typed error codes carried by [`Response::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The version byte did not match the server's protocol.
    UnsupportedVersion = 1,
    /// The frame or payload could not be decoded.
    Malformed = 2,
    /// The frame length exceeded the server's cap.
    FrameTooLarge = 3,
    /// `Hello` named a database the server does not serve.
    UnknownDatabase = 4,
    /// The server-wide session cap rejected the connection (admission
    /// control; `limit` carries the cap).
    SessionLimit = 5,
    /// The database's in-flight job cap rejected the submission
    /// (admission control; `limit` carries the cap).
    Rejected = 6,
    /// The job was cancelled (session cancel token or disconnect).
    Cancelled = 7,
    /// A mutation op failed; the message renders the relational error.
    Mutation = 8,
    /// The job panicked on the runner thread.
    Panicked = 9,
    /// A request arrived before `Hello`, or a second `Hello`.
    Protocol = 10,
    // Code 11 (deadline exceeded) is retired since version 5 and does not
    // decode.
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<ErrorCode, CodecError> {
        Ok(match v {
            1 => ErrorCode::UnsupportedVersion,
            2 => ErrorCode::Malformed,
            3 => ErrorCode::FrameTooLarge,
            4 => ErrorCode::UnknownDatabase,
            5 => ErrorCode::SessionLimit,
            6 => ErrorCode::Rejected,
            7 => ErrorCode::Cancelled,
            8 => ErrorCode::Mutation,
            9 => ErrorCode::Panicked,
            10 => ErrorCode::Protocol,
            other => return Err(CodecError::new(format!("invalid error code {other}"))),
        })
    }
}

/// A client→server frame body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the connection's session: the database to bind to plus an
    /// optional per-test node-budget override. Must be the first frame.
    Hello {
        /// The registered database name.
        database: String,
        /// Per-session node-budget override, if any.
        eval_budget: Option<usize>,
        /// Initial stream-frame credit: how many [`Response::Stream`]
        /// frames the server may write before waiting for a
        /// [`Request::StreamCredit`] grant. Encoded as a trailing field
        /// only when present; absent means [`DEFAULT_STREAM_CREDIT`].
        stream_credit: Option<u64>,
    },
    /// [`castor_service::CoverageJob`] over the wire.
    Coverage {
        /// Candidate clauses.
        clauses: Vec<Clause>,
        /// Examples to test.
        examples: Vec<Tuple>,
    },
    /// [`castor_service::ScoreJob`] over the wire.
    Score {
        /// Candidate clauses.
        clauses: Vec<Clause>,
        /// Positive examples.
        positive: Vec<Tuple>,
        /// Negative examples.
        negative: Vec<Tuple>,
    },
    /// [`castor_service::LearnJob`] over the wire.
    Learn {
        /// The learning task.
        task: LearningTask,
        /// The learner to run.
        algorithm: LearnAlgorithm,
    },
    /// A mutation batch against the session's database.
    Mutate(MutationBatch),
    /// The session's isolated engine-counter deltas.
    Report,
    /// The database's engine totals plus the serving-layer counters.
    ServerReport,
    /// The server's full metric exposition (Prometheus text format):
    /// admission/queue counters, per-database engine counters, and the
    /// queue-wait/run-time/engine-latency histograms.
    Metrics,
    /// The server's recent spans as Chrome-trace JSON (load
    /// `chrome://tracing` or Perfetto on the payload).
    TraceDump,
    /// Grants the server `grant` additional stream frames (flow control,
    /// connection-scoped). Has no response frame. A server whose credit
    /// is spent parks *this connection's* stream until the next grant
    /// arrives — other connections are unaffected.
    StreamCredit {
        /// Additional stream frames the server may write.
        grant: u64,
    },
}

impl Request {
    fn kind(&self) -> u8 {
        match self {
            Request::Hello { .. } => 0x01,
            Request::Coverage { .. } => 0x02,
            Request::Score { .. } => 0x03,
            Request::Learn { .. } => 0x04,
            Request::Mutate(_) => 0x05,
            Request::Report => 0x06,
            Request::ServerReport => 0x07,
            Request::Metrics => 0x08,
            Request::TraceDump => 0x09,
            Request::StreamCredit { .. } => 0x0a,
        }
    }

    fn encode_payload(&self, w: &mut ByteWriter) {
        match self {
            Request::Hello {
                database,
                eval_budget,
                stream_credit,
            } => {
                w.put_str(database);
                eval_budget.encode(w);
                put_trailing_uvarint(w, *stream_credit);
            }
            Request::Coverage { clauses, examples } => {
                clauses.encode(w);
                examples.encode(w);
            }
            Request::Score {
                clauses,
                positive,
                negative,
            } => {
                clauses.encode(w);
                positive.encode(w);
                negative.encode(w);
            }
            Request::Learn { task, algorithm } => {
                task.encode(w);
                algorithm.encode(w);
            }
            Request::Mutate(batch) => batch.encode(w),
            Request::StreamCredit { grant } => w.put_uvarint(*grant),
            Request::Report | Request::ServerReport | Request::Metrics | Request::TraceDump => {}
        }
    }

    fn decode_payload(kind: u8, r: &mut ByteReader<'_>) -> Result<Request, CodecError> {
        Ok(match kind {
            0x01 => Request::Hello {
                database: r.get_str()?,
                eval_budget: Option::<usize>::decode(r)?,
                stream_credit: take_trailing_uvarint(r)?,
            },
            0x02 => Request::Coverage {
                clauses: Vec::<Clause>::decode(r)?,
                examples: Vec::<Tuple>::decode(r)?,
            },
            0x03 => Request::Score {
                clauses: Vec::<Clause>::decode(r)?,
                positive: Vec::<Tuple>::decode(r)?,
                negative: Vec::<Tuple>::decode(r)?,
            },
            0x04 => Request::Learn {
                task: LearningTask::decode(r)?,
                algorithm: LearnAlgorithm::decode(r)?,
            },
            0x05 => Request::Mutate(MutationBatch::decode(r)?),
            0x06 => Request::Report,
            0x07 => Request::ServerReport,
            0x08 => Request::Metrics,
            0x09 => Request::TraceDump,
            0x0a => Request::StreamCredit {
                grant: r.get_uvarint()?,
            },
            other => return Err(CodecError::new(format!("invalid request kind {other}"))),
        })
    }
}

/// Encodes an optional u64 as a trailing payload field: an absent value
/// adds no bytes, so frames without it are byte-identical to the previous
/// wire format (version-tolerant extension — `Hello`'s initial stream
/// credit rides on this).
fn put_trailing_uvarint(w: &mut ByteWriter, value: Option<u64>) {
    if let Some(v) = value {
        w.put_uvarint(v);
    }
}

/// Decodes a trailing u64 field if the payload carries one.
fn take_trailing_uvarint(r: &mut ByteReader<'_>) -> Result<Option<u64>, CodecError> {
    if r.is_exhausted() {
        Ok(None)
    } else {
        Ok(Some(r.get_uvarint()?))
    }
}

/// One chunk of an in-progress response (the body of
/// [`Response::Stream`]).
#[derive(Debug, Clone, PartialEq)]
pub enum StreamBody {
    /// One accepted covering-round clause of a running `Learn` job, with
    /// its coverage counts — incremental progress ahead of the final
    /// [`Response::Learned`] frame.
    Progress(LearnProgress),
    /// A slice of a coverage result's per-clause covered sets, in
    /// submitted clause order. The client concatenates chunks; the chunk
    /// marked `last` completes the response. This is the only way covered
    /// sets travel.
    CoveredChunk(Vec<HashSet<Tuple>>),
}

impl StreamBody {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            StreamBody::Progress(p) => {
                w.put_u8(0);
                w.put_usize(p.round);
                p.clause.encode(w);
                w.put_usize(p.covered_positive);
                w.put_usize(p.covered_negative);
                w.put_usize(p.uncovered_remaining);
            }
            StreamBody::CoveredChunk(sets) => {
                w.put_u8(1);
                sets.encode(w);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<StreamBody, CodecError> {
        Ok(match r.get_u8()? {
            0 => StreamBody::Progress(LearnProgress {
                round: r.get_usize()?,
                clause: Clause::decode(r)?,
                covered_positive: r.get_usize()?,
                covered_negative: r.get_usize()?,
                uncovered_remaining: r.get_usize()?,
            }),
            1 => StreamBody::CoveredChunk(Vec::<HashSet<Tuple>>::decode(r)?),
            other => return Err(CodecError::new(format!("invalid stream body tag {other}"))),
        })
    }
}

/// A server→client frame body.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The session is open; requests may flow.
    HelloOk,
    /// Per-clause positive/negative counts.
    Scores(Vec<castor_engine::ClauseCounts>),
    /// The learned definition.
    Learned(Definition),
    /// What the mutation batch changed.
    Mutated(MutationSummary),
    /// The session's isolated counter deltas.
    Report(EngineReport),
    /// Engine totals of the bound database plus serving-layer counters.
    ServerReport {
        /// The database's combined engine counters.
        engine: EngineReport,
        /// The serving layer's admission/queue counters.
        server: ServerReport,
    },
    /// The metric exposition in Prometheus text format.
    Metrics(String),
    /// The span ring rendered as Chrome-trace JSON.
    TraceDump(String),
    /// One streamed chunk of an in-progress response. Stream
    /// frames echo the originating request id, carry a per-request
    /// sequence number, and count against the connection's flow-control
    /// credit. A [`StreamBody::CoveredChunk`] with `last` set completes
    /// its request; [`StreamBody::Progress`] frames always have `last`
    /// clear — the job's terminal [`Response::Learned`] or
    /// [`Response::Error`] frame (credit-exempt) ends the stream.
    Stream {
        /// Position of this chunk in its request's stream, from 0.
        seq: u64,
        /// Whether this chunk completes the response.
        last: bool,
        /// The chunk itself.
        body: StreamBody,
    },
    /// A typed failure for the request id this frame echoes.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// The relevant admission limit, when the code carries one.
        limit: usize,
        /// Human-readable context.
        message: String,
    },
}

impl Response {
    fn kind(&self) -> u8 {
        match self {
            Response::HelloOk => 0x81,
            Response::Scores(_) => 0x83,
            Response::Learned(_) => 0x84,
            Response::Mutated(_) => 0x85,
            Response::Report(_) => 0x86,
            Response::ServerReport { .. } => 0x87,
            Response::Metrics(_) => 0x88,
            Response::TraceDump(_) => 0x89,
            Response::Stream { .. } => 0x8a,
            Response::Error { .. } => 0xff,
        }
    }

    fn encode_payload(&self, w: &mut ByteWriter) {
        match self {
            Response::HelloOk => {}
            Response::Scores(counts) => counts.encode(w),
            Response::Learned(definition) => definition.encode(w),
            Response::Mutated(summary) => summary.encode(w),
            Response::Report(report) => report.encode(w),
            Response::ServerReport { engine, server } => {
                engine.encode(w);
                server.encode(w);
            }
            Response::Metrics(text) | Response::TraceDump(text) => w.put_str(text),
            Response::Stream { seq, last, body } => {
                w.put_uvarint(*seq);
                w.put_bool(*last);
                body.encode(w);
            }
            Response::Error {
                code,
                limit,
                message,
            } => {
                w.put_u8(*code as u8);
                w.put_usize(*limit);
                w.put_str(message);
            }
        }
    }

    fn decode_payload(kind: u8, r: &mut ByteReader<'_>) -> Result<Response, CodecError> {
        Ok(match kind {
            0x81 => Response::HelloOk,
            0x83 => Response::Scores(Vec::<castor_engine::ClauseCounts>::decode(r)?),
            0x84 => Response::Learned(Definition::decode(r)?),
            0x85 => Response::Mutated(MutationSummary::decode(r)?),
            0x86 => Response::Report(EngineReport::decode(r)?),
            0x87 => Response::ServerReport {
                engine: EngineReport::decode(r)?,
                server: ServerReport::decode(r)?,
            },
            0x88 => Response::Metrics(r.get_str()?),
            0x89 => Response::TraceDump(r.get_str()?),
            0x8a => Response::Stream {
                seq: r.get_uvarint()?,
                last: r.get_bool()?,
                body: StreamBody::decode(r)?,
            },
            0xff => Response::Error {
                code: ErrorCode::from_u8(r.get_u8()?)?,
                limit: r.get_usize()?,
                message: r.get_str()?,
            },
            other => return Err(CodecError::new(format!("invalid response kind {other}"))),
        })
    }

    /// The error response for a failed job.
    pub(crate) fn from_job_error(error: castor_service::JobError) -> Response {
        use castor_service::JobError;
        let message = error.to_string();
        match error {
            JobError::Cancelled => Response::Error {
                code: ErrorCode::Cancelled,
                limit: 0,
                message,
            },
            JobError::Rejected { limit } => Response::Error {
                code: ErrorCode::Rejected,
                limit,
                message,
            },
            JobError::Mutation(inner) => Response::Error {
                code: ErrorCode::Mutation,
                limit: 0,
                message: inner.to_string(),
            },
            JobError::Panicked(msg) => Response::Error {
                code: ErrorCode::Panicked,
                limit: 0,
                message: msg,
            },
        }
    }
}

/// Writes one frame (header + payload) to `writer`.
fn write_frame(
    writer: &mut impl Write,
    kind: u8,
    request_id: u64,
    payload: &[u8],
) -> Result<(), FrameError> {
    let len = HEADER_BYTES + payload.len();
    let len32 = u32::try_from(len).map_err(|_| CodecError::new("frame length exceeds u32::MAX"))?;
    let mut header = [0u8; 4 + HEADER_BYTES];
    header[..4].copy_from_slice(&len32.to_le_bytes());
    header[4] = PROTOCOL_VERSION;
    header[5] = kind;
    header[6..14].copy_from_slice(&request_id.to_le_bytes());
    writer.write_all(&header)?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Writes one request frame.
pub fn write_request(
    writer: &mut impl Write,
    request_id: u64,
    request: &Request,
) -> Result<(), FrameError> {
    let mut w = ByteWriter::new();
    request.encode_payload(&mut w);
    write_frame(writer, request.kind(), request_id, &w.into_bytes())
}

/// Writes one response frame.
pub fn write_response(
    writer: &mut impl Write,
    request_id: u64,
    response: &Response,
) -> Result<(), FrameError> {
    let mut w = ByteWriter::new();
    response.encode_payload(&mut w);
    write_frame(writer, response.kind(), request_id, &w.into_bytes())
}

/// Reads one response frame (client side), enforcing `max_frame_bytes`
/// *before* allocating the payload (which is read straight into its own
/// buffer — no second copy). A clean EOF at a frame boundary is
/// [`FrameError::Closed`]; a version byte other than
/// [`PROTOCOL_VERSION`] is [`FrameError::Version`].
pub fn read_response(
    reader: &mut impl Read,
    max_frame_bytes: usize,
) -> Result<(u64, Response), FrameError> {
    let mut prefix = [0u8; 4];
    match reader.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Err(FrameError::Closed);
        }
        Err(e) => return Err(FrameError::Io(e)),
    }
    let declared = check_declared_length(prefix, max_frame_bytes)?;
    let mut header = [0u8; HEADER_BYTES];
    reader.read_exact(&mut header)?;
    let mut payload = vec![0u8; declared - HEADER_BYTES];
    reader.read_exact(&mut payload)?;
    if header[0] != PROTOCOL_VERSION {
        return Err(FrameError::Version { got: header[0] });
    }
    let request_id = u64::from_le_bytes(header[2..10].try_into().expect("8 header bytes"));
    let mut r = ByteReader::new(&payload);
    let response = Response::decode_payload(header[1], &mut r)?;
    r.finish()?;
    Ok((request_id, response))
}

/// Validates a frame's length prefix: at least a header, at most the cap.
/// Runs before anything is allocated for the frame.
fn check_declared_length(prefix: [u8; 4], max_frame_bytes: usize) -> Result<usize, FrameError> {
    let declared = u32::from_le_bytes(prefix) as usize;
    if declared < HEADER_BYTES {
        return Err(FrameError::Malformed(CodecError::new(format!(
            "frame length {declared} is shorter than the {HEADER_BYTES}-byte header"
        ))));
    }
    if declared > max_frame_bytes {
        return Err(FrameError::TooLarge {
            declared,
            limit: max_frame_bytes,
        });
    }
    Ok(declared)
}

/// One frame drained from a [`FrameAccumulator`]: the request id and
/// request, or the error together with the request id when the frame
/// header was intact.
pub type DecodedRequest = Result<(u64, Request), (Option<u64>, FrameError)>;

/// Incremental request-frame decoding, the server's only request
/// decoder: the event loop feeds whatever bytes a readiness-driven read
/// produced and drains complete frames, never blocking mid-frame.
///
/// * the length prefix is validated against the cap **before** the
///   payload is buffered (an oversized frame errors after 4 bytes, no
///   allocation);
/// * the version byte is checked only once the full declared frame has
///   been consumed from the buffer, so the typed error + close path
///   leaves no unread bytes behind (FIN, not RST);
/// * framing is byte-positional, so any error poisons the accumulator —
///   there is no resynchronization, the connection must close.
#[derive(Debug)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily to keep drains O(1)
    /// amortized instead of shifting the buffer per frame).
    pos: usize,
    max_frame_bytes: usize,
    poisoned: bool,
}

impl FrameAccumulator {
    /// An empty accumulator enforcing the given frame cap.
    pub fn new(max_frame_bytes: usize) -> FrameAccumulator {
        FrameAccumulator {
            buf: Vec::new(),
            pos: 0,
            max_frame_bytes,
            poisoned: false,
        }
    }

    /// Appends freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.poisoned {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether a framing error ended this connection's input.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn available(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    fn poison(&mut self, error: (Option<u64>, FrameError)) -> Option<DecodedRequest> {
        self.poisoned = true;
        self.buf.clear();
        self.pos = 0;
        Some(Err(error))
    }

    /// Drains the next complete request frame, if one is buffered.
    /// `None` means "need more bytes" (or the accumulator is poisoned);
    /// errors carry the already-parsed request id when the frame header
    /// was intact (payload decode failures), `None` for header-level
    /// failures, so the server's typed error frame can echo the id of the
    /// request that caused it.
    pub fn next_request(&mut self) -> Option<DecodedRequest> {
        if self.poisoned {
            return None;
        }
        let avail = self.available();
        if avail.len() < 4 {
            return None;
        }
        let prefix = avail[..4].try_into().expect("4 prefix bytes");
        let declared = match check_declared_length(prefix, self.max_frame_bytes) {
            Ok(declared) => declared,
            Err(error) => return self.poison((None, error)),
        };
        if avail.len() < 4 + declared {
            return None;
        }
        let frame = &avail[4..4 + declared];
        let version = frame[0];
        let kind = frame[1];
        let request_id = u64::from_le_bytes(frame[2..10].try_into().expect("8 header bytes"));
        let payload = frame[HEADER_BYTES..].to_vec();
        // The whole frame is consumed before the version check (see the
        // type docs: error + close must not leave unread bytes behind).
        self.consume(4 + declared);
        if version != PROTOCOL_VERSION {
            return self.poison((None, FrameError::Version { got: version }));
        }
        let mut r = ByteReader::new(&payload);
        let decoded = Request::decode_payload(kind, &mut r).and_then(|request| {
            r.finish()?;
            Ok(request)
        });
        match decoded {
            Ok(request) => Some(Ok((request_id, request))),
            Err(e) => self.poison((Some(request_id), e.into())),
        }
    }
}

/// Encodes a request to raw frame bytes (test helper and bench fodder).
pub fn request_to_bytes(request_id: u64, request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    write_request(&mut out, request_id, request).expect("vec writes cannot fail");
    out
}

/// `Wire` helpers are re-exported for payload-level tooling.
pub use crate::codec::{from_bytes as payload_from_bytes, to_bytes as payload_to_bytes};

#[cfg(test)]
mod tests {
    use super::*;
    use castor_logic::Atom;

    /// Feeds `bytes` to a fresh accumulator and drains one frame.
    fn decode_request(bytes: &[u8], max_frame_bytes: usize) -> Option<DecodedRequest> {
        let mut acc = FrameAccumulator::new(max_frame_bytes);
        acc.feed(bytes);
        acc.next_request()
    }

    fn roundtrip_request(request: Request) {
        let bytes = request_to_bytes(7, &request);
        let (id, decoded) = decode_request(&bytes, DEFAULT_MAX_FRAME_BYTES)
            .expect("a whole frame")
            .unwrap();
        assert_eq!(id, 7);
        assert_eq!(decoded, request);
    }

    fn roundtrip_response(response: Response) {
        let mut bytes = Vec::new();
        write_response(&mut bytes, 99, &response).unwrap();
        let (id, decoded) = read_response(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(id, 99);
        assert_eq!(decoded, response);
    }

    #[test]
    fn requests_roundtrip_through_frames() {
        roundtrip_request(Request::Hello {
            database: "demo".into(),
            eval_budget: Some(1234),
            stream_credit: None,
        });
        roundtrip_request(Request::Hello {
            database: "demo".into(),
            eval_budget: None,
            stream_credit: Some(64),
        });
        roundtrip_request(Request::StreamCredit { grant: 512 });
        roundtrip_request(Request::Coverage {
            clauses: vec![Clause::fact(Atom::vars("t", &["x"]))],
            examples: vec![Tuple::from_strs(&["a"])],
        });
        roundtrip_request(Request::Report);
        roundtrip_request(Request::Mutate(
            MutationBatch::new().insert("r", Tuple::from_strs(&["a"])),
        ));
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::TraceDump);
    }

    #[test]
    fn responses_roundtrip_through_frames() {
        roundtrip_response(Response::HelloOk);
        roundtrip_response(Response::Error {
            code: ErrorCode::Rejected,
            limit: 4,
            message: "queue full".into(),
        });
        roundtrip_response(Response::ServerReport {
            engine: EngineReport::default(),
            server: ServerReport::default(),
        });
        roundtrip_response(Response::Metrics(
            "# HELP castor_jobs_submitted_total jobs\ncastor_jobs_submitted_total 3\n".into(),
        ));
        roundtrip_response(Response::TraceDump("{\"traceEvents\":[]}".into()));
        roundtrip_response(Response::Stream {
            seq: 3,
            last: false,
            body: StreamBody::Progress(LearnProgress {
                round: 1,
                clause: Clause::fact(Atom::vars("t", &["x"])),
                covered_positive: 5,
                covered_negative: 1,
                uncovered_remaining: 7,
            }),
        });
        roundtrip_response(Response::Stream {
            seq: 0,
            last: true,
            body: StreamBody::CoveredChunk(vec![[Tuple::from_strs(&["a"])].into_iter().collect()]),
        });
    }

    #[test]
    fn hello_credit_field_is_a_trailing_extension() {
        // A credit-free Hello is a credit-carrying Hello minus its
        // trailing bytes: the field is appended, never reshuffled in.
        let bare = Request::Hello {
            database: "demo".into(),
            eval_budget: None,
            stream_credit: None,
        };
        let with_credit = Request::Hello {
            database: "demo".into(),
            eval_budget: None,
            stream_credit: Some(16),
        };
        let bare_bytes = request_to_bytes(1, &bare);
        let credit_bytes = request_to_bytes(1, &with_credit);
        assert!(credit_bytes.len() > bare_bytes.len());
        assert_eq!(&credit_bytes[4..bare_bytes.len()], &bare_bytes[4..]);
        // Every frame carries the one protocol version at offset 4.
        assert_eq!(bare_bytes[4], PROTOCOL_VERSION);
        assert_eq!(credit_bytes[4], PROTOCOL_VERSION);
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        // A forged length prefix of 1 GiB with no body behind it: the
        // accumulator rejects it from the four prefix bytes alone.
        let forged = (1u32 << 30).to_le_bytes();
        match decode_request(&forged, 1024) {
            Some(Err((None, FrameError::TooLarge { declared, limit }))) => {
                assert_eq!(declared, 1 << 30);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // The client's response reader applies the same cap.
        assert!(matches!(
            read_response(&mut forged.as_slice(), 1024),
            Err(FrameError::TooLarge { declared, limit: 1024 }) if declared == 1 << 30
        ));
    }

    #[test]
    fn truncated_and_malformed_frames_fail_cleanly() {
        let bytes = request_to_bytes(1, &Request::Report);
        // A truncated frame is never a verdict, a hang or a panic: the
        // accumulator waits for the rest, holding exactly what it got.
        for cut in 1..bytes.len() {
            let mut acc = FrameAccumulator::new(1 << 20);
            acc.feed(&bytes[..cut]);
            assert!(acc.next_request().is_none(), "cut at {cut}");
            assert_eq!(acc.buffered(), cut);
            assert!(!acc.is_poisoned());
        }
        // A frame length shorter than the header is malformed.
        let mut short = Vec::new();
        short.extend_from_slice(&3u32.to_le_bytes());
        short.extend_from_slice(&[PROTOCOL_VERSION, 0x06, 0]);
        assert!(matches!(
            decode_request(&short, 1 << 20),
            Some(Err((None, FrameError::Malformed(_))))
        ));
        // A bogus version byte is a version error.
        let mut wrong = request_to_bytes(1, &Request::Report);
        wrong[4] = 42;
        assert!(matches!(
            decode_request(&wrong, 1 << 20),
            Some(Err((None, FrameError::Version { got: 42 })))
        ));
        // Empty input is no frame yet, not an error.
        assert!(decode_request(&[], 1 << 20).is_none());
    }

    #[test]
    fn accumulator_yields_frames_fed_byte_by_byte() {
        let mut bytes = request_to_bytes(1, &Request::Report);
        bytes.extend_from_slice(&request_to_bytes(2, &Request::StreamCredit { grant: 16 }));
        let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME_BYTES);
        let mut seen = Vec::new();
        for &b in &bytes {
            acc.feed(&[b]);
            while let Some(next) = acc.next_request() {
                seen.push(next.expect("clean frames decode"));
            }
        }
        assert_eq!(
            seen,
            vec![
                (1, Request::Report),
                (2, Request::StreamCredit { grant: 16 }),
            ]
        );
        assert_eq!(acc.buffered(), 0);
    }

    #[test]
    fn accumulator_rejects_oversized_prefix_before_buffering_payload() {
        let mut acc = FrameAccumulator::new(256);
        acc.feed(&(1u32 << 28).to_le_bytes());
        match acc.next_request() {
            Some(Err((None, FrameError::TooLarge { declared, limit }))) => {
                assert_eq!(declared, 1 << 28);
                assert_eq!(limit, 256);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Poisoned: no resync, even if more bytes arrive.
        acc.feed(&request_to_bytes(1, &Request::Report));
        assert!(acc.is_poisoned());
        assert!(acc.next_request().is_none());
    }

    #[test]
    fn accumulator_checks_version_only_after_consuming_the_full_frame() {
        let mut wrong = request_to_bytes(1, &Request::Report);
        wrong[4] = 42;
        let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME_BYTES);
        // Everything but the final byte: no verdict yet — the error path
        // must consume the whole frame first (FIN, not RST).
        acc.feed(&wrong[..wrong.len() - 1]);
        assert!(acc.next_request().is_none());
        acc.feed(&wrong[wrong.len() - 1..]);
        assert!(matches!(
            acc.next_request(),
            Some(Err((None, FrameError::Version { got: 42 })))
        ));
        assert_eq!(acc.buffered(), 0, "bad frame fully consumed");
    }

    #[test]
    fn retired_covered_response_tag_is_malformed() {
        // `0x82` carried whole covered-set lists before version 4; covered
        // sets now only stream as chunks.
        let body = [PROTOCOL_VERSION, 0x82, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        assert!(matches!(
            read_response(&mut frame.as_slice(), DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn retired_deadline_error_code_is_malformed() {
        // Code 11 reported an expired deadline before version 5; an `Error`
        // frame carrying it no longer decodes.
        let mut body = vec![PROTOCOL_VERSION, 0xff, 1, 0, 0, 0, 0, 0, 0, 0];
        body.extend_from_slice(&[11, 0, 1, b'x']);
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        assert!(matches!(
            read_response(&mut frame.as_slice(), DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn accumulator_reports_request_id_on_payload_decode_failures() {
        // A Coverage frame whose payload is garbage: the header parsed, so
        // the error echoes the request id.
        let good = request_to_bytes(9, &Request::Report);
        let mut bad = Vec::new();
        let body = [PROTOCOL_VERSION, 0x02, 9, 0, 0, 0, 0, 0, 0, 0, 0xFF];
        bad.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bad.extend_from_slice(&body);
        let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME_BYTES);
        acc.feed(&good);
        acc.feed(&bad);
        assert!(matches!(acc.next_request(), Some(Ok((9, Request::Report)))));
        assert!(matches!(
            acc.next_request(),
            Some(Err((Some(9), FrameError::Malformed(_))))
        ));
        assert!(acc.is_poisoned());
    }
}

//! # castor-rpc
//!
//! The network front end of the Castor serving stack: a dependency-free
//! std-TCP wire protocol over [`castor_service`]. The paper (Picado et
//! al., SIGMOD 2017) frames Castor as a learning *service* over live
//! relational databases; `castor-service` runs multi-session learning
//! in-process, and this crate is the layer that lets anything reach it
//! over a network.
//!
//! * [`frame`] — versioned length-prefixed frames with request ids (see
//!   the module docs for the byte layout), request/response bodies, and
//!   typed error codes; every frame carries the one protocol version
//!   ([`PROTOCOL_VERSION`]), and responses can stream — learn-progress
//!   chunks and chunked covered sets — under client-granted flow-control
//!   credit. [`frame::FrameAccumulator`] is the server's request decoder;
//! * [`codec`] — compact hand-rolled binary encoding (varints, tagged
//!   enums) for every job and result shape: clauses, tuples, mutation
//!   batches, learner configurations, engine and server reports;
//! * [`server`] — [`RpcServer`]: one readiness-driven epoll event loop
//!   (see [`event_loop`]) mapping each connection onto one
//!   [`castor_service::Session`]; in-flight requests multiplex onto the
//!   per-database round-robin queues, admission rejections come back as
//!   typed error frames, and a
//!   disconnect fires the session's cancel token (queued jobs fail
//!   fast, the running one aborts within one candidate tuple, the
//!   admission slot is reclaimed);
//! * [`sys`] — libc-free epoll/eventfd syscall wrappers the event loop
//!   stands on;
//! * [`client`] — [`RpcClient`]: a blocking client with pipelined
//!   submits, mirroring the in-process `Session` API shape so callers
//!   can swap transports;
//! * [`fault`] — [`FaultPlan`]: a deterministic, seeded fault-injection
//!   hook on the server transport (torn writes, dropped/delayed reads,
//!   byte-exact socket closes) driving the chaos suite.
//!
//! The server half (`server`, `event_loop`, `sys`) builds on Linux
//! x86_64/aarch64 only; the client, codec, frames and fault layers are
//! portable.
//!
//! ## Observability
//!
//! Wire-submitted jobs are traced under their frame request id: the
//! client records an `rpc.client.encode` span, the server records
//! `service.queue_wait`, `engine.batch_eval`, and `rpc.server.reply`
//! spans — all under the same id, so one request's life across both
//! processes greps out of the dumps. `Request::Metrics` fetches the
//! server's Prometheus-text metric exposition and `Request::TraceDump`
//! its recent spans as Chrome-trace JSON; the client's own latency view
//! ([`RpcClient::obs`]) holds `castor_rpc_encode_ns` and
//! `castor_rpc_roundtrip_ns` histograms.
//!
//! ```no_run
//! use castor_rpc::{RpcClient, RpcConfig, RpcServer};
//! use castor_service::{Server, ServerConfig};
//! use castor_relational::{DatabaseInstance, RelationSymbol, Schema, Tuple};
//! use castor_logic::{Atom, Clause};
//! use std::sync::Arc;
//!
//! let mut schema = Schema::new("demo");
//! schema.add_relation(RelationSymbol::new("publication", &["title", "person"]));
//! let mut db = DatabaseInstance::empty(&schema);
//! db.insert("publication", Tuple::from_strs(&["p1", "ann"])).unwrap();
//!
//! let service = Arc::new(Server::new(ServerConfig::default()));
//! service.register("demo", Arc::new(db)).unwrap();
//! let rpc = RpcServer::bind(service, "127.0.0.1:0", RpcConfig::default()).unwrap();
//!
//! let mut client = RpcClient::connect(rpc.local_addr(), "demo").unwrap();
//! let clause = Clause::new(
//!     Atom::vars("t", &["x"]),
//!     vec![Atom::vars("publication", &["p", "x"])],
//! );
//! let sets = client
//!     .covered_sets(vec![clause], vec![Tuple::from_strs(&["ann"])])
//!     .unwrap();
//! assert_eq!(sets[0].len(), 1);
//! ```

pub mod client;
pub mod codec;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub mod event_loop;
pub mod fault;
pub mod frame;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub mod server;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub mod sys;

pub use client::{ClientConfig, RpcClient, RpcError, RpcHandle};
pub use codec::{ByteReader, ByteWriter, CodecError, Wire};
pub use fault::{FaultAction, FaultKind, FaultPlan, FaultStats, FaultStream};
pub use frame::{
    ErrorCode, FrameError, Request, Response, StreamBody, DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_STREAM_CREDIT, PROTOCOL_VERSION,
};
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use server::{RpcConfig, RpcServer};

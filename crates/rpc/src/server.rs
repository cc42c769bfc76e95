//! The RPC server front end: TCP connections mapped onto
//! [`castor_service::Session`]s by one readiness-driven epoll event loop
//! ([`crate::event_loop`]) that owns every connection.
//!
//! Request lifecycle:
//!
//! 1. client connects, sends `Hello { database, eval_budget }`;
//! 2. the server opens a session (admission-checked: unknown database and
//!    the server-wide session cap produce a typed error frame and close);
//! 3. requests are decoded and submitted; per-database in-flight caps
//!    reject overflow submissions with a typed error frame (the
//!    connection stays up);
//! 4. responses stream back in submission order as jobs finish, tagged
//!    with their request id — any number of requests can be in flight on
//!    one connection, while the per-database round-robin scheduler
//!    interleaves *other* sessions' jobs between them;
//! 5. on disconnect the session's cancel token fires: queued jobs fail
//!    fast, the running job aborts within one candidate tuple, and the
//!    session (and its admission slot) is reclaimed.

use crate::fault::{register_fault_collector, FaultPlan, FaultStats};
use crate::frame::DEFAULT_MAX_FRAME_BYTES;
use castor_service::Server;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// RPC front-end knobs.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Cap on one frame's declared length; larger frames are rejected
    /// with [`crate::ErrorCode::FrameTooLarge`] before any allocation.
    pub max_frame_bytes: usize,
    /// Deterministic fault schedule for chaos testing (`None` in
    /// production): accepted connections are wrapped in
    /// [`crate::FaultStream`]s armed from this plan by accept order, and
    /// every fired fault is counted in the server's
    /// `castor_fault_injected_total{kind=...}` metric family.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            fault_plan: None,
        }
    }
}

impl RpcConfig {
    /// Returns a copy with the given frame cap.
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self
    }

    /// Returns a copy with a fault schedule armed (chaos testing).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// A running RPC front end over a [`castor_service::Server`].
///
/// Dropping the handle stops the event loop: open connections are
/// cancelled and their sessions reclaimed.
pub struct RpcServer {
    service: Arc<Server>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    event_loop: Option<JoinHandle<()>>,
    fault_stats: Arc<FaultStats>,
}

impl std::fmt::Debug for RpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl RpcServer {
    /// Binds the RPC front end and starts accepting connections. Bind to
    /// port 0 to let the OS choose ([`RpcServer::local_addr`] reports it).
    pub fn bind(
        service: Arc<Server>,
        addr: impl ToSocketAddrs,
        config: RpcConfig,
    ) -> std::io::Result<RpcServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let fault_stats = Arc::new(FaultStats::default());
        if config.fault_plan.is_some() {
            // Fault counters only appear in the exposition when a plan is
            // armed — production scrapes stay free of chaos-only series.
            register_fault_collector(service.obs(), Arc::clone(&fault_stats));
        }
        let event_loop = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let fault_stats = Arc::clone(&fault_stats);
            std::thread::Builder::new()
                .name("castor-rpc-loop".to_string())
                .spawn(move || {
                    crate::event_loop::run(listener, service, config, shutdown, fault_stats)
                })
                .expect("failed to spawn event-loop thread")
        };
        Ok(RpcServer {
            service,
            addr,
            shutdown,
            event_loop: Some(event_loop),
            fault_stats,
        })
    }

    /// The address the front end is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind this front end (handy for in-process
    /// inspection: engine reports, server counters).
    pub fn service(&self) -> &Arc<Server> {
        &self.service
    }

    /// How often each fault kind of the armed [`FaultPlan`] actually
    /// fired (all zeros without a plan). Ground truth for chaos suites:
    /// must match the `castor_fault_injected_total` metric family.
    pub fn fault_stats(&self) -> &Arc<FaultStats> {
        &self.fault_stats
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Make the listener readable so the loop wakes and observes the
        // flag without waiting out its poll timeout.
        let _ = TcpStream::connect(self.addr);
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
    }
}

//! Acceptance guard for the wire-transport overhead budget on the
//! event-loop server: the shared `rpc_roundtrip_workload` score job
//! (coverage evaluation over both example lists, a few dozen bytes of
//! counts back) over loopback TCP must stay within 1.2× of the same
//! job on an in-process `Session`. The score shape is the transport
//! bound: evaluation-dominated, fixed-size response — so the ratio
//! measures the loop's wake/dispatch/flush path, and any pathology (a
//! poll timeout on the response path, Nagle-style delays, per-roundtrip
//! syscall storms) blows it immediately. The covered-sets shape is
//! additionally pinned at a looser bound: its response re-materializes
//! every covered tuple on the client (encode + decode + re-hash), so
//! its wire cost is payload-bound by construction — the bound catches
//! gross regressions, not loop latency. The `learnbench` runner reports
//! the serving workload's transport cost as `rpc.overhead_ms`.
//!
//! Release-only: a debug build's evaluation cost (and timing noise)
//! drowns the transport share and makes the ratio meaningless.
#![cfg(not(debug_assertions))]

use castor::bench::rpc_roundtrip_workload;
use castor::rpc::{RpcClient, RpcConfig, RpcServer};
use castor::service::{Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUNDS: usize = 30;

/// Interleaved best-of-N: alternate sides within each round and keep
/// the per-side minimum — drift on a shared box hits both sides
/// equally, and the minimum is the standard de-noised estimate for a
/// deterministic job.
fn best_pair(
    mut a: impl FnMut() -> Duration,
    mut b: impl FnMut() -> Duration,
) -> (Duration, Duration) {
    // Warm-up both sides (plan compilation, first-touch indexes, socket
    // buffers).
    for _ in 0..5 {
        a();
        b();
    }
    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    for _ in 0..ROUNDS {
        best_a = best_a.min(a());
        best_b = best_b.min(b());
    }
    (best_a, best_b)
}

#[test]
fn tcp_loopback_stays_within_budget_of_in_process() {
    let workload = rpc_roundtrip_workload();

    let in_process = Server::new(ServerConfig::default());
    in_process
        .register("bench", Arc::clone(&workload.db))
        .unwrap();
    let session = in_process.session("bench").unwrap();

    let service = Arc::new(Server::new(ServerConfig::default()));
    service.register("bench", Arc::clone(&workload.db)).unwrap();
    let rpc = RpcServer::bind(service, "127.0.0.1:0", RpcConfig::default()).unwrap();
    let client = std::sync::Mutex::new(RpcClient::connect(rpc.local_addr(), "bench").unwrap());

    // The transport must not change what the job computes.
    let counts_session = session
        .score(
            workload.beam.clone(),
            workload.positive.clone(),
            workload.negative.clone(),
        )
        .unwrap();
    let counts_tcp = client
        .lock()
        .unwrap()
        .score(
            workload.beam.clone(),
            workload.positive.clone(),
            workload.negative.clone(),
        )
        .unwrap();
    assert_eq!(counts_session, counts_tcp);

    // The pinned bound: score roundtrips, ≤1.2× with a small absolute
    // allowance (two loopback hops cost a fixed few tens of
    // microseconds no matter the job; a fast baseline must not turn
    // that constant into a ratio failure).
    let (best_session, best_tcp) = best_pair(
        || {
            let start = Instant::now();
            session
                .score(
                    workload.beam.clone(),
                    workload.positive.clone(),
                    workload.negative.clone(),
                )
                .unwrap();
            start.elapsed()
        },
        || {
            let start = Instant::now();
            client
                .lock()
                .unwrap()
                .score(
                    workload.beam.clone(),
                    workload.positive.clone(),
                    workload.negative.clone(),
                )
                .unwrap();
            start.elapsed()
        },
    );
    let ceiling = best_session.mul_f64(1.2) + Duration::from_micros(100);
    assert!(
        best_tcp <= ceiling,
        "tcp loopback score roundtrip over budget: {best_tcp:?} vs in-process {best_session:?} \
         ({:.2}x, ceiling {ceiling:?})",
        best_tcp.as_secs_f64() / best_session.as_secs_f64().max(1e-9)
    );

    // The payload-bound shape: covered sets re-materialize every covered
    // tuple on the client, so the honest budget is looser — this catches
    // a gross regression (an extra copy, a stalled flush), not loop
    // latency.
    let (covered_session, covered_tcp) = best_pair(
        || {
            let start = Instant::now();
            session
                .covered_sets(workload.beam.clone(), workload.positive.clone())
                .unwrap();
            start.elapsed()
        },
        || {
            let start = Instant::now();
            client
                .lock()
                .unwrap()
                .covered_sets(workload.beam.clone(), workload.positive.clone())
                .unwrap();
            start.elapsed()
        },
    );
    let covered_ceiling = covered_session.mul_f64(2.2) + Duration::from_micros(100);
    assert!(
        covered_tcp <= covered_ceiling,
        "tcp loopback covered-sets roundtrip over budget: {covered_tcp:?} vs in-process \
         {covered_session:?} ({:.2}x, ceiling {covered_ceiling:?})",
        covered_tcp.as_secs_f64() / covered_session.as_secs_f64().max(1e-9)
    );
}

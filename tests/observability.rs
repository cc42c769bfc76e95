//! End-to-end acceptance tests for the observability layer: one wire
//! job's spans share a single trace id across client and server over a
//! real TCP socket, and the `Request::Metrics` exposition is consistent
//! with the wire-fetched `ServerReport` totals.

use castor::logic::{Atom, Clause};
use castor::relational::{DatabaseInstance, MutationBatch, RelationSymbol, Schema, Tuple};
use castor::rpc::{Request, RpcClient, RpcConfig, RpcServer};
use castor::service::{Server, ServerConfig};
use std::sync::Arc;

fn demo_db() -> DatabaseInstance {
    let mut schema = Schema::new("demo");
    schema.add_relation(RelationSymbol::new("publication", &["title", "person"]));
    let mut db = DatabaseInstance::empty(&schema);
    for (t, p) in [
        ("p1", "ann"),
        ("p1", "bob"),
        ("p2", "carol"),
        ("p2", "dan"),
        ("p3", "eve"),
    ] {
        db.insert("publication", Tuple::from_strs(&[t, p])).unwrap();
    }
    db
}

fn collaborated() -> Clause {
    Clause::new(
        Atom::vars("collaborated", &["x", "y"]),
        vec![
            Atom::vars("publication", &["p", "x"]),
            Atom::vars("publication", &["p", "y"]),
        ],
    )
}

fn demo_rpc() -> RpcServer {
    let service = Arc::new(Server::new(ServerConfig::default().with_threads(2)));
    service.register("demo", Arc::new(demo_db())).unwrap();
    RpcServer::bind(service, "127.0.0.1:0", RpcConfig::default()).unwrap()
}

/// The value of an unlabeled metric in a Prometheus text exposition.
fn metric_value(text: &str, name: &str) -> u64 {
    let line = text
        .lines()
        .find(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .unwrap_or_else(|| panic!("metric {name} not exposed:\n{text}"));
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

/// One RPC job's spans — client-side frame encode, server-side queue
/// wait, engine evaluation, and reply write — all carry the frame
/// request id as their trace id, end to end over a real TCP socket.
#[test]
fn rpc_job_spans_share_one_trace_id_across_processes() {
    let rpc = demo_rpc();
    let mut client = RpcClient::connect(rpc.local_addr(), "demo").unwrap();

    let handle = client
        .submit(Request::Coverage {
            clauses: vec![collaborated()],
            examples: vec![Tuple::from_strs(&["ann", "bob"])],
        })
        .unwrap();
    let trace = handle.id();
    assert_eq!(client.join_covered(handle).unwrap()[0].len(), 1);

    // The wire request id is not a locally minted trace (high bit clear).
    assert_eq!(trace & (1 << 63), 0);

    // The client recorded its encode span under the request id.
    let client_spans = client.obs().spans().snapshot();
    assert!(
        client_spans
            .iter()
            .any(|s| s.name == "rpc.client.encode" && s.trace == trace),
        "client spans: {client_spans:?}"
    );

    // Fetching the trace dump over the wire serializes behind the reply
    // on the writer thread, so by the time it is produced the coverage
    // job's rpc.server.reply span is in the ring.
    let dump = client.trace_dump().unwrap();
    assert!(dump.contains("service.queue_wait"), "dump: {dump}");

    // The server recorded the job's whole path under the same id.
    let server_spans = rpc.service().obs().spans().snapshot();
    for name in [
        "service.queue_wait",
        "engine.batch_eval",
        "rpc.server.reply",
    ] {
        assert!(
            server_spans
                .iter()
                .any(|s| s.name == name && s.trace == trace),
            "no {name} span with trace {trace:#x}; server spans: {server_spans:?}"
        );
    }
}

/// The wire-served `Request::Metrics` exposition parses, its histogram
/// counts agree with each other, and the job totals equal the
/// wire-fetched `ServerReport` counters — both views read the same
/// atomics.
#[test]
fn wire_metrics_agree_with_the_server_report() {
    let rpc = demo_rpc();
    let mut client = RpcClient::connect(rpc.local_addr(), "demo").unwrap();

    let examples = vec![
        Tuple::from_strs(&["ann", "bob"]),
        Tuple::from_strs(&["ann", "eve"]),
    ];
    client
        .covered_sets(vec![collaborated()], examples.clone())
        .unwrap();
    client
        .apply(MutationBatch::new().insert("publication", Tuple::from_strs(&["p3", "ann"])))
        .unwrap();
    client.covered_sets(vec![collaborated()], examples).unwrap();

    // Every response above was joined, so every job was popped off the
    // queue and fully accounted before the scrape below.
    let metrics = client.metrics().unwrap();
    let (_, server) = client.server_report().unwrap();

    // The serving-layer latency histograms are labelled by database, so
    // the demo tenant reads out as its own series.
    let queue_wait = metric_value(&metrics, "castor_queue_wait_ns_count{db=\"demo\"}");
    let job_run = metric_value(&metrics, "castor_job_run_ns_count{db=\"demo\"}");
    assert_eq!(queue_wait, 3, "3 jobs were submitted and drained");
    assert_eq!(queue_wait, job_run, "every pop records both histograms");
    assert_eq!(queue_wait, server.queue_drains as u64);
    assert_eq!(job_run, server.jobs_submitted as u64);

    // The engine's evaluation histogram saw both coverage batches and is
    // labelled with the database it belongs to (engines registered
    // through the server get per-database series); the histogram's own
    // bookkeeping is internally consistent: the +Inf bucket closes at
    // the total count.
    let evals = metric_value(&metrics, "castor_engine_batch_eval_ns_count{db=\"demo\"}");
    assert!(evals >= 2, "two coverage jobs evaluated, saw {evals}");
    let inf_line = metrics
        .lines()
        .find(|l| l.starts_with("castor_queue_wait_ns_bucket{db=\"demo\",le=\"+Inf\"}"))
        .expect("+Inf bucket closes the histogram");
    let inf: u64 = inf_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(inf, queue_wait);

    // The serving-layer counters exposed in the same scrape match the
    // report fetched over its own frame (single-sourced atomics).
    assert_eq!(
        metric_value(&metrics, "castor_jobs_submitted_total"),
        server.jobs_submitted as u64
    );
    assert_eq!(
        metric_value(&metrics, "castor_sessions_accepted_total"),
        server.sessions_accepted as u64
    );

    // The event loop attributes its time to per-phase series. Every
    // request above was read off the socket and dispatched, and every
    // reply was encoded and flushed back, so all four phases have
    // samples by scrape time (the scrape itself is at least one more
    // read).
    for phase in ["read", "dispatch", "encode", "flush"] {
        let count = metric_value(
            &metrics,
            &format!("castor_rpc_loop_phase_ns_count{{phase=\"{phase}\"}}"),
        );
        assert!(count > 0, "no {phase}-phase samples in:\n{metrics}");
    }
}

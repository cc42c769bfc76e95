//! Acceptance tests for streamed responses: learn-progress frames ahead
//! of the result, typed failures on malformed stream chunks, and
//! per-connection flow control.

use castor::logic::{Atom, Clause};
use castor::relational::{DatabaseInstance, RelationSymbol, Schema, Tuple};
use castor::rpc::frame::FrameAccumulator;
use castor::rpc::{
    ClientConfig, Request, Response, RpcClient, RpcConfig, RpcError, RpcServer, StreamBody,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use castor::service::{LearnAlgorithm, LearnJob, Server, ServerConfig};
use castor_learners::{LearnerParams, LearningTask};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A database whose target needs two covering rounds: `q` explains half
/// the positives, `r` the other half, so any covering learner accepts
/// two clauses — and a learn streams (at least) two progress frames.
fn two_round_db() -> DatabaseInstance {
    let mut schema = Schema::new("rounds");
    schema.add_relation(RelationSymbol::new("q", &["x"]));
    schema.add_relation(RelationSymbol::new("r", &["x"]));
    schema.add_relation(RelationSymbol::new("s", &["x"]));
    let mut db = DatabaseInstance::empty(&schema);
    for v in ["a1", "a2"] {
        db.insert("q", Tuple::from_strs(&[v])).unwrap();
    }
    for v in ["b1", "b2"] {
        db.insert("r", Tuple::from_strs(&[v])).unwrap();
    }
    db.insert("s", Tuple::from_strs(&["z1"])).unwrap();
    db
}

fn two_round_task() -> (LearningTask, LearnAlgorithm) {
    let task = LearningTask::new(
        "t",
        1,
        vec![
            Tuple::from_strs(&["a1"]),
            Tuple::from_strs(&["a2"]),
            Tuple::from_strs(&["b1"]),
            Tuple::from_strs(&["b2"]),
        ],
        vec![Tuple::from_strs(&["z1"])],
    );
    let algorithm = LearnAlgorithm::Progol(LearnerParams {
        allow_constants: false,
        ..LearnerParams::default()
    });
    (task, algorithm)
}

#[test]
fn learn_over_v2_streams_progress_frames_before_the_result() {
    let service = Arc::new(Server::new(ServerConfig::default()));
    service
        .register("rounds", Arc::new(two_round_db()))
        .unwrap();
    let rpc = RpcServer::bind(Arc::clone(&service), "127.0.0.1:0", RpcConfig::default()).unwrap();
    let (task, algorithm) = two_round_task();

    // In-process reference definition.
    let expected = service
        .session("rounds")
        .unwrap()
        .learn(LearnJob::new(task.clone(), algorithm.clone()))
        .unwrap();
    assert!(expected.len() >= 2, "task must need two covering rounds");

    // Per-round progress frames stream ahead of the terminal result.
    let mut client = RpcClient::connect(rpc.local_addr(), "rounds").unwrap();
    let (definition, progress) = client.learn_with_progress(task, algorithm).unwrap();
    assert_eq!(definition, expected);
    assert!(
        progress.len() >= 2,
        "expected >= 2 streamed progress frames, got {}",
        progress.len()
    );
    for (i, p) in progress.iter().enumerate() {
        assert_eq!(p.round, i, "progress rounds must arrive in order");
        assert!(p.covered_positive > 0);
        assert_eq!(&definition.clauses[i], &p.clause);
    }
    assert_eq!(progress.last().unwrap().uncovered_remaining, 0);
}

/// Reads from `stream` until `acc` yields one complete request frame.
fn next_request(stream: &mut TcpStream, acc: &mut FrameAccumulator) -> (u64, Request) {
    use std::io::Read;
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = acc.next_request() {
            return frame.unwrap();
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "client closed before sending a whole frame");
        acc.feed(&buf[..n]);
    }
}

/// A raw-TCP "server" that completes the handshake and then answers the
/// first request with whatever frames `respond` writes. Used to aim
/// malformed stream chunks at the client decoder.
fn fake_server(respond: impl FnOnce(&mut TcpStream, u64) + Send + 'static) -> std::net::SocketAddr {
    use castor::rpc::frame::write_response;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME_BYTES);
        let (hello_id, hello) = next_request(&mut stream, &mut acc);
        assert!(matches!(hello, Request::Hello { .. }), "{hello:?}");
        write_response(&mut stream, hello_id, &Response::HelloOk).unwrap();
        let request_id = loop {
            let (id, request) = next_request(&mut stream, &mut acc);
            // Skip credit grants the client may interleave.
            if !matches!(request, Request::StreamCredit { .. }) {
                break id;
            }
        };
        respond(&mut stream, request_id);
        // Linger briefly so the client reads the frames before FIN.
        std::thread::sleep(Duration::from_millis(100));
    });
    addr
}

#[test]
fn malformed_stream_chunks_fail_typed_and_close_cleanly() {
    use castor::rpc::frame::write_response;

    // Out-of-order sequence number: typed Malformed error client-side.
    let addr = fake_server(|stream, id| {
        write_response(
            stream,
            id,
            &Response::Stream {
                seq: 5, // must start at 0
                last: false,
                body: StreamBody::CoveredChunk(vec![std::collections::HashSet::new()]),
            },
        )
        .unwrap();
    });
    let mut client = RpcClient::connect(addr, "demo").unwrap();
    let err = client
        .covered_sets(vec![collaborated()], vec![Tuple::from_strs(&["a", "b"])])
        .unwrap_err();
    assert!(
        matches!(&err, RpcError::Malformed(m) if m.contains("out of order")),
        "{err}"
    );

    // A progress frame claiming to be terminal: Malformed (progress
    // streams end with the job's Learned/Error frame, never `last`).
    let addr = fake_server(|stream, id| {
        write_response(
            stream,
            id,
            &Response::Stream {
                seq: 0,
                last: true,
                body: StreamBody::Progress(castor::engine::LearnProgress {
                    round: 0,
                    clause: collaborated(),
                    covered_positive: 1,
                    covered_negative: 0,
                    uncovered_remaining: 0,
                }),
            },
        )
        .unwrap();
    });
    let mut client = RpcClient::connect(addr, "demo").unwrap();
    let err = client
        .covered_sets(vec![collaborated()], vec![Tuple::from_strs(&["a", "b"])])
        .unwrap_err();
    assert!(matches!(&err, RpcError::Malformed(_)), "{err}");

    // A stream frame truncated mid-payload (length prefix promises more
    // than arrives before FIN): clean Io error, no hang.
    let addr = fake_server(|stream, _| {
        use std::io::Write;
        stream.write_all(&64u32.to_le_bytes()).unwrap();
        stream.write_all(&[PROTOCOL_VERSION, 0x8a, 0, 0]).unwrap();
    });
    let mut client = RpcClient::connect(addr, "demo").unwrap();
    let err = client
        .covered_sets(vec![collaborated()], vec![Tuple::from_strs(&["a", "b"])])
        .unwrap_err();
    assert!(
        matches!(&err, RpcError::Io(_) | RpcError::Timeout(_)),
        "{err}"
    );
}

#[test]
fn zero_credit_client_never_starves_other_sessions() {
    let service = Arc::new(Server::new(ServerConfig::default()));
    service.register("demo", Arc::new(demo_db())).unwrap();
    let rpc = RpcServer::bind(service, "127.0.0.1:0", RpcConfig::default()).unwrap();
    // Client A grants the server zero stream credit and never replenishes:
    // the server parks A's stream on the first covered chunk.
    let mut starved = RpcClient::connect_config(
        rpc.local_addr(),
        "demo",
        &ClientConfig::default().with_stream_credit(0),
    )
    .unwrap();
    let _stuck = starved
        .submit(Request::Coverage {
            clauses: vec![collaborated()],
            examples: vec![Tuple::from_strs(&["ann", "bob"])],
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Flow control is per connection: client B is unaffected.
    let mut healthy = RpcClient::connect(rpc.local_addr(), "demo").unwrap();
    let start = Instant::now();
    let sets = healthy
        .covered_sets(
            vec![collaborated()],
            vec![Tuple::from_strs(&["ann", "bob"])],
        )
        .unwrap();
    assert_eq!(sets[0].len(), 1);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "another session's stalled stream blocked this one"
    );

    // Dropping the starved client tears down its parked stream and the
    // session is reclaimed — nothing leaks.
    drop(starved);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if rpc.service().server_report().sessions_active == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "starved session was never reclaimed after disconnect"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

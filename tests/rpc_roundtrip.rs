//! End-to-end acceptance tests for the castor-rpc wire protocol: every
//! job kind over a real TCP socket against `RpcServer`, with results
//! pinned to the in-process `Session` API; plus the protocol's failure
//! modes — malformed/truncated/oversized frames, admission-control
//! rejections, and client disconnect mid-job (cancellation and session
//! reclamation).

use castor::logic::{Atom, Clause};
use castor::relational::{DatabaseInstance, MutationBatch, RelationSymbol, Schema, Tuple};
use castor::rpc::{
    ErrorCode, FrameError, Request, Response, RpcClient, RpcConfig, RpcError, RpcServer,
};
use castor::service::{LearnAlgorithm, LearnJob, Server, ServerConfig};
use castor_learners::{LearnerParams, LearningTask};
use std::io::Write;
use std::net::TcpStream;
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

fn demo_rpc(config: ServerConfig) -> RpcServer {
    let service = Arc::new(Server::new(config));
    service.register("demo", Arc::new(demo_db())).unwrap();
    RpcServer::bind(service, "127.0.0.1:0", RpcConfig::default()).unwrap()
}

/// A complete bipartite graph: it contains no odd cycle, so the
/// odd-cycle queries below can never succeed — they explore their search
/// space (or their node budget) to the end, deterministically.
fn bipartite_db(left: usize, right: usize) -> DatabaseInstance {
    let mut schema = Schema::new("bulk");
    schema.add_relation(RelationSymbol::new("pair", &["a", "b"]));
    let mut db = DatabaseInstance::empty(&schema);
    for i in 0..left {
        for j in 0..right {
            let (l, r) = (format!("l{i}"), format!("r{j}"));
            db.insert("pair", Tuple::from_strs(&[&l, &r])).unwrap();
            db.insert("pair", Tuple::from_strs(&[&r, &l])).unwrap();
        }
    }
    db
}

/// pair-triangle: unsatisfiable over a bipartite graph (~2M nodes on the
/// 100×100 instance — a deterministic tens-of-milliseconds job).
fn triangle() -> Clause {
    Clause::new(
        Atom::vars("t", &["x"]),
        vec![
            Atom::vars("pair", &["a", "b"]),
            Atom::vars("pair", &["b", "c"]),
            Atom::vars("pair", &["c", "a"]),
        ],
    )
}

/// pair-5-cycle: unsatisfiable over a bipartite graph with a ~10^10-node
/// search space — it cannot finish on its own within any test timeout,
/// so observing it end proves the cancellation token fired.
fn five_cycle() -> Clause {
    Clause::new(
        Atom::vars("t", &["x"]),
        vec![
            Atom::vars("pair", &["a", "b"]),
            Atom::vars("pair", &["b", "c"]),
            Atom::vars("pair", &["c", "d"]),
            Atom::vars("pair", &["d", "e"]),
            Atom::vars("pair", &["e", "a"]),
        ],
    )
}

#[test]
fn every_job_kind_matches_the_in_process_session_over_tcp() {
    let rpc = demo_rpc(ServerConfig::default());
    // An independent in-process server over an identical database is the
    // reference for every result below.
    let reference = Server::new(ServerConfig::default());
    reference.register("demo", Arc::new(demo_db())).unwrap();
    let session = reference.session("demo").unwrap();

    let mut client = RpcClient::connect(rpc.local_addr(), "demo").unwrap();
    let examples = vec![
        Tuple::from_strs(&["ann", "bob"]),
        Tuple::from_strs(&["ann", "carol"]),
        Tuple::from_strs(&["eve", "eve"]),
    ];

    // CoverageJob.
    let over_tcp = client
        .covered_sets(vec![collaborated()], examples.clone())
        .unwrap();
    let in_process = session
        .covered_sets(vec![collaborated()], examples.clone())
        .unwrap();
    assert_eq!(over_tcp, in_process);

    // ScoreJob (fused pass).
    let positive = vec![
        Tuple::from_strs(&["ann", "bob"]),
        Tuple::from_strs(&["carol", "dan"]),
    ];
    let negative = vec![Tuple::from_strs(&["ann", "carol"])];
    let tcp_counts = client
        .score(vec![collaborated()], positive.clone(), negative.clone())
        .unwrap();
    let ref_counts = session
        .score(vec![collaborated()], positive.clone(), negative.clone())
        .unwrap();
    assert_eq!(tcp_counts, ref_counts);
    assert_eq!((tcp_counts[0].positive, tcp_counts[0].negative), (2, 0));

    // MutationBatch: applied over TCP, visible to later jobs.
    let summary = client
        .apply(MutationBatch::new().insert("publication", Tuple::from_strs(&["p3", "ann"])))
        .unwrap();
    assert_eq!(summary.inserted, 1);
    let ref_summary = session
        .apply(MutationBatch::new().insert("publication", Tuple::from_strs(&["p3", "ann"])))
        .unwrap();
    assert_eq!(summary, ref_summary);
    let after = client
        .covered_sets(
            vec![collaborated()],
            vec![Tuple::from_strs(&["ann", "eve"])],
        )
        .unwrap();
    assert_eq!(after[0].len(), 1);

    // LearnJob.
    let task = LearningTask::new(
        "collaborated",
        2,
        vec![
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["carol", "dan"]),
        ],
        vec![Tuple::from_strs(&["ann", "carol"])],
    );
    let algorithm = LearnAlgorithm::Progol(LearnerParams {
        allow_constants: false,
        ..LearnerParams::default()
    });
    let tcp_definition = client.learn(task.clone(), algorithm.clone()).unwrap();
    let ref_definition = session.learn(LearnJob::new(task, algorithm)).unwrap();
    assert_eq!(tcp_definition, ref_definition);
    assert!(!tcp_definition.is_empty());

    // The session report travels the wire and reflects the activity.
    let report = client.report().unwrap();
    assert!(report.coverage_tests > 0);
    assert_eq!(report.mutation_batches, 1);
    // Engine totals + serving counters in one round trip.
    let (engine_totals, server_report) = client.server_report().unwrap();
    assert!(engine_totals.coverage_tests >= report.coverage_tests);
    assert_eq!(server_report.sessions_active, 1);
    assert!(server_report.jobs_submitted >= 5);
}

#[test]
fn pipelined_requests_multiplex_on_one_connection() {
    let rpc = demo_rpc(ServerConfig::default());
    let mut client = RpcClient::connect(rpc.local_addr(), "demo").unwrap();
    let examples = vec![Tuple::from_strs(&["ann", "bob"])];
    // Several requests in flight before the first join.
    let coverage = (0..4)
        .map(|_| {
            client
                .submit(Request::Coverage {
                    clauses: vec![collaborated()],
                    examples: examples.clone(),
                    deadline_ms: None,
                })
                .unwrap()
        })
        .collect::<Vec<_>>();
    let report = client.submit(Request::Report).unwrap();
    // Joined out of submission order: the id-keyed buffering sorts it out.
    // The report was pipelined *after* the coverage jobs, so — like an
    // in-process `Session::report()` called after joining them — it must
    // include their counter deltas (reports are snapshotted in response
    // order on the server, not at decode time).
    match client.join(report).unwrap() {
        Response::Report(r) => assert!(
            r.coverage_tests + r.cache_hits > 0,
            "pipelined report missed the deltas of earlier in-flight jobs: {r}"
        ),
        other => panic!("unexpected response {other:?}"),
    }
    for handle in coverage.into_iter().rev() {
        match client.join(handle).unwrap() {
            Response::Covered(sets) => assert_eq!(sets[0].len(), 1),
            other => panic!("unexpected response {other:?}"),
        }
    }
}

#[test]
fn unknown_database_and_bad_first_frame_fail_with_typed_errors() {
    let rpc = demo_rpc(ServerConfig::default());
    // Unknown database in Hello.
    let err = RpcClient::connect(rpc.local_addr(), "missing").unwrap_err();
    assert!(
        matches!(
            &err,
            RpcError::Remote {
                code: ErrorCode::UnknownDatabase,
                ..
            }
        ),
        "{err}"
    );
    // A request before Hello is a protocol error.
    let stream = TcpStream::connect(rpc.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    castor::rpc::frame::write_request(&mut writer, 5, &Request::Report).unwrap();
    let (id, response) = castor::rpc::frame::read_response(
        &mut stream.try_clone().unwrap(),
        castor::rpc::DEFAULT_MAX_FRAME_BYTES,
    )
    .unwrap();
    assert_eq!(id, 5);
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::Protocol,
            ..
        }
    ));
    // A Hello stamped with the retired version 1: typed UnsupportedVersion
    // frame, then a clean close — and no session was ever opened for it.
    let stream = TcpStream::connect(rpc.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut hello = castor::rpc::frame::request_to_bytes(
        6,
        &Request::Hello {
            database: "demo".into(),
            eval_budget: None,
            stream_credit: None,
        },
    );
    hello[4] = 1; // version byte
    writer.write_all(&hello).unwrap();
    let mut reader = stream.try_clone().unwrap();
    let (_, response) =
        castor::rpc::frame::read_response(&mut reader, castor::rpc::DEFAULT_MAX_FRAME_BYTES)
            .unwrap();
    assert!(
        matches!(
            response,
            Response::Error {
                code: ErrorCode::UnsupportedVersion,
                ..
            }
        ),
        "{response:?}"
    );
    assert!(matches!(
        castor::rpc::frame::read_response(&mut reader, castor::rpc::DEFAULT_MAX_FRAME_BYTES),
        Err(FrameError::Closed)
    ));
    assert_eq!(rpc.service().server_report().sessions_active, 0);
    // The server is still healthy for well-behaved clients, and every
    // admission slot is accounted for.
    let mut client = RpcClient::connect(rpc.local_addr(), "demo").unwrap();
    assert!(client.report().is_ok());
    assert_eq!(rpc.service().server_report().sessions_active, 1);
}

#[test]
fn malformed_truncated_and_oversized_frames_close_the_connection_cleanly() {
    let rpc = demo_rpc(ServerConfig::default());

    // Wrong protocol version: typed error frame, then close.
    let stream = TcpStream::connect(rpc.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut frame = castor::rpc::frame::request_to_bytes(
        1,
        &Request::Hello {
            database: "demo".into(),
            eval_budget: None,
            stream_credit: None,
        },
    );
    frame[4] = 99; // version byte
    writer.write_all(&frame).unwrap();
    let (_, response) = castor::rpc::frame::read_response(
        &mut stream.try_clone().unwrap(),
        castor::rpc::DEFAULT_MAX_FRAME_BYTES,
    )
    .unwrap();
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::UnsupportedVersion,
            ..
        }
    ));
    assert!(matches!(
        castor::rpc::frame::read_response(
            &mut stream.try_clone().unwrap(),
            castor::rpc::DEFAULT_MAX_FRAME_BYTES,
        ),
        Err(FrameError::Closed)
    ));

    // A truncated frame (connection dropped mid-frame) must not wedge or
    // crash the server.
    let stream = TcpStream::connect(rpc.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(&frame[..7]).unwrap();
    drop(writer);
    drop(stream);

    // An oversized length prefix is rejected with a typed frame before
    // any allocation.
    let service = Arc::new(Server::new(ServerConfig::default()));
    service.register("demo", Arc::new(demo_db())).unwrap();
    let small = RpcServer::bind(
        service,
        "127.0.0.1:0",
        RpcConfig::default().with_max_frame_bytes(256),
    )
    .unwrap();
    let stream = TcpStream::connect(small.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(&(1u32 << 28).to_le_bytes()).unwrap();
    let (_, response) = castor::rpc::frame::read_response(
        &mut stream.try_clone().unwrap(),
        castor::rpc::DEFAULT_MAX_FRAME_BYTES,
    )
    .unwrap();
    match response {
        Response::Error {
            code: ErrorCode::FrameTooLarge,
            limit,
            ..
        } => assert_eq!(limit, 256),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }

    // Malformed payload bytes inside a well-formed frame: typed error.
    let stream = TcpStream::connect(rpc.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut garbage = Vec::new();
    garbage.extend_from_slice(&14u32.to_le_bytes()); // header + 4 bytes
    garbage.push(castor::rpc::PROTOCOL_VERSION);
    garbage.push(0x02); // Coverage kind
    garbage.extend_from_slice(&3u64.to_le_bytes());
    garbage.extend_from_slice(&[0xff, 0xff, 0xff, 0xff]); // bogus varint lengths
    writer.write_all(&garbage).unwrap();
    let (id, response) = castor::rpc::frame::read_response(
        &mut stream.try_clone().unwrap(),
        castor::rpc::DEFAULT_MAX_FRAME_BYTES,
    )
    .unwrap();
    // The frame header parsed, so the typed error echoes the request id.
    assert_eq!(id, 3);
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::Malformed,
            ..
        }
    ));

    // After all that abuse the server still serves.
    let mut client = RpcClient::connect(rpc.local_addr(), "demo").unwrap();
    assert_eq!(
        client
            .covered_sets(
                vec![collaborated()],
                vec![Tuple::from_strs(&["ann", "bob"])]
            )
            .unwrap()[0]
            .len(),
        1
    );
}

#[test]
fn session_cap_rejects_connections_with_a_typed_frame() {
    let rpc = demo_rpc(ServerConfig::default().with_max_sessions(2));
    let _a = RpcClient::connect(rpc.local_addr(), "demo").unwrap();
    let _b = RpcClient::connect(rpc.local_addr(), "demo").unwrap();
    let err = RpcClient::connect(rpc.local_addr(), "demo").unwrap_err();
    match &err {
        RpcError::Remote {
            code: ErrorCode::SessionLimit,
            limit,
            ..
        } => assert_eq!(*limit, 2),
        other => panic!("expected SessionLimit, got {other:?}"),
    }
    assert!(err.is_admission_rejection());
    let report = rpc.service().server_report();
    assert_eq!(report.sessions_active, 2);
    assert_eq!(report.sessions_rejected, 1);
    // Dropping a client frees its slot (poll: reclamation is async).
    drop(_a);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if RpcClient::connect(rpc.local_addr(), "demo").is_ok() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dropped connection never released its session slot"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn inflight_cap_rejects_jobs_but_keeps_the_connection() {
    let service = Arc::new(Server::new(ServerConfig::default().with_max_inflight(2)));
    service
        .register("bulk", Arc::new(bipartite_db(100, 100)))
        .unwrap();
    let rpc = RpcServer::bind(service, "127.0.0.1:0", RpcConfig::default()).unwrap();
    let mut client = RpcClient::connect_with(
        rpc.local_addr(),
        "bulk",
        Some(2_000_000),
        castor::rpc::DEFAULT_MAX_FRAME_BYTES,
    )
    .unwrap();
    let slow = Request::Coverage {
        clauses: vec![triangle()],
        examples: vec![Tuple::from_strs(&["x"])],
        deadline_ms: None,
    };
    let blocker = client.submit(slow.clone()).unwrap();
    let queued = client.submit(slow.clone()).unwrap();
    let rejected = client.submit(slow.clone()).unwrap();
    let err = client.join(rejected).unwrap_err();
    match &err {
        RpcError::Remote {
            code: ErrorCode::Rejected,
            limit,
            ..
        } => assert_eq!(*limit, 2),
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert!(err.is_admission_rejection());
    // The connection survives the rejection: earlier jobs complete and
    // later ones are accepted once the queue drains.
    assert!(matches!(
        client.join(blocker).unwrap(),
        Response::Covered(_)
    ));
    assert!(matches!(client.join(queued).unwrap(), Response::Covered(_)));
    assert!(client
        .covered_sets(vec![triangle()], vec![Tuple::from_strs(&["x"])])
        .is_ok());
    assert!(rpc.service().server_report().jobs_rejected >= 1);
}

#[test]
fn disconnect_mid_learn_cancels_and_reclaims_the_session() {
    let service = Arc::new(Server::new(ServerConfig::default()));
    service
        .register("bulk", Arc::new(bipartite_db(100, 100)))
        .unwrap();
    let rpc = RpcServer::bind(Arc::clone(&service), "127.0.0.1:0", RpcConfig::default()).unwrap();

    // Effectively unbounded budget: the five-cycle coverage search would
    // run for hours if nothing cancelled it.
    let mut client = RpcClient::connect_with(
        rpc.local_addr(),
        "bulk",
        Some(usize::MAX),
        castor::rpc::DEFAULT_MAX_FRAME_BYTES,
    )
    .unwrap();
    let _running = client
        .submit(Request::Coverage {
            clauses: vec![five_cycle()],
            examples: vec![Tuple::from_strs(&["x"])],
            deadline_ms: None,
        })
        .unwrap();
    // A LearnJob queued behind it is mid-flight when the client vanishes.
    let _learn = client
        .submit(Request::Learn {
            task: LearningTask::new("t", 1, vec![Tuple::from_strs(&["l0"])], vec![]),
            algorithm: LearnAlgorithm::Foil(LearnerParams::default()),
            deadline_ms: None,
        })
        .unwrap();
    // Give the runner a moment to actually start the five-cycle search.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(service.server_report().sessions_active, 1);

    // Disconnect without joining anything.
    drop(client);

    // The disconnect must fire the session's cancel token: the running
    // search aborts within one candidate tuple, the queued learn job
    // fails fast, and the session (admission slot included) is reclaimed.
    // None of that can happen by natural completion inside this timeout —
    // the search space is ~10^10 nodes.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let report = service.server_report();
        let queue = service.queue_report("bulk").unwrap();
        if report.sessions_active == 0 && queue.inflight == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect did not cancel/reclaim: {report}, inflight={}",
            queue.inflight
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The server keeps serving new clients afterwards.
    let mut fresh = RpcClient::connect(rpc.local_addr(), "bulk").unwrap();
    assert!(fresh.report().is_ok());
}

#[test]
fn round_robin_keeps_a_light_client_ahead_of_a_flooder() {
    let service = Arc::new(Server::new(ServerConfig::default()));
    service
        .register("bulk", Arc::new(bipartite_db(60, 60)))
        .unwrap();
    let rpc = RpcServer::bind(Arc::clone(&service), "127.0.0.1:0", RpcConfig::default()).unwrap();

    // The flooder pipelines a deep backlog of budget-bound triangle
    // searches (each a few milliseconds). Each submission uses a
    // distinct example constant — the head variable is unconnected to
    // the body, so the value never changes the search cost, but it does
    // key the engine's exhaustion cache: identical jobs would be served
    // from that cache near-instantly from the second one on, draining
    // the backlog before fairness can be observed.
    let mut flooder = RpcClient::connect_with(
        rpc.local_addr(),
        "bulk",
        Some(500_000),
        castor::rpc::DEFAULT_MAX_FRAME_BYTES,
    )
    .unwrap();
    const BACKLOG: usize = 60;
    let flood_handles: Vec<_> = (0..BACKLOG)
        .map(|i| {
            flooder
                .submit(Request::Coverage {
                    clauses: vec![triangle()],
                    examples: vec![Tuple::from_strs(&[&format!("x{i}")])],
                    deadline_ms: None,
                })
                .unwrap()
        })
        .collect();

    // The light client submits one trivial job after the whole backlog.
    let mut light = RpcClient::connect(rpc.local_addr(), "bulk").unwrap();
    let sets = light
        .covered_sets(
            vec![Clause::new(
                Atom::vars("t", &["x"]),
                vec![Atom::vars("pair", &["x", "y"])],
            )],
            vec![Tuple::from_strs(&["l0"])],
        )
        .unwrap();
    assert_eq!(sets[0].len(), 1);

    // Round-robin: the light job ran on the flooder's second turn, so
    // most of the backlog is still queued when it completes. Under the
    // old single-FIFO scheduling the light job would have waited for the
    // entire backlog and `inflight` would be ~0 here.
    let inflight = service.queue_report("bulk").unwrap().inflight;
    assert!(
        inflight > BACKLOG / 2,
        "light client was starved behind the flooder: {inflight} of {BACKLOG} still queued"
    );

    for handle in flood_handles {
        assert!(matches!(
            flooder.join(handle).unwrap(),
            Response::Covered(_)
        ));
    }
}

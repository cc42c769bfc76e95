//! Seeded chaos suite for the serving stack: deterministic transport
//! faults (torn writes, dropped/delayed reads, byte-exact socket closes,
//! stalled writers) injected into `RpcServer` via [`FaultPlan`], with the
//! same invariants asserted for every schedule:
//!
//! * the faulted client sees typed errors or clean closes — never a hang
//!   and never a wrong answer;
//! * other sessions keep being served bit-exact results;
//! * every admission slot is reclaimed (`sessions_active` returns to 0);
//! * the fault counters in the metric exposition match the injected
//!   plan's trigger-time ground truth exactly.
//!
//! Every schedule is derived from a printed seed: a failure report names
//! the seed, and re-running with that seed replays the identical byte
//! schedule.

use castor::logic::{Atom, Clause};
use castor::relational::{DatabaseInstance, RelationSymbol, Schema, Tuple};
use castor::rpc::{ClientConfig, FaultPlan, RpcClient, RpcConfig, RpcServer};
use castor::service::{Server, ServerConfig};
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

/// Polls `condition` until it holds or `what` is reported as stuck.
fn wait_until(condition: impl Fn() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One seeded chaos round. Returns how many faults actually fired.
fn chaos_round(seed: u64) -> u64 {
    let service = Arc::new(Server::new(ServerConfig::default()));
    service.register("demo", Arc::new(demo_db())).unwrap();
    let rpc = RpcServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        RpcConfig::default().with_fault_plan(FaultPlan::seeded(seed)),
    )
    .unwrap();

    // The victim is the first accepted connection — the one the plan
    // targets. Socket timeouts turn any stall the injector could cause
    // into a typed error instead of a wedged test.
    let victim_config = ClientConfig::default()
        .with_connect_timeout(Duration::from_secs(5))
        .with_read_timeout(Duration::from_secs(1))
        .with_write_timeout(Duration::from_secs(1));
    // A connect error means the fault hit the handshake — a typed error
    // is a valid outcome there too.
    if let Ok(mut victim) = RpcClient::connect_config(rpc.local_addr(), "demo", &victim_config) {
        // Push enough bytes through the connection to cross the plan's
        // thresholds; any call may die with a typed error, and the first
        // error poisons the byte-positional framing, so the script stops
        // there.
        for round in 0..4u32 {
            let examples = vec![Tuple::from_strs(&["ann", "bob"])];
            match victim.covered_sets(vec![collaborated()], examples) {
                // A result that does arrive must be the right one, faults
                // or not.
                Ok(sets) => assert_eq!(sets[0].len(), 1, "wrong result on faulted conn"),
                Err(_) => break,
            }
            if round == 1 && victim.report().is_err() {
                break;
            }
        }
    }

    // Dropping the victim (or its earlier death) must wind down its
    // server-side threads and release the admission slot.
    wait_until(
        || service.server_report().sessions_active == 0,
        "victim session reclaimed",
    );

    // A later connection runs clean by construction (the plan only arms
    // the first), and must be served exact results.
    let mut observer = RpcClient::connect(rpc.local_addr(), "demo").unwrap();
    let sets = observer
        .covered_sets(
            vec![collaborated()],
            vec![Tuple::from_strs(&["ann", "bob"])],
        )
        .unwrap();
    assert_eq!(sets[0].len(), 1, "observer served a wrong result");

    // Exact fault accounting: the wire-scraped exposition and the
    // trigger-time stats are two views of the same events. The victim's
    // threads are gone (sessions_active hit 0 above), so the counts are
    // final by now.
    let metrics = observer.metrics().unwrap();
    for (kind, count) in rpc.fault_stats().snapshot() {
        let needle = format!("castor_fault_injected_total{{kind=\"{kind}\"}} {count}");
        assert!(
            metrics.contains(&needle),
            "exposition disagrees with injected plan: missing `{needle}`\n{metrics}"
        );
    }

    drop(observer);
    wait_until(
        || service.server_report().sessions_active == 0,
        "observer session reclaimed",
    );
    rpc.fault_stats().total()
}

/// 200+ seeded fault schedules across every fault kind; the failing seed
/// is printed so the exact schedule replays locally.
#[test]
fn seeded_fault_schedules_never_hang_leak_or_corrupt() {
    const SEEDS: u64 = 200;
    let mut injected = 0u64;
    for seed in 0..SEEDS {
        match std::panic::catch_unwind(|| chaos_round(seed)) {
            Ok(fired) => injected += fired,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                panic!("chaos round failed under seed {seed}: {msg}");
            }
        }
    }
    // The harness must actually be injecting: across 200 schedules a
    // substantial number of faults fire (each victim moves a few hundred
    // transport bytes past thresholds drawn from 0..192).
    assert!(
        injected >= SEEDS / 2,
        "only {injected} faults fired across {SEEDS} seeds — the injector is not engaging"
    );
}

/// Satellite: admission accounting under reconnect churn. Clients
/// connect, submit work, and vanish mid-job over and over; afterwards
/// `sessions_active` is exactly zero and a full complement of new
/// sessions is admitted — no slot leaked, no wrongful `SessionLimit`.
#[test]
fn reconnect_churn_reclaims_every_admission_slot() {
    let service = Arc::new(Server::new(ServerConfig::default().with_max_sessions(4)));
    service.register("demo", Arc::new(demo_db())).unwrap();
    let rpc = RpcServer::bind(Arc::clone(&service), "127.0.0.1:0", RpcConfig::default()).unwrap();
    let addr = rpc.local_addr();

    let churners: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..6u32 {
                    // Session-capped connects can race each other to a
                    // SessionLimit rejection — that is the admission
                    // control working, not a failure.
                    let Ok(mut client) = RpcClient::connect(addr, "demo") else {
                        continue;
                    };
                    let examples = vec![Tuple::from_strs(&[&format!("churn-{t}-{i}"), "bob"])];
                    // Submit without joining, then vanish mid-job.
                    let _ = client.submit(castor::rpc::Request::Coverage {
                        clauses: vec![collaborated()],
                        examples,
                        deadline_ms: None,
                    });
                    drop(client);
                }
            })
        })
        .collect();
    for churner in churners {
        churner.join().unwrap();
    }

    wait_until(
        || {
            let report = service.server_report();
            report.sessions_active == 0 && service.queue_report("demo").unwrap().inflight == 0
        },
        "churned sessions reclaimed",
    );

    // Every one of the 4 admission slots is usable again, concurrently.
    let mut fresh: Vec<RpcClient> = (0..4)
        .map(|_| RpcClient::connect(addr, "demo").expect("reclaimed slot refused a session"))
        .collect();
    for client in &mut fresh {
        assert!(client.report().is_ok());
    }
}

//! Multi-client concurrency stress for the RPC front end — the TCP
//! mirror of `tests/service_stress.rs`: N clients on their own OS
//! threads, each over its own connection, interleave mutation batches
//! with coverage jobs against one `RpcServer`. Each client works a
//! disjoint relation group, so its results are deterministic regardless
//! of interleaving; the test asserts per-client determinism against a
//! local mirror, that per-session report deltas (fetched over the wire)
//! sum exactly to the server's engine totals, and that the serving-layer
//! counters add up.
//!
//! CI runs this test in release mode as well (see the workflow), where
//! tighter timings shake out races the dev profile can mask.

use castor::logic::{covers_example, Atom, Clause};
use castor::relational::{DatabaseInstance, MutationBatch, RelationSymbol, Schema, Tuple};
use castor::rpc::{RpcClient, RpcConfig, RpcServer};
use castor::service::{Server, ServerConfig};
use castor_engine::EngineReport;
use std::collections::HashSet;
use std::sync::Arc;

const CLIENTS: usize = 4;
const ROUNDS: usize = 8;

fn pub_name(i: usize) -> String {
    format!("pub{i}")
}

fn stress_schema() -> Schema {
    let mut schema = Schema::new("stress");
    for i in 0..CLIENTS {
        schema.add_relation(RelationSymbol::new(pub_name(i), &["title", "person"]));
    }
    schema
}

/// collaborated_i(x, y) ← pub_i(p, x), pub_i(p, y)
fn collab_clause(i: usize) -> Clause {
    Clause::new(
        Atom::vars("collaborated", &["x", "y"]),
        vec![
            Atom::vars(pub_name(i), &["p", "x"]),
            Atom::vars(pub_name(i), &["p", "y"]),
        ],
    )
}

#[test]
fn concurrent_tcp_clients_stay_deterministic_and_counters_sum() {
    let service = Arc::new(Server::new(ServerConfig::default().with_threads(4)));
    service
        .register(
            "stress",
            Arc::new(DatabaseInstance::empty(&stress_schema())),
        )
        .unwrap();
    let rpc = RpcServer::bind(Arc::clone(&service), "127.0.0.1:0", RpcConfig::default()).unwrap();
    let addr = rpc.local_addr();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || -> EngineReport {
                let mut client = RpcClient::connect(addr, "stress").unwrap();
                let relation = pub_name(i);
                // A private mirror of this client's relation group computes
                // the expected answers independently.
                let mut mirror = DatabaseInstance::empty(&stress_schema());
                for round in 0..ROUNDS {
                    let title = Tuple::from_strs(&[
                        &format!("s{i}p{round}"),
                        &format!("s{i}author{round}"),
                    ]);
                    let partner = Tuple::from_strs(&[
                        &format!("s{i}p{round}"),
                        &format!("s{i}partner{round}"),
                    ]);
                    let batch = MutationBatch::new()
                        .insert(&relation, title.clone())
                        .insert(&relation, partner.clone());
                    // Exercise both maintenance directions.
                    let batch = if round % 3 == 2 {
                        batch.remove(
                            &relation,
                            Tuple::from_strs(&[
                                &format!("s{i}p{}", round - 1),
                                &format!("s{i}partner{}", round - 1),
                            ]),
                        )
                    } else {
                        batch
                    };
                    mirror.apply_batch(&batch).unwrap();
                    client.apply(batch).unwrap();

                    // The live server must agree with reference semantics
                    // over the mirror, whatever the other clients do.
                    let clause = collab_clause(i);
                    let examples: Vec<Tuple> = (0..=round)
                        .flat_map(|r| {
                            [
                                Tuple::from_strs(&[
                                    &format!("s{i}author{r}"),
                                    &format!("s{i}partner{r}"),
                                ]),
                                Tuple::from_strs(&[
                                    &format!("s{i}author{r}"),
                                    &format!("s{i}author{}", (r + 1) % ROUNDS),
                                ]),
                            ]
                        })
                        .collect();
                    let got = client
                        .covered_sets(vec![clause.clone()], examples.clone())
                        .unwrap();
                    let expected: HashSet<Tuple> = examples
                        .iter()
                        .filter(|e| covers_example(&clause, &mirror, e))
                        .cloned()
                        .collect();
                    assert_eq!(
                        got[0], expected,
                        "client {i} diverged from its mirror in round {round}"
                    );
                }
                // The per-session delta, fetched over the wire.
                client.report().unwrap()
            })
        })
        .collect();

    let session_reports: Vec<EngineReport> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread must not panic"))
        .collect();

    // Per-session deltas sum exactly to the server's engine totals: every
    // counter bump happened inside some session's job window, and jobs of
    // one database never overlap — true over TCP exactly as in-process.
    let summed = session_reports
        .iter()
        .fold(EngineReport::default(), |acc, r| acc.combined(r));
    let mut inspector = RpcClient::connect(addr, "stress").unwrap();
    let (total, server_report) = inspector.server_report().unwrap();
    assert_eq!(
        summed, total,
        "session deltas over TCP do not sum to the server total"
    );
    assert_eq!(total.mutation_batches, CLIENTS * ROUNDS);
    assert!(total.coverage_tests > 0);

    // Serving-layer counters add up: every worker connection (the
    // inspector included) was admitted, every job drained.
    assert_eq!(server_report.sessions_accepted, CLIENTS + 1);
    assert_eq!(server_report.sessions_rejected, 0);
    assert_eq!(server_report.jobs_submitted, CLIENTS * ROUNDS * 2);
    assert_eq!(
        service.queue_report("stress").unwrap().drains,
        CLIENTS * ROUNDS * 2
    );

    // No wedged locks or leaked sessions: a fresh client still gets
    // served after the storm.
    let sets = inspector
        .covered_sets(
            vec![collab_clause(0)],
            vec![Tuple::from_strs(&["s0author0", "s0partner0"])],
        )
        .unwrap();
    assert_eq!(sets[0].len(), 1);
}

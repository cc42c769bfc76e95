//! Criterion micro-benchmarks for the core primitives every learner relies
//! on: θ-subsumption (coverage testing), IND-aware bottom-clause
//! construction, natural joins (composition), lgg (Golem's operator), and
//! the `castor-engine` coverage path (compiled plans + memoized cache)
//! against the uncached, per-call-planned baseline.

use castor_bench::coverage_candidate_sequence;
use castor_core::{BottomClausePlan, CastorConfig};
use castor_datasets::uwcse::{generate, UwCseConfig};
use castor_engine::{Engine, EngineConfig, Prior};
use castor_learners::bottom_clause::{
    ground_bottom_clause, variablized_bottom_clause, BottomClauseConfig,
};
use castor_logic::{covers_example, lgg_clauses, subsumes, Clause};
use castor_relational::{natural_join, Tuple};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn family() -> castor_datasets::SchemaFamily {
    generate(&UwCseConfig::default())
}

fn bench_subsumption(c: &mut Criterion) {
    let family = family();
    let variant = family.variant("Original").unwrap();
    let example = variant.task.positive[0].clone();
    let config = BottomClauseConfig::default();
    let ground = ground_bottom_clause(&variant.db, "advisedBy", &example, &config);
    let candidate = variant.ground_truth.clone().unwrap().clauses[0].clone();
    c.bench_function("theta_subsumption_ground_bottom_clause", |b| {
        b.iter(|| black_box(subsumes(black_box(&candidate), black_box(&ground))))
    });
    // The minimization shape: a full bottom clause against itself minus
    // one literal, so every body literal is searched for.
    let full = variablized_bottom_clause(&variant.db, "advisedBy", &example, &config);
    let mut less = full.clone();
    less.body.remove(less.body.len() / 2);
    c.bench_function("theta_subsumption_long_self", |b| {
        b.iter(|| black_box(subsumes(black_box(&full), black_box(&less))))
    });
}

fn bench_bottom_clause(c: &mut Criterion) {
    let family = family();
    let variant = family.variant("Original").unwrap();
    let example = variant.task.positive[0].clone();
    let plan = BottomClausePlan::compile(variant.db.schema(), false);
    let config = CastorConfig::uwcse();
    c.bench_function("castor_ind_aware_bottom_clause", |b| {
        b.iter(|| {
            black_box(castor_core::castor_ground_bottom_clause(
                &variant.db,
                &plan,
                "advisedBy",
                black_box(&example),
                &config,
            ))
        })
    });
}

fn bench_natural_join(c: &mut Criterion) {
    let family = family();
    let db = &family.variant("Original").unwrap().db;
    let student = db.relation("student").unwrap();
    let in_phase = db.relation("inPhase").unwrap();
    c.bench_function("natural_join_student_inphase", |b| {
        b.iter(|| black_box(natural_join(student, in_phase, "joined").unwrap()))
    });
}

fn bench_lgg(c: &mut Criterion) {
    let family = family();
    let variant = family.variant("Original").unwrap();
    let config = BottomClauseConfig::default();
    let g1 = ground_bottom_clause(&variant.db, "advisedBy", &variant.task.positive[0], &config);
    let g2 = ground_bottom_clause(&variant.db, "advisedBy", &variant.task.positive[1], &config);
    c.bench_function("lgg_of_two_saturations", |b| {
        b.iter(|| black_box(lgg_clauses(black_box(&g1), black_box(&g2))))
    });
}

/// The engine acceptance benchmark: repeatedly score a sequence of
/// candidate clauses (the access pattern of the covering loop, which
/// re-scores beam survivors and α-variants constantly). The engine path
/// answers repeats from its memoized coverage cache over compiled plans;
/// the baseline re-plans and re-evaluates every candidate per call, like
/// the seed implementation did. The engine side is expected to be ≥ 5×
/// faster — in practice it is orders of magnitude faster, since steady-state
/// scoring is pure cache hits.
fn bench_engine_coverage_cache(c: &mut Criterion) {
    // A larger-than-default instance so one uncached coverage pass costs
    // what it does in a real run; the engine's fixed per-call overhead
    // (canonicalization + cache probe) is then noise.
    let family = generate(&UwCseConfig {
        students: 120,
        professors: 25,
        courses: 40,
        ..Default::default()
    });
    let variant = family.variant("Original").unwrap();
    let candidates: Vec<Clause> = coverage_candidate_sequence(variant);
    let examples: Vec<Tuple> = variant
        .task
        .positive
        .iter()
        .chain(variant.task.negative.iter())
        .cloned()
        .collect();

    let engine = Engine::from_arc(std::sync::Arc::clone(&variant.db), EngineConfig::default());
    c.bench_function("engine_coverage_cached_compiled_plans", |b| {
        b.iter(|| {
            let mut covered = 0usize;
            for clause in &candidates {
                covered += engine
                    .covered_set(black_box(clause), black_box(&examples), Prior::None)
                    .len();
            }
            black_box(covered)
        })
    });

    c.bench_function("coverage_uncached_per_call_planning", |b| {
        b.iter(|| {
            let mut covered = 0usize;
            for clause in &candidates {
                covered += examples
                    .iter()
                    .filter(|e| covers_example(black_box(clause), &variant.db, e))
                    .count();
            }
            black_box(covered)
        })
    });
}

/// The batched-beam acceptance benchmark: score one level of sibling
/// candidates (shared ground-truth prefix, one trailing literal each)
/// through `coverage_counts_batch` versus one `covered_set` call per
/// candidate. Caches are disabled on both sides so every iteration measures
/// real evaluation: the comparison is shared-prefix execution against
/// repeated per-clause prefix joins, expected ≥ 1.5× (and in practice far
/// more as the beam widens).
fn bench_engine_batched_beam_vs_sequential(c: &mut Criterion) {
    let family = generate(&UwCseConfig {
        students: 120,
        professors: 25,
        courses: 40,
        ..Default::default()
    });
    let variant = family.variant("Original").unwrap();
    let beam = castor_bench::beam_candidate_batch(variant, 24);
    let examples: Vec<Tuple> = variant
        .task
        .positive
        .iter()
        .chain(variant.task.negative.iter())
        .cloned()
        .collect();

    let config = EngineConfig::default().without_cache();
    let batched = Engine::from_arc(std::sync::Arc::clone(&variant.db), config.clone());
    c.bench_function("engine_batched_beam_vs_sequential/batched", |b| {
        b.iter(|| {
            let sets = batched.covered_sets_batch(black_box(&beam), black_box(&examples));
            black_box(sets.iter().map(|s| s.len()).sum::<usize>())
        })
    });

    let sequential = Engine::from_arc(std::sync::Arc::clone(&variant.db), config);
    c.bench_function("engine_batched_beam_vs_sequential/sequential", |b| {
        b.iter(|| {
            let mut covered = 0usize;
            for clause in &beam {
                covered += sequential
                    .covered_set(black_box(clause), black_box(&examples), Prior::None)
                    .len();
            }
            black_box(covered)
        })
    });
}

/// The cost-model comparison: one level of beam scoring on skewed
/// synthetic data where the uniform selectivity estimate mis-orders the
/// shared join prefix (hub keys hidden behind a high distinct count). The
/// histogram cost model (the default) probes the selective literal first;
/// the uniform baseline enumerates every hub row per negative example.
/// Coverage caches are off on both sides, so only the cost models differ;
/// expected ≥ 1.3× (in practice well over 10×). The same workload runs in
/// CI as `tests/engine_adaptive_costing.rs`.
fn bench_engine_histogram_costing(c: &mut Criterion) {
    let workload = castor_bench::skewed_costing_workload();

    let histogram = Engine::from_arc(
        std::sync::Arc::clone(&workload.db),
        EngineConfig::default().without_cache(),
    );
    c.bench_function("engine_histogram_costing/histogram", |b| {
        b.iter(|| {
            let sets = histogram
                .covered_sets_batch(black_box(&workload.beam), black_box(&workload.examples));
            black_box(sets.iter().map(|s| s.len()).sum::<usize>())
        })
    });

    let uniform = Engine::from_arc(
        std::sync::Arc::clone(&workload.db),
        EngineConfig::default().with_uniform_costs().without_cache(),
    );
    c.bench_function("engine_histogram_costing/uniform", |b| {
        b.iter(|| {
            let sets = uniform
                .covered_sets_batch(black_box(&workload.beam), black_box(&workload.examples));
            black_box(sets.iter().map(|s| s.len()).sum::<usize>())
        })
    });
}

/// The wire-protocol overhead benchmark: the same batched coverage job
/// through an in-process `Session` and through a loopback TCP
/// `RpcClient`. The delta is pure transport cost (framing, encoding, two
/// socket hops); the job itself executes on the identical serving stack.
fn bench_rpc_coverage_roundtrip(c: &mut Criterion) {
    use castor_rpc::{RpcClient, RpcConfig, RpcServer};
    use castor_service::{Server, ServerConfig};

    let family = family();
    let variant = family.variant("Original").unwrap();
    let beam: Vec<Clause> = variant.ground_truth.clone().unwrap().clauses;
    let examples: Vec<Tuple> = variant.task.positive.iter().take(16).cloned().collect();

    let in_process = Server::new(ServerConfig::default());
    in_process
        .register("bench", std::sync::Arc::clone(&variant.db))
        .unwrap();
    let session = in_process.session("bench").unwrap();
    c.bench_function("rpc_coverage_roundtrip/in_process_session", |b| {
        b.iter(|| {
            black_box(
                session
                    .covered_sets(black_box(beam.clone()), black_box(examples.clone()))
                    .unwrap(),
            )
        })
    });

    let service = std::sync::Arc::new(Server::new(ServerConfig::default()));
    service
        .register("bench", std::sync::Arc::clone(&variant.db))
        .unwrap();
    let rpc = RpcServer::bind(service, "127.0.0.1:0", RpcConfig::default()).unwrap();
    let mut client = RpcClient::connect(rpc.local_addr(), "bench").unwrap();
    c.bench_function("rpc_coverage_roundtrip/tcp_loopback", |b| {
        b.iter(|| {
            black_box(
                client
                    .covered_sets(black_box(beam.clone()), black_box(examples.clone()))
                    .unwrap(),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_subsumption,
    bench_bottom_clause,
    bench_natural_join,
    bench_lgg,
    bench_engine_coverage_cache,
    bench_engine_batched_beam_vs_sequential,
    bench_engine_histogram_costing,
    bench_rpc_coverage_roundtrip
);
criterion_main!(benches);

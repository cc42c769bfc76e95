//! Criterion micro-benchmark for the observability overhead claim: the
//! batched coverage path with the default (enabled) `Obs` handle against
//! the same path with `ObsConfig::disabled()`. The instrumentation on
//! this path is a handful of monotonic clock reads, two histogram
//! records, and one span push per batch — the bench measures whether
//! that stays invisible next to the joins the batch performs. The CI
//! guard `tests/obs_overhead.rs` pins the same workload to a ≤5% bound;
//! the `learnbench` runner reports the end-to-end tracing cost as
//! `trace.overhead_s`.

use castor_bench::obs_overhead_workload;
use castor_engine::{Engine, EngineConfig, WorkerPool};
use castor_obs::Obs;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_obs_overhead(c: &mut Criterion) {
    let workload = obs_overhead_workload();
    // Caches off: every iteration re-runs the joins, so the measurement
    // is instrumented evaluation throughput, not cache-probe latency.
    // Inline execution keeps iterations deterministic (worker scheduling
    // jitter swings multi-threaded passes more than the overhead).
    let config = EngineConfig::default().without_cache().with_threads(1);
    for (name, obs) in [
        ("coverage_obs_enabled", Obs::enabled_default()),
        ("coverage_obs_disabled", Obs::disabled()),
    ] {
        let pool = Arc::new(WorkerPool::new(config.threads));
        let engine =
            Engine::with_observability(Arc::clone(&workload.db), config.clone(), pool, obs);
        let beam = workload.beam.clone();
        let examples = workload.examples.clone();
        c.bench_function(name, move |b| {
            b.iter(|| black_box(engine.covered_sets_batch(black_box(&beam), &examples)))
        });
    }
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);

//! Acceptance guard for histogram-backed costing. The ≥1.3× claim is
//! *measured* by the Criterion bench `engine_adaptive_recosting` in
//! `castor-bench/benches/micro.rs` (release mode, warm-up, sized iteration
//! counts); this suite pins the same workload in CI: on skewed data where
//! the uniform selectivity estimate mis-orders the shared join prefix, the
//! histogram cost model must beat the uniform baseline by the acceptance
//! floor with *identical* coverage results.

use castor_bench::skewed_costing_workload;
use castor_engine::{CostModelKind, Engine, EngineConfig};
use castor_relational::Tuple;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

#[test]
fn histogram_costing_outpaces_uniform_on_skewed_data() {
    let workload = skewed_costing_workload();

    // Coverage caches off on both sides: the comparison is join ordering,
    // not memoization.
    let histogram = Engine::from_arc(
        Arc::clone(&workload.db),
        EngineConfig::default().without_cache(),
    );
    let uniform = Engine::from_arc(
        Arc::clone(&workload.db),
        EngineConfig::default().with_uniform_costs().without_cache(),
    );
    assert_eq!(histogram.config().cost_model, CostModelKind::Histogram);

    // Each side measured three times, minimum kept (standard de-noised
    // estimate for a deterministic loop on shared CI runners).
    const MEASUREMENTS: usize = 3;
    let mut hist_sets: Vec<HashSet<Tuple>> = Vec::new();
    let hist_time = (0..MEASUREMENTS)
        .map(|_| {
            let start = Instant::now();
            hist_sets = histogram.covered_sets_batch(&workload.beam, &workload.examples);
            start.elapsed()
        })
        .min()
        .expect("at least one measurement");
    let mut uni_sets: Vec<HashSet<Tuple>> = Vec::new();
    let uni_time = (0..MEASUREMENTS)
        .map(|_| {
            let start = Instant::now();
            uni_sets = uniform.covered_sets_batch(&workload.beam, &workload.examples);
            start.elapsed()
        })
        .min()
        .expect("at least one measurement");

    // Identical coverage: the cost model only changes plan order/stats.
    assert_eq!(hist_sets, uni_sets, "cost models disagree on coverage");
    // Neither side exhausted a budget (exhaustion would make verdicts
    // order-dependent and the comparison vacuous).
    assert_eq!(histogram.report().budget_exhausted, 0);
    assert_eq!(uniform.report().budget_exhausted, 0);

    let speedup = uni_time.as_secs_f64() / hist_time.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 1.3,
        "histogram costing must beat uniform by ≥1.3× on skewed data, got {speedup:.2}× \
         (histogram {hist_time:?}, uniform {uni_time:?})"
    );
}

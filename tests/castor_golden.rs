//! Golden results on UW-CSE.
//!
//! * Castor: the learned definition, the number of coverage (θ-subsumption)
//!   tests, and the engine's budget-exhaustion, cache-hit, cache-miss and
//!   generality-skip counts on the fold-0 training split of each of the
//!   four schema variants.
//! * FOIL: the learned definition, the engine's coverage tests, batched
//!   sibling groups, shared-prefix hits, suffix forks, budget exhaustions,
//!   cache hits and cache misses on both training splits of each variant,
//!   with the parameters of the benchmark's `foil-uwcse` workload
//!   (constants allowed, one thread).
//!
//! The values are pinned so that a refactor of the learning path (the
//! subsumption kernel, coverage engine, reduction or minimization) cannot
//! silently change what is learned or how much search it takes. A change
//! that moves them on purpose must update this table and say why.

use castor_core::{Castor, CastorConfig};
use castor_datasets::cross_validation_folds;
use castor_datasets::uwcse::{generate, UwCseConfig};
use castor_engine::Engine;
use castor_learners::{Foil, LearnerParams};
use std::sync::Arc;

/// `(variant, learned definition, coverage tests, budget exhaustions,
/// cache hits, cache misses, generality skips)`.
type CastorGolden = (
    &'static str,
    &'static str,
    usize,
    usize,
    usize,
    usize,
    usize,
);

const GOLDEN: [CastorGolden; 4] = [
    (
        "Original",
        "advisedBy(V0,V1) ← publication(V7,V1), publication(V7,V0)",
        308,
        0,
        92,
        680,
        3,
    ),
    (
        "4NF",
        "advisedBy(V0,V1) ← publication(V7,V1), publication(V7,V0)",
        260,
        0,
        94,
        441,
        2,
    ),
    (
        "Denormalized-1",
        "advisedBy(V0,V1) ← publication(V7,V1), publication(V7,V0)",
        308,
        0,
        97,
        500,
        3,
    ),
    (
        "Denormalized-2",
        "advisedBy(V0,V1) ← publication(V3,V1), publication(V3,V0)",
        308,
        0,
        107,
        503,
        3,
    ),
];

#[test]
fn castor_uwcse_fold0_is_pinned() {
    let family = generate(&UwCseConfig::default());
    type Row = (String, String, usize, usize, usize, usize, usize);
    let learned: Vec<Row> = family
        .variants
        .iter()
        .map(|variant| {
            let config = CastorConfig {
                params: LearnerParams {
                    constant_positions: variant.constant_positions.clone(),
                    threads: 1,
                    ..LearnerParams::uwcse()
                },
                ..CastorConfig::uwcse()
            };
            let train = cross_validation_folds(&variant.task, 2)
                .swap_remove(0)
                .train;
            let engine = Engine::from_arc(Arc::clone(&variant.db), config.params.engine_config());
            let outcome = Castor::new(config).learn_in(&engine, &train);
            (
                variant.name.clone(),
                outcome.definition.to_string(),
                outcome.coverage_tests,
                outcome.engine.budget_exhausted,
                outcome.engine.cache_hits,
                outcome.engine.cache_misses,
                outcome.engine.generality_skips,
            )
        })
        .collect();
    let golden: Vec<Row> = GOLDEN
        .iter()
        .map(|&(n, d, t, e, h, m, g)| (n.to_string(), d.to_string(), t, e, h, m, g))
        .collect();
    assert_eq!(learned, golden);
}

/// `(variant, fold, learned definition, coverage tests, batches, batch
/// prefix hits, batch suffix forks, budget exhaustions, cache hits, cache
/// misses)`.
type FoilGolden = (
    &'static str,
    usize,
    &'static str,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
);

const FOIL_GOLDEN: [FoilGolden; 8] = [
    (
        "Original",
        0,
        concat!(
            "advisedBy(x,y) ← ta(N404,x,'spring')\n",
            "advisedBy(x,y) ← taughtBy(N770,y,'autumn'), yearsInProgram(x,'5')\n",
            "advisedBy(x,y) ← taughtBy(N773,y,'spring'), yearsInProgram(x,'1')\n",
            "advisedBy(x,y) ← taughtBy(N770,y,'autumn'), yearsInProgram(x,'4'), hasPosition(y,'affiliate')",
        ),
        97467,
        4,
        85062,
        32866,
        0,
        114789,
        97467,
    ),
    (
        "4NF",
        0,
        concat!(
            "advisedBy(x,y) ← student(x,N249,'5')\n",
            "advisedBy(x,y) ← student(x,N255,'7')\n",
            "advisedBy(x,y) ← taughtBy(N1019,y,'spring'), student(x,N1623,'1')\n",
            "advisedBy(x,y) ← taughtBy(N1016,y,'autumn'), student(x,N1632,'4'), professor(y,'affiliate')",
        ),
        172803,
        6,
        170980,
        44090,
        0,
        68917,
        172803,
    ),
    (
        "Denormalized-1",
        0,
        concat!(
            "advisedBy(x,y) ← student(x,N181,'5')\n",
            "advisedBy(x,y) ← student(x,N187,'7')\n",
            "advisedBy(x,y) ← taughtBy(N1216,N1217,y,'spring'), student(x,N2041,'1')\n",
            "advisedBy(x,y) ← taughtBy(N1212,N1213,y,'autumn'), student(x,N2050,'4'), professor(y,'affiliate')",
        ),
        243706,
        6,
        248105,
        65605,
        0,
        76309,
        243706,
    ),
    (
        "Denormalized-2",
        0,
        concat!(
            "advisedBy(x,y) ← student(x,N113,'5')\n",
            "advisedBy(x,y) ← student(x,N119,'7')\n",
            "advisedBy(x,y) ← taughtBy(N1326,N1327,y,'spring',N1330), student(x,N2627,'1')\n",
            "advisedBy(x,y) ← taughtBy(N1321,N1322,y,'autumn',N1325), student(x,N2636,'4'), taughtBy(N1321,N13105,'prof5',N13107,N13108)",
        ),
        344228,
        6,
        357545,
        96133,
        0,
        86517,
        344228,
    ),
    (
        "Original",
        1,
        concat!(
            "advisedBy(x,y) ← hasPosition(y,'faculty'), inPhase(x,'post_generals'), taughtBy(N2864,y,'summer'), publication(N3549,x)\n",
            "advisedBy(x,y) ← publication('pub0',y), inPhase(x,'pre_quals'), publication(N2330,x)",
        ),
        132944,
        7,
        154525,
        27823,
        0,
        31985,
        132944,
    ),
    (
        "4NF",
        1,
        concat!(
            "advisedBy(x,y) ← professor(y,'faculty'), student(x,'post_generals',N1431), taughtBy(N4084,y,'summer'), publication(N4849,x)\n",
            "advisedBy(x,y) ← publication('pub0',y), publication(N1374,x), publication(N1374,'prof6')",
        ),
        184521,
        7,
        218736,
        40105,
        0,
        33705,
        184521,
    ),
    (
        "Denormalized-1",
        1,
        concat!(
            "advisedBy(x,y) ← professor(y,'faculty'), student(x,'post_generals',N1741), taughtBy(N5126,N5127,y,'summer'), publication(N6180,x)\n",
            "advisedBy(x,y) ← publication('pub0',y), publication(N1684,x), publication(N1684,'prof6')",
        ),
        220695,
        7,
        270543,
        47640,
        0,
        37317,
        220695,
    ),
    (
        "Denormalized-2",
        1,
        "advisedBy(x,y) ← taughtBy(N1351,N1352,y,N1354,'faculty'), taughtBy(N1351,N4737,N4738,'summer',N4740), publication(N10143,x), publication(N10143,y)",
        504946,
        6,
        899360,
        299485,
        0,
        19216,
        504946,
    ),
];

#[test]
fn foil_uwcse_is_pinned() {
    let family = generate(&UwCseConfig::default());
    let mut learned = Vec::new();
    for fold in 0..2 {
        for variant in &family.variants {
            let params = LearnerParams {
                constant_positions: variant.constant_positions.clone(),
                allow_constants: true,
                threads: 1,
                ..LearnerParams::uwcse()
            };
            let train = cross_validation_folds(&variant.task, 2)
                .swap_remove(fold)
                .train;
            let engine = Engine::from_arc(Arc::clone(&variant.db), params.engine_config());
            let definition = Foil::new().learn_with_engine(&engine, &train, &params);
            let report = engine.report();
            learned.push((
                variant.name.clone(),
                fold,
                definition.to_string(),
                report.coverage_tests,
                report.batches,
                report.batch_prefix_hits,
                report.batch_suffix_forks,
                report.budget_exhausted,
                report.cache_hits,
                report.cache_misses,
            ));
        }
    }
    type Row = (
        String,
        usize,
        String,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
    );
    let golden: Vec<Row> = FOIL_GOLDEN
        .iter()
        .map(|&(n, f, d, t, b, p, s, e, h, m)| {
            (n.to_string(), f, d.to_string(), t, b, p, s, e, h, m)
        })
        .collect();
    assert_eq!(learned, golden);
}

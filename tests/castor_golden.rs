//! Golden results for Castor on UW-CSE: the learned definition, the number
//! of coverage (θ-subsumption) tests and the engine's budget-exhaustion
//! count on the fold-0 training split of each of the four schema variants.
//!
//! The values are pinned so that a refactor of the learning path (the
//! subsumption kernel, coverage engine, reduction or minimization) cannot
//! silently change what is learned or how much search it takes. A change
//! that moves them on purpose must update this table and say why.

use castor_core::{Castor, CastorConfig};
use castor_datasets::cross_validation_folds;
use castor_datasets::uwcse::{generate, UwCseConfig};
use castor_engine::Engine;
use castor_learners::LearnerParams;
use std::sync::Arc;

/// `(variant, learned definition, coverage tests, budget exhaustions)`.
const GOLDEN: [(&str, &str, usize, usize); 4] = [
    (
        "Original",
        "advisedBy(V0,V1) ← publication(V6,V1), publication(V6,V0)",
        575,
        79,
    ),
    (
        "4NF",
        "advisedBy(V0,V1) ← publication(V6,V1), publication(V6,V0)",
        524,
        113,
    ),
    (
        "Denormalized-1",
        "advisedBy(V0,V1) ← publication(V6,V1), publication(V6,V0)",
        575,
        79,
    ),
    (
        "Denormalized-2",
        "advisedBy(V0,V1) ← publication(V2,V1), publication(V2,V0)",
        572,
        99,
    ),
];

#[test]
fn castor_uwcse_fold0_is_pinned() {
    let family = generate(&UwCseConfig::default());
    let learned: Vec<(String, String, usize, usize)> = family
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
            )
        })
        .collect();
    let golden: Vec<(String, String, usize, usize)> = GOLDEN
        .iter()
        .map(|&(n, d, t, e)| (n.to_string(), d.to_string(), t, e))
        .collect();
    assert_eq!(learned, golden);
}

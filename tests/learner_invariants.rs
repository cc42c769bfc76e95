//! Learner invariants that hold on every dataset and schema variant.
//!
//! * A bottom clause θ-subsumes the ground bottom clause of its own seed:
//!   mapping every variable back to the constant it stands for is a
//!   witness. Castor's coverage test must *decide* this at the default
//!   evaluation budget, because an exhausted search counts the seed as not
//!   covered by its own bottom clause, at a rate that depends on the
//!   schema. Checked for the first four positives of every variant of
//!   UW-CSE, HIV-Large, HIV-2K4K and IMDb, with the default (equality-IND)
//!   configuration.
//! * Minimization keeps a bottom clause θ-equivalent to its input, and the
//!   equivalence is decided (`Some(true)`). Checked on UW-CSE and HIV;
//!   IMDb's bottom clauses of 300–500 literals take too long to minimize
//!   for a test.

use castor_bench::{hiv_2k4k_family, hiv_large_family, imdb_family, uwcse_family};
use castor_core::CastorConfig;
use castor_core::{castor_bottom_clause, castor_ground_bottom_clause, BottomClausePlan};
use castor_datasets::SchemaFamily;
use castor_logic::subsumption::theta_equivalent;
use castor_logic::{minimize_clause, subsumes_with_eval_budget, EvalBudget};

/// Checks the invariants for the first four positives of every variant of
/// `family`, minimizing too when `minimize` is set.
fn check(family: &SchemaFamily, base: &CastorConfig, minimize: bool) {
    let mut failures = Vec::new();
    for variant in &family.variants {
        let mut config = base.clone();
        config.params.constant_positions = variant.constant_positions.clone();
        let mut plan = BottomClausePlan::compile(variant.db.schema(), config.use_general_inds);
        plan.use_indexes = config.use_stored_procedures;
        let target = &variant.task.target;
        for seed in variant.task.positive.iter().take(4) {
            let case = format!("{} {} {seed:?}", family.name, variant.name);
            let ground = castor_ground_bottom_clause(&variant.db, &plan, target, seed, &config);
            let bottom = castor_bottom_clause(&variant.db, &plan, target, seed, &config);
            let outcome = subsumes_with_eval_budget(&bottom, &ground, &mut EvalBudget::default());
            if outcome.exhausted || !outcome.subsumes() {
                failures.push(format!(
                    "{case}: self-coverage of a {}-literal bottom clause {}",
                    bottom.body.len(),
                    if outcome.exhausted {
                        "exhausted"
                    } else {
                        "refuted"
                    }
                ));
            }
            if minimize {
                let minimized = minimize_clause(&bottom);
                let equivalent = theta_equivalent(&minimized, &bottom);
                if equivalent != Some(true) {
                    failures.push(format!(
                        "{case}: minimized {} -> {} literals, θ-equivalent {equivalent:?}",
                        bottom.body.len(),
                        minimized.body.len()
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn uwcse_bottom_clauses_cover_their_seeds_and_minimize_soundly() {
    check(&uwcse_family(), &CastorConfig::uwcse(), true);
}

#[test]
fn hiv_bottom_clauses_cover_their_seeds_and_minimize_soundly() {
    let config = CastorConfig::large_dataset();
    check(&hiv_large_family(), &config, true);
    check(&hiv_2k4k_family(), &config, true);
}

#[test]
fn imdb_bottom_clauses_cover_their_seeds() {
    check(&imdb_family(), &CastorConfig::large_dataset(), false);
}

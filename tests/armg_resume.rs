//! The resumed blocking-atom scan of `Engine::armg` against a scan that
//! restarts at the empty prefix after every removal.
//!
//! Both ARMG operators — Castor's IND-aware one (with its cascades) and
//! ProGolem's — run over real UW-CSE bottom clauses on every schema
//! variant, towards positive and negative examples, once through the
//! engine entry and once through a reference loop that re-tests every
//! prefix from the empty one through `Engine::covers`. The reference
//! removes literals with the restart-per-removal IND cascade and
//! connectivity pass the faster sweeps replaced. Each pair of fresh
//! engines must return the same clause for every call and run the same
//! number of coverage tests with the same budget exhaustions: the resumed
//! scan skips only prefixes the reference serves from the coverage cache.

use castor_core::{castor_armg, castor_bottom_clause, BottomClausePlan, CastorConfig};
use castor_datasets::cross_validation_folds;
use castor_datasets::uwcse::{generate, UwCseConfig};
use castor_engine::{Engine, EngineReport};
use castor_learners::LearnerParams;
use castor_logic::{Atom, Clause, Term};
use castor_relational::Tuple;
use std::collections::BTreeSet;
use std::sync::Arc;

/// ARMG with the blocking-atom scan restarted at the empty prefix after
/// every removal, each prefix tested through `Engine::covers`.
fn from_zero_armg(
    engine: &Engine,
    clause: &Clause,
    example: &Tuple,
    mut remove: impl FnMut(&mut Clause, usize),
) -> Option<Clause> {
    let mut current = clause.clone();
    loop {
        if engine.covers(&current, example) {
            return Some(current);
        }
        if !engine.covers(&Clause::fact(current.head.clone()), example) {
            return None;
        }
        let blocking = (0..current.body.len()).find(|&i| {
            let prefix = Clause::new(current.head.clone(), current.body[..=i].to_vec());
            !engine.covers(&prefix, example)
        })?;
        remove(&mut current, blocking);
    }
}

/// The IND cascade as a loop that removes the first orphaned literal and
/// rescans the body from the start.
fn restarting_ind_cascade(clause: &mut Clause, plan: &BottomClausePlan) {
    let project = |atom: &Atom, positions: &[usize]| -> Vec<Term> {
        positions.iter().map(|&p| atom.terms[p].clone()).collect()
    };
    'restart: loop {
        for (i, literal) in clause.body.iter().enumerate() {
            for edge in plan.edges_of(&literal.relation) {
                let partnered = clause.body.iter().enumerate().any(|(j, other)| {
                    j != i
                        && other.relation == edge.to_relation
                        && project(literal, &edge.from_positions)
                            == project(other, &edge.to_positions)
                });
                if !partnered {
                    clause.body.remove(i);
                    continue 'restart;
                }
            }
        }
        return;
    }
}

/// Head-connectivity as repeated passes over owned variable sets.
fn unconnected_removed(clause: &mut Clause) {
    let mut reachable: BTreeSet<String> = clause.head.variables();
    loop {
        let before = reachable.len();
        for atom in &clause.body {
            if atom.shares_variable_with(&reachable) {
                reachable.extend(atom.variables());
            }
        }
        if reachable.len() == before {
            break;
        }
    }
    let ground_head = clause.head.variables().is_empty();
    clause.body.retain(|a| {
        if a.variables().is_empty() {
            return ground_head;
        }
        a.shares_variable_with(&reachable)
    });
}

/// Which operator a comparison runs.
#[derive(Clone, Copy, Debug)]
enum Operator {
    Castor,
    ProGolem,
}

/// Totals of one side of a comparison.
#[derive(Debug, Default)]
struct Totals {
    calls: usize,
    cascades: usize,
}

/// Runs `operator` resumed and from zero on fresh engines over every
/// variant's bottom clauses, asserting equal clauses after every call and
/// equal test and exhaustion counts after every call. Returns the number
/// of calls and the number of removals whose IND cascade dropped more
/// than the blocking atom and its unconnected literals.
fn compare(operator: Operator) -> Totals {
    let family = generate(&UwCseConfig::default());
    let mut totals = Totals::default();
    for variant in &family.variants {
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
        let plan = BottomClausePlan::compile(variant.db.schema(), config.use_general_inds);
        let engine_config = config.params.engine_config();
        let resumed = Engine::from_arc(Arc::clone(&variant.db), engine_config.clone());
        let reference = Engine::from_arc(Arc::clone(&variant.db), engine_config);
        let targets: Vec<&Tuple> = train
            .positive
            .iter()
            .skip(2)
            .take(6)
            .chain(train.negative.iter().take(2))
            .collect();
        for seed in train.positive.iter().take(2) {
            let bottom = castor_bottom_clause(&variant.db, &plan, &train.target, seed, &config);
            for &example in &targets {
                let (got, want) = match operator {
                    Operator::Castor => {
                        let got = castor_armg(&bottom, &resumed, &plan, example);
                        let want = from_zero_armg(&reference, &bottom, example, |c, i| {
                            c.body.remove(i);
                            let mut plain = c.clone();
                            restarting_ind_cascade(c, &plan);
                            unconnected_removed(c);
                            unconnected_removed(&mut plain);
                            if c.body.len() < plain.body.len() {
                                totals.cascades += 1;
                            }
                        });
                        (got, want)
                    }
                    Operator::ProGolem => {
                        let got = castor_learners::progolem::armg(&bottom, &resumed, example);
                        let want = from_zero_armg(&reference, &bottom, example, |c, i| {
                            c.body.remove(i);
                            unconnected_removed(c);
                        });
                        (got, want)
                    }
                };
                assert_eq!(
                    got, want,
                    "{operator:?}/{}: seed {seed}, example {example}",
                    variant.name
                );
                let counts = |r: EngineReport| (r.coverage_tests, r.budget_exhausted);
                assert_eq!(
                    counts(resumed.report()),
                    counts(reference.report()),
                    "{operator:?}/{}: seed {seed}, example {example}: (tests, exhaustions)",
                    variant.name
                );
                totals.calls += 1;
            }
        }
        // The resumed scan skips prefixes instead of re-probing them.
        assert!(
            resumed.report().cache_hits < reference.report().cache_hits,
            "{operator:?}/{}: resumed {} cache hits, reference {}",
            variant.name,
            resumed.report().cache_hits,
            reference.report().cache_hits
        );
    }
    totals
}

#[test]
fn resumed_castor_armg_matches_the_from_zero_scan() {
    let totals = compare(Operator::Castor);
    assert_eq!(totals.calls, 4 * 2 * 8);
    // The IND cascades are exercised, not just plain removals.
    assert!(totals.cascades > 0, "no removal cascaded");
}

#[test]
fn resumed_progolem_armg_matches_the_from_zero_scan() {
    let totals = compare(Operator::ProGolem);
    assert_eq!(totals.calls, 4 * 2 * 8);
}

//! Property-style tests for the `castor-engine` subsystem: engine-based
//! coverage must agree with the direct database semantics
//! (`castor_logic::covers_example`) on randomly generated clauses and
//! example tuples, and the parallel worker-pool path must agree with the
//! sequential one.

use castor_datasets::synthetic::{random_definition, RandomDefinitionConfig};
use castor_datasets::uwcse;
use castor_engine::{CostModelKind, Engine, EngineConfig, Prior};
use castor_logic::{covers_example, Atom, Clause, Term};
use castor_relational::{DatabaseInstance, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The Denormalized-2 UW-CSE schema: the widest relations, which makes the
/// random clauses join-heavy.
fn schema() -> Schema {
    let original = uwcse::original_schema();
    uwcse::to_denormalized2(&original).apply_schema(&original)
}

/// A random instance of `schema`: every relation gets `rows` tuples over a
/// small shared constant pool, so joins actually connect.
fn random_instance(schema: &Schema, rows: usize, rng: &mut StdRng) -> DatabaseInstance {
    let mut db = DatabaseInstance::empty(schema);
    let pool: Vec<String> = (0..12).map(|i| format!("c{i}")).collect();
    for relation in schema.relations() {
        for _ in 0..rows {
            let tuple = Tuple::new(
                (0..relation.arity())
                    .map(|_| Value::str(pool[rng.gen_range(0..pool.len())].clone()))
                    .collect::<Vec<_>>(),
            );
            db.insert(relation.name(), tuple).expect("schema relation");
        }
    }
    db
}

/// Random candidate example tuples for a clause head of the given arity.
fn random_examples(arity: usize, count: usize, rng: &mut StdRng) -> Vec<Tuple> {
    (0..count)
        .map(|_| {
            Tuple::new(
                (0..arity)
                    .map(|_| Value::str(format!("c{}", rng.gen_range(0..12))))
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Random clauses shaped like learner candidates, drawn through the
/// dataset crate's generator plus their ARMG-style prefixes.
fn random_clauses(schema: &Schema, seed: u64) -> Vec<Clause> {
    let mut out = Vec::new();
    for (i, vars) in (4..=7).enumerate() {
        let def = random_definition(
            schema,
            "target",
            &RandomDefinitionConfig {
                clauses: 2,
                variables_per_clause: vars,
                target_arity: 2,
                seed: seed + i as u64,
            },
        );
        for clause in def.clauses {
            for len in 1..=clause.body.len() {
                let mut prefix = Clause::new(clause.head.clone(), clause.body[..len].to_vec());
                prefix.remove_unconnected();
                out.push(prefix);
            }
        }
    }
    out
}

#[test]
fn engine_coverage_agrees_with_database_semantics() {
    let schema = schema();
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let db = random_instance(&schema, 25, &mut rng);
        let engine = Engine::new(&db, EngineConfig::default());
        let clauses = random_clauses(&schema, 7 * seed);
        let examples = random_examples(2, 20, &mut rng);
        for clause in &clauses {
            for example in &examples {
                assert_eq!(
                    engine.covers(clause, example),
                    covers_example(clause, &db, example),
                    "seed {seed}: engine disagrees with covers_example on \
                     clause `{clause}` and example {example}"
                );
            }
        }
        // The report must account for real work without budget exhaustion
        // (otherwise the equivalence above would be vacuous).
        let report = engine.report();
        assert!(report.coverage_tests > 0);
        assert_eq!(report.budget_exhausted, 0, "budget too small for test db");
    }
}

#[test]
fn histogram_cost_model_never_changes_coverage_results() {
    // The cost model only changes plan order and statistics — never
    // verdicts. Per-clause and batched scoring over seeded-random clauses
    // must agree exactly between the histogram default and the uniform
    // baseline (budgets generous enough that no side exhausts, which keeps
    // verdicts order-independent).
    let schema = schema();
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let db = random_instance(&schema, 25, &mut rng);
        let histogram = Engine::new(&db, EngineConfig::default());
        let uniform = Engine::new(&db, EngineConfig::default().with_uniform_costs());
        assert_eq!(histogram.config().cost_model, CostModelKind::Histogram);
        assert_eq!(uniform.config().cost_model, CostModelKind::Uniform);
        let clauses = random_clauses(&schema, 19 * seed);
        let examples = random_examples(2, 20, &mut rng);
        for clause in &clauses {
            assert_eq!(
                histogram.covered_set(clause, &examples, Prior::None),
                uniform.covered_set(clause, &examples, Prior::None),
                "seed {seed}: cost models disagree on `{clause}`"
            );
        }
        // The batched trie path agrees too (fresh engines so nothing is
        // answered from the memo cache).
        let hist_batch = Engine::new(&db, EngineConfig::default());
        let uni_batch = Engine::new(&db, EngineConfig::default().with_uniform_costs());
        assert_eq!(
            hist_batch.covered_sets_batch(&clauses, &examples),
            uni_batch.covered_sets_batch(&clauses, &examples),
            "seed {seed}: batched cost models disagree"
        );
        for engine in [&histogram, &uniform, &hist_batch, &uni_batch] {
            assert_eq!(
                engine.report().budget_exhausted,
                0,
                "budget too small for the equivalence to be meaningful"
            );
        }
    }
}

#[test]
fn parallel_and_sequential_engine_paths_agree() {
    let schema = schema();
    for seed in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let db = random_instance(&schema, 25, &mut rng);
        let sequential = Engine::new(&db, EngineConfig::default());
        let parallel = Engine::new(&db, EngineConfig::default().with_threads(4));
        let clauses = random_clauses(&schema, 31 * seed);
        let examples = random_examples(2, 48, &mut rng);
        for clause in &clauses {
            let seq: HashSet<Tuple> = sequential.covered_set(clause, &examples, Prior::None);
            let par: HashSet<Tuple> = parallel.covered_set(clause, &examples, Prior::None);
            assert_eq!(
                seq, par,
                "seed {seed}: worker-pool path diverged on clause `{clause}`"
            );
        }
    }
}

#[test]
fn batched_beam_scoring_matches_per_clause_results() {
    // coverage_counts_batch / covered_sets_batch over seeded-random clause
    // beams must produce exactly the per-clause covered_set results. The
    // random clause list mixes prefixes of several definitions, so one
    // batch holds genuine sibling groups (shared prefixes) alongside
    // unrelated candidates — both trie sharing and the per-clause fallback
    // are exercised in the same call.
    let schema = schema();
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let db = random_instance(&schema, 25, &mut rng);
        let batched = Engine::new(&db, EngineConfig::default());
        let solo = Engine::new(&db, EngineConfig::default());
        let beam = random_clauses(&schema, 11 * seed);
        let examples = random_examples(2, 20, &mut rng);
        let sets = batched.covered_sets_batch(&beam, &examples);
        assert_eq!(sets.len(), beam.len());
        for (clause, set) in beam.iter().zip(&sets) {
            assert_eq!(
                set,
                &solo.covered_set(clause, &examples, Prior::None),
                "seed {seed}: batch diverged from per-clause scoring on `{clause}`"
            );
            // And against the direct database semantics.
            let reference: HashSet<Tuple> = examples
                .iter()
                .filter(|e| covers_example(clause, &db, e))
                .cloned()
                .collect();
            assert_eq!(
                set, &reference,
                "seed {seed}: batch diverged from covers_example on `{clause}`"
            );
        }
        let report = batched.report();
        assert_eq!(report.budget_exhausted, 0, "budget too small for test db");
        assert!(report.batches >= 1, "no trie group formed: {report}");
        // Batched and per-clause parallel paths agree too.
        let parallel = Engine::new(&db, EngineConfig::default().with_threads(4));
        let many: Vec<Tuple> = examples.iter().cycle().take(60).cloned().collect();
        assert_eq!(
            parallel.covered_sets_batch(&beam, &many),
            Engine::new(&db, EngineConfig::default()).covered_sets_batch(&beam, &many)
        );
    }
}

#[test]
fn batched_scoring_under_tight_budgets_stays_sound() {
    // Mixed budget/exhaustion outcomes: under any budget the batched path
    // may miss coverage (false negatives are the documented budget
    // semantics) but must never invent it, must count its exhaustions, and
    // with a zero budget must report every candidate as uncovered exactly
    // like the per-clause path does.
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(5000);
    let db = random_instance(&schema, 25, &mut rng);
    let beam = random_clauses(&schema, 13);
    let examples = random_examples(2, 16, &mut rng);
    let ample = Engine::new(&db, EngineConfig::default());
    let truth = ample.covered_sets_batch(&beam, &examples);
    assert_eq!(ample.report().budget_exhausted, 0);

    for budget in [0usize, 1, 8, 64] {
        let starved = Engine::new(&db, EngineConfig::default().with_eval_budget(budget));
        let sets = starved.covered_sets_batch(&beam, &examples);
        for ((clause, set), full) in beam.iter().zip(&sets).zip(&truth) {
            assert!(
                set.is_subset(full),
                "budget {budget}: batch invented coverage on `{clause}`"
            );
        }
        if budget == 0 {
            // With no nodes to spend, neither path explores a single tuple:
            // only empty-bodied candidates (head-binding decides) can be
            // covered, and the batched verdicts match per-clause verdicts
            // exactly.
            let solo = Engine::new(&db, EngineConfig::default().with_eval_budget(0));
            for (clause, set) in beam.iter().zip(&sets) {
                assert_eq!(
                    set,
                    &solo.covered_set(clause, &examples, Prior::None),
                    "zero-budget batch diverged on `{clause}`"
                );
                assert!(set.is_empty() || clause.body.is_empty());
            }
            assert!(
                starved.report().budget_exhausted > 0,
                "zero budget must be reported as exhaustion"
            );
        }
    }
}

#[test]
fn batched_priors_match_scoring_from_scratch() {
    // The generality order through the batched path: scoring children with
    // Prior::GeneralizationOf(parent) must equal scoring them from scratch
    // whenever the children really are more general (body prefixes).
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(6000);
    let db = random_instance(&schema, 25, &mut rng);
    let engine = Engine::new(&db, EngineConfig::default());
    let fresh = Engine::new(&db, EngineConfig::default());
    let examples = random_examples(2, 20, &mut rng);
    for clause in random_clauses(&schema, 17) {
        if clause.body.len() < 2 {
            continue;
        }
        let mut child = Clause::new(
            clause.head.clone(),
            clause.body[..clause.body.len() - 1].to_vec(),
        );
        child.remove_unconnected();
        engine.covered_set(&clause, &examples, Prior::None);
        let beam = vec![child.clone()];
        let priors = vec![Prior::GeneralizationOf(&clause)];
        let with_prior = engine.covered_sets_batch_with_priors(&beam, &priors, &examples);
        let from_scratch = fresh.covered_sets_batch(&beam, &examples);
        assert_eq!(
            with_prior, from_scratch,
            "batched prior changed semantics on `{child}`"
        );
    }
}

#[test]
fn generality_prior_never_invents_coverage() {
    // Soundness of the generality-order shortcut: a covered_set computed
    // with Prior::GeneralizationOf(parent) must equal the one computed from
    // scratch whenever the child really is more general (here: a prefix of
    // the parent's body, which can only cover more).
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(3000);
    let db = random_instance(&schema, 25, &mut rng);
    let engine = Engine::new(&db, EngineConfig::default());
    let fresh = Engine::new(&db, EngineConfig::default());
    let examples = random_examples(2, 20, &mut rng);
    for clause in random_clauses(&schema, 5) {
        if clause.body.len() < 2 {
            continue;
        }
        let mut child = Clause::new(
            clause.head.clone(),
            clause.body[..clause.body.len() - 1].to_vec(),
        );
        child.remove_unconnected();
        engine.covered_set(&clause, &examples, Prior::None);
        let with_prior = engine.covered_set(&child, &examples, Prior::GeneralizationOf(&clause));
        let from_scratch = fresh.covered_set(&child, &examples, Prior::None);
        assert_eq!(
            with_prior, from_scratch,
            "prior changed semantics on `{child}`"
        );
    }
}

/// A random body literal over `schema`: variables are drawn from `vars`
/// (growing it when a fresh one is picked), with an occasional constant.
fn random_literal(schema: &Schema, vars: &mut Vec<String>, rng: &mut StdRng) -> Atom {
    let relations: Vec<_> = schema.relations().collect();
    let relation = relations[rng.gen_range(0..relations.len())];
    let terms = (0..relation.arity())
        .map(|_| {
            if rng.gen_bool(0.15) {
                Term::constant(format!("c{}", rng.gen_range(0..12)))
            } else if rng.gen_bool(0.3) {
                let fresh = format!("z{}", vars.len());
                vars.push(fresh.clone());
                Term::var(fresh)
            } else {
                Term::var(vars[rng.gen_range(0..vars.len())].clone())
            }
        })
        .collect();
    Atom::new(relation.name(), terms)
}

/// A shuffled beam over several head groups: per head, a few parent bodies
/// (distinct first literals, hence distinct trie roots) each with a handful
/// of siblings that append one literal, as beam refinement produces them.
/// The shuffle interleaves the slots of different roots and head groups.
fn random_multi_root_beam(schema: &Schema, rng: &mut StdRng) -> Vec<Clause> {
    let heads = [
        Atom::vars("target", &["x", "y"]),
        Atom::vars("target", &["x", "x"]),
        Atom::new("target", vec![Term::var("x"), Term::constant("c3")]),
        Atom::vars("other", &["x", "y"]),
    ];
    let mut beam = Vec::new();
    for head in &heads {
        for _ in 0..3 {
            let mut vars: Vec<String> = head.variables().into_iter().collect();
            let parent: Vec<Atom> = (0..rng.gen_range(1..=2))
                .map(|_| random_literal(schema, &mut vars, rng))
                .collect();
            beam.push(Clause::new(head.clone(), parent.clone()));
            for _ in 0..rng.gen_range(2..=4) {
                let mut sibling_vars = vars.clone();
                let mut body = parent.clone();
                body.push(random_literal(schema, &mut sibling_vars, rng));
                beam.push(Clause::new(head.clone(), body));
            }
        }
    }
    beam.shuffle(rng);
    beam
}

#[test]
fn batched_verdicts_hold_across_roots_with_sparse_live_masks() {
    // Each trie root decides only its own candidates, through a local
    // numbering of the batch's slots. Interleaved slots (shuffled beams
    // over several heads and roots) and sparse per-example live masks
    // (most pairs already answered by the memo cache) must still land
    // every verdict on the right (clause, example) pair.
    let schema = schema();
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(8000 + seed);
        let db = random_instance(&schema, 25, &mut rng);
        let beam = random_multi_root_beam(&schema, &mut rng);
        let examples = random_examples(2, 24, &mut rng);
        for threads in [1, 2] {
            let engine = Engine::new(&db, EngineConfig::default().with_threads(threads));
            // Warm the cache with about two thirds of the pairs, so each
            // example leaves a different sparse set of slots to the trie.
            for clause in &beam {
                let warm: Vec<Tuple> = examples
                    .iter()
                    .filter(|_| rng.gen_bool(0.65))
                    .cloned()
                    .collect();
                engine.covered_set(clause, &warm, Prior::None);
            }
            let before = engine.report();
            let sets = engine.covered_sets_batch(&beam, &examples);
            let after = engine.report();
            assert!(
                after.batches > before.batches,
                "seed {seed}: no trie group formed"
            );
            assert!(
                after.coverage_tests > before.coverage_tests,
                "seed {seed}: the batch ran no test of its own"
            );
            assert_eq!(after.budget_exhausted, 0, "budget too small for test db");
            for (clause, set) in beam.iter().zip(&sets) {
                let reference: HashSet<Tuple> = examples
                    .iter()
                    .filter(|e| covers_example(clause, &db, e))
                    .cloned()
                    .collect();
                assert_eq!(
                    set, &reference,
                    "seed {seed}, {threads} threads: batch diverged from \
                     covers_example on `{clause}`"
                );
            }
        }
    }
}

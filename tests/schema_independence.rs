//! Cross-crate integration tests: the end-to-end schema-independence
//! property on the synthetic UW-CSE family, exercised through the public
//! APIs of `castor-datasets`, `castor-core`, `castor-learners`,
//! `castor-transform`, and `castor-eval` together.

use castor_core::{Castor, CastorConfig};
use castor_datasets::uwcse::{generate, UwCseConfig};
use castor_datasets::SchemaFamily;
use castor_eval::{evaluate_definition, schema_independent, EvaluationResult};
use castor_learners::LearnerParams;
use castor_logic::{Atom, Clause, Term};
use castor_relational::{RelationSymbol, Schema};
use castor_transform::{
    map_clause_through_step, verify_information_equivalence, CanonicalSchema, TransformStep,
    Transformation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tiny_family() -> SchemaFamily {
    generate(&UwCseConfig {
        students: 12,
        professors: 4,
        courses: 5,
        noise_fraction: 0.0,
        seed: 21,
        ..Default::default()
    })
}

#[test]
fn uwcse_variants_are_information_equivalent() {
    // The 4NF variant is obtained from the Original instance through the
    // composition; round-tripping through the transformation and back must
    // reproduce the instance (bijectivity on this instance).
    let family = tiny_family();
    let original = family.variant("Original").unwrap();
    let schema = castor_datasets::uwcse::original_schema();
    for tau in [
        castor_datasets::uwcse::to_4nf(&schema),
        castor_datasets::uwcse::to_denormalized1(&schema),
        castor_datasets::uwcse::to_denormalized2(&schema),
    ] {
        let report = verify_information_equivalence(&tau, &original.db).unwrap();
        assert!(
            report.is_equivalent(),
            "transformation {} must be information preserving",
            tau.name()
        );
    }
}

#[test]
fn castor_is_schema_independent_end_to_end() {
    let family = tiny_family();
    let mut evaluations: Vec<EvaluationResult> = Vec::new();
    for variant in &family.variants {
        let mut config = CastorConfig::uwcse();
        config.params = LearnerParams {
            constant_positions: variant.constant_positions.clone(),
            ..LearnerParams::uwcse()
        };
        let outcome = Castor::new(config).learn(&variant.db, &variant.task);
        let eval = evaluate_definition(
            &outcome.definition,
            &variant.db,
            &variant.task.positive,
            &variant.task.negative,
        );
        evaluations.push(eval);
    }
    assert!(
        schema_independent(&evaluations, 1e-9),
        "Castor must deliver equal precision/recall across schema variants: {:?}",
        evaluations
            .iter()
            .map(|e| (e.precision(), e.recall()))
            .collect::<Vec<_>>()
    );
    assert!(evaluations[0].recall() > 0.5);
}

/// A random lossless star decomposition of one wide relation: every part
/// carries the key attributes, the non-key attributes are scattered over
/// the parts, and no part is empty.
fn random_decomposition(rng: &mut StdRng) -> (Schema, TransformStep, usize) {
    let arity = rng.gen_range(3..=6);
    let attrs: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
    let mut schema = Schema::new("random");
    schema.add_relation(RelationSymbol::new("wide", &attrs));
    schema.add_relation(RelationSymbol::new("aux", &["l", "r"]));

    let key_len = rng.gen_range(1..=2);
    let key: Vec<String> = attrs[..key_len].to_vec();
    let rest: Vec<String> = attrs[key_len..].to_vec();
    let n_parts = rng.gen_range(2..=rest.len().clamp(2, 3));
    let mut part_attrs: Vec<Vec<String>> = vec![key.clone(); n_parts];
    for (i, attr) in rest.iter().enumerate() {
        // The first `n_parts` non-key attributes seed one part each so
        // every part constrains something beyond the key.
        let p = if i < n_parts {
            i
        } else {
            rng.gen_range(0..n_parts)
        };
        part_attrs[p].push(attr.clone());
    }
    let names: Vec<String> = (0..n_parts).map(|i| format!("part{i}")).collect();
    let parts: Vec<(&str, &[String])> = names
        .iter()
        .zip(&part_attrs)
        .map(|(n, a)| (n.as_str(), a.as_slice()))
        .collect();
    let step = TransformStep::decompose(&schema, "wide", &parts);
    (schema, step, arity)
}

/// A random clause over the `wide`/`aux` schema: joins, repeated
/// relations, constants, and shared variables in arbitrary positions.
fn random_clause(rng: &mut StdRng, arity: usize) -> Clause {
    let mut pool: Vec<String> = vec!["x".into(), "y".into()];
    let mut fresh = 0usize;
    let mut term = |rng: &mut StdRng, pool: &mut Vec<String>| -> Term {
        let roll = rng.gen_range(0..100u32);
        if roll < 15 {
            Term::constant(format!("c{}", rng.gen_range(0..3)))
        } else if roll < 55 && !pool.is_empty() {
            Term::var(pool[rng.gen_range(0..pool.len())].clone())
        } else {
            fresh += 1;
            let name = format!("v{fresh}");
            pool.push(name.clone());
            Term::var(name)
        }
    };
    let mut body = Vec::new();
    for _ in 0..rng.gen_range(1..=3) {
        let terms: Vec<Term> = (0..arity).map(|_| term(rng, &mut pool)).collect();
        body.push(Atom::new("wide", terms));
    }
    for _ in 0..rng.gen_range(0..=2) {
        let terms: Vec<Term> = (0..2).map(|_| term(rng, &mut pool)).collect();
        body.push(Atom::new("aux", terms));
    }
    Clause::new(Atom::vars("t", &["x", "y"]), body)
}

/// Property: composition is the exact inverse of decomposition on clauses
/// — mapping any clause through a random lossless decomposition and back
/// through its inverse composition reproduces the clause literal-for-
/// literal, whatever joins, constants, and repeated literals it contains.
/// This is the identity the `CanonicalSchema` lenses stand on.
#[test]
fn compose_after_decompose_is_the_identity_on_random_clauses() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, step, arity) = random_decomposition(&mut rng);
        let tau = Transformation::new("random-split", vec![step]);
        for _ in 0..5 {
            let clause = random_clause(&mut rng, arity);
            let mut split = clause.clone();
            for step in tau.steps() {
                split = map_clause_through_step(&split, step);
            }
            let mut merged = split.clone();
            for step in tau.invert().steps() {
                merged = map_clause_through_step(&merged, step);
            }
            assert_eq!(
                merged, clause,
                "seed {seed}: compose ∘ decompose must be the identity\n\
                 split through {tau:?} gave {split:?}"
            );
        }
    }
}

/// Property (Proposition 3.7): the definition mapping δτ relates a clause
/// to its image in every UW-CSE variant, so the δτ images of one clause,
/// each pulled back through its variant's canonical lens, are θ-equivalent
/// to one another — the same hypothesis, whatever schema expresses it.
#[test]
fn variant_images_collapse_to_theta_equivalent_canonical_clauses() {
    use castor_logic::subsumption::theta_equivalent;

    let original = castor_datasets::uwcse::original_schema();
    let canonical = CanonicalSchema::anchor(
        &original,
        castor_datasets::uwcse::to_denormalized2(&original),
    );
    let taus = [
        Transformation::identity("original-to-original"),
        castor_datasets::uwcse::to_4nf(&original),
        castor_datasets::uwcse::to_denormalized1(&original),
        castor_datasets::uwcse::to_denormalized2(&original),
    ];
    let clauses = castor_datasets::uwcse::ground_truth_original().clauses;
    assert!(!clauses.is_empty());
    for clause in &clauses {
        let reference = canonical.lens_for(&taus[0]).map_clause(clause);
        for tau in &taus[1..] {
            // The clause a tenant of this variant would submit: the δτ
            // image of the Original-schema clause.
            let mut image = clause.clone();
            for step in tau.steps() {
                image = map_clause_through_step(&image, step);
            }
            let through_lens = canonical.lens_for(tau).map_clause(&image);
            assert!(
                theta_equivalent(&through_lens, &reference) == Some(true),
                "{}: canonical image diverges for {clause:?}:\n\
                 reference {reference:?}\nthrough lens {through_lens:?}",
                tau.name()
            );
        }
    }
}

#[test]
fn ground_truth_definitions_agree_across_variants() {
    let family = tiny_family();
    let reference = {
        let v = family.variant("Original").unwrap();
        castor_logic::definition_results(v.ground_truth.as_ref().unwrap(), &v.db)
    };
    for variant in &family.variants {
        let results =
            castor_logic::definition_results(variant.ground_truth.as_ref().unwrap(), &variant.db);
        assert_eq!(results, reference, "variant {} diverges", variant.name);
    }
}

//! # castor-bench
//!
//! Experiment harness reproducing every table and figure of the evaluation
//! section of *Schema Independent Relational Learning* (Section 9).
//!
//! Each `tableN_*` / `figureN_*` function builds the corresponding synthetic
//! dataset family, runs the algorithms the paper compares, and renders a
//! plain-text table in the shape of the paper's table. The binaries under
//! `src/bin/` are thin wrappers that print those tables; the Criterion
//! benches under `benches/` cover the micro-benchmarks (subsumption,
//! bottom-clause construction, joins, lgg).
//!
//! Scales are reduced relative to the paper (the datasets are synthetic and
//! laptop-sized — see `castor-datasets`), so absolute numbers differ; the
//! comparisons the paper draws (who wins, schema (in)dependence, where the
//! top-down learners fail) are what these harnesses reproduce.

use castor_core::CastorConfig;
use castor_datasets::{hiv, imdb, synthetic, uwcse, SchemaFamily};
use castor_eval::{run_algorithm_over_family, AlgorithmKind, ExperimentRow};
use castor_learners::{LearnerParams, LogAnH, Oracle};
use castor_logic::Clause;
use castor_relational::{Constraint, DatabaseInstance, Schema};
use castor_transform::map_definition_through_decomposition;
use std::fmt::Write as _;
use std::time::Instant;

/// Number of cross-validation folds used by the harness (the paper uses 5
/// and 10; 2 keeps the full suite fast while preserving train/test splits).
pub const HARNESS_FOLDS: usize = 2;

/// A candidate sequence shaped like a covering run over a variant's ground
/// truth: its head-connected prefixes (ARMG-style generalizations) plus
/// α-renamed variants of each (beam survivors get re-scored, ARMG
/// regenerates the same generalization under fresh names). Shared by the
/// engine micro-benchmark and the CI speedup guard so both measure the
/// same workload.
pub fn coverage_candidate_sequence(variant: &castor_datasets::DatasetVariant) -> Vec<Clause> {
    let base = variant
        .ground_truth
        .clone()
        .expect("variant has a ground truth")
        .clauses[0]
        .clone();
    let mut out = Vec::new();
    for len in 1..=base.body.len() {
        let mut prefix = Clause::new(base.head.clone(), base.body[..len].to_vec());
        prefix.remove_unconnected();
        out.push(prefix.standardize_apart(1));
        out.push(prefix.standardize_apart(2));
        out.push(prefix);
    }
    out
}

/// A beam of sibling candidate clauses shaped like one level of beam
/// refinement: the variant's ground-truth body is the shared prefix, and
/// each sibling appends one distinct trailing literal (every relation ×
/// position × existing-variable placement, FOIL-style, until `width`
/// candidates exist). Scoring this beam per clause re-joins the shared
/// prefix `width` times per example; the batched engine path joins it
/// once. Shared by the batched-evaluation micro-benchmark and the CI
/// speedup guard so both measure the same workload.
pub fn beam_candidate_batch(
    variant: &castor_datasets::DatasetVariant,
    width: usize,
) -> Vec<Clause> {
    use castor_logic::{Atom, Term};
    let base = variant
        .ground_truth
        .clone()
        .expect("variant has a ground truth")
        .clauses[0]
        .clone();
    let vars: Vec<String> = base.variables().into_iter().collect();
    let mut out = Vec::new();
    let mut fresh = 0usize;
    'outer: for relation in variant.db.schema().relations() {
        let arity = relation.arity();
        if arity == 0 {
            continue;
        }
        for pos in 0..arity {
            for var in &vars {
                let terms: Vec<Term> = (0..arity)
                    .map(|i| {
                        if i == pos {
                            Term::var(var.clone())
                        } else {
                            fresh += 1;
                            Term::var(format!("F{fresh}"))
                        }
                    })
                    .collect();
                let mut sibling = base.clone();
                sibling.push(Atom::new(relation.name(), terms));
                out.push(sibling);
                if out.len() == width {
                    break 'outer;
                }
            }
        }
    }
    out
}

/// A synthetic workload where the uniform selectivity estimate mis-orders
/// joins: the decomposed-schema skew case of "SQL for SRL"-style costing.
///
/// `skewed(a, b)` hides ten hub keys (hundreds of rows each) behind
/// thousands of singleton filler keys, so `cardinality / distinct` prices a
/// bound-key probe at ~2 rows while a hub probe really returns hundreds.
/// `mid(a, b)` is genuinely uniform (10 rows per key) and shares *both*
/// variables with `skewed`, so running it first turns the skewed literal
/// into an exact two-column probe. The uniform model schedules `skewed`
/// first (2 < 10) and enumerates every hub row per negative example; the
/// histogram model's frequency-weighted estimate (~hundreds vs 10) flips
/// the order. The beam appends one `sel_k(y)` literal per sibling, so the
/// mis-ordered join sits in the *shared* trie prefix. The workload compares
/// cost models only: both sides run the same engine otherwise.
pub struct SkewedCostingWorkload {
    /// The skewed database.
    pub db: std::sync::Arc<DatabaseInstance>,
    /// One level of beam siblings sharing the badly-ordered prefix.
    pub beam: Vec<Clause>,
    /// Probe examples for the unary head (hubs, fillers, and misses; most
    /// are negative, which forces full prefix enumeration).
    pub examples: Vec<castor_relational::Tuple>,
}

/// Builds the skewed-costing workload shared by the Criterion bench
/// `engine_adaptive_recosting` and the CI guard
/// `tests/engine_adaptive_costing.rs`.
pub fn skewed_costing_workload() -> SkewedCostingWorkload {
    use castor_logic::Atom;
    use castor_relational::{RelationSymbol, Tuple};

    const HUBS: usize = 10;
    const ROWS_PER_HUB: usize = 600;
    const FILLERS: usize = 5_000;
    const MID_PER_HUB: usize = 10;
    const SELS: usize = 8;

    let mut schema = Schema::new("skew-cost");
    schema
        .add_relation(RelationSymbol::new("skewed", &["a", "b"]))
        .add_relation(RelationSymbol::new("mid", &["a", "b"]));
    for k in 0..SELS {
        schema.add_relation(RelationSymbol::new(format!("sel{k}"), &["b"]));
    }
    let mut db = DatabaseInstance::empty(&schema);
    for h in 0..HUBS {
        for j in 0..ROWS_PER_HUB {
            db.insert(
                "skewed",
                Tuple::from_strs(&[&format!("h{h}"), &format!("v{h}_{j}")]),
            )
            .unwrap();
        }
        // `mid` values mostly miss the skewed values (negative prefixes);
        // the first two hubs get one join partner so coverage exists.
        for j in 0..MID_PER_HUB {
            db.insert(
                "mid",
                Tuple::from_strs(&[&format!("h{h}"), &format!("m{h}_{j}")]),
            )
            .unwrap();
        }
        if h < 2 {
            db.insert(
                "mid",
                Tuple::from_strs(&[&format!("h{h}"), &format!("v{h}_0")]),
            )
            .unwrap();
        }
    }
    for f in 0..FILLERS {
        db.insert(
            "skewed",
            Tuple::from_strs(&[&format!("f{f}"), &format!("g{f}")]),
        )
        .unwrap();
    }
    for k in 0..SELS {
        // Even selectors accept the joinable values, odd ones accept none.
        if k % 2 == 0 {
            for h in 0..HUBS {
                db.insert(&format!("sel{k}"), Tuple::from_strs(&[&format!("v{h}_0")]))
                    .unwrap();
            }
        } else {
            db.insert(&format!("sel{k}"), Tuple::from_strs(&["nothing"]))
                .unwrap();
        }
    }

    let head = Atom::vars("t", &["x"]);
    let prefix = vec![
        Atom::vars("skewed", &["x", "y"]),
        Atom::vars("mid", &["x", "y"]),
    ];
    let beam: Vec<Clause> = (0..SELS)
        .map(|k| {
            let mut body = prefix.clone();
            body.push(Atom::vars(format!("sel{k}"), &["y"]));
            Clause::new(head.clone(), body)
        })
        .collect();

    let mut examples: Vec<Tuple> = (0..HUBS)
        .map(|h| Tuple::from_strs(&[&format!("h{h}")]))
        .collect();
    examples.extend((0..5).map(|f| Tuple::from_strs(&[&format!("f{f}")])));
    examples.extend((0..5).map(|m| Tuple::from_strs(&[&format!("absent{m}")])));

    SkewedCostingWorkload {
        db: std::sync::Arc::new(db),
        beam,
        examples,
    }
}

/// The coverage workload shared by the Criterion bench `obs_overhead`
/// and the CI guard `tests/obs_overhead.rs`: a
/// beam of sibling candidates over an enlarged UW-CSE instance, sized so
/// one uncached batched pass costs tens of milliseconds — large enough
/// that the per-batch instrumentation (a few clock reads, one histogram
/// record, one span push) must stay in the noise.
pub struct ObsOverheadWorkload {
    /// The enlarged UW-CSE database.
    pub db: std::sync::Arc<DatabaseInstance>,
    /// One level of beam refinement (sibling candidates, shared prefix).
    pub beam: Vec<Clause>,
    /// All labeled examples of the variant's task.
    pub examples: Vec<castor_relational::Tuple>,
}

/// Builds the [`ObsOverheadWorkload`].
pub fn obs_overhead_workload() -> ObsOverheadWorkload {
    let family = uwcse::generate(&uwcse::UwCseConfig {
        students: 400,
        professors: 60,
        courses: 120,
        ..Default::default()
    });
    let variant = family.variant("Original").expect("family has Original");
    let beam = beam_candidate_batch(variant, 32);
    let examples = variant
        .task
        .positive
        .iter()
        .chain(variant.task.negative.iter())
        .cloned()
        .collect();
    ObsOverheadWorkload {
        db: std::sync::Arc::clone(&variant.db),
        beam,
        examples,
    }
}

/// Builds the (reduced-scale) UW-CSE family used by the harness.
pub fn uwcse_family() -> SchemaFamily {
    uwcse::generate(&uwcse::UwCseConfig::default())
}

/// The coverage job shared by the Criterion bench `rpc_idle_sessions`
/// and the CI guard `tests/rpc_overhead.rs`: an
/// 8-candidate beam scored over a fixed example slice of the enlarged
/// UW-CSE task. The pinned transport bound uses the *score* shape
/// (coverage evaluation over both example lists, per-clause counts
/// back) because its response is a few dozen bytes: the roundtrip is
/// evaluation-dominated, so a loopback hop's fixed cost fits inside a
/// 1.2× budget and any event-loop pathology (a poll timeout on the
/// response path, Nagle-style delays, per-roundtrip syscall storms)
/// blows the ratio immediately. The covered-sets shape is measured
/// alongside it: its response re-materializes every covered tuple on
/// the client, so its wire cost is payload-bound, not loop-bound.
pub struct RpcRoundtripWorkload {
    /// The enlarged UW-CSE database.
    pub db: std::sync::Arc<DatabaseInstance>,
    /// One level of beam refinement (sibling candidates, shared prefix).
    pub beam: Vec<Clause>,
    /// A fixed-size positive-example slice.
    pub positive: Vec<castor_relational::Tuple>,
    /// A fixed-size negative-example slice.
    pub negative: Vec<castor_relational::Tuple>,
}

/// Builds the [`RpcRoundtripWorkload`].
pub fn rpc_roundtrip_workload() -> RpcRoundtripWorkload {
    let family = uwcse::generate(&uwcse::UwCseConfig {
        students: 400,
        professors: 60,
        courses: 120,
        ..Default::default()
    });
    let variant = family.variant("Original").expect("family has Original");
    // Wide beam, modest example slice: evaluation cost scales with
    // beam × examples while the request payload is dominated by the
    // example tuples alone — so widening the beam raises the
    // evaluation-to-wire proportion the transport bound needs.
    let beam = beam_candidate_batch(variant, 32);
    let positive = variant.task.positive.iter().take(128).cloned().collect();
    let negative = variant.task.negative.iter().take(128).cloned().collect();
    RpcRoundtripWorkload {
        db: std::sync::Arc::clone(&variant.db),
        beam,
        positive,
        negative,
    }
}

/// Builds the (reduced-scale) HIV-Large family.
pub fn hiv_large_family() -> SchemaFamily {
    hiv::generate("HIV-Large", &hiv::HivConfig::large())
}

/// Builds the (reduced-scale) HIV-2K4K family.
pub fn hiv_2k4k_family() -> SchemaFamily {
    hiv::generate("HIV-2K4K", &hiv::HivConfig::hiv_2k4k())
}

/// Builds the (reduced-scale) IMDb family.
pub fn imdb_family() -> SchemaFamily {
    imdb::generate(&imdb::ImdbConfig::default())
}

/// Table 2: dataset statistics (#relations, #tuples, #positives,
/// #negatives) for every variant of every family.
pub fn table2_statistics() -> String {
    let mut out = String::from("== Table 2: dataset statistics ==\n");
    for family in [
        hiv_large_family(),
        hiv_2k4k_family(),
        uwcse_family(),
        imdb_family(),
    ] {
        for stat in castor_datasets::dataset_statistics(&family) {
            let _ = writeln!(out, "{stat}");
        }
    }
    out
}

/// Table 9: HIV-Large and HIV-2K4K — Aleph-FOIL, Aleph-Progol, and Castor
/// over the Initial / 4NF-1 / 4NF-2 schemas.
pub fn table9_hiv() -> String {
    let params = LearnerParams::large_dataset();
    let mut out = String::new();
    for family in [hiv_large_family(), hiv_2k4k_family()] {
        let mut rows: Vec<ExperimentRow> = Vec::new();
        for algorithm in [
            AlgorithmKind::AlephFoil(10),
            AlgorithmKind::AlephProgol(10),
            AlgorithmKind::Castor(CastorConfig::large_dataset()),
        ] {
            rows.extend(run_algorithm_over_family(
                &algorithm,
                &family,
                &params,
                HARNESS_FOLDS,
            ));
        }
        out.push_str(&castor_eval::render_table(
            &format!("Table 9: {}", family.name),
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Table 10: UW-CSE — FOIL, Aleph-FOIL, Aleph-Progol, ProGolem, Castor over
/// Original / 4NF / Denormalized-1 / Denormalized-2.
pub fn table10_uwcse() -> String {
    let family = uwcse_family();
    let params = LearnerParams::uwcse();
    let mut rows: Vec<ExperimentRow> = Vec::new();
    for algorithm in [
        AlgorithmKind::Foil,
        AlgorithmKind::AlephFoil(4),
        AlgorithmKind::AlephProgol(4),
        AlgorithmKind::ProGolem,
        AlgorithmKind::Castor(CastorConfig::uwcse()),
    ] {
        rows.extend(run_algorithm_over_family(
            &algorithm,
            &family,
            &params,
            HARNESS_FOLDS,
        ));
    }
    castor_eval::render_table("Table 10: UW-CSE", &rows)
}

/// Table 11: IMDb — Aleph-FOIL, Aleph-Progol, Castor over JMDB / Stanford /
/// Denormalized.
pub fn table11_imdb() -> String {
    let family = imdb_family();
    let params = LearnerParams {
        max_iterations: 1,
        ..LearnerParams::large_dataset()
    };
    let mut rows: Vec<ExperimentRow> = Vec::new();
    for algorithm in [
        AlgorithmKind::AlephFoil(6),
        AlgorithmKind::AlephProgol(6),
        AlgorithmKind::Castor(CastorConfig::large_dataset()),
    ] {
        rows.extend(run_algorithm_over_family(
            &algorithm,
            &family,
            &params,
            HARNESS_FOLDS,
        ));
    }
    castor_eval::render_table("Table 11: IMDb", &rows)
}

/// Rebuilds a database instance under a copy of its schema whose INDs with
/// equality are weakened to subset form (the setting of Table 12).
pub fn weaken_equality_inds(db: &DatabaseInstance) -> DatabaseInstance {
    let schema = db.schema();
    let mut weakened = Schema::new(format!("{}-subset-inds", schema.name()));
    for r in schema.relations() {
        weakened.add_relation(r.clone());
    }
    for c in schema.constraints() {
        match c {
            Constraint::Ind(ind) => {
                let mut ind = ind.clone();
                ind.with_equality = false;
                weakened.add_ind(ind);
            }
            other => {
                weakened.add_constraint(other.clone());
            }
        }
    }
    let mut out = DatabaseInstance::empty(&weakened);
    for relation in db.relations() {
        for tuple in relation.iter() {
            out.insert(relation.name(), tuple.clone())
                .expect("same relations");
        }
    }
    out
}

/// Table 12: Castor using only subset-form INDs (general decomposition/
/// composition, Section 7.4) over HIV-2K4K, UW-CSE, and IMDb.
pub fn table12_general_inds() -> String {
    let mut out = String::new();
    for mut family in [hiv_2k4k_family(), uwcse_family(), imdb_family()] {
        for variant in family.variants.iter_mut() {
            variant.db = std::sync::Arc::new(weaken_equality_inds(&variant.db));
        }
        let params = if family.name == "UW-CSE" {
            LearnerParams::uwcse()
        } else {
            LearnerParams::large_dataset()
        };
        let config = if family.name == "UW-CSE" {
            CastorConfig::uwcse().with_general_inds()
        } else {
            CastorConfig::large_dataset().with_general_inds()
        };
        let rows = run_algorithm_over_family(
            &AlgorithmKind::Castor(config),
            &family,
            &params,
            HARNESS_FOLDS,
        );
        out.push_str(&castor_eval::render_table(
            &format!("Table 12: Castor with subset INDs — {}", family.name),
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Table 13: impact of the pre-compiled bottom-clause plan ("stored
/// procedures") on Castor's running time.
pub fn table13_stored_procedures() -> String {
    let mut out = String::from(
        "== Table 13: stored procedures ablation (Castor learning time, seconds) ==\n",
    );
    let _ = writeln!(
        out,
        "{:<12} {:>18} {:>22} {:>10}",
        "Dataset", "With plan (s)", "Without plan (s)", "Speedup"
    );
    for (family, config) in [
        (hiv_large_family(), CastorConfig::large_dataset()),
        (hiv_2k4k_family(), CastorConfig::large_dataset()),
        (imdb_family(), CastorConfig::large_dataset()),
    ] {
        let variant = &family.variants[0];
        let params = LearnerParams {
            constant_positions: variant.constant_positions.clone(),
            ..LearnerParams::large_dataset()
        };
        let timed = |config: CastorConfig| {
            let mut config = config;
            config.params = params.clone();
            let start = Instant::now();
            let outcome = castor_core::Castor::new(config).learn_shared(&variant.db, &variant.task);
            (start.elapsed().as_secs_f64(), outcome.definition.len())
        };
        let (with_plan, _) = timed(config.clone());
        let (without_plan, _) = timed(config.clone().without_stored_procedures());
        let _ = writeln!(
            out,
            "{:<12} {:>18.3} {:>22.3} {:>9.2}x",
            family.name,
            with_plan,
            without_plan,
            without_plan / with_plan.max(1e-9)
        );
    }
    out
}

/// Figure 2: impact of parallel coverage testing on Castor's running time
/// (thread sweep over HIV-Large, HIV-2K4K, IMDb). Coverage now runs on the
/// persistent worker pool of `castor-engine` (work-stealing over examples);
/// each family row is followed by the engine counters of its last run.
pub fn figure2_parallelism(threads: &[usize]) -> String {
    let mut out =
        String::from("== Figure 2: Castor running time vs. worker threads (seconds) ==\n");
    let _ = write!(out, "{:<12}", "Dataset");
    for t in threads {
        let _ = write!(out, " {:>10}", format!("{t} thr"));
    }
    out.push('\n');
    for family in [hiv_large_family(), hiv_2k4k_family(), imdb_family()] {
        let variant = &family.variants[0];
        let _ = write!(out, "{:<12}", family.name);
        let mut last_report = None;
        for &t in threads {
            let mut config = CastorConfig::large_dataset().with_threads(t);
            config.params.constant_positions = variant.constant_positions.clone();
            let start = Instant::now();
            let outcome = castor_core::Castor::new(config).learn_shared(&variant.db, &variant.task);
            let _ = write!(out, " {:>10.3}", start.elapsed().as_secs_f64());
            last_report = Some(outcome.engine);
        }
        out.push('\n');
        if let Some(report) = last_report {
            let _ = writeln!(out, "{:<12} engine: {report}", "");
        }
    }
    out
}

/// Figure 3: average number of equivalence and membership queries asked by
/// the A2 algorithm, by number of variables per clause, over the four
/// UW-CSE schema variants (random targets generated over Denormalized-2 and
/// decomposed to the other schemas).
pub fn figure3_query_complexity(definitions_per_setting: usize) -> String {
    let original = uwcse::original_schema();
    let to_denorm2 = uwcse::to_denormalized2(&original);
    let denorm2_schema = to_denorm2.apply_schema(&original);
    let to_denorm1 = uwcse::to_denormalized1(&original);
    let denorm1_schema = to_denorm1.apply_schema(&original);
    let to_4nf = uwcse::to_4nf(&original);
    let nf4_schema = to_4nf.apply_schema(&original);

    // Decompositions from Denormalized-2 back to each variant: undo the
    // Denormalized-2 composition, then (for 4NF / Denormalized-1) re-apply
    // that variant's composition. Only the decomposition steps matter for
    // the definition mapping (composition steps are identity on clauses).
    let denorm2_to = |target: &str| -> castor_transform::Transformation {
        match target {
            "Denormalized-1" => castor_transform::Transformation::new(
                "d2-to-d1",
                to_denorm2
                    .invert()
                    .steps()
                    .iter()
                    .cloned()
                    .chain(to_denorm1.steps().iter().cloned())
                    .collect(),
            ),
            "4NF" => castor_transform::Transformation::new(
                "d2-to-4nf",
                to_denorm2
                    .invert()
                    .steps()
                    .iter()
                    .cloned()
                    .chain(to_4nf.steps().iter().cloned())
                    .collect(),
            ),
            "Original" => to_denorm2.invert(),
            _ => castor_transform::Transformation::identity("id"),
        }
    };

    let schemas: Vec<(&str, Schema)> = vec![
        ("Denormalized-2", denorm2_schema.clone()),
        ("Denormalized-1", denorm1_schema),
        ("4NF", nf4_schema),
        ("Original", original.clone()),
    ];

    let mut out = String::from("== Figure 3: A2 query complexity over UW-CSE schema variants ==\n");
    let _ = writeln!(
        out,
        "{:<8} {:<16} {:>10} {:>10}",
        "#vars", "Schema", "avg #EQ", "avg #MQ"
    );
    for vars in 4..=8 {
        for (schema_name, schema) in &schemas {
            let mut eq_total = 0usize;
            let mut mq_total = 0usize;
            for run in 0..definitions_per_setting.max(1) {
                let config = synthetic::RandomDefinitionConfig {
                    clauses: 1 + (run % 3),
                    variables_per_clause: vars,
                    target_arity: 2.min(vars),
                    seed: (vars * 1000 + run) as u64,
                };
                // Generate over Denormalized-2 and decompose to the Original
                // schema (a pure vertical decomposition) — mirroring the
                // paper's protocol. The intermediate variants (4NF,
                // Denormalized-1) mix a decomposition with a re-composition,
                // which has no syntactic definition mapping here, so their
                // targets are drawn directly over that schema with the same
                // seed; the query-count trend across schemas is unaffected
                // because it is driven by per-clause literal counts.
                let def_d2 = synthetic::random_definition(&denorm2_schema, "target", &config);
                let def = if *schema_name == "Denormalized-2" {
                    def_d2
                } else if *schema_name == "Original" {
                    map_definition_through_decomposition(&def_d2, &denorm2_to(schema_name))
                } else {
                    synthetic::random_definition(schema, "target", &config)
                };
                let mut oracle = Oracle::new(schema.clone(), def);
                let (_, stats) = LogAnH::new().learn(&mut oracle, "target");
                eq_total += stats.equivalence_queries;
                mq_total += stats.membership_queries;
            }
            let n = definitions_per_setting.max(1) as f64;
            let _ = writeln!(
                out,
                "{:<8} {:<16} {:>10.1} {:>10.1}",
                vars,
                schema_name,
                eq_total as f64 / n,
                mq_total as f64 / n
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_every_variant() {
        let text = table2_statistics();
        for name in ["Initial", "4NF-1", "4NF-2", "Original", "JMDB", "Stanford"] {
            assert!(text.contains(name), "missing variant {name}");
        }
    }

    #[test]
    fn weakened_schema_has_no_equality_inds() {
        let family = uwcse_family();
        let weakened = weaken_equality_inds(&family.variants[0].db);
        assert!(weakened.schema().equality_inds().is_empty());
        assert_eq!(
            weakened.total_tuples(),
            family.variants[0].db.total_tuples()
        );
    }

    #[test]
    fn figure3_runs_on_a_single_setting() {
        let text = figure3_query_complexity(1);
        assert!(text.contains("Original"));
        assert!(text.contains("Denormalized-2"));
    }
}

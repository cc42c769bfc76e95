//! Cross-validated experiment runs over the schema variants of a dataset
//! family, producing the rows of the paper's result tables.
//!
//! Runs go through the serving layer: one [`Server`] per variant run owns
//! the variant's long-lived engine (coverage cache and compiled plans
//! shared across every fold), and each fold's learner executes as a
//! [`LearnJob`] on a [`castor_service::Session`] — the same code path a
//! production deployment serves concurrent learning sessions with.

use crate::metrics::{evaluate_definition_with_session, EvaluationResult};
use castor_core::CastorConfig;
use castor_datasets::{cross_validation_folds, DatasetVariant, SchemaFamily};
use castor_learners::{LearnerParams, LearningTask};
use castor_logic::Definition;
use castor_relational::Tuple;
use castor_service::{LearnAlgorithm, LearnJob, Server, ServerConfig};
use std::time::{Duration, Instant};

/// The algorithms compared in the paper's experiments.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgorithmKind {
    /// FOIL (greedy top-down, unrestricted hypothesis space beyond
    /// `clauselength`).
    Foil,
    /// Aleph emulating FOIL: greedy, bottom-clause bounded (the paper's
    /// "Aleph-FOIL"); the payload is the `clauselength` parameter.
    AlephFoil(usize),
    /// Aleph in its default Progol mode (the paper's "Aleph-Progol"); the
    /// payload is the `clauselength` parameter.
    AlephProgol(usize),
    /// Golem (rlgg-based bottom-up).
    Golem,
    /// ProGolem (ARMG-based bottom-up).
    ProGolem,
    /// Castor with the given configuration.
    Castor(CastorConfig),
}

impl AlgorithmKind {
    /// Display name used in the result tables.
    pub fn name(&self) -> String {
        match self {
            AlgorithmKind::Foil => "FOIL".into(),
            AlgorithmKind::AlephFoil(cl) => format!("Aleph-FOIL(cl={cl})"),
            AlgorithmKind::AlephProgol(cl) => format!("Aleph-Progol(cl={cl})"),
            AlgorithmKind::Golem => "Golem".into(),
            AlgorithmKind::ProGolem => "ProGolem".into(),
            AlgorithmKind::Castor(config) => {
                if config.use_general_inds {
                    "Castor(general INDs)".into()
                } else {
                    "Castor".into()
                }
            }
        }
    }
}

/// One row of a results table: an algorithm evaluated on one schema variant.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Dataset family name.
    pub family: String,
    /// Schema variant name.
    pub schema: String,
    /// Micro-averaged evaluation over all folds.
    pub evaluation: EvaluationResult,
    /// Total learning time across folds.
    pub learning_time: Duration,
    /// The definition learned on the first fold (for qualitative reports).
    pub sample_definition: Definition,
}

impl ExperimentRow {
    /// Precision shortcut.
    pub fn precision(&self) -> f64 {
        self.evaluation.precision()
    }

    /// Recall shortcut.
    pub fn recall(&self) -> f64 {
        self.evaluation.recall()
    }
}

fn params_for(variant: &DatasetVariant, base: &LearnerParams) -> LearnerParams {
    LearnerParams {
        constant_positions: variant.constant_positions.clone(),
        ..base.clone()
    }
}

/// The serving-layer learner selection for one algorithm kind, with the
/// paper's per-algorithm parameter adjustments applied.
fn learn_algorithm_for(
    algorithm: &AlgorithmKind,
    params: &LearnerParams,
    base_params: &LearnerParams,
) -> LearnAlgorithm {
    match algorithm {
        AlgorithmKind::Foil => {
            let mut params = params.clone();
            params.allow_constants = true;
            LearnAlgorithm::Foil(params)
        }
        AlgorithmKind::AlephFoil(clause_length) => {
            let mut params = params.clone();
            params.clause_length = *clause_length;
            params.beam_width = 1; // greedy (openlist = 1)
            LearnAlgorithm::Progol(params)
        }
        AlgorithmKind::AlephProgol(clause_length) => {
            let mut params = params.clone();
            params.clause_length = *clause_length;
            params.beam_width = params.beam_width.max(3);
            LearnAlgorithm::Progol(params)
        }
        AlgorithmKind::Golem => LearnAlgorithm::Golem(params.clone()),
        AlgorithmKind::ProGolem => LearnAlgorithm::ProGolem(params.clone()),
        AlgorithmKind::Castor(config) => {
            let mut config = config.clone();
            config.params = params.clone();
            config.params.threads = config.params.threads.max(base_params.threads);
            LearnAlgorithm::Castor(Box::new(config))
        }
    }
}

/// The transport-independent cross-validation loop shared by the
/// in-process and RPC experiment runners: per fold, time one learner run
/// (`learn`), evaluate the definition on the held-out split (`evaluate`),
/// and micro-average into one row. Keeping a single copy is what lets the
/// test suite pin the two transports to identical rows.
fn run_folds(
    algorithm: &AlgorithmKind,
    variant: &DatasetVariant,
    folds: usize,
    mut learn: impl FnMut(LearningTask) -> Definition,
    mut evaluate: impl FnMut(&Definition, &[Tuple], &[Tuple]) -> EvaluationResult,
) -> ExperimentRow {
    let mut evaluation = EvaluationResult::default();
    let mut total_time = Duration::ZERO;
    let mut sample_definition = Definition::empty(variant.task.target.clone());
    for (i, fold) in cross_validation_folds(&variant.task, folds)
        .iter()
        .enumerate()
    {
        let start = Instant::now();
        let definition = learn(fold.train.clone());
        total_time += start.elapsed();
        let fold_eval = evaluate(&definition, &fold.test_positive, &fold.test_negative);
        evaluation.accumulate(&fold_eval);
        if i == 0 {
            sample_definition = definition;
        }
    }
    ExperimentRow {
        algorithm: algorithm.name(),
        family: String::new(),
        schema: variant.name.clone(),
        evaluation,
        learning_time: total_time,
        sample_definition,
    }
}

/// Runs one algorithm on one variant with `folds`-fold cross validation.
pub fn run_algorithm_on_variant(
    algorithm: &AlgorithmKind,
    variant: &DatasetVariant,
    base_params: &LearnerParams,
    folds: usize,
) -> ExperimentRow {
    // One server-owned engine per variant: its coverage cache and compiled
    // plans are shared across every fold of the run, and test-split
    // evaluation reuses results the learner already computed. The variant's
    // instance is `Arc`-shared into the engine — no deep copy.
    let params = params_for(variant, base_params);
    let server = Server::new(
        ServerConfig::default()
            .with_threads(params.threads)
            .with_engine(params.engine_config()),
    );
    server
        .register(&variant.name, std::sync::Arc::clone(&variant.db))
        .expect("variant registered once per run");
    let session = server
        .session(&variant.name)
        .expect("variant was just registered");
    run_folds(
        algorithm,
        variant,
        folds,
        |task| {
            session
                .learn(LearnJob::new(
                    task,
                    learn_algorithm_for(algorithm, &params, base_params),
                ))
                .expect("experiment sessions are never cancelled")
        },
        |definition, test_positive, test_negative| {
            evaluate_definition_with_session(&session, definition, test_positive, test_negative)
        },
    )
}

/// [`run_algorithm_on_variant`] with every job travelling a real TCP
/// socket: the run owns a loopback [`castor_rpc::RpcServer`] over the
/// variant's serving stack, and each fold's learning and evaluation go
/// through a blocking [`castor_rpc::RpcClient`]. The server executes the
/// same `LearnJob`s/`CoverageJob`s, so results are identical to the
/// in-process path — this is the deployment shape where the experiment
/// harness and the learning service run on different machines.
pub fn run_algorithm_on_variant_rpc(
    algorithm: &AlgorithmKind,
    variant: &DatasetVariant,
    base_params: &LearnerParams,
    folds: usize,
) -> ExperimentRow {
    use crate::metrics::evaluate_definition_with_client;
    use castor_rpc::{RpcClient, RpcConfig, RpcServer};

    let params = params_for(variant, base_params);
    let service = std::sync::Arc::new(Server::new(
        ServerConfig::default()
            .with_threads(params.threads)
            .with_engine(params.engine_config()),
    ));
    service
        .register(&variant.name, std::sync::Arc::clone(&variant.db))
        .expect("variant registered once per run");
    let rpc = RpcServer::bind(service, "127.0.0.1:0", RpcConfig::default())
        .expect("loopback bind for the experiment run");
    let client = std::cell::RefCell::new(
        RpcClient::connect(rpc.local_addr(), &variant.name)
            .expect("loopback connect for the experiment run"),
    );
    run_folds(
        algorithm,
        variant,
        folds,
        |task| {
            client
                .borrow_mut()
                .learn(task, learn_algorithm_for(algorithm, &params, base_params))
                .expect("experiment connections are never cancelled")
        },
        |definition, test_positive, test_negative| {
            evaluate_definition_with_client(
                &mut client.borrow_mut(),
                definition,
                test_positive,
                test_negative,
            )
        },
    )
}

/// Runs one algorithm across every schema variant of a family.
pub fn run_algorithm_over_family(
    algorithm: &AlgorithmKind,
    family: &SchemaFamily,
    base_params: &LearnerParams,
    folds: usize,
) -> Vec<ExperimentRow> {
    family
        .variants
        .iter()
        .map(|variant| {
            let mut row = run_algorithm_on_variant(algorithm, variant, base_params, folds);
            row.family = family.name.clone();
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_datasets::uwcse::{generate, UwCseConfig};

    fn tiny_family() -> castor_datasets::SchemaFamily {
        generate(&UwCseConfig {
            students: 12,
            professors: 4,
            courses: 5,
            noise_fraction: 0.0,
            ..Default::default()
        })
    }

    #[test]
    fn castor_rows_are_schema_independent_on_tiny_uwcse() {
        let family = tiny_family();
        let rows = run_algorithm_over_family(
            &AlgorithmKind::Castor(CastorConfig::uwcse()),
            &family,
            &LearnerParams::uwcse(),
            2,
        );
        assert_eq!(rows.len(), 4);
        let evals: Vec<EvaluationResult> = rows.iter().map(|r| r.evaluation).collect();
        assert!(
            crate::metrics::schema_independent(&evals, 1e-9),
            "Castor precision/recall must match across variants: {:?}",
            rows.iter()
                .map(|r| (r.schema.clone(), r.precision(), r.recall()))
                .collect::<Vec<_>>()
        );
        assert!(rows[0].recall() > 0.5, "Castor should learn the target");
    }

    #[test]
    fn progol_runs_on_a_single_variant() {
        let family = tiny_family();
        let variant = family.variant("Original").unwrap();
        let row = run_algorithm_on_variant(
            &AlgorithmKind::AlephProgol(4),
            variant,
            &LearnerParams::uwcse(),
            2,
        );
        assert_eq!(row.schema, "Original");
        assert!(row.learning_time > Duration::ZERO);
    }

    #[test]
    fn rpc_transport_reproduces_the_in_process_rows() {
        let family = tiny_family();
        let variant = family.variant("Original").unwrap();
        let algorithm = AlgorithmKind::AlephProgol(4);
        let in_process = run_algorithm_on_variant(&algorithm, variant, &LearnerParams::uwcse(), 2);
        let over_tcp =
            run_algorithm_on_variant_rpc(&algorithm, variant, &LearnerParams::uwcse(), 2);
        // The server executes the same jobs, so the learned definitions
        // and fold metrics are identical — only the transport differs.
        assert_eq!(over_tcp.evaluation, in_process.evaluation);
        assert_eq!(over_tcp.sample_definition, in_process.sample_definition);
        assert_eq!(over_tcp.schema, in_process.schema);
    }

    #[test]
    fn algorithm_names_identify_parameters() {
        assert_eq!(AlgorithmKind::AlephFoil(10).name(), "Aleph-FOIL(cl=10)");
        assert_eq!(
            AlgorithmKind::Castor(CastorConfig::default().with_general_inds()).name(),
            "Castor(general INDs)"
        );
    }
}

//! The learn workloads: Castor (`castor-uwcse`) and FOIL (`foil-uwcse`) on
//! the UW-CSE cross-validation training splits of the four schema variants.
//!
//! Each op learns one task from cold: Castor through `Castor::learn_in` on a
//! fresh single-threaded engine, FOIL through `Session::learn` on a fresh
//! server. The timed pass runs rounds over the task set, rotating the start
//! task each round so a slow stretch of the machine lands on different
//! tasks, and reports per-task medians.

use crate::inputs::{self, LearnTask};
use crate::stats::{median, ms, quantile, ratio, Series};
use crate::Report;
use castor_core::learner::promote_general_inds;
use castor_core::{
    castor_armg, castor_bottom_clause, reduction::negative_reduce, BottomClausePlan, Castor,
    CastorConfig, CoverageEngine,
};
use castor_engine::{Engine, Prior};
use castor_learners::{LearnerParams, LearningTask};
use castor_logic::{covers_example, is_safe, minimize_clause, Clause, Definition};
use castor_relational::{DatabaseInstance, Tuple};
use castor_service::{LearnAlgorithm, LearnJob, Server, ServerConfig};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Database name on the per-op FOIL servers.
const DB: &str = "uwcse";

/// One set-up: a build of the task set for `seed`, and its time (s).
fn setup(seed: u64, folds: &[usize]) -> (Vec<LearnTask>, f64) {
    let start = Instant::now();
    let tasks = inputs::learn_tasks(seed, folds);
    (tasks, start.elapsed().as_secs_f64())
}

/// Runs rounds over `tasks` until `seconds` are (about) spent: a round
/// starts while half of the previous round still fits. Round `r` visits the
/// tasks starting at task `r`. `op(task, round)` runs one op and returns its time; the
/// per-task samples come back in task order.
fn rounds(
    tasks: usize,
    seconds: f64,
    mut op: impl FnMut(usize, usize) -> Duration,
) -> Vec<Vec<f64>> {
    let mut samples = vec![Vec::new(); tasks];
    let start = Instant::now();
    let mut round = 0;
    loop {
        let round_start = Instant::now();
        for k in 0..tasks {
            let task = (round + k) % tasks;
            samples[task].push(op(task, round).as_secs_f64());
        }
        round += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + 0.5 * round_start.elapsed().as_secs_f64() > seconds {
            return samples;
        }
    }
}

/// The end-to-end metrics of a learn workload from its per-task samples.
/// Every statistic starts from each task's median, so each task counts
/// once however many repeats fit: the op-time quantiles are taken over the
/// task medians, and throughput is learns per second at median speed.
fn end_to_end(report: &mut Report, setups: &[f64], samples: &[Vec<f64>]) {
    let task_ms: Vec<f64> = samples.iter().map(|s| median(s) * 1e3).collect();
    let pass_s = task_ms.iter().sum::<f64>() / 1e3;
    let ops: usize = samples.iter().map(Vec::len).sum();
    let min_repeats = samples.iter().map(Vec::len).min().unwrap_or(0);
    report.metric("setup_s", median(setups), setups.len());
    report.metric("pass_s", pass_s, min_repeats);
    report.metric("op_ms.p50", median(&task_ms), ops);
    report.metric("op_ms.p90", quantile(&task_ms, 0.9), ops);
    report.metric("ops_per_s", task_ms.len() as f64 / pass_s, ops);
}

/// Held-out (true positives, false positives) of a definition, by the
/// reference evaluator.
fn held_out(definition: &Definition, task: &LearnTask) -> (usize, usize) {
    let covered = |e: &&Tuple| {
        definition
            .clauses
            .iter()
            .any(|c| covers_example(c, &task.db, e))
    };
    (
        task.test_positive.iter().filter(covered).count(),
        task.test_negative.iter().filter(covered).count(),
    )
}

/// Output checks shared by both learners: an op is correct when it learns
/// the same definition as the task's first op, and the first op's
/// definition passes `first_check`.
struct Checker {
    first: Vec<Option<(Definition, bool)>>,
    /// Ops attempted, per task.
    ops: Vec<usize>,
    /// Ops failed, per task.
    failed: Vec<usize>,
}

impl Checker {
    fn new(tasks: usize) -> Self {
        Checker {
            first: vec![None; tasks],
            ops: vec![0; tasks],
            failed: vec![0; tasks],
        }
    }

    fn check(
        &mut self,
        task: usize,
        definition: Option<Definition>,
        first_check: impl FnOnce(&Definition) -> bool,
    ) {
        self.ops[task] += 1;
        let ok = match (definition, &self.first[task]) {
            (None, _) => false,
            (Some(d), Some((first, first_ok))) => *first_ok && d == *first,
            (Some(d), None) => {
                let ok = first_check(&d);
                self.first[task] = Some((d, ok));
                ok
            }
        };
        if !ok {
            self.failed[task] += 1;
        }
    }

    /// Marks every op of `task` failed.
    fn fail_task(&mut self, task: usize) {
        self.failed[task] = self.ops[task];
    }

    /// Writes the attempted and failed totals into `report`.
    fn finish(&self, report: &mut Report) {
        report.attempted = self.ops.iter().sum();
        report.failed = self.failed.iter().sum();
    }
}

fn castor_config(task: &LearnTask) -> CastorConfig {
    CastorConfig {
        params: LearnerParams {
            threads: 1,
            ..task.params.clone()
        },
        ..CastorConfig::uwcse()
    }
}

/// One Castor op: a cold single-threaded engine plus `Castor::learn_in`.
fn castor_op(task: &LearnTask) -> (Definition, Duration) {
    let config = castor_config(task);
    let start = Instant::now();
    let engine = Engine::from_arc(Arc::clone(&task.db), config.params.engine_config());
    let outcome = Castor::new(config).learn_in(&engine, &task.train);
    let elapsed = start.elapsed();
    (outcome.definition, elapsed)
}

/// The `castor-uwcse` workload. Tasks: fold 0 of the four variants.
pub fn castor(seed: u64, seconds: f64, trace: bool) -> Report {
    // The first set-up is not timed: right after process start it would
    // measure the process's own start-up.
    let (tasks, _) = setup(seed, &[0]);
    let mut plain = Checker::new(tasks.len());
    let mut scores: Vec<Option<(usize, usize)>> = vec![None; tasks.len()];
    let mut check_castor = |checker: &mut Checker, k: usize, d: Option<Definition>| {
        checker.check(k, d, |d| {
            scores[k] = Some(held_out(d, &tasks[k]));
            !d.is_empty()
        });
    };
    let mut report = Report::default();
    if !trace {
        // One set-up is timed after every op, so the set-up samples spread
        // over the run like the ops' do.
        let mut setups = Vec::new();
        let samples = rounds(tasks.len(), seconds, |k, _| {
            let (definition, elapsed) = castor_op(&tasks[k]);
            check_castor(&mut plain, k, Some(definition));
            setups.push(setup(seed, &[0]).1);
            elapsed
        });
        end_to_end(&mut report, &setups, &samples);
    } else {
        let mut phases: Vec<Vec<Phases>> = vec![Vec::new(); tasks.len()];
        let mut traced_times: Vec<Vec<f64>> = vec![Vec::new(); tasks.len()];
        let plain_times = rounds(tasks.len(), seconds, |k, round| {
            let task = &tasks[k];
            let mut replayed = || {
                let config = castor_config(task);
                let mut p = Phases::default();
                let start = Instant::now();
                let engine = Engine::from_arc(Arc::clone(&task.db), config.params.engine_config());
                let definition = replay(&config, &engine, &task.train, &mut p);
                traced_times[k].push(start.elapsed().as_secs_f64());
                phases[k].push(p);
                definition
            };
            // Alternate which of the pair runs first.
            let (traced, (definition, elapsed)) = if round % 2 == 0 {
                let traced = replayed();
                (traced, castor_op(task))
            } else {
                let op = castor_op(task);
                (replayed(), op)
            };
            // The replay guard: an op whose public-call replay learns
            // something else than learn_in fails.
            check_castor(&mut plain, k, (traced == definition).then_some(definition));
            elapsed
        });
        let sum_median = |f: &dyn Fn(&Phases) -> f64| -> f64 {
            phases
                .iter()
                .map(|runs| median(&runs.iter().map(f).collect::<Vec<_>>()))
                .sum()
        };
        let first: Phases = phases
            .iter()
            .map(|runs| runs[0].clone())
            .fold(Phases::default(), |a, b| a.add(&b));
        let n = phases.iter().map(Vec::len).min().unwrap_or(0);
        report.metric("core.saturate_ms", sum_median(&|p| ms(p.saturate)), n);
        report.metric(
            "core.bottom_clause_ms",
            sum_median(&|p| ms(p.bottom_clause)),
            n,
        );
        report.metric("logic.minimize_ms", sum_median(&|p| ms(p.minimize)), n);
        report.metric(
            "logic.minimize_removed_ratio",
            ratio(first.minimize_removed, first.minimize_before),
            1,
        );
        report.metric("core.coverage_ms", sum_median(&|p| ms(p.coverage)), n);
        report.metric("core.coverage_tests", first.coverage_tests as f64, 1);
        report.metric("core.armg_ms", sum_median(&|p| ms(p.armg)), n);
        report.metric(
            "core.armg_useful_ratio",
            ratio(first.armg_useful, first.armg_generated),
            1,
        );
        report.metric(
            "core.negative_reduce_ms",
            sum_median(&|p| ms(p.negative_reduce)),
            n,
        );
        report.metric(
            "core.negative_reduce_tests",
            first.negative_reduce_tests as f64,
            1,
        );
        report.metric("engine.coverage_tests", first.engine_tests as f64, 1);
        let traced: f64 = traced_times.iter().map(|s| median(s)).sum();
        let untraced: f64 = plain_times.iter().map(|s| median(s)).sum();
        report.metric("trace.overhead_s", traced - untraced, n);
    }
    // Schema independence: every variant of a fold scores the same on its
    // held-out examples. A task that disagrees with the fold's first
    // variant fails all its ops.
    for (k, task) in tasks.iter().enumerate() {
        let reference = tasks
            .iter()
            .position(|t| t.fold == task.fold)
            .expect("task's own fold");
        if scores[k].is_none() || scores[k] != scores[reference] {
            plain.fail_task(k);
            eprintln!(
                "castor-uwcse: {} held-out (tp, fp) {:?} differs from {} {:?}",
                task.name, scores[k], tasks[reference].name, scores[reference]
            );
        }
    }
    plain.finish(&mut report);
    report
}

/// Phase times and work counts of one replayed Castor learn.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    saturate: Duration,
    bottom_clause: Duration,
    minimize: Duration,
    /// Body literals handed to `minimize_clause`, and how many it removed.
    minimize_before: usize,
    minimize_removed: usize,
    coverage: Duration,
    /// Subsumption tests of the coverage calls.
    coverage_tests: usize,
    armg: Duration,
    /// ARMG candidates generated, and how many beat the best score.
    armg_generated: usize,
    armg_useful: usize,
    negative_reduce: Duration,
    negative_reduce_tests: usize,
    /// Evaluation-engine tests (ARMG's prefix checks).
    engine_tests: usize,
}

impl Phases {
    fn add(&self, o: &Phases) -> Phases {
        Phases {
            saturate: self.saturate + o.saturate,
            bottom_clause: self.bottom_clause + o.bottom_clause,
            minimize: self.minimize + o.minimize,
            minimize_before: self.minimize_before + o.minimize_before,
            minimize_removed: self.minimize_removed + o.minimize_removed,
            coverage: self.coverage + o.coverage,
            coverage_tests: self.coverage_tests + o.coverage_tests,
            armg: self.armg + o.armg,
            armg_generated: self.armg_generated + o.armg_generated,
            armg_useful: self.armg_useful + o.armg_useful,
            negative_reduce: self.negative_reduce + o.negative_reduce,
            negative_reduce_tests: self.negative_reduce_tests + o.negative_reduce_tests,
            engine_tests: self.engine_tests + o.engine_tests,
        }
    }

    /// Runs a coverage call, charging its time and subsumption tests.
    fn cover<T>(&mut self, engine: &CoverageEngine, f: impl FnOnce() -> T) -> T {
        let tests = engine.tests_performed();
        let start = Instant::now();
        let out = f();
        self.coverage += start.elapsed();
        self.coverage_tests += engine.tests_performed() - tests;
        out
    }

    fn minimize(&mut self, clause: &Clause) -> Clause {
        let start = Instant::now();
        let out = minimize_clause(clause);
        self.minimize += start.elapsed();
        self.minimize_before += clause.body_len();
        self.minimize_removed += clause.body_len() - out.body_len();
        out
    }
}

/// `Castor::learn_in` rebuilt from the crates' public calls, with a timer
/// around each phase. It must learn exactly what `learn_in` learns; the
/// traced run checks that on every op.
pub fn replay(
    config: &CastorConfig,
    eval_engine: &Engine,
    task: &LearningTask,
    p: &mut Phases,
) -> Definition {
    let db = eval_engine.snapshot();
    let eval_baseline = eval_engine.report();
    let schema = if config.promote_general_inds {
        promote_general_inds(&db)
    } else {
        db.schema().clone()
    };
    let mut plan = BottomClausePlan::compile(&schema, config.use_general_inds);
    plan.use_indexes = config.use_stored_procedures;

    let start = Instant::now();
    let engine = CoverageEngine::build_with_pool(
        &db,
        &plan,
        &task.target,
        &task.positive,
        &task.negative,
        config,
        Arc::clone(eval_engine.pool()),
    )
    .with_budget_template(eval_engine.budget_template());
    p.saturate += start.elapsed();

    let mut definition = Definition::empty(task.target.clone());
    let mut uncovered: Vec<Tuple> = task.positive.clone();
    while !uncovered.is_empty() {
        let Some(clause) = replay_clause(
            config,
            &db,
            &plan,
            &engine,
            eval_engine,
            task,
            &uncovered,
            p,
        ) else {
            break;
        };
        let (covered_pos, covered_neg) = p.cover(&engine, || {
            (
                engine.covered_set(&clause, &uncovered, Prior::None),
                engine.covered_set(&clause, &task.negative, Prior::None),
            )
        });
        if !config
            .params
            .meets_minimum(covered_pos.len(), covered_neg.len())
            || covered_pos.is_empty()
        {
            break;
        }
        uncovered.retain(|e| !covered_pos.contains(e));
        definition.push(clause);
    }
    p.engine_tests += eval_engine
        .report()
        .delta_since(&eval_baseline)
        .coverage_tests;
    definition
}

/// Castor's `LearnClause` (Algorithm 4) as [`replay`] runs it.
#[allow(clippy::too_many_arguments)]
fn replay_clause(
    config: &CastorConfig,
    db: &DatabaseInstance,
    plan: &BottomClausePlan,
    engine: &CoverageEngine,
    eval_engine: &Engine,
    task: &LearningTask,
    uncovered: &[Tuple],
    p: &mut Phases,
) -> Option<Clause> {
    let params = &config.params;
    let negative = &task.negative;
    let seed = uncovered.first()?;
    let start = Instant::now();
    let mut bottom = castor_bottom_clause(db, plan, &task.target, seed, config);
    p.bottom_clause += start.elapsed();
    if config.minimize_clauses {
        bottom = p.minimize(&bottom);
    }
    if bottom.body.is_empty() {
        return None;
    }
    let (initial_cov, initial_neg) = p.cover(engine, || {
        (
            engine.covered_set(&bottom, uncovered, Prior::None),
            engine.covered_set(&bottom, negative, Prior::None),
        )
    });
    let mut best = (
        bottom.clone(),
        initial_cov.len() as i64 - initial_neg.len() as i64,
    );
    let mut beam: Vec<(Clause, HashSet<Tuple>, usize)> =
        vec![(bottom, initial_cov, initial_neg.len())];
    loop {
        let sample: Vec<&Tuple> = uncovered.iter().take(params.sample_size.max(1)).collect();
        let mut generated: Vec<(Clause, usize)> = Vec::new();
        let start = Instant::now();
        for (parent_idx, (clause, known_cov, _)) in beam.iter().enumerate() {
            for example in &sample {
                if known_cov.contains(*example) {
                    continue;
                }
                let Some(generalized) = castor_armg(clause, eval_engine, plan, example) else {
                    continue;
                };
                if generalized.body.is_empty() || (config.safe_clauses && !is_safe(&generalized)) {
                    continue;
                }
                generated.push((generalized, parent_idx));
            }
        }
        p.armg += start.elapsed();
        p.armg_generated += generated.len();
        if generated.is_empty() {
            break;
        }
        let clauses: Vec<Clause> = generated.iter().map(|(c, _)| c.clone()).collect();
        let priors: Vec<Prior> = generated
            .iter()
            .map(|&(_, parent_idx)| Prior::GeneralizationOf(&beam[parent_idx].0))
            .collect();
        let (pos_sets, neg_sets) = p.cover(engine, || {
            (
                engine.covered_sets_batch_with_priors(&clauses, &priors, uncovered),
                engine.covered_sets_batch(&clauses, negative),
            )
        });
        let mut candidates: Vec<(Clause, HashSet<Tuple>, usize)> = Vec::new();
        for (((generalized, parent_idx), mut cov), neg) in
            generated.into_iter().zip(pos_sets).zip(neg_sets)
        {
            cov.extend(beam[parent_idx].1.iter().cloned());
            if cov.len() as i64 - neg.len() as i64 > best.1 {
                candidates.push((generalized, cov, neg.len()));
            }
        }
        p.armg_useful += candidates.len();
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by_key(|(_, cov, neg)| -(cov.len() as i64 - *neg as i64));
        candidates.truncate(params.beam_width.max(1));
        let top_score = candidates[0].1.len() as i64 - candidates[0].2 as i64;
        if top_score > best.1 {
            best = (candidates[0].0.clone(), top_score);
        }
        beam = candidates;
    }
    let tests = engine.tests_performed();
    let start = Instant::now();
    let reduced = negative_reduce(&best.0, engine, negative, plan, config.safe_clauses);
    p.negative_reduce += start.elapsed();
    p.negative_reduce_tests += engine.tests_performed() - tests;
    let final_clause = if config.minimize_clauses {
        p.minimize(&reduced)
    } else {
        reduced
    };
    (!final_clause.body.is_empty()).then_some(final_clause)
}

/// What one FOIL op leaves behind for the checks and the traced metrics.
struct FoilOp {
    definition: Option<Definition>,
    elapsed: Duration,
    server: Server,
}

/// One FOIL op: a fresh server and `Session::learn`.
fn foil_op(task: &LearnTask) -> FoilOp {
    let params = LearnerParams {
        allow_constants: true,
        threads: 1,
        ..task.params.clone()
    };
    let start = Instant::now();
    let server = Server::new(
        ServerConfig::default()
            .with_threads(1)
            .with_engine(params.engine_config()),
    );
    server
        .register(DB, Arc::clone(&task.db))
        .expect("fresh server has no databases");
    let session = server.session(DB).expect("database was just registered");
    let definition = session
        .learn(LearnJob::new(
            task.train.clone(),
            LearnAlgorithm::Foil(params),
        ))
        .ok();
    let elapsed = start.elapsed();
    drop(session);
    FoilOp {
        definition,
        elapsed,
        server,
    }
}

/// Whether the engine's held-out coverage of every clause of `definition`
/// equals the reference evaluator's.
fn engine_matches_reference(server: &Server, definition: &Definition, task: &LearnTask) -> bool {
    let examples: Vec<Tuple> = task
        .test_positive
        .iter()
        .chain(&task.test_negative)
        .cloned()
        .collect();
    let Ok(session) = server.session(DB) else {
        return false;
    };
    let Ok(sets) = session.covered_sets(definition.clauses.clone(), examples.clone()) else {
        return false;
    };
    definition.clauses.iter().zip(&sets).all(|(clause, set)| {
        examples
            .iter()
            .all(|e| set.contains(e) == covers_example(clause, &task.db, e))
    })
}

/// Per-op engine and service readings of a traced FOIL op.
#[derive(Debug, Clone, Default)]
struct FoilTrace {
    job_run_ms: f64,
    batch_eval_ms: f64,
    plan_compile_ms: f64,
    cache_probe_ms: f64,
    report: castor_engine::EngineReport,
}

/// The `foil-uwcse` workload. Tasks: both folds of the four variants.
pub fn foil(seed: u64, seconds: f64, trace: bool) -> Report {
    let folds: Vec<usize> = (0..inputs::FOLDS).collect();
    // The first set-up is not timed, as for Castor.
    let (tasks, _) = setup(seed, &folds);
    let mut checker = Checker::new(tasks.len());
    let mut traces: Vec<Vec<FoilTrace>> = vec![Vec::new(); tasks.len()];
    // One set-up is timed after every op, as for Castor.
    let mut setups = Vec::new();
    let samples = rounds(tasks.len(), seconds, |k, _| {
        let op = foil_op(&tasks[k]);
        if trace {
            let text = op.server.metrics_text();
            let label = format!("db=\"{DB}\"");
            let series = |name: &str| Series::read(&text, name, &label);
            traces[k].push(FoilTrace {
                job_run_ms: series("castor_job_run_ns").sum_ms(),
                batch_eval_ms: series("castor_engine_batch_eval_ns").sum_ms(),
                plan_compile_ms: series("castor_engine_plan_compile_ns").sum_ms(),
                cache_probe_ms: series("castor_engine_cache_probe_ns").sum_ms(),
                report: op.server.report(DB).unwrap_or_default(),
            });
        }
        checker.check(k, op.definition, |d| {
            engine_matches_reference(&op.server, d, &tasks[k])
        });
        if !trace {
            setups.push(setup(seed, &folds).1);
        }
        op.elapsed
    });
    let mut report = Report::default();
    if trace {
        let n = traces.iter().map(Vec::len).min().unwrap_or(0);
        let sum_median = |f: &dyn Fn(&FoilTrace) -> f64| -> f64 {
            traces
                .iter()
                .map(|runs| median(&runs.iter().map(f).collect::<Vec<_>>()))
                .sum()
        };
        let job = sum_median(&|t| t.job_run_ms);
        let eval = sum_median(&|t| t.batch_eval_ms);
        report.metric("service.job_run_ms", job, n);
        report.metric("engine.batch_eval_ms", eval, n);
        report.metric(
            "engine.plan_compile_ms",
            sum_median(&|t| t.plan_compile_ms),
            n,
        );
        report.metric(
            "engine.cache_probe_ms",
            sum_median(&|t| t.cache_probe_ms),
            n,
        );
        report.metric("learners.self_ms", job - eval, n);
        let first = traces
            .iter()
            .map(|runs| runs[0].report)
            .fold(castor_engine::EngineReport::default(), |a, b| {
                a.combined(&b)
            });
        engine_ratios(&mut report, &first);
    } else {
        end_to_end(&mut report, &setups, &samples);
    }
    checker.finish(&mut report);
    report
}

/// Engine work counts and useful-work ratios from one report.
pub fn engine_ratios(report: &mut Report, r: &castor_engine::EngineReport) {
    report.metric("engine.coverage_tests", r.coverage_tests as f64, 1);
    report.metric("engine.batch_clauses", r.batch_clauses as f64, 1);
    report.metric("engine.cache_hit_ratio", r.cache_hit_rate(), 1);
    // Probes a shared trie prefix saved, per batched clause.
    report.metric(
        "engine.prefix_hit_ratio",
        ratio(r.batch_prefix_hits, r.batch_clauses),
        1,
    );
    report.metric(
        "engine.batch_plan_reuse_ratio",
        ratio(
            r.batch_plan_cache_hits,
            r.batch_plan_cache_hits + r.batch_plans_compiled,
        ),
        1,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The work counts a later change may claim repeat exactly on two runs
    /// of the same task.
    #[test]
    fn castor_work_counts_repeat_exactly() {
        let task = &inputs::learn_tasks(5, &[0])[0];
        let counts = || {
            let config = castor_config(task);
            let engine = Engine::from_arc(Arc::clone(&task.db), config.params.engine_config());
            let mut p = Phases::default();
            let definition = replay(&config, &engine, &task.train, &mut p);
            (
                definition,
                p.coverage_tests,
                p.negative_reduce_tests,
                p.engine_tests,
            )
        };
        let first = counts();
        assert!(first.1 > 0 && first.2 > 0 && first.3 > 0, "{first:?}");
        assert_eq!(first, counts());
        // The replay learns what learn_in learns.
        assert_eq!(first.0, castor_op(task).0);
    }

    #[test]
    fn foil_work_counts_repeat_exactly() {
        let task = &inputs::learn_tasks(5, &[1])[0];
        let counts = || {
            let op = foil_op(task);
            let r = op.server.report(DB).unwrap();
            (
                op.definition,
                r.coverage_tests,
                r.batch_clauses,
                r.cache_hits,
            )
        };
        let first = counts();
        assert!(first.1 > 0 && first.2 > 0, "{first:?}");
        assert_eq!(first, counts());
    }
}

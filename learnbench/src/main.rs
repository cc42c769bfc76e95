//! Learn-and-serve benchmark for the Castor workspace.
//!
//! ```text
//! cargo run --release --manifest-path learnbench/Cargo.toml -- \
//!     --workload <castor-uwcse|foil-uwcse|serve-uwcse-rw> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (closed loop; one process, at most two client threads):
//!
//! * `castor-uwcse` — `Castor::learn_in` on a cold single-threaded engine
//!   per op, over fold 0 of the four UW-CSE schema variants.
//! * `foil-uwcse` — FOIL through `Session::learn` on a fresh server per op,
//!   over both folds of the four variants.
//! * `serve-uwcse-rw` — `score` reads and small mutation batches over a
//!   loopback `RpcServer` on the enlarged UW-CSE instance.
//!
//! With `--trace 0` the run reports the end-to-end metrics: `setup_s`,
//! `pass_s`, `op_ms.p50`, `op_ms.p90`, `ops_per_s` and `peak_heap_mb`.
//! Set-up is timed again between the timed ops, so its samples spread over
//! the run like the ops' do: on a shared 2-core x86-64 host, speed drifted
//! by up to 2x within seconds, so set-ups timed back to back all land in
//! one moment of it.
//! With `--trace 1` the run reports the per-layer metrics instead, timed
//! around calls into the crates' public functions and read from the
//! counters and histograms the program exports; metrics of layers a workload does not
//! reach read 0. The last line of standard output is the result object;
//! the line before it records the seed, core count, git revision and the
//! sample count behind each metric. Every op's output is checked, and
//! failed ops are counted against attempted ones.

mod alloc;
mod inputs;
mod learn;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Every per-layer metric, in report order, with its unit.
const PER_LAYER: [(&str, &str); 35] = [
    ("core.saturate_ms", "ms"),
    ("core.bottom_clause_ms", "ms"),
    ("logic.minimize_ms", "ms"),
    ("logic.minimize_removed_ratio", "ratio"),
    ("core.coverage_ms", "ms"),
    ("core.coverage_tests", "count"),
    ("core.armg_ms", "ms"),
    ("core.armg_useful_ratio", "ratio"),
    ("core.negative_reduce_ms", "ms"),
    ("core.negative_reduce_tests", "count"),
    ("trace.overhead_s", "s"),
    ("engine.coverage_tests", "count"),
    ("engine.batch_clauses", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.prefix_hit_ratio", "1/clause"),
    ("engine.batch_plan_reuse_ratio", "ratio"),
    ("engine.batch_eval_ms", "ms"),
    ("engine.plan_compile_ms", "ms"),
    ("engine.cache_probe_ms", "ms"),
    ("service.job_run_ms", "ms"),
    ("learners.self_ms", "ms"),
    ("rpc.overhead_ms", "ms"),
    ("rpc.encode_us", "us"),
    ("rpc.decode_us", "us"),
    ("rpc.loop_read_ms", "ms"),
    ("rpc.loop_dispatch_ms", "ms"),
    ("rpc.loop_encode_ms", "ms"),
    ("rpc.loop_flush_ms", "ms"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p90", "ms"),
    ("write_ms.p50", "ms"),
    ("relational.apply_batch_ms", "ms"),
    ("engine.apply_ms", "ms"),
    ("engine.cache_clauses_invalidated", "count"),
    ("engine.batch_plans_invalidated", "count"),
];

/// Every end-to-end metric, in report order, with its unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// One workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: usize,
    /// Ops whose output failed its check (or that errored).
    pub failed: usize,
    /// `(name, value, samples)`; units come from [`PER_LAYER`] and
    /// [`END_TO_END`].
    metrics: Vec<(&'static str, f64, usize)>,
}

impl Report {
    /// Records a metric with the number of samples behind it.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push((name, value, samples));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value != "0"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("learnbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "castor-uwcse" => learn::castor,
        "foil-uwcse" => learn::foil,
        "serve-uwcse-rw" => serve::serve,
        other => {
            eprintln!("learnbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(args.seed, args.seconds, args.trace);
    let wanted: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        report.metric("peak_heap_mb", alloc::peak_mb(), 1);
        &END_TO_END
    };

    let lookup = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or((0.0, 0), |m| (m.1, m.2))
    };
    let mut metrics = String::new();
    let mut samples = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let (value, samples_behind) = lookup(name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
        let _ = write!(samples, "{sep}{}: {samples_behind}", json_str(name));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"git_revision\": {}, \"samples\": {{{samples}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&git_revision()),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    ExitCode::SUCCESS
}

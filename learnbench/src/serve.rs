//! The `serve-uwcse-rw` workload: the enlarged UW-CSE instance behind a
//! loopback `RpcServer`, driven closed-loop by two connections of this
//! process in lock-step: in each step both send a `score` read, and
//! connection B then sends a small mutation batch on relations the reads
//! touch.
//!
//! The timed pass repeats identical rounds: each round starts a fresh
//! serving stack and sends the same fixed requests, so the engine's caches
//! (and the process's memory) start every round empty instead of growing
//! with however many requests the machine's speed let through.
//!
//! A read scores a beam: the previous beam's best clauses (the survivors)
//! plus fresh refinements from the connection's stream. Survivors follow
//! from the responses, and no write changes any read's answer (see
//! [`ServeInputs::write`]), so both request streams are fixed whatever the
//! interleaving.

use crate::inputs::{self, Refinements, ServeInputs, Stream, BEAM, SURVIVORS};
use crate::learn::engine_ratios;
use crate::stats::{median, ms, quantile, Series};
use crate::Report;
use castor_engine::{ClauseCounts, Engine, EngineConfig, EngineReport};
use castor_logic::Clause;
use castor_relational::{MutationBatch, MutationSummary, Tuple};
use castor_rpc::codec::{from_bytes, to_bytes};
use castor_rpc::{RpcClient, RpcConfig, RpcServer};
use castor_service::{Server, ServerConfig};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Steps in one round: each connection reads once per step, and connection
/// B writes once.
const ROUND_STEPS: usize = 30;
/// Database name on the server.
const DB: &str = "uwcse";
/// Steps of the deterministic replay behind the work counts.
const REPLAY_STEPS: usize = 24;
/// Requests sampled for the codec timings.
const CODEC_SAMPLES: usize = 200;
/// Reads re-sent after the pass to time the RPC overhead.
const OVERHEAD_SAMPLES: usize = 100;

/// The beam stream of one connection.
pub struct Beams {
    fresh: Refinements,
    survivors: Vec<Clause>,
}

impl Beams {
    pub fn new(stream: &Stream) -> Self {
        Beams {
            fresh: stream.refinements(),
            survivors: Vec::new(),
        }
    }

    /// The next read's beam: the survivors, topped up with fresh
    /// refinements.
    pub fn next_beam(&mut self) -> Vec<Clause> {
        let mut beam = std::mem::take(&mut self.survivors);
        while beam.len() < BEAM {
            beam.push(self.fresh.next_clause());
        }
        beam
    }

    /// Keeps the best-scoring clauses of an answered beam (positives minus
    /// negatives, ties to the earlier clause).
    pub fn observe(&mut self, beam: &[Clause], counts: &[ClauseCounts]) {
        let mut order: Vec<usize> = (0..beam.len().min(counts.len())).collect();
        order.sort_by_key(|&i| -(counts[i].positive as i64 - counts[i].negative as i64));
        self.survivors = order
            .into_iter()
            .take(SURVIVORS)
            .map(|i| beam[i].clone())
            .collect();
    }
}

/// One completed request of the timed pass.
enum Done {
    Read {
        beam: Vec<Clause>,
        counts: Option<Vec<ClauseCounts>>,
        ms: f64,
    },
    Write {
        ok: bool,
        ms: f64,
    },
}

/// A set-up serving stack: service, loopback RPC server and the two
/// connections, warmed by one read each.
struct Stack {
    rpc: RpcServer,
    clients: [RpcClient; 2],
}

/// A fresh stack and the two connections' beam streams from their start,
/// each already past its warm-up read.
fn stack(inputs: &ServeInputs) -> (Stack, [Beams; 2]) {
    let mut beams = [
        Beams::new(&inputs.streams[0]),
        Beams::new(&inputs.streams[1]),
    ];
    let service = Arc::new(Server::new(ServerConfig::default().with_threads(1)));
    // A private copy: the server mutates its instance in place, and a shared
    // `Arc` would make its first write copy the whole database.
    service
        .register(DB, Arc::new((*inputs.db).clone()))
        .expect("fresh server has no databases");
    let rpc = RpcServer::bind(service, "127.0.0.1:0", RpcConfig::default())
        .expect("bind a loopback port");
    let connect = || RpcClient::connect(rpc.local_addr(), DB).expect("loopback connect");
    let mut clients = [connect(), connect()];
    for (c, client) in clients.iter_mut().enumerate() {
        let beam = beams[c].next_beam();
        let stream = &inputs.streams[c];
        let counts = client
            .score(
                beam.clone(),
                stream.positive.clone(),
                stream.negative.clone(),
            )
            .expect("warm-up read");
        beams[c].observe(&beam, &counts);
    }
    (Stack { rpc, clients }, beams)
}

/// Sends `ROUND_STEPS` reads of connection `c` closed-loop, one per step;
/// with `writes`, each read is followed by the connection's next write. A
/// step starts when both connections have finished the previous one, so
/// both reads of a step queue at the server together and every write lands
/// between two steps: which cached answers a write invalidates, and so the
/// work of a round, does not depend on how the threads happen to run.
fn drive(
    client: &mut RpcClient,
    inputs: &ServeInputs,
    c: usize,
    beams: &mut Beams,
    writes: bool,
    steps: &Barrier,
) -> Vec<Done> {
    let stream = &inputs.streams[c];
    let mut done = Vec::with_capacity(2 * ROUND_STEPS);
    for step in 0..ROUND_STEPS {
        steps.wait();
        let beam = beams.next_beam();
        let start = Instant::now();
        let result = client.score(
            beam.clone(),
            stream.positive.clone(),
            stream.negative.clone(),
        );
        let read_ms = ms(start.elapsed());
        let counts = result.ok();
        if let Some(counts) = &counts {
            beams.observe(&beam, counts);
        }
        done.push(Done::Read {
            beam,
            counts,
            ms: read_ms,
        });
        if writes {
            let (batch, expected) = inputs.write(step);
            let start = Instant::now();
            let result = client.apply(batch);
            done.push(Done::Write {
                ok: result.as_ref() == Ok(&expected),
                ms: ms(start.elapsed()),
            });
        }
    }
    done
}

/// One round of the timed pass.
struct Round {
    /// Connection A's and connection B's completed requests.
    done: [Vec<Done>; 2],
    /// Wall time of the round's requests (s).
    secs: f64,
    /// The server's metric exposition before and after the requests
    /// (traced runs only).
    metrics: Option<(String, String)>,
}

impl Round {
    fn reads(
        &self,
    ) -> impl Iterator<Item = (usize, &Vec<Clause>, Option<&Vec<ClauseCounts>>, f64)> {
        self.done.iter().enumerate().flat_map(|(c, done)| {
            done.iter().filter_map(move |d| match d {
                Done::Read { beam, counts, ms } => Some((c, beam, counts.as_ref(), *ms)),
                Done::Write { .. } => None,
            })
        })
    }

    fn write_ms(&self) -> Vec<f64> {
        self.done[1]
            .iter()
            .filter_map(|d| match d {
                Done::Write { ms, .. } => Some(*ms),
                Done::Read { .. } => None,
            })
            .collect()
    }
}

/// What the pass keeps of a checked round.
struct Timings {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    secs: f64,
    metrics: Option<(String, String)>,
}

/// Runs one round on `stack`: `ROUND_STEPS` steps in which both connections
/// read and connection B then writes (see [`drive`]).
fn round(inputs: &ServeInputs, stack: &mut Stack, beams: &mut [Beams; 2], trace: bool) -> Round {
    let exposition = |client: &mut RpcClient| client.metrics().unwrap_or_default();
    let before = trace.then(|| exposition(&mut stack.clients[0]));
    let start = Instant::now();
    let [client_a, client_b] = &mut stack.clients;
    let [beams_a, beams_b] = beams;
    let steps = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| drive(client_a, inputs, 0, beams_a, false, &steps));
        let b = s.spawn(|| drive(client_b, inputs, 1, beams_b, true, &steps));
        (
            a.join().expect("connection A thread"),
            b.join().expect("connection B thread"),
        )
    });
    let secs = start.elapsed().as_secs_f64();
    let metrics = before.map(|before| (before, exposition(&mut stack.clients[0])));
    Round {
        done: [a, b],
        secs,
        metrics,
    }
}

/// RPC overhead (ms) on a quiet server: over sampled reads, the median
/// client roundtrip minus the median in-process `Session::score` on the
/// same requests, all after an untimed read has cached their answers. The
/// two are timed in alternating order.
fn rpc_overhead(
    client: &mut RpcClient,
    service: &Server,
    stream: &Stream,
    beams: &[&Vec<Clause>],
) -> f64 {
    let session = service.session(DB).expect("database is registered");
    let request = |beam: &Vec<Clause>| {
        (
            beam.clone(),
            stream.positive.clone(),
            stream.negative.clone(),
        )
    };
    let (mut local, mut remote) = (Vec::new(), Vec::new());
    for (i, beam) in beams.iter().take(OVERHEAD_SAMPLES).enumerate() {
        let (b, p, n) = request(beam);
        if client.score(b, p, n).is_err() {
            continue;
        }
        for side in [i % 2, 1 - i % 2] {
            let (b, p, n) = request(beam);
            let start = Instant::now();
            if side == 0 {
                session.score(b, p, n).expect("quiet in-process read");
                local.push(ms(start.elapsed()));
            } else {
                client.score(b, p, n).expect("quiet loopback read");
                remote.push(ms(start.elapsed()));
            }
        }
    }
    median(&remote) - median(&local)
}

/// Reference answers from a private engine over the unmodified instance,
/// memoized by clause text. The engine's own coverage cache is off (the
/// memo already covers repeats) and it uses both cores, since checking the
/// first round re-evaluates every clause it scored.
struct Reference {
    engine: Engine,
    memo: HashMap<(usize, String), ClauseCounts>,
}

impl Reference {
    fn new(inputs: &ServeInputs) -> Self {
        Reference {
            engine: Engine::from_arc(
                Arc::clone(&inputs.db),
                EngineConfig::default().with_threads(2).without_cache(),
            ),
            memo: HashMap::new(),
        }
    }

    /// Evaluates every clause of connection `c`'s `beams` not yet known, in
    /// large batches (sibling refinements share body prefixes).
    fn prepare<'b>(
        &mut self,
        stream: &Stream,
        c: usize,
        beams: impl Iterator<Item = &'b Vec<Clause>>,
    ) {
        let mut missing: Vec<Clause> = Vec::new();
        let mut queued = std::collections::HashSet::new();
        for clause in beams.flatten() {
            let key = (c, clause.to_string());
            if !self.memo.contains_key(&key) && queued.insert(key) {
                missing.push(clause.clone());
            }
        }
        for chunk in missing.chunks(512) {
            let pos = self.engine.covered_sets_batch(chunk, &stream.positive);
            let neg = self.engine.covered_sets_batch(chunk, &stream.negative);
            for ((clause, p), n) in chunk.iter().zip(pos).zip(neg) {
                let counts = ClauseCounts {
                    positive: p.len(),
                    negative: n.len(),
                };
                self.memo.insert((c, clause.to_string()), counts);
            }
        }
    }

    /// The reference answer to one of connection `c`'s prepared beams.
    fn counts(&self, c: usize, beam: &[Clause]) -> Vec<ClauseCounts> {
        beam.iter()
            .map(|cl| self.memo[&(c, cl.to_string())])
            .collect()
    }

    /// Checks a round's reads against the reference answers and its writes
    /// against their expected summaries: `(attempted, failed)`.
    fn check(&mut self, inputs: &ServeInputs, round: &Round) -> (usize, usize) {
        for c in 0..2 {
            let beams = round.reads().filter(|read| read.0 == c).map(|read| read.1);
            self.prepare(&inputs.streams[c], c, beams);
        }
        let (mut attempted, mut failed) = (0, 0);
        for (c, beam, counts, _) in round.reads() {
            attempted += 1;
            failed += usize::from(counts != Some(&self.counts(c, beam)));
        }
        for d in &round.done[1] {
            if let Done::Write { ok, .. } = d {
                attempted += 1;
                failed += usize::from(!ok);
            }
        }
        (attempted, failed)
    }
}

/// Deterministic in-process replay of the first `REPLAY_STEPS` steps of a
/// round, each in a fixed order (A's read, B's read, B's write), returning
/// the engine counters it caused. Exact work counts come from here, not
/// from the timed pass, where the two reads of a step race.
pub fn replay_counts(inputs: &ServeInputs) -> EngineReport {
    let server = Server::new(ServerConfig::default().with_threads(1));
    server
        .register(DB, Arc::new((*inputs.db).clone()))
        .expect("fresh server has no databases");
    let sessions = [
        server.session(DB).expect("registered"),
        server.session(DB).expect("registered"),
    ];
    let mut beams = [
        Beams::new(&inputs.streams[0]),
        Beams::new(&inputs.streams[1]),
    ];
    for step in 0..REPLAY_STEPS {
        for c in 0..2 {
            let stream = &inputs.streams[c];
            let beam = beams[c].next_beam();
            let counts = sessions[c]
                .score(
                    beam.clone(),
                    stream.positive.clone(),
                    stream.negative.clone(),
                )
                .expect("replay read");
            beams[c].observe(&beam, &counts);
        }
        let (batch, _) = inputs.write(step);
        sessions[1].apply(batch).expect("replay write");
    }
    server.report(DB).expect("registered")
}

/// Median encode and decode time (µs) of the wire payloads of sampled
/// reads: the request's clauses and examples and the response's counts.
fn codec_us(reads: &[(&Vec<Clause>, &Vec<ClauseCounts>)], stream: &Stream) -> (f64, f64) {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for (beam, counts) in reads.iter().take(CODEC_SAMPLES) {
        let start = Instant::now();
        let clauses: Vec<Vec<u8>> = beam.iter().map(to_bytes).collect();
        let tuples: Vec<Vec<u8>> = stream
            .positive
            .iter()
            .chain(&stream.negative)
            .map(to_bytes)
            .collect();
        let answers: Vec<Vec<u8>> = counts.iter().map(to_bytes).collect();
        encode.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        let ok = clauses.iter().all(|b| from_bytes::<Clause>(b).is_ok())
            && tuples.iter().all(|b| from_bytes::<Tuple>(b).is_ok())
            && answers
                .iter()
                .all(|b| from_bytes::<ClauseCounts>(b).is_ok());
        decode.push(start.elapsed().as_secs_f64() * 1e6);
        assert!(ok, "workload payloads decode");
    }
    (median(&encode), median(&decode))
}

/// Median time (ms) of `DatabaseInstance::apply_batch` and `Engine::apply`
/// on the benchmark's own copies, over a round's write stream. Each engine
/// write follows a read of connection B's stream so it has cached coverage
/// to invalidate.
fn apply_ms(inputs: &ServeInputs, writes: usize) -> (f64, f64) {
    let mut db = (*inputs.db).clone();
    let engine = Engine::from_arc(
        Arc::new((*inputs.db).clone()),
        EngineConfig::default().with_threads(1),
    );
    let stream = &inputs.streams[1];
    let mut beams = Beams::new(stream);
    let mut relational = Vec::new();
    let mut engine_ms = Vec::new();
    for i in 0..writes.clamp(2, 200) {
        let (batch, _): (MutationBatch, MutationSummary) = inputs.write(i);
        let start = Instant::now();
        db.apply_batch(&batch).expect("write applies");
        relational.push(ms(start.elapsed()));
        let beam = beams.next_beam();
        let pos = engine.covered_sets_batch(&beam, &stream.positive);
        let counts: Vec<ClauseCounts> = pos
            .iter()
            .map(|p| ClauseCounts {
                positive: p.len(),
                negative: 0,
            })
            .collect();
        beams.observe(&beam, &counts);
        let start = Instant::now();
        engine.apply(&batch).expect("write applies");
        engine_ms.push(ms(start.elapsed()));
    }
    (median(&relational), median(&engine_ms))
}

/// The `serve-uwcse-rw` workload.
pub fn serve(seed: u64, seconds: f64, trace: bool) -> Report {
    // Every round sets up afresh, timed, so the set-up samples spread over
    // the run like the rounds do. The first set-up is not timed: right after
    // process start it would measure the process's own start-up.
    let mut inputs = inputs::serve_inputs(seed);
    drop(stack(&inputs));

    // Rounds run while another round's requests still fit. Each round's
    // answers are checked as soon as it ends, outside its timed requests,
    // and only its timings are kept.
    let mut reference = Reference::new(&inputs);
    let mut setups = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut timings = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (last, mut stack) = loop {
        let start = Instant::now();
        inputs = inputs::serve_inputs(seed);
        let (mut stack, mut beams) = stack(&inputs);
        setups.push(start.elapsed().as_secs_f64());
        let r = round(&inputs, &mut stack, &mut beams, trace);
        let (n, bad) = reference.check(&inputs, &r);
        attempted += n;
        failed += bad;
        timings.push(Timings {
            read_ms: r.reads().map(|read| read.3).collect(),
            write_ms: r.write_ms(),
            secs: r.secs,
            metrics: r.metrics.clone(),
        });
        if Instant::now() + Duration::from_secs_f64(r.secs) > deadline {
            break (r, stack);
        }
    };

    let mut report = Report::default();
    if trace {
        let series = |name: &str, label: &str| {
            timings.iter().filter_map(|t| t.metrics.as_ref()).fold(
                Series::default(),
                |sum, (before, after)| {
                    sum.plus(
                        &Series::read(after, name, label).since(&Series::read(before, name, label)),
                    )
                },
            )
        };
        let requests = attempted.max(1) as f64;
        let a_reads: Vec<(&Vec<Clause>, &Vec<ClauseCounts>)> = last
            .reads()
            .filter(|read| read.0 == 0)
            .filter_map(|(_, beam, counts, _)| Some((beam, counts?)))
            .collect();
        let a_beams: Vec<&Vec<Clause>> = a_reads.iter().map(|(beam, _)| *beam).collect();
        let overhead = rpc_overhead(
            &mut stack.clients[0],
            stack.rpc.service(),
            &inputs.streams[0],
            &a_beams,
        );
        let overhead_n = a_beams.len().min(OVERHEAD_SAMPLES);
        report.metric("rpc.overhead_ms", overhead, overhead_n);
        let (encode, decode) = codec_us(&a_reads, &inputs.streams[0]);
        let codec_n = a_reads.len().min(CODEC_SAMPLES);
        report.metric("rpc.encode_us", encode, codec_n);
        report.metric("rpc.decode_us", decode, codec_n);
        for phase in ["read", "dispatch", "encode", "flush"] {
            let s = series("castor_rpc_loop_phase_ns", &format!("phase=\"{phase}\""));
            report.metric(
                match phase {
                    "read" => "rpc.loop_read_ms",
                    "dispatch" => "rpc.loop_dispatch_ms",
                    "encode" => "rpc.loop_encode_ms",
                    _ => "rpc.loop_flush_ms",
                },
                s.mean_ms(),
                s.count as usize,
            );
        }
        let db = format!("db=\"{DB}\"");
        let wait = series("castor_queue_wait_ns", &db);
        report.metric(
            "service.queue_wait_ms.p50",
            wait.quantile_ms(0.5),
            wait.count as usize,
        );
        report.metric(
            "service.queue_wait_ms.p90",
            wait.quantile_ms(0.9),
            wait.count as usize,
        );
        // Per request of the pass.
        let per_request = |name: &str| series(name, &db).sum_ms() / requests;
        report.metric(
            "service.job_run_ms",
            per_request("castor_job_run_ns"),
            attempted,
        );
        report.metric(
            "engine.batch_eval_ms",
            per_request("castor_engine_batch_eval_ns"),
            attempted,
        );
        report.metric(
            "engine.plan_compile_ms",
            per_request("castor_engine_plan_compile_ns"),
            attempted,
        );
        report.metric(
            "engine.cache_probe_ms",
            per_request("castor_engine_cache_probe_ns"),
            attempted,
        );
        let (relational, engine) = apply_ms(&inputs, ROUND_STEPS);
        let apply_n = ROUND_STEPS.clamp(2, 200);
        report.metric("relational.apply_batch_ms", relational, apply_n);
        report.metric("engine.apply_ms", engine, apply_n);
        let write_ms: Vec<f64> = timings.iter().flat_map(|t| t.write_ms.clone()).collect();
        report.metric("write_ms.p50", median(&write_ms), write_ms.len());
        let counts = replay_counts(&inputs);
        report.metric(
            "engine.cache_clauses_invalidated",
            counts.cache_clauses_invalidated as f64,
            1,
        );
        report.metric(
            "engine.batch_plans_invalidated",
            counts.batch_plans_invalidated as f64,
            1,
        );
        engine_ratios(&mut report, &counts);
    } else {
        // Round time and throughput are medians over rounds; the read
        // latency quantiles are taken over every read.
        let reads: Vec<f64> = timings.iter().flat_map(|t| t.read_ms.clone()).collect();
        let throughput: Vec<f64> = timings
            .iter()
            .map(|t| (t.read_ms.len() + t.write_ms.len()) as f64 / t.secs)
            .collect();
        let rounds: Vec<f64> = timings.iter().map(|t| t.secs).collect();
        report.metric("setup_s", median(&setups), setups.len());
        report.metric("pass_s", median(&rounds), rounds.len());
        report.metric("op_ms.p50", median(&reads), reads.len());
        report.metric("op_ms.p90", quantile(&reads, 0.9), reads.len());
        report.metric("ops_per_s", median(&throughput), attempted);
    }
    report.attempted = attempted;
    report.failed = failed;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve work counts repeat exactly on two runs with one seed.
    #[test]
    fn serve_work_counts_repeat_exactly() {
        let inputs = inputs::serve_inputs(11);
        let first = replay_counts(&inputs);
        assert!(first.cache_clauses_invalidated > 0, "{first}");
        assert!(first.batch_clauses > 0, "{first}");
        assert_eq!(first, replay_counts(&inputs));
    }

    /// Writes leave every read's answer unchanged, so reference answers
    /// computed without writes stay valid under any interleaving.
    #[test]
    fn writes_do_not_change_read_answers() {
        let inputs = inputs::serve_inputs(12);
        let stream = &inputs.streams[1];
        let beam = Beams::new(stream).next_beam();
        let engine = Engine::from_arc(
            Arc::new((*inputs.db).clone()),
            EngineConfig::default().with_threads(1),
        );
        let before = engine.covered_sets_batch(&beam, &stream.positive);
        let (batch, _) = inputs.write(0);
        engine.apply(&batch).unwrap();
        assert_eq!(before, engine.covered_sets_batch(&beam, &stream.positive));
    }
}

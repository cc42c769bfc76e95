//! Seeded fuzzing of the two wire decoders: the server's
//! [`FrameAccumulator`] and the client's [`read_response`].
//!
//! Every schedule starts from a well-formed frame of some request or
//! response kind and mutates it — flipped and overwritten bytes, forged
//! length prefixes and version bytes, truncation, inserted and appended
//! garbage — or replaces it with random bytes outright. Whatever arrives,
//! each decoder must answer `Ok` or a typed [`FrameError`]: no panic, and
//! no buffer past the frame cap. A failure names its seed, so the exact
//! byte schedule replays with `cargo test --test rpc_decoder_fuzz`.
//!
//! Below the frames, every payload type the RPC decodes is fuzzed on its
//! own through `codec::from_bytes`: each truncation and a few hundred
//! single-byte flips of a valid encoding must decode to `Ok` or `Err`.

use castor::core::CastorConfig;
use castor::engine::{ClauseCounts, EngineReport, LearnProgress};
use castor::logic::{Atom, Clause, Definition, Term};
use castor::relational::{MutationBatch, MutationSummary, Tuple};
use castor::rpc::codec::{from_bytes, to_bytes};
use castor::rpc::frame::{read_response, request_to_bytes, write_response, FrameAccumulator};
use castor::rpc::{ErrorCode, FrameError, Request, Response, RpcError, StreamBody, Wire};
use castor::service::{LearnAlgorithm, ServerReport};
use castor_learners::{LearnerParams, LearningTask};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;
use std::fmt::Debug;
use std::io::Read;

/// Mutated inputs per decoder.
const SEEDS: u64 = 10_000;

/// The decoders' frame cap: small, so forged lengths near it are cheap
/// to hit and the buffer bound is tight.
const CAP: usize = 4 * 1024;

fn clause() -> Clause {
    Clause::new(
        Atom::vars("collaborated", &["x", "y"]),
        vec![
            Atom::vars("publication", &["p", "x"]),
            Atom::new("publication", vec![Term::var("p"), Term::constant("ann")]),
        ],
    )
}

fn tuples() -> Vec<Tuple> {
    vec![
        Tuple::from_strs(&["ann", "bob"]),
        Tuple::from_strs(&["eve", "eve"]),
    ]
}

fn request_corpus() -> Vec<Vec<u8>> {
    let task = LearningTask::new(
        "t",
        1,
        vec![Tuple::from_strs(&["a"])],
        vec![Tuple::from_strs(&["b"])],
    );
    let requests = [
        Request::Hello {
            database: "demo".into(),
            eval_budget: Some(5_000),
            stream_credit: Some(64),
        },
        Request::Coverage {
            clauses: vec![clause(), clause()],
            examples: tuples(),
        },
        Request::Score {
            clauses: vec![clause()],
            positive: tuples(),
            negative: tuples(),
        },
        Request::Learn {
            task: task.clone(),
            algorithm: LearnAlgorithm::Foil(LearnerParams::default()),
        },
        Request::Learn {
            task,
            algorithm: LearnAlgorithm::Castor(Box::default()),
        },
        Request::Mutate(
            MutationBatch::new()
                .insert("publication", Tuple::from_strs(&["p9", "zed"]))
                .remove("publication", Tuple::from_strs(&["p1", "ann"])),
        ),
        Request::Report,
        Request::ServerReport,
        Request::Metrics,
        Request::TraceDump,
        Request::StreamCredit { grant: 512 },
    ];
    requests
        .iter()
        .enumerate()
        .map(|(id, request)| request_to_bytes(id as u64, request))
        .collect()
}

fn response_corpus() -> Vec<Vec<u8>> {
    let covered: Vec<HashSet<Tuple>> = vec![tuples().into_iter().collect(), HashSet::new()];
    let responses = [
        Response::HelloOk,
        Response::Scores(vec![ClauseCounts {
            positive: 3,
            negative: 1,
        }]),
        Response::Learned(Definition::new("collaborated", vec![clause()])),
        Response::Mutated(MutationSummary {
            inserted: 1,
            removed: 1,
            changed_relations: ["publication".to_string()].into_iter().collect(),
        }),
        Response::Report(EngineReport {
            coverage_tests: 17,
            ..Default::default()
        }),
        Response::ServerReport {
            engine: EngineReport::default(),
            server: ServerReport::default(),
        },
        Response::Metrics("castor_jobs_submitted_total 3\n".into()),
        Response::TraceDump("{\"traceEvents\":[]}".into()),
        Response::Stream {
            seq: 0,
            last: true,
            body: StreamBody::CoveredChunk(covered),
        },
        Response::Stream {
            seq: 2,
            last: false,
            body: StreamBody::Progress(LearnProgress {
                round: 2,
                clause: clause(),
                covered_positive: 4,
                covered_negative: 0,
                uncovered_remaining: 1,
            }),
        },
        Response::Error {
            code: ErrorCode::Rejected,
            limit: 8,
            message: "queue full".into(),
        },
    ];
    responses
        .iter()
        .enumerate()
        .map(|(id, response)| {
            let mut bytes = Vec::new();
            write_response(&mut bytes, id as u64, response).unwrap();
            bytes
        })
        .collect()
}

/// One seeded input: a corpus frame (or two, back to back) under one to
/// four mutations, or pure random bytes.
fn mutated(rng: &mut StdRng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let pick = |rng: &mut StdRng| corpus[rng.gen_range(0..corpus.len())].clone();
    if rng.gen_bool(0.1) {
        let len = rng.gen_range(0..64usize);
        return (0..len).map(|_| rng.next_u64() as u8).collect();
    }
    let mut bytes = pick(rng);
    if rng.gen_bool(0.2) {
        bytes.extend_from_slice(&pick(rng));
    }
    for _ in 0..rng.gen_range(1..=4usize) {
        let len = bytes.len();
        match rng.gen_range(0..8u32) {
            // Flip one bit.
            0 if len > 0 => bytes[rng.gen_range(0..len)] ^= 1 << rng.gen_range(0..8u32),
            // Overwrite one byte.
            1 if len > 0 => bytes[rng.gen_range(0..len)] = rng.next_u64() as u8,
            // Forge the length prefix: anything, or near the cap.
            2 if len >= 4 => {
                let declared = if rng.gen_bool(0.5) {
                    rng.next_u64() as u32
                } else {
                    (CAP as u32).saturating_add(rng.gen_range(0..8u32)) - 4
                };
                bytes[..4].copy_from_slice(&declared.to_le_bytes());
            }
            // Stamp another version byte.
            3 if len > 4 => bytes[4] = rng.gen_range(0..4u8),
            // Truncate.
            4 => bytes.truncate(rng.gen_range(0..=len)),
            // Insert garbage mid-frame.
            5 => {
                let at = rng.gen_range(0..=len);
                let junk: Vec<u8> = (0..rng.gen_range(1..16usize))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                bytes.splice(at..at, junk);
            }
            // Append garbage.
            6 => bytes.extend((0..rng.gen_range(1..16usize)).map(|_| rng.next_u64() as u8)),
            // Corrupt the payload tail, where trailing fields live.
            _ if len > 0 => {
                let at = len - 1 - rng.gen_range(0..len.min(8));
                bytes[at] = rng.next_u64() as u8;
            }
            _ => {}
        }
    }
    bytes
}

/// Runs `check` once per seed, naming the seed of any panic.
fn sweep(label: &str, mut check: impl FnMut(u64)) {
    for seed in 0..SEEDS {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(seed)));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("{label} failed under seed {seed}: {msg}");
        }
    }
}

#[test]
fn frame_accumulator_is_total_on_mutated_requests() {
    let corpus = request_corpus();
    let (mut decoded, mut rejected) = (0u64, 0u64);
    sweep("FrameAccumulator", |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = mutated(&mut rng, &corpus);
        let mut acc = FrameAccumulator::new(CAP);
        // Arbitrary read boundaries, as a non-blocking socket delivers.
        let mut rest = bytes.as_slice();
        while !rest.is_empty() {
            let n = rng.gen_range(1..=rest.len());
            acc.feed(&rest[..n]);
            rest = &rest[n..];
            while let Some(next) = acc.next_request() {
                match next {
                    Ok(_) => decoded += 1,
                    Err((_, FrameError::Io(_) | FrameError::Closed)) => {
                        panic!("an in-memory decoder reported a socket error")
                    }
                    Err(_) => {
                        rejected += 1;
                        assert!(acc.is_poisoned(), "errors must end the connection's input");
                    }
                }
            }
            // What is left is at most one incomplete frame under the cap.
            assert!(
                acc.buffered() < 4 + CAP,
                "{} bytes buffered past the {CAP}-byte cap",
                acc.buffered()
            );
        }
    });
    // The schedules must reach both outcomes, or the sweep tests nothing.
    assert!(decoded > SEEDS / 20, "only {decoded} frames decoded");
    assert!(rejected > SEEDS / 4, "only {rejected} frames rejected");
}

/// A reader over a byte slice that counts what the decoder consumed.
struct Counting<'a> {
    bytes: &'a [u8],
    consumed: usize,
}

impl Read for Counting<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.bytes.read(buf)?;
        self.consumed += n;
        Ok(n)
    }
}

#[test]
fn read_response_is_total_on_mutated_responses() {
    let corpus = response_corpus();
    let (mut decoded, mut rejected) = (0u64, 0u64);
    sweep("read_response", |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = mutated(&mut rng, &corpus);
        let mut reader = Counting {
            bytes: &bytes,
            consumed: 0,
        };
        loop {
            let before = reader.consumed;
            let result = read_response(&mut reader, CAP);
            // One call never reads past one frame under the cap.
            assert!(reader.consumed - before <= 4 + CAP);
            match result {
                Ok(_) => decoded += 1,
                Err(FrameError::Closed) => break,
                Err(error) => {
                    rejected += 1;
                    // The client surfaces every decoder failure as a typed
                    // transport or framing error.
                    assert!(matches!(
                        RpcError::from(error),
                        RpcError::Io(_) | RpcError::Malformed(_)
                    ));
                    break;
                }
            }
        }
    });
    assert!(decoded > SEEDS / 20, "only {decoded} frames decoded");
    assert!(rejected > SEEDS / 4, "only {rejected} frames rejected");
}

/// Single-byte flips per payload type.
const FLIPS: usize = 300;

/// Feeds `from_bytes::<T>` every truncation of `value`'s encoding and
/// [`FLIPS`] seeded single-byte flips of it. Each call must return, `Ok`
/// or `Err`; a panic is reported with the type, the input and the seed.
fn payload_is_total<T: Wire + PartialEq + Debug>(label: &str, seed: u64, value: T) {
    let bytes = to_bytes(&value);
    assert_eq!(from_bytes::<T>(&bytes).as_ref(), Ok(&value), "{label}");
    let decode = |input: &[u8], what: &str| {
        let outcome = std::panic::catch_unwind(|| from_bytes::<T>(input).is_ok());
        assert!(
            outcome.is_ok(),
            "{label}: from_bytes panicked on {what} (seed {seed}): {input:?}"
        );
    };
    for cut in 0..bytes.len() {
        decode(&bytes[..cut], &format!("a truncation at {cut}"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..FLIPS {
        let mut flipped = bytes.clone();
        let at = rng.gen_range(0..flipped.len());
        flipped[at] ^= rng.gen_range(1..=255u8);
        decode(&flipped, &format!("a flip at {at}"));
    }
}

#[test]
fn payload_decoders_are_total_on_truncations_and_byte_flips() {
    let report = EngineReport {
        coverage_tests: 1_000,
        cache_hits: 300,
        budget_exhausted: 2,
        batch_prefix_hits: 1 << 20,
        ..Default::default()
    };
    let mut params = LearnerParams::large_dataset();
    params
        .constant_positions
        .insert(("publication".to_string(), 1usize));
    let task = LearningTask::new(
        "collaborated",
        2,
        tuples(),
        vec![Tuple::from_strs(&["bob", "eve"])],
    );
    let mutations = MutationBatch::new()
        .insert("publication", Tuple::from_strs(&["p9", "zed"]))
        .remove("publication", Tuple::from_strs(&["p1", "ann"]));

    payload_is_total("EngineReport", 1, report);
    payload_is_total(
        "ServerReport",
        2,
        ServerReport {
            sessions_accepted: 9,
            sessions_rejected: 1,
            sessions_active: 3,
            jobs_submitted: 400,
            jobs_rejected: 7,
            queue_drains: 128,
        },
    );
    payload_is_total("Clause", 3, clause());
    payload_is_total("Tuple", 4, tuples().remove(0));
    payload_is_total(
        "Definition",
        5,
        Definition::new("collaborated", vec![clause(), clause()]),
    );
    payload_is_total("MutationBatch", 6, mutations);
    payload_is_total("LearnerParams", 7, params.clone());
    payload_is_total(
        "CastorConfig",
        8,
        CastorConfig {
            params: params.clone(),
            use_general_inds: true,
            ..Default::default()
        },
    );
    payload_is_total("LearningTask", 9, task);
    payload_is_total("LearnAlgorithm", 10, LearnAlgorithm::Foil(params));
    payload_is_total(
        "MutationSummary",
        11,
        MutationSummary {
            inserted: 2,
            removed: 1,
            changed_relations: ["publication".to_string()].into_iter().collect(),
        },
    );
    payload_is_total(
        "ClauseCounts",
        12,
        ClauseCounts {
            positive: 3,
            negative: 1,
        },
    );
    payload_is_total(
        "covered set",
        13,
        tuples().into_iter().collect::<HashSet<Tuple>>(),
    );
}

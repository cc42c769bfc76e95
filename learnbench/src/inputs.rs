//! Seeded inputs: UW-CSE learning tasks for the learn workloads, and the
//! enlarged instance plus read/write request streams for the serve
//! workload. The program under test receives only what these build.

use castor_datasets::uwcse::{self, UwCseConfig};
use castor_datasets::{cross_validation_folds, DatasetVariant};
use castor_learners::{LearnerParams, LearningTask};
use castor_logic::{Atom, Clause, Term};
use castor_relational::{DatabaseInstance, MutationBatch, MutationSummary, Tuple, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Folds of the cross-validation split behind the learn tasks (the
/// workspace's table harness uses the same count).
pub const FOLDS: usize = 2;

/// One learning task: a cross-validation training split of one schema
/// variant, with its held-out examples.
#[derive(Debug, Clone)]
pub struct LearnTask {
    /// `<variant>/fold<i>`.
    pub name: String,
    /// Index of the fold the task trains on.
    pub fold: usize,
    /// The variant's instance.
    pub db: Arc<DatabaseInstance>,
    /// UW-CSE learner parameters with the variant's constant positions.
    pub params: LearnerParams,
    /// The training split.
    pub train: LearningTask,
    /// Held-out positives.
    pub test_positive: Vec<Tuple>,
    /// Held-out negatives.
    pub test_negative: Vec<Tuple>,
}

/// Prefixes every constant with a seed-specific namespace. Every value gets
/// the same prefix, so value order and the instance's structure are kept
/// while every stored string (and its hash) differs per seed.
fn rename(tuple: &Tuple, prefix: &str) -> Tuple {
    Tuple::new(
        tuple
            .iter()
            .map(|v| Value::str(format!("{prefix}{}", v.render())))
            .collect(),
    )
}

fn rename_db(db: &DatabaseInstance, prefix: &str) -> DatabaseInstance {
    let mut out = DatabaseInstance::empty(db.schema());
    for relation in db.relations() {
        for tuple in relation.tuples() {
            out.insert(relation.name(), rename(tuple, prefix))
                .expect("renamed tuple has the relation's arity");
        }
    }
    out
}

/// The UW-CSE family at `config`'s scale with every constant renamed for
/// `seed`, as `(variant, instance, task)` triples, plus the prefix used.
///
/// The seed names the instance (see [`rename`]) rather than re-drawing its
/// structure: across generator seeds a single Castor learn ranges from
/// 0.01 s to 6.5 s, and serve throughput moves 12%, so a re-drawn instance
/// would measure the draw, not the program.
fn renamed_family(
    config: UwCseConfig,
    seed: u64,
) -> (
    Vec<(DatasetVariant, Arc<DatabaseInstance>, LearningTask)>,
    String,
) {
    let prefix = format!("k{seed}:");
    let renamed = uwcse::generate(&config)
        .variants
        .into_iter()
        .map(|variant| {
            let db = Arc::new(rename_db(&variant.db, &prefix));
            let task = variant.task.with_examples(
                variant
                    .task
                    .positive
                    .iter()
                    .map(|t| rename(t, &prefix))
                    .collect(),
                variant
                    .task
                    .negative
                    .iter()
                    .map(|t| rename(t, &prefix))
                    .collect(),
            );
            (variant, db, task)
        })
        .collect();
    (renamed, prefix)
}

/// The learn tasks for `seed`: the training splits `folds` of the four
/// UW-CSE schema variants at the workspace's default scale, in variant
/// order within each fold.
pub fn learn_tasks(seed: u64, folds: &[usize]) -> Vec<LearnTask> {
    let (family, _) = renamed_family(UwCseConfig::default(), seed);
    let mut tasks = Vec::new();
    for &fold in folds {
        for (variant, db, task) in &family {
            let split = cross_validation_folds(task, FOLDS).swap_remove(fold);
            tasks.push(LearnTask {
                name: format!("{}/fold{fold}", variant.name),
                fold,
                db: Arc::clone(db),
                params: LearnerParams {
                    constant_positions: variant.constant_positions.clone(),
                    ..LearnerParams::uwcse()
                },
                train: split.train,
                test_positive: split.test_positive,
                test_negative: split.test_negative,
            });
        }
    }
    tasks
}

/// Examples in one serve connection's slice, per class.
pub const SLICE: usize = 128;
/// Clauses per `score` read.
pub const BEAM: usize = 32;
/// Clauses of each read carried over from the connection's previous beam.
pub const SURVIVORS: usize = 8;
/// Tuples inserted (and later removed) by one write.
const WRITE_TUPLES: usize = 2;
/// Relations the writes touch, in rotation; every one is read by the beams.
const WRITE_RELATIONS: [(&str, usize); 3] = [("publication", 2), ("ta", 3), ("taughtBy", 3)];

/// One serve connection's inputs.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Positive examples every read scores against.
    pub positive: Vec<Tuple>,
    /// Negative examples every read scores against.
    pub negative: Vec<Tuple>,
    /// Seed of the connection's refinement stream.
    refinements_seed: u64,
    /// The instance's constant prefix.
    prefix: String,
}

impl Stream {
    /// The connection's fresh refinements, from the start.
    pub fn refinements(&self) -> Refinements {
        Refinements::new(self.refinements_seed, &self.prefix)
    }
}

/// The serve workload's inputs.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// The enlarged UW-CSE Original instance.
    pub db: Arc<DatabaseInstance>,
    /// Connection A (reads) and connection B (reads and writes).
    pub streams: [Stream; 2],
    seed: u64,
}

/// The draw behind both example slices and both refinement streams, fixed
/// for every seed.
const STREAM_DRAW: u64 = 13;

/// The serve inputs for `seed`: the seed names the enlarged instance, the
/// drawn constants and the written tuples (see [`renamed_family`]). The
/// slices and refinement streams come from [`STREAM_DRAW`] whatever the
/// seed: drawn per seed, a round of the same size took from 2.5 s to 4.2 s
/// on a shared 2-core x86-64 host depending on which clauses the seed drew,
/// which measured the draw, not the program.
pub fn serve_inputs(seed: u64) -> ServeInputs {
    let config = UwCseConfig {
        students: 400,
        professors: 60,
        courses: 120,
        ..Default::default()
    };
    let (family, prefix) = renamed_family(config, seed);
    let (_, db, task) = family
        .into_iter()
        .find(|(variant, _, _)| variant.name == "Original")
        .expect("family has Original");
    let stream = |k: u64| {
        let mut rng = StdRng::seed_from_u64(STREAM_DRAW ^ (0x9e37_79b9_7f4a_7c15 * (k + 1)));
        let mut positive = task.positive.clone();
        let mut negative = task.negative.clone();
        positive.shuffle(&mut rng);
        negative.shuffle(&mut rng);
        positive.truncate(SLICE);
        negative.truncate(SLICE);
        Stream {
            positive,
            negative,
            refinements_seed: rng.next_u64(),
            prefix: prefix.clone(),
        }
    };
    ServeInputs {
        db,
        streams: [stream(0), stream(1)],
        seed,
    }
}

impl ServeInputs {
    /// Write `i` of connection B with the summary the server must answer.
    /// Even writes insert fresh tuples into one relation; the next odd write
    /// removes exactly those, so the instance size stays constant. Every
    /// written value is a constant no other tuple holds, and every read
    /// clause is head-connected, so no write changes any read's answer.
    pub fn write(&self, i: usize) -> (MutationBatch, MutationSummary) {
        let round = i / 2;
        let (relation, arity) = WRITE_RELATIONS[round % WRITE_RELATIONS.len()];
        let tuples: Vec<Tuple> = (0..WRITE_TUPLES)
            .map(|t| {
                let values: Vec<String> = (0..arity)
                    .map(|p| format!("w{}_{round}_{t}_{p}", self.seed))
                    .collect();
                let refs: Vec<&str> = values.iter().map(String::as_str).collect();
                Tuple::from_strs(&refs)
            })
            .collect();
        let insert = i.is_multiple_of(2);
        let mut batch = MutationBatch::new();
        for tuple in tuples {
            batch = if insert {
                batch.insert(relation, tuple)
            } else {
                batch.remove(relation, tuple)
            };
        }
        let summary = MutationSummary {
            inserted: if insert { WRITE_TUPLES } else { 0 },
            removed: if insert { 0 } else { WRITE_TUPLES },
            changed_relations: BTreeSet::from([relation.to_string()]),
        };
        (batch, summary)
    }
}

/// Constant domains of the Original schema's constant positions.
fn constants(relation: &str, position: usize) -> &'static [&'static str] {
    match (relation, position) {
        ("inPhase", 1) => &["pre_quals", "post_quals", "post_generals"],
        ("yearsInProgram", 1) => &["1", "2", "3", "4", "5", "6", "7", "8"],
        ("hasPosition", 1) => &["faculty", "affiliate", "adjunct"],
        ("courseLevel", 1) => &["level_300", "level_400", "level_500"],
        _ => &[],
    }
}

/// A seeded stream of head-connected refinements of the Original ground
/// truth: a subset of its body plus two or three literals, each joined to
/// the clause through one existing variable, with fresh variables or
/// constants elsewhere. The space holds millions of clauses, far more than
/// a pass draws, so repeats are rare.
#[derive(Debug, Clone)]
pub struct Refinements {
    rng: StdRng,
    base: Clause,
    relations: Vec<(String, usize)>,
    /// The instance's constant prefix, applied to drawn constants.
    prefix: String,
}

impl Refinements {
    fn new(seed: u64, prefix: &str) -> Self {
        Refinements {
            rng: StdRng::seed_from_u64(seed),
            base: uwcse::ground_truth_original().clauses[0].clone(),
            relations: uwcse::original_schema()
                .relations()
                .map(|r| (r.name().to_string(), r.arity()))
                .collect(),
            prefix: prefix.to_string(),
        }
    }

    /// The next refinement.
    pub fn next_clause(&mut self) -> Clause {
        let rng = &mut self.rng;
        // Every literal of the base body holds a head variable, so any
        // non-empty subset of it is head-connected.
        let subset = rng.gen_range(1..1usize << self.base.body.len());
        let body = (0..self.base.body.len())
            .filter(|i| subset & (1 << i) != 0)
            .map(|i| self.base.body[i].clone())
            .collect();
        let mut clause = Clause::new(self.base.head.clone(), body);
        let mut fresh = 0;
        for _ in 0..rng.gen_range(2..=3) {
            let vars: Vec<String> = clause.variables().into_iter().collect();
            let (relation, arity) = &self.relations[rng.gen_range(0..self.relations.len())];
            let link = rng.gen_range(0..*arity);
            let terms = (0..*arity)
                .map(|p| {
                    let domain = constants(relation, p);
                    if p == link {
                        Term::var(vars[rng.gen_range(0..vars.len())].clone())
                    } else if !domain.is_empty() && rng.gen_bool(0.5) {
                        let constant = domain[rng.gen_range(0..domain.len())];
                        Term::constant(Value::str(format!("{}{constant}", self.prefix)))
                    } else {
                        fresh += 1;
                        Term::var(format!("v{fresh}"))
                    }
                })
                .collect();
            clause.push(Atom::new(relation.clone(), terms));
        }
        clause
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_keeps_learn_tasks_isomorphic() {
        let a = learn_tasks(1, &[0]);
        let b = learn_tasks(2, &[0]);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.db.total_tuples(), y.db.total_tuples());
            assert_eq!(x.train.positive.len(), y.train.positive.len());
            assert_ne!(x.train.positive[0], y.train.positive[0]);
        }
    }

    #[test]
    fn writes_insert_then_remove_the_same_tuples() {
        let inputs = serve_inputs(3);
        let mut db = (*inputs.db).clone();
        let before = db.total_tuples();
        for i in 0..6 {
            let (batch, expected) = inputs.write(i);
            assert_eq!(db.apply_batch(&batch).unwrap(), expected);
        }
        assert_eq!(db.total_tuples(), before);
        assert_eq!(inputs.streams[1].positive.len(), SLICE);
    }

    #[test]
    fn refinements_are_seeded_and_rarely_repeat() {
        let inputs = serve_inputs(4);
        let mut a = inputs.streams[0].refinements();
        let mut b = inputs.streams[0].refinements();
        let drawn: Vec<String> = (0..2000).map(|_| a.next_clause().to_string()).collect();
        assert_eq!(
            drawn[1999],
            (0..2000)
                .map(|_| b.next_clause().to_string())
                .last()
                .unwrap()
        );
        let distinct: std::collections::HashSet<&String> = drawn.iter().collect();
        assert!(distinct.len() > 1950, "{} distinct of 2000", distinct.len());
    }
}

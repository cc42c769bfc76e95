//! Castor's IND-aware bottom-clause construction (Section 7.1).
//!
//! The construction follows the standard saturation loop (pull in every
//! tuple containing a known constant) with two changes that make the result
//! invariant under vertical (de)composition:
//!
//! 1. **IND closure per iteration.** Whenever a tuple `s_i` of a relation
//!    `S_i` belonging to an inclusion class is added, Castor immediately
//!    adds, *in the same iteration*, the tuples of the other class members
//!    that join with `s_i` through the class's INDs (with equality — or
//!    subset INDs in the general mode of Section 7.4), transitively until
//!    the class's INDs are exhausted. Over a decomposed schema this
//!    reconstructs exactly the literals whose natural join is the composed
//!    tuple, which is what Lemma 7.5 relies on.
//! 2. **Variable-count stopping condition.** Instead of a depth bound — a
//!    schema-dependent quantity (Lemma 6.3) — construction stops when the
//!    number of *distinct variables* exceeds a threshold, which is equal
//!    across equivalent clauses over (de)composed schemas.

use crate::config::CastorConfig;
use crate::plan::BottomClausePlan;
use castor_learners::bottom_clause::variablize_with;
use castor_logic::{Atom, Clause};
use castor_relational::{DatabaseInstance, Tuple, Value};
use std::collections::{BTreeSet, HashSet};

/// Builds Castor's *ground* bottom clause (saturation) for `example`.
pub fn castor_ground_bottom_clause(
    db: &DatabaseInstance,
    plan: &BottomClausePlan,
    target: &str,
    example: &Tuple,
    config: &CastorConfig,
) -> Clause {
    let params = &config.params;
    let head = Atom::ground(target, example);
    let mut body: Vec<Atom> = Vec::new();
    let mut seen: HashSet<(String, Tuple)> = HashSet::new();
    let mut known: BTreeSet<Value> = example.iter().cloned().collect();
    let mut frontier: Vec<Value> = known.iter().cloned().collect();
    // Distinct constants seen so far ≈ distinct variables after
    // variablization (the head constants are variablized too).
    let variable_budget = params.max_distinct_variables.max(example.arity());

    for _ in 0..params.max_iterations.max(1) {
        if frontier.is_empty() {
            break;
        }
        if known.len() >= variable_budget {
            break;
        }
        let mut next_frontier: BTreeSet<Value> = BTreeSet::new();
        for constant in &frontier {
            let mut per_relation: std::collections::HashMap<String, usize> = Default::default();
            for (relation, tuple) in db.tuples_containing(constant) {
                let count = per_relation.entry(relation.to_string()).or_insert(0);
                if *count >= params.max_recall_per_relation {
                    continue;
                }
                let key = (relation.to_string(), tuple.clone());
                if seen.contains(&key) {
                    continue;
                }
                *count += 1;
                seen.insert(key);
                body.push(Atom::ground(relation, tuple));
                for v in tuple.iter() {
                    if !known.contains(v) {
                        next_frontier.insert(v.clone());
                    }
                }
                // IND closure: pull in the tuples of the same inclusion
                // class that join with this tuple, transitively.
                close_over_inds(
                    db,
                    plan,
                    relation,
                    tuple,
                    params.max_recall_per_relation,
                    &mut body,
                    &mut seen,
                    &known,
                    &mut next_frontier,
                );
            }
        }
        known.extend(next_frontier.iter().cloned());
        frontier = next_frontier.into_iter().collect();
    }
    Clause::new(head, body)
}

/// Builds Castor's variablized bottom clause for `example`.
pub fn castor_bottom_clause(
    db: &DatabaseInstance,
    plan: &BottomClausePlan,
    target: &str,
    example: &Tuple,
    config: &CastorConfig,
) -> Clause {
    let ground = castor_ground_bottom_clause(db, plan, target, example, config);
    variablize_with(&ground, &config.params.constant_positions)
}

/// Breadth-first closure over the IND edges of `relation` starting from
/// `tuple`: every joining tuple of a class partner is added to the body, and
/// its own partners are then explored, until the class's INDs are exhausted
/// (Proposition 7.4 guarantees this terminates without attribute-switching
/// cycles for acyclic decompositions).
#[allow(clippy::too_many_arguments)]
fn close_over_inds(
    db: &DatabaseInstance,
    plan: &BottomClausePlan,
    relation: &str,
    tuple: &Tuple,
    recall_limit: usize,
    body: &mut Vec<Atom>,
    seen: &mut HashSet<(String, Tuple)>,
    known: &BTreeSet<Value>,
    next_frontier: &mut BTreeSet<Value>,
) {
    let mut queue: Vec<(String, Tuple)> = vec![(relation.to_string(), tuple.clone())];
    // Each relation of the inclusion class is expanded at most once per
    // closure: the closure reconstructs the literals whose natural join is
    // the composed tuple containing `tuple`, it does not walk the data graph
    // transitively (that is the job of the outer per-iteration loop).
    let mut visited_relations: HashSet<String> = HashSet::new();
    visited_relations.insert(relation.to_string());
    while let Some((rel, probe)) = queue.pop() {
        for edge in plan.edges_of(&rel) {
            if visited_relations.contains(&edge.to_relation) {
                continue;
            }
            visited_relations.insert(edge.to_relation.clone());
            for joined in plan.joining_tuples(db, edge, &probe, recall_limit) {
                let key = (edge.to_relation.clone(), joined.clone());
                if seen.contains(&key) {
                    continue;
                }
                seen.insert(key);
                body.push(Atom::ground(&edge.to_relation, joined));
                for v in joined.iter() {
                    if !known.contains(v) {
                        next_frontier.insert(v.clone());
                    }
                }
                queue.push((edge.to_relation.clone(), joined.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_logic::subsumption::theta_equivalent;
    use castor_relational::{InclusionDependency, RelationSymbol, Schema};
    use castor_transform::{TransformStep, Transformation};

    /// UW-CSE 4NF fragment: student(stud,phase,years) + publication.
    fn schema_4nf() -> Schema {
        let mut s = Schema::new("uwcse-4nf");
        s.add_relation(RelationSymbol::new("student", &["stud", "phase", "years"]))
            .add_relation(RelationSymbol::new("publication", &["title", "person"]));
        s
    }

    fn db_4nf() -> DatabaseInstance {
        let mut db = DatabaseInstance::empty(&schema_4nf());
        db.insert("student", Tuple::from_strs(&["abe", "prelim", "2"]))
            .unwrap();
        db.insert("student", Tuple::from_strs(&["bea", "post", "7"]))
            .unwrap();
        db.insert("publication", Tuple::from_strs(&["p1", "abe"]))
            .unwrap();
        db
    }

    /// The decomposition of the 4NF fragment into the Original schema.
    fn to_original() -> Transformation {
        Transformation::new(
            "4nf-to-original",
            vec![TransformStep::decompose(
                &schema_4nf(),
                "student",
                &[
                    ("student", &["stud"]),
                    ("inPhase", &["stud", "phase"]),
                    ("yearsInProgram", &["stud", "years"]),
                ],
            )],
        )
    }

    #[test]
    fn ind_closure_adds_all_joining_parts_in_same_iteration() {
        // Example 7.2: selecting student(Abe) must also pull in
        // inPhase(Abe, prelim) and yearsInProgram(Abe, 2).
        let tau = to_original();
        let original_db = tau.apply_instance(&db_4nf()).unwrap();
        let plan = BottomClausePlan::compile(original_db.schema(), false);
        let mut config = CastorConfig::default();
        config.params.max_iterations = 1;
        let ground = castor_ground_bottom_clause(
            &original_db,
            &plan,
            "hardWorking",
            &Tuple::from_strs(&["abe"]),
            &config,
        );
        let relations: BTreeSet<&str> = ground.body.iter().map(|a| a.relation.as_str()).collect();
        assert!(relations.contains("student"));
        assert!(relations.contains("inPhase"));
        assert!(relations.contains("yearsInProgram"));
    }

    #[test]
    fn bottom_clauses_are_equivalent_across_decomposition() {
        // Lemma 7.5: Castor's bottom clause for the same example over the
        // 4NF instance and its decomposition must be equivalent, i.e. each
        // must derive the same example and θ-map into the other after the
        // decomposition's definition mapping. We check the practical
        // consequence used by the experiments: both cover the example
        // relative to their own instance, and both have the same number of
        // distinct variables (the paper's invariant stopping measure).
        let db4 = db_4nf();
        let tau = to_original();
        let db_orig = tau.apply_instance(&db4).unwrap();
        let config = CastorConfig::default();

        let plan4 = BottomClausePlan::compile(db4.schema(), false);
        let plan_orig = BottomClausePlan::compile(db_orig.schema(), false);
        let example = Tuple::from_strs(&["abe"]);
        let bottom4 = castor_bottom_clause(&db4, &plan4, "hardWorking", &example, &config);
        let bottom_orig =
            castor_bottom_clause(&db_orig, &plan_orig, "hardWorking", &example, &config);

        assert!(castor_logic::covers_example(&bottom4, &db4, &example));
        assert!(castor_logic::covers_example(
            &bottom_orig,
            &db_orig,
            &example
        ));
        assert_eq!(
            bottom4.distinct_variable_count(),
            bottom_orig.distinct_variable_count()
        );
        // Mapping the 4NF bottom clause through the decomposition yields a
        // clause equivalent to the one built directly over the decomposed
        // schema.
        let mapped = castor_transform::map_definition_through_decomposition(
            &castor_logic::Definition::new("hardWorking", vec![bottom4.clone()]),
            &tau,
        );
        assert_eq!(
            theta_equivalent(&mapped.clauses[0], &bottom_orig),
            Some(true)
        );
    }

    #[test]
    fn variable_budget_stops_construction() {
        let db = db_4nf();
        let plan = BottomClausePlan::compile(db.schema(), false);
        let mut config = CastorConfig::default();
        config.params.max_distinct_variables = 3;
        config.params.max_iterations = 5;
        let bottom = castor_bottom_clause(&db, &plan, "t", &Tuple::from_strs(&["abe"]), &config);
        // The budget is checked at iteration boundaries, so the clause stays
        // close to the cap instead of saturating the whole database.
        assert!(bottom.distinct_variable_count() <= 6);
    }

    #[test]
    fn general_ind_mode_follows_subset_inds() {
        // With a subset IND publication[person] ⊆ student[stud], adding a
        // student tuple in general mode pulls in that student's publications.
        let mut schema = schema_4nf();
        schema.add_ind(InclusionDependency::subset(
            "publication",
            &["person"],
            "student",
            &["stud"],
        ));
        let mut db = DatabaseInstance::empty(&schema);
        db.insert("student", Tuple::from_strs(&["abe", "prelim", "2"]))
            .unwrap();
        db.insert("publication", Tuple::from_strs(&["p1", "abe"]))
            .unwrap();
        let plan_eq = BottomClausePlan::compile(&schema, false);
        let plan_gen = BottomClausePlan::compile(&schema, true);
        assert!(plan_eq.class_of("publication").is_none());
        assert!(plan_gen.class_of("publication").is_some());
        let mut config = CastorConfig::default();
        config.params.max_iterations = 1;
        let bottom =
            castor_ground_bottom_clause(&db, &plan_gen, "t", &Tuple::from_strs(&["abe"]), &config);
        assert!(bottom.body.iter().any(|a| a.relation == "publication"));
    }
}

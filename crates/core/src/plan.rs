//! Pre-compiled bottom-clause plans ("stored procedures", Section 7.5.2).
//!
//! The paper implements bottom-clause construction inside a VoltDB stored
//! procedure that is created once per schema and reused across calls, both
//! to cut per-call API overhead and to reuse the schema analysis (which
//! relations form inclusion classes, which attribute positions the INDs
//! refer to). [`BottomClausePlan`] plays the same role here: it resolves the
//! inclusion classes and all IND attribute positions once, and exposes the
//! joined-tuple lookup used by the IND-aware construction. The
//! "without stored procedures" ablation of Table 13 rebuilds this analysis
//! on every bottom-clause call and answers lookups with full scans instead
//! of index probes.

use castor_relational::{DatabaseInstance, Schema, Tuple, Value};
use castor_transform::{inclusion_classes, InclusionClass};
use std::collections::BTreeMap;

/// One resolved IND edge: from a relation to a partner relation, with the
/// attribute positions to match on both sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndEdge {
    /// Relation the probe tuple belongs to.
    pub from_relation: String,
    /// Attribute positions of the probe tuple to project.
    pub from_positions: Vec<usize>,
    /// Relation to fetch joining tuples from.
    pub to_relation: String,
    /// Attribute positions in the partner relation to match.
    pub to_positions: Vec<usize>,
}

/// A per-schema plan for IND-aware bottom-clause construction.
#[derive(Debug, Clone)]
pub struct BottomClausePlan {
    /// The inclusion classes of the schema.
    classes: Vec<InclusionClass>,
    /// For each relation, the resolved IND edges to follow when a tuple of
    /// that relation is added to a bottom clause.
    edges: BTreeMap<String, Vec<IndEdge>>,
    /// Whether lookups use the per-attribute hash indexes (planned mode) or
    /// full scans (the Table 13 ablation).
    pub use_indexes: bool,
}

impl BottomClausePlan {
    /// Compiles the plan for a schema. `general_inds` additionally follows
    /// subset-form INDs (Section 7.4); otherwise only INDs with equality
    /// are used (Definition 7.1).
    pub fn compile(schema: &Schema, general_inds: bool) -> Self {
        let classes = inclusion_classes(schema, !general_inds);
        let mut edges: BTreeMap<String, Vec<IndEdge>> = BTreeMap::new();
        for class in &classes {
            for ind in &class.inds {
                let lhs_pos = schema
                    .attr_positions(&ind.lhs_relation, &ind.lhs_attrs)
                    .expect("schema validated");
                let rhs_pos = schema
                    .attr_positions(&ind.rhs_relation, &ind.rhs_attrs)
                    .expect("schema validated");
                // Follow the IND in both directions: adding a tuple of either
                // side must pull in the joining tuples of the other side.
                edges
                    .entry(ind.lhs_relation.clone())
                    .or_default()
                    .push(IndEdge {
                        from_relation: ind.lhs_relation.clone(),
                        from_positions: lhs_pos.clone(),
                        to_relation: ind.rhs_relation.clone(),
                        to_positions: rhs_pos.clone(),
                    });
                edges
                    .entry(ind.rhs_relation.clone())
                    .or_default()
                    .push(IndEdge {
                        from_relation: ind.rhs_relation.clone(),
                        from_positions: rhs_pos,
                        to_relation: ind.lhs_relation.clone(),
                        to_positions: lhs_pos,
                    });
            }
        }
        BottomClausePlan {
            classes,
            edges,
            use_indexes: true,
        }
    }

    /// The inclusion classes of the schema.
    pub fn classes(&self) -> &[InclusionClass] {
        &self.classes
    }

    /// The inclusion class containing `relation`, if any.
    pub fn class_of(&self, relation: &str) -> Option<&InclusionClass> {
        self.classes.iter().find(|c| c.contains(relation))
    }

    /// The IND edges to follow from `relation`.
    pub fn edges_of(&self, relation: &str) -> &[IndEdge] {
        self.edges
            .get(relation)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Tuples of `edge.to_relation` that join with `probe` through the IND,
    /// capped at `limit`. In planned mode this is an index probe; in the
    /// ablation mode it is a full scan with a filter.
    pub fn joining_tuples<'a>(
        &self,
        db: &'a DatabaseInstance,
        edge: &IndEdge,
        probe: &Tuple,
        limit: usize,
    ) -> Vec<&'a Tuple> {
        let Some(instance) = db.relation(&edge.to_relation) else {
            return Vec::new();
        };
        let key: Vec<&Value> = edge
            .from_positions
            .iter()
            .map(|&p| probe.value(p))
            .collect();
        let mut out: Vec<&Tuple> = if self.use_indexes {
            instance.select_on_positions(&edge.to_positions, &key)
        } else {
            instance
                .iter()
                .filter(|t| {
                    edge.to_positions
                        .iter()
                        .zip(key.iter())
                        .all(|(&p, &v)| t.value(p) == v)
                })
                .collect()
        };
        out.truncate(limit);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_relational::{InclusionDependency, RelationSymbol};

    fn schema() -> Schema {
        let mut s = Schema::new("uwcse-original");
        s.add_relation(RelationSymbol::new("student", &["stud"]))
            .add_relation(RelationSymbol::new("inPhase", &["stud", "phase"]))
            .add_relation(RelationSymbol::new("yearsInProgram", &["stud", "years"]))
            .add_relation(RelationSymbol::new("publication", &["title", "person"]))
            .add_ind(InclusionDependency::equality(
                "student",
                &["stud"],
                "inPhase",
                &["stud"],
            ))
            .add_ind(InclusionDependency::equality(
                "student",
                &["stud"],
                "yearsInProgram",
                &["stud"],
            ))
            .add_ind(InclusionDependency::subset(
                "publication",
                &["person"],
                "student",
                &["stud"],
            ));
        s
    }

    fn db() -> DatabaseInstance {
        let mut db = DatabaseInstance::empty(&schema());
        db.insert("student", Tuple::from_strs(&["abe"])).unwrap();
        db.insert("inPhase", Tuple::from_strs(&["abe", "prelim"]))
            .unwrap();
        db.insert("yearsInProgram", Tuple::from_strs(&["abe", "2"]))
            .unwrap();
        db.insert("student", Tuple::from_strs(&["bea"])).unwrap();
        db.insert("inPhase", Tuple::from_strs(&["bea", "post"]))
            .unwrap();
        db.insert("yearsInProgram", Tuple::from_strs(&["bea", "7"]))
            .unwrap();
        db
    }

    #[test]
    fn plan_resolves_equality_ind_edges_both_ways() {
        let plan = BottomClausePlan::compile(&schema(), false);
        assert_eq!(plan.classes().len(), 1);
        assert!(plan.class_of("student").is_some());
        assert!(plan.class_of("publication").is_none());
        // student participates in two INDs → two outgoing edges; inPhase in
        // one → one edge back to student.
        assert_eq!(plan.edges_of("student").len(), 2);
        assert_eq!(plan.edges_of("inPhase").len(), 1);
        assert!(plan.edges_of("publication").is_empty());
    }

    #[test]
    fn general_mode_includes_subset_inds() {
        let plan = BottomClausePlan::compile(&schema(), true);
        assert!(plan.class_of("publication").is_some());
        assert!(!plan.edges_of("publication").is_empty());
    }

    #[test]
    fn joining_tuples_follow_the_ind() {
        let plan = BottomClausePlan::compile(&schema(), false);
        let db = db();
        // From student(abe), following student→inPhase must find (abe,prelim).
        let edge = plan
            .edges_of("student")
            .iter()
            .find(|e| e.to_relation == "inPhase")
            .unwrap()
            .clone();
        let joined = plan.joining_tuples(&db, &edge, &Tuple::from_strs(&["abe"]), 10);
        assert_eq!(joined, vec![&Tuple::from_strs(&["abe", "prelim"])]);
    }

    #[test]
    fn scan_mode_returns_same_results_as_index_mode() {
        let mut plan = BottomClausePlan::compile(&schema(), false);
        let db = db();
        let edge = plan
            .edges_of("inPhase")
            .iter()
            .find(|e| e.to_relation == "student")
            .unwrap()
            .clone();
        let probe = Tuple::from_strs(&["bea", "post"]);
        let indexed = plan.joining_tuples(&db, &edge, &probe, 10);
        plan.use_indexes = false;
        let scanned = plan.joining_tuples(&db, &edge, &probe, 10);
        assert_eq!(indexed, scanned);
        assert_eq!(indexed, vec![&Tuple::from_strs(&["bea"])]);
    }

    #[test]
    fn limit_caps_joining_tuples() {
        let mut s = Schema::new("s");
        s.add_relation(RelationSymbol::new("a", &["x"]))
            .add_relation(RelationSymbol::new("b", &["x", "y"]))
            .add_ind(InclusionDependency::equality("a", &["x"], "b", &["x"]));
        let mut db = DatabaseInstance::empty(&s);
        db.insert("a", Tuple::from_strs(&["k"])).unwrap();
        for i in 0..20 {
            db.insert("b", Tuple::new(vec![Value::str("k"), Value::int(i)]))
                .unwrap();
        }
        let plan = BottomClausePlan::compile(&s, false);
        let edge = plan
            .edges_of("a")
            .iter()
            .find(|e| e.to_relation == "b")
            .unwrap();
        let joined = plan.joining_tuples(&db, edge, &Tuple::from_strs(&["k"]), 5);
        assert_eq!(joined.len(), 5);
    }
}

//! A node's table store: the collection of relations a (localized) NDlog
//! program reads and writes at one network node.

use crate::relation::{DeleteOutcome, HeapBytes, InsertOutcome, Relation, RelationSchema};
use crate::tuple::{RelName, Sign, Tuple, TupleDelta};
use ndlog_lang::Program;
use std::collections::BTreeMap;

/// A collection of named relations plus the node-local timestamp counter
/// used by pipelined semi-naive evaluation.
#[derive(Debug, Clone, Default)]
pub struct Store {
    relations: BTreeMap<String, Relation>,
    next_seq: u64,
    now_micros: u64,
}

/// The effect of applying a delta to the store: what changed, plus the
/// timestamp assigned to the applied tuple (used as the join visibility
/// limit when firing strands).
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyEffect {
    /// What the caller has to propagate further.
    pub change: Change,
    /// The timestamp of the applied tuple.
    pub seq: u64,
}

/// How applying a delta changed which tuples are visible.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// Nothing to propagate: a duplicate derivation or a stale deletion —
    /// that is how the count algorithm suppresses redundant downstream
    /// work.
    Nothing,
    /// The delta's tuple is new: propagate the delta itself.
    Inserted,
    /// The delta's tuple lost its last derivation and left the store:
    /// propagate the delta itself.
    Removed,
    /// The delta's tuple replaced this tuple under its primary key:
    /// propagate a deletion of the old tuple, then the delta itself.
    Replaced(Tuple),
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a store with a relation for every table declaration and every
    /// relation mentioned by the program (derived relations default to
    /// all-columns primary keys); see [`Store::add_program`] for the error.
    pub fn for_program(program: &Program) -> Result<Self, String> {
        let mut store = Store::new();
        store.add_program(program)?;
        Ok(store)
    }

    /// Add the relations of a program to an existing store (used when one
    /// node runs several concurrent queries). Existing relations keep their
    /// schemas. A rule head or fact with fewer columns than its relation's
    /// declared key is an error: nothing it derives could be stored.
    pub fn add_program(&mut self, program: &Program) -> Result<(), String> {
        for decl in &program.tables {
            if self.relations.contains_key(&decl.name) {
                continue;
            }
            let mut schema =
                RelationSchema::new(decl.name.clone()).with_keys(decl.key_columns.clone());
            if let Some(ttl) = decl.ttl_seconds {
                schema = schema.with_ttl_seconds(ttl);
            }
            self.ensure(schema);
        }
        let mut names: Vec<String> = Vec::new();
        for rule in &program.rules {
            names.push(rule.head.name.clone());
            for a in rule.body_atoms() {
                names.push(a.name.clone());
            }
        }
        for name in names {
            if !self.relations.contains_key(&name) {
                self.ensure(RelationSchema::new(name));
            }
        }
        for rule in &program.rules {
            let schema = self.relations[&rule.head.name].schema();
            if let Some(why) = schema.lacks_key(rule.head.args.len()) {
                let kind = if rule.is_fact() { "fact" } else { "rule" };
                return Err(format!("{kind} {}: {why}", rule.label));
            }
        }
        Ok(())
    }

    /// Ensure a relation with the given schema exists (no-op if present).
    pub fn ensure(&mut self, schema: RelationSchema) -> &mut Relation {
        self.relations
            .entry(schema.name.clone())
            .or_insert_with(|| Relation::new(schema))
    }

    /// Declare a secondary index on a relation (creating the relation with
    /// a default schema if needed). Called once per program with every
    /// bound-column signature the compiled strands probe, so the indexes
    /// exist before any tuple arrives and are maintained incrementally
    /// from then on. A signature binding the relation's whole primary key
    /// builds nothing: the primary index serves it
    /// ([`Relation::ensure_index`]).
    pub fn declare_index(&mut self, relation: &str, cols: &[usize]) {
        self.ensure(RelationSchema::new(relation))
            .ensure_index(cols);
    }

    /// Declare every index a set of compiled strands requires: the
    /// signatures their join probe plans probe (a re-derivation plan's
    /// among them, so DRed passes probe too).
    pub fn declare_indexes<'a>(
        &mut self,
        strands: impl IntoIterator<Item = &'a crate::strand::CompiledStrand>,
    ) {
        for strand in strands {
            for (relation, cols) in strand.index_requirements() {
                self.declare_index(&relation, &cols);
            }
        }
    }

    /// The relation with this name, if any.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Mutable access to a relation.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// Names of all relations, in sorted order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Total number of stored tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Current logical time (microseconds), used for soft-state expiry.
    pub fn now_micros(&self) -> u64 {
        self.now_micros
    }

    /// Advance the store's logical clock (monotonic).
    pub fn set_time(&mut self, now_micros: u64) {
        self.now_micros = self.now_micros.max(now_micros);
    }

    /// The most recently assigned timestamp.
    pub fn current_seq(&self) -> u64 {
        self.next_seq
    }

    fn fresh_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Apply a signed delta to the store, creating the relation on demand.
    ///
    /// Returns what changed — the caller owns the delta and propagates it
    /// itself, nothing is copied here — plus the timestamp to use as the
    /// join visibility limit when firing strands off this delta.
    pub fn apply(&mut self, delta: &TupleDelta) -> ApplyEffect {
        let now = self.now_micros;
        let seq = self.fresh_seq();
        // The name is copied only to create a relation on first sight.
        let relation = match self.relations.get_mut(&*delta.relation) {
            Some(relation) => relation,
            None => self.ensure(RelationSchema::new(&*delta.relation)),
        };
        let change = match delta.sign {
            Sign::Insert => match relation.insert(delta.tuple.clone(), seq, now) {
                InsertOutcome::New => Change::Inserted,
                InsertOutcome::Duplicate => Change::Nothing,
                InsertOutcome::Replaced(old) => Change::Replaced(old),
            },
            Sign::Delete => match relation.delete(&delta.tuple) {
                DeleteOutcome::Removed => Change::Removed,
                DeleteOutcome::Decremented | DeleteOutcome::NotFound => Change::Nothing,
            },
        };
        ApplyEffect { change, seq }
    }

    /// Expire soft-state tuples across all relations, returning the
    /// corresponding deletion deltas (to be propagated like any other
    /// deletion).
    pub fn expire(&mut self, now_micros: u64) -> Vec<TupleDelta> {
        self.set_time(now_micros);
        let mut out = Vec::new();
        for (name, rel) in &mut self.relations {
            let expired = rel.expire(now_micros);
            if !expired.is_empty() {
                let name = RelName::from(name);
                let retract = |tuple| TupleDelta::delete(name.clone(), tuple);
                out.extend(expired.into_iter().map(retract));
            }
        }
        out
    }

    /// Drop every stored tuple while keeping relation schemas, declared
    /// indexes, the timestamp counter and the logical clock. This is the
    /// store half of a node crash: volatile state is lost, but the node
    /// restarts with the same program (schemas + indexes) and its sequence
    /// numbers keep advancing so rejoin-era tuples sort after crash-era
    /// ones.
    pub fn clear_tuples(&mut self) {
        for rel in self.relations.values_mut() {
            let schema = rel.schema().clone();
            let signatures: Vec<Vec<usize>> = rel
                .index_signatures()
                .map(|sig| sig.columns().to_vec())
                .collect();
            let mut fresh = Relation::new(schema);
            for cols in &signatures {
                fresh.ensure_index(cols);
            }
            *rel = fresh;
        }
    }

    /// Heap bytes each relation's own structures hold, by component
    /// ([`Relation::heap_bytes`]), in relation-name order.
    pub fn heap_bytes(&self) -> impl Iterator<Item = (&str, HeapBytes)> {
        let relations = self.relations.iter();
        relations.map(|(name, relation)| (name.as_str(), relation.heap_bytes()))
    }

    /// Check every relation's storage invariants
    /// ([`Relation::check_invariants`]); O(stored data).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.relations
            .values()
            .try_for_each(Relation::check_invariants)
    }

    /// All tuples of a relation (empty if the relation does not exist),
    /// in deterministic key order.
    pub fn tuples(&self, relation: &str) -> Vec<Tuple> {
        self.relations
            .get(relation)
            .map(|r| r.iter().map(|s| s.tuple.clone()).collect())
            .unwrap_or_default()
    }

    /// Number of tuples in a relation (0 if absent).
    pub fn count(&self, relation: &str) -> usize {
        self.relations.get(relation).map_or(0, Relation::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::{programs, Value};

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn for_program_creates_all_relations() {
        let p = programs::shortest_path("");
        let store = Store::for_program(&p).unwrap();
        for name in ["link", "path", "spCost", "shortestPath"] {
            assert!(store.relation(name).is_some(), "missing {name}");
        }
        // Declared keys are honoured.
        assert_eq!(
            store.relation("path").unwrap().schema().key_columns,
            vec![0, 1, 3]
        );
    }

    #[test]
    fn heads_shorter_than_their_key_are_refused() {
        let parse = |src: &str| ndlog_lang::parse_program(src).unwrap();
        let short_head = parse("materialize(r, keys(2)). r1 r(X) :- s(X).");
        let err = Store::for_program(&short_head).unwrap_err();
        assert_eq!(
            err,
            "rule r1: `r` has 1 column(s) but its primary key includes column 2"
        );
        assert_eq!(crate::Evaluator::new(&short_head).err(), Some(err));
        let err = Store::for_program(&parse("materialize(r, keys(1,3)). r(1, 2).")).unwrap_err();
        assert!(err.starts_with("fact r1: `r` has 2 column(s)"), "{err}");
        assert!(err.ends_with("column 3"), "{err}");
        // As long as the key, or keyed on all columns: stored as usual.
        let long_enough = parse("materialize(r, keys(2)). r(1, 2). s(1). r(X, X) :- s(X).");
        Store::for_program(&long_enough).unwrap();
        let mut store = Store::new();
        store.ensure(RelationSchema::new("r").with_keys(vec![1]));
        let err = store.add_program(&parse("r(1).")).unwrap_err();
        assert!(err.contains("column 2"), "a key declared before: {err}");
    }

    #[test]
    fn apply_insert_then_duplicate_then_delete() {
        let mut store = Store::new();
        let d = TupleDelta::insert("r", t(&[1, 2]));
        let e1 = store.apply(&d);
        assert_eq!(e1.change, Change::Inserted);
        let e2 = store.apply(&d);
        assert_eq!(
            e2.change,
            Change::Nothing,
            "duplicate derivation is absorbed"
        );
        assert!(e2.seq > e1.seq);

        let del = TupleDelta::delete("r", t(&[1, 2]));
        let e3 = store.apply(&del);
        assert_eq!(e3.change, Change::Nothing, "count drops from 2 to 1");
        let e4 = store.apply(&del);
        assert_eq!(e4.change, Change::Removed);
        assert_eq!(store.count("r"), 0);
    }

    #[test]
    fn apply_replacement_emits_delete_and_insert() {
        let mut store = Store::new();
        store.ensure(RelationSchema::new("best").with_keys(vec![0]));
        store.apply(&TupleDelta::insert("best", t(&[1, 10])));
        let effect = store.apply(&TupleDelta::insert("best", t(&[1, 5])));
        assert_eq!(effect.change, Change::Replaced(t(&[1, 10])));
        assert_eq!(store.tuples("best"), vec![t(&[1, 5])]);
    }

    #[test]
    fn deleting_missing_tuple_is_silent() {
        let mut store = Store::new();
        let e = store.apply(&TupleDelta::delete("r", t(&[9])));
        assert_eq!(e.change, Change::Nothing);
    }

    #[test]
    fn expiry_produces_deletion_deltas() {
        let mut store = Store::new();
        store.ensure(RelationSchema::new("soft").with_ttl_seconds(1.0));
        store.apply(&TupleDelta::insert("soft", t(&[1])));
        store.apply(&TupleDelta::insert("hard", t(&[2])));
        let deltas = store.expire(2_000_000);
        assert_eq!(deltas, vec![TupleDelta::delete("soft", t(&[1]))]);
        assert_eq!(store.count("soft"), 0);
        assert_eq!(store.count("hard"), 1);
    }

    #[test]
    fn clock_is_monotonic() {
        let mut store = Store::new();
        store.set_time(100);
        store.set_time(50);
        assert_eq!(store.now_micros(), 100);
    }

    #[test]
    fn relation_names_sorted() {
        let mut store = Store::new();
        store.ensure(RelationSchema::new("zeta"));
        store.ensure(RelationSchema::new("alpha"));
        let names: Vec<_> = store.relation_names().collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(store.total_tuples(), 0);
    }
}

//! Delta tap: the subscription hook behind live queries.
//!
//! A [`DeltaTap`] records the exact *visibility transitions* of subscribed
//! relations as the evaluator maintains the fixpoint: an insert event when
//! a tuple's derivation count rises from zero, a delete event when it
//! falls back to zero. Duplicate derivations and stale deletions (count
//! changes that do not cross zero) are absorbed before they reach
//! the tap, so per tuple the stream is a strictly alternating
//! `+t, -t, +t, …`, and replaying it from an empty set reconstructs the
//! relation bit-for-bit (`tests/live_deltas.rs` proves this property under
//! churn for every strategy). A keyed replacement appears as the insert of
//! the new winner, when it takes the key, followed by the delete of the old
//! tuple, which the DRed pass records later: a consumer that indexes the
//! raw stream by primary key must not apply it in order.
//!
//! A DRed pass may over-delete a tuple and re-derive it in the same batch;
//! the tap then records a `-t, +t` pair. Such pairs arise only where a
//! removal could move an aggregate — a `min`/`max` group's reigning best,
//! or a tie with it, was removed, or a `count`/`sum` input was — and the
//! group's rebuild lands on the same output, or where the tuple's
//! supporting derivations really did vanish and come back. A removal that
//! leaves a group's extremum standing retracts nothing downstream of it
//! (`tests/live_deltas.rs` checks this minimality under link re-costing).
//!
//! The tap records every transition, pairs and tuples a batch asserts and
//! then retracts included: the tests and a node's tracked-relation log
//! read them. The `serve` session layer streams each commit's net change
//! instead — per tuple its last transition, if it differs from the state
//! before the first, retractions first — so its subscribers see no pair, no
//! such transient tuple, and a replacement's old tuple before its new one.
//!
//! The tap is embedded in every [`LocalFixpoint`](crate::fixpoint::LocalFixpoint),
//! so in [`Evaluator`](crate::Evaluator) and `NodeEngine` alike; with no
//! subscribed relations it reduces to one empty-set membership probe per
//! visibility change. A node's tap is its tracked-relation log: `NodeEngine`
//! subscribes it to the tracked relations and its plans' query relations,
//! and every processing step and crash hands over what it drained.

use crate::tuple::TupleDelta;
use std::collections::BTreeSet;

/// Records visibility transitions of subscribed relations.
#[derive(Debug, Default, Clone)]
pub struct DeltaTap {
    relations: BTreeSet<String>,
    events: Vec<TupleDelta>,
}

impl DeltaTap {
    /// A tap with no subscriptions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start recording a relation's visibility transitions. Events are
    /// recorded from the *next* store change on; subscribers wanting the
    /// current contents first take a snapshot (the session layer does).
    pub fn subscribe(&mut self, relation: impl Into<String>) {
        self.relations.insert(relation.into());
    }

    /// Stop recording a relation. Returns whether it was subscribed.
    /// Already-recorded events are kept until [`drain`](Self::drain).
    pub fn unsubscribe(&mut self, relation: &str) -> bool {
        self.relations.remove(relation)
    }

    /// Is this relation being recorded?
    pub(crate) fn is_subscribed(&self, relation: &str) -> bool {
        self.relations.contains(relation)
    }

    /// The subscribed relations, sorted.
    pub fn subscribed(&self) -> impl Iterator<Item = &str> {
        self.relations.iter().map(String::as_str)
    }

    /// Record one visibility transition (called by the evaluator at the
    /// two points where a tuple actually enters or leaves the store).
    #[inline]
    pub fn record(&mut self, delta: &TupleDelta) {
        if !self.relations.is_empty() && self.relations.contains(&*delta.relation) {
            self.events.push(delta.clone());
        }
    }

    /// Take the recorded events, in store order, leaving the tap empty.
    pub fn drain(&mut self) -> Vec<TupleDelta> {
        std::mem::take(&mut self.events)
    }

    /// Number of events recorded since the last drain.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Any events pending?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use ndlog_lang::Value;

    fn delta(rel: &str, v: i64) -> TupleDelta {
        TupleDelta::insert(rel.to_string(), Tuple::new(vec![Value::Int(v)]))
    }

    #[test]
    fn records_only_subscribed_relations() {
        let mut tap = DeltaTap::new();
        tap.subscribe("path");
        tap.record(&delta("path", 1));
        tap.record(&delta("link", 2));
        tap.record(&delta("path", 3));
        let events = tap.drain();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|d| d.relation == "path"));
        assert!(tap.is_empty());
    }

    #[test]
    fn unsubscribe_stops_recording_but_keeps_events() {
        let mut tap = DeltaTap::new();
        tap.subscribe("p");
        tap.record(&delta("p", 1));
        assert!(tap.unsubscribe("p"));
        assert!(!tap.unsubscribe("p"));
        tap.record(&delta("p", 2));
        assert_eq!(tap.drain().len(), 1);
    }

    /// A keyed replacement is recorded new-then-old: the winner takes the
    /// key at once, and the DRed pass retracts the tuple it displaced.
    #[test]
    fn a_keyed_replacement_records_the_insert_before_the_delete() {
        let program =
            ndlog_lang::parse_program("materialize(best, keys(1)). r1 best(@S, C) :- q(@S, C).")
                .unwrap();
        let mut eval = crate::Evaluator::new(&program).unwrap();
        eval.tap_mut().subscribe("best");
        let q = |cost: i64| Tuple::new(vec![Value::addr(1u32), Value::Int(cost)]);
        for cost in [5, 3] {
            eval.update_batch(vec![TupleDelta::insert("q", q(cost))])
                .unwrap();
        }
        let events: Vec<String> = eval.drain_tap().iter().map(|d| d.to_string()).collect();
        assert_eq!(events, ["+best(@n1, 5)", "+best(@n1, 3)", "-best(@n1, 5)"]);
    }

    #[test]
    fn subscription_introspection() {
        let mut tap = DeltaTap::new();
        tap.subscribe("b");
        tap.subscribe("a");
        tap.subscribe("a");
        assert!(tap.is_subscribed("a"));
        assert!(!tap.is_subscribed("c"));
        assert_eq!(tap.subscribed().collect::<Vec<_>>(), vec!["a", "b"]);
    }
}

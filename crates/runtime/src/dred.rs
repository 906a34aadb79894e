//! DRed-style two-phase deletion maintenance (over-delete / re-derive).
//!
//! The count algorithm of Gupta et al. is only exact when insertions and
//! deletions are counted under the *same* duplicate-inference discipline.
//! Pipelined semi-naive evaluation guarantees one count per derivation
//! (Theorem 2), but SN/BSN initial runs may over-count (repeated
//! inferences), and P2's primary-key replacements fold counts away
//! entirely. A deletion cascade that trusts those counts can then strand
//! tuples whose counts never reach zero — and once a stale tuple survives,
//! the aggregate views built on top of it (e.g. `spCost`) advance past the
//! pending retraction and the error becomes permanent (the
//! mixed-strategy-churn edge formerly documented in
//! `tests/indexed_joins.rs`).
//!
//! This module implements the classic *delete-and-rederive* (DRed) answer
//! from the incremental view-maintenance literature, adapted to rule
//! strands and incremental aggregate views:
//!
//! 1. **Over-delete** ([`over_delete`]): starting from base tuples that
//!    were actually removed from the store, mark the entire downstream
//!    closure — every stored tuple reachable through a strand firing or an
//!    aggregate view — and then remove every marked tuple outright,
//!    *ignoring derivation counts*. While the closure runs, aggregate
//!    groups are **pinned**: the views are not updated, so a cascade
//!    cannot race past a pending retraction (the group's current output is
//!    marked as-is and the group is recorded as dirty instead).
//! 2. **Re-derive** ([`rederive_inserts`] plus
//!    [`crate::aggview::AggregateView::rebuild_group`]): each over-deleted
//!    tuple that still has a derivation over the post-removal store is
//!    re-inserted, and each dirty aggregate group is rebuilt from the
//!    stored source tuples. The re-insertions then cascade through the
//!    normal (pipelined) insert path, which restores any remaining
//!    downstream survivors.
//!
//! Over-deletion may over-approximate (it marks tuples that are still
//! derivable); that is by design — phase 2 restores them — and is what
//! makes the pass correct for *any* initial evaluation strategy followed
//! by updates, because no step ever consults a derivation count.
//!
//! In the distributed engine, the closure stops at the node boundary:
//! derivations whose head is located at another node are collected as
//! remote deletion deltas (shipped like any other derivation) instead of
//! being marked locally, and the receiving node runs its own pass. This is
//! sound for localized programs, where every rule body is single-site and
//! a locally stored, locally derived tuple is locally re-derivable.

use crate::aggview::AggregateView;
use crate::batch::{BatchTrigger, EvalBuffers};
use crate::expr::EvalError;
use crate::index::JoinStats;
use crate::store::Store;
use crate::strand::CompiledStrand;
use crate::tuple::{RelName, Sign, Tuple, TupleDelta};
use ndlog_lang::{Literal, Term, Value};
use ndlog_net::NodeAddr;
use std::collections::{BTreeMap, BTreeSet};

/// The result of the over-delete phase.
#[derive(Debug, Default)]
pub struct Marking {
    /// Every removal, as deletion deltas in deterministic discovery order:
    /// the seeds first (already removed by the caller), then the marked
    /// closure (removed by [`over_delete`] itself).
    pub removed: Vec<TupleDelta>,
    /// How many leading entries of `removed` are seeds. Seeds are *not*
    /// re-derivation candidates: an external deletion, an expiry or the
    /// delete-half of a primary-key replacement is authoritative.
    pub seed_count: usize,
    /// Aggregate-view groups whose pinned state must be rebuilt from the
    /// post-removal store: `(view index, group key)`, sorted.
    pub dirty_groups: Vec<(usize, Vec<Value>)>,
    /// Deletion derivations whose head lives at another node (distributed
    /// mode only): `(destination, delta)` in derivation order, to be
    /// shipped like any forward-pass derivation.
    pub remote: Vec<(NodeAddr, TupleDelta)>,
}

impl Marking {
    /// The over-deleted tuples that re-derivation should try to restore
    /// (everything marked beyond the seeds).
    pub fn rederive_candidates(&self) -> &[TupleDelta] {
        &self.removed[self.seed_count..]
    }
}

/// Mark `tuple` if it is currently stored and not yet marked, growing the
/// closure frontier.
fn mark(
    store: &Store,
    relation: RelName,
    tuple: Tuple,
    marked: &mut BTreeSet<(RelName, Tuple)>,
    order: &mut Vec<TupleDelta>,
    frontier: &mut Vec<TupleDelta>,
) {
    let stored = store
        .relation(&relation)
        .is_some_and(|r| r.contains(&tuple));
    if !stored {
        return;
    }
    if marked.insert((relation.clone(), tuple.clone())) {
        let delta = TupleDelta::delete(relation, tuple);
        order.push(delta.clone());
        frontier.push(delta);
    }
}

/// Phase 1: over-delete the downstream closure of `seeds`.
///
/// `seeds` are deletion deltas for tuples the caller has **already
/// removed** from the store (an external base deletion, a soft-state
/// expiry, or the old half of a primary-key replacement). Classic DRed
/// computes the over-deletion against the *pre-deletion* database, so the
/// closure restores each absent seed for its duration (when the seed's
/// slot is still free — a replacement's old half stays out, its key now
/// belongs to the new tuple): without this, a derivation jointly
/// supported by two seeds of the same batch would be missed, because
/// neither seed's firing could find the other as a join partner. The
/// closure then runs with full join visibility (`seq_limit = u64::MAX`) —
/// marked tuples stay visible as join partners until the whole closure is
/// known — the restored seeds are taken back out, and every marked tuple
/// is removed outright, regardless of its derivation count.
///
/// Residual edge (accepted): two replacement old-halves in one batch that
/// *jointly* support a derivation cannot both be restored (their keys are
/// occupied), so that derivation would be missed. It requires a rule
/// joining its own keyed head relation at two different keys replaced in
/// the same instant — no localized program in this repository has one.
///
/// Aggregate views are pinned for the duration: when a marked tuple feeds
/// a view, the group's *current* output is marked (so downstream joins
/// still retract against the not-yet-advanced aggregate) and the group is
/// recorded as dirty for the rebuild in phase 2. A view holds nothing but
/// those outputs, and a deletion reaches it only as that rebuild.
///
/// `self_addr` is the evaluating node in distributed mode: derivations
/// located elsewhere are collected in [`Marking::remote`] instead of being
/// marked. Pass `None` in the centralized evaluator (everything is local).
/// The waves fire through the caller's reusable buffers.
pub fn over_delete(
    store: &mut Store,
    strands: &[CompiledStrand],
    views: &[AggregateView],
    seeds: Vec<TupleDelta>,
    self_addr: Option<NodeAddr>,
    stats: &mut JoinStats,
    buffers: &mut EvalBuffers,
) -> Result<Marking, EvalError> {
    let EvalBuffers { scratch, out, .. } = buffers;
    let mut marked: BTreeSet<(RelName, Tuple)> = BTreeSet::new();
    let mut order: Vec<TupleDelta> = Vec::new();
    let mut frontier: Vec<TupleDelta> = Vec::new();
    for seed in seeds {
        debug_assert_eq!(seed.sign, Sign::Delete);
        if marked.insert((seed.relation.clone(), seed.tuple.clone())) {
            order.push(seed.clone());
            frontier.push(seed);
        }
    }
    let seed_count = order.len();
    let mut dirty: BTreeSet<(usize, Vec<Value>)> = BTreeSet::new();
    let mut remote: Vec<(NodeAddr, TupleDelta)> = Vec::new();

    // Restore absent seeds so the closure joins against the pre-deletion
    // database (see the doc comment). Seeds whose slot is occupied — an
    // identical tuple re-derived since the removal, or a replacement's new
    // winner — stay as they are.
    let now = store.now_micros();
    let seq = store.current_seq();
    let mut temporarily_restored: Vec<(RelName, Tuple)> = Vec::new();
    for delta in &order {
        let Some(relation) = store.relation_mut(&delta.relation) else {
            continue;
        };
        if relation.get_by_key_of(&delta.tuple).is_none() {
            relation.insert(delta.tuple.clone(), seq, now);
            temporarily_restored.push((delta.relation.clone(), delta.tuple.clone()));
        }
    }

    // The closure runs in *waves*: the store never changes while it runs,
    // so every frontier delta of a wave can fire against the same snapshot
    // and each strand drains its share of the wave through one batched
    // firing (flat buffers, no per-environment allocation). Discovery
    // order within a wave is (stage, trigger) instead of the old
    // (trigger, stage), which only permutes `order` among tuples of the
    // same wave — the marked closure, being a monotone fixpoint, is
    // identical, and the order is still deterministic for a given input.
    // The two wave buffers ping-pong: each iteration recycles the previous
    // wave's allocation for the next frontier instead of growing a fresh
    // `Vec` per wave.
    let mut wave: Vec<TupleDelta> = Vec::new();
    while !frontier.is_empty() {
        wave.clear();
        std::mem::swap(&mut wave, &mut frontier);
        let mut triggers: Vec<BatchTrigger> = Vec::new();
        // Aggregate views fed by a wave relation: pin the group (mark its
        // current output as-is, defer the recomputation) and dirty it.
        for delta in &wave {
            for (view_idx, view) in views.iter().enumerate() {
                if view.source_relation() == delta.relation {
                    if let Some(key) = view.group_key(&delta.tuple) {
                        if let Some(out) = view.current_output(&key).cloned() {
                            mark(
                                store,
                                view.head_relation().clone(),
                                out,
                                &mut marked,
                                &mut order,
                                &mut frontier,
                            );
                        }
                        dirty.insert((view_idx, key));
                    }
                }
                // A marked tuple *of* a view's head relation (e.g. an
                // aggregate output retracted by a strand-derived deletion
                // in an exotic program) also dirties its group, so the
                // rebuild reconciles the view's notion of "current".
                if *view.head_relation() == delta.relation {
                    if let Some(key) = view.output_group_key(&delta.tuple) {
                        dirty.insert((view_idx, key));
                    }
                }
            }
        }
        // One over-delete step through every strand, wave-batched.
        for strand in strands {
            triggers.clear();
            triggers.extend(
                wave.iter()
                    .filter(|delta| delta.relation == strand.trigger_relation())
                    .map(|delta| BatchTrigger {
                        delta,
                        seq_limit: u64::MAX,
                    }),
            );
            if triggers.is_empty() {
                continue;
            }
            strand.fire_batch(store, &triggers, stats, scratch, out, None)?;
            out.drain_into(|_, derivation| match (self_addr, derivation.location) {
                (Some(me), Some(dest)) if dest != me => {
                    remote.push((dest, derivation.delta));
                }
                _ => mark(
                    store,
                    derivation.delta.relation,
                    derivation.delta.tuple,
                    &mut marked,
                    &mut order,
                    &mut frontier,
                ),
            });
        }
    }

    // The restored seeds go back out before the removal phase.
    for (relation, tuple) in temporarily_restored {
        if let Some(r) = store.relation_mut(&relation) {
            r.remove(&tuple);
        }
    }
    // Removal: the marked closure leaves the store outright — counts are
    // exactly what this pass does not trust.
    for delta in &order[seed_count..] {
        if let Some(relation) = store.relation_mut(&delta.relation) {
            relation.remove(&delta.tuple);
        }
    }

    Ok(Marking {
        removed: order,
        seed_count,
        dirty_groups: dirty.into_iter().collect(),
        remote,
    })
}

/// Phase 2 (per tuple): every one-step derivation filling the primary key
/// an over-deleted tuple vacated, from the current (post-removal) store,
/// as insertion deltas.
///
/// Re-derivation is keyed, not tuple-exact, because P2's key-update
/// semantics make the *key* the unit of materialization: when the stored
/// winner of a key dies, the key's surviving derivations — possibly a
/// different tuple value that an earlier replacement folded away — must be
/// restored. For a keyless relation the key is the whole tuple, and this
/// degenerates to exact re-derivation. A key still occupied (the deletion
/// was the old half of a replacement) is left alone: the new tuple won it.
///
/// For each rule deriving the tuple's relation (one strand per rule
/// suffices — every derivation of a rule is reproduced by firing any one
/// of its strands with each stored trigger tuple), the head's key columns
/// are bound to the vacated key; rules whose constant head columns or
/// repeated head variables cannot produce it are skipped. The bound key
/// pins the trigger columns recorded by the planner
/// ([`CompiledStrand::rederive_requirement`]), so candidate triggers come
/// from an index probe when any column is pinned, and only derivations
/// landing in the vacated key are kept. Each candidate fires as a
/// one-trigger batch through the strand's slot-compiled plan (the caller's
/// reusable buffers), whose join statistics equal the interpreter's.
///
/// Derivations restored further downstream are *not* this function's job:
/// the caller ingests the returned insertions through the normal pipelined
/// path, whose cascade re-derives any remaining over-deleted survivors.
pub fn rederive_inserts(
    store: &Store,
    strands: &[CompiledStrand],
    deleted: &TupleDelta,
    stats: &mut JoinStats,
    buffers: &mut EvalBuffers,
) -> Result<Vec<TupleDelta>, EvalError> {
    let EvalBuffers { scratch, out, .. } = buffers;
    let Some(relation) = store.relation(&deleted.relation) else {
        return Ok(Vec::new());
    };
    let schema = relation.schema();
    let key = schema.key_of(&deleted.tuple);
    if relation.get(&key).is_some() {
        // The key is already occupied (the deletion was the old half of a
        // replacement, or an earlier candidate refilled it): nothing to
        // restore.
        return Ok(Vec::new());
    }
    let key_cols = crate::store::effective_key_columns(Some(relation), deleted.tuple.arity());
    let mut inserts = Vec::new();
    let mut rules_seen: BTreeSet<&str> = BTreeSet::new();
    for strand in strands {
        if strand.head_relation() != deleted.relation || !rules_seen.insert(strand.rule_label()) {
            continue;
        }
        let rule = &strand.delta_rule().rule;
        let Some(Literal::Atom(trigger_atom)) = rule.body.get(strand.delta_rule().trigger) else {
            continue;
        };
        // Bind the head's key columns to the vacated key; constant
        // mismatches and conflicting repeated variables rule the rule out.
        let mut bound_vars: BTreeMap<&str, &Value> = BTreeMap::new();
        let mut feasible = true;
        for (pos, &col) in key_cols.iter().enumerate() {
            let value = &key[pos];
            match rule.head.args.get(col) {
                Some(Term::Const(c)) if c != value => {
                    feasible = false;
                    break;
                }
                Some(Term::Var(v)) => match bound_vars.get(v.name.as_str()) {
                    Some(existing) if *existing != value => {
                        feasible = false;
                        break;
                    }
                    _ => {
                        bound_vars.insert(v.name.as_str(), value);
                    }
                },
                _ => {}
            }
        }
        if !feasible {
            continue;
        }
        let Some(trigger_relation) = store.relation(strand.trigger_relation()) else {
            continue;
        };
        // The pinned trigger columns come from the same planner metadata
        // the store used to declare the re-derivation index, so the probed
        // signature always matches a declared one.
        let cols = strand
            .rederive_requirement(&key_cols)
            .map(|(_, cols)| cols)
            .unwrap_or_default();
        let vals: Vec<Value> = cols
            .iter()
            .filter_map(|&col| match trigger_atom.args.get(col) {
                Some(Term::Var(v)) => bound_vars.get(v.name.as_str()).map(|&val| val.clone()),
                _ => None,
            })
            .collect();
        debug_assert_eq!(
            cols.len(),
            vals.len(),
            "pinned columns are key-var trigger columns"
        );
        let trigger_name = RelName::from(strand.trigger_relation());
        let candidates: Vec<TupleDelta> = trigger_relation
            .lookup(&cols, &vals, u64::MAX, stats)
            .map(|s| TupleDelta::insert(trigger_name.clone(), s.tuple.clone()))
            .collect();
        for delta in &candidates {
            let seq_limit = u64::MAX;
            let trigger = [BatchTrigger { delta, seq_limit }];
            strand.fire_batch(store, &trigger, stats, scratch, out, None)?;
            out.drain_into(|_, derivation| {
                if schema.key_of(&derivation.delta.tuple) == key {
                    inserts.push(derivation.delta);
                }
            });
        }
    }
    Ok(inserts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::seminaive::delta_rewrite_full;
    use ndlog_lang::{parse_program, Value};

    fn addr(i: u32) -> Value {
        Value::addr(i)
    }

    fn setup(src: &str) -> (Store, Vec<CompiledStrand>) {
        let program = parse_program(src).unwrap();
        let mut store = Store::for_program(&program);
        let strands: Vec<CompiledStrand> = delta_rewrite_full(&program)
            .into_iter()
            .map(CompiledStrand::new)
            .collect();
        store.declare_indexes(strands.iter());
        (store, strands)
    }

    /// [`rederive_inserts`] with throwaway statistics and buffers.
    fn rederive(
        store: &Store,
        strands: &[CompiledStrand],
        deleted: &TupleDelta,
    ) -> Vec<TupleDelta> {
        let (mut stats, mut buffers) = Default::default();
        rederive_inserts(store, strands, deleted, &mut stats, &mut buffers).unwrap()
    }

    const REACH: &str = r#"
        rc1 reach(@S,@D) :- edge(@S,@D).
        rc2 reach(@S,@D) :- edge(@S,@Z), reach(@Z,@D).
    "#;

    fn edge(a: u32, b: u32) -> Tuple {
        Tuple::new(vec![addr(a), addr(b)])
    }

    #[test]
    fn over_delete_marks_the_downstream_closure() {
        let (mut store, strands) = setup(REACH);
        for (a, b) in [(0u32, 1u32), (1, 2)] {
            store.apply(&TupleDelta::insert("edge", edge(a, b)));
        }
        for (a, b) in [(0u32, 1u32), (1, 2), (0, 2)] {
            store.apply(&TupleDelta::insert("reach", edge(a, b)));
        }
        // Remove edge(1,2) as the caller (store.apply) would, then run the
        // closure from it.
        store.apply(&TupleDelta::delete("edge", edge(1, 2)));
        let mut stats = JoinStats::default();
        let marking = over_delete(
            &mut store,
            &strands,
            &[],
            vec![TupleDelta::delete("edge", edge(1, 2))],
            None,
            &mut stats,
            &mut Default::default(),
        )
        .unwrap();
        let marked: BTreeSet<(String, Tuple)> = marking
            .rederive_candidates()
            .iter()
            .map(|d| (d.relation.to_string(), d.tuple.clone()))
            .collect();
        assert!(marked.contains(&("reach".to_string(), edge(1, 2))));
        assert!(marked.contains(&("reach".to_string(), edge(0, 2))));
        assert!(!marked.contains(&("reach".to_string(), edge(0, 1))));
        // Marked tuples are gone from the store, counts notwithstanding.
        assert!(!store.relation("reach").unwrap().contains(&edge(1, 2)));
        assert!(!store.relation("reach").unwrap().contains(&edge(0, 2)));
        assert!(store.relation("reach").unwrap().contains(&edge(0, 1)));
    }

    #[test]
    fn over_delete_ignores_inflated_counts() {
        let (mut store, strands) = setup(REACH);
        store.apply(&TupleDelta::insert("edge", edge(0, 1)));
        // Simulate an SN/BSN over-count: two derivations recorded for the
        // same reach tuple.
        store.apply(&TupleDelta::insert("reach", edge(0, 1)));
        store.apply(&TupleDelta::insert("reach", edge(0, 1)));
        store.apply(&TupleDelta::delete("edge", edge(0, 1)));
        let mut stats = JoinStats::default();
        let marking = over_delete(
            &mut store,
            &strands,
            &[],
            vec![TupleDelta::delete("edge", edge(0, 1))],
            None,
            &mut stats,
            &mut Default::default(),
        )
        .unwrap();
        assert_eq!(marking.rederive_candidates().len(), 1);
        assert!(
            store.relation("reach").unwrap().is_empty(),
            "count 2 must not protect an underivable tuple"
        );
    }

    #[test]
    fn batched_seeds_stay_visible_as_join_partners() {
        // reach(0,2) is jointly supported by the two seeds of one batch:
        // edge(0,1) on the trigger side of rc2 and reach(1,2) on the
        // partner side (the shape of one epoch delivering a local link
        // deletion alongside a shipped retraction). Both seeds are already
        // removed when the pass starts, so the closure must restore them
        // for its duration or neither firing finds the other and the
        // jointly-supported tuple survives unretracted.
        let (mut store, strands) = setup(REACH);
        store.apply(&TupleDelta::insert("edge", edge(0, 1)));
        for (a, b) in [(0u32, 1u32), (1, 2), (0, 2)] {
            store.apply(&TupleDelta::insert("reach", edge(a, b)));
        }
        store.apply(&TupleDelta::delete("edge", edge(0, 1)));
        store.apply(&TupleDelta::delete("reach", edge(1, 2)));
        let mut stats = JoinStats::default();
        over_delete(
            &mut store,
            &strands,
            &[],
            vec![
                TupleDelta::delete("edge", edge(0, 1)),
                TupleDelta::delete("reach", edge(1, 2)),
            ],
            None,
            &mut stats,
            &mut Default::default(),
        )
        .unwrap();
        assert!(
            !store.relation("reach").unwrap().contains(&edge(0, 2)),
            "the jointly-supported tuple must be over-deleted"
        );
        assert!(
            !store.relation("edge").unwrap().contains(&edge(0, 1)),
            "temporarily restored seeds must leave the store again"
        );
        assert!(!store.relation("reach").unwrap().contains(&edge(1, 2)));
    }

    #[test]
    fn rederive_restores_alternatively_supported_tuples() {
        let (mut store, strands) = setup(REACH);
        // Two independent supports for reach(0,2): edge(0,2) directly and
        // edge(0,1) + reach(1,2).
        for (a, b) in [(0u32, 2u32), (0, 1), (1, 2)] {
            store.apply(&TupleDelta::insert("edge", edge(a, b)));
        }
        store.apply(&TupleDelta::insert("reach", edge(1, 2)));
        let deleted = TupleDelta::delete("reach", edge(0, 2));
        let inserts = rederive(&store, &strands, &deleted);
        // rc1 re-derives it from edge(0,2); rc2 from edge(0,1) + reach(1,2).
        assert_eq!(inserts.len(), 2);
        assert!(inserts
            .iter()
            .all(|d| d.relation == "reach" && d.tuple == edge(0, 2)));
    }

    #[test]
    fn rederive_finds_nothing_for_unsupported_tuples() {
        let (store, strands) = setup(REACH);
        let deleted = TupleDelta::delete("reach", edge(3, 4));
        let inserts = rederive(&store, &strands, &deleted);
        assert!(inserts.is_empty());
    }

    #[test]
    fn rederive_skips_infeasible_rules() {
        // A rule with a constant head column can only produce matching
        // tuples.
        let (mut store, strands) = setup("r1 out(@S, 7) :- q(@S).");
        store.apply(&TupleDelta::insert("q", Tuple::new(vec![addr(0)])));
        let hit = TupleDelta::delete("out", Tuple::new(vec![addr(0), Value::Int(7)]));
        assert_eq!(rederive(&store, &strands, &hit).len(), 1);
        let miss = TupleDelta::delete("out", Tuple::new(vec![addr(0), Value::Int(8)]));
        assert!(rederive(&store, &strands, &miss).is_empty());
    }
}

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
//!    *ignoring derivation counts*. While the closure runs, no tuple leaves
//!    the store, so a view's head relation — the only copy of its outputs
//!    — is unchanged until the closure's end, and a cascade cannot race
//!    past a pending retraction: a removal that can move its group's
//!    aggregate **pins** the group (its stored output is marked as-is and
//!    the group is recorded as dirty).
//!    For `min`/`max` that is a removal of the reigning best or of a tie;
//!    an input strictly worse than the group's output leaves it standing
//!    and pins nothing, so its downstream tuples are neither retracted nor
//!    re-derived.
//! 2. **Re-derive** ([`rederive`] plus
//!    [`crate::aggview::AggregateView::rebuild_group`]): each primary key
//!    an over-deleted tuple vacated is refilled with whatever still derives
//!    into it over the post-removal store, and each dirty aggregate group
//!    is rebuilt from the stored source tuples. The re-insertions then
//!    cascade through the normal (pipelined) insert path, which restores
//!    any remaining downstream survivors.
//!
//! Re-derivation is DRed's own rule — the rule semi-joined with the
//! over-deleted tuple — compiled, not interpreted: every rule has one
//! **key-bound re-derivation plan** ([`rederivation_plan`]), an ordinary
//! [`CompiledStrand`] triggered by a tuple of the rule's *own head
//! relation*, whose key columns bind the head's key variables before the
//! body runs. The plans are compiled once per program next to the forward
//! strands and shared by every site running it, and a pass fires all of
//! its candidates through them as one batch per rule, so a join probes on
//! the bound key (`route` on `(Z, D)`, not every route stored at `Z`) and
//! candidates with equal probe keys share one lookup. Work is proportional
//! to what can land in the vacated keys, not to what the rule derives from
//! the relations those tuples came from.
//!
//! Over-deletion may over-approximate (it marks tuples that are still
//! derivable); that is by design — phase 2 restores them — and is what
//! makes the pass correct for *any* initial evaluation strategy followed
//! by updates, because no step ever consults a derivation count.
//!
//! In the distributed engine, the closure stops at the node boundary:
//! derivations whose head is located at another node are appended to the
//! buffers' shipped list, like any other derivation, instead of being
//! marked locally, and the receiving node runs its own pass. This is
//! sound for localized programs, where every rule body is single-site and
//! a locally stored, locally derived tuple is locally re-derivable.

use crate::aggview::AggregateView;
use crate::batch::{lend_triggers, return_triggers, BatchTrigger, EvalBuffers};
use crate::expr::EvalError;
use crate::index::EvalStats;
use crate::store::Store;
use crate::strand::CompiledStrand;
use crate::tuple::{RelName, Sign, Tuple, TupleDelta};
use ndlog_lang::seminaive::DeltaRule;
use ndlog_lang::value::FxBuild;
use ndlog_lang::{Atom, Literal, Program, Rule, Term, Value};
use ndlog_net::NodeAddr;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

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
    marked: &mut HashSet<(RelName, Tuple), FxBuild>,
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

/// Whether `relation` stores a tuple other than `tuple` under `tuple`'s
/// primary key.
fn holds_another(store: &Store, relation: &str, tuple: &Tuple) -> bool {
    store
        .relation(relation)
        .and_then(|r| r.get_by_key_of(tuple))
        .is_some_and(|row| row.tuple != *tuple)
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
/// a view and its removal can move the group's aggregate
/// ([`AggregateView::removal_can_move`]), the group's *stored* output is
/// marked (so downstream joins still retract against the not-yet-advanced
/// aggregate) and the group is recorded as dirty for the rebuild in phase
/// 2. A view's outputs live only in its head relation, and a deletion
/// reaches a view only as that rebuild. A `min` group is pinned exactly
/// when the removed input's value is not strictly above the group's output
/// — the reigning best, or a tie, was removed — and a `max` group mirrors
/// that; `count` and `sum` groups are pinned on every removal. Skipping the
/// rest is sound because a `min` output is the least of the group's stored,
/// admitted inputs and the head relation is unchanged until the closure's
/// end: removing an input strictly above it leaves the input that holds it
/// in place, and if that input is removed later in the same pass, its own
/// removal meets the check at equality and pins the group.
///
/// `self_addr` is the evaluating node in distributed mode: derivations
/// located elsewhere are appended to the buffers' shipped list, in
/// derivation order, instead of being marked. Pass `None` in the
/// centralized evaluator (everything is local).
/// The waves fire through the caller's reusable buffers.
pub fn over_delete(
    store: &mut Store,
    strands: &[CompiledStrand],
    views: &[Arc<AggregateView>],
    seeds: Vec<TupleDelta>,
    self_addr: Option<NodeAddr>,
    stats: &mut EvalStats,
    buffers: &mut EvalBuffers,
) -> Result<Marking, EvalError> {
    let EvalBuffers {
        scratch,
        out,
        shipped,
        triggers: spare,
        ..
    } = buffers;
    // Only membership is read: `order` keeps the discovery order.
    let mut marked: HashSet<(RelName, Tuple), FxBuild> = HashSet::default();
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
        // Aggregate views fed by a wave relation: pin the group (mark its
        // current output as-is, defer the recomputation) and dirty it —
        // unless the removal cannot move the group's aggregate.
        for delta in &wave {
            for (view_idx, view) in views.iter().enumerate() {
                if view.source_relation() == delta.relation {
                    let output = view.current_output_for(store, &delta.tuple);
                    if view.removal_can_move(output, &delta.tuple) {
                        if let Some(key) = view.group_key(&delta.tuple) {
                            if let Some(out) = output {
                                mark(
                                    store,
                                    view.head_relation().clone(),
                                    out.clone(),
                                    &mut marked,
                                    &mut order,
                                    &mut frontier,
                                );
                            }
                            dirty.insert((view_idx, key));
                        }
                    }
                }
                // A marked tuple *of* a view's head relation — a pinned
                // output, or a seed that expired — dirties its group, so
                // the rebuild refills the group's key from its surviving
                // inputs. An output the view itself retracted does not:
                // its key already holds the view's new output, which a
                // rebuild would only fold again and re-insert unchanged.
                if *view.head_relation() == delta.relation
                    && !holds_another(store, &delta.relation, &delta.tuple)
                {
                    if let Some(key) = view.output_group_key(&delta.tuple) {
                        dirty.insert((view_idx, key));
                    }
                }
            }
        }
        // One over-delete step through every strand, wave-batched, its
        // trigger list in the lent buffers' capacity.
        let mut triggers = lend_triggers(spare);
        let mut result = Ok(());
        for strand in strands.iter().filter(|s| !s.is_rederivation()) {
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
            result = strand.fire_batch(store, &triggers, stats, scratch, out);
            if result.is_err() {
                break;
            }
            out.drain_into(|_, derivation| match (self_addr, derivation.location) {
                (Some(me), Some(dest)) if dest != me => shipped.push((dest, derivation.delta)),
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
        return_triggers(spare, triggers);
        result?;
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
    })
}

/// The key-bound re-derivation plan of `rule`: the rule itself behind a
/// synthetic trigger atom over its own head relation, whose key columns
/// (every column, for a relation without declared keys) carry the head's
/// terms and whose other columns carry fresh variables. Firing it with an
/// over-deleted tuple binds the head's key variables before the body runs,
/// so the body's joins probe on them — DRed's re-derivation rule, a
/// semi-join of the rule with the over-deleted tuple — and a head constant,
/// a head variable repeated across key columns or an assignment to a key
/// variable becomes the trigger atom's or the assignment's ordinary
/// equality check. Every derivation lands in the trigger's key; the
/// non-key columns are free, so a different value may win it. The key is
/// `program`'s declaration of the head relation — the schema
/// [`Store::add_program`] gives it unless an earlier program declared the
/// relation otherwise, which concurrent programs must not.
pub fn rederivation_plan(program: &Program, rule: &Rule) -> CompiledStrand {
    let head = &rule.head;
    let keys = program
        .table_decl(&head.name)
        .map_or(&[][..], |decl| &decl.key_columns);
    let bound = |(col, term): (usize, &Term)| {
        if keys.is_empty() || keys.contains(&col) {
            term.clone()
        } else {
            // Not a name the parser can produce.
            Term::var(format!("?{col}"))
        }
    };
    let trigger = Atom::new(
        &head.name,
        head.args.iter().enumerate().map(bound).collect(),
    );
    let body = std::iter::once(Literal::Atom(trigger)).chain(rule.body.iter().cloned());
    let rederive = DeltaRule {
        rule: Rule::new(&rule.label, head.clone(), body.collect()),
        trigger: 0,
        trigger_relation: head.name.clone(),
        strand_id: format!("{}-rederive", rule.label),
    };
    CompiledStrand::compile(rederive, true)
}

/// Phase 2: every one-step derivation filling a primary key that one of
/// the over-deleted `candidates` vacated, from the current (post-removal)
/// store, as insertion deltas — per candidate, rules in program order.
///
/// Re-derivation is keyed, not tuple-exact, because P2's key-update
/// semantics make the *key* the unit of materialization: when the stored
/// winner of a key dies, the key's surviving derivations — possibly a
/// different tuple value that an earlier replacement folded away — must be
/// restored. For a keyless relation the key is the whole tuple, and this
/// degenerates to exact re-derivation. A key still occupied (the deletion
/// was the old half of a replacement) is left alone: the new tuple won it.
///
/// All candidates of a relation fire through each of its rules'
/// [`rederivation_plan`]s (the re-derivation plans among `strands`) as one
/// batch, so candidates that probe the same join key share the lookup.
///
/// Derivations restored further downstream are *not* this function's job:
/// the caller ingests the returned insertions through the normal pipelined
/// path, whose cascade re-derives any remaining over-deleted survivors.
pub fn rederive(
    store: &Store,
    strands: &[CompiledStrand],
    candidates: &[TupleDelta],
    stats: &mut EvalStats,
    buffers: &mut EvalBuffers,
) -> Result<Vec<TupleDelta>, EvalError> {
    let vacant = |candidate: &TupleDelta| {
        let relation = store.relation(&candidate.relation);
        relation.is_some_and(|r| r.get_by_key_of(&candidate.tuple).is_none())
    };
    buffers.live.clear();
    buffers.live.extend(candidates.iter().map(vacant));
    let plans = strands.iter().filter(|s| s.is_rederivation());
    let round = candidates.iter().map(|delta| BatchTrigger {
        delta,
        seq_limit: u64::MAX,
    });
    buffers.fire_round(store, plans, round, stats)?;
    let derived = buffers.per_trigger[..candidates.len()].iter_mut();
    let restored = derived
        .flat_map(|derived| derived.drain(..))
        .map(|d| TupleDelta {
            sign: Sign::Insert,
            ..d.delta
        });
    Ok(restored.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::{parse_program, Value};

    fn addr(i: u32) -> Value {
        Value::addr(i)
    }

    fn setup(src: &str) -> (Store, Vec<CompiledStrand>) {
        let crate::Compiled {
            mut store, strands, ..
        } = crate::compile(&parse_program(src).unwrap()).unwrap();
        store.declare_indexes(strands.iter());
        (store, strands)
    }

    /// [`rederive`] over insertion-free candidates, with throwaway buffers:
    /// the restored tuples in order, and the join statistics.
    fn rederived(
        store: &Store,
        strands: &[CompiledStrand],
        candidates: &[(&str, Tuple)],
    ) -> (Vec<Tuple>, EvalStats) {
        let (mut stats, mut buffers) = <(EvalStats, EvalBuffers)>::default();
        let candidates: Vec<TupleDelta> = candidates
            .iter()
            .map(|(relation, tuple)| TupleDelta::delete(*relation, tuple.clone()))
            .collect();
        let inserts = rederive(store, strands, &candidates, &mut stats, &mut buffers).unwrap();
        assert!(buffers.holds_only_capacity());
        for (insert, _) in inserts.iter().zip(&candidates) {
            assert_eq!(insert.sign, Sign::Insert);
        }
        (inserts.into_iter().map(|d| d.tuple).collect(), stats)
    }

    fn ints(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
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
        let mut stats = EvalStats::default();
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
        let mut stats = EvalStats::default();
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
        let mut stats = EvalStats::default();
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

    /// `obs(@0, Z, C)`: input `Z` of node 0's group, with value `C`.
    fn obs(z: i64, c: i64) -> Tuple {
        Tuple::new(vec![addr(0), Value::Int(z), Value::Int(c)])
    }

    /// Feed `obs(@0, Z, C)` for every `(Z, C)` of `inputs` to the view of
    /// the aggregate `func` over `C`, storing its outputs, then remove
    /// `obs(@0, removed)` and over-delete from it: the tuples the pass marked
    /// beyond the seed, and the groups it dirtied.
    fn remove_input(
        func: &str,
        inputs: &[(i64, i64)],
        removed: (i64, i64),
    ) -> (Vec<Tuple>, Vec<(usize, Vec<Value>)>) {
        let program = parse_program(&format!("a best(@S, {func}<C>) :- obs(@S, Z, C).")).unwrap();
        let view = Arc::new(AggregateView::from_rule(&program.rules[0]).unwrap());
        let mut store = Store::for_program(&program).unwrap();
        for &(z, c) in inputs {
            store.apply(&TupleDelta::insert("obs", obs(z, c)));
            for output in view.apply(&store, "obs", &obs(z, c)) {
                store.apply(&output);
            }
        }
        let seed = TupleDelta::delete("obs", obs(removed.0, removed.1));
        store.apply(&seed);
        let marking = over_delete(
            &mut store,
            &[],
            std::slice::from_ref(&view),
            vec![seed],
            None,
            &mut EvalStats::default(),
            &mut Default::default(),
        )
        .unwrap();
        let marked = marking.rederive_candidates().iter();
        let marked = marked.map(|d| d.tuple.clone()).collect();
        (marked, marking.dirty_groups)
    }

    /// The pin of node 0's group with output `best(@0, aggregate)`: the
    /// output marked, the group dirty.
    fn pinned(aggregate: Value) -> (Vec<Tuple>, Vec<(usize, Vec<Value>)>) {
        let output = Tuple::new(vec![addr(0), aggregate]);
        (vec![output], vec![(0, vec![addr(0)])])
    }

    const INPUTS: [(i64, i64); 3] = [(1, 5), (2, 3), (3, 8)];

    #[test]
    fn a_min_group_is_pinned_only_when_its_minimum_or_a_tie_is_removed() {
        let untouched = (Vec::new(), Vec::new());
        assert_eq!(remove_input("min", &INPUTS, (1, 5)), untouched);
        assert_eq!(remove_input("min", &INPUTS, (3, 8)), untouched);
        assert_eq!(remove_input("min", &INPUTS, (2, 3)), pinned(Value::Int(3)));
        let tied = [(1, 5), (2, 3), (4, 3)];
        assert_eq!(remove_input("min", &tied, (4, 3)), pinned(Value::Int(3)));
        assert_eq!(remove_input("min", &tied, (2, 3)), pinned(Value::Int(3)));
    }

    #[test]
    fn a_max_group_is_pinned_only_when_its_maximum_or_a_tie_is_removed() {
        let untouched = (Vec::new(), Vec::new());
        assert_eq!(remove_input("max", &INPUTS, (1, 5)), untouched);
        assert_eq!(remove_input("max", &INPUTS, (2, 3)), untouched);
        assert_eq!(remove_input("max", &INPUTS, (3, 8)), pinned(Value::Int(8)));
        let tied = [(1, 8), (2, 3), (3, 8)];
        assert_eq!(remove_input("max", &tied, (1, 8)), pinned(Value::Int(8)));
        assert_eq!(remove_input("max", &tied, (3, 8)), pinned(Value::Int(8)));
    }

    #[test]
    fn count_and_sum_groups_are_pinned_on_every_removal() {
        for removed in INPUTS {
            let count = pinned(Value::Int(3));
            assert_eq!(remove_input("count", &INPUTS, removed), count);
            let sum = pinned(Value::Float(16.0));
            assert_eq!(remove_input("sum", &INPUTS, removed), sum);
        }
    }

    #[test]
    fn a_replaced_output_dirties_nothing_and_an_expired_one_its_group() {
        let program = parse_program("a best(@S, min<C>) :- obs(@S, Z, C).").unwrap();
        let view = Arc::new(AggregateView::from_rule(&program.rules[0]).unwrap());
        let mut store = Store::for_program(&program).unwrap();
        // Over-delete from `seed`, already removed: the groups it dirtied.
        let dirtied = |store: &mut Store, seed: TupleDelta| {
            let marking = over_delete(
                store,
                &[],
                std::slice::from_ref(&view),
                vec![seed],
                None,
                &mut EvalStats::default(),
                &mut Default::default(),
            )
            .unwrap();
            assert!(marking.rederive_candidates().is_empty());
            marking.dirty_groups
        };
        let mut outputs = Vec::new();
        for (z, c) in [(1, 5), (2, 3)] {
            store.apply(&TupleDelta::insert("obs", obs(z, c)));
            outputs = view.apply(&store, "obs", &obs(z, c));
            for output in &outputs {
                store.apply(output);
            }
        }
        // The view retracted `best(@0, 5)` and stored `best(@0, 3)` under
        // its key: nothing is left to rebuild.
        let [replaced, new] = <[TupleDelta; 2]>::try_from(outputs).unwrap();
        assert_eq!(replaced.tuple, Tuple::new(vec![addr(0), Value::Int(5)]));
        assert_eq!(dirtied(&mut store, replaced), []);
        // An expired output leaves its key empty: its group is rebuilt.
        let expired = TupleDelta::delete("best", new.tuple);
        store.apply(&expired);
        assert_eq!(dirtied(&mut store, expired), [(0, vec![addr(0)])]);
    }

    #[test]
    fn keyless_head_binds_every_column() {
        let (mut store, strands) = setup(REACH);
        // Two independent supports for reach(0,2): edge(0,2) directly and
        // edge(0,1) + reach(1,2).
        for (a, b) in [(0u32, 2u32), (0, 1), (1, 2)] {
            store.apply(&TupleDelta::insert("edge", edge(a, b)));
        }
        store.apply(&TupleDelta::insert("reach", edge(1, 2)));
        // rc1 re-derives it from edge(0,2); rc2 from edge(0,1) + reach(1,2).
        let (restored, stats) = rederived(&store, &strands, &[("reach", edge(0, 2))]);
        assert_eq!(restored, vec![edge(0, 2), edge(0, 2)]);
        // Every join is a probe on the bound head columns: rc1's edge on
        // (S, D), rc2's edge on (S) and, for both edges out of 0, reach on
        // (Z, D).
        assert_eq!((stats.logical_probes, stats.scans), (4, 0));
        // Nothing supports reach(3,4).
        let (restored, _) = rederived(&store, &strands, &[("reach", edge(3, 4))]);
        assert!(restored.is_empty());
    }

    #[test]
    fn constant_in_a_head_key_column_is_checked() {
        let (mut store, strands) = setup("r1 out(@S, 7) :- q(@S).");
        store.apply(&TupleDelta::insert("q", Tuple::new(vec![addr(0)])));
        let hit = Tuple::new(vec![addr(0), Value::Int(7)]);
        let miss = Tuple::new(vec![addr(0), Value::Int(8)]);
        let (restored, _) = rederived(&store, &strands, &[("out", miss), ("out", hit.clone())]);
        assert_eq!(restored, vec![hit]);
    }

    #[test]
    fn head_variable_repeated_across_key_columns_is_checked() {
        let (mut store, strands) =
            setup("materialize(twice, keys(1,2)). r1 twice(@S, S, C) :- q(@S, C).");
        store.apply(&TupleDelta::insert("q", ints(&[1, 7])));
        store.apply(&TupleDelta::insert("q", ints(&[2, 9])));
        // (1, 2) is a key the rule cannot produce; (1, 1) is refilled with
        // what q holds now, not with the over-deleted value.
        let candidates = [("twice", ints(&[1, 2, 7])), ("twice", ints(&[1, 1, 5]))];
        let (restored, _) = rederived(&store, &strands, &candidates);
        assert_eq!(restored, vec![ints(&[1, 1, 7])]);
    }

    #[test]
    fn key_column_produced_by_an_assignment_is_checked() {
        let (mut store, strands) =
            setup("materialize(out, keys(1,2)). r1 out(@S, H, C) :- q(@S, C), H := C + 1.");
        store.apply(&TupleDelta::insert("q", ints(&[1, 5])));
        store.apply(&TupleDelta::insert("q", ints(&[1, 9])));
        // Only q(1, 5) computes the vacated H = 6.
        let (restored, _) = rederived(&store, &strands, &[("out", ints(&[1, 6, 5]))]);
        assert_eq!(restored, vec![ints(&[1, 6, 5])]);
        let (restored, _) = rederived(&store, &strands, &[("out", ints(&[1, 7, 5]))]);
        assert!(restored.is_empty());
    }

    const BEST: &str = "materialize(best, keys(1)). r1 best(@S, C) :- q(@S, C).";

    #[test]
    fn occupied_key_is_skipped() {
        let (mut store, strands) = setup(BEST);
        store.apply(&TupleDelta::insert("q", ints(&[1, 5])));
        // The key went to a new winner: the old value stays out although
        // q(1, 5) still derives it.
        store.apply(&TupleDelta::insert("best", ints(&[1, 3])));
        let (restored, stats) = rederived(&store, &strands, &[("best", ints(&[1, 5]))]);
        assert!(restored.is_empty());
        assert_eq!(
            stats,
            EvalStats::default(),
            "a skipped candidate fires nothing"
        );
    }

    #[test]
    fn a_different_value_may_win_a_vacated_key() {
        let (mut store, strands) = setup(BEST);
        store.apply(&TupleDelta::insert("q", ints(&[1, 7])));
        store.apply(&TupleDelta::insert("q", ints(&[2, 8])));
        let (restored, _) = rederived(&store, &strands, &[("best", ints(&[1, 5]))]);
        assert_eq!(restored, vec![ints(&[1, 7])]);
    }

    #[test]
    fn candidates_of_one_batch_share_a_probe() {
        let (mut store, strands) = setup(REACH);
        for (a, b) in [(0u32, 1u32), (1, 2), (1, 3)] {
            store.apply(&TupleDelta::insert("edge", edge(a, b)));
            store.apply(&TupleDelta::insert("reach", edge(a, b)));
        }
        // reach(0,2), reach(0,3) and the underivable reach(0,4) all probe
        // edge on S = 0 in rc2: one lookup answers the three of them, and
        // the restored tuples come back in candidate order.
        let candidates = [(0, 3), (0, 4), (0, 2)].map(|(a, b)| ("reach", edge(a, b)));
        let (restored, stats) = rederived(&store, &strands, &candidates);
        assert_eq!(restored, vec![edge(0, 3), edge(0, 2)]);
        // Per candidate: rc1's edge on (S, D), rc2's edge on (S) and reach
        // on (Z, D).
        assert_eq!((stats.logical_probes, stats.scans), (9, 0));
        assert_eq!(stats.distinct_probes, 3 + 1 + 3);
    }
}

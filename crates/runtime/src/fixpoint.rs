//! The local fixpoint driver: pipelined semi-naive evaluation over a delta
//! queue (Section 3.3, Algorithm 3) with deletions maintained
//! incrementally (Section 4.1).
//!
//! [`LocalFixpoint`] is the one implementation of that loop. The
//! centralized [`crate::Evaluator`] and `ndlog-core`'s per-node engine are
//! both wrappers over it, and what differs per site is data the loop is
//! built with, not code it calls back into: the evaluating node (`None`
//! for the evaluator, which ignores location specifiers) and the aggregate
//! selections it prunes by (Section 5.1.1; none for the evaluator). A
//! selection prunes twice: at admission, an insertion no better than its
//! group's aggregate never reaches the store (a re-announced stored tuple
//! excepted; an insertion whose group a pending removal can move waits for
//! the DRed pass that rebuilds the group, and is judged against that), and
//! at firing, a stored trigger its group has strictly bettered since its
//! admission — a receive batch is ingested whole before any of it fires —
//! is consumed without firing. A
//! derivation located at another node is appended to the lent buffers'
//! shipped list for the site to send, and the tap records every visibility
//! transition of a subscribed relation — a node's tracked-relation log.
//!
//! A receive batch enters through [`LocalFixpoint::ingest_batch`] as its
//! net change. A stored hard-state tuple that the batch deletes and later
//! re-inserts unchanged, with no other delta under its key in between, is
//! left alone: an update is a deletion followed by an insertion (Section
//! 4), so the pair changes nothing, whereas ingesting it would remove the
//! tuple, over-delete its downstream closure, ship those deletions to
//! every neighbour and re-derive it all. The rule reads the receiving
//! store, so only a receiver can apply it: a sender cannot know whether
//! its deletion removes anything, and when it does not, the insertion is a
//! fresh announcement the selections must judge. A soft-state pair is
//! ingested, since its re-insertion refreshes the expiry. Every other
//! delta is ingested on its own, in arrival order. Cancelling only spares
//! work: a pair ingested as two deltas ends in the same store, because the
//! re-insertion waits for the deletion's DRed pass before a selection
//! judges it.
//!
//! The insert-only work queue holds deltas that have been applied to the
//! store (and therefore have a timestamp) but whose strands have not
//! fired. Deletions never enter the queue: every delta whose application
//! actually removed a tuple — an external deletion, a soft-state expiry or
//! the old half of a primary-key replacement — is collected as a pending
//! deletion and consumed by a DRed pass ([`crate::dred`]) before the next
//! insertion fires: over-delete the downstream closure (with the affected
//! aggregate groups pinned), then re-derive the survivors, whose
//! insertions re-enter the queue like any other insert. Because that pass
//! never consults a derivation count, incremental results match a
//! from-scratch evaluation for *any* initial strategy.
//!
//! The queue is consumed in **rounds**, whose size and iteration
//! accounting are the [`Strategy`]: the triggers of a round fire against
//! one store snapshot through the strands' slot-compiled batch plans (flat
//! reusable buffers lent by the caller of [`LocalFixpoint::run`], no
//! per-environment allocation), and the precomputed
//! derivations are then routed/ingested trigger by trigger in the exact
//! tuple-at-a-time order. Every strategy restricts a trigger's joins to
//! tuples applied before it (its own store timestamp). That is the
//! old/new separation of Algorithm 1 with footnote 2's ordering realised
//! by apply order: when two deltas of the same round join each other,
//! exactly one trigger — the later — sees the pair, so no strategy repeats
//! an inference, and SN, BSN and PSN agree on stores down to per-tuple
//! derivation counts (which `tests/optimizer.rs` relies on for the
//! magic-sets differential property). It is also why firing a trigger
//! before its siblings' derivations are applied is PSN-exact: those
//! derivations carry timestamps above every round trigger's visibility
//! limit, so the joins could not have seen them anyway.
//!
//! Firing ahead of consumption is a bet that no removal comes first: a
//! primary-key replacement among the ingested derivations interrupts the
//! round for a DRed pass, and what was fired beyond the interrupting
//! trigger is discarded and fired again against the post-pass store. So the
//! loop fires a **look-ahead prefix** of the round, sized by what it
//! observes — one rule for SN, BSN and PSN: the whole round until a
//! removal interrupts one; from then on as many triggers as the
//! interrupted round consumed, doubling after every prefix consumed whole.
//! A prefix is at most twice what the loop last got through, so the
//! firings a run discards are bounded by a constant times the triggers it
//! consumes; firing the whole queue ahead made a bulk load, whose
//! `bestCost`-style keyed winners are replaced all the way through,
//! quadratic in its size. Which triggers share a batch is all the
//! look-ahead changes: derivations, their order and the store are those of
//! the tuple-at-a-time loop for every prefix size, save one thing. Pruning
//! at firing reads the store as the prefix found it, so a trigger whose
//! group a sibling's derivation bettered earlier in the same prefix still
//! fires, where the tuple-at-a-time loop would not have fired it; which
//! triggers do is as deterministic as the prefix sizes themselves.
//!
//! The driver owns a site's *state* — store, selections, queue,
//! pending DRed input, tap, statistics — and none of the buffers evaluation
//! runs in: [`LocalFixpoint::run`] borrows an [`EvalBuffers`] from whoever
//! drives it (an executor lane, which for lane 0 includes the engine's
//! inject path, or the centralized evaluator; see [`crate::batch`]) and
//! hands it back holding capacity only, apart from the shipped derivations
//! the site drains, so a process hosting hundreds of sites keeps one set of
//! high-water-mark buffers per lane, not per site.

use crate::aggview::AggregateView;
use crate::batch::{BatchTrigger, EvalBuffers};
use crate::dred;
use crate::expr::EvalError;
use crate::index::EvalStats;
use crate::relation::Relation;
use crate::store::{ApplyEffect, Change, Store};
use crate::strand::CompiledStrand;
use crate::tap::DeltaTap;
use crate::tuple::{RelName, Sign, Tuple, TupleDelta};
use ndlog_lang::aggsel::AggSelectionSpec;
use ndlog_lang::value::FxBuild;
use ndlog_lang::Value;
use ndlog_net::NodeAddr;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// Which evaluation strategy to use: the round policy of the one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Classic semi-naive evaluation (Algorithm 1): complete iterations,
    /// each consuming every delta buffered by the previous iteration.
    SemiNaive,
    /// Buffered semi-naive: like SN, but a local iteration may flush only
    /// part of the buffer (here: at most `batch` tuples), deferring the
    /// rest to a future iteration. Produces the same fixpoint.
    Buffered {
        /// Maximum number of buffered tuples flushed per iteration.
        batch: usize,
    },
    /// Pipelined semi-naive evaluation (Algorithm 3): one tuple at a time,
    /// joins restricted to same-or-older timestamps.
    Pipelined,
}

impl Strategy {
    /// How many of the `queued` triggers the next round takes, when the
    /// loop fires `ahead` of them at a time. An SN/BSN round is an
    /// iteration whatever is fired ahead; PSN has no iteration boundary, so
    /// its round is what it fires.
    fn round_size(self, queued: usize, ahead: usize) -> usize {
        match self {
            Strategy::Buffered { batch } => queued.min(batch.max(1)),
            Strategy::SemiNaive => queued,
            Strategy::Pipelined => queued.min(ahead),
        }
    }
}

/// What aggregate selections make of an insertion (`LocalFixpoint::admit`).
enum Admission {
    /// It reaches the store.
    Admit,
    /// It is refused: its group holds an aggregate at least as good.
    Prune,
    /// It waits for the next DRed pass to rebuild its group.
    Defer,
}

/// One site's evaluation state and the loop that drives it to a local
/// fixpoint.
pub struct LocalFixpoint {
    store: Store,
    strands: Arc<Vec<CompiledStrand>>,
    views: Vec<Arc<AggregateView>>,
    /// The evaluating node; `None` when every relation is local (the
    /// centralized evaluator ignores location specifiers).
    site: Option<NodeAddr>,
    /// The aggregate selections this site prunes by, each with the index
    /// of the view that tracks its groups; empty means no pruning.
    selections: Vec<(AggSelectionSpec, usize)>,
    /// Count of insertions refused by aggregate selections.
    pruned: u64,
    /// Count of stored triggers that did not fire because their group's
    /// aggregate had bettered them since they were admitted.
    superseded: u64,
    /// Insert-only work queue: applied deltas whose strands have not fired.
    queue: VecDeque<(TupleDelta, u64)>,
    /// The input of the next DRed over-delete/re-derive pass: the tuples
    /// actually removed from the store, which seed it, and the insertions
    /// whose admission waits for it (`admit` defers an insertion when a
    /// pending removal can move its group's aggregate, whose stored output
    /// is stale until the pass rebuilds it). An insertion is here only
    /// beside a removal, so this is empty exactly when no removal is
    /// pending.
    pending: Vec<TupleDelta>,
    /// Records visibility transitions of subscribed relations (see
    /// [`crate::tap`]).
    tap: DeltaTap,
    /// Cumulative evaluation statistics.
    stats: EvalStats,
}

impl LocalFixpoint {
    /// A driver over `store` for the given strands and aggregate views,
    /// evaluating at `site` and pruning by `selections` (Section 5.1.1),
    /// each of which must name the aggregate view that tracks its groups.
    /// Builds every secondary index the strands' probe stages and the
    /// views' group folds need, once, before any tuple arrives.
    pub fn new(
        mut store: Store,
        strands: Arc<Vec<CompiledStrand>>,
        views: Vec<Arc<AggregateView>>,
        site: Option<NodeAddr>,
        selections: Vec<AggSelectionSpec>,
    ) -> Result<Self, String> {
        store.declare_indexes(strands.iter());
        for view in &views {
            if let Some((relation, cols)) = view.index_requirements() {
                store.declare_index(&relation, &cols);
            }
        }
        let resolve = |sel: AggSelectionSpec| {
            let view = views
                .iter()
                .position(|v| *v.head_relation() == sel.aggregate_relation);
            let view = view.ok_or_else(|| {
                format!(
                    "aggregate selection on {} has no matching aggregate view",
                    sel.relation
                )
            })?;
            Ok((sel, view))
        };
        let selections = selections
            .into_iter()
            .map(resolve)
            .collect::<Result<_, String>>()?;
        Ok(LocalFixpoint {
            store,
            strands,
            views,
            site,
            selections,
            pruned: 0,
            superseded: 0,
            queue: VecDeque::new(),
            pending: Vec::new(),
            tap: DeltaTap::new(),
            stats: EvalStats::default(),
        })
    }

    /// The store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable access to the store (e.g. to pre-load base tuples).
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// The compiled strands.
    pub fn strands(&self) -> &[CompiledStrand] {
        &self.strands
    }

    /// The aggregate views.
    pub fn views(&self) -> &[Arc<AggregateView>] {
        &self.views
    }

    /// The live-query delta tap.
    pub fn tap(&self) -> &DeltaTap {
        &self.tap
    }

    /// Mutable access to the delta tap (subscribe/unsubscribe relations).
    pub fn tap_mut(&mut self) -> &mut DeltaTap {
        &mut self.tap
    }

    /// Cumulative evaluation statistics.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The aggregate selection this site prunes `relation` by, with the
    /// index of the view that tracks its groups.
    pub fn selection(&self, relation: &str) -> Option<&(AggSelectionSpec, usize)> {
        self.selections
            .iter()
            .find(|(sel, _)| sel.relation == relation)
    }

    /// Number of insertions refused by aggregate selections so far.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// Number of stored triggers aggregate selections kept from firing so
    /// far: their group's aggregate became strictly better between their
    /// admission and their turn to fire.
    pub fn superseded(&self) -> u64 {
        self.superseded
    }

    /// Whether unprocessed work is queued.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty() || !self.pending.is_empty()
    }

    /// Advance the logical clock (for soft-state expiry).
    pub fn set_time(&mut self, now_micros: u64) {
        self.store.set_time(now_micros);
    }

    /// Expire soft-state tuples; the expired tuples seed the next DRed
    /// pass (they are already removed from the store, and an expiry is
    /// authoritative — never re-derived).
    pub fn expire_soft_state(&mut self, now_micros: u64) {
        let deltas = self.store.expire(now_micros);
        self.pending.extend(deltas);
    }

    /// Queue an already-stored tuple for (re-)firing with its stored
    /// timestamp as the visibility limit.
    pub fn enqueue(&mut self, delta: TupleDelta, seq: u64) {
        self.queue.push_back((delta, seq));
    }

    /// Lose all volatile state — stored tuples (the aggregate views' outputs
    /// among them: a view keeps nothing else), the queue and pending
    /// deletions. Every stored tuple of a subscribed
    /// relation leaves the store, so the tap records its retraction.
    /// Sequence numbers and the logical clock survive.
    pub fn clear(&mut self) {
        let names = self.store.relation_names();
        let tracked: Vec<RelName> = names
            .filter(|name| self.tap.is_subscribed(name))
            .map(RelName::from)
            .collect();
        for name in tracked {
            for tuple in self.store.tuples(&name) {
                self.tap.record(&TupleDelta::delete(name.clone(), tuple));
            }
        }
        self.store.clear_tuples();
        self.queue.clear();
        self.pending.clear();
    }

    /// Bytes of capacity the work queue keeps between runs.
    pub fn queue_bytes(&self) -> usize {
        self.queue.capacity() * std::mem::size_of::<(TupleDelta, u64)>()
    }

    /// Bytes of capacity the pending deletions keep between runs.
    pub fn pending_bytes(&self) -> usize {
        self.pending.capacity() * std::mem::size_of::<TupleDelta>()
    }

    /// Ingest one receive batch — the payloads in order — as its net
    /// change. A deletion of a tuple the store holds at that point in the
    /// batch, of a hard-state relation, whose next delta under the same
    /// primary key later in the batch is an identical insertion, cancels
    /// with that insertion: neither reaches the store, the views, the tap,
    /// the queue or a DRed pass, since "−D, +D" of a stored D changes
    /// nothing (an update is a deletion followed by an insertion, Section
    /// 4). Every other delta is ingested on its own, in arrival order; in a
    /// batch without both signs, that is every delta. A batch with both
    /// signs and at least `CHAINED_BATCH` (128) deltas is first read once
    /// from the back, chaining each delta to the next one under its
    /// relation and key; a narrower one is scanned, fewer than 128
    /// comparisons per deletion. Either way the batch costs O(n), however
    /// far apart a pair sits. Each payload's
    /// buffer goes to `drained`, emptied, with the number of deltas it
    /// carried, as soon as the batch is done with it.
    ///
    /// The rule reads this store, so it is applied where the batch is
    /// received, never by a sender: a deletion of a tuple not stored is a
    /// no-op, and the insertion after it a fresh announcement that
    /// aggregate selections must judge again. A soft-state pair is ingested,
    /// because its re-insertion moves the tuple's expiry forward.
    /// Cancelling spares the deletion's DRed pass — the over-deleted
    /// closure, the deletions shipped to the neighbours and everything
    /// re-derived and re-shipped after it — and nothing else: a pair left
    /// uncancelled ends in the same store, since its re-insertion waits for
    /// that pass before a selection judges it.
    pub fn ingest_batch(
        &mut self,
        payloads: &mut [Vec<TupleDelta>],
        drained: impl FnMut(usize, Vec<TupleDelta>),
    ) {
        self.ingest_netted(payloads, drained, CHAINED_BATCH);
    }

    /// [`LocalFixpoint::ingest_batch`], finding re-assertions through key
    /// chains in a batch of at least `chained_batch` deltas; returns how
    /// many deltas the searches compared against a deletion's key.
    fn ingest_netted(
        &mut self,
        payloads: &mut [Vec<TupleDelta>],
        mut drained: impl FnMut(usize, Vec<TupleDelta>),
        chained_batch: usize,
    ) -> usize {
        let signs = || payloads.iter().flatten().map(|d| d.sign);
        let nets = signs().any(|s| s == Sign::Insert) && signs().any(|s| s == Sign::Delete);
        let wide = payloads.iter().map(Vec::len).sum::<usize>() >= chained_batch;
        let chains = (nets && wide).then(|| KeyChains::new(&self.store, payloads));
        let comparisons = Cell::new(0);
        // The batch positions of the insertions that cancelled an earlier
        // deletion, nearest first.
        let mut cancelled = BinaryHeap::new();
        let mut position = 0;
        for p in 0..payloads.len() {
            let (current, later) = payloads.split_at_mut(p + 1);
            let payload = &mut current[p];
            let len = payload.len();
            let mut deltas = payload.drain(..);
            while let Some(delta) = deltas.next() {
                let at = position;
                position += 1;
                if cancelled.peek() == Some(&Reverse(at)) {
                    cancelled.pop();
                    continue;
                }
                let following = Following {
                    at,
                    ahead: deltas.as_slice(),
                    later,
                    chains: chains.as_ref(),
                    comparisons: &comparisons,
                };
                let reasserted = nets.then(|| self.reassertion(&delta, following));
                match reasserted.flatten() {
                    Some(reinsertion) => cancelled.push(Reverse(reinsertion)),
                    None => self.ingest(delta),
                }
            }
            drop(deltas);
            drained(len, std::mem::take(payload));
        }
        debug_assert!(cancelled.is_empty());
        comparisons.get()
    }

    /// Where `delta`, a deletion of a stored hard-state tuple, is re-inserted
    /// among the deltas that follow it in its batch: the batch position of
    /// the next delta under the same primary key, if that is an insertion
    /// of the identical tuple. `None` for any other delta. A search compares
    /// at most [`CHAINED_BATCH`] deltas in a narrow batch, and in a wide one
    /// follows the key chains, one delta but for a fingerprint collision:
    /// a batch costs O(n) either way.
    fn reassertion(&self, delta: &TupleDelta, following: Following<'_>) -> Option<usize> {
        if delta.sign != Sign::Delete {
            return None;
        }
        let relation = self.store.relation(&delta.relation)?;
        let schema = relation.schema();
        if schema.ttl_micros.is_some() || !relation.contains(&delta.tuple) {
            return None;
        }
        let (tuple, key) = (&delta.tuple, &schema.key_columns);
        let same_key = |other: &Tuple| {
            if key.is_empty() {
                other == tuple
            } else {
                key.iter().all(|&c| other.get(c) == tuple.get(c))
            }
        };
        let (position, next) = following
            .candidates()
            .find(|(_, d)| d.relation == delta.relation && same_key(&d.tuple))?;
        (next.sign == Sign::Insert && next.tuple == *tuple).then_some(position)
    }

    /// Apply a delta to the store, feed aggregate views, and enqueue
    /// whatever actually changed. Actual removals (deletions whose count
    /// reached zero and the old halves of replacements) become pending
    /// deletions instead; the views are *not* fed deletions — the DRed
    /// pass rebuilds the affected groups from the store (group pinning).
    /// A view's outputs enter the store here like any other delta: the
    /// stored head relation is the only copy of them.
    /// The delta is moved to where it ends up, never copied.
    fn ingest(&mut self, delta: TupleDelta) {
        match self.admit(&delta) {
            Admission::Admit => {}
            Admission::Prune => return,
            Admission::Defer => return self.pending.push(delta),
        }
        let ApplyEffect { change, seq } = self.store.apply(&delta);
        match change {
            Change::Nothing => {
                if delta.sign == Sign::Insert {
                    // A duplicate insertion is absorbed by the count
                    // algorithm, but it still re-exercised the derivations
                    // downstream of this tuple; aggregate-view outputs emit
                    // nothing when the best is unchanged, so their
                    // soft-state expiry is moved forward here.
                    self.stats.redundant_derivations += 1;
                    self.refresh_view_outputs(&delta);
                }
            }
            Change::Removed => self.pending.push(delta),
            Change::Inserted => self.inserted(delta, seq),
            Change::Replaced(old) => {
                let old = TupleDelta::delete(delta.relation.clone(), old);
                self.pending.push(old);
                self.inserted(delta, seq);
            }
        }
    }

    /// Aggregate-selection pruning: whether an insertion may reach the
    /// store now, which it may unless a selection's group already holds an
    /// aggregate at least as good. A group whose aggregate a pending
    /// removal can move judges nothing until the DRed pass has rebuilt it:
    /// its stored output may still be the removed tuple's value, and
    /// pruning against it would refuse what the rebuilt group admits — the
    /// same path re-costed upward, shipped as its deletion and its
    /// re-insertion, or a tie of a deleted best. The insertion waits for
    /// the pass instead, as if the removal had arrived in an earlier batch.
    fn admit(&mut self, delta: &TupleDelta) -> Admission {
        if delta.sign == Sign::Delete {
            return Admission::Admit;
        }
        let Some((sel, candidate, current)) = self.against_best(delta) else {
            return Admission::Admit;
        };
        if sel.is_better(candidate, current) {
            return Admission::Admit;
        }
        // A re-announcement of any stored tuple — the reigning best or an
        // alternative admitted before the group bettered it — is "not
        // strictly better" too, but it still reaches the store, as the
        // duplicate insertion it is, so its soft-state expiry moves
        // forward; everything else is pruned outright.
        let stored = self
            .store
            .relation(&delta.relation)
            .is_some_and(|r| r.contains(&delta.tuple));
        if stored {
            Admission::Admit
        } else if self.awaits_rebuild(delta) {
            Admission::Defer
        } else {
            self.pruned += 1;
            Admission::Prune
        }
    }

    /// Whether a removal awaiting the next DRed pass can move the aggregate
    /// of `delta`'s group under the selection that prunes its relation —
    /// the condition on which that pass pins and rebuilds the group.
    /// Most calls find no pending removal of the group, so the group's
    /// output is looked up only once one is found.
    fn awaits_rebuild(&self, delta: &TupleDelta) -> bool {
        let Some((_, view)) = self.selection(&delta.relation) else {
            return false;
        };
        let view = &self.views[*view];
        let mut removals = self
            .pending
            .iter()
            .filter(|removed| {
                removed.sign == Sign::Delete
                    && removed.relation == delta.relation
                    && view.same_group(&removed.tuple, &delta.tuple)
            })
            .peekable();
        if removals.peek().is_none() {
            return false;
        }
        let output = view.current_output_for(&self.store, &delta.tuple);
        removals.any(|removed| view.removal_can_move(output, &removed.tuple))
    }

    /// A 0 → >0 visibility transition: `delta`'s tuple entered the store
    /// with timestamp `seq`.
    fn inserted(&mut self, delta: TupleDelta, seq: u64) {
        self.tap.record(&delta);
        // Aggregate views react to every real insertion of their source;
        // their outputs are local (aggregate rules are local rules) and are
        // ingested recursively.
        let mut view_outputs = Vec::new();
        for view in &self.views {
            view_outputs.extend(view.apply(&self.store, &delta.relation, &delta.tuple));
        }
        self.queue.push_back((delta, seq));
        for out in view_outputs {
            self.ingest(out);
        }
    }

    /// A duplicate insertion of a view's source tuple keeps that group's
    /// aggregate derivable, so the group's stored output tuple must have
    /// its soft-state expiry refreshed along with the source — the view
    /// itself emits nothing while the best is unchanged. The refresh is a
    /// duplicate insertion of a stored tuple, so it changes nothing the
    /// tracking/queueing bookkeeping would have to see.
    fn refresh_view_outputs(&mut self, delta: &TupleDelta) {
        for view in &self.views {
            if view.source_relation() != delta.relation {
                continue;
            }
            let Some(best) = view.current_output_for(&self.store, &delta.tuple) else {
                continue;
            };
            let refresh = TupleDelta::insert(view.head_relation().clone(), best.clone());
            self.store.apply(&refresh);
        }
    }

    /// Run queued work to a local fixpoint. Pending removals are drained
    /// first (and whenever an insertion cascade causes further removals),
    /// so every retraction is handled by a DRed pass before dependent
    /// insertions fire. Evaluation happens in `buffers`, which the caller
    /// lends for the run and gets back empty, whatever the outcome, apart
    /// from the derivations located at other nodes: those are appended to
    /// its shipped list, in derivation order, for the caller to drain.
    pub fn run(&mut self, strategy: Strategy, buffers: &mut EvalBuffers) -> Result<(), EvalError> {
        let pipelined = strategy == Strategy::Pipelined;
        // The current round and how much of it has been consumed.
        let mut round: Vec<(TupleDelta, u64)> = Vec::new();
        let mut done = 0;
        // How many triggers fire ahead of consumption (see the module docs).
        let mut ahead = usize::MAX;
        loop {
            self.drain_deletions(buffers)?;
            if done == round.len() {
                round.clear();
                done = 0;
                if self.queue.is_empty() {
                    debug_assert_eq!(self.store.check_invariants(), Ok(()));
                    return Ok(());
                }
                let take = strategy.round_size(self.queue.len(), ahead);
                round.extend(self.queue.drain(..take));
                if !pipelined {
                    self.stats.iterations += 1;
                }
            }
            let end = round.len().min(done.saturating_add(ahead));
            let fired = self.fire_batch_round(&round[done..end], buffers)?;
            let mut consumed = 0;
            for derived in &mut buffers.per_trigger[..fired] {
                consumed += 1;
                if pipelined {
                    self.stats.iterations += 1;
                }
                self.stats.tuples_processed += 1;
                self.stats.derivations += derived.len();
                for derivation in derived.drain(..) {
                    match (self.site, derivation.location) {
                        (Some(me), Some(dest)) if dest != me => {
                            buffers.shipped.push((dest, derivation.delta))
                        }
                        _ => self.ingest(derivation.delta),
                    }
                }
                // A removal among the deltas just ingested (a primary-key
                // replacement) invalidates the remaining precomputed
                // firings: they re-fire against the post-DRed store,
                // exactly where the tuple-at-a-time loop would have fired
                // them.
                if !self.pending.is_empty() {
                    break;
                }
            }
            // A superseded trigger counts when consumed: one the
            // interruption sends back is checked again when it re-fires.
            let skipped = &buffers.superseded[..consumed];
            self.superseded += skipped.iter().filter(|&&s| s).count() as u64;
            // What the interruption left unconsumed is stale.
            buffers.per_trigger[consumed..fired]
                .iter_mut()
                .for_each(Vec::clear);
            done += consumed;
            ahead = if self.pending.is_empty() {
                ahead.saturating_mul(2)
            } else {
                consumed
            };
            if pipelined {
                // Unconsumed triggers return to the queue front — still
                // ahead of the derivations ingested above — and the next
                // round takes them together with what was queued since.
                // Under SN/BSN they stay in `round`, so the *remainder of
                // this iteration* re-fires without starting a new one
                // early.
                for entry in round.drain(done..).rev() {
                    self.queue.push_front(entry);
                }
            }
        }
    }

    /// Compute the derivations of `round` (applied-but-unfired insertion
    /// deltas) into `buffers.per_trigger`, per trigger, in exactly the
    /// order firing the triggers one at a time would ingest them (strands
    /// in declaration order per trigger), and return how many triggers fired. Every
    /// trigger joins with its own apply timestamp as the visibility limit.
    /// Triggers whose row is no longer stored — over-deleted or replaced
    /// since being queued, even if an equal tuple was stored again — yield
    /// nothing: the consequences are moot, and a re-derived tuple fires
    /// through its own queued insert. Nor do triggers of a relation the
    /// site prunes whose group's aggregate is strictly better than their
    /// value (flagged in `buffers.superseded`): aggregate selections prune
    /// at firing as at admission, because a receive batch is ingested
    /// whole before any of it fires and a tuple admitted early in it may be
    /// bettered later in it.
    ///
    /// All of `round` fires against one store snapshot through the batch
    /// plans, each probe stage through the one access path its relation
    /// declared for it.
    fn fire_batch_round(
        &mut self,
        round: &[(TupleDelta, u64)],
        buffers: &mut EvalBuffers,
    ) -> Result<usize, EvalError> {
        let forward = self.strands.iter().filter(|s| !s.is_rederivation());
        // Whether a trigger's row is still stored cannot change mid-round:
        // any removal interrupts the round for a DRed pass before the next
        // trigger is consumed.
        buffers.live.clear();
        buffers.superseded.clear();
        for (delta, seq) in round {
            let stored = self.is_stored(delta, *seq);
            let superseded = stored && self.is_superseded(delta);
            buffers.live.push(stored && !superseded);
            buffers.superseded.push(superseded);
        }
        let triggers = round.iter().map(|(delta, seq)| BatchTrigger {
            delta,
            seq_limit: *seq,
        });
        buffers.fire_round(&self.store, forward, triggers, &mut self.stats)?;
        Ok(round.len())
    }

    /// Whether the row instance `delta` was queued for is stored: the row
    /// under its key carries the timestamp `seq` it was applied at (a
    /// duplicate insert keeps it; a removal and a new insert do not) and
    /// an equal tuple.
    fn is_stored(&self, delta: &TupleDelta, seq: u64) -> bool {
        debug_assert_eq!(delta.sign, Sign::Insert);
        self.store
            .relation(&delta.relation)
            .and_then(|r| r.get_by_key_of(&delta.tuple))
            .is_some_and(|row| row.seq == seq && row.tuple == delta.tuple)
    }

    /// Whether aggregate selections keep `delta` from firing: the site
    /// prunes its relation and its group's current aggregate is strictly
    /// better than its value — the comparison `admit` makes, with the two
    /// values swapped. A tie fires, and so does every trigger under an
    /// aggregate that never prunes (`count`, `sum`).
    fn is_superseded(&self, delta: &TupleDelta) -> bool {
        self.against_best(delta)
            .is_some_and(|(sel, value, current)| value != current && !sel.is_better(value, current))
    }

    /// The selection this site prunes `delta`'s relation by, with `delta`'s
    /// aggregated value and its group's current aggregate; `None` when no
    /// selection prunes the relation or the group has no aggregate yet.
    fn against_best<'a>(
        &'a self,
        delta: &'a TupleDelta,
    ) -> Option<(&'a AggSelectionSpec, &'a Value, &'a Value)> {
        let (sel, view) = self.selection(&delta.relation)?;
        let value = delta.tuple.get(sel.value_col)?;
        let current = self.views[*view].current_for(&self.store, &delta.tuple)?;
        Some((sel, value, current))
    }

    /// Run DRed passes until no removal is pending: over-delete the local
    /// downstream closure of the pending seeds (shipping deletion
    /// derivations headed at other nodes), rebuild the pinned aggregate
    /// groups, and ingest the re-derivation insertions, then the insertions
    /// deferred for the pass (either may replace keyed tuples and thereby
    /// queue further seeds — hence the loop).
    /// Remote over-deletions may over-approximate; the re-derive cascade
    /// re-ships the insertions that still hold, so the net effect at every
    /// receiver is exact.
    fn drain_deletions(&mut self, buffers: &mut EvalBuffers) -> Result<(), EvalError> {
        while !self.pending.is_empty() {
            let mut seeds = std::mem::take(&mut self.pending);
            let deferred: Vec<TupleDelta> =
                seeds.extract_if(.., |d| d.sign == Sign::Insert).collect();
            let marking = dred::over_delete(
                &mut self.store,
                &self.strands,
                &self.views,
                seeds,
                self.site,
                &mut self.stats,
                buffers,
            )?;
            // Each removal is one processed delta (and one PSN-style
            // iteration): the DRed counterpart of popping a deletion off
            // the work queue.
            self.stats.iterations += marking.removed.len();
            self.stats.tuples_processed += marking.removed.len();
            // Every marked tuple — external seeds, replacement old halves
            // and the over-deleted closure — actually left the store;
            // re-derived survivors come back through `ingest` as inserts.
            for removal in &marking.removed {
                self.tap.record(removal);
            }
            // Rebuild every pinned group from the post-removal store; the
            // new aggregate outputs cascade like ordinary insertions.
            let mut inserts: Vec<TupleDelta> = Vec::new();
            for (view_idx, key) in &marking.dirty_groups {
                inserts.extend(self.views[*view_idx].rebuild_group(
                    &self.store,
                    key,
                    &mut self.stats,
                ));
            }
            // One-step re-derivation of the over-deleted tuples; survivors
            // restored further downstream come from the insert cascade.
            inserts.extend(dred::rederive(
                &self.store,
                &self.strands,
                marking.rederive_candidates(),
                &mut self.stats,
                buffers,
            )?);
            self.stats.derivations += inserts.len();
            for delta in inserts {
                self.ingest(delta);
            }
            // The insertions held back for this pass are judged against the
            // groups it rebuilt.
            for delta in deferred {
                self.ingest(delta);
            }
        }
        Ok(())
    }
}

/// The narrowest receive batch whose re-assertions are found through key
/// chains. A narrower batch with both signs scans, for each deletion of a
/// stored tuple, the deltas after it until one under its key — at most
/// this many comparisons per deletion, and no allocation. On `churn_dred`
/// (seed 1) half the batches with both signs hold two deltas and 1 % of
/// their deltas sit in batches of 256 or more; chaining every batch cost
/// ≈ 5 % of `op_p50_ms`.
const CHAINED_BATCH: usize = 128;

/// Where each delta of a receive batch is followed by the next one under
/// the same relation and primary key. One pass from the back files every
/// delta of a stored relation by a fingerprint of the relation and its key
/// values and links it to the nearest later delta with the same
/// fingerprint, so the next delta under a key is the first of its chain
/// whose key is equal — the first one, but for a collision. Built only for
/// a batch holding both signs and at least [`CHAINED_BATCH`] deltas.
struct KeyChains {
    /// The batch position of each payload's first delta.
    starts: Vec<usize>,
    /// By batch position, the nearest later position with the same
    /// fingerprint.
    next: Vec<Option<u32>>,
}

impl KeyChains {
    fn new(store: &Store, payloads: &[Vec<TupleDelta>]) -> KeyChains {
        let starts: Vec<usize> = payloads
            .iter()
            .scan(0, |start, payload| {
                let this = *start;
                *start += payload.len();
                Some(this)
            })
            .collect();
        let total = payloads.iter().map(Vec::len).sum();
        let total32 = u32::try_from(total).expect("fewer than 2³² deltas in a batch");
        let mut next = vec![None; total];
        let mut nearest: HashMap<u64, u32, FxBuild> =
            HashMap::with_capacity_and_hasher(total, FxBuild::default());
        let from_the_back = (0..total32).rev().zip(payloads.iter().flatten().rev());
        // Deltas come in runs of one relation: look it up once per run. A
        // relation is filed by its address in the store, which stands for
        // its name.
        let mut current: Option<(&RelName, Option<&Relation>)> = None;
        for (position, delta) in from_the_back {
            let relation = match current {
                Some((name, relation)) if *name == delta.relation => relation,
                _ => {
                    let relation = store.relation(&delta.relation);
                    current = Some((&delta.relation, relation));
                    relation
                }
            };
            let Some(relation) = relation else {
                continue;
            };
            let mut hasher = FxBuild::default().build_hasher();
            std::ptr::hash(relation, &mut hasher);
            let key = &relation.schema().key_columns;
            if key.is_empty() {
                delta.tuple.values().hash(&mut hasher);
            } else {
                key.iter()
                    .for_each(|&c| delta.tuple.get(c).hash(&mut hasher));
            }
            next[position as usize] = nearest.insert(hasher.finish(), position);
        }
        KeyChains { starts, next }
    }
}

/// The deltas after batch position `at`: the rest of its payload and the
/// payloads after it, with the batch's key chains if it has them.
struct Following<'a> {
    at: usize,
    ahead: &'a [TupleDelta],
    later: &'a [Vec<TupleDelta>],
    chains: Option<&'a KeyChains>,
    /// Deltas compared against a deletion's key so far.
    comparisons: &'a Cell<usize>,
}

impl<'a> Following<'a> {
    /// The deltas that may be the next under the key of the delta at `at`,
    /// nearest first, with their batch positions, each counted as a
    /// comparison: those its chain leads to, or without chains all of them.
    fn candidates(self) -> impl Iterator<Item = (usize, &'a TupleDelta)> {
        let Following {
            at,
            ahead,
            later,
            chains,
            comparisons,
        } = self;
        let scanned = chains
            .is_none()
            .then(|| (at + 1..).zip(ahead.iter().chain(later.iter().flatten())));
        let chained = chains.map(|chains| {
            let step = |&position: &usize| chains.next[position].map(|next| next as usize);
            std::iter::successors(step(&at), step).map(move |position| {
                let delta = if position <= at + ahead.len() {
                    &ahead[position - at - 1]
                } else {
                    let payload = chains.starts.partition_point(|&start| start <= position) - 1;
                    let offset = chains.starts.len() - later.len();
                    &later[payload - offset][position - chains.starts[payload]]
                };
                (position, delta)
            })
        });
        let candidates = scanned.into_iter().flatten();
        let candidates = candidates.chain(chained.into_iter().flatten());
        candidates.inspect(|_| comparisons.set(comparisons.get() + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationSchema;

    fn row(key: i64, value: i64) -> Tuple {
        Tuple::new(vec![Value::Int(key), Value::Int(value)])
    }

    /// A site storing `r(k, 0)` for every `k < n`, `r` keyed on its first
    /// field.
    fn storing(n: i64) -> LocalFixpoint {
        let mut store = Store::new();
        store.ensure(RelationSchema::new("r").with_keys(vec![0]));
        let mut fixpoint = LocalFixpoint::new(store, Arc::default(), Vec::new(), None, Vec::new())
            .expect("no strands");
        let mut facts = (0..n).map(|k| TupleDelta::insert("r", row(k, 0))).collect();
        fixpoint.ingest_batch(std::slice::from_mut(&mut facts), |_, _| {});
        fixpoint
    }

    /// Ingest `batch` as two payloads, chained from `chained_batch` deltas;
    /// the key comparisons it cost.
    fn comparisons(
        fixpoint: &mut LocalFixpoint,
        mut batch: Vec<TupleDelta>,
        chained_batch: usize,
    ) -> usize {
        let second = batch.split_off(batch.len() / 2);
        fixpoint.ingest_netted(&mut [batch, second], |_, _| {}, chained_batch)
    }

    /// n deletions of stored tuples that no insertion re-asserts: a scan of
    /// the rest of the batch per deletion compares n²/2 deltas; the key
    /// chains of a wide batch compare none, and one per deletion when a
    /// replacement under its key follows.
    #[test]
    fn searching_a_batch_for_re_assertions_is_linear() {
        for n in [128, 256, 512] {
            let unmatched = || {
                let deletions = (0..n).map(|k| TupleDelta::delete("r", row(k, 0)));
                deletions
                    .chain([TupleDelta::insert("r", row(n, 0))])
                    .collect()
            };
            let mut fixpoint = storing(n);
            assert_eq!(comparisons(&mut fixpoint, unmatched(), CHAINED_BATCH), 0);
            assert_eq!(fixpoint.store().tuples("r"), [row(n, 0)]);
            let scanned = comparisons(&mut storing(n), unmatched(), usize::MAX);
            assert_eq!(scanned, (n * (n + 1) / 2) as usize, "n = {n}");

            let mut fixpoint = storing(n);
            let deletions = (0..n).map(|k| TupleDelta::delete("r", row(k, 0)));
            let replacements = (0..n).map(|k| TupleDelta::insert("r", row(k, 1)));
            let batch = deletions.chain(replacements).collect();
            let chained = comparisons(&mut fixpoint, batch, CHAINED_BATCH);
            assert_eq!(chained, n as usize, "n = {n}");
            let replaced: Vec<_> = (0..n).map(|k| row(k, 1)).collect();
            assert_eq!(fixpoint.store().tuples("r"), replaced);
        }
    }

    /// Chained or scanned, a batch ends in the same store with the same
    /// counts: random batches of deletions and insertions over a few keys,
    /// stored or not, split into payloads at random.
    #[test]
    fn chains_find_what_a_scan_finds() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below) as i64
        };
        for _ in 0..200 {
            let deltas: Vec<TupleDelta> = (0..draw(40))
                .map(|_| {
                    let tuple = row(draw(6), draw(3));
                    if draw(2) == 0 {
                        TupleDelta::delete("r", tuple)
                    } else {
                        TupleDelta::insert("r", tuple)
                    }
                })
                .collect();
            let cut = draw(deltas.len() as u64 + 1) as usize;
            let ends = [0, usize::MAX].map(|chained_batch| {
                let mut fixpoint = storing(4);
                let (first, second) = deltas.split_at(cut);
                let mut payloads = [first.to_vec(), second.to_vec()];
                fixpoint.ingest_netted(&mut payloads, |_, _| {}, chained_batch);
                let relation = fixpoint.store().relation("r").unwrap();
                let rows: Vec<_> = relation.iter().cloned().collect();
                (rows, fixpoint.pending.clone(), fixpoint.queue.clone())
            });
            assert_eq!(ends[0], ends[1], "{deltas:?} cut at {cut}");
        }
    }

    /// A re-assertion found along a chain cancels with its deletion, also
    /// across payloads and past deltas under other keys.
    #[test]
    fn a_chain_finds_the_re_assertion_in_a_later_payload() {
        let mut fixpoint = storing(3);
        let seq = |f: &LocalFixpoint, k| {
            let stored = f.store().relation("r").unwrap().get(&[Value::Int(k)]);
            stored.map(|s| s.seq)
        };
        let before = seq(&fixpoint, 1);
        let batch = vec![
            TupleDelta::delete("r", row(1, 0)),
            TupleDelta::delete("r", row(0, 0)),
            TupleDelta::insert("r", row(2, 5)),
            TupleDelta::insert("r", row(1, 0)),
        ];
        assert_eq!(comparisons(&mut fixpoint, batch, 0), 1);
        // Left alone: the row kept its timestamp.
        assert_eq!(seq(&fixpoint, 1), before);
        assert_eq!(fixpoint.store().tuples("r"), [row(1, 0), row(2, 5)]);
    }
}

//! The local fixpoint driver: pipelined semi-naive evaluation over a delta
//! queue (Section 3.3, Algorithm 3) with deletions maintained
//! incrementally (Section 4.1).
//!
//! [`LocalFixpoint`] is the one implementation of that loop. The
//! centralized [`crate::Evaluator`] and `ndlog-core`'s per-node engine are
//! both wrappers over it; what differs per site — aggregate-selection
//! pruning, shipping derivations to other nodes, the tracked-relation log —
//! goes through the statically dispatched [`SiteHook`].
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
//! the tuple-at-a-time loop for every prefix size.
//!
//! The driver owns a site's *state* — store, views, queue, pending
//! deletions, tap, statistics — and none of the buffers evaluation runs
//! in: [`LocalFixpoint::run`] borrows an [`EvalBuffers`] from whoever
//! drives it (an executor lane, the centralized evaluator, the engine's
//! inject path; see [`crate::batch`]) and hands it back holding capacity
//! only, so a process hosting hundreds of sites keeps one set of
//! high-water-mark buffers per lane, not per site.

use crate::aggview::AggregateView;
use crate::batch::{BatchTrigger, EvalBuffers};
use crate::dred;
use crate::expr::EvalError;
use crate::store::{ApplyEffect, Change, Store};
use crate::strand::{CompiledStrand, JoinStats};
use crate::subplan::ProbeCache;
use crate::tap::DeltaTap;
use crate::tuple::{Sign, TupleDelta};
use ndlog_net::NodeAddr;
use std::collections::VecDeque;
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

/// Statistics of an evaluation run.
///
/// One counting rule for every site: `iterations`, `tuples_processed` and
/// the derivation counters are counted when work is *consumed* — once per
/// trigger taken off the queue (per round instead, for `iterations` under
/// SN/BSN) and once per tuple a DRed pass removes — never when a delta is
/// enqueued, so a trigger that a crash wipes from the queue is not counted
/// and one that a refresh re-queues is counted again.
///
/// The four join counters are counted when a join *runs*, which includes
/// the look-ahead firings a removal then discarded (see the module docs):
/// they measure work done, not work used. The excess is bounded — a
/// look-ahead prefix is at most twice the triggers the loop last consumed
/// without interruption — and deterministic for a given input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of iterations (SN/BSN) or processed tuples (PSN); tuples
    /// removed by DRed deletion passes count here too.
    pub iterations: usize,
    /// Derivations produced: every head tuple a consumed trigger's strands
    /// derived (shipped to another node or ingested locally), plus the
    /// re-derivation and group-rebuild insertions of DRed passes.
    pub derivations: usize,
    /// Insertions whose tuple was already stored (the duplicate
    /// inferences that Theorem 2 is about minimizing).
    pub redundant_derivations: usize,
    /// Total deltas processed: consumed triggers plus DRed removals.
    pub tuples_processed: usize,
    /// Joins answered by a secondary-index probe, counted per binding
    /// environment (one per trigger per atom), however the triggers were
    /// batched.
    pub logical_probes: usize,
    /// Index bucket lookups actually executed. Key-grouped batch probing
    /// answers every same-key trigger of a batch with one lookup, and the
    /// cross-rule cache every same-key stage of a round, so this is
    /// `≤ logical_probes`; the two are equal only where nothing was shared.
    pub distinct_probes: usize,
    /// Joins that fell back to scanning a relation.
    pub scans: usize,
    /// Stored tuples examined across all joins — the computation-overhead
    /// counterpart of the paper's communication metrics. With probe stages
    /// this grows with the number of matches, not with relation sizes.
    pub tuples_examined: usize,
}

impl EvalStats {
    /// Fold join-level counters into the run statistics.
    pub fn absorb_joins(&mut self, joins: JoinStats) {
        self.logical_probes += joins.logical_probes;
        self.distinct_probes += joins.distinct_probes;
        self.scans += joins.scans;
        self.tuples_examined += joins.tuples_examined;
    }
}

impl std::ops::AddAssign for EvalStats {
    fn add_assign(&mut self, other: EvalStats) {
        self.iterations += other.iterations;
        self.derivations += other.derivations;
        self.redundant_derivations += other.redundant_derivations;
        self.tuples_processed += other.tuples_processed;
        self.logical_probes += other.logical_probes;
        self.distinct_probes += other.distinct_probes;
        self.scans += other.scans;
        self.tuples_examined += other.tuples_examined;
    }
}

/// The counter-wise difference of two cumulative snapshots (e.g. "work
/// attributable to the update bursts" = after − before). Saturates at zero.
impl std::ops::Sub for EvalStats {
    type Output = EvalStats;
    fn sub(self, earlier: EvalStats) -> EvalStats {
        EvalStats {
            iterations: self.iterations.saturating_sub(earlier.iterations),
            derivations: self.derivations.saturating_sub(earlier.derivations),
            redundant_derivations: self
                .redundant_derivations
                .saturating_sub(earlier.redundant_derivations),
            tuples_processed: self
                .tuples_processed
                .saturating_sub(earlier.tuples_processed),
            logical_probes: self.logical_probes.saturating_sub(earlier.logical_probes),
            distinct_probes: self.distinct_probes.saturating_sub(earlier.distinct_probes),
            scans: self.scans.saturating_sub(earlier.scans),
            tuples_examined: self.tuples_examined.saturating_sub(earlier.tuples_examined),
        }
    }
}

/// What a site adds to the local loop. Implemented by exactly two types —
/// the centralized evaluator's no-op and `ndlog-core`'s node site — and
/// always a generic parameter, so the loop is monomorphized per site. Not
/// an extension point.
#[doc(hidden)]
pub trait SiteHook {
    /// The evaluating node; `None` when every relation is local (the
    /// centralized evaluator ignores location specifiers).
    fn site(&self) -> Option<NodeAddr>;
    /// Whether `delta` may reach the store (aggregate-selection pruning).
    fn admit(&mut self, store: &Store, views: &[AggregateView], delta: &TupleDelta) -> bool;
    /// Take a derivation whose location is the node `dest != site()`.
    fn ship(&mut self, dest: NodeAddr, delta: TupleDelta);
    /// A visibility transition: `delta`'s tuple entered or left the store.
    fn changed(&mut self, delta: &TupleDelta);
}

/// One site's evaluation state and the loop that drives it to a local
/// fixpoint.
pub struct LocalFixpoint {
    store: Store,
    strands: Arc<Vec<CompiledStrand>>,
    views: Vec<AggregateView>,
    /// Insert-only work queue: applied deltas whose strands have not fired.
    queue: VecDeque<(TupleDelta, u64)>,
    /// Tuples actually removed from the store, awaiting the next DRed
    /// over-delete/re-derive pass.
    pending_deletes: Vec<TupleDelta>,
    /// Live-query hook: records visibility transitions of subscribed
    /// relations (see [`crate::tap`]).
    tap: DeltaTap,
    /// Cumulative evaluation statistics.
    stats: EvalStats,
    /// Probe signatures shared by two or more strands
    /// ([`crate::subplan::shared_signatures`], computed once at plan
    /// time). Non-empty arms a per-round cross-rule [`ProbeCache`], so each
    /// distinct `(relation, cols, key)` lookup of a round executes once
    /// across every strand sharing it.
    shared_sigs: Vec<(String, Vec<usize>)>,
}

impl LocalFixpoint {
    /// A driver over `store` for the given strands and aggregate views.
    /// Builds every secondary index the strands' probe stages and the
    /// views' guard checks need, once, before any tuple arrives.
    pub fn new(
        mut store: Store,
        strands: Arc<Vec<CompiledStrand>>,
        views: Vec<AggregateView>,
    ) -> Self {
        store.declare_indexes(strands.iter());
        for view in &views {
            for (relation, cols) in view.index_requirements() {
                store.declare_index(&relation, &cols);
            }
        }
        let shared_sigs = crate::subplan::shared_signatures(&strands);
        LocalFixpoint {
            store,
            strands,
            views,
            queue: VecDeque::new(),
            pending_deletes: Vec::new(),
            tap: DeltaTap::new(),
            stats: EvalStats::default(),
            shared_sigs,
        }
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
    pub fn views(&self) -> &[AggregateView] {
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

    /// Whether unprocessed work is queued.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty() || !self.pending_deletes.is_empty()
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
        self.pending_deletes.extend(deltas);
    }

    /// Queue an already-stored tuple for (re-)firing with its stored
    /// timestamp as the visibility limit.
    pub fn enqueue(&mut self, delta: TupleDelta, seq: u64) {
        self.queue.push_back((delta, seq));
    }

    /// Lose all volatile state — stored tuples, aggregate-view groups, the
    /// queue and pending deletions. Sequence numbers and the logical clock
    /// survive.
    pub fn clear(&mut self) {
        self.store.clear_tuples();
        self.queue.clear();
        self.pending_deletes.clear();
        for view in &mut self.views {
            view.reset();
        }
    }

    /// Apply a delta to the store, feed aggregate views, and enqueue
    /// whatever actually changed. Actual removals (deletions whose count
    /// reached zero and the old halves of replacements) become pending
    /// deletions instead; the views are *not* fed deletions — the DRed
    /// pass rebuilds the affected groups from the store (group pinning).
    /// The delta is moved to where it ends up, never copied.
    pub fn ingest<H: SiteHook>(&mut self, delta: TupleDelta, hook: &mut H) {
        if !hook.admit(&self.store, &self.views, &delta) {
            return;
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
            Change::Removed => self.pending_deletes.push(delta),
            Change::Inserted => self.inserted(delta, seq, hook),
            Change::Replaced(old) => {
                let old = TupleDelta::delete(delta.relation.clone(), old);
                self.pending_deletes.push(old);
                self.inserted(delta, seq, hook);
            }
        }
    }

    /// A 0 → >0 visibility transition: `delta`'s tuple entered the store
    /// with timestamp `seq`.
    fn inserted<H: SiteHook>(&mut self, delta: TupleDelta, seq: u64, hook: &mut H) {
        self.tap.record(&delta);
        hook.changed(&delta);
        // Aggregate views react to every real insertion of their source;
        // their outputs are local (aggregate rules are local rules) and are
        // ingested recursively.
        let mut view_outputs = Vec::new();
        for view in &mut self.views {
            view_outputs.extend(view.apply(&self.store, &delta.relation, &delta.tuple));
        }
        self.queue.push_back((delta, seq));
        for out in view_outputs {
            self.ingest(out, hook);
        }
    }

    /// A duplicate insertion of a view's source tuple keeps that group's
    /// aggregate derivable, so the group's current output tuple must have
    /// its soft-state expiry refreshed along with the source — the view
    /// itself emits nothing while the best is unchanged. Only outputs
    /// still present in the store are touched (a bare store insert here
    /// would bypass the tracking/queueing bookkeeping).
    fn refresh_view_outputs(&mut self, delta: &TupleDelta) {
        for view in &self.views {
            if view.source_relation() != delta.relation {
                continue;
            }
            let Some(best) = view.current_output_for(&delta.tuple) else {
                continue;
            };
            if self
                .store
                .relation(view.head_relation())
                .is_some_and(|r| r.contains(best))
            {
                let refresh = TupleDelta::insert(view.head_relation().clone(), best.clone());
                self.store.apply(&refresh);
            }
        }
    }

    /// Run queued work to a local fixpoint. Pending removals are drained
    /// first (and whenever an insertion cascade causes further removals),
    /// so every retraction is handled by a DRed pass before dependent
    /// insertions fire. Evaluation happens in `buffers`, which the caller
    /// lends for the run and gets back empty, whatever the outcome.
    pub fn run<H: SiteHook>(
        &mut self,
        strategy: Strategy,
        hook: &mut H,
        buffers: &mut EvalBuffers,
    ) -> Result<(), EvalError> {
        let pipelined = strategy == Strategy::Pipelined;
        // The current round and how much of it has been consumed.
        let mut round: Vec<(TupleDelta, u64)> = Vec::new();
        let mut done = 0;
        // How many triggers fire ahead of consumption (see the module docs).
        let mut ahead = usize::MAX;
        loop {
            self.drain_deletions(hook, buffers)?;
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
                    match (hook.site(), derivation.location) {
                        (Some(me), Some(dest)) if dest != me => hook.ship(dest, derivation.delta),
                        _ => self.ingest(derivation.delta, hook),
                    }
                }
                // A removal among the deltas just ingested (a primary-key
                // replacement) invalidates the remaining precomputed
                // firings: they re-fire against the post-DRed store,
                // exactly where the tuple-at-a-time loop would have fired
                // them.
                if !self.pending_deletes.is_empty() {
                    break;
                }
            }
            // What the interruption left unconsumed is stale.
            buffers.per_trigger[consumed..fired]
                .iter_mut()
                .for_each(Vec::clear);
            done += consumed;
            ahead = if self.pending_deletes.is_empty() {
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
    /// Triggers whose tuple is no longer stored — over-deleted or replaced
    /// since being queued — yield nothing: the consequences are moot, and
    /// a re-derived tuple fires through its own queued insert.
    ///
    /// All of `round` fires against one store snapshot through the batch
    /// plans.
    fn fire_batch_round(
        &mut self,
        round: &[(TupleDelta, u64)],
        buffers: &mut EvalBuffers,
    ) -> Result<usize, EvalError> {
        let mut joins = JoinStats::default();
        let forward = self.strands.iter().filter(|s| !s.is_rederivation());
        // Whether a trigger is still stored cannot change mid-round: any
        // removal interrupts the round for a DRed pass before the next
        // trigger is consumed.
        buffers.live.clear();
        let stored = round.iter().map(|(delta, _)| self.is_stored(delta));
        buffers.live.extend(stored);
        // Arm the cross-rule probe cache for this round when the plan found
        // shared signatures: the store is frozen until every strand of the
        // round has fired (ingestion happens after the round), so cached
        // candidate sets stay valid for exactly the cache's lifetime.
        let cache = (!self.shared_sigs.is_empty()).then(|| ProbeCache::new(&self.shared_sigs));
        let triggers = round.iter().map(|(delta, seq)| BatchTrigger {
            delta,
            seq_limit: *seq,
        });
        buffers.fire_round(&self.store, forward, triggers, &mut joins, cache)?;
        self.stats.absorb_joins(joins);
        Ok(round.len())
    }

    fn is_stored(&self, delta: &TupleDelta) -> bool {
        debug_assert_eq!(delta.sign, Sign::Insert);
        self.store
            .relation(&delta.relation)
            .is_some_and(|r| r.contains(&delta.tuple))
    }

    /// Run DRed passes until no removal is pending: over-delete the local
    /// downstream closure of the pending seeds (shipping deletion
    /// derivations headed at other nodes), rebuild the pinned aggregate
    /// groups, and ingest the re-derivation insertions (which may replace
    /// keyed tuples and thereby queue further seeds — hence the loop).
    /// Remote over-deletions may over-approximate; the re-derive cascade
    /// re-ships the insertions that still hold, so the net effect at every
    /// receiver is exact.
    fn drain_deletions<H: SiteHook>(
        &mut self,
        hook: &mut H,
        buffers: &mut EvalBuffers,
    ) -> Result<(), EvalError> {
        while !self.pending_deletes.is_empty() {
            let seeds = std::mem::take(&mut self.pending_deletes);
            let mut joins = JoinStats::default();
            let mut marking = dred::over_delete(
                &mut self.store,
                &self.strands,
                &self.views,
                seeds,
                hook.site(),
                &mut joins,
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
                hook.changed(removal);
            }
            for (dest, delta) in std::mem::take(&mut marking.remote) {
                hook.ship(dest, delta);
            }
            // Rebuild every pinned group from the post-removal store; the
            // new aggregate outputs cascade like ordinary insertions.
            let mut inserts: Vec<TupleDelta> = Vec::new();
            for (view_idx, key) in &marking.dirty_groups {
                inserts.extend(self.views[*view_idx].rebuild_group(&self.store, key, &mut joins));
            }
            // One-step re-derivation of the over-deleted tuples; survivors
            // restored further downstream come from the insert cascade.
            inserts.extend(dred::rederive(
                &self.store,
                &self.strands,
                marking.rederive_candidates(),
                &mut joins,
                buffers,
            )?);
            self.stats.derivations += inserts.len();
            self.stats.absorb_joins(joins);
            for delta in inserts {
                self.ingest(delta, hook);
            }
        }
        Ok(())
    }
}

//! The epoch executor: concurrent per-node evaluation with a deterministic
//! merge.
//!
//! # Execution model
//!
//! One epoch = one batch of simulator events drained by
//! [`ndlog_net::Simulator::drain_epoch`]: all events sharing the next
//! timestamp, or within a conservative lookahead window no larger than the
//! minimum link propagation delay. Within such a window no event can
//! causally affect a *different* node's events (a message sent inside the
//! window arrives after it), so the executor may evaluate each node's
//! events concurrently as long as every node sees *its own* events in
//! `(time, seq)` order.
//!
//! [`EpochExecutor::run_epoch`] does exactly that:
//!
//! 1. group the epoch's [`NodeTask`]s by destination node, preserving
//!    order;
//! 2. run `min(threads, active nodes)` lanes — lane 0 on the calling
//!    thread, the others as [`std::thread::scope`] threads of this epoch —
//!    that pull one item per active node from a shared iterator until it
//!    is dry, so a lane stuck on one expensive node never idles the
//!    others. Node state is partitioned, so any assignment of nodes to
//!    lanes is correct; it only affects balance. One lane runs inline,
//!    with no scope and no spawn;
//! 3. each lane runs the sequential engine's per-event recipe for its
//!    nodes — `receive` → `set_time` → `expire_soft_state` →
//!    `process` for deliveries, `flush` for flush timers — recording one
//!    [`EpochOutcome`] per task *without* touching any shared mutable
//!    state. Every node a lane evaluates is processed in that lane's own
//!    [`EvalBuffers`], which the executor keeps for its lifetime and lends
//!    each lane as a plain `&mut`, so no lock guards them: the
//!    buffers' high-water mark is paid once per lane, not once per node,
//!    and since they carry capacity only, never state, which lane ran
//!    which node stays unobservable. Under **delivery coalescing**, the
//!    only schedule, a run of consecutive deliveries to the same node is
//!    merged into one receive batch: the node is handed every payload of
//!    the run at once ([`NodeEngine::receive_batch`]), then one
//!    `set_time`/`expire_soft_state`/`process` runs at the run's *last*
//!    `(time, seq)`, handing `fire_batch` one wide delta batch instead of
//!    many single-row rounds (the whole point of the key-grouped probe
//!    path). The batch is ingested as its net change: a tuple the node
//!    stores that one message of the run deletes and a later one
//!    re-inserts unchanged — a re-costing whose deletion and re-insertion
//!    travel apart — is left alone instead of being removed and
//!    cascaded. The rule reads the receiver's store, so it is the
//!    receiver's to apply: a sender cannot know whether the deletion
//!    removes anything there, and when it does not, the re-insertion is a
//!    fresh announcement its aggregate selections must judge. Flush
//!    timers break a run, so flush ordering relative to deliveries is
//!    preserved;
//! 4. **pre-serialization**: the lane also renders each outcome's effects
//!    into their replay-ready form — the tracked-relation changes the node
//!    drained from its tap become timestamped [`ResultRecord`]s, the
//!    derivations it drained from the lane's shipped list become outbound
//!    batches, and each outbound batch's wire size is
//!    computed up front ([`OutboundBatch`]) — so the serial replay tail
//!    only appends records and pushes pre-sized messages;
//! 5. merge: concatenate the lanes' outcome buffers and sort by the unique
//!    `(time, seq)` key of the triggering event.
//!
//! # Determinism contract
//!
//! The merged outcome sequence is exactly the sequence of
//! (result-recording, send, timer-scheduling) effects the sequential event
//! loop produces, because (a) per node, events are evaluated in the same
//! order with the same store clock, (b) across nodes, effects are replayed
//! in the same global order the sequential loop would have emitted them,
//! and (c) the pre-serialized forms (records, wire sizes) are pure
//! functions of each outcome, computed by the same code the sequential
//! loop uses. Which lane evaluates which node is timing-dependent and
//! deliberately irrelevant. The driver replays the merged outcomes into
//! the simulator in order, advancing simulated time to each outcome's
//! timestamp first, so message sequence numbers, FIFO link clocks, traffic
//! statistics and the result log are all byte-for-byte identical to a
//! single-threaded run — `threads = N` is observationally equivalent to
//! `threads = 1`.
//!
//! Delivery coalescing preserves this contract across thread counts: the
//! merge structure (which consecutive deliveries fuse into one batch) is a
//! pure function of the epoch's per-node task sequences, which are fixed
//! before any lane runs — it never depends on lane assignment or timing.
//! Coalescing *is* a different evaluation schedule than per-event delivery
//! would be (a merged batch processes at its last member's timestamp, so
//! sends merge and traffic traces differ), but not a different fixpoint:
//! the `coalescing` integration test checks the result relations against
//! Dijkstra and against the centralized SN, BSN and PSN fixpoints, at 1, 2
//! and 4 threads.
//!
//! On an evaluation error the guarantee is narrower (see [`EpochResult`]):
//! the error surfaced is the one the sequential loop would have hit first,
//! and every effect strictly preceding the failing event is still replayed;
//! state beyond that point is unspecified in both modes.

use crate::engine::ResultRecord;
use crate::node::NodeEngine;
use crate::sharing;
use ndlog_net::sim::SimTime;
use ndlog_net::NodeAddr;
use ndlog_runtime::{EvalBuffers, EvalError, TupleDelta};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::vec;

/// What an epoch event asks a node to do.
#[derive(Debug)]
pub enum NodeAction {
    /// A message delivery: ingest the payload and process to a local
    /// fixpoint.
    Deliver(Vec<TupleDelta>),
    /// A flush timer: release the node's held outbound tuples.
    Flush,
    /// A crash: the node loses all volatile state (store tuples, queues,
    /// aggregate views) and retracts its tracked results.
    Crash,
    /// A soft-state refresh tick (also the rejoin path): re-announce the
    /// node's seed facts, re-fire its stored state, and process to a local
    /// fixpoint — re-sending current remote conclusions so lost messages
    /// are repaired and receiver-side expiry clocks move forward.
    Refresh(Vec<TupleDelta>),
}

/// One epoch event routed to a node, keyed by the simulator's `(time, seq)`
/// so its effects can be merged back into the sequential order.
#[derive(Debug)]
pub struct NodeTask {
    /// Simulation time of the event.
    pub time: SimTime,
    /// The simulator queue sequence number (unique tie-breaker).
    pub seq: u64,
    /// The node the event targets.
    pub node: NodeAddr,
    /// What to do at the node.
    pub action: NodeAction,
}

/// One outbound message batch with its payload wire size pre-computed
/// (sharing-combined or plain, matching the engine's sharing mode), so the
/// serial replay tail hands the simulator a ready-to-send message instead
/// of walking every tuple again.
#[derive(Debug, Clone, PartialEq)]
pub struct OutboundBatch {
    /// Destination node.
    pub dest: NodeAddr,
    /// The tuple deltas of the batch.
    pub deltas: Vec<TupleDelta>,
    /// Payload bytes as accounted on the wire (header excluded — the
    /// simulator adds it).
    pub payload_bytes: usize,
}

/// Render an outbound map into pre-sized batches in ascending destination
/// order — the order the sequential loop sends them in. The single wire-
/// size implementation shared by the sequential path and the epoch lanes,
/// so the two cannot drift.
pub fn outbound_batches(
    sharing_enabled: bool,
    outbound: BTreeMap<NodeAddr, Vec<TupleDelta>>,
) -> Vec<OutboundBatch> {
    outbound
        .into_iter()
        .map(|(dest, deltas)| {
            let payload_bytes = if sharing_enabled {
                sharing::combined_wire_size(&deltas)
            } else {
                sharing::plain_wire_size(&deltas)
            };
            OutboundBatch {
                dest,
                deltas,
                payload_bytes,
            }
        })
        .collect()
}

/// Timestamp tracked-relation changes into result-log records. Shared by
/// the sequential path and the epoch lanes.
pub fn result_records(
    node: NodeAddr,
    time: SimTime,
    changes: Vec<TupleDelta>,
) -> Vec<ResultRecord> {
    changes
        .into_iter()
        .map(|c| ResultRecord {
            time,
            node,
            relation: c.relation,
            tuple: c.tuple,
            sign: c.sign,
        })
        .collect()
}

/// The externally visible effects of one [`NodeTask`], pre-serialized and
/// ready to replay into the simulator in merged `(time, seq)` order.
#[derive(Debug)]
pub struct EpochOutcome {
    /// Simulation time of the triggering event.
    pub time: SimTime,
    /// Sequence number of the triggering event.
    pub seq: u64,
    /// The node the event ran at.
    pub node: NodeAddr,
    /// Timestamped result-log records for tracked-relation changes.
    pub records: Vec<ResultRecord>,
    /// Pre-sized outbound batches in ascending destination order — the
    /// order the sequential loop sends them in.
    pub sends: Vec<OutboundBatch>,
    /// Whether the node buffered outbound tuples and wants a flush timer.
    pub request_flush: bool,
    /// Whether this outcome came from a flush timer (the driver clears its
    /// pending-flush flag before replaying the sends).
    pub was_flush: bool,
}

/// An evaluation error tagged with the `(time, seq)` of the event that
/// raised it, so concurrent failures resolve to the one the sequential
/// loop would have hit first.
struct FailedAt {
    time: SimTime,
    seq: u64,
    error: EvalError,
}

/// One node step: run `node`'s queued work to its local fixpoint in the
/// caller's buffers and pre-serialize what it produced as the outcome of
/// the event at `(time, seq)`. The single implementation behind every
/// delivery and refresh an epoch lane evaluates and behind the engine's
/// sequential inject path, so the three cannot drift apart. The caller has
/// already fed the node (`receive`) and advanced its clock, in the order
/// its kind of event prescribes.
pub(crate) fn node_step(
    node: &mut NodeEngine,
    time: SimTime,
    seq: u64,
    sharing_enabled: bool,
    buffers: &mut EvalBuffers,
) -> Result<EpochOutcome, EvalError> {
    let output = node.process_with(buffers)?;
    Ok(EpochOutcome {
        time,
        seq,
        node: node.addr(),
        records: result_records(node.addr(), time, output.changes),
        sends: outbound_batches(sharing_enabled, output.outbound),
        request_flush: output.request_flush,
        was_flush: false,
    })
}

/// What one epoch produced: the merged outcomes to replay, and the first
/// evaluation error (by event order) if any task failed.
///
/// On error, `outcomes` still contains every outcome whose `(time, seq)`
/// strictly precedes the failing event — the driver replays them before
/// surfacing the error, so the result log, message trace and statistics up
/// to the failure point match the sequential engine's. (Node-local store
/// mutations from events *concurrent with* the failure may have happened
/// anyway; like the sequential engine's state after a mid-run error, the
/// post-error state is not specified beyond that.)
pub struct EpochResult {
    /// Replayable outcomes in `(time, seq)` order (truncated to the events
    /// before the error when `error` is set).
    pub outcomes: Vec<EpochOutcome>,
    /// The earliest evaluation error, if any task failed.
    pub error: Option<EvalError>,
    /// Number of message deliveries the epoch ingested.
    pub deliveries: u64,
    /// Number of receive batches those deliveries were processed in
    /// (`deliveries / receive_batches` is the mean receive-batch width the
    /// coalescer achieved).
    pub receive_batches: u64,
}

/// One active node's share of an epoch: its engine and its tasks in
/// `(time, seq)` order.
type WorkItem<'n> = (&'n mut NodeEngine, Vec<NodeTask>);

/// The parallel epoch executor: the lanes' evaluation buffers plus the
/// dispatch/merge logic. It holds no threads; an epoch with more than one
/// lane spawns them for its own duration.
pub struct EpochExecutor {
    /// One set of evaluation buffers per lane, reused across every node
    /// and epoch the lane drains; lane 0 runs on the caller.
    lane_buffers: Vec<EvalBuffers>,
    /// Message-sharing mode of the owning engine, needed to pre-compute
    /// outbound wire sizes in the lanes.
    sharing_enabled: bool,
}

impl EpochExecutor {
    /// An executor with up to `threads` lanes per epoch: the calling
    /// thread is lane 0 and scoped threads supply the rest. `threads <= 1`
    /// runs every epoch inline on the caller, through the same drain and
    /// merge. `sharing_enabled` selects the wire-size accounting used to
    /// pre-serialize outbound batches.
    pub fn new(threads: usize, sharing_enabled: bool) -> EpochExecutor {
        EpochExecutor {
            lane_buffers: (0..threads.max(1))
                .map(|_| EvalBuffers::default())
                .collect(),
            sharing_enabled,
        }
    }

    /// The configured lane count.
    pub fn threads(&self) -> usize {
        self.lane_buffers.len()
    }

    /// Lane 0's buffers, which the engine's inject path borrows between
    /// epochs: lane 0 runs on the caller, so the two never overlap.
    pub(crate) fn caller_buffers(&mut self) -> &mut EvalBuffers {
        &mut self.lane_buffers[0]
    }

    /// Evaluate one epoch of tasks against the nodes, concurrently, and
    /// return the merged outcomes in `(time, seq)` order (see the module
    /// docs for the determinism contract and [`EpochResult`] for the
    /// error-path guarantees).
    pub fn run_epoch(
        &mut self,
        nodes: &mut BTreeMap<NodeAddr, NodeEngine>,
        tasks: Vec<NodeTask>,
    ) -> EpochResult {
        if tasks.is_empty() {
            return EpochResult {
                outcomes: Vec::new(),
                error: None,
                deliveries: 0,
                receive_batches: 0,
            };
        }
        // Group per node, preserving (time, seq) order within each node.
        let mut by_node: BTreeMap<NodeAddr, Vec<NodeTask>> = BTreeMap::new();
        for task in tasks {
            by_node.entry(task.node).or_default().push(task);
        }

        // One work item per active node, claimed dynamically by the lanes.
        let mut items: Vec<WorkItem> = Vec::with_capacity(by_node.len());
        for (addr, engine) in nodes.iter_mut() {
            if let Some(tasks) = by_node.remove(addr) {
                items.push((engine, tasks));
            }
        }
        // Fail identically to the sequential loop's "delivery to known
        // node" panic instead of silently dropping the event.
        assert!(
            by_node.is_empty(),
            "epoch event for unknown node {:?}",
            by_node.keys().next()
        );
        let lanes = self.lane_buffers.len().min(items.len());
        let queue = Mutex::new(items.into_iter());
        let sharing = self.sharing_enabled;
        let mut buffers = self.lane_buffers.iter_mut();
        let caller = buffers.next().expect("an executor has at least one lane");
        let results = if lanes == 1 {
            vec![drain_lane(&queue, sharing, caller)]
        } else {
            std::thread::scope(|scope| {
                let queue = &queue;
                let spawned: Vec<_> = buffers
                    .take(lanes - 1)
                    .map(|buffers| scope.spawn(move || drain_lane(queue, sharing, buffers)))
                    .collect();
                let mut results = vec![drain_lane(queue, sharing, caller)];
                for lane in spawned {
                    results.push(lane.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
                }
                results
            })
        };

        // Deterministic merge: interleave all lanes' outcomes back into
        // global (time, seq) order. With failures, surface the earliest
        // error by event order — the one the sequential loop would have hit
        // first — and keep only the outcomes that precede it, so the driver
        // replays exactly the effects the sequential loop would have
        // applied before failing.
        let mut merged = LaneResult::default();
        for lane in results {
            merged.outcomes.extend(lane.outcomes);
            merged.deliveries += lane.deliveries;
            merged.receive_batches += lane.receive_batches;
            if let Some(failed) = lane.error {
                merged.fail(failed.time, failed.seq, failed.error);
            }
        }
        let LaneResult {
            mut outcomes,
            error,
            deliveries,
            receive_batches,
        } = merged;
        outcomes.sort_unstable_by_key(|o| (o.time, o.seq));
        if let Some(failed) = &error {
            outcomes.retain(|o| (o.time, o.seq) < (failed.time, failed.seq));
        }
        EpochResult {
            outcomes,
            error: error.map(|f| f.error),
            deliveries,
            receive_batches,
        }
    }
}

/// What one lane collected: outcomes, the earliest failure, and the
/// delivery/receive-batch counters feeding the engine's batch-width
/// statistics. Counters are kept out of [`crate::node::NodeEngine`]'s
/// `EvalStats` on purpose — they describe the *schedule*, not the
/// evaluation, and must not perturb the bitwise-identity oracle.
#[derive(Default)]
struct LaneResult {
    outcomes: Vec<EpochOutcome>,
    error: Option<FailedAt>,
    deliveries: u64,
    receive_batches: u64,
}

impl LaneResult {
    /// Record the failure of the event at `(time, seq)`, keeping the
    /// earliest by event order — the one the sequential loop would have
    /// hit first.
    fn fail(&mut self, time: SimTime, seq: u64, error: EvalError) {
        let earlier = |kept: &FailedAt| (kept.time, kept.seq) <= (time, seq);
        if !self.error.as_ref().is_some_and(earlier) {
            self.error = Some(FailedAt { time, seq, error });
        }
    }
}

/// One lane's share of an epoch: pull per-node work items from the shared
/// iterator until it is dry, mirroring the sequential engine's per-event
/// recipe exactly and pre-serializing each outcome's effects. A run of
/// consecutive deliveries to the node is handed to it as one receive batch
/// and processed once at the run's last `(time, seq)` — the
/// merge structure depends only on the node's task sequence, never on lane
/// assignment, so it is identical at every thread count. A task error
/// stops that *node* (its remaining tasks are skipped, as the sequential
/// loop would never reach them) but not the lane: other nodes still run,
/// and the earliest failure by `(time, seq)` is reported alongside the
/// collected outcomes.
fn drain_lane(
    queue: &Mutex<vec::IntoIter<WorkItem>>,
    sharing_enabled: bool,
    buffers: &mut EvalBuffers,
) -> LaneResult {
    let mut lane = LaneResult::default();
    // The payloads of the current receive batch, reused across batches.
    let mut run: Vec<Vec<TupleDelta>> = Vec::new();
    // The lock is held for the pop alone, which cannot panic, so it is
    // never poisoned.
    let pop = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    'nodes: while let Some((node, tasks)) = pop() {
        let mut tasks = tasks.into_iter().peekable();
        while let Some(task) = tasks.next() {
            debug_assert_eq!(task.node, node.addr());
            match task.action {
                NodeAction::Deliver(payload) => {
                    run.push(payload);
                    let (mut time, mut seq) = (task.time, task.seq);
                    lane.deliveries += 1;
                    lane.receive_batches += 1;
                    // Extend the receive batch over the consecutive
                    // deliveries that follow; a flush timer ends it.
                    while matches!(
                        tasks.peek(),
                        Some(NodeTask {
                            action: NodeAction::Deliver(_),
                            ..
                        })
                    ) {
                        let next = tasks.next().expect("peeked task exists");
                        let NodeAction::Deliver(payload) = next.action else {
                            unreachable!("peek guaranteed a delivery");
                        };
                        run.push(payload);
                        (time, seq) = (next.time, next.seq);
                        lane.deliveries += 1;
                    }
                    node.receive_batch(&mut run, buffers);
                    run.clear();
                    node.set_time(time);
                    node.expire_soft_state(time);
                    match node_step(node, time, seq, sharing_enabled, buffers) {
                        Ok(outcome) => lane.outcomes.push(outcome),
                        Err(error) => {
                            lane.fail(time, seq, error);
                            continue 'nodes;
                        }
                    }
                }
                NodeAction::Flush => {
                    let flushed = node.flush();
                    lane.outcomes.push(EpochOutcome {
                        time: task.time,
                        seq: task.seq,
                        node: task.node,
                        records: Vec::new(),
                        sends: outbound_batches(sharing_enabled, flushed),
                        request_flush: false,
                        was_flush: true,
                    });
                }
                NodeAction::Crash => {
                    let changes = node.crash_reset();
                    lane.outcomes.push(EpochOutcome {
                        time: task.time,
                        seq: task.seq,
                        node: task.node,
                        records: result_records(task.node, task.time, changes),
                        sends: Vec::new(),
                        request_flush: false,
                        was_flush: false,
                    });
                }
                NodeAction::Refresh(seeds) => {
                    node.set_time(task.time);
                    node.expire_soft_state(task.time);
                    run.push(seeds);
                    node.receive_batch(&mut run, buffers);
                    run.clear();
                    node.refresh_refire();
                    match node_step(node, task.time, task.seq, sharing_enabled, buffers) {
                        Ok(outcome) => lane.outcomes.push(outcome),
                        Err(error) => {
                            lane.fail(task.time, task.seq, error);
                            continue 'nodes;
                        }
                    }
                }
            }
        }
    }
    lane
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use crate::plan::plan;
    use ndlog_lang::{programs, Value};
    use ndlog_runtime::Tuple;
    use std::sync::Arc;

    fn make_nodes(count: u32) -> BTreeMap<NodeAddr, NodeEngine> {
        let plan = plan(&programs::shortest_path("")).unwrap();
        let strands = Arc::new(plan.strands.clone());
        (0..count)
            .map(|i| {
                let engine = NodeEngine::new(
                    NodeAddr(i),
                    std::slice::from_ref(&plan),
                    Arc::clone(&strands),
                    NodeConfig::default(),
                )
                .unwrap();
                (NodeAddr(i), engine)
            })
            .collect()
    }

    fn link(s: u32, d: u32, c: f64) -> TupleDelta {
        TupleDelta::insert(
            "link",
            Tuple::new(vec![Value::addr(s), Value::addr(d), Value::Float(c)]),
        )
    }

    fn deliveries(count: u32) -> Vec<NodeTask> {
        (0..count)
            .map(|i| NodeTask {
                time: 1000 + (i as u64 % 3),
                seq: i as u64,
                node: NodeAddr(i),
                action: NodeAction::Deliver(vec![link(i, (i + 1) % count, 1.0)]),
            })
            .collect()
    }

    #[test]
    fn outcomes_are_merged_in_time_seq_order() {
        for threads in [1, 2, 4] {
            let mut executor = EpochExecutor::new(threads, false);
            let mut nodes = make_nodes(8);
            let result = executor.run_epoch(&mut nodes, deliveries(8));
            assert!(result.error.is_none());
            let outcomes = result.outcomes;
            assert_eq!(outcomes.len(), 8);
            assert!(
                outcomes
                    .windows(2)
                    .all(|w| (w[0].time, w[0].seq) < (w[1].time, w[1].seq)),
                "merge must restore the global (time, seq) order"
            );
            // Every delivery derived a one-hop path locally and a transfer
            // tuple for the neighbor.
            for (addr, node) in &nodes {
                assert_eq!(node.store().count("path"), 1, "node {addr}");
            }
        }
    }

    /// What an epoch is observed by: each outcome's effects, each node's
    /// `path` tuples and `EvalStats`, and the delivery counters.
    type Observed = (
        Vec<(
            SimTime,
            u64,
            NodeAddr,
            Vec<ResultRecord>,
            Vec<OutboundBatch>,
            bool,
        )>,
        Vec<(Vec<Tuple>, ndlog_runtime::EvalStats)>,
        (u64, u64),
    );

    /// Run one epoch of `tasks` over `count` fresh nodes at `threads`.
    fn observe_epoch(threads: usize, count: u32, tasks: Vec<NodeTask>) -> Observed {
        let mut nodes = make_nodes(count);
        let result = EpochExecutor::new(threads, false).run_epoch(&mut nodes, tasks);
        assert!(result.error.is_none());
        let effects = result.outcomes.into_iter();
        let effects = effects.map(|o| (o.time, o.seq, o.node, o.records, o.sends, o.request_flush));
        let stores = nodes
            .values()
            .map(|n| (n.store().tuples("path"), n.eval_stats()));
        let counters = (result.deliveries, result.receive_batches);
        (effects.collect(), stores.collect(), counters)
    }

    #[test]
    fn thread_count_does_not_change_node_state_or_outcomes() {
        let baseline = observe_epoch(1, 6, deliveries(6));
        assert_eq!(observe_epoch(2, 6, deliveries(6)), baseline);
        assert_eq!(observe_epoch(4, 6, deliveries(6)), baseline);
    }

    #[test]
    fn one_active_node_at_four_threads_runs_inline() {
        // One work item makes one lane: the caller drains it alone.
        let baseline = observe_epoch(1, 4, same_node_deliveries());
        assert_eq!(observe_epoch(4, 4, same_node_deliveries()), baseline);
        assert_eq!(baseline.2, (3, 1), "three deliveries, one receive batch");
    }

    #[test]
    fn fewer_active_nodes_than_threads_spawn_one_lane_per_node() {
        // Three of six nodes are active: three lanes at four threads.
        let baseline = observe_epoch(1, 6, deliveries(3));
        assert_eq!(observe_epoch(4, 6, deliveries(3)), baseline);
        assert_eq!(baseline.0.len(), 3);
    }

    #[test]
    fn one_lane_draining_two_nodes_equals_two_single_node_epochs() {
        // Node 0 gets a wide receive batch, node 1 a narrow one. With one
        // thread, one lane evaluates both back to back in the same
        // buffers; run apart, each node gets an executor — and buffers —
        // of its own. The buffers carry capacity only, so the two must
        // agree on everything: effects, stores, statistics.
        let tasks = |node: u32| {
            let fan_out = if node == 0 { 1..6 } else { 2..3 };
            let payload: Vec<TupleDelta> = fan_out.map(|d| link(node, d, 1.0)).collect();
            vec![NodeTask {
                time: 1000,
                seq: u64::from(node),
                node: NodeAddr(node),
                action: NodeAction::Deliver(payload),
            }]
        };
        let observe = |outcomes: &[EpochOutcome], nodes: &BTreeMap<NodeAddr, NodeEngine>| {
            let effects: Vec<_> = outcomes
                .iter()
                .map(|o| (o.seq, o.node, o.records.clone(), o.sends.clone()))
                .collect();
            let stores: Vec<_> = nodes
                .values()
                .map(|n| (n.store().tuples("path"), n.eval_stats()))
                .collect();
            (effects, stores)
        };

        let mut together = make_nodes(2);
        let both: Vec<NodeTask> = tasks(0).into_iter().chain(tasks(1)).collect();
        let result = EpochExecutor::new(1, false).run_epoch(&mut together, both);
        assert!(result.error.is_none());
        let (effects, stores) = observe(&result.outcomes, &together);

        let mut apart = make_nodes(2);
        let mut outcomes = Vec::new();
        for node in 0..2 {
            let result = EpochExecutor::new(1, false).run_epoch(&mut apart, tasks(node));
            assert!(result.error.is_none());
            outcomes.extend(result.outcomes);
        }
        assert_eq!((effects, stores), observe(&outcomes, &apart));
        assert_eq!(together[&NodeAddr(0)].store().count("path"), 5);
        assert_eq!(together[&NodeAddr(1)].store().count("path"), 1);
    }

    #[test]
    fn pre_sized_sends_match_the_wire_accounting() {
        let mut executor = EpochExecutor::new(2, false);
        let mut nodes = make_nodes(4);
        let result = executor.run_epoch(&mut nodes, deliveries(4));
        assert!(result.error.is_none());
        let mut sends = 0usize;
        for outcome in &result.outcomes {
            for batch in &outcome.sends {
                sends += 1;
                assert_eq!(
                    batch.payload_bytes,
                    crate::sharing::plain_wire_size(&batch.deltas),
                    "lane-computed size must equal the sequential accounting"
                );
            }
        }
        assert!(sends > 0, "deliveries must produce outbound batches");
    }

    #[test]
    fn empty_epoch_is_a_no_op() {
        let mut executor = EpochExecutor::new(2, false);
        let mut nodes = make_nodes(2);
        let result = executor.run_epoch(&mut nodes, Vec::new());
        assert!(result.outcomes.is_empty() && result.error.is_none());
    }

    #[test]
    fn earliest_error_wins_and_preceding_effects_survive() {
        // A strand with an unbound head variable errors when fired
        // (validation is bypassed by compiling the strand directly).
        let program = ndlog_lang::parse_program("r1 out(@S, X) :- q(@S, C).").unwrap();
        let strands: Arc<Vec<ndlog_runtime::CompiledStrand>> = Arc::new(
            ndlog_lang::seminaive::delta_rewrite_full(&program)
                .into_iter()
                .map(ndlog_runtime::CompiledStrand::new)
                .collect(),
        );
        for threads in [1, 2, 4] {
            let mut executor = EpochExecutor::new(threads, false);
            let mut nodes: BTreeMap<NodeAddr, NodeEngine> = (0..2u32)
                .map(|i| {
                    let engine = NodeEngine::new(
                        NodeAddr(i),
                        &[],
                        Arc::clone(&strands),
                        NodeConfig::default(),
                    )
                    .unwrap();
                    (NodeAddr(i), engine)
                })
                .collect();
            let tasks = vec![
                NodeTask {
                    time: 1,
                    seq: 0,
                    node: NodeAddr(0),
                    action: NodeAction::Deliver(vec![TupleDelta::insert(
                        "unrelated",
                        Tuple::new(vec![Value::addr(0u32)]),
                    )]),
                },
                NodeTask {
                    time: 2,
                    seq: 1,
                    node: NodeAddr(1),
                    action: NodeAction::Deliver(vec![TupleDelta::insert(
                        "q",
                        Tuple::new(vec![Value::addr(1u32), Value::Int(5)]),
                    )]),
                },
            ];
            let result = executor.run_epoch(&mut nodes, tasks);
            assert!(result.error.is_some(), "firing the bad strand must error");
            assert_eq!(
                result.outcomes.len(),
                1,
                "the outcome preceding the error survives ({threads} threads)"
            );
            assert_eq!(result.outcomes[0].node, NodeAddr(0));
        }
    }

    #[test]
    fn executors_report_their_lane_count() {
        assert_eq!(EpochExecutor::new(0, false).threads(), 1);
        assert_eq!(EpochExecutor::new(1, false).threads(), 1);
        assert_eq!(EpochExecutor::new(3, false).threads(), 3);
    }

    fn same_node_deliveries() -> Vec<NodeTask> {
        (0..3u64)
            .map(|i| NodeTask {
                time: 1000 + i,
                seq: i,
                node: NodeAddr(0),
                action: NodeAction::Deliver(vec![link(0, i as u32 + 1, 1.0)]),
            })
            .collect()
    }

    #[test]
    fn consecutive_deliveries_coalesce_into_one_receive_batch() {
        let mut executor = EpochExecutor::new(1, false);
        let mut nodes = make_nodes(1);
        let result = executor.run_epoch(&mut nodes, same_node_deliveries());
        assert!(result.error.is_none());
        assert_eq!(result.outcomes.len(), 1, "one merged outcome");
        // The merged outcome carries the last member's (time, seq).
        assert_eq!((result.outcomes[0].time, result.outcomes[0].seq), (1002, 2));
        assert_eq!(result.deliveries, 3);
        assert_eq!(result.receive_batches, 1);
        assert_eq!(nodes[&NodeAddr(0)].store().count("path"), 3);
    }

    #[test]
    fn flush_timers_break_a_coalesced_run() {
        let mut executor = EpochExecutor::new(1, false);
        let plan = plan(&programs::shortest_path("")).unwrap();
        let strands = Arc::new(plan.strands.clone());
        let config = NodeConfig {
            sharing_delay: Some(300_000),
            ..Default::default()
        };
        let engine = NodeEngine::new(NodeAddr(0), &[plan], strands, config).unwrap();
        let mut nodes: BTreeMap<NodeAddr, NodeEngine> = [(NodeAddr(0), engine)].into();
        let deliver = |time: u64, seq: u64, d: u32| NodeTask {
            time,
            seq,
            node: NodeAddr(0),
            action: NodeAction::Deliver(vec![link(0, d, 1.0)]),
        };
        let tasks = vec![
            deliver(1000, 0, 1),
            NodeTask {
                time: 1001,
                seq: 1,
                node: NodeAddr(0),
                action: NodeAction::Flush,
            },
            deliver(1002, 2, 2),
        ];
        let result = executor.run_epoch(&mut nodes, tasks);
        assert!(result.error.is_none());
        assert_eq!(result.outcomes.len(), 3, "the flush is not absorbed");
        assert!(result.outcomes[1].was_flush);
        assert!(
            !result.outcomes[1].sends.is_empty(),
            "the flush releases the held tuples of the first delivery"
        );
        assert_eq!(result.deliveries, 2);
        assert_eq!(result.receive_batches, 2);
    }
}

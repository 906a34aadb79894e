//! The distributed executor: runs one [`NodeEngine`] per overlay node over
//! the discrete-event network simulator.
//!
//! The executor owns the event loop:
//!
//! 1. base-data changes (link insertions, update bursts) are injected at
//!    specific nodes and processed to a local fixpoint;
//! 2. derivations located at other nodes are batched per destination and
//!    sent along overlay links (the simulator enforces FIFO delivery and
//!    accounts every byte, matching the paper's communication-overhead
//!    metric);
//! 3. deliveries trigger processing at the receiving node, and so on until
//!    the network quiesces.
//!
//! The executor also records every change to the tracked result relations
//! with its simulation timestamp, from which it derives the paper's two
//! evaluation metrics: *convergence time* (time until all results reach
//! their final value) and *% results over time* (Figures 8 and 10).
//!
//! The event loop always runs in *epochs*: batches of events within a
//! conservative lookahead window are evaluated by the [`crate::exec`]
//! subsystem and their effects merged back in `(time, seq)` order. With
//! [`EngineConfig::parallelism`] ≥ 2 an epoch with several active nodes
//! runs them on up to that many lanes, the caller and scoped threads of
//! that epoch; otherwise the same drain runs inline on the caller. Either
//! way a run is bit-for-bit identical across thread counts. Consecutive
//! same-node deliveries within an epoch are merged into one receive
//! batch, and the wire payload buffers circulate through
//! per-node arenas ([`crate::exec::arena`]) instead of being reallocated
//! per message.

use crate::exec::executor::node_step;
use crate::exec::{ArenaStats, EpochExecutor, EpochOutcome, NodeAction, NodeTask, OutboundBatch};
use crate::node::{NodeConfig, NodeEngine};
use crate::plan::QueryPlan;
use crate::updates::LinkUpdate;
use ndlog_lang::Value;
use ndlog_net::sim::{ms, to_seconds, SimTime};
use ndlog_net::stats::NetStats;
use ndlog_net::topology::Topology;
use ndlog_net::{FaultPlan, FaultStats, Message, NodeAddr, SimConfig, Simulator};
use ndlog_runtime::{EvalError, EvalStats, RelName, Sign, Tuple, TupleDelta};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Timer token for outbound-buffer flushes.
const FLUSH_TOKEN: u64 = 1;
/// Timer token for a scheduled node crash (from the fault plan).
const CRASH_TOKEN: u64 = 2;
/// Timer token for a crashed node's rejoin.
const REJOIN_TOKEN: u64 = 3;
/// Timer token for the periodic soft-state refresh tick.
const REFRESH_TOKEN: u64 = 4;

/// Configuration of a distributed run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Per-node configuration template.
    pub node: NodeConfig,
    /// Simulator configuration (FIFO links, header size, ...).
    pub sim: SimConfig,
    /// Safety cap for [`DistributedEngine::run_to_quiescence`], in seconds.
    pub max_seconds: f64,
    /// Number of executor lanes (default 1 = epochs evaluated inline on
    /// the caller). With a value ≥ 2, each epoch's active nodes are pulled
    /// by up to that many lanes: the caller plus threads scoped to the
    /// epoch. Results are bit-for-bit identical at every thread count (see
    /// [`crate::exec`]).
    pub parallelism: usize,
    /// Deterministic fault plan attached to the simulator (loss, jitter,
    /// duplication, partitions, crash/rejoin waves). `None` keeps the
    /// reliable network of all previous experiments.
    pub fault: Option<FaultPlan>,
    /// Soft-state refresh driver (`None` disables it). When set, base
    /// facts injected through [`DistributedEngine::insert_base`] are
    /// remembered as *seeds* and periodically re-announced at their node,
    /// and every node re-fires its stored state each tick — the healing
    /// half of the paper's soft-state story.
    pub refresh: Option<RefreshConfig>,
}

/// Soft-state refresh driver configuration.
///
/// Every `interval_seconds` each node gets a refresh tick: its seed facts
/// are re-announced (a duplicate insert refreshes the stored tuple's TTL
/// and propagates nothing) and its stored state is re-fired, re-sending
/// current remote conclusions so receivers that lost the original message
/// are repaired by the next cycle. Ticks stop after `horizon_seconds`, so
/// runs still quiesce; pick a horizon at least one TTL plus a few
/// intervals past the fault plan's last scheduled event, giving stale
/// soft state time to expire (and be retracted exactly, via DRed) while
/// live state keeps being refreshed until the end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshConfig {
    /// Seconds between refresh ticks at each node.
    pub interval_seconds: f64,
    /// Simulation time (seconds) after which no more ticks are scheduled.
    pub horizon_seconds: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            node: NodeConfig::default(),
            sim: SimConfig::default(),
            max_seconds: 600.0,
            parallelism: 1,
            fault: None,
            refresh: None,
        }
    }
}

/// Fault-injection repair accounting for a run: what the network dropped
/// and how much of it the soft-state refresh cycle healed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRepairReport {
    /// Distinct (destination, relation, tuple) insertions dropped in
    /// flight by the fault plan.
    pub dropped_inserts: usize,
    /// Of those, how many are present at their destination now — lost
    /// then healed (by a refresh re-send or an equivalent re-derivation).
    /// Dropped insertions that are obsolete by the end of the run (later
    /// replaced under their primary key, pruned as non-best, or expired)
    /// legitimately stay unrepaired, so this is not expected to reach
    /// `dropped_inserts` on a converging run.
    pub repaired: usize,
    /// Refresh ticks delivered across all nodes.
    pub refresh_ticks: u64,
    /// Seed deltas re-announced by those ticks (the refresh overhead's
    /// input side; the traffic side shows up in [`NetStats`]).
    pub refresh_reannounced: u64,
}

/// Delivery-schedule statistics of a run: how many message deliveries were
/// ingested and in how many receive batches the coalescer processed them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Message deliveries ingested by the event loop.
    pub deliveries: u64,
    /// Receive batches those deliveries were processed in.
    pub receive_batches: u64,
}

impl DeliveryStats {
    /// Mean number of deliveries merged into one receive batch (1.0 when
    /// no two deliveries were adjacent).
    pub fn mean_batch_width(&self) -> f64 {
        if self.receive_batches == 0 {
            0.0
        } else {
            self.deliveries as f64 / self.receive_batches as f64
        }
    }
}

/// One recorded change to a tracked result relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRecord {
    /// Simulation time of the change.
    pub time: SimTime,
    /// Node at which the result is stored.
    pub node: NodeAddr,
    /// Relation name, shared with the delta that caused the change.
    pub relation: RelName,
    /// The tuple.
    pub tuple: Tuple,
    /// Insertion or deletion.
    pub sign: Sign,
}

/// How a run segment ended. The engine keeps every count of the run
/// itself: simulation time is [`DistributedEngine::now_seconds`], and the
/// messages and megabytes sent so far are `stats().message_count()` and
/// `stats().total_mb()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Whether the network quiesced before the time cap.
    pub quiesced: bool,
}

/// Convergence metrics for one tracked relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceReport {
    /// Number of results present in the final state.
    pub total_results: usize,
    /// Time (seconds) at which the last result reached its final value.
    pub convergence_seconds: f64,
    /// Per-result finalization times (seconds), sorted ascending.
    pub finalization_times: Vec<f64>,
}

impl ConvergenceReport {
    /// Fraction of eventual results that had reached their final value by
    /// time `t` seconds (the y-axis of Figures 8 and 10).
    fn completion_at(&self, t: f64) -> f64 {
        if self.total_results == 0 {
            return 0.0;
        }
        let done = self.finalization_times.iter().filter(|&&x| x <= t).count();
        done as f64 / self.total_results as f64
    }

    /// Sample the completion curve every `step` seconds up to convergence.
    pub fn completion_series(&self, step: f64) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut t = 0.0;
        let end = self.convergence_seconds + step;
        while t <= end {
            out.push((t, self.completion_at(t)));
            t += step;
        }
        out
    }
}

/// The distributed declarative-networking engine.
pub struct DistributedEngine {
    sim: Simulator<Vec<TupleDelta>>,
    nodes: BTreeMap<NodeAddr, NodeEngine>,
    result_log: Vec<ResultRecord>,
    flush_pending: BTreeSet<NodeAddr>,
    sharing_enabled: bool,
    max_seconds: f64,
    /// Drives the epoch event loop, and lends its lane 0's evaluation
    /// buffers to the inject path.
    executor: EpochExecutor,
    delivery_stats: DeliveryStats,
    /// Base facts per node, remembered for refresh re-announcement and
    /// crash rejoin (tracked only when a fault plan or refresh driver is
    /// configured).
    seeds: BTreeMap<NodeAddr, Vec<TupleDelta>>,
    refresh: Option<RefreshConfig>,
    /// Crash/rejoin/refresh timers are scheduled lazily on the first
    /// `run_until`, so setup-time base facts are already in the seed map.
    fault_timers_scheduled: bool,
    refresh_ticks: u64,
    refresh_reannounced: u64,
    /// Insert deltas the fault plan dropped in flight, for the repair
    /// report.
    dropped_inserts: Vec<(NodeAddr, RelName, Tuple)>,
}

impl DistributedEngine {
    /// Build an engine over an overlay graph running the given plans on
    /// every node.
    pub fn new(graph: Topology, plans: &[QueryPlan], config: EngineConfig) -> Result<Self, String> {
        let all_strands: Vec<_> = plans.iter().flat_map(|p| p.strands.clone()).collect();
        let strands = Arc::new(all_strands);

        let mut nodes = BTreeMap::new();
        for addr in graph.nodes() {
            let engine = NodeEngine::new(addr, plans, Arc::clone(&strands), config.node.clone())?;
            nodes.insert(addr, engine);
        }

        let sharing_enabled = config.node.sharing_delay.is_some();
        let mut sim = Simulator::new(graph, config.sim);
        if let Some(plan) = config.fault {
            sim.set_fault_plan(plan)?;
        }
        Ok(DistributedEngine {
            sim,
            nodes,
            result_log: Vec::new(),
            flush_pending: BTreeSet::new(),
            sharing_enabled,
            max_seconds: config.max_seconds,
            executor: EpochExecutor::new(config.parallelism, sharing_enabled),
            delivery_stats: DeliveryStats::default(),
            seeds: BTreeMap::new(),
            refresh: config.refresh,
            fault_timers_scheduled: false,
            refresh_ticks: 0,
            refresh_reannounced: 0,
            dropped_inserts: Vec::new(),
        })
    }

    /// The number of executor threads in effect (1 = inline epochs).
    pub fn parallelism(&self) -> usize {
        self.executor.threads()
    }

    /// Delivery/receive-batch counters accumulated by the event loop (the
    /// coalescer's receive-batch-width statistic).
    pub fn delivery_stats(&self) -> DeliveryStats {
        self.delivery_stats
    }

    /// Wire-buffer arena counters summed over all nodes: the per-message
    /// allocation demand vs. the backing capacity the pools actually
    /// created (see [`crate::exec::arena`]).
    pub fn arena_stats(&self) -> ArenaStats {
        let mut total = ArenaStats::default();
        for node in self.nodes.values() {
            total.absorb(node.arena_stats());
        }
        total
    }

    /// Current simulation time in seconds.
    pub fn now_seconds(&self) -> f64 {
        to_seconds(self.sim.now())
    }

    /// Network statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        self.sim.stats()
    }

    /// Fault-injection counters from the simulator (all zero without a
    /// fault plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.sim.fault_stats()
    }

    /// Repair accounting: which in-flight insertions the fault plan
    /// dropped, and how many of them are nevertheless present at their
    /// destination now — i.e. were healed by a refresh re-send (or an
    /// equivalent re-derivation) as the paper's soft-state story promises.
    pub fn fault_repair_report(&self) -> FaultRepairReport {
        let distinct: BTreeSet<&(NodeAddr, RelName, Tuple)> = self.dropped_inserts.iter().collect();
        let repaired = distinct
            .iter()
            .filter(|(dest, relation, tuple)| {
                self.nodes
                    .get(dest)
                    .and_then(|n| n.store().relation(relation))
                    .is_some_and(|r| r.contains(tuple))
            })
            .count();
        FaultRepairReport {
            dropped_inserts: distinct.len(),
            repaired,
            refresh_ticks: self.refresh_ticks,
            refresh_reannounced: self.refresh_reannounced,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's engine (panics on unknown address).
    pub fn node(&self, addr: NodeAddr) -> &NodeEngine {
        &self.nodes[&addr]
    }

    /// All nodes with their engines, in address order (for inspection and
    /// whole-network comparisons).
    pub fn nodes(&self) -> impl Iterator<Item = (NodeAddr, &NodeEngine)> {
        self.nodes.iter().map(|(addr, node)| (*addr, node))
    }

    /// The raw result log.
    pub fn result_log(&self) -> &[ResultRecord] {
        &self.result_log
    }

    /// Total insertions pruned by aggregate selections across all nodes.
    pub fn pruned_total(&self) -> u64 {
        self.nodes.values().map(NodeEngine::pruned).sum()
    }

    /// Total stored tuples aggregate selections kept from firing across
    /// all nodes (their group bettered them before they fired).
    pub fn superseded_total(&self) -> u64 {
        self.nodes.values().map(NodeEngine::superseded).sum()
    }

    /// Aggregate evaluation statistics across all nodes: processed deltas,
    /// derivations and the probe/scan/tuples-examined counters — with
    /// probes split into per-environment `logical_probes` and actually
    /// executed `distinct_probes` (key-grouped batches answer every
    /// same-key trigger with one bucket lookup). This is the
    /// computation-overhead side of the paper's evaluation, complementing
    /// [`DistributedEngine::stats`]'s communication accounting.
    pub fn computation_stats(&self) -> EvalStats {
        let mut total = EvalStats::default();
        for node in self.nodes.values() {
            total += node.eval_stats();
        }
        total
    }

    /// Insert a base tuple at a node and process the consequences at the
    /// current simulation time.
    pub fn insert_base(
        &mut self,
        node: NodeAddr,
        relation: &str,
        tuple: Tuple,
    ) -> Result<(), EvalError> {
        self.inject(node, TupleDelta::insert(relation, tuple))
    }

    /// Delete a base tuple at a node.
    pub fn delete_base(
        &mut self,
        node: NodeAddr,
        relation: &str,
        tuple: Tuple,
    ) -> Result<(), EvalError> {
        self.inject(node, TupleDelta::delete(relation, tuple))
    }

    /// Apply a bidirectional link-cost update (deletion of the old tuple
    /// followed by insertion of the new one, in both directions).
    pub fn apply_link_update(
        &mut self,
        relation: &str,
        update: &LinkUpdate,
    ) -> Result<(), EvalError> {
        let link = |s: NodeAddr, d: NodeAddr, c: f64| {
            Tuple::new(vec![Value::Addr(s), Value::Addr(d), Value::Float(c)])
        };
        self.delete_base(
            update.a,
            relation,
            link(update.a, update.b, update.old_cost),
        )?;
        self.insert_base(
            update.a,
            relation,
            link(update.a, update.b, update.new_cost),
        )?;
        self.delete_base(
            update.b,
            relation,
            link(update.b, update.a, update.old_cost),
        )?;
        self.insert_base(
            update.b,
            relation,
            link(update.b, update.a, update.new_cost),
        )?;
        Ok(())
    }

    fn inject(&mut self, node: NodeAddr, delta: TupleDelta) -> Result<(), EvalError> {
        self.remember_seed(node, &delta);
        let engine = self
            .nodes
            .get_mut(&node)
            .unwrap_or_else(|| panic!("unknown node {node}"));
        engine.receive(vec![delta]);
        self.process_node(node)
    }

    /// Record a base-data injection as a seed fact: the refresh driver
    /// re-announces seeds every tick, and a rejoining node repopulates
    /// from them. A deletion stops the seed from being refreshed — under
    /// soft state, that is how a fact is permanently withdrawn: it simply
    /// expires everywhere once nobody re-announces it.
    fn remember_seed(&mut self, node: NodeAddr, delta: &TupleDelta) {
        if self.refresh.is_none() && self.sim.fault_plan().is_none() {
            return;
        }
        let seeds = self.seeds.entry(node).or_default();
        match delta.sign {
            Sign::Insert => seeds.push(delta.clone()),
            Sign::Delete => {
                seeds.retain(|s| !(s.relation == delta.relation && s.tuple == delta.tuple))
            }
        }
    }

    /// Process a node to its local fixpoint at the current simulation time
    /// and ship its outbound batches: the clock advance and soft-state
    /// expiry of a delivery, then the node step every epoch lane runs
    /// ([`node_step`]) in lane 0's buffers, so parallel runs stay
    /// bit-identical to sequential ones.
    fn process_node(&mut self, addr: NodeAddr) -> Result<(), EvalError> {
        let now = self.sim.now();
        let node = self.nodes.get_mut(&addr).expect("known node");
        node.set_time(now);
        node.expire_soft_state(now);
        let buffers = self.executor.caller_buffers();
        // An injection is no simulator event, so it has no sequence number.
        let outcome = node_step(node, now, 0, self.sharing_enabled, buffers)?;
        self.apply_effects(outcome);
        Ok(())
    }

    /// Apply one event's externally visible effects to the engine-side
    /// state: pending-flush bookkeeping, result recording, outbound sends
    /// and flush-timer scheduling. This is the *single* implementation
    /// shared by the sequential inject path (via [`Self::process_node`])
    /// and the epoch replay, so the two execution modes cannot drift apart
    /// and break the bit-for-bit determinism contract. The effects arrive
    /// pre-serialized (timestamped records, pre-sized batches) — in epoch
    /// mode they were rendered concurrently inside the executor lanes, so
    /// this serial tail only appends and pushes.
    fn apply_effects(&mut self, outcome: EpochOutcome) {
        let EpochOutcome {
            node,
            mut records,
            sends,
            request_flush,
            was_flush,
            ..
        } = outcome;
        if was_flush {
            self.flush_pending.remove(&node);
        }
        self.result_log.append(&mut records);
        for batch in sends {
            self.send_batch(node, batch);
        }
        if request_flush && !self.flush_pending.contains(&node) {
            if let Some(interval) = self.nodes[&node].flush_interval() {
                self.sim.schedule_timer_in(interval, node, FLUSH_TOKEN);
                self.flush_pending.insert(node);
            }
        }
    }

    fn send_batch(&mut self, from: NodeAddr, batch: OutboundBatch) {
        if batch.deltas.is_empty() {
            return;
        }
        let dest = batch.dest;
        // With a fault plan attached, remember which insertions a dropped
        // message carried so the repair report can check whether refresh
        // healed them.
        let snapshot = self
            .sim
            .fault_plan()
            .is_some()
            .then(|| batch.deltas.clone());
        let delivered = self
            .sim
            .send(Message::new(from, dest, batch.payload_bytes, batch.deltas));
        if delivered.is_none() {
            if let Some(deltas) = snapshot {
                for d in deltas {
                    if d.sign == Sign::Insert {
                        self.dropped_inserts.push((dest, d.relation, d.tuple));
                    }
                }
            }
        }
    }

    /// Schedule the fault plan's crash/rejoin timers and the first refresh
    /// tick per node. Idempotent; runs once, on the first `run_until`
    /// call, so base facts injected during setup are already in the seed
    /// map by the time the first refresh tick fires.
    fn ensure_fault_timers(&mut self) {
        if self.fault_timers_scheduled {
            return;
        }
        self.fault_timers_scheduled = true;
        let crashes: Vec<(NodeAddr, SimTime, SimTime)> = self
            .sim
            .fault_plan()
            .map(|p| {
                p.crashes
                    .iter()
                    .map(|c| (c.node, c.at, c.rejoin_at))
                    .collect()
            })
            .unwrap_or_default();
        for (node, at, rejoin_at) in crashes {
            self.sim.schedule_timer(at, node, CRASH_TOKEN);
            self.sim.schedule_timer(rejoin_at, node, REJOIN_TOKEN);
        }
        if let Some(refresh) = self.refresh {
            let first = ms(refresh.interval_seconds * 1000.0);
            let addrs: Vec<NodeAddr> = self.nodes.keys().copied().collect();
            for addr in addrs {
                self.sim.schedule_timer(first, addr, REFRESH_TOKEN);
            }
        }
    }

    /// The conservative lookahead window for epoch draining: no larger
    /// than the minimum link propagation delay (a message sent inside the
    /// window cannot arrive inside it) nor than the nodes' flush interval
    /// (a flush timer scheduled inside the window cannot fire inside it).
    /// Falls back to single-timestamp epochs (window 1) when either bound
    /// degenerates.
    fn epoch_window(&self) -> SimTime {
        let mut window = self.sim.min_link_delay().unwrap_or(1);
        for node in self.nodes.values() {
            if let Some(interval) = node.flush_interval() {
                window = window.min(interval);
            }
        }
        window.max(1)
    }

    /// Process events until the simulation time exceeds `seconds` or the
    /// network quiesces, and report whether it did. Once every event at or
    /// before `seconds` has run, the clock reads `seconds`: what is
    /// injected next is sent then, not at the time of the last event.
    ///
    /// Drains the simulator in epochs, evaluates each on the executor
    /// (inline at 1 thread, on scoped lanes above), and replays the
    /// merged outcomes in `(time, seq)` order (see [`crate::exec`] for
    /// the full contract).
    pub fn run_until(&mut self, seconds: f64) -> Result<RunReport, EvalError> {
        let limit = ms(seconds * 1000.0);
        let report = self.run_events(limit)?;
        self.sim.advance_to(limit);
        Ok(report)
    }

    /// Run every event at or before `limit`, leaving the clock at the last.
    fn run_events(&mut self, limit: SimTime) -> Result<RunReport, EvalError> {
        while self.next_epoch(limit)? {}
        Ok(RunReport {
            quiesced: self.sim.peek_time().is_none(),
        })
    }

    /// Run the next epoch, if an event within the configured time cap is
    /// queued, and report whether one was:
    /// [`DistributedEngine::run_to_quiescence`] one epoch at a time, for a
    /// caller that looks at the network between epochs. The epochs, hence
    /// every count, are those of the whole run.
    pub fn run_epoch(&mut self) -> Result<bool, EvalError> {
        self.next_epoch(ms(self.max_seconds * 1000.0))
    }

    /// If an event at or before `limit` is queued, drain one epoch from the
    /// queue, none of it past `limit`, evaluate it, replay its outcomes and
    /// return `true`.
    fn next_epoch(&mut self, limit: SimTime) -> Result<bool, EvalError> {
        self.ensure_fault_timers();
        if self.sim.peek_time().is_none_or(|next| next > limit) {
            return Ok(false);
        }
        let window = self.epoch_window();
        let mut tasks = Vec::new();
        for event in self.sim.drain_epoch(window, limit) {
            match event.kind {
                ndlog_net::EventKind::Delivery(message) => tasks.push(NodeTask {
                    time: event.time,
                    seq: event.seq,
                    node: message.to,
                    action: NodeAction::Deliver(message.payload),
                }),
                ndlog_net::EventKind::Timer { node, token } if token == FLUSH_TOKEN => {
                    tasks.push(NodeTask {
                        time: event.time,
                        seq: event.seq,
                        node,
                        action: NodeAction::Flush,
                    })
                }
                ndlog_net::EventKind::Timer { node, token } if token == CRASH_TOKEN => {
                    tasks.push(NodeTask {
                        time: event.time,
                        seq: event.seq,
                        node,
                        action: NodeAction::Crash,
                    })
                }
                ndlog_net::EventKind::Timer { node, token }
                    if token == REJOIN_TOKEN || token == REFRESH_TOKEN =>
                {
                    if token == REFRESH_TOKEN {
                        // Reschedule the next tick while inside the
                        // horizon. This happens on the serial dispatch
                        // path, so the timer schedule is identical at
                        // every thread count.
                        if let Some(refresh) = self.refresh {
                            let next_tick = event.time + ms(refresh.interval_seconds * 1000.0);
                            if next_tick <= ms(refresh.horizon_seconds * 1000.0) {
                                self.sim.schedule_timer(next_tick, node, REFRESH_TOKEN);
                            }
                        }
                        // A tick landing inside the node's down window
                        // is lost with the node; the rejoin timer
                        // repopulates it.
                        if self
                            .sim
                            .fault_plan()
                            .is_some_and(|p| p.node_down_at(node, event.time))
                        {
                            continue;
                        }
                    }
                    let seeds = self.seeds.get(&node).cloned().unwrap_or_default();
                    self.refresh_ticks += 1;
                    self.refresh_reannounced += seeds.len() as u64;
                    tasks.push(NodeTask {
                        time: event.time,
                        seq: event.seq,
                        node,
                        action: NodeAction::Refresh(seeds),
                    });
                }
                ndlog_net::EventKind::Timer { .. } => {}
            }
        }
        let result = self.executor.run_epoch(&mut self.nodes, tasks);
        self.delivery_stats.deliveries += result.deliveries;
        self.delivery_stats.receive_batches += result.receive_batches;
        for outcome in result.outcomes {
            self.sim.advance_to(outcome.time);
            self.apply_effects(outcome);
        }
        if let Some(error) = result.error {
            // The effects preceding the failing event were replayed
            // above, matching the sequential loop's state at its first
            // error (see `exec::executor::EpochResult`).
            return Err(error);
        }
        Ok(true)
    }

    /// Run until no events remain (or the configured time cap is reached),
    /// leaving the clock at the last event.
    pub fn run_to_quiescence(&mut self) -> Result<RunReport, EvalError> {
        self.run_events(ms(self.max_seconds * 1000.0))
    }

    /// The payloads of the messages in flight, in no particular order: what
    /// a heap census reads their capacity against their length in.
    pub fn payloads_in_flight(&self) -> impl Iterator<Item = &Vec<TupleDelta>> {
        self.sim.payloads_in_flight()
    }

    /// All stored tuples of a relation across the network, tagged with the
    /// node that stores them.
    pub fn results(&self, relation: &str) -> Vec<(NodeAddr, Tuple)> {
        let mut out = Vec::new();
        for (addr, node) in &self.nodes {
            for tuple in node.store().tuples(relation) {
                out.push((*addr, tuple));
            }
        }
        out
    }

    /// Total number of stored tuples of a relation across the network.
    pub fn result_count(&self, relation: &str) -> usize {
        self.nodes.values().map(|n| n.store().count(relation)).sum()
    }

    /// Convergence metrics for a tracked relation, derived from the result
    /// log: for every (node, tuple) the time of its last change is its
    /// finalization time; tuples that end deleted are excluded. Keyed by
    /// the whole tuple, not its primary key: a replacement logs the new
    /// tuple's insertion before the old one's removal (the removal comes
    /// out of the DRed pass), and each keeps its own last change.
    pub fn convergence(&self, relation: &str) -> ConvergenceReport {
        let mut last: BTreeMap<(NodeAddr, &Tuple), (SimTime, Sign)> = BTreeMap::new();
        for record in self.result_log.iter().filter(|r| r.relation == relation) {
            last.insert((record.node, &record.tuple), (record.time, record.sign));
        }
        let mut finalization_times: Vec<f64> = last
            .values()
            .filter(|(_, sign)| *sign == Sign::Insert)
            .map(|(t, _)| to_seconds(*t))
            .collect();
        finalization_times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ConvergenceReport {
            total_results: finalization_times.len(),
            convergence_seconds: finalization_times.last().copied().unwrap_or(0.0),
            finalization_times,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use ndlog_lang::programs;
    use ndlog_net::topology::LinkMetrics;

    fn addr(i: u32) -> Value {
        Value::addr(i)
    }

    fn link_tuple(s: u32, d: u32, c: f64) -> Tuple {
        Tuple::new(vec![addr(s), addr(d), Value::Float(c)])
    }

    /// A 4-node diamond overlay: 0-1 (5), 0-2 (1), 2-1 (1), 1-3 (1).
    fn diamond() -> (Topology, Vec<(u32, u32, f64)>) {
        let mut t = Topology::with_nodes(4);
        let edges = vec![(0u32, 1u32, 5.0), (0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)];
        for &(a, b, _) in &edges {
            t.add_link(
                NodeAddr(a),
                NodeAddr(b),
                LinkMetrics {
                    latency_ms: 2.0,
                    reliability: 1.0,
                    random: 1.0,
                    bandwidth_bps: 10_000_000.0,
                },
            )
            .unwrap();
        }
        (t, edges)
    }

    fn build_engine(aggregate_selections: bool) -> DistributedEngine {
        let (graph, edges) = diamond();
        let plan = plan(&programs::shortest_path("")).unwrap();
        let config = EngineConfig {
            node: NodeConfig {
                aggregate_selections,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = DistributedEngine::new(graph, &[plan], config).unwrap();
        for (a, b, c) in edges {
            engine
                .insert_base(NodeAddr(a), "link", link_tuple(a, b, c))
                .unwrap();
            engine
                .insert_base(NodeAddr(b), "link", link_tuple(b, a, c))
                .unwrap();
        }
        engine
    }

    fn shortest_cost(engine: &DistributedEngine, s: u32, d: u32) -> f64 {
        engine
            .results("shortestPath")
            .into_iter()
            .find(|(node, t)| {
                *node == NodeAddr(s) && t.get(0) == Some(&addr(s)) && t.get(1) == Some(&addr(d))
            })
            .and_then(|(_, t)| t.get(3).and_then(|v| v.as_f64()))
            .unwrap_or(f64::NAN)
    }

    #[test]
    fn distributed_shortest_paths_converge() {
        let mut engine = build_engine(true);
        let report = engine.run_to_quiescence().unwrap();
        assert!(report.quiesced);
        assert!(engine.stats().message_count() > 0);
        assert!(engine.stats().total_mb() > 0.0);
        // All-pairs results are stored at their source nodes.
        assert_eq!(engine.result_count("shortestPath"), 12);
        assert_eq!(shortest_cost(&engine, 0, 1), 2.0);
        assert_eq!(shortest_cost(&engine, 0, 3), 3.0);
        assert_eq!(shortest_cost(&engine, 3, 0), 3.0);
        assert_eq!(shortest_cost(&engine, 2, 3), 2.0);
    }

    #[test]
    fn aggregate_selections_reduce_messages() {
        let mut with = build_engine(true);
        with.run_to_quiescence().unwrap();
        let mut without = build_engine(false);
        without.run_to_quiescence().unwrap();
        // Both compute the same shortest-path costs...
        for (s, d) in [(0u32, 1u32), (0, 3), (1, 2), (3, 2)] {
            assert_eq!(shortest_cost(&with, s, d), shortest_cost(&without, s, d));
        }
        // ...but pruning strictly reduces the bytes on the wire.
        assert!(with.stats().total_bytes() <= without.stats().total_bytes());
        assert!(with.pruned_total() > 0);
    }

    /// `low`'s aggregate over `obs` is guarded by `ok` on a column outside
    /// the group, so no selection is inferred: pruning `obs(@n0,7,20)`
    /// against the best that `ok(@n0,8)` admitted would leave nothing
    /// stored once that guard is deleted.
    #[test]
    fn a_guard_outside_the_group_leaves_nothing_to_prune() {
        let program =
            ndlog_lang::parse_program("l low(@S, min<C>) :- obs(@S, K, C), ok(@S, K).").unwrap();
        let row = |values: &[i64]| {
            let values = values.iter().map(|&v| Value::Int(v));
            Tuple::new(std::iter::once(addr(0)).chain(values).collect())
        };
        let run = |aggregate_selections| {
            let config = EngineConfig {
                node: NodeConfig {
                    aggregate_selections,
                    ..Default::default()
                },
                ..Default::default()
            };
            let plan = plan(&program).unwrap();
            let mut engine =
                DistributedEngine::new(Topology::with_nodes(1), &[plan], config).unwrap();
            let n0 = NodeAddr(0);
            engine.insert_base(n0, "ok", row(&[8])).unwrap();
            engine.insert_base(n0, "obs", row(&[8, 9])).unwrap();
            engine.insert_base(n0, "obs", row(&[7, 20])).unwrap();
            engine.insert_base(n0, "ok", row(&[7])).unwrap();
            engine.delete_base(n0, "ok", row(&[8])).unwrap();
            assert!(engine.run_to_quiescence().unwrap().quiesced);
            (engine.results("low"), engine.pruned_total())
        };
        let stored = vec![(NodeAddr(0), row(&[20]))];
        assert_eq!(run(false), (stored.clone(), 0));
        assert_eq!(run(true), (stored, 0));
    }

    #[test]
    fn convergence_report_tracks_completion() {
        let mut engine = build_engine(true);
        engine.run_to_quiescence().unwrap();
        let conv = engine.convergence("shortestPath");
        assert_eq!(conv.total_results, 12);
        assert!(conv.convergence_seconds > 0.0);
        // Some 1-hop results are already final at t = 0 (derived from the
        // local link facts before any message travels), but not all.
        assert!(conv.completion_at(0.0) < 1.0);
        assert!((conv.completion_at(conv.convergence_seconds) - 1.0).abs() < 1e-9);
        let series = conv.completion_series(0.001);
        assert!(series.len() > 2);
        assert!(
            series.windows(2).all(|w| w[0].1 <= w[1].1),
            "monotone completion"
        );
    }

    /// On a square with one hop per link, two-hop results are first
    /// derived along one side and then replaced under their key by the
    /// equal-cost path along the other, or the other way round: every
    /// stored result is final, whichever way it arrived.
    #[test]
    fn convergence_counts_results_that_arrived_by_replacement() {
        let mut graph = Topology::with_nodes(4);
        let sides = [(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        for (a, b) in sides {
            graph
                .add_link(NodeAddr(a), NodeAddr(b), LinkMetrics::uniform())
                .unwrap();
        }
        let plan = plan(&programs::shortest_path("")).unwrap();
        let config = EngineConfig {
            node: NodeConfig {
                aggregate_selections: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = DistributedEngine::new(graph, &[plan], config).unwrap();
        for (a, b) in sides {
            for (s, d) in [(a, b), (b, a)] {
                engine
                    .insert_base(NodeAddr(s), "link", link_tuple(s, d, 1.0))
                    .unwrap();
            }
        }
        engine.run_to_quiescence().unwrap();
        assert_eq!(engine.result_count("shortestPath"), 12);
        assert_eq!(engine.convergence("shortestPath").total_results, 12);
    }

    #[test]
    fn link_update_changes_best_path() {
        let mut engine = build_engine(true);
        engine.run_to_quiescence().unwrap();
        assert_eq!(shortest_cost(&engine, 0, 1), 2.0);
        let before = engine.stats().total_bytes();
        // The 0-2 link degrades to cost 10: the direct 0-1 link (cost 5)
        // becomes the best path.
        engine
            .apply_link_update(
                "link",
                &LinkUpdate {
                    a: NodeAddr(0),
                    b: NodeAddr(2),
                    old_cost: 1.0,
                    new_cost: 10.0,
                },
            )
            .unwrap();
        let report = engine.run_to_quiescence().unwrap();
        assert!(report.quiesced);
        assert_eq!(shortest_cost(&engine, 0, 1), 5.0);
        assert!(
            engine.stats().total_bytes() > before,
            "updates cost bandwidth"
        );
    }

    #[test]
    fn run_until_respects_the_time_limit() {
        let (graph, edges) = diamond();
        let plan = plan(&programs::shortest_path("")).unwrap();
        let mut engine = DistributedEngine::new(graph, &[plan], EngineConfig::default()).unwrap();
        for (a, b, c) in edges {
            engine
                .insert_base(NodeAddr(a), "link", link_tuple(a, b, c))
                .unwrap();
            engine
                .insert_base(NodeAddr(b), "link", link_tuple(b, a, c))
                .unwrap();
        }
        // 1 ms is not enough for any 2 ms-latency message to arrive.
        let report = engine.run_until(0.001).unwrap();
        assert!(!report.quiesced);
        // Before any message arrives each node only knows 1-hop paths to
        // its direct neighbors: 2 + 3 + 2 + 1 = 8 results in the diamond.
        assert_eq!(
            engine.result_count("shortestPath"),
            8,
            "only 1-hop paths so far"
        );
        let report = engine.run_to_quiescence().unwrap();
        assert!(report.quiesced);
        assert_eq!(engine.result_count("shortestPath"), 12);
    }

    /// An idle `run_until(t)` ends at `t`, so what is injected after it is
    /// sent at `t`; `run_to_quiescence` ends at the last event.
    #[test]
    fn an_idle_run_until_moves_the_clock_to_its_limit() {
        let (graph, edges) = diamond();
        let plan = plan(&programs::shortest_path("")).unwrap();
        let mut engine = DistributedEngine::new(graph, &[plan], EngineConfig::default()).unwrap();
        for (a, b, c) in edges {
            engine
                .insert_base(NodeAddr(a), "link", link_tuple(a, b, c))
                .unwrap();
        }
        assert!(engine.run_to_quiescence().unwrap().quiesced);
        let quiet = engine.now_seconds();
        assert!(quiet > 0.0 && quiet < 1.0, "{quiet}");
        assert!(engine.run_until(10.0).unwrap().quiesced);
        assert_eq!(engine.now_seconds(), 10.0);
        assert!(engine.run_until(4.0).unwrap().quiesced);
        assert_eq!(engine.now_seconds(), 10.0, "the clock never goes back");
        let sent = engine.stats().total_bytes();
        engine
            .delete_base(NodeAddr(0), "link", link_tuple(0, 1, 5.0))
            .unwrap();
        assert!(engine.run_to_quiescence().unwrap().quiesced);
        assert!(engine.stats().total_bytes() > sent, "the deletion was sent");
        // Sent at 10 s, it arrives a 2 ms link later.
        assert!(engine.now_seconds() >= 10.002, "{}", engine.now_seconds());
    }

    #[test]
    fn sharing_reduces_bytes_for_concurrent_queries() {
        let (graph, edges) = diamond();
        let plans: Vec<_> = ["latency", "reliability", "random"]
            .iter()
            .map(|m| plan(&programs::shortest_path(m)).unwrap())
            .collect();

        let run = |sharing: bool| -> u64 {
            let config = EngineConfig {
                node: NodeConfig {
                    aggregate_selections: true,
                    sharing_delay: if sharing { Some(ms(300.0)) } else { None },
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut engine = DistributedEngine::new(graph.clone(), &plans, config).unwrap();
            for metric in ["latency", "reliability", "random"] {
                let relation = format!("link_{metric}");
                for &(a, b, c) in &edges {
                    engine
                        .insert_base(NodeAddr(a), &relation, link_tuple(a, b, c))
                        .unwrap();
                    engine
                        .insert_base(NodeAddr(b), &relation, link_tuple(b, a, c))
                        .unwrap();
                }
            }
            engine.run_to_quiescence().unwrap();
            assert_eq!(engine.result_count("shortestPath_latency"), 12);
            engine.stats().total_bytes()
        };

        let without = run(false);
        let with = run(true);
        assert!(
            with < without,
            "sharing must reduce bytes: {with} vs {without}"
        );
    }

    fn build_parallel_engine(aggregate_selections: bool, threads: usize) -> DistributedEngine {
        let (graph, edges) = diamond();
        let plan = plan(&programs::shortest_path("")).unwrap();
        let config = EngineConfig {
            node: NodeConfig {
                aggregate_selections,
                ..Default::default()
            },
            parallelism: threads,
            ..Default::default()
        };
        let mut engine = DistributedEngine::new(graph, &[plan], config).unwrap();
        for (a, b, c) in edges {
            engine
                .insert_base(NodeAddr(a), "link", link_tuple(a, b, c))
                .unwrap();
            engine
                .insert_base(NodeAddr(b), "link", link_tuple(b, a, c))
                .unwrap();
        }
        engine
    }

    #[test]
    fn parallel_run_is_bitwise_identical_to_sequential() {
        let mut sequential = build_parallel_engine(true, 1);
        assert_eq!(sequential.parallelism(), 1);
        let seq_report = sequential.run_to_quiescence().unwrap();
        for threads in [2, 4] {
            let mut parallel = build_parallel_engine(true, threads);
            assert_eq!(parallel.parallelism(), threads);
            let par_report = parallel.run_to_quiescence().unwrap();
            assert_eq!(
                par_report, seq_report,
                "reports differ at {threads} threads"
            );
            crate::consistency::check_bitwise_identical(&sequential, &parallel)
                .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
        }
    }

    #[test]
    fn parallel_run_with_flush_timers_matches_sequential() {
        // Sharing delays exercise the flush-timer half of the epoch
        // executor (held outbound tuples, Flush tasks, pending-flush
        // bookkeeping).
        let (graph, edges) = diamond();
        let build = |threads: usize| {
            let plan = plan(&programs::shortest_path("")).unwrap();
            let config = EngineConfig {
                node: NodeConfig {
                    aggregate_selections: true,
                    sharing_delay: Some(ms(300.0)),
                    ..Default::default()
                },
                parallelism: threads,
                ..Default::default()
            };
            let mut engine = DistributedEngine::new(graph.clone(), &[plan], config).unwrap();
            for &(a, b, c) in &edges {
                engine
                    .insert_base(NodeAddr(a), "link", link_tuple(a, b, c))
                    .unwrap();
                engine
                    .insert_base(NodeAddr(b), "link", link_tuple(b, a, c))
                    .unwrap();
            }
            engine.run_to_quiescence().unwrap();
            engine
        };
        let sequential = build(1);
        let parallel = build(3);
        crate::consistency::check_bitwise_identical(&sequential, &parallel).unwrap();
    }

    #[test]
    fn parallel_engine_handles_updates_and_reruns() {
        let run = |threads: usize| {
            let mut engine = build_parallel_engine(true, threads);
            engine.run_to_quiescence().unwrap();
            engine
                .apply_link_update(
                    "link",
                    &LinkUpdate {
                        a: NodeAddr(0),
                        b: NodeAddr(2),
                        old_cost: 1.0,
                        new_cost: 10.0,
                    },
                )
                .unwrap();
            engine.run_to_quiescence().unwrap();
            engine
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(shortest_cost(&parallel, 0, 1), 5.0);
        crate::consistency::check_bitwise_identical(&sequential, &parallel).unwrap();
    }

    /// Build a soft-state diamond engine with the given fault plan and
    /// refresh driver, seed links both ways, and run it to quiescence.
    fn run_faulty(
        fault: ndlog_net::FaultPlan,
        refresh: RefreshConfig,
        threads: usize,
    ) -> DistributedEngine {
        let (graph, edges) = diamond();
        let plan = plan(&programs::shortest_path_soft("", 3.0)).unwrap();
        let config = EngineConfig {
            node: NodeConfig {
                aggregate_selections: true,
                ..Default::default()
            },
            parallelism: threads,
            fault: Some(fault),
            refresh: Some(refresh),
            ..Default::default()
        };
        let mut engine = DistributedEngine::new(graph, &[plan], config).unwrap();
        for (a, b, c) in edges {
            engine
                .insert_base(NodeAddr(a), "link", link_tuple(a, b, c))
                .unwrap();
            engine
                .insert_base(NodeAddr(b), "link", link_tuple(b, a, c))
                .unwrap();
        }
        let report = engine.run_to_quiescence().unwrap();
        assert!(report.quiesced, "faulty run must still quiesce");
        engine
    }

    fn assert_diamond_costs(engine: &DistributedEngine) {
        assert_eq!(engine.result_count("shortestPath"), 12);
        assert_eq!(shortest_cost(engine, 0, 1), 2.0);
        assert_eq!(shortest_cost(engine, 0, 3), 3.0);
        assert_eq!(shortest_cost(engine, 3, 0), 3.0);
        assert_eq!(shortest_cost(engine, 2, 3), 2.0);
    }

    #[test]
    fn lossy_run_with_refresh_heals_to_the_reliable_fixpoint() {
        let fault = ndlog_net::FaultPlan::new(0xad5eed)
            .with_default_faults(ndlog_net::LinkFaults {
                loss: 0.3,
                duplicate: 0.1,
                jitter_ms: 1.0,
            })
            .with_active_until(ms(4_000.0));
        let refresh = RefreshConfig {
            interval_seconds: 1.0,
            horizon_seconds: 12.0,
        };
        let engine = run_faulty(fault, refresh, 1);
        assert_diamond_costs(&engine);
        let stats = engine.fault_stats();
        assert!(stats.loss_drops > 0, "30% loss must drop something");
        let repair = engine.fault_repair_report();
        assert!(repair.refresh_ticks > 0);
        // Some dropped insertions are obsolete by the end (replaced by a
        // better tuple or pruned as non-best), so not every one reappears —
        // but the refresh cycle must have healed a nonzero share, and the
        // converged costs above prove the survivors are exactly right.
        assert!(repair.dropped_inserts > 0, "seeded loss must hit inserts");
        assert!(repair.repaired > 0, "refresh must heal dropped inserts");
    }

    #[test]
    fn crash_rejoin_repopulates_from_seeds() {
        // Node 2 crashes at 2 s and rejoins at 4 s; refresh repopulates it
        // and every pair converges to the reliable fixpoint anyway.
        let fault = ndlog_net::FaultPlan::new(7).with_crash(NodeAddr(2), ms(2_000.0), ms(4_000.0));
        let refresh = RefreshConfig {
            interval_seconds: 1.0,
            horizon_seconds: 12.0,
        };
        let engine = run_faulty(fault, refresh, 1);
        assert_diamond_costs(&engine);
        assert!(
            engine.node(NodeAddr(2)).store().count("link") > 0,
            "rejoined node must repopulate its seed links"
        );
        assert!(
            engine.fault_stats().crash_drops > 0,
            "messages to the down node are lost"
        );
    }

    #[test]
    fn faulty_runs_are_bit_identical_across_thread_counts() {
        let make_fault = || {
            ndlog_net::FaultPlan::new(0xbeef)
                .with_default_faults(ndlog_net::LinkFaults {
                    loss: 0.2,
                    duplicate: 0.1,
                    jitter_ms: 1.5,
                })
                .with_crash(NodeAddr(1), ms(1_500.0), ms(3_500.0))
                .with_active_until(ms(4_000.0))
        };
        let refresh = RefreshConfig {
            interval_seconds: 1.0,
            horizon_seconds: 12.0,
        };
        let baseline = run_faulty(make_fault(), refresh, 1);
        for threads in [2, 4] {
            let parallel = run_faulty(make_fault(), refresh, threads);
            crate::consistency::check_bitwise_identical(&baseline, &parallel)
                .unwrap_or_else(|e| panic!("{threads} threads diverged: {e}"));
            assert_eq!(baseline.fault_stats(), parallel.fault_stats());
        }
    }
}

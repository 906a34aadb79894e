//! The outside epoch driver: the fault-free event loop of
//! `DistributedEngine::run_until`, rebuilt in the benchmark from the
//! program's public parts so that every call across a layer boundary can
//! be timed without touching the program.
//!
//! Per epoch: `Simulator::drain_epoch` → `NodeTask`s →
//! `EpochExecutor::run_epoch` over the `NodeEngine`s → per outcome
//! `Simulator::advance_to`, `Simulator::send`, `schedule_timer_in`. The
//! traced numbers count only if this loop reproduces the engine's own run
//! exactly; [`OutsideEngine::differences`] is that check.

use crate::trace::Tracer;
use ndlog_core::engine::ResultRecord;
use ndlog_core::exec::{outbound_batches, result_records, NodeAction, NodeTask, OutboundBatch};
use ndlog_core::{
    ArenaStats, DistributedEngine, EpochExecutor, LinkUpdate, NodeConfig, NodeEngine, QueryPlan,
};
use ndlog_lang::Value;
use ndlog_net::sim::{ms, to_seconds, SimTime};
use ndlog_net::topology::Topology;
use ndlog_net::{EventKind, Message, NetStats, NodeAddr, SimConfig, Simulator};
use ndlog_runtime::{EvalError, EvalStats, Tuple, TupleDelta};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine's flush-timer token. No benchmark workload buffers outbound
/// tuples, but the loop keeps the arm so it is the whole fault-free loop.
const FLUSH_TOKEN: u64 = 1;
/// `EngineConfig::default().max_seconds`.
const MAX_SECONDS: f64 = 600.0;

/// Counts taken at the layer boundaries, where the work happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopCounts {
    pub epochs: u64,
    pub events: u64,
    pub tasks: u64,
    pub active_nodes: u64,
    pub deliveries: u64,
    pub receive_batches: u64,
    pub sends: u64,
    /// Largest `Simulator::pending` seen at an epoch boundary.
    pub queue_peak: usize,
}

impl LoopCounts {
    /// The counts of the measured phase: everything since `earlier`, the
    /// snapshot taken when set-up ended (the queue peak is a high-water
    /// mark and is reset instead, see [`OutsideEngine::begin_measuring`]).
    pub fn since(self, earlier: LoopCounts) -> LoopCounts {
        LoopCounts {
            epochs: self.epochs - earlier.epochs,
            events: self.events - earlier.events,
            tasks: self.tasks - earlier.tasks,
            active_nodes: self.active_nodes - earlier.active_nodes,
            deliveries: self.deliveries - earlier.deliveries,
            receive_batches: self.receive_batches - earlier.receive_batches,
            sends: self.sends - earlier.sends,
            queue_peak: self.queue_peak,
        }
    }
}

/// A tracer that may be absent (set-up phases run the loop unrecorded).
struct Spans<'a>(Option<&'a mut Tracer>);

impl Spans<'_> {
    fn start(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        self.0
            .as_mut()
            .map_or(0, |t| t.start(name, parent, request))
    }

    fn end(&mut self, id: usize) {
        if let Some(t) = self.0.as_mut() {
            t.end(id);
        }
    }

    fn accumulated(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        start: Instant,
        busy: Duration,
    ) {
        if let Some(t) = self.0.as_mut() {
            t.record(name, Some(parent), request, start, busy);
        }
    }
}

pub struct OutsideEngine {
    sim: Simulator<Vec<TupleDelta>>,
    nodes: BTreeMap<NodeAddr, NodeEngine>,
    executor: EpochExecutor,
    result_log: Vec<ResultRecord>,
    flush_pending: BTreeSet<NodeAddr>,
    sharing_enabled: bool,
    pub counts: LoopCounts,
}

impl OutsideEngine {
    /// What `DistributedEngine::new` builds for a fault-free configuration
    /// with one executor thread.
    pub fn new(graph: Topology, plans: &[QueryPlan], node: NodeConfig) -> Result<Self, String> {
        let strands = Arc::new(
            plans
                .iter()
                .flat_map(|p| p.strands.clone())
                .collect::<Vec<_>>(),
        );
        let mut tracked = node.tracked_relations.clone();
        for plan in plans {
            tracked.extend(plan.query_relations());
        }
        let mut nodes = BTreeMap::new();
        for addr in graph.nodes() {
            let config = NodeConfig {
                tracked_relations: tracked.clone(),
                ..node.clone()
            };
            nodes.insert(
                addr,
                NodeEngine::new(addr, plans, Arc::clone(&strands), config)?,
            );
        }
        let sharing_enabled = node.sharing_delay.is_some();
        Ok(OutsideEngine {
            sim: Simulator::new(graph, SimConfig::default()),
            nodes,
            executor: EpochExecutor::new(1, sharing_enabled),
            result_log: Vec::new(),
            flush_pending: BTreeSet::new(),
            sharing_enabled,
            counts: LoopCounts::default(),
        })
    }

    pub fn insert_base(
        &mut self,
        node: NodeAddr,
        relation: &str,
        tuple: Tuple,
    ) -> Result<(), EvalError> {
        self.inject(node, TupleDelta::insert(relation, tuple))
    }

    /// `DistributedEngine::apply_link_update`: delete then insert, at both
    /// endpoints.
    pub fn apply_link_update(
        &mut self,
        relation: &str,
        update: &LinkUpdate,
    ) -> Result<(), EvalError> {
        let link = |s: NodeAddr, d: NodeAddr, c: f64| {
            Tuple::new(vec![Value::Addr(s), Value::Addr(d), Value::Float(c)])
        };
        for (s, d) in [(update.a, update.b), (update.b, update.a)] {
            self.inject(s, TupleDelta::delete(relation, link(s, d, update.old_cost)))?;
            self.inject(s, TupleDelta::insert(relation, link(s, d, update.new_cost)))?;
        }
        Ok(())
    }

    fn inject(&mut self, addr: NodeAddr, delta: TupleDelta) -> Result<(), EvalError> {
        let now = self.sim.now();
        let output = {
            let node = self.nodes.get_mut(&addr).expect("known node");
            node.receive(vec![delta]);
            node.set_time(now);
            node.expire_soft_state(now);
            node.process()?
        };
        let mut send_busy = Duration::ZERO;
        self.apply_effects(
            addr,
            result_records(addr, now, output.changes),
            outbound_batches(self.sharing_enabled, output.outbound),
            output.request_flush,
            false,
            &mut send_busy,
        );
        Ok(())
    }

    fn apply_effects(
        &mut self,
        node: NodeAddr,
        mut records: Vec<ResultRecord>,
        sends: Vec<OutboundBatch>,
        request_flush: bool,
        was_flush: bool,
        send_busy: &mut Duration,
    ) {
        if was_flush {
            self.flush_pending.remove(&node);
        }
        self.result_log.append(&mut records);
        for batch in sends {
            if batch.deltas.is_empty() {
                continue;
            }
            let message = Message::new(node, batch.dest, batch.payload_bytes, batch.deltas);
            let start = Instant::now();
            self.sim.send(message);
            *send_busy += start.elapsed();
            self.counts.sends += 1;
        }
        if request_flush && !self.flush_pending.contains(&node) {
            if let Some(interval) = self.nodes[&node].flush_interval() {
                self.sim.schedule_timer_in(interval, node, FLUSH_TOKEN);
                self.flush_pending.insert(node);
            }
        }
    }

    fn epoch_window(&self) -> SimTime {
        let mut window = self.sim.min_link_delay().unwrap_or(1);
        for node in self.nodes.values() {
            if let Some(interval) = node.flush_interval() {
                window = window.min(interval);
            }
        }
        window.max(1)
    }

    /// `DistributedEngine::run_to_quiescence`, with one span per call per
    /// epoch when a tracer is given. Epoch numbers continue across calls;
    /// they are the request ids of the spans.
    pub fn run_to_quiescence(
        &mut self,
        tracer: Option<&mut Tracer>,
        parent: Option<usize>,
    ) -> Result<bool, EvalError> {
        let mut tracer = Spans(tracer);
        let limit = ms(MAX_SECONDS * 1000.0);
        let window = self.epoch_window();
        while let Some(next) = self.sim.peek_time() {
            if next > limit {
                break;
            }
            self.counts.epochs += 1;
            let request = self.counts.epochs;
            self.counts.queue_peak = self.counts.queue_peak.max(self.sim.pending());
            let epoch = tracer.start("epoch", parent, request);

            let drain = tracer.start("net.drain_epoch", Some(epoch), request);
            let events = self.sim.drain_epoch(window, limit);
            tracer.end(drain);
            self.counts.events += events.len() as u64;

            let mut tasks = Vec::with_capacity(events.len());
            let mut active = BTreeSet::new();
            for event in events {
                let (node, action) = match event.kind {
                    EventKind::Delivery(message) => {
                        (message.to, NodeAction::Deliver(message.payload))
                    }
                    EventKind::Timer { node, token } if token == FLUSH_TOKEN => {
                        (node, NodeAction::Flush)
                    }
                    EventKind::Timer { .. } => continue,
                };
                active.insert(node);
                tasks.push(NodeTask {
                    time: event.time,
                    seq: event.seq,
                    node,
                    action,
                });
            }
            self.counts.tasks += tasks.len() as u64;
            self.counts.active_nodes += active.len() as u64;

            let run = tracer.start("core.run_epoch", Some(epoch), request);
            let result = self.executor.run_epoch(&mut self.nodes, tasks);
            tracer.end(run);
            self.counts.deliveries += result.deliveries;
            self.counts.receive_batches += result.receive_batches;

            let replay = tracer.start("core.replay", Some(epoch), request);
            let replay_start = Instant::now();
            let mut send_busy = Duration::ZERO;
            for outcome in result.outcomes {
                self.sim.advance_to(outcome.time);
                self.apply_effects(
                    outcome.node,
                    outcome.records,
                    outcome.sends,
                    outcome.request_flush,
                    outcome.was_flush,
                    &mut send_busy,
                );
            }
            tracer.end(replay);
            tracer.accumulated("net.send", replay, request, replay_start, send_busy);
            tracer.end(epoch);
            if let Some(error) = result.error {
                return Err(error);
            }
        }
        Ok(self.sim.peek_time().is_none())
    }

    /// End of set-up: forget the queue's high-water mark and hand back the
    /// counts so far, for [`LoopCounts::since`].
    pub fn begin_measuring(&mut self) -> LoopCounts {
        self.counts.queue_peak = 0;
        self.counts
    }

    pub fn now_seconds(&self) -> f64 {
        to_seconds(self.sim.now())
    }

    pub fn messages(&self) -> usize {
        self.sim.stats().message_count()
    }

    pub fn total_bytes(&self) -> u64 {
        self.sim.stats().total_bytes()
    }

    pub fn computation_stats(&self) -> EvalStats {
        let mut total = EvalStats::default();
        for node in self.nodes.values() {
            total += node.eval_stats();
        }
        total
    }

    pub fn arena_stats(&self) -> ArenaStats {
        let mut total = ArenaStats::default();
        for node in self.nodes.values() {
            total.absorb(node.arena_stats());
        }
        total
    }

    /// Stored tuples over all relations and nodes.
    pub fn store_tuples(&self) -> usize {
        self.nodes.values().map(|n| n.store().total_tuples()).sum()
    }

    /// Every way this loop's run differs from the engine's own: message
    /// count, wire bytes and the whole send trace, every node's stored
    /// tuples of the result relation, the summed `EvalStats`, the result
    /// log and the delivery counts. Empty means the run was reproduced
    /// exactly.
    pub fn differences(&self, reference: &Reference) -> Vec<String> {
        let mut out = Vec::new();
        let stats = &reference.stats;
        if self.messages() != stats.message_count() {
            out.push(format!(
                "messages: outside {} vs engine {}",
                self.messages(),
                stats.message_count()
            ));
        }
        if self.total_bytes() != stats.total_bytes() {
            out.push(format!(
                "wire bytes: outside {} vs engine {}",
                self.total_bytes(),
                stats.total_bytes()
            ));
        }
        if self.sim.stats() != stats {
            out.push("send traces differ".to_string());
        }
        let mine: Vec<(NodeAddr, Tuple)> = self
            .nodes
            .iter()
            .flat_map(|(addr, node)| {
                node.store()
                    .tuples(&reference.relation)
                    .into_iter()
                    .map(|t| (*addr, t))
            })
            .collect();
        if mine != reference.results {
            out.push(format!(
                "{}: outside {} tuples vs engine {}, or different tuples",
                reference.relation,
                mine.len(),
                reference.results.len()
            ));
        }
        if self.computation_stats() != reference.eval {
            out.push(format!(
                "EvalStats: outside {:?} vs engine {:?}",
                self.computation_stats(),
                reference.eval
            ));
        }
        if self.result_log != reference.log {
            out.push(format!(
                "result log: outside {} records vs engine {}, or different records",
                self.result_log.len(),
                reference.log.len()
            ));
        }
        if (self.counts.deliveries, self.counts.receive_batches) != reference.deliveries {
            out.push("delivery statistics differ".to_string());
        }
        out
    }
}

/// What an engine's own run left behind, kept for the comparison after
/// the engine itself is dropped: on this host memory the process has not
/// touched before costs several times more than memory it reuses, so two
/// engines alive at once would slow the second one down (README, "Sizing
/// constraints").
pub struct Reference {
    relation: String,
    stats: NetStats,
    results: Vec<(NodeAddr, Tuple)>,
    eval: EvalStats,
    log: Vec<ResultRecord>,
    deliveries: (u64, u64),
}

impl Reference {
    pub fn of(engine: &DistributedEngine, relation: &str) -> Reference {
        let delivery = engine.delivery_stats();
        Reference {
            relation: relation.to_string(),
            stats: engine.stats().clone(),
            results: engine.results(relation),
            eval: engine.computation_stats(),
            log: engine.result_log().to_vec(),
            deliveries: (delivery.deliveries, delivery.receive_batches),
        }
    }
}

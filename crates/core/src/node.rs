//! A single node's engine: the per-node half of the P2 dataflow.
//!
//! Every network node runs the same plan over its own store. The engine is
//! a wrapper over `ndlog_runtime::fixpoint` — the local loop the
//! centralized evaluator also runs (pipelined semi-naive insertions, DRed
//! deletions, aggregate views, soft-state clock), built here with this
//! node's address and, when enabled, its aggregate selections — plus what a
//! node adds: derivations whose location specifier names another node,
//! which the loop leaves in the lent buffers' shipped list, are handed back
//! to the distributed engine to be sent along the corresponding link
//! (deletion derivations of a DRed over-delete included), the loop's tap is
//! the node's tracked-relation log, and a crashed node loses its state.
//!
//! The node also implements the per-node halves of the paper's
//! optimizations:
//!
//! * **aggregate selections** (Section 5.1.1): the loop refuses an
//!   insertion into a relation with an inferred monotonic aggregate
//!   selection unless it is strictly better than the node's current
//!   aggregate for its group, and fires a stored one only if its group has
//!   not bettered it since (a receive batch is ingested whole before any of
//!   it fires), so only improvements are stored, extended and propagated;
//! * **periodic aggregate selections**: outbound tuples of the relations
//!   the node prunes are buffered and, on a periodic flush, only the best
//!   tuple per (destination, group) is actually sent;
//! * **opportunistic message sharing** (Section 5.2): all outbound tuples
//!   are delayed briefly so the engine can combine tuples that share
//!   attribute values into one message.

use crate::exec::arena::{ArenaStats, DeltaArena};
use crate::plan::QueryPlan;
use ndlog_lang::Value;
use ndlog_net::sim::SimTime;
use ndlog_net::NodeAddr;
use ndlog_runtime::fixpoint::LocalFixpoint;
use ndlog_runtime::{
    CompiledStrand, EvalBuffers, EvalError, EvalStats, RelName, Sign, Store, Strategy, Tuple,
    TupleDelta,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Per-node configuration (shared by all nodes in an experiment).
#[derive(Debug, Clone, Default)]
pub struct NodeConfig {
    /// Enable aggregate-selection pruning, at admission (an insertion no
    /// better than its group's aggregate is not stored) and at firing (a
    /// stored tuple its group has strictly bettered since does not fire).
    pub aggregate_selections: bool,
    /// Buffer outbound tuples of the relations the node prunes and flush
    /// them periodically, sending only the best per (destination, group):
    /// the *periodic aggregate selections* variant of aggregate selection,
    /// so it holds nothing unless `aggregate_selections` is set too (its
    /// one caller, the aggregate-selections experiment, sets both).
    pub periodic_flush: Option<SimTime>,
    /// Delay all outbound tuples by this long to create message-sharing
    /// opportunities (Section 5.2; the paper uses 300 ms).
    pub sharing_delay: Option<SimTime>,
    /// Relations whose visibility transitions every processing step
    /// reports, beside each plan's query relations, for convergence
    /// tracking. [`NodeEngine::new`] subscribes the node's tap to them,
    /// moving the names out of the config.
    pub tracked_relations: BTreeSet<String>,
}

/// What one processing step produced.
#[derive(Debug, Default)]
pub struct ProcessOutput {
    /// Outbound deltas grouped by destination node.
    pub outbound: BTreeMap<NodeAddr, Vec<TupleDelta>>,
    /// Visibility transitions of tracked relations, drained from the tap.
    pub changes: Vec<TupleDelta>,
    /// Whether the node buffered outbound tuples and needs a flush timer.
    pub request_flush: bool,
}

/// Bytes of capacity a node keeps between runs beside its store, by buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeptCapacity {
    /// The evaluation queue.
    pub queue: usize,
    /// The pending deletions.
    pub pending: usize,
    /// Outbound deltas held for a flush.
    pub held: usize,
    /// The payload-buffer pool.
    pub pooled: usize,
}

/// The per-node engine.
pub struct NodeEngine {
    fixpoint: LocalFixpoint,
    addr: NodeAddr,
    config: NodeConfig,
    /// Outbound deltas held for periodic flush / message sharing.
    held: Vec<(NodeAddr, TupleDelta)>,
    /// Pool of reusable wire-payload buffers: delivered payloads are
    /// recycled here after ingestion and the outbound path rents from it,
    /// so message buffers circulate instead of being reallocated (see
    /// `crate::exec::arena`).
    arena: DeltaArena,
}

impl NodeEngine {
    /// Build a node engine for a set of plans (one per concurrent query).
    /// `strands` is the concatenation of all plans' strands, shared across
    /// nodes; so are the plans' aggregate views, which keep their state in
    /// this node's store.
    pub fn new(
        addr: NodeAddr,
        plans: &[QueryPlan],
        strands: Arc<Vec<CompiledStrand>>,
        mut config: NodeConfig,
    ) -> Result<Self, String> {
        let mut store = Store::new();
        for plan in plans {
            store.add_program(&plan.program)?;
        }
        let views = plans.iter().flat_map(|plan| plan.views.iter().cloned());
        let views = views.collect();
        let selections = if config.aggregate_selections {
            plans.iter().flat_map(|p| p.selections.clone()).collect()
        } else {
            Vec::new()
        };
        let mut fixpoint = LocalFixpoint::new(store, strands, views, Some(addr), selections)?;
        let tap = fixpoint.tap_mut();
        for relation in std::mem::take(&mut config.tracked_relations) {
            tap.subscribe(relation);
        }
        for relation in plans.iter().flat_map(QueryPlan::query_relations) {
            tap.subscribe(relation);
        }
        Ok(NodeEngine {
            fixpoint,
            addr,
            config,
            held: Vec::new(),
            arena: DeltaArena::default(),
        })
    }

    /// This node's address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The node's store (for inspection).
    pub fn store(&self) -> &Store {
        self.fixpoint.store()
    }

    /// Number of insertions pruned by aggregate selections so far.
    pub fn pruned(&self) -> u64 {
        self.fixpoint.pruned()
    }

    /// Number of stored tuples aggregate selections kept from firing so
    /// far, because their group bettered them before they fired.
    pub fn superseded(&self) -> u64 {
        self.fixpoint.superseded()
    }

    /// Cumulative evaluation statistics: processed deltas, derivations, and
    /// the probe/scan/tuples-examined counters that quantify computation
    /// overhead (the per-node counterpart of the network byte accounting).
    /// Probes are counted at both granularities — `logical_probes` per
    /// binding environment and `distinct_probes` for the bucket lookups
    /// actually executed after key-grouped probe sharing; both are
    /// deterministic for a given event order, so they participate in the
    /// bitwise-identity checks across executor thread counts.
    pub fn eval_stats(&self) -> EvalStats {
        self.fixpoint.stats()
    }

    /// Whether the node has unprocessed work queued.
    pub fn has_pending(&self) -> bool {
        self.fixpoint.has_pending()
    }

    /// Advance the node's logical clock (for soft-state expiry).
    pub fn set_time(&mut self, now_micros: u64) {
        self.fixpoint.set_time(now_micros);
    }

    /// Accept deltas arriving from the network (or from local base-data
    /// changes) as one receive batch: [`NodeEngine::receive_batch`] of a
    /// single payload.
    pub fn receive(&mut self, mut deltas: Vec<TupleDelta>) {
        let arena = &mut self.arena;
        let batch = std::slice::from_mut(&mut deltas);
        self.fixpoint
            .ingest_batch(batch, |len, buffer| arena.recycle(len, buffer));
    }

    /// Accept the payloads of a run of consecutive deliveries, in arrival
    /// order, as one receive batch. The batch is ingested as its net change
    /// (`LocalFixpoint::ingest_batch`): a tuple this node stores that the
    /// batch deletes and then re-asserts — a sender's re-costing that
    /// shipped the deletion and the identical re-insertion in two messages
    /// — is left alone rather than removed, cascaded to the neighbours
    /// and re-derived. Only the receiver can
    /// apply that rule, because it reads what the receiver stores. The
    /// rest is applied to the store and queued; call
    /// [`NodeEngine::process`] to run it to a local fixpoint. Each drained
    /// payload buffer is recycled into this node's arena, closing the
    /// zero-copy loop: the vector allocated by some sender's outbound path
    /// becomes one of this node's future outbound batches. `payloads` is
    /// left empty, its capacity kept.
    pub fn receive_batch(&mut self, payloads: &mut Vec<Vec<TupleDelta>>) {
        let arena = &mut self.arena;
        self.fixpoint
            .ingest_batch(payloads, |len, buffer| arena.recycle(len, buffer));
        payloads.clear();
    }

    /// This node's wire-buffer pool counters (meaningful summed across all
    /// nodes — buffers rent at senders and recycle at receivers).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// What this node's buffers keep between runs, empty or not.
    pub fn kept_capacity(&self) -> KeptCapacity {
        KeptCapacity {
            queue: self.fixpoint.queue_bytes(),
            pending: self.fixpoint.pending_bytes(),
            held: self.held.capacity() * std::mem::size_of::<(NodeAddr, TupleDelta)>(),
            pooled: self.arena.pooled_bytes(),
        }
    }

    /// Expire soft-state tuples; the expired tuples seed the next DRed
    /// pass (they are already removed from the store, and an expiry is
    /// authoritative — never re-derived).
    pub fn expire_soft_state(&mut self, now_micros: u64) {
        self.fixpoint.expire_soft_state(now_micros);
    }

    /// Crash the node: all volatile state — stored tuples (aggregate-view
    /// outputs included: the head relations are the views' only state),
    /// the evaluation queue, pending deletions and held outbound tuples —
    /// is lost, exactly as a process restart would lose it.
    /// Tracked relations see an explicit retraction of every stored tuple
    /// so downstream result logs stay exact; sequence numbers and the
    /// logical clock survive (a rejoining node must not travel back in
    /// time). Returns the drained tap: those retractions, after whatever
    /// it recorded before the crash.
    pub fn crash_reset(&mut self) -> Vec<TupleDelta> {
        self.fixpoint.clear();
        self.held.clear();
        self.fixpoint.tap_mut().drain()
    }

    /// Queue every stored tuple for re-firing with its original stored
    /// timestamp. Joins fire once per pair (the member with the larger
    /// timestamp sees the smaller one, never vice versa — the pipelined
    /// visibility rule), so one refire pass re-derives the node's current
    /// conclusions without duplicating derivation pairs. Re-derived local
    /// conclusions are absorbed as duplicates (which refreshes their
    /// soft-state expiry); remote conclusions are re-sent — exactly the
    /// repair traffic a soft-state refresh cycle pays, and what heals
    /// receivers that lost the original message.
    pub fn refresh_refire(&mut self) {
        let names: Vec<RelName> = self.store().relation_names().map(RelName::from).collect();
        for name in names {
            let entries: Vec<(Tuple, u64)> = match self.store().relation(&name) {
                Some(rel) => rel.iter().map(|s| (s.tuple.clone(), s.seq)).collect(),
                None => continue,
            };
            for (tuple, seq) in entries {
                self.fixpoint
                    .enqueue(TupleDelta::insert(name.clone(), tuple), seq);
            }
        }
    }

    /// Returns the current aggregate value governing a selection relation
    /// group, if any.
    #[cfg(test)]
    fn current_best(&self, relation: &str, tuple: &Tuple) -> Option<&Value> {
        let (_, view) = self.fixpoint.selection(relation)?;
        self.fixpoint.views()[*view].current_for(self.store(), tuple)
    }

    /// Run queued work to a local fixpoint (pipelined semi-naive, consumed
    /// in delta batches — see `ndlog_runtime::fixpoint`), producing
    /// outbound messages and tracked-relation changes. The one-shot form
    /// of [`NodeEngine::process_with`]: evaluates in buffers of its own and
    /// drops them.
    pub fn process(&mut self) -> Result<ProcessOutput, EvalError> {
        self.process_with(&mut EvalBuffers::default())
    }

    /// [`NodeEngine::process`] in the caller's evaluation buffers. A node
    /// owns none: whoever drives many nodes — an executor lane, lane 0's
    /// set also serving the engine's inject path — keeps one set and lends
    /// it to each in turn, and gets it back holding capacity only: the
    /// derivations the run shipped to other nodes are drained, in
    /// derivation order, into the held buffer or the outbound batches, on
    /// error too, so none reaches the next node the buffers serve.
    pub fn process_with(&mut self, buffers: &mut EvalBuffers) -> Result<ProcessOutput, EvalError> {
        let run = self.fixpoint.run(Strategy::Pipelined, buffers);
        let mut output = ProcessOutput::default();
        let hold_for_sharing = self.config.sharing_delay.is_some();
        let holds = |delta: &TupleDelta| {
            hold_for_sharing
                || (self.config.periodic_flush.is_some()
                    && self.fixpoint.selection(&delta.relation).is_some())
        };
        // The shipped list is complete: rent each destination's buffer at
        // exactly the number of deltas it will carry.
        let shipped = buffers.drain_shipped();
        for (dest, delta) in shipped.as_slice() {
            if !holds(delta) {
                output.outbound.entry(*dest).or_default();
            }
        }
        for (dest, buffer) in &mut output.outbound {
            let to_dest = shipped.as_slice().iter().filter(|(to, _)| to == dest);
            let len = to_dest.filter(|(_, delta)| !holds(delta)).count();
            *buffer = self.arena.rent(len);
        }
        for (dest, delta) in shipped {
            if holds(&delta) {
                self.held.push((dest, delta));
                output.request_flush = true;
            } else {
                let buffer = output.outbound.get_mut(&dest).expect("rented above");
                buffer.push(delta);
            }
        }
        run?;
        output.changes = self.fixpoint.tap_mut().drain();
        Ok(output)
    }

    /// The flush interval currently in effect (sharing delay takes
    /// precedence over the periodic-selection interval when both are set,
    /// since it is the shorter-lived buffer in the paper's experiments).
    pub fn flush_interval(&self) -> Option<SimTime> {
        self.config.sharing_delay.or(self.config.periodic_flush)
    }

    /// The group of a held delta of a relation the node prunes.
    fn group_key(&self, delta: &TupleDelta) -> Option<Vec<Value>> {
        let (sel, _) = self.fixpoint.selection(&delta.relation)?;
        if sel.group_cols.iter().any(|&c| delta.tuple.get(c).is_none()) {
            return None;
        }
        Some(delta.tuple.project(&sel.group_cols))
    }

    /// Flush held outbound tuples.
    ///
    /// For relations under a monotonic aggregate selection, only the best
    /// held insertion per (destination, group) is sent — the *periodic
    /// aggregate selections* saving. Buffers containing deletions for a
    /// group are flushed verbatim to preserve FIFO correctness.
    ///
    /// Decisions are made over borrowed entries, then the survivors are
    /// *moved* out of the held buffer into arena-rented wire buffers — the
    /// flush tail allocates no tuples and clones no deltas.
    pub fn flush(&mut self) -> BTreeMap<NodeAddr, Vec<TupleDelta>> {
        let held = std::mem::take(&mut self.held);
        // Group keys that contain any deletion are exempt from deduplication.
        let mut has_delete: BTreeSet<(NodeAddr, RelName, Vec<Value>)> = BTreeSet::new();
        for (dest, delta) in &held {
            if delta.sign == Sign::Delete {
                if let Some(key) = self.group_key(delta) {
                    has_delete.insert((*dest, delta.relation.clone(), key));
                }
            }
        }
        // Decide each entry's fate: sent verbatim, or competing for best
        // insertion per (dest, relation, group).
        let mut verbatim = vec![false; held.len()];
        let mut best: BTreeMap<(NodeAddr, RelName, Vec<Value>), (usize, &Value)> = BTreeMap::new();
        for (idx, (dest, delta)) in held.iter().enumerate() {
            let (Some((sel, _)), Sign::Insert, Some(key)) = (
                self.fixpoint.selection(&delta.relation),
                delta.sign,
                self.group_key(delta),
            ) else {
                verbatim[idx] = true;
                continue;
            };
            let full_key = (*dest, delta.relation.clone(), key);
            let value = delta.tuple.get(sel.value_col);
            let Some(value) = value.filter(|_| !has_delete.contains(&full_key)) else {
                verbatim[idx] = true;
                continue;
            };
            match best.get(&full_key) {
                Some((_, current)) if !sel.is_better(value, current) => {}
                _ => {
                    best.insert(full_key, (idx, value));
                }
            }
        }
        let winners: BTreeSet<usize> = best.into_values().map(|(idx, _)| idx).collect();
        let sent = |idx: usize| verbatim[idx] || winners.contains(&idx);
        // Every survivor is known: rent each destination's buffer at
        // exactly the number of deltas it will carry.
        let mut lens: BTreeMap<NodeAddr, usize> = BTreeMap::new();
        for (idx, (dest, _)) in held.iter().enumerate() {
            if sent(idx) {
                *lens.entry(*dest).or_default() += 1;
            }
        }
        let mut out: BTreeMap<NodeAddr, Vec<TupleDelta>> = lens
            .into_iter()
            .map(|(dest, len)| (dest, self.arena.rent(len)))
            .collect();
        for (idx, (dest, delta)) in held.into_iter().enumerate() {
            if sent(idx) {
                out.get_mut(&dest).expect("rented above").push(delta);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use ndlog_lang::{programs, Value};

    fn addr(i: u32) -> Value {
        Value::addr(i)
    }

    fn link(s: u32, d: u32, c: f64) -> Tuple {
        Tuple::new(vec![addr(s), addr(d), Value::Float(c)])
    }

    /// `path(S, 9, Z, [S, Z, 9], cost)`: a path from `s` to node 9 via `z`.
    fn path(s: u32, z: u32, cost: impl Into<Value>) -> Tuple {
        let vector = Value::list(vec![addr(s), addr(z), addr(9)]);
        Tuple::new(vec![addr(s), addr(9), addr(z), vector, cost.into()])
    }

    fn make_node(node: u32, config: NodeConfig) -> NodeEngine {
        node_running(&programs::shortest_path(""), node, config)
    }

    fn node_running(program: &ndlog_lang::Program, node: u32, config: NodeConfig) -> NodeEngine {
        let plan = plan(program).unwrap();
        let strands = Arc::new(plan.strands.clone());
        NodeEngine::new(NodeAddr(node), &[plan], strands, config).unwrap()
    }

    #[test]
    fn one_hop_path_stays_local_and_transfer_goes_remote() {
        let mut node = make_node(0, NodeConfig::default());
        node.receive(vec![TupleDelta::insert("link", link(0, 1, 5.0))]);
        let out = node.process().unwrap();
        // sp1 derives path(0,1,...) locally; sp2a derives sp2_xd(@1, @0, 5)
        // which must be shipped to node 1.
        assert_eq!(node.store().count("path"), 1);
        assert!(out.outbound.contains_key(&NodeAddr(1)));
        let to_1 = &out.outbound[&NodeAddr(1)];
        assert!(to_1.iter().any(|d| d.relation == "path_sp2_xd"));
        assert!(to_1.iter().all(|d| d.tuple.location() == Some(NodeAddr(1))));
    }

    #[test]
    fn aggregate_selection_prunes_worse_paths() {
        let config = NodeConfig {
            aggregate_selections: true,
            ..Default::default()
        };
        let mut node = make_node(0, config);
        node.receive(vec![TupleDelta::insert("path", path(0, 1, 5.0))]);
        node.process().unwrap();
        assert_eq!(node.store().count("path"), 1);
        assert_eq!(
            node.current_best("path", &path(0, 1, 5.0)),
            Some(&Value::Float(5.0))
        );
        // A worse path for the same (S, D) group is pruned entirely.
        node.receive(vec![TupleDelta::insert("path", path(0, 2, 7.0))]);
        node.process().unwrap();
        assert_eq!(node.store().count("path"), 1);
        assert_eq!(node.pruned(), 1);
        // A better one replaces the aggregate and is stored.
        node.receive(vec![TupleDelta::insert("path", path(0, 3, 2.0))]);
        node.process().unwrap();
        assert_eq!(node.store().count("path"), 2);
        assert_eq!(
            node.current_best("path", &path(0, 1, 0.0)),
            Some(&Value::Float(2.0))
        );
        // The shortestPath result reflects the best cost.
        let sp = node.store().tuples("shortestPath");
        assert_eq!(sp.len(), 1);
        assert_eq!(sp[0].get(3), Some(&Value::Float(2.0)));
    }

    #[test]
    fn aggregate_selection_compares_costs_in_value_order() {
        let config = NodeConfig {
            aggregate_selections: true,
            ..Default::default()
        };
        let mut node = make_node(0, config);
        // Two integer costs one f64 cannot tell apart: the second is still
        // strictly better in the order the `min` view folds with.
        let (big, bigger) = (1i64 << 53, (1i64 << 53) + 1);
        node.receive(vec![TupleDelta::insert("path", path(0, 1, bigger))]);
        node.process().unwrap();
        node.receive(vec![TupleDelta::insert("path", path(0, 2, big))]);
        node.process().unwrap();
        assert_eq!(node.store().count("path"), 2);
        assert_eq!(node.pruned(), 0);
        assert_eq!(
            node.current_best("path", &path(0, 1, 0i64)),
            Some(&Value::Int(big))
        );
    }

    #[test]
    fn without_selections_all_paths_are_stored() {
        let mut node = make_node(0, NodeConfig::default());
        node.receive(vec![
            TupleDelta::insert("path", path(0, 1, 5.0)),
            TupleDelta::insert("path", path(0, 2, 7.0)),
        ]);
        node.process().unwrap();
        assert_eq!(node.store().count("path"), 2);
        assert_eq!(node.pruned(), 0);
        assert_eq!(node.eval_stats().redundant_derivations, 0);
        // A second arrival of a stored path is a duplicate insertion.
        node.receive(vec![TupleDelta::insert("path", path(0, 1, 5.0))]);
        node.process().unwrap();
        assert_eq!(node.store().count("path"), 2);
        assert_eq!(node.eval_stats().redundant_derivations, 1);
    }

    #[test]
    fn a_reannounced_best_is_admitted_not_pruned() {
        let config = NodeConfig {
            aggregate_selections: true,
            ..Default::default()
        };
        let mut node = make_node(0, config);
        for _ in 0..2 {
            node.receive(vec![TupleDelta::insert("path", path(0, 1, 5.0))]);
            node.process().unwrap();
        }
        // The second arrival is not better than the reigning best, but it
        // is that best: admitted as a duplicate, so nothing was refused.
        assert_eq!(node.store().count("path"), 1);
        assert_eq!(node.eval_stats().redundant_derivations, 1);
        assert_eq!(node.pruned(), 0);
    }

    /// Node 1 with neighbour 0 (the link and its transfer tuple), pruning
    /// by aggregate selections, flushing periodically if `periodic_flush`
    /// says so: every path to 9 it fires yields an extension for 0.
    fn node_extending_to_0(periodic_flush: Option<SimTime>) -> NodeEngine {
        let config = NodeConfig {
            aggregate_selections: true,
            periodic_flush,
            ..Default::default()
        };
        let mut node = make_node(1, config);
        node.receive(vec![
            TupleDelta::insert("link", link(1, 0, 1.0)),
            TupleDelta::insert(
                "path_sp2_xd",
                Tuple::new(vec![addr(1), addr(0), Value::Float(1.0)]),
            ),
        ]);
        node.process().unwrap();
        node
    }

    /// The costs of the paths `out` ships to node 0.
    fn shipped_path_costs(out: &ProcessOutput) -> Vec<&Value> {
        let to_0 = out.outbound.get(&NodeAddr(0)).into_iter().flatten();
        let paths = to_0.filter(|d| d.relation == "path");
        paths.map(|d| d.tuple.get(4).unwrap()).collect()
    }

    /// How many paths to node 9 `node` stores.
    fn paths_to_9(node: &NodeEngine) -> usize {
        stored_paths_to_9(node).len()
    }

    /// The paths to node 9 `node` stores.
    fn stored_paths_to_9(node: &NodeEngine) -> Vec<Tuple> {
        let paths = node.store().tuples("path").into_iter();
        paths.filter(|t| t.get(1) == Some(&addr(9))).collect()
    }

    #[test]
    fn a_path_its_group_bettered_in_the_same_batch_does_not_fire() {
        // Worse first: both are admitted, but by the time the batch fires
        // the worse one's group holds the better cost.
        let mut node = node_extending_to_0(None);
        node.receive(vec![
            TupleDelta::insert("path", path(1, 2, 5.0)),
            TupleDelta::insert("path", path(1, 3, 3.0)),
        ]);
        let out = node.process().unwrap();
        assert_eq!(shipped_path_costs(&out), [&Value::Float(4.0)]);
        assert_eq!(paths_to_9(&node), 2);
        assert_eq!((node.pruned(), node.superseded()), (0, 1));

        // Better first: the worse one never reaches the store.
        let mut node = node_extending_to_0(None);
        node.receive(vec![
            TupleDelta::insert("path", path(1, 3, 3.0)),
            TupleDelta::insert("path", path(1, 2, 5.0)),
        ]);
        let out = node.process().unwrap();
        assert_eq!(shipped_path_costs(&out), [&Value::Float(4.0)]);
        assert_eq!(paths_to_9(&node), 1);
        assert_eq!((node.pruned(), node.superseded()), (1, 0));
    }

    #[test]
    fn a_batch_that_deletes_and_reasserts_its_best_keeps_it() {
        // A re-costing upstream ships the deletion and the identical
        // re-insertion of the stored best in two messages that arrive in
        // one receive batch: together they change nothing.
        let mut node = node_extending_to_0(None);
        node.receive(vec![TupleDelta::insert("path", path(1, 3, 3.0))]);
        node.process().unwrap();
        node.receive_batch(&mut vec![
            vec![TupleDelta::delete("path", path(1, 3, 3.0))],
            vec![TupleDelta::insert("path", path(1, 3, 3.0))],
        ]);
        let out = node.process().unwrap();
        assert_eq!(paths_to_9(&node), 1);
        assert!(node.store().tuples("path").contains(&path(1, 3, 3.0)));
        assert_eq!(node.pruned(), 0);
        assert!(out.outbound.is_empty(), "{:?}", out.outbound);
    }

    /// `path(0, 9, 1, [0, 1, z, 9], cost)`: node 0's extension of the path
    /// to 9 via `z` that node 1 stores.
    fn extension(z: u32, cost: f64) -> Tuple {
        let vector = Value::list(vec![addr(0), addr(1), addr(z), addr(9)]);
        Tuple::new(vec![addr(0), addr(9), addr(1), vector, Value::Float(cost)])
    }

    #[test]
    fn a_pair_it_cannot_cancel_keeps_its_path() {
        // A second deletion of the stored best sits between its deletion
        // and its re-insertion, so the pair is ingested as deltas of their
        // own: the re-insertion waits for the deletion's DRed pass instead
        // of being pruned against the cost it re-asserts.
        let mut node = node_extending_to_0(None);
        node.receive(vec![TupleDelta::insert("path", path(1, 3, 3.0))]);
        node.process().unwrap();
        node.receive(vec![
            TupleDelta::delete("path", path(1, 3, 3.0)),
            TupleDelta::delete("path", path(1, 3, 3.0)),
            TupleDelta::insert("path", path(1, 3, 3.0)),
        ]);
        let out = node.process().unwrap();
        assert_eq!(stored_paths_to_9(&node), [path(1, 3, 3.0)]);
        assert_eq!(node.pruned(), 0);
        assert_eq!(
            out.outbound[&NodeAddr(0)],
            [
                TupleDelta::delete("path", extension(3, 4.0)),
                TupleDelta::insert("path", extension(3, 4.0)),
            ]
        );
    }

    #[test]
    fn a_path_kept_through_a_cancelled_pair_survives_its_recosting() {
        // The stored best is kept through a cancelled deletion and
        // re-insertion; a later batch re-costs the same path upward, as its
        // deletion and its replacement under the one key. The replacement
        // is judged against the group its deletion leaves, not against the
        // cost it replaces.
        let mut node = node_extending_to_0(None);
        node.receive(vec![TupleDelta::insert("path", path(1, 3, 3.0))]);
        node.process().unwrap();
        node.receive_batch(&mut vec![
            vec![TupleDelta::delete("path", path(1, 3, 3.0))],
            vec![TupleDelta::insert("path", path(1, 3, 3.0))],
        ]);
        node.process().unwrap();
        node.receive_batch(&mut vec![
            vec![TupleDelta::delete("path", path(1, 3, 3.0))],
            vec![TupleDelta::insert("path", path(1, 3, 5.0))],
        ]);
        let out = node.process().unwrap();
        assert_eq!(stored_paths_to_9(&node), [path(1, 3, 5.0)]);
        assert_eq!(node.pruned(), 0);
        assert_eq!(
            out.outbound[&NodeAddr(0)],
            [
                TupleDelta::delete("path", extension(3, 4.0)),
                TupleDelta::insert("path", extension(3, 6.0)),
            ]
        );
    }

    #[test]
    fn a_batch_that_deletes_its_best_judges_an_alternative_against_the_rebuilt_group() {
        // A tie of the deleted best, and a worse path, each arriving in the
        // deletion's batch: either is the best of what the deletion leaves.
        for cost in [3.0, 5.0] {
            let mut node = node_extending_to_0(None);
            node.receive(vec![TupleDelta::insert("path", path(1, 3, 3.0))]);
            node.process().unwrap();
            node.receive(vec![
                TupleDelta::delete("path", path(1, 3, 3.0)),
                TupleDelta::insert("path", path(1, 2, cost)),
            ]);
            let out = node.process().unwrap();
            assert_eq!(stored_paths_to_9(&node), [path(1, 2, cost)]);
            assert_eq!(node.pruned(), 0);
            assert_eq!(
                out.outbound[&NodeAddr(0)],
                [
                    TupleDelta::delete("path", extension(3, 4.0)),
                    TupleDelta::insert("path", extension(2, cost + 1.0)),
                ]
            );
        }
    }

    #[test]
    fn tracked_relations_report_changes() {
        // `path` is tracked by the config and `shortestPath` as the plan's
        // query relation; `link` and `spCost` are not tracked.
        let config = NodeConfig {
            tracked_relations: ["path".to_string()].into_iter().collect(),
            ..Default::default()
        };
        let mut node = make_node(0, config);
        node.receive(vec![
            TupleDelta::insert("link", link(0, 1, 5.0)),
            TupleDelta::insert(
                "path_sp2_xd",
                Tuple::new(vec![addr(0), addr(1), Value::Float(5.0)]),
            ),
        ]);
        let changes = node.process().unwrap().changes;
        let reported = |relation: &str, sign: Sign| {
            changes
                .iter()
                .any(|d| d.relation == *relation && d.sign == sign)
        };
        assert!(reported("shortestPath", Sign::Insert));
        assert!(reported("path", Sign::Insert));
        assert!(changes
            .iter()
            .all(|d| d.relation == "shortestPath" || d.relation == "path"));

        // Deleting the link retracts the derived shortest path: the
        // tracked-relation log holds the exact retraction, not a silent
        // disappearance.
        node.receive(vec![TupleDelta::delete("link", link(0, 1, 5.0))]);
        let retractions = node.process().unwrap().changes;
        assert!(retractions
            .iter()
            .any(|d| d.relation == "shortestPath" && d.sign == Sign::Delete));
        assert!(node.store().tuples("shortestPath").is_empty());
    }

    #[test]
    fn a_crash_retracts_every_tracked_tuple_once() {
        let mut node = make_node(0, NodeConfig::default());
        node.receive(vec![
            TupleDelta::insert("link", link(0, 1, 5.0)),
            TupleDelta::insert("link", link(0, 2, 1.0)),
        ]);
        node.process().unwrap();
        let tracked = node.store().tuples("shortestPath");
        assert_eq!(tracked.len(), 2);
        assert!(node.store().count("link") > 0 && node.store().count("spCost") > 0);

        // Exactly one retraction per stored `shortestPath` tuple, the
        // plan's query relation, and none of the untracked `link`, `path`
        // or `spCost` tuples the crash also loses.
        let retracted = node.crash_reset();
        let expected: Vec<TupleDelta> = tracked
            .into_iter()
            .map(|tuple| TupleDelta::delete("shortestPath", tuple))
            .collect();
        assert_eq!(retracted, expected);
        assert_eq!(node.store().total_tuples(), 0);
        let after = node.process().unwrap();
        assert!(after.changes.is_empty() && after.outbound.is_empty());
    }

    #[test]
    fn a_failed_run_leaks_no_shipped_derivation() {
        // r1 ships `out` to node 3 in the first round; r2's local `b` fires
        // r3 in a later round, whose filter is a type error on a string.
        let program = ndlog_lang::parse_program(
            r#"
            materialize(link, keys(1,2)).
            materialize(a, keys(1,2)).
            materialize(b, keys(1,2)).
            materialize(c, keys(1,2)).
            materialize(out, keys(1,2)).
            r1 out(@D, @S) :- #link(@S, @D), a(@S, N).
            r2 b(@S, N) :- a(@S, N).
            r3 c(@S, N) :- b(@S, N), N + 1 > 0.
            "#,
        )
        .unwrap();
        let mut failing = node_running(&program, 0, NodeConfig::default());
        failing.receive(vec![
            TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(3)])),
            TupleDelta::insert("a", Tuple::new(vec![addr(0), Value::str("x")])),
        ]);
        let mut buffers = EvalBuffers::default();
        assert!(matches!(
            failing.process_with(&mut buffers),
            Err(EvalError::TypeMismatch { .. })
        ));

        // The next node the buffers serve sends only what it derived.
        let mut next = make_node(5, NodeConfig::default());
        next.receive(vec![TupleDelta::insert("link", link(5, 6, 1.0))]);
        let out = next.process_with(&mut buffers).unwrap();
        assert_eq!(out.outbound.keys().collect::<Vec<_>>(), [&NodeAddr(6)]);
        assert!(out.outbound[&NodeAddr(6)]
            .iter()
            .all(|d| d.relation == "path_sp2_xd"));
    }

    #[test]
    fn periodic_flush_holds_and_dedups_outbound_paths() {
        let mut node = node_extending_to_0(Some(100_000));
        // Two successively better paths to 9 (via different next hops, so no
        // primary-key replacement) arrive within one flush window.
        node.receive(vec![TupleDelta::insert("path", path(1, 2, 5.0))]);
        let out1 = node.process().unwrap();
        node.receive(vec![TupleDelta::insert("path", path(1, 3, 3.0))]);
        let out2 = node.process().unwrap();
        // Nothing was sent immediately; a flush was requested.
        assert!(out1.outbound.is_empty() && out2.outbound.is_empty());
        assert!(out1.request_flush);
        // The flush sends only the better of the two buffered extensions.
        let flushed = node.flush();
        let to_0 = &flushed[&NodeAddr(0)];
        let path_msgs: Vec<_> = to_0.iter().filter(|d| d.relation == "path").collect();
        assert_eq!(path_msgs.len(), 1);
        assert_eq!(path_msgs[0].tuple.get(4), Some(&Value::Float(4.0)));
        // Flushing again sends nothing.
        assert!(node.flush().is_empty());
    }

    #[test]
    fn sharing_delay_holds_all_outbound() {
        let config = NodeConfig {
            sharing_delay: Some(300_000),
            ..Default::default()
        };
        let mut node = make_node(0, config);
        node.receive(vec![TupleDelta::insert("link", link(0, 1, 5.0))]);
        let out = node.process().unwrap();
        assert!(out.outbound.is_empty());
        assert!(out.request_flush);
        let flushed = node.flush();
        assert!(flushed.contains_key(&NodeAddr(1)));
        assert_eq!(node.flush_interval(), Some(300_000));
    }

    #[test]
    fn soft_state_expiry_queues_deletions() {
        let program = ndlog_lang::parse_program(
            r#"
            materialize(ping, keys(1,2), ttl(1)).
            materialize(alive, keys(1,2)).
            a1 alive(@S,@D) :- ping(@S,@D).
            "#,
        )
        .unwrap();
        let mut node = node_running(&program, 0, NodeConfig::default());
        node.receive(vec![TupleDelta::insert(
            "ping",
            Tuple::new(vec![addr(0), addr(1)]),
        )]);
        node.process().unwrap();
        assert_eq!(node.store().count("alive"), 1);
        node.expire_soft_state(2_000_000);
        node.process().unwrap();
        assert_eq!(node.store().count("ping"), 0);
        assert_eq!(node.store().count("alive"), 0, "derived tuple retracted");
    }

    /// Every secondary index a node declares for `program`, per relation.
    fn declared_indexes(program: &ndlog_lang::Program) -> Vec<(String, Vec<Vec<usize>>)> {
        let node = node_running(program, 0, NodeConfig::default());
        let store = node.store();
        let indexed = store.relation_names().filter_map(|name| {
            let relation = store.relation(name).unwrap();
            let mut sigs: Vec<Vec<usize>> = relation
                .index_signatures()
                .map(|sig| sig.columns().to_vec())
                .collect();
            sigs.sort();
            (!sigs.is_empty()).then(|| (name.to_string(), sigs))
        });
        indexed.collect()
    }

    #[test]
    fn declared_indexes_are_exactly_what_the_plans_probe() {
        // Every index is one a forward strand or a re-derivation plan
        // probes; an index costs every node memory and every insert a
        // bucket update, so a signature appearing here or leaving is a
        // decision. `path[0,1,4]` / `route[0,1,3]` are sp4's / dv4's join
        // on (S, D, C). The plans also probe `link[0,1]`, `link[0,1,2]`
        // (sp1's / dv1's re-derivation), `spCost[0,1]` / `bestCost[0,1]`
        // and `spCost[0,1,2]` / `bestCost[0,1,2]`: each binds the whole
        // (S, D) key of its relation, so the primary index answers and no
        // secondary index is built.
        let sigs = |sets: &[(&str, &[&[usize]])]| -> Vec<(String, Vec<Vec<usize>>)> {
            let cols = |set: &[&[usize]]| set.iter().map(|sig| sig.to_vec()).collect();
            let named = sets.iter().map(|(name, set)| (name.to_string(), cols(set)));
            named.collect()
        };
        assert_eq!(
            declared_indexes(&programs::shortest_path("")),
            sigs(&[
                ("link", &[&[0], &[1]]),
                ("path", &[&[0], &[0, 1], &[0, 1, 4]]),
                ("path_sp2_xd", &[&[0, 1]]),
            ])
        );
        assert_eq!(
            declared_indexes(&programs::distance_vector("", 2)),
            sigs(&[
                ("link", &[&[0]]),
                ("route", &[&[0], &[0, 1], &[0, 1, 3]]),
                ("route_dv2_xd", &[&[0, 1]]),
            ])
        );
        // What `route_sparse_1k` runs: the source-routing pipeline's output,
        // `magicSrc` guarding sd1 and `magicDst` guarding sd4. Both magic
        // tables are keyed on their one column, so their probes take the
        // primary index and build nothing.
        use ndlog_lang::optimizer::{optimize, PassSet};
        let pipeline = programs::source_routing_pipeline("").with_passes(PassSet::ALL);
        let base = programs::shortest_path_source_routing_base("");
        let routing = optimize(&base, &pipeline).unwrap().program;
        assert_eq!(
            declared_indexes(&routing),
            sigs(&[
                ("link", &[&[0]]),
                ("pathDst", &[&[0], &[0, 1], &[0, 1, 4], &[1]]),
                ("spCost", &[&[0]]),
            ])
        );
    }
}

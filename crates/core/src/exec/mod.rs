//! Parallel epoch execution: deterministic multi-threaded evaluation of
//! the distributed engine.
//!
//! The per-node engines are fully state-partitioned — each
//! [`crate::node::NodeEngine`] owns its store and talks to the rest of the
//! network only through simulator messages — which is precisely the
//! precondition for *conservative* parallel discrete-event simulation.
//! This module is the layer between the simulator and the per-node
//! evaluators that exploits it:
//!
//! | module | role |
//! |---|---|
//! | [`executor`] | per-epoch scoped lanes pulling per-node items, delivery coalescing, effect pre-serialization and the deterministic `(time, seq)` merge |
//! | [`arena`] | per-node pools recycling wire-payload buffers through the send → simulate → receive cycle |
//!
//! The engine drives it: [`crate::engine::DistributedEngine::run_until`]
//! drains the simulator in epochs ([`ndlog_net::Simulator::drain_epoch`]),
//! hands each epoch to the [`executor::EpochExecutor`], and replays the
//! merged outcomes — pre-timestamped result records, pre-sized outbound
//! batches, flush timers — back into the simulator in the exact order the
//! sequential loop would have produced them. The executor runs an epoch on
//! the calling thread plus, when more than one node is active and more
//! than one thread is configured, [`std::thread::scope`] threads that
//! live for that epoch only. The formerly serial half of
//! each epoch (rendering tracked changes into result records and walking
//! every outbound tuple for wire-size accounting) is computed inside the
//! lanes; the replay tail only appends buffers in `(time, seq)` order. A
//! run with `parallelism = N` is therefore bit-for-bit identical to
//! `parallelism = 1`: same stores, same statistics, same message trace
//! (see the determinism contract in [`executor`]).
//!
//! The lanes also own the memory evaluation runs in: a node engine keeps
//! its state and nothing else, and each lane lends the one
//! `ndlog_runtime::EvalBuffers` the executor keeps for it to every node it
//! drains, in every epoch ([`executor`]); lane 0's also serve the engine's
//! inject path between epochs. The buffers grow to the widest batch a
//! lane has seen and carry capacity only, so their cost is per lane — not
//! per simulated node, of which one process hosts hundreds — and lane
//! assignment stays unobservable.
//!
//! Two allocation-level optimizations ride on the same structure without
//! weakening that contract. *Delivery coalescing* merges each run of
//! consecutive same-node deliveries within an epoch into one receive
//! batch, so `NodeEngine::process` fires the strands' batch plans over
//! wide delta batches instead of single-row rounds; the merge structure is
//! fixed before lanes run, so it is thread-count invariant (see
//! [`executor`]). *Wire-buffer pooling* ([`arena`]) recycles every
//! delivered payload vector back into the receiving node's pool, from
//! which the node's own send path rents its next outbound batches —
//! payload buffers move end to end (node → simulator → node) and are
//! reused instead of reallocated.

pub mod arena;
pub mod executor;

pub use arena::{ArenaStats, DeltaArena};
pub use executor::{
    outbound_batches, result_records, EpochExecutor, EpochOutcome, EpochResult, NodeAction,
    NodeTask, OutboundBatch,
};

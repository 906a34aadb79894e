//! Network substrate for the declarative networking engine.
//!
//! This crate stands in for the physical infrastructure used in the paper's
//! evaluation (100 machines on the Emulab testbed over GT-ITM transit-stub
//! topologies). It provides:
//!
//! * [`NodeAddr`] — network addresses used as NDlog location specifiers.
//! * [`Topology`] — an undirected, weighted network graph with per-link
//!   latency, reliability, bandwidth and a random metric.
//! * [`gtitm`] — a transit-stub topology generator with the paper's
//!   parameters (4 transit nodes, 3 stubs per transit node, 8 nodes per
//!   stub, 50 ms / 10 ms / 2 ms latencies, 10 Mbps links).
//! * [`overlay`] — overlay construction: each overlay node picks `k` random
//!   neighbors and derives link metrics from the underlying topology.
//! * [`sim`] — a deterministic discrete-event simulator with per-link FIFO
//!   delivery (the precondition of Theorem 4) and latency modelling.
//! * [`stats`] — communication accounting: per-node bandwidth time series,
//!   aggregate transfer volume and convergence bookkeeping, matching the
//!   metrics reported in Section 6 of the paper.
//!
//! * [`fault`] — deterministic fault injection: a [`FaultPlan`] attached
//!   to the simulator applies per-link loss, delay jitter, duplication,
//!   scheduled partitions and node crash/rejoin waves. Every random
//!   decision is drawn from a generator seeded by `(plan seed, time, seq,
//!   link)` — keyed, not streamed — so fault runs are replayable from the
//!   seed and bit-identical across executor thread counts; see the module
//!   docs for the full determinism contract.
//!
//! The simulator is deterministic given a seed, which makes every
//! experiment in `ndlog-bench` repeatable bit-for-bit. Events are drained
//! in *epochs* ([`sim::Simulator::drain_epoch`]): all events sharing the next
//! timestamp, or within a conservative lookahead window bounded by the
//! minimum link propagation delay ([`sim::Simulator::min_link_delay`]).
//! Epochs are what the parallel executor in `ndlog-core::exec` shards
//! across worker threads; each drained event carries its `(time, seq)` key
//! so concurrently computed effects can be merged back into exactly the
//! sequential order, keeping multi-threaded runs bit-for-bit identical to
//! single-threaded ones.

#![forbid(unsafe_code)]

pub mod address;
pub mod fault;
pub mod gtitm;
pub mod message;
pub mod overlay;
pub mod sim;
pub mod stats;
pub mod topology;

pub use address::NodeAddr;
pub use fault::{Crash, FaultPlan, FaultStats, LinkFaults, Partition};
pub use message::{Message, Payload};
pub use overlay::{Overlay, OverlayConfig, OverlayLink};
pub use sim::{EventKind, SimConfig, SimTime, Simulator, TimedEvent};
pub use stats::{BandwidthSeries, NetStats};
pub use topology::{LinkMetrics, Topology, TopologyError};

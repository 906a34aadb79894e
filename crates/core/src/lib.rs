//! The distributed declarative networking engine — the analogue of the P2
//! system used in the paper's evaluation.
//!
//! The engine takes NDlog programs, plans them (validation → rule
//! localization → semi-naive strand generation → aggregate-view and
//! aggregate-selection extraction), instantiates one [`node::NodeEngine`]
//! per overlay node, and executes the resulting dataflow over the
//! discrete-event network simulator from `ndlog-net`, with per-link FIFO
//! delivery and byte-level communication accounting.
//!
//! | module | role |
//! |---|---|
//! | [`mod@plan`] | the query planner: program → [`plan::QueryPlan`] |
//! | [`node`] | a single node's engine: store, strands, views, PSN queue, aggregate selections, outbound buffering |
//! | [`engine`] | the distributed executor: event loop, messaging, convergence/result tracking |
//! | [`exec`] | parallel epoch executor: scoped lanes per epoch, deterministic merge |
//! | [`sharing`] | opportunistic message sharing (Section 5.2) |
//! | [`updates`] | bursty update workloads (Section 4 / Section 6.5) |
//! | [`consistency`] | helpers to check distributed results against the centralized evaluator (Theorem 4) |

#![forbid(unsafe_code)]

pub mod consistency;
pub mod engine;
pub mod exec;
pub mod node;
pub mod plan;
pub mod sharing;
pub mod updates;

pub use engine::{
    ConvergenceReport, DeliveryStats, DistributedEngine, EngineConfig, FaultRepairReport,
    RefreshConfig, RunReport,
};
pub use exec::EpochExecutor;
pub use node::{ArenaStats, KeptCapacity, NodeConfig, NodeEngine};
pub use plan::{plan, QueryPlan};
pub use updates::{LinkUpdate, UpdateWorkload};

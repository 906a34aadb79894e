//! Facade crate for the NDlog declarative-networking workspace.
//!
//! The implementation lives in the member crates; this crate re-exports
//! their public roots so downstream users (and the workspace-level
//! integration tests under `tests/` and programs under `examples/`) can
//! depend on a single package:
//!
//! * [`lang`] — the NDlog language frontend (parser, validation,
//!   localization, semi-naive rewrite, canonical programs);
//! * [`net`] — topologies, overlays and the deterministic discrete-event
//!   network simulator;
//! * [`runtime`] — single-node evaluation: indexed relations, compiled
//!   rule strands with probe plans, SN/BSN/PSN evaluators;
//! * [`core`] — the distributed engine: planning, per-node engines and the
//!   event loop with communication accounting;
//! * [`serve`] — the interactive shell and line-protocol network service
//!   with live incremental query subscriptions.

#![forbid(unsafe_code)]

pub use ndlog_core as core;
pub use ndlog_lang as lang;
pub use ndlog_net as net;
pub use ndlog_runtime as runtime;
pub use ndlog_serve as serve;

//! Experiment harness for the paper's evaluation (Section 6).
//!
//! The harness reproduces every figure of the evaluation:
//!
//! | figure | experiment | function |
//! |---|---|---|
//! | 7 / 8 | aggregate selections: per-node bandwidth and % results over time for the four metric queries | [`experiments::aggregate_selections`] |
//! | 9 / 10 | periodic aggregate selections | [`experiments::periodic_aggregate_selections`] |
//! | 11 | magic sets, predicate reordering and caching: aggregate communication vs number of queries | [`experiments::magic_sets`] |
//! | 12 | opportunistic message sharing across three concurrent metric queries | [`experiments::message_sharing`] |
//! | 13 | incremental evaluation under bursty updates (10 s interval) | [`experiments::incremental_updates`] |
//! | 14 | incremental evaluation under interleaved 2 s / 8 s bursts | [`experiments::incremental_updates_interleaved`] |
//!
//! Beyond the paper, [`experiments::adversity`] runs a loss × crash-wave
//! grid healed by soft-state refresh and judges every cell against
//! Dijkstra and 1/2-thread bitwise identity.
//!
//! Every experiment can run at [`testbed::Scale::Paper`] (the 100-node
//! Emulab-style transit-stub overlay) or [`testbed::Scale::Small`] (a
//! 14-node topology used by tests and CI so they finish quickly). The
//! `experiments` binary prints each figure's series as a deterministic
//! table on stdout. Nothing here reads a clock: wall-clock performance is
//! measured by the standalone `benchmark/` package (`BENCHMARK.json`).

#![forbid(unsafe_code)]

mod caching;
pub mod experiments;
pub mod testbed;

pub use testbed::{Scale, SourceRoutingSetup, Testbed};

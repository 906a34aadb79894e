//! Offline stand-in for the `serde` facade crate.
//!
//! The workspace builds in environments without a reachable crates
//! registry, so `serde = { package = "ndlog-compat-serde", ... }` aliases
//! this crate to the upstream name. It preserves source compatibility for
//! the subset the codebase uses — `use serde::{Deserialize, Serialize}`
//! and `#[derive(Serialize, Deserialize)]` — without implementing any
//! serialization:
//!
//! * `Serialize` / `Deserialize` are empty marker traits with blanket
//!   implementations, so any bound of the form `T: Serialize` holds;
//! * the derive macros (re-exported from `ndlog-compat-serde-derive`)
//!   expand to nothing.
//!
//! Replacing this with the real serde is a one-line edit to the workspace
//! `[workspace.dependencies]` table; no source file needs to change.

#![forbid(unsafe_code)]

/// Marker stand-in for `serde::Serialize`; blanket-implemented for all types.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`; blanket-implemented for all types.
pub trait Deserialize {}
impl<T: ?Sized> Deserialize for T {}

pub use ndlog_compat_serde_derive::{Deserialize, Serialize};

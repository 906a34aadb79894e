//! Interactive shell and line-protocol network service for NDlog, with
//! live incremental query subscriptions.
//!
//! Two front ends share one [`Service`] — a REPL ([`repl`]) and a TCP
//! line protocol ([`service`], wire format in [`protocol`]). Any number
//! of concurrent [`Session`]s execute the interactive dialect
//! ([`ndlog_lang::interactive`]) against a single incremental engine:
//! every committed update batch is one epoch, reads are
//! snapshot-consistent at epoch boundaries, and `.subscribe` turns the
//! engine's delta-tap into a live stream of exact insert/retract events.
//!
//! # Using the shell
//!
//! `ndlog repl --program examples/programs/...` or interactively:
//!
//! ```text
//! ndlog> materialize(edge, keys(1,2)).
//! materialized edge; epoch 1
//! ndlog> +edge[(1,2), (2,3), (3,4)].
//! applied 3 update(s); epoch 2; 3 derivation(s)
//! ndlog> reach(A,B) :- edge(A,B).
//! added rule r1; epoch 3
//! ndlog> reach(A,C) :- edge(A,B), reach(B,C).
//! added rule r2; epoch 4
//! ndlog> ?- reach(1, _).
//! reach(1, 2)
//! reach(1, 3)
//! reach(1, 4)
//! 3 row(s); epoch 4
//! ndlog> .subscribe reach
//! delta 1 4 +reach(1, 2)
//! delta 1 4 +reach(1, 3)
//! delta 1 4 +reach(1, 4)
//! delta 1 4 +reach(2, 3)
//! delta 1 4 +reach(2, 4)
//! delta 1 4 +reach(3, 4)
//! subscribed reach as #1; 6 tuple(s) in snapshot; epoch 4
//! ndlog> -edge(1,2).
//! delta 1 5 -reach(1, 2)
//! delta 1 5 -reach(1, 3)
//! delta 1 5 -reach(1, 4)
//! applied 1 update(s); epoch 5; 0 derivation(s)
//! ndlog> .quit
//! bye
//! ```
//!
//! Rules added *after* data arrived behave as if they had always existed:
//! the service rebuilds a fresh engine from the extended program and
//! replays its commit log, then streams subscribers the net diff.
//!
//! # Using the service
//!
//! `ndlog serve --listen 127.0.0.1:7090 --program prog.ndlog` serves the
//! same dialect to many clients at once; see [`protocol`] for the wire
//! format and [`client::ScriptClient`] for a scripted driver. All
//! sessions commit into one engine in a global epoch order, and each
//! subscriber receives every matching delta in commit order — a commit's
//! deltas as one frame, one socket write, made after the engine lock is
//! released; a subscriber that stops reading is hung up on
//! ([`service::MAX_BACKLOG_BYTES`]), not waited for.
//!
//! `ndlog smoke` runs a scripted end-to-end TCP session (load program,
//! update, query, subscribe, observe a retraction, dump, quit) and exits
//! non-zero on any mismatch — CI runs it on every push. Service
//! performance is measured by the `serve_mixed` workload of the
//! standalone `benchmark/` package.

#![forbid(unsafe_code)]

pub mod client;
pub mod error;
pub mod protocol;
pub mod repl;
pub mod service;
pub mod session;

pub use error::ServeError;
pub use session::{
    CollectSink, CommittedBatch, DeltaEvent, EventSink, NullSink, Response, Service, Session,
};

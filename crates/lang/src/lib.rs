//! Network Datalog (NDlog) language frontend.
//!
//! NDlog (Section 2 of the paper) is a restricted variant of Datalog for
//! declarative networking. Its distinguishing features are:
//!
//! * every predicate carries a **location specifier** as its first
//!   attribute (`@S`, `@D`, ...), giving the query writer explicit control
//!   over data placement;
//! * **link relations** (`#link(@src, @dst, ...)`) are stored relations that
//!   describe the physical connectivity of the network and may never be
//!   derived;
//! * non-local rules must be **link-restricted** (Definition 5), which
//!   guarantees that a program can be rewritten so that every rule body is
//!   evaluated at a single node and all communication travels along links.
//!
//! This crate provides the complete language pipeline up to (but not
//! including) execution:
//!
//! | module | role |
//! |---|---|
//! | [`value`] | runtime values: addresses, numbers, strings, path vectors |
//! | [`ast`] | programs, rules, literals, atoms, terms, expressions |
//! | [`lexer`] / [`parser`] | text syntax → AST |
//! | [`interactive`] | the shell/service command dialect (`+`, `-`, `?-`, meta) |
//! | [`mod@validate`] | the four NDlog syntactic constraints of Definition 6 |
//! | [`localize`] | the rule-localization rewrite of Algorithm 2 |
//! | [`aggsplit`] | aggregate normal form: any other aggregate rule becomes a plain rule and an aggregate over its relation |
//! | [`seminaive`] | the semi-naive delta rewrite (rule strands) |
//! | [`magic`] | magic-sets rewriting (Section 5.1.2) |
//! | [`reorder`] | predicate reordering: bottom-up ↔ top-down variants |
//! | [`optimizer`] | the rewrite pipeline composing magic + reordering |
//! | [`aggsel`] | aggregate-selection inference (Section 5.1.1) |
//! | [`programs`] | the canonical NDlog programs used by the paper |
//!
//! # Optimizer pipeline
//!
//! Programs reach the planner through [`optimizer::optimize`], which runs
//! the Section 5.1.2 rewrites as composable program-to-program passes in a
//! fixed order:
//!
//! 1. **Predicate reordering** ([`reorder`]) — controls the join order
//!    (bottom-up `LinkFirst` vs top-down `LinkLast`); constraints always
//!    trail the predicates.
//! 2. **Magic sets** ([`magic`]) — one [`optimizer::MagicSpec`] per
//!    constrained recursion prepends a magic guard to the base rules and
//!    registers the magic table's materialization; running after the
//!    reorder pass guarantees the guard stays at body position 0.
//!
//! Both passes preserve the queried results (magic restricted to the
//! seeded constants), and the [`optimizer::Report`] records the applied
//! passes and `b`/`f` adornments. The canonical magic variants in
//! [`programs`] are *derived* through this pipeline rather than written by
//! hand, and the experiment/serve layers use the same entry point, so
//! optimized and unoptimized executions differ only by the pipeline
//! configuration. Nothing downstream revisits these decisions with runtime
//! statistics: a join's access path is fixed by the bound columns the
//! rewritten body leaves it (see `ndlog-runtime`'s relation docs).
//!
//! The execution engines live in `ndlog-runtime` (single node) and
//! `ndlog-core` (distributed).

#![forbid(unsafe_code)]

pub mod aggsel;
pub mod aggsplit;
pub mod ast;
pub mod error;
pub mod interactive;
pub mod lexer;
pub mod localize;
pub mod magic;
pub mod optimizer;
pub mod parser;
pub mod programs;
pub mod reorder;
pub mod seminaive;
pub mod validate;
pub mod value;

pub use ast::{
    AggFunc, Aggregate, Assignment, Atom, BinOp, Expr, Literal, Program, Rule, TableDecl, Term,
    Variable,
};
pub use error::{LangError, ParseError, ValidationError};
pub use interactive::{parse_command, Command, MetaCommand};
pub use optimizer::{optimize, MagicSpec, Optimized, PassSet, Pipeline};
pub use parser::parse_program;
pub use validate::validate;
pub use value::Value;

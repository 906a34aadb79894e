//! The optimizer pipeline: program → rewrite passes → planned program.
//!
//! The seed modules [`crate::magic`] and [`crate::reorder`] implement the
//! paper's Section 5.1.2 rewrites as standalone functions; before this
//! module existed every caller (the figure experiments, the canonical
//! program builders) invoked them ad hoc and by hand — including manually
//! inserting the magic seed facts under hard-coded relation names. The
//! pipeline makes the composition explicit and reusable:
//!
//! ```text
//! Program ──reorder pass──▶ Program ──magic pass──▶ Optimized{program, report}
//! ```
//!
//! **Pass order invariants**
//!
//! 1. *Reorder runs first.* [`reorder_program`] permutes body predicates
//!    (constraints always trail), so running it before the magic pass
//!    guarantees the magic guard literal — prepended by
//!    [`magic_rewrite`] — always ends up at body position 0, where the
//!    planner evaluates it before anything else. That position is what
//!    makes the rewrite a *filter*: no work happens for tuples outside the
//!    magic set.
//! 2. *Magic specs apply in order.* Each [`MagicSpec`] rewrites the base
//!    rules of one recursive relation and registers a `keys(1)`
//!    materialization for its magic table (unless the program already
//!    declares one), so the optimized program is self-contained — callers
//!    only have to seed the magic tables with the constants of interest
//!    (see [`MagicSpec::seed`]).
//! 3. *Passes are semantics-preserving* on the queried tuples: reordering
//!    never changes results, and magic rewriting restricts derivations to
//!    those reachable from the seeded constants — the differential suite
//!    in `tests/optimizer.rs` holds both equivalences across strategies
//!    and thread counts.
//!
//! The [`Report`] records which passes ran and the adornment (`b`/`f`
//! binding pattern) of every magic rewrite, so experiment tables and the
//! serve layer can display what the pipeline actually did. Downstream, the
//! planner (`ndlog-core`) consumes the optimized program exactly like a
//! hand-written one, and the runtime gives each join the one access path
//! its bound columns declare — no cost model ranks them afterwards.

use crate::ast::{Program, TableDecl};
use crate::error::LangError;
use crate::magic::{magic_rewrite, MagicBinding};
use crate::reorder::{reorder_program, BodyOrder};
use crate::value::Value;

/// Which optimizer passes are enabled. Parsed from the `--optimize`
/// experiment flag (`off`/`magic`/`reorder`/`all`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassSet {
    /// Apply the magic-sets rewrites of the pipeline's [`MagicSpec`]s.
    pub magic: bool,
    /// Apply the predicate-reordering pass.
    pub reorder: bool,
}

impl PassSet {
    /// Every pass enabled.
    pub const ALL: PassSet = PassSet {
        magic: true,
        reorder: true,
    };
    /// No passes; [`optimize`] returns the program unchanged.
    pub const OFF: PassSet = PassSet {
        magic: false,
        reorder: false,
    };

    /// Parse a `--optimize` argument.
    pub fn parse(text: &str) -> Option<PassSet> {
        match text {
            "off" => Some(PassSet::OFF),
            "magic" => Some(PassSet {
                magic: true,
                reorder: false,
            }),
            "reorder" => Some(PassSet {
                magic: false,
                reorder: true,
            }),
            "all" => Some(PassSet::ALL),
            _ => None,
        }
    }

    /// The canonical flag spelling for this set.
    pub fn label(&self) -> &'static str {
        match (self.magic, self.reorder) {
            (false, false) => "off",
            (true, false) => "magic",
            (false, true) => "reorder",
            (true, true) => "all",
        }
    }
}

/// One magic-sets rewrite: restrict `relation`'s recursion by a magic
/// table bound to one head argument of its base rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MagicSpec {
    /// The recursive relation whose base rules are guarded.
    pub relation: String,
    /// The magic table consulted by the guard; seeded by the caller.
    pub magic_relation: String,
    /// Which head argument the magic table binds.
    pub binding: MagicBinding,
}

impl MagicSpec {
    /// Convenience constructor.
    pub fn new(
        relation: impl Into<String>,
        magic_relation: impl Into<String>,
        binding: MagicBinding,
    ) -> MagicSpec {
        MagicSpec {
            relation: relation.into(),
            magic_relation: magic_relation.into(),
            binding,
        }
    }

    /// The fact that seeds this magic table with one constant of
    /// interest: `(relation, args)` ready for `insert_base`. Callers
    /// derive seed insertion from the pipeline instead of hard-coding
    /// magic relation names.
    pub fn seed(&self, constant: Value) -> (String, Vec<Value>) {
        (self.magic_relation.clone(), vec![constant])
    }
}

/// A configured optimizer pipeline: which passes run and their inputs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pipeline {
    /// Enabled passes. Disabled passes skip their rewrite even when the
    /// pipeline carries specs for them, so one pipeline can be run at
    /// every `--optimize` level.
    pub passes: PassSet,
    /// Magic-sets rewrites, applied in order when `passes.magic`.
    pub magic: Vec<MagicSpec>,
    /// Body order for the reorder pass when `passes.reorder`.
    pub order: Option<BodyOrder>,
}

impl Default for PassSet {
    fn default() -> PassSet {
        PassSet::OFF
    }
}

impl Pipeline {
    /// A pipeline that performs no rewrites.
    pub fn identity() -> Pipeline {
        Pipeline::default()
    }

    /// A pipeline with every pass enabled and the given inputs.
    pub fn new(magic: Vec<MagicSpec>, order: Option<BodyOrder>) -> Pipeline {
        Pipeline {
            passes: PassSet::ALL,
            magic,
            order,
        }
    }

    /// The same pipeline restricted to `passes`.
    pub fn with_passes(mut self, passes: PassSet) -> Pipeline {
        self.passes = passes;
        self
    }

    /// The seed facts for every enabled magic spec, pairing each magic
    /// table with the constant the caller binds it to (looked up by the
    /// guarded relation's name).
    pub fn seeds_for(&self, relation: &str, constant: Value) -> Vec<(String, Vec<Value>)> {
        if !self.passes.magic {
            return Vec::new();
        }
        self.magic
            .iter()
            .filter(|s| s.relation == relation)
            .map(|s| s.seed(constant.clone()))
            .collect()
    }
}

/// The binding pattern of a magic rewrite: one `b` (bound) or `f` (free)
/// per head argument of the guarded relation, e.g. `fbfff` for a 5-ary
/// relation bound on its second argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adornment {
    /// The guarded relation.
    pub relation: String,
    /// The magic table introduced for it.
    pub magic_relation: String,
    /// The `b`/`f` pattern over the relation's arguments.
    pub pattern: String,
}

/// What the pipeline actually did to a program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// Whether the reorder pass ran (enabled and an order was configured).
    pub reordered: Option<BodyOrder>,
    /// One adornment per magic rewrite applied.
    pub magic: Vec<Adornment>,
}

impl Report {
    /// Human-readable one-line summary, e.g.
    /// `reorder(link-last) + magic(path^fbfff)`.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(order) = self.reordered {
            let o = match order {
                BodyOrder::LinkFirst => "link-first",
                BodyOrder::LinkLast => "link-last",
            };
            parts.push(format!("reorder({o})"));
        }
        for a in &self.magic {
            parts.push(format!("magic({}^{})", a.relation, a.pattern));
        }
        if parts.is_empty() {
            "identity".to_string()
        } else {
            parts.join(" + ")
        }
    }
}

/// The result of running a pipeline: the rewritten program plus a record
/// of the passes applied.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimized {
    /// The rewritten program, ready for planning.
    pub program: Program,
    /// What was done to it.
    pub report: Report,
}

/// Run the pipeline over a program.
///
/// Passes run in the documented order (reorder, then each magic spec).
/// Magic specs whose guarded relation has no base rules are an error, as
/// in [`magic_rewrite`]; an empty pipeline returns the program unchanged
/// with an empty report.
pub fn optimize(program: &Program, pipeline: &Pipeline) -> Result<Optimized, LangError> {
    let mut out = program.clone();
    let mut report = Report::default();
    if pipeline.passes.reorder {
        if let Some(order) = pipeline.order {
            out = reorder_program(&out, order);
            report.reordered = Some(order);
        }
    }
    if pipeline.passes.magic {
        for spec in &pipeline.magic {
            out = magic_rewrite(&out, &spec.relation, &spec.magic_relation, spec.binding)?;
            if out.table_decl(&spec.magic_relation).is_none() {
                out.tables.push(TableDecl {
                    name: spec.magic_relation.clone(),
                    key_columns: vec![0],
                    ttl_seconds: None,
                    arity: Some(1),
                });
            }
            report.magic.push(Adornment {
                relation: spec.relation.clone(),
                magic_relation: spec.magic_relation.clone(),
                pattern: adornment_pattern(&out, spec),
            });
        }
    }
    Ok(Optimized {
        program: out,
        report,
    })
}

/// Compute the `b`/`f` pattern for a magic spec from the guarded
/// relation's head arity (taken from any rule deriving it).
fn adornment_pattern(program: &Program, spec: &MagicSpec) -> String {
    let arity = program
        .rules
        .iter()
        .find(|r| r.head.name == spec.relation)
        .map(|r| r.head.args.len())
        .unwrap_or(0);
    let MagicBinding::HeadArg(pos) = spec.binding;
    (0..arity)
        .map(|i| if i == pos { 'b' } else { 'f' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localize::{is_localized, localize};
    use crate::programs;
    use crate::validate::validate;
    use ndlog_net::NodeAddr;

    #[test]
    fn pass_set_parses_every_flag_level() {
        assert_eq!(PassSet::parse("off"), Some(PassSet::OFF));
        assert_eq!(PassSet::parse("all"), Some(PassSet::ALL));
        assert_eq!(
            PassSet::parse("magic"),
            Some(PassSet {
                magic: true,
                reorder: false
            })
        );
        assert_eq!(
            PassSet::parse("reorder"),
            Some(PassSet {
                magic: false,
                reorder: true
            })
        );
        assert_eq!(PassSet::parse("bogus"), None);
        for level in ["off", "magic", "reorder", "all"] {
            assert_eq!(PassSet::parse(level).unwrap().label(), level);
        }
    }

    #[test]
    fn identity_pipeline_is_a_no_op() {
        let p = programs::shortest_path("");
        let opt = optimize(&p, &Pipeline::identity()).unwrap();
        assert_eq!(opt.program, p);
        assert_eq!(opt.report, Report::default());
        assert_eq!(opt.report.describe(), "identity");
    }

    #[test]
    fn disabled_passes_skip_their_specs() {
        let p = programs::shortest_path("");
        let pipeline = Pipeline::new(
            vec![MagicSpec::new("path", "magicDst", MagicBinding::HeadArg(1))],
            Some(BodyOrder::LinkFirst),
        )
        .with_passes(PassSet::OFF);
        let opt = optimize(&p, &pipeline).unwrap();
        assert_eq!(opt.program, p);
    }

    #[test]
    fn magic_pass_guards_base_rules_and_declares_the_table() {
        let p = programs::shortest_path("");
        let pipeline = Pipeline::new(
            vec![MagicSpec::new("path", "magicDst", MagicBinding::HeadArg(1))],
            None,
        );
        let opt = optimize(&p, &pipeline).unwrap();
        let sp1 = opt.program.rule("sp1").unwrap();
        assert_eq!(sp1.body_atoms().next().unwrap().name, "magicDst");
        let decl = opt.program.table_decl("magicDst").expect("decl added");
        assert_eq!(decl.key_columns, vec![0]);
        assert_eq!(opt.report.magic.len(), 1);
        assert_eq!(opt.report.magic[0].pattern, "fbfff");
        assert_eq!(opt.report.describe(), "magic(path^fbfff)");
        assert!(validate(&opt.program).is_empty());
        assert!(is_localized(&localize(&opt.program).unwrap()));
    }

    #[test]
    fn reorder_runs_before_magic_so_guards_lead_the_body() {
        // Start from the link-first TD base; the pipeline must first make
        // sd2 left-recursive and then prepend the magic guards, leaving
        // them at body position 0.
        let base = programs::shortest_path_source_routing_base("");
        let pipeline = programs::source_routing_pipeline("");
        let opt = optimize(&base, &pipeline).unwrap();
        let sd1 = opt.program.rule("sd1").unwrap();
        assert_eq!(sd1.body_atoms().next().unwrap().name, "magicSrc");
        let sd2 = opt.program.rule("sd2").unwrap();
        let first = sd2.body_atoms().next().unwrap();
        assert_eq!(first.name, "pathDst");
        assert!(!first.link);
        let sd4 = opt.program.rule("sd4").unwrap();
        assert_eq!(sd4.body_atoms().next().unwrap().name, "magicDst");
        assert_eq!(opt.report.magic.len(), 2);
        assert_eq!(opt.report.reordered, Some(BodyOrder::LinkLast));
    }

    #[test]
    fn seeds_derive_from_the_pipeline_specs() {
        let pipeline = programs::source_routing_pipeline("");
        let seeds = pipeline.seeds_for("pathDst", Value::Addr(NodeAddr(7)));
        assert_eq!(
            seeds,
            vec![("magicSrc".to_string(), vec![Value::Addr(NodeAddr(7))])]
        );
        let seeds = pipeline.seeds_for("shortestPath", Value::Addr(NodeAddr(3)));
        assert_eq!(
            seeds,
            vec![("magicDst".to_string(), vec![Value::Addr(NodeAddr(3))])]
        );
        // Disabled magic pass means nothing to seed.
        let off = pipeline.clone().with_passes(PassSet::OFF);
        assert!(off
            .seeds_for("pathDst", Value::Addr(NodeAddr(7)))
            .is_empty());
    }

    #[test]
    fn magic_spec_without_base_rules_errors() {
        let p = programs::shortest_path("");
        let pipeline = Pipeline::new(
            vec![MagicSpec::new("nosuch", "m", MagicBinding::HeadArg(0))],
            None,
        );
        assert!(optimize(&p, &pipeline).is_err());
    }
}

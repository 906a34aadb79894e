//! Batch-delta strand evaluation: slot-compiled rules over flat, reusable
//! environment buffers.
//!
//! [`crate::strand::CompiledStrand::fire`] evaluates one trigger delta at a
//! time, carrying its binding environments as `BTreeMap<String, Value>`s —
//! every join candidate clones a whole map (tree nodes *and* `String`
//! keys), which is the dominant per-tuple constant the profiles show once
//! index probing has removed the join-selectivity cost. This module is the
//! vectorized alternative: at compile time every variable of a rule gets a
//! fixed **slot**, terms and expressions are rewritten to slot references,
//! and at run time a whole batch of trigger deltas is drained through the
//! rule's stages using two flat column buffers (`current` / `next` rows of
//! `width` slots each) of a reusable [`BatchScratch`]. Extending an
//! environment is a row copy into the arena; no per-environment `Vec`,
//! map or `String` is ever allocated.
//!
//! # Who owns the buffers
//!
//! Nobody who evaluates: the row arenas, the output buffer and the
//! per-round vectors of the fixpoint loop are one [`EvalBuffers`] value
//! that [`crate::fixpoint::LocalFixpoint::run`] *borrows* for the length of
//! a run. The owner is whoever drives evaluation and outlives a run — an
//! executor lane of `ndlog-core` (one value serves every node and epoch
//! the lane drains), the centralized [`crate::Evaluator`], the distributed
//! engine's sequential inject path. A process hosting hundreds of node
//! engines therefore keeps as many high-water-mark buffers as it has
//! lanes, not as it has nodes. The buffers carry capacity only: a firing
//! leaves its scratch empty and its output is drained by whoever asked for
//! it, on success and on error alike, so which buffers a run was lent is
//! unobservable.
//!
//! # Key-grouped probe sharing
//!
//! Real delta batches are key-skewed: path exploration and flooding
//! dissemination hand a strand hundreds of triggers that probe the same
//! join key. The probe stage therefore partitions the
//! surviving rows by probe-key value — first-occurrence order, so the
//! grouping is deterministic and independent of interner id assignment —
//! executes **one** index lookup per distinct key
//! ([`crate::relation::Relation::lookup_n`]), runs the member-independent
//! residual checks once per candidate, and broadcasts the shared match
//! set to every group member through offset ranges into a flat match
//! buffer (each member only re-applies the slot *binds* and its own
//! `seq_limit` visibility filter). This is sound because a probe stage's
//! match set depends only on the probe key and the candidate: compilation
//! guarantees every residual `CheckSlot` refers to a slot bound by an
//! earlier column of the same atom (any slot bound by an earlier stage is
//! part of the probe key), so two rows with equal keys accept exactly the
//! same candidates. A stage with a single surviving row has nothing to
//! share and takes the per-row arm (one plain lookup) instead.
//!
//! # Equivalence contract
//!
//! For every trigger `i` of the batch, the derivations in
//! [`BatchOutput::for_trigger`] are exactly (same tuples, same order) what
//! `fire(store, trigger_i, seq_limit_i)` returns against the same store:
//! stages process rows in trigger order and extensions are appended
//! stably, so rows stay grouped by trigger and ordered exactly as the
//! nested tuple-at-a-time loops would have produced them. Join statistics
//! are identical in *logical* terms — one logical probe (or scan) and the
//! full bucket's `tuples_examined` are recorded per environment per atom,
//! exactly like the tuple path. Only `distinct_probes` (the bucket
//! lookups actually executed) differs: batch firing reports one per
//! distinct key per atom, the tuple path one per environment. The only
//! other caller-visible
//! divergence is *error selection* when several triggers of one batch
//! fail: stages run batch-wide, so the first error in stage order may
//! belong to a later trigger than the first error in trigger order (the
//! run still fails with an `EvalError` either way, and engines treat
//! post-error state as unspecified).

use crate::expr::{eval_binop, eval_builtin, EvalError};
use crate::index::JoinStats;
use crate::intern::FxBuild;
use crate::relation::StoredTuple;
use crate::store::Store;
use crate::strand::{Derivation, ProbePlan};
use crate::subplan::ProbeCache;
use crate::tuple::{RelName, Sign, Tuple, TupleDelta};
use ndlog_lang::seminaive::DeltaRule;
use ndlog_lang::{Atom, Expr, Literal, Term, Value};
use std::collections::{BTreeMap, HashMap};

/// One trigger delta of a batch with its join visibility limit (PSN passes
/// the tuple's own timestamp; SN/BSN pass the iteration limit).
#[derive(Debug, Clone, Copy)]
pub struct BatchTrigger<'a> {
    /// The triggering delta.
    pub delta: &'a TupleDelta,
    /// Joins may only see stored tuples with `seq <= seq_limit`.
    pub seq_limit: u64,
}

/// How one bound value is produced at run time.
#[derive(Debug, Clone, PartialEq)]
enum SlotSource {
    Const(Value),
    Slot(usize),
}

/// One column-matching operation of an atom, in column order.
#[derive(Debug, Clone, PartialEq)]
enum BindOp {
    /// The column must equal a constant.
    CheckConst(usize, Value),
    /// The column binds a fresh slot.
    Bind(usize, usize),
    /// The column must equal an already-bound slot (bound by an earlier
    /// stage, or by an earlier column of this very atom).
    CheckSlot(usize, usize),
}

/// An expression with variables resolved to slots at compile time.
#[derive(Debug, Clone, PartialEq)]
enum SlotExpr {
    Const(Value),
    /// A slot reference; the name survives only for the unbound-variable
    /// error message.
    Slot(usize, String),
    /// A variable that is never bound anywhere in the rule: evaluating it
    /// is always an error, exactly like the map-based path.
    Unbound(String),
    Binary(ndlog_lang::BinOp, Box<SlotExpr>, Box<SlotExpr>),
    Call(String, Vec<SlotExpr>),
}

/// A head column source.
#[derive(Debug, Clone, PartialEq)]
enum HeadSource {
    Const(Value),
    Slot(usize, String),
    Unbound(String),
    /// Aggregate head terms are maintained by `AggregateView`, never fired
    /// through strands; raise the same error the tuple path does.
    Aggregate,
}

/// A non-trigger body literal, slot-compiled.
#[derive(Debug, Clone, PartialEq)]
enum Stage {
    Probe {
        relation: String,
        /// Sorted bound columns to probe on (empty = full scan); mirrors
        /// the strand's [`ProbePlan`].
        cols: Vec<usize>,
        /// Value per probe column, parallel to `cols`.
        key: Vec<SlotSource>,
        /// Expected candidate arity.
        arity: usize,
        /// Residual column ops — only the columns the probe key does *not*
        /// already guarantee ([`crate::relation::Relation::lookup`]
        /// enforces every probed column, so re-checking them per candidate
        /// would be redundant work the tuple path still performs).
        ops: Vec<BindOp>,
        /// The atom mentions an aggregate term: no candidate can match
        /// (exactly `bind_atom`'s behaviour).
        reject_all: bool,
    },
    Assign {
        slot: usize,
        /// Statically known: is the slot already bound when this stage
        /// runs? (Binding order is fixed at compile time.)
        prebound: bool,
        expr: SlotExpr,
    },
    Filter(SlotExpr),
}

/// A head column source for the **fused** final stage: when a rule's last
/// stage is its probe (the common single-join shape), the surviving
/// `(member row, candidate)` pairs project their head tuples directly, so
/// no output row arena is ever materialized for that stage. Each head
/// column reads either from the pre-final row or from the candidate tuple
/// (for slots the final atom's `Bind` ops would have written).
#[derive(Debug, Clone, PartialEq)]
enum FusedSource {
    Const(Value),
    /// Read from a slot bound before the final stage.
    Row(usize, String),
    /// Read from a column of the final probe's candidate tuple.
    Cand(usize),
    Unbound(String),
    Aggregate,
}

/// A slot-compiled rule strand.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    /// Total slot count (row width).
    width: usize,
    /// Trigger-tuple arity.
    trigger_arity: usize,
    /// Trigger-atom column ops.
    trigger_ops: Vec<BindOp>,
    /// The trigger atom mentions an aggregate term: nothing can bind.
    trigger_rejects: bool,
    stages: Vec<Stage>,
    head: Vec<HeadSource>,
    /// `Some` iff the last stage is a probe: the head re-expressed against
    /// (pre-final row, candidate), enabling final-stage fusion.
    fused_head: Option<Vec<FusedSource>>,
    /// The head relation's name, held once: every derivation clones it by
    /// reference count.
    head_relation: RelName,
}

/// Reusable flat buffers for batch firing: environment rows (`width`
/// slots per row, `Option<Value>` so unbound slots are explicit), the
/// trigger index each row descends from, a probe-key scratch, and the
/// key-grouping buffers of the shared-probe stage. One scratch serves any
/// number of strands, batches and stores; buffers only grow.
#[derive(Debug, Default)]
pub struct BatchScratch {
    rows: Vec<Option<Value>>,
    origins: Vec<u32>,
    next_rows: Vec<Option<Value>>,
    next_origins: Vec<u32>,
    key: Vec<Value>,
    /// Per row: the probe-key group it belongs to (grouped stages only).
    group_of: Vec<u32>,
    /// Per group: its member count (the `lookup_n` multiplier).
    group_sizes: Vec<u32>,
    /// Probe key → group index, under the crate's seedless hasher so two
    /// runs of one input build the same table. Group numbering is
    /// first-occurrence order and every observable is addressed through
    /// it, so nothing depends on hashing or iteration order — which pass 2
    /// of [`group_and_probe`] relies on when it walks the map.
    group_map: HashMap<Box<[Value]>, u32, FxBuild>,
    /// Per group: the `(start, end)` range of its shared match set in the
    /// flat match buffer.
    group_ranges: Vec<(u32, u32)>,
    /// Reusable row for the once-per-candidate residual check.
    probe_row: Vec<Option<Value>>,
    /// The fields of the head tuple being projected; drained into the
    /// tuple's one allocation.
    head: Vec<Value>,
}

impl BatchScratch {
    /// Drop every value a firing left behind, keeping the capacity.
    fn clear(&mut self) {
        self.rows.clear();
        self.origins.clear();
        self.next_rows.clear();
        self.next_origins.clear();
        self.key.clear();
        self.group_map.clear();
        self.probe_row.clear();
        self.head.clear();
    }
}

/// The derivations of one batch, grouped by trigger.
#[derive(Debug, Default)]
pub struct BatchOutput {
    derivations: Vec<Derivation>,
    /// `offsets[i]..offsets[i + 1]` bounds trigger `i`'s derivations.
    offsets: Vec<usize>,
}

/// The buffers a fixpoint run evaluates in, lent to it by whoever drives
/// evaluation (see the module docs): the row arenas and output buffer of
/// batch firing plus the per-round vectors of the fixpoint loop. Capacity
/// only, never state.
#[derive(Debug, Default)]
pub struct EvalBuffers {
    pub(crate) scratch: BatchScratch,
    pub(crate) out: BatchOutput,
    /// Per trigger of the round being fired: its derivations over every
    /// strand, in firing order. The inner vectors are drained as the round
    /// is consumed and keep their capacity for the next one.
    pub(crate) per_trigger: Vec<Vec<Derivation>>,
    /// Per trigger of the round: is its tuple still stored?
    pub(crate) live: Vec<bool>,
    /// Per trigger of one strand's batch: its position in the round.
    pub(crate) indices: Vec<usize>,
}

impl BatchOutput {
    /// Clear for reuse.
    pub fn clear(&mut self) {
        self.derivations.clear();
        self.offsets.clear();
    }

    /// Append the derivation of the head tuple whose fields are in `head`:
    /// they are drained into the tuple's one allocation, of exactly their
    /// size, and the relation's name is shared.
    fn push(&mut self, head: &mut Vec<Value>, relation: &RelName, sign: Sign) {
        let tuple: Tuple = head.drain(..).collect();
        let location = tuple.location();
        self.derivations.push(Derivation {
            delta: TupleDelta {
                relation: relation.clone(),
                tuple,
                sign,
            },
            location,
        });
    }

    /// The derivations of trigger `i`, in firing order.
    pub fn for_trigger(&self, i: usize) -> &[Derivation] {
        &self.derivations[self.offsets[i]..self.offsets[i + 1]]
    }

    /// All derivations in (trigger, firing) order.
    pub fn all(&self) -> &[Derivation] {
        &self.derivations
    }

    /// Move the derivations out, calling `f(trigger_index, derivation)` in
    /// (trigger, firing) order. Leaves the output empty for reuse.
    pub fn drain_into(&mut self, mut f: impl FnMut(usize, Derivation)) {
        let mut group = 0usize;
        for (pos, d) in self.derivations.drain(..).enumerate() {
            while group + 1 < self.offsets.len() && self.offsets[group + 1] <= pos {
                group += 1;
            }
            f(group, d);
        }
        self.offsets.clear();
    }
}

/// Compile a delta rule against its probe plans (parallel to the rule's
/// body literals, as produced by the strand compiler).
pub(crate) fn compile(rule: &DeltaRule, plans: &[Option<ProbePlan>]) -> BatchPlan {
    let body = &rule.rule.body;
    // Slot allocation follows the same walk as probe-plan compilation:
    // trigger vars first, then each literal in body order.
    let mut slots: BTreeMap<String, usize> = BTreeMap::new();
    let mut slot_of = |name: &str, slots: &mut BTreeMap<String, usize>| -> usize {
        if let Some(&s) = slots.get(name) {
            return s;
        }
        let s = slots.len();
        slots.insert(name.to_string(), s);
        s
    };

    let (trigger_arity, trigger_ops, trigger_rejects) = match body.get(rule.trigger) {
        Some(Literal::Atom(atom)) => {
            let (ops, rejects) = compile_atom_ops(atom, &[], &mut slots, &mut slot_of);
            (atom.arity(), ops, rejects)
        }
        _ => (0, Vec::new(), true),
    };

    let mut stages = Vec::new();
    for (idx, literal) in body.iter().enumerate() {
        if idx == rule.trigger {
            continue;
        }
        match literal {
            Literal::Atom(atom) => {
                let plan = plans.get(idx).and_then(Option::as_ref);
                let (cols, key) = match plan {
                    Some(plan) => (
                        plan.cols.clone(),
                        plan.sources
                            .iter()
                            .map(|src| match src {
                                crate::strand::ColumnSource::Const(c) => {
                                    SlotSource::Const(c.clone())
                                }
                                crate::strand::ColumnSource::Var(name) => {
                                    SlotSource::Slot(*slots.get(name).expect("plan vars are bound"))
                                }
                            })
                            .collect(),
                    ),
                    None => (Vec::new(), Vec::new()),
                };
                let (ops, reject_all) = compile_atom_ops(atom, &cols, &mut slots, &mut slot_of);
                stages.push(Stage::Probe {
                    relation: atom.name.clone(),
                    cols,
                    key,
                    arity: atom.arity(),
                    ops,
                    reject_all,
                });
            }
            Literal::Assign(assign) => {
                let prebound = slots.contains_key(&assign.var);
                let expr = compile_expr(&assign.expr, &slots);
                let slot = slot_of(&assign.var, &mut slots);
                stages.push(Stage::Assign {
                    slot,
                    prebound,
                    expr,
                });
            }
            Literal::Filter(expr) => {
                stages.push(Stage::Filter(compile_expr(expr, &slots)));
            }
        }
    }

    let head: Vec<HeadSource> = rule
        .rule
        .head
        .args
        .iter()
        .map(|term| match term {
            Term::Const(c) => HeadSource::Const(c.clone()),
            Term::Var(v) => match slots.get(&v.name) {
                Some(&s) => HeadSource::Slot(s, v.name.clone()),
                None => HeadSource::Unbound(v.name.clone()),
            },
            Term::Agg(_) => HeadSource::Aggregate,
        })
        .collect();

    // Final-stage fusion: when the last stage is a probe, its `Bind` ops
    // are the only writes between the pre-final rows and head projection,
    // so every head column can be re-expressed as "read the row" or "read
    // the candidate" (a `Bind` only ever targets a slot no earlier stage
    // bound, so the mapping is unambiguous).
    let fused_head = match stages.last() {
        Some(Stage::Probe { ops, .. }) => {
            let col_of_slot: BTreeMap<usize, usize> = ops
                .iter()
                .filter_map(|op| match op {
                    BindOp::Bind(col, slot) => Some((*slot, *col)),
                    _ => None,
                })
                .collect();
            Some(
                head.iter()
                    .map(|source| match source {
                        HeadSource::Const(c) => FusedSource::Const(c.clone()),
                        HeadSource::Slot(s, name) => match col_of_slot.get(s) {
                            Some(&col) => FusedSource::Cand(col),
                            None => FusedSource::Row(*s, name.clone()),
                        },
                        HeadSource::Unbound(name) => FusedSource::Unbound(name.clone()),
                        HeadSource::Aggregate => FusedSource::Aggregate,
                    })
                    .collect(),
            )
        }
        _ => None,
    };

    BatchPlan {
        width: slots.len(),
        trigger_arity,
        trigger_ops,
        trigger_rejects,
        stages,
        head,
        fused_head,
        head_relation: rule.rule.head.name.as_str().into(),
    }
}

/// Compile an atom's column ops, skipping the columns already guaranteed
/// by the probe key (`covered`, sorted). Returns the ops plus whether the
/// atom can never match (it mentions an aggregate term).
fn compile_atom_ops(
    atom: &Atom,
    covered: &[usize],
    slots: &mut BTreeMap<String, usize>,
    slot_of: &mut impl FnMut(&str, &mut BTreeMap<String, usize>) -> usize,
) -> (Vec<BindOp>, bool) {
    let mut ops = Vec::new();
    let mut rejects = false;
    // Within-atom bookkeeping: a repeated variable's first occurrence
    // binds, later occurrences check — also across the covered/uncovered
    // boundary, so every variable the atom mentions ends up with a slot.
    let mut bound_here: BTreeMap<&str, usize> = BTreeMap::new();
    for (col, term) in atom.args.iter().enumerate() {
        match term {
            Term::Agg(_) => rejects = true,
            Term::Const(c) => {
                if !covered.contains(&col) {
                    ops.push(BindOp::CheckConst(col, c.clone()));
                }
            }
            Term::Var(v) => {
                let preexisting =
                    slots.contains_key(&v.name) || bound_here.contains_key(v.name.as_str());
                let slot = match bound_here.get(v.name.as_str()) {
                    Some(&s) => s,
                    None => {
                        let s = slot_of(&v.name, slots);
                        bound_here.insert(v.name.as_str(), s);
                        s
                    }
                };
                if covered.contains(&col) {
                    // The probe key already pins this column to the slot's
                    // value; nothing to re-check per candidate.
                    continue;
                }
                if preexisting {
                    ops.push(BindOp::CheckSlot(col, slot));
                } else {
                    ops.push(BindOp::Bind(col, slot));
                }
            }
        }
    }
    (ops, rejects)
}

/// Resolve an expression's variables against the slots bound so far.
fn compile_expr(expr: &Expr, slots: &BTreeMap<String, usize>) -> SlotExpr {
    match expr {
        Expr::Const(v) => SlotExpr::Const(v.clone()),
        Expr::Var(name) => match slots.get(name) {
            Some(&s) => SlotExpr::Slot(s, name.clone()),
            None => SlotExpr::Unbound(name.clone()),
        },
        Expr::Binary(op, l, r) => SlotExpr::Binary(
            *op,
            Box::new(compile_expr(l, slots)),
            Box::new(compile_expr(r, slots)),
        ),
        Expr::Call(name, args) => SlotExpr::Call(
            name.clone(),
            args.iter().map(|a| compile_expr(a, slots)).collect(),
        ),
    }
}

fn eval_slot(expr: &SlotExpr, row: &[Option<Value>]) -> Result<Value, EvalError> {
    match expr {
        SlotExpr::Const(v) => Ok(v.clone()),
        SlotExpr::Slot(slot, name) => row[*slot]
            .clone()
            .ok_or_else(|| EvalError::UnboundVariable(name.clone())),
        SlotExpr::Unbound(name) => Err(EvalError::UnboundVariable(name.clone())),
        SlotExpr::Binary(op, l, r) => {
            let lv = eval_slot(l, row)?;
            let rv = eval_slot(r, row)?;
            eval_binop(*op, &lv, &rv)
        }
        // Every builtin takes one or two arguments: evaluate them into a
        // fixed array, not a vector.
        SlotExpr::Call(name, args) if args.len() <= 2 => {
            const UNSET: Value = Value::Bool(false);
            let mut vals = [UNSET; 2];
            for (val, a) in vals.iter_mut().zip(args) {
                *val = eval_slot(a, row)?;
            }
            eval_builtin(name, &vals[..args.len()])
        }
        SlotExpr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_slot(a, row)?);
            }
            eval_builtin(name, &vals)
        }
    }
}

/// Coerce a filter result to a boolean with the same truthiness rules as
/// the map-based path.
fn eval_slot_bool(expr: &SlotExpr, row: &[Option<Value>]) -> Result<bool, EvalError> {
    match eval_slot(expr, row)? {
        Value::Bool(b) => Ok(b),
        Value::Int(i) => Ok(i != 0),
        Value::Float(f) => Ok(f != 0.0),
        _ => Err(EvalError::TypeMismatch {
            context: "boolean filter in batch stage".into(),
        }),
    }
}

/// Resolve a probe stage's key for one row into `out` (cleared first).
fn build_probe_key(key: &[SlotSource], row: &[Option<Value>], out: &mut Vec<Value>) {
    out.clear();
    for src in key {
        match src {
            SlotSource::Const(c) => out.push(c.clone()),
            SlotSource::Slot(s) => out.push(row[*s].clone().expect("probe-key slots are bound")),
        }
    }
}

/// Passes 1 and 2 of a grouped probe stage, shared by the mid-stage arm
/// and the fused final stage (only their pass 3 — row materialization vs
/// direct head projection — differs).
///
/// Pass 1 partitions the rows by probe-key value, numbering groups in
/// first-occurrence order (deterministic; the hash map is only a dedup
/// aid). Pass 2 performs one [`crate::relation::Relation::lookup_n`] per
/// distinct key — which preserves the per-member logical accounting via
/// the group-size multiplier — runs the member-independent residual
/// checks once per candidate, and collects each group's shared match set
/// into the flat `group_matches` buffer at `group_ranges[g]`. The
/// visibility filter is deferred to pass 3 because members may carry
/// different `seq_limit`s. The map's iteration order only decides where
/// each group's span lands in the buffer; every observable (stat sums,
/// the span each `group_ranges[g]` addresses, within-group candidate
/// order) is independent of it.
///
/// When a cross-rule [`ProbeCache`] is armed and carries this stage's
/// `(relation, cols)` signature, pass 2 serves each distinct key through
/// the cache instead of probing the relation directly: the raw candidate
/// set is fetched once per round across every strand sharing the
/// signature, and the stage-specific arity/residual filtering still runs
/// here per candidate (see [`crate::subplan`] for the soundness and
/// statistics contract).
#[allow(clippy::too_many_arguments)]
fn group_and_probe<'r>(
    stored: &'r crate::relation::Relation,
    relation: &str,
    width: usize,
    rows: &[Option<Value>],
    origins: &[u32],
    key: &[SlotSource],
    cols: &[usize],
    arity: usize,
    ops: &[BindOp],
    reject_all: bool,
    stats: &mut JoinStats,
    key_buf: &mut Vec<Value>,
    group_of: &mut Vec<u32>,
    group_sizes: &mut Vec<u32>,
    group_map: &mut HashMap<Box<[Value]>, u32, FxBuild>,
    group_ranges: &mut Vec<(u32, u32)>,
    probe_row: &mut Vec<Option<Value>>,
    group_matches: &mut Vec<&'r StoredTuple>,
    mut cache: Option<&mut ProbeCache<'r>>,
) {
    group_of.clear();
    group_sizes.clear();
    group_map.clear();
    for r in 0..origins.len() {
        let row = &rows[r * width..(r + 1) * width];
        build_probe_key(key, row, key_buf);
        let g = match group_map.get(key_buf.as_slice()) {
            Some(&g) => g,
            None => {
                let g = u32::try_from(group_sizes.len()).expect("group count fits u32");
                group_map.insert(key_buf.as_slice().into(), g);
                group_sizes.push(0);
                g
            }
        };
        group_sizes[g as usize] += 1;
        group_of.push(g);
    }
    group_matches.clear();
    group_ranges.clear();
    group_ranges.resize(group_sizes.len(), (0, 0));
    probe_row.clear();
    probe_row.resize(width, None);
    for (gkey, &g) in group_map.iter() {
        let members = group_sizes[g as usize] as usize;
        let start = group_matches.len();
        let cached = match cache.as_deref_mut() {
            Some(c) => c.probe(stored, relation, cols, gkey, members, stats),
            None => None,
        };
        if let Some(candidates) = cached {
            for &candidate in candidates {
                if reject_all || candidate.tuple.arity() != arity {
                    continue;
                }
                if apply_ops(ops, &candidate.tuple, probe_row) {
                    group_matches.push(candidate);
                }
            }
        } else {
            for candidate in stored.lookup_n(cols, gkey, u64::MAX, members, stats) {
                // An aggregate-term atom rejects every candidate, but the
                // lookup above still runs so the probe accounting matches
                // `bind_atom`'s tuple path exactly.
                if reject_all || candidate.tuple.arity() != arity {
                    continue;
                }
                if apply_ops(ops, &candidate.tuple, probe_row) {
                    group_matches.push(candidate);
                }
            }
        }
        group_ranges[g as usize] = (
            u32::try_from(start).expect("match buffer fits u32"),
            u32::try_from(group_matches.len()).expect("match buffer fits u32"),
        );
    }
}

/// Apply only the `Bind` half of an atom's residual ops: used by the
/// grouped-probe broadcast, where the candidate has already passed the
/// member-independent checks once for its whole group and each member row
/// only needs the fresh slot values written in.
fn apply_binds(ops: &[BindOp], tuple: &Tuple, row: &mut [Option<Value>]) {
    for op in ops {
        if let BindOp::Bind(col, slot) = op {
            row[*slot] = Some(tuple.get(*col).expect("arity checked").clone());
        }
    }
}

/// Apply an atom's residual ops to a candidate tuple against a row whose
/// new slots may be written in place. Ops run in column order, so a
/// within-atom repeated variable's check sees the bind from an earlier
/// column of the same candidate. Returns false on the first mismatch.
fn apply_ops(ops: &[BindOp], tuple: &Tuple, row: &mut [Option<Value>]) -> bool {
    for op in ops {
        match op {
            BindOp::CheckConst(col, c) => {
                if tuple.get(*col) != Some(c) {
                    return false;
                }
            }
            BindOp::Bind(col, slot) => {
                row[*slot] = Some(tuple.get(*col).expect("arity checked").clone());
            }
            BindOp::CheckSlot(col, slot) => {
                if row[*slot].as_ref() != tuple.get(*col) {
                    return false;
                }
            }
        }
    }
    true
}

impl BatchPlan {
    /// The head relation's shared name.
    pub(crate) fn head_relation(&self) -> &RelName {
        &self.head_relation
    }

    /// Drain a whole batch of trigger deltas through the compiled stages,
    /// with key-grouped probe sharing (one index lookup per distinct probe
    /// key per atom). See the module docs for the equivalence contract
    /// with the tuple-at-a-time `fire` path.
    ///
    /// `cache`, when armed, extends the sharing across rules: grouped
    /// probe stages whose `(relation, cols)` signature the cache carries
    /// fetch their raw candidates through it, one real lookup per
    /// distinct key per *round* instead of per strand ([`crate::subplan`]).
    /// A cache also routes single-row batches through the grouped arm —
    /// the per-event distributed workload fires mostly one-delta batches,
    /// and those are exactly the probes cross-rule sharing answers for
    /// free.
    pub(crate) fn fire_batch<'r>(
        &self,
        store: &'r Store,
        triggers: &[BatchTrigger],
        stats: &mut JoinStats,
        scratch: &mut BatchScratch,
        out: &mut BatchOutput,
        cache: Option<&mut ProbeCache<'r>>,
    ) -> Result<(), EvalError> {
        out.clear();
        let result = self.fire_rows(store, triggers, stats, scratch, out, cache);
        // Only capacity outlives a firing: the scratch is handed back
        // empty, and so is the output of a failed one.
        scratch.clear();
        if result.is_err() {
            out.clear();
        }
        result
    }

    /// [`BatchPlan::fire_batch`] over an empty scratch and output.
    fn fire_rows<'r>(
        &self,
        store: &'r Store,
        triggers: &[BatchTrigger],
        stats: &mut JoinStats,
        scratch: &mut BatchScratch,
        out: &mut BatchOutput,
        mut cache: Option<&mut ProbeCache<'r>>,
    ) -> Result<(), EvalError> {
        let width = self.width;
        // The shared match buffer of grouped probe stages: group `g`'s
        // matches live at `group_ranges[g]`. Borrows the store, so it
        // cannot live in the reusable scratch; it reaches steady-state
        // capacity after the first stage.
        let mut group_matches: Vec<&StoredTuple> = Vec::new();

        // Bind the trigger atom against every delta tuple of the batch.
        if !self.trigger_rejects {
            for (i, trigger) in triggers.iter().enumerate() {
                if trigger.delta.tuple.arity() != self.trigger_arity {
                    continue;
                }
                let start = scratch.rows.len();
                scratch.rows.resize(start + width, None);
                if apply_ops(
                    &self.trigger_ops,
                    &trigger.delta.tuple,
                    &mut scratch.rows[start..],
                ) {
                    scratch.origins.push(i as u32);
                } else {
                    scratch.rows.truncate(start);
                }
            }
        }

        // Process the stages in body order over the whole row set. When
        // the last stage is a probe it is *fused* with head projection
        // (see below) and excluded here.
        let stage_limit = self.stages.len() - usize::from(self.fused_head.is_some());
        for stage in &self.stages[..stage_limit] {
            if scratch.origins.is_empty() {
                break;
            }
            match stage {
                Stage::Probe {
                    relation,
                    cols,
                    key,
                    arity,
                    ops,
                    reject_all,
                } => {
                    let BatchScratch {
                        rows,
                        origins,
                        next_rows,
                        next_origins,
                        key: key_buf,
                        group_of,
                        group_sizes,
                        group_map,
                        group_ranges,
                        probe_row,
                        ..
                    } = &mut *scratch;
                    next_rows.clear();
                    next_origins.clear();
                    let stored = store.relation(relation);
                    // A single row cannot share anything within the
                    // batch, and its grouped accounting (one logical, one
                    // distinct probe) equals the per-row arm's exactly —
                    // skip the grouping machinery, which the per-event
                    // distributed workload would otherwise pay on every
                    // one-delta batch. A cross-rule cache overrides this:
                    // single rows then take the grouped arm so their
                    // probes share with other strands of the round.
                    let share = origins.len() > 1 || cache.is_some();
                    if let (Some(stored), true) = (stored, share) {
                        group_and_probe(
                            stored,
                            relation,
                            width,
                            rows,
                            origins,
                            key,
                            cols,
                            *arity,
                            ops,
                            *reject_all,
                            stats,
                            key_buf,
                            group_of,
                            group_sizes,
                            group_map,
                            group_ranges,
                            probe_row,
                            &mut group_matches,
                            cache.as_deref_mut(),
                        );
                        // Pass 3: broadcast each group's match set to its
                        // members, in row order — the output is bit-equal
                        // to per-row probing (same candidates, same order,
                        // rows still grouped by ascending origin).
                        for r in 0..origins.len() {
                            let origin = origins[r];
                            let row = &rows[r * width..(r + 1) * width];
                            let seq_limit = triggers[origin as usize].seq_limit;
                            let (mstart, mend) = group_ranges[group_of[r] as usize];
                            for candidate in &group_matches[mstart as usize..mend as usize] {
                                if candidate.seq > seq_limit {
                                    continue;
                                }
                                let start = next_rows.len();
                                next_rows.extend_from_slice(row);
                                apply_binds(ops, &candidate.tuple, &mut next_rows[start..]);
                                next_origins.push(origin);
                            }
                        }
                    } else if let Some(stored) = stored {
                        // The single-row fast path: one plain lookup.
                        for r in 0..origins.len() {
                            let origin = origins[r];
                            let row = &rows[r * width..(r + 1) * width];
                            build_probe_key(key, row, key_buf);
                            let seq_limit = triggers[origin as usize].seq_limit;
                            for candidate in stored.lookup(cols, key_buf, seq_limit, stats) {
                                if *reject_all || candidate.tuple.arity() != *arity {
                                    continue;
                                }
                                let start = next_rows.len();
                                next_rows.extend_from_slice(row);
                                if apply_ops(ops, &candidate.tuple, &mut next_rows[start..]) {
                                    next_origins.push(origin);
                                } else {
                                    next_rows.truncate(start);
                                }
                            }
                        }
                    }
                    std::mem::swap(rows, next_rows);
                    std::mem::swap(origins, next_origins);
                }
                Stage::Assign {
                    slot,
                    prebound,
                    expr,
                } => {
                    let mut keep = 0usize;
                    for r in 0..scratch.origins.len() {
                        let row = &mut scratch.rows[r * width..(r + 1) * width];
                        let value = eval_slot(expr, row)?;
                        let kept = if *prebound {
                            row[*slot].as_ref() == Some(&value)
                        } else {
                            row[*slot] = Some(value);
                            true
                        };
                        if kept {
                            if keep != r {
                                let (dst, src) = scratch.rows.split_at_mut(r * width);
                                dst[keep * width..(keep + 1) * width]
                                    .clone_from_slice(&src[..width]);
                                scratch.origins[keep] = scratch.origins[r];
                            }
                            keep += 1;
                        }
                    }
                    scratch.rows.truncate(keep * width);
                    scratch.origins.truncate(keep);
                }
                Stage::Filter(expr) => {
                    let mut keep = 0usize;
                    for r in 0..scratch.origins.len() {
                        let row = &scratch.rows[r * width..(r + 1) * width];
                        if eval_slot_bool(expr, row)? {
                            if keep != r {
                                let (dst, src) = scratch.rows.split_at_mut(r * width);
                                dst[keep * width..(keep + 1) * width]
                                    .clone_from_slice(&src[..width]);
                                scratch.origins[keep] = scratch.origins[r];
                            }
                            keep += 1;
                        }
                    }
                    scratch.rows.truncate(keep * width);
                    scratch.origins.truncate(keep);
                }
            }
        }

        // Emit the derivations, recording per-trigger group boundaries
        // (rows are processed in ascending-origin order throughout).
        let mut next_trigger = 0usize;
        if let (
            Some(fused_head),
            Some(Stage::Probe {
                relation,
                cols,
                key,
                arity,
                ops,
                reject_all,
            }),
        ) = (self.fused_head.as_ref(), self.stages.last())
        {
            // Fused final stage: the probe machinery is the same as the
            // mid-stage arm above, but every surviving (row, candidate)
            // pair projects its head tuple directly instead of copying
            // into an output row arena — emission order (row-major,
            // candidates in lookup order) is identical to running the
            // stage and then projecting.
            let BatchScratch {
                rows,
                origins,
                key: key_buf,
                group_of,
                group_sizes,
                group_map,
                group_ranges,
                probe_row,
                head,
                ..
            } = &mut *scratch;
            let stored = store.relation(relation);
            let share = origins.len() > 1 || cache.is_some();
            if origins.is_empty() {
                // Nothing survived the earlier stages.
            } else if let (Some(stored), true) = (stored, share) {
                // Same single-row fast path as the mid-stage arm: one row
                // groups trivially, so it takes the per-row arm below —
                // unless a cross-rule cache is armed (see above).
                group_and_probe(
                    stored,
                    relation,
                    width,
                    rows,
                    origins,
                    key,
                    cols,
                    *arity,
                    ops,
                    *reject_all,
                    stats,
                    key_buf,
                    group_of,
                    group_sizes,
                    group_map,
                    group_ranges,
                    probe_row,
                    &mut group_matches,
                    cache,
                );
                for r in 0..origins.len() {
                    let origin = origins[r] as usize;
                    let row = &rows[r * width..(r + 1) * width];
                    let seq_limit = triggers[origin].seq_limit;
                    let (mstart, mend) = group_ranges[group_of[r] as usize];
                    for candidate in &group_matches[mstart as usize..mend as usize] {
                        if candidate.seq > seq_limit {
                            continue;
                        }
                        emit_fused(
                            fused_head,
                            &self.head_relation,
                            row,
                            candidate,
                            origin,
                            triggers,
                            &mut next_trigger,
                            head,
                            out,
                        )?;
                    }
                }
            } else if let Some(stored) = stored {
                probe_row.clear();
                probe_row.resize(width, None);
                for r in 0..origins.len() {
                    let origin = origins[r] as usize;
                    let row = &rows[r * width..(r + 1) * width];
                    build_probe_key(key, row, key_buf);
                    let seq_limit = triggers[origin].seq_limit;
                    for candidate in stored.lookup(cols, key_buf, seq_limit, stats) {
                        if *reject_all || candidate.tuple.arity() != *arity {
                            continue;
                        }
                        if apply_ops(ops, &candidate.tuple, probe_row) {
                            emit_fused(
                                fused_head,
                                &self.head_relation,
                                row,
                                candidate,
                                origin,
                                triggers,
                                &mut next_trigger,
                                head,
                                out,
                            )?;
                        }
                    }
                }
            }
        } else {
            // Unfused tail (the last stage is an assignment or filter, or
            // the rule has no non-trigger stages): project the head for
            // every surviving row.
            let BatchScratch {
                rows,
                origins,
                head,
                ..
            } = &mut *scratch;
            for (r, &origin) in origins.iter().enumerate() {
                let origin = origin as usize;
                while next_trigger <= origin {
                    out.offsets.push(out.derivations.len());
                    next_trigger += 1;
                }
                let row = &rows[r * width..(r + 1) * width];
                for source in &self.head {
                    match source {
                        HeadSource::Const(c) => head.push(c.clone()),
                        HeadSource::Slot(slot, name) => head.push(
                            row[*slot]
                                .clone()
                                .ok_or_else(|| EvalError::UnboundVariable(name.clone()))?,
                        ),
                        HeadSource::Unbound(name) => {
                            return Err(EvalError::UnboundVariable(name.clone()))
                        }
                        HeadSource::Aggregate => {
                            return Err(EvalError::TypeMismatch {
                                context:
                                    "aggregate heads are maintained by AggregateView, not strands"
                                        .into(),
                            })
                        }
                    }
                }
                out.push(head, &self.head_relation, triggers[origin].delta.sign);
            }
        }
        while next_trigger <= triggers.len() {
            out.offsets.push(out.derivations.len());
            next_trigger += 1;
        }
        Ok(())
    }
}

/// Project one fused (row, candidate) pair into a head derivation,
/// maintaining the per-trigger offset bookkeeping.
#[allow(clippy::too_many_arguments)]
fn emit_fused(
    sources: &[FusedSource],
    head_relation: &RelName,
    row: &[Option<Value>],
    candidate: &StoredTuple,
    origin: usize,
    triggers: &[BatchTrigger],
    next_trigger: &mut usize,
    head: &mut Vec<Value>,
    out: &mut BatchOutput,
) -> Result<(), EvalError> {
    while *next_trigger <= origin {
        out.offsets.push(out.derivations.len());
        *next_trigger += 1;
    }
    for source in sources {
        match source {
            FusedSource::Const(c) => head.push(c.clone()),
            FusedSource::Row(slot, name) => head.push(
                row[*slot]
                    .clone()
                    .ok_or_else(|| EvalError::UnboundVariable(name.clone()))?,
            ),
            FusedSource::Cand(col) => {
                head.push(candidate.tuple.get(*col).expect("arity checked").clone())
            }
            FusedSource::Unbound(name) => return Err(EvalError::UnboundVariable(name.clone())),
            FusedSource::Aggregate => {
                return Err(EvalError::TypeMismatch {
                    context: "aggregate heads are maintained by AggregateView, not strands".into(),
                })
            }
        }
    }
    out.push(head, head_relation, triggers[origin].delta.sign);
    Ok(())
}

#[cfg(test)]
impl EvalBuffers {
    /// Whether nothing but capacity is left in the buffers.
    pub(crate) fn holds_only_capacity(&self) -> bool {
        let BatchScratch {
            rows,
            origins,
            next_rows,
            next_origins,
            key,
            group_map,
            probe_row,
            head,
            ..
        } = &self.scratch;
        rows.is_empty()
            && origins.is_empty()
            && next_rows.is_empty()
            && next_origins.is_empty()
            && key.is_empty()
            && group_map.is_empty()
            && probe_row.is_empty()
            && head.is_empty()
            && self.out.derivations.is_empty()
            && self.per_trigger.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strand::CompiledStrand;
    use ndlog_lang::parse_program;
    use ndlog_lang::seminaive::delta_rewrite_full;

    fn addr(i: u32) -> Value {
        Value::addr(i)
    }

    /// A store with its indexes and the strand `trigger` fires.
    fn setup(src: &str, trigger: &str) -> (Store, CompiledStrand) {
        let program = parse_program(src).unwrap();
        let mut store = Store::for_program(&program);
        let strands: Vec<CompiledStrand> = delta_rewrite_full(&program)
            .into_iter()
            .map(CompiledStrand::new)
            .collect();
        store.declare_indexes(strands.iter());
        let strand = strands
            .into_iter()
            .find(|s| s.trigger_relation() == trigger)
            .unwrap();
        (store, strand)
    }

    type Fired = (Result<Vec<Vec<Derivation>>, EvalError>, JoinStats);

    /// One firing in `buffers`, its output drained per trigger.
    fn fire(
        store: &Store,
        strand: &CompiledStrand,
        deltas: &[TupleDelta],
        buffers: &mut EvalBuffers,
    ) -> Fired {
        let triggers: Vec<BatchTrigger> = deltas
            .iter()
            .map(|delta| BatchTrigger {
                delta,
                seq_limit: u64::MAX,
            })
            .collect();
        let mut stats = JoinStats::default();
        let EvalBuffers { scratch, out, .. } = buffers;
        let result = strand
            .fire_batch(store, &triggers, &mut stats, scratch, out, None)
            .map(|()| {
                let mut per_trigger = vec![Vec::new(); deltas.len()];
                out.drain_into(|i, derivation| per_trigger[i].push(derivation));
                per_trigger
            });
        (result, stats)
    }

    #[test]
    fn lent_buffers_leak_nothing_between_firings() {
        // Three strands of different row widths over three stores: an
        // eleven-slot join with filter and assignments (unfused head), a
        // two-slot join that is its own last stage (fused head), and one
        // whose head projection fails.
        let (mut wide_store, wide) = setup(
            "sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
                 f_member(P2, S) == 0, C := C1 + C2, P := f_cons(S, P2).",
            "link",
        );
        for d in 2..12u32 {
            let path = vec![
                addr(1),
                addr(d),
                addr(d),
                Value::list(vec![addr(1), addr(d)]),
                Value::Int(3),
            ];
            wide_store.apply(&TupleDelta::insert("path", Tuple::new(path)));
        }
        let link = |s: u32, z: u32| {
            TupleDelta::insert("link", Tuple::new(vec![addr(s), addr(z), Value::Int(4)]))
        };
        let wide_batch: Vec<TupleDelta> = (0..6).map(|s| link(20 + s, 1 + s % 2)).collect();

        let (mut narrow_store, narrow) = setup("j1 out(@S, V) :- probe(@S), big(@S, V).", "probe");
        for i in 0..9u32 {
            let big = Tuple::new(vec![addr(i % 3), Value::Int(i64::from(i))]);
            narrow_store.apply(&TupleDelta::insert("big", big));
        }
        let probe = |s: u32| TupleDelta::insert("probe", Tuple::new(vec![addr(s)]));
        let narrow_batch = [probe(0), probe(7), probe(2), probe(0)];

        let (failing_store, failing) = setup("r1 out(@S, X) :- q(@S, C).", "q");
        let failing_batch = [
            TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(1)])),
            TupleDelta::insert("q", Tuple::new(vec![addr(1), Value::Int(2)])),
        ];

        let firings: [(&Store, &CompiledStrand, &[TupleDelta]); 6] = [
            (&wide_store, &wide, &wide_batch),
            (&narrow_store, &narrow, &narrow_batch),
            (&failing_store, &failing, &failing_batch),
            (&narrow_store, &narrow, &narrow_batch),
            (&failing_store, &failing, &failing_batch),
            (&wide_store, &wide, &wide_batch),
        ];
        let mut lent = EvalBuffers::default();
        for (i, (store, strand, deltas)) in firings.into_iter().enumerate() {
            let through_lent = fire(store, strand, deltas, &mut lent);
            let through_fresh = fire(store, strand, deltas, &mut EvalBuffers::default());
            assert_eq!(through_lent, through_fresh, "firing {i}");
            assert!(lent.holds_only_capacity(), "firing {i} left values behind");
            let (result, _) = through_lent;
            assert_eq!(
                result.is_err(),
                std::ptr::eq(strand, &failing),
                "firing {i}"
            );
        }
        // The inputs do exercise the joins: ten paths leave node 1, none
        // node 2; three `big` tuples per stored address.
        let (derived, stats) = fire(&wide_store, &wide, &wide_batch, &mut lent);
        let derived: Vec<usize> = derived.unwrap().iter().map(Vec::len).collect();
        assert_eq!(derived, [10, 0, 10, 0, 10, 0]);
        assert_eq!((stats.logical_probes, stats.distinct_probes), (6, 2));
        let (derived, _) = fire(&narrow_store, &narrow, &narrow_batch, &mut lent);
        let derived: Vec<usize> = derived.unwrap().iter().map(Vec::len).collect();
        assert_eq!(derived, [3, 0, 3, 3]);
    }
}

//! Batch-delta strand evaluation: slot-compiled rules over flat, reusable
//! environment buffers — the one way a strand fires.
//!
//! At compile time every variable of a rule gets a fixed **slot**, terms
//! and expressions are rewritten to slot references, and every non-trigger
//! atom becomes a probe stage on the columns bound before it runs. At run
//! time a whole batch of trigger deltas is drained through the rule's
//! stages using two flat row arenas (`rows` / `next`, `width` slots per
//! row) of a reusable [`BatchScratch`]. Extending an environment is a row
//! copy into the arena; no per-environment `Vec`, map or `String` is ever
//! allocated.
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
//! # One probe routine, two sinks
//!
//! Every join of every strand goes through `ProbeStage::probe` — the one
//! place that looks a relation up, and so the one place a probe timer or a
//! change to probing has to touch. It finds each row's candidates, applies
//! the row's trigger's `seq_limit`, and hands every surviving `(row,
//! origin, candidate)` — row-major, candidates in lookup order — to a
//! monomorphized *sink*. A probe followed by further stages gets the sink
//! that appends the extended row to the next arena. A probe that is its
//! rule's last stage (the common single-join shape) gets the sink that
//! projects the head tuple straight from `(row, candidate)`, so no output
//! arena is materialized for it: the head template reads each column from
//! the row or from the candidate (`HeadSource`), and a rule whose last
//! stage is not a probe projects through the same template with no
//! candidate columns in it.
//!
//! The routine has two arms and picks between them from what it can
//! observe, never from an option. Real delta batches are key-skewed: path
//! exploration and flooding dissemination hand a strand hundreds of
//! triggers that probe the same join key. With more than one row — or with
//! a cross-rule [`ProbeCache`] armed, which is where a lone row's probe can
//! still be shared with other strands of the round — the rows are
//! partitioned by probe-key value (first-occurrence order, so the grouping
//! is deterministic), **one** lookup runs per distinct key
//! ([`crate::relation::Relation::lookup_n`], or the cache), the residual
//! checks run once per candidate, and the shared match set is broadcast to
//! every member through offset ranges into a flat match buffer. This is
//! sound because a probe stage's match set depends only on the probe key
//! and the candidate: any slot bound by an earlier stage is part of the
//! probe key, so all that is left to check is the candidate's arity and,
//! for a variable the atom repeats, that two of the candidate's own
//! columns agree (`ProbeStage::same`) — two rows with equal keys accept
//! exactly the same candidates. A lone row without a cache has nothing to
//! share and its grouped accounting (one logical, one distinct probe)
//! would equal a plain lookup's exactly, so it takes one plain lookup and
//! skips the grouping — the per-event distributed workload fires mostly
//! one-delta batches.
//!
//! # What the oracle checks
//!
//! For every trigger `i` of the batch, the derivations in
//! [`BatchOutput::for_trigger`] are the derivations of that trigger fired
//! alone against the same store with its own `seq_limit`: one per
//! combination of visible stored tuples that joins it and passes every
//! assignment and filter, in body order. Stages process rows in trigger
//! order and extensions are appended stably, so rows stay grouped by
//! trigger and ordered as nested per-trigger loops would produce them.
//! The naive evaluator of the dev-only `ndlog-oracle` crate, which shares
//! no code with this module, is the reference: `strand.rs`'s table test
//! compares every trigger's derivations with its `fire_one`, and
//! `tests/properties.rs` whole stores with its fixpoint. Join statistics
//! are *logical*: one logical probe (or scan) and the full bucket's
//! `tuples_examined` are recorded per row per atom, whichever arm runs;
//! only `distinct_probes` (the bucket lookups actually executed) shrinks
//! with grouping, to one per distinct key per atom. When several triggers
//! of one batch fail, stages run batch-wide, so the error reported may
//! belong to a later trigger than the first failing one in trigger order
//! (the run fails with an `EvalError` either way, and engines treat
//! post-error state as unspecified).

use crate::expr::{eval_binop, eval_builtin, EvalError};
use crate::index::JoinStats;
use crate::relation::StoredTuple;
use crate::store::Store;
use crate::strand::Derivation;
use crate::subplan::ProbeCache;
use crate::tuple::{RelName, Sign, Tuple, TupleDelta};
use ndlog_lang::seminaive::DeltaRule;
use ndlog_lang::value::FxBuild;
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
    /// The column must equal a slot bound by an earlier column of this
    /// very atom.
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
    /// is always an error.
    Unbound(String),
    Binary(ndlog_lang::BinOp, Box<SlotExpr>, Box<SlotExpr>),
    Call(String, Vec<SlotExpr>),
}

/// A head column source: where [`BatchPlan::emit`] reads the column from.
#[derive(Debug, Clone, PartialEq)]
enum HeadSource {
    Const(Value),
    /// A slot of the row; the name survives only for the unbound-variable
    /// error message.
    Row(usize, String),
    /// A column of the candidate of the rule's last stage, a probe, for
    /// the slots that stage binds. Rules whose last stage is not a probe
    /// have none.
    Cand(usize),
    Unbound(String),
    /// Aggregate head terms are maintained by `AggregateView`, never fired
    /// through strands: projecting one is an error.
    Aggregate,
}

/// A non-trigger body atom, slot-compiled.
#[derive(Debug, Clone, PartialEq)]
struct ProbeStage {
    relation: String,
    /// Sorted bound columns to probe on (empty = full scan): constants,
    /// and variables an earlier literal bound.
    cols: Vec<usize>,
    /// Value per probe column, parallel to `cols`.
    key: Vec<SlotSource>,
    /// Expected candidate arity.
    arity: usize,
    /// What the probe key leaves of the atom (the relation's lookup
    /// enforces every probed column, so nothing re-checks them per
    /// candidate): the `(column, slot)` pairs that bind the atom's fresh
    /// variables …
    binds: Vec<(usize, usize)>,
    /// … and, for a variable the atom repeats, the `(column, column)`
    /// pairs a candidate must hold equal values in. Any slot bound by an
    /// earlier stage is part of the probe key, so whether a candidate
    /// joins depends on the key and the candidate alone — never on the
    /// row that asks.
    same: Vec<(usize, usize)>,
    /// The atom mentions an aggregate term: no candidate can match.
    reject_all: bool,
}

/// A non-trigger body literal, slot-compiled.
#[derive(Debug, Clone, PartialEq)]
enum Stage {
    Probe(ProbeStage),
    Assign {
        slot: usize,
        /// Statically known: is the slot already bound when this stage
        /// runs? (Binding order is fixed at compile time.)
        prebound: bool,
        expr: SlotExpr,
    },
    Filter {
        expr: SlotExpr,
        /// The filter's source text, for the type-error message.
        text: String,
    },
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
    /// In body order. When the last one is a probe, it projects the head
    /// itself and `head` reads that probe's candidate.
    stages: Vec<Stage>,
    head: Vec<HeadSource>,
    /// The head relation's name, held once: every derivation clones it by
    /// reference count.
    head_relation: RelName,
}

/// A row arena: binding environments of `width` slots each (`Option<Value>`
/// so unbound slots are explicit) and the trigger index each row descends
/// from. Rows stay in ascending origin order throughout a firing.
#[derive(Debug, Default)]
struct Rows {
    width: usize,
    slots: Vec<Option<Value>>,
    origins: Vec<u32>,
}

impl Rows {
    fn len(&self) -> usize {
        self.origins.len()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.origins.clear();
    }

    /// Row `r` and the trigger it descends from.
    fn get(&self, r: usize) -> (&[Option<Value>], u32) {
        let row = &self.slots[r * self.width..(r + 1) * self.width];
        (row, self.origins[r])
    }

    /// Append a copy of `row`, returned for the caller to bind into.
    fn push(&mut self, row: &[Option<Value>], origin: u32) -> &mut [Option<Value>] {
        let start = self.slots.len();
        self.slots.extend_from_slice(row);
        self.origins.push(origin);
        &mut self.slots[start..]
    }

    /// Keep the rows `keep` accepts (it may bind into them), in order.
    fn retain(
        &mut self,
        mut keep: impl FnMut(&mut [Option<Value>]) -> Result<bool, EvalError>,
    ) -> Result<(), EvalError> {
        let width = self.width;
        let mut kept = 0usize;
        for r in 0..self.origins.len() {
            if keep(&mut self.slots[r * width..(r + 1) * width])? {
                if kept != r {
                    let (dst, src) = self.slots.split_at_mut(r * width);
                    dst[kept * width..(kept + 1) * width].clone_from_slice(&src[..width]);
                    self.origins[kept] = self.origins[r];
                }
                kept += 1;
            }
        }
        self.slots.truncate(kept * width);
        self.origins.truncate(kept);
        Ok(())
    }
}

/// The key-grouping buffers of the probe routine's shared arm.
#[derive(Debug, Default)]
struct KeyGroups {
    /// The probe key being resolved.
    key: Vec<Value>,
    /// Per row: the probe-key group it belongs to.
    group_of: Vec<u32>,
    /// Per group: its member count (the lookup's multiplier).
    sizes: Vec<u32>,
    /// Probe key → group index, under the crate's seedless hasher so two
    /// runs of one input build the same table. Group numbering is
    /// first-occurrence order and every observable is addressed through
    /// it, so nothing depends on hashing or iteration order — which
    /// `ProbeStage::probe` relies on when it walks the map.
    map: HashMap<Box<[Value]>, u32, FxBuild>,
    /// Per group: the `(start, end)` range of its shared match set in the
    /// flat match buffer.
    ranges: Vec<(u32, u32)>,
}

impl KeyGroups {
    /// Partition `rows` by probe-key value, numbering the groups in
    /// first-occurrence order (the hash map is only a dedup aid).
    fn partition(&mut self, key: &[SlotSource], rows: &Rows) {
        self.group_of.clear();
        self.sizes.clear();
        self.map.clear();
        for r in 0..rows.len() {
            build_probe_key(key, rows.get(r).0, &mut self.key);
            let g = match self.map.get(self.key.as_slice()) {
                Some(&g) => g,
                None => {
                    let g = u32::try_from(self.sizes.len()).expect("group count fits u32");
                    self.map.insert(self.key.as_slice().into(), g);
                    self.sizes.push(0);
                    g
                }
            };
            self.sizes[g as usize] += 1;
            self.group_of.push(g);
        }
    }
}

/// Reusable flat buffers for batch firing: the two row arenas the stages
/// ping-pong between and the key-grouping buffers of the probe routine.
/// One scratch serves any number of strands, batches and stores; buffers
/// only grow.
#[derive(Debug, Default)]
pub struct BatchScratch {
    rows: Rows,
    next: Rows,
    groups: KeyGroups,
}

impl BatchScratch {
    /// Drop every value a firing left behind, keeping the capacity.
    fn clear(&mut self) {
        self.rows.clear();
        self.next.clear();
        self.groups.key.clear();
        self.groups.map.clear();
    }
}

/// The derivations of one batch, grouped by trigger.
#[derive(Debug, Default)]
pub struct BatchOutput {
    derivations: Vec<Derivation>,
    /// `offsets[i]..offsets[i + 1]` bounds trigger `i`'s derivations.
    offsets: Vec<usize>,
    /// The fields of the head tuple being projected; drained into the
    /// tuple's one allocation.
    fields: Vec<Value>,
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

impl EvalBuffers {
    /// Fire each of `strands` over its share of `round` — the triggers of
    /// its trigger relation that the caller marked in `self.live` — as one
    /// batch against one store snapshot, and scatter the derivations into
    /// `self.per_trigger` by position in `round`: per trigger, strands in
    /// the given order, exactly what firing the triggers one at a time
    /// yields. A failed round hands the buffers back empty.
    pub(crate) fn fire_round<'r, 'a>(
        &mut self,
        store: &'r Store,
        strands: impl Iterator<Item = &'a crate::strand::CompiledStrand>,
        round: impl Iterator<Item = BatchTrigger<'a>> + Clone,
        stats: &mut JoinStats,
        mut cache: Option<ProbeCache<'r>>,
    ) -> Result<(), EvalError> {
        let fired = self.live.len();
        if self.per_trigger.len() < fired {
            self.per_trigger.resize_with(fired, Vec::new);
        }
        let mut triggers: Vec<BatchTrigger> = Vec::new();
        for strand in strands {
            triggers.clear();
            self.indices.clear();
            for (i, trigger) in round.clone().enumerate() {
                if self.live[i] && strand.trigger_relation() == trigger.delta.relation {
                    triggers.push(trigger);
                    self.indices.push(i);
                }
            }
            if triggers.is_empty() {
                continue;
            }
            let (scratch, out) = (&mut self.scratch, &mut self.out);
            if let Err(e) = strand.fire_batch(store, &triggers, stats, scratch, out, cache.as_mut())
            {
                self.per_trigger[..fired].iter_mut().for_each(Vec::clear);
                return Err(e);
            }
            out.drain_into(|local, d| self.per_trigger[self.indices[local]].push(d));
        }
        Ok(())
    }
}

impl BatchOutput {
    /// Clear for reuse.
    pub fn clear(&mut self) {
        self.derivations.clear();
        self.offsets.clear();
        self.fields.clear();
    }

    /// Record where the derivations of every trigger up to `trigger`
    /// start: the ones not seen yet start here (rows arrive in ascending
    /// trigger order).
    fn start_through(&mut self, trigger: usize) {
        while self.offsets.len() <= trigger {
            self.offsets.push(self.derivations.len());
        }
    }

    /// Append the derivation of the head tuple whose fields are in
    /// `fields`: they are drained into the tuple's one allocation, of
    /// exactly their size, and the relation's name is shared.
    fn push(&mut self, relation: &RelName, sign: Sign) {
        let tuple: Tuple = self.fields.drain(..).collect();
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

/// Compile a delta rule: slots for the trigger atom's variables first,
/// then each literal's in body order.
pub(crate) fn compile(rule: &DeltaRule) -> BatchPlan {
    let body = &rule.rule.body;
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
                // Probe on every column bound before the atom runs; the
                // first occurrence of a variable the atom repeats is not.
                let (mut cols, mut key) = (Vec::new(), Vec::new());
                for (col, term) in atom.args.iter().enumerate() {
                    let source = match term {
                        Term::Const(c) => SlotSource::Const(c.clone()),
                        Term::Var(v) => match slots.get(&v.name) {
                            Some(&slot) => SlotSource::Slot(slot),
                            None => continue,
                        },
                        Term::Agg(_) => continue,
                    };
                    cols.push(col);
                    key.push(source);
                }
                let (ops, reject_all) = compile_atom_ops(atom, &cols, &mut slots, &mut slot_of);
                let (mut binds, mut same) = (Vec::new(), Vec::new());
                for op in ops {
                    match op {
                        BindOp::Bind(col, slot) => binds.push((col, slot)),
                        BindOp::CheckSlot(col, slot) => {
                            let bound = binds.iter().find(|(_, s)| *s == slot);
                            let (first, _) = bound.expect("bound by an earlier column of the atom");
                            same.push((col, *first));
                        }
                        BindOp::CheckConst(..) => unreachable!("constants are probed columns"),
                    }
                }
                stages.push(Stage::Probe(ProbeStage {
                    relation: atom.name.clone(),
                    cols,
                    key,
                    arity: atom.arity(),
                    binds,
                    same,
                    reject_all,
                }));
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
            Literal::Filter(expr) => stages.push(Stage::Filter {
                expr: compile_expr(expr, &slots),
                text: expr.to_string(),
            }),
        }
    }

    // When the last stage is a probe, its binds are the only writes
    // between the rows it reads and head projection, so a head column is
    // either "read the row" or "read the candidate" (a bind only ever
    // targets a slot no earlier stage bound, so the mapping is
    // unambiguous).
    let cand_col_of_slot: BTreeMap<usize, usize> = match stages.last() {
        Some(Stage::Probe(probe)) => probe.binds.iter().map(|&(col, slot)| (slot, col)).collect(),
        _ => BTreeMap::new(),
    };
    let head: Vec<HeadSource> = rule
        .rule
        .head
        .args
        .iter()
        .map(|term| match term {
            Term::Const(c) => HeadSource::Const(c.clone()),
            Term::Var(v) => match slots.get(&v.name) {
                Some(s) => match cand_col_of_slot.get(s) {
                    Some(&col) => HeadSource::Cand(col),
                    None => HeadSource::Row(*s, v.name.clone()),
                },
                None => HeadSource::Unbound(v.name.clone()),
            },
            Term::Agg(_) => HeadSource::Aggregate,
        })
        .collect();

    BatchPlan {
        width: slots.len(),
        trigger_arity,
        trigger_ops,
        trigger_rejects,
        stages,
        head,
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

/// Evaluate a filter to a boolean. Numbers are truthy when non-zero,
/// matching the paper's `f_member(P, S) = 0` idiom; anything else is a
/// type error naming the filter (`text`).
fn eval_filter(expr: &SlotExpr, text: &str, row: &[Option<Value>]) -> Result<bool, EvalError> {
    match eval_slot(expr, row)? {
        Value::Bool(b) => Ok(b),
        Value::Int(i) => Ok(i != 0),
        Value::Float(f) => Ok(f != 0.0),
        _ => Err(EvalError::TypeMismatch {
            context: format!("boolean filter `{text}`"),
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

/// Apply the trigger atom's ops to a delta tuple against a blank row whose
/// slots are written in place. Ops run in column order, so a within-atom
/// repeated variable's check sees the bind from an earlier column of the
/// same tuple. Returns false on the first mismatch.
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

/// What the stages of one firing share: the store and triggers they read,
/// the statistics they report to, the cross-rule probe cache if one is
/// armed, and the match buffer of the probe routine's shared arm.
struct Firing<'a, 'r> {
    store: &'r Store,
    triggers: &'a [BatchTrigger<'a>],
    stats: &'a mut JoinStats,
    cache: Option<&'a mut ProbeCache<'r>>,
    /// Group `g`'s matches live at `KeyGroups::ranges[g]`. Borrows the
    /// store, so it cannot live in the reusable scratch; it reaches
    /// steady-state capacity after the first probe stage.
    matches: Vec<&'r StoredTuple>,
}

impl ProbeStage {
    /// Whether a raw candidate of the lookup joins, whichever row asks. An
    /// aggregate-term atom rejects every candidate — after its lookup ran,
    /// so its probes are counted like any other.
    fn accepts(&self, candidate: &StoredTuple) -> bool {
        let fields = candidate.tuple.values();
        !self.reject_all
            && fields.len() == self.arity
            && self.same.iter().all(|&(a, b)| fields[a] == fields[b])
    }

    /// The one probe loop (see the module docs): hand `sink` every `(row,
    /// origin, candidate)` of `rows` that joins and is visible at the
    /// origin's `seq_limit`, row-major, candidates in lookup order — the
    /// order per-row probing produces, whichever arm runs. A relation the
    /// store does not hold joins nothing.
    ///
    /// In the shared arm, each distinct key's lookup runs at unrestricted
    /// visibility on behalf of all its members (the multiplier keeps the
    /// per-member logical accounting) and the visibility filter is applied
    /// per member afterwards, because members may carry different
    /// `seq_limit`s. When the armed [`ProbeCache`] carries this stage's
    /// `(relation, cols)` signature the raw candidates come through it —
    /// one real lookup per distinct key per *round* instead of per strand
    /// — and the stage-specific arity and residual checks still run here
    /// (see [`crate::subplan`] for the soundness and statistics contract).
    /// The map's iteration order only decides where each group's span
    /// lands in the match buffer; every observable (stat sums, the span
    /// each `ranges[g]` addresses, within-group candidate order) is
    /// independent of it.
    fn probe<'r>(
        &self,
        rows: &Rows,
        groups: &mut KeyGroups,
        firing: &mut Firing<'_, 'r>,
        mut sink: impl FnMut(&[Option<Value>], u32, &'r StoredTuple) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let Firing {
            store,
            triggers,
            stats,
            cache,
            matches,
        } = firing;
        let Some(stored) = store.relation(&self.relation) else {
            return Ok(());
        };
        if rows.len() == 0 {
            return Ok(());
        }
        if rows.len() == 1 && cache.is_none() {
            let (row, origin) = rows.get(0);
            build_probe_key(&self.key, row, &mut groups.key);
            let seq_limit = triggers[origin as usize].seq_limit;
            for candidate in stored.lookup(&self.cols, &groups.key, seq_limit, stats) {
                if self.accepts(candidate) {
                    sink(row, origin, candidate)?;
                }
            }
            return Ok(());
        }
        groups.partition(&self.key, rows);
        let KeyGroups {
            group_of,
            sizes,
            map,
            ranges,
            ..
        } = groups;
        matches.clear();
        ranges.clear();
        ranges.resize(sizes.len(), (0, 0));
        for (key, &g) in map.iter() {
            let members = sizes[g as usize] as usize;
            let start = matches.len();
            let cached = match cache.as_deref_mut() {
                Some(c) => c.probe(stored, &self.relation, &self.cols, key, members, stats),
                None => None,
            };
            match cached {
                Some(raw) => matches.extend(raw.iter().copied().filter(|c| self.accepts(c))),
                None => {
                    let raw = stored.lookup_n(&self.cols, key, u64::MAX, members, stats);
                    matches.extend(raw.filter(|c| self.accepts(c)));
                }
            }
            ranges[g as usize] = (
                u32::try_from(start).expect("match buffer fits u32"),
                u32::try_from(matches.len()).expect("match buffer fits u32"),
            );
        }
        for (r, &g) in group_of.iter().enumerate() {
            let (row, origin) = rows.get(r);
            let seq_limit = triggers[origin as usize].seq_limit;
            let (start, end) = ranges[g as usize];
            for &candidate in &matches[start as usize..end as usize] {
                if candidate.seq <= seq_limit {
                    sink(row, origin, candidate)?;
                }
            }
        }
        Ok(())
    }
}

impl BatchPlan {
    /// The `(relation, cols)` of every probe stage that binds a column, in
    /// body order.
    pub(crate) fn index_requirements(&self) -> Vec<(String, Vec<usize>)> {
        let probes = self.stages.iter().filter_map(|stage| match stage {
            Stage::Probe(probe) if !probe.cols.is_empty() => {
                Some((probe.relation.clone(), probe.cols.clone()))
            }
            _ => None,
        });
        probes.collect()
    }

    /// Drain a whole batch of trigger deltas through the compiled stages,
    /// with key-grouped probe sharing (one index lookup per distinct probe
    /// key per atom). See the module docs for what the oracle checks.
    ///
    /// `cache`, when armed, extends the sharing across rules: probe stages
    /// whose `(relation, cols)` signature the cache carries fetch their
    /// raw candidates through it, one real lookup per distinct key per
    /// *round* instead of per strand ([`crate::subplan`]) — single-row
    /// batches included, which are most of what the per-event distributed
    /// workload fires and exactly the probes cross-rule sharing answers
    /// for free.
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
        let firing = Firing {
            store,
            triggers,
            stats,
            cache,
            matches: Vec::new(),
        };
        let result = self.fire_rows(firing, scratch, out);
        // Only capacity outlives a firing: the scratch is handed back
        // empty, and so is the output of a failed one.
        scratch.clear();
        if result.is_err() {
            out.clear();
        }
        result
    }

    /// [`BatchPlan::fire_batch`] over an empty scratch and output.
    fn fire_rows(
        &self,
        mut firing: Firing,
        scratch: &mut BatchScratch,
        out: &mut BatchOutput,
    ) -> Result<(), EvalError> {
        let BatchScratch { rows, next, groups } = scratch;
        let triggers = firing.triggers;
        let width = self.width;
        rows.width = width;
        next.width = width;

        // Bind the trigger atom against every delta tuple of the batch.
        if !self.trigger_rejects {
            for (i, trigger) in triggers.iter().enumerate() {
                if trigger.delta.tuple.arity() != self.trigger_arity {
                    continue;
                }
                let start = rows.slots.len();
                rows.slots.resize(start + width, None);
                if apply_ops(
                    &self.trigger_ops,
                    &trigger.delta.tuple,
                    &mut rows.slots[start..],
                ) {
                    rows.origins.push(i as u32);
                } else {
                    rows.slots.truncate(start);
                }
            }
        }

        // Process the stages in body order over the whole row set; a
        // probe that comes last projects the head itself.
        let (mid, last) = match self.stages.split_last() {
            Some((Stage::Probe(probe), mid)) => (mid, Some(probe)),
            _ => (&self.stages[..], None),
        };
        for stage in mid {
            match stage {
                Stage::Probe(probe) => {
                    next.clear();
                    probe.probe(rows, groups, &mut firing, |row, origin, candidate| {
                        let extended = next.push(row, origin);
                        for &(col, slot) in &probe.binds {
                            extended[slot] = Some(candidate.tuple.values()[col].clone());
                        }
                        Ok(())
                    })?;
                    std::mem::swap(rows, next);
                }
                Stage::Assign {
                    slot,
                    prebound,
                    expr,
                } => rows.retain(|row| {
                    let value = eval_slot(expr, row)?;
                    if *prebound {
                        return Ok(row[*slot].as_ref() == Some(&value));
                    }
                    row[*slot] = Some(value);
                    Ok(true)
                })?,
                Stage::Filter { expr, text } => rows.retain(|row| eval_filter(expr, text, row))?,
            }
        }
        match last {
            Some(probe) => probe.probe(rows, groups, &mut firing, |row, origin, candidate| {
                self.emit(row, candidate.tuple.values(), origin, triggers, out)
            })?,
            None => {
                for r in 0..rows.len() {
                    let (row, origin) = rows.get(r);
                    self.emit(row, &[], origin, triggers, out)?;
                }
            }
        }
        out.start_through(triggers.len());
        Ok(())
    }

    /// Project one head derivation from a surviving row and — when the
    /// rule's last stage is a probe — that probe's candidate, under the
    /// sign of the trigger the row descends from.
    fn emit(
        &self,
        row: &[Option<Value>],
        candidate: &[Value],
        origin: u32,
        triggers: &[BatchTrigger],
        out: &mut BatchOutput,
    ) -> Result<(), EvalError> {
        let origin = origin as usize;
        out.start_through(origin);
        for source in &self.head {
            out.fields.push(match source {
                HeadSource::Const(c) => c.clone(),
                HeadSource::Row(slot, name) => row[*slot]
                    .clone()
                    .ok_or_else(|| EvalError::UnboundVariable(name.clone()))?,
                HeadSource::Cand(col) => candidate[*col].clone(),
                HeadSource::Unbound(name) => return Err(EvalError::UnboundVariable(name.clone())),
                HeadSource::Aggregate => {
                    return Err(EvalError::TypeMismatch {
                        context: "aggregate heads are maintained by AggregateView, not strands"
                            .into(),
                    })
                }
            });
        }
        out.push(&self.head_relation, triggers[origin].delta.sign);
        Ok(())
    }
}

#[cfg(test)]
impl EvalBuffers {
    /// Whether nothing but capacity is left in the buffers.
    pub(crate) fn holds_only_capacity(&self) -> bool {
        let BatchScratch { rows, next, groups } = &self.scratch;
        rows.slots.is_empty()
            && rows.origins.is_empty()
            && next.slots.is_empty()
            && next.origins.is_empty()
            && groups.key.is_empty()
            && groups.map.is_empty()
            && self.out.derivations.is_empty()
            && self.out.fields.is_empty()
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
        let mut store = Store::for_program(&program).unwrap();
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

//! Batch-delta strand evaluation: slot-compiled rules over flat, reusable
//! environment buffers — the one way a strand fires.
//!
//! At compile time every variable of a rule gets a fixed **slot**, terms
//! and expressions are rewritten to slot references, every non-trigger
//! atom becomes a probe stage on the columns bound before it runs, and
//! every assignment and filter becomes a *step* placed before the first
//! probe or after one of them (see "Where a filter runs"). At run time a
//! whole batch of trigger deltas is drained through the probes using two
//! flat row arenas (`rows` / `next`, `width` slots per row) of a reusable
//! [`BatchScratch`]. Extending an environment for the next probe is a row
//! copy into the arena; the last probe extends nothing, and a firing copies
//! a value only into the head tuple it derives. No per-environment `Vec`,
//! map or `String` is ever allocated.
//!
//! # Who owns the buffers
//!
//! Nobody who evaluates: the row arenas, the last probe's locals, the
//! key-grouping table and the match list of the probe routine, the output
//! buffer, the trigger lists of a round and of an over-delete wave, the
//! fixpoint loop's round, per-round vectors and work-queue capacity, and
//! its list of shipped derivations are one [`EvalBuffers`] value that
//! [`crate::fixpoint::LocalFixpoint::run`] *borrows* for the length of a
//! run. The owner is whoever drives evaluation and outlives a run — an
//! executor lane of `ndlog-core` (one value serves every node and epoch
//! the lane drains, and lane 0's also the distributed engine's inject
//! path), the centralized [`crate::Evaluator`]. A process hosting hundreds
//! of node engines therefore keeps as many high-water-mark buffers as it has
//! lanes, not as it has nodes. The buffers carry capacity only: a firing
//! leaves its scratch empty, its output is drained by whoever asked for it
//! and a run's shipped derivations by the node that ran, on success and on
//! error alike, so which buffers a run was lent is unobservable. Three of
//! them would borrow what a firing reads if they held references, and hold
//! numbers or nothing instead: the match list holds slot numbers of the
//! probed relation (`Relation::row` reads them back),
//! the grouping table holds row and group numbers and reads each group's
//! key off its first row, and a trigger list is lent empty and given back
//! empty (`lend_triggers` / `return_triggers`), so the crate's
//! `forbid(unsafe_code)` stands.
//!
//! # One probe routine, two sinks
//!
//! Every join of every strand goes through `ProbeStage::probe` — the one
//! place that looks a relation up, and so the one place a probe timer or a
//! change to probing has to touch. It finds each row's candidates, applies
//! the row's trigger's `seq_limit`, and hands every surviving `(row,
//! origin, candidate)` — row-major, candidates in lookup order — to a
//! monomorphized *sink*, which runs the steps placed after the probe
//! before the row goes on. A probe followed by another gets the sink that
//! appends the extended row to the next arena, binds the candidate's
//! columns into it, runs the steps on it and drops it again if one
//! rejects it. The last probe gets the sink that works on the row and the
//! candidate where they lie: it runs the steps placed after the probe and
//! projects the head tuple, reading every value in place. Each read was
//! resolved when the plan compiled (`Place`): a slot bound before the
//! probe is read off the row, one the probe binds off the candidate's
//! column, and one its steps assign off the sink's *locals*, the only
//! slots it writes. So a candidate a step rejects costs its steps and
//! nothing else — in `dv2`'s `link`-triggered strand, whose `route`
//! candidates mostly fail `H <= 2`, no row is copied and no column bound
//! for them — and no output arena is materialized for the last probe. A rule
//! with no probe projects its head from the trigger row through the same
//! reads.
//!
//! Expressions evaluate over borrowed values: a constant or a read is a
//! reference to where the value lies, and only an operator's or a
//! builtin's result is a new value, so reading a path vector, comparing
//! it or testing it with `f_member` clones nothing. A call's builtin was
//! resolved from its name when the plan compiled ([`crate::expr`]).
//!
//! The routine has two arms and picks between them from the batch alone,
//! never from an option. Real delta batches are key-skewed: path
//! exploration and flooding dissemination hand a strand hundreds of
//! triggers that probe the same join key. With more than one row the rows
//! are partitioned by probe-key value (first-occurrence order, so the
//! grouping is deterministic), **one** lookup runs per distinct key
//! ([`crate::relation::Relation::lookup_n`]), the residual checks run once
//! per candidate, and the shared match set is broadcast to every member
//! through offset ranges into a flat match buffer. This is sound because a
//! probe stage's match set depends only on the probe key and the
//! candidate: any slot bound by an earlier stage is part of the probe key,
//! so all that is left to check is the candidate's arity and, for a
//! variable the atom repeats, that two of the candidate's own columns
//! agree (`ProbeStage::same`) — two rows with equal keys accept exactly the
//! same candidates. The grouping table is keyed by the Fx fingerprint of a
//! row's key values, in buckets chained through their groups; a row joins
//! the first group whose fingerprint matches and whose key, read off the
//! group's first row, compares equal, so no key is boxed or copied and the
//! table costs what the batch is wide. A lone row has nothing to share and
//! its grouped accounting (one logical, one distinct probe) would equal a
//! plain lookup's exactly, so it takes one plain lookup and skips the
//! grouping.
//! Either way the lookup takes the one access path the relation declared
//! for the stage's bound columns: the primary index, the secondary index on
//! exactly those columns, or a scan (see [`crate::relation`]).
//!
//! # Where a filter runs
//!
//! A filter runs at the first stage boundary where every slot it reads is
//! bound — by the trigger, an earlier probe or an earlier assignment — not
//! where the body writes it, and the binding assignments it needs move up
//! with it, just ahead of it, with the ones they read in turn. So `dv2`'s
//! `route`-triggered strand runs `H := H2 + 1, H <= 2` on the trigger rows
//! and probes `link` only for the triggers that pass, and the
//! path-triggered strand of the localized `sp2b` checks `f_member(P2, S)`
//! right after the `link` probe that binds `S`, before its second probe.
//! The steps before the first probe run on the trigger rows in one
//! `Rows::retain` pass; every other step runs in the sink of the probe it
//! follows.
//!
//! Nothing else moves. An equality check (an assignment to a slot an
//! earlier literal bound, such as a re-derivation plan's `P := f_cons(S,
//! P2)`) and a binding assignment no moved filter reads stay in body order
//! among the probes: moving them filters nothing, and it spends work on
//! rows a selective probe would have dropped. A variant that hoisted every
//! assignment made `f_cons` allocate for such rows and raised
//! `converge_dense` `setup_s` by about 10 % (median 0.0158 → 0.0176 s,
//! higher in 8 of 8 alternating pairs). A step that reads a variable the
//! rule never binds (`SlotExpr::Unbound`) fails wherever it runs; it is a
//! barrier nothing moves across.
//!
//! Placement changes no derivation and no order. A slot is written once,
//! so a filter reads the same values wherever it runs and keeps the same
//! rows; every probe still sees the rows that survive, in trigger order,
//! and hands on each `(row, candidate)` in row-major, lookup order. What
//! shrinks is the work spent on rows a filter rejects: their probes, the
//! candidates examined for them and their row copies.
//!
//! # What the oracle checks
//!
//! For every trigger `i` of the batch, the derivations in
//! [`BatchOutput::for_trigger`] are the derivations of that trigger fired
//! alone against the same store with its own `seq_limit`: one per
//! combination of visible stored tuples that joins it and passes every
//! assignment and filter. Probes process rows in trigger order and
//! extensions are appended stably, so rows stay grouped by trigger and
//! ordered as nested per-trigger loops would produce them. The naive
//! evaluator of the dev-only `ndlog-oracle` crate, which shares no code
//! with this module, is the reference: `strand.rs`'s table test compares
//! every trigger's derivations with its `fire_one`, and
//! `tests/properties.rs` whole stores with its fixpoint. A firing counts
//! its joins straight into the caller's [`crate::EvalStats`], and they
//! are *logical*: one logical probe (or scan) and the full bucket's
//! `tuples_examined` are recorded per row per atom, whichever arm runs;
//! only `distinct_probes` (the bucket lookups actually executed) shrinks
//! with grouping, to one per distinct key per atom. A row a filter rejects
//! before a probe records nothing for it.
//!
//! # Errors
//!
//! A filter raises its type error for every binding that reaches the
//! stage it is placed at, whether or not a later atom would have matched:
//! a mistyped filter on the trigger's own slots fails the firing even when
//! the next atom matches nothing (`strand.rs`'s
//! `a_filter_fails_where_it_is_placed`). Body order was never the rule's
//! meaning — `ndlog_lang`'s predicate reordering already moves every
//! constraint after all atoms — and the oracle, which follows body order,
//! is the reference for derivations, not for errors. Each pass reports the
//! first failing row, or `(row, candidate)` in row-major order; the steps
//! before the first probe and each probe run batch-wide, so when several
//! triggers of one batch fail, the error reported may belong to a later
//! trigger than the first failing one in trigger order (the run fails
//! with an `EvalError` either way, and engines treat post-error state as
//! unspecified).

use crate::expr::{eval_binop, Builtin, EvalError};
use crate::index::{fingerprint, EvalStats};
use crate::relation::{Relation, StoredTuple};
use crate::store::Store;
use crate::strand::Derivation;
use crate::tuple::{RelName, Sign, Tuple, TupleDelta};
use ndlog_lang::seminaive::DeltaRule;
use ndlog_lang::{Atom, Expr, Literal, Term, Value};
use ndlog_net::NodeAddr;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};

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

/// Where a value that a step or a head column reads lies when it runs,
/// resolved when the plan compiles (see "One probe routine, two sinks").
#[derive(Debug, Clone, Copy, PartialEq)]
enum Place {
    /// A slot of the environment the running steps bind into: the row
    /// itself for the steps on the trigger rows and after a probe that is
    /// not the last, the sink's locals in the last probe's sink.
    Local(usize),
    /// A slot of the row the last probe extends, bound before that probe.
    Row(usize),
    /// A column of the last probe's candidate.
    Cand(usize),
}

/// An expression with variables resolved to places at compile time.
#[derive(Debug, Clone, PartialEq)]
enum SlotExpr {
    Const(Value),
    /// A read; the name survives only for the unbound-variable error
    /// message.
    Read(Place, String),
    /// A variable that is never bound anywhere in the rule: evaluating it
    /// is always an error.
    Unbound(String),
    Binary(ndlog_lang::BinOp, Box<SlotExpr>, Box<SlotExpr>),
    /// A builtin call: the builtin its name resolved to (`None` when no
    /// builtin has that name, an error when evaluated) and the name as
    /// written, for error messages.
    Call(Option<Builtin>, String, Vec<SlotExpr>),
}

/// A head column source: where [`BatchPlan::emit`] reads the column from.
#[derive(Debug, Clone, PartialEq)]
enum HeadSource {
    Const(Value),
    /// A read; the name survives only for the unbound-variable error
    /// message.
    Read(Place, String),
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
    /// The steps placed between this probe and the next: they run in its
    /// sink, on each extended row, before the row is kept.
    then: Vec<Step>,
}

/// An assignment or a filter, slot-compiled: what runs on one row.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// An assignment to a variable no earlier literal bound: it binds the
    /// variable's slot.
    Assign {
        slot: usize,
        /// The assigned variable, for `.explain`.
        var: String,
        expr: SlotExpr,
    },
    /// An assignment to a variable an earlier literal of the body bound:
    /// an equality check of the value at `place` against the expression.
    /// It never moves.
    Check {
        place: Place,
        /// The checked variable, for `.explain`.
        var: String,
        expr: SlotExpr,
    },
    Filter {
        expr: SlotExpr,
        /// The filter's source text, for the type-error message.
        text: String,
    },
}

/// A non-trigger body literal, slot-compiled, before placement.
enum Stage {
    Probe(ProbeStage),
    Step(Step),
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
    /// The steps placed before the first probe: they run on the trigger
    /// rows.
    before: Vec<Step>,
    /// The probes in body order, each with the steps placed after it. The
    /// last one's steps, and the head, read their places where they lie.
    probes: Vec<ProbeStage>,
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

    /// Drop the last row.
    fn pop(&mut self) {
        self.slots.truncate(self.slots.len() - self.width);
        self.origins.pop();
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

/// An empty bucket of [`KeyGroups::heads`].
const NO_GROUP: u32 = u32::MAX;

/// The key-grouping buffers of the probe routine's shared arm: integers,
/// apart from the one probe key being looked up, so they hold nothing
/// between firings but capacity.
#[derive(Debug)]
struct KeyGroups {
    /// The probe key being looked up.
    key: Vec<Value>,
    /// Per row: the probe-key group it belongs to.
    group_of: Vec<u32>,
    /// Per group: its member count (the lookup's multiplier).
    sizes: Vec<u32>,
    /// Per group: its first row, whose values are the group's key — a
    /// group's key is read where it lies, never copied into the table.
    first: Vec<u32>,
    /// Per group: the fingerprint of its key.
    fingerprints: Vec<u64>,
    /// Per group: the next group filed in the same bucket, or `NO_GROUP`.
    chain: Vec<u32>,
    /// Per bucket, the last group filed in it, or `NO_GROUP`: a table of
    /// twice as many buckets as the batch has rows, a power of two, indexed
    /// by a fingerprint's top bits and rebuilt per probe stage, so it costs
    /// what the batch is wide, never what the widest batch was.
    heads: Vec<u32>,
    /// Per group: the `(start, end)` range of its shared match set in
    /// `matches`.
    ranges: Vec<(u32, u32)>,
    /// The matches of every group, as slots of the probed relation: slot
    /// numbers, not references, so the buffer outlives the store borrow
    /// of one firing and is lent like the others.
    matches: Vec<u32>,
    /// What a fingerprint goes through before it is filed: the identity,
    /// but for tests that make every key collide.
    squash: fn(u64) -> u64,
}

impl Default for KeyGroups {
    fn default() -> Self {
        KeyGroups {
            key: Vec::new(),
            group_of: Vec::new(),
            sizes: Vec::new(),
            first: Vec::new(),
            fingerprints: Vec::new(),
            chain: Vec::new(),
            heads: Vec::new(),
            ranges: Vec::new(),
            matches: Vec::new(),
            squash: |fingerprint| fingerprint,
        }
    }
}

/// The values of a probe key for one row, read where they lie.
fn key_values<'a>(
    key: &'a [SlotSource],
    row: &'a [Option<Value>],
) -> impl Iterator<Item = &'a Value> + Clone {
    key.iter().map(move |src| match src {
        SlotSource::Const(c) => c,
        SlotSource::Slot(s) => row[*s].as_ref().expect("probe-key slots are bound"),
    })
}

impl KeyGroups {
    /// Partition `rows` (two or more) by probe-key value, numbering the
    /// groups in first-occurrence order. A row joins the group of the
    /// first earlier row whose key fingerprints and compares equal to its
    /// own; nothing observable depends on fingerprints or bucket order.
    fn partition(&mut self, key: &[SlotSource], rows: &Rows) {
        self.group_of.clear();
        self.sizes.clear();
        self.first.clear();
        self.fingerprints.clear();
        self.chain.clear();
        let bits = (2 * rows.len()).next_power_of_two().trailing_zeros().max(1);
        self.heads.clear();
        self.heads.resize(1 << bits, NO_GROUP);
        for r in 0..rows.len() {
            let row = rows.get(r).0;
            let fingerprint = (self.squash)(fingerprint(key_values(key, row)));
            let bucket = (fingerprint >> (u64::BITS - bits)) as usize;
            let mut g = self.heads[bucket];
            while g != NO_GROUP {
                let first = rows.get(self.first[g as usize] as usize).0;
                if self.fingerprints[g as usize] == fingerprint
                    && key_values(key, first).eq(key_values(key, row))
                {
                    break;
                }
                g = self.chain[g as usize];
            }
            if g == NO_GROUP {
                g = u32::try_from(self.sizes.len()).expect("group count fits u32");
                self.sizes.push(0);
                self.first
                    .push(u32::try_from(r).expect("row count fits u32"));
                self.fingerprints.push(fingerprint);
                self.chain.push(self.heads[bucket]);
                self.heads[bucket] = g;
            }
            self.sizes[g as usize] += 1;
            self.group_of.push(g);
        }
    }

    /// Look every group's key up once, on behalf of all its members, and
    /// keep the candidates `probe` accepts, at unrestricted visibility:
    /// members may carry different `seq_limit`s, so visibility is applied
    /// per member afterwards.
    fn look_up(
        &mut self,
        probe: &ProbeStage,
        stored: &Relation,
        rows: &Rows,
        stats: &mut EvalStats,
    ) {
        self.matches.clear();
        self.ranges.clear();
        for (&first, &members) in self.first.iter().zip(&self.sizes) {
            build_probe_key(&probe.key, rows.get(first as usize).0, &mut self.key);
            let start = self.matches.len();
            let raw =
                stored.lookup_slots(&probe.cols, &self.key, u64::MAX, members as usize, stats);
            let accepted = raw.filter(|(_, candidate)| probe.accepts(candidate));
            self.matches.extend(accepted.map(|(slot, _)| slot));
            self.ranges.push((
                u32::try_from(start).expect("match buffer fits u32"),
                u32::try_from(self.matches.len()).expect("match buffer fits u32"),
            ));
        }
    }
}

/// Reusable flat buffers for batch firing: the two row arenas the probes
/// ping-pong between, the locals the last probe's steps assign, and the
/// key-grouping buffers of the probe routine. One scratch serves any
/// number of strands, batches and stores; buffers only grow.
#[derive(Debug, Default)]
pub struct BatchScratch {
    rows: Rows,
    next: Rows,
    /// The slots the last probe's steps assign, `width` wide: each
    /// candidate's steps write theirs here and the head reads them back;
    /// every other slot stays `None`.
    locals: Vec<Option<Value>>,
    groups: KeyGroups,
}

impl BatchScratch {
    /// Drop every value a firing left behind, keeping the capacity.
    fn clear(&mut self) {
        self.rows.clear();
        self.next.clear();
        self.locals.clear();
        self.groups.key.clear();
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
/// evaluation (see the module docs): the row arenas, match and grouping
/// buffers and output buffer of batch firing, the trigger lists and
/// per-round vectors of the fixpoint loop and of a DRed pass, and the list
/// of derivations shipped to other nodes. Capacity only, never state, apart
/// from what a run shipped, which the site drains before it lends the
/// buffers on.
#[derive(Debug, Default)]
pub struct EvalBuffers {
    pub(crate) scratch: BatchScratch,
    pub(crate) out: BatchOutput,
    /// Derivations whose location is another node, with that node, in
    /// derivation order.
    pub(crate) shipped: Vec<(NodeAddr, TupleDelta)>,
    /// Per trigger of the round being fired: its derivations over every
    /// strand, in firing order. The inner vectors are drained as the round
    /// is consumed and keep their capacity for the next one.
    pub(crate) per_trigger: Vec<Vec<Derivation>>,
    /// Per trigger of the round: does it fire — is its row still stored
    /// and, in a relation the site prunes, not bettered by its group?
    pub(crate) live: Vec<bool>,
    /// Per trigger of the round: is it stored but bettered by its group's
    /// aggregate, so it does not fire?
    pub(crate) superseded: Vec<bool>,
    /// Per trigger of one strand's batch: its position in the round.
    pub(crate) indices: Vec<usize>,
    /// The capacity of one strand's trigger list, empty between firings
    /// (see [`lend_triggers`]).
    pub(crate) triggers: Vec<BatchTrigger<'static>>,
    /// The capacity of a site's work queue, which a site borrows while it
    /// has work (see [`crate::fixpoint::LocalFixpoint::run`]).
    pub(crate) queue: VecDeque<(TupleDelta, u64)>,
    /// The round of the fixpoint loop being consumed.
    pub(crate) round: Vec<(TupleDelta, u64)>,
}

/// A trigger list over deltas the caller holds, in the capacity `spare`
/// keeps between firings; `spare` is left empty until
/// [`return_triggers`] gives the capacity back.
pub(crate) fn lend_triggers<'a>(spare: &mut Vec<BatchTrigger<'static>>) -> Vec<BatchTrigger<'a>> {
    std::mem::take(spare)
}

/// Give a lent trigger list's capacity back to `spare`. Emptied, the list
/// borrows nothing, and collecting it into a vector of a type of the same
/// size reuses its allocation.
pub(crate) fn return_triggers(spare: &mut Vec<BatchTrigger<'static>>, mut lent: Vec<BatchTrigger>) {
    lent.clear();
    *spare = lent.into_iter().map(|_| unreachable!("emptied")).collect();
}

impl EvalBuffers {
    /// Take the derivations the last run shipped to other nodes, in
    /// derivation order.
    pub fn drain_shipped(&mut self) -> std::vec::Drain<'_, (NodeAddr, TupleDelta)> {
        self.shipped.drain(..)
    }

    /// Fire each of `strands` over its share of `round` — the triggers of
    /// its trigger relation that the caller marked in `self.live` — as one
    /// batch against one store snapshot, and scatter the derivations into
    /// `self.per_trigger` by position in `round`: per trigger, strands in
    /// the given order, exactly what firing the triggers one at a time
    /// yields. A failed round hands the buffers back empty.
    pub(crate) fn fire_round<'a>(
        &mut self,
        store: &Store,
        strands: impl Iterator<Item = &'a crate::strand::CompiledStrand>,
        round: impl Iterator<Item = BatchTrigger<'a>> + Clone,
        stats: &mut EvalStats,
    ) -> Result<(), EvalError> {
        let fired = self.live.len();
        if self.per_trigger.len() < fired {
            self.per_trigger.resize_with(fired, Vec::new);
        }
        let mut triggers = lend_triggers(&mut self.triggers);
        let mut result = Ok(());
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
            if let Err(e) = strand.fire_batch(store, &triggers, stats, scratch, out) {
                self.per_trigger[..fired].iter_mut().for_each(Vec::clear);
                result = Err(e);
                break;
            }
            out.drain_into(|local, d| self.per_trigger[self.indices[local]].push(d));
        }
        return_triggers(&mut self.triggers, triggers);
        result
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
/// then each literal's in body order; then place its steps (`place`) and
/// resolve where the last probe's steps and the head read (`resolve_last`).
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
                    then: Vec::new(),
                }));
            }
            Literal::Assign(assign) => {
                let expr = compile_expr(&assign.expr, &slots);
                let var = assign.var.clone();
                stages.push(Stage::Step(match slots.get(&assign.var) {
                    Some(&slot) => Step::Check {
                        place: Place::Local(slot),
                        var,
                        expr,
                    },
                    None => Step::Assign {
                        slot: slot_of(&assign.var, &mut slots),
                        var,
                        expr,
                    },
                }));
            }
            Literal::Filter(expr) => stages.push(Stage::Step(Step::Filter {
                expr: compile_expr(expr, &slots),
                text: expr.to_string(),
            })),
        }
    }
    let width = slots.len();
    let (before, mut probes) = place(stages, width);

    let mut head: Vec<HeadSource> = rule
        .rule
        .head
        .args
        .iter()
        .map(|term| match term {
            Term::Const(c) => HeadSource::Const(c.clone()),
            Term::Var(v) => match slots.get(&v.name) {
                Some(&s) => HeadSource::Read(Place::Local(s), v.name.clone()),
                None => HeadSource::Unbound(v.name.clone()),
            },
            Term::Agg(_) => HeadSource::Aggregate,
        })
        .collect();
    if let Some(last) = probes.last_mut() {
        resolve_last(last, &mut head);
    }

    BatchPlan {
        width,
        trigger_arity,
        trigger_ops,
        trigger_rejects,
        before,
        probes,
        head,
        head_relation: rule.rule.head.name.as_str().into(),
    }
}

/// Resolve the reads of the last probe's steps and of the head to where
/// each value lies in that probe's sink: a slot the probe binds is a
/// column of its candidate, one its steps assign is one of the sink's
/// locals, and any other was bound before the probe, in the row it
/// extends. A slot is bound once, so the mapping is unambiguous.
fn resolve_last(last: &mut ProbeStage, head: &mut [HeadSource]) {
    let mut place_of: BTreeMap<usize, Place> = BTreeMap::new();
    for &(col, slot) in &last.binds {
        place_of.insert(slot, Place::Cand(col));
    }
    for step in &last.then {
        if let Step::Assign { slot, .. } = step {
            place_of.insert(*slot, Place::Local(*slot));
        }
    }
    let resolve = &mut |place: &mut Place| {
        if let Place::Local(slot) = *place {
            *place = place_of.get(&slot).copied().unwrap_or(Place::Row(slot));
        }
    };
    for step in &mut last.then {
        match step {
            Step::Assign { expr, .. } | Step::Filter { expr, .. } => expr.places(resolve),
            Step::Check { place, expr, .. } => {
                resolve(place);
                expr.places(resolve);
            }
        }
    }
    for source in head {
        if let HeadSource::Read(place, _) = source {
            resolve(place);
        }
    }
}

/// Place the body-order `stages` of a rule whose rows are `width` slots
/// wide (see the module docs): every filter moves up to the first stage
/// boundary where each slot it reads is bound, with the binding
/// assignments that slot needs; nothing else moves, and nothing crosses a
/// step that reads a never-bound variable. Returns the steps placed before
/// the first probe and the probes, each with the steps placed after it.
fn place(stages: Vec<Stage>, width: usize) -> (Vec<Step>, Vec<ProbeStage>) {
    let n = stages.len();
    // Per step: the slots it reads, and whether it is a barrier.
    let mut reads: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut barrier = vec![false; n];
    // Per slot: the stage that binds it (`None`: the trigger does).
    let mut binder: Vec<Option<usize>> = vec![None; width];
    for (i, stage) in stages.iter().enumerate() {
        let mut read = Vec::new();
        match stage {
            Stage::Probe(probe) => {
                for &(_, slot) in &probe.binds {
                    binder[slot] = Some(i);
                }
            }
            Stage::Step(Step::Assign { slot, expr, .. }) => {
                barrier[i] = !expr_slots(expr, &mut read);
                binder[*slot] = Some(i);
            }
            Stage::Step(Step::Check { expr, .. } | Step::Filter { expr, .. }) => {
                barrier[i] = !expr_slots(expr, &mut read)
            }
        }
        reads.push(read);
    }
    let is_assign = |i: usize| matches!(stages[i], Stage::Step(Step::Assign { .. }));
    // Per stage: the first boundary it may move up to, just past the last
    // barrier before it. Boundary `b` lies before stage `b`.
    let mut floor = vec![0; n];
    for i in 1..n {
        floor[i] = if barrier[i - 1] { i } else { floor[i - 1] };
    }
    // Per slot: the first boundary it can be bound at, with every binding
    // assignment pulled up as far as its own inputs allow.
    let mut ready = vec![0; width];
    for (slot, binder) in binder.iter().enumerate() {
        // Slots are numbered in binding order, so `ready` is final for
        // every slot a binder reads.
        ready[slot] = match *binder {
            None => 0,
            Some(i) if is_assign(i) && !barrier[i] => {
                let inputs = reads[i].iter().map(|&s| ready[s]);
                inputs.max().unwrap_or(0).max(floor[i])
            }
            Some(i) => i + 1,
        };
    }
    // Per stage: the boundary it runs at, and whether it was placed there
    // (a filter, or an assignment one needs) rather than left in place.
    let mut at: Vec<usize> = (0..n).collect();
    let mut placed = vec![false; n];
    for j in 0..n {
        if !matches!(stages[j], Stage::Step(Step::Filter { .. })) || barrier[j] {
            continue;
        }
        let inputs = reads[j].iter().map(|&s| ready[s]);
        let p = inputs.max().unwrap_or(0).max(floor[j]);
        if p >= j {
            continue;
        }
        (at[j], placed[j]) = (p, true);
        let mut pending = reads[j].clone();
        while let Some(slot) = pending.pop() {
            // An assignment at or past `p` the filter needs runs at `p`,
            // ahead of the filter; whatever binds before `p` stays put.
            match binder[slot] {
                Some(a) if at[a] > p || (at[a] == p && !placed[a]) => {
                    debug_assert!(is_assign(a) && !barrier[a], "a probe binds before p");
                    (at[a], placed[a]) = (p, true);
                    pending.extend_from_slice(&reads[a]);
                }
                _ => {}
            }
        }
    }
    // Stable by boundary: what was placed at a boundary runs before the
    // stage left there, in body order.
    let mut order: Vec<(usize, bool, Stage)> = stages
        .into_iter()
        .enumerate()
        .map(|(i, stage)| (at[i], !placed[i], stage))
        .collect();
    order.sort_by_key(|&(at, left, _)| (at, left));
    let (mut before, mut probes) = (Vec::new(), Vec::<ProbeStage>::new());
    for (_, _, stage) in order {
        match (stage, probes.last_mut()) {
            (Stage::Probe(probe), _) => probes.push(probe),
            (Stage::Step(step), Some(probe)) => probe.then.push(step),
            (Stage::Step(step), None) => before.push(step),
        }
    }
    (before, probes)
}

/// Append the slots `expr` reads to `out`; false if it reads a variable
/// the rule never binds. Placement runs before any read is resolved, so
/// every read is still a slot of the environment.
fn expr_slots(expr: &SlotExpr, out: &mut Vec<usize>) -> bool {
    match expr {
        SlotExpr::Const(_) => true,
        SlotExpr::Read(Place::Local(slot), _) => {
            out.push(*slot);
            true
        }
        SlotExpr::Read(..) => unreachable!("reads are resolved after placement"),
        SlotExpr::Unbound(_) => false,
        SlotExpr::Binary(_, l, r) => expr_slots(l, out) & expr_slots(r, out),
        SlotExpr::Call(_, _, args) => args.iter().fold(true, |ok, a| expr_slots(a, out) & ok),
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

/// Resolve an expression's variables against the slots bound so far, and
/// its calls to builtins.
fn compile_expr(expr: &Expr, slots: &BTreeMap<String, usize>) -> SlotExpr {
    match expr {
        Expr::Const(v) => SlotExpr::Const(v.clone()),
        Expr::Var(name) => match slots.get(name) {
            Some(&s) => SlotExpr::Read(Place::Local(s), name.clone()),
            None => SlotExpr::Unbound(name.clone()),
        },
        Expr::Binary(op, l, r) => SlotExpr::Binary(
            *op,
            Box::new(compile_expr(l, slots)),
            Box::new(compile_expr(r, slots)),
        ),
        Expr::Call(name, args) => SlotExpr::Call(
            Builtin::resolve(name),
            name.clone(),
            args.iter().map(|a| compile_expr(a, slots)).collect(),
        ),
    }
}

impl SlotExpr {
    /// Apply `f` to every place the expression reads.
    fn places(&mut self, f: &mut impl FnMut(&mut Place)) {
        match self {
            SlotExpr::Read(place, _) => f(place),
            SlotExpr::Binary(_, l, r) => {
                l.places(f);
                r.places(f);
            }
            SlotExpr::Call(_, _, args) => args.iter_mut().for_each(|a| a.places(f)),
            SlotExpr::Const(_) | SlotExpr::Unbound(_) => {}
        }
    }
}

/// What steps and head columns read from (see [`Place`]): the row the last
/// probe extends, that probe's candidate, and the environment the steps
/// bind into. Where steps run on a row, that row is `locals` and the other
/// two are empty.
#[derive(Clone, Copy)]
struct Env<'a> {
    row: &'a [Option<Value>],
    cand: &'a [Value],
    locals: &'a [Option<Value>],
}

impl<'a> Env<'a> {
    fn get(self, place: Place) -> Option<&'a Value> {
        match place {
            Place::Local(slot) => self.locals[slot].as_ref(),
            Place::Row(slot) => self.row[slot].as_ref(),
            Place::Cand(col) => Some(&self.cand[col]),
        }
    }
}

/// Evaluate an expression over values read where they lie: a constant or
/// a read is borrowed, and only an operator's or a builtin's result is a
/// new value.
fn eval<'a>(expr: &'a SlotExpr, env: Env<'a>) -> Result<Cow<'a, Value>, EvalError> {
    Ok(match expr {
        SlotExpr::Const(v) => Cow::Borrowed(v),
        SlotExpr::Read(place, name) => Cow::Borrowed(
            env.get(*place)
                .ok_or_else(|| EvalError::UnboundVariable(name.clone()))?,
        ),
        SlotExpr::Unbound(name) => return Err(EvalError::UnboundVariable(name.clone())),
        SlotExpr::Binary(op, l, r) => {
            let (l, r) = (eval(l, env)?, eval(r, env)?);
            Cow::Owned(eval_binop(*op, &l, &r)?)
        }
        // Every builtin takes one or two arguments: evaluate them into a
        // fixed array, not a vector.
        SlotExpr::Call(builtin, name, args) if args.len() <= 2 => {
            const UNSET: Cow<'static, Value> = Cow::Owned(Value::Bool(false));
            let mut vals: [Cow<'a, Value>; 2] = [UNSET; 2];
            for (val, a) in vals.iter_mut().zip(args) {
                *val = eval(a, env)?;
            }
            Cow::Owned(call(*builtin, name, &vals[..args.len()])?)
        }
        SlotExpr::Call(builtin, name, args) => {
            let vals = args.iter().map(|a| eval(a, env));
            let vals: Vec<Cow<Value>> = vals.collect::<Result<_, _>>()?;
            Cow::Owned(call(*builtin, name, &vals)?)
        }
    })
}

/// Apply a resolved builtin — or fail as the unknown function `name`.
fn call(builtin: Option<Builtin>, name: &str, args: &[Cow<Value>]) -> Result<Value, EvalError> {
    let builtin = builtin.ok_or_else(|| EvalError::UnknownFunction(name.to_string()))?;
    builtin.call(name, args)
}

/// Evaluate a filter to a boolean. Numbers are truthy when non-zero,
/// matching the paper's `f_member(P, S) = 0` idiom; anything else is a
/// type error naming the filter (`text`).
fn eval_filter(expr: &SlotExpr, text: &str, env: Env) -> Result<bool, EvalError> {
    match eval(expr, env)?.as_ref() {
        Value::Bool(b) => Ok(*b),
        Value::Int(i) => Ok(*i != 0),
        Value::Float(f) => Ok(*f != 0.0),
        _ => Err(EvalError::TypeMismatch {
            context: format!("boolean filter `{text}`"),
        }),
    }
}

/// Run `steps` in order over `row` and `cand`, binding into `locals`:
/// whether the row passes them all. Where the steps run on a row, that row
/// is `locals` and the other two are empty (see [`Place`]).
fn run_steps(
    steps: &[Step],
    row: &[Option<Value>],
    cand: &[Value],
    locals: &mut [Option<Value>],
) -> Result<bool, EvalError> {
    for step in steps {
        let env = Env { row, cand, locals };
        let passes = match step {
            Step::Assign { slot, expr, .. } => {
                let value = eval(expr, env)?.into_owned();
                locals[*slot] = Some(value);
                true
            }
            Step::Check { place, expr, .. } => env.get(*place) == Some(eval(expr, env)?.as_ref()),
            Step::Filter { expr, text } => eval_filter(expr, text, env)?,
        };
        if !passes {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Resolve a probe stage's key for one row into `out` (cleared first).
fn build_probe_key(key: &[SlotSource], row: &[Option<Value>], out: &mut Vec<Value>) {
    out.clear();
    out.extend(key_values(key, row).cloned());
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
/// the statistics they report to, and the grouping buffers of the probe
/// routine's shared arm.
struct Firing<'a> {
    store: &'a Store,
    triggers: &'a [BatchTrigger<'a>],
    stats: &'a mut EvalStats,
    groups: &'a mut KeyGroups,
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

    /// Write the slots this probe binds from the candidate's values into
    /// `row`: how a probe that is not the last extends a row.
    fn bind(&self, candidate: &[Value], row: &mut [Option<Value>]) {
        for &(col, slot) in &self.binds {
            row[slot] = Some(candidate[col].clone());
        }
    }

    /// The one probe loop (see the module docs): hand `sink` every `(row,
    /// origin, candidate values)` of `rows` that joins and is visible at
    /// the origin's `seq_limit`, row-major, candidates in lookup order —
    /// the order per-row probing produces, whichever arm runs. A relation
    /// the store does not hold joins nothing.
    ///
    /// In the shared arm, each distinct key's lookup runs at unrestricted
    /// visibility on behalf of all its members (the multiplier keeps the
    /// per-member logical accounting) and the visibility filter is applied
    /// per member afterwards, because members may carry different
    /// `seq_limit`s.
    fn probe(
        &self,
        rows: &Rows,
        firing: &mut Firing,
        mut sink: impl FnMut(&[Option<Value>], u32, &[Value]) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let Firing {
            store,
            triggers,
            stats,
            groups,
        } = firing;
        let Some(stored) = store.relation(&self.relation) else {
            return Ok(());
        };
        if rows.len() == 0 {
            return Ok(());
        }
        if rows.len() == 1 {
            let (row, origin) = rows.get(0);
            build_probe_key(&self.key, row, &mut groups.key);
            let seq_limit = triggers[origin as usize].seq_limit;
            for candidate in stored.lookup(&self.cols, &groups.key, seq_limit, stats) {
                if self.accepts(candidate) {
                    sink(row, origin, candidate.tuple.values())?;
                }
            }
            return Ok(());
        }
        groups.partition(&self.key, rows);
        groups.look_up(self, stored, rows, stats);
        for (r, &g) in groups.group_of.iter().enumerate() {
            let (row, origin) = rows.get(r);
            let seq_limit = triggers[origin as usize].seq_limit;
            let (start, end) = groups.ranges[g as usize];
            for &slot in &groups.matches[start as usize..end as usize] {
                let candidate = stored.row(slot);
                if candidate.seq <= seq_limit {
                    sink(row, origin, candidate.tuple.values())?;
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
        let probes = self.probes.iter().filter(|probe| !probe.cols.is_empty());
        probes
            .map(|probe| (probe.relation.clone(), probe.cols.clone()))
            .collect()
    }

    /// The stages in the order they run, one phrase each: `probe link[1]`
    /// (the relation and the columns it is looked up on; `scan right` when
    /// none is bound), `filter (H <= 2)`, `assign C`, and `check P` for an
    /// assignment to a variable already bound.
    pub(crate) fn describe(&self) -> Vec<String> {
        let step = |step: &Step| match step {
            Step::Check { var, .. } => format!("check {var}"),
            Step::Assign { var, .. } => format!("assign {var}"),
            Step::Filter { text, .. } => format!("filter {text}"),
        };
        let mut stages: Vec<String> = self.before.iter().map(step).collect();
        for probe in &self.probes {
            stages.push(if probe.cols.is_empty() {
                format!("scan {}", probe.relation)
            } else {
                let cols: Vec<String> = probe.cols.iter().map(usize::to_string).collect();
                format!("probe {}[{}]", probe.relation, cols.join(","))
            });
            stages.extend(probe.then.iter().map(step));
        }
        stages
    }

    /// Drain a whole batch of trigger deltas through the compiled stages,
    /// with key-grouped probe sharing (one index lookup per distinct probe
    /// key per atom). See the module docs for what the oracle checks.
    pub(crate) fn fire_batch(
        &self,
        store: &Store,
        triggers: &[BatchTrigger],
        stats: &mut EvalStats,
        scratch: &mut BatchScratch,
        out: &mut BatchOutput,
    ) -> Result<(), EvalError> {
        out.clear();
        let result = self.fire_rows(store, triggers, stats, scratch, out);
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
        store: &Store,
        triggers: &[BatchTrigger],
        stats: &mut EvalStats,
        scratch: &mut BatchScratch,
        out: &mut BatchOutput,
    ) -> Result<(), EvalError> {
        let BatchScratch {
            rows,
            next,
            locals,
            groups,
        } = scratch;
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

        // The steps placed before the first probe run on the trigger rows;
        // those placed after a probe run in its sink, on each extended row
        // before it is kept — or, after the last probe, on the row and the
        // candidate where they lie, before the head is projected.
        if !self.before.is_empty() {
            rows.retain(|row| run_steps(&self.before, &[], &[], row))?;
        }
        let Some((last, mid)) = self.probes.split_last() else {
            for r in 0..rows.len() {
                let (row, origin) = rows.get(r);
                let env = Env {
                    row: &[],
                    cand: &[],
                    locals: row,
                };
                self.emit(env, origin, triggers, out)?;
            }
            out.start_through(triggers.len());
            return Ok(());
        };
        let mut firing = Firing {
            store,
            triggers,
            stats,
            groups,
        };
        for probe in mid {
            next.clear();
            probe.probe(rows, &mut firing, |row, origin, cand| {
                let extended = next.push(row, origin);
                probe.bind(cand, extended);
                if !run_steps(&probe.then, &[], &[], extended)? {
                    next.pop();
                }
                Ok(())
            })?;
            std::mem::swap(rows, next);
        }
        locals.resize(width, None);
        last.probe(rows, &mut firing, |row, origin, cand| {
            if run_steps(&last.then, row, cand, locals)? {
                let env = Env { row, cand, locals };
                self.emit(env, origin, triggers, out)?;
            }
            Ok(())
        })?;
        out.start_through(triggers.len());
        Ok(())
    }

    /// Project one head derivation, reading each column where it lies in
    /// `env`, under the sign of the trigger the row descends from.
    fn emit(
        &self,
        env: Env,
        origin: u32,
        triggers: &[BatchTrigger],
        out: &mut BatchOutput,
    ) -> Result<(), EvalError> {
        let origin = origin as usize;
        out.start_through(origin);
        for source in &self.head {
            out.fields.push(match source {
                HeadSource::Const(c) => c.clone(),
                HeadSource::Read(place, name) => env
                    .get(*place)
                    .ok_or_else(|| EvalError::UnboundVariable(name.clone()))?
                    .clone(),
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
        let BatchScratch {
            rows,
            next,
            locals,
            groups,
        } = &self.scratch;
        rows.slots.is_empty()
            && rows.origins.is_empty()
            && next.slots.is_empty()
            && next.origins.is_empty()
            && locals.is_empty()
            && groups.key.is_empty()
            && self.triggers.is_empty()
            && self.queue.is_empty()
            && self.round.is_empty()
            && self.out.derivations.is_empty()
            && self.out.fields.is_empty()
            && self.per_trigger.iter().all(Vec::is_empty)
            && self.shipped.is_empty()
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

    type Fired = (Result<Vec<Vec<Derivation>>, EvalError>, EvalStats);

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
        let mut stats = EvalStats::default();
        let EvalBuffers { scratch, out, .. } = buffers;
        let result = strand
            .fire_batch(store, &triggers, &mut stats, scratch, out)
            .map(|()| {
                let mut per_trigger = vec![Vec::new(); deltas.len()];
                out.drain_into(|i, derivation| per_trigger[i].push(derivation));
                per_trigger
            });
        (result, stats)
    }

    #[test]
    fn filters_move_up_with_the_assignments_they_read_and_nothing_else() {
        let explain = |src: &str| setup(src, "q").1.explain();
        // `X > 2` needs only the trigger and `X := V + 1`: both run before
        // the probe; `Y`, which no filter reads, stays after it.
        assert_eq!(
            explain("r1 out(@S, Y) :- q(@S, V), t(@S, W), X := V + 1, Y := X + W, X > 2."),
            "r1-1 q: assign X; filter (X > 2); probe t[0]; assign Y"
        );
        // A chain of assignments moves with the filter, to just after the
        // probe that binds its input, ahead of the next probe.
        assert_eq!(
            explain(
                "r1 out(@S, K) :- q(@S, V), t(@S, W), u(@S, K), A := W + 1, B := A * 2, B > 2."
            ),
            "r1-1 q: probe t[0]; assign A; assign B; filter (B > 2); probe u[0]"
        );
        // An equality check never moves; a filter may move past it.
        assert_eq!(
            explain("r1 out(@S, W) :- q(@S, V), t(@S, W), W := V + 1, V > 1."),
            "r1-1 q: filter (V > 1); probe t[0]; check W"
        );
        // A step that reads a never-bound variable is a barrier.
        assert_eq!(
            explain("r1 out(@S) :- q(@S, V), t(@S, W), Z > 0, V > 1."),
            "r1-1 q: probe t[0]; filter (Z > 0); filter (V > 1)"
        );
    }

    #[test]
    fn lent_buffers_leak_nothing_between_firings() {
        // Three strands of different row widths over three stores: an
        // eleven-slot join whose filter and assignments follow its probe
        // (they run in the scratch's one extended row), a two-slot join
        // that projects the head from its candidate, and one whose head
        // projection fails.
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

    #[test]
    fn a_call_no_builtin_names_fails_only_when_evaluated() {
        // The name resolves to no builtin when the plan compiles; the plan
        // still compiles, and a firing fails only for a row that reaches
        // the call — after its arguments are evaluated, as by name.
        let (mut store, strand) = setup(
            "r1 out(@S, X) :- q(@S, V), t(@S, W), X := f_nosuch(V, W).",
            "q",
        );
        store.apply(&TupleDelta::insert(
            "t",
            Tuple::new(vec![addr(0), Value::Int(1)]),
        ));
        let q = |s: u32| TupleDelta::insert("q", Tuple::new(vec![addr(s), Value::Int(2)]));
        let mut buffers = EvalBuffers::default();
        let (unmatched, _) = fire(&store, &strand, &[q(1)], &mut buffers);
        assert_eq!(unmatched.unwrap(), [Vec::new()]);
        let (failed, _) = fire(&store, &strand, &[q(1), q(0)], &mut buffers);
        assert_eq!(
            failed.unwrap_err(),
            EvalError::UnknownFunction("f_nosuch".into())
        );
        assert!(buffers.holds_only_capacity());
    }

    #[test]
    fn probe_keys_on_one_fingerprint_keep_their_groups_apart() {
        // Every probe key of the batch files under fingerprint 0, so each
        // new key walks the whole collision chain and compares against
        // every group's first row: the groups, their shared lookups and
        // what each trigger derives are those of distinct fingerprints.
        let (mut store, strand) = setup(
            "j1 out(@S, V, W) :- probe(@S, K), big(@S, K, V), big(@S, V, W).",
            "probe",
        );
        for i in 0..12u32 {
            let (k, v) = (i64::from(i % 4), i64::from(i % 3));
            let big = Tuple::new(vec![addr(0), Value::Int(k), Value::Int(v)]);
            store.apply(&TupleDelta::insert("big", big));
        }
        let probe = |k: i64| TupleDelta::insert("probe", Tuple::new(vec![addr(0), Value::Int(k)]));
        // Keys 0 … 3 hold three rows each, 5 and 9 none; 2 and 0 repeat.
        let batch = [2, 0, 5, 2, 1, 9, 0, 3].map(probe);
        let mut colliding = EvalBuffers::default();
        colliding.scratch.groups.squash = |_| 0;
        let through_one_chain = fire(&store, &strand, &batch, &mut colliding);
        let through_fingerprints = fire(&store, &strand, &batch, &mut EvalBuffers::default());
        assert_eq!(through_one_chain, through_fingerprints);
        assert!(colliding.holds_only_capacity());
        let (derived, stats) = through_one_chain;
        let derived: Vec<usize> = derived.unwrap().iter().map(Vec::len).collect();
        // Each `big(0, K, V)` match leads on to the three rows under V.
        assert_eq!(derived, [9, 9, 0, 9, 9, 0, 9, 9]);
        // One lookup per distinct key of each probe: six keys of the
        // first, and the three values V takes for the second.
        assert_eq!(
            (stats.logical_probes, stats.distinct_probes),
            (8 + 18, 6 + 3)
        );
    }
}

//! Single-node NDlog evaluation machinery.
//!
//! This crate implements everything a node needs to evaluate a (localized)
//! NDlog program over its local state:
//!
//! * [`mod@tuple`] — tuples and signed tuple deltas;
//! * [`expr`] — operators and the builtin `f_*` functions (path-vector
//!   construction, membership tests, arithmetic) that compiled strands
//!   evaluate;
//! * [`relation`] — stored relations with primary keys, derivation counts
//!   (the count algorithm for deletions), per-tuple timestamps and optional
//!   soft-state TTLs; each tuple is stored once, in a slab slot that holds
//!   nothing else, and the primary index, every secondary index and the
//!   cached key order refer to it by slot; a lookup that binds the whole
//!   primary key is answered by the primary index, and no secondary index
//!   is built for it; because nothing observable is ever ordered by slot
//!   or fingerprint, results do not depend on insertion history or thread
//!   schedule — the determinism guarantee the parallel engine relies on;
//! * [`index`] — the one table type behind the primary index and the
//!   secondary hash indexes over bound-column signatures, maintained
//!   incrementally so joins probe in O(matches) instead of scanning: the
//!   fingerprint of a projection's values maps to slab slots in
//!   primary-key value order, a lone slot inline, every hit verified by
//!   value equality against the tuple the slab row holds, so a table
//!   stores no key and never clones a value;
//! * [`store`] — a node's collection of relations, built from a program's
//!   `materialize` declarations;
//! * [`strand`] — compiled rule strands (the unit of execution in P2's
//!   dataflow, Figures 3 and 5) and their firing logic;
//! * [`batch`] — batch-delta evaluation, the one way a strand fires:
//!   slot-compiled strand plans fired over whole delta batches through
//!   flat reusable buffers; every join goes through its one probe routine,
//!   and the buffers are one [`EvalBuffers`] value that a run borrows from
//!   whoever drives it;
//! * [`aggview`] — incremental maintenance of aggregate rules
//!   (`min<C>`-style heads): a view folds one relation through one atom
//!   of distinct variables and keeps no state — its head relation,
//!   keyed on the group-by fields, holds each group's current output — and
//!   combines insertions into the stored output, and the DRed pass rebuilds
//!   a group from the store, which is how deletions reach it;
//! * [`dred`] — DRed-style two-phase deletion maintenance (over-delete the
//!   downstream closure in batched waves, then refill the vacated keys
//!   through each rule's key-bound re-derivation plan, one batch per
//!   rule), the count-agnostic path every actual tuple removal takes;
//! * [`fixpoint`] — the one local fixpoint driver: insert queue → batch
//!   fire, a look-ahead prefix at a time → DRed on removal → aggregate
//!   views → tap, on a soft-state
//!   clock, with the three evaluation strategies of Section 3 —
//!   semi-naive (SN, Algorithm 1), buffered semi-naive (BSN) and pipelined
//!   semi-naive (PSN, Algorithm 3) — as its round policies, and the
//!   derivation statistics used to validate Theorems 1 and 2;
//! * [`evaluator`] — the centralized wrapper over [`fixpoint`], and
//!   [`compile`], the one compile step it and `ndlog-core`'s planner share:
//!   split the aggregate rules into normal form (`ndlog_lang::aggsplit`),
//!   check the store's schema, compile strands and views.
//!
//! The distributed engine (`ndlog-core`) wraps the same driver per node and
//! adds the network, optimizations and update handling.
//!
//! # Performance
//!
//! Nothing in this crate reads a clock. Time is measured from outside by
//! the standalone `benchmark/` package (`BENCHMARK.json`), whose traced
//! run reports this layer as `runtime.*` (`scans`, `logical_probes`,
//! `distinct_probes`, `tuples_examined` among them) on all four
//! workloads. That the access paths are the intended ones is pinned
//! by exact counts, not by timing: `strand.rs`'s unit tests pin every
//! rule shape's logical probes, scans and examined tuples, "four triggers
//! over two distinct keys probe twice" and
//! `shared_key_batch_probes_the_index_exactly_once`;
//! `tests/indexed_joins.rs` asserts the same of the distributed engine.
//!
//! **Who owns what.** A site's [`fixpoint::LocalFixpoint`] owns its state —
//! store, views, aggregate selections, queue, tap — and no evaluation
//! buffer: [`fixpoint::LocalFixpoint::run`] borrows an [`EvalBuffers`] (row
//! arenas, output buffer, per-round vectors, the list of derivations
//! shipped to other nodes) from its driver and hands it back holding
//! capacity only, once the site has drained what it shipped. The drivers are the [`Evaluator`] (one
//! engine, one set) and each executor lane of `ndlog-core` (one set for
//! every node and epoch the lane drains; the distributed engine's inject
//! path borrows lane 0's, the lane that runs on the caller), so a process
//! hosting hundreds of node engines pays the buffers' high-water mark
//! once per lane, not once per node — at 150 nodes that
//! was half the live heap. A tuple is one allocation
//! ([`Tuple`] is an `Arc<[Value]>`, built at its exact size where it is
//! constructed), extending a list value is one more (a path vector shares
//! its tail with the path it extends: `ndlog_lang::value::List`), a stored
//! row adds none (its slab slot is the tuple pointer and its bookkeeping,
//! and a row alone under its fingerprint sits inline in every table that
//! files it), and a
//! relation's name is a shared [`RelName`] that strands and views hold once
//! and deltas clone by reference count. `tests/alloc_budget.rs` holds the
//! resulting allocator calls and requested bytes per derivation, and live
//! allocations, live bytes and peak live bytes per stored tuple to budgets,
//! as exact counts.
//!
//! Three optimizations stack on the batch path:
//!
//! * **Filters run where their inputs are bound** ([`batch`]): each filter
//!   of a strand is placed at the first stage that binds every slot it
//!   reads, with the assignments it needs, and the steps after a probe run
//!   inside that probe's sink on the extended row. A trigger a filter on
//!   its own columns rejects is never probed for the next atom, and a row
//!   is kept only once it has passed everything placed before the next
//!   probe. Equality checks and assignments no moved filter reads keep
//!   their body order; derivations and their order do not change.
//! * **Key-grouped probe sharing** ([`batch`]): a delta batch's rows are
//!   partitioned by probe-key value per body atom, each distinct key is
//!   looked up once ([`relation::Relation::lookup_n`]), residual checks
//!   run once per candidate, and the match set is broadcast to every
//!   group member through offset ranges into a flat match buffer. Real
//!   workloads (path exploration, flooding) are heavily key-skewed, so
//!   this removes most bucket lookups and candidate materializations.
//!   One routine does all probing — the shared arm above, or one plain
//!   lookup for a lone row, chosen from the batch, never by an option —
//!   and feeds either the next row arena or, for a rule's last probe,
//!   head projection.
//! * **Slot tables over a slab** ([`relation`], [`index`]): a stored
//!   tuple lives once, in a slab slot that is its `StoredTuple` (48 bytes);
//!   the primary index files the slot under the fingerprint of the key
//!   columns' values and a secondary index under that of its signature's,
//!   a bucket being the slot itself or a `Vec<u32>` of slots, every hit
//!   verified by value equality against the slab row (O(1) per column, a
//!   list caching its hash and comparing only up to a shared tail), and a
//!   probe hit is one slab access from its tuple. Buckets and ordered reads
//!   keep primary-key *value* order — never slot or fingerprint order,
//!   which depend on history — so probe order, derivation order and every
//!   deterministic
//!   count are those of an ordered map; the order of a whole relation is a
//!   sorted slot list cached until the next membership change. Every join
//!   has one access path, fixed when the store declares its indexes: the
//!   primary index when the probe binds the whole key, else the secondary
//!   index on exactly its bound columns, else a residual scan.
//!
//! Two more optimizations live a layer up, in the distributed engine
//! (`ndlog-core`), but exist to feed this crate's batch path:
//!
//! * **Epoch delivery coalescing** (`ndlog-core`'s `exec` module): the
//!   epoch executor merges consecutive same-node message deliveries into
//!   one receive batch, so a node ingests every payload of the run and
//!   calls `process` once — handing [`batch`] one wide delta batch
//!   instead of many single-delta batches. It is the only schedule;
//!   `tests/coalescing.rs` checks its fixpoint against Dijkstra and the
//!   centralized SN/BSN/PSN fixpoints, and the benchmark reports the
//!   achieved width as `core.receive_batch_width`. The node hands the run
//!   to [`fixpoint::LocalFixpoint::ingest_batch`], which ingests it as its
//!   net change: a stored hard-state tuple one message deletes and a later
//!   one re-inserts unchanged is left alone, not removed, cascaded
//!   through DRed to the neighbours and re-derived. The rule reads the receiver's store, so it lives at the
//!   receiver, never at a sender. On `churn_dred`, whose re-costings ship
//!   such pairs, it lowered `wire_mb` by about 7 % and `net.messages` by
//!   about a quarter. A wide batch holding both signs finds each
//!   deletion's next delta under its key through key chains built in one
//!   pass, a narrow one by a scan of fewer than 128 deltas, so either
//!   costs O(n); one without both signs is ingested delta by delta, as
//!   before, and `tests/net_change.rs` holds batches to the same
//!   stores as one update per delta.
//! * **Wire buffers**: the `Vec<TupleDelta>` payload that carries deltas
//!   between nodes comes from the allocator. A sender makes each one once
//!   its payload is complete, at exactly its length, so a message waiting
//!   out a link's delay holds no spare slots, and the receiver frees it as
//!   soon as the batch is ingested. The benchmark reports the payload
//!   bytes a push-grown buffer would have requested against those made as
//!   `core.arena_demand_bytes` / `core.arena_allocated_bytes`.
//!
//! Probe accounting is two-counter, in the [`EvalStats`] every join site
//! counts into directly: `logical_probes` counts per binding environment
//! (the same however the triggers are batched) and `distinct_probes`
//! counts bucket lookups actually executed (`≤ logical` under grouping; both deterministic, so
//! they participate in the cross-thread bitwise-identity checks). A round
//! fires every queued delta against one store snapshot, so
//! `tuples_examined` counts buckets probed before, rather than after, a
//! sibling delta's insertions (PSN-invisible either way), and a round
//! invalidated by a mid-round removal re-fires its remainder, re-counting
//! those probes.
//!
//! This crate has one evaluator. Its reference is the naive, stratified,
//! bottom-up evaluator of the dev-only `ndlog-oracle` crate, which shares
//! no code with it: the strand table test compares each trigger's
//! derivations with the oracle's, and `tests/properties.rs` compares whole
//! stores, derivation counts included.

// A helper that needs more than seven arguments is missing a struct; an
// `allow` cannot wave it through.
#![forbid(clippy::too_many_arguments)]
#![forbid(unsafe_code)]

pub mod aggview;
pub mod batch;
pub mod dred;
pub mod evaluator;
pub mod expr;
pub mod fixpoint;
pub mod index;
pub mod relation;
pub mod store;
pub mod strand;
pub mod tap;
pub mod tuple;

pub use aggview::AggregateView;
pub use batch::{BatchOutput, BatchScratch, BatchTrigger, EvalBuffers};
pub use evaluator::{compile, Compiled, Evaluator, Strategy};
pub use expr::EvalError;
pub use index::{EvalStats, IndexSignature};
pub use relation::{HeapBytes, InsertOutcome, Relation, RelationSchema};
pub use store::Store;
pub use strand::{CompiledStrand, Derivation};
pub use tap::DeltaTap;
pub use tuple::{RelName, Sign, Tuple, TupleDelta};

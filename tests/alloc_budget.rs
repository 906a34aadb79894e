//! The heap census as a deterministic test: how many allocator calls and
//! requested bytes a derivation costs, how many live allocations and bytes
//! a stored tuple costs once the network is quiet, and how high the live
//! bytes rose on the way there.
//!
//! Input: hop-count `shortest_path` with aggregate selections on the
//! seeded 52-node `TransitStubConfig::medium()` overlay, one executor
//! thread, run to quiescence — `converge_dense`'s shape at a third of its
//! size. The allocator below counts per thread, and only while the thread
//! is marked as measuring, so the harness's own threads, other tests and
//! everything before the first mark stay out of the numbers; with one
//! executor thread the whole engine runs on that thread. Every quantity is
//! a count of calls or of requested bytes, never a time, and the input is
//! seeded, so the five ratios repeat exactly from run to run and are held
//! to budgets of measured value + 10 %. A change that makes a tuple cost
//! another allocation fails here before it shows up as `peak_rss_mb`; the
//! peak is the committed form of a census taken at the live-heap peak of a
//! round, where the derivations in flight are.
//!
//! Run with `--nocapture` to see the ratios; under them, the ten size
//! classes holding the most live bytes at that peak (exact requested sizes
//! up to 512 B, powers of two above), as counts and bytes, with how many of
//! each are left at quiescence; and what the relations' own structures
//! hold by component — slab, primary index, each secondary index — summed
//! over the nodes from `Store::heap_bytes()` (capacities, so no sampling):
//! the number a storage change is to be read against. When the ratios were
//! set (release build; a debug build's `check_invariants` allocates nothing
//! per row, so it reads the same):
//!
//! | | before lent buffers and one-allocation tuples | after | aggregate views hold outputs only | key-bound re-derivation plans | fingerprint → slot tables | shared list tails | 16-byte values | rows without ids | no cross-rule probe cache | head relation as view state | payloads at their length, 56-byte list nodes | no payload pool |
//! |---|---|---|---|---|---|---|---|---|---|---|---|---|
//! | allocator calls per derivation | 18.234 | 4.705 | 4.597 | 4.191 | 3.789 | 3.681 | 3.681 | 3.637 | 3.403 | 3.390 | 3.289 | 3.289 |
//! | requested bytes per derivation | | | | | 635.7 | 582.4 | 479.8 | 424.6 | 400.7 | 397.3 | 385.0 | 392.1 |
//! | live allocations per stored tuple | 10.462 | 4.524 | 4.260 | 3.936 | 2.635 | 2.413 | 2.418 | 2.320 | 2.294 | 2.152 | 2.151 | 2.028 |
//! | live bytes per stored tuple | 1946.1 | 1070.9 | 961.1 | 932.4 | 732.2 | 704.4 | 602.3 | 459.0 | 457.6 | 438.4 | 416.3 | 375.3 |
//! | peak live bytes per stored tuple | | | | | 1147.9 | 1031.9 | 853.2 | 714.0 | 712.5 | 694.0 | 617.0 | 615.0 |
//!
//! The fourth column's live figures are the two indexes only the old
//! re-derivation probed (`path[1]`, `path_sp2_xd[1]`) leaving every node.
//! The plans that replaced them are compiled once per program and shared
//! by every node; a copy per node would be 10 865 bytes here, 56 of them
//! per stored tuple. The fifth is the index layer rebuilt around slots: a
//! one-row bucket is 16 bytes in its table and no allocation, no table
//! entry carries a 40-byte key, and the four signatures that bind a whole
//! primary key (`link[0,1]`, `link[0,1,2]`, `spCost[0,1]`, `spCost[0,1,2]`)
//! are answered by the primary index and never built. The sixth is
//! `Value::List` as a persistent list: `f_cons` adds one node to the path
//! it extends instead of copying it (`nil` is no allocation at all), and an
//! aggregate view keys each group by the head tuple it holds instead of a
//! copied key vector. A path's tail outlives the path when a longer path
//! still shares it, which costs fewer bytes than the copies did. The
//! seventh is a `Value` of 16 bytes instead of 24 (a string is one pointer
//! to a shared `Box<str>`, and so is a relation name): a 5-ary `path` tuple
//! is 96 bytes instead of 136, a list node 64 instead of 72, a dictionary
//! entry 24 instead of 32, and a `TupleDelta` 32 instead of 40. Each
//! relation name is a second allocation, hence the 0.005 more live
//! allocations per stored tuple. (Dropping the second copy of each rule's
//! atoms then took the last three to 2.382 / 600.7 / 851.6.) The eighth is
//! the store without its per-relation value dictionary: a slab slot is the
//! stored tuple alone, 48 bytes instead of 88 (67.6 slab bytes per stored
//! tuple instead of 123.6), and the tables fingerprint and verify the
//! values themselves. The ninth is every round firing without a
//! cross-rule probe cache: no per-round key map and candidate vectors,
//! and no per-node list of shared signatures (the live difference). The
//! tenth is an aggregate view with no state of its own: a group's output
//! is read back from the head relation, so the per-node hash set of the
//! outputs each view also stored is gone, and so is each node's compiled
//! copy of the view — the plan compiles it once and every node shares it.
//! The changes between it and the eleventh left 3.360 / 401.4 / 2.151 /
//! 434.0 / 666.2. The eleventh is a list node without its cached power of
//! the hash base (40 bytes, a 56-byte request instead of 64: 394.6
//! requested bytes per derivation, 652.1 at the peak, alone) and a payload
//! buffer rented at exactly its payload's length (the rest, and the 0.071
//! fewer allocator calls: a payload no longer grows by pushing). The
//! twelfth is the wire path without a payload pool: a sender allocates
//! each payload at its length and its receiver frees it once ingested, so
//! the idle buffers the nodes pooled at quiescence (408 064 bytes, 40.7
//! per stored tuple) are gone. A fresh payload requests all its bytes
//! where a pooled buffer was resized to it (the requested bytes), in one
//! allocator call where the resize was one (95 448 calls, 9 fewer). The
//! census run goes one epoch at a time so that, outside the count, it
//! reads at the epoch boundary where the most bytes are live the payloads
//! in flight — their deltas against their buffers' slots, which must be
//! equal — and what the nodes keep between runs: queue, pending
//! deletions, held deltas.
//!
//! Beside it, two smaller pins: extending a path vector is one allocator
//! call, and a request line of `MAX_LINE_BYTES` makes the parser hold a
//! bounded multiple of its size.

use ndlog_core::{plan, DistributedEngine, EngineConfig, KeptCapacity};
use ndlog_lang::value::FxBuild;
use ndlog_lang::{parse_command, programs, Command, Value};
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig};
use ndlog_net::topology::Metric;
use ndlog_runtime::expr::eval_builtin;
use ndlog_runtime::{Tuple, TupleDelta};
use ndlog_serve::service::MAX_LINE_BYTES;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hash::BuildHasher;

/// Allocator calls (`alloc` + `realloc`) per derivation during the run.
const MAX_ALLOCS_PER_DERIVATION: f64 = 3.62;
/// Requested bytes (`alloc` sizes + `realloc` growth) per derivation.
const MAX_REQUESTED_BYTES_PER_DERIVATION: f64 = 423.5;
/// Live allocations per stored tuple at quiescence.
const MAX_LIVE_ALLOCS_PER_TUPLE: f64 = 2.53;
/// Live requested bytes per stored tuple at quiescence.
const MAX_LIVE_BYTES_PER_TUPLE: f64 = 412.9;
/// The high-water mark of live requested bytes, per stored tuple.
const MAX_PEAK_BYTES_PER_TUPLE: f64 = 679.0;
/// Live requested bytes a parsed request line holds, per byte of the line.
const MAX_LIVE_BYTES_PER_LINE_BYTE: f64 = 30.8;
/// The high-water mark of live requested bytes while parsing a request
/// line, per byte of the line.
const MAX_PEAK_BYTES_PER_LINE_BYTE: f64 = 92.4;

struct Counting;

/// Census size classes: one per exact requested size up to 512 B, then one
/// per power of two, `(2ᵏ⁻¹, 2ᵏ]` for `k` from 10 to 64.
const EXACT_CLASSES: usize = 513;
const CLASSES: usize = EXACT_CLASSES + 55;

fn size_class(size: usize) -> usize {
    if size < EXACT_CLASSES {
        size
    } else {
        let k = usize::BITS - (size - 1).leading_zeros();
        EXACT_CLASSES + k as usize - 10
    }
}

fn class_label(class: usize) -> String {
    if class < EXACT_CLASSES {
        format!("{class} B")
    } else {
        format!("≤ 2^{} B", class - EXACT_CLASSES + 10)
    }
}

/// The live allocations of one size class, and what they were at the
/// high-water mark of live bytes.
struct Class {
    /// Live allocations and their requested bytes.
    live: Cell<(i64, i64)>,
    /// `live` as it was at high-water mark number `at`, kept from the
    /// class's first change after that mark; a class unchanged since the
    /// latest mark is still at its value there.
    at_peak: Cell<(i64, i64)>,
    at: Cell<u64>,
}

impl Class {
    const fn new() -> Class {
        Class {
            live: Cell::new((0, 0)),
            at_peak: Cell::new((0, 0)),
            at: Cell::new(0),
        }
    }
}

/// What the measuring thread allocated between the two marks.
struct Counts {
    measuring: Cell<bool>,
    /// `alloc` + `realloc` calls.
    calls: Cell<u64>,
    /// Bytes requested by `alloc`, and by `realloc` beyond the old size.
    requested: Cell<u64>,
    /// Allocations made and not yet freed.
    live: Cell<i64>,
    /// Requested bytes of those allocations.
    live_bytes: Cell<i64>,
    /// The highest `live_bytes` has been.
    peak_bytes: Cell<i64>,
    /// How many times `peak_bytes` has risen: the number of the latest
    /// high-water mark.
    peaks: Cell<u64>,
    /// The live set by size class.
    classes: [Class; CLASSES],
}

thread_local! {
    /// Per thread, so tests running side by side count apart. Const
    /// initialized and without a destructor, so touching it inside the
    /// allocator neither allocates nor registers anything.
    static COUNTS: Counts = const {
        Counts {
            measuring: Cell::new(false),
            calls: Cell::new(0),
            requested: Cell::new(0),
            live: Cell::new(0),
            live_bytes: Cell::new(0),
            peak_bytes: Cell::new(0),
            peaks: Cell::new(0),
            classes: [const { Class::new() }; CLASSES],
        }
    };
}

impl Counts {
    fn alloc(&self, size: usize) {
        if self.measuring.get() {
            self.calls.set(self.calls.get() + 1);
            self.requested.set(self.requested.get() + size as u64);
            self.change(1, size);
        }
    }

    fn dealloc(&self, size: usize) {
        if self.measuring.get() {
            self.change(-1, size);
        }
    }

    fn realloc(&self, old: usize, new: usize) {
        if self.measuring.get() {
            self.calls.set(self.calls.get() + 1);
            self.requested
                .set(self.requested.get() + new.saturating_sub(old) as u64);
            self.change(-1, old);
            self.change(1, new);
        }
    }

    /// Add `allocations` live allocations of `size` bytes (remove, when
    /// negative), raising the high-water mark if the live bytes pass it.
    fn change(&self, allocations: i64, size: usize) {
        let bytes = allocations * size as i64;
        let class = &self.classes[size_class(size)];
        let live = class.live.get();
        if class.at.get() != self.peaks.get() {
            class.at_peak.set(live);
            class.at.set(self.peaks.get());
        }
        class.live.set((live.0 + allocations, live.1 + bytes));
        self.live.set(self.live.get() + allocations);
        self.live_bytes.set(self.live_bytes.get() + bytes);
        if self.live_bytes.get() > self.peak_bytes.get() {
            self.peak_bytes.set(self.live_bytes.get());
            self.peaks.set(self.peaks.get() + 1);
        }
    }

    /// Each size class's live allocations and bytes at the latest
    /// high-water mark.
    fn at_peak(&self) -> Vec<(usize, (i64, i64))> {
        let latest = self.peaks.get();
        (0..CLASSES)
            .map(|i| {
                let class = &self.classes[i];
                let at_peak = if class.at.get() == latest {
                    class.at_peak.get()
                } else {
                    class.live.get()
                };
                (i, at_peak)
            })
            .collect()
    }
}

/// Start (`true`) or stop counting on this thread.
fn mark(measuring: bool) {
    COUNTS.with(|c| c.measuring.set(measuring));
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTS.with(|c| c.alloc(layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        COUNTS.with(|c| c.dealloc(layout.size()));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNTS.with(|c| c.realloc(layout.size(), new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn allocations_per_derivation_and_per_stored_tuple_stay_in_budget() {
    let ts = generate(&TransitStubConfig::medium());
    let overlay = Overlay::random_neighbors(&ts.topology, &OverlayConfig::default());
    let query_plan = plan(&programs::shortest_path("")).unwrap();
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.parallelism = 1;

    // First mark: everything the engine allocates from here on is counted,
    // nothing allocated before is freed inside the window.
    mark(true);
    let mut engine = DistributedEngine::new(overlay.graph.clone(), &[query_plan], config).unwrap();
    for l in overlay.links() {
        let cost = l.cost(Metric::HopCount);
        let link = Tuple::new(vec![
            Value::Addr(l.src),
            Value::Addr(l.dst),
            Value::Float(cost),
        ]);
        engine.insert_base(l.src, "link", link).unwrap();
    }
    let (calls_before, requested_before) = COUNTS.with(|c| (c.calls.get(), c.requested.get()));
    let derivations_before = engine.computation_stats().derivations;
    // The run to quiescence, one epoch at a time: between epochs, outside
    // the count, what is in flight and what the nodes keep is read at the
    // boundary where the most bytes are live.
    let mut boundary = Boundary::default();
    while engine.run_epoch().unwrap() {
        mark(false);
        let live_bytes = COUNTS.with(|c| c.live_bytes.get());
        if live_bytes > boundary.live_bytes {
            boundary = Boundary::of(&engine, live_bytes);
        }
        mark(true);
    }
    // Second mark.
    mark(false);
    let report = engine.run_to_quiescence().unwrap();
    let (calls, requested, live, live_bytes, peak_bytes) = COUNTS.with(|c| {
        (
            c.calls.get() - calls_before,
            c.requested.get() - requested_before,
            c.live.get(),
            c.live_bytes.get(),
            c.peak_bytes.get(),
        )
    });
    let derivations = engine.computation_stats().derivations - derivations_before;

    assert!(report.quiesced);
    let n = overlay.node_count();
    assert_eq!(engine.result_count("shortestPath"), n * (n - 1));
    let stored: usize = engine.nodes().map(|(_, n)| n.store().total_tuples()).sum();
    assert!(derivations > 0 && stored > 0);

    let per_derivation = calls as f64 / derivations as f64;
    let requested_per_derivation = requested as f64 / derivations as f64;
    let live_per_tuple = live as f64 / stored as f64;
    let bytes_per_tuple = live_bytes as f64 / stored as f64;
    let peak_per_tuple = peak_bytes as f64 / stored as f64;
    println!("{calls} allocator calls / {derivations} derivations = {per_derivation:.3}");
    println!(
        "{requested} requested bytes / {derivations} derivations = {requested_per_derivation:.1}"
    );
    println!("{live} live allocations / {stored} stored tuples = {live_per_tuple:.3}");
    println!("{live_bytes} live bytes / {stored} stored tuples = {bytes_per_tuple:.1}");
    println!("{peak_bytes} peak live bytes / {stored} stored tuples = {peak_per_tuple:.1}");

    // Who held the peak: the ten size classes with the most live bytes at
    // the high-water mark, and how many of each are left at quiescence.
    let (mut at_peak, quiescent) = COUNTS.with(|c| {
        let quiescent: Vec<i64> = c.classes.iter().map(|class| class.live.get().0).collect();
        (c.at_peak(), quiescent)
    });
    at_peak.sort_by_key(|&(class, (_, bytes))| (std::cmp::Reverse(bytes), class));
    println!("live at the peak, top 10 size classes:");
    for &(class, (count, bytes)) in at_peak.iter().take(10) {
        println!(
            "  {bytes:>9} B in {count:>6} × {:<10} ({} left at quiescence)",
            class_label(class),
            quiescent[class]
        );
    }

    // At the boundary of the most live bytes, the payloads in flight, and
    // what the nodes keep between runs there and at quiescence.
    let InFlight {
        messages,
        deltas,
        slots,
    } = boundary.in_flight;
    println!(
        "at the epoch boundary of the most live bytes ({} B): {messages} payloads in flight, \
         {deltas} deltas in {slots} slots ({} B)",
        boundary.live_bytes,
        slots * std::mem::size_of::<TupleDelta>()
    );
    let quiescent_kept = kept(&engine);
    println!("kept between runs, summed over the nodes (there / at quiescence):");
    for (buffer, there, quiet) in [
        ("queue", boundary.kept.queue, quiescent_kept.queue),
        ("pending", boundary.kept.pending, quiescent_kept.pending),
        ("held", boundary.kept.held, quiescent_kept.held),
    ] {
        println!("  {there:>9} / {quiet:>9} B {buffer}");
    }
    assert!(messages > 0, "nothing in flight at the busiest boundary");
    assert_eq!(
        slots, deltas,
        "a payload's buffer holds exactly its payload"
    );

    // What of that the relations' own structures hold, by component.
    let mut components: BTreeMap<String, usize> = BTreeMap::new();
    let mut add =
        |component: String, bytes: usize| *components.entry(component).or_default() += bytes;
    for (_, node) in engine.nodes() {
        for (relation, heap) in node.store().heap_bytes() {
            add("slab".into(), heap.slab);
            add("primary index".into(), heap.primary);
            for (signature, bytes) in heap.secondary {
                add(format!("index {relation}{:?}", signature.columns()), bytes);
            }
        }
    }
    let accounted: usize = components.values().sum();
    println!("{accounted} of them in relation storage, from capacities:");
    for (component, bytes) in &components {
        println!(
            "  {bytes:>9} {component} ({:.1} per stored tuple)",
            *bytes as f64 / stored as f64
        );
    }
    assert!(
        accounted as i64 <= live_bytes,
        "relation storage accounts for {accounted} of {live_bytes} live bytes"
    );
    assert!(
        per_derivation <= MAX_ALLOCS_PER_DERIVATION,
        "{per_derivation:.3} allocator calls per derivation, budget {MAX_ALLOCS_PER_DERIVATION}"
    );
    assert!(
        requested_per_derivation <= MAX_REQUESTED_BYTES_PER_DERIVATION,
        "{requested_per_derivation:.1} requested bytes per derivation, budget {MAX_REQUESTED_BYTES_PER_DERIVATION}"
    );
    assert!(
        live_per_tuple <= MAX_LIVE_ALLOCS_PER_TUPLE,
        "{live_per_tuple:.3} live allocations per stored tuple, budget {MAX_LIVE_ALLOCS_PER_TUPLE}"
    );
    assert!(
        bytes_per_tuple <= MAX_LIVE_BYTES_PER_TUPLE,
        "{bytes_per_tuple:.1} live bytes per stored tuple, budget {MAX_LIVE_BYTES_PER_TUPLE}"
    );
    assert!(
        peak_per_tuple <= MAX_PEAK_BYTES_PER_TUPLE,
        "{peak_per_tuple:.1} peak live bytes per stored tuple, budget {MAX_PEAK_BYTES_PER_TUPLE}"
    );
}

/// The payloads in flight: how many, the deltas they carry and the slots
/// their buffers hold.
#[derive(Debug, Default)]
struct InFlight {
    messages: usize,
    deltas: usize,
    slots: usize,
}

/// What the census reads off the engine at an epoch boundary.
#[derive(Debug, Default)]
struct Boundary {
    live_bytes: i64,
    in_flight: InFlight,
    kept: KeptCapacity,
}

impl Boundary {
    fn of(engine: &DistributedEngine, live_bytes: i64) -> Boundary {
        let mut in_flight = InFlight::default();
        for payload in engine.payloads_in_flight() {
            in_flight.messages += 1;
            in_flight.deltas += payload.len();
            in_flight.slots += payload.capacity();
        }
        Boundary {
            live_bytes,
            in_flight,
            kept: kept(engine),
        }
    }
}

/// The nodes' kept capacity, summed.
fn kept(engine: &DistributedEngine) -> KeptCapacity {
    let mut sum = KeptCapacity::default();
    for (_, node) in engine.nodes() {
        let kept = node.kept_capacity();
        sum.queue += kept.queue;
        sum.pending += kept.pending;
        sum.held += kept.held;
    }
    sum
}

/// Extending a path vector is one node whatever its length, and reading
/// its length, wire size or hash allocates nothing: what lets a derivation
/// of `path` cost the same at hop 1 and hop 100.
#[test]
fn extending_a_list_is_one_allocation_and_reading_it_none() {
    let list = Value::list((0..1000).map(Value::Int).collect());
    let snoc_built = (0..1000).fold(Value::nil(), |list, i| {
        eval_builtin("f_append", &[list, Value::Int(i)]).unwrap()
    });
    let cons_args = [Value::addr(7u32), list.clone()];
    let append_args = [snoc_built.clone(), Value::addr(7u32)];
    // (allocator calls, requested bytes) of `f`.
    let allocations = |f: &dyn Fn()| {
        mark(true);
        let before = COUNTS.with(|c| (c.calls.get(), c.requested.get()));
        f();
        let after = COUNTS.with(|c| (c.calls.get(), c.requested.get()));
        mark(false);
        (after.0 - before.0, after.1 - before.1)
    };
    let allocator_calls = |f: &dyn Fn()| allocations(f).0;
    // One node — 40 bytes and two reference counts — not a copy of 1000
    // elements (16 kB).
    const ONE_NODE: u64 = 56;
    let cons = || drop(eval_builtin("f_cons", &cons_args).unwrap());
    let (calls, bytes) = allocations(&cons);
    assert!(
        calls == 1 && bytes <= ONE_NODE,
        "f_cons: {calls} calls, {bytes} B"
    );
    let append = || drop(eval_builtin("f_append", &append_args).unwrap());
    let (calls, bytes) = allocations(&append);
    assert!(
        calls == 1 && bytes <= ONE_NODE,
        "f_append: {calls} calls, {bytes} B"
    );
    let size = || drop(eval_builtin("f_size", std::slice::from_ref(&list)).unwrap());
    assert_eq!(allocator_calls(&size), 0, "f_size");
    let len = || assert_eq!(snoc_built.as_list().unwrap().len(), 1000);
    assert_eq!(allocator_calls(&len), 0, "len");
    let wire_size = || assert_eq!(list.wire_size(), snoc_built.wire_size());
    assert_eq!(allocator_calls(&wire_size), 0, "wire_size");
    let hash = || {
        let fx = FxBuild::default();
        assert_eq!(fx.hash_one(&list), fx.hash_one(&snoc_built));
        let sip = std::collections::hash_map::RandomState::new();
        assert_eq!(sip.hash_one(&list), sip.hash_one(&snoc_built));
    };
    assert_eq!(allocator_calls(&hash), 0, "hashing");
}

/// What one request line can make the parser hold: a `+big(1, [0,1,…]).`
/// line of `MAX_LINE_BYTES`, one-digit elements, parsed on the measuring
/// thread. Live bytes once the command is built (one list node per
/// element, two line bytes) and the high-water mark on the way (the
/// lexer's tokens, two per element, beside the list being built), each per
/// byte of the line.
#[test]
fn a_request_line_costs_a_bounded_multiple_of_its_bytes() {
    let items = (MAX_LINE_BYTES - 11) / 2;
    let mut line = String::with_capacity(MAX_LINE_BYTES);
    line.push_str("+big(1, [");
    for i in 0..items {
        line.push(char::from(b'0' + (i % 10) as u8));
        line.push(if i + 1 < items { ',' } else { ']' });
    }
    line.push_str(").");
    while line.len() < MAX_LINE_BYTES {
        line.push(' ');
    }
    assert_eq!(line.len(), MAX_LINE_BYTES);

    let (live_before, peak_before) = COUNTS.with(|c| {
        c.peak_bytes.set(c.live_bytes.get());
        (c.live_bytes.get(), c.peak_bytes.get())
    });
    mark(true);
    let command = parse_command(&line).unwrap();
    mark(false);
    let (live, peak) = COUNTS.with(|c| {
        (
            c.live_bytes.get() - live_before,
            c.peak_bytes.get() - peak_before,
        )
    });
    let Some(Command::Update(update)) = &command else {
        panic!("not an update")
    };
    assert_eq!(update.tuples[0][1].as_list().map(|l| l.len()), Some(items));

    let live_per_byte = live as f64 / MAX_LINE_BYTES as f64;
    let peak_per_byte = peak as f64 / MAX_LINE_BYTES as f64;
    println!("{live} live bytes / {MAX_LINE_BYTES} line bytes = {live_per_byte:.1}");
    println!("{peak} peak live bytes / {MAX_LINE_BYTES} line bytes = {peak_per_byte:.1}");
    assert!(
        live_per_byte <= MAX_LIVE_BYTES_PER_LINE_BYTE,
        "{live_per_byte:.1} live bytes per line byte, budget {MAX_LIVE_BYTES_PER_LINE_BYTE}"
    );
    assert!(
        peak_per_byte <= MAX_PEAK_BYTES_PER_LINE_BYTE,
        "{peak_per_byte:.1} peak live bytes per line byte, budget {MAX_PEAK_BYTES_PER_LINE_BYTE}"
    );
}

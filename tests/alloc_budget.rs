//! The heap census as a deterministic test: how many allocator calls a
//! derivation costs, and how many live allocations and bytes a stored
//! tuple costs once the network is quiet.
//!
//! Input: hop-count `shortest_path` with aggregate selections on the
//! seeded 52-node `TransitStubConfig::medium()` overlay, one executor
//! thread, run to quiescence — `converge_dense`'s shape at a third of its
//! size. The allocator below counts only the thread running the test and
//! only while it is marked as measuring, so the harness's own threads and
//! everything before the first mark stay out of the numbers; with one
//! executor thread the whole engine runs on that thread. Every quantity is
//! a count of calls or of requested bytes, never a time, and the input is
//! seeded, so the three ratios repeat exactly from run to run and are held
//! to budgets of measured value + 10 %. A change that makes a tuple cost
//! another allocation fails here before it shows up as `peak_rss_mb`.
//!
//! Run with `--nocapture` to see the ratios, and under them what the
//! relations' own structures hold by component — slab, primary index, each
//! secondary index, dictionary — summed over the nodes from
//! `Store::heap_bytes()` (capacities, so no sampling): the number a storage
//! change is to be read against. When the ratios were set (release build; a
//! debug build's `check_invariants` adds 5 % to the first):
//!
//! | | before lent buffers and one-allocation tuples | after | aggregate views hold outputs only | key-bound re-derivation plans | fingerprint → slot tables |
//! |---|---|---|---|---|---|
//! | allocator calls per derivation | 18.234 | 4.705 | 4.597 | 4.191 | 3.789 |
//! | live allocations per stored tuple | 10.462 | 4.524 | 4.260 | 3.936 | 2.635 |
//! | live bytes per stored tuple | 1946.1 | 1070.9 | 961.1 | 932.4 | 732.2 |
//!
//! The fourth column's live figures are the two indexes only the old
//! re-derivation probed (`path[1]`, `path_sp2_xd[1]`) leaving every node.
//! The plans that replaced them are compiled once per program and shared
//! by every node; a copy per node would be 10 865 bytes here, 56 of them
//! per stored tuple. The fifth is the index layer rebuilt around slots: a
//! one-row bucket is 16 bytes in its table and no allocation, no table
//! entry carries a 40-byte key, and the four signatures that bind a whole
//! primary key (`link[0,1]`, `link[0,1,2]`, `spCost[0,1]`, `spCost[0,1,2]`)
//! are answered by the primary index and never built.

use ndlog_core::{plan, DistributedEngine, EngineConfig};
use ndlog_lang::{programs, Value};
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig};
use ndlog_net::topology::Metric;
use ndlog_runtime::Tuple;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Allocator calls (`alloc` + `realloc`) per derivation during the run.
const MAX_ALLOCS_PER_DERIVATION: f64 = 4.17;
/// Live allocations per stored tuple at quiescence.
const MAX_LIVE_ALLOCS_PER_TUPLE: f64 = 2.90;
/// Live requested bytes per stored tuple at quiescence.
const MAX_LIVE_BYTES_PER_TUPLE: f64 = 805.0;

struct Counting;

thread_local! {
    /// Set on the measuring thread between the two marks. Const-initialized
    /// and without a destructor, so reading it inside the allocator neither
    /// allocates nor registers anything.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// `alloc` + `realloc` calls.
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Allocations made and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Requested bytes of those allocations.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn measuring() -> bool {
    MEASURING.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if measuring() {
            CALLS.fetch_add(1, Relaxed);
            LIVE.fetch_add(1, Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if measuring() {
            LIVE.fetch_sub(1, Relaxed);
            LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if measuring() {
            CALLS.fetch_add(1, Relaxed);
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        }
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
    MEASURING.with(|m| m.set(true));
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
    let calls_before = CALLS.load(Relaxed);
    let derivations_before = engine.computation_stats().derivations;
    let report = engine.run_to_quiescence().unwrap();
    let calls = CALLS.load(Relaxed) - calls_before;
    let derivations = engine.computation_stats().derivations - derivations_before;
    let (live, live_bytes) = (LIVE.load(Relaxed), LIVE_BYTES.load(Relaxed));
    // Second mark.
    MEASURING.with(|m| m.set(false));

    assert!(report.quiesced);
    let n = overlay.node_count();
    assert_eq!(engine.result_count("shortestPath"), n * (n - 1));
    let stored: usize = engine.nodes().map(|(_, n)| n.store().total_tuples()).sum();
    assert!(derivations > 0 && stored > 0);

    let per_derivation = calls as f64 / derivations as f64;
    let live_per_tuple = live as f64 / stored as f64;
    let bytes_per_tuple = live_bytes as f64 / stored as f64;
    println!("{calls} allocator calls / {derivations} derivations = {per_derivation:.3}");
    println!("{live} live allocations / {stored} stored tuples = {live_per_tuple:.3}");
    println!("{live_bytes} live bytes / {stored} stored tuples = {bytes_per_tuple:.1}");

    // What of that the relations' own structures hold, by component.
    let mut components: BTreeMap<String, usize> = BTreeMap::new();
    let mut add =
        |component: String, bytes: usize| *components.entry(component).or_default() += bytes;
    for (_, node) in engine.nodes() {
        for (relation, heap) in node.store().heap_bytes() {
            add("slab".into(), heap.slab);
            add("primary index".into(), heap.primary);
            add("dictionary".into(), heap.dictionary);
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
        live_per_tuple <= MAX_LIVE_ALLOCS_PER_TUPLE,
        "{live_per_tuple:.3} live allocations per stored tuple, budget {MAX_LIVE_ALLOCS_PER_TUPLE}"
    );
    assert!(
        bytes_per_tuple <= MAX_LIVE_BYTES_PER_TUPLE,
        "{bytes_per_tuple:.1} live bytes per stored tuple, budget {MAX_LIVE_BYTES_PER_TUPLE}"
    );
}

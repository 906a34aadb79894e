//! Magic sets, predicate reordering and result caching (Section 5.1.2 and
//! 5.2): targeted source-to-destination path discovery instead of all-pairs
//! computation.
//!
//! ```text
//! cargo run --example magic_routing
//! ```
//!
//! The example contrasts three executions on the same overlay:
//!
//! 1. the unconstrained all-pairs shortest-path query (No-MS baseline);
//! 2. the magic, top-down (source-routing) query constrained to one
//!    (source, destination) pair — dramatically cheaper;
//! 3. a query towards the same destination from a source off the first
//!    answer's path, with every node on that path holding the answer in its
//!    cache — cheaper than the same query uncached, because exploration
//!    stops at nodes that already know a path to the destination.
//!
//! The engine never caches: a node answering from its cache forwards no
//! exploration, which the example models by not loading that node's
//! outgoing links (the only rules that forward, `sd1` and `sd2`, join
//! `#link` at the forwarding node).

use ndlog_core::{plan, DistributedEngine, EngineConfig};
use ndlog_lang::{programs, Value};
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig};
use ndlog_net::topology::Metric;
use ndlog_net::NodeAddr;
use ndlog_runtime::Tuple;

/// Load every overlay link into `relation`, except those leaving a
/// `cached` node.
fn load_links(
    engine: &mut DistributedEngine,
    overlay: &Overlay,
    relation: &str,
    cached: &[NodeAddr],
) {
    for l in overlay
        .links()
        .into_iter()
        .filter(|l| !cached.contains(&l.src))
    {
        engine
            .insert_base(
                l.src,
                relation,
                Tuple::new(vec![
                    Value::Addr(l.src),
                    Value::Addr(l.dst),
                    Value::Float(l.cost(Metric::HopCount)),
                ]),
            )
            .expect("insert link");
    }
}

fn main() {
    let ts = generate(&TransitStubConfig::small());
    let overlay = Overlay::random_neighbors(&ts.topology, &OverlayConfig::default());
    let n = overlay.node_count();
    println!("overlay with {n} nodes");

    // 1. The all-pairs baseline.
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    let mut all_pairs = DistributedEngine::new(
        overlay.graph.clone(),
        &[plan(&programs::shortest_path("")).unwrap()],
        config.clone(),
    )
    .unwrap();
    load_links(&mut all_pairs, &overlay, "link", &[]);
    all_pairs.run_to_quiescence().unwrap();
    println!(
        "all-pairs (No-MS): {} results, {:.2} kB",
        all_pairs.result_count("shortestPath"),
        all_pairs.stats().total_bytes() as f64 / 1000.0
    );

    // 2. One constrained query: source 0, destination n-1.
    let dst = NodeAddr((n - 1) as u32);
    let run_constrained = |src: NodeAddr, cached: &[NodeAddr]| {
        let mut config = EngineConfig::default();
        config.node.aggregate_selections = true;
        let mut engine = DistributedEngine::new(
            overlay.graph.clone(),
            &[plan(&programs::shortest_path_source_routing("")).unwrap()],
            config,
        )
        .unwrap();
        load_links(&mut engine, &overlay, "link", cached);
        engine
            .insert_base(src, "magicSrc", Tuple::new(vec![Value::Addr(src)]))
            .unwrap();
        engine
            .insert_base(dst, "magicDst", Tuple::new(vec![Value::Addr(dst)]))
            .unwrap();
        engine.run_to_quiescence().unwrap();
        engine
    };

    let src = NodeAddr(0);
    let first = run_constrained(src, &[]);
    let result = first
        .results("shortestPath")
        .into_iter()
        .find(|(node, t)| *node == dst && t.get(1) == Some(&Value::Addr(src)));
    let path: Vec<NodeAddr> = result
        .as_ref()
        .and_then(|(_, t)| t.get(2))
        .and_then(Value::as_list)
        .map(|l| l.iter().filter_map(Value::as_addr).collect())
        .unwrap_or_default();
    println!(
        "magic query {src} -> {dst}: path {:?} ({} hops), {:.2} kB \
         ({:.1}% of the all-pairs cost)",
        path.iter().map(|a| a.0).collect::<Vec<_>>(),
        path.len().saturating_sub(1),
        first.stats().total_bytes() as f64 / 1000.0,
        first.stats().total_bytes() as f64 / all_pairs.stats().total_bytes() as f64 * 100.0
    );
    assert!(path.len() >= 2, "the magic query finds a path");

    // 3. Every node on the answer's path but the destination now caches its
    //    suffix of it. Query the same destination from the first node off
    //    that path, once without and once with those caches.
    let cached = &path[..path.len() - 1];
    let other = (0..n as u32)
        .map(NodeAddr)
        .find(|a| !path.contains(a))
        .expect("some node is off the cached path");
    println!(
        "{} node(s) cache a path to {dst}; querying from {other}",
        cached.len()
    );
    let uncached = run_constrained(other, &[]).stats().total_bytes();
    let with_cache = run_constrained(other, cached).stats().total_bytes();
    println!(
        "same-destination query with caching: {:.2} kB (vs {:.2} kB uncached)",
        with_cache as f64 / 1000.0,
        uncached as f64 / 1000.0
    );
    assert!(with_cache > 0 && with_cache < uncached);
    println!("ok: the cached query explores, and spends less than the uncached one");
}

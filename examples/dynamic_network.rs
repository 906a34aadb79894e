//! Dynamic networks: incremental maintenance under link updates and the
//! eventual-consistency guarantee (Section 4, Theorems 3 and 4).
//!
//! ```text
//! cargo run --example dynamic_network
//! ```
//!
//! We run the shortest-path query on a small overlay, then subject it to a
//! burst of link-cost updates. The engine maintains the results
//! incrementally (deletion + insertion per update, count algorithm for
//! derived tuples) and we verify that the quiesced distributed state equals
//! what a from-scratch centralized evaluation over the final link costs
//! would produce — the paper's notion of eventual consistency.

use ndlog_core::consistency::check_against_centralized;
use ndlog_core::{plan, DistributedEngine, EngineConfig, UpdateWorkload};
use ndlog_lang::{programs, Value};
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig};
use ndlog_net::topology::Metric;
use ndlog_runtime::Tuple;

fn main() {
    // A 14-node transit-stub underlay with a sparse (2-neighbor) overlay on
    // top: the final consistency check runs a centralized evaluation without
    // aggregate selections, which materializes every cycle-free path and is
    // only tractable on a sparse graph.
    let ts = generate(&TransitStubConfig::small());
    let overlay_config = OverlayConfig {
        neighbors_per_node: 2,
        seed: 0xc0ffee,
    };
    let overlay = Overlay::random_neighbors(&ts.topology, &overlay_config);
    let links = overlay.links();
    println!(
        "overlay: {} nodes, {} directed links",
        overlay.node_count(),
        links.len()
    );

    let program = programs::shortest_path("");
    let query_plan = plan(&program).expect("plan");
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    let mut engine =
        DistributedEngine::new(overlay.graph.clone(), &[query_plan], config).expect("engine");

    // Load the latency metric as the link cost.
    let metric = Metric::Latency;
    for l in &links {
        engine
            .insert_base(
                l.src,
                "link",
                Tuple::new(vec![
                    Value::Addr(l.src),
                    Value::Addr(l.dst),
                    Value::Float(l.cost(metric)),
                ]),
            )
            .expect("insert link");
    }
    engine.run_to_quiescence().expect("initial run");
    println!(
        "initial convergence: {:.2} s simulated, {} messages, {:.2} kB",
        engine.now_seconds(),
        engine.stats().message_count(),
        engine.stats().total_bytes() as f64 / 1000.0
    );
    println!(
        "shortest paths computed: {}",
        engine.result_count("shortestPath")
    );

    // Apply three bursts of updates (10% of links, up to 10% cost change).
    let mut workload = UpdateWorkload::paper(&links, metric, 42);
    let mut final_costs = std::collections::BTreeMap::new();
    for l in &links {
        final_costs.insert((l.src, l.dst), l.cost(metric));
    }
    let bytes_before_updates = engine.stats().total_bytes();
    for burst in 0..3 {
        let updates = workload.burst();
        println!("burst {}: updating {} links", burst + 1, updates.len());
        for u in &updates {
            engine.apply_link_update("link", u).expect("apply update");
            final_costs.insert((u.a, u.b), u.new_cost);
            final_costs.insert((u.b, u.a), u.new_cost);
        }
        engine.run_to_quiescence().expect("re-converge");
    }
    let update_bytes = engine.stats().total_bytes() - bytes_before_updates;
    println!(
        "incremental maintenance for 3 bursts: {:.2} kB ({:.0}% of the initial computation)",
        update_bytes as f64 / 1000.0,
        update_bytes as f64 / bytes_before_updates as f64 * 100.0
    );

    // Eventual consistency: compare against a from-scratch centralized run
    // over the *final* link costs.
    let base: Vec<(String, Tuple)> = final_costs
        .iter()
        .map(|((s, d), c)| {
            (
                "link".to_string(),
                Tuple::new(vec![Value::Addr(*s), Value::Addr(*d), Value::Float(*c)]),
            )
        })
        .collect();
    match check_against_centralized(&engine, &program, &base, "shortestPath") {
        Ok(count) => println!(
            "ok: quiesced distributed state matches the from-scratch fixpoint ({count} shortest paths)"
        ),
        Err(diff) => println!("note: states differ (aggregate selections can retain a \
                               suboptimal-but-stable result after deletions): {diff}"),
    }
}

//! Distance-vector routing with split horizon, stressed by deterministic
//! fault injection (Section 4.2: soft state + refresh makes the protocol
//! self-healing).
//!
//! ```text
//! cargo run --example resilient_routing
//! ```
//!
//! The protocol is the classic distance-vector computation written as four
//! NDlog rules, with *split horizon*: a node never accepts a route back
//! from the neighbor that is that route's next hop (`N != S` in rule dh2),
//! the damping that removes two-node count-to-infinity loops. Every
//! relation is declared soft state with a TTL, so the protocol survives an
//! adversarial network: we run it under a seeded fault plan injecting 20%
//! message loss, duplication and delivery jitter plus a node crash/rejoin,
//! while periodic refresh re-announces the link facts. Lost advertisements
//! are repaired by the next refresh cycle; the crashed node rejoins empty
//! and repopulates. After the schedule quiesces, the best-route costs must
//! equal the Dijkstra oracle on the healed topology — which we check.

use ndlog_core::{plan, DistributedEngine, EngineConfig, RefreshConfig};
use ndlog_lang::{programs, Value};
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig};
use ndlog_net::sim::ms;
use ndlog_net::topology::Metric;
use ndlog_net::{FaultPlan, LinkFaults, NodeAddr};
use ndlog_runtime::Tuple;

/// Soft-state TTL for every relation of the protocol (seconds).
const TTL_S: f64 = 5.0;
/// Refresh re-announcement interval (seconds).
const REFRESH_S: f64 = 2.0;
/// Random faults (loss/duplication/jitter) stop at this time (seconds).
const FAULTS_END_S: f64 = 4.0;

fn main() {
    let ts = generate(&TransitStubConfig::small());
    let overlay_config = OverlayConfig {
        neighbors_per_node: 3,
        seed: 0xd17e,
    };
    let overlay = Overlay::random_neighbors(&ts.topology, &overlay_config);
    let addrs: Vec<NodeAddr> = overlay.graph.nodes().collect();
    println!(
        "overlay: {} nodes, {} directed links",
        overlay.node_count(),
        overlay.links().len()
    );

    // 20% loss, 5% duplication and up to 2 ms jitter on every link until
    // t=4s, plus one node crashing at 2s and rejoining at 3.5s. The same
    // seed always replays the same faults.
    let crashed = addrs[3];
    let fault = FaultPlan::new(0x5eed)
        .with_default_faults(LinkFaults {
            loss: 0.20,
            duplicate: 0.05,
            jitter_ms: 2.0,
        })
        .with_active_until(ms(FAULTS_END_S * 1000.0))
        .with_crash(crashed, ms(2_000.0), ms(3_500.0));
    println!(
        "fault plan: 20% loss / 5% duplication / 2 ms jitter until {FAULTS_END_S} s, \
         node {crashed} down 2.0 s - 3.5 s"
    );

    // Refresh outlives the faults by TTL (stale state expires) plus a few
    // cycles (live state keeps being re-announced afterwards).
    let horizon_s = FAULTS_END_S + TTL_S + 4.0 * REFRESH_S;
    let program = programs::distance_vector_split_horizon("", 8, Some(TTL_S));
    let query_plan = plan(&program).expect("plan");
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.max_seconds = horizon_s + 30.0;
    config.fault = Some(fault);
    config.refresh = Some(RefreshConfig {
        interval_seconds: REFRESH_S,
        horizon_seconds: horizon_s,
    });
    let mut engine =
        DistributedEngine::new(overlay.graph.clone(), &[query_plan], config).expect("engine");

    let metric = Metric::Reliability;
    for l in overlay.links() {
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

    let report = engine.run_to_quiescence().expect("run");
    assert!(report.quiesced, "hit the time cap before quiescing");
    println!(
        "quiesced after {:.2} s simulated, {} messages, {:.2} MB",
        engine.now_seconds(),
        engine.stats().message_count(),
        engine.stats().total_mb()
    );

    let stats = engine.fault_stats();
    println!(
        "faults: {} dropped ({} loss, {} crash window), {} duplicated, {} jittered",
        stats.dropped, stats.loss_drops, stats.crash_drops, stats.duplicated, stats.delayed
    );
    let repair = engine.fault_repair_report();
    println!(
        "healing: {} distinct insertions lost in flight, {} present again at their \
         destination; {} refresh tasks re-announced {} facts",
        repair.dropped_inserts, repair.repaired, repair.refresh_ticks, repair.refresh_reannounced
    );

    // The converged best-route costs must equal the Dijkstra oracle on the
    // healed topology at every node — loss, churn and the crash left no
    // scars. (`bestCost(@S, D, C)`: cost of S's best route to D.)
    let mut checked = 0usize;
    for src in overlay.graph.nodes() {
        let oracle = overlay.graph.shortest_distances(src, metric);
        for (node, tuple) in engine.results("bestCost") {
            if node != src {
                continue;
            }
            let dst = tuple.get(1).unwrap().as_addr().unwrap();
            // The hop-bounded formulation also derives cyclic self-routes
            // (S -> ... -> S); the oracle has nothing to say about those.
            if dst == src {
                continue;
            }
            let cost = tuple.get(2).unwrap().as_f64().unwrap();
            assert!(
                (cost - oracle[dst.index()]).abs() < 1e-6,
                "cost mismatch {src}->{dst}: {cost} vs oracle {}",
                oracle[dst.index()]
            );
            checked += 1;
        }
    }
    println!("verified {checked} best-route costs against the Dijkstra oracle");

    // Split horizon is not just loop damping — it also suppresses the
    // useless reverse advertisements. Measure that head-to-head on the
    // full (unpruned) route tables: both protocols fault-free with
    // aggregate selections off, where the `N != S` filter makes the
    // split-horizon route set a strict subset of the plain one. (The hop
    // bound is lowered to keep the unpruned tables small.)
    let full_routes = |program: &ndlog_lang::Program| -> usize {
        let config = EngineConfig {
            max_seconds: 120.0,
            ..Default::default()
        };
        let mut engine = DistributedEngine::new(
            overlay.graph.clone(),
            &[plan(program).expect("plan")],
            config,
        )
        .expect("engine");
        for l in overlay.links() {
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
        assert!(engine.run_to_quiescence().expect("run").quiesced);
        engine.result_count("route")
    };
    let with_sh = full_routes(&programs::distance_vector_split_horizon("", 4, None));
    let plain = full_routes(&programs::distance_vector("", 4));
    assert!(with_sh < plain, "split horizon suppressed nothing");
    println!(
        "route advertisements within 4 hops: {} with split horizon vs {} without \
         ({:.0}% fewer)",
        with_sh,
        plain,
        100.0 * (1.0 - with_sh as f64 / plain as f64)
    );
}

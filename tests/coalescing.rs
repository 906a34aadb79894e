//! Delivery-coalescing correctness properties.
//!
//! The epoch executor merges consecutive same-node deliveries into one
//! receive batch (one `process` call over every payload of the run)
//! instead of one `process` per message. That is the engine's only
//! delivery schedule; it changes message traces and probe counts relative
//! to one `process` per message, but it must not change *results*. This
//! test pins that contract on seeded random topologies against two
//! independent references:
//!
//! * runs at 1, 2 and 4 executor threads are bit-for-bit identical
//!   (stores, statistics, message trace);
//! * the `shortestPath` fixpoint matches the underlay's Dijkstra distances
//!   everywhere and — on the sparse topology, where selection-free
//!   evaluation is tractable — a centralized evaluation over the same base
//!   facts under every strategy of Section 3: SN, BSN and PSN.

use ndlog_core::consistency::{check_against_centralized, check_bitwise_identical};
use ndlog_core::{plan, DistributedEngine, EngineConfig};
use ndlog_lang::{programs, Value};
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig};
use ndlog_net::topology::Metric;
use ndlog_runtime::{Evaluator, Strategy, Tuple};
use std::collections::{BTreeMap, BTreeSet};

fn link(a: ndlog_net::NodeAddr, b: ndlog_net::NodeAddr, c: f64) -> Tuple {
    Tuple::new(vec![Value::Addr(a), Value::Addr(b), Value::Float(c)])
}

/// All stored `shortestPath` tuples, node-independent. The Reliability
/// metric carries per-link random noise, so costs are tie-free and the
/// full-tuple set (path vectors included) is deterministic across
/// schedules.
fn result_set(engine: &DistributedEngine) -> BTreeSet<Tuple> {
    engine
        .results("shortestPath")
        .into_iter()
        .map(|(_, t)| t)
        .collect()
}

#[test]
fn coalesced_delivery_matches_dijkstra_and_the_centralized_fixpoints() {
    // (name, transit-stub shape, overlay neighbors, centralized
    // comparison feasible), regenerated per seed. The centralized
    // evaluator runs without aggregate selections and therefore
    // materializes every cycle-free path — tractable only on the sparse
    // overlay; the denser one is checked against Dijkstra distances
    // instead.
    let topologies: [(&str, TransitStubConfig, usize, bool); 2] = [
        ("small", TransitStubConfig::small(), 4, false),
        (
            "sparse",
            TransitStubConfig {
                transit_nodes: 2,
                stubs_per_transit: 1,
                nodes_per_stub: 3,
                ..TransitStubConfig::paper()
            },
            2,
            true,
        ),
    ];
    for (name, ts_config, neighbors, centralized_ok) in topologies {
        for seed in [7_u64, 0xbeef] {
            let ts = generate(&ts_config);
            let overlay_config = OverlayConfig {
                neighbors_per_node: neighbors,
                seed,
            };
            let overlay = Overlay::random_neighbors(&ts.topology, &overlay_config);

            let mut base = Vec::new();
            for l in overlay.links() {
                base.push((
                    "link".to_string(),
                    link(l.src, l.dst, l.cost(Metric::Reliability)),
                ));
            }

            let run = |threads: usize| -> DistributedEngine {
                let program = programs::shortest_path("");
                let query_plan = plan(&program).unwrap();
                let mut config = EngineConfig::default();
                config.node.aggregate_selections = true;
                config.parallelism = threads;
                let mut engine =
                    DistributedEngine::new(overlay.graph.clone(), &[query_plan], config).unwrap();
                for l in overlay.links() {
                    engine
                        .insert_base(
                            l.src,
                            "link",
                            link(l.src, l.dst, l.cost(Metric::Reliability)),
                        )
                        .unwrap();
                }
                let report = engine.run_to_quiescence().unwrap();
                assert!(report.quiesced, "{name}/seed {seed}/threads {threads}");
                engine
            };

            let baseline = run(1);
            let delivery = baseline.delivery_stats();
            assert!(delivery.deliveries > 0, "{name}/seed {seed}: no messages");
            assert!(delivery.mean_batch_width() >= 1.0);

            // Thread count must not change anything.
            for threads in [2, 4] {
                let parallel = run(threads);
                check_bitwise_identical(&baseline, &parallel).unwrap_or_else(|e| {
                    panic!("topology {name}, seed {seed:#x}, {threads} threads: {e}")
                });
            }

            // The fixpoint holds exactly one route per ordered pair the
            // underlay's Dijkstra reaches, at its cost, and no other…
            let mut costs: BTreeMap<_, Vec<f64>> = BTreeMap::new();
            for (node, tuple) in baseline.results("shortestPath") {
                let dst = tuple.get(1).unwrap().as_addr().unwrap();
                let cost = tuple.get(3).unwrap().as_f64().unwrap();
                costs.entry((node, dst)).or_default().push(cost);
            }
            for src in overlay.graph.nodes() {
                let oracle = overlay.graph.shortest_distances(src, Metric::Reliability);
                for dst in overlay.graph.nodes().filter(|&dst| dst != src) {
                    let found = costs.remove(&(src, dst)).unwrap_or_default();
                    let expected = oracle[dst.index()];
                    let matches = match found[..] {
                        [] => expected.is_infinite(),
                        [cost] => (cost - expected).abs() < 1e-6,
                        _ => false,
                    };
                    assert!(
                        matches,
                        "topology {name}, seed {seed:#x}: {src}->{dst} holds {found:?}, \
                         Dijkstra {expected}"
                    );
                }
            }
            assert!(
                costs.is_empty(),
                "topology {name}, seed {seed:#x}: {costs:?}"
            );

            // …and, where tractable, the centralized fixpoint, which is
            // itself strategy-independent: SN, BSN and PSN all agree with
            // what the distributed engine converged to (tie-free costs make
            // the comparison exact).
            if !centralized_ok {
                continue;
            }
            let program = programs::shortest_path("");
            check_against_centralized(&baseline, &program, &base, "shortestPath")
                .unwrap_or_else(|e| panic!("topology {name}, seed {seed:#x}: {e}"));
            let distributed = result_set(&baseline);
            for strategy in [
                Strategy::SemiNaive,
                Strategy::Buffered { batch: 16 },
                Strategy::Pipelined,
            ] {
                let mut evaluator = Evaluator::new(&program).unwrap();
                for (rel, tuple) in &base {
                    evaluator.insert_fact(rel, tuple.clone());
                }
                evaluator.run(strategy).unwrap();
                let central: BTreeSet<Tuple> =
                    evaluator.results("shortestPath").into_iter().collect();
                assert_eq!(
                    central, distributed,
                    "topology {name}, seed {seed:#x}: {strategy:?} centralized fixpoint \
                     differs from the distributed one"
                );
            }
        }
    }
}

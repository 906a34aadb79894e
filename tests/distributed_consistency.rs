//! Distributed eventual-consistency tests (Theorem 4 and Section 4.2),
//! plus the determinism property of the parallel epoch executor.
//!
//! The distributed engine, running over FIFO links, must reach the same
//! fixpoint a centralized evaluation over the (final) base data reaches —
//! both for a static network and across bursts of link-cost updates. And a
//! run sharded over N executor threads must be *bit-for-bit identical* to
//! the sequential run: same stores (tuples, derivation counts,
//! timestamps), same network statistics (the full message trace), same
//! per-node evaluation statistics, same result log.

use ndlog_core::consistency::{
    check_against_centralized, check_bitwise_identical, check_location_placement,
};
use ndlog_core::{plan, DistributedEngine, EngineConfig, UpdateWorkload};
use ndlog_lang::{programs, Value};
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig};
use ndlog_net::topology::Metric;
use ndlog_runtime::Tuple;
use std::collections::BTreeMap;

fn small_overlay() -> Overlay {
    let ts = generate(&TransitStubConfig::small());
    Overlay::random_neighbors(&ts.topology, &OverlayConfig::default())
}

/// A sparser overlay (2 neighbors per node) used by the tests that run
/// *without* aggregate selections: those materialize every cycle-free path,
/// which is only tractable on a sparse graph.
fn sparse_overlay() -> Overlay {
    // A 6-node underlay (2 transit nodes, one 2-node stub each) keeps the
    // number of cycle-free paths small enough for an exhaustive,
    // selection-free comparison even in debug builds.
    let ts = generate(&TransitStubConfig {
        transit_nodes: 2,
        stubs_per_transit: 1,
        nodes_per_stub: 2,
        ..TransitStubConfig::paper()
    });
    let config = OverlayConfig {
        neighbors_per_node: 2,
        seed: 0xc0ffee,
    };
    Overlay::random_neighbors(&ts.topology, &config)
}

fn link(a: ndlog_net::NodeAddr, b: ndlog_net::NodeAddr, c: f64) -> Tuple {
    Tuple::new(vec![Value::Addr(a), Value::Addr(b), Value::Float(c)])
}

#[test]
fn theorem4_static_network_reaches_the_centralized_fixpoint() {
    let overlay = sparse_overlay();
    let program = programs::shortest_path("");
    let query_plan = plan(&program).unwrap();
    // Aggregate selections off so that every derivable tuple is materialized
    // and the comparison is exact.
    let mut engine = DistributedEngine::new(
        overlay.graph.clone(),
        &[query_plan],
        EngineConfig::default(),
    )
    .unwrap();
    let mut base = Vec::new();
    // Reliability costs carry per-link random noise, so path costs are
    // distinct and the tie-free comparison below is exact.
    for l in overlay.links() {
        let t = link(l.src, l.dst, l.cost(Metric::Reliability));
        engine.insert_base(l.src, "link", t.clone()).unwrap();
        base.push(("link".to_string(), t));
    }
    let report = engine.run_to_quiescence().unwrap();
    assert!(report.quiesced);
    let count = check_against_centralized(&engine, &program, &base, "shortestPath")
        .expect("distributed == centralized");
    let n = overlay.node_count();
    assert_eq!(count, n * (n - 1));
    check_location_placement(&engine, "shortestPath").expect("placement invariant");
    check_location_placement(&engine, "path").expect("placement invariant");
}

#[test]
fn theorem4_with_aggregate_selections_costs_match() {
    // With pruning on, the engine stores fewer path tuples, but every
    // ordered pair of the connected overlay still ends with exactly one
    // shortest path, at the centralized fixpoint's cost, whatever the
    // executor's thread count.
    let overlay = small_overlay();
    let nodes: Vec<_> = overlay.graph.nodes().collect();
    let program = programs::shortest_path("");
    for threads in [1, 2, 4] {
        let mut config = EngineConfig::default();
        config.node.aggregate_selections = true;
        config.parallelism = threads;
        let query_plan = plan(&program).unwrap();
        let mut engine =
            DistributedEngine::new(overlay.graph.clone(), &[query_plan], config).unwrap();
        for l in overlay.links() {
            engine
                .insert_base(l.src, "link", link(l.src, l.dst, l.cost(Metric::Latency)))
                .unwrap();
        }
        engine.run_to_quiescence().unwrap();

        let mut costs: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        for (node, tuple) in engine.results("shortestPath") {
            let dst = tuple.get(1).unwrap().as_addr().unwrap();
            let cost = tuple.get(3).unwrap().as_f64().unwrap();
            costs.entry((node, dst)).or_default().push(cost);
        }
        for &src in &nodes {
            let oracle = overlay.graph.shortest_distances(src, Metric::Latency);
            for &dst in nodes.iter().filter(|&&dst| dst != src) {
                assert!(oracle[dst.index()].is_finite(), "{src} cannot reach {dst}");
                let found = costs.remove(&(src, dst)).unwrap_or_default();
                assert_eq!(
                    found.len(),
                    1,
                    "{threads} threads: {src} -> {dst}: {found:?}"
                );
                let off = (found[0] - oracle[dst.index()]).abs();
                assert!(off < 1e-6, "{threads} threads: {src} -> {dst} off by {off}");
            }
        }
        assert!(
            costs.is_empty(),
            "{threads} threads: stray results {costs:?}"
        );
    }
}

#[test]
fn bursty_updates_converge_to_the_final_state() {
    // The bursty update model of Section 4: bursts of cost changes followed
    // by quiescence. After the final burst the distributed state must match
    // a from-scratch evaluation over the final link costs (run without
    // aggregate selections so every alternative path is retained and the
    // comparison is exact — hence the sparse overlay).
    let overlay = sparse_overlay();
    let program = programs::shortest_path("");
    let query_plan = plan(&program).unwrap();
    let mut engine = DistributedEngine::new(
        overlay.graph.clone(),
        &[query_plan],
        EngineConfig::default(),
    )
    .unwrap();
    let links = overlay.links();
    let metric = Metric::Reliability;
    let mut current: BTreeMap<(ndlog_net::NodeAddr, ndlog_net::NodeAddr), f64> = BTreeMap::new();
    for l in &links {
        engine
            .insert_base(l.src, "link", link(l.src, l.dst, l.cost(metric)))
            .unwrap();
        current.insert((l.src, l.dst), l.cost(metric));
    }
    engine.run_to_quiescence().unwrap();

    let mut workload = UpdateWorkload::paper(&links, metric, 99);
    for _ in 0..3 {
        for update in workload.burst() {
            engine.apply_link_update("link", &update).unwrap();
            current.insert((update.a, update.b), update.new_cost);
            current.insert((update.b, update.a), update.new_cost);
        }
        // Quiescence between bursts (the bursty model's assumption).
        let report = engine.run_to_quiescence().unwrap();
        assert!(report.quiesced);
    }

    // A pure deletion burst: another 10% of links disappear outright (no
    // re-insertion), exercising the DRed over-delete/re-derive pass across
    // node boundaries.
    for update in workload.burst() {
        let cost = update.old_cost;
        engine
            .delete_base(update.a, "link", link(update.a, update.b, cost))
            .unwrap();
        engine
            .delete_base(update.b, "link", link(update.b, update.a, cost))
            .unwrap();
        current.remove(&(update.a, update.b));
        current.remove(&(update.b, update.a));
    }
    let report = engine.run_to_quiescence().unwrap();
    assert!(report.quiesced);

    let base: Vec<(String, Tuple)> = current
        .iter()
        .map(|((s, d), c)| ("link".to_string(), link(*s, *d, *c)))
        .collect();
    check_against_centralized(&engine, &program, &base, "shortestPath")
        .expect("eventual consistency after bursts");
}

/// Determinism property of the parallel epoch executor: across seeds ×
/// topologies, evaluating with 1, 2 and 4 executor threads produces final
/// stores, network statistics (`NetStats`, i.e. the full message trace)
/// and per-node evaluation statistics (`EvalStats`) that are bit-for-bit
/// identical to the sequential engine's — including through an update
/// burst, which exercises deletions and rederivation.
#[test]
fn parallel_execution_is_deterministic_across_seeds_and_topologies() {
    // (name, transit-stub shape, overlay neighbors, seeds) — a denser and
    // a sparser topology, regenerated per seed, and a 52-node one spanning
    // several transit domains, held to one seed to keep debug runs short.
    const SEEDS: [u64; 3] = [0xc0ffee, 1, 42];
    let topologies: [(&str, TransitStubConfig, usize, &[u64]); 3] = [
        ("small", TransitStubConfig::small(), 4, &SEEDS),
        ("medium", TransitStubConfig::medium(), 4, &SEEDS[..1]),
        (
            "sparse",
            TransitStubConfig {
                transit_nodes: 2,
                stubs_per_transit: 1,
                nodes_per_stub: 3,
                ..TransitStubConfig::paper()
            },
            2,
            &SEEDS,
        ),
    ];
    for (name, ts_config, neighbors, seeds) in topologies {
        for &seed in seeds {
            let ts = generate(&ts_config);
            let overlay_config = OverlayConfig {
                neighbors_per_node: neighbors,
                seed,
            };
            let overlay = Overlay::random_neighbors(&ts.topology, &overlay_config);

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
                        .insert_base(l.src, "link", link(l.src, l.dst, l.cost(Metric::Latency)))
                        .unwrap();
                }
                engine.run_to_quiescence().unwrap();
                // One update burst: deletions + reinsertions stress the
                // DRed re-derivation and FIFO-replay paths.
                let mut workload = UpdateWorkload::paper(&overlay.links(), Metric::Latency, seed);
                for update in workload.burst() {
                    engine.apply_link_update("link", &update).unwrap();
                }
                let report = engine.run_to_quiescence().unwrap();
                assert!(report.quiesced, "{name}/seed {seed}/threads {threads}");
                // Then a pure deletion burst — links vanish for good, so
                // the over-delete closures (and the remote retractions
                // they ship) must themselves be bit-for-bit deterministic
                // across executor thread counts.
                for update in workload.burst() {
                    let cost = update.old_cost;
                    engine
                        .delete_base(update.a, "link", link(update.a, update.b, cost))
                        .unwrap();
                    engine
                        .delete_base(update.b, "link", link(update.b, update.a, cost))
                        .unwrap();
                }
                let report = engine.run_to_quiescence().unwrap();
                assert!(report.quiesced, "{name}/seed {seed}/threads {threads}");
                engine
            };

            let sequential = run(1);
            // Every overlay here has cycles, so some tuple is derived along
            // two routes: nodes must count those duplicate insertions (the
            // count is part of the `EvalStats` compared below).
            assert!(
                sequential.computation_stats().redundant_derivations > 0,
                "topology {name}, seed {seed:#x}: no duplicate insertion counted"
            );
            for threads in [2, 4] {
                let parallel = run(threads);
                check_bitwise_identical(&sequential, &parallel).unwrap_or_else(|e| {
                    panic!("topology {name}, seed {seed:#x}, {threads} threads: {e}")
                });
            }
        }
    }
}

#[test]
fn concurrent_queries_do_not_interfere() {
    // Three metric queries run concurrently in one engine; each must
    // produce exactly the same results as running it alone.
    let overlay = small_overlay();
    let metrics = [Metric::Latency, Metric::Reliability, Metric::Random];
    let suffix = |m: Metric| match m {
        Metric::Latency => "latency",
        Metric::Reliability => "reliability",
        Metric::Random => "random",
        Metric::HopCount => "hops",
    };
    let plans: Vec<_> = metrics
        .iter()
        .map(|&m| plan(&programs::shortest_path(suffix(m))).unwrap())
        .collect();
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    let mut combined =
        DistributedEngine::new(overlay.graph.clone(), &plans, config.clone()).unwrap();
    for &m in &metrics {
        for l in overlay.links() {
            combined
                .insert_base(
                    l.src,
                    &format!("link_{}", suffix(m)),
                    link(l.src, l.dst, l.cost(m)),
                )
                .unwrap();
        }
    }
    combined.run_to_quiescence().unwrap();

    for &m in &metrics {
        let single_plan = plan(&programs::shortest_path(suffix(m))).unwrap();
        let mut single =
            DistributedEngine::new(overlay.graph.clone(), &[single_plan], config.clone()).unwrap();
        for l in overlay.links() {
            single
                .insert_base(
                    l.src,
                    &format!("link_{}", suffix(m)),
                    link(l.src, l.dst, l.cost(m)),
                )
                .unwrap();
        }
        single.run_to_quiescence().unwrap();
        let rel = format!("shortestPath_{}", suffix(m));
        // Compare (source, destination, cost): equal-cost ties may be won by
        // different path vectors depending on event interleaving.
        let project = |engine: &DistributedEngine| {
            let mut v: Vec<_> = engine
                .results(&rel)
                .into_iter()
                .map(|(_, t)| {
                    (
                        t.get(0).unwrap().clone(),
                        t.get(1).unwrap().clone(),
                        t.get(3).unwrap().clone(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(
            project(&combined),
            project(&single),
            "metric {m} differs between combined and single runs"
        );
    }
}

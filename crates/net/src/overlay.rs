//! Overlay network construction.
//!
//! In the paper's experiments an overlay network is constructed on top of the
//! GT-ITM base topology: every overlay node picks four randomly selected
//! neighbors, and each overlay link carries metrics (latency, reliability,
//! random) derived from the underlying topology. The NDlog `link` relation
//! of the shortest-path queries is populated from this overlay.

use crate::address::NodeAddr;
use crate::topology::{LinkMetrics, Metric, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Configuration for overlay construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverlayConfig {
    /// Number of random neighbors each node picks (the paper uses 4).
    pub neighbors_per_node: usize,
    /// Seed for neighbor selection and random metrics.
    pub seed: u64,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            neighbors_per_node: 4,
            seed: 0xda7a,
        }
    }
}

/// A directed view of an overlay link together with its metrics.
///
/// Overlay links are bidirectional; `links()` reports each link once per
/// direction so that callers can directly populate a `link(@src, @dst, ...)`
/// relation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlayLink {
    /// Source overlay node.
    pub src: NodeAddr,
    /// Destination overlay node.
    pub dst: NodeAddr,
    /// Metrics of the overlay link (latency is the underlay shortest-path
    /// latency between the endpoints).
    pub metrics: LinkMetrics,
}

impl OverlayLink {
    /// Cost of this link under a given metric.
    pub fn cost(&self, metric: Metric) -> f64 {
        self.metrics.get(metric)
    }
}

/// An overlay graph over an underlying topology.
#[derive(Debug, Clone)]
pub struct Overlay {
    /// The overlay graph itself (nodes are the same addresses as the
    /// underlay's).
    pub graph: Topology,
}

impl Overlay {
    /// Build an overlay where every node picks `neighbors_per_node` distinct
    /// random neighbors (union of both directions, so degrees may exceed the
    /// configured value). Overlay link latency is the underlay shortest-path
    /// latency between the two endpoints; reliability is correlated with the
    /// latency; the random metric is uniform in `[1, 100)`.
    ///
    /// The construction retries neighbor selection until the overlay is
    /// connected (bounded number of attempts), matching the implicit
    /// assumption in the paper that all-pairs paths exist.
    pub fn random_neighbors(underlay: &Topology, config: &OverlayConfig) -> Overlay {
        let n = underlay.node_count();
        assert!(n >= 2, "overlay requires at least two nodes");
        let k = config.neighbors_per_node.min(n - 1);
        // Underlay latency distances, computed lazily per source over one
        // adjacency list.
        let latencies = underlay.weights(Metric::Latency);
        let mut latency_cache: Vec<Option<Vec<f64>>> = vec![None; n];

        for attempt in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(attempt));
            let mut graph = Topology::with_nodes(n);
            let mut chosen: BTreeSet<(NodeAddr, NodeAddr)> = BTreeSet::new();
            let all: Vec<NodeAddr> = underlay.nodes().collect();
            for &node in &all {
                let mut candidates: Vec<NodeAddr> =
                    all.iter().copied().filter(|&x| x != node).collect();
                candidates.shuffle(&mut rng);
                for &nb in candidates.iter().take(k) {
                    let key = if node <= nb { (node, nb) } else { (nb, node) };
                    chosen.insert(key);
                }
            }
            for (a, b) in chosen {
                let from_a =
                    latency_cache[a.index()].get_or_insert_with(|| latencies.shortest_distances(a));
                let lat = from_a[b.index()];
                let lat = if lat.is_finite() { lat } else { 1000.0 };
                let metrics = LinkMetrics {
                    latency_ms: lat,
                    reliability: lat * (1.0 + rng.random_range(0.0..0.2)),
                    random: rng.random_range(1.0..100.0),
                    bandwidth_bps: 10_000_000.0,
                };
                graph
                    .add_link(a, b, metrics)
                    .expect("chosen set has no duplicates or self-loops");
            }
            if graph.is_connected() {
                return Overlay { graph };
            }
        }
        panic!("failed to build a connected overlay after 32 attempts");
    }

    /// All directed overlay links (each undirected link reported twice).
    pub fn links(&self) -> Vec<OverlayLink> {
        let mut out = Vec::with_capacity(self.graph.link_count() * 2);
        for (a, b, m) in self.graph.links() {
            out.push(OverlayLink {
                src: a,
                dst: b,
                metrics: *m,
            });
            out.push(OverlayLink {
                src: b,
                dst: a,
                metrics: *m,
            });
        }
        out
    }

    /// Number of overlay nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtitm::{generate, TransitStubConfig};

    #[test]
    fn overlay_is_connected_and_sized() {
        let ts = generate(&TransitStubConfig::small());
        let overlay = Overlay::random_neighbors(&ts.topology, &OverlayConfig::default());
        assert_eq!(overlay.node_count(), ts.topology.node_count());
        assert!(overlay.graph.is_connected());
        // Every node has at least the configured number of neighbors.
        for node in overlay.graph.nodes() {
            assert!(overlay.graph.degree(node) >= 4);
        }
    }

    #[test]
    fn links_reported_in_both_directions() {
        let ts = generate(&TransitStubConfig::small());
        let overlay = Overlay::random_neighbors(&ts.topology, &OverlayConfig::default());
        let links = overlay.links();
        assert_eq!(links.len(), overlay.graph.link_count() * 2);
        for l in &links {
            assert!(links
                .iter()
                .any(|r| r.src == l.dst && r.dst == l.src && r.metrics == l.metrics));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ts = generate(&TransitStubConfig::small());
        let a = Overlay::random_neighbors(&ts.topology, &OverlayConfig::default());
        let b = Overlay::random_neighbors(&ts.topology, &OverlayConfig::default());
        let la = a.links();
        let lb = b.links();
        assert_eq!(la.len(), lb.len());
        for (x, y) in la.iter().zip(lb.iter()) {
            assert_eq!(x.src, y.src);
            assert_eq!(x.dst, y.dst);
            assert_eq!(x.metrics.random, y.metrics.random);
        }
    }

    #[test]
    fn overlay_latency_reflects_underlay() {
        let ts = generate(&TransitStubConfig::small());
        let overlay = Overlay::random_neighbors(&ts.topology, &OverlayConfig::default());
        for l in overlay.links() {
            let d = ts.topology.shortest_distances(l.src, Metric::Latency);
            assert!((l.metrics.latency_ms - d[l.dst.index()]).abs() < 1e-9);
        }
    }

    #[test]
    fn overlay_latencies_are_the_underlay_shortest_distances() {
        for config in [TransitStubConfig::paper(), TransitStubConfig::medium()] {
            let underlay = generate(&config).topology;
            let overlay = Overlay::random_neighbors(&underlay, &OverlayConfig::default());
            let mut compared = 0;
            for source in underlay.nodes() {
                let reference = underlay.shortest_distances(source, Metric::Latency);
                for (a, b, metrics) in overlay.graph.links().filter(|l| l.0 == source) {
                    let expected = reference[b.index()];
                    assert!(expected.is_finite(), "{a} cannot reach {b}");
                    assert_eq!(metrics.latency_ms.to_bits(), expected.to_bits(), "{a}-{b}");
                    compared += 1;
                }
            }
            assert_eq!(compared, overlay.graph.link_count());
        }
    }

    #[test]
    fn paper_scale_overlay() {
        let ts = generate(&TransitStubConfig::paper());
        let overlay = Overlay::random_neighbors(&ts.topology, &OverlayConfig::default());
        assert_eq!(overlay.node_count(), 100);
        assert!(overlay.graph.is_connected());
    }

    #[test]
    fn cost_selector_matches_metrics() {
        let l = OverlayLink {
            src: NodeAddr(0),
            dst: NodeAddr(1),
            metrics: LinkMetrics {
                latency_ms: 7.0,
                reliability: 8.0,
                random: 9.0,
                bandwidth_bps: 1e7,
            },
        };
        assert_eq!(l.cost(Metric::HopCount), 1.0);
        assert_eq!(l.cost(Metric::Latency), 7.0);
        assert_eq!(l.cost(Metric::Reliability), 8.0);
        assert_eq!(l.cost(Metric::Random), 9.0);
    }
}

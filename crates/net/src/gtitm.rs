//! GT-ITM style transit-stub topology generation.
//!
//! The paper's Emulab experiments use transit-stub topologies generated by
//! GT-ITM with: four transit nodes, three stubs per transit node and eight
//! nodes per stub (4 + 4*3*8 = 100 nodes), 50 ms latency between transit
//! nodes, 10 ms between a transit node and its stub nodes, 2 ms within a
//! stub, and 10 Mbps links. This module reproduces that topology family.

use crate::address::NodeAddr;
use crate::topology::{LinkMetrics, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters for the transit-stub generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransitStubConfig {
    /// Number of transit (backbone) nodes.
    pub transit_nodes: usize,
    /// Number of stub domains attached to each transit node.
    pub stubs_per_transit: usize,
    /// Number of nodes inside each stub domain.
    pub nodes_per_stub: usize,
    /// Latency between two transit nodes (milliseconds).
    pub transit_transit_ms: f64,
    /// Latency between a transit node and nodes in its stubs (milliseconds).
    pub transit_stub_ms: f64,
    /// Latency between two nodes in the same stub (milliseconds).
    pub intra_stub_ms: f64,
    /// Link capacity in bits per second.
    pub bandwidth_bps: f64,
    /// Seed for the random metric attached to each link.
    pub seed: u64,
}

impl TransitStubConfig {
    /// The configuration used in the paper's evaluation (Section 6.1):
    /// 4 transit nodes, 3 stubs per transit, 8 nodes per stub, 50/10/2 ms,
    /// 10 Mbps links. Produces a 100-node topology.
    pub fn paper() -> Self {
        TransitStubConfig {
            transit_nodes: 4,
            stubs_per_transit: 3,
            nodes_per_stub: 8,
            transit_transit_ms: 50.0,
            transit_stub_ms: 10.0,
            intra_stub_ms: 2.0,
            bandwidth_bps: 10_000_000.0,
            seed: 0x5eed,
        }
    }

    /// A scaled-down configuration useful for fast tests: 2 transit nodes,
    /// 2 stubs per transit, 3 nodes per stub (14 nodes total).
    pub fn small() -> Self {
        TransitStubConfig {
            transit_nodes: 2,
            stubs_per_transit: 2,
            nodes_per_stub: 3,
            ..Self::paper()
        }
    }

    /// A mid-size configuration for CI smoke runs: 4 transit nodes,
    /// 3 stubs per transit, 4 nodes per stub (52 nodes total).
    pub fn medium() -> Self {
        TransitStubConfig {
            nodes_per_stub: 4,
            ..Self::paper()
        }
    }

    /// Total number of nodes this configuration generates.
    pub fn total_nodes(&self) -> usize {
        self.transit_nodes + self.transit_nodes * self.stubs_per_transit * self.nodes_per_stub
    }
}

/// The generated transit-stub topology together with the node roles.
#[derive(Debug, Clone)]
pub struct TransitStub {
    /// The physical network graph.
    pub topology: Topology,
    /// The transit (backbone) node addresses.
    pub transit: Vec<NodeAddr>,
    /// Stub membership: `stubs[t][s]` is the list of nodes in stub `s` of
    /// transit node `t`.
    pub stubs: Vec<Vec<Vec<NodeAddr>>>,
}

/// Generate a transit-stub topology.
///
/// Transit nodes form a full mesh among themselves. Every stub node connects
/// to its transit node and to every other node in the same stub. Each link's
/// reliability cost is correlated with its latency (latency plus small
/// seeded noise) and its random metric is drawn uniformly from `[1, 100)`.
pub fn generate(config: &TransitStubConfig) -> TransitStub {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut topology = Topology::new();

    let transit: Vec<NodeAddr> = (0..config.transit_nodes)
        .map(|_| topology.add_node())
        .collect();

    let mut stubs = Vec::with_capacity(config.transit_nodes);
    for _ in 0..config.transit_nodes {
        let mut per_transit = Vec::with_capacity(config.stubs_per_transit);
        for _ in 0..config.stubs_per_transit {
            let stub: Vec<NodeAddr> = (0..config.nodes_per_stub)
                .map(|_| topology.add_node())
                .collect();
            per_transit.push(stub);
        }
        stubs.push(per_transit);
    }

    let link = |topology: &mut Topology, rng: &mut StdRng, a: NodeAddr, b: NodeAddr, lat: f64| {
        let metrics = LinkMetrics {
            latency_ms: lat,
            // Reliability cost correlated with latency: latency scaled plus
            // up to 20% noise, so ordering mostly follows latency.
            reliability: lat * (1.0 + rng.random_range(0.0..0.2)),
            // Uncorrelated random metric (the paper's stress case).
            random: rng.random_range(1.0..100.0),
            bandwidth_bps: config.bandwidth_bps,
        };
        topology
            .add_link(a, b, metrics)
            .expect("generator never creates duplicate links");
    };

    // Transit backbone: full mesh.
    for i in 0..transit.len() {
        for j in (i + 1)..transit.len() {
            link(
                &mut topology,
                &mut rng,
                transit[i],
                transit[j],
                config.transit_transit_ms,
            );
        }
    }

    // Transit <-> stub and intra-stub links.
    for (t, per_transit) in stubs.iter().enumerate() {
        for stub in per_transit {
            for (i, &n) in stub.iter().enumerate() {
                link(
                    &mut topology,
                    &mut rng,
                    transit[t],
                    n,
                    config.transit_stub_ms,
                );
                for &m in &stub[(i + 1)..] {
                    link(&mut topology, &mut rng, n, m, config.intra_stub_ms);
                }
            }
        }
    }

    TransitStub {
        topology,
        transit,
        stubs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Metric;

    #[test]
    fn paper_config_has_100_nodes() {
        let cfg = TransitStubConfig::paper();
        assert_eq!(cfg.total_nodes(), 100);
        let ts = generate(&cfg);
        assert_eq!(ts.topology.node_count(), 100);
        assert_eq!(ts.transit.len(), 4);
        assert_eq!(ts.stubs.iter().flatten().flatten().count(), 96);
        assert!(ts.topology.is_connected());
    }

    #[test]
    fn link_counts_match_structure() {
        let cfg = TransitStubConfig::paper();
        let ts = generate(&cfg);
        // transit mesh: C(4,2)=6; transit-stub: 4*3*8=96;
        // intra-stub: 4*3*C(8,2)=4*3*28=336. Total 438.
        assert_eq!(ts.topology.link_count(), 6 + 96 + 336);
    }

    #[test]
    fn latencies_follow_roles() {
        let ts = generate(&TransitStubConfig::paper());
        let t0 = ts.transit[0];
        let t1 = ts.transit[1];
        assert_eq!(ts.topology.link(t0, t1).unwrap().latency_ms, 50.0);
        let s = ts.stubs[0][0][0];
        assert_eq!(ts.topology.link(t0, s).unwrap().latency_ms, 10.0);
        let s2 = ts.stubs[0][0][1];
        assert_eq!(ts.topology.link(s, s2).unwrap().latency_ms, 2.0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(&TransitStubConfig::paper());
        let b = generate(&TransitStubConfig::paper());
        for (x, y, m) in a.topology.links() {
            let m2 = b.topology.link(x, y).unwrap();
            assert_eq!(m.random, m2.random);
            assert_eq!(m.reliability, m2.reliability);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TransitStubConfig::paper());
        let mut cfg = TransitStubConfig::paper();
        cfg.seed = 123;
        let b = generate(&cfg);
        let differs = a
            .topology
            .links()
            .any(|(x, y, m)| b.topology.link(x, y).unwrap().random != m.random);
        assert!(differs);
    }

    #[test]
    fn medium_preset_hits_its_node_count() {
        assert_eq!(TransitStubConfig::medium().total_nodes(), 52);
        let medium = generate(&TransitStubConfig::medium());
        assert_eq!(medium.topology.node_count(), 52);
        assert!(medium.topology.is_connected());
    }

    #[test]
    fn small_config_connected_and_reachable() {
        let ts = generate(&TransitStubConfig::small());
        assert_eq!(
            ts.topology.node_count(),
            TransitStubConfig::small().total_nodes()
        );
        assert!(ts.topology.is_connected());
        let d = ts.topology.shortest_distances(NodeAddr(0), Metric::Latency);
        assert!(d.iter().all(|x| x.is_finite()));
    }
}

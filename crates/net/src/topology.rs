//! Network topologies: undirected weighted graphs with per-link metrics.
//!
//! A [`Topology`] models the *underlying* physical network (what GT-ITM
//! generates in the paper) as well as overlay graphs built on top of it.
//! Links are bidirectional, matching the paper's assumption (Section 2.1);
//! the topology stores one [`LinkMetrics`] record per unordered node pair and
//! exposes it in both directions.

use crate::address::NodeAddr;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

/// Metrics attached to a network link.
///
/// These are the link attributes used by the paper's four shortest-path
/// query variants: hop count (implicitly 1 per link), latency, reliability
/// (modelled as a loss-derived cost correlated with latency) and a random
/// metric that is uncorrelated with latency (the paper's stress case).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkMetrics {
    /// One-way propagation latency in milliseconds.
    pub latency_ms: f64,
    /// Reliability cost (higher is worse); correlated with latency.
    pub reliability: f64,
    /// A uniformly random cost, uncorrelated with latency.
    pub random: f64,
    /// Link capacity in bits per second.
    pub bandwidth_bps: f64,
}

impl LinkMetrics {
    /// A uniform default link: 1 ms latency, 10 Mbps.
    pub fn uniform() -> Self {
        LinkMetrics {
            latency_ms: 1.0,
            reliability: 1.0,
            random: 1.0,
            bandwidth_bps: 10_000_000.0,
        }
    }

    /// Retrieve a metric by [`Metric`] selector.
    pub fn get(&self, metric: Metric) -> f64 {
        match metric {
            Metric::HopCount => 1.0,
            Metric::Latency => self.latency_ms,
            Metric::Reliability => self.reliability,
            Metric::Random => self.random,
        }
    }
}

/// Which link metric a query minimizes. Labels match the paper's Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Every link costs 1.
    HopCount,
    /// Link latency in milliseconds.
    Latency,
    /// Loss-derived reliability cost.
    Reliability,
    /// A random cost uncorrelated with latency (the paper's stress case).
    Random,
}

impl Metric {
    /// All four metrics in the order the paper lists them.
    pub const ALL: [Metric; 4] = [
        Metric::HopCount,
        Metric::Latency,
        Metric::Reliability,
        Metric::Random,
    ];

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Metric::HopCount => "Hop-Count",
            Metric::Latency => "Latency",
            Metric::Reliability => "Reliability",
            Metric::Random => "Random",
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors from topology construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The referenced node does not exist.
    UnknownNode(NodeAddr),
    /// A link was added between a node and itself.
    SelfLoop(NodeAddr),
    /// The link already exists.
    DuplicateLink(NodeAddr, NodeAddr),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop on node {n}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link {a} <-> {b}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An undirected network graph with per-link metrics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    node_count: u32,
    /// Adjacency: node -> sorted neighbor set.
    adjacency: BTreeMap<NodeAddr, BTreeSet<NodeAddr>>,
    /// Link metrics keyed by the canonical (min, max) node pair.
    links: BTreeMap<(NodeAddr, NodeAddr), LinkMetrics>,
}

impl Topology {
    /// Create an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a topology with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        let mut t = Self::new();
        for _ in 0..n {
            t.add_node();
        }
        t
    }

    /// Add a new node, returning its address.
    pub fn add_node(&mut self) -> NodeAddr {
        let addr = NodeAddr(self.node_count);
        self.node_count += 1;
        self.adjacency.entry(addr).or_default();
        addr
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count as usize
    }

    /// Number of (undirected) links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterator over node addresses.
    pub fn nodes(&self) -> impl Iterator<Item = NodeAddr> + '_ {
        (0..self.node_count).map(NodeAddr)
    }

    /// Whether the node exists.
    pub fn contains(&self, node: NodeAddr) -> bool {
        node.0 < self.node_count
    }

    fn canonical(a: NodeAddr, b: NodeAddr) -> (NodeAddr, NodeAddr) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Add a bidirectional link between `a` and `b`.
    pub fn add_link(
        &mut self,
        a: NodeAddr,
        b: NodeAddr,
        metrics: LinkMetrics,
    ) -> Result<(), TopologyError> {
        if !self.contains(a) {
            return Err(TopologyError::UnknownNode(a));
        }
        if !self.contains(b) {
            return Err(TopologyError::UnknownNode(b));
        }
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        let key = Self::canonical(a, b);
        if self.links.contains_key(&key) {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        self.links.insert(key, metrics);
        self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
        Ok(())
    }

    /// Metrics of the link between `a` and `b`, if it exists.
    pub fn link(&self, a: NodeAddr, b: NodeAddr) -> Option<&LinkMetrics> {
        self.links.get(&Self::canonical(a, b))
    }

    /// Whether a link between `a` and `b` exists.
    pub fn has_link(&self, a: NodeAddr, b: NodeAddr) -> bool {
        self.links.contains_key(&Self::canonical(a, b))
    }

    /// Neighbors of a node (empty iterator for unknown nodes).
    pub fn neighbors(&self, node: NodeAddr) -> impl Iterator<Item = NodeAddr> + '_ {
        self.adjacency
            .get(&node)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Degree (number of neighbors) of a node.
    pub fn degree(&self, node: NodeAddr) -> usize {
        self.adjacency.get(&node).map_or(0, |s| s.len())
    }

    /// All links as `(a, b, metrics)` with `a < b`.
    pub fn links(&self) -> impl Iterator<Item = (NodeAddr, NodeAddr, &LinkMetrics)> + '_ {
        self.links.iter().map(|(&(a, b), m)| (a, b, m))
    }

    /// Whether the graph is connected (empty graphs are connected).
    pub fn is_connected(&self) -> bool {
        if self.node_count == 0 {
            return true;
        }
        let mut seen = vec![false; self.node_count as usize];
        let mut stack = vec![NodeAddr(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for nb in self.neighbors(n) {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    count += 1;
                    stack.push(nb);
                }
            }
        }
        count == self.node_count as usize
    }

    /// The links weighed by `metric` as one flat adjacency list: what a
    /// caller running Dijkstra from many sources builds once.
    pub fn weights(&self, metric: Metric) -> LinkWeights {
        let n = self.node_count as usize;
        let mut offsets = vec![0; n + 1];
        for &(a, b) in self.links.keys() {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.clone();
        let mut edges = vec![(0, 0.0); offsets[n]];
        for (&(a, b), metrics) in &self.links {
            for (from, to) in [(a.index(), b.index()), (b.index(), a.index())] {
                edges[next[from]] = (to, metrics.get(metric));
                next[from] += 1;
            }
        }
        LinkWeights { offsets, edges }
    }

    /// Single-source shortest-path distances over a given metric
    /// (Dijkstra). Returns a vector indexed by node, `f64::INFINITY` for
    /// unreachable nodes.
    pub fn shortest_distances(&self, source: NodeAddr, metric: Metric) -> Vec<f64> {
        self.weights(metric).shortest_distances(source)
    }
}

/// A topology's links under one metric ([`Topology::weights`]): node `i`'s
/// neighbours and the weights of the links to them are
/// `edges[offsets[i]..offsets[i + 1]]`, so relaxing an edge reads a slice
/// instead of looking a node pair up in an ordered map.
#[derive(Debug, Clone)]
pub struct LinkWeights {
    offsets: Vec<usize>,
    edges: Vec<(usize, f64)>,
}

impl LinkWeights {
    /// [`Topology::shortest_distances`] from `source`.
    pub fn shortest_distances(&self, source: NodeAddr) -> Vec<f64> {
        let n = self.offsets.len() - 1;
        let mut dist = vec![f64::INFINITY; n];
        if source.index() >= n {
            return dist;
        }
        dist[source.index()] = 0.0;
        // Distances are non-negative, so their bit patterns order as they
        // do; ties pop in node order.
        let mut heap = BinaryHeap::from([Reverse((0.0f64.to_bits(), source.index()))]);
        while let Some(Reverse((d, node))) = heap.pop() {
            let d = f64::from_bits(d);
            if d > dist[node] {
                continue;
            }
            for &(nb, weight) in &self.edges[self.offsets[node]..self.offsets[node + 1]] {
                let nd = d + weight;
                if nd < dist[nb] {
                    dist[nb] = nd;
                    heap.push(Reverse((nd.to_bits(), nb)));
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut t = Topology::with_nodes(3);
        let m = LinkMetrics::uniform();
        t.add_link(NodeAddr(0), NodeAddr(1), m).unwrap();
        t.add_link(NodeAddr(1), NodeAddr(2), m).unwrap();
        t.add_link(NodeAddr(2), NodeAddr(0), m).unwrap();
        t
    }

    #[test]
    fn add_and_query_links() {
        let t = triangle();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        assert!(t.has_link(NodeAddr(0), NodeAddr(1)));
        assert!(
            t.has_link(NodeAddr(1), NodeAddr(0)),
            "links are bidirectional"
        );
        assert_eq!(t.degree(NodeAddr(0)), 2);
        assert!(t.is_connected());
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let mut t = Topology::with_nodes(2);
        let m = LinkMetrics::uniform();
        assert_eq!(
            t.add_link(NodeAddr(0), NodeAddr(0), m),
            Err(TopologyError::SelfLoop(NodeAddr(0)))
        );
        t.add_link(NodeAddr(0), NodeAddr(1), m).unwrap();
        assert_eq!(
            t.add_link(NodeAddr(1), NodeAddr(0), m),
            Err(TopologyError::DuplicateLink(NodeAddr(1), NodeAddr(0)))
        );
        assert_eq!(
            t.add_link(NodeAddr(0), NodeAddr(5), m),
            Err(TopologyError::UnknownNode(NodeAddr(5)))
        );
    }

    #[test]
    fn disconnected_detection() {
        let mut t = Topology::with_nodes(4);
        let m = LinkMetrics::uniform();
        t.add_link(NodeAddr(0), NodeAddr(1), m).unwrap();
        t.add_link(NodeAddr(2), NodeAddr(3), m).unwrap();
        assert!(!t.is_connected());
    }

    #[test]
    fn dijkstra_latency() {
        let mut t = Topology::with_nodes(4);
        let mk = |l: f64| LinkMetrics {
            latency_ms: l,
            reliability: l,
            random: 1.0,
            bandwidth_bps: 1e7,
        };
        t.add_link(NodeAddr(0), NodeAddr(1), mk(5.0)).unwrap();
        t.add_link(NodeAddr(0), NodeAddr(2), mk(1.0)).unwrap();
        t.add_link(NodeAddr(2), NodeAddr(1), mk(1.0)).unwrap();
        t.add_link(NodeAddr(1), NodeAddr(3), mk(1.0)).unwrap();
        let d = t.shortest_distances(NodeAddr(0), Metric::Latency);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[2], 1.0);
        assert_eq!(d[1], 2.0, "via node 2 is cheaper than the direct 5ms link");
        assert_eq!(d[3], 3.0);
        let dh = t.shortest_distances(NodeAddr(0), Metric::HopCount);
        assert_eq!(dh[1], 1.0, "hop-count prefers the direct link");
    }

    #[test]
    fn dijkstra_unreachable_is_infinite() {
        let mut t = Topology::with_nodes(3);
        t.add_link(NodeAddr(0), NodeAddr(1), LinkMetrics::uniform())
            .unwrap();
        let d = t.shortest_distances(NodeAddr(0), Metric::HopCount);
        assert!(d[2].is_infinite());
    }

    #[test]
    fn dijkstra_is_the_fixed_point_of_relaxing_every_link() {
        // An oracle that shares nothing with the adjacency list: relax
        // every link through `neighbors` / `link` until nothing moves.
        let t = crate::gtitm::generate(&crate::gtitm::TransitStubConfig::medium()).topology;
        for metric in Metric::ALL {
            let source = NodeAddr(3);
            let mut want = vec![f64::INFINITY; t.node_count()];
            want[source.index()] = 0.0;
            let mut moved = true;
            while std::mem::take(&mut moved) {
                for a in t.nodes() {
                    for b in t.neighbors(a) {
                        let through = want[a.index()] + t.link(a, b).unwrap().get(metric);
                        if through < want[b.index()] {
                            want[b.index()] = through;
                            moved = true;
                        }
                    }
                }
            }
            let got = t.shortest_distances(source, metric);
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{metric}");
        }
        let nowhere = NodeAddr(t.node_count() as u32);
        let from_nowhere = t.shortest_distances(nowhere, Metric::Latency);
        assert!(from_nowhere.iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn metric_labels() {
        assert_eq!(Metric::HopCount.label(), "Hop-Count");
        assert_eq!(Metric::Random.to_string(), "Random");
        assert_eq!(Metric::ALL.len(), 4);
    }
}

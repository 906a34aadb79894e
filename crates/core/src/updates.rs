//! Bursty update workloads (Section 4's bursty model, Section 6.5's
//! experiments).
//!
//! The paper's incremental-evaluation experiments subject the network to
//! periodic bursts of link-cost updates: every burst randomly selects 10%
//! of the overlay links and changes their cost metric by up to 10%. Each
//! update is applied as a deletion of the old base tuple followed by an
//! insertion of the new one (Section 4's definition of an update), at both
//! endpoints since links are bidirectional.

use ndlog_net::overlay::OverlayLink;
use ndlog_net::topology::Metric;
use ndlog_net::NodeAddr;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One link-cost update (applies to both directions of the link).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkUpdate {
    /// One endpoint.
    pub a: NodeAddr,
    /// The other endpoint.
    pub b: NodeAddr,
    /// The cost before the update.
    pub old_cost: f64,
    /// The cost after the update.
    pub new_cost: f64,
}

/// A generator of periodic update bursts over a fixed overlay link set.
#[derive(Debug, Clone)]
pub struct UpdateWorkload {
    rng: StdRng,
    /// Fraction of links updated per burst (the paper uses 0.10).
    pub fraction: f64,
    /// Maximum relative cost change per update (the paper uses 0.10).
    pub magnitude: f64,
    /// Current cost of every (undirected) link.
    costs: BTreeMap<(NodeAddr, NodeAddr), f64>,
}

impl UpdateWorkload {
    /// Build a workload over the overlay's links, reading the initial costs
    /// from the chosen metric. `fraction` of links change by up to
    /// `magnitude` (relative) per burst.
    pub fn new(
        links: &[OverlayLink],
        metric: Metric,
        fraction: f64,
        magnitude: f64,
        seed: u64,
    ) -> Self {
        let mut costs = BTreeMap::new();
        for l in links {
            let key = canonical(l.src, l.dst);
            costs.entry(key).or_insert_with(|| l.cost(metric));
        }
        UpdateWorkload {
            rng: StdRng::seed_from_u64(seed),
            fraction,
            magnitude,
            costs,
        }
    }

    /// The paper's configuration: 10% of links, up to 10% cost change.
    pub fn paper(links: &[OverlayLink], metric: Metric, seed: u64) -> Self {
        Self::new(links, metric, 0.10, 0.10, seed)
    }

    /// Number of links under management.
    pub fn link_count(&self) -> usize {
        self.costs.len()
    }

    /// The current cost of a link (either direction), if known.
    #[cfg(test)]
    fn current_cost(&self, a: NodeAddr, b: NodeAddr) -> Option<f64> {
        self.costs.get(&canonical(a, b)).copied()
    }

    /// Generate one burst of updates and advance the internal cost state.
    pub fn burst(&mut self) -> Vec<LinkUpdate> {
        let mut keys: Vec<(NodeAddr, NodeAddr)> = self.costs.keys().copied().collect();
        keys.shuffle(&mut self.rng);
        let take = ((keys.len() as f64) * self.fraction).round().max(1.0) as usize;
        let mut out = Vec::with_capacity(take);
        for key in keys.into_iter().take(take) {
            let old_cost = self.costs[&key];
            // Change by up to ±magnitude, avoiding a zero-sized change.
            let delta = self.rng.random_range(-self.magnitude..self.magnitude);
            let mut new_cost = old_cost * (1.0 + delta);
            if (new_cost - old_cost).abs() < f64::EPSILON {
                new_cost = old_cost * (1.0 + self.magnitude / 2.0);
            }
            new_cost = new_cost.max(0.01);
            self.costs.insert(key, new_cost);
            out.push(LinkUpdate {
                a: key.0,
                b: key.1,
                old_cost,
                new_cost,
            });
        }
        out
    }
}

fn canonical(a: NodeAddr, b: NodeAddr) -> (NodeAddr, NodeAddr) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_net::gtitm::{generate, TransitStubConfig};
    use ndlog_net::overlay::{Overlay, OverlayConfig};

    fn overlay_links() -> Vec<OverlayLink> {
        let ts = generate(&TransitStubConfig::small());
        Overlay::random_neighbors(&ts.topology, &OverlayConfig::default()).links()
    }

    #[test]
    fn burst_touches_the_configured_fraction() {
        let links = overlay_links();
        let mut w = UpdateWorkload::paper(&links, Metric::Random, 7);
        let n_links = w.link_count();
        let burst = w.burst();
        let expected = ((n_links as f64) * 0.10).round().max(1.0) as usize;
        assert_eq!(burst.len(), expected);
        for u in &burst {
            assert!(u.new_cost > 0.0);
            assert!(
                (u.new_cost - u.old_cost).abs() / u.old_cost <= 0.11,
                "change within ~10%"
            );
            assert_ne!(u.new_cost, u.old_cost);
            assert_eq!(w.current_cost(u.a, u.b), Some(u.new_cost));
        }
    }

    #[test]
    fn bursts_are_deterministic_per_seed() {
        let links = overlay_links();
        let mut a = UpdateWorkload::paper(&links, Metric::Random, 42);
        let mut b = UpdateWorkload::paper(&links, Metric::Random, 42);
        assert_eq!(a.burst(), b.burst());
        assert_eq!(a.burst(), b.burst());
        let mut c = UpdateWorkload::paper(&links, Metric::Random, 43);
        assert_ne!(a.burst(), c.burst());
    }

    #[test]
    fn costs_drift_across_bursts() {
        let links = overlay_links();
        let mut w = UpdateWorkload::paper(&links, Metric::Latency, 1);
        let before: Vec<f64> = (0..3).flat_map(|_| w.burst()).map(|u| u.new_cost).collect();
        assert!(!before.is_empty());
        // Subsequent bursts start from the drifted state, not the original.
        let burst = w.burst();
        for u in &burst {
            assert_eq!(w.current_cost(u.a, u.b), Some(u.new_cost));
        }
    }

    #[test]
    fn fraction_of_one_updates_every_link() {
        let links = overlay_links();
        let mut w = UpdateWorkload::new(&links, Metric::HopCount, 1.0, 0.1, 3);
        assert_eq!(w.burst().len(), w.link_count());
    }
}

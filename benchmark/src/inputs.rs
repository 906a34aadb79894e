//! Input generation: everything a workload feeds the program is made here
//! from the `--seed` argument.
//!
//! The underlay and overlay come from `ndlog-net`'s own generators (they
//! are a measured layer, `net.topology_build_us`), seeded from the
//! benchmark seed; traffic matrices, update bursts and client statements
//! are drawn by the benchmark's own generator.

use crate::rng::{derive, Digest, Rng};
use crate::trace::Tracer;
use ndlog_core::LinkUpdate;
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig, OverlayLink};
use ndlog_net::topology::Metric;
use ndlog_net::NodeAddr;
use std::collections::{BTreeMap, BTreeSet};

/// A transit-stub shape: `transit * (1 + stubs * per_stub)` nodes.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub transit: usize,
    pub stubs: usize,
    pub per_stub: usize,
}

impl Shape {
    pub const fn nodes(self) -> usize {
        self.transit * (1 + self.stubs * self.per_stub)
    }
}

/// How big each workload is. `FULL` is what `run` measures; `SELFTEST`
/// runs every workload and every check at 14 nodes in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub converge: Shape,
    pub route: Shape,
    pub route_flows: usize,
    /// Distinct sources, and distinct destinations, of those flows.
    pub route_ends: usize,
    pub churn: Shape,
    /// Every burst re-costs this many links, and a round holds as many
    /// bursts as the overlay has links: that many passes through them all.
    pub churn_links_per_burst: usize,
    pub serve: Shape,
    /// Commits per untraced round, and per round of the traced run.
    pub serve_commits: usize,
    pub serve_commits_traced: usize,
}

const FOURTEEN: Shape = Shape {
    transit: 2,
    stubs: 2,
    per_stub: 3,
};

impl Sizes {
    /// Sized on a 2-core host so that a run holds a warm-up and ten or more
    /// timed rounds of every workload (README, "Sizes").
    pub const FULL: Sizes = Sizes {
        converge: Shape {
            transit: 6,
            stubs: 3,
            per_stub: 8,
        },
        route: Shape {
            transit: 10,
            stubs: 5,
            per_stub: 10,
        },
        route_flows: 48,
        route_ends: 32,
        churn: Shape {
            transit: 3,
            stubs: 3,
            per_stub: 4,
        },
        // The 39-node overlay has about 150 links, so about 150 bursts: the
        // 90th percentile has ten beyond it from 100 up.
        churn_links_per_burst: 2,
        serve: Shape {
            transit: 2,
            stubs: 3,
            per_stub: 4,
        },
        // Short rounds, so that a run holds many and a slow spell of the
        // host moves few of them; 190 commits still leave the 90th
        // percentile nineteen beyond it.
        serve_commits: 190,
        // One long round, so the per-layer 99th percentiles have ten.
        serve_commits_traced: 1000,
    };

    pub const SELFTEST: Sizes = Sizes {
        converge: FOURTEEN,
        route: FOURTEEN,
        route_flows: 6,
        route_ends: 4,
        churn: FOURTEEN,
        churn_links_per_burst: 2,
        serve: FOURTEEN,
        serve_commits: 60,
        serve_commits_traced: 60,
    };
}

/// Directed links as (source, destination, cost).
pub type Links = Vec<(u32, u32, f64)>;

/// A built overlay and its directed links.
pub struct Net {
    pub overlay: Overlay,
    pub links: Vec<OverlayLink>,
}

impl Net {
    pub fn node_count(&self) -> usize {
        self.overlay.node_count()
    }

    /// The directed links with the cost a workload loads them at.
    pub fn costed(&self, cost: impl Fn(&OverlayLink) -> f64) -> Links {
        self.links
            .iter()
            .map(|l| (l.src.0, l.dst.0, cost(l)))
            .collect()
    }
}

/// Build the underlay and the four-random-neighbours overlay on it, each
/// call a span under `parent`.
pub fn build_net(shape: Shape, seed: u64, tracer: &mut Tracer, parent: Option<usize>) -> Net {
    let config = TransitStubConfig {
        transit_nodes: shape.transit,
        stubs_per_transit: shape.stubs,
        nodes_per_stub: shape.per_stub,
        seed: derive(seed, "underlay"),
        ..TransitStubConfig::paper()
    };
    let underlay = tracer.call("net.gtitm_generate", parent, 0, || generate(&config));
    let overlay_config = OverlayConfig {
        neighbors_per_node: 4,
        seed: derive(seed, "overlay"),
    };
    let overlay = tracer.call("net.overlay_random_neighbors", parent, 0, || {
        Overlay::random_neighbors(&underlay.topology, &overlay_config)
    });
    let links = overlay.links();
    Net { overlay, links }
}

/// The overlay's random metric as a whole number of at least 1, so sums
/// of two costs are exact whatever order they are added in.
pub fn whole_cost(link: &OverlayLink) -> f64 {
    link.cost(Metric::Random).round().max(1.0)
}

/// `count` distinct source→destination queries over exactly `ends`
/// distinct sources and `ends` distinct destinations, each end Zipf-drawn
/// (exponent 1) over the node order: a few hot nodes attract most queries.
///
/// The number of distinct ends is fixed, not left to the draw, because the
/// magic-rewritten program's work grows with the number of distinct
/// sources; a draw that happened to repeat sources more often would be a
/// lighter workload, not the same one.
pub fn zipf_flows(nodes: usize, count: usize, ends: usize, seed: u64) -> Vec<(u32, u32)> {
    assert!(ends <= nodes && count <= ends * (ends - 1), "too few nodes");
    let weights: Vec<f64> = (0..nodes).map(|rank| 1.0 / (rank + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = Rng::new(derive(seed, "flows"));
    let distinct = |rng: &mut Rng| {
        let mut picked: Vec<u32> = Vec::with_capacity(ends);
        while picked.len() < ends {
            let mut target = rng.unit() * total;
            let mut node = nodes - 1;
            for (rank, w) in weights.iter().enumerate() {
                if target < *w {
                    node = rank;
                    break;
                }
                target -= w;
            }
            if !picked.contains(&(node as u32)) {
                picked.push(node as u32);
            }
        }
        picked
    };
    let sources = distinct(&mut rng);
    let dests = distinct(&mut rng);
    // Deal the sources round-robin; each takes the next destination that
    // makes a new pair.
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    let mut next = 0;
    for i in 0..count {
        let source = sources[i % ends];
        loop {
            let dest = dests[next % ends];
            next += 1;
            if dest != source && seen.insert((source, dest)) {
                out.push((source, dest));
                break;
            }
        }
    }
    out
}

/// Deals the links out like a deck of cards, reshuffled when it runs
/// out: over a run every link is re-costed the same number of times (give
/// or take one) whatever the seed. How much work an update causes depends
/// heavily on which link it hits, so independent draws would make one
/// seed's run a lighter workload than another's.
struct Deck {
    cards: Vec<(u32, u32)>,
    next: usize,
}

impl Deck {
    fn new(cards: Vec<(u32, u32)>) -> Deck {
        let next = cards.len();
        Deck { cards, next }
    }

    fn deal(&mut self, rng: &mut Rng) -> (u32, u32) {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Bursts of link-cost replacements, one burst per undirected link:
/// every burst lowers the cost of `per_burst` links, dealt from a shuffled
/// deck of all of them, by 1 to 10 % — so a round re-costs every link
/// exactly `per_burst` times. Returns the bursts and the directed link
/// costs after the last one.
///
/// Costs only ever fall because that is where the program under test is
/// exact: with aggregate selections a node keeps just the best path per
/// destination, so when a cost rises it can settle on a path that is no
/// longer the cheapest, or on none (README, "Sizing constraints"). A
/// replacement that lowers a cost still deletes the old link tuple and
/// runs the whole over-delete/re-derive pass.
pub fn update_bursts(
    links: &[(u32, u32, f64)],
    per_burst: usize,
    seed: u64,
) -> (Vec<Vec<LinkUpdate>>, Links) {
    let mut costs: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for &(s, d, c) in links {
        costs.entry((s.min(d), s.max(d))).or_insert(c);
    }
    let bursts = costs.len();
    let mut rng = Rng::new(derive(seed, "bursts"));
    let mut deck = Deck::new(costs.keys().copied().collect());
    let mut out = Vec::with_capacity(bursts);
    for _ in 0..bursts {
        let burst = (0..per_burst)
            .map(|_| {
                let key = deck.deal(&mut rng);
                let old_cost = costs[&key];
                let new_cost = old_cost * (0.99 - 0.09 * rng.unit());
                costs.insert(key, new_cost);
                LinkUpdate {
                    a: NodeAddr(key.0),
                    b: NodeAddr(key.1),
                    old_cost,
                    new_cost,
                }
            })
            .collect();
        out.push(burst);
    }
    let finals = costs
        .iter()
        .flat_map(|(&(a, b), &c)| [(a, b, c), (b, a, c)])
        .collect();
    (out, finals)
}

/// One client statement of `serve_mixed`: a keyed replacement of both
/// directions of one link.
pub struct Statement {
    pub text: String,
    pub a: u32,
    pub b: u32,
    pub cost: f64,
}

/// The writer's statement stream and the directed link costs after it.
/// Links are dealt from a shuffled deck; costs are whole numbers in
/// `1..100`, never equal to the one replaced.
pub fn link_statements(
    links: &[(u32, u32, f64)],
    count: usize,
    seed: u64,
) -> (Vec<Statement>, BTreeMap<(u32, u32), f64>) {
    let mut costs: BTreeMap<(u32, u32), f64> = links.iter().map(|&(s, d, c)| ((s, d), c)).collect();
    let mut deck = Deck::new(costs.keys().copied().filter(|&(s, d)| s < d).collect());
    let mut rng = Rng::new(derive(seed, "statements"));
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let (a, b) = deck.deal(&mut rng);
        let old = costs[&(a, b)];
        let mut cost = (1 + rng.below(99)) as f64;
        if cost == old {
            cost = if old >= 99.0 { 1.0 } else { old + 1.0 };
        }
        costs.insert((a, b), cost);
        costs.insert((b, a), cost);
        out.push(Statement {
            text: format!("+link[(@n{a}, @n{b}, {cost:.1}), (@n{b}, @n{a}, {cost:.1})]."),
            a,
            b,
            cost,
        });
    }
    (out, costs)
}

/// Digest of a link list (and whatever the caller adds after it).
pub fn digest_links(links: &[(u32, u32, f64)]) -> Digest {
    let mut digest = Digest::new();
    for &(s, d, c) in links {
        digest.u64(u64::from(s));
        digest.u64(u64::from(d));
        digest.f64(c);
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fourteen(seed: u64) -> Net {
        build_net(FOURTEEN, seed, &mut Tracer::new(), None)
    }

    #[test]
    fn shapes_count_nodes() {
        assert_eq!(FOURTEEN.nodes(), 14);
        assert_eq!(Sizes::FULL.converge.nodes(), 150);
        assert_eq!(Sizes::FULL.route.nodes(), 510);
        assert_eq!(Sizes::FULL.churn.nodes(), 39);
        assert_eq!(Sizes::FULL.serve.nodes(), 26);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let digest = |seed: u64| {
            let net = fourteen(seed);
            let links = net.costed(whole_cost);
            let mut d = digest_links(&links);
            for (s, t) in zipf_flows(net.node_count(), 6, 4, seed) {
                d.u64(u64::from(s) << 32 | u64::from(t));
            }
            let (bursts, _) = update_bursts(&links, 2, seed);
            for u in bursts.iter().flatten() {
                d.f64(u.new_cost);
            }
            let (statements, _) = link_statements(&links, 5, seed);
            for s in &statements {
                d.str(&s.text);
            }
            d.hex()
        };
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
    }

    #[test]
    fn flows_are_distinct_over_a_fixed_number_of_ends() {
        let flows = zipf_flows(14, 20, 6, 3);
        assert_eq!(flows.len(), 20);
        let distinct: BTreeSet<_> = flows.iter().collect();
        assert_eq!(distinct.len(), 20);
        assert!(flows.iter().all(|&(s, d)| s != d && s < 14 && d < 14));
        let sources: BTreeSet<u32> = flows.iter().map(|f| f.0).collect();
        let dests: BTreeSet<u32> = flows.iter().map(|f| f.1).collect();
        assert_eq!((sources.len(), dests.len()), (6, 6));
        // Rank 0 is the hottest node: most seeds draw it as a source.
        let hot = (0..40)
            .filter(|&seed| zipf_flows(100, 12, 8, seed).iter().any(|f| f.0 == 0))
            .count();
        assert!(hot > 20, "{hot}");
    }

    #[test]
    fn bursts_deal_every_link_before_any_twice() {
        let net = fourteen(5);
        let links = net.costed(|l| l.cost(Metric::Random));
        let undirected = links.len() / 2;
        let (bursts, _) = update_bursts(&links, 2, 5);
        let mut times: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        for u in bursts.iter().flatten() {
            *times.entry((u.a.0, u.b.0)).or_default() += 1;
        }
        // Two full passes through the deck.
        assert_eq!(times.len(), undirected);
        assert!(times.values().all(|&n| n == 2));
    }

    #[test]
    fn bursts_chain_costs_and_lower_them_by_at_most_ten_percent() {
        let net = fourteen(5);
        let links = net.costed(|l| l.cost(Metric::Random));
        let (bursts, finals) = update_bursts(&links, 2, 5);
        assert_eq!(bursts.len(), links.len() / 2);
        let mut costs: BTreeMap<(u32, u32), f64> =
            links.iter().map(|&(s, d, c)| ((s, d), c)).collect();
        for burst in &bursts {
            assert_eq!(burst.len(), 2);
            for u in burst {
                assert_eq!(costs[&(u.a.0, u.b.0)], u.old_cost);
                let fall = 1.0 - u.new_cost / u.old_cost;
                assert!((0.0099..=0.1001).contains(&fall), "{fall}");
                costs.insert((u.a.0, u.b.0), u.new_cost);
                costs.insert((u.b.0, u.a.0), u.new_cost);
            }
        }
        assert_eq!(finals.len(), links.len());
        for (s, d, c) in finals {
            assert_eq!(costs[&(s, d)], c);
        }
    }

    #[test]
    fn statements_always_change_the_cost() {
        let net = fourteen(9);
        let links = net.costed(whole_cost);
        let (statements, finals) = link_statements(&links, 200, 9);
        assert_eq!(statements.len(), 200);
        let mut costs: BTreeMap<(u32, u32), f64> =
            links.iter().map(|&(s, d, c)| ((s, d), c)).collect();
        for s in &statements {
            assert_ne!(costs[&(s.a, s.b)], s.cost);
            assert!((1.0..100.0).contains(&s.cost) && s.cost.fract() == 0.0);
            assert_eq!(
                s.text,
                format!(
                    "+link[(@n{0}, @n{1}, {2:.1}), (@n{1}, @n{0}, {2:.1})].",
                    s.a, s.b, s.cost
                )
            );
            costs.insert((s.a, s.b), s.cost);
            costs.insert((s.b, s.a), s.cost);
        }
        assert_eq!(finals, costs);
    }
}

//! Oracles the program's outputs are checked against. They share no code
//! with the engine: plain graph searches over the generated link lists.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

/// Adjacency lists of a directed link list over nodes `0..n`.
fn adjacency(n: usize, links: &[(u32, u32, f64)]) -> Vec<Vec<(usize, f64)>> {
    let mut adj = vec![Vec::new(); n];
    for &(s, d, c) in links {
        adj[s as usize].push((d as usize, c));
    }
    adj
}

/// Hop distance from `src` to every node (`None` when unreachable).
pub fn bfs_hops(n: usize, links: &[(u32, u32, f64)], src: u32) -> Vec<Option<u32>> {
    let adj = adjacency(n, links);
    let mut dist = vec![None; n];
    dist[src as usize] = Some(0);
    let mut queue = VecDeque::from([src as usize]);
    while let Some(u) = queue.pop_front() {
        let next = dist[u].expect("queued nodes have a distance") + 1;
        for &(v, _) in &adj[u] {
            if dist[v].is_none() {
                dist[v] = Some(next);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Least path cost from `src` to every node (infinite when unreachable).
pub fn dijkstra(n: usize, links: &[(u32, u32, f64)], src: u32) -> Vec<f64> {
    let adj = adjacency(n, links);
    let mut dist = vec![f64::INFINITY; n];
    dist[src as usize] = 0.0;
    // Costs are positive and finite, so their bit patterns order like the
    // numbers and can key the heap.
    let mut heap = BinaryHeap::from([Reverse((0u64, src as usize))]);
    while let Some(Reverse((bits, u))) = heap.pop() {
        let d = f64::from_bits(bits);
        if d > dist[u] {
            continue;
        }
        for &(v, c) in &adj[u] {
            let candidate = d + c;
            if candidate < dist[v] {
                dist[v] = candidate;
                heap.push(Reverse((candidate.to_bits(), v)));
            }
        }
    }
    dist
}

/// The least cost from `s` to `d` over one link or two, for every pair a
/// route of at most two hops joins — including `d == s` out and back over
/// a neighbour, which the hop-bounded distance-vector program derives too.
pub fn two_hop_best(links: &BTreeMap<(u32, u32), f64>) -> BTreeMap<(u32, u32), f64> {
    let mut out: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let mut offer = |key: (u32, u32), cost: f64| {
        let best = out.entry(key).or_insert(cost);
        if cost < *best {
            *best = cost;
        }
    };
    let mut from: BTreeMap<u32, Vec<(u32, f64)>> = BTreeMap::new();
    for (&(s, d), &c) in links {
        from.entry(s).or_default().push((d, c));
    }
    for (&(s, z), &c1) in links {
        offer((s, z), c1);
        for &(d, c2) in from.get(&z).map_or(&[][..], Vec::as_slice) {
            offer((s, d), c1 + c2);
        }
    }
    out
}

/// Replays a subscription's snapshot and delta stream. Per tuple the
/// stream must alternate strictly, starting with an insert; anything else
/// is a lost or duplicated delta.
#[derive(Debug, Default)]
pub struct StreamReplay {
    present: BTreeSet<String>,
    violations: usize,
}

impl StreamReplay {
    /// Apply one signed tuple as rendered on the wire (`+rel(..)` or
    /// `-rel(..)`).
    pub fn apply(&mut self, signed: &str) {
        let ok = match signed.split_at_checked(1) {
            Some(("+", tuple)) => self.present.insert(tuple.to_string()),
            Some(("-", tuple)) => self.present.remove(tuple),
            _ => false,
        };
        if !ok {
            self.violations += 1;
        }
    }

    pub fn violations(&self) -> usize {
        self.violations
    }

    pub fn tuples(&self) -> &BTreeSet<String> {
        &self.present
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hand-checked graph of these tests (both directions present):
    ///
    /// ```text
    ///   0 --1-- 1 --1-- 2
    ///   |               |
    ///   4               1
    ///   |               |
    ///   3 ------9------ 4
    /// ```
    fn five_nodes() -> Vec<(u32, u32, f64)> {
        let undirected = [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 3, 4.0),
            (2, 4, 1.0),
            (3, 4, 9.0),
        ];
        undirected
            .iter()
            .flat_map(|&(a, b, c)| [(a, b, c), (b, a, c)])
            .collect()
    }

    #[test]
    fn bfs_on_the_five_node_graph() {
        let links = five_nodes();
        let hops = bfs_hops(5, &links, 0);
        assert_eq!(hops, vec![Some(0), Some(1), Some(2), Some(1), Some(2)]);
        let hops = bfs_hops(5, &links, 4);
        assert_eq!(hops, vec![Some(2), Some(2), Some(1), Some(1), Some(0)]);
        // A node nothing points at is unreachable.
        let hops = bfs_hops(6, &links, 0);
        assert_eq!(hops[5], None);
    }

    #[test]
    fn dijkstra_on_the_five_node_graph() {
        let links = five_nodes();
        // 0 -> 4 goes 0-1-2-4 (3), not over the 9 link (13).
        assert_eq!(dijkstra(5, &links, 0), vec![0.0, 1.0, 2.0, 4.0, 3.0]);
        // 3 -> 4 goes 3-0-1-2-4 (7), cheaper than the direct 9.
        assert_eq!(dijkstra(5, &links, 3), vec![4.0, 5.0, 6.0, 0.0, 7.0]);
        assert!(dijkstra(6, &links, 0)[5].is_infinite());
    }

    #[test]
    fn two_hop_table_on_the_five_node_graph() {
        let links: BTreeMap<(u32, u32), f64> = five_nodes()
            .into_iter()
            .map(|(s, d, c)| ((s, d), c))
            .collect();
        let best = two_hop_best(&links);
        assert_eq!(best[&(0, 1)], 1.0);
        assert_eq!(best[&(0, 2)], 2.0);
        // 0 -> 4 in two hops only over 3: 4 + 9.
        assert_eq!(best[&(0, 4)], 13.0);
        // 3 -> 4: the direct link (9) beats nothing shorter within 2 hops.
        assert_eq!(best[&(3, 4)], 9.0);
        // Out and back over the cheapest neighbour.
        assert_eq!(best[&(0, 0)], 2.0);
        assert_eq!(best[&(3, 3)], 8.0);
        // 1 -> 3 needs 1-0-3; 1 -> 4 needs 1-2-4; 3 -> 2 is cheaper over
        // three hops (6) but only 3-4-2 fits the bound.
        assert_eq!(best[&(1, 3)], 5.0);
        assert_eq!(best[&(1, 4)], 2.0);
        assert_eq!(best[&(3, 2)], 10.0);
        // Every pair of this graph is within two hops; a sixth node that
        // only points inwards is a source but never a destination.
        let mut links = links;
        links.insert((5, 3), 1.0);
        let best = two_hop_best(&links);
        assert_eq!(best[&(5, 0)], 5.0);
        assert!(!best.contains_key(&(5, 2)));
        assert!(!best.contains_key(&(0, 5)));
    }

    #[test]
    fn stream_replay_demands_alternation() {
        let mut replay = StreamReplay::default();
        replay.apply("+r(1)");
        replay.apply("+r(2)");
        replay.apply("-r(1)");
        replay.apply("+r(1)");
        assert_eq!(replay.violations(), 0);
        assert_eq!(replay.tuples().len(), 2);
        replay.apply("+r(2)"); // duplicated insert
        replay.apply("-r(3)"); // retract of something never inserted
        replay.apply("r(4)"); // unsigned
        assert_eq!(replay.violations(), 3);
        assert_eq!(replay.tuples().len(), 2);
    }
}

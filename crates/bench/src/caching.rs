//! Query-result caching for Figure 11's magic path queries (Section 5.2).
//!
//! The paper caches `shortestPath` results at the nodes they traverse while
//! the answer is shipped back to the query source: a node `a` on the
//! shortest path from `e` to `d` learns (and caches) its own shortest path
//! to `d`, because subpaths of shortest paths are themselves shortest
//! paths. A later query for destination `d` whose exploration reaches `a`
//! is answered from `a`'s cache instead of being forwarded.
//!
//! The engine never caches. [`QueryCache`] is the harness's record of what
//! each node would hold, and Figure 11 models a cache hit by not loading
//! the outgoing `link` facts of the nodes holding an entry for the
//! destination. That is exact for the source-routing program: `sd1` and
//! `sd2` are its only rules whose head lives at another node, and both
//! join `#link(@X, …)` at the node X that ships, so a node without
//! outgoing links forwards no exploration — what a node answering from its
//! cache forwards — while it still receives and stores the explorations
//! that reach it.
//!
//! As in the paper, cache hits may be **false positives**: the cached path
//! through `a` is the best path *through `a`*, not necessarily the best
//! path overall, which is why Figure 11 shows caching overhead for small
//! query counts.

use ndlog_net::NodeAddr;
use std::collections::{BTreeMap, BTreeSet};

/// The distributed query-result cache: one logical cache per node, kept
/// by the harness.
#[derive(Debug, Default)]
pub struct QueryCache {
    /// (node, destination) -> the path from that node to the destination,
    /// both endpoints included.
    entries: BTreeMap<(NodeAddr, NodeAddr), Vec<NodeAddr>>,
}

impl QueryCache {
    /// Record a completed hop-count query result, source first and
    /// destination last: every node along the path caches its suffix,
    /// keyed by the destination, unless it already holds one at most as
    /// long.
    pub fn record(&mut self, path: &[NodeAddr]) {
        let Some(&dst) = path.last() else {
            return;
        };
        for (i, &node) in path.iter().enumerate().take(path.len() - 1) {
            let suffix = &path[i..];
            match self.entries.get(&(node, dst)) {
                Some(existing) if existing.len() <= suffix.len() => {}
                _ => {
                    self.entries.insert((node, dst), suffix.to_vec());
                }
            }
        }
    }

    /// The path `node` has cached towards `dst`, both endpoints included.
    pub fn lookup(&self, node: NodeAddr, dst: NodeAddr) -> Option<&[NodeAddr]> {
        self.entries.get(&(node, dst)).map(Vec::as_slice)
    }

    /// The nodes that hold a cache entry for `dst`: the nodes at which an
    /// exploration for `dst` stops.
    pub fn nodes_with_entry_for(&self, dst: NodeAddr) -> BTreeSet<NodeAddr> {
        self.entries
            .keys()
            .filter(|(_, d)| *d == dst)
            .map(|(n, _)| *n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeAddr {
        NodeAddr(i)
    }

    #[test]
    fn record_caches_every_suffix() {
        let mut cache = QueryCache::default();
        cache.record(&[n(0), n(1), n(2), n(3)]);
        assert_eq!(
            cache.lookup(n(1), n(3)),
            Some([n(1), n(2), n(3)].as_slice())
        );
        assert_eq!(cache.lookup(n(0), n(3)).unwrap().len(), 4);
        assert!(
            cache.lookup(n(3), n(3)).is_none(),
            "destination itself is not cached"
        );
        assert_eq!(cache.nodes_with_entry_for(n(3)).len(), 3);
        assert!(cache.nodes_with_entry_for(n(2)).is_empty());
    }

    #[test]
    fn shorter_entries_replace_longer_ones() {
        let mut cache = QueryCache::default();
        cache.record(&[n(0), n(1), n(2), n(3)]);
        cache.record(&[n(0), n(4), n(3)]);
        assert_eq!(cache.lookup(n(0), n(3)).unwrap(), [n(0), n(4), n(3)]);
        // A longer later result does not overwrite.
        cache.record(&[n(0), n(5), n(6), n(7), n(3)]);
        assert_eq!(cache.lookup(n(0), n(3)).unwrap(), [n(0), n(4), n(3)]);
    }

    #[test]
    fn paths_without_a_hop_are_ignored() {
        let mut cache = QueryCache::default();
        cache.record(&[]);
        cache.record(&[n(0)]);
        assert!(cache.nodes_with_entry_for(n(0)).is_empty());
    }
}

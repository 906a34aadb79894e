//! Opportunistic message sharing (Section 5.2).
//!
//! When several queries run concurrently (e.g. shortest paths under
//! different metrics), the tuples they send are often identical except for
//! the metric attribute. If a node delays its outbound tuples briefly, the
//! engine can join tuples headed for the same destination that share all
//! attribute values except one into a single combined message, and the
//! receiver re-partitions them. The saving is the shared prefix, which for
//! path tuples (source, destination, next hop, path vector) dominates the
//! message size.
//!
//! This module implements the byte accounting of that combination: given
//! the batch of deltas a node flushes towards one neighbor, it computes the
//! size of the combined encoding. The actual payload delivered to the
//! receiver is unchanged (the receiver conceptually re-partitions), so
//! correctness is unaffected — only the bytes on the wire differ, which is
//! what Figure 12 measures.
//!
//! This module is the **single** wire-size implementation: the epoch
//! executor's `OutboundBatch` pre-sizing
//! ([`crate::exec::executor::outbound_batches`]) calls
//! [`plain_wire_size`]/[`combined_wire_size`].

use ndlog_lang::Value;
use ndlog_runtime::TupleDelta;
use std::collections::BTreeMap;

/// Extra bytes per combined tuple (sign + bookkeeping).
const PER_TUPLE_OVERHEAD: usize = 1;

/// Size in bytes of the batch without any sharing: each delta is encoded
/// independently.
pub fn plain_wire_size(deltas: &[TupleDelta]) -> usize {
    deltas.iter().map(TupleDelta::wire_size).sum()
}

/// Size in bytes of the batch when tuples that agree on every attribute
/// except the last are combined into one message (the shared prefix is
/// encoded once; each member contributes its relation name and final
/// attribute).
pub fn combined_wire_size(deltas: &[TupleDelta]) -> usize {
    // Group by the tuple values with the final column removed; the sign is
    // part of the key so insertions and deletions are never merged.
    let mut groups: BTreeMap<(Vec<Value>, bool), Vec<&TupleDelta>> = BTreeMap::new();
    let mut singletons = 0usize;
    for delta in deltas {
        let values = delta.tuple.values();
        if values.len() < 2 {
            singletons += delta.wire_size();
            continue;
        }
        let prefix: Vec<Value> = values[..values.len() - 1].to_vec();
        let key = (prefix, delta.sign == ndlog_runtime::Sign::Insert);
        groups.entry(key).or_default().push(delta);
    }
    let mut total = singletons;
    for ((prefix, _), members) in groups {
        let prefix_size = 2 + prefix.iter().map(Value::wire_size).sum::<usize>();
        total += prefix_size;
        for member in members {
            let last = member
                .tuple
                .values()
                .last()
                .map(Value::wire_size)
                .unwrap_or(0);
            total += member.relation.len() + last + PER_TUPLE_OVERHEAD;
        }
    }
    total
}

/// Wire bytes of shipping one tuple delta as its own message over a link,
/// header included — the sizing result-return accounting uses, so harness
/// formulas cannot drift from the engine's per-delta encoding.
pub fn result_wire_bytes(delta: &TupleDelta, header_bytes: usize) -> usize {
    plain_wire_size(std::slice::from_ref(delta)) + header_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_runtime::Tuple;

    fn path_delta(relation: &str, cost: f64) -> TupleDelta {
        TupleDelta::insert(
            relation,
            Tuple::new(vec![
                Value::addr(0u32),
                Value::addr(9u32),
                Value::addr(3u32),
                Value::list(vec![
                    Value::addr(0u32),
                    Value::addr(3u32),
                    Value::addr(9u32),
                ]),
                Value::Float(cost),
            ]),
        )
    }

    #[test]
    fn identical_prefixes_share_bytes() {
        let deltas = vec![
            path_delta("path_latency", 12.0),
            path_delta("path_reliability", 3.0),
            path_delta("path_random", 77.0),
        ];
        let plain = plain_wire_size(&deltas);
        let combined = combined_wire_size(&deltas);
        // The shared prefix (two addresses + next hop + 3-element path
        // vector) is paid once instead of three times.
        assert!(
            plain - combined > plain / 3,
            "combined {combined} vs plain {plain}"
        );
    }

    #[test]
    fn unrelated_tuples_do_not_combine() {
        let a = path_delta("path_latency", 12.0);
        let different = TupleDelta::insert(
            "path_latency",
            Tuple::new(vec![
                Value::addr(1u32),
                Value::addr(8u32),
                Value::addr(2u32),
                Value::list(vec![
                    Value::addr(1u32),
                    Value::addr(2u32),
                    Value::addr(8u32),
                ]),
                Value::Float(5.0),
            ]),
        );
        let deltas = vec![a, different];
        // Different prefixes: combined encoding still pays both prefixes, so
        // the saving is at most the per-delta fixed overhead.
        assert!(combined_wire_size(&deltas) + 10 >= plain_wire_size(&deltas));
    }

    #[test]
    fn inserts_and_deletes_never_merge() {
        let ins = path_delta("path_latency", 12.0);
        let mut del = path_delta("path_latency", 12.0);
        del.sign = ndlog_runtime::Sign::Delete;
        let combined = combined_wire_size(&[ins.clone(), del.clone()]);
        // Both carry their own prefix.
        assert!(combined > ins.wire_size());
    }

    #[test]
    fn outbound_batches_are_sized_by_the_sharing_mode() {
        use crate::exec::executor::outbound_batches;
        use ndlog_net::NodeAddr;

        let deltas = vec![
            path_delta("path_latency", 12.0),
            path_delta("path_reliability", 3.0),
        ];
        let mut outbound = BTreeMap::new();
        outbound.insert(NodeAddr(3), deltas.clone());

        // Sized with sharing the payload is the combined encoding, and
        // without it the plain one.
        let shared = outbound_batches(true, outbound.clone());
        assert_eq!(shared[0].payload_bytes, combined_wire_size(&deltas));
        let plain = outbound_batches(false, outbound);
        assert_eq!(plain[0].payload_bytes, plain_wire_size(&deltas));
    }

    #[test]
    fn result_wire_bytes_matches_per_delta_encoding() {
        let delta = path_delta("shortestPath", 4.0);
        assert_eq!(
            result_wire_bytes(&delta, 28),
            delta.wire_size() + 28,
            "one delta alone encodes plainly plus the message header"
        );
    }

    #[test]
    fn single_and_tiny_tuples_are_unaffected() {
        let single = vec![path_delta("p", 1.0)];
        assert!(combined_wire_size(&single) <= plain_wire_size(&single));
        let tiny = vec![TupleDelta::insert("t", Tuple::new(vec![Value::Int(1)]))];
        assert_eq!(combined_wire_size(&tiny), plain_wire_size(&tiny));
        let empty: Vec<TupleDelta> = Vec::new();
        assert_eq!(combined_wire_size(&empty), 0);
        assert_eq!(plain_wire_size(&empty), 0);
    }
}

//! Communication statistics.
//!
//! The paper's evaluation reports two families of metrics (Section 6):
//!
//! * **Communication overhead** — aggregate bytes transferred (MB) and
//!   per-node bandwidth over time (kBps),
//! * **Convergence time** — the time until all query results are produced.
//!
//! [`NetStats`] accumulates per-send records and produces both: a
//! [`BandwidthSeries`] of per-node kBps bucketed over time, and aggregate
//! totals. Convergence bookkeeping (when each result first became final) is
//! kept by the engine; this module only deals with traffic.

use crate::address::NodeAddr;
use crate::sim::SimTime;
use serde::{Deserialize, Serialize};

/// A time series of average per-node bandwidth, in kilobytes per second.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthSeries {
    /// Width of each bucket in seconds.
    pub bucket_seconds: f64,
    /// `points[i]` is the average per-node bandwidth (kBps) during bucket
    /// `i`, i.e. the interval `[i * bucket_seconds, (i+1) * bucket_seconds)`.
    pub points: Vec<f64>,
}

impl BandwidthSeries {
    /// The peak bucket value (0 for an empty series).
    pub fn peak(&self) -> f64 {
        self.points.iter().copied().fold(0.0, f64::max)
    }
}

/// Accumulated traffic statistics for a simulation run.
///
/// `PartialEq` compares the full per-send trace (time, sender and bytes of
/// every message, in send order), which is how the determinism tests prove
/// a parallel epoch run produced a byte-identical message trace to the
/// sequential engine. The fault counters (drops, duplicates, reorders)
/// participate in the comparison too, so fault-injected runs are
/// fingerprintable exactly like reliable ones.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetStats {
    sends: Vec<SendRecord>,
    total_bytes: u64,
    #[serde(default)]
    dropped: u64,
    #[serde(default)]
    duplicated: u64,
    #[serde(default)]
    reordered: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct SendRecord {
    time: SimTime,
    /// Sending node; recorded for per-node breakdowns even though the
    /// current reports only aggregate over time.
    #[allow(dead_code)]
    node: NodeAddr,
    bytes: u64,
}

impl NetStats {
    /// Create empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `node` put `bytes` on the wire at `time`.
    pub fn record_send(&mut self, time: SimTime, node: NodeAddr, bytes: usize) {
        self.total_bytes += bytes as u64;
        self.sends.push(SendRecord {
            time,
            node,
            bytes: bytes as u64,
        });
    }

    /// Record a message dropped in flight (fault injection: loss,
    /// partition cut or crashed receiver).
    pub fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Record an extra in-flight copy created by a duplication fault.
    pub fn record_duplicate(&mut self) {
        self.duplicated += 1;
    }

    /// Record a delivery whose jittered arrival had to be clamped by the
    /// per-link FIFO clock (it would otherwise have overtaken an earlier
    /// message).
    pub fn record_reorder(&mut self) {
        self.reordered += 1;
    }

    /// Messages dropped in flight by fault injection.
    pub fn drops(&self) -> u64 {
        self.dropped
    }

    /// Extra copies created by duplication faults.
    pub fn duplicates(&self) -> u64 {
        self.duplicated
    }

    /// Jittered deliveries clamped by the FIFO link clock.
    #[cfg(test)]
    fn reorders(&self) -> u64 {
        self.reordered
    }

    /// Total bytes sent by all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total megabytes sent by all nodes (the unit of Figure 11).
    pub fn total_mb(&self) -> f64 {
        self.total_bytes as f64 / 1_000_000.0
    }

    /// Number of messages sent.
    pub fn message_count(&self) -> usize {
        self.sends.len()
    }

    /// Average per-node bandwidth over time, in kBps, for `node_count`
    /// nodes, bucketed into `bucket_seconds`-wide bins (the series shown in
    /// Figures 7, 9, 12, 13 and 14 of the paper).
    pub fn per_node_bandwidth_kbps(
        &self,
        node_count: usize,
        bucket_seconds: f64,
    ) -> BandwidthSeries {
        assert!(node_count > 0, "node_count must be positive");
        assert!(bucket_seconds > 0.0, "bucket width must be positive");
        let mut buckets: Vec<f64> = Vec::new();
        for s in &self.sends {
            let t = crate::sim::to_seconds(s.time);
            let idx = (t / bucket_seconds).floor() as usize;
            if idx >= buckets.len() {
                buckets.resize(idx + 1, 0.0);
            }
            buckets[idx] += s.bytes as f64;
        }
        let scale = 1.0 / (node_count as f64 * bucket_seconds * 1000.0);
        for b in &mut buckets {
            *b *= scale;
        }
        BandwidthSeries {
            bucket_seconds,
            points: buckets,
        }
    }

    /// Total megabytes sent within a time window `[start_s, end_s)` seconds.
    pub fn mb_in_window(&self, start_s: f64, end_s: f64) -> f64 {
        self.sends
            .iter()
            .filter(|s| {
                let t = crate::sim::to_seconds(s.time);
                t >= start_s && t < end_s
            })
            .map(|s| s.bytes as f64)
            .sum::<f64>()
            / 1_000_000.0
    }

    /// Merge another statistics object into this one (used when several
    /// queries run in separate simulations and their traffic is summed,
    /// e.g. the No-Share line of Figure 12).
    pub fn merge(&mut self, other: &NetStats) {
        self.total_bytes += other.total_bytes;
        self.sends.extend_from_slice(&other.sends);
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ms;

    #[test]
    fn totals_accumulate() {
        let mut s = NetStats::new();
        s.record_send(ms(0.0), NodeAddr(0), 500);
        s.record_send(ms(10.0), NodeAddr(1), 1500);
        assert_eq!(s.total_bytes(), 2000);
        assert_eq!(s.message_count(), 2);
        assert!((s.total_mb() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_series_buckets_and_scales() {
        let mut s = NetStats::new();
        // 2 nodes, 1-second buckets. 10_000 bytes in bucket 0, 20_000 in bucket 2.
        s.record_send(ms(100.0), NodeAddr(0), 10_000);
        s.record_send(ms(2500.0), NodeAddr(1), 20_000);
        let series = s.per_node_bandwidth_kbps(2, 1.0);
        assert_eq!(series.points.len(), 3);
        // bucket 0: 10_000 bytes / (2 nodes * 1 s * 1000) = 5 kBps
        assert!((series.points[0] - 5.0).abs() < 1e-9);
        assert_eq!(series.points[1], 0.0);
        assert!((series.points[2] - 10.0).abs() < 1e-9);
        assert!((series.peak() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn window_sums() {
        let mut s = NetStats::new();
        s.record_send(ms(500.0), NodeAddr(0), 1_000_000);
        s.record_send(ms(1500.0), NodeAddr(0), 2_000_000);
        assert!((s.mb_in_window(0.0, 1.0) - 1.0).abs() < 1e-9);
        assert!((s.mb_in_window(1.0, 2.0) - 2.0).abs() < 1e-9);
        assert!((s.mb_in_window(0.0, 10.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_runs() {
        let mut a = NetStats::new();
        a.record_send(ms(0.0), NodeAddr(0), 100);
        let mut b = NetStats::new();
        b.record_send(ms(0.0), NodeAddr(0), 50);
        b.record_send(ms(5.0), NodeAddr(1), 25);
        a.merge(&b);
        assert_eq!(a.total_bytes(), 175);
        assert_eq!(a.message_count(), 3);
    }

    #[test]
    fn fault_counters_participate_in_equality_and_merge() {
        let mut a = NetStats::new();
        let mut b = NetStats::new();
        assert_eq!(a, b);
        a.record_drop();
        a.record_duplicate();
        a.record_reorder();
        assert_ne!(a, b, "fault counters must fingerprint the trace");
        b.record_drop();
        b.record_duplicate();
        b.record_reorder();
        assert_eq!(a, b);
        a.merge(&b);
        assert_eq!(a.drops(), 2);
        assert_eq!(a.duplicates(), 2);
        assert_eq!(a.reorders(), 2);
    }

    #[test]
    #[should_panic(expected = "node_count must be positive")]
    fn bandwidth_rejects_zero_nodes() {
        NetStats::new().per_node_bandwidth_kbps(0, 1.0);
    }
}

//! Deterministic fault injection for the simulator.
//!
//! The paper's robustness story (Section 4.2) is that declarative networks
//! built on soft state absorb loss, churn and failure: lost messages are
//! repaired by the next periodic refresh, and crashed nodes repopulate
//! their state on rejoin. To exercise that story the simulator accepts a
//! [`FaultPlan`]: per-link loss probability, delay jitter, duplication,
//! scheduled partitions and node crash/rejoin waves.
//!
//! # Determinism contract
//!
//! Every *random* fault decision (drop? how much jitter? duplicate?) is
//! drawn from a fresh generator seeded by hashing the plan seed with the
//! `(time, seq, link)` key of the message being sent — not from a shared
//! stream. Two consequences:
//!
//! * **Replayable**: the same plan over the same run produces the same
//!   faults, bit for bit.
//! * **Thread-count invariant**: the parallel epoch executor replays sends
//!   serially in `(time, seq)` order (see `ndlog_core::exec`), so the key
//!   — and therefore every fault decision — is identical at 1, 2 or 4
//!   worker threads. A shared stream would instead depend on the order
//!   decisions were *computed*, which parallel execution does not fix.
//!
//! Partitions and crash windows are scheduled (non-random) and simply
//! compared against simulation time, so they are trivially deterministic.

use crate::address::NodeAddr;
use crate::sim::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Random fault parameters, applied to every link as
/// [`FaultPlan::default_faults`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkFaults {
    /// Probability in `[0, 1]` that a message is dropped in flight.
    pub loss: f64,
    /// Probability in `[0, 1]` that a delivered message arrives twice.
    pub duplicate: f64,
    /// Maximum extra delivery delay in milliseconds; each delivered
    /// message draws uniformly from `[0, jitter_ms)`. Jitter only ever
    /// *adds* delay, so the epoch executor's conservative lookahead bound
    /// (the minimum link propagation delay) remains safe.
    pub jitter_ms: f64,
}

impl LinkFaults {
    /// No faults at all.
    pub const NONE: LinkFaults = LinkFaults {
        loss: 0.0,
        duplicate: 0.0,
        jitter_ms: 0.0,
    };

    /// Whether this configuration injects nothing.
    pub fn is_none(&self) -> bool {
        self.loss == 0.0 && self.duplicate == 0.0 && self.jitter_ms == 0.0
    }

    fn validate(&self, what: &str) -> Result<(), String> {
        for (name, p) in [("loss", self.loss), ("duplicate", self.duplicate)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{what}: {name} probability {p} not in [0, 1]"));
            }
        }
        if !self.jitter_ms.is_finite() || self.jitter_ms < 0.0 {
            return Err(format!("{what}: jitter {} ms is negative", self.jitter_ms));
        }
        Ok(())
    }
}

/// A scheduled network partition: during `[start, end)` every message
/// crossing the cut between `side_a` and its complement is dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// When the partition begins.
    pub start: SimTime,
    /// When the partition heals (exclusive).
    pub end: SimTime,
    /// One side of the cut; every node not listed is on the other side.
    pub side_a: BTreeSet<NodeAddr>,
}

impl Partition {
    /// Whether a message sent at `now` from `from` to `to` crosses the cut
    /// while the partition is active.
    fn blocks(&self, now: SimTime, from: NodeAddr, to: NodeAddr) -> bool {
        now >= self.start
            && now < self.end
            && (self.side_a.contains(&from) != self.side_a.contains(&to))
    }
}

/// A scheduled node crash and its mandatory rejoin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Crash {
    /// The node that crashes.
    pub node: NodeAddr,
    /// When it crashes (loses all soft state; deliveries are dropped).
    pub at: SimTime,
    /// When it rejoins, empty-handed, and starts repopulating from
    /// refreshes. Must be strictly after `at`.
    pub rejoin_at: SimTime,
}

impl Crash {
    /// Whether the node is down at time `t`.
    fn down_at(&self, t: SimTime) -> bool {
        t >= self.at && t < self.rejoin_at
    }
}

/// A complete, validated fault schedule for a simulation run.
///
/// Construct with [`FaultPlan::new`] and the `with_*` builders, then attach
/// via `Simulator::set_fault_plan` (which validates). Random faults
/// (loss/jitter/duplication) apply only while `now < active_until`, so a
/// run always has a fault-free tail in which refresh cycles can finish
/// healing and the convergence oracle can be checked. Partitions and
/// crashes apply exactly in their scheduled windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed hashed into every per-message fault decision.
    pub seed: u64,
    /// Faults applied to every link.
    pub default_faults: LinkFaults,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled crash/rejoin windows.
    pub crashes: Vec<Crash>,
    /// Random faults stop at this time (exclusive); scheduled windows are
    /// unaffected.
    pub active_until: SimTime,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_faults: LinkFaults::NONE,
            partitions: Vec::new(),
            crashes: Vec::new(),
            active_until: SimTime::MAX,
        }
    }

    /// Set the random faults every link draws from.
    pub fn with_default_faults(mut self, faults: LinkFaults) -> Self {
        self.default_faults = faults;
        self
    }

    /// Add a scheduled partition cutting `side_a` from everything else
    /// during `[start, end)`.
    pub fn with_partition(
        mut self,
        start: SimTime,
        end: SimTime,
        side_a: impl IntoIterator<Item = NodeAddr>,
    ) -> Self {
        self.partitions.push(Partition {
            start,
            end,
            side_a: side_a.into_iter().collect(),
        });
        self
    }

    /// Add a crash/rejoin window for a node.
    pub fn with_crash(mut self, node: NodeAddr, at: SimTime, rejoin_at: SimTime) -> Self {
        self.crashes.push(Crash {
            node,
            at,
            rejoin_at,
        });
        self
    }

    /// Stop drawing random faults at `t` (scheduled windows still apply).
    pub fn with_active_until(mut self, t: SimTime) -> Self {
        self.active_until = t;
        self
    }

    /// Check the plan for internal consistency: probabilities in range,
    /// partition windows non-empty, and — the soft-state contract — every
    /// crash must rejoin (a node that never comes back would leave the
    /// surviving topology ill-defined for the convergence oracle).
    pub fn validate(&self) -> Result<(), String> {
        self.default_faults.validate("default faults")?;
        for p in &self.partitions {
            if p.start >= p.end {
                return Err(format!(
                    "partition window [{}, {}) is empty",
                    p.start, p.end
                ));
            }
        }
        for c in &self.crashes {
            if c.rejoin_at <= c.at {
                return Err(format!(
                    "node {} crashes at {} but never rejoins (rejoin_at {})",
                    c.node, c.at, c.rejoin_at
                ));
            }
        }
        Ok(())
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.default_faults.is_none() && self.partitions.is_empty() && self.crashes.is_empty()
    }

    /// Whether `node` is inside any crash window at time `t`.
    pub fn node_down_at(&self, node: NodeAddr, t: SimTime) -> bool {
        self.crashes.iter().any(|c| c.node == node && c.down_at(t))
    }

    /// Whether any active partition cuts the `from -> to` link at `now`.
    pub fn partition_blocks(&self, now: SimTime, from: NodeAddr, to: NodeAddr) -> bool {
        self.partitions.iter().any(|p| p.blocks(now, from, to))
    }

    /// Number of partitions whose window has fully elapsed by `now`.
    pub fn partitions_healed_by(&self, now: SimTime) -> u64 {
        self.partitions.iter().filter(|p| p.end <= now).count() as u64
    }

    /// The per-message decision generator, keyed by `(time, seq, link)`
    /// and the plan seed. Independent of any shared stream — see the
    /// module docs for why this is what makes fault runs thread-count
    /// invariant.
    pub fn decision_rng(&self, time: SimTime, seq: u64, from: NodeAddr, to: NodeAddr) -> StdRng {
        StdRng::seed_from_u64(mix(self.seed, time, seq, from.0 as u64, to.0 as u64))
    }
}

/// Hash the decision key into a 64-bit seed (a SplitMix64-style finalizer
/// folded over the key components).
fn mix(seed: u64, time: u64, seq: u64, from: u64, to: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for v in [time, seq, from, to] {
        h ^= v.wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(31);
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 29;
    }
    h
}

/// Counts of injected faults: the simulator's only fault ledger, kept
/// apart from the traffic [`crate::NetStats`] records. The simulator fills
/// it as it sends; the engine's fault report adds the healing side
/// (refresh repairs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Messages dropped for any reason (loss, partition or crash window).
    pub dropped: u64,
    /// Of `dropped`: random loss draws.
    pub loss_drops: u64,
    /// Of `dropped`: messages cut by an active partition.
    pub partition_drops: u64,
    /// Of `dropped`: messages whose receiver was down on arrival.
    pub crash_drops: u64,
    /// Extra copies delivered by duplication draws.
    pub duplicated: u64,
    /// Messages that drew nonzero jitter.
    pub delayed: u64,
    /// Of `delayed`: messages whose jittered arrival the per-link FIFO
    /// clock clamped, because they would have overtaken an earlier one.
    pub reordered: u64,
    /// Partitions whose scheduled window has fully elapsed.
    pub partitions_healed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeAddr {
        NodeAddr(i)
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_empty());
        plan.validate().unwrap();
        assert!(plan.default_faults.is_none());
        assert!(!plan.node_down_at(n(0), 0));
        assert!(!plan.partition_blocks(0, n(0), n(1)));
    }

    #[test]
    fn partitions_cut_only_crossing_messages_in_window() {
        let plan = FaultPlan::new(1).with_partition(100, 200, [n(0), n(1)]);
        // Crossing, in window.
        assert!(plan.partition_blocks(100, n(0), n(2)));
        assert!(plan.partition_blocks(199, n(2), n(1)));
        // Same side.
        assert!(!plan.partition_blocks(150, n(0), n(1)));
        assert!(!plan.partition_blocks(150, n(2), n(3)));
        // Out of window (end is exclusive).
        assert!(!plan.partition_blocks(99, n(0), n(2)));
        assert!(!plan.partition_blocks(200, n(0), n(2)));
        assert_eq!(plan.partitions_healed_by(199), 0);
        assert_eq!(plan.partitions_healed_by(200), 1);
    }

    #[test]
    fn crash_windows_are_half_open() {
        let plan = FaultPlan::new(1).with_crash(n(3), 50, 80);
        assert!(!plan.node_down_at(n(3), 49));
        assert!(plan.node_down_at(n(3), 50));
        assert!(plan.node_down_at(n(3), 79));
        assert!(!plan.node_down_at(n(3), 80));
        assert!(!plan.node_down_at(n(2), 60));
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert!(FaultPlan::new(1)
            .with_default_faults(LinkFaults {
                loss: 1.5,
                ..LinkFaults::NONE
            })
            .validate()
            .is_err());
        assert!(FaultPlan::new(1)
            .with_partition(10, 10, [n(0)])
            .validate()
            .is_err());
        // A crash that never rejoins is invalid: soft state can only heal
        // nodes that come back.
        assert!(FaultPlan::new(1).with_crash(n(0), 5, 5).validate().is_err());
        FaultPlan::new(1)
            .with_crash(n(0), 5, 6)
            .with_partition(10, 11, [n(0)])
            .validate()
            .unwrap();
    }

    #[test]
    fn decision_rng_is_keyed_not_streamed() {
        use rand::Rng;
        let plan = FaultPlan::new(42);
        let draw = |time, seq, from, to| plan.decision_rng(time, seq, n(from), n(to)).next_u64();
        // Same key, same draw — regardless of how many other draws happened.
        assert_eq!(draw(10, 3, 0, 1), draw(10, 3, 0, 1));
        // Any component changing changes the draw.
        assert_ne!(draw(10, 3, 0, 1), draw(11, 3, 0, 1));
        assert_ne!(draw(10, 3, 0, 1), draw(10, 4, 0, 1));
        assert_ne!(draw(10, 3, 0, 1), draw(10, 3, 1, 0));
        // And a different plan seed shifts everything.
        let other = FaultPlan::new(43);
        assert_ne!(
            draw(10, 3, 0, 1),
            other.decision_rng(10, 3, n(0), n(1)).next_u64()
        );
    }
}

//! A deterministic discrete-event network simulator.
//!
//! The simulator plays the role of the Emulab testbed in the paper's
//! evaluation. It models:
//!
//! * per-link propagation latency (from [`LinkMetrics::latency_ms`]),
//! * per-link transmission delay (`bytes * 8 / bandwidth`),
//! * **FIFO delivery per directed link** — the precondition of Theorem 4
//!   (distributed eventual consistency), always on,
//! * timers, used by the engine for periodic aggregate-selection flushes,
//!   message-sharing delays, soft-state refresh and update bursts.
//!
//! The simulator is a passive priority queue of events: the driver (the
//! distributed engine in `ndlog-core`) schedules messages and timers and
//! pops events in timestamp order. Time is in integer microseconds, so
//! event ordering is exact and runs are reproducible.
//!
//! [`LinkMetrics::latency_ms`]: crate::topology::LinkMetrics::latency_ms

use crate::address::NodeAddr;
use crate::fault::{FaultPlan, FaultStats};
use crate::message::Message;
use crate::stats::NetStats;
use crate::topology::Topology;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Simulation time in microseconds since the start of the run.
pub type SimTime = u64;

/// Convert milliseconds to [`SimTime`] microseconds.
pub fn ms(milliseconds: f64) -> SimTime {
    (milliseconds * 1000.0).round() as SimTime
}

/// Convert a [`SimTime`] to seconds (for reporting).
pub fn to_seconds(t: SimTime) -> f64 {
    t as f64 / 1_000_000.0
}

/// What a popped event contains.
#[derive(Debug, Clone)]
pub enum EventKind<P> {
    /// A message arriving at `message.to`.
    Delivery(Message<P>),
    /// A timer registered by the driver firing at a node. The `token`
    /// disambiguates different timer purposes.
    Timer { node: NodeAddr, token: u64 },
}

/// An event drained as part of an epoch, carrying its queue sequence
/// number. `(time, seq)` is a unique, totally ordered key that reproduces
/// exactly the order popping the queue one event at a time would yield —
/// parallel drivers use it to merge concurrently computed effects back
/// into the sequential order (see `ndlog_core::exec`).
#[derive(Debug, Clone)]
pub struct TimedEvent<P> {
    /// The time at which the event occurs.
    pub time: SimTime,
    /// The simulator-wide sequence number assigned when the event was
    /// scheduled (the tie-breaker for events sharing a timestamp).
    pub seq: u64,
    /// The event itself.
    pub kind: EventKind<P>,
}

/// Configuration of the simulator. Links are always FIFO per direction
/// (the precondition of Theorem 4), and a message between nodes that are
/// not linked in the overlay panics: link-restricted NDlog programs never
/// send one, so catching it is a correctness check on the engine.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Fixed per-message protocol overhead in bytes (headers), added to the
    /// payload size for both delay and bandwidth accounting.
    pub header_bytes: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { header_bytes: 28 }
    }
}

#[derive(Debug)]
struct QueuedEvent<P> {
    time: SimTime,
    seq: u64,
    kind: EventKind<P>,
}

impl<P> PartialEq for QueuedEvent<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<P> Eq for QueuedEvent<P> {}
impl<P> PartialOrd for QueuedEvent<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for QueuedEvent<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The discrete-event simulator.
///
/// `P` is the message payload type (the engine uses a batch of tuple
/// deltas).
pub struct Simulator<P> {
    config: SimConfig,
    topology: Topology,
    queue: BinaryHeap<Reverse<QueuedEvent<P>>>,
    /// Earliest time the next message on a directed link may arrive, used to
    /// enforce FIFO.
    link_clock: HashMap<(NodeAddr, NodeAddr), SimTime>,
    now: SimTime,
    seq: u64,
    stats: NetStats,
    fault: Option<FaultPlan>,
    fault_stats: FaultStats,
}

impl<P: Clone> Simulator<P> {
    /// Create a simulator over an overlay/underlay graph. Message latency is
    /// taken from `topology`'s link metrics.
    pub fn new(topology: Topology, config: SimConfig) -> Self {
        Simulator {
            config,
            topology,
            queue: BinaryHeap::new(),
            link_clock: HashMap::new(),
            now: 0,
            seq: 0,
            stats: NetStats::new(),
            fault: None,
            fault_stats: FaultStats::default(),
        }
    }

    /// Attach a fault plan (validated), replacing any existing one. Fault
    /// decisions are drawn per message from the plan's `(time, seq, link)`
    /// keyed generator — see [`crate::fault`] for the determinism
    /// contract.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), String> {
        plan.validate()?;
        self.fault = Some(plan);
        Ok(())
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Injection counters so far, with `partitions_healed` computed from
    /// the current simulation time.
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = self.fault_stats;
        if let Some(plan) = &self.fault {
            stats.partitions_healed = plan.partitions_healed_by(self.now);
        }
        stats
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The graph messages travel over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The payloads of the messages in flight, in no particular order.
    pub fn payloads_in_flight(&self) -> impl Iterator<Item = &P> {
        self.queue
            .iter()
            .filter_map(|Reverse(event)| match &event.kind {
                EventKind::Delivery(message) => Some(&message.payload),
                EventKind::Timer { .. } => None,
            })
    }

    fn push(&mut self, time: SimTime, kind: EventKind<P>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent { time, seq, kind }));
    }

    /// Send a message from `message.from` to `message.to` at the current
    /// simulation time. Returns the scheduled delivery time, or `None` if
    /// the attached fault plan dropped the message (loss draw, active
    /// partition, or receiver down on arrival). Dropped messages still
    /// appear in the send trace: the sender paid for the bytes, and the
    /// trace must stay identical across thread counts. Panics when `from`
    /// and `to` are not linked.
    pub fn send(&mut self, message: Message<P>) -> Option<SimTime> {
        let Message {
            from, to, bytes, ..
        } = message;
        let wire_bytes = bytes + self.config.header_bytes;
        let Some(metrics) = self.topology.link(from, to).copied() else {
            panic!(
                "message sent over non-existent link {from} -> {to}: \
                 link-restriction violated by the engine"
            );
        };
        let propagation = ms(metrics.latency_ms);
        let transmission =
            ((wire_bytes as f64 * 8.0 / metrics.bandwidth_bps) * 1_000_000.0).round() as SimTime;

        // Fault decisions. `send` runs on the serial replay path even under
        // the parallel epoch executor, and the generator is keyed by
        // `(time, seq, link)`, so every draw is thread-count invariant.
        let mut jitter: SimTime = 0;
        let mut duplicate = false;
        if let Some(plan) = &self.fault {
            if plan.partition_blocks(self.now, from, to) {
                self.stats.record_send(self.now, from, wire_bytes);
                self.fault_stats.dropped += 1;
                self.fault_stats.partition_drops += 1;
                return None;
            }
            if self.now < plan.active_until {
                let faults = plan.default_faults;
                if !faults.is_none() {
                    let mut rng = plan.decision_rng(self.now, self.seq, from, to);
                    if faults.loss > 0.0 && rng.random_bool(faults.loss) {
                        self.stats.record_send(self.now, from, wire_bytes);
                        self.fault_stats.dropped += 1;
                        self.fault_stats.loss_drops += 1;
                        return None;
                    }
                    if faults.jitter_ms > 0.0 {
                        jitter = ms(rng.random_range(0.0..faults.jitter_ms));
                        if jitter > 0 {
                            self.fault_stats.delayed += 1;
                        }
                    }
                    duplicate = faults.duplicate > 0.0 && rng.random_bool(faults.duplicate);
                }
            }
        }

        // Jitter only ever *adds* delay, so the epoch executor's
        // conservative lookahead bound (min link propagation) stays safe.
        let mut arrival = self.now + propagation + transmission + jitter;
        let clock = self.link_clock.entry((from, to)).or_insert(0);
        if arrival < *clock {
            arrival = *clock;
            if jitter > 0 {
                // The jittered message would have overtaken an earlier
                // one; FIFO clamped it back into order.
                self.fault_stats.reordered += 1;
            }
        }
        // Strictly increasing so two messages on a link never tie.
        *clock = arrival + 1;
        if let Some(plan) = &self.fault {
            if plan.node_down_at(to, arrival) || plan.node_down_at(from, self.now) {
                self.stats.record_send(self.now, from, wire_bytes);
                self.fault_stats.dropped += 1;
                self.fault_stats.crash_drops += 1;
                return None;
            }
        }
        self.stats.record_send(self.now, from, wire_bytes);
        if duplicate {
            let copy = message.clone();
            self.push(arrival, EventKind::Delivery(message));
            // The extra copy trails the original on the same link, subject
            // to the same FIFO clock and crash windows.
            let clock = self.link_clock.entry((from, to)).or_insert(0);
            let dup_arrival = arrival.max(*clock);
            *clock = dup_arrival + 1;
            let receiver_down = self
                .fault
                .as_ref()
                .is_some_and(|plan| plan.node_down_at(to, dup_arrival));
            if !receiver_down {
                self.fault_stats.duplicated += 1;
                self.push(dup_arrival, EventKind::Delivery(copy));
            }
        } else {
            self.push(arrival, EventKind::Delivery(message));
        }
        Some(arrival)
    }

    /// Schedule a timer to fire at absolute time `at` on `node`.
    pub fn schedule_timer(&mut self, at: SimTime, node: NodeAddr, token: u64) {
        let at = at.max(self.now);
        self.push(at, EventKind::Timer { node, token });
    }

    /// Schedule a timer to fire `delay` after the current time.
    pub fn schedule_timer_in(&mut self, delay: SimTime, node: NodeAddr, token: u64) {
        self.push(self.now + delay, EventKind::Timer { node, token });
    }

    /// Pop the next event, advancing simulation time. Returns `None` when
    /// the simulation has quiesced (no events remain). The one-at-a-time
    /// reference order that [`Simulator::drain_epoch`] is checked against.
    #[cfg(test)]
    fn next_event(&mut self) -> Option<TimedEvent<P>> {
        let Reverse(ev) = self.queue.pop()?;
        debug_assert!(ev.time >= self.now, "time must be monotonic");
        self.now = ev.time;
        Some(TimedEvent {
            time: ev.time,
            seq: ev.seq,
            kind: ev.kind,
        })
    }

    /// Peek at the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(e)| e.time)
    }

    /// Drain an *epoch*: every queued event whose timestamp falls in the
    /// half-open window `[t0, t0 + window)` — where `t0` is the earliest
    /// queued timestamp — and is not past `limit`. Events are returned in
    /// exactly the `(time, seq)` order popping them one at a time would
    /// yield, and simulation time advances to `t0`.
    ///
    /// A `window` of `0` or `1` yields single-timestamp epochs (all events
    /// sharing the next timestamp). Larger windows implement conservative
    /// lookahead: as long as `window` does not exceed the minimum delay of
    /// any event the drained events can generate (for messages, the minimum
    /// link propagation delay — see [`Simulator::min_link_delay`]), every
    /// event *caused by* this epoch lands at or after the window end, so
    /// per-node event orderings are unaffected by the batching. Events the
    /// epoch generates at the drained timestamps (possible only with
    /// zero-latency links) carry higher sequence numbers than everything
    /// drained here and are therefore picked up by a later epoch in the
    /// same relative order the sequential loop would have processed them.
    pub fn drain_epoch(&mut self, window: SimTime, limit: SimTime) -> Vec<TimedEvent<P>> {
        #[cfg(debug_assertions)]
        if window > 1 {
            if let Some(min_delay) = self.min_link_delay() {
                debug_assert!(
                    window <= min_delay,
                    "epoch window {window} exceeds the minimum link delay {min_delay}: \
                     a message sent inside the window could arrive inside it, breaking \
                     the conservative-lookahead precondition"
                );
            }
        }
        let mut out = Vec::new();
        let Some(t0) = self.peek_time() else {
            return out;
        };
        if t0 > limit {
            return out;
        }
        let end = t0.saturating_add(window.max(1));
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.time >= end || head.time > limit {
                break;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked event exists");
            out.push(TimedEvent {
                time: ev.time,
                seq: ev.seq,
                kind: ev.kind,
            });
        }
        debug_assert!(t0 >= self.now, "time must be monotonic");
        self.now = t0;
        out
    }

    /// Advance simulation time to `t` (monotonic; earlier times are
    /// ignored). Drivers replaying the effects of a drained epoch call this
    /// with each event's timestamp before re-injecting its sends and
    /// timers, so arrival times and statistics are computed exactly as the
    /// sequential loop would have.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// The minimum propagation delay over all links, in microseconds — the
    /// safe conservative lookahead for [`Simulator::drain_epoch`]: a
    /// message sent at time `t` can arrive no earlier than `t` plus this
    /// delay. `None` when the topology has no links.
    pub fn min_link_delay(&self) -> Option<SimTime> {
        self.topology
            .links()
            .map(|(_, _, m)| ms(m.latency_ms))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkMetrics;

    fn two_node_topology(latency_ms: f64) -> Topology {
        let mut t = Topology::with_nodes(2);
        t.add_link(
            NodeAddr(0),
            NodeAddr(1),
            LinkMetrics {
                latency_ms,
                reliability: 1.0,
                random: 1.0,
                bandwidth_bps: 8_000_000.0, // 1 byte per microsecond
            },
        )
        .unwrap();
        t
    }

    #[test]
    fn delivery_includes_propagation_and_transmission() {
        let mut sim: Simulator<u32> =
            Simulator::new(two_node_topology(10.0), SimConfig { header_bytes: 0 });
        // 1000 bytes at 8 Mbps = 1 ms transmission; 10 ms propagation.
        let at = sim
            .send(Message::new(NodeAddr(0), NodeAddr(1), 1000, 7))
            .unwrap();
        assert_eq!(at, ms(11.0));
        let ev = sim.next_event().unwrap();
        assert_eq!(ev.time, ms(11.0));
        match ev.kind {
            EventKind::Delivery(m) => assert_eq!(m.payload, 7),
            _ => panic!("expected delivery"),
        }
        assert_eq!(sim.now(), ms(11.0));
    }

    #[test]
    fn fifo_ordering_is_preserved_per_link() {
        let mut sim: Simulator<u32> = Simulator::new(two_node_topology(5.0), SimConfig::default());
        // Send a large message then a small one; without FIFO the small one
        // would overtake because its transmission delay is smaller... here
        // both have the same delay, so instead verify monotone arrival times
        // and in-order payloads.
        for i in 0..10 {
            sim.send(Message::new(NodeAddr(0), NodeAddr(1), 100, i));
        }
        let mut last = 0;
        let mut payloads = Vec::new();
        while let Some(ev) = sim.next_event() {
            assert!(ev.time >= last);
            last = ev.time;
            if let EventKind::Delivery(m) = ev.kind {
                payloads.push(m.payload);
            }
        }
        assert_eq!(payloads, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_prevents_overtaking_of_large_messages() {
        // First message is huge (long transmission), second is tiny. With
        // FIFO the tiny one must not arrive before the huge one.
        let mut sim: Simulator<&'static str> =
            Simulator::new(two_node_topology(1.0), SimConfig { header_bytes: 0 });
        let t_big = sim
            .send(Message::new(NodeAddr(0), NodeAddr(1), 1_000_000, "big"))
            .unwrap();
        let t_small = sim
            .send(Message::new(NodeAddr(0), NodeAddr(1), 1, "small"))
            .unwrap();
        assert!(t_small > t_big, "FIFO must prevent overtaking");
    }

    #[test]
    #[should_panic(expected = "link-restriction violated")]
    fn sending_over_missing_link_panics_when_enforced() {
        let mut sim: Simulator<u32> = Simulator::new(Topology::with_nodes(3), SimConfig::default());
        sim.send(Message::new(NodeAddr(0), NodeAddr(2), 10, 1));
    }

    #[test]
    fn timers_fire_in_order_with_messages() {
        let mut sim: Simulator<u32> = Simulator::new(two_node_topology(5.0), SimConfig::default());
        sim.schedule_timer(ms(2.0), NodeAddr(0), 42);
        sim.send(Message::new(NodeAddr(0), NodeAddr(1), 10, 9));
        sim.schedule_timer(ms(100.0), NodeAddr(1), 43);

        let e1 = sim.next_event().unwrap();
        assert!(matches!(e1.kind, EventKind::Timer { token: 42, .. }));
        let e2 = sim.next_event().unwrap();
        assert!(matches!(e2.kind, EventKind::Delivery(_)));
        let e3 = sim.next_event().unwrap();
        assert!(matches!(e3.kind, EventKind::Timer { token: 43, .. }));
        assert!(sim.next_event().is_none());
    }

    #[test]
    fn stats_account_for_header_bytes() {
        let mut sim: Simulator<u32> =
            Simulator::new(two_node_topology(1.0), SimConfig { header_bytes: 28 });
        sim.send(Message::new(NodeAddr(0), NodeAddr(1), 100, 0));
        assert_eq!(sim.stats().total_bytes(), 128);
        assert_eq!(sim.stats().message_count(), 1);
    }

    #[test]
    fn time_units_convert() {
        assert_eq!(ms(1.5), 1500);
        assert!((to_seconds(2_000_000) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn drain_epoch_matches_next_event_order() {
        // Two identical simulators: one drained in epochs, one popped one
        // event at a time. The concatenated epochs must reproduce the
        // sequential pop order exactly.
        let build = || {
            let mut sim: Simulator<u32> =
                Simulator::new(two_node_topology(5.0), SimConfig::default());
            sim.schedule_timer(ms(2.0), NodeAddr(0), 7);
            sim.schedule_timer(ms(2.0), NodeAddr(1), 8);
            for i in 0..4 {
                sim.send(Message::new(NodeAddr(0), NodeAddr(1), 100, i));
            }
            sim.schedule_timer(ms(9.0), NodeAddr(0), 9);
            sim
        };
        let mut sequential = build();
        let mut popped = Vec::new();
        while let Some(ev) = sequential.next_event() {
            popped.push((ev.time, ev.seq));
        }

        let mut epochal = build();
        let mut drained = Vec::new();
        let mut epochs = 0;
        while epochal.peek_time().is_some() {
            let epoch = epochal.drain_epoch(ms(5.0), SimTime::MAX);
            assert!(!epoch.is_empty(), "an epoch always drains something");
            assert!(
                epoch
                    .windows(2)
                    .all(|w| (w[0].time, w[0].seq) < (w[1].time, w[1].seq)),
                "epoch events are (time, seq)-ordered"
            );
            drained.extend(epoch.iter().map(|e| (e.time, e.seq)));
            epochs += 1;
        }
        assert_eq!(drained, popped);
        assert!(epochs >= 2, "the window must not swallow the whole run");
        assert_eq!(epochal.pending(), 0);
    }

    #[test]
    fn drain_epoch_respects_window_and_limit() {
        // Timer-only (linkless) topology: wide windows are trivially
        // conservative, so the lookahead assert stays out of the way.
        let mut sim: Simulator<u32> = Simulator::new(Topology::with_nodes(2), SimConfig::default());
        sim.schedule_timer(ms(1.0), NodeAddr(0), 1);
        sim.schedule_timer(ms(1.0), NodeAddr(1), 2);
        sim.schedule_timer(ms(3.0), NodeAddr(0), 3);
        sim.schedule_timer(ms(10.0), NodeAddr(0), 4);

        // Single-timestamp epoch: only the two t=1 ms events.
        let epoch = sim.drain_epoch(1, SimTime::MAX);
        assert_eq!(epoch.len(), 2);
        assert_eq!(sim.now(), ms(1.0));

        // A 5 ms window takes t=3 ms but leaves t=10 ms for later.
        let epoch = sim.drain_epoch(ms(5.0), SimTime::MAX);
        assert_eq!(epoch.len(), 1);
        assert_eq!(epoch[0].time, ms(3.0));

        // The limit caps the drain even within the window.
        let epoch = sim.drain_epoch(ms(50.0), ms(8.0));
        assert!(epoch.is_empty(), "next event is past the limit");
        let epoch = sim.drain_epoch(ms(50.0), ms(10.0));
        assert_eq!(epoch.len(), 1);
        assert_eq!(sim.now(), ms(10.0));
        assert!(sim.drain_epoch(1, SimTime::MAX).is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds the minimum link delay")]
    fn drain_epoch_rejects_non_conservative_windows() {
        // A 50 ms window over 5 ms links: a message sent inside the window
        // could arrive inside it, so debug builds must refuse.
        let mut sim: Simulator<u32> = Simulator::new(two_node_topology(5.0), SimConfig::default());
        sim.schedule_timer(ms(1.0), NodeAddr(0), 1);
        sim.drain_epoch(ms(50.0), SimTime::MAX);
    }

    #[test]
    fn fault_loss_is_deterministic_and_traced() {
        use crate::fault::{FaultPlan, LinkFaults};
        let build = || {
            let mut sim: Simulator<u32> =
                Simulator::new(two_node_topology(5.0), SimConfig { header_bytes: 0 });
            sim.set_fault_plan(FaultPlan::new(0xfa17).with_default_faults(LinkFaults {
                loss: 0.5,
                ..LinkFaults::NONE
            }))
            .unwrap();
            sim
        };
        let run = |mut sim: Simulator<u32>| {
            let mut delivered = Vec::new();
            for i in 0..64 {
                if sim
                    .send(Message::new(NodeAddr(0), NodeAddr(1), 100, i))
                    .is_some()
                {
                    delivered.push(i);
                }
            }
            (delivered, sim.fault_stats(), sim.stats().clone())
        };
        let (delivered_a, fault_a, net_a) = run(build());
        let (delivered_b, fault_b, net_b) = run(build());
        assert_eq!(
            delivered_a, delivered_b,
            "loss draws must replay from the seed"
        );
        assert_eq!(fault_a, fault_b);
        assert_eq!(net_a, net_b, "the send trace replays from the seed");
        assert!(fault_a.dropped > 0 && fault_a.dropped < 64, "~50% loss");
        assert_eq!(fault_a.dropped, fault_a.loss_drops);
        // Dropped messages still appear in the send trace: sender paid.
        assert_eq!(net_a.message_count(), 64);
    }

    #[test]
    fn fault_duplication_delivers_an_extra_copy() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut sim: Simulator<u32> = Simulator::new(two_node_topology(5.0), SimConfig::default());
        sim.set_fault_plan(FaultPlan::new(9).with_default_faults(LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::NONE
        }))
        .unwrap();
        sim.send(Message::new(NodeAddr(0), NodeAddr(1), 100, 7))
            .unwrap();
        let mut payloads = Vec::new();
        while let Some(ev) = sim.next_event() {
            if let EventKind::Delivery(m) = ev.kind {
                payloads.push(m.payload);
            }
        }
        assert_eq!(payloads, vec![7, 7]);
        assert_eq!(sim.fault_stats().duplicated, 1);
        // The duplicate is network-level: the sender paid for one message.
        assert_eq!(sim.stats().message_count(), 1);
    }

    #[test]
    fn fault_jitter_only_adds_delay() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut sim: Simulator<u32> =
            Simulator::new(two_node_topology(5.0), SimConfig { header_bytes: 0 });
        sim.set_fault_plan(FaultPlan::new(3).with_default_faults(LinkFaults {
            jitter_ms: 20.0,
            ..LinkFaults::NONE
        }))
        .unwrap();
        let base = ms(5.0) + 100; // propagation + transmission at 1 B/µs
        for i in 0..32 {
            let at = sim
                .send(Message::new(NodeAddr(0), NodeAddr(1), 100, i))
                .unwrap();
            assert!(at >= base, "jitter never delivers early");
        }
        assert!(sim.fault_stats().delayed > 0);
    }

    #[test]
    fn a_fifo_clamped_jittered_send_counts_as_reordered() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut sim: Simulator<u32> =
            Simulator::new(two_node_topology(5.0), SimConfig { header_bytes: 0 });
        sim.set_fault_plan(FaultPlan::new(3).with_default_faults(LinkFaults {
            jitter_ms: 20.0,
            ..LinkFaults::NONE
        }))
        .unwrap();
        // Back-to-back sends on one link: a send that draws less jitter
        // than the one before it would overtake it, and FIFO clamps it to
        // one microsecond past the previous arrival.
        let (mut last, mut clamped) = (0, 0);
        for i in 0..32 {
            let at = sim
                .send(Message::new(NodeAddr(0), NodeAddr(1), 100, i))
                .unwrap();
            assert!(at > last, "FIFO keeps arrivals in send order");
            clamped += u64::from(at == last + 1);
            last = at;
        }
        let stats = sim.fault_stats();
        assert!(stats.reordered > 0, "some jittered send was clamped");
        assert_eq!(stats.reordered, clamped);
    }

    #[test]
    fn fault_partition_cuts_and_heals() {
        use crate::fault::FaultPlan;
        let mut sim: Simulator<u32> = Simulator::new(two_node_topology(5.0), SimConfig::default());
        sim.set_fault_plan(FaultPlan::new(1).with_partition(0, ms(100.0), [NodeAddr(0)]))
            .unwrap();
        assert!(sim
            .send(Message::new(NodeAddr(0), NodeAddr(1), 10, 1))
            .is_none());
        assert_eq!(sim.fault_stats().partition_drops, 1);
        assert_eq!(sim.fault_stats().partitions_healed, 0);
        sim.advance_to(ms(100.0));
        assert!(sim
            .send(Message::new(NodeAddr(0), NodeAddr(1), 10, 2))
            .is_some());
        assert_eq!(sim.fault_stats().partitions_healed, 1);
    }

    #[test]
    fn fault_crash_window_drops_arrivals() {
        use crate::fault::FaultPlan;
        let mut sim: Simulator<u32> = Simulator::new(two_node_topology(5.0), SimConfig::default());
        // Node 1 is down for arrivals in [0, 20 ms); a 5 ms link puts the
        // first send's arrival inside the window.
        sim.set_fault_plan(FaultPlan::new(1).with_crash(NodeAddr(1), 0, ms(20.0)))
            .unwrap();
        assert!(sim
            .send(Message::new(NodeAddr(0), NodeAddr(1), 10, 1))
            .is_none());
        assert_eq!(sim.fault_stats().crash_drops, 1);
        sim.advance_to(ms(30.0));
        assert!(sim
            .send(Message::new(NodeAddr(0), NodeAddr(1), 10, 2))
            .is_some());
    }

    #[test]
    fn fault_plan_validation_is_enforced_on_attach() {
        use crate::fault::FaultPlan;
        let mut sim: Simulator<u32> = Simulator::new(two_node_topology(5.0), SimConfig::default());
        assert!(sim
            .set_fault_plan(FaultPlan::new(1).with_crash(NodeAddr(0), 10, 5))
            .is_err());
        assert!(sim.fault_plan().is_none());
    }

    #[test]
    fn advance_to_is_monotonic() {
        let mut sim: Simulator<u32> = Simulator::new(two_node_topology(5.0), SimConfig::default());
        sim.advance_to(ms(4.0));
        assert_eq!(sim.now(), ms(4.0));
        sim.advance_to(ms(2.0));
        assert_eq!(sim.now(), ms(4.0), "earlier times are ignored");
    }

    #[test]
    fn min_link_delay_is_the_lookahead_bound() {
        let sim: Simulator<u32> = Simulator::new(two_node_topology(5.0), SimConfig::default());
        assert_eq!(sim.min_link_delay(), Some(ms(5.0)));
        let empty: Simulator<u32> = Simulator::new(Topology::with_nodes(3), SimConfig::default());
        assert_eq!(empty.min_link_delay(), None);
    }
}

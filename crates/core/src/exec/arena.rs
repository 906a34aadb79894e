//! Pooled delta-buffer allocation for the wire path.
//!
//! Every message the engine sends is a `Vec<TupleDelta>` that is born in a
//! node's outbound map, moved (never cloned) into an
//! [`crate::exec::OutboundBatch`], then into the simulator's queue as the
//! message payload, and finally handed to the receiving node's
//! `receive()`. Before this module, each of those vectors was freshly
//! allocated and dropped after ingestion — tens of megabytes of buffer
//! churn per scaling run. [`DeltaArena`] closes the loop: the receiver
//! drains the payload and *recycles* the empty vector into its pool, and
//! the node's send path *rents* from that pool when it opens a new
//! outbound batch, so a small set of buffers circulates through the whole
//! send → simulate → receive cycle.
//!
//! The pool is per-node (nodes partition across executor lanes, so no
//! locking), and its contents are plain capacity — renting or recycling
//! never touches evaluation state, so pool behavior cannot perturb the
//! bitwise-identity determinism contract. A per-epoch bump-reset arena
//! would be wrong here: payloads outlive the epoch that allocated them
//! (link delays exceed the conservative epoch window by construction), so
//! buffers must live until their receiver returns them.
//!
//! [`ArenaStats`] quantifies the win. `demand_bytes` counts the allocator
//! traffic of the pre-arena implementation, which grew a fresh `Vec` per
//! message by pushing: for a payload of n deltas that is the whole
//! doubling series 4 + 8 + … + next_pow2(n) backing allocations
//! (`unpooled_alloc_bytes`), accounted when the payload is recycled.
//! [`ArenaStats::allocated_bytes`] telescopes rented-out capacity against
//! recycled capacity, which sums to the backing capacity the buffers end
//! up with (growth of a pooled buffer *within* a rent shows up in its next
//! recycle). Their ratio is the buffer-churn reduction; the benchmark
//! reports the two as `core.arena_demand_bytes` and
//! `core.arena_allocated_bytes`.
//!
//! A buffer goes back to the pool no larger than twice the payload it just
//! carried ([`DeltaArena::recycle`]). Payload sizes are mixed — a burst of
//! 30 deltas, then a trickle of 13 — and most buffers spend their life not
//! in a pool but in the simulator's queue, as a message in flight: a pool
//! of high-water-mark buffers means every queued message holds the largest
//! payload its buffer ever carried. Recycled capacity is recorded after the
//! shrink, so the telescoped sum stays exactly Σ over distinct buffers of
//! their final capacity; what a shrunken buffer grows again on a later,
//! larger rent is allocator traffic that sum does not see.

use ndlog_runtime::TupleDelta;

/// Largest number of idle buffers a node keeps; beyond this, recycled
/// buffers are dropped (their accounting stands — a dropped buffer's
/// capacity was genuinely allocated). Overlay nodes talk to a handful of
/// neighbors, so the pool stays far below this in practice.
const MAX_POOLED: usize = 64;

const DELTA_BYTES: u64 = std::mem::size_of::<TupleDelta>() as u64;

fn capacity_bytes(buf: &Vec<TupleDelta>) -> u64 {
    buf.capacity() as u64 * DELTA_BYTES
}

/// Backing bytes a per-message `Vec` grown from empty by `push` requests
/// from the allocator for a payload of `len` deltas: the doubling series
/// 4, 8, …, next_pow2(len) — every intermediate backing store is a real
/// allocation (and a copy) the pool-free wire path performed.
fn unpooled_alloc_bytes(len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let mut cap: u64 = 4;
    let mut total: u64 = 0;
    while cap < len as u64 {
        total += cap;
        cap *= 2;
    }
    (total + cap) * DELTA_BYTES
}

/// Allocation statistics of one or more [`DeltaArena`]s.
///
/// Buffers rent at one node and recycle at another, so a single node's
/// numbers are not meaningful alone; summed over all nodes (the engine
/// does this) the telescoping works out exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers handed out by `rent` (fresh or reused).
    pub rents: u64,
    /// Rents served from the pool instead of a fresh allocation.
    pub reuses: u64,
    /// Bytes the pre-arena per-message growth path would have requested
    /// from the allocator: Σ over recycled payloads of
    /// `unpooled_alloc_bytes` of their length.
    pub demand_bytes: u64,
    /// Capacity bytes handed out by `rent`.
    pub rented_capacity_bytes: u64,
    /// Capacity bytes returned by `recycle`.
    pub recycled_capacity_bytes: u64,
}

impl ArenaStats {
    /// Backing capacity the buffers were left with. Each buffer's rents
    /// subtract the capacity it came back with last time, so the sum
    /// telescopes to Σ over distinct buffers of their final capacity —
    /// the buffer memory in existence, not the allocator traffic behind it
    /// (a buffer shrunk at one recycle and regrown on a later rent counts
    /// once, at the size it ended with).
    pub fn allocated_bytes(&self) -> u64 {
        self.recycled_capacity_bytes
            .saturating_sub(self.rented_capacity_bytes)
    }

    /// Sum another arena's counters into this one.
    pub fn absorb(&mut self, other: ArenaStats) {
        self.rents += other.rents;
        self.reuses += other.reuses;
        self.demand_bytes += other.demand_bytes;
        self.rented_capacity_bytes += other.rented_capacity_bytes;
        self.recycled_capacity_bytes += other.recycled_capacity_bytes;
    }
}

/// A per-node pool of reusable `Vec<TupleDelta>` wire buffers.
#[derive(Debug, Default)]
pub struct DeltaArena {
    free: Vec<Vec<TupleDelta>>,
    stats: ArenaStats,
}

impl DeltaArena {
    /// Take a buffer for a new outbound batch: a pooled one when
    /// available, else a fresh (zero-capacity) vector.
    pub fn rent(&mut self) -> Vec<TupleDelta> {
        self.stats.rents += 1;
        match self.free.pop() {
            Some(buf) => {
                self.stats.reuses += 1;
                self.stats.rented_capacity_bytes += capacity_bytes(&buf);
                buf
            }
            None => Vec::new(),
        }
    }

    /// Return a payload buffer to the pool, shrunk to at most twice the
    /// payload it carried. `payload_len` is the number of deltas the
    /// buffer carried over the wire (receivers drain the buffer before
    /// returning it, so the length cannot be read off the buffer itself
    /// here) — it is what the demand accounting records, and what the next
    /// payload through this buffer is sized by.
    pub fn recycle(&mut self, payload_len: usize, mut buf: Vec<TupleDelta>) {
        self.stats.demand_bytes += unpooled_alloc_bytes(payload_len);
        buf.clear();
        buf.shrink_to(2 * payload_len);
        self.stats.recycled_capacity_bytes += capacity_bytes(&buf);
        if buf.capacity() > 0 && self.free.len() < MAX_POOLED {
            self.free.push(buf);
        }
    }

    /// This arena's accumulated counters.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::Value;
    use ndlog_runtime::Tuple;

    fn delta(i: u32) -> TupleDelta {
        TupleDelta::insert("r", Tuple::new(vec![Value::addr(i)]))
    }

    #[test]
    fn buffers_circulate_through_the_pool() {
        let mut arena = DeltaArena::default();
        let mut buf = arena.rent();
        assert_eq!(arena.stats().rents, 1);
        assert_eq!(arena.stats().reuses, 0);
        buf.extend((0..10).map(delta));
        let cap = buf.capacity();
        let len = buf.len();
        arena.recycle(len, buf);

        let reused = arena.rent();
        assert_eq!(reused.capacity(), cap, "the same backing store comes back");
        assert!(reused.is_empty());
        assert_eq!(arena.stats().reuses, 1);
    }

    #[test]
    fn accounting_telescopes_to_real_allocation() {
        let mut arena = DeltaArena::default();
        // One buffer, recycled twice at the same capacity: allocated bytes
        // equal its final capacity, demand counts both passes.
        let mut buf = arena.rent();
        buf.extend((0..8).map(delta));
        let cap_bytes = buf.capacity() as u64 * DELTA_BYTES;
        arena.recycle(8, buf);
        let mut buf = arena.rent();
        buf.extend((0..8).map(delta));
        arena.recycle(8, buf);

        let stats = arena.stats();
        assert_eq!(stats.allocated_bytes(), cap_bytes);
        // len 8 → growth series 4 + 8 per pass, two passes.
        assert_eq!(stats.demand_bytes, 2 * unpooled_alloc_bytes(8));
        assert_eq!(unpooled_alloc_bytes(8), 12 * DELTA_BYTES);
        assert!(stats.demand_bytes > stats.allocated_bytes());
    }

    #[test]
    fn a_recycled_buffer_is_at_most_twice_its_payload() {
        let mut arena = DeltaArena::default();
        let mut buf = arena.rent();
        buf.extend((0..30).map(delta));
        arena.recycle(30, buf);
        // The 30-slot buffer carries 13 deltas next: it returns with room
        // for 26, and the accounting follows it down.
        let mut buf = arena.rent();
        assert!(buf.capacity() >= 30);
        buf.extend((0..13).map(delta));
        arena.recycle(13, buf);
        let buf = arena.rent();
        assert!((13..=26).contains(&buf.capacity()), "{}", buf.capacity());
        let final_capacity = capacity_bytes(&buf);
        arena.recycle(13, buf);
        assert_eq!(arena.stats().allocated_bytes(), final_capacity);
        // A buffer within twice its payload is left alone.
        let buf = arena.rent();
        let before = buf.capacity();
        arena.recycle(before / 2, buf);
        assert_eq!(arena.rent().capacity(), before);
    }

    #[test]
    fn absorb_sums_counters_across_nodes() {
        // Rent at node A, recycle at node B — only the sum is meaningful.
        let mut a = DeltaArena::default();
        let mut b = DeltaArena::default();
        let mut buf = a.rent();
        buf.extend((0..4).map(delta));
        b.recycle(4, buf);
        let mut total = a.stats();
        total.absorb(b.stats());
        assert_eq!(total.rents, 1);
        assert!(total.allocated_bytes() > 0);
        assert_eq!(total.demand_bytes, unpooled_alloc_bytes(4));
    }
}

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
//! A payload's buffer holds exactly its payload. A sender knows every
//! delta of a message before it rents the buffer, so it asks for that many
//! ([`DeltaArena::rent`]): the pool hands out the smallest buffer that
//! fits, shrunk to the payload, or grows one that does not, and
//! [`DeltaArena::recycle`] keeps a buffer at the length it carried. Most
//! buffers spend their life not in a pool but in the simulator's queue, as
//! a message in flight, so every slot beyond the payload would be held for
//! a link's whole delay. A resized buffer's capacity is recorded when it
//! is recycled, so the telescoped sum stays exactly Σ over distinct
//! buffers of their final capacity; the resizing itself is allocator
//! traffic that sum does not see.

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
    /// Take a buffer for a payload of `len` deltas, its capacity exactly
    /// `len`: the smallest pooled buffer that holds that many, shrunk to
    /// it; failing that the largest pooled one, grown to it; failing that
    /// a fresh one.
    pub fn rent(&mut self, len: usize) -> Vec<TupleDelta> {
        self.stats.rents += 1;
        let fits = (0..self.free.len()).filter(|&i| self.free[i].capacity() >= len);
        let chosen = fits
            .min_by_key(|&i| self.free[i].capacity())
            .or_else(|| (0..self.free.len()).max_by_key(|&i| self.free[i].capacity()));
        let Some(i) = chosen else {
            return Vec::with_capacity(len);
        };
        let mut buf = self.free.swap_remove(i);
        self.stats.reuses += 1;
        self.stats.rented_capacity_bytes += capacity_bytes(&buf);
        buf.shrink_to(len);
        buf.reserve_exact(len);
        buf
    }

    /// Return a payload buffer to the pool, at the capacity of the payload
    /// it carried. `payload_len` is the number of deltas the buffer carried
    /// over the wire (receivers drain the buffer before returning it, so
    /// the length cannot be read off the buffer itself here) — it is what
    /// the demand accounting records.
    pub fn recycle(&mut self, payload_len: usize, mut buf: Vec<TupleDelta>) {
        self.stats.demand_bytes += unpooled_alloc_bytes(payload_len);
        buf.clear();
        buf.shrink_to(payload_len);
        self.stats.recycled_capacity_bytes += capacity_bytes(&buf);
        if buf.capacity() > 0 && self.free.len() < MAX_POOLED {
            self.free.push(buf);
        }
    }

    /// Bytes of capacity the pool holds: its list and the idle buffers.
    pub fn pooled_bytes(&self) -> usize {
        let buffers: usize = self.free.iter().map(Vec::capacity).sum();
        self.free.capacity() * std::mem::size_of::<Vec<TupleDelta>>()
            + buffers * std::mem::size_of::<TupleDelta>()
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
        let mut buf = arena.rent(10);
        assert_eq!(arena.stats().rents, 1);
        assert_eq!(arena.stats().reuses, 0);
        assert_eq!(buf.capacity(), 10);
        buf.extend((0..10).map(delta));
        let backing = buf.as_ptr();
        arena.recycle(10, buf);

        let reused = arena.rent(10);
        assert_eq!(
            reused.as_ptr(),
            backing,
            "the same backing store comes back"
        );
        assert_eq!(reused.capacity(), 10);
        assert!(reused.is_empty());
        assert_eq!(arena.stats().reuses, 1);
    }

    #[test]
    fn accounting_telescopes_to_real_allocation() {
        let mut arena = DeltaArena::default();
        // One buffer, recycled twice at the same capacity: allocated bytes
        // equal its final capacity, demand counts both passes.
        let mut buf = arena.rent(8);
        buf.extend((0..8).map(delta));
        let cap_bytes = buf.capacity() as u64 * DELTA_BYTES;
        arena.recycle(8, buf);
        let mut buf = arena.rent(8);
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
    fn a_rented_buffer_holds_exactly_its_payload() {
        let mut arena = DeltaArena::default();
        let rented: Vec<_> = [30, 13, 5].map(|len| (len, arena.rent(len))).into();
        for (len, mut buf) in rented {
            buf.extend((0..len as u32).map(delta));
            arena.recycle(len, buf);
        }
        // Pooled: 30, 13 and 5 slots. A payload of 12 takes the 13-slot
        // buffer, shrunk to 12, and leaves the others alone.
        let buf = arena.rent(12);
        assert_eq!(buf.capacity(), 12);
        let mut pooled: Vec<usize> = arena.free.iter().map(Vec::capacity).collect();
        pooled.sort_unstable();
        assert_eq!(pooled, [5, 30]);
        arena.recycle(12, buf);
        // A payload of 40 fits none: the largest, 30, grows to it.
        let buf = arena.rent(40);
        assert_eq!(buf.capacity(), 40);
        let mut pooled: Vec<usize> = arena.free.iter().map(Vec::capacity).collect();
        pooled.sort_unstable();
        assert_eq!(pooled, [5, 12]);
        // A buffer recycled below its capacity keeps only what it carried,
        // and the accounting follows it down.
        arena.recycle(7, buf);
        assert!(arena.free.iter().any(|b| b.capacity() == 7));
        let final_capacity: u64 = arena.free.iter().map(capacity_bytes).sum();
        assert_eq!(arena.stats().allocated_bytes(), final_capacity);
    }

    #[test]
    fn absorb_sums_counters_across_nodes() {
        // Rent at node A, recycle at node B — only the sum is meaningful.
        let mut a = DeltaArena::default();
        let mut b = DeltaArena::default();
        let mut buf = a.rent(4);
        buf.extend((0..4).map(delta));
        b.recycle(4, buf);
        let mut total = a.stats();
        total.absorb(b.stats());
        assert_eq!(total.rents, 1);
        assert!(total.allocated_bytes() > 0);
        assert_eq!(total.demand_bytes, unpooled_alloc_bytes(4));
    }
}

//! Slot tables: the primary index and the secondary hash indexes of a
//! stored relation.
//!
//! The P2 dataflow fires a rule strand once per arriving delta and joins it
//! against the *stored* tables of the other body predicates. Without
//! indexes every such join is a full scan — O(|relation|) work per binding
//! environment — which makes per-delta work quadratic-ish on the hot path
//! of every experiment. This module provides the storage half of the fix
//! (the compilation half is each strand's probe stages, see
//! [`crate::strand`]):
//!
//! * an [`IndexSignature`] names a set of columns that a join binds to
//!   concrete values (a *bound-column signature*, the same notion index-
//!   driven homomorphism search uses for conceptual-graph matching);
//! * a `SlotTable` files each row of a relation under one projection of its
//!   values — the primary key for the primary index, a signature's columns
//!   for a secondary index — so a probe touches exactly the rows carrying
//!   the probed projection;
//! * [`crate::relation::Relation`] maintains its tables incrementally on
//!   insert, key-replacement, deletion and soft-state expiry, and answers
//!   [`crate::relation::Relation::probe`] in O(matches).
//!
//! Secondary indexes are declared once per program (the evaluator and the
//! per-node engines collect every compiled strand's signatures up front),
//! never per join. A signature that binds the relation's whole primary key
//! is never built: the primary index already finds the one row it could
//! hold (see [`crate::relation`]).
//!
//! # Fingerprint → slots, verified against the slab
//!
//! A table stores no value and no tuple. It maps the 64-bit Fx fingerprint
//! of a projection's values (`fingerprint`, through `Value`'s `Hash`, which
//! reads a list's cached hash: O(1) per column) to the slab slots of the
//! rows carrying it: a lone slot sits inline in the 16-byte map entry —
//! every primary entry, and every one-row bucket — and only a fingerprint
//! shared by several rows owns a vector. The projection itself is written
//! down once, in the tuple the slab row holds, and every hit is checked
//! against it by `Value` equality: the table's operations take a `same`
//! predicate telling whether the row in a slot carries the projection being
//! filed or probed. Two projections with one fingerprint therefore share a
//! map entry but never an answer — their slots form separate contiguous
//! *runs* in the entry's vector, a probe returns the one run whose rows
//! pass `same`, and a collision costs a comparison. Because runs are
//! contiguous, a vector whose first and last rows pass `same` is one run:
//! the usual, collision-free probe reads two rows however long its bucket.
//!
//! A run that loses its last slot is gone with it: nothing of a departed
//! row stays behind in any table.
//!
//! Values that are equal hash equally — `Int(3)` and `Float(3.0)` are one
//! key — and the fingerprints use `FxHasher`
//! ([`ndlog_lang::value::FxHasher`]), which is seedless, so two runs of one
//! input build identical tables and take the same time.
//!
//! # Run order is by key value
//!
//! The slots of a run are kept in the order of their rows' primary-key
//! *values* — the order a `BTreeMap<Vec<Value>, _>` over the relation would
//! give — never in slot order. Probe order decides the order strands
//! derive tuples in, hence which of two same-key derivations lands first,
//! which message carries what, and every deterministic count the
//! differential tests and the benchmark compare; slots and
//! fingerprint collisions depend on insertion and deletion history, which
//! differs between the centralized evaluator, a node engine and a
//! from-scratch oracle holding the same tuples. The relation supplies the
//! position of a new row by binary search over its run (O(log n) key
//! comparisons, O(n) `u32` shifting); removal finds the slot by scanning
//! the `u32`s. The order of the runs sharing a vector is never observed.
//!
//! # Probe accounting
//!
//! [`JoinStats`] counts probes at two granularities: `logical_probes` is
//! the number of binding environments answered by an index (one per
//! trigger per atom, however the triggers are batched), while
//! `distinct_probes` is the number of bucket lookups actually executed.
//! Key-grouped probe sharing ([`crate::batch`]) answers a whole group of
//! same-key environments with one bucket lookup, so `distinct_probes ≤
//! logical_probes`; a lone environment's lookup counts once in each.

use ndlog_lang::value::FxHasher;
use ndlog_lang::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;

/// The 64-bit Fx fingerprint of a projection's values: what the primary
/// index and every secondary index file a row's slot under. Two projections
/// can share one — every table hit is verified against the values of the
/// row in the slab — so a collision costs a comparison, never a wrong
/// answer.
pub(crate) fn fingerprint<'v>(values: impl Iterator<Item = &'v Value>) -> u64 {
    let mut hasher = FxHasher::default();
    values.for_each(|value| value.hash(&mut hasher));
    hasher.finish()
}

/// Hasher of the fingerprint-keyed tables: the key is a hash already.
#[derive(Debug, Clone, Copy, Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("fingerprint tables are keyed by u64");
    }
    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Heap bytes of a hash table, from its capacity: one control byte and one
/// entry per bucket, buckets a power of two at most 7/8 full.
fn table_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    match map.capacity() {
        0 => 0,
        capacity => {
            let buckets = (capacity * 8).div_ceil(7).next_power_of_two();
            buckets * (std::mem::size_of::<(K, V)>() + 1)
        }
    }
}

/// Join-level counters accumulated while firing strands: how many joins
/// went through an index probe vs. a scan, how many bucket lookups were
/// actually executed, and how many stored tuples were examined in total.
/// `tuples_examined` is the paper's computation-overhead proxy: with
/// indexes it is proportional to the number of matches rather than the
/// relation size, and it is counted per *logical* probe (a shared bucket
/// lookup still charges every group member), so it is identical whether or
/// not probes are grouped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Binding environments answered by an index probe (per trigger per
    /// atom, however the triggers are batched).
    pub logical_probes: usize,
    /// Bucket lookups actually executed: `≤ logical_probes`, since the
    /// key-grouped batch path probes each distinct key once per atom per
    /// batch.
    pub distinct_probes: usize,
    /// Joins that fell back to scanning the relation (no bound columns, or
    /// no index declared for the signature), counted per environment.
    pub scans: usize,
    /// Stored tuples examined across all probes and scans, counted per
    /// environment.
    pub tuples_examined: usize,
}

impl std::ops::AddAssign for JoinStats {
    fn add_assign(&mut self, other: JoinStats) {
        self.logical_probes += other.logical_probes;
        self.distinct_probes += other.distinct_probes;
        self.scans += other.scans;
        self.tuples_examined += other.tuples_examined;
    }
}

/// A normalized (sorted, deduplicated) set of bound columns identifying an
/// index.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexSignature(Vec<usize>);

impl IndexSignature {
    /// Normalize an arbitrary column list into a signature.
    pub fn new(cols: &[usize]) -> Self {
        let mut cols = cols.to_vec();
        cols.sort_unstable();
        cols.dedup();
        IndexSignature(cols)
    }

    /// The sorted column indexes.
    pub fn columns(&self) -> &[usize] {
        &self.0
    }

    /// Whether the signature binds no columns (a degenerate "index"
    /// equivalent to a full scan; never materialized).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether every column of this signature appears in `cols` (which
    /// must be sorted ascending): an index on this signature can serve a
    /// lookup binding `cols`, with the leftover columns checked residually.
    pub fn is_covered_by(&self, cols: &[usize]) -> bool {
        // Both sides are sorted ascending, so a single forward pass over
        // `cols` suffices.
        let mut cols = cols.iter();
        self.0.iter().all(|&col| cols.by_ref().any(|&c| c == col))
    }
}

/// What a fingerprint maps to: the one slot filed under it, or the index
/// in [`SlotTable::spill`] of the vector holding the two or more that are.
#[derive(Debug, Clone, Copy)]
enum Slots {
    One(u32),
    Many(u32),
}

/// A hash table from the fingerprint of a projection to the slab slots of
/// the rows carrying it, each run in primary-key value order (see the
/// module docs). The table never sees a value: `same(slot)` tells whether
/// the row in `slot` carries the projection an operation is about.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotTable {
    map: HashMap<u64, Slots, BuildHasherDefault<Prehashed>>,
    /// The slot vectors of the fingerprints filing several rows.
    spill: Vec<Vec<u32>>,
    /// Vacated positions of `spill`, each holding an empty vector.
    spill_free: Vec<u32>,
    /// Filed slots.
    entries: usize,
    /// Distinct projections filed (a fingerprint may serve several).
    runs: usize,
}

/// The part of `slots` that is the run `same` recognizes: empty, at the
/// end, when there is none.
fn run_in(slots: &[u32], same: impl Fn(u32) -> bool) -> Range<usize> {
    let (Some(&first), Some(&last)) = (slots.first(), slots.last()) else {
        return 0..0;
    };
    // Runs are contiguous: both ends in the run means all of it is.
    if same(first) && same(last) {
        return 0..slots.len();
    }
    let Some(start) = slots.iter().position(|&slot| same(slot)) else {
        return slots.len()..slots.len();
    };
    let len = slots[start..]
        .iter()
        .take_while(|&&slot| same(slot))
        .count();
    start..start + len
}

impl SlotTable {
    /// Number of slots filed.
    pub(crate) fn len(&self) -> usize {
        self.entries
    }

    /// Number of distinct projections filed.
    pub(crate) fn run_count(&self) -> usize {
        self.runs
    }

    /// Heap bytes of the map and the slot vectors, from their capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        let vectors = self.spill.iter().map(|slots| slots.capacity() * 4);
        table_bytes(&self.map)
            + self.spill.capacity() * std::mem::size_of::<Vec<u32>>()
            + vectors.sum::<usize>()
            + self.spill_free.capacity() * 4
    }

    /// Every slot filed under `fingerprint`, whatever its projection.
    fn filed_under(&self, fingerprint: u64) -> &[u32] {
        match self.map.get(&fingerprint) {
            None => &[],
            Some(Slots::One(slot)) => std::slice::from_ref(slot),
            Some(&Slots::Many(at)) => &self.spill[at as usize],
        }
    }

    /// The slots whose rows carry the projection `same` recognizes, in
    /// primary-key value order; empty when no row does.
    pub(crate) fn run(&self, fingerprint: u64, same: impl Fn(u32) -> bool) -> &[u32] {
        let slots = self.filed_under(fingerprint);
        &slots[run_in(slots, same)]
    }

    /// File `slot` under `fingerprint`, in the run `same` recognizes — at
    /// the position `place` gives it in that run's key-value order — or as
    /// a new run of its own.
    pub(crate) fn file(
        &mut self,
        fingerprint: u64,
        slot: u32,
        same: impl Fn(u32) -> bool,
        place: impl FnOnce(&[u32]) -> usize,
    ) {
        self.entries += 1;
        let mut entry = match self.map.entry(fingerprint) {
            Entry::Vacant(vacant) => {
                vacant.insert(Slots::One(slot));
                self.runs += 1;
                return;
            }
            Entry::Occupied(entry) => entry,
        };
        let at = match *entry.get() {
            Slots::Many(at) => at,
            Slots::One(other) => {
                let at = self.spill_free.pop().unwrap_or_else(|| {
                    self.spill.push(Vec::new());
                    u32::try_from(self.spill.len() - 1).expect("relation overflow")
                });
                self.spill[at as usize].push(other);
                entry.insert(Slots::Many(at));
                at
            }
        };
        let slots = &mut self.spill[at as usize];
        debug_assert!(!slots.contains(&slot), "slot {slot} filed twice");
        let run = run_in(slots, same);
        if run.is_empty() {
            self.runs += 1;
        }
        let at = run.start + place(&slots[run]);
        slots.insert(at, slot);
    }

    /// Unfile `slot` from under `fingerprint`; `same` recognizes the other
    /// rows of its run. Returns whether the slot was filed.
    pub(crate) fn unfile(
        &mut self,
        fingerprint: u64,
        slot: u32,
        same: impl Fn(u32) -> bool,
    ) -> bool {
        let Entry::Occupied(mut entry) = self.map.entry(fingerprint) else {
            return false;
        };
        match *entry.get() {
            Slots::One(only) if only != slot => return false,
            Slots::One(_) => {
                entry.remove();
                self.runs -= 1;
            }
            Slots::Many(at) => {
                let slots = &mut self.spill[at as usize];
                let Some(pos) = slots.iter().position(|&s| s == slot) else {
                    return false;
                };
                slots.remove(pos);
                // Its run is contiguous: gone unless a neighbour is of it.
                let before = pos.checked_sub(1).map(|i| slots[i]);
                if !before.into_iter().chain(slots.get(pos).copied()).any(same) {
                    self.runs -= 1;
                }
                if let [last] = slots[..] {
                    // Back inline; the vector's block goes with it.
                    self.spill[at as usize] = Vec::new();
                    self.spill_free.push(at);
                    entry.insert(Slots::One(last));
                }
            }
        }
        self.entries -= 1;
        true
    }

    /// Check the table's own bookkeeping and hand every fingerprint's slots
    /// to `check_runs`, which returns how many runs they form (or what is
    /// wrong with them). For [`crate::relation::Relation::check_invariants`].
    pub(crate) fn check(
        &self,
        mut check_runs: impl FnMut(u64, &[u32]) -> Result<usize, String>,
    ) -> Result<(), String> {
        let (mut entries, mut runs, mut spilled) = (0, 0, 0);
        for (&fingerprint, slots) in &self.map {
            let filed = self.filed_under(fingerprint);
            if let Slots::Many(at) = slots {
                spilled += 1;
                // (A vacated vector is empty, so this covers the free list.)
                if filed.len() < 2 {
                    return Err(format!("spilled vector {at} holds {filed:?}"));
                }
            }
            entries += filed.len();
            runs += check_runs(fingerprint, filed)?;
        }
        let vacant = |&at: &u32| self.spill.get(at as usize).is_some_and(Vec::is_empty);
        if (entries, runs) != (self.entries, self.runs)
            || spilled + self.spill_free.len() != self.spill.len()
            || !self.spill_free.iter().all(vacant)
        {
            let (counted, counted_runs) = (self.entries, self.runs);
            let (vectors, free) = (self.spill.len(), &self.spill_free);
            return Err(format!(
                "{entries} slots in {runs} runs filed, {counted} in {counted_runs} counted; \
                 {spilled} of {vectors} vectors in use, free {free:?}"
            ));
        }
        Ok(())
    }
}

/// A secondary index: the rows of a relation filed by their projection
/// onto a bound-column signature.
#[derive(Debug, Clone)]
pub(crate) struct SecondaryIndex {
    pub(crate) signature: IndexSignature,
    pub(crate) table: SlotTable,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows are `(projection, key)` pairs numbered by slot; a row's
    /// fingerprint is its projection modulo `classes`, so tests choose
    /// which projections collide.
    struct Rows {
        rows: Vec<(u64, u64)>,
        classes: u64,
        table: SlotTable,
    }

    impl Rows {
        fn new(classes: u64) -> Self {
            let (rows, table) = (Vec::new(), SlotTable::default());
            Rows {
                rows,
                classes,
                table,
            }
        }

        fn file(&mut self, projection: u64, key: u64) -> u32 {
            let slot = self.rows.len() as u32;
            self.rows.push((projection, key));
            let rows = &self.rows;
            self.table.file(
                projection % self.classes,
                slot,
                |other| rows[other as usize].0 == projection,
                |run| run.partition_point(|&other| rows[other as usize].1 < key),
            );
            slot
        }

        fn unfile(&mut self, slot: u32) -> bool {
            let (rows, projection) = (&self.rows, self.rows[slot as usize].0);
            let same = |other: u32| rows[other as usize].0 == projection;
            self.table.unfile(projection % self.classes, slot, same)
        }

        fn probe(&self, projection: u64) -> &[u32] {
            let same = |slot: u32| self.rows[slot as usize].0 == projection;
            self.table.run(projection % self.classes, same)
        }

        /// Runs are contiguous, each in key order, and the counters agree.
        fn check(&self) {
            let check = self.table.check(|fingerprint, slots| {
                let row = |slot: &u32| self.rows[*slot as usize];
                let mut runs: Vec<u64> = slots.iter().map(|s| row(s).0).collect();
                assert!(runs.iter().all(|p| p % self.classes == fingerprint));
                assert!(slots
                    .windows(2)
                    .all(|w| row(&w[0]).0 != row(&w[1]).0 || row(&w[0]).1 < row(&w[1]).1));
                runs.dedup();
                let contiguous = runs.len();
                runs.sort_unstable();
                runs.dedup();
                assert_eq!(runs.len(), contiguous, "a run is split: {slots:?}");
                Ok(contiguous)
            });
            check.unwrap();
        }
    }

    #[test]
    fn fingerprints_are_seedless_and_spread_float_bit_patterns() {
        let hash = |v: &Value| fingerprint(std::iter::once(v));
        assert_eq!(hash(&Value::Int(3)), hash(&Value::Float(3.0)));
        assert_eq!(hash(&Value::str("abc")), hash(&Value::str("abc")));
        // Small integers hash through their f64 bits, whose low 32+ bits
        // are zero: the bits the table uses — the low ones for the bucket,
        // the top seven for the tag — must still vary.
        let distinct = |part: fn(u64) -> u64| {
            let parts: std::collections::BTreeSet<u64> =
                (0..256).map(|i| part(hash(&Value::Int(i)))).collect();
            parts.len()
        };
        assert!(distinct(|h| h & 0xff) > 128);
        assert!(distinct(|h| h >> 57) > 64);
        // A projection is its columns in order.
        let (one, two) = (Value::Int(1), Value::Int(2));
        assert_ne!(
            fingerprint([&one, &two].into_iter()),
            fingerprint([&two, &one].into_iter())
        );
    }

    #[test]
    fn signature_normalizes() {
        let sig = IndexSignature::new(&[2, 0, 2, 1]);
        assert_eq!(sig.columns(), &[0, 1, 2]);
        assert!(!sig.is_empty());
        assert!(IndexSignature::new(&[]).is_empty());
        assert_eq!(IndexSignature::new(&[1, 0]), IndexSignature::new(&[0, 1]));
    }

    #[test]
    fn signature_coverage() {
        let sig = IndexSignature::new(&[0, 2]);
        assert!(sig.is_covered_by(&[0, 1, 2]));
        assert!(sig.is_covered_by(&[0, 2]));
        assert!(!sig.is_covered_by(&[0, 1]));
        assert!(!sig.is_covered_by(&[2]));
    }

    #[test]
    fn file_probe_unfile_roundtrip() {
        let mut t = Rows::new(u64::MAX);
        let late = t.file(1, 20);
        let early = t.file(1, 10);
        let other = t.file(2, 30);
        assert_eq!((t.table.len(), t.table.run_count()), (3, 2));
        assert_eq!(t.probe(1), &[early, late], "in `place` order");
        assert_eq!(t.probe(2), &[other]);
        assert!(t.probe(9).is_empty());
        t.check();

        assert!(t.unfile(early));
        assert!(!t.unfile(early), "double unfile is a no-op");
        assert_eq!(t.probe(1), &[late]);
        assert!(t.unfile(late));
        assert_eq!(t.table.run_count(), 1, "empty runs are dropped");
        assert!(t.unfile(other));
        assert_eq!((t.table.len(), t.table.run_count()), (0, 0));
        assert!(t.table.map.is_empty());
        t.check();
    }

    #[test]
    fn a_lone_slot_owns_no_vector_and_a_shrunken_bucket_gives_its_back() {
        let mut t = Rows::new(u64::MAX);
        let slots: Vec<u32> = (0..3).map(|key| t.file(7, key)).collect();
        t.file(8, 0);
        assert_eq!(t.table.spill.len(), 1, "only the shared fingerprint spills");
        assert!(t.unfile(slots[0]) && t.unfile(slots[2]));
        assert_eq!(t.probe(7), &[slots[1]]);
        assert!(t.table.spill[0].capacity() == 0 && t.table.spill_free == [0]);
        t.check();
        // The vacated position is the next one used.
        t.file(8, 1);
        assert_eq!(t.table.spill.len(), 1);
        assert!(t.table.spill_free.is_empty());
        t.check();
    }

    #[test]
    fn colliding_projections_keep_separate_runs() {
        // Three fingerprints for many projections, down to one for all.
        for classes in [3, 1] {
            let mut t = Rows::new(classes);
            let mut filed = Vec::new();
            for i in 0..40u64 {
                // Keys arrive out of order within each projection.
                filed.push(t.file(i % 7, (i * 13) % 40));
                t.check();
            }
            assert_eq!((t.table.len(), t.table.run_count()), (40, 7));
            for projection in 0..7 {
                let run = t.probe(projection);
                assert_eq!(run.len(), 40 / 7 + usize::from(projection < 40 % 7));
                assert!(run.iter().all(|&s| t.rows[s as usize].0 == projection));
                assert!(run
                    .windows(2)
                    .all(|w| t.rows[w[0] as usize].1 < t.rows[w[1] as usize].1));
            }
            assert!(t.probe(7).is_empty(), "a colliding stranger finds nothing");
            for (i, slot) in filed.into_iter().enumerate() {
                assert!(t.unfile(slot));
                t.check();
                assert_eq!(t.table.len(), 39 - i);
            }
            assert_eq!(t.table.run_count(), 0);
            assert!(t.table.map.is_empty());
        }
    }
}

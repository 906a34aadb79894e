//! The relation-local [`Value`] dictionary.
//!
//! Every [`crate::relation::Relation`] owns one `Dictionary` mapping each
//! distinct value stored in any of its columns to a fixed-size
//! [`ValueId`]. A stored row keeps its column ids beside its tuple — the
//! only place a key's or a projection's ids are ever written down — and the
//! primary index and every secondary index file the row's slot under the
//! 64-bit [`fingerprint`] of the ids they project ([`crate::index`]). The
//! hot paths — duplicate detection, membership tests, bucket lookups,
//! residual filtering — hash and compare `u32`s. Interning a path-vector
//! column is O(1) too: a list caches its hash, and its equality with the
//! entry it finds stops at the tail the two share.
//!
//! # Semantics
//!
//! Id equality is exactly [`Value`] equality *within one relation*: two
//! values map to the same id if and only if `a == b`. `Value`'s equality
//! conflates numerically equal integers and floats
//! (`Int(3) == Float(3.0)`), so both map to one id — which is what keeps a
//! probe with an integer key finding a tuple stored with a float. Ids of
//! different relations are unrelated.
//!
//! # Lifetime
//!
//! The dictionary tracks stored data, not history. Each id carries a
//! reference count — one per row column holding it — and the id, with its
//! map entry, is freed when the last such row is released, then reused for
//! the next new value. That is safe because a row is unfiled from the
//! primary index and from every secondary index before its ids are
//! released, and the index tables hold slots, never ids: the only copies of
//! an id are in the rows that count as its references.
//! Read paths (`Dictionary::lookup`) never add an entry: a value without
//! an id is stored in no row, so the probe answers "no match".
//!
//! There is no process-global state and no lock: a dictionary belongs to
//! its relation, is mutated only through `&mut Relation`, and is dropped
//! with the engine that owns the store.
//!
//! # Determinism
//!
//! Ids and slab slots depend on insertion history and carry no relation to
//! `Value`'s ordering. Nothing ordered by them is observable: they are
//! hashed and compared for equality only, and every iteration order the
//! engines expose is by primary-key *value* (see [`crate::index`]). The
//! dictionary map and the fingerprints use `FxHasher`
//! ([`ndlog_lang::value::FxHasher`]), a seedless multiply-rotate hasher, so
//! two runs of one input build identical tables and take the same time.

pub(crate) use ndlog_lang::value::{FxBuild, FxHasher};
use ndlog_lang::Value;
use std::collections::HashMap;
use std::hash::Hasher;

/// A fixed-size handle to a value of one relation's dictionary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(u32);

impl ValueId {
    /// The raw id (useful for diagnostics).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// The 64-bit Fx fingerprint of an id projection: what the primary index
/// and every secondary index file a row's slot under. Two projections can
/// share one — every table hit is verified against the ids of the row in
/// the slab — so a collision costs a comparison, never a wrong answer.
pub(crate) fn fingerprint(ids: impl Iterator<Item = ValueId>) -> u64 {
    let mut hasher = FxHasher::default();
    ids.for_each(|id| hasher.write_u32(id.0));
    hasher.finish()
}

/// Hasher of the fingerprint-keyed tables: the key is a hash already.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Prehashed(u64);

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
pub(crate) fn table_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    match map.capacity() {
        0 => 0,
        capacity => {
            let buckets = (capacity * 8).div_ceil(7).next_power_of_two();
            buckets * (std::mem::size_of::<(K, V)>() + 1)
        }
    }
}

/// The ids of one tuple or key, inline up to [`IdBuf::INLINE`] columns:
/// a stored row's column ids and the transient projections of the lookup
/// paths (no table keeps one). Only a wider tuple costs an allocation of
/// its own. Dereferences to the `[ValueId]` it holds.
#[derive(Debug, Clone)]
pub(crate) enum IdBuf {
    Inline(u8, [ValueId; IdBuf::INLINE]),
    Heap(Vec<ValueId>),
}

impl IdBuf {
    const INLINE: usize = 8;

    /// An empty buffer able to take `n` ids.
    fn with_capacity(n: usize) -> Self {
        if n <= Self::INLINE {
            IdBuf::Inline(0, [ValueId::default(); Self::INLINE])
        } else {
            IdBuf::Heap(Vec::with_capacity(n))
        }
    }

    /// Append an id (within the capacity asked for).
    fn push(&mut self, id: ValueId) {
        match self {
            IdBuf::Inline(len, ids) => {
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            IdBuf::Heap(ids) => ids.push(id),
        }
    }

    /// The ids an iterator yields.
    pub(crate) fn collect(ids: impl ExactSizeIterator<Item = ValueId>) -> Self {
        let mut buf = Self::with_capacity(ids.len());
        ids.for_each(|id| buf.push(id));
        buf
    }
}

impl std::ops::Deref for IdBuf {
    type Target = [ValueId];
    fn deref(&self) -> &[ValueId] {
        match self {
            IdBuf::Inline(len, ids) => &ids[..usize::from(*len)],
            IdBuf::Heap(ids) => ids,
        }
    }
}

/// One relation's `Value → ValueId` map with per-id reference counts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dictionary {
    ids: HashMap<Value, u32, FxBuild>,
    /// Row columns holding each id; 0 = the id is on the free list.
    refs: Vec<u32>,
    free: Vec<u32>,
}

impl Dictionary {
    /// Number of distinct values currently held.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Heap bytes of the map, the reference counts and the free list, from
    /// their capacities. The values themselves are shared with the stored
    /// tuples and counted with neither.
    pub(crate) fn heap_bytes(&self) -> usize {
        table_bytes(&self.ids) + (self.refs.capacity() + self.free.capacity()) * 4
    }

    /// Ids assigned so far, held or free: the high-water mark of `len`.
    pub(crate) fn id_space(&self) -> usize {
        self.refs.len()
    }

    /// The id of a held value; `None` means no stored row carries it.
    pub(crate) fn lookup(&self, value: &Value) -> Option<ValueId> {
        self.ids.get(value).copied().map(ValueId)
    }

    /// [`Dictionary::lookup`] over a whole tuple or key; `None` as soon as
    /// one value has no id.
    pub(crate) fn lookup_all<'v>(
        &self,
        values: impl ExactSizeIterator<Item = &'v Value>,
    ) -> Option<IdBuf> {
        let mut ids = IdBuf::with_capacity(values.len());
        for value in values {
            ids.push(self.lookup(value)?);
        }
        Some(ids)
    }

    /// The id of `value`, assigned on first sight, with one more reference.
    pub(crate) fn acquire(&mut self, value: &Value) -> ValueId {
        if let Some(&id) = self.ids.get(value) {
            self.refs[id as usize] += 1;
            return ValueId(id);
        }
        let id = self.free.pop().unwrap_or_else(|| {
            self.refs.push(0);
            u32::try_from(self.refs.len() - 1).expect("dictionary overflow")
        });
        self.refs[id as usize] = 1;
        self.ids.insert(value.clone(), id);
        ValueId(id)
    }

    /// [`Dictionary::acquire`] every column of a tuple.
    pub(crate) fn acquire_all(&mut self, values: &[Value]) -> IdBuf {
        IdBuf::collect(values.iter().map(|value| self.acquire(value)))
    }

    /// Drop one reference per column of a tuple; an id nobody holds any
    /// more is freed with its map entry. `ids` must be what
    /// [`Dictionary::acquire_all`] returned for `values`.
    pub(crate) fn release_all(&mut self, values: &[Value], ids: &[ValueId]) {
        debug_assert_eq!(values.len(), ids.len());
        for (value, id) in values.iter().zip(ids) {
            let refs = &mut self.refs[id.0 as usize];
            *refs -= 1;
            if *refs == 0 {
                self.ids.remove(value);
                self.free.push(id.0);
            }
        }
    }

    /// Check the map against the reference counts: `held[id]` is the number
    /// of row columns the owner found holding `id`, each of which it has
    /// looked up here, for every id in [`Dictionary::id_space`].
    pub(crate) fn check(&self, held: &[u32]) -> Result<(), String> {
        if let Some(id) = (0..self.refs.len()).find(|&id| held.get(id) != Some(&self.refs[id])) {
            let (refs, seen) = (self.refs[id], held.get(id));
            return Err(format!(
                "id {id}: refcount {refs}, {seen:?} columns hold it"
            ));
        }
        let held = held.iter().filter(|&&columns| columns > 0).count();
        let free = &self.free;
        if held != self.ids.len()
            || held + free.len() != self.refs.len()
            || free.iter().any(|&id| self.refs[id as usize] > 0)
        {
            let (entries, ids) = (self.ids.len(), self.refs.len());
            return Err(format!(
                "{entries} entries, {held} held ids, free {free:?} of {ids}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_net::NodeAddr;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn id_equality_mirrors_value_equality() {
        let mut d = Dictionary::default();
        let a = d.acquire(&Value::Int(42));
        assert_eq!(d.acquire(&Value::Int(42)), a, "same value, same id");
        assert_ne!(d.acquire(&Value::Int(43)), a);
        // Numeric conflation: Int(3) == Float(3.0) => one id.
        let i3 = d.acquire(&Value::Int(3));
        assert_eq!(d.acquire(&Value::Float(3.0)), i3);
        assert_ne!(d.acquire(&Value::Float(3.5)), i3);
        d.check(&[2, 1, 2, 1]).expect("42 twice, 43, 3 twice, 3.5");
    }

    #[test]
    fn every_kind_of_value_round_trips() {
        let samples = vec![
            Value::Addr(NodeAddr(7)),
            Value::Int(-9),
            Value::Float(2.5),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::str("a string"),
            Value::list(vec![Value::addr(1u32), Value::addr(2u32), Value::Int(5)]),
            Value::nil(),
        ];
        let mut d = Dictionary::default();
        let ids = d.acquire_all(&samples);
        assert_eq!(d.len(), samples.len(), "all distinct");
        for (v, id) in samples.iter().zip(ids.iter()) {
            assert_eq!(d.lookup(v), Some(*id), "lookup of {v}");
        }
        assert_eq!(d.lookup_all(samples.iter()).as_deref(), Some(&ids[..]));
    }

    #[test]
    fn lookup_never_adds_an_entry() {
        let mut d = Dictionary::default();
        let novel = Value::str("never stored");
        assert_eq!(d.lookup(&novel), None);
        assert_eq!(d.len(), 0, "lookup must not intern");
        let known = Value::Int(1);
        d.acquire(&known);
        assert!(d.lookup_all([&known, &novel].into_iter()).is_none());
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn last_release_frees_the_id_for_reuse() {
        let mut d = Dictionary::default();
        let row = vec![Value::Int(1), Value::str("x"), Value::Int(1)];
        let ids = d.acquire_all(&row);
        assert_eq!(d.len(), 2);
        d.check(&[2, 1]).expect("one reference per column");
        let again = d.acquire_all(&row);
        d.release_all(&row, &again);
        assert_eq!(d.len(), 2, "the first row still holds both values");
        d.release_all(&row, &ids);
        assert_eq!(d.len(), 0);
        assert_eq!(d.lookup(&Value::Int(1)), None);
        d.check(&[0, 0]).unwrap();
        // Freed ids are handed out again: the table does not grow.
        let reused = d.acquire_all(&[Value::str("y"), Value::Int(2)]);
        assert!(reused.iter().all(|id| id.raw() < 2));
        d.check(&[1, 1]).unwrap();
    }

    #[test]
    fn long_tuples_spill_to_the_heap() {
        let mut d = Dictionary::default();
        let wide: Vec<Value> = (0..20).map(Value::Int).collect();
        let ids = d.acquire_all(&wide);
        assert_eq!(ids.len(), 20);
        assert!(matches!(ids, IdBuf::Heap(_)));
        assert!(matches!(d.acquire_all(&wide[..8]), IdBuf::Inline(8, _)));
    }

    #[test]
    fn dictionaries_share_nothing() {
        // Two relations' dictionaries number their values independently,
        // and dropping one leaves the other intact: no global table.
        let (mut a, mut b) = (Dictionary::default(), Dictionary::default());
        let x = Value::str("x");
        b.acquire(&Value::Int(0));
        let in_a = a.acquire(&x);
        let in_b = b.acquire(&x);
        assert_eq!(in_a.raw(), 0);
        assert_eq!(in_b.raw(), 1);
        drop(a);
        assert_eq!(b.lookup(&x), Some(in_b));
    }

    #[test]
    fn hasher_is_seedless_and_spreads_float_bit_patterns() {
        let hash = |v: &Value| FxBuild::default().hash_one(v);
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
        let mut h = FxHasher::default();
        [1u32, 2, 3].hash(&mut h);
        assert_ne!(h.finish(), 0);
    }
}

//! Secondary hash indexes over stored relations.
//!
//! The P2 dataflow fires a rule strand once per arriving delta and joins it
//! against the *stored* tables of the other body predicates. Without
//! indexes every such join is a full scan — O(|relation|) work per binding
//! environment — which makes per-delta work quadratic-ish on the hot path
//! of every experiment. This module provides the storage half of the fix
//! (the compilation half is [`crate::strand::ProbePlan`]):
//!
//! * an [`IndexSignature`] names a set of columns that a join binds to
//!   concrete values (a *bound-column signature*, the same notion index-
//!   driven homomorphism search uses for conceptual-graph matching);
//! * a [`SecondaryIndex`] maps each distinct projection of a relation onto
//!   that signature to a [`Bucket`] holding the matching tuples, so a
//!   probe touches exactly the matching tuples;
//! * [`crate::relation::Relation`] maintains its indexes incrementally on
//!   insert, key-replacement, deletion and soft-state expiry, and answers
//!   [`crate::relation::Relation::probe`] in O(matches).
//!
//! Indexes are declared once per program (the evaluator and the per-node
//! engines collect every compiled strand's signatures up front), never per
//! join.
//!
//! # Interned keys, columnar buckets
//!
//! Bucket keys are **interned**: a projection is mapped through the global
//! [`crate::intern`] table to a fixed-size `[ValueId]`, so maintaining or
//! probing an index hashes and compares `u32` ids instead of whole values
//! (a path-vector column no longer walks its list per index operation),
//! and the bucket map never clones projected `Value`s. Probe keys use the
//! read-only [`crate::intern::lookup`] path: a never-interned probe value
//! cannot match any stored tuple, so the probe answers "empty" without
//! growing the table.
//!
//! Each [`Bucket`] is **columnar** (struct-of-arrays): parallel arrays of
//! the member tuples' shared `Arc<[Value]>` primary keys (one allocation
//! per stored tuple, reference-bumped into every index — kept only for
//! deterministic ordering and materialization), their storage timestamps,
//! and their full column values as contiguous per-column `ValueId` arrays.
//! Visibility (`seq <= seq_limit`) and residual-column filtering therefore
//! walk dense `u64`/`u32` arrays; only the surviving candidates pay the
//! primary-key map lookup that materializes the stored tuple. The arrays
//! are sorted by primary-key *value* (never by id), so probe results
//! iterate in deterministic order and simulation runs stay bit-for-bit
//! reproducible. Buckets accumulating tuples of differing arities (only
//! possible in hand-built test stores) degrade to key/seq arrays with
//! value-compared residuals.
//!
//! Maintenance of a columnar bucket is O(bucket size) per insert/remove
//! (sorted `Vec` splicing across the parallel arrays) versus the old
//! `BTreeSet`'s O(log n) — a deliberate trade: probe-side dense walks
//! dominate maintenance in every measured workload, and real buckets are
//! match sets (tens to hundreds of entries), not whole relations. A
//! relation bulk-loading millions of tuples under one projection would
//! want a hybrid (tree beyond a size threshold) — noted as a follow-on
//! in the ROADMAP.
//!
//! # Probe accounting
//!
//! [`JoinStats`] counts probes at two granularities: `logical_probes` is
//! the number of binding environments answered by an index (one per
//! trigger per atom — the historical notion, preserved so differential
//! tests can compare evaluation modes), while `distinct_probes` is the
//! number of bucket lookups actually executed. The batch path's
//! key-grouped probe sharing ([`crate::batch`]) answers a whole group of
//! same-key environments with one bucket lookup, so `distinct_probes ≤
//! logical_probes` there; the tuple-at-a-time path performs one lookup per
//! environment, so the two counters coincide.

use crate::intern::{self, ValueId};
use ndlog_lang::Value;
use std::collections::HashMap;
use std::sync::Arc;

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
    /// atom — identical across batch and tuple-at-a-time firing).
    pub logical_probes: usize,
    /// Bucket lookups actually executed. Equal to `logical_probes` on the
    /// tuple-at-a-time path; `≤ logical_probes` on the key-grouped batch
    /// path, which probes each distinct key once per atom per batch.
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

/// A bucket: the tuples sharing one projection, stored columnar
/// (struct-of-arrays) in deterministic primary-key-value order. See the
/// module docs for the layout.
#[derive(Debug, Clone)]
pub struct Bucket {
    /// Shared primary keys, sorted by value (deterministic probe order).
    keys: Vec<Arc<[Value]>>,
    /// Parallel: the storage timestamp of each member tuple, for dense
    /// visibility filtering.
    seqs: Vec<u64>,
    /// Columnar member payload: `cols[c][i]` is the interned id of column
    /// `c` of member `i`. Empty once the bucket has degraded (mixed
    /// arities).
    cols: Vec<Vec<ValueId>>,
    /// Whether `cols` is authoritative. A bucket degrades permanently when
    /// tuples of differing arities are filed under it (hand-built test
    /// stores only); residual filtering then falls back to comparing
    /// materialized values.
    columnar: bool,
}

impl Default for Bucket {
    /// An empty bucket, columnar until proven mixed-arity.
    fn default() -> Self {
        Bucket {
            keys: Vec::new(),
            seqs: Vec::new(),
            cols: Vec::new(),
            columnar: true,
        }
    }
}

impl Bucket {
    /// Number of member tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the bucket has no members.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The member primary keys in deterministic (value-sorted) order.
    pub fn keys(&self) -> impl Iterator<Item = &Arc<[Value]>> {
        self.keys.iter()
    }

    /// The member primary key at `i`.
    pub fn key(&self, i: usize) -> &Arc<[Value]> {
        &self.keys[i]
    }

    /// The storage timestamp of member `i`.
    pub fn seq(&self, i: usize) -> u64 {
        self.seqs[i]
    }

    /// Whether the columnar payload is authoritative (uniform arity).
    pub fn is_columnar(&self) -> bool {
        self.columnar
    }

    /// The member arity when columnar.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The dense id column `c`, parallel to `keys` (columnar buckets only).
    pub fn column(&self, c: usize) -> Option<&[ValueId]> {
        self.cols.get(c).map(Vec::as_slice)
    }

    /// File a member under its primary key, keeping the arrays sorted.
    /// Returns false when the key is already present (idempotent add).
    fn insert(&mut self, primary_key: Arc<[Value]>, tuple_ids: &[ValueId], seq: u64) -> bool {
        let pos = match self
            .keys
            .binary_search_by(|k| k.as_ref().cmp(primary_key.as_ref()))
        {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        if self.columnar {
            if self.keys.is_empty() {
                self.cols = vec![Vec::new(); tuple_ids.len()];
            } else if tuple_ids.len() != self.cols.len() {
                // Mixed arities: degrade to key/seq arrays for good.
                self.cols.clear();
                self.columnar = false;
            }
        }
        self.keys.insert(pos, primary_key);
        self.seqs.insert(pos, seq);
        if self.columnar {
            for (c, col) in self.cols.iter_mut().enumerate() {
                col.insert(pos, tuple_ids[c]);
            }
        }
        true
    }

    /// Remove the member with this primary key. Returns whether it was
    /// present.
    fn remove(&mut self, primary_key: &[Value]) -> bool {
        let Ok(pos) = self.keys.binary_search_by(|k| k.as_ref().cmp(primary_key)) else {
            return false;
        };
        self.keys.remove(pos);
        self.seqs.remove(pos);
        for col in &mut self.cols {
            col.remove(pos);
        }
        true
    }
}

/// A hash index from an interned bound-column projection to the columnar
/// bucket of tuples carrying it.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    signature: IndexSignature,
    buckets: HashMap<Box<[ValueId]>, Bucket>,
    /// Total number of (projection, primary-key) entries, for accounting.
    entries: usize,
    /// Reusable id scratch for the maintenance (write) path.
    scratch: Vec<ValueId>,
}

impl SecondaryIndex {
    /// An empty index over the given signature.
    pub fn new(signature: IndexSignature) -> Self {
        SecondaryIndex {
            signature,
            buckets: HashMap::new(),
            entries: 0,
            scratch: Vec::new(),
        }
    }

    /// The signature this index serves.
    pub fn signature(&self) -> &IndexSignature {
        &self.signature
    }

    /// Number of (projection, primary-key) entries currently indexed.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Register a stored tuple under its (shared) primary key. `tuple_ids`
    /// are the interned ids of *all* the tuple's columns (the relation
    /// interns each stored tuple once and shares the ids across its
    /// indexes); the bucket key is the projection onto this index's
    /// signature, and the full ids become the bucket's columnar payload.
    /// Tuples lacking a signature column (shorter arity) are skipped —
    /// they stay unindexed and unreachable by probes on this signature,
    /// matching residual-scan semantics.
    pub fn add(&mut self, tuple_ids: &[ValueId], primary_key: Arc<[Value]>, seq: u64) {
        self.scratch.clear();
        for &c in self.signature.columns() {
            match tuple_ids.get(c) {
                Some(&id) => self.scratch.push(id),
                None => return,
            }
        }
        let bucket = self
            .buckets
            .entry(self.scratch.as_slice().into())
            .or_default();
        if bucket.insert(primary_key, tuple_ids, seq) {
            self.entries += 1;
        }
    }

    /// Remove a stored tuple's projection entry. Returns whether an entry
    /// was actually removed (false indicates the index was already
    /// consistent, e.g. a stale-deletion no-op). Resolves the projection
    /// read-only: a projection containing a never-interned value cannot
    /// have an entry, so removals never grow the intern table.
    pub fn remove(&mut self, projection: &[&Value], primary_key: &[Value]) -> bool {
        if !intern::lookup_refs_into(projection, &mut self.scratch) {
            return false;
        }
        let Some(bucket) = self.buckets.get_mut(self.scratch.as_slice()) else {
            return false;
        };
        let removed = bucket.remove(primary_key);
        if removed {
            self.entries -= 1;
            if bucket.is_empty() {
                self.buckets.remove(self.scratch.as_slice());
            }
        }
        removed
    }

    /// The primary keys whose tuples project to `key_values`, in
    /// deterministic (sorted) order. Empty when no tuple matches.
    pub fn probe<'i>(&'i self, key_values: &[Value]) -> impl Iterator<Item = &'i Arc<[Value]>> {
        self.bucket(key_values).into_iter().flat_map(Bucket::keys)
    }

    /// The bucket for one projection, if any — the eager form of
    /// [`SecondaryIndex::probe`], used when the caller needs an iterator
    /// that borrows only the index (not the probe key). Probe values are
    /// resolved through the read-only interner path (one lock per probe,
    /// a reusable thread-local id buffer, no allocation), so a
    /// never-stored value answers `None` without growing the intern table.
    pub fn bucket(&self, key_values: &[Value]) -> Option<&Bucket> {
        thread_local! {
            static PROBE_IDS: std::cell::RefCell<Vec<ValueId>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        PROBE_IDS.with(|ids| {
            let mut ids = ids.borrow_mut();
            if !intern::lookup_into(key_values, &mut ids) {
                return None;
            }
            self.buckets.get(ids.as_slice())
        })
    }

    /// Number of distinct projections (buckets).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Number of primary keys filed under one projection (0 when absent):
    /// the tuples a probe on `key_values` examines.
    pub fn bucket_size(&self, key_values: &[Value]) -> usize {
        self.bucket(key_values).map_or(0, Bucket::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn vals(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    fn key(xs: &[i64]) -> Arc<[Value]> {
        vals(xs).into()
    }

    /// File `tuple` (which doubles as its own primary key, as in keyless
    /// relations) with a synthetic seq.
    fn add(idx: &mut SecondaryIndex, tuple: &[i64], seq: u64) {
        let t = Tuple::new(vals(tuple));
        let refs: Vec<&Value> = t.values().iter().collect();
        let mut ids = Vec::new();
        intern::intern_into(&refs, &mut ids);
        idx.add(&ids, key(tuple), seq);
    }

    fn remove(idx: &mut SecondaryIndex, tuple: &[i64]) -> bool {
        let t = vals(tuple);
        let proj: Vec<&Value> = idx.signature().columns().iter().map(|&c| &t[c]).collect();
        idx.remove(&proj, &t)
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
    fn add_probe_remove_roundtrip() {
        let mut idx = SecondaryIndex::new(IndexSignature::new(&[0]));
        add(&mut idx, &[1, 10], 1);
        add(&mut idx, &[1, 20], 2);
        add(&mut idx, &[2, 30], 3);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.bucket_count(), 2);

        let hits: Vec<&[Value]> = idx.probe(&vals(&[1])).map(|k| k.as_ref()).collect();
        assert_eq!(hits, vec![&vals(&[1, 10])[..], &vals(&[1, 20])[..]]);
        assert_eq!(idx.probe(&vals(&[9])).count(), 0);

        assert!(remove(&mut idx, &[1, 10]));
        assert!(!remove(&mut idx, &[1, 10]), "double remove is a no-op");
        assert_eq!(idx.probe(&vals(&[1])).count(), 1);
        assert!(remove(&mut idx, &[1, 20]));
        assert_eq!(idx.bucket_count(), 1, "empty buckets are dropped");
        assert!(remove(&mut idx, &[2, 30]));
        assert!(idx.is_empty());
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let mut idx = SecondaryIndex::new(IndexSignature::new(&[1]));
        add(&mut idx, &[0, 5], 1);
        add(&mut idx, &[0, 5], 2);
        assert_eq!(idx.len(), 1);
        let bucket = idx.bucket(&vals(&[5])).unwrap();
        assert_eq!(bucket.seq(0), 1, "the original entry keeps its seq");
    }

    #[test]
    fn buckets_are_columnar_and_carry_seqs() {
        let mut idx = SecondaryIndex::new(IndexSignature::new(&[1]));
        add(&mut idx, &[7, 3, 40], 11);
        add(&mut idx, &[5, 3, 30], 12);
        let bucket = idx.bucket(&vals(&[3])).unwrap();
        assert!(bucket.is_columnar());
        assert_eq!(bucket.arity(), 3);
        assert_eq!(bucket.len(), 2);
        // Members sort by primary-key value: [5,3,30] before [7,3,40].
        assert_eq!(bucket.key(0).as_ref(), &vals(&[5, 3, 30])[..]);
        assert_eq!(bucket.seq(0), 12);
        assert_eq!(bucket.seq(1), 11);
        // The dense columns are parallel to the keys and resolve back to
        // the stored values.
        let col2 = bucket.column(2).unwrap();
        assert_eq!(col2.len(), 2);
        assert_eq!(intern::resolve(col2[0]), Value::Int(30));
        assert_eq!(intern::resolve(col2[1]), Value::Int(40));
        assert!(bucket.column(3).is_none());
    }

    #[test]
    fn mixed_arity_bucket_degrades_but_stays_correct() {
        let mut idx = SecondaryIndex::new(IndexSignature::new(&[0]));
        add(&mut idx, &[9, 1], 1);
        add(&mut idx, &[9, 1, 2], 2);
        let bucket = idx.bucket(&vals(&[9])).unwrap();
        assert!(!bucket.is_columnar(), "mixed arities degrade the bucket");
        assert_eq!(bucket.len(), 2);
        let hits: Vec<&[Value]> = idx.probe(&vals(&[9])).map(|k| k.as_ref()).collect();
        assert_eq!(hits.len(), 2);
        assert!(remove(&mut idx, &[9, 1]));
        assert!(remove(&mut idx, &[9, 1, 2]));
        assert!(idx.is_empty());
    }

    #[test]
    fn short_tuples_stay_unindexed() {
        let mut idx = SecondaryIndex::new(IndexSignature::new(&[2]));
        add(&mut idx, &[1], 1);
        assert!(idx.is_empty(), "tuples lacking the column are skipped");
        add(&mut idx, &[1, 2, 3], 2);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn never_interned_probe_value_is_an_empty_bucket() {
        let mut idx = SecondaryIndex::new(IndexSignature::new(&[0]));
        add(&mut idx, &[3, 1], 1);
        // A value that was never stored anywhere cannot match; the probe
        // must answer without interning it.
        let novel = Value::str("index-test-never-stored-77ab");
        assert!(idx.bucket(std::slice::from_ref(&novel)).is_none());
        assert_eq!(idx.bucket_size(std::slice::from_ref(&novel)), 0);
        assert_eq!(crate::intern::lookup(&novel), None);
    }
}

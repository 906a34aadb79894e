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
//!   that signature to a bucket of the matching rows, so a probe touches
//!   exactly the matching tuples;
//! * [`crate::relation::Relation`] maintains its indexes incrementally on
//!   insert, key-replacement, deletion and soft-state expiry, and answers
//!   [`crate::relation::Relation::probe`] in O(matches).
//!
//! Indexes are declared once per program (the evaluator and the per-node
//! engines collect every compiled strand's signatures up front), never per
//! join.
//!
//! # Id keys, slot buckets
//!
//! An index stores no value and no tuple. A bucket key is the projection
//! of a row's column ids (the relation's dictionary, [`crate::intern`])
//! onto the signature — held inline in the map entry for the usual ≤ 8
//! columns, no allocation of its own — and a bucket is a `Vec<u32>` of the
//! relation's slab
//! slots: filing, unfiling and probing hash and compare `u32`s, and a probe
//! hit is one slab access away from its `StoredTuple`. A probe value with
//! no id is stored in no row, so the probe answers "empty" without
//! touching the index. A bucket that loses its last slot is dropped with
//! its key, which is what lets the dictionary free an id when the last row
//! holding it goes.
//!
//! # Bucket order is by key value
//!
//! The slots of a bucket are kept in the order of their rows' primary-key
//! *values* — the order a `BTreeMap<Vec<Value>, _>` over the relation would
//! give — never in id or slot order. Probe order decides the order strands
//! derive tuples in, hence which of two same-key derivations lands first,
//! which message carries what, and every deterministic count the
//! differential tests and the benchmark compare; ids and slots depend on
//! insertion and deletion history, which differs between the centralized
//! evaluator, a node engine and a from-scratch oracle holding the same
//! tuples. The relation supplies the position of a new row by binary
//! search over the bucket (O(log n) key comparisons, O(n) `u32` shifting);
//! removal finds the slot by scanning the `u32`s.
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

use crate::intern::{FxBuild, IdBuf, ValueId};
use std::collections::HashMap;

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

/// A hash index from the id projection of a bound-column signature to the
/// slab slots of the rows carrying it, each bucket in primary-key value
/// order (see the module docs).
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    signature: IndexSignature,
    buckets: HashMap<IdBuf, Vec<u32>, FxBuild>,
    /// Total number of filed slots, for accounting.
    entries: usize,
}

impl SecondaryIndex {
    /// An empty index over the given signature.
    pub fn new(signature: IndexSignature) -> Self {
        SecondaryIndex {
            signature,
            buckets: HashMap::default(),
            entries: 0,
        }
    }

    /// The signature this index serves.
    pub fn signature(&self) -> &IndexSignature {
        &self.signature
    }

    /// Number of rows currently filed.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct projections (buckets).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Project a row's ids onto the signature; `None` when the row lacks
    /// a signature column (the columns are sorted: the last is the widest).
    fn project(&self, row_ids: &[ValueId]) -> Option<IdBuf> {
        let cols = self.signature.columns();
        let covered = cols.last().is_none_or(|&widest| widest < row_ids.len());
        covered.then(|| IdBuf::collect(cols.iter().map(|&c| row_ids[c])))
    }

    /// File the row in `slot` under the projection of its ids. `place`
    /// tells where in the bucket's key-value order the row belongs. Rows
    /// lacking a signature column (shorter arity) are skipped — they stay
    /// unindexed and unreachable by probes on this signature, matching
    /// residual-scan semantics.
    pub(crate) fn file(
        &mut self,
        row_ids: &[ValueId],
        slot: u32,
        place: impl FnOnce(&[u32]) -> usize,
    ) {
        let Some(key) = self.project(row_ids) else {
            return;
        };
        match self.buckets.get_mut(&*key) {
            Some(bucket) => {
                debug_assert!(!bucket.contains(&slot), "slot {slot} filed twice");
                bucket.insert(place(bucket), slot);
            }
            None => {
                self.buckets.insert(key, vec![slot]);
            }
        }
        self.entries += 1;
    }

    /// Unfile the row in `slot`, dropping its bucket when that empties.
    /// Returns whether the slot was filed.
    pub(crate) fn unfile(&mut self, row_ids: &[ValueId], slot: u32) -> bool {
        let Some(key) = self.project(row_ids) else {
            return false;
        };
        let Some(bucket) = self.buckets.get_mut(&*key) else {
            return false;
        };
        let Some(pos) = bucket.iter().position(|&s| s == slot) else {
            return false;
        };
        bucket.remove(pos);
        self.entries -= 1;
        if bucket.is_empty() {
            self.buckets.remove(&*key);
        }
        true
    }

    /// The slots whose rows project to `key` (the ids of the signature
    /// columns, in signature order), in primary-key value order; empty
    /// when no row does.
    pub fn bucket(&self, key: &[ValueId]) -> &[u32] {
        self.buckets.get(key).map_or(&[], Vec::as_slice)
    }

    /// Every `(projection, bucket)` pair, in no particular order.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (&[ValueId], &[u32])> {
        self.buckets.iter().map(|(k, b)| (&**k, b.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Dictionary;
    use ndlog_lang::Value;

    /// Rows are numbered by their slot and ordered by it too, so `place`
    /// is a plain binary search over the slots.
    fn file(idx: &mut SecondaryIndex, dict: &mut Dictionary, row: &[i64], slot: u32) {
        let values: Vec<Value> = row.iter().map(|&x| Value::Int(x)).collect();
        let ids = dict.acquire_all(&values);
        idx.file(&ids, slot, |b| b.partition_point(|&s| s < slot));
    }

    fn unfile(idx: &mut SecondaryIndex, dict: &Dictionary, row: &[i64], slot: u32) -> bool {
        let values: Vec<Value> = row.iter().map(|&x| Value::Int(x)).collect();
        let ids = dict.lookup_all(values.iter()).expect("row was filed");
        idx.unfile(&ids, slot)
    }

    fn probe<'i>(idx: &'i SecondaryIndex, dict: &Dictionary, key: &[i64]) -> &'i [u32] {
        let values: Vec<Value> = key.iter().map(|&x| Value::Int(x)).collect();
        match dict.lookup_all(values.iter()) {
            Some(ids) => idx.bucket(&ids),
            None => &[],
        }
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
        let mut dict = Dictionary::default();
        let mut idx = SecondaryIndex::new(IndexSignature::new(&[0]));
        file(&mut idx, &mut dict, &[1, 20], 1);
        file(&mut idx, &mut dict, &[1, 10], 0);
        file(&mut idx, &mut dict, &[2, 30], 2);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.bucket_count(), 2);
        assert_eq!(probe(&idx, &dict, &[1]), &[0, 1], "in `place` order");
        assert!(probe(&idx, &dict, &[9]).is_empty());

        assert!(unfile(&mut idx, &dict, &[1, 10], 0));
        assert!(
            !unfile(&mut idx, &dict, &[1, 10], 0),
            "double unfile is a no-op"
        );
        assert_eq!(probe(&idx, &dict, &[1]), &[1]);
        assert!(unfile(&mut idx, &dict, &[1, 20], 1));
        assert_eq!(idx.bucket_count(), 1, "empty buckets are dropped");
        assert!(unfile(&mut idx, &dict, &[2, 30], 2));
        assert!(idx.is_empty());
        assert_eq!(idx.buckets().count(), 0);
    }

    #[test]
    fn composite_signature_keys_on_every_column() {
        let mut dict = Dictionary::default();
        let mut idx = SecondaryIndex::new(IndexSignature::new(&[2, 0]));
        file(&mut idx, &mut dict, &[1, 5, 7], 0);
        file(&mut idx, &mut dict, &[1, 6, 7], 1);
        file(&mut idx, &mut dict, &[1, 6, 8], 2);
        assert_eq!(probe(&idx, &dict, &[1, 7]), &[0, 1]);
        assert_eq!(probe(&idx, &dict, &[1, 8]), &[2]);
        assert!(
            probe(&idx, &dict, &[7, 1]).is_empty(),
            "signature column order"
        );
    }

    #[test]
    fn short_rows_stay_unindexed() {
        let mut dict = Dictionary::default();
        let mut idx = SecondaryIndex::new(IndexSignature::new(&[2]));
        file(&mut idx, &mut dict, &[1], 0);
        assert!(idx.is_empty(), "rows lacking the column are skipped");
        assert!(!unfile(&mut idx, &dict, &[1], 0));
        file(&mut idx, &mut dict, &[1, 2, 3], 1);
        assert_eq!(idx.len(), 1);
    }
}

//! Stored relations: primary keys, derivation counts, timestamps and
//! soft-state lifetimes.
//!
//! Each relation follows the paper's data model (Section 2): it has a
//! primary key (defaulting to the full set of attributes) and stores one
//! tuple per key. Three pieces of bookkeeping ride along with each tuple:
//!
//! * a **derivation count** — the count algorithm of Gupta et al. used for
//!   incremental deletions (Section 4): duplicate derivations increment the
//!   count, deletions decrement it, and the tuple disappears only when the
//!   count reaches zero;
//! * a **timestamp** (local sequence number) — assigned on first insertion
//!   and used by pipelined semi-naive joins to match only "same or older"
//!   tuples (Section 3.3.2), which prevents repeated inferences;
//! * an optional **expiry time** for soft-state tables (Section 4.2):
//!   tuples must be refreshed before their TTL elapses or they are deleted.
//!
//! Relations additionally maintain **secondary hash indexes** (declared
//! once per program from the compiled strands' bound-column signatures, see
//! [`crate::index`]): every mutation — insertion, key replacement, deletion,
//! expiry — updates the indexes incrementally, and
//! [`Relation::probe`] answers an equality lookup in O(matches) instead of
//! the O(|relation|) of [`Relation::scan_match`]. When several declared
//! signatures can serve a lookup, [`Relation::lookup`] makes a cost-based
//! choice: the candidate binding the most columns wins, with the smallest
//! bucket estimate breaking ties and signature order breaking exact ties
//! (so the choice never depends on index declaration order), and any
//! leftover bound columns enforced residually. Buckets are columnar (see
//! [`crate::index`]): visibility and residual filtering walk dense
//! seq/`ValueId` arrays, and only surviving candidates pay the primary-key
//! map lookup that materializes the stored tuple. [`Relation::lookup_n`]
//! is the grouped-probe entry point: one bucket lookup answers `members`
//! same-key environments, with the per-environment (`logical`) accounting
//! preserved via a multiplier.

use crate::index::{Bucket, IndexSignature, JoinStats, SecondaryIndex};
use crate::intern::{self, ValueId};
use crate::tuple::Tuple;
use ndlog_lang::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Schema of a stored relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationSchema {
    /// Relation name.
    pub name: String,
    /// Primary-key column indexes; empty means "all columns".
    pub key_columns: Vec<usize>,
    /// Soft-state TTL in microseconds; `None` = hard state.
    pub ttl_micros: Option<u64>,
}

impl RelationSchema {
    /// A hard-state relation keyed on all columns.
    pub fn new(name: impl Into<String>) -> Self {
        RelationSchema {
            name: name.into(),
            key_columns: Vec::new(),
            ttl_micros: None,
        }
    }

    /// Set the primary-key columns.
    pub fn with_keys(mut self, keys: Vec<usize>) -> Self {
        self.key_columns = keys;
        self
    }

    /// Set a soft-state TTL (seconds).
    pub fn with_ttl_seconds(mut self, seconds: f64) -> Self {
        self.ttl_micros = Some((seconds * 1_000_000.0) as u64);
        self
    }

    /// The primary key of a tuple under this schema.
    pub fn key_of(&self, tuple: &Tuple) -> Vec<Value> {
        if self.key_columns.is_empty() {
            tuple.values().to_vec()
        } else {
            tuple.project(&self.key_columns)
        }
    }
}

/// A stored tuple with its bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredTuple {
    /// The tuple itself.
    pub tuple: Tuple,
    /// Number of outstanding derivations (count algorithm).
    pub count: u64,
    /// Local timestamp: the store-wide sequence number assigned when the
    /// tuple was first inserted.
    pub seq: u64,
    /// Absolute expiry time in microseconds (soft state only).
    pub expires_at: Option<u64>,
}

/// Result of inserting a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertOutcome {
    /// The tuple is new: propagate an insertion delta.
    New,
    /// An identical tuple already exists: its derivation count was
    /// incremented, nothing to propagate.
    Duplicate,
    /// A different tuple with the same primary key existed and was
    /// replaced (P2's key-update semantics): propagate a deletion of the
    /// returned old tuple and an insertion of the new one.
    Replaced(Tuple),
}

/// Result of deleting a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum DeleteOutcome {
    /// The last derivation was removed: propagate a deletion delta.
    Removed,
    /// Other derivations remain; nothing to propagate.
    Decremented,
    /// No matching tuple was stored (or the stored tuple differs).
    NotFound,
}

/// A stored relation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relation {
    schema: RelationSchema,
    tuples: BTreeMap<Vec<Value>, StoredTuple>,
    /// Secondary indexes, one per declared bound-column signature.
    /// Derivable state: skipped by serialization; the engine re-declares
    /// every signature at construction time.
    #[serde(skip)]
    indexes: Vec<SecondaryIndex>,
    /// Reusable scratch for the index write path: each stored tuple's
    /// columns are interned once here and the ids shared by every index.
    #[serde(skip)]
    id_scratch: Vec<ValueId>,
    /// Derivation counts folded away by primary-key replacements. While
    /// this is zero the count algorithm is exact for tuples of this
    /// relation; once it is positive a count-trusting deletion could leave
    /// a key underivable even though alternative derivations exist. The
    /// engines no longer trust counts on the deletion path at all — every
    /// actual removal runs a DRed over-delete/re-derive pass (see
    /// `ndlog_runtime::dred`) — so this counter survives purely as
    /// diagnostics for count-exactness assertions in tests.
    lossy_replacements: u64,
}

impl Relation {
    /// Create an empty relation.
    pub fn new(schema: RelationSchema) -> Self {
        Relation {
            schema,
            tuples: BTreeMap::new(),
            indexes: Vec::new(),
            id_scratch: Vec::new(),
            lossy_replacements: 0,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Whether an identical tuple is stored.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples
            .get(&self.schema.key_of(tuple))
            .is_some_and(|s| &s.tuple == tuple)
    }

    /// The stored tuple with the same primary key as `tuple`, if any.
    pub fn get_by_key_of(&self, tuple: &Tuple) -> Option<&StoredTuple> {
        self.tuples.get(&self.schema.key_of(tuple))
    }

    /// Look up by an explicit key.
    pub fn get(&self, key: &[Value]) -> Option<&StoredTuple> {
        self.tuples.get(key)
    }

    /// Iterate over stored tuples in key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &StoredTuple> {
        self.tuples.values()
    }

    /// Iterate over tuples matching equality constraints on the given
    /// columns, visible at or before `seq_limit`.
    ///
    /// This is the residual full-scan path; joins with bound columns should
    /// go through [`Relation::probe`] instead.
    pub fn scan_match<'r, 'b>(
        &'r self,
        bound: &'b [(usize, Value)],
        seq_limit: u64,
    ) -> impl Iterator<Item = &'r StoredTuple> + use<'r, 'b> {
        self.tuples.values().filter(move |s| {
            s.seq <= seq_limit
                && bound
                    .iter()
                    .all(|(col, val)| s.tuple.get(*col) == Some(val))
        })
    }

    /// Ensure a secondary index exists for the given bound-column
    /// signature, backfilling it from the stored tuples. Returns true if a
    /// new index was built. Empty signatures (no bound columns) and
    /// duplicates are ignored.
    pub fn ensure_index(&mut self, cols: &[usize]) -> bool {
        let signature = IndexSignature::new(cols);
        if signature.is_empty() || self.indexes.iter().any(|i| i.signature() == &signature) {
            return false;
        }
        let mut index = SecondaryIndex::new(signature);
        for (key, stored) in &self.tuples {
            intern::intern_all_into(stored.tuple.values(), &mut self.id_scratch);
            index.add(&self.id_scratch, key.as_slice().into(), stored.seq);
        }
        self.indexes.push(index);
        true
    }

    /// The bound-column signatures this relation is indexed on.
    pub fn index_signatures(&self) -> impl Iterator<Item = &IndexSignature> {
        self.indexes.iter().map(SecondaryIndex::signature)
    }

    /// Live statistics for every secondary index:
    /// `(signature, distinct keys, indexed entries)`. Distinct keys is the
    /// bucket count — the number of different probe-key values currently
    /// stored — so `entries / distinct` is the average matches per probe,
    /// the quantity cost-based join ordering ranks plans by.
    pub fn index_stats(&self) -> impl Iterator<Item = (&IndexSignature, usize, usize)> {
        self.indexes
            .iter()
            .map(|ix| (ix.signature(), ix.bucket_count(), ix.len()))
    }

    /// Probe the index on `cols` (which must be sorted and deduplicated,
    /// with `key` holding the bound values in the same order) for tuples
    /// visible at or before `seq_limit`, in deterministic primary-key
    /// order.
    ///
    /// Returns `None` when no index with that signature exists — the
    /// caller falls back to [`Relation::scan_match`].
    pub fn probe<'r, 'b>(
        &'r self,
        cols: &[usize],
        key: &'b [Value],
        seq_limit: u64,
    ) -> Option<impl Iterator<Item = &'r StoredTuple> + use<'r, 'b>> {
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "probe columns must be sorted"
        );
        let index = self
            .indexes
            .iter()
            .find(|i| i.signature().columns() == cols)?;
        Some(index.probe(key).filter_map(move |primary_key| {
            self.tuples
                .get(primary_key.as_ref())
                .filter(|s| s.seq <= seq_limit)
        }))
    }

    /// Choose the cheapest declared index that can serve an equality
    /// lookup on `cols`/`key`: among the indexes whose signature is a
    /// subset of the bound columns, pick the most selective one — most
    /// bound columns first, smallest bucket (estimated matches) as the
    /// tie-breaker. Returns the index together with the probe key
    /// projected onto its signature. Exact ties (same bound-column count
    /// *and* same bucket estimate) resolve by signature order — a property
    /// of the indexes themselves, never of the order they happened to be
    /// declared in — so the choice is deterministic across engines even
    /// when construction paths declare the same signatures differently.
    ///
    /// This runs once per join environment, so the common case — one
    /// finalist, usually an exact signature match — is kept allocation-
    /// light: losing candidates are rejected on signature length alone,
    /// and probe keys are projected (and bucket sizes hashed) only for the
    /// finalists with the longest covered signature.
    fn best_index(&self, cols: &[usize], key: &[Value]) -> Option<(&SecondaryIndex, Vec<Value>)> {
        // Pass 1 (no allocation): the longest covered signature length and
        // how many candidates reach it.
        let mut max_len = 0;
        let mut finalists = 0;
        for index in &self.indexes {
            let sig = index.signature();
            let len = sig.columns().len();
            if len < max_len || !sig.is_covered_by(cols) {
                continue;
            }
            if len > max_len {
                max_len = len;
                finalists = 1;
            } else {
                finalists += 1;
            }
        }
        if max_len == 0 {
            return None;
        }
        // Pass 2: project probe keys for the finalists only; with several,
        // the smallest bucket wins (signature order breaks exact ties).
        let mut best: Option<(&SecondaryIndex, Vec<Value>, usize)> = None;
        for index in &self.indexes {
            let sig = index.signature();
            if sig.columns().len() != max_len || !sig.is_covered_by(cols) {
                continue;
            }
            let subkey: Vec<Value> = sig
                .columns()
                .iter()
                .map(|c| {
                    let pos = cols.binary_search(c).expect("covered signature");
                    key[pos].clone()
                })
                .collect();
            if finalists == 1 {
                return Some((index, subkey));
            }
            let bucket = index.bucket_size(&subkey);
            match &best {
                Some((current, _, current_bucket))
                    if (*current_bucket, current.signature()) <= (bucket, sig) => {}
                _ => best = Some((index, subkey, bucket)),
            }
        }
        best.map(|(index, subkey, _)| (index, subkey))
    }

    /// The single access-path chooser behind every join: a *cost-based*
    /// choice among the declared indexes. Any index whose signature is a
    /// subset of `cols` (sorted, with `key` holding the bound values in
    /// the same order) can serve the lookup; the most selective candidate
    /// wins (most bound columns, then smallest bucket estimate, then
    /// signature order — see [`Relation::best_index`]), with the
    /// signature-leftover columns checked residually on each probed tuple.
    /// Only when no index covers any bound column does the lookup fall
    /// back to an equivalent residual scan — `cols` may be empty for a
    /// genuine cross product. The chosen path and the tuples examined are
    /// recorded in `stats` up front; iteration is lazy.
    pub fn lookup<'r, 'b>(
        &'r self,
        cols: &'b [usize],
        key: &'b [Value],
        seq_limit: u64,
        stats: &mut JoinStats,
    ) -> impl Iterator<Item = &'r StoredTuple> + use<'r, 'b> {
        self.lookup_n(cols, key, seq_limit, 1, stats)
    }

    /// [`Relation::lookup`] on behalf of `members` binding environments
    /// that share the same probe key — the storage half of key-grouped
    /// probe sharing ([`crate::batch`]). The bucket is looked up **once**
    /// (`distinct_probes += 1`) while the per-environment accounting is
    /// preserved via the multiplier (`logical_probes`/`scans` and
    /// `tuples_examined` grow by `members`× exactly as `members` separate
    /// [`Relation::lookup`] calls would), so grouped and per-trigger
    /// probing report identical logical counters.
    pub fn lookup_n<'r, 'b>(
        &'r self,
        cols: &'b [usize],
        key: &'b [Value],
        seq_limit: u64,
        members: usize,
        stats: &mut JoinStats,
    ) -> impl Iterator<Item = &'r StoredTuple> + use<'r, 'b> {
        debug_assert!(members >= 1, "a lookup serves at least one environment");
        let index = if cols.is_empty() {
            None
        } else {
            self.best_index(cols, key)
        };
        match index {
            Some((index, subkey)) => {
                let bucket = index.bucket(&subkey);
                stats.logical_probes += members;
                stats.distinct_probes += 1;
                stats.tuples_examined += bucket.map_or(0, Bucket::len) * members;
                // Bound columns the chosen signature does not cover are
                // enforced residually (empty for an exact-signature match).
                // The residual column set is projected once per lookup —
                // borrowing the caller's key values — never per candidate,
                // and compiled to dense id comparisons when the bucket is
                // columnar.
                let residual: Vec<(usize, &Value)> = cols
                    .iter()
                    .copied()
                    .zip(key.iter())
                    .filter(|(c, _)| !index.signature().columns().contains(c))
                    .collect();
                let (bucket, check) = compile_residual(bucket, residual);
                AccessPath::Probe(ProbeIter {
                    tuples: &self.tuples,
                    bucket,
                    pos: 0,
                    seq_limit,
                    check,
                })
            }
            None => {
                stats.scans += members;
                stats.tuples_examined += self.len() * members;
                let bound: Vec<(usize, &Value)> = cols.iter().copied().zip(key.iter()).collect();
                AccessPath::Scan(self.tuples.values().filter(move |s| {
                    s.seq <= seq_limit
                        && bound
                            .iter()
                            .all(|(col, val)| s.tuple.get(*col) == Some(val))
                }))
            }
        }
    }

    /// Existence variant of [`Relation::lookup`]: whether any tuple visible
    /// at or before `seq_limit` matches the equality constraints, via an
    /// index probe when the signature is declared.
    pub fn contains_match(&self, cols: &[usize], key: &[Value], seq_limit: u64) -> bool {
        self.lookup(cols, key, seq_limit, &mut JoinStats::default())
            .next()
            .is_some()
    }

    /// Derivation counts lost to primary-key replacements so far (see the
    /// field documentation).
    pub fn lossy_replacements(&self) -> u64 {
        self.lossy_replacements
    }

    /// Register a newly stored tuple in every index. The tuple's columns
    /// are interned once (into the reusable scratch) and the ids shared by
    /// every index's columnar bucket; the primary key is allocated as one
    /// shared `Arc` and reference-bumped per index.
    fn index_add(&mut self, key: &[Value], tuple: &Tuple, seq: u64) {
        if self.indexes.is_empty() {
            return;
        }
        let shared: Arc<[Value]> = key.into();
        intern::intern_all_into(tuple.values(), &mut self.id_scratch);
        for index in &mut self.indexes {
            index.add(&self.id_scratch, Arc::clone(&shared), seq);
        }
    }

    /// Remove a no-longer-stored tuple from every index.
    fn index_remove(&mut self, key: &[Value], tuple: &Tuple) {
        for index in &mut self.indexes {
            if let Some(projection) = project_checked(tuple, index.signature().columns()) {
                index.remove(&projection, key);
            }
        }
    }

    /// Insert a tuple (first derivation or an additional derivation).
    ///
    /// `seq` is the timestamp to assign if the tuple is new; `expires_at`
    /// the absolute expiry time for soft-state relations (ignored for hard
    /// state). Re-inserting an identical tuple refreshes its expiry —
    /// exactly the soft-state refresh behaviour of Section 4.2.
    pub fn insert(&mut self, tuple: Tuple, seq: u64, now_micros: u64) -> InsertOutcome {
        let key = self.schema.key_of(&tuple);
        let expires_at = self.schema.ttl_micros.map(|ttl| now_micros + ttl);
        // Single keyed lookup; tuple clones below are cheap (Arc bump).
        let replaced = match self.tuples.get_mut(&key) {
            Some(existing) if existing.tuple == tuple => {
                // Duplicate derivation: count bump and soft-state refresh,
                // indexes untouched.
                existing.count += 1;
                if expires_at.is_some() {
                    existing.expires_at = expires_at;
                }
                return InsertOutcome::Duplicate;
            }
            Some(existing) => {
                // Primary-key replacement, in place.
                self.lossy_replacements += existing.count;
                let old = std::mem::replace(&mut existing.tuple, tuple.clone());
                existing.count = 1;
                existing.seq = seq;
                existing.expires_at = expires_at;
                Some(old)
            }
            None => None,
        };
        match replaced {
            Some(old) => {
                self.index_remove(&key, &old);
                self.index_add(&key, &tuple, seq);
                InsertOutcome::Replaced(old)
            }
            None => {
                self.index_add(&key, &tuple, seq);
                self.tuples.insert(
                    key,
                    StoredTuple {
                        tuple,
                        count: 1,
                        seq,
                        expires_at,
                    },
                );
                InsertOutcome::New
            }
        }
    }

    /// Delete (one derivation of) a tuple.
    pub fn delete(&mut self, tuple: &Tuple) -> DeleteOutcome {
        let key = self.schema.key_of(tuple);
        let outcome = match self.tuples.get_mut(&key) {
            Some(existing) if &existing.tuple == tuple => {
                if existing.count > 1 {
                    existing.count -= 1;
                    DeleteOutcome::Decremented
                } else {
                    self.tuples.remove(&key);
                    DeleteOutcome::Removed
                }
            }
            _ => DeleteOutcome::NotFound,
        };
        if outcome == DeleteOutcome::Removed {
            self.index_remove(&key, tuple);
        }
        outcome
    }

    /// Remove a tuple outright regardless of its derivation count (used
    /// when a primary-key replacement cascades).
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        let key = self.schema.key_of(tuple);
        match self.tuples.get(&key) {
            Some(existing) if &existing.tuple == tuple => {
                self.tuples.remove(&key);
                self.index_remove(&key, tuple);
                true
            }
            _ => false,
        }
    }

    /// Remove all tuples whose soft-state lifetime has elapsed, returning
    /// them.
    pub fn expire(&mut self, now_micros: u64) -> Vec<Tuple> {
        let expired: Vec<Vec<Value>> = self
            .tuples
            .iter()
            .filter(|(_, s)| s.expires_at.is_some_and(|t| t <= now_micros))
            .map(|(k, _)| k.clone())
            .collect();
        let mut out = Vec::with_capacity(expired.len());
        for key in expired {
            if let Some(stored) = self.tuples.remove(&key) {
                self.index_remove(&key, &stored.tuple);
                out.push(stored.tuple);
            }
        }
        out
    }
}

/// Two-armed iterator behind [`Relation::lookup`]: an index probe or a
/// residual scan, chosen once per lookup.
enum AccessPath<'r, 'b, S> {
    Probe(ProbeIter<'r, 'b>),
    Scan(S),
}

impl<'r, 'b, S> Iterator for AccessPath<'r, 'b, S>
where
    S: Iterator<Item = &'r StoredTuple>,
{
    type Item = &'r StoredTuple;
    fn next(&mut self) -> Option<&'r StoredTuple> {
        match self {
            AccessPath::Probe(p) => p.next(),
            AccessPath::Scan(s) => s.next(),
        }
    }
}

/// How residual bound columns are enforced while walking a bucket.
enum Residual<'b> {
    /// Dense comparison against the bucket's columnar `ValueId` arrays.
    Ids(Vec<(usize, ValueId)>),
    /// Value comparison against the materialized tuple (degraded bucket).
    Values(Vec<(usize, &'b Value)>),
}

/// Compile the residual column set against the bucket's layout. Returns
/// `(None, _)` when no candidate can possibly match: a residual value that
/// was never interned cannot equal any value stored in a columnar bucket
/// (every stored column is interned on insert), and a residual column
/// beyond the bucket's uniform arity matches nothing either.
fn compile_residual<'r, 'b>(
    bucket: Option<&'r Bucket>,
    residual: Vec<(usize, &'b Value)>,
) -> (Option<&'r Bucket>, Residual<'b>) {
    match bucket {
        Some(b) if b.is_columnar() && !residual.is_empty() => {
            let mut ids = Vec::with_capacity(residual.len());
            for (c, v) in &residual {
                let resolved = if *c < b.arity() {
                    intern::lookup(v)
                } else {
                    None
                };
                match resolved {
                    Some(id) => ids.push((*c, id)),
                    None => return (None, Residual::Ids(Vec::new())),
                }
            }
            (Some(b), Residual::Ids(ids))
        }
        Some(b) if b.is_columnar() => (Some(b), Residual::Ids(Vec::new())),
        other => (other, Residual::Values(residual)),
    }
}

/// The probe arm of [`AccessPath`]: walk the bucket's dense seq/id arrays,
/// materializing (via the shared primary key) only the candidates that
/// survive visibility and residual filtering.
struct ProbeIter<'r, 'b> {
    tuples: &'r BTreeMap<Vec<Value>, StoredTuple>,
    bucket: Option<&'r Bucket>,
    pos: usize,
    seq_limit: u64,
    check: Residual<'b>,
}

impl<'r, 'b> Iterator for ProbeIter<'r, 'b> {
    type Item = &'r StoredTuple;
    fn next(&mut self) -> Option<&'r StoredTuple> {
        let bucket = self.bucket?;
        while self.pos < bucket.len() {
            let i = self.pos;
            self.pos += 1;
            if bucket.seq(i) > self.seq_limit {
                continue;
            }
            match &self.check {
                Residual::Ids(ids) => {
                    if ids
                        .iter()
                        .all(|&(c, id)| bucket.column(c).is_some_and(|col| col[i] == id))
                    {
                        if let Some(stored) = self.tuples.get(bucket.key(i).as_ref()) {
                            return Some(stored);
                        }
                    }
                }
                Residual::Values(vals) => {
                    if let Some(stored) = self.tuples.get(bucket.key(i).as_ref()) {
                        if vals.iter().all(|(c, v)| stored.tuple.get(*c) == Some(*v)) {
                            return Some(stored);
                        }
                    }
                }
            }
        }
        None
    }
}

/// Project a tuple onto index columns (borrowed — the values are already
/// interned, never cloned), returning `None` if any column is out of
/// range (possible when heterogeneous arities share a relation name in
/// hand-built test stores; such tuples simply stay unindexed and
/// unreachable by probes on that signature).
fn project_checked<'t>(tuple: &'t Tuple, cols: &[usize]) -> Option<Vec<&'t Value>> {
    cols.iter()
        .map(|&c| tuple.get(c))
        .collect::<Option<Vec<&Value>>>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::Value;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    fn keyed_relation() -> Relation {
        Relation::new(RelationSchema::new("r").with_keys(vec![0]))
    }

    #[test]
    fn insert_and_contains() {
        let mut r = keyed_relation();
        assert_eq!(r.insert(t(&[1, 10]), 1, 0), InsertOutcome::New);
        assert!(r.contains(&t(&[1, 10])));
        assert!(!r.contains(&t(&[1, 11])));
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn duplicate_increments_count() {
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        assert_eq!(r.insert(t(&[1, 10]), 2, 0), InsertOutcome::Duplicate);
        let stored = r.get_by_key_of(&t(&[1, 10])).unwrap();
        assert_eq!(stored.count, 2);
        assert_eq!(
            stored.seq, 1,
            "timestamp keeps the first derivation's value"
        );
    }

    #[test]
    fn replacement_returns_old_tuple() {
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        match r.insert(t(&[1, 20]), 2, 0) {
            InsertOutcome::Replaced(old) => assert_eq!(old, t(&[1, 10])),
            other => panic!("expected replacement, got {other:?}"),
        }
        assert!(r.contains(&t(&[1, 20])));
        assert!(!r.contains(&t(&[1, 10])));
    }

    #[test]
    fn count_algorithm_deletion() {
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[1, 10]), 2, 0);
        assert_eq!(r.delete(&t(&[1, 10])), DeleteOutcome::Decremented);
        assert!(r.contains(&t(&[1, 10])));
        assert_eq!(r.delete(&t(&[1, 10])), DeleteOutcome::Removed);
        assert!(!r.contains(&t(&[1, 10])));
        assert_eq!(r.delete(&t(&[1, 10])), DeleteOutcome::NotFound);
    }

    #[test]
    fn stale_deletion_is_ignored() {
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        // Deleting a tuple with the same key but a different value does not
        // affect the stored tuple.
        assert_eq!(r.delete(&t(&[1, 99])), DeleteOutcome::NotFound);
        assert!(r.contains(&t(&[1, 10])));
    }

    #[test]
    fn remove_ignores_count() {
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[1, 10]), 2, 0);
        assert!(r.remove(&t(&[1, 10])));
        assert!(r.is_empty());
        assert!(!r.remove(&t(&[1, 10])));
    }

    #[test]
    fn overdelete_then_rederive_restores_counts_exactly_once() {
        // The count-accounting contract behind the DRed pass: `remove`
        // discards a tuple *and* its (possibly inflated or lossy)
        // derivation count, so a subsequent re-derivation re-inserts the
        // survivor with a fresh count of exactly 1 — restored once, not
        // once per stale count — and a single deletion then suffices to
        // retract it again.
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[1, 10]), 2, 0); // an SN/BSN-style over-count
        assert_eq!(r.get_by_key_of(&t(&[1, 10])).unwrap().count, 2);
        // A replacement folds the old counts away entirely...
        assert_eq!(
            r.insert(t(&[1, 20]), 3, 0),
            InsertOutcome::Replaced(t(&[1, 10]))
        );
        assert_eq!(r.lossy_replacements(), 2);
        assert_eq!(r.get_by_key_of(&t(&[1, 20])).unwrap().count, 1);
        // ...and an over-delete removes outright, count notwithstanding.
        r.insert(t(&[1, 20]), 4, 0);
        assert!(r.remove(&t(&[1, 20])));
        assert!(r.get(&[Value::Int(1)]).is_none(), "key fully vacated");
        // The re-derive half restores the survivor exactly once.
        assert_eq!(r.insert(t(&[1, 10]), 5, 0), InsertOutcome::New);
        assert_eq!(r.get_by_key_of(&t(&[1, 10])).unwrap().count, 1);
        assert_eq!(r.delete(&t(&[1, 10])), DeleteOutcome::Removed);
        assert!(r.is_empty(), "one deletion retracts a once-restored tuple");
    }

    #[test]
    fn default_key_is_all_columns() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[1, 20]), 2, 0);
        assert_eq!(
            r.len(),
            2,
            "different tuples coexist without a declared key"
        );
    }

    #[test]
    fn scan_match_respects_bindings_and_seq() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[1, 20]), 2, 0);
        r.insert(t(&[2, 30]), 3, 0);
        let bound = vec![(0usize, Value::Int(1))];
        let hits: Vec<_> = r.scan_match(&bound, u64::MAX).collect();
        assert_eq!(hits.len(), 2);
        let hits: Vec<_> = r.scan_match(&bound, 1).collect();
        assert_eq!(hits.len(), 1, "seq limit hides newer tuples");
        let unbound: Vec<_> = r.scan_match(&[], u64::MAX).collect();
        assert_eq!(unbound.len(), 3);
    }

    #[test]
    fn soft_state_expiry_and_refresh() {
        let mut r = Relation::new(RelationSchema::new("r").with_ttl_seconds(1.0));
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[2, 20]), 2, 500_000);
        // Refresh tuple 1 at t=800ms: its lifetime now extends to 1.8s.
        assert_eq!(r.insert(t(&[1, 10]), 3, 800_000), InsertOutcome::Duplicate);
        let expired = r.expire(1_200_000);
        assert!(expired.is_empty(), "both tuples are still alive");
        let expired = r.expire(1_600_000);
        assert_eq!(expired, vec![t(&[2, 20])], "unrefreshed tuple expires");
        assert!(r.contains(&t(&[1, 10])));
        let expired = r.expire(2_000_000);
        assert_eq!(expired.len(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn hard_state_never_expires() {
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        assert!(r.expire(u64::MAX).is_empty());
    }

    fn probed(r: &Relation, cols: &[usize], key: &[i64], seq_limit: u64) -> Vec<Tuple> {
        let key: Vec<Value> = key.iter().map(|&v| Value::Int(v)).collect();
        r.probe(cols, &key, seq_limit)
            .expect("index exists")
            .map(|s| s.tuple.clone())
            .collect()
    }

    #[test]
    fn index_probe_matches_scan() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[1]);
        for i in 0..10 {
            r.insert(t(&[i, i % 3]), i as u64 + 1, 0);
        }
        let bound = vec![(1usize, Value::Int(2))];
        let scanned: Vec<Tuple> = r
            .scan_match(&bound, u64::MAX)
            .map(|s| s.tuple.clone())
            .collect();
        assert_eq!(probed(&r, &[1], &[2], u64::MAX), scanned);
        assert_eq!(scanned.len(), 3);
        // Probes respect the PSN visibility limit like scans do.
        assert_eq!(probed(&r, &[1], &[2], 3).len(), 1);
        // Missing signature returns None so callers can fall back.
        assert!(r.probe(&[0], &[Value::Int(1)], u64::MAX).is_none());
    }

    #[test]
    fn index_backfills_existing_tuples() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.insert(t(&[1, 7]), 1, 0);
        r.insert(t(&[2, 7]), 2, 0);
        assert!(r.ensure_index(&[1]));
        assert!(!r.ensure_index(&[1]), "duplicate declaration is a no-op");
        assert!(
            !r.ensure_index(&[]),
            "empty signature is never materialized"
        );
        assert_eq!(probed(&r, &[1], &[7], u64::MAX).len(), 2);
        assert_eq!(r.index_signatures().count(), 1);
    }

    #[test]
    fn index_maintained_under_delete_and_count() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[0]);
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[1, 10]), 2, 0); // count = 2
        r.delete(&t(&[1, 10]));
        assert_eq!(
            probed(&r, &[0], &[1], u64::MAX).len(),
            1,
            "decrement keeps the entry"
        );
        r.delete(&t(&[1, 10]));
        assert!(
            probed(&r, &[0], &[1], u64::MAX).is_empty(),
            "removal drops it"
        );
    }

    #[test]
    fn index_maintained_under_replacement() {
        let mut r = keyed_relation();
        r.ensure_index(&[1]);
        r.insert(t(&[1, 10]), 1, 0);
        assert_eq!(probed(&r, &[1], &[10], u64::MAX).len(), 1);
        r.insert(t(&[1, 20]), 2, 0); // replaces under key 1
        assert!(
            probed(&r, &[1], &[10], u64::MAX).is_empty(),
            "old projection entry is gone"
        );
        assert_eq!(probed(&r, &[1], &[20], u64::MAX), vec![t(&[1, 20])]);
        assert_eq!(r.lossy_replacements(), 1);
    }

    #[test]
    fn index_maintained_under_expiry_and_ttl_refresh() {
        let mut r = Relation::new(RelationSchema::new("r").with_ttl_seconds(1.0));
        r.ensure_index(&[0]);
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[2, 20]), 2, 0);
        // Refresh tuple 1 at t=0.8s: the duplicate insert must not leave a
        // second (stale) index entry behind.
        r.insert(t(&[1, 10]), 3, 800_000);
        assert_eq!(probed(&r, &[0], &[1], u64::MAX).len(), 1);
        // Tuple 2 expires at 1.0s; its index entries must go with it.
        r.expire(1_500_000);
        assert!(
            probed(&r, &[0], &[2], u64::MAX).is_empty(),
            "no stale entry"
        );
        assert_eq!(
            probed(&r, &[0], &[1], u64::MAX).len(),
            1,
            "refreshed survives"
        );
        r.expire(2_000_000);
        assert!(probed(&r, &[0], &[1], u64::MAX).is_empty());
    }

    fn lookup_all(r: &Relation, cols: &[usize], key: &[i64], stats: &mut JoinStats) -> Vec<Tuple> {
        let key: Vec<Value> = key.iter().map(|&v| Value::Int(v)).collect();
        r.lookup(cols, &key, u64::MAX, stats)
            .map(|s| s.tuple.clone())
            .collect()
    }

    #[test]
    fn subset_index_serves_wider_bindings() {
        // Only [0] is indexed, but the lookup binds columns 0 and 1: the
        // access path must still be a probe (with column 1 checked
        // residually), not a full scan.
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[0]);
        for i in 0..20 {
            r.insert(t(&[i % 4, i % 2, i]), i as u64 + 1, 0);
        }
        let mut stats = JoinStats::default();
        let hits = lookup_all(&r, &[0, 1], &[1, 1], &mut stats);
        assert_eq!(stats.logical_probes, 1);
        assert_eq!(stats.distinct_probes, 1);
        assert_eq!(stats.scans, 0);
        assert_eq!(stats.tuples_examined, 5, "the [0]-bucket for value 1");
        let bound = vec![(0usize, Value::Int(1)), (1usize, Value::Int(1))];
        let scanned: Vec<Tuple> = r
            .scan_match(&bound, u64::MAX)
            .map(|s| s.tuple.clone())
            .collect();
        assert_eq!(hits, scanned, "residual filtering matches the scan");
        assert!(!hits.is_empty());
    }

    #[test]
    fn most_selective_candidate_wins() {
        // Two single-column candidates: column 0 is highly skewed (one big
        // bucket), column 1 is nearly unique. The cost-based choice must
        // probe the column-1 index — the smaller bucket.
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[0]);
        r.ensure_index(&[1]);
        for i in 0..50 {
            r.insert(t(&[0, i, i * 10]), i as u64 + 1, 0);
        }
        let mut stats = JoinStats::default();
        let hits = lookup_all(&r, &[0, 1], &[0, 7], &mut stats);
        assert_eq!(hits, vec![t(&[0, 7, 70])]);
        assert_eq!(stats.logical_probes, 1);
        assert_eq!(
            stats.tuples_examined, 1,
            "the unique column-1 bucket, not the 50-tuple column-0 bucket"
        );

        // And a composite index beats both single-column candidates.
        r.ensure_index(&[0, 1]);
        let mut stats = JoinStats::default();
        let hits = lookup_all(&r, &[0, 1], &[0, 7], &mut stats);
        assert_eq!(hits, vec![t(&[0, 7, 70])]);
        assert_eq!(stats.tuples_examined, 1);
    }

    #[test]
    fn unindexed_bound_columns_still_scan() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[2]);
        for i in 0..10 {
            r.insert(t(&[i, i, i]), i as u64 + 1, 0);
        }
        // The lookup binds only columns the index does not cover.
        let mut stats = JoinStats::default();
        let hits = lookup_all(&r, &[0], &[3], &mut stats);
        assert_eq!(hits, vec![t(&[3, 3, 3])]);
        assert_eq!(stats.scans, 1);
        assert_eq!(stats.logical_probes, 0);
        assert_eq!(stats.distinct_probes, 0);
    }

    #[test]
    fn tied_candidates_resolve_by_signature_order() {
        // Two single-column candidates with identical bucket estimates:
        // the tie must break on the signatures themselves ([0] < [1]), not
        // on declaration order, so every engine picks the same access path.
        let build = |first: usize, second: usize| {
            let mut r = Relation::new(RelationSchema::new("r"));
            r.ensure_index(&[first]);
            r.ensure_index(&[second]);
            for i in 0..12 {
                // Both columns split the relation into equal-size buckets.
                r.insert(t(&[i % 3, i % 3, i]), i as u64 + 1, 0);
            }
            r
        };
        let key = [Value::Int(1), Value::Int(1)];
        for r in [build(0, 1), build(1, 0)] {
            let (chosen, _) = r.best_index(&[0, 1], &key).expect("candidates exist");
            assert_eq!(
                chosen.signature().columns(),
                &[0],
                "exact ties resolve to the smaller signature"
            );
        }
    }

    #[test]
    fn lookup_n_shares_the_bucket_but_preserves_logical_accounting() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[0]);
        for i in 0..20 {
            r.insert(t(&[i % 4, i]), i as u64 + 1, 0);
        }
        let key = [Value::Int(1)];
        let mut grouped = JoinStats::default();
        let shared: Vec<Tuple> = r
            .lookup_n(&[0], &key, u64::MAX, 5, &mut grouped)
            .map(|s| s.tuple.clone())
            .collect();
        let mut single = JoinStats::default();
        for _ in 0..5 {
            let hits: Vec<Tuple> = r
                .lookup(&[0], &key, u64::MAX, &mut single)
                .map(|s| s.tuple.clone())
                .collect();
            assert_eq!(hits, shared, "shared bucket answers every member");
        }
        assert_eq!(grouped.logical_probes, single.logical_probes);
        assert_eq!(grouped.tuples_examined, single.tuples_examined);
        assert_eq!(grouped.scans, single.scans);
        assert_eq!(
            grouped.distinct_probes, 1,
            "one bucket lookup for 5 members"
        );
        assert_eq!(single.distinct_probes, 5);
    }

    #[test]
    fn index_ignores_short_tuples() {
        // Heterogeneous arities sharing a relation: tuples lacking the
        // indexed column are unreachable by probes, matching scan_match.
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[2]);
        r.insert(t(&[1]), 1, 0);
        r.insert(t(&[1, 2, 3]), 2, 0);
        assert_eq!(probed(&r, &[2], &[3], u64::MAX), vec![t(&[1, 2, 3])]);
        r.remove(&t(&[1]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn schema_key_projection() {
        let s = RelationSchema::new("r").with_keys(vec![1]);
        assert_eq!(s.key_of(&t(&[7, 8])), vec![Value::Int(8)]);
        let s = RelationSchema::new("r");
        assert_eq!(s.key_of(&t(&[7, 8])).len(), 2);
    }
}

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
//! # Layout: one row, one slot
//!
//! A stored tuple lives once, in a slab: a `Vec` of rows addressed by a
//! `u32` slot, freed slots reused through a free list. A row is its
//! [`StoredTuple`] plus the ids of its columns in the relation's own value
//! dictionary ([`crate::intern`]), held inline in the slot: beyond the
//! tuple itself — one allocation, fields and reference count together — a
//! stored row of the usual ≤ 8 columns carries no allocation of its own.
//! Everything else refers to the row by slot:
//!
//! * the **primary index** is a hash map from the ids of the key columns,
//!   inline in the map entry, to the slot, so insertion, duplicate
//!   detection, membership and deletion hash and compare `u32`s — no key
//!   is cloned or boxed, no path vector compared element by element;
//! * every **secondary index** ([`crate::index`], declared once per program
//!   from the compiled strands' bound-column signatures) maps an id
//!   projection to a bucket of slots, maintained on every mutation —
//!   insertion, key replacement, deletion, expiry — so
//!   [`Relation::probe`] answers an equality lookup in O(matches) instead
//!   of the O(|relation|) of [`Relation::scan_match`];
//! * **ordered reads** — [`Relation::iter`], [`Relation::scan_match`], the
//!   scan arm of [`Relation::lookup`], [`Relation::expire`] — walk a list
//!   of slots sorted by primary-key value, built on first use and kept
//!   until the next membership change, so a relation that stopped changing
//!   is sorted once; [`Relation::iter_unordered`] is the borrow for readers
//!   that filter first and order their own result.
//!
//! Observable order is always primary-key *value* order — the order a
//! `BTreeMap<Vec<Value>, _>` gives — in ordered reads and inside every
//! bucket alike; ids and slots depend on history and are never exposed
//! (see [`crate::index`] for why that matters).
//!
//! When several declared signatures can serve a lookup,
//! [`Relation::lookup`] makes a cost-based choice: the candidate binding
//! the most columns wins, with the smallest bucket breaking ties and
//! signature order breaking exact ties (so the choice never depends on
//! index declaration order), and any leftover bound columns enforced
//! residually by comparing the candidate row's ids. [`Relation::lookup_n`]
//! is the grouped-probe entry point: one bucket lookup answers `members`
//! same-key environments, with the per-environment (`logical`) accounting
//! preserved via a multiplier.

use crate::index::{IndexSignature, JoinStats, SecondaryIndex};
use crate::intern::{Dictionary, FxBuild, IdBuf, ValueId};
use crate::tuple::Tuple;
use ndlog_lang::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::OnceLock;

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

/// One slab entry: a stored tuple and the dictionary ids of its columns,
/// inline in the slot.
#[derive(Debug, Clone)]
struct Row {
    stored: StoredTuple,
    ids: IdBuf,
}

/// A stored relation (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelationSchema,
    /// The values of every stored column, by id, reference counted.
    dict: Dictionary,
    /// The slab: `rows[slot]` is `None` while the slot is on `free`.
    rows: Vec<Option<Row>>,
    free: Vec<u32>,
    /// Ids of the key columns (inline in the entry) → slot.
    primary: HashMap<IdBuf, u32, FxBuild>,
    /// Secondary indexes, one per declared bound-column signature.
    indexes: Vec<SecondaryIndex>,
    /// The live slots in primary-key value order, built on first ordered
    /// read and dropped by the next membership change.
    order: OnceLock<Vec<u32>>,
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

/// The primary-key columns of a row — of its values or of its ids: the
/// declared ones in declaration order, or every column when none is.
fn key_of<'a, T>(key_columns: &'a [usize], row: &'a [T]) -> impl ExactSizeIterator<Item = &'a T> {
    let n = if key_columns.is_empty() {
        row.len()
    } else {
        key_columns.len()
    };
    (0..n).map(move |i| &row[key_columns.get(i).copied().unwrap_or(i)])
}

/// Compare two rows by primary key, as `key_of(a).cmp(&key_of(b))` on the
/// schema would.
fn cmp_rows(key_columns: &[usize], a: &Row, b: &Row) -> Ordering {
    let (a, b) = (a.stored.tuple.values(), b.stored.tuple.values());
    key_of(key_columns, a).cmp(key_of(key_columns, b))
}

fn live(rows: &[Option<Row>], slot: u32) -> &Row {
    rows[slot as usize].as_ref().expect("slot is live")
}

impl Relation {
    /// Create an empty relation.
    pub fn new(schema: RelationSchema) -> Self {
        Relation {
            schema,
            dict: Dictionary::default(),
            rows: Vec::new(),
            free: Vec::new(),
            primary: HashMap::default(),
            indexes: Vec::new(),
            order: OnceLock::new(),
            lossy_replacements: 0,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.primary.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.primary.is_empty()
    }

    /// Number of distinct values the relation's dictionary holds: the
    /// values of the tuples stored now, not of every tuple ever stored.
    pub fn dictionary_len(&self) -> usize {
        self.dict.len()
    }

    /// The slot holding the tuple with `tuple`'s primary key. Read-only:
    /// only the key columns are looked up, and a key value without an id
    /// means no such row.
    fn slot_by_key_of(&self, tuple: &Tuple) -> Option<u32> {
        let key = key_of(&self.schema.key_columns, tuple.values());
        self.primary.get(&*self.dict.lookup_all(key)?).copied()
    }

    /// The slot holding exactly `tuple`. With an all-columns key the key
    /// match is the identity; otherwise the non-key columns are compared
    /// (a pointer comparison when `tuple` is a clone of the stored one).
    fn slot_of(&self, tuple: &Tuple) -> Option<u32> {
        self.slot_by_key_of(tuple).filter(|&slot| {
            self.schema.key_columns.is_empty() || live(&self.rows, slot).stored.tuple == *tuple
        })
    }

    /// Whether an identical tuple is stored.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.slot_of(tuple).is_some()
    }

    /// The stored tuple with the same primary key as `tuple`, if any.
    pub fn get_by_key_of(&self, tuple: &Tuple) -> Option<&StoredTuple> {
        self.slot_by_key_of(tuple)
            .map(|slot| &live(&self.rows, slot).stored)
    }

    /// Look up by an explicit key.
    pub fn get(&self, key: &[Value]) -> Option<&StoredTuple> {
        let slot = *self.primary.get(&*self.dict.lookup_all(key.iter())?)?;
        Some(&live(&self.rows, slot).stored)
    }

    /// Compare the rows in two live slots by primary key.
    fn cmp_slots(&self, a: u32, b: u32) -> Ordering {
        let key = &self.schema.key_columns;
        cmp_rows(key, live(&self.rows, a), live(&self.rows, b))
    }

    /// The live slots in primary-key value order.
    fn ordered(&self) -> &[u32] {
        self.order.get_or_init(|| {
            let mut slots: Vec<u32> = self.primary.values().copied().collect();
            slots.sort_unstable_by(|&a, &b| self.cmp_slots(a, b));
            slots
        })
    }

    /// Iterate over stored tuples in key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &StoredTuple> {
        self.matches(self.ordered(), std::iter::empty(), u64::MAX)
    }

    /// Iterate over stored tuples in no particular order, without sorting
    /// anything: for readers that filter first and order the survivors.
    pub fn iter_unordered(&self) -> impl Iterator<Item = &StoredTuple> {
        self.rows.iter().flatten().map(|row| &row.stored)
    }

    /// Walk `slots`, yielding the rows visible at or before `seq_limit`
    /// that carry `bound`'s value in each of its columns. The values are
    /// resolved to ids once, here, and candidates are compared by id; a
    /// value without an id is stored in no row and rules every slot out.
    fn matches<'r, 'b>(
        &'r self,
        mut slots: &'r [u32],
        bound: impl Iterator<Item = (usize, &'b Value)>,
        seq_limit: u64,
    ) -> Matches<'r> {
        let residual: Option<Vec<(usize, ValueId)>> = bound
            .map(|(col, value)| Some((col, self.dict.lookup(value)?)))
            .collect();
        if residual.is_none() {
            slots = &[];
        }
        Matches {
            rows: &self.rows,
            slots: slots.iter(),
            seq_limit,
            residual: residual.unwrap_or_default(),
        }
    }

    /// Iterate over tuples matching equality constraints on the given
    /// columns, visible at or before `seq_limit`.
    ///
    /// This is the residual full-scan path; joins with bound columns should
    /// go through [`Relation::probe`] instead.
    pub fn scan_match<'r>(
        &'r self,
        bound: &[(usize, Value)],
        seq_limit: u64,
    ) -> impl Iterator<Item = &'r StoredTuple> + use<'r> {
        let bound = bound.iter().map(|(col, value)| (*col, value));
        self.matches(self.ordered(), bound, seq_limit)
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
        // Filing in key order makes every bucket an append.
        for &slot in self.ordered() {
            index.file(&live(&self.rows, slot).ids, slot, <[u32]>::len);
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
    pub fn probe<'r>(
        &'r self,
        cols: &[usize],
        key: &[Value],
        seq_limit: u64,
    ) -> Option<impl Iterator<Item = &'r StoredTuple> + use<'r>> {
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "probe columns must be sorted"
        );
        let index = self
            .indexes
            .iter()
            .find(|i| i.signature().columns() == cols)?;
        let bucket = self.probe_bucket(index, cols, key);
        Some(self.matches(bucket, std::iter::empty(), seq_limit))
    }

    /// The bucket of `index` a lookup binding `cols` to `key` probes
    /// (`index`'s signature must be covered by `cols`). A probe value
    /// without an id is stored in no row: the bucket is empty.
    fn probe_bucket<'r>(
        &self,
        index: &'r SecondaryIndex,
        cols: &[usize],
        key: &[Value],
    ) -> &'r [u32] {
        let sig = index.signature().columns().iter();
        let bound = sig.map(|c| &key[cols.binary_search(c).expect("covered signature")]);
        match self.dict.lookup_all(bound) {
            Some(ids) => index.bucket(&ids),
            None => &[],
        }
    }

    /// Choose the cheapest declared index that can serve an equality
    /// lookup on `cols`/`key`: among the indexes whose signature is a
    /// subset of the bound columns, pick the most selective one — most
    /// bound columns first, smallest bucket (estimated matches) as the
    /// tie-breaker. Returns the index together with the bucket the key
    /// selects in it. Exact ties (same bound-column count *and* same
    /// bucket size) resolve by signature order — a property of the indexes
    /// themselves, never of the order they happened to be declared in — so
    /// the choice is deterministic across engines even when construction
    /// paths declare the same signatures differently.
    ///
    /// This runs once per join environment: losing candidates are rejected
    /// on signature length alone, and only the finalists with the longest
    /// covered signature — usually one, an exact match — look their bucket
    /// up.
    fn best_index(&self, cols: &[usize], key: &[Value]) -> Option<(&SecondaryIndex, &[u32])> {
        let covered = |index: &&SecondaryIndex| index.signature().is_covered_by(cols);
        let width = |index: &SecondaryIndex| index.signature().columns().len();
        let widest = self.indexes.iter().filter(covered).map(width).max()?;
        self.indexes
            .iter()
            .filter(|index| width(index) == widest && covered(index))
            .map(|index| (index, self.probe_bucket(index, cols, key)))
            .min_by_key(|(index, bucket)| (bucket.len(), index.signature()))
    }

    /// The single access-path chooser behind every join: a *cost-based*
    /// choice among the declared indexes. Any index whose signature is a
    /// subset of `cols` (sorted, with `key` holding the bound values in
    /// the same order) can serve the lookup; the most selective candidate
    /// wins (most bound columns, then smallest bucket, then signature
    /// order — see [`Relation::best_index`]), with the signature-leftover
    /// columns checked residually on each probed row. Only when no index
    /// covers any bound column does the lookup fall back to an equivalent
    /// residual scan — `cols` may be empty for a genuine cross product.
    /// The chosen path and the tuples examined are recorded in `stats` up
    /// front; iteration is lazy.
    pub fn lookup<'r>(
        &'r self,
        cols: &[usize],
        key: &[Value],
        seq_limit: u64,
        stats: &mut JoinStats,
    ) -> impl Iterator<Item = &'r StoredTuple> + use<'r> {
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
    pub fn lookup_n<'r>(
        &'r self,
        cols: &[usize],
        key: &[Value],
        seq_limit: u64,
        members: usize,
        stats: &mut JoinStats,
    ) -> impl Iterator<Item = &'r StoredTuple> + use<'r> {
        debug_assert!(members >= 1, "a lookup serves at least one environment");
        // The slots to walk and the bound columns they already satisfy;
        // the rest are enforced residually (none for an exact-signature
        // match, all of them for a scan).
        let (slots, satisfied) = match self.best_index(cols, key) {
            Some((index, bucket)) => {
                stats.logical_probes += members;
                stats.distinct_probes += 1;
                (bucket, index.signature().columns())
            }
            None => {
                stats.scans += members;
                (self.ordered(), &[][..])
            }
        };
        stats.tuples_examined += slots.len() * members;
        let residual = cols.iter().copied().zip(key);
        let residual = residual.filter(|(col, _)| !satisfied.contains(col));
        self.matches(slots, residual, seq_limit)
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

    /// File the row in `slot` in every index, at its place in each
    /// bucket's primary-key value order.
    fn file(&mut self, slot: u32) {
        let (rows, key) = (&self.rows, &self.schema.key_columns);
        let row = live(rows, slot);
        for index in &mut self.indexes {
            index.file(&row.ids, slot, |bucket| {
                bucket.partition_point(|&other| {
                    cmp_rows(key, live(rows, other), row) == Ordering::Less
                })
            });
        }
    }

    /// Unfile the row in `slot` from every index.
    fn unfile(&mut self, slot: u32) {
        let row = live(&self.rows, slot);
        for index in &mut self.indexes {
            index.unfile(&row.ids, slot);
        }
    }

    /// Insert a tuple (first derivation or an additional derivation).
    ///
    /// `seq` is the timestamp to assign if the tuple is new; `expires_at`
    /// the absolute expiry time for soft-state relations (ignored for hard
    /// state). Re-inserting an identical tuple refreshes its expiry —
    /// exactly the soft-state refresh behaviour of Section 4.2.
    pub fn insert(&mut self, tuple: Tuple, seq: u64, now_micros: u64) -> InsertOutcome {
        let expires_at = self.schema.ttl_micros.map(|ttl| now_micros + ttl);
        // The one interning of this tuple.
        let ids = self.dict.acquire_all(tuple.values());
        let key = IdBuf::collect(key_of(&self.schema.key_columns, &ids).copied());
        let fresh = |tuple| StoredTuple {
            tuple,
            count: 1,
            seq,
            expires_at,
        };
        let Some(&slot) = self.primary.get(&*key) else {
            let row = Some(Row {
                stored: fresh(tuple),
                ids,
            });
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.rows[slot as usize] = row;
                    slot
                }
                None => {
                    self.rows.push(row);
                    u32::try_from(self.rows.len() - 1).expect("relation overflow")
                }
            };
            self.primary.insert(key, slot);
            self.order.take();
            self.file(slot);
            return InsertOutcome::New;
        };
        let existing = self.rows[slot as usize].as_mut().expect("slot is live");
        if *existing.ids == *ids {
            // Duplicate derivation: count bump and soft-state refresh,
            // indexes untouched, the ids just acquired handed back.
            existing.stored.count += 1;
            if expires_at.is_some() {
                existing.stored.expires_at = expires_at;
            }
            self.dict.release_all(tuple.values(), &ids);
            return InsertOutcome::Duplicate;
        }
        // Primary-key replacement, in the same slot: the key ids, hence
        // the primary entry and the slot's place in key order, stay.
        self.lossy_replacements += existing.stored.count;
        self.unfile(slot);
        let existing = self.rows[slot as usize].as_mut().expect("slot is live");
        let old = std::mem::replace(&mut existing.stored, fresh(tuple)).tuple;
        let old_ids = std::mem::replace(&mut existing.ids, ids);
        self.file(slot);
        self.dict.release_all(old.values(), &old_ids);
        InsertOutcome::Replaced(old)
    }

    /// Take the row in `slot` out of the slab, the primary index, every
    /// bucket and the dictionary.
    fn evict(&mut self, slot: u32) -> Tuple {
        self.unfile(slot);
        let row = self.rows[slot as usize].take().expect("slot is live");
        let key = IdBuf::collect(key_of(&self.schema.key_columns, &row.ids).copied());
        self.primary.remove(&*key);
        self.dict.release_all(row.stored.tuple.values(), &row.ids);
        self.free.push(slot);
        self.order.take();
        row.stored.tuple
    }

    /// Delete (one derivation of) a tuple.
    pub fn delete(&mut self, tuple: &Tuple) -> DeleteOutcome {
        let Some(slot) = self.slot_of(tuple) else {
            return DeleteOutcome::NotFound;
        };
        let existing = self.rows[slot as usize].as_mut().expect("slot is live");
        if existing.stored.count > 1 {
            existing.stored.count -= 1;
            DeleteOutcome::Decremented
        } else {
            self.evict(slot);
            DeleteOutcome::Removed
        }
    }

    /// Remove a tuple outright regardless of its derivation count (used
    /// when a primary-key replacement cascades).
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        let Some(slot) = self.slot_of(tuple) else {
            return false;
        };
        self.evict(slot);
        true
    }

    /// Remove all tuples whose soft-state lifetime has elapsed, returning
    /// them in primary-key order. Hard-state relations hold no expiry time
    /// and are not walked; a soft-state one is walked in slab order, and
    /// only the expired rows are sorted.
    pub fn expire(&mut self, now_micros: u64) -> Vec<Tuple> {
        if self.schema.ttl_micros.is_none() {
            return Vec::new();
        }
        let due = |row: &Row| row.stored.expires_at.is_some_and(|t| t <= now_micros);
        let mut expired: Vec<u32> = (0u32..)
            .zip(&self.rows)
            .filter(|(_, row)| row.as_ref().is_some_and(due))
            .map(|(slot, _)| slot)
            .collect();
        expired.sort_unstable_by(|&a, &b| self.cmp_slots(a, b));
        expired.into_iter().map(|slot| self.evict(slot)).collect()
    }

    /// Check that slab, primary index, buckets, cached order and
    /// dictionary reference counts describe the same set of rows. For
    /// tests and debug assertions: O(stored data).
    pub fn check_invariants(&self) -> Result<(), String> {
        let ensure = |holds: bool, what: &dyn Fn() -> String| {
            let name = &self.schema.name;
            (holds.then_some(())).ok_or_else(|| format!("relation {name}: {}", what()))
        };
        let row_in = |slot: u32| self.rows.get(slot as usize).and_then(Option::as_ref);
        let ascending = |slots: &[u32]| {
            let ordered = |w: &[u32]| self.cmp_slots(w[0], w[1]) == Ordering::Less;
            slots.iter().all(|&s| row_in(s).is_some()) && slots.windows(2).all(ordered)
        };
        let rows = self.rows.iter().flatten().count();
        let slab = rows == self.primary.len()
            && rows + self.free.len() == self.rows.len()
            && self.free.iter().all(|&slot| row_in(slot).is_none());
        ensure(slab, &|| {
            let (keys, free, slots) = (self.primary.len(), &self.free, self.rows.len());
            format!("slab: {rows} rows, {keys} keys, free {free:?} of {slots} slots")
        })?;
        let mut held = vec![0u32; self.dict.id_space()];
        for (key, &slot) in &self.primary {
            let sound = row_in(slot).is_some_and(|row| {
                let values = row.stored.tuple.values();
                row.stored.count > 0
                    && key_of(&self.schema.key_columns, &row.ids).eq(key.iter())
                    && values.len() == row.ids.len()
                    && values
                        .iter()
                        .zip(row.ids.iter())
                        .all(|(value, id)| self.dict.lookup(value) == Some(*id))
            });
            ensure(sound, &|| {
                format!("slot {slot} under key {key:?} holds {:?}", row_in(slot))
            })?;
            for id in live(&self.rows, slot).ids.iter() {
                held[id.raw() as usize] += 1;
            }
        }
        self.dict
            .check(&held)
            .or_else(|what| ensure(false, &|| format!("dictionary: {what}")))?;
        for index in &self.indexes {
            let sig = index.signature().columns();
            let covers = |row: &&Row| sig.iter().all(|&c| c < row.ids.len());
            let mut filed = 0;
            for (key, bucket) in index.buckets() {
                let projects = |&slot: &u32| {
                    let row = row_in(slot).filter(covers);
                    row.is_some_and(|row| sig.iter().map(|&c| &row.ids[c]).eq(key))
                };
                let sound = !bucket.is_empty() && bucket.iter().all(projects) && ascending(bucket);
                ensure(sound, &|| {
                    format!("index {sig:?}: bucket {key:?} holds {bucket:?}")
                })?;
                filed += bucket.len();
            }
            let indexable = self.rows.iter().flatten().filter(covers).count();
            ensure(filed == indexable && filed == index.len(), &|| {
                let counted = index.len();
                format!("index {sig:?}: {filed} filed, {counted} counted, {indexable} rows")
            })?;
        }
        let order = self.order.get();
        let fresh = order.is_none_or(|order| order.len() == rows && ascending(order));
        ensure(fresh, &|| format!("cached order is stale: {order:?}"))
    }
}

/// The iterator behind every filtered read: walk a bucket — or, for a
/// scan, the whole relation in key order — yielding the rows that are
/// visible and whose ids pass the residual columns.
struct Matches<'r> {
    rows: &'r [Option<Row>],
    slots: std::slice::Iter<'r, u32>,
    seq_limit: u64,
    residual: Vec<(usize, ValueId)>,
}

impl<'r> Iterator for Matches<'r> {
    type Item = &'r StoredTuple;
    fn next(&mut self) -> Option<&'r StoredTuple> {
        let (rows, seq_limit, residual) = (self.rows, self.seq_limit, &self.residual);
        self.slots
            .by_ref()
            .map(|&slot| live(rows, slot))
            .find(|row| {
                row.stored.seq <= seq_limit
                    && residual.iter().all(|&(c, id)| row.ids.get(c) == Some(&id))
            })
            .map(|row| &row.stored)
    }
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

    fn path_tuple(i: i64) -> Tuple {
        let hops = (0..6).map(|h| Value::addr((i + h) as u32)).collect();
        Tuple::new(vec![
            Value::addr((i % 7) as u32),
            Value::Int(i),
            Value::list(hops),
        ])
    }

    #[test]
    fn dictionary_tracks_stored_data_not_history() {
        let mut r = Relation::new(RelationSchema::new("path").with_keys(vec![0, 1]));
        r.ensure_index(&[0]);
        r.insert(path_tuple(-1), 1, 0);
        let start = r.dictionary_len();
        assert_eq!(start, 3);
        for i in 0..10_000 {
            assert_eq!(r.insert(path_tuple(i), i as u64 + 2, 0), InsertOutcome::New);
        }
        assert!(r.dictionary_len() > 10_000, "every path vector is distinct");
        for i in 0..10_000 {
            // Half by the count algorithm, half outright.
            if i % 2 == 0 {
                assert_eq!(r.delete(&path_tuple(i)), DeleteOutcome::Removed);
            } else {
                assert!(r.remove(&path_tuple(i)));
            }
        }
        assert_eq!(r.dictionary_len(), start, "released ids are freed");
        assert_eq!(r.len(), 1);
        r.check_invariants().unwrap();
        // Freed slots and ids are handed out again: a second wave of the
        // same size grows neither the slab nor the id space.
        let (slots, ids) = (r.rows.len(), r.dict.id_space());
        for i in 0..10_000 {
            r.insert(path_tuple(i + 20_000), i as u64 + 20_000, 0);
        }
        assert_eq!(r.rows.len(), slots);
        assert_eq!(r.dict.id_space(), ids);
        r.check_invariants().unwrap();
    }

    #[test]
    fn replacement_releases_the_old_values_and_keeps_the_slot() {
        let mut r = keyed_relation();
        r.ensure_index(&[1]);
        r.insert(t(&[1, 10]), 1, 0);
        let slot = r.slot_of(&t(&[1, 10])).unwrap();
        assert!(matches!(
            r.insert(t(&[1, 20]), 2, 0),
            InsertOutcome::Replaced(_)
        ));
        assert_eq!(r.slot_of(&t(&[1, 20])), Some(slot));
        assert_eq!(r.dictionary_len(), 2, "10 went with the old tuple");
        assert_eq!(r.dict.lookup(&Value::Int(10)), None);
        r.check_invariants().unwrap();
    }

    #[test]
    fn relations_share_no_dictionary() {
        // Two engines' worth of relations: building one leaves the other's
        // dictionary empty, dropping it leaves nothing behind to look at.
        let mut a = keyed_relation();
        let b = keyed_relation();
        a.insert(t(&[1, 10]), 1, 0);
        assert_eq!(a.dictionary_len(), 2);
        assert_eq!(b.dictionary_len(), 0);
        assert!(!b.contains(&t(&[1, 10])));
        drop(a);
        let mut c = keyed_relation();
        c.insert(t(&[5, 50]), 1, 0);
        assert_eq!(c.dict.lookup(&Value::Int(5)).map(ValueId::raw), Some(0));
    }

    #[test]
    fn int_and_float_keys_are_one_key() {
        let mut r = keyed_relation();
        r.ensure_index(&[0]);
        let float_key = Tuple::new(vec![Value::Float(3.0), Value::Int(1)]);
        assert_eq!(r.insert(t(&[3, 1]), 1, 0), InsertOutcome::New);
        assert_eq!(r.insert(float_key.clone(), 2, 0), InsertOutcome::Duplicate);
        assert!(r.contains(&float_key));
        assert_eq!(r.get(&[Value::Float(3.0)]).unwrap().tuple, t(&[3, 1]));
        let mut stats = JoinStats::default();
        let hits: Vec<_> = r
            .lookup(&[0], &[Value::Float(3.0)], u64::MAX, &mut stats)
            .collect();
        assert_eq!(hits.len(), 1, "a float probe finds the integer key");
        assert_eq!(r.delete(&float_key), DeleteOutcome::Decremented);
        assert_eq!(r.delete(&float_key), DeleteOutcome::Removed);
        assert!(r.is_empty());
    }

    #[test]
    fn order_follows_the_declared_key_columns_not_the_tuple() {
        // Keyed on (col 2, col 0), in that order: iteration and bucket
        // order are by the projected key, whatever the column positions.
        let mut r = Relation::new(RelationSchema::new("r").with_keys(vec![2, 0]));
        r.ensure_index(&[1]);
        for (i, row) in [[5, 0, 1], [1, 0, 2], [9, 0, 1], [2, 0, 0]]
            .iter()
            .enumerate()
        {
            r.insert(t(row), i as u64 + 1, 0);
        }
        let by_key = vec![t(&[2, 0, 0]), t(&[5, 0, 1]), t(&[9, 0, 1]), t(&[1, 0, 2])];
        let iterated: Vec<Tuple> = r.iter().map(|s| s.tuple.clone()).collect();
        assert_eq!(iterated, by_key);
        assert_eq!(probed(&r, &[1], &[0], u64::MAX), by_key);
        // An index declared after the data files in the same order.
        r.ensure_index(&[1, 2]);
        assert_eq!(
            probed(&r, &[1, 2], &[0, 1], u64::MAX),
            vec![t(&[5, 0, 1]), t(&[9, 0, 1])]
        );
        r.check_invariants().unwrap();
    }

    #[test]
    fn ordered_reads_sort_once_per_membership_change() {
        let mut r = keyed_relation();
        for i in [3, 1, 2] {
            r.insert(t(&[i, 0]), i as u64, 0);
        }
        assert!(r.order.get().is_none(), "nothing sorted before a read");
        assert_eq!(r.iter().count(), 3);
        assert!(r.order.get().is_some());
        // Count bumps and replacements keep keys, slots and the order.
        r.insert(t(&[1, 0]), 4, 0);
        r.insert(t(&[2, 9]), 5, 0);
        assert_eq!(r.delete(&t(&[1, 0])), DeleteOutcome::Decremented);
        assert!(r.order.get().is_some());
        let keys: Vec<_> = r.iter().map(|s| s.tuple.get(0).cloned()).collect();
        assert_eq!(
            keys,
            vec![
                Some(Value::Int(1)),
                Some(Value::Int(2)),
                Some(Value::Int(3))
            ]
        );
        // Membership changes drop it.
        r.insert(t(&[0, 0]), 6, 0);
        assert!(r.order.get().is_none());
        assert_eq!(r.iter().next().unwrap().tuple, t(&[0, 0]));
        r.remove(&t(&[3, 0]));
        assert!(r.order.get().is_none());
        assert_eq!(r.iter_unordered().count(), 3);
        assert!(r.order.get().is_none(), "unordered reads sort nothing");
    }

    #[test]
    fn probe_value_nobody_stores_is_a_probe_of_nothing() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[0]);
        for i in 0..6 {
            r.insert(t(&[i % 2, i]), i as u64 + 1, 0);
        }
        // Absent from the dictionary altogether: still one logical and one
        // distinct probe, nothing examined, and no id is assigned.
        let before = r.dictionary_len();
        let mut stats = JoinStats::default();
        assert!(lookup_all(&r, &[0], &[77], &mut stats).is_empty());
        assert_eq!((stats.logical_probes, stats.distinct_probes), (1, 1));
        assert_eq!((stats.scans, stats.tuples_examined), (0, 0));
        assert_eq!(r.dictionary_len(), before);
        // Absent only in the residual column: the bucket is examined.
        let mut stats = JoinStats::default();
        assert!(lookup_all(&r, &[0, 1], &[1, 77], &mut stats).is_empty());
        assert_eq!((stats.logical_probes, stats.tuples_examined), (1, 3));
        // Stored in the residual column, but of another bucket's row.
        let mut stats = JoinStats::default();
        assert!(lookup_all(&r, &[0, 1], &[1, 2], &mut stats).is_empty());
        assert_eq!(stats.tuples_examined, 3);
        // A residual column beyond the rows' arity matches nothing.
        assert!(lookup_all(&r, &[0, 5], &[1, 1], &mut stats).is_empty());
    }

    #[test]
    fn check_invariants_names_what_broke() {
        let mut r = keyed_relation();
        r.ensure_index(&[1]);
        for i in 0..4 {
            r.insert(t(&[i, i % 2]), i as u64 + 1, 0);
        }
        r.iter().count();
        r.check_invariants().unwrap();
        let mut stale_order = r.clone();
        stale_order.order = OnceLock::from(vec![0, 1, 2]);
        let err = stale_order.check_invariants().unwrap_err();
        assert!(err.contains("relation r: cached order"), "{err}");
        let mut leaked_row = r.clone();
        leaked_row.free.push(0);
        assert!(leaked_row.check_invariants().is_err());
        let mut lost_reference = r.clone();
        let row = lost_reference.rows[0].clone().unwrap();
        lost_reference
            .dict
            .release_all(row.stored.tuple.values(), &row.ids);
        let err = lost_reference.check_invariants().unwrap_err();
        assert!(
            err.contains("dictionary") || err.contains("is not id"),
            "{err}"
        );
        let mut unfiled = r.clone();
        let ids = unfiled.rows[1].as_ref().unwrap().ids.clone();
        unfiled.indexes[0].unfile(&ids, 1);
        let err = unfiled.check_invariants().unwrap_err();
        assert!(err.contains("index [1]"), "{err}");
    }

    #[test]
    fn schema_key_projection() {
        let s = RelationSchema::new("r").with_keys(vec![1]);
        assert_eq!(s.key_of(&t(&[7, 8])), vec![Value::Int(8)]);
        let s = RelationSchema::new("r");
        assert_eq!(s.key_of(&t(&[7, 8])).len(), 2);
    }
}

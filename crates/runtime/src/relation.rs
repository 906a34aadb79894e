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
//! [`StoredTuple`] and nothing else — 48 bytes in the slot, and beyond the
//! tuple itself (one allocation, fields and reference count together) no
//! allocation of its own. The tuple is the only copy of the row's key and
//! of every projection of it; only this module knows how a projection is
//! read off it. Everything else refers to the row by slot:
//!
//! * the **primary index** and every **secondary index** are one kind of
//!   table ([`crate::index`]): the 64-bit fingerprint of a projection's
//!   values — the key columns', a declared bound-column signature's — maps
//!   to the slots of the rows carrying it, a lone slot inline in the
//!   16-byte entry, and every hit is verified by `Value` equality against
//!   the tuple in the slab row. A value hashes and compares in O(1) but
//!   for a list that differs from the one it meets — a list caches its
//!   hash, and two lists compare only up to the tail they share — so no
//!   key is cloned, boxed or stored twice, and two projections sharing a
//!   fingerprint cost a comparison, never a wrong answer. The tables are
//!   maintained on every mutation — insertion, key replacement, deletion,
//!   expiry — so [`Relation::probe`] answers an equality lookup in
//!   O(matches) instead of the O(|relation|) of [`Relation::scan_match`];
//! * **ordered reads** — [`Relation::iter`], [`Relation::scan_match`], the
//!   scan arm of [`Relation::lookup`], [`Relation::expire`] — walk a list
//!   of slots sorted by primary-key value, built on first use and kept
//!   until the next membership change, so a relation that stopped changing
//!   is sorted once; [`Relation::iter_unordered`] is the borrow for readers
//!   that filter first and order their own result.
//!
//! Observable order is always primary-key *value* order — the order a
//! `BTreeMap<Vec<Value>, _>` gives — in ordered reads and inside every
//! bucket alike; slots and fingerprints depend on history and are never
//! exposed (see [`crate::index`] for why that matters).
//!
//! # Access paths
//!
//! The data model stores one tuple per primary key, so a lookup whose bound
//! columns include the whole key can match one row at most, and the primary
//! index finds it: [`Relation::lookup`] fingerprints the key columns'
//! values, takes the one slot filed under them and checks the leftover
//! bound columns on that row's tuple. "The whole key" is the declared key
//! columns;
//! a relation that declares none keys each row by all of its columns,
//! however many it has, and its lookups all take the path below. A
//! key-bound lookup is accounted exactly as the probe of a secondary index
//! on its bound columns would be (one probe, the row examined if that
//! index's bucket would have held it), and [`Relation::ensure_index`]
//! builds nothing for a signature that binds the whole key:
//! [`Relation::index_signatures`] lists the secondary indexes that exist,
//! not every signature the plans declared.
//!
//! For any other lookup, when several declared signatures can serve it,
//! [`Relation::lookup`] makes a cost-based choice: the candidate binding
//! the most columns wins, with the smallest bucket breaking ties and
//! signature order breaking exact ties (so the choice never depends on
//! index declaration order), and any leftover bound columns enforced
//! residually by comparing the candidate row's values. [`Relation::lookup_n`]
//! is the grouped-probe entry point: one bucket lookup answers `members`
//! same-key environments, with the per-environment (`logical`) accounting
//! preserved via a multiplier.
//!
//! [`Relation::heap_bytes`] reports what the slab, the primary index and
//! each secondary index hold, from their capacities.

use crate::index::{fingerprint, IndexSignature, JoinStats, SecondaryIndex, SlotTable};
use crate::tuple::Tuple;
use ndlog_lang::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
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

    /// Why a tuple of `arity` columns cannot be stored under this schema:
    /// it lacks a declared key column. A relation stores its tuples by key,
    /// so such a tuple is refused where it enters the system, never handed
    /// to [`Relation::insert`] or [`Relation::delete`].
    pub fn lacks_key(&self, arity: usize) -> Option<String> {
        let column = self.key_columns.iter().find(|&&c| c >= arity)?;
        Some(format!(
            "`{}` has {arity} column(s) but its primary key includes column {}",
            self.name,
            column + 1
        ))
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

/// A stored relation (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelationSchema,
    /// The slab: `rows[slot]` is `None` while the slot is on `free`.
    rows: Vec<Option<StoredTuple>>,
    free: Vec<u32>,
    /// Every row filed by the values of its key columns: runs of one slot.
    primary: SlotTable,
    /// Secondary indexes, one per declared bound-column signature that
    /// does not bind the whole primary key.
    indexes: Vec<SecondaryIndex>,
    /// What a fingerprint goes through before it reaches a table: the
    /// identity, except under [`Relation::with_fingerprints`].
    squash: fn(u64) -> u64,
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

/// The primary-key values of a row: its declared key columns in declaration
/// order, or every column when none is.
fn key_of<'a>(
    key_columns: &'a [usize],
    row: &'a [Value],
) -> impl ExactSizeIterator<Item = &'a Value> + Clone {
    let n = if key_columns.is_empty() {
        row.len()
    } else {
        key_columns.len()
    };
    (0..n).map(move |i| &row[key_columns.get(i).copied().unwrap_or(i)])
}

/// Compare two rows by primary key, as `key_of(a).cmp(&key_of(b))` on the
/// schema would.
fn cmp_rows(key_columns: &[usize], a: &StoredTuple, b: &StoredTuple) -> Ordering {
    let (a, b) = (a.tuple.values(), b.tuple.values());
    key_of(key_columns, a).cmp(key_of(key_columns, b))
}

fn live(rows: &[Option<StoredTuple>], slot: u32) -> &StoredTuple {
    rows[slot as usize].as_ref().expect("slot is live")
}

/// Whether the row in `slot` has exactly `key` as the values of its key
/// columns: the verification behind every primary-index hit.
fn has_key<'v>(
    rows: &[Option<StoredTuple>],
    key_columns: &[usize],
    slot: u32,
    key: impl Iterator<Item = &'v Value>,
) -> bool {
    key_of(key_columns, live(rows, slot).tuple.values()).eq(key)
}

/// The values of a row at the columns of a signature it covers.
fn project<'a>(
    cols: &'a [usize],
    row: &'a [Value],
) -> impl ExactSizeIterator<Item = &'a Value> + Clone {
    cols.iter().map(|&c| &row[c])
}

/// Whether the row in `slot` — filed in the index on `cols`, so covering
/// them — carries `projection` in those columns: the verification behind
/// every secondary-index hit.
fn projects_as<'v>(
    rows: &[Option<StoredTuple>],
    cols: &[usize],
    slot: u32,
    projection: impl Iterator<Item = &'v Value>,
) -> bool {
    project(cols, live(rows, slot).tuple.values()).eq(projection)
}

impl Relation {
    /// Create an empty relation.
    pub fn new(schema: RelationSchema) -> Self {
        Self::with_fingerprints(schema, |fingerprint| fingerprint)
    }

    /// An empty relation whose tables file under `squash(fingerprint)`: a
    /// degenerate `squash` (`|_| 0`) makes every projection collide, which
    /// is how tests show that answers, order and counts never depend on
    /// fingerprints being distinct.
    #[doc(hidden)]
    pub fn with_fingerprints(schema: RelationSchema, squash: fn(u64) -> u64) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
            free: Vec::new(),
            primary: SlotTable::default(),
            indexes: Vec::new(),
            squash,
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
        self.primary.len() == 0
    }

    /// What the tables file the projection `values` yields under.
    fn fingerprint<'v>(&self, values: impl Iterator<Item = &'v Value>) -> u64 {
        (self.squash)(fingerprint(values))
    }

    /// The primary index's run — one slot or none — for the key whose
    /// values `key` yields.
    fn key_run<'v>(&self, key: impl Iterator<Item = &'v Value> + Clone) -> &[u32] {
        let (rows, key_columns) = (&self.rows, &self.schema.key_columns);
        let same = |slot| has_key(rows, key_columns, slot, key.clone());
        self.primary.run(self.fingerprint(key.clone()), same)
    }

    /// The slot holding the tuple with `tuple`'s primary key.
    fn slot_by_key_of(&self, tuple: &Tuple) -> Option<u32> {
        let key = key_of(&self.schema.key_columns, tuple.values());
        self.key_run(key).first().copied()
    }

    /// The slot holding exactly `tuple`. With an all-columns key the key
    /// match is the identity; otherwise the non-key columns are compared
    /// (a pointer comparison when `tuple` is a clone of the stored one).
    fn slot_of(&self, tuple: &Tuple) -> Option<u32> {
        self.slot_by_key_of(tuple).filter(|&slot| {
            self.schema.key_columns.is_empty() || live(&self.rows, slot).tuple == *tuple
        })
    }

    /// Whether an identical tuple is stored.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.slot_of(tuple).is_some()
    }

    /// The stored tuple with the same primary key as `tuple`, if any.
    pub fn get_by_key_of(&self, tuple: &Tuple) -> Option<&StoredTuple> {
        self.slot_by_key_of(tuple)
            .map(|slot| live(&self.rows, slot))
    }

    /// Look up by an explicit key.
    pub fn get(&self, key: &[Value]) -> Option<&StoredTuple> {
        let slot = *self.key_run(key.iter()).first()?;
        Some(live(&self.rows, slot))
    }

    /// Compare the rows in two live slots by primary key.
    fn cmp_slots(&self, a: u32, b: u32) -> Ordering {
        let key = &self.schema.key_columns;
        cmp_rows(key, live(&self.rows, a), live(&self.rows, b))
    }

    /// The live slots in primary-key value order.
    fn ordered(&self) -> &[u32] {
        self.order.get_or_init(|| {
            let slots = (0u32..).zip(&self.rows);
            let mut slots: Vec<u32> = slots
                .filter(|(_, row)| row.is_some())
                .map(|s| s.0)
                .collect();
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
        self.rows.iter().flatten()
    }

    /// Walk `slots`, yielding the rows visible at or before `seq_limit`
    /// that carry `bound`'s value in each of its columns.
    fn matches<'r, 'b>(
        &'r self,
        slots: &'r [u32],
        bound: impl Iterator<Item = (usize, &'b Value)>,
        seq_limit: u64,
    ) -> Matches<'r> {
        let residual = bound.map(|(col, value)| (col, value.clone()));
        Matches {
            rows: &self.rows,
            slots: slots.iter(),
            seq_limit,
            residual: residual.collect(),
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

    /// Whether binding `cols` (sorted, deduplicated) binds the primary key
    /// of every stored row, so that the primary index answers the lookup:
    /// the relation declares key columns and they are all among `cols`.
    /// (Without declared key columns a row is keyed by all of its columns,
    /// and no set of columns is known to be all of every row's.)
    fn binds_key(&self, cols: &[usize]) -> bool {
        let key = &self.schema.key_columns;
        !key.is_empty() && key.iter().all(|c| cols.binary_search(c).is_ok())
    }

    /// Ensure a secondary index exists for the given bound-column
    /// signature, backfilling it from the stored tuples. Returns true if a
    /// new index was built. Empty signatures (no bound columns), duplicates
    /// and signatures binding the whole primary key — the primary index
    /// serves those, see [`Relation::lookup`] — are ignored.
    pub fn ensure_index(&mut self, cols: &[usize]) -> bool {
        let signature = IndexSignature::new(cols);
        if signature.is_empty()
            || self.binds_key(signature.columns())
            || self.indexes.iter().any(|i| i.signature == signature)
        {
            return false;
        }
        let mut table = SlotTable::default();
        // Filing in key order makes every run an append.
        for &slot in self.ordered() {
            if let Some((fingerprint, same)) =
                filing(&self.rows, self.squash, signature.columns(), slot)
            {
                table.file(fingerprint, slot, same, <[u32]>::len);
            }
        }
        self.indexes.push(SecondaryIndex { signature, table });
        true
    }

    /// The bound-column signatures this relation keeps a secondary index
    /// on. Declared signatures that bind the whole primary key are not
    /// among them: [`Relation::ensure_index`] builds nothing for those.
    pub fn index_signatures(&self) -> impl Iterator<Item = &IndexSignature> {
        self.indexes.iter().map(|index| &index.signature)
    }

    /// Live statistics for every secondary index:
    /// `(signature, distinct keys, indexed entries)`. Distinct keys is the
    /// bucket count — the number of different probe-key values currently
    /// stored — so `entries / distinct` is the average matches per probe,
    /// the quantity cost-based join ordering ranks plans by.
    pub fn index_stats(&self) -> impl Iterator<Item = (&IndexSignature, usize, usize)> {
        self.indexes
            .iter()
            .map(|ix| (&ix.signature, ix.table.run_count(), ix.table.len()))
    }

    /// Heap bytes the relation's own structures hold, by component, from
    /// their capacities (see [`HeapBytes`]).
    pub fn heap_bytes(&self) -> HeapBytes {
        let order = self.order.get().map_or(0, Vec::capacity);
        let secondary = self.indexes.iter();
        HeapBytes {
            slab: self.rows.capacity() * std::mem::size_of::<Option<StoredTuple>>()
                + (self.free.capacity() + order) * 4,
            primary: self.primary.heap_bytes(),
            secondary: secondary
                .map(|index| (index.signature.clone(), index.table.heap_bytes()))
                .collect(),
        }
    }

    /// Probe the relation on `cols` (which must be sorted and
    /// deduplicated, with `key` holding the bound values in the same
    /// order) for tuples visible at or before `seq_limit`, in deterministic
    /// primary-key order: through the primary index when `cols` bind the
    /// whole primary key, else through the secondary index on exactly
    /// `cols`.
    ///
    /// Returns `None` when neither exists — the caller falls back to
    /// [`Relation::scan_match`].
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
        let run = if self.binds_key(cols) {
            self.key_probe(cols, key)
        } else {
            let mut indexes = self.indexes.iter();
            let index = indexes.find(|index| index.signature.columns() == cols)?;
            self.probe_bucket(index, cols, key)
        };
        Some(self.matches(run, std::iter::empty(), seq_limit))
    }

    /// What the index on exactly `cols` would hold for `key`, had
    /// [`Relation::ensure_index`] built one although `cols` bind the whole
    /// primary key: the one row the primary index finds under the key
    /// columns' values, if it carries the rest of `key` too.
    fn key_probe(&self, cols: &[usize], key: &[Value]) -> &[u32] {
        let key_columns = &self.schema.key_columns;
        let at = |c: &usize| &key[cols.binary_search(c).expect("bound key column")];
        let run = self.key_run(key_columns.iter().map(at));
        let Some(&slot) = run.first() else {
            return &[];
        };
        let row = &live(&self.rows, slot).tuple;
        let leftover = |col: &usize| !key_columns.contains(col);
        let carried = |(&col, value): (&usize, &Value)| row.get(col) == Some(value);
        let bound = cols.iter().zip(key);
        if bound.filter(|(col, _)| leftover(col)).all(carried) {
            run
        } else {
            &[]
        }
    }

    /// The bucket of `index` a lookup binding `cols` to `key` probes
    /// (`index`'s signature must be covered by `cols`).
    fn probe_bucket<'r>(
        &'r self,
        index: &'r SecondaryIndex,
        cols: &[usize],
        key: &[Value],
    ) -> &'r [u32] {
        let sig = index.signature.columns();
        let bound = sig
            .iter()
            .map(|c| &key[cols.binary_search(c).expect("covered signature")]);
        let same = |slot| projects_as(&self.rows, sig, slot, bound.clone());
        index.table.run(self.fingerprint(bound.clone()), same)
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
        let covered = |index: &&SecondaryIndex| index.signature.is_covered_by(cols);
        let width = |index: &SecondaryIndex| index.signature.columns().len();
        let widest = self.indexes.iter().filter(covered).map(width).max()?;
        self.indexes
            .iter()
            .filter(|index| width(index) == widest && covered(index))
            .map(|index| (index, self.probe_bucket(index, cols, key)))
            .min_by_key(|(index, bucket)| (bucket.len(), &index.signature))
    }

    /// The single access-path chooser behind every join. A lookup whose
    /// `cols` (sorted, with `key` holding the bound values in the same
    /// order) bind the whole primary key goes to the primary index: it
    /// finds the one row with that key and checks the leftover bound
    /// columns on it, and is accounted exactly as the probe of an index on
    /// `cols` it stands in for — one probe, the row examined if that
    /// index's bucket would have held it. Any other lookup is a
    /// *cost-based* choice among the declared indexes: any index whose
    /// signature is a subset of `cols` can serve it; the most selective
    /// candidate wins (most bound columns, then smallest bucket, then
    /// signature order — see `Relation::best_index`), with the
    /// signature-leftover columns checked residually on each probed row.
    /// Only when no index covers any bound column does the lookup fall
    /// back to an equivalent residual scan — `cols` may be empty for a
    /// genuine cross product. The chosen path and the tuples examined are
    /// recorded in `stats` up front; iteration is lazy.
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
        // the rest are enforced residually (none for a key probe or an
        // exact-signature match, all of them for a scan).
        let probed = if self.binds_key(cols) {
            Some((self.key_probe(cols, key), cols))
        } else {
            let best = self.best_index(cols, key);
            best.map(|(index, bucket)| (bucket, index.signature.columns()))
        };
        let (slots, satisfied) = match probed {
            Some(probed) => {
                stats.logical_probes += members;
                stats.distinct_probes += 1;
                probed
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

    /// File the row in `slot` in every secondary index, at its place in
    /// each run's primary-key value order.
    fn file(&mut self, slot: u32) {
        let (rows, key, squash) = (&self.rows, &self.schema.key_columns, self.squash);
        let row = live(rows, slot);
        let before = |&other: &u32| cmp_rows(key, live(rows, other), row) == Ordering::Less;
        for SecondaryIndex { signature, table } in &mut self.indexes {
            if let Some((fingerprint, same)) = filing(rows, squash, signature.columns(), slot) {
                table.file(fingerprint, slot, same, |run| run.partition_point(before));
            }
        }
    }

    /// Unfile the row in `slot` from every secondary index.
    fn unfile(&mut self, slot: u32) {
        let (rows, squash) = (&self.rows, self.squash);
        for SecondaryIndex { signature, table } in &mut self.indexes {
            if let Some((fingerprint, same)) = filing(rows, squash, signature.columns(), slot) {
                table.unfile(fingerprint, slot, same);
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
        let expires_at = self.schema.ttl_micros.map(|ttl| now_micros + ttl);
        // Scoped: `key` borrows `tuple`, which a new row takes below.
        let (filed_under, found) = {
            let key_columns = &self.schema.key_columns;
            let key = key_of(key_columns, tuple.values());
            let filed_under = self.fingerprint(key.clone());
            let same = |slot| has_key(&self.rows, key_columns, slot, key.clone());
            let found = self.primary.run(filed_under, same).first().copied();
            (filed_under, found)
        };
        let fresh = |tuple| StoredTuple {
            tuple,
            count: 1,
            seq,
            expires_at,
        };
        let Some(slot) = found else {
            let row = Some(fresh(tuple));
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
            // A key no row has: a run of its own, wherever it lands.
            self.primary
                .file(filed_under, slot, |_| false, <[u32]>::len);
            self.order.take();
            self.file(slot);
            return InsertOutcome::New;
        };
        let existing = self.rows[slot as usize].as_mut().expect("slot is live");
        if existing.tuple == tuple {
            // Duplicate derivation: count bump and soft-state refresh,
            // indexes untouched.
            existing.count += 1;
            if expires_at.is_some() {
                existing.expires_at = expires_at;
            }
            return InsertOutcome::Duplicate;
        }
        // Primary-key replacement, in the same slot: the key, hence the
        // primary entry and the slot's place in key order, stays.
        self.lossy_replacements += existing.count;
        self.unfile(slot);
        let existing = self.rows[slot as usize].as_mut().expect("slot is live");
        let old = std::mem::replace(existing, fresh(tuple)).tuple;
        self.file(slot);
        InsertOutcome::Replaced(old)
    }

    /// Take the row in `slot` out of the slab, the primary index and every
    /// secondary index.
    fn evict(&mut self, slot: u32) -> Tuple {
        self.unfile(slot);
        let row = self.rows[slot as usize].take().expect("slot is live");
        let key = key_of(&self.schema.key_columns, row.tuple.values());
        // Runs of the primary index are one slot: no neighbour to ask.
        self.primary.unfile(self.fingerprint(key), slot, |_| false);
        self.free.push(slot);
        self.order.take();
        row.tuple
    }

    /// Delete (one derivation of) a tuple.
    pub fn delete(&mut self, tuple: &Tuple) -> DeleteOutcome {
        let Some(slot) = self.slot_of(tuple) else {
            return DeleteOutcome::NotFound;
        };
        let existing = self.rows[slot as usize].as_mut().expect("slot is live");
        if existing.count > 1 {
            existing.count -= 1;
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
        let due = |row: &StoredTuple| row.expires_at.is_some_and(|t| t <= now_micros);
        let mut expired: Vec<u32> = (0u32..)
            .zip(&self.rows)
            .filter(|(_, row)| row.as_ref().is_some_and(due))
            .map(|(slot, _)| slot)
            .collect();
        expired.sort_unstable_by(|&a, &b| self.cmp_slots(a, b));
        expired.into_iter().map(|slot| self.evict(slot)).collect()
    }

    /// Check that slab, primary index, secondary indexes and cached order
    /// describe the same set of rows, and that every table files each row
    /// under the fingerprint of its projection, runs contiguous and in key
    /// order. For tests and debug assertions: O(stored data).
    pub fn check_invariants(&self) -> Result<(), String> {
        let ensure = |holds: bool, what: &dyn Fn() -> String| {
            let name = &self.schema.name;
            (holds.then_some(())).ok_or_else(|| format!("relation {name}: {}", what()))
        };
        let rows = self.rows.iter().flatten().count();
        let slab = rows == self.primary.len()
            && rows + self.free.len() == self.rows.len()
            && self.free.iter().all(|&slot| self.row_in(slot).is_none());
        ensure(slab, &|| {
            let (keys, free, slots) = (self.primary.len(), &self.free, self.rows.len());
            format!("slab: {rows} rows, {keys} keys, free {free:?} of {slots} slots")
        })?;
        for row in self.rows.iter().flatten() {
            ensure(row.count > 0, &|| format!("row {row:?}"))?;
        }
        let key_columns = &self.schema.key_columns;
        self.check_table(&self.primary, |row| {
            Some(key_of(key_columns, row.tuple.values()))
        })
        .and_then(|()| {
            let lone = self.primary.run_count() == self.primary.len();
            lone.then_some(())
                .ok_or_else(|| "two rows share a key".to_string())
        })
        .or_else(|what| ensure(false, &|| format!("primary index: {what}")))?;
        for SecondaryIndex { signature, table } in &self.indexes {
            let sig = signature.columns();
            self.check_table(table, |row| {
                let covered = sig.iter().all(|&c| c < row.tuple.arity());
                covered.then(|| project(sig, row.tuple.values()))
            })
            .or_else(|what| ensure(false, &|| format!("index {sig:?}: {what}")))?;
            ensure(!self.binds_key(sig), &|| {
                format!("index {sig:?} binds the whole primary key")
            })?;
        }
        let order = self.order.get();
        let fresh = order.is_none_or(|order| order.len() == rows && self.ascending(order));
        ensure(fresh, &|| format!("cached order is stale: {order:?}"))
    }

    /// The row in `slot`, if there is such a slot and it is live.
    fn row_in(&self, slot: u32) -> Option<&StoredTuple> {
        self.rows.get(slot as usize).and_then(Option::as_ref)
    }

    /// Whether `slots` are live and in strictly ascending key order.
    fn ascending(&self, slots: &[u32]) -> bool {
        let ordered = |w: &[u32]| self.cmp_slots(w[0], w[1]) == Ordering::Less;
        slots.iter().all(|&s| self.row_in(s).is_some()) && slots.windows(2).all(ordered)
    }

    /// Check that `table` files every row `projection` covers under the
    /// fingerprint of its projection, same projections side by side in key
    /// order. Allocates nothing per row: it runs at every quiescence of a
    /// debug build.
    fn check_table<'r, P>(
        &'r self,
        table: &SlotTable,
        projection: impl Fn(&'r StoredTuple) -> Option<P>,
    ) -> Result<(), String>
    where
        P: Iterator<Item = &'r Value> + Clone,
    {
        let filable = self
            .rows
            .iter()
            .flatten()
            .filter(|row| projection(row).is_some());
        if table.len() != filable.count() {
            return Err(format!("{} rows filed", table.len()));
        }
        table.check(|filed_under, slots| {
            let projection = |&slot: &u32| self.row_in(slot).and_then(&projection);
            let same = |a: &u32, b: &u32| {
                let both = projection(a).zip(projection(b));
                both.is_some_and(|(a, b)| a.eq(b))
            };
            let at_home = |values: P| self.fingerprint(values) == filed_under;
            let sound =
                |run: &[u32]| projection(&run[0]).is_some_and(at_home) && self.ascending(run);
            let count = slots.chunk_by(same).count();
            // One projection in two runs takes a third between them.
            let split = count > 2 && {
                let mut runs: Vec<P> = slots
                    .chunk_by(same)
                    .map(|run| projection(&run[0]))
                    .collect::<Option<_>>()
                    .unwrap_or_default();
                runs.sort_unstable_by(|a, b| a.clone().cmp(b.clone()));
                runs.windows(2).any(|w| w[0].clone().eq(w[1].clone()))
            };
            if slots.chunk_by(same).all(sound) && !split {
                Ok(count)
            } else {
                Err(format!("fingerprint {filed_under:#x} files {slots:?}"))
            }
        })
    }
}

/// Under what fingerprint, and beside which rows, the row in `slot` is
/// filed in the index on `cols`: `None` when the row lacks a signature
/// column (shorter arity) — it stays unindexed and unreachable by probes on
/// this signature, matching residual-scan semantics.
fn filing<'a>(
    rows: &'a [Option<StoredTuple>],
    squash: fn(u64) -> u64,
    cols: &'a [usize],
    slot: u32,
) -> Option<(u64, impl Fn(u32) -> bool + 'a)> {
    let row = live(rows, slot).tuple.values();
    // The columns are sorted: the last is the widest.
    let covered = cols.last().is_some_and(|&widest| widest < row.len());
    let filed_under = || squash(fingerprint(project(cols, row)));
    let same = move |other| projects_as(rows, cols, other, project(cols, row));
    covered.then(|| (filed_under(), same))
}

/// Heap bytes held by a relation's own structures, by component, computed
/// from capacities. The tuples themselves (one allocation each, shared
/// with the deltas that carried them) are not the relation's to count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeapBytes {
    /// The slab of rows, the free list and the cached key order.
    pub slab: usize,
    /// The primary index.
    pub primary: usize,
    /// Each secondary index.
    pub secondary: Vec<(IndexSignature, usize)>,
}

impl HeapBytes {
    /// All components together.
    pub fn total(&self) -> usize {
        let secondary = self.secondary.iter().map(|(_, bytes)| bytes);
        self.slab + self.primary + secondary.sum::<usize>()
    }
}

/// The iterator behind every filtered read: walk a bucket — or, for a
/// scan, the whole relation in key order — yielding the rows that are
/// visible and carry the residual columns' values.
struct Matches<'r> {
    rows: &'r [Option<StoredTuple>],
    slots: std::slice::Iter<'r, u32>,
    seq_limit: u64,
    residual: Vec<(usize, Value)>,
}

impl<'r> Iterator for Matches<'r> {
    type Item = &'r StoredTuple;
    fn next(&mut self) -> Option<&'r StoredTuple> {
        let (rows, seq_limit, residual) = (self.rows, self.seq_limit, &self.residual);
        self.slots
            .by_ref()
            .map(|&slot| live(rows, slot))
            .find(|row| {
                row.seq <= seq_limit
                    && residual
                        .iter()
                        .all(|(c, value)| row.tuple.get(*c) == Some(value))
            })
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
                chosen.signature.columns(),
                &[0],
                "exact ties resolve to the smaller signature"
            );
        }
    }

    #[test]
    fn key_bound_lookups_go_through_the_primary_index() {
        let mut r = Relation::new(RelationSchema::new("r").with_keys(vec![1, 0]));
        // Both bind the whole key: nothing to build.
        assert!(!r.ensure_index(&[0, 1]));
        assert!(!r.ensure_index(&[0, 1, 2]));
        assert!(r.ensure_index(&[0]));
        assert_eq!(r.index_signatures().count(), 1);
        for i in 0..12 {
            r.insert(t(&[i % 3, i, i % 2]), i as u64 + 1, 0);
        }
        // Exactly the key: one probe, the one row examined.
        let mut stats = JoinStats::default();
        assert_eq!(
            lookup_all(&r, &[0, 1], &[1, 7], &mut stats),
            [t(&[1, 7, 1])]
        );
        let one_probe = JoinStats {
            logical_probes: 1,
            distinct_probes: 1,
            scans: 0,
            tuples_examined: 1,
        };
        assert_eq!(stats, one_probe);
        // The key and a column that matches, then one that does not: the
        // index on all three would not have held the row, nothing examined.
        let mut stats = JoinStats::default();
        assert_eq!(lookup_all(&r, &[0, 1, 2], &[1, 7, 1], &mut stats).len(), 1);
        assert_eq!(stats, one_probe);
        let mut stats = JoinStats::default();
        assert!(lookup_all(&r, &[0, 1, 2], &[1, 7, 0], &mut stats).is_empty());
        assert!(lookup_all(&r, &[0, 1, 2], &[1, 7, 99], &mut stats).is_empty());
        assert!(lookup_all(&r, &[0, 1, 5], &[1, 7, 1], &mut stats).is_empty());
        assert!(lookup_all(&r, &[0, 1], &[2, 7], &mut stats).is_empty());
        assert_eq!((stats.logical_probes, stats.tuples_examined), (4, 0));
        // Grouped, invisible, and through `probe`.
        let key = [Value::Int(1), Value::Int(7)];
        let mut stats = JoinStats::default();
        assert_eq!(r.lookup_n(&[0, 1], &key, 3, 4, &mut stats).count(), 0);
        assert_eq!((stats.logical_probes, stats.distinct_probes), (4, 1));
        assert_eq!(stats.tuples_examined, 4, "examined, then hidden by seq");
        assert_eq!(probed(&r, &[0, 1], &[1, 7], u64::MAX), [t(&[1, 7, 1])]);
        assert!(r.probe(&[1], &[Value::Int(7)], u64::MAX).is_none());
    }

    #[test]
    fn heap_bytes_name_every_component() {
        let mut r = keyed_relation();
        r.ensure_index(&[1]);
        assert_eq!(r.heap_bytes().total(), 0, "nothing stored, nothing held");
        for i in 0..100 {
            r.insert(t(&[i, i % 10]), i as u64 + 1, 0);
        }
        let heap = r.heap_bytes();
        assert!(heap.slab >= 100 * std::mem::size_of::<Option<StoredTuple>>());
        // A hundred lone slots: 16 bytes and a control byte each, at most
        // 7/8 full; ten buckets of ten own a vector each.
        assert!(heap.primary >= 100 * 17 && heap.primary <= 256 * 17);
        let [(signature, bytes)] = &heap.secondary[..] else {
            panic!("one secondary index: {heap:?}");
        };
        assert_eq!(signature.columns(), &[1]);
        assert!(*bytes >= 10 * (17 + 24 + 40), "{bytes}");
        assert_eq!(heap.total(), heap.slab + heap.primary + bytes);
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
        let filed = |r: &Relation| r.index_stats().map(|(_, _, n)| n).sum::<usize>();
        assert_eq!(filed(&r), 1, "rows lacking the column are skipped");
        r.remove(&t(&[1]));
        assert_eq!((r.len(), filed(&r)), (1, 1));
        r.check_invariants().unwrap();
    }

    #[test]
    fn composite_signature_keys_on_every_column() {
        let mut r = Relation::new(RelationSchema::new("r"));
        assert!(r.ensure_index(&[2, 0]), "declared in any column order");
        for (i, row) in [[1, 5, 7], [1, 6, 7], [1, 6, 8]].iter().enumerate() {
            r.insert(t(row), i as u64 + 1, 0);
        }
        let both = vec![t(&[1, 5, 7]), t(&[1, 6, 7])];
        assert_eq!(probed(&r, &[0, 2], &[1, 7], u64::MAX), both);
        assert_eq!(probed(&r, &[0, 2], &[1, 8], u64::MAX), [t(&[1, 6, 8])]);
        assert!(
            probed(&r, &[0, 2], &[7, 1], u64::MAX).is_empty(),
            "values follow the sorted signature's column order"
        );
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
    fn freed_slots_serve_the_next_wave() {
        let mut r = Relation::new(RelationSchema::new("path").with_keys(vec![0, 1]));
        r.ensure_index(&[0]);
        r.insert(path_tuple(-1), 1, 0);
        for i in 0..10_000 {
            assert_eq!(r.insert(path_tuple(i), i as u64 + 2, 0), InsertOutcome::New);
        }
        for i in 0..10_000 {
            // Half by the count algorithm, half outright.
            if i % 2 == 0 {
                assert_eq!(r.delete(&path_tuple(i)), DeleteOutcome::Removed);
            } else {
                assert!(r.remove(&path_tuple(i)));
            }
        }
        assert_eq!(r.len(), 1);
        assert_eq!(r.free.len(), 10_000, "every departed row's slot is free");
        r.check_invariants().unwrap();
        // Freed slots are handed out again: a second wave of the same size
        // does not grow the slab.
        let slots = r.rows.len();
        for i in 0..10_000 {
            r.insert(path_tuple(i + 20_000), i as u64 + 20_000, 0);
        }
        assert_eq!(r.rows.len(), slots);
        assert!(r.free.is_empty());
        r.check_invariants().unwrap();
    }

    #[test]
    fn replacement_keeps_the_slot() {
        let mut r = keyed_relation();
        r.ensure_index(&[1]);
        r.insert(t(&[1, 10]), 1, 0);
        let slot = r.slot_of(&t(&[1, 10])).unwrap();
        assert!(matches!(
            r.insert(t(&[1, 20]), 2, 0),
            InsertOutcome::Replaced(_)
        ));
        assert_eq!(r.slot_of(&t(&[1, 20])), Some(slot));
        assert_eq!(r.rows.len(), 1);
        assert!(probed(&r, &[1], &[10], u64::MAX).is_empty());
        r.check_invariants().unwrap();
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
        // Stored in no row at all: still one logical and one distinct
        // probe, nothing examined.
        let mut stats = JoinStats::default();
        assert!(lookup_all(&r, &[0], &[77], &mut stats).is_empty());
        assert_eq!((stats.logical_probes, stats.distinct_probes), (1, 1));
        assert_eq!((stats.scans, stats.tuples_examined), (0, 0));
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
        let mut unfiled = r.clone();
        let (fingerprint, same) = filing(&r.rows, r.squash, &[1], 1).unwrap();
        assert!(unfiled.indexes[0].table.unfile(fingerprint, 1, same));
        let err = unfiled.check_invariants().unwrap_err();
        assert!(err.contains("index [1]"), "{err}");
        let mut misfiled = r.clone();
        let (_, same) = filing(&r.rows, r.squash, &[1], 1).unwrap();
        assert!(misfiled.indexes[0].table.unfile(fingerprint, 1, same));
        let table = &mut misfiled.indexes[0].table;
        table.file(fingerprint ^ 1, 1, |_| false, <[u32]>::len);
        let err = misfiled.check_invariants().unwrap_err();
        assert!(err.contains("index [1]: fingerprint"), "{err}");
    }

    #[test]
    fn schema_key_projection() {
        let s = RelationSchema::new("r").with_keys(vec![1]);
        assert_eq!(s.key_of(&t(&[7, 8])), vec![Value::Int(8)]);
        let s = RelationSchema::new("r");
        assert_eq!(s.key_of(&t(&[7, 8])).len(), 2);
    }
}

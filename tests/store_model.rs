//! Model-based differential test of `ndlog_runtime::Relation`.
//!
//! Random sequences of insert / duplicate insert / keyed replacement /
//! delete / `remove` / expire / late index declaration run through the
//! slab-backed `Relation` and through a reference model written the naive
//! way — a `BTreeMap<Vec<Value>, StoredTuple>` and linear scans. After
//! every step the two must agree on the operation's outcome, on `iter()`
//! order, on every keyed read, and on the result order **and** the
//! `EvalStats` of `lookup_n` for a spread of probes — random ones, and ones
//! aimed at the primary key: exactly the key, the key plus a column whose
//! value matches or not, every column of a keyless relation (an ordinary
//! index probe: only declared key columns send a lookup to the primary
//! index); and the
//! relation's own `check_invariants()` (slab ↔ primary index ↔ secondary
//! indexes ↔ cached order) must hold.
//!
//! The value pool is small, so sequences are dense in duplicates,
//! replacements and slot reuse, and it holds the values whose `Hash` and
//! `Eq` the tables rely on agreeing: `Int(3)` beside `Float(3.0)` and
//! `Int(2⁵³)` beside `Float(2⁵³)` (one key each), `Int(2⁵³ + 1)` (equal to
//! no float), `Float(-0.0)` beside `Int(0)` and `Float(0.0)` (distinct), and
//! one two-element list built three ways — as a literal, by `List::cons`
//! and by `List::snoc` — equal contents in different allocations; besides
//! strings, addresses and `nil`.
//!
//! Every sequence — all 24 seeds of every shape, and the long runs — runs
//! three times: with the relation's tables filing rows under their real
//! fingerprints, under one of three, and under one fingerprint for
//! everything (`Relation::with_fingerprints`). A table hit is verified by
//! value equality against the tuple of the row in the slab, so a collision
//! may cost a comparison and must never change an answer, an order or a
//! count.

use ndlog_lang::value::List;
use ndlog_lang::Value;
use ndlog_runtime::relation::{DeleteOutcome, StoredTuple};
use ndlog_runtime::{EvalStats, InsertOutcome, Relation, RelationSchema, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The reference: one ordered map, every read a linear scan.
struct Model {
    schema: RelationSchema,
    rows: BTreeMap<Vec<Value>, StoredTuple>,
    signatures: BTreeSet<Vec<usize>>,
}

impl Model {
    fn insert(&mut self, tuple: Tuple, seq: u64, now: u64) -> InsertOutcome {
        let expires_at = self.schema.ttl_micros.map(|ttl| now + ttl);
        let fresh = StoredTuple {
            tuple: tuple.clone(),
            count: 1,
            seq,
            expires_at,
        };
        match self.rows.get_mut(&self.schema.key_of(&tuple)) {
            Some(row) if row.tuple == tuple => {
                row.count += 1;
                row.expires_at = expires_at.or(row.expires_at);
                InsertOutcome::Duplicate
            }
            Some(row) => InsertOutcome::Replaced(std::mem::replace(row, fresh).tuple),
            None => {
                self.rows.insert(self.schema.key_of(&tuple), fresh);
                InsertOutcome::New
            }
        }
    }

    /// Whether binding `cols` binds the declared primary key: the relation
    /// then answers as an index on exactly `cols` would, through its
    /// primary index, and builds no such index.
    fn binds_key(&self, cols: &[usize]) -> bool {
        let key = &self.schema.key_columns;
        !key.is_empty() && key.iter().all(|c| cols.contains(c))
    }

    fn delete(&mut self, tuple: &Tuple, outright: bool) -> DeleteOutcome {
        let key = self.schema.key_of(tuple);
        match self.rows.get_mut(&key) {
            Some(row) if row.tuple == *tuple && row.count > 1 && !outright => {
                row.count -= 1;
                DeleteOutcome::Decremented
            }
            Some(row) if row.tuple == *tuple => {
                self.rows.remove(&key);
                DeleteOutcome::Removed
            }
            _ => DeleteOutcome::NotFound,
        }
    }

    fn expire(&mut self, now: u64) -> Vec<Tuple> {
        let due = |row: &StoredTuple| row.expires_at.is_some_and(|t| t <= now);
        let expired = self.rows.values().filter(|r| due(r)).cloned();
        let expired: Vec<Tuple> = expired.map(|r| r.tuple).collect();
        self.rows.retain(|_, row| !due(row));
        expired
    }

    /// `Relation::lookup_n` by the book: a probe of the index on exactly
    /// `cols` when they bind the primary key or one was declared, its
    /// bucket found by scanning; else a scan of every row.
    fn lookup_n(
        &self,
        cols: &[usize],
        key: &[Value],
        seq_limit: u64,
        members: usize,
        stats: &mut EvalStats,
    ) -> Vec<&StoredTuple> {
        let bound = |row: &StoredTuple| {
            let mut columns = cols.iter().zip(key);
            columns.all(|(&c, value)| row.tuple.get(c) == Some(value))
        };
        if self.binds_key(cols) || self.signatures.contains(cols) {
            stats.logical_probes += members;
            stats.distinct_probes += 1;
            stats.tuples_examined += self.rows.values().filter(|r| bound(r)).count() * members;
        } else {
            stats.scans += members;
            stats.tuples_examined += self.rows.len() * members;
        }
        let visible = |r: &&StoredTuple| r.seq <= seq_limit && bound(r);
        self.rows.values().filter(visible).collect()
    }
}

/// A relation shape the generator draws tuples for.
struct Shape {
    schema: RelationSchema,
    arities: &'static [usize],
    /// Signatures declared before any tuple arrives; the ones binding the
    /// whole primary key build nothing.
    declared: &'static [&'static [usize]],
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape {
            schema: RelationSchema::new("keyless"),
            arities: &[3],
            declared: &[&[0], &[1, 2], &[0, 1, 2]],
        },
        Shape {
            schema: RelationSchema::new("keyed").with_keys(vec![0]),
            arities: &[3],
            declared: &[&[1]],
        },
        Shape {
            schema: RelationSchema::new("unsorted_key").with_keys(vec![2, 0]),
            arities: &[3, 4],
            declared: &[],
        },
        Shape {
            schema: RelationSchema::new("soft")
                .with_keys(vec![0])
                .with_ttl_seconds(1.0),
            arities: &[2],
            declared: &[&[1], &[0, 1]],
        },
        Shape {
            schema: RelationSchema::new("mixed_arity"),
            arities: &[1, 2, 3],
            declared: &[&[1], &[2]],
        },
        Shape {
            schema: RelationSchema::new("two_column_key").with_keys(vec![1, 0]),
            arities: &[3, 4],
            declared: &[&[0, 1], &[0, 1, 2], &[0], &[2]],
        },
    ]
}

fn value(rng: &mut StdRng) -> Value {
    const TWO_53: i64 = 1 << 53;
    match rng.random_range(0..17u32) {
        0..=3 => Value::Int(rng.random_range(0..4i64)),
        4 => Value::Float(3.0),
        5 => Value::Float(2.5),
        6 => Value::Float(rng.random_range(0..3i64) as f64),
        7 | 8 => Value::addr(rng.random_range(0..3u32)),
        9 => Value::str(if rng.random_bool(0.5) { "a" } else { "b" }),
        10 => Value::list(vec![Value::addr(rng.random_range(0..2u32)), Value::Int(1)]),
        // The same lists, one node at a time from the front or the back.
        11 => {
            let hop = Value::addr(rng.random_range(0..2u32));
            Value::List(if rng.random_bool(0.5) {
                List::nil().cons(Value::Int(1)).cons(hop)
            } else {
                List::nil().snoc(hop).snoc(Value::Int(1))
            })
        }
        12 => Value::Int(TWO_53),
        13 => Value::Float(TWO_53 as f64),
        14 => Value::Int(TWO_53 + 1),
        15 => Value::Float(-0.0),
        _ => Value::nil(),
    }
}

fn tuple(rng: &mut StdRng, shape: &Shape) -> Tuple {
    let arity = shape.arities[rng.random_range(0..shape.arities.len())];
    Tuple::new((0..arity).map(|_| value(rng)).collect())
}

/// A stored tuple to aim a delete or a duplicate at, when there is one.
fn stored(rng: &mut StdRng, model: &Model) -> Option<Tuple> {
    let n = model.rows.len();
    (n > 0).then(|| {
        let row = model.rows.values().nth(rng.random_range(0..n));
        row.expect("in range").tuple.clone()
    })
}

/// Same key as `tuple`, another payload: a replacement when keyed, a new
/// row when not.
fn same_key_other_payload(rng: &mut StdRng, schema: &RelationSchema, tuple: &Tuple) -> Tuple {
    let mut values = tuple.values().to_vec();
    for (c, slot) in values.iter_mut().enumerate() {
        if !schema.key_columns.contains(&c) {
            *slot = value(rng);
        }
    }
    Tuple::new(values)
}

fn repr(rows: impl Iterator<Item = impl std::fmt::Debug>) -> Vec<String> {
    rows.map(|r| format!("{r:?}")).collect()
}

/// Every read the engines use, compared between the two.
fn compare_reads(rng: &mut StdRng, relation: &Relation, model: &Model, context: &str) {
    relation
        .check_invariants()
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_eq!(relation.len(), model.rows.len(), "{context}: len");
    assert_eq!(relation.is_empty(), model.rows.is_empty());
    // Key order, down to representation (Int(3) vs Float(3.0)) and
    // bookkeeping.
    assert_eq!(
        repr(relation.iter()),
        repr(model.rows.values()),
        "{context}: iter() order"
    );
    let unordered: BTreeSet<String> = repr(relation.iter_unordered()).into_iter().collect();
    let reference: BTreeSet<String> = repr(model.rows.values()).into_iter().collect();
    assert_eq!(unordered, reference, "{context}: iter_unordered()");
    let signatures: BTreeSet<Vec<usize>> = relation
        .index_signatures()
        .map(|s| s.columns().to_vec())
        .collect();
    assert_eq!(signatures, model.signatures, "{context}: signatures");

    // Keyed reads, aimed at stored and at random tuples alike.
    let shape_arity = model.rows.values().next().map_or(3, |r| r.tuple.arity());
    for _ in 0..4 {
        let probe = match stored(rng, model) {
            Some(t) if rng.random_bool(0.5) => t,
            _ => Tuple::new((0..shape_arity).map(|_| value(rng)).collect()),
        };
        let key = model.schema.key_of(&probe);
        let expected = model.rows.get(&key);
        assert_eq!(
            relation.contains(&probe),
            expected.is_some_and(|r| r.tuple == probe),
            "{context}: contains {probe}"
        );
        assert_eq!(
            repr(relation.get_by_key_of(&probe).iter()),
            repr(expected.iter())
        );
        assert_eq!(repr(relation.get(&key).iter()), repr(expected.iter()));
    }

    // Joins: every access path, with stats.
    for _ in 0..6 {
        let mut cols: Vec<usize> = (0..4).filter(|_| rng.random_bool(0.4)).collect();
        if rng.random_bool(0.3) {
            // Aim at a declared signature exactly.
            if let Some(sig) = model.signatures.iter().next() {
                cols = sig.clone();
            }
        }
        let key: Vec<Value> = cols
            .iter()
            .map(|_| {
                if rng.random_bool(0.1) {
                    Value::str("stored nowhere")
                } else {
                    value(rng)
                }
            })
            .collect();
        compare_lookup(rng, relation, model, context, &cols, &key);
    }
    // Joins binding the primary key: the columns of the key — every column
    // of a stored row when the schema declares none — sometimes with one
    // more, the values those of a stored row, one of them sometimes not.
    for _ in 0..3 {
        let mut cols = model.schema.key_columns.clone();
        if cols.is_empty() {
            cols = (0..shape_arity).collect();
        }
        if rng.random_bool(0.5) {
            cols.push(rng.random_range(0..4usize));
        }
        cols.sort_unstable();
        cols.dedup();
        let row = stored(rng, model);
        let key: Vec<Value> = cols
            .iter()
            .map(|&c| match row.as_ref().and_then(|t| t.get(c)) {
                Some(held) if rng.random_bool(0.8) => held.clone(),
                _ => value(rng),
            })
            .collect();
        compare_lookup(rng, relation, model, context, &cols, &key);
    }
}

/// One lookup, compared between the two.
fn compare_lookup(
    rng: &mut StdRng,
    relation: &Relation,
    model: &Model,
    context: &str,
    cols: &[usize],
    key: &[Value],
) {
    let seq_limit = if rng.random_bool(0.5) {
        u64::MAX
    } else {
        rng.random_range(0..200u64)
    };
    let members = rng.random_range(1..4usize);
    let (mut got_stats, mut want_stats) = (EvalStats::default(), EvalStats::default());
    let got = relation.lookup_n(cols, key, seq_limit, members, &mut got_stats);
    let want = model.lookup_n(cols, key, seq_limit, members, &mut want_stats);
    let probe = format!("{context}: lookup_n({cols:?}, {key:?}, {seq_limit}, {members})");
    assert_eq!(repr(got), repr(want.iter().copied()), "{probe}: rows");
    assert_eq!(got_stats, want_stats, "{probe}: stats");
}

/// What a relation's tables file a fingerprint under: itself, one of
/// three, the same for all.
const SQUASHES: [fn(u64) -> u64; 3] = [
    |fingerprint| fingerprint,
    |fingerprint| fingerprint % 3,
    |_| 0,
];

fn run_sequence(seed: u64, shape: &Shape, steps: usize, squash: fn(u64) -> u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut relation = Relation::with_fingerprints(shape.schema.clone(), squash);
    let mut model = Model {
        schema: shape.schema.clone(),
        rows: BTreeMap::new(),
        signatures: BTreeSet::new(),
    };
    for cols in shape.declared {
        let built = !model.binds_key(cols);
        assert_eq!(relation.ensure_index(cols), built, "index {cols:?}");
        if built {
            model.signatures.insert(cols.to_vec());
        }
    }
    let mut now = 0u64;
    for step in 0..steps {
        let seq = step as u64 + 1;
        now += rng.random_range(0..300_000u64);
        let context = format!("{} seed {seed} step {step}", shape.schema.name);
        match rng.random_range(0..100u32) {
            // A fresh draw: new, duplicate or replacement as it falls.
            0..=34 => {
                let t = tuple(&mut rng, shape);
                let got = relation.insert(t.clone(), seq, now);
                assert_eq!(
                    got,
                    model.insert(t.clone(), seq, now),
                    "{context}: insert {t}"
                );
            }
            // Aimed: a duplicate of a stored tuple, or its key with
            // another payload.
            35..=54 => {
                let Some(mut t) = stored(&mut rng, &model) else {
                    continue;
                };
                if rng.random_bool(0.5) {
                    t = same_key_other_payload(&mut rng, &shape.schema, &t);
                }
                let got = relation.insert(t.clone(), seq, now);
                assert_eq!(
                    got,
                    model.insert(t.clone(), seq, now),
                    "{context}: insert {t}"
                );
            }
            // Deletions by count and outright, aimed and stray.
            55..=84 => {
                let t = match stored(&mut rng, &model) {
                    Some(t) if rng.random_bool(0.8) => t,
                    _ => tuple(&mut rng, shape),
                };
                if rng.random_bool(0.6) {
                    let got = relation.delete(&t);
                    assert_eq!(got, model.delete(&t, false), "{context}: delete {t}");
                } else {
                    let removed = model.delete(&t, true) == DeleteOutcome::Removed;
                    assert_eq!(relation.remove(&t), removed, "{context}: remove {t}");
                }
            }
            85..=92 => {
                let got = relation.expire(now);
                assert_eq!(got, model.expire(now), "{context}: expire at {now}");
            }
            // An index declared over whatever is stored by now.
            _ => {
                let mut cols: Vec<usize> = (0..3).filter(|_| rng.random_bool(0.5)).collect();
                if rng.random_bool(0.3) {
                    cols.reverse();
                }
                let mut normalized = cols.clone();
                normalized.sort_unstable();
                normalized.dedup();
                let fresh = !normalized.is_empty()
                    && !model.binds_key(&normalized)
                    && model.signatures.insert(normalized);
                assert_eq!(
                    relation.ensure_index(&cols),
                    fresh,
                    "{context}: index {cols:?}"
                );
            }
        }
        compare_reads(&mut rng, &relation, &model, &context);
    }
    // Drain: a relation emptied by deletions holds no bucket.
    while let Some(t) = stored(&mut rng, &model) {
        model.delete(&t, true);
        assert!(relation.remove(&t));
    }
    compare_reads(&mut rng, &relation, &model, "drained");
}

#[test]
fn relation_agrees_with_the_reference_model() {
    for shape in shapes() {
        for seed in 0..24 {
            for squash in SQUASHES {
                run_sequence(seed, &shape, 160, squash);
            }
        }
    }
}

#[test]
fn long_sequences_reuse_slots_and_ids() {
    // Fewer, longer runs: many generations of rows through the same slots,
    // with the occasional expiry wiping the soft-state relation.
    for shape in shapes() {
        let seed = 1_000 + shape.arities.len() as u64;
        for squash in SQUASHES {
            run_sequence(seed, &shape, 1_500, squash);
        }
    }
}

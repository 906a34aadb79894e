//! A receive batch is ingested as its net change: a stored hard-state tuple
//! that one batch deletes and then re-inserts, with nothing else under its
//! key in between, is left alone (`LocalFixpoint::ingest_batch`).
//!
//! Cancelling such a pair must not change what the engine computes. Each
//! random batch — insertions, deletions, deletions of tuples not stored,
//! and stored tuples deleted and re-inserted further on, other deltas
//! under the same key sometimes in between — goes once through
//! `Evaluator::update_batch` and once through one `Evaluator::update` per
//! delta, after an SN, BSN or PSN initial run. Both must end with the same
//! stored tuples, both must agree with the naive oracle's fixpoint, and
//! both must hold the oracle's distinct-derivation counts on every
//! relation no removal reached (as `tests/properties.rs` requires of a
//! from-scratch run).
//!
//! Every link cost is a distinct power of two, so no two routes tie and
//! the fixpoint of `distance_vector`'s keyed `bestRoute` does not depend on
//! update order. A soft-state pair is not cancelled: its re-insertion moves
//! the tuple's expiry forward.

use ndlog_lang::{programs, Program, Value};
use ndlog_oracle::Oracle;
use ndlog_runtime::{Evaluator, Sign, Strategy as EvalStrategy, Tuple, TupleDelta};
use proptest::prelude::*;
use std::collections::BTreeSet;

const NODES: u32 = 5;

/// `link(a, b)` at cost variant `variant`: 2 to the power of a number no
/// other (directed link, variant) has, so route costs never tie.
fn link(a: u32, b: u32, variant: u8) -> Tuple {
    let exponent = 2 * (a * NODES + b) + u32::from(variant);
    let cost = 2f64.powi(i32::try_from(exponent).unwrap());
    Tuple::new(vec![Value::addr(a), Value::addr(b), Value::Float(cost)])
}

fn delta(sign: Sign, a: u32, b: u32, variant: u8) -> TupleDelta {
    match sign {
        Sign::Insert => TupleDelta::insert("link", link(a, b, variant)),
        Sign::Delete => TupleDelta::delete("link", link(a, b, variant)),
    }
}

/// An evaluator of `program` whose tap records every relation, loaded with
/// the first link of `edges` under each key and run under `strategy`.
fn evaluated(program: &Program, edges: &[(u32, u32, u8)], strategy: EvalStrategy) -> Evaluator {
    let mut eval = Evaluator::new(program).unwrap();
    let names: Vec<String> = eval.store().relation_names().map(str::to_string).collect();
    for name in names {
        eval.tap_mut().subscribe(name);
    }
    let mut keys = BTreeSet::new();
    for &(a, b, variant) in edges {
        if a != b && keys.insert((a, b)) {
            eval.insert_fact("link", link(a, b, variant));
        }
    }
    eval.run(strategy).unwrap();
    eval
}

/// Links a delta may name: every directed link, then as many picks of a
/// stored link's key, so about half the deltas touch a stored key.
const PICKS: usize = 2 * (NODES * NODES) as usize;

/// The link `pick` names (see [`PICKS`]) at cost variant `variant`; `None`
/// for a self-loop, or a stored link's key when none is stored.
fn picked(stored: &[Tuple], pick: usize, variant: u8) -> Option<Tuple> {
    let named = PICKS / 2;
    let (a, b) = if pick < named {
        let pick = u32::try_from(pick).unwrap();
        (pick / NODES, pick % NODES)
    } else {
        let key = stored.get((pick - named) % stored.len().max(1))?;
        let addr = |i: usize| key.get(i).and_then(Value::as_addr).unwrap().0;
        (addr(0), addr(1))
    };
    (a != b).then(|| link(a, b, variant))
}

/// The link under `tuple`'s key at the other cost variant.
fn rival(tuple: &Tuple) -> Tuple {
    let addr = |i: usize| tuple.get(i).and_then(Value::as_addr).unwrap().0;
    let (a, b) = (addr(0), addr(1));
    let ours = link(a, b, 0) == *tuple;
    link(a, b, u8::from(ours))
}

/// One batch: the `plain` deltas in order, then each of `pairs` — a link
/// deleted at position `at` and the identical tuple re-inserted `gap`
/// deltas further on. The link is a stored one when the pair's flag is
/// set, else the one it picks at variant 1, which may or may not be
/// stored. Right after the deletion, `between` may put another delta
/// under the same key: 1 inserts its rival (see [`rival`]), 2 deletes the
/// rival, 3 deletes the link again.
fn batch(
    stored: &[Tuple],
    plain: &[(usize, u8, bool)],
    pairs: &[(usize, bool, usize, usize, u8)],
) -> Vec<TupleDelta> {
    let plain = plain.iter().filter_map(|&(pick, variant, insert)| {
        let tuple = picked(stored, pick, variant)?;
        Some(if insert {
            TupleDelta::insert("link", tuple)
        } else {
            TupleDelta::delete("link", tuple)
        })
    });
    let mut deltas: Vec<TupleDelta> = plain.collect();
    for &(pick, same, at, gap, between) in pairs {
        let tuple = match stored.len() {
            len if same && len > 0 => Some(stored[pick % len].clone()),
            _ => picked(stored, pick, 1),
        };
        let Some(tuple) = tuple else {
            continue;
        };
        let at = at.min(deltas.len());
        let mut run = vec![TupleDelta::delete("link", tuple.clone())];
        match between {
            1 => run.push(TupleDelta::insert("link", rival(&tuple))),
            2 => run.push(TupleDelta::delete("link", rival(&tuple))),
            3 => run.push(TupleDelta::delete("link", tuple.clone())),
            _ => {}
        }
        let again = (at + run.len() + gap).min(deltas.len() + run.len());
        deltas.splice(at..at, run);
        deltas.insert(again, TupleDelta::insert("link", tuple));
    }
    deltas
}

/// A relation's stored tuples with their derivation counts.
fn stored(eval: &Evaluator, relation: &str) -> Vec<(Vec<Value>, u64)> {
    let rows = eval.store().relation(relation).into_iter();
    let rows = rows.flat_map(|r| r.iter());
    rows.map(|s| (s.tuple.values().to_vec(), s.count)).collect()
}

/// The relations a removal has reached since the tap was last drained:
/// each one the tap saw lose a tuple, and everything derived from one.
fn reached_by_removals(program: &Program, eval: &mut Evaluator) -> BTreeSet<String> {
    let removals = eval.drain_tap().into_iter();
    let removals = removals.filter(|d| d.sign == Sign::Delete);
    let mut reached: BTreeSet<String> = removals.map(|d| d.relation.to_string()).collect();
    loop {
        let downstream = program.rules.iter().filter(|rule| {
            !reached.contains(&rule.head.name)
                && rule.body_atoms().any(|a| reached.contains(&a.name))
        });
        let grown: Vec<String> = downstream.map(|rule| rule.head.name.clone()).collect();
        if grown.is_empty() {
            return reached;
        }
        reached.extend(grown);
    }
}

/// Whether every relation of `eval` agrees with the oracle's fixpoint over
/// the links it stores, with the oracle's derivation counts on every
/// relation no removal reached.
fn check_against_oracle(program: &Program, eval: &mut Evaluator) -> Result<(), String> {
    let uncounted = reached_by_removals(program, eval);
    let links = stored(eval, "link").into_iter();
    let oracle = Oracle::run(program, links.map(|(row, _)| ("link".to_string(), row)))?;
    for name in eval.store().relation_names() {
        let rows = stored(eval, name);
        let tuples: Vec<Vec<Value>> = rows.iter().map(|(row, _)| row.clone()).collect();
        oracle.agrees(name, &tuples)?;
        if !uncounted.contains(name) {
            oracle.counts_agree(name, &rows)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A batch through `update_batch` ends where the same deltas through
    /// one `update` each end, and both where the oracle does.
    #[test]
    fn a_batch_ends_where_its_deltas_one_at_a_time_end(
        edges in prop::collection::vec((0..NODES, 0..NODES, 0u8..2), 1..12),
        plain in prop::collection::vec((0..PICKS, 0u8..2, prop::bool::ANY), 0..6),
        pairs in prop::collection::vec(
            (0..PICKS, prop::bool::ANY, 0usize..8, 0usize..4, 0u8..6),
            1..4,
        ),
    ) {
        let strategies = [
            EvalStrategy::SemiNaive,
            EvalStrategy::Buffered { batch: 2 },
            EvalStrategy::Pipelined,
        ];
        for program in [programs::reachability(""), programs::distance_vector("", 2)] {
            for strategy in strategies {
                let mut batched = evaluated(&program, &edges, strategy);
                let mut single = evaluated(&program, &edges, strategy);
                let links: Vec<Tuple> = batched.results("link");
                let deltas = batch(&links, &plain, &pairs);
                batched.update_batch(deltas.clone()).unwrap();
                for delta in deltas.iter().cloned() {
                    single.update(delta).unwrap();
                }
                let context = format!("{} under {strategy:?}, batch {deltas:?}", program.queries[0].name);
                let names: Vec<String> =
                    single.store().relation_names().map(str::to_string).collect();
                for name in &names {
                    prop_assert_eq!(
                        batched.results(name),
                        single.results(name),
                        "{}: {} differs", context, name
                    );
                }
                prop_assert_eq!(check_against_oracle(&program, &mut batched), Ok(()), "batched, {}", context);
                prop_assert_eq!(check_against_oracle(&program, &mut single), Ok(()), "one at a time, {}", context);
            }
        }
    }
}

/// The pair of a `ttl` relation is ingested: the re-insertion moves the
/// link's expiry forward, so it outlives its first lifetime.
#[test]
fn a_soft_state_pair_refreshes_the_expiry() {
    let program = programs::shortest_path_soft("", 2.0);
    let mut eval = Evaluator::new(&program).unwrap();
    eval.insert_fact("link", link(0, 1, 0));
    eval.run(EvalStrategy::Pipelined).unwrap();
    let expiry = |eval: &Evaluator| {
        let rows = eval.store().relation("link").unwrap().iter();
        rows.map(|row| row.expires_at).collect::<Vec<_>>()
    };
    assert_eq!(expiry(&eval), [Some(2_000_000)]);

    eval.set_time(1_000_000);
    let stats = eval
        .update_batch(vec![
            delta(Sign::Delete, 0, 1, 0),
            delta(Sign::Insert, 0, 1, 0),
        ])
        .unwrap();
    assert!(stats.iterations > 0, "the pair was cancelled");
    assert_eq!(expiry(&eval), [Some(3_000_000)]);

    eval.expire_soft_state(2_500_000);
    eval.update_batch(Vec::new()).unwrap();
    assert_eq!(eval.results("link"), [link(0, 1, 0)]);
    assert_eq!(eval.store().count("path"), 1);
}

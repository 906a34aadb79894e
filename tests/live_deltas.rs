//! Delta-tap exactness under randomized churn: the live subscription
//! stream, replayed from empty, must reconstruct every subscribed
//! relation after every burst — for any initial strategy, including
//! deletion-heavy bursts that drive full DRed passes.
//!
//! This is the subscription-level counterpart of `tests/churn.rs`: the
//! same seeded workload and burst model, but instead of comparing the
//! store against a from-scratch oracle, it checks the *stream* the store
//! emitted on the way there. Three invariants:
//!
//! 1. **Alternation** — per tuple, the stream strictly alternates
//!    insert/retract (no insert of a visible tuple, no retract of an
//!    invisible one). This is what makes the stream replayable by a
//!    stateless consumer.
//! 2. **Reconstruction** — folding the stream into a set from empty
//!    yields exactly the relation's current contents at every burst
//!    boundary (and after full teardown, exactly nothing).
//! 3. **Minimality** — with distinct link costs, a batch of link
//!    re-costings never retracts and then re-asserts the same aggregate or
//!    best-route tuple: a deletion pins an aggregate group only when it
//!    can move the group's extremum, so nothing downstream of an unmoved
//!    best is retracted at all.

use ndlog::lang::{programs, Program, Value};
use ndlog::runtime::{DeltaTap, Evaluator, Sign, Strategy, Tuple, TupleDelta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const NODES: u32 = 5;
const BURSTS: usize = 4;
const WATCHED: [&str; 3] = ["path", "spCost", "shortestPath"];

fn link(a: u32, b: u32, c: f64) -> Tuple {
    Tuple::new(vec![Value::addr(a), Value::addr(b), Value::Float(c)])
}

fn canonical(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn load(eval: &mut Evaluator, base: &BTreeMap<(u32, u32), f64>) {
    for (&(a, b), &c) in base {
        eval.insert_fact("link", link(a, b, c));
        eval.insert_fact("link", link(b, a, c));
    }
}

/// One burst of random churn (the `tests/churn.rs` model): ~30% of links
/// deleted or re-costed plus a couple of fresh ones.
fn burst(rng: &mut StdRng, base: &mut BTreeMap<(u32, u32), f64>) -> Vec<(bool, u32, u32, f64)> {
    let mut ops = Vec::new();
    let existing: Vec<((u32, u32), f64)> = base.iter().map(|(&k, &c)| (k, c)).collect();
    for ((a, b), old_cost) in existing {
        if !rng.random_bool(0.3) {
            continue;
        }
        ops.push((false, a, b, old_cost));
        base.remove(&(a, b));
        if rng.random_bool(0.5) {
            let new_cost = f64::from(rng.random_range(1u32..10)) / 2.0;
            ops.push((true, a, b, new_cost));
            base.insert((a, b), new_cost);
        }
    }
    for _ in 0..2 {
        let a = rng.random_range(0u32..NODES);
        let b = rng.random_range(0u32..NODES);
        if a == b {
            continue;
        }
        let key = canonical(a, b);
        if base.contains_key(&key) {
            continue;
        }
        let cost = f64::from(rng.random_range(1u32..10)) / 2.0;
        ops.push((true, key.0, key.1, cost));
        base.insert(key, cost);
    }
    ops
}

/// Fold a drained stream into the subscriber's visible-set replica,
/// enforcing strict per-tuple alternation.
fn replay_into(replica: &mut BTreeSet<(String, Tuple)>, events: Vec<TupleDelta>, context: &str) {
    for event in events {
        let key = (event.relation.to_string(), event.tuple.clone());
        match event.sign {
            Sign::Insert => assert!(
                replica.insert(key),
                "{context}: insert of already-visible {event}"
            ),
            Sign::Delete => assert!(
                replica.remove(&key),
                "{context}: retract of invisible {event}"
            ),
        }
    }
}

/// The engine's current contents of one watched relation, keyed like the
/// replica.
fn visible(eval: &Evaluator, relation: &str) -> BTreeSet<(String, Tuple)> {
    eval.results(relation)
        .into_iter()
        .map(|t| (relation.to_string(), t))
        .collect()
}

fn subscribe_all(tap: &mut DeltaTap) {
    for relation in WATCHED {
        tap.subscribe(relation);
    }
}

#[test]
fn subscription_stream_reconstructs_relations_under_churn() {
    let strategies = [
        Strategy::SemiNaive,
        Strategy::Buffered { batch: 1 },
        Strategy::Buffered { batch: 2 },
        Strategy::Pipelined,
    ];
    for seed in [7u64, 42, 0xc0ffee, 2026] {
        for strategy in strategies {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut base: BTreeMap<(u32, u32), f64> = BTreeMap::new();
            for a in 0..NODES {
                for b in (a + 1)..NODES {
                    if rng.random_bool(0.6) {
                        base.insert((a, b), f64::from(rng.random_range(1u32..10)) / 2.0);
                    }
                }
            }
            let program = programs::shortest_path("");
            let mut eval = Evaluator::new(&program).unwrap();
            // Subscribe BEFORE any evaluation: the stream must cover the
            // initial fixpoint too, so the replica starts truly empty.
            subscribe_all(eval.tap_mut());
            load(&mut eval, &base);
            eval.run(strategy).unwrap();

            let mut replica = BTreeSet::new();
            let context = format!("seed {seed}, {strategy:?}, initial fixpoint");
            replay_into(&mut replica, eval.drain_tap(), &context);
            for relation in WATCHED {
                let expected: BTreeSet<_> = visible(&eval, relation);
                let got: BTreeSet<_> = replica
                    .iter()
                    .filter(|(rel, _)| rel == relation)
                    .cloned()
                    .collect();
                assert_eq!(got, expected, "{context}: {relation} replica diverged");
            }

            for round in 0..BURSTS {
                // Alternate delivery shape: odd rounds arrive as one delta
                // batch, even rounds tuple-at-a-time — the tap must be
                // exact on both paths.
                let ops = burst(&mut rng, &mut base);
                if round % 2 == 1 {
                    let mut deltas = Vec::new();
                    for (insert, a, b, c) in ops {
                        for (s, d) in [(a, b), (b, a)] {
                            deltas.push(if insert {
                                TupleDelta::insert("link", link(s, d, c))
                            } else {
                                TupleDelta::delete("link", link(s, d, c))
                            });
                        }
                    }
                    eval.update_batch(deltas).unwrap();
                } else {
                    for (insert, a, b, c) in ops {
                        for (s, d) in [(a, b), (b, a)] {
                            let delta = if insert {
                                TupleDelta::insert("link", link(s, d, c))
                            } else {
                                TupleDelta::delete("link", link(s, d, c))
                            };
                            eval.update(delta).unwrap();
                        }
                    }
                }

                let context = format!("seed {seed}, {strategy:?}, burst {round}");
                replay_into(&mut replica, eval.drain_tap(), &context);
                for relation in WATCHED {
                    let expected: BTreeSet<_> = visible(&eval, relation);
                    let got: BTreeSet<_> = replica
                        .iter()
                        .filter(|(rel, _)| rel == relation)
                        .cloned()
                        .collect();
                    assert_eq!(got, expected, "{context}: {relation} replica diverged");
                }
            }
        }
    }
}

#[test]
fn subscription_stream_drains_on_full_teardown() {
    for strategy in [
        Strategy::SemiNaive,
        Strategy::Buffered { batch: 1 },
        Strategy::Pipelined,
    ] {
        let mut rng = StdRng::seed_from_u64(99);
        let mut base: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for a in 0..NODES {
            for b in (a + 1)..NODES {
                if rng.random_bool(0.7) {
                    base.insert((a, b), f64::from(rng.random_range(1u32..6)));
                }
            }
        }
        let program = programs::shortest_path("");
        let mut eval = Evaluator::new(&program).unwrap();
        subscribe_all(eval.tap_mut());
        load(&mut eval, &base);
        eval.run(strategy).unwrap();

        let mut replica = BTreeSet::new();
        replay_into(&mut replica, eval.drain_tap(), "teardown fixpoint");
        assert!(
            !replica.is_empty(),
            "fixpoint derived something to tear down"
        );

        for (&(a, b), &c) in &base {
            for (s, d) in [(a, b), (b, a)] {
                eval.update(TupleDelta::delete("link", link(s, d, c)))
                    .unwrap();
            }
        }
        replay_into(&mut replica, eval.drain_tap(), "teardown churn");
        assert!(
            replica.is_empty(),
            "{strategy:?}: stream left a non-empty replica after full teardown: {replica:?}"
        );
    }
}

/// Apply `recostings` keyed link re-costings, each one `update_batch` of
/// both directions' new cost (the key replacement retracts the old), to
/// `program` on a random 7-node graph with distinct continuous costs, and
/// return every watched tuple some batch retracted and then re-asserted.
fn reasserted(program: &Program, watched: [&str; 2], seed: u64, recostings: usize) -> Vec<String> {
    const NODES: u32 = 7;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut links = Vec::new();
    for a in 0..NODES {
        for b in (a + 1)..NODES {
            if b == a + 1 || rng.random_bool(0.4) {
                links.push((a, b));
            }
        }
    }
    let mut eval = Evaluator::new(program).unwrap();
    for relation in watched {
        eval.tap_mut().subscribe(relation);
    }
    let cost = |rng: &mut StdRng| rng.random_range(1.0..10.0);
    for &(a, b) in &links {
        let c = cost(&mut rng);
        eval.insert_fact("link", link(a, b, c));
        eval.insert_fact("link", link(b, a, c));
    }
    eval.run(Strategy::Pipelined).unwrap();
    eval.drain_tap();

    let mut pairs = Vec::new();
    for round in 0..recostings {
        let (a, b) = links[rng.random_range(0..links.len())];
        let c = cost(&mut rng);
        let recost = [(a, b), (b, a)].map(|(s, d)| TupleDelta::insert("link", link(s, d, c)));
        eval.update_batch(recost.to_vec()).unwrap();
        let mut retracted = BTreeSet::new();
        for event in eval.drain_tap() {
            let key = (event.relation.to_string(), event.tuple.clone());
            match event.sign {
                Sign::Delete => {
                    retracted.insert(key);
                }
                Sign::Insert if retracted.contains(&key) => {
                    pairs.push(format!("seed {seed}, round {round}: -/+ {event}"));
                }
                Sign::Insert => {}
            }
        }
    }
    pairs
}

#[test]
fn recosting_a_link_streams_no_retract_reassert_pairs() {
    let programs = [
        (programs::shortest_path(""), ["spCost", "shortestPath"]),
        (programs::distance_vector("", 2), ["bestCost", "bestRoute"]),
    ];
    for (program, watched) in &programs {
        for seed in [7u64, 42, 0xc0ffee, 2026] {
            let pairs = reasserted(program, *watched, seed, 40);
            assert!(
                pairs.is_empty(),
                "{watched:?}: {} retract/re-assert pairs, first {}",
                pairs.len(),
                pairs[0]
            );
        }
    }
}

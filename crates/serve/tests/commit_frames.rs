//! Frames are commit-atomic: what one commit streams to a subscription is
//! the commit's net change, retractions first. Random link re-costing
//! commits on at most five nodes, under `distance_vector` and
//! `shortest_path`; after every commit, for every watched relation:
//!
//! 1. the subscribe snapshot plus every frame, replayed as a set, is the
//!    relation;
//! 2. the same replay into a map keyed on the relation's primary key — a
//!    `-` removes the key, a `+` sets it — is the relation too, which holds
//!    only if a keyed replacement's old tuple leaves before its new one
//!    arrives;
//! 3. no frame names a tuple twice;
//! 4. in every frame, each `-` line comes before each `+` line.

use ndlog_lang::{programs, Program, Value};
use ndlog_runtime::{Sign, Tuple, TupleDelta};
use ndlog_serve::{DeltaEvent, EventSink, NullSink, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

const COMMITS: usize = 8;

/// Keeps every delivered frame apart.
#[derive(Default)]
struct FrameSink {
    frames: Mutex<Vec<Vec<DeltaEvent>>>,
}

impl EventSink for FrameSink {
    fn deliver(&self, events: &[DeltaEvent]) {
        self.frames.lock().unwrap().push(events.to_vec());
    }
}

impl FrameSink {
    fn drain(&self) -> Vec<Vec<DeltaEvent>> {
        std::mem::take(&mut self.frames.lock().unwrap())
    }
}

fn link(sign: Sign, a: u32, b: u32, cost: u32) -> [TupleDelta; 2] {
    [(a, b), (b, a)].map(|(s, d)| {
        let tuple = Tuple::new(vec![
            Value::addr(s),
            Value::addr(d),
            Value::Int(i64::from(cost)),
        ]);
        match sign {
            Sign::Insert => TupleDelta::insert("link", tuple),
            Sign::Delete => TupleDelta::delete("link", tuple),
        }
    })
}

/// What a subscriber rebuilds of one relation from its frames.
#[derive(Default)]
struct Replica {
    set: BTreeSet<Tuple>,
    by_key: BTreeMap<Vec<Value>, Tuple>,
}

/// Check one frame against the four properties' per-frame half and fold it
/// into the replicas.
fn apply(
    frame: &[DeltaEvent],
    keys: &BTreeMap<String, Vec<usize>>,
    replicas: &mut BTreeMap<String, Replica>,
    context: &str,
) {
    let named: BTreeSet<(&str, &Tuple)> = frame
        .iter()
        .map(|e| (&*e.delta.relation, &e.delta.tuple))
        .collect();
    assert_eq!(named.len(), frame.len(), "{context}: a tuple named twice");
    let asserted = frame.iter().position(|e| e.delta.sign == Sign::Insert);
    let rest = &frame[asserted.unwrap_or(frame.len())..];
    assert!(
        rest.iter().all(|e| e.delta.sign == Sign::Insert),
        "{context}: a retraction after an assertion: {frame:#?}"
    );
    for event in frame {
        let delta = &event.delta;
        let columns = &keys[&*delta.relation];
        let key: Vec<Value> = if columns.is_empty() {
            delta.tuple.values().to_vec()
        } else {
            columns
                .iter()
                .map(|&c| delta.tuple.values()[c].clone())
                .collect()
        };
        let replica = replicas.entry(delta.relation.to_string()).or_default();
        match delta.sign {
            Sign::Insert => {
                replica.set.insert(delta.tuple.clone());
                replica.by_key.insert(key, delta.tuple.clone());
            }
            Sign::Delete => {
                replica.set.remove(&delta.tuple);
                replica.by_key.remove(&key);
            }
        }
    }
}

fn run(program: &Program, watched: &[&str], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = rng.random_range(3u32..6);
    let mut costs: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for a in 0..nodes {
        for b in (a + 1)..nodes {
            if rng.random_bool(0.6) {
                costs.insert((a, b), rng.random_range(1u32..6));
            }
        }
    }
    let service = Service::from_program(program).unwrap();
    let writer = service.open_session(Arc::new(NullSink));
    let initial = costs
        .iter()
        .flat_map(|(&(a, b), &c)| link(Sign::Insert, a, b, c));
    writer.apply_batch(initial.collect()).unwrap();

    let sink = Arc::new(FrameSink::default());
    let watcher = service.open_session(sink.clone());
    let keys: BTreeMap<String, Vec<usize>> = watched
        .iter()
        .map(|&r| {
            (
                r.to_string(),
                program.table_decl(r).unwrap().key_columns.clone(),
            )
        })
        .collect();
    let mut replicas: BTreeMap<String, Replica> = BTreeMap::new();
    for relation in watched {
        watcher
            .execute_line(&format!(".subscribe {relation}"))
            .unwrap();
    }
    for frame in sink.drain() {
        apply(
            &frame,
            &keys,
            &mut replicas,
            &format!("seed {seed} snapshot"),
        );
    }

    for commit in 0..COMMITS {
        let mut batch = Vec::new();
        for _ in 0..rng.random_range(1usize..4) {
            let a = rng.random_range(0..nodes);
            let b = rng.random_range(0..nodes);
            if a == b || batch.len() > 4 {
                continue;
            }
            let pair = (a.min(b), a.max(b));
            match costs.get(&pair).copied() {
                Some(old) if rng.random_bool(0.25) => {
                    batch.extend(link(Sign::Delete, pair.0, pair.1, old));
                    costs.remove(&pair);
                }
                _ => {
                    let cost = rng.random_range(1u32..6);
                    batch.extend(link(Sign::Insert, pair.0, pair.1, cost));
                    costs.insert(pair, cost);
                }
            }
        }
        if batch.is_empty() {
            continue;
        }
        writer.apply_batch(batch).unwrap();
        let context = format!("seed {seed} commit {commit}");
        for frame in sink.drain() {
            apply(&frame, &keys, &mut replicas, &context);
        }
        let fingerprint = service.fingerprint();
        for relation in watched {
            let stored: BTreeSet<Tuple> = fingerprint
                .iter()
                .filter(|(r, ..)| r == relation)
                .map(|(.., tuple)| tuple.clone())
                .collect();
            let replica = replicas.entry(relation.to_string()).or_default();
            assert_eq!(
                replica.set, stored,
                "{context}: {relation} replayed as a set"
            );
            let by_key: BTreeSet<Tuple> = replica.by_key.values().cloned().collect();
            assert_eq!(by_key, stored, "{context}: {relation} replayed by key");
        }
    }
}

#[test]
fn frames_are_commit_atomic_under_distance_vector() {
    let program = programs::distance_vector("", 2);
    for seed in 0..12 {
        run(&program, &["link", "route", "bestCost", "bestRoute"], seed);
    }
}

#[test]
fn frames_are_commit_atomic_under_shortest_path() {
    let program = programs::shortest_path("");
    for seed in 0..12 {
        run(&program, &["link", "path", "spCost", "shortestPath"], seed);
    }
}

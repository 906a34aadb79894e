//! Concurrency correctness: N sessions committing interleaved update
//! batches into one service leave the store in exactly the state a
//! single session produces by replaying the same batches sequentially in
//! commit order. The comparison is the full fingerprint — every stored
//! tuple *with its derivation count* — so this is bitwise store equality,
//! not just visible-set equality.

use ndlog_lang::programs;
use ndlog_lang::Value;
use ndlog_runtime::{Tuple, TupleDelta};
use ndlog_serve::{CollectSink, NullSink, Service};
use std::sync::Arc;

fn link(s: u32, d: u32, c: f64) -> TupleDelta {
    TupleDelta::insert(
        "link",
        Tuple::new(vec![Value::addr(s), Value::addr(d), Value::Float(c)]),
    )
}

fn unlink(s: u32, d: u32, c: f64) -> TupleDelta {
    TupleDelta::delete(
        "link",
        Tuple::new(vec![Value::addr(s), Value::addr(d), Value::Float(c)]),
    )
}

/// Worker `w`'s batch `b`: a mix of keyed cost replacements on a private
/// spoke and churn on the shared figure-2 edges, so concurrent batches
/// genuinely contend on overlapping keys.
fn batch(w: u32, b: u32) -> Vec<TupleDelta> {
    let spoke = 10 + w;
    let cost = f64::from(b % 3 + 1);
    let mut deltas = vec![link(0, spoke, cost), link(spoke, 0, cost)];
    match b % 4 {
        0 => {
            deltas.push(unlink(0, 2, 1.0));
            deltas.push(unlink(2, 0, 1.0));
        }
        1 => {
            deltas.push(link(0, 2, 1.0));
            deltas.push(link(2, 0, 1.0));
        }
        2 => deltas.push(link(1, 3, f64::from(w) + 2.0)),
        _ => deltas.push(link(1, 3, 1.0)),
    }
    deltas
}

fn seed(service: &Arc<Service>) {
    let session = service.open_session(Arc::new(NullSink));
    let edges: [(u32, u32, f64); 5] = [
        (0, 1, 5.0),
        (0, 2, 1.0),
        (2, 1, 1.0),
        (1, 3, 1.0),
        (4, 0, 1.0),
    ];
    let mut deltas = Vec::new();
    for (a, b, c) in edges {
        for (s, d) in [(a, b), (b, a)] {
            deltas.push(link(s, d, c));
        }
    }
    session.apply_batch(deltas).unwrap();
}

#[test]
fn interleaved_sessions_equal_sequential_replay() {
    const WORKERS: u32 = 4;
    const BATCHES: u32 = 20;

    let program = programs::shortest_path("");
    let concurrent = Service::from_program(&program).unwrap();
    seed(&concurrent);

    // A live subscriber rides along: delta delivery must not perturb the
    // store, and its stream (snapshot + live deltas) is replayed from
    // empty below and must land on exactly the final relation.
    let sink = CollectSink::new();
    let watcher = concurrent.open_session(sink.clone());
    watcher.execute_line(".subscribe shortestPath").unwrap();

    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let service = Arc::clone(&concurrent);
            std::thread::spawn(move || {
                let session = service.open_session(Arc::new(NullSink));
                for b in 0..BATCHES {
                    session.apply_batch(batch(w, b)).unwrap();
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let log = concurrent.commit_log();
    assert_eq!(
        log.len() as u32,
        WORKERS * BATCHES + 1,
        "seed + all batches"
    );
    // Commit order is a real interleaving most runs, but correctness must
    // not depend on which one the scheduler produced.
    let sessions: std::collections::BTreeSet<u64> = log.iter().map(|b| b.session).collect();
    assert!(sessions.len() as u32 >= WORKERS, "every worker committed");

    // Oracle: one session replays the identical batches sequentially in
    // commit order onto a fresh service.
    let sequential = Service::from_program(&program).unwrap();
    let replayer = sequential.open_session(Arc::new(NullSink));
    for committed in &log {
        replayer.apply_batch(committed.deltas.clone()).unwrap();
    }

    assert_eq!(
        concurrent.fingerprint(),
        sequential.fingerprint(),
        "interleaved commits must be bitwise-identical to sequential replay"
    );

    // The watcher's stream per tuple strictly alternates insert/retract
    // and replays to exactly the final subscribed relation.
    let mut visible = std::collections::BTreeSet::new();
    for event in sink.drain() {
        let key = (event.delta.relation.to_string(), event.delta.tuple.clone());
        match event.delta.sign {
            ndlog_runtime::Sign::Insert => {
                assert!(visible.insert(key), "double insert: {}", event.delta)
            }
            ndlog_runtime::Sign::Delete => {
                assert!(
                    visible.remove(&key),
                    "retract of invisible: {}",
                    event.delta
                )
            }
        };
    }
    let expected: std::collections::BTreeSet<_> = concurrent
        .fingerprint()
        .into_iter()
        .filter(|(rel, _, _)| rel == "shortestPath")
        .map(|(rel, _, tuple)| (rel, tuple))
        .collect();
    assert_eq!(
        visible, expected,
        "replayed stream equals the final relation"
    );
}

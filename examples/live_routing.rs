//! Live route monitoring over the paper's figure-2 topology.
//!
//! A `serve::Service` runs the shortest-path program over the five-node
//! graph while a subscriber watches `shortestPath` from node a. The link
//! churn loop then breaks and restores edges; every loss, reroute and
//! recovery arrives as an exact insert/retract delta on the live stream —
//! no polling, no recomputation from scratch.
//!
//! Run with: `cargo run --example live_routing`

use ndlog::lang::{programs, Value};
use ndlog::runtime::{Sign, Tuple, TupleDelta};
use ndlog::serve::{DeltaEvent, EventSink, NullSink, Service};
use std::sync::{Arc, Mutex};

const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

fn name(value: &Value) -> String {
    match value {
        Value::Addr(addr) => {
            let idx = addr.index();
            NAMES
                .get(idx)
                .map_or_else(|| format!("{addr}"), |n| (*n).to_string())
        }
        other => format!("{other}"),
    }
}

/// Narrate each delta as a routing-table change: a frame is rendered when
/// it is delivered (under the engine lock, where a sink must only queue)
/// and printed when it is flushed.
#[derive(Default)]
struct Narrator {
    lines: Mutex<String>,
}

impl EventSink for Narrator {
    fn deliver(&self, events: &[DeltaEvent]) {
        let mut lines = self.lines.lock().unwrap();
        for event in events {
            let t = &event.delta.tuple;
            let (src, dst) = (name(t.get(0).unwrap()), name(t.get(1).unwrap()));
            let cost = t.get(3).unwrap();
            let epoch = event.epoch;
            *lines += &match event.delta.sign {
                Sign::Insert => {
                    format!("  [epoch {epoch}] + route {src} -> {dst} at cost {cost}\n")
                }
                Sign::Delete => {
                    format!("  [epoch {epoch}] - route {src} -> {dst} (was cost {cost})\n")
                }
            };
        }
    }

    fn flush(&self) {
        print!("{}", std::mem::take(&mut *self.lines.lock().unwrap()));
    }
}

fn both_ways(sign: Sign, a: u32, b: u32, c: f64) -> Vec<TupleDelta> {
    [(a, b), (b, a)]
        .into_iter()
        .map(|(s, d)| {
            let tuple = Tuple::new(vec![Value::addr(s), Value::addr(d), Value::Float(c)]);
            match sign {
                Sign::Insert => TupleDelta::insert("link", tuple),
                Sign::Delete => TupleDelta::delete("link", tuple),
            }
        })
        .collect()
}

fn main() {
    let service = Service::from_program(&programs::shortest_path("")).expect("program plans");
    let operator = service.open_session(Arc::new(NullSink));

    // Figure 2: a—b costs 5, but a—c—b costs 2.
    let edges: [(u32, u32, f64); 5] = [
        (0, 1, 5.0),
        (0, 2, 1.0),
        (2, 1, 1.0),
        (1, 3, 1.0),
        (4, 0, 1.0),
    ];
    let mut seed = Vec::new();
    for (a, b, c) in edges {
        seed.extend(both_ways(Sign::Insert, a, b, c));
    }
    operator.apply_batch(seed).expect("base graph applies");

    println!("subscribing to shortestPath from node a:");
    let monitor = service.open_session(Arc::new(Narrator::default()));
    monitor
        .execute_line(".subscribe shortestPath(@n0, _, _, _)")
        .expect("subscribe");

    println!("\nbreaking the cheap a--c link (a->b must reroute via the direct edge):");
    operator
        .apply_batch(both_ways(Sign::Delete, 0, 2, 1.0))
        .expect("delete applies");

    println!("\nbreaking a--b entirely (b and d become unreachable from a):");
    operator
        .apply_batch(both_ways(Sign::Delete, 0, 1, 5.0))
        .expect("delete applies");

    println!("\nrestoring a--c (routes to b, c, d come back through c):");
    operator
        .apply_batch(both_ways(Sign::Insert, 0, 2, 1.0))
        .expect("insert applies");

    println!(
        "\nfinal routing table at node a (epoch {}):",
        service.epoch()
    );
    for (rel, _, tuple) in service.fingerprint() {
        if rel == "shortestPath" && tuple.get(0) == Some(&Value::addr(0u32)) {
            println!(
                "  {} -> {} at cost {}",
                name(tuple.get(0).unwrap()),
                name(tuple.get(1).unwrap()),
                tuple.get(3).unwrap()
            );
        }
    }
}

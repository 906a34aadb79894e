//! Property-based tests (proptest) for the core invariants:
//!
//! * **Theorem 1** — SN, BSN and PSN compute the same fixpoint on random
//!   graphs: the fixpoint of the naive oracle (`ndlog-oracle`), derivation
//!   counts included;
//! * the evaluator agrees with the oracle on every relation of the
//!   shortest-path and distance-vector programs under every strategy,
//!   before and after a burst of updates;
//! * **Theorem 3** — applying a random sequence of insertions and deletions
//!   incrementally yields the same state as evaluating the final base data
//!   from scratch;
//! * aggregate views always equal a from-scratch recomputation of the
//!   aggregate over their inputs;
//! * parsing is stable under pretty-printing (display → parse round-trip);
//! * link-restricted programs localize to single-site rule bodies;
//! * the centralized evaluator and a single node engine — the two wrappers
//!   over the one local fixpoint driver — agree on stores and statistics;
//! * `Value` equality is the relation its ordering decides, and equal
//!   values hash alike;
//! * an integral `Float` prints byte-for-byte what `{:.1}` prints.

use ndlog_core::{plan, NodeConfig, NodeEngine};
use ndlog_lang::localize::{is_localized, localize};
use ndlog_lang::{parse_program, programs, Program, Value};
use ndlog_net::NodeAddr;
use ndlog_oracle::Oracle;
use ndlog_runtime::{
    AggregateView, EvalStats, Evaluator, Sign, Strategy as EvalStrategy, Tuple, TupleDelta,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A random directed edge list over `n` nodes (no self-loops).
fn edges_strategy(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32, u8)>> {
    (2..=max_nodes).prop_flat_map(move |n| {
        prop::collection::vec(
            (0..n, 0..n, 1u8..10u8).prop_filter("no self-loops", |(a, b, _)| a != b),
            1..=max_edges,
        )
    })
}

fn link(a: u32, b: u32, c: f64) -> Tuple {
    Tuple::new(vec![Value::addr(a), Value::addr(b), Value::Float(c)])
}

/// A relation's stored tuples with their derivation counts.
fn stored(eval: &Evaluator, relation: &str) -> Vec<(Vec<Value>, u64)> {
    let rows = eval
        .store()
        .relation(relation)
        .into_iter()
        .flat_map(|r| r.iter());
    rows.map(|s| (s.tuple.values().to_vec(), s.count)).collect()
}

/// A centralized evaluator of `program` whose tap records every relation,
/// loaded with every link of `edges` — both directions of each when
/// `bidirectional`. A later link under a taken key replaces an input tuple
/// during the run, and no count is compared downstream of that removal
/// (see [`reached_by_removals`]).
fn loaded(program: &Program, edges: &[(u32, u32, u8)], bidirectional: bool) -> Evaluator {
    let mut eval = Evaluator::new(program).unwrap();
    let names: Vec<String> = eval.store().relation_names().map(str::to_string).collect();
    for name in names {
        eval.tap_mut().subscribe(&name);
    }
    for &(a, b, c) in edges {
        eval.insert_fact("link", link(a, b, f64::from(c)));
        if bidirectional {
            eval.insert_fact("link", link(b, a, f64::from(c)));
        }
    }
    eval
}

/// The two inputs each from-scratch check runs on: every edge, whose
/// duplicate keys replace input tuples mid-run, and the first edge under
/// each key alone, where no input is replaced and counts are compared on
/// every relation no derived replacement reached.
fn inputs(edges: &[(u32, u32, u8)], bidirectional: bool) -> [Vec<(u32, u32, u8)>; 2] {
    let mut keys = BTreeSet::new();
    let first = edges.iter().filter(|&&(a, b, _)| {
        let key = if bidirectional {
            (a.min(b), a.max(b))
        } else {
            (a, b)
        };
        keys.insert(key)
    });
    let first = first.copied().collect();
    [edges.to_vec(), first]
}

/// The relations a removal has reached: each one the tap saw lose a tuple,
/// and everything derived from one. Their derivation counts are not
/// compared with the oracle's, because after a primary-key replacement
/// stored counts can overshoot the distinct derivations:
///
/// * a tuple removed and inserted again before its first queued firing
///   fires twice (`reachability`, links `(0,1,1)`, `(0,1,2)`, `(0,1,1)`:
///   `reachable(0,1)` stored with count 2);
/// * DRed's key-bound re-derivation sees applied-but-unfired tuples, whose
///   own firing then derives the same tuple again (`shortest_path` on the
///   triangle 0–1 cost 3, 0–2 and 2–1 cost 1: `shortestPath(0,1,[0,2,1],2)`
///   stored with count 2);
/// * rebuilding a view group whose old output a replacement removed
///   inserts the current output once more (`distance_vector(2)` on 0–1
///   cost 2, 0–2 cost 1: `bestCost(0,0,2)` stored with count 2).
fn reached_by_removals(program: &Program, eval: &mut Evaluator) -> BTreeSet<String> {
    let removals = eval
        .drain_tap()
        .into_iter()
        .filter(|d| d.sign == Sign::Delete);
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

/// Whether every relation of `eval` agrees with the oracle's fixpoint of
/// `program` over the links `eval` stores. With `uncounted`, the
/// derivation counts of every relation not in it are compared too.
fn check_against_oracle(
    program: &Program,
    eval: &Evaluator,
    uncounted: Option<&BTreeSet<String>>,
) -> Result<(), String> {
    let links = stored(eval, "link").into_iter();
    let oracle = Oracle::run(program, links.map(|(row, _)| ("link".to_string(), row)))?;
    for name in eval.store().relation_names() {
        let rows = stored(eval, name);
        let tuples: Vec<Vec<Value>> = rows.iter().map(|(row, _)| row.clone()).collect();
        oracle.agrees(name, &tuples)?;
        if uncounted.is_some_and(|skip| !skip.contains(name)) {
            oracle.counts_agree(name, &rows)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1: the three evaluation strategies each reach the oracle's
    /// fixpoint on each of the two `inputs`, down to every tuple's number
    /// of derivations wherever no removal reached (see
    /// `reached_by_removals`).
    #[test]
    fn theorem1_strategies_agree_on_random_graphs(edges in edges_strategy(7, 14)) {
        let program = programs::reachability("");
        for input in inputs(&edges, false) {
            for strategy in [
                EvalStrategy::Pipelined,
                EvalStrategy::SemiNaive,
                EvalStrategy::Buffered { batch: 2 },
            ] {
                let mut eval = loaded(&program, &input, false);
                eval.run(strategy).unwrap();
                let uncounted = reached_by_removals(&program, &mut eval);
                let checked = check_against_oracle(&program, &eval, Some(&uncounted));
                prop_assert_eq!(checked, Ok(()), "{:?} on {:?}", strategy, input);
            }
        }
    }

    /// Theorem 3: incremental maintenance of a random update sequence ends
    /// in the same state as evaluating the final base data from scratch.
    #[test]
    fn theorem3_incremental_equals_from_scratch(
        initial in edges_strategy(6, 10),
        updates in prop::collection::vec((0u32..6, 0u32..6, 1u8..10u8, prop::bool::ANY), 1..8),
    ) {
        let program = programs::reachability("");
        let mut incremental = Evaluator::new(&program).unwrap();
        let mut base: BTreeSet<(u32, u32, u8)> = BTreeSet::new();
        for &(a, b, c) in &initial {
            if base.insert((a, b, c)) {
                incremental.insert_fact("link", link(a, b, f64::from(c)));
            }
        }
        incremental.run(EvalStrategy::Pipelined).unwrap();

        for &(a, b, c, insert) in &updates {
            if a == b {
                continue;
            }
            if insert {
                if base.insert((a, b, c)) {
                    incremental.update(TupleDelta::insert("link", link(a, b, f64::from(c)))).unwrap();
                }
            } else if base.remove(&(a, b, c)) {
                incremental.update(TupleDelta::delete("link", link(a, b, f64::from(c)))).unwrap();
            }
        }

        let mut scratch = Evaluator::new(&program).unwrap();
        for &(a, b, c) in &base {
            scratch.insert_fact("link", link(a, b, f64::from(c)));
        }
        scratch.run(EvalStrategy::Pipelined).unwrap();

        let inc: BTreeSet<Tuple> = incremental.results("reachable").into_iter().collect();
        let scr: BTreeSet<Tuple> = scratch.results("reachable").into_iter().collect();
        prop_assert_eq!(inc, scr);
    }

    /// Aggregate views equal a from-scratch recomputation over whatever
    /// inputs remain after a random insert/remove sequence, on the path
    /// production takes: an insertion enters the store and then the views,
    /// a removal leaves the store and then its group is rebuilt. Equal
    /// values under distinct ids are the ties; groups empty out and refill.
    #[test]
    fn aggregate_view_matches_recomputation(
        ops in prop::collection::vec((0u32..4, 1i64..30, prop::bool::ANY), 1..40),
    ) {
        let mut views: Vec<AggregateView> = ["min", "max", "count", "sum"]
            .iter()
            .map(|func| {
                let rule = format!("a best(@G, {func}<C>) :- obs(@G, I, C).");
                AggregateView::from_rule(&parse_program(&rule).unwrap().rules[0]).unwrap()
            })
            .collect();
        let obs = |g: u32, id: usize, c: i64| {
            Tuple::new(vec![Value::addr(g), Value::Int(id as i64), Value::Int(c)])
        };
        let mut store = ndlog_runtime::Store::new();
        let mut live: Vec<(u32, usize, i64)> = Vec::new();
        for (id, &(g, c, insert)) in ops.iter().enumerate() {
            if insert {
                live.push((g, id, c));
                store.apply(&TupleDelta::insert("obs", obs(g, id, c)));
                for view in &mut views {
                    view.apply(&store, "obs", &obs(g, id, c));
                }
                continue;
            }
            // Removing something never inserted must change nothing.
            let pos = live.iter().position(|&(lg, _, lc)| lg == g && lc == c);
            let tuple = pos.map_or(obs(g, id, c), |pos| {
                let (g, id, c) = live.remove(pos);
                obs(g, id, c)
            });
            store.apply(&TupleDelta::delete("obs", tuple.clone()));
            for view in &mut views {
                let key = view.group_key(&tuple).unwrap();
                view.rebuild_group(&store, &key, &mut Default::default());
            }
        }
        for g in 0u32..4 {
            let inputs = || live.iter().filter(|&&(lg, _, _)| lg == g).map(|&(_, _, c)| c);
            let expected = [
                inputs().min().map(Value::Int),
                inputs().max().map(Value::Int),
                (inputs().count() > 0).then(|| Value::Int(inputs().count() as i64)),
                (inputs().count() > 0).then(|| Value::Float(inputs().sum::<i64>() as f64)),
            ];
            for (view, expected) in views.iter().zip(expected) {
                prop_assert_eq!(view.current_for(&obs(g, 0, 0)), expected, "{:?}", view.func());
            }
        }
    }

    /// Pretty-printing then re-parsing a program yields the same rules.
    #[test]
    fn parser_display_roundtrip(seed in 0u32..4) {
        let program = match seed {
            0 => programs::shortest_path(""),
            1 => programs::shortest_path_magic_dst("m"),
            2 => programs::shortest_path_source_routing("sd"),
            _ => programs::distance_vector("dv", 16),
        };
        let printed = program.to_string();
        let reparsed = parse_program(&printed).unwrap();
        prop_assert_eq!(program.rules, reparsed.rules);
        prop_assert_eq!(program.queries, reparsed.queries);
    }

    /// Localization always yields a program whose rule bodies are
    /// single-site, and preserves the centralized fixpoint.
    #[test]
    fn localization_preserves_results(edges in edges_strategy(6, 10)) {
        let program = programs::shortest_path("");
        let localized = localize(&program).unwrap();
        prop_assert!(is_localized(&localized));

        // Compare (source, destination, cost): when two paths tie on cost,
        // the original and localized programs may legitimately keep
        // different representative path vectors.
        let run = |p: &ndlog_lang::Program| -> BTreeSet<(Value, Value, Value)> {
            let mut eval = Evaluator::new(p).unwrap();
            for &(a, b, c) in &edges {
                eval.insert_fact("link", link(a, b, f64::from(c)));
                eval.insert_fact("link", link(b, a, f64::from(c)));
            }
            eval.run(EvalStrategy::Pipelined).unwrap();
            eval.results("shortestPath")
                .into_iter()
                .map(|t| {
                    (
                        t.get(0).unwrap().clone(),
                        t.get(1).unwrap().clone(),
                        t.get(3).unwrap().clone(),
                    )
                })
                .collect()
        };
        prop_assert_eq!(run(&program), run(&localized));
    }
}

/// Decode one value from generated bytes. The leaves come from a small pool
/// in which the hard cases of numeric equality abound — an integer and the
/// float of the same value, both zeros, two NaN bit patterns, integers
/// past 2^53 that one float stands for — beside the other types; the
/// remaining codes open a list of up to three decoded values.
fn decode_value(codes: &mut impl Iterator<Item = u8>, depth: u32) -> Value {
    let code = codes.next().unwrap_or(0);
    match code % 20 {
        0 => Value::Int(0),
        1 => Value::Float(0.0),
        2 => Value::Float(-0.0),
        3 => Value::Int(3),
        4 => Value::Float(3.0),
        5 => Value::Float(3.5),
        6 => Value::Float(f64::NAN),
        7 => Value::Float(f64::from_bits(f64::NAN.to_bits() | 1)),
        8 => Value::Int(1 << 53),
        9 => Value::Int((1 << 53) + 1),
        10 => Value::Float((1u64 << 53) as f64),
        11 => Value::addr(3u32),
        12 => Value::str("3"),
        13 => Value::str(""),
        14 => Value::Bool(true),
        15 => Value::Int(-3),
        _ if depth == 0 => Value::nil(),
        _ => Value::list(
            (0..code % 4)
                .map(|_| decode_value(codes, depth - 1))
                .collect(),
        ),
    }
}

/// The same value spelled differently where `Value` equality allows it:
/// integers a float represents exactly become that float, all the way down.
fn respell(value: &Value) -> Value {
    match value {
        Value::Int(i) if (*i as f64) as i64 == *i => Value::Float(*i as f64),
        Value::List(items) => Value::list(items.iter().map(respell).collect()),
        other => other.clone(),
    }
}

fn hash_of(value: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `a == b ⇔ a.cmp(&b) == Equal ⇒ hash(a) == hash(b)`: equality has an
    /// implementation of its own (shared lists and unequal lengths are
    /// decided without a walk) and must stay the relation the total order
    /// defines — against an unrelated value, a structurally equal rebuild
    /// (other allocations), a clone (the same allocations) and a
    /// respelling (integers as floats).
    #[test]
    fn value_equality_is_what_the_ordering_decides(
        left in prop::collection::vec(0u8..=255, 1..24),
        right in prop::collection::vec(0u8..=255, 1..24),
    ) {
        let a = decode_value(&mut left.iter().copied(), 3);
        let others = [
            decode_value(&mut right.iter().copied(), 3),
            decode_value(&mut left.iter().copied(), 3),
            a.clone(),
            respell(&a),
        ];
        for b in &others {
            let equal = a.cmp(b) == std::cmp::Ordering::Equal;
            prop_assert_eq!(a == *b, equal, "{} vs {}", a, b);
            prop_assert_eq!(*b == a, equal, "{} vs {}", b, a);
            if equal {
                prop_assert_eq!(hash_of(&a), hash_of(b), "{} vs {}", a, b);
            }
        }
        // A clone and a rebuild are equal whatever they hold, NaNs included.
        prop_assert_eq!(&a, &others[1]);
        prop_assert_eq!(&a, &others[2]);
    }

    /// An integral `Float` below 1e15 prints through integer formatting,
    /// and the text must be what `{:.1}` printed before: every link and
    /// route cost on the wire is one. Everything else — fractions, 1e15
    /// and beyond (2^53 ± 1 included), NaN, the infinities — still prints
    /// as `{x}` does.
    #[test]
    fn integral_floats_print_as_they_always_did(
        magnitude in 0u64..1_000_000_000_000_000,
        bits in 0u64..=u64::MAX,
    ) {
        let edge = [0.0, 1.0, 1e15 - 1.0];
        for x in edge.into_iter().chain([magnitude as f64]).flat_map(|x| [x, -x]) {
            prop_assert_eq!(Value::Float(x).to_string(), format!("{x:.1}"));
        }
        let two_53 = 9_007_199_254_740_992.0_f64;
        let other = [
            0.5, 1e15 - 0.5, 1e15, two_53 - 1.0, two_53 + 1.0, 1e300,
            f64::MIN_POSITIVE, f64::NAN, f64::INFINITY, f64::from_bits(bits),
        ];
        for x in other.into_iter().flat_map(|x| [x, -x]) {
            if x.fract() != 0.0 || x.abs() >= 1e15 || x.is_nan() {
                prop_assert_eq!(Value::Float(x).to_string(), format!("{x}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The evaluator agrees with the naive oracle under SN, BSN and PSN on
    /// every relation (see `Oracle::agrees`), on each of the two `inputs`:
    /// after a from-scratch run, derivation counts included wherever no
    /// removal reached (see `reached_by_removals`), and again after a burst
    /// of updates — deletions among them, so DRed passes and mid-round
    /// invalidation run — over the links the burst left.
    #[test]
    fn evaluator_matches_oracle(
        edges in edges_strategy(6, 10),
        updates in prop::collection::vec((0u32..6, 0u32..6, 1u8..6u8, prop::bool::ANY), 0..6),
    ) {
        let strategies = [
            EvalStrategy::SemiNaive,
            EvalStrategy::Buffered { batch: 2 },
            EvalStrategy::Pipelined,
        ];
        for program in [programs::shortest_path(""), programs::distance_vector("", 2)] {
            for input in inputs(&edges, true) {
                for strategy in strategies {
                    let mut eval = loaded(&program, &input, true);
                    let mut stats = eval.run(strategy).unwrap();
                    let uncounted = reached_by_removals(&program, &mut eval);
                    let scratch = check_against_oracle(&program, &eval, Some(&uncounted));
                    prop_assert_eq!(scratch, Ok(()), "{:?} on {:?}, from scratch", strategy, input);
                    for &(a, b, c, insert) in &updates {
                        if a == b {
                            continue;
                        }
                        let delta = if insert {
                            TupleDelta::insert("link", link(a, b, f64::from(c)))
                        } else {
                            TupleDelta::delete("link", link(a, b, f64::from(c)))
                        };
                        stats += eval.update(delta).unwrap();
                    }
                    let updated = check_against_oracle(&program, &eval, None);
                    prop_assert_eq!(updated, Ok(()), "{:?} on {:?}, after the updates", strategy, input);
                    prop_assert!(
                        stats.distinct_probes <= stats.logical_probes,
                        "{:?}: distinct probes exceed logical", strategy
                    );
                }
            }
        }
    }

    /// The centralized `Evaluator` (PSN) and a single default-config
    /// `NodeEngine` are wrappers over the same local fixpoint driver: fed
    /// the same delta bursts on the same clock — a keyed soft-state
    /// relation (replacements, expiry), a hard-state projection, a `min<>`
    /// aggregate view with a soft-state output and a join on it — they
    /// end with identical stores (tuples, derivation counts, timestamps,
    /// expiries) and identical `EvalStats`, duplicate-insertion count and
    /// refreshed view-output expiries included.
    #[test]
    fn evaluator_and_single_node_engine_agree(
        bursts in prop::collection::vec(
            prop::collection::vec((0u32..4, 1u8..6u8, prop::bool::ANY), 1..6),
            1..6,
        ),
    ) {
        let program = parse_program(
            r#"
            materialize(obs, keys(1,2), ttl(3)).
            materialize(best, keys(1), ttl(3)).
            materialize(seen, keys(1,2)).
            r1 seen(@S, K) :- obs(@S, K, C).
            r2 best(@S, min<C>) :- obs(@S, K, C).
            r3 argbest(@S, K, C) :- best(@S, C), obs(@S, K, C).
            "#,
        )
        .unwrap();
        let query_plan = plan(&program).unwrap();
        let mut eval = Evaluator::new(&query_plan.program).unwrap();
        let mut node = NodeEngine::new(
            NodeAddr(0),
            std::slice::from_ref(&query_plan),
            Arc::new(query_plan.strands.clone()),
            NodeConfig::default(),
        )
        .unwrap();

        let obs = |k: u32, c: u8| {
            Tuple::new(vec![
                Value::addr(0u32),
                Value::Int(i64::from(k)),
                Value::Int(i64::from(c)),
            ])
        };
        // Bursts arrive 1 s apart, so a tuple some burst re-inserts keeps
        // having its 3 s TTL refreshed; the last step is a lone 2 s jump
        // that expires whatever the final burst did not refresh.
        let steps = bursts
            .iter()
            .map(|burst| (1_000_000u64, burst.as_slice()))
            .chain([(2_000_000u64, &[][..])]);
        let mut eval_stats = EvalStats::default();
        let mut now = 0u64;
        for (advance, burst) in steps {
            now += advance;
            let deltas: Vec<TupleDelta> = burst
                .iter()
                .map(|&(k, c, insert)| {
                    if insert {
                        TupleDelta::insert("obs", obs(k, c))
                    } else {
                        TupleDelta::delete("obs", obs(k, c))
                    }
                })
                .collect();
            eval.set_time(now);
            eval.expire_soft_state(now);
            eval_stats += eval.update_batch(deltas.clone()).unwrap();
            node.set_time(now);
            node.expire_soft_state(now);
            node.receive(deltas);
            node.process().unwrap();
        }

        prop_assert_eq!(eval_stats, node.eval_stats());
        prop_assert_eq!(eval.store().current_seq(), node.store().current_seq());
        let names: Vec<&str> = eval.store().relation_names().collect();
        prop_assert_eq!(&names, &node.store().relation_names().collect::<Vec<_>>());
        for name in names {
            let a: Vec<_> = eval.store().relation(name).unwrap().iter().collect();
            let b: Vec<_> = node.store().relation(name).unwrap().iter().collect();
            prop_assert_eq!(a, b, "relation {} diverges", name);
        }
    }
}

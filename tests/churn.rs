//! Randomized delete/insert churn versus the naive oracle's fixpoint.
//!
//! Section 4's update model (and Section 6.5's bursty experiments) applies
//! periodic bursts of base-tuple changes to a quiesced store. With DRed
//! deletion maintenance this must be exact for *any* initial evaluation
//! strategy: an SN or BSN initial run may over-count derivations (no
//! Theorem-2 guarantee) and primary-key replacements fold counts away, but
//! the over-delete/re-derive pass never consults a count, so incremental
//! results must equal a from-scratch evaluation of the surviving links —
//! the fixpoint of `ndlog-oracle`'s naive evaluator — after every burst.
//!
//! The workload mirrors `ndlog_core::UpdateWorkload` at the evaluator
//! level: each burst touches a random subset of the (bidirectional) links —
//! deleting some outright, re-costing others as delete-then-insert, and
//! adding fresh ones — seeded through the deterministic `rand` stand-in,
//! with no wall-clock dependence.
//!
//! Two programs run it: `shortest_path("")`, whose `path` is keyed on
//! columns the rule copies or builds from a list, and
//! `distance_vector("", 2)`, whose `route` key `(S, D, Z, C)` ends in a
//! *computed* cost — the one shape where re-derivation has to compare a
//! key column against an assignment's value.

use ndlog_lang::{programs, Program, Value};
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig};
use ndlog_net::topology::Metric;
use ndlog_oracle::Oracle;
use ndlog_runtime::{EvalStats, Evaluator, Strategy, Tuple, TupleDelta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const NODES: u32 = 5;
const BURSTS: usize = 4;

fn link(a: u32, b: u32, c: f64) -> Tuple {
    Tuple::new(vec![Value::addr(a), Value::addr(b), Value::Float(c)])
}

/// Canonical undirected edge key.
fn canonical(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Insert both directions of every link as base facts.
fn load(eval: &mut Evaluator, base: &BTreeMap<(u32, u32), f64>) {
    for (&(a, b), &c) in base {
        eval.insert_fact("link", link(a, b, c));
        eval.insert_fact("link", link(b, a, c));
    }
}

/// Apply one bidirectional base change incrementally (updates are PSN).
fn apply(eval: &mut Evaluator, sign_insert: bool, a: u32, b: u32, c: f64) {
    for (s, d) in [(a, b), (b, a)] {
        let delta = if sign_insert {
            TupleDelta::insert("link", link(s, d, c))
        } else {
            TupleDelta::delete("link", link(s, d, c))
        };
        eval.update(delta).unwrap();
    }
}

/// One burst of random churn over the undirected link set: ~30% of the
/// existing links are deleted or re-costed, and a few fresh links appear.
/// Returns the incremental operations applied to `base` (which is mutated
/// to the post-burst state).
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
            // Re-cost: delete-then-insert, Section 4's update definition.
            let new_cost = f64::from(rng.random_range(1u32..10)) / 2.0;
            ops.push((true, a, b, new_cost));
            base.insert((a, b), new_cost);
        }
    }
    // A couple of fresh links keep the graph from draining.
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

/// Sorted tuple set of a relation.
fn snapshot(eval: &Evaluator, relation: &str) -> BTreeSet<Vec<Value>> {
    let tuples = eval.results(relation).into_iter();
    tuples.map(|t| t.values().to_vec()).collect()
}

/// A program under churn and how its layers compare against the oracle.
struct Case {
    program: Program,
    /// Tie-free relations (all cycle-free paths, every route, one
    /// aggregate per group): compared exactly. The historical bugs started
    /// as stale tuples here, not in the query result.
    exact: [&'static str; 2],
    /// The `(S, D)`-keyed query relation and its cost column. Equal-cost
    /// ties may be won by different representatives depending on update
    /// interleaving — a legitimate nondeterminism under keyed replacement
    /// that the distributed tests tolerate the same way — so the oracle
    /// comparison pins (source, destination, cost), not the whole tuple.
    best: (&'static str, usize),
}

fn cases() -> [Case; 2] {
    [
        Case {
            program: programs::shortest_path(""),
            exact: ["path", "spCost"],
            best: ("shortestPath", 3),
        },
        Case {
            program: programs::distance_vector("", 2),
            exact: ["route", "bestCost"],
            best: ("bestRoute", 3),
        },
    ]
}

impl Case {
    /// The (source, destination, cost) of every tuple in `tuples`.
    fn best_costs(&self, tuples: BTreeSet<Vec<Value>>) -> BTreeSet<(Value, Value, Value)> {
        let project = |t: Vec<Value>| (t[0].clone(), t[1].clone(), t[self.best.1].clone());
        tuples.into_iter().map(project).collect()
    }

    /// Every layer of `incremental` must equal the oracle's fixpoint over
    /// `base`.
    fn assert_matches_oracle(
        &self,
        incremental: &Evaluator,
        base: &BTreeMap<(u32, u32), f64>,
        context: &str,
    ) {
        let links = base
            .iter()
            .flat_map(|(&(a, b), &c)| [link(a, b, c), link(b, a, c)]);
        let input = links.map(|t| ("link".to_string(), t.values().to_vec()));
        let oracle = Oracle::run(&self.program, input).unwrap();
        for relation in self.exact {
            assert_eq!(
                snapshot(incremental, relation),
                oracle.tuples(relation),
                "{context}: incremental {relation} diverged from the oracle"
            );
        }
        let best = self.best.0;
        assert_eq!(
            self.best_costs(snapshot(incremental, best)),
            self.best_costs(oracle.tuples(best)),
            "{context}: incremental {best} costs diverged from the oracle"
        );
    }
}

/// A random initial graph: every undirected pair is a link with
/// probability `density`, at a half-integer cost.
fn random_base(rng: &mut StdRng, density: f64) -> BTreeMap<(u32, u32), f64> {
    let mut base = BTreeMap::new();
    for a in 0..NODES {
        for b in (a + 1)..NODES {
            if rng.random_bool(density) {
                base.insert((a, b), f64::from(rng.random_range(1u32..10)) / 2.0);
            }
        }
    }
    base
}

#[test]
fn churn_matches_from_scratch_for_every_strategy() {
    let strategies = [
        Strategy::SemiNaive,
        Strategy::Buffered { batch: 1 },
        Strategy::Buffered { batch: 2 },
        Strategy::Pipelined,
    ];
    for case in cases() {
        for seed in [7u64, 42, 0xc0ffee, 2026] {
            for strategy in strategies {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut base = random_base(&mut rng, 0.6);
                let mut incremental = Evaluator::new(&case.program).unwrap();
                load(&mut incremental, &base);
                incremental.run(strategy).unwrap();

                for round in 0..BURSTS {
                    for (insert, a, b, c) in burst(&mut rng, &mut base) {
                        apply(&mut incremental, insert, a, b, c);
                    }
                    let context =
                        format!("{}, seed {seed}, {strategy:?}, burst {round}", case.best.0);
                    case.assert_matches_oracle(&incremental, &base, &context);
                }
            }
        }
    }
}

#[test]
fn full_teardown_leaves_nothing_behind() {
    // Deleting every base link one by one must drain every derived layer,
    // whatever the initial strategy — the harshest count-exactness test.
    for strategy in [
        Strategy::SemiNaive,
        Strategy::Buffered { batch: 1 },
        Strategy::Pipelined,
    ] {
        let mut base: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(99);
        for a in 0..NODES {
            for b in (a + 1)..NODES {
                if rng.random_bool(0.7) {
                    base.insert((a, b), f64::from(rng.random_range(1u32..6)));
                }
            }
        }
        let program = programs::shortest_path("");
        let mut eval = Evaluator::new(&program).unwrap();
        load(&mut eval, &base);
        eval.run(strategy).unwrap();
        for (&(a, b), &c) in &base {
            apply(&mut eval, false, a, b, c);
        }
        for relation in ["path", "spCost", "shortestPath"] {
            assert!(
                eval.results(relation).is_empty(),
                "{strategy:?}: {relation} retained tuples after full teardown"
            );
        }
    }
}

#[test]
fn batched_bursts_match_from_scratch() {
    // The same churn model, but each burst enters the engine as *one*
    // delta batch (`Evaluator::update_batch`) instead of one update per
    // delta — the shape one simulator epoch delivers to a node. All of a
    // burst's removals seed DRed passes interleaved with the batch's
    // insertions, and the result must still equal a from-scratch oracle
    // after every burst, for every initial strategy.
    let strategies = [
        Strategy::SemiNaive,
        Strategy::Buffered { batch: 2 },
        Strategy::Pipelined,
    ];
    for case in cases() {
        for strategy in strategies {
            for seed in [11u64, 0xba7c4, 2027] {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut base = random_base(&mut rng, 0.6);
                let mut incremental = Evaluator::new(&case.program).unwrap();
                load(&mut incremental, &base);
                incremental.run(strategy).unwrap();

                for round in 0..BURSTS {
                    let mut deltas = Vec::new();
                    for (insert, a, b, c) in burst(&mut rng, &mut base) {
                        for (s, d) in [(a, b), (b, a)] {
                            deltas.push(if insert {
                                TupleDelta::insert("link", link(s, d, c))
                            } else {
                                TupleDelta::delete("link", link(s, d, c))
                            });
                        }
                    }
                    incremental.update_batch(deltas).unwrap();
                    let context = format!(
                        "{}, seed {seed}, {strategy:?}, batched burst {round}",
                        case.best.0
                    );
                    case.assert_matches_oracle(&incremental, &base, &context);
                }
            }
        }
    }
}

/// The directed links of a seeded overlay, at their Random-metric cost
/// (uniform floats: no two routes tie, so whole stores compare exactly).
fn overlay_links(underlay: &TransitStubConfig, neighbors_per_node: usize) -> Vec<Tuple> {
    let config = OverlayConfig {
        neighbors_per_node,
        ..OverlayConfig::default()
    };
    let overlay = Overlay::random_neighbors(&generate(underlay).topology, &config);
    let links = overlay.links();
    let tuple = |l: &ndlog_net::overlay::OverlayLink| {
        Tuple::new(vec![
            Value::Addr(l.src),
            Value::Addr(l.dst),
            Value::Float(l.cost(Metric::Random)),
        ])
    };
    links.iter().map(tuple).collect()
}

/// Load `links` in batches of `width` facts, each run to fixpoint under
/// `strategy`; the evaluator and the summed statistics of the runs.
fn bulk_load(
    program: &Program,
    links: &[Tuple],
    width: usize,
    strategy: Strategy,
) -> (Evaluator, EvalStats) {
    let mut eval = Evaluator::new(program).unwrap();
    let mut total = EvalStats::default();
    for batch in links.chunks(width) {
        for link in batch {
            eval.insert_fact("link", link.clone());
        }
        total += eval.run(strategy).unwrap();
    }
    (eval, total)
}

#[test]
fn bulk_load_costs_what_loading_link_by_link_costs() {
    // A bulk load is every link's insertion cascade, and `bestCost` /
    // `bestRoute` / `shortestPath` replace their keyed winners all the way
    // through it. The loop used to fire the whole queue ahead, drop every
    // firing past the first replacement and fire the remainder again —
    // quadratic in the load. Join work is a deterministic count, so the
    // bound is on the count: one batch may cost at most twice the same
    // links loaded one at a time (which never had anything to discard).
    let tiny = TransitStubConfig {
        transit_nodes: 1,
        stubs_per_transit: 1,
        nodes_per_stub: 5,
        ..TransitStubConfig::small()
    };
    let inputs = [
        // All cycle-free paths: six nodes is what the centralized
        // evaluator enumerates in test time.
        (programs::shortest_path(""), overlay_links(&tiny, 2)),
        (
            programs::distance_vector("", 2),
            overlay_links(&TransitStubConfig::small(), 4),
        ),
        (
            programs::distance_vector("", 2),
            overlay_links(&TransitStubConfig::medium(), 4),
        ),
    ];
    let strategies = [
        Strategy::Pipelined,
        Strategy::SemiNaive,
        Strategy::Buffered { batch: 3 },
    ];
    for (program, links) in &inputs {
        for strategy in strategies {
            let (batched, batch_stats) = bulk_load(program, links, links.len(), strategy);
            let (single, single_stats) = bulk_load(program, links, 1, strategy);
            let query = &program.queries[0].name;
            let context = format!("{query}, {} links, {strategy:?}", links.len());
            let names: Vec<&str> = batched.store().relation_names().collect();
            assert_eq!(names, single.store().relation_names().collect::<Vec<_>>());
            for relation in names {
                assert_eq!(
                    batched.results(relation),
                    single.results(relation),
                    "{context}: {relation} depends on how the links were batched"
                );
            }
            let work = |s: EvalStats| s.logical_probes + s.tuples_examined;
            assert!(
                work(batch_stats) <= 2 * work(single_stats),
                "{context}: one batch cost {} probes + examined tuples, link by link {}",
                work(batch_stats),
                work(single_stats)
            );
        }
    }
}

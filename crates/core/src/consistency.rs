//! Consistency checks: distributed results versus the centralized
//! evaluator.
//!
//! Theorem 4 of the paper states that, with FIFO links, pipelined
//! semi-naive evaluation in the distributed setting reaches the same
//! fixpoint that would be computed from the quiesced base state. These
//! helpers compare a [`DistributedEngine`]'s gathered results against a
//! fresh centralized [`Evaluator`] run over the same (final) base facts,
//! which is how the integration tests validate the distributed engine and
//! how the negative test (non-FIFO links) demonstrates the precondition
//! matters.

use crate::engine::DistributedEngine;
use crate::node::NodeEngine;
use ndlog_lang::Program;
use ndlog_net::NodeAddr;
use ndlog_runtime::{Evaluator, Strategy, Tuple};
use std::collections::BTreeSet;

/// Run `program` centrally over `base_facts` (relation name, tuple) and
/// compare relation `relation` against the union of the distributed
/// engine's per-node stores. Returns `Ok(count)` with the number of result
/// tuples when the sets match, or a description of the difference.
pub fn check_against_centralized(
    engine: &DistributedEngine,
    program: &Program,
    base_facts: &[(String, Tuple)],
    relation: &str,
) -> Result<usize, String> {
    let mut evaluator = Evaluator::new(program).map_err(|e| format!("planning failed: {e}"))?;
    for (rel, tuple) in base_facts {
        evaluator.insert_fact(rel, tuple.clone());
    }
    evaluator
        .run(Strategy::Pipelined)
        .map_err(|e| format!("centralized evaluation failed: {e}"))?;

    let central: BTreeSet<Tuple> = evaluator.results(relation).into_iter().collect();
    let distributed: BTreeSet<Tuple> = engine
        .results(relation)
        .into_iter()
        .map(|(_, t)| t)
        .collect();

    if central == distributed {
        return Ok(central.len());
    }
    let missing: Vec<String> = central
        .difference(&distributed)
        .take(5)
        .map(|t| t.to_string())
        .collect();
    let extra: Vec<String> = distributed
        .difference(&central)
        .take(5)
        .map(|t| t.to_string())
        .collect();
    Err(format!(
        "relation {relation}: centralized has {} tuples, distributed has {}; \
         missing from distributed: [{}]; unexpected in distributed: [{}]",
        central.len(),
        distributed.len(),
        missing.join(", "),
        extra.join(", ")
    ))
}

/// Check that two engines reached *bit-for-bit identical* states: same
/// nodes, same stores (every relation's tuples with their derivation
/// counts, timestamps and expiry times), same per-node evaluation
/// statistics and aggregate-selection counters (pruned and superseded
/// tuples), same network statistics (the full per-send message trace),
/// same fault counters and same result logs.
///
/// This is the oracle of the parallel-executor determinism tests: an
/// engine run with `parallelism = N` must pass against the same scenario
/// run sequentially. It is intentionally much stricter than
/// [`check_against_centralized`], which only compares result sets.
pub fn check_bitwise_identical(a: &DistributedEngine, b: &DistributedEngine) -> Result<(), String> {
    let a_nodes: Vec<NodeAddr> = a.nodes().map(|(addr, _)| addr).collect();
    let b_nodes: Vec<NodeAddr> = b.nodes().map(|(addr, _)| addr).collect();
    if a_nodes != b_nodes {
        return Err(format!(
            "node sets differ: {} vs {} nodes",
            a_nodes.len(),
            b_nodes.len()
        ));
    }
    for ((addr, node_a), (_, node_b)) in a.nodes().zip(b.nodes()) {
        if node_a.eval_stats() != node_b.eval_stats() {
            return Err(format!(
                "evaluation statistics differ at node {addr}: {:?} vs {:?}",
                node_a.eval_stats(),
                node_b.eval_stats()
            ));
        }
        let selection_counts = |node: &NodeEngine| (node.pruned(), node.superseded());
        if selection_counts(node_a) != selection_counts(node_b) {
            return Err(format!(
                "aggregate-selection counters (pruned, superseded) differ at node {addr}: \
                 {:?} vs {:?}",
                selection_counts(node_a),
                selection_counts(node_b)
            ));
        }
        let store_a = node_a.store();
        let store_b = node_b.store();
        if store_a.current_seq() != store_b.current_seq() {
            return Err(format!(
                "store timestamp counters differ at node {addr}: {} vs {}",
                store_a.current_seq(),
                store_b.current_seq()
            ));
        }
        let names_a: Vec<&str> = store_a.relation_names().collect();
        let names_b: Vec<&str> = store_b.relation_names().collect();
        if names_a != names_b {
            return Err(format!("relation sets differ at node {addr}"));
        }
        for name in names_a {
            let rel_a = store_a.relation(name).expect("listed relation");
            let rel_b = store_b.relation(name).expect("listed relation");
            let tuples_a: Vec<_> = rel_a.iter().collect();
            let tuples_b: Vec<_> = rel_b.iter().collect();
            if tuples_a != tuples_b {
                return Err(format!(
                    "relation {name} differs at node {addr}: {} vs {} tuples \
                     (or mismatched counts/timestamps/expiries)",
                    tuples_a.len(),
                    tuples_b.len()
                ));
            }
        }
    }
    if a.stats() != b.stats() {
        return Err(format!(
            "network statistics differ: {} msgs / {} bytes vs {} msgs / {} bytes \
             (or a reordered send trace)",
            a.stats().message_count(),
            a.stats().total_bytes(),
            b.stats().message_count(),
            b.stats().total_bytes()
        ));
    }
    if a.fault_stats() != b.fault_stats() {
        return Err(format!(
            "fault statistics differ: {:?} vs {:?}",
            a.fault_stats(),
            b.fault_stats()
        ));
    }
    if a.result_log() != b.result_log() {
        return Err(format!(
            "result logs differ: {} vs {} records",
            a.result_log().len(),
            b.result_log().len()
        ));
    }
    Ok(())
}

/// Check that every result tuple is stored at the node named by its
/// location specifier — the invariant that NDlog data placement is honored.
pub fn check_location_placement(
    engine: &DistributedEngine,
    relation: &str,
) -> Result<usize, String> {
    let mut count = 0;
    for (node, tuple) in engine.results(relation) {
        match tuple.location() {
            Some(loc) if loc == node => count += 1,
            Some(loc) => {
                return Err(format!(
                    "tuple {tuple} of {relation} is stored at {node} but its location specifier is {loc}"
                ))
            }
            None => {
                return Err(format!(
                    "tuple {tuple} of {relation} has a non-address location specifier"
                ))
            }
        }
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::node::NodeConfig;
    use crate::plan::plan;
    use ndlog_lang::{programs, Value};
    use ndlog_net::sim::ms;
    use ndlog_net::topology::{LinkMetrics, Topology};
    use ndlog_net::FaultPlan;

    fn link_tuple(s: u32, d: u32, c: f64) -> Tuple {
        Tuple::new(vec![Value::addr(s), Value::addr(d), Value::Float(c)])
    }

    fn run_diamond(aggregate_selections: bool) -> (DistributedEngine, Vec<(String, Tuple)>) {
        run_diamond_with(EngineConfig {
            node: NodeConfig {
                aggregate_selections,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    fn run_diamond_with(config: EngineConfig) -> (DistributedEngine, Vec<(String, Tuple)>) {
        let mut graph = Topology::with_nodes(4);
        let edges = [(0u32, 1u32, 5.0), (0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)];
        for &(a, b, _) in &edges {
            graph
                .add_link(NodeAddr(a), NodeAddr(b), LinkMetrics::uniform())
                .unwrap();
        }
        let plan = plan(&programs::shortest_path("")).unwrap();
        let mut engine = DistributedEngine::new(graph, &[plan], config).unwrap();
        let mut base = Vec::new();
        for (a, b, c) in edges {
            for (s, d) in [(a, b), (b, a)] {
                let t = link_tuple(s, d, c);
                engine.insert_base(NodeAddr(s), "link", t.clone()).unwrap();
                base.push(("link".to_string(), t));
            }
        }
        engine.run_to_quiescence().unwrap();
        (engine, base)
    }

    #[test]
    fn distributed_matches_centralized_fixpoint() {
        let (engine, base) = run_diamond(false);
        let program = programs::shortest_path("");
        let count = check_against_centralized(&engine, &program, &base, "shortestPath").unwrap();
        assert_eq!(count, 12);
    }

    #[test]
    fn distributed_with_selections_still_matches_on_static_network() {
        let (engine, base) = run_diamond(true);
        let program = programs::shortest_path("");
        let count = check_against_centralized(&engine, &program, &base, "shortestPath").unwrap();
        assert_eq!(count, 12);
    }

    /// A partition whose side is every node cuts nothing, so a run that
    /// carries it matches a run without it in everything but the fault
    /// ledger, where the partition counts as healed; the identity check
    /// must still tell the two apart.
    #[test]
    fn bitwise_identity_compares_the_fault_ledger() {
        let (plain, _) = run_diamond_with(EngineConfig::default());
        let everyone = (0..4).map(NodeAddr);
        let (cut_nothing, _) = run_diamond_with(EngineConfig {
            fault: Some(FaultPlan::new(1).with_partition(0, ms(1.0), everyone)),
            ..Default::default()
        });
        assert_eq!(plain.stats(), cut_nothing.stats());
        assert_eq!(cut_nothing.fault_stats().partitions_healed, 1);
        let err = check_bitwise_identical(&plain, &cut_nothing).unwrap_err();
        assert!(err.starts_with("fault statistics differ"), "{err}");
    }

    /// A path no better than node 0's route to node 3 is pruned on
    /// arrival: it changes no store, statistic or message, so only the
    /// selection counters tell the two runs apart.
    #[test]
    fn bitwise_identity_compares_the_selection_counters() {
        let (plain, _) = run_diamond(true);
        let (mut pruned_one, _) = run_diamond(true);
        let a = |i: u32| Value::addr(i);
        let vector = Value::list(vec![a(0), a(1), a(3)]);
        let worse = Tuple::new(vec![a(0), a(3), a(1), vector, Value::Float(99.0)]);
        pruned_one.insert_base(NodeAddr(0), "path", worse).unwrap();
        assert_eq!(plain.stats(), pruned_one.stats());
        assert_eq!(pruned_one.pruned_total(), plain.pruned_total() + 1);
        let err = check_bitwise_identical(&plain, &pruned_one).unwrap_err();
        assert!(err.starts_with("aggregate-selection counters"), "{err}");
    }

    #[test]
    fn placement_invariant_holds() {
        let (engine, _) = run_diamond(true);
        assert_eq!(
            check_location_placement(&engine, "shortestPath").unwrap(),
            12
        );
        assert!(check_location_placement(&engine, "path").unwrap() > 0);
    }

    /// Source routing whose aggregate rule is guarded by `magicDst(@D)`:
    /// the planner splits SD3, keeps the aggregate selection inferred on
    /// `pathDst`, and the network matches the centralized fixpoint with the
    /// guard seeded before the run, added after it and deleted again.
    #[test]
    fn a_guarded_aggregate_rule_matches_the_centralized_fixpoint() {
        let program = ndlog_lang::parse_program(
            "materialize(link, keys(1,2)).
             materialize(pathDst, keys(1,2,4)).
             materialize(shortestPath, keys(1,2)).
             sd1 pathDst(@D,@S,@D,P,C) :- #link(@S,@D,C), P := f_append(f_cons(S, nil), D).
             sd2 pathDst(@D,@S,@Z,P,C) :- #link(@Z,@D,C2), pathDst(@Z,@S,@Z1,P1,C1),
                 f_member(P1, D) == 0, C := C1 + C2, P := f_append(P1, D).
             sd3 spCost(@D,@S,min<C>) :- magicDst(@D), pathDst(@D,@S,@Z,P,C).
             sd4 shortestPath(@D,@S,P,C) :- spCost(@D,@S,C), pathDst(@D,@S,@Z,P,C).",
        )
        .unwrap();
        let plan = plan(&program).unwrap();
        assert_eq!(plan.selections.len(), 1);
        assert_eq!(plan.selections[0].relation, "pathDst");
        assert_eq!(plan.views[0].source_relation(), "spCost_sd3_ag");

        let mut graph = Topology::with_nodes(4);
        let edges = [(0u32, 1u32, 5.0), (0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)];
        for &(a, b, _) in &edges {
            graph
                .add_link(NodeAddr(a), NodeAddr(b), LinkMetrics::uniform())
                .unwrap();
        }
        let config = EngineConfig {
            node: NodeConfig {
                aggregate_selections: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = DistributedEngine::new(graph, &[plan], config).unwrap();
        let mut base = Vec::new();
        for (a, b, c) in edges {
            for (s, d) in [(a, b), (b, a)] {
                let t = link_tuple(s, d, c);
                engine.insert_base(NodeAddr(s), "link", t.clone()).unwrap();
                base.push(("link".to_string(), t));
            }
        }
        let magic = |d: u32| Tuple::new(vec![Value::addr(d)]);
        engine
            .insert_base(NodeAddr(1), "magicDst", magic(1))
            .unwrap();
        base.push(("magicDst".to_string(), magic(1)));
        engine.run_to_quiescence().unwrap();
        let check = |engine: &DistributedEngine, base: &[(String, Tuple)]| {
            check_against_centralized(engine, &program, base, "spCost").unwrap();
            check_against_centralized(engine, &program, base, "shortestPath").unwrap()
        };
        assert_eq!(check(&engine, &base), 3);

        // A guard seeded after the paths to node 3 have converged.
        engine
            .insert_base(NodeAddr(3), "magicDst", magic(3))
            .unwrap();
        base.push(("magicDst".to_string(), magic(3)));
        engine.run_to_quiescence().unwrap();
        assert_eq!(check(&engine, &base), 6);

        // A guard deleted again retracts its destination's results.
        engine
            .delete_base(NodeAddr(1), "magicDst", magic(1))
            .unwrap();
        base.retain(|(relation, t)| !(relation == "magicDst" && *t == magic(1)));
        engine.run_to_quiescence().unwrap();
        assert_eq!(check(&engine, &base), 3);
        assert!(engine.pruned_total() > 0);
    }

    #[test]
    fn mismatch_is_reported() {
        let (engine, base) = run_diamond(false);
        // Compare against a *different* base set (the 1-3 links missing, so
        // node 3 is unreachable centrally): the check must fail and
        // describe the difference.
        let program = programs::shortest_path("");
        let smaller: Vec<_> = base.iter().take(base.len() - 2).cloned().collect();
        let err =
            check_against_centralized(&engine, &program, &smaller, "shortestPath").unwrap_err();
        assert!(err.contains("shortestPath"));
    }
}

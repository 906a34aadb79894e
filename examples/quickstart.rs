//! Quickstart: parse an NDlog program, plan it, and run it on a small
//! simulated network.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The program is the paper's all-pairs shortest-path query (Figure 1,
//! rules SP1-SP4). We build the 5-node example network of Figure 2, run the
//! query with the distributed engine, and print every node's shortest
//! paths together with the communication the computation cost.

use ndlog_core::{plan, DistributedEngine, EngineConfig};
use ndlog_lang::{parse_program, validate, Value};
use ndlog_net::topology::{LinkMetrics, Topology};
use ndlog_net::NodeAddr;
use ndlog_runtime::Tuple;

fn main() {
    // 1. Write the NDlog program (location specifiers with `@`, a link
    //    literal with `#`, an aggregate head `min<C>`).
    let source = r#"
        materialize(link, keys(1,2)).
        materialize(path, keys(1,2,4)).
        materialize(spCost, keys(1,2)).
        materialize(shortestPath, keys(1,2)).

        sp1 path(@S,@D,@D,P,C) :- #link(@S,@D,C),
            P := f_cons(S, f_cons(D, nil)).
        sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
            f_member(P2, S) == 0, C := C1 + C2, P := f_cons(S, P2).
        sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).
        sp4 shortestPath(@S,@D,P,C) :- spCost(@S,@D,C), path(@S,@D,@Z,P,C).

        query shortestPath(@S,@D,P,C).
    "#;

    // 2. Parse and validate against the NDlog constraints (Definition 6).
    let program = parse_program(source).expect("the program parses");
    let violations = validate(&program);
    assert!(
        violations.is_empty(),
        "NDlog constraints violated: {violations:?}"
    );

    // 3. Plan: localization (Algorithm 2), semi-naive strands, aggregate
    //    views and aggregate selections.
    let plan = plan(&program).expect("the program plans");
    let rederive = plan.strands.iter().filter(|s| s.is_rederivation()).count();
    println!(
        "planned {} rule strands, {rederive} re-derivation plan(s), {} aggregate view(s)",
        plan.strands.len() - rederive,
        plan.views.len()
    );

    // 4. Build the network of Figure 2: a-b (5), a-c (1), c-b (1), b-d (1),
    //    e-a (1). Addresses: a=0, b=1, c=2, d=3, e=4.
    let mut graph = Topology::with_nodes(5);
    let edges = [
        (0u32, 1u32, 5.0),
        (0, 2, 1.0),
        (2, 1, 1.0),
        (1, 3, 1.0),
        (4, 0, 1.0),
    ];
    for &(a, b, _) in &edges {
        graph
            .add_link(NodeAddr(a), NodeAddr(b), LinkMetrics::uniform())
            .expect("distinct edges");
    }

    // 5. Run it distributed: one engine per node, messages only along links.
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    let mut engine = DistributedEngine::new(graph, &[plan], config).expect("engine");
    for (a, b, c) in edges {
        for (s, d) in [(a, b), (b, a)] {
            engine
                .insert_base(
                    NodeAddr(s),
                    "link",
                    Tuple::new(vec![Value::addr(s), Value::addr(d), Value::Float(c)]),
                )
                .expect("base insert");
        }
    }
    engine.run_to_quiescence().expect("run");

    // 6. Inspect the results: shortestPath tuples live at their source node.
    let names = ["a", "b", "c", "d", "e"];
    println!(
        "\nconverged in {:.3} s (simulated), {} messages, {:.1} kB total",
        engine.now_seconds(),
        engine.stats().message_count(),
        engine.stats().total_bytes() as f64 / 1000.0
    );
    let mut results = engine.results("shortestPath");
    results.sort_by_key(|(node, t)| (*node, t.get(1).cloned()));
    println!("\nshortest paths (stored at each source node):");
    for (node, tuple) in results {
        let dst = tuple.get(1).and_then(Value::as_addr).unwrap();
        let cost = tuple.get(3).and_then(|v| v.as_f64()).unwrap();
        let path: Vec<&str> = tuple
            .get(2)
            .and_then(Value::as_list)
            .unwrap()
            .iter()
            .filter_map(|v| v.as_addr())
            .map(|a| names[a.index()])
            .collect();
        println!(
            "  {} -> {}: cost {:>4}  via {}",
            names[node.index()],
            names[dst.index()],
            cost,
            path.join(" -> ")
        );
    }

    // The headline fact from Section 2.2: a reaches b via c with cost 2,
    // not over the direct cost-5 link.
    let a_to_b = engine
        .results("shortestPath")
        .into_iter()
        .find(|(n, t)| *n == NodeAddr(0) && t.get(1) == Some(&Value::addr(1u32)))
        .expect("a -> b result");
    assert_eq!(a_to_b.1.get(3), Some(&Value::Float(2.0)));
    println!("\nok: a reaches b via c with cost 2 (not the direct cost-5 link)");
}

//! Centralized evaluation strategies: SN, BSN and PSN (Section 3).
//!
//! The [`Evaluator`] runs a complete NDlog program on a single node,
//! ignoring locations (every relation is local). It is a wrapper over
//! [`crate::fixpoint`] — the same loop every distributed node runs — with
//! no site and no aggregate selections, so nothing is shipped or pruned,
//! and exists for three purposes:
//!
//! 1. as the reference implementation against which the distributed engine
//!    is checked (Theorem 1: PSN computes the same fixpoint as SN);
//! 2. to compare the three evaluation strategies of Section 3 — classic
//!    **semi-naive** (Algorithm 1), **buffered semi-naive** (which may
//!    defer any buffered tuple to a later local iteration) and **pipelined
//!    semi-naive** (Algorithm 3, one tuple at a time with timestamp-guarded
//!    joins) — including the duplicate-inference bookkeeping of Theorem 2;
//! 3. to exercise incremental updates (insertions, deletions, updates of
//!    base tuples) against a quiesced store, the centralized half of the
//!    eventual-consistency argument (Theorem 3).

use crate::aggview::AggregateView;
use crate::batch::EvalBuffers;
use crate::dred::rederivation_plan;
use crate::expr::EvalError;
use crate::fixpoint::LocalFixpoint;
use crate::index::EvalStats;
use crate::store::Store;
use crate::strand::CompiledStrand;
use crate::tuple::{Tuple, TupleDelta};
use ndlog_lang::aggsplit::split_aggregates;
use ndlog_lang::seminaive::delta_rewrite_full;
use ndlog_lang::{Program, Rule, Term};
use std::sync::Arc;

pub use crate::fixpoint::Strategy;

/// A program compiled for evaluation: what [`Evaluator::new`] and
/// `ndlog-core`'s planner build a site from.
pub struct Compiled {
    /// The program every aggregate rule of which is in normal form
    /// ([`ndlog_lang::aggsplit`]): the input with each other aggregate rule
    /// split in two. A store is built for this program.
    pub program: Program,
    /// A store for `program`, its schema checked by [`Store::add_program`].
    pub store: Store,
    /// What fires for the plain rules, compiled once per program and shared
    /// by every site running it: the strands of the full delta rewrite,
    /// then one re-derivation plan per rule.
    pub strands: Vec<CompiledStrand>,
    /// One incremental view per aggregate rule.
    pub views: Vec<Arc<AggregateView>>,
}

/// Compile a program: split its aggregate rules into normal form
/// ([`ndlog_lang::aggsplit::split_aggregates`]), build and check a store
/// for the split program, and compile every aggregate rule into a view and
/// every other rule into the strands of the full delta rewrite and one
/// re-derivation plan. Fails when the split, the store's schema checks or
/// a view refuses the program.
pub fn compile(program: &Program) -> Result<Compiled, String> {
    let program = split_aggregates(program)?;
    let store = Store::for_program(&program)?;
    let (aggregates, plain): (Vec<&Rule>, Vec<&Rule>) =
        program.rules.iter().partition(|r| r.head.has_aggregate());
    let views = aggregates
        .into_iter()
        .map(|rule| AggregateView::from_rule(rule).map(Arc::new))
        .collect::<Result<_, String>>()?;
    let forward = delta_rewrite_full(&program).into_iter();
    let forward = forward.filter(|delta| !delta.rule.head.has_aggregate());
    let rederive = plain.into_iter().filter(|rule| !rule.is_fact());
    let rederive = rederive.map(|rule| rederivation_plan(&program, rule));
    let strands = forward.map(CompiledStrand::new).chain(rederive).collect();
    Ok(Compiled {
        program,
        store,
        strands,
        views,
    })
}

/// A single-node NDlog evaluator.
pub struct Evaluator {
    fixpoint: LocalFixpoint,
    /// The buffers every run of this one engine evaluates in.
    buffers: EvalBuffers,
    /// Facts declared in the program, loaded at construction.
    base_facts: Vec<TupleDelta>,
}

impl Evaluator {
    /// Build an evaluator for a program ([`compile`]): aggregate rules
    /// become incremental views, every other rule a set of strands.
    pub fn new(program: &Program) -> Result<Self, String> {
        let Compiled {
            store,
            strands,
            views,
            ..
        } = compile(program)?;

        let base_facts = program
            .rules
            .iter()
            .filter(|r| r.is_fact())
            .map(|r| {
                let constant = |term: &Term| match term {
                    Term::Const(c) => Ok(c.clone()),
                    _ => Err(format!("fact {} is not ground: {term}", r.label)),
                };
                let tuple = r.head.args.iter().map(constant).collect::<Result<_, _>>()?;
                Ok(TupleDelta::insert(r.head.name.clone(), tuple))
            })
            .collect::<Result<Vec<_>, String>>()?;

        Ok(Evaluator {
            fixpoint: LocalFixpoint::new(store, Arc::new(strands), views, None, Vec::new())?,
            buffers: EvalBuffers::default(),
            base_facts,
        })
    }

    /// The live-query delta tap (subscribe/unsubscribe relations).
    pub fn tap(&self) -> &crate::tap::DeltaTap {
        self.fixpoint.tap()
    }

    /// Mutable access to the delta tap.
    pub fn tap_mut(&mut self) -> &mut crate::tap::DeltaTap {
        self.fixpoint.tap_mut()
    }

    /// Take the visibility transitions recorded since the last drain, in
    /// store order.
    pub fn drain_tap(&mut self) -> Vec<TupleDelta> {
        self.fixpoint.tap_mut().drain()
    }

    /// Advance the logical clock (for soft-state expiry).
    pub fn set_time(&mut self, now_micros: u64) {
        self.fixpoint.set_time(now_micros);
    }

    /// Expire soft-state tuples; the retractions cascade on the next
    /// [`Evaluator::update`] / [`Evaluator::update_batch`] / [`Evaluator::run`].
    pub fn expire_soft_state(&mut self, now_micros: u64) {
        self.fixpoint.expire_soft_state(now_micros);
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        self.fixpoint.store()
    }

    /// Mutable access to the store (e.g. to pre-load base tuples).
    pub fn store_mut(&mut self) -> &mut Store {
        self.fixpoint.store_mut()
    }

    /// The compiled strands (useful for inspection in tests).
    pub fn strands(&self) -> &[CompiledStrand] {
        self.fixpoint.strands()
    }

    /// The aggregate views, one per aggregate rule: each derives its head
    /// relation alone.
    pub fn views(&self) -> &[Arc<AggregateView>] {
        self.fixpoint.views()
    }

    /// All tuples of a relation.
    pub fn results(&self, relation: &str) -> Vec<Tuple> {
        self.store().tuples(relation)
    }

    /// Buffer a base fact for the next [`Evaluator::run`] (does not run
    /// evaluation).
    pub fn insert_fact(&mut self, relation: &str, tuple: Tuple) {
        self.base_facts.push(TupleDelta::insert(relation, tuple));
    }

    /// Run the program to fixpoint from the currently loaded base facts.
    pub fn run(&mut self, strategy: Strategy) -> Result<EvalStats, EvalError> {
        let pending = std::mem::take(&mut self.base_facts);
        self.process(pending, strategy)
    }

    /// Apply an external update (insertion or deletion of a base tuple) to
    /// a quiesced store and run incremental maintenance to fixpoint using
    /// PSN — the centralized update handling of Section 4.1.
    pub fn update(&mut self, delta: TupleDelta) -> Result<EvalStats, EvalError> {
        self.process(vec![delta], Strategy::Pipelined)
    }

    /// Apply a whole burst of external updates at once and run incremental
    /// maintenance to fixpoint using PSN. Equivalent to applying the
    /// deltas one [`Evaluator::update`] at a time, but the burst enters
    /// the engine as one delta batch: removals seed a single DRed pass and
    /// insertions amortize their strand firings — the churn shape one
    /// simulator epoch delivers to a node. The batch is ingested as its net
    /// change ([`LocalFixpoint::ingest_batch`]): a stored hard-state tuple
    /// the burst deletes and then re-inserts, with nothing else under its
    /// key in between, is left alone — no store write, no tap transition,
    /// no DRed pass — where one update at a time would remove it, cascade
    /// the removal and derive it all again.
    pub fn update_batch(&mut self, deltas: Vec<TupleDelta>) -> Result<EvalStats, EvalError> {
        self.process(deltas, Strategy::Pipelined)
    }

    /// Ingest the external deltas as one batch and run to fixpoint; the
    /// statistics of this call alone are returned.
    fn process(
        &mut self,
        mut external: Vec<TupleDelta>,
        strategy: Strategy,
    ) -> Result<EvalStats, EvalError> {
        let before = self.fixpoint.stats();
        let batch = std::slice::from_mut(&mut external);
        self.fixpoint.ingest_batch(batch, |_, _| {});
        self.fixpoint.run(strategy, &mut self.buffers)?;
        Ok(self.fixpoint.stats() - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Sign;
    use ndlog_lang::{parse_program, programs, Value};
    use ndlog_net::NodeAddr;
    use std::collections::BTreeSet;

    fn addr(i: u32) -> Value {
        Value::addr(i)
    }

    fn link(s: u32, d: u32, c: f64) -> Tuple {
        Tuple::new(vec![addr(s), addr(d), Value::Float(c)])
    }

    /// Load the bidirectional links of a small diamond network:
    ///   0 -5- 1, 0 -1- 2, 2 -1- 1, 1 -1- 3   (Figure 2's shape).
    fn load_figure2_links(eval: &mut Evaluator, relation: &str) {
        let edges = [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)];
        for (a, b, c) in edges {
            eval.insert_fact(relation, link(a, b, c));
            eval.insert_fact(relation, link(b, a, c));
        }
    }

    fn shortest_path_results(strategy: Strategy) -> (Vec<Tuple>, EvalStats) {
        let program = programs::shortest_path("");
        let mut eval = Evaluator::new(&program).unwrap();
        load_figure2_links(&mut eval, "link");
        let stats = eval.run(strategy).unwrap();
        (eval.results("shortestPath"), stats)
    }

    #[test]
    fn shortest_paths_match_dijkstra_shape() {
        let (results, stats) = shortest_path_results(Strategy::Pipelined);
        assert!(stats.derivations > 0);
        // 4 nodes, all pairs reachable -> 12 shortest paths.
        assert_eq!(results.len(), 12);
        // Check a few known costs: 0 -> 1 goes via 2 with cost 2 (not the
        // direct 5-cost link), 0 -> 3 costs 3.
        let cost = |s: u32, d: u32| -> f64 {
            results
                .iter()
                .find(|t| t.get(0) == Some(&addr(s)) && t.get(1) == Some(&addr(d)))
                .and_then(|t| t.get(3))
                .and_then(Value::as_f64)
                .unwrap()
        };
        assert_eq!(cost(0, 1), 2.0);
        assert_eq!(cost(0, 2), 1.0);
        assert_eq!(cost(0, 3), 3.0);
        assert_eq!(cost(3, 0), 3.0, "symmetric because links are bidirectional");
        // The winning path vector for 0 -> 1 is [0, 2, 1].
        let path01 = results
            .iter()
            .find(|t| t.get(0) == Some(&addr(0)) && t.get(1) == Some(&addr(1)))
            .unwrap();
        assert_eq!(
            path01.get(2),
            Some(&Value::list(vec![addr(0), addr(2), addr(1)]))
        );
    }

    #[test]
    fn theorem1_all_strategies_agree() {
        let (psn, _) = shortest_path_results(Strategy::Pipelined);
        let (sn, _) = shortest_path_results(Strategy::SemiNaive);
        let (bsn1, _) = shortest_path_results(Strategy::Buffered { batch: 1 });
        let (bsn3, _) = shortest_path_results(Strategy::Buffered { batch: 3 });
        let as_set = |v: &[Tuple]| v.iter().cloned().collect::<BTreeSet<_>>();
        assert_eq!(as_set(&psn), as_set(&sn));
        assert_eq!(as_set(&psn), as_set(&bsn1));
        assert_eq!(as_set(&psn), as_set(&bsn3));
    }

    #[test]
    fn theorem2_psn_has_no_redundant_derivations_on_a_line() {
        // On a directed line 0 -> 1 -> 2 -> 3 every reachability fact has a
        // unique derivation, so a strategy with no repeated inferences must
        // report zero redundant derivations.
        let program = parse_program(
            r#"
            rc1 reach(@S,@D) :- #edge(@S,@D).
            rc2 reach(@S,@D) :- #edge(@S,@Z), reach(@Z,@D).
            "#,
        )
        .unwrap();
        let mut eval = Evaluator::new(&program).unwrap();
        for i in 0..3u32 {
            eval.insert_fact("edge", Tuple::new(vec![addr(i), addr(i + 1)]));
        }
        let stats = eval.run(Strategy::Pipelined).unwrap();
        assert_eq!(eval.results("reach").len(), 6);
        assert_eq!(stats.redundant_derivations, 0);
    }

    #[test]
    fn reachability_on_cycle_terminates() {
        let program = programs::reachability("");
        let mut eval = Evaluator::new(&program).unwrap();
        // Directed triangle 0 -> 1 -> 2 -> 0.
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 0)] {
            eval.insert_fact("link", link(a, b, 1.0));
        }
        eval.run(Strategy::Pipelined).unwrap();
        // All ordered pairs including self-loops through the cycle.
        assert_eq!(eval.results("reachable").len(), 9);
    }

    #[test]
    fn facts_in_program_text_are_loaded() {
        let program = parse_program(
            r#"
            f1 link(@n0, @n1, 1).
            f2 link(@n1, @n2, 1).
            rc1 reach(@S,@D) :- #link(@S,@D,C).
            rc2 reach(@S,@D) :- #link(@S,@Z,C), reach(@Z,@D).
            "#,
        )
        .unwrap();
        let mut eval = Evaluator::new(&program).unwrap();
        eval.run(Strategy::SemiNaive).unwrap();
        assert_eq!(eval.results("reach").len(), 3);
    }

    #[test]
    fn incremental_insertion_matches_from_scratch() {
        // Theorem 3 flavour: run, then insert a new link incrementally; the
        // result must equal running from scratch with all links present.
        let program = programs::shortest_path("");
        let mut incremental = Evaluator::new(&program).unwrap();
        load_figure2_links(&mut incremental, "link");
        incremental.run(Strategy::Pipelined).unwrap();
        // New links 3 - 4 appear after the initial fixpoint.
        incremental
            .update(TupleDelta::insert("link", link(3, 4, 1.0)))
            .unwrap();
        incremental
            .update(TupleDelta::insert("link", link(4, 3, 1.0)))
            .unwrap();

        let mut scratch = Evaluator::new(&program).unwrap();
        load_figure2_links(&mut scratch, "link");
        scratch.insert_fact("link", link(3, 4, 1.0));
        scratch.insert_fact("link", link(4, 3, 1.0));
        scratch.run(Strategy::Pipelined).unwrap();

        let a: BTreeSet<_> = incremental.results("shortestPath").into_iter().collect();
        let b: BTreeSet<_> = scratch.results("shortestPath").into_iter().collect();
        assert_eq!(a, b);
        // 5 nodes all-pairs.
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn incremental_deletion_matches_from_scratch() {
        let program = programs::shortest_path("");
        let mut incremental = Evaluator::new(&program).unwrap();
        load_figure2_links(&mut incremental, "link");
        incremental.run(Strategy::Pipelined).unwrap();
        // Delete the cheap 0 - 2 links: 0 -> 1 must revert to the direct
        // cost-5 link.
        incremental
            .update(TupleDelta::delete("link", link(0, 2, 1.0)))
            .unwrap();
        incremental
            .update(TupleDelta::delete("link", link(2, 0, 1.0)))
            .unwrap();

        let mut scratch = Evaluator::new(&program).unwrap();
        for (a, b, c) in [(0, 1, 5.0), (2, 1, 1.0), (1, 3, 1.0)] {
            scratch.insert_fact("link", link(a, b, c));
            scratch.insert_fact("link", link(b, a, c));
        }
        scratch.run(Strategy::Pipelined).unwrap();

        let a: BTreeSet<_> = incremental.results("shortestPath").into_iter().collect();
        let b: BTreeSet<_> = scratch.results("shortestPath").into_iter().collect();
        assert_eq!(a, b);
        let cost01 = a
            .iter()
            .find(|t| t.get(0) == Some(&addr(0)) && t.get(1) == Some(&addr(1)))
            .and_then(|t| t.get(3))
            .and_then(Value::as_f64)
            .unwrap();
        assert_eq!(cost01, 5.0);
    }

    #[test]
    fn update_is_delete_then_insert() {
        // Section 4: an update to a base tuple is a deletion followed by an
        // insertion. Updating link(0,1) from cost 5 to cost 1 changes the
        // shortest path 0 -> 1 to the direct link.
        let program = programs::shortest_path("");
        let mut eval = Evaluator::new(&program).unwrap();
        load_figure2_links(&mut eval, "link");
        eval.run(Strategy::Pipelined).unwrap();
        eval.update(TupleDelta::delete("link", link(0, 1, 5.0)))
            .unwrap();
        eval.update(TupleDelta::insert("link", link(0, 1, 0.5)))
            .unwrap();
        let results = eval.results("shortestPath");
        let best01 = results
            .iter()
            .find(|t| t.get(0) == Some(&addr(0)) && t.get(1) == Some(&addr(1)))
            .unwrap();
        assert_eq!(best01.get(3), Some(&Value::Float(0.5)));
        assert_eq!(best01.get(2), Some(&Value::list(vec![addr(0), addr(1)])));
    }

    #[test]
    fn distance_vector_program_runs() {
        let program = programs::distance_vector("", 8);
        let mut eval = Evaluator::new(&program).unwrap();
        load_figure2_links(&mut eval, "link");
        eval.run(Strategy::Pipelined).unwrap();
        let best = eval.results("bestRoute");
        // 12 proper all-pairs routes plus 4 self-routes (the program bounds
        // recursion by hop count rather than a path-vector cycle check, so
        // round trips like 0 -> 1 -> 0 are legitimate derivations).
        assert_eq!(best.len(), 16);
        // bestRoute(0, 1, nexthop=2, cost=2): next hop goes through node 2.
        let b01 = best
            .iter()
            .find(|t| t.get(0) == Some(&addr(0)) && t.get(1) == Some(&addr(1)))
            .unwrap();
        assert_eq!(b01.get(2), Some(&addr(2)));
    }

    #[test]
    fn stats_are_populated() {
        let (_, stats) = shortest_path_results(Strategy::SemiNaive);
        assert!(stats.iterations >= 2);
        assert!(stats.tuples_processed > 0);
        assert!(stats.derivations >= stats.redundant_derivations);
        let (_, psn_stats) = shortest_path_results(Strategy::Pipelined);
        assert!(psn_stats.iterations == psn_stats.tuples_processed);
    }

    #[test]
    fn a_failed_run_hands_its_buffers_back_empty() {
        // The head variable X is never bound: firing the strand fails
        // after the rows of both triggers were built.
        let program = parse_program("r1 out(@S, X) :- q(@S, C).").unwrap();
        let mut failing = Evaluator::new(&program).unwrap();
        for i in 0..2u32 {
            failing.insert_fact("q", Tuple::new(vec![addr(i), Value::Int(1)]));
        }
        assert!(matches!(
            failing.run(Strategy::SemiNaive),
            Err(EvalError::UnboundVariable(v)) if v == "X"
        ));
        assert!(failing.buffers.holds_only_capacity());

        // An engine lent those buffers next evaluates exactly like one
        // with buffers of its own.
        let run = |buffers: EvalBuffers| {
            let mut eval = Evaluator::new(&programs::shortest_path("")).unwrap();
            eval.buffers = buffers;
            load_figure2_links(&mut eval, "link");
            let stats = eval.run(Strategy::Pipelined).unwrap();
            assert!(eval.buffers.holds_only_capacity());
            (eval.results("shortestPath"), eval.results("path"), stats)
        };
        let lent = run(std::mem::take(&mut failing.buffers));
        assert_eq!(lent, run(EvalBuffers::default()));
        assert_eq!(lent.0.len(), 12);
    }

    #[test]
    fn bound_joins_examine_o_matches_not_o_n() {
        // A 1000-tuple `big` relation joined on a bound column: the probe
        // plan must examine only the matching tuples, not the whole
        // relation per trigger.
        let program = parse_program(
            r#"
            j1 out(@S, V) :- probe(@S), big(@S, V).
            "#,
        )
        .unwrap();
        let mut eval = Evaluator::new(&program).unwrap();
        // 1000 tuples spread over 100 groups: 10 matches per group.
        for i in 0..1000u32 {
            eval.insert_fact(
                "big",
                Tuple::new(vec![addr(i % 100), Value::Int(i64::from(i))]),
            );
        }
        eval.run(Strategy::Pipelined).unwrap();

        let stats = eval
            .update(TupleDelta::insert("probe", Tuple::new(vec![addr(7)])))
            .unwrap();
        assert_eq!(eval.results("out").len(), 10);
        assert!(stats.logical_probes >= 1, "the bound join must probe");
        assert!(
            stats.distinct_probes <= stats.logical_probes,
            "grouping can only shrink executed probes"
        );
        assert!(
            stats.tuples_examined <= 30,
            "examined {} tuples for 10 matches on a 1000-tuple relation — \
             the join scanned instead of probing",
            stats.tuples_examined
        );
        // The strand triggered by `big` insertions joins `probe` (bound on
        // @S) the other way; nothing in this program ever needs a full scan.
        assert_eq!(stats.scans, 0, "no join should fall back to scanning");
    }

    #[test]
    fn rederivation_does_not_double_count() {
        // Regression: rederivation must not count a derivation that an
        // applied-but-unfired queued insert will also produce. Both `t`
        // and `out` are keyed so replacements make their counts lossy;
        // after all base tuples are deleted, nothing may survive.
        let program = parse_program(
            r#"
            materialize(t, keys(1)).
            materialize(out, keys(1)).
            a t(@S, C) :- p(@S, C).
            b t(@S, C) :- q(@S, C).
            c out(@S, C) :- t(@S, C).
            d out(@S, C) :- r(@S, C).
            "#,
        )
        .unwrap();
        let mut eval = Evaluator::new(&program).unwrap();
        let fact = |v: i64| Tuple::new(vec![addr(1), Value::Int(v)]);
        eval.insert_fact("p", fact(5));
        eval.run(Strategy::Pipelined).unwrap();
        // Make `out` lossy (r(1,9) replaces out(1,5), then dies).
        eval.update(TupleDelta::insert("r", fact(9))).unwrap();
        eval.update(TupleDelta::delete("r", fact(9))).unwrap();
        // Make `t` lossy (q(1,7) replaces t(1,5), then dies): the deletion
        // cascade restores t(1,5) and out(1,5) exactly once each.
        eval.update(TupleDelta::insert("q", fact(7))).unwrap();
        eval.update(TupleDelta::delete("q", fact(7))).unwrap();
        assert_eq!(eval.results("t"), vec![fact(5)]);
        assert_eq!(eval.results("out"), vec![fact(5)]);
        // With the last base tuple gone, every derived tuple must go too.
        eval.update(TupleDelta::delete("p", fact(5))).unwrap();
        assert!(eval.results("t").is_empty());
        assert!(
            eval.results("out").is_empty(),
            "a double-counted rederivation left a stale underivable tuple"
        );
    }

    #[test]
    fn rederivation_agrees_across_strategies_on_lossy_workload() {
        // The double-count program again, but with every fact loaded up
        // front so the replacement/rederivation churn happens *during* the
        // initial run under each strategy (SN and BSN fire with the wider
        // iteration visibility limit; rederivation must still use each
        // delta's own apply timestamp). All strategies must agree, and a
        // full teardown must leave nothing behind.
        let src = r#"
            materialize(t, keys(1)).
            materialize(out, keys(1)).
            a t(@S, C) :- p(@S, C).
            b t(@S, C) :- q(@S, C).
            c out(@S, C) :- t(@S, C).
            d out(@S, C) :- r(@S, C).
            "#;
        let fact = |v: i64| Tuple::new(vec![addr(1), Value::Int(v)]);
        let run = |strategy: Strategy| -> (Vec<Tuple>, Vec<Tuple>) {
            let program = parse_program(src).unwrap();
            let mut eval = Evaluator::new(&program).unwrap();
            eval.insert_fact("p", fact(5));
            eval.insert_fact("q", fact(7));
            eval.insert_fact("r", fact(9));
            eval.run(strategy).unwrap();
            // Tear everything down incrementally (updates are PSN).
            eval.update(TupleDelta::delete("r", fact(9))).unwrap();
            eval.update(TupleDelta::delete("q", fact(7))).unwrap();
            eval.update(TupleDelta::delete("p", fact(5))).unwrap();
            (eval.results("t"), eval.results("out"))
        };
        for strategy in [
            Strategy::Pipelined,
            Strategy::SemiNaive,
            Strategy::Buffered { batch: 1 },
            Strategy::Buffered { batch: 2 },
        ] {
            let (t, out) = run(strategy);
            assert!(t.is_empty(), "{strategy:?} left stale t tuples: {t:?}");
            assert!(
                out.is_empty(),
                "{strategy:?} left stale out tuples: {out:?}"
            );
        }
    }

    #[test]
    fn evaluator_declares_indexes_up_front() {
        let program = programs::shortest_path("");
        let eval = Evaluator::new(&program).unwrap();
        // Every non-trigger body atom with bound columns got its signature
        // declared before any tuple arrived.
        let mut declared = 0usize;
        for name in eval
            .store()
            .relation_names()
            .map(str::to_string)
            .collect::<Vec<_>>()
        {
            declared += eval
                .store()
                .relation(&name)
                .unwrap()
                .index_signatures()
                .count();
        }
        assert!(declared > 0, "shortest-path joins require indexes");
        let link = eval.store().relation("link").unwrap();
        assert!(
            link.index_signatures().next().is_some(),
            "path-triggered strands probe link on its source column"
        );
    }

    #[test]
    fn ungrounded_fact_is_rejected() {
        let program = parse_program("f link(@n0, X, 1).").unwrap();
        assert!(Evaluator::new(&program).is_err());
    }

    #[test]
    fn deletion_of_shared_subpath_cascades() {
        // Figure 6's scenario: deleting a link removes every path derived
        // from it, transitively.
        let program = programs::reachability("");
        let mut eval = Evaluator::new(&program).unwrap();
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3)] {
            eval.insert_fact("link", link(a, b, 1.0));
        }
        eval.run(Strategy::Pipelined).unwrap();
        assert_eq!(eval.results("reachable").len(), 6);
        eval.update(TupleDelta::delete("link", link(1, 2, 1.0)))
            .unwrap();
        let left: BTreeSet<_> = eval
            .results("reachable")
            .into_iter()
            .map(|t| {
                (
                    t.get(0).unwrap().as_addr().unwrap(),
                    t.get(1).unwrap().as_addr().unwrap(),
                )
            })
            .collect();
        let expect: BTreeSet<_> = [(0u32, 1u32), (2, 3)]
            .into_iter()
            .map(|(a, b)| (NodeAddr(a), NodeAddr(b)))
            .collect();
        assert_eq!(left, expect);
    }

    #[test]
    fn deletions_emit_sign_delete_downstream() {
        let program = programs::reachability("");
        let mut eval = Evaluator::new(&program).unwrap();
        eval.insert_fact("link", link(0, 1, 1.0));
        eval.run(Strategy::Pipelined).unwrap();
        let stats = eval
            .update(TupleDelta {
                relation: "link".into(),
                tuple: link(0, 1, 1.0),
                sign: Sign::Delete,
            })
            .unwrap();
        assert!(stats.tuples_processed >= 2);
        assert!(eval.results("reachable").is_empty());
    }

    /// Replay a visibility-transition stream: apply each event to a set,
    /// asserting the per-tuple alternation invariant (never a second
    /// insert without an intervening retract, never a retract of an
    /// absent tuple).
    fn replay(events: &[TupleDelta]) -> BTreeSet<(String, Tuple)> {
        let mut set = BTreeSet::new();
        for event in events {
            let key = (event.relation.to_string(), event.tuple.clone());
            match event.sign {
                Sign::Insert => assert!(set.insert(key), "double insert of {event}"),
                Sign::Delete => assert!(set.remove(&key), "retract of absent {event}"),
            }
        }
        set
    }

    #[test]
    fn tap_stream_reconstructs_subscribed_relations() {
        let program = programs::shortest_path("");
        let mut eval = Evaluator::new(&program).unwrap();
        eval.tap_mut().subscribe("shortestPath");
        eval.tap_mut().subscribe("path");
        load_figure2_links(&mut eval, "link");
        eval.run(Strategy::Pipelined).unwrap();

        let mut events = eval.drain_tap();
        // Deleting the cheap a—c edge retracts the shortest a→b route via c
        // (cost 2) and reinstates the direct cost-5 link: the subscriber
        // must see retract deltas, not just a final state.
        eval.update(TupleDelta::delete("link".to_string(), link(0, 2, 1.0)))
            .unwrap();
        eval.update(TupleDelta::delete("link".to_string(), link(2, 0, 1.0)))
            .unwrap();
        let churn = eval.drain_tap();
        assert!(
            churn
                .iter()
                .any(|d| d.sign == Sign::Delete && d.relation == "shortestPath"),
            "expected shortestPath retractions, got {churn:?}"
        );
        events.extend(churn);

        let replayed = replay(&events);
        for rel in ["shortestPath", "path"] {
            let stored: BTreeSet<(String, Tuple)> = eval
                .results(rel)
                .into_iter()
                .map(|t| (rel.to_string(), t))
                .collect();
            let from_stream: BTreeSet<(String, Tuple)> =
                replayed.iter().filter(|(r, _)| r == rel).cloned().collect();
            assert_eq!(from_stream, stored, "replayed {rel} diverges from store");
        }
        // The untapped relation never leaks into the stream.
        assert!(events.iter().all(|d| d.relation != "link"));
    }

    #[test]
    fn tap_unsubscribed_relation_records_nothing() {
        let program = programs::shortest_path("");
        let mut eval = Evaluator::new(&program).unwrap();
        load_figure2_links(&mut eval, "link");
        eval.run(Strategy::Pipelined).unwrap();
        assert!(eval.tap().is_empty());
        assert!(eval.drain_tap().is_empty());
    }

    /// An aggregate head with no declared key is keyed on its group-by
    /// fields: a view's new output replaces the old one, even when a
    /// duplicate source insertion had raised the old one's count, so the
    /// head holds the fixpoint's one tuple per group.
    #[test]
    fn an_undeclared_aggregate_head_holds_one_output_per_group() {
        let program = parse_program("l low(@S, min<C>) :- obs(@S, K, C).").unwrap();
        let mut eval = Evaluator::new(&program).unwrap();
        let obs = |k: i64, c: i64| vec![Value::Int(1), Value::Int(k), Value::Int(c)];
        for (k, c) in [(7, 200), (7, 200), (8, 5)] {
            let delta = TupleDelta::insert("obs", Tuple::new(obs(k, c)));
            eval.update(delta).unwrap();
        }
        let input = [obs(7, 200), obs(8, 5)].map(|row| ("obs".to_string(), row));
        let oracle = ndlog_oracle::Oracle::run(&program, input).unwrap();
        let low: Vec<Vec<Value>> = eval
            .results("low")
            .iter()
            .map(|t| t.values().to_vec())
            .collect();
        assert_eq!(low, [vec![Value::Int(1), Value::Int(5)]]);
        assert_eq!(oracle.agrees("low", &low), Ok(()));
    }

    /// `src` run through `updates`, one update at a time: its `low`
    /// tuples, checked against the oracle's fixpoint over the `obs` and
    /// `ok` tuples the evaluator ends with.
    fn low_after(src: &str, updates: &[(Sign, &str, Vec<Value>)]) -> Vec<Vec<Value>> {
        let program = parse_program(src).unwrap();
        let mut eval = Evaluator::new(&program).unwrap();
        for (sign, relation, row) in updates {
            let tuple = Tuple::new(row.clone());
            let delta = match sign {
                Sign::Insert => TupleDelta::insert(*relation, tuple),
                Sign::Delete => TupleDelta::delete(*relation, tuple),
            };
            eval.update(delta).unwrap();
        }
        let rows = |relation: &str| -> Vec<Vec<Value>> {
            let tuples = eval.results(relation).into_iter();
            tuples.map(|t| t.values().to_vec()).collect()
        };
        let input = ["obs", "ok"].into_iter().flat_map(|relation| {
            rows(relation)
                .into_iter()
                .map(move |row| (relation.to_string(), row))
        });
        let oracle = ndlog_oracle::Oracle::run(&program, input).unwrap();
        let low = rows("low");
        assert_eq!(oracle.agrees("low", &low), Ok(()), "{src}");
        low
    }

    const GUARDED: &str = "l low(@S, min<C>) :- obs(@S, C), ok(@S).";

    #[test]
    fn a_guard_that_arrives_after_its_source_admits_it() {
        let (obs, ok) = (vec![Value::Int(1), Value::Int(7)], vec![Value::Int(1)]);
        let low = low_after(
            GUARDED,
            &[(Sign::Insert, "obs", obs.clone()), (Sign::Insert, "ok", ok)],
        );
        assert_eq!(low, [obs]);
    }

    #[test]
    fn a_deleted_guard_retracts_what_it_admitted() {
        let (obs, ok) = (vec![Value::Int(1), Value::Int(7)], vec![Value::Int(1)]);
        let low = low_after(
            GUARDED,
            &[
                (Sign::Insert, "ok", ok.clone()),
                (Sign::Insert, "obs", obs),
                (Sign::Delete, "ok", ok),
            ],
        );
        assert!(low.is_empty());
    }

    #[test]
    fn an_aggregate_rule_with_a_filter_is_maintained() {
        let obs = |c: i64| vec![Value::Int(1), Value::Int(c)];
        let src = "l2 low(@S, min<C>) :- obs(@S, C), C > 4.";
        let inserts = [3, 9, 5].map(|c| (Sign::Insert, "obs", obs(c)));
        assert_eq!(low_after(src, &inserts), [obs(5)]);
        let mut updates = inserts.to_vec();
        updates.push((Sign::Delete, "obs", obs(5)));
        assert_eq!(low_after(src, &updates), [obs(9)]);
    }

    #[test]
    fn a_batch_that_deletes_and_reinserts_a_stored_fact_changes_nothing() {
        let program = programs::shortest_path("");
        let mut eval = Evaluator::new(&program).unwrap();
        let names: Vec<String> = eval.store().relation_names().map(String::from).collect();
        for name in &names {
            eval.tap_mut().subscribe(name.as_str());
        }
        load_figure2_links(&mut eval, "link");
        eval.run(Strategy::Pipelined).unwrap();
        eval.drain_tap();
        // Every row with its count, timestamp and expiry.
        let rows = |eval: &Evaluator| -> Vec<Vec<crate::relation::StoredTuple>> {
            let rows = |name: &String| eval.store().relation(name).unwrap().iter().cloned();
            names.iter().map(|name| rows(name).collect()).collect()
        };
        let before = rows(&eval);

        let stats = eval
            .update_batch(vec![
                TupleDelta::delete("link", link(0, 2, 1.0)),
                TupleDelta::insert("link", link(0, 2, 1.0)),
            ])
            .unwrap();
        assert_eq!(stats.iterations, 0);
        assert_eq!(rows(&eval), before);
        assert!(eval.drain_tap().is_empty());
    }
}

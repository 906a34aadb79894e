//! The three simulator workloads: `converge_dense`, `route_sparse_1k` and
//! `churn_dred`. All three run `DistributedEngine` over a seeded
//! transit-stub overlay; they differ in program, message size and in
//! whether the work is an insert-only fixpoint or deletion maintenance.

use crate::driver::{OutsideEngine, Reference};
use crate::inputs::{build_net, digest_links, update_bursts, zipf_flows, Shape, Sizes};
use crate::oracle::{bfs_hops, dijkstra};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Checks, Layers, Round};
use ndlog_core::consistency::check_bitwise_identical;
use ndlog_core::{plan, DistributedEngine, EngineConfig, LinkUpdate, NodeConfig, QueryPlan};
use ndlog_lang::optimizer::{optimize, PassSet, Pipeline};
use ndlog_lang::reorder::BodyOrder;
use ndlog_lang::{programs, Value};
use ndlog_net::topology::Metric;
use ndlog_net::NodeAddr;
use ndlog_runtime::{EvalError, EvalStats, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ConvergeDense,
    RouteSparse,
    ChurnDred,
}

/// One simulator workload with its inputs, generated once from the seed.
pub struct Sim {
    kind: Kind,
    shape: Shape,
    seed: u64,
    /// Directed links with the cost they are loaded at.
    links: Vec<(u32, u32, f64)>,
    /// `route_sparse_1k`: the queried (source, destination) pairs.
    flows: Vec<(u32, u32)>,
    /// `churn_dred`: the update bursts and the link costs after the last.
    bursts: Vec<Vec<LinkUpdate>>,
    final_links: Vec<(u32, u32, f64)>,
    pub input_digest: String,
}

/// An untraced round with the engine that ran it, kept for comparisons.
pub struct Ran {
    pub round: Round,
    pub engine: DistributedEngine,
}

/// A program compiled through the optimizer pipeline and the planner.
struct Compiled {
    plan: QueryPlan,
    pipeline: Pipeline,
    rules_out: usize,
}

fn link_tuple(s: u32, d: u32, cost: f64) -> Tuple {
    Tuple::new(vec![
        Value::Addr(NodeAddr(s)),
        Value::Addr(NodeAddr(d)),
        Value::Float(cost),
    ])
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

impl Sim {
    pub fn new(kind: Kind, sizes: &Sizes, seed: u64) -> Sim {
        let shape = match kind {
            Kind::ConvergeDense => sizes.converge,
            Kind::RouteSparse => sizes.route,
            Kind::ChurnDred => sizes.churn,
        };
        // Built once here to derive the inputs; every round builds it
        // again, timed, as part of its set-up.
        let net = build_net(shape, seed, &mut Tracer::new(), None);
        let links = net.costed(|l| match kind {
            Kind::ChurnDred => l.cost(Metric::Random),
            _ => 1.0,
        });
        let mut digest = digest_links(&links);
        let flows = if kind == Kind::RouteSparse {
            zipf_flows(net.node_count(), sizes.route_flows, sizes.route_ends, seed)
        } else {
            Vec::new()
        };
        for &(s, d) in &flows {
            digest.u64(u64::from(s) << 32 | u64::from(d));
        }
        let (bursts, final_links) = if kind == Kind::ChurnDred {
            update_bursts(&links, sizes.churn_links_per_burst, seed)
        } else {
            (Vec::new(), links.clone())
        };
        for update in bursts.iter().flatten() {
            digest.u64(u64::from(update.a.0) << 32 | u64::from(update.b.0));
            digest.f64(update.new_cost);
        }
        Sim {
            kind,
            shape,
            seed,
            links,
            flows,
            bursts,
            final_links,
            input_digest: digest.hex(),
        }
    }

    fn suffix(&self) -> &'static str {
        match self.kind {
            Kind::ConvergeDense => "hops",
            Kind::RouteSparse => "",
            Kind::ChurnDred => "random",
        }
    }

    fn relation(&self, base: &str) -> String {
        match self.suffix() {
            "" => base.to_string(),
            suffix => format!("{base}_{suffix}"),
        }
    }

    /// Parse, optimize and plan the workload's program, one span each.
    fn compile(&self, tracer: &mut Tracer, parent: Option<usize>) -> Compiled {
        let (base, pipeline) = match self.kind {
            Kind::RouteSparse => (
                tracer.call("lang.parse_program", parent, 0, || {
                    programs::shortest_path_source_routing_base("")
                }),
                programs::source_routing_pipeline("").with_passes(PassSet::ALL),
            ),
            _ => (
                tracer.call("lang.parse_program", parent, 0, || {
                    programs::shortest_path(self.suffix())
                }),
                Pipeline::new(Vec::new(), Some(BodyOrder::LinkFirst)).with_passes(PassSet::ALL),
            ),
        };
        let optimized = tracer
            .call("lang.optimize", parent, 0, || optimize(&base, &pipeline))
            .expect("canonical program optimizes");
        let plan = tracer
            .call("core.plan", parent, 0, || plan(&optimized.program))
            .expect("canonical program plans");
        Compiled {
            plan,
            pipeline,
            rules_out: optimized.program.rules.len(),
        }
    }

    /// Load the links and, for `route_sparse_1k`, the magic seeds of every
    /// queried pair.
    fn load_base(
        &self,
        compiled: &Compiled,
        mut insert: impl FnMut(NodeAddr, &str, Tuple) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let link = self.relation("link");
        for &(s, d, cost) in &self.links {
            insert(NodeAddr(s), &link, link_tuple(s, d, cost))?;
        }
        for &(src, dst) in &self.flows {
            let seeds = compiled
                .pipeline
                .seeds_for("pathDst", Value::Addr(NodeAddr(src)))
                .into_iter()
                .chain(
                    compiled
                        .pipeline
                        .seeds_for("shortestPath", Value::Addr(NodeAddr(dst))),
                );
            for (relation, values) in seeds {
                let at = values[0].as_addr().expect("magic seeds are addressed");
                insert(at, &relation, Tuple::new(values))?;
            }
        }
        Ok(())
    }

    fn node_config() -> NodeConfig {
        NodeConfig {
            aggregate_selections: true,
            ..NodeConfig::default()
        }
    }

    /// One untraced round on the engine's own event loop at `threads`
    /// executor threads.
    pub fn round(&self, threads: usize, tracer: &mut Tracer) -> Ran {
        let link = self.relation("link");
        let setup_start = Instant::now();
        let setup = tracer.start("setup", None, 0);
        let net = build_net(self.shape, self.seed, tracer, Some(setup));
        let compiled = self.compile(tracer, Some(setup));
        let config = EngineConfig {
            node: Self::node_config(),
            parallelism: threads,
            ..EngineConfig::default()
        };
        let mut engine = tracer
            .call("core.engine_new", Some(setup), 0, || {
                DistributedEngine::new(
                    net.overlay.graph.clone(),
                    std::slice::from_ref(&compiled.plan),
                    config,
                )
            })
            .expect("engine construction");
        let mut checks = Checks::default();
        tracer.call("core.load_base", Some(setup), 0, || {
            self.load_base(&compiled, |at, relation, tuple| {
                engine.insert_base(at, relation, tuple)
            })
            .expect("base facts load");
        });
        if self.kind == Kind::ChurnDred {
            tracer.call("setup.initial_convergence", Some(setup), 0, || {
                engine.run_to_quiescence().expect("initial convergence");
            });
        }
        tracer.end(setup);
        let setup_s = secs(setup_start);

        let bytes_before = engine.stats().total_bytes();
        let run = tracer.start("run", None, 0);
        let mut ops_ms = Vec::with_capacity(self.bursts.len().max(1));
        if self.kind == Kind::ChurnDred {
            for burst in &self.bursts {
                let start = Instant::now();
                for update in burst {
                    engine
                        .apply_link_update(&link, update)
                        .expect("update applies");
                }
                let report = engine.run_to_quiescence().expect("burst runs");
                ops_ms.push(secs(start) * 1e3);
                checks.check(report.quiesced, || "burst did not quiesce".to_string());
            }
        } else {
            let start = Instant::now();
            let report = engine.run_to_quiescence().expect("run to quiescence");
            ops_ms.push(secs(start) * 1e3);
            checks.check(report.quiesced, || "run did not quiesce".to_string());
        }
        tracer.end(run);
        let wire_bytes = engine.stats().total_bytes() - bytes_before;
        self.check_results(engine.results(&self.relation("shortestPath")), &mut checks);
        let round = Round {
            setup_s,
            wall_s: ops_ms.iter().sum::<f64>() / 1e3,
            ops_ms,
            wire_mb: wire_bytes as f64 / 1e6,
            checks,
        };
        Ran { round, engine }
    }

    /// Check the final `shortestPath` relation against the oracle: exactly
    /// the expected (source, destination) pairs, each at the oracle's cost
    /// (BFS hop counts, or Dijkstra on the link costs after the last burst
    /// of `churn_dred`, where the stored path must also be a real path over
    /// current links whose costs add up to the stored cost).
    fn check_results(&self, results: Vec<(NodeAddr, Tuple)>, checks: &mut Checks) {
        let n = self.shape.nodes();
        let cost_of: BTreeMap<(u32, u32), f64> = self
            .final_links
            .iter()
            .map(|&(s, d, c)| ((s, d), c))
            .collect();
        // (source, destination) -> (cost, path), as the program stores it.
        let mut got: BTreeMap<(u32, u32), (f64, Vec<u32>)> = BTreeMap::new();
        let mut duplicates = 0u64;
        for (_, tuple) in &results {
            let (Some(first), Some(second), Some(path), Some(cost)) = (
                tuple.get(0).and_then(Value::as_addr),
                tuple.get(1).and_then(Value::as_addr),
                tuple.get(2).and_then(Value::as_list),
                tuple.values().last().and_then(Value::as_f64),
            ) else {
                checks.check(false, || format!("malformed result {tuple}"));
                continue;
            };
            // The source-routing program stores results at the destination.
            let pair = match self.kind {
                Kind::RouteSparse => (second.0, first.0),
                _ => (first.0, second.0),
            };
            let path = path
                .iter()
                .filter_map(Value::as_addr)
                .map(|a| a.0)
                .collect();
            if got.insert(pair, (cost, path)).is_some() {
                duplicates += 1;
            }
        }
        checks.check(duplicates == 0, || {
            format!("{duplicates} (source, destination) pairs stored twice")
        });

        let expected: BTreeSet<(u32, u32)> = match self.kind {
            Kind::RouteSparse => {
                let sources: BTreeSet<u32> = self.flows.iter().map(|f| f.0).collect();
                let dests: BTreeSet<u32> = self.flows.iter().map(|f| f.1).collect();
                sources
                    .iter()
                    .flat_map(|&s| dests.iter().map(move |&d| (s, d)))
                    .filter(|(s, d)| s != d)
                    .collect()
            }
            _ => (0..n as u32)
                .flat_map(|s| (0..n as u32).map(move |d| (s, d)))
                .filter(|(s, d)| s != d)
                .collect(),
        };
        let extra = got.keys().filter(|pair| !expected.contains(pair)).count();
        checks.check(extra == 0, || format!("{extra} results nobody asked for"));

        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        let mut oracle: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for &(s, d) in &expected {
            let dist = oracle.entry(s).or_insert_with(|| match self.kind {
                Kind::ChurnDred => dijkstra(n, &self.final_links, s),
                _ => bfs_hops(n, &self.final_links, s)
                    .into_iter()
                    .map(|h| h.map_or(f64::INFINITY, f64::from))
                    .collect(),
            });
            let want = dist[d as usize];
            let ok = match (self.kind, got.get(&(s, d))) {
                (_, None) => false,
                (Kind::ChurnDred, Some((cost, path))) => {
                    // Added from the destination end, as rule sp2 does.
                    let along = path
                        .windows(2)
                        .rev()
                        .try_fold(0.0, |sum, hop| Some(cost_of.get(&(hop[0], hop[1]))? + sum));
                    path.first() == Some(&s)
                        && path.last() == Some(&d)
                        && along.is_some_and(|along| close(*cost, along))
                        && close(*cost, want)
                }
                (_, Some((cost, _))) => *cost == want,
            };
            checks.check(ok, || {
                format!(
                    "shortest path {s} -> {d}: oracle {want}, program {:?}",
                    got.get(&(s, d))
                )
            });
        }
    }

    /// The traced run: a reference round on the engine's own loop, the
    /// same inputs through the outside epoch driver with a span per call,
    /// and a round at `par_threads` executor threads that must be bitwise
    /// identical to a one-thread run. Only one engine is alive during any
    /// timed round.
    pub fn traced(&self, par_threads: usize, tracer: &mut Tracer) -> (Layers, Checks) {
        let mut layers = Layers::new();
        let shortest = self.relation("shortestPath");
        let link = self.relation("link");
        let Ran {
            round: reference,
            engine,
        } = self.round(1, tracer);
        let mut checks = reference.checks;
        let engine_run = Reference::of(&engine, &shortest);
        let sim_converge_s = engine.convergence(&shortest).convergence_seconds;
        drop(engine);

        // --- the outside driver, one span per call -------------------
        let root = tracer.start("traced_round", None, 0);
        let setup = tracer.start("setup", Some(root), 0);
        let net = build_net(self.shape, self.seed, tracer, Some(setup));
        let compiled = self.compile(tracer, Some(setup));
        let mut outside = tracer
            .call("core.engine_new", Some(setup), 0, || {
                OutsideEngine::new(
                    net.overlay.graph.clone(),
                    std::slice::from_ref(&compiled.plan),
                    Self::node_config(),
                )
            })
            .expect("outside engine construction");
        tracer.call("core.load_base", Some(setup), 0, || {
            self.load_base(&compiled, |at, relation, tuple| {
                outside.insert_base(at, relation, tuple)
            })
            .expect("base facts load");
        });
        if self.kind == Kind::ChurnDred {
            tracer.call("setup.initial_convergence", Some(setup), 0, || {
                outside
                    .run_to_quiescence(None, None)
                    .expect("initial convergence");
            });
        }
        tracer.end(setup);
        let counts_before = outside.begin_measuring();
        let stats_before = outside.computation_stats();
        let (messages_before, bytes_before) = (outside.messages(), outside.total_bytes());
        let sim_before = outside.now_seconds();

        let run = tracer.start("run", Some(root), 0);
        let run_start = Instant::now();
        let mut burst_stats: Vec<EvalStats> = Vec::new();
        if self.kind == Kind::ChurnDred {
            for (i, burst) in self.bursts.iter().enumerate() {
                let before = outside.computation_stats();
                let span = tracer.start("burst", Some(run), i as u64);
                for update in burst {
                    outside
                        .apply_link_update(&link, update)
                        .expect("update applies");
                }
                outside
                    .run_to_quiescence(Some(&mut *tracer), Some(span))
                    .expect("burst runs");
                tracer.end(span);
                burst_stats.push(outside.computation_stats() - before);
            }
        } else {
            outside
                .run_to_quiescence(Some(&mut *tracer), Some(run))
                .expect("run to quiescence");
        }
        let traced_wall_s = secs(run_start);
        tracer.end(run);
        tracer.end(root);

        let differences = outside.differences(&engine_run);
        checks.check(differences.is_empty(), || {
            format!("outside driver: {}", differences.join("; "))
        });

        // --- per-layer metrics ---------------------------------------
        let totals = tracer.totals();
        let total_us = |name: &str| totals.get(name).map_or(0.0, |t| t.total_us);
        // Every round records set-up spans; these are the traced round's.
        let setup_us = |name: &str| tracer.child_total_us(setup, name);
        layers.insert("lang.parse_program_us", setup_us("lang.parse_program"));
        layers.insert("lang.optimize_us", setup_us("lang.optimize"));
        layers.insert("lang.rules_out", compiled.rules_out as f64);
        layers.insert(
            "net.topology_build_us",
            setup_us("net.gtitm_generate") + setup_us("net.overlay_random_neighbors"),
        );
        layers.insert("core.plan_us", setup_us("core.plan"));
        layers.insert("core.engine_new_us", setup_us("core.engine_new"));
        layers.insert("core.load_base_us", setup_us("core.load_base"));

        let counts = outside.counts.since(counts_before);
        let epochs = counts.epochs.max(1) as f64;
        let messages = (outside.messages() - messages_before) as f64;
        let bytes = (outside.total_bytes() - bytes_before) as f64;
        layers.insert("net.drain_epoch_us_total", total_us("net.drain_epoch"));
        layers.insert("net.drain_epoch_calls", counts.epochs as f64);
        layers.insert("net.events_per_epoch", counts.events as f64 / epochs);
        layers.insert("net.send_us_total", total_us("net.send"));
        layers.insert("net.messages", messages);
        layers.insert("net.bytes_per_msg", bytes / messages.max(1.0));
        layers.insert("net.queue_peak", counts.queue_peak as f64);
        layers.insert(
            "net.sim_converge_s",
            match self.kind {
                Kind::ChurnDred => outside.now_seconds() - sim_before,
                _ => sim_converge_s,
            },
        );

        let traced_us = traced_wall_s * 1e6;
        layers.insert("core.run_epoch_us_total", total_us("core.run_epoch"));
        layers.insert("core.run_epoch_calls", counts.epochs as f64);
        layers.insert("core.tasks_per_epoch", counts.tasks as f64 / epochs);
        layers.insert(
            "core.active_nodes_per_epoch",
            counts.active_nodes as f64 / epochs,
        );
        layers.insert("core.deliveries", counts.deliveries as f64);
        layers.insert("core.receive_batches", counts.receive_batches as f64);
        layers.insert(
            "core.receive_batch_width",
            counts.deliveries as f64 / counts.receive_batches.max(1) as f64,
        );
        layers.insert("core.replay_us_total", total_us("core.replay"));
        layers.insert(
            "core.run_epoch_share",
            total_us("core.run_epoch") / traced_us,
        );
        layers.insert(
            "core.serial_share",
            (total_us("net.drain_epoch") + total_us("core.replay")) / traced_us,
        );
        let arena = outside.arena_stats();
        layers.insert("core.arena_demand_bytes", arena.demand_bytes as f64);
        layers.insert("core.arena_allocated_bytes", arena.allocated_bytes() as f64);
        layers.insert(
            "core.arena_reuse_ratio",
            arena.reuses as f64 / arena.rents.max(1) as f64,
        );

        let stats = outside.computation_stats() - stats_before;
        layers.insert("runtime.iterations", stats.iterations as f64);
        layers.insert("runtime.derivations", stats.derivations as f64);
        layers.insert(
            "runtime.redundant_derivations",
            stats.redundant_derivations as f64,
        );
        layers.insert("runtime.tuples_processed", stats.tuples_processed as f64);
        layers.insert("runtime.logical_probes", stats.logical_probes as f64);
        layers.insert("runtime.distinct_probes", stats.distinct_probes as f64);
        layers.insert(
            "runtime.probe_share_ratio",
            stats.distinct_probes as f64 / stats.logical_probes.max(1) as f64,
        );
        layers.insert("runtime.scans", stats.scans as f64);
        layers.insert("runtime.tuples_examined", stats.tuples_examined as f64);
        layers.insert("runtime.store_tuples", outside.store_tuples() as f64);
        drop(outside);

        // --- the same round at `par_threads` executor threads --------
        let Ran {
            round: par,
            engine: par_engine,
        } = self.round(par_threads, tracer);
        checks.absorb(par.checks);
        // Untimed: a second one-thread engine beside the parallel one.
        let again = self.round(1, tracer);
        checks.absorb(again.round.checks);
        let identical = check_bitwise_identical(&again.engine, &par_engine);
        drop((again.engine, par_engine));
        checks.check(identical.is_ok(), || {
            format!(
                "{par_threads}-thread run is not bitwise identical: {}",
                identical.unwrap_err()
            )
        });

        layers.insert("core.wall_par_s", par.wall_s);
        layers.insert("core.par_speedup", reference.wall_s / par.wall_s);
        if !burst_stats.is_empty() {
            let examined: Vec<f64> = burst_stats
                .iter()
                .map(|s| s.tuples_examined as f64)
                .collect();
            let iterations: Vec<f64> = burst_stats.iter().map(|s| s.iterations as f64).collect();
            layers.insert("runtime.burst_tuples_examined_p50", median(&examined));
            layers.insert("runtime.burst_iterations_p50", median(&iterations));
        }
        layers.insert(
            "trace_overhead_share",
            traced_wall_s / reference.wall_s - 1.0,
        );
        (layers, checks)
    }
}

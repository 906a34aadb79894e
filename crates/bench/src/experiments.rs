//! One function per evaluation figure.
//!
//! Each function runs the real distributed engine over the simulated
//! testbed and returns a result struct whose `render()` method prints the
//! same rows/series the paper reports. Absolute numbers differ from the
//! paper (different hardware, a simulator instead of Emulab, a Rust engine
//! instead of C++ P2); the *shape* — which technique wins, by roughly what
//! factor, where the crossover falls — is what these experiments reproduce.
//! Every figure's plans compile through the optimizer pipeline at the
//! caller's `passes` level (`PassSet::ALL` is the paper's configuration).

use crate::caching::QueryCache;
use crate::testbed::{Scale, SourceRoutingSetup, Testbed};
use ndlog_core::{sharing, EngineConfig, RefreshConfig, UpdateWorkload};
use ndlog_lang::{PassSet, Value};
use ndlog_net::sim::ms;
use ndlog_net::stats::{BandwidthSeries, NetStats};
use ndlog_net::topology::Metric;
use ndlog_net::{FaultPlan, LinkFaults, NodeAddr};
use ndlog_runtime::{Tuple, TupleDelta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Bucket width (seconds) for per-node bandwidth series.
const BANDWIDTH_BUCKET_S: f64 = 0.5;
/// Step (seconds) for completion series.
const COMPLETION_STEP_S: f64 = 0.25;
/// Flush interval for the periodic aggregate-selections variant.
const PERIODIC_FLUSH_MS: f64 = 500.0;
/// Outbound delay used by the message-sharing experiment (the paper's
/// value).
const SHARING_DELAY_MS: f64 = 300.0;

// ---------------------------------------------------------------------------
// Figures 7 & 8 (and 9 & 10): aggregate selections.
// ---------------------------------------------------------------------------

/// The outcome of one metric's shortest-path query run.
#[derive(Debug, Clone)]
pub struct MetricRun {
    /// Which link metric the query minimized.
    pub metric: Metric,
    /// Time until all results reached their final value (seconds).
    pub convergence_seconds: f64,
    /// Aggregate communication overhead (MB).
    pub total_mb: f64,
    /// Peak average per-node bandwidth (kBps).
    pub peak_kbps: f64,
    /// Per-node bandwidth over time (kBps, 0.5 s buckets) — Figure 7 / 9.
    pub bandwidth: BandwidthSeries,
    /// Fraction of eventual results completed over time — Figure 8 / 10.
    pub completion: Vec<(f64, f64)>,
    /// Insertions pruned by aggregate selections.
    pub pruned: u64,
    /// Messages sent.
    pub messages: usize,
    /// Aggregate computation overhead across all nodes (probe/scan and
    /// tuples-examined counters), complementing the communication metrics.
    pub computation: ndlog_runtime::EvalStats,
}

/// Results of the aggregate-selections experiment (one run per metric).
#[derive(Debug, Clone)]
pub struct AggregateSelectionsResult {
    /// Whether the periodic variant was used.
    pub periodic: bool,
    /// Optimizer pass level the plans were compiled at (`--optimize`).
    pub optimizer: String,
    /// One run per metric, in the paper's order.
    pub runs: Vec<MetricRun>,
}

fn run_metric_query(
    testbed: &Testbed,
    metric: Metric,
    periodic: bool,
    passes: PassSet,
) -> MetricRun {
    let plan = Testbed::shortest_path_plan(metric, passes);
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    if periodic {
        config.node.periodic_flush = Some(ms(PERIODIC_FLUSH_MS));
    }
    config.max_seconds = 120.0;
    let mut engine = testbed.engine(&[plan], config);
    testbed
        .load_links(&mut engine, &Testbed::link_relation(metric), metric)
        .expect("link loading");
    engine.run_to_quiescence().expect("run");

    let relation = Testbed::shortest_path_relation(metric);
    let conv = engine.convergence(&relation);
    let bandwidth = engine
        .stats()
        .per_node_bandwidth_kbps(testbed.node_count(), BANDWIDTH_BUCKET_S);
    MetricRun {
        metric,
        convergence_seconds: conv.convergence_seconds,
        total_mb: engine.stats().total_mb(),
        peak_kbps: bandwidth.peak(),
        bandwidth,
        completion: conv.completion_series(COMPLETION_STEP_S),
        pruned: engine.pruned_total(),
        messages: engine.stats().message_count(),
        computation: engine.computation_stats(),
    }
}

fn run_all_metrics(scale: Scale, periodic: bool, passes: PassSet) -> AggregateSelectionsResult {
    let testbed = Testbed::new(scale);
    AggregateSelectionsResult {
        periodic,
        optimizer: passes.label().to_string(),
        runs: Metric::ALL
            .iter()
            .map(|&m| run_metric_query(&testbed, m, periodic, passes))
            .collect(),
    }
}

/// Figures 7 and 8: the four metric queries with (eager) aggregate
/// selections.
pub fn aggregate_selections(scale: Scale, passes: PassSet) -> AggregateSelectionsResult {
    run_all_metrics(scale, false, passes)
}

/// Figures 9 and 10: the same queries with *periodic* aggregate selections.
pub fn periodic_aggregate_selections(scale: Scale, passes: PassSet) -> AggregateSelectionsResult {
    run_all_metrics(scale, true, passes)
}

impl AggregateSelectionsResult {
    /// Render the per-metric summary table plus the two series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let title = if self.periodic {
            "Figures 9 & 10: periodic aggregate selections"
        } else {
            "Figures 7 & 8: aggregate selections"
        };
        let _ = writeln!(out, "{title}");
        let _ = writeln!(out, "optimizer passes: {}", self.optimizer);
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "metric",
            "converge(s)",
            "MB",
            "peak kBps",
            "messages",
            "pruned",
            "probes",
            "distinct",
            "scans",
            "examined"
        );
        for r in &self.runs {
            let _ = writeln!(
                out,
                "{:<14} {:>12.2} {:>10.2} {:>12.2} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
                r.metric.label(),
                r.convergence_seconds,
                r.total_mb,
                r.peak_kbps,
                r.messages,
                r.pruned,
                r.computation.logical_probes,
                r.computation.distinct_probes,
                r.computation.scans,
                r.computation.tuples_examined
            );
        }
        let _ = writeln!(
            out,
            "\nPer-node bandwidth (kBps) over time ({}s buckets):",
            BANDWIDTH_BUCKET_S
        );
        let buckets = self
            .runs
            .iter()
            .map(|r| r.bandwidth.points.len())
            .max()
            .unwrap_or(0);
        let _ = write!(out, "{:<8}", "t(s)");
        for r in &self.runs {
            let _ = write!(out, "{:>14}", r.metric.label());
        }
        let _ = writeln!(out);
        for i in 0..buckets {
            let _ = write!(out, "{:<8.2}", (i as f64 + 0.5) * BANDWIDTH_BUCKET_S);
            for r in &self.runs {
                let v = r.bandwidth.points.get(i).copied().unwrap_or(0.0);
                let _ = write!(out, "{:>14.2}", v);
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "\n%% of eventual results completed over time:");
        let steps = self
            .runs
            .iter()
            .map(|r| r.completion.len())
            .max()
            .unwrap_or(0);
        let _ = write!(out, "{:<8}", "t(s)");
        for r in &self.runs {
            let _ = write!(out, "{:>14}", r.metric.label());
        }
        let _ = writeln!(out);
        for i in 0..steps {
            let t = i as f64 * COMPLETION_STEP_S;
            let _ = write!(out, "{:<8.2}", t);
            for r in &self.runs {
                let v = r.completion.get(i).map(|(_, c)| *c).unwrap_or(1.0);
                let _ = write!(out, "{:>14.3}", v);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The run for a given metric.
    pub fn run_for(&self, metric: Metric) -> &MetricRun {
        self.runs
            .iter()
            .find(|r| r.metric == metric)
            .expect("all metrics present")
    }
}

// ---------------------------------------------------------------------------
// Figure 11: magic sets, predicate reordering and result caching.
// ---------------------------------------------------------------------------

/// One line of Figure 11 (cumulative MB as a function of query count).
#[derive(Debug, Clone)]
pub struct MagicLine {
    /// Line label (`MS`, `MSC`, `MSC-30%`, `MSC-10%`).
    pub label: String,
    /// Cumulative megabytes after each query.
    pub cumulative_mb: Vec<f64>,
}

impl MagicLine {
    /// Cumulative MB after `count` queries.
    pub fn at(&self, count: usize) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let idx = count.min(self.cumulative_mb.len());
        self.cumulative_mb[idx - 1]
    }
}

/// Results of the Figure 11 experiment.
#[derive(Debug, Clone)]
pub struct MagicSetsResult {
    /// Query counts at which the paper samples the x-axis.
    pub query_counts: Vec<usize>,
    /// Communication of the unoptimized all-pairs query (independent of the
    /// number of queries).
    pub no_ms_mb: f64,
    /// The optimized lines.
    pub lines: Vec<MagicLine>,
    /// The optimizer pipeline the per-query plans were compiled with
    /// (`Report::describe()` of the applied rewrites).
    pub optimizer: String,
}

impl MagicSetsResult {
    /// Render the table (rows = query counts, columns = lines, plus the
    /// saving of the best caching line over the unoptimized baseline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 11: aggregate communication (MB) vs number of queries"
        );
        let _ = writeln!(out, "optimizer: {}", self.optimizer);
        let _ = write!(out, "{:<10} {:>10}", "queries", "No-MS");
        for line in &self.lines {
            let _ = write!(out, " {:>10}", line.label);
        }
        let delta_line = self.lines.iter().find(|l| l.label == "MSC");
        if delta_line.is_some() {
            let _ = write!(out, " {:>10}", "Δ(MSC)");
        }
        let _ = writeln!(out);
        for &count in &self.query_counts {
            let _ = write!(out, "{:<10} {:>10.3}", count, self.no_ms_mb);
            for line in &self.lines {
                let _ = write!(out, " {:>10.3}", line.at(count));
            }
            if let Some(line) = delta_line {
                let _ = write!(out, " {:>+10.3}", self.no_ms_mb - line.at(count));
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The query count (if any) at which a line's cumulative traffic first
    /// exceeds the No-MS baseline — the crossover the paper highlights at
    /// ~170 queries for the MS line.
    pub fn crossover(&self, label: &str) -> Option<usize> {
        let line = self.lines.iter().find(|l| l.label == label)?;
        line.cumulative_mb
            .iter()
            .position(|&mb| mb > self.no_ms_mb)
            .map(|idx| idx + 1)
    }
}

/// The result tuple a completed query ships back to its source:
/// `shortestPath(@D, @S, P, C)` with the path vector and hop-count cost.
/// This is the wire artifact [`sharing::result_wire_bytes`] sizes, so the
/// result return is accounted with the engine's per-delta encoding.
fn result_delta(path: &[NodeAddr]) -> TupleDelta {
    let hops = path.len() - 1;
    TupleDelta::insert(
        "shortestPath",
        Tuple::new(vec![
            Value::Addr(*path.last().expect("non-empty path")),
            Value::Addr(path[0]),
            Value::list(path.iter().map(|&n| Value::Addr(n)).collect()),
            Value::Float(hops as f64),
        ]),
    )
}

/// Run one magic (source-routing) path query from `src` to `dst`, where
/// the `cached` nodes answer from their cache: their outgoing links are not
/// loaded, so they forward no exploration (see [`crate::caching`]). The
/// plan and the magic seed tuples both come from the optimizer pipeline
/// carried by `setup` — with magic disabled the pipeline yields no seeds
/// and the query explores all-pairs. Returns the bytes spent, the
/// discovered path (source first) if any, and the exploration state
/// (`pathDst` tuples per node) used to combine partial explorations with
/// cached suffixes.
fn run_magic_query(
    testbed: &Testbed,
    setup: &SourceRoutingSetup,
    src: NodeAddr,
    dst: NodeAddr,
    cached: &BTreeSet<NodeAddr>,
) -> (f64, Option<Vec<NodeAddr>>, Vec<(NodeAddr, Tuple)>) {
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.max_seconds = 60.0;
    let mut engine = testbed.engine(std::slice::from_ref(&setup.plan), config);
    for link in testbed.links.iter().filter(|l| !cached.contains(&l.src)) {
        let cost = link.cost(Metric::HopCount);
        engine
            .insert_base(
                link.src,
                "link",
                Testbed::link_tuple(link.src, link.dst, cost),
            )
            .expect("link loading");
    }
    for (relation, values) in setup
        .pipeline
        .seeds_for("pathDst", Value::Addr(src))
        .into_iter()
        .chain(setup.pipeline.seeds_for("shortestPath", Value::Addr(dst)))
    {
        let at = values[0].as_addr().expect("magic seeds are addresses");
        engine
            .insert_base(at, &relation, Tuple::new(values))
            .expect("magic seed");
    }
    engine.run_to_quiescence().expect("run");

    let bytes = engine.stats().total_bytes() as f64;
    // The result lives at the destination: shortestPath(@D, @S, P, C).
    let path = engine
        .results("shortestPath")
        .into_iter()
        .find(|(node, t)| {
            *node == dst
                && t.get(0) == Some(&Value::Addr(dst))
                && t.get(1) == Some(&Value::Addr(src))
        })
        .and_then(|(_, t)| {
            t.get(2).and_then(|v| {
                v.as_list().map(|l| {
                    l.iter()
                        .filter_map(|x| x.as_addr())
                        .collect::<Vec<NodeAddr>>()
                })
            })
        });
    let exploration = engine.results("pathDst");
    (bytes, path, exploration)
}

/// When exploration was cut short by the cache, reconstruct the answer from
/// the best (explored prefix + cached suffix) combination over the cache
/// nodes that the exploration actually reached. The resulting path may be a
/// *false positive* (the best path through a cache node rather than the
/// best path overall), which is exactly the caching overhead the paper
/// observes for small query counts.
fn reconstruct_from_cache(
    exploration: &[(NodeAddr, Tuple)],
    cache: &QueryCache,
    src: NodeAddr,
    dst: NodeAddr,
) -> Option<Vec<NodeAddr>> {
    let mut best: Option<(f64, Vec<NodeAddr>)> = None;
    for node in cache.nodes_with_entry_for(dst) {
        // Did the exploration reach this cache node? Look for a pathDst
        // tuple for our source stored at it.
        let Some((_, prefix_tuple)) = exploration
            .iter()
            .find(|(n, t)| *n == node && t.get(1) == Some(&Value::Addr(src)))
        else {
            continue;
        };
        let prefix: Vec<NodeAddr> = prefix_tuple
            .get(3)
            .and_then(|v| {
                v.as_list()
                    .map(|l| l.iter().filter_map(|x| x.as_addr()).collect())
            })
            .unwrap_or_default();
        let prefix_cost = prefix_tuple
            .get(4)
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::INFINITY);
        let Some(suffix) = cache.lookup(node, dst) else {
            continue;
        };
        // Hop-count metric: the cached suffix costs one per hop.
        let total = prefix_cost + (suffix.len() - 1) as f64;
        let mut full = prefix;
        full.extend(suffix.iter().skip(1));
        match &best {
            Some((cost, _)) if *cost <= total => {}
            _ => best = Some((total, full)),
        }
    }
    best.map(|(_, p)| p)
}

/// Figure 11: magic sets + predicate reordering + result caching.
///
/// `max_queries` queries with random sources; destinations drawn from the
/// full node set (MS / MSC), or from 30% / 10% of nodes (MSC-30% / MSC-10%).
/// The per-query plan is compiled once through
/// [`Testbed::source_routing_setup`] at the given pass level; the same
/// pipeline then derives the magic seed tuples for each concrete query.
pub fn magic_sets(
    scale: Scale,
    max_queries: usize,
    sample_counts: &[usize],
    passes: PassSet,
) -> MagicSetsResult {
    let testbed = Testbed::new(scale);
    let n = testbed.node_count();
    let setup = Testbed::source_routing_setup(passes);

    // Baseline: the unoptimized query computes all-pairs least-hop-count,
    // whatever pass level the per-query plans are compiled at.
    let no_ms_mb = {
        let plan = Testbed::shortest_path_plan(Metric::HopCount, PassSet::ALL);
        let mut config = EngineConfig::default();
        config.node.aggregate_selections = true;
        config.max_seconds = 120.0;
        let mut engine = testbed.engine(&[plan], config);
        testbed
            .load_links(
                &mut engine,
                &Testbed::link_relation(Metric::HopCount),
                Metric::HopCount,
            )
            .expect("link loading");
        engine.run_to_quiescence().expect("run");
        engine.stats().total_mb()
    };

    // Query workloads: (label, fraction of nodes eligible as destinations,
    // caching enabled).
    let workloads: Vec<(&str, f64, bool)> = vec![
        ("MS", 1.0, false),
        ("MSC", 1.0, true),
        ("MSC-30%", 0.3, true),
        ("MSC-10%", 0.1, true),
    ];

    let mut lines = Vec::new();
    for (label, dst_fraction, caching) in workloads {
        let mut rng = StdRng::seed_from_u64(0xf1611);
        let dst_pool = ((n as f64 * dst_fraction).round() as usize).max(1);
        let mut cache = QueryCache::default();
        let mut cumulative = Vec::with_capacity(max_queries);
        let mut total_bytes = 0.0f64;
        for _ in 0..max_queries {
            let src = NodeAddr(rng.random_range(0..n) as u32);
            let mut dst = NodeAddr(rng.random_range(0..dst_pool) as u32);
            if dst == src {
                dst = NodeAddr(((dst.0 as usize + 1) % n) as u32);
            }
            let cached = if caching {
                cache.nodes_with_entry_for(dst)
            } else {
                BTreeSet::new()
            };
            let (bytes, direct_path, exploration) =
                run_magic_query(&testbed, &setup, src, dst, &cached);
            total_bytes += bytes;

            // Determine the answer path: either the exploration reached the
            // destination directly, or (with caching) a cache node on the
            // way answers with its cached suffix. Account the reverse-path
            // result return, which is also what populates the caches.
            let path = if let Some(p) = direct_path {
                Some(p)
            } else if caching {
                reconstruct_from_cache(&exploration, &cache, src, dst)
            } else {
                None
            };
            if let Some(path) = &path {
                if path.len() >= 2 {
                    let delta = result_delta(path);
                    let header = ndlog_net::sim::SimConfig::default().header_bytes;
                    total_bytes +=
                        (path.len() - 1) as f64 * sharing::result_wire_bytes(&delta, header) as f64;
                    if caching {
                        cache.record(path);
                    }
                }
            }
            cumulative.push(total_bytes / 1_000_000.0);
        }
        lines.push(MagicLine {
            label: label.to_string(),
            cumulative_mb: cumulative,
        });
    }

    MagicSetsResult {
        query_counts: sample_counts.to_vec(),
        no_ms_mb,
        lines,
        optimizer: setup.description,
    }
}

// ---------------------------------------------------------------------------
// Figure 12: opportunistic message sharing.
// ---------------------------------------------------------------------------

/// Results of the message-sharing experiment.
#[derive(Debug, Clone)]
pub struct SharingResult {
    /// Per-metric individual bandwidth series (Latency, Reliability, Random).
    pub individual: Vec<(Metric, BandwidthSeries, f64)>,
    /// Summed bandwidth of the three queries run separately (No-Share).
    pub no_share: BandwidthSeries,
    /// Bandwidth of the three queries run concurrently with sharing.
    pub share: BandwidthSeries,
    /// Total MB without sharing.
    pub no_share_mb: f64,
    /// Total MB with sharing.
    pub share_mb: f64,
    /// Optimizer pass level the plans were compiled at (`--optimize`).
    pub optimizer: String,
}

impl SharingResult {
    /// Relative reduction in total communication from sharing.
    pub fn reduction(&self) -> f64 {
        if self.no_share_mb == 0.0 {
            0.0
        } else {
            1.0 - self.share_mb / self.no_share_mb
        }
    }

    /// Render the summary and the bandwidth series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 12: opportunistic message sharing (300 ms delay)"
        );
        let _ = writeln!(out, "optimizer passes: {}", self.optimizer);
        let _ = writeln!(
            out,
            "No-Share: {:.2} MB, peak {:.2} kBps | Share: {:.2} MB, peak {:.2} kBps | reduction {:.0}%",
            self.no_share_mb,
            self.no_share.peak(),
            self.share_mb,
            self.share.peak(),
            self.reduction() * 100.0
        );
        let _ = writeln!(out, "{:<8} {:>12} {:>12}", "t(s)", "No-Share", "Share");
        let buckets = self.no_share.points.len().max(self.share.points.len());
        for i in 0..buckets {
            let _ = writeln!(
                out,
                "{:<8.2} {:>12.2} {:>12.2}",
                (i as f64 + 0.5) * BANDWIDTH_BUCKET_S,
                self.no_share.points.get(i).copied().unwrap_or(0.0),
                self.share.points.get(i).copied().unwrap_or(0.0)
            );
        }
        out
    }
}

/// Figure 12: run the Latency, Reliability and Random queries individually
/// (No-Share) and concurrently with a 300 ms sharing delay (Share).
pub fn message_sharing(scale: Scale, passes: PassSet) -> SharingResult {
    let testbed = Testbed::new(scale);
    let metrics = [Metric::Latency, Metric::Reliability, Metric::Random];

    // Individual runs (no sharing).
    let mut individual = Vec::new();
    let mut merged = NetStats::new();
    for &metric in &metrics {
        let plan = Testbed::shortest_path_plan(metric, passes);
        let mut config = EngineConfig::default();
        config.node.aggregate_selections = true;
        let mut engine = testbed.engine(&[plan], config);
        testbed
            .load_links(&mut engine, &Testbed::link_relation(metric), metric)
            .expect("link loading");
        engine.run_to_quiescence().expect("run");
        let series = engine
            .stats()
            .per_node_bandwidth_kbps(testbed.node_count(), BANDWIDTH_BUCKET_S);
        individual.push((metric, series, engine.stats().total_mb()));
        merged.merge(engine.stats());
    }
    let no_share = merged.per_node_bandwidth_kbps(testbed.node_count(), BANDWIDTH_BUCKET_S);

    // Concurrent run with sharing.
    let plans: Vec<_> = metrics
        .iter()
        .map(|&m| Testbed::shortest_path_plan(m, passes))
        .collect();
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.node.sharing_delay = Some(ms(SHARING_DELAY_MS));
    let mut engine = testbed.engine(&plans, config);
    for &metric in &metrics {
        testbed
            .load_links(&mut engine, &Testbed::link_relation(metric), metric)
            .expect("link loading");
    }
    engine.run_to_quiescence().expect("run");
    let share = engine
        .stats()
        .per_node_bandwidth_kbps(testbed.node_count(), BANDWIDTH_BUCKET_S);

    SharingResult {
        individual,
        no_share_mb: merged.total_mb(),
        share_mb: engine.stats().total_mb(),
        no_share,
        share,
        optimizer: passes.label().to_string(),
    }
}

// ---------------------------------------------------------------------------
// Figures 13 & 14: incremental evaluation under bursty updates.
// ---------------------------------------------------------------------------

/// Results of the incremental-update experiments.
#[derive(Debug, Clone)]
pub struct IncrementalResult {
    /// Per-node bandwidth over the whole run (1 s buckets).
    pub bandwidth: BandwidthSeries,
    /// Peak bandwidth during the initial from-scratch computation (kBps).
    pub initial_peak_kbps: f64,
    /// Peak bandwidth during any update burst (kBps).
    pub burst_peak_kbps: f64,
    /// MB spent on the initial computation.
    pub initial_mb: f64,
    /// Average MB per burst.
    pub avg_burst_mb: f64,
    /// Number of bursts applied.
    pub bursts: usize,
    /// Total run length (seconds).
    pub duration_seconds: f64,
    /// Time the initial computation took to converge (seconds).
    pub initial_convergence_seconds: f64,
    /// Computation overhead of the initial from-scratch run.
    pub initial_computation: ndlog_runtime::EvalStats,
    /// Additional computation overhead across all update bursts.
    pub burst_computation: ndlog_runtime::EvalStats,
    /// Optimizer pass level the plan was compiled at (`--optimize`).
    pub optimizer: String,
}

impl IncrementalResult {
    /// Burst peak as a fraction of the initial peak (the paper reports
    /// ~32%).
    pub fn peak_ratio(&self) -> f64 {
        if self.initial_peak_kbps == 0.0 {
            0.0
        } else {
            self.burst_peak_kbps / self.initial_peak_kbps
        }
    }

    /// Average burst traffic as a fraction of the initial computation (the
    /// paper reports ~26%).
    pub fn traffic_ratio(&self) -> f64 {
        if self.initial_mb == 0.0 {
            0.0
        } else {
            self.avg_burst_mb / self.initial_mb
        }
    }

    /// Render the summary and the bandwidth-over-time series.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(out, "optimizer passes: {}", self.optimizer);
        let _ = writeln!(
            out,
            "initial: {:.2} MB, peak {:.2} kBps, converged in {:.2} s",
            self.initial_mb, self.initial_peak_kbps, self.initial_convergence_seconds
        );
        let _ = writeln!(
            out,
            "bursts: {} applied, avg {:.3} MB each, burst peak {:.2} kBps \
             ({:.0}% of initial peak, {:.0}% of initial traffic per burst)",
            self.bursts,
            self.avg_burst_mb,
            self.burst_peak_kbps,
            self.peak_ratio() * 100.0,
            self.traffic_ratio() * 100.0
        );
        let _ = writeln!(
            out,
            "computation: initial {} tuples examined ({} probes, {} distinct, \
             {} scans); bursts added {} examined ({} probes, {} distinct, {} scans)",
            self.initial_computation.tuples_examined,
            self.initial_computation.logical_probes,
            self.initial_computation.distinct_probes,
            self.initial_computation.scans,
            self.burst_computation.tuples_examined,
            self.burst_computation.logical_probes,
            self.burst_computation.distinct_probes,
            self.burst_computation.scans
        );
        let _ = writeln!(out, "{:<8} {:>14}", "t(s)", "kBps/node");
        for (i, v) in self.bandwidth.points.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<8.1} {:>14.2}",
                (i as f64 + 0.5) * self.bandwidth.bucket_seconds,
                v
            );
        }
        out
    }
}

/// Shared driver for Figures 13 and 14: run the Random-metric query to
/// convergence, then apply update bursts separated by the given intervals
/// (cycled) until `total_seconds` of simulated time have elapsed.
fn incremental_updates_with_intervals(
    scale: Scale,
    intervals: &[f64],
    total_seconds: f64,
    passes: PassSet,
) -> IncrementalResult {
    assert!(!intervals.is_empty());
    let testbed = Testbed::new(scale);
    let metric = Metric::Random;
    let plan = Testbed::shortest_path_plan(metric, passes);
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.max_seconds = total_seconds + 60.0;
    let mut engine = testbed.engine(&[plan], config);
    let link_relation = Testbed::link_relation(metric);
    testbed
        .load_links(&mut engine, &link_relation, metric)
        .expect("link loading");
    engine.run_to_quiescence().expect("initial run");

    let initial_convergence = engine
        .convergence(&Testbed::shortest_path_relation(metric))
        .convergence_seconds;
    let initial_mb = engine.stats().total_mb();
    let initial_computation = engine.computation_stats();
    let initial_peak = engine
        .stats()
        .per_node_bandwidth_kbps(testbed.node_count(), 1.0)
        .peak();

    let mut workload = UpdateWorkload::paper(&testbed.links, metric, 0xf1613);
    let mut burst_mb = Vec::new();
    let mut t = engine.now_seconds().max(1.0).ceil();
    let mut interval_idx = 0;
    while t < total_seconds {
        t += intervals[interval_idx % intervals.len()];
        interval_idx += 1;
        if t >= total_seconds {
            break;
        }
        engine.run_until(t).expect("run to burst time");
        let before = engine.stats().total_mb();
        for update in workload.burst() {
            engine
                .apply_link_update(&link_relation, &update)
                .expect("apply update");
        }
        // Let the burst's consequences propagate until the next burst; the
        // traffic is attributed to this burst when we sample right before
        // the next one.
        let next = (t + intervals[interval_idx % intervals.len()]).min(total_seconds);
        engine.run_until(next).expect("run after burst");
        burst_mb.push(engine.stats().total_mb() - before);
    }
    engine.run_until(total_seconds).expect("final run");

    let bandwidth = engine
        .stats()
        .per_node_bandwidth_kbps(testbed.node_count(), 1.0);
    // Burst peak: the highest bucket after the initial convergence window.
    let skip = (initial_convergence + 1.0).ceil() as usize;
    let burst_peak = bandwidth
        .points
        .iter()
        .skip(skip)
        .copied()
        .fold(0.0, f64::max);

    IncrementalResult {
        bandwidth,
        initial_peak_kbps: initial_peak,
        burst_peak_kbps: burst_peak,
        initial_mb,
        avg_burst_mb: if burst_mb.is_empty() {
            0.0
        } else {
            burst_mb.iter().sum::<f64>() / burst_mb.len() as f64
        },
        bursts: burst_mb.len(),
        duration_seconds: total_seconds,
        initial_convergence_seconds: initial_convergence,
        initial_computation,
        burst_computation: engine.computation_stats() - initial_computation,
        optimizer: passes.label().to_string(),
    }
}

/// Simulated run length of Figures 13 and 14: the paper's 250 s, cut to
/// 60 s on the two testbeds small enough to converge in a second.
fn update_run_seconds(scale: Scale) -> f64 {
    match scale {
        Scale::Small | Scale::Medium => 60.0,
        Scale::Paper | Scale::Large => 250.0,
    }
}

/// Figure 13: bursts every 10 s.
pub fn incremental_updates(scale: Scale, passes: PassSet) -> IncrementalResult {
    incremental_updates_with_intervals(scale, &[10.0], update_run_seconds(scale), passes)
}

/// Figure 14: interleaved 2 s and 8 s bursts.
pub fn incremental_updates_interleaved(scale: Scale, passes: PassSet) -> IncrementalResult {
    incremental_updates_with_intervals(scale, &[2.0, 8.0], update_run_seconds(scale), passes)
}

// ---------------------------------------------------------------------------
// Adversity: lossy links + crash/rejoin waves healed by soft-state refresh.
// ---------------------------------------------------------------------------

/// Soft-state TTL (seconds) declared by the adversity grid's program.
const ADVERSITY_TTL_S: f64 = 5.0;
/// Refresh (re-announcement) interval for the adversity grid, seconds.
const ADVERSITY_REFRESH_S: f64 = 2.0;
/// When the random link faults (loss/duplication/jitter) switch off.
const ADVERSITY_FAULTS_END_S: f64 = 8.0;
/// Fault-plan seed of the `experiments adversity` grid (and its CI step);
/// any other seed replays a different but equally deterministic fault
/// schedule.
pub const ADVERSITY_SEED: u64 = 0xad5eed;

/// One cell of the adversity grid: a loss-rate × crash-wave combination
/// run to quiescence under soft-state refresh, then judged against the
/// Dijkstra oracle on the (fully healed) topology.
#[derive(Debug, Clone)]
pub struct AdversityCell {
    /// Per-message loss probability while faults are active.
    pub loss: f64,
    /// Number of crash/rejoin waves in the schedule.
    pub crash_waves: usize,
    /// Total nodes crashed across all waves.
    pub crashed_nodes: usize,
    /// Whether the post-quiescence routing state equals the Dijkstra
    /// oracle at every node (and the run actually quiesced).
    pub converged: bool,
    /// Whether the 2-thread run was bit-for-bit identical to 1-thread.
    pub identical: bool,
    /// Time at which the last result reached its final value (seconds).
    pub convergence_seconds: f64,
    /// Messages sent over the whole run (includes refresh traffic).
    pub messages: usize,
    /// Total communication (MB).
    pub total_mb: f64,
    /// Traffic sent after the last scheduled fault (MB) — the sustained
    /// soft-state refresh overhead, no longer doing repair work.
    pub refresh_mb: f64,
    /// Messages dropped by the fault plan (loss + partition + crash).
    pub dropped: u64,
    /// Distinct insertions the fault plan dropped in flight.
    pub dropped_inserts: usize,
    /// Of `dropped_inserts`: present at their destination at the end
    /// (healed by a later refresh cycle; obsolete insertions — replaced,
    /// pruned as non-best or expired — legitimately stay unrepaired).
    pub repaired: usize,
    /// Refresh tasks executed across all nodes.
    pub refresh_ticks: u64,
}

/// Results of the adversity experiment: the full grid at one scale.
#[derive(Debug, Clone)]
pub struct AdversityResult {
    /// Scale label (for reports).
    pub scale: Scale,
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Fault-plan seed (the whole grid is replayable from it).
    pub seed: u64,
    /// Soft-state TTL declared by the program (seconds).
    pub ttl_seconds: f64,
    /// Refresh interval driving re-announcement (seconds).
    pub refresh_interval_seconds: f64,
    /// One cell per loss × crash-wave combination.
    pub cells: Vec<AdversityCell>,
}

impl AdversityResult {
    /// Render the grid table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Adversity grid ({} nodes, scale {}, seed {:#x}): loss × crash waves under \
             soft-state refresh (TTL {} s, refresh every {} s)",
            self.nodes,
            self.scale.label(),
            self.seed,
            self.ttl_seconds,
            self.refresh_interval_seconds
        );
        let _ = writeln!(
            out,
            "{:<6} {:>5} {:>7} {:>8} {:>8} {:>8} {:>10} {:>8} {:>14} {:>6} {:>9} {:>9}",
            "loss",
            "waves",
            "crashed",
            "conv(s)",
            "msgs",
            "MB",
            "refresh MB",
            "dropped",
            "repaired/ins",
            "ticks",
            "converged",
            "identical"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<6.2} {:>5} {:>7} {:>8.2} {:>8} {:>8.2} {:>10.2} {:>8} {:>8}/{:<5} {:>6} {:>9} {:>9}",
                c.loss,
                c.crash_waves,
                c.crashed_nodes,
                c.convergence_seconds,
                c.messages,
                c.total_mb,
                c.refresh_mb,
                c.dropped,
                c.repaired,
                c.dropped_inserts,
                c.refresh_ticks,
                c.converged,
                c.identical
            );
        }
        out
    }
}

/// Whether every node's routing state equals the Dijkstra oracle on the
/// overlay: each node holds exactly one shortest-path tuple per reachable
/// destination, with the oracle's cost, and nothing else.
fn adversity_converged(
    engine: &ndlog_core::DistributedEngine,
    testbed: &Testbed,
    relation: &str,
    metric: Metric,
) -> bool {
    let mut per_node: BTreeMap<NodeAddr, BTreeMap<NodeAddr, f64>> = BTreeMap::new();
    for (node, tuple) in engine.results(relation) {
        let (Some(src), Some(dst), Some(cost)) = (
            tuple.get(0).and_then(|v| v.as_addr()),
            tuple.get(1).and_then(|v| v.as_addr()),
            tuple.get(3).and_then(|v| v.as_f64()),
        ) else {
            return false;
        };
        // Results must live at their own source (`@S` locality).
        if src != node {
            return false;
        }
        per_node.entry(node).or_default().insert(dst, cost);
    }
    for src in testbed.overlay.graph.nodes() {
        let oracle = testbed.overlay.graph.shortest_distances(src, metric);
        let mut found = per_node.remove(&src).unwrap_or_default();
        for dst in testbed.overlay.graph.nodes() {
            if dst == src {
                continue;
            }
            let want = oracle[dst.index()];
            match found.remove(&dst) {
                Some(got) => {
                    if !want.is_finite() || (got - want).abs() > 1e-6 {
                        return false;
                    }
                }
                None => {
                    if want.is_finite() {
                        return false;
                    }
                }
            }
        }
        // Tuples for destinations the oracle can't reach at all.
        if !found.is_empty() {
            return false;
        }
    }
    per_node.is_empty()
}

/// Run the soft-state shortest-path query across a loss-rate × churn grid
/// of deterministic fault plans: every cell suffers random message loss,
/// duplication and jitter until `ADVERSITY_FAULTS_END_S`, plus zero or
/// more crash/rejoin waves taking down ~10% of the overlay, while periodic
/// refresh re-announces seed facts so lost state heals by TTL turnover.
/// Each cell runs at 1 and 2 executor threads and checks bitwise identity,
/// then compares the post-quiescence routing state against the Dijkstra
/// oracle on the (fully healed) topology.
pub fn adversity(scale: Scale, seed: u64) -> AdversityResult {
    let testbed = Testbed::new(scale);
    let metric = Metric::Reliability;
    let nodes = testbed.node_count();
    let link_rel = Testbed::link_relation(metric);
    let sp_rel = Testbed::shortest_path_relation(metric);
    let program =
        ndlog_lang::programs::shortest_path_soft(Testbed::metric_suffix(metric), ADVERSITY_TTL_S);
    let query = ndlog_core::plan(&program).expect("soft shortest-path plans");
    let addrs: Vec<NodeAddr> = testbed.overlay.graph.nodes().collect();

    let mut cells = Vec::new();
    for &loss in &[0.10, 0.25] {
        for &crash_waves in &[0usize, 1] {
            // Deterministic crash roster: each wave takes down ~10% of the
            // overlay (at least one node), staggered 1.5 s apart, each node
            // rejoining 1.5 s after it went down.
            let wave_size = (nodes / 10).max(1);
            let mut picked: BTreeSet<usize> = BTreeSet::new();
            let mut crashes: Vec<(NodeAddr, f64, f64)> = Vec::new();
            for wave in 0..crash_waves {
                let at = 3.0 + 1.5 * wave as f64;
                for i in 0..wave_size {
                    let mut idx = (1 + wave * 5 + i * 7) % nodes;
                    while picked.contains(&idx) {
                        idx = (idx + 1) % nodes;
                    }
                    picked.insert(idx);
                    crashes.push((addrs[idx], at, at + 1.5));
                }
            }
            let last_fault_s = crashes
                .iter()
                .map(|c| c.2)
                .fold(ADVERSITY_FAULTS_END_S, f64::max);
            // Refresh must outlive the faults by TTL (so stale remote state
            // expires) plus a few cycles (so live state is re-announced
            // after the last expiry pass).
            let horizon_s = last_fault_s + ADVERSITY_TTL_S + 4.0 * ADVERSITY_REFRESH_S;
            let cell_seed = seed ^ (((loss * 1000.0) as u64) << 8) ^ crash_waves as u64;

            let fault_for_run = || {
                let mut plan = FaultPlan::new(cell_seed)
                    .with_default_faults(LinkFaults {
                        loss,
                        duplicate: 0.05,
                        jitter_ms: 2.0,
                    })
                    .with_active_until(ms(ADVERSITY_FAULTS_END_S * 1000.0));
                for &(node, at, rejoin) in &crashes {
                    plan = plan.with_crash(node, ms(at * 1000.0), ms(rejoin * 1000.0));
                }
                plan
            };
            let execute = |threads: usize| {
                let mut config = EngineConfig::default();
                config.node.aggregate_selections = true;
                config.parallelism = threads;
                config.max_seconds = horizon_s + 30.0;
                config.fault = Some(fault_for_run());
                config.refresh = Some(RefreshConfig {
                    interval_seconds: ADVERSITY_REFRESH_S,
                    horizon_seconds: horizon_s,
                });
                let mut engine = testbed.engine(std::slice::from_ref(&query), config);
                testbed
                    .load_links(&mut engine, &link_rel, metric)
                    .expect("link loading");
                let report = engine.run_to_quiescence().expect("adversity run");
                (engine, report)
            };

            let (engine, report) = execute(1);
            let (parallel, _) = execute(2);
            let identical =
                ndlog_core::consistency::check_bitwise_identical(&engine, &parallel).is_ok();
            let converged =
                report.quiesced && adversity_converged(&engine, &testbed, &sp_rel, metric);
            let repair = engine.fault_repair_report();
            cells.push(AdversityCell {
                loss,
                crash_waves,
                crashed_nodes: crashes.len(),
                converged,
                identical,
                convergence_seconds: engine.convergence(&sp_rel).convergence_seconds,
                messages: engine.stats().message_count(),
                total_mb: engine.stats().total_mb(),
                refresh_mb: engine.stats().mb_in_window(last_fault_s, f64::INFINITY),
                dropped: engine.fault_stats().dropped,
                dropped_inserts: repair.dropped_inserts,
                repaired: repair.repaired,
                refresh_ticks: repair.refresh_ticks,
            });
        }
    }
    AdversityResult {
        scale,
        nodes,
        seed,
        ttl_seconds: ADVERSITY_TTL_S,
        refresh_interval_seconds: ADVERSITY_REFRESH_S,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_aggregate_selections() {
        let result = aggregate_selections(Scale::Small, PassSet::ALL);
        assert_eq!(result.runs.len(), 4);
        for run in &result.runs {
            assert!(run.total_mb > 0.0);
            assert!(run.convergence_seconds > 0.0);
            assert!(run.pruned > 0, "selections prune something on every metric");
            let last = run.completion.last().unwrap().1;
            assert!((last - 1.0).abs() < 1e-9, "completion reaches 100%");
        }
        // The Random metric is the stress case: it should need at least as
        // much traffic as the Hop-Count query.
        let random = result.run_for(Metric::Random).total_mb;
        let hops = result.run_for(Metric::HopCount).total_mb;
        assert!(random >= hops * 0.8, "random {random} vs hops {hops}");
        assert!(!result.render().is_empty());
    }

    #[test]
    fn small_scale_periodic_reduces_traffic() {
        let eager = aggregate_selections(Scale::Small, PassSet::ALL);
        let periodic = periodic_aggregate_selections(Scale::Small, PassSet::ALL);
        let eager_total: f64 = eager.runs.iter().map(|r| r.total_mb).sum();
        let periodic_total: f64 = periodic.runs.iter().map(|r| r.total_mb).sum();
        assert!(
            periodic_total <= eager_total,
            "periodic {periodic_total} should not exceed eager {eager_total}"
        );
        assert!(!periodic.render().is_empty());
    }

    #[test]
    fn small_scale_magic_sets_shapes() {
        let result = magic_sets(Scale::Small, 12, &[4, 8, 12], PassSet::ALL);
        assert!(result.no_ms_mb > 0.0);
        assert_eq!(result.lines.len(), 4);
        for line in &result.lines {
            assert_eq!(line.cumulative_mb.len(), 12);
            // Cumulative traffic is non-decreasing.
            assert!(line.cumulative_mb.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        }
        // A single magic query is much cheaper than the all-pairs baseline.
        let ms = &result.lines[0];
        assert!(ms.at(1) < result.no_ms_mb);
        // Restricting destinations to 10% of nodes increases cache reuse, so
        // MSC-10% spends no more than plain MSC.
        let msc = result.lines.iter().find(|l| l.label == "MSC").unwrap();
        let msc10 = result.lines.iter().find(|l| l.label == "MSC-10%").unwrap();
        assert!(msc10.at(12) <= msc.at(12) * 1.05);
        assert!(!result.render().is_empty());
    }

    #[test]
    fn a_cached_node_stores_explorations_but_forwards_none() {
        let testbed = Testbed::new(Scale::Small);
        let setup = Testbed::source_routing_setup(PassSet::ALL);
        let src = NodeAddr(0);
        let dst = NodeAddr(testbed.node_count() as u32 - 1);
        let x = testbed
            .overlay
            .graph
            .neighbors(src)
            .find(|&n| n != dst)
            .expect("the source has a neighbour besides the destination");
        // A pathDst tuple's column 2 is the hop that forwarded it.
        let forwarded_by_x = |exploration: &[(NodeAddr, Tuple)]| {
            exploration
                .iter()
                .any(|(node, t)| *node != x && t.get(2) == Some(&Value::Addr(x)))
        };

        let (_, _, uncached) = run_magic_query(&testbed, &setup, src, dst, &BTreeSet::new());
        assert!(forwarded_by_x(&uncached), "without a cache {x} forwards");

        let (_, _, cached) = run_magic_query(&testbed, &setup, src, dst, &BTreeSet::from([x]));
        assert!(
            cached
                .iter()
                .any(|(node, t)| *node == x && t.get(1) == Some(&Value::Addr(src))),
            "the exploration reaches the cached node"
        );
        assert!(!forwarded_by_x(&cached), "a cache hit forwards nothing");
    }

    #[test]
    fn small_scale_sharing_reduces_bytes() {
        let result = message_sharing(Scale::Small, PassSet::ALL);
        assert_eq!(result.individual.len(), 3);
        assert!(result.share_mb < result.no_share_mb);
        assert!(result.reduction() > 0.0);
        assert!(!result.render().is_empty());
    }

    #[test]
    fn small_scale_incremental_updates() {
        let result = incremental_updates_with_intervals(Scale::Small, &[5.0], 30.0, PassSet::ALL);
        assert!(result.bursts >= 3);
        assert!(result.initial_mb > 0.0);
        assert!(result.avg_burst_mb > 0.0);
        assert!(
            result.avg_burst_mb < result.initial_mb,
            "incremental recomputation is cheaper than from scratch"
        );
        assert!(!result.render("test").is_empty());
    }
}

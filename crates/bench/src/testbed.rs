//! Experiment testbed: topology, overlay and engine setup shared by all
//! experiments.
//!
//! The paper's setup (Section 6.1): 100 Emulab nodes on a GT-ITM
//! transit-stub topology (4 transit nodes, 3 stubs per transit, 8 nodes per
//! stub; 50/10/2 ms latencies; 10 Mbps links); each overlay node picks four
//! random neighbors; each overlay link carries latency, reliability and
//! random metrics.

use ndlog_core::{plan, DistributedEngine, EngineConfig, QueryPlan};
use ndlog_lang::optimizer::{optimize, PassSet, Pipeline};
use ndlog_lang::reorder::BodyOrder;
use ndlog_lang::{programs, Value};
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig, OverlayLink};
use ndlog_net::topology::Metric;
use ndlog_net::NodeAddr;
use ndlog_runtime::{EvalError, Tuple};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's 100-node setup.
    Paper,
    /// A 14-node setup for tests and CI: every figure in about a second.
    Small,
    /// A 52-node setup: several transit domains, all-pairs in seconds.
    Medium,
    /// A 264-node setup (8 transit nodes, 4 stubs per transit, 8 nodes per
    /// stub): the largest overlay on which the all-pairs figures finish
    /// in minutes.
    Large,
}

impl Scale {
    /// The transit-stub generator configuration for this scale.
    fn transit_stub(self) -> TransitStubConfig {
        match self {
            Scale::Paper => TransitStubConfig::paper(),
            Scale::Small => TransitStubConfig::small(),
            Scale::Medium => TransitStubConfig::medium(),
            Scale::Large => TransitStubConfig {
                transit_nodes: 8,
                stubs_per_transit: 4,
                nodes_per_stub: 8,
                ..TransitStubConfig::paper()
            },
        }
    }

    /// Parse from a command-line string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "paper" | "full" | "100" => Some(Scale::Paper),
            "small" | "test" => Some(Scale::Small),
            "medium" | "52" => Some(Scale::Medium),
            "large" | "264" => Some(Scale::Large),
            _ => None,
        }
    }

    /// A lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }
}

/// A Figure 11 source-routing query compiled through the optimizer
/// pipeline: the plan, the pipeline that produced it (which also derives
/// the magic seed tuples for a concrete query), and the human-readable
/// rewrite description.
#[derive(Debug, Clone)]
pub struct SourceRoutingSetup {
    /// The compiled plan.
    pub plan: QueryPlan,
    /// The pipeline (pass set, magic specs, body order).
    pub pipeline: Pipeline,
    /// `Report::describe()` of the applied rewrites.
    pub description: String,
}

/// A constructed testbed: the underlay, the overlay and its link set.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// Which scale was used.
    pub scale: Scale,
    /// The overlay (each node picked four random neighbors).
    pub overlay: Overlay,
    /// The directed overlay links with their metrics.
    pub links: Vec<OverlayLink>,
}

impl Testbed {
    /// Build the testbed for a scale (deterministic given the scale).
    pub fn new(scale: Scale) -> Testbed {
        let ts = generate(&scale.transit_stub());
        let overlay = Overlay::random_neighbors(&ts.topology, &OverlayConfig::default());
        let links = overlay.links();
        Testbed {
            scale,
            overlay,
            links,
        }
    }

    /// Number of overlay nodes.
    pub fn node_count(&self) -> usize {
        self.overlay.node_count()
    }

    /// The canonical relation suffix used for a metric's query instance.
    pub fn metric_suffix(metric: Metric) -> &'static str {
        match metric {
            Metric::HopCount => "hops",
            Metric::Latency => "latency",
            Metric::Reliability => "reliability",
            Metric::Random => "random",
        }
    }

    /// The shortest-path plan for a metric (relations suffixed per metric),
    /// built through the optimizer pipeline at the given pass level. The
    /// canonical program has no magic opportunities; its pipeline
    /// normalizes bodies link-first (idempotent on the canonical rule
    /// order), so `off` and `all` agree here — the point is that every
    /// experiment's plan flows through the same `optimize()` entry as the
    /// magic figures.
    pub fn shortest_path_plan(metric: Metric, passes: PassSet) -> QueryPlan {
        let program = programs::shortest_path(Self::metric_suffix(metric));
        let pipeline = Pipeline::new(Vec::new(), Some(BodyOrder::LinkFirst)).with_passes(passes);
        let optimized = optimize(&program, &pipeline).expect("canonical program optimizes");
        plan(&optimized.program).expect("canonical program plans")
    }

    /// The Figure 11 source-routing query compiled through the optimizer
    /// pipeline at the given pass level: the unoptimized base program plus
    /// the canonical magic/reorder pipeline, restricted to `passes`. The
    /// returned pipeline also supplies the magic seed tuples
    /// ([`Pipeline::seeds_for`]) — with magic disabled it yields no seeds
    /// and the base program explores all-pairs, the unoptimized behavior.
    pub fn source_routing_setup(passes: PassSet) -> SourceRoutingSetup {
        let pipeline = programs::source_routing_pipeline("").with_passes(passes);
        let optimized = optimize(&programs::shortest_path_source_routing_base(""), &pipeline)
            .expect("source-routing program optimizes");
        SourceRoutingSetup {
            plan: plan(&optimized.program).expect("canonical program plans"),
            description: optimized.report.describe(),
            pipeline,
        }
    }

    /// Build a distributed engine over this testbed's overlay graph.
    pub fn engine(&self, plans: &[QueryPlan], config: EngineConfig) -> DistributedEngine {
        DistributedEngine::new(self.overlay.graph.clone(), plans, config)
            .expect("engine construction")
    }

    /// A link base tuple `link(@src, @dst, cost)`.
    pub fn link_tuple(src: NodeAddr, dst: NodeAddr, cost: f64) -> Tuple {
        Tuple::new(vec![Value::Addr(src), Value::Addr(dst), Value::Float(cost)])
    }

    /// Load every overlay link into `relation` with the given metric as the
    /// cost column, at the link's source node.
    pub fn load_links(
        &self,
        engine: &mut DistributedEngine,
        relation: &str,
        metric: Metric,
    ) -> Result<(), EvalError> {
        for link in &self.links {
            engine.insert_base(
                link.src,
                relation,
                Self::link_tuple(link.src, link.dst, link.cost(metric)),
            )?;
        }
        Ok(())
    }

    /// The shortest-path relation name for a metric's query instance.
    pub fn shortest_path_relation(metric: Metric) -> String {
        format!("shortestPath_{}", Self::metric_suffix(metric))
    }

    /// The link relation name for a metric's query instance.
    pub fn link_relation(metric: Metric) -> String {
        format!("link_{}", Self::metric_suffix(metric))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_testbed_builds() {
        let tb = Testbed::new(Scale::Small);
        assert_eq!(tb.node_count(), 14);
        assert!(!tb.links.is_empty());
        assert!(tb.overlay.graph.is_connected());
    }

    #[test]
    fn paper_testbed_has_100_nodes() {
        let tb = Testbed::new(Scale::Paper);
        assert_eq!(tb.node_count(), 100);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("large"), Some(Scale::Large));
        assert_eq!(Scale::parse("1k"), None);
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::Large.label(), "large");
    }

    #[test]
    fn large_testbed_has_at_least_256_nodes() {
        assert!(Scale::Large.transit_stub().total_nodes() >= 256);
    }

    #[test]
    fn metric_relations_are_suffixed() {
        assert_eq!(
            Testbed::shortest_path_relation(Metric::HopCount),
            "shortestPath_hops"
        );
        assert_eq!(Testbed::link_relation(Metric::Random), "link_random");
    }

    #[test]
    fn source_routing_setups_reflect_pass_levels() {
        let all = Testbed::source_routing_setup(PassSet::ALL);
        assert!(all.description.contains("magic"));
        assert!(all.description.contains("reorder"));
        // Full pipeline: one seed per guarded relation, at the constant's
        // own node.
        assert_eq!(
            all.pipeline
                .seeds_for("pathDst", Value::Addr(NodeAddr(3)))
                .len(),
            1
        );
        assert_eq!(
            all.pipeline
                .seeds_for("shortestPath", Value::Addr(NodeAddr(5)))
                .len(),
            1
        );

        let off = Testbed::source_routing_setup(PassSet::OFF);
        assert_eq!(off.description, "identity");
        assert!(off
            .pipeline
            .seeds_for("pathDst", Value::Addr(NodeAddr(3)))
            .is_empty());
        // The unoptimized plan carries no magic tables.
        assert!(off
            .plan
            .program
            .tables
            .iter()
            .all(|t| !t.name.starts_with("magic")));
        assert!(all
            .plan
            .program
            .tables
            .iter()
            .any(|t| t.name.starts_with("magic")));
    }

    #[test]
    fn small_distributed_run_converges() {
        let tb = Testbed::new(Scale::Small);
        let plan = Testbed::shortest_path_plan(Metric::HopCount, PassSet::ALL);
        let mut config = EngineConfig::default();
        config.node.aggregate_selections = true;
        let mut engine = tb.engine(&[plan], config);
        tb.load_links(&mut engine, "link_hops", Metric::HopCount)
            .unwrap();
        let report = engine.run_to_quiescence().unwrap();
        assert!(report.quiesced);
        // All-pairs results: n * (n - 1).
        assert_eq!(
            engine.result_count("shortestPath_hops"),
            tb.node_count() * (tb.node_count() - 1)
        );
    }
}

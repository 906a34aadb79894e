//! The metric names and units. `BENCHMARK.json` at the repository root
//! lists the same names; a test keeps the two in step.

/// End-to-end metrics, reported by every workload from an untraced run.
/// What `wall_s` and an "operation" mean per workload is in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("wire_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported from a traced run. A workload that does
/// not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_program_us", "us"),
    ("lang.optimize_us", "us"),
    ("lang.rules_out", "count"),
    ("lang.parse_command_us_p50", "us"),
    ("net.topology_build_us", "us"),
    ("net.drain_epoch_us_total", "us"),
    ("net.drain_epoch_calls", "count"),
    ("net.events_per_epoch", "count"),
    ("net.send_us_total", "us"),
    ("net.messages", "count"),
    ("net.bytes_per_msg", "B"),
    ("net.queue_peak", "count"),
    ("net.sim_converge_s", "s"),
    ("core.plan_us", "us"),
    ("core.engine_new_us", "us"),
    ("core.load_base_us", "us"),
    ("core.run_epoch_us_total", "us"),
    ("core.run_epoch_calls", "count"),
    ("core.tasks_per_epoch", "count"),
    ("core.active_nodes_per_epoch", "count"),
    ("core.deliveries", "count"),
    ("core.receive_batches", "count"),
    ("core.receive_batch_width", "count"),
    ("core.replay_us_total", "us"),
    ("core.run_epoch_share", "share"),
    ("core.serial_share", "share"),
    ("core.wall_par_s", "s"),
    ("core.par_speedup", "ratio"),
    ("core.arena_demand_bytes", "B"),
    ("core.arena_allocated_bytes", "B"),
    ("core.arena_reuse_ratio", "ratio"),
    ("runtime.iterations", "count"),
    ("runtime.derivations", "count"),
    ("runtime.redundant_derivations", "count"),
    ("runtime.tuples_processed", "count"),
    ("runtime.logical_probes", "count"),
    ("runtime.distinct_probes", "count"),
    ("runtime.probe_share_ratio", "ratio"),
    ("runtime.scans", "count"),
    ("runtime.tuples_examined", "count"),
    ("runtime.store_tuples", "count"),
    ("runtime.burst_tuples_examined_p50", "count"),
    ("runtime.burst_iterations_p50", "count"),
    ("runtime.bulk_load_us", "us"),
    ("runtime.update_batch_us_p50", "us"),
    ("runtime.update_batch_us_p99", "us"),
    ("serve.session_execute_us_p50", "us"),
    ("serve.session_execute_us_p99", "us"),
    ("serve.session_self_us_p50", "us"),
    ("serve.tcp_self_us_p50", "us"),
    ("serve.query_execute_us_p50", "us"),
    ("serve.query_wait_us_p50", "us"),
    ("serve.format_event_us_per_delta", "us"),
    ("serve.deltas_per_commit", "count"),
    ("serve.deltas_streamed", "count"),
    ("serve.bytes_streamed", "B"),
    ("serve.query_rows_mean", "count"),
    ("serve.commit_log_len", "count"),
    ("serve.commit_p50_ms", "ms"),
    ("serve.commit_p99_ms", "ms"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("serve.delta_lag_p50_ms", "ms"),
    ("serve.delta_lag_p99_ms", "ms"),
    ("serve.ops_per_s", "1/s"),
    ("trace_overhead_share", "share"),
];

pub const WORKLOADS: &[&str] = &[
    "converge_dense",
    "route_sparse_1k",
    "churn_dred",
    "serve_mixed",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<x>"` of one top-level array of `BENCHMARK.json`,
    /// in order. The file is flat enough for a scan.
    fn names_in(section: &str, text: &str) -> Vec<String> {
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("name value") + 1..];
                rest[..rest.find('"').expect("name value ends")].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let own = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(name, _)| name.to_string()).collect()
        };
        assert_eq!(names_in("end_to_end", &text), own(END_TO_END));
        assert_eq!(names_in("per_layer", &text), own(PER_LAYER));
        assert_eq!(
            names_in("workloads", &text),
            WORKLOADS.iter().map(|w| w.to_string()).collect::<Vec<_>>()
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} is not listed with unit {unit}"
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}

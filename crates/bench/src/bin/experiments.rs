//! Command-line driver that regenerates the paper's figures and the
//! runtime performance reports.
//!
//! ```text
//! cargo run --release -p ndlog-bench --bin experiments -- <figure> [scale] [options]
//!
//! <figure>    fig7 | fig8 | fig9 | fig10 | fig11 | fig12 | fig13 | fig14 |
//!             scaling | micro | vectorization | optimizer | summary | all
//! [scale]     paper (default, 100 nodes) | small (14 nodes) | medium (52) |
//!             large (264) | 1k (1010) | 4k (4016) | 10k (10100); `scaling`
//!             also accepts a comma list (e.g. large,1k) and emits one
//!             trajectory report covering every listed scale
//! --optimize P  optimizer pass level for the figure experiments:
//!             off | magic | reorder | all (default all). Every figure's
//!             plans compile through the same optimizer pipeline; this
//!             flag restricts which rewrite passes it applies.
//! --threads N maximum executor thread count for the `scaling` figure
//!             (measures 1..=N in powers of two; default 4)
//! --json PATH write the figure's machine-readable JSON report
//!             (scaling -> BENCH_parallel_scaling.json format,
//!              micro -> BENCH_micro_runtime.json format,
//!              vectorization -> BENCH_batch_vectorization.json format,
//!              optimizer -> BENCH_optimizer.json format)
//! --baseline PATH  (`micro`, `optimizer`) compare against the committed
//!             JSON report and exit non-zero on a >2x regression — the CI
//!             smoke gates
//! --reference PATH (`vectorization` only) a prior scaling JSON whose
//!             1-thread run becomes the before-change wall-clock reference
//! ```
//!
//! Figures 7/8 and 9/10 come from the same runs, so either name prints both
//! series. `scaling` runs the shortest-path workload once per thread count
//! on the parallel epoch executor and reports wall-clock speedups plus a
//! bit-for-bit identity check against the sequential baseline.

use ndlog_bench::experiments::{
    adversity, aggregate_selections, aggregate_selections_with, batch_vectorization,
    incremental_updates, incremental_updates_interleaved_with, incremental_updates_with,
    magic_sets_with, message_sharing, message_sharing_with, micro_runtime, optimizer_bench,
    parallel_scaling, periodic_aggregate_selections, periodic_aggregate_selections_with,
    ScalingReference, ScalingTrajectory, ADVERSITY_SEED,
};
use ndlog_bench::Scale;
use ndlog_lang::PassSet;
use ndlog_net::topology::Metric;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|scaling|micro|\
         vectorization|optimizer|adversity|summary|all> [paper|small|medium|large|1k|4k|10k] \
         (comma list for `scaling`) [--optimize off|magic|reorder|all] \
         [--threads N] [--json PATH] [--baseline PATH] [--reference PATH]"
    );
    std::process::exit(2);
}

/// Parsed command line.
struct Options {
    figure: String,
    scale: Scale,
    /// Every scale the `scaling` figure should measure (a comma list on
    /// the command line); always contains `scale` first.
    scales: Vec<Scale>,
    /// Maximum executor thread count for the scaling figure.
    threads: usize,
    /// Where to write the figure's JSON report, if anywhere.
    json: Option<String>,
    /// Committed micro-bench JSON to gate regressions against.
    baseline: Option<String>,
    /// Prior scaling JSON used as the vectorization reference.
    reference: Option<String>,
    /// Optimizer pass level for the figure experiments.
    optimize: PassSet,
}

fn parse_args(args: &[String]) -> Options {
    let mut positional = Vec::new();
    let mut threads = None;
    let mut json = None;
    let mut baseline = None;
    let mut reference = None;
    let mut optimize = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--optimize" => {
                optimize = Some(
                    iter.next()
                        .and_then(|v| PassSet::parse(v))
                        .unwrap_or_else(|| usage()),
                );
            }
            "--threads" => {
                threads = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--json" => {
                json = Some(iter.next().cloned().unwrap_or_else(|| usage()));
            }
            "--baseline" => {
                baseline = Some(iter.next().cloned().unwrap_or_else(|| usage()));
            }
            "--reference" => {
                reference = Some(iter.next().cloned().unwrap_or_else(|| usage()));
            }
            _ if arg.starts_with("--") => usage(),
            _ => positional.push(arg.clone()),
        }
    }
    let figure = positional.first().cloned().unwrap_or_else(|| usage());
    let scales: Vec<Scale> = match positional.get(1) {
        None => vec![Scale::Paper],
        Some(s) => s
            .split(',')
            .map(|part| Scale::parse(part).unwrap_or_else(|| usage()))
            .collect(),
    };
    if scales.len() > 1 && figure != "scaling" {
        eprintln!("a comma list of scales applies only to the `scaling` figure");
        usage();
    }
    if positional.len() > 2 {
        usage();
    }
    // Flags only drive specific figures; rejecting them elsewhere beats
    // silently ignoring them.
    let takes_json = matches!(
        figure.as_str(),
        "scaling" | "micro" | "vectorization" | "optimizer" | "adversity" | "all"
    );
    if !takes_json && json.is_some() {
        eprintln!(
            "--json applies only to scaling, micro, vectorization, optimizer, adversity (or all)"
        );
        usage();
    }
    if threads.is_some() && figure != "scaling" && figure != "all" {
        eprintln!("--threads applies only to the `scaling` (or `all`) figure");
        usage();
    }
    if baseline.is_some() && figure != "micro" && figure != "optimizer" {
        eprintln!("--baseline applies only to the `micro` and `optimizer` figures");
        usage();
    }
    if reference.is_some() && figure != "vectorization" {
        eprintln!("--reference applies only to the `vectorization` figure");
        usage();
    }
    Options {
        figure,
        scale: scales[0],
        scales,
        threads: threads.unwrap_or(4),
        json,
        baseline,
        reference,
        optimize: optimize.unwrap_or(PassSet::ALL),
    }
}

/// Extract the first `"field": <number>` occurrence from a JSON report.
/// The reports are flat machine-written files, so a scan beats pulling a
/// JSON parser into the offline dependency set.
fn json_number(text: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Run the micro join bench, optionally writing JSON and gating against a
/// committed baseline: the job fails when the key-grouped batch probe path
/// (uniform or duplicate-key) or the coalesced node-delivery path is more
/// than 2x slower than the baseline's (the grouped gate is what keeps probe
/// sharing from silently degrading back to one lookup per trigger).
fn run_micro(options: &Options) {
    let result = micro_runtime();
    println!("{}", result.render());
    if let Some(path) = &options.json {
        std::fs::write(path, result.to_json()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
    if let Some(path) = &options.baseline {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let mut failed = false;
        for (field, measured) in [
            ("indexed_grouped_us_per_trigger", result.indexed_grouped_us),
            ("dup_grouped_us_per_trigger", result.dup_grouped_us),
            (
                "delivery_coalesced_us_per_trigger",
                result.delivery_coalesced_us,
            ),
        ] {
            let committed =
                json_number(&text, field).unwrap_or_else(|| panic!("{path} has no {field}"));
            println!(
                "baseline gate [{field}]: measured {measured:.3} µs vs committed \
                 {committed:.3} µs (limit {:.3} µs)",
                committed * 2.0
            );
            if measured > committed * 2.0 {
                eprintln!("FAIL: {field} regressed more than 2x vs {path}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

/// Run the batch-vectorization report (micro bench + scaling at 1/2/4
/// threads), pulling the before-change reference out of a prior scaling
/// JSON when one is given.
fn run_vectorization(options: &Options) {
    let reference = options.reference.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let wall = json_number(&text, "wall_seconds")
            .unwrap_or_else(|| panic!("{path} has no wall_seconds"));
        let messages = json_number(&text, "messages")
            .unwrap_or_else(|| panic!("{path} has no messages")) as usize;
        ScalingReference {
            wall_seconds: wall,
            messages,
        }
    });
    let result = batch_vectorization(options.scale, reference);
    println!("{}", result.render());
    if let Some(path) = &options.json {
        std::fs::write(path, result.to_json()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}

/// Thread counts measured by the scaling figure: powers of two up to (and
/// including) `max`.
fn thread_ladder(max: usize) -> Vec<usize> {
    let mut counts = vec![1];
    let mut n = 2;
    while n < max {
        counts.push(n);
        n *= 2;
    }
    if max > 1 {
        counts.push(max);
    }
    counts
}

fn run_scaling(options: &Options) {
    let counts = thread_ladder(options.threads);
    let result = ScalingTrajectory {
        entries: options
            .scales
            .iter()
            .map(|&scale| parallel_scaling(scale, &counts))
            .collect(),
    };
    println!("{}", result.render());
    if let Some(path) = &options.json {
        std::fs::write(path, result.to_json()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}

fn magic_query_counts(scale: Scale) -> (usize, Vec<usize>) {
    match scale {
        Scale::Small | Scale::Medium => (12, vec![4, 8, 12]),
        _ => (200, vec![25, 50, 75, 100, 125, 150, 175, 200]),
    }
}

/// Run the optimizer bench, optionally writing `BENCH_optimizer.json` and
/// gating: (a) the fully-optimized pipeline must beat the unoptimized
/// all-pairs baseline on the first query (the whole point of magic sets),
/// and (b) against a committed report, the first-query traffic must not
/// regress more than 2x.
fn run_optimizer(options: &Options) {
    let (max, samples) = magic_query_counts(options.scale);
    let result = optimizer_bench(options.scale, max, &samples);
    println!("{}", result.render());
    if let Some(path) = &options.json {
        std::fs::write(path, result.to_json()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
    let measured = result.first_query_mb();
    let mut failed = false;
    println!(
        "direction gate: optimized first query {measured:.3} MB vs unoptimized baseline {:.3} MB",
        result.baseline_no_ms_mb
    );
    if measured >= result.baseline_no_ms_mb {
        eprintln!("FAIL: the optimized pipeline does not beat the unoptimized baseline");
        failed = true;
    }
    if let Some(path) = &options.baseline {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let committed = json_number(&text, "first_query_mb")
            .unwrap_or_else(|| panic!("{path} has no first_query_mb"));
        println!(
            "baseline gate [first_query_mb]: measured {measured:.3} MB vs committed \
             {committed:.3} MB (limit {:.3} MB)",
            committed * 2.0
        );
        if measured > committed * 2.0 {
            eprintln!("FAIL: first_query_mb regressed more than 2x vs {path}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn run_figure(figure: &str, options: &Options) {
    let scale = options.scale;
    let passes = options.optimize;
    match figure {
        "fig7" | "fig8" => {
            println!("{}", aggregate_selections_with(scale, passes).render());
        }
        "fig9" | "fig10" => {
            println!(
                "{}",
                periodic_aggregate_selections_with(scale, passes).render()
            );
        }
        "fig11" => {
            let (max, samples) = magic_query_counts(scale);
            let result = magic_sets_with(scale, max, &samples, passes);
            println!("{}", result.render());
            if let Some(cross) = result.crossover("MS") {
                println!("MS line crosses the No-MS baseline after {cross} queries");
            } else {
                println!("MS line stays below the No-MS baseline for the measured range");
            }
        }
        "fig12" => {
            println!("{}", message_sharing_with(scale, passes).render());
        }
        "fig13" => {
            println!(
                "{}",
                incremental_updates_with(scale, passes)
                    .render("Figure 13: bursty link updates every 10 s (Random metric)")
            );
        }
        "fig14" => {
            println!(
                "{}",
                incremental_updates_interleaved_with(scale, passes)
                    .render("Figure 14: interleaved 2 s / 8 s update bursts (Random metric)")
            );
        }
        "scaling" => {
            run_scaling(options);
        }
        "micro" => {
            run_micro(options);
        }
        "vectorization" => {
            run_vectorization(options);
        }
        "optimizer" => {
            run_optimizer(options);
        }
        "adversity" => {
            let result = adversity(options.scale, ADVERSITY_SEED);
            println!("{}", result.render());
            if let Some(path) = &options.json {
                std::fs::write(path, result.to_json())
                    .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                println!("wrote {path}");
            }
            // The grid is its own gate: a cell that misses the oracle or
            // diverges across thread counts is a bug, not a data point.
            if result.cells.iter().any(|c| !c.converged || !c.identical) {
                eprintln!("FAIL: an adversity cell did not converge (or was not thread-identical)");
                std::process::exit(1);
            }
        }
        "summary" => {
            summary(scale);
        }
        "all" => {
            for f in [
                "fig7", "fig9", "fig11", "fig12", "fig13", "fig14", "scaling", "summary",
            ] {
                run_figure(f, options);
                println!();
            }
        }
        _ => usage(),
    }
}

/// The quantitative claims of Section 6's summary, paper value vs measured.
fn summary(scale: Scale) {
    println!("Section 6 summary claims (paper vs this reproduction, scale: {scale:?})");
    let eager = aggregate_selections(scale);
    let periodic = periodic_aggregate_selections(scale);

    println!("\nClaim 1/2: periodic aggregate selections reduce communication (paper: 12-29%)");
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "metric", "eager MB", "periodic MB", "reduction"
    );
    for metric in Metric::ALL {
        let e = eager.run_for(metric).total_mb;
        let p = periodic.run_for(metric).total_mb;
        let reduction = if e > 0.0 { (1.0 - p / e) * 100.0 } else { 0.0 };
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>11.1}%",
            metric.label(),
            e,
            p,
            reduction
        );
    }
    println!("\nConvergence order (paper: Hop-Count fastest at 4.4 s, Random slowest at 5.8 s):");
    for metric in Metric::ALL {
        println!(
            "  {:<14} {:>8.2} s   {:>8.2} MB",
            metric.label(),
            eager.run_for(metric).convergence_seconds,
            eager.run_for(metric).total_mb
        );
    }

    println!(
        "\nClaim 3: message sharing reduces communication (paper: 34% total, peak 27 -> 16 kBps)"
    );
    let sharing = message_sharing(scale);
    println!(
        "  No-Share {:.2} MB (peak {:.2} kBps) vs Share {:.2} MB (peak {:.2} kBps): {:.0}% reduction",
        sharing.no_share_mb,
        sharing.no_share.peak(),
        sharing.share_mb,
        sharing.share.peak(),
        sharing.reduction() * 100.0
    );

    println!("\nClaim 4: incremental evaluation under bursty updates (paper: burst peak ~32% of initial peak, ~26% of aggregate)");
    let inc = incremental_updates(scale);
    println!(
        "  initial {:.2} MB / peak {:.2} kBps; burst avg {:.3} MB / peak {:.2} kBps ({:.0}% of peak, {:.0}% of traffic)",
        inc.initial_mb,
        inc.initial_peak_kbps,
        inc.avg_burst_mb,
        inc.burst_peak_kbps,
        inc.peak_ratio() * 100.0,
        inc.traffic_ratio() * 100.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_args(&args);
    run_figure(&options.figure.clone(), &options);
}

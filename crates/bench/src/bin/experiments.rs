//! Command-line driver that regenerates the paper's figures.
//!
//! ```text
//! cargo run --release -p ndlog-bench --bin experiments -- <figure> [scale] [--optimize P]
//!
//! <figure>    fig7 | fig8 | fig9 | fig10 | fig11 | fig12 | fig13 | fig14 |
//!             summary | adversity | all
//! [scale]     paper (default, 100 nodes) | small (14 nodes) | medium (52) |
//!             large (264)
//! --optimize P  optimizer pass level: off | magic | reorder | all (default
//!             all). Every figure's plans compile through the same
//!             optimizer pipeline; this flag restricts which rewrite
//!             passes it applies.
//! ```
//!
//! Figures 7/8 and 9/10 come from the same runs, so either name prints both
//! series. Tables go to stdout and are deterministic: the stdout of
//! `all small` and `adversity small` is committed under `ledger/`
//! (`sh ledger/update.sh` rewrites it), and `adversity` exits 1 when a cell
//! misses the Dijkstra oracle or differs between executor thread counts.
//! Wall-clock performance is measured by `benchmark/`, not here.

#![forbid(unsafe_code)]

use ndlog_bench::experiments::{
    adversity, aggregate_selections, incremental_updates, incremental_updates_interleaved,
    magic_sets, message_sharing, periodic_aggregate_selections, ADVERSITY_SEED,
};
use ndlog_bench::Scale;
use ndlog_lang::PassSet;
use ndlog_net::topology::Metric;

const USAGE: &str = "usage: experiments \
    <fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|summary|adversity|all> \
    [paper|small|medium|large] [--optimize off|magic|reorder|all]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn magic_query_counts(scale: Scale) -> (usize, Vec<usize>) {
    match scale {
        Scale::Small | Scale::Medium => (12, vec![4, 8, 12]),
        _ => (200, vec![25, 50, 75, 100, 125, 150, 175, 200]),
    }
}

fn run_figure(figure: &str, scale: Scale, passes: PassSet) {
    match figure {
        "fig7" | "fig8" => {
            println!("{}", aggregate_selections(scale, passes).render());
        }
        "fig9" | "fig10" => {
            println!("{}", periodic_aggregate_selections(scale, passes).render());
        }
        "fig11" => {
            let (max, samples) = magic_query_counts(scale);
            let result = magic_sets(scale, max, &samples, passes);
            println!("{}", result.render());
            if let Some(cross) = result.crossover("MS") {
                println!("MS line crosses the No-MS baseline after {cross} queries");
            } else {
                println!("MS line stays below the No-MS baseline for the measured range");
            }
        }
        "fig12" => {
            println!("{}", message_sharing(scale, passes).render());
        }
        "fig13" => {
            println!(
                "{}",
                incremental_updates(scale, passes)
                    .render("Figure 13: bursty link updates every 10 s (Random metric)")
            );
        }
        "fig14" => {
            println!(
                "{}",
                incremental_updates_interleaved(scale, passes)
                    .render("Figure 14: interleaved 2 s / 8 s update bursts (Random metric)")
            );
        }
        "adversity" => {
            let result = adversity(scale, ADVERSITY_SEED);
            println!("{}", result.render());
            // The grid is its own gate: a cell that misses the oracle or
            // diverges across thread counts is a bug, not a data point.
            if result.cells.iter().any(|c| !c.converged || !c.identical) {
                eprintln!("FAIL: an adversity cell did not converge (or was not thread-identical)");
                std::process::exit(1);
            }
        }
        "summary" => {
            summary(scale, passes);
        }
        "all" => {
            for f in [
                "fig7", "fig9", "fig11", "fig12", "fig13", "fig14", "summary",
            ] {
                run_figure(f, scale, passes);
                println!();
            }
        }
        _ => usage(),
    }
}

/// The quantitative claims of Section 6's summary, paper value vs measured.
fn summary(scale: Scale, passes: PassSet) {
    println!("Section 6 summary claims (paper vs this reproduction, scale: {scale:?})");
    let eager = aggregate_selections(scale, passes);
    let periodic = periodic_aggregate_selections(scale, passes);

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
    let sharing = message_sharing(scale, passes);
    println!(
        "  No-Share {:.2} MB (peak {:.2} kBps) vs Share {:.2} MB (peak {:.2} kBps): {:.0}% reduction",
        sharing.no_share_mb,
        sharing.no_share.peak(),
        sharing.share_mb,
        sharing.share.peak(),
        sharing.reduction() * 100.0
    );

    println!("\nClaim 4: incremental evaluation under bursty updates (paper: burst peak ~32% of initial peak, ~26% of aggregate)");
    let inc = incremental_updates(scale, passes);
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
    let mut positional = Vec::new();
    let mut passes = PassSet::ALL;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--optimize" => {
                passes = iter
                    .next()
                    .and_then(|v| PassSet::parse(v))
                    .unwrap_or_else(|| usage());
            }
            _ if arg.starts_with('-') => usage(),
            _ => positional.push(arg.as_str()),
        }
    }
    match positional[..] {
        [figure] => run_figure(figure, Scale::Paper, passes),
        [figure, scale] => run_figure(
            figure,
            Scale::parse(scale).unwrap_or_else(|| usage()),
            passes,
        ),
        _ => usage(),
    }
}

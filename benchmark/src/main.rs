//! The benchmark for the whole NDlog stack.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- selftest
//! ```
//!
//! `run --workload W` measures one workload in this process and prints
//! every metric by name with its unit, then one JSON object as the last
//! line of standard output. Without `--workload`, every workload runs in
//! its own child process under a deadline. `--trace 0` (the default)
//! reports the end-to-end metrics from untraced rounds; `--trace 1` runs
//! the traced round and reports the per-layer metrics. `selftest` runs all
//! four workloads at 14 nodes with every check on. See `README.md`.

mod driver;
mod inputs;
mod metrics;
mod oracle;
mod rng;
mod serve;
mod sim;
mod stats;
mod trace;
mod workload;

use inputs::Sizes;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use rng::{derive, Digest};
use serve::Serve;
use sim::{Kind, Sim};
use stats::{median, percentile, summary, tail_percentile};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Checks, Layers, Round};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 25.0;
/// Timed rounds a run rests on at the least. The counts (`wire_mb`) are
/// taken over exactly these, so they repeat whatever the host's speed.
const MIN_ROUNDS: usize = 6;
/// No new round starts once a run has taken this long, whatever
/// `--seconds` asked for: the caller's own limit is 180 s.
const ROUND_BUDGET: Duration = Duration::from_secs(100);
/// A single-workload run that is still going after this long is a hang.
const RUN_DEADLINE: Duration = Duration::from_secs(170);
/// Executor threads of the parallel round: `min(nproc, 4)`, at least 2.
fn par_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .clamp(2, 4)
}

enum Workload {
    Sim(Sim),
    Serve(Serve),
}

impl Workload {
    /// The workload with the inputs of round `round` of a run.
    ///
    /// Every round draws its own inputs from the run's seed. How much work
    /// one drawn overlay causes differs by 10-15 % from the next, so a run
    /// that repeated one draw would report that draw's luck; a run that
    /// takes the median over many draws reports the workload.
    fn build(name: &str, sizes: &Sizes, seed: u64, round: usize, traced: bool) -> Option<Workload> {
        let seed = derive(seed, &format!("round {round}"));
        Some(match name {
            "converge_dense" => Workload::Sim(Sim::new(Kind::ConvergeDense, sizes, seed)),
            "route_sparse_1k" => Workload::Sim(Sim::new(Kind::RouteSparse, sizes, seed)),
            "churn_dred" => Workload::Sim(Sim::new(Kind::ChurnDred, sizes, seed)),
            "serve_mixed" => Workload::Serve(Serve::new(sizes, seed, traced)),
            _ => return None,
        })
    }

    fn input_digest(&self) -> &str {
        match self {
            Workload::Sim(w) => &w.input_digest,
            Workload::Serve(w) => &w.input_digest,
        }
    }

    fn round(&self, tracer: &mut Tracer) -> Round {
        match self {
            Workload::Sim(w) => w.round(1, tracer).round,
            Workload::Serve(w) => w.round(tracer),
        }
    }

    fn traced(&self, tracer: &mut Tracer) -> (Layers, Checks) {
        match self {
            Workload::Sim(w) => w.traced(par_threads(), tracer),
            Workload::Serve(w) => w.traced(tracer),
        }
    }
}

/// How long and how often a run measures.
#[derive(Clone, Copy)]
struct Plan {
    seconds: f64,
    min_rounds: usize,
    warm_up: bool,
    /// Prefix of the trace file's name, so that a selftest trace does not
    /// pass for a full-size one.
    trace_prefix: &'static str,
}

/// What a run reports: the contract's four keys, plus the text printed
/// above the JSON line.
struct Report {
    checks: Checks,
    metrics: Vec<(&'static str, f64, &'static str)>,
    text: String,
}

impl Report {
    /// Every value must be a number; an end-to-end value must also be
    /// above zero, or the run measured nothing.
    fn correct(&self, trace: bool) -> bool {
        self.checks.failed == 0
            && self.checks.attempted > 0
            && self
                .metrics
                .iter()
                .all(|&(_, v, _)| v.is_finite() && (trace || v > 0.0))
    }

    fn json(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(trace),
            self.checks.attempted.max(1),
            self.checks.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: a discarded warm-up round, then timed rounds for
/// `seconds`, at least `min_rounds` of them. `inputs(r)` makes the
/// workload with the inputs of round `r`, outside the timing.
fn run_untraced(inputs: impl Fn(usize) -> Workload, plan: Plan) -> Report {
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    let mut digest = Digest::new();
    let started = Instant::now();
    if plan.warm_up {
        // The first round of a process runs several times slower than the
        // rest (cold allocator and interner); its checks still count.
        checks.absorb(inputs(0).round(&mut tracer).checks);
    }
    let measuring = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        // A round starts only if one of the length seen so far (inputs and
        // checks included) would still end inside `seconds`.
        let n = rounds.len();
        let elapsed = measuring.elapsed().as_secs_f64();
        let fits = elapsed + elapsed / n.max(1) as f64 <= plan.seconds;
        if n >= plan.min_rounds && (!fits || started.elapsed() > ROUND_BUDGET) {
            break;
        }
        let workload = inputs(n + 1);
        if n < plan.min_rounds {
            digest.str(workload.input_digest());
        }
        rounds.push(workload.round(&mut tracer));
    }

    let column = |f: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let setup = column(|r| r.setup_s);
    let wall = column(|r| r.wall_s);
    // Counts come from the rounds every run completes, so that they are
    // the same on a fast and on a slow host.
    let wire: Vec<f64> = column(|r| r.wire_mb)[..plan.min_rounds].to_vec();
    let ops_per_round = rounds.iter().map(|r| r.ops_ms.len()).min().unwrap_or(0);
    let tail = tail_percentile(ops_per_round);
    let op_p50: Vec<f64> = rounds.iter().map(|r| median(&r.ops_ms)).collect();
    let op_tail: Vec<f64> = rounds.iter().map(|r| percentile(&r.ops_ms, tail)).collect();
    for round in &mut rounds {
        checks.absorb(std::mem::take(&mut round.checks));
    }

    let mut text = String::new();
    let _ = writeln!(
        text,
        "input_digest {} over the first {} timed rounds",
        digest.hex(),
        plan.min_rounds
    );
    let _ = writeln!(text, "wall_s per round {wall:.4?}");
    let mut metrics = Vec::new();
    let mut timing = |name: &'static str, samples: &[f64], note: String| {
        let s = summary(samples);
        let unit = unit_of(END_TO_END, name);
        let _ = writeln!(
            text,
            "{name:<14} {:>14.6} {unit:<3} rounds {} min {:.6} iqr {:.6}{note}",
            s.median, s.rounds, s.min, s.iqr
        );
        metrics.push((name, s.median, unit));
    };
    timing("setup_s", &setup, String::new());
    timing("wall_s", &wall, String::new());
    timing(
        "op_p50_ms",
        &op_p50,
        format!(", p50 of {ops_per_round} operation(s) per round"),
    );
    timing(
        "op_tail_ms",
        &op_tail,
        format!(", p{tail} of {ops_per_round} operation(s) per round"),
    );
    timing("wire_mb", &wire, String::new());
    let rss = peak_rss_mb();
    let _ = writeln!(text, "{:<14} {rss:>14.6} MB", "peak_rss_mb");
    metrics.push(("peak_rss_mb", rss, "MB"));
    Report {
        checks,
        metrics,
        text,
    }
}

/// The traced run: a discarded warm-up round, then the workload's traced
/// round. The spans are written to `out/trace-<workload>.json`.
fn run_traced(workload: &Workload, file_stem: &str, seed: u64, warm_up: bool) -> Report {
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    let mut text = format!("input_digest {}\n", workload.input_digest());
    if warm_up {
        checks.absorb(workload.round(&mut tracer).checks);
    }
    let (layers, traced_checks) = workload.traced(&mut tracer);
    checks.absorb(traced_checks);

    for unknown in layers
        .keys()
        .filter(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
    {
        checks.fail(format!("{unknown} is not a per-layer metric"));
    }
    let mut metrics = Vec::new();
    for &(metric, unit) in PER_LAYER {
        let value = layers.get(metric).copied().unwrap_or(0.0);
        let _ = writeln!(text, "{metric:<36} {value:>18.6} {unit}");
        metrics.push((metric, value, unit));
    }
    let _ = writeln!(text, "self time by span name:");
    for (span, total) in tracer.totals() {
        let _ = writeln!(
            text,
            "  {span:<32} calls {:>7} total {:>14.1} us self {:>14.1} us",
            total.count, total.total_us, total.self_us
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{file_stem}.json"));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(file_stem, seed)))
    {
        Ok(()) => {
            let _ = writeln!(
                text,
                "wrote {} spans to {}",
                tracer.spans().len(),
                path.display()
            );
        }
        Err(e) => checks.fail(format!("cannot write {}: {e}", path.display())),
    }
    Report {
        checks,
        metrics,
        text,
    }
}

fn unit_of(list: &[(&'static str, &'static str)], name: &str) -> &'static str {
    list.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .expect("a listed metric")
}

/// Run one workload in this process and print its report. Returns whether
/// it was correct.
fn run_one(name: &str, sizes: &Sizes, seed: u64, plan: Plan, trace: bool) -> bool {
    if !WORKLOADS.contains(&name) {
        eprintln!("unknown workload {name:?}; the workloads are {WORKLOADS:?}");
        return false;
    }
    let inputs =
        |round: usize| Workload::build(name, sizes, seed, round, trace).expect("a listed workload");
    println!(
        "workload {name} seed {seed} trace {} nproc {}",
        u8::from(trace),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let report = if trace {
        let stem = format!("{}{name}", plan.trace_prefix);
        run_traced(&inputs(0), &stem, seed, plan.warm_up)
    } else {
        run_untraced(inputs, plan)
    };
    print!("{}", report.text);
    let share = report.checks.failed as f64 / report.checks.attempted.max(1) as f64;
    println!(
        "failed_share   {share:>14.6}     {} of {} operations",
        report.checks.failed, report.checks.attempted
    );
    for message in &report.checks.messages {
        eprintln!("FAILED: {message}");
    }
    println!("{}", report.json(trace));
    report.correct(trace)
}

/// Run every workload in a child process of its own, each under a
/// deadline, so that one workload's memory high-water mark or hang does
/// not touch the next.
fn run_all(seed: u64, seconds: f64, trace: bool) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    for name in WORKLOADS {
        let mut child = Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .spawn()
            .expect("spawn own executable");
        let started = Instant::now();
        let status = loop {
            match child.try_wait().expect("wait for child") {
                Some(status) => break Some(status),
                None if started.elapsed() > RUN_DEADLINE + Duration::from_secs(5) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        match status {
            Some(status) if status.success() => {}
            Some(status) => {
                eprintln!("FAILED: {name} exited with {status}");
                all_ok = false;
            }
            None => {
                eprintln!("FAILED: {name} passed its deadline and was killed");
                all_ok = false;
            }
        }
    }
    all_ok
}

/// All four workloads at 14 nodes, untraced and traced, every check on.
fn selftest() -> bool {
    let plan = Plan {
        seconds: 0.0,
        min_rounds: 1,
        warm_up: false,
        trace_prefix: "selftest-",
    };
    let mut all_ok = true;
    for name in WORKLOADS {
        for trace in [false, true] {
            all_ok &= run_one(name, &Sizes::SELFTEST, DEFAULT_SEED, plan, trace);
        }
    }
    println!("selftest {}", if all_ok { "passed" } else { "FAILED" });
    all_ok
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ndlog-benchmark run [--workload {}] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      ndlog-benchmark selftest",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("selftest") if args.len() == 1 => {
            return if selftest() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        Some("run") => {}
        _ => return usage(),
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let Some(value) = rest.next() else {
            return usage();
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v| seconds = v)
                .is_ok_and(|()| seconds.is_finite() && seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !parsed {
            return usage();
        }
    }
    let ok = match workload {
        Some(name) => {
            // A hang anywhere becomes a non-zero exit, never a stuck run.
            std::thread::spawn(|| {
                std::thread::sleep(RUN_DEADLINE);
                eprintln!("FAILED: run passed its deadline of {RUN_DEADLINE:?}");
                std::process::exit(3);
            });
            let plan = Plan {
                seconds,
                min_rounds: MIN_ROUNDS,
                warm_up: true,
                trace_prefix: "",
            };
            run_one(&name, &Sizes::FULL, seed, plan, trace)
        }
        None => run_all(seed, seconds, trace),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selftest_passes() {
        assert!(selftest());
    }

    #[test]
    fn every_round_draws_its_own_inputs_from_the_seed() {
        for name in WORKLOADS {
            let digest = |seed: u64, round: usize| {
                Workload::build(name, &Sizes::SELFTEST, seed, round, false)
                    .expect("a listed workload")
                    .input_digest()
                    .to_string()
            };
            assert_eq!(digest(1, 0), digest(1, 0), "{name}");
            assert_ne!(digest(1, 0), digest(1, 1), "{name}");
            assert_ne!(digest(1, 1), digest(2, 1), "{name}");
        }
    }

    #[test]
    fn report_json_has_the_contract_keys() {
        let report = Report {
            checks: Checks {
                attempted: 10,
                failed: 0,
                messages: Vec::new(),
            },
            metrics: vec![("wall_s", 1.25, "s"), ("setup_s", 0.5, "s")],
            text: String::new(),
        };
        assert_eq!(
            report.json(false),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let zero = Report {
            metrics: vec![("wall_s", 0.0, "s")],
            ..report
        };
        assert!(!zero.correct(false));
        assert!(zero.correct(true));
    }
}

//! Pretty-prints one run manifest, or diffs two and runs the checks
//! its flags arm.
//!
//! ```text
//! cargo run -p leo-bench --bin perf_report -- results/fig1.meta.json
//! cargo run -p leo-bench --bin perf_report -- baseline.meta.json candidate.meta.json
//! cargo run -p leo-bench --bin perf_report -- baseline.meta.json candidate.meta.json \
//!     --min-qps-ratio 0.85
//! cargo run -p leo-bench --bin perf_report -- baseline.meta.json candidate.meta.json \
//!     --p99-tol 3.0 --quantile-metric serve.query_latency_s --md-report watchdog.md
//! cargo run -p leo-bench --bin perf_report -- --same-work t4.meta.json t1.meta.json \
//!     --require serve.queries --require serve.served
//! ```
//!
//! With one manifest: configuration, phase wall-clocks, counters,
//! histogram summaries, and time series. With two: per-phase speedup
//! (baseline over candidate) and counter deltas — the quick answer to
//! "did my change make the sweep faster, and did it change how much work
//! was done?". Every flag arms a check on the pair, so every flag needs
//! exactly two manifests; any failed check exits nonzero.
//!
//! * `--min-qps-ratio R` is the serve throughput gate: each side's
//!   `serve.sweep_queries` counter (the main sweep's queries) over its
//!   `sweep` phase wall clock, and candidate/baseline may not fall below
//!   `R`.
//! * `--p50-tol`/`--p99-tol`/`--quantile-metric`/`--md-report` arm the
//!   quantile watchdog (`leo_bench::watchdog::compare`): histogram
//!   p50/p99 may grow by at most their tolerance factor.
//!   `--quantile-metric NAME` (repeatable) restricts the checks to the
//!   named histograms, each of which must be in both manifests;
//!   `--md-report PATH` writes the findings as a markdown table (CI job
//!   summaries).
//! * `--same-work` is the determinism check
//!   (`leo_bench::watchdog::same_work`): the two runs must report equal
//!   counters and bitwise-equal work time series. `--require NAME`
//!   (repeatable) names a counter or work series the first manifest must
//!   carry.

use leo_bench::cli::RunManifest;
use leo_bench::watchdog::{self, WatchdogConfig};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perf_report A.meta.json [B.meta.json] [--min-qps-ratio R] \
     [--p50-tol T] [--p99-tol T] [--quantile-metric NAME]... [--md-report PATH] \
     [--same-work [--require NAME]...]\n\
     every flag compares baseline A with candidate B, so it needs both manifests";

/// The throughput gate's work counter and the phase it is timed over:
/// `serve_bench` records the main sweep's own query count, so the rate
/// covers exactly the work the `sweep` phase timed.
const QPS_COUNTER: &str = "serve.sweep_queries";
const QPS_PHASE: &str = "sweep";

/// Watchdog settings: `config` is applied only when `armed` (any
/// watchdog flag was given).
#[derive(Default)]
struct Watchdog {
    armed: bool,
    config: WatchdogConfig,
    md_report: Option<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut min_qps_ratio = None;
    let mut dog = Watchdog::default();
    let mut same_work = false;
    let mut require: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--min-qps-ratio" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(r)) if r > 0.0 => min_qps_ratio = Some(r),
                _ => return fail("--min-qps-ratio needs a positive number"),
            },
            "--p50-tol" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(t)) if t >= 1.0 => (dog.armed, dog.config.p50_tol) = (true, t),
                _ => return fail("--p50-tol needs a number >= 1"),
            },
            "--p99-tol" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(t)) if t >= 1.0 => (dog.armed, dog.config.p99_tol) = (true, t),
                _ => return fail("--p99-tol needs a number >= 1"),
            },
            "--quantile-metric" => match it.next() {
                Some(v) => {
                    dog.armed = true;
                    dog.config.metrics.push(v.clone());
                }
                None => return fail("--quantile-metric needs a histogram name"),
            },
            "--md-report" => match it.next() {
                Some(v) => {
                    dog.armed = true;
                    dog.md_report = Some(v.clone());
                }
                None => return fail("--md-report needs a file path"),
            },
            "--same-work" => same_work = true,
            "--require" => match it.next() {
                Some(v) => require.push(v.clone()),
                None => return fail("--require needs a counter or work-series name"),
            },
            flag if flag.starts_with("--") => return fail(&format!("unknown flag {flag}")),
            path => paths.push(path),
        }
    }
    if !require.is_empty() && !same_work {
        return fail("--require only applies to --same-work");
    }
    let compares = min_qps_ratio.is_some() || dog.armed || same_work;
    match (paths.as_slice(), compares) {
        ([one], false) => match RunManifest::load(Path::new(one)) {
            Ok(m) => {
                print_single(&m);
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        },
        ([base, cand], _) => {
            let (b, c) = match (
                RunManifest::load(Path::new(base)),
                RunManifest::load(Path::new(cand)),
            ) {
                (Ok(b), Ok(c)) => (b, c),
                (Err(e), _) | (_, Err(e)) => return fail(&e),
            };
            print_diff(&b, &c);
            let passed = [
                min_qps_ratio.map_or(true, |r| check_qps_gate(&b, &c, r)),
                !dog.armed || check_watchdog(&b, &c, &dog, base, cand),
                !same_work || check_same_work(&b, &c, &require),
            ];
            if passed.iter().all(|&p| p) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => fail(USAGE),
    }
}

/// Runs the quantile watchdog: prints the verdict, writes the optional
/// markdown report, and reports each finding on stderr.
fn check_watchdog(
    base: &RunManifest,
    cand: &RunManifest,
    dog: &Watchdog,
    base_path: &str,
    cand_path: &str,
) -> bool {
    let report = watchdog::compare(base, cand, &dog.config);
    println!(
        "\nquantile watchdog: {} histogram(s) checked (p50 tol {:.2}, p99 tol {:.2})",
        report.histograms_checked, dog.config.p50_tol, dog.config.p99_tol,
    );
    if let Some(path) = &dog.md_report {
        let md = report.markdown(base_path, cand_path);
        match std::fs::write(path, md) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
    }
    for f in &report.findings {
        eprintln!("perf_report: {f}");
    }
    if report.is_clean() {
        println!("quantile watchdog passed");
    }
    report.is_clean()
}

/// Runs the determinism check: the two runs must report the same work.
fn check_same_work(a: &RunManifest, b: &RunManifest, require: &[String]) -> bool {
    let report = watchdog::same_work(a, b, require);
    println!(
        "\nsame work: {} counter(s) and {} work time series identical, {} required name(s) checked",
        report.counters_equal,
        report.series_equal,
        require.len()
    );
    for offender in &report.offenders {
        eprintln!("perf_report: same-work: {offender}");
    }
    if report.offenders.is_empty() {
        println!("same-work check passed");
    }
    report.offenders.is_empty()
}

/// Applies the throughput gate to a diffed pair: candidate qps must be
/// at least `min_ratio` of baseline qps. A manifest that cannot produce
/// a rate (counter or phase missing — e.g. a run without `LEO_OBS=1`)
/// fails the gate loudly rather than passing vacuously.
fn check_qps_gate(base: &RunManifest, cand: &RunManifest, min_ratio: f64) -> bool {
    let rate = |m: &RunManifest, side: &str| match m.rate_per_sec(QPS_COUNTER, QPS_PHASE) {
        Some(r) if r > 0.0 => Some(r),
        _ => {
            eprintln!(
                "perf_report: {side} manifest has no rate for counter '{QPS_COUNTER}' over \
                 phase '{QPS_PHASE}' (was the run made with LEO_OBS=1?)"
            );
            None
        }
    };
    let (Some(b), Some(c)) = (rate(base, "baseline"), rate(cand, "candidate")) else {
        return false;
    };
    let ratio = c / b;
    println!(
        "\nthroughput gate: {QPS_COUNTER} over {QPS_PHASE} — baseline {b:.0}/s, \
         candidate {c:.0}/s, ratio {ratio:.3} (min {min_ratio:.3})"
    );
    if ratio < min_ratio {
        eprintln!(
            "perf_report: throughput regression — candidate is {:.1}% of baseline, below the {:.1}% floor",
            100.0 * ratio,
            100.0 * min_ratio
        );
        false
    } else {
        println!("throughput gate passed");
        true
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("perf_report: {msg}");
    ExitCode::FAILURE
}

/// `1234567` → `1,234,567`; counters are long, commas keep them legible.
fn commas(n: u64) -> String {
    let digits = n.to_string();
    let groups: Vec<&str> = digits
        .as_bytes()
        .rchunks(3)
        .rev()
        .map(|chunk| std::str::from_utf8(chunk).expect("decimal digits are ASCII"))
        .collect();
    groups.join(",")
}

/// Seconds with a unit that keeps 3 significant digits readable.
fn secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

fn print_single(m: &RunManifest) {
    println!(
        "run {} — total {}, {} threads, obs={}{}",
        m.name,
        secs(m.total_s),
        m.threads,
        m.obs_level,
        if m.quick { ", quick" } else { "" },
    );
    if !m.phases.is_empty() {
        println!("\nphases:");
        for p in &m.phases {
            let pct = if m.total_s > 0.0 {
                100.0 * p.wall_s / m.total_s
            } else {
                0.0
            };
            println!("  {:<28} {:>12}  {:>5.1}%", p.name, secs(p.wall_s), pct);
        }
    }
    if !m.counters.is_empty() {
        println!("\ncounters:");
        for c in &m.counters {
            println!("  {:<36} {:>18}", c.name, commas(c.value));
        }
    }
    if !m.histograms.is_empty() {
        println!("\nhistograms:");
        println!(
            "  {:<28} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "name", "count", "mean", "p50", "p99", "max"
        );
        for h in &m.histograms {
            println!(
                "  {:<28} {:>10} {:>12} {:>12} {:>12} {:>12}",
                h.name,
                commas(h.count),
                secs(h.mean),
                secs(h.p50),
                secs(h.p99),
                secs(h.max),
            );
        }
    }
    if !m.timeseries.is_empty() {
        println!("\ntime series:");
        println!(
            "  {:<28} {:>8} {:>12} {:>12} {:>7}",
            "name", "points", "mean", "max", "kind"
        );
        for s in &m.timeseries {
            println!(
                "  {:<28} {:>8} {:>12.3} {:>12.3} {:>7}",
                s.name,
                s.points.len(),
                s.mean_value().unwrap_or(0.0),
                s.max_value().unwrap_or(0.0),
                if s.timing { "timing" } else { "work" },
            );
        }
    }
}

fn print_diff(base: &RunManifest, cand: &RunManifest) {
    println!(
        "baseline  {} — total {}, {} threads, obs={}{}",
        base.name,
        secs(base.total_s),
        base.threads,
        base.obs_level,
        if base.quick { ", quick" } else { "" },
    );
    println!(
        "candidate {} — total {}, {} threads, obs={}{}",
        cand.name,
        secs(cand.total_s),
        cand.threads,
        cand.obs_level,
        if cand.quick { ", quick" } else { "" },
    );
    if cand.total_s > 0.0 {
        println!("total speedup: {:.2}x", base.total_s / cand.total_s);
    }

    // Phases: union in baseline order, candidate-only ones after.
    let mut names: Vec<&str> = base.phases.iter().map(|p| p.name.as_str()).collect();
    for p in &cand.phases {
        if !names.contains(&p.name.as_str()) {
            names.push(&p.name);
        }
    }
    if !names.is_empty() {
        println!(
            "\nphases: {:<28} {:>12} {:>12} {:>9}",
            "", "baseline", "candidate", "speedup"
        );
        for name in names {
            let b = base.phase_wall(name);
            let c = cand.phase_wall(name);
            let speedup = match (b, c) {
                (Some(b), Some(c)) if c > 0.0 => format!("{:.2}x", b / c),
                _ => "-".to_string(),
            };
            println!(
                "        {:<28} {:>12} {:>12} {:>9}",
                name,
                b.map_or("-".into(), secs),
                c.map_or("-".into(), secs),
                speedup,
            );
        }
    }

    // Counters: union, sorted; deltas flag behavioural drift (a perf
    // change should not usually change how much work was done).
    let mut names: Vec<&str> = base
        .counters
        .iter()
        .chain(&cand.counters)
        .map(|c| c.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    if !names.is_empty() {
        println!(
            "\ncounters: {:<34} {:>16} {:>16} {:>14}",
            "", "baseline", "candidate", "delta"
        );
        for name in names {
            let b = base.counter(name);
            let c = cand.counter(name);
            let delta = match (b, c) {
                (Some(b), Some(c)) => {
                    let d = c as i128 - b as i128;
                    if d == 0 {
                        "=".to_string()
                    } else if b > 0 {
                        format!("{d:+} ({:+.1}%)", 100.0 * d as f64 / b as f64)
                    } else {
                        format!("{d:+}")
                    }
                }
                _ => "-".to_string(),
            };
            println!(
                "          {:<34} {:>16} {:>16} {:>14}",
                name,
                b.map_or("-".into(), commas),
                c.map_or("-".into(), commas),
                delta,
            );
        }
    }
}

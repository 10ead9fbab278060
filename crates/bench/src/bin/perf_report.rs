//! Pretty-prints one run manifest, diffs two, or checks that two
//! record the same work.
//!
//! ```text
//! cargo run -p leo-bench --bin perf_report -- results/fig1.meta.json
//! cargo run -p leo-bench --bin perf_report -- baseline.meta.json candidate.meta.json
//! cargo run -p leo-bench --bin perf_report -- --same-work t4.meta.json t1.meta.json \
//!     --require serve.queries --require serve.served
//! ```
//!
//! With one manifest: configuration, phase wall-clocks, counters,
//! histogram summaries, and time series. With two: per-phase speedup
//! (baseline over candidate) and counter deltas — the quick answer to
//! "did my change make the sweep faster, and did it change how much work
//! was done?".
//!
//! `--same-work` (two manifests) adds the determinism check
//! (`leo_bench::watchdog::same_work`): the two runs must report equal
//! counters and bitwise-equal work time series, or the exit code is
//! nonzero. `--require NAME` (repeatable) names a counter or work series
//! the first manifest must carry. CI runs it on a run's manifests at two
//! thread counts, and on a fresh full-mode run against the committed
//! manifest in `results/`.

use leo_bench::cli::RunManifest;
use leo_bench::watchdog;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perf_report A.meta.json [B.meta.json] [--same-work [--require NAME]...]\n\
     --same-work compares baseline A with candidate B, so it needs both manifests";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut same_work = false;
    let mut require: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
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
    match (paths.as_slice(), same_work) {
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
            if !same_work || check_same_work(&b, &c, &require) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => fail(USAGE),
    }
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

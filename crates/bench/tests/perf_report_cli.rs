//! `perf_report` driven as a process: argument arity and exit codes.
//!
//! Every comparison flag judges a pair of manifests, so given one
//! manifest it must fail with the usage message instead of silently
//! skipping the check. The determinism check and a missing watchdog
//! metric must fail by exit code, which is all CI sees.

use leo_bench::cli::{CounterRecord, PhaseRecord, RunManifest, TimeSeriesRecord};
use std::path::PathBuf;
use std::process::{Command, Output};

fn perf_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf_report"))
        .args(args)
        .output()
        .expect("perf_report runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Writes a small manifest with one counter and one work series under
/// the test's scratch directory and returns its path.
fn write_manifest(file: &str, queries: u64) -> String {
    write(file, &manifest(queries))
}

fn manifest(queries: u64) -> RunManifest {
    RunManifest {
        name: "serve".into(),
        quick: true,
        threads: 1,
        config_warnings: vec![],
        obs_level: "metrics".into(),
        total_s: 1.0,
        phases: vec![],
        counters: vec![CounterRecord {
            name: "serve.queries".into(),
            value: queries,
        }],
        histograms: vec![],
        timeseries: vec![TimeSeriesRecord {
            name: "serve.served".into(),
            timing: false,
            points: vec![(0.0, 5.0), (60.0, 6.0)],
        }],
    }
}

fn write(file: &str, m: &RunManifest) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, serde_json::to_string_pretty(m).unwrap()).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn every_comparison_flag_needs_exactly_two_manifests() {
    let one = write_manifest("arity.meta.json", 10);
    let report = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("arity.md");
    let report = report.to_str().unwrap();
    for flags in [
        &["--min-qps-ratio", "100"][..],
        &["--p50-tol", "2"],
        &["--p99-tol", "2"],
        &["--quantile-metric", "serve.query_latency_s"],
        &["--md-report", report],
        &["--same-work"],
    ] {
        for manifests in [&[][..], &[one.as_str()], &[&one, &one, &one]] {
            let args: Vec<&str> = manifests.iter().chain(flags).copied().collect();
            let out = perf_report(&args);
            assert!(!out.status.success(), "{args:?} exited 0");
            assert!(
                stderr(&out).contains("usage:"),
                "{args:?}: {}",
                stderr(&out)
            );
        }
    }
    // One manifest and no flag is the pretty-printer.
    let out = perf_report(&[&one]);
    assert!(out.status.success(), "{}", stderr(&out));
    // `--require` means nothing without `--same-work`.
    let out = perf_report(&[&one, &one, "--require", "serve.queries"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--same-work"), "{}", stderr(&out));
}

#[test]
fn same_work_exit_code_follows_the_comparison() {
    let a = write_manifest("same_a.meta.json", 10);
    let b = write_manifest("same_b.meta.json", 10);
    let changed = write_manifest("same_changed.meta.json", 11);
    let args =
        |x: &str, y: &str, require: &str| perf_report(&["--same-work", x, y, "--require", require]);
    let out = args(&a, &b, "serve.served");
    assert!(out.status.success(), "{}", stderr(&out));
    let out = args(&a, &changed, "serve.served");
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("counter serve.queries: 10 vs 11"),
        "{}",
        stderr(&out)
    );
    let out = args(&a, &b, "no.such.metric");
    assert!(!out.status.success());
    assert!(stderr(&out).contains("no.such.metric"), "{}", stderr(&out));
}

#[test]
fn a_missing_quantile_metric_fails_the_watchdog() {
    let a = write_manifest("watch_a.meta.json", 10);
    let out = perf_report(&[&a, &a, "--quantile-metric", "no.such.histogram"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("no.such.histogram is missing"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn the_qps_gate_counts_only_the_sweep_queries() {
    // Both runs answer 1,000 queries in all over a one-second sweep, but
    // the candidate's sweep answered only 500 of them: the whole-run
    // counter says "no change", the sweep's own count says half the rate.
    let run = |all: u64, sweep: u64| {
        let mut m = manifest(all);
        m.phases.push(PhaseRecord {
            name: "sweep".into(),
            wall_s: 1.0,
        });
        m.counters.push(CounterRecord {
            name: "serve.sweep_queries".into(),
            value: sweep,
        });
        m
    };
    let base = write("qps_base.meta.json", &run(1000, 1000));
    let slow = write("qps_slow.meta.json", &run(1000, 500));
    let out = perf_report(&[&base, &base, "--min-qps-ratio", "0.85"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = perf_report(&[&base, &slow, "--min-qps-ratio", "0.85"]);
    assert!(!out.status.success(), "a halved sweep rate passed the gate");
    assert!(
        stderr(&out).contains("50.0% of baseline"),
        "{}",
        stderr(&out)
    );
}

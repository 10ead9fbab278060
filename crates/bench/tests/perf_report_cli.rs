//! `perf_report` driven as a process: argument arity and exit codes.
//!
//! `--same-work` judges a pair of manifests, so given one manifest it
//! must fail with the usage message instead of silently skipping the
//! check, and a difference must fail by exit code, which is all CI sees.

use leo_bench::cli::{CounterRecord, RunManifest, TimeSeriesRecord};
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
    let m = RunManifest {
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
    };
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, serde_json::to_string_pretty(&m).unwrap()).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn every_comparison_flag_needs_exactly_two_manifests() {
    let one = write_manifest("arity.meta.json", 10);
    for manifests in [&[][..], &[one.as_str()], &[&one, &one, &one]] {
        let args: Vec<&str> = manifests.iter().copied().chain(["--same-work"]).collect();
        let out = perf_report(&args);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(
            stderr(&out).contains("usage:"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    // One manifest and no flag is the pretty-printer.
    let out = perf_report(&[&one]);
    assert!(out.status.success(), "{}", stderr(&out));
    // `--require` means nothing without `--same-work`.
    let out = perf_report(&[&one, &one, "--require", "serve.queries"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--same-work"), "{}", stderr(&out));
    // A script that still passes a removed gate's flag must fail loudly,
    // not run without the gate.
    for flag in [
        "--min-qps-ratio",
        "--p50-tol",
        "--p99-tol",
        "--quantile-metric",
        "--md-report",
    ] {
        let out = perf_report(&[&one, &one, flag, "2"]);
        assert!(!out.status.success(), "{flag} exited 0");
        assert!(
            stderr(&out).contains(&format!("unknown flag {flag}")),
            "{flag}: {}",
            stderr(&out)
        );
    }
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

//! Experiment binaries driven as processes: a run that cannot write its
//! results fails, `feasibility` writes the committed §4 result and
//! counts its committed manifest's work at any thread count, the
//! throughput lines count the work the sweep timed, and `explore`
//! rejects coordinates that cannot be a place on Earth. Only the exit
//! code and the output reach CI.

use leo_bench::cli::RunManifest;
use leo_bench::watchdog;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn feasibility(out_dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_feasibility"))
        .env_remove("LEO_QUICK")
        .env("LEO_OUT_DIR", out_dir)
        .output()
        .expect("feasibility runs")
}

fn explore(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(args)
        .output()
        .expect("explore runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Runs `bin --quick` into a fresh `out_dir` with `LEO_OBS` unset (so
/// no counter records) and returns its stdout.
fn quick_run(bin: &str, out_dir: &Path) -> String {
    let _ = std::fs::remove_dir_all(out_dir);
    let out = Command::new(bin)
        .arg("--quick")
        .env_remove("LEO_OBS")
        .env("LEO_OUT_DIR", out_dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", text(&out.stderr));
    text(&out.stdout)
}

/// The rate printed on the `# throughput: <rate> <unit> over the sweep
/// phase` line.
fn printed_rate(stdout: &str, unit: &str) -> String {
    let suffix = format!(" {unit} over the sweep phase");
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("# throughput: ")?.strip_suffix(&suffix))
        .unwrap_or_else(|| panic!("no {unit} throughput line in:\n{stdout}"))
        .to_string()
}

/// The `sweep` phase's wall time in the run manifest `path`.
fn sweep_wall_s(path: &Path) -> f64 {
    let manifest = RunManifest::load(path).unwrap_or_else(|e| panic!("{e}"));
    manifest.phase_wall("sweep").expect("sweep phase")
}

fn read_json<T: serde::de::DeserializeOwned>(path: &Path) -> T {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[derive(serde::Deserialize)]
struct ServeFile {
    sweep: leo_serve::SweepReport,
}

#[derive(serde::Deserialize)]
struct EdgeFile {
    sweep: leo_edge::EdgeReport,
}

#[test]
fn a_run_that_cannot_write_its_results_exits_nonzero() {
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("out_dir_is_a_file");
    std::fs::write(&file, "not a directory").unwrap();
    let out = feasibility(&file);
    assert!(!out.status.success(), "exited 0 without writing results");
    let stderr = text(&out.stderr);
    assert!(
        stderr.contains(file.to_str().unwrap()),
        "error does not name {}: {stderr}",
        file.display()
    );
}

#[test]
fn a_run_into_a_writable_dir_exits_zero_with_its_results() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("feasibility_out");
    let _ = std::fs::remove_dir_all(&dir);
    let out = feasibility(&dir);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let results = std::fs::read_to_string(dir.join("feasibility.json")).unwrap();
    assert!(results.contains("\"quantity\""), "{results}");
    assert!(dir.join("feasibility.meta.json").is_file());
    // The committed §4 result is what today's code writes.
    let committed =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/feasibility.json");
    let committed = std::fs::read_to_string(&committed)
        .unwrap_or_else(|e| panic!("{}: {e}", committed.display()));
    assert!(
        results == committed,
        "results/feasibility.json differs from a fresh run:\n{results}"
    );
}

#[test]
fn feasibility_counts_the_same_work_at_any_thread_count() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let manifest = |threads: &str| {
        let dir = tmp.join(format!("feasibility_t{threads}"));
        let _ = std::fs::remove_dir_all(&dir);
        let out = Command::new(env!("CARGO_BIN_EXE_feasibility"))
            .env_remove("LEO_QUICK")
            .env("LEO_OBS", "metrics")
            .env("LEO_THREADS", threads)
            .env("LEO_OUT_DIR", &dir)
            .output()
            .expect("feasibility runs");
        assert!(out.status.success(), "{}", text(&out.stderr));
        RunManifest::load(&dir.join("feasibility.meta.json")).unwrap_or_else(|e| panic!("{e}"))
    };
    let committed =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/feasibility.meta.json");
    let committed = RunManifest::load(&committed).unwrap_or_else(|e| panic!("{e}"));
    let (t1, t2) = (manifest("1"), manifest("2"));
    for (a, b) in [(&t1, &t2), (&committed, &t1), (&committed, &t2)] {
        let report = watchdog::same_work(a, b, &[]);
        assert!(report.offenders.is_empty(), "{:?}", report.offenders);
    }
}

#[test]
fn throughput_lines_count_the_work_the_sweep_timed() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));

    let dir = tmp.join("serve_quick_out");
    let stdout = quick_run(env!("CARGO_BIN_EXE_serve_bench"), &dir);
    let queries = read_json::<ServeFile>(&dir.join("serve.json"))
        .sweep
        .total_queries;
    let qps = queries as f64 / sweep_wall_s(&dir.join("serve.meta.json"));
    let printed = printed_rate(&stdout, "queries/sec");
    assert!(printed.parse::<f64>().unwrap() > 0.0, "{stdout}");
    assert_eq!(printed, format!("{qps:.0}"), "{queries} queries");

    let dir = tmp.join("edge_quick_out");
    let stdout = quick_run(env!("CARGO_BIN_EXE_fig_edge"), &dir);
    let ticks = read_json::<EdgeFile>(&dir.join("edge.json"))
        .sweep
        .ticks
        .len();
    let rate = ticks as f64 / sweep_wall_s(&dir.join("edge.meta.json"));
    let printed = printed_rate(&stdout, "ticks/sec");
    assert!(printed.parse::<f64>().unwrap() > 0.0, "{stdout}");
    assert_eq!(printed, format!("{rate:.1}"), "{ticks} ticks");
}

#[test]
fn explore_rejects_coordinates_off_the_globe() {
    for args in [
        ["visible", "starlink", "NaN", "3.38"],
        ["visible", "starlink", "100", "3.38"],
        ["passes", "starlink-550", "inf", "3.38"],
        ["visible", "starlink-550", "6.52", "-180.5"],
    ] {
        let out = explore(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(text(&out.stdout).is_empty(), "{args:?} printed a result");
        assert!(text(&out.stderr).contains("usage:"), "{args:?}");
    }
}

#[test]
fn explore_still_answers_for_a_place_on_earth() {
    let out = explore(&["visible", "starlink-550", "6.52", "3.38"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(
        text(&out.stdout).contains("6 servers reachable from (6.52, 3.38):"),
        "{}",
        text(&out.stdout)
    );
}

//! Experiment binaries driven as processes: a run that cannot write its
//! results fails, and `explore` rejects coordinates that cannot be a
//! place on Earth. Only the exit code and the output reach CI.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn feasibility(out_dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_feasibility"))
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

//! Every committed run manifest (`results/*.meta.json`) loads, and its
//! histograms say things that can be true: quantiles and the mean sit
//! within the exact extremes, and a single sample is its own p50, p99,
//! max and sum.

use leo_bench::cli::RunManifest;
use std::path::PathBuf;

#[test]
fn committed_manifest_histograms_are_consistent() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("results directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".meta.json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no manifests under {}", dir.display());
    let mut checked = 0;
    for path in &paths {
        let m = RunManifest::load(path).unwrap_or_else(|e| panic!("{e}"));
        for h in &m.histograms {
            let at = format!("{} in {}: {h:?}", h.name, path.display());
            assert!(h.count > 0, "{at}");
            assert!(h.p50 <= h.p99 && h.p99 <= h.max && h.max <= h.sum, "{at}");
            // `mean` is `sum / count`, and a sum of equal samples may round
            // up by an ulp or so; anything more is a wrong extreme.
            assert!(h.mean <= h.max * (1.0 + 1e-12), "{at}");
            if h.count == 1 {
                assert!(h.p50 == h.max && h.p99 == h.max && h.sum == h.max, "{at}");
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "no histograms in {paths:?}");
}

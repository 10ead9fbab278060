//! Every committed run manifest (`results/*.meta.json`) is what the
//! manifest schema writes, byte for byte, and its histograms say things
//! that can be true: the mean sits below the exact maximum, which sits
//! below the sum, and a single sample is its own max and sum. Every
//! counter the library can bump is driven by some committed run, or is
//! listed with the reason no run drives it.

use leo_bench::cli::RunManifest;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Counters that no committed run drives: each is 0 in every committed
/// manifest, or appears in none of them. A new counter in a branch no
/// committed run reaches fails the census until a run drives it, the
/// branch goes, or it is listed here with its reason.
const UNDRIVEN: &[(&str, &str)] = &[
    (
        "engine.delta.skipped_edges",
        "every satellite moves between two distinct instants, so \
         `RoutingEngine::refresh_delta` never skips an edge; whether the \
         delta refresh stays is decided with the benchmark",
    ),
    (
        "net.pkt.route_changes",
        "fig_migration's hand-offs finish within one route segment; only \
         the benchmark's 5→795 transfer changes route",
    ),
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed_manifest_paths() -> Vec<PathBuf> {
    let dir = repo_root().join("results");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("results directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".meta.json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no manifests under {}", dir.display());
    paths
}

fn committed_manifests() -> Vec<(PathBuf, RunManifest)> {
    committed_manifest_paths()
        .into_iter()
        .map(|p| {
            let m = RunManifest::load(&p).unwrap_or_else(|e| panic!("{e}"));
            (p, m)
        })
        .collect()
}

/// A key the schema no longer has (or a value it would write otherwise)
/// makes the rewritten manifest differ from the committed file.
#[test]
fn committed_manifests_are_on_the_schema_byte_for_byte() {
    let stale: Vec<String> = committed_manifest_paths()
        .into_iter()
        .filter(|path| {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let m = RunManifest::load(path).unwrap_or_else(|e| panic!("{e}"));
            serde_json::to_string_pretty(&m).expect("manifest serializes") != text
        })
        .map(|path| path.display().to_string())
        .collect();
    assert!(
        stale.is_empty(),
        "not what the manifest schema writes; load each and write it back:\n{}",
        stale.join("\n")
    );
}

#[test]
fn committed_manifest_histograms_are_consistent() {
    let mut checked = 0;
    for (path, m) in &committed_manifests() {
        for h in &m.histograms {
            let at = format!("{} in {}: {h:?}", h.name, path.display());
            assert!(h.count > 0, "{at}");
            assert!(h.max <= h.sum, "{at}");
            // `mean` is `sum / count`, and a sum of equal samples may round
            // up by an ulp or so; anything more is a wrong extreme.
            assert!(h.mean <= h.max * (1.0 + 1e-12), "{at}");
            if h.count == 1 {
                assert!(h.sum == h.max, "{at}");
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "no histograms in the committed manifests");
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The names in `counter!("…")` calls of the workspace's non-test
/// source: each crate's `src/`, every file cut at its first column-0
/// `#[cfg(test)]`, comment lines skipped.
fn library_counter_names() -> BTreeMap<String, PathBuf> {
    let root = repo_root();
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates directory") {
        rust_files(
            &entry.expect("crate directory").path().join("src"),
            &mut files,
        );
    }
    let mut names = BTreeMap::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source file");
        let lines = text
            .lines()
            .take_while(|l| *l != "#[cfg(test)]")
            .filter(|l| !l.trim_start().starts_with("//"));
        for line in lines {
            for call in line.split("counter!(\"").skip(1) {
                let name = call.split('"').next().expect("split yields a first part");
                let at = file.strip_prefix(&root).unwrap_or(&file);
                names
                    .entry(name.to_string())
                    .or_insert_with(|| at.to_path_buf());
            }
        }
    }
    names
}

#[test]
fn every_library_counter_is_driven_by_a_committed_run_or_listed() {
    let mut largest: BTreeMap<String, u64> = BTreeMap::new();
    for (_, m) in &committed_manifests() {
        for c in &m.counters {
            let v = largest.entry(c.name.clone()).or_default();
            *v = (*v).max(c.value);
        }
    }
    let library = library_counter_names();
    assert!(
        library.contains_key("engine.dijkstra.pops"),
        "the source scan found no routing counter: {library:?}"
    );
    let mut undriven: BTreeMap<&str, String> = BTreeMap::new();
    for (name, &v) in &largest {
        if v == 0 {
            undriven.insert(name.as_str(), "0 in every committed manifest".into());
        }
    }
    for (name, file) in &library {
        if !largest.contains_key(name) {
            let at = format!("in {} but in no committed manifest", file.display());
            undriven.insert(name.as_str(), at);
        }
    }
    let listed: BTreeSet<&str> = UNDRIVEN.iter().map(|&(name, _)| name).collect();
    let unlisted: Vec<String> = undriven
        .iter()
        .filter(|(name, _)| !listed.contains(*name))
        .map(|(name, why)| format!("{name}: {why}"))
        .collect();
    assert!(
        unlisted.is_empty(),
        "counters no committed run drives; drive them, delete them, or list \
         them in UNDRIVEN with a reason:\n{}",
        unlisted.join("\n")
    );
    let stale: Vec<String> = listed
        .iter()
        .filter(|name| !undriven.contains_key(*name))
        .map(|name| {
            if largest.contains_key(*name) {
                format!("{name}: a committed run drives it")
            } else {
                format!("{name}: no library source bumps it")
            }
        })
        .collect();
    assert!(
        stale.is_empty(),
        "listed in UNDRIVEN, but stale; take them off the list:\n{}",
        stale.join("\n")
    );
}

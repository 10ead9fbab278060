//! What the benchmark reports: the workloads and every metric's name,
//! unit and direction. `BENCHMARK.json` at the repository root declares
//! the same sets plus the regression bounds; the tests below keep the
//! two in step, and `--compare` reads the bounds from that file.

use serde::Deserialize;

/// The declaration file, embedded so the binary needs no path to it.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The workloads, in the order a full pass runs them.
pub const WORKLOADS: [&str; 5] = ["serve", "sessions", "edge", "handoffs", "migration"];

/// `(name, unit, higher_is_better)` of every end-to-end metric. Every
/// workload reports all of them on an untraced run.
pub const END_TO_END: [(&str, &str, bool); 4] = [
    ("setup_s", "s", false),
    ("run_s", "s", false),
    ("work_per_s", "1/s", true),
    ("peak_rss_mb", "MB", false),
];

/// `(name, unit, higher_is_better)` of every per-layer metric. Every
/// workload reports all of them on a traced run; a layer the workload's
/// timed call never enters reads 0.
pub const PER_LAYER: [(&str, &str, bool); 45] = [
    // Frontier, index and delta refresh: the serve sweep.
    ("frontier.settle_s", "s", false),
    ("frontier.pair_exact_ratio", "ratio", true),
    ("frontier.candidates", "count", false),
    ("index.scan_ratio", "ratio", true),
    ("engine.refresh_delta_s", "s", false),
    ("engine.delta_recomputed_frac", "ratio", false),
    ("serve.validate_s", "s", false),
    ("serve.validations", "count", false),
    // Candidate lists and placement state: the edge fleet.
    ("frontier.lists_s", "s", false),
    ("frontier.groundset_build_s", "s", false),
    ("edge.migrations", "count", false),
    ("edge.cold_starts", "count", false),
    ("edge.replica_repairs", "count", false),
    // Cold views, selection and Dijkstra: the sessions.
    ("orbit.snapshot_s", "s", false),
    ("orbit.snapshot_us", "us", false),
    ("index.build_s", "s", false),
    ("engine.refresh_s", "s", false),
    ("service.view_cold_s", "s", false),
    ("service.cache_hit_ratio", "ratio", true),
    ("selection.direct_s", "s", false),
    ("selection.sticky_s", "s", false),
    ("engine.dijkstra_s", "s", false),
    ("engine.dijkstra_queries", "count", false),
    ("engine.pops_per_query", "count", false),
    // The legacy graph router: the hand-offs.
    ("graph.build_s", "s", false),
    ("graph.route_s", "s", false),
    ("graph.builds", "count", false),
    // The packet engine: the migrations.
    ("congestion.run_s", "s", false),
    ("congestion.pkts_per_s", "1/s", true),
    ("congestion.retx_frac", "ratio", false),
    ("congestion.drop_frac", "ratio", false),
    ("replication.migrate_s", "s", false),
    // Set-up layers.
    ("engine.compile_s", "s", false),
    ("serve.shard_s", "s", false),
    ("edge.generate_s", "s", false),
    ("replication.predict_s", "s", false),
    // The whole run.
    ("sim.busy_s", "s", false),
    ("sim.utilization", "ratio", true),
    ("serialize_s", "s", false),
    ("unattributed_s", "s", false),
    ("unattributed_frac", "ratio", false),
    ("trace.overhead_frac", "ratio", false),
    ("unserved_frac", "ratio", false),
    ("run.items", "count", false),
    ("run.wall_s", "s", false),
];

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Deserialize)]
pub struct DeclaredMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Deserialize)]
pub struct DeclaredWorkload {
    pub name: String,
    pub why: String,
}

/// The parts of `BENCHMARK.json` this program reads.
#[derive(Debug, Clone, Deserialize)]
pub struct Declaration {
    pub workloads: Vec<DeclaredWorkload>,
    pub end_to_end: Vec<DeclaredMetric>,
    pub per_layer: Vec<DeclaredMetric>,
    pub run_seconds: u64,
}

/// Parses `BENCHMARK.json` and checks that it declares exactly the
/// workloads and metrics this program reports, in the same order, with
/// the same units and directions — a run never reports a metric the
/// declaration lacks.
pub fn declaration() -> Result<Declaration, String> {
    let decl: Declaration =
        serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names: Vec<&str> = decl.workloads.iter().map(|w| w.name.as_str()).collect();
    if names != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json declares workloads {names:?}, the code {WORKLOADS:?}"
        ));
    }
    if let Some(w) = decl
        .workloads
        .iter()
        .find(|w| w.why.is_empty() || w.why.contains('\n'))
    {
        return Err(format!(
            "BENCHMARK.json: workload {} needs a one-line why",
            w.name
        ));
    }
    for (declared, code, what) in [
        (&decl.end_to_end, &END_TO_END[..], "end-to-end"),
        (&decl.per_layer, &PER_LAYER[..], "per-layer"),
    ] {
        let d: Vec<(&str, &str, &str)> = declared
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect();
        let c: Vec<(&str, &str, &str)> = code
            .iter()
            .map(|&(n, u, hi)| (n, u, if hi { "higher" } else { "lower" }))
            .collect();
        if d != c {
            return Err(format!(
                "BENCHMARK.json {what} metrics differ from the code's"
            ));
        }
    }
    Ok(decl)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for n in names {
            assert!(valid_name(n), "bad name {n:?}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        for (_, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
    }

    #[test]
    fn code_and_benchmark_json_declare_the_same_metrics() {
        // Every workload reports every declared metric of its kind, so
        // equal declarations mean equal sets per workload too.
        let decl = declaration().expect("BENCHMARK.json agrees with the code");
        for m in &decl.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(decl.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = decl
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        let largest = decl
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(decl.workloads.iter().all(|w| w.why.len() <= 200));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}

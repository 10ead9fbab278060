//! The edge-workload benchmark: a serverless FaaS fleet on the
//! constellation, driven by a seeded diurnal + flash-crowd demand
//! scenario, reported as fleet utilization (busy vs standby vs idle
//! satellite-seconds) — the number behind the paper's idle-infrastructure
//! claim (Figs 4–5).
//!
//! Two identities are asserted in-binary on every run (and grepped by
//! CI):
//!
//! - scenario generation is a pure function of its config: a second
//!   generation is `==` the first;
//! - the settled-frontier candidate lists agree with the serving
//!   layer's per-cell nearest-server answer: one rotating cell per tick
//!   re-runs the demoted scan and its head must match (asserted inside
//!   the engine — reaching the report at all means it held).
//!
//! Full mode runs 96 demand cells over 120 one-minute ticks, quick mode
//! 24 cells over 12, with 8 function slots per satellite server.
//! `results/edge.json` holds only thread-count-invariant rows; wall
//! times and counter rates live in `results/edge.meta.json`.
//! Run: `cargo run -p leo-bench --release --bin fig_edge` (add `--quick`).

use leo_bench::cli::Run;
use leo_constellation::presets;
use leo_core::{FailureModel, InOrbitService};
use leo_edge::{
    EdgeConfig, EdgeEngine, EdgeReport, FunctionSpec, QosSpec, Scenario, ScenarioConfig,
};
use leo_net::FaultConfig;

/// Tick spacing: one minute of orbital motion, matching the serve sweep.
const TICK_S: f64 = 60.0;

/// Annual per-satellite failure rate for the outage sweep — high enough
/// that deaths land inside a two-hour window.
const FAULT_RATE_PER_YEAR: f64 = 2000.0;

/// Seed for the outage schedule's death draws.
const FAULT_SEED: u64 = 42;

/// Function slots per satellite server.
const SLOTS_PER_SERVER: u32 = 8;

/// The demand scenario: 96 cells over 120 ticks, or 24 over 12 in quick
/// mode.
fn scenario_config(quick: bool) -> ScenarioConfig {
    let (num_cells, ticks) = if quick { (24, 12.0) } else { (96, 120.0) };
    ScenarioConfig {
        num_cells,
        duration_s: ticks * TICK_S,
        tick_s: TICK_S,
        ..ScenarioConfig::default()
    }
}

fn functions() -> Vec<FunctionSpec> {
    vec![FunctionSpec::interactive(), FunctionSpec::analytics()]
}

fn main() {
    let mut run = Run::start("edge");
    let quick = run.quick();
    let edge_config = EdgeConfig {
        slots_per_server: SLOTS_PER_SERVER,
        qos: QosSpec::default(),
        threads: run.threads(),
    };

    // Identity 1: the scenario is a pure function of its config.
    let scenario = run.phase("generate", || {
        let scenario = Scenario::generate(scenario_config(quick));
        let again = Scenario::generate(scenario_config(quick));
        assert_eq!(scenario, again, "scenario regeneration diverged");
        scenario
    });
    println!(
        "# edge scenario regeneration is deterministic ({} cells, {} flash crowds)",
        scenario.cells().len(),
        scenario.crowds().len()
    );

    // Main sweep: the full scenario on a plain service, candidates from
    // the settled frontier. The engine asserts a rotating sampled cell's
    // head against nearest_server_view on every tick.
    let report = run.phase("sweep", || {
        let service = InOrbitService::new(presets::starlink_550_only());
        EdgeEngine::new(&service, &scenario, functions(), edge_config).run()
    });
    println!("# frontier candidate heads match nearest_server_view (one sampled cell per tick)");

    // Outage sweep: a seeded death schedule, so placement, replica
    // repair, the masked frontier passes, and the sampled head check
    // all run through the masked routing path.
    let outage_report = run.phase("outage_sweep", || {
        let constellation = presets::starlink_550_only();
        let cfg = FaultConfig {
            schedule: Some(
                FailureModel {
                    annual_failure_rate: FAULT_RATE_PER_YEAR,
                    seed: FAULT_SEED,
                }
                .schedule(constellation.num_satellites()),
            ),
            ..FaultConfig::none()
        };
        let service = InOrbitService::with_faults(constellation, cfg);
        EdgeEngine::new(&service, &scenario, functions(), edge_config).run()
    });

    print_summary(&report, &outage_report);
    let sweep_ticks = report.ticks.len() as u64;
    run.write_results(&EdgeResults {
        sweep: report,
        outage_sweep: outage_report,
    });
    let manifest = run.finish();
    if let Some(rate) = manifest.phase_rate(sweep_ticks, "sweep") {
        println!("# throughput: {rate:.1} ticks/sec over the sweep phase");
    }
    if !manifest.timeseries.is_empty() {
        println!(
            "# timeseries: {} series in the manifest ({} work, {} timing)",
            manifest.timeseries.len(),
            manifest.timeseries.iter().filter(|s| !s.timing).count(),
            manifest.timeseries.iter().filter(|s| s.timing).count(),
        );
    }
}

/// The edge result file: thread-count-invariant rows only; wall times
/// and counter rates live in the manifest.
#[derive(serde::Serialize)]
struct EdgeResults {
    sweep: EdgeReport,
    outage_sweep: EdgeReport,
}

fn print_summary(report: &EdgeReport, outage: &EdgeReport) {
    let total = report.busy_sat_seconds + report.standby_sat_seconds + report.idle_sat_seconds;
    println!(
        "# fleet utilization: {:.2}% busy, {:.2}% standby, {:.2}% idle over {} sats x {} ticks",
        100.0 * report.utilization,
        100.0 * report.standby_sat_seconds / total,
        100.0 * report.idle_sat_seconds / total,
        report.num_sats,
        report.ticks.len()
    );
    println!(
        "# busy {:.0} / standby {:.0} / idle {:.0} satellite-seconds",
        report.busy_sat_seconds, report.standby_sat_seconds, report.idle_sat_seconds
    );
    println!(
        "# demand: {} invocations, {} served ({:.2}%), {} migrations, {} cold starts, {} replica repairs",
        report.total_demand,
        report.total_served,
        100.0 * report.service_ratio,
        report.total_migrations,
        report.total_cold_starts,
        report.total_replica_repairs
    );
    println!(
        "{:>8} {:>6} {:>8} {:>8} {:>8} {:>6} {:>6} {:>8} {:>18}",
        "t", "busy", "standby", "demand", "served", "migr", "cold", "repairs", "checksum"
    );
    for t in &report.ticks {
        println!(
            "{:>8.0} {:>6} {:>8} {:>8} {:>8} {:>6} {:>6} {:>8} {:>18x}",
            t.time_s,
            t.busy_sats,
            t.standby_sats,
            t.demand,
            t.served,
            t.migrations,
            t.cold_starts,
            t.replica_repairs,
            t.placement_checksum
        );
    }
    println!(
        "# outage sweep: {:.2}% served (vs {:.2}% plain), {} replica repairs (vs {}), {} cold starts (vs {})",
        100.0 * outage.service_ratio,
        100.0 * report.service_ratio,
        outage.total_replica_repairs,
        report.total_replica_repairs,
        outage.total_cold_starts,
        report.total_cold_starts
    );
}

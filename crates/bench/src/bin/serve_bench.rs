//! The serving-layer benchmark: millions of "nearest server now"
//! queries over a snapshot sweep, on delta-refreshed routing state.
//!
//! Synthesizes a population-weighted user set from the world-cities
//! catalog, shards it by latitude band, and answers every user at every
//! instant of the schedule through `leo-serve`'s **frontier-primary**
//! path: one settled satellite-major pass per shard per snapshot,
//! instead of one visibility scan per user. Full mode answers 1.2 M
//! users over 12 one-minute snapshots, quick mode 100 k over 4.
//! Identities asserted in-binary on every run (grepped by CI):
//!
//! - the delta weight refresh is bit-identical to the full refresh at
//!   every snapshot, chained across the sweep;
//! - on sampled snapshots (every snapshot in quick mode, every 4th in
//!   full mode) one shard's settled answers are re-derived through the
//!   demoted per-user scans *and* the engine's multi-source arg-min
//!   frontier, all three bitwise equal;
//! - the masked delta path holds under a real outage schedule.
//!
//! `results/serve.json` holds only thread-count-invariant rows. The
//! printed queries/sec headline is the sweep report's `total_queries`
//! over the `sweep` phase's wall time in `results/serve.meta.json`, at
//! every `LEO_OBS` level. At `LEO_OBS=metrics` and above the manifest
//! carries the `engine.frontier.*` / `serve.frontier_*` work counters,
//! and the validation cadence as counter `serve.frontier_validate_every`.
//! Run: `cargo run -p leo-bench --release --bin serve_bench`
//! (add `--quick`).

use leo_bench::cli::Run;
use leo_constellation::presets;
use leo_core::{FailureModel, InOrbitService};
use leo_net::FaultConfig;
use leo_serve::{synthesize_users, ServeConfig, ServeEngine, SweepReport, USER_SEED};

/// Snapshot spacing. One minute of orbital motion moves every +Grid
/// edge, so the sweep's delta refreshes exercise the worst (dense) case;
/// the repeated-instant fast path is covered by the serve test suite.
const STEP_S: f64 = 60.0;

/// Degrees of uniform scatter around each user's city anchor.
const SPREAD_DEG: f64 = 2.0;

/// Annual per-satellite failure rate for the masked sweep.
const FAULT_RATE_PER_YEAR: f64 = 2000.0;

/// Seed for the fault schedule's death draws.
const FAULT_SEED: u64 = 42;

/// Latitude band height of a user shard, degrees.
const BAND_DEG: f64 = 4.0;

fn main() {
    let mut run = Run::start("serve");
    let quick = run.quick();
    let serve_config = ServeConfig {
        band_deg: BAND_DEG,
        max_shard: if quick { 16_384 } else { 65_536 },
        threads: run.threads(),
        // Quick mode validates every snapshot; full mode samples every
        // 4th — the settled pass is proven bit-identical either way
        // (and the serve test suite pins cadence-independence), so full
        // runs don't pay the demoted per-user scans on every instant.
        validate_every: if quick { 1 } else { 4 },
    };
    // The sampling cadence is part of the run's provenance: record it
    // in the manifest next to the validation counts it explains.
    leo_obs::counter!("serve.frontier_validate_every").add(serve_config.validate_every as u64);
    let snapshots = if quick { 4 } else { 12 };
    let times: Vec<f64> = (0..snapshots).map(|i| i as f64 * STEP_S).collect();

    let users = run.phase("generate_users", || {
        synthesize_users(
            if quick { 100_000 } else { 1_200_000 },
            SPREAD_DEG,
            USER_SEED,
        )
    });

    // Main sweep: the full population on a plain service. The engine
    // asserts the delta/full and frontier identities internally on
    // every snapshot — reaching the report at all means they held.
    let engine = run.phase("shard", || {
        ServeEngine::new(
            InOrbitService::new(presets::starlink_550_only()),
            users.clone(),
            serve_config,
        )
    });
    let report = run.phase("sweep", || engine.sweep(&times));
    println!(
        "# delta-refresh weights bit-identical to full refresh across {} snapshots",
        report.snapshots.len()
    );
    println!("# multi-source frontier matches nearest assignments");
    println!(
        "# frontier-primary: settled pass validated against per-user scans every {} snapshot(s)",
        serve_config.validate_every
    );

    // Masked sweep: a real outage schedule, so the delta chain and the
    // frontier validation run through masked weights and masked attach.
    // A population subset keeps it O(seconds).
    let fault_report = run.phase("fault_sweep", || {
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
        let faulted = ServeEngine::new(
            InOrbitService::with_faults(constellation, cfg),
            users[..20_000.min(users.len())].to_vec(),
            serve_config,
        );
        faulted.sweep(&times[..times.len().min(4)])
    });
    println!("# masked delta-refresh bit-identical to full masked refresh");

    print_summary(&report, &fault_report);
    let total_queries = report.total_queries;
    run.write_results(&ServeResults {
        sweep: report,
        fault_sweep: fault_report,
    });
    let manifest = run.finish();
    if let Some(qps) = manifest.phase_rate(total_queries, "sweep") {
        println!("# throughput: {qps:.0} queries/sec over the sweep phase");
    }
    if !manifest.timeseries.is_empty() {
        println!(
            "# timeseries: {} series in the manifest",
            manifest.timeseries.len()
        );
    }
}

/// The serve result file: thread-count-invariant rows only (stats and
/// checksums); throughput and span timings live in the manifest.
#[derive(serde::Serialize)]
struct ServeResults {
    sweep: SweepReport,
    fault_sweep: SweepReport,
}

fn print_summary(report: &SweepReport, fault_report: &SweepReport) {
    println!(
        "# serve sweep: {} queries over {} snapshots ({} delta edges recomputed, {} skipped, {} full rebuilds)",
        report.total_queries,
        report.snapshots.len(),
        report.delta_recomputed,
        report.delta_skipped,
        report.delta_full_rebuilds
    );
    println!(
        "{:>8} {:>10} {:>9} {:>9} {:>10} {:>18}",
        "t", "served", "unserved", "handoffs", "rtt ms", "checksum"
    );
    for row in &report.snapshots {
        println!(
            "{:>8.0} {:>10} {:>9} {:>9} {:>10.3} {:>18x}",
            row.time_s,
            row.served,
            row.unserved,
            row.handoffs,
            row.mean_rtt_ms,
            row.assignment_checksum
        );
    }
    let faulted_served: u64 = fault_report.snapshots.iter().map(|r| r.served).sum();
    println!(
        "# fault sweep: {} queries, {} served under the outage schedule",
        fault_report.total_queries, faulted_served
    );
}

//! End-to-end pipeline test for the edge workload layer: a full
//! scenario run (diurnal demand + flash crowds + a seeded outage
//! schedule) must produce byte-identical reports whatever the thread
//! count and whatever the observability level, and a service carrying
//! an empty fault plan must be indistinguishable from a plain one.
//!
//! This is the in-process twin of the `fig_edge` entry of the CI
//! `extension-smoke` matrix, which re-runs the binary under
//! `LEO_THREADS={1,4}` and `LEO_OBS={off,trace}` and byte-diffs
//! `results/edge.json`. One run at preset scale (the 550 km Starlink
//! shell, 300 cells) is also pinned to golden bytes.

use in_orbit::constellation::presets::starlink_550_only;
use in_orbit::constellation::{Constellation, ShellSpec, WalkerPattern};
use in_orbit::core::{FailureModel, InOrbitService};
use in_orbit::edge::{
    EdgeConfig, EdgeEngine, EdgeReport, FunctionSpec, QosSpec, Scenario, ScenarioConfig,
};
use in_orbit::geo::Angle;
use in_orbit::net::{BandedGroundSets, FaultConfig};
use in_orbit::obs::{set_level, Level};

fn small_constellation() -> Constellation {
    Constellation::from_shells(
        "edge-pipeline",
        vec![ShellSpec {
            name: "shell".into(),
            altitude_m: 550e3,
            inclination: Angle::from_degrees(53.0),
            num_planes: 10,
            sats_per_plane: 10,
            phase_factor: 1,
            pattern: WalkerPattern::Delta,
            min_elevation: Angle::from_degrees(25.0),
        }],
    )
}

/// A scenario small enough to run in milliseconds but exercising every
/// feature: diurnal shaping, flash crowds, multi-tick migration churn.
fn scenario() -> Scenario {
    Scenario::generate(ScenarioConfig {
        num_cells: 10,
        duration_s: 1200.0,
        tick_s: 120.0,
        ..ScenarioConfig::default()
    })
}

fn functions() -> Vec<FunctionSpec> {
    vec![
        FunctionSpec {
            max_rtt_ms: 16.0,
            ..FunctionSpec::interactive()
        },
        FunctionSpec {
            max_rtt_ms: 16.0,
            ..FunctionSpec::analytics()
        },
    ]
}

fn config(threads: usize) -> EdgeConfig {
    EdgeConfig {
        slots_per_server: 4,
        qos: QosSpec {
            replicas: 2,
            latency_bound_ms: 16.0,
        },
        threads,
    }
}

fn outage_config(constellation: &Constellation) -> FaultConfig {
    FaultConfig {
        schedule: Some(
            FailureModel {
                annual_failure_rate: 5000.0,
                seed: 7,
            }
            .schedule(constellation.num_satellites()),
        ),
        ..FaultConfig::none()
    }
}

fn run_plain(threads: usize) -> EdgeReport {
    let service = InOrbitService::new(small_constellation());
    let scenario = scenario();
    EdgeEngine::new(&service, &scenario, functions(), config(threads)).run()
}

fn run_outage(threads: usize) -> EdgeReport {
    let constellation = small_constellation();
    let faults = outage_config(&constellation);
    let service = InOrbitService::with_faults(constellation, faults);
    let scenario = scenario();
    EdgeEngine::new(&service, &scenario, functions(), config(threads)).run()
}

fn json(report: &EdgeReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of the serialized report of the preset-scale run below,
/// recorded when each cell's candidate list was still its own sorted
/// `Vec`: the flat per-band lists, their bound prefixes and the dense
/// slot table must reproduce it byte for byte.
const PRESET_SCALE_GOLDEN: u64 = 0x0b1a_9b6f_8e80_75f3;

/// 300 of the largest cities on the 550 km Starlink shell over ten
/// one-minute ticks, with `fig_edge`'s functions, slots and QoS: many
/// latitude bands gathered into one fold, at several thread counts.
#[test]
fn preset_scale_run_matches_its_golden_bytes_at_every_thread_count() {
    let service = InOrbitService::new(starlink_550_only());
    let scenario = Scenario::generate(ScenarioConfig {
        num_cells: 300,
        duration_s: 540.0,
        tick_s: 60.0,
        ..ScenarioConfig::default()
    });
    // The engine bands its cells 4° tall.
    let cells: Vec<_> = scenario.endpoints().iter().map(|e| e.ecef).collect();
    let bands = BandedGroundSets::build(&cells, 4.0).num_bands();
    assert!(bands >= 20, "only {bands} latitude bands");
    for threads in [1, 2, 3] {
        let config = EdgeConfig {
            slots_per_server: 8,
            qos: QosSpec::default(),
            threads,
        };
        let functions = vec![FunctionSpec::interactive(), FunctionSpec::analytics()];
        let report = EdgeEngine::new(&service, &scenario, functions, config).run();
        assert_eq!(report.ticks.len(), 10);
        assert_eq!(
            fnv1a(json(&report).as_bytes()),
            PRESET_SCALE_GOLDEN,
            "report bytes moved at {threads} threads"
        );
    }
}

#[test]
fn plain_run_is_byte_identical_across_thread_counts() {
    let one = run_plain(1);
    let four = run_plain(4);
    assert_eq!(one, four);
    assert_eq!(json(&one), json(&four), "serialized bytes diverged");
}

#[test]
fn outage_run_is_byte_identical_across_thread_counts() {
    let one = run_outage(1);
    let four = run_outage(4);
    assert_eq!(one, four);
    assert_eq!(json(&one), json(&four), "serialized bytes diverged");
}

#[test]
fn run_is_byte_identical_across_obs_levels() {
    // set_level is process-global, so both runs happen inside this one
    // test; counters may record or not, but report bytes must not move.
    set_level(Level::Off);
    let off = run_outage(2);
    set_level(Level::Full);
    let full = run_outage(2);
    set_level(Level::Off);
    assert_eq!(off, full);
    assert_eq!(json(&off), json(&full), "obs level leaked into results");
}

#[test]
fn outage_degrades_but_never_corrupts_the_run() {
    let plain = run_plain(2);
    let outage = run_outage(2);
    // The outage schedule kills real satellites inside the window, so
    // the two runs must actually differ...
    assert_ne!(plain, outage, "outage schedule had no effect — dead test");
    // ...while every accounting invariant still holds.
    for report in [&plain, &outage] {
        let total = report.busy_sat_seconds + report.standby_sat_seconds + report.idle_sat_seconds;
        let expect = report.num_sats as f64 * report.tick_s * report.ticks.len() as f64;
        assert!(
            (total - expect).abs() < 1e-6,
            "satellite-seconds must partition"
        );
        assert!(report.total_served <= report.total_demand);
        for t in &report.ticks {
            assert!(t.served <= t.demand);
            assert!(t.busy_sats + t.standby_sats <= report.num_sats);
        }
    }
    assert!(
        outage.total_served <= plain.total_served,
        "deaths cannot add service"
    );
}

#[test]
fn flash_crowds_show_up_in_the_demand_trace() {
    let s = scenario();
    let crowd = s.crowds()[0];
    let during = s.demand_at(crowd.cell, crowd.start_s + 1.0);
    let before = s.demand_at(crowd.cell, crowd.start_s - 60.0);
    assert!(
        during > before,
        "flash crowd invisible: {during} during vs {before} before"
    );
    // And the engine-level demand totals reflect the whole trace.
    let report = run_plain(1);
    let cells = s.cells().len() as u32;
    let expected: u64 = s
        .ticks()
        .iter()
        .flat_map(|&t| (0..cells).map(move |i| (i, t)))
        .map(|(i, t)| s.demand_at(i, t))
        .sum();
    assert_eq!(report.total_demand, expected);
}

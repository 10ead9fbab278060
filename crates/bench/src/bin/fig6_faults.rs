//! Fig 6 under faults: hand-off behavior when satellites die and rain
//! fades the ground segment.
//!
//! Sweeps annual server-failure rate × rain climate and reruns the Fig 6
//! sessions (Sticky vs MinMax) under each scenario through the fault
//! layer: dead satellites leave the ISL mesh and every candidate set,
//! and the rain fade raises the elevation a user link needs to close.
//! The zero-fault/clear-sky cell doubles as the regression anchor: it is
//! re-run through a plain (fault-free) service and the two serialized
//! results must match byte for byte, which CI greps for. Run:
//! `cargo run -p leo-bench --release --bin fig6_faults` (add `--quick`).

use leo_bench::cli::Run;
use leo_bench::user_trios;
use leo_constellation::presets;
use leo_core::session::run_session;
use leo_core::{Cdf, FailureModel, InOrbitService, Policy, SessionConfig};
use leo_net::routing::GroundEndpoint;
use leo_net::weather::{LinkBudget, RainClimate};
use leo_net::{FaultConfig, RainFade};
use leo_sim::parallel_map;
use serde::Serialize;

/// Exceedance probability for the rain rate each climate contributes: a
/// solidly rainy episode (rain this hard ~1 % of the year), not the
/// annual average drizzle. On the consumer Ka budget this pushes the
/// tropical access mask to ~37° elevation — degraded but not dark, which
/// is the regime where fade-forced hand-offs are visible. At 0.5 % the
/// tropical mask climbs past 60° and dispersed groups lose common
/// visibility outright.
const RAIN_EXCEEDANCE: f64 = 0.01;

/// Seed for the per-satellite exponential death draws.
const SEED: u64 = 42;

#[derive(Serialize)]
struct FaultCell {
    annual_failure_rate: f64,
    climate: String,
    rain_rate_mm_h: f64,
    policy: String,
    handoff_count: usize,
    /// Fresh acquisitions (`from == None`): 1 per session plus 1 per
    /// service interruption — rain outages show up here and in
    /// `served_ticks`, not in `handoff_count`.
    acquisitions: usize,
    median_interval_s: Option<f64>,
    mean_group_rtt_ms: Option<f64>,
    served_ticks: usize,
    intervals_s: Vec<f64>,
}

fn climates(quick: bool) -> Vec<(&'static str, Option<RainClimate>)> {
    if quick {
        vec![("clear", None), ("tropical", Some(RainClimate::TROPICAL))]
    } else {
        vec![
            ("clear", None),
            ("arid", Some(RainClimate::ARID)),
            ("temperate", Some(RainClimate::TEMPERATE)),
            ("tropical", Some(RainClimate::TROPICAL)),
        ]
    }
}

fn rates(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 2000.0]
    } else {
        vec![0.0, 500.0, 2000.0, 8000.0]
    }
}

fn fault_config(num_sats: usize, rate: f64, climate: Option<&RainClimate>) -> FaultConfig {
    let mut cfg = FaultConfig::none();
    // Rate 0 still installs the (all-INFINITY) schedule: its plans are
    // empty and every query runs the one plan-taking path with them, so
    // the zero cell must equal the fault-free run.
    cfg.schedule = Some(
        FailureModel {
            annual_failure_rate: rate,
            seed: SEED,
        }
        .schedule(num_sats),
    );
    if let Some(c) = climate {
        cfg.rain = Some(RainFade::at_exceedance(
            LinkBudget::CONSUMER,
            c,
            RAIN_EXCEEDANCE,
        ));
    }
    cfg
}

fn main() {
    let mut run = Run::start("fig6_faults");
    let (quick, threads) = (run.quick(), run.threads());
    let session_cfg = SessionConfig {
        start_s: 0.0,
        duration_s: if quick { 900.0 } else { 3600.0 },
        tick_s: if quick { 15.0 } else { 5.0 },
    };
    let policies = [Policy::MinMax, Policy::sticky_default()];
    // Two of the Fig 6 trios, West Africa and South-East Asia: both sit
    // under climates where the tropical rain scenario is the physically
    // interesting one.
    let trios = user_trios();
    let groups: &[&[GroundEndpoint]] = &[&trios[0], &trios[2]];

    // One service per (rate, climate) cell: the fault scenario is baked
    // into the service so its snapshot cache holds the masked weights.
    let scenarios: Vec<(f64, &'static str, Option<RainClimate>)> = rates(quick)
        .into_iter()
        .flat_map(|r| climates(quick).into_iter().map(move |(n, c)| (r, n, c)))
        .collect();
    let services: Vec<InOrbitService> = run.phase("compile", || {
        scenarios
            .iter()
            .map(|(rate, _, climate)| {
                let constellation = presets::starlink_550_only();
                let cfg = fault_config(constellation.num_satellites(), *rate, climate.as_ref());
                InOrbitService::with_faults(constellation, cfg)
            })
            .collect()
    });

    // Fan every (scenario × policy × group) session across the pool;
    // sessions of one scenario share that scenario's snapshot cache.
    let combos: Vec<(usize, Policy, &[GroundEndpoint])> = (0..scenarios.len())
        .flat_map(|s| {
            policies
                .iter()
                .flat_map(move |&p| groups.iter().map(move |&g| (s, p, g)))
        })
        .collect();
    let sessions = run.phase("sessions", || {
        parallel_map(combos.clone(), threads, |&(s, policy, users)| {
            run_session(&services[s], users, policy, &session_cfg)
        })
    });

    // Aggregate per (scenario, policy) across groups.
    let mut cells: Vec<FaultCell> = Vec::new();
    for (s, &(rate, climate_name, ref climate)) in scenarios.iter().enumerate() {
        let rain_rate = climate
            .as_ref()
            .map(|c| c.rain_rate_at_exceedance(RAIN_EXCEEDANCE))
            .unwrap_or(0.0);
        for &policy in &policies {
            let runs: Vec<_> = combos
                .iter()
                .zip(&sessions)
                .filter(|((ci, cp, _), _)| *ci == s && *cp == policy)
                .map(|(_, r)| r)
                .collect();
            let intervals: Vec<f64> = runs
                .iter()
                .flat_map(|r| r.times_between_handoffs())
                .collect();
            let rtt: Vec<(f64, f64)> = runs
                .iter()
                .flat_map(|r| r.rtt_samples.iter().copied())
                .collect();
            let cdf = Cdf::new(intervals);
            cells.push(FaultCell {
                annual_failure_rate: rate,
                climate: climate_name.to_string(),
                rain_rate_mm_h: rain_rate,
                policy: policy.name().into(),
                handoff_count: runs.iter().map(|r| r.handoff_count()).sum(),
                acquisitions: runs
                    .iter()
                    .map(|r| r.events.iter().filter(|e| e.from.is_none()).count())
                    .sum(),
                median_interval_s: cdf.median(),
                mean_group_rtt_ms: if rtt.is_empty() {
                    None
                } else {
                    Some(rtt.iter().map(|&(_, r)| r).sum::<f64>() / rtt.len() as f64)
                },
                served_ticks: rtt.len(),
                intervals_s: cdf.samples().to_vec(),
            });
        }
    }

    // Regression anchor: the zero-fault/clear-sky scenario must be
    // byte-identical to a service with no fault layer at all.
    run.phase("baseline_check", || {
        let baseline = InOrbitService::new(presets::starlink_550_only());
        let zero = scenarios
            .iter()
            .position(|&(r, n, _)| r == 0.0 && n == "clear")
            .expect("zero cell");
        for &policy in &policies {
            for users in groups {
                let plain = run_session(&baseline, users, policy, &session_cfg);
                let faulted = run_session(&services[zero], users, policy, &session_cfg);
                let a = serde_json::to_string(&plain).expect("serialize");
                let b = serde_json::to_string(&faulted).expect("serialize");
                assert_eq!(a, b, "empty FaultPlan diverged from the no-plan baseline");
            }
        }
        println!("# empty FaultPlan output identical to no-plan baseline");
    });

    println!(
        "# Fig 6 under faults: {} scenarios x {} policies, {} user groups, {:.0}-s ticks",
        scenarios.len(),
        policies.len(),
        groups.len(),
        session_cfg.tick_s
    );
    println!(
        "{:>10} {:>10} {:>8} {:>10} {:>6} {:>12} {:>10}",
        "rate/yr", "climate", "policy", "handoffs", "acq", "median int", "mean rtt"
    );
    for c in &cells {
        println!(
            "{:>10.0} {:>10} {:>8} {:>10} {:>6} {:>10.0} s {:>7.2} ms",
            c.annual_failure_rate,
            c.climate,
            c.policy,
            c.handoff_count,
            c.acquisitions,
            c.median_interval_s.unwrap_or(f64::NAN),
            c.mean_group_rtt_ms.unwrap_or(f64::NAN),
        );
    }

    run.write_results(&cells);
    run.finish();
}

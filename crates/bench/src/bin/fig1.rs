//! Figs 1 and 2 from one sweep, for Starlink Phase I and Kuiper.
//!
//! Fig 1: max and min RTT (ms) to reachable satellite-servers vs
//! latitude. Fig 2: number of satellite-servers reachable vs latitude
//! (average over time, with min/max range).
//!
//! Methodology (paper §3.1): from a ground location at each latitude,
//! every minute over two hours, find the directly reachable satellites.
//! Fig 1 reports the RTT to the nearest and the farthest of them, the
//! maximum across the time samples; Fig 2 reports how many there are.
//! Both read the same `AccessStats` per latitude. Each instant is
//! propagated and spatially indexed once (`leo_sim::TimeSweep`), shared
//! by every latitude.
//!
//! Writes `results/fig1.json` and `results/fig2.json`. Run:
//! `cargo run -p leo-bench --release --bin fig1`
//! (add `--quick` for coarse sampling).

use leo_bench::cli::Run;
use leo_constellation::presets;
use leo_core::access::{AccessStats, SamplingConfig};
use leo_core::InOrbitService;
use leo_geo::Geodetic;
use leo_sim::TimeSweep;
use serde::Serialize;

#[derive(Serialize)]
struct RttRow {
    latitude_deg: f64,
    starlink_min_rtt_ms: Option<f64>,
    starlink_max_rtt_ms: Option<f64>,
    kuiper_min_rtt_ms: Option<f64>,
    kuiper_max_rtt_ms: Option<f64>,
}

#[derive(Serialize)]
struct CountRow {
    latitude_deg: f64,
    starlink_min: usize,
    starlink_avg: f64,
    starlink_max: usize,
    kuiper_min: usize,
    kuiper_avg: f64,
    kuiper_max: usize,
}

fn main() {
    let mut run = Run::start("fig1");
    let (quick, threads) = (run.quick(), run.threads());
    let sampling = if quick {
        SamplingConfig::coarse()
    } else {
        SamplingConfig::paper()
    };
    let step = if quick { 5.0 } else { 1.0 };

    let (starlink, kuiper) = run.phase("compile", || {
        (
            InOrbitService::new(presets::starlink_phase1()),
            InOrbitService::new(presets::kuiper()),
        )
    });

    let lats: Vec<f64> = {
        let mut v = Vec::new();
        let mut lat = 0.0;
        while lat <= 90.0 + 1e-9 {
            v.push(lat);
            lat += step;
        }
        v
    };

    let sweep_stats = |service: &InOrbitService| -> Vec<AccessStats> {
        TimeSweep::new(service, sampling.times())
            .with_threads(threads)
            .run(lats.clone(), |&lat, views| {
                let ge = Geodetic::ground(lat, 0.0).to_ecef_spherical();
                AccessStats::from_visible_sets(
                    views
                        .iter()
                        .map(|(_, v)| v.index().query(ge, v.fault_plan())),
                )
            })
    };
    let starlink_stats = run.phase("starlink_sweep", || sweep_stats(&starlink));
    let kuiper_stats = run.phase("kuiper_sweep", || sweep_stats(&kuiper));
    let (rows, counts): (Vec<RttRow>, Vec<CountRow>) = lats
        .iter()
        .zip(starlink_stats.iter().zip(&kuiper_stats))
        .map(|(&lat, (s, k))| {
            let rtt = RttRow {
                latitude_deg: lat,
                starlink_min_rtt_ms: s.nearest_rtt_ms,
                starlink_max_rtt_ms: s.farthest_rtt_ms,
                kuiper_min_rtt_ms: k.nearest_rtt_ms,
                kuiper_max_rtt_ms: k.farthest_rtt_ms,
            };
            let count = CountRow {
                latitude_deg: lat,
                starlink_min: s.min_count,
                starlink_avg: s.avg_count,
                starlink_max: s.max_count,
                kuiper_min: k.min_count,
                kuiper_avg: k.avg_count,
                kuiper_max: k.max_count,
            };
            (rtt, count)
        })
        .unzip();

    println!("# Fig 1: Max and Min RTT (ms) to reachable satellite-servers vs latitude");
    println!(
        "# latency = worst case across {} samples every {} s",
        sampling.samples, sampling.interval_s
    );
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "lat", "starlink-min", "starlink-max", "kuiper-min", "kuiper-max"
    );
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.2}"));
    for r in &rows {
        println!(
            "{:>8.1} {:>14} {:>14} {:>14} {:>14}",
            r.latitude_deg,
            fmt(r.starlink_min_rtt_ms),
            fmt(r.starlink_max_rtt_ms),
            fmt(r.kuiper_min_rtt_ms),
            fmt(r.kuiper_max_rtt_ms),
        );
    }

    // Paper-level summary.
    let max_star_min = rows
        .iter()
        .filter_map(|r| r.starlink_min_rtt_ms)
        .fold(0.0f64, f64::max);
    let max_star_max = rows
        .iter()
        .filter_map(|r| r.starlink_max_rtt_ms)
        .fold(0.0f64, f64::max);
    let kuiper_cutoff = rows
        .iter()
        .filter(|r| r.kuiper_min_rtt_ms.is_some())
        .map(|r| r.latitude_deg)
        .fold(0.0f64, f64::max);
    println!("\n# summary (paper in parentheses)");
    println!("#   Starlink nearest, worst over all latitudes : {max_star_min:.1} ms (11 ms)");
    println!("#   Starlink farthest, worst over all latitudes: {max_star_max:.1} ms (16 ms)");
    println!("#   Kuiper service cutoff latitude             : {kuiper_cutoff:.0}° (no service beyond 60°)");

    println!("# Fig 2: number of satellite-servers within range vs latitude");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "lat", "sl-min", "sl-avg", "sl-max", "ku-min", "ku-avg", "ku-max"
    );
    for r in &counts {
        println!(
            "{:>8.1} {:>8} {:>8.1} {:>8} {:>8} {:>8.1} {:>8}",
            r.latitude_deg,
            r.starlink_min,
            r.starlink_avg,
            r.starlink_max,
            r.kuiper_min,
            r.kuiper_avg,
            r.kuiper_max,
        );
    }

    // The paper's observations.
    let served = |avg: f64| avg >= 1.0;
    let star_30plus = counts
        .iter()
        .filter(|r| served(r.starlink_avg) && r.starlink_avg >= 30.0)
        .count();
    let star_served = counts.iter().filter(|r| served(r.starlink_avg)).count();
    let kuiper_10plus = counts
        .iter()
        .filter(|r| served(r.kuiper_avg) && r.kuiper_avg >= 10.0)
        .count();
    let kuiper_served = counts.iter().filter(|r| served(r.kuiper_avg)).count();
    println!("\n# summary (paper in parentheses)");
    println!("#   Starlink latitudes with avg ≥ 30 reachable: {star_30plus}/{star_served} served latitudes (\"30+ from almost all locations\")");
    println!("#   Kuiper latitudes with avg ≥ 10 reachable  : {kuiper_10plus}/{kuiper_served} served latitudes (\"10+ for most latitudes\")");

    run.write_results(&rows);
    run.write_json("fig2.json", &counts);
    run.finish();
}

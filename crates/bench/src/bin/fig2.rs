//! Fig 2: number of satellite-servers reachable vs latitude (average
//! over time, with min/max range), Starlink Phase I and Kuiper.
//!
//! Each instant is propagated and spatially indexed once
//! (`leo_sim::TimeSweep`), shared by every latitude.
//! Run: `cargo run -p leo-bench --release --bin fig2` (add `--quick`).

use leo_bench::cli::Run;
use leo_constellation::presets;
use leo_core::access::{AccessStats, SamplingConfig};
use leo_core::InOrbitService;
use leo_geo::Geodetic;
use leo_sim::TimeSweep;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    latitude_deg: f64,
    starlink_min: usize,
    starlink_avg: f64,
    starlink_max: usize,
    kuiper_min: usize,
    kuiper_avg: f64,
    kuiper_max: usize,
}

fn main() {
    let mut run = Run::start("fig2");
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

    let rows: Vec<Row> = lats
        .iter()
        .zip(starlink_stats.iter().zip(&kuiper_stats))
        .map(|(&lat, (s, k))| Row {
            latitude_deg: lat,
            starlink_min: s.min_count,
            starlink_avg: s.avg_count,
            starlink_max: s.max_count,
            kuiper_min: k.min_count,
            kuiper_avg: k.avg_count,
            kuiper_max: k.max_count,
        })
        .collect();

    println!("# Fig 2: number of satellite-servers within range vs latitude");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "lat", "sl-min", "sl-avg", "sl-max", "ku-min", "ku-avg", "ku-max"
    );
    for r in &rows {
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
    let star_30plus = rows
        .iter()
        .filter(|r| served(r.starlink_avg) && r.starlink_avg >= 30.0)
        .count();
    let star_served = rows.iter().filter(|r| served(r.starlink_avg)).count();
    let kuiper_10plus = rows
        .iter()
        .filter(|r| served(r.kuiper_avg) && r.kuiper_avg >= 10.0)
        .count();
    let kuiper_served = rows.iter().filter(|r| served(r.kuiper_avg)).count();
    println!("\n# summary (paper in parentheses)");
    println!("#   Starlink latitudes with avg ≥ 30 reachable: {star_30plus}/{star_served} served latitudes (\"30+ from almost all locations\")");
    println!("#   Kuiper latitudes with avg ≥ 10 reachable  : {kuiper_10plus}/{kuiper_served} served latitudes (\"10+ for most latitudes\")");

    run.write_results(&rows);
    run.finish();
}

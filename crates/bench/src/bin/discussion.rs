//! §6 extension analyses: the open questions the paper's discussion
//! raises, answered with the extension modules.
//!
//! * weather availability by climate (the "we did not analyze yet" item);
//! * the GEO boundary (which workloads stay on GEO);
//! * the matchmaking census (how much in-orbit compute expands who can
//!   play together);
//! * capacity (aggregate reachable server slots vs Fig 2's raw counts).
//!
//! Run: `cargo run -p leo-bench --release --bin discussion`.

use leo_apps::geo_baseline::{choose_platform, GeoSatellite, PlatformChoice};
use leo_apps::interactive::AppClass;
use leo_apps::matchmaking::{pairwise_census, Player};
use leo_bench::write_results;
use leo_cities::WorldCities;
use leo_constellation::presets;
use leo_core::capacity::CapacityPool;
use leo_core::InOrbitService;
use leo_geo::Geodetic;
use leo_net::weather::{site_availability, LinkBudget, RainClimate};
use serde::Serialize;

#[derive(Serialize, Default)]
struct DiscussionResults {
    weather: Vec<(String, f64, f64)>,
    matchmaking: Vec<(String, usize, usize, usize)>,
    capacity: Vec<(String, u64)>,
}

fn main() {
    let service = InOrbitService::new(presets::starlink_phase1());
    let mut out = DiscussionResults::default();

    // ── weather ──
    println!("# §6 weather: availability of in-orbit compute under rain fade");
    println!(
        "{:<24} {:>14} {:>14}",
        "site/climate", "consumer 8dB", "gateway 16dB"
    );
    let snap = service.snapshot(0.0);
    for (name, lat, lon, climate) in [
        ("Lagos/tropical", 6.52, 3.38, RainClimate::TROPICAL),
        ("Singapore/tropical", 1.35, 103.82, RainClimate::TROPICAL),
        ("Zurich/temperate", 47.38, 8.54, RainClimate::TEMPERATE),
        ("Riyadh/arid", 24.71, 46.68, RainClimate::ARID),
    ] {
        let ground = Geodetic::ground(lat, lon);
        let ge = ground.to_ecef_spherical();
        let els: Vec<_> = service
            .reachable_servers(ground, 0.0)
            .iter()
            .map(|v| leo_geo::LookAngles::compute(ground, ge, snap.position(v.id)).elevation)
            .collect();
        let c = site_availability(&LinkBudget::CONSUMER, &climate, &els);
        let g = site_availability(&LinkBudget::GATEWAY, &climate, &els);
        println!("{name:<24} {:>13.4}% {:>13.4}%", c * 100.0, g * 100.0);
        out.weather.push((name.to_string(), c, g));
    }

    // ── GEO boundary ──
    println!("\n# §6 GEO boundary (from Lagos)");
    let lagos = Geodetic::ground(6.52, 3.38);
    let geo = GeoSatellite {
        longitude_deg: 3.38,
    };
    println!(
        "  GEO server RTT            : {:.0} ms",
        geo.server_rtt_ms(lagos)
    );
    for (workload, budget) in [
        ("video broadcast (1 s)", 1000.0),
        ("web browsing (300 ms)", 300.0),
        ("gaming (100 ms)", 100.0),
        ("AR/VR (50 ms)", 50.0),
    ] {
        let choice = match choose_platform(lagos, budget) {
            PlatformChoice::Geo => "GEO is fine",
            PlatformChoice::Leo => "needs LEO",
        };
        println!("  {workload:<26}: {choice}");
    }

    // ── matchmaking ──
    println!("\n# §3.2 matchmaking census (African player population, by app class)");
    let players: Vec<Player> = WorldCities::load()
        .all()
        .iter()
        .filter(|c| (-35.0..37.0).contains(&c.lat_deg) && (-18.0..52.0).contains(&c.lon_deg))
        .take(12)
        .map(|c| Player::new(&c.name, c.lat_deg, c.lon_deg))
        .collect();
    let sites: Vec<Geodetic> = leo_cities::azure_regions()
        .iter()
        .map(|r| r.geodetic())
        .collect();
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "class", "terrestrial", "orbit-only", "infeasible"
    );
    for class in AppClass::all() {
        let census = pairwise_census(&service, &players, &sites, class, 0.0);
        println!(
            "{:<10} {:>12} {:>12} {:>12}",
            format!("{class:?}"),
            census.terrestrial,
            census.orbit_only,
            census.infeasible
        );
        out.matchmaking.push((
            format!("{class:?}"),
            census.terrestrial,
            census.orbit_only,
            census.infeasible,
        ));
    }

    // ── capacity ──
    println!("\n# §3.1 aggregate reachable capacity (32 slots/server, ≤16 ms RTT)");
    let pool = CapacityPool::new(&service, 0.0, 32);
    for (name, lat, lon) in [
        ("Lagos", 6.52, 3.38),
        ("Zurich", 47.38, 8.54),
        ("South Pacific", -30.0, -130.0),
    ] {
        let slots = pool.reachable_free_slots(Geodetic::ground(lat, lon), 16.0);
        println!("  {name:<16}: {slots} slots in view");
        out.capacity.push((name.to_string(), slots));
    }

    write_results("discussion", &out);
}

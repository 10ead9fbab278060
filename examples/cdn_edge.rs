//! In-orbit CDN edge (§3.1): latency comparison against terrestrial
//! CDN sites.
//!
//! Run with: `cargo run --release --example cdn_edge`

use in_orbit::apps::edge::{compare_edge, TERRESTRIAL_PATH_STRETCH};
use in_orbit::prelude::*;

fn main() {
    let service = InOrbitService::new(starlink_phase1());
    let sites: Vec<Geodetic> = in_orbit::cities::azure_regions()
        .iter()
        .map(|r| r.geodetic())
        .collect();

    // Edge latency from places with and without nearby infrastructure.
    println!("edge RTT, terrestrial (fiber ×{TERRESTRIAL_PATH_STRETCH} stretch) vs in-orbit:\n");
    println!(
        "{:<26} {:>14} {:>12} {:>8}",
        "location", "terrestrial", "in-orbit", "winner"
    );
    for (name, lat, lon) in [
        ("Amsterdam (at a DC)", 52.37, 4.90),
        ("Lagos, Nigeria", 6.52, 3.38),
        ("Tarawa, Kiribati", 1.45, 173.03),
        ("Ushuaia, Argentina", -54.80, -68.30),
        ("McMurdo-ish (75°S)", -75.0, 166.0),
    ] {
        let cmp = compare_edge(&service, Geodetic::ground(lat, lon), &sites, 0.0);
        let terr = cmp
            .terrestrial_rtt_ms
            .map_or("-".into(), |v| format!("{v:.1} ms"));
        let orbit = cmp
            .in_orbit_rtt_ms
            .map_or("-".into(), |v| format!("{v:.1} ms"));
        let winner = if cmp.orbit_wins() { "orbit" } else { "ground" };
        println!("{name:<26} {terr:>14} {orbit:>12} {winner:>8}");
    }
}

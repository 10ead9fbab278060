//! Weather and in-orbit compute availability — the analysis §6 of the
//! paper flags as future work ("Weather, which we did not analyze yet,
//! also poses limitations on availability").
//!
//! Run with: `cargo run --release --example weather_availability`

use in_orbit::net::weather::{site_availability, LinkBudget, RainClimate};
use in_orbit::prelude::*;

fn main() {
    let service = InOrbitService::new(starlink_phase1());

    let sites = [
        ("Lagos (tropical)", 6.52, 3.38, RainClimate::TROPICAL),
        ("Yaoundé (tropical)", 3.87, 11.52, RainClimate::TROPICAL),
        ("Zurich (temperate)", 47.38, 8.54, RainClimate::TEMPERATE),
        ("Riyadh (arid)", 24.71, 46.68, RainClimate::ARID),
    ];

    println!("availability of in-orbit compute under rain fade (Ka-band):\n");
    println!(
        "{:<22} {:>10} {:>14} {:>14}",
        "site", "visible", "consumer 8 dB", "gateway 16 dB"
    );
    for (name, lat, lon, climate) in sites {
        let ground = Geodetic::ground(lat, lon);
        let ground_ecef = ground.to_ecef_spherical();
        // Elevations of all currently reachable satellites.
        let snap = service.snapshot(0.0);
        let elevations: Vec<Angle> = service
            .reachable_servers(ground, 0.0)
            .iter()
            .map(|v| {
                in_orbit::geo::LookAngles::compute(ground, ground_ecef, snap.position(v.id))
                    .elevation
            })
            .collect();
        let consumer = site_availability(&LinkBudget::CONSUMER, &climate, &elevations);
        let gateway = site_availability(&LinkBudget::GATEWAY, &climate, &elevations);
        println!(
            "{:<22} {:>10} {:>13.4}% {:>13.4}%",
            name,
            elevations.len(),
            consumer * 100.0,
            gateway * 100.0
        );
    }

    println!(
        "\nTropical sites — exactly where the paper's edge-computing case is\n\
         strongest — lose the most availability to rain fade; gateway-class\n\
         margins (or Ku-band links) close most of the gap."
    );
}

//! Constellation explorer: a small CLI over the library.
//!
//! ```text
//! cargo run -p leo-bench --release --bin explore -- shells starlink
//! cargo run -p leo-bench --release --bin explore -- passes kuiper 47.38 8.54
//! cargo run -p leo-bench --release --bin explore -- tles starlink-550 > tles.txt
//! cargo run -p leo-bench --release --bin explore -- visible starlink 6.52 3.38
//! ```

use leo_constellation::presets;
use leo_core::InOrbitService;
use leo_geo::Geodetic;
use leo_net::handover::{handover_schedule, predict_passes};

fn usage() -> ! {
    eprintln!(
        "usage: explore <command> <constellation> [args]\n\
         commands:\n\
           shells  <constellation>            shell table\n\
           tles    <constellation>            dump all satellites as TLEs\n\
           visible <constellation> <lat> <lon>  reachable servers right now\n\
           passes  <constellation> <lat> <lon>  1-hour pass + hand-over plan\n\
         constellations: starlink | starlink-550 | kuiper | telesat"
    );
    std::process::exit(2);
}

/// The `<lat> <lon>` arguments in degrees. Anything that cannot be a
/// place on Earth — not a number, not finite, |lat| > 90 or |lon| > 180 —
/// is a usage error.
fn lat_lon(args: &[String]) -> (f64, f64) {
    let degrees = |i: usize, name: &str, limit: f64| {
        let given = args.get(i).map_or("nothing", String::as_str);
        match given.parse::<f64>() {
            Ok(x) if x.is_finite() && x.abs() <= limit => x,
            _ => {
                eprintln!("{name} must be finite degrees within ±{limit}, got {given}");
                usage()
            }
        }
    };
    (degrees(2, "latitude", 90.0), degrees(3, "longitude", 180.0))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(cmd), Some(name)) = (args.first(), args.get(1)) else {
        usage()
    };
    let Some(constellation) = presets::by_name(name) else {
        eprintln!("unknown constellation {name:?}");
        usage()
    };

    match cmd.as_str() {
        "shells" => {
            println!(
                "{:<16} {:>9} {:>7} {:>7} {:>6} {:>8} {:>8}",
                "shell", "alt (km)", "incl", "planes", "s/pl", "min el", "period"
            );
            for s in constellation.shells() {
                let period = leo_orbit::KeplerianElements::circular(
                    s.altitude_m,
                    s.inclination,
                    leo_geo::Angle::ZERO,
                    leo_geo::Angle::ZERO,
                )
                .period_s();
                println!(
                    "{:<16} {:>9.0} {:>6.1}° {:>7} {:>6} {:>7.0}° {:>5.1} min",
                    s.name,
                    s.altitude_m / 1e3,
                    s.inclination.degrees(),
                    s.num_planes,
                    s.sats_per_plane,
                    s.min_elevation.degrees(),
                    period / 60.0
                );
            }
            println!("total: {} satellites", constellation.num_satellites());
        }
        "tles" => {
            for tle in constellation.to_tles() {
                println!("{}", tle.format());
            }
        }
        "visible" => {
            let (lat, lon) = lat_lon(&args);
            let service = InOrbitService::new(constellation);
            let mut vis = service.reachable_servers(Geodetic::ground(lat, lon), 0.0);
            vis.sort_by(|a, b| a.range_m.total_cmp(&b.range_m));
            println!("{} servers reachable from ({lat}, {lon}):", vis.len());
            for v in vis.iter().take(20) {
                println!(
                    "  {:<8} {:>8.1} km {:>7.2} ms RTT",
                    v.id.to_string(),
                    v.range_m / 1e3,
                    v.rtt_ms()
                );
            }
            if vis.len() > 20 {
                println!("  … and {} more", vis.len() - 20);
            }
        }
        "passes" => {
            let (lat, lon) = lat_lon(&args);
            let ground = Geodetic::ground(lat, lon);
            let passes = predict_passes(&constellation, ground, 0.0, 3600.0, 10.0);
            println!(
                "{} passes over ({lat}, {lon}) in the next hour",
                passes.len()
            );
            let slots = handover_schedule(&passes, 0.0, 3600.0);
            println!(
                "hand-over plan ({} hand-offs):",
                slots.len().saturating_sub(1)
            );
            for s in &slots {
                println!(
                    "  {:<8} serves [{:>6.0} s → {:>6.0} s] ({:>4.0} s)",
                    s.sat.to_string(),
                    s.from_s,
                    s.until_s,
                    s.until_s - s.from_s
                );
            }
        }
        _ => usage(),
    }
}

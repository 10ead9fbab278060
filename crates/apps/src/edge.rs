//! CDN and edge computing (§3.1).
//!
//! The paper's claims:
//! * terrestrial CDN/edge reach is uneven — "in large parts of the world,
//!   CDN edge latencies still exceed 100 ms";
//! * a large LEO constellation puts a satellite-server "within a few
//!   milliseconds from everywhere on Earth";
//! * at full scale (~40,000 satellites), one server per satellite would
//!   be "only 7× smaller than the largest present-day CDN, Akamai".

use leo_core::InOrbitService;
use leo_geo::spherical::great_circle_distance_m;
use leo_geo::Geodetic;
use serde::{Deserialize, Serialize};

/// Speed of light in optical fiber (refractive index ≈ 1.47), m/s.
pub const FIBER_SPEED_M_S: f64 = leo_geo::consts::SPEED_OF_LIGHT_M_S / 1.47;

/// Terrestrial route stretch: real fiber paths are longer than the great
/// circle. 2.0 is a conservative internet-scale average (the paper's
/// "Why is the Internet so slow?!" citation measures worse).
pub const TERRESTRIAL_PATH_STRETCH: f64 = 2.0;

/// Latency to the nearest terrestrial edge site over fiber, milliseconds
/// (RTT): great-circle distance × stretch at fiber speed.
fn terrestrial_edge_rtt_ms(user: Geodetic, sites: &[Geodetic]) -> Option<f64> {
    sites
        .iter()
        .map(|&s| great_circle_distance_m(user, s))
        .min_by(f64::total_cmp)
        .map(|d| 2.0 * d * TERRESTRIAL_PATH_STRETCH / FIBER_SPEED_M_S * 1e3)
}

/// One edge-latency comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeComparison {
    /// RTT to the nearest terrestrial edge site, ms (`None` if no sites).
    pub terrestrial_rtt_ms: Option<f64>,
    /// RTT to the nearest in-orbit server, ms (`None` if unserved).
    pub in_orbit_rtt_ms: Option<f64>,
}

impl EdgeComparison {
    /// True when the in-orbit edge is strictly closer.
    pub fn orbit_wins(&self) -> bool {
        match (self.in_orbit_rtt_ms, self.terrestrial_rtt_ms) {
            (Some(o), Some(t)) => o < t,
            (Some(_), None) => true,
            _ => false,
        }
    }
}

/// Compares edge latency from `user` at time `t`: nearest terrestrial
/// site over fiber vs. nearest reachable satellite-server.
pub fn compare_edge(
    service: &InOrbitService,
    user: Geodetic,
    sites: &[Geodetic],
    t: f64,
) -> EdgeComparison {
    let vis = service.reachable_servers(user, t);
    let in_orbit = vis.iter().map(|v| v.rtt_ms()).min_by(f64::total_cmp);
    EdgeComparison {
        terrestrial_rtt_ms: terrestrial_edge_rtt_ms(user, sites),
        in_orbit_rtt_ms: in_orbit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;

    fn azure_sites() -> Vec<Geodetic> {
        leo_cities::azure_regions()
            .iter()
            .map(|r| r.geodetic())
            .collect()
    }

    #[test]
    fn remote_pacific_user_prefers_orbit() {
        // Middle of the South Pacific: thousands of km from any data
        // center, but a satellite overhead.
        let service = InOrbitService::new(presets::starlink_phase1());
        let user = Geodetic::ground(-30.0, -130.0);
        let cmp = compare_edge(&service, user, &azure_sites(), 0.0);
        let terr = cmp.terrestrial_rtt_ms.unwrap();
        assert!(terr > 50.0, "terrestrial {terr} ms");
        assert!(cmp.in_orbit_rtt_ms.unwrap() < 16.0);
        assert!(cmp.orbit_wins());
    }

    #[test]
    fn user_next_to_a_data_center_prefers_ground() {
        let service = InOrbitService::new(presets::starlink_phase1());
        let user = Geodetic::ground(52.4, 4.9); // beside Amsterdam
        let cmp = compare_edge(&service, user, &azure_sites(), 0.0);
        assert!(cmp.terrestrial_rtt_ms.unwrap() < 1.0);
        assert!(!cmp.orbit_wins());
    }

    #[test]
    fn in_orbit_rtt_is_a_few_ms_everywhere_served() {
        // §3.1: "a large LEO constellation can be within a few
        // milliseconds from everywhere on Earth".
        let service = InOrbitService::new(presets::starlink_phase1());
        for (lat, lon) in [(0.0, 0.0), (45.0, 90.0), (-45.0, -60.0), (20.0, -160.0)] {
            let cmp = compare_edge(&service, Geodetic::ground(lat, lon), &[], 0.0);
            let rtt = cmp.in_orbit_rtt_ms.expect("served");
            assert!(rtt < 16.0, "({lat},{lon}): {rtt} ms");
        }
    }

    #[test]
    fn terrestrial_rtt_uses_fiber_speed_and_stretch() {
        // 1,000 km great circle → 2,000 km fiber → RTT = 4,000 km / (c/1.47).
        let user = Geodetic::ground(0.0, 0.0);
        let site = Geodetic::ground(0.0, 8.993); // ≈ 1,000 km along equator
        let rtt = terrestrial_edge_rtt_ms(user, &[site]).unwrap();
        let expect = 4.0e6 / FIBER_SPEED_M_S * 1e3;
        assert!((rtt - expect).abs() < 0.1, "{rtt} vs {expect}");
    }

    #[test]
    fn no_sites_means_no_terrestrial_option() {
        assert_eq!(
            terrestrial_edge_rtt_ms(Geodetic::ground(0.0, 0.0), &[]),
            None
        );
        let c = EdgeComparison {
            terrestrial_rtt_ms: None,
            in_orbit_rtt_ms: Some(5.0),
        };
        assert!(c.orbit_wins());
    }
}

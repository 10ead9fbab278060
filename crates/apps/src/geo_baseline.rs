//! The GEO baseline: where geostationary satellites remain the right
//! tool, and where LEO's latency advantage matters.
//!
//! §2 quantifies the trade ("~65× lower latency than GEO orbits"); §6
//! bounds the opportunity: *"for some settings where terrestrial data
//! center infrastructure is limiting, GEO satellites are perfectly
//! acceptable, because latency is not an issue. One such example is
//! video broadcast (…) It is unlikely that serving video through LEO
//! satellites would be worthwhile."*

use leo_geo::consts::{EARTH_RADIUS_MEAN_M, GEO_ALTITUDE_M, SPEED_OF_LIGHT_M_S};
use leo_geo::{Angle, Geodetic};
use serde::{Deserialize, Serialize};

/// A geostationary satellite parked at a longitude.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoSatellite {
    /// Sub-satellite longitude, degrees east.
    pub longitude_deg: f64,
}

impl GeoSatellite {
    /// Slant range to a ground point, meters (law of cosines on the
    /// Earth-center triangle).
    fn slant_range_m(&self, ground: Geodetic) -> f64 {
        let r = EARTH_RADIUS_MEAN_M;
        let rs = r + GEO_ALTITUDE_M;
        let dlon = Angle::from_degrees(self.longitude_deg) - ground.lon;
        // Central angle between the ground point and the sub-satellite
        // (equatorial) point.
        let cos_central = ground.lat.cos() * dlon.cos();
        (r * r + rs * rs - 2.0 * r * rs * cos_central).sqrt()
    }

    /// RTT from one ground point to a server *on* the satellite, ms.
    pub fn server_rtt_ms(&self, ground: Geodetic) -> f64 {
        2.0 * self.slant_range_m(ground) / SPEED_OF_LIGHT_M_S * 1e3
    }
}

/// Which platform suits a workload, by latency sensitivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlatformChoice {
    /// Latency-insensitive bulk distribution (video broadcast): GEO wins
    /// on coverage-per-satellite and stationarity.
    Geo,
    /// Latency-sensitive interactive compute: LEO wins.
    Leo,
}

/// Picks the platform for a workload with the given RTT budget from a
/// ground point, assuming the best-case (zenith-ish) GEO pass.
pub fn choose_platform(ground: Geodetic, rtt_budget_ms: f64) -> PlatformChoice {
    // Best possible GEO RTT from this latitude (satellite at same
    // longitude).
    let geo = GeoSatellite {
        longitude_deg: ground.lon.degrees(),
    };
    if geo.server_rtt_ms(ground) <= rtt_budget_ms {
        PlatformChoice::Geo
    } else {
        PlatformChoice::Leo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subpoint_rtt_is_about_239_ms() {
        // 2 × 35,786 km / c ≈ 238.7 ms — the textbook GEO number.
        let sat = GeoSatellite { longitude_deg: 0.0 };
        let rtt = sat.server_rtt_ms(Geodetic::ground(0.0, 0.0));
        assert!((rtt - 238.7).abs() < 1.0, "{rtt}");
    }

    #[test]
    fn leo_is_about_65x_lower_latency() {
        // §2: "65× for the 550 km example".
        let sat = GeoSatellite { longitude_deg: 0.0 };
        let geo_rtt = sat.server_rtt_ms(Geodetic::ground(0.0, 0.0));
        let leo_rtt = 2.0 * 550e3 / SPEED_OF_LIGHT_M_S * 1e3;
        let ratio = geo_rtt / leo_rtt;
        assert!((ratio - 65.0).abs() < 1.5, "{ratio}");
    }

    #[test]
    fn slant_range_grows_with_latitude() {
        let sat = GeoSatellite { longitude_deg: 0.0 };
        let eq = sat.slant_range_m(Geodetic::ground(0.0, 0.0));
        let mid = sat.slant_range_m(Geodetic::ground(45.0, 0.0));
        let high = sat.slant_range_m(Geodetic::ground(70.0, 0.0));
        assert!(eq < mid && mid < high);
        assert!((eq - GEO_ALTITUDE_M).abs() < 1e3);
    }

    #[test]
    fn video_broadcast_stays_on_geo_interactive_moves_to_leo() {
        // §6's boundary: a 1 s buffering budget is fine on GEO; a 100 ms
        // gaming budget is not.
        let lagos = Geodetic::ground(6.52, 3.38);
        assert_eq!(choose_platform(lagos, 1_000.0), PlatformChoice::Geo);
        assert_eq!(choose_platform(lagos, 100.0), PlatformChoice::Leo);
    }
}

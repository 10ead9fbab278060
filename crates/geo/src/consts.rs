//! Physical and geodetic constants.
//!
//! Sources: WGS-84 defining parameters (NIMA TR8350.2), IERS conventions,
//! and CODATA for the speed of light. The paper's own calculations use a
//! spherical Earth of radius 6371 km; [`EARTH_RADIUS_MEAN_M`] reproduces
//! that choice. The WGS-84 semi-major axis is the reference radius of the
//! J2 term.

/// WGS-84 semi-major axis (equatorial radius), meters.
pub const WGS84_A_M: f64 = 6_378_137.0;

/// Mean Earth radius (IUGG arithmetic mean radius), meters.
///
/// The paper's latency figures assume a spherical Earth of this radius.
pub const EARTH_RADIUS_MEAN_M: f64 = 6_371_000.0;

/// Standard gravitational parameter of the Earth μ = GM, m³/s².
pub const EARTH_MU_M3_S2: f64 = 3.986_004_418e14;

/// Earth's second zonal harmonic coefficient J2 (oblateness), dimensionless.
pub const EARTH_J2: f64 = 1.082_626_68e-3;

/// Earth rotation rate, rad/s (sidereal).
pub const EARTH_ROTATION_RAD_S: f64 = 7.292_115_146_706_979e-5;

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT_M_S: f64 = 299_792_458.0;

/// Seconds per sidereal day.
pub const SIDEREAL_DAY_S: f64 = 86_164.090_5;

/// Seconds per solar day.
pub const SOLAR_DAY_S: f64 = 86_400.0;

/// Geostationary orbit altitude above the equator, meters.
///
/// Used by the paper for the "~65× lower latency than GEO" comparison and
/// as the reference for "GEO-like stationarity".
pub const GEO_ALTITUDE_M: f64 = 35_786_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn mean_radius_lies_between_polar_and_equatorial() {
        // WGS-84 polar radius: b = a(1 − f) ≈ 6,356,752 m.
        assert!(6_356_752.3 < EARTH_RADIUS_MEAN_M);
        assert!(EARTH_RADIUS_MEAN_M < WGS84_A_M);
    }

    #[test]
    fn sidereal_day_matches_rotation_rate() {
        let day = 2.0 * std::f64::consts::PI / EARTH_ROTATION_RAD_S;
        assert!((day - SIDEREAL_DAY_S).abs() < 0.1);
    }

    #[test]
    fn geo_altitude_matches_kepler_third_law() {
        // a³ = μ (T / 2π)²  for a sidereal-day period.
        let a = (EARTH_MU_M3_S2 * (SIDEREAL_DAY_S / (2.0 * std::f64::consts::PI)).powi(2))
            .powf(1.0 / 3.0);
        let alt = a - WGS84_A_M;
        assert!(
            (alt - GEO_ALTITUDE_M).abs() < 10_000.0,
            "computed {alt}, expected {GEO_ALTITUDE_M}"
        );
    }
}

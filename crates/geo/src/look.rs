//! Ground-to-satellite look geometry: elevation, azimuth, slant range, and
//! the coverage envelope implied by a minimum elevation angle.
//!
//! These functions implement the geometry behind every figure of the paper:
//! a satellite is *reachable* from a ground point when its elevation above
//! the local horizon is at least the constellation's minimum elevation
//! angle, and the propagation latency is `slant_range / c`.

use crate::angle::Angle;
use crate::consts::EARTH_RADIUS_MEAN_M;
use crate::coords::{Ecef, Enu, Geodetic};
use serde::{Deserialize, Serialize};

/// Elevation and azimuth of a target as seen from a ground point, plus the
/// slant range between them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LookAngles {
    /// Elevation above the local horizon; negative when below it.
    pub elevation: Angle,
    /// Azimuth clockwise from north, normalized to `[0, 2π)`.
    pub azimuth: Angle,
    /// Straight-line distance to the target, meters.
    pub range_m: f64,
}

impl LookAngles {
    /// Computes look angles from a ground point to a target.
    ///
    /// `ground` is the geodetic ground point, `ground_ecef` its ECEF
    /// position, and `target` the target's ECEF position, all under the
    /// same Earth model.
    pub fn compute(ground: Geodetic, ground_ecef: Ecef, target: Ecef) -> LookAngles {
        let enu = Enu::from_ecef(ground_ecef, ground, target);
        let horiz = (enu.east * enu.east + enu.north * enu.north).sqrt();
        LookAngles {
            elevation: Angle::from_radians(enu.up.atan2(horiz)),
            azimuth: Angle::from_radians(enu.east.atan2(enu.north)).normalized(),
            range_m: enu.range_m(),
        }
    }
}

/// Maximum slant range (meters) from a ground point to a satellite at
/// `altitude_m`, when the satellite must be at least `min_elevation` above
/// the horizon. Spherical Earth.
///
/// Derivation (law of cosines in the Earth-center / ground / satellite
/// triangle): `d = sqrt((R+h)² − R²cos²ε) − R·sinε`.
pub fn max_slant_range_m(altitude_m: f64, min_elevation: Angle) -> f64 {
    let r = EARTH_RADIUS_MEAN_M;
    let rh = r + altitude_m;
    let (se, ce) = min_elevation.sin_cos();
    (rh * rh - r * r * ce * ce).sqrt() - r * se
}

/// Earth-central angle (radians) of the coverage cone of a satellite at
/// `altitude_m` with minimum elevation `min_elevation`: the maximum angle,
/// at the Earth's center, between the sub-satellite point and a ground
/// point that can still see the satellite. Spherical Earth.
pub fn coverage_central_angle(altitude_m: f64, min_elevation: Angle) -> Angle {
    let r = EARTH_RADIUS_MEAN_M;
    let rh = r + altitude_m;
    // sin(η) = R·cos(ε) / (R+h) where η is the nadir angle at the satellite;
    // central angle λ = π/2 − ε − η.
    let eta = (r * min_elevation.cos() / rh).asin();
    Angle::from_radians(std::f64::consts::FRAC_PI_2 - min_elevation.radians() - eta)
}

/// Quick visibility predicate on the spherical Earth model: true when the
/// satellite at ECEF `sat` is at least `min_elevation` above the horizon of
/// the ground point `ground`/`ground_ecef`.
///
/// Implemented as a dot-product threshold rather than a full ENU transform:
/// elevation ε satisfies `sin ε = (d · û) / |d|` with `û` the local up
/// direction, which for the spherical model is simply the normalized ground
/// position.
pub fn is_visible_spherical(ground_ecef: Ecef, sat: Ecef, min_elevation: Angle) -> bool {
    let up = ground_ecef.0.normalized();
    let d = sat.0 - ground_ecef.0;
    let range = d.norm();
    if range == 0.0 {
        return false;
    }
    d.dot(up) >= range * min_elevation.sin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::SPEED_OF_LIGHT_M_S;
    use proptest::prelude::*;

    fn ground_at(lat: f64, lon: f64) -> (Geodetic, Ecef) {
        let g = Geodetic::ground(lat, lon);
        (g, g.to_ecef_spherical())
    }

    #[test]
    fn satellite_at_zenith_has_ninety_degree_elevation() {
        let (g, ge) = ground_at(30.0, 40.0);
        let sat = Geodetic::from_degrees(30.0, 40.0, 550e3).to_ecef_spherical();
        let look = LookAngles::compute(g, ge, sat);
        assert!((look.elevation.degrees() - 90.0).abs() < 1e-6);
        assert!((look.range_m - 550e3).abs() < 1.0);
    }

    #[test]
    fn zenith_rtt_at_starlink_altitude_is_about_3_7_ms() {
        // 2 × 550 km / c ≈ 3.67 ms — the paper's "~4 ms to the nearest
        // satellite at most latitudes".
        let (g, ge) = ground_at(0.0, 0.0);
        let sat = Geodetic::from_degrees(0.0, 0.0, 550e3).to_ecef_spherical();
        let look = LookAngles::compute(g, ge, sat);
        let rtt_ms = 2.0 * look.range_m / SPEED_OF_LIGHT_M_S * 1e3;
        assert!((rtt_ms - 3.669).abs() < 0.01);
    }

    #[test]
    fn azimuth_of_due_north_target() {
        let (g, ge) = ground_at(0.0, 0.0);
        let sat = Geodetic::from_degrees(5.0, 0.0, 550e3).to_ecef_spherical();
        let look = LookAngles::compute(g, ge, sat);
        assert!(look.azimuth.degrees().abs() < 1e-6);
    }

    #[test]
    fn azimuth_of_due_east_target() {
        let (g, ge) = ground_at(0.0, 0.0);
        let sat = Geodetic::from_degrees(0.0, 5.0, 550e3).to_ecef_spherical();
        let look = LookAngles::compute(g, ge, sat);
        assert!((look.azimuth.degrees() - 90.0).abs() < 1e-6);
    }

    #[test]
    fn max_slant_range_at_zenith_is_altitude() {
        let d = max_slant_range_m(550e3, Angle::from_degrees(90.0));
        assert!((d - 550e3).abs() < 1e-6);
    }

    #[test]
    fn max_slant_range_at_25_deg_for_starlink_shell() {
        // Known value: 550 km altitude, 25° min elevation → ≈ 1123 km.
        let d = max_slant_range_m(550e3, Angle::from_degrees(25.0));
        assert!((d / 1e3 - 1123.0).abs() < 2.0, "{}", d / 1e3);
    }

    #[test]
    fn farthest_reachable_high_shell_matches_paper_16ms() {
        // Paper Fig. 1: the farthest directly reachable Starlink satellite
        // is within 16 ms RTT. The worst case is the 1325 km shell at the
        // minimum elevation.
        let d = max_slant_range_m(1325e3, Angle::from_degrees(25.0));
        let rtt = 2.0 * d / SPEED_OF_LIGHT_M_S * 1e3;
        assert!(rtt < 16.5, "rtt {rtt}");
        assert!(rtt > 14.0, "rtt {rtt}");
    }

    #[test]
    fn coverage_radius_shrinks_with_higher_min_elevation() {
        let lo = coverage_central_angle(550e3, Angle::from_degrees(25.0));
        let hi = coverage_central_angle(550e3, Angle::from_degrees(40.0));
        assert!(lo > hi);
    }

    #[test]
    fn visibility_predicate_agrees_with_look_angles() {
        let (g, ge) = ground_at(47.0, 8.0);
        let min_el = Angle::from_degrees(25.0);
        for dlat in [-20.0, -10.0, -5.0, 0.0, 5.0, 10.0, 20.0] {
            let sat = Geodetic::from_degrees(47.0 + dlat, 8.0, 550e3).to_ecef_spherical();
            let look = LookAngles::compute(g, ge, sat);
            assert_eq!(
                is_visible_spherical(ge, sat, min_el),
                look.elevation >= min_el,
                "dlat {dlat}: elevation {}",
                look.elevation
            );
        }
    }

    proptest! {
        #[test]
        fn prop_max_slant_range_monotone_in_elevation(
            alt in 300e3..2000e3f64,
            e1 in 0.0..89.0f64,
            delta in 0.01..10.0f64,
        ) {
            prop_assume!(e1 + delta <= 90.0);
            let lo = max_slant_range_m(alt, Angle::from_degrees(e1));
            let hi = max_slant_range_m(alt, Angle::from_degrees(e1 + delta));
            prop_assert!(lo > hi);
        }

        #[test]
        fn prop_slant_range_bounded_by_altitude_and_horizon(
            alt in 300e3..2000e3f64,
            e in 0.0..90.0f64,
        ) {
            let d = max_slant_range_m(alt, Angle::from_degrees(e));
            prop_assert!(d >= alt - 1.0);
            // Horizon distance at ε=0 is the absolute maximum.
            let horizon = max_slant_range_m(alt, Angle::ZERO);
            prop_assert!(d <= horizon + 1.0);
        }

        #[test]
        fn prop_visibility_predicate_matches_enu_elevation(
            glat in -80.0..80.0f64, glon in -180.0..180.0f64,
            slat in -80.0..80.0f64, slon in -180.0..180.0f64,
            alt in 300e3..2000e3f64,
            min_el in 5.0..60.0f64,
        ) {
            let g = Geodetic::ground(glat, glon);
            let ge = g.to_ecef_spherical();
            let sat = Geodetic::from_degrees(slat, slon, alt).to_ecef_spherical();
            let look = LookAngles::compute(g, ge, sat);
            let min_elevation = Angle::from_degrees(min_el);
            // Skip razor-edge cases where float noise flips the comparison.
            prop_assume!((look.elevation.degrees() - min_el).abs() > 1e-6);
            prop_assert_eq!(
                is_visible_spherical(ge, sat, min_elevation),
                look.elevation >= min_elevation
            );
        }
    }
}

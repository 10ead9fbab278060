//! Classical Keplerian orbital elements and derived scalar quantities.

use leo_geo::consts::{EARTH_MU_M3_S2, EARTH_RADIUS_MEAN_M};
use leo_geo::Angle;
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// The six classical orbital elements, referenced to an epoch.
///
/// `mean_anomaly` is the mean anomaly *at the propagator's epoch*; the
/// remaining angles follow the usual conventions (RAAN from the vernal
/// equinox, argument of perigee from the ascending node).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeplerianElements {
    /// Semi-major axis, meters.
    pub semi_major_axis_m: f64,
    /// Eccentricity, dimensionless (0 = circular).
    pub eccentricity: f64,
    /// Inclination to the equatorial plane.
    pub inclination: Angle,
    /// Right ascension of the ascending node.
    pub raan: Angle,
    /// Argument of perigee.
    pub arg_perigee: Angle,
    /// Mean anomaly at epoch.
    pub mean_anomaly: Angle,
}

impl KeplerianElements {
    /// A circular orbit at `altitude_m` above the mean-radius sphere with
    /// the given inclination, node, and phase.
    ///
    /// This is the shape of every shell in the planned mega-constellations
    /// (Starlink Phase I and Kuiper both file circular orbits).
    pub fn circular(altitude_m: f64, inclination: Angle, raan: Angle, mean_anomaly: Angle) -> Self {
        KeplerianElements {
            semi_major_axis_m: EARTH_RADIUS_MEAN_M + altitude_m,
            eccentricity: 0.0,
            inclination,
            raan,
            arg_perigee: Angle::ZERO,
            mean_anomaly,
        }
    }

    /// Mean motion `n = √(μ/a³)`, rad/s.
    pub fn mean_motion_rad_s(&self) -> f64 {
        (EARTH_MU_M3_S2 / self.semi_major_axis_m.powi(3)).sqrt()
    }

    /// Orbital period, seconds.
    pub fn period_s(&self) -> f64 {
        TAU / self.mean_motion_rad_s()
    }

    /// Mean motion in revolutions per (solar) day — the unit used in TLEs.
    pub fn mean_motion_rev_day(&self) -> f64 {
        self.mean_motion_rad_s() * 86_400.0 / TAU
    }

    /// Semi-latus rectum `p = a(1−e²)`, meters.
    pub fn semi_latus_rectum_m(&self) -> f64 {
        self.semi_major_axis_m * (1.0 - self.eccentricity * self.eccentricity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn starlink_550() -> KeplerianElements {
        KeplerianElements::circular(550e3, Angle::from_degrees(53.0), Angle::ZERO, Angle::ZERO)
    }

    #[test]
    fn starlink_550_period_matches_paper() {
        // §2 of the paper: "for an altitude of 550 km … completing each
        // orbit in 95 min 39 sec".
        let period = starlink_550().period_s();
        let paper = 95.0 * 60.0 + 39.0;
        assert!(
            (period - paper).abs() < 30.0,
            "period {period} s vs paper {paper} s"
        );
    }

    #[test]
    fn starlink_550_speed_matches_paper() {
        // §2: "the satellites travel at 27,306 km/h".
        let e = starlink_550();
        let v_kmh = std::f64::consts::TAU * e.semi_major_axis_m / e.period_s() * 3.6;
        assert!((v_kmh - 27_306.0).abs() < 100.0, "{v_kmh} km/h");
    }

    #[test]
    fn geo_period_is_about_a_sidereal_day() {
        let geo = KeplerianElements::circular(
            leo_geo::consts::GEO_ALTITUDE_M + 7e3, // mean-radius sphere offset
            Angle::ZERO,
            Angle::ZERO,
            Angle::ZERO,
        );
        assert!((geo.period_s() - leo_geo::consts::SIDEREAL_DAY_S).abs() < 120.0);
    }

    #[test]
    fn circular_orbit_has_equal_apsides() {
        let e = starlink_550();
        assert_eq!(e.eccentricity, 0.0);
        assert!((e.semi_major_axis_m - EARTH_RADIUS_MEAN_M - 550e3).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_period_increases_with_altitude(
            alt1 in 300e3..1900e3f64,
            dalt in 1e3..100e3f64,
        ) {
            let lo = KeplerianElements::circular(alt1, Angle::ZERO, Angle::ZERO, Angle::ZERO);
            let hi = KeplerianElements::circular(alt1 + dalt, Angle::ZERO, Angle::ZERO, Angle::ZERO);
            prop_assert!(hi.period_s() > lo.period_s());
        }

        #[test]
        fn prop_mean_motion_units_are_consistent(alt in 300e3..2000e3f64) {
            let e = KeplerianElements::circular(alt, Angle::ZERO, Angle::ZERO, Angle::ZERO);
            let from_rev = e.mean_motion_rev_day() / 86_400.0 * TAU;
            prop_assert!((from_rev - e.mean_motion_rad_s()).abs() < 1e-12);
            prop_assert!((e.period_s() * e.mean_motion_rad_s() - TAU).abs() < 1e-9);
        }
    }
}

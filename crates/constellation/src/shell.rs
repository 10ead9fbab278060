//! A single Walker shell: many circular orbits at one altitude and
//! inclination, arranged in evenly spaced planes.

use leo_geo::Angle;
use leo_orbit::KeplerianElements;
use serde::{Deserialize, Serialize};

/// How the shell's ascending nodes are spread in right ascension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WalkerPattern {
    /// Walker *delta*: planes spread over the full 360° of RAAN.
    /// Used by every inclined mega-constellation shell (Starlink, Kuiper).
    #[default]
    Delta,
    /// Walker *star*: planes spread over 180°, producing counter-rotating
    /// "seams" — the classic polar-constellation layout (e.g. Iridium).
    Star,
}

impl WalkerPattern {
    /// The RAAN span over which planes are distributed, degrees.
    fn raan_span_deg(self) -> f64 {
        match self {
            WalkerPattern::Delta => 360.0,
            WalkerPattern::Star => 180.0,
        }
    }
}

/// Specification of one Walker shell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShellSpec {
    /// Human-readable shell name, e.g. `"starlink-550"`.
    pub name: String,
    /// Orbit altitude above the mean-radius sphere, meters.
    pub altitude_m: f64,
    /// Orbital inclination.
    pub inclination: Angle,
    /// Number of orbital planes.
    pub num_planes: u32,
    /// Satellites per plane.
    pub sats_per_plane: u32,
    /// Walker phasing factor `F ∈ [0, num_planes)`: satellites in adjacent
    /// planes are offset in phase by `F × 360° / total_sats`.
    pub phase_factor: u32,
    /// RAAN distribution pattern.
    pub pattern: WalkerPattern,
    /// Minimum elevation angle for ground visibility (per the operator's
    /// FCC filing; 25° for Starlink, 35° for Kuiper).
    pub min_elevation: Angle,
}

impl ShellSpec {
    /// Total number of satellites in the shell.
    pub fn total_sats(&self) -> u32 {
        self.num_planes * self.sats_per_plane
    }

    /// The Keplerian elements of the satellite at (`plane`, `slot`).
    ///
    /// Plane `p` has RAAN `p × span / num_planes`; slot `s` within a plane
    /// has mean anomaly `s × 360° / sats_per_plane` plus the Walker phase
    /// offset `p × F × 360° / total_sats`.
    ///
    /// # Panics
    /// Panics when `plane` or `slot` is out of range.
    pub fn elements(&self, plane: u32, slot: u32) -> KeplerianElements {
        assert!(plane < self.num_planes, "plane {plane} out of range");
        assert!(slot < self.sats_per_plane, "slot {slot} out of range");
        let raan_deg = self.pattern.raan_span_deg() * plane as f64 / self.num_planes as f64;
        let ma_deg = 360.0 * slot as f64 / self.sats_per_plane as f64
            + 360.0 * (plane as f64 * self.phase_factor as f64) / self.total_sats() as f64;
        KeplerianElements::circular(
            self.altitude_m,
            self.inclination,
            Angle::from_degrees(raan_deg),
            Angle::from_degrees(ma_deg),
        )
    }

    /// Iterates over all `(plane, slot)` pairs in the shell, plane-major.
    pub fn positions(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let spp = self.sats_per_plane;
        (0..self.num_planes).flat_map(move |p| (0..spp).map(move |s| (p, s)))
    }

    /// Validates the shell parameters.
    pub fn validate(&self) -> Result<(), ShellError> {
        if self.num_planes == 0 || self.sats_per_plane == 0 {
            return Err(ShellError::Empty);
        }
        if self.phase_factor >= self.num_planes.max(1) * self.sats_per_plane.max(1) {
            return Err(ShellError::PhaseFactor {
                factor: self.phase_factor,
                total: self.total_sats(),
            });
        }
        if !(100e3..2_000e3).contains(&self.altitude_m) {
            return Err(ShellError::AltitudeOutsideLeo(self.altitude_m));
        }
        let el = self.min_elevation.degrees();
        if !(0.0..90.0).contains(&el) {
            return Err(ShellError::MinElevation(el));
        }
        Ok(())
    }
}

/// Validation failures for [`ShellSpec::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShellError {
    /// Zero planes or zero satellites per plane.
    Empty,
    /// Phase factor not below the total satellite count.
    PhaseFactor {
        /// The offending factor.
        factor: u32,
        /// Total satellites in the shell.
        total: u32,
    },
    /// Altitude outside the LEO band (100–2,000 km).
    AltitudeOutsideLeo(f64),
    /// Minimum elevation outside `[0°, 90°)`.
    MinElevation(f64),
}

impl std::fmt::Display for ShellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShellError::Empty => write!(f, "shell has no satellites"),
            ShellError::PhaseFactor { factor, total } => {
                write!(f, "phase factor {factor} must be < total sats {total}")
            }
            ShellError::AltitudeOutsideLeo(a) => {
                write!(f, "altitude {} km outside LEO (100-2000 km)", a / 1e3)
            }
            ShellError::MinElevation(e) => write!(f, "min elevation {e}° outside [0°, 90°)"),
        }
    }
}

impl std::error::Error for ShellError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn shell(planes: u32, spp: u32, f: u32) -> ShellSpec {
        ShellSpec {
            name: "test".into(),
            altitude_m: 550e3,
            inclination: Angle::from_degrees(53.0),
            num_planes: planes,
            sats_per_plane: spp,
            phase_factor: f,
            pattern: WalkerPattern::Delta,
            min_elevation: Angle::from_degrees(25.0),
        }
    }

    #[test]
    fn total_count_is_planes_times_slots() {
        assert_eq!(shell(72, 22, 0).total_sats(), 1584);
    }

    #[test]
    fn raan_is_evenly_spaced_over_the_pattern_span() {
        let s = shell(4, 1, 0);
        let raans: Vec<f64> = (0..4).map(|p| s.elements(p, 0).raan.degrees()).collect();
        assert_eq!(raans, vec![0.0, 90.0, 180.0, 270.0]);

        let mut star = shell(4, 1, 0);
        star.pattern = WalkerPattern::Star;
        let raans: Vec<f64> = (0..4).map(|p| star.elements(p, 0).raan.degrees()).collect();
        assert_eq!(raans, vec![0.0, 45.0, 90.0, 135.0]);
    }

    #[test]
    fn slots_are_evenly_spaced_in_mean_anomaly() {
        let s = shell(1, 8, 0);
        for slot in 0..8 {
            let ma = s.elements(0, slot).mean_anomaly.degrees();
            assert!((ma - slot as f64 * 45.0).abs() < 1e-9);
        }
    }

    #[test]
    fn phase_factor_shifts_adjacent_planes() {
        let s = shell(10, 10, 3);
        let base = s.elements(0, 0).mean_anomaly.degrees();
        let next = s.elements(1, 0).mean_anomaly.degrees();
        // F × 360 / T = 3 × 360 / 100 = 10.8°.
        assert!((next - base - 10.8).abs() < 1e-9);
    }

    #[test]
    fn positions_iterator_covers_every_satellite_once() {
        let s = shell(5, 7, 1);
        let all: Vec<_> = s.positions().collect();
        assert_eq!(all.len(), 35);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 35);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert_eq!(shell(0, 10, 0).validate(), Err(ShellError::Empty));
        assert!(matches!(
            shell(2, 2, 4).validate(),
            Err(ShellError::PhaseFactor { .. })
        ));
        let mut s = shell(2, 2, 0);
        s.altitude_m = 50e3;
        assert!(matches!(
            s.validate(),
            Err(ShellError::AltitudeOutsideLeo(_))
        ));
        let mut s = shell(2, 2, 0);
        s.min_elevation = Angle::from_degrees(95.0);
        assert!(matches!(s.validate(), Err(ShellError::MinElevation(_))));
        assert!(shell(72, 22, 11).validate().is_ok());
    }

    #[test]
    fn all_elements_share_altitude_and_inclination() {
        let s = shell(6, 4, 2);
        for (p, slot) in s.positions() {
            let e = s.elements(p, slot);
            assert_eq!(e.eccentricity, 0.0);
            let altitude_m = e.semi_major_axis_m - leo_geo::consts::EARTH_RADIUS_MEAN_M;
            assert!((altitude_m - 550e3).abs() < 1e-6);
            assert!((e.inclination.degrees() - 53.0).abs() < 1e-12);
        }
    }

    proptest! {
        #[test]
        fn prop_mean_anomalies_within_a_plane_are_distinct(
            planes in 1u32..20,
            spp in 2u32..40,
            f in 0u32..5,
        ) {
            let s = shell(planes, spp, f.min(planes * spp - 1));
            let plane = 0;
            let mut mas: Vec<f64> = (0..spp)
                .map(|slot| s.elements(plane, slot).mean_anomaly.normalized().degrees())
                .collect();
            mas.sort_by(f64::total_cmp);
            for w in mas.windows(2) {
                prop_assert!(w[1] - w[0] > 1e-6);
            }
        }

        #[test]
        fn prop_raans_are_unique_across_planes(
            planes in 2u32..40,
            spp in 1u32..10,
        ) {
            let s = shell(planes, spp, 0);
            let mut raans: Vec<f64> = (0..planes)
                .map(|p| s.elements(p, 0).raan.normalized().degrees())
                .collect();
            raans.sort_by(f64::total_cmp);
            for w in raans.windows(2) {
                prop_assert!(w[1] - w[0] > 1e-6);
            }
        }
    }
}

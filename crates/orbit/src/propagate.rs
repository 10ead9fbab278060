//! Two-body + J2 secular orbit propagation.
//!
//! [`Propagator`] turns [`KeplerianElements`] at an epoch into ECI/ECEF
//! state at any simulation time. The force model is Keplerian motion plus
//! the secular (orbit-averaged) effects of the Earth's oblateness (J2):
//! nodal regression, apsidal precession, and the mean-anomaly drift. For
//! the nominal circular shells of Starlink/Kuiper this matches what SGP4
//! produces from synthetic zero-drag TLEs, and over the paper's two-hour
//! experiment horizon the difference from a full SGP4 run is far below the
//! kilometre scale that could affect any latency number (see the
//! `ablation` bench that quantifies J2 on/off).

use crate::elements::KeplerianElements;
use crate::kepler;
use leo_geo::consts::{EARTH_J2, EARTH_MU_M3_S2, WGS84_A_M};
use leo_geo::coords::{Ecef, Eci};
use leo_geo::{gmst, Angle, Epoch, Vec3};
use serde::{Deserialize, Serialize};

/// Position and velocity in the ECI frame, meters and meters/second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateVector {
    /// ECI position, meters.
    pub position: Eci,
    /// ECI velocity, meters/second.
    pub velocity: Vec3,
}

/// Secular J2 rates for a given orbit, radians per second.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct J2Rates {
    /// RAAN drift (nodal regression), rad/s. Negative for prograde orbits.
    pub raan_dot: f64,
    /// Argument-of-perigee drift (apsidal precession), rad/s.
    pub arg_perigee_dot: f64,
    /// Mean-anomaly drift correction, rad/s.
    pub mean_anomaly_dot: f64,
}

impl J2Rates {
    /// Computes the secular J2 rates for the given elements.
    fn for_elements(e: &KeplerianElements) -> J2Rates {
        let n = e.mean_motion_rad_s();
        let p = e.semi_latus_rectum_m();
        let k = 1.5 * EARTH_J2 * (WGS84_A_M / p).powi(2) * n;
        let ci = e.inclination.cos();
        let si2 = e.inclination.sin().powi(2);
        let beta = (1.0 - e.eccentricity * e.eccentricity).sqrt();
        J2Rates {
            raan_dot: -k * ci,
            arg_perigee_dot: k * (2.0 - 2.5 * si2),
            mean_anomaly_dot: k * beta * (1.0 - 1.5 * si2),
        }
    }

    /// Zero rates — pure two-body motion (used by the J2 ablation bench).
    pub const ZERO: J2Rates = J2Rates {
        raan_dot: 0.0,
        arg_perigee_dot: 0.0,
        mean_anomaly_dot: 0.0,
    };
}

/// Force-model selection for [`Propagator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ForceModel {
    /// Two-body motion plus secular J2 (default; matches SGP4 on zero-drag
    /// circular elements).
    #[default]
    TwoBodyJ2,
    /// Pure Keplerian two-body motion.
    TwoBody,
}

/// Propagates one satellite's Keplerian elements to state vectors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Propagator {
    elements: KeplerianElements,
    epoch: Epoch,
    rates: J2Rates,
    mean_motion: f64,
}

impl Propagator {
    /// Creates a propagator with the default J2 force model.
    pub fn new(elements: KeplerianElements, epoch: Epoch) -> Self {
        Self::with_force_model(elements, epoch, ForceModel::TwoBodyJ2)
    }

    /// Creates a propagator with an explicit force model.
    pub fn with_force_model(elements: KeplerianElements, epoch: Epoch, model: ForceModel) -> Self {
        let rates = match model {
            ForceModel::TwoBodyJ2 => J2Rates::for_elements(&elements),
            ForceModel::TwoBody => J2Rates::ZERO,
        };
        Propagator {
            elements,
            epoch,
            rates,
            mean_motion: elements.mean_motion_rad_s(),
        }
    }

    /// The elements this propagator was built from.
    pub fn elements(&self) -> &KeplerianElements {
        &self.elements
    }

    /// ECI state (position + velocity) at `t` seconds after the epoch.
    pub fn state_at(&self, t: f64) -> StateVector {
        let e = &self.elements;
        let ecc = e.eccentricity;

        // Secularly drifted angles.
        let m = Angle::from_radians(
            e.mean_anomaly.radians() + (self.mean_motion + self.rates.mean_anomaly_dot) * t,
        );
        let raan = Angle::from_radians(e.raan.radians() + self.rates.raan_dot * t);
        let argp = Angle::from_radians(e.arg_perigee.radians() + self.rates.arg_perigee_dot * t);

        // Solve the ellipse.
        let e_anom = kepler::solve_kepler(m, ecc);
        let nu = kepler::true_anomaly_from_eccentric(e_anom, ecc);
        let r = kepler::radius_at_eccentric(e.semi_major_axis_m, e_anom, ecc);

        // Perifocal position and velocity.
        let (snu, cnu) = nu.sin_cos();
        let p = e.semi_latus_rectum_m();
        let pos_pf = Vec3::new(r * cnu, r * snu, 0.0);
        let h = (EARTH_MU_M3_S2 * p).sqrt();
        let vel_pf = Vec3::new(
            -EARTH_MU_M3_S2 / h * snu,
            EARTH_MU_M3_S2 / h * (ecc + cnu),
            0.0,
        );

        // Perifocal → ECI: Rz(raan) · Rx(incl) · Rz(argp).
        let rot = |v: Vec3| {
            v.rotate_z(argp.radians())
                .rotate_x(e.inclination.radians())
                .rotate_z(raan.radians())
        };
        StateVector {
            position: Eci(rot(pos_pf)),
            velocity: rot(vel_pf),
        }
    }

    /// ECI position at `t` seconds after the epoch.
    pub fn position_eci(&self, t: f64) -> Eci {
        self.state_at(t).position
    }

    /// ECEF position at `t` seconds after the epoch (rotates by GMST).
    pub fn position_ecef(&self, t: f64) -> Ecef {
        self.position_eci(t).to_ecef(gmst(self.epoch, t))
    }

    /// Geodetic sub-satellite point (spherical Earth) at `t` seconds after
    /// the epoch — latitude/longitude of the ground track plus altitude.
    pub fn subpoint(&self, t: f64) -> leo_geo::Geodetic {
        self.position_ecef(t).to_geodetic_spherical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn starlink() -> Propagator {
        let e = KeplerianElements::circular(
            550e3,
            Angle::from_degrees(53.0),
            Angle::from_degrees(10.0),
            Angle::from_degrees(42.0),
        );
        Propagator::new(e, Epoch::J2000)
    }

    #[test]
    fn circular_orbit_radius_is_constant() {
        let p = starlink();
        let a = p.elements().semi_major_axis_m;
        for i in 0..100 {
            let t = i as f64 * 60.0;
            let r = p.position_eci(t).0.norm();
            assert!((r - a).abs() < 1.0, "t={t}: r={r}");
        }
    }

    #[test]
    fn speed_matches_vis_viva() {
        let p = starlink();
        let a = p.elements().semi_major_axis_m;
        let expect = (EARTH_MU_M3_S2 / a).sqrt();
        for t in [0.0, 137.0, 999.5, 5000.0] {
            let v = p.state_at(t).velocity.norm();
            assert!((v - expect).abs() < 0.5, "t={t}: v={v} vs {expect}");
        }
    }

    #[test]
    fn velocity_is_orthogonal_to_position_on_circular_orbit() {
        let p = starlink();
        for t in [0.0, 100.0, 1234.0] {
            let s = p.state_at(t);
            let cosang = s.position.0.normalized().dot(s.velocity.normalized());
            assert!(cosang.abs() < 1e-6, "t={t}: cos={cosang}");
        }
    }

    #[test]
    fn two_body_orbit_returns_after_one_period() {
        let e =
            KeplerianElements::circular(550e3, Angle::from_degrees(53.0), Angle::ZERO, Angle::ZERO);
        let p = Propagator::with_force_model(e, Epoch::J2000, ForceModel::TwoBody);
        let period = e.period_s();
        let d = p.position_eci(0.0).0.distance(p.position_eci(period).0);
        assert!(d < 1.0, "drift {d} m after one period");
    }

    #[test]
    fn latitude_excursion_equals_inclination() {
        let p = starlink();
        let period = p.elements().period_s();
        let mut max_lat: f64 = 0.0;
        let steps = 2000;
        for i in 0..steps {
            let t = period * i as f64 / steps as f64;
            // Use ECI directly: geodetic latitude of ECI position.
            let pos = p.position_eci(t).0;
            let lat = (pos.z / pos.norm()).asin().to_degrees();
            max_lat = max_lat.max(lat.abs());
        }
        assert!((max_lat - 53.0).abs() < 0.05, "max lat {max_lat}");
    }

    #[test]
    fn j2_regresses_the_node_westward_for_prograde_orbit() {
        let rates = J2Rates::for_elements(starlink().elements());
        assert!(rates.raan_dot < 0.0);
        // Known magnitude: Starlink 550 km / 53° regresses ≈ −4.5°/day
        // (the oft-quoted −5°/day figure is the ISS at 420 km / 51.6°).
        let deg_per_day = rates.raan_dot.to_degrees() * 86_400.0;
        assert!((deg_per_day + 4.5).abs() < 0.3, "{deg_per_day}°/day");
    }

    #[test]
    fn polar_orbit_has_no_nodal_regression() {
        let e =
            KeplerianElements::circular(550e3, Angle::from_degrees(90.0), Angle::ZERO, Angle::ZERO);
        let rates = J2Rates::for_elements(&e);
        assert!(rates.raan_dot.abs() < 1e-12);
    }

    #[test]
    fn ground_track_drifts_westward() {
        // Earth rotation (plus nodal regression) makes successive
        // equator crossings move west.
        let p = starlink();
        let period = p.elements().period_s();
        let lon0 = p.subpoint(0.0).lon;
        let lon1 = p.subpoint(period).lon;
        let drift = (lon1 - lon0).normalized_signed().degrees();
        assert!(drift < -20.0 && drift > -30.0, "drift {drift}° per orbit");
    }

    #[test]
    fn j2_and_two_body_agree_at_epoch_and_diverge_slowly() {
        let e =
            KeplerianElements::circular(550e3, Angle::from_degrees(53.0), Angle::ZERO, Angle::ZERO);
        let pj2 = Propagator::new(e, Epoch::J2000);
        let p2b = Propagator::with_force_model(e, Epoch::J2000, ForceModel::TwoBody);
        assert!(pj2.position_eci(0.0).0.distance(p2b.position_eci(0.0).0) < 1e-6);
        // After 2 hours (the paper's horizon) the along-track difference
        // stays within tens of km — bounded and predictable.
        let d = pj2
            .position_eci(7200.0)
            .0
            .distance(p2b.position_eci(7200.0).0);
        assert!(d < 60_000.0, "2-hour J2 divergence {d} m");
    }

    proptest! {
        #[test]
        fn prop_radius_bounded_by_apsides(
            alt in 300e3..2000e3f64,
            ecc in 0.0..0.01f64,
            incl in 0.0..100.0f64,
            t in 0.0..20_000.0f64,
        ) {
            let mut e = KeplerianElements::circular(
                alt, Angle::from_degrees(incl), Angle::ZERO, Angle::ZERO);
            e.eccentricity = ecc;
            let p = Propagator::new(e, Epoch::J2000);
            let r = p.position_eci(t).0.norm();
            let a = e.semi_major_axis_m;
            prop_assert!(r >= a * (1.0 - ecc) - 1.0);
            prop_assert!(r <= a * (1.0 + ecc) + 1.0);
        }

        #[test]
        fn prop_inclination_bounds_latitude(
            alt in 300e3..2000e3f64,
            incl in 5.0..90.0f64,
            t in 0.0..20_000.0f64,
        ) {
            let e = KeplerianElements::circular(
                alt, Angle::from_degrees(incl), Angle::ZERO, Angle::ZERO);
            let p = Propagator::new(e, Epoch::J2000);
            let pos = p.position_eci(t).0;
            let lat = (pos.z / pos.norm()).asin().to_degrees();
            prop_assert!(lat.abs() <= incl + 1e-6);
        }

        #[test]
        fn prop_ecef_and_eci_radii_agree(
            alt in 300e3..2000e3f64,
            t in 0.0..20_000.0f64,
        ) {
            let e = KeplerianElements::circular(
                alt, Angle::from_degrees(53.0), Angle::ZERO, Angle::ZERO);
            let p = Propagator::new(e, Epoch::J2000);
            let r_eci = p.position_eci(t).0.norm();
            let r_ecef = p.position_ecef(t).0.norm();
            prop_assert!((r_eci - r_ecef).abs() < 1e-4);
        }
    }
}

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
    /// Its position is the oracle the position-only kernel
    /// ([`Propagator::position_eci`], [`positions_ecef`]) is tested
    /// against bit for bit, so the two keep separate code.
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

    /// ECI position at `t` seconds after the epoch: the position-only
    /// kernel of [`positions_ecef`] on this satellite alone. Bit-identical
    /// to `state_at(t).position`, without the velocity.
    pub fn position_eci(&self, t: f64) -> Eci {
        Eci(self.position_with(t, &mut PlaneRotation::default()))
    }

    /// The position-only kernel: [`Propagator::state_at`]'s position, in
    /// the same float operations, with the three rotation angles' sines
    /// and cosines taken through `rot`.
    #[inline]
    fn position_with(&self, t: f64, rot: &mut PlaneRotation) -> Vec3 {
        let e = &self.elements;
        let ecc = e.eccentricity;
        let m = Angle::from_radians(
            e.mean_anomaly.radians() + (self.mean_motion + self.rates.mean_anomaly_dot) * t,
        );
        let raan = e.raan.radians() + self.rates.raan_dot * t;
        let argp = e.arg_perigee.radians() + self.rates.arg_perigee_dot * t;
        let e_anom = kepler::solve_kepler(m, ecc);
        let nu = kepler::true_anomaly_from_eccentric(e_anom, ecc);
        let r = kepler::radius_at_eccentric(e.semi_major_axis_m, e_anom, ecc);
        let (snu, cnu) = nu.sin_cos();
        let (sw, cw) = rot.arg_perigee.sin_cos(argp);
        let (si, ci) = rot.inclination.sin_cos(e.inclination.radians());
        let (so, co) = rot.raan.sin_cos(raan);
        Vec3::new(r * cnu, r * snu, 0.0)
            .rotate_z_sin_cos(sw, cw)
            .rotate_x_sin_cos(si, ci)
            .rotate_z_sin_cos(so, co)
    }

    /// ECEF position at `t` seconds after the epoch (rotates by GMST).
    pub fn position_ecef(&self, t: f64) -> Ecef {
        self.position_eci(t).to_ecef(gmst(self.epoch, t))
    }
}

/// The sine and cosine of the last angle seen, reused while successive
/// calls pass an angle with the same bits. Empty until the first call:
/// a NaN sentinel would match the NaN a non-finite `t` gives every
/// angle, and hand back the sentinel's stale values.
#[derive(Debug, Default)]
struct SinCosMemo(Option<(u64, f64, f64)>);

impl SinCosMemo {
    #[inline]
    fn sin_cos(&mut self, angle: f64) -> (f64, f64) {
        let bits = angle.to_bits();
        match self.0 {
            Some((b, s, c)) if b == bits => (s, c),
            _ => {
                let (s, c) = angle.sin_cos();
                self.0 = Some((bits, s, c));
                (s, c)
            }
        }
    }
}

/// The perifocal-to-ECI rotation's angles, memoised across satellites:
/// a Walker shell shares one inclination and argument of perigee, and a
/// plane one RAAN, so each is taken once per shell or plane per instant.
#[derive(Debug, Default)]
struct PlaneRotation {
    inclination: SinCosMemo,
    raan: SinCosMemo,
    arg_perigee: SinCosMemo,
}

/// ECEF positions of `propagators`, in order, at `t` seconds after their
/// epoch, with the Earth rotated by `gmst` (its value at `t`): the
/// snapshot kernel. It computes no velocity, takes GMST's sine and cosine
/// once, and reuses each rotation angle's sine and cosine while
/// consecutive satellites share its bits. Every position is bit-identical
/// to `p.position_eci(t).to_ecef(gmst)`.
pub fn positions_ecef<'a>(
    propagators: impl IntoIterator<Item = &'a Propagator>,
    t: f64,
    gmst: Angle,
) -> Vec<Ecef> {
    // `Eci::to_ecef` rotates by −GMST.
    let (sg, cg) = (-gmst.radians()).sin_cos();
    let mut rot = PlaneRotation::default();
    propagators
        .into_iter()
        .map(|p| Ecef(p.position_with(t, &mut rot).rotate_z_sin_cos(sg, cg)))
        .collect()
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
        let lon0 = p.position_ecef(0.0).to_geodetic_spherical().lon;
        let lon1 = p.position_ecef(period).to_geodetic_spherical().lon;
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

    /// Bit patterns, with every NaN read as `f64::NAN`: Rust leaves a
    /// NaN result's sign and payload unspecified, and an optimised build
    /// does flip the sign between two compilations of one expression.
    fn bits(v: Vec3) -> [u64; 3] {
        [v.x, v.y, v.z].map(|x| if x.is_nan() { f64::NAN } else { x }.to_bits())
    }

    /// One propagator per draw of `(altitude, eccentricity, inclination,
    /// RAAN, argument of perigee, mean anomaly, share)`. The bits of
    /// `share` make a satellite take its predecessor's inclination, RAAN,
    /// argument of perigee, and orbit size and shape (hence its J2
    /// rates), so the kernel's memo meets runs that share an angle's bits
    /// and runs that break them.
    fn chain(draws: &[(f64, f64, f64, f64, f64, f64, u8)]) -> Vec<Propagator> {
        let mut out: Vec<Propagator> = Vec::new();
        for &(alt, ecc, incl, raan, argp, ma, share) in draws {
            let mut e = KeplerianElements::circular(
                alt,
                Angle::from_radians(incl),
                Angle::from_radians(raan),
                Angle::from_radians(ma),
            );
            e.eccentricity = ecc;
            e.arg_perigee = Angle::from_radians(argp);
            if let Some(prev) = out.last().map(|p| *p.elements()) {
                if share & 1 != 0 {
                    e.inclination = prev.inclination;
                }
                if share & 2 != 0 {
                    e.raan = prev.raan;
                }
                if share & 4 != 0 {
                    e.arg_perigee = prev.arg_perigee;
                }
                if share & 8 != 0 {
                    e.semi_major_axis_m = prev.semi_major_axis_m;
                    e.eccentricity = prev.eccentricity;
                }
            }
            out.push(Propagator::new(e, Epoch::J2000));
        }
        out
    }

    #[test]
    fn angle_memo_has_no_nan_sentinel() {
        // A non-finite `t` makes every drifted angle NaN, so a memo that
        // started from a NaN key would hand back its placeholder values.
        let mut memo = SinCosMemo::default();
        let (s, c) = memo.sin_cos(f64::NAN);
        assert!(s.is_nan() && c.is_nan());
        assert_eq!(memo.sin_cos(0.5), 0.5f64.sin_cos());
        assert_eq!(memo.sin_cos(0.5), 0.5f64.sin_cos());
        let (s, c) = memo.sin_cos(f64::NAN);
        assert!(s.is_nan() && c.is_nan());
    }

    #[test]
    fn kernel_is_bit_identical_at_non_finite_and_distant_instants() {
        let draws = [
            (550e3, 0.0, 0.9, 0.1, 0.0, 0.2, 0),
            (550e3, 0.0, 0.9, 0.1, 0.0, 1.2, 15),
            (1_200e3, 0.1, 1.4, 2.0, 0.7, 3.0, 0),
            (1_200e3, 0.1, 1.4, 2.0, 0.7, 4.0, 15),
        ];
        let props = chain(&draws);
        for t in [
            0.0,
            -3_600.5,
            2.5 * 86_400.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let g = gmst(Epoch::J2000, t);
            for (p, got) in props.iter().zip(positions_ecef(&props, t, g)) {
                let want = p.state_at(t).position;
                assert_eq!(bits(p.position_eci(t).0), bits(want.0), "t={t}");
                assert_eq!(bits(got.0), bits(want.to_ecef(g).0), "t={t}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_kernel_is_bit_identical_to_the_state_oracle(
            draws in collection::vec(
                (
                    300e3..2_000e3f64,
                    0.0..0.6f64,
                    0.0..3.2f64,
                    -7.0..7.0f64,
                    -7.0..7.0f64,
                    -7.0..7.0f64,
                    0u8..16,
                ),
                1..40,
            ),
            t in -1.0e6..1.0e6f64,
        ) {
            let props = chain(&draws);
            let g = gmst(Epoch::J2000, t);
            for (p, got) in props.iter().zip(positions_ecef(&props, t, g)) {
                let want = p.state_at(t).position;
                prop_assert_eq!(bits(p.position_eci(t).0), bits(want.0));
                prop_assert_eq!(bits(got.0), bits(want.to_ecef(g).0));
            }
        }

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

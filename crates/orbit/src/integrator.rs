//! Numerical orbit propagation (RK4) with a full J2 gravity field: the
//! test oracle for the analytic propagator, compiled only under
//! `cfg(test)`.
//!
//! The analytic propagator ([`crate::propagate`]) applies J2 only as
//! secular drift rates — exactly what SGP4 does for near-circular
//! orbits, and all the paper's experiments need. This module provides an
//! independent *numerical* integrator (fixed-step Runge–Kutta 4 with the
//! full J2 acceleration, including the short-period terms the analytic
//! model averages away). The tests below use it to check that the
//! analytic propagator stays within the short-period J2 oscillation
//! amplitude (~km) of truth over the paper's horizons.

use crate::propagate::StateVector;
use leo_geo::consts::{EARTH_J2, EARTH_MU_M3_S2, WGS84_A_M};
use leo_geo::coords::Eci;
use leo_geo::Vec3;

/// Acceleration due to a point-mass Earth, m/s².
pub fn two_body_accel(r: Vec3) -> Vec3 {
    let rn = r.norm();
    r * (-EARTH_MU_M3_S2 / (rn * rn * rn))
}

/// Acceleration due to the J2 oblateness term (full, not orbit-averaged),
/// m/s². Standard formulation in ECI with z along the rotation axis.
pub fn j2_accel(r: Vec3) -> Vec3 {
    let rn = r.norm();
    let k = -1.5 * EARTH_J2 * EARTH_MU_M3_S2 * WGS84_A_M * WGS84_A_M / rn.powi(5);
    let z2r2 = (r.z / rn).powi(2);
    Vec3::new(
        k * r.x * (1.0 - 5.0 * z2r2),
        k * r.y * (1.0 - 5.0 * z2r2),
        k * r.z * (3.0 - 5.0 * z2r2),
    )
}

/// The force model evaluated by the integrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericForceModel {
    /// Point-mass Earth only.
    TwoBody,
    /// Point mass + full J2.
    TwoBodyJ2,
}

impl NumericForceModel {
    fn accel(self, r: Vec3) -> Vec3 {
        match self {
            NumericForceModel::TwoBody => two_body_accel(r),
            NumericForceModel::TwoBodyJ2 => two_body_accel(r) + j2_accel(r),
        }
    }
}

/// A fixed-step RK4 integrator over an ECI state.
#[derive(Debug, Clone, Copy)]
pub struct Rk4Integrator {
    /// Step size, seconds. 10 s keeps position error < 1 m over 2 h for
    /// LEO; tests verify.
    pub step_s: f64,
    /// Force model.
    pub model: NumericForceModel,
}

impl Rk4Integrator {
    /// Creates an integrator.
    ///
    /// # Panics
    /// Panics on a non-positive step.
    pub fn new(step_s: f64, model: NumericForceModel) -> Self {
        assert!(step_s > 0.0, "step must be positive");
        Rk4Integrator { step_s, model }
    }

    fn derivative(&self, pos: Vec3, vel: Vec3) -> (Vec3, Vec3) {
        (vel, self.model.accel(pos))
    }

    /// One RK4 step from `(pos, vel)` over `dt` seconds.
    fn step(&self, pos: Vec3, vel: Vec3, dt: f64) -> (Vec3, Vec3) {
        let (k1p, k1v) = self.derivative(pos, vel);
        let (k2p, k2v) = self.derivative(pos + k1p * (dt / 2.0), vel + k1v * (dt / 2.0));
        let (k3p, k3v) = self.derivative(pos + k2p * (dt / 2.0), vel + k2v * (dt / 2.0));
        let (k4p, k4v) = self.derivative(pos + k3p * dt, vel + k3v * dt);
        (
            pos + (k1p + k2p * 2.0 + k3p * 2.0 + k4p) * (dt / 6.0),
            vel + (k1v + k2v * 2.0 + k3v * 2.0 + k4v) * (dt / 6.0),
        )
    }

    /// Propagates a state by `duration_s` seconds (forwards only).
    ///
    /// # Panics
    /// Panics on negative duration.
    pub fn propagate(&self, state: StateVector, duration_s: f64) -> StateVector {
        assert!(duration_s >= 0.0, "integrator runs forward only");
        let mut pos = state.position.0;
        let mut vel = state.velocity;
        let mut remaining = duration_s;
        while remaining > 1e-12 {
            let dt = remaining.min(self.step_s);
            let (p, v) = self.step(pos, vel, dt);
            pos = p;
            vel = v;
            remaining -= dt;
        }
        StateVector {
            position: Eci(pos),
            velocity: vel,
        }
    }
}

/// Specific orbital energy of a state, J/kg — conserved under any
/// conservative force model; used as an integration-quality check.
pub fn specific_energy(state: &StateVector) -> f64 {
    let v2 = state.velocity.norm_squared();
    let r = state.position.0.norm();
    v2 / 2.0 - EARTH_MU_M3_S2 / r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::KeplerianElements;
    use crate::propagate::{ForceModel, Propagator};
    use leo_geo::{Angle, Epoch};

    fn starlink_elements() -> KeplerianElements {
        KeplerianElements::circular(
            550e3,
            Angle::from_degrees(53.0),
            Angle::from_degrees(30.0),
            Angle::from_degrees(60.0),
        )
    }

    #[test]
    fn rk4_matches_analytic_two_body_to_sub_meter() {
        let e = starlink_elements();
        let analytic = Propagator::with_force_model(e, Epoch::J2000, ForceModel::TwoBody);
        let rk4 = Rk4Integrator::new(10.0, NumericForceModel::TwoBody);
        let s0 = analytic.state_at(0.0);
        for horizon in [600.0, 3600.0, 7200.0] {
            let truth = rk4.propagate(s0, horizon);
            let approx = analytic.state_at(horizon);
            let d = truth.position.0.distance(approx.position.0);
            assert!(d < 1.0, "horizon {horizon}: {d} m");
        }
    }

    #[test]
    fn analytic_j2_stays_within_short_period_amplitude_of_numeric_truth() {
        // The analytic model drops J2's short-period oscillations
        // (position amplitude ~10 km at LEO) and, because it treats its
        // elements as *mean* elements while the integrator receives them
        // as osculating, accrues a small along-track drift on top. Both
        // effects stay well under the ~600 km inter-satellite spacing
        // over the paper's 2-hour horizon (≤ 0.2 ms of latency error),
        // which is what the substitution in DESIGN.md §4 relies on.
        let e = starlink_elements();
        let analytic = Propagator::new(e, Epoch::J2000);
        let rk4 = Rk4Integrator::new(5.0, NumericForceModel::TwoBodyJ2);
        let s0 = analytic.state_at(0.0);
        for horizon in [1800.0, 7200.0] {
            let truth = rk4.propagate(s0, horizon);
            let approx = analytic.state_at(horizon);
            let d = truth.position.0.distance(approx.position.0);
            assert!(
                d < 60_000.0,
                "horizon {horizon}: {d} m exceeds the J2 mean-vs-osculating band"
            );
        }
    }

    #[test]
    fn energy_is_conserved_under_two_body() {
        let e = starlink_elements();
        let p = Propagator::with_force_model(e, Epoch::J2000, ForceModel::TwoBody);
        let rk4 = Rk4Integrator::new(10.0, NumericForceModel::TwoBody);
        let s0 = p.state_at(0.0);
        let e0 = specific_energy(&s0);
        let s1 = rk4.propagate(s0, 7200.0);
        let e1 = specific_energy(&s1);
        assert!(((e1 - e0) / e0).abs() < 1e-9, "energy drift {e0} -> {e1}");
    }

    #[test]
    fn j2_acceleration_is_small_relative_to_two_body() {
        let e = starlink_elements();
        let s = Propagator::new(e, Epoch::J2000).state_at(0.0);
        let tb = two_body_accel(s.position.0).norm();
        let j2 = j2_accel(s.position.0).norm();
        let ratio = j2 / tb;
        // J2/central ≈ (3/2)·J2·(Re/r)² ≈ 1.4e-3 at 550 km.
        assert!((1e-4..1e-2).contains(&ratio), "{ratio}");
    }

    #[test]
    fn j2_has_no_equatorial_z_component_on_the_equator() {
        let r = Vec3::new(7e6, 0.0, 0.0);
        let a = j2_accel(r);
        assert_eq!(a.z, 0.0);
        assert!(a.x < 0.0, "J2 pulls inward extra at the equator");
    }

    #[test]
    fn smaller_steps_refine_the_solution() {
        let e = starlink_elements();
        let p = Propagator::with_force_model(e, Epoch::J2000, ForceModel::TwoBody);
        let s0 = p.state_at(0.0);
        let truth = p.state_at(3600.0); // analytic 2-body is exact
        let coarse = Rk4Integrator::new(60.0, NumericForceModel::TwoBody).propagate(s0, 3600.0);
        let fine = Rk4Integrator::new(5.0, NumericForceModel::TwoBody).propagate(s0, 3600.0);
        let ec = coarse.position.0.distance(truth.position.0);
        let ef = fine.position.0.distance(truth.position.0);
        assert!(ef < ec, "fine {ef} vs coarse {ec}");
    }

    #[test]
    fn partial_final_step_lands_exactly_on_the_horizon() {
        // Horizon not a multiple of the step: radius must still be right.
        let e = starlink_elements();
        let p = Propagator::with_force_model(e, Epoch::J2000, ForceModel::TwoBody);
        let s0 = p.state_at(0.0);
        let rk4 = Rk4Integrator::new(10.0, NumericForceModel::TwoBody);
        let s = rk4.propagate(s0, 1234.567);
        let expected = p.state_at(1234.567);
        assert!(s.position.0.distance(expected.position.0) < 1.0);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_is_rejected() {
        Rk4Integrator::new(0.0, NumericForceModel::TwoBody);
    }
}

//! Kepler's equation and anomaly conversions.
//!
//! Mean anomaly `M` advances linearly in time; the position on the ellipse
//! needs the eccentric anomaly `E` (via Kepler's equation `M = E − e·sin E`)
//! and the true anomaly `ν`. For the circular mega-constellation shells all
//! three coincide, but the solver supports the general elliptical case so
//! that TLE-imported satellites propagate correctly.

use leo_geo::Angle;

/// Maximum Newton iterations before giving up (never reached in practice;
/// convergence is quadratic from the chosen starting point).
const MAX_ITERATIONS: usize = 50;

/// Convergence tolerance on the eccentric anomaly, radians.
const TOLERANCE: f64 = 1e-12;

/// Solves Kepler's equation `M = E − e·sin E` for the eccentric anomaly.
///
/// Uses Newton–Raphson with the standard third-order starting guess
/// `E₀ = M + e·sin M / (1 − sin(M+e) + sin M)` for robustness at high
/// eccentricity. `eccentricity` must lie in `[0, 1)`.
///
/// # Panics
/// Panics in debug builds when `eccentricity` is outside `[0, 1)`.
#[inline]
pub fn solve_kepler(mean_anomaly: Angle, eccentricity: f64) -> Angle {
    debug_assert!(
        (0.0..1.0).contains(&eccentricity),
        "eccentricity {eccentricity} outside [0,1)"
    );
    let m = mean_anomaly.normalized_signed().radians();
    if eccentricity == 0.0 {
        return Angle::from_radians(m);
    }
    // Starting guess (Danby 1987): good global convergence.
    let mut e_anom = m + 0.85 * eccentricity * m.sin().signum();
    for _ in 0..MAX_ITERATIONS {
        let f = e_anom - eccentricity * e_anom.sin() - m;
        let fp = 1.0 - eccentricity * e_anom.cos();
        let delta = f / fp;
        e_anom -= delta;
        if delta.abs() < TOLERANCE {
            break;
        }
    }
    Angle::from_radians(e_anom)
}

/// True anomaly from eccentric anomaly.
#[inline]
pub fn true_anomaly_from_eccentric(eccentric: Angle, eccentricity: f64) -> Angle {
    let e = eccentricity;
    let (s, c) = eccentric.sin_cos();
    let beta = (1.0 - e * e).sqrt();
    Angle::from_radians((beta * s).atan2(c - e))
}

/// Radius (distance from focus) at an eccentric anomaly for a given
/// semi-major axis: `r = a (1 − e·cos E)`.
#[inline]
pub fn radius_at_eccentric(semi_major_axis_m: f64, eccentric: Angle, eccentricity: f64) -> f64 {
    semi_major_axis_m * (1.0 - eccentricity * eccentric.cos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    #[test]
    fn circular_orbit_anomalies_coincide() {
        for m in [-3.0, -1.0, 0.0, 0.5, 2.0, 3.1] {
            let ma = Angle::from_radians(m);
            let e_anom = solve_kepler(ma, 0.0);
            assert!((e_anom.radians() - ma.normalized_signed().radians()).abs() < 1e-12);
            let nu = true_anomaly_from_eccentric(e_anom, 0.0);
            assert!(
                (nu.normalized_signed().radians() - ma.normalized_signed().radians()).abs() < 1e-12
            );
        }
    }

    #[test]
    fn known_solution_vallado_example() {
        // Vallado, example 2-1: M = 235.4°, e = 0.4 → E ≈ 220.512074°.
        let e_anom = solve_kepler(Angle::from_degrees(235.4), 0.4);
        let deg = e_anom.normalized().degrees();
        assert!((deg - 220.512_074).abs() < 1e-5, "{deg}");
    }

    #[test]
    fn apsides_are_fixed_points() {
        for e in [0.0, 0.1, 0.5, 0.9] {
            assert!(solve_kepler(Angle::ZERO, e).radians().abs() < 1e-12);
            let at_apo = solve_kepler(Angle::from_radians(PI), e);
            assert!((at_apo.normalized_signed().radians().abs() - PI).abs() < 1e-9);
        }
    }

    #[test]
    fn radius_spans_perigee_to_apogee() {
        let a = 7000e3;
        let e = 0.1;
        let rp = radius_at_eccentric(a, Angle::ZERO, e);
        let ra = radius_at_eccentric(a, Angle::from_radians(PI), e);
        assert!((rp - a * 0.9).abs() < 1e-6);
        assert!((ra - a * 1.1).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_solver_satisfies_keplers_equation(
            m in -10.0..10.0f64,
            e in 0.0..0.95f64,
        ) {
            let ma = Angle::from_radians(m);
            let ea = solve_kepler(ma, e);
            // Kepler's equation, forward: M = E − e·sin E.
            let back = Angle::from_radians(ea.radians() - e * ea.sin());
            let diff = (back - ma).normalized_signed().radians().abs();
            prop_assert!(diff < 1e-9, "residual {diff}");
        }

        #[test]
        fn prop_true_eccentric_round_trip(
            nu in -3.1..3.1f64,
            e in 0.0..0.95f64,
        ) {
            let t = Angle::from_radians(nu);
            let beta = (1.0 - e * e).sqrt();
            let ea = Angle::from_radians((beta * t.sin()).atan2(t.cos() + e));
            let back = true_anomaly_from_eccentric(ea, e);
            prop_assert!((back - t).normalized_signed().radians().abs() < 1e-9);
        }

        #[test]
        fn prop_radius_within_apsidal_bounds(
            m in -10.0..10.0f64,
            e in 0.0..0.95f64,
            a in 6.6e6..8e6f64,
        ) {
            let ea = solve_kepler(Angle::from_radians(m), e);
            let r = radius_at_eccentric(a, ea, e);
            prop_assert!(r >= a * (1.0 - e) - 1e-6);
            prop_assert!(r <= a * (1.0 + e) + 1e-6);
        }
    }
}

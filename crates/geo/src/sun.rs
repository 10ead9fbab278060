//! Earth-shadow (eclipse) geometry.
//!
//! The feasibility analysis in §4 of the paper notes that "satellites use
//! batteries for continuous operation, given that substantial orbital time
//! is spent in the Earth's shadow". The power model in `leo-feasibility`
//! needs the eclipse fraction of an orbit, which [`eclipse_fraction`] gives
//! in closed form for a cylindrical shadow.

use crate::angle::Angle;
use crate::consts::EARTH_RADIUS_MEAN_M;

/// Fraction of a circular orbit spent in the Earth's shadow, for a
/// satellite at `altitude_m` whose orbit plane makes angle `beta` with the
/// Sun direction (the "beta angle").
///
/// Closed form for the cylindrical shadow model:
/// eclipse occurs iff `cos β > sin ρ` is violated appropriately, where
/// `sin ρ = R / (R + h)`; the half-angle of the eclipse arc is
/// `acos( sqrt(h² + 2Rh) / ((R+h) cos β) )`.
pub fn eclipse_fraction(altitude_m: f64, beta: Angle) -> f64 {
    let r = EARTH_RADIUS_MEAN_M;
    let rh = r + altitude_m;
    let cb = beta.cos().abs();
    let horizon = (altitude_m * altitude_m + 2.0 * r * altitude_m).sqrt();
    let x = horizon / (rh * cb);
    if x >= 1.0 {
        0.0 // orbit never crosses the shadow at this beta angle
    } else {
        x.acos() / std::f64::consts::PI
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Eci;
    use crate::vec3::Vec3;
    use proptest::prelude::*;

    /// True when a satellite at ECI position `sat` is inside the Earth's
    /// (cylindrical) shadow given the Sun direction.
    ///
    /// The cylindrical model ignores penumbra; for LEO power budgeting the
    /// penumbral transit lasts seconds and is negligible.
    fn in_earth_shadow(sat: Eci, sun_dir: Vec3) -> bool {
        let r = sat.0;
        // Must be on the anti-sun side…
        let along = r.dot(sun_dir);
        if along >= 0.0 {
            return false;
        }
        // …and within one Earth radius of the shadow axis.
        let perp = (r - sun_dir * along).norm();
        perp < EARTH_RADIUS_MEAN_M
    }

    #[test]
    fn satellite_behind_earth_is_in_shadow() {
        let sun = Vec3::X;
        let sat = Eci(Vec3::new(-(EARTH_RADIUS_MEAN_M + 550e3), 0.0, 0.0));
        assert!(in_earth_shadow(sat, sun));
    }

    #[test]
    fn satellite_on_sun_side_is_lit() {
        let sun = Vec3::X;
        let sat = Eci(Vec3::new(EARTH_RADIUS_MEAN_M + 550e3, 0.0, 0.0));
        assert!(!in_earth_shadow(sat, sun));
    }

    #[test]
    fn satellite_beside_shadow_cylinder_is_lit() {
        let sun = Vec3::X;
        let sat = Eci(Vec3::new(-1e7, EARTH_RADIUS_MEAN_M * 1.5, 0.0));
        assert!(!in_earth_shadow(sat, sun));
    }

    #[test]
    fn eclipse_fraction_at_zero_beta_for_starlink_altitude() {
        // 550 km, β = 0: eclipse fraction ≈ acos(√(h²+2Rh)/(R+h))/π ≈ 0.375.
        let f = eclipse_fraction(550e3, Angle::ZERO);
        assert!((f - 0.375).abs() < 0.01, "{f}");
    }

    #[test]
    fn high_beta_orbits_are_eclipse_free() {
        let f = eclipse_fraction(550e3, Angle::from_degrees(80.0));
        assert_eq!(f, 0.0);
    }

    #[test]
    fn closed_form_matches_shadow_sampling() {
        // Integrate the shadow predicate around a circular orbit and compare
        // with the closed-form eclipse fraction.
        let alt = 550e3;
        let beta = Angle::from_degrees(20.0);
        let sun = Vec3::X;
        let rh = EARTH_RADIUS_MEAN_M + alt;
        let n = 100_000;
        let mut dark = 0;
        for i in 0..n {
            let th = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            // Orbit plane tilted so its normal makes (90°−β) with the sun:
            // param the orbit as cos·u + sin·v with u ⟂ sun offset by beta.
            let u = Vec3::new(-beta.cos(), 0.0, beta.sin());
            let v = Vec3::Y;
            let pos = (u * th.cos() + v * th.sin()) * rh;
            if in_earth_shadow(Eci(pos), sun) {
                dark += 1;
            }
        }
        let sampled = dark as f64 / n as f64;
        let closed = eclipse_fraction(alt, beta);
        assert!(
            (sampled - closed).abs() < 2e-3,
            "sampled {sampled}, closed-form {closed}"
        );
    }

    proptest! {
        #[test]
        fn prop_eclipse_fraction_decreases_with_beta(
            alt in 300e3..2000e3f64,
            b1 in 0.0..60.0f64,
            db in 0.5..20.0f64,
        ) {
            let f1 = eclipse_fraction(alt, Angle::from_degrees(b1));
            let f2 = eclipse_fraction(alt, Angle::from_degrees(b1 + db));
            prop_assert!(f2 <= f1 + 1e-12);
        }

        #[test]
        fn prop_eclipse_fraction_bounded(alt in 300e3..2000e3f64, b in 0.0..90.0f64) {
            let f = eclipse_fraction(alt, Angle::from_degrees(b));
            prop_assert!((0.0..0.5).contains(&f));
        }
    }
}

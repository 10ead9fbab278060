//! Great-circle geometry on the spherical Earth model.

use crate::angle::Angle;
use crate::consts::EARTH_RADIUS_MEAN_M;
use crate::coords::Geodetic;

/// Central angle between two ground points (haversine formula), radians.
fn central_angle(a: Geodetic, b: Geodetic) -> Angle {
    let dlat = (b.lat - a.lat).radians();
    let dlon = (b.lon - a.lon).radians();
    let h = (dlat / 2.0).sin().powi(2) + a.lat.cos() * b.lat.cos() * (dlon / 2.0).sin().powi(2);
    Angle::from_radians(2.0 * h.sqrt().min(1.0).asin())
}

/// Great-circle surface distance between two ground points, meters.
pub fn great_circle_distance_m(a: Geodetic, b: Geodetic) -> f64 {
    central_angle(a, b).radians() * EARTH_RADIUS_MEAN_M
}

/// The point a fraction `t ∈ [0,1]` of the way along the great circle from
/// `a` to `b` (spherical linear interpolation on the unit sphere).
pub fn intermediate_point(a: Geodetic, b: Geodetic, t: f64) -> Geodetic {
    let delta = central_angle(a, b).radians();
    if delta < 1e-12 {
        return a;
    }
    let va = a.to_ecef_spherical().0.normalized();
    let vb = b.to_ecef_spherical().0.normalized();
    let sa = ((1.0 - t) * delta).sin() / delta.sin();
    let sb = (t * delta).sin() / delta.sin();
    let v = (va * sa + vb * sb).normalized() * EARTH_RADIUS_MEAN_M;
    crate::coords::Ecef(v).to_geodetic_spherical()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quarter_circumference_between_equator_and_pole() {
        let a = Geodetic::ground(0.0, 0.0);
        let b = Geodetic::ground(90.0, 0.0);
        let d = great_circle_distance_m(a, b);
        let expect = std::f64::consts::FRAC_PI_2 * EARTH_RADIUS_MEAN_M;
        assert!((d - expect).abs() < 1.0);
    }

    #[test]
    fn antipodal_points_are_half_circumference_apart() {
        let a = Geodetic::ground(0.0, 0.0);
        let b = Geodetic::ground(0.0, 180.0);
        let d = great_circle_distance_m(a, b);
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_MEAN_M).abs() < 1.0);
    }

    #[test]
    fn zurich_to_new_york_distance_is_plausible() {
        // Great-circle Zürich–NYC ≈ 6,320 km.
        let zrh = Geodetic::ground(47.3769, 8.5417);
        let nyc = Geodetic::ground(40.7128, -74.0060);
        let d = great_circle_distance_m(zrh, nyc) / 1e3;
        assert!((d - 6320.0).abs() < 50.0, "{d}");
    }

    #[test]
    fn midpoint_of_equatorial_arc() {
        let a = Geodetic::ground(0.0, 0.0);
        let b = Geodetic::ground(0.0, 90.0);
        let m = intermediate_point(a, b, 0.5);
        assert!(m.lat.degrees().abs() < 1e-9);
        assert!((m.lon.degrees() - 45.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_distance_is_symmetric(
            lat1 in -89.0..89.0f64, lon1 in -180.0..180.0f64,
            lat2 in -89.0..89.0f64, lon2 in -180.0..180.0f64,
        ) {
            let a = Geodetic::ground(lat1, lon1);
            let b = Geodetic::ground(lat2, lon2);
            let d1 = great_circle_distance_m(a, b);
            let d2 = great_circle_distance_m(b, a);
            prop_assert!((d1 - d2).abs() < 1e-6);
        }

        #[test]
        fn prop_distance_bounded_by_half_circumference(
            lat1 in -89.0..89.0f64, lon1 in -180.0..180.0f64,
            lat2 in -89.0..89.0f64, lon2 in -180.0..180.0f64,
        ) {
            let d = great_circle_distance_m(
                Geodetic::ground(lat1, lon1),
                Geodetic::ground(lat2, lon2),
            );
            prop_assert!(d >= 0.0);
            prop_assert!(d <= std::f64::consts::PI * EARTH_RADIUS_MEAN_M + 1e-6);
        }

        #[test]
        fn prop_intermediate_point_splits_distance(
            lat1 in -80.0..80.0f64, lon1 in -170.0..170.0f64,
            lat2 in -80.0..80.0f64, lon2 in -170.0..170.0f64,
            t in 0.05..0.95f64,
        ) {
            let a = Geodetic::ground(lat1, lon1);
            let b = Geodetic::ground(lat2, lon2);
            let total = great_circle_distance_m(a, b);
            prop_assume!(total > 1e3);
            let m = intermediate_point(a, b, t);
            let d1 = great_circle_distance_m(a, m);
            let d2 = great_circle_distance_m(m, b);
            prop_assert!((d1 + d2 - total).abs() < 1.0);
            prop_assert!((d1 - t * total).abs() < 1.0);
        }
    }
}

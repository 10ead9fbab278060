//! Coordinate frames and conversions.
//!
//! Four frames are used throughout the workspace:
//!
//! * **Geodetic** — latitude, longitude, altitude over the reference
//!   surface. Ground stations and city datasets live here.
//! * **ECEF** — Earth-centered, Earth-fixed Cartesian frame; rotates with
//!   the Earth. All visibility and distance computations happen here.
//! * **ECI** — Earth-centered inertial frame; orbits are propagated here
//!   and rotated into ECEF with Greenwich Mean Sidereal Time.
//! * **ENU** — local east-north-up frame at a ground point; used to derive
//!   look angles (elevation / azimuth).
//!
//! Conversions use the spherical Earth model (mean radius 6371 km), which
//! reproduces the paper's own latency arithmetic; each names its model
//! explicitly.

use crate::angle::Angle;
use crate::consts::EARTH_RADIUS_MEAN_M;
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// A geodetic position: latitude, longitude, and altitude above the
/// reference surface (meters).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Geodetic {
    /// Geodetic latitude, positive north.
    pub lat: Angle,
    /// Longitude, positive east.
    pub lon: Angle,
    /// Altitude above the reference surface, meters.
    pub alt_m: f64,
}

impl Geodetic {
    /// Creates a geodetic position from degrees and meters.
    pub fn from_degrees(lat_deg: f64, lon_deg: f64, alt_m: f64) -> Self {
        Geodetic {
            lat: Angle::from_degrees(lat_deg),
            lon: Angle::from_degrees(lon_deg),
            alt_m,
        }
    }

    /// A sea-level ground point from degrees.
    pub fn ground(lat_deg: f64, lon_deg: f64) -> Self {
        Self::from_degrees(lat_deg, lon_deg, 0.0)
    }

    /// Converts to ECEF on a spherical Earth of mean radius (the paper's
    /// model).
    pub fn to_ecef_spherical(self) -> Ecef {
        let r = EARTH_RADIUS_MEAN_M + self.alt_m;
        let (slat, clat) = self.lat.sin_cos();
        let (slon, clon) = self.lon.sin_cos();
        Ecef(Vec3::new(r * clat * clon, r * clat * slon, r * slat))
    }
}

impl std::fmt::Display for Geodetic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({:.4}°, {:.4}°, {:.0} m)",
            self.lat.degrees(),
            self.lon.degrees(),
            self.alt_m
        )
    }
}

/// An Earth-centered Earth-fixed Cartesian position, meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Ecef(pub Vec3);

impl Ecef {
    /// Creates an ECEF position from meters.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Ecef(Vec3::new(x, y, z))
    }

    /// Straight-line (chord) distance to another ECEF point, meters.
    ///
    /// This is the propagation path length for a radio or laser link.
    pub fn distance_m(self, other: Ecef) -> f64 {
        self.0.distance(other.0)
    }

    /// Converts to geodetic coordinates on the spherical Earth model.
    pub fn to_geodetic_spherical(self) -> Geodetic {
        let v = self.0;
        let r = v.norm();
        let p = (v.x * v.x + v.y * v.y).sqrt();
        Geodetic {
            lat: Angle::from_radians(v.z.atan2(p)),
            lon: Angle::from_radians(v.y.atan2(v.x)),
            alt_m: r - EARTH_RADIUS_MEAN_M,
        }
    }
}

/// An Earth-centered inertial Cartesian position, meters.
///
/// The x-axis points to the vernal equinox, z along the rotation axis.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Eci(pub Vec3);

impl Eci {
    /// Rotates into the Earth-fixed frame given the current GMST.
    pub fn to_ecef(self, gmst: Angle) -> Ecef {
        Ecef(self.0.rotate_z(-gmst.radians()))
    }
}

/// A position expressed in the local east-north-up frame of some ground
/// point, meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Enu {
    /// East component, meters.
    pub east: f64,
    /// North component, meters.
    pub north: f64,
    /// Up component, meters.
    pub up: f64,
}

impl Enu {
    /// The ENU coordinates of `target` as seen from the ground point
    /// `origin` (both ECEF). `origin_geodetic` supplies the local vertical;
    /// pass the geodetic coordinates matching whichever Earth model
    /// produced `origin`.
    pub fn from_ecef(origin: Ecef, origin_geodetic: Geodetic, target: Ecef) -> Enu {
        let d = target.0 - origin.0;
        let (slat, clat) = origin_geodetic.lat.sin_cos();
        let (slon, clon) = origin_geodetic.lon.sin_cos();
        Enu {
            east: -slon * d.x + clon * d.y,
            north: -slat * clon * d.x - slat * slon * d.y + clat * d.z,
            up: clat * clon * d.x + clat * slon * d.y + slat * d.z,
        }
    }

    /// Slant range to the target, meters.
    pub fn range_m(self) -> f64 {
        (self.east * self.east + self.north * self.north + self.up * self.up).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equator_prime_meridian_maps_to_x_axis() {
        let e = Geodetic::ground(0.0, 0.0).to_ecef_spherical();
        assert!((e.0.x - EARTH_RADIUS_MEAN_M).abs() < 1e-6);
        assert!(e.0.y.abs() < 1e-6 && e.0.z.abs() < 1e-6);
    }

    #[test]
    fn eci_ecef_round_trip() {
        let gmst = Angle::from_degrees(123.456);
        let p = Ecef::new(1.0e6, -2.0e6, 3.0e6);
        let back = Eci(p.0.rotate_z(gmst.radians())).to_ecef(gmst);
        assert!(p.0.distance(back.0) < 1e-6);
    }

    #[test]
    fn eci_to_ecef_rotates_against_earth_spin() {
        // A point fixed in ECI appears to move westward in ECEF as GMST grows.
        let p = Eci(Vec3::new(7.0e6, 0.0, 0.0));
        let lon0 = p.to_ecef(Angle::ZERO).to_geodetic_spherical().lon;
        let lon1 = p
            .to_ecef(Angle::from_degrees(10.0))
            .to_geodetic_spherical()
            .lon;
        let drift = (lon1 - lon0).normalized_signed().degrees();
        assert!((drift + 10.0).abs() < 1e-9, "drift {drift}");
    }

    #[test]
    fn enu_up_axis_points_away_from_earth() {
        let g = Geodetic::ground(45.0, 7.0);
        let origin = g.to_ecef_spherical();
        let above = Geodetic::from_degrees(45.0, 7.0, 1000.0).to_ecef_spherical();
        let enu = Enu::from_ecef(origin, g, above);
        assert!(enu.up > 999.0 && enu.up < 1001.0);
        assert!(enu.east.abs() < 1e-6);
        assert!(enu.north.abs() < 1e-6);
    }

    #[test]
    fn enu_north_axis_points_to_higher_latitude() {
        let g = Geodetic::ground(10.0, 20.0);
        let origin = g.to_ecef_spherical();
        let norther = Geodetic::ground(10.1, 20.0).to_ecef_spherical();
        let enu = Enu::from_ecef(origin, g, norther);
        assert!(enu.north > 0.0);
        assert!(enu.east.abs() < 1.0);
    }

    #[test]
    fn spherical_round_trip() {
        let g = Geodetic::from_degrees(-23.5, 133.2, 550e3);
        let back = g.to_ecef_spherical().to_geodetic_spherical();
        assert!((back.lat.degrees() - g.lat.degrees()).abs() < 1e-9);
        assert!((back.lon.degrees() - g.lon.degrees()).abs() < 1e-9);
        assert!((back.alt_m - g.alt_m).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_eci_ecef_round_trip(
            x in -1e7..1e7f64, y in -1e7..1e7f64, z in -1e7..1e7f64,
            g in 0.0..360.0f64,
        ) {
            let gmst = Angle::from_degrees(g);
            let p = Ecef::new(x, y, z);
            let eci = Eci(p.0.rotate_z(gmst.radians()));
            prop_assert!(p.0.distance(eci.to_ecef(gmst).0) < 1e-5);
        }

        #[test]
        fn prop_enu_range_equals_chord_distance(
            lat in -80.0..80.0f64, lon in -180.0..180.0f64,
            lat2 in -80.0..80.0f64, lon2 in -180.0..180.0f64,
            alt2 in 0.0..2e6f64,
        ) {
            let g = Geodetic::ground(lat, lon);
            let origin = g.to_ecef_spherical();
            let target = Geodetic::from_degrees(lat2, lon2, alt2).to_ecef_spherical();
            let enu = Enu::from_ecef(origin, g, target);
            prop_assert!((enu.range_m() - origin.distance_m(target)).abs() < 1e-4);
        }
    }
}

//! # leo-geo
//!
//! Earth model, coordinate frames, and spherical geometry for LEO
//! constellation simulation.
//!
//! This crate is the lowest-level substrate of the in-orbit computing
//! reproduction. It provides:
//!
//! * Physical constants ([`consts`]): mean Earth radius, WGS-84
//!   equatorial radius, gravitational parameter, speed of light, J2
//!   coefficient.
//! * A small 3-vector type ([`Vec3`]) used by every higher layer.
//! * Angles with explicit units ([`Angle`]) and normalization helpers.
//! * Time handling ([`Epoch`], [`gmst`]) sufficient for Earth rotation.
//! * Coordinate frames and conversions ([`coords`]): geodetic latitude /
//!   longitude / altitude, Earth-centered Earth-fixed (ECEF), and
//!   Earth-centered inertial (ECI), plus the east-north-up (ENU) frame used
//!   for look angles.
//! * Ground-to-satellite geometry ([`look`]): elevation, azimuth, slant
//!   range, maximum slant range for a minimum elevation, coverage angle.
//! * Great-circle geometry ([`spherical`]).
//! * The closed-form eclipse fraction of a circular orbit ([`sun`]) used
//!   by the power feasibility model.
//! * An equirectangular projection and ASCII map renderer ([`projection`])
//!   used to regenerate Fig. 5 of the paper.
//!
//! All internal computation uses SI units (meters, seconds, radians);
//! constructors and accessors provide kilometre / degree conveniences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod angle;
pub mod consts;
pub mod coords;
pub mod look;
pub mod projection;
pub mod spherical;
pub mod sun;
pub mod time;
pub mod vec3;

pub use angle::Angle;
pub use coords::{Ecef, Eci, Enu, Geodetic};
pub use look::LookAngles;
pub use time::{gmst, Epoch};
pub use vec3::Vec3;

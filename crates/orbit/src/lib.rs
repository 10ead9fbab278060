//! # leo-orbit
//!
//! Orbital mechanics substrate for the in-orbit computing reproduction.
//!
//! The paper's simulations (Figs 1–7) require propagating thousands of
//! satellites in nominal Walker shells over two-hour horizons. Published
//! LEO simulators (Hypatia, StarPerf) do this by synthesizing zero-drag
//! TLEs and running SGP4; for such elements SGP4 degenerates to Keplerian
//! two-body motion plus the secular J2 terms. This crate implements exactly
//! that model, bottom-up:
//!
//! * [`elements`] — classical Keplerian orbital elements and derived
//!   quantities (period, mean motion, orbital velocity).
//! * [`kepler`] — anomaly conversions and a Newton solver for Kepler's
//!   equation.
//! * [`propagate`] — two-body + J2 secular propagation to ECI state
//!   vectors, and ground-track helpers.
//! * [`tle`] — NORAD two-line element parsing, validation (checksums), and
//!   synthesis, so constellations can be imported from or exported to the
//!   format every other tool speaks.
//!
//! Angles are [`leo_geo::Angle`]; positions are meters in the frames
//! defined by [`leo_geo::coords`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod elements;
#[cfg(test)]
mod integrator;
pub mod kepler;
pub mod propagate;
pub mod tle;

pub use elements::KeplerianElements;
pub use propagate::{Propagator, StateVector};
pub use tle::Tle;

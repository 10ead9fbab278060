//! Simulation time and Earth rotation.
//!
//! The simulator measures time as seconds relative to a reference epoch.
//! [`Epoch`] pins that reference to a Julian date so that Greenwich Mean
//! Sidereal Time ([`gmst`]) — and therefore the ECI↔ECEF rotation — is
//! well defined. The paper's experiments span at most a few hours, so the
//! low-precision GMST polynomial (sub-arcsecond over decades) is far more
//! accurate than needed.

use crate::angle::Angle;
use serde::{Deserialize, Serialize};

/// Julian date of the J2000.0 epoch (2000-01-01 12:00 TT).
pub const JD_J2000: f64 = 2_451_545.0;

/// A fixed reference instant, stored as a Julian date (UT1 ≈ UTC for our
/// purposes), from which simulation time in seconds is measured.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Epoch {
    jd: f64,
}

impl Epoch {
    /// The J2000.0 epoch.
    pub const J2000: Epoch = Epoch { jd: JD_J2000 };

    /// Creates an epoch from a Julian date.
    pub const fn from_julian_date(jd: f64) -> Self {
        Epoch { jd }
    }

    /// Creates an epoch from a calendar date/time (proleptic Gregorian, UT).
    ///
    /// Uses the Fliegel–Van Flandern algorithm; valid for years ≥ −4713.
    pub fn from_calendar(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: f64,
    ) -> Self {
        let (y, m) = if month <= 2 {
            (year - 1, month + 12)
        } else {
            (year, month)
        };
        let a = (y as f64 / 100.0).floor();
        let b = 2.0 - a + (a / 4.0).floor();
        let jd0 = (365.25 * (y as f64 + 4716.0)).floor()
            + (30.6001 * (m as f64 + 1.0)).floor()
            + day as f64
            + b
            - 1524.5;
        let frac = (hour as f64 + minute as f64 / 60.0 + second / 3600.0) / 24.0;
        Epoch { jd: jd0 + frac }
    }

    /// The Julian date of this epoch.
    pub const fn julian_date(self) -> f64 {
        self.jd
    }

    /// The Julian date `seconds` after this epoch.
    fn julian_date_at(self, seconds: f64) -> f64 {
        self.jd + seconds / crate::consts::SOLAR_DAY_S
    }

    /// Days elapsed since J2000.0 at `seconds` after this epoch.
    fn days_since_j2000(self, seconds: f64) -> f64 {
        self.julian_date_at(seconds) - JD_J2000
    }
}

impl Default for Epoch {
    fn default() -> Self {
        Epoch::J2000
    }
}

/// Greenwich Mean Sidereal Time at `seconds` after `epoch`, as an angle.
///
/// Implements the IAU 1982 GMST polynomial (Vallado, eq. 3-45, truncated to
/// the linear term plus the constant — the quadratic terms contribute less
/// than 0.1″ over the simulation horizons used here).
pub fn gmst(epoch: Epoch, seconds: f64) -> Angle {
    let d = epoch.days_since_j2000(seconds);
    let deg = 280.460_618_37 + 360.985_647_366_29 * d;
    Angle::from_degrees(deg).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn j2000_calendar_round_trip() {
        let e = Epoch::from_calendar(2000, 1, 1, 12, 0, 0.0);
        assert!((e.julian_date() - JD_J2000).abs() < 1e-9);
    }

    #[test]
    fn known_julian_dates() {
        // 1970-01-01 00:00 UT (Unix epoch) is JD 2440587.5.
        let e = Epoch::from_calendar(1970, 1, 1, 0, 0, 0.0);
        assert!((e.julian_date() - 2_440_587.5).abs() < 1e-9);
        // 2020-11-04 00:00 UT (HotNets '20 opening day) is JD 2459157.5.
        let e = Epoch::from_calendar(2020, 11, 4, 0, 0, 0.0);
        assert!((e.julian_date() - 2_459_157.5).abs() < 1e-9);
    }

    #[test]
    fn gmst_at_j2000_matches_reference() {
        // GMST at J2000.0 is 280.46062° (Vallado).
        let g = gmst(Epoch::J2000, 0.0);
        assert!((g.degrees() - 280.460_618_37).abs() < 1e-6);
    }

    #[test]
    fn gmst_advances_one_full_turn_per_sidereal_day() {
        let g0 = gmst(Epoch::J2000, 0.0);
        let g1 = gmst(Epoch::J2000, crate::consts::SIDEREAL_DAY_S);
        let delta = (g1 - g0).normalized_signed();
        assert!(
            delta.degrees().abs() < 1e-3,
            "GMST should return to start after one sidereal day, drifted {delta}"
        );
    }

    #[test]
    fn gmst_gains_roughly_a_degree_per_solar_day_over_a_solar_year() {
        let g0 = gmst(Epoch::J2000, 0.0);
        let g1 = gmst(Epoch::J2000, crate::consts::SOLAR_DAY_S);
        let delta = (g1 - g0).normalized().degrees();
        assert!((delta - 0.9856).abs() < 1e-3);
    }

    #[test]
    fn seconds_offset_moves_julian_date_forward() {
        let e = Epoch::J2000;
        assert!((e.julian_date_at(86_400.0) - (JD_J2000 + 1.0)).abs() < 1e-12);
    }
}

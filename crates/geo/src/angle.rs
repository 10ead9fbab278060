//! An angle newtype with explicit units.
//!
//! Mixing degrees and radians is the classic source of silent geometry bugs
//! in orbital code; [`Angle`] stores radians internally and forces the unit
//! choice at every construction and extraction site.

use serde::{Deserialize, Serialize};
use std::f64::consts::{PI, TAU};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An angle, stored internally in radians.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Angle(f64);

impl Angle {
    /// The zero angle.
    pub const ZERO: Angle = Angle(0.0);

    /// Creates an angle from radians.
    pub const fn from_radians(rad: f64) -> Self {
        Angle(rad)
    }

    /// Creates an angle from degrees.
    pub fn from_degrees(deg: f64) -> Self {
        Angle(deg.to_radians())
    }

    /// The angle in radians.
    pub const fn radians(self) -> f64 {
        self.0
    }

    /// The angle in degrees.
    pub fn degrees(self) -> f64 {
        self.0.to_degrees()
    }

    /// Normalizes to `[0, 2π)`.
    pub fn normalized(self) -> Angle {
        let mut a = self.0 % TAU;
        if a < 0.0 {
            a += TAU;
        }
        Angle(a)
    }

    /// Normalizes to `(-π, π]`.
    pub fn normalized_signed(self) -> Angle {
        let a = self.normalized().0;
        Angle(if a > PI { a - TAU } else { a })
    }

    /// Sine.
    pub fn sin(self) -> f64 {
        self.0.sin()
    }

    /// Cosine.
    pub fn cos(self) -> f64 {
        self.0.cos()
    }

    /// Simultaneous sine and cosine.
    pub fn sin_cos(self) -> (f64, f64) {
        self.0.sin_cos()
    }
}

impl Add for Angle {
    type Output = Angle;
    fn add(self, o: Angle) -> Angle {
        Angle(self.0 + o.0)
    }
}

impl Sub for Angle {
    type Output = Angle;
    fn sub(self, o: Angle) -> Angle {
        Angle(self.0 - o.0)
    }
}

impl Mul<f64> for Angle {
    type Output = Angle;
    fn mul(self, k: f64) -> Angle {
        Angle(self.0 * k)
    }
}

impl Div<f64> for Angle {
    type Output = Angle;
    fn div(self, k: f64) -> Angle {
        Angle(self.0 / k)
    }
}

impl Neg for Angle {
    type Output = Angle;
    fn neg(self) -> Angle {
        Angle(-self.0)
    }
}

impl std::fmt::Display for Angle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}°", self.degrees())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn degree_radian_round_trip() {
        let a = Angle::from_degrees(53.0);
        assert!((a.degrees() - 53.0).abs() < 1e-12);
        assert!((a.radians() - 53.0_f64.to_radians()).abs() < 1e-15);
    }

    #[test]
    fn normalization_wraps_negative_angles() {
        let a = Angle::from_degrees(-90.0).normalized();
        assert!((a.degrees() - 270.0).abs() < 1e-9);
    }

    #[test]
    fn signed_normalization_prefers_small_magnitudes() {
        let a = Angle::from_degrees(350.0).normalized_signed();
        assert!((a.degrees() + 10.0).abs() < 1e-9);
        let b = Angle::from_degrees(180.0).normalized_signed();
        assert!((b.degrees() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_behaves_linearly() {
        let a = Angle::from_degrees(30.0) + Angle::from_degrees(60.0);
        assert!((a.degrees() - 90.0).abs() < 1e-9);
        let b = Angle::from_degrees(90.0) * 2.0;
        assert!((b.degrees() - 180.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn normalized_is_in_range(x in -1e6..1e6f64) {
            let a = Angle::from_radians(x).normalized().radians();
            prop_assert!((0.0..TAU).contains(&a));
        }

        #[test]
        fn normalized_signed_is_in_range(x in -1e6..1e6f64) {
            let a = Angle::from_radians(x).normalized_signed().radians();
            prop_assert!(a > -PI - 1e-12 && a <= PI + 1e-12);
        }

        #[test]
        fn normalization_preserves_sin_cos(x in -1e4..1e4f64) {
            let a = Angle::from_radians(x);
            let n = a.normalized();
            prop_assert!((a.sin() - n.sin()).abs() < 1e-9);
            prop_assert!((a.cos() - n.cos()).abs() < 1e-9);
        }
    }
}

//! A minimal 3-component vector of `f64`.
//!
//! Every coordinate frame in the workspace ([`crate::coords`]) wraps this
//! type, so it carries the full set of linear-algebra operations the
//! simulator needs and nothing more.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-vector with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along x.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along z.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (avoids the square root).
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another vector.
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Unit vector in the same direction.
    ///
    /// Returns [`Vec3::ZERO`] for the zero vector rather than NaN, which is
    /// the convenient convention for shadow/visibility tests.
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n == 0.0 {
            Vec3::ZERO
        } else {
            self / n
        }
    }

    /// Rotates the vector about the +z axis by `angle` radians
    /// (counter-clockwise looking down +z).
    pub fn rotate_z(self, angle: f64) -> Vec3 {
        let (s, c) = angle.sin_cos();
        self.rotate_z_sin_cos(s, c)
    }

    /// [`Vec3::rotate_z`] by an angle whose sine and cosine are given, so
    /// a caller rotating many vectors by one angle takes them once.
    pub fn rotate_z_sin_cos(self, s: f64, c: f64) -> Vec3 {
        Vec3 {
            x: c * self.x - s * self.y,
            y: s * self.x + c * self.y,
            z: self.z,
        }
    }

    /// Rotates the vector about the +x axis by `angle` radians.
    pub fn rotate_x(self, angle: f64) -> Vec3 {
        let (s, c) = angle.sin_cos();
        self.rotate_x_sin_cos(s, c)
    }

    /// [`Vec3::rotate_x`] by an angle whose sine and cosine are given.
    pub fn rotate_x_sin_cos(self, s: f64, c: f64) -> Vec3 {
        Vec3 {
            x: self.x,
            y: c * self.y - s * self.z,
            z: s * self.y + c * self.z,
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, k: f64) -> Vec3 {
        Vec3::new(self.x / k, self.y / k, self.z / k)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn norm_of_pythagorean_triple() {
        assert_eq!(Vec3::new(3.0, 4.0, 0.0).norm(), 5.0);
    }

    #[test]
    fn normalized_zero_is_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn rotate_z_quarter_turn_maps_x_to_y() {
        let v = Vec3::X.rotate_z(FRAC_PI_2);
        assert!(v.distance(Vec3::Y) < 1e-12);
    }

    #[test]
    fn rotate_x_quarter_turn_maps_y_to_z() {
        let v = Vec3::Y.rotate_x(FRAC_PI_2);
        assert!(v.distance(Vec3::Z) < 1e-12);
    }

    fn arb_vec3() -> impl Strategy<Value = Vec3> {
        let c = -1e7..1e7f64;
        (c.clone(), c.clone(), c).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    proptest! {
        #[test]
        fn normalization_yields_unit_norm(a in arb_vec3()) {
            prop_assume!(a.norm() > 1e-3);
            prop_assert!((a.normalized().norm() - 1.0).abs() < 1e-12);
        }

        #[test]
        fn rotation_preserves_norm(a in arb_vec3(), ang in -10.0..10.0f64) {
            prop_assert!((a.rotate_z(ang).norm() - a.norm()).abs() < 1e-6 * a.norm().max(1.0));
            prop_assert!((a.rotate_x(ang).norm() - a.norm()).abs() < 1e-6 * a.norm().max(1.0));
        }

        #[test]
        fn triangle_inequality(a in arb_vec3(), b in arb_vec3()) {
            prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-6);
        }
    }
}

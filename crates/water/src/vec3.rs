//! Minimal 3-vector arithmetic for the MD engine.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-component vector (Å, Å/fs, or kcal/mol/Å depending on context).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// The zero vector.
    #[inline]
    pub const fn zero() -> Self {
        Vec3::new(0.0, 0.0, 0.0)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Unit vector in this direction.
    ///
    /// # Panics
    /// On the zero vector (debug builds).
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        debug_assert!(n > 0.0, "normalizing zero vector");
        self / n
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        self.x += o.x;
        self.y += o.y;
        self.z += o.z;
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        self.x -= o.x;
        self.y -= o.y;
        self.z -= o.z;
    }
}

/// Four f64 lanes with elementwise arithmetic.
///
/// Stable-Rust SIMD: the fixed-size array plus per-lane ops compile to
/// packed vector instructions under `-O` (the autovectorizer keeps a
/// `[f64; 4]` that only flows through elementwise ops in registers), with
/// no nightly `std::simd` features. Used by the lane-batched force kernel
/// (`water::simd`); lane order is part of the determinism contract — sums
/// over lanes must use [`F64x4::fold_sum`] so the reduction order is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All four lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> F64x4 {
        F64x4([v; 4])
    }

    /// Load four consecutive values from `s` starting at `at`.
    #[inline(always)]
    pub fn load(s: &[f64], at: usize) -> F64x4 {
        F64x4([s[at], s[at + 1], s[at + 2], s[at + 3]])
    }

    /// Store the four lanes into `s` starting at `at`.
    #[inline(always)]
    pub fn store(self, s: &mut [f64], at: usize) {
        s[at..at + 4].copy_from_slice(&self.0);
    }

    /// Elementwise square root.
    #[inline(always)]
    pub fn sqrt(self) -> F64x4 {
        let mut o = self.0;
        for v in &mut o {
            *v = v.sqrt();
        }
        F64x4(o)
    }

    /// Elementwise reciprocal (exact IEEE division, not an approximation).
    #[inline(always)]
    pub fn recip(self) -> F64x4 {
        let mut o = self.0;
        for v in &mut o {
            *v = 1.0 / *v;
        }
        F64x4(o)
    }

    /// Elementwise absolute value.
    #[inline(always)]
    pub fn abs(self) -> F64x4 {
        let a = self.0;
        F64x4([a[0].abs(), a[1].abs(), a[2].abs(), a[3].abs()])
    }

    /// Lanewise `self > o` (false wherever either side is NaN).
    #[inline(always)]
    pub fn gt(self, o: F64x4) -> [bool; 4] {
        let (a, b) = (self.0, o.0);
        [a[0] > b[0], a[1] > b[1], a[2] > b[2], a[3] > b[3]]
    }

    /// Lanewise `if mask { a } else { b }`: the unselected lane's value is
    /// discarded untouched, whatever it holds (NaN included).
    #[inline(always)]
    pub fn select(mask: [bool; 4], a: F64x4, b: F64x4) -> F64x4 {
        let pick = |l: usize| if mask[l] { a.0[l] } else { b.0[l] };
        F64x4([pick(0), pick(1), pick(2), pick(3)])
    }

    /// Sum of the lanes in fixed order: `((l0 + l1) + l2) + l3`.
    #[inline(always)]
    pub fn fold_sum(self) -> f64 {
        ((self.0[0] + self.0[1]) + self.0[2]) + self.0[3]
    }
}

// Lanes are written out rather than looped over: release code is the
// same, and unoptimized test builds of the lane solvers run ~3× faster.
macro_rules! lanewise {
    ($trait:ident, $fn:ident, $op:tt) => {
        impl $trait for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $fn(self, o: F64x4) -> F64x4 {
                let (a, b) = (self.0, o.0);
                F64x4([a[0] $op b[0], a[1] $op b[1], a[2] $op b[2], a[3] $op b[3]])
            }
        }
    };
}

lanewise!(Add, add, +);
lanewise!(Sub, sub, -);
lanewise!(Mul, mul, *);
lanewise!(Div, div, /);

impl AddAssign for F64x4 {
    #[inline(always)]
    fn add_assign(&mut self, o: F64x4) {
        for l in 0..4 {
            self.0[l] += o.0[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_cross_norm() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(Vec3::new(3.0, 4.0, 0.0).norm(), 5.0);
        assert_eq!(Vec3::new(3.0, 4.0, 0.0).norm_sq(), 25.0);
    }

    #[test]
    fn normalized_is_unit() {
        let v = Vec3::new(3.0, -4.0, 12.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn assign_ops() {
        let mut v = Vec3::new(1.0, 1.0, 1.0);
        v += Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v, Vec3::new(2.0, 3.0, 4.0));
        v -= Vec3::new(2.0, 3.0, 4.0);
        assert_eq!(v, Vec3::zero());
    }

    #[test]
    fn lanes_elementwise_ops() {
        let a = F64x4([1.0, 4.0, 9.0, 16.0]);
        let b = F64x4::splat(2.0);
        assert_eq!((a + b).0, [3.0, 6.0, 11.0, 18.0]);
        assert_eq!((a - b).0, [-1.0, 2.0, 7.0, 14.0]);
        assert_eq!((a * b).0, [2.0, 8.0, 18.0, 32.0]);
        assert_eq!((a / b).0, [0.5, 2.0, 4.5, 8.0]);
        assert_eq!(a.sqrt().0, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.recip().0, [1.0, 0.25, 1.0 / 9.0, 0.0625]);
        assert_eq!(a.fold_sum(), 30.0);
        let c = F64x4([-1.5, 0.0, f64::NAN, 2.0]);
        assert_eq!(c.abs().0[..2], [1.5, 0.0]);
        assert_eq!(c.gt(F64x4::splat(0.5)), [false, false, false, true]);
        assert_eq!(
            F64x4::select([true, false, false, true], a, c).0[..2],
            [1.0, 0.0]
        );
        assert!(F64x4::select([false; 4], a, c).0[2].is_nan());
    }

    #[test]
    fn lanes_load_store_roundtrip() {
        let src = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5];
        let v = F64x4::load(&src, 2);
        assert_eq!(v.0, [2.5, 3.5, 4.5, 5.5]);
        let mut dst = [0.0; 6];
        v.store(&mut dst, 1);
        assert_eq!(dst, [0.0, 2.5, 3.5, 4.5, 5.5, 0.0]);
        let mut acc = F64x4::splat(1.0);
        acc += v;
        assert_eq!(acc.0, [3.5, 4.5, 5.5, 6.5]);
    }
}

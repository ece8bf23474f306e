//! The [`Scalar`] abstraction that lets MNA assembly and LU factorization be
//! written once for both real (DC, transient) and complex (AC) analyses.

use crate::Complex;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Field-like scalar used by [`Matrix`](crate::Matrix) and
/// [`Lu`](crate::Lu).
///
/// Implemented for `f64` and [`Complex`]. The trait is sealed in spirit —
/// downstream code is expected to use the two provided implementations —
/// but is left open so tests can use wrapper types if ever needed.
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Magnitude used for pivot selection and convergence checks.
    fn modulus(self) -> f64;
    /// A cheap upper bound on [`Scalar::modulus`]: never below it unless
    /// the modulus is NaN. `f64` returns the modulus itself.
    fn modulus_bound(self) -> f64;
    /// `max.max(self.modulus())`, bit for bit, computing the modulus only
    /// when [`Scalar::modulus_bound`] does not already show it cannot
    /// exceed `max`.
    #[inline]
    fn max_modulus(self, max: f64) -> f64 {
        if self.modulus_bound() <= max {
            max
        } else {
            max.max(self.modulus())
        }
    }
    /// `self` made ready to divide by through [`Scalar::div_prepared`]:
    /// the reciprocal for [`Complex`], whose division multiplies by it
    /// anyway, and `self` for `f64`, which keeps its true division.
    fn prepare_divisor(self) -> Self;
    /// `self / d`, bit for bit, for `d = divisor.prepare_divisor()`.
    fn div_prepared(self, prepared: Self) -> Self;
    /// Lift a real number into the scalar field.
    fn from_f64(x: f64) -> Self;
    /// `true` when all components are finite.
    fn is_finite(self) -> bool;
    /// Whether the dense LU decides row scales and pivots on squared
    /// moduli `re² + im²` before it computes any exact modulus
    /// (DESIGN.md §2.1): `true` for [`Complex`], whose modulus is a
    /// `hypot` call, `false` for `f64`, whose modulus `|x|` costs nothing.
    const SQUARE_SCREEN: bool;
    /// The real and imaginary parts; `(self, 0.0)` for `f64`.
    fn parts(self) -> (f64, f64);
}

impl Scalar for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn modulus_bound(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn prepare_divisor(self) -> Self {
        self
    }
    #[inline]
    fn div_prepared(self, prepared: Self) -> Self {
        self / prepared
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    const SQUARE_SCREEN: bool = false;
    #[inline]
    fn parts(self) -> (f64, f64) {
        (self, 0.0)
    }
}

impl Scalar for Complex {
    #[inline]
    fn zero() -> Self {
        Complex::ZERO
    }
    #[inline]
    fn one() -> Self {
        Complex::ONE
    }
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn modulus_bound(self) -> f64 {
        self.abs_bound()
    }
    #[inline]
    fn prepare_divisor(self) -> Self {
        self.recip()
    }
    /// Exactly [`Complex`]'s `/`, which is `self * rhs.recip()`.
    #[inline]
    fn div_prepared(self, prepared: Self) -> Self {
        self * prepared
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Complex::from_re(x)
    }
    #[inline]
    fn is_finite(self) -> bool {
        Complex::is_finite(self)
    }
    const SQUARE_SCREEN: bool = true;
    #[inline]
    fn parts(self) -> (f64, f64) {
        (self.re, self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<S: Scalar>() {
        let two = S::from_f64(2.0);
        assert_eq!(two + S::zero(), two);
        assert_eq!(two * S::one(), two);
        assert!((two.modulus() - 2.0).abs() < 1e-15);
        assert!(two.is_finite());
        assert!(!S::from_f64(f64::NAN).is_finite());
    }

    #[test]
    fn f64_is_a_scalar() {
        roundtrip::<f64>();
    }

    #[test]
    fn complex_is_a_scalar() {
        roundtrip::<Complex>();
        let z = Complex::new(3.0, 4.0);
        assert_eq!(Scalar::modulus(z), 5.0);
    }

    #[test]
    fn prepared_division_and_screened_max_are_exact() {
        let zs = [
            Complex::new(3.0, -4.0),
            Complex::new(1e-300, 2.0),
            Complex::new(-7.5, 7.5),
            Complex::new(5e-324, -5e-324),
            Complex::new(0.0, 1e300),
            Complex::new(f64::MAX, f64::MAX),
        ];
        let bits = |z: Complex| (z.re.to_bits(), z.im.to_bits());
        for &a in &zs {
            for &b in &zs {
                assert_eq!(bits(a.div_prepared(b.prepare_divisor())), bits(a / b));
                for max in [0.0, a.abs(), b.abs(), b.abs_bound(), f64::INFINITY, f64::NAN] {
                    let want = max.max(a.abs());
                    assert_eq!(a.max_modulus(max).to_bits(), want.to_bits(), "{a} vs {max}");
                }
            }
        }
        assert_eq!(7.0_f64.div_prepared(3.0_f64.prepare_divisor()), 7.0 / 3.0);
    }
}

//! A minimal complex number type sufficient for AC small-signal analysis.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// Used by the AC analysis in `asdex-spice`, where the MNA matrix entries
/// are admittances of the form `g + jωC`.
///
/// # Example
///
/// ```
/// use asdex_linalg::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!((z * z.conj()).re, 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0j`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0j`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1j`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates (magnitude, phase in radians).
    ///
    /// ```
    /// use asdex_linalg::Complex;
    /// let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!(z.re.abs() < 1e-15);
    /// assert!((z.im - 2.0).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn from_polar(mag: f64, phase: f64) -> Self {
        Complex::new(mag * phase.cos(), mag * phase.sin())
    }

    /// Magnitude `|z|`, computed with `hypot` for numerical robustness.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// An upper bound on [`Complex::abs`] that calls no `hypot`:
    /// `|z| ≤ √2·max(|re|, |im|)`, scaled up by a few ulps so it also
    /// covers the rounding of `hypot` and of the product. Where that
    /// product's rounding error is not relative (a subnormal maximum) or
    /// could overflow, it is the exact [`Complex::abs`].
    ///
    /// ```
    /// use asdex_linalg::Complex;
    /// for z in [Complex::new(3.0, 4.0), Complex::new(1.0, 1.0), Complex::new(0.0, -2.5)] {
    ///     assert!(z.abs() <= z.abs_bound() && z.abs_bound() <= 1.5 * z.abs());
    /// }
    /// ```
    #[inline]
    pub fn abs_bound(self) -> f64 {
        /// `√2` rounded up, then 16 ulps more: ample for `hypot`'s error
        /// (at most one ulp in common libms) and the product's half ulp.
        const SQRT_2_UP: f64 = std::f64::consts::SQRT_2 * (1.0 + 16.0 * f64::EPSILON);
        let m = self.re.abs().max(self.im.abs());
        if m.is_subnormal() || m > f64::MAX / 2.0 {
            self.abs()
        } else {
            m * SQRT_2_UP
        }
    }

    /// Squared magnitude `|z|^2`.
    #[inline]
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns an infinite value if `z` is zero, mirroring `1.0 / 0.0`.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.abs_sq();
        Complex::new(self.re / d, -self.im / d)
    }

    /// `true` if either component is NaN or infinite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_re(re)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z * w⁻¹ by definition
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex::ZERO, Complex::new(0.0, 0.0));
        assert_eq!(Complex::ONE, Complex::new(1.0, 0.0));
        assert_eq!(Complex::I * Complex::I, -Complex::ONE);
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
        assert_eq!(a * Complex::ONE, a);
        let q = a / b;
        let back = q * b;
        assert!((back - a).abs() < 1e-14);
    }

    #[test]
    fn division_matches_conjugate_formula() {
        let a = Complex::new(2.0, -7.0);
        let b = Complex::new(0.3, 4.0);
        let d = a / b;
        let expect = a * b.conj() / b.abs_sq();
        assert!((d - expect).abs() < 1e-14);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(3.0, 0.7);
        assert!((z.abs() - 3.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn conjugate_properties() {
        let z = Complex::new(1.5, -2.5);
        assert_eq!(z.conj().conj(), z);
        assert!(((z * z.conj()).re - z.abs_sq()).abs() < 1e-14);
        assert_eq!((z * z.conj()).im, 0.0);
    }

    #[test]
    fn recip_of_unit_is_conjugate() {
        let z = Complex::from_polar(1.0, 1.1);
        assert!((z.recip() - z.conj()).abs() < 1e-14);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2j");
    }

    #[test]
    fn finite_detection() {
        assert!(Complex::new(1.0, 2.0).is_finite());
        assert!(!Complex::new(f64::NAN, 0.0).is_finite());
        assert!(!Complex::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn sum_over_iterator() {
        let total: Complex = (0..4).map(|k| Complex::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex::new(6.0, 4.0));
    }

    #[test]
    fn assign_operators() {
        let mut z = Complex::new(1.0, 1.0);
        z += Complex::ONE;
        z -= Complex::I;
        z *= Complex::new(2.0, 0.0);
        z /= Complex::new(2.0, 0.0);
        assert_eq!(z, Complex::new(2.0, 0.0));
    }
}

//! A minimal single-precision complex number type.
//!
//! The ultrasound pipeline stores RF samples, IQ samples and MVDR covariance entries as
//! [`Complex32`]. Only the operations the pipeline needs are implemented; the type is
//! deliberately small and `Copy`.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A single-precision complex number.
///
/// ```
/// use usdsp::Complex32;
/// let a = Complex32::new(1.0, 2.0);
/// let b = Complex32::new(3.0, -1.0);
/// let c = a * b;
/// assert_eq!(c, Complex32::new(5.0, 5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex32 {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

/// Views a complex slice as its interleaved `[re, im, re, im, ..]` floats.
///
/// Sound because [`Complex32`] is `#[repr(C)]` with exactly two `f32` fields:
/// its layout is two consecutive `f32`s at `f32` alignment. The SIMD kernels
/// use this to run component-wise complex arithmetic as plain float lanes.
pub fn as_float_slice(values: &[Complex32]) -> &[f32] {
    // SAFETY: see the doc comment — layout and alignment are guaranteed by
    // #[repr(C)], and the lifetime/borrow are inherited from `values`.
    unsafe { std::slice::from_raw_parts(values.as_ptr() as *const f32, values.len() * 2) }
}

/// Mutable variant of [`as_float_slice`].
pub fn as_float_slice_mut(values: &mut [Complex32]) -> &mut [f32] {
    // SAFETY: see `as_float_slice`; exclusive access is inherited from the
    // exclusive borrow of `values`.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr() as *mut f32, values.len() * 2) }
}

impl Complex32 {
    /// The additive identity.
    pub const ZERO: Complex32 = Complex32 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex32 = Complex32 { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex32 = Complex32 { re: 0.0, im: 1.0 };

    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f32) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r * exp(i * theta)`.
    #[inline]
    pub fn from_polar(r: f32, theta: f32) -> Self {
        Self { re: r * theta.cos(), im: r * theta.sin() }
    }

    /// Unit phasor `exp(i * theta)`.
    #[inline]
    pub fn cis(theta: f32) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Squared magnitude `re^2 + im^2`.
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f32 {
        self.norm_sqr().sqrt()
    }

    /// Phase angle in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f32 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f32) -> Self {
        Self { re: self.re * k, im: self.im * k }
    }

    /// Multiplicative inverse. Returns `None` when the magnitude is zero.
    #[inline]
    pub fn inv(self) -> Option<Self> {
        let d = self.norm_sqr();
        if d == 0.0 {
            None
        } else {
            Some(Self { re: self.re / d, im: -self.im / d })
        }
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f32> for Complex32 {
    fn from(re: f32) -> Self {
        Self::from_real(re)
    }
}

impl Add for Complex32 {
    type Output = Complex32;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex32 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex32 {
    type Output = Complex32;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl SubAssign for Complex32 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex32 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f32> for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: f32) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex32> for f32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: Complex32) -> Complex32 {
        rhs.scale(self)
    }
}

impl Div for Complex32 {
    type Output = Complex32;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl DivAssign for Complex32 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Div<f32> for Complex32 {
    type Output = Complex32;
    #[inline]
    fn div(self, rhs: f32) -> Self {
        Self { re: self.re / rhs, im: self.im / rhs }
    }
}

impl Neg for Complex32 {
    type Output = Complex32;
    #[inline]
    fn neg(self) -> Self {
        Self { re: -self.re, im: -self.im }
    }
}

impl Sum for Complex32 {
    fn sum<I: Iterator<Item = Complex32>>(iter: I) -> Self {
        iter.fold(Complex32::ZERO, |acc, x| acc + x)
    }
}

impl<'a> Sum<&'a Complex32> for Complex32 {
    fn sum<I: Iterator<Item = &'a Complex32>>(iter: I) -> Self {
        iter.fold(Complex32::ZERO, |acc, x| acc + *x)
    }
}

impl std::fmt::Display for Complex32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex32, b: Complex32, tol: f32) -> bool {
        (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex32::new(2.5, -1.5);
        assert_eq!(a + Complex32::ZERO, a);
        assert_eq!(a * Complex32::ONE, a);
        assert_eq!(a - a, Complex32::ZERO);
        assert_eq!(-a + a, Complex32::ZERO);
    }

    #[test]
    fn multiplication_matches_definition() {
        let a = Complex32::new(1.0, 2.0);
        let b = Complex32::new(3.0, 4.0);
        // (1+2i)(3+4i) = 3 + 4i + 6i + 8i^2 = -5 + 10i
        assert_eq!(a * b, Complex32::new(-5.0, 10.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex32::new(0.7, -2.3);
        let b = Complex32::new(-1.1, 0.4);
        let c = a * b;
        assert!(close(c / b, a, 1e-5));
    }

    #[test]
    fn conjugate_and_norm() {
        let a = Complex32::new(3.0, 4.0);
        assert_eq!(a.conj(), Complex32::new(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        let p = a * a.conj();
        assert!(close(p, Complex32::from_real(25.0), 1e-6));
    }

    #[test]
    fn polar_round_trip() {
        let a = Complex32::from_polar(2.0, 0.75);
        assert!((a.abs() - 2.0).abs() < 1e-6);
        assert!((a.arg() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert!(Complex32::ZERO.inv().is_none());
        let a = Complex32::new(0.5, -0.25);
        let inv = a.inv().expect("nonzero");
        assert!(close(a * inv, Complex32::ONE, 1e-6));
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let theta = k as f32 * std::f32::consts::FRAC_PI_8;
            assert!((Complex32::cis(theta).abs() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sum_over_iterator() {
        let xs = vec![Complex32::new(1.0, 1.0); 4];
        let s: Complex32 = xs.iter().sum();
        assert_eq!(s, Complex32::new(4.0, 4.0));
        let s2: Complex32 = xs.into_iter().sum();
        assert_eq!(s2, Complex32::new(4.0, 4.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex32::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex32::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn scalar_ops() {
        let a = Complex32::new(1.0, -2.0);
        assert_eq!(a * 2.0, Complex32::new(2.0, -4.0));
        assert_eq!(2.0 * a, Complex32::new(2.0, -4.0));
        assert_eq!(a / 2.0, Complex32::new(0.5, -1.0));
    }
}

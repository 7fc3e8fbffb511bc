//! Fractional-sample interpolation.
//!
//! Time-of-flight correction resamples each receive channel at non-integer delays; the
//! linear interpolators here are what the beamformers use to read "the sample at
//! delay τ".

use crate::complex::Complex32;

/// Samples a real signal at a fractional index by linear interpolation between the
/// two bracketing samples.
///
/// Out-of-range indices return `0.0` (ultrasound samples outside the acquisition window
/// contribute nothing), which mirrors how hardware beamformers zero out-of-window taps.
///
/// ```
/// use usdsp::interp::sample_at;
/// let x = [0.0, 1.0, 2.0, 3.0];
/// assert_eq!(sample_at(&x, 1.5), 1.5);
/// assert_eq!(sample_at(&x, -0.2), 0.0);
/// ```
#[inline]
pub fn sample_at(signal: &[f32], index: f32) -> f32 {
    if signal.is_empty() || !index.is_finite() {
        return 0.0;
    }
    let n = signal.len();
    if index < 0.0 || index > (n - 1) as f32 {
        return 0.0;
    }
    let i0 = index.floor() as usize;
    let frac = index - i0 as f32;
    if i0 + 1 >= n {
        signal[n - 1]
    } else {
        signal[i0] * (1.0 - frac) + signal[i0 + 1] * frac
    }
}

/// Samples a complex signal at a fractional index (component-wise linear
/// interpolation, same window rules as [`sample_at`]).
#[inline]
pub fn sample_at_complex(signal: &[Complex32], index: f32) -> Complex32 {
    if signal.is_empty() || !index.is_finite() {
        return Complex32::ZERO;
    }
    let n = signal.len();
    if index < 0.0 || index > (n - 1) as f32 {
        return Complex32::ZERO;
    }
    let i0 = index.floor() as usize;
    let frac = index - i0 as f32;
    if i0 + 1 >= n {
        signal[n - 1]
    } else {
        signal[i0].scale(1.0 - frac) + signal[i0 + 1].scale(frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolation_between_samples() {
        let x = [0.0, 10.0, 20.0];
        assert_eq!(sample_at(&x, 0.25), 2.5);
        assert_eq!(sample_at(&x, 1.5), 15.0);
    }

    #[test]
    fn exact_indices_return_exact_samples() {
        let x = [3.0, -1.0, 4.0, -1.5];
        for (i, &v) in x.iter().enumerate() {
            assert_eq!(sample_at(&x, i as f32), v, "idx {i}");
        }
    }

    #[test]
    fn out_of_range_returns_zero() {
        let x = [1.0, 2.0];
        assert_eq!(sample_at(&x, -0.01), 0.0);
        assert_eq!(sample_at(&x, 1.01), 0.0);
        assert_eq!(sample_at(&x, f32::NAN), 0.0);
        assert_eq!(sample_at(&[], 0.0), 0.0);
    }

    #[test]
    fn complex_interpolation_matches_componentwise() {
        let sig: Vec<Complex32> = (0..8).map(|i| Complex32::new(i as f32, -2.0 * i as f32)).collect();
        let v = sample_at_complex(&sig, 2.5);
        assert!((v.re - 2.5).abs() < 1e-6);
        assert!((v.im + 5.0).abs() < 1e-6);
        assert_eq!(sample_at_complex(&sig, -1.0), Complex32::ZERO);
        assert_eq!(sample_at_complex(&[], 0.0), Complex32::ZERO);
    }
}

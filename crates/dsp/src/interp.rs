//! Fractional-sample interpolation.
//!
//! Time-of-flight correction resamples each receive channel at non-integer delays; the
//! interpolators here are what the beamformers use to read "the sample at delay τ".

use crate::complex::Complex32;

/// Interpolation method used when sampling a discrete signal at fractional indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterpMethod {
    /// Nearest-neighbour (round to the closest sample).
    Nearest,
    /// Linear interpolation between the two bracketing samples (the usual choice in
    /// software beamformers and what we use for ToF correction).
    #[default]
    Linear,
    /// Catmull-Rom cubic interpolation over four neighbouring samples.
    Cubic,
}

/// Samples a real signal at a fractional index.
///
/// Out-of-range indices return `0.0` (ultrasound samples outside the acquisition window
/// contribute nothing), which mirrors how hardware beamformers zero out-of-window taps.
///
/// ```
/// use usdsp::interp::{sample_at, InterpMethod};
/// let x = [0.0, 1.0, 2.0, 3.0];
/// assert_eq!(sample_at(&x, 1.5, InterpMethod::Linear), 1.5);
/// assert_eq!(sample_at(&x, -0.2, InterpMethod::Linear), 0.0);
/// ```
#[inline]
pub fn sample_at(signal: &[f32], index: f32, method: InterpMethod) -> f32 {
    if signal.is_empty() || !index.is_finite() {
        return 0.0;
    }
    let n = signal.len();
    if index < 0.0 || index > (n - 1) as f32 {
        return 0.0;
    }
    match method {
        InterpMethod::Nearest => {
            let i = index.round() as usize;
            signal[i.min(n - 1)]
        }
        InterpMethod::Linear => {
            let i0 = index.floor() as usize;
            let frac = index - i0 as f32;
            if i0 + 1 >= n {
                signal[n - 1]
            } else {
                signal[i0] * (1.0 - frac) + signal[i0 + 1] * frac
            }
        }
        InterpMethod::Cubic => {
            let i1 = index.floor() as isize;
            let t = index - i1 as f32;
            let get = |i: isize| -> f32 {
                if i < 0 || i as usize >= n {
                    0.0
                } else {
                    signal[i as usize]
                }
            };
            let p0 = get(i1 - 1);
            let p1 = get(i1);
            let p2 = get(i1 + 1);
            let p3 = get(i1 + 2);
            catmull_rom(p0, p1, p2, p3, t)
        }
    }
}

/// Samples a complex signal at a fractional index (component-wise interpolation).
#[inline]
pub fn sample_at_complex(signal: &[Complex32], index: f32, method: InterpMethod) -> Complex32 {
    if signal.is_empty() || !index.is_finite() {
        return Complex32::ZERO;
    }
    let n = signal.len();
    if index < 0.0 || index > (n - 1) as f32 {
        return Complex32::ZERO;
    }
    match method {
        InterpMethod::Nearest => {
            let i = index.round() as usize;
            signal[i.min(n - 1)]
        }
        InterpMethod::Linear => {
            let i0 = index.floor() as usize;
            let frac = index - i0 as f32;
            if i0 + 1 >= n {
                signal[n - 1]
            } else {
                signal[i0].scale(1.0 - frac) + signal[i0 + 1].scale(frac)
            }
        }
        InterpMethod::Cubic => {
            let re: Vec<f32> = signal.iter().map(|c| c.re).collect();
            let im: Vec<f32> = signal.iter().map(|c| c.im).collect();
            Complex32::new(sample_at(&re, index, method), sample_at(&im, index, method))
        }
    }
}

/// Catmull-Rom cubic interpolation kernel over four neighbouring samples at
/// fractional position `t ∈ [0, 1)` between `p1` and `p2`.
///
/// Exposed so that precomputed-plan gather kernels (see the `beamforming`
/// crate) can reproduce [`sample_at`]'s cubic path bit-for-bit: the arithmetic
/// (order of operations) here is the single source of truth.
#[inline]
pub fn catmull_rom(p0: f32, p1: f32, p2: f32, p3: f32, t: f32) -> f32 {
    let t2 = t * t;
    let t3 = t2 * t;
    0.5 * ((2.0 * p1)
        + (-p0 + p2) * t
        + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * t2
        + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * t3)
}

/// Linearly interpolates `y(x)` given monotonically increasing sample positions `xs`.
///
/// Values outside the domain are clamped to the endpoint values. Returns `None` when the
/// arrays are empty or have mismatched lengths.
pub fn interp1(xs: &[f32], ys: &[f32], x: f32) -> Option<f32> {
    if xs.is_empty() || xs.len() != ys.len() {
        return None;
    }
    if x <= xs[0] {
        return Some(ys[0]);
    }
    if x >= xs[xs.len() - 1] {
        return Some(ys[ys.len() - 1]);
    }
    // binary search for the bracketing interval
    let mut lo = 0usize;
    let mut hi = xs.len() - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if xs[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    Some(ys[lo] * (1.0 - t) + ys[hi] * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolation_between_samples() {
        let x = [0.0, 10.0, 20.0];
        assert_eq!(sample_at(&x, 0.25, InterpMethod::Linear), 2.5);
        assert_eq!(sample_at(&x, 1.5, InterpMethod::Linear), 15.0);
    }

    #[test]
    fn exact_indices_return_exact_samples() {
        let x = [3.0, -1.0, 4.0, -1.5];
        for method in [InterpMethod::Nearest, InterpMethod::Linear, InterpMethod::Cubic] {
            for (i, &v) in x.iter().enumerate() {
                assert!((sample_at(&x, i as f32, method) - v).abs() < 1e-6, "{method:?} idx {i}");
            }
        }
    }

    #[test]
    fn out_of_range_returns_zero() {
        let x = [1.0, 2.0];
        for method in [InterpMethod::Nearest, InterpMethod::Linear, InterpMethod::Cubic] {
            assert_eq!(sample_at(&x, -0.01, method), 0.0);
            assert_eq!(sample_at(&x, 1.01, method), 0.0);
            assert_eq!(sample_at(&x, f32::NAN, method), 0.0);
        }
        assert_eq!(sample_at(&[], 0.0, InterpMethod::Linear), 0.0);
    }

    #[test]
    fn nearest_rounds() {
        let x = [0.0, 1.0, 2.0];
        assert_eq!(sample_at(&x, 0.4, InterpMethod::Nearest), 0.0);
        assert_eq!(sample_at(&x, 0.6, InterpMethod::Nearest), 1.0);
    }

    #[test]
    fn cubic_reproduces_linear_ramps() {
        let x: Vec<f32> = (0..10).map(|i| 2.0 * i as f32).collect();
        for k in 2..7 {
            let idx = k as f32 + 0.37;
            let expected = 2.0 * idx;
            assert!((sample_at(&x, idx, InterpMethod::Cubic) - expected).abs() < 1e-4);
        }
    }

    #[test]
    fn cubic_is_smoother_than_linear_on_sine() {
        let n = 64;
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.5).sin()).collect();
        let mut err_lin = 0.0;
        let mut err_cub = 0.0;
        for k in 8..(n - 8) * 4 {
            let idx = k as f32 / 4.0;
            if idx.fract() == 0.0 {
                continue;
            }
            let truth = (idx * 0.5).sin();
            err_lin += (sample_at(&x, idx, InterpMethod::Linear) - truth).abs();
            err_cub += (sample_at(&x, idx, InterpMethod::Cubic) - truth).abs();
        }
        assert!(err_cub < err_lin);
    }

    #[test]
    fn complex_interpolation_matches_componentwise() {
        let sig: Vec<Complex32> = (0..8).map(|i| Complex32::new(i as f32, -2.0 * i as f32)).collect();
        let v = sample_at_complex(&sig, 2.5, InterpMethod::Linear);
        assert!((v.re - 2.5).abs() < 1e-6);
        assert!((v.im + 5.0).abs() < 1e-6);
        assert_eq!(sample_at_complex(&sig, -1.0, InterpMethod::Linear), Complex32::ZERO);
        assert_eq!(sample_at_complex(&[], 0.0, InterpMethod::Cubic), Complex32::ZERO);
    }

    #[test]
    fn interp1_basic_and_clamping() {
        let xs = [0.0, 1.0, 3.0];
        let ys = [0.0, 10.0, 30.0];
        assert_eq!(interp1(&xs, &ys, 0.5), Some(5.0));
        assert_eq!(interp1(&xs, &ys, 2.0), Some(20.0));
        assert_eq!(interp1(&xs, &ys, -5.0), Some(0.0));
        assert_eq!(interp1(&xs, &ys, 99.0), Some(30.0));
        assert_eq!(interp1(&[], &[], 1.0), None);
        assert_eq!(interp1(&xs, &ys[..2], 1.0), None);
    }
}

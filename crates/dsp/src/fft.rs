//! Radix-2 fast Fourier transform.
//!
//! The transforms here are used by the [Hilbert transform](crate::hilbert) (envelope
//! detection of beamformed RF), which zero-pads signals to [`next_pow2`].

use crate::complex::Complex32;
use crate::{DspError, DspResult};
use std::f32::consts::PI;

/// Returns the smallest power of two that is `>= n` (and at least 1).
///
/// ```
/// assert_eq!(usdsp::fft::next_pow2(0), 1);
/// assert_eq!(usdsp::fft::next_pow2(5), 8);
/// assert_eq!(usdsp::fft::next_pow2(8), 8);
/// ```
pub fn next_pow2(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    let mut p = 1usize;
    while p < n {
        p <<= 1;
    }
    p
}

/// Returns `true` when `n` is a power of two (and nonzero).
pub fn is_pow2(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

fn bit_reverse_permute(data: &mut [Complex32]) {
    let n = data.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
}

/// In-place radix-2 decimation-in-time FFT.
///
/// # Errors
///
/// Returns [`DspError::InvalidLength`] when the length is not a power of two, and
/// [`DspError::EmptyInput`] when it is empty.
pub fn fft_in_place(data: &mut [Complex32], inverse: bool) -> DspResult<()> {
    let n = data.len();
    if n == 0 {
        return Err(DspError::EmptyInput);
    }
    if !is_pow2(n) {
        return Err(DspError::InvalidLength { actual: n, requirement: "FFT length must be a power of two" });
    }
    if n == 1 {
        return Ok(());
    }
    bit_reverse_permute(data);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2usize;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f32;
        let wlen = Complex32::cis(ang);
        let half = len / 2;
        let mut start = 0usize;
        while start < n {
            let mut w = Complex32::ONE;
            for k in 0..half {
                let u = data[start + k];
                let v = data[start + k + half] * w;
                data[start + k] = u + v;
                data[start + k + half] = u - v;
                w *= wlen;
            }
            start += len;
        }
        len <<= 1;
    }
    if inverse {
        let inv_n = 1.0 / n as f32;
        for x in data.iter_mut() {
            *x = x.scale(inv_n);
        }
    }
    Ok(())
}

/// Forward FFT of a power-of-two-length complex signal.
///
/// # Panics
///
/// Panics when the input length is zero or not a power of two.
pub fn fft(input: &[Complex32]) -> Vec<Complex32> {
    let mut data = input.to_vec();
    fft_in_place(&mut data, false).expect("fft: input length must be a nonzero power of two");
    data
}

/// Inverse FFT of a power-of-two-length spectrum (includes the `1/N` normalisation).
///
/// # Panics
///
/// Panics when the input length is zero or not a power of two.
pub fn ifft(input: &[Complex32]) -> Vec<Complex32> {
    let mut data = input.to_vec();
    fft_in_place(&mut data, true).expect("ifft: input length must be a nonzero power of two");
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex32, b: Complex32, tol: f32) {
        assert!((a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol, "{a:?} != {b:?}");
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1025), 2048);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex32::ZERO; 16];
        x[0] = Complex32::ONE;
        let spec = fft(&x);
        for bin in spec {
            assert_close(bin, Complex32::ONE, 1e-5);
        }
    }

    #[test]
    fn fft_of_dc_concentrates_in_bin_zero() {
        let x = vec![Complex32::ONE; 32];
        let spec = fft(&x);
        assert_close(spec[0], Complex32::from_real(32.0), 1e-4);
        for bin in &spec[1..] {
            assert!(bin.abs() < 1e-3);
        }
    }

    #[test]
    fn fft_of_single_tone_peaks_at_expected_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex32> = (0..n)
            .map(|i| Complex32::cis(2.0 * PI * k0 as f32 * i as f32 / n as f32))
            .collect();
        let spec = fft(&x);
        let (max_bin, _) = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        assert_eq!(max_bin, k0);
        assert!((spec[k0].abs() - n as f32).abs() < 1e-2);
    }

    #[test]
    fn ifft_round_trip() {
        let x: Vec<Complex32> = (0..128)
            .map(|i| Complex32::new((i as f32 * 0.3).sin(), (i as f32 * 0.17).cos()))
            .collect();
        let spec = fft(&x);
        let back = ifft(&spec);
        for (a, b) in x.iter().zip(back.iter()) {
            assert_close(*a, *b, 1e-4);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<Complex32> = (0..256)
            .map(|i| Complex32::new((i as f32 * 0.05).sin(), 0.0))
            .collect();
        let spec = fft(&x);
        let time_energy: f32 = x.iter().map(|c| c.norm_sqr()).sum();
        let freq_energy: f32 = spec.iter().map(|c| c.norm_sqr()).sum::<f32>() / x.len() as f32;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-4);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut x = vec![Complex32::ZERO; 12];
        let err = fft_in_place(&mut x, false).unwrap_err();
        assert!(matches!(err, DspError::InvalidLength { actual: 12, .. }));
    }

    #[test]
    fn rejects_empty() {
        let mut x: Vec<Complex32> = vec![];
        assert_eq!(fft_in_place(&mut x, false).unwrap_err(), DspError::EmptyInput);
    }
}

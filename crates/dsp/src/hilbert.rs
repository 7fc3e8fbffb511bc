//! Analytic-signal computation (Hilbert transform) and envelope detection.
//!
//! The Tiny-CNN baseline and the classical DAS/MVDR beamformers produce beamformed RF
//! lines; the B-mode image is the log-compressed *envelope* of those lines. The paper's
//! pipeline (and ours) obtains the envelope from the analytic signal
//! `x_a(t) = x(t) + i * H{x}(t)`, computed here with the FFT method.

use crate::complex::Complex32;
use crate::fft::{fft_in_place, next_pow2};
use crate::{DspError, DspResult};

/// Computes the analytic signal of a real-valued sequence using the FFT method.
///
/// The output has the same length as the input: the signal is zero-padded to a power of
/// two internally and truncated after the inverse transform.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when `signal` is empty.
///
/// ```
/// use usdsp::hilbert::analytic_signal;
/// let t: Vec<f32> = (0..256).map(|i| i as f32 * 0.1).collect();
/// let x: Vec<f32> = t.iter().map(|t| t.cos()).collect();
/// let a = analytic_signal(&x)?;
/// // The envelope of a unit-amplitude cosine is ~1 away from the edges.
/// assert!((a[128].abs() - 1.0).abs() < 0.05);
/// # Ok::<(), usdsp::DspError>(())
/// ```
pub fn analytic_signal(signal: &[f32]) -> DspResult<Vec<Complex32>> {
    let mut scratch = Vec::new();
    analytic_signal_scratch(signal, &mut scratch)?;
    scratch.truncate(signal.len());
    Ok(scratch)
}

/// Core of [`analytic_signal`] writing into a caller-provided scratch buffer.
///
/// On success `scratch` holds the analytic signal in its first `signal.len()`
/// elements (the tail up to the padded FFT length is scratch space). Reusing
/// one buffer across many same-length signals amortises the FFT allocation —
/// this is what [`analytic_signal_batch`] does per worker thread.
fn analytic_signal_scratch(signal: &[f32], scratch: &mut Vec<Complex32>) -> DspResult<()> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let n = next_pow2(signal.len());
    scratch.clear();
    scratch.reserve(n);
    scratch.extend(signal.iter().map(|&x| Complex32::from_real(x)));
    scratch.resize(n, Complex32::ZERO);
    fft_in_place(scratch, false)?;

    // One-sided spectrum weighting: keep DC and Nyquist, double positive
    // frequencies, zero negative frequencies. `n` is a power of two, so the
    // bands are the contiguous ranges 1..half (doubled, component-wise over
    // the interleaved floats — bitwise `scale(2.0)`) and half+1..n (zeroed).
    let half = n / 2;
    if n > 1 {
        runtime::simd::scale(crate::complex::as_float_slice_mut(&mut scratch[1..half]), 2.0);
        scratch[half + 1..].fill(Complex32::ZERO);
    }
    fft_in_place(scratch, true)?;
    Ok(())
}

/// Analytic signal of many real-valued sequences at once, parallelised over
/// signals via the shared `runtime` thread pool.
///
/// Each worker reuses one FFT scratch buffer across all the signals of its
/// chunk, so a batch of equal-length signals (e.g. the receive channels of one
/// acquisition, or the columns of a beamformed RF image) pays one allocation
/// per worker instead of one per signal. Every output is **bitwise identical**
/// to [`analytic_signal`] on the same input, for every `num_threads`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when any signal is empty (checked up
/// front; no partial results).
///
/// ```
/// use usdsp::hilbert::{analytic_signal, analytic_signal_batch};
/// let signals: Vec<Vec<f32>> = (0..4)
///     .map(|s| (0..64).map(|i| ((s + i) as f32 * 0.3).sin()).collect())
///     .collect();
/// let batch = analytic_signal_batch(&signals, 2)?;
/// assert_eq!(batch[3], analytic_signal(&signals[3])?);
/// # Ok::<(), usdsp::DspError>(())
/// ```
pub fn analytic_signal_batch(signals: &[Vec<f32>], num_threads: usize) -> DspResult<Vec<Vec<Complex32>>> {
    if signals.iter().any(|s| s.is_empty()) {
        return Err(DspError::EmptyInput);
    }
    let mut out: Vec<Vec<Complex32>> = vec![Vec::new(); signals.len()];
    runtime::par_map_rows(&mut out, 1, num_threads, |offset, chunk| {
        let mut scratch: Vec<Complex32> = Vec::new();
        for (i, slot) in chunk.iter_mut().enumerate() {
            let signal = &signals[offset + i];
            analytic_signal_scratch(signal, &mut scratch)
                .expect("analytic_signal_batch: inputs validated non-empty");
            *slot = scratch[..signal.len()].to_vec();
        }
    });
    Ok(out)
}

/// Hilbert transform of a real sequence (the imaginary part of the analytic signal).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when `signal` is empty.
pub fn hilbert(signal: &[f32]) -> DspResult<Vec<f32>> {
    Ok(analytic_signal(signal)?.into_iter().map(|c| c.im).collect())
}

/// Envelope (instantaneous amplitude) of a real RF sequence.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when `signal` is empty.
pub fn envelope(signal: &[f32]) -> DspResult<Vec<f32>> {
    Ok(analytic_signal(signal)?.into_iter().map(|c| c.abs()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::PI;

    #[test]
    fn envelope_of_modulated_tone_tracks_carrier_amplitude() {
        // 5 MHz tone sampled at 31.25 MHz with a slowly varying Gaussian amplitude.
        let fs = 31.25e6;
        let f0 = 5.0e6;
        let n = 512;
        let sigma = 60.0;
        let x: Vec<f32> = (0..n)
            .map(|i| {
                let t = i as f32;
                let amp = (-((t - 256.0) / sigma).powi(2)).exp();
                amp * (2.0 * PI * f0 / fs * t).sin()
            })
            .collect();
        let env = envelope(&x).unwrap();
        // Peak of the envelope should be near the Gaussian centre with amplitude ~1.
        let (imax, &vmax) = env
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!((imax as i64 - 256).abs() < 8, "peak at {imax}");
        assert!((vmax - 1.0).abs() < 0.05, "peak {vmax}");
        // Far from the pulse the envelope should be tiny.
        assert!(env[10] < 0.02);
    }

    #[test]
    fn hilbert_of_cosine_is_sine() {
        let n = 256;
        let x: Vec<f32> = (0..n).map(|i| (2.0 * PI * 16.0 * i as f32 / n as f32).cos()).collect();
        let h = hilbert(&x).unwrap();
        let expected: Vec<f32> = (0..n).map(|i| (2.0 * PI * 16.0 * i as f32 / n as f32).sin()).collect();
        // Interior samples (skip edges where the periodic assumption matters least here
        // because the tone is exactly periodic, so compare everywhere).
        for i in 0..n {
            assert!((h[i] - expected[i]).abs() < 1e-2, "sample {i}: {} vs {}", h[i], expected[i]);
        }
    }

    #[test]
    fn analytic_signal_preserves_real_part() {
        let x: Vec<f32> = (0..100).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let a = analytic_signal(&x).unwrap();
        assert_eq!(a.len(), x.len());
        for (orig, anal) in x.iter().zip(a.iter()) {
            assert!((orig - anal.re).abs() < 1e-3);
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(analytic_signal(&[]).unwrap_err(), DspError::EmptyInput);
        assert_eq!(envelope(&[]).unwrap_err(), DspError::EmptyInput);
        assert_eq!(hilbert(&[]).unwrap_err(), DspError::EmptyInput);
    }

    #[test]
    fn batch_is_bitwise_identical_to_serial_for_every_thread_count() {
        // Mixed lengths (different FFT paddings) exercise the scratch reuse.
        let signals: Vec<Vec<f32>> = [33usize, 128, 100, 7, 512, 33]
            .iter()
            .enumerate()
            .map(|(s, &len)| (0..len).map(|i| ((s * 31 + i) as f32 * 0.17).sin() * (i as f32 * 0.03).cos()).collect())
            .collect();
        let serial: Vec<Vec<Complex32>> = signals.iter().map(|s| analytic_signal(s).unwrap()).collect();
        for threads in [1, 2, 3, 8] {
            let batch = analytic_signal_batch(&signals, threads).unwrap();
            for (i, (a, b)) in serial.iter().zip(batch.iter()).enumerate() {
                assert_eq!(a.len(), b.len(), "threads {threads}, signal {i}");
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits(), "threads {threads}, signal {i}");
                    assert_eq!(x.im.to_bits(), y.im.to_bits(), "threads {threads}, signal {i}");
                }
            }
        }
    }

    #[test]
    fn batch_rejects_any_empty_signal() {
        let signals = vec![vec![1.0f32, 2.0], Vec::new()];
        assert_eq!(analytic_signal_batch(&signals, 4).unwrap_err(), DspError::EmptyInput);
        assert!(analytic_signal_batch(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn envelope_is_nonnegative_and_bounds_signal() {
        let x: Vec<f32> = (0..300).map(|i| (i as f32 * 0.37).sin() * (i as f32 * 0.011).cos()).collect();
        let env = envelope(&x).unwrap();
        for (e, s) in env.iter().zip(x.iter()) {
            assert!(*e >= 0.0);
            // The envelope should dominate the instantaneous signal value up to FFT edge
            // effects.
            assert!(*e + 5e-2 >= s.abs());
        }
    }
}

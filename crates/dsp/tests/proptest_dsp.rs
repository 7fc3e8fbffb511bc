//! Property-based tests for the DSP substrate.

use proptest::prelude::*;
use usdsp::fft::{fft, ifft, is_pow2, next_pow2};
use usdsp::hilbert::{analytic_signal, envelope};
use usdsp::interp::sample_at;
use usdsp::stats::{mean, percentile, std_dev, Histogram};
use usdsp::Complex32;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1.0e3f32..1.0e3f32).prop_filter("finite", |v| v.is_finite())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_ifft_round_trip(values in prop::collection::vec(finite_f32(), 1..200)) {
        let n = next_pow2(values.len());
        let mut sig: Vec<Complex32> = values.iter().map(|&v| Complex32::from_real(v)).collect();
        sig.resize(n, Complex32::ZERO);
        let back = ifft(&fft(&sig));
        let scale = values.iter().map(|v| v.abs()).fold(1.0f32, f32::max);
        for (a, b) in sig.iter().zip(back.iter()) {
            prop_assert!((a.re - b.re).abs() <= 1e-3 * scale.max(1.0));
            prop_assert!((a.im - b.im).abs() <= 1e-3 * scale.max(1.0));
        }
    }

    #[test]
    fn fft_is_linear(a in prop::collection::vec(finite_f32(), 64), b in prop::collection::vec(finite_f32(), 64)) {
        let ca: Vec<Complex32> = a.iter().map(|&v| Complex32::from_real(v)).collect();
        let cb: Vec<Complex32> = b.iter().map(|&v| Complex32::from_real(v)).collect();
        let sum: Vec<Complex32> = ca.iter().zip(cb.iter()).map(|(x, y)| *x + *y).collect();
        let fa = fft(&ca);
        let fb = fft(&cb);
        let fsum = fft(&sum);
        let scale = a.iter().chain(b.iter()).map(|v| v.abs()).fold(1.0f32, f32::max);
        for k in 0..64 {
            let lin = fa[k] + fb[k];
            prop_assert!((lin.re - fsum[k].re).abs() <= 1e-2 * scale * 64.0_f32.sqrt());
            prop_assert!((lin.im - fsum[k].im).abs() <= 1e-2 * scale * 64.0_f32.sqrt());
        }
    }

    #[test]
    fn parseval_holds(values in prop::collection::vec(finite_f32(), 128)) {
        let sig: Vec<Complex32> = values.iter().map(|&v| Complex32::from_real(v)).collect();
        let spec = fft(&sig);
        let e_time: f32 = sig.iter().map(|c| c.norm_sqr()).sum();
        let e_freq: f32 = spec.iter().map(|c| c.norm_sqr()).sum::<f32>() / 128.0;
        prop_assert!((e_time - e_freq).abs() <= 1e-3 * e_time.max(1.0));
    }

    #[test]
    fn next_pow2_is_minimal_power(n in 1usize..100_000) {
        let p = next_pow2(n);
        prop_assert!(is_pow2(p));
        prop_assert!(p >= n);
        prop_assert!(p / 2 < n);
    }

    #[test]
    fn envelope_dominates_signal(values in prop::collection::vec(-100.0f32..100.0, 8..300)) {
        let env = envelope(&values).unwrap();
        let peak = values.iter().map(|v| v.abs()).fold(0.0f32, f32::max);
        for (e, s) in env.iter().zip(values.iter()) {
            // FFT edge effects allow a small violation proportional to the signal scale.
            prop_assert!(*e + 0.35 * peak.max(1.0) >= s.abs());
            prop_assert!(*e >= 0.0);
        }
    }

    #[test]
    fn analytic_signal_real_part_matches_input(values in prop::collection::vec(-50.0f32..50.0, 4..128)) {
        let a = analytic_signal(&values).unwrap();
        let peak = values.iter().map(|v| v.abs()).fold(1.0f32, f32::max);
        for (orig, anal) in values.iter().zip(a.iter()) {
            prop_assert!((orig - anal.re).abs() <= 2e-3 * peak);
        }
    }

    #[test]
    fn linear_interpolation_is_bounded_by_neighbours(
        values in prop::collection::vec(-10.0f32..10.0, 2..50),
        t in 0.0f32..1.0,
    ) {
        let max_idx = (values.len() - 1) as f32;
        let idx = t * max_idx;
        let v = sample_at(&values, idx);
        let lo = values[idx.floor() as usize];
        let hi = values[(idx.ceil() as usize).min(values.len() - 1)];
        let (a, b) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        prop_assert!(v >= a - 1e-4 && v <= b + 1e-4);
    }

    #[test]
    fn mean_is_between_min_and_max(values in prop::collection::vec(finite_f32(), 1..100)) {
        let m = mean(&values);
        let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(m >= lo - 1e-2 && m <= hi + 1e-2);
        prop_assert!(std_dev(&values) >= 0.0);
    }

    #[test]
    fn percentile_is_monotone(values in prop::collection::vec(finite_f32(), 1..100), p1 in 0.0f32..100.0, p2 in 0.0f32..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&values, lo).unwrap();
        let b = percentile(&values, hi).unwrap();
        prop_assert!(a <= b + 1e-4);
    }

    #[test]
    fn histogram_total_counts_all_samples(values in prop::collection::vec(-5.0f32..5.0, 0..200), bins in 1usize..64) {
        let h = Histogram::from_values(&values, bins, -5.0, 5.0);
        prop_assert_eq!(h.total(), values.len() as u64);
        let probs = h.probabilities();
        if !values.is_empty() {
            prop_assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn histogram_overlap_is_symmetric_and_bounded(
        a in prop::collection::vec(-1.0f32..1.0, 1..100),
        b in prop::collection::vec(-1.0f32..1.0, 1..100),
    ) {
        let ha = Histogram::from_values(&a, 32, -1.0, 1.0);
        let hb = Histogram::from_values(&b, 32, -1.0, 1.0);
        let o1 = ha.overlap(&hb);
        let o2 = hb.overlap(&ha);
        prop_assert!((o1 - o2).abs() < 1e-5);
        prop_assert!((0.0..=1.0 + 1e-5).contains(&o1));
    }
}

//! Property-based bitwise-equivalence suite for `runtime::simd`.
//!
//! The dispatch contract (`runtime::simd` module docs) is that every kernel
//! produces **bitwise identical** results in all three tiers — the scalar
//! lane-order reference, the portable autovectorized path, and the
//! `#[target_feature]` native path — for every input shape, including ragged
//! lengths that exercise the vector tails. Each property here draws random
//! shapes/values from a seeded PRNG, computes the kernel under
//! `SimdMode::Scalar`, and asserts exact equality (`f32::to_bits` for float
//! results) under every other available tier.
//!
//! `force_mode` is process-global, so every property serializes on one mutex
//! and restores the default mode on exit (panic included).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runtime::simd::{self, SimdMode};
use std::sync::Mutex;

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the dispatch mode forced to `mode`, holding the global lock
/// so concurrent test threads cannot observe the override, and restoring the
/// environment default even when `f` panics.
fn with_mode<T>(mode: SimdMode, f: impl FnOnce() -> T) -> T {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            simd::force_mode(None);
        }
    }
    let _restore = Restore;
    simd::force_mode(Some(mode));
    f()
}

/// Every mode other than scalar that this machine can run.
fn alternative_modes() -> Vec<SimdMode> {
    simd::available_modes().into_iter().filter(|m| *m != SimdMode::Scalar).collect()
}

fn floats(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.1) {
                0.0
            } else {
                rng.gen_range(-8.0f32..8.0)
            }
        })
        .collect()
}

fn codes(rng: &mut StdRng, n: usize, max: i32) -> Vec<i32> {
    (0..n).map(|_| rng.gen_range(-max..=max)).collect()
}

fn taps(rng: &mut StdRng, n: usize, limit: usize) -> Vec<u32> {
    (0..n).map(|_| rng.gen_range(0..limit) as u32).collect()
}

fn assert_bits_eq(reference: &[f32], got: &[f32], what: &str, mode: SimdMode) {
    assert_eq!(reference.len(), got.len(), "{what}: length under {mode:?}");
    for (i, (a, b)) in reference.iter().zip(got).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b} under {mode:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scale_is_bitwise_identical_across_modes(seed in 0u64..1_000_000, n in 0usize..97) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values0 = floats(&mut rng, n);
        let factor = rng.gen_range(-4.0f32..4.0);
        let reference = with_mode(SimdMode::Scalar, || {
            let mut v = values0.clone();
            simd::scale(&mut v, factor);
            v
        });
        for mode in alternative_modes() {
            let got = with_mode(mode, || {
                let mut v = values0.clone();
                simd::scale(&mut v, factor);
                v
            });
            assert_bits_eq(&reference, &got, "scale", mode);
        }
    }

    #[test]
    fn reduce_lanes_is_bitwise_identical_across_modes(seed in 0u64..1_000_000, n in 0usize..131) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = floats(&mut rng, n);
        let reference = with_mode(SimdMode::Scalar, || simd::reduce_lanes(&values));
        for mode in alternative_modes() {
            let got = with_mode(mode, || simd::reduce_lanes(&values));
            prop_assert_eq!(reference.to_bits(), got.to_bits(), "reduce_lanes: {} vs {} under {:?}", reference, got, mode);
        }
    }

    #[test]
    fn gather_two_tap_is_bitwise_identical_across_modes(seed in 0u64..1_000_000, t in 0usize..97, m in 1usize..257) {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat = floats(&mut rng, m);
        let tap0 = taps(&mut rng, t, m);
        let tap1 = taps(&mut rng, t, m);
        let w0 = floats(&mut rng, t);
        let w1 = floats(&mut rng, t);
        let reference = with_mode(SimdMode::Scalar, || {
            let mut out = vec![0.0f32; t];
            simd::gather_two_tap(&flat, &tap0, &tap1, &w0, &w1, &mut out);
            out
        });
        for mode in alternative_modes() {
            let got = with_mode(mode, || {
                let mut out = vec![0.0f32; t];
                simd::gather_two_tap(&flat, &tap0, &tap1, &w0, &w1, &mut out);
                out
            });
            assert_bits_eq(&reference, &got, "gather_two_tap", mode);
        }
    }

    #[test]
    fn gather_two_tap_interleaved_is_bitwise_identical_across_modes(seed in 0u64..1_000_000, t in 0usize..97, m in 1usize..257) {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat = floats(&mut rng, 2 * m);
        let tap0 = taps(&mut rng, t, m);
        let tap1 = taps(&mut rng, t, m);
        let w0 = floats(&mut rng, t);
        let w1 = floats(&mut rng, t);
        let reference = with_mode(SimdMode::Scalar, || {
            let mut out = vec![0.0f32; 2 * t];
            simd::gather_two_tap_interleaved(&flat, &tap0, &tap1, &w0, &w1, &mut out);
            out
        });
        for mode in alternative_modes() {
            let got = with_mode(mode, || {
                let mut out = vec![0.0f32; 2 * t];
                simd::gather_two_tap_interleaved(&flat, &tap0, &tap1, &w0, &w1, &mut out);
                out
            });
            assert_bits_eq(&reference, &got, "gather_two_tap_interleaved", mode);
        }
    }

    #[test]
    fn das_gather_reduce_is_bitwise_identical_across_modes(seed in 0u64..1_000_000, t in 0usize..131, m in 1usize..257) {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat = floats(&mut rng, m);
        let tap0 = taps(&mut rng, t, m);
        let tap1 = taps(&mut rng, t, m);
        let w0 = floats(&mut rng, t);
        let w1 = floats(&mut rng, t);
        let apod = floats(&mut rng, t);
        let reference = with_mode(SimdMode::Scalar, || simd::das_gather_reduce(&flat, &tap0, &tap1, &w0, &w1, &apod));
        for mode in alternative_modes() {
            let got = with_mode(mode, || simd::das_gather_reduce(&flat, &tap0, &tap1, &w0, &w1, &apod));
            prop_assert_eq!(reference.to_bits(), got.to_bits(), "das_gather_reduce: {} vs {} under {:?}", reference, got, mode);
        }
        // The fused kernel must equal reduce_lanes over the explicit
        // contribution vector — the contract the planned DAS sweep relies on.
        let contrib: Vec<f32> = (0..t)
            .map(|e| apod[e] * (flat[tap0[e] as usize] * w0[e] + flat[tap1[e] as usize] * w1[e]))
            .collect();
        let fused = with_mode(SimdMode::Scalar, || simd::reduce_lanes(&contrib));
        prop_assert_eq!(reference.to_bits(), fused.to_bits());
    }

    #[test]
    fn integer_kernels_are_exact_across_modes(seed in 0u64..1_000_000, n in 0usize..97) {
        let mut rng = StdRng::seed_from_u64(seed);
        // A one-row i64_mac_row panel onto a nonzero accumulator: exact
        // integer arithmetic, any tier.
        let acc0: Vec<i64> = codes(&mut rng, n, 1 << 20).iter().map(|&c| c as i64).collect();
        let x = codes(&mut rng, n, 1 << 20);
        let a = rng.gen_range(-(1 << 20)..(1 << 20));
        let reference = with_mode(SimdMode::Scalar, || {
            let mut acc = acc0.clone();
            simd::i64_mac_row(&mut acc, &[a], &x);
            acc
        });
        for mode in alternative_modes() {
            let got = with_mode(mode, || {
                let mut acc = acc0.clone();
                simd::i64_mac_row(&mut acc, &[a], &x);
                acc
            });
            prop_assert_eq!(&reference, &got, "one-row i64_mac_row under {:?}", mode);
        }
        // accumulate_i32_into_i64.
        let tile = codes(&mut rng, n, i32::MAX - 1);
        let spill_ref = with_mode(SimdMode::Scalar, || {
            let mut acc = acc0.clone();
            simd::accumulate_i32_into_i64(&mut acc, &tile);
            acc
        });
        for mode in alternative_modes() {
            let got = with_mode(mode, || {
                let mut acc = acc0.clone();
                simd::accumulate_i32_into_i64(&mut acc, &tile);
                acc
            });
            prop_assert_eq!(&spill_ref, &got, "accumulate_i32_into_i64 under {:?}", mode);
        }
    }

    #[test]
    fn block_mac_kernels_are_exact_across_modes(seed in 0u64..1_000_000, m in 0usize..97, k in 1usize..65) {
        let mut rng = StdRng::seed_from_u64(seed);
        // madd_block over an np × m panel with magnitudes that keep the whole
        // panel's accumulation within i32 (2 * np * 512 * 512 << i32::MAX).
        let np = k.div_ceil(2);
        let a_pairs: Vec<i32> = (0..np)
            .map(|_| simd::pack_i16_pair(rng.gen_range(-512..512), rng.gen_range(-512..512)))
            .collect();
        let b_pairs: Vec<i32> = (0..np * m)
            .map(|_| simd::pack_i16_pair(rng.gen_range(-512..512), rng.gen_range(-512..512)))
            .collect();
        let reference = with_mode(SimdMode::Scalar, || {
            let mut acc = vec![0i32; m];
            simd::madd_block(&mut acc, &a_pairs, &b_pairs);
            acc
        });
        for mode in alternative_modes() {
            let got = with_mode(mode, || {
                let mut acc = vec![0i32; m];
                simd::madd_block(&mut acc, &a_pairs, &b_pairs);
                acc
            });
            prop_assert_eq!(&reference, &got, "madd_block under {:?}", mode);
        }
        // i64_mac_row over a k × m matrix, wide magnitudes (the i64 path).
        let a_row = codes(&mut rng, k, 1 << 20);
        let b = codes(&mut rng, k * m, 1 << 20);
        let row_ref = with_mode(SimdMode::Scalar, || {
            let mut acc = vec![0i64; m];
            simd::i64_mac_row(&mut acc, &a_row, &b);
            acc
        });
        for mode in alternative_modes() {
            let got = with_mode(mode, || {
                let mut acc = vec![0i64; m];
                simd::i64_mac_row(&mut acc, &a_row, &b);
                acc
            });
            prop_assert_eq!(&row_ref, &got, "i64_mac_row under {:?}", mode);
        }
    }

    #[test]
    fn madd_dot_is_exact_across_modes(seed in 0u64..1_000_000, np in 0usize..97) {
        let mut rng = StdRng::seed_from_u64(seed);
        // |codes| < 4096 keeps every i32 lane within the documented bound:
        // 2 * ceil(np/8) * 4096 * 4096 < i32::MAX for np < 97.
        let a_pairs: Vec<i32> = (0..np)
            .map(|_| simd::pack_i16_pair(rng.gen_range(-4096..4096), rng.gen_range(-4096..4096)))
            .collect();
        let b_pairs: Vec<i32> = (0..np)
            .map(|_| simd::pack_i16_pair(rng.gen_range(-4096..4096), rng.gen_range(-4096..4096)))
            .collect();
        let reference = with_mode(SimdMode::Scalar, || simd::madd_dot(&a_pairs, &b_pairs));
        for mode in alternative_modes() {
            let got = with_mode(mode, || simd::madd_dot(&a_pairs, &b_pairs));
            prop_assert_eq!(reference, got, "madd_dot under {:?}", mode);
        }
    }

    #[test]
    fn boundary_conversion_kernels_are_bitwise_identical_across_modes(
        seed in 0u64..1_000_000,
        n in 0usize..97,
        frac in 0u32..15,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // A 16-bit grid with `frac` fractional bits, plus values far outside
        // the representable range (saturation) and NaN/infinite specials.
        let (max_raw, min_raw) = (32767i32, -32768i32);
        let inv_step = (frac as f32).exp2();
        let step = (-(frac as f32)).exp2();
        let mut values = floats(&mut rng, n);
        for v in values.iter_mut() {
            match rng.gen_range(0..8) {
                0 => *v = f32::NAN,
                1 => *v = f32::INFINITY * if rng.gen() { 1.0 } else { -1.0 },
                2 => *v *= 1e6,
                _ => {}
            }
        }
        let reference = with_mode(SimdMode::Scalar, || {
            let mut out = vec![0i32; n];
            simd::quantize_codes(&values, inv_step, max_raw, min_raw, &mut out);
            out
        });
        for mode in alternative_modes() {
            let got = with_mode(mode, || {
                let mut out = vec![0i32; n];
                simd::quantize_codes(&values, inv_step, max_raw, min_raw, &mut out);
                out
            });
            prop_assert_eq!(&reference, &got, "quantize_codes under {:?}", mode);
        }
        let code_vals = codes(&mut rng, n, 32768);
        let deq_ref = with_mode(SimdMode::Scalar, || {
            let mut out = vec![0.0f32; n];
            simd::codes_to_f32(&code_vals, step, &mut out);
            out
        });
        for mode in alternative_modes() {
            let got = with_mode(mode, || {
                let mut out = vec![0.0f32; n];
                simd::codes_to_f32(&code_vals, step, &mut out);
                out
            });
            assert_bits_eq(&deq_ref, &got, "codes_to_f32", mode);
        }
    }

    #[test]
    fn shift_round_saturate_is_exact_across_modes(
        seed in 0u64..1_000_000,
        n in 0usize..97,
        shift in 0u32..22,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Full i32 span except i32::MIN (excluded by the kernel contract).
        let values: Vec<i32> = (0..n).map(|_| rng.gen_range(i32::MIN + 1..=i32::MAX)).collect();
        let (min_raw, max_raw) = (-32768i32, 32767i32);
        let reference = with_mode(SimdMode::Scalar, || {
            let mut out = vec![0i32; n];
            simd::shift_round_saturate_i32(&values, shift, min_raw, max_raw, &mut out);
            out
        });
        // The scalar tier must itself agree with the i64 rounding reference.
        for (i, (&v, &r)) in values.iter().zip(&reference).enumerate() {
            let half = if shift == 0 { 0 } else { 1i64 << (shift - 1) };
            let v64 = v as i64;
            let rounded = if v64 >= 0 { (v64 + half) >> shift } else { -((-v64 + half) >> shift) };
            prop_assert_eq!(r as i64, rounded.clamp(min_raw as i64, max_raw as i64), "element {}", i);
        }
        for mode in alternative_modes() {
            let got = with_mode(mode, || {
                let mut out = vec![0i32; n];
                simd::shift_round_saturate_i32(&values, shift, min_raw, max_raw, &mut out);
                out
            });
            prop_assert_eq!(&reference, &got, "shift_round_saturate_i32 under {:?}", mode);
        }
    }
}

/// Inputs that steer `exp` through every branch of the glibc port: signed
/// zeros, infinities, a quiet and a signalling NaN, subnormals, and each
/// threshold (|x| = 88, the overflow bound ≈ 88.72, the underflow bound
/// ≈ −103.97) with its neighbours one ulp either side.
fn exp_edge_inputs() -> Vec<f32> {
    let mut edges = vec![
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0x7fa0_0001),
        f32::from_bits(0x0000_0001),
        f32::from_bits(0x8000_0001),
        f32::from_bits(0x007f_ffff),
        f32::from_bits(0x807f_ffff),
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
    ];
    for threshold in [88.0f32, -88.0, f32::from_bits(0x42b1_7217), f32::from_bits(0xc2cf_f1b4)] {
        let bits = threshold.to_bits();
        edges.extend([f32::from_bits(bits - 1), threshold, f32::from_bits(bits + 1)]);
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exp_is_bitwise_identical_across_modes(seed in 0u64..1_000_000, n in 0usize..97) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = exp_edge_inputs();
        // Softmax-shaped inputs (x ≤ 0), the full finite range, arbitrary
        // bit patterns, and the edge cases scattered through the slice so
        // they land in vector blocks and in the ragged tail alike.
        let values: Vec<f32> = (0..n)
            .map(|_| match rng.gen_range(0u32..4) {
                0 => rng.gen_range(-110.0f32..0.0),
                1 => rng.gen_range(-120.0f32..95.0),
                2 => f32::from_bits(rng.gen::<u32>()),
                _ => edges[rng.gen_range(0..edges.len())],
            })
            .collect();
        let reference = with_mode(SimdMode::Scalar, || {
            let mut v = values.clone();
            simd::exp(&mut v);
            v
        });
        for mode in alternative_modes() {
            let got = with_mode(mode, || {
                let mut v = values.clone();
                simd::exp(&mut v);
                v
            });
            assert_bits_eq(&reference, &got, "exp", mode);
        }
    }
}

#[test]
fn exp_edge_cases_follow_glibc() {
    for mode in simd::available_modes() {
        let mut v = exp_edge_inputs();
        with_mode(mode, || simd::exp(&mut v));
        for (x, y) in exp_edge_inputs().into_iter().zip(v) {
            if x.is_nan() {
                assert!(y.is_nan(), "exp({x}) = {y} under {mode:?}");
            } else if x == 0.0 {
                assert_eq!(y.to_bits(), 1.0f32.to_bits(), "exp({x}) under {mode:?}");
            } else if x == f32::INFINITY {
                assert_eq!(y, f32::INFINITY, "under {mode:?}");
            } else if x == f32::NEG_INFINITY {
                assert_eq!(y.to_bits(), 0, "exp(-inf) = {y} under {mode:?}");
            }
        }
        // Overflow and underflow saturate exactly at glibc's bounds.
        let mut bounds = [f32::from_bits(0x42b1_7218), f32::MAX, f32::from_bits(0xc2cf_f1b5), f32::MIN];
        with_mode(mode, || simd::exp(&mut bounds));
        assert_eq!(bounds, [f32::INFINITY, f32::INFINITY, 0.0, 0.0], "under {mode:?}");
    }
}

#[test]
fn scalar_and_portable_are_always_available() {
    let modes = simd::available_modes();
    assert!(modes.contains(&SimdMode::Scalar));
    assert!(modes.contains(&SimdMode::Portable));
    // Native appears exactly when the CPU supports it.
    assert_eq!(modes.contains(&SimdMode::Native), simd::native_available());
}

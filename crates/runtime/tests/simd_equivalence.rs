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

/// [`floats`] with about one sample in eight replaced by ±∞, NaN or −0.
fn special_floats(rng: &mut StdRng, n: usize) -> Vec<f32> {
    const SPECIAL: [f32; 4] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
    let mut values = floats(rng, n);
    for v in &mut values {
        if rng.gen_bool(0.125) {
            *v = SPECIAL[rng.gen_range(0..SPECIAL.len())];
        }
    }
    values
}

/// Fractional sample indices over an `n`-sample trace as a plan holds them
/// (in-window values, exactly `n − 1`, the sentinel `n`), plus indices no
/// plan holds: negative, −0, NaN, ±∞, past `n` and huge.
fn lerp_indices(rng: &mut StdRng, count: usize, n: usize) -> Vec<f32> {
    let top = n.saturating_sub(1) as f32;
    (0..count)
        .map(|_| match rng.gen_range(0..12) {
            0 => top,
            1 | 2 => n as f32,
            3 => -rng.gen_range(0.0f32..5.0),
            4 => -0.0,
            5 => f32::NAN,
            6 => f32::INFINITY,
            7 => f32::NEG_INFINITY,
            8 => n as f32 + rng.gen_range(0.0f32..5.0),
            9 => 3.0e9,
            10 => rng.gen_range(0..n.max(1)) as f32,
            _ => rng.gen_range(0.0f32..top.max(f32::MIN_POSITIVE)),
        })
        .collect()
}

fn assert_bits_eq(reference: &[f32], got: &[f32], what: &str, mode: SimdMode) {
    assert_eq!(reference.len(), got.len(), "{what}: length under {mode:?}");
    for (i, (a, b)) in reference.iter().zip(got).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b} under {mode:?}");
    }
}

/// [`assert_bits_eq`] up to NaN payloads: where two NaNs meet in one
/// operation, which payload survives is the compiler's choice, so two NaN
/// results count as equal.
fn assert_values_eq(reference: &[f32], got: &[f32], what: &str, mode: SimdMode) {
    assert_eq!(reference.len(), got.len(), "{what}: length under {mode:?}");
    for (i, (a, b)) in reference.iter().zip(got).enumerate() {
        assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()), "{what}[{i}]: {a} vs {b} under {mode:?}");
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
    fn lerp_gathers_are_bitwise_identical_across_modes(
        seed in 0u64..1_000_000,
        channels in 1usize..20,
        n in 0usize..40,
        pixels in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stride = n + 2;
        // Padded traces as a plan lays them out, with ±∞, NaN and −0 samples.
        let mut traces = special_floats(&mut rng, channels * stride);
        for trace in traces.chunks_exact_mut(stride) {
            trace[n] = -0.0;
            trace[n + 1] = 0.0;
        }
        let idx = lerp_indices(&mut rng, pixels * channels, n);
        let apod = floats(&mut rng, channels);
        let gather = || {
            let mut out = vec![0.0f32; idx.len()];
            let peak = simd::lerp_gather(&traces, stride, &idx, &mut out);
            let sums: Vec<f32> =
                idx.chunks_exact(channels).map(|px| simd::lerp_gather_reduce(&traces, stride, px, &apod)).collect();
            (out, peak, sums)
        };
        let (reference, peak, sums) = with_mode(SimdMode::Scalar, gather);
        // The fused peak is `TofCube::peak` of the output: NaN is ignored.
        let expect = reference.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        prop_assert_eq!(peak.to_bits(), expect.to_bits());
        for (e, (&x, &v)) in idx.iter().zip(&reference).enumerate() {
            let trace = &traces[e % channels * stride..][..stride];
            if x.to_bits() == (n as f32).to_bits() {
                prop_assert_eq!(v.to_bits(), 0.0f32.to_bits(), "the sentinel reads +0 whatever the trace holds");
            } else if n > 0 && x == (n - 1) as f32 {
                let last = trace[n - 1];
                prop_assert!(v.to_bits() == last.to_bits() || (v.is_nan() && last.is_nan()), "n − 1 reads the last sample");
            }
        }
        // Each pixel's reduction is `reduce_lanes` of the weighted gather.
        for (px, &sum) in reference.chunks_exact(channels).zip(&sums) {
            let weighted: Vec<f32> = px.iter().zip(&apod).map(|(v, w)| w * v).collect();
            let fused = with_mode(SimdMode::Scalar, || simd::reduce_lanes(&weighted));
            assert_values_eq(&[fused], &[sum], "lerp_gather_reduce vs reduce_lanes", SimdMode::Scalar);
        }
        for mode in alternative_modes() {
            let (got, got_peak, got_sums) = with_mode(mode, gather);
            assert_values_eq(&reference, &got, "lerp_gather", mode);
            prop_assert_eq!(peak.to_bits(), got_peak.to_bits(), "peak under {:?}", mode);
            assert_values_eq(&sums, &got_sums, "lerp_gather_reduce", mode);
        }
        // The complex gather blends each component with the real gather's
        // taps and weights.
        let complex: Vec<f32> = traces.iter().zip(traces.iter().rev()).flat_map(|(&re, &im)| [re, im]).collect();
        let mut out = vec![0.0f32; 2 * idx.len()];
        simd::lerp_gather_complex(&complex, stride, &idx, &mut out);
        let part = |k: usize| {
            let component: Vec<f32> = complex.iter().skip(k).step_by(2).copied().collect();
            let mut gathered = vec![0.0f32; idx.len()];
            with_mode(SimdMode::Scalar, || simd::lerp_gather(&component, stride, &idx, &mut gathered));
            gathered
        };
        let (re, im): (Vec<f32>, Vec<f32>) = out.chunks_exact(2).map(|c| (c[0], c[1])).unzip();
        assert_values_eq(&part(0), &re, "lerp_gather_complex re", SimdMode::Scalar);
        assert_values_eq(&part(1), &im, "lerp_gather_complex im", SimdMode::Scalar);
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
        let quantize = |mode| {
            with_mode(mode, || {
                let mut out = vec![0.0f64; n];
                simd::quantize_codes(&values, inv_step, max_raw, min_raw, &mut out);
                out.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
            })
        };
        let reference = quantize(SimdMode::Scalar);
        for mode in alternative_modes() {
            prop_assert_eq!(&reference, &quantize(mode), "quantize_codes under {:?}", mode);
        }
        let code_vals: Vec<f64> = codes(&mut rng, n, 32768).into_iter().map(f64::from).collect();
        let mut deq = vec![0.0f32; n];
        simd::codes_to_f32(&code_vals, step, &mut deq);
        for (c, d) in code_vals.iter().zip(&deq) {
            prop_assert_eq!(d.to_bits(), (*c as f32 * step).to_bits());
        }
    }

    #[test]
    fn exact_matmul_is_exact_across_modes(
        seed in 0u64..1_000_000,
        n in 0usize..11,
        k in 1usize..41,
        m in 1usize..27,
        bits in 8u32..25,
        shift in 0u32..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Codes at the full magnitude of a `bits`-wide grid — fx24's 2^23
        // at the top — so products reach 2^46 and, with k ≤ 40, the sums
        // approach 2^52: the bound the kernel documents. The row and column
        // strides exercise both operand layouts the attention reads in place.
        let limit = 1i32 << (bits - 1);
        let transposed = rng.gen_bool(0.5);
        let (rows, cols) = if transposed { (k, n.max(1)) } else { (n.max(1), k) };
        let a: Vec<f64> = codes(&mut rng, rows * cols + 3, limit).into_iter().map(f64::from).collect();
        let strides = if transposed { [1, cols] } else { [k, 1] };
        let w: Vec<f64> = codes(&mut rng, k * m, limit).into_iter().map(f64::from).collect();
        let bias: Vec<f64> = codes(&mut rng, m, limit).into_iter().map(|b| f64::from(b) * 1024.0).collect();
        let bias = rng.gen_bool(0.7).then_some(bias);
        let factor = if rng.gen_bool(0.8) { (-(shift as f64)).exp2() } else { rng.gen_range(1e-9..1.0) };
        let rq = simd::Requantize { factor, lo: -f64::from(limit), hi: f64::from(limit - 1) };
        let run = |mode| {
            with_mode(mode, || {
                let mut out = vec![0.0f64; n * m];
                simd::exact_matmul(&a, strides, &w, m, bias.as_deref(), rq, &mut out);
                out.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
            })
        };
        let reference = run(SimdMode::Scalar);
        // The scalar tier against i64 arithmetic and `f64::round`.
        for (i, &got) in reference.iter().enumerate() {
            let (r, c) = (i / m, i % m);
            let mut acc = bias.as_ref().map_or(0i64, |b| b[c] as i64);
            for p in 0..k {
                acc += a[r * strides[0] + p * strides[1]] as i64 * w[p * m + c] as i64;
            }
            let expect = (acc as f64 * factor).round().clamp(rq.lo, rq.hi) + 0.0;
            prop_assert_eq!(got, expect.to_bits(), "element ({}, {}): acc {}", r, c, acc);
        }
        for mode in alternative_modes() {
            prop_assert_eq!(&reference, &run(mode), "exact_matmul under {:?}", mode);
        }
    }
}

/// `quantize_codes` on the inputs where a rounding of `x + copysign(0.5, x)`
/// goes wrong: ±(0.5 − 2⁻²⁵), whose sum with 0.5 rounds up to 1, plus the
/// ties ±0.5, ±1.5 and ±(2²² + 0.5), each at every lane position of a
/// 16-element slice (vector blocks and tail alike). Every tier must equal
/// `FixedFormat::to_code`'s `f32::round`.
#[test]
fn quantize_codes_rounds_half_away_exactly_on_every_tier() {
    let (max_raw, min_raw) = (8_388_607i32, -8_388_608i32);
    for frac in [0u32, 10, 14, 18, 20] {
        let step = (-(frac as f32)).exp2();
        let inv_step = (frac as f32).exp2();
        for magnitude in [0.5 - 2f32.powi(-25), 0.5, 1.5, 4_194_304.5] {
            for sign in [1.0f32, -1.0] {
                let x = sign * magnitude * step;
                let expect = ((x * inv_step).round() as i32).clamp(min_raw, max_raw);
                for lane in 0..16 {
                    let mut values = vec![0.25 * step; 16];
                    values[lane] = x;
                    for mode in simd::available_modes() {
                        let mut out = vec![0.0f64; 16];
                        with_mode(mode, || simd::quantize_codes(&values, inv_step, max_raw, min_raw, &mut out));
                        assert_eq!(out[lane], f64::from(expect), "{x:e} (frac {frac}) at lane {lane} under {mode:?}");
                        assert_eq!(
                            out[(lane + 1) % 16].to_bits(),
                            0.0f64.to_bits(),
                            "0.25 steps round to +0 under {mode:?}"
                        );
                    }
                }
            }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exp_shifted_sum_is_bitwise_identical_across_modes(seed in 0u64..1_000_000, keys in 0usize..41) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = exp_edge_inputs();
        // Attention-shaped scores, some far enough below their lane's max to
        // reach `exp`'s special range, and now and then an edge input.
        let block: Vec<[f32; 8]> = (0..keys)
            .map(|_| {
                std::array::from_fn(|_| match rng.gen_range(0u32..8) {
                    0 => edges[rng.gen_range(0..edges.len())],
                    1 => rng.gen_range(-200.0f32..0.0),
                    _ => rng.gen_range(-12.0f32..12.0),
                })
            })
            .collect();
        let max: [f32; 8] = std::array::from_fn(|_| match rng.gen_range(0u32..6) {
            0 => edges[rng.gen_range(0..edges.len())],
            _ => rng.gen_range(-12.0f32..12.0),
        });
        let run = |mode| {
            with_mode(mode, || {
                let mut b = block.clone();
                let sum = simd::exp_shifted_sum(&mut b, &max);
                (b.concat(), sum.to_vec())
            })
        };
        let (reference, reference_sum) = run(SimdMode::Scalar);
        // The scalar tier is the subtract, `exp` and ascending-key sum passes.
        let mut shifted: Vec<f32> = block.iter().flat_map(|row| (0..8).map(move |l| row[l] - max[l])).collect();
        with_mode(SimdMode::Scalar, || simd::exp(&mut shifted));
        assert_values_eq(&shifted, &reference, "exp_shifted_sum vs exp", SimdMode::Scalar);
        let sums: Vec<f32> = (0..8).map(|l| shifted.iter().skip(l).step_by(8).fold(0.0f32, |acc, &e| acc + e)).collect();
        assert_values_eq(&sums, &reference_sum, "exp_shifted_sum denominators", SimdMode::Scalar);
        for mode in alternative_modes() {
            let (got, got_sum) = run(mode);
            assert_values_eq(&reference, &got, "exp_shifted_sum", mode);
            assert_values_eq(&reference_sum, &got_sum, "exp_shifted_sum denominators", mode);
        }
    }
}

/// Every edge input at every lane position of a 16-element slice of
/// softmax-range inputs, under every tier, through `exp` and through
/// `exp_shifted_sum` (as a score over a zero max): each lane must equal the
/// scalar reference, whatever its neighbours hold.
#[test]
fn exp_special_inputs_are_exact_at_every_lane_position() {
    let ordinary: Vec<f32> = (0..16).map(|i| -0.37 * i as f32 - 0.5).collect();
    for x in exp_edge_inputs() {
        for lane in 0..16 {
            let mut values = ordinary.clone();
            values[lane] = x;
            let mut reference = values.clone();
            with_mode(SimdMode::Scalar, || simd::exp(&mut reference));
            for mode in simd::available_modes() {
                let mut got = values.clone();
                with_mode(mode, || simd::exp(&mut got));
                assert_bits_eq(&reference, &got, &format!("exp with {x:e} at lane {lane}"), mode);
                let mut block: Vec<[f32; 8]> = values.chunks_exact(8).map(|c| c.try_into().unwrap()).collect();
                let sum = with_mode(mode, || simd::exp_shifted_sum(&mut block, &[0.0; 8]));
                let what = format!("exp_shifted_sum with {x:e} at lane {lane}");
                assert_bits_eq(&reference, &block.concat(), &what, mode);
                let expect: Vec<f32> = (0..8).map(|l| 0.0f32 + reference[l] + reference[8 + l]).collect();
                assert_bits_eq(&expect, &sum, &format!("denominators with {x:e} at lane {lane}"), mode);
            }
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

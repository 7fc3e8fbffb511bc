//! Portable SIMD kernels with runtime dispatch.
//!
//! Every hot inner loop in the workspace (planned DAS/ToF/MVDR gathers, the
//! register-tiled matmul, the softmax `exp`, and the exact fixed-point
//! datapath) funnels through this module. Every kernel has two bodies:
//!
//! * the **scalar** reference — straightforward per-element loops. For
//!   reductions it is written in the *lane-order* defined below, and it is
//!   the asserted bitwise reference for the lane body;
//! * the **lane** body — the same arithmetic restructured around fixed-width
//!   `[T; N]` lane blocks so LLVM can autovectorize it for whatever the build
//!   targets (the workspace builds with `-C target-cpu=native`).
//!
//! The fractional-index gathers ([`lerp_gather`], [`lerp_gather_reduce`])
//! have a third, the only native code here: an x86-64 AVX2 body that
//! gathers eight entries per `_mm256_i32gather_ps` pair, selected by runtime
//! CPU detection. It is kept because it is measured faster end to end;
//! LLVM compiles the lane gathers to scalar code per entry.
//!
//! Three dispatch tiers choose among them: **Scalar** runs the references,
//! **Portable** the lane bodies, and **Native** the lane bodies plus the
//! AVX2 gathers. No body enables FMA on its own: fusing a multiply-add would
//! change rounding and break bitwise identity with the reference. [`exp`]
//! fuses on purpose: its multiply-adds are explicit `mul_add` steps of the
//! scalar reference itself, rounded once on every tier. [`exact_matmul`]
//! fuses where the build targets FMA: its products and sums are exact
//! integers, so fused and unfused give the same bits.
//!
//! The active tier is picked once from the [`SIMD_ENV`] environment variable
//! (`scalar`, `portable` or `native`; unset means auto-detection), and can
//! be overridden in-process with [`force_mode`] (used by equivalence tests to
//! sweep tiers). Because every tier is bitwise identical, concurrent tests
//! observing a forced mode mid-sweep still compute identical results.
//!
//! # Lane-order reduction contract
//!
//! Reducing kernels ([`reduce_lanes`], [`das_gather_reduce`],
//! [`lerp_gather_reduce`]) accumulate
//! element `e` into lane `e % 8`, tree-reduce the eight lanes as
//! `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, then fold the ragged tail in
//! element order. All tiers implement exactly this order, which is why their
//! floating-point results are bit-for-bit equal.
//!
//! # Adding a kernel
//!
//! 1. Write the scalar body (the reference) and, if it reduces, make it use
//!    the lane order above.
//! 2. Write the lane body over `[T; N]` chunks with the identical
//!    per-element / per-lane arithmetic order.
//! 3. Dispatch through [`mode`] (`Scalar` to the reference, `Portable |
//!    Native` to the lane body) and extend the proptest suite in
//!    `tests/simd_equivalence.rs` with the new kernel.
//!
//! A native body is added only with a measured end-to-end share, as the
//! gathers have, and never with FMA or reassociating intrinsics unless every
//! operation is exact.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Environment variable selecting the dispatch tier: `scalar`, `portable` or
/// `native`, in any case. Unset or empty auto-detects (native when the CPU
/// supports it, portable otherwise); any other value panics at the first
/// [`mode`] call, so a misspelt tier cannot pass for another.
pub const SIMD_ENV: &str = "TINY_VBF_SIMD";

/// Fixed lane width for `f32` kernels. Matches a 256-bit AVX2 register; NEON
/// targets process the same logical 8-lane block as two 128-bit halves.
pub const F32_LANES: usize = 8;

/// The dispatch tier a kernel call runs under. See the module docs for the
/// exact semantics of each tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Plain per-element loops; the bitwise reference.
    Scalar,
    /// Autovectorization-friendly fixed-width lane blocks.
    Portable,
    /// The lane bodies plus the x86-64 AVX2 gathers; only where
    /// [`native_available`].
    Native,
}

impl SimdMode {
    /// Stable lowercase label (`"scalar"` / `"portable"` / `"native"`),
    /// matching the [`SIMD_ENV`] vocabulary.
    pub fn label(&self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Portable => "portable",
            SimdMode::Native => "native",
        }
    }
}

/// The x86-64 target features this build was compiled for, by name. The
/// lane bodies are autovectorized for them, and without `fma` [`exp`]'s
/// `mul_add` steps call a software routine, about 20× slower. A build that
/// misses the repository's `.cargo/config.toml` (`target-cpu=native`) has
/// none of them.
pub const TARGET_FEATURES: [(&str, bool); 3] = [
    ("avx2", cfg!(target_feature = "avx2")),
    ("fma", cfg!(target_feature = "fma")),
    ("avx512f", cfg!(target_feature = "avx512f")),
];

/// 0 = no override, 1 = scalar, 2 = portable, 3 = native.
static FORCED: AtomicU8 = AtomicU8::new(0);
static DEFAULT: OnceLock<SimdMode> = OnceLock::new();

/// Whether the native tier has code of its own here: x86-64 with AVX2, for
/// the gathers. Elsewhere `Native` would run the portable bodies, so it
/// clamps to [`SimdMode::Portable`].
pub fn native_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A [`SIMD_ENV`] value, trimmed: empty means auto-detection (`Ok(None)`),
/// a tier's label in any case selects it, and anything else is an error
/// that names the variable, the value and the accepted words.
fn parse_mode(value: &str) -> Result<Option<SimdMode>, String> {
    let value = value.trim();
    if value.is_empty() {
        return Ok(None);
    }
    [SimdMode::Scalar, SimdMode::Portable, SimdMode::Native]
        .into_iter()
        .find(|m| value.eq_ignore_ascii_case(m.label()))
        .map(Some)
        .ok_or_else(|| format!("{SIMD_ENV}={value:?}: expected `scalar`, `portable` or `native`, or unset"))
}

fn detect() -> SimdMode {
    let requested = std::env::var_os(SIMD_ENV).unwrap_or_default();
    match parse_mode(&requested.to_string_lossy()) {
        Ok(Some(mode)) => clamp_to_available(mode),
        Ok(None) if native_available() => SimdMode::Native,
        Ok(None) => SimdMode::Portable,
        Err(message) => panic!("{message}"),
    }
}

fn clamp_to_available(mode: SimdMode) -> SimdMode {
    if mode == SimdMode::Native && !native_available() {
        SimdMode::Portable
    } else {
        mode
    }
}

/// The dispatch tier kernels currently run under. Resolved once from
/// [`SIMD_ENV`] + CPU detection, unless overridden by [`force_mode`].
/// Guaranteed never to return [`SimdMode::Native`] unless
/// [`native_available`].
///
/// # Panics
///
/// Panics when [`SIMD_ENV`] holds a value that names no tier, whether or
/// not a tier is forced.
pub fn mode() -> SimdMode {
    let default = *DEFAULT.get_or_init(detect);
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdMode::Scalar,
        2 => SimdMode::Portable,
        3 => SimdMode::Native,
        _ => default,
    }
}

/// Override the dispatch tier in-process (`None` restores the environment
/// default). Intended for equivalence tests that sweep tiers; requesting
/// `Native` on a CPU without it silently clamps to `Portable`. Because all
/// tiers are bitwise identical, racing callers still get identical numbers.
pub fn force_mode(mode: Option<SimdMode>) {
    let raw = match mode.map(clamp_to_available) {
        None => 0,
        Some(SimdMode::Scalar) => 1,
        Some(SimdMode::Portable) => 2,
        Some(SimdMode::Native) => 3,
    };
    FORCED.store(raw, Ordering::Relaxed);
}

/// Every tier that can run on this machine, scalar first. Test helper for
/// exhaustive mode sweeps.
pub fn available_modes() -> Vec<SimdMode> {
    let mut modes = vec![SimdMode::Scalar, SimdMode::Portable];
    if native_available() {
        modes.push(SimdMode::Native);
    }
    modes
}

#[inline(always)]
fn lane_tree(l: &[f32; F32_LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

// ---------------------------------------------------------------------------
// exp: a port of glibc 2.36's `expf` (sysdeps/ieee754/flt-32/e_expf.c, FMA
// build). With N = 32: x·N/ln2 = k + r, exp(x) = 2^(k/N) · 2^(r/N), where
// 2^(k/N) comes from a 32-entry table plus an exponent shift and 2^(r/N) from
// a degree-3 polynomial, all in f64, rounded once to f32.
// ---------------------------------------------------------------------------

/// `T[i] = bits(2^(i/32)) − (i << 47)`: adding `k << 47` to `T[k % 32]`
/// yields the bits of `2^(k/32)`.
const EXP_TABLE: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `0x1.8p52`: adding it rounds a double to an integer held in the low
/// mantissa bits.
const EXP_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `0x1.71547652b82fep0 · 32` = 32 / ln 2.
const EXP_INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.c6af84b912394p-5 / 32³`.
const EXP_C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
/// `0x1.ebfce50fac4f3p-3 / 32²`.
const EXP_C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
/// `0x1.62e42ff0c52d6p-1 / 32`.
const EXP_C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// `0x1.62e42ep6` ≈ 88.72: above it `exp` overflows to +inf.
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// `−0x1.9fe368p6` ≈ −103.97: below it `exp` underflows to +0.
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// `|x| ≥ 88` or NaN: the inputs glibc sends through its special-case branch.
#[inline(always)]
fn exp_is_special(x: f32) -> bool {
    (x.to_bits() >> 20) & 0x7ff >= 0x42b
}

/// The table-and-polynomial path, valid for every input that is not
/// [`exp_is_special`] (and for the special finite ones that do not overflow or
/// underflow). The `mul_add`s are the algorithm, not an optimisation: each is
/// one correctly rounded fused operation on every target.
#[inline(always)]
fn exp_core(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd = EXP_INV_LN2_N.mul_add(xd, EXP_SHIFT);
    let ki = kd.to_bits();
    let r = EXP_INV_LN2_N.mul_add(xd, -(kd - EXP_SHIFT));
    let s = f64::from_bits(EXP_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = EXP_C0.mul_add(r, EXP_C1).mul_add(r * r, EXP_C2.mul_add(r, 1.0)) * s;
    y as f32
}

/// The scalar reference: glibc's special cases, else [`exp_core`].
#[inline(always)]
fn exp_one(x: f32) -> f32 {
    if exp_is_special(x) {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if (x.to_bits() >> 20) & 0x7ff >= 0x7f8 {
            return x + x; // +inf stays +inf, NaN is quieted
        }
        if x > EXP_OVERFLOW {
            return f32::INFINITY;
        }
        if x < EXP_UNDERFLOW {
            return 0.0;
        }
    }
    exp_core(x)
}

/// The lane form of [`exp_one`]: [`exp_core`] on every input, then glibc's
/// special results blended in by selects — `+inf` above the overflow bound,
/// `0` below the underflow bound (−inf included), `x + x` for NaN. No other
/// input reaches a special result, so this equals [`exp_one`] everywhere.
#[inline(always)]
fn exp_lane(x: f32) -> f32 {
    let y = exp_core(x);
    let y = if x > EXP_OVERFLOW { f32::INFINITY } else { y };
    let y = if x < EXP_UNDERFLOW { 0.0 } else { y };
    if x.is_nan() {
        x + x
    } else {
        y
    }
}

fn exp_scalar(values: &mut [f32]) {
    for v in values {
        *v = exp_one(*v);
    }
}

#[inline(always)]
fn exp_lanes(values: &mut [f32]) {
    for v in values {
        *v = exp_lane(*v);
    }
}

/// Scalar reference for [`exp_shifted_sum`]: per key row, per lane, the
/// shift, [`exp_one`] and the add onto the lane's running sum.
fn exp_shifted_sum_scalar(block: &mut [[f32; F32_LANES]], max: &[f32; F32_LANES]) -> [f32; F32_LANES] {
    let mut sum = [0.0f32; F32_LANES];
    for row in block {
        for l in 0..F32_LANES {
            row[l] = exp_one(row[l] - max[l]);
            sum[l] += row[l];
        }
    }
    sum
}

#[inline(always)]
fn exp_shifted_sum_lanes(block: &mut [[f32; F32_LANES]], max: &[f32; F32_LANES]) -> [f32; F32_LANES] {
    let mut sum = [0.0f32; F32_LANES];
    for row in block {
        for ((v, &m), s) in row.iter_mut().zip(max).zip(sum.iter_mut()) {
            *v = exp_lane(*v - m);
            *s += *v;
        }
    }
    sum
}

// ---------------------------------------------------------------------------
// f32 kernels: scalar references
// ---------------------------------------------------------------------------

fn scale_scalar(values: &mut [f32], factor: f32) {
    for v in values {
        *v *= factor;
    }
}

fn reduce_scalar(values: &[f32]) -> f32 {
    let chunks = values.len() / F32_LANES;
    let mut lanes = [0.0f32; F32_LANES];
    for c in 0..chunks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane += values[c * F32_LANES + j];
        }
    }
    let mut acc = lane_tree(&lanes);
    for &v in &values[chunks * F32_LANES..] {
        acc += v;
    }
    acc
}

fn gather_two_tap_scalar(flat: &[f32], tap0: &[u32], tap1: &[u32], w0: &[f32], w1: &[f32], out: &mut [f32]) {
    debug_assert!(tap1.len() == tap0.len() && w0.len() == tap0.len() && w1.len() == tap0.len());
    debug_assert_eq!(out.len(), tap0.len());
    for (j, o) in out.iter_mut().enumerate() {
        *o = flat[tap0[j] as usize] * w0[j] + flat[tap1[j] as usize] * w1[j];
    }
}

fn das_gather_reduce_scalar(
    flat: &[f32],
    tap0: &[u32],
    tap1: &[u32],
    w0: &[f32],
    w1: &[f32],
    apod: &[f32],
) -> f32 {
    let len = tap0.len();
    debug_assert!(tap1.len() == len && w0.len() == len && w1.len() == len && apod.len() == len);
    let chunks = len / F32_LANES;
    let mut lanes = [0.0f32; F32_LANES];
    for c in 0..chunks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            let e = c * F32_LANES + j;
            let v = flat[tap0[e] as usize] * w0[e] + flat[tap1[e] as usize] * w1[e];
            *lane += apod[e] * v;
        }
    }
    let mut acc = lane_tree(&lanes);
    for e in chunks * F32_LANES..len {
        let v = flat[tap0[e] as usize] * w0[e] + flat[tap1[e] as usize] * w1[e];
        acc += apod[e] * v;
    }
    acc
}

/// Tap and weights of fractional index `idx` on a trace whose highest first
/// tap is `top` (`stride − 2`): `i0 = floor(idx)` clamped to `[0, top]`, NaN to
/// 0, and `frac = idx − i0`. Inside `[0, top]` these are the `f32`
/// operations of `usdsp::interp::sample_at`; the clamp keeps every other
/// index on its trace.
///
/// `top ≤ 2^24`, so the clamped index converts to `i32` exactly; an `i32`
/// conversion vectorizes where a `usize` one does not.
#[inline(always)]
fn lerp_tap(idx: f32, top: f32) -> (usize, f32, f32) {
    let i0 = idx.floor().max(0.0).min(top) as i32;
    let frac = idx - i0 as f32;
    (i0 as usize, 1.0 - frac, frac)
}

/// One entry on the trace starting at `base`: `t[i0]·(1 − frac) + t[i0 + 1]·frac`.
#[inline(always)]
fn lerp_scalar(traces: &[f32], base: usize, idx: f32, top: f32) -> f32 {
    let (i0, w0, w1) = lerp_tap(idx, top);
    traces[base + i0] * w0 + traces[base + i0 + 1] * w1
}

fn lerp_gather_scalar(traces: &[f32], stride: usize, idx: &[f32], out: &mut [f32]) -> f32 {
    let (channels, top) = (traces.len() / stride, (stride - 2) as f32);
    let mut peak = 0.0f32;
    for (e, (o, &x)) in out.iter_mut().zip(idx).enumerate() {
        *o = lerp_scalar(traces, e % channels * stride, x, top);
        peak = peak.max(o.abs());
    }
    peak
}

fn lerp_gather_reduce_scalar(traces: &[f32], stride: usize, idx: &[f32], apod: &[f32]) -> f32 {
    let top = (stride - 2) as f32;
    let chunks = idx.len() / F32_LANES;
    let mut lanes = [0.0f32; F32_LANES];
    for c in 0..chunks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            let e = c * F32_LANES + j;
            *lane += apod[e] * lerp_scalar(traces, e * stride, idx[e], top);
        }
    }
    let mut acc = lane_tree(&lanes);
    for e in chunks * F32_LANES..idx.len() {
        acc += apod[e] * lerp_scalar(traces, e * stride, idx[e], top);
    }
    acc
}

// ---------------------------------------------------------------------------
// f32 kernels: lane bodies (identical arithmetic order)
// ---------------------------------------------------------------------------

#[inline(always)]
fn scale_lanes(values: &mut [f32], factor: f32) {
    let mut vc = values.chunks_exact_mut(F32_LANES);
    for block in &mut vc {
        for v in block.iter_mut() {
            *v *= factor;
        }
    }
    for v in vc.into_remainder() {
        *v *= factor;
    }
}

#[inline(always)]
fn reduce_lanes_body(values: &[f32]) -> f32 {
    let mut lanes = [0.0f32; F32_LANES];
    let mut vc = values.chunks_exact(F32_LANES);
    for block in &mut vc {
        let block: &[f32; F32_LANES] = block.try_into().unwrap();
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane += block[j];
        }
    }
    let mut acc = lane_tree(&lanes);
    for &v in vc.remainder() {
        acc += v;
    }
    acc
}

#[inline(always)]
fn gather_two_tap_lanes(flat: &[f32], tap0: &[u32], tap1: &[u32], w0: &[f32], w1: &[f32], out: &mut [f32]) {
    debug_assert!(tap1.len() == tap0.len() && w0.len() == tap0.len() && w1.len() == tap0.len());
    debug_assert_eq!(out.len(), tap0.len());
    let len = tap0.len();
    let blocks = len / F32_LANES;
    for b in 0..blocks {
        let base = b * F32_LANES;
        let mut vals = [0.0f32; F32_LANES];
        for (j, val) in vals.iter_mut().enumerate() {
            let e = base + j;
            *val = flat[tap0[e] as usize] * w0[e] + flat[tap1[e] as usize] * w1[e];
        }
        out[base..base + F32_LANES].copy_from_slice(&vals);
    }
    for e in blocks * F32_LANES..len {
        out[e] = flat[tap0[e] as usize] * w0[e] + flat[tap1[e] as usize] * w1[e];
    }
}

#[inline(always)]
fn das_gather_reduce_body(
    flat: &[f32],
    tap0: &[u32],
    tap1: &[u32],
    w0: &[f32],
    w1: &[f32],
    apod: &[f32],
) -> f32 {
    let len = tap0.len();
    debug_assert!(tap1.len() == len && w0.len() == len && w1.len() == len && apod.len() == len);
    let chunks = len / F32_LANES;
    let mut lanes = [0.0f32; F32_LANES];
    for c in 0..chunks {
        let base = c * F32_LANES;
        let mut vals = [0.0f32; F32_LANES];
        for (j, val) in vals.iter_mut().enumerate() {
            let e = base + j;
            *val = flat[tap0[e] as usize] * w0[e] + flat[tap1[e] as usize] * w1[e];
        }
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane += apod[base + j] * vals[j];
        }
    }
    let mut acc = lane_tree(&lanes);
    for e in chunks * F32_LANES..len {
        let v = flat[tap0[e] as usize] * w0[e] + flat[tap1[e] as usize] * w1[e];
        acc += apod[e] * v;
    }
    acc
}

/// [`lerp_scalar`] without bounds checks: the portable gather body took
/// 13–15 ms per paper-frame cube with it against 22–23 ms with checks (two
/// threads of a 2-vCPU AVX-512 host).
///
/// # Safety
///
/// `base + stride ≤ traces.len()` for the trace's `stride`, and `top` is
/// `stride − 2`: the clamp in [`lerp_tap`] then keeps both taps on it.
#[inline(always)]
unsafe fn lerp_unchecked(traces: &[f32], base: usize, idx: f32, top: f32) -> f32 {
    let (i0, w0, w1) = lerp_tap(idx, top);
    // SAFETY: `i0 ≤ top = stride − 2`, so `base + i0 + 1 < base + stride`.
    *traces.get_unchecked(base + i0) * w0 + *traces.get_unchecked(base + i0 + 1) * w1
}

/// # Safety
///
/// The shape [`lerp_channels`] checks.
#[inline(always)]
unsafe fn lerp_gather_lanes(traces: &[f32], stride: usize, idx: &[f32], out: &mut [f32]) -> f32 {
    let (channels, top) = (traces.len() / stride, (stride - 2) as f32);
    let mut peak = [0.0f32; F32_LANES];
    let mut tail = 0.0f32;
    for (pixel_idx, pixel_out) in idx.chunks_exact(channels).zip(out.chunks_exact_mut(channels)) {
        let mut ic = pixel_idx.chunks_exact(F32_LANES);
        let mut oc = pixel_out.chunks_exact_mut(F32_LANES);
        for (b, (xs, os)) in (&mut ic).zip(&mut oc).enumerate() {
            let xs: &[f32; F32_LANES] = xs.try_into().unwrap();
            let os: &mut [f32; F32_LANES] = os.try_into().unwrap();
            for l in 0..F32_LANES {
                // SAFETY: every channel index is below `traces.len() / stride`.
                let v = lerp_unchecked(traces, (b * F32_LANES + l) * stride, xs[l], top);
                os[l] = v;
                peak[l] = peak[l].max(v.abs());
            }
        }
        let first = channels - ic.remainder().len();
        for (ch, (o, &x)) in (first..).zip(oc.into_remainder().iter_mut().zip(ic.remainder())) {
            // SAFETY: `ch < channels`, as above.
            *o = lerp_unchecked(traces, ch * stride, x, top);
            tail = tail.max(o.abs());
        }
    }
    peak.iter().fold(tail, |m, &p| m.max(p))
}

/// # Safety
///
/// The shape [`lerp_channels`] checks, with one pixel of entries.
#[inline(always)]
unsafe fn lerp_gather_reduce_lanes(traces: &[f32], stride: usize, idx: &[f32], apod: &[f32]) -> f32 {
    let top = (stride - 2) as f32;
    let mut lanes = [0.0f32; F32_LANES];
    let mut ic = idx.chunks_exact(F32_LANES);
    let mut ac = apod.chunks_exact(F32_LANES);
    for (b, (xs, ws)) in (&mut ic).zip(&mut ac).enumerate() {
        let xs: &[f32; F32_LANES] = xs.try_into().unwrap();
        let ws: &[f32; F32_LANES] = ws.try_into().unwrap();
        for (l, lane) in lanes.iter_mut().enumerate() {
            // SAFETY: one pixel, so every entry index is a channel index.
            *lane += ws[l] * lerp_unchecked(traces, (b * F32_LANES + l) * stride, xs[l], top);
        }
    }
    let mut acc = lane_tree(&lanes);
    let first = idx.len() - ic.remainder().len();
    for (e, (&x, &w)) in (first..).zip(ic.remainder().iter().zip(ac.remainder())) {
        // SAFETY: `e` is a channel index, as above.
        acc += w * lerp_unchecked(traces, e * stride, x, top);
    }
    acc
}

// ---------------------------------------------------------------------------
// Integer kernels: exact arithmetic, so one body serves every tier. Only
// `perfbench` calls `madd_block` and `i64_mac_row`; the integer datapath's
// dense layers run `exact_matmul`.
// ---------------------------------------------------------------------------

/// Pack two i16-range fixed-point codes into the `(lo, hi)` pair layout the
/// [`madd_block`] kernel consumes. Both values must fit in `i16`.
#[inline(always)]
pub fn pack_i16_pair(lo: i32, hi: i32) -> i32 {
    debug_assert!((-32768..=32767).contains(&lo) && (-32768..=32767).contains(&hi));
    (((hi as u16 as u32) << 16) | (lo as u16 as u32)) as i32
}

// ---------------------------------------------------------------------------
// Exact code kernels: fixed-point codes held as integers in f64 lanes. Every
// product and partial sum is an integer below 2^53, so each operation is
// exact, and sums in any order, fused or not, give the same bits.
// ---------------------------------------------------------------------------

/// Rounds half away from zero — `f64::round`, exact by definition — with a
/// zero result as `+0.0`, never `−0.0`, so a code reads back like its
/// integer. With SSE4.1 LLVM lowers `round`, scalar and vector alike, to
/// `trunc(y + copysign(0.5 − 2⁻⁵⁴, y))`: adding the predecessor of one half
/// keeps `y = 0.5 − 2⁻⁵⁴` below 1 and still carries a tie up, where
/// `trunc(y + copysign(0.5, y))` rounds `0.5 − 2⁻⁵⁴` up to 1.
#[inline(always)]
fn round_half_away(y: f64) -> f64 {
    y.round() + 0.0
}

/// The rounding epilogue of [`exact_matmul`]: an exact accumulator goes onto
/// the output grid as `clamp(round_half_away(acc · factor), lo, hi)`.
///
/// With `factor = 2^−shift` the multiply is exact, so this is
/// `FixedFormat::requantize_i64`'s rounding shift and saturation. Any other
/// factor rounds `acc · factor` once in `f64` first, which is what a score
/// scale of `1/√head_dim` that is not a power of two asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Requantize {
    /// Multiplier from the accumulator's grid onto the output grid.
    pub factor: f64,
    /// Smallest output code.
    pub lo: f64,
    /// Largest output code.
    pub hi: f64,
}

impl Requantize {
    /// One accumulator onto the output grid.
    #[inline(always)]
    pub fn apply(&self, acc: f64) -> f64 {
        // Selects rather than `f64::max`/`min`, whose NaN rules cost two more
        // instructions a lane: codes are never NaN.
        let code = round_half_away(acc * self.factor);
        let code = if code > self.lo { code } else { self.lo };
        if code < self.hi {
            code
        } else {
            self.hi
        }
    }
}

/// `acc + x·y`, fused when the build targets FMA. The operands of the exact
/// kernels are integers whose products and sums are exact, so the fused and
/// the unfused forms give the same bits.
#[inline(always)]
fn exact_mac(acc: f64, x: f64, y: f64) -> f64 {
    if cfg!(target_feature = "fma") {
        x.mul_add(y, acc)
    } else {
        acc + x * y
    }
}

/// Rows of one [`exact_matmul`] register tile.
const TILE_ROWS: usize = 4;
/// Columns of one [`exact_matmul`] register tile.
const TILE_COLS: usize = 8;

/// The exact accumulator of output `(r, c)`: `bias[c]` plus the products in
/// ascending `p`.
#[inline(always)]
fn exact_dot(a: &[f64], w: &[f64], m: usize, bias: Option<&[f64]>, r: usize, c: usize) -> f64 {
    let k = w.len() / m;
    let mut acc = bias.map_or(0.0, |b| b[c]);
    for (p, &x) in a[r * k..][..k].iter().enumerate() {
        acc += x * w[p * m + c];
    }
    acc
}

/// Scalar reference for [`exact_matmul`]: one [`exact_dot`] per output.
fn exact_matmul_scalar(a: &[f64], w: &[f64], m: usize, bias: Option<&[f64]>, rq: Requantize, out: &mut [f64]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = rq.apply(exact_dot(a, w, m, bias, i / m, i % m));
    }
}

/// One `R × TILE_COLS` tile of output rows `r0..` and columns `c0..`, its
/// accumulators held in registers across the whole reduction.
#[inline(always)]
fn exact_tile<const R: usize>(
    a: &[f64],
    w: &[f64],
    m: usize,
    init: [f64; TILE_COLS],
    rq: Requantize,
    (r0, c0): (usize, usize),
    out: &mut [f64],
) {
    let k = w.len() / m;
    let mut acc = [init; R];
    for (p, w_row) in w.chunks_exact(m).enumerate() {
        let w_row: &[f64; TILE_COLS] = w_row[c0..c0 + TILE_COLS].try_into().unwrap();
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let x = a[(r0 + i) * k + p];
            for (o, &y) in acc_row.iter_mut().zip(w_row) {
                *o = exact_mac(*o, x, y);
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        let dst = &mut out[(r0 + i) * m + c0..][..TILE_COLS];
        for (o, &v) in dst.iter_mut().zip(acc_row) {
            *o = rq.apply(v);
        }
    }
}

#[inline(always)]
fn exact_matmul_lanes(a: &[f64], w: &[f64], m: usize, bias: Option<&[f64]>, rq: Requantize, out: &mut [f64]) {
    let n = out.len() / m;
    let mut c0 = 0;
    while c0 + TILE_COLS <= m {
        let init = bias.map_or([0.0; TILE_COLS], |b| b[c0..c0 + TILE_COLS].try_into().unwrap());
        let mut r0 = 0;
        while r0 + TILE_ROWS <= n {
            exact_tile::<TILE_ROWS>(a, w, m, init, rq, (r0, c0), out);
            r0 += TILE_ROWS;
        }
        for r in r0..n {
            exact_tile::<1>(a, w, m, init, rq, (r, c0), out);
        }
        c0 += TILE_COLS;
    }
    for r in 0..n {
        for c in c0..m {
            out[r * m + c] = rq.apply(exact_dot(a, w, m, bias, r, c));
        }
    }
}

// ---------------------------------------------------------------------------
// Fixed-point boundary conversion kernels (f32 <-> codes)
// ---------------------------------------------------------------------------

/// Scalar reference for [`quantize_codes`]: `round(v / 2^-frac)` half away
/// from zero, saturated to `[min_raw, max_raw]`, NaN to code 0. `inv_step`
/// must be the exact power of two `2^frac` so the multiply equals the
/// division bit-for-bit.
fn quantize_codes_scalar(values: &[f32], inv_step: f32, max_raw: i32, min_raw: i32, out: &mut [f64]) {
    debug_assert_eq!(values.len(), out.len());
    for (o, &v) in out.iter_mut().zip(values) {
        let scaled = (v * inv_step).round();
        *o = if scaled.is_nan() {
            0.0
        } else if scaled >= max_raw as f32 {
            f64::from(max_raw)
        } else if scaled <= min_raw as f32 {
            f64::from(min_raw)
        } else {
            f64::from(scaled as i32)
        };
    }
}

/// The lane body of [`quantize_codes`]: branch-free selects around
/// `f32::round` (see [`round_half_away`] for its exact lowering), so it
/// vectorizes on every target.
#[inline(always)]
fn quantize_codes_lanes(values: &[f32], inv_step: f32, max_raw: i32, min_raw: i32, out: &mut [f64]) {
    debug_assert_eq!(values.len(), out.len());
    let (max_f, min_f) = (max_raw as f32, min_raw as f32);
    let code = |v: f32| {
        let scaled = (v * inv_step).round() + 0.0;
        // Saturate with selects (one instruction a lane), then send NaN to 0.
        let code = if scaled < max_f { scaled } else { max_f };
        let code = if code > min_f { code } else { min_f };
        if scaled.is_nan() {
            0.0
        } else {
            code
        }
    };
    for (o, &v) in out.iter_mut().zip(values) {
        *o = f64::from(code(v));
    }
}

// ---------------------------------------------------------------------------
// Native code: the x86-64 AVX2 gathers and `vzeroupper`
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod native {
    use super::*;
    use std::arch::x86_64::*;

    // SAFETY (all bodies): dispatch reaches this module only when `mode()`
    // returned `Native`, which `clamp_to_available` guarantees implies AVX2
    // was detected at runtime. `avx2` deliberately does not imply `fma`, so
    // no multiply-add can be fused and both gathers stay bitwise identical
    // to their scalar references.

    /// Eight entries of [`lerp_tap`]'s blend from one pair of
    /// `vgatherdps`: `at` holds each lane's trace offset. `_mm256_max_ps`
    /// returns its second operand when the first is NaN, as `f32::max(NaN,
    /// 0.0)` returns `0.0`; converting `i0` back to `f32` gives `+0.0` for
    /// `floor(−0.0)`, as `i0 as f32` does.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn lerp8(traces: *const f32, at: __m256i, idx: __m256, top: __m256) -> __m256 {
        let i0 = _mm256_cvttps_epi32(_mm256_min_ps(_mm256_max_ps(_mm256_floor_ps(idx), _mm256_setzero_ps()), top));
        let frac = _mm256_sub_ps(idx, _mm256_cvtepi32_ps(i0));
        let w0 = _mm256_sub_ps(_mm256_set1_ps(1.0), frac);
        let at = _mm256_add_epi32(at, i0);
        let a = _mm256_i32gather_ps::<4>(traces, at);
        let b = _mm256_i32gather_ps::<4>(traces.add(1), at);
        _mm256_add_ps(_mm256_mul_ps(a, w0), _mm256_mul_ps(b, frac))
    }

    /// Trace offsets of lanes `0..8` (`l · stride`) and the step to the next
    /// eight channels. `lerp_channels` bounds every offset by `i32::MAX`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn lerp_offsets(stride: usize) -> (__m256i, __m256i) {
        let s = stride as i32;
        (_mm256_setr_epi32(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s), _mm256_set1_epi32(8 * s))
    }

    /// # Safety
    ///
    /// AVX2, and the shape `lerp_channels` checks.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lerp_gather(traces: &[f32], stride: usize, idx: &[f32], out: &mut [f32]) -> f32 {
        let (channels, top) = (traces.len() / stride, (stride - 2) as f32);
        let blocks = channels / F32_LANES;
        let (first, step) = lerp_offsets(stride);
        let (vtop, abs) = (_mm256_set1_ps(top), _mm256_castsi256_ps(_mm256_set1_epi32(i32::MAX)));
        let mut peak = _mm256_setzero_ps();
        let mut tail = 0.0f32;
        for (pixel_idx, pixel_out) in idx.chunks_exact(channels).zip(out.chunks_exact_mut(channels)) {
            let mut at = first;
            for b in 0..blocks {
                // SAFETY: b·8 + 8 ≤ channels, the length of both slices.
                let x = _mm256_loadu_ps(pixel_idx.as_ptr().add(b * F32_LANES));
                let v = lerp8(traces.as_ptr(), at, x, vtop);
                _mm256_storeu_ps(pixel_out.as_mut_ptr().add(b * F32_LANES), v);
                // |v| first: a NaN entry leaves the running peak as it is.
                peak = _mm256_max_ps(_mm256_and_ps(v, abs), peak);
                at = _mm256_add_epi32(at, step);
            }
            for ch in blocks * F32_LANES..channels {
                // SAFETY: `ch < channels = traces.len() / stride`.
                pixel_out[ch] = lerp_unchecked(traces, ch * stride, pixel_idx[ch], top);
                tail = tail.max(pixel_out[ch].abs());
            }
        }
        let mut lanes = [0.0f32; F32_LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), peak);
        lanes.iter().fold(tail, |m, &p| m.max(p))
    }

    /// # Safety
    ///
    /// AVX2, and the shape `lerp_channels` checks, with one pixel of entries.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lerp_gather_reduce(traces: &[f32], stride: usize, idx: &[f32], apod: &[f32]) -> f32 {
        let top = (stride - 2) as f32;
        let blocks = idx.len() / F32_LANES;
        let (mut at, step) = lerp_offsets(stride);
        let vtop = _mm256_set1_ps(top);
        let mut acc = _mm256_setzero_ps();
        for b in 0..blocks {
            // SAFETY: b·8 + 8 ≤ idx.len() = apod.len().
            let x = _mm256_loadu_ps(idx.as_ptr().add(b * F32_LANES));
            let w = _mm256_loadu_ps(apod.as_ptr().add(b * F32_LANES));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(w, lerp8(traces.as_ptr(), at, x, vtop)));
            at = _mm256_add_epi32(at, step);
        }
        let mut lanes = [0.0f32; F32_LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut sum = lane_tree(&lanes);
        for e in blocks * F32_LANES..idx.len() {
            // SAFETY: one pixel, so `e` is a channel index.
            sum += apod[e] * lerp_unchecked(traces, e * stride, idx[e], top);
        }
        sum
    }

    /// `vzeroupper`: marks the upper halves of the vector registers clean.
    pub fn zero_upper() {
        debug_assert!(native_available());
        // SAFETY: only called where AVX2, and with it AVX, was detected.
        unsafe { _mm256_zeroupper() }
    }
}

// ---------------------------------------------------------------------------
// Dispatched public kernels
// ---------------------------------------------------------------------------

/// `values[i] *= factor`. Element-wise, so every tier is bitwise identical.
pub fn scale(values: &mut [f32], factor: f32) {
    match mode() {
        SimdMode::Scalar => scale_scalar(values, factor),
        SimdMode::Portable | SimdMode::Native => scale_lanes(values, factor),
    }
}

/// Sum a slice in the module's lane-order reduction (see the module docs).
/// The scalar tier is the reference; all tiers match it bit-for-bit.
pub fn reduce_lanes(values: &[f32]) -> f32 {
    match mode() {
        SimdMode::Scalar => reduce_scalar(values),
        SimdMode::Portable | SimdMode::Native => reduce_lanes_body(values),
    }
}

/// Two-tap interpolating gather: `out[j] = flat[tap0[j]]*w0[j] +
/// flat[tap1[j]]*w1[j]`. Element-wise, bitwise identical across tiers.
///
/// No library code calls it since beamforming plans store one fractional
/// index per entry ([`lerp_gather`]); `perfbench`'s kernel rows still time
/// it, so it goes with the next change to the benchmark.
pub fn gather_two_tap(flat: &[f32], tap0: &[u32], tap1: &[u32], w0: &[f32], w1: &[f32], out: &mut [f32]) {
    match mode() {
        SimdMode::Scalar => gather_two_tap_scalar(flat, tap0, tap1, w0, w1, out),
        SimdMode::Portable | SimdMode::Native => gather_two_tap_lanes(flat, tap0, tap1, w0, w1, out),
    }
}

/// Fused two-tap DAS kernel: gathers both taps, applies apodization and
/// reduces in the module's lane order. Equivalent to materialising
/// `apod[e] * (flat[tap0[e]]*w0[e] + flat[tap1[e]]*w1[e])` and calling
/// [`reduce_lanes`], without the intermediate buffer.
///
/// Like [`gather_two_tap`], only `perfbench`'s kernel rows still call it;
/// planned DAS runs [`lerp_gather_reduce`].
pub fn das_gather_reduce(
    flat: &[f32],
    tap0: &[u32],
    tap1: &[u32],
    w0: &[f32],
    w1: &[f32],
    apod: &[f32],
) -> f32 {
    match mode() {
        SimdMode::Scalar => das_gather_reduce_scalar(flat, tap0, tap1, w0, w1, apod),
        SimdMode::Portable | SimdMode::Native => das_gather_reduce_body(flat, tap0, tap1, w0, w1, apod),
    }
}

/// Checks the layout every fractional-index gather relies on and returns the
/// channel count: `samples` holds whole channel-major traces of `stride`
/// samples, `stride − 2` is exact in `f32`, every sample offset fits the
/// `i32` lanes of a hardware gather, and `entries` covers whole pixels.
fn lerp_channels(samples: usize, stride: usize, entries: usize) -> usize {
    assert!((2..=(1 << 24) + 2).contains(&stride), "lerp gather: trace stride {stride} outside [2, 2^24 + 2]");
    assert!(
        samples >= stride && samples.is_multiple_of(stride) && samples <= i32::MAX as usize,
        "lerp gather: {samples} samples are not whole traces of {stride} within i32 offsets"
    );
    let channels = samples / stride;
    assert!(entries.is_multiple_of(channels), "lerp gather: {entries} entries are not whole pixels of {channels}");
    channels
}

/// Fractional-index gather with the peak folded in. `traces` holds
/// channel-major traces of `stride` samples (`traces[c·stride + k]`);
/// `idx` and `out` hold whole pixels, entry `c` of a pixel on channel `c`:
///
/// `out[e] = t[i0]·(1 − frac) + t[i0 + 1]·frac`
///
/// with `t` the trace of channel `e % channels`, `i0 = floor(idx[e])`
/// clamped to `[0, stride − 2]` (NaN to 0) and `frac = idx[e] − i0`. For an
/// index inside the clamp these are the `f32` operations of
/// `usdsp::interp::sample_at`, multiplies and add unfused; any other index
/// stays on its trace. Returns the peak, `|out[e]|` folded with `f32::max`
/// from `0.0`, so NaN entries are ignored; a max of non-negative values
/// does not depend on order. Every tier is therefore bitwise identical to
/// the scalar reference. The native x86-64 tier gathers eight entries with
/// two `_mm256_i32gather_ps`.
///
/// # Panics
///
/// Panics when `traces` is not whole traces of a `stride` in
/// `[2, 2^24 + 2]` within `i32` offsets, when `idx` is not whole pixels, or
/// when `out` and `idx` differ in length.
pub fn lerp_gather(traces: &[f32], stride: usize, idx: &[f32], out: &mut [f32]) -> f32 {
    lerp_channels(traces.len(), stride, idx.len());
    assert_eq!(out.len(), idx.len(), "lerp_gather: one output per entry");
    match mode() {
        SimdMode::Scalar => lerp_gather_scalar(traces, stride, idx, out),
        // SAFETY (both arms): `lerp_channels` checked the layout the bodies
        // index by, and `mode()` returns `Native` only where AVX2 was detected.
        #[cfg(target_arch = "x86_64")]
        SimdMode::Native => unsafe { native::lerp_gather(traces, stride, idx, out) },
        _ => unsafe { lerp_gather_lanes(traces, stride, idx, out) },
    }
}

/// [`lerp_gather`] of one pixel (`idx.len()` = channels), weighted by
/// `apod` and reduced in the module's lane order: equivalent to
/// materialising `apod[e] · out[e]` and calling [`reduce_lanes`].
///
/// # Panics
///
/// As [`lerp_gather`], and when `idx` or `apod` is not one pixel.
pub fn lerp_gather_reduce(traces: &[f32], stride: usize, idx: &[f32], apod: &[f32]) -> f32 {
    let channels = lerp_channels(traces.len(), stride, idx.len());
    assert!(idx.len() == channels && apod.len() == channels, "lerp_gather_reduce: one pixel of {channels} entries");
    match mode() {
        SimdMode::Scalar => lerp_gather_reduce_scalar(traces, stride, idx, apod),
        // SAFETY (both arms): `lerp_channels` and the assert above checked the
        // layout the bodies index by, and `mode()` returns `Native` only where
        // AVX2 was detected.
        #[cfg(target_arch = "x86_64")]
        SimdMode::Native => unsafe { native::lerp_gather_reduce(traces, stride, idx, apod) },
        _ => unsafe { lerp_gather_reduce_lanes(traces, stride, idx, apod) },
    }
}

/// [`lerp_gather`] over complex traces stored as interleaved `f32` pairs
/// (`traces[2k]`, `traces[2k + 1]` are the re/im of sample `k`; `stride`
/// counts complex samples), without the peak: both components of an entry
/// get the same taps and weights, the operations of
/// `usdsp::interp::sample_at_complex`. Writes `2 · idx.len()` floats. Every
/// tier runs this one element-wise loop.
///
/// # Panics
///
/// As [`lerp_gather`], with `out` twice as long as `idx`.
pub fn lerp_gather_complex(traces: &[f32], stride: usize, idx: &[f32], out: &mut [f32]) {
    let channels = lerp_channels(traces.len() / 2, stride, idx.len());
    assert_eq!(out.len(), 2 * idx.len(), "lerp_gather_complex: one complex output per entry");
    let top = (stride - 2) as f32;
    for (e, (o, &x)) in out.chunks_exact_mut(2).zip(idx).enumerate() {
        let (i0, w0, w1) = lerp_tap(x, top);
        let t = 2 * (e % channels * stride + i0);
        o[0] = traces[t] * w0 + traces[t + 2] * w1;
        o[1] = traces[t + 1] * w0 + traces[t + 3] * w1;
    }
}

/// Dual-MAC over a packed i16-pair panel: with `a_pairs[p] = pack(a0, a1)`
/// and `b_pairs[p * m + i] = pack(w0, w1)` (layout `a_pairs.len() ×
/// acc.len()`), adds `a0*w0 + a1*w1` into `acc[i]` for every `p`. The caller
/// must keep every i32 accumulator below `i32::MAX` in magnitude over the
/// entire panel. One body for every tier.
pub fn madd_block(acc: &mut [i32], a_pairs: &[i32], b_pairs: &[i32]) {
    let m = acc.len();
    debug_assert_eq!(b_pairs.len(), a_pairs.len() * m);
    for (p, &ap) in a_pairs.iter().enumerate() {
        let (a0, a1) = (ap as i16 as i32, (ap >> 16) as i16 as i32);
        for (o, &w) in acc.iter_mut().zip(&b_pairs[p * m..(p + 1) * m]) {
            *o += a0 * (w as i16 as i32) + a1 * ((w >> 16) as i16 as i32);
        }
    }
}

/// Fixed-point MAC over a whole row-major panel: accumulates
/// `a_row[p] * b[p][..]` into `acc` in exact 64-bit integer arithmetic for
/// every `p` (layout `a_row.len() × acc.len()`). One body for every tier.
pub fn i64_mac_row(acc: &mut [i64], a_row: &[i32], b: &[i32]) {
    let m = acc.len();
    debug_assert_eq!(b.len(), a_row.len() * m);
    for (p, &a) in a_row.iter().enumerate() {
        for (o, &v) in acc.iter_mut().zip(&b[p * m..(p + 1) * m]) {
            *o += a as i64 * v as i64;
        }
    }
}

/// Exact row-major matrix product of fixed-point codes held as integers in
/// `f64`, requantized onto the output grid:
///
/// `out[r·m + c] = rq.apply(bias[c] + Σ_p a[r·k + p] · w[p·m + c])`
///
/// for the `n = out.len() / m` output rows of the `n × k` activations `a` and
/// `k = w.len() / m` reduction steps; `bias` defaults to zero. The lane body
/// holds 4 × 8 output tiles in registers.
///
/// **Exactness.** The caller keeps every code an integer and
/// `|bias| + Σ_p |a·w| < 2^53`, so every product and partial sum is exact and
/// the tiers agree bit for bit whatever their order, fused or not. With
/// |code| ≤ 2^(bits−1), the Tiny-VBF dense sums `k·2^(a−1)·2^(w−1)` at 128
/// channels peak at 2^47 (fx24), 2^43 (fx20), 2^37 (fx16), 2^33 (w8a20) and
/// 2^29 (w8a16), plus a bias below 2^35: at least 32× headroom.
pub fn exact_matmul(a: &[f64], w: &[f64], m: usize, bias: Option<&[f64]>, rq: Requantize, out: &mut [f64]) {
    assert!(m > 0 && w.len().is_multiple_of(m) && out.len().is_multiple_of(m), "exact_matmul: shape mismatch");
    assert_eq!(a.len(), out.len() / m * (w.len() / m), "exact_matmul: `a` is not n × k");
    assert!(bias.is_none_or(|b| b.len() == m), "exact_matmul: bias length");
    match mode() {
        SimdMode::Scalar => exact_matmul_scalar(a, w, m, bias, rq, out),
        SimdMode::Portable | SimdMode::Native => exact_matmul_lanes(a, w, m, bias, rq, out),
    }
}

/// Quantize a float slice onto a fixed-point grid:
/// `out[i] = clamp(round(values[i] * inv_step))` with round half away from
/// zero, saturation to `[min_raw, max_raw]` and NaN mapping to code 0; the
/// codes are written as exact integers in `f64`, `+0.0` for zero.
/// `inv_step` must be the exact power of two `2^frac` of the target grid,
/// and the code range must fit `f32` exactly (`|code| ≤ 2^24`).
/// Element-wise with one rounding per element, `f32::round` on every tier
/// (exact in its vector lowering too, see `round_half_away`), so every tier
/// equals `FixedFormat::to_code`.
pub fn quantize_codes(values: &[f32], inv_step: f32, max_raw: i32, min_raw: i32, out: &mut [f64]) {
    assert!(max_raw <= 1 << 24 && min_raw >= -(1 << 24), "quantize_codes: the code range must fit f32 exactly");
    match mode() {
        SimdMode::Scalar => quantize_codes_scalar(values, inv_step, max_raw, min_raw, out),
        SimdMode::Portable | SimdMode::Native => quantize_codes_lanes(values, inv_step, max_raw, min_raw, out),
    }
}

/// Dequantize fixed-point codes back to floats: `out[i] = codes[i] as f32 *
/// step`. With `|code| < 2^24` and `step` a power of two both operations are
/// exact, so every tier runs this one element-wise loop.
pub fn codes_to_f32(codes: &[f64], step: f32, out: &mut [f32]) {
    debug_assert_eq!(codes.len(), out.len());
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = c as f32 * step;
    }
}

/// `values[i] = values[i].tanh()` through the platform libm — the float
/// boundary the integer datapath shares with the float one. Every tier runs
/// this one element-wise loop. On x86-64 hosts with AVX2 it first marks the
/// upper halves of the vector registers clean (`vzeroupper`): the libm is
/// SSE code, and right after the exact kernels' AVX lanes it otherwise ran
/// about 10× slower on an AVX-512 host, serialized on the dirty upper state.
pub fn tanh(values: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if native_available() {
        native::zero_upper();
    }
    for v in values {
        *v = v.tanh();
    }
}

/// `values[i] = exp(values[i])`, bit for bit glibc 2.36's `expf` (the FMA
/// build that x86-64 glibc selects on FMA hardware): 32-entry `2^(i/32)`
/// table, degree-3 polynomial in f64, one rounding to f32, and glibc's
/// special cases (−inf → 0, NaN → NaN, x > 88.72 → +inf, x < −103.97 → 0).
/// Its fused multiply-adds are explicit `f64::mul_add` steps, each rounded
/// once on every target, so every tier is bitwise identical to the scalar
/// reference by construction — and to `f32::exp` wherever libm is that
/// glibc.
///
/// The lane tiers compute the table-and-polynomial core on every lane and
/// blend the special results in by lane masks, so an input past ±88 costs
/// its block nothing.
pub fn exp(values: &mut [f32]) {
    match mode() {
        SimdMode::Scalar => exp_scalar(values),
        SimdMode::Portable | SimdMode::Native => exp_lanes(values),
    }
}

/// One softmax pass over a `[key][query lane]` block, in place:
/// `block[j][l] = exp(block[j][l] − max[l])`, the subtraction in `f32` and
/// [`exp`] bit for bit. Returns each lane's denominator, `Σ_j block[j][l]`
/// added in ascending `j` from `0.0`. Per element these are the operations
/// of a subtract pass, [`exp`] and a sum pass, so every tier is bitwise
/// identical to the scalar reference.
pub fn exp_shifted_sum(block: &mut [[f32; F32_LANES]], max: &[f32; F32_LANES]) -> [f32; F32_LANES] {
    match mode() {
        SimdMode::Scalar => exp_shifted_sum_scalar(block, max),
        SimdMode::Portable | SimdMode::Native => exp_shifted_sum_lanes(block, max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contributions(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.173).collect()
    }

    #[test]
    fn reduce_matches_scalar_reference_on_ragged_lengths() {
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 64, 129] {
            let vals = contributions(n);
            let reference = reduce_scalar(&vals);
            for m in available_modes() {
                force_mode(Some(m));
                assert_eq!(reduce_lanes(&vals).to_bits(), reference.to_bits(), "mode {:?} n {}", m, n);
            }
            force_mode(None);
        }
    }

    #[test]
    fn das_reduce_is_fused_reduce_of_contributions() {
        let n = 43;
        let flat: Vec<f32> = contributions(97);
        let tap0: Vec<u32> = (0..n).map(|i| (i * 13 % 97) as u32).collect();
        let tap1: Vec<u32> = (0..n).map(|i| (i * 29 % 97) as u32).collect();
        let w0: Vec<f32> = (0..n).map(|i| (i % 7) as f32 * 0.11).collect();
        let w1: Vec<f32> = (0..n).map(|i| 1.0 - (i % 7) as f32 * 0.11).collect();
        let apod: Vec<f32> = (0..n).map(|i| (i % 5) as f32 * 0.21).collect();
        let contrib: Vec<f32> = (0..n)
            .map(|e| apod[e] * (flat[tap0[e] as usize] * w0[e] + flat[tap1[e] as usize] * w1[e]))
            .collect();
        let reference = reduce_scalar(&contrib);
        for m in available_modes() {
            force_mode(Some(m));
            let fused = das_gather_reduce(&flat, &tap0, &tap1, &w0, &w1, &apod);
            assert_eq!(fused.to_bits(), reference.to_bits(), "mode {:?}", m);
        }
        force_mode(None);
    }

    #[test]
    fn madd_pairs_decomposes_packed_products_exactly() {
        let acc_init: Vec<i32> = (0..37).map(|i| i * 1000 - 18000).collect();
        let pairs: Vec<i32> = (0..37).map(|i| pack_i16_pair(i * 7 - 128, -i * 3 + 40)).collect();
        let a_pair = pack_i16_pair(-300, 522);
        let mut expect = acc_init.clone();
        for (o, &p) in expect.iter_mut().zip(&pairs) {
            let w0 = p as i16 as i32;
            let w1 = (p >> 16) as i16 as i32;
            *o += -300 * w0 + 522 * w1;
        }
        for m in available_modes() {
            force_mode(Some(m));
            let mut acc = acc_init.clone();
            madd_block(&mut acc, &[a_pair], &pairs);
            assert_eq!(acc, expect, "mode {:?}", m);
        }
        force_mode(None);
    }

    /// glibc's libm computes `exp2` of these 32 arguments correctly
    /// rounded, so it re-derives the hard-coded table.
    #[cfg(target_env = "gnu")]
    #[test]
    fn exp_table_holds_two_to_the_i_over_32() {
        for (i, &t) in EXP_TABLE.iter().enumerate() {
            let expect = f64::exp2(i as f64 / 32.0).to_bits().wrapping_sub((i as u64) << 47);
            assert_eq!(t, expect, "T[{i}]");
        }
    }

    #[test]
    fn mode_labels_round_trip() {
        for m in [SimdMode::Scalar, SimdMode::Portable, SimdMode::Native] {
            assert_eq!(parse_mode(m.label()), Ok(Some(m)));
            assert_eq!(parse_mode(&format!(" {} ", m.label().to_ascii_uppercase())), Ok(Some(m)));
        }
        assert_eq!(parse_mode(""), Ok(None));
        assert_eq!(parse_mode(" \t"), Ok(None));
        for typo in ["scaler", "avx2"] {
            let message = parse_mode(typo).unwrap_err();
            for word in [SIMD_ENV, typo, "scalar", "portable", "native"] {
                assert!(message.contains(word), "{message:?} names {word:?}");
            }
        }
    }
}

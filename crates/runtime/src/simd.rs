//! Portable SIMD kernels with runtime dispatch.
//!
//! Every hot inner loop in the workspace (planned DAS/ToF/MVDR gathers, the
//! register-tiled matmul, the softmax `exp`, and the exact fixed-point
//! datapath) funnels through this module. Three dispatch tiers exist:
//!
//! * **Scalar** — straightforward per-element loops. For reductions the
//!   scalar path is written in the *lane-order* defined below, and is the
//!   asserted bitwise reference for the other tiers.
//! * **Portable** — the same arithmetic restructured around fixed-width
//!   `[T; N]` lane blocks so LLVM can autovectorize it on any target.
//! * **Native** — the portable bodies recompiled under
//!   `#[target_feature(enable = "avx2")]` (x86-64) or `"neon"` (aarch64),
//!   selected by runtime CPU detection, plus hand-written intrinsics where
//!   autovectorization cannot reach (the i16 pair-madd kernel). The native
//!   wrappers deliberately do **not** enable FMA: fusing a multiply-add
//!   would change rounding and break bitwise identity with the reference.
//!   [`exp`] fuses on purpose: its multiply-adds are explicit `mul_add`
//!   steps of the scalar reference itself, rounded once on every tier.
//!   [`exact_matmul`] fuses where the build targets FMA: its products and
//!   sums are exact integers, so fused and unfused give the same bits.
//!
//! The active tier is picked once from the [`SIMD_ENV`] environment variable
//! (`scalar`, `portable` or `native`) falling back to auto-detection, and can
//! be overridden in-process with [`force_mode`] (used by equivalence tests to
//! sweep tiers). Because every tier is bitwise identical, concurrent tests
//! observing a forced mode mid-sweep still compute identical results.
//!
//! # Lane-order reduction contract
//!
//! Reducing kernels ([`reduce_lanes`], [`das_gather_reduce`]) accumulate
//! element `e` into lane `e % 8`, tree-reduce the eight lanes as
//! `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, then fold the ragged tail in
//! element order. All tiers implement exactly this order, which is why their
//! floating-point results are bit-for-bit equal.
//!
//! # Adding a kernel
//!
//! 1. Write the scalar body (the reference) and, if it reduces, make it use
//!    the lane order above.
//! 2. Write the portable body over `[T; N]` chunks with the identical
//!    per-element / per-lane arithmetic order.
//! 3. Add a `#[target_feature]` wrapper in the `native` module (usually just
//!    calling the portable body; intrinsics only when required — and never
//!    FMA or reassociating ones, unless every operation is exact, as in
//!    [`exact_matmul`]).
//! 4. Dispatch through [`mode`] and extend the proptest suite in
//!    `tests/simd_equivalence.rs` with the new kernel.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Environment variable selecting the dispatch tier: `scalar`, `portable` or
/// `native`. Unset or unrecognised values auto-detect (native when the CPU
/// supports it, portable otherwise).
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
    /// `#[target_feature]` specializations behind runtime CPU detection.
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

/// 0 = no override, 1 = scalar, 2 = portable, 3 = native.
static FORCED: AtomicU8 = AtomicU8::new(0);
static DEFAULT: OnceLock<SimdMode> = OnceLock::new();

/// Whether this CPU supports the native tier (AVX2 on x86-64, NEON on
/// aarch64). Other architectures report `false` and fall back to portable.
pub fn native_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(target_arch = "aarch64")]
    {
        true // NEON is baseline for the aarch64 targets we build.
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

fn detect() -> SimdMode {
    let requested = std::env::var(SIMD_ENV).unwrap_or_default();
    let mode = match requested.to_ascii_lowercase().as_str() {
        "scalar" => SimdMode::Scalar,
        "portable" => SimdMode::Portable,
        "native" => SimdMode::Native,
        _ => {
            if native_available() {
                SimdMode::Native
            } else {
                SimdMode::Portable
            }
        }
    };
    clamp_to_available(mode)
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
/// Guaranteed never to return [`SimdMode::Native`] on a CPU without the
/// required features.
pub fn mode() -> SimdMode {
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdMode::Scalar,
        2 => SimdMode::Portable,
        3 => SimdMode::Native,
        _ => *DEFAULT.get_or_init(detect),
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

// ---------------------------------------------------------------------------
// f32 kernels: portable lane bodies (identical arithmetic order)
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

// ---------------------------------------------------------------------------
// Integer kernels (exact arithmetic — every tier is trivially identical, the
// native tier just executes more of it per instruction). `perfbench` times
// `madd_block` and `i64_mac_row`; the integer datapath runs `exact_matmul`.
// ---------------------------------------------------------------------------

#[inline(always)]
fn i64_axpy_body(acc: &mut [i64], a: i32, x: &[i32]) {
    debug_assert_eq!(acc.len(), x.len());
    let a = a as i64;
    for (o, &v) in acc.iter_mut().zip(x) {
        *o += a * v as i64;
    }
}

#[inline(always)]
fn madd_pairs_body(acc: &mut [i32], a_pair: i32, pairs: &[i32]) {
    debug_assert_eq!(acc.len(), pairs.len());
    let a0 = a_pair as i16 as i32;
    let a1 = (a_pair >> 16) as i16 as i32;
    for (o, &p) in acc.iter_mut().zip(pairs) {
        let w0 = p as i16 as i32;
        let w1 = (p >> 16) as i16 as i32;
        *o += a0 * w0 + a1 * w1;
    }
}

#[inline(always)]
fn madd_block_body(acc: &mut [i32], a_pairs: &[i32], b_pairs: &[i32]) {
    let m = acc.len();
    debug_assert_eq!(b_pairs.len(), a_pairs.len() * m);
    for (p, &ap) in a_pairs.iter().enumerate() {
        madd_pairs_body(acc, ap, &b_pairs[p * m..(p + 1) * m]);
    }
}

#[inline(always)]
fn i64_mac_row_body(acc: &mut [i64], a_row: &[i32], b: &[i32]) {
    let m = acc.len();
    debug_assert_eq!(b.len(), a_row.len() * m);
    for (p, &a) in a_row.iter().enumerate() {
        i64_axpy_body(acc, a, &b[p * m..(p + 1) * m]);
    }
}

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
fn exact_dot(a: &[f64], [rs, cs]: [usize; 2], w: &[f64], m: usize, bias: Option<&[f64]>, r: usize, c: usize) -> f64 {
    let mut acc = bias.map_or(0.0, |b| b[c]);
    for p in 0..w.len() / m {
        acc += a[r * rs + p * cs] * w[p * m + c];
    }
    acc
}

/// Scalar reference for [`exact_matmul`]: one [`exact_dot`] per output.
fn exact_matmul_scalar(
    a: &[f64],
    strides: [usize; 2],
    w: &[f64],
    m: usize,
    bias: Option<&[f64]>,
    rq: Requantize,
    out: &mut [f64],
) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = rq.apply(exact_dot(a, strides, w, m, bias, i / m, i % m));
    }
}

/// One `R × TILE_COLS` tile of output rows `r0..` and columns `c0..`, its
/// accumulators held in registers across the whole reduction.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exact_tile<const R: usize>(
    a: &[f64],
    [rs, cs]: [usize; 2],
    w: &[f64],
    m: usize,
    init: [f64; TILE_COLS],
    rq: Requantize,
    (r0, c0): (usize, usize),
    out: &mut [f64],
) {
    let mut acc = [init; R];
    for (p, w_row) in w.chunks_exact(m).enumerate() {
        let w_row: &[f64; TILE_COLS] = w_row[c0..c0 + TILE_COLS].try_into().unwrap();
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let x = a[(r0 + i) * rs + p * cs];
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
fn exact_matmul_lanes(
    a: &[f64],
    strides: [usize; 2],
    w: &[f64],
    m: usize,
    bias: Option<&[f64]>,
    rq: Requantize,
    out: &mut [f64],
) {
    let n = out.len() / m;
    let mut c0 = 0;
    while c0 + TILE_COLS <= m {
        let init = bias.map_or([0.0; TILE_COLS], |b| b[c0..c0 + TILE_COLS].try_into().unwrap());
        let mut r0 = 0;
        while r0 + TILE_ROWS <= n {
            exact_tile::<TILE_ROWS>(a, strides, w, m, init, rq, (r0, c0), out);
            r0 += TILE_ROWS;
        }
        for r in r0..n {
            exact_tile::<1>(a, strides, w, m, init, rq, (r, c0), out);
        }
        c0 += TILE_COLS;
    }
    for r in 0..n {
        for c in c0..m {
            out[r * m + c] = rq.apply(exact_dot(a, strides, w, m, bias, r, c));
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
// Native tier
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod native {
    use super::*;

    // SAFETY (all wrappers): dispatch reaches this module only when `mode()`
    // returned `Native`, which `clamp_to_available` guarantees implies AVX2
    // was detected at runtime. `avx2` deliberately does not imply `fma`, so
    // no multiply-add can be fused and every body stays bitwise identical to
    // its scalar reference.

    #[target_feature(enable = "avx2")]
    unsafe fn scale_avx2(values: &mut [f32], factor: f32) {
        scale_lanes(values, factor)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn reduce_avx2(values: &[f32]) -> f32 {
        reduce_lanes_body(values)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gather_two_tap_avx2(
        flat: &[f32],
        tap0: &[u32],
        tap1: &[u32],
        w0: &[f32],
        w1: &[f32],
        out: &mut [f32],
    ) {
        gather_two_tap_lanes(flat, tap0, tap1, w0, w1, out)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn das_gather_reduce_avx2(
        flat: &[f32],
        tap0: &[u32],
        tap1: &[u32],
        w0: &[f32],
        w1: &[f32],
        apod: &[f32],
    ) -> f32 {
        das_gather_reduce_body(flat, tap0, tap1, w0, w1, apod)
    }

    /// 16 integer MACs per instruction via `_mm256_madd_epi16`. Exact: the
    /// caller bounds `2 * |a| * |w|` per lane below `i32::MAX`, which also
    /// excludes the lone wrapping case of `madd` (both products equal to
    /// `(-32768)^2`).
    #[target_feature(enable = "avx2")]
    unsafe fn madd_pairs_avx2(acc: &mut [i32], a_pair: i32, pairs: &[i32]) {
        use std::arch::x86_64::*;
        debug_assert_eq!(acc.len(), pairs.len());
        let av = _mm256_set1_epi32(a_pair);
        let n = acc.len();
        let blocks = n / 8;
        for b in 0..blocks {
            let i = b * 8;
            // SAFETY: i + 8 <= n for both slices; loads/stores are unaligned.
            let p = _mm256_loadu_si256(pairs.as_ptr().add(i) as *const __m256i);
            let o = _mm256_loadu_si256(acc.as_ptr().add(i) as *const __m256i);
            let r = _mm256_add_epi32(o, _mm256_madd_epi16(p, av));
            _mm256_storeu_si256(acc.as_mut_ptr().add(i) as *mut __m256i, r);
        }
        // Half-width tail: narrow panels (e.g. head_dim-wide attention
        // outputs) would otherwise fall through to the scalar loop entirely.
        let mut i = blocks * 8;
        if n - i >= 4 {
            // SAFETY: i + 4 <= n for both slices.
            let p = _mm_loadu_si128(pairs.as_ptr().add(i) as *const __m128i);
            let o = _mm_loadu_si128(acc.as_ptr().add(i) as *const __m128i);
            let r = _mm_add_epi32(o, _mm_madd_epi16(p, _mm256_castsi256_si128(av)));
            _mm_storeu_si128(acc.as_mut_ptr().add(i) as *mut __m128i, r);
            i += 4;
        }
        madd_pairs_body(&mut acc[i..], a_pair, &pairs[i..]);
    }

    /// Branch-free [`quantize_codes`]: LLVM vectorizes the lane body's
    /// `trunc` and selects under AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_codes_avx2(values: &[f32], inv_step: f32, max_raw: i32, min_raw: i32, out: &mut [f64]) {
        quantize_codes_lanes(values, inv_step, max_raw, min_raw, out)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn exact_matmul_avx2(
        a: &[f64],
        strides: [usize; 2],
        w: &[f64],
        m: usize,
        bias: Option<&[f64]>,
        rq: Requantize,
        out: &mut [f64],
    ) {
        exact_matmul_lanes(a, strides, w, m, bias, rq, out)
    }

    /// Whole-block madd: one dispatch for an entire packed weight panel.
    /// Same-feature calls inline, so the inner intrinsic loop fuses.
    #[target_feature(enable = "avx2")]
    unsafe fn madd_block_avx2(acc: &mut [i32], a_pairs: &[i32], b_pairs: &[i32]) {
        let m = acc.len();
        debug_assert_eq!(b_pairs.len(), a_pairs.len() * m);
        for (p, &ap) in a_pairs.iter().enumerate() {
            madd_pairs_avx2(acc, ap, &b_pairs[p * m..(p + 1) * m]);
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn i64_mac_row_avx2(acc: &mut [i64], a_row: &[i32], b: &[i32]) {
        i64_mac_row_body(acc, a_row, b)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn exp_avx2(values: &mut [f32]) {
        exp_lanes(values)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn exp_shifted_sum_avx2(block: &mut [[f32; F32_LANES]], max: &[f32; F32_LANES]) -> [f32; F32_LANES] {
        exp_shifted_sum_lanes(block, max)
    }

    /// `vzeroupper`: marks the upper halves of the vector registers clean.
    #[target_feature(enable = "avx")]
    unsafe fn zero_upper_avx() {
        std::arch::x86_64::_mm256_zeroupper()
    }

    pub fn zero_upper() {
        debug_assert!(native_available());
        unsafe { zero_upper_avx() }
    }

    pub fn scale(values: &mut [f32], factor: f32) {
        debug_assert!(native_available());
        unsafe { scale_avx2(values, factor) }
    }
    pub fn reduce(values: &[f32]) -> f32 {
        debug_assert!(native_available());
        unsafe { reduce_avx2(values) }
    }
    pub fn gather_two_tap(flat: &[f32], tap0: &[u32], tap1: &[u32], w0: &[f32], w1: &[f32], out: &mut [f32]) {
        debug_assert!(native_available());
        unsafe { gather_two_tap_avx2(flat, tap0, tap1, w0, w1, out) }
    }
    pub fn das_gather_reduce(
        flat: &[f32],
        tap0: &[u32],
        tap1: &[u32],
        w0: &[f32],
        w1: &[f32],
        apod: &[f32],
    ) -> f32 {
        debug_assert!(native_available());
        unsafe { das_gather_reduce_avx2(flat, tap0, tap1, w0, w1, apod) }
    }
    pub fn madd_block(acc: &mut [i32], a_pairs: &[i32], b_pairs: &[i32]) {
        debug_assert!(native_available());
        unsafe { madd_block_avx2(acc, a_pairs, b_pairs) }
    }
    pub fn i64_mac_row(acc: &mut [i64], a_row: &[i32], b: &[i32]) {
        debug_assert!(native_available());
        unsafe { i64_mac_row_avx2(acc, a_row, b) }
    }
    pub fn quantize_codes(values: &[f32], inv_step: f32, max_raw: i32, min_raw: i32, out: &mut [f64]) {
        debug_assert!(native_available());
        unsafe { quantize_codes_avx2(values, inv_step, max_raw, min_raw, out) }
    }
    pub fn exact_matmul(
        a: &[f64],
        strides: [usize; 2],
        w: &[f64],
        m: usize,
        bias: Option<&[f64]>,
        rq: Requantize,
        out: &mut [f64],
    ) {
        debug_assert!(native_available());
        unsafe { exact_matmul_avx2(a, strides, w, m, bias, rq, out) }
    }
    pub fn exp(values: &mut [f32]) {
        debug_assert!(native_available());
        unsafe { exp_avx2(values) }
    }
    pub fn exp_shifted_sum(block: &mut [[f32; F32_LANES]], max: &[f32; F32_LANES]) -> [f32; F32_LANES] {
        debug_assert!(native_available());
        unsafe { exp_shifted_sum_avx2(block, max) }
    }
}

#[cfg(target_arch = "aarch64")]
mod native {
    use super::*;

    // SAFETY (all wrappers): `native_available()` is unconditionally true on
    // aarch64 (NEON is baseline), and `#[target_feature(enable = "neon")]`
    // only re-enables what the target already guarantees — no rounding
    // behaviour changes, so bitwise identity with the reference holds.

    pub fn scale(values: &mut [f32], factor: f32) {
        #[target_feature(enable = "neon")]
        unsafe fn go(values: &mut [f32], factor: f32) {
            scale_lanes(values, factor)
        }
        unsafe { go(values, factor) }
    }
    pub fn reduce(values: &[f32]) -> f32 {
        #[target_feature(enable = "neon")]
        unsafe fn go(values: &[f32]) -> f32 {
            reduce_lanes_body(values)
        }
        unsafe { go(values) }
    }
    pub fn gather_two_tap(flat: &[f32], tap0: &[u32], tap1: &[u32], w0: &[f32], w1: &[f32], out: &mut [f32]) {
        #[target_feature(enable = "neon")]
        unsafe fn go(flat: &[f32], tap0: &[u32], tap1: &[u32], w0: &[f32], w1: &[f32], out: &mut [f32]) {
            gather_two_tap_lanes(flat, tap0, tap1, w0, w1, out)
        }
        unsafe { go(flat, tap0, tap1, w0, w1, out) }
    }
    pub fn das_gather_reduce(
        flat: &[f32],
        tap0: &[u32],
        tap1: &[u32],
        w0: &[f32],
        w1: &[f32],
        apod: &[f32],
    ) -> f32 {
        #[target_feature(enable = "neon")]
        unsafe fn go(flat: &[f32], tap0: &[u32], tap1: &[u32], w0: &[f32], w1: &[f32], apod: &[f32]) -> f32 {
            das_gather_reduce_body(flat, tap0, tap1, w0, w1, apod)
        }
        unsafe { go(flat, tap0, tap1, w0, w1, apod) }
    }
    pub fn madd_block(acc: &mut [i32], a_pairs: &[i32], b_pairs: &[i32]) {
        #[target_feature(enable = "neon")]
        unsafe fn go(acc: &mut [i32], a_pairs: &[i32], b_pairs: &[i32]) {
            madd_block_body(acc, a_pairs, b_pairs)
        }
        unsafe { go(acc, a_pairs, b_pairs) }
    }
    pub fn i64_mac_row(acc: &mut [i64], a_row: &[i32], b: &[i32]) {
        #[target_feature(enable = "neon")]
        unsafe fn go(acc: &mut [i64], a_row: &[i32], b: &[i32]) {
            i64_mac_row_body(acc, a_row, b)
        }
        unsafe { go(acc, a_row, b) }
    }
    pub fn quantize_codes(values: &[f32], inv_step: f32, max_raw: i32, min_raw: i32, out: &mut [f64]) {
        #[target_feature(enable = "neon")]
        unsafe fn go(values: &[f32], inv_step: f32, max_raw: i32, min_raw: i32, out: &mut [f64]) {
            quantize_codes_lanes(values, inv_step, max_raw, min_raw, out)
        }
        unsafe { go(values, inv_step, max_raw, min_raw, out) }
    }
    pub fn exact_matmul(
        a: &[f64],
        strides: [usize; 2],
        w: &[f64],
        m: usize,
        bias: Option<&[f64]>,
        rq: Requantize,
        out: &mut [f64],
    ) {
        #[target_feature(enable = "neon")]
        unsafe fn go(
            a: &[f64],
            strides: [usize; 2],
            w: &[f64],
            m: usize,
            bias: Option<&[f64]>,
            rq: Requantize,
            out: &mut [f64],
        ) {
            exact_matmul_lanes(a, strides, w, m, bias, rq, out)
        }
        unsafe { go(a, strides, w, m, bias, rq, out) }
    }
    pub fn exp(values: &mut [f32]) {
        #[target_feature(enable = "neon")]
        unsafe fn go(values: &mut [f32]) {
            exp_lanes(values)
        }
        unsafe { go(values) }
    }
    pub fn exp_shifted_sum(block: &mut [[f32; F32_LANES]], max: &[f32; F32_LANES]) -> [f32; F32_LANES] {
        #[target_feature(enable = "neon")]
        unsafe fn go(block: &mut [[f32; F32_LANES]], max: &[f32; F32_LANES]) -> [f32; F32_LANES] {
            exp_shifted_sum_lanes(block, max)
        }
        unsafe { go(block, max) }
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod native {
    // `native_available()` is false here, so these aliases are unreachable
    // through `mode()`; they exist only to keep dispatch uniform.
    use super::*;

    pub fn scale(values: &mut [f32], factor: f32) {
        scale_lanes(values, factor)
    }
    pub fn reduce(values: &[f32]) -> f32 {
        reduce_lanes_body(values)
    }
    pub fn gather_two_tap(flat: &[f32], tap0: &[u32], tap1: &[u32], w0: &[f32], w1: &[f32], out: &mut [f32]) {
        gather_two_tap_lanes(flat, tap0, tap1, w0, w1, out)
    }
    pub fn das_gather_reduce(
        flat: &[f32],
        tap0: &[u32],
        tap1: &[u32],
        w0: &[f32],
        w1: &[f32],
        apod: &[f32],
    ) -> f32 {
        das_gather_reduce_body(flat, tap0, tap1, w0, w1, apod)
    }
    pub fn madd_block(acc: &mut [i32], a_pairs: &[i32], b_pairs: &[i32]) {
        madd_block_body(acc, a_pairs, b_pairs)
    }
    pub fn i64_mac_row(acc: &mut [i64], a_row: &[i32], b: &[i32]) {
        i64_mac_row_body(acc, a_row, b)
    }
    pub fn quantize_codes(values: &[f32], inv_step: f32, max_raw: i32, min_raw: i32, out: &mut [f64]) {
        quantize_codes_lanes(values, inv_step, max_raw, min_raw, out)
    }
    pub fn exact_matmul(
        a: &[f64],
        strides: [usize; 2],
        w: &[f64],
        m: usize,
        bias: Option<&[f64]>,
        rq: Requantize,
        out: &mut [f64],
    ) {
        exact_matmul_lanes(a, strides, w, m, bias, rq, out)
    }
    pub fn exp(values: &mut [f32]) {
        exp_lanes(values)
    }
    pub fn exp_shifted_sum(block: &mut [[f32; F32_LANES]], max: &[f32; F32_LANES]) -> [f32; F32_LANES] {
        exp_shifted_sum_lanes(block, max)
    }
}

// ---------------------------------------------------------------------------
// Dispatched public kernels
// ---------------------------------------------------------------------------

/// `values[i] *= factor`. Element-wise, so every tier is bitwise identical.
pub fn scale(values: &mut [f32], factor: f32) {
    match mode() {
        SimdMode::Scalar => scale_scalar(values, factor),
        SimdMode::Portable => scale_lanes(values, factor),
        SimdMode::Native => native::scale(values, factor),
    }
}

/// Sum a slice in the module's lane-order reduction (see the module docs).
/// The scalar tier is the reference; all tiers match it bit-for-bit.
pub fn reduce_lanes(values: &[f32]) -> f32 {
    match mode() {
        SimdMode::Scalar => reduce_scalar(values),
        SimdMode::Portable => reduce_lanes_body(values),
        SimdMode::Native => native::reduce(values),
    }
}

/// Two-tap interpolating gather: `out[j] = flat[tap0[j]]*w0[j] +
/// flat[tap1[j]]*w1[j]`. Element-wise, bitwise identical across tiers.
pub fn gather_two_tap(flat: &[f32], tap0: &[u32], tap1: &[u32], w0: &[f32], w1: &[f32], out: &mut [f32]) {
    match mode() {
        SimdMode::Scalar => gather_two_tap_scalar(flat, tap0, tap1, w0, w1, out),
        SimdMode::Portable => gather_two_tap_lanes(flat, tap0, tap1, w0, w1, out),
        SimdMode::Native => native::gather_two_tap(flat, tap0, tap1, w0, w1, out),
    }
}

/// Two-tap gather over interleaved complex data (`flat[2t]`, `flat[2t+1]` are
/// the re/im of element `t`); writes `2 * tap0.len()` floats. Every tier runs
/// this one element-wise loop.
pub fn gather_two_tap_interleaved(
    flat: &[f32],
    tap0: &[u32],
    tap1: &[u32],
    w0: &[f32],
    w1: &[f32],
    out: &mut [f32],
) {
    debug_assert!(tap1.len() == tap0.len() && w0.len() == tap0.len() && w1.len() == tap0.len());
    debug_assert_eq!(out.len(), 2 * tap0.len());
    for j in 0..tap0.len() {
        let t0 = 2 * tap0[j] as usize;
        let t1 = 2 * tap1[j] as usize;
        out[2 * j] = flat[t0] * w0[j] + flat[t1] * w1[j];
        out[2 * j + 1] = flat[t0 + 1] * w0[j] + flat[t1 + 1] * w1[j];
    }
}

/// Fused planned-DAS kernel: gathers both taps, applies apodization and
/// reduces in the module's lane order. Equivalent to materialising
/// `apod[e] * (flat[tap0[e]]*w0[e] + flat[tap1[e]]*w1[e])` and calling
/// [`reduce_lanes`], without the intermediate buffer.
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
        SimdMode::Portable => das_gather_reduce_body(flat, tap0, tap1, w0, w1, apod),
        SimdMode::Native => native::das_gather_reduce(flat, tap0, tap1, w0, w1, apod),
    }
}

/// Dual-MAC over a packed i16-pair panel in one dispatch: with
/// `a_pairs[p] = pack(a0, a1)` and `b_pairs[p * m + i] = pack(w0, w1)` (layout
/// `a_pairs.len() × acc.len()`), adds `a0*w0 + a1*w1` into `acc[i]` for every
/// `p`. The native tier maps each row to `_mm256_madd_epi16` (16 MACs per
/// instruction); the caller must keep every i32 accumulator below
/// `i32::MAX` in magnitude over the entire panel. Exact across tiers.
pub fn madd_block(acc: &mut [i32], a_pairs: &[i32], b_pairs: &[i32]) {
    match mode() {
        SimdMode::Scalar | SimdMode::Portable => madd_block_body(acc, a_pairs, b_pairs),
        SimdMode::Native => native::madd_block(acc, a_pairs, b_pairs),
    }
}

/// Fixed-point MAC over a whole row-major panel in one dispatch: accumulates
/// `a_row[p] * b[p][..]` into `acc` in exact 64-bit integer arithmetic for
/// every `p` (layout `a_row.len() × acc.len()`). Exact across tiers.
pub fn i64_mac_row(acc: &mut [i64], a_row: &[i32], b: &[i32]) {
    match mode() {
        SimdMode::Scalar | SimdMode::Portable => i64_mac_row_body(acc, a_row, b),
        SimdMode::Native => native::i64_mac_row(acc, a_row, b),
    }
}

/// Exact matrix product of fixed-point codes held as integers in `f64`,
/// requantized onto the output grid:
///
/// `out[r·m + c] = rq.apply(bias[c] + Σ_p a[r·strides[0] + p·strides[1]] · w[p·m + c])`
///
/// for the `n = out.len() / m` output rows and `k = w.len() / m` reduction
/// steps; `bias` defaults to zero. The strides let one kernel take row-major
/// activations (`[k, 1]`), key rows of a fused q/k/v matrix, or value columns
/// read in place (`[1, stride]`). The portable and native tiers hold 4 × 8
/// output tiles in registers.
///
/// **Exactness.** The caller keeps every code an integer and
/// `|bias| + Σ_p |a·w| < 2^53`, so every product and partial sum is exact and
/// the tiers agree bit for bit whatever their order, fused or not. With
/// |code| ≤ 2^(bits−1) and softmax probability codes ≤ 2^soft_frac, the
/// Tiny-VBF sums at 128 channels, 128 tokens and `head_dim` 4 peak at:
///
/// | Scheme | dense `k·2^(a−1)·2^(w−1)` | scores `head_dim·2^(2a−2)` | A·V `tokens·2^soft_frac·2^(a−1)` |
/// |--------|------|------|------|
/// | fx24   | 2^47 | 2^48 | 2^48 |
/// | fx20   | 2^43 | 2^40 | 2^40 |
/// | fx16   | 2^37 | 2^32 | 2^32 |
/// | w8a20  | 2^33 | 2^40 | 2^46 |
/// | w8a16  | 2^29 | 2^32 | 2^42 |
///
/// plus a dense bias below 2^35: at least 32× headroom on every stage.
pub fn exact_matmul(
    a: &[f64],
    strides: [usize; 2],
    w: &[f64],
    m: usize,
    bias: Option<&[f64]>,
    rq: Requantize,
    out: &mut [f64],
) {
    assert!(m > 0 && w.len().is_multiple_of(m) && out.len().is_multiple_of(m), "exact_matmul: shape mismatch");
    let (n, k) = (out.len() / m, w.len() / m);
    if n > 0 && k > 0 {
        assert!((n - 1) * strides[0] + (k - 1) * strides[1] < a.len(), "exact_matmul: `a` too short");
    }
    assert!(bias.is_none_or(|b| b.len() == m), "exact_matmul: bias length");
    match mode() {
        SimdMode::Scalar => exact_matmul_scalar(a, strides, w, m, bias, rq, out),
        SimdMode::Portable => exact_matmul_lanes(a, strides, w, m, bias, rq, out),
        SimdMode::Native => native::exact_matmul(a, strides, w, m, bias, rq, out),
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
        SimdMode::Portable => quantize_codes_lanes(values, inv_step, max_raw, min_raw, out),
        SimdMode::Native => native::quantize_codes(values, inv_step, max_raw, min_raw, out),
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
        SimdMode::Portable => exp_lanes(values),
        SimdMode::Native => native::exp(values),
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
        SimdMode::Portable => exp_shifted_sum_lanes(block, max),
        SimdMode::Native => native::exp_shifted_sum(block, max),
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
            assert!(["scalar", "portable", "native"].contains(&m.label()));
        }
    }
}

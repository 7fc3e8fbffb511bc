//! Real integer kernels for fixed-point Tiny-VBF inference.
//!
//! [`crate::quantized`] historically *simulated* fixed point: every value
//! stayed `f32` and was rounded onto its grid after each op, which made a
//! quantized rung cost **more** than float. This module is the shipped
//! datapath instead: activations live as `i32` codes on the scheme's
//! mac/intermediate grid, weights are pre-converted to integer codes (and,
//! when they fit `i16`, pre-packed into the pair layout of
//! `runtime::simd::madd_block`), and every dense layer runs an **exact**
//! integer matrix multiply:
//!
//! * products accumulate in `i64` (or chunked `i32` via the 16-lane i16 madd
//!   kernel when the runtime magnitudes allow it — the chunk bound
//!   `2 · pairs · max|a| · max|w| ≤ i32::MAX` guarantees the i32 tile cannot
//!   overflow, and the tile spills into `i64` between chunks),
//! * the bias is pre-shifted onto the product grid exactly,
//! * one round-half-away-from-zero shift + saturate
//!   ([`FixedFormat::requantize_i64`]) lands the result back on the
//!   activation grid — the integer equivalent of the old `q_mac`.
//!
//! Nonlinear boundaries (layer norm, softmax, tanh) convert codes to `f32`
//! (exact: every code of a ≤24-bit format fits the f32 mantissa), run the
//! float op, and round back onto the destination grid — exactly where an
//! FPGA datapath would place its lookup/normalization units. ReLU and the
//! residual adds stay integer (`max(code, 0)` and saturating code addition).
//! The attention score scale (`1/sqrt(head_dim)`, irrational) requantizes
//! through `f64`, which represents every ≤2^53 accumulator exactly, so the
//! result is deterministic on every platform.
//!
//! Everything here is pure integer (or exact-float) arithmetic, so outputs
//! are bitwise identical across thread counts and `runtime::simd` dispatch
//! tiers by construction.

use crate::model::TinyVbfWeights;
use neural::activation::softmax_rows;
use neural::tensor::Tensor;
use quantize::{FixedFormat, QuantScheme, TensorRole};
use runtime::simd;

/// A row-major matrix of fixed-point codes on some [`FixedFormat`] grid.
#[derive(Debug, Clone)]
pub(crate) struct IntTensor {
    codes: Vec<i32>,
    rows: usize,
    cols: usize,
}

impl IntTensor {
    fn zeros(rows: usize, cols: usize) -> Self {
        Self { codes: vec![0; rows * cols], rows, cols }
    }

    /// Quantizes an `f32` tensor onto `fmt` (round-to-nearest, saturating) —
    /// the integer form of `quantize_for_role`. Bitwise identical to
    /// [`FixedFormat::to_code`] per element: the step is a power of two, so
    /// dividing by `resolution()` and multiplying by its exact reciprocal are
    /// the same correctly-rounded operation, and `simd::quantize_codes`
    /// asserts identity with that scalar form across its dispatch tiers.
    fn from_f32(t: &Tensor, fmt: FixedFormat) -> Self {
        Self::from_slice(t.as_slice(), t.rows(), fmt)
    }

    /// [`IntTensor::from_f32`] of a row-major `rows × (len / rows)` slice.
    fn from_slice(values: &[f32], rows: usize, fmt: FixedFormat) -> Self {
        let mut codes = vec![0i32; values.len()];
        simd::quantize_codes(values, 1.0 / fmt.resolution(), fmt.max_raw() as i32, fmt.min_raw() as i32, &mut codes);
        Self { codes, rows, cols: values.len() / rows }
    }

    /// The exact `f32` values of the codes (every code of a ≤24-bit format is
    /// exactly representable). One multiply per element by the hoisted step.
    fn to_f32(&self, fmt: FixedFormat) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows, self.cols]);
        simd::codes_to_f32(&self.codes, fmt.resolution(), out.as_mut_slice());
        out
    }

    fn slice_cols(&self, start: usize, width: usize) -> Self {
        let mut out = Self::zeros(self.rows, width);
        for r in 0..self.rows {
            let src = &self.codes[r * self.cols + start..r * self.cols + start + width];
            out.codes[r * width..(r + 1) * width].copy_from_slice(src);
        }
        out
    }

    fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.codes[c * self.rows + r] = self.codes[r * self.cols + c];
            }
        }
        out
    }

    fn set_cols(&mut self, start: usize, src: &Self) {
        debug_assert_eq!(self.rows, src.rows);
        for r in 0..self.rows {
            let dst = &mut self.codes[r * self.cols + start..r * self.cols + start + src.cols];
            dst.copy_from_slice(&src.codes[r * src.cols..(r + 1) * src.cols]);
        }
    }

    fn relu(mut self) -> Self {
        for c in self.codes.iter_mut() {
            *c = (*c).max(0);
        }
        self
    }
}

fn max_abs(codes: &[i32]) -> u32 {
    codes.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0)
}

/// Packs a `k × m` code matrix into the `(k+1)/2 × m` i16-pair panel the madd
/// kernel consumes. Caller guarantees every |code| < 32768.
fn pack_pairs(codes: &[i32], k: usize, m: usize) -> Vec<i32> {
    let np = k.div_ceil(2);
    let mut pairs = vec![0i32; np * m];
    for p in 0..np {
        for j in 0..m {
            let lo = codes[(2 * p) * m + j];
            let hi = if 2 * p + 1 < k { codes[(2 * p + 1) * m + j] } else { 0 };
            pairs[p * m + j] = simd::pack_i16_pair(lo, hi);
        }
    }
    pairs
}

/// Exact integer matmul: `a` is `n × k`, `b` is `k × m`, both as codes; the
/// result is the exact `i64` product-sum matrix (on the *product* grid — the
/// caller requantizes). Picks the i16-madd fast path when the runtime
/// magnitudes fit, with chunking so the i32 tile provably cannot overflow.
fn int_matmul(a: &[i32], n: usize, k: usize, b: &[i32], m: usize, b_max: u32, b_pairs: Option<&[i32]>) -> Vec<i64> {
    let mut acc = vec![0i64; n * m];
    if k == 0 || m == 0 {
        return acc;
    }
    let a_max = max_abs(a);
    let prod = a_max as i64 * b_max as i64;
    // One madd step adds two products to a lane, so `chunk` pair-rows add at
    // most `2 * chunk * prod` — keep that under i32::MAX. This bound also
    // excludes the lone wrapping case of the AVX2 madd (both products equal
    // to (-32768)^2), since max|a| = 32768 already fails `< 32768`.
    let chunk = if prod > 0 { (i32::MAX as i64 / (2 * prod)) as usize } else { usize::MAX };
    let np = k.div_ceil(2);
    // Narrow outputs (attention heads, the model_dim-wide encoder): the
    // panel kernel would round-trip its tiny accumulator tile through memory
    // on every pair-row, so run register-resident dot products against the
    // transposed pair layout instead. `madd_dot`'s per-lane bound: each of
    // the 8 lanes absorbs ceil(np/8) dual-products.
    let dot_ok = 2 * (np.div_ceil(8) as i64).saturating_mul(prod) < i32::MAX as i64;
    if m <= 8 && np >= 8 && a_max < 32768 && b_max < 32768 && dot_ok {
        let mut bt_pairs = vec![0i32; m * np];
        for j in 0..m {
            for p in 0..np {
                let lo = b[(2 * p) * m + j];
                let hi = if 2 * p + 1 < k { b[(2 * p + 1) * m + j] } else { 0 };
                bt_pairs[j * np + p] = simd::pack_i16_pair(lo, hi);
            }
        }
        let mut a_pairs = vec![0i32; np];
        for r in 0..n {
            let arow = &a[r * k..(r + 1) * k];
            for (p, ap) in a_pairs.iter_mut().enumerate() {
                let lo = arow[2 * p];
                let hi = if 2 * p + 1 < k { arow[2 * p + 1] } else { 0 };
                *ap = simd::pack_i16_pair(lo, hi);
            }
            for j in 0..m {
                acc[r * m + j] = simd::madd_dot(&a_pairs, &bt_pairs[j * np..(j + 1) * np]);
            }
        }
    } else if a_max < 32768 && b_max < 32768 && chunk > 0 {
        let packed;
        let pairs = match b_pairs {
            Some(p) => p,
            None => {
                packed = pack_pairs(b, k, m);
                &packed
            }
        };
        let mut a_pairs = vec![0i32; np];
        let mut tile = vec![0i32; m];
        for r in 0..n {
            let arow = &a[r * k..(r + 1) * k];
            for (p, ap) in a_pairs.iter_mut().enumerate() {
                let lo = arow[2 * p];
                let hi = if 2 * p + 1 < k { arow[2 * p + 1] } else { 0 };
                *ap = simd::pack_i16_pair(lo, hi);
            }
            let out_row = &mut acc[r * m..(r + 1) * m];
            let mut p0 = 0;
            while p0 < np {
                let p1 = (p0 + chunk).min(np);
                tile.fill(0);
                simd::madd_block(&mut tile, &a_pairs[p0..p1], &pairs[p0 * m..p1 * m]);
                simd::accumulate_i32_into_i64(out_row, &tile);
                p0 = p1;
            }
        }
    } else {
        for r in 0..n {
            simd::i64_mac_row(&mut acc[r * m..(r + 1) * m], &a[r * k..(r + 1) * k], b);
        }
    }
    acc
}

/// A dense layer with integer weights: codes on the weight grid, the optional
/// i16-pair panel, and the bias pre-shifted onto the product grid.
#[derive(Debug, Clone)]
struct IntDense {
    codes: Vec<i32>,
    pairs: Option<Vec<i32>>,
    w_max: u32,
    w_frac: u32,
    k: usize,
    m: usize,
    bias_prod: Vec<i64>,
    /// Product-grid bias as i32 when every code fits — enables the fused
    /// i32-tile forward that skips the i64 accumulator entirely.
    bias_i32: Option<Vec<i32>>,
    /// Largest |bias_prod| code, part of the i32-tile overflow bound.
    bias_abs: i64,
}

impl IntDense {
    fn build(weight: &Tensor, bias: Option<&Tensor>, wf: FixedFormat, act: FixedFormat) -> Self {
        let (k, m) = (weight.rows(), weight.cols());
        let codes: Vec<i32> = weight.as_slice().iter().map(|&v| wf.to_code(v)).collect();
        let w_max = max_abs(&codes);
        let pairs = (w_max < 32768).then(|| pack_pairs(&codes, k, m));
        // Bias codes live on the weight grid (frac wf); the product grid has
        // frac act+wf, so the exact lift is a left shift by act's frac bits.
        let bias_prod: Vec<i64> = match bias {
            Some(b) => b.as_slice().iter().map(|&v| wf.to_raw(v) << act.frac_bits()).collect(),
            None => vec![0i64; m],
        };
        let bias_abs = bias_prod.iter().map(|b| b.abs()).max().unwrap_or(0);
        let bias_i32 = (bias_abs <= i32::MAX as i64).then(|| bias_prod.iter().map(|&b| b as i32).collect());
        Self { codes, pairs, w_max, w_frac: wf.frac_bits(), k, m, bias_prod, bias_i32, bias_abs }
    }

    /// `requantize(a × W + bias)`: exact integer MAC, bias add on the product
    /// grid, one rounding shift back to the activation grid.
    ///
    /// Fast path: when the worst-case partial sum `|bias| + 2·np·prod` fits in
    /// i32, the madd tile seeded with the bias holds the exact product-grid
    /// value, and the whole epilogue (bias add, rounding shift, saturation)
    /// runs 8-wide straight off the tile — no i64 accumulator is ever
    /// materialized. Bitwise identical to the i64 route because both compute
    /// the same exact integer before the same round-half-away + clamp.
    fn forward(&self, a: &IntTensor, act: FixedFormat) -> IntTensor {
        debug_assert_eq!(a.cols, self.k);
        let mut out = IntTensor::zeros(a.rows, self.m);
        let np = self.k.div_ceil(2);
        if let (Some(pairs), Some(bias)) = (self.pairs.as_deref(), self.bias_i32.as_deref()) {
            let a_max = max_abs(&a.codes);
            let prod = a_max as i64 * self.w_max as i64;
            if a_max < 32768 && 2 * np as i64 * prod + self.bias_abs < i32::MAX as i64 {
                let (min_raw, max_raw) = (act.min_raw() as i32, act.max_raw() as i32);
                let mut a_pairs = vec![0i32; np];
                let mut tile = vec![0i32; self.m];
                for r in 0..a.rows {
                    let arow = &a.codes[r * self.k..(r + 1) * self.k];
                    for (p, ap) in a_pairs.iter_mut().enumerate() {
                        let lo = arow[2 * p];
                        let hi = if 2 * p + 1 < self.k { arow[2 * p + 1] } else { 0 };
                        *ap = simd::pack_i16_pair(lo, hi);
                    }
                    tile.copy_from_slice(bias);
                    simd::madd_block(&mut tile, &a_pairs, pairs);
                    simd::shift_round_saturate_i32(
                        &tile,
                        self.w_frac,
                        min_raw,
                        max_raw,
                        &mut out.codes[r * self.m..(r + 1) * self.m],
                    );
                }
                return out;
            }
        }
        let acc = int_matmul(&a.codes, a.rows, self.k, &self.codes, self.m, self.w_max, self.pairs.as_deref());
        let from_frac = act.frac_bits() + self.w_frac;
        for r in 0..a.rows {
            for j in 0..self.m {
                let v = acc[r * self.m + j] + self.bias_prod[j];
                out.codes[r * self.m + j] = act.requantize_i64(v, from_frac);
            }
        }
        out
    }
}

/// Integer weights for one transformer block (the norm gammas/betas stay f32
/// in [`TinyVbfWeights`]; layer norm is a float-boundary op).
///
/// The q/k/v projections are fused into one `model_dim × 3·model_dim` dense:
/// every output column's MAC sum is independent, so the fused matmul produces
/// codes bitwise identical to three separate projections while paying the
/// per-row kernel overhead once.
#[derive(Debug, Clone)]
struct IntBlock {
    wqkv: IntDense,
    wo: IntDense,
    mlp_in: IntDense,
    mlp_out: IntDense,
}

/// The integer-datapath model: every dense layer's weights as codes, plus the
/// grid/geometry constants the kernels need.
#[derive(Debug, Clone)]
pub(crate) struct IntModel {
    act: FixedFormat,
    soft: FixedFormat,
    /// Positional codes on the weight grid with that grid's frac bits.
    pos: Option<(Vec<i32>, u32, usize, usize)>,
    encoder: IntDense,
    blocks: Vec<IntBlock>,
    decoder_in: IntDense,
    decoder_out: IntDense,
    num_heads: usize,
    head_dim: usize,
    /// `1/sqrt(head_dim)` exactly as the float path computes it.
    scale: f32,
    /// When `scale` is exactly `2^-k` (head_dim a power of four), the score
    /// scaling is a pure extra right-shift of `k` — the integer fast path
    /// that covers the paper config (`head_dim = 4`, shift 1).
    score_shift: Option<u32>,
    /// `exp` lookup over score-code deltas: `exp_lut[d] = exp(-d · step)` for
    /// every possible non-negative code delta on the activation grid — the
    /// softmax exponentials an FPGA datapath would serve from a lookup unit.
    /// Built with [`simd::exp`], the kernel `softmax_rows` uses, so it is
    /// bitwise identical to the float boundary on every host: `x - row_max`
    /// on exact code values is exactly `(c - cmax) · step` (the difference of
    /// exactly representable values is representable, hence the f32
    /// subtraction is exact). Built only when the table stays cache-friendly
    /// (coarse grids like the deployment rungs fx16/w8a16); finer grids run
    /// `softmax_rows` on the dequantized scores.
    exp_lut: Option<Vec<f32>>,
}

/// Cap on the exp-LUT length: 2^17 entries (512 KiB) covers every 16-bit
/// activation grid; wider grids would need megabytes and fall back to `exp`.
const EXP_LUT_MAX_LEN: usize = 1 << 17;

/// `Some(k)` when `scale == 2^-k` exactly (positive power-of-two reciprocal).
fn power_of_two_shift(scale: f32) -> Option<u32> {
    let bits = scale.to_bits();
    let mantissa = bits & 0x007F_FFFF;
    let exponent = (bits >> 23) & 0xFF;
    if scale > 0.0 && mantissa == 0 && exponent <= 127 { Some(127 - exponent) } else { None }
}

impl IntModel {
    /// Builds the integer model from already weight-quantized f32 weights.
    /// Returns `None` for the float scheme (no grids to run on).
    pub(crate) fn build(weights: &TinyVbfWeights, scheme: &QuantScheme) -> Option<Self> {
        let wf = scheme.format_for(TensorRole::Weight)?;
        let act = scheme.format_for(TensorRole::MacResult)?;
        let inter = scheme.format_for(TensorRole::Intermediate)?;
        let soft = scheme.format_for(TensorRole::Softmax)?;
        // The integer datapath keeps activations on one grid between ops;
        // every Table III scheme satisfies this (mac == intermediate).
        debug_assert_eq!(act, inter, "integer datapath assumes mac grid == intermediate grid");
        let config = &weights.config;
        let head_dim = config.model_dim / config.num_heads;
        let dense = |w: &Tensor, b: Option<&Tensor>| IntDense::build(w, b, wf, act);
        Some(Self {
            act,
            soft,
            pos: weights.positional.as_ref().map(|p| {
                let codes = p.as_slice().iter().map(|&v| wf.to_code(v)).collect();
                (codes, wf.frac_bits(), p.rows(), p.cols())
            }),
            encoder: dense(&weights.encoder_weight, Some(&weights.encoder_bias)),
            blocks: weights
                .blocks
                .iter()
                .map(|b| {
                    let dim = b.wq.cols();
                    let mut qkv = Tensor::zeros(&[b.wq.rows(), 3 * dim]);
                    for r in 0..b.wq.rows() {
                        for c in 0..dim {
                            *qkv.at_mut(r, c) = b.wq.at(r, c);
                            *qkv.at_mut(r, dim + c) = b.wk.at(r, c);
                            *qkv.at_mut(r, 2 * dim + c) = b.wv.at(r, c);
                        }
                    }
                    IntBlock {
                        wqkv: dense(&qkv, None),
                        wo: dense(&b.wo, None),
                        mlp_in: dense(&b.mlp_in_weight, Some(&b.mlp_in_bias)),
                        mlp_out: dense(&b.mlp_out_weight, Some(&b.mlp_out_bias)),
                    }
                })
                .collect(),
            decoder_in: dense(&weights.decoder_in_weight, Some(&weights.decoder_in_bias)),
            decoder_out: dense(&weights.decoder_out_weight, Some(&weights.decoder_out_bias)),
            num_heads: config.num_heads,
            head_dim,
            scale: 1.0 / (head_dim as f32).sqrt(),
            score_shift: power_of_two_shift(1.0 / (head_dim as f32).sqrt()),
            exp_lut: {
                let span = (act.max_raw() - act.min_raw()) as usize + 1;
                (span <= EXP_LUT_MAX_LEN).then(|| {
                    let step = act.resolution();
                    let mut lut: Vec<f32> = (0..span).map(|d| -(d as f32) * step).collect();
                    simd::exp(&mut lut);
                    lut
                })
            },
        })
    }

    /// Saturating residual add of two code matrices on the activation grid
    /// (the integer `q_inter(x.add(y))`: code sums that stay on-grid round to
    /// themselves, so only the clamp remains).
    fn add_saturating(&self, x: &IntTensor, y: &IntTensor) -> IntTensor {
        debug_assert!(x.rows == y.rows && x.cols == y.cols);
        let mut out = IntTensor::zeros(x.rows, x.cols);
        for ((o, &a), &b) in out.codes.iter_mut().zip(&x.codes).zip(&y.codes) {
            *o = self.act.requantize_i64(a as i64 + b as i64, self.act.frac_bits());
        }
        out
    }

    /// Float-boundary layer norm: exact codes → f32, the float engine's
    /// layer norm, then back onto the activation grid.
    fn layer_norm(&self, x: &IntTensor, gamma: &Tensor, beta: &Tensor) -> IntTensor {
        let input = x.to_f32(self.act);
        let mut out = vec![0.0f32; input.numel()];
        crate::quantized::layer_norm_f32(input.as_slice(), gamma, beta, &mut out);
        IntTensor::from_slice(&out, x.rows, self.act)
    }

    /// Score codes on the activation grid: `round(q·kᵀ · scale)` per element.
    ///
    /// With a power-of-two scale the rounding is one integer shift, and when
    /// the runtime magnitudes bound the head MAC inside i32 the whole stage
    /// runs fused off the madd tile — matmul and requantize 8-wide with no
    /// i64 accumulator. Falls back to the exact i64 accumulator plus either
    /// the same rounding shift or the f64 rounded multiply (the accumulator
    /// is exact on the 2·fa product grid and ≤ 2^53, so f64 holds it
    /// exactly). All routes produce identical codes.
    fn score_codes(&self, qh: &IntTensor, kh_t: &IntTensor, tokens: usize, fa: u32, factor: f64) -> Vec<i32> {
        let mut codes = vec![0i32; tokens * tokens];
        let (min_raw, max_raw) = (self.act.min_raw(), self.act.max_raw());
        let k_max = max_abs(&kh_t.codes);
        if let Some(extra) = self.score_shift {
            let np = self.head_dim.div_ceil(2);
            let q_max = max_abs(&qh.codes);
            let prod = q_max as i64 * k_max as i64;
            if q_max < 32768 && k_max < 32768 && 2 * np as i64 * prod < i32::MAX as i64 {
                let bt = pack_pairs(&kh_t.codes, self.head_dim, tokens);
                let mut a_pairs = vec![0i32; np];
                let mut tile = vec![0i32; tokens];
                for r in 0..tokens {
                    let arow = &qh.codes[r * self.head_dim..(r + 1) * self.head_dim];
                    for (p, ap) in a_pairs.iter_mut().enumerate() {
                        let lo = arow[2 * p];
                        let hi = if 2 * p + 1 < self.head_dim { arow[2 * p + 1] } else { 0 };
                        *ap = simd::pack_i16_pair(lo, hi);
                    }
                    tile.fill(0);
                    simd::madd_block(&mut tile, &a_pairs, &bt);
                    simd::shift_round_saturate_i32(
                        &tile,
                        fa + extra,
                        min_raw as i32,
                        max_raw as i32,
                        &mut codes[r * tokens..(r + 1) * tokens],
                    );
                }
                return codes;
            }
            let acc = int_matmul(&qh.codes, tokens, self.head_dim, &kh_t.codes, tokens, k_max, None);
            for (o, &a) in codes.iter_mut().zip(&acc) {
                *o = self.act.requantize_i64(a, 2 * fa + extra);
            }
        } else {
            let acc = int_matmul(&qh.codes, tokens, self.head_dim, &kh_t.codes, tokens, k_max, None);
            for (o, &a) in codes.iter_mut().zip(&acc) {
                let code = (a as f64 * factor).round() as i64;
                *o = code.clamp(min_raw, max_raw) as i32;
            }
        }
        codes
    }

    fn attention(&self, input: &IntTensor, ib: &IntBlock) -> IntTensor {
        let tokens = input.rows;
        let model_dim = ib.wqkv.m / 3;
        let qkv = ib.wqkv.forward(input, self.act);
        let mut concat = IntTensor::zeros(tokens, model_dim);
        let fa = self.act.frac_bits();
        // score code = round(acc · scale · 2^(fa − 2fa)): the accumulator is
        // exact on the 2fa product grid, f64 holds it exactly (≤ 2^53), and
        // one rounded multiply lands it on the activation grid.
        let factor = f64::from(self.scale) * (-(fa as f64)).exp2();
        let step = self.act.resolution();
        for h in 0..self.num_heads {
            let start = h * self.head_dim;
            let qh = qkv.slice_cols(start, self.head_dim);
            let kh_t = qkv.slice_cols(model_dim + start, self.head_dim).transpose();
            let vh = qkv.slice_cols(2 * model_dim + start, self.head_dim);
            let codes = self.score_codes(&qh, &kh_t, tokens, fa, factor);
            // Softmax is a float-boundary op; its output lands on the softmax
            // grid (wider than the activation grid for the hybrid schemes).
            let att = if let Some(lut) = &self.exp_lut {
                // Integer score codes feed the LUT softmax: `exp(x - max)`
                // becomes `exp_lut[cmax - c]`, with the sum and divide in
                // `softmax_rows`' exact element order — bitwise identical to
                // the float boundary (see the `exp_lut` field docs).
                let mut soft_f = Tensor::zeros(&[tokens, tokens]);
                for (row_codes, out_row) in
                    codes.chunks_exact(tokens).zip(soft_f.as_mut_slice().chunks_exact_mut(tokens))
                {
                    let cmax = row_codes.iter().copied().max().unwrap_or(0);
                    let mut denom = 0.0f32;
                    for (o, &c) in out_row.iter_mut().zip(row_codes) {
                        let e = lut.get((cmax - c) as usize).copied().unwrap_or(0.0);
                        *o = e;
                        denom += e;
                    }
                    for o in out_row.iter_mut() {
                        *o /= denom;
                    }
                }
                IntTensor::from_f32(&soft_f, self.soft)
            } else {
                // The score codes are consumed only by the softmax boundary,
                // so dequantize to their exact f32 values (code · step) and
                // run the float softmax.
                let mut scores = Tensor::zeros(&[tokens, tokens]);
                simd::codes_to_f32(&codes, step, scores.as_mut_slice());
                IntTensor::from_f32(&softmax_rows(&scores), self.soft)
            };
            let acc = int_matmul(&att.codes, tokens, tokens, &vh.codes, self.head_dim, max_abs(&vh.codes), None);
            let mut oh = IntTensor::zeros(tokens, self.head_dim);
            let from_frac = self.soft.frac_bits() + fa;
            for (o, &a) in oh.codes.iter_mut().zip(&acc) {
                *o = self.act.requantize_i64(a, from_frac);
            }
            concat.set_cols(start, &oh);
        }
        ib.wo.forward(&concat, self.act)
    }

    /// Integer-datapath inference over one `(tokens, channels)` row, given
    /// row-major. The op sequence mirrors the float path exactly; only the
    /// arithmetic domain changes.
    pub(crate) fn infer_row(&self, weights: &TinyVbfWeights, row: &[f32], tokens: usize) -> Tensor {
        let act = self.act;
        let mut x = self.encoder.forward(&IntTensor::from_slice(row, tokens, act), act);
        if let Some((pos_codes, pos_frac, pos_rows, pos_cols)) = &self.pos {
            // Positional codes live on the (possibly finer) weight grid:
            // lift both operands to the common grid, add exactly, round back.
            let common = act.frac_bits().max(*pos_frac);
            let xs = common - act.frac_bits();
            let ps = common - pos_frac;
            for r in 0..x.rows {
                let pr = r.min(pos_rows - 1);
                for c in 0..x.cols.min(*pos_cols) {
                    let a = (x.codes[r * x.cols + c] as i64) << xs;
                    let b = (pos_codes[pr * pos_cols + c] as i64) << ps;
                    x.codes[r * x.cols + c] = act.requantize_i64(a + b, common);
                }
            }
        }
        for (block, ib) in weights.blocks.iter().zip(&self.blocks) {
            let normed = self.layer_norm(&x, &block.norm1_gamma, &block.norm1_beta);
            let attended = self.attention(&normed, ib);
            let after_attention = self.add_saturating(&x, &attended);
            let normed2 = self.layer_norm(&after_attention, &block.norm2_gamma, &block.norm2_beta);
            let hidden = ib.mlp_in.forward(&normed2, act).relu();
            let mlp = ib.mlp_out.forward(&hidden, act);
            x = self.add_saturating(&after_attention, &mlp);
        }
        let hidden = self.decoder_in.forward(&x, act).relu();
        let out = self.decoder_out.forward(&hidden, act);
        // Float-boundary tanh, then the final intermediate-grid rounding:
        // quantize + dequantize through the vectorized boundary kernels
        // (bitwise `act.quantize` per element).
        let mut out = out.to_f32(act).map(f32::tanh);
        let mut codes = vec![0i32; out.as_slice().len()];
        simd::quantize_codes(out.as_slice(), 1.0 / act.resolution(), act.max_raw() as i32, act.min_raw() as i32, &mut codes);
        simd::codes_to_f32(&codes, act.resolution(), out.as_mut_slice());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_fused_tile_and_i64_paths_match_the_exact_reference() {
        let wf = FixedFormat::new(16, 14);
        let act = FixedFormat::new(16, 10);
        let mut w = Tensor::zeros(&[6, 9]);
        for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as i32 % 17) - 8) as f32 * 0.07;
        }
        let mut bias = Tensor::zeros(&[1, 9]);
        for (i, v) in bias.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as i32 % 5) - 2) as f32 * 0.31;
        }
        let dense = IntDense::build(&w, Some(&bias), wf, act);
        // Small activations take the fused i32-tile path; activations at the
        // i16 limit force the i64 fallback. Both must equal the exact
        // accumulate-then-requantize reference.
        for &scale in &[5i32, 31000] {
            let mut a = IntTensor::zeros(4, 6);
            for (i, c) in a.codes.iter_mut().enumerate() {
                *c = (((i as i32 * 7) % 11) - 5) * scale;
            }
            let out = dense.forward(&a, act);
            let from_frac = act.frac_bits() + wf.frac_bits();
            for r in 0..4 {
                for j in 0..9 {
                    let mut acc = dense.bias_prod[j];
                    for p in 0..6 {
                        acc += a.codes[r * 6 + p] as i64 * dense.codes[p * 9 + j] as i64;
                    }
                    assert_eq!(
                        out.codes[r * 9 + j],
                        act.requantize_i64(acc, from_frac),
                        "scale {scale} element ({r},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn int_matmul_matches_exact_reference_on_all_paths() {
        // Magnitudes straddling the madd eligibility threshold exercise both
        // the packed i16 path (with chunking) and the i64 fallback.
        for &scale in &[3i32, 1000, 40000] {
            let (n, k, m) = (3usize, 7usize, 5usize);
            let a: Vec<i32> = (0..n * k).map(|i| ((i as i32 % 11) - 5) * scale).collect();
            let b: Vec<i32> = (0..k * m).map(|i| ((i as i32 % 13) - 6) * scale).collect();
            let mut expect = vec![0i64; n * m];
            for r in 0..n {
                for j in 0..m {
                    for p in 0..k {
                        expect[r * m + j] += a[r * k + p] as i64 * b[p * m + j] as i64;
                    }
                }
            }
            let got = int_matmul(&a, n, k, &b, m, max_abs(&b), None);
            assert_eq!(got, expect, "scale {scale}");
            // Pre-packed panel (when it fits i16) must agree too.
            if max_abs(&b) < 32768 && max_abs(&a) < 32768 {
                let pairs = pack_pairs(&b, k, m);
                assert_eq!(int_matmul(&a, n, k, &b, m, max_abs(&b), Some(&pairs)), expect);
            }
        }
    }

    #[test]
    fn requantize_matches_f32_rounding_on_grid_values() {
        let act = FixedFormat::new(16, 10);
        for code in [-3000i64, -1, 0, 1, 513, 32767, 40000, -40000] {
            // A product-grid value code·2^-20 requantized to frac 10.
            let real = code as f64 * (-(20.0f64)).exp2();
            let expect = act.to_code((real as f32 * 1.0).max(act.min_value()).min(act.max_value()));
            let got = act.requantize_i64(code, 20);
            // Both are round-to-nearest of the same real value; ties can only
            // differ when f32 cannot represent the halfway point, which these
            // small codes avoid.
            assert_eq!(got, expect, "code {code}");
        }
    }
}

//! The integer datapath of fixed-point Tiny-VBF inference.
//!
//! Activations live as fixed-point codes on the scheme's mac/intermediate
//! grid and weights as codes on its weight grid, both held as exact integers
//! in `f64`. Every multiply-accumulate — the encoder, the fused q/k/v
//! projection, the attention scores, the probabilities times V, `wo`, the MLP
//! and the decoder — runs on one kernel, [`simd::exact_matmul`]. Its products
//! and sums are integers below 2^53, so `f64` lanes compute them exactly, and
//! one epilogue (round half away from zero, then saturate) lands each result
//! on its grid as [`FixedFormat::requantize_i64`] would. The lane type of
//! every stage is fixed by the scheme's formats: nothing inspects code
//! magnitudes at run time.
//!
//! **The exactness bound, per scheme.** Every code satisfies |code| ≤
//! 2^(bits−1), and a softmax probability lies in [0, 1], so its code is at most
//! 2^soft_frac. At the served shape (128 channels, 128 tokens, `head_dim` 4)
//! the largest sums are:
//!
//! | Scheme | dense `k·2^(a−1)·2^(w−1)` | scores `head_dim·2^(2a−2)` | A·V `tokens·2^soft_frac·2^(a−1)` |
//! |--------|------|------|------|
//! | fx24   | 2^47 | 2^48 | 2^48 |
//! | fx20   | 2^43 | 2^40 | 2^40 |
//! | fx16   | 2^37 | 2^32 | 2^32 |
//! | w8a20  | 2^33 | 2^40 | 2^46 |
//! | w8a16  | 2^29 | 2^32 | 2^42 |
//!
//! A dense bias adds less than 2^35. So `f64` holds every sum of every Table
//! III scheme exactly with at least 32× headroom: at fx24, `head_dim` below
//! 128, tokens below 4,096 and channels below 8,192. [`IntModel::build`]
//! asserts the dense and score bounds of the actual config, and
//! [`IntModel::infer_row`] the A·V bound of each row.
//!
//! Attention runs each head [`QUERY_BLOCK`] query rows at a time and reads the
//! q/k/v codes in place. A block computes its scores as exact dot products
//! with the score shift (or, for a `head_dim` that is not a power of four, the
//! `f64`-rounded `1/√head_dim` multiply), then its softmax — the `exp` lookup
//! table on 16-bit grids, [`simd::exp`] otherwise, the denominators summed in
//! ascending key order — with each probability quantized onto the softmax
//! grid in the divide pass, then the exact A·V and its rounding shift back
//! onto the activation grid. Per element these are the operations of the
//! plain-loop `i64` oracle in the tests, so the bits are the oracle's.
//!
//! Nonlinear boundaries (layer norm, softmax, tanh) convert codes to `f32`
//! (exact: every code of a ≤24-bit format fits the f32 mantissa), run the
//! float op, and round back onto the destination grid — exactly where an FPGA
//! datapath would place its lookup/normalization units. ReLU and the residual
//! adds stay on codes. Every buffer lives in the per-worker [`CodeScratch`],
//! so a warm worker allocates nothing per depth row, and the outputs are
//! bitwise identical across thread counts and `runtime::simd` dispatch tiers.

use crate::model::TinyVbfWeights;
use crate::quantized::{layer_norm_f32, QUERY_BLOCK};
use neural::tensor::Tensor;
use quantize::{FixedFormat, QuantScheme, TensorRole};
use runtime::simd::{self, Requantize};

/// 2^53: every integer below it is exact in `f64`.
const EXACT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// `2^e`, exactly.
fn pow2(e: i32) -> f64 {
    2.0f64.powi(e)
}

/// The largest code magnitude of `fmt`, `2^(bits−1)`.
fn magnitude(fmt: FixedFormat) -> f64 {
    pow2(fmt.word_bits() as i32 - 1)
}

/// The epilogue onto `fmt`'s codes from an accumulator scaled by `factor`.
fn onto(fmt: FixedFormat, factor: f64) -> Requantize {
    Requantize { factor, lo: fmt.min_raw() as f64, hi: fmt.max_raw() as f64 }
}

/// A dense layer on codes: the `k × m` weight codes, the bias lifted onto the
/// product grid, and the rounding shift back onto the activation grid.
#[derive(Debug, Clone)]
struct IntDense {
    weight: Vec<f64>,
    bias: Vec<f64>,
    m: usize,
    requant: Requantize,
}

impl IntDense {
    fn build(weight: &Tensor, bias: Option<&Tensor>, wf: FixedFormat, act: FixedFormat) -> Self {
        let k = weight.rows() as f64;
        // Bias codes live on the weight grid; the product grid has act's frac
        // bits more, so the exact lift is a left shift by them.
        let bias_max = magnitude(wf) * pow2(act.frac_bits() as i32);
        assert!(
            k * magnitude(act) * magnitude(wf) + bias_max < EXACT_LIMIT,
            "integer datapath: a {k}-deep dense layer on {act:?} × {wf:?} codes exceeds the exact f64 bound"
        );
        let m = weight.cols();
        Self {
            weight: weight.as_slice().iter().map(|&v| f64::from(wf.to_code(v))).collect(),
            bias: match bias {
                Some(b) => b.as_slice().iter().map(|&v| (wf.to_raw(v) << act.frac_bits()) as f64).collect(),
                None => vec![0.0; m],
            },
            m,
            requant: onto(act, pow2(-(wf.frac_bits() as i32))),
        }
    }

    /// `out = requantize(x · W + bias)` over the rows of `x`.
    fn forward(&self, x: &[f64], out: &mut [f64]) {
        let k = self.weight.len() / self.m;
        simd::exact_matmul(x, [k, 1], &self.weight, self.m, Some(&self.bias), self.requant, out);
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
/// grids, epilogues and geometry the kernels need.
#[derive(Debug, Clone)]
pub(crate) struct IntModel {
    act: FixedFormat,
    soft: FixedFormat,
    /// Positional codes moved onto the activation grid — `code · 2^(fa −
    /// weight frac)`, exact, fractional when the weight grid is finer — and
    /// the table's row count; `model_dim` columns.
    pos: Option<(Vec<f64>, usize)>,
    encoder: IntDense,
    blocks: Vec<IntBlock>,
    decoder_in: IntDense,
    decoder_out: IntDense,
    channels: usize,
    model_dim: usize,
    head_dim: usize,
    /// Exact sums onto the activation grid unscaled: residual and positional
    /// adds (round, then saturate).
    residual: Requantize,
    /// Scores from the `2·fa` product grid onto the activation grid:
    /// `2^−(fa + k)` when `1/√head_dim = 2^−k` (head_dim a power of four, the
    /// served config's shift of 1), else `f64(1/√head_dim) · 2^−fa`, whose
    /// product rounds once in `f64` before the round half away.
    scores: Requantize,
    /// A·V from the `soft_frac + fa` product grid onto the activation grid.
    attend: Requantize,
    /// `exp` lookup over score-code deltas: `exp_lut[d] = exp(-d · step)` for
    /// every possible non-negative code delta on the activation grid — the
    /// softmax exponentials an FPGA datapath would serve from a lookup unit.
    /// Built with [`simd::exp`], so it is bitwise identical to `exp` of the
    /// exact shifted score `(c − cmax) · step` on every host. Built only when
    /// the table stays cache-friendly (16-bit grids like fx16 and w8a16);
    /// finer grids run [`simd::exp`] on the block.
    exp_lut: Option<Vec<f32>>,
}

/// Cap on the exp-LUT length: 2^17 entries (512 KiB) covers every 16-bit
/// activation grid; wider grids would need megabytes and run `exp` instead.
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
    ///
    /// # Panics
    ///
    /// Panics when a dense layer or the attention scores of this config could
    /// sum past 2^53 (see the module docs); no Table III scheme comes near.
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
        assert!(
            head_dim as f64 * magnitude(act) * magnitude(act) < EXACT_LIMIT,
            "integer datapath: head_dim {head_dim} on {act:?} codes exceeds the exact f64 bound"
        );
        let fa = act.frac_bits() as i32;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let dense = |w: &Tensor, b: Option<&Tensor>| IntDense::build(w, b, wf, act);
        Some(Self {
            act,
            soft,
            pos: weights.positional.as_ref().map(|p| {
                assert_eq!(p.cols(), config.model_dim, "positional table width");
                let lift = pow2(fa - wf.frac_bits() as i32);
                (p.as_slice().iter().map(|&v| f64::from(wf.to_code(v)) * lift).collect(), p.rows())
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
            channels: config.channels,
            model_dim: config.model_dim,
            head_dim,
            residual: onto(act, 1.0),
            scores: onto(
                act,
                match power_of_two_shift(scale) {
                    Some(k) => pow2(-fa - k as i32),
                    None => f64::from(scale) * pow2(-fa),
                },
            ),
            attend: onto(act, pow2(-(soft.frac_bits() as i32))),
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

    /// Float-boundary layer norm of `x` into `out`: exact codes → f32, the
    /// float engine's layer norm, then back onto the activation grid.
    fn layer_norm(&self, x: &[f64], gamma: &Tensor, beta: &Tensor, floats: &mut [Vec<f32>; 2], out: &mut [f64]) {
        let [values, normed] = floats;
        for buf in [&mut *values, &mut *normed] {
            buf.resize(x.len(), 0.0);
        }
        simd::codes_to_f32(x, self.act.resolution(), values);
        layer_norm_f32(values, gamma, beta, normed);
        self.quantize(normed, out);
    }

    /// `values` onto the activation grid.
    fn quantize(&self, values: &[f32], out: &mut [f64]) {
        let act = self.act;
        simd::quantize_codes(values, 1.0 / act.resolution(), act.max_raw() as i32, act.min_raw() as i32, out);
    }

    /// The saturating residual add `x += y` on codes (the integer
    /// `q_inter(x.add(y))`: code sums that stay on the grid round to
    /// themselves, so only the clamp remains).
    fn add_residual(&self, x: &mut [f64], y: &[f64]) {
        for (x, &y) in x.iter_mut().zip(y) {
            *x = self.residual.apply(*x + y);
        }
    }

    /// Multi-head self-attention of one depth row, from `s.qkv` into
    /// `s.concat`, [`QUERY_BLOCK`] query rows at a time per head. A short last
    /// block runs zero queries in its unused lanes and drops their results.
    fn attention(&self, s: &mut CodeScratch, tokens: usize) {
        let (dim, head_dim) = (self.model_dim, self.head_dim);
        let stride = 3 * dim;
        s.queries.resize(head_dim, [0.0; QUERY_BLOCK]);
        s.head_out.resize(head_dim, [0.0; QUERY_BLOCK]);
        s.block.resize(tokens, [0.0; QUERY_BLOCK]);
        s.exps.resize(tokens, [0.0; QUERY_BLOCK]);
        for head in (0..dim).step_by(head_dim) {
            for i0 in (0..tokens).step_by(QUERY_BLOCK) {
                let lanes = QUERY_BLOCK.min(tokens - i0);
                for (p, column) in s.queries.iter_mut().enumerate() {
                    for (lane, q) in column.iter_mut().enumerate() {
                        *q = if lane < lanes { s.qkv[(i0 + lane) * stride + head + p] } else { 0.0 };
                    }
                }
                // Scores `[key][query lane]`: key rows read in place.
                let (keys, scores) = (&s.qkv[dim + head..], s.block.as_flattened_mut());
                simd::exact_matmul(keys, [stride, 1], s.queries.as_flattened(), QUERY_BLOCK, None, self.scores, scores);
                self.block_softmax(&mut s.block, &mut s.exps);
                // `[head column][query lane]`: the value columns read in place.
                let (values, out) = (&s.qkv[2 * dim + head..], s.head_out.as_flattened_mut());
                simd::exact_matmul(values, [1, stride], s.block.as_flattened(), QUERY_BLOCK, None, self.attend, out);
                for (d, column) in s.head_out.iter().enumerate() {
                    for (lane, &o) in column[..lanes].iter().enumerate() {
                        s.concat[(i0 + lane) * dim + head + d] = o;
                    }
                }
            }
        }
    }

    /// Softmax of one query block's score codes over the keys, in place, to
    /// probability codes on the softmax grid. Per lane: the max code; `exp` of
    /// `(code − max) · step` (exact in `f32`), from the lookup table or
    /// [`simd::exp`]; the denominator summed in ascending key order from
    /// `0.0`; one divide per element, and its quotient rounded onto the
    /// softmax grid in the same pass.
    fn block_softmax(&self, block: &mut [[f64; QUERY_BLOCK]], exps: &mut [[f32; QUERY_BLOCK]]) {
        // Four independent running maxima break the compare's latency chain;
        // a max is exact, so the grouping cannot change it.
        let mut maxima = [[f64::NEG_INFINITY; QUERY_BLOCK]; 4];
        let mut quads = block.chunks_exact(4);
        for quad in &mut quads {
            for (max, codes) in maxima.iter_mut().zip(quad) {
                for l in 0..QUERY_BLOCK {
                    max[l] = if codes[l] > max[l] { codes[l] } else { max[l] };
                }
            }
        }
        for codes in quads.remainder() {
            for l in 0..QUERY_BLOCK {
                maxima[0][l] = if codes[l] > maxima[0][l] { codes[l] } else { maxima[0][l] };
            }
        }
        let mut row_max = maxima[0];
        for max in &maxima[1..] {
            for l in 0..QUERY_BLOCK {
                row_max[l] = if max[l] > row_max[l] { max[l] } else { row_max[l] };
            }
        }
        let mut denom = [0.0f32; QUERY_BLOCK];
        match &self.exp_lut {
            Some(lut) => {
                let last = lut.len() - 1;
                for (e, codes) in exps.iter_mut().zip(block.iter()) {
                    for l in 0..QUERY_BLOCK {
                        // Deltas are exact integers below `lut.len()`; the
                        // `min` only lets the compiler drop the bounds check.
                        e[l] = lut[((row_max[l] - codes[l]) as i32 as usize).min(last)];
                        denom[l] += e[l];
                    }
                }
            }
            None => {
                let step = f64::from(self.act.resolution());
                for (e, codes) in exps.iter_mut().zip(block.iter()) {
                    for l in 0..QUERY_BLOCK {
                        e[l] = ((codes[l] - row_max[l]) * step) as f32;
                    }
                }
                simd::exp(exps.as_flattened_mut());
                for e in exps.iter() {
                    for l in 0..QUERY_BLOCK {
                        denom[l] += e[l];
                    }
                }
            }
        }
        let (inv_step, hi) = (1.0 / self.soft.resolution(), self.soft.max_raw() as f32);
        for (codes, e) in block.iter_mut().zip(exps.iter()) {
            for l in 0..QUERY_BLOCK {
                // `p · 2^soft_frac` is exact in f32, and `p ≥ 0` rounds to
                // `+0.0` or above.
                let code = (e[l] / denom[l] * inv_step).round();
                codes[l] = f64::from(if code < hi { code } else { hi });
            }
        }
    }

    /// Integer-datapath inference over one row-major `(tokens, channels)`
    /// row into `out`, the `(tokens, 2)` output. The op sequence mirrors the
    /// float path exactly; only the arithmetic domain changes.
    ///
    /// # Panics
    ///
    /// Panics when the row is too long for the A·V sums to stay exact (4,096
    /// tokens or more at fx24; see the module docs).
    pub(crate) fn infer_row(&self, weights: &TinyVbfWeights, row: &[f32], s: &mut CodeScratch, out: &mut Vec<f32>) {
        let tokens = row.len() / self.channels;
        assert!(
            tokens as f64 * pow2(self.soft.frac_bits() as i32) * magnitude(self.act) < EXACT_LIMIT,
            "integer datapath: {tokens} tokens exceed the exact f64 bound of the A·V sums"
        );
        let dim = self.model_dim;
        let config = &weights.config;
        s.input.resize(row.len(), 0.0);
        for buf in [&mut s.x, &mut s.normed, &mut s.concat, &mut s.branch] {
            buf.resize(tokens * dim, 0.0);
        }
        s.qkv.resize(tokens * 3 * dim, 0.0);
        self.quantize(row, &mut s.input);
        self.encoder.forward(&s.input, &mut s.x);
        if let Some((pos, pos_rows)) = &self.pos {
            for (r, x) in s.x.chunks_exact_mut(dim).enumerate() {
                let p = &pos[r.min(pos_rows - 1) * dim..][..dim];
                self.add_residual(x, p);
            }
        }
        for (block, ib) in weights.blocks.iter().zip(&self.blocks) {
            self.layer_norm(&s.x, &block.norm1_gamma, &block.norm1_beta, &mut s.floats, &mut s.normed);
            ib.wqkv.forward(&s.normed, &mut s.qkv);
            self.attention(s, tokens);
            ib.wo.forward(&s.concat, &mut s.branch);
            self.add_residual(&mut s.x, &s.branch);
            self.layer_norm(&s.x, &block.norm2_gamma, &block.norm2_beta, &mut s.floats, &mut s.normed);
            s.hidden.resize(tokens * config.mlp_dim, 0.0);
            ib.mlp_in.forward(&s.normed, &mut s.hidden);
            relu(&mut s.hidden);
            ib.mlp_out.forward(&s.hidden, &mut s.branch);
            self.add_residual(&mut s.x, &s.branch);
        }
        s.hidden.resize(tokens * config.decoder_dim, 0.0);
        self.decoder_in.forward(&s.x, &mut s.hidden);
        relu(&mut s.hidden);
        s.branch.resize(tokens * 2, 0.0);
        self.decoder_out.forward(&s.hidden, &mut s.branch);
        // Float-boundary tanh, then the final intermediate-grid rounding.
        let step = self.act.resolution();
        out.resize(tokens * 2, 0.0);
        simd::codes_to_f32(&s.branch, step, out);
        simd::tanh(out);
        self.quantize(out, &mut s.branch);
        simd::codes_to_f32(&s.branch, step, out);
    }
}

/// ReLU on codes (never `−0.0`, so `max` is exact).
fn relu(codes: &mut [f64]) {
    for c in codes {
        *c = c.max(0.0);
    }
}

/// Per-worker buffers of the integer forward, reused row after row so a warm
/// worker allocates nothing per depth row. Codes are exact integers in `f64`.
#[derive(Debug, Default)]
pub(crate) struct CodeScratch {
    /// The input row on the activation grid, `tokens × channels`.
    input: Vec<f64>,
    /// Residual stream, `tokens × model_dim`.
    x: Vec<f64>,
    /// LayerNorm output, `tokens × model_dim`.
    normed: Vec<f64>,
    /// Fused q/k/v projection, `tokens × 3·model_dim`.
    qkv: Vec<f64>,
    /// Head outputs side by side, `tokens × model_dim`.
    concat: Vec<f64>,
    /// Attention or MLP output before its residual add, `tokens ×
    /// model_dim`; last, the decoder output, `tokens × 2`.
    branch: Vec<f64>,
    /// MLP or decoder hidden layer, `tokens × mlp_dim` / `decoder_dim`.
    hidden: Vec<f64>,
    /// One query block's queries of one head, `[head column][query lane]`.
    queries: Vec<[f64; QUERY_BLOCK]>,
    /// One query block's score codes, then its probability codes, `[key][query
    /// lane]`.
    block: Vec<[f64; QUERY_BLOCK]>,
    /// One query block's `exp` values, `[key][query lane]`.
    exps: Vec<[f32; QUERY_BLOCK]>,
    /// One query block's head output, `[head column][query lane]`.
    head_out: Vec<[f64; QUERY_BLOCK]>,
    /// The layer-norm boundary's float input and output.
    floats: [Vec<f32>; 2],
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::activation::softmax_rows;

    #[test]
    fn dense_layer_matches_the_exact_i64_reference() {
        // A 16-bit grid and the widest Table III pair (24-bit activations,
        // 18-bit weights), with activation codes up to the grid's limit; 9
        // columns and 5 rows leave a ragged column and a ragged row tile.
        for (wf, act) in
            [(FixedFormat::new(16, 14), FixedFormat::new(16, 10)), (FixedFormat::new(18, 16), FixedFormat::new(24, 18))]
        {
            let mut w = Tensor::zeros(&[6, 9]);
            for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
                *v = ((i as i32 % 17) - 8) as f32 * 0.07;
            }
            let mut bias = Tensor::zeros(&[1, 9]);
            for (i, v) in bias.as_mut_slice().iter_mut().enumerate() {
                *v = ((i as i32 % 5) - 2) as f32 * 0.31;
            }
            let dense = IntDense::build(&w, Some(&bias), wf, act);
            let limit = act.max_raw();
            for scale in [5, limit / 6] {
                let a: Vec<i64> = (0..5 * 6).map(|i| (((i * 7) % 11) - 5) * scale).collect();
                let mut out = vec![0.0f64; 5 * 9];
                dense.forward(&a.iter().map(|&c| c as f64).collect::<Vec<_>>(), &mut out);
                let from_frac = act.frac_bits() + wf.frac_bits();
                for r in 0..5 {
                    for j in 0..9 {
                        let mut acc = (wf.to_raw(bias.as_slice()[j])) << act.frac_bits();
                        for p in 0..6 {
                            acc += a[r * 6 + p] * wf.to_code(w.at(p, j)) as i64;
                        }
                        let expect = act.requantize_i64(acc, from_frac) as f64;
                        assert_eq!(
                            out[r * 9 + j].to_bits(),
                            expect.to_bits(),
                            "{act:?} scale {scale} element ({r},{j})"
                        );
                    }
                }
            }
        }
    }

    /// The integer forward of one row written out as plain per-element
    /// loops: i64 accumulators, `to_code`/`requantize_i64` for every grid
    /// change, the float boundaries through `layer_norm_f32` and
    /// `softmax_rows`, and `f64::round` for a score scale that is not a power
    /// of two. Independent of the engine's kernels, tiers and lane types.
    fn oracle_row(q: &crate::quantized::QuantizedTinyVbf, row: &Tensor) -> Vec<f32> {
        let (w, scheme, tokens) = (q.weights(), q.scheme(), row.rows());
        let wf = scheme.format_for(TensorRole::Weight).unwrap();
        let act = scheme.format_for(TensorRole::MacResult).unwrap();
        let soft = scheme.format_for(TensorRole::Softmax).unwrap();
        let fa = act.frac_bits();
        let dense = |x: &[i64], weight: &Tensor, bias: Option<&Tensor>| {
            let (k, m) = (weight.rows(), weight.cols());
            let mut out = vec![0i64; tokens * m];
            for r in 0..tokens {
                for j in 0..m {
                    let mut acc = bias.map_or(0, |b| (wf.to_code(b.as_slice()[j]) as i64) << fa);
                    for p in 0..k {
                        acc += x[r * k + p] * wf.to_code(weight.at(p, j)) as i64;
                    }
                    out[r * m + j] = act.requantize_i64(acc, fa + wf.frac_bits()) as i64;
                }
            }
            out
        };
        let codes = |values: &[f32]| values.iter().map(|&v| act.to_code(v) as i64).collect::<Vec<_>>();
        let layer_norm = |x: &[i64], gamma: &Tensor, beta: &Tensor| {
            let values: Vec<f32> = x.iter().map(|&c| act.from_raw(c)).collect();
            let mut out = vec![0.0f32; x.len()];
            crate::quantized::layer_norm_f32(&values, gamma, beta, &mut out);
            codes(&out)
        };
        let add = |x: &[i64], y: &[i64]| x.iter().zip(y).map(|(&a, &b)| act.requantize_i64(a + b, fa) as i64).collect();
        let relu = |x: Vec<i64>| x.into_iter().map(|c| c.max(0)).collect::<Vec<_>>();
        let mut x = dense(&codes(row.as_slice()), &w.encoder_weight, Some(&w.encoder_bias));
        if let Some(pos) = &w.positional {
            let common = fa.max(wf.frac_bits());
            for (i, c) in x.iter_mut().enumerate() {
                let p = wf.to_code(pos.at((i / pos.cols()).min(pos.rows() - 1), i % pos.cols())) as i64;
                *c = act.requantize_i64((*c << (common - fa)) + (p << (common - wf.frac_bits())), common) as i64;
            }
        }
        let dim = w.config.model_dim;
        let head_dim = dim / w.config.num_heads;
        let scale = 1.0 / (head_dim as f32).sqrt();
        for b in &w.blocks {
            let normed = layer_norm(&x, &b.norm1_gamma, &b.norm1_beta);
            let (qm, km, vm) = (dense(&normed, &b.wq, None), dense(&normed, &b.wk, None), dense(&normed, &b.wv, None));
            let mut concat = vec![0i64; tokens * dim];
            for h in (0..dim).step_by(head_dim) {
                let mut scores = Tensor::zeros(&[tokens, tokens]);
                for i in 0..tokens {
                    for j in 0..tokens {
                        let acc: i64 = (h..h + head_dim).map(|c| qm[i * dim + c] * km[j * dim + c]).sum();
                        let code = if scale.to_bits() & 0x007F_FFFF == 0 {
                            act.requantize_i64(acc, 2 * fa + (-scale.log2()) as u32) as i64
                        } else {
                            ((acc as f64 * f64::from(scale) * (-(fa as f64)).exp2()).round() as i64)
                                .clamp(act.min_raw(), act.max_raw())
                        };
                        *scores.at_mut(i, j) = act.from_raw(code);
                    }
                }
                let probs = softmax_rows(&scores);
                for i in 0..tokens {
                    for d in h..h + head_dim {
                        let acc: i64 = (0..tokens).map(|j| soft.to_code(probs.at(i, j)) as i64 * vm[j * dim + d]).sum();
                        concat[i * dim + d] = act.requantize_i64(acc, soft.frac_bits() + fa) as i64;
                    }
                }
            }
            x = add(&x, &dense(&concat, &b.wo, None));
            let hidden =
                relu(dense(&layer_norm(&x, &b.norm2_gamma, &b.norm2_beta), &b.mlp_in_weight, Some(&b.mlp_in_bias)));
            x = add(&x, &dense(&hidden, &b.mlp_out_weight, Some(&b.mlp_out_bias)));
        }
        let hidden = relu(dense(&x, &w.decoder_in_weight, Some(&w.decoder_in_bias)));
        let out = dense(&hidden, &w.decoder_out_weight, Some(&w.decoder_out_bias));
        out.iter().map(|&c| act.quantize(act.from_raw(c).tanh())).collect()
    }

    #[test]
    fn integer_forward_matches_the_plain_loop_oracle_bit_for_bit() {
        use crate::config::TinyVbfConfig;
        use crate::model::TinyVbf;
        use crate::quantized::QuantizedTinyVbf;
        // tiny_test: head_dim 2, the 1/√2 score scale. The served shape:
        // head_dim 4 and the score shift. Rows of 6, 16, 37 and 130 tokens
        // cover short last query blocks and rows longer than the positional
        // table; inputs ×64 saturate the activation grids.
        for config in [TinyVbfConfig::tiny_test(), TinyVbfConfig::small().for_frame(128, 128)] {
            let model = TinyVbf::new(&config).unwrap();
            for scheme in QuantScheme::all().into_iter().filter(|s| !s.is_float()) {
                let engine = QuantizedTinyVbf::from_model(&model, scheme);
                for (seed, tokens) in [6usize, 16, 37, 130].into_iter().enumerate() {
                    for gain in [1.0f32, 64.0] {
                        let row = neural::init::normal(&[tokens, config.channels], 0.4, 40 + seed as u64)
                            .map(|v| v.clamp(-1.0, 1.0) * gain);
                        let expect = oracle_row(&engine, &row);
                        let got = engine.infer_row(&row);
                        for (i, (a, b)) in expect.iter().zip(got.as_slice()).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{} channels, {}, {tokens} tokens, gain {gain}, value {i}: {a} vs {b}",
                                config.channels,
                                scheme.name
                            );
                        }
                        assert_eq!(expect.len(), got.as_slice().len());
                    }
                }
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

//! The integer datapath of fixed-point Tiny-VBF inference.
//!
//! Activations live as fixed-point codes on the scheme's mac/intermediate
//! grid and weights as codes on its weight grid, both held as exact integers
//! in `f64`. Every multiply-accumulate — the encoder, the fused q/k/v
//! projection, the attention scores, the probabilities times V, `wo`, the MLP
//! and the decoder — sums integer products below 2^53, so `f64` lanes compute
//! it exactly, and one epilogue (round half away from zero, then saturate)
//! lands each result on its grid as [`FixedFormat::requantize_i64`] would. The
//! dense layers run on [`simd::exact_matmul`]; attention runs the float
//! engine's three passes on codes (below). The lane type of every stage is
//! fixed by the scheme's formats: nothing inspects code magnitudes at run
//! time.
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
//! Attention runs each head [`QUERY_BLOCK`] query rows at a time, reads the
//! q/k/v codes in place, and runs the float engine's three passes per block
//! (`quantized::attention`) with [`CodeLanes`]' arithmetic:
//!
//! 1. **Scores** ([`CodeLanes::scores_of`]). Each q·k sum is exact, four
//!    keys per step, and requantized onto the activation grid with the score
//!    shift (or, for a `head_dim` that is not a power of four, the
//!    `f64`-rounded `1/√head_dim` multiply). The code times the grid step,
//!    exact in `f32`, goes straight into the `[key][query lane]` block, each
//!    lane's max folded in.
//! 2. **Softmax.** One [`simd::exp_shifted_sum`] pass, `exp(score − max)`
//!    with the denominators summed in ascending key order.
//! 3. **A·V.** Each probability code, `min(round(e / denom · 2^soft_frac),
//!    max)` in `f32`, is formed as its key's value row is read; the exact
//!    head-column sums are requantized onto the activation grid.
//!
//! Every element is the plain-loop `i64` oracle's of the tests, bit for bit:
//! the passes run its operations, but for two cheaper forms that
//! [`CodeLanes`] proves equal — the score code clamped in `f32` after its
//! rounding in `f64`, and the probability's divide and scale as one divide
//! by `denom · 2^−soft_frac`.
//!
//! Nonlinear boundaries (layer norm, softmax, tanh) convert codes to `f32`
//! (exact: every code of a ≤24-bit format fits the f32 mantissa), run the
//! float op, and round back onto the destination grid — exactly where an FPGA
//! datapath would place its lookup/normalization units. ReLU and the residual
//! adds stay on codes. Every buffer lives in the per-worker [`CodeScratch`],
//! so a warm worker allocates nothing per depth row, and the outputs are
//! bitwise identical across thread counts and `runtime::simd` dispatch tiers.

use crate::model::TinyVbfWeights;
use crate::quantized::{attention, layer_norm_f32, Lanes, KEY_GROUP, QUERY_BLOCK};
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
        simd::exact_matmul(x, &self.weight, self.m, Some(&self.bias), self.requant, out);
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
    /// The attention passes' arithmetic on codes.
    lanes: CodeLanes,
}

/// The integer attention's arithmetic on codes held as exact integers in
/// `f64` ([`Lanes`]): exact q·k and A·V sums, each requantized onto the
/// activation grid, and the softmax at the float boundary.
#[derive(Debug, Clone, Copy)]
struct CodeLanes {
    /// Scores from the `2·fa` product grid onto the activation grid:
    /// `2^−(fa + k)` when `1/√head_dim = 2^−k` (head_dim a power of four, the
    /// served config's shift of 1), else `f64(1/√head_dim) · 2^−fa`, whose
    /// product rounds once in `f64` before the round half away.
    score_factor: f64,
    /// The activation grid's smallest and largest codes.
    code_range: [f32; 2],
    /// The activation grid's step, `2^−fa`.
    step: f32,
    /// The softmax grid's step, `2^−soft_frac`.
    soft_step: f32,
    /// The largest softmax code.
    soft_max: f32,
    /// A·V from the `soft_frac + fa` product grid onto the activation grid.
    attend: Requantize,
}

impl CodeLanes {
    /// The score `code · step`. `code` is [`Requantize::apply`] with
    /// `score_factor` up to the sign of a zero: the round half away in
    /// `f64`, then the clamp in `f32`, which is cheaper and gives the same
    /// code. The conversion to `f32` is monotone and the grid's bounds are
    /// `f32` integers, so a code past them still clamps to them, and a code
    /// within them converts exactly. A zero code may be `−0.0`, which changes
    /// no softmax bit (see `quantized::block_scores`). Codes are integers of
    /// at most 2^24 and `step` is a power of two, so `code · step` is exact
    /// and `score − max` in the softmax rounds once, as the exact `(code −
    /// max) · step` would.
    #[inline(always)]
    fn score(&self, dot: f64) -> f32 {
        let [lo, hi] = self.code_range;
        let code = (dot * self.score_factor).round() as f32;
        let code = if code > lo { code } else { lo };
        (if code < hi { code } else { hi }) * self.step
    }

    /// The score pass over `queries.len()` head columns: [`KEY_GROUP`] keys
    /// per step, each q·k sum exact and onto its score by
    /// [`CodeLanes::score`], each lane's max in one fold (a max is exact, so
    /// its order changes nothing on codes).
    #[inline(always)]
    fn scores_of(
        &self,
        scores: &mut [[f32; QUERY_BLOCK]],
        queries: &[[f64; QUERY_BLOCK]],
        keys: &[f64],
        stride: usize,
    ) -> [f32; QUERY_BLOCK] {
        let head_dim = queries.len();
        let key = |j: usize| &keys[j * stride..][..head_dim];
        let mut max = [f32::NEG_INFINITY; QUERY_BLOCK];
        let grouped = scores.len() - scores.len() % KEY_GROUP;
        let (groups, rest) = scores.split_at_mut(grouped);
        for (g, group) in groups.chunks_exact_mut(KEY_GROUP).enumerate() {
            let j = g * KEY_GROUP;
            let dots = code_dots::<KEY_GROUP>(queries, std::array::from_fn(|i| key(j + i)));
            for (score, dot) in group.iter_mut().zip(dots) {
                self.score_and_fold(score, dot, &mut max);
            }
        }
        for (i, score) in rest.iter_mut().enumerate() {
            let [dot] = code_dots::<1>(queries, [key(grouped + i)]);
            self.score_and_fold(score, dot, &mut max);
        }
        max
    }

    /// `score = self.score(dot)`, and each lane's running max.
    #[inline(always)]
    fn score_and_fold(&self, score: &mut [f32; QUERY_BLOCK], dot: [f64; QUERY_BLOCK], max: &mut [f32; QUERY_BLOCK]) {
        for ((s, d), m) in score.iter_mut().zip(dot).zip(max.iter_mut()) {
            *s = self.score(d);
            *m = if *s > *m { *s } else { *m };
        }
    }
}

/// The exact q·k sums of `G` keys with one query block, `[key][query
/// lane]`, each key's add chain independent of the others.
#[inline(always)]
fn code_dots<const G: usize>(queries: &[[f64; QUERY_BLOCK]], keys: [&[f64]; G]) -> [[f64; QUERY_BLOCK]; G] {
    let mut acc = [[0.0; QUERY_BLOCK]; G];
    for (p, column) in queries.iter().enumerate() {
        for (a, key) in acc.iter_mut().zip(keys) {
            for (a, &q) in a.iter_mut().zip(column) {
                *a = CodeLanes::mac(*a, q, key[p]);
            }
        }
    }
    acc
}

impl Lanes for CodeLanes {
    type Value = f64;

    /// Exact: fused where the build targets FMA, which gives the same bits.
    #[inline(always)]
    fn mac(acc: f64, a: f64, b: f64) -> f64 {
        if cfg!(target_feature = "fma") {
            a.mul_add(b, acc)
        } else {
            acc + a * b
        }
    }

    /// With the served head width as a constant length the `f64` dot
    /// products unroll into registers, which halved the score pass against
    /// the loop over a run-time width.
    #[inline(always)]
    fn block_scores(
        &self,
        scores: &mut [[f32; QUERY_BLOCK]],
        queries: &[[f64; QUERY_BLOCK]],
        keys: &[f64],
        stride: usize,
    ) -> [f32; QUERY_BLOCK] {
        match queries.len() {
            4 => self.scores_of(scores, &queries[..4], keys, stride),
            _ => self.scores_of(scores, queries, keys, stride),
        }
    }

    /// `denom · 2^−soft_frac`, exact: the lane's max score contributes
    /// `exp(0) = 1`, so `denom ≥ 1` and the product is a normal float.
    #[inline(always)]
    fn divisor(&self, denom: f32) -> f32 {
        denom * self.soft_step
    }

    /// The probability code `min(round(e / denom · 2^soft_frac), max)`, one
    /// division cheaper: `e / divisor` is `e / denom · 2^soft_frac` rounded
    /// once, which equals the rounded `p = e / denom` scaled exactly whenever
    /// `p` is a normal float. Below that, both quotients are under 2^−102
    /// and round to code `+0.0`. `p ≤ 1`, and `p ≥ 0` rounds to `+0.0` or
    /// above.
    #[inline(always)]
    fn weight(&self, e: f32, divisor: f32) -> f64 {
        let code = (e / divisor).round();
        f64::from(if code < self.soft_max { code } else { self.soft_max })
    }

    #[inline(always)]
    fn output(&self, acc: f64) -> f64 {
        self.attend.apply(acc)
    }
}

/// `Some(k)` when `scale == 2^-k` exactly (positive power-of-two reciprocal).
fn power_of_two_shift(scale: f32) -> Option<u32> {
    let bits = scale.to_bits();
    let mantissa = bits & 0x007F_FFFF;
    let exponent = (bits >> 23) & 0xFF;
    if scale > 0.0 && mantissa == 0 && exponent <= 127 { Some(127 - exponent) } else { None }
}

impl IntModel {
    /// Builds the integer model from already weight-quantized f32 weights.
    ///
    /// # Panics
    ///
    /// As `QuantizedTinyVbf::from_model`: activations stay on one grid
    /// between ops, and [`simd::quantize_codes`] converts codes up to ±2^24.
    pub(crate) fn build(weights: &TinyVbfWeights, scheme: &QuantScheme) -> Self {
        let name = scheme.name;
        let fixed = |role: TensorRole| {
            scheme.format_for(role).unwrap_or_else(|| panic!("integer datapath: scheme `{name}` keeps the {role:?} role float"))
        };
        let [wf, act, inter, soft] =
            [TensorRole::Weight, TensorRole::MacResult, TensorRole::Intermediate, TensorRole::Softmax].map(fixed);
        assert_eq!(act, inter, "integer datapath: scheme `{name}` puts MacResult and Intermediate on different grids");
        let codes_fit_f32 = act.max_raw() <= 1 << 24 && act.min_raw() >= -(1 << 24);
        assert!(codes_fit_f32, "integer datapath: scheme `{name}` has MacResult codes past ±2^24");
        let config = &weights.config;
        let head_dim = config.model_dim / config.num_heads;
        assert!(
            head_dim as f64 * magnitude(act) * magnitude(act) < EXACT_LIMIT,
            "integer datapath: head_dim {head_dim} on {act:?} codes exceeds the exact f64 bound"
        );
        let fa = act.frac_bits() as i32;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let dense = |w: &Tensor, b: Option<&Tensor>| IntDense::build(w, b, wf, act);
        Self {
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
            lanes: CodeLanes {
                score_factor: match power_of_two_shift(scale) {
                    Some(k) => pow2(-fa - k as i32),
                    None => f64::from(scale) * pow2(-fa),
                },
                code_range: [act.min_raw() as f32, act.max_raw() as f32],
                step: act.resolution(),
                soft_step: soft.resolution(),
                soft_max: soft.max_raw() as f32,
                attend: onto(act, pow2(-(soft.frac_bits() as i32))),
            },
        }
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
    /// `s.concat`: [`attention`]'s three passes on codes, q, k and v read in
    /// place from the fused projection.
    fn attention(&self, s: &mut CodeScratch) {
        let dim = self.model_dim;
        let qkv = [&s.qkv[..], &s.qkv[dim..], &s.qkv[2 * dim..]];
        attention(&self.lanes, qkv, 3 * dim, self.head_dim, (&mut s.concat, dim), &mut s.queries, &mut s.exps);
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
            self.attention(s);
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
    /// One query block's scores, then exponentials, `[key][query lane]`.
    exps: Vec<[f32; QUERY_BLOCK]>,
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

    /// What [`oracle_row`] saw at the attention's grid edges.
    #[derive(Debug, Default)]
    struct Edges {
        /// Score codes at the activation grid's bounds.
        saturated_scores: usize,
        /// Probability codes of 0.
        zero_probabilities: usize,
    }

    /// The integer forward of one row written out as plain per-element
    /// loops: i64 accumulators, `to_code`/`requantize_i64` for every grid
    /// change, the float boundaries through `layer_norm_f32` and
    /// `softmax_rows`, and `f64::round` for a score scale that is not a power
    /// of two. Independent of the engine's kernels, tiers and lane types.
    /// Counts into `edges` the score codes it saturates and the probability
    /// codes it rounds to 0.
    fn oracle_row(q: &crate::quantized::QuantizedTinyVbf, row: &Tensor, edges: &mut Edges) -> Vec<f32> {
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
                        edges.saturated_scores += usize::from(code == act.min_raw() || code == act.max_raw());
                        *scores.at_mut(i, j) = act.from_raw(code);
                    }
                }
                let probs = softmax_rows(&scores);
                let codes = probs.map(|p| soft.to_code(p) as f32);
                edges.zero_probabilities += codes.as_slice().iter().filter(|&&c| c == 0.0).count();
                for i in 0..tokens {
                    for d in h..h + head_dim {
                        let acc: i64 = (0..tokens).map(|j| codes.at(i, j) as i64 * vm[j * dim + d]).sum();
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
        use crate::quantized::tests::scale_query_key_weights;
        use crate::quantized::QuantizedTinyVbf;
        // tiny_test: head_dim 2, the 1/√2 score scale. The served shape:
        // head_dim 4 and the score shift. Rows of 6, 16, 37 and 130 tokens
        // cover short last query blocks and rows longer than the positional
        // table; inputs ×64 saturate the activation grids. q and k weights ×30
        // push scores past the activation grid and spread them until some
        // probabilities round to code 0: both edges are asserted reached.
        for config in [TinyVbfConfig::tiny_test(), TinyVbfConfig::small().for_frame(128, 128)] {
            for qk_scale in [1.0f32, 30.0] {
                let mut model = TinyVbf::new(&config).unwrap();
                scale_query_key_weights(&mut model, qk_scale);
                for scheme in QuantScheme::all().into_iter().filter(|s| !s.is_float()) {
                    let engine = QuantizedTinyVbf::from_model(&model, scheme);
                    let mut edges = Edges::default();
                    for (seed, tokens) in [6usize, 16, 37, 130].into_iter().enumerate() {
                        for gain in [1.0f32, 64.0] {
                            let row = neural::init::normal(&[tokens, config.channels], 0.4, 40 + seed as u64)
                                .map(|v| v.clamp(-1.0, 1.0) * gain);
                            let expect = oracle_row(&engine, &row, &mut edges);
                            let got = engine.infer_row(&row);
                            for (i, (a, b)) in expect.iter().zip(got.as_slice()).enumerate() {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "{} channels, {}, q/k ×{qk_scale}, {tokens} tokens, gain {gain}, value {i}: {a} vs {b}",
                                    config.channels,
                                    scheme.name
                                );
                            }
                            assert_eq!(expect.len(), got.as_slice().len());
                        }
                    }
                    if qk_scale != 1.0 {
                        assert!(
                            edges.saturated_scores > 0 && edges.zero_probabilities > 0,
                            "{} channels, {}: {edges:?}",
                            config.channels,
                            scheme.name
                        );
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

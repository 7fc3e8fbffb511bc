//! The Tiny-VBF inference engine and its serving adapter.
//!
//! The paper runs one network under the six schemes of Table III, Float among
//! them. This module does the same:
//!
//! * [`QuantizedTinyVbf`] — the one inference engine. It takes the scheme as a
//!   parameter. The float scheme is the identity quantizer and runs a plain
//!   `f32` datapath, bitwise equal to the training forward of [`TinyVbf`]
//!   ([`Trainable::forward_row`](crate::training::Trainable::forward_row)). Every
//!   fixed-point scheme runs **exact integer kernels** (`quantized_int`):
//!   weights become integer codes once up front, every multiply-accumulate
//!   sums integer codes exactly in `f64` lanes, and every MAC result, softmax
//!   and intermediate activation is requantized onto its scheme-assigned grid
//!   by a rounding shift. Comparing its images against float reproduces
//!   Tables IV and V and Fig. 15.
//! * [`QuantizedTinyVbfBeamformer`] — the one Tiny-VBF [`Beamformer`]:
//!   planned ToF through a shareable [`PlanCache`], row-parallel sweeps, and
//!   per-stream SQNR accuracy-proxy counters surfaced through
//!   [`Beamformer::quant_quality_stats`] so a `serve::router::Router` can
//!   expose quantization degradation per backend label under load.

use crate::inference::parallel_row_sweep;
use crate::model::{TinyVbf, TinyVbfWeights, TransformerBlockWeights};
use crate::{TinyVbfError, TinyVbfResult};
use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::pipeline::{Beamformer, QuantQualityStats};
use beamforming::plan::{BeamformPlan, FrameFormat, PlanCache, PlanCacheStats};
use beamforming::tof::TofCube;
use beamforming::{BeamformError, BeamformResult};
use neural::tensor::{matmul_into, Tensor};
use quantize::quantizer::quantize_for_role;
use quantize::{QuantScheme, TensorRole};
use std::sync::{Arc, Mutex};
use ultrasound::{ChannelData, LinearArray, PlaneWave};
use usdsp::Complex32;

/// A Tiny-VBF model with weights and datapath quantized according to a scheme.
#[derive(Debug, Clone)]
pub struct QuantizedTinyVbf {
    weights: TinyVbfWeights,
    scheme: QuantScheme,
    /// The integer-code model driving fixed-point inference; `None` for the
    /// float scheme, which runs the plain `f32` datapath.
    int: Option<Arc<crate::quantized_int::IntModel>>,
}

impl QuantizedTinyVbf {
    /// Quantizes a trained model's weights according to `scheme`, and picks
    /// the datapath once: the plain `f32` one for the float scheme, the
    /// integer one for every other.
    ///
    /// # Panics
    ///
    /// Panics, naming the role, when a scheme that is not float is one the
    /// integer datapath cannot run: a role left float, MAC results and
    /// intermediate activations on different grids, or activation codes past
    /// ±2^24. Also panics when this config's sums could pass 2^53 (see
    /// `quantized_int`). Every Table III scheme builds.
    pub fn from_model(model: &TinyVbf, scheme: QuantScheme) -> Self {
        let mut weights = model.export_weights();
        let q = |t: &Tensor| quantize_for_role(t, &scheme, TensorRole::Weight);
        weights.encoder_weight = q(&weights.encoder_weight);
        weights.encoder_bias = q(&weights.encoder_bias);
        if let Some(pos) = weights.positional.as_ref() {
            weights.positional = Some(q(pos));
        }
        for block in weights.blocks.iter_mut() {
            *block = TransformerBlockWeights {
                norm1_gamma: q(&block.norm1_gamma),
                norm1_beta: q(&block.norm1_beta),
                wq: q(&block.wq),
                wk: q(&block.wk),
                wv: q(&block.wv),
                wo: q(&block.wo),
                norm2_gamma: q(&block.norm2_gamma),
                norm2_beta: q(&block.norm2_beta),
                mlp_in_weight: q(&block.mlp_in_weight),
                mlp_in_bias: q(&block.mlp_in_bias),
                mlp_out_weight: q(&block.mlp_out_weight),
                mlp_out_bias: q(&block.mlp_out_bias),
            };
        }
        weights.decoder_in_weight = q(&weights.decoder_in_weight);
        weights.decoder_in_bias = q(&weights.decoder_in_bias);
        weights.decoder_out_weight = q(&weights.decoder_out_weight);
        weights.decoder_out_bias = q(&weights.decoder_out_bias);
        let int = (!scheme.is_float()).then(|| Arc::new(crate::quantized_int::IntModel::build(&weights, &scheme)));
        Self { weights, scheme, int }
    }

    /// The quantization scheme in use.
    pub fn scheme(&self) -> &QuantScheme {
        &self.scheme
    }

    /// The (already weight-quantized) exported weights.
    pub fn weights(&self) -> &TinyVbfWeights {
        &self.weights
    }

    /// Multi-head self-attention of one depth row, from `s.normed` into
    /// `s.branch`: the q/k/v projections, [`attention`]'s three passes per
    /// query block on `f32` lanes, and the output projection. Per element
    /// this is exactly the sequence of `Tensor::matmul` and `softmax_rows` in
    /// the training model's attention.
    fn attention_f32(&self, block: &TransformerBlockWeights, s: &mut RowScratch) {
        let config = &self.weights.config;
        let dim = config.model_dim;
        let head_dim = dim / config.num_heads;
        matmul_into(&s.normed, &block.wq, &mut s.q);
        matmul_into(&s.normed, &block.wk, &mut s.k);
        matmul_into(&s.normed, &block.wv, &mut s.v);
        let lanes = FloatLanes { scale: 1.0 / (head_dim as f32).sqrt() };
        let qkv = [&s.q[..], &s.k[..], &s.v[..]];
        attention(&lanes, qkv, dim, head_dim, (&mut s.concat, dim), &mut s.queries, &mut s.scores);
        matmul_into(&s.concat, &block.wo, &mut s.branch);
    }

    /// The float-scheme datapath over one depth row — a row-major `(tokens,
    /// channels)` slice — with every activation in `s`; returns the
    /// `(tokens, 2)` output, row-major. Same op sequence and per-element
    /// `f32` arithmetic as [`TinyVbf`]'s training forward, without its gradient
    /// caches. Also the reference the serving adapter's output-SQNR proxy
    /// compares the integer path against.
    pub(crate) fn infer_row_float<'s>(&self, row: &[f32], s: &'s mut RowScratch) -> &'s [f32] {
        let w = &self.weights;
        let config = &w.config;
        let dim = config.model_dim;
        let tokens = row.len() / config.channels;
        for buf in [&mut s.x, &mut s.normed, &mut s.q, &mut s.k, &mut s.v, &mut s.concat, &mut s.branch] {
            buf.resize(tokens * dim, 0.0);
        }
        s.out.resize(tokens * 2, 0.0);
        dense_f32(row, &w.encoder_weight, &w.encoder_bias, &mut s.x);
        if let Some(pos) = w.positional.as_ref() {
            for (r, x) in s.x.chunks_exact_mut(dim).enumerate() {
                let pr = r.min(pos.rows() - 1);
                for (x, &p) in x.iter_mut().zip(&pos.as_slice()[pr * dim..(pr + 1) * dim]) {
                    *x += p;
                }
            }
        }
        for block in &w.blocks {
            layer_norm_f32(&s.x, &block.norm1_gamma, &block.norm1_beta, &mut s.normed);
            self.attention_f32(block, s);
            add_assign(&mut s.x, &s.branch);
            layer_norm_f32(&s.x, &block.norm2_gamma, &block.norm2_beta, &mut s.normed);
            s.hidden.resize(tokens * config.mlp_dim, 0.0);
            dense_f32(&s.normed, &block.mlp_in_weight, &block.mlp_in_bias, &mut s.hidden);
            relu(&mut s.hidden);
            dense_f32(&s.hidden, &block.mlp_out_weight, &block.mlp_out_bias, &mut s.branch);
            add_assign(&mut s.x, &s.branch);
        }
        s.hidden.resize(tokens * config.decoder_dim, 0.0);
        dense_f32(&s.x, &w.decoder_in_weight, &w.decoder_in_bias, &mut s.hidden);
        relu(&mut s.hidden);
        dense_f32(&s.hidden, &w.decoder_out_weight, &w.decoder_out_bias, &mut s.out);
        for v in s.out.iter_mut() {
            *v = v.tanh();
        }
        &s.out
    }

    /// [`QuantizedTinyVbf::infer_row`] over a row-major `(tokens, channels)`
    /// slice — a depth row read in place from a `TofCube` — with the float
    /// path's activations in `scratch`. Returns the `(tokens, 2)` output,
    /// row-major.
    pub(crate) fn infer_row_into<'s>(&self, row: &[f32], scratch: &'s mut RowScratch) -> &'s [f32] {
        let channels = self.weights.config.channels;
        assert_eq!(row.len() % channels, 0, "quantized inference: channel mismatch");
        match &self.int {
            Some(int) => {
                int.infer_row(&self.weights, row, &mut scratch.codes, &mut scratch.out);
                &scratch.out
            }
            None => self.infer_row_float(row, scratch),
        }
    }

    /// Runs inference on one `(tokens, channels)` depth row — through the
    /// integer datapath for fixed-point schemes, or the plain `f32` datapath
    /// for the float scheme.
    ///
    /// # Panics
    ///
    /// Panics when the row width does not match the configured channel count.
    pub fn infer_row(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.cols(), self.weights.config.channels, "quantized inference: channel mismatch");
        let out = self.infer_row_into(row.as_slice(), &mut RowScratch::default()).to_vec();
        Tensor::from_vec(out, &[row.rows(), 2]).expect("the forward emits two values per token")
    }
}

/// Query rows per block of the float and integer attention kernels: one lane
/// each of an 8-wide register.
pub(crate) const QUERY_BLOCK: usize = 8;

/// Per-worker buffers of the float and integer forwards, reused row after row
/// so a warm worker allocates nothing per depth row.
#[derive(Debug, Default)]
pub(crate) struct RowScratch {
    /// Residual stream, `tokens × model_dim`.
    x: Vec<f32>,
    /// LayerNorm output, `tokens × model_dim`.
    normed: Vec<f32>,
    /// Query projection, `tokens × model_dim`.
    q: Vec<f32>,
    /// Key projection, `tokens × model_dim`.
    k: Vec<f32>,
    /// Value projection, `tokens × model_dim`.
    v: Vec<f32>,
    /// Head outputs side by side, `tokens × model_dim`.
    concat: Vec<f32>,
    /// Attention or MLP output before its residual add, `tokens × model_dim`.
    branch: Vec<f32>,
    /// MLP or decoder hidden layer, `tokens × mlp_dim` / `decoder_dim`.
    hidden: Vec<f32>,
    /// One query block's queries of one head, `[head column][query lane]`.
    queries: Vec<[f32; QUERY_BLOCK]>,
    /// One query block's scores, then exponentials, `[key][query lane]`.
    scores: Vec<[f32; QUERY_BLOCK]>,
    /// The `(tokens, 2)` output.
    out: Vec<f32>,
    /// The integer datapath's buffers.
    codes: crate::quantized_int::CodeScratch,
}

/// `out = input · weight + bias`, row by row.
fn dense_f32(input: &[f32], weight: &Tensor, bias: &Tensor, out: &mut [f32]) {
    matmul_into(input, weight, out);
    for row in out.chunks_exact_mut(weight.cols()) {
        add_assign(row, bias.as_slice());
    }
}

/// `x[i] += y[i]`.
fn add_assign(x: &mut [f32], y: &[f32]) {
    for (a, &b) in x.iter_mut().zip(y) {
        *a += b;
    }
}

fn relu(values: &mut [f32]) {
    for v in values {
        *v = v.max(0.0);
    }
}

/// LayerNorm of each `gamma.numel()`-wide row: the training `LayerNorm`'s
/// exact expression. The integer datapath's float boundary runs it too.
pub(crate) fn layer_norm_f32(input: &[f32], gamma: &Tensor, beta: &Tensor, out: &mut [f32]) {
    let cols = gamma.numel();
    for (x, o) in input.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
        let mean: f32 = x.iter().sum::<f32>() / cols as f32;
        let var: f32 = x.iter().map(|&v| (v - mean).powi(2)).sum::<f32>() / cols as f32;
        let inv_std = 1.0 / (var + 1e-5).sqrt();
        for ((o, &v), (&g, &b)) in o.iter_mut().zip(x).zip(gamma.as_slice().iter().zip(beta.as_slice())) {
            *o = (v - mean) * inv_std * g + b;
        }
    }
}

/// The per-element arithmetic of one engine's attention, over lanes of
/// [`Lanes::Value`]: `f32` values in the float engine ([`FloatLanes`]),
/// fixed-point codes held as exact integers in `f64` in the integer one.
/// [`attention`]'s block loop and A·V pass are written once over it; the
/// score pass has a body per lane type, as each compiled fastest.
pub(crate) trait Lanes {
    /// The element of queries, keys, values and head outputs.
    type Value: Copy + Default;
    /// `acc + a·b`.
    fn mac(acc: Self::Value, a: Self::Value, b: Self::Value) -> Self::Value;
    /// The score pass of one query block: its scores against every key,
    /// `[key][query lane]`, and each query lane's max. `keys` starts at the
    /// head's first column of key row 0 and has row stride `stride`.
    fn block_scores(
        &self,
        scores: &mut [[f32; QUERY_BLOCK]],
        queries: &[[Self::Value; QUERY_BLOCK]],
        keys: &[Self::Value],
        stride: usize,
    ) -> [f32; QUERY_BLOCK];
    /// A query lane's divisor of [`Lanes::weight`], from its softmax
    /// denominator.
    fn divisor(&self, denom: f32) -> f32;
    /// The weight of one value row from its exponential `e` and its lane's
    /// divisor: the probability.
    fn weight(&self, e: f32, divisor: f32) -> Self::Value;
    /// One head-column sum onto the output.
    fn output(&self, acc: Self::Value) -> Self::Value;
}

/// The float engine's attention arithmetic: plain `f32` operations, never
/// fused, as the training forward runs them.
struct FloatLanes {
    /// `1/√head_dim`.
    scale: f32,
}

impl Lanes for FloatLanes {
    type Value = f32;

    #[inline(always)]
    fn mac(acc: f32, a: f32, b: f32) -> f32 {
        acc + a * b
    }

    #[inline(always)]
    fn block_scores(
        &self,
        scores: &mut [[f32; QUERY_BLOCK]],
        queries: &[[f32; QUERY_BLOCK]],
        keys: &[f32],
        stride: usize,
    ) -> [f32; QUERY_BLOCK] {
        block_scores(scores, queries, keys, stride, self.scale)
    }

    #[inline(always)]
    fn divisor(&self, denom: f32) -> f32 {
        denom
    }

    #[inline(always)]
    fn weight(&self, e: f32, divisor: f32) -> f32 {
        e / divisor
    }

    #[inline(always)]
    fn output(&self, acc: f32) -> f32 {
        acc
    }
}

/// Multi-head self-attention over the rows of `concat` (`tokens ×
/// model_dim`), [`QUERY_BLOCK`] query rows at a time per head, in three
/// passes per block:
///
/// 1. [`Lanes::block_scores`]: the scores `[key][query lane]` and each
///    row's max;
/// 2. one [`runtime::simd::exp_shifted_sum`] pass, the exponentials of the
///    shifted scores and the per-row denominators summed in ascending key
///    order (interleaved across the block's rows);
/// 3. [`attend_values`]: each key's probabilities, formed as its value row
///    is read, times V, summed in ascending key order.
///
/// `qkv` holds q, k and v, each starting at column 0 of row 0 with row
/// stride `stride`; `concat` has `model_dim` columns. `queries` and `exps`
/// are the block buffers. A short last block runs zero queries in its unused
/// lanes and drops their results.
pub(crate) fn attention<L: Lanes>(
    lanes: &L,
    [q, k, v]: [&[L::Value]; 3],
    stride: usize,
    head_dim: usize,
    (concat, dim): (&mut [L::Value], usize),
    queries: &mut Vec<[L::Value; QUERY_BLOCK]>,
    exps: &mut Vec<[f32; QUERY_BLOCK]>,
) {
    let tokens = concat.len() / dim;
    queries.resize(head_dim, [L::Value::default(); QUERY_BLOCK]);
    exps.resize(tokens, [0.0; QUERY_BLOCK]);
    for head in (0..dim).step_by(head_dim) {
        for i0 in (0..tokens).step_by(QUERY_BLOCK) {
            let n = QUERY_BLOCK.min(tokens - i0);
            for (p, column) in queries.iter_mut().enumerate() {
                for (lane, x) in column.iter_mut().enumerate() {
                    *x = if lane < n { q[(i0 + lane) * stride + head + p] } else { L::Value::default() };
                }
            }
            let row_max = lanes.block_scores(exps, queries, &k[head..], stride);
            let divisors = runtime::simd::exp_shifted_sum(exps, &row_max).map(|d| lanes.divisor(d));
            let mut col = head;
            while col < head + head_dim {
                let (values, out) = ((&v[col..], stride), (&mut concat[col..], dim));
                col += if head + head_dim - col >= 4 {
                    attend_values::<L, 4>(lanes, exps, divisors, values, out, i0, n)
                } else {
                    attend_values::<L, 1>(lanes, exps, divisors, values, out, i0, n)
                };
            }
        }
    }
}

/// Keys per step of [`block_scores`], each with its own accumulators.
pub(crate) const KEY_GROUP: usize = 4;

/// The dot products of `G` keys with one query block, `[key][query lane]`:
/// the products `q · k` added in ascending head column from `0.0`. The `G`
/// keys' add chains are independent, so they overlap in the pipeline.
#[inline(always)]
fn key_group_dots<const G: usize>(queries: &[[f32; QUERY_BLOCK]], keys: [&[f32]; G]) -> [[f32; QUERY_BLOCK]; G] {
    let mut acc = [[0.0f32; QUERY_BLOCK]; G];
    for (p, column) in queries.iter().enumerate() {
        for (a, key) in acc.iter_mut().zip(keys) {
            let k = key[p];
            for (a, &q) in a.iter_mut().zip(column) {
                *a += q * k;
            }
        }
    }
    acc
}

/// `score = dot · scale`, and each lane's running max.
#[inline(always)]
fn scale_and_fold(score: &mut [f32; QUERY_BLOCK], dot: [f32; QUERY_BLOCK], scale: f32, max: &mut [f32; QUERY_BLOCK]) {
    for ((s, d), m) in score.iter_mut().zip(dot).zip(max.iter_mut()) {
        *s = d * scale;
        *m = if *s > *m { *s } else { *m };
    }
}

/// One query block's scores against every key, `[key][query lane]`, computed
/// [`KEY_GROUP`] keys per step (see [`key_group_dots`]), each dot product
/// times `scale`. `keys` starts at the head's first column of key row 0 and
/// has row stride `stride`. Returns each query lane's max score.
///
/// The max runs as one fold per key position of a group, combined at the
/// end, so no compare waits on the one before it. Against the training
/// fold in ascending key order this can change only the sign of a zero max
/// (a tiny negative dot times `scale` can round to `−0`): a NaN score never
/// wins a compare, and the largest of the others is the same in any order.
/// The sign of a zero max changes no `exp(s − max)` bit: `s − (±0)` is `s`
/// for every nonzero `s`, and a zero `s` gives `exp(±0) = 1` either way.
fn block_scores(
    scores: &mut [[f32; QUERY_BLOCK]],
    queries: &[[f32; QUERY_BLOCK]],
    keys: &[f32],
    stride: usize,
    scale: f32,
) -> [f32; QUERY_BLOCK] {
    let head_dim = queries.len();
    let key = |j: usize| &keys[j * stride..][..head_dim];
    let mut maxima = [[f32::NEG_INFINITY; QUERY_BLOCK]; KEY_GROUP];
    let grouped = scores.len() - scores.len() % KEY_GROUP;
    let (groups, rest) = scores.split_at_mut(grouped);
    for (g, group) in groups.chunks_exact_mut(KEY_GROUP).enumerate() {
        let j = g * KEY_GROUP;
        let dots = key_group_dots(queries, std::array::from_fn::<_, KEY_GROUP, _>(|i| key(j + i)));
        for ((score, dot), max) in group.iter_mut().zip(dots).zip(maxima.iter_mut()) {
            scale_and_fold(score, dot, scale, max);
        }
    }
    for (i, score) in rest.iter_mut().enumerate() {
        let [dot] = key_group_dots(queries, [key(grouped + i)]);
        scale_and_fold(score, dot, scale, &mut maxima[0]);
    }
    let [mut row_max, others @ ..] = maxima;
    for max in others {
        for (m, x) in row_max.iter_mut().zip(max) {
            *m = if x > *m { x } else { *m };
        }
    }
    row_max
}

/// `D` head columns of one query block's output: `Σ_j p[j][lane] ·
/// values[j·value_stride + d]` with the weights `p[j][lane] =
/// lanes.weight(exps[j][lane], divisors[lane])`, products added in ascending
/// `j` from zero, each sum put through [`Lanes::output`] and written to
/// `concat[(i0 + lane)·concat_stride + d]` for the block's first `n` lanes.
/// Returns `D`. The weights are formed here, as each value row is read,
/// where they overlap with the latency of the `D` add chains instead of
/// costing a pass of their own.
///
/// Kept out of line: inlined into the block loop, it compiled to code that
/// made the whole float forward about 1.7× slower on the paper grid.
#[inline(never)]
fn attend_values<L: Lanes, const D: usize>(
    lanes: &L,
    exps: &[[f32; QUERY_BLOCK]],
    divisors: [f32; QUERY_BLOCK],
    (values, value_stride): (&[L::Value], usize),
    (concat, concat_stride): (&mut [L::Value], usize),
    i0: usize,
    n: usize,
) -> usize {
    let mut acc = [[L::Value::default(); QUERY_BLOCK]; D];
    for (e, v) in exps.iter().zip(values.chunks(value_stride)) {
        let v: &[L::Value; D] = v[..D].try_into().unwrap();
        let p: [L::Value; QUERY_BLOCK] = std::array::from_fn(|l| lanes.weight(e[l], divisors[l]));
        for (a, &vd) in acc.iter_mut().zip(v) {
            for (o, &pj) in a.iter_mut().zip(&p) {
                *o = L::mac(*o, pj, vd);
            }
        }
    }
    for (d, column) in acc.iter().enumerate() {
        for (lane, &o) in column[..n].iter().enumerate() {
            concat[(i0 + lane) * concat_stride + d] = lanes.output(o);
        }
    }
    D
}

/// Tiny-VBF under any Table III scheme as a [`Beamformer`], for the
/// evaluation harness and the `serve` stack alike:
///
/// * the ToF cube goes through a cached [`BeamformPlan`]
///   ([`BeamformPlan::tof_correct_into`], bitwise identical to the direct
///   [`tof_correct`](beamforming::tof::tof_correct)), with the [`PlanCache`]
///   shareable across backends — the ToF geometry does not depend on the
///   quantization scheme, so every per-scheme engine of a router can replay
///   **one** plan ([`QuantizedTinyVbfBeamformer::with_tof_cache`]). The
///   gather returns the cube's peak, so normalizing is one scaling pass,
///   and the cube buffer is kept between frames: one spare per engine,
///   shared by its clones; a frame that finds the spare taken allocates its
///   own,
/// * the row sweep is parallel via `runtime` (bitwise identical for every
///   thread count), and batches inherit the frame-concurrent × row-parallel
///   default of [`Beamformer::beamform_batch_results`],
/// * every served frame accumulates an SQNR **accuracy proxy** — the served
///   image's middle depth row against the `f32` reference forward of that
///   row, the output signal/noise energies accumulated —
///   surfaced through [`Beamformer::quant_quality_stats`] so `RouterStats`
///   can report per-backend degradation under load.
///
/// [`Beamformer::name`] returns the scheme's serving label
/// ([`QuantScheme::backend_label`]), so registering one engine per Table III
/// scheme under `"tiny-vbf-fp"`, `"tiny-vbf-fx16"`, … is a one-line factory
/// match.
///
/// ```
/// use beamforming::pipeline::Beamformer;
/// use quantize::QuantScheme;
/// use tiny_vbf::config::TinyVbfConfig;
/// use tiny_vbf::model::TinyVbf;
/// use tiny_vbf::quantized::QuantizedTinyVbfBeamformer;
///
/// let model = TinyVbf::new(&TinyVbfConfig::tiny_test())?;
/// let backend = QuantizedTinyVbfBeamformer::new(&model, QuantScheme::hybrid2());
/// assert_eq!(backend.name(), "tiny-vbf-w8a16");
/// assert_eq!(backend.name(), QuantScheme::hybrid2().backend_label());
/// # Ok::<(), tiny_vbf::TinyVbfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedTinyVbfBeamformer {
    model: QuantizedTinyVbf,
    /// ToF plans keyed on (probe, grid, sound speed, frame format);
    /// shared by clones and, optionally, across per-scheme backends.
    tof_plans: Arc<PlanCache>,
    /// Output-SQNR accumulators (integer path vs float reference on a probe
    /// row per frame); shared by clones so serving worker clones feed one
    /// per-backend counter.
    quality: Arc<Mutex<QuantQualityStats>>,
    /// The last served frame's cube, reused by the next frame of its shape.
    spare_cube: Arc<Mutex<Option<TofCube>>>,
}

impl QuantizedTinyVbfBeamformer {
    /// Quantizes `model`'s weights under `scheme` and wraps the result as a
    /// serving backend with a ToF plan cache of
    /// [`PlanCache::DEFAULT_CAPACITY`] slots.
    pub fn new(model: &TinyVbf, scheme: QuantScheme) -> Self {
        Self::from_quantized(QuantizedTinyVbf::from_model(model, scheme))
    }

    /// Wraps an already-quantized model with a fresh default-capacity ToF
    /// plan cache.
    pub fn from_quantized(model: QuantizedTinyVbf) -> Self {
        Self::with_tof_cache(model, Arc::new(PlanCache::new(PlanCache::DEFAULT_CAPACITY)))
    }

    /// [`QuantizedTinyVbfBeamformer::from_quantized`] with an explicit —
    /// possibly shared — ToF plan cache.
    ///
    /// The ToF plan depends only on the stream geometry, never on the
    /// quantization scheme, so a router serving all Table III schemes on one
    /// probe/grid should hand every per-scheme backend the same
    /// `Arc<PlanCache>`: one plan build serves N engines instead of N
    /// rebuilding identical tables.
    pub fn with_tof_cache(model: QuantizedTinyVbf, tof_plans: Arc<PlanCache>) -> Self {
        Self {
            model,
            tof_plans,
            quality: Arc::new(Mutex::new(QuantQualityStats::default())),
            spare_cube: Arc::new(Mutex::new(None)),
        }
    }

    /// The wrapped quantized model.
    pub fn quantized(&self) -> &QuantizedTinyVbf {
        &self.model
    }

    /// The quantization scheme in use.
    pub fn scheme(&self) -> &QuantScheme {
        self.model.scheme()
    }

    /// Snapshot of the ToF plan-cache counters (hits / misses / evictions).
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.tof_plans.stats()
    }

    /// Snapshot of the accumulated output-SQNR accuracy proxy: the integer
    /// path's output against the float reference on one probe row per served
    /// frame (see `record_output_quality`).
    pub fn quality_stats(&self) -> QuantQualityStats {
        *self.quality.lock().expect("quantized quality mutex poisoned")
    }

    /// Fetches (or builds) the ToF plan for this stream shape and replays it
    /// into a normalized cube: the spare one when it has the grid's shape,
    /// else a new one. [`Self::return_cube`] hands it back.
    fn planned_cube(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<TofCube> {
        let plan = self.tof_plan(array, grid, sound_speed, &FrameFormat::of(data))?;
        let shape = (grid.num_rows(), grid.num_cols(), plan.channels());
        let spare = self.spare_cube.lock().expect("spare cube mutex poisoned").take();
        let mut cube = spare
            .filter(|cube| (cube.rows(), cube.cols(), cube.channels()) == shape)
            .unwrap_or_else(|| TofCube::zeros(shape.0, shape.1, shape.2));
        let threads = runtime::default_threads();
        let peak = plan.tof_correct_into(data, &mut cube, threads)?;
        cube.normalize_with_peak(peak, threads);
        Ok(cube)
    }

    /// Keeps `cube` as the spare unless another frame already returned one.
    fn return_cube(&self, cube: TofCube) {
        self.spare_cube.lock().expect("spare cube mutex poisoned").get_or_insert(cube);
    }

    fn tof_plan(
        &self,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
        frame: &FrameFormat,
    ) -> BeamformResult<Arc<BeamformPlan>> {
        self.tof_plans.get_or_build(array, grid, sound_speed, frame, || {
            BeamformPlan::for_tof(array, grid, PlaneWave::zero_angle(), sound_speed, *frame)
        })
    }

    /// Accumulates the SQNR proxy for one served frame from the integer
    /// datapath's **actual outputs**: the served image's middle depth row
    /// against the `f32` reference forward of the same cube row, the
    /// reference's energy versus the difference energy. This measures the
    /// degradation the scheme really delivers end to end — MAC
    /// requantization, softmax grids, saturations. Float backends run one
    /// datapath, so only their frame counter advances (SQNR stays infinite)
    /// and their signal energy never dilutes an aggregated lossy SQNR.
    fn record_output_quality(&self, cube: &TofCube, image: &IqImage) {
        let quality_for = |signal: f64, noise: f64| {
            let mut quality = self.quality.lock().expect("quantized quality mutex poisoned");
            quality.frames += 1;
            quality.signal_energy += signal;
            quality.noise_energy += noise;
        };
        if self.model.scheme().is_float() || cube.rows() == 0 {
            quality_for(0.0, 0.0);
            return;
        }
        let (row, cols) = (cube.rows() / 2, cube.cols());
        let row_len = cols * cube.channels();
        let mut scratch = RowScratch::default();
        let reference = self.model.infer_row_float(&cube.as_slice()[row * row_len..][..row_len], &mut scratch);
        let served = image.as_slice()[row * cols..][..cols].iter().flat_map(|px| [px.re, px.im]);
        let mut signal = 0.0f64;
        let mut noise = 0.0f64;
        for (&a, b) in reference.iter().zip(served) {
            signal += f64::from(a) * f64::from(a);
            let error = f64::from(a) - f64::from(b);
            noise += error * error;
        }
        quality_for(signal, noise);
    }

    /// Runs the quantized model over every row of an (already normalized)
    /// ToF cube, distributing rows over the workspace-default worker
    /// threads.
    ///
    /// # Errors
    ///
    /// Returns [`TinyVbfError::ShapeMismatch`] when the cube's channel count
    /// differs from the model's.
    pub fn beamform_cube(&self, cube: &TofCube, grid: &ImagingGrid) -> TinyVbfResult<IqImage> {
        self.beamform_cube_with_threads(cube, grid, runtime::default_threads())
    }

    /// [`QuantizedTinyVbfBeamformer::beamform_cube`] with an explicit worker
    /// thread count. Bitwise identical for every count: each depth row
    /// depends only on its own cube row.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedTinyVbfBeamformer::beamform_cube`].
    pub fn beamform_cube_with_threads(
        &self,
        cube: &TofCube,
        grid: &ImagingGrid,
        num_threads: usize,
    ) -> TinyVbfResult<IqImage> {
        let channels = self.model.weights().config.channels;
        if cube.channels() != channels {
            return Err(TinyVbfError::ShapeMismatch {
                expected: format!("{channels}-channel ToF cube"),
                actual: format!("{} channels", cube.channels()),
            });
        }
        let mut data = vec![Complex32::new(0.0, 0.0); cube.rows() * cube.cols()];
        // Each worker reuses one set of activation buffers for its rows.
        parallel_row_sweep(cube, &mut data, num_threads, &RowScratch::default, &|scratch, row, out_row| {
            let out = self.model.infer_row_into(row, scratch);
            for (px, iq) in out_row.iter_mut().zip(out.chunks_exact(2)) {
                *px = Complex32::new(iq[0], iq[1]);
            }
            Ok(())
        })?;
        Ok(IqImage::from_data(data, grid.clone())?)
    }
}

impl Beamformer for QuantizedTinyVbfBeamformer {
    /// The scheme's serving backend label (e.g. `"tiny-vbf-w8a16"`), so a
    /// router factory can register one engine per scheme by name.
    fn name(&self) -> &str {
        self.model.scheme().backend_label()
    }

    fn beamform(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<IqImage> {
        let cube = self.planned_cube(data, array, grid, sound_speed)?;
        let image = self
            .beamform_cube(&cube, grid)
            .map_err(|e| BeamformError::InvalidParameter { name: "quantized_tiny_vbf", reason: e.to_string() })?;
        // Count quality only for frames that actually served: the counters
        // mean "served frames", so a failing stream must not inflate them.
        self.record_output_quality(&cube, &image);
        self.return_cube(cube);
        Ok(image)
    }

    fn prepare(&self, array: &LinearArray, grid: &ImagingGrid, sound_speed: f32, frame: &FrameFormat) {
        // Best effort, like the other planned wrappers: build the ToF plan now
        // so the stream's first frame doesn't pay it (configuration errors
        // surface on the next beamform call instead).
        let _ = self.tof_plan(array, grid, sound_speed, frame);
    }

    fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        Some(self.cache_stats())
    }

    fn quant_quality_stats(&self) -> Option<QuantQualityStats> {
        Some(self.quality_stats())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::TinyVbfConfig;
    use crate::training::{cube_row, Trainable};
    use beamforming::tof::tof_correct;
    use neural::init::normal;
    use neural::loss::mse;
    use neural::optimizer::Adam;

    fn model_and_row() -> (TinyVbf, Tensor) {
        let config = TinyVbfConfig::tiny_test();
        let model = TinyVbf::new(&config).unwrap();
        let row = normal(&[config.tokens, config.channels], 0.4, 17).map(|v| v.clamp(-1.0, 1.0));
        (model, row)
    }

    /// Largest absolute output difference between `scheme` and the float engine.
    fn max_error_vs_float(model: &TinyVbf, row: &Tensor, scheme: QuantScheme) -> f32 {
        let reference = QuantizedTinyVbf::from_model(model, QuantScheme::float()).infer_row(row);
        let out = QuantizedTinyVbf::from_model(model, scheme).infer_row(row);
        reference.as_slice().iter().zip(out.as_slice()).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    #[test]
    fn float_engine_matches_training_forward_bitwise() {
        // (config, tokens per row, q/k weight scale): the unit-test shape, a
        // row shorter than the positional table, the small preset, the shape
        // served on the paper's 128-channel, 128-column grid, and two rows
        // whose last attention query block is short (37 = 4·8 + 5, 130 =
        // 16·8 + 2) and longer than the positional table. The last two scale
        // q and k ×30, so scores grow 900× and softmax inputs fall below
        // −103.97, where `exp` returns exactly 0: a range the seeded weights
        // with inputs in [−1, 1] never reach.
        let cases = [
            (TinyVbfConfig::tiny_test(), 6, 1.0),
            (TinyVbfConfig::tiny_test(), 4, 1.0),
            (TinyVbfConfig::small(), 32, 1.0),
            (TinyVbfConfig::small().for_frame(128, 128), 128, 1.0),
            (TinyVbfConfig::small(), 37, 1.0),
            (TinyVbfConfig::small().for_frame(128, 128), 130, 1.0),
            (TinyVbfConfig::small().for_frame(128, 128), 128, 30.0),
            (TinyVbfConfig::small().for_frame(128, 128), 130, 30.0),
        ];
        for (config, tokens, qk_scale) in cases {
            let mut model = TinyVbf::new(&config).unwrap();
            scale_query_key_weights(&mut model, qk_scale);
            let rows: Vec<Tensor> = (0..3)
                .map(|seed| normal(&[tokens, config.channels], 0.4, 100 + seed).map(|v| v.clamp(-1.0, 1.0)))
                .collect();
            let target = normal(&[tokens, 2], 0.3, 7).map(f32::tanh);
            let mut adam = Adam::new(5e-3);
            for step in 0..4 {
                let engine = QuantizedTinyVbf::from_model(&model, QuantScheme::float());
                for (r, row) in rows.iter().enumerate() {
                    let training = model.forward_row(row).unwrap();
                    if qk_scale != 1.0 {
                        let probs = model.attention_probabilities();
                        let zeros = probs.iter().flat_map(|p| p.as_slice()).filter(|&&p| p == 0.0).count();
                        assert!(zeros > 0, "{config:?} step {step} row {r}: no attention probability underflowed to 0");
                    }
                    let served = engine.infer_row(row);
                    assert_eq!(training.shape(), served.shape());
                    for (i, (a, b)) in training.as_slice().iter().zip(served.as_slice()).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{config:?} step {step} row {r} value {i}: {a} vs {b}");
                    }
                }
                // Move the weights off their initialisation before the next check.
                let (_, grad) = mse(&model.forward_row(&rows[0]).unwrap(), &target);
                model.backward_row(&grad);
                adam.step(model.params_mut());
            }
        }
    }

    /// Multiplies every block's `wq` and `wk` by `factor` in place.
    pub(crate) fn scale_query_key_weights(model: &mut TinyVbf, factor: f32) {
        let exported = model.export_weights();
        // Parameter order: encoder weight and bias, the positional table,
        // then per block norm1's two, wq, wk, wv, wo, and six more.
        let first = 2 + usize::from(exported.positional.is_some());
        let mut params = model.params_mut();
        for (b, block) in exported.blocks.iter().enumerate() {
            for (offset, weight) in [(2, &block.wq), (3, &block.wk)] {
                let param = &mut params[first + 12 * b + offset];
                assert_eq!(param.value.as_slice(), weight.as_slice(), "block {b} parameter {offset}");
                param.value = param.value.scale(factor);
            }
        }
    }

    #[test]
    fn quantization_error_grows_as_bits_shrink() {
        let (model, row) = model_and_row();
        let e24 = max_error_vs_float(&model, &row, QuantScheme::w24());
        let e16 = max_error_vs_float(&model, &row, QuantScheme::w16());
        assert!(e24 <= e16 + 1e-6, "e24 {e24} e16 {e16}");
        // 24-bit inference should stay very close to float.
        assert!(e24 < 0.05, "e24 {e24}");
    }

    #[test]
    fn hybrid_schemes_sit_between_float_and_16_bit() {
        let (model, row) = model_and_row();
        let h1 = max_error_vs_float(&model, &row, QuantScheme::hybrid1());
        let h2 = max_error_vs_float(&model, &row, QuantScheme::hybrid2());
        // Both hybrids keep the output usable (bounded error) …
        assert!(h1 < 0.5 && h2 < 0.5, "h1 {h1} h2 {h2}");
        // … and Hybrid-1 (wider datapath) is at least as accurate as Hybrid-2.
        assert!(h1 <= h2 + 0.05, "h1 {h1} h2 {h2}");
    }

    #[test]
    fn weights_are_quantized_once_up_front() {
        let (model, _) = model_and_row();
        let q = QuantizedTinyVbf::from_model(&model, QuantScheme::hybrid2());
        let format = QuantScheme::hybrid2().weights.unwrap();
        for &v in q.weights().encoder_weight.as_slice() {
            assert_eq!(v, format.quantize(v));
        }
        assert_eq!(q.scheme(), &QuantScheme::hybrid2());
    }

    fn small_frame() -> (ChannelData, LinearArray, ImagingGrid) {
        use ultrasound::{Medium, Phantom, PlaneWaveSimulator};
        let array = LinearArray::small_test_array();
        let sim = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), 0.025);
        let phantom = Phantom::builder(0.01, 0.025).add_point_target(0.0, 0.018, 1.0).build();
        let rf = sim.simulate(&phantom, PlaneWave::zero_angle()).unwrap();
        let grid = ImagingGrid::for_array(&array, 0.014, 0.008, 18, 12);
        (rf, array, grid)
    }

    fn small_model() -> (TinyVbf, ChannelData, LinearArray, ImagingGrid) {
        let (rf, array, grid) = small_frame();
        let config = TinyVbfConfig::small().for_frame(array.num_elements(), grid.num_cols());
        (TinyVbf::new(&config).unwrap(), rf, array, grid)
    }

    #[test]
    fn serving_adapter_is_bitwise_identical_to_direct_quantized_inference() {
        let (model, rf, array, grid) = small_model();
        for scheme in [QuantScheme::float(), QuantScheme::hybrid1()] {
            let quantized = QuantizedTinyVbf::from_model(&model, scheme);
            // Reference: direct ToF, normalize, then the engine row by row.
            let mut cube = tof_correct(&rf, &array, &grid, PlaneWave::zero_angle(), 1540.0).unwrap();
            cube.normalize();
            let mut pixels = Vec::with_capacity(grid.num_pixels());
            for row in 0..cube.rows() {
                let out = quantized.infer_row(&cube_row(&cube, row));
                pixels.extend((0..out.rows()).map(|col| Complex32::new(out.at(col, 0), out.at(col, 1))));
            }
            let direct = IqImage::from_data(pixels, grid.clone()).unwrap();
            let backend = QuantizedTinyVbfBeamformer::from_quantized(quantized);
            let served = backend.beamform(&rf, &array, &grid, 1540.0).unwrap();
            assert_eq!(direct, served, "{}: planned ToF + parallel sweep must not change the output", scheme.name);

            // Thread count must not change the cube sweep either.
            let cube = backend.planned_cube(&rf, &array, &grid, 1540.0).unwrap();
            let serial = backend.beamform_cube_with_threads(&cube, &grid, 1).unwrap();
            for threads in [2, 3, 8] {
                let parallel = backend.beamform_cube_with_threads(&cube, &grid, threads).unwrap();
                assert_eq!(serial, parallel, "{} threads {threads}", scheme.name);
            }

            // The serving label comes from the scheme.
            assert_eq!(backend.name(), scheme.backend_label());
            assert_eq!(backend.scheme(), &scheme);
            // Channel mismatches are reported, not panicked.
            let wrong = TofCube::zeros(4, grid.num_cols(), array.num_elements() + 1);
            assert!(backend.beamform_cube(&wrong, &grid).is_err());
        }
    }

    #[test]
    fn serving_adapter_accumulates_quality_and_shares_caches() {
        let (model, rf, array, grid) = small_model();
        let quantized = QuantizedTinyVbf::from_model(&model, QuantScheme::w16());
        let shared = Arc::new(PlanCache::new(2));
        let fixed = QuantizedTinyVbfBeamformer::with_tof_cache(quantized.clone(), Arc::clone(&shared));
        let float =
            QuantizedTinyVbfBeamformer::with_tof_cache(QuantizedTinyVbf::from_model(&model, QuantScheme::float()), shared);

        fixed.beamform(&rf, &array, &grid, 1540.0).unwrap();
        fixed.beamform(&rf, &array, &grid, 1540.0).unwrap();
        float.beamform(&rf, &array, &grid, 1540.0).unwrap();

        // One stream shape across both backends: the shared cache builds one plan.
        let cache = fixed.cache_stats();
        assert_eq!(cache.misses, 1, "per-scheme backends must share the ToF plan");
        assert_eq!(cache.hits, 2);
        assert_eq!(fixed.plan_cache_stats().unwrap().misses, 1);

        // Fixed-point backends accumulate finite SQNR; float stays noiseless.
        let q = fixed.quality_stats();
        assert_eq!(q.frames, 2);
        assert!(q.noise_energy > 0.0 && q.signal_energy > 0.0);
        // Each frame adds the planned cube's middle row: the float forward's
        // energy and its difference from the fixed-point forward.
        let cube = fixed.planned_cube(&rf, &array, &grid, 1540.0).unwrap();
        let middle = cube_row(&cube, cube.rows() / 2);
        let reference = quantized.infer_row_float(middle.as_slice(), &mut RowScratch::default()).to_vec();
        let (mut signal, mut noise) = (0.0f64, 0.0f64);
        for (&a, &b) in reference.iter().zip(quantized.infer_row(&middle).as_slice()) {
            signal += f64::from(a) * f64::from(a);
            let error = f64::from(a) - f64::from(b);
            noise += error * error;
        }
        assert_eq!((q.signal_energy, q.noise_energy), (signal + signal, noise + noise));
        assert!(q.sqnr_db().is_finite() && q.sqnr_db() > 0.0, "sqnr {}", q.sqnr_db());
        let f = float.quality_stats();
        assert_eq!(f.frames, 1);
        assert_eq!(f.noise_energy, 0.0);
        assert!(f.sqnr_db().is_infinite());
        assert_eq!(float.quant_quality_stats().unwrap(), f);

        // Clones (serving workers) feed the same counters.
        fixed.clone().beamform(&rf, &array, &grid, 1540.0).unwrap();
        assert_eq!(fixed.quality_stats().frames, 3);
    }

    #[test]
    fn reused_cube_gives_the_images_of_a_fresh_engine() {
        // Frames A, B, A where B is another frame on a taller grid, so the
        // spare cube is reused, replaced and reused again.
        let (model, rf_a, array, grid_a) = small_model();
        let rf_b = rf_a.as_slice().iter().map(|v| -0.5 * v).collect::<Vec<f32>>();
        let rf_b =
            ChannelData::from_vec(rf_b, rf_a.num_samples(), rf_a.num_channels(), rf_a.sampling_frequency()).unwrap();
        let grid_b = ImagingGrid::for_array(&array, 0.012, 0.01, 22, grid_a.num_cols());
        let frames = [(&rf_a, &grid_a), (&rf_b, &grid_b), (&rf_a, &grid_a)];
        let fresh = |rf: &ChannelData, grid: &ImagingGrid| {
            QuantizedTinyVbfBeamformer::new(&model, QuantScheme::float()).beamform(rf, &array, grid, 1540.0).unwrap()
        };
        let bits = |image: IqImage| image.to_interleaved().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let expected: Vec<Vec<u32>> = frames.iter().map(|(rf, grid)| bits(fresh(rf, grid))).collect();
        let engine = QuantizedTinyVbfBeamformer::new(&model, QuantScheme::float());
        let run = |engine: &QuantizedTinyVbfBeamformer| -> Vec<Vec<u32>> {
            frames.iter().map(|(rf, grid)| bits(engine.beamform(rf, &array, grid, 1540.0).unwrap())).collect()
        };
        assert_eq!(run(&engine), expected, "one engine");
        // Two clones share one spare: a frame that finds it taken allocates.
        let clones = [engine.clone(), engine.clone()];
        let start = std::sync::Barrier::new(clones.len());
        std::thread::scope(|scope| {
            let handles = clones.each_ref().map(|clone| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    run(clone)
                })
            });
            for handle in handles {
                assert_eq!(handle.join().unwrap(), expected, "concurrent clones");
            }
        });
    }

    #[test]
    #[should_panic(expected = "keeps the MacResult role float")]
    fn a_scheme_mixing_float_and_fixed_roles_is_rejected_at_build() {
        let (model, _) = model_and_row();
        QuantizedTinyVbf::from_model(&model, QuantScheme { mac: None, ..QuantScheme::hybrid1() });
    }

    #[test]
    #[should_panic(expected = "puts MacResult and Intermediate on different grids")]
    fn a_scheme_with_split_activation_grids_is_rejected_at_build() {
        let (model, _) = model_and_row();
        let intermediate = Some(quantize::FixedFormat::new(16, 10));
        QuantizedTinyVbf::from_model(&model, QuantScheme { intermediate, ..QuantScheme::hybrid1() });
    }

    #[test]
    #[should_panic(expected = "has MacResult codes past ±2^24")]
    fn a_scheme_with_activation_codes_past_f32_is_rejected_at_build() {
        let (model, _) = model_and_row();
        let wide = Some(quantize::FixedFormat::new(26, 20));
        QuantizedTinyVbf::from_model(&model, QuantScheme { mac: wide, intermediate: wide, ..QuantScheme::hybrid1() });
    }

    #[test]
    fn output_stays_bounded_under_all_schemes() {
        let (model, row) = model_and_row();
        for scheme in QuantScheme::all() {
            let q = QuantizedTinyVbf::from_model(&model, scheme);
            let out = q.infer_row(&row);
            assert!(out.is_finite(), "{}", scheme.name);
            assert!(out.max_abs() <= 1.01, "{}: {}", scheme.name, out.max_abs());
        }
    }
}

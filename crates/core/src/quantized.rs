//! The Tiny-VBF inference engine and its serving adapter.
//!
//! The paper runs one network under the six schemes of Table III, Float among
//! them. This module does the same:
//!
//! * [`QuantizedTinyVbf`] — the one inference engine. It takes the scheme as a
//!   parameter. The float scheme is the identity quantizer and runs a plain
//!   `f32` datapath, bitwise equal to [`TinyVbf::forward_row`]. Every
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
use beamforming::tof::{tof_correct_planned, TofCube};
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
    /// float scheme (which runs the plain `f32` datapath).
    int: Option<Arc<crate::quantized_int::IntModel>>,
}

impl QuantizedTinyVbf {
    /// Quantizes a trained model's weights according to `scheme`.
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
        let int = crate::quantized_int::IntModel::build(&weights, &scheme).map(Arc::new);
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
    /// `s.branch`, [`QUERY_BLOCK`] query rows at a time per head. Each block
    /// computes its scores as `[key][query lane]`, each row's running max,
    /// [`runtime::simd::exp`] of the shifted scores, the per-row denominators
    /// summed in ascending key order (interleaved across the block's rows),
    /// the divide, and the probabilities times V summed in ascending key
    /// order. Per element this is exactly the sequence of `Tensor::matmul`
    /// and `softmax_rows` in the training model's attention. A short last
    /// block runs zero queries in its unused lanes and drops their results.
    fn attention_f32(&self, block: &TransformerBlockWeights, s: &mut RowScratch) {
        let config = &self.weights.config;
        let dim = config.model_dim;
        let head_dim = dim / config.num_heads;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let tokens = s.normed.len() / dim;
        matmul_into(&s.normed, &block.wq, &mut s.q);
        matmul_into(&s.normed, &block.wk, &mut s.k);
        matmul_into(&s.normed, &block.wv, &mut s.v);
        s.queries.resize(head_dim, [0.0; QUERY_BLOCK]);
        s.scores.resize(tokens, [0.0; QUERY_BLOCK]);
        for head in (0..dim).step_by(head_dim) {
            for i0 in (0..tokens).step_by(QUERY_BLOCK) {
                let lanes = QUERY_BLOCK.min(tokens - i0);
                for (p, column) in s.queries.iter_mut().enumerate() {
                    for (lane, q) in column.iter_mut().enumerate() {
                        *q = if lane < lanes { s.q[(i0 + lane) * dim + head + p] } else { 0.0 };
                    }
                }
                let row_max = block_scores(&mut s.scores, &s.queries, &s.k[head..], dim, scale);
                block_softmax(&mut s.scores, row_max);
                let mut col = head;
                while col < head + head_dim {
                    let (values, concat) = (&s.v[col..], &mut s.concat[col..]);
                    col += if head + head_dim - col >= 4 {
                        attend_values::<4>(&s.scores, values, concat, i0, lanes, dim)
                    } else {
                        attend_values::<1>(&s.scores, values, concat, i0, lanes, dim)
                    };
                }
            }
        }
        matmul_into(&s.concat, &block.wo, &mut s.branch);
    }

    /// The float-scheme datapath over one depth row — a row-major `(tokens,
    /// channels)` slice — with every activation in `s`; returns the
    /// `(tokens, 2)` output, row-major. Same op sequence and per-element
    /// `f32` arithmetic as [`TinyVbf::forward_row`], without its gradient
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
        // Scheme first: struct-update construction can pair a float scheme
        // with a stale integer model, and the scheme is authoritative.
        if self.scheme.is_float() {
            return self.infer_row_float(row, scratch);
        }
        let int = self.int.as_ref().expect("fixed-point scheme requires the integer model from from_model()");
        int.infer_row(&self.weights, row, &mut scratch.codes, &mut scratch.out);
        &scratch.out
    }

    /// Runs inference on one `(tokens, channels)` depth row — through the
    /// integer datapath for fixed-point schemes, or the plain `f32` datapath
    /// for the float scheme.
    ///
    /// # Panics
    ///
    /// Panics when the row width does not match the configured channel count,
    /// or when a fixed-point scheme was attached to a model without its
    /// integer weights (only reachable by hand-assembling the struct).
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
    /// One query block's scores, then probabilities, `[key][query lane]`.
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

/// One query block's scores against every key, `[key][query lane]`: the
/// products `q · k` added in ascending head column from `0.0`, times
/// `scale`. `keys` starts at the head's first column of key row 0 and has
/// row stride `stride`. Returns each query lane's max, folded from −∞ in
/// ascending key order.
fn block_scores(
    scores: &mut [[f32; QUERY_BLOCK]],
    queries: &[[f32; QUERY_BLOCK]],
    keys: &[f32],
    stride: usize,
    scale: f32,
) -> [f32; QUERY_BLOCK] {
    let mut row_max = [f32::NEG_INFINITY; QUERY_BLOCK];
    for (scores, key) in scores.iter_mut().zip(keys.chunks(stride)) {
        let mut acc = [0.0f32; QUERY_BLOCK];
        for (column, &k) in queries.iter().zip(key) {
            for (a, &q) in acc.iter_mut().zip(column) {
                *a += q * k;
            }
        }
        for ((score, a), max) in scores.iter_mut().zip(acc).zip(row_max.iter_mut()) {
            *score = a * scale;
            *max = max.max(*score);
        }
    }
    row_max
}

/// Softmax of one query block's scores over the keys, in place: `exp(s −
/// max)` through [`runtime::simd::exp`], each lane's denominator summed in
/// ascending key order from `0.0`, then one divide per element.
fn block_softmax(scores: &mut [[f32; QUERY_BLOCK]], row_max: [f32; QUERY_BLOCK]) {
    for lane_scores in scores.iter_mut() {
        for (score, max) in lane_scores.iter_mut().zip(row_max) {
            *score -= max;
        }
    }
    runtime::simd::exp(scores.as_flattened_mut());
    let mut denom = [0.0f32; QUERY_BLOCK];
    for e in scores.iter() {
        for (d, &e) in denom.iter_mut().zip(e) {
            *d += e;
        }
    }
    for p in scores.iter_mut() {
        for (p, d) in p.iter_mut().zip(denom) {
            *p /= d;
        }
    }
}

/// `D` head columns of one query block's output: `Σ_j probs[j][lane] ·
/// values[j·stride + d]`, products added in ascending `j` from `0.0`,
/// written to `concat[(i0 + lane)·stride + d]` for the block's first `lanes`
/// lanes. Returns `D`.
///
/// Kept out of line: inlined into the block loop, it compiled to code that
/// made the whole float forward about 1.7× slower on the paper grid.
#[inline(never)]
fn attend_values<const D: usize>(
    probs: &[[f32; QUERY_BLOCK]],
    values: &[f32],
    concat: &mut [f32],
    i0: usize,
    lanes: usize,
    stride: usize,
) -> usize {
    let mut acc = [[0.0f32; QUERY_BLOCK]; D];
    for (p, v) in probs.iter().zip(values.chunks(stride)) {
        let v: &[f32; D] = v[..D].try_into().unwrap();
        for (a, &vd) in acc.iter_mut().zip(v) {
            for (o, &pj) in a.iter_mut().zip(p) {
                *o += pj * vd;
            }
        }
    }
    for (d, column) in acc.iter().enumerate() {
        for (lane, &o) in column[..lanes].iter().enumerate() {
            concat[(i0 + lane) * stride + d] = o;
        }
    }
    D
}

/// Tiny-VBF under any Table III scheme as a [`Beamformer`], for the
/// evaluation harness and the `serve` stack alike:
///
/// * the ToF cube goes through a cached dense [`BeamformPlan`]
///   ([`tof_correct_planned`], bitwise identical to the direct
///   [`tof_correct`](beamforming::tof::tof_correct)), with the [`PlanCache`]
///   shareable across backends — the ToF geometry does not depend on the
///   quantization scheme, so every per-scheme engine of a router can replay
///   **one** plan ([`QuantizedTinyVbfBeamformer::with_tof_cache`]),
/// * the row sweep is parallel via `runtime` (bitwise identical for every
///   thread count), and batches inherit the frame-concurrent × row-parallel
///   default of [`Beamformer::beamform_batch_results`],
/// * every served frame accumulates an SQNR **accuracy proxy** — one probe
///   row of the frame is inferred through both the integer datapath and the
///   `f32` reference, and the output signal/noise energies accumulate —
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
    /// Dense ToF plans keyed on (probe, grid, sound speed, frame format);
    /// shared by clones and, optionally, across per-scheme backends.
    tof_plans: Arc<PlanCache>,
    /// Output-SQNR accumulators (integer path vs float reference on a probe
    /// row per frame); shared by clones so serving worker clones feed one
    /// per-backend counter.
    quality: Arc<Mutex<QuantQualityStats>>,
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
    /// The dense ToF plan depends only on the stream geometry, never on the
    /// quantization scheme, so a router serving all Table III schemes on one
    /// probe/grid should hand every per-scheme backend the same
    /// `Arc<PlanCache>`: one plan build serves N engines instead of N
    /// rebuilding identical tables.
    pub fn with_tof_cache(model: QuantizedTinyVbf, tof_plans: Arc<PlanCache>) -> Self {
        Self { model, tof_plans, quality: Arc::new(Mutex::new(QuantQualityStats::default())) }
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

    /// Fetches (or builds) the dense ToF plan for this stream shape and
    /// replays it into a normalized cube.
    fn planned_cube(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<TofCube> {
        let plan = self.tof_plan(array, grid, sound_speed, &FrameFormat::of(data))?;
        let mut cube = tof_correct_planned(data, &plan)?;
        cube.normalize();
        Ok(cube)
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
    /// datapath's **actual outputs**: one deterministic probe row (the middle
    /// depth row) is inferred through both the integer path and the `f32`
    /// reference path, and the reference's energy versus the output
    /// difference energy feed the counters. This measures the degradation
    /// the scheme really delivers end to end — MAC requantization, softmax
    /// grids, saturations — not merely the input rounding error of the old
    /// f32 simulation. Float backends run one datapath, so only their frame
    /// counter advances (SQNR stays infinite) and their signal energy never
    /// dilutes an aggregated lossy SQNR.
    fn record_output_quality(&self, cube: &TofCube) {
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
        let row_len = cube.cols() * cube.channels();
        let start = cube.rows() / 2 * row_len;
        let input = &cube.as_slice()[start..start + row_len];
        let mut scratch = RowScratch::default();
        let reference = self.model.infer_row_float(input, &mut scratch).to_vec();
        let quantized = self.model.infer_row_into(input, &mut scratch);
        let mut signal = 0.0f64;
        let mut noise = 0.0f64;
        for (&a, &b) in reference.iter().zip(quantized) {
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
        self.record_output_quality(&cube);
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
mod tests {
    use super::*;
    use crate::config::TinyVbfConfig;
    use crate::training::cube_row;
    use beamforming::tof::tof_correct;
    use neural::init::normal;
    use neural::loss::mse;
    use neural::optimizer::{Adam, Optimizer};

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
        // (config, tokens per row): the unit-test shape, a row shorter than
        // the positional table, the small preset, the shape served on the
        // paper's 128-channel, 128-column grid, and two rows whose last
        // attention query block is short (37 = 4·8 + 5, 130 = 16·8 + 2) and
        // longer than the positional table.
        let cases = [
            (TinyVbfConfig::tiny_test(), 6),
            (TinyVbfConfig::tiny_test(), 4),
            (TinyVbfConfig::small(), 32),
            (TinyVbfConfig::small().for_frame(128, 128), 128),
            (TinyVbfConfig::small(), 37),
            (TinyVbfConfig::small().for_frame(128, 128), 130),
        ];
        for (config, tokens) in cases {
            let mut model = TinyVbf::new(&config).unwrap();
            let rows: Vec<Tensor> = (0..3)
                .map(|seed| normal(&[tokens, config.channels], 0.4, 100 + seed).map(|v| v.clamp(-1.0, 1.0)))
                .collect();
            let target = normal(&[tokens, 2], 0.3, 7).map(f32::tanh);
            let mut adam = Adam::new(5e-3);
            for step in 0..4 {
                let engine = QuantizedTinyVbf::from_model(&model, QuantScheme::float());
                for (r, row) in rows.iter().enumerate() {
                    let training = model.forward_row(row).unwrap();
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

    fn small_quantized(scheme: QuantScheme) -> (QuantizedTinyVbf, ChannelData, LinearArray, ImagingGrid) {
        let (rf, array, grid) = small_frame();
        let config = crate::config::TinyVbfConfig::small().for_frame(array.num_elements(), grid.num_cols());
        let model = TinyVbf::new(&config).unwrap();
        (QuantizedTinyVbf::from_model(&model, scheme), rf, array, grid)
    }

    #[test]
    fn serving_adapter_is_bitwise_identical_to_direct_quantized_inference() {
        for scheme in [QuantScheme::float(), QuantScheme::hybrid1()] {
            let (quantized, rf, array, grid) = small_quantized(scheme);
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
        let (quantized, rf, array, grid) = small_quantized(QuantScheme::w16());
        let shared = Arc::new(PlanCache::new(2));
        let fixed = QuantizedTinyVbfBeamformer::with_tof_cache(quantized.clone(), Arc::clone(&shared));
        let float =
            QuantizedTinyVbfBeamformer::with_tof_cache(QuantizedTinyVbf { scheme: QuantScheme::float(), ..quantized }, shared);

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

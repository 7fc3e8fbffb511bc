//! The Tiny-VBF inference engine and its serving adapter.
//!
//! The paper runs one network under the six schemes of Table III, Float among
//! them. This module does the same:
//!
//! * [`QuantizedTinyVbf`] — the one inference engine. It takes the scheme as a
//!   parameter. The float scheme is the identity quantizer and runs a plain
//!   `f32` datapath, bitwise equal to [`TinyVbf::forward_row`]. Every
//!   fixed-point scheme runs **real integer kernels** (`quantized_int`):
//!   weights become integer codes once up front, dense layers run exact
//!   i16/i32/i64 multiply-accumulates, and every MAC result, softmax and
//!   intermediate activation is requantized onto its scheme-assigned grid by
//!   an integer rounding shift. Comparing its images against float
//!   reproduces Tables IV and V and Fig. 15.
//! * [`QuantizedTinyVbfBeamformer`] — the one Tiny-VBF [`Beamformer`]:
//!   planned ToF through a shareable [`PlanCache`], row-parallel sweeps, and
//!   per-stream SQNR accuracy-proxy counters surfaced through
//!   [`Beamformer::quant_quality_stats`] so a `serve::router::Router` can
//!   expose quantization degradation per backend label under load.

use crate::inference::parallel_row_sweep;
use crate::model::{TinyVbf, TinyVbfWeights, TransformerBlockWeights};
use crate::training::cube_row;
use crate::{TinyVbfError, TinyVbfResult};
use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::pipeline::{Beamformer, QuantQualityStats};
use beamforming::plan::{BeamformPlan, FrameFormat, PlanCache, PlanCacheStats};
use beamforming::tof::{tof_correct_planned, TofCube};
use beamforming::{BeamformError, BeamformResult};
use neural::activation::softmax_rows;
use neural::tensor::Tensor;
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

    fn dense_f32(input: &Tensor, weight: &Tensor, bias: &Tensor) -> Tensor {
        input.matmul(weight).add_row_broadcast(bias)
    }

    fn layer_norm_f32(input: &Tensor, gamma: &Tensor, beta: &Tensor) -> Tensor {
        let (rows, cols) = (input.rows(), input.cols());
        let mut out = Tensor::zeros(&[rows, cols]);
        for r in 0..rows {
            let mean: f32 = (0..cols).map(|c| input.at(r, c)).sum::<f32>() / cols as f32;
            let var: f32 = (0..cols).map(|c| (input.at(r, c) - mean).powi(2)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + 1e-5).sqrt();
            for c in 0..cols {
                *out.at_mut(r, c) = (input.at(r, c) - mean) * inv_std * gamma.at(0, c) + beta.at(0, c);
            }
        }
        out
    }

    fn attention_f32(&self, input: &Tensor, block: &TransformerBlockWeights) -> Tensor {
        let config = &self.weights.config;
        let head_dim = config.model_dim / config.num_heads;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let q = input.matmul(&block.wq);
        let k = input.matmul(&block.wk);
        let v = input.matmul(&block.wv);
        let tokens = input.rows();
        let mut concat = Tensor::zeros(&[tokens, config.model_dim]);
        for h in 0..config.num_heads {
            let start = h * head_dim;
            let qh = q.slice_cols(start, head_dim);
            let kh = k.slice_cols(start, head_dim);
            let vh = v.slice_cols(start, head_dim);
            let scores = qh.matmul(&kh.transpose()).scale(scale);
            let attention = softmax_rows(&scores);
            let oh = attention.matmul(&vh);
            concat.set_cols(start, &oh);
        }
        concat.matmul(&block.wo)
    }

    /// The float-scheme datapath, also the reference the serving adapter's
    /// output-SQNR proxy compares the integer path against. Same op sequence
    /// and `f32` arithmetic as [`TinyVbf::forward_row`], without its
    /// gradient caches.
    pub(crate) fn infer_row_float(&self, row: &Tensor) -> Tensor {
        let mut x = Self::dense_f32(row, &self.weights.encoder_weight, &self.weights.encoder_bias);
        if let Some(pos) = self.weights.positional.as_ref() {
            let rows = x.rows();
            for r in 0..rows {
                let pr = r.min(pos.rows() - 1);
                for c in 0..x.cols() {
                    *x.at_mut(r, c) += pos.at(pr, c);
                }
            }
        }
        for block in &self.weights.blocks {
            let normed = Self::layer_norm_f32(&x, &block.norm1_gamma, &block.norm1_beta);
            let attended = self.attention_f32(&normed, block);
            let after_attention = x.add(&attended);
            let normed2 = Self::layer_norm_f32(&after_attention, &block.norm2_gamma, &block.norm2_beta);
            let hidden = Self::dense_f32(&normed2, &block.mlp_in_weight, &block.mlp_in_bias).map(|v| v.max(0.0));
            let mlp = Self::dense_f32(&hidden, &block.mlp_out_weight, &block.mlp_out_bias);
            x = after_attention.add(&mlp);
        }
        let hidden = Self::dense_f32(&x, &self.weights.decoder_in_weight, &self.weights.decoder_in_bias).map(|v| v.max(0.0));
        let out = Self::dense_f32(&hidden, &self.weights.decoder_out_weight, &self.weights.decoder_out_bias);
        out.map(|v| v.tanh())
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
        let config = &self.weights.config;
        assert_eq!(row.cols(), config.channels, "quantized inference: channel mismatch");
        // Scheme first: struct-update construction can pair a float scheme
        // with a stale integer model, and the scheme is authoritative.
        if self.scheme.is_float() {
            return self.infer_row_float(row);
        }
        let int = self.int.as_ref().expect("fixed-point scheme requires the integer model from from_model()");
        int.infer_row(&self.weights, row)
    }
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

    /// Snapshot of the accumulated input-quantization accuracy proxy.
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
        let input = cube_row(cube, cube.rows() / 2);
        let reference = self.model.infer_row_float(&input);
        let quantized = self.model.infer_row(&input);
        let mut signal = 0.0f64;
        let mut noise = 0.0f64;
        for (&a, &b) in reference.as_slice().iter().zip(quantized.as_slice()) {
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
        // `infer_row` needs no mutable layer caches, so "cloning" the model
        // per worker chunk is just reborrowing it.
        parallel_row_sweep(
            cube,
            &mut data,
            num_threads,
            &|| &self.model,
            &|model: &mut &QuantizedTinyVbf, input| Ok(model.infer_row(input)),
            &|out, out_row| {
                for (col, px) in out_row.iter_mut().enumerate() {
                    *px = Complex32::new(out.at(col, 0), out.at(col, 1));
                }
            },
        )?;
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
        // the positional table, the small preset and the shape served on the
        // paper's 128-channel, 128-column grid.
        let cases = [
            (TinyVbfConfig::tiny_test(), 6),
            (TinyVbfConfig::tiny_test(), 4),
            (TinyVbfConfig::small(), 32),
            (TinyVbfConfig::small().for_frame(128, 128), 128),
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

//! End-to-end experiment harness.
//!
//! Everything the benchmark binaries need to regenerate the paper's tables and figures
//! lives here: dataset construction, (reduced-scale) training of Tiny-VBF and the
//! learned baselines, beamforming every method over the PICMUS-like evaluation frames,
//! and reducing the images to the paper's metrics.

use crate::baselines::{Fcnn, TinyCnn};
use crate::config::TinyVbfConfig;
use crate::inference::{FcnnBeamformer, TinyCnnBeamformer};
use crate::model::TinyVbf;
use crate::quantized::QuantizedTinyVbfBeamformer;
use crate::training::{build_training_set, train_fcnn, train_tiny_cnn, train_tiny_vbf, TrainerConfig, TrainingHistory};
use crate::TinyVbfResult;
use beamforming::bmode::BModeImage;
use beamforming::grid::ImagingGrid;
use beamforming::mvdr::Mvdr;
use beamforming::pipeline::{Beamformer, DelayAndSum};
use quantize::QuantScheme;
use serde::{Deserialize, Serialize};
use ultrasound::dataset::TrainingSetConfig;
use ultrasound::picmus::{PicmusDataset, PicmusFrame, PicmusKind};
use ultrasound::LinearArray;
use usmetrics::psf::LateralPsf;
use usmetrics::region::CircularRoi;
use usmetrics::{contrast_metrics, resolution_metrics, ContrastMetrics, ResolutionMetrics};

/// Scale / size parameters of one evaluation run.
#[derive(Debug, Clone)]
pub struct EvaluationConfig {
    /// PICMUS probe scale in `(0, 1]` (1.0 = the full 128-channel L11-5v).
    pub scale: f32,
    /// Depth rows of the reconstruction grid.
    pub grid_rows: usize,
    /// Lateral columns of the reconstruction grid.
    pub grid_cols: usize,
    /// Shallowest reconstructed depth in metres.
    pub min_depth: f32,
    /// Deepest reconstructed depth in metres.
    pub max_depth: f32,
    /// Number of random training frames to simulate.
    pub training_frames: usize,
    /// Training epochs (the paper uses 1000; reduced runs use a handful).
    pub epochs: usize,
    /// Speed of sound assumed by all beamformers.
    pub sound_speed: f32,
    /// MVDR configuration used for targets and for the MVDR table rows.
    pub mvdr: Mvdr,
    /// Base RNG seed.
    pub seed: u64,
    /// Dynamic range for B-mode rendering.
    pub dynamic_range: f32,
}

impl EvaluationConfig {
    /// The reduced-scale configuration used by the benchmark harness: 32 channels,
    /// 128 × 48 grid over 5–42 mm, a few training frames and a short schedule. Keeps a
    /// full table regeneration in the minutes range on a laptop CPU while preserving
    /// the paper's qualitative ordering.
    pub fn reduced() -> Self {
        Self {
            scale: 0.25,
            grid_rows: 128,
            grid_cols: 48,
            min_depth: 5.0e-3,
            max_depth: 42.0e-3,
            training_frames: 3,
            epochs: 6,
            sound_speed: 1540.0,
            mvdr: Mvdr::fast(),
            seed: 2024,
            dynamic_range: 60.0,
        }
    }

    /// A minimal configuration for unit/integration tests (seconds, not minutes).
    pub fn test_size() -> Self {
        Self {
            scale: 0.15,
            grid_rows: 48,
            grid_cols: 20,
            min_depth: 8.0e-3,
            max_depth: 20.0e-3,
            training_frames: 2,
            epochs: 2,
            sound_speed: 1540.0,
            mvdr: Mvdr::fast(),
            seed: 7,
            dynamic_range: 60.0,
        }
    }

    /// The paper-scale configuration (128 channels, 368 × 128 grid, 1000 epochs).
    /// Running this end to end takes hours on a CPU; it exists so the full experiment is
    /// expressible, not because the benchmark harness runs it by default.
    pub fn paper() -> Self {
        Self {
            scale: 1.0,
            grid_rows: 368,
            grid_cols: 128,
            min_depth: 5.0e-3,
            max_depth: 45.0e-3,
            training_frames: 32,
            epochs: 1000,
            sound_speed: 1540.0,
            mvdr: Mvdr::default(),
            seed: 2024,
            dynamic_range: 60.0,
        }
    }

    /// The probe used at this scale.
    pub fn array(&self) -> LinearArray {
        PicmusDataset::contrast(PicmusKind::InSilico).with_scale(self.scale).array()
    }

    /// The reconstruction grid used at this scale.
    pub fn grid(&self) -> ImagingGrid {
        ImagingGrid::for_array(&self.array(), self.min_depth, self.max_depth - self.min_depth, self.grid_rows, self.grid_cols)
    }

    fn picmus(&self, dataset: PicmusDataset) -> PicmusDataset {
        dataset.with_scale(self.scale).with_max_depth(self.max_depth)
    }

    /// Builds the contrast evaluation frame for the given acquisition kind.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn contrast_frame(&self, kind: PicmusKind) -> TinyVbfResult<PicmusFrame> {
        Ok(self.picmus(PicmusDataset::contrast(kind)).build(self.seed ^ 0xC0)?)
    }

    /// Builds the resolution evaluation frame for the given acquisition kind.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn resolution_frame(&self, kind: PicmusKind) -> TinyVbfResult<PicmusFrame> {
        Ok(self.picmus(PicmusDataset::resolution(kind)).build(self.seed ^ 0xE5)?)
    }
}

/// The three learned models after (reduced-scale) training, plus their loss histories.
#[derive(Debug, Clone)]
pub struct TrainedModels {
    /// The trained Tiny-VBF model.
    pub tiny_vbf: TinyVbf,
    /// The trained Tiny-CNN baseline.
    pub tiny_cnn: TinyCnn,
    /// The trained FCNN baseline.
    pub fcnn: Fcnn,
    /// Loss history of Tiny-VBF training.
    pub tiny_vbf_history: TrainingHistory,
    /// Loss history of Tiny-CNN training.
    pub tiny_cnn_history: TrainingHistory,
    /// Loss history of FCNN training.
    pub fcnn_history: TrainingHistory,
}

/// Simulates a random training set and trains Tiny-VBF, Tiny-CNN and FCNN on MVDR
/// targets, all at the scale given by `config`.
///
/// # Errors
///
/// Propagates simulator and beamforming errors.
pub fn train_models(config: &EvaluationConfig) -> TinyVbfResult<TrainedModels> {
    let array = config.array();
    let grid = config.grid();
    let frames = TrainingSetConfig {
        array: array.clone(),
        max_depth: config.max_depth,
        speckle_density: 300.0 * config.scale,
        max_cysts: 2,
        max_points: 3,
        degradation_probability: 0.25,
        seed: config.seed,
        ..TrainingSetConfig::default()
    }
    .generate(config.training_frames)?;
    let examples = build_training_set(&frames, &array, &grid, config.sound_speed, &config.mvdr)?;

    let trainer = TrainerConfig::quick(config.epochs);
    let model_config = TinyVbfConfig::paper().for_frame(array.num_elements(), grid.num_cols());
    let mut tiny_vbf = TinyVbf::new(&model_config)?;
    let tiny_vbf_history = train_tiny_vbf(&mut tiny_vbf, &examples, &trainer);

    let mut tiny_cnn = TinyCnn::new(array.num_elements(), 4, config.seed)?;
    let tiny_cnn_history = train_tiny_cnn(&mut tiny_cnn, &examples, &trainer);

    let mut fcnn = Fcnn::new(array.num_elements(), 32, config.seed)?;
    let fcnn_history = train_fcnn(&mut fcnn, &examples, &trainer);

    Ok(TrainedModels { tiny_vbf, tiny_cnn, fcnn, tiny_vbf_history, tiny_cnn_history, fcnn_history })
}

/// The beamformers compared in the paper's tables, in table order:
/// DAS, MVDR, Tiny-CNN, Tiny-VBF (FCNN is included at the end for the GOPs comparison).
/// Tiny-VBF is the float-scheme serving adapter, named by its backend label
/// `tiny-vbf-fp`.
pub fn beamformer_suite(models: &TrainedModels, config: &EvaluationConfig) -> Vec<Box<dyn Beamformer>> {
    vec![
        Box::new(DelayAndSum::default()),
        Box::new(config.mvdr.clone()),
        Box::new(TinyCnnBeamformer::new(models.tiny_cnn.clone())),
        Box::new(QuantizedTinyVbfBeamformer::new(&models.tiny_vbf, QuantScheme::float())),
        Box::new(FcnnBeamformer::new(models.fcnn.clone())),
    ]
}

/// One row of the contrast tables (Table I / Table V).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContrastTableRow {
    /// Beamformer (or quantization scheme) name.
    pub beamformer: String,
    /// Mean contrast metrics over all evaluated cysts.
    pub metrics: ContrastMetrics,
}

/// One row of the resolution tables (Table II / Table IV).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolutionTableRow {
    /// Beamformer (or quantization scheme) name.
    pub beamformer: String,
    /// Mean axial/lateral FWHM over all evaluated point targets.
    pub metrics: ResolutionMetrics,
}

fn cysts_in_view(frame: &PicmusFrame, grid: &ImagingGrid) -> Vec<CircularRoi> {
    frame
        .cysts()
        .iter()
        .filter(|c| c.cz - c.radius > grid.z(0) && c.cz + c.radius < grid.z(grid.num_rows() - 1))
        .map(|c| CircularRoi::new(c.cx, c.cz, c.radius))
        .collect()
}

fn central_targets_in_view(frame: &PicmusFrame, grid: &ImagingGrid) -> Vec<(f32, f32)> {
    frame
        .point_targets()
        .iter()
        .filter(|p| p.x.abs() < 0.5e-3 && p.z > grid.z(0) + 1e-3 && p.z < grid.z(grid.num_rows() - 1) - 1e-3)
        .map(|p| (p.x, p.z))
        .collect()
}

/// Evaluates contrast metrics (mean over cysts) for a set of beamformers on one frame.
///
/// # Errors
///
/// Propagates beamforming and metric errors.
pub fn contrast_table(
    beamformers: &[Box<dyn Beamformer>],
    config: &EvaluationConfig,
    kind: PicmusKind,
) -> TinyVbfResult<Vec<ContrastTableRow>> {
    let frame = config.contrast_frame(kind)?;
    let grid = config.grid();
    let cysts = cysts_in_view(&frame, &grid);
    let mut rows = Vec::with_capacity(beamformers.len());
    for beamformer in beamformers {
        let iq = beamformer.beamform(&frame.channel_data, &frame.array, &grid, config.sound_speed)?;
        let envelope = iq.envelope();
        let mut per_cyst = Vec::with_capacity(cysts.len());
        for cyst in &cysts {
            per_cyst.push(contrast_metrics(&envelope, &grid, *cyst)?);
        }
        let metrics = ContrastMetrics::mean_of(&per_cyst)
            .unwrap_or(ContrastMetrics { cr_db: 0.0, cnr: 0.0, gcnr: 0.0 });
        rows.push(ContrastTableRow { beamformer: beamformer.name().to_string(), metrics });
    }
    Ok(rows)
}

/// Evaluates resolution metrics (mean over the central point targets) for a set of
/// beamformers on one frame.
///
/// # Errors
///
/// Propagates beamforming and metric errors.
pub fn resolution_table(
    beamformers: &[Box<dyn Beamformer>],
    config: &EvaluationConfig,
    kind: PicmusKind,
) -> TinyVbfResult<Vec<ResolutionTableRow>> {
    let frame = config.resolution_frame(kind)?;
    let grid = config.grid();
    let targets = central_targets_in_view(&frame, &grid);
    let mut rows = Vec::with_capacity(beamformers.len());
    for beamformer in beamformers {
        let iq = beamformer.beamform(&frame.channel_data, &frame.array, &grid, config.sound_speed)?;
        let envelope = iq.envelope();
        let mut per_target = Vec::new();
        for &(x, z) in &targets {
            if let Ok(m) = resolution_metrics(&envelope, &grid, x, z) {
                per_target.push(m);
            }
        }
        let metrics = ResolutionMetrics::mean_of(&per_target)
            .unwrap_or(ResolutionMetrics { axial_mm: f32::NAN, lateral_mm: f32::NAN });
        rows.push(ResolutionTableRow { beamformer: beamformer.name().to_string(), metrics });
    }
    Ok(rows)
}

/// One row of the FPGA quantization-quality tables (Tables IV and V combined).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedQualityRow {
    /// Quantization scheme name.
    pub scheme: String,
    /// Resolution metrics of the quantized model (Table IV).
    pub resolution: ResolutionMetrics,
    /// Contrast metrics of the quantized model (Table V).
    pub contrast: ContrastMetrics,
}

/// Evaluates the trained Tiny-VBF under every quantization scheme of the paper,
/// measuring both resolution (Table IV) and contrast (Table V) on the given kind.
///
/// # Errors
///
/// Propagates beamforming and metric errors.
pub fn quantized_quality_table(
    model: &TinyVbf,
    config: &EvaluationConfig,
    kind: PicmusKind,
) -> TinyVbfResult<Vec<QuantizedQualityRow>> {
    let grid = config.grid();
    let resolution_frame = config.resolution_frame(kind)?;
    let contrast_frame = config.contrast_frame(kind)?;
    let targets = central_targets_in_view(&resolution_frame, &grid);
    let cysts = cysts_in_view(&contrast_frame, &grid);

    let mut rows = Vec::new();
    for scheme in QuantScheme::all() {
        let quantized = QuantizedTinyVbfBeamformer::new(model, scheme);

        let res_iq = quantized.beamform(&resolution_frame.channel_data, &resolution_frame.array, &grid, config.sound_speed)?;
        let res_envelope = res_iq.envelope();
        let mut per_target = Vec::new();
        for &(x, z) in &targets {
            if let Ok(m) = resolution_metrics(&res_envelope, &grid, x, z) {
                per_target.push(m);
            }
        }
        let resolution = ResolutionMetrics::mean_of(&per_target)
            .unwrap_or(ResolutionMetrics { axial_mm: f32::NAN, lateral_mm: f32::NAN });

        let con_iq = quantized.beamform(&contrast_frame.channel_data, &contrast_frame.array, &grid, config.sound_speed)?;
        let con_envelope = con_iq.envelope();
        let mut per_cyst = Vec::new();
        for cyst in &cysts {
            per_cyst.push(contrast_metrics(&con_envelope, &grid, *cyst)?);
        }
        let contrast = ContrastMetrics::mean_of(&per_cyst)
            .unwrap_or(ContrastMetrics { cr_db: 0.0, cnr: 0.0, gcnr: 0.0 });

        rows.push(QuantizedQualityRow { scheme: scheme.name.to_string(), resolution, contrast });
    }
    Ok(rows)
}

/// Lateral PSF profiles for every beamformer at the requested depths (Figs. 12 and 14;
/// applied to the contrast frame it gives the Fig. 9(b) lateral variation plot).
///
/// # Errors
///
/// Propagates beamforming errors.
pub fn lateral_psfs(
    beamformers: &[Box<dyn Beamformer>],
    config: &EvaluationConfig,
    kind: PicmusKind,
    depths: &[f32],
) -> TinyVbfResult<Vec<(String, Vec<LateralPsf>)>> {
    let frame = config.resolution_frame(kind)?;
    let grid = config.grid();
    let mut out = Vec::with_capacity(beamformers.len());
    for beamformer in beamformers {
        let iq = beamformer.beamform(&frame.channel_data, &frame.array, &grid, config.sound_speed)?;
        let envelope = iq.envelope();
        let psfs = depths.iter().map(|&d| LateralPsf::from_envelope(&envelope, &grid, d)).collect();
        out.push((beamformer.name().to_string(), psfs));
    }
    Ok(out)
}

/// B-mode images of every beamformer on the contrast or resolution frame (Figs. 1(a),
/// 9(a), 10, 11, 13 and 15).
///
/// # Errors
///
/// Propagates beamforming errors.
pub fn bmode_gallery(
    beamformers: &[Box<dyn Beamformer>],
    config: &EvaluationConfig,
    kind: PicmusKind,
    use_contrast_frame: bool,
) -> TinyVbfResult<Vec<(String, BModeImage)>> {
    let frame = if use_contrast_frame { config.contrast_frame(kind)? } else { config.resolution_frame(kind)? };
    let grid = config.grid();
    let mut out = Vec::with_capacity(beamformers.len());
    for beamformer in beamformers {
        let bmode = beamformer.beamform_bmode(&frame.channel_data, &frame.array, &grid, config.sound_speed, config.dynamic_range)?;
        out.push((beamformer.name().to_string(), bmode));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_models(config: &EvaluationConfig) -> TrainedModels {
        train_models(config).expect("training should succeed at test size")
    }

    #[test]
    fn reduced_and_paper_configs_are_consistent() {
        let reduced = EvaluationConfig::reduced();
        assert_eq!(reduced.grid().num_rows(), reduced.grid_rows);
        assert_eq!(reduced.grid().num_cols(), reduced.grid_cols);
        let paper = EvaluationConfig::paper();
        assert_eq!(paper.grid_rows, 368);
        assert_eq!(paper.grid_cols, 128);
        assert_eq!(paper.array().num_elements(), 128);
        assert_eq!(paper.epochs, 1000);
    }

    #[test]
    fn training_and_contrast_table_at_test_size() {
        let config = EvaluationConfig::test_size();
        let models = quick_models(&config);
        assert!(models.tiny_vbf_history.improved() || models.tiny_vbf_history.epoch_losses.len() < 2);

        let beamformers = beamformer_suite(&models, &config);
        assert_eq!(beamformers.len(), 5);
        let table = contrast_table(&beamformers, &config, PicmusKind::InSilico).unwrap();
        assert_eq!(table.len(), 5);
        for row in &table {
            assert!(row.metrics.cr_db.is_finite(), "{}: {:?}", row.beamformer, row.metrics);
            assert!(row.metrics.gcnr >= 0.0 && row.metrics.gcnr <= 1.0);
        }
        // DAS should show a meaningful contrast on the anechoic cyst.
        let das = table.iter().find(|r| r.beamformer == "DAS").unwrap();
        assert!(das.metrics.cr_db > 3.0, "DAS CR {}", das.metrics.cr_db);
    }

    #[test]
    fn resolution_table_at_test_size() {
        let config = EvaluationConfig::test_size();
        let models = quick_models(&config);
        let beamformers = beamformer_suite(&models, &config);
        let table = resolution_table(&beamformers, &config, PicmusKind::InSilico).unwrap();
        assert_eq!(table.len(), 5);
        let das = table.iter().find(|r| r.beamformer == "DAS").unwrap();
        assert!(das.metrics.axial_mm.is_finite() && das.metrics.axial_mm > 0.0);
        assert!(das.metrics.lateral_mm.is_finite() && das.metrics.lateral_mm > 0.0);
        // Sub-centimetre widths are expected even on the coarse test grid.
        assert!(das.metrics.lateral_mm < 10.0);
    }

    #[test]
    fn psfs_and_gallery_at_test_size() {
        let config = EvaluationConfig::test_size();
        let models = quick_models(&config);
        let beamformers = beamformer_suite(&models, &config);
        let psfs = lateral_psfs(&beamformers, &config, PicmusKind::InSilico, &[15.12e-3]).unwrap();
        assert_eq!(psfs.len(), 5);
        assert_eq!(psfs[0].1.len(), 1);
        assert_eq!(psfs[0].1[0].positions_mm.len(), config.grid_cols);

        let gallery = bmode_gallery(&beamformers[..2], &config, PicmusKind::InSilico, true).unwrap();
        assert_eq!(gallery.len(), 2);
        assert!(!gallery[0].1.to_ascii(20).is_empty());
    }

    #[test]
    fn quantized_quality_rows_cover_all_schemes() {
        let config = EvaluationConfig::test_size();
        let models = quick_models(&config);
        let rows = quantized_quality_table(&models.tiny_vbf, &config, PicmusKind::InSilico).unwrap();
        assert_eq!(rows.len(), 6);
        let names: Vec<&str> = rows.iter().map(|r| r.scheme.as_str()).collect();
        assert_eq!(names, vec!["Float", "24 bits", "20 bits", "16 bits", "Hybrid-1", "Hybrid-2"]);
        for row in &rows {
            assert!(row.contrast.gcnr >= 0.0 && row.contrast.gcnr <= 1.0);
        }
    }
}

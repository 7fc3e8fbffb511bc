//! End-to-end experiment harness.
//!
//! Everything the benchmark binaries need to regenerate the paper's tables and figures
//! lives here: dataset construction, (reduced-scale) training of Tiny-VBF and the
//! learned baselines, and beamforming every method over the PICMUS-like evaluation
//! frames. One measurement, [`measure`], reduces a beamformer's images over a
//! [`SceneSet`] to the paper's metrics, for Tables I–II and IV–V and for the
//! per-rung quality profile of the `evals` crate alike.

use crate::baselines::{Fcnn, TinyCnn};
use crate::config::TinyVbfConfig;
use crate::inference::{FcnnBeamformer, TinyCnnBeamformer};
use crate::model::TinyVbf;
use crate::quantized::QuantizedTinyVbfBeamformer;
use crate::training::{build_training_set, train, TrainerConfig, TrainingExample, TrainingHistory};
use crate::{TinyVbfError, TinyVbfResult};
use beamforming::bmode::BModeImage;
use beamforming::grid::ImagingGrid;
use beamforming::mvdr::Mvdr;
use beamforming::pipeline::{Beamformer, DelayAndSum};
use quantize::QuantScheme;
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

    /// Simulates the random training frames at this scale and builds their examples:
    /// normalized ToF cubes against normalized MVDR targets.
    ///
    /// # Errors
    ///
    /// Propagates simulator and beamforming errors.
    pub fn training_set(&self) -> TinyVbfResult<Vec<TrainingExample>> {
        let array = self.array();
        let frames = TrainingSetConfig {
            array: array.clone(),
            max_depth: self.max_depth,
            speckle_density: 300.0 * self.scale,
            max_cysts: 2,
            max_points: 3,
            degradation_probability: 0.25,
            seed: self.seed,
            ..TrainingSetConfig::default()
        }
        .generate(self.training_frames)?;
        build_training_set(&frames, &array, &self.grid(), self.sound_speed, &self.mvdr)
    }

    /// The training schedule: [`TrainerConfig::quick`] over `epochs`.
    pub fn trainer(&self) -> TrainerConfig {
        TrainerConfig::quick(self.epochs)
    }

    /// An untrained Tiny-VBF of the paper's architecture, sized for this probe and grid.
    ///
    /// # Errors
    ///
    /// Returns [`TinyVbfError::InvalidConfig`] when the sized configuration is
    /// inconsistent.
    pub fn tiny_vbf(&self) -> TinyVbfResult<TinyVbf> {
        TinyVbf::new(&TinyVbfConfig::paper().for_frame(self.array().num_elements(), self.grid().num_cols()))
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

/// Trains Tiny-VBF, Tiny-CNN and FCNN on `config`'s training set, all at the scale
/// given by `config`.
///
/// # Errors
///
/// Propagates simulator, beamforming and training errors.
pub fn train_models(config: &EvaluationConfig) -> TinyVbfResult<TrainedModels> {
    let examples = config.training_set()?;
    let trainer = config.trainer();
    let channels = config.array().num_elements();

    let mut tiny_vbf = config.tiny_vbf()?;
    let tiny_vbf_history = train(&mut tiny_vbf, &examples, &trainer)?;

    let mut tiny_cnn = TinyCnn::new(channels, 4, config.seed)?;
    let tiny_cnn_history = train(&mut tiny_cnn, &examples, &trainer)?;

    let mut fcnn = Fcnn::new(channels, 32, config.seed)?;
    let fcnn_history = train(&mut fcnn, &examples, &trainer)?;

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

/// One beamformer's image quality over a [`SceneSet`]: a row of Tables I–II (keyed by
/// beamformer) or of Tables IV–V (keyed by quantization scheme).
#[derive(Debug, Clone, PartialEq)]
pub struct QualityRow {
    /// Beamformer (or quantization scheme) name.
    pub name: String,
    /// Mean contrast metrics over every cyst of the contrast frames.
    pub contrast: ContrastMetrics,
    /// Mean axial/lateral FWHM over the central point targets resolved; NaN when none
    /// is.
    pub resolution: ResolutionMetrics,
}

/// The frames a [`measure`] renders and the regions it scores: contrast frames with
/// their cysts inside the grid, and one resolution frame with its near-axis point
/// targets inside the grid. Built and checked once, then shared by every beamformer
/// measured on it.
#[derive(Debug, Clone)]
pub struct SceneSet {
    grid: ImagingGrid,
    sound_speed: f32,
    contrast: Vec<(PicmusFrame, Vec<CircularRoi>)>,
    resolution: (PicmusFrame, Vec<(f32, f32)>),
}

impl SceneSet {
    /// Builds `config`'s contrast frames of the `contrast` kinds, in order, and its
    /// resolution frame of the `resolution` kind.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors, and returns [`TinyVbfError::InvalidConfig`] when
    /// `contrast` is empty, a contrast frame has no cyst inside the grid, or the
    /// resolution frame has no central point target inside it: a measurement of
    /// nothing must not score anything.
    pub fn new(config: &EvaluationConfig, contrast: &[PicmusKind], resolution: PicmusKind) -> TinyVbfResult<Self> {
        if contrast.is_empty() {
            return Err(TinyVbfError::InvalidConfig("a scene set needs a contrast frame".into()));
        }
        let grid = config.grid();
        let mut contrast_frames = Vec::with_capacity(contrast.len());
        for &kind in contrast {
            let frame = config.contrast_frame(kind)?;
            let cysts = cysts_in_view(&frame, &grid);
            if cysts.is_empty() {
                return Err(TinyVbfError::InvalidConfig(format!(
                    "the {kind:?} contrast scene has no cyst inside the evaluation grid"
                )));
            }
            contrast_frames.push((frame, cysts));
        }
        let frame = config.resolution_frame(resolution)?;
        let targets = central_targets_in_view(&frame, &grid);
        if targets.is_empty() {
            return Err(TinyVbfError::InvalidConfig(format!(
                "no central point target of the {resolution:?} resolution scene falls inside the evaluation grid"
            )));
        }
        Ok(Self { grid, sound_speed: config.sound_speed, contrast: contrast_frames, resolution: (frame, targets) })
    }
}

/// Cysts of `frame` fully inside the grid's depth view.
fn cysts_in_view(frame: &PicmusFrame, grid: &ImagingGrid) -> Vec<CircularRoi> {
    frame
        .cysts()
        .iter()
        .filter(|c| c.cz - c.radius > grid.z(0) && c.cz + c.radius < grid.z(grid.num_rows() - 1))
        .map(|c| CircularRoi::new(c.cx, c.cz, c.radius))
        .collect()
}

/// Near-axis point targets of `frame` inside the grid's depth view.
fn central_targets_in_view(frame: &PicmusFrame, grid: &ImagingGrid) -> Vec<(f32, f32)> {
    frame
        .point_targets()
        .iter()
        .filter(|p| p.x.abs() < 0.5e-3 && p.z > grid.z(0) + 1e-3 && p.z < grid.z(grid.num_rows() - 1) - 1e-3)
        .map(|p| (p.x, p.z))
        .collect()
}

/// Renders `beamformer` over `scenes`, the contrast frames in order and then the
/// resolution frame, and reduces the images to the paper's metrics: CR/CNR/gCNR
/// averaged over every cyst of every contrast frame, and axial/lateral FWHM averaged
/// over the central targets whose peak the image keeps. A beamformer that keeps none
/// reports NaN widths, visible in the tables rather than silently absent.
///
/// # Errors
///
/// Propagates beamforming and contrast-metric errors.
pub fn measure(beamformer: &dyn Beamformer, scenes: &SceneSet) -> TinyVbfResult<QualityRow> {
    let grid = &scenes.grid;
    let envelope = |frame: &PicmusFrame| -> TinyVbfResult<Vec<f32>> {
        Ok(beamformer.beamform(&frame.channel_data, &frame.array, grid, scenes.sound_speed)?.envelope())
    };
    let mut per_cyst = Vec::new();
    for (frame, cysts) in &scenes.contrast {
        let envelope = envelope(frame)?;
        for &cyst in cysts {
            per_cyst.push(contrast_metrics(&envelope, grid, cyst)?);
        }
    }
    let (frame, targets) = &scenes.resolution;
    let envelope = envelope(frame)?;
    let per_target: Vec<ResolutionMetrics> =
        targets.iter().filter_map(|&(x, z)| resolution_metrics(&envelope, grid, x, z).ok()).collect();
    Ok(QualityRow {
        name: beamformer.name().to_string(),
        contrast: ContrastMetrics::mean_of(&per_cyst).expect("SceneSet::new checks every contrast frame for a cyst"),
        resolution: ResolutionMetrics::mean_of(&per_target)
            .unwrap_or(ResolutionMetrics { axial_mm: f32::NAN, lateral_mm: f32::NAN }),
    })
}

/// Lateral PSF profiles of every beamformer on `frame` at the requested depths: Figs.
/// 12 and 14 on the resolution frames, Fig. 9(b) on the in-silico contrast frame.
///
/// # Errors
///
/// Propagates beamforming errors.
pub fn lateral_psfs(
    beamformers: &[Box<dyn Beamformer>],
    config: &EvaluationConfig,
    frame: &PicmusFrame,
    depths: &[f32],
) -> TinyVbfResult<Vec<(String, Vec<LateralPsf>)>> {
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

/// B-mode images of every beamformer on `frame` (Figs. 1(a), 9(a), 10, 11, 13 and 15).
///
/// # Errors
///
/// Propagates beamforming errors.
pub fn bmode_gallery(
    beamformers: &[Box<dyn Beamformer>],
    config: &EvaluationConfig,
    frame: &PicmusFrame,
) -> TinyVbfResult<Vec<(String, BModeImage)>> {
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
    use std::sync::OnceLock;

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

    /// The models trained once at test size, shared by the tests below.
    fn quick_models() -> &'static TrainedModels {
        static MODELS: OnceLock<TrainedModels> = OnceLock::new();
        MODELS.get_or_init(|| train_models(&EvaluationConfig::test_size()).expect("training should succeed at test size"))
    }

    fn in_silico_scenes(config: &EvaluationConfig) -> SceneSet {
        SceneSet::new(config, &[PicmusKind::InSilico], PicmusKind::InSilico).unwrap()
    }

    #[test]
    fn training_and_contrast_table_at_test_size() {
        let config = EvaluationConfig::test_size();
        let models = quick_models();
        assert!(models.tiny_vbf_history.improved() || models.tiny_vbf_history.epoch_losses.len() < 2);

        let beamformers = beamformer_suite(models, &config);
        assert_eq!(beamformers.len(), 5);
        let scenes = in_silico_scenes(&config);
        let rows: Vec<QualityRow> = beamformers.iter().map(|b| measure(b.as_ref(), &scenes).unwrap()).collect();
        for row in &rows {
            assert!(row.contrast.cr_db.is_finite(), "{}: {:?}", row.name, row.contrast);
            assert!((0.0..=1.0).contains(&row.contrast.gcnr), "{}: {:?}", row.name, row.contrast);
        }
        // DAS should show a meaningful contrast on the anechoic cyst.
        let das = &rows[0];
        assert_eq!(das.name, "DAS");
        assert!(das.contrast.cr_db > 3.0, "DAS CR {}", das.contrast.cr_db);
    }

    #[test]
    fn resolution_table_at_test_size() {
        let config = EvaluationConfig::test_size();
        let scenes = in_silico_scenes(&config);
        let rows: Vec<QualityRow> =
            beamformer_suite(quick_models(), &config).iter().map(|b| measure(b.as_ref(), &scenes).unwrap()).collect();
        assert_eq!(rows.len(), 5);
        let das = &rows[0];
        assert_eq!(das.name, "DAS");
        assert!(das.resolution.axial_mm.is_finite() && das.resolution.axial_mm > 0.0);
        assert!(das.resolution.lateral_mm.is_finite() && das.resolution.lateral_mm > 0.0);
        // Sub-centimetre widths are expected even on the coarse test grid.
        assert!(das.resolution.lateral_mm < 10.0);
    }

    #[test]
    fn psfs_and_gallery_at_test_size() {
        let config = EvaluationConfig::test_size();
        let beamformers = beamformer_suite(quick_models(), &config);
        let resolution_frame = config.resolution_frame(PicmusKind::InSilico).unwrap();
        let psfs = lateral_psfs(&beamformers, &config, &resolution_frame, &[15.12e-3]).unwrap();
        assert_eq!(psfs.len(), 5);
        assert_eq!(psfs[0].1.len(), 1);
        assert_eq!(psfs[0].1[0].positions_mm.len(), config.grid_cols);

        let contrast_frame = config.contrast_frame(PicmusKind::InSilico).unwrap();
        let gallery = bmode_gallery(&beamformers[..2], &config, &contrast_frame).unwrap();
        assert_eq!(gallery.len(), 2);
        assert!(!gallery[0].1.to_ascii(20).is_empty());
    }

    #[test]
    fn quantized_quality_rows_cover_all_schemes() {
        let config = EvaluationConfig::test_size();
        let models = quick_models();
        let scenes = in_silico_scenes(&config);
        let rows: Vec<QualityRow> = QuantScheme::all()
            .into_iter()
            .map(|scheme| measure(&QuantizedTinyVbfBeamformer::new(&models.tiny_vbf, scheme), &scenes).unwrap())
            .collect();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["tiny-vbf-fp", "tiny-vbf-fx24", "tiny-vbf-fx20", "tiny-vbf-fx16", "tiny-vbf-w8a20", "tiny-vbf-w8a16"]
        );
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.contrast.gcnr), "{}: {:?}", row.name, row.contrast);
        }
        let suite_tiny_vbf = measure(beamformer_suite(models, &config)[3].as_ref(), &scenes).unwrap();
        assert_eq!(rows[0].contrast, suite_tiny_vbf.contrast, "the float rung is the suite's Tiny-VBF");
    }

    #[test]
    fn a_scene_set_with_no_cyst_in_view_is_rejected() {
        // The grid starts at 10 mm: the 13 mm cyst (4 mm radius) sticks out above it,
        // while the 15.12 mm point targets stay inside.
        let config = EvaluationConfig { min_depth: 10.0e-3, ..EvaluationConfig::test_size() };
        let error = SceneSet::new(&config, &[PicmusKind::InSilico], PicmusKind::InSilico).unwrap_err();
        assert!(matches!(&error, TinyVbfError::InvalidConfig(why) if why.contains("cyst")), "{error}");
        assert!(SceneSet::new(&config, &[], PicmusKind::InSilico).is_err());
    }
}

//! Dataset assembly and the training loop.
//!
//! Following the paper: the network input is the ToF-corrected channel-data cube
//! normalized to `[-1, 1]`, the regression target is the MVDR-beamformed IQ image
//! (also peak-normalized), and the loss is mean squared error on the IQ values *before*
//! log compression, optimised with Adam under a cyclic polynomial-decay learning-rate
//! schedule. One loop, [`train`], trains every [`Trainable`] model: Tiny-VBF on the IQ
//! targets, the Tiny-CNN and FCNN baselines on their real (RF) part.

use crate::TinyVbfResult;
use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::mvdr::Mvdr;
use beamforming::tof::{tof_correct, TofCube};
use neural::layer::Param;
use neural::loss::mse;
use neural::optimizer::Adam;
use neural::schedule::{LrSchedule, PolynomialDecay};
use neural::tensor::Tensor;
use serde::{Deserialize, Serialize};
use ultrasound::dataset::TrainingFrame;
use ultrasound::{LinearArray, PlaneWave};

/// One training example: normalized ToF cube input and normalized MVDR IQ target.
#[derive(Debug, Clone)]
pub struct TrainingExample {
    /// Peak-normalized ToF-corrected channel cube (the network input).
    pub input: TofCube,
    /// Peak-normalized MVDR IQ image (the regression target).
    pub target: IqImage,
}

impl TrainingExample {
    /// Extracts the `(tokens, channels)` input tensor for one depth row.
    pub fn input_row(&self, row: usize) -> Tensor {
        cube_row(&self.input, row)
    }

    /// Extracts one depth row of the target: `(tokens, 2)` IQ values, or the
    /// `(tokens, 1)` RF (real) part the adaptive-DAS baselines regress onto.
    pub fn target_row(&self, row: usize, kind: TargetKind) -> Tensor {
        let cols = self.target.num_cols();
        let width = match kind {
            TargetKind::Iq => 2,
            TargetKind::Rf => 1,
        };
        let mut t = Tensor::zeros(&[cols, width]);
        for col in 0..cols {
            let v = self.target.value(row, col);
            *t.at_mut(col, 0) = v.re;
            if kind == TargetKind::Iq {
                *t.at_mut(col, 1) = v.im;
            }
        }
        t
    }

    /// Number of depth rows.
    pub fn num_rows(&self) -> usize {
        self.input.rows()
    }
}

/// Extracts one depth row of a ToF cube as a `(cols, channels)` tensor.
pub fn cube_row(cube: &TofCube, row: usize) -> Tensor {
    let cols = cube.cols();
    let channels = cube.channels();
    let mut t = Tensor::zeros(&[cols, channels]);
    for col in 0..cols {
        for (ch, &v) in cube.pixel_channels(row, col).iter().enumerate() {
            *t.at_mut(col, ch) = v;
        }
    }
    t
}

/// Builds training examples from simulated acquisitions: ToF-corrects each frame and
/// beamforms its MVDR target, normalizing both to `[-1, 1]`.
///
/// # Errors
///
/// Propagates beamforming errors (shape mismatches, singular covariances).
pub fn build_training_set(
    frames: &[TrainingFrame],
    array: &LinearArray,
    grid: &ImagingGrid,
    sound_speed: f32,
    mvdr: &Mvdr,
) -> TinyVbfResult<Vec<TrainingExample>> {
    let mut examples = Vec::with_capacity(frames.len());
    for frame in frames {
        let mut cube = tof_correct(&frame.channel_data, array, grid, PlaneWave::zero_angle(), sound_speed)?;
        cube.normalize();
        let iq = mvdr.beamform_iq(&frame.channel_data, array, grid, sound_speed)?;
        let peak = iq.peak().max(1e-12);
        let normalized: Vec<usdsp::Complex32> = iq.as_slice().iter().map(|c| *c / peak).collect();
        let target = IqImage::from_data(normalized, grid.clone())?;
        examples.push(TrainingExample { input: cube, target });
    }
    Ok(examples)
}

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Number of passes over the training examples.
    pub epochs: usize,
    /// Learning-rate schedule (the paper's polynomial decay).
    pub schedule: PolynomialDecay,
    /// Optimizer steps are taken every `rows_per_step` depth rows (gradient
    /// accumulation), emulating the paper's batch size of 10 samples.
    pub rows_per_step: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self { epochs: 1000, schedule: PolynomialDecay::paper(), rows_per_step: 10 }
    }
}

impl TrainerConfig {
    /// A short schedule used by tests, examples and the reduced evaluation pipeline.
    pub fn quick(epochs: usize) -> Self {
        Self { epochs, schedule: PolynomialDecay::compressed(epochs as u64 * 4), rows_per_step: 8 }
    }
}

/// Per-epoch loss history of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainingHistory {
    /// Loss of the final epoch (`None` when no epochs ran).
    pub fn final_loss(&self) -> Option<f32> {
        self.epoch_losses.last().copied()
    }

    /// Whether the loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(first), Some(last)) => last < first,
            _ => false,
        }
    }
}

/// Which target a model regresses onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// The IQ image, two values per pixel (Tiny-VBF).
    Iq,
    /// The RF (real) part, one value per pixel (the adaptive-DAS baselines).
    Rf,
}

/// A model [`train`] can fit: a row forward that caches what its backward needs, a
/// backward that accumulates parameter gradients, and the parameters Adam updates.
pub trait Trainable {
    /// The target the model's output is compared against.
    const TARGET: TargetKind;

    /// Forward pass for one `(tokens, channels)` depth row, caching activations for
    /// [`backward_row`](Self::backward_row).
    ///
    /// # Errors
    ///
    /// Returns [`TinyVbfError::ShapeMismatch`](crate::TinyVbfError::ShapeMismatch)
    /// when the row width differs from the model's channel count.
    fn forward_row(&mut self, row: &Tensor) -> TinyVbfResult<Tensor>;

    /// Backward pass for the most recent [`forward_row`](Self::forward_row), given the
    /// gradient of the loss with respect to its output. Accumulates parameter
    /// gradients.
    fn backward_row(&mut self, grad_output: &Tensor);

    /// Mutable access to every trainable parameter (for the optimizer).
    fn params_mut(&mut self) -> Vec<&mut Param>;
}

/// Trains `model` on `examples` under `config`: MSE against the model's
/// [`Trainable::TARGET`], one Adam step every `rows_per_step` rows, and one at the end
/// of an epoch when rows are pending. Returns the mean loss of every epoch.
///
/// # Errors
///
/// Returns the first forward error, e.g. a
/// [`TinyVbfError::ShapeMismatch`](crate::TinyVbfError::ShapeMismatch) when the
/// examples' channel count differs from the model's.
pub fn train<M: Trainable>(
    model: &mut M,
    examples: &[TrainingExample],
    config: &TrainerConfig,
) -> TinyVbfResult<TrainingHistory> {
    let mut adam = Adam::new(config.schedule.learning_rate(0).max(1e-8));
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        adam.set_learning_rate(config.schedule.learning_rate(epoch as u64));
        let (mut loss_sum, mut rows, mut pending) = (0.0f32, 0usize, 0usize);
        for example in examples {
            for row in 0..example.num_rows() {
                let prediction = model.forward_row(&example.input_row(row))?;
                let (loss, grad) = mse(&prediction, &example.target_row(row, M::TARGET));
                model.backward_row(&grad);
                loss_sum += loss;
                rows += 1;
                pending += 1;
                if pending >= config.rows_per_step {
                    adam.step(model.params_mut());
                    pending = 0;
                }
            }
        }
        if pending > 0 {
            adam.step(model.params_mut());
        }
        epoch_losses.push(if rows > 0 { loss_sum / rows as f32 } else { 0.0 });
    }
    Ok(TrainingHistory { epoch_losses })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{Fcnn, TinyCnn};
    use crate::config::TinyVbfConfig;
    use crate::model::TinyVbf;
    use crate::TinyVbfError;
    use ultrasound::dataset::TrainingSetConfig;
    use ultrasound::LinearArray;

    fn small_setup() -> (Vec<TrainingExample>, LinearArray, ImagingGrid) {
        let array = LinearArray::small_test_array();
        let grid = ImagingGrid::for_array(&array, 0.012, 0.008, 24, 16);
        let frames = TrainingSetConfig {
            array: array.clone(),
            max_depth: 0.022,
            speckle_density: 40.0,
            max_cysts: 1,
            max_points: 2,
            degradation_probability: 0.0,
            ..TrainingSetConfig::small()
        }
        .generate(2)
        .unwrap();
        let examples = build_training_set(&frames, &array, &grid, 1540.0, &Mvdr::fast()).unwrap();
        (examples, array, grid)
    }

    #[test]
    fn training_set_is_normalized() {
        let (examples, _, grid) = small_setup();
        assert_eq!(examples.len(), 2);
        for ex in &examples {
            assert!(ex.input.peak() <= 1.0 + 1e-5);
            assert!(ex.target.peak() <= 1.0 + 1e-5);
            assert_eq!(ex.num_rows(), grid.num_rows());
            assert_eq!(ex.input_row(0).shape(), &[grid.num_cols(), 32]);
            assert_eq!(ex.target_row(0, TargetKind::Iq).shape(), &[grid.num_cols(), 2]);
            assert_eq!(ex.target_row(0, TargetKind::Rf).shape(), &[grid.num_cols(), 1]);
        }
    }

    #[test]
    fn tiny_vbf_training_improves_loss() {
        let (examples, array, grid) = small_setup();
        let config = TinyVbfConfig::small().for_frame(array.num_elements(), grid.num_cols());
        let mut model = TinyVbf::new(&config).unwrap();
        let history = train(&mut model, &examples, &TrainerConfig::quick(6)).unwrap();
        assert_eq!(history.epoch_losses.len(), 6);
        assert!(history.improved(), "losses {:?}", history.epoch_losses);
        assert!(history.final_loss().unwrap() > 0.0);
    }

    #[test]
    fn baseline_training_improves_loss() {
        let (examples, array, _grid) = small_setup();
        let mut cnn = TinyCnn::new(array.num_elements(), 3, 1).unwrap();
        let cnn_history = train(&mut cnn, &examples, &TrainerConfig::quick(4)).unwrap();
        assert!(cnn_history.improved(), "cnn losses {:?}", cnn_history.epoch_losses);

        let mut fcnn = Fcnn::new(array.num_elements(), 16, 1).unwrap();
        let fcnn_history = train(&mut fcnn, &examples, &TrainerConfig::quick(4)).unwrap();
        assert!(fcnn_history.improved(), "fcnn losses {:?}", fcnn_history.epoch_losses);
    }

    fn weight_bits<M: Trainable>(model: &mut M) -> Vec<u32> {
        model.params_mut().iter().flat_map(|p| p.value.as_slice().iter().map(|v| v.to_bits())).collect()
    }

    /// One epoch that steps at its last row and one that steps at its end (half a
    /// step pending) take the same single step: the epoch end adds no step on zero
    /// gradients.
    fn assert_epoch_end_adds_no_empty_step<M: Trainable + Clone>(model: &M, examples: &[TrainingExample]) {
        let rows: usize = examples.iter().map(TrainingExample::num_rows).sum();
        let one_epoch = |rows_per_step| {
            let mut trained = model.clone();
            train(&mut trained, examples, &TrainerConfig { rows_per_step, ..TrainerConfig::quick(1) }).unwrap();
            weight_bits(&mut trained)
        };
        let stepped_at_last_row = one_epoch(rows);
        assert_ne!(stepped_at_last_row, weight_bits(&mut model.clone()), "the epoch must move the weights");
        assert_eq!(stepped_at_last_row, one_epoch(2 * rows));
    }

    #[test]
    fn tiny_vbf_epoch_end_adds_no_empty_step() {
        let (examples, array, grid) = small_setup();
        let config = TinyVbfConfig::small().for_frame(array.num_elements(), grid.num_cols());
        assert_epoch_end_adds_no_empty_step(&TinyVbf::new(&config).unwrap(), &examples);
    }

    #[test]
    fn tiny_cnn_epoch_end_adds_no_empty_step() {
        let (examples, array, _grid) = small_setup();
        assert_epoch_end_adds_no_empty_step(&TinyCnn::new(array.num_elements(), 3, 1).unwrap(), &examples);
    }

    #[test]
    fn fcnn_epoch_end_adds_no_empty_step() {
        let (examples, array, _grid) = small_setup();
        assert_epoch_end_adds_no_empty_step(&Fcnn::new(array.num_elements(), 16, 1).unwrap(), &examples);
    }

    #[test]
    fn a_forward_error_stops_training() {
        let (examples, array, _grid) = small_setup();
        let mut fcnn = Fcnn::new(array.num_elements() / 2, 16, 1).unwrap();
        let error = train(&mut fcnn, &examples, &TrainerConfig::quick(2)).unwrap_err();
        assert!(matches!(error, TinyVbfError::ShapeMismatch { .. }), "{error}");
    }

    #[test]
    fn trainer_config_defaults_match_paper() {
        let cfg = TrainerConfig::default();
        assert_eq!(cfg.epochs, 1000);
        assert_eq!(cfg.rows_per_step, 10);
        assert!((cfg.schedule.initial_lr - 1e-4).abs() < 1e-9);
        assert!((cfg.schedule.final_lr - 1e-6).abs() < 1e-9);
    }

    #[test]
    fn history_helpers() {
        let h = TrainingHistory { epoch_losses: vec![] };
        assert!(h.final_loss().is_none());
        assert!(!h.improved());
        let h = TrainingHistory { epoch_losses: vec![1.0, 0.5] };
        assert_eq!(h.final_loss(), Some(0.5));
        assert!(h.improved());
    }
}

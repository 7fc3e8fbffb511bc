//! Learned baselines the paper compares against: Tiny-CNN \[7\] and FCNN \[6\].
//!
//! Both baselines predict per-channel *apodization weights* from the ToF-corrected
//! channel data and beamform by multiplying those weights with the input and summing
//! across channels — the "adaptive DAS" formulation. They differ in how the weights are
//! estimated:
//!
//! * **FCNN** (Luijten et al.) looks at each pixel's channel vector in isolation through
//!   a small fully connected stack — purely local information.
//! * **Tiny-CNN** (Mathews & Panicker) looks at a local neighbourhood in the
//!   (lateral, channel) plane through a small convolutional stack — local receptive
//!   field, unlike Tiny-VBF's global attention.
//!
//! Both produce a beamformed RF row; the envelope is obtained afterwards through the
//! Hilbert transform, exactly as in the originals.

use crate::training::{TargetKind, Trainable};
use crate::{TinyVbfError, TinyVbfResult};
use neural::activation::Relu;
use neural::conv::Conv2d;
use neural::dense::Dense;
use neural::layer::{Layer, Param};
use neural::tensor::Tensor;

/// The FCNN per-pixel adaptive beamformer baseline.
#[derive(Debug, Clone)]
pub struct Fcnn {
    channels: usize,
    hidden: Dense,
    act: Relu,
    output: Dense,
    cached_input: Option<Tensor>,
}

impl Fcnn {
    /// Creates an FCNN baseline for `channels` receive channels with a hidden width of
    /// `hidden_dim`.
    ///
    /// # Errors
    ///
    /// Returns [`TinyVbfError::InvalidConfig`] when a dimension is zero.
    pub fn new(channels: usize, hidden_dim: usize, seed: u64) -> TinyVbfResult<Self> {
        if channels == 0 || hidden_dim == 0 {
            return Err(TinyVbfError::InvalidConfig("FCNN dimensions must be nonzero".into()));
        }
        Ok(Self {
            channels,
            hidden: Dense::new(channels, hidden_dim, seed),
            act: Relu::new(),
            output: Dense::new(hidden_dim, channels, seed.wrapping_add(3)),
            cached_input: None,
        })
    }

    /// Number of receive channels this model expects.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Total trainable weights.
    pub fn num_weights(&self) -> usize {
        self.hidden.num_weights() + self.output.num_weights()
    }

    /// Inference-only forward (no caches kept for backward).
    ///
    /// # Errors
    ///
    /// Returns [`TinyVbfError::ShapeMismatch`] on a row width mismatch.
    pub fn infer_row(&mut self, row: &Tensor) -> TinyVbfResult<Tensor> {
        check_row(row, self.channels)?;
        let weights = self.output.infer(&self.act.infer(&self.hidden.infer(row)));
        Ok(weighted_sum(row, &weights))
    }
}

impl Trainable for Fcnn {
    const TARGET: TargetKind = TargetKind::Rf;

    /// Predicts apodization weights and the beamformed RF value for every pixel of a
    /// `(tokens, channels)` row. Returns the `(tokens, 1)` RF column.
    fn forward_row(&mut self, row: &Tensor) -> TinyVbfResult<Tensor> {
        check_row(row, self.channels)?;
        let weights = self.output.forward(&self.act.forward(&self.hidden.forward(row)));
        self.cached_input = Some(row.clone());
        Ok(weighted_sum(row, &weights))
    }

    /// `grad_rf` is `dL/dRF`, of shape `(tokens, 1)`.
    fn backward_row(&mut self, grad_rf: &Tensor) {
        let input = self.cached_input.as_ref().expect("Fcnn::backward_row before forward").clone();
        // RF_t = Σ_c w_tc · x_tc / C  =>  dL/dw_tc = dL/dRF_t · x_tc / C
        let grad_weights = weighted_sum_backward(&input, grad_rf);
        let grad_hidden = self.output.backward(&grad_weights);
        let grad_act = self.act.backward(&grad_hidden);
        let _ = self.hidden.backward(&grad_act);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.hidden.params_mut();
        p.extend(self.output.params_mut());
        p
    }
}

/// The Tiny-CNN adaptive beamformer baseline.
#[derive(Debug, Clone)]
pub struct TinyCnn {
    channels: usize,
    conv1: Conv2d,
    act1: Relu,
    conv2: Conv2d,
    act2: Relu,
    conv3: Conv2d,
    cached_input: Option<Tensor>,
}

impl TinyCnn {
    /// Creates a Tiny-CNN baseline for `channels` receive channels with `features`
    /// intermediate feature maps.
    ///
    /// # Errors
    ///
    /// Returns [`TinyVbfError::InvalidConfig`] when a dimension is zero.
    pub fn new(channels: usize, features: usize, seed: u64) -> TinyVbfResult<Self> {
        if channels == 0 || features == 0 {
            return Err(TinyVbfError::InvalidConfig("Tiny-CNN dimensions must be nonzero".into()));
        }
        Ok(Self {
            channels,
            conv1: Conv2d::new(1, features, 3, seed),
            act1: Relu::new(),
            conv2: Conv2d::new(features, features, 3, seed.wrapping_add(5)),
            act2: Relu::new(),
            conv3: Conv2d::new(features, 1, 3, seed.wrapping_add(9)),
            cached_input: None,
        })
    }

    /// Number of receive channels this model expects.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Total trainable weights.
    pub fn num_weights(&self) -> usize {
        self.conv1.num_weights() + self.conv2.num_weights() + self.conv3.num_weights()
    }

    fn weights_volume(&mut self, row: &Tensor, train: bool) -> Tensor {
        // Treat the (tokens, channels) row as a single-channel image.
        let volume = row.reshape(&[row.rows(), row.cols(), 1]).expect("row reshape");
        if train {
            let a = self.act1.forward(&self.conv1.forward(&volume));
            let b = self.act2.forward(&self.conv2.forward(&a));
            self.conv3.forward(&b)
        } else {
            let a = self.act1.infer(&self.conv1.infer(&volume));
            let b = self.act2.infer(&self.conv2.infer(&a));
            self.conv3.infer(&b)
        }
    }

    /// Inference-only forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`TinyVbfError::ShapeMismatch`] on a row width mismatch.
    pub fn infer_row(&mut self, row: &Tensor) -> TinyVbfResult<Tensor> {
        check_row(row, self.channels)?;
        let weights_volume = self.weights_volume(row, false);
        let weights = weights_volume.reshape(&[row.rows(), row.cols()]).expect("weights reshape");
        Ok(weighted_sum(row, &weights))
    }
}

impl Trainable for TinyCnn {
    const TARGET: TargetKind = TargetKind::Rf;

    /// Predicts apodization weights and returns the beamformed `(tokens, 1)` RF column.
    fn forward_row(&mut self, row: &Tensor) -> TinyVbfResult<Tensor> {
        check_row(row, self.channels)?;
        let weights_volume = self.weights_volume(row, true);
        let weights = weights_volume.reshape(&[row.rows(), row.cols()]).expect("weights reshape");
        self.cached_input = Some(row.clone());
        Ok(weighted_sum(row, &weights))
    }

    fn backward_row(&mut self, grad_rf: &Tensor) {
        let input = self.cached_input.as_ref().expect("TinyCnn::backward_row before forward").clone();
        let grad_weights = weighted_sum_backward(&input, grad_rf);
        let grad_volume = grad_weights
            .reshape(&[grad_weights.rows(), grad_weights.cols(), 1])
            .expect("grad reshape");
        let g3 = self.conv3.backward(&grad_volume);
        let g2 = self.conv2.backward(&self.act2.backward(&g3));
        let _ = self.conv1.backward(&self.act1.backward(&g2));
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.conv1.params_mut();
        p.extend(self.conv2.params_mut());
        p.extend(self.conv3.params_mut());
        p
    }
}

/// Rejects a row that is not `(tokens, channels)`.
fn check_row(row: &Tensor, channels: usize) -> TinyVbfResult<()> {
    if row.shape().len() != 2 || row.cols() != channels {
        return Err(TinyVbfError::ShapeMismatch {
            expected: format!("(tokens, {channels})"),
            actual: format!("{:?}", row.shape()),
        });
    }
    Ok(())
}

/// Adaptive-DAS output: `RF_t = (1/C) Σ_c w_tc · x_tc` for every token `t`.
fn weighted_sum(input: &Tensor, weights: &Tensor) -> Tensor {
    assert_eq!(input.shape(), weights.shape(), "weighted_sum shape mismatch");
    let (tokens, channels) = (input.rows(), input.cols());
    let mut out = Tensor::zeros(&[tokens, 1]);
    for t in 0..tokens {
        let mut acc = 0.0f32;
        for c in 0..channels {
            acc += input.at(t, c) * weights.at(t, c);
        }
        *out.at_mut(t, 0) = acc / channels as f32;
    }
    out
}

/// Gradient of [`weighted_sum`] with respect to the weights.
fn weighted_sum_backward(input: &Tensor, grad_rf: &Tensor) -> Tensor {
    let (tokens, channels) = (input.rows(), input.cols());
    assert_eq!(grad_rf.shape(), &[tokens, 1], "grad_rf must be (tokens, 1)");
    let mut grad = Tensor::zeros(&[tokens, channels]);
    for t in 0..tokens {
        let g = grad_rf.at(t, 0) / channels as f32;
        for c in 0..channels {
            *grad.at_mut(t, c) = g * input.at(t, c);
        }
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::init::normal;
    use neural::loss::mse;
    use neural::optimizer::Adam;

    #[test]
    fn fcnn_shapes_and_validation() {
        let mut fcnn = Fcnn::new(16, 32, 1).unwrap();
        assert_eq!(fcnn.channels(), 16);
        assert_eq!(fcnn.num_weights(), 16 * 32 + 32 + 32 * 16 + 16);
        let row = normal(&[10, 16], 0.5, 2);
        let rf = fcnn.forward_row(&row).unwrap();
        assert_eq!(rf.shape(), &[10, 1]);
        assert!(fcnn.forward_row(&Tensor::zeros(&[4, 8])).is_err());
        assert!(Fcnn::new(0, 4, 0).is_err());
    }

    #[test]
    fn tiny_cnn_shapes_and_validation() {
        let mut cnn = TinyCnn::new(16, 4, 1).unwrap();
        assert_eq!(cnn.channels(), 16);
        assert!(cnn.num_weights() > 0);
        let row = normal(&[12, 16], 0.5, 3);
        let rf = cnn.forward_row(&row).unwrap();
        assert_eq!(rf.shape(), &[12, 1]);
        let rf2 = cnn.infer_row(&row).unwrap();
        for (a, b) in rf.as_slice().iter().zip(rf2.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!(cnn.forward_row(&Tensor::zeros(&[4, 8])).is_err());
        assert!(TinyCnn::new(8, 0, 0).is_err());
    }

    #[test]
    fn uniform_weights_reduce_to_das() {
        // If the predicted weights were all ones the output would be the plain channel
        // mean (boxcar DAS). Verify the weighted_sum primitive does exactly that.
        let input = normal(&[5, 8], 1.0, 4);
        let weights = Tensor::full(&[5, 8], 1.0);
        let rf = weighted_sum(&input, &weights);
        for t in 0..5 {
            let mean: f32 = (0..8).map(|c| input.at(t, c)).sum::<f32>() / 8.0;
            assert!((rf.at(t, 0) - mean).abs() < 1e-5);
        }
    }

    #[test]
    fn fcnn_training_reduces_loss() {
        let mut fcnn = Fcnn::new(8, 16, 5).unwrap();
        let row = normal(&[12, 8], 0.5, 6);
        let target = normal(&[12, 1], 0.3, 7);
        let mut adam = Adam::new(1e-2);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let rf = fcnn.forward_row(&row).unwrap();
            let (loss, grad) = mse(&rf, &target);
            fcnn.backward_row(&grad);
            adam.step(fcnn.params_mut());
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(last < first.unwrap() * 0.5, "{:?} -> {last}", first);
    }

    #[test]
    fn tiny_cnn_training_reduces_loss() {
        let mut cnn = TinyCnn::new(8, 3, 5).unwrap();
        let row = normal(&[10, 8], 0.5, 8);
        let target = normal(&[10, 1], 0.3, 9);
        let mut adam = Adam::new(5e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..120 {
            let rf = cnn.forward_row(&row).unwrap();
            let (loss, grad) = mse(&rf, &target);
            cnn.backward_row(&grad);
            adam.step(cnn.params_mut());
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(last < first.unwrap() * 0.6, "{:?} -> {last}", first);
    }

    #[test]
    fn weighted_sum_gradient_matches_finite_difference() {
        let input = normal(&[3, 4], 0.5, 11);
        let weights = normal(&[3, 4], 0.5, 12);
        let grad_rf = Tensor::full(&[3, 1], 1.0);
        let analytic = weighted_sum_backward(&input, &grad_rf);
        let eps = 1e-3;
        for t in 0..3 {
            for c in 0..4 {
                let mut plus = weights.clone();
                *plus.at_mut(t, c) += eps;
                let mut minus = weights.clone();
                *minus.at_mut(t, c) -= eps;
                let f_plus: f32 = weighted_sum(&input, &plus).as_slice().iter().sum();
                let f_minus: f32 = weighted_sum(&input, &minus).as_slice().iter().sum();
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                assert!((analytic.at(t, c) - numeric).abs() < 1e-3);
            }
        }
    }
}

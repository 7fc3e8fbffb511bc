//! Layer normalisation.

use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// LayerNorm over the last dimension of a `(tokens, features)` matrix, with learnable
/// per-feature scale (γ) and shift (β).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    epsilon: f32,
    cache: Option<NormCache>,
}

#[derive(Debug, Clone)]
struct NormCache {
    normalized: Tensor,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a LayerNorm for `features`-wide rows with γ = 1, β = 0.
    ///
    /// # Panics
    ///
    /// Panics when `features == 0`.
    pub fn new(features: usize) -> Self {
        assert!(features > 0, "LayerNorm features must be nonzero");
        Self {
            gamma: Param::new(Tensor::full(&[1, features], 1.0)),
            beta: Param::new(Tensor::zeros(&[1, features])),
            epsilon: 1e-5,
            cache: None,
        }
    }

    /// Feature width this layer expects.
    pub fn features(&self) -> usize {
        self.gamma.value.shape()[1]
    }

    fn normalize(&self, input: &Tensor) -> (Tensor, Vec<f32>) {
        let (n, m) = (input.rows(), input.cols());
        let mut normalized = Tensor::zeros(&[n, m]);
        let mut inv_stds = Vec::with_capacity(n);
        for i in 0..n {
            let mean: f32 = (0..m).map(|j| input.at(i, j)).sum::<f32>() / m as f32;
            let var: f32 = (0..m).map(|j| (input.at(i, j) - mean).powi(2)).sum::<f32>() / m as f32;
            let inv_std = 1.0 / (var + self.epsilon).sqrt();
            inv_stds.push(inv_std);
            for j in 0..m {
                *normalized.at_mut(i, j) = (input.at(i, j) - mean) * inv_std;
            }
        }
        (normalized, inv_stds)
    }

    fn scale_shift(&self, normalized: &Tensor) -> Tensor {
        let (n, m) = (normalized.rows(), normalized.cols());
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..n {
            for j in 0..m {
                *out.at_mut(i, j) = normalized.at(i, j) * self.gamma.value.at(0, j) + self.beta.value.at(0, j);
            }
        }
        out
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.cols(), self.features(), "LayerNorm feature mismatch");
        let (normalized, inv_std) = self.normalize(input);
        let out = self.scale_shift(&normalized);
        self.cache = Some(NormCache { normalized, inv_std });
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("LayerNorm::backward called before forward");
        let normalized = &cache.normalized;
        let (n, m) = (normalized.rows(), normalized.cols());
        assert_eq!(grad_output.shape(), normalized.shape(), "LayerNorm backward shape mismatch");

        // Parameter gradients.
        let mut grad_gamma = Tensor::zeros(&[1, m]);
        let mut grad_beta = Tensor::zeros(&[1, m]);
        for i in 0..n {
            for j in 0..m {
                *grad_gamma.at_mut(0, j) += grad_output.at(i, j) * normalized.at(i, j);
                *grad_beta.at_mut(0, j) += grad_output.at(i, j);
            }
        }
        self.gamma.grad = self.gamma.grad.add(&grad_gamma);
        self.beta.grad = self.beta.grad.add(&grad_beta);

        // Input gradient (standard LayerNorm backward):
        // dx = (1/σ) * (dxhat − mean(dxhat) − xhat·mean(dxhat ⊙ xhat))
        let mut grad_input = Tensor::zeros(&[n, m]);
        for i in 0..n {
            let inv_std = cache.inv_std[i];
            let mut mean_dxhat = 0.0f32;
            let mut mean_dxhat_xhat = 0.0f32;
            let mut dxhat = vec![0.0f32; m];
            for (j, d) in dxhat.iter_mut().enumerate() {
                *d = grad_output.at(i, j) * self.gamma.value.at(0, j);
                mean_dxhat += *d;
                mean_dxhat_xhat += *d * normalized.at(i, j);
            }
            mean_dxhat /= m as f32;
            mean_dxhat_xhat /= m as f32;
            for (j, &d) in dxhat.iter().enumerate() {
                *grad_input.at_mut(i, j) = inv_std * (d - mean_dxhat - normalized.at(i, j) * mean_dxhat_xhat);
            }
        }
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn infer(&mut self, input: &Tensor) -> Tensor {
        let (normalized, _) = self.normalize(input);
        self.scale_shift(&normalized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn output_rows_have_zero_mean_unit_variance() {
        let mut ln = LayerNorm::new(8);
        let x = Tensor::from_vec((0..16).map(|i| i as f32 * 0.7 - 3.0).collect(), &[2, 8]).unwrap();
        let y = ln.forward(&x);
        for i in 0..2 {
            let mean: f32 = (0..8).map(|j| y.at(i, j)).sum::<f32>() / 8.0;
            let var: f32 = (0..8).map(|j| (y.at(i, j) - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn weight_count_is_two_per_feature() {
        let ln = LayerNorm::new(32);
        assert_eq!(ln.num_weights(), 64);
        assert_eq!(ln.features(), 32);
    }

    #[test]
    fn infer_matches_forward() {
        let mut ln = LayerNorm::new(4);
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[1, 4]).unwrap();
        let a = ln.forward(&x);
        let b = ln.infer(&x);
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_match_numerical_estimates() {
        let ln = LayerNorm::new(5);
        let input = Tensor::from_vec(vec![0.4, -0.9, 1.3, 0.2, -0.1, 0.8, 0.3, -1.2, 0.05, 0.6], &[2, 5]).unwrap();
        check_layer_gradients(&mut { ln }, &input, 1e-2, 3e-2);
    }

    #[test]
    fn constant_rows_are_handled_without_nan() {
        let mut ln = LayerNorm::new(4);
        let x = Tensor::full(&[2, 4], 3.0);
        let y = ln.forward(&x);
        assert!(y.is_finite());
        // With zero variance, the normalized output is ~0 so the result is beta (= 0).
        assert!(y.max_abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn wrong_width_panics() {
        let mut ln = LayerNorm::new(4);
        let _ = ln.forward(&Tensor::zeros(&[1, 5]));
    }
}

//! Fully connected (dense) layers.

use crate::init::glorot_uniform;
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// A dense layer `y = x·W + b` operating on `(tokens, in_features)` matrices.
///
/// ```
/// use neural::{dense::Dense, layer::Layer, tensor::Tensor};
/// let mut layer = Dense::new(3, 2, 0);
/// let x = Tensor::zeros(&[4, 3]);
/// assert_eq!(layer.forward(&x).shape(), &[4, 2]);
/// assert_eq!(layer.num_weights(), 3 * 2 + 2);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Glorot-initialised weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(in_features > 0 && out_features > 0, "Dense dimensions must be nonzero");
        Self {
            weight: Param::new(glorot_uniform(in_features, out_features, seed)),
            bias: Param::new(Tensor::zeros(&[1, out_features])),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape()[1]
    }

    /// Immutable view of the weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Immutable view of the bias row.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 2, "Dense expects a 2-D input");
        assert_eq!(input.cols(), self.in_features(), "Dense input feature mismatch");
        self.cached_input = Some(input.clone());
        input.matmul(&self.weight.value).add_row_broadcast(&self.bias.value)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("Dense::backward called before forward");
        // dW = xᵀ · dy, db = Σ_rows dy, dx = dy · Wᵀ
        let grad_w = input.transpose().matmul(grad_output);
        let grad_b = grad_output.sum_rows();
        self.weight.grad = self.weight.grad.add(&grad_w);
        self.bias.grad = self.bias.grad.add(&grad_b);
        grad_output.matmul(&self.weight.value.transpose())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn infer(&mut self, input: &Tensor) -> Tensor {
        input.matmul(&self.weight.value).add_row_broadcast(&self.bias.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn forward_matches_manual_computation() {
        let weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let bias = Tensor::from_vec(vec![0.5, -0.5], &[1, 2]).unwrap();
        let mut layer = Dense { weight: Param::new(weight), bias: Param::new(bias), cached_input: None };
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[1, 3]).unwrap();
        let y = layer.forward(&x);
        // [1*1 + 0*3 + (-1)*5 + 0.5, 1*2 + 0*4 + (-1)*6 - 0.5] = [-3.5, -4.5]
        assert_eq!(y.as_slice(), &[-3.5, -4.5]);
        assert_eq!(layer.infer(&x).as_slice(), &[-3.5, -4.5]);
    }

    #[test]
    fn weight_count_matches_formula() {
        let layer = Dense::new(16, 8, 0);
        assert_eq!(layer.num_weights(), 16 * 8 + 8);
        assert_eq!(layer.in_features(), 16);
        assert_eq!(layer.out_features(), 8);
        assert_eq!(layer.weight().shape(), &[16, 8]);
        assert_eq!(layer.bias().shape(), &[1, 8]);
    }

    #[test]
    fn gradients_match_numerical_estimates() {
        let layer = Dense::new(4, 3, 5);
        let input = Tensor::from_vec(
            vec![0.3, -0.7, 0.2, 1.1, -0.4, 0.9, 0.05, -0.6],
            &[2, 4],
        )
        .unwrap();
        check_layer_gradients(&mut { layer }, &input, 1e-2, 2e-2);
    }

    #[test]
    fn backward_accumulates_gradients_across_calls() {
        let mut layer = Dense::new(2, 2, 1);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let dy = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        layer.forward(&x);
        layer.backward(&dy);
        let g1 = layer.params()[0].grad.clone();
        layer.forward(&x);
        layer.backward(&dy);
        let g2 = layer.params()[0].grad.clone();
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((b - 2.0 * a).abs() < 1e-5);
        }
        layer.zero_grads();
        assert_eq!(layer.params()[0].grad, Tensor::zeros(&[2, 2]));
    }

    #[test]
    #[should_panic(expected = "called before forward")]
    fn backward_before_forward_panics() {
        let mut layer = Dense::new(2, 2, 0);
        let dy = Tensor::zeros(&[1, 2]);
        let _ = layer.backward(&dy);
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn wrong_input_width_panics() {
        let mut layer = Dense::new(3, 2, 0);
        let _ = layer.forward(&Tensor::zeros(&[1, 4]));
    }
}

//! Activation functions (ReLU, Tanh) and row-wise softmax.

use crate::layer::Layer;
use crate::tensor::Tensor;

/// Rectified linear unit, applied element-wise.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Self { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mask = input.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let out = input.mul(&mask);
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("Relu::backward called before forward");
        grad_output.mul(mask)
    }

    fn infer(&mut self, input: &Tensor) -> Tensor {
        input.map(|v| v.max(0.0))
    }
}

/// Hyperbolic-tangent activation, used at the Tiny-VBF decoder output so the predicted
/// IQ values stay inside the `[-1, 1]` normalisation interval.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates a Tanh activation layer.
    pub fn new() -> Self {
        Self { output: None }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = input.map(|v| v.tanh());
        self.output = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let out = self.output.as_ref().expect("Tanh::backward called before forward");
        let deriv = out.map(|y| 1.0 - y * y);
        grad_output.mul(&deriv)
    }

    fn infer(&mut self, input: &Tensor) -> Tensor {
        input.map(|v| v.tanh())
    }
}

/// Numerically stable softmax over the last dimension of a 2-D tensor (one distribution
/// per row) — the attention-score normalisation.
///
/// Per row: the max (a left fold from −∞), `exp(x − max)` through
/// [`runtime::simd::exp`], the denominator summed in ascending column order
/// from `0.0`, then one divide per element. The float inference engine's
/// attention kernel keeps exactly this per-element sequence.
pub fn softmax_rows(input: &Tensor) -> Tensor {
    assert_eq!(input.shape().len(), 2, "softmax_rows expects a 2-D tensor");
    let mut out = input.clone();
    let m = input.cols();
    for row in out.as_mut_slice().chunks_exact_mut(m) {
        let row_max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for v in row.iter_mut() {
            *v -= row_max;
        }
        runtime::simd::exp(row);
        let denom = row.iter().fold(0.0f32, |acc, &e| acc + e);
        for v in row.iter_mut() {
            *v /= denom;
        }
    }
    out
}

/// Backward pass of [`softmax_rows`]: given the softmax output `y` and `dL/dy`, returns
/// `dL/dx` using `dx = y ⊙ (dy − Σ_j dy_j·y_j)` per row.
pub fn softmax_rows_backward(softmax_output: &Tensor, grad_output: &Tensor) -> Tensor {
    assert_eq!(softmax_output.shape(), grad_output.shape(), "softmax backward shape mismatch");
    let (n, m) = (softmax_output.rows(), softmax_output.cols());
    let mut out = Tensor::zeros(&[n, m]);
    for i in 0..n {
        let mut dot = 0.0f32;
        for j in 0..m {
            dot += grad_output.at(i, j) * softmax_output.at(i, j);
        }
        for j in 0..m {
            *out.at_mut(i, j) = softmax_output.at(i, j) * (grad_output.at(i, j) - dot);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::numerical_gradient;

    #[test]
    fn relu_zeroes_negatives_and_passes_positives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -0.5], &[2, 2]).unwrap();
        let y = relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let dy = Tensor::full(&[2, 2], 1.0);
        let dx = relu.backward(&dy);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(relu.infer(&x).as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        assert_eq!(relu.num_weights(), 0);
    }

    #[test]
    fn tanh_saturates_and_matches_derivative() {
        let mut tanh = Tanh::new();
        let x = Tensor::from_vec(vec![0.0, 10.0, -10.0, 0.5], &[1, 4]).unwrap();
        let y = tanh.forward(&x);
        assert_eq!(y.at(0, 0), 0.0);
        assert!((y.at(0, 1) - 1.0).abs() < 1e-4);
        assert!((y.at(0, 2) + 1.0).abs() < 1e-4);
        let dy = Tensor::full(&[1, 4], 1.0);
        let dx = tanh.backward(&dy);
        // derivative at 0 is 1, at saturation ~0
        assert!((dx.at(0, 0) - 1.0).abs() < 1e-6);
        assert!(dx.at(0, 1) < 1e-3);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let y = softmax_rows(&x);
        for i in 0..2 {
            let sum: f32 = (0..3).map(|j| y.at(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(y.at(i, 2) > y.at(i, 1) && y.at(i, 1) > y.at(i, 0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0, 1002.0], &[1, 3]).unwrap();
        let y = softmax_rows(&x);
        assert!(y.is_finite());
        let shifted = softmax_rows(&Tensor::from_vec(vec![0.0, 1.0, 2.0], &[1, 3]).unwrap());
        for j in 0..3 {
            assert!((y.at(0, j) - shifted.at(0, j)).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_backward_matches_numerical_gradient() {
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.8, 0.1], &[1, 4]).unwrap();
        // Loss = sum of softmax output weighted by fixed coefficients.
        let coeffs = [0.7f32, -0.3, 0.5, 0.2];
        let loss = |t: &Tensor| -> f32 {
            let y = softmax_rows(t);
            (0..4).map(|j| coeffs[j] * y.at(0, j)).sum()
        };
        let numeric = numerical_gradient(&x, loss, 1e-3);
        let y = softmax_rows(&x);
        let dy = Tensor::from_vec(coeffs.to_vec(), &[1, 4]).unwrap();
        let analytic = softmax_rows_backward(&y, &dy);
        for (a, n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
            assert!((a - n).abs() < 1e-3, "{a} vs {n}");
        }
    }
}

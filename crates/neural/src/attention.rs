//! Multi-head self-attention.
//!
//! The Tiny-VBF encoder contains two transformer blocks, each built around the
//! multi-head attention layer implemented here. The layer processes one token matrix
//! `(num_patches, model_dim)` at a time: linear Q/K/V projections, per-head scaled
//! dot-product attention with a row-wise softmax, head concatenation and an output
//! projection — exactly the operation sequence the paper's FPGA accelerator schedules
//! onto its four processing elements (Figs. 6–8).

use crate::activation::{softmax_rows, softmax_rows_backward};
use crate::init::glorot_uniform;
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;
use crate::{NeuralError, NeuralResult};

/// Multi-head self-attention layer.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    model_dim: usize,
    num_heads: usize,
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    cache: Option<AttentionCache>,
}

#[derive(Debug, Clone)]
struct AttentionCache {
    input: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attention: Vec<Tensor>,
    concat: Tensor,
}

impl MultiHeadAttention {
    /// Creates a multi-head attention layer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidConfig`] when `num_heads` does not divide
    /// `model_dim` or either is zero.
    pub fn new(model_dim: usize, num_heads: usize, seed: u64) -> NeuralResult<Self> {
        if model_dim == 0 || num_heads == 0 {
            return Err(NeuralError::InvalidConfig { name: "model_dim/num_heads", reason: "must be nonzero".into() });
        }
        if !model_dim.is_multiple_of(num_heads) {
            return Err(NeuralError::InvalidConfig {
                name: "num_heads",
                reason: format!("must divide model_dim ({model_dim} % {num_heads} != 0)"),
            });
        }
        Ok(Self {
            model_dim,
            num_heads,
            wq: Param::new(glorot_uniform(model_dim, model_dim, seed)),
            wk: Param::new(glorot_uniform(model_dim, model_dim, seed.wrapping_add(1))),
            wv: Param::new(glorot_uniform(model_dim, model_dim, seed.wrapping_add(2))),
            wo: Param::new(glorot_uniform(model_dim, model_dim, seed.wrapping_add(3))),
            cache: None,
        })
    }

    /// Model (embedding) dimension.
    pub fn model_dim(&self) -> usize {
        self.model_dim
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Per-head projection dimension `k = model_dim / num_heads` (the paper's `k`).
    pub fn head_dim(&self) -> usize {
        self.model_dim / self.num_heads
    }

    /// Test support: the per-head softmax probabilities `(tokens, tokens)`
    /// of the last forward; empty before the first.
    #[doc(hidden)]
    pub fn probabilities(&self) -> &[Tensor] {
        self.cache.as_ref().map_or(&[], |c| &c.attention)
    }

    fn project(&self, input: &Tensor) -> (Tensor, Tensor, Tensor) {
        (
            input.matmul(&self.wq.value),
            input.matmul(&self.wk.value),
            input.matmul(&self.wv.value),
        )
    }

    fn attend(&self, q: &Tensor, k: &Tensor, v: &Tensor) -> (Vec<Tensor>, Tensor) {
        let tokens = q.rows();
        let head_dim = self.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut concat = Tensor::zeros(&[tokens, self.model_dim]);
        let mut attentions = Vec::with_capacity(self.num_heads);
        for h in 0..self.num_heads {
            let start = h * head_dim;
            let qh = q.slice_cols(start, head_dim);
            let kh = k.slice_cols(start, head_dim);
            let vh = v.slice_cols(start, head_dim);
            let scores = qh.matmul(&kh.transpose()).scale(scale);
            let attention = softmax_rows(&scores);
            let oh = attention.matmul(&vh);
            concat.set_cols(start, &oh);
            attentions.push(attention);
        }
        (attentions, concat)
    }
}

impl Layer for MultiHeadAttention {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 2, "attention expects a 2-D token matrix");
        assert_eq!(input.cols(), self.model_dim, "attention input width must equal model_dim");
        let (q, k, v) = self.project(input);
        let (attention, concat) = self.attend(&q, &k, &v);
        let output = concat.matmul(&self.wo.value);
        self.cache = Some(AttentionCache { input: input.clone(), q, k, v, attention, concat });
        output
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("MultiHeadAttention::backward called before forward").clone();
        let head_dim = self.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let tokens = cache.input.rows();

        // Output projection.
        let grad_wo = cache.concat.transpose().matmul(grad_output);
        self.wo.grad = self.wo.grad.add(&grad_wo);
        let grad_concat = grad_output.matmul(&self.wo.value.transpose());

        // Per-head backward into Q, K, V.
        let mut grad_q = Tensor::zeros(&[tokens, self.model_dim]);
        let mut grad_k = Tensor::zeros(&[tokens, self.model_dim]);
        let mut grad_v = Tensor::zeros(&[tokens, self.model_dim]);
        for h in 0..self.num_heads {
            let start = h * head_dim;
            let qh = cache.q.slice_cols(start, head_dim);
            let kh = cache.k.slice_cols(start, head_dim);
            let vh = cache.v.slice_cols(start, head_dim);
            let attention = &cache.attention[h];
            let grad_oh = grad_concat.slice_cols(start, head_dim);

            // O_h = A_h · V_h
            let grad_attention = grad_oh.matmul(&vh.transpose());
            let grad_vh = attention.transpose().matmul(&grad_oh);
            // A_h = softmax(S_h)
            let grad_scores = softmax_rows_backward(attention, &grad_attention);
            // S_h = scale · Q_h · K_hᵀ
            let grad_qh = grad_scores.matmul(&kh).scale(scale);
            let grad_kh = grad_scores.transpose().matmul(&qh).scale(scale);

            grad_q.set_cols(start, &grad_qh);
            grad_k.set_cols(start, &grad_kh);
            grad_v.set_cols(start, &grad_vh);
        }

        // Q = X·Wq etc.
        let input_t = cache.input.transpose();
        self.wq.grad = self.wq.grad.add(&input_t.matmul(&grad_q));
        self.wk.grad = self.wk.grad.add(&input_t.matmul(&grad_k));
        self.wv.grad = self.wv.grad.add(&input_t.matmul(&grad_v));

        grad_q
            .matmul(&self.wq.value.transpose())
            .add(&grad_k.matmul(&self.wk.value.transpose()))
            .add(&grad_v.matmul(&self.wv.value.transpose()))
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.wq, &self.wk, &self.wv, &self.wo]
    }

    fn infer(&mut self, input: &Tensor) -> Tensor {
        let (q, k, v) = self.project(input);
        let (_, concat) = self.attend(&q, &k, &v);
        concat.matmul(&self.wo.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn construction_validates_heads() {
        assert!(MultiHeadAttention::new(8, 3, 0).is_err());
        assert!(MultiHeadAttention::new(0, 1, 0).is_err());
        let mha = MultiHeadAttention::new(8, 2, 0).unwrap();
        assert_eq!(mha.model_dim(), 8);
        assert_eq!(mha.num_heads(), 2);
        assert_eq!(mha.head_dim(), 4);
        assert_eq!(mha.num_weights(), 4 * 8 * 8);
    }

    #[test]
    fn output_shape_matches_input_shape() {
        let mut mha = MultiHeadAttention::new(16, 4, 1).unwrap();
        let x = crate::init::normal(&[10, 16], 1.0, 3);
        let y = mha.forward(&x);
        assert_eq!(y.shape(), &[10, 16]);
        assert!(y.is_finite());
        let y2 = mha.infer(&x);
        for (a, b) in y.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_mixes_information_across_tokens() {
        // Changing one token's features must affect other tokens' outputs (global
        // receptive field — the property the paper contrasts with CNNs).
        let mut mha = MultiHeadAttention::new(8, 2, 7).unwrap();
        let x = crate::init::normal(&[6, 8], 1.0, 11);
        let base = mha.infer(&x);
        let mut perturbed = x.clone();
        for j in 0..8 {
            *perturbed.at_mut(0, j) += 1.0;
        }
        let changed = mha.infer(&perturbed);
        let mut other_token_delta = 0.0f32;
        for token in 1..6 {
            for j in 0..8 {
                other_token_delta += (changed.at(token, j) - base.at(token, j)).abs();
            }
        }
        assert!(other_token_delta > 1e-3, "delta {other_token_delta}");
    }

    #[test]
    fn gradients_match_numerical_estimates() {
        let mha = MultiHeadAttention::new(6, 2, 13).unwrap();
        let input = crate::init::normal(&[4, 6], 0.8, 5);
        check_layer_gradients(&mut { mha }, &input, 1e-2, 3e-2);
    }

    #[test]
    fn single_head_equals_multi_head_with_one_head() {
        // With one head, head_dim == model_dim and the computation is plain attention.
        let mut mha = MultiHeadAttention::new(4, 1, 3).unwrap();
        let x = crate::init::normal(&[5, 4], 1.0, 9);
        let y = mha.forward(&x);
        assert_eq!(y.shape(), &[5, 4]);
        assert_eq!(mha.head_dim(), 4);
    }

    #[test]
    #[should_panic(expected = "called before forward")]
    fn backward_before_forward_panics() {
        let mut mha = MultiHeadAttention::new(4, 1, 0).unwrap();
        let _ = mha.backward(&Tensor::zeros(&[2, 4]));
    }
}

//! The Tiny-VBF model: ViT encoder, two transformer blocks and an IQ decoder.
//!
//! One forward pass processes a single depth row of the ToF-corrected cube: a
//! `(tokens, channels)` matrix in, a `(tokens, 2)` matrix of (I, Q) predictions out.
//! A full frame is beamformed by running every depth row through the model, which keeps
//! the per-frame cost at the paper's sub-GOP level and matches the row-streaming
//! dataflow of the FPGA accelerator.
//!
//! [`TinyVbf`] is the training model: forward/backward, parameters, weight export
//! and serialization. Inference, float included, runs on
//! [`QuantizedTinyVbf`](crate::quantized::QuantizedTinyVbf) built from the
//! exported weights.

use crate::config::TinyVbfConfig;
use crate::training::{TargetKind, Trainable};
use crate::{TinyVbfError, TinyVbfResult};
use neural::activation::{Relu, Tanh};
use neural::attention::MultiHeadAttention;
use neural::dense::Dense;
use neural::init::normal;
use neural::layer::{Layer, Param};
use neural::norm::LayerNorm;
use neural::tensor::Tensor;

/// One transformer block: pre-norm multi-head attention and a feed-forward sub-layer,
/// each wrapped in a residual connection.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    norm1: LayerNorm,
    attention: MultiHeadAttention,
    norm2: LayerNorm,
    mlp_in: Dense,
    mlp_act: Relu,
    mlp_out: Dense,
}

impl TransformerBlock {
    fn new(config: &TinyVbfConfig, seed: u64) -> TinyVbfResult<Self> {
        Ok(Self {
            norm1: LayerNorm::new(config.model_dim),
            attention: MultiHeadAttention::new(config.model_dim, config.num_heads, seed)?,
            norm2: LayerNorm::new(config.model_dim),
            mlp_in: Dense::new(config.model_dim, config.mlp_dim, seed.wrapping_add(11)),
            mlp_act: Relu::new(),
            mlp_out: Dense::new(config.mlp_dim, config.model_dim, seed.wrapping_add(13)),
        })
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let attended = self.attention.forward(&self.norm1.forward(input));
        let after_attention = input.add(&attended);
        let normed = self.norm2.forward(&after_attention);
        let hidden = self.mlp_act.forward(&self.mlp_in.forward(&normed));
        after_attention.add(&self.mlp_out.forward(&hidden))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        // y2 = y1 + mlp(norm2(y1));  y1 = x + attn(norm1(x))
        let grad_mlp = self.mlp_out.backward(grad_output);
        let grad_hidden = self.mlp_act.backward(&grad_mlp);
        let grad_norm2 = self.mlp_in.backward(&grad_hidden);
        let grad_after_attention = grad_output.add(&self.norm2.backward(&grad_norm2));

        let grad_attended = self.attention.backward(&grad_after_attention);
        let grad_norm1 = self.norm1.backward(&grad_attended);
        grad_after_attention.add(&grad_norm1)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.norm1.params_mut();
        params.extend(self.attention.params_mut());
        params.extend(self.norm2.params_mut());
        params.extend(self.mlp_in.params_mut());
        params.extend(self.mlp_out.params_mut());
        params
    }

    fn params(&self) -> Vec<&Param> {
        let mut params = self.norm1.params();
        params.extend(self.attention.params());
        params.extend(self.norm2.params());
        params.extend(self.mlp_in.params());
        params.extend(self.mlp_out.params());
        params
    }
}

/// The Tiny-VBF network.
#[derive(Debug, Clone)]
pub struct TinyVbf {
    config: TinyVbfConfig,
    encoder: Dense,
    positional: Option<Param>,
    blocks: Vec<TransformerBlock>,
    decoder_in: Dense,
    decoder_act: Relu,
    decoder_out: Dense,
    output_act: Tanh,
    cached_positional_rows: usize,
}

impl TinyVbf {
    /// Builds a Tiny-VBF model with freshly initialised weights.
    ///
    /// # Errors
    ///
    /// Returns [`TinyVbfError::InvalidConfig`] when the configuration is inconsistent.
    pub fn new(config: &TinyVbfConfig) -> TinyVbfResult<Self> {
        config.validate()?;
        let mut blocks = Vec::with_capacity(config.num_blocks);
        for b in 0..config.num_blocks {
            blocks.push(TransformerBlock::new(config, config.seed.wrapping_add(100 * (b as u64 + 1)))?);
        }
        let positional = if config.positional_embedding {
            Some(Param::new(normal(&[config.tokens, config.model_dim], 0.02, config.seed ^ 0x905A)))
        } else {
            None
        };
        Ok(Self {
            config: *config,
            encoder: Dense::new(config.channels, config.model_dim, config.seed),
            positional,
            blocks,
            decoder_in: Dense::new(config.model_dim, config.decoder_dim, config.seed.wrapping_add(7)),
            decoder_act: Relu::new(),
            decoder_out: Dense::new(config.decoder_dim, 2, config.seed.wrapping_add(9)),
            output_act: Tanh::new(),
            cached_positional_rows: 0,
        })
    }

    /// The architecture configuration.
    pub fn config(&self) -> &TinyVbfConfig {
        &self.config
    }

    /// Total number of trainable scalar weights.
    pub fn num_weights(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Immutable access to every trainable parameter.
    pub fn params(&self) -> Vec<&Param> {
        let mut params = self.encoder.params();
        if let Some(pos) = self.positional.as_ref() {
            params.push(pos);
        }
        for block in &self.blocks {
            params.extend(block.params());
        }
        params.extend(self.decoder_in.params());
        params.extend(self.decoder_out.params());
        params
    }

    /// Zeroes every accumulated gradient.
    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Every block's per-head attention probabilities of the last forward.
    #[cfg(test)]
    pub(crate) fn attention_probabilities(&self) -> Vec<&Tensor> {
        self.blocks.iter().flat_map(|b| b.attention.probabilities()).collect()
    }

    fn check_row(&self, row: &Tensor) -> TinyVbfResult<()> {
        if row.shape().len() != 2 || row.cols() != self.config.channels {
            return Err(TinyVbfError::ShapeMismatch {
                expected: format!("(tokens, {}) row", self.config.channels),
                actual: format!("{:?}", row.shape()),
            });
        }
        Ok(())
    }

    fn add_positional(&mut self, encoded: &Tensor) -> Tensor {
        let rows = encoded.rows();
        self.cached_positional_rows = rows;
        match self.positional.as_ref() {
            Some(pos) => {
                let mut out = encoded.clone();
                for r in 0..rows {
                    // Rows beyond the configured token count reuse the last embedding.
                    let pr = r.min(pos.value.rows() - 1);
                    for c in 0..encoded.cols() {
                        *out.at_mut(r, c) += pos.value.at(pr, c);
                    }
                }
                out
            }
            None => encoded.clone(),
        }
    }

    /// Exports the trained weights as plain tensors for the quantizer and the FPGA
    /// accelerator model.
    pub fn export_weights(&self) -> TinyVbfWeights {
        TinyVbfWeights {
            config: self.config,
            encoder_weight: self.encoder.weight().clone(),
            encoder_bias: self.encoder.bias().clone(),
            positional: self.positional.as_ref().map(|p| p.value.clone()),
            blocks: self
                .blocks
                .iter()
                .map(|b| TransformerBlockWeights {
                    norm1_gamma: b.norm1.params()[0].value.clone(),
                    norm1_beta: b.norm1.params()[1].value.clone(),
                    wq: b.attention.params()[0].value.clone(),
                    wk: b.attention.params()[1].value.clone(),
                    wv: b.attention.params()[2].value.clone(),
                    wo: b.attention.params()[3].value.clone(),
                    norm2_gamma: b.norm2.params()[0].value.clone(),
                    norm2_beta: b.norm2.params()[1].value.clone(),
                    mlp_in_weight: b.mlp_in.weight().clone(),
                    mlp_in_bias: b.mlp_in.bias().clone(),
                    mlp_out_weight: b.mlp_out.weight().clone(),
                    mlp_out_bias: b.mlp_out.bias().clone(),
                })
                .collect(),
            decoder_in_weight: self.decoder_in.weight().clone(),
            decoder_in_bias: self.decoder_in.bias().clone(),
            decoder_out_weight: self.decoder_out.weight().clone(),
            decoder_out_bias: self.decoder_out.bias().clone(),
        }
    }

    /// Serialises all weights to a flat byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let params = self.params();
        let tensors: Vec<&Tensor> = params.iter().map(|p| &p.value).collect();
        neural::serialize::tensors_to_bytes(&tensors).to_vec()
    }

    /// Restores weights previously produced by [`to_bytes`](Self::to_bytes) into a model
    /// with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TinyVbfError::Substrate`] when decoding fails and
    /// [`TinyVbfError::ShapeMismatch`] when the tensor count or shapes differ.
    pub fn load_bytes(&mut self, bytes: &[u8]) -> TinyVbfResult<()> {
        let tensors = neural::serialize::tensors_from_bytes(bytes)?;
        let mut params = self.params_mut();
        if tensors.len() != params.len() {
            return Err(TinyVbfError::ShapeMismatch {
                expected: format!("{} tensors", params.len()),
                actual: format!("{}", tensors.len()),
            });
        }
        for (param, tensor) in params.iter_mut().zip(tensors) {
            if param.value.shape() != tensor.shape() {
                return Err(TinyVbfError::ShapeMismatch {
                    expected: format!("{:?}", param.value.shape()),
                    actual: format!("{:?}", tensor.shape()),
                });
            }
            param.value = tensor;
        }
        Ok(())
    }
}

impl Trainable for TinyVbf {
    const TARGET: TargetKind = TargetKind::Iq;

    /// The float inference engine is bitwise equal to this forward.
    fn forward_row(&mut self, row: &Tensor) -> TinyVbfResult<Tensor> {
        self.check_row(row)?;
        let encoded = self.encoder.forward(row);
        let mut x = self.add_positional(&encoded);
        for block in &mut self.blocks {
            x = block.forward(&x);
        }
        let hidden = self.decoder_act.forward(&self.decoder_in.forward(&x));
        let out = self.decoder_out.forward(&hidden);
        Ok(self.output_act.forward(&out))
    }

    /// The input gradient is discarded: the ToF data is not trainable.
    fn backward_row(&mut self, grad_output: &Tensor) {
        let grad_out = self.output_act.backward(grad_output);
        let grad_hidden = self.decoder_out.backward(&grad_out);
        let grad_decoder_in = self.decoder_act.backward(&grad_hidden);
        let mut grad = self.decoder_in.backward(&grad_decoder_in);
        for block in self.blocks.iter_mut().rev() {
            grad = block.backward(&grad);
        }
        // Positional embedding gradient is the block-input gradient, row-aligned.
        if let Some(pos) = self.positional.as_mut() {
            let rows = self.cached_positional_rows.min(grad.rows());
            for r in 0..rows {
                let pr = r.min(pos.value.rows() - 1);
                for c in 0..grad.cols() {
                    *pos.grad.at_mut(pr, c) += grad.at(r, c);
                }
            }
        }
        let _ = self.encoder.backward(&grad);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.encoder.params_mut();
        if let Some(pos) = self.positional.as_mut() {
            params.push(pos);
        }
        for block in &mut self.blocks {
            params.extend(block.params_mut());
        }
        params.extend(self.decoder_in.params_mut());
        params.extend(self.decoder_out.params_mut());
        params
    }
}

/// Exported (read-only) weights of a Tiny-VBF model.
#[derive(Debug, Clone)]
pub struct TinyVbfWeights {
    /// Architecture the weights belong to.
    pub config: TinyVbfConfig,
    /// Encoder projection weight `(channels, model_dim)`.
    pub encoder_weight: Tensor,
    /// Encoder projection bias `(1, model_dim)`.
    pub encoder_bias: Tensor,
    /// Optional learned positional embedding `(tokens, model_dim)`.
    pub positional: Option<Tensor>,
    /// Per-block weights.
    pub blocks: Vec<TransformerBlockWeights>,
    /// Decoder hidden weight `(model_dim, decoder_dim)`.
    pub decoder_in_weight: Tensor,
    /// Decoder hidden bias.
    pub decoder_in_bias: Tensor,
    /// Decoder output weight `(decoder_dim, 2)`.
    pub decoder_out_weight: Tensor,
    /// Decoder output bias.
    pub decoder_out_bias: Tensor,
}

/// Exported weights of one transformer block.
#[derive(Debug, Clone)]
pub struct TransformerBlockWeights {
    /// First LayerNorm scale.
    pub norm1_gamma: Tensor,
    /// First LayerNorm shift.
    pub norm1_beta: Tensor,
    /// Query projection.
    pub wq: Tensor,
    /// Key projection.
    pub wk: Tensor,
    /// Value projection.
    pub wv: Tensor,
    /// Output projection.
    pub wo: Tensor,
    /// Second LayerNorm scale.
    pub norm2_gamma: Tensor,
    /// Second LayerNorm shift.
    pub norm2_beta: Tensor,
    /// Feed-forward input weight.
    pub mlp_in_weight: Tensor,
    /// Feed-forward input bias.
    pub mlp_in_bias: Tensor,
    /// Feed-forward output weight.
    pub mlp_out_weight: Tensor,
    /// Feed-forward output bias.
    pub mlp_out_bias: Tensor,
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::init::normal as rand_tensor;
    use neural::loss::mse;
    use neural::optimizer::Adam;

    #[test]
    fn forward_row_has_expected_shape_and_range() {
        let config = TinyVbfConfig::tiny_test();
        let mut model = TinyVbf::new(&config).unwrap();
        let row = rand_tensor(&[config.tokens, config.channels], 0.5, 3);
        let out = model.forward_row(&row).unwrap();
        assert_eq!(out.shape(), &[config.tokens, 2]);
        // Tanh output stays in [-1, 1].
        assert!(out.max_abs() <= 1.0);
    }

    #[test]
    fn row_width_is_validated() {
        let mut model = TinyVbf::new(&TinyVbfConfig::tiny_test()).unwrap();
        let bad = Tensor::zeros(&[6, 5]);
        assert!(matches!(model.forward_row(&bad), Err(TinyVbfError::ShapeMismatch { .. })));
    }

    #[test]
    fn weight_count_is_consistent_with_export() {
        let config = TinyVbfConfig::tiny_test();
        let model = TinyVbf::new(&config).unwrap();
        let weights = model.export_weights();
        let mut exported = weights.encoder_weight.numel()
            + weights.encoder_bias.numel()
            + weights.positional.as_ref().map_or(0, |p| p.numel())
            + weights.decoder_in_weight.numel()
            + weights.decoder_in_bias.numel()
            + weights.decoder_out_weight.numel()
            + weights.decoder_out_bias.numel();
        for b in &weights.blocks {
            exported += b.norm1_gamma.numel()
                + b.norm1_beta.numel()
                + b.wq.numel()
                + b.wk.numel()
                + b.wv.numel()
                + b.wo.numel()
                + b.norm2_gamma.numel()
                + b.norm2_beta.numel()
                + b.mlp_in_weight.numel()
                + b.mlp_in_bias.numel()
                + b.mlp_out_weight.numel()
                + b.mlp_out_bias.numel();
        }
        assert_eq!(model.num_weights(), exported);
        assert_eq!(weights.blocks.len(), config.num_blocks);
    }

    #[test]
    fn training_step_reduces_loss_on_a_fixed_row() {
        // Overfit a single synthetic row: the loss must drop substantially, which
        // exercises the whole backward path (decoder, blocks, positional, encoder).
        let config = TinyVbfConfig::tiny_test();
        let mut model = TinyVbf::new(&config).unwrap();
        let row = rand_tensor(&[config.tokens, config.channels], 0.5, 5);
        let target = rand_tensor(&[config.tokens, 2], 0.4, 6).map(|v| v.tanh());

        let mut adam = Adam::new(5e-3);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..200 {
            let prediction = model.forward_row(&row).unwrap();
            let (loss, grad) = mse(&prediction, &target);
            model.backward_row(&grad);
            adam.step(model.params_mut());
            if first_loss.is_none() {
                first_loss = Some(loss);
            }
            last_loss = loss;
        }
        let first = first_loss.unwrap();
        assert!(last_loss < first * 0.2, "loss {first} -> {last_loss}");
    }

    #[test]
    fn serialization_round_trips_weights() {
        let config = TinyVbfConfig::tiny_test();
        let model = TinyVbf::new(&config).unwrap();
        let bytes = model.to_bytes();
        let mut other = TinyVbf::new(&TinyVbfConfig { seed: 999, ..config }).unwrap();
        // Different seed -> different weights before loading.
        assert_ne!(model.params()[0].value, other.params()[0].value);
        other.load_bytes(&bytes).unwrap();
        for (a, b) in model.params().iter().zip(other.params().iter()) {
            assert_eq!(a.value, b.value);
        }
        // Outputs now agree.
        let row = rand_tensor(&[config.tokens, config.channels], 0.5, 3);
        let mut model = model;
        let ya = model.forward_row(&row).unwrap();
        let yb = other.forward_row(&row).unwrap();
        for (a, b) in ya.as_slice().iter().zip(yb.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn load_bytes_rejects_mismatched_architecture() {
        let model = TinyVbf::new(&TinyVbfConfig::tiny_test()).unwrap();
        let bytes = model.to_bytes();
        let mut bigger = TinyVbf::new(&TinyVbfConfig::small()).unwrap();
        assert!(bigger.load_bytes(&bytes).is_err());
        let mut same = TinyVbf::new(&TinyVbfConfig::tiny_test()).unwrap();
        assert!(same.load_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn model_without_positional_embedding_works() {
        let config = TinyVbfConfig { positional_embedding: false, ..TinyVbfConfig::tiny_test() };
        let mut model = TinyVbf::new(&config).unwrap();
        let row = rand_tensor(&[config.tokens, config.channels], 0.5, 3);
        let out = model.forward_row(&row).unwrap();
        assert_eq!(out.shape(), &[config.tokens, 2]);
        model.backward_row(&Tensor::full(&[config.tokens, 2], 0.1));
        assert!(model.num_weights() < TinyVbf::new(&TinyVbfConfig::tiny_test()).unwrap().num_weights());
    }

    #[test]
    fn rows_with_fewer_tokens_than_configured_still_work() {
        // Evaluation grids may have fewer lateral columns than the configured token
        // count; the positional embedding is simply truncated.
        let config = TinyVbfConfig::tiny_test();
        let mut model = TinyVbf::new(&config).unwrap();
        let row = rand_tensor(&[config.tokens - 2, config.channels], 0.5, 3);
        let out = model.forward_row(&row).unwrap();
        assert_eq!(out.shape(), &[config.tokens - 2, 2]);
        model.backward_row(&Tensor::full(&[config.tokens - 2, 2], 0.1));
    }
}

//! Tiny-VBF architecture configuration.
//!
//! The model processes the ToF-corrected data cube one depth row at a time: the lateral
//! columns of the row are the transformer's tokens ("patches", `np` in the paper) and
//! each token's feature vector is that pixel's receive-channel vector. The encoder
//! projects the channel vector to a small model dimension, two transformer blocks mix
//! information across the row, and the decoder regresses the (I, Q) pair for every
//! pixel of the row.

use crate::{TinyVbfError, TinyVbfResult};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the Tiny-VBF model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TinyVbfConfig {
    /// Number of receive channels in the ToF-corrected input (token feature width).
    pub channels: usize,
    /// Number of tokens per depth row (the lateral pixel count of the frame).
    pub tokens: usize,
    /// Transformer embedding dimension (the paper's "projection dimension").
    pub model_dim: usize,
    /// Number of attention heads (projection dimension is split across them).
    pub num_heads: usize,
    /// Number of transformer blocks in the encoder (the paper uses two).
    pub num_blocks: usize,
    /// Hidden width of the feed-forward sub-layer inside each transformer block.
    pub mlp_dim: usize,
    /// Hidden width of the decoder.
    pub decoder_dim: usize,
    /// Whether a learned positional embedding is added after the encoder projection.
    pub positional_embedding: bool,
    /// RNG seed used for weight initialisation.
    pub seed: u64,
}

impl TinyVbfConfig {
    /// The configuration used for the paper-scale experiments: 128 receive channels and
    /// 128 lateral pixels per row (368 × 128 frames), a small projection dimension so
    /// the whole frame costs well under a GOP.
    pub fn paper() -> Self {
        Self {
            channels: 128,
            tokens: 128,
            model_dim: 8,
            num_heads: 2,
            num_blocks: 2,
            mlp_dim: 16,
            decoder_dim: 16,
            positional_embedding: true,
            seed: 2024,
        }
    }

    /// A reduced configuration matched to the reduced evaluation pipeline (32 channels,
    /// 32-column grids) used by tests, examples and the CI-sized benchmarks.
    pub fn small() -> Self {
        Self {
            channels: 32,
            tokens: 32,
            model_dim: 8,
            num_heads: 2,
            num_blocks: 2,
            mlp_dim: 16,
            decoder_dim: 16,
            positional_embedding: true,
            seed: 7,
        }
    }

    /// The smallest usable configuration, for unit tests of the forward/backward pass.
    pub fn tiny_test() -> Self {
        Self {
            channels: 8,
            tokens: 6,
            model_dim: 4,
            num_heads: 2,
            num_blocks: 2,
            mlp_dim: 8,
            decoder_dim: 8,
            positional_embedding: true,
            seed: 1,
        }
    }

    /// Returns a copy adapted to a given frame geometry (channels and lateral columns).
    pub fn for_frame(&self, channels: usize, tokens: usize) -> Self {
        Self { channels, tokens, ..*self }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TinyVbfError::InvalidConfig`] when a dimension is zero or the head
    /// count does not divide the model dimension.
    pub fn validate(&self) -> TinyVbfResult<()> {
        if self.channels == 0 || self.tokens == 0 || self.model_dim == 0 || self.mlp_dim == 0 || self.decoder_dim == 0 {
            return Err(TinyVbfError::InvalidConfig("all dimensions must be nonzero".into()));
        }
        if self.num_blocks == 0 {
            return Err(TinyVbfError::InvalidConfig("at least one transformer block is required".into()));
        }
        if self.num_heads == 0 || !self.model_dim.is_multiple_of(self.num_heads) {
            return Err(TinyVbfError::InvalidConfig(format!(
                "num_heads ({}) must be nonzero and divide model_dim ({})",
                self.num_heads, self.model_dim
            )));
        }
        Ok(())
    }
}

impl Default for TinyVbfConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        TinyVbfConfig::paper().validate().unwrap();
        TinyVbfConfig::small().validate().unwrap();
        TinyVbfConfig::tiny_test().validate().unwrap();
        assert_eq!(TinyVbfConfig::default(), TinyVbfConfig::paper());
    }

    #[test]
    fn paper_preset_matches_frame_geometry() {
        let c = TinyVbfConfig::paper();
        assert_eq!(c.channels, 128);
        assert_eq!(c.tokens, 128);
        assert_eq!(c.num_blocks, 2);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = TinyVbfConfig::paper();
        c.num_heads = 3;
        assert!(c.validate().is_err());
        c = TinyVbfConfig::paper();
        c.model_dim = 0;
        assert!(c.validate().is_err());
        c = TinyVbfConfig::paper();
        c.num_blocks = 0;
        assert!(c.validate().is_err());
        c = TinyVbfConfig::paper();
        c.num_heads = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn for_frame_overrides_geometry_only() {
        let c = TinyVbfConfig::paper().for_frame(32, 48);
        assert_eq!(c.channels, 32);
        assert_eq!(c.tokens, 48);
        assert_eq!(c.model_dim, TinyVbfConfig::paper().model_dim);
    }
}

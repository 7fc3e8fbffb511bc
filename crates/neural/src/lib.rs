//! A minimal neural-network framework for the Tiny-VBF reproduction.
//!
//! The paper implements its models in TensorFlow 2.4; nothing that heavy is available
//! here, and the models are tiny (≈1.5 M weights), so this crate provides a small,
//! dependency-free layer library with handwritten forward and backward passes:
//!
//! * [`tensor`] — a dense row-major tensor with the matrix operations the layers need,
//! * [`init`] — Glorot/He initialisation with seeded RNG,
//! * [`layer`] — the [`layer::Layer`] trait and parameter plumbing,
//! * [`dense`] — fully connected layers,
//! * [`activation`] — ReLU / Tanh / row-wise softmax,
//! * [`norm`] — LayerNorm,
//! * [`attention`] — multi-head self-attention (the ViT building block),
//! * [`conv`] — 2-D convolution (for the Tiny-CNN baseline),
//! * [`loss`] — mean-squared-error loss,
//! * [`optimizer`] — Adam,
//! * [`schedule`] — polynomial-decay / cyclic learning-rate schedules,
//! * [`flops`] — per-layer FLOP accounting,
//! * [`serialize`] — flat binary weight (de)serialisation,
//! * [`gradcheck`] — numerical gradient checking used by the test-suites.
//!
//! # Example
//!
//! ```
//! use neural::dense::Dense;
//! use neural::layer::Layer;
//! use neural::tensor::Tensor;
//!
//! let mut layer = Dense::new(4, 2, 42);
//! let x = Tensor::from_vec(vec![1.0, -0.5, 0.25, 2.0], &[1, 4])?;
//! let y = layer.forward(&x);
//! assert_eq!(y.shape(), &[1, 2]);
//! # Ok::<(), neural::NeuralError>(())
//! ```

#![deny(missing_docs)]

pub mod activation;
pub mod attention;
pub mod conv;
pub mod dense;
pub mod flops;
pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod loss;
pub mod norm;
pub mod optimizer;
pub mod schedule;
pub mod serialize;
pub mod tensor;

pub use layer::Layer;
pub use tensor::Tensor;

use std::error::Error;
use std::fmt;

/// Errors produced by the neural-network framework.
#[derive(Debug, Clone, PartialEq)]
pub enum NeuralError {
    /// Tensor shapes are inconsistent for the requested operation.
    ShapeMismatch {
        /// Description of the expected shape.
        expected: String,
        /// Description of the provided shape.
        actual: String,
    },
    /// A configuration value was invalid (zero sizes, head counts that do not divide
    /// the model dimension, …).
    InvalidConfig {
        /// Name of the offending parameter.
        name: &'static str,
        /// Violated constraint.
        reason: String,
    },
    /// Serialized weights could not be decoded.
    DeserializeError(
        /// Human-readable description of the failure.
        String,
    ),
}

impl fmt::Display for NeuralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeuralError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            NeuralError::InvalidConfig { name, reason } => write!(f, "invalid config `{name}`: {reason}"),
            NeuralError::DeserializeError(msg) => write!(f, "failed to deserialize weights: {msg}"),
        }
    }
}

impl Error for NeuralError {}

/// Convenience result alias.
pub type NeuralResult<T> = Result<T, NeuralError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        assert!(NeuralError::ShapeMismatch { expected: "2x2".into(), actual: "3x1".into() }.to_string().contains("2x2"));
        assert!(NeuralError::InvalidConfig { name: "heads", reason: "must divide dim".into() }.to_string().contains("heads"));
        assert!(NeuralError::DeserializeError("truncated".into()).to_string().contains("truncated"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NeuralError>();
    }
}

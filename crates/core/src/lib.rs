//! Tiny-VBF: a vision-transformer beamformer for ultrasound single-angle plane-wave
//! imaging — reproduction of the DATE 2024 paper.
//!
//! The crate ties the substrates together into the paper's contribution:
//!
//! * [`config`] — the Tiny-VBF architecture hyper-parameters (paper-scale and reduced
//!   evaluation-scale presets),
//! * [`model`] — the ViT encoder/decoder training model with handwritten forward/backward,
//! * [`baselines`] — the Tiny-CNN and FCNN learned baselines the paper compares against,
//! * [`training`] — dataset assembly (MVDR IQ targets from simulated acquisitions) and
//!   the MSE-before-log-compression training loop with Adam + polynomial decay,
//! * [`inference`] — [`beamforming::pipeline::Beamformer`] adapters so the learned
//!   baselines drop into the same evaluation harness as DAS and MVDR,
//! * [`gops`] — operations-per-frame accounting (the 0.34 GOPs/frame headline),
//! * [`quantized`] — the one Tiny-VBF inference engine, with the quantization scheme
//!   (float included) as a parameter, and its `Beamformer` adapter,
//! * [`evaluation`] — the end-to-end experiment harness that regenerates the paper's
//!   tables and figures.
//!
//! # Example
//!
//! ```
//! use tiny_vbf::config::TinyVbfConfig;
//! use tiny_vbf::model::TinyVbf;
//!
//! let config = TinyVbfConfig::tiny_test();
//! let model = TinyVbf::new(&config)?;
//! assert!(model.num_weights() > 0);
//! # Ok::<(), tiny_vbf::TinyVbfError>(())
//! ```

#![deny(missing_docs)]

pub mod baselines;
pub mod config;
pub mod evaluation;
pub mod gops;
pub mod inference;
pub mod model;
pub mod quantized;
mod quantized_int;
pub mod training;

pub use config::TinyVbfConfig;
pub use model::TinyVbf;

use std::error::Error;
use std::fmt;

/// Errors produced by the Tiny-VBF model and its training/evaluation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TinyVbfError {
    /// The architecture configuration is inconsistent.
    InvalidConfig(
        /// Explanation of the inconsistency.
        String,
    ),
    /// Input data does not match the configured frame geometry.
    ShapeMismatch {
        /// Expected geometry description.
        expected: String,
        /// Actual geometry description.
        actual: String,
    },
    /// An underlying substrate (beamforming, neural, …) failed.
    Substrate(
        /// Rendered substrate error.
        String,
    ),
}

impl fmt::Display for TinyVbfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TinyVbfError::InvalidConfig(reason) => write!(f, "invalid Tiny-VBF configuration: {reason}"),
            TinyVbfError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            TinyVbfError::Substrate(msg) => write!(f, "substrate error: {msg}"),
        }
    }
}

impl Error for TinyVbfError {}

impl From<beamforming::BeamformError> for TinyVbfError {
    fn from(e: beamforming::BeamformError) -> Self {
        TinyVbfError::Substrate(e.to_string())
    }
}

impl From<neural::NeuralError> for TinyVbfError {
    fn from(e: neural::NeuralError) -> Self {
        TinyVbfError::Substrate(e.to_string())
    }
}

impl From<ultrasound::UltrasoundError> for TinyVbfError {
    fn from(e: ultrasound::UltrasoundError) -> Self {
        TinyVbfError::Substrate(e.to_string())
    }
}

impl From<usmetrics::MetricsError> for TinyVbfError {
    fn from(e: usmetrics::MetricsError) -> Self {
        TinyVbfError::Substrate(e.to_string())
    }
}

/// Convenience result alias.
pub type TinyVbfResult<T> = Result<T, TinyVbfError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_and_convert() {
        assert!(TinyVbfError::InvalidConfig("heads".into()).to_string().contains("heads"));
        let bf: TinyVbfError = beamforming::BeamformError::SingularMatrix.into();
        assert!(bf.to_string().contains("singular"));
        let ne: TinyVbfError = neural::NeuralError::DeserializeError("x".into()).into();
        assert!(ne.to_string().contains("x"));
    }
}

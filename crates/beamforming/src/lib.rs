//! Classical plane-wave beamforming for the Tiny-VBF reproduction.
//!
//! This crate implements the non-learned half of the paper's pipeline:
//!
//! * [`grid`] — the imaging pixel grid (368 × 128 in the paper),
//! * [`tof`] — plane-wave transmit/receive time-of-flight and the **ToF-corrected data
//!   cube** that is both the classical beamformers' working set and the Tiny-VBF /
//!   Tiny-CNN network input,
//! * [`das`] — the boxcar Delay-and-Sum baseline,
//! * [`mvdr`] — the Minimum Variance Distortionless Response beamformer used as the
//!   training target (subaperture smoothing, diagonal loading, complex Cholesky solve),
//! * [`linalg`] — the small complex-Hermitian linear algebra MVDR needs,
//! * [`iq`] — IQ conversion of beamformed RF columns,
//! * [`bmode`] — envelope detection, log compression and the B-mode image container,
//! * [`pipeline`] — a uniform [`pipeline::Beamformer`] trait plus end-to-end helpers,
//! * [`plan`] — precomputed per-pixel×channel delay tables ([`plan::BeamformPlan`])
//!   and the gather kernels that replay them for ToF correction, DAS and MVDR, so
//!   the per-frame geometry is amortised across a stream,
//! * [`flops`] — GOPs/frame accounting for the classical beamformers.
//!
//! # Example
//!
//! ```
//! use beamforming::{grid::ImagingGrid, pipeline::{Beamformer, DelayAndSum}};
//! use ultrasound::picmus::{PicmusDataset, PicmusKind};
//!
//! let frame = PicmusDataset::resolution(PicmusKind::InSilico)
//!     .with_scale(0.15)
//!     .with_max_depth(0.022)
//!     .build(3)?;
//! let grid = ImagingGrid::for_array(&frame.array, 5.0e-3, 0.02, 48, 24);
//! let image = DelayAndSum::default().beamform(&frame.channel_data, &frame.array, &grid, 1540.0)?;
//! assert_eq!(image.num_pixels(), 48 * 24);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod bmode;
pub mod das;
pub mod flops;
pub mod grid;
pub mod iq;
pub mod linalg;
pub mod mvdr;
pub mod pipeline;
pub mod plan;
pub mod tof;

pub use bmode::BModeImage;
pub use grid::ImagingGrid;
pub use iq::IqImage;
pub use plan::{BeamformPlan, FrameFormat, PlannedDas, PlannedMvdr};
pub use tof::TofCube;

use std::error::Error;
use std::fmt;

/// Errors produced by the beamforming pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum BeamformError {
    /// A configuration parameter was invalid.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Violated constraint.
        reason: String,
    },
    /// Input data dimensions are inconsistent with the probe or grid.
    ShapeMismatch {
        /// Description of what was expected.
        expected: String,
        /// Description of what was provided.
        actual: String,
    },
    /// A linear system could not be solved (singular covariance matrix).
    SingularMatrix,
}

impl fmt::Display for BeamformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BeamformError::InvalidParameter { name, reason } => write!(f, "invalid parameter `{name}`: {reason}"),
            BeamformError::ShapeMismatch { expected, actual } => write!(f, "shape mismatch: expected {expected}, got {actual}"),
            BeamformError::SingularMatrix => write!(f, "covariance matrix is singular"),
        }
    }
}

impl Error for BeamformError {}

/// Convenience result alias used across the crate.
pub type BeamformResult<T> = Result<T, BeamformError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        assert!(BeamformError::SingularMatrix.to_string().contains("singular"));
        assert!(BeamformError::InvalidParameter { name: "f_number", reason: "must be positive".into() }
            .to_string()
            .contains("f_number"));
        assert!(BeamformError::ShapeMismatch { expected: "128 channels".into(), actual: "64".into() }
            .to_string()
            .contains("128"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BeamformError>();
    }
}

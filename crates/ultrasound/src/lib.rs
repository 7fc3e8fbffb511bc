//! Single-angle plane-wave ultrasound acquisition simulator.
//!
//! The Tiny-VBF paper trains and evaluates on raw radio-frequency (RF) channel data from
//! a Verasonics research scanner and on the PICMUS 2016 challenge datasets. Neither is
//! available here, so this crate provides a physics-based substitute:
//!
//! * [`transducer`] — linear-array geometry (an L11-5v-like 128-element probe preset),
//! * [`pulse`] — Gaussian-modulated transmit pulse / two-way waveform,
//! * [`medium`] — speed of sound and frequency-dependent attenuation,
//! * [`phantom`] — scatterer maps: point targets, anechoic cysts, speckle,
//! * [`planewave`] — the single-angle plane-wave transmit/receive simulator producing
//!   per-channel RF traces by scatterer superposition,
//! * [`acquisition`] — the sampled channel-data container and acquisition settings,
//! * [`invitro`] — the degradation model that turns clean "in-silico" acquisitions into
//!   "in-vitro"-like ones (noise, element spread, sound-speed error, clutter),
//! * [`picmus`] — PICMUS-like evaluation datasets (resolution-distortion and
//!   contrast-speckle, in-silico and in-vitro variants),
//! * [`dataset`] — reproducible training/evaluation frame generation.
//!
//! # Example
//!
//! ```
//! use ultrasound::picmus::{PicmusDataset, PicmusKind};
//!
//! // A miniature in-silico contrast dataset (small scale so the doctest stays fast).
//! let dataset = PicmusDataset::contrast(PicmusKind::InSilico)
//!     .with_scale(0.15)
//!     .build(7)?;
//! assert!(dataset.channel_data.num_channels() >= 16);
//! # Ok::<(), ultrasound::UltrasoundError>(())
//! ```

#![deny(missing_docs)]

pub mod acquisition;
pub mod dataset;
pub mod invitro;
pub mod medium;
pub mod phantom;
pub mod picmus;
pub mod planewave;
pub mod pulse;
pub mod transducer;

pub use acquisition::{AcquisitionConfig, ChannelData};
pub use medium::Medium;
pub use phantom::{Phantom, Scatterer};
pub use planewave::{PlaneWave, PlaneWaveSimulator};
pub use pulse::Pulse;
pub use transducer::LinearArray;

use std::error::Error;
use std::fmt;

/// Errors produced while configuring or running the acquisition simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum UltrasoundError {
    /// A configuration value was out of range.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
        /// Why the value is rejected.
        reason: String,
    },
    /// The phantom contains no scatterers and the operation needs at least one.
    EmptyPhantom,
    /// A data container had an unexpected shape.
    ShapeMismatch {
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        actual: usize,
    },
}

impl fmt::Display for UltrasoundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UltrasoundError::InvalidConfig { field, reason } => {
                write!(f, "invalid configuration for `{field}`: {reason}")
            }
            UltrasoundError::EmptyPhantom => write!(f, "phantom contains no scatterers"),
            UltrasoundError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected} elements, got {actual}")
            }
        }
    }
}

impl Error for UltrasoundError {}

/// Convenience result alias used across the crate.
pub type UltrasoundResult<T> = Result<T, UltrasoundError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = UltrasoundError::InvalidConfig { field: "pitch", reason: "must be positive".into() };
        assert!(e.to_string().contains("pitch"));
        assert!(!UltrasoundError::EmptyPhantom.to_string().is_empty());
        assert!(UltrasoundError::ShapeMismatch { expected: 3, actual: 4 }.to_string().contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<UltrasoundError>();
    }
}

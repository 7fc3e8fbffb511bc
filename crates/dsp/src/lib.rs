//! Signal-processing substrate for the Tiny-VBF ultrasound beamforming reproduction.
//!
//! The crate provides the numeric building blocks that the ultrasound simulator
//! and the classical beamformers (DAS / MVDR) rely on:
//!
//! * [`Complex32`] — a small complex number type (the RF/IQ sample type),
//! * [`fft`] — an iterative radix-2 FFT / inverse FFT,
//! * [`hilbert`] — analytic-signal computation used for envelope detection,
//! * [`interp`] — linear fractional-delay interpolation used by time-of-flight
//!   correction,
//! * [`stats`] — mean / variance / percentile / histogram helpers used by the
//!   image-quality metrics.
//!
//! # Example
//!
//! ```
//! use usdsp::{fft, Complex32};
//!
//! // Round-trip a short signal through the FFT.
//! let signal: Vec<Complex32> = (0..8).map(|i| Complex32::new(i as f32, 0.0)).collect();
//! let spectrum = fft::fft(&signal);
//! let back = fft::ifft(&spectrum);
//! for (a, b) in signal.iter().zip(back.iter()) {
//!     assert!((a.re - b.re).abs() < 1e-4);
//! }
//! ```

#![deny(missing_docs)]

pub mod complex;
pub mod fft;
pub mod hilbert;
pub mod interp;
pub mod stats;

pub use complex::Complex32;

use std::error::Error;
use std::fmt;

/// Errors produced by the DSP routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DspError {
    /// The input length was empty or otherwise unusable for the operation.
    EmptyInput,
    /// The requested length is not supported (for example a non-power-of-two FFT size
    /// when an explicit power-of-two transform was requested).
    InvalidLength {
        /// Length supplied by the caller.
        actual: usize,
        /// Human-readable constraint description.
        requirement: &'static str,
    },
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::EmptyInput => write!(f, "input signal is empty"),
            DspError::InvalidLength { actual, requirement } => {
                write!(f, "invalid length {actual}: {requirement}")
            }
        }
    }
}

impl Error for DspError {}

/// Convenience result alias used across the crate.
pub type DspResult<T> = Result<T, DspError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            DspError::EmptyInput,
            DspError::InvalidLength { actual: 3, requirement: "must be a power of two" },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}

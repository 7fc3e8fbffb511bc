//! Cycle-approximate model of the Tiny-VBF FPGA accelerator.
//!
//! The paper deploys Tiny-VBF on a Zynq UltraScale+ ZCU104 at 100 MHz with an
//! accelerator built from four processing elements (each 16 multipliers feeding an
//! adder tree), on-chip BRAM for inputs/weights/intermediates and dedicated non-linear
//! units (ReLU, softmax, division, square root). A bitstream cannot be synthesized in
//! this environment, so this crate models the accelerator analytically:
//!
//! * [`pe`] — processing-element and non-linear-unit latency models,
//! * [`memory`] — BRAM capacity/bandwidth accounting,
//! * [`scheduler`] — mapping of the Q/K/V projections, attention scores, attention
//!   output and dense layers onto the 4 PEs (Figs. 5–8) with cycle counts,
//! * [`accelerator`] — whole-network latency at 100 MHz for a frame,
//! * [`resources`] — LUT / FF / BRAM / DSP / LUTRAM / power estimates per quantization
//!   scheme, calibrated against Table VI.
//!
//! # Example
//!
//! ```
//! use accel::accelerator::Accelerator;
//! use quantize::QuantScheme;
//! use tiny_vbf::config::TinyVbfConfig;
//!
//! let accel = Accelerator::new(TinyVbfConfig::paper(), QuantScheme::hybrid2());
//! let report = accel.frame_report(368, 128);
//! assert!(report.latency_seconds > 0.0);
//! ```

#![deny(missing_docs)]

pub mod accelerator;
pub mod memory;
pub mod pe;
pub mod resources;
pub mod scheduler;

pub use accelerator::{Accelerator, FrameReport};
pub use resources::ResourceEstimate;

/// Clock frequency of the paper's implementation (Hz).
pub const CLOCK_HZ: f64 = 100.0e6;
/// Number of processing elements in the accelerator.
pub const NUM_PES: usize = 4;
/// Number of parallel multipliers inside one processing element.
pub const MACS_PER_PE: usize = 16;

//! Workspace-level convenience crate for the Tiny-VBF reproduction.
//!
//! This crate exists to host the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`); it simply re-exports the member crates so examples can
//! write `use tiny_vbf_repro::prelude::*;`.

#![deny(missing_docs)]

pub use accel;
pub use beamforming;
pub use neural;
pub use quantize;
pub use runtime;
pub use serve;
pub use tiny_vbf;
pub use ultrasound;
pub use usdsp;
pub use usmetrics;

/// Commonly used types across the workspace.
pub mod prelude {
    pub use accel::accelerator::Accelerator;
    pub use beamforming::grid::ImagingGrid;
    pub use beamforming::pipeline::{Beamformer, DelayAndSum, Mvdr};
    pub use beamforming::BModeImage;
    pub use quantize::QuantScheme;
    pub use serve::router::{FaultPolicy, Router, StreamSpec};
    pub use serve::{BatchConfig, ChaosBeamformer, ChaosSchedule, DegradeConfig, Server};
    pub use tiny_vbf::config::TinyVbfConfig;
    pub use tiny_vbf::evaluation::EvaluationConfig;
    pub use tiny_vbf::model::TinyVbf;
    pub use tiny_vbf::quantized::{QuantizedTinyVbf, QuantizedTinyVbfBeamformer};
    pub use ultrasound::picmus::{PicmusDataset, PicmusKind};
    pub use ultrasound::{LinearArray, Medium, Phantom, PlaneWave, PlaneWaveSimulator};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let probe = LinearArray::l11_5v();
        assert_eq!(probe.num_elements(), 128);
        let config = TinyVbfConfig::paper();
        assert_eq!(config.channels, 128);
        assert_eq!(QuantScheme::all().len(), 6);
    }
}

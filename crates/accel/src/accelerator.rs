//! Top-level accelerator model: whole-frame latency and utilization reports.

use crate::resources::{self, ResourceEstimate};
use crate::scheduler::Scheduler;
use crate::CLOCK_HZ;
use quantize::QuantScheme;
use serde::{Deserialize, Serialize};
use tiny_vbf::config::TinyVbfConfig;

/// The modelled Tiny-VBF accelerator instance.
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: TinyVbfConfig,
    scheme: QuantScheme,
    scheduler: Scheduler,
}

/// Latency / throughput / utilization summary for one frame size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameReport {
    /// Quantization scheme name.
    pub scheme: String,
    /// Cycles to process one depth row.
    pub cycles_per_row: u64,
    /// Cycles to process the whole frame.
    pub cycles_per_frame: u64,
    /// Frame latency in seconds at the paper's [`CLOCK_HZ`].
    pub latency_seconds: f64,
    /// Frames per second.
    pub frames_per_second: f64,
    /// Resource estimate for this scheme.
    pub resources: ResourceEstimate,
}

impl Accelerator {
    /// Creates the paper's accelerator (4 PEs at 100 MHz, calibrated resource model).
    pub fn new(config: TinyVbfConfig, scheme: QuantScheme) -> Self {
        Self { config, scheme, scheduler: Scheduler::paper() }
    }

    /// Overrides the number of processing elements (design-space ablation).
    pub fn with_pes(mut self, num_pes: usize) -> Self {
        self.scheduler = Scheduler::with_pes(num_pes);
        self
    }

    /// The quantization scheme being modelled.
    pub fn scheme(&self) -> &QuantScheme {
        &self.scheme
    }

    /// The model configuration being accelerated.
    pub fn config(&self) -> &TinyVbfConfig {
        &self.config
    }

    /// Produces the latency / utilization report for a `rows × cols` frame.
    pub fn frame_report(&self, rows: usize, cols: usize) -> FrameReport {
        let row_config = TinyVbfConfig { tokens: cols, ..self.config };
        let cycles_per_row = self.scheduler.row_cycles(&row_config, &self.scheme);
        let cycles_per_frame = cycles_per_row * rows as u64;
        let latency_seconds = cycles_per_frame as f64 / CLOCK_HZ;
        FrameReport {
            scheme: self.scheme.name.to_string(),
            cycles_per_row,
            cycles_per_frame,
            latency_seconds,
            frames_per_second: if latency_seconds > 0.0 { 1.0 / latency_seconds } else { 0.0 },
            resources: resources::estimate(&self.config, &self.scheme),
        }
    }

    /// Reports for every scheme of the paper on the same frame size (Table VI plus the
    /// latency column the paper discusses in the text).
    pub fn all_schemes_report(config: TinyVbfConfig, rows: usize, cols: usize) -> Vec<FrameReport> {
        QuantScheme::all()
            .into_iter()
            .map(|scheme| Accelerator::new(config, scheme).frame_report(rows, cols))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_report_has_consistent_numbers() {
        let accel = Accelerator::new(TinyVbfConfig::paper(), QuantScheme::hybrid2());
        let report = accel.frame_report(368, 128);
        assert_eq!(report.cycles_per_frame, report.cycles_per_row * 368);
        assert!((report.latency_seconds - report.cycles_per_frame as f64 / CLOCK_HZ).abs() < 1e-12);
        assert!(report.frames_per_second > 0.0);
        assert_eq!(report.scheme, "Hybrid-2");
        assert_eq!(accel.scheme().name, "Hybrid-2");
        assert_eq!(accel.config().channels, 128);
    }

    #[test]
    fn accelerator_is_faster_than_the_cpu_baseline() {
        // The paper reports 0.230 s per frame on a Xeon CPU; the accelerator at 100 MHz
        // should beat that comfortably.
        let accel = Accelerator::new(TinyVbfConfig::paper(), QuantScheme::hybrid1());
        let report = accel.frame_report(368, 128);
        assert!(report.latency_seconds < 0.230, "latency {}", report.latency_seconds);
        // …and still take a physically plausible amount of time (> 0.5 ms).
        assert!(report.latency_seconds > 5e-4, "latency {}", report.latency_seconds);
    }

    #[test]
    fn more_pes_reduce_latency() {
        let base = Accelerator::new(TinyVbfConfig::paper(), QuantScheme::hybrid2());
        let wide = Accelerator::new(TinyVbfConfig::paper(), QuantScheme::hybrid2()).with_pes(8);
        assert!(wide.frame_report(368, 128).latency_seconds < base.frame_report(368, 128).latency_seconds);
    }

    #[test]
    fn all_schemes_report_covers_table_vi_rows() {
        let reports = Accelerator::all_schemes_report(TinyVbfConfig::paper(), 368, 128);
        assert_eq!(reports.len(), 6);
        // Latency is identical across schemes (same schedule), resources differ.
        let latency: Vec<f64> = reports.iter().map(|r| r.latency_seconds).collect();
        assert!(latency.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        let float = &reports[0];
        let hybrid2 = &reports[5];
        assert!(hybrid2.resources.lut < float.resources.lut);
    }
}

//! FPGA resource and power estimation (Table VI and Fig. 1(b)).
//!
//! Two levels are provided, and [`estimate`] combines them:
//!
//! * [`paper_table_vi`] returns the paper's measured ZCU104 utilization for the six
//!   evaluated schemes verbatim (these are the reference numbers the benchmark prints
//!   next to the model's estimates), and
//! * [`analytical_estimate`] estimates utilization for *any* scheme from its bit
//!   widths with a simple per-component model (datapath LUTs/FFs grow with the MAC
//!   width, weight storage with the weight width, DSP usage depends on whether a
//!   multiplier fits the 27×18 DSP48 slice, BRAM follows the memory budget).

use crate::memory::MemoryBudget;
use crate::{MACS_PER_PE, NUM_PES};
use quantize::QuantScheme;
use serde::{Deserialize, Serialize};
use tiny_vbf::config::TinyVbfConfig;

/// One row of Table VI: resource utilization of the accelerator under one scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceEstimate {
    /// Scheme name.
    pub scheme: String,
    /// Look-up tables.
    pub lut: f64,
    /// Flip-flops.
    pub ff: f64,
    /// 36 kbit BRAM blocks.
    pub bram: f64,
    /// DSP48 slices.
    pub dsp: f64,
    /// LUTs used as distributed RAM.
    pub lutram: f64,
    /// Estimated total power in watts.
    pub power_w: f64,
}

impl ResourceEstimate {
    /// A scalar "total resource" figure used for the ≈50 % saving claim: the mean of
    /// LUT/FF/BRAM/DSP/LUTRAM utilization relative to a reference estimate.
    pub fn relative_utilization(&self, reference: &ResourceEstimate) -> f64 {
        let ratios = [
            self.lut / reference.lut,
            self.ff / reference.ff,
            self.bram / reference.bram,
            self.dsp / reference.dsp,
            self.lutram / reference.lutram,
        ];
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

/// Estimates the utilization of the accelerator for a model configuration and
/// quantization scheme: the paper's measured Table VI numbers for the six known
/// schemes, the analytical model for any other.
pub fn estimate(config: &TinyVbfConfig, scheme: &QuantScheme) -> ResourceEstimate {
    paper_table_vi(scheme).unwrap_or_else(|| analytical_estimate(config, scheme))
}

/// The paper's measured ZCU104 utilization (Table VI) for the six evaluated schemes.
pub fn paper_table_vi(scheme: &QuantScheme) -> Option<ResourceEstimate> {
    let (lut, ff, bram, dsp, lutram, power) = match scheme.name {
        "Float" => (124_935.0, 91_470.0, 161.5, 533.0, 17_589.0, 4.489),
        "24 bits" => (88_457.0, 50_454.0, 158.0, 279.0, 11_556.0, 4.369),
        "20 bits" => (84_594.0, 43_333.0, 156.0, 148.0, 9_442.0, 4.174),
        "16 bits" => (59_840.0, 34_920.0, 82.0, 274.0, 6_795.0, 3.989),
        "Hybrid-1" => (72_415.0, 38_287.0, 150.0, 146.0, 5_352.0, 4.229),
        "Hybrid-2" => (61_951.0, 29_105.0, 110.0, 274.0, 5_324.0, 4.174),
        _ => return None,
    };
    Some(ResourceEstimate { scheme: scheme.name.to_string(), lut, ff, bram, dsp, lutram, power_w: power })
}

/// Analytical utilization model driven by the scheme's bit widths.
pub fn analytical_estimate(config: &TinyVbfConfig, scheme: &QuantScheme) -> ResourceEstimate {
    let lanes = (NUM_PES * MACS_PER_PE) as f64;
    let datapath = scheme.datapath_bits() as f64;
    let weight = scheme.weight_bits() as f64;
    let softmax = scheme.softmax_bits() as f64;
    let is_float = scheme.is_float();

    // Datapath: each multiplier/adder lane costs LUTs/FFs proportional to its width;
    // floating point needs roughly twice the logic of same-width fixed point.
    let float_factor = if is_float { 2.1 } else { 1.0 };
    let lut_per_lane = 28.0 * datapath * float_factor;
    let ff_per_lane = 18.0 * datapath * float_factor;
    // Control, AXI interfaces and the non-linear units.
    let control_lut = 12_000.0 + 250.0 * softmax;
    let control_ff = 8_000.0 + 180.0 * softmax;
    // Weight handling (decode/align) scales with the weight width.
    let weight_lut = 900.0 * weight;
    let weight_ff = 600.0 * weight;

    let lut = lanes * lut_per_lane + control_lut + weight_lut;
    let ff = lanes * ff_per_lane + control_ff + weight_ff;

    // A DSP48E2 multiplies up to 27×18; wider products need 4 slices (or are split into
    // LUT logic when exactly at 20 bits as the paper's tool flow chose to do).
    let dsp_per_lane = if is_float {
        8.0
    } else if datapath <= 18.0 {
        4.0
    } else if datapath <= 20.0 {
        2.2
    } else {
        4.2
    };
    let dsp = lanes * dsp_per_lane + 21.0;

    let bram = MemoryBudget::for_model(config, scheme).bram_blocks().max(8.0);
    let lutram = 1_500.0 + 45.0 * datapath * if is_float { 2.0 } else { 1.0 } + 40.0 * weight;
    // Power: static ~3.2 W plus dynamic roughly proportional to switched logic width.
    let power_w = 3.2 + 0.0085 * datapath * if is_float { 1.5 } else { 1.0 } + 0.003 * softmax + 0.15;

    ResourceEstimate { scheme: scheme.name.to_string(), lut, ff, bram, dsp, lutram, power_w }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_model_reproduces_table_vi_exactly() {
        let config = TinyVbfConfig::paper();
        let float = estimate(&config, &QuantScheme::float());
        assert_eq!(float.lut, 124_935.0);
        assert_eq!(float.dsp, 533.0);
        let h2 = estimate(&config, &QuantScheme::hybrid2());
        assert_eq!(h2.ff, 29_105.0);
        assert_eq!(h2.bram, 110.0);
        for scheme in QuantScheme::all() {
            assert_eq!(Some(estimate(&config, &scheme)), paper_table_vi(&scheme), "{}", scheme.name);
        }
    }

    #[test]
    fn hybrid2_saves_about_half_the_resources_of_float() {
        let config = TinyVbfConfig::paper();
        let float = estimate(&config, &QuantScheme::float());
        let h2 = estimate(&config, &QuantScheme::hybrid2());
        let relative = h2.relative_utilization(&float);
        assert!(relative < 0.6, "relative utilization {relative}");
        assert!(relative > 0.3, "relative utilization {relative}");
    }

    #[test]
    fn analytical_model_follows_the_papers_ordering() {
        let config = TinyVbfConfig::paper();
        let est = |s: QuantScheme| analytical_estimate(&config, &s);
        let float = est(QuantScheme::float());
        let w24 = est(QuantScheme::w24());
        let w16 = est(QuantScheme::w16());
        let h1 = est(QuantScheme::hybrid1());
        let h2 = est(QuantScheme::hybrid2());
        // Float is the most expensive in LUT, FF, DSP and power.
        assert!(float.lut > w24.lut && w24.lut > w16.lut);
        assert!(float.ff > w24.ff && w24.ff > w16.ff);
        assert!(float.power_w > w16.power_w);
        // Hybrids cost less than float and less LUT than uniform 24-bit.
        assert!(h1.lut < float.lut && h2.lut < float.lut);
        assert!(h2.lut <= h1.lut + 1.0);
        // Hybrid-2 uses narrower datapaths than Hybrid-1 so its memory is smaller too.
        assert!(h2.bram <= h1.bram);
    }

    #[test]
    fn analytical_model_is_within_a_factor_of_the_measurements() {
        // The analytical model is not expected to match Vivado exactly, but it should
        // land within ~2.5x of every Table VI entry for LUT/FF and power.
        let config = TinyVbfConfig::paper();
        for scheme in QuantScheme::all() {
            let measured = paper_table_vi(&scheme).unwrap();
            let estimated = analytical_estimate(&config, &scheme);
            for (m, e, label) in [
                (measured.lut, estimated.lut, "lut"),
                (measured.ff, estimated.ff, "ff"),
                (measured.power_w, estimated.power_w, "power"),
            ] {
                let ratio = (e / m).max(m / e);
                assert!(ratio < 2.5, "{} {label}: measured {m} estimated {e}", scheme.name);
            }
        }
    }

    #[test]
    fn unknown_scheme_falls_back_to_analytical() {
        let config = TinyVbfConfig::paper();
        let custom = QuantScheme { name: "custom-12", ..QuantScheme::w16() };
        assert_eq!(estimate(&config, &custom), analytical_estimate(&config, &custom));
        assert_eq!(estimate(&config, &custom).scheme, "custom-12");
    }
}

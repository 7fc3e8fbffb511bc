//! FPGA deployment walk-through: quantize a Tiny-VBF model with the paper's hybrid
//! schemes, check how far the quantized output drifts from floating point, and print
//! the modelled ZCU104 resource utilization and frame latency (Tables III-VI).
//!
//! Run with `cargo run --release --example fpga_deployment`.

use accel::accelerator::Accelerator;
use neural::init::normal;
use quantize::QuantScheme;
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::model::TinyVbf;
use tiny_vbf::quantized::QuantizedTinyVbf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = TinyVbfConfig::paper();
    let model = TinyVbf::new(&config)?;
    println!("Tiny-VBF ({} weights) on the ZCU104 accelerator model\n", model.num_weights());

    // A representative normalized ToF-corrected row.
    let row = normal(&[config.tokens, config.channels], 0.3, 11).map(|v| v.clamp(-1.0, 1.0));
    let float_out = QuantizedTinyVbf::from_model(&model, QuantScheme::float()).infer_row(&row);

    println!("{:<10} {:>12} {:>10} {:>10} {:>8} {:>10} {:>10}", "Scheme", "max |err|", "LUT", "FF", "DSP", "BRAM", "latency");
    for scheme in QuantScheme::all() {
        let quantized = QuantizedTinyVbf::from_model(&model, scheme);
        let out = quantized.infer_row(&row);
        let max_err = float_out
            .as_slice()
            .iter()
            .zip(out.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let report = Accelerator::new(config, scheme).frame_report(368, 128);
        println!(
            "{:<10} {:>12.5} {:>10.0} {:>10.0} {:>8.0} {:>10.1} {:>8.1} ms",
            scheme.name,
            max_err,
            report.resources.lut,
            report.resources.ff,
            report.resources.dsp,
            report.resources.bram,
            report.latency_seconds * 1e3
        );
    }

    println!("\nThe paper's headline: Hybrid-2 cuts resource use by >50% versus the float design");
    println!("while Tables IV/V show essentially unchanged resolution and contrast.");
    Ok(())
}

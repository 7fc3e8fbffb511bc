//! Regenerates the Section IV efficiency comparison: GOPs/frame for every model and the
//! measured single-frame CPU inference time of our implementation, next to the paper's
//! reported numbers.

use neural::init::normal;
use quantize::QuantScheme;
use std::time::Instant;
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::gops::{
    das_gops, fcnn_gops, mvdr_gops, tiny_cnn_gops, tiny_vbf_gops, PAPER_CNN8_GOPS, PAPER_CNN9_GOPS,
    PAPER_FCNN_GOPS, PAPER_MVDR_GOPS, PAPER_TINY_CNN_GOPS, PAPER_TINY_VBF_GOPS,
    PAPER_MVDR_CPU_SECONDS, PAPER_TINY_CNN_CPU_SECONDS, PAPER_TINY_VBF_CPU_SECONDS,
};
use tiny_vbf::model::TinyVbf;
use tiny_vbf::quantized::QuantizedTinyVbf;

fn main() {
    println!("GOPs per 368x128 frame (our analytical count vs paper):");
    let config = TinyVbfConfig::paper();
    let rows = [
        (tiny_vbf_gops(&config, 368, 128), PAPER_TINY_VBF_GOPS),
        (fcnn_gops(368, 128, 128, 128), PAPER_FCNN_GOPS),
        (tiny_cnn_gops(368, 128, 128, 8), PAPER_TINY_CNN_GOPS),
        (mvdr_gops(368, 128, 128), PAPER_MVDR_GOPS),
        (das_gops(368, 128, 128), f64::NAN),
    ];
    for (estimate, paper) in rows {
        println!("  {:<10} {:>10.3} GOPs   (paper: {:>7.2})", estimate.model, estimate.gops_per_frame, paper);
    }
    println!("  (paper also cites CNN [8] ≈ {PAPER_CNN8_GOPS} GOPs and CNN [9] ≈ {PAPER_CNN9_GOPS} GOPs)");

    // Measure our per-row inference time and extrapolate to a full frame.
    let model = QuantizedTinyVbf::from_model(&TinyVbf::new(&config).expect("model"), QuantScheme::float());
    let row = normal(&[config.tokens, config.channels], 0.3, 1);
    // Warm up.
    let _ = model.infer_row(&row);
    let iterations = 20usize;
    let start = Instant::now();
    for _ in 0..iterations {
        let _ = model.infer_row(&row);
    }
    let per_row = start.elapsed().as_secs_f64() / iterations as f64;
    let per_frame = per_row * 368.0;
    println!();
    println!("CPU inference time per 368x128 frame:");
    println!("  Tiny-VBF (this implementation, single thread): {:.3} s", per_frame);
    println!(
        "  Paper: Tiny-VBF {:.3} s, Tiny-CNN {:.3} s, MVDR {:.0} s (Intel Xeon 2 vCPU @ 2.2 GHz)",
        PAPER_TINY_VBF_CPU_SECONDS, PAPER_TINY_CNN_CPU_SECONDS, PAPER_MVDR_CPU_SECONDS
    );
}

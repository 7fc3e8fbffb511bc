//! Regenerates the Section IV efficiency comparison: GOPs per 368x128 frame for
//! every model and the measured CPU time per frame of DAS, MVDR, Tiny-CNN, FCNN
//! and Tiny-VBF, next to the paper's reported numbers.
//!
//! Each model runs its `Beamformer::beamform` on one synthetic frame of the
//! paper's geometry (the 128-element L11-5v probe, the 368x128 grid) at the
//! workspace thread count (`TINY_VBF_THREADS`), once to warm up and once timed.
//! The timed networks are the sizes the GOPs rows count. MVDR costs the same
//! per depth row at every depth and takes minutes per frame, so it is timed on
//! a band of rows from the middle of the grid and scaled to the whole frame.
//! Tiny-VBF runs its inference engine; FCNN and Tiny-CNN run their training
//! forward (a `Tensor` per depth row, a model clone per worker), and their
//! rows say so.
//!
//! Run with `cargo run --release -p bench --bin gops_inference_time`.

use beamforming::grid::ImagingGrid;
use beamforming::pipeline::{Beamformer, DelayAndSum, Mvdr};
use bench::harness::synthetic_frame;
use quantize::QuantScheme;
use std::hint::black_box;
use std::time::Instant;
use tiny_vbf::baselines::{Fcnn, TinyCnn};
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::gops::{
    das_gops, fcnn_gops, mvdr_gops, tiny_cnn_gops, tiny_vbf_gops, PAPER_CNN8_CPU_SECONDS, PAPER_CNN8_GOPS,
    PAPER_CNN9_GOPS, PAPER_FCNN_GOPS, PAPER_MVDR_CPU_SECONDS, PAPER_MVDR_GOPS, PAPER_TINY_CNN_CPU_SECONDS,
    PAPER_TINY_CNN_GOPS, PAPER_TINY_VBF_CPU_SECONDS, PAPER_TINY_VBF_GOPS,
};
use tiny_vbf::inference::{FcnnBeamformer, TinyCnnBeamformer};
use tiny_vbf::model::TinyVbf;
use tiny_vbf::quantized::QuantizedTinyVbfBeamformer;
use ultrasound::LinearArray;

/// RF samples per channel: 65.5 µs at 31.25 MHz, about the round trip to the
/// grid's 45 mm bottom row.
const SAMPLES: usize = 2048;
/// Tiny-CNN feature maps and FCNN hidden width, as counted by the GOPs rows.
const TINY_CNN_FEATURES: usize = 8;
const FCNN_HIDDEN: usize = 128;
/// Depth rows MVDR is timed on.
const MVDR_BAND_ROWS: usize = 16;
const SOUND_SPEED: f32 = 1540.0;

fn main() {
    let config = TinyVbfConfig::paper();
    let array = LinearArray::l11_5v();
    let grid = ImagingGrid::paper_default(&array);
    let (rows, cols, channels) = (grid.num_rows(), grid.num_cols(), array.num_elements());
    assert_eq!((config.channels, config.tokens), (channels, cols), "the paper config matches the paper grid");
    let frame = synthetic_frame(&array, SAMPLES, 1);
    let first = (rows - MVDR_BAND_ROWS) / 2;
    let band = ImagingGrid::new(grid.z_positions()[first..first + MVDR_BAND_ROWS].to_vec(), grid.x_positions().to_vec())
        .expect("a band of the paper grid");

    let tiny_vbf = TinyVbf::new(&config).expect("Tiny-VBF");
    let tiny_vbf = QuantizedTinyVbfBeamformer::new(&tiny_vbf, QuantScheme::float());
    let fcnn = FcnnBeamformer::new(Fcnn::new(channels, FCNN_HIDDEN, 1).expect("FCNN"));
    let tiny_cnn = TinyCnnBeamformer::new(TinyCnn::new(channels, TINY_CNN_FEATURES, 1).expect("Tiny-CNN"));
    // (GOPs estimate, paper GOPs, beamformer, timed grid, paper CPU seconds,
    // whether it times a training forward)
    let models: [(_, _, &dyn Beamformer, _, _, _); 5] = [
        (tiny_vbf_gops(&config, rows, cols), PAPER_TINY_VBF_GOPS, &tiny_vbf, &grid, PAPER_TINY_VBF_CPU_SECONDS, false),
        (fcnn_gops(rows, cols, channels, FCNN_HIDDEN), PAPER_FCNN_GOPS, &fcnn, &grid, f64::NAN, true),
        (
            tiny_cnn_gops(rows, cols, channels, TINY_CNN_FEATURES),
            PAPER_TINY_CNN_GOPS,
            &tiny_cnn,
            &grid,
            PAPER_TINY_CNN_CPU_SECONDS,
            true,
        ),
        (mvdr_gops(rows, cols, channels), PAPER_MVDR_GOPS, &Mvdr::default(), &band, PAPER_MVDR_CPU_SECONDS, false),
        (das_gops(rows, cols, channels), f64::NAN, &DelayAndSum::default(), &grid, f64::NAN, false),
    ];

    println!("Section IV: cost per {rows}x{cols} frame, {channels} channels; CPU time at {} thread(s)", runtime::default_threads());
    println!("(paper CPU: Intel Xeon, 2 vCPU @ 2.2 GHz)");
    println!("  {:<10} {:>10} {:>10} {:>10} {:>10}", "Model", "GOPs", "paper", "CPU s", "paper");
    for (estimate, paper_gops, beamformer, timed, paper_seconds, training_forward) in models {
        let run = || beamformer.beamform(&frame, &array, timed, SOUND_SPEED).expect("beamform");
        black_box(run()); // warm-up: builds whatever the beamformer caches
        let start = Instant::now();
        black_box(run());
        let timed_rows = timed.num_rows();
        let seconds = start.elapsed().as_secs_f64() * rows as f64 / timed_rows as f64;
        let note = if timed_rows < rows {
            format!("   extrapolated from {timed_rows} of {rows} rows")
        } else if training_forward {
            "   training forward (a Tensor per row, a model clone per worker)".to_string()
        } else {
            String::new()
        };
        println!(
            "  {:<10} {:>10.3} {:>10.2} {:>10.3} {:>10.3}{note}",
            estimate.model, estimate.gops_per_frame, paper_gops, seconds, paper_seconds
        );
    }
    println!(
        "  (paper also cites CNN [8] ≈ {PAPER_CNN8_GOPS} GOPs and {PAPER_CNN8_CPU_SECONDS} s, CNN [9] ≈ {PAPER_CNN9_GOPS} GOPs)"
    );
}

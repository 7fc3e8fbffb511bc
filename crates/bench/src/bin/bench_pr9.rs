//! PR-9 SIMD-datapath benchmark: the fixed-point-vs-float inference headline.
//!
//! Full Tiny-VBF row inference over every depth row of the 368×128 paper grid
//! (tokens = 128, channels = 128), once per Table III scheme, feeds
//! `BENCH_pr9.json`. The float scheme runs the `f32` datapath; every
//! fixed-point scheme runs the real integer kernels. The gate asserted after
//! the report is written: **fx16 integer inference is faster than float** —
//! the quantized rung finally pays for itself in this reproduction. The
//! per-kernel dispatch-tier timings live in `perfbench --trace 1`
//! (`runtime.simd.*`).
//!
//! Writes `BENCH_pr9.json` into the current directory. Run with
//! `cargo run --release -p bench --bin bench_pr9` from the repository root,
//! so that `.cargo/config.toml`'s `-C target-cpu=native` applies; the report
//! records the compile-time target features it was built with. Each rung's
//! time is the median of `REPS` frames, taken as `REPS` passes over all six
//! rungs so that a slow stretch of the host touches every rung alike.

use beamforming::tof::TofCube;
use neural::tensor::Tensor;
use quantize::QuantScheme;
use runtime::simd::{self, SimdMode};
use std::hint::black_box;
use std::time::Instant;
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::model::TinyVbf;
use tiny_vbf::quantized::QuantizedTinyVbf;
use tiny_vbf::training::cube_row;

/// Paper imaging grid: 368 depth rows × 128 lateral pixels.
const GRID_ROWS: usize = 368;
/// Timed frames per rung; the gate compares their medians.
const REPS: usize = 5;

fn lcg(state: &mut u64) -> f32 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
}

/// Median of `samples`.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    // ---- inference: 368×128 paper grid, all Table III schemes -------------
    let config = TinyVbfConfig::paper();
    eprintln!(
        "bench_pr9: paper-grid inference ({} rows × {} tokens × {} channels)",
        GRID_ROWS, config.tokens, config.channels
    );
    let model = TinyVbf::new(&config).expect("paper config");
    let mut state = 0x5EED_u64;
    let mut cube = TofCube::zeros(GRID_ROWS, config.tokens, config.channels);
    for v in cube.as_mut_slice() {
        *v = lcg(&mut state);
    }
    cube.normalize();
    let rows: Vec<Tensor> = (0..cube.rows()).map(|r| cube_row(&cube, r)).collect();

    let engines: Vec<QuantizedTinyVbf> =
        QuantScheme::all().into_iter().map(|scheme| QuantizedTinyVbf::from_model(&model, scheme)).collect();
    let mut samples = vec![Vec::with_capacity(REPS); engines.len()];
    for _ in 0..REPS {
        for (engine, samples) in engines.iter().zip(&mut samples) {
            let start = Instant::now();
            for row in &rows {
                black_box(engine.infer_row(row));
            }
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let mut inference = Vec::new();
    for (engine, samples) in engines.iter().zip(samples) {
        let us = median(samples);
        eprintln!("  {:>14}: {:9.0} µs/frame", engine.scheme().backend_label(), us);
        inference.push((engine.scheme().backend_label().to_string(), us));
    }

    let float_us = inference.iter().find(|(n, _)| n == "tiny-vbf-fp").map(|&(_, t)| t).expect("float entry");
    let fx16_us = inference.iter().find(|(n, _)| n == "tiny-vbf-fx16").map(|&(_, t)| t).expect("fx16 entry");
    let speedup = float_us / fx16_us;
    eprintln!("bench_pr9: fx16 vs float speedup {speedup:.3}×");

    // ---- report -----------------------------------------------------------
    let inference_json: Vec<String> = inference
        .iter()
        .map(|(name, us)| format!("    \"{name}\": {{ \"us_per_frame\": {us:.1}, \"speedup_vs_float\": {:.3} }}", float_us / us))
        .collect();
    // The build's target features: a build without `target-cpu=native`
    // runs the float forward several times slower.
    let features = simd::TARGET_FEATURES.map(|(name, on)| format!("\"{name}\": {on}")).join(", ");
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"pr\": 9,\n  \"reps\": {},\n  \"native_tier\": \"{}\",\n  \"target_features\": {{ {} }},\n  \"inference_368x128\": {{\n{}\n  }},\n  \"gate\": {{ \"fx16_faster_than_float\": {}, \"fx16_speedup_vs_float\": {:.3} }}\n}}\n",
        REPS,
        if simd::native_available() { SimdMode::Native.label() } else { "unavailable" },
        features,
        inference_json.join(",\n"),
        fx16_us < float_us,
        speedup,
    );
    std::fs::write("BENCH_pr9.json", &json).expect("write BENCH_pr9.json");
    println!("{json}");

    assert!(
        fx16_us < float_us,
        "gate failed: fx16 integer inference ({fx16_us:.0} µs) must be faster than float ({float_us:.0} µs)"
    );
    eprintln!("bench_pr9: wrote BENCH_pr9.json");
}

//! PR-9 SIMD-datapath benchmark: per-kernel dispatch-tier speedups and the
//! fixed-point-vs-float inference headline.
//!
//! Two measurement families feed `BENCH_pr9.json`:
//!
//! * **Kernels** — each `runtime::simd` hot kernel timed under every
//!   available dispatch tier (`scalar` → `portable` → `native`) on
//!   paper-scale shapes (128-channel gathers, the 128×128·128×8 encoder
//!   matmul, and the i16-madd vs i64 integer MAC panels). The determinism
//!   contract makes the tiers bitwise interchangeable, so the speedups are
//!   pure throughput wins.
//! * **Inference** — full Tiny-VBF row inference over every depth row of the
//!   368×128 paper grid (tokens = 128, channels = 128), once per Table III
//!   scheme. The float scheme runs the `f32` datapath; every fixed-point
//!   scheme runs the real integer kernels. The gate asserted before the
//!   report is written: **fx16 integer inference is faster than float** —
//!   the quantized rung finally pays for itself in this reproduction.
//!
//! Writes `BENCH_pr9.json` into the current directory. Run with
//! `cargo run --release -p bench --bin bench_pr9` from the repository root,
//! so that `.cargo/config.toml`'s `-C target-cpu=native` applies; the report
//! records the compile-time target features it was built with. Set
//! `BENCH_PR9_FAST=1` (or the `BENCH_FAST=1` umbrella) for fewer repetitions.

use beamforming::tof::TofCube;
use neural::tensor::Tensor;
use quantize::QuantScheme;
use runtime::simd::{self, SimdMode};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::model::TinyVbf;
use tiny_vbf::quantized::QuantizedTinyVbf;
use tiny_vbf::training::cube_row;

/// Paper imaging grid: 368 depth rows × 128 lateral pixels.
const GRID_ROWS: usize = 368;

fn lcg(state: &mut u64) -> f32 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
}

/// Median-of-`reps` wall time for `iters` calls of `f`, in µs per call.
fn time_us<F: FnMut()>(reps: usize, iters: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Times `f` under each available dispatch tier; returns (mode label, µs).
fn per_mode<F: FnMut()>(reps: usize, iters: usize, mut f: F) -> Vec<(&'static str, f64)> {
    let out = simd::available_modes()
        .into_iter()
        .map(|mode| {
            simd::force_mode(Some(mode));
            (mode.label(), time_us(reps, iters, &mut f))
        })
        .collect();
    simd::force_mode(None);
    out
}

fn json_kernel(name: &str, timings: &[(&'static str, f64)]) -> String {
    let scalar = timings.iter().find(|(m, _)| *m == "scalar").map(|&(_, t)| t).unwrap_or(f64::NAN);
    let mut body = String::new();
    for (mode, us) in timings {
        let _ = write!(body, "\"{mode}_us\": {us:.3}, ");
    }
    let best = timings.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
    format!("    \"{name}\": {{ {body}\"best_speedup_vs_scalar\": {:.3} }}", scalar / best)
}

fn main() {
    let fast = bench::report::fast_mode(9);
    let (reps, iters) = if fast { (3, 2_000) } else { (5, 20_000) };
    let infer_reps = if fast { 1 } else { 3 };

    // ---- kernel shapes: 128-channel paper geometry -------------------------
    let channels = 128usize;
    let samples = 1024usize;
    let mut state = 0x5EED_u64;
    let flat: Vec<f32> = (0..channels * samples).map(|_| lcg(&mut state)).collect();
    let (tap0, tap1): (Vec<u32>, Vec<u32>) = (0..channels)
        .map(|ch| {
            let base = (ch * samples) as u32 + (lcg(&mut state).abs() * (samples - 2) as f32) as u32;
            (base, base + 1)
        })
        .unzip();
    let frac: Vec<f32> = (0..channels).map(|_| lcg(&mut state) + 0.5).collect();
    let w0: Vec<f32> = frac.iter().map(|f| 1.0 - f).collect();
    let w1 = frac;
    let apod: Vec<f32> = (0..channels).map(|_| lcg(&mut state).abs()).collect();
    let a_mat = {
        let mut t = Tensor::zeros(&[128, 128]);
        for v in t.as_mut_slice() {
            *v = lcg(&mut state);
        }
        t
    };
    let b_mat = {
        let mut t = Tensor::zeros(&[128, 8]);
        for v in t.as_mut_slice() {
            *v = lcg(&mut state);
        }
        t
    };
    let a_codes: Vec<i32> = (0..128).map(|_| (lcg(&mut state) * 20000.0) as i32).collect();
    let b_codes: Vec<i32> = (0..128 * 128).map(|_| (lcg(&mut state) * 20000.0) as i32).collect();
    let a_pairs: Vec<i32> =
        (0..64).map(|p| simd::pack_i16_pair(a_codes[2 * p].clamp(-32767, 32767), a_codes[2 * p + 1].clamp(-32767, 32767))).collect();
    let b_pairs: Vec<i32> = (0..64 * 128)
        .map(|i| {
            let (p, j) = (i / 128, i % 128);
            simd::pack_i16_pair(b_codes[(2 * p) * 128 + j].clamp(-32767, 32767), b_codes[(2 * p + 1) * 128 + j].clamp(-32767, 32767))
        })
        .collect();

    eprintln!("bench_pr9: timing kernels ({})", if fast { "fast" } else { "full" });
    let mut gather_out = vec![0.0f32; channels];
    let kernels = vec![
        (
            "das_gather_reduce_128ch",
            per_mode(reps, iters, || {
                black_box(simd::das_gather_reduce(&flat, &tap0, &tap1, &w0, &w1, &apod));
            }),
        ),
        (
            "tof_gather_two_tap_128ch",
            per_mode(reps, iters, || {
                simd::gather_two_tap(&flat, &tap0, &tap1, &w0, &w1, &mut gather_out);
                black_box(&gather_out);
            }),
        ),
        (
            "matmul_128x128x8",
            per_mode(reps, iters / 8 + 1, || {
                black_box(a_mat.matmul(&b_mat));
            }),
        ),
        (
            "int_madd_block_64x128",
            per_mode(reps, iters, || {
                let mut acc = [0i32; 128];
                simd::madd_block(&mut acc, &a_pairs, &b_pairs);
                black_box(&acc);
            }),
        ),
        (
            "int_i64_mac_row_128x128",
            per_mode(reps, iters / 4 + 1, || {
                let mut acc = [0i64; 128];
                simd::i64_mac_row(&mut acc, &a_codes, &b_codes);
                black_box(&acc);
            }),
        ),
    ];

    // ---- inference: 368×128 paper grid, all Table III schemes -------------
    let config = TinyVbfConfig::paper();
    eprintln!(
        "bench_pr9: paper-grid inference ({} rows × {} tokens × {} channels)",
        GRID_ROWS, config.tokens, config.channels
    );
    let model = TinyVbf::new(&config).expect("paper config");
    let mut cube = TofCube::zeros(GRID_ROWS, config.tokens, config.channels);
    for v in cube.as_mut_slice() {
        *v = lcg(&mut state);
    }
    cube.normalize();
    let rows: Vec<Tensor> = (0..cube.rows()).map(|r| cube_row(&cube, r)).collect();

    let mut inference = Vec::new();
    for scheme in QuantScheme::all() {
        let engine = QuantizedTinyVbf::from_model(&model, scheme.clone());
        let us = time_us(infer_reps, 1, || {
            for row in &rows {
                black_box(engine.infer_row(row));
            }
        });
        eprintln!("  {:>14}: {:9.0} µs/frame", scheme.backend_label(), us);
        inference.push((scheme.backend_label().to_string(), us));
    }

    let float_us = inference.iter().find(|(n, _)| n == "tiny-vbf-fp").map(|&(_, t)| t).expect("float entry");
    let fx16_us = inference.iter().find(|(n, _)| n == "tiny-vbf-fx16").map(|&(_, t)| t).expect("fx16 entry");
    let speedup = float_us / fx16_us;
    eprintln!("bench_pr9: fx16 vs float speedup {speedup:.3}×");

    // ---- report -----------------------------------------------------------
    let mut kernels_json: Vec<String> = kernels.iter().map(|(name, t)| json_kernel(name, t)).collect();
    kernels_json.sort();
    let inference_json: Vec<String> = inference
        .iter()
        .map(|(name, us)| format!("    \"{name}\": {{ \"us_per_frame\": {us:.1}, \"speedup_vs_float\": {:.3} }}", float_us / us))
        .collect();
    // The build's target features: a build without `target-cpu=native`
    // runs the float forward several times slower.
    let features = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .map(|(name, on)| format!("\"{name}\": {on}"))
    .join(", ");
    let json = format!
(
        "{{\n  \"schema_version\": 1,\n  \"pr\": 9,\n  \"profile\": \"{}\",\n  \"native_tier\": \"{}\",\n  \"target_features\": {{ {} }},\n  \"kernels\": {{\n{}\n  }},\n  \"inference_368x128\": {{\n{}\n  }},\n  \"gate\": {{ \"fx16_faster_than_float\": {}, \"fx16_speedup_vs_float\": {:.3} }}\n}}\n",
        if fast { "fast" } else { "full" },
        if simd::native_available() { SimdMode::Native.label() } else { "unavailable" },
        features,
        kernels_json.join(",\n"),
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

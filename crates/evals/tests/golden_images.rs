//! Golden-image regression: every rung's rendered phantom frame is bitwise
//! pinned. A seeded, untrained Tiny-VBF model (weight init is fully
//! deterministic in the config seed) renders one tiny contrast scene
//! through each router backend — float plus the five integer rungs — and
//! the raw interleaved IQ pixels must match the committed goldens bit for
//! bit. Any change to the integer inference path (requantization order,
//! rounding mode, accumulator width) shows up here before it shows up as a
//! drifting quality metric. The classical beamformers are pinned the same
//! way: planned boxcar DAS (`das-planned.hex`) and the MVDR training target
//! (`mvdr.hex`), so a change that the planned and direct paths share still
//! shows up.
//!
//! To bless new goldens after an *intentional* numerics change:
//! `BLESS_GOLDENS=1 cargo test -p evals --test golden_images`.

use beamforming::pipeline::Beamformer;
use beamforming::das::DelayAndSum;
use beamforming::plan::{PlanCache, PlannedDas};
use quantize::QuantScheme;
use std::path::PathBuf;
use std::sync::Arc;
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::evaluation::EvaluationConfig;
use tiny_vbf::model::TinyVbf;
use tiny_vbf::quantized::{QuantizedTinyVbf, QuantizedTinyVbfBeamformer};
use ultrasound::picmus::PicmusKind;

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens")
}

/// One 8-hex-digit `f32::to_bits` word per line: bit-exact, diffable, and
/// byte-order independent.
fn encode(pixels: &[f32]) -> String {
    let mut out = String::with_capacity(pixels.len() * 9);
    for p in pixels {
        out.push_str(&format!("{:08x}\n", p.to_bits()));
    }
    out
}

#[test]
fn rendered_frames_match_committed_goldens_bit_for_bit() {
    // Tinier than the eval pass's fast profile: goldens pin numerics, not
    // image quality, so the grid only needs enough pixels to exercise the
    // whole pipeline.
    let eval = EvaluationConfig { grid_rows: 24, grid_cols: 16, ..EvaluationConfig::test_size() };
    let array = eval.array();
    let grid = eval.grid();
    let frame = eval.contrast_frame(PicmusKind::InSilico).expect("contrast scene");

    // Untrained but fully seeded: TinyVbf::new derives every weight from
    // the config seed, so the quantized rungs below are reproducible
    // without a (slow) training pass.
    let model_config = TinyVbfConfig::paper().for_frame(array.num_elements(), grid.num_cols());
    let model = TinyVbf::new(&model_config).expect("seeded model");

    let tof_plans = Arc::new(PlanCache::new(8));
    let mut backends: Vec<(String, Box<dyn Beamformer>)> = QuantScheme::all()
        .into_iter()
        .map(|scheme| {
            let backend = QuantizedTinyVbfBeamformer::with_tof_cache(
                QuantizedTinyVbf::from_model(&model, scheme),
                Arc::clone(&tof_plans),
            );
            (scheme.backend_label().to_string(), Box::new(backend) as Box<dyn Beamformer>)
        })
        .collect();
    backends.push(("das-planned".into(), Box::new(PlannedDas::new(DelayAndSum::default()))));
    backends.push(("mvdr".into(), Box::new(eval.mvdr.clone())));

    let bless = std::env::var_os("BLESS_GOLDENS").is_some();
    let mut blessed = Vec::new();
    for (label, backend) in &backends {
        let iq = backend
            .beamform(&frame.channel_data, &frame.array, &grid, eval.sound_speed)
            .expect("beamform");
        let rendered = encode(&iq.to_interleaved());

        let path = goldens_dir().join(format!("{label}.hex"));
        if bless {
            std::fs::create_dir_all(goldens_dir()).expect("goldens dir");
            std::fs::write(&path, &rendered).expect("write golden");
            blessed.push(label.as_str());
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with BLESS_GOLDENS=1 to create it",
                path.display()
            )
        });
        assert_eq!(
            rendered,
            golden,
            "{label} drifted from its golden image — if the numerics change \
             is intentional, re-bless with BLESS_GOLDENS=1"
        );
    }
    assert!(!bless, "goldens blessed for {blessed:?} — rerun without BLESS_GOLDENS to verify");
}

//! The evaluation pass: render every router backend over deterministic
//! phantom scenes and reduce each rung's images to the paper's metrics.

use crate::profile::{QualityProfile, RungQuality};
use beamforming::plan::PlanCache;
use quantize::QuantScheme;
use std::sync::Arc;
use tiny_vbf::evaluation::{measure, EvaluationConfig, SceneSet};
use tiny_vbf::quantized::{QuantizedTinyVbf, QuantizedTinyVbfBeamformer};
use tiny_vbf::training::train;
use tiny_vbf::TinyVbfResult;
use ultrasound::picmus::PicmusKind;

/// Scale and seed of one evaluation run.
///
/// Wraps a [`EvaluationConfig`] (scene geometry, training schedule, seed)
/// with a profile label that travels into the emitted
/// [`QualityProfile`].
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Profile label recorded in the output (`fast` / `full`).
    pub label: String,
    /// Scene geometry, probe scale, seed and training schedule.
    pub eval: EvaluationConfig,
}

impl EvalConfig {
    /// CI-sized run: the core harness's test-size geometry with a training
    /// schedule just long enough that every rung's point-spread function
    /// actually localizes (a near-untrained model's lateral profile never
    /// drops below half maximum, which would leave FWHM undefined). Runs in
    /// a couple of seconds.
    pub fn fast() -> Self {
        let eval =
            EvaluationConfig { training_frames: 3, epochs: 24, ..EvaluationConfig::test_size() };
        Self { label: "fast".into(), eval }
    }

    /// Measurement-sized run: the reduced-scale geometry of the table
    /// regeneration harness (minutes), same deepened training schedule as
    /// [`EvalConfig::fast`].
    pub fn full() -> Self {
        let eval = EvaluationConfig { epochs: 24, ..EvaluationConfig::reduced() };
        Self { label: "full".into(), eval }
    }
}

/// Renders every router backend (float + the five Table III fixed-point
/// rungs) over the evaluation scenes and measures each rung's image
/// quality with [`measure`].
///
/// Scenes: the PICMUS-style contrast phantom in both in-silico and
/// in-vitro acquisition (anechoic cysts in speckle, the in-vitro variant
/// passed through `ultrasound::invitro`'s degradation model) and the
/// in-silico resolution phantom (point-target lattice), rendered in that
/// order. Each rung renders through [`QuantizedTinyVbfBeamformer`] — the
/// exact adapter the router serves with — and all six share one ToF
/// [`PlanCache`], mirroring the serving configuration where one plan build
/// feeds every engine. Each rung's SQNR is read from that adapter's quality
/// counters after its renders.
///
/// # Errors
///
/// Propagates simulator/beamforming/metric errors, and reports
/// [`TinyVbfError::InvalidConfig`](tiny_vbf::TinyVbfError::InvalidConfig)
/// when the configured scenes leave no cyst or no point target inside the
/// grid view (a profile measured on nothing must not gate anything).
pub fn evaluate(config: &EvalConfig) -> TinyVbfResult<QualityProfile> {
    let eval = &config.eval;
    let scenes = SceneSet::new(eval, &[PicmusKind::InSilico, PicmusKind::InVitro], PicmusKind::InSilico)?;
    let mut model = eval.tiny_vbf()?;
    train(&mut model, &eval.training_set()?, &eval.trainer())?;

    let tof_plans = Arc::new(PlanCache::new(8));
    let mut rungs = Vec::new();
    for scheme in QuantScheme::all() {
        let backend = QuantizedTinyVbfBeamformer::with_tof_cache(
            QuantizedTinyVbf::from_model(&model, scheme),
            Arc::clone(&tof_plans),
        );
        let row = measure(&backend, &scenes)?;
        let (contrast, resolution) = (row.contrast, row.resolution);
        rungs.push(RungQuality {
            backend: row.name,
            scheme: scheme.name.to_string(),
            cr_db: f64::from(contrast.cr_db),
            cnr: f64::from(contrast.cnr),
            gcnr: f64::from(contrast.gcnr),
            axial_mm: f64::from(resolution.axial_mm),
            lateral_mm: f64::from(resolution.lateral_mm),
            fwhm_mm: f64::from((resolution.axial_mm + resolution.lateral_mm) / 2.0),
            sqnr_db: backend.quality_stats().sqnr_db(),
        });
    }

    let grid = eval.grid();
    Ok(QualityProfile {
        profile: config.label.clone(),
        seed: eval.seed,
        channels: eval.array().num_elements(),
        grid_rows: grid.num_rows(),
        grid_cols: grid.num_cols(),
        rungs,
    })
}

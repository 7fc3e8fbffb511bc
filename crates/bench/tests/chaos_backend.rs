//! A `chaos:`-wrapped backend must report what its inner engine reports: the
//! plan-cache counters the harness scenarios read, and the quantization
//! noise the degrade ladder's SQNR probe reads.

use beamforming::grid::ImagingGrid;
use beamforming::plan::{FrameFormat, PlanCache};
use bench::agent::build_backend;
use bench::harness::{synthetic_frame, ChaosSpec};
use serve::router::StreamSpec;
use std::sync::Arc;
use ultrasound::LinearArray;

#[test]
fn chaos_backends_report_their_inner_plan_cache_and_quantization_noise() {
    let array = LinearArray::small_test_array();
    let spec = StreamSpec {
        grid: ImagingGrid::for_array(&array, 5.0e-3, 15.0e-3, 8, 8),
        array: array.clone(),
        sound_speed: 1540.0,
        backend: String::new(),
    };
    let frame = synthetic_frame(&array, 512, 3);
    // No rate is set, so the schedule injects no fault.
    let chaos = Some(ChaosSpec { seed: 5, panic_one_in: 0, delay_one_in: 0, delay_ms: 0 });
    let shared_tof = Arc::new(PlanCache::new(4));

    let das = build_backend("chaos:das-planned", &spec, &chaos, &shared_tof).unwrap();
    das.prepare(&spec.array, &spec.grid, spec.sound_speed, &FrameFormat::of(&frame));
    let plans = das.plan_cache_stats().expect("chaos:das-planned must expose its plan cache");
    assert_eq!((plans.misses, plans.hits), (1, 0));

    let fx16 = build_backend("chaos:tiny-vbf-fx16", &spec, &chaos, &shared_tof).unwrap();
    fx16.beamform(&frame, &spec.array, &spec.grid, spec.sound_speed).unwrap();
    let quality = fx16.quant_quality_stats().expect("chaos wrappers always report quality");
    assert!(quality.noise_energy > 0.0, "fx16 quantization noise must reach the SQNR probe: {quality:?}");
    assert!(quality.sqnr_db().is_finite());
}

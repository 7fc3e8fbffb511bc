//! Cross-crate integration tests: the full paper pipeline at test scale.

use tiny_vbf_repro::prelude::*;
use tiny_vbf::evaluation::{beamformer_suite, measure, train_models, QualityRow, SceneSet};
use tiny_vbf::quantized::QuantizedTinyVbf;

#[test]
fn simulate_beamform_and_score_all_beamformers() {
    let config = EvaluationConfig::test_size();
    let models = train_models(&config).expect("training at test size should succeed");

    // Training must have actually adjusted the models.
    assert!(models.tiny_vbf_history.final_loss().is_some());
    assert!(models.tiny_vbf.num_weights() > 1_000);

    let beamformers = beamformer_suite(&models, &config);
    assert_eq!(beamformers.len(), 5);

    // Contrast on the in-silico cyst frame: every beamformer produces finite metrics and
    // the classical ones show a clearly darker cyst than background.
    let scenes = SceneSet::new(&config, &[PicmusKind::InSilico], PicmusKind::InSilico).expect("scenes");
    let rows: Vec<QualityRow> = beamformers.iter().map(|b| measure(b.as_ref(), &scenes).expect("measure")).collect();
    for row in &rows {
        assert!(row.contrast.cr_db.is_finite(), "{}", row.name);
        assert!((0.0..=1.0).contains(&row.contrast.gcnr), "{}", row.name);
    }
    let das = rows.iter().find(|r| r.name == "DAS").unwrap();
    let mvdr = rows.iter().find(|r| r.name == "MVDR").unwrap();
    assert!(das.contrast.cr_db > 3.0, "DAS CR {}", das.contrast.cr_db);
    // The paper's ordering: MVDR contrast exceeds DAS.
    assert!(mvdr.contrast.cr_db + 1.0 > das.contrast.cr_db, "MVDR {} DAS {}", mvdr.contrast.cr_db, das.contrast.cr_db);

    // Resolution on the point-target frame.
    assert!(das.resolution.axial_mm > 0.05 && das.resolution.axial_mm < 5.0);
    assert!(das.resolution.lateral_mm > 0.05 && das.resolution.lateral_mm < 10.0);
}

#[test]
fn quantized_model_tracks_float_model() {
    let config = EvaluationConfig::test_size();
    let models = train_models(&config).expect("training");
    let scenes = SceneSet::new(&config, &[PicmusKind::InSilico], PicmusKind::InSilico).expect("scenes");
    let rows: Vec<QualityRow> = QuantScheme::all()
        .into_iter()
        .map(|scheme| measure(&QuantizedTinyVbfBeamformer::new(&models.tiny_vbf, scheme), &scenes).expect("measure"))
        .collect();
    assert_eq!(rows.len(), 6);
    let float_row = rows.iter().find(|r| r.name == "tiny-vbf-fp").unwrap();
    let w24_row = rows.iter().find(|r| r.name == "tiny-vbf-fx24").unwrap();
    // 24-bit quantization should preserve the image metrics almost exactly — the
    // paper's central FPGA claim.
    if float_row.resolution.axial_mm.is_finite() && w24_row.resolution.axial_mm.is_finite() {
        assert!((float_row.resolution.axial_mm - w24_row.resolution.axial_mm).abs() < 0.15);
    }
    assert!((float_row.contrast.cr_db - w24_row.contrast.cr_db).abs() < 2.0);
}

#[test]
fn accelerator_reports_are_consistent_with_the_quantizer() {
    let config = TinyVbfConfig::paper();
    let model = TinyVbf::new(&config).expect("model");
    let scheme = QuantScheme::hybrid2();
    let quantized = QuantizedTinyVbf::from_model(&model, scheme);
    assert_eq!(quantized.scheme().name, "Hybrid-2");

    let accel = Accelerator::new(config, scheme);
    let report = accel.frame_report(368, 128);
    assert_eq!(report.scheme, "Hybrid-2");
    assert!(report.latency_seconds > 0.0 && report.latency_seconds < 1.0);
    // The calibrated resource numbers match Table VI for this scheme.
    assert_eq!(report.resources.lut, 61_951.0);
    assert_eq!(report.resources.dsp, 274.0);
}

#[test]
fn tiny_vbf_beamformer_plugs_into_the_generic_pipeline() {
    let config = EvaluationConfig::test_size();
    let grid = config.grid();
    let array = config.array();
    let frame = config.contrast_frame(PicmusKind::InSilico).expect("frame");

    let model_config = TinyVbfConfig::paper().for_frame(array.num_elements(), grid.num_cols());
    let model = TinyVbf::new(&model_config).expect("model");
    let beamformer = QuantizedTinyVbfBeamformer::new(&model, QuantScheme::float());

    let learned: Vec<Box<dyn Beamformer>> = vec![Box::new(DelayAndSum::default()), Box::new(beamformer)];
    for bf in &learned {
        let bmode = bf
            .beamform_bmode(&frame.channel_data, &array, &grid, 1540.0, 60.0)
            .expect("beamform");
        assert_eq!(bmode.num_rows(), grid.num_rows());
        assert_eq!(bmode.num_cols(), grid.num_cols());
    }
}

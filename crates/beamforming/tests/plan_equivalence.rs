//! Bitwise equivalence of the planned gather kernels against the direct
//! DAS / ToF / MVDR paths, across transmits, thread counts and SIMD tiers —
//! the correctness contract of the `plan` subsystem.

use beamforming::das::DelayAndSum;
use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::mvdr::Mvdr;
use beamforming::pipeline::Beamformer;
use beamforming::plan::{BeamformPlan, FrameFormat, PlannedDas, PlannedMvdr};
use beamforming::tof::tof_correct_with_threads;
use ultrasound::{ChannelData, LinearArray, Medium, Phantom, PlaneWave, PlaneWaveSimulator};

const THREAD_COUNTS: [usize; 3] = [1, 2, 5];

fn test_frame() -> (ChannelData, LinearArray) {
    let array = LinearArray::small_test_array();
    let sim = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), 0.03);
    let phantom = Phantom::builder(0.012, 0.03)
        .seed(11)
        .speckle_density(40.0)
        .add_point_target(0.0, 0.02, 1.0)
        .add_point_target(-0.003, 0.014, 0.7)
        .build();
    (sim.simulate(&phantom, PlaneWave::zero_angle()).unwrap(), array)
}

fn assert_bits_eq(direct: &[f32], planned: &[f32], context: &str) {
    assert_eq!(direct.len(), planned.len(), "{context}: length");
    for (i, (a, b)) in direct.iter().zip(planned.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: sample {i} ({a} vs {b})");
    }
}

fn assert_iq_bits_eq(direct: &IqImage, planned: &IqImage, context: &str) {
    assert_bits_eq(&direct.to_interleaved(), &planned.to_interleaved(), context);
}

#[test]
fn planned_das_rf_is_bitwise_identical_across_transmits_and_threads() {
    let (data, array) = test_frame();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.014, 21, 13);
    let frame = FrameFormat::of(&data);
    for degrees in [0.0, 4.0] {
        let das = DelayAndSum { transmit: PlaneWave::from_degrees(degrees) };
        let plan = BeamformPlan::for_das(&das, &array, &grid, 1540.0, frame).unwrap();
        for threads in THREAD_COUNTS {
            let direct = das.beamform_rf_with_threads(&data, &array, &grid, 1540.0, threads).unwrap();
            let planned = plan.beamform_rf_with_threads(&data, threads).unwrap();
            assert_bits_eq(&direct, &planned, &format!("{degrees}°/threads {threads}"));
        }
    }
}

#[test]
fn planned_das_iq_is_bitwise_identical() {
    let (data, array) = test_frame();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.014, 24, 10);
    let das = DelayAndSum::default();
    let plan = BeamformPlan::for_das(&das, &array, &grid, 1540.0, FrameFormat::of(&data)).unwrap();
    let direct = das.beamform_iq(&data, &array, &grid, 1540.0).unwrap();
    for threads in THREAD_COUNTS {
        let planned = plan.beamform_iq_with_threads(&data, threads).unwrap();
        assert_iq_bits_eq(&direct, &planned, &format!("iq threads {threads}"));
    }
}

#[test]
fn planned_tof_cube_is_bitwise_identical_across_threads() {
    let (data, array) = test_frame();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.014, 18, 9);
    let plan =
        BeamformPlan::for_tof(&array, &grid, PlaneWave::zero_angle(), 1540.0, FrameFormat::of(&data)).unwrap();
    let direct = tof_correct_with_threads(&data, &array, &grid, PlaneWave::zero_angle(), 1540.0, 1).unwrap();
    for threads in THREAD_COUNTS {
        let reference =
            tof_correct_with_threads(&data, &array, &grid, PlaneWave::zero_angle(), 1540.0, threads).unwrap();
        let planned = plan.tof_correct_with_threads(&data, threads).unwrap();
        assert_bits_eq(direct.as_slice(), reference.as_slice(), &format!("direct determinism, threads {threads}"));
        assert_bits_eq(direct.as_slice(), planned.as_slice(), &format!("tof threads {threads}"));
    }
}

#[test]
fn planned_tof_handles_steered_transmit() {
    let (data, array) = test_frame();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.012, 11, 7);
    let tx = PlaneWave::from_degrees(4.0);
    let plan = BeamformPlan::for_tof(&array, &grid, tx, 1540.0, FrameFormat::of(&data)).unwrap();
    let direct = tof_correct_with_threads(&data, &array, &grid, tx, 1540.0, 3).unwrap();
    let planned = plan.tof_correct_with_threads(&data, 3).unwrap();
    assert_bits_eq(direct.as_slice(), planned.as_slice(), "steered tof");
}

#[test]
fn planned_mvdr_is_bitwise_identical_across_transmits_and_threads() {
    let (data, array) = test_frame();
    let grid = ImagingGrid::for_array(&array, 0.014, 0.01, 12, 8);
    for degrees in [0.0, 4.0] {
        let tx = PlaneWave::from_degrees(degrees);
        let mvdr = Mvdr { transmit: tx, ..Mvdr::fast() };
        let plan = BeamformPlan::for_tof(&array, &grid, tx, 1540.0, FrameFormat::of(&data)).unwrap();
        let direct = mvdr.beamform_iq_with_threads(&data, &array, &grid, 1540.0, 1).unwrap();
        for threads in THREAD_COUNTS {
            let reference = mvdr.beamform_iq_with_threads(&data, &array, &grid, 1540.0, threads).unwrap();
            let planned = mvdr.beamform_iq_planned_with_threads(&data, &plan, threads).unwrap();
            assert_iq_bits_eq(&direct, &reference, &format!("mvdr direct determinism {degrees}°/{threads}"));
            assert_iq_bits_eq(&direct, &planned, &format!("mvdr {degrees}°/threads {threads}"));
        }
    }
}

#[test]
fn planned_wrappers_match_direct_beamformers_through_the_trait() {
    let (data, array) = test_frame();
    let grid = ImagingGrid::for_array(&array, 0.014, 0.01, 12, 8);
    let das_direct = DelayAndSum::default().beamform(&data, &array, &grid, 1540.0).unwrap();
    let planned_das = PlannedDas::new(DelayAndSum::default());
    let das_planned = planned_das.beamform(&data, &array, &grid, 1540.0).unwrap();
    assert_iq_bits_eq(&das_direct, &das_planned, "PlannedDas");

    let mvdr_direct = Mvdr::fast().beamform(&data, &array, &grid, 1540.0).unwrap();
    let planned_mvdr = PlannedMvdr::new(Mvdr::fast());
    let mvdr_planned = planned_mvdr.beamform(&data, &array, &grid, 1540.0).unwrap();
    assert_iq_bits_eq(&mvdr_direct, &mvdr_planned, "PlannedMvdr");
    assert_eq!(planned_das.plans_built(), 1);
    assert_eq!(planned_mvdr.plans_built(), 1);
}

#[test]
fn planned_batch_matches_direct_batch() {
    let (data, array) = test_frame();
    let grid = ImagingGrid::for_array(&array, 0.014, 0.01, 10, 6);
    let frames = vec![data.clone(), data.clone(), data];
    let direct = DelayAndSum::default().beamform_batch_results(&frames, &array, &grid, 1540.0, 4);
    let planned = PlannedDas::new(DelayAndSum::default());
    let planned_imgs = planned.beamform_batch_results(&frames, &array, &grid, 1540.0, 4);
    assert_eq!(planned.plans_built(), 1, "one plan must serve the whole batch");
    assert_eq!(direct.len(), frames.len());
    for (i, (a, b)) in direct.iter().zip(planned_imgs.iter()).enumerate() {
        assert_iq_bits_eq(a.as_ref().unwrap(), b.as_ref().unwrap(), &format!("batch frame {i}"));
    }
}

#[test]
fn planned_and_direct_outputs_are_bitwise_identical_across_simd_modes() {
    use runtime::simd::{self, SimdMode};
    // Restore the environment-default dispatch even if an assertion fires.
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            simd::force_mode(None);
        }
    }
    let _restore = Restore;

    let (data, array) = test_frame();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.014, 18, 9);
    let das = DelayAndSum::default();
    let mvdr = Mvdr::fast();
    let plan = BeamformPlan::for_das(&das, &array, &grid, 1540.0, FrameFormat::of(&data)).unwrap();

    // The asserted reference: the scalar tier, single-threaded.
    simd::force_mode(Some(SimdMode::Scalar));
    let rf_ref = das.beamform_rf_with_threads(&data, &array, &grid, 1540.0, 1).unwrap();
    let iq_ref = plan.beamform_iq_with_threads(&data, 1).unwrap();
    let tof_ref = plan.tof_correct_with_threads(&data, 1).unwrap();
    let mvdr_ref = mvdr.beamform_iq_with_threads(&data, &array, &grid, 1540.0, 1).unwrap();

    for mode in simd::available_modes() {
        simd::force_mode(Some(mode));
        for threads in THREAD_COUNTS {
            let ctx = format!("{mode:?}/threads {threads}");
            let direct = das.beamform_rf_with_threads(&data, &array, &grid, 1540.0, threads).unwrap();
            assert_bits_eq(&rf_ref, &direct, &format!("direct rf {ctx}"));
            let planned = plan.beamform_rf_with_threads(&data, threads).unwrap();
            assert_bits_eq(&rf_ref, &planned, &format!("planned rf {ctx}"));
            let iq = plan.beamform_iq_with_threads(&data, threads).unwrap();
            assert_iq_bits_eq(&iq_ref, &iq, &format!("planned iq {ctx}"));
            let tof = plan.tof_correct_with_threads(&data, threads).unwrap();
            assert_bits_eq(tof_ref.as_slice(), tof.as_slice(), &format!("planned tof {ctx}"));
            let aligned = mvdr.beamform_iq_planned_with_threads(&data, &plan, threads).unwrap();
            assert_iq_bits_eq(&mvdr_ref, &aligned, &format!("planned mvdr {ctx}"));
        }
    }
}

#[test]
fn plan_rejects_mismatched_configurations() {
    let (data, array) = test_frame();
    let grid = ImagingGrid::for_array(&array, 0.014, 0.01, 8, 6);
    let frame = FrameFormat::of(&data);
    let plan = BeamformPlan::for_tof(&array, &grid, PlaneWave::zero_angle(), 1540.0, frame).unwrap();
    // MVDR must reject a plan built for another transmit.
    let steered = Mvdr { transmit: PlaneWave::from_degrees(4.0), ..Mvdr::fast() };
    assert!(steered.beamform_iq_planned_with_threads(&data, &plan, 2).is_err());
    assert!(Mvdr::fast().beamform_iq_planned_with_threads(&data, &plan, 2).is_ok());
    // A frame with a different start time must be rejected.
    let mut shifted = data.clone();
    shifted.set_start_time(1e-6);
    assert!(plan.beamform_rf(&shifted).is_err());
    assert!(plan.tof_correct(&shifted).is_err());
    assert!(Mvdr::fast().beamform_iq_planned_with_threads(&shifted, &plan, 2).is_err());
}

//! Determinism and equivalence tests for the parallel beamforming hot paths:
//! the row-parallel ToF correction and DAS must produce *bitwise identical*
//! images for every worker-thread count, and the batch API must match
//! per-frame beamforming.

use beamforming::das::DelayAndSum;
use beamforming::grid::ImagingGrid;
use beamforming::pipeline::Beamformer;
use beamforming::tof::{tof_correct_with_threads, TofCube};
use ultrasound::{ChannelData, LinearArray, Medium, Phantom, PlaneWave, PlaneWaveSimulator};

fn speckle_frame() -> (ChannelData, LinearArray) {
    let array = LinearArray::small_test_array();
    let sim = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), 0.03);
    let phantom = Phantom::builder(0.012, 0.03)
        .seed(9)
        .speckle_density(80.0)
        .add_point_target(0.0, 0.02, 5.0)
        .add_point_target(-0.004, 0.014, 3.0)
        .build();
    (sim.simulate(&phantom, PlaneWave::zero_angle()).unwrap(), array)
}

#[test]
fn tof_correction_is_identical_across_thread_counts() {
    let (rf, array) = speckle_frame();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.015, 37, 19);
    let serial: TofCube =
        tof_correct_with_threads(&rf, &array, &grid, PlaneWave::zero_angle(), 1540.0, 1).unwrap();
    for threads in [2, 3, 4, 16] {
        let parallel =
            tof_correct_with_threads(&rf, &array, &grid, PlaneWave::zero_angle(), 1540.0, threads).unwrap();
        assert_eq!(serial, parallel, "threads {threads}");
    }
}

#[test]
fn das_rf_is_identical_across_thread_counts() {
    let (rf, array) = speckle_frame();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.015, 41, 23);
    for das in [DelayAndSum::default(), DelayAndSum { transmit: PlaneWave::from_degrees(4.0) }] {
        let serial = das.beamform_rf_with_threads(&rf, &array, &grid, 1540.0, 1).unwrap();
        for threads in [2, 5, 16] {
            let parallel = das.beamform_rf_with_threads(&rf, &array, &grid, 1540.0, threads).unwrap();
            assert_eq!(serial, parallel, "threads {threads}");
        }
    }
}

#[test]
fn beamform_batch_matches_per_frame_beamforming() {
    let array = LinearArray::small_test_array();
    let sim = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), 0.03);
    let phantom = Phantom::builder(0.012, 0.03).seed(4).add_point_target(0.0, 0.02, 1.0).build();
    let frames: Vec<ChannelData> = [-4.0f32, 0.0, 4.0]
        .iter()
        .map(|&deg| sim.simulate(&phantom, PlaneWave::from_degrees(deg)).unwrap())
        .collect();
    let grid = ImagingGrid::for_array(&array, 0.015, 0.01, 24, 12);
    let das = DelayAndSum::default();
    let batch = das.beamform_batch_results(&frames, &array, &grid, 1540.0, runtime::default_threads());
    assert_eq!(batch.len(), frames.len());
    for (frame, image) in frames.iter().zip(batch) {
        let single = das.beamform(frame, &array, &grid, 1540.0).unwrap();
        assert_eq!(single, image.unwrap());
    }
}

#[test]
fn frame_parallel_batch_is_identical_across_thread_budgets() {
    // Frames across a batch run concurrently (outer workers) while each frame
    // stays internally row-parallel (inner budget); no split may change bits.
    let array = LinearArray::small_test_array();
    let sim = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), 0.03);
    let phantom = Phantom::builder(0.012, 0.03).seed(12).speckle_density(40.0).add_point_target(0.0, 0.018, 2.0).build();
    let frames: Vec<ChannelData> = [-3.0f32, -1.0, 1.0, 3.0]
        .iter()
        .map(|&deg| sim.simulate(&phantom, PlaneWave::from_degrees(deg)).unwrap())
        .collect();
    let grid = ImagingGrid::for_array(&array, 0.015, 0.01, 20, 10);
    for beamformer in [&DelayAndSum::default() as &dyn Beamformer, &beamforming::mvdr::Mvdr::fast()] {
        let serial = beamformer.beamform_batch_results(&frames, &array, &grid, 1540.0, 1);
        for budget in [2, 4, 7, 16] {
            let parallel = beamformer.beamform_batch_results(&frames, &array, &grid, 1540.0, budget);
            assert_eq!(serial, parallel, "{} budget {budget}", beamformer.name());
        }
    }
}

#[test]
fn beamform_batch_propagates_frame_errors() {
    let array = LinearArray::small_test_array();
    let grid = ImagingGrid::small(&array);
    let good = ChannelData::zeros(64, array.num_elements(), 31.25e6);
    let frames = vec![good.clone(), ChannelData::zeros(64, 16, 31.25e6), good];
    let results = DelayAndSum::default().beamform_batch_results(&frames, &array, &grid, 1540.0, 2);
    assert!(results[0].is_ok() && results[2].is_ok(), "good frames must not fail with the bad one");
    assert!(results[1].is_err());
}

/// Largest relative difference between two equally long buffers.
fn max_rel_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-6)).fold(0.0, f32::max)
}

#[test]
fn das_and_tof_match_plain_serial_loops() {
    // Reference: textbook per-pixel loops, serial, with every delay
    // recomputed per sample. The production paths hoist delays, run rows in
    // parallel and reduce in SIMD lane order, so they agree to rounding.
    use usdsp::interp::sample_at;
    let array = LinearArray::l11_5v().with_num_elements(64);
    let sim = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), 0.035);
    let phantom =
        Phantom::builder(0.015, 0.035).seed(11).speckle_density(30.0).add_point_target(0.0, 0.02, 5.0).build();
    let rf = sim.simulate(&phantom, PlaneWave::zero_angle()).unwrap();
    let grid = ImagingGrid::for_array(&array, 0.010, 0.020, 64, 32);
    let das = DelayAndSum::default();
    let (c, fs, t0) = (1540.0, rf.sampling_frequency(), rf.start_time());
    let traces = rf.to_channel_traces();
    let xs = array.element_positions();
    let sample = |ch: usize, x: f32, z: f32| {
        let t_rx = ((x - xs[ch]) * (x - xs[ch]) + z * z).sqrt() / c;
        sample_at(&traces[ch], (das.transmit.transmit_delay(x, z, c) + t_rx - t0) * fs)
    };
    let boxcar = 1.0 / xs.len() as f32;

    let mut das_reference = Vec::with_capacity(grid.num_pixels());
    let mut tof_reference = Vec::with_capacity(grid.num_pixels() * xs.len());
    for row in 0..grid.num_rows() {
        let z = grid.z(row);
        for col in 0..grid.num_cols() {
            let x = grid.x(col);
            das_reference.push((0..xs.len()).map(|ch| boxcar * sample(ch, x, z)).sum::<f32>());
            tof_reference.extend((0..xs.len()).map(|ch| sample(ch, x, z)));
        }
    }

    let das_rf = das.beamform_rf(&rf, &array, &grid, c).unwrap();
    let das_diff = max_rel_diff(&das_reference, &das_rf);
    assert!(das_diff < 1e-4, "DAS diverged from the serial loop: {das_diff}");
    let cube = beamforming::tof::tof_correct(&rf, &array, &grid, das.transmit, c).unwrap();
    let tof_diff = max_rel_diff(&tof_reference, cube.as_slice());
    assert!(tof_diff < 1e-4, "ToF diverged from the serial loop: {tof_diff}");
}

//! Delay oracle for the one beamforming plan: every pixel×channel entry of a
//! [`BeamformPlan`] must sample its channel at the closed-form plane-wave
//! round-trip delay
//!
//! ```text
//! k(x, z, e) = ((z·cosθ + x·sinθ + √((x − x_e)² + z²)) / c − t0) · fs
//! ```
//!
//! evaluated here in f64 from the grid and the element positions. Feeding
//! every channel the ramp `trace[k] = k` makes the planned ToF cube hold each
//! entry's fractional sample index (linear interpolation reproduces a ramp),
//! so the cube can be compared with the formula directly. The equivalence
//! tests only compare the plan with the direct loops, which share the delay
//! arithmetic; this test checks both against the geometry.

use beamforming::grid::ImagingGrid;
use beamforming::plan::{BeamformPlan, FrameFormat};
use ultrasound::{ChannelData, LinearArray, PlaneWave};

/// Largest allowed gap, in samples, between the planned and the exact index.
const TOLERANCE: f64 = 0.01;

#[test]
fn planned_sample_indices_match_the_closed_form_delay() {
    let array = LinearArray::small_test_array();
    let grid = ImagingGrid::for_array(&array, 2.0e-3, 34.0e-3, 61, 23);
    let (channels, n) = (array.num_elements(), 1200);
    let (c, fs, t0) = (1540.0f32, array.sampling_frequency(), 4.0e-6f32);
    let ramp: Vec<f32> = (0..n).flat_map(|k| std::iter::repeat_n(k as f32, channels)).collect();
    let mut data = ChannelData::from_vec(ramp, n, channels, fs).unwrap();
    data.set_start_time(t0);
    let xs = array.element_positions();

    for degrees in [0.0f32, 7.0] {
        let tx = PlaneWave::from_degrees(degrees);
        let plan = BeamformPlan::for_tof(&array, &grid, tx, c, FrameFormat::of(&data)).unwrap();
        let cube = plan.tof_correct(&data).unwrap();
        let (sin, cos) = (tx.angle as f64).sin_cos();
        let (mut inside, mut outside, mut worst) = (0usize, 0usize, 0.0f64);
        for row in 0..grid.num_rows() {
            let z = grid.z(row) as f64;
            for col in 0..grid.num_cols() {
                let x = grid.x(col) as f64;
                for (ch, &xe) in xs.iter().enumerate() {
                    let rx = ((x - xe as f64).powi(2) + z * z).sqrt();
                    let exact = ((z * cos + x * sin + rx) / c as f64 - t0 as f64) * fs as f64;
                    let planned = cube.value(row, col, ch);
                    if (0.0..=(n - 1) as f64).contains(&exact) {
                        let error = (planned as f64 - exact).abs();
                        assert!(
                            error <= TOLERANCE,
                            "{degrees}° pixel ({row}, {col}) channel {ch}: planned {planned}, exact {exact}"
                        );
                        worst = worst.max(error);
                        inside += 1;
                    } else if exact < -TOLERANCE || exact > (n - 1) as f64 + TOLERANCE {
                        assert_eq!(
                            planned.to_bits(),
                            0.0f32.to_bits(),
                            "{degrees}° pixel ({row}, {col}) channel {ch}: index {exact} is out of window"
                        );
                        outside += 1;
                    }
                }
            }
        }
        // The grid spans both window edges, so both branches are exercised.
        assert!(inside > 30_000 && outside > 1_000, "{degrees}°: {inside} in window, {outside} outside");
        println!("{degrees}°: {inside} in-window entries (worst error {worst:.5} samples), {outside} out of window");
    }
}

//! Delay-and-Sum (DAS) beamforming.
//!
//! DAS is the paper's conventional baseline: sample every channel at the pixel's
//! round-trip delay with linear interpolation and sum with data-independent boxcar
//! (uniform) apodization weights. Its low cost is why it ships in commercial systems;
//! its data-independence is why single-angle DAS images have poor contrast and
//! resolution compared to MVDR and the learned beamformers.

use crate::grid::ImagingGrid;
use crate::iq::{rf_to_iq, IqImage};
use crate::tof::TofCube;
use crate::{BeamformError, BeamformResult};
use ultrasound::{ChannelData, LinearArray, PlaneWave};
use usdsp::interp::sample_at;

/// Delay-and-Sum beamformer configuration.
///
/// ```
/// use beamforming::das::DelayAndSum;
/// use beamforming::grid::ImagingGrid;
/// use ultrasound::{ChannelData, LinearArray};
///
/// let das = DelayAndSum::default();
/// assert_eq!(das.transmit.angle, 0.0);
///
/// // Beamform one (here silent) acquisition onto an 8 × 8 grid.
/// let array = LinearArray::small_test_array();
/// let data = ChannelData::zeros(256, array.num_elements(), array.sampling_frequency());
/// let grid = ImagingGrid::for_array(&array, 0.01, 0.005, 8, 8);
/// let rf = das.beamform_rf(&data, &array, &grid, 1540.0)?;
/// assert_eq!(rf.len(), grid.num_pixels());
/// # Ok::<(), beamforming::BeamformError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DelayAndSum {
    /// Plane-wave transmit description (angle).
    pub transmit: PlaneWave,
}

impl Default for DelayAndSum {
    fn default() -> Self {
        Self { transmit: PlaneWave::zero_angle() }
    }
}

impl DelayAndSum {
    /// Beamforms a real RF image (row-major, one value per grid pixel) using the
    /// workspace-default worker threads (see [`runtime::default_threads`]).
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::ShapeMismatch`] when the channel count differs from the
    /// probe and [`BeamformError::InvalidParameter`] for a non-positive sound speed.
    pub fn beamform_rf(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<Vec<f32>> {
        self.beamform_rf_with_threads(data, array, grid, sound_speed, runtime::default_threads())
    }

    /// [`DelayAndSum::beamform_rf`] with an explicit worker-thread count.
    ///
    /// Image rows are distributed over disjoint chunks; every pixel depends only
    /// on its own coordinates, so the output is bitwise identical for every
    /// `num_threads`.
    ///
    /// # Errors
    ///
    /// Same as [`DelayAndSum::beamform_rf`].
    pub fn beamform_rf_with_threads(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
        num_threads: usize,
    ) -> BeamformResult<Vec<f32>> {
        if sound_speed <= 0.0 {
            return Err(BeamformError::InvalidParameter { name: "sound_speed", reason: "must be positive".into() });
        }
        if data.num_channels() != array.num_elements() {
            return Err(BeamformError::ShapeMismatch {
                expected: format!("{} channels", array.num_elements()),
                actual: format!("{}", data.num_channels()),
            });
        }
        let rows = grid.num_rows();
        let cols = grid.num_cols();
        let fs = data.sampling_frequency();
        let start_time = data.start_time();
        let traces = data.to_channel_traces();
        let element_xs = array.element_positions();
        // Boxcar apodization: uniform weights that sum to one.
        let weight = 1.0 / element_xs.len() as f32;

        let mut rf = vec![0.0f32; rows * cols];
        runtime::par_map_rows(&mut rf, cols, num_threads, |first_row, block| {
            // Per-channel contributions, gathered first and then reduced in
            // `runtime::simd`'s lane order — the same reduction the planned
            // gather kernel uses, which keeps the two paths bitwise identical.
            let mut contrib: Vec<f32> = Vec::with_capacity(element_xs.len());
            for (local, rf_row) in block.chunks_mut(cols).enumerate() {
                let z = grid.z(first_row + local);
                for (col, out) in rf_row.iter_mut().enumerate() {
                    let x = grid.x(col);
                    let t_tx = self.transmit.transmit_delay(x, z, sound_speed);
                    contrib.clear();
                    for (trace, &xe) in traces.iter().zip(&element_xs) {
                        let dx = x - xe;
                        let t_rx = (dx * dx + z * z).sqrt() / sound_speed;
                        let idx = (t_tx + t_rx - start_time) * fs;
                        contrib.push(weight * sample_at(trace, idx));
                    }
                    *out = runtime::simd::reduce_lanes(&contrib);
                }
            }
        });
        Ok(rf)
    }

    /// Beamforms directly from a precomputed ToF-corrected cube using uniform weights.
    /// This is the "sum along the channel axis" operation the Tiny-CNN baseline applies
    /// to its predicted apodization weights; with all-ones weights it equals boxcar DAS.
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::ShapeMismatch`] when the cube and grid disagree.
    pub fn beamform_cube(&self, cube: &TofCube, grid: &ImagingGrid) -> BeamformResult<Vec<f32>> {
        if cube.rows() != grid.num_rows() || cube.cols() != grid.num_cols() {
            return Err(BeamformError::ShapeMismatch {
                expected: format!("{}x{} cube", grid.num_rows(), grid.num_cols()),
                actual: format!("{}x{}", cube.rows(), cube.cols()),
            });
        }
        let uniform = vec![1.0 / cube.channels() as f32; cube.channels()];
        Ok(cube.sum_channels(&uniform))
    }

    /// Beamforms to an IQ image (RF beamforming followed by per-column analytic signal).
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`beamform_rf`](Self::beamform_rf).
    pub fn beamform_iq(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<IqImage> {
        let rf = self.beamform_rf(data, array, grid, sound_speed)?;
        rf_to_iq(&rf, grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmode::BModeImage;
    use ultrasound::{Medium, Phantom, PlaneWaveSimulator};

    fn point_target_frame(depth: f32) -> (ChannelData, LinearArray) {
        let array = LinearArray::small_test_array();
        let sim = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), 0.03);
        let phantom = Phantom::builder(0.01, 0.03).add_point_target(0.0, depth, 1.0).build();
        (sim.simulate(&phantom, PlaneWave::zero_angle()).unwrap(), array)
    }

    #[test]
    fn das_focuses_point_target_at_right_pixel() {
        let depth = 0.02;
        let (rf, array) = point_target_frame(depth);
        let grid = ImagingGrid::for_array(&array, 0.012, 0.016, 80, 24);
        let das = DelayAndSum::default();
        let image = das.beamform_iq(&rf, &array, &grid, 1540.0).unwrap();
        let envelope = image.envelope();
        // A perfectly centred target yields mirror-symmetric columns whose
        // envelopes can tie bitwise; take the first maximum so the tie
        // resolves to the column adjacent to the expected one.
        let (peak_idx, _) = envelope
            .iter()
            .enumerate()
            .fold((0usize, f32::MIN), |best, (i, &v)| if v > best.1 { (i, v) } else { best });
        let peak_row = peak_idx / grid.num_cols();
        let peak_col = peak_idx % grid.num_cols();
        let expected_row = grid.nearest_row(depth);
        let expected_col = grid.nearest_col(0.0);
        assert!((peak_row as i64 - expected_row as i64).abs() <= 2, "row {peak_row} vs {expected_row}");
        assert!((peak_col as i64 - expected_col as i64).abs() <= 1, "col {peak_col} vs {expected_col}");
    }

    #[test]
    fn beamformed_peak_is_much_brighter_than_background() {
        let (rf, array) = point_target_frame(0.02);
        let grid = ImagingGrid::for_array(&array, 0.012, 0.016, 80, 24);
        let image = DelayAndSum::default().beamform_iq(&rf, &array, &grid, 1540.0).unwrap();
        let bmode = BModeImage::from_iq(&image, 60.0).unwrap();
        // Pixel far from the target should be at least 25 dB down.
        let far_db = bmode.db(grid.nearest_row(0.026), grid.nearest_col(-0.004));
        assert!(far_db < -25.0, "far pixel at {far_db} dB");
    }

    #[test]
    fn beamform_cube_matches_uniform_rf_beamforming() {
        let (rf, array) = point_target_frame(0.02);
        let grid = ImagingGrid::for_array(&array, 0.015, 0.01, 20, 10);
        let das = DelayAndSum::default();
        let direct = das.beamform_rf(&rf, &array, &grid, 1540.0).unwrap();
        let cube = crate::tof::tof_correct(&rf, &array, &grid, PlaneWave::zero_angle(), 1540.0).unwrap();
        let via_cube = das.beamform_cube(&cube, &grid).unwrap();
        for (a, b) in direct.iter().zip(via_cube.iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn input_validation() {
        let array = LinearArray::small_test_array();
        let grid = ImagingGrid::small(&array);
        let das = DelayAndSum::default();
        let wrong = ChannelData::zeros(64, 16, 31.25e6);
        assert!(matches!(das.beamform_rf(&wrong, &array, &grid, 1540.0), Err(BeamformError::ShapeMismatch { .. })));
        let ok = ChannelData::zeros(64, 32, 31.25e6);
        assert!(matches!(das.beamform_rf(&ok, &array, &grid, -1.0), Err(BeamformError::InvalidParameter { .. })));
        let tiny_cube = crate::tof::TofCube::zeros(2, 2, 4);
        assert!(das.beamform_cube(&tiny_cube, &grid).is_err());
    }
}

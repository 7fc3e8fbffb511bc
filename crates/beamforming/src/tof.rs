//! Plane-wave time-of-flight computation and ToF correction.
//!
//! For a 0°-steered plane wave the round-trip delay from transmit to pixel `(x, z)` and
//! back to element `e` at lateral position `x_e` is
//!
//! ```text
//! τ(x, z, e) = ( z·cosθ + x·sinθ  +  sqrt((x − x_e)² + z²) ) / c
//! ```
//!
//! Sampling every receive channel at its per-pixel delay produces the **ToF-corrected
//! data cube** `(rows × cols × channels)`. Summing that cube over channels is DAS; the
//! cube is also exactly the input tensor of the Tiny-VBF and Tiny-CNN networks.

use crate::grid::ImagingGrid;
use crate::plan::BeamformPlan;
use crate::{BeamformError, BeamformResult};
use ultrasound::{ChannelData, LinearArray, PlaneWave};
use usdsp::interp::sample_at;

/// Per-pixel, per-channel time-of-flight corrected samples.
///
/// Stored row-major as `data[((row * cols) + col) * channels + ch]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TofCube {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
    channels: usize,
}

impl TofCube {
    /// Creates a zero-filled cube.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero.
    pub fn zeros(rows: usize, cols: usize, channels: usize) -> Self {
        assert!(rows > 0 && cols > 0 && channels > 0, "TofCube dimensions must be nonzero");
        Self { data: vec![0.0; rows * cols * channels], rows, cols, channels }
    }

    /// Number of depth rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of lateral columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of receive channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Value for pixel `(row, col)` on channel `ch`.
    #[inline]
    pub fn value(&self, row: usize, col: usize, ch: usize) -> f32 {
        self.data[(row * self.cols + col) * self.channels + ch]
    }

    /// Mutable access to one entry.
    #[inline]
    pub fn value_mut(&mut self, row: usize, col: usize, ch: usize) -> &mut f32 {
        &mut self.data[(row * self.cols + col) * self.channels + ch]
    }

    /// The channel vector for one pixel.
    pub fn pixel_channels(&self, row: usize, col: usize) -> &[f32] {
        let start = (row * self.cols + col) * self.channels;
        &self.data[start..start + self.channels]
    }

    /// Flat view of the whole cube.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the whole cube (row-major pixels × channels).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Sums over the channel axis, producing a beamformed RF image (`rows × cols`)
    /// weighted by `apodization` (one weight per channel).
    ///
    /// # Panics
    ///
    /// Panics when `apodization.len() != channels`.
    pub fn sum_channels(&self, apodization: &[f32]) -> Vec<f32> {
        assert_eq!(apodization.len(), self.channels, "apodization length must match channel count");
        let mut out = vec![0.0f32; self.rows * self.cols];
        for (pixel, out_value) in out.iter_mut().enumerate() {
            let start = pixel * self.channels;
            let mut acc = 0.0f32;
            for ch in 0..self.channels {
                acc += self.data[start + ch] * apodization[ch];
            }
            *out_value = acc;
        }
        out
    }

    /// Peak absolute value over the whole cube.
    pub fn peak(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Normalizes the cube in place to the `[-1, 1]` interval the paper feeds the
    /// network (peak normalization). Returns the applied scale.
    pub fn normalize(&mut self) -> f32 {
        let peak = self.peak();
        self.normalize_with_peak(peak, 1)
    }

    /// [`TofCube::normalize`] for a cube whose [`TofCube::peak`] is already
    /// known, such as the one [`BeamformPlan::tof_correct_into`] returns:
    /// multiplies every entry by `1 / peak` over `num_threads` row blocks
    /// (nothing when `peak ≤ 0`) and returns the applied scale. Element-wise,
    /// so the result is the same for every thread count.
    pub fn normalize_with_peak(&mut self, peak: f32, num_threads: usize) -> f32 {
        if peak <= 0.0 {
            return 1.0;
        }
        let scale = 1.0 / peak;
        runtime::par_map_rows(&mut self.data, self.cols * self.channels, num_threads, |_, block| {
            for v in block {
                *v *= scale;
            }
        });
        scale
    }
}

/// Round-trip delay in seconds from a plane-wave transmit to pixel `(x, z)` and back to
/// an element at `x_e`.
pub fn round_trip_delay(tx: PlaneWave, x: f32, z: f32, element_x: f32, sound_speed: f32) -> f32 {
    let transmit = tx.transmit_delay(x, z, sound_speed);
    let dx = x - element_x;
    let receive = (dx * dx + z * z).sqrt() / sound_speed;
    transmit + receive
}

/// Computes the ToF-corrected data cube for one acquisition, splitting image
/// rows across the workspace-default worker threads (see
/// [`runtime::default_threads`]).
///
/// # Example
///
/// ```
/// use beamforming::grid::ImagingGrid;
/// use beamforming::tof::tof_correct;
/// use ultrasound::{ChannelData, LinearArray, PlaneWave};
///
/// let array = LinearArray::small_test_array();
/// let data = ChannelData::zeros(256, array.num_elements(), array.sampling_frequency());
/// let grid = ImagingGrid::for_array(&array, 0.01, 0.005, 8, 8);
/// let cube = tof_correct(&data, &array, &grid, PlaneWave::zero_angle(), 1540.0)?;
/// assert_eq!((cube.rows(), cube.cols(), cube.channels()), (8, 8, array.num_elements()));
/// # Ok::<(), beamforming::BeamformError>(())
/// ```
///
/// # Errors
///
/// Returns [`BeamformError::ShapeMismatch`] when the channel count of `data` does not
/// match the probe and [`BeamformError::InvalidParameter`] for a non-positive sound
/// speed.
pub fn tof_correct(
    data: &ChannelData,
    array: &LinearArray,
    grid: &ImagingGrid,
    tx: PlaneWave,
    sound_speed: f32,
) -> BeamformResult<TofCube> {
    tof_correct_with_threads(data, array, grid, tx, sound_speed, runtime::default_threads())
}

/// [`tof_correct`] with an explicit worker-thread count.
///
/// Every cube entry depends only on its own `(row, col, ch)` coordinates, so the
/// result is bitwise identical for every `num_threads` (asserted by the
/// determinism tests).
///
/// # Errors
///
/// Same as [`tof_correct`].
pub fn tof_correct_with_threads(
    data: &ChannelData,
    array: &LinearArray,
    grid: &ImagingGrid,
    tx: PlaneWave,
    sound_speed: f32,
    num_threads: usize,
) -> BeamformResult<TofCube> {
    if sound_speed <= 0.0 {
        return Err(BeamformError::InvalidParameter { name: "sound_speed", reason: "must be positive".into() });
    }
    if data.num_channels() != array.num_elements() {
        return Err(BeamformError::ShapeMismatch {
            expected: format!("{} channels (probe elements)", array.num_elements()),
            actual: format!("{} channels", data.num_channels()),
        });
    }
    let rows = grid.num_rows();
    let cols = grid.num_cols();
    let channels = data.num_channels();
    let fs = data.sampling_frequency();
    let start_time = data.start_time();
    let traces = data.to_channel_traces();
    let element_xs = array.element_positions();

    let mut cube = TofCube::zeros(rows, cols, channels);
    let row_stride = cols * channels;
    runtime::par_map_rows(&mut cube.data, row_stride, num_threads, |first_row, block| {
        for (local, row_data) in block.chunks_mut(row_stride).enumerate() {
            let z = grid.z(first_row + local);
            for col in 0..cols {
                let x = grid.x(col);
                let t_tx = tx.transmit_delay(x, z, sound_speed);
                let pixel = &mut row_data[col * channels..(col + 1) * channels];
                for (ch, out) in pixel.iter_mut().enumerate() {
                    let dx = x - element_xs[ch];
                    let t_rx = (dx * dx + z * z).sqrt() / sound_speed;
                    let sample_index = (t_tx + t_rx - start_time) * fs;
                    *out = sample_at(&traces[ch], sample_index);
                }
            }
        }
    });
    Ok(cube)
}

/// [`tof_correct`] through a precomputed [`BeamformPlan`] (see
/// [`BeamformPlan::for_tof`]), using the workspace-default worker threads.
///
/// The per-sample delay geometry is replayed from the plan's table instead of
/// being recomputed, so streams amortise the `sqrt`-heavy setup across frames;
/// the cube is bitwise identical to [`tof_correct`] for every thread count.
/// It allocates a cube per call; [`BeamformPlan::tof_correct_into`] fills a
/// caller's cube and returns its peak.
///
/// # Errors
///
/// Returns [`BeamformError::ShapeMismatch`] when the frame does not match the
/// planned format.
pub fn tof_correct_planned(data: &ChannelData, plan: &BeamformPlan) -> BeamformResult<TofCube> {
    plan.tof_correct(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrasound::{Medium, Phantom, PlaneWaveSimulator};

    #[test]
    fn round_trip_delay_matches_geometry() {
        let c = 1540.0;
        let tx = PlaneWave::zero_angle();
        // Pixel straight below an element: transmit z/c plus receive z/c.
        let d = round_trip_delay(tx, 0.0, 0.02, 0.0, c);
        assert!((d - 2.0 * 0.02 / c).abs() < 1e-9);
        // Offset element is farther away.
        assert!(round_trip_delay(tx, 0.0, 0.02, 0.005, c) > d);
    }

    #[test]
    fn cube_indexing_and_channel_vector() {
        let mut cube = TofCube::zeros(2, 3, 4);
        *cube.value_mut(1, 2, 3) = 5.0;
        assert_eq!(cube.value(1, 2, 3), 5.0);
        assert_eq!(cube.pixel_channels(1, 2)[3], 5.0);
        assert_eq!(cube.rows(), 2);
        assert_eq!(cube.cols(), 3);
        assert_eq!(cube.channels(), 4);
        assert_eq!(cube.as_slice().len(), 24);
    }

    #[test]
    fn sum_channels_applies_apodization() {
        let mut cube = TofCube::zeros(1, 1, 3);
        *cube.value_mut(0, 0, 0) = 1.0;
        *cube.value_mut(0, 0, 1) = 2.0;
        *cube.value_mut(0, 0, 2) = 3.0;
        let summed = cube.sum_channels(&[1.0, 1.0, 1.0]);
        assert_eq!(summed, vec![6.0]);
        let weighted = cube.sum_channels(&[1.0, 0.0, 2.0]);
        assert_eq!(weighted, vec![7.0]);
    }

    #[test]
    fn normalize_scales_to_unit_peak() {
        let mut cube = TofCube::zeros(1, 1, 2);
        *cube.value_mut(0, 0, 0) = -4.0;
        *cube.value_mut(0, 0, 1) = 2.0;
        cube.normalize();
        assert_eq!(cube.peak(), 1.0);
        assert_eq!(cube.value(0, 0, 0), -1.0);
        let mut zero = TofCube::zeros(1, 1, 2);
        assert_eq!(zero.normalize(), 1.0);
    }

    #[test]
    fn tof_correction_aligns_point_target_across_channels() {
        // After ToF correction, a point target's echo should appear (with the same sign
        // and similar magnitude) on every channel at the pixel containing the target.
        let array = LinearArray::small_test_array();
        let medium = Medium::lossless(1540.0);
        let sim = PlaneWaveSimulator::new(array.clone(), medium, 0.03);
        let target_z = 0.02;
        let phantom = Phantom::builder(0.01, 0.03).add_point_target(0.0, target_z, 1.0).build();
        let rf = sim.simulate(&phantom, PlaneWave::zero_angle()).unwrap();

        let grid = ImagingGrid::for_array(&array, 0.015, 0.01, 41, 11);
        let cube = tof_correct(&rf, &array, &grid, PlaneWave::zero_angle(), 1540.0).unwrap();

        let row = grid.nearest_row(target_z);
        let col = grid.nearest_col(0.0);
        let aligned = cube.pixel_channels(row, col);
        // Coherence across channels: the mean should be a large fraction of the mean
        // absolute value (same-sign alignment).
        let mean: f32 = aligned.iter().sum::<f32>() / aligned.len() as f32;
        let mean_abs: f32 = aligned.iter().map(|v| v.abs()).sum::<f32>() / aligned.len() as f32;
        assert!(mean_abs > 0.0);
        assert!(mean.abs() / mean_abs > 0.6, "coherence {} / {}", mean, mean_abs);

        // A pixel far from the target should have much less energy.
        let far_row = grid.nearest_row(0.024);
        let far = cube.pixel_channels(far_row, col);
        let far_mean_abs: f32 = far.iter().map(|v| v.abs()).sum::<f32>() / far.len() as f32;
        assert!(mean_abs > 5.0 * far_mean_abs, "target {} vs far {}", mean_abs, far_mean_abs);
    }

    #[test]
    fn tof_correct_validates_inputs() {
        let array = LinearArray::small_test_array();
        let grid = ImagingGrid::small(&array);
        let wrong_channels = ChannelData::zeros(100, 8, 31.25e6);
        assert!(matches!(
            tof_correct(&wrong_channels, &array, &grid, PlaneWave::zero_angle(), 1540.0),
            Err(BeamformError::ShapeMismatch { .. })
        ));
        let ok_data = ChannelData::zeros(100, array.num_elements(), 31.25e6);
        assert!(matches!(
            tof_correct(&ok_data, &array, &grid, PlaneWave::zero_angle(), 0.0),
            Err(BeamformError::InvalidParameter { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dimension_cube_panics() {
        let _ = TofCube::zeros(0, 1, 1);
    }
}

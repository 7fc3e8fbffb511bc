//! Minimum Variance Distortionless Response (MVDR / Capon) beamforming.
//!
//! MVDR is the paper's image-quality benchmark **and** its training target: Tiny-VBF is
//! trained to regress the MVDR-beamformed IQ image from ToF-corrected channel data.
//! The implementation follows the standard medical-ultrasound recipe
//! (Synnevåg et al., 2009): per-pixel aligned complex (analytic) channel vectors,
//! subaperture (spatial) smoothing, optional forward–backward averaging, diagonal
//! loading proportional to the trace, and the distortionless weight
//! `w = R⁻¹a / (aᴴR⁻¹a)` with a unit steering vector.
//!
//! Its per-pixel matrix solve is why MVDR costs ~98.78 GOPs per 368 × 128 frame and runs
//! in minutes on a CPU — the motivation for the learned beamformers.

use crate::grid::ImagingGrid;
use crate::iq::IqImage;
use crate::linalg::{hermitian_dot, ComplexMatrix};
use crate::plan::{padded_complex_traces, BeamformPlan};
use crate::{BeamformError, BeamformResult};
use ultrasound::{ChannelData, LinearArray, PlaneWave};
use usdsp::hilbert::analytic_signal_batch;
use usdsp::interp::sample_at_complex;
use usdsp::Complex32;

/// MVDR beamformer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Mvdr {
    /// Subaperture length `L` used for spatial smoothing. `0` selects `M/2` (a common
    /// default), where `M` is the number of channels.
    pub subaperture: usize,
    /// Diagonal loading factor Δ: the loading added to the covariance diagonal is
    /// `Δ · trace(R) / L`.
    pub diagonal_loading: f32,
    /// Enables forward–backward averaging of the smoothed covariance.
    pub forward_backward: bool,
    /// Plane-wave transmit description.
    pub transmit: PlaneWave,
}

impl Default for Mvdr {
    fn default() -> Self {
        Self {
            subaperture: 0,
            diagonal_loading: 0.05,
            forward_backward: true,
            transmit: PlaneWave::zero_angle(),
        }
    }
}

impl Mvdr {
    /// A cheaper configuration (quarter-aperture smoothing) for tests and quick runs.
    pub fn fast() -> Self {
        Self { subaperture: 8, ..Self::default() }
    }

    /// Effective subaperture length for `channels` receive channels.
    pub fn effective_subaperture(&self, channels: usize) -> usize {
        let l = if self.subaperture == 0 { channels / 2 } else { self.subaperture };
        l.clamp(1, channels)
    }

    /// Beamforms an IQ image from raw channel data, splitting image rows across
    /// the workspace-default worker threads (see [`runtime::default_threads`]).
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::ShapeMismatch`] when the channel count disagrees with
    /// the probe, [`BeamformError::InvalidParameter`] for invalid settings, and
    /// [`BeamformError::SingularMatrix`] if a covariance solve fails even after
    /// diagonal loading.
    pub fn beamform_iq(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<IqImage> {
        self.beamform_iq_with_threads(data, array, grid, sound_speed, runtime::default_threads())
    }

    /// [`Mvdr::beamform_iq`] with an explicit worker-thread count.
    ///
    /// Every pixel's value depends only on its own aligned channel vector
    /// (covariance smoothing, loading and the solve are all per pixel), so rows
    /// can be distributed over disjoint chunks and the image is bitwise
    /// identical for every `num_threads` — MVDR's per-pixel Cholesky solve is
    /// exactly the kind of embarrassingly parallel cost this pays off for
    /// (~98.78 GOPs per 368 × 128 frame).
    ///
    /// # Errors
    ///
    /// Same as [`Mvdr::beamform_iq`].
    pub fn beamform_iq_with_threads(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
        num_threads: usize,
    ) -> BeamformResult<IqImage> {
        if sound_speed <= 0.0 {
            return Err(BeamformError::InvalidParameter { name: "sound_speed", reason: "must be positive".into() });
        }
        if self.diagonal_loading < 0.0 {
            return Err(BeamformError::InvalidParameter { name: "diagonal_loading", reason: "must be non-negative".into() });
        }
        if data.num_channels() != array.num_elements() {
            return Err(BeamformError::ShapeMismatch {
                expected: format!("{} channels", array.num_elements()),
                actual: format!("{}", data.num_channels()),
            });
        }
        let channels = data.num_channels();
        let fs = data.sampling_frequency();
        let start_time = data.start_time();
        let element_xs = array.element_positions();

        // Analytic (complex) signal per channel, computed once — per-channel
        // parallel with one FFT scratch per worker.
        let analytic = Self::analytic_channels(data, num_threads);

        let pixels = self.solve_rows(grid, channels, num_threads, |row, col, aligned| {
            let z = grid.z(row);
            let x = grid.x(col);
            let t_tx = self.transmit.transmit_delay(x, z, sound_speed);
            for (ch, slot) in aligned.iter_mut().enumerate() {
                let dx = x - element_xs[ch];
                let t_rx = (dx * dx + z * z).sqrt() / sound_speed;
                let idx = (t_tx + t_rx - start_time) * fs;
                *slot = sample_at_complex(&analytic[ch], idx);
            }
        })?;
        IqImage::from_data(pixels, grid.clone())
    }

    /// [`Mvdr::beamform_iq_with_threads`] through a precomputed
    /// [`BeamformPlan`] built by [`BeamformPlan::for_tof`] for this
    /// configuration's transmit.
    ///
    /// The channel-alignment step replays the plan's delay table instead of
    /// recomputing the round-trip geometry per pixel; the
    /// per-pixel covariance solve is unchanged. Bitwise identical to the
    /// direct path for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::InvalidParameter`] when the plan was built for
    /// another transmit, [`BeamformError::ShapeMismatch`] on a frame
    /// mismatch, plus the direct path's numerical errors.
    pub fn beamform_iq_planned_with_threads(
        &self,
        data: &ChannelData,
        plan: &BeamformPlan,
        num_threads: usize,
    ) -> BeamformResult<IqImage> {
        if self.diagonal_loading < 0.0 {
            return Err(BeamformError::InvalidParameter { name: "diagonal_loading", reason: "must be non-negative".into() });
        }
        if plan.transmit() != self.transmit {
            return Err(BeamformError::InvalidParameter {
                name: "plan",
                reason: "plan was built for another transmit".into(),
            });
        }
        plan.check_frame(data)?;
        let channels = data.num_channels();
        let analytic = padded_complex_traces(&Self::analytic_channels(data, num_threads), data.num_samples());
        let grid = plan.grid().clone();
        let cols = grid.num_cols();
        let pixels = self.solve_rows(&grid, channels, num_threads, |row, col, aligned| {
            plan.align_pixel_into(row * cols + col, &analytic, aligned);
        })?;
        IqImage::from_data(pixels, grid)
    }

    /// Per-channel analytic signals, parallel with shared FFT scratch.
    /// Zero-sample acquisitions yield empty traces (which sample to zero),
    /// matching the per-channel `unwrap_or_default` this replaces.
    fn analytic_channels(data: &ChannelData, num_threads: usize) -> Vec<Vec<Complex32>> {
        if data.num_samples() == 0 {
            return vec![Vec::new(); data.num_channels()];
        }
        analytic_signal_batch(&data.to_channel_traces(), num_threads)
            .expect("analytic_signal_batch: traces validated non-empty")
    }

    /// The shared per-pixel sweep: align each pixel's channel vector via
    /// `align(row, col, &mut aligned)`, then run the MVDR solve. Rows are
    /// distributed over disjoint chunks, so the output is bitwise identical
    /// for every `num_threads`.
    fn solve_rows<F>(
        &self,
        grid: &ImagingGrid,
        channels: usize,
        num_threads: usize,
        align: F,
    ) -> BeamformResult<Vec<Complex32>>
    where
        F: Fn(usize, usize, &mut [Complex32]) + Sync,
    {
        let l = self.effective_subaperture(channels);
        let steering = vec![Complex32::ONE; l];
        let num_subapertures = channels - l + 1;
        let rows = grid.num_rows();
        let cols = grid.num_cols();

        // Keyed by global pixel index so the reported error is the row-order
        // first one, independent of the thread count (same contract as the
        // image data itself).
        let failure: std::sync::Mutex<Option<(usize, BeamformError)>> = std::sync::Mutex::new(None);
        let mut pixels = vec![Complex32::ZERO; rows * cols];
        runtime::par_map_rows(&mut pixels, cols, num_threads, |first_row, block| {
            let mut aligned = vec![Complex32::ZERO; channels];
            for (local, out_row) in block.chunks_mut(cols).enumerate() {
                let row = first_row + local;
                for (col, out) in out_row.iter_mut().enumerate() {
                    align(row, col, &mut aligned);
                    match self.pixel_value(&aligned, l, num_subapertures, &steering) {
                        Ok(v) => *out = v,
                        Err(e) => {
                            let pixel = row * cols + col;
                            let mut slot = failure.lock().expect("mvdr mutex poisoned");
                            if slot.as_ref().is_none_or(|(p, _)| pixel < *p) {
                                *slot = Some((pixel, e));
                            }
                            return;
                        }
                    }
                }
            }
        });
        if let Some((_, e)) = failure.into_inner().expect("mvdr mutex poisoned") {
            return Err(e);
        }
        Ok(pixels)
    }

    fn pixel_value(
        &self,
        aligned: &[Complex32],
        l: usize,
        num_subapertures: usize,
        steering: &[Complex32],
    ) -> BeamformResult<Complex32> {
        // Spatially smoothed covariance.
        let mut covariance = ComplexMatrix::zeros(l);
        let weight = 1.0 / num_subapertures as f32;
        for p in 0..num_subapertures {
            covariance.accumulate_outer(&aligned[p..p + l], weight);
        }
        if self.forward_backward {
            // Forward-backward averaging: R <- (R + J R* J) / 2, where J is the exchange
            // matrix. Implemented by averaging with the flipped-conjugated covariance.
            let mut fb = ComplexMatrix::zeros(l);
            for i in 0..l {
                for j in 0..l {
                    let v = covariance.at(l - 1 - i, l - 1 - j).conj();
                    *fb.at_mut(i, j) = (covariance.at(i, j) + v).scale(0.5);
                }
            }
            covariance = fb;
        }
        let trace = covariance.trace().re;
        if trace <= 0.0 {
            // Fully silent pixel: MVDR reduces to plain averaging, which is zero here.
            return Ok(Complex32::ZERO);
        }
        covariance.add_diagonal((self.diagonal_loading * trace / l as f32).max(1e-12 * trace));

        let r_inv_a = match covariance.solve_hermitian(steering) {
            Ok(v) => v,
            Err(BeamformError::SingularMatrix) => {
                // Retry with much heavier loading before giving up.
                let mut heavy = covariance.clone();
                heavy.add_diagonal(0.5 * trace / l as f32);
                heavy.solve_hermitian(steering)?
            }
            Err(e) => return Err(e),
        };
        let denom = hermitian_dot(steering, &r_inv_a);
        if denom.abs() <= 1e-20 {
            return Err(BeamformError::SingularMatrix);
        }
        // Output: average of wᴴ x_p over subapertures with w = R⁻¹a / (aᴴR⁻¹a).
        let mut acc = Complex32::ZERO;
        for p in 0..num_subapertures {
            let wx = hermitian_dot(&r_inv_a, &aligned[p..p + l]);
            acc += wx;
        }
        Ok(acc / denom * Complex32::from_real(1.0 / num_subapertures as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmode::BModeImage;
    use crate::das::DelayAndSum;
    use ultrasound::{Medium, Phantom, PlaneWaveSimulator};

    fn simulate(phantom: &Phantom, array: &LinearArray, depth: f32) -> ChannelData {
        let sim = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), depth);
        sim.simulate(phantom, PlaneWave::zero_angle()).unwrap()
    }

    #[test]
    fn effective_subaperture_defaults_to_half() {
        let mvdr = Mvdr::default();
        assert_eq!(mvdr.effective_subaperture(128), 64);
        assert_eq!(Mvdr::fast().effective_subaperture(32), 8);
        assert_eq!(Mvdr { subaperture: 1000, ..Mvdr::default() }.effective_subaperture(32), 32);
    }

    #[test]
    fn mvdr_focuses_point_target() {
        let array = LinearArray::small_test_array();
        let phantom = Phantom::builder(0.01, 0.03).add_point_target(0.0, 0.02, 1.0).build();
        let rf = simulate(&phantom, &array, 0.03);
        let grid = ImagingGrid::for_array(&array, 0.016, 0.008, 40, 16);
        let image = Mvdr::fast().beamform_iq(&rf, &array, &grid, 1540.0).unwrap();
        let envelope = image.envelope();
        let (peak_idx, _) = envelope.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
        let peak_row = peak_idx / grid.num_cols();
        let peak_col = peak_idx % grid.num_cols();
        assert!((peak_row as i64 - grid.nearest_row(0.02) as i64).abs() <= 2);
        assert!((peak_col as i64 - grid.nearest_col(0.0) as i64).abs() <= 1);
    }

    #[test]
    fn mvdr_mainlobe_is_narrower_than_das() {
        // Lateral -6 dB width at the target depth should be smaller for MVDR.
        let array = LinearArray::small_test_array();
        let phantom = Phantom::builder(0.012, 0.03).add_point_target(0.0, 0.02, 1.0).build();
        let rf = simulate(&phantom, &array, 0.03);
        let grid = ImagingGrid::for_array(&array, 0.0196, 0.0008, 5, 48);
        let das_img = DelayAndSum::default().beamform_iq(&rf, &array, &grid, 1540.0).unwrap();
        let mvdr_img = Mvdr::fast().beamform_iq(&rf, &array, &grid, 1540.0).unwrap();
        let width = |img: &IqImage| {
            let row = grid.nearest_row(0.02);
            let profile: Vec<f32> = (0..grid.num_cols()).map(|c| img.value(row, c).abs()).collect();
            let peak = profile.iter().cloned().fold(0.0f32, f32::max);
            profile.iter().filter(|&&v| v > 0.5 * peak).count()
        };
        let das_width = width(&das_img);
        let mvdr_width = width(&mvdr_img);
        assert!(mvdr_width <= das_width, "mvdr {mvdr_width} das {das_width}");
    }

    #[test]
    fn parallel_mvdr_is_bitwise_identical_to_serial() {
        let array = LinearArray::small_test_array();
        let phantom = Phantom::builder(0.012, 0.03)
            .seed(7)
            .speckle_density(60.0)
            .add_point_target(0.0, 0.02, 1.0)
            .build();
        let rf = simulate(&phantom, &array, 0.03);
        let grid = ImagingGrid::for_array(&array, 0.014, 0.008, 24, 12);
        let mvdr = Mvdr::fast();
        let serial = mvdr.beamform_iq_with_threads(&rf, &array, &grid, 1540.0, 1).unwrap();
        for threads in [2, 3, 5, 16] {
            let parallel = mvdr.beamform_iq_with_threads(&rf, &array, &grid, 1540.0, threads).unwrap();
            assert_eq!(serial, parallel, "threads {threads}");
        }
    }

    #[test]
    fn silent_input_produces_zero_image() {
        let array = LinearArray::small_test_array();
        let silent = ChannelData::zeros(512, array.num_elements(), array.sampling_frequency());
        let grid = ImagingGrid::for_array(&array, 0.01, 0.005, 8, 8);
        let image = Mvdr::fast().beamform_iq(&silent, &array, &grid, 1540.0).unwrap();
        assert_eq!(image.peak(), 0.0);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let array = LinearArray::small_test_array();
        let data = ChannelData::zeros(128, array.num_elements(), array.sampling_frequency());
        let grid = ImagingGrid::for_array(&array, 0.01, 0.005, 4, 4);
        assert!(Mvdr { diagonal_loading: -0.1, ..Mvdr::default() }
            .beamform_iq(&data, &array, &grid, 1540.0)
            .is_err());
        assert!(Mvdr::default().beamform_iq(&data, &array, &grid, 0.0).is_err());
        let wrong = ChannelData::zeros(128, 8, array.sampling_frequency());
        assert!(Mvdr::default().beamform_iq(&wrong, &array, &grid, 1540.0).is_err());
    }

    #[test]
    fn mvdr_resolves_two_close_targets() {
        // Two point targets 4 mm apart at the same depth: the MVDR image should show a
        // clear dip between them (both remain detectable as separate maxima).
        let array = LinearArray::small_test_array();
        let phantom = Phantom::builder(0.014, 0.03)
            .add_point_target(-0.002, 0.02, 1.0)
            .add_point_target(0.002, 0.02, 1.0)
            .build();
        let rf = simulate(&phantom, &array, 0.03);
        let grid = ImagingGrid::for_array(&array, 0.0194, 0.0012, 7, 40);
        let mvdr_img = Mvdr::fast().beamform_iq(&rf, &array, &grid, 1540.0).unwrap();
        let row = grid.nearest_row(0.02);
        let left = mvdr_img.value(row, grid.nearest_col(-0.002)).abs();
        let right = mvdr_img.value(row, grid.nearest_col(0.002)).abs();
        let middle = mvdr_img.value(row, grid.nearest_col(0.0)).abs();
        assert!(left > middle && right > middle, "left {left} middle {middle} right {right}");
        let bmode = BModeImage::from_iq(&mvdr_img, 60.0).unwrap();
        assert_eq!(bmode.num_rows(), 7);
    }
}

//! IQ (analytic) image representation.
//!
//! The Tiny-VBF network predicts the *IQ demodulated beamformed image*: a complex value
//! per pixel whose magnitude is the envelope shown in the B-mode display. Classical
//! beamformers produce a real beamformed RF image first; [`rf_to_iq`] converts it by
//! taking the analytic signal along each image column (the depth/fast-time axis).

use crate::grid::ImagingGrid;
use crate::{BeamformError, BeamformResult};
use usdsp::hilbert::analytic_signal_batch;
use usdsp::Complex32;

/// A complex-valued beamformed image on an [`ImagingGrid`] (row-major storage).
#[derive(Debug, Clone, PartialEq)]
pub struct IqImage {
    data: Vec<Complex32>,
    grid: ImagingGrid,
}

impl IqImage {
    /// Creates a zero image on the given grid.
    pub fn zeros(grid: ImagingGrid) -> Self {
        let n = grid.num_pixels();
        Self { data: vec![Complex32::ZERO; n], grid }
    }

    /// Builds an image from row-major complex data.
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::ShapeMismatch`] when the data length does not equal the
    /// number of grid pixels.
    pub fn from_data(data: Vec<Complex32>, grid: ImagingGrid) -> BeamformResult<Self> {
        if data.len() != grid.num_pixels() {
            return Err(BeamformError::ShapeMismatch {
                expected: format!("{} pixels", grid.num_pixels()),
                actual: format!("{} values", data.len()),
            });
        }
        Ok(Self { data, grid })
    }

    /// Number of depth rows.
    pub fn num_rows(&self) -> usize {
        self.grid.num_rows()
    }

    /// Number of lateral columns.
    pub fn num_cols(&self) -> usize {
        self.grid.num_cols()
    }

    /// Total pixel count.
    pub fn num_pixels(&self) -> usize {
        self.data.len()
    }

    /// The imaging grid this image lives on.
    pub fn grid(&self) -> &ImagingGrid {
        &self.grid
    }

    /// Pixel value at `(row, col)`.
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Complex32 {
        self.data[row * self.grid.num_cols() + col]
    }

    /// Mutable pixel access.
    #[inline]
    pub fn value_mut(&mut self, row: usize, col: usize) -> &mut Complex32 {
        let cols = self.grid.num_cols();
        &mut self.data[row * cols + col]
    }

    /// Flat row-major view of the complex samples.
    pub fn as_slice(&self) -> &[Complex32] {
        &self.data
    }

    /// Envelope (per-pixel magnitude), row-major.
    pub fn envelope(&self) -> Vec<f32> {
        self.data.iter().map(|c| c.abs()).collect()
    }

    /// Peak envelope value.
    pub fn peak(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, c| m.max(c.abs()))
    }

    /// Interleaved real/imaginary representation `[re0, im0, re1, im1, …]` used as the
    /// network regression target.
    pub fn to_interleaved(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.data.len() * 2);
        for c in &self.data {
            out.push(c.re);
            out.push(c.im);
        }
        out
    }

    /// Mean squared difference between two images' interleaved IQ values (the paper's
    /// training loss domain).
    ///
    /// # Panics
    ///
    /// Panics when the images have different shapes.
    pub fn mse(&self, other: &IqImage) -> f32 {
        assert_eq!(self.data.len(), other.data.len(), "IqImage::mse shape mismatch");
        let n = self.data.len() as f32;
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| {
                let d = *a - *b;
                d.norm_sqr()
            })
            .sum::<f32>()
            / n
    }
}

/// Converts a real beamformed RF image (row-major, `grid`-shaped) into an IQ image by
/// computing the analytic signal along each depth column, using the
/// workspace-default worker threads (see [`runtime::default_threads`]).
///
/// # Errors
///
/// Returns [`BeamformError::ShapeMismatch`] when `rf.len()` differs from the pixel count.
pub fn rf_to_iq(rf: &[f32], grid: &ImagingGrid) -> BeamformResult<IqImage> {
    rf_to_iq_with_threads(rf, grid, runtime::default_threads())
}

/// [`rf_to_iq`] with an explicit worker-thread count.
///
/// The per-column Hilbert transforms run through
/// [`usdsp::hilbert::analytic_signal_batch`], so columns are processed
/// concurrently with one FFT scratch buffer per worker. Each column's analytic
/// signal depends only on that column, so the image is bitwise identical for
/// every `num_threads`.
///
/// # Errors
///
/// Same as [`rf_to_iq`].
pub fn rf_to_iq_with_threads(rf: &[f32], grid: &ImagingGrid, num_threads: usize) -> BeamformResult<IqImage> {
    if rf.len() != grid.num_pixels() {
        return Err(BeamformError::ShapeMismatch {
            expected: format!("{} pixels", grid.num_pixels()),
            actual: format!("{}", rf.len()),
        });
    }
    let rows = grid.num_rows();
    let cols = grid.num_cols();
    let columns: Vec<Vec<f32>> = (0..cols).map(|col| (0..rows).map(|row| rf[row * cols + col]).collect()).collect();
    let analytic = analytic_signal_batch(&columns, num_threads).map_err(|_| BeamformError::InvalidParameter {
        name: "rf",
        reason: "analytic signal failed on empty column".into(),
    })?;
    let mut image = IqImage::zeros(grid.clone());
    for (col, column) in analytic.iter().enumerate() {
        for (row, value) in column.iter().enumerate() {
            *image.value_mut(row, col) = *value;
        }
    }
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrasound::LinearArray;

    fn grid(rows: usize, cols: usize) -> ImagingGrid {
        ImagingGrid::for_array(&LinearArray::small_test_array(), 0.005, 0.02, rows, cols)
    }

    #[test]
    fn construction_and_indexing() {
        let g = grid(4, 3);
        let mut img = IqImage::zeros(g.clone());
        assert_eq!(img.num_pixels(), 12);
        *img.value_mut(2, 1) = Complex32::new(1.0, -1.0);
        assert_eq!(img.value(2, 1), Complex32::new(1.0, -1.0));
        assert_eq!(img.num_rows(), 4);
        assert_eq!(img.num_cols(), 3);
        assert_eq!(img.grid(), &g);
    }

    #[test]
    fn from_data_validates_length() {
        let g = grid(2, 2);
        assert!(IqImage::from_data(vec![Complex32::ZERO; 3], g.clone()).is_err());
        assert!(IqImage::from_data(vec![Complex32::ZERO; 4], g).is_ok());
    }

    #[test]
    fn interleaved_round_trip() {
        let g = grid(2, 2);
        let data = vec![
            Complex32::new(1.0, 2.0),
            Complex32::new(-1.0, 0.5),
            Complex32::new(0.0, 0.0),
            Complex32::new(3.0, -4.0),
        ];
        let img = IqImage::from_data(data, g).unwrap();
        assert_eq!(img.to_interleaved(), vec![1.0, 2.0, -1.0, 0.5, 0.0, 0.0, 3.0, -4.0]);
    }

    #[test]
    fn envelope_and_peak() {
        let g = grid(1, 2);
        let img = IqImage::from_data(vec![Complex32::new(3.0, 4.0), Complex32::ZERO], g).unwrap();
        assert_eq!(img.envelope(), vec![5.0, 0.0]);
        assert_eq!(img.peak(), 5.0);
    }

    #[test]
    fn mse_of_identical_images_is_zero() {
        let g = grid(2, 2);
        let img = IqImage::from_data(vec![Complex32::new(1.0, 1.0); 4], g).unwrap();
        assert_eq!(img.mse(&img), 0.0);
        let other = IqImage::from_data(vec![Complex32::new(2.0, 1.0); 4], img.grid().clone()).unwrap();
        assert!((img.mse(&other) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rf_to_iq_envelope_of_oscillating_column() {
        // An oscillating RF column of constant amplitude should produce a roughly flat
        // envelope in the interior.
        let rows = 128;
        let cols = 2;
        let g = grid(rows, cols);
        let mut rf = vec![0.0f32; rows * cols];
        for row in 0..rows {
            let v = (row as f32 * 0.9).sin();
            rf[row * cols] = v;
            rf[row * cols + 1] = 0.0;
        }
        let iq = rf_to_iq(&rf, &g).unwrap();
        for row in 20..rows - 20 {
            assert!((iq.value(row, 0).abs() - 1.0).abs() < 0.15, "row {row}");
            assert!(iq.value(row, 1).abs() < 1e-6);
        }
    }

    #[test]
    fn rf_to_iq_validates_shape() {
        let g = grid(4, 4);
        assert!(rf_to_iq(&[0.0; 15], &g).is_err());
    }
}

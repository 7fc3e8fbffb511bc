//! B-mode image formation: envelope normalization and log compression.

use crate::grid::ImagingGrid;
use crate::iq::IqImage;
use crate::{BeamformError, BeamformResult};
use usdsp::stats::amplitude_to_db;

/// Dynamic range (dB) used for display/log compression throughout the paper's figures.
pub const DEFAULT_DYNAMIC_RANGE_DB: f32 = 60.0;

/// A log-compressed B-mode image.
///
/// Pixels are stored row-major in decibels relative to the image maximum, clipped to
/// `[-dynamic_range, 0]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BModeImage {
    db: Vec<f32>,
    grid: ImagingGrid,
    dynamic_range: f32,
}

impl BModeImage {
    /// Log-compresses an envelope image (row-major linear amplitudes) with the given
    /// dynamic range.
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::ShapeMismatch`] when the envelope length does not match
    /// the grid and [`BeamformError::InvalidParameter`] for a non-positive dynamic
    /// range.
    pub fn from_envelope(envelope: &[f32], grid: ImagingGrid, dynamic_range: f32) -> BeamformResult<Self> {
        if envelope.len() != grid.num_pixels() {
            return Err(BeamformError::ShapeMismatch {
                expected: format!("{} pixels", grid.num_pixels()),
                actual: format!("{}", envelope.len()),
            });
        }
        if dynamic_range <= 0.0 {
            return Err(BeamformError::InvalidParameter { name: "dynamic_range", reason: "must be positive".into() });
        }
        let peak = envelope.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-12);
        let db = envelope
            .iter()
            .map(|&v| (amplitude_to_db(v.abs() / peak)).clamp(-dynamic_range, 0.0))
            .collect();
        Ok(Self { db, grid, dynamic_range })
    }

    /// Builds a B-mode image from an IQ image.
    ///
    /// # Errors
    ///
    /// Propagates the validation of [`BModeImage::from_envelope`].
    pub fn from_iq(iq: &IqImage, dynamic_range: f32) -> BeamformResult<Self> {
        Self::from_envelope(&iq.envelope(), iq.grid().clone(), dynamic_range)
    }

    /// Number of depth rows.
    pub fn num_rows(&self) -> usize {
        self.grid.num_rows()
    }

    /// Number of lateral columns.
    pub fn num_cols(&self) -> usize {
        self.grid.num_cols()
    }

    /// The imaging grid.
    pub fn grid(&self) -> &ImagingGrid {
        &self.grid
    }

    /// Dynamic range used for compression, in dB.
    pub fn dynamic_range(&self) -> f32 {
        self.dynamic_range
    }

    /// Pixel value in dB (relative to the image maximum) at `(row, col)`.
    #[inline]
    pub fn db(&self, row: usize, col: usize) -> f32 {
        self.db[row * self.grid.num_cols() + col]
    }

    /// Flat row-major dB values.
    pub fn as_slice(&self) -> &[f32] {
        &self.db
    }

    /// Linear amplitude (0–1 relative to the image maximum) at `(row, col)`.
    pub fn linear(&self, row: usize, col: usize) -> f32 {
        10.0f32.powf(self.db(row, col) / 20.0)
    }

    /// Extracts one depth row as dB values (a lateral profile, e.g. Fig. 9(b)).
    pub fn lateral_profile(&self, row: usize) -> Vec<f32> {
        (0..self.num_cols()).map(|c| self.db(row, c)).collect()
    }

    /// Extracts one lateral column as dB values (an axial profile).
    pub fn axial_profile(&self, col: usize) -> Vec<f32> {
        (0..self.num_rows()).map(|r| self.db(r, col)).collect()
    }

    /// Renders the image as a compact ASCII intensity map (one character per pixel,
    /// darkest `' '` to brightest `'@'`), useful for logging qualitative comparisons in
    /// the benchmark binaries.
    pub fn to_ascii(&self, max_cols: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let step = (self.num_cols() / max_cols.max(1)).max(1);
        let mut out = String::new();
        for row in (0..self.num_rows()).step_by(step) {
            for col in (0..self.num_cols()).step_by(step) {
                let norm = (self.db(row, col) + self.dynamic_range) / self.dynamic_range;
                let idx = ((norm * (RAMP.len() - 1) as f32).round() as usize).min(RAMP.len() - 1);
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrasound::LinearArray;
    use usdsp::Complex32;

    fn grid(rows: usize, cols: usize) -> ImagingGrid {
        ImagingGrid::for_array(&LinearArray::small_test_array(), 0.005, 0.02, rows, cols)
    }

    #[test]
    fn log_compression_maps_peak_to_zero_db() {
        let g = grid(2, 2);
        let img = BModeImage::from_envelope(&[1.0, 0.1, 0.01, 0.0], g, 60.0).unwrap();
        assert_eq!(img.db(0, 0), 0.0);
        assert!((img.db(0, 1) + 20.0).abs() < 1e-4);
        assert!((img.db(1, 0) + 40.0).abs() < 1e-4);
        assert_eq!(img.db(1, 1), -60.0); // clipped at the dynamic range floor
        assert_eq!(img.dynamic_range(), 60.0);
    }

    #[test]
    fn linear_round_trips_db() {
        let g = grid(1, 2);
        let img = BModeImage::from_envelope(&[2.0, 1.0], g, 60.0).unwrap();
        assert!((img.linear(0, 0) - 1.0).abs() < 1e-6);
        assert!((img.linear(0, 1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn validation_errors() {
        let g = grid(2, 2);
        assert!(BModeImage::from_envelope(&[1.0; 3], g.clone(), 60.0).is_err());
        assert!(BModeImage::from_envelope(&[1.0; 4], g, 0.0).is_err());
    }

    #[test]
    fn from_iq_uses_magnitude() {
        let g = grid(1, 2);
        let iq = IqImage::from_data(vec![Complex32::new(3.0, 4.0), Complex32::new(0.5, 0.0)], g).unwrap();
        let bmode = BModeImage::from_iq(&iq, 40.0).unwrap();
        assert_eq!(bmode.db(0, 0), 0.0);
        assert!((bmode.db(0, 1) - 20.0 * (0.5f32 / 5.0).log10()).abs() < 1e-4);
    }

    #[test]
    fn profiles_have_expected_lengths() {
        let g = grid(3, 4);
        let img = BModeImage::from_envelope(&[1.0; 12], g, 60.0).unwrap();
        assert_eq!(img.lateral_profile(1).len(), 4);
        assert_eq!(img.axial_profile(2).len(), 3);
    }

    #[test]
    fn ascii_rendering_is_nonempty_and_bounded() {
        let g = grid(8, 8);
        let envelope: Vec<f32> = (0..64).map(|i| i as f32 / 63.0).collect();
        let img = BModeImage::from_envelope(&envelope, g, 60.0).unwrap();
        let art = img.to_ascii(4);
        assert!(art.lines().count() <= 8);
        assert!(art.contains('@'));
    }

    #[test]
    fn all_zero_envelope_is_handled() {
        let g = grid(2, 2);
        let img = BModeImage::from_envelope(&[0.0; 4], g, 60.0).unwrap();
        // Everything is at the floor.
        assert!(img.as_slice().iter().all(|&v| v == -60.0 || v == 0.0));
    }
}

//! Lateral point-spread-function profiles (Figures 12 and 14 of the paper).

use beamforming::ImagingGrid;
use serde::{Deserialize, Serialize};

/// A lateral cut through the image at a fixed depth, normalized to its own maximum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LateralPsf {
    /// Lateral pixel positions in millimetres.
    pub positions_mm: Vec<f32>,
    /// Normalized amplitude in dB (0 dB at the profile peak).
    pub amplitude_db: Vec<f32>,
    /// Depth (millimetres) at which the cut was taken.
    pub depth_mm: f32,
}

impl LateralPsf {

    /// Extracts the lateral PSF from an envelope image (row-major linear values).
    pub fn from_envelope(envelope: &[f32], grid: &ImagingGrid, depth: f32) -> Self {
        let row = grid.nearest_row(depth);
        let cols = grid.num_cols();
        let profile: Vec<f32> = (0..cols).map(|c| envelope[row * cols + c]).collect();
        let peak = profile.iter().cloned().fold(0.0f32, f32::max).max(1e-12);
        let db: Vec<f32> = profile.iter().map(|&v| 20.0 * (v.max(1e-12) / peak).log10()).collect();
        Self::from_parts(db, grid, row)
    }

    fn from_parts(amplitude_db: Vec<f32>, grid: &ImagingGrid, row: usize) -> Self {
        let positions_mm = grid.x_positions().iter().map(|&x| x * 1e3).collect();
        Self { positions_mm, amplitude_db, depth_mm: grid.z(row) * 1e3 }
    }

    /// Index and value (dB) of the profile peak.
    pub fn peak(&self) -> (usize, f32) {
        self.amplitude_db
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap_or((0, f32::NEG_INFINITY))
    }

    /// −6 dB mainlobe width in millimetres, or `None` when it cannot be measured.
    pub fn mainlobe_width_mm(&self) -> Option<f32> {
        let (peak_idx, peak_db) = self.peak();
        let threshold = peak_db - 6.0;
        let mut left = None;
        for i in (0..peak_idx).rev() {
            if self.amplitude_db[i] <= threshold {
                left = Some(i);
                break;
            }
        }
        let mut right = None;
        for i in peak_idx + 1..self.amplitude_db.len() {
            if self.amplitude_db[i] <= threshold {
                right = Some(i);
                break;
            }
        }
        match (left, right) {
            (Some(l), Some(r)) => Some((self.positions_mm[r] - self.positions_mm[l]).abs()),
            _ => None,
        }
    }

    /// Highest sidelobe level in dB relative to the peak: the maximum of the profile
    /// outside ±`exclusion_mm` of the peak position. Returns `None` when everything is
    /// inside the exclusion zone.
    pub fn peak_sidelobe_db(&self, exclusion_mm: f32) -> Option<f32> {
        let (peak_idx, peak_db) = self.peak();
        let peak_pos = self.positions_mm[peak_idx];
        self.positions_mm
            .iter()
            .zip(self.amplitude_db.iter())
            .filter(|(pos, _)| (*pos - peak_pos).abs() > exclusion_mm)
            .map(|(_, &db)| db - peak_db)
            .fold(None, |acc: Option<f32>, v| Some(acc.map_or(v, |m| m.max(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrasound::LinearArray;

    fn grid() -> ImagingGrid {
        ImagingGrid::for_array(&LinearArray::l11_5v(), 0.01, 0.02, 50, 128)
    }

    fn blob_envelope(grid: &ImagingGrid, sigma_x: f32) -> Vec<f32> {
        let mut out = vec![1e-6f32; grid.num_pixels()];
        for row in 0..grid.num_rows() {
            for col in 0..grid.num_cols() {
                let dx = grid.x(col);
                let dz = grid.z(row) - 0.02;
                out[row * grid.num_cols() + col] +=
                    (-(dx * dx) / (2.0 * sigma_x * sigma_x) - (dz * dz) / (2.0 * 0.0004f32.powi(2))).exp();
            }
        }
        out
    }

    #[test]
    fn psf_peak_is_at_zero_db_and_centred() {
        let g = grid();
        let envelope = blob_envelope(&g, 0.6e-3);
        let psf = LateralPsf::from_envelope(&envelope, &g, 0.02);
        let (idx, peak) = psf.peak();
        assert!(peak.abs() < 1e-4);
        assert!((psf.positions_mm[idx]).abs() < 0.5, "peak at {} mm", psf.positions_mm[idx]);
        assert_eq!(psf.positions_mm.len(), 128);
        assert!((psf.depth_mm - 20.0).abs() < 0.5);
    }

    #[test]
    fn mainlobe_width_tracks_blob_size() {
        let g = grid();
        let narrow = LateralPsf::from_envelope(&blob_envelope(&g, 0.4e-3), &g, 0.02);
        let wide = LateralPsf::from_envelope(&blob_envelope(&g, 1.0e-3), &g, 0.02);
        let wn = narrow.mainlobe_width_mm().unwrap();
        let ww = wide.mainlobe_width_mm().unwrap();
        assert!(ww > wn, "wide {ww} narrow {wn}");
    }

    #[test]
    fn sidelobe_of_pure_gaussian_is_low() {
        let g = grid();
        let psf = LateralPsf::from_envelope(&blob_envelope(&g, 0.5e-3), &g, 0.02);
        let sll = psf.peak_sidelobe_db(3.0).unwrap();
        assert!(sll < -20.0, "sidelobe {sll}");
        // Exclusion wider than the whole image -> None.
        assert!(psf.peak_sidelobe_db(1000.0).is_none());
    }

    #[test]
    fn flat_profile_has_no_measurable_mainlobe() {
        let g = grid();
        let envelope = vec![1.0f32; g.num_pixels()];
        let psf = LateralPsf::from_envelope(&envelope, &g, 0.02);
        assert!(psf.mainlobe_width_mm().is_none());
    }
}

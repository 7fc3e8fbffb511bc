//! PICMUS-like evaluation datasets.
//!
//! The paper evaluates on the four PICMUS 2016 configurations: resolution-distortion and
//! contrast-speckle, each as in-silico (Field II) and in-vitro (CIRS phantom) data. This
//! module builds synthetic equivalents with the same target layouts:
//!
//! * **contrast, in-silico** — anechoic cysts at 13 mm, 25 mm and 37 mm depth (Fig. 9),
//! * **contrast, in-vitro** — anechoic cysts at 15 mm and 35 mm depth (Fig. 10),
//! * **resolution, in-silico** — point-target rows at 15.12 mm and 35.15 mm (Figs. 11-12),
//! * **resolution, in-vitro** — point-target rows at 14.01 mm and 32.79 mm (Figs. 13-14).

use crate::acquisition::ChannelData;
use crate::invitro::InVitroDegradation;
use crate::medium::Medium;
use crate::phantom::{CircleRegion, Phantom, Scatterer};
use crate::planewave::{PlaneWave, PlaneWaveSimulator};
use crate::transducer::LinearArray;
use crate::UltrasoundResult;
use serde::{Deserialize, Serialize};

/// Which acquisition style to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PicmusKind {
    /// Clean simulated acquisition (PICMUS "simulation" column).
    InSilico,
    /// Simulated acquisition passed through the in-vitro degradation model (PICMUS
    /// "experimental phantom" column).
    InVitro,
}

/// Which PICMUS target layout to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PicmusTarget {
    /// Point targets for axial/lateral resolution measurement.
    Resolution,
    /// Anechoic cysts in speckle for contrast measurement.
    Contrast,
}

/// Cyst depths (metres) used by the in-silico contrast dataset (Fig. 9).
pub const IN_SILICO_CYST_DEPTHS: [f32; 3] = [13.0e-3, 25.0e-3, 37.0e-3];
/// Cyst depths (metres) used by the in-vitro contrast dataset (Fig. 10).
pub const IN_VITRO_CYST_DEPTHS: [f32; 2] = [15.0e-3, 35.0e-3];
/// Point-target row depths (metres) for the in-silico resolution dataset (Fig. 12).
pub const IN_SILICO_POINT_DEPTHS: [f32; 2] = [15.12e-3, 35.15e-3];
/// Point-target row depths (metres) for the in-vitro resolution dataset (Fig. 14).
pub const IN_VITRO_POINT_DEPTHS: [f32; 2] = [14.01e-3, 32.79e-3];
/// Radius (metres) of the anechoic cysts.
pub const CYST_RADIUS: f32 = 4.0e-3;

/// A generated evaluation frame: channel data plus everything needed to beamform it and
/// score it (phantom ground truth, probe, medium).
#[derive(Debug, Clone)]
pub struct PicmusFrame {
    /// Raw RF channel data for the single 0° plane-wave transmission.
    pub channel_data: ChannelData,
    /// The scatterer map the data was generated from.
    pub phantom: Phantom,
    /// Probe geometry used for the acquisition.
    pub array: LinearArray,
    /// Propagation medium.
    pub medium: Medium,
    /// Acquisition style.
    pub kind: PicmusKind,
    /// Target layout.
    pub target: PicmusTarget,
    /// Maximum imaging depth in metres.
    pub max_depth: f32,
}

impl PicmusFrame {
    /// Cyst regions of the phantom (empty for resolution frames).
    pub fn cysts(&self) -> &[CircleRegion] {
        self.phantom.cysts()
    }

    /// Point targets of the phantom (empty for contrast frames).
    pub fn point_targets(&self) -> &[Scatterer] {
        self.phantom.point_targets()
    }
}

/// Builder for PICMUS-like evaluation frames.
///
/// The `scale` knob shrinks the probe (channel count) and speckle density together so
/// tests and doctests can run quickly; `scale = 1.0` is the full 128-channel setup.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PicmusDataset {
    kind: PicmusKind,
    target: PicmusTarget,
    scale: f32,
    speckle_density: f32,
    max_depth: f32,
}

impl PicmusDataset {
    /// Starts a contrast-speckle dataset of the given kind.
    pub fn contrast(kind: PicmusKind) -> Self {
        Self {
            kind,
            target: PicmusTarget::Contrast,
            scale: 1.0,
            speckle_density: 1200.0,
            max_depth: 45.0e-3,
        }
    }

    /// Starts a resolution-distortion dataset of the given kind.
    pub fn resolution(kind: PicmusKind) -> Self {
        Self {
            kind,
            target: PicmusTarget::Resolution,
            scale: 1.0,
            speckle_density: 0.0,
            max_depth: 45.0e-3,
        }
    }

    /// Scales the probe channel count and speckle density by `scale` in `(0, 1]`.
    pub fn with_scale(mut self, scale: f32) -> Self {
        self.scale = scale.clamp(0.05, 1.0);
        self
    }

    /// Overrides the maximum imaging depth in metres.
    pub fn with_max_depth(mut self, depth: f32) -> Self {
        self.max_depth = depth.max(5.0e-3);
        self
    }

    /// The probe that [`build`](Self::build) will use after scaling.
    pub fn array(&self) -> LinearArray {
        let full = LinearArray::l11_5v();
        let channels = ((full.num_elements() as f32 * self.scale).round() as usize).clamp(16, full.num_elements());
        full.with_num_elements(channels)
    }

    /// The phantom that [`build`](Self::build) will simulate for a given seed.
    pub fn phantom(&self, seed: u64) -> Phantom {
        let array = self.array();
        let width = array.aperture() * 1.05 + 4.0e-3;
        let density = self.speckle_density * self.scale;
        match self.target {
            PicmusTarget::Contrast => {
                let depths: &[f32] = match self.kind {
                    PicmusKind::InSilico => &IN_SILICO_CYST_DEPTHS,
                    PicmusKind::InVitro => &IN_VITRO_CYST_DEPTHS,
                };
                let mut builder = Phantom::builder(width, self.max_depth)
                    .seed(seed)
                    .speckle_density(density)
                    .speckle_amplitude(1.0);
                for &depth in depths {
                    if depth + CYST_RADIUS < self.max_depth {
                        builder = builder.add_cyst(0.0, depth, CYST_RADIUS);
                    }
                }
                builder.build()
            }
            PicmusTarget::Resolution => {
                let depths: &[f32] = match self.kind {
                    PicmusKind::InSilico => &IN_SILICO_POINT_DEPTHS,
                    PicmusKind::InVitro => &IN_VITRO_POINT_DEPTHS,
                };
                let half_span = (width / 2.0 - 2.0e-3).max(2.0e-3);
                let mut builder = Phantom::builder(width, self.max_depth)
                    .seed(seed)
                    .speckle_density(density * 0.05)
                    .speckle_amplitude(0.02);
                for &depth in depths {
                    if depth >= self.max_depth {
                        continue;
                    }
                    // Horizontally arranged point targets against a quiet background,
                    // matching Figs. 11/13: centre point plus two flanking points.
                    for frac in [-1.0f32, -0.5, 0.0, 0.5, 1.0] {
                        builder = builder.add_point_target(frac * half_span * 0.6, depth, 30.0);
                    }
                }
                builder.build()
            }
        }
    }

    /// Simulates the dataset frame for the given seed.
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors.
    pub fn build(&self, seed: u64) -> UltrasoundResult<PicmusFrame> {
        let array = self.array();
        let medium = Medium::soft_tissue();
        let phantom = self.phantom(seed);
        let simulator = PlaneWaveSimulator::new(array.clone(), medium, self.max_depth);
        let mut channel_data = simulator.simulate(&phantom, PlaneWave::zero_angle())?;
        if self.kind == PicmusKind::InVitro {
            let model = InVitroDegradation { seed: seed ^ 0x5EED, ..InVitroDegradation::default() };
            model.apply(&mut channel_data);
        }
        Ok(PicmusFrame {
            channel_data,
            phantom,
            array,
            medium,
            kind: self.kind,
            target: self.target,
            max_depth: self.max_depth,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contrast_phantom_has_expected_cysts() {
        let ds = PicmusDataset::contrast(PicmusKind::InSilico).with_scale(0.25);
        let phantom = ds.phantom(1);
        assert_eq!(phantom.cysts().len(), 3);
        let depths: Vec<f32> = phantom.cysts().iter().map(|c| c.cz).collect();
        assert!(depths.contains(&13.0e-3) && depths.contains(&25.0e-3) && depths.contains(&37.0e-3));
        assert!(phantom.len() > 100, "speckle missing: {}", phantom.len());
    }

    #[test]
    fn invitro_contrast_uses_two_cysts() {
        let ds = PicmusDataset::contrast(PicmusKind::InVitro).with_scale(0.25);
        assert_eq!(ds.phantom(1).cysts().len(), 2);
    }

    #[test]
    fn resolution_phantom_places_points_at_paper_depths() {
        let ds = PicmusDataset::resolution(PicmusKind::InSilico).with_scale(0.25);
        let phantom = ds.phantom(3);
        assert_eq!(phantom.point_targets().len(), 10);
        let has_depth = |z: f32| phantom.point_targets().iter().any(|p| (p.z - z).abs() < 1e-6);
        assert!(has_depth(15.12e-3));
        assert!(has_depth(35.15e-3));
    }

    #[test]
    fn scale_controls_channel_count() {
        let small = PicmusDataset::contrast(PicmusKind::InSilico).with_scale(0.2);
        let full = PicmusDataset::contrast(PicmusKind::InSilico);
        assert_eq!(full.array().num_elements(), 128);
        assert!(small.array().num_elements() < 40);
        assert!(small.array().num_elements() >= 16);
    }

    #[test]
    fn build_produces_consistent_frame() {
        let ds = PicmusDataset::resolution(PicmusKind::InSilico).with_scale(0.15).with_max_depth(0.030);
        let frame = ds.build(11).unwrap();
        assert_eq!(frame.channel_data.num_channels(), frame.array.num_elements());
        assert!(frame.channel_data.peak() > 0.0);
        assert_eq!(frame.kind, PicmusKind::InSilico);
        assert_eq!(frame.target, PicmusTarget::Resolution);
        assert!(!frame.point_targets().is_empty());
        assert!(frame.cysts().is_empty());
    }

    #[test]
    fn invitro_frame_differs_from_insilico_with_same_seed() {
        let silico = PicmusDataset::resolution(PicmusKind::InSilico)
            .with_scale(0.15)
            .with_max_depth(0.025)
            .build(5)
            .unwrap();
        let vitro = PicmusDataset::resolution(PicmusKind::InVitro)
            .with_scale(0.15)
            .with_max_depth(0.025)
            .build(5)
            .unwrap();
        // In-vitro point depths differ and degradation is applied, so the data differs.
        assert_ne!(silico.channel_data, vitro.channel_data);
    }

    #[test]
    fn builder_knobs_are_respected() {
        let ds = PicmusDataset::contrast(PicmusKind::InSilico)
            .with_scale(0.2)
            .with_max_depth(0.02);
        // Only the 13 mm cyst fits above 20 mm depth.
        assert_eq!(ds.phantom(0).cysts().len(), 1);
    }
}

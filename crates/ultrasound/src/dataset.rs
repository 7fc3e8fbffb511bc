//! Training-set generation.
//!
//! The paper trains Tiny-VBF on Verasonics acquisitions of varied scenes and fine-tunes
//! on multi-angle CUBDL frames. Our substitute generates random training phantoms
//! (speckle plus random cysts and bright targets), simulates the single-angle RF frame
//! for each, and hands the pairs to the `tiny-vbf` crate, which beamforms the MVDR
//! training targets from the very same channel data.

use crate::acquisition::ChannelData;
use crate::invitro::InVitroDegradation;
use crate::medium::Medium;
use crate::phantom::Phantom;
use crate::planewave::{PlaneWave, PlaneWaveSimulator};
use crate::transducer::LinearArray;
use crate::UltrasoundResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One training example: the raw RF frame plus the phantom it came from.
#[derive(Debug, Clone)]
pub struct TrainingFrame {
    /// Simulated single-angle RF channel data.
    pub channel_data: ChannelData,
    /// Ground-truth scatterer map (useful for debugging and for building targets).
    pub phantom: Phantom,
    /// Seed used to generate this frame.
    pub seed: u64,
}

/// Configuration of the random training-set generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingSetConfig {
    /// Probe geometry (defaults to the scaled L11-5v).
    pub array: LinearArray,
    /// Propagation medium.
    pub medium: Medium,
    /// Maximum imaging depth in metres.
    pub max_depth: f32,
    /// Speckle density in scatterers per cm².
    pub speckle_density: f32,
    /// Maximum number of random anechoic cysts per frame.
    pub max_cysts: usize,
    /// Maximum number of random bright point targets per frame.
    pub max_points: usize,
    /// Probability of passing a frame through the in-vitro degradation model
    /// (augmentation that mimics acquiring part of the training set on hardware).
    pub degradation_probability: f32,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for TrainingSetConfig {
    fn default() -> Self {
        Self {
            array: LinearArray::l11_5v(),
            medium: Medium::soft_tissue(),
            max_depth: 45.0e-3,
            speckle_density: 800.0,
            max_cysts: 3,
            max_points: 4,
            degradation_probability: 0.25,
            seed: 2024,
        }
    }
}

impl TrainingSetConfig {
    /// A small configuration (few channels, shallow depth) for tests and examples.
    pub fn small() -> Self {
        Self {
            array: LinearArray::small_test_array(),
            max_depth: 30.0e-3,
            speckle_density: 150.0,
            ..Self::default()
        }
    }

    /// Generates the random phantom for frame `index`.
    pub fn phantom(&self, index: usize) -> Phantom {
        let seed = self.seed.wrapping_add(index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(seed);
        let width = self.array.aperture() * 1.05 + 4.0e-3;
        let mut builder = Phantom::builder(width, self.max_depth)
            .seed(seed ^ 0xABCD)
            .speckle_density(self.speckle_density)
            .speckle_amplitude(1.0);
        let n_cysts = rng.gen_range(0..=self.max_cysts);
        for _ in 0..n_cysts {
            let cx = rng.gen_range(-width * 0.3..width * 0.3);
            let cz = rng.gen_range(8.0e-3..self.max_depth * 0.9);
            let radius = rng.gen_range(2.0e-3..5.0e-3);
            builder = builder.add_cyst(cx, cz, radius);
        }
        let n_points = rng.gen_range(0..=self.max_points);
        for _ in 0..n_points {
            let px = rng.gen_range(-width * 0.35..width * 0.35);
            let pz = rng.gen_range(6.0e-3..self.max_depth * 0.95);
            let amp = rng.gen_range(10.0..40.0);
            builder = builder.add_point_target(px, pz, amp);
        }
        builder.build()
    }

    /// Generates `count` training frames.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (for example a degenerate acquisition window).
    pub fn generate(&self, count: usize) -> UltrasoundResult<Vec<TrainingFrame>> {
        let simulator = PlaneWaveSimulator::new(self.array.clone(), self.medium, self.max_depth);
        let mut frames = Vec::with_capacity(count);
        for index in 0..count {
            let phantom = self.phantom(index);
            let seed = self.seed.wrapping_add(index as u64);
            let mut channel_data = if phantom.is_empty() {
                // A fully empty random phantom (possible with zero speckle density and
                // zero targets drawn) still yields a frame of silence.
                ChannelData::zeros(
                    simulator.config().num_samples,
                    self.array.num_elements(),
                    self.array.sampling_frequency(),
                )
            } else {
                simulator.simulate(&phantom, PlaneWave::zero_angle())?
            };
            let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAF);
            if rng.gen::<f32>() < self.degradation_probability {
                InVitroDegradation { seed, ..InVitroDegradation::mild() }.apply(&mut channel_data);
            }
            frames.push(TrainingFrame { channel_data, phantom, seed });
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_number_of_frames() {
        let cfg = TrainingSetConfig { speckle_density: 30.0, max_depth: 0.02, ..TrainingSetConfig::small() };
        let frames = cfg.generate(3).unwrap();
        assert_eq!(frames.len(), 3);
        for f in &frames {
            assert_eq!(f.channel_data.num_channels(), cfg.array.num_elements());
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let cfg = TrainingSetConfig { speckle_density: 20.0, max_depth: 0.02, degradation_probability: 1.0, ..TrainingSetConfig::small() };
        let a = cfg.generate(2).unwrap();
        let b = cfg.generate(2).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.channel_data, y.channel_data);
        }
    }

    #[test]
    fn different_frames_use_different_phantoms() {
        let cfg = TrainingSetConfig::small();
        let p0 = cfg.phantom(0);
        let p1 = cfg.phantom(1);
        assert_ne!(p0, p1);
    }

    #[test]
    fn empty_phantom_yields_silent_frame() {
        let cfg = TrainingSetConfig {
            speckle_density: 0.0,
            max_cysts: 0,
            max_points: 0,
            degradation_probability: 0.0,
            max_depth: 0.015,
            ..TrainingSetConfig::small()
        };
        let frames = cfg.generate(1).unwrap();
        assert_eq!(frames[0].channel_data.peak(), 0.0);
    }
}

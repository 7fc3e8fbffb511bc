//! In-vitro degradation model.
//!
//! The PICMUS in-vitro acquisitions differ from the in-silico ones through the physics a
//! Field II-style simulation leaves out: electronic noise, element-to-element
//! sensitivity spread, sound-speed mismatch between the beamformer assumption and the
//! phantom material, small per-channel timing jitter and near-field reverberation
//! clutter. Applying this model to a clean simulated acquisition produces data with the
//! characteristic quality drop the paper reports between its simulation and phantom
//! columns (Tables I and II).

use crate::acquisition::ChannelData;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use usdsp::interp::sample_at;

/// Parameters of the in-vitro degradation model.
///
/// ```
/// use ultrasound::invitro::InVitroDegradation;
/// let model = InVitroDegradation::default();
/// assert!(model.snr_db > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InVitroDegradation {
    /// Electronic (thermal) noise level as an SNR in dB relative to the RF RMS.
    pub snr_db: f32,
    /// Standard deviation of the per-element gain spread (multiplicative, around 1.0).
    pub element_gain_spread: f32,
    /// Standard deviation of the per-element timing jitter in samples.
    pub timing_jitter_samples: f32,
    /// Amplitude of near-field reverberation clutter relative to the RF RMS.
    pub clutter_level: f32,
    /// Fraction of the acquisition (from the start) affected by the clutter tail.
    pub clutter_extent: f32,
    /// RNG seed so the degradation is reproducible.
    pub seed: u64,
}

impl Default for InVitroDegradation {
    fn default() -> Self {
        Self {
            snr_db: 30.0,
            element_gain_spread: 0.08,
            timing_jitter_samples: 0.35,
            clutter_level: 0.15,
            clutter_extent: 0.18,
            seed: 0xB10C,
        }
    }
}

impl InVitroDegradation {
    /// A milder degradation useful for ablations.
    pub fn mild() -> Self {
        Self { snr_db: 40.0, element_gain_spread: 0.03, timing_jitter_samples: 0.1, clutter_level: 0.05, ..Self::default() }
    }

    /// Applies the degradation to a channel-data frame in place.
    pub fn apply(&self, data: &mut ChannelData) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let num_channels = data.num_channels();
        let num_samples = data.num_samples();
        let rms = data.rms();

        // Per-element gain and timing jitter.
        for ch in 0..num_channels {
            let gain = 1.0 + self.element_gain_spread * standard_normal(&mut rng);
            let jitter = self.timing_jitter_samples * standard_normal(&mut rng);
            let original = data.channel(ch);
            for k in 0..num_samples {
                let shifted = sample_at(&original, k as f32 + jitter);
                *data.sample_mut(k, ch) = gain * shifted;
            }
        }

        // Near-field reverberation clutter: decaying band-limited ringing common to all
        // channels with a small per-channel variation.
        if self.clutter_level > 0.0 && rms > 0.0 {
            let extent = ((num_samples as f32) * self.clutter_extent.clamp(0.0, 1.0)) as usize;
            let common_phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            for ch in 0..num_channels {
                let channel_phase = common_phase + 0.2 * standard_normal(&mut rng);
                let channel_gain = 1.0 + 0.3 * standard_normal(&mut rng);
                for k in 0..extent.min(num_samples) {
                    let t = k as f32 / extent.max(1) as f32;
                    let ring = (12.0 * std::f32::consts::TAU * t + channel_phase).sin();
                    let decay = (-4.0 * t).exp();
                    *data.sample_mut(k, ch) += self.clutter_level * channel_gain * rms * ring * decay;
                }
            }
        }

        // Electronic noise last so it is not shaped by the jitter interpolation.
        data.add_white_noise(self.snr_db, self.seed.wrapping_add(1));
    }
}

fn standard_normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(1e-9..1.0f32);
    let u2: f32 = rng.gen_range(0.0..1.0f32);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_frame() -> ChannelData {
        let n_samples = 400;
        let n_channels = 8;
        let mut data = ChannelData::zeros(n_samples, n_channels, 31.25e6);
        for ch in 0..n_channels {
            for k in 0..n_samples {
                *data.sample_mut(k, ch) = ((k as f32 * 0.5) + ch as f32).sin();
            }
        }
        data
    }

    fn degraded(model: InVitroDegradation, data: &ChannelData) -> ChannelData {
        let mut copy = data.clone();
        model.apply(&mut copy);
        copy
    }

    #[test]
    fn degradation_changes_the_data_but_keeps_shape() {
        let clean = test_frame();
        let degraded = degraded(InVitroDegradation::default(), &clean);
        assert_eq!(degraded.num_samples(), clean.num_samples());
        assert_eq!(degraded.num_channels(), clean.num_channels());
        assert_ne!(degraded, clean);
    }

    #[test]
    fn severe_degradation_adds_more_error_than_mild() {
        let clean = test_frame();
        let err = |model: InVitroDegradation| {
            let d = degraded(model, &clean);
            d.as_slice()
                .iter()
                .zip(clean.as_slice())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
        };
        let severe = InVitroDegradation {
            snr_db: 18.0,
            element_gain_spread: 0.15,
            timing_jitter_samples: 0.8,
            clutter_level: 0.35,
            ..InVitroDegradation::default()
        };
        assert!(err(severe) > 2.0 * err(InVitroDegradation::mild()));
    }

    #[test]
    fn degradation_is_reproducible_per_seed() {
        let clean = test_frame();
        let a = degraded(InVitroDegradation::default(), &clean);
        let b = degraded(InVitroDegradation::default(), &clean);
        let c = degraded(InVitroDegradation { seed: 99, ..InVitroDegradation::default() }, &clean);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clutter_concentrates_near_the_start() {
        let clean = ChannelData::zeros(1000, 4, 31.25e6);
        // Zero signal: rms = 0, so clutter is skipped entirely; use a faint signal.
        let mut faint = clean.clone();
        for k in 0..1000 {
            for ch in 0..4 {
                *faint.sample_mut(k, ch) = 0.01 * ((k as f32) * 0.3).sin();
            }
        }
        let model = InVitroDegradation { snr_db: 80.0, element_gain_spread: 0.0, timing_jitter_samples: 0.0, clutter_level: 1.0, clutter_extent: 0.2, seed: 5 };
        let degraded = degraded(model, &faint);
        let diff: Vec<f32> = degraded.as_slice().iter().zip(faint.as_slice()).map(|(a, b)| (a - b).abs()).collect();
        let head: f32 = diff[..4 * 150].iter().sum();
        let tail: f32 = diff[4 * 400..].iter().sum();
        assert!(head > 10.0 * tail.max(1e-6), "head {head} tail {tail}");
    }

    #[test]
    fn zero_signal_gets_no_noise_added() {
        let clean = ChannelData::zeros(100, 4, 31.25e6);
        let degraded = degraded(InVitroDegradation::default(), &clean);
        // rms is zero -> noise and clutter skipped, jitter of zeros stays zero.
        assert_eq!(degraded.rms(), 0.0);
    }
}

//! Acoustic propagation medium.
//!
//! Holds the speed of sound and a simple frequency-dependent attenuation model
//! (dB/cm/MHz), which is what makes deep targets dimmer than shallow ones — the effect
//! the paper points to when U-Net-style models lose contrast with depth in vivo.

use serde::{Deserialize, Serialize};

/// Homogeneous acoustic medium.
///
/// ```
/// use ultrasound::Medium;
/// let m = Medium::soft_tissue();
/// assert!((m.sound_speed() - 1540.0).abs() < 1e-3);
/// // 1 MHz over 1 cm with 0.5 dB/cm/MHz attenuation halves ~ -0.5 dB.
/// let a = m.attenuation_factor(1.0e6, 0.01);
/// assert!(a < 1.0 && a > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Medium {
    sound_speed: f32,
    attenuation_db_cm_mhz: f32,
}

impl Medium {
    /// Generic soft tissue: 1540 m/s, 0.5 dB/cm/MHz.
    pub fn soft_tissue() -> Self {
        Self { sound_speed: 1540.0, attenuation_db_cm_mhz: 0.5 }
    }

    /// Lossless medium (useful for validating geometry without amplitude effects).
    pub fn lossless(sound_speed: f32) -> Self {
        Self { sound_speed, attenuation_db_cm_mhz: 0.0 }
    }

    /// Creates a medium from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics when the sound speed is not positive or attenuation is negative.
    pub fn new(sound_speed: f32, attenuation_db_cm_mhz: f32) -> Self {
        assert!(sound_speed > 0.0, "Medium: sound speed must be positive");
        assert!(attenuation_db_cm_mhz >= 0.0, "Medium: attenuation must be non-negative");
        Self { sound_speed, attenuation_db_cm_mhz }
    }

    /// Speed of sound in m/s.
    pub fn sound_speed(&self) -> f32 {
        self.sound_speed
    }

    /// Attenuation coefficient in dB/cm/MHz.
    pub fn attenuation(&self) -> f32 {
        self.attenuation_db_cm_mhz
    }

    /// One-way amplitude attenuation factor for a signal at `frequency` Hz travelling
    /// `distance` metres.
    pub fn attenuation_factor(&self, frequency: f32, distance: f32) -> f32 {
        let db = self.attenuation_db_cm_mhz * (frequency / 1.0e6) * (distance * 100.0);
        10.0f32.powf(-db / 20.0)
    }

    /// Wavelength at `frequency` Hz.
    pub fn wavelength(&self, frequency: f32) -> f32 {
        self.sound_speed / frequency
    }
}

impl Default for Medium {
    fn default() -> Self {
        Self::soft_tissue()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_values() {
        assert_eq!(Medium::soft_tissue().sound_speed(), 1540.0);
        assert_eq!(Medium::lossless(1500.0).attenuation(), 0.0);
    }

    #[test]
    fn attenuation_grows_with_depth_and_frequency() {
        let m = Medium::soft_tissue();
        let shallow = m.attenuation_factor(7.6e6, 0.01);
        let deep = m.attenuation_factor(7.6e6, 0.04);
        assert!(deep < shallow);
        let low_f = m.attenuation_factor(2.0e6, 0.02);
        let high_f = m.attenuation_factor(10.0e6, 0.02);
        assert!(high_f < low_f);
        assert!(shallow <= 1.0 && shallow > 0.0);
    }

    #[test]
    fn lossless_factor_is_one() {
        let m = Medium::lossless(1540.0);
        assert_eq!(m.attenuation_factor(7.6e6, 0.1), 1.0);
    }

    #[test]
    fn wavelength_at_center_frequency() {
        let m = Medium::soft_tissue();
        let lambda = m.wavelength(7.6e6);
        assert!((lambda - 1540.0 / 7.6e6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sound speed must be positive")]
    fn invalid_speed_panics() {
        let _ = Medium::new(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "attenuation must be non-negative")]
    fn negative_attenuation_panics() {
        let _ = Medium::new(1540.0, -0.1);
    }
}

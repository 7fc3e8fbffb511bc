//! Tapering / apodization windows.
//!
//! Receive apodization in the DAS beamformer uses these windows. The [`Window`]
//! enum names the supported shapes; [`Window::coefficients`] samples a window of a
//! given length.

use std::f32::consts::PI;

/// Supported window shapes.
///
/// ```
/// use usdsp::Window;
/// let w = Window::Hann.coefficients(8);
/// assert_eq!(w.len(), 8);
/// assert!(w[0] < 1e-6 && (w[4] - 0.95).abs() < 0.06);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Window {
    /// All-ones window (no tapering). The paper's DAS uses data-independent boxcar
    /// apodization.
    #[default]
    Rectangular,
    /// Hann (raised cosine) window.
    Hann,
    /// Hamming window.
    Hamming,
    /// Blackman window.
    Blackman,
    /// Tukey (tapered cosine) window; the parameter is the taper fraction in `[0, 1]`.
    Tukey(f32),
    /// Triangular (Bartlett) window.
    Triangular,
}

impl Window {
    /// Samples the window at `len` points.
    ///
    /// A zero-length request returns an empty vector; a single point returns `[1.0]`.
    pub fn coefficients(self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        if len == 1 {
            return vec![1.0];
        }
        let n = len as f32;
        (0..len).map(|i| self.sample(i as f32 / (n - 1.0))).collect()
    }

    /// Evaluates the window at a normalized position `u` in `[0, 1]`.
    ///
    /// Positions outside the interval are clamped.
    pub fn sample(self, u: f32) -> f32 {
        let u = u.clamp(0.0, 1.0);
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * (2.0 * PI * u).cos(),
            Window::Hamming => 0.54 - 0.46 * (2.0 * PI * u).cos(),
            Window::Blackman => 0.42 - 0.5 * (2.0 * PI * u).cos() + 0.08 * (4.0 * PI * u).cos(),
            Window::Tukey(alpha) => {
                let alpha = alpha.clamp(0.0, 1.0);
                if alpha <= f32::EPSILON {
                    return 1.0;
                }
                if u < alpha / 2.0 {
                    0.5 * (1.0 + (PI * (2.0 * u / alpha - 1.0)).cos())
                } else if u > 1.0 - alpha / 2.0 {
                    0.5 * (1.0 + (PI * (2.0 * (1.0 - u) / alpha - 1.0)).cos())
                } else {
                    1.0
                }
            }
            Window::Triangular => 1.0 - (2.0 * u - 1.0).abs(),
        }
    }
}

/// Applies a window in place to a signal, element by element.
///
/// # Panics
///
/// Panics when the window and signal lengths differ.
pub fn apply_window(signal: &mut [f32], window: &[f32]) {
    assert_eq!(signal.len(), window.len(), "apply_window: length mismatch");
    for (s, w) in signal.iter_mut().zip(window.iter()) {
        *s *= w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular.coefficients(16).iter().all(|&w| w == 1.0));
    }

    #[test]
    fn hann_endpoints_are_zero_and_symmetric() {
        let w = Window::Hann.coefficients(33);
        assert!(w[0].abs() < 1e-6);
        assert!(w[32].abs() < 1e-6);
        assert!((w[16] - 1.0).abs() < 1e-6);
        for i in 0..33 {
            assert!((w[i] - w[32 - i]).abs() < 1e-5);
        }
    }

    #[test]
    fn hamming_endpoints_are_correct() {
        let w = Window::Hamming.coefficients(21);
        assert!((w[0] - 0.08).abs() < 1e-5);
        assert!((w[10] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn blackman_is_nonnegative() {
        for w in Window::Blackman.coefficients(65) {
            assert!(w >= -1e-6);
        }
    }

    #[test]
    fn tukey_limits() {
        // alpha = 0 -> rectangular; alpha = 1 -> Hann.
        let rect = Window::Tukey(0.0).coefficients(17);
        assert!(rect.iter().all(|&w| (w - 1.0).abs() < 1e-6));
        let hann_like = Window::Tukey(1.0).coefficients(17);
        let hann = Window::Hann.coefficients(17);
        for (a, b) in hann_like.iter().zip(hann.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn triangular_peak_in_the_middle() {
        let w = Window::Triangular.coefficients(11);
        assert!((w[5] - 1.0).abs() < 1e-6);
        assert!(w[0].abs() < 1e-6);
    }

    #[test]
    fn degenerate_lengths() {
        assert!(Window::Hann.coefficients(0).is_empty());
        assert_eq!(Window::Hann.coefficients(1), vec![1.0]);
    }

    #[test]
    fn apply_window_multiplies() {
        let mut s = vec![2.0, 2.0, 2.0];
        apply_window(&mut s, &[0.0, 0.5, 1.0]);
        assert_eq!(s, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_window_panics_on_mismatch() {
        let mut s = vec![1.0; 3];
        apply_window(&mut s, &[1.0; 4]);
    }

    #[test]
    fn sample_clamps_out_of_range() {
        assert_eq!(Window::Hann.sample(-0.5), Window::Hann.sample(0.0));
        assert_eq!(Window::Hann.sample(1.5), Window::Hann.sample(1.0));
    }
}

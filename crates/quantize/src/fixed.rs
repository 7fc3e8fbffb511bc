//! Signed, saturating fixed-point formats.

use crate::{QuantizeError, QuantizeResult};
use serde::{Deserialize, Serialize};

/// A signed two's-complement fixed-point format `Q(word_bits − frac_bits − 1).frac_bits`.
///
/// Values are represented on a uniform grid of step `2^-frac_bits`, clamped to the
/// representable range. Quantization here is *simulated*: values stay `f32` but are
/// rounded onto the grid, which is exactly what is needed to evaluate image-quality
/// degradation (Tables IV and V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FixedFormat {
    word_bits: u32,
    frac_bits: u32,
}

impl FixedFormat {
    /// Creates a format with `word_bits` total bits (including sign) and `frac_bits`
    /// fractional bits.
    ///
    /// # Panics
    ///
    /// Panics when `word_bits < 2`, `word_bits > 32` or `frac_bits >= word_bits`.
    pub fn new(word_bits: u32, frac_bits: u32) -> Self {
        Self::try_new(word_bits, frac_bits).expect("invalid fixed-point format")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`QuantizeError::InvalidFormat`] for unusable bit widths.
    pub fn try_new(word_bits: u32, frac_bits: u32) -> QuantizeResult<Self> {
        if word_bits < 2 {
            return Err(QuantizeError::InvalidFormat { reason: "word bits must be at least 2".into() });
        }
        if word_bits > 32 {
            return Err(QuantizeError::InvalidFormat { reason: "word bits must not exceed 32".into() });
        }
        if frac_bits >= word_bits {
            return Err(QuantizeError::InvalidFormat { reason: "fractional bits must be smaller than word bits".into() });
        }
        Ok(Self { word_bits, frac_bits })
    }

    /// Total word length in bits (including the sign bit).
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Number of fractional bits.
    #[inline]
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Quantization step (resolution).
    #[inline]
    pub fn resolution(&self) -> f32 {
        2.0f32.powi(-(self.frac_bits as i32))
    }

    /// Largest representable value.
    #[inline]
    pub fn max_value(&self) -> f32 {
        let max_raw = (1i64 << (self.word_bits - 1)) - 1;
        max_raw as f32 * self.resolution()
    }

    /// Smallest (most negative) representable value.
    #[inline]
    pub fn min_value(&self) -> f32 {
        let min_raw = -(1i64 << (self.word_bits - 1));
        min_raw as f32 * self.resolution()
    }

    /// Raw integer code for a value (round-to-nearest, saturating).
    #[inline]
    pub fn to_raw(&self, value: f32) -> i64 {
        if value.is_nan() {
            return 0;
        }
        let max_raw = (1i64 << (self.word_bits - 1)) - 1;
        let min_raw = -(1i64 << (self.word_bits - 1));
        let scaled = (value / self.resolution()).round();
        if scaled >= max_raw as f32 {
            max_raw
        } else if scaled <= min_raw as f32 {
            min_raw
        } else {
            scaled as i64
        }
    }

    /// Value represented by a raw integer code.
    #[inline]
    pub fn from_raw(&self, raw: i64) -> f32 {
        raw as f32 * self.resolution()
    }

    /// Rounds a value onto the representable grid (saturating).
    #[inline]
    pub fn quantize(&self, value: f32) -> f32 {
        self.from_raw(self.to_raw(value))
    }

    /// Worst-case quantization error (half a step) for in-range values.
    pub fn max_rounding_error(&self) -> f32 {
        self.resolution() / 2.0
    }

    /// Largest raw code (`2^(word_bits-1) − 1`).
    #[inline]
    pub fn max_raw(&self) -> i64 {
        (1i64 << (self.word_bits - 1)) - 1
    }

    /// Smallest raw code (`−2^(word_bits-1)`).
    #[inline]
    pub fn min_raw(&self) -> i64 {
        -(1i64 << (self.word_bits - 1))
    }

    /// Raw code as `i32` (valid because `word_bits <= 32`). The working type
    /// of the integer kernels in `core::quantized`.
    #[inline]
    pub fn to_code(&self, value: f32) -> i32 {
        self.to_raw(value) as i32
    }

    /// Requantizes an exact integer accumulator from a grid with
    /// `from_frac_bits` fractional bits onto this format: round half away
    /// from zero (matching `f32::round`), then saturate to the code range.
    ///
    /// This is the integer-datapath equivalent of `quantize()` applied to the
    /// accumulator's real value, with one exactness caveat: an accumulator
    /// landing exactly halfway between grid steps rounds away from zero here,
    /// while the f32 simulation may not represent the halfway point at all.
    ///
    /// # Panics
    ///
    /// Debug-panics when `from_frac_bits` is smaller than this format's
    /// fractional bits (the shift would have to be negative).
    #[inline]
    pub fn requantize_i64(&self, acc: i64, from_frac_bits: u32) -> i32 {
        debug_assert!(from_frac_bits >= self.frac_bits, "requantize must narrow fractional bits");
        let shift = from_frac_bits - self.frac_bits;
        let rounded = if shift == 0 {
            acc
        } else {
            // Branchless round-half-away: fold to magnitude, round, restore the
            // sign. Equivalent to `if acc >= 0 { (acc + half) >> shift } else
            // { -((-acc + half) >> shift) }` but with no data-dependent branch,
            // which matters in the integer inference inner loops where the
            // accumulator sign is effectively random.
            let half = 1i64 << (shift - 1);
            let sign = acc >> 63; // 0 for non-negative, -1 for negative
            let magnitude = (acc ^ sign) - sign;
            (((magnitude + half) >> shift) ^ sign) - sign
        };
        rounded.clamp(self.min_raw(), self.max_raw()) as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_accessors() {
        let f = FixedFormat::new(16, 12);
        assert_eq!(f.word_bits(), 16);
        assert_eq!(f.frac_bits(), 12);
        assert!((f.resolution() - 1.0 / 4096.0).abs() < 1e-12);
        assert!((f.max_value() - (32767.0 / 4096.0)).abs() < 1e-4);
        assert!((f.min_value() + 8.0).abs() < 1e-6);
        assert_eq!(f.max_rounding_error(), f.resolution() / 2.0);
    }

    #[test]
    fn invalid_formats_are_rejected() {
        assert!(FixedFormat::try_new(1, 0).is_err());
        assert!(FixedFormat::try_new(40, 8).is_err());
        assert!(FixedFormat::try_new(8, 8).is_err());
        assert!(FixedFormat::try_new(8, 9).is_err());
        assert!(FixedFormat::try_new(8, 6).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid fixed-point format")]
    fn new_panics_on_invalid() {
        let _ = FixedFormat::new(1, 0);
    }

    #[test]
    fn quantize_rounds_to_grid() {
        let q = FixedFormat::new(8, 6); // step 1/64
        assert_eq!(q.quantize(0.0), 0.0);
        assert_eq!(q.quantize(1.0 / 64.0), 1.0 / 64.0);
        assert_eq!(q.quantize(0.015), 1.0 / 64.0);
        // -0.0078 is within half a step of zero, so it rounds to zero.
        assert_eq!(q.quantize(-0.0078), 0.0);
        // -0.009 is closer to -1/64 than to zero.
        assert_eq!(q.quantize(-0.009), -1.0 / 64.0);
    }

    #[test]
    fn saturation_at_extremes() {
        let q = FixedFormat::new(8, 6);
        assert_eq!(q.quantize(100.0), q.max_value());
        assert_eq!(q.quantize(-100.0), q.min_value());
        assert_eq!(q.quantize(f32::NAN), 0.0);
        assert!((q.max_value() - 127.0 / 64.0).abs() < 1e-6);
        assert!((q.min_value() + 2.0).abs() < 1e-6);
    }

    #[test]
    fn raw_round_trip() {
        let q = FixedFormat::new(12, 8);
        for &v in &[0.0f32, 0.5, -0.25, 1.75, -3.0] {
            let raw = q.to_raw(v);
            assert_eq!(q.from_raw(raw), q.quantize(v));
        }
    }

    #[test]
    fn quantization_error_is_bounded_for_in_range_values() {
        let q = FixedFormat::new(16, 12);
        for k in -100..100 {
            let v = k as f32 * 0.013;
            if v < q.max_value() && v > q.min_value() {
                assert!((q.quantize(v) - v).abs() <= q.max_rounding_error() + 1e-7);
            }
        }
    }

    #[test]
    fn wider_formats_are_more_precise() {
        let coarse = FixedFormat::new(8, 6);
        let fine = FixedFormat::new(16, 14);
        let v = 0.123456;
        assert!((fine.quantize(v) - v).abs() < (coarse.quantize(v) - v).abs());
    }
}

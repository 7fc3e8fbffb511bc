//! Descriptive statistics and histograms.
//!
//! The contrast metrics (CR, CNR, GCNR) reduce pixel populations inside/outside a cyst
//! to means, variances and histogram overlaps; those primitives live here.

/// Arithmetic mean of a slice. Returns `0.0` for an empty slice.
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f32>() / values.len() as f32
}

/// Population variance (divides by `n`). Returns `0.0` for an empty slice.
pub fn variance(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / values.len() as f32
}

/// Population standard deviation.
pub fn std_dev(values: &[f32]) -> f32 {
    variance(values).sqrt()
}

/// Minimum value; `None` for an empty slice. NaNs are ignored.
pub fn min(values: &[f32]) -> Option<f32> {
    values.iter().copied().filter(|v| !v.is_nan()).fold(None, |acc, v| match acc {
        None => Some(v),
        Some(m) => Some(m.min(v)),
    })
}

/// Maximum value; `None` for an empty slice. NaNs are ignored.
pub fn max(values: &[f32]) -> Option<f32> {
    values.iter().copied().filter(|v| !v.is_nan()).fold(None, |acc, v| match acc {
        None => Some(v),
        Some(m) => Some(m.max(v)),
    })
}

/// Root-mean-square of a slice. Returns `0.0` for an empty slice.
pub fn rms(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v * v).sum::<f32>() / values.len() as f32).sqrt()
}

/// `p`-th percentile (0–100) using linear interpolation between order statistics.
///
/// Returns `None` for an empty slice; `p` is clamped to `[0, 100]`.
pub fn percentile(values: &[f32], p: f32) -> Option<f32> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f32> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p = p.clamp(0.0, 100.0) / 100.0;
    let idx = p * (sorted.len() - 1) as f32;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f32;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (50th percentile).
pub fn median(values: &[f32]) -> Option<f32> {
    percentile(values, 50.0)
}

/// A fixed-bin histogram over a closed range.
///
/// ```
/// use usdsp::stats::Histogram;
/// let h = Histogram::from_values(&[0.1, 0.2, 0.9], 10, 0.0, 1.0);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    lo: f32,
    hi: f32,
}

impl Histogram {
    /// Builds a histogram of `values` with `bins` bins covering `[lo, hi]`.
    ///
    /// Values outside the range are clamped into the edge bins; NaNs are skipped.
    ///
    /// # Panics
    ///
    /// Panics when `bins == 0` or `hi <= lo`.
    pub fn from_values(values: &[f32], bins: usize, lo: f32, hi: f32) -> Self {
        assert!(bins > 0, "Histogram: bins must be nonzero");
        assert!(hi > lo, "Histogram: hi must exceed lo");
        let mut counts = vec![0u64; bins];
        let width = (hi - lo) / bins as f32;
        for &v in values {
            if v.is_nan() {
                continue;
            }
            let idx = (((v - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
            counts[idx] += 1;
        }
        Self { counts, lo, hi }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of counted samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Normalized bin probabilities (empty histogram yields all zeros).
    pub fn probabilities(&self) -> Vec<f32> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f32 / total as f32).collect()
    }

    /// Lower edge of the histogram range.
    pub fn low(&self) -> f32 {
        self.lo
    }

    /// Upper edge of the histogram range.
    pub fn high(&self) -> f32 {
        self.hi
    }

    /// Overlap coefficient `sum_k min(p_k, q_k)` between two histograms with identical
    /// binning. This is the quantity behind the GCNR metric
    /// (`GCNR = 1 - overlap`).
    ///
    /// # Panics
    ///
    /// Panics when the histograms have different bin counts or ranges.
    pub fn overlap(&self, other: &Histogram) -> f32 {
        assert_eq!(self.counts.len(), other.counts.len(), "Histogram::overlap: bin count mismatch");
        assert!(
            (self.lo - other.lo).abs() < 1e-6 && (self.hi - other.hi).abs() < 1e-6,
            "Histogram::overlap: range mismatch"
        );
        let p = self.probabilities();
        let q = other.probabilities();
        p.iter().zip(q.iter()).map(|(a, b)| a.min(*b)).sum()
    }
}

/// Converts a linear amplitude to decibels (`20 log10`), clamping tiny values to avoid
/// `-inf`.
pub fn amplitude_to_db(value: f32) -> f32 {
    20.0 * value.max(1e-12).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn min_max_rms() {
        let xs = [3.0, -1.0, 4.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(4.0));
        assert_eq!(min(&[]), None);
        assert!((rms(&[3.0, 4.0]) - (12.5f32).sqrt()).abs() < 1e-6);
        assert_eq!(rms(&[]), 0.0);
    }

    #[test]
    fn nan_handling_in_extrema() {
        let xs = [f32::NAN, 1.0, 2.0];
        assert_eq!(min(&xs), Some(1.0));
        assert_eq!(max(&xs), Some(2.0));
    }

    #[test]
    fn percentiles_and_median() {
        let xs: Vec<f32> = (1..=100).map(|i| i as f32).collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert!((median(&xs).unwrap() - 50.5).abs() < 1e-4);
        assert_eq!(percentile(&[], 50.0), None);
        // clamping
        assert_eq!(percentile(&xs, -5.0), Some(1.0));
        assert_eq!(percentile(&xs, 150.0), Some(100.0));
    }

    #[test]
    fn histogram_counts_and_probabilities() {
        let h = Histogram::from_values(&[0.05, 0.15, 0.15, 0.95, 2.0, -1.0], 10, 0.0, 1.0);
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts()[0], 2); // 0.05 and the clamped -1.0
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 2); // 0.95 and the clamped 2.0
        let p = h.probabilities();
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(h.bins(), 10);
        assert_eq!(h.low(), 0.0);
        assert_eq!(h.high(), 1.0);
    }

    #[test]
    fn histogram_overlap_identical_is_one_disjoint_is_zero() {
        let a = Histogram::from_values(&[0.1, 0.2, 0.3], 10, 0.0, 1.0);
        let b = Histogram::from_values(&[0.1, 0.2, 0.3], 10, 0.0, 1.0);
        assert!((a.overlap(&b) - 1.0).abs() < 1e-6);
        let c = Histogram::from_values(&[0.7, 0.8, 0.9], 10, 0.0, 1.0);
        assert!(a.overlap(&c) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn histogram_overlap_requires_same_bins() {
        let a = Histogram::from_values(&[0.1], 10, 0.0, 1.0);
        let b = Histogram::from_values(&[0.1], 5, 0.0, 1.0);
        let _ = a.overlap(&b);
    }

    #[test]
    fn empty_histogram_probabilities_are_zero() {
        let h = Histogram::from_values(&[], 4, 0.0, 1.0);
        assert_eq!(h.total(), 0);
        assert!(h.probabilities().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn db_conversions() {
        assert!((amplitude_to_db(1.0)).abs() < 1e-6);
        assert!((amplitude_to_db(10.0) - 20.0).abs() < 1e-5);
        assert!(amplitude_to_db(0.0).is_finite());
    }
}

//! Deterministic seeded Poisson arrival-process sampler.
//!
//! The scenario benchmark harness (`crates/bench`) offers *open-loop* load:
//! requests are sent at pre-scheduled instants regardless of how fast the
//! server responds, which is what exposes queueing collapse — a closed loop
//! self-throttles and hides it. The canonical open-loop model is a Poisson
//! process: independent exponentially-distributed inter-arrival gaps with
//! mean `1/rate`.
//!
//! [`PoissonArrivals`] draws those gaps from the workspace's vendored
//! seeded PRNG, so a load agent's schedule is a pure function of
//! `(rate, seed)`: re-running a scenario replays the identical offered
//! load, and distinct agents get independent schedules by seed offset. The
//! property tests in `tests/proptest_runtime.rs` pin determinism and the
//! `1/rate` mean.
//!
//! # Example
//!
//! ```
//! use runtime::poisson::PoissonArrivals;
//!
//! let mut arrivals = PoissonArrivals::new(1000.0, 42).unwrap(); // 1 kHz offered load
//! let first = arrivals.next_gap();
//! assert!(first > std::time::Duration::ZERO);
//! // Same (rate, seed) ⇒ same schedule.
//! assert_eq!(PoissonArrivals::new(1000.0, 42).unwrap().next_gap(), first);
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Upper bound on one sampled gap, in seconds. The exponential tail is
/// unbounded; a pathological draw must not stall a bench agent for minutes,
/// and truncating at 10⁴ mean gaps changes the observable mean by far less
/// than the property-test tolerance.
const MAX_GAP_MEANS: f64 = 1.0e4;

/// A seeded Poisson arrival process: an infinite stream of exponential
/// inter-arrival gaps with mean `1/rate_hz`.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: StdRng,
    mean_gap_s: f64,
}

impl PoissonArrivals {
    /// Creates a sampler for `rate_hz` arrivals per second. Fails when the
    /// rate is not a finite positive number.
    pub fn new(rate_hz: f64, seed: u64) -> Result<Self, String> {
        if !rate_hz.is_finite() || rate_hz <= 0.0 {
            return Err(format!("Poisson arrival rate must be finite and positive, got {rate_hz}"));
        }
        Ok(Self { rng: StdRng::seed_from_u64(seed), mean_gap_s: 1.0 / rate_hz })
    }

    /// Draws the next inter-arrival gap (always positive and finite).
    pub fn next_gap(&mut self) -> Duration {
        // Inverse-CDF sampling: gap = -ln(1 - U) / rate with U ∈ [0, 1).
        // `1 - U` is in (0, 1], so the log is finite and ≤ 0.
        let u: f64 = self.rng.gen();
        let gaps = (-(1.0 - u).ln()).min(MAX_GAP_MEANS);
        // Clamp away exact zero so consecutive arrivals stay ordered.
        Duration::from_secs_f64((gaps * self.mean_gap_s).max(1.0e-9))
    }

    /// The first `n` *absolute* arrival offsets from the schedule start
    /// (cumulative sums of [`PoissonArrivals::next_gap`]), in order.
    pub fn schedule(&mut self, n: usize) -> Vec<Duration> {
        let mut at = Duration::ZERO;
        (0..n)
            .map(|_| {
                at += self.next_gap();
                at
            })
            .collect()
    }
}

impl Iterator for PoissonArrivals {
    type Item = Duration;

    /// Yields inter-arrival gaps forever.
    fn next(&mut self) -> Option<Duration> {
        Some(self.next_gap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_rates() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(PoissonArrivals::new(rate, 1).is_err(), "rate {rate} must be rejected");
        }
    }

    #[test]
    fn schedule_is_strictly_increasing() {
        let mut arrivals = PoissonArrivals::new(5000.0, 7).unwrap();
        let schedule = arrivals.schedule(256);
        for pair in schedule.windows(2) {
            assert!(pair[0] < pair[1], "arrival offsets must be strictly ordered");
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a: Vec<Duration> = PoissonArrivals::new(100.0, 1).unwrap().take(32).collect();
        let b: Vec<Duration> = PoissonArrivals::new(100.0, 2).unwrap().take(32).collect();
        assert_ne!(a, b);
    }
}

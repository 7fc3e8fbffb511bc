//! Learning-rate schedules.
//!
//! The paper uses a polynomial decay from 1e-4 to 1e-6 with cyclic restarts;
//! [`PolynomialDecay`] reproduces that behaviour.

use serde::{Deserialize, Serialize};

/// Learning-rate schedule interface.
pub trait LrSchedule {
    /// Learning rate to use at optimisation step `step` (0-based).
    fn learning_rate(&self, step: u64) -> f32;
}

/// Polynomial decay `lr(t) = (lr0 − lr_end)·(1 − t/T)^p + lr_end`, optionally cyclic
/// (the decay restarts every `T` steps).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolynomialDecay {
    /// Initial learning rate.
    pub initial_lr: f32,
    /// Final learning rate reached at the end of each cycle.
    pub final_lr: f32,
    /// Number of steps per decay cycle.
    pub decay_steps: u64,
    /// Polynomial power (1.0 = linear decay).
    pub power: f32,
    /// Whether the schedule restarts after each cycle (the paper's "cyclic changes").
    pub cyclic: bool,
}

impl PolynomialDecay {
    /// The paper's schedule: 1e-4 → 1e-6 over 1000 epochs, linear, cyclic.
    pub fn paper() -> Self {
        Self { initial_lr: 1e-4, final_lr: 1e-6, decay_steps: 1000, power: 1.0, cyclic: true }
    }

    /// A compressed schedule for the reduced training runs used in tests/examples.
    pub fn compressed(steps: u64) -> Self {
        Self { decay_steps: steps.max(1), ..Self::paper() }
    }
}

impl LrSchedule for PolynomialDecay {
    fn learning_rate(&self, step: u64) -> f32 {
        let steps = self.decay_steps.max(1);
        let effective = if self.cyclic { step % steps } else { step.min(steps) };
        let progress = effective as f32 / steps as f32;
        (self.initial_lr - self.final_lr) * (1.0 - progress).powf(self.power) + self.final_lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedule_endpoints() {
        let s = PolynomialDecay::paper();
        assert!((s.learning_rate(0) - 1e-4).abs() < 1e-9);
        // Just before the cycle end it is close to the final LR.
        assert!(s.learning_rate(999) < 1.1e-6 + (1e-4 - 1e-6) * 0.002);
    }

    #[test]
    fn decay_is_monotone_within_a_cycle() {
        let s = PolynomialDecay::paper();
        let mut prev = f32::INFINITY;
        for step in 0..1000 {
            let lr = s.learning_rate(step);
            assert!(lr <= prev + 1e-12);
            assert!(lr >= 1e-6 - 1e-9);
            prev = lr;
        }
    }

    #[test]
    fn cyclic_schedule_restarts() {
        let s = PolynomialDecay::paper();
        assert!((s.learning_rate(1000) - 1e-4).abs() < 1e-9);
        assert!((s.learning_rate(2500) - s.learning_rate(500)).abs() < 1e-10);
    }

    #[test]
    fn non_cyclic_schedule_clamps_at_final_lr() {
        let s = PolynomialDecay { cyclic: false, ..PolynomialDecay::paper() };
        assert!((s.learning_rate(5000) - 1e-6).abs() < 1e-9);
    }

    #[test]
    fn quadratic_power_decays_faster_initially() {
        let linear = PolynomialDecay { power: 1.0, ..PolynomialDecay::paper() };
        let quadratic = PolynomialDecay { power: 2.0, ..PolynomialDecay::paper() };
        assert!(quadratic.learning_rate(500) < linear.learning_rate(500));
    }

    #[test]
    fn compressed_schedule_shrinks_cycle() {
        let s = PolynomialDecay::compressed(10);
        assert!((s.learning_rate(0) - 1e-4).abs() < 1e-9);
        assert!(s.learning_rate(9) < 2e-5);
    }
}

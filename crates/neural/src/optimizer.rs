//! The Adam optimizer.
//!
//! The paper optimises with Adam under a polynomial-decay learning-rate schedule;
//! [`Adam`] follows the standard bias-corrected update.

use crate::layer::Param;

/// Adam optimizer with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    step_count: u64,
    first_moment: Vec<Vec<f32>>,
    second_moment: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the paper's defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    ///
    /// # Panics
    ///
    /// Panics when the learning rate is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "Adam: learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step_count: 0,
            first_moment: Vec::new(),
            second_moment: Vec::new(),
        }
    }

    /// Applies one update step to the given parameters using their accumulated
    /// gradients, then zeroes the gradients.
    pub fn step(&mut self, params: Vec<&mut Param>) {
        if self.first_moment.len() != params.len() {
            self.first_moment = params.iter().map(|p| vec![0.0; p.numel()]).collect();
            self.second_moment = params.iter().map(|p| vec![0.0; p.numel()]).collect();
            self.step_count = 0;
        }
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (idx, param) in params.into_iter().enumerate() {
            let m = &mut self.first_moment[idx];
            let v = &mut self.second_moment[idx];
            debug_assert_eq!(param.numel(), m.len());
            let grads = param.grad.as_slice().to_vec();
            for (i, value) in param.value.as_mut_slice().iter_mut().enumerate() {
                let g = grads[i];
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
                let m_hat = m[i] / bias1;
                let v_hat = v[i] / bias2;
                *value -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
            }
            param.zero_grad();
        }
    }

    /// Sets the learning rate (used by the schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn quadratic_param(start: f32) -> Param {
        Param::new(Tensor::from_vec(vec![start], &[1]).unwrap())
    }

    fn minimize(optimizer: &mut Adam, start: f32, steps: usize) -> f32 {
        // Minimize f(x) = (x - 3)^2; grad = 2 (x - 3).
        let mut p = quadratic_param(start);
        for _ in 0..steps {
            let x = p.value.as_slice()[0];
            p.grad = Tensor::from_vec(vec![2.0 * (x - 3.0)], &[1]).unwrap();
            optimizer.step(vec![&mut p]);
        }
        p.value.as_slice()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.2);
        let x = minimize(&mut adam, 10.0, 400);
        assert!((x - 3.0).abs() < 1e-2, "x {x}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut adam = Adam::new(0.01);
        let mut p = quadratic_param(1.0);
        p.grad = Tensor::from_vec(vec![5.0], &[1]).unwrap();
        adam.step(vec![&mut p]);
        assert_eq!(p.grad.as_slice()[0], 0.0);
    }

    #[test]
    fn learning_rate_can_be_scheduled() {
        let mut adam = Adam::new(1e-4);
        assert!((adam.learning_rate() - 1e-4).abs() < 1e-12);
        adam.set_learning_rate(1e-6);
        assert!((adam.learning_rate() - 1e-6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn invalid_lr_panics() {
        let _ = Adam::new(0.0);
    }
}

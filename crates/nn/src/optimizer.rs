//! First-order optimizers operating on flattened parameter vectors.

use crate::mlp::Mlp;

/// An optimizer that turns a flat gradient into a flat parameter update.
pub trait Optimizer {
    /// Computes the update for `grad` and applies it to `net`
    /// (minimization: steps **against** the gradient).
    fn step(&mut self, net: &mut Mlp, grad: &[f64]);
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient (0 disables).
    pub momentum: f64,
    velocity: Vec<f64>,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Sgd { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// Creates SGD with momentum.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        Sgd { lr, momentum, velocity: Vec::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, net: &mut Mlp, grad: &[f64]) {
        if self.velocity.len() != grad.len() {
            self.velocity = vec![0.0; grad.len()];
        }
        let params = net.params_mut();
        assert_eq!(grad.len(), params.len(), "parameter count mismatch");
        for ((v, g), w) in self.velocity.iter_mut().zip(grad).zip(params) {
            *v = self.momentum * *v - self.lr * g;
            *w += *v;
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates Adam with standard hyperparameters.
    pub fn new(lr: f64) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: Vec::new(), v: Vec::new(), t: 0 }
    }

    /// Resets the moment estimates (e.g. when the training distribution
    /// shifts after a trust-region restart).
    pub fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }

    /// One in-place pass: moments, bias correction (of `m` only when
    /// `CORRECT_M`), and `θ −= lr·m̂ / (√v̂ + ε)`.
    #[inline(always)]
    fn update<const CORRECT_M: bool>(
        &mut self,
        params: &mut [f64],
        grad: &[f64],
        b1t: f64,
        b2t: f64,
    ) {
        let (beta1, beta2, eps) = (self.beta1, self.beta2, self.eps);
        let (c1, c2, neg_lr) = (1.0 - beta1, 1.0 - beta2, -self.lr);
        for (((m, v), g), w) in self.m.iter_mut().zip(&mut self.v).zip(grad).zip(params) {
            *m = beta1 * *m + c1 * g;
            *v = beta2 * *v + c2 * g * g;
            let mhat = if CORRECT_M { *m / b1t } else { *m };
            *w += neg_lr * mhat / ((*v / b2t).sqrt() + eps);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Mlp, grad: &[f64]) {
        if self.m.len() != grad.len() {
            self.m = vec![0.0; grad.len()];
            self.v = vec![0.0; grad.len()];
            self.t = 0;
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let params = net.params_mut();
        assert_eq!(grad.len(), params.len(), "parameter count mismatch");
        // Once `β₁^t` drops below half an ulp of 1 (~355 steps after a
        // reset), the first-moment correction divides by exactly 1.0,
        // which changes nothing: skip that division.
        if b1t == 1.0 {
            self.update::<false>(params, grad, b1t, b2t);
        } else {
            self.update::<true>(params, grad, b1t, b2t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::{mse, mse_output_grad};
    use asdex_rng::rngs::StdRng;
    use asdex_rng::{Rng, SeedableRng};

    fn train<O: Optimizer>(opt: &mut O, epochs: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Mlp::new(&[1, 12, 1], Activation::Tanh, &mut rng);
        for _ in 0..epochs {
            let x = rng.gen_range(-1.0..1.0);
            let target = [x * x];
            let trace = net.forward_trace(&[x]);
            let g = net.backward(&trace, &mse_output_grad(trace.output(), &target));
            opt.step(&mut net, g.flat());
        }
        let mut loss = 0.0;
        for k in 0..20 {
            let x = -1.0 + 2.0 * k as f64 / 19.0;
            loss += mse(&net.forward(&[x]), &[x * x]);
        }
        loss / 20.0
    }

    /// Adam as a separate update vector applied by `apply_flat_delta`:
    /// the reference the in-place pass must match bit for bit.
    fn reference_adam(adam: &mut Adam, net: &mut Mlp, grad: &[f64]) {
        if adam.m.len() != grad.len() {
            adam.m = vec![0.0; grad.len()];
            adam.v = vec![0.0; grad.len()];
            adam.t = 0;
        }
        adam.t += 1;
        let b1t = 1.0 - adam.beta1.powi(adam.t as i32);
        let b2t = 1.0 - adam.beta2.powi(adam.t as i32);
        let mut update = vec![0.0; grad.len()];
        for i in 0..grad.len() {
            adam.m[i] = adam.beta1 * adam.m[i] + (1.0 - adam.beta1) * grad[i];
            adam.v[i] = adam.beta2 * adam.v[i] + (1.0 - adam.beta2) * grad[i] * grad[i];
            let mhat = adam.m[i] / b1t;
            let vhat = adam.v[i] / b2t;
            update[i] = -adam.lr * mhat / (vhat.sqrt() + adam.eps);
        }
        net.apply_flat_delta(&update, 1.0);
    }

    /// Momentum SGD the same way.
    fn reference_sgd(sgd: &mut Sgd, net: &mut Mlp, grad: &[f64]) {
        if sgd.velocity.len() != grad.len() {
            sgd.velocity = vec![0.0; grad.len()];
        }
        let mut update = vec![0.0; grad.len()];
        for ((v, g), u) in sgd.velocity.iter_mut().zip(grad).zip(&mut update) {
            *v = sgd.momentum * *v - sgd.lr * g;
            *u = *v;
        }
        net.apply_flat_delta(&update, 1.0);
    }

    #[test]
    fn in_place_updates_match_the_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(3);
        let net0 = Mlp::new(&[3, 11, 2], Activation::Tanh, &mut rng);
        let (mut ours, mut theirs) = (net0.clone(), net0.clone());
        let (mut adam, mut adam_ref) = (Adam::new(0.01), Adam::new(0.01));
        let (mut sgd, mut sgd_ref) = (Sgd::with_momentum(0.02, 0.9), Sgd::with_momentum(0.02, 0.9));
        let mut crossed = false;
        for step in 0..1000 {
            let g: Vec<f64> = (0..net0.param_count())
                .map(|k| match (k + step) % 11 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => 1e-300,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect();
            if step == 500 {
                adam.reset();
                adam_ref.reset();
            }
            adam.step(&mut ours, &g);
            reference_adam(&mut adam_ref, &mut theirs, &g);
            crossed |= 1.0 - adam.beta1.powi(adam.t as i32) == 1.0;
            sgd.step(&mut ours, &g);
            reference_sgd(&mut sgd_ref, &mut theirs, &g);
            let bits = |n: &Mlp| n.flat_params().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ours), bits(&theirs), "step {step}");
        }
        assert!(crossed, "the first-moment correction reached exactly 1");
    }

    #[test]
    fn sgd_reduces_loss() {
        let loss = train(&mut Sgd::new(0.05), 3000);
        assert!(loss < 0.01, "sgd final loss {loss}");
    }

    #[test]
    fn momentum_helps_or_matches() {
        let plain = train(&mut Sgd::new(0.02), 1500);
        let mom = train(&mut Sgd::with_momentum(0.02, 0.9), 1500);
        assert!(mom < plain * 2.0, "momentum not catastrophically worse");
        assert!(mom < 0.02);
    }

    #[test]
    fn adam_converges_fast() {
        let loss = train(&mut Adam::new(0.01), 2500);
        assert!(loss < 0.005, "adam final loss {loss}");
    }

    #[test]
    fn adam_reset_clears_state() {
        let mut adam = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Mlp::new(&[1, 2, 1], Activation::Tanh, &mut rng);
        let t = net.forward_trace(&[0.5]);
        let g = net.backward(&t, &[1.0]);
        adam.step(&mut net, g.flat());
        assert!(adam.t == 1);
        adam.reset();
        assert!(adam.t == 0);
    }
}

//! Trust Region Policy Optimization baseline.
//!
//! Natural-gradient policy steps under a KL constraint: the search
//! direction solves `F s = g` by conjugate gradient with Fisher-vector
//! products computed as finite differences of the KL gradient, and a
//! backtracking line search enforces both surrogate improvement and the
//! KL trust region. This is the same *optimization-side* trust region the
//! paper's title contrasts with its *design-space* trust region.

use crate::rl::policy::{Policy, ValueNet};
use crate::rl::{
    discounted_returns, normalize, sum_gradients, train, RlSentinel, Rollout, UpdateRule,
};
use asdex_env::{SearchBudget, SearchOutcome, Searcher, SizingProblem};
use asdex_nn::{Adam, Optimizer};
use asdex_rng::rngs::StdRng;

/// TRPO hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrpoConfig {
    /// Steps collected per batch.
    pub batch: usize,
    /// Discount factor.
    pub gamma: f64,
    /// KL trust-region radius δ.
    pub max_kl: f64,
    /// Conjugate-gradient iterations.
    pub cg_iters: usize,
    /// CG damping added to the FVP.
    pub damping: f64,
    /// Line-search backtracks.
    pub backtracks: usize,
    /// Value learning rate.
    pub value_lr: f64,
    /// Hidden width.
    pub hidden: usize,
    /// Episode horizon.
    pub horizon: usize,
}

impl Default for TrpoConfig {
    fn default() -> Self {
        TrpoConfig {
            batch: 128,
            gamma: 0.95,
            max_kl: 0.01,
            cg_iters: 10,
            damping: 0.1,
            backtracks: 10,
            value_lr: 1e-3,
            hidden: 64,
            horizon: 30,
        }
    }
}

/// The TRPO agent.
#[derive(Debug, Clone, Default)]
pub struct Trpo {
    /// Hyperparameters.
    pub config: TrpoConfig,
}

impl Trpo {
    /// Creates the agent with default hyperparameters.
    pub fn new() -> Self {
        Self::default()
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl Searcher for Trpo {
    fn name(&self) -> &str {
        "trpo"
    }

    fn search(&mut self, problem: &SizingProblem, budget: SearchBudget, seed: u64) -> SearchOutcome {
        let c = self.config;
        let mut rule = TrpoUpdate { c, value_opt: Adam::new(c.value_lr) };
        train(problem, budget, seed, c.hidden, c.horizon, c.batch, &mut rule)
    }
}

/// TRPO's update: a KL-constrained natural-gradient policy step, then
/// value regression on the discounted returns.
struct TrpoUpdate {
    c: TrpoConfig,
    value_opt: Adam,
}

impl UpdateRule for TrpoUpdate {
    fn update(
        &mut self,
        policy: &mut Policy,
        value: &mut ValueNet,
        rollout: &Rollout,
        sentinel: &mut RlSentinel,
        _rng: &mut StdRng,
    ) {
        let cfg = self.c;
        let (observations, samples) = (&rollout.observations, &rollout.samples);

        // --- Advantages (discounted returns − baseline). ----------------
        let returns = discounted_returns(rollout, value, cfg.gamma);
        let mut advantages: Vec<f64> =
            returns.iter().zip(observations).map(|(ret, o)| ret - value.value(o)).collect();
        normalize(&mut advantages);

        // --- Policy gradient g of the surrogate. ------------------------
        // Surrogate L(θ) = E[ratio·adv]; at θ_old its gradient equals
        // E[∇logπ·adv]. `policy_gradient` returns −∇logπ·adv, so negate.
        let batch = observations.len();
        let mut g = sum_gradients(batch, |t| {
            policy.policy_gradient(&observations[t], &samples[t].actions, advantages[t], 0.0)
        });
        g.scale(-1.0 / batch as f64);
        let mut g = g.flat().to_vec();
        // A non-finite policy gradient poisons CG, the FVP, and the line
        // search all at once — skip the policy update entirely (the value
        // net and the next batch still proceed).
        let g_ok = sentinel.admit(&mut g);

        // --- Fisher-vector product via KL-gradient finite differences. --
        let theta0 = policy.flat_params();
        let mean_kl_grad = |p: &mut Policy| -> Vec<f64> {
            let mut acc =
                sum_gradients(batch, |t| p.kl_gradient(&observations[t], &samples[t].logits));
            acc.scale(1.0 / batch as f64);
            acc.flat().to_vec()
        };
        let eps = 1e-5;
        let fvp = |v: &[f64], p: &mut Policy| -> Vec<f64> {
            // ∇KL(θ0) = 0, so F·v ≈ ∇KL(θ0 + εv)/ε (+ damping).
            let theta: Vec<f64> = theta0.iter().zip(v).map(|(t, vi)| t + eps * vi).collect();
            p.set_flat_params(&theta);
            let grad = mean_kl_grad(p);
            p.set_flat_params(&theta0);
            grad.iter().zip(v).map(|(gk, vk)| gk / eps + cfg.damping * vk).collect()
        };

        if g_ok {
            // --- Conjugate gradient: solve F s = g. ---------------------
            let n = g.len();
            let mut s = vec![0.0; n];
            let mut r = g.clone();
            let mut p_dir = g.clone();
            let mut rr = dot(&r, &r);
            for _ in 0..cfg.cg_iters {
                if rr < 1e-12 {
                    break;
                }
                let fp = fvp(&p_dir, policy);
                let alpha = rr / dot(&p_dir, &fp).max(1e-12);
                for i in 0..n {
                    s[i] += alpha * p_dir[i];
                    r[i] -= alpha * fp[i];
                }
                let rr_new = dot(&r, &r);
                let beta = rr_new / rr;
                for i in 0..n {
                    p_dir[i] = r[i] + beta * p_dir[i];
                }
                rr = rr_new;
            }

            // --- Step size from the KL constraint + line search. --------
            let fs = fvp(&s, policy);
            let shs = dot(&s, &fs).max(1e-12);
            let step_scale = (2.0 * cfg.max_kl / shs).sqrt();
            if s.iter().all(|v| v.is_finite()) && shs.is_finite() && step_scale.is_finite() {
                let surrogate = |p: &Policy| -> f64 {
                    let mut total = 0.0;
                    for t in 0..observations.len() {
                        let new_lp = p.log_prob(&observations[t], &samples[t].actions);
                        total += (new_lp - samples[t].log_prob).exp() * advantages[t];
                    }
                    total / observations.len() as f64
                };
                let mean_kl = |p: &Policy| -> f64 {
                    observations
                        .iter()
                        .zip(samples)
                        .map(|(o, s)| p.kl_from(o, &s.logits))
                        .sum::<f64>()
                        / observations.len() as f64
                };
                let base_surrogate = surrogate(policy);
                let mut accepted = false;
                let mut frac = 1.0;
                for _ in 0..cfg.backtracks {
                    let theta: Vec<f64> =
                        theta0.iter().zip(&s).map(|(t, si)| t + frac * step_scale * si).collect();
                    policy.set_flat_params(&theta);
                    if surrogate(policy) > base_surrogate && mean_kl(policy) <= cfg.max_kl * 1.5 {
                        accepted = true;
                        break;
                    }
                    frac *= 0.5;
                }
                if !accepted {
                    policy.set_flat_params(&theta0);
                }
            } else {
                // The CG direction or KL step scale went non-finite:
                // abandon the natural-gradient step and keep θ₀.
                sentinel.flag_nonfinite();
                policy.set_flat_params(&theta0);
            }
        }

        // --- Value-net regression. --------------------------------------
        for t in 0..observations.len() {
            let mut vg = value.td_gradient(&observations[t], returns[t]);
            if sentinel.admit(vg.flat_mut()) {
                self.value_opt.step(value.net_mut(), vg.flat());
            }
        }
    }

    fn reset(&mut self) {
        self.value_opt.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdex_env::circuits::synthetic::Bowl;

    #[test]
    fn finds_easy_target() {
        let problem = Bowl::problem(2, 0.35).unwrap();
        let mut agent = Trpo::new();
        let out = agent.search(&problem, SearchBudget::new(5000), 4);
        assert!(out.success, "best {}", out.best_value);
    }

    #[test]
    fn budget_respected() {
        let problem = Bowl::problem(3, 0.0001).unwrap();
        let mut agent = Trpo::new();
        let out = agent.search(&problem, SearchBudget::new(270), 1);
        assert!(!out.success);
        assert_eq!(out.simulations, 270);
    }

    #[test]
    fn deterministic() {
        let problem = Bowl::problem(2, 0.2).unwrap();
        let mut agent = Trpo::new();
        let a = agent.search(&problem, SearchBudget::new(300), 6);
        let b = agent.search(&problem, SearchBudget::new(300), 6);
        assert_eq!(a.simulations, b.simulations);
    }
}

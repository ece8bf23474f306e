//! Proximal Policy Optimization (clipped surrogate) baseline.
//!
//! Batch collection with GAE(λ) advantages, several epochs of clipped
//! surrogate updates per batch, entropy regularization — the
//! Stable-Baselines-style PPO the paper benchmarks in Table I.

use crate::rl::policy::{Policy, ValueNet, MOVES};
use crate::rl::{normalize, train, RlSentinel, Rollout, UpdateRule};
use asdex_env::{SearchBudget, SearchOutcome, Searcher, SizingProblem};
use asdex_nn::{log_prob_grad, Adam, Optimizer};
use asdex_rng::rngs::StdRng;
use asdex_rng::seq::SliceRandom;

/// PPO hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpoConfig {
    /// Steps collected per batch.
    pub batch: usize,
    /// Optimization epochs over each batch.
    pub epochs: usize,
    /// Clip range ε.
    pub clip: f64,
    /// Discount factor.
    pub gamma: f64,
    /// GAE λ.
    pub lam: f64,
    /// Entropy bonus coefficient.
    pub ent_coef: f64,
    /// Policy learning rate.
    pub lr: f64,
    /// Value learning rate.
    pub value_lr: f64,
    /// Hidden width.
    pub hidden: usize,
    /// Episode horizon.
    pub horizon: usize,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            batch: 128,
            epochs: 4,
            clip: 0.2,
            gamma: 0.95,
            lam: 0.9,
            ent_coef: 0.01,
            lr: 3e-4,
            value_lr: 1e-3,
            hidden: 64,
            horizon: 30,
        }
    }
}

/// The PPO agent.
#[derive(Debug, Clone, Default)]
pub struct Ppo {
    /// Hyperparameters.
    pub config: PpoConfig,
}

impl Ppo {
    /// Creates the agent with default hyperparameters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Searcher for Ppo {
    fn name(&self) -> &str {
        "ppo"
    }

    fn search(&mut self, problem: &SizingProblem, budget: SearchBudget, seed: u64) -> SearchOutcome {
        let c = self.config;
        let mut rule =
            PpoUpdate { c, policy_opt: Adam::new(c.lr), value_opt: Adam::new(c.value_lr) };
        train(problem, budget, seed, c.hidden, c.horizon, c.batch, &mut rule)
    }
}

/// PPO's update: GAE(λ) advantages, then epochs of clipped-surrogate and
/// value steps over the batch in shuffled order.
struct PpoUpdate {
    c: PpoConfig,
    policy_opt: Adam,
    value_opt: Adam,
}

impl UpdateRule for PpoUpdate {
    // Several epochs can carry the policy far from the one that collected
    // the batch.
    const BOUNDS_KL: bool = true;

    fn update(
        &mut self,
        policy: &mut Policy,
        value: &mut ValueNet,
        r: &Rollout,
        sentinel: &mut RlSentinel,
        rng: &mut StdRng,
    ) {
        let PpoConfig { gamma, lam, clip, ent_coef, epochs, .. } = self.c;
        let n = r.observations.len();

        // --- GAE(λ). ----------------------------------------------------
        let v_est: Vec<f64> = r.observations.iter().map(|o| value.value(o)).collect();
        let mut advantages = vec![0.0; n];
        let mut returns = vec![0.0; n];
        let mut gae = 0.0;
        let mut next_value = if r.dones[n - 1] { 0.0 } else { value.value(&r.last_obs) };
        for t in (0..n).rev() {
            if r.dones[t] {
                next_value = 0.0;
                gae = 0.0;
            }
            let delta = r.rewards[t] + gamma * next_value - v_est[t];
            gae = delta + gamma * lam * gae;
            next_value = v_est[t];
            advantages[t] = gae;
            returns[t] = gae + v_est[t];
        }
        normalize(&mut advantages);

        // --- Clipped-surrogate epochs. ----------------------------------
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..epochs {
            order.shuffle(rng);
            for &i in &order {
                let n_heads = policy.n_heads();
                let (adv, old_lp) = (advantages[i], r.samples[i].log_prob);
                let actions = &r.samples[i].actions;
                let mut g = policy.grad_with(&r.observations[i], |logits| {
                    let new_lp = Policy::log_prob_of(logits, actions);
                    let ratio = (new_lp - old_lp).exp();
                    let clipped = ratio < 1.0 - clip || ratio > 1.0 + clip;
                    // Surrogate L = min(ratio·adv, clip(ratio)·adv);
                    // gradient flows only through the unclipped branch
                    // when it is the active minimum.
                    let pass_through = if adv >= 0.0 {
                        !(clipped && ratio > 1.0 + clip)
                    } else {
                        !(clipped && ratio < 1.0 - clip)
                    };
                    let mut d = vec![0.0; logits.len()];
                    for (h, &a) in actions.iter().enumerate().take(n_heads) {
                        let head = &logits[h * MOVES..(h + 1) * MOVES];
                        let lp_grad = log_prob_grad(head, a);
                        let ent = asdex_nn::entropy_grad(head);
                        for k in 0..MOVES {
                            let surrogate =
                                if pass_through { -adv * ratio * lp_grad[k] } else { 0.0 };
                            d[h * MOVES + k] = surrogate - ent_coef * ent[k] / n_heads as f64;
                        }
                    }
                    d
                });
                if sentinel.admit(g.flat_mut()) {
                    self.policy_opt.step(policy.net_mut(), g.flat());
                }
                let mut vg = value.td_gradient(&r.observations[i], returns[i]);
                if sentinel.admit(vg.flat_mut()) {
                    self.value_opt.step(value.net_mut(), vg.flat());
                }
            }
        }
    }

    fn reset(&mut self) {
        self.policy_opt.reset();
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
        let mut agent = Ppo::new();
        let out = agent.search(&problem, SearchBudget::new(5000), 2);
        assert!(out.success, "best {}", out.best_value);
    }

    #[test]
    fn budget_respected() {
        let problem = Bowl::problem(3, 0.0001).unwrap();
        let mut agent = Ppo::new();
        let out = agent.search(&problem, SearchBudget::new(260), 1);
        assert!(!out.success);
        assert_eq!(out.simulations, 260);
    }

    #[test]
    fn deterministic() {
        let problem = Bowl::problem(2, 0.2).unwrap();
        let mut agent = Ppo::new();
        let a = agent.search(&problem, SearchBudget::new(300), 5);
        let b = agent.search(&problem, SearchBudget::new(300), 5);
        assert_eq!(a.simulations, b.simulations);
    }
}

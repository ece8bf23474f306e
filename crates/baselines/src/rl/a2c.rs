//! Synchronous Advantage Actor-Critic (A2C) baseline.
//!
//! N-step advantage estimates with a learned state-value baseline, entropy
//! regularization, and Adam updates — a faithful small-scale port of the
//! Stable-Baselines agent the paper benchmarks in Table I.

use crate::rl::policy::{Policy, ValueNet};
use crate::rl::{discounted_returns, sum_gradients, train, RlSentinel, Rollout, UpdateRule};
use asdex_env::{SearchBudget, SearchOutcome, Searcher, SizingProblem};
use asdex_nn::{Adam, Optimizer};
use asdex_rng::rngs::StdRng;

/// A2C hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct A2cConfig {
    /// Rollout length between updates.
    pub n_steps: usize,
    /// Discount factor.
    pub gamma: f64,
    /// Entropy bonus coefficient.
    pub ent_coef: f64,
    /// Policy learning rate.
    pub lr: f64,
    /// Value-net learning rate.
    pub value_lr: f64,
    /// Hidden width of both networks.
    pub hidden: usize,
    /// Episode horizon.
    pub horizon: usize,
}

impl Default for A2cConfig {
    fn default() -> Self {
        A2cConfig {
            n_steps: 8,
            gamma: 0.95,
            ent_coef: 0.01,
            lr: 7e-4,
            value_lr: 1e-3,
            hidden: 64,
            horizon: 30,
        }
    }
}

/// The A2C agent.
#[derive(Debug, Clone, Default)]
pub struct A2c {
    /// Hyperparameters.
    pub config: A2cConfig,
}

impl A2c {
    /// Creates the agent with default hyperparameters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Searcher for A2c {
    fn name(&self) -> &str {
        "a2c"
    }

    fn search(&mut self, problem: &SizingProblem, budget: SearchBudget, seed: u64) -> SearchOutcome {
        let c = self.config;
        let mut rule =
            A2cUpdate { c, policy_opt: Adam::new(c.lr), value_opt: Adam::new(c.value_lr) };
        train(problem, budget, seed, c.hidden, c.horizon, c.n_steps, &mut rule)
    }
}

/// A2C's update: one actor-critic step on the gradients averaged over
/// the rollout, with bootstrapped n-step returns as critic targets.
struct A2cUpdate {
    c: A2cConfig,
    policy_opt: Adam,
    value_opt: Adam,
}

impl UpdateRule for A2cUpdate {
    fn update(
        &mut self,
        policy: &mut Policy,
        value: &mut ValueNet,
        r: &Rollout,
        sentinel: &mut RlSentinel,
        _rng: &mut StdRng,
    ) {
        let returns = discounted_returns(r, value, self.c.gamma);
        let (n, obs) = (r.observations.len(), &r.observations);
        let mut g = sum_gradients(n, |t| {
            let adv = returns[t] - value.value(&obs[t]);
            policy.policy_gradient(&obs[t], &r.samples[t].actions, adv, self.c.ent_coef)
        });
        g.scale(1.0 / n as f64);
        if sentinel.admit(g.flat_mut()) {
            self.policy_opt.step(policy.net_mut(), g.flat());
        }
        let mut g = sum_gradients(n, |t| value.td_gradient(&obs[t], returns[t]));
        g.scale(1.0 / n as f64);
        if sentinel.admit(g.flat_mut()) {
            self.value_opt.step(value.net_mut(), g.flat());
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
        let mut agent = A2c::new();
        let out = agent.search(&problem, SearchBudget::new(5000), 3);
        assert!(out.success, "best {}", out.best_value);
    }

    #[test]
    fn budget_respected() {
        let problem = Bowl::problem(3, 0.0001).unwrap();
        let mut agent = A2c::new();
        let out = agent.search(&problem, SearchBudget::new(300), 1);
        assert!(!out.success);
        assert_eq!(out.simulations, 300);
    }

    #[test]
    fn deterministic() {
        let problem = Bowl::problem(2, 0.2).unwrap();
        let mut agent = A2c::new();
        let a = agent.search(&problem, SearchBudget::new(400), 7);
        let b = agent.search(&problem, SearchBudget::new(400), 7);
        assert_eq!(a.simulations, b.simulations);
        assert_eq!(a.success, b.success);
    }
}

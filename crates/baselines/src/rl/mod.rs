//! Model-free reinforcement-learning baselines (A2C, PPO, TRPO) in the
//! AutoCkt mold, as benchmarked in the paper's Table I.
//!
//! The three agents share one training loop, `train`: it owns the
//! environment, the networks, rollout collection, the sentinel's health
//! check and rollback, and the greedy success check. Each agent supplies
//! only its `UpdateRule`: how a rollout updates the networks, and how its
//! optimizers forget their moments after a rollback.

mod a2c;
mod env;
mod policy;
mod ppo;
mod trpo;

use asdex_env::{HealthStats, SearchBudget, SearchOutcome, SizingProblem};
use asdex_nn::{GradGuard, Gradients, GuardOutcome};
use asdex_rng::rngs::StdRng;
use asdex_rng::{Rng, SeedableRng};

/// Mean per-head entropy (nats) below which a policy is declared
/// collapsed — a fresh 3-way head starts near ln 3 ≈ 1.1.
pub(crate) const ENTROPY_FLOOR: f64 = 1e-3;

/// Mean KL between consecutive policies above which an update is declared
/// a blow-up and rolled back.
pub(crate) const KL_CEILING: f64 = 2.0;

/// Self-healing sentinel shared by the model-free agents: global-norm
/// gradient clipping, non-finite update rejection, and last-good
/// policy/value snapshots to roll back to when the policy collapses
/// (entropy under [`ENTROPY_FLOOR`]) or blows up (KL over [`KL_CEILING`]).
/// Pure function of the gradients and network outputs — no rng, no
/// wall-clock — so it preserves the determinism contracts.
pub(crate) struct RlSentinel {
    guard: GradGuard,
    stats: HealthStats,
    last_good: Option<(Vec<f64>, Vec<f64>)>,
}

impl RlSentinel {
    pub(crate) fn new() -> Self {
        RlSentinel { guard: GradGuard::default(), stats: HealthStats::new(), last_good: None }
    }

    /// Clips a flat gradient in place. Returns `false` when the gradient
    /// is non-finite and the optimizer step must be skipped.
    pub(crate) fn admit(&mut self, grad: &mut [f64]) -> bool {
        match self.guard.apply(grad) {
            GuardOutcome::Ok => true,
            GuardOutcome::Clipped => {
                self.stats.clipped_updates += 1;
                true
            }
            GuardOutcome::NonFinite => {
                self.stats.nonfinite_updates += 1;
                false
            }
        }
    }

    /// Counts a non-finite quantity detected outside the gradient path
    /// (TRPO's CG direction or step scale).
    pub(crate) fn flag_nonfinite(&mut self) {
        self.stats.nonfinite_updates += 1;
    }

    /// Records the current networks as the last-good state.
    pub(crate) fn snapshot(&mut self, policy: &Policy, value: &ValueNet) {
        self.last_good = Some((policy.flat_params(), value.flat_params()));
    }

    /// Post-update health check over a probe batch of observations:
    /// entropy above the collapse floor, and — when the pre-update
    /// samples are supplied — mean KL from their logits below the blow-up
    /// ceiling. Non-finite entropy/KL (NaN weights) also fails, which
    /// keeps `act_greedy`'s finite-logits contract intact.
    pub(crate) fn policy_healthy(
        policy: &Policy,
        observations: &[Vec<f64>],
        old: Option<&[ActionSample]>,
    ) -> bool {
        if observations.is_empty() {
            return true;
        }
        let n = observations.len() as f64;
        let mean_entropy = observations.iter().map(|o| policy.entropy(o)).sum::<f64>() / n;
        if !mean_entropy.is_finite() || mean_entropy < ENTROPY_FLOOR {
            return false;
        }
        if let Some(old) = old {
            let mean_kl = observations
                .iter()
                .zip(old)
                .map(|(o, s)| policy.kl_from(o, &s.logits))
                .sum::<f64>()
                / n;
            if !mean_kl.is_finite() || mean_kl > KL_CEILING {
                return false;
            }
        }
        true
    }

    /// Restores the last-good snapshot, if any. The caller must reset its
    /// optimizer moments afterwards — they were accumulated against the
    /// now-discarded weights. Returns `true` when a rollback happened.
    pub(crate) fn rollback(&mut self, policy: &mut Policy, value: &mut ValueNet) -> bool {
        match &self.last_good {
            Some((p, v)) => {
                policy.set_flat_params(p);
                value.set_flat_params(v);
                self.stats.rollbacks += 1;
                true
            }
            None => false,
        }
    }
}

/// One rollout of the current policy: per step, the observation acted
/// on, the sampled action, the reward and the done flag; then the
/// observation after the last step.
#[derive(Default)]
pub(crate) struct Rollout {
    pub(crate) observations: Vec<Vec<f64>>,
    pub(crate) samples: Vec<ActionSample>,
    pub(crate) rewards: Vec<f64>,
    pub(crate) dones: Vec<bool>,
    pub(crate) last_obs: Vec<f64>,
}

/// What sets A2C, PPO and TRPO apart inside [`train`].
pub(crate) trait UpdateRule {
    /// Whether the post-update health check also bounds the mean KL from
    /// the policy that collected the rollout.
    const BOUNDS_KL: bool = false;

    /// Updates the networks from one nonempty rollout, passing every
    /// gradient through `sentinel`.
    fn update(
        &mut self,
        policy: &mut Policy,
        value: &mut ValueNet,
        rollout: &Rollout,
        sentinel: &mut RlSentinel,
        rng: &mut StdRng,
    );

    /// Resets the optimizer moments after a rollback.
    fn reset(&mut self);
}

/// Consecutive deterministic-episode successes required before a model-free
/// policy counts as "trained" (one lucky rollout is not a deployable
/// policy).
pub(crate) const GREEDY_SUCCESSES_REQUIRED: usize = 3;

/// The training loop of every model-free agent. It builds the
/// environment (episodes of `horizon` steps) and two networks `hidden`
/// wide, then, until the budget is spent: collects a rollout of up to
/// `steps` steps from a fresh episode, lets `rule` update the networks,
/// snapshots a healthy policy or rolls an unhealthy one back, and stops
/// once the greedy policy solves [`GREEDY_SUCCESSES_REQUIRED`] evaluation
/// episodes in a row from independent random starts — the paper's Table I
/// criterion for a *trained* policy.
pub(crate) fn train<U: UpdateRule>(
    problem: &SizingProblem,
    budget: SearchBudget,
    seed: u64,
    hidden: usize,
    horizon: usize,
    steps: usize,
    rule: &mut U,
) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut env = SizingEnv::with_budget(problem, horizon, budget.max_sims);
    let mut policy = Policy::new(env.obs_dim(), env.n_heads(), hidden, &mut rng);
    let mut value = ValueNet::new(env.obs_dim(), hidden, &mut rng);
    let mut sentinel = RlSentinel::new();
    sentinel.snapshot(&policy, &value);

    let mut obs = env.reset(&mut rng);
    let mut solved_at = None;
    while env.sims() < budget.max_sims {
        let mut rollout = Rollout::default();
        for _ in 0..steps {
            if env.sims() >= budget.max_sims {
                break;
            }
            let sample = policy.act(&obs, &mut rng);
            let step = env.step(&sample.actions);
            rollout.observations.push(obs);
            rollout.samples.push(sample);
            rollout.rewards.push(step.reward);
            rollout.dones.push(step.done);
            obs = if step.done { env.reset(&mut rng) } else { step.obs };
        }
        // Only a zero rollout length collects nothing.
        if rollout.observations.is_empty() {
            break;
        }
        rollout.last_obs = obs;
        rule.update(&mut policy, &mut value, &rollout, &mut sentinel, &mut rng);
        let old = U::BOUNDS_KL.then_some(&rollout.samples[..]);
        if RlSentinel::policy_healthy(&policy, &rollout.observations, old) {
            sentinel.snapshot(&policy, &value);
        } else if sentinel.rollback(&mut policy, &mut value) {
            rule.reset();
        }
        if (0..GREEDY_SUCCESSES_REQUIRED)
            .all(|_| greedy_episode(&policy, &mut env, budget, &mut rng))
        {
            solved_at = Some(env.sims());
            break;
        }
        obs = env.reset(&mut rng);
    }

    let (best_value, best_point) = env.best();
    SearchOutcome {
        success: solved_at.is_some(),
        simulations: solved_at.unwrap_or(budget.max_sims),
        best_point: best_point.to_vec(),
        best_value,
        best_measurements: None,
        stats: env.stats().clone(),
        health: sentinel.stats,
    }
}

/// Runs one deterministic (greedy) evaluation episode. Returns `true` on
/// reaching a feasible point; consumes simulator budget like any other
/// episode.
fn greedy_episode<R: Rng + ?Sized>(
    policy: &Policy,
    env: &mut SizingEnv<'_>,
    budget: SearchBudget,
    rng: &mut R,
) -> bool {
    if env.sims() >= budget.max_sims {
        return false;
    }
    let mut obs = env.reset(rng);
    if env.last_feasible() {
        return true;
    }
    for _ in 0..env.max_steps {
        if env.sims() >= budget.max_sims {
            return false;
        }
        let actions = policy.act_greedy(&obs);
        let step = env.step(&actions);
        if step.feasible {
            return true;
        }
        if step.done {
            break;
        }
        obs = step.obs;
    }
    false
}

/// Discounted returns of a rollout, bootstrapped from `V(last_obs)` when
/// it ends mid-episode (A2C and TRPO).
pub(crate) fn discounted_returns(rollout: &Rollout, value: &ValueNet, gamma: f64) -> Vec<f64> {
    let n = rollout.rewards.len();
    let mut ret = if rollout.dones[n - 1] { 0.0 } else { value.value(&rollout.last_obs) };
    let mut returns = vec![0.0; n];
    for t in (0..n).rev() {
        if rollout.dones[t] {
            ret = 0.0;
        }
        ret = rollout.rewards[t] + gamma * ret;
        returns[t] = ret;
    }
    returns
}

/// Normalizes advantages to zero mean and unit standard deviation
/// (PPO and TRPO).
pub(crate) fn normalize(advantages: &mut [f64]) {
    let n = advantages.len() as f64;
    let mean = advantages.iter().sum::<f64>() / n;
    let var = advantages.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / n;
    let std = var.sqrt().max(1e-8);
    for a in advantages {
        *a = (*a - mean) / std;
    }
}

/// `Σ grad(t)` over the `n` steps of a rollout, accumulated in step order
/// (A2C and TRPO).
pub(crate) fn sum_gradients(n: usize, grad: impl Fn(usize) -> Gradients) -> Gradients {
    let mut sum = grad(0);
    for t in 1..n {
        sum.add(&grad(t));
    }
    sum
}

pub use a2c::{A2c, A2cConfig};
pub use env::{SizingEnv, StepResult};
pub use policy::{ActionSample, Policy, ValueNet, MOVES};
pub use ppo::{Ppo, PpoConfig};
pub use trpo::{Trpo, TrpoConfig};

//! Self-healing supervision of the surrogate training loop.
//!
//! [`HealthMonitor`] sits between [`SpiceApproximator::fit`] and the
//! explorer: after every fit it inspects the guard/sentinel report,
//! snapshots the model while it is healthy, and — when a fit is flagged
//! non-finite or explosive — rolls the weights back to the last-good
//! snapshot, resets the optimizer moments, and anneals the learning rate.
//! It also watches the trust region for *collapse* (radius pinned at its
//! minimum with no accepted step for a patience window) and tells the
//! explorer to re-seed per Algorithm 1's restart semantics.
//!
//! Rollback restores **weights only**, deliberately not the normalizer
//! statistics: the normalizers are monotone running moments, and restoring
//! a pre-poisoning standardization against a trajectory that now contains
//! the extreme sample would re-normalize it to an astronomically large
//! target and re-explode the very next fit — a rollback loop. Keeping the
//! current normalizers re-judges the restored weights against the data as
//! it now is. The full [`ModelState`] is still snapshotted so callers can
//! inspect or port the last-good standardization.
//!
//! Every decision here is a pure function of the fit reports and
//! trust-region state — no rng, no wall-clock — so supervised campaigns
//! keep the bitwise thread-count and crash/resume invariance contracts.

use crate::approximator::{ModelState, SpiceApproximator};
use crate::trust_region::TrustRegion;
use asdex_env::HealthStats;
use asdex_nn::UpdateClass;

/// Knobs of the self-healing supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Learning-rate multiplier applied on every rollback.
    pub lr_anneal: f64,
    /// Floor the annealed learning rate cannot go below.
    pub lr_floor: f64,
    /// Consecutive rollbacks after which the flagged state is accepted as
    /// the new baseline — rolling back forever would freeze learning.
    pub max_consecutive_rollbacks: usize,
    /// Consecutive rejected steps with the radius pinned at its minimum
    /// before the trust region is declared collapsed and re-seeded. Must
    /// sit below the explorer's `restart_after` to fire first.
    pub collapse_patience: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            lr_anneal: 0.5,
            lr_floor: 1e-4,
            max_consecutive_rollbacks: 2,
            collapse_patience: 10,
        }
    }
}

/// Supervises one surrogate's training health across a campaign.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    stats: HealthStats,
    last_good: Option<ModelState>,
    consecutive_rollbacks: usize,
    pinned_rejects: usize,
}

impl HealthMonitor {
    /// Creates a monitor with the given configuration.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthMonitor {
            cfg,
            stats: HealthStats::new(),
            last_good: None,
            consecutive_rollbacks: 0,
            pinned_rejects: 0,
        }
    }

    /// Accumulated health counters.
    pub fn stats(&self) -> HealthStats {
        self.stats
    }

    /// The last-good snapshot, when one exists.
    pub fn last_good(&self) -> Option<&ModelState> {
        self.last_good.as_ref()
    }

    /// Inspects the report of the fit that just ran and heals the model if
    /// it was flagged. Returns the classification that was acted on.
    pub fn after_fit(&mut self, model: &mut SpiceApproximator) -> UpdateClass {
        let report = model.last_fit();
        self.stats.clipped_updates += report.clipped;
        self.stats.nonfinite_updates += report.nonfinite;
        match report.class {
            UpdateClass::Ok | UpdateClass::Clipped => {
                self.last_good = Some(model.export_state());
                self.consecutive_rollbacks = 0;
            }
            UpdateClass::NonFinite | UpdateClass::LossExplosion => {
                match &self.last_good {
                    Some(snapshot)
                        if self.consecutive_rollbacks < self.cfg.max_consecutive_rollbacks =>
                    {
                        model.set_weights(&snapshot.weights);
                        model.reset_optimizer();
                        model.anneal_lr(self.cfg.lr_anneal, self.cfg.lr_floor);
                        model.reset_health();
                        self.stats.rollbacks += 1;
                        self.consecutive_rollbacks += 1;
                    }
                    _ => {
                        // No snapshot yet, or rollback keeps re-flagging:
                        // adopt the current state as the new baseline so
                        // the loop cannot live-lock.
                        model.reset_health();
                        self.last_good = Some(model.export_state());
                        self.consecutive_rollbacks = 0;
                    }
                }
            }
        }
        report.class
    }

    /// Observes one trust-region assessment. Returns `true` when the
    /// region has collapsed — radius pinned at its minimum with
    /// `collapse_patience` consecutive rejections — and the episode should
    /// re-seed.
    pub fn observe_step(&mut self, trust: &TrustRegion, accepted: bool) -> bool {
        let pinned = trust.radius() <= trust.config().min_radius + 1e-12;
        if accepted || !pinned {
            self.pinned_rejects = 0;
            return false;
        }
        self.pinned_rejects += 1;
        if self.pinned_rejects >= self.cfg.collapse_patience {
            self.pinned_rejects = 0;
            self.stats.tr_reseeds += 1;
            return true;
        }
        false
    }

    /// Clears the collapse tracker at an episode boundary (the new episode
    /// starts from a fresh region and radius).
    pub fn reset_episode(&mut self) {
        self.pinned_rejects = 0;
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor::new(HealthConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trust_region::{TrustRegion, TrustRegionConfig};
    use asdex_rng::rngs::StdRng;
    use asdex_rng::SeedableRng;

    fn converged_model() -> SpiceApproximator {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = SpiceApproximator::new(2, 1, 16, 0.003, &mut rng);
        for k in 0..40 {
            let x = vec![0.4 + 0.005 * k as f64, 0.5];
            let y = vec![3.0 * x[0] + 1.0];
            m.push(x, y);
        }
        for _ in 0..8 {
            m.fit(20);
        }
        m
    }

    #[test]
    fn healthy_fits_snapshot_and_never_roll_back() {
        let mut m = converged_model();
        let mut mon = HealthMonitor::default();
        for _ in 0..4 {
            m.fit(5);
            assert_eq!(mon.after_fit(&mut m), UpdateClass::Ok);
        }
        assert_eq!(mon.stats().rollbacks, 0);
        assert!(mon.last_good().is_some(), "healthy fit must be snapshotted");
    }

    #[test]
    fn flagged_fit_rolls_back_and_anneals() {
        let mut m = converged_model();
        let mut mon = HealthMonitor::default();
        m.fit(5);
        mon.after_fit(&mut m);
        let good_weights = mon.last_good().unwrap().weights.clone();
        let lr0 = m.lr();
        // Poison: a huge-but-finite target re-scales the output normalizer
        // and explodes the next fit's loss.
        m.push(vec![0.45, 0.5], vec![-1e30]);
        m.fit(6);
        let class = mon.after_fit(&mut m);
        assert_eq!(class, UpdateClass::LossExplosion);
        assert_eq!(mon.stats().rollbacks, 1);
        assert_eq!(m.weights(), good_weights, "weights restored to last-good");
        assert!(m.lr() < lr0, "learning rate annealed on rollback");
    }

    #[test]
    fn consecutive_rollbacks_are_capped_for_liveness() {
        let mut m = converged_model();
        let cfg = HealthConfig { max_consecutive_rollbacks: 2, ..HealthConfig::default() };
        let mut mon = HealthMonitor::new(cfg);
        m.fit(5);
        mon.after_fit(&mut m);
        m.push(vec![0.45, 0.5], vec![-1e30]);
        // Even if every subsequent fit keeps flagging, rollbacks stop at
        // the cap and the state is adopted as the new baseline.
        let mut rollbacks_seen = 0;
        for _ in 0..6 {
            m.fit(6);
            mon.after_fit(&mut m);
            rollbacks_seen = mon.stats().rollbacks;
        }
        assert!(rollbacks_seen <= 2 + 1, "rollbacks essentially capped: {rollbacks_seen}");
        assert!(mon.last_good().is_some());
    }

    #[test]
    fn collapse_fires_only_when_pinned_and_rejected() {
        let cfg = HealthConfig { collapse_patience: 3, ..HealthConfig::default() };
        let mut mon = HealthMonitor::new(cfg);
        let mut trust = TrustRegion::new(TrustRegionConfig::default());
        // Shrink to the minimum radius.
        for _ in 0..10 {
            trust.assess(1.0, -1.0);
        }
        assert!(trust.radius() <= trust.config().min_radius + 1e-12);
        assert!(!mon.observe_step(&trust, false));
        assert!(!mon.observe_step(&trust, false));
        assert!(mon.observe_step(&trust, false), "third pinned reject collapses");
        assert_eq!(mon.stats().tr_reseeds, 1);
        // An accepted step resets the tracker even while pinned.
        assert!(!mon.observe_step(&trust, false));
        assert!(!mon.observe_step(&trust, true));
        assert!(!mon.observe_step(&trust, false));
        assert!(!mon.observe_step(&trust, false));
        assert_eq!(mon.stats().tr_reseeds, 1, "acceptance must reset the patience window");
        // A healthy (un-pinned) radius never counts toward collapse, no
        // matter how many rejections pile up.
        trust.reset();
        for _ in 0..10 {
            assert!(!mon.observe_step(&trust, false));
        }
        assert_eq!(mon.stats().tr_reseeds, 1);
    }
}

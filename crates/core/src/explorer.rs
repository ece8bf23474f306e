//! The fast local explorer — Algorithm 1 of the paper.
//!
//! One episode: sample the global space, dive into the best region, fit
//! the SPICE approximator online, plan Monte-Carlo steps inside the trust
//! region, accept/reject with the ratio test, and escape to a fresh random
//! region when progress stalls (`C_riterion`).

use crate::approximator::SpiceApproximator;
use crate::health::{HealthConfig, HealthMonitor};
use crate::planner::McPlanner;
use crate::progress::{emit, ProgressEvent, ProgressHandle, ProgressPhase};
use crate::trust_region::{TrustRegion, TrustRegionConfig};
use asdex_env::{EvalRequest, EvalStats, Evaluation, SearchBudget, SearchOutcome, Searcher, SizingProblem};
use asdex_rng::rngs::StdRng;
use asdex_rng::SeedableRng;

/// Hyperparameters of the local explorer.
///
/// The defaults are the "automatically constructed" settings of the
/// paper's §IV-F API: small network, a few hundred Monte-Carlo samples,
/// restart after a few tens of non-improving steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorerConfig {
    /// Global random samples seeding each episode (Algorithm 1 line 2).
    pub n_init: usize,
    /// Monte-Carlo candidates per planning step.
    pub mc_samples: usize,
    /// Hidden width of the SPICE approximator.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Training passes over the trajectory per iteration.
    pub train_epochs: usize,
    /// Trust-region settings.
    pub trust: TrustRegionConfig,
    /// Non-improving steps before escaping to a new region
    /// (`C_riterion`).
    pub restart_after: usize,
    /// Most-recent-samples window the surrogate trains on.
    pub train_window: usize,
    /// Self-healing knobs: rollback annealing and trust-region collapse
    /// patience (which must stay below `restart_after` to fire first).
    pub health: HealthConfig,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            n_init: 15,
            mc_samples: 200,
            hidden: 40,
            lr: 0.003,
            train_epochs: 6,
            trust: TrustRegionConfig::default(),
            restart_after: 25,
            train_window: 96,
            health: HealthConfig::default(),
        }
    }
}

/// Warm-start inputs for the Table II process-porting study.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmStart {
    /// Starting point (normalized) carried over from a previous node;
    /// skips the global exploration phase of the first episode.
    pub center: Option<Vec<f64>>,
    /// Trained model (weights + normalizers) carried over from a previous
    /// node.
    pub model: Option<crate::approximator::ModelState>,
}

/// Artifacts a finished run exposes for porting (paper §V-C).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorerArtifacts {
    /// Final approximator state (weights + normalizers).
    pub model: crate::approximator::ModelState,
    /// Center for the next node to start from: the outcome's best point
    /// (normalized coordinates).
    pub center: Vec<f64>,
}

/// The model-based trust-region agent (Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct LocalExplorer {
    /// Hyperparameters.
    pub config: ExplorerConfig,
    /// Optional progress observer, invoked at episode seeds, round ends,
    /// restarts, and completion. Purely passive: attaching one never
    /// changes the outcome (see [`crate::ProgressSink`]).
    pub progress: Option<ProgressHandle>,
}

impl LocalExplorer {
    /// Creates an explorer with explicit hyperparameters.
    pub fn new(config: ExplorerConfig) -> Self {
        LocalExplorer { config, progress: None }
    }

    /// Attaches a progress observer (builder style).
    #[must_use]
    pub fn with_progress(mut self, handle: ProgressHandle) -> Self {
        self.progress = Some(handle);
        self
    }

    /// Emits one progress event, if an observer is attached.
    fn note(&self, phase: ProgressPhase, simulations: usize, best_value: f64, feasible: bool) {
        emit(
            &self.progress,
            ProgressEvent { phase, simulations, best_value, feasible, corner: None },
        );
    }

    /// Runs Algorithm 1 on one PVT corner, returning the outcome and the
    /// porting artifacts.
    ///
    /// An out-of-range `corner_idx` is not a panic: every evaluation comes
    /// back as a typed invalid-input failure and the search exhausts its
    /// budget with the failure counted in [`SearchOutcome::stats`].
    pub fn run(
        &self,
        problem: &SizingProblem,
        corner_idx: usize,
        budget: SearchBudget,
        seed: u64,
        warm: &WarmStart,
    ) -> (SearchOutcome, ExplorerArtifacts) {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = problem.dim();
        let n_meas = problem.evaluator.measurement_names().len();
        let planner = McPlanner::new(cfg.mc_samples);

        let mut stats = EvalStats::new();
        let mut best_point = vec![0.5; dim];
        let mut best_value = f64::NEG_INFINITY;
        let mut best_meas: Option<Vec<f64>> = None;
        let mut first_episode = true;
        let mut model = SpiceApproximator::new(dim, n_meas, cfg.hidden, cfg.lr, &mut rng);
        model.set_window(cfg.train_window);
        if let Some(state) = &warm.model {
            model.import_state(state);
        }
        let mut health = HealthMonitor::new(cfg.health);

        // Every exit yields (success, simulations, best point, best value,
        // best measurements); the outcome, artifacts and `Done` event are
        // built once, after the block. A failed search reports the whole
        // budget.
        let (success, simulations, best_point, best_value, best_measurements) = 'search: {
            'episode: loop {
                // --- Lines 2–5: seed the episode. ---------------------------
                // A warm center that cannot be snapped (wrong dimension,
                // ported from a different space) falls back to mid-grid —
                // counted, not silent, so telemetry flags the bad hand-off.
                let warm_center = warm.center.as_ref().filter(|_| first_episode).map(|c| {
                    problem.space.snap(c).unwrap_or_else(|_| {
                        stats.snap_fallbacks += 1;
                        vec![0.5; dim]
                    })
                });
                if stats.sims >= budget.max_sims {
                    break 'search (false, budget.max_sims, best_point, best_value, best_meas);
                }
                let mut center: Vec<f64>;
                let mut center_value: f64;
                if let Some(warm_center) = warm_center {
                    center = warm_center;
                    let e = problem.evaluate_with_budget(&center, corner_idx, budget.max_sims - stats.sims);
                    stats.record(&e);
                    center_value = e.value;
                    if e.value > best_value {
                        best_value = e.value;
                        best_point = e.x_norm.clone();
                        best_meas = e.measurements.clone();
                    }
                    if let Some(m) = e.measurements {
                        model.push(e.x_norm.clone(), m);
                    }
                    if e.feasible {
                        break 'search (true, stats.sims, center, center_value, best_meas);
                    }
                } else {
                    center = vec![0.5; dim];
                    center_value = f64::NEG_INFINITY;
                    // Lines 2–3 as one batch: sampling consumes the rng,
                    // evaluation does not, so drawing every seed up front
                    // preserves the serial rng stream; batch admission caps
                    // total attempts at the remaining budget.
                    let requests: Vec<EvalRequest> = (0..cfg.n_init)
                        .map(|_| EvalRequest::new(problem.space.sample(&mut rng), corner_idx))
                        .collect();
                    let evals = problem.evaluate_batch(&requests, budget.max_sims - stats.sims);
                    let mut feasible: Option<Evaluation> = None;
                    for e in evals {
                        stats.record(&e);
                        if let Some(m) = &e.measurements {
                            model.push(e.x_norm.clone(), m.clone());
                        }
                        if e.value > best_value {
                            best_value = e.value;
                            best_point = e.x_norm.clone();
                            best_meas = e.measurements.clone();
                        }
                        if e.value > center_value {
                            center_value = e.value;
                            center = e.x_norm.clone();
                        }
                        if e.feasible && feasible.is_none() {
                            feasible = Some(e);
                        }
                    }
                    if let Some(e) = feasible {
                        break 'search (true, stats.sims, e.x_norm, e.value, e.measurements);
                    }
                }
                first_episode = false;
                health.reset_episode();
                self.note(ProgressPhase::Seeded, stats.sims, best_value, false);

                // --- Lines 6–18: local trust-region search. -----------------
                let mut trust = TrustRegion::new(cfg.trust);
                let mut stall = 0usize;
                loop {
                    if stats.sims >= budget.max_sims {
                        break 'search (false, budget.max_sims, best_point, best_value, best_meas);
                    }
                    model.fit(cfg.train_epochs);
                    health.after_fit(&mut model);
                    let proposal = planner.propose(
                        &problem.space,
                        &center,
                        trust.radius(),
                        &model,
                        &problem.value_fn,
                        &problem.specs,
                        &mut rng,
                    );
                    let Some(p) = proposal else {
                        // The region collapsed onto the center: escape.
                        self.note(ProgressPhase::Restart, stats.sims, best_value, false);
                        continue 'episode;
                    };
                    let e = problem.evaluate_with_budget(&p.x, corner_idx, budget.max_sims - stats.sims);
                    stats.record(&e);
                    if let Some(m) = &e.measurements {
                        model.push(e.x_norm.clone(), m.clone());
                    }
                    if e.value > best_value {
                        best_value = e.value;
                        best_point = e.x_norm.clone();
                        best_meas = e.measurements.clone();
                    }
                    if e.feasible {
                        break 'search (true, stats.sims, e.x_norm, e.value, e.measurements);
                    }

                    let improved = e.value > center_value;
                    let step = trust.assess(p.predicted_value - center_value, e.value - center_value);
                    if step.accepted {
                        center = e.x_norm;
                        center_value = e.value;
                    }
                    if health.observe_step(&trust, step.accepted) {
                        // Trust-region collapse: radius pinned at its minimum
                        // with no accepted step for the whole patience window.
                        // Re-seed per Algorithm 1's restart semantics.
                        self.note(ProgressPhase::Restart, stats.sims, best_value, false);
                        continue 'episode;
                    }
                    if improved {
                        stall = 0;
                    } else {
                        stall += 1;
                        if stall > cfg.restart_after {
                            self.note(ProgressPhase::Restart, stats.sims, best_value, false);
                            continue 'episode;
                        }
                    }
                    self.note(ProgressPhase::Round, stats.sims, best_value, false);
                }
            }
        };
        self.note(ProgressPhase::Done, simulations, best_value, success);
        let artifacts = ExplorerArtifacts { model: model.export_state(), center: best_point.clone() };
        let outcome = SearchOutcome {
            success,
            simulations,
            best_point,
            best_value,
            best_measurements,
            stats,
            health: health.stats(),
        };
        (outcome, artifacts)
    }
}

impl Searcher for LocalExplorer {
    fn name(&self) -> &str {
        "trm"
    }

    fn search(&mut self, problem: &SizingProblem, budget: SearchBudget, seed: u64) -> SearchOutcome {
        self.run(problem, 0, budget, seed, &WarmStart::default()).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdex_env::circuits::synthetic::{Bowl, MultiBasin, Tradeoff};
    use asdex_env::SearchBudget;

    #[test]
    fn solves_bowl_quickly() {
        let problem = Bowl::problem(4, 0.15).unwrap();
        let mut agent = LocalExplorer::default();
        let out = agent.search(&problem, SearchBudget::new(2000), 7);
        assert!(out.success, "best value {}", out.best_value);
        assert!(out.simulations < 500, "took {} sims", out.simulations);
    }

    #[test]
    fn solves_multibasin() {
        let problem = MultiBasin::problem(0.12).unwrap();
        let mut agent = LocalExplorer::default();
        let out = agent.search(&problem, SearchBudget::new(2000), 3);
        assert!(out.success);
    }

    #[test]
    fn solves_tradeoff_band() {
        let problem = Tradeoff::problem().unwrap();
        let mut agent = LocalExplorer::default();
        let out = agent.search(&problem, SearchBudget::new(2000), 11);
        assert!(out.success, "value {}", out.best_value);
    }

    #[test]
    fn respects_budget_on_impossible_problem() {
        // Feasible radius 0 → unsatisfiable spec (score ≥ 10 exactly only
        // at the continuous target, which the grid misses).
        let problem = Bowl::problem(3, 0.001).unwrap();
        let mut agent = LocalExplorer::default();
        let out = agent.search(&problem, SearchBudget::new(300), 1);
        assert!(!out.success);
        assert_eq!(out.simulations, 300);
        assert!(out.best_value < 0.0);
    }

    #[test]
    fn warm_start_center_is_used() {
        let problem = Bowl::problem(3, 0.15).unwrap();
        let agent = LocalExplorer::default();
        // Start exactly at the known feasible target.
        let target = vec![0.3, 0.3 + 0.4 / 3.0, 0.3 + 0.8 / 3.0];
        let warm = WarmStart { center: Some(target), model: None };
        let (out, _) = agent.run(&problem, 0, SearchBudget::new(100), 5, &warm);
        assert!(out.success);
        assert_eq!(out.simulations, 1, "feasible on the first simulation");
    }

    #[test]
    fn artifacts_round_trip_into_warm_start() {
        let problem = Bowl::problem(2, 0.12).unwrap();
        let agent = LocalExplorer::default();
        let (out, art) = agent.run(&problem, 0, SearchBudget::new(1000), 2, &WarmStart::default());
        assert!(out.success);
        let warm = WarmStart { center: Some(art.center.clone()), model: Some(art.model.clone()) };
        let (out2, _) = agent.run(&problem, 0, SearchBudget::new(1000), 3, &warm);
        assert!(out2.success);
        assert!(out2.simulations <= out.simulations, "warm start not slower: {} vs {}", out2.simulations, out.simulations);
    }

    #[test]
    fn deterministic_given_seed() {
        let problem = Bowl::problem(3, 0.15).unwrap();
        let mut a = LocalExplorer::default();
        let mut b = LocalExplorer::default();
        let o1 = a.search(&problem, SearchBudget::new(1000), 42);
        let o2 = b.search(&problem, SearchBudget::new(1000), 42);
        assert_eq!(o1, o2);
    }

    #[test]
    fn nan_evaluator_yields_typed_failures_not_a_panic() {
        use asdex_env::{Evaluator, FailureKind, PvtCorner};
        use std::sync::Arc;

        /// Every simulation reports NaN — the pathology of a simulator
        /// whose solution diverged without tripping the iteration cap.
        struct AllNan {
            names: Vec<String>,
        }
        impl Evaluator for AllNan {
            fn measurement_names(&self) -> &[String] {
                &self.names
            }
            fn evaluate(
                &self,
                _x: &[f64],
                _c: &PvtCorner,
            ) -> Result<Vec<f64>, asdex_env::EnvError> {
                Ok(vec![f64::NAN])
            }
        }

        let mut problem = Bowl::problem(2, 0.2).unwrap();
        problem.evaluator = Arc::new(AllNan { names: vec!["score".into()] });
        let mut agent = LocalExplorer::default();
        let out = agent.search(&problem, SearchBudget::new(120), 1);
        assert!(!out.success);
        assert_eq!(out.simulations, 120);
        assert_eq!(out.stats.sims, 120);
        assert_eq!(out.stats.failures_of(FailureKind::NonFinite), 120);
        assert!(out.best_value.is_finite(), "failure value stays finite");
    }

    #[test]
    fn out_of_range_corner_exhausts_budget_with_typed_failures() {
        use asdex_env::FailureKind;
        let problem = Bowl::problem(2, 0.2).unwrap();
        let agent = LocalExplorer::default();
        let (out, _) = agent.run(&problem, 7, SearchBudget::new(40), 3, &WarmStart::default());
        assert!(!out.success);
        assert_eq!(out.stats.sims, 40);
        assert_eq!(out.stats.failures_of(FailureKind::InvalidInput), 40);
    }

    #[test]
    fn mismatched_warm_center_counts_a_snap_fallback() {
        let problem = Bowl::problem(3, 0.25).unwrap();
        let agent = LocalExplorer::default();
        // Warm center from a 5-D node ported onto a 3-D problem.
        let warm = WarmStart { center: Some(vec![0.4; 5]), model: None };
        let (out, _) = agent.run(&problem, 0, SearchBudget::new(2000), 5, &warm);
        assert_eq!(out.stats.snap_fallbacks, 1, "bad hand-off is counted, not silent");
    }
}

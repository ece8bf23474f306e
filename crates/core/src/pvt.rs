//! Progressive PVT exploration (paper §IV-E, Fig. 3, Table III).
//!
//! Each PVT condition gets its own independent approximator. The search
//! focuses on an *active* set of corners — one to start — and only spends
//! simulator licenses on the full corner set when the active set's specs
//! are already met. Failing verification promotes the worst corner into
//! the active set.

use crate::approximator::SpiceApproximator;
use crate::explorer::ExplorerConfig;
use crate::health::HealthMonitor;
use crate::planner::McPlanner;
use crate::trust_region::TrustRegion;
use asdex_env::{EvalRequest, EvalStats, HealthStats, SearchBudget, SizingProblem};
use asdex_rng::rngs::StdRng;
use asdex_rng::{Rng, SeedableRng};

/// Strategy for covering the PVT corner set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PvtStrategy {
    /// Evaluate every corner on every iteration ("test all cond." row of
    /// Table III).
    BruteForce,
    /// Progressive exploration starting from a uniformly random corner.
    ProgressiveRandom,
    /// Progressive exploration starting from the empirically hardest
    /// corner (lowest mean value over a small probe sample).
    ProgressiveHardest,
}

impl PvtStrategy {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PvtStrategy::BruteForce => "brute-force",
            PvtStrategy::ProgressiveRandom => "progressive-random",
            PvtStrategy::ProgressiveHardest => "progressive-hardest",
        }
    }
}

/// One simulator invocation in the PVT ledger — the raw material of the
/// paper's Fig. 3 timeline (each block is one EDA-tool use; red = spec
/// missed, green = met).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry {
    /// Global simulation index (time order).
    pub sim: usize,
    /// Search round (outer iteration) this simulation belonged to.
    pub round: usize,
    /// Corner index into the problem's [`asdex_env::PvtSet`].
    pub corner: usize,
    /// Value at this corner (0 ⇔ specs met here).
    pub value: f64,
    /// `true` when the corner's specs were met.
    pub pass: bool,
    /// `true` when this simulation was part of a verification pass rather
    /// than active-set search.
    pub verification: bool,
}

/// Outcome of a PVT exploration run.
#[derive(Debug, Clone, PartialEq)]
pub struct PvtOutcome {
    /// `true` when a point passing **all** corners was found in budget.
    pub success: bool,
    /// Total simulator invocations (the Table III "steps" metric). A
    /// failed run spends its whole budget, so this equals
    /// `budget.max_sims` exactly when `success` is false.
    pub simulations: usize,
    /// Best point found (normalized).
    pub best_point: Vec<f64>,
    /// Worst-corner value of the best point.
    pub best_value: f64,
    /// Complete simulation ledger for Fig. 3.
    pub ledger: Vec<LedgerEntry>,
    /// Corners that were promoted into the active set, in order.
    pub activation_order: Vec<usize>,
    /// Failure/retry telemetry over every simulator call.
    pub stats: EvalStats,
    /// Self-healing telemetry merged over every per-corner model plus the
    /// campaign's trust-region collapse tracker.
    pub health: HealthStats,
}

/// The PVT exploration engine.
#[derive(Debug, Clone)]
pub struct PvtExplorer {
    /// Local-search hyperparameters (shared by every strategy).
    pub config: ExplorerConfig,
    /// Corner-coverage strategy.
    pub strategy: PvtStrategy,
    /// Probe samples per corner used to rank difficulty for
    /// [`PvtStrategy::ProgressiveHardest`].
    pub hardness_probes: usize,
    /// Optional progress observer: every ledger entry is mirrored as a
    /// [`crate::ProgressPhase::Corner`] event. Purely passive — attaching
    /// one never changes the outcome.
    pub progress: Option<crate::progress::ProgressHandle>,
}

impl PvtExplorer {
    /// Creates an explorer with the given strategy and default local
    /// search settings.
    pub fn new(strategy: PvtStrategy) -> Self {
        PvtExplorer {
            config: ExplorerConfig::default(),
            strategy,
            hardness_probes: 4,
            progress: None,
        }
    }

    /// Attaches a progress observer (builder style).
    #[must_use]
    pub fn with_progress(mut self, handle: crate::progress::ProgressHandle) -> Self {
        self.progress = Some(handle);
        self
    }

    /// Mirrors one ledger entry to the progress observer, if any.
    fn note_entry(&self, entry: &LedgerEntry, best_value: f64) {
        crate::progress::emit(
            &self.progress,
            crate::progress::ProgressEvent {
                phase: crate::progress::ProgressPhase::Corner,
                simulations: entry.sim,
                best_value,
                feasible: entry.pass,
                corner: Some(entry.corner),
            },
        );
    }

    /// Runs the PVT exploration.
    ///
    /// # Panics
    ///
    /// Panics if the problem has no corners (cannot happen through
    /// [`asdex_env::PvtSet`]).
    pub fn run(&self, problem: &SizingProblem, budget: SearchBudget, seed: u64) -> PvtOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_corners = problem.corners.len();
        let dim = problem.dim();
        let n_meas = problem.evaluator.measurement_names().len();
        let cfg = &self.config;
        let planner = McPlanner::new(cfg.mc_samples);

        let mut stats = EvalStats::new();
        let mut round = 0usize;
        let mut ledger: Vec<LedgerEntry> = Vec::new();
        let mut best_point = vec![0.5; dim];
        let mut best_value = f64::NEG_INFINITY;

        // Per-corner independent models (paper: "each PVT condition has its
        // own independent model").
        let mut models: Vec<SpiceApproximator> = (0..n_corners)
            .map(|_| {
                let mut m = SpiceApproximator::new(dim, n_meas, cfg.hidden, cfg.lr, &mut rng);
                m.set_window(cfg.train_window);
                m
            })
            .collect();
        // Every corner model gets its own supervisor; the trust region —
        // shared by the whole campaign — gets a dedicated collapse tracker.
        let mut monitors: Vec<HealthMonitor> =
            (0..n_corners).map(|_| HealthMonitor::new(cfg.health)).collect();
        let mut tr_health = HealthMonitor::new(cfg.health);

        // Evaluate a point on every listed corner as one batch; returns
        // the worst value, its corner, whether all corners passed, each
        // admitted corner's value, and whether the budget cut the batch
        // short. Logs to the ledger in corner order — batch results come
        // back in request order, so ledger `sim` indices stay strictly
        // increasing.
        macro_rules! eval_active {
            ($u:expr, $verification:expr, $corners:expr) => {{
                let corners: &[usize] = $corners;
                let requests: Vec<EvalRequest> =
                    corners.iter().map(|&c| EvalRequest::new($u.to_vec(), c)).collect();
                let evals = problem
                    .evaluate_batch(&requests, budget.max_sims.saturating_sub(stats.sims));
                let out_of_budget = evals.len() < requests.len();
                let mut worst = f64::INFINITY;
                let mut worst_corner = 0usize;
                let mut all_pass = true;
                let mut values = Vec::with_capacity(evals.len());
                for (e, &c) in evals.into_iter().zip(corners) {
                    stats.record(&e);
                    let entry = LedgerEntry {
                        sim: stats.sims,
                        round,
                        corner: c,
                        value: e.value,
                        pass: e.feasible,
                        verification: $verification,
                    };
                    self.note_entry(&entry, best_value);
                    ledger.push(entry);
                    if let Some(m) = e.measurements {
                        models[c].push(e.x_norm.clone(), m);
                    }
                    all_pass &= e.feasible;
                    if e.value < worst {
                        worst = e.value;
                        worst_corner = c;
                    }
                    values.push(e.value);
                }
                (worst, worst_corner, all_pass, values, out_of_budget)
            }};
        }

        // Pick the starting active set.
        let mut active: Vec<usize> = match self.strategy {
            PvtStrategy::BruteForce => (0..n_corners).collect(),
            PvtStrategy::ProgressiveRandom => vec![rng.gen_range(0..n_corners)],
            PvtStrategy::ProgressiveHardest => {
                // Probe a few random points on every corner — each probe
                // point fans out across all corners as one batch; the
                // corner with the lowest mean value is "hardest". A batch
                // the budget cuts short ends the probes, and the ranking
                // uses the values seen so far.
                let all: Vec<usize> = (0..n_corners).collect();
                let mut means = vec![0.0; n_corners];
                for _ in 0..self.hardness_probes {
                    let u = problem.space.sample(&mut rng);
                    let (_, _, _, values, oob) = eval_active!(&u, false, &all);
                    for (mean, v) in means.iter_mut().zip(values) {
                        *mean += v / self.hardness_probes as f64;
                    }
                    if oob {
                        break;
                    }
                }
                let hardest = means
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite values"))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                vec![hardest]
            }
        };
        let mut activation_order = active.clone();

        // Every exit yields (success, simulations, best point, best value);
        // the outcome is built once, after the block. A failed search
        // reports the whole budget.
        let (success, simulations, best_point, best_value) = 'search: {
            'episode: loop {
                round += 1;
                // New episode ⇒ fresh region and radius; the collapse tracker
                // must not carry pinned-reject counts across the boundary.
                tr_health.reset_episode();
                // Seed phase over active corners.
                let mut center = vec![0.5; dim];
                let mut center_value = f64::NEG_INFINITY;
                for _ in 0..cfg.n_init {
                    let u = problem.space.sample(&mut rng);
                    let (worst, _, _, _, oob) = eval_active!(&u, false, &active);
                    if oob {
                        break;
                    }
                    if worst > center_value {
                        center_value = worst;
                        center = u;
                    }
                    if worst > best_value {
                        best_value = worst;
                        best_point = center.clone();
                    }
                }

                let mut trust = TrustRegion::new(cfg.trust);
                let mut stall = 0usize;
                loop {
                    if stats.sims >= budget.max_sims {
                        break 'search (false, budget.max_sims, best_point, best_value);
                    }
                    for &c in &active {
                        models[c].fit(cfg.train_epochs);
                        monitors[c].after_fit(&mut models[c]);
                    }
                    let model_refs: Vec<&SpiceApproximator> = active.iter().map(|&c| &models[c]).collect();
                    let proposal = planner.propose_multi(
                        &problem.space,
                        &center,
                        trust.radius(),
                        &model_refs,
                        &problem.value_fn,
                        &problem.specs,
                        &mut rng,
                    );
                    let Some(p) = proposal else {
                        continue 'episode;
                    };
                    round += 1;
                    let (worst, _, all_pass, _, oob) = eval_active!(&p.x, false, &active);
                    if oob {
                        continue;
                    }
                    if worst > best_value {
                        best_value = worst;
                        best_point = p.x.clone();
                    }

                    if all_pass {
                        // Verification over the corners not in the active set.
                        let inactive: Vec<usize> =
                            (0..n_corners).filter(|c| !active.contains(c)).collect();
                        if inactive.is_empty() {
                            break 'search (true, stats.sims, p.x, worst);
                        }
                        round += 1;
                        let (v_worst, v_worst_corner, v_all, _, oob) =
                            eval_active!(&p.x, true, &inactive);
                        if oob {
                            continue;
                        }
                        if v_all {
                            break 'search (true, stats.sims, p.x, v_worst.min(worst));
                        }
                        // Promote the worst failing corner and keep searching
                        // from the current point.
                        active.push(v_worst_corner);
                        activation_order.push(v_worst_corner);
                        center = p.x;
                        center_value = v_worst;
                        trust.reset();
                        tr_health.reset_episode();
                        stall = 0;
                        continue;
                    }

                    let improved = worst > center_value;
                    let step = trust.assess(p.predicted_value - center_value, worst - center_value);
                    if step.accepted {
                        center = p.x;
                        center_value = worst;
                    }
                    // Collapse sentinel: radius pinned at its minimum with no
                    // accepted step for the patience window ⇒ re-seed.
                    if tr_health.observe_step(&trust, step.accepted) {
                        continue 'episode;
                    }
                    if improved {
                        stall = 0;
                    } else {
                        stall += 1;
                        if stall > cfg.restart_after {
                            continue 'episode;
                        }
                    }
                }
            }
        };
        // One telemetry record: the per-corner training monitors folded
        // into the campaign-level trust-region monitor.
        let mut health = tr_health.stats();
        for m in &monitors {
            health.merge(&m.stats());
        }
        PvtOutcome {
            success,
            simulations,
            best_point,
            best_value,
            ledger,
            activation_order,
            stats,
            health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdex_env::circuits::synthetic::Bowl;
    use asdex_env::{PvtCorner, PvtSet};

    /// A 3-corner bowl problem where the corners pull the optimum in
    /// meaningfully different directions, so single-corner feasibility is
    /// common but the intersection is small — the structure that makes
    /// progressive exploration pay off.
    fn pvt_problem() -> SizingProblem {
        let mut p = Bowl::problem(3, 0.2).unwrap();
        // Five corners: one hard pair pulling in opposite directions plus
        // three mild ones — single corners are easy, the intersection is
        // small, and testing every corner on every step (brute force) pays
        // a 5× simulation tax.
        p.corners = PvtSet::new(vec![
            PvtCorner::nominal(),
            PvtCorner { temp_celsius: 120.0, ..PvtCorner::nominal() },
            PvtCorner { temp_celsius: -60.0, ..PvtCorner::nominal() },
            PvtCorner { temp_celsius: 60.0, ..PvtCorner::nominal() },
            PvtCorner { temp_celsius: -20.0, ..PvtCorner::nominal() },
        ]);
        p
    }

    #[test]
    fn progressive_hardest_succeeds() {
        let problem = pvt_problem();
        let agent = PvtExplorer::new(PvtStrategy::ProgressiveHardest);
        let out = agent.run(&problem, SearchBudget::new(5000), 9);
        assert!(out.success, "best {}", out.best_value);
        assert!(!out.ledger.is_empty());
        // Final verification touched every corner.
        let touched: std::collections::HashSet<_> = out.ledger.iter().map(|l| l.corner).collect();
        assert_eq!(touched.len(), 5);
    }

    #[test]
    fn progressive_random_succeeds() {
        let problem = pvt_problem();
        let agent = PvtExplorer::new(PvtStrategy::ProgressiveRandom);
        let out = agent.run(&problem, SearchBudget::new(5000), 21);
        assert!(out.success);
        assert_eq!(out.activation_order.len(), out.activation_order.iter().collect::<std::collections::HashSet<_>>().len(), "no corner activated twice");
    }

    #[test]
    fn brute_force_succeeds_with_more_sims() {
        let problem = pvt_problem();
        let progressive = PvtExplorer::new(PvtStrategy::ProgressiveHardest);
        let brute = PvtExplorer::new(PvtStrategy::BruteForce);
        // Average over a few seeds: progressive must be cheaper.
        let mut p_total = 0usize;
        let mut b_total = 0usize;
        for seed in 0..10 {
            let p = progressive.run(&problem, SearchBudget::new(8000), seed);
            let b = brute.run(&problem, SearchBudget::new(8000), seed);
            assert!(p.success && b.success, "seed {seed}");
            p_total += p.simulations;
            b_total += b.simulations;
        }
        assert!(p_total < b_total, "progressive {p_total} vs brute {b_total}");
    }

    #[test]
    fn ledger_is_time_ordered_and_budget_respected() {
        let problem = pvt_problem();
        let agent = PvtExplorer::new(PvtStrategy::BruteForce);
        let out = agent.run(&problem, SearchBudget::new(50), 4);
        assert!(!out.success);
        assert_eq!(out.simulations, 50);
        assert!(out.ledger.len() <= 50);
        for w in out.ledger.windows(2) {
            assert!(w[1].sim > w[0].sim);
        }
    }

    #[test]
    fn a_failed_search_spends_exactly_its_budget() {
        // Small budgets cut fan-out batches short at every phase, the
        // hardest-corner probes included; faults make requests cost more
        // than one attempt.
        use asdex_env::{FaultConfig, FaultInjectingEvaluator};
        let mut faulty = pvt_problem();
        faulty.evaluator = std::sync::Arc::new(FaultInjectingEvaluator::new(
            faulty.evaluator.clone(),
            FaultConfig::new(0.3, 7),
        ));
        for problem in [pvt_problem(), faulty] {
            for strategy in [
                PvtStrategy::BruteForce,
                PvtStrategy::ProgressiveRandom,
                PvtStrategy::ProgressiveHardest,
            ] {
                for (budget, seed) in (1..=40).flat_map(|b| [(b, 0), (b, 1)]) {
                    let out = PvtExplorer::new(strategy).run(&problem, SearchBudget::new(budget), seed);
                    let case = format!("{} budget {budget} seed {seed}", strategy.label());
                    assert_eq!(out.simulations, out.stats.sims, "{case}");
                    if !out.success {
                        assert_eq!(out.simulations, budget, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn verification_entries_marked() {
        let problem = pvt_problem();
        let agent = PvtExplorer::new(PvtStrategy::ProgressiveHardest);
        let out = agent.run(&problem, SearchBudget::new(5000), 9);
        assert!(out.success);
        assert!(out.ledger.iter().any(|l| l.verification), "verification pass logged");
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(PvtStrategy::BruteForce.label(), "brute-force");
        assert_eq!(PvtStrategy::ProgressiveRandom.label(), "progressive-random");
        assert_eq!(PvtStrategy::ProgressiveHardest.label(), "progressive-hardest");
    }
}

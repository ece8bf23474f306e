//! Pure random search — the paper's strongest non-learning baseline
//! (Table I: 100 % success at 8565 average iterations).

use asdex_env::{
    EvalRequest, EvalStats, HealthStats, SearchBudget, SearchOutcome, Searcher, SizingProblem,
};
use asdex_rng::rngs::StdRng;
use asdex_rng::SeedableRng;

/// Uniform random search over the design-space grid.
///
/// Each sampled point is checked at every corner of the problem, and a
/// point is accepted only when all of its corners were admitted and
/// pass; its value is its worst corner's. Candidates are drawn and
/// scored in chunks of points through the batched evaluation pipeline,
/// so a problem with a worker pool evaluates them concurrently; the
/// outcome is identical at every thread count.
#[derive(Debug, Clone, Copy)]
pub struct RandomSearch {
    /// Points sampled and evaluated (at every corner) per batch.
    pub chunk: usize,
}

impl Default for RandomSearch {
    fn default() -> Self {
        RandomSearch { chunk: 8 }
    }
}

impl RandomSearch {
    /// Creates the agent.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Searcher for RandomSearch {
    fn name(&self) -> &str {
        "random"
    }

    fn search(&mut self, problem: &SizingProblem, budget: SearchBudget, seed: u64) -> SearchOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let corners = problem.corners.len();
        let mut stats = EvalStats::new();
        let mut best_point = vec![0.5; problem.dim()];
        let mut best_value = f64::NEG_INFINITY;
        let mut best_meas = None;
        while stats.sims < budget.max_sims {
            let requests: Vec<EvalRequest> = (0..self.chunk.max(1))
                .flat_map(|_| EvalRequest::fan_out(&problem.space.sample(&mut rng), corners))
                .collect();
            let evals = problem.evaluate_batch(&requests, budget.max_sims - stats.sims);
            let mut accepted = None;
            // One point's corners at a time; a point the budget could not
            // fully admit cannot pass.
            for point in evals.chunks(corners) {
                let mut worst = f64::INFINITY;
                let mut meas = None;
                for e in point {
                    stats.record(e);
                    worst = worst.min(e.value);
                    if meas.is_none() {
                        meas = e.measurements.clone();
                    }
                }
                if worst > best_value {
                    best_value = worst;
                    best_point = point[0].x_norm.clone();
                    best_meas = meas.clone();
                }
                let pass = point.len() == corners && point.iter().all(|e| e.feasible);
                if pass && accepted.is_none() {
                    accepted = Some((point[0].x_norm.clone(), worst, meas));
                }
            }
            if let Some((best_point, best_value, best_measurements)) = accepted {
                return SearchOutcome {
                    success: true,
                    simulations: stats.sims,
                    best_point,
                    best_value,
                    best_measurements,
                    stats,
                    health: HealthStats::new(),
                };
            }
        }
        SearchOutcome {
            success: false,
            simulations: budget.max_sims,
            best_point,
            best_value,
            best_measurements: best_meas,
            stats,
            health: HealthStats::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdex_env::circuits::synthetic::Bowl;
    use asdex_env::{
        DesignSpace, EnvError, Evaluator, Param, PvtCorner, PvtSet, Spec, SpecSet,
    };

    #[test]
    fn finds_large_feasible_region() {
        let problem = Bowl::problem(2, 0.3).unwrap();
        let mut agent = RandomSearch::new();
        let out = agent.search(&problem, SearchBudget::new(5000), 1);
        assert!(out.success);
        assert_eq!(out.best_value, 0.0);
        assert_eq!(out.stats.sims, out.simulations, "telemetry matches accounting");
        assert_eq!(out.stats.total_failures(), 0, "synthetic bowl never fails");
    }

    #[test]
    fn exhausts_budget_on_tiny_region() {
        let problem = Bowl::problem(5, 0.01).unwrap();
        let mut agent = RandomSearch::new();
        let out = agent.search(&problem, SearchBudget::new(200), 1);
        assert!(!out.success);
        assert_eq!(out.simulations, 200);
        assert_eq!(out.stats.sims, 200);
        assert!(out.best_value < 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let problem = Bowl::problem(3, 0.2).unwrap();
        let mut agent = RandomSearch::new();
        let a = agent.search(&problem, SearchBudget::new(1000), 9);
        let b = agent.search(&problem, SearchBudget::new(1000), 9);
        assert_eq!(a, b);
    }

    /// Corner 0 passes everywhere and the hot corner nowhere, so a point
    /// is accepted only if its every corner was checked.
    #[test]
    fn accepts_a_point_only_when_every_corner_passes() {
        struct Thermometer;
        impl Evaluator for Thermometer {
            fn measurement_names(&self) -> &[String] {
                static NAMES: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
                NAMES.get_or_init(|| vec!["temp".to_string()])
            }
            fn evaluate(&self, _: &[f64], corner: &PvtCorner) -> Result<Vec<f64>, EnvError> {
                Ok(vec![corner.temp_celsius])
            }
        }
        let space = DesignSpace::new(vec![Param::linear("x", 0.0, 1.0, 11).unwrap()]).unwrap();
        let hot = PvtCorner { temp_celsius: 60.0, ..PvtCorner::nominal() };
        let problem = SizingProblem::new(
            "thermometer",
            space,
            std::sync::Arc::new(Thermometer),
            SpecSet::new(vec![Spec::at_most(0, "temp", 30.0)]),
            PvtSet::new(vec![PvtCorner::nominal(), hot]),
        )
        .unwrap();
        let out = RandomSearch::new().search(&problem, SearchBudget::new(40), 3);
        assert!(!out.success, "a point failing its hot corner was accepted");
        assert_eq!(out.stats.sims, 40);

        // With both corners passable the same search succeeds on its
        // first point, having checked both corners of it.
        let mut cool = problem.clone();
        cool.corners = PvtSet::new(vec![PvtCorner::nominal(), PvtCorner::nominal()]);
        let out = RandomSearch { chunk: 1 }.search(&cool, SearchBudget::new(40), 3);
        assert!(out.success);
        assert_eq!(out.simulations, 2);
    }
}

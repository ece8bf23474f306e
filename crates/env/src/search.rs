//! The common search-agent interface every ASDEX agent implements.
//!
//! The paper's experiments (Tables I–V) all run the same protocol: an
//! agent gets a [`SizingProblem`] and a simulation budget, and reports how
//! many SPICE calls it spent before finding a consistent assignment. This
//! module pins that protocol down so the trust-region agent and every
//! baseline are measured identically.

use crate::health::HealthStats;
use crate::problem::SizingProblem;
use crate::stats::EvalStats;

/// Simulation budget for one search run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum number of simulator invocations (the paper's 10k-step cap
    /// for Table I).
    pub max_sims: usize,
}

impl SearchBudget {
    /// Creates a budget.
    pub fn new(max_sims: usize) -> Self {
        SearchBudget { max_sims }
    }
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget { max_sims: 10_000 }
    }
}

/// Outcome of one search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// `true` when a point satisfying every spec (at every corner the
    /// search was asked to cover) was found within budget.
    pub success: bool,
    /// Simulator invocations spent. On success this is the paper's
    /// "iterations" metric; on failure it equals the budget.
    pub simulations: usize,
    /// Best point found (normalized coordinates).
    pub best_point: Vec<f64>,
    /// Value of the best point (0 ⇔ feasible).
    pub best_value: f64,
    /// Measurements of the best point, when its simulation succeeded.
    pub best_measurements: Option<Vec<f64>>,
    /// Evaluation telemetry: simulator calls, failures by kind, retry and
    /// recovery counts.
    pub stats: EvalStats,
    /// Self-healing telemetry: rollbacks, clipped/skipped updates,
    /// trust-region re-seeds, surrogate fallbacks.
    pub health: HealthStats,
}

/// A search agent: consumes a problem and a budget, returns an outcome.
///
/// Implementations must be deterministic given `seed`.
pub trait Searcher {
    /// Short agent name for report tables (`"random"`, `"ppo"`, `"trm"`).
    fn name(&self) -> &str;

    /// Runs one search on the problem's **first corner** (single-condition
    /// protocol, as in Table I). Multi-corner strategies are exercised
    /// through their own APIs.
    fn search(&mut self, problem: &SizingProblem, budget: SearchBudget, seed: u64) -> SearchOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_cap() {
        assert_eq!(SearchBudget::default().max_sims, 10_000);
    }
}

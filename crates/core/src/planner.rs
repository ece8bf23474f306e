//! Monte-Carlo sampling planner (paper §IV-B, Algorithm 1 lines 9–11).
//!
//! Instead of running an inner optimizer over the surrogate, the agent
//! exploits the network's cheap inference: sample `m` grid points inside
//! the trust region, score each with `Value ∘ f_NN`, and propose the
//! argmax — "a more vanilla Monte Carlo sampling-based planning".

use crate::approximator::{Scorer, SpiceApproximator};
use asdex_env::{DesignSpace, SpecSet, ValueFn};
use asdex_rng::Rng;

/// A candidate the planner proposes.
#[derive(Debug, Clone, PartialEq)]
pub struct Proposal {
    /// Normalized (grid-snapped) coordinates.
    pub x: Vec<f64>,
    /// Model-predicted measurements.
    pub predicted: Vec<f64>,
    /// Value of the predicted measurements.
    pub predicted_value: f64,
}

/// Monte-Carlo planner over a trust region.
#[derive(Debug, Clone, Copy)]
pub struct McPlanner {
    /// Number of candidates sampled per planning step.
    pub samples: usize,
}

impl McPlanner {
    /// Creates a planner drawing `samples` candidates per step.
    pub fn new(samples: usize) -> Self {
        McPlanner { samples }
    }

    /// Proposes the best candidate inside the ∞-norm ball of `radius`
    /// around `center`, as scored by the model + value function. Points
    /// equal to the center are skipped so the search always moves;
    /// returns `None` when the region contains no other grid point.
    #[allow(clippy::too_many_arguments)] // mirrors the planning-step signature of Algorithm 1
    pub fn propose<R: Rng + ?Sized>(
        &self,
        space: &DesignSpace,
        center: &[f64],
        radius: f64,
        model: &SpiceApproximator,
        value_fn: &ValueFn,
        specs: &SpecSet,
        rng: &mut R,
    ) -> Option<Proposal> {
        let mut scorer = Scorer::new(model);
        let mut best: Option<Proposal> = None;
        for _ in 0..self.samples {
            let x = space.sample_within(rng, center, radius);
            if x == center {
                continue;
            }
            let predicted = scorer.predict(&x);
            let predicted_value = value_fn.value(predicted, specs);
            if best.as_ref().is_none_or(|b| predicted_value > b.predicted_value) {
                best = Some(Proposal { x, predicted: predicted.to_vec(), predicted_value });
            }
        }
        best
    }

    /// Multi-corner variant: scores a candidate by the **minimum**
    /// predicted value across all active corners' models — the paper's
    /// "complete assignments with the lowest expected value" rule for
    /// searches covering several PVT conditions simultaneously.
    #[allow(clippy::too_many_arguments)]
    pub fn propose_multi<R: Rng + ?Sized>(
        &self,
        space: &DesignSpace,
        center: &[f64],
        radius: f64,
        models: &[&SpiceApproximator],
        value_fn: &ValueFn,
        specs: &SpecSet,
        rng: &mut R,
    ) -> Option<Proposal> {
        let mut scorers: Vec<Scorer> = models.iter().map(|m| Scorer::new(m)).collect();
        let mut best: Option<Proposal> = None;
        for _ in 0..self.samples {
            let x = space.sample_within(rng, center, radius);
            if x == center {
                continue;
            }
            let mut worst_value = f64::INFINITY;
            let mut worst = None;
            for (k, scorer) in scorers.iter_mut().enumerate() {
                let v = value_fn.value(scorer.predict(&x), specs);
                if v < worst_value {
                    worst_value = v;
                    worst = Some(k);
                }
            }
            if best.as_ref().is_none_or(|b| worst_value > b.predicted_value) {
                let predicted = worst.map_or_else(Vec::new, |k| scorers[k].predicted().to_vec());
                best = Some(Proposal { x, predicted, predicted_value: worst_value });
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdex_env::{Param, Spec};
    use asdex_rng::rngs::StdRng;
    use asdex_rng::SeedableRng;

    fn space() -> DesignSpace {
        DesignSpace::new(vec![
            Param::linear("a", 0.0, 1.0, 101).unwrap(),
            Param::linear("b", 0.0, 1.0, 101).unwrap(),
        ])
        .unwrap()
    }

    /// Model trained so prediction ≈ −distance² from (0.7, 0.7).
    fn trained_model() -> SpiceApproximator {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = SpiceApproximator::new(2, 1, 32, 0.003, &mut rng);
        for i in 0..12 {
            for j in 0..12 {
                let x = vec![0.4 + 0.05 * i as f64 / 2.0, 0.4 + 0.05 * j as f64 / 2.0];
                let d2 = (x[0] - 0.7f64).powi(2) + (x[1] - 0.7f64).powi(2);
                m.push(x, vec![10.0 - 20.0 * d2]);
            }
        }
        m.fit(200);
        m
    }

    #[test]
    fn proposes_toward_model_optimum() {
        let space = space();
        let model = trained_model();
        let specs = SpecSet::new(vec![Spec::at_least(0, "score", 10.0)]);
        let value_fn = ValueFn::default();
        let mut rng = StdRng::seed_from_u64(1);
        let center = vec![0.5, 0.5];
        let p = McPlanner::new(400)
            .propose(&space, &center, 0.15, &model, &value_fn, &specs, &mut rng)
            .expect("found a candidate");
        // The proposal should move toward (0.7, 0.7) within the region.
        let d_before = (0.5f64 - 0.7).hypot(0.5 - 0.7);
        let d_after = (p.x[0] - 0.7f64).hypot(p.x[1] - 0.7);
        assert!(d_after < d_before, "moved toward the optimum: {:?}", p.x);
        assert!((p.x[0] - 0.5).abs() <= 0.15 + 0.006, "stayed in region");
    }

    #[test]
    fn degenerate_region_returns_none() {
        // Radius smaller than a grid step around a center: only the center
        // itself is reachable.
        let space = DesignSpace::new(vec![Param::linear("a", 0.0, 1.0, 2).unwrap()]).unwrap();
        let model = {
            let mut rng = StdRng::seed_from_u64(5);
            SpiceApproximator::new(1, 1, 4, 0.003, &mut rng)
        };
        let specs = SpecSet::new(vec![Spec::at_least(0, "s", 0.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let p = McPlanner::new(50).propose(&space, &[0.0], 0.05, &model, &ValueFn::default(), &specs, &mut rng);
        assert!(p.is_none());
    }

    #[test]
    fn multi_corner_uses_worst_case() {
        let space = space();
        // Two models disagreeing: one peaks at (0.7,0.7), the other is the
        // constant −100 (always bad) — worst-case scoring must follow the
        // pessimistic model and give a very low predicted value.
        let good = trained_model();
        let mut rng = StdRng::seed_from_u64(9);
        let mut bad = SpiceApproximator::new(2, 1, 8, 0.003, &mut rng);
        for i in 0..10 {
            bad.push(vec![0.1 * i as f64, 0.5], vec![-100.0]);
        }
        bad.fit(50);
        let specs = SpecSet::new(vec![Spec::at_least(0, "score", 10.0)]);
        let mut rng = StdRng::seed_from_u64(2);
        let p = McPlanner::new(200)
            .propose_multi(&space, &[0.5, 0.5], 0.2, &[&good, &bad], &ValueFn::default(), &specs, &mut rng)
            .expect("candidate");
        assert!(p.predicted_value < -0.5, "worst-case dominated: {}", p.predicted_value);
    }
}

//! Reward/value engineering (paper §IV-D).
//!
//! The value of a measurement vector is the sum of normalized per-spec
//! contributions, each clipped at zero once its spec is satisfied:
//!
//! ```text
//! contrib_i = clamp( slack_i / (|m_i| + |t_i| + ε), lo, 0 )
//! value     = Σ_i contrib_i            ∈ [N·lo, 0]
//! ```
//!
//! `value == 0` exactly when the assignment is consistent (all constraints
//! met), which is the CSP success condition. Clipping at zero prevents
//! over-designing one spec from masking a violation of another — the
//! trade-off failure mode the paper blames for model-free agents getting
//! stuck (Table I discussion).
//!
//! Values **never participate in training** of the model-based agent; they
//! only rank candidates, so their exact shape does not affect model
//! convergence — the property the paper highlights against actor-critic
//! methods.

use crate::spec::SpecSet;

/// The paper's normalized-sum value function.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueFn {
    /// Lower clip per spec contribution (default −1).
    pub contribution_floor: f64,
    /// Optional per-spec weights (parallel to the spec set); `None` means
    /// the paper's uniform "naive tactic". This is the hook for the
    /// second-stage value function of §IV-D, which "explicitly encode\[s\]
    /// the importance of each measurement once the agent enters an optimal
    /// local area".
    pub weights: Option<Vec<f64>>,
}

impl Default for ValueFn {
    fn default() -> Self {
        ValueFn { contribution_floor: -1.0, weights: None }
    }
}

impl ValueFn {
    /// Creates the default value function.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a weighted value function — the paper's proposed
    /// second-stage refinement. Weight `k` scales spec `k`'s contribution;
    /// satisfied specs still contribute exactly 0, so the feasibility
    /// condition is unchanged.
    pub fn with_weights(weights: Vec<f64>) -> Self {
        ValueFn { contribution_floor: -1.0, weights: Some(weights) }
    }

    /// Value of a measurement vector against a spec set; `0.0` iff all
    /// specs are satisfied, strictly negative otherwise.
    ///
    /// Non-finite measurements (failed simulations propagated as NaN)
    /// contribute the floor, so broken points rank below every valid one.
    ///
    /// # Example
    ///
    /// ```
    /// use asdex_env::spec::{Spec, SpecSet};
    /// use asdex_env::value::ValueFn;
    ///
    /// let specs = SpecSet::new(vec![Spec::at_least(0, "gain", 60.0)]);
    /// let v = ValueFn::new();
    /// assert_eq!(v.value(&[65.0], &specs), 0.0);
    /// assert!(v.value(&[30.0], &specs) < 0.0);
    /// ```
    pub fn value(&self, measurements: &[f64], specs: &SpecSet) -> f64 {
        specs
            .specs()
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let weight = self.weights.as_ref().and_then(|w| w.get(k)).copied().unwrap_or(1.0);
                let m = measurements[s.measurement];
                if !m.is_finite() {
                    return weight * self.contribution_floor;
                }
                let denom = m.abs() + s.target.abs() + 1e-12;
                weight * (s.slack(m) / denom).clamp(self.contribution_floor, 0.0)
            })
            .sum()
    }

    /// Worst possible value for a spec set — what a failed simulation is
    /// assigned.
    pub fn failure_value(&self, specs: &SpecSet) -> f64 {
        match &self.weights {
            Some(w) => {
                self.contribution_floor
                    * specs
                        .specs()
                        .iter()
                        .enumerate()
                        .map(|(k, _)| w.get(k).copied().unwrap_or(1.0))
                        .sum::<f64>()
            }
            None => self.contribution_floor * specs.len() as f64,
        }
    }

    /// `true` when the value indicates a consistent assignment.
    pub fn is_satisfied(value: f64) -> bool {
        value >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    fn specs() -> SpecSet {
        SpecSet::new(vec![
            Spec::at_least(0, "gain", 60.0),
            Spec::at_least(1, "pm", 60.0),
            Spec::at_most(2, "power", 1e-3),
        ])
    }

    #[test]
    fn satisfied_is_zero() {
        let v = ValueFn::new();
        assert_eq!(v.value(&[70.0, 65.0, 0.5e-3], &specs()), 0.0);
        assert!(ValueFn::is_satisfied(0.0));
    }

    #[test]
    fn violations_are_negative_and_additive() {
        let v = ValueFn::new();
        let one = v.value(&[50.0, 65.0, 0.5e-3], &specs());
        let two = v.value(&[50.0, 40.0, 0.5e-3], &specs());
        assert!(one < 0.0);
        assert!(two < one, "more violations, lower value");
        assert!(!ValueFn::is_satisfied(one));
    }

    #[test]
    fn over_design_does_not_buy_slack() {
        let v = ValueFn::new();
        // Massive gain cannot offset a power violation.
        let a = v.value(&[200.0, 65.0, 2e-3], &specs());
        let b = v.value(&[61.0, 65.0, 2e-3], &specs());
        assert!((a - b).abs() < 1e-12, "satisfied specs all contribute exactly 0");
    }

    #[test]
    fn closer_is_better() {
        let v = ValueFn::new();
        let far = v.value(&[10.0, 65.0, 0.5e-3], &specs());
        let near = v.value(&[55.0, 65.0, 0.5e-3], &specs());
        assert!(near > far);
    }

    #[test]
    fn nan_measurement_gets_floor() {
        let v = ValueFn::new();
        let val = v.value(&[f64::NAN, 65.0, 0.5e-3], &specs());
        assert_eq!(val, -1.0);
    }

    #[test]
    fn failure_value_is_worst_case() {
        let v = ValueFn::new();
        let fail = v.failure_value(&specs());
        assert_eq!(fail, -3.0);
        // Any real evaluation is at least as good.
        assert!(v.value(&[-1e9, -1e9, 1e9], &specs()) >= fail);
    }

    #[test]
    fn weights_scale_violations_only() {
        let specs = SpecSet::new(vec![Spec::at_least(0, "gain", 60.0), Spec::at_most(1, "power", 1.0)]);
        let uniform = ValueFn::new();
        let weighted = ValueFn::with_weights(vec![1.0, 5.0]);
        // Satisfied: both give exactly 0.
        assert_eq!(weighted.value(&[70.0, 0.5], &specs), 0.0);
        // Power violation is amplified 5×.
        let u = uniform.value(&[70.0, 2.0], &specs);
        let w = weighted.value(&[70.0, 2.0], &specs);
        assert!((w - 5.0 * u).abs() < 1e-12, "{w} vs 5×{u}");
        assert_eq!(weighted.failure_value(&specs), -6.0);
    }

    #[test]
    fn normalization_is_scale_free() {
        let v = ValueFn::new();
        // The same 50% shortfall scores the same regardless of units.
        let s1 = SpecSet::new(vec![Spec::at_least(0, "a", 100.0)]);
        let s2 = SpecSet::new(vec![Spec::at_least(0, "b", 1e-6)]);
        let v1 = v.value(&[50.0], &s1);
        let v2 = v.value(&[0.5e-6], &s2);
        // The ε in the denominator perturbs tiny-unit specs slightly.
        assert!((v1 - v2).abs() < 1e-5);
    }
}

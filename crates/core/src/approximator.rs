//! The SPICE function approximator `f_NN(X; θ)` — paper eq. (3)/(4).
//!
//! A small feed-forward network maps normalized design-space coordinates
//! to circuit measurements, trained online with MSE (eq. 4) on the points
//! the agent has already paid a simulator call for. Measurements are
//! standardized with a running [`Normalizer`] so the regression is not
//! dominated by the largest unit.

use asdex_nn::{
    mse, mse_output_grad_into, Activation, Adam, GradGuard, Gradients, GuardOutcome, Mlp,
    Normalizer, Optimizer, Trace, TrainHealth, UpdateClass,
};
use asdex_rng::Rng;

/// Outcome of one guarded [`SpiceApproximator::fit`] call: the final loss
/// plus what the numeric guards did while producing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitReport {
    /// Final-epoch mean training loss (normalized units).
    pub loss: f64,
    /// Per-sample gradients clipped to the global-norm ceiling.
    pub clipped: usize,
    /// Per-sample updates skipped because the gradient was non-finite.
    pub nonfinite: usize,
    /// Sentinel classification of the fit as a whole.
    pub class: UpdateClass,
}

impl FitReport {
    fn healthy_empty() -> Self {
        FitReport { loss: 0.0, clipped: 0, nonfinite: 0, class: UpdateClass::Ok }
    }
}

/// Portable snapshot of a trained approximator: the network weights plus
/// the input/output standardization statistics they were trained against.
/// Transferring weights without their normalizers would scramble the
/// learned function, so porting (paper §V-C) always moves them together.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// Flattened network parameters.
    pub weights: Vec<f64>,
    /// Input standardizer state.
    pub in_norm: Normalizer,
    /// Output standardizer state.
    pub out_norm: Normalizer,
}

/// One trajectory entry: a point the simulator was consulted on.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Normalized design coordinates.
    pub x: Vec<f64>,
    /// Raw measurements from the simulator.
    pub y: Vec<f64>,
}

/// Online regression model imitating the SPICE simulator on the local
/// region (paper §IV-B).
///
/// # Example
///
/// ```
/// use asdex_core::SpiceApproximator;
/// use asdex_rng::SeedableRng;
///
/// let mut rng = asdex_rng::rngs::StdRng::seed_from_u64(0);
/// let mut model = SpiceApproximator::new(2, 1, 32, 0.003, &mut rng);
/// for k in 0..20 {
///     let x = vec![k as f64 / 19.0, 0.5];
///     let y = vec![3.0 * x[0] + 1.0];
///     model.push(x, y);
/// }
/// model.fit(200);
/// let pred = model.predict(&[0.5, 0.5]);
/// assert!((pred[0] - 2.5).abs() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct SpiceApproximator {
    net: Mlp,
    adam: Adam,
    in_norm: Normalizer,
    out_norm: Normalizer,
    trajectory: Vec<Sample>,
    n_in: usize,
    n_out: usize,
    window: usize,
    guard: GradGuard,
    sentinel: TrainHealth,
    last_fit: FitReport,
}

impl SpiceApproximator {
    /// Creates an approximator for `n_in` parameters and `n_out`
    /// measurements, with one hidden layer of `hidden` tanh units (the
    /// paper's "simple feed-forward network with 3 layers").
    pub fn new<R: Rng + ?Sized>(n_in: usize, n_out: usize, hidden: usize, lr: f64, rng: &mut R) -> Self {
        SpiceApproximator {
            net: Mlp::new(&[n_in, hidden, hidden, n_out], Activation::Tanh, rng),
            adam: Adam::new(lr),
            in_norm: Normalizer::new(n_in),
            out_norm: Normalizer::new(n_out),
            trajectory: Vec::new(),
            n_in,
            n_out,
            window: 128,
            guard: GradGuard::default(),
            // Standardized-MSE losses sit near 1 untrained and well below
            // 0.1 once converged; an 8× jump over max(median, 0.05) is an
            // unambiguous regime break (e.g. the first poisoned target
            // discontinuously re-scaling the output normalizer).
            sentinel: TrainHealth::default().with_thresholds(8.0, 0.05),
            last_fit: FitReport::healthy_empty(),
        }
    }

    /// Limits training to the most recent `window` trajectory samples —
    /// the local model only needs the local landscape, and a bounded
    /// window keeps each iteration O(window) instead of O(trajectory).
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// Number of trajectory samples.
    pub fn len(&self) -> usize {
        self.trajectory.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.trajectory.is_empty()
    }

    /// The recorded trajectory.
    pub fn trajectory(&self) -> &[Sample] {
        &self.trajectory
    }

    /// Records a simulated point (Algorithm 1, line 7).
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the declared measurement count.
    pub fn push(&mut self, x: Vec<f64>, y: Vec<f64>) {
        assert_eq!(y.len(), self.n_out, "measurement dimension mismatch");
        assert_eq!(x.len(), self.n_in, "parameter dimension mismatch");
        self.in_norm.observe(&x);
        self.out_norm.observe(&y);
        self.trajectory.push(Sample { x, y });
    }

    /// Runs `epochs` passes of Adam over the whole trajectory (Algorithm
    /// 1, line 8). Returns the final mean training loss (normalized
    /// units), or 0 when the trajectory is empty.
    ///
    /// Every per-sample gradient passes through the [`GradGuard`] first:
    /// a non-finite gradient skips its optimizer step (keeping Adam's
    /// moments clean), an over-norm one is clipped. The fit as a whole is
    /// classified by the running-median [`TrainHealth`] sentinel; read
    /// the result with [`SpiceApproximator::last_fit`].
    pub fn fit(&mut self, epochs: usize) -> f64 {
        if self.trajectory.is_empty() {
            self.last_fit = FitReport::healthy_empty();
            return 0.0;
        }
        let mut last = 0.0;
        let mut clipped = 0;
        let mut nonfinite = 0;
        let samples = &self.trajectory[self.trajectory.len().saturating_sub(self.window)..];
        let count = samples.len();
        let (n_in, n_out) = (self.n_in, self.n_out);
        // The normalizers stay put during a fit: standardize the window
        // once, not once per epoch.
        let (in_std, out_std) = (self.in_norm.std(), self.out_norm.std());
        let mut xs = vec![0.0; count * n_in];
        let mut ys = vec![0.0; count * n_out];
        for (k, s) in samples.iter().enumerate() {
            self.in_norm.normalize_into(&in_std, &s.x, &mut xs[k * n_in..][..n_in]);
            self.out_norm.normalize_into(&out_std, &s.y, &mut ys[k * n_out..][..n_out]);
        }
        let mut trace = Trace::default();
        let mut grads = Gradients::default();
        let mut output_grad = vec![0.0; n_out];
        for _ in 0..epochs {
            last = 0.0;
            for k in 0..count {
                let (x, y) = (&xs[k * n_in..][..n_in], &ys[k * n_out..][..n_out]);
                self.net.forward_into(x, &mut trace);
                last += mse(trace.output(), y);
                mse_output_grad_into(trace.output(), y, &mut output_grad);
                self.net.backward_into(&trace, &output_grad, &mut grads);
                match self.guard.apply(grads.flat_mut()) {
                    GuardOutcome::NonFinite => nonfinite += 1,
                    GuardOutcome::Clipped => {
                        clipped += 1;
                        self.adam.step(&mut self.net, grads.flat());
                    }
                    GuardOutcome::Ok => self.adam.step(&mut self.net, grads.flat()),
                }
            }
            last /= count as f64;
        }
        let guard_summary =
            if nonfinite > 0 { GuardOutcome::NonFinite } else { GuardOutcome::Ok };
        let mut class = self.sentinel.classify(last, guard_summary);
        if class == UpdateClass::Ok && clipped > 0 {
            class = UpdateClass::Clipped;
        }
        self.last_fit = FitReport { loss: last, clipped, nonfinite, class };
        last
    }

    /// The guard/sentinel report from the most recent
    /// [`SpiceApproximator::fit`] call.
    pub fn last_fit(&self) -> FitReport {
        self.last_fit
    }

    /// Multiplies the learning rate by `factor`, floored at `floor` —
    /// the rollback path anneals the step size so a re-trained model
    /// approaches the poisoned regime more cautiously.
    pub fn anneal_lr(&mut self, factor: f64, floor: f64) {
        self.adam.lr = (self.adam.lr * factor).max(floor);
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.adam.lr
    }

    /// Resets the optimizer's moment estimates (used on rollback: stale
    /// moments computed against poisoned gradients must not steer the
    /// restored weights).
    pub fn reset_optimizer(&mut self) {
        self.adam.reset();
    }

    /// Clears the loss-explosion sentinel's history (used on rollback,
    /// when upcoming losses follow a new regime).
    pub fn reset_health(&mut self) {
        self.sentinel.reset();
    }

    /// Predicts raw measurements at a normalized point.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        Scorer::new(self).predict(x).to_vec()
    }

    /// Clears the trajectory and optimizer state but keeps the network
    /// weights — used when a restart wants to retain what was learned.
    pub fn clear_trajectory(&mut self) {
        self.trajectory.clear();
        self.adam.reset();
        self.sentinel.reset();
        self.in_norm = Normalizer::new(self.n_in);
        self.out_norm = Normalizer::new(self.n_out);
    }

    /// Extracts the network weights (for the Table II porting study).
    pub fn weights(&self) -> Vec<f64> {
        self.net.flat_params()
    }

    /// Overwrites the network weights (for the Table II porting study).
    ///
    /// # Panics
    ///
    /// Panics if the weight count differs.
    pub fn set_weights(&mut self, weights: &[f64]) {
        self.net.set_flat_params(weights);
    }

    /// Snapshots the trained model — weights *and* normalizer statistics —
    /// for reuse on another process node (paper §V-C).
    pub fn export_state(&self) -> ModelState {
        ModelState {
            weights: self.net.flat_params(),
            in_norm: self.in_norm.clone(),
            out_norm: self.out_norm.clone(),
        }
    }

    /// Restores a snapshot from [`SpiceApproximator::export_state`].
    ///
    /// # Panics
    ///
    /// Panics if the weight count or normalizer dimensions differ.
    pub fn import_state(&mut self, state: &ModelState) {
        assert_eq!(state.in_norm.dim(), self.n_in, "input normalizer dimension mismatch");
        assert_eq!(state.out_norm.dim(), self.n_out, "output normalizer dimension mismatch");
        self.net.set_flat_params(&state.weights);
        self.in_norm = state.in_norm.clone();
        self.out_norm = state.out_norm.clone();
    }
}

/// Predicts many points against one model state through reused buffers:
/// the normalizer scales are computed once, and no point allocates.
pub(crate) struct Scorer<'m> {
    model: &'m SpiceApproximator,
    in_std: Vec<f64>,
    out_std: Vec<f64>,
    z: Vec<f64>,
    trace: Trace,
    predicted: Vec<f64>,
}

impl<'m> Scorer<'m> {
    pub(crate) fn new(model: &'m SpiceApproximator) -> Self {
        Scorer {
            model,
            in_std: model.in_norm.std(),
            out_std: model.out_norm.std(),
            z: vec![0.0; model.n_in],
            trace: Trace::default(),
            predicted: vec![0.0; model.n_out],
        }
    }

    /// [`SpiceApproximator::predict`] into the scorer's buffer.
    pub(crate) fn predict(&mut self, x: &[f64]) -> &[f64] {
        let m = self.model;
        m.in_norm.normalize_into(&self.in_std, x, &mut self.z);
        m.net.forward_into(&self.z, &mut self.trace);
        m.out_norm.denormalize_into(&self.out_std, self.trace.output(), &mut self.predicted);
        &self.predicted
    }

    /// The most recent prediction.
    pub(crate) fn predicted(&self) -> &[f64] {
        &self.predicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdex_rng::rngs::StdRng;
    use asdex_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn fits_local_quadratic() {
        let mut m = SpiceApproximator::new(2, 2, 32, 0.003, &mut rng());
        // A local patch of a 2-output function with very different scales.
        for i in 0..8 {
            for j in 0..8 {
                let x = vec![0.4 + 0.02 * i as f64, 0.4 + 0.02 * j as f64];
                let y = vec![1e6 * (x[0] * x[0] + x[1]), 1e-6 * (x[0] - x[1])];
                m.push(x, y);
            }
        }
        let loss = m.fit(300);
        assert!(loss < 0.05, "training loss {loss}");
        let pred = m.predict(&[0.47, 0.47]);
        let expect0 = 1e6 * (0.47 * 0.47 + 0.47);
        assert!((pred[0] - expect0).abs() / expect0 < 0.05, "{} vs {expect0}", pred[0]);
    }

    #[test]
    fn empty_fit_is_noop() {
        let mut m = SpiceApproximator::new(2, 1, 8, 0.003, &mut rng());
        assert_eq!(m.fit(10), 0.0);
        assert!(m.is_empty());
    }

    #[test]
    fn weights_round_trip() {
        let mut a = SpiceApproximator::new(2, 1, 8, 0.003, &mut rng());
        let mut b = SpiceApproximator::new(2, 1, 8, 0.003, &mut StdRng::seed_from_u64(99));
        assert_ne!(a.weights(), b.weights(), "different seeds differ");
        b.set_weights(&a.weights());
        assert_eq!(a.weights(), b.weights());
        // predictions only agree once normalizers agree (fresh = identity).
        let x = [0.3, 0.3];
        assert_eq!(a.predict(&x), b.predict(&x));
        a.push(vec![0.1, 0.1], vec![5.0]);
        a.clear_trajectory();
        assert!(a.is_empty());
        assert_eq!(a.predict(&x), b.predict(&x), "clear resets normalizer");
    }

    #[test]
    #[should_panic(expected = "measurement dimension mismatch")]
    fn push_checks_dimensions() {
        let mut m = SpiceApproximator::new(2, 2, 8, 0.003, &mut rng());
        m.push(vec![0.0, 0.0], vec![1.0]);
    }

    fn push_clean_patch(m: &mut SpiceApproximator) {
        for k in 0..40 {
            let x = vec![0.4 + 0.005 * k as f64, 0.5];
            let y = vec![3.0 * x[0] + 1.0];
            m.push(x, y);
        }
    }

    #[test]
    fn clean_fit_reports_zero_guard_events() {
        let mut m = SpiceApproximator::new(2, 1, 16, 0.003, &mut rng());
        push_clean_patch(&mut m);
        for _ in 0..8 {
            m.fit(20);
            let r = m.last_fit();
            assert_eq!(r.class, UpdateClass::Ok, "clean fit misclassified: {r:?}");
            assert_eq!(r.clipped, 0, "clean fit clipped gradients");
            assert_eq!(r.nonfinite, 0, "clean fit saw non-finite gradients");
        }
    }

    #[test]
    fn extreme_target_flags_loss_explosion() {
        let mut m = SpiceApproximator::new(2, 1, 16, 0.003, &mut rng());
        push_clean_patch(&mut m);
        // Build healthy history so the sentinel is armed and converged.
        for _ in 0..8 {
            m.fit(20);
        }
        assert!(m.last_fit().loss < 0.05, "model should have converged");
        // One huge-but-finite target discontinuously re-scales the output
        // normalizer; the next fit's loss jumps an order of magnitude.
        m.push(vec![0.45, 0.5], vec![-1e30]);
        m.fit(6);
        assert_eq!(
            m.last_fit().class,
            UpdateClass::LossExplosion,
            "poisoned fit not flagged: {:?}",
            m.last_fit()
        );
    }

    #[test]
    fn anneal_lr_halves_and_floors() {
        let mut m = SpiceApproximator::new(2, 1, 8, 0.008, &mut rng());
        m.anneal_lr(0.5, 1e-4);
        assert!((m.lr() - 0.004).abs() < 1e-12);
        for _ in 0..20 {
            m.anneal_lr(0.5, 1e-4);
        }
        assert!((m.lr() - 1e-4).abs() < 1e-15, "lr must floor at 1e-4");
    }
}

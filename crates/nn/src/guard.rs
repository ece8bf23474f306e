//! Numeric guards for the training loop: gradient clipping, non-finite
//! detection, and loss-explosion sentinels.
//!
//! Analog sizing trains its surrogate online on whatever the simulator
//! returns. A single huge-but-finite measurement (a near-singular bias
//! point, an injected fault) can send one backprop pass off to 1e60 and
//! silently corrupt every weight. The self-healing layer interposes two
//! small, deterministic mechanisms before any optimizer step:
//!
//! * [`GradGuard`] — rejects non-finite gradients outright and clips the
//!   rest to a global-norm ceiling, exactly once, before the step;
//! * [`TrainHealth`] — classifies each update's loss against a running
//!   median of recent healthy losses, flagging order-of-magnitude
//!   explosions so the owner can roll back to a last-good snapshot.
//!
//! Neither consumes randomness or wall-clock, so guarded training remains
//! bitwise deterministic given the seed — the thread-count and
//! crash/resume invariance contracts hold verbatim.

/// How one gradient fared against the guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardOutcome {
    /// Gradient finite and within the norm ceiling; apply as-is.
    Ok,
    /// Gradient finite but over the ceiling; it was rescaled in place and
    /// should be applied.
    Clipped,
    /// Gradient contained NaN/Inf; it must not be applied at all (an
    /// optimizer step would poison the moments and the weights).
    NonFinite,
}

/// Global-norm gradient clipping with non-finite rejection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradGuard {
    /// Global L2-norm ceiling; gradients above it are rescaled to it.
    pub max_norm: f64,
}

impl GradGuard {
    /// Creates a guard with the given global-norm ceiling.
    pub fn new(max_norm: f64) -> Self {
        assert!(max_norm > 0.0, "max_norm must be positive");
        GradGuard { max_norm }
    }

    /// Checks `grad` and clips it in place when its global norm exceeds
    /// the ceiling. Returns what happened; on [`GuardOutcome::NonFinite`]
    /// the gradient is left untouched and must be discarded by the caller.
    pub fn apply(&self, grad: &mut [f64]) -> GuardOutcome {
        // The common case in one vectorisable pass. Below, each computed
        // `(g/max_abs)²` is at most 1, so the computed sum is at most `n`
        // and the computed norm at most `fl(max_abs·fl(√n))`. When
        // `fl(|g|·fl(√n)) ≤ max_norm` holds for every `g` (which also
        // rules out NaN and ±Inf against a finite ceiling), the full
        // computation would return `Ok`; anything else takes it.
        let sqrt_n = (grad.len() as f64).sqrt();
        if self.max_norm.is_finite()
            && grad.iter().fold(true, |ok, g| ok & (g.abs() * sqrt_n <= self.max_norm))
        {
            return GuardOutcome::Ok;
        }
        if grad.iter().any(|g| !g.is_finite()) {
            return GuardOutcome::NonFinite;
        }
        // Overflow-safe global norm: factor out the largest magnitude so
        // squaring cannot hit +Inf even for components near f64::MAX.
        let max_abs = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        if max_abs == 0.0 {
            return GuardOutcome::Ok;
        }
        let norm = max_abs
            * grad
                .iter()
                .map(|g| {
                    let r = g / max_abs;
                    r * r
                })
                .sum::<f64>()
                .sqrt();
        if norm <= self.max_norm {
            return GuardOutcome::Ok;
        }
        let scale = self.max_norm / norm;
        for g in grad.iter_mut() {
            *g *= scale;
        }
        GuardOutcome::Clipped
    }
}

impl Default for GradGuard {
    /// A generous default ceiling: healthy surrogate/policy gradients in
    /// this workspace sit orders of magnitude below 1e3, so clean runs
    /// never clip while poisoned batches are still tamed.
    fn default() -> Self {
        GradGuard::new(1e3)
    }
}

/// Classification of one training update by [`TrainHealth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateClass {
    /// Loss finite and consistent with recent history.
    Ok,
    /// Gradient was clipped but the loss is otherwise healthy.
    Clipped,
    /// Loss or gradient contained NaN/Inf.
    NonFinite,
    /// Loss finite but an order of magnitude above the running median of
    /// recent healthy losses — the model is diverging.
    LossExplosion,
}

/// Running-median loss sentinel.
///
/// Keeps a short window of recent *healthy* losses and flags a new loss
/// as [`UpdateClass::LossExplosion`] when it exceeds
/// `explosion_factor × max(median, median_floor)`. Explosive and
/// non-finite losses are never pushed into the window, so one bad batch
/// cannot shift the baseline it is judged against.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainHealth {
    /// Multiple of the running median at which a loss counts as exploded.
    pub explosion_factor: f64,
    /// Floor on the median so near-zero converged losses don't make every
    /// tiny wobble look explosive.
    pub median_floor: f64,
    /// Updates observed before explosion detection arms.
    pub min_history: usize,
    window: Vec<f64>,
    capacity: usize,
}

impl TrainHealth {
    /// Creates a sentinel with the given window capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "window capacity must be at least 1");
        TrainHealth {
            explosion_factor: 32.0,
            median_floor: 0.1,
            min_history: 5,
            window: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// The same sentinel with different explosion thresholds — lower
    /// `explosion_factor`/`median_floor` make it more sensitive.
    pub fn with_thresholds(mut self, explosion_factor: f64, median_floor: f64) -> Self {
        assert!(explosion_factor > 1.0, "explosion factor must exceed 1");
        assert!(median_floor >= 0.0, "median floor must be non-negative");
        self.explosion_factor = explosion_factor;
        self.median_floor = median_floor;
        self
    }

    /// Classifies one update given its loss and the gradient-guard
    /// outcome, updating the healthy-loss window as a side effect.
    pub fn classify(&mut self, loss: f64, guard: GuardOutcome) -> UpdateClass {
        if guard == GuardOutcome::NonFinite || !loss.is_finite() {
            return UpdateClass::NonFinite;
        }
        if self.window.len() >= self.min_history {
            let threshold = self.explosion_factor * self.median().max(self.median_floor);
            if loss > threshold {
                return UpdateClass::LossExplosion;
            }
        }
        self.push(loss);
        if guard == GuardOutcome::Clipped {
            UpdateClass::Clipped
        } else {
            UpdateClass::Ok
        }
    }

    /// Median of the healthy-loss window (0.0 when empty).
    pub fn median(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let mut sorted = self.window.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("window holds finite losses"));
        let mid = sorted.len() / 2;
        if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            0.5 * (sorted[mid - 1] + sorted[mid])
        }
    }

    /// Number of healthy losses currently in the window.
    pub fn history_len(&self) -> usize {
        self.window.len()
    }

    /// Clears the loss history (e.g. after a rollback, when the upcoming
    /// losses will follow a new regime).
    pub fn reset(&mut self) {
        self.window.clear();
    }

    fn push(&mut self, loss: f64) {
        if self.window.len() == self.capacity {
            self.window.remove(0);
        }
        self.window.push(loss);
    }
}

impl Default for TrainHealth {
    fn default() -> Self {
        TrainHealth::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdex_rng::rngs::StdRng;
    use asdex_rng::{Rng, SeedableRng};

    /// `GradGuard::apply` before its one-pass fast path, verbatim: the
    /// reference every outcome and every resulting bit must match.
    fn reference_apply(guard: &GradGuard, grad: &mut [f64]) -> GuardOutcome {
        if grad.iter().any(|g| !g.is_finite()) {
            return GuardOutcome::NonFinite;
        }
        let max_abs = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        if max_abs == 0.0 {
            return GuardOutcome::Ok;
        }
        let norm = max_abs
            * grad.iter().map(|g| (g / max_abs) * (g / max_abs)).sum::<f64>().sqrt();
        if norm <= guard.max_norm {
            return GuardOutcome::Ok;
        }
        let scale = guard.max_norm / norm;
        for g in grad.iter_mut() {
            *g *= scale;
        }
        GuardOutcome::Clipped
    }

    /// The reference's computed global norm.
    fn reference_norm(grad: &[f64]) -> f64 {
        let max_abs = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        max_abs * grad.iter().map(|g| (g / max_abs) * (g / max_abs)).sum::<f64>().sqrt()
    }

    #[test]
    fn guard_matches_the_three_pass_reference_bit_for_bit() {
        // Gradients whose fast-path bound `max_abs·√n` sits exactly at,
        // one ulp below and one ulp above the ceiling.
        let edge = |n: usize, max_abs: f64| {
            let mut g: Vec<f64> =
                (0..n).map(|k| max_abs * (k as f64 + 1.0) / (n as f64 + 3.0)).collect();
            g[n / 2] = -max_abs;
            let at = max_abs * (n as f64).sqrt();
            (g, at)
        };
        let mut cases: Vec<(Vec<f64>, f64)> = Vec::new();
        for (n, max_abs) in [(1, 3.0), (2, 0.7), (4, 1.0), (7, 2.5), (2357, 0.031)] {
            let (g, at) = edge(n, max_abs);
            for ceiling in [at, at.next_down(), at.next_up()] {
                cases.push((g.clone(), ceiling));
            }
        }
        // A uniform gradient's true norm equals the bound, so here the
        // ceiling decides between the fast path, the full computation's
        // `Ok` and a clip.
        for n in [2, 3, 5, 9, 100] {
            let at = 0.1 * (n as f64).sqrt();
            for ceiling in [at, at.next_down(), at.next_up()] {
                cases.push((vec![0.1; n], ceiling));
            }
        }
        let specials: [&[f64]; 10] = [
            &[1.0, f64::NAN, 2.0],
            &[f64::NAN],
            &[f64::INFINITY, 0.0],
            &[0.0, f64::NEG_INFINITY],
            &[0.0, -0.0, 0.0],
            &[0.5],
            &[-7.0],
            &[1e200, -1e200],
            &[3.0, -4.0, 0.25, -0.0, 12.0, -1e-300],
            &[],
        ];
        for g in specials {
            for ceiling in [1e-3, 1.0, 5.0, 1e3, 1e300, f64::MAX] {
                cases.push((g.to_vec(), ceiling));
            }
        }
        // Mixed signs and magnitudes at the surrogate's size, where every
        // rounding of the norm shows in the clipped bits.
        let mut rng = StdRng::seed_from_u64(17);
        let mixed: Vec<f64> = (0..2357).map(|_| rng.gen_range(-1.0..1.0) * 0.37).collect();
        let norm = reference_norm(&mixed);
        for ceiling in [1e-3, 0.5 * norm, norm.next_down(), norm, norm.next_up(), 2.0 * norm] {
            cases.push((mixed.clone(), ceiling));
        }
        for n in 2..10 {
            for _ in 0..25 {
                let g: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let norm = reference_norm(&g);
                cases.push((g.clone(), 0.5 * norm));
                cases.push((g, norm.next_down()));
            }
        }
        // [fast-path Ok, full-computation Ok, Clipped, NonFinite]
        let mut seen = [0; 4];
        for (g, ceiling) in cases {
            let guard = GradGuard { max_norm: ceiling };
            let (mut ours, mut theirs) = (g.clone(), g.clone());
            let outcome = guard.apply(&mut ours);
            assert_eq!(outcome, reference_apply(&guard, &mut theirs), "{g:?} at {ceiling:e}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ours), bits(&theirs), "{g:?} at {ceiling:e}");
            let sqrt_n = (g.len() as f64).sqrt();
            let fast = g.iter().all(|g| g.abs() * sqrt_n <= ceiling);
            seen[match outcome {
                GuardOutcome::Ok if fast => 0,
                GuardOutcome::Ok => 1,
                GuardOutcome::Clipped => 2,
                GuardOutcome::NonFinite => 3,
            }] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "every path exercised: {seen:?}");
        // An infinite ceiling has no fast path: Inf and NaN still fail.
        let guard = GradGuard { max_norm: f64::INFINITY };
        assert_eq!(guard.apply(&mut [f64::INFINITY, 1.0]), GuardOutcome::NonFinite);
        assert_eq!(guard.apply(&mut [1e308, 1e308]), GuardOutcome::Ok);
    }

    #[test]
    fn guard_passes_small_gradients_untouched() {
        let guard = GradGuard::new(10.0);
        let mut g = vec![1.0, -2.0, 2.0];
        let before = g.clone();
        assert_eq!(guard.apply(&mut g), GuardOutcome::Ok);
        assert_eq!(g, before);
    }

    #[test]
    fn guard_clips_to_the_ceiling() {
        let guard = GradGuard::new(1.0);
        let mut g = vec![3.0, 4.0]; // norm 5
        assert_eq!(guard.apply(&mut g), GuardOutcome::Clipped);
        let norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-12, "clipped norm {norm}");
        assert!((g[0] / g[1] - 3.0 / 4.0).abs() < 1e-12, "direction preserved");
    }

    #[test]
    fn guard_rejects_non_finite_without_mutating() {
        let guard = GradGuard::new(1.0);
        let mut g = vec![1.0, f64::NAN];
        assert_eq!(guard.apply(&mut g), GuardOutcome::NonFinite);
        assert_eq!(g[0], 1.0);
        let mut g = vec![f64::INFINITY, 0.0];
        assert_eq!(guard.apply(&mut g), GuardOutcome::NonFinite);
    }

    #[test]
    fn guard_survives_near_max_components() {
        // A naive Σg² would overflow to +Inf here and break the rescale.
        let guard = GradGuard::new(1.0);
        let mut g = vec![1e200, -1e200];
        assert_eq!(guard.apply(&mut g), GuardOutcome::Clipped);
        assert!(g.iter().all(|v| v.is_finite()));
        let norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-9, "clipped norm {norm}");
    }

    #[test]
    fn guard_zero_gradient_is_ok() {
        let guard = GradGuard::new(1.0);
        let mut g = vec![0.0, 0.0];
        assert_eq!(guard.apply(&mut g), GuardOutcome::Ok);
    }

    #[test]
    fn health_flags_explosions_after_warmup() {
        let mut h = TrainHealth::new(8);
        for _ in 0..6 {
            assert_eq!(h.classify(0.5, GuardOutcome::Ok), UpdateClass::Ok);
        }
        // 0.5 median, floor 0.1 → threshold 16; a 100× jump must flag.
        assert_eq!(h.classify(50.0, GuardOutcome::Ok), UpdateClass::LossExplosion);
        // The explosive loss was not pushed: the median is unchanged and a
        // healthy loss still classifies as Ok.
        assert!((h.median() - 0.5).abs() < 1e-12);
        assert_eq!(h.classify(0.6, GuardOutcome::Ok), UpdateClass::Ok);
    }

    #[test]
    fn health_is_lenient_before_warmup() {
        let mut h = TrainHealth::new(8);
        // With fewer than min_history samples nothing is explosive.
        assert_eq!(h.classify(1e9, GuardOutcome::Ok), UpdateClass::Ok);
    }

    #[test]
    fn health_floor_tolerates_converged_losses() {
        let mut h = TrainHealth::new(8);
        for _ in 0..6 {
            h.classify(1e-6, GuardOutcome::Ok);
        }
        // Median ~1e-6 but the floor keeps the threshold at 3.2: a loss of
        // 1.0 is a wobble, not an explosion.
        assert_eq!(h.classify(1.0, GuardOutcome::Ok), UpdateClass::Ok);
        assert_eq!(h.classify(100.0, GuardOutcome::Ok), UpdateClass::LossExplosion);
    }

    #[test]
    fn health_propagates_guard_outcomes() {
        let mut h = TrainHealth::new(8);
        assert_eq!(h.classify(0.5, GuardOutcome::Clipped), UpdateClass::Clipped);
        assert_eq!(h.classify(f64::NAN, GuardOutcome::Ok), UpdateClass::NonFinite);
        assert_eq!(h.classify(0.5, GuardOutcome::NonFinite), UpdateClass::NonFinite);
    }

    #[test]
    fn health_reset_clears_history() {
        let mut h = TrainHealth::new(8);
        for _ in 0..6 {
            h.classify(0.5, GuardOutcome::Ok);
        }
        h.reset();
        assert_eq!(h.history_len(), 0);
        // Back to the lenient warmup regime.
        assert_eq!(h.classify(1e9, GuardOutcome::Ok), UpdateClass::Ok);
    }

    #[test]
    fn window_is_bounded() {
        let mut h = TrainHealth::new(4);
        for k in 0..20 {
            h.classify(0.1 + k as f64 * 0.01, GuardOutcome::Ok);
        }
        assert_eq!(h.history_len(), 4);
    }
}

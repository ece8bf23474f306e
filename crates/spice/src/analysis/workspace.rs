//! Reusable solver scratch space for repeated analyses.
//!
//! Sizing loops evaluate the same topology thousands of times; allocating
//! the Newton Jacobian, the complex AC admittance matrix, and the sweep's
//! frequency grid on every call is pure churn. A [`SolverWorkspace`] owns
//! a real and a complex [`Backend`] plus the right-hand sides and hands
//! them back dimension-matched, so a worker thread in a batched
//! evaluation pipeline pays the allocation (and, on the sparse backend,
//! symbolic analysis) cost once per topology instead of once per point.
//!
//! An AC sweep stamps once per sweep, not at each frequency point:
//! [`SolverWorkspace::linearize_ac`] assembles the system at ω = 0 (every
//! ω-independent value and the right-hand side) and then records, in
//! stamp order, the imaginary coefficient `c` of each reactive stamp
//! `re + j·ω·c`, resolved to its backend value index. Each point then
//! only re-sums those entries' imaginary parts as `ω·c` in the recorded
//! order. The sums are the ones re-stamping would compute, bit for bit:
//! real parts do not depend on ω, `ω·(−c)` is `−(ω·c)` exactly, and the
//! ±0.0 imaginary parts of purely real stamps leave a sum that starts at
//! +0.0 unchanged.

use super::ac::Sweep;
use super::engine::Engine;
use super::solver::{Backend, SolverChoice};
use crate::error::SpiceError;
use asdex_linalg::{Assembler, Complex};

/// Scratch buffers and solver state for the DC Newton loop, the transient
/// integration, and the AC sweep, reusable across calls. Buffers are
/// grow-only: shrinking the system re-uses the existing allocations.
///
/// Every buffer is zeroed by the assembly routines before use, so a
/// workspace carries no numerical state between calls — solving with a
/// fresh workspace and a reused one is bitwise identical (per backend;
/// see [`SolverChoice`]).
#[derive(Debug)]
pub struct SolverWorkspace {
    /// Real solver backend (DC / transient systems).
    pub(crate) real: Backend<f64>,
    /// Real right-hand side.
    pub(crate) z: Vec<f64>,
    /// Complex solver backend (AC systems).
    pub(crate) complex: Backend<Complex>,
    /// Complex right-hand side.
    pub(crate) zc: Vec<Complex>,
    /// The reactive stamps of the last linearized AC system in stamp
    /// order: backend value index and imaginary coefficient at ω = 1.
    ac_reactive: Vec<(usize, f64)>,
    /// Last expanded frequency grid, keyed by its sweep.
    freq_cache: Option<(Sweep, Vec<f64>)>,
}

impl Default for SolverWorkspace {
    fn default() -> Self {
        SolverWorkspace::new()
    }
}

impl SolverWorkspace {
    /// An empty workspace with the backend choice taken from the
    /// `ASDEX_SOLVER` environment variable (default: auto).
    pub fn new() -> Self {
        SolverWorkspace::with_choice(SolverChoice::from_env())
    }

    /// An empty workspace pinned to `choice`. Prefer this over mutating
    /// `ASDEX_SOLVER` in tests and benches — the environment is process
    /// global.
    pub fn with_choice(choice: SolverChoice) -> Self {
        SolverWorkspace {
            real: Backend::new(choice),
            z: Vec::new(),
            complex: Backend::new(choice),
            zc: Vec::new(),
            ac_reactive: Vec::new(),
            freq_cache: None,
        }
    }

    /// The backend choice this workspace was created with.
    pub fn choice(&self) -> SolverChoice {
        self.real.choice()
    }

    /// Prepares the real backend and right-hand side for `engine`'s
    /// system. Grow-only: a smaller system re-uses the allocations.
    pub(crate) fn ensure_dc(&mut self, engine: &Engine) {
        self.real.prepare(engine);
        let dim = engine.dim();
        if self.z.len() != dim {
            self.z.clear();
            self.z.resize(dim, 0.0);
        }
    }

    /// Prepares the complex backend and right-hand side for `engine`'s
    /// system. Grow-only: a smaller system re-uses the allocations.
    pub(crate) fn ensure_ac(&mut self, engine: &Engine) {
        self.complex.prepare(engine);
        let dim = engine.dim();
        if self.zc.len() != dim {
            self.zc.clear();
            self.zc.resize(dim, Complex::ZERO);
        }
    }

    /// Linearizes `engine`'s AC system around the operating point `x_op`
    /// for a whole sweep (see the module docs): the two `load_ac` calls
    /// of a sweep. Call after [`SolverWorkspace::ensure_ac`].
    pub(crate) fn linearize_ac(&mut self, engine: &Engine, x_op: &[f64]) {
        engine.load_ac(x_op, 0.0, self.complex.assembler(), &mut self.zc);
        self.complex.save_values();
        self.ac_reactive.clear();
        let mut recorder =
            ReactiveRecorder { backend: &self.complex, reactive: &mut self.ac_reactive };
        engine.load_ac(x_op, 1.0, &mut recorder, &mut self.zc);
    }

    /// Sets the linearized AC system to angular frequency `omega`, ready
    /// for the complex backend's `factor_solve`.
    pub(crate) fn load_ac_at(&mut self, omega: f64) {
        self.complex.restore_values();
        let vals = self.complex.values_mut();
        for &(i, _) in &self.ac_reactive {
            vals[i].im = 0.0;
        }
        for &(i, c) in &self.ac_reactive {
            vals[i].im += omega * c;
        }
    }

    /// The expanded frequency grid of `sweep`, served from the cache when
    /// the same sweep was expanded before.
    ///
    /// # Errors
    ///
    /// [`SpiceError::BadSweep`] as from [`Sweep::frequencies`].
    pub(crate) fn frequencies(&mut self, sweep: Sweep) -> Result<&[f64], SpiceError> {
        let hit = matches!(&self.freq_cache, Some((s, _)) if *s == sweep);
        if !hit {
            self.freq_cache = Some((sweep, sweep.frequencies()?));
        }
        // The cache was filled on the line above when it missed; surface a
        // typed error rather than panicking a worker if it is ever
        // observed empty.
        match &self.freq_cache {
            Some((_, freqs)) => Ok(freqs),
            None => Err(SpiceError::BadSweep {
                reason: "frequency cache unavailable".to_string(),
            }),
        }
    }
}

/// The assembler `linearize_ac` stamps the ω = 1 system into: it keeps
/// each stamp with a nonzero imaginary part — the reactive ones — as its
/// backend value index and that part, and discards the rest.
struct ReactiveRecorder<'a> {
    backend: &'a Backend<Complex>,
    reactive: &'a mut Vec<(usize, f64)>,
}

impl Assembler<Complex> for ReactiveRecorder<'_> {
    fn reset(&mut self) {}

    fn add(&mut self, row: usize, col: usize, value: Complex) {
        if value.im != 0.0 {
            // The ω = 0 load stamped this position already, so it is in
            // the backend's pattern.
            let index = self
                .backend
                .value_index(row, col)
                .expect("reactive stamp outside the assembled system");
            self.reactive.push((index, value.im));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    fn divider(stages: usize) -> Engine {
        let mut ckt = Circuit::new();
        let mut prev = ckt.node("n0");
        ckt.add_vsource("V1", prev, Circuit::GROUND, 1.0).unwrap();
        for i in 1..=stages {
            let next = ckt.node(&format!("n{i}"));
            ckt.add_resistor(&format!("R{i}"), prev, next, 1e3).unwrap();
            prev = next;
        }
        ckt.add_resistor("RL", prev, Circuit::GROUND, 1e3).unwrap();
        Engine::compile(&ckt).unwrap()
    }

    #[test]
    fn buffers_track_dim_without_shrinking_allocations() {
        let big = divider(6);
        let small = divider(2);
        let mut ws = SolverWorkspace::with_choice(SolverChoice::Dense);
        ws.ensure_dc(&big);
        assert_eq!(ws.z.len(), big.dim());
        let cap_before = ws.z.capacity();
        ws.ensure_dc(&small);
        assert_eq!(ws.z.len(), small.dim());
        assert_eq!(ws.z.capacity(), cap_before, "real rhs is grow-only");
        ws.ensure_ac(&big);
        assert_eq!(ws.zc.len(), big.dim());
        let cap_c = ws.zc.capacity();
        ws.ensure_ac(&small);
        assert_eq!(ws.zc.len(), small.dim());
        assert_eq!(ws.zc.capacity(), cap_c, "complex rhs is grow-only");
    }

    #[test]
    fn workspace_choice_is_pinned() {
        let ws = SolverWorkspace::with_choice(SolverChoice::Sparse);
        assert_eq!(ws.choice(), SolverChoice::Sparse);
        assert_eq!(ws.choice().label(), "sparse");
    }

    #[test]
    fn frequency_grid_is_cached_per_sweep() {
        let mut ws = SolverWorkspace::new();
        let s1 = Sweep::Decade { fstart: 1.0, fstop: 1e3, points_per_decade: 2 };
        let first = ws.frequencies(s1).unwrap().to_vec();
        let again = ws.frequencies(s1).unwrap().to_vec();
        assert_eq!(first, again);
        let s2 = Sweep::Linear { fstart: 1.0, fstop: 2.0, points: 2 };
        assert_eq!(ws.frequencies(s2).unwrap().len(), 2);
        // Switching back recomputes the decade grid identically.
        assert_eq!(ws.frequencies(s1).unwrap(), &first[..]);
    }

    #[test]
    fn bad_sweep_is_reported_not_cached() {
        let mut ws = SolverWorkspace::new();
        let bad = Sweep::Decade { fstart: 0.0, fstop: 1.0, points_per_decade: 1 };
        assert!(ws.frequencies(bad).is_err());
        let good = Sweep::Linear { fstart: 1.0, fstop: 2.0, points: 3 };
        assert_eq!(ws.frequencies(good).unwrap().len(), 3);
    }
}

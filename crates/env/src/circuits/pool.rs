//! The one MNA evaluator behind every simulated bench, with the engine
//! pool and the memo it owns.
//!
//! A bench contributes only its circuit at `(x, corner)` and the
//! measurements it reads off the converged operating point, through
//! [`MnaBench`]. [`MnaEvaluator`] does everything else: memo lookup and
//! store, engine-slot take and put, restamp-or-compile, the retry
//! ladder's solver options and initial guess, the operating point, and
//! the finiteness guard. The two-stage opamp, the LDO and every netlist
//! bench therefore run one solve path; two of them agree bit for bit
//! exactly when their circuits do.
//!
//! Compiling a netlist and allocating solver matrices dominates the cost
//! of a single evaluation once the Newton loop converges quickly. Every
//! candidate an agent proposes shares the circuit *topology* — only
//! element values change with `(x, corner)` — so each evaluator keeps a
//! pool of `(Engine, SolverWorkspace)` slots: a worker takes a slot,
//! restamps the compiled engine in place (full recompile on first use or
//! topology mismatch), solves reusing the workspace buffers, and returns
//! the slot. The pool is a plain `Mutex<Vec<_>>` held only around
//! pop/push, so batch workers never serialize on it during a solve.
//!
//! Restamping and buffer reuse are bitwise-exact (`Engine::restamp` and
//! `SolverWorkspace` zero all state a solve reads), so pooled evaluation
//! returns the same `Evaluation`s as compiling from scratch every call.
//!
//! The evaluator also carries a [`SimCache`]: a bounded memo table over
//! successful simulations. The [`Evaluator`] contract requires results to
//! be deterministic in `(x, corner, effort)`, and the design space is a
//! finite grid, so searches genuinely revisit points — a trust-region
//! agent re-scores its incumbent while the PVT loop re-verifies
//! candidates corner by corner. A cache hit returns the exact measurement
//! vector a fresh solve would compute, so memoization changes wall-clock
//! only, never results, budgets, or telemetry. Failures are never cached:
//! the retry ladder must re-run them at escalated effort (a different
//! cache key anyway).

use crate::corner::PvtCorner;
use crate::error::EnvError;
use crate::problem::Evaluator;
use crate::robust::EvalEffort;
use asdex_spice::analysis::{Engine, OpOptions, OpResult, SolverChoice, SolverWorkspace};
use asdex_spice::measure::ensure_finite;
use asdex_spice::Circuit;
use std::collections::HashMap;
use std::sync::Mutex;

/// What one bench contributes to [`MnaEvaluator`].
pub(crate) trait MnaBench: Send + Sync {
    /// Names of the measurement vector's entries, in order.
    const NAMES: &'static [&'static str];

    /// The bench's circuit for physical parameters `x` at `corner`.
    fn circuit(&self, x: &[f64], corner: &PvtCorner) -> Result<Circuit, EnvError>;

    /// Reads the measurement vector off `circuit`'s converged operating
    /// point `op`, reading operating-point quantities before any AC
    /// analysis consumes `op`.
    fn measure(
        &self,
        circuit: &Circuit,
        engine: &Engine,
        op: OpResult,
        ws: &mut SolverWorkspace,
        corner: &PvtCorner,
    ) -> Result<Vec<f64>, EnvError>;
}

/// The MNA-backed [`Evaluator`] of a bench: pooled engine slots,
/// restamp-in-place, and the bounded simulation memo.
pub(crate) struct MnaEvaluator<B> {
    bench: B,
    names: Vec<String>,
    pool: EnginePool,
    cache: SimCache,
}

impl<B: MnaBench> MnaEvaluator<B> {
    /// Wraps a bench.
    pub fn new(bench: B) -> Self {
        MnaEvaluator {
            bench,
            names: B::NAMES.iter().map(|s| (*s).to_string()).collect(),
            pool: EnginePool::default(),
            cache: SimCache::default(),
        }
    }

    /// The solve proper, running inside a pooled engine/workspace slot.
    fn solve(
        &self,
        slot: &mut EngineSlot,
        x: &[f64],
        corner: &PvtCorner,
        effort: EvalEffort,
    ) -> Result<Vec<f64>, EnvError> {
        let circuit = self.bench.circuit(x, corner)?;
        let EngineSlot { engine, ws } = slot;
        let engine = match engine.as_mut() {
            Some(eng) => {
                eng.restamp(&circuit)?;
                eng
            }
            None => engine.insert(Engine::compile(&circuit)?),
        };
        let mut opts = OpOptions::default();
        effort.apply(&mut opts);
        let initial = effort.initial_guess(engine.dim());
        let op = engine.operating_point_with(&opts, initial.as_deref(), ws)?;
        let meas = self.bench.measure(&circuit, engine, op, ws, corner)?;
        ensure_finite(&meas, "measurements")?;
        Ok(meas)
    }
}

impl<B: MnaBench> Evaluator for MnaEvaluator<B> {
    fn measurement_names(&self) -> &[String] {
        &self.names
    }

    fn evaluate(&self, x: &[f64], corner: &PvtCorner) -> Result<Vec<f64>, EnvError> {
        self.evaluate_with_effort(x, corner, EvalEffort::default())
    }

    fn evaluate_with_effort(
        &self,
        x: &[f64],
        corner: &PvtCorner,
        effort: EvalEffort,
    ) -> Result<Vec<f64>, EnvError> {
        let key = SimCache::key(x, corner, effort);
        if let Some(meas) = self.cache.get(&key) {
            return Ok(meas);
        }
        let mut slot = self.pool.take();
        let result = self.solve(&mut slot, x, corner, effort);
        self.pool.put(slot);
        if let Ok(meas) = &result {
            self.cache.put(key, meas.clone());
        }
        result
    }

    fn set_solver(&self, choice: SolverChoice) {
        self.pool.set_choice(choice);
        self.cache.clear();
    }
}

/// One worker's reusable compiled engine plus solver scratch space.
#[derive(Default)]
struct EngineSlot {
    /// Compiled engine from a previous evaluation; `None` before first use.
    engine: Option<Engine>,
    /// Reusable Newton/AC matrices and the frequency-grid cache.
    ws: SolverWorkspace,
}

/// A lock-guarded stack of [`EngineSlot`]s, all carrying the pool's
/// pinned solver-backend choice.
#[derive(Default)]
struct EnginePool {
    slots: Mutex<Vec<EngineSlot>>,
    /// `None` defers to the `ASDEX_SOLVER` environment default at slot
    /// creation; `Some` pins every slot to an explicit choice.
    choice: Mutex<Option<SolverChoice>>,
}

impl EnginePool {
    /// Takes a slot, creating a fresh one when the pool is empty (or its
    /// lock was poisoned — evaluation must stay panic-free either way).
    fn take(&self) -> EngineSlot {
        if let Some(slot) = self.slots.lock().ok().and_then(|mut p| p.pop()) {
            return slot;
        }
        let ws = match self.choice.lock().ok().and_then(|c| *c) {
            Some(choice) => SolverWorkspace::with_choice(choice),
            None => SolverWorkspace::new(),
        };
        EngineSlot { engine: None, ws }
    }

    /// Returns a slot for reuse. Dropping it on lock poisoning is safe:
    /// the next `take` simply recompiles.
    fn put(&self, slot: EngineSlot) {
        if let Ok(mut p) = self.slots.lock() {
            p.push(slot);
        }
    }

    /// Pins the solver backend for every future slot and drops the
    /// existing ones (their workspaces carry the old backend). The memo
    /// must be cleared too: its key does not encode the solver choice,
    /// and backends agree only within solver tolerance, not bitwise.
    fn set_choice(&self, choice: SolverChoice) {
        if let Ok(mut c) = self.choice.lock() {
            *c = Some(choice);
        }
        if let Ok(mut p) = self.slots.lock() {
            p.clear();
        }
    }
}

/// Bounded memo table over successful deterministic simulations, keyed on
/// the exact bit pattern of `(x, corner, effort)`.
#[derive(Default)]
struct SimCache {
    map: Mutex<HashMap<Vec<u64>, Vec<f64>>>,
}

impl SimCache {
    /// Entry bound: at ~200 bytes per opamp-sized entry this caps the
    /// table near 7 MB. On overflow the table is cleared rather than
    /// evicted entry-by-entry — cache state never affects results, so any
    /// policy is sound, and clearing keeps the hot recent working set
    /// rebuilding cheaply.
    const MAX_ENTRIES: usize = 32_768;

    /// The memo key: every input the evaluator contract allows the result
    /// to depend on, bit-exact.
    fn key(x: &[f64], corner: &PvtCorner, effort: EvalEffort) -> Vec<u64> {
        let mut key = Vec::with_capacity(x.len() + 4);
        key.push(effort.attempt as u64);
        key.push(corner.process as u64);
        key.push(corner.vdd_scale.to_bits());
        key.push(corner.temp_celsius.to_bits());
        key.extend(x.iter().map(|v| v.to_bits()));
        key
    }

    /// The memoized measurement vector, if this exact point was solved
    /// before (`None` on a miss or a poisoned lock).
    fn get(&self, key: &[u64]) -> Option<Vec<f64>> {
        self.map.lock().ok()?.get(key).cloned()
    }

    /// Memoizes a successful solve. Silently drops the entry when the
    /// lock is poisoned — the next lookup just re-simulates.
    fn put(&self, key: Vec<u64>, meas: Vec<f64>) {
        if let Ok(mut map) = self.map.lock() {
            if map.len() >= Self::MAX_ENTRIES {
                map.clear();
            }
            map.insert(key, meas);
        }
    }

    /// Drops every memoized result — required when the solver backend
    /// changes, since the key does not encode it and backends agree only
    /// within solver tolerance.
    fn clear(&self) {
        if let Ok(mut map) = self.map.lock() {
            map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdex_spice::process::ProcessCorner;

    #[test]
    fn cache_roundtrip() {
        let cache = SimCache::default();
        let key = SimCache::key(&[1.0, 2.0], &PvtCorner::nominal(), EvalEffort::default());
        assert_eq!(cache.get(&key), None);
        cache.put(key.clone(), vec![3.0, 4.0]);
        assert_eq!(cache.get(&key), Some(vec![3.0, 4.0]));
    }

    #[test]
    fn key_separates_every_input() {
        let x = [1.0, 2.0];
        let nominal = PvtCorner::nominal();
        let base = SimCache::key(&x, &nominal, EvalEffort::default());
        let hot = PvtCorner { temp_celsius: 125.0, ..nominal };
        let ss = PvtCorner { process: ProcessCorner::Ss, ..nominal };
        let sag = PvtCorner { vdd_scale: 0.9, ..nominal };
        for other in [
            SimCache::key(&[1.0, 2.5], &nominal, EvalEffort::default()),
            SimCache::key(&x, &hot, EvalEffort::default()),
            SimCache::key(&x, &ss, EvalEffort::default()),
            SimCache::key(&x, &sag, EvalEffort::default()),
            SimCache::key(&x, &nominal, EvalEffort::attempt(1)),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn overflow_clears_and_keeps_serving() {
        let cache = SimCache::default();
        for i in 0..SimCache::MAX_ENTRIES {
            cache.put(vec![i as u64], vec![i as f64]);
        }
        // The table is full: the next insert clears, then stores its entry.
        cache.put(vec![u64::MAX], vec![7.0]);
        assert_eq!(cache.get(&[u64::MAX]), Some(vec![7.0]));
        assert_eq!(cache.get(&[0u64]), None, "old entries were dropped");
    }
}

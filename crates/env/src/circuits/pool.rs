//! The one MNA evaluator behind every simulated bench, with the engine
//! pool it owns.
//!
//! A bench contributes only its circuit at `(x, corner)` and the
//! measurements it reads off the converged operating point, through
//! [`MnaBench`]. [`MnaEvaluator`] does everything else: engine-slot take
//! and put, restamp-or-compile, the retry ladder's solver options and
//! initial guess, the operating point, and the finiteness guard. The
//! two-stage opamp, the LDO and every netlist bench therefore run one
//! solve path; two of them agree bit for bit exactly when their circuits
//! do.
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
//! The evaluator keeps no memo: every call solves. Repeats across the
//! campaigns of one daemon are served by the daemon's
//! [`crate::EvalStore`], one level up.

use crate::corner::PvtCorner;
use crate::error::EnvError;
use crate::problem::Evaluator;
use crate::robust::EvalEffort;
use asdex_spice::analysis::{Engine, OpOptions, OpResult, SolverChoice, SolverWorkspace};
use asdex_spice::measure::ensure_finite;
use asdex_spice::Circuit;
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

/// The MNA-backed [`Evaluator`] of a bench: pooled engine slots and
/// restamp-in-place.
pub(crate) struct MnaEvaluator<B> {
    bench: B,
    names: Vec<String>,
    pool: EnginePool,
}

impl<B: MnaBench> MnaEvaluator<B> {
    /// Wraps a bench.
    pub fn new(bench: B) -> Self {
        MnaEvaluator {
            bench,
            names: B::NAMES.iter().map(|s| (*s).to_string()).collect(),
            pool: EnginePool::default(),
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
        let mut slot = self.pool.take();
        let result = self.solve(&mut slot, x, corner, effort);
        self.pool.put(slot);
        result
    }

    fn set_solver(&self, choice: SolverChoice) {
        self.pool.set_choice(choice);
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
    /// existing ones (their workspaces carry the old backend).
    fn set_choice(&self, choice: SolverChoice) {
        if let Ok(mut c) = self.choice.lock() {
            *c = Some(choice);
        }
        if let Ok(mut p) = self.slots.lock() {
            p.clear();
        }
    }
}

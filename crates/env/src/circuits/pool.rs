//! The one MNA evaluator behind every simulated bench, with the solver
//! workspace pool it owns.
//!
//! A bench contributes only its circuit at `(x, corner)` and the
//! measurements it reads off the converged operating point, through
//! [`MnaBench`]. [`MnaEvaluator`] does everything else: workspace take
//! and put, compiling the circuit, the retry ladder's solver options and
//! initial guess, the operating point, and the finiteness guard. The
//! LDO and every netlist bench, the two-stage opamps included, therefore
//! run one solve path; two of them agree bit for bit exactly when their
//! circuits do.
//!
//! Every evaluation compiles its circuit with `Engine::compile`, the one
//! lowering of a circuit into the MNA engine, at well under one percent
//! of the cost of the operating point and AC sweep it feeds (DESIGN.md
//! §5.6 has the measurements). What is worth reusing is the solver
//! state, so each evaluator keeps a pool of `SolverWorkspace`s: a worker
//! takes one, solves in its buffers (and, on the sparse backend, its
//! symbolic factorization), and returns it. The pool is a plain
//! `Mutex<Vec<_>>` held only around pop/push, so batch workers never
//! serialize on it during a solve. A reused workspace zeroes all state a
//! solve reads, so pooled evaluation returns the same `Evaluation`s as a
//! fresh workspace every call.
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

/// The MNA-backed [`Evaluator`] of a bench: a compile and a solve in a
/// pooled workspace per call.
pub(crate) struct MnaEvaluator<B> {
    bench: B,
    names: Vec<String>,
    pool: WorkspacePool,
}

impl<B: MnaBench> MnaEvaluator<B> {
    /// Wraps a bench.
    pub fn new(bench: B) -> Self {
        MnaEvaluator {
            bench,
            names: B::NAMES.iter().map(|s| (*s).to_string()).collect(),
            pool: WorkspacePool::default(),
        }
    }

    /// The solve proper, running in a pooled workspace.
    fn solve(
        &self,
        ws: &mut SolverWorkspace,
        x: &[f64],
        corner: &PvtCorner,
        effort: EvalEffort,
    ) -> Result<Vec<f64>, EnvError> {
        let circuit = self.bench.circuit(x, corner)?;
        let engine = Engine::compile(&circuit)?;
        let mut opts = OpOptions::default();
        effort.apply(&mut opts);
        let initial = effort.initial_guess(engine.dim());
        let op = engine.operating_point_with(&opts, initial.as_deref(), ws)?;
        let meas = self.bench.measure(&circuit, &engine, op, ws, corner)?;
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
        let mut ws = self.pool.take();
        let result = self.solve(&mut ws, x, corner, effort);
        self.pool.put(ws);
        result
    }

    fn set_solver(&self, choice: SolverChoice) {
        self.pool.set_choice(choice);
    }
}

/// A lock-guarded stack of [`SolverWorkspace`]s, all carrying the pool's
/// pinned solver-backend choice.
#[derive(Default)]
struct WorkspacePool {
    workspaces: Mutex<Vec<SolverWorkspace>>,
    /// `None` defers to the `ASDEX_SOLVER` environment default at
    /// workspace creation; `Some` pins every workspace to an explicit
    /// choice.
    choice: Mutex<Option<SolverChoice>>,
}

impl WorkspacePool {
    /// Takes a workspace, creating a fresh one when the pool is empty (or
    /// its lock was poisoned — evaluation must stay panic-free either
    /// way).
    fn take(&self) -> SolverWorkspace {
        if let Some(ws) = self.workspaces.lock().ok().and_then(|mut p| p.pop()) {
            return ws;
        }
        match self.choice.lock().ok().and_then(|c| *c) {
            Some(choice) => SolverWorkspace::with_choice(choice),
            None => SolverWorkspace::new(),
        }
    }

    /// Returns a workspace for reuse. Dropping it on lock poisoning is
    /// safe: the next `take` simply creates a fresh one.
    fn put(&self, ws: SolverWorkspace) {
        if let Ok(mut p) = self.workspaces.lock() {
            p.push(ws);
        }
    }

    /// Pins the solver backend for every future workspace and drops the
    /// existing ones (they carry the old backend).
    fn set_choice(&self, choice: SolverChoice) {
        if let Ok(mut c) = self.choice.lock() {
            *c = Some(choice);
        }
        if let Ok(mut p) = self.workspaces.lock() {
            p.clear();
        }
    }
}

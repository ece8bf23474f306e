//! Nonlinear DC operating-point analysis: Newton–Raphson with gmin and
//! source stepping continuation.

use super::engine::{Engine, TranStep};
use super::workspace::SolverWorkspace;
use crate::circuit::{Circuit, NodeId};
use crate::error::SpiceError;

/// Cooperative watchdog for one analysis run: a cumulative ceiling on
/// Newton iterations across *every* continuation stage (or every transient
/// time step), plus an optional wall-clock deadline.
///
/// The iteration ceiling is the deterministic mechanism — two runs with
/// the same inputs hit it at exactly the same point, so results stay
/// bitwise reproducible. The wall-clock deadline is machine-dependent and
/// therefore `None` by default; enable it only when liveness matters more
/// than replayability (e.g. an interactive supervisor). When either limit
/// trips, the solve is abandoned with a typed [`SpiceError::Timeout`]
/// instead of a hung worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveBudget {
    /// Total Newton iterations allowed for one analysis call, summed over
    /// all continuation stages (op) or all time steps (tran).
    pub max_newton_iters_total: usize,
    /// Optional wall-clock deadline for one analysis call.
    pub max_wall: Option<std::time::Duration>,
}

impl Default for SolveBudget {
    fn default() -> Self {
        // Non-binding for healthy solves: a worst-case op continuation at
        // stock options spends ~5k iterations and dense transients tens of
        // thousands, both far below this ceiling. Only a genuinely
        // pathological loop reaches it.
        SolveBudget { max_newton_iters_total: 2_000_000, max_wall: None }
    }
}

impl SolveBudget {
    /// Scales the budget for retry rung `attempt` (0 = stock): the retry
    /// ladder escalates the deadline together with the per-stage iteration
    /// allowance, so an escalated attempt is never cut off earlier than the
    /// stock one.
    #[must_use]
    pub fn escalated(self, attempt: usize) -> Self {
        SolveBudget {
            max_newton_iters_total: self.max_newton_iters_total.saturating_mul(1 + attempt),
            max_wall: self.max_wall.map(|d| d.saturating_mul(1 + attempt as u32)),
        }
    }

    /// The wall-clock allowance a *supervisor* should grant one
    /// out-of-process solve at retry rung `attempt` — the same escalation
    /// the in-process `SolveMeter` watchdog applies, so a worker-pool
    /// deadline and the in-process deadline agree rung for rung. `None`
    /// when the budget is iteration-only (no wall deadline).
    #[must_use]
    pub fn wall_allowance(self, attempt: usize) -> Option<std::time::Duration> {
        self.escalated(attempt).max_wall
    }
}

/// Running meter for a [`SolveBudget`]: shared across the continuation
/// stages of one analysis call.
#[derive(Debug)]
pub(crate) struct SolveMeter {
    iters: usize,
    budget: SolveBudget,
    deadline: Option<std::time::Instant>,
}

impl SolveMeter {
    pub(crate) fn start(budget: SolveBudget) -> Self {
        let deadline = budget.max_wall.and_then(|d| std::time::Instant::now().checked_add(d));
        SolveMeter { iters: 0, budget, deadline }
    }

    /// Newton iterations charged so far.
    pub(crate) fn iterations(&self) -> usize {
        self.iters
    }

    /// Charges one Newton iteration; `false` once the budget is exhausted.
    pub(crate) fn tick(&mut self) -> bool {
        self.iters += 1;
        if self.iters > self.budget.max_newton_iters_total {
            return false;
        }
        match self.deadline {
            Some(deadline) => std::time::Instant::now() <= deadline,
            None => true,
        }
    }
}

/// Convergence and iteration-limit knobs for the Newton loop.
#[derive(Debug, Clone, Copy)]
pub struct OpOptions {
    /// Absolute voltage tolerance \[V\].
    pub vabstol: f64,
    /// Absolute current tolerance \[A\] (branch unknowns).
    pub iabstol: f64,
    /// Relative tolerance.
    pub reltol: f64,
    /// Newton iterations per continuation stage.
    pub max_iter: usize,
    /// Largest per-unknown voltage update per iteration (damping) \[V\].
    pub max_step: f64,
    /// Watchdog across all stages of one analysis call.
    pub budget: SolveBudget,
}

impl Default for OpOptions {
    fn default() -> Self {
        OpOptions {
            vabstol: 1e-6,
            iabstol: 1e-9,
            reltol: 1e-4,
            max_iter: 150,
            max_step: 0.5,
            budget: SolveBudget::default(),
        }
    }
}

/// Result of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct OpResult {
    pub(crate) x: Vec<f64>,
    pub(crate) n_nodes: usize,
    /// Total Newton iterations spent (all continuation stages).
    pub iterations: usize,
}

impl OpResult {
    /// Voltage at a node (0 for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.0 - 1]
        }
    }

    /// Branch current of a voltage-defined element by branch index (see
    /// [`Engine::branch_of`]), measured flowing p→n through the element.
    pub fn branch_current(&self, branch: usize) -> f64 {
        self.x[self.n_nodes + branch]
    }

    /// The raw unknown vector (node voltages then branch currents).
    pub fn unknowns(&self) -> &[f64] {
        &self.x
    }
}

/// Runs a DC operating-point analysis on a circuit.
///
/// Strategy: plain Newton from a zero guess; if that diverges, gmin
/// stepping (a decreasing shunt conductance on every node); if that also
/// fails, source stepping (ramping all independent sources from 0).
///
/// # Errors
///
/// * [`SpiceError::NoConvergence`] when all continuation strategies fail.
/// * [`SpiceError::Singular`] when the MNA matrix is structurally singular
///   (floating node, voltage-source loop).
/// * [`SpiceError::Timeout`] when the [`SolveBudget`] in
///   [`OpOptions::budget`] expires before any stage converges.
///
/// # Example
///
/// ```
/// use asdex_spice::{Circuit, analysis::dc_operating_point};
///
/// # fn main() -> Result<(), asdex_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add_vsource("V1", a, Circuit::GROUND, 3.0)?;
/// let b = ckt.node("b");
/// ckt.add_resistor("R1", a, b, 2e3)?;
/// ckt.add_resistor("R2", b, Circuit::GROUND, 1e3)?;
/// let op = dc_operating_point(&ckt, &Default::default())?;
/// assert!((op.voltage(b) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn dc_operating_point(circuit: &Circuit, opts: &OpOptions) -> Result<OpResult, SpiceError> {
    let engine = Engine::compile(circuit)?;
    solve_op(&engine, opts, None)
}

impl Engine {
    /// Runs the operating-point solve on this compiled engine, optionally
    /// warm-started from a previous solution — the fast path for repeated
    /// sizing evaluations where the topology never changes.
    ///
    /// # Errors
    ///
    /// Same as [`dc_operating_point`].
    pub fn operating_point(&self, opts: &OpOptions, initial: Option<&[f64]>) -> Result<OpResult, SpiceError> {
        solve_op(self, opts, initial)
    }

    /// Like [`Engine::operating_point`], but assembles the Newton system in
    /// the caller's [`SolverWorkspace`] instead of allocating fresh
    /// matrices — the hot path for batched evaluation workers. Numerically
    /// identical to the allocating variant.
    ///
    /// # Errors
    ///
    /// Same as [`dc_operating_point`].
    pub fn operating_point_with(
        &self,
        opts: &OpOptions,
        initial: Option<&[f64]>,
        ws: &mut SolverWorkspace,
    ) -> Result<OpResult, SpiceError> {
        solve_op_ws(self, opts, initial, ws)
    }
}

/// Operating point with a warm-start guess (used by the transient initial
/// condition and by repeated sizing evaluations).
pub(crate) fn solve_op(
    engine: &Engine,
    opts: &OpOptions,
    initial: Option<&[f64]>,
) -> Result<OpResult, SpiceError> {
    let mut ws = SolverWorkspace::new();
    solve_op_ws(engine, opts, initial, &mut ws)
}

/// [`solve_op`] with caller-owned scratch buffers.
pub(crate) fn solve_op_ws(
    engine: &Engine,
    opts: &OpOptions,
    initial: Option<&[f64]>,
    ws: &mut SolverWorkspace,
) -> Result<OpResult, SpiceError> {
    let dim = engine.dim();
    ws.ensure_dc(engine);
    let mut total_iters = 0usize;
    let mut meter = SolveMeter::start(opts.budget);
    let x0: Vec<f64> = initial.map_or_else(|| vec![0.0; dim], <[f64]>::to_vec);
    let timeout = |meter: &SolveMeter| SpiceError::Timeout {
        analysis: "op",
        iterations: meter.iterations(),
    };

    // Stage 1: straight Newton.
    match newton(engine, x0.clone(), 0.0, 1.0, None, opts, ws, &mut meter) {
        Ok((x, it)) => return Ok(OpResult { x, n_nodes: engine.n_nodes, iterations: it }),
        Err(NewtonFailure::Timeout) => return Err(timeout(&meter)),
        Err(_) => {}
    }
    total_iters += opts.max_iter;

    // Stage 2: gmin stepping.
    let mut x = x0.clone();
    let mut ok = true;
    for k in 0..=10i32 {
        let gmin = 10f64.powi(-k - 2); // 1e-2 … 1e-12
        match newton(engine, x.clone(), gmin, 1.0, None, opts, ws, &mut meter) {
            Ok((xn, it)) => {
                x = xn;
                total_iters += it;
            }
            Err(NewtonFailure::Timeout) => return Err(timeout(&meter)),
            Err(_) => {
                ok = false;
                break;
            }
        }
    }
    if ok {
        // Final polish without gmin.
        match newton(engine, x, 0.0, 1.0, None, opts, ws, &mut meter) {
            Ok((x, it)) => {
                return Ok(OpResult { x, n_nodes: engine.n_nodes, iterations: total_iters + it })
            }
            Err(NewtonFailure::Timeout) => return Err(timeout(&meter)),
            Err(_) => {}
        }
    }

    // Stage 3: source stepping.
    let mut x = vec![0.0; dim];
    for k in 1..=20 {
        let scale = k as f64 / 20.0;
        match newton(engine, x.clone(), 1e-12, scale, None, opts, ws, &mut meter) {
            Ok((xn, it)) => {
                x = xn;
                total_iters += it;
            }
            Err(NewtonFailure::Timeout) => return Err(timeout(&meter)),
            Err(e) => {
                return Err(match e {
                    NewtonFailure::Singular(s) => SpiceError::Singular(s),
                    _ => SpiceError::NoConvergence { analysis: "op", iterations: total_iters },
                })
            }
        }
    }
    match newton(engine, x, 0.0, 1.0, None, opts, ws, &mut meter) {
        Ok((x, it)) => {
            return Ok(OpResult { x, n_nodes: engine.n_nodes, iterations: total_iters + it })
        }
        Err(NewtonFailure::Timeout) => return Err(timeout(&meter)),
        Err(_) => {}
    }
    Err(SpiceError::NoConvergence { analysis: "op", iterations: total_iters })
}

#[derive(Debug)]
pub(crate) enum NewtonFailure {
    Singular(asdex_linalg::SolveError),
    NoConverge,
    /// The shared [`SolveMeter`] expired mid-stage; the caller must abort
    /// the whole analysis (not fall through to the next continuation
    /// stage) and surface [`SpiceError::Timeout`].
    Timeout,
}

/// One Newton solve at fixed (gmin, source scale), or of one transient
/// `step`, assembling into the workspace's prepared real backend and
/// right-hand side (every iteration overwrites them; the backend factors
/// in place, no per-iteration clone). Returns the solution and the
/// iteration count. Every iteration is charged to `meter`, the watchdog
/// shared by all stages (or time steps) of the enclosing analysis.
#[allow(clippy::too_many_arguments)]
pub(crate) fn newton(
    engine: &Engine,
    mut x: Vec<f64>,
    gmin: f64,
    src_scale: f64,
    step: Option<&TranStep>,
    opts: &OpOptions,
    ws: &mut SolverWorkspace,
    meter: &mut SolveMeter,
) -> Result<(Vec<f64>, usize), NewtonFailure> {
    let dim = engine.dim();
    for it in 1..=opts.max_iter {
        if !meter.tick() {
            return Err(NewtonFailure::Timeout);
        }
        engine.load_dc(&x, ws.real.assembler(), &mut ws.z, gmin, src_scale, step);
        let x_new = ws.real.factor_solve(&ws.z).map_err(NewtonFailure::Singular)?;

        // Damped update: limit each unknown's change.
        let mut converged = true;
        for i in 0..dim {
            let mut delta = x_new[i] - x[i];
            if delta.abs() > opts.max_step {
                delta = opts.max_step.copysign(delta);
                converged = false;
            }
            let abstol = if i < engine.n_nodes { opts.vabstol } else { opts.iabstol };
            if delta.abs() > abstol + opts.reltol * x[i].abs().max(x_new[i].abs()) {
                converged = false;
            }
            x[i] += delta;
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(NewtonFailure::NoConverge);
        }
        if converged {
            return Ok((x, it));
        }
    }
    Err(NewtonFailure::NoConverge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{DiodeModel, MosGeometry, MosModel};

    fn opts() -> OpOptions {
        OpOptions::default()
    }

    #[test]
    fn linear_divider() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, 2.0).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 3e3).unwrap();
        let op = dc_operating_point(&c, &opts()).unwrap();
        assert!((op.voltage(b) - 1.5).abs() < 1e-9);
        assert_eq!(op.voltage(Circuit::GROUND), 0.0);
    }

    #[test]
    fn diode_forward_drop() {
        // V1(1V) -- R(1k) -- D -- gnd: the diode settles near 0.55–0.75 V.
        let mut c = Circuit::new();
        c.add_diode_model("d1", DiodeModel::default());
        let a = c.node("a");
        let k = c.node("k");
        c.add_vsource("V1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_resistor("R1", a, k, 1e3).unwrap();
        c.add_diode("D1", k, Circuit::GROUND, "d1", 1.0).unwrap();
        let op = dc_operating_point(&c, &opts()).unwrap();
        let vd = op.voltage(k);
        assert!((0.4..0.8).contains(&vd), "diode drop {vd}");
        // KCL: resistor current equals diode current.
        let ir = (1.0 - vd) / 1e3;
        let id = crate::devices::eval_diode(&DiodeModel::default(), vd, c.temp_kelvin()).id;
        assert!((ir - id).abs() < 1e-7, "ir {ir} vs id {id}");
    }

    #[test]
    fn nmos_diode_connected() {
        // VDD(1.8) -- R(10k) -- drain(=gate) NMOS to gnd: diode-connected
        // device; drain voltage settles above vth where I_R = I_D.
        let mut c = Circuit::new();
        c.add_mos_model("nch", MosModel::default_nmos());
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 1.8).unwrap();
        c.add_resistor("R1", vdd, d, 10e3).unwrap();
        c.add_mosfet("M1", d, d, Circuit::GROUND, Circuit::GROUND, "nch", MosGeometry::new(10e-6, 1e-6))
            .unwrap();
        let op = dc_operating_point(&c, &opts()).unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.5 && vd < 1.2, "diode-connected bias {vd}");
        let m = MosModel::default_nmos();
        let dev = crate::devices::eval_mosfet(&m, &MosGeometry::new(10e-6, 1e-6), vd, vd, 0.0);
        let ir = (1.8 - vd) / 10e3;
        assert!((dev.ids - ir).abs() < 1e-6 * (1.0 + ir.abs()), "KCL {} vs {}", dev.ids, ir);
    }

    #[test]
    fn common_source_amplifier_bias() {
        // NMOS common-source with resistive load; check the output sits
        // between rails and the device is in saturation.
        let mut c = Circuit::new();
        c.add_mos_model("nch", MosModel::default_nmos());
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 1.8).unwrap();
        c.add_vsource("VG", g, Circuit::GROUND, 0.75).unwrap();
        c.add_resistor("RL", vdd, d, 20e3).unwrap();
        c.add_mosfet("M1", d, g, Circuit::GROUND, Circuit::GROUND, "nch", MosGeometry::new(5e-6, 1e-6))
            .unwrap();
        let op = dc_operating_point(&c, &opts()).unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.2 && vd < 1.7, "output bias {vd}");
    }

    #[test]
    fn floating_node_reports_singular_or_converges_via_gmin() {
        // A node connected only through a capacitor is floating in DC; the
        // gmin path may still pin it to ground. Either a clean error or a
        // converged result with the floating node near 0 is acceptable; it
        // must not hang or produce NaN.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_capacitor("C1", a, b, 1e-12).unwrap();
        match dc_operating_point(&c, &opts()) {
            Ok(op) => assert!(op.voltage(b).is_finite()),
            Err(SpiceError::Singular(_)) | Err(SpiceError::NoConvergence { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn vsource_loop_is_singular() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_vsource("V2", a, Circuit::GROUND, 2.0).unwrap();
        assert!(dc_operating_point(&c, &opts()).is_err());
    }

    #[test]
    fn warm_start_converges_faster() {
        let mut c = Circuit::new();
        c.add_mos_model("nch", MosModel::default_nmos());
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 1.8).unwrap();
        c.add_resistor("R1", vdd, d, 10e3).unwrap();
        c.add_mosfet("M1", d, d, Circuit::GROUND, Circuit::GROUND, "nch", MosGeometry::new(10e-6, 1e-6))
            .unwrap();
        let engine = Engine::compile(&c).unwrap();
        let cold = solve_op(&engine, &opts(), None).unwrap();
        let warm = solve_op(&engine, &opts(), Some(cold.unknowns())).unwrap();
        assert!(warm.iterations <= cold.iterations);
        assert!((warm.voltage(d) - cold.voltage(d)).abs() < 1e-6);
    }

    #[test]
    fn exhausted_budget_is_a_typed_timeout() {
        // A nonlinear circuit with a budget far below what any stage needs:
        // the watchdog must abort with Timeout, not NoConvergence, and must
        // report the iterations it actually charged.
        let mut c = Circuit::new();
        c.add_mos_model("nch", MosModel::default_nmos());
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 1.8).unwrap();
        c.add_resistor("R1", vdd, d, 10e3).unwrap();
        c.add_mosfet("M1", d, d, Circuit::GROUND, Circuit::GROUND, "nch", MosGeometry::new(10e-6, 1e-6))
            .unwrap();
        let mut o = opts();
        o.budget.max_newton_iters_total = 2;
        match dc_operating_point(&c, &o) {
            Err(SpiceError::Timeout { analysis: "op", iterations }) => {
                assert!(iterations >= 2, "charged {iterations}")
            }
            other => panic!("expected op timeout, got {other:?}"),
        }
        // A generous budget leaves the same circuit solvable.
        assert!(dc_operating_point(&c, &opts()).is_ok());
    }

    #[test]
    fn budget_escalation_scales_with_attempt() {
        let b = SolveBudget { max_newton_iters_total: 100, max_wall: None };
        assert_eq!(b.escalated(0).max_newton_iters_total, 100);
        assert_eq!(b.escalated(2).max_newton_iters_total, 300);
        let timed = SolveBudget {
            max_newton_iters_total: usize::MAX,
            max_wall: Some(std::time::Duration::from_secs(1)),
        };
        assert_eq!(timed.escalated(0).max_newton_iters_total, usize::MAX, "saturates");
        assert_eq!(timed.escalated(3).max_wall, Some(std::time::Duration::from_secs(4)));
        // The supervisor-facing allowance is the escalated wall deadline.
        assert_eq!(timed.wall_allowance(3), Some(std::time::Duration::from_secs(4)));
        assert_eq!(b.wall_allowance(3), None, "iteration-only budgets have no wall allowance");
    }

    #[test]
    fn vccs_and_vcvs_dc() {
        // VCVS doubling a 1V input; VCCS drawing gm*v into a load.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        let o2 = c.node("o2");
        c.add_vsource("V1", inp, Circuit::GROUND, 1.0).unwrap();
        c.add_vcvs("E1", out, Circuit::GROUND, inp, Circuit::GROUND, 2.0).unwrap();
        c.add_resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        c.add_vccs("G1", Circuit::GROUND, o2, inp, Circuit::GROUND, 1e-3).unwrap();
        c.add_resistor("R2", o2, Circuit::GROUND, 2e3).unwrap();
        let op = dc_operating_point(&c, &opts()).unwrap();
        assert!((op.voltage(out) - 2.0).abs() < 1e-9);
        // G1 pushes 1mA into o2 (p=gnd, n=o2 → current leaves n): v(o2)=2V.
        assert!((op.voltage(o2) - 2.0).abs() < 1e-9);
    }
}

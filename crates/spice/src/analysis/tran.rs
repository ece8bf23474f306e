//! Transient analysis with backward-Euler integration and a Newton solve
//! per time step.
//!
//! A time step is the operating-point Newton loop (`op::newton`) run on
//! the DC loader with the step attached: sources take their waveform
//! values at the step's time, and every capacitance (capacitors, diode
//! junctions, MOSFET Meyer caps frozen at the previous time point) and
//! inductor adds its backward-Euler companion after its element's own
//! stamps.

use super::ac::sweep_points;
use super::engine::{Engine, TranStep};
use super::op::{newton, solve_op_ws, NewtonFailure, OpOptions, SolveMeter};
use super::workspace::SolverWorkspace;
use crate::circuit::{Circuit, NodeId};
use crate::error::SpiceError;

/// Transient analysis configuration.
#[derive(Debug, Clone, Copy)]
pub struct TranOptions {
    /// Fixed time step \[s\].
    pub tstep: f64,
    /// Stop time \[s\].
    pub tstop: f64,
    /// Newton/convergence options for each step and the initial OP.
    pub op: OpOptions,
    /// Start from a zero state instead of the DC operating point
    /// (`.tran ... UIC`).
    pub uic: bool,
}

impl TranOptions {
    /// Creates options with a given step and stop time and default Newton
    /// settings.
    pub fn new(tstep: f64, tstop: f64) -> Self {
        TranOptions { tstep, tstop, op: OpOptions::default(), uic: false }
    }
}

/// Result of a transient run: waveforms for every unknown.
#[derive(Debug, Clone)]
pub struct TranResult {
    pub(crate) times: Vec<f64>,
    /// `samples[k]` is the unknown vector at `times[k]`.
    pub(crate) samples: Vec<Vec<f64>>,
    pub(crate) n_nodes: usize,
}

impl TranResult {
    /// Sampled time points \[s\].
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Node voltage at sample `k`.
    pub fn voltage(&self, k: usize, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.samples[k][node.0 - 1]
        }
    }

    /// Full waveform of one node.
    pub fn node_waveform(&self, node: NodeId) -> Vec<f64> {
        (0..self.times.len()).map(|k| self.voltage(k, node)).collect()
    }

    /// Branch current at sample `k`.
    pub fn branch_current(&self, k: usize, branch: usize) -> f64 {
        self.samples[k][self.n_nodes + branch]
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when the run produced no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// Runs a fixed-step transient analysis.
///
/// Each step solves the backward-Euler companion system with Newton
/// iterations; capacitor/inductor histories use the previous converged
/// point, and MOSFET Meyer capacitances are frozen at the previous point
/// (standard explicit-capacitance simplification).
///
/// # Errors
///
/// * [`SpiceError::BadSweep`] unless `0 < tstep < tstop < inf`, and for
///   more than [`super::MAX_SWEEP_POINTS`] time points.
/// * [`SpiceError::Singular`] when a time step's system is singular.
/// * [`SpiceError::NoConvergence`] when a time step fails to converge.
/// * [`SpiceError::Timeout`] when the [`super::SolveBudget`] in
///   `opts.op.budget` expires, summed across all time steps.
///
/// # Example
///
/// ```
/// use asdex_spice::{Circuit, Waveform};
/// use asdex_spice::analysis::{transient, TranOptions};
///
/// # fn main() -> Result<(), asdex_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let out = ckt.node("out");
/// let step = Waveform::Pulse { v1: 0.0, v2: 1.0, td: 0.0, tr: 1e-9, tf: 1e-9, pw: 1.0, per: 2.0 };
/// ckt.add_vsource_full("V1", vin, Circuit::GROUND, 0.0, None, Some(step))?;
/// ckt.add_resistor("R1", vin, out, 1e3)?;
/// ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-9)?;
/// let tr = transient(&ckt, &TranOptions::new(50e-9, 5e-6))?;
/// let last = tr.voltage(tr.len() - 1, out);
/// assert!((last - 1.0).abs() < 0.01, "settles to the step value");
/// # Ok(())
/// # }
/// ```
pub fn transient(circuit: &Circuit, opts: &TranOptions) -> Result<TranResult, SpiceError> {
    // One workspace (backend choice from the environment) shared by the
    // initial OP and every time step: the sparse backend's symbolic
    // factorization is computed once and replayed per step.
    transient_in(circuit, opts, &mut SolverWorkspace::new())
}

/// [`transient`] in the caller's workspace.
pub(crate) fn transient_in(
    circuit: &Circuit,
    opts: &TranOptions,
    ws: &mut SolverWorkspace,
) -> Result<TranResult, SpiceError> {
    // Written so that a NaN step or stop time fails it.
    if !(0.0 < opts.tstep && opts.tstep < opts.tstop && opts.tstop.is_finite()) {
        return Err(SpiceError::BadSweep {
            reason: format!("need 0 < tstep < tstop < inf (got {}, {})", opts.tstep, opts.tstop),
        });
    }
    let n_steps = sweep_points((opts.tstop / opts.tstep).ceil() + 1.0)? - 1;
    let engine = Engine::compile(circuit)?;
    let dim = engine.dim();

    // Initial condition.
    let x0 = if opts.uic {
        vec![0.0; dim]
    } else {
        solve_op_ws(&engine, &opts.op, None, ws)?.x
    };
    ws.ensure_dc(&engine);

    let mut times = Vec::with_capacity(n_steps + 1);
    let mut samples = Vec::with_capacity(n_steps + 1);
    times.push(0.0);
    samples.push(x0);

    // One watchdog across every time step (the initial OP above ran under
    // its own): a transient that grinds without converging is cut off as a
    // typed timeout instead of monopolizing a worker.
    let mut meter = SolveMeter::start(opts.op.budget);

    for step in 1..=n_steps {
        let t = (step as f64 * opts.tstep).min(opts.tstop);
        let h = t - times[step - 1];
        if h <= 0.0 {
            break;
        }
        // Newton at this time point, warm-started from the previous one,
        // with the Meyer caps frozen there.
        let x_prev = &samples[step - 1];
        let caps = engine.mos_caps_at(x_prev);
        let at = TranStep { t, h, x_prev, caps: &caps };
        let (x, _) = newton(&engine, x_prev.clone(), 0.0, 1.0, Some(&at), &opts.op, ws, &mut meter)
            .map_err(|failure| match failure {
                NewtonFailure::Timeout => {
                    SpiceError::Timeout { analysis: "tran", iterations: meter.iterations() }
                }
                NewtonFailure::Singular(e) => SpiceError::Singular(e),
                NewtonFailure::NoConverge => {
                    SpiceError::NoConvergence { analysis: "tran", iterations: step }
                }
            })?;
        times.push(t);
        samples.push(x);
    }

    Ok(TranResult { times, samples, n_nodes: engine.n_nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{SolverChoice, MAX_SWEEP_POINTS};
    use crate::circuit::Waveform;
    use crate::devices::{DiodeModel, MosGeometry};

    #[test]
    fn rc_charge_curve() {
        // Step into an RC: v(t) = 1 - exp(-t/RC); check at t = RC within
        // backward-Euler accuracy.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let step = Waveform::Pulse { v1: 0.0, v2: 1.0, td: 0.0, tr: 1e-12, tf: 1e-12, pw: 1.0, per: 2.0 };
        ckt.add_vsource_full("V1", vin, Circuit::GROUND, 0.0, None, Some(step)).unwrap();
        ckt.add_resistor("R1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let tau = 1e-6;
        let tr = transient(&ckt, &TranOptions::new(tau / 200.0, 2.0 * tau)).unwrap();
        // Find the sample closest to t = tau.
        let k = tr
            .times()
            .iter()
            .position(|&t| t >= tau)
            .expect("sample at tau");
        let v = tr.voltage(k, out);
        let expect = 1.0 - (-1.0f64).exp();
        assert!((v - expect).abs() < 0.01, "v(tau) = {v}, expect ~{expect}");
    }

    #[test]
    fn lr_current_ramp() {
        // 1V across L–R: i settles to V/R with time constant L/R.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let on = Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]);
        ckt.add_vsource_full("V1", a, Circuit::GROUND, 0.0, None, Some(on)).unwrap();
        ckt.add_inductor("L1", a, b, 1e-3).unwrap();
        ckt.add_resistor("R1", b, Circuit::GROUND, 100.0).unwrap();
        let tau = 1e-3 / 100.0; // 10 µs
        let tr = transient(&ckt, &TranOptions::new(tau / 100.0, 5.0 * tau)).unwrap();
        let i_final = tr.voltage(tr.len() - 1, b) / 100.0;
        assert!((i_final - 0.01).abs() < 1e-4, "final current {i_final}");
    }

    #[test]
    fn sin_source_oscillates() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        let sin = Waveform::Sin { vo: 0.0, va: 1.0, freq: 1e6, td: 0.0, theta: 0.0 };
        ckt.add_vsource_full("V1", out, Circuit::GROUND, 0.0, None, Some(sin)).unwrap();
        ckt.add_resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        let tr = transient(&ckt, &TranOptions::new(10e-9, 1e-6)).unwrap();
        let w = tr.node_waveform(out);
        let max = w.iter().cloned().fold(f64::MIN, f64::max);
        let min = w.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 0.95 && min < -0.95, "full swing (max {max}, min {min})");
    }

    #[test]
    fn bad_options_rejected() {
        let ckt = Circuit::new();
        assert!(transient(&ckt, &TranOptions::new(0.0, 1.0)).is_err());
        assert!(transient(&ckt, &TranOptions::new(1.0, 0.5)).is_err());
        // Non-finite times and too many steps are sweep errors, raised
        // before any result is allocated.
        for (tstep, tstop) in [(1e-9, f64::INFINITY), (1e-9, f64::NAN), (f64::NAN, 1.0), (1e-15, 1.0)]
        {
            let err = transient(&ckt, &TranOptions::new(tstep, tstop)).unwrap_err();
            assert!(matches!(err, SpiceError::BadSweep { .. }), "{tstep}, {tstop}: {err}");
        }
        // The limit counts time points, t = 0 included.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let last = (MAX_SWEEP_POINTS - 1) as f64;
        assert_eq!(transient(&ckt, &TranOptions::new(1.0, last)).unwrap().len(), MAX_SWEEP_POINTS);
        assert!(transient(&ckt, &TranOptions::new(1.0, last + 1.0)).is_err());
    }

    #[test]
    fn exhausted_budget_is_a_typed_timeout() {
        // An RC step response needs at least one Newton iteration per time
        // step; budgeting fewer total iterations than steps must trip the
        // shared watchdog partway through the run.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let step = Waveform::Pulse { v1: 0.0, v2: 1.0, td: 0.0, tr: 1e-9, tf: 1e-9, pw: 1.0, per: 2.0 };
        ckt.add_vsource_full("V1", vin, Circuit::GROUND, 0.0, None, Some(step)).unwrap();
        ckt.add_resistor("R1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let mut opts = TranOptions::new(50e-9, 5e-6); // 100 steps
        opts.uic = true; // keep the initial OP out of the picture
        opts.op.budget.max_newton_iters_total = 10;
        match transient(&ckt, &opts) {
            Err(SpiceError::Timeout { analysis: "tran", iterations }) => {
                assert!(iterations >= 10, "charged {iterations}")
            }
            other => panic!("expected tran timeout, got {other:?}"),
        }
    }

    #[test]
    fn uic_starts_from_zero() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add_vsource("V1", out, Circuit::GROUND, 1.0).unwrap();
        ckt.add_resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        let mut opts = TranOptions::new(1e-9, 1e-7);
        opts.uic = true;
        let tr = transient(&ckt, &opts).unwrap();
        assert_eq!(tr.voltage(0, out), 0.0, "UIC: t=0 state is zero");
        assert!((tr.voltage(tr.len() - 1, out) - 1.0).abs() < 1e-6);
    }

    /// FNV-1a over the bits of every time point and every unknown of
    /// every sample, in order.
    fn digest(tr: &TranResult) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for word in tr.times.iter().chain(tr.samples.iter().flatten()) {
            for byte in word.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// The five-stage CMOS ring of `examples/ring_oscillator.rs`, started
    /// by a PWL supply ramp: every step stamps frozen Meyer caps.
    fn ring_oscillator() -> Circuit {
        let node = crate::process::ProcessNode::bsim45();
        let (nmos, pmos) = node.models_at(crate::process::ProcessCorner::Tt, 27.0);
        let l = 4.0 * node.lmin;
        let mut ckt = Circuit::new();
        ckt.add_mos_model("nch", nmos);
        ckt.add_mos_model("pch", pmos);
        let vdd = ckt.node("vdd");
        let ramp = Waveform::Pwl(vec![(0.0, 0.0), (0.3e-9, node.vdd)]);
        ckt.add_vsource_full("VDD", vdd, Circuit::GROUND, node.vdd, None, Some(ramp)).unwrap();
        let nodes: Vec<_> = (0..5).map(|k| ckt.node(&format!("n{k}"))).collect();
        for k in 0..5 {
            let (inp, out) = (nodes[k], nodes[(k + 1) % 5]);
            let (wp, wn) = (MosGeometry::new(4e-6, l), MosGeometry::new(2e-6, l));
            ckt.add_mosfet(&format!("MP{k}"), out, inp, vdd, vdd, "pch", wp).unwrap();
            let gnd = Circuit::GROUND;
            ckt.add_mosfet(&format!("MN{k}"), out, inp, gnd, gnd, "nch", wn).unwrap();
            ckt.add_capacitor(&format!("C{k}"), out, gnd, 150e-15).unwrap();
        }
        ckt
    }

    /// A SIN source into a series RLC tank clamped by a diode with
    /// junction capacitance, a PULSE current source into the tank, and a
    /// VCVS buffering the tank voltage into a load.
    fn rlc_with_diode() -> Circuit {
        let mut ckt = Circuit::new();
        ckt.add_diode_model("dj", DiodeModel { cj0: 5e-12, ..DiodeModel::default() });
        let (a, b, c, out) = (ckt.node("a"), ckt.node("b"), ckt.node("c"), ckt.node("out"));
        let gnd = Circuit::GROUND;
        let sin = Waveform::Sin { vo: 0.2, va: 1.0, freq: 20e6, td: 0.0, theta: 0.0 };
        ckt.add_vsource_full("V1", a, gnd, 0.2, None, Some(sin)).unwrap();
        ckt.add_resistor("R1", a, b, 50.0).unwrap();
        ckt.add_inductor("L1", b, c, 1e-6).unwrap();
        ckt.add_capacitor("C1", c, gnd, 100e-12).unwrap();
        ckt.add_diode("D1", c, gnd, "dj", 1.0).unwrap();
        let pulse =
            Waveform::Pulse { v1: 0.0, v2: 1e-3, td: 10e-9, tr: 2e-9, tf: 2e-9, pw: 20e-9, per: 50e-9 };
        ckt.add_isource_full("I1", gnd, c, 0.0, None, Some(pulse)).unwrap();
        ckt.add_vcvs("E1", out, gnd, c, gnd, 2.0).unwrap();
        ckt.add_resistor("RL", out, gnd, 1e3).unwrap();
        ckt
    }

    #[test]
    fn transients_match_their_goldens_bitwise() {
        // Sample count and `digest` per case and backend, captured before
        // the transient step moved onto the DC loader and Newton loop.
        const GOLDENS: &[(&str, SolverChoice, usize, u64)] = &[
            ("ring", SolverChoice::Dense, 2401, 0x21f1_934e_05f3_b0f6),
            ("ring", SolverChoice::Sparse, 2401, 0x8357_71ca_1c21_1dda),
            ("ring_uic", SolverChoice::Dense, 2401, 0x9bf7_c6cd_1c37_de08),
            ("ring_uic", SolverChoice::Sparse, 2401, 0x636e_c0fd_f448_c558),
            ("rlc", SolverChoice::Dense, 401, 0x9cca_87c8_ba21_cf9b),
            ("rlc", SolverChoice::Sparse, 401, 0xb774_60b6_83fc_b5dc),
        ];
        for &(case, choice, len, want) in GOLDENS {
            let (ckt, mut opts) = match case {
                "rlc" => (rlc_with_diode(), TranOptions::new(0.5e-9, 200e-9)),
                _ => (ring_oscillator(), TranOptions::new(25e-12, 60e-9)),
            };
            opts.uic = case == "ring_uic";
            let tr = transient_in(&ckt, &opts, &mut SolverWorkspace::with_choice(choice)).unwrap();
            assert_eq!((tr.len(), digest(&tr)), (len, want), "{case} on {choice:?}");
        }
    }

    #[test]
    fn backward_euler_steps_match_their_closed_forms() {
        // From a zero state (UIC), a DC source V charges an RC node as
        // v_k = V·(1 − (τ/(τ+h))^k) and ramps an LR branch current as
        // i_k = (V/R)·(1 − (L/(L+R·h))^k): backward Euler, solved exactly.
        let (v, r, c, l) = (1.5, 1e3, 1e-9, 1e-3);
        let gnd = Circuit::GROUND;
        let mut rc = Circuit::new();
        let (vin, out) = (rc.node("in"), rc.node("out"));
        rc.add_vsource("V1", vin, gnd, v).unwrap();
        rc.add_resistor("R1", vin, out, r).unwrap();
        rc.add_capacitor("C1", out, gnd, c).unwrap();
        let mut lr = Circuit::new();
        let (a, b) = (lr.node("a"), lr.node("b"));
        lr.add_vsource("V1", a, gnd, v).unwrap();
        lr.add_inductor("L1", a, b, l).unwrap();
        lr.add_resistor("R1", b, gnd, r).unwrap();
        let branch = Engine::compile(&lr).unwrap().branch_of("L1").unwrap();
        // τ = R·C = L/R = 1 µs.
        let tau = r * c;
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            for steps_per_tau in [200.0, 10.0, 1.0, 1.0 / 3.0] {
                let h = tau / steps_per_tau;
                let n = (10.0 * steps_per_tau).ceil().max(4.0);
                let mut opts = TranOptions::new(h, n * h);
                opts.uic = true;
                let run = |ckt| transient_in(ckt, &opts, &mut SolverWorkspace::with_choice(choice));
                let (charge, ramp) = (run(&rc).unwrap(), run(&lr).unwrap());
                assert_eq!((charge.len(), ramp.len()), (n as usize + 1, n as usize + 1));
                for k in 1..charge.len() {
                    let pow = |ratio: f64| ratio.powi(k as i32);
                    let cases = [
                        ("RC", charge.voltage(k, out), v * (1.0 - pow(tau / (tau + h)))),
                        ("LR", ramp.branch_current(k, branch), v / r * (1.0 - pow(l / (l + r * h)))),
                    ];
                    for (name, got, want) in cases {
                        let err = (got - want).abs() / want.abs();
                        let at = format!("{name} {choice:?} h = τ/{steps_per_tau}, step {k}");
                        assert!(err <= 1e-12, "{at}: {got} vs {want}");
                    }
                }
            }
        }
    }
}

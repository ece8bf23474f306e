//! DC sweep analysis: solve the operating point while stepping one
//! independent source — transfer curves, bias scans, I–V plots.

use super::ac::sweep_points;
use super::engine::{Compiled, Engine};
use super::op::{solve_op_ws, OpOptions};
use super::workspace::SolverWorkspace;
use crate::circuit::{Circuit, ElementKind, NodeId};
use crate::error::SpiceError;

/// Result of a DC sweep: one operating point per swept value.
#[derive(Debug, Clone)]
pub struct DcSweepResult {
    values: Vec<f64>,
    /// `solutions[k]` is the unknown vector at `values[k]`.
    solutions: Vec<Vec<f64>>,
    n_nodes: usize,
}

impl DcSweepResult {
    /// The swept source values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Node voltage at sweep point `k` (0 for ground).
    pub fn voltage(&self, k: usize, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.solutions[k][node.0 - 1]
        }
    }

    /// The full transfer curve of one node.
    pub fn node_curve(&self, node: NodeId) -> Vec<f64> {
        (0..self.values.len()).map(|k| self.voltage(k, node)).collect()
    }

    /// Branch current at sweep point `k`.
    pub fn branch_current(&self, k: usize, branch: usize) -> f64 {
        self.solutions[k][self.n_nodes + branch]
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Sweeps the DC value of the named source from `start` to `stop` in
/// increments of `step`, solving the nonlinear operating point at each
/// value (warm-started from the previous point, as SPICE does).
///
/// # Errors
///
/// * [`SpiceError::BadSweep`] when no independent source has that name,
///   for a zero/backwards step or a non-finite bound, and for more than
///   [`super::MAX_SWEEP_POINTS`] points.
/// * Any operating-point failure at a sweep value.
///
/// # Example
///
/// A resistive divider scales linearly with the input:
///
/// ```
/// use asdex_spice::{Circuit, analysis::{dc_sweep, OpOptions}};
///
/// # fn main() -> Result<(), asdex_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.add_vsource("V1", vin, Circuit::GROUND, 0.0)?;
/// ckt.add_resistor("R1", vin, out, 1e3)?;
/// ckt.add_resistor("R2", out, Circuit::GROUND, 1e3)?;
/// let sweep = dc_sweep(&ckt, "V1", 0.0, 2.0, 0.5, &OpOptions::default())?;
/// assert_eq!(sweep.len(), 5);
/// assert!((sweep.voltage(4, out) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn dc_sweep(
    circuit: &Circuit,
    source: &str,
    start: f64,
    stop: f64,
    step: f64,
    opts: &OpOptions,
) -> Result<DcSweepResult, SpiceError> {
    // One workspace across the whole sweep: only source values change
    // between points, so the backend state (and the sparse symbolic
    // factorization) carries over untouched.
    dc_sweep_in(circuit, source, start, stop, step, opts, &mut SolverWorkspace::new())
}

/// [`dc_sweep`] in the caller's workspace.
pub(crate) fn dc_sweep_in(
    circuit: &Circuit,
    source: &str,
    start: f64,
    stop: f64,
    step: f64,
    opts: &OpOptions,
    ws: &mut SolverWorkspace,
) -> Result<DcSweepResult, SpiceError> {
    if step <= 0.0 || step.is_nan() || stop < start || !start.is_finite() || !stop.is_finite() {
        return Err(SpiceError::BadSweep {
            reason: format!("need start <= stop and step > 0 (got {start}, {stop}, {step})"),
        });
    }
    let n_points = sweep_points(((stop - start) / step + 1e-9).floor() + 1.0)?;
    // The engine compiles one element per circuit element, in order, so
    // the swept source's index carries over.
    let swept = circuit.elements().iter().position(|e| {
        e.name.eq_ignore_ascii_case(source)
            && matches!(e.kind, ElementKind::Vsource { .. } | ElementKind::Isource { .. })
    });
    let Some(swept) = swept else {
        return Err(SpiceError::BadSweep { reason: format!("no independent source named {source:?}") });
    };
    let mut engine = Engine::compile(circuit)?;

    let mut values = Vec::with_capacity(n_points);
    let mut solutions: Vec<Vec<f64>> = Vec::with_capacity(n_points);
    for k in 0..n_points {
        let v = start + k as f64 * step;
        if let Some(Compiled::Vsource { dc, .. } | Compiled::Isource { dc, .. }) =
            engine.elems.get_mut(swept)
        {
            *dc = v;
        }
        let op = solve_op_ws(&engine, opts, solutions.last().map(Vec::as_slice), ws)?;
        values.push(v);
        solutions.push(op.x);
    }
    Ok(DcSweepResult { values, solutions, n_nodes: engine.n_nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{SolverChoice, MAX_SWEEP_POINTS};
    use crate::devices::{MosGeometry, MosModel};

    #[test]
    fn divider_transfer_is_linear() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("V1", vin, Circuit::GROUND, 0.0).unwrap();
        ckt.add_resistor("R1", vin, out, 2e3).unwrap();
        ckt.add_resistor("R2", out, Circuit::GROUND, 1e3).unwrap();
        let sweep = dc_sweep(&ckt, "V1", 0.0, 3.0, 0.25, &OpOptions::default()).unwrap();
        assert_eq!(sweep.len(), 13);
        for (k, &v) in sweep.values().iter().enumerate() {
            assert!((sweep.voltage(k, out) - v / 3.0).abs() < 1e-9, "point {k}");
        }
    }

    #[test]
    fn nmos_transfer_curve_shape() {
        // Common-source stage: output high while the device is off, then
        // falls monotonically as the gate sweeps up.
        let (ckt, d) = common_source();
        let sweep = dc_sweep(&ckt, "VG", 0.0, 1.8, 0.05, &OpOptions::default()).unwrap();
        let curve = sweep.node_curve(d);
        assert!((curve[0] - 1.8).abs() < 1e-6, "off device: output at VDD");
        assert!(curve.last().expect("nonempty") < &0.3, "on device: output pulled low");
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "monotone falling transfer curve");
        }
    }

    #[test]
    fn current_source_sweep() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add_isource("I1", Circuit::GROUND, out, 0.0).unwrap();
        ckt.add_resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        let sweep = dc_sweep(&ckt, "I1", 0.0, 1e-3, 0.5e-3, &OpOptions::default()).unwrap();
        assert!((sweep.voltage(2, out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bad_inputs_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let opts = OpOptions::default();
        assert!(dc_sweep(&ckt, "V1", 0.0, 1.0, 0.0, &opts).is_err(), "zero step");
        assert!(dc_sweep(&ckt, "V1", 1.0, 0.0, 0.1, &opts).is_err(), "backwards");
        assert!(dc_sweep(&ckt, "VX", 0.0, 1.0, 0.1, &opts).is_err(), "unknown source");
        assert!(dc_sweep(&ckt, "R1", 0.0, 1.0, 0.1, &opts).is_err(), "not a source");
        // Non-finite bounds and too many points are sweep errors, raised
        // before any result is allocated.
        for (start, stop, step) in [(0.0, f64::INFINITY, 0.1), (f64::NAN, 1.0, 0.1), (0.0, 1.0, 1e-15)]
        {
            let err = dc_sweep(&ckt, "V1", start, stop, step, &opts).unwrap_err();
            assert!(matches!(err, SpiceError::BadSweep { .. }), "{start}, {stop}, {step}: {err}");
        }
        let last = (MAX_SWEEP_POINTS - 1) as f64;
        assert_eq!(dc_sweep(&ckt, "V1", 0.0, last, 1.0, &opts).unwrap().len(), MAX_SWEEP_POINTS);
        assert!(dc_sweep(&ckt, "V1", 0.0, last + 1.0, 1.0, &opts).is_err());
    }

    #[test]
    fn nmos_sweep_matches_its_golden_bitwise() {
        // Point count and FNV-1a over the bits of every swept value and
        // every unknown, captured before the DC loader took transient
        // steps and the engine lost its element names.
        const GOLDENS: [(SolverChoice, usize, u64); 2] = [
            (SolverChoice::Dense, 181, 0x3edd_7a8a_54e0_df58),
            (SolverChoice::Sparse, 181, 0x3ce3_3acc_03b7_072d),
        ];
        let (ckt, _) = common_source();
        for (choice, len, want) in GOLDENS {
            let mut ws = SolverWorkspace::with_choice(choice);
            let sweep =
                dc_sweep_in(&ckt, "VG", 0.0, 1.8, 0.01, &OpOptions::default(), &mut ws).unwrap();
            let mut hash = 0xcbf2_9ce4_8422_2325_u64;
            for word in sweep.values.iter().chain(sweep.solutions.iter().flatten()) {
                for byte in word.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!((sweep.len(), hash), (len, want), "{choice:?}");
        }
    }

    #[test]
    fn diode_iv_curve_is_exponentialish() {
        let mut ckt = Circuit::new();
        ckt.add_diode_model("d1", crate::devices::DiodeModel::default());
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, 0.0).unwrap();
        ckt.add_diode("D1", a, Circuit::GROUND, "d1", 1.0).unwrap();
        let engine = Engine::compile(&ckt).unwrap();
        let br = engine.branch_of("V1").unwrap();
        let sweep = dc_sweep(&ckt, "V1", 0.0, 0.7, 0.05, &OpOptions::default()).unwrap();
        // Source current magnitude grows superlinearly.
        let i_mid = sweep.branch_current(7, br).abs();
        let i_end = sweep.branch_current(sweep.len() - 1, br).abs();
        assert!(i_end > 10.0 * i_mid, "diode current {i_mid} -> {i_end}");
    }

    /// A resistor-loaded common-source NMOS stage with its gate on `VG`.
    fn common_source() -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        ckt.add_mos_model("nch", MosModel::default_nmos());
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, 1.8).unwrap();
        ckt.add_vsource("VG", g, Circuit::GROUND, 0.0).unwrap();
        ckt.add_resistor("RL", vdd, d, 50e3).unwrap();
        ckt.add_mosfet("M1", d, g, Circuit::GROUND, Circuit::GROUND, "nch", MosGeometry::new(5e-6, 1e-6))
            .unwrap();
        (ckt, d)
    }
}

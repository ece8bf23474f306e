//! Small-signal AC analysis: complex MNA solve over a frequency sweep.
//!
//! A sweep stamps once, not at each frequency point: devices are
//! evaluated and stamps resolved to matrix entries twice per sweep (see
//! [`SolverWorkspace`]), and each point only re-sums the imaginary parts
//! of the reactive entries before its factor-and-solve. This is exact:
//! every stamp is `re + j·ω·c` with `re` and `c` independent of ω,
//! complex addition sums the two parts separately, and a sum that starts
//! at +0.0 never becomes −0.0, so leaving out the ±0.0 imaginary parts of
//! purely real stamps changes no bit of the solutions.

use super::engine::Engine;
use super::op::{solve_op, OpOptions, OpResult};
use super::workspace::SolverWorkspace;
use crate::circuit::{Circuit, NodeId};
use crate::error::SpiceError;
use asdex_linalg::Complex;
use std::f64::consts::PI;

/// Most points a sweep may expand to: the frequencies of an AC sweep,
/// the source values of a DC sweep, the time points of a transient. Far
/// above any sweep the benches run (the largest AC sweep has 281 points,
/// the largest transient 2 401), and low enough that a mistyped count or
/// step is rejected before its results are allocated.
pub const MAX_SWEEP_POINTS: usize = 100_000;

/// A sweep's point count `n`, computed in floating point, as a count.
///
/// # Errors
///
/// [`SpiceError::BadSweep`] when `n` exceeds [`MAX_SWEEP_POINTS`] or is
/// NaN.
pub(crate) fn sweep_points(n: f64) -> Result<usize, SpiceError> {
    if n <= MAX_SWEEP_POINTS as f64 {
        Ok(n as usize)
    } else {
        let reason = format!("{n} points exceed the limit of {MAX_SWEEP_POINTS}");
        Err(SpiceError::BadSweep { reason })
    }
}

/// Frequency sweep specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sweep {
    /// Logarithmic sweep with `points_per_decade` points from `fstart` to
    /// `fstop` (inclusive), the usual Bode-plot sweep.
    Decade {
        /// First frequency \[Hz\], must be positive.
        fstart: f64,
        /// Last frequency \[Hz\], must exceed `fstart`.
        fstop: f64,
        /// Points per decade (≥ 1).
        points_per_decade: usize,
    },
    /// Linear sweep with `points` samples from `fstart` to `fstop`.
    Linear {
        /// First frequency \[Hz\].
        fstart: f64,
        /// Last frequency \[Hz\].
        fstop: f64,
        /// Number of points (≥ 2).
        points: usize,
    },
}

impl Sweep {
    /// Expands the sweep into a frequency list.
    ///
    /// # Errors
    ///
    /// [`SpiceError::BadSweep`] for empty/inverted ranges, a non-positive
    /// log-sweep start, a non-finite bound, a sweep of more than
    /// [`MAX_SWEEP_POINTS`] points (checked before the grid is allocated),
    /// or a frequency whose angular frequency `2π·f` overflows.
    pub fn frequencies(&self) -> Result<Vec<f64>, SpiceError> {
        let bad = |reason: String| SpiceError::BadSweep { reason };
        // Each range test is written so that a NaN bound fails it.
        let freqs = match *self {
            Sweep::Decade { fstart, fstop, points_per_decade } => {
                let ordered = 0.0 < fstart && fstart < fstop && fstop.is_finite();
                if !ordered || points_per_decade == 0 {
                    return Err(bad(format!(
                        "decade sweep needs 0 < fstart < fstop < inf, ppd >= 1 (got {fstart}, {fstop}, {points_per_decade})"
                    )));
                }
                // The grid is k = 0..=n, then trimmed to fstop (or ended
                // with it): n + 1 points. `n` is positive, possibly
                // infinite, never NaN.
                let n = ((fstop / fstart).log10() * points_per_decade as f64).ceil();
                let mut f: Vec<f64> = (0..sweep_points(n + 1.0)?)
                    .map(|k| fstart * 10f64.powf(k as f64 / points_per_decade as f64))
                    .take_while(|&f| f < fstop * (1.0 + 1e-12))
                    .collect();
                if let Some(last) = f.last() {
                    if (*last - fstop).abs() / fstop > 1e-9 {
                        f.push(fstop);
                    }
                }
                f
            }
            Sweep::Linear { fstart, fstop, points } => {
                let ordered = fstart.is_finite() && fstart < fstop && fstop.is_finite();
                if !ordered || points < 2 {
                    return Err(bad(format!(
                        "linear sweep needs finite fstart < fstop and >= 2 points (got {fstart}, {fstop}, {points})"
                    )));
                }
                (0..sweep_points(points as f64)?)
                    .map(|k| fstart + (fstop - fstart) * k as f64 / (points - 1) as f64)
                    .collect()
            }
        };
        match freqs.iter().find(|&&f| !(2.0 * PI * f).is_finite()) {
            Some(f) => Err(bad(format!("the angular frequency of {f} Hz overflows"))),
            None => Ok(freqs),
        }
    }
}

/// Result of an AC sweep: one complex solution vector per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    pub(crate) freqs: Vec<f64>,
    /// `solutions[k]` is the unknown vector at `freqs[k]`.
    pub(crate) solutions: Vec<Vec<Complex>>,
    pub(crate) n_nodes: usize,
    /// The DC operating point the sweep was linearized around.
    pub op: OpResult,
}

impl AcResult {
    /// The swept frequencies \[Hz\].
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex node voltage at sweep point `k` (zero for ground).
    pub fn voltage(&self, k: usize, node: NodeId) -> Complex {
        if node.is_ground() {
            Complex::ZERO
        } else {
            self.solutions[k][node.0 - 1]
        }
    }

    /// The transfer curve `V(node)` across the whole sweep.
    pub fn node_response(&self, node: NodeId) -> Vec<Complex> {
        (0..self.freqs.len()).map(|k| self.voltage(k, node)).collect()
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` when the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Branch current phasor at sweep point `k`.
    pub fn branch_current(&self, k: usize, branch: usize) -> Complex {
        self.solutions[k][self.n_nodes + branch]
    }
}

/// Runs an AC analysis: DC operating point, then a complex solve per
/// frequency.
///
/// # Errors
///
/// Propagates operating-point failures ([`SpiceError::NoConvergence`]),
/// singular systems, and [`SpiceError::BadSweep`].
///
/// # Example
///
/// An RC low-pass has its −3 dB point at `1/(2πRC)`:
///
/// ```
/// use asdex_spice::{Circuit, AcSpec};
/// use asdex_spice::analysis::{ac_analysis, Sweep, OpOptions};
///
/// # fn main() -> Result<(), asdex_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.add_vsource_full("V1", vin, Circuit::GROUND, 0.0, Some(AcSpec::unit()), None)?;
/// ckt.add_resistor("R1", vin, out, 1e3)?;
/// ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-9)?;
/// let sweep = Sweep::Decade { fstart: 1e3, fstop: 1e8, points_per_decade: 20 };
/// let ac = ac_analysis(&ckt, sweep, &OpOptions::default())?;
/// assert!(ac.len() > 50);
/// # Ok(())
/// # }
/// ```
pub fn ac_analysis(circuit: &Circuit, sweep: Sweep, opts: &OpOptions) -> Result<AcResult, SpiceError> {
    let engine = Engine::compile(circuit)?;
    let op = solve_op(&engine, opts, None)?;
    ac_analysis_with_op(&engine, op, sweep)
}

/// AC analysis around a pre-computed operating point (avoids re-running the
/// Newton solve when the caller already has one).
///
/// # Errors
///
/// [`SpiceError::BadSweep`] or singular complex systems.
pub fn ac_analysis_with_op(engine: &Engine, op: OpResult, sweep: Sweep) -> Result<AcResult, SpiceError> {
    let mut ws = SolverWorkspace::new();
    ac_analysis_with_op_in(engine, op, sweep, &mut ws)
}

/// [`ac_analysis_with_op`] assembling into the caller's
/// [`SolverWorkspace`]: the complex system buffers are reused across calls
/// and the expanded frequency grid is cached per sweep, so a batched
/// evaluation worker sweeping the same grid repeatedly allocates it once.
/// The circuit is linearized once per sweep (see the module docs).
/// Numerically identical to the allocating variant.
///
/// # Errors
///
/// [`SpiceError::BadSweep`] or singular complex systems.
pub fn ac_analysis_with_op_in(
    engine: &Engine,
    op: OpResult,
    sweep: Sweep,
    ws: &mut SolverWorkspace,
) -> Result<AcResult, SpiceError> {
    ws.ensure_ac(engine);
    let freqs = ws.frequencies(sweep)?.to_vec();
    ws.linearize_ac(engine, op.unknowns());
    let mut solutions = Vec::with_capacity(freqs.len());
    for &f in &freqs {
        ws.load_ac_at(2.0 * PI * f);
        // The complex backend factors in place (dense) or replays the one
        // symbolic factorization (sparse) for every frequency point.
        solutions.push(ws.complex.factor_solve(&ws.zc)?.to_vec());
    }
    Ok(AcResult { freqs, solutions, n_nodes: engine.n_nodes, op })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SolverChoice;
    use crate::circuit::AcSpec;

    fn rc_lowpass(r: f64, c: f64) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource_full("V1", vin, Circuit::GROUND, 0.0, Some(AcSpec::unit()), None)
            .unwrap();
        ckt.add_resistor("R1", vin, out, r).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, c).unwrap();
        (ckt, out)
    }

    #[test]
    fn sweep_decade_expansion() {
        let f = Sweep::Decade { fstart: 1.0, fstop: 1000.0, points_per_decade: 1 }
            .frequencies()
            .unwrap();
        assert_eq!(f.len(), 4);
        assert!((f[3] - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_linear_expansion() {
        let f = Sweep::Linear { fstart: 0.0, fstop: 10.0, points: 11 }.frequencies().unwrap();
        assert_eq!(f.len(), 11);
        assert_eq!(f[5], 5.0);
    }

    #[test]
    fn sweep_validation() {
        assert!(Sweep::Decade { fstart: 0.0, fstop: 10.0, points_per_decade: 5 }
            .frequencies()
            .is_err());
        assert!(Sweep::Linear { fstart: 5.0, fstop: 1.0, points: 3 }.frequencies().is_err());
        assert!(Sweep::Linear { fstart: 0.0, fstop: 1.0, points: 1 }.frequencies().is_err());
        let bad = |sweep: Sweep| match sweep.frequencies() {
            Err(SpiceError::BadSweep { reason }) => reason,
            other => panic!("{sweep:?} expanded to {other:?}"),
        };
        // Non-finite bounds.
        for (fstart, fstop) in [(1e3, f64::INFINITY), (f64::NAN, 1e6), (1e3, f64::NAN)] {
            bad(Sweep::Decade { fstart, fstop, points_per_decade: 10 });
            bad(Sweep::Linear { fstart, fstop, points: 10 });
        }
        bad(Sweep::Linear { fstart: f64::NEG_INFINITY, fstop: 1e6, points: 10 });
        // Too many points, rejected before the grid is allocated.
        let reason =
            bad(Sweep::Decade { fstart: 1e3, fstop: 1e6, points_per_decade: 1_000_000_000 });
        assert!(reason.contains("exceed the limit"), "{reason}");
        bad(Sweep::Decade { fstart: 1e-300, fstop: 1e300, points_per_decade: 200 });
        bad(Sweep::Linear { fstart: 0.0, fstop: 1.0, points: MAX_SWEEP_POINTS + 1 });
        assert_eq!(
            Sweep::Linear { fstart: 0.0, fstop: 1.0, points: MAX_SWEEP_POINTS }
                .frequencies()
                .unwrap()
                .len(),
            MAX_SWEEP_POINTS
        );
        let n = Sweep::Decade { fstart: 1.0, fstop: 10.0, points_per_decade: MAX_SWEEP_POINTS - 1 }
            .frequencies()
            .unwrap()
            .len();
        assert_eq!(n, MAX_SWEEP_POINTS);
        // Finite frequencies whose angular frequency overflows.
        let reason = bad(Sweep::Decade { fstart: 1e300, fstop: 1e308, points_per_decade: 1 });
        assert!(reason.contains("overflows"), "{reason}");
        bad(Sweep::Linear { fstart: -1e308, fstop: 1e308, points: 3 });
    }

    #[test]
    fn rc_transfer_function_matches_closed_form() {
        let (ckt, out) = rc_lowpass(1e3, 1e-9);
        let fc = 1.0 / (2.0 * PI * 1e3 * 1e-9); // ≈ 159 kHz
        let ac = ac_analysis(
            &ckt,
            Sweep::Decade { fstart: 1e2, fstop: 1e9, points_per_decade: 10 },
            &OpOptions::default(),
        )
        .unwrap();
        for (k, &f) in ac.frequencies().iter().enumerate() {
            let h = ac.voltage(k, out);
            let expect = 1.0 / (1.0 + (f / fc).powi(2)).sqrt();
            assert!(
                (h.abs() - expect).abs() < 1e-3,
                "f={f}: |H|={} expect {expect}",
                h.abs()
            );
            let phase_expect = -(f / fc).atan();
            assert!((h.arg() - phase_expect).abs() < 1e-3, "phase at f={f}");
        }
    }

    #[test]
    fn rlc_resonance() {
        // Series RLC driven by 1V AC, measuring across the capacitor: the
        // resonance frequency is 1/(2π√LC).
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        let out = ckt.node("out");
        ckt.add_vsource_full("V1", vin, Circuit::GROUND, 0.0, Some(AcSpec::unit()), None)
            .unwrap();
        ckt.add_resistor("R1", vin, mid, 10.0).unwrap();
        ckt.add_inductor("L1", mid, out, 1e-6).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let f0 = 1.0 / (2.0 * PI * (1e-6f64 * 1e-9).sqrt()); // ≈ 5.03 MHz
        let ac = ac_analysis(
            &ckt,
            Sweep::Linear { fstart: f0 * 0.99, fstop: f0 * 1.01, points: 3 },
            &OpOptions::default(),
        )
        .unwrap();
        // At resonance the cap voltage magnitude is Q = (1/R)·√(L/C) ≈ 3.16.
        let q = (1e-6f64 / 1e-9).sqrt() / 10.0;
        let mag = ac.voltage(1, out).abs();
        assert!((mag - q).abs() / q < 0.05, "resonant peak {mag} vs Q {q}");
    }

    #[test]
    fn current_source_ac_stimulus() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add_isource_full("I1", Circuit::GROUND, out, 0.0, Some(AcSpec::unit()), None)
            .unwrap();
        ckt.add_resistor("R1", out, Circuit::GROUND, 50.0).unwrap();
        let ac = ac_analysis(
            &ckt,
            Sweep::Linear { fstart: 1e3, fstop: 1e4, points: 2 },
            &OpOptions::default(),
        )
        .unwrap();
        assert!((ac.voltage(0, out).abs() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn branch_current_through_inductor() {
        // 1V AC across R + L in series: |I| = 1/√(R² + (ωL)²).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource_full("V1", a, Circuit::GROUND, 0.0, Some(AcSpec::unit()), None)
            .unwrap();
        ckt.add_resistor("R1", a, b, 1.0).unwrap();
        ckt.add_inductor("L1", b, Circuit::GROUND, 1e-3).unwrap();
        let engine = Engine::compile(&ckt).unwrap();
        let lbr = engine.branch_of("L1").unwrap();
        let ac = ac_analysis(
            &ckt,
            Sweep::Linear { fstart: 1e3, fstop: 2e3, points: 2 },
            &OpOptions::default(),
        )
        .unwrap();
        let wl = 2.0 * PI * 1e3 * 1e-3;
        let expect = 1.0 / (1.0f64 + wl * wl).sqrt();
        assert!((ac.branch_current(0, lbr).abs() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn ideal_vsource_parallel_inductor_is_singular() {
        // Both elements pin the same branch voltage at DC: the MNA system
        // is structurally singular and must be reported, not NaN'd.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource_full("V1", a, Circuit::GROUND, 0.0, Some(AcSpec::unit()), None)
            .unwrap();
        ckt.add_inductor("L1", a, Circuit::GROUND, 1e-3).unwrap();
        let err = ac_analysis(
            &ckt,
            Sweep::Linear { fstart: 1e3, fstop: 2e3, points: 2 },
            &OpOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, crate::SpiceError::Singular(_)), "got {err}");
    }

    /// The per-point loop the once-per-sweep linearization replaced:
    /// stamp with `load_ac` and solve at every frequency. `Err` carries
    /// the point that failed.
    fn restamped_at_every_point(
        engine: &Engine,
        op: &OpResult,
        sweep: Sweep,
        choice: SolverChoice,
    ) -> Result<Vec<Vec<Complex>>, (usize, SpiceError)> {
        let mut ws = SolverWorkspace::with_choice(choice);
        ws.ensure_ac(engine);
        let freqs = sweep.frequencies().map_err(|e| (0, e))?;
        let mut solutions = Vec::new();
        for (k, &f) in freqs.iter().enumerate() {
            engine.load_ac(op.unknowns(), 2.0 * PI * f, ws.complex.assembler(), &mut ws.zc);
            let x = ws.complex.factor_solve(&ws.zc).map_err(|e| (k, SpiceError::from(e)))?;
            solutions.push(x.to_vec());
        }
        Ok(solutions)
    }

    /// Sweeps `ckt` around `op` (its own operating point when `None`) in
    /// the reused workspaces `wss`, one per backend, and asserts that every
    /// solution bit, or the error, equals the per-point reference. Returns
    /// the point at which the reference failed, if it did.
    fn assert_matches_restamping(
        ckt: &Circuit,
        op: Option<OpResult>,
        sweep: Sweep,
        wss: &mut [SolverWorkspace],
    ) -> Option<usize> {
        let engine = Engine::compile(ckt).unwrap();
        let op = op.unwrap_or_else(|| solve_op(&engine, &OpOptions::default(), None).unwrap());
        let mut failed_at = Vec::new();
        for ws in wss.iter_mut() {
            let choice = ws.choice();
            let want = restamped_at_every_point(&engine, &op, sweep, choice);
            let got = ac_analysis_with_op_in(&engine, op.clone(), sweep, ws);
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    let bits = |z: &Complex| (z.re.to_bits(), z.im.to_bits());
                    assert_eq!(got.solutions.len(), want.len());
                    for (k, (g, w)) in got.solutions.iter().zip(&want).enumerate() {
                        for (i, (g, w)) in g.iter().zip(w).enumerate() {
                            assert!(
                                bits(g) == bits(w),
                                "{choice:?} point {k} unknown {i}: {g} vs {w}"
                            );
                        }
                    }
                    failed_at.push(None);
                }
                (Err(got), Err((k, want))) => {
                    assert_eq!(got, want, "{choice:?}: error at point {k}");
                    failed_at.push(Some(k));
                }
                (got, want) => {
                    panic!("{choice:?}: {:?} vs re-stamped {:?}", got.map(|_| ()), want.map(|_| ()))
                }
            }
        }
        assert!(failed_at.windows(2).all(|w| w[0] == w[1]), "backends disagree: {failed_at:?}");
        failed_at[0]
    }

    /// One element of every kind (R, C, L, V, I, E, G, F, H, D, M) with
    /// AC stimuli on both independent sources.
    fn every_element_kind() -> Circuit {
        let mut c = Circuit::new();
        c.add_diode_model("d1", crate::devices::DiodeModel::default());
        c.add_mos_model("m1", crate::devices::MosModel::default_nmos());
        let n1 = c.node("n1");
        let n2 = c.node("n2");
        let n3 = c.node("n3");
        let n4 = c.node("n4");
        c.add_vsource_full("V1", n1, Circuit::GROUND, 1.8, Some(AcSpec::unit()), None).unwrap();
        c.add_resistor("R1", n1, n2, 1e3).unwrap();
        c.add_capacitor("C1", n2, Circuit::GROUND, 1e-12).unwrap();
        c.add_inductor("L1", n2, n3, 1e-6).unwrap();
        let ac = AcSpec { mag: 1e-4, phase_deg: 30.0 };
        c.add_isource_full("I1", Circuit::GROUND, n3, 1e-4, Some(ac), None).unwrap();
        c.add_vcvs("E1", n4, Circuit::GROUND, n2, n3, 2.0).unwrap();
        c.add_vccs("G1", n3, Circuit::GROUND, n1, n2, 1e-3).unwrap();
        c.add_cccs("F1", Circuit::GROUND, n4, "V1", 0.5).unwrap();
        c.add_ccvs("H1", n4, n3, "L1", 10.0).unwrap();
        c.add_diode("D1", n3, Circuit::GROUND, "d1", 1.0).unwrap();
        let geom = crate::devices::MosGeometry::new(1e-6, 1e-6);
        c.add_mosfet("M1", n4, n2, Circuit::GROUND, Circuit::GROUND, "m1", geom).unwrap();
        c
    }

    /// A saturated common-source stage next to an off transistor, both
    /// without overlap capacitance: the first has `cgd = cgb = 0` and the
    /// second `cgs = cgd = 0`, exactly.
    fn mosfets_with_zero_meyer_caps() -> Circuit {
        let mut c = Circuit::new();
        let mut model = crate::devices::MosModel::default_nmos();
        model.cgso = 0.0;
        model.cgdo = 0.0;
        c.add_mos_model("n0", model);
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        let off = c.node("off");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 1.8).unwrap();
        c.add_vsource_full("VG", g, Circuit::GROUND, 0.8, Some(AcSpec::unit()), None).unwrap();
        c.add_resistor("RD", vdd, d, 10e3).unwrap();
        c.add_capacitor("CL", d, Circuit::GROUND, 1e-13).unwrap();
        let geom = crate::devices::MosGeometry::new(2e-6, 1e-6);
        c.add_mosfet("M1", d, g, Circuit::GROUND, Circuit::GROUND, "n0", geom).unwrap();
        c.add_resistor("RO", vdd, off, 10e3).unwrap();
        c.add_mosfet("M2", off, Circuit::GROUND, Circuit::GROUND, Circuit::GROUND, "n0", geom)
            .unwrap();
        c
    }

    #[test]
    fn linearized_sweep_matches_restamping_every_point_bitwise() {
        let mut wss = [SolverChoice::Dense, SolverChoice::Sparse].map(SolverWorkspace::with_choice);
        let decade = Sweep::Decade { fstart: 10.0, fstop: 10e9, points_per_decade: 10 };
        let from_dc = Sweep::Linear { fstart: 0.0, fstop: 1e9, points: 41 };

        let every = every_element_kind();
        assert_eq!(assert_matches_restamping(&every, None, decade, &mut wss), None);
        assert_eq!(assert_matches_restamping(&every, None, from_dc, &mut wss), None);

        let mos = mosfets_with_zero_meyer_caps();
        let engine = Engine::compile(&mos).unwrap();
        let op = solve_op(&engine, &OpOptions::default(), None).unwrap();
        let caps = engine.mos_caps_at(op.unknowns());
        assert!(caps[0].cgd == 0.0 && caps[0].cgb == 0.0 && caps[0].cgs > 0.0, "M1 saturated");
        assert!(caps[1].cgs == 0.0 && caps[1].cgd == 0.0 && caps[1].cgb > 0.0, "M2 off");
        assert_eq!(assert_matches_restamping(&mos, None, decade, &mut wss), None);
        assert_eq!(assert_matches_restamping(&mos, None, from_dc, &mut wss), None);

        // A node held only by capacitors floats at 0 Hz: singular at the
        // first point of a sweep from DC.
        let mut floating = Circuit::new();
        let a = floating.node("a");
        let b = floating.node("b");
        floating
            .add_vsource_full("V1", a, Circuit::GROUND, 0.0, Some(AcSpec::unit()), None)
            .unwrap();
        floating.add_capacitor("C1", a, b, 1e-12).unwrap();
        floating.add_capacitor("C2", b, Circuit::GROUND, 1e-12).unwrap();
        let zero_op = |ckt: &Circuit| {
            let dim = Engine::compile(ckt).unwrap().dim();
            Some(OpResult { x: vec![0.0; dim], n_nodes: ckt.node_count(), iterations: 0 })
        };
        let op = zero_op(&floating);
        assert_eq!(assert_matches_restamping(&floating, op, from_dc, &mut wss), Some(0));
        // ω·C overflows from the fourth point on: non-finite there.
        let mut huge = Circuit::new();
        let a = huge.node("a");
        huge.add_isource_full("I1", Circuit::GROUND, a, 0.0, Some(AcSpec::unit()), None).unwrap();
        huge.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        huge.add_capacitor("C1", a, Circuit::GROUND, 1e300).unwrap();
        let op = zero_op(&huge);
        let sweep = Sweep::Linear { fstart: 0.0, fstop: 4e7, points: 5 };
        assert_eq!(assert_matches_restamping(&huge, op, sweep, &mut wss), Some(3));
        // The workspaces still sweep a healthy circuit exactly afterwards.
        assert_eq!(assert_matches_restamping(&every, None, decade, &mut wss), None);
    }

    #[test]
    fn rc_ladder_matches_its_abcd_chain_on_both_backends() {
        // 64 stages of series R into shunt C, open at the far end. Each
        // stage's two-port is [[1, R], [0, 1]]·[[1, 0], [jωC, 1]], and with
        // no load current V(out)/V(in) is 1/A of the chained product.
        const STAGES: usize = 64;
        let (r, c) = (100.0, 1e-12);
        let mut ckt = Circuit::new();
        let mut prev = ckt.node("in");
        ckt.add_vsource_full("V1", prev, Circuit::GROUND, 0.0, Some(AcSpec::unit()), None).unwrap();
        for k in 0..STAGES {
            let next = ckt.node(&format!("n{k}"));
            ckt.add_resistor(&format!("R{k}"), prev, next, r).unwrap();
            ckt.add_capacitor(&format!("C{k}"), next, Circuit::GROUND, c).unwrap();
            prev = next;
        }
        let out = prev;
        let sweep = Sweep::Decade { fstart: 1e3, fstop: 1e9, points_per_decade: 10 };
        let engine = Engine::compile(&ckt).unwrap();
        assert!(engine.dim() > super::super::solver::DENSE_MAX_DIM, "auto would solve it sparse");
        let op = solve_op(&engine, &OpOptions::default(), None).unwrap();
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let mut ws = SolverWorkspace::with_choice(choice);
            let ac = ac_analysis_with_op_in(&engine, op.clone(), sweep, &mut ws).unwrap();
            for (k, &f) in ac.frequencies().iter().enumerate() {
                let jwc = Complex::new(0.0, 2.0 * PI * f * c);
                let (mut a, mut b) = (Complex::ONE, Complex::ZERO);
                for _ in 0..STAGES {
                    // [a b] · [[1, R], [0, 1]] · [[1, 0], [jωC, 1]]
                    let b_r = a * r + b;
                    a += b_r * jwc;
                    b = b_r;
                }
                let want = a.recip();
                let got = ac.voltage(k, out);
                let mag_err = (got.abs() - want.abs()).abs() / want.abs();
                let phase_err = (got / want).arg().abs();
                assert!(
                    mag_err < 1e-10 && phase_err < 1e-10,
                    "{choice:?} at {f} Hz: |H| {} vs {}, phase off by {phase_err} rad",
                    got.abs(),
                    want.abs()
                );
            }
        }
    }
}

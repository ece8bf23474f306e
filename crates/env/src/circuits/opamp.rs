//! The two-stage Miller-compensated opamp benchmark (paper §V-B/C/D).
//!
//! Classic Allen–Holberg topology: NMOS input pair (M1/M2) with PMOS
//! current-mirror load (M3/M4), NMOS tail source (M5) mirrored from a
//! diode-connected bias device (M8) fed by an ideal bias current, and a
//! PMOS common-source second stage (M6) with an NMOS sink load (M7),
//! Miller-compensated with `Cc` into a fixed capacitive load.
//!
//! The open-loop response is measured the standard SPICE way: a huge
//! inductor closes unity feedback for DC biasing and a huge capacitor
//! AC-grounds the inverting input, so the AC sweep from the non-inverting
//! input reads the open-loop transfer function directly.
//!
//! The circuit is a sizing deck — `decks/two_stage_opamp_sized.sp` at
//! 45 nm, `decks/two_stage_opamp22_sized.sp` at 22 nm — compiled into a
//! [`NetlistBench`]; the design space and default specs are the deck's
//! `.sizeparam` and `.goal` cards.

use super::pool::MnaEvaluator;
use crate::corner::PvtCorner;
use crate::error::EnvError;
use crate::netbench::NetlistBench;
use crate::problem::SizingProblem;
use crate::space::DesignSpace;
use crate::spec::SpecSet;
use crate::PvtSet;
use asdex_spice::analysis::{ac_analysis_with_op_in, Engine, OpResult, SolverWorkspace, Sweep};
use asdex_spice::measure::checked_frequency_response;
use asdex_spice::process::ProcessNode;
use asdex_spice::Circuit;
use std::sync::{Arc, OnceLock};

/// The amplifier measurement vector every netlist bench, the opamp's
/// included, reports: its indices, names and spec aliases.
pub mod meas {
    /// Open-loop DC gain \[dB\].
    pub const GAIN_DB: usize = 0;
    /// Unity-gain frequency \[Hz\].
    pub const UGF_HZ: usize = 1;
    /// Phase margin \[deg\].
    pub const PM_DEG: usize = 2;
    /// Static supply power \[W\].
    pub const POWER_W: usize = 3;
    /// Total gate area \[m²\].
    pub const AREA_M2: usize = 4;
    /// Measurement names, in vector order.
    pub const NAMES: [&str; 5] = ["gain_db", "ugf_hz", "pm_deg", "power_w", "area_m2"];
    /// Short spec names parallel to [`NAMES`].
    pub const SPEC_NAMES: [&str; 5] = ["gain", "ugf", "pm", "power", "area"];
}

/// The two-stage opamp benchmark on a given process node.
#[derive(Debug, Clone)]
pub struct TwoStageOpamp {
    bench: &'static NetlistBench,
}

impl TwoStageOpamp {
    /// The benchmark on the synthetic BSIM 45 nm node (Table I).
    pub fn bsim45() -> Self {
        static BENCH: OnceLock<NetlistBench> = OnceLock::new();
        Self::compiled(&BENCH, include_str!("../../../../decks/two_stage_opamp_sized.sp"))
    }

    /// The benchmark on the synthetic BSIM 22 nm node (Tables II–III).
    pub fn bsim22() -> Self {
        static BENCH: OnceLock<NetlistBench> = OnceLock::new();
        Self::compiled(&BENCH, include_str!("../../../../decks/two_stage_opamp22_sized.sp"))
    }

    /// The deck, compiled on first use in the process. Every campaign
    /// builds its problem from here, and compiling the deck each time
    /// would cost several times what the rest of that build does.
    fn compiled(cell: &'static OnceLock<NetlistBench>, deck: &str) -> Self {
        let bench =
            cell.get_or_init(|| NetlistBench::compile(deck).expect("the shipped opamp decks compile"));
        TwoStageOpamp { bench }
    }

    /// The process node this benchmark runs on.
    pub fn process(&self) -> &ProcessNode {
        self.bench.process()
    }

    /// The 7-parameter design space (≈ 10^13–10^14 points: five widths on
    /// 100-point grids, `Cc` on 40, `Ibias` on 25, matching the paper's
    /// quoted 10^14 for the 45 nm opamp).
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates [`EnvError::InvalidSpace`] from
    /// grid construction.
    pub fn space(&self) -> Result<DesignSpace, EnvError> {
        DesignSpace::new(self.bench.axes().to_vec())
    }

    /// The spec set for this benchmark's node: gain ≥ 65 dB and PM ≥ 60°,
    /// with a UGF floor and power and area caps per node.
    ///
    /// The 45 nm set (Table I) is calibrated so that roughly 3×10⁻⁴ of the
    /// design space is feasible — the same order as the paper's 45 nm
    /// setup, where pure random search needs thousands of steps but still
    /// succeeds within the 10k-step cap. The binding trade-off is the
    /// paper's gain/PM one: high unity-gain frequency fights the 60°
    /// phase-margin floor through `Cc`. The faster 22 nm card gets a
    /// proportionally tighter set so its single-corner difficulty matches
    /// the paper's Table II scale (tens of steps for a fresh search) while
    /// the five-corner intersection is rare enough that random search
    /// fails, as in Table III.
    pub fn specs(&self) -> SpecSet {
        self.bench.specs().clone()
    }

    /// Builds the full sizing problem at a single nominal corner.
    ///
    /// # Errors
    ///
    /// Propagates design-space or problem-validation errors.
    pub fn problem(&self) -> Result<SizingProblem, EnvError> {
        self.problem_with(self.specs(), PvtSet::nominal_only())
    }

    /// Builds the sizing problem with explicit specs and corners (the
    /// Table III PVT experiments use [`PvtSet::signoff5`]).
    ///
    /// # Errors
    ///
    /// Propagates design-space or problem-validation errors.
    pub fn problem_with(&self, specs: SpecSet, corners: PvtSet) -> Result<SizingProblem, EnvError> {
        SizingProblem::new(
            &format!("two-stage-opamp-{}", self.process().name),
            self.space()?,
            Arc::new(MnaEvaluator::new(self.bench.clone())),
            specs,
            corners,
        )
    }

    /// The opamp netlist for physical parameters `x` at `corner`.
    ///
    /// Exposed so examples can inspect/print the generated circuit.
    ///
    /// # Errors
    ///
    /// See [`NetlistBench::netlist`].
    pub fn netlist(&self, x: &[f64], corner: &PvtCorner) -> Result<Circuit, EnvError> {
        self.bench.netlist(x, corner)
    }
}

/// The amplifier measurement vector (see [`meas`]) of a solved circuit
/// whose supply runs at `vdd_v`: DC gain, UGF and phase margin at the
/// `out` node over 10 Hz–10 GHz, static power drawn through the `VDD`
/// source, and total gate area.
pub(crate) fn measure_amplifier(
    circuit: &Circuit,
    engine: &Engine,
    op: OpResult,
    ws: &mut SolverWorkspace,
    vdd_v: f64,
) -> Result<Vec<f64>, EnvError> {
    let sweep = Sweep::Decade { fstart: 10.0, fstop: 10e9, points_per_decade: 10 };
    let out = circuit.find_node("out").ok_or_else(|| EnvError::InvalidProblem {
        reason: "amplifier netlist defines no 'out' node".into(),
    })?;
    let vdd_branch = engine.branch_of("VDD").ok_or_else(|| EnvError::InvalidProblem {
        reason: "amplifier netlist defines no 'VDD' source".into(),
    })?;
    let supply_current = op.branch_current(vdd_branch).abs();
    let ac = ac_analysis_with_op_in(engine, op, sweep, ws)?;
    let fr = checked_frequency_response(&ac, out)?;
    Ok(vec![
        fr.dc_gain_db,
        fr.unity_gain_freq.unwrap_or(0.0),
        fr.phase_margin_deg.unwrap_or(0.0),
        supply_current * vdd_v,
        circuit.total_gate_area(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Evaluator;

    /// A hand-sized reference point that should bias correctly.
    pub fn reference_x() -> Vec<f64> {
        vec![
            20e-6, // w_in
            10e-6, // w_mir
            10e-6, // w_tail
            60e-6, // w_cs
            20e-6, // w_sink
            1.5e-12, // cc
            10e-6, // ibias
        ]
    }

    #[test]
    fn netlist_has_expected_elements() {
        let amp = TwoStageOpamp::bsim45();
        let c = amp.netlist(&reference_x(), &PvtCorner::nominal()).unwrap();
        assert_eq!(
            c.elements().len(),
            4 /* sources+fb */ + 8 /* fets */ + 3 /* IB, CC, CL */
        );
        assert!(c.find_node("out").is_some());
    }

    #[test]
    fn wrong_dimension_rejected() {
        let amp = TwoStageOpamp::bsim45();
        assert!(matches!(
            amp.netlist(&[1e-6; 3], &PvtCorner::nominal()),
            Err(EnvError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn reference_design_is_a_working_amplifier() {
        let amp = TwoStageOpamp::bsim45();
        let eval = MnaEvaluator::new(amp.bench.clone());
        let m = eval.evaluate(&reference_x(), &PvtCorner::nominal()).unwrap();
        assert!(m[meas::GAIN_DB] > 40.0, "gain {} dB", m[meas::GAIN_DB]);
        assert!(m[meas::UGF_HZ] > 1e6, "ugf {}", m[meas::UGF_HZ]);
        assert!(m[meas::PM_DEG] > 20.0, "pm {}", m[meas::PM_DEG]);
        assert!(m[meas::POWER_W] > 0.0 && m[meas::POWER_W] < 10e-3, "power {}", m[meas::POWER_W]);
        assert!(m[meas::AREA_M2] > 0.0);
    }

    #[test]
    fn gain_landscape_is_size_dependent() {
        // Shrinking the input pair to the grid minimum must change the
        // response — the agent needs a non-flat landscape.
        let amp = TwoStageOpamp::bsim45();
        let eval = MnaEvaluator::new(amp.bench.clone());
        let hi = eval.evaluate(&reference_x(), &PvtCorner::nominal()).unwrap();
        let mut x = reference_x();
        x[0] = 1e-6; // w_in
        x[6] = 2e-6; // ibias
        let lo = eval.evaluate(&x, &PvtCorner::nominal()).unwrap();
        // Level-1 DC gain is only weakly size-dependent, but the unity-gain
        // frequency moves strongly with gm — that is the landscape agents
        // climb.
        let rel = (hi[meas::UGF_HZ] - lo[meas::UGF_HZ]).abs() / hi[meas::UGF_HZ];
        assert!(rel > 0.3, "ugf {} vs {}", hi[meas::UGF_HZ], lo[meas::UGF_HZ]);
    }

    #[test]
    fn corners_shift_measurements() {
        let amp = TwoStageOpamp::bsim22();
        let eval = MnaEvaluator::new(amp.bench.clone());
        let nom = eval.evaluate(&reference_x(), &PvtCorner::nominal()).unwrap();
        let ss = eval
            .evaluate(
                &reference_x(),
                &PvtCorner {
                    process: asdex_spice::process::ProcessCorner::Ss,
                    vdd_scale: 0.9,
                    temp_celsius: 125.0,
                },
            )
            .unwrap();
        assert!((nom[meas::GAIN_DB] - ss[meas::GAIN_DB]).abs() > 0.1, "corner must matter");
    }

    #[test]
    fn problem_builds_and_evaluates() {
        let amp = TwoStageOpamp::bsim45();
        let p = amp.problem().unwrap();
        assert_eq!(p.dim(), 7);
        assert!(p.space.size_log10() > 12.0, "space ≈ 10^13+");
        let space = p.space.clone();
        let u = space.to_normalized(&reference_x()).unwrap();
        let e = p.evaluate_normalized(&u, 0);
        assert!(e.measurements.is_some());
        assert!(e.value <= 0.0);
    }
}

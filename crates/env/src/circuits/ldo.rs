//! The low-dropout regulator (LDO) benchmark — the paper's first
//! industrial case (Table IV), ported from TSMC 6 nm to the synthetic
//! `n6` node.
//!
//! Topology: a 5-transistor OTA error amplifier drives a PMOS pass device;
//! a resistive divider feeds the regulated output back to the amplifier.
//! The loop gain is measured with the L/C loop-breaking trick: a huge
//! inductor closes the feedback path for DC biasing while a huge capacitor
//! AC-grounds the amplifier's feedback input; the AC response at the
//! divider tap to a stimulus on the reference input *is* the loop gain.

use super::pool::{MnaBench, MnaEvaluator};
use crate::corner::PvtCorner;
use crate::error::EnvError;
use crate::problem::SizingProblem;
use crate::space::{DesignSpace, Param};
use crate::spec::{Spec, SpecSet};
use crate::PvtSet;
use asdex_spice::analysis::{ac_analysis_with_op_in, Engine, OpResult, SolverWorkspace, Sweep};
use asdex_spice::devices::MosGeometry;
use asdex_spice::measure::{checked_frequency_response, to_db};
use asdex_spice::process::ProcessNode;
use asdex_spice::{AcSpec, Circuit};
use std::sync::{Arc, OnceLock};

/// Indices of the LDO's design parameters.
pub mod params {
    /// Error-amp input-pair width (M1, M2).
    pub const W_IN: usize = 0;
    /// Error-amp mirror width (M3, M4).
    pub const W_MIR: usize = 1;
    /// Error-amp tail/bias width (M5, M8).
    pub const W_TAIL: usize = 2;
    /// Pass-device width.
    pub const W_PASS: usize = 3;
    /// Error-amp input-pair length.
    pub const L_IN: usize = 4;
    /// Error-amp mirror length.
    pub const L_MIR: usize = 5;
    /// Error-amp tail length.
    pub const L_TAIL: usize = 6;
    /// Pass-device length.
    pub const L_PASS: usize = 7;
    /// Pass-device multiplicity.
    pub const M_PASS: usize = 8;
    /// Error-amp bias current.
    pub const IBIAS: usize = 9;
    /// Compensation capacitor at the amp output (pass gate).
    pub const C_COMP: usize = 10;
}

/// Indices of the LDO's measurement vector.
pub mod meas {
    /// Loop gain \[dB\].
    pub const LOOP_GAIN_DB: usize = 0;
    /// Loop phase margin \[deg\].
    pub const PM_DEG: usize = 1;
    /// Total gate area \[µm²\] (the paper's Table IV "Area" column).
    pub const AREA_UM2: usize = 2;
    /// Quiescent current \[A\].
    pub const IQ_A: usize = 3;
    /// Regulated output voltage \[V\].
    pub const VOUT_V: usize = 4;
    /// Measurement names, in vector order.
    pub const NAMES: [&str; 5] = ["loop_gain_db", "pm_deg", "area_um2", "iq_a", "vout_v"];
}

/// The LDO benchmark on a process node.
#[derive(Debug, Clone)]
pub struct Ldo {
    node: ProcessNode,
    /// Load resistance \[Ω\].
    pub r_load: f64,
    /// Load capacitance \[F\].
    pub c_load: f64,
    /// Feedback divider resistances `(top, bottom)` \[Ω\].
    pub divider: (f64, f64),
}

impl Ldo {
    /// The benchmark on the synthetic `n6` node (Table IV).
    pub fn n6() -> Self {
        Self::on(ProcessNode::n6())
    }

    /// The benchmark on an arbitrary node.
    pub fn on(node: ProcessNode) -> Self {
        Ldo { node, r_load: 50.0, c_load: 100e-12, divider: (90e3, 110e3) }
    }

    /// The process node.
    pub fn process(&self) -> &ProcessNode {
        &self.node
    }

    /// The 11-parameter design space (≈ 10^29 points, matching the paper's
    /// quoted size for the industrial LDO).
    ///
    /// # Errors
    ///
    /// Propagates grid-construction failures.
    pub fn space(&self) -> Result<DesignSpace, EnvError> {
        // Every caller sizes the n6 bench, and computing its 11 150 grid
        // values costs several times the rest of a problem build, so the
        // n6 grids are built once per process. They depend on `lmin` alone.
        static N6: OnceLock<DesignSpace> = OnceLock::new();
        if self.node.lmin.to_bits() != ProcessNode::n6().lmin.to_bits() {
            return Self::grids(self.node.lmin);
        }
        if let Some(space) = N6.get() {
            return Ok(space.clone());
        }
        let space = Self::grids(self.node.lmin)?;
        Ok(N6.get_or_init(|| space).clone())
    }

    /// The design space's grids for a node of minimum length `lmin`.
    fn grids(lmin: f64) -> Result<DesignSpace, EnvError> {
        DesignSpace::new(vec![
            Param::geometric("w_in", 0.5e-6, 50e-6, 2000)?,
            Param::geometric("w_mir", 0.5e-6, 50e-6, 2000)?,
            Param::geometric("w_tail", 0.5e-6, 50e-6, 1000)?,
            Param::geometric("w_pass", 10e-6, 2000e-6, 5000)?,
            Param::geometric("l_in", lmin * 2.0, lmin * 40.0, 200)?,
            Param::geometric("l_mir", lmin * 2.0, lmin * 40.0, 200)?,
            Param::geometric("l_tail", lmin * 2.0, lmin * 40.0, 200)?,
            Param::geometric("l_pass", lmin, lmin * 10.0, 100)?,
            Param::explicit("m_pass", (1..=50).map(f64::from).collect())?,
            Param::geometric("ibias", 1e-6, 100e-6, 100)?,
            Param::geometric("c_comp", 0.1e-12, 20e-12, 300)?,
        ])
    }

    /// The Table IV spec set, recalibrated to the synthetic `n6`
    /// landscape: the Level-1 cards deliver far more intrinsic gain than
    /// real 6 nm silicon, so the paper's 40 dB floor would be trivial
    /// here. The structure is the paper's — a loop-gain floor fighting an
    /// area cap, plus stability and quiescent-current guards — tightened
    /// until only ≈1×10⁻⁵ of the space qualifies (the paper's LDO also
    /// defeated its BO baseline within budget).
    pub fn default_specs() -> SpecSet {
        SpecSet::new(vec![
            Spec::at_least(meas::LOOP_GAIN_DB, "loop_gain", 84.0),
            Spec::at_most(meas::AREA_UM2, "area", 58.0),
            Spec::at_least(meas::PM_DEG, "pm", 60.0),
            Spec::at_most(meas::IQ_A, "iq", 2e-4),
        ])
    }

    /// Builds the full sizing problem at the nominal corner.
    ///
    /// # Errors
    ///
    /// Propagates design-space or problem-validation errors.
    pub fn problem(&self) -> Result<SizingProblem, EnvError> {
        let space = self.space()?;
        SizingProblem::new(
            &format!("ldo-{}", self.node.name),
            space,
            Arc::new(MnaEvaluator::new(self.clone())),
            Self::default_specs(),
            PvtSet::nominal_only(),
        )
    }

    /// A fixed reference design standing in for the paper's human-designed
    /// LDO: competent (81.6 dB loop gain at 54.8 µm², comfortably stable)
    /// but ~2.4 dB short of the 84 dB spec — mirroring Table IV's human
    /// row, which misses its gain target while sitting at the area cap.
    pub fn human_reference(&self) -> Vec<f64> {
        vec![
            11.5e-6,   // w_in
            3.79e-6,   // w_mir
            1.72e-6,   // w_tail
            140e-6,    // w_pass
            178e-9,    // l_in
            302e-9,    // l_mir
            1.02e-6,   // l_tail
            32e-9,     // l_pass
            10.0,      // m_pass
            1.05e-6,   // ibias
            6.79e-12,  // c_comp
        ]
    }

    /// Builds the LDO netlist for physical parameters `x` at `corner`.
    ///
    /// # Errors
    ///
    /// [`EnvError::DimensionMismatch`] for a wrong-length parameter
    /// vector; element-validation errors otherwise.
    pub fn netlist(&self, x: &[f64], corner: &PvtCorner) -> Result<Circuit, EnvError> {
        if x.len() != 11 {
            return Err(EnvError::DimensionMismatch { expected: 11, actual: x.len() });
        }
        let (nmos, pmos) = self.node.models_at(corner.process, corner.temp_celsius);
        let vdd_v = self.node.vdd * corner.vdd_scale;
        // Reference sets the regulated output through the divider ratio.
        let beta = self.divider.1 / (self.divider.0 + self.divider.1);
        let vref = 0.8 * vdd_v * beta;

        let mut c = Circuit::new();
        c.temp_celsius = corner.temp_celsius;
        c.add_mos_model("nch", nmos);
        c.add_mos_model("pch", pmos);

        let vdd = c.node("vdd");
        let vref_n = c.node("vref");
        let fb = c.node("fb"); // amplifier feedback input
        let fbo = c.node("fbo"); // divider tap (loop-gain probe)
        let tail = c.node("tail");
        let x1 = c.node("x1");
        let gate = c.node("gate"); // amp output = pass gate
        let vout = c.node("vout");
        let nb = c.node("nb");
        let gnd = Circuit::GROUND;

        c.add_vsource("VDD", vdd, gnd, vdd_v)?;
        c.add_vsource_full("VREF", vref_n, gnd, vref, Some(AcSpec::unit()), None)?;

        // Error amplifier. The pass stage (PMOS common source) inverts, so
        // the loop needs the amp to be non-inverting from the feedback
        // input to `gate` — that is M1's gate in this 5T OTA (M1 → mirror
        // → M4 → gate). The reference drives M2.
        let g = |w: f64, l: f64, m: f64| MosGeometry { w, l, m };
        c.add_mosfet("M1", x1, fb, tail, gnd, "nch", g(x[params::W_IN], x[params::L_IN], 1.0))?;
        c.add_mosfet("M2", gate, vref_n, tail, gnd, "nch", g(x[params::W_IN], x[params::L_IN], 1.0))?;
        c.add_mosfet("M3", x1, x1, vdd, vdd, "pch", g(x[params::W_MIR], x[params::L_MIR], 1.0))?;
        c.add_mosfet("M4", gate, x1, vdd, vdd, "pch", g(x[params::W_MIR], x[params::L_MIR], 1.0))?;
        c.add_mosfet("M5", tail, nb, gnd, gnd, "nch", g(x[params::W_TAIL], x[params::L_TAIL], 1.0))?;
        c.add_mosfet("M8", nb, nb, gnd, gnd, "nch", g(x[params::W_TAIL], x[params::L_TAIL], 1.0))?;
        c.add_isource("IB", vdd, nb, x[params::IBIAS])?;

        // Pass device and compensation.
        c.add_mosfet(
            "MP",
            vout,
            gate,
            vdd,
            vdd,
            "pch",
            g(x[params::W_PASS], x[params::L_PASS], x[params::M_PASS]),
        )?;
        c.add_capacitor("CCOMP", gate, gnd, x[params::C_COMP])?;

        // Divider, load, and the DC-closing / AC-breaking network.
        c.add_resistor("R1", vout, fbo, self.divider.0)?;
        c.add_resistor("R2", fbo, gnd, self.divider.1)?;
        c.add_inductor("LFB", fbo, fb, 1e6)?;
        c.add_capacitor("CFB", fb, gnd, 1.0)?;
        c.add_resistor("RL", vout, gnd, self.r_load)?;
        c.add_capacitor("CL", vout, gnd, self.c_load)?;
        Ok(c)
    }
}

impl MnaBench for Ldo {
    const NAMES: &'static [&'static str] = &meas::NAMES;

    fn circuit(&self, x: &[f64], corner: &PvtCorner) -> Result<Circuit, EnvError> {
        self.netlist(x, corner)
    }

    /// Loop gain and phase margin at the divider tap over 10 Hz–1 GHz,
    /// gate area, quiescent current, and the regulated output voltage.
    fn measure(
        &self,
        circuit: &Circuit,
        engine: &Engine,
        op: OpResult,
        ws: &mut SolverWorkspace,
        _corner: &PvtCorner,
    ) -> Result<Vec<f64>, EnvError> {
        let vout_node = circuit.find_node("vout").ok_or_else(|| EnvError::InvalidProblem {
            reason: "ldo netlist defines no 'vout' node".into(),
        })?;
        let fbo = circuit.find_node("fbo").ok_or_else(|| EnvError::InvalidProblem {
            reason: "ldo netlist defines no 'fbo' node".into(),
        })?;
        let vout_v = op.voltage(vout_node);

        // Quiescent current: amp bias + divider, excluding the load.
        let vdd_branch = engine.branch_of("VDD").ok_or_else(|| EnvError::InvalidProblem {
            reason: "ldo netlist defines no 'VDD' source".into(),
        })?;
        let supply_current = op.branch_current(vdd_branch).abs();
        let load_current = vout_v / self.r_load;
        let iq = (supply_current - load_current).abs();

        let sweep = Sweep::Decade { fstart: 10.0, fstop: 1e9, points_per_decade: 10 };
        let ac = ac_analysis_with_op_in(engine, op, sweep, ws)?;
        let fr = checked_frequency_response(&ac, fbo)?;
        // `frequency_response` reports the low-frequency magnitude of the
        // probe node, which is exactly the loop gain here.
        let loop_gain_db = fr.dc_gain_db.max(to_db(0.0));

        // Area in µm² (1 m² = 1e12 µm²).
        let area_um2 = circuit.total_gate_area() * 1e12;

        Ok(vec![loop_gain_db, fr.phase_margin_deg.unwrap_or(90.0), area_um2, iq, vout_v])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Evaluator;

    #[test]
    fn netlist_structure() {
        let ldo = Ldo::n6();
        let c = ldo.netlist(&ldo.human_reference(), &PvtCorner::nominal()).unwrap();
        assert!(c.find_node("vout").is_some());
        assert_eq!(c.elements().len(), 17);
        assert!(matches!(
            ldo.netlist(&[1.0; 4], &PvtCorner::nominal()),
            Err(EnvError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn human_reference_regulates() {
        let ldo = Ldo::n6();
        let eval = MnaEvaluator::new(ldo.clone());
        let m = eval.evaluate(&ldo.human_reference(), &PvtCorner::nominal()).unwrap();
        let vdd = ldo.process().vdd;
        assert!(
            m[meas::VOUT_V] > 0.5 * vdd && m[meas::VOUT_V] < vdd,
            "vout {} of vdd {}",
            m[meas::VOUT_V],
            vdd
        );
        assert!(m[meas::LOOP_GAIN_DB] > 20.0, "loop gain {} dB", m[meas::LOOP_GAIN_DB]);
        assert!(m[meas::AREA_UM2] > 0.0);
    }

    #[test]
    fn bigger_pass_device_changes_loop() {
        let ldo = Ldo::n6();
        let eval = MnaEvaluator::new(ldo.clone());
        let base = eval.evaluate(&ldo.human_reference(), &PvtCorner::nominal()).unwrap();
        let mut x = ldo.human_reference();
        x[params::W_PASS] = 100e-6;
        x[params::M_PASS] = 5.0;
        let small = eval.evaluate(&x, &PvtCorner::nominal()).unwrap();
        assert!(small[meas::AREA_UM2] < base[meas::AREA_UM2]);
        assert!((small[meas::LOOP_GAIN_DB] - base[meas::LOOP_GAIN_DB]).abs() > 0.1);
    }

    #[test]
    fn space_is_paper_scale() {
        let ldo = Ldo::n6();
        let s = ldo.space().unwrap();
        assert_eq!(s.dim(), 11);
        assert!(s.size_log10() > 27.0 && s.size_log10() < 32.0, "10^{:.1}", s.size_log10());
    }

    #[test]
    fn problems_share_the_n6_space() {
        let (a, b) = (Ldo::n6().problem().unwrap(), Ldo::n6().problem().unwrap());
        assert_eq!(a.space, b.space);
        assert_eq!(a.space, Ldo::grids(ProcessNode::n6().lmin).unwrap());
        // Another node's length grids differ.
        assert_ne!(Ldo::on(ProcessNode::bsim45()).space().unwrap(), a.space);
    }

    #[test]
    fn problem_validates() {
        let p = Ldo::n6().problem().unwrap();
        assert_eq!(p.specs.len(), 4);
    }
}

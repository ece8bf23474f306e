//! MNA compilation and stamping.
//!
//! [`Engine`] compiles a [`Circuit`] into an indexed form: non-ground nodes
//! map to unknowns `0..n_nodes`, and every element that needs a branch
//! current (voltage sources, VCVS, inductors) gets an unknown in
//! `n_nodes..n_nodes + n_branches`. [`Engine::compile`] is the only way a
//! circuit's values reach the engine: a sizing evaluation compiles its
//! circuit afresh, a small fraction of the cost of the solves it feeds
//! (DESIGN.md §5.6 has the measurements).
//!
//! Two loaders assemble the systems the analyses solve: `load_dc` the
//! real Newton system of an operating point, a DC sweep point or a
//! backward-Euler transient step, and `load_ac` the complex small-signal
//! system.

use crate::circuit::{AcSpec, Circuit, ElementKind, NodeId, Waveform};
use crate::devices::{eval_diode, eval_mosfet, DiodeModel, MosGeometry, MosModel};
use crate::error::SpiceError;
use asdex_linalg::{Assembler, Complex, Scalar};

/// Index of a node unknown; `None` is the ground reference.
pub(crate) type NodeIdx = Option<usize>;

/// An element compiled to unknown indices with resolved model cards.
#[derive(Debug, Clone)]
pub(crate) enum Compiled {
    Resistor { a: NodeIdx, b: NodeIdx, g: f64 },
    Capacitor { a: NodeIdx, b: NodeIdx, c: f64 },
    Inductor { a: NodeIdx, b: NodeIdx, l: f64, br: usize },
    Vsource { p: NodeIdx, n: NodeIdx, dc: f64, ac: Option<AcSpec>, wave: Option<Waveform>, br: usize },
    Isource { p: NodeIdx, n: NodeIdx, dc: f64, ac: Option<AcSpec>, wave: Option<Waveform> },
    Vcvs { p: NodeIdx, n: NodeIdx, cp: NodeIdx, cn: NodeIdx, gain: f64, br: usize },
    Vccs { p: NodeIdx, n: NodeIdx, cp: NodeIdx, cn: NodeIdx, gm: f64 },
    Cccs { p: NodeIdx, n: NodeIdx, ctrl: usize, gain: f64 },
    Ccvs { p: NodeIdx, n: NodeIdx, ctrl: usize, r: f64, br: usize },
    Diode { p: NodeIdx, n: NodeIdx, model: DiodeModel },
    Mosfet { d: NodeIdx, g: NodeIdx, s: NodeIdx, b: NodeIdx, model: MosModel, geom: MosGeometry },
}

/// A compiled circuit ready for repeated matrix assembly.
#[derive(Debug, Clone)]
pub struct Engine {
    pub(crate) n_nodes: usize,
    pub(crate) n_branches: usize,
    pub(crate) elems: Vec<Compiled>,
    pub(crate) temp_kelvin: f64,
    /// Branch element names indexed by branch number.
    pub(crate) branch_names: Vec<String>,
}

impl Engine {
    /// Compiles a circuit, resolving model references.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownModel`] when an element references a model card
    /// that was never registered.
    pub fn compile(circuit: &Circuit) -> Result<Self, SpiceError> {
        let idx = |n: NodeId| -> NodeIdx {
            if n.is_ground() {
                None
            } else {
                Some(n.0 - 1)
            }
        };
        let n_nodes = circuit.node_count() - 1;
        let mut elems = Vec::with_capacity(circuit.elements().len());
        let mut branch_names = Vec::new();
        let mut next_branch = 0usize;
        let mut branch = |name: &str, branch_names: &mut Vec<String>| {
            let b = next_branch;
            next_branch += 1;
            branch_names.push(name.to_string());
            b
        };
        for e in circuit.elements() {
            let compiled = match &e.kind {
                ElementKind::Resistor { a, b, ohms } => Compiled::Resistor { a: idx(*a), b: idx(*b), g: 1.0 / ohms },
                ElementKind::Capacitor { a, b, farads } => Compiled::Capacitor { a: idx(*a), b: idx(*b), c: *farads },
                ElementKind::Inductor { a, b, henries } => Compiled::Inductor {
                    a: idx(*a),
                    b: idx(*b),
                    l: *henries,
                    br: branch(&e.name, &mut branch_names),
                },
                ElementKind::Vsource { p, n, dc, ac, wave } => Compiled::Vsource {
                    p: idx(*p),
                    n: idx(*n),
                    dc: *dc,
                    ac: *ac,
                    wave: wave.clone(),
                    br: branch(&e.name, &mut branch_names),
                },
                ElementKind::Isource { p, n, dc, ac, wave } => Compiled::Isource {
                    p: idx(*p),
                    n: idx(*n),
                    dc: *dc,
                    ac: *ac,
                    wave: wave.clone(),
                },
                ElementKind::Vcvs { p, n, cp, cn, gain } => Compiled::Vcvs {
                    p: idx(*p),
                    n: idx(*n),
                    cp: idx(*cp),
                    cn: idx(*cn),
                    gain: *gain,
                    br: branch(&e.name, &mut branch_names),
                },
                ElementKind::Vccs { p, n, cp, cn, gm } => Compiled::Vccs {
                    p: idx(*p),
                    n: idx(*n),
                    cp: idx(*cp),
                    cn: idx(*cn),
                    gm: *gm,
                },
                // Controlling-branch names resolve after all branches are
                // assigned; store a placeholder index for now.
                ElementKind::Cccs { p, n, gain, .. } => {
                    Compiled::Cccs { p: idx(*p), n: idx(*n), ctrl: usize::MAX, gain: *gain }
                }
                ElementKind::Ccvs { p, n, r, .. } => Compiled::Ccvs {
                    p: idx(*p),
                    n: idx(*n),
                    ctrl: usize::MAX,
                    r: *r,
                    br: branch(&e.name, &mut branch_names),
                },
                ElementKind::Diode { p, n, model, area } => {
                    let card = circuit.diode_model(model).ok_or_else(|| SpiceError::UnknownModel {
                        model: model.clone(),
                        element: e.name.clone(),
                    })?;
                    let mut m = card.clone();
                    m.is *= area;
                    m.cj0 *= area;
                    Compiled::Diode { p: idx(*p), n: idx(*n), model: m }
                }
                ElementKind::Mosfet { d, g, s, b, model, geom } => {
                    let card = circuit.mos_model(model).ok_or_else(|| SpiceError::UnknownModel {
                        model: model.clone(),
                        element: e.name.clone(),
                    })?;
                    Compiled::Mosfet {
                        d: idx(*d),
                        g: idx(*g),
                        s: idx(*s),
                        b: idx(*b),
                        model: card.clone(),
                        geom: *geom,
                    }
                }
            };
            elems.push(compiled);
        }
        // Resolve current-control references now that every voltage-defined
        // element has its branch index.
        for (elem, source) in elems.iter_mut().zip(circuit.elements()) {
            let ctrl_name = match &source.kind {
                ElementKind::Cccs { ctrl, .. } | ElementKind::Ccvs { ctrl, .. } => ctrl,
                _ => continue,
            };
            let Some(ctrl_idx) = branch_names.iter().position(|n| n.eq_ignore_ascii_case(ctrl_name))
            else {
                return Err(SpiceError::UnknownModel {
                    model: format!("controlling source {ctrl_name}"),
                    element: source.name.clone(),
                });
            };
            // The compiled element mirrors the source kind matched above;
            // anything else would be an internal inconsistency, which a
            // worker must not turn into a panic — skip it instead.
            if let Compiled::Cccs { ctrl, .. } | Compiled::Ccvs { ctrl, .. } = elem {
                *ctrl = ctrl_idx;
            }
        }
        Ok(Engine {
            n_nodes,
            n_branches: next_branch,
            elems,
            temp_kelvin: circuit.temp_kelvin(),
            branch_names,
        })
    }

    /// Total number of unknowns (node voltages + branch currents).
    pub fn dim(&self) -> usize {
        self.n_nodes + self.n_branches
    }

    /// Branch index of a named voltage-defined element, if any.
    pub fn branch_of(&self, name: &str) -> Option<usize> {
        self.branch_names.iter().position(|n| n.eq_ignore_ascii_case(name))
    }

    /// Assembles the real Newton system linearized at `x`: an operating
    /// point (or DC sweep point), or with `step` a backward-Euler
    /// transient step.
    ///
    /// `gmin` adds a shunt conductance from every node to ground
    /// (continuation aid); `src_scale` scales all independent sources
    /// (source stepping). A transient `step` sets each source with a
    /// waveform to its value at the step's time, and stamps each
    /// capacitance's companion right after its element's other stamps.
    pub(crate) fn load_dc(
        &self,
        x: &[f64],
        a: &mut dyn Assembler<f64>,
        z: &mut [f64],
        gmin: f64,
        src_scale: f64,
        step: Option<&TranStep>,
    ) {
        a.reset();
        z.fill(0.0);
        let nb = self.n_nodes;
        let v = |i: NodeIdx| voltage(x, i);
        let level = |dc: f64, wave: &Option<Waveform>| {
            step.zip(wave.as_ref()).map_or(dc, |(st, w)| w.value_at(st.t)) * src_scale
        };
        let mut caps = step.map(|st| st.caps.iter());

        // Global gmin shunt.
        for i in 0..self.n_nodes {
            a.add(i, i, gmin);
        }

        for e in &self.elems {
            match e {
                Compiled::Resistor { a: na, b: nbx, g } => stamp_g(a, *na, *nbx, *g),
                // Open in DC.
                Compiled::Capacitor { a: na, b: nbx, c } => {
                    if let Some(st) = step {
                        st.companion(a, z, *na, *nbx, *c);
                    }
                }
                // v_a - v_b = 0 in DC; L·di/dt in a transient step.
                Compiled::Inductor { a: na, b: nbx, l, br } => {
                    let row = nb + *br;
                    stamp_branch_voltage(a, *na, *nbx, row);
                    if let Some(st) = step {
                        a.add(row, row, -(l / st.h));
                        z[row] = -(l / st.h) * st.x_prev[row];
                    }
                }
                Compiled::Vsource { p, n, dc, wave, br, .. } => {
                    stamp_branch_voltage(a, *p, *n, nb + *br);
                    z[nb + *br] = level(*dc, wave);
                }
                Compiled::Isource { p, n, dc, wave, .. } => inject(z, *p, *n, level(*dc, wave)),
                Compiled::Vcvs { p, n, cp, cn, gain, br } => {
                    let row = nb + *br;
                    stamp_branch_voltage(a, *p, *n, row);
                    if let Some(k) = cp {
                        a.add(row, *k, -gain);
                    }
                    if let Some(k) = cn {
                        a.add(row, *k, *gain);
                    }
                }
                Compiled::Vccs { p, n, cp, cn, gm } => stamp_vccs(a, *p, *n, *cp, *cn, *gm),
                Compiled::Cccs { p, n, ctrl, gain } => stamp_cccs(a, *p, *n, nb + *ctrl, *gain),
                Compiled::Ccvs { p, n, ctrl, r, br } => {
                    let row = nb + *br;
                    stamp_branch_voltage(a, *p, *n, row);
                    a.add(row, nb + *ctrl, -r);
                }
                Compiled::Diode { p, n, model } => {
                    let vd = v(*p) - v(*n);
                    let op = eval_diode(model, vd, self.temp_kelvin);
                    stamp_g(a, *p, *n, op.gd);
                    inject(z, *p, *n, op.id - op.gd * vd);
                    if let Some(st) = step.filter(|_| model.cj0 > 0.0) {
                        st.companion(a, z, *p, *n, model.cj0);
                    }
                }
                Compiled::Mosfet { d, g, s, b, model, geom } => {
                    let vgs = v(*g) - v(*s);
                    let vds = v(*d) - v(*s);
                    let vbs = v(*b) - v(*s);
                    let op = eval_mosfet(model, geom, vgs, vds, vbs);
                    // Effective terminals (see MosOp docs).
                    let (ed, es) = if op.swapped { (*s, *d) } else { (*d, *s) };
                    let vgs_e = v(*g) - v(es);
                    let vds_e = v(ed) - v(es);
                    let vbs_e = v(*b) - v(es);
                    let ieq = op.ids - op.gm * vgs_e - op.gds * vds_e - op.gmbs * vbs_e;
                    stamp_mos(a, ed, *g, es, *b, MosGm { gm: op.gm, gds: op.gds, gmbs: op.gmbs });
                    inject(z, ed, es, ieq);
                    // Meyer caps frozen at the previous time point, on the
                    // physical terminals. `c <= 0.0` skips only real
                    // non-positive caps: a NaN one is stamped.
                    if let (Some(st), Some(cap)) = (step, caps.as_mut().and_then(Iterator::next)) {
                        let gate_caps = [(*s, cap.cgs), (*d, cap.cgd), (*b, cap.cgb)];
                        for (other, c) in gate_caps {
                            if c <= 0.0 {
                                continue;
                            }
                            st.companion(a, z, *g, other, c);
                        }
                    }
                }
            }
        }
    }

    /// Assembles the complex AC system at angular frequency `omega`,
    /// linearized around the DC solution `x_op`.
    ///
    /// Every stamp has the value `re + j·omega·c` with `re` and `c`
    /// independent of `omega`, and the right-hand side does not depend on
    /// `omega` at all: an AC sweep calls this twice and derives every
    /// frequency point from the two (`SolverWorkspace::linearize_ac`).
    pub(crate) fn load_ac(
        &self,
        x_op: &[f64],
        omega: f64,
        y: &mut dyn Assembler<Complex>,
        z: &mut [Complex],
    ) {
        y.reset();
        z.fill(Complex::ZERO);
        let nb = self.n_nodes;
        let v = |i: NodeIdx| voltage(x_op, i);
        let jw = Complex::new(0.0, omega);

        for e in &self.elems {
            match e {
                Compiled::Resistor { a, b, g } => stamp_g(y, *a, *b, Complex::from_re(*g)),
                Compiled::Capacitor { a, b, c } => stamp_g(y, *a, *b, jw * *c),
                Compiled::Inductor { a, b, l, br } => {
                    let row = nb + *br;
                    stamp_branch_voltage(y, *a, *b, row);
                    y.add(row, row, -(jw * *l));
                }
                Compiled::Vsource { p, n, ac, br, .. } => {
                    let row = nb + *br;
                    stamp_branch_voltage(y, *p, *n, row);
                    if let Some(spec) = ac {
                        z[row] = Complex::from_polar(spec.mag, spec.phase_deg.to_radians());
                    }
                }
                Compiled::Isource { p, n, ac, .. } => {
                    if let Some(spec) = ac {
                        let i = Complex::from_polar(spec.mag, spec.phase_deg.to_radians());
                        if let Some(k) = p {
                            z[*k] -= i;
                        }
                        if let Some(k) = n {
                            z[*k] += i;
                        }
                    }
                }
                Compiled::Vcvs { p, n, cp, cn, gain, br } => {
                    let row = nb + *br;
                    stamp_branch_voltage(y, *p, *n, row);
                    if let Some(k) = cp {
                        y.add(row, *k, -Complex::from_re(*gain));
                    }
                    if let Some(k) = cn {
                        y.add(row, *k, Complex::from_re(*gain));
                    }
                }
                Compiled::Vccs { p, n, cp, cn, gm } => {
                    stamp_vccs(y, *p, *n, *cp, *cn, Complex::from_re(*gm))
                }
                Compiled::Cccs { p, n, ctrl, gain } => {
                    stamp_cccs(y, *p, *n, nb + *ctrl, Complex::from_re(*gain))
                }
                Compiled::Ccvs { p, n, ctrl, r, br } => {
                    let row = nb + *br;
                    stamp_branch_voltage(y, *p, *n, row);
                    y.add(row, nb + *ctrl, -Complex::from_re(*r));
                }
                Compiled::Diode { p, n, model } => {
                    let vd = v(*p) - v(*n);
                    let op = eval_diode(model, vd, self.temp_kelvin);
                    stamp_g(y, *p, *n, Complex::from_re(op.gd) + jw * model.cj0);
                }
                Compiled::Mosfet { d, g, s, b, model, geom } => {
                    let vgs = v(*g) - v(*s);
                    let vds = v(*d) - v(*s);
                    let vbs = v(*b) - v(*s);
                    let op = eval_mosfet(model, geom, vgs, vds, vbs);
                    let (ed, es) = if op.swapped { (*s, *d) } else { (*d, *s) };
                    stamp_mos(y, ed, *g, es, *b, MosGm { gm: op.gm, gds: op.gds, gmbs: op.gmbs });
                    // Gate capacitances are on physical terminals.
                    stamp_g(y, *g, *s, jw * op.cgs);
                    stamp_g(y, *g, *d, jw * op.cgd);
                    stamp_g(y, *g, *b, jw * op.cgb);
                }
            }
        }
    }

    /// Evaluates the Meyer gate capacitances of every MOSFET at solution
    /// `x`, in element order.
    pub(crate) fn mos_caps_at(&self, x: &[f64]) -> Vec<MosCaps> {
        let v = |i: NodeIdx| voltage(x, i);
        self.elems
            .iter()
            .filter_map(|e| match e {
                Compiled::Mosfet { d, g, s, b, model, geom } => {
                    let op = eval_mosfet(model, geom, v(*g) - v(*s), v(*d) - v(*s), v(*b) - v(*s));
                    Some(MosCaps { cgs: op.cgs, cgd: op.cgd, cgb: op.cgb })
                }
                _ => None,
            })
            .collect()
    }

    /// Stamps the structural nonzero pattern of every analysis into `a`
    /// using zero values — purely a function of the compiled topology.
    ///
    /// This is how a sparse backend learns its pattern *before* any
    /// values exist, so the symbolic factorization never depends on an
    /// operating point: the position set is the union of everything
    /// [`Engine::load_dc`] (with or without a transient step) and
    /// [`Engine::load_ac`] can touch (including both MOSFET source/drain
    /// orientations, whose stamps cover the same index set, and all
    /// companion-model and gate capacitance positions, which subset the
    /// element conductance patterns stamped here).
    pub(crate) fn stamp_pattern<S: Scalar>(&self, a: &mut dyn Assembler<S>) {
        let nb = self.n_nodes;
        let zero = S::zero();
        // gmin shunt diagonal (also covers AC where gmin is absent).
        for i in 0..self.n_nodes {
            a.add(i, i, zero);
        }
        for e in &self.elems {
            match e {
                Compiled::Resistor { a: na, b, .. } | Compiled::Capacitor { a: na, b, .. } => {
                    stamp_g(a, *na, *b, zero)
                }
                Compiled::Inductor { a: na, b, br, .. } => {
                    let row = nb + *br;
                    stamp_branch_voltage(a, *na, *b, row);
                    a.add(row, row, zero);
                }
                Compiled::Vsource { p, n, br, .. } => {
                    stamp_branch_voltage(a, *p, *n, nb + *br)
                }
                Compiled::Isource { .. } => {}
                Compiled::Vcvs { p, n, cp, cn, br, .. } => {
                    let row = nb + *br;
                    stamp_branch_voltage(a, *p, *n, row);
                    if let Some(k) = cp {
                        a.add(row, *k, zero);
                    }
                    if let Some(k) = cn {
                        a.add(row, *k, zero);
                    }
                }
                Compiled::Vccs { p, n, cp, cn, .. } => stamp_vccs(a, *p, *n, *cp, *cn, zero),
                Compiled::Cccs { p, n, ctrl, .. } => stamp_cccs(a, *p, *n, nb + *ctrl, zero),
                Compiled::Ccvs { p, n, ctrl, br, .. } => {
                    let row = nb + *br;
                    stamp_branch_voltage(a, *p, *n, row);
                    a.add(row, nb + *ctrl, zero);
                }
                Compiled::Diode { p, n, .. } => stamp_g(a, *p, *n, zero),
                Compiled::Mosfet { d, g, s, b, .. } => {
                    // Rows {d,s} × cols {g,d,b,s}: identical for either
                    // effective orientation, so one stamp covers both.
                    stamp_mos(a, *d, *g, *s, *b, MosGm { gm: 0.0, gds: 0.0, gmbs: 0.0 });
                    // Meyer gate capacitances (AC + transient).
                    stamp_g(a, *g, *s, zero);
                    stamp_g(a, *g, *d, zero);
                    stamp_g(a, *g, *b, zero);
                }
            }
        }
    }
}

/// Frozen Meyer capacitances of one MOSFET.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MosCaps {
    pub cgs: f64,
    pub cgd: f64,
    pub cgb: f64,
}

/// The backward-Euler step a transient Newton solve is taken at.
#[derive(Debug)]
pub(crate) struct TranStep<'a> {
    /// Time at the end of the step \[s\].
    pub t: f64,
    /// Step size \[s\].
    pub h: f64,
    /// Converged solution at `t - h`.
    pub x_prev: &'a [f64],
    /// Meyer capacitances of every MOSFET at `x_prev`, in element order
    /// ([`Engine::mos_caps_at`]).
    pub caps: &'a [MosCaps],
}

impl TranStep<'_> {
    /// Stamps the companion of capacitance `c` between `p` and `n`: the
    /// conductance `c/h` in parallel with the current source that holds
    /// the voltage across it at the previous time point.
    fn companion(&self, a: &mut dyn Assembler<f64>, z: &mut [f64], p: NodeIdx, n: NodeIdx, c: f64) {
        let geq = c / self.h;
        let v_old = voltage(self.x_prev, p) - voltage(self.x_prev, n);
        stamp_g(a, p, n, geq);
        inject(z, p, n, -(geq * v_old));
    }
}

/// The voltage of node `i` in the unknown vector `x` (0 for ground).
fn voltage(x: &[f64], i: NodeIdx) -> f64 {
    i.map_or(0.0, |k| x[k])
}

/// Adds current `i` flowing from `p` to `n` through an element to the
/// right-hand side.
fn inject(z: &mut [f64], p: NodeIdx, n: NodeIdx, i: f64) {
    if let Some(k) = p {
        z[k] -= i;
    }
    if let Some(k) = n {
        z[k] += i;
    }
}

fn stamp_g<S: Scalar>(a: &mut dyn Assembler<S>, i: NodeIdx, j: NodeIdx, g: S) {
    if let Some(i) = i {
        a.add(i, i, g);
        if let Some(j) = j {
            a.add(i, j, -g);
            a.add(j, i, -g);
        }
    }
    if let Some(j) = j {
        a.add(j, j, g);
    }
}

/// Stamps the incidence pattern of a voltage-defined branch (V source,
/// VCVS output, inductor): current unknown into node rows, voltage
/// constraint into the branch row.
fn stamp_branch_voltage<S: Scalar>(a: &mut dyn Assembler<S>, p: NodeIdx, n: NodeIdx, row: usize) {
    if let Some(k) = p {
        a.add(k, row, S::one());
        a.add(row, k, S::one());
    }
    if let Some(k) = n {
        a.add(k, row, -S::one());
        a.add(row, k, -S::one());
    }
}

fn stamp_vccs<S: Scalar>(
    a: &mut dyn Assembler<S>,
    p: NodeIdx,
    n: NodeIdx,
    cp: NodeIdx,
    cn: NodeIdx,
    gm: S,
) {
    for (node, flip) in [(p, false), (n, true)] {
        if let Some(i) = node {
            let (into_cp, into_cn) = if flip { (-gm, gm) } else { (gm, -gm) };
            if let Some(j) = cp {
                a.add(i, j, into_cp);
            }
            if let Some(j) = cn {
                a.add(i, j, into_cn);
            }
        }
    }
}

/// Stamps a current-controlled current source: the current of branch
/// column `ctrl_col` is injected (scaled by `gain`) at nodes p/n.
fn stamp_cccs<S: Scalar>(a: &mut dyn Assembler<S>, p: NodeIdx, n: NodeIdx, ctrl_col: usize, gain: S) {
    if let Some(i) = p {
        a.add(i, ctrl_col, gain);
    }
    if let Some(i) = n {
        a.add(i, ctrl_col, -gain);
    }
}

/// The MOSFET small-signal conductance triple.
#[derive(Debug, Clone, Copy)]
struct MosGm {
    gm: f64,
    gds: f64,
    gmbs: f64,
}

/// Stamps the MOSFET small-signal pattern: drain current controlled by
/// (vgs, vds, vbs) of the effective terminals.
fn stamp_mos<S: Scalar>(
    a: &mut dyn Assembler<S>,
    d: NodeIdx,
    g: NodeIdx,
    s: NodeIdx,
    b: NodeIdx,
    c: MosGm,
) {
    let MosGm { gm, gds, gmbs } = c;
    let total = gm + gds + gmbs;
    for (node, sign) in [(d, 1.0), (s, -1.0)] {
        if let Some(i) = node {
            if let Some(j) = g {
                a.add(i, j, S::from_f64(sign * gm));
            }
            if let Some(j) = d {
                a.add(i, j, S::from_f64(sign * gds));
            }
            if let Some(j) = b {
                a.add(i, j, S::from_f64(sign * gmbs));
            }
            if let Some(j) = s {
                a.add(i, j, S::from_f64(-(sign * total)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn compile_counts_unknowns() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_inductor("L1", b, Circuit::GROUND, 1e-3).unwrap();
        let eng = Engine::compile(&c).unwrap();
        assert_eq!(eng.n_nodes, 2);
        assert_eq!(eng.n_branches, 2, "V source + inductor");
        assert_eq!(eng.dim(), 4);
        assert_eq!(eng.branch_of("v1"), Some(0));
        assert_eq!(eng.branch_of("L1"), Some(1));
        assert_eq!(eng.branch_of("R1"), None);
    }

    #[test]
    fn unknown_model_is_reported() {
        let mut c = Circuit::new();
        let d = c.node("d");
        c.add_mosfet(
            "M1",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            "missing",
            crate::devices::MosGeometry::new(1e-6, 1e-6),
        )
        .unwrap();
        match Engine::compile(&c) {
            Err(SpiceError::UnknownModel { model, element }) => {
                assert_eq!(model, "missing");
                assert_eq!(element, "M1");
            }
            other => panic!("expected UnknownModel, got {other:?}"),
        }
    }

    #[test]
    fn resistor_divider_stamps() {
        // v1 -- R1 -- out -- R2 -- gnd with V1 = 2V: the assembled linear
        // system must solve to v(out) = 1V.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, 2.0).unwrap();
        c.add_resistor("R1", vin, out, 1e3).unwrap();
        c.add_resistor("R2", out, Circuit::GROUND, 1e3).unwrap();
        let eng = Engine::compile(&c).unwrap();
        let mut a = asdex_linalg::Matrix::zeros(eng.dim(), eng.dim());
        let mut z = vec![0.0; eng.dim()];
        let x = vec![0.0; eng.dim()];
        eng.load_dc(&x, &mut a, &mut z, 0.0, 1.0, None);
        let sol = asdex_linalg::solve(a, &z).unwrap();
        assert!((sol[0] - 2.0).abs() < 1e-12, "v(in)");
        assert!((sol[1] - 1.0).abs() < 1e-12, "v(out)");
        // Branch current of V1: 2V across 2k = 1mA, flowing out of + into
        // the circuit means the source branch current is -1mA by the MNA
        // sign convention (current measured p→n through the source).
        assert!((sol[2] + 1e-3).abs() < 1e-12, "i(V1) = {}", sol[2]);
    }

    #[test]
    fn cccs_mirrors_branch_current() {
        // V1 drives 1 mA through R1; F1 mirrors 2× that current into R2.
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        c.add_vsource("V1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        c.add_cccs("F1", Circuit::GROUND, out, "V1", 2.0).unwrap();
        c.add_resistor("R2", out, Circuit::GROUND, 1e3).unwrap();
        let eng = Engine::compile(&c).unwrap();
        let mut a_m = asdex_linalg::Matrix::zeros(eng.dim(), eng.dim());
        let mut z = vec![0.0; eng.dim()];
        eng.load_dc(&vec![0.0; eng.dim()], &mut a_m, &mut z, 0.0, 1.0, None);
        let sol = asdex_linalg::solve(a_m, &z).unwrap();
        // i(V1) = −1 mA (the source *sinks* the resistor current in MNA
        // convention), so the mirrored current is gain·i = −2 mA flowing
        // 0→out through F1: v(out) = −2 V. Matches SPICE.
        let out_idx = 1;
        assert!((sol[out_idx] + 2.0).abs() < 1e-9, "v(out) = {}", sol[out_idx]);
    }

    #[test]
    fn ccvs_transresistance() {
        // 1 mA through V1 (1 V into 1 kΩ); H1 produces 5000 · i volts.
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        c.add_vsource("V1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        c.add_ccvs("H1", out, Circuit::GROUND, "V1", 5e3).unwrap();
        c.add_resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let eng = Engine::compile(&c).unwrap();
        let mut a_m = asdex_linalg::Matrix::zeros(eng.dim(), eng.dim());
        let mut z = vec![0.0; eng.dim()];
        eng.load_dc(&vec![0.0; eng.dim()], &mut a_m, &mut z, 0.0, 1.0, None);
        let sol = asdex_linalg::solve(a_m, &z).unwrap();
        // i(V1) = −1 mA → v(out) = 5e3 · (−1e-3) = −5 V.
        assert!((sol[1] + 5.0).abs() < 1e-9, "v(out) = {}", sol[1]);
    }

    #[test]
    fn unknown_control_reference_is_reported() {
        let mut c = Circuit::new();
        let out = c.node("out");
        c.add_cccs("F1", Circuit::GROUND, out, "VMISSING", 1.0).unwrap();
        c.add_resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        assert!(matches!(Engine::compile(&c), Err(SpiceError::UnknownModel { .. })));
    }

    #[test]
    fn pattern_covers_every_load() {
        // One of every element kind; the topology pattern must be a
        // superset of the positions every analysis load can touch.
        use asdex_linalg::{Complex, SparseAssembler};
        use std::collections::HashSet;

        let mut c = Circuit::new();
        c.add_diode_model("d1", crate::devices::DiodeModel::default());
        c.add_mos_model("m1", crate::devices::MosModel::default_nmos());
        let n1 = c.node("n1");
        let n2 = c.node("n2");
        let n3 = c.node("n3");
        let n4 = c.node("n4");
        c.add_vsource("V1", n1, Circuit::GROUND, 1.8).unwrap();
        c.add_resistor("R1", n1, n2, 1e3).unwrap();
        c.add_capacitor("C1", n2, Circuit::GROUND, 1e-12).unwrap();
        c.add_inductor("L1", n2, n3, 1e-6).unwrap();
        c.add_isource("I1", Circuit::GROUND, n3, 1e-4).unwrap();
        c.add_vcvs("E1", n4, Circuit::GROUND, n2, n3, 2.0).unwrap();
        c.add_vccs("G1", n3, Circuit::GROUND, n1, n2, 1e-3).unwrap();
        c.add_cccs("F1", Circuit::GROUND, n4, "V1", 0.5).unwrap();
        c.add_ccvs("H1", n4, n3, "L1", 10.0).unwrap();
        c.add_diode("D1", n3, Circuit::GROUND, "d1", 1.0).unwrap();
        c.add_mosfet(
            "M1",
            n4,
            n2,
            Circuit::GROUND,
            Circuit::GROUND,
            "m1",
            crate::devices::MosGeometry::new(1e-6, 1e-6),
        )
        .unwrap();
        let eng = Engine::compile(&c).unwrap();
        let dim = eng.dim();

        let mut pat = SparseAssembler::<f64>::new();
        pat.begin(dim);
        eng.stamp_pattern(&mut pat);
        let pattern: HashSet<(u32, u32)> = pat.pos().iter().copied().collect();

        let x = vec![0.1; dim];
        let mut z = vec![0.0; dim];

        let mut dc = SparseAssembler::<f64>::new();
        dc.begin(dim);
        eng.load_dc(&x, &mut dc, &mut z, 1e-12, 1.0, None);
        for p in dc.pos() {
            assert!(pattern.contains(p), "dc stamped {p:?} outside the pattern");
        }

        let mut zc = vec![Complex::ZERO; dim];
        let mut ac = SparseAssembler::<Complex>::new();
        ac.begin(dim);
        eng.load_ac(&x, 1e6, &mut ac, &mut zc);
        for p in ac.pos() {
            assert!(pattern.contains(p), "ac stamped {p:?} outside the pattern");
        }

        let caps = eng.mos_caps_at(&x);
        let x_prev = vec![0.2; dim];
        let step = TranStep { t: 1e-9, h: 1e-9, x_prev: &x_prev, caps: &caps };
        let mut tr = SparseAssembler::<f64>::new();
        tr.begin(dim);
        eng.load_dc(&x, &mut tr, &mut z, 0.0, 1.0, Some(&step));
        for p in tr.pos() {
            assert!(pattern.contains(p), "tran stamped {p:?} outside the pattern");
        }
    }

    #[test]
    fn isource_convention() {
        // I1 from ground into node out through 1k: v(out) = 1V.
        let mut c = Circuit::new();
        let out = c.node("out");
        c.add_isource("I1", Circuit::GROUND, out, 1e-3).unwrap();
        c.add_resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        let eng = Engine::compile(&c).unwrap();
        let mut a = asdex_linalg::Matrix::zeros(eng.dim(), eng.dim());
        let mut z = vec![0.0; eng.dim()];
        eng.load_dc(&[0.0], &mut a, &mut z, 0.0, 1.0, None);
        let sol = asdex_linalg::solve(a, &z).unwrap();
        assert!((sol[0] - 1.0).abs() < 1e-12);
    }
}

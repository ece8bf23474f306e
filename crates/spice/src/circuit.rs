//! Circuit representation: interned nodes, elements, model cards.
//!
//! A [`Circuit`] is built either programmatically with the `add_*` builder
//! methods or by parsing a SPICE deck (see [`crate::parser`]). It is a pure
//! description; analyses compile it into an MNA system (see
//! [`crate::analysis`]).

use crate::devices::{DiodeModel, MosGeometry, MosModel};
use crate::error::SpiceError;
use std::collections::HashMap;

/// Identifier of a circuit node. `NodeId::GROUND` is the reference node
/// (`"0"` / `"gnd"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The reference (ground) node.
    pub const GROUND: NodeId = NodeId(0);

    /// `true` if this is the reference node.
    #[inline]
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// AC stimulus attached to an independent source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcSpec {
    /// Magnitude of the phasor.
    pub mag: f64,
    /// Phase in degrees.
    pub phase_deg: f64,
}

impl AcSpec {
    /// Unit-magnitude, zero-phase stimulus (the usual AC probe).
    pub fn unit() -> Self {
        AcSpec { mag: 1.0, phase_deg: 0.0 }
    }
}

/// Time-domain waveform of an independent source.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// SPICE `PULSE(v1 v2 td tr tf pw per)`.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge \[s\].
        td: f64,
        /// Rise time \[s\].
        tr: f64,
        /// Fall time \[s\].
        tf: f64,
        /// Pulse width \[s\].
        pw: f64,
        /// Period \[s\].
        per: f64,
    },
    /// SPICE `SIN(vo va freq td theta)`.
    Sin {
        /// Offset.
        vo: f64,
        /// Amplitude.
        va: f64,
        /// Frequency \[Hz\].
        freq: f64,
        /// Delay \[s\].
        td: f64,
        /// Damping factor \[1/s\].
        theta: f64,
    },
    /// Piece-wise linear `(time, value)` points; constant extrapolation
    /// outside the listed range.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Value of the waveform at time `t` (seconds), with the DC value used
    /// before any waveform activity.
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            Waveform::Pulse { v1, v2, td, tr, tf, pw, per } => {
                if t < *td {
                    return *v1;
                }
                let per = if *per > 0.0 { *per } else { f64::INFINITY };
                let tau = (t - td) % per;
                let tr = tr.max(1e-15);
                let tf = tf.max(1e-15);
                if tau < tr {
                    v1 + (v2 - v1) * tau / tr
                } else if tau < tr + pw {
                    *v2
                } else if tau < tr + pw + tf {
                    v2 + (v1 - v2) * (tau - tr - pw) / tf
                } else {
                    *v1
                }
            }
            Waveform::Sin { vo, va, freq, td, theta } => {
                if t < *td {
                    *vo
                } else {
                    let tp = t - td;
                    vo + va * (-theta * tp).exp() * (2.0 * std::f64::consts::PI * freq * tp).sin()
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t1 {
                        if t1 - t0 <= 0.0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().expect("nonempty").1
            }
        }
    }
}

/// The kind (and connectivity) of a circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum ElementKind {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance \[Ω\]; must be positive.
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance \[F\]; must be non-negative.
        farads: f64,
    },
    /// Linear inductor between `a` and `b` (adds a branch current unknown).
    Inductor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance \[H\]; must be positive.
        henries: f64,
    },
    /// Independent voltage source from `p` (+) to `n` (−).
    Vsource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// DC value \[V\].
        dc: f64,
        /// Optional AC stimulus.
        ac: Option<AcSpec>,
        /// Optional transient waveform.
        wave: Option<Waveform>,
    },
    /// Independent current source pushing current from `p` through the
    /// source to `n` (SPICE convention: positive current flows p→n inside
    /// the source).
    Isource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// DC value \[A\].
        dc: f64,
        /// Optional AC stimulus.
        ac: Option<AcSpec>,
        /// Optional transient waveform.
        wave: Option<Waveform>,
    },
    /// Voltage-controlled voltage source: `V(p,n) = gain · V(cp,cn)`.
    Vcvs {
        /// Positive output terminal.
        p: NodeId,
        /// Negative output terminal.
        n: NodeId,
        /// Positive controlling node.
        cp: NodeId,
        /// Negative controlling node.
        cn: NodeId,
        /// Voltage gain.
        gain: f64,
    },
    /// Voltage-controlled current source: `I(p→n) = gm · V(cp,cn)`.
    Vccs {
        /// Current exits here.
        p: NodeId,
        /// Current returns here.
        n: NodeId,
        /// Positive controlling node.
        cp: NodeId,
        /// Negative controlling node.
        cn: NodeId,
        /// Transconductance \[S\].
        gm: f64,
    },
    /// Current-controlled current source: `I(p→n) = gain · i(ctrl)`, where
    /// `ctrl` names a voltage-defined element (V source, VCVS, inductor)
    /// whose branch current controls this one.
    Cccs {
        /// Current exits here.
        p: NodeId,
        /// Current returns here.
        n: NodeId,
        /// Name of the controlling voltage-defined element.
        ctrl: String,
        /// Current gain.
        gain: f64,
    },
    /// Current-controlled voltage source: `V(p,n) = r · i(ctrl)`.
    Ccvs {
        /// Positive output terminal.
        p: NodeId,
        /// Negative output terminal.
        n: NodeId,
        /// Name of the controlling voltage-defined element.
        ctrl: String,
        /// Transresistance \[Ω\].
        r: f64,
    },
    /// Junction diode from anode `p` to cathode `n`.
    Diode {
        /// Anode.
        p: NodeId,
        /// Cathode.
        n: NodeId,
        /// Model card name (must be registered via
        /// [`Circuit::add_diode_model`]).
        model: String,
        /// Area multiplier.
        area: f64,
    },
    /// Four-terminal MOSFET.
    Mosfet {
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Bulk.
        b: NodeId,
        /// Model card name (must be registered via
        /// [`Circuit::add_mos_model`]).
        model: String,
        /// Instance geometry.
        geom: MosGeometry,
    },
}

/// A named circuit element.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Instance name, e.g. `"M1"`, `"Rload"`.
    pub name: String,
    /// Element kind and connectivity.
    pub kind: ElementKind,
}

/// A numeric element field that [`Circuit::set_value`] writes: what a
/// parsed deck template binds to a design axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValueField {
    /// An R, C or L value, or a V or I source's DC level.
    Value,
    /// A MOSFET's width.
    W,
    /// A MOSFET's length.
    L,
    /// A MOSFET's multiplier.
    M,
}

/// Why an element's values are out of range, or `None` when they are
/// fine: the one check behind every `add_*` builder and
/// [`Circuit::set_value`].
fn invalid(kind: &ElementKind) -> Option<String> {
    let positive = |v: f64| v > 0.0 && v.is_finite();
    let reason = match kind {
        ElementKind::Resistor { ohms, .. } if !positive(*ohms) => {
            format!("resistance must be positive and finite, got {ohms}")
        }
        ElementKind::Capacitor { farads, .. } if !(*farads >= 0.0 && farads.is_finite()) => {
            format!("capacitance must be non-negative, got {farads}")
        }
        ElementKind::Inductor { henries, .. } if !positive(*henries) => {
            format!("inductance must be positive, got {henries}")
        }
        ElementKind::Vsource { dc, .. } | ElementKind::Isource { dc, .. } if !dc.is_finite() => {
            "dc value must be finite".to_string()
        }
        ElementKind::Vcvs { gain, .. } | ElementKind::Cccs { gain, .. } if !gain.is_finite() => {
            "gain must be finite".to_string()
        }
        ElementKind::Vccs { gm, .. } if !gm.is_finite() => "transconductance must be finite".to_string(),
        ElementKind::Ccvs { r, .. } if !r.is_finite() => "transresistance must be finite".to_string(),
        ElementKind::Diode { area, .. } if !positive(*area) => format!("area must be positive, got {area}"),
        ElementKind::Mosfet { geom, .. }
            if !(positive(geom.w) && positive(geom.l) && positive(geom.m)) =>
        {
            format!("W/L/m must be positive, got w={} l={} m={}", geom.w, geom.l, geom.m)
        }
        _ => return None,
    };
    Some(reason)
}

/// A complete circuit: nodes, elements, and model cards.
///
/// # Example
///
/// ```
/// use asdex_spice::Circuit;
///
/// # fn main() -> Result<(), asdex_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let vout = ckt.node("out");
/// ckt.add_vsource("V1", vin, Circuit::GROUND, 1.0)?;
/// ckt.add_resistor("R1", vin, vout, 1e3)?;
/// ckt.add_resistor("R2", vout, Circuit::GROUND, 1e3)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    node_names: Vec<String>,
    node_index: HashMap<String, NodeId>,
    elements: Vec<Element>,
    mos_models: HashMap<String, MosModel>,
    diode_models: HashMap<String, DiodeModel>,
    /// Simulation temperature in °C (default 27).
    pub temp_celsius: f64,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// The reference node, spelled `"0"` in decks.
    pub const GROUND: NodeId = NodeId::GROUND;

    /// Creates an empty circuit at the default temperature (27 °C).
    pub fn new() -> Self {
        let mut node_index = HashMap::new();
        node_index.insert("0".to_string(), NodeId(0));
        node_index.insert("gnd".to_string(), NodeId(0));
        Circuit {
            node_names: vec!["0".to_string()],
            node_index,
            elements: Vec::new(),
            mos_models: HashMap::new(),
            diode_models: HashMap::new(),
            temp_celsius: 27.0,
        }
    }

    /// Interns a node by name, creating it on first use. Names are
    /// case-insensitive; `"0"` and `"gnd"` are the reference node.
    pub fn node(&mut self, name: &str) -> NodeId {
        let key = name.to_ascii_lowercase();
        if let Some(&id) = self.node_index.get(&key) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(key.clone());
        self.node_index.insert(key, id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_index.get(&name.to_ascii_lowercase()).copied()
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Number of nodes, including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// All node ids except ground, in creation order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (1..self.node_names.len()).map(NodeId).collect()
    }

    /// The elements of the circuit, in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Registers a MOSFET model card under `name` (case-insensitive).
    pub fn add_mos_model(&mut self, name: &str, model: MosModel) {
        self.mos_models.insert(name.to_ascii_lowercase(), model);
    }

    /// Registers a diode model card under `name` (case-insensitive).
    pub fn add_diode_model(&mut self, name: &str, model: DiodeModel) {
        self.diode_models.insert(name.to_ascii_lowercase(), model);
    }

    /// Looks up a MOSFET model card.
    pub fn mos_model(&self, name: &str) -> Option<&MosModel> {
        self.mos_models.get(&name.to_ascii_lowercase())
    }

    /// Looks up a diode model card.
    pub fn diode_model(&self, name: &str) -> Option<&DiodeModel> {
        self.diode_models.get(&name.to_ascii_lowercase())
    }

    /// Appends an element after the value checks of [`invalid`].
    fn push(&mut self, name: &str, kind: ElementKind) -> Result<(), SpiceError> {
        if let Some(reason) = invalid(&kind) {
            return Err(SpiceError::InvalidParameter { element: name.to_string(), reason });
        }
        self.elements.push(Element { name: name.to_string(), kind });
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `ohms <= 0` or not finite.
    pub fn add_resistor(&mut self, name: &str, a: NodeId, b: NodeId, ohms: f64) -> Result<(), SpiceError> {
        self.push(name, ElementKind::Resistor { a, b, ohms })
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `farads < 0` or not finite.
    pub fn add_capacitor(&mut self, name: &str, a: NodeId, b: NodeId, farads: f64) -> Result<(), SpiceError> {
        self.push(name, ElementKind::Capacitor { a, b, farads })
    }

    /// Adds an inductor.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `henries <= 0` or not finite.
    pub fn add_inductor(&mut self, name: &str, a: NodeId, b: NodeId, henries: f64) -> Result<(), SpiceError> {
        self.push(name, ElementKind::Inductor { a, b, henries })
    }

    /// Adds a DC voltage source (use [`Circuit::add_vsource_full`] for
    /// AC/transient stimuli).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `dc` is not finite.
    pub fn add_vsource(&mut self, name: &str, p: NodeId, n: NodeId, dc: f64) -> Result<(), SpiceError> {
        self.add_vsource_full(name, p, n, dc, None, None)
    }

    /// Adds a voltage source with optional AC and transient stimuli.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `dc` is not finite.
    pub fn add_vsource_full(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        dc: f64,
        ac: Option<AcSpec>,
        wave: Option<Waveform>,
    ) -> Result<(), SpiceError> {
        self.push(name, ElementKind::Vsource { p, n, dc, ac, wave })
    }

    /// Adds a DC current source.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `dc` is not finite.
    pub fn add_isource(&mut self, name: &str, p: NodeId, n: NodeId, dc: f64) -> Result<(), SpiceError> {
        self.add_isource_full(name, p, n, dc, None, None)
    }

    /// Adds a current source with optional AC and transient stimuli.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `dc` is not finite.
    pub fn add_isource_full(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        dc: f64,
        ac: Option<AcSpec>,
        wave: Option<Waveform>,
    ) -> Result<(), SpiceError> {
        self.push(name, ElementKind::Isource { p, n, dc, ac, wave })
    }

    /// Adds a voltage-controlled voltage source (`E` card).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `gain` is not finite.
    pub fn add_vcvs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> Result<(), SpiceError> {
        self.push(name, ElementKind::Vcvs { p, n, cp, cn, gain })
    }

    /// Adds a voltage-controlled current source (`G` card).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `gm` is not finite.
    pub fn add_vccs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> Result<(), SpiceError> {
        self.push(name, ElementKind::Vccs { p, n, cp, cn, gm })
    }

    /// Adds a current-controlled current source (`F` card). `ctrl` names a
    /// voltage-defined element whose branch current controls this source.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `gain` is not finite.
    pub fn add_cccs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        ctrl: &str,
        gain: f64,
    ) -> Result<(), SpiceError> {
        self.push(name, ElementKind::Cccs { p, n, ctrl: ctrl.to_string(), gain })
    }

    /// Adds a current-controlled voltage source (`H` card).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `r` is not finite.
    pub fn add_ccvs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        ctrl: &str,
        r: f64,
    ) -> Result<(), SpiceError> {
        self.push(name, ElementKind::Ccvs { p, n, ctrl: ctrl.to_string(), r })
    }

    /// Adds a diode referencing a registered model card.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `area <= 0`.
    pub fn add_diode(&mut self, name: &str, p: NodeId, n: NodeId, model: &str, area: f64) -> Result<(), SpiceError> {
        self.push(name, ElementKind::Diode { p, n, model: model.to_ascii_lowercase(), area })
    }

    /// Adds a MOSFET referencing a registered model card.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] if `w`, `l`, or `m` are not
    /// positive.
    #[allow(clippy::too_many_arguments)]
    pub fn add_mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        model: &str,
        geom: MosGeometry,
    ) -> Result<(), SpiceError> {
        self.push(name, ElementKind::Mosfet { d, g, s, b, model: model.to_ascii_lowercase(), geom })
    }

    /// Sets one numeric field of element `index` (in [`Circuit::elements`]
    /// order) with the checks of the `add_*` builder that made it. After
    /// an error the circuit holds the rejected value and is discarded.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] when the element has no such
    /// field or its builder would reject the value.
    ///
    /// # Panics
    ///
    /// If `index` is out of range, as slice indexing does.
    pub(crate) fn set_value(&mut self, index: usize, field: ValueField, value: f64) -> Result<(), SpiceError> {
        let element = &mut self.elements[index];
        let slot = match (&mut element.kind, field) {
            (
                ElementKind::Resistor { ohms: v, .. }
                | ElementKind::Capacitor { farads: v, .. }
                | ElementKind::Inductor { henries: v, .. }
                | ElementKind::Vsource { dc: v, .. }
                | ElementKind::Isource { dc: v, .. },
                ValueField::Value,
            ) => v,
            (ElementKind::Mosfet { geom, .. }, ValueField::W) => &mut geom.w,
            (ElementKind::Mosfet { geom, .. }, ValueField::L) => &mut geom.l,
            (ElementKind::Mosfet { geom, .. }, ValueField::M) => &mut geom.m,
            _ => {
                let reason = format!("has no {field:?} field");
                return Err(SpiceError::InvalidParameter { element: element.name.clone(), reason });
            }
        };
        *slot = value;
        match invalid(&element.kind) {
            Some(reason) => Err(SpiceError::InvalidParameter { element: element.name.clone(), reason }),
            None => Ok(()),
        }
    }

    /// Total MOSFET gate area `Σ W·L·m` \[m²\] — the "area" objective the
    /// paper reports in Tables IV/V.
    pub fn total_gate_area(&self) -> f64 {
        self.elements
            .iter()
            .filter_map(|e| match &e.kind {
                ElementKind::Mosfet { geom, .. } => Some(geom.area()),
                _ => None,
            })
            .sum()
    }

    /// Simulation temperature in Kelvin.
    pub fn temp_kelvin(&self) -> f64 {
        self.temp_celsius + 273.15
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_interning_is_case_insensitive() {
        let mut c = Circuit::new();
        let a = c.node("VDD");
        let b = c.node("vdd");
        assert_eq!(a, b);
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node("GND"), Circuit::GROUND);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.node_name(a), "vdd");
    }

    #[test]
    fn find_node_does_not_create() {
        let c = Circuit::new();
        assert_eq!(c.find_node("nowhere"), None);
        assert_eq!(c.find_node("0"), Some(Circuit::GROUND));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut c = Circuit::new();
        let n = c.node("a");
        assert!(c.add_resistor("R1", n, Circuit::GROUND, 0.0).is_err());
        assert!(c.add_resistor("R1", n, Circuit::GROUND, -5.0).is_err());
        assert!(c.add_capacitor("C1", n, Circuit::GROUND, -1e-12).is_err());
        assert!(c.add_inductor("L1", n, Circuit::GROUND, 0.0).is_err());
        assert!(c.add_vsource("V1", n, Circuit::GROUND, f64::NAN).is_err());
        assert!(c
            .add_mosfet("M1", n, n, n, n, "nch", MosGeometry::new(0.0, 1e-6))
            .is_err());
        assert!(c.add_diode("D1", n, Circuit::GROUND, "dx", 0.0).is_err());
        assert!(c.elements().is_empty());
    }

    #[test]
    fn set_value_checks_like_the_builders() {
        let mut c = Circuit::new();
        let n = c.node("a");
        c.add_resistor("R1", n, Circuit::GROUND, 1e3).unwrap();
        c.add_mosfet("M1", n, n, n, n, "nch", MosGeometry::new(1e-6, 1e-6)).unwrap();
        c.set_value(0, ValueField::Value, 2e3).unwrap();
        c.set_value(1, ValueField::L, 2e-7).unwrap();
        assert_eq!(c.elements()[0].kind, ElementKind::Resistor { a: n, b: Circuit::GROUND, ohms: 2e3 });
        match &c.elements()[1].kind {
            ElementKind::Mosfet { geom, .. } => assert_eq!((geom.w, geom.l, geom.m), (1e-6, 2e-7, 1.0)),
            other => panic!("{other:?}"),
        }
        let e = c.set_value(0, ValueField::Value, 0.0).unwrap_err();
        assert!(e.to_string().contains("resistance must be positive"), "{e}");
        assert!(c.set_value(0, ValueField::W, 1e-6).is_err(), "a resistor has no width");
        assert!(c.set_value(1, ValueField::M, f64::NAN).is_err());
    }

    #[test]
    fn models_are_case_insensitive() {
        let mut c = Circuit::new();
        c.add_mos_model("NCH", MosModel::default_nmos());
        assert!(c.mos_model("nch").is_some());
        c.add_diode_model("Dfast", DiodeModel::default());
        assert!(c.diode_model("DFAST").is_some());
    }

    #[test]
    fn gate_area_sums_mosfets() {
        let mut c = Circuit::new();
        c.add_mos_model("nch", MosModel::default_nmos());
        let d = c.node("d");
        let g = c.node("g");
        c.add_mosfet("M1", d, g, Circuit::GROUND, Circuit::GROUND, "nch", MosGeometry::new(2e-6, 1e-6))
            .unwrap();
        c.add_mosfet("M2", d, g, Circuit::GROUND, Circuit::GROUND, "nch", MosGeometry { w: 3e-6, l: 1e-6, m: 2.0 })
            .unwrap();
        assert!((c.total_gate_area() - (2e-12 + 6e-12)).abs() < 1e-24);
    }

    #[test]
    fn pulse_waveform_shape() {
        let w = Waveform::Pulse { v1: 0.0, v2: 1.0, td: 1e-9, tr: 1e-9, tf: 1e-9, pw: 5e-9, per: 20e-9 };
        assert_eq!(w.value_at(0.0), 0.0);
        assert!((w.value_at(1.5e-9) - 0.5).abs() < 1e-12, "mid-rise");
        assert_eq!(w.value_at(3e-9), 1.0);
        assert!((w.value_at(7.5e-9) - 0.5).abs() < 1e-12, "mid-fall");
        assert_eq!(w.value_at(10e-9), 0.0);
        // Periodic repetition.
        assert_eq!(w.value_at(23e-9), 1.0);
    }

    #[test]
    fn sin_waveform_shape() {
        let w = Waveform::Sin { vo: 1.0, va: 0.5, freq: 1e6, td: 0.0, theta: 0.0 };
        assert!((w.value_at(0.0) - 1.0).abs() < 1e-12);
        assert!((w.value_at(0.25e-6) - 1.5).abs() < 1e-9, "quarter period peak");
    }

    #[test]
    fn pwl_waveform_interpolates() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)]);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert!((w.value_at(0.5) - 1.0).abs() < 1e-12);
        assert_eq!(w.value_at(1.5), 2.0);
        assert_eq!(w.value_at(5.0), 2.0);
        assert_eq!(Waveform::Pwl(vec![]).value_at(1.0), 0.0);
    }

    #[test]
    fn temperature_conversion() {
        let c = Circuit::new();
        assert!((c.temp_kelvin() - 300.15).abs() < 1e-12);
    }
}

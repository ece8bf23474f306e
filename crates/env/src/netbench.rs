//! Netlist-defined sizing benches: the deck → [`SizingProblem`] compiler.
//!
//! A SPICE deck plus a **sizing stanza** compiles into a complete,
//! first-class sizing problem — space, specs, figure of merit, PVT
//! corners, and an evaluator — with no Rust code per bench. The built-in
//! two-stage opamps are two such decks. The evaluator is the one MNA
//! evaluator every simulated bench uses, with the amplifier measurement
//! step, so a deck whose circuit matches another bench's measures like
//! it, bit for bit.
//!
//! # The sizing stanza
//!
//! ```text
//! .process 45                            ; 45 | 22 | n6 | n5
//! .corners nominal                       ; nominal | signoff5
//! .sizeparam w_in 1e-6 100e-6 STEP 100   ; geometric grid (default)
//! .sizeparam rz  1k 100k STEP 20 LIN     ; linear grid
//! .sizeparam cz  VALUES 1e-12,2e-12      ; explicit value menu
//! .goal gain_db >= 65                    ; maps a measurement to a Spec
//! .goal power_w <= 3e-4
//! .fom ugf_hz 2                          ; weight the objective (optional)
//! .param vcm=0.55*{vdd}                  ; derived constant (parser-level)
//! VIP inp 0 DC {vcm} AC 1
//! M1 x1 fb tail 0 nch W={w_in} L=1.8e-7
//! ```
//!
//! The deck is parsed **once**, at compile time, into a template circuit at
//! the grid midpoint ([`parse_template_into`]). The design axes and the
//! built-in `{vdd}` binding (the process supply scaled by the corner) are
//! **value slots** of that template: a binding reference may stand as a
//! whole R, C or L value, a V or I DC level, or a MOSFET's `W=`, `L=` or
//! `M=`, directly or through a `.param` product computed from it;
//! anywhere else it is a typed compile error, as is a `.param` named like
//! an axis or `vdd`. Each evaluation clones the template, fills in the
//! corner's temperature and `nch`/`pch` models (a deck's own `.temp` and
//! `.model` cards win), recomputes the bound `.param`s left to right from
//! `1.0` as the parser evaluates constant ones, and writes every slot
//! with the checks of the circuit builder — no text formatting, no
//! parsing. Constant `.param`s stay textual, as in a plain parse. Every
//! value therefore has the bits a parse of the deck with each binding
//! written as `{:e}` would give it, since `{:e}` round-trips an `f64`
//! exactly through [`asdex_spice::units::parse_value`].
//!
//! # Measurements
//!
//! Every netlist bench measures the built-in opamp's five-element vector
//! ([`meas`]), in this order: `gain_db`, `ugf_hz`, `pm_deg`, `power_w`,
//! `area_m2`. The deck must define an `out` node (the AC response probe)
//! and a `VDD` supply source (the static-power branch).
//!
//! # Determinism contract
//!
//! Node and element order follow deck card order, and the parser appends
//! cards into a model-seeded circuit deterministically. MNA unknowns are
//! numbered in node order, so a deck whose nodes first appear in the order
//! a built-in bench creates them stamps the same system. Results are
//! deterministic in `(deck, x, corner, effort)` and independent of thread
//! or worker count. The FNV-1a [`netlist_digest`] over the deck source is
//! the identity used by journals, manifests, and worker processes to
//! guarantee a resumed campaign re-compiles the identical bench.

use crate::circuits::opamp::{meas, measure_amplifier};
use crate::circuits::pool::{MnaBench, MnaEvaluator};
use crate::corner::{PvtCorner, PvtSet};
use crate::error::EnvError;
use crate::problem::SizingProblem;
use crate::space::{DesignSpace, Param};
use crate::spec::{Spec, SpecSet};
use crate::value::ValueFn;
use asdex_spice::analysis::{Engine, OpResult, SolverWorkspace};
use asdex_spice::parser::{deck_cards, parse_template_into, read_deck_source, Template};
use asdex_spice::process::ProcessNode;
use asdex_spice::units::parse_value;
use asdex_spice::Circuit;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Default grid size for a `.sizeparam` without an explicit `STEP`.
const DEFAULT_GRID_POINTS: usize = 64;

/// FNV-1a hash of a deck source — the bench identity recorded in journal
/// metadata, the serve write-ahead manifest, and worker handshakes, so
/// that resume and boot recovery re-compile the identical bench.
pub fn netlist_digest(source: &str) -> u64 {
    crate::recordlog::fnv1a(source)
}

/// A typed error from compiling a sizing deck. `line == 0` means the
/// error is not tied to a specific deck line.
#[derive(Debug, Clone, PartialEq)]
pub struct NetbenchError {
    /// 1-based deck line of the offending card (0 when file-level).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for NetbenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "netlist bench: {}", self.message)
        } else {
            write!(f, "netlist bench: line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for NetbenchError {}

impl From<asdex_spice::ParseNetlistError> for NetbenchError {
    fn from(e: asdex_spice::ParseNetlistError) -> Self {
        NetbenchError { line: e.line, message: e.message }
    }
}

fn berr(line: usize, message: impl Into<String>) -> NetbenchError {
    NetbenchError { line, message: message.into() }
}

/// A compiled netlist bench: the deck template plus its sizing stanza.
#[derive(Debug, Clone)]
pub struct NetlistBench {
    name: String,
    source: String,
    digest: u64,
    node: ProcessNode,
    corners: PvtSet,
    axes: Vec<Param>,
    specs: SpecSet,
    fom: Option<(usize, f64)>,
    /// The deck parsed at the grid midpoint, holding only what the deck
    /// sets itself: a NaN temperature unless it has a `.temp` card, and
    /// `nch`/`pch` models only from its own `.model` cards.
    template: Circuit,
    /// The template's value slots, bound to the axes then `{vdd}`.
    slots: Template,
    /// Whether the deck defines its own `nch` and `pch` models.
    own_models: [bool; 2],
}

impl NetlistBench {
    /// Compiles a deck source (title line first, `.end` last) into a
    /// bench.
    ///
    /// # Errors
    ///
    /// [`NetbenchError`] on a malformed sizing stanza, a missing
    /// `.process`, no axes or goals, a deck that does not parse (with a
    /// binding reference outside a value slot, see the module docs), or a
    /// template that does not stamp and compile at the nominal corner —
    /// everything a serving daemon must reject at admission time.
    pub fn compile(source: &str) -> Result<Self, NetbenchError> {
        let digest = netlist_digest(source);
        let name = slug(source.lines().next().unwrap_or(""));
        let mut node: Option<(usize, ProcessNode)> = None;
        let mut corners: Option<PvtSet> = None;
        let mut axes: Vec<Param> = Vec::new();
        let mut goals: Vec<Spec> = Vec::new();
        let mut fom: Option<(usize, f64)> = None;

        for (line, card) in stanza_cards(source)? {
            let tokens: Vec<&str> = card.split_whitespace().collect();
            match tokens[0].to_ascii_lowercase().as_str() {
                ".process" => {
                    let arg = tokens.get(1).copied().ok_or_else(|| {
                        berr(line, ".process needs a node: 45 | 22 | n6 | n5")
                    })?;
                    let picked = match arg.to_ascii_lowercase().as_str() {
                        "45" | "bsim45" => ProcessNode::bsim45(),
                        "22" | "bsim22" => ProcessNode::bsim22(),
                        "n6" => ProcessNode::n6(),
                        "n5" => ProcessNode::n5(),
                        other => {
                            return Err(berr(line, format!("unknown process node {other:?}")))
                        }
                    };
                    if node.is_some() {
                        return Err(berr(line, "duplicate .process card"));
                    }
                    node = Some((line, picked));
                }
                ".corners" => {
                    let arg = tokens
                        .get(1)
                        .copied()
                        .ok_or_else(|| berr(line, ".corners needs nominal | signoff5"))?;
                    let set = match arg.to_ascii_lowercase().as_str() {
                        "nominal" => PvtSet::nominal_only(),
                        "signoff5" => PvtSet::signoff5(),
                        other => return Err(berr(line, format!("unknown corner set {other:?}"))),
                    };
                    corners = Some(set);
                }
                ".sizeparam" => {
                    axes.push(parse_sizeparam(line, &tokens, &axes)?);
                }
                ".goal" => {
                    goals.push(parse_goal(line, &tokens)?);
                }
                ".fom" => {
                    let meas = tokens
                        .get(1)
                        .copied()
                        .ok_or_else(|| berr(line, ".fom needs a measurement name"))?;
                    let idx = measurement_index(line, meas)?;
                    let weight = match tokens.get(2) {
                        Some(tok) => parse_value(tok)
                            .filter(|w| w.is_finite() && *w > 0.0)
                            .ok_or_else(|| {
                                berr(line, format!("cannot parse .fom weight {tok:?}"))
                            })?,
                        None => 2.0,
                    };
                    fom = Some((idx, weight));
                }
                _ => {}
            }
        }

        let (_, node) = node.ok_or_else(|| {
            berr(0, "sizing deck needs a .process card (45 | 22 | n6 | n5)")
        })?;
        if axes.is_empty() {
            return Err(berr(0, "sizing deck declares no .sizeparam axes"));
        }
        if goals.is_empty() {
            return Err(berr(0, "sizing deck declares no .goal cards"));
        }

        let midpoint: Vec<f64> = axes.iter().map(|p| p.grid[(p.grid.len() - 1) / 2]).collect();
        let vdd = ("vdd", node.vdd * PvtCorner::nominal().vdd_scale);
        let bindings: Vec<(&str, f64)> =
            axes.iter().zip(&midpoint).map(|(p, &v)| (p.name.as_str(), v)).chain([vdd]).collect();
        // `parse_value` never yields NaN, so a NaN left here means the deck
        // has no `.temp` card.
        let mut template = Circuit::new();
        template.temp_celsius = f64::NAN;
        let slots = parse_template_into(source, &mut template, &bindings)?;
        let own_models = ["nch", "pch"].map(|m| template.mos_model(m).is_some());
        let bench = NetlistBench {
            name,
            source: source.to_string(),
            digest,
            node,
            corners: corners.unwrap_or_else(PvtSet::nominal_only),
            axes,
            specs: SpecSet::new(goals),
            fom,
            template,
            slots,
            own_models,
        };
        bench.validate_template(&midpoint)?;
        Ok(bench)
    }

    /// Loads and compiles a deck from disk, expanding `.include` lines
    /// (see [`read_deck_source`]).
    ///
    /// # Errors
    ///
    /// Typed errors from include resolution or from [`Self::compile`].
    pub fn load(path: &Path) -> Result<Self, NetbenchError> {
        let source = read_deck_source(path)?;
        Self::compile(&source)
    }

    /// Bench name, slugged from the deck title line.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The post-include deck source this bench was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// FNV-1a digest of the deck source (the resume/recovery identity).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The process node selected by `.process`.
    pub fn process(&self) -> &ProcessNode {
        &self.node
    }

    /// The PVT corners selected by `.corners` (nominal by default).
    pub fn corners(&self) -> &PvtSet {
        &self.corners
    }

    /// Design axes in declaration order.
    pub fn axes(&self) -> &[Param] {
        &self.axes
    }

    /// The spec set of the deck's `.goal` cards, in card order.
    pub fn specs(&self) -> &SpecSet {
        &self.specs
    }

    /// The figure-of-merit measurement index and weight, when `.fom` was
    /// declared.
    pub fn fom(&self) -> Option<(usize, f64)> {
        self.fom
    }

    /// Errors unless the bench digest matches `want` — the typed guard
    /// resume paths use instead of silently diverging on an edited deck.
    ///
    /// # Errors
    ///
    /// [`NetbenchError`] naming both digests on mismatch.
    pub fn expect_digest(&self, want: u64) -> Result<(), NetbenchError> {
        if self.digest != want {
            return Err(berr(
                0,
                format!(
                    "netlist digest mismatch: deck compiles to {:016x}, campaign was admitted \
                     with {:016x} (the deck was edited since admission)",
                    self.digest, want
                ),
            ));
        }
        Ok(())
    }

    /// Builds the sizing problem with the deck's own `.corners` set.
    ///
    /// # Errors
    ///
    /// Propagates design-space or problem-validation errors.
    pub fn problem(&self) -> Result<SizingProblem, EnvError> {
        self.problem_with(self.corners.clone())
    }

    /// Builds the sizing problem with an explicit corner set (campaign
    /// submissions carry their own corners field, like the built-ins).
    ///
    /// # Errors
    ///
    /// Propagates design-space or problem-validation errors.
    pub fn problem_with(&self, corners: PvtSet) -> Result<SizingProblem, EnvError> {
        let space = DesignSpace::new(self.axes.clone())?;
        let mut problem = SizingProblem::new(
            &format!("netlist-{}", self.name),
            space,
            Arc::new(MnaEvaluator::new(self.clone())),
            self.specs.clone(),
            corners,
        )?;
        if let Some((meas_idx, weight)) = self.fom {
            let weights: Vec<f64> = self
                .specs
                .specs()
                .iter()
                .map(|s| if s.measurement == meas_idx { weight } else { 1.0 })
                .collect();
            problem.value_fn = ValueFn::with_weights(weights);
        }
        Ok(problem)
    }

    /// Builds the bench's circuit for physical parameters `x` at
    /// `corner`: a clone of the parsed template with the corner's
    /// temperature and `nch`/`pch` models (unless the deck sets its own)
    /// and every value slot written. Node and element order follow deck
    /// card order, so the MNA structure is a pure function of the deck.
    ///
    /// # Errors
    ///
    /// [`EnvError::DimensionMismatch`] for a wrong-length parameter
    /// vector; [`EnvError::InvalidProblem`] when an element rejects a
    /// value.
    pub fn netlist(&self, x: &[f64], corner: &PvtCorner) -> Result<Circuit, EnvError> {
        if x.len() != self.axes.len() {
            return Err(EnvError::DimensionMismatch { expected: self.axes.len(), actual: x.len() });
        }
        let mut circuit = self.template.clone();
        if circuit.temp_celsius.is_nan() {
            circuit.temp_celsius = corner.temp_celsius;
        }
        let (nmos, pmos) = self.node.models_at(corner.process, corner.temp_celsius);
        for ((name, model), own) in [("nch", nmos), ("pch", pmos)].into_iter().zip(self.own_models) {
            if !own {
                circuit.add_mos_model(name, model);
            }
        }
        let values = [x, &[self.node.vdd * corner.vdd_scale]].concat();
        self.slots.apply(&mut circuit, &values).map_err(|e| EnvError::InvalidProblem {
            reason: format!("netlist bench {:?} failed to stamp: {e}", self.name),
        })?;
        Ok(circuit)
    }

    /// Admission-time template validation: the deck must stamp and
    /// compile at the nominal corner and grid midpoint, and must define
    /// the `out` probe node and the `VDD` supply the measurement pipeline
    /// reads.
    fn validate_template(&self, midpoint: &[f64]) -> Result<(), NetbenchError> {
        let circuit = self
            .netlist(midpoint, &PvtCorner::nominal())
            .map_err(|e| berr(0, e.to_string()))?;
        if circuit.find_node("out").is_none() {
            return Err(berr(0, "sizing deck defines no 'out' node (the AC response probe)"));
        }
        let engine = Engine::compile(&circuit)
            .map_err(|e| berr(0, format!("template does not compile: {e}")))?;
        if engine.branch_of("VDD").is_none() {
            return Err(berr(0, "sizing deck defines no 'VDD' source (the supply branch)"));
        }
        Ok(())
    }
}

/// Slugs a deck title into a bench name: lowercase alphanumerics with
/// single dashes.
fn slug(title: &str) -> String {
    let words: Vec<String> = title
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_ascii_lowercase)
        .collect();
    if words.is_empty() {
        "bench".to_string()
    } else {
        words.join("-")
    }
}

/// The deck's cards before `.end`, continuation lines joined: the cards
/// the circuit parser sees, so the stanza and the template agree on line
/// numbers.
fn stanza_cards(source: &str) -> Result<Vec<(usize, String)>, NetbenchError> {
    let mut cards = deck_cards(source)?;
    let end = cards.iter().position(|(_, card)| {
        card.split_whitespace().next().is_some_and(|t| t.eq_ignore_ascii_case(".end"))
    });
    cards.truncate(end.unwrap_or(cards.len()));
    Ok(cards)
}

/// Index of a measurement name in [`meas::NAMES`].
fn measurement_index(line: usize, name: &str) -> Result<usize, NetbenchError> {
    meas::NAMES
        .iter()
        .position(|m| m.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            berr(
                line,
                format!(
                    "unknown measurement {name:?} (expected one of: {})",
                    meas::NAMES.join(", ")
                ),
            )
        })
}

/// Parses one `.sizeparam` card into a design-space axis.
fn parse_sizeparam(
    line: usize,
    tokens: &[&str],
    axes: &[Param],
) -> Result<Param, NetbenchError> {
    let usage = ".sizeparam NAME MIN MAX [STEP n] [LIN] | .sizeparam NAME VALUES v1,v2,…";
    let name = *tokens.get(1).ok_or_else(|| berr(line, usage))?;
    let valid = !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if !valid {
        return Err(berr(line, format!("invalid axis name {name:?}")));
    }
    if name.eq_ignore_ascii_case("vdd") {
        return Err(berr(line, "axis name 'vdd' is reserved for the supply binding"));
    }
    if axes.iter().any(|p| p.name == name) {
        return Err(berr(line, format!("duplicate axis {name:?}")));
    }
    let rest = &tokens[2..];
    if rest.first().is_some_and(|t| t.eq_ignore_ascii_case("values")) {
        let list = rest[1..].join("");
        let values: Vec<f64> = list
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                parse_value(s.trim())
                    .ok_or_else(|| berr(line, format!("cannot parse axis value {s:?}")))
            })
            .collect::<Result<_, _>>()?;
        return Param::explicit(name, values).map_err(|e| berr(line, e.to_string()));
    }
    if rest.len() < 2 {
        return Err(berr(line, usage));
    }
    let lo = parse_value(rest[0])
        .ok_or_else(|| berr(line, format!("cannot parse axis minimum {:?}", rest[0])))?;
    let hi = parse_value(rest[1])
        .ok_or_else(|| berr(line, format!("cannot parse axis maximum {:?}", rest[1])))?;
    let mut points = DEFAULT_GRID_POINTS;
    let mut linear = false;
    let mut i = 2;
    while i < rest.len() {
        let key = rest[i].to_ascii_lowercase();
        match key.as_str() {
            "step" => {
                let n = rest
                    .get(i + 1)
                    .and_then(|t| t.parse::<usize>().ok())
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| berr(line, "STEP needs a positive integer count"))?;
                points = n;
                i += 2;
            }
            "lin" => {
                linear = true;
                i += 1;
            }
            "log" => {
                linear = false;
                i += 1;
            }
            other => return Err(berr(line, format!("unknown .sizeparam keyword {other:?}"))),
        }
    }
    let param = if linear {
        Param::linear(name, lo, hi, points)
    } else {
        Param::geometric(name, lo, hi, points)
    };
    param.map_err(|e| berr(line, e.to_string()))
}

/// Parses one `.goal MEAS >=|<= TARGET` card into a [`Spec`].
fn parse_goal(line: usize, tokens: &[&str]) -> Result<Spec, NetbenchError> {
    let usage = ".goal MEAS >=|<= TARGET";
    if tokens.len() != 4 {
        return Err(berr(line, usage));
    }
    let idx = measurement_index(line, tokens[1])?;
    let target = parse_value(tokens[3])
        .filter(|t| t.is_finite())
        .ok_or_else(|| berr(line, format!("cannot parse goal target {:?}", tokens[3])))?;
    let spec_name = meas::SPEC_NAMES[idx];
    match tokens[2] {
        ">=" => Ok(Spec::at_least(idx, spec_name, target)),
        "<=" => Ok(Spec::at_most(idx, spec_name, target)),
        other => Err(berr(line, format!("unknown goal relation {other:?} (use >= or <=)"))),
    }
}

impl MnaBench for NetlistBench {
    const NAMES: &'static [&'static str] = &meas::NAMES;

    fn circuit(&self, x: &[f64], corner: &PvtCorner) -> Result<Circuit, EnvError> {
        self.netlist(x, corner)
    }

    fn measure(
        &self,
        circuit: &Circuit,
        engine: &Engine,
        op: OpResult,
        ws: &mut SolverWorkspace,
        corner: &PvtCorner,
    ) -> Result<Vec<f64>, EnvError> {
        measure_amplifier(circuit, engine, op, ws, self.node.vdd * corner.vdd_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal valid sizing deck: an RC low-pass inside a supply rail.
    fn rc_deck() -> String {
        "rc sizing demo
.process 45
.corners nominal
.sizeparam rser 1k 100k STEP 10
.goal gain_db >= -10
.goal power_w <= 1e-2
.param rl=2*1k
VDD vdd 0 {vdd}
RL vdd 0 {rl}
VIN in 0 DC 0.5 AC 1
RS in out {rser}
C1 out 0 1e-9
.end
"
        .to_string()
    }

    #[test]
    fn digest_is_fnv1a() {
        // Classic FNV-1a vectors.
        assert_eq!(netlist_digest(""), 0xcbf29ce484222325);
        assert_eq!(netlist_digest("a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn compiles_minimal_deck() {
        let bench = NetlistBench::compile(&rc_deck()).unwrap();
        assert_eq!(bench.name(), "rc-sizing-demo");
        assert_eq!(bench.axes().len(), 1);
        assert_eq!(bench.axes()[0].name, "rser");
        assert_eq!(bench.axes()[0].grid.len(), 10);
        assert_eq!(bench.corners().corners().len(), 1);
        assert_eq!(bench.digest(), netlist_digest(&rc_deck()));
    }

    #[test]
    fn problem_evaluates_deterministically() {
        let bench = NetlistBench::compile(&rc_deck()).unwrap();
        let p = bench.problem().unwrap();
        assert_eq!(p.dim(), 1);
        let e1 = p.evaluate_normalized(&[0.5], 0);
        let e2 = p.evaluate_normalized(&[0.5], 0);
        let m1 = e1.measurements.expect("rc deck solves");
        let m2 = e2.measurements.expect("rc deck solves");
        for (a, b) in m1.iter().zip(&m2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Static power through RL: vdd²/2k = 1.62 mW.
        assert!((m1[3] - 1.8 * 1.8 / 2e3).abs() < 1e-6, "power {}", m1[3]);
    }

    #[test]
    fn goals_map_to_specs() {
        let bench = NetlistBench::compile(&rc_deck()).unwrap();
        let specs = bench.specs.specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].measurement, 0);
        assert_eq!(specs[0].name, "gain");
        assert_eq!(specs[1].measurement, 3);
        assert_eq!(specs[1].name, "power");
    }

    #[test]
    fn fom_weights_value_fn() {
        let deck = rc_deck().replace(".goal power_w <= 1e-2", ".goal power_w <= 1e-2\n.fom power_w 3");
        let bench = NetlistBench::compile(&deck).unwrap();
        assert_eq!(bench.fom(), Some((3, 3.0)));
        let p = bench.problem().unwrap();
        assert_eq!(p.value_fn.weights, Some(vec![1.0, 3.0]));
        // Without .fom the value function is the uniform default.
        let p0 = NetlistBench::compile(&rc_deck()).unwrap().problem().unwrap();
        assert_eq!(p0.value_fn.weights, None);
    }

    #[test]
    fn grid_variants() {
        let deck = rc_deck().replace(
            ".sizeparam rser 1k 100k STEP 10",
            ".sizeparam rser 1k 100k STEP 4 LIN\n.sizeparam cpar VALUES 2e-12,1e-12,2e-12",
        );
        let bench = NetlistBench::compile(&deck).unwrap();
        assert_eq!(bench.axes()[0].grid, vec![1e3, 34e3, 67e3, 100e3]);
        assert_eq!(bench.axes()[1].grid, vec![1e-12, 2e-12], "sorted + deduped");
    }

    #[test]
    fn stanza_errors_are_typed() {
        let cases: Vec<(String, &str)> = vec![
            (rc_deck().replace(".process 45", ""), "needs a .process"),
            (rc_deck().replace(".process 45", ".process 7"), "unknown process node"),
            (rc_deck().replace(".corners nominal", ".corners all"), "unknown corner set"),
            (
                rc_deck().replace(".sizeparam rser 1k 100k STEP 10", ".sizeparam rser xx 100k STEP 10"),
                "cannot parse axis",
            ),
            (
                rc_deck()
                    .replace(".sizeparam rser 1k 100k STEP 10", ".sizeparam rser 1k 100k STEP 0"),
                "positive integer",
            ),
            (
                rc_deck().replace(
                    ".sizeparam rser 1k 100k STEP 10",
                    ".sizeparam rser 1k 100k STEP 10\n.sizeparam rser 1k 2k STEP 2",
                ),
                "duplicate axis",
            ),
            (
                rc_deck()
                    .replace(".sizeparam rser 1k 100k STEP 10", ".sizeparam vdd 1k 2k STEP 2"),
                "reserved",
            ),
            (rc_deck().replace(".goal gain_db >= -10", ".goal snr_db >= 10"), "unknown measurement"),
            (rc_deck().replace(".goal gain_db >= -10", ".goal gain_db == -10"), "unknown goal relation"),
            (rc_deck().replace(".goal gain_db >= -10", ".goal gain_db >="), ".goal MEAS"),
            (
                rc_deck().replace(".goal gain_db >= -10\n.goal power_w <= 1e-2", ""),
                "no .goal",
            ),
            (rc_deck().replace(" out ", " o2 "), "no 'out' node"),
            (rc_deck().replace("VDD vdd 0 {vdd}", "VX vdd 0 {vdd}"), "no 'VDD' source"),
            (rc_deck().replace("{rl}", "{nope}"), "unresolved parameter"),
        ];
        for (deck, needle) in cases {
            let e = NetlistBench::compile(&deck).expect_err(needle);
            assert!(e.to_string().contains(needle), "{needle:?} not in {e}");
        }
    }

    #[test]
    fn digest_guard_is_typed() {
        let bench = NetlistBench::compile(&rc_deck()).unwrap();
        assert!(bench.expect_digest(bench.digest()).is_ok());
        let e = bench.expect_digest(bench.digest() ^ 1).unwrap_err();
        assert!(e.to_string().contains("digest mismatch"), "{e}");
    }

    #[test]
    fn load_resolves_includes() {
        let dir = std::env::temp_dir().join(format!("asdex_netbench_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let deck = rc_deck();
        let (head, tail) = deck.split_once("VDD").unwrap();
        std::fs::write(dir.join("body.inc"), format!("VDD{tail}")).unwrap();
        std::fs::write(dir.join("main.sp"), format!("{head}.include body.inc\n")).unwrap();
        let bench = NetlistBench::load(&dir.join("main.sp")).unwrap();
        assert_eq!(bench.axes().len(), 1);
        // Digest covers the *expanded* source, so editing the include is
        // caught by the resume guard too.
        assert_eq!(bench.digest(), netlist_digest(bench.source()));
        let missing = NetlistBench::load(&dir.join("nope.sp")).unwrap_err();
        assert!(missing.to_string().contains("cannot read deck"), "{missing}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! SPICE-deck netlist parser.
//!
//! Supports the card subset the ASDEX circuits use, in the classic format:
//! the **first line is a title**, `*` starts a comment, `+` continues the
//! previous card, and `.end` terminates the deck. Numeric fields accept
//! engineering suffixes (see [`crate::units::parse_value`]). Hierarchy is
//! supported through `.subckt NAME ports… / .ends` definitions and
//! `X<name> nodes… NAME` instantiations, expanded by flattening with
//! `x<name>.` prefixes on internal nodes and element names.
//!
//! ```text
//! two-stage opamp
//! VDD vdd 0 1.8
//! M1 d g s b nch W=10u L=1u M=2
//! R1 a b 10k
//! C1 out 0 1p
//! .model nch NMOS (VT0=0.47 KP=270u LAMBDA=0.12 GAMMA=0.35 PHI=0.8)
//! .end
//! ```

use crate::circuit::{AcSpec, Circuit, Waveform};
use crate::devices::{DiodeModel, MosGeometry, MosModel, MosPolarity};
use crate::error::ParseNetlistError;
use crate::units::parse_value;
use std::collections::HashMap;
use std::path::{Component, Path, PathBuf};

/// An analysis requested by a deck directive.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisCard {
    /// `.op` — DC operating point.
    Op,
    /// `.dc SRC START STOP STEP` — DC sweep of a source.
    Dc {
        /// Swept source name.
        source: String,
        /// First value.
        start: f64,
        /// Last value.
        stop: f64,
        /// Increment.
        step: f64,
    },
    /// `.ac dec N FSTART FSTOP` — logarithmic AC sweep.
    Ac {
        /// Points per decade.
        points_per_decade: usize,
        /// First frequency \[Hz\].
        fstart: f64,
        /// Last frequency \[Hz\].
        fstop: f64,
    },
    /// `.tran TSTEP TSTOP` — transient run.
    Tran {
        /// Time step \[s\].
        tstep: f64,
        /// Stop time \[s\].
        tstop: f64,
    },
}

/// A parsed deck: the circuit plus any analysis directives it carried.
#[derive(Debug, Clone)]
pub struct Deck {
    /// The circuit description.
    pub circuit: Circuit,
    /// Analyses requested by `.op` / `.dc` / `.ac` / `.tran` cards, in
    /// deck order.
    pub analyses: Vec<AnalysisCard>,
}

/// Parses a SPICE deck into a [`Deck`] — the circuit plus its analysis
/// directives. See [`parse_netlist`] for the supported card set.
///
/// # Errors
///
/// [`ParseNetlistError`] with the offending line number on any malformed
/// card.
///
/// # Example
///
/// ```
/// use asdex_spice::parser::{parse_deck, AnalysisCard};
///
/// # fn main() -> Result<(), asdex_spice::ParseNetlistError> {
/// let deck = parse_deck("t\nV1 in 0 1 AC 1\nR1 in out 1k\nC1 out 0 1n\n.ac dec 10 1k 1meg\n.end")?;
/// assert_eq!(deck.analyses.len(), 1);
/// assert!(matches!(deck.analyses[0], AnalysisCard::Ac { .. }));
/// # Ok(())
/// # }
/// ```
pub fn parse_deck(source: &str) -> Result<Deck, ParseNetlistError> {
    let circuit = parse_netlist(source)?;
    let mut analyses = Vec::new();
    for (line_no, card) in deck_cards(source)? {
        let lower = card.to_ascii_lowercase();
        let tokens: Vec<&str> = card.split_whitespace().collect();
        if lower.starts_with(".op") && !lower.starts_with(".option") {
            analyses.push(AnalysisCard::Op);
        } else if lower.starts_with(".dc") {
            if tokens.len() != 5 {
                return Err(err(line_no, ".dc SRC START STOP STEP"));
            }
            analyses.push(AnalysisCard::Dc {
                source: tokens[1].to_string(),
                start: need_value(line_no, tokens[2], "start")?,
                stop: need_value(line_no, tokens[3], "stop")?,
                step: need_value(line_no, tokens[4], "step")?,
            });
        } else if lower.starts_with(".ac") {
            if tokens.len() != 5 || !tokens[1].eq_ignore_ascii_case("dec") {
                return Err(err(line_no, ".ac dec N FSTART FSTOP"));
            }
            let ppd = need_value(line_no, tokens[2], "points per decade")? as usize;
            analyses.push(AnalysisCard::Ac {
                points_per_decade: ppd.max(1),
                fstart: need_value(line_no, tokens[3], "fstart")?,
                fstop: need_value(line_no, tokens[4], "fstop")?,
            });
        } else if lower.starts_with(".tran") {
            if tokens.len() < 3 {
                return Err(err(line_no, ".tran TSTEP TSTOP"));
            }
            analyses.push(AnalysisCard::Tran {
                tstep: need_value(line_no, tokens[1], "tstep")?,
                tstop: need_value(line_no, tokens[2], "tstop")?,
            });
        } else if lower.starts_with(".end") && !lower.starts_with(".ends") {
            break;
        }
    }
    Ok(Deck { circuit, analyses })
}

/// Parses a SPICE deck into a [`Circuit`].
///
/// The first line is always treated as the deck title. Model cards may
/// appear anywhere; element cards that reference them are resolved when the
/// circuit is compiled, so order does not matter.
///
/// # Errors
///
/// [`ParseNetlistError`] with the offending line number on any malformed
/// card.
///
/// # Example
///
/// ```
/// use asdex_spice::parser::parse_netlist;
///
/// # fn main() -> Result<(), asdex_spice::ParseNetlistError> {
/// let ckt = parse_netlist("divider\nV1 in 0 2\nR1 in out 1k\nR2 out 0 1k\n.end")?;
/// assert_eq!(ckt.elements().len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn parse_netlist(source: &str) -> Result<Circuit, ParseNetlistError> {
    let mut circuit = Circuit::new();
    parse_netlist_into(source, &mut circuit)?;
    Ok(circuit)
}

/// Parses a SPICE deck into an existing [`Circuit`].
///
/// The circuit may be pre-seeded with model cards and a temperature — the
/// netlist-bench compiler in `asdex-env` uses this to stamp process-corner
/// models around a deck before parsing it. Cards parsed from the deck are
/// appended in deck order, so a given `(seed, source)` pair always yields
/// the same node and element ordering (and therefore the same MNA
/// structure).
pub fn parse_netlist_into(source: &str, circuit: &mut Circuit) -> Result<(), ParseNetlistError> {
    // Process `.param` constant cards and substitute `{name}` references.
    let cards = substitute_params(deck_cards(source)?)?;

    // Collect .subckt definitions, then expand X instantiations.
    let (top_cards, subckts) = split_subcircuits(&cards)?;
    let flat = flatten(&top_cards, &subckts, 0)?;
    for (line, card) in flat {
        parse_card(circuit, line, &card)?;
        if card.to_ascii_lowercase().starts_with(".end") {
            break;
        }
    }
    Ok(())
}

/// Splits a deck into its cards: the title line, comments and blank lines
/// are dropped, and each `+` continuation line is joined onto the card it
/// continues. Every card carries the line number of its first line, for
/// diagnostics. Cards after `.end` are kept; callers stop where they need
/// to.
///
/// # Errors
///
/// [`ParseNetlistError`] on a continuation line with no card before it.
pub fn deck_cards(source: &str) -> Result<Vec<(usize, String)>, ParseNetlistError> {
    let mut cards: Cards = Vec::new();
    // The first line is the title.
    for (idx, raw) in source.lines().enumerate().skip(1) {
        let line_no = idx + 1;
        let trimmed = strip_comment(raw).trim();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('+') {
            let (_, card) = cards
                .last_mut()
                .ok_or_else(|| err(line_no, "continuation line with no preceding card"))?;
            card.push(' ');
            card.push_str(rest.trim());
        } else {
            cards.push((line_no, trimmed.to_string()));
        }
    }
    Ok(cards)
}

/// Maximum `.include` nesting depth (guards against include cycles the
/// path-based cycle check cannot see, e.g. through symlinks).
const MAX_INCLUDE_DEPTH: usize = 8;

/// Reads a deck from disk, textually expanding `.include <path>` lines.
///
/// Include paths are resolved relative to the directory of the file that
/// contains the directive. They must be relative and free of `..`
/// components — a typed [`ParseNetlistError`] reports attempted escapes,
/// missing files, cycles, and nesting more than eight levels deep.
/// The expansion is purely textual, so the result can be fed to
/// [`parse_netlist`] / [`parse_deck`] or digested for reproducibility.
pub fn read_deck_source(path: &Path) -> Result<String, ParseNetlistError> {
    let mut visiting = Vec::new();
    read_deck_inner(path, 0, &mut visiting)
}

fn read_deck_inner(
    path: &Path,
    depth: usize,
    visiting: &mut Vec<PathBuf>,
) -> Result<String, ParseNetlistError> {
    if depth > MAX_INCLUDE_DEPTH {
        return Err(err(0, format!(".include nesting exceeds {MAX_INCLUDE_DEPTH} levels")));
    }
    let canon = path
        .canonicalize()
        .map_err(|e| err(0, format!("cannot read deck {}: {e}", path.display())))?;
    if visiting.contains(&canon) {
        return Err(err(0, format!(".include cycle through {}", path.display())));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(0, format!("cannot read deck {}: {e}", path.display())))?;
    visiting.push(canon);
    let base = path.parent().map(Path::to_path_buf).unwrap_or_else(|| PathBuf::from("."));
    let mut out = String::with_capacity(text.len());
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = strip_comment(raw).trim();
        let mut tokens = trimmed.split_whitespace();
        let is_include = tokens.next().is_some_and(|t| t.eq_ignore_ascii_case(".include"));
        if !is_include {
            out.push_str(raw);
            out.push('\n');
            continue;
        }
        let arg = tokens
            .next()
            .ok_or_else(|| err(line_no, ".include needs a path"))?
            .trim_matches('"');
        if tokens.next().is_some() {
            visiting.pop();
            return Err(err(line_no, ".include takes exactly one path"));
        }
        let rel = Path::new(arg);
        if rel.is_absolute() || rel.components().any(|c| matches!(c, Component::ParentDir)) {
            visiting.pop();
            return Err(err(line_no, format!(".include path {arg:?} escapes the deck directory")));
        }
        let included = read_deck_inner(&base.join(rel), depth + 1, visiting);
        match included {
            Ok(body) => {
                out.push_str(&body);
                if !body.ends_with('\n') {
                    out.push('\n');
                }
            }
            Err(e) => {
                visiting.pop();
                return Err(e);
            }
        }
    }
    visiting.pop();
    Ok(out)
}

/// Processes `.param NAME=EXPR` cards. Each card defines a named constant;
/// later cards may reference it as `{NAME}`, which is substituted
/// textually. `EXPR` is a product of SPICE numeric literals separated by
/// `*` and may itself reference previously defined params. A reference to
/// an undefined param (or an unterminated `{`) is a typed error — design
/// axes of a sizing deck are substituted by the netlist-bench compiler
/// *before* the circuit parser runs, so anything left over here is a
/// genuine mistake.
fn substitute_params(cards: Cards) -> Result<Cards, ParseNetlistError> {
    let mut params: Vec<(String, String)> = Vec::new();
    let mut out = Vec::with_capacity(cards.len());
    for (line, card) in cards {
        let first = card.split_whitespace().next().unwrap_or("").to_ascii_lowercase();
        if first != ".param" {
            out.push((line, apply_params(line, &card, &params)?));
            continue;
        }
        let body = card
            .split_once(char::is_whitespace)
            .map(|(_, rest)| rest.trim())
            .filter(|rest| !rest.is_empty())
            .ok_or_else(|| err(line, ".param NAME=VALUE"))?;
        let (name, expr) = body.split_once('=').ok_or_else(|| err(line, ".param NAME=VALUE"))?;
        let (name, expr) = (name.trim(), expr.trim());
        let valid = !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if !valid {
            return Err(err(line, format!("invalid parameter name {name:?}")));
        }
        let resolved = apply_params(line, expr, &params)?;
        let value = eval_product(line, &resolved)?;
        // `{:e}` round-trips f64s exactly through `parse_value`, so a
        // substituted constant stamps bit-identically to the computed one.
        params.push((name.to_string(), format!("{value:e}")));
    }
    Ok(out)
}

/// Substitutes `{name}` references from the param table into one card.
fn apply_params(
    line: usize,
    text: &str,
    params: &[(String, String)],
) -> Result<String, ParseNetlistError> {
    if !text.contains('{') {
        return Ok(text.to_string());
    }
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let after = &rest[open + 1..];
        let close = after
            .find('}')
            .ok_or_else(|| err(line, "unterminated parameter reference"))?;
        let name = &after[..close];
        // Latest definition wins, so decks may redefine a constant.
        match params.iter().rev().find(|(n, _)| n == name) {
            Some((_, value)) => out.push_str(value),
            None => {
                return Err(err(line, format!("unresolved parameter reference {{{name}}}")));
            }
        }
        rest = &after[close + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Evaluates a product expression: factors separated by `*`, each a SPICE
/// numeric literal, multiplied left to right.
fn eval_product(line: usize, expr: &str) -> Result<f64, ParseNetlistError> {
    let mut acc = 1.0f64;
    let mut any = false;
    for factor in expr.split('*') {
        let factor = factor.trim();
        if factor.is_empty() {
            return Err(err(line, format!("empty factor in expression {expr:?}")));
        }
        acc *= need_value(line, factor, "expression factor")?;
        any = true;
    }
    if !any {
        return Err(err(line, ".param expression is empty"));
    }
    Ok(acc)
}

/// A subcircuit definition: port names and body cards.
#[derive(Debug, Clone)]
struct Subckt {
    ports: Vec<String>,
    body: Vec<(usize, String)>,
}

/// Numbered cards: (source line, card text).
type Cards = Vec<(usize, String)>;

/// Separates `.subckt … .ends` blocks from top-level cards.
fn split_subcircuits(
    cards: &[(usize, String)],
) -> Result<(Cards, HashMap<String, Subckt>), ParseNetlistError> {
    let mut top = Vec::new();
    let mut subckts = HashMap::new();
    let mut current: Option<(String, Subckt)> = None;
    for (line, card) in cards {
        let lower = card.to_ascii_lowercase();
        if lower.starts_with(".subckt") {
            if current.is_some() {
                return Err(err(*line, "nested .subckt definitions are not supported"));
            }
            let tokens: Vec<&str> = card.split_whitespace().collect();
            if tokens.len() < 3 {
                return Err(err(*line, ".subckt needs a name and at least one port"));
            }
            current = Some((
                tokens[1].to_ascii_lowercase(),
                Subckt {
                    ports: tokens[2..].iter().map(|t| t.to_ascii_lowercase()).collect(),
                    body: Vec::new(),
                },
            ));
        } else if lower.starts_with(".ends") {
            match current.take() {
                Some((name, def)) => {
                    subckts.insert(name, def);
                }
                None => return Err(err(*line, ".ends without a matching .subckt")),
            }
        } else if let Some((_, def)) = &mut current {
            def.body.push((*line, card.clone()));
        } else {
            top.push((*line, card.clone()));
        }
    }
    if let Some((name, _)) = current {
        return Err(ParseNetlistError {
            line: cards.last().map_or(0, |(l, _)| *l),
            message: format!(".subckt {name} is never closed with .ends"),
        });
    }
    Ok((top, subckts))
}

/// Maximum subcircuit nesting depth (guards against `X` recursion).
const MAX_SUBCKT_DEPTH: usize = 16;

/// Expands `X` cards against the subcircuit table, prefixing internal node
/// and element names with the instance path.
fn flatten(
    cards: &[(usize, String)],
    subckts: &HashMap<String, Subckt>,
    depth: usize,
) -> Result<Vec<(usize, String)>, ParseNetlistError> {
    let mut out = Vec::new();
    for (line, card) in cards {
        if !card.starts_with(['x', 'X']) {
            out.push((*line, card.clone()));
            continue;
        }
        if depth >= MAX_SUBCKT_DEPTH {
            return Err(err(*line, "subcircuit nesting too deep (recursive definition?)"));
        }
        let tokens: Vec<&str> = card.split_whitespace().collect();
        if tokens.len() < 2 {
            return Err(err(*line, "subcircuit card: X<name> nodes… SUBCKT"));
        }
        let inst = tokens[0].to_ascii_lowercase();
        let subckt_name = tokens.last().expect("checked len").to_ascii_lowercase();
        let Some(def) = subckts.get(&subckt_name) else {
            return Err(err(*line, format!("unknown subcircuit {subckt_name:?}")));
        };
        let outer_nodes = &tokens[1..tokens.len() - 1];
        if outer_nodes.len() != def.ports.len() {
            return Err(err(
                *line,
                format!(
                    "subcircuit {subckt_name:?} has {} ports, {} nodes given",
                    def.ports.len(),
                    outer_nodes.len()
                ),
            ));
        }
        let port_map: HashMap<String, String> = def
            .ports
            .iter()
            .cloned()
            .zip(outer_nodes.iter().map(|n| n.to_ascii_lowercase()))
            .collect();
        // Rewrite each body card: element name gets the instance prefix,
        // node fields map through ports or get the instance prefix.
        let mut rewritten = Vec::with_capacity(def.body.len());
        for (bline, bcard) in &def.body {
            rewritten.push((*bline, rewrite_card(&inst, &port_map, bcard)));
        }
        // Recurse for nested X cards inside the body.
        out.extend(flatten(&rewritten, subckts, depth + 1)?);
    }
    Ok(out)
}

/// Rewrites one subcircuit body card for an instance: prefixes the element
/// name and maps/prefixes its node fields. Model names, values, and
/// key=value fields pass through untouched.
fn rewrite_card(inst: &str, port_map: &HashMap<String, String>, card: &str) -> String {
    let tokens: Vec<&str> = card.split_whitespace().collect();
    if tokens.is_empty() {
        return card.to_string();
    }
    let head = tokens[0];
    if head.starts_with('.') {
        // Dot cards (e.g. .model) stay global.
        return card.to_string();
    }
    let kind = head.chars().next().expect("nonempty").to_ascii_uppercase();
    // How many fields after the name are node names, per card type.
    let n_nodes = match kind {
        'R' | 'C' | 'L' | 'V' | 'I' | 'D' => 2,
        'E' | 'G' | 'M' => 4,
        'F' | 'H' => 2,
        'X' => tokens.len().saturating_sub(2), // all but name and subckt
        _ => 0,
    };
    let mut out = Vec::with_capacity(tokens.len());
    out.push(format!("{head}_{inst}"));
    for (k, tok) in tokens.iter().enumerate().skip(1) {
        let is_node = k <= n_nodes;
        let is_ctrl_ref = matches!(kind, 'F' | 'H') && k == 3;
        if is_node {
            let key = tok.to_ascii_lowercase();
            if key == "0" || key == "gnd" {
                out.push(key);
            } else if let Some(mapped) = port_map.get(&key) {
                out.push(mapped.clone());
            } else {
                out.push(format!("{inst}.{key}"));
            }
        } else if is_ctrl_ref {
            // Controlling source lives inside the same instance.
            out.push(format!("{tok}_{inst}"));
        } else {
            out.push((*tok).to_string());
        }
    }
    out.join(" ")
}

fn strip_comment(line: &str) -> &str {
    // `;` and `$` begin trailing comments.
    let end = line.find([';', '$']).unwrap_or(line.len());
    &line[..end]
}

fn err(line: usize, message: impl Into<String>) -> ParseNetlistError {
    ParseNetlistError { line, message: message.into() }
}

fn need_value(line: usize, tok: &str, what: &str) -> Result<f64, ParseNetlistError> {
    parse_value(tok).ok_or_else(|| err(line, format!("cannot parse {what} from {tok:?}")))
}

fn parse_card(circuit: &mut Circuit, line: usize, card: &str) -> Result<(), ParseNetlistError> {
    let tokens: Vec<&str> = card.split_whitespace().collect();
    let head = tokens[0];
    let kind = head.chars().next().expect("nonempty token").to_ascii_uppercase();
    let map_err = |e: crate::error::SpiceError| err(line, e.to_string());
    match kind {
        '.' => parse_dot_card(circuit, line, card, &tokens),
        'R' => {
            let [_, a, b, v] = expect_tokens::<4>(line, &tokens)?;
            let ohms = need_value(line, v, "resistance")?;
            let (a, b) = (circuit.node(a), circuit.node(b));
            circuit.add_resistor(head, a, b, ohms).map_err(map_err)
        }
        'C' => {
            let [_, a, b, v] = expect_tokens::<4>(line, &tokens)?;
            let farads = need_value(line, v, "capacitance")?;
            let (a, b) = (circuit.node(a), circuit.node(b));
            circuit.add_capacitor(head, a, b, farads).map_err(map_err)
        }
        'L' => {
            let [_, a, b, v] = expect_tokens::<4>(line, &tokens)?;
            let henries = need_value(line, v, "inductance")?;
            let (a, b) = (circuit.node(a), circuit.node(b));
            circuit.add_inductor(head, a, b, henries).map_err(map_err)
        }
        'V' | 'I' => {
            if tokens.len() < 3 {
                return Err(err(line, "source card needs at least two nodes"));
            }
            let (p, n) = (circuit.node(tokens[1]), circuit.node(tokens[2]));
            let (dc, ac, wave) = parse_source_tail(line, card, &tokens[3..])?;
            if kind == 'V' {
                circuit.add_vsource_full(head, p, n, dc, ac, wave).map_err(map_err)
            } else {
                circuit.add_isource_full(head, p, n, dc, ac, wave).map_err(map_err)
            }
        }
        'E' => {
            let [_, p, n, cp, cn, g] = expect_tokens::<6>(line, &tokens)?;
            let gain = need_value(line, g, "gain")?;
            let (p, n, cp, cn) = (circuit.node(p), circuit.node(n), circuit.node(cp), circuit.node(cn));
            circuit.add_vcvs(head, p, n, cp, cn, gain).map_err(map_err)
        }
        'G' => {
            let [_, p, n, cp, cn, g] = expect_tokens::<6>(line, &tokens)?;
            let gm = need_value(line, g, "transconductance")?;
            let (p, n, cp, cn) = (circuit.node(p), circuit.node(n), circuit.node(cp), circuit.node(cn));
            circuit.add_vccs(head, p, n, cp, cn, gm).map_err(map_err)
        }
        'F' => {
            let [_, p, n, ctrl, g] = expect_tokens::<5>(line, &tokens)?;
            let gain = need_value(line, g, "current gain")?;
            let (p, n) = (circuit.node(p), circuit.node(n));
            circuit.add_cccs(head, p, n, ctrl, gain).map_err(map_err)
        }
        'H' => {
            let [_, p, n, ctrl, r] = expect_tokens::<5>(line, &tokens)?;
            let res = need_value(line, r, "transresistance")?;
            let (p, n) = (circuit.node(p), circuit.node(n));
            circuit.add_ccvs(head, p, n, ctrl, res).map_err(map_err)
        }
        'D' => {
            if tokens.len() < 4 {
                return Err(err(line, "diode card: D<name> p n model [area]"));
            }
            let (p, n) = (circuit.node(tokens[1]), circuit.node(tokens[2]));
            let model = tokens[3];
            let area = if tokens.len() > 4 { need_value(line, tokens[4], "area")? } else { 1.0 };
            circuit.add_diode(head, p, n, model, area).map_err(map_err)
        }
        'M' => {
            if tokens.len() < 6 {
                return Err(err(line, "mosfet card: M<name> d g s b model [W=..] [L=..] [M=..]"));
            }
            let (d, g, s, b) = (
                circuit.node(tokens[1]),
                circuit.node(tokens[2]),
                circuit.node(tokens[3]),
                circuit.node(tokens[4]),
            );
            let model = tokens[5];
            let kv = parse_kv(line, &tokens[6..])?;
            let w = kv.get("w").copied().ok_or_else(|| err(line, "mosfet needs W="))?;
            let l = kv.get("l").copied().ok_or_else(|| err(line, "mosfet needs L="))?;
            let m = kv.get("m").copied().unwrap_or(1.0);
            circuit
                .add_mosfet(head, d, g, s, b, model, MosGeometry { w, l, m })
                .map_err(map_err)
        }
        other => Err(err(line, format!("unsupported card type {other:?}"))),
    }
}

fn expect_tokens<'a, const N: usize>(
    line: usize,
    tokens: &[&'a str],
) -> Result<[&'a str; N], ParseNetlistError> {
    if tokens.len() != N {
        return Err(err(line, format!("expected {} fields, got {}", N, tokens.len())));
    }
    let mut out = [""; N];
    out.copy_from_slice(tokens);
    Ok(out)
}

/// Parses `KEY=value` pairs (case-insensitive keys).
fn parse_kv(line: usize, tokens: &[&str]) -> Result<HashMap<String, f64>, ParseNetlistError> {
    let mut out = HashMap::new();
    for tok in tokens {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| err(line, format!("expected key=value, got {tok:?}")))?;
        let val = need_value(line, v, k)?;
        out.insert(k.to_ascii_lowercase(), val);
    }
    Ok(out)
}

/// Parses the tail of a V/I source card: `[DC] value [AC mag [phase]]
/// [PULSE(...)|SIN(...)|PWL(...)]`.
fn parse_source_tail(
    line: usize,
    card: &str,
    tokens: &[&str],
) -> Result<(f64, Option<AcSpec>, Option<Waveform>), ParseNetlistError> {
    let mut dc = 0.0;
    let mut ac = None;
    let mut wave = None;

    // Waveform functions contain parentheses that whitespace-splitting may
    // have broken; re-extract them from the raw card text first.
    let lower = card.to_ascii_lowercase();
    for func in ["pulse", "sin", "pwl"] {
        if let Some(pos) = lower.find(&format!("{func}(")) {
            let open = pos + func.len();
            let close = lower[open..]
                .find(')')
                .map(|k| open + k)
                .ok_or_else(|| err(line, format!("unterminated {func}(...)")))?;
            let args: Vec<f64> = card[open + 1..close]
                .split([',', ' '])
                .filter(|s| !s.trim().is_empty())
                .map(|s| need_value(line, s.trim(), "waveform argument"))
                .collect::<Result<_, _>>()?;
            wave = Some(build_waveform(line, func, &args)?);
        }
    }

    let mut i = 0;
    while i < tokens.len() {
        let t = tokens[i];
        let tl = t.to_ascii_lowercase();
        if tl == "dc" {
            i += 1;
            if i < tokens.len() {
                dc = need_value(line, tokens[i], "dc value")?;
            }
        } else if tl == "ac" {
            let mag = if i + 1 < tokens.len() { parse_value(tokens[i + 1]).unwrap_or(1.0) } else { 1.0 };
            let consumed_mag = i + 1 < tokens.len() && parse_value(tokens[i + 1]).is_some();
            let phase = if consumed_mag && i + 2 < tokens.len() {
                parse_value(tokens[i + 2]).unwrap_or(0.0)
            } else {
                0.0
            };
            let consumed_phase = consumed_mag && i + 2 < tokens.len() && parse_value(tokens[i + 2]).is_some();
            ac = Some(AcSpec { mag, phase_deg: phase });
            i += usize::from(consumed_mag) + usize::from(consumed_phase);
        } else if tl.starts_with("pulse") || tl.starts_with("sin") || tl.starts_with("pwl") {
            // Consumed via the raw-card scan above; skip tokens until the
            // closing parenthesis.
            while i < tokens.len() && !tokens[i].contains(')') {
                i += 1;
            }
        } else if let Some(v) = parse_value(t) {
            dc = v;
        }
        i += 1;
    }
    Ok((dc, ac, wave))
}

fn build_waveform(line: usize, func: &str, args: &[f64]) -> Result<Waveform, ParseNetlistError> {
    let get = |k: usize, default: f64| args.get(k).copied().unwrap_or(default);
    match func {
        "pulse" => {
            if args.len() < 2 {
                return Err(err(line, "PULSE needs at least v1 v2"));
            }
            Ok(Waveform::Pulse {
                v1: get(0, 0.0),
                v2: get(1, 0.0),
                td: get(2, 0.0),
                tr: get(3, 1e-12),
                tf: get(4, 1e-12),
                pw: get(5, f64::INFINITY),
                per: get(6, f64::INFINITY),
            })
        }
        "sin" => {
            if args.len() < 3 {
                return Err(err(line, "SIN needs vo va freq"));
            }
            Ok(Waveform::Sin { vo: get(0, 0.0), va: get(1, 0.0), freq: get(2, 0.0), td: get(3, 0.0), theta: get(4, 0.0) })
        }
        "pwl" => {
            if args.len() < 2 || !args.len().is_multiple_of(2) {
                return Err(err(line, "PWL needs an even number of t v pairs"));
            }
            Ok(Waveform::Pwl(args.chunks(2).map(|c| (c[0], c[1])).collect()))
        }
        _ => unreachable!("caller passes known functions"),
    }
}

fn parse_dot_card(
    circuit: &mut Circuit,
    line: usize,
    card: &str,
    tokens: &[&str],
) -> Result<(), ParseNetlistError> {
    let directive = tokens[0].to_ascii_lowercase();
    match directive.as_str() {
        ".end" | ".ends" => Ok(()),
        // Analysis directives are consumed by `parse_deck`; the circuit
        // parser just skips them.
        ".op" | ".dc" | ".ac" | ".tran" => Ok(()),
        // Sizing-stanza directives are consumed by the netlist-bench
        // compiler in `asdex-env`; the circuit parser just skips them.
        ".sizeparam" | ".goal" | ".fom" | ".process" | ".corners" => Ok(()),
        ".include" => Err(err(
            line,
            ".include is only resolved when a deck is loaded from a file (see read_deck_source)",
        )),
        ".temp" => {
            let t = tokens
                .get(1)
                .and_then(|t| parse_value(t))
                .ok_or_else(|| err(line, ".temp needs a value"))?;
            circuit.temp_celsius = t;
            Ok(())
        }
        ".model" => {
            if tokens.len() < 3 {
                return Err(err(line, ".model needs a name and a type"));
            }
            let name = tokens[1];
            let mtype = tokens[2].to_ascii_uppercase();
            // Parameters may be wrapped in parentheses.
            let params_text = card
                .find('(')
                .map(|open| {
                    let close = card.rfind(')').unwrap_or(card.len());
                    card[open + 1..close].to_string()
                })
                .unwrap_or_else(|| tokens[3..].join(" "));
            let kv = parse_kv(line, &params_text.split_whitespace().collect::<Vec<_>>())?;
            match mtype.as_str() {
                "NMOS" | "PMOS" => {
                    let base = if mtype == "NMOS" { MosModel::default_nmos() } else { MosModel::default_pmos() };
                    let get = |k: &str, d: f64| kv.get(k).copied().unwrap_or(d);
                    let model = MosModel {
                        polarity: if mtype == "NMOS" { MosPolarity::Nmos } else { MosPolarity::Pmos },
                        vt0: get("vt0", base.vt0),
                        kp: get("kp", base.kp),
                        lambda: get("lambda", base.lambda),
                        gamma: get("gamma", base.gamma),
                        phi: get("phi", base.phi),
                        cox: get("cox", base.cox),
                        cgso: get("cgso", base.cgso),
                        cgdo: get("cgdo", base.cgdo),
                    };
                    circuit.add_mos_model(name, model);
                    Ok(())
                }
                "D" => {
                    let base = DiodeModel::default();
                    let get = |k: &str, d: f64| kv.get(k).copied().unwrap_or(d);
                    circuit.add_diode_model(
                        name,
                        DiodeModel { is: get("is", base.is), n: get("n", base.n), cj0: get("cj0", base.cj0) },
                    );
                    Ok(())
                }
                other => Err(err(line, format!("unsupported model type {other:?}"))),
            }
        }
        other => Err(err(line, format!("unsupported directive {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{dc_operating_point, OpOptions};
    use crate::circuit::ElementKind;

    #[test]
    fn parses_divider_and_simulates() {
        let ckt = parse_netlist("divider\nV1 in 0 2\nR1 in out 1k\nR2 out 0 1k\n.end").unwrap();
        let out = ckt.find_node("out").unwrap();
        let op = dc_operating_point(&ckt, &OpOptions::default()).unwrap();
        assert!((op.voltage(out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn title_line_is_skipped_even_if_card_like() {
        let ckt = parse_netlist("R1 this is a title\nR2 a 0 1k\n.end").unwrap();
        assert_eq!(ckt.elements().len(), 1);
        assert_eq!(ckt.elements()[0].name, "R2");
    }

    #[test]
    fn comments_and_blank_lines() {
        let ckt = parse_netlist("t\n* comment\n\nR1 a 0 1k ; trailing\n.end").unwrap();
        assert_eq!(ckt.elements().len(), 1);
        match &ckt.elements()[0].kind {
            ElementKind::Resistor { ohms, .. } => assert_eq!(*ohms, 1e3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn continuation_lines_join() {
        let ckt = parse_netlist("t\nM1 d g s b nch\n+ W=10u L=1u\n.model nch NMOS (VT0=0.5)\n.end").unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Mosfet { geom, .. } => {
                assert!((geom.w - 10e-6).abs() < 1e-18);
                assert!((geom.l - 1e-6).abs() < 1e-18);
                assert_eq!(geom.m, 1.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn continuation_without_card_errors() {
        let e = parse_netlist("t\n+ W=1u\n.end").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn model_card_parameters() {
        let ckt =
            parse_netlist("t\n.model nch NMOS (VT0=0.47 KP=270u LAMBDA=0.12 GAMMA=0.35 PHI=0.8)\n.end").unwrap();
        let m = ckt.mos_model("nch").unwrap();
        assert!((m.vt0 - 0.47).abs() < 1e-12);
        assert!((m.kp - 270e-6).abs() < 1e-15);
        assert_eq!(m.polarity, MosPolarity::Nmos);
    }

    #[test]
    fn diode_model_and_instance() {
        let ckt = parse_netlist("t\nD1 a 0 dfast 2\n.model dfast D (IS=1e-15 N=1.2)\n.end").unwrap();
        assert!(ckt.diode_model("dfast").is_some());
        match &ckt.elements()[0].kind {
            ElementKind::Diode { area, .. } => assert_eq!(*area, 2.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn source_with_ac_and_pulse() {
        let ckt = parse_netlist("t\nV1 in 0 DC 0.9 AC 1 90 PULSE(0 1.8 1n 0.1n 0.1n 5n 10n)\n.end").unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Vsource { dc, ac, wave, .. } => {
                assert_eq!(*dc, 0.9);
                let ac = ac.expect("has ac");
                assert_eq!(ac.mag, 1.0);
                assert_eq!(ac.phase_deg, 90.0);
                match wave {
                    Some(Waveform::Pulse { v2, per, .. }) => {
                        assert_eq!(*v2, 1.8);
                        assert!((per - 10e-9).abs() < 1e-18);
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sin_source() {
        let ckt = parse_netlist("t\nI1 0 out SIN(0 1m 1meg)\n.end").unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Isource { wave: Some(Waveform::Sin { va, freq, .. }), .. } => {
                assert_eq!(*va, 1e-3);
                assert_eq!(*freq, 1e6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pwl_source() {
        let ckt = parse_netlist("t\nV1 a 0 PWL(0 0 1n 1 2n 0.5)\n.end").unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Vsource { wave: Some(Waveform::Pwl(pts)), .. } => {
                assert_eq!(pts.len(), 3);
                assert_eq!(pts[1], (1e-9, 1.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn temp_directive() {
        let ckt = parse_netlist("t\n.temp 85\n.end").unwrap();
        assert_eq!(ckt.temp_celsius, 85.0);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_netlist("t\nR1 a 0\n.end").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_netlist("t\nR1 a 0 xyz\n.end").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_netlist("t\nQ1 a b c\n.end").unwrap_err();
        assert!(e.message.contains("unsupported card"));
        let e = parse_netlist("t\n.model foo BJT (A=1)\n.end").unwrap_err();
        assert!(e.message.contains("unsupported model"));
        let e = parse_netlist("t\n.probe v(out)\n.end").unwrap_err();
        assert!(e.message.contains("unsupported directive"));
    }

    #[test]
    fn vcvs_vccs_cards() {
        let ckt = parse_netlist("t\nE1 out 0 in 0 10\nG1 0 o2 in 0 1m\n.end").unwrap();
        assert_eq!(ckt.elements().len(), 2);
        match &ckt.elements()[0].kind {
            ElementKind::Vcvs { gain, .. } => assert_eq!(*gain, 10.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deck_analysis_directives() {
        // The same directives on single lines and with a continued `.ac`.
        for source in [
            "t\nV1 a 0 1\nR1 a 0 1k\n.op\n.dc V1 0 2 0.5\n.ac dec 10 1k 1meg\n.tran 1n 1u\n.end",
            "t\nV1 a 0 1\nR1 a 0 1k\n.op\n.dc V1 0 2 0.5\n.ac dec 10\n+ 1k 1meg\n.tran 1n 1u\n.end",
        ] {
            let deck = parse_deck(source).unwrap();
            assert_eq!(deck.analyses.len(), 4);
            assert_eq!(deck.analyses[0], AnalysisCard::Op);
            assert_eq!(
                deck.analyses[1],
                AnalysisCard::Dc { source: "V1".into(), start: 0.0, stop: 2.0, step: 0.5 }
            );
            match deck.analyses[2] {
                AnalysisCard::Ac { points_per_decade, fstart, fstop } => {
                    assert_eq!(points_per_decade, 10);
                    assert_eq!(fstart, 1e3);
                    assert_eq!(fstop, 1e6);
                }
                ref other => panic!("{other:?}"),
            }
            assert_eq!(deck.analyses[3], AnalysisCard::Tran { tstep: 1e-9, tstop: 1e-6 });
            assert_eq!(deck.circuit.elements().len(), 2);
        }
    }

    #[test]
    fn malformed_analysis_directives_error() {
        assert!(parse_deck("t\n.dc V1 0 2\n.end").is_err());
        assert!(parse_deck("t\n.ac lin 10 1 2\n.end").is_err());
        assert!(parse_deck("t\n.tran 1n\n.end").is_err());
    }

    #[test]
    fn cccs_ccvs_cards() {
        let ckt = parse_netlist("t\nF1 0 out V1 2\nH1 o2 0 V1 5k\nV1 a 0 1\n.end").unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Cccs { ctrl, gain, .. } => {
                assert_eq!(ctrl, "V1");
                assert_eq!(*gain, 2.0);
            }
            other => panic!("{other:?}"),
        }
        match &ckt.elements()[1].kind {
            ElementKind::Ccvs { r, .. } => assert_eq!(*r, 5e3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn subckt_expansion_divider() {
        // A 2:1 divider subcircuit instantiated twice in series.
        let deck = "t
.subckt half in out
R1 in out 1k
R2 out 0 1k
.ends
V1 top 0 4
Xa top mid half
Xb mid low half
.end
";
        let ckt = parse_netlist(deck).unwrap();
        // 1 source + 2 × 2 resistors.
        assert_eq!(ckt.elements().len(), 5);
        let op = crate::analysis::dc_operating_point(&ckt, &Default::default()).unwrap();
        let mid = ckt.find_node("mid").expect("port node exists");
        let low = ckt.find_node("low").expect("port node exists");
        // Loading: second divider loads the first; solve the real network:
        // top=4, R chain: mid sees 1k from top, then (1k || (1k+1k)) to 0.
        let expect_mid = 4.0 * (2.0 / 3.0) / (1.0 + 2.0 / 3.0);
        assert!((op.voltage(mid) - expect_mid).abs() < 1e-9, "v(mid) = {}", op.voltage(mid));
        assert!((op.voltage(low) - expect_mid / 2.0).abs() < 1e-9);
    }

    #[test]
    fn subckt_internal_nodes_are_namespaced() {
        let deck = "t
.subckt cell a
R1 a internal 1k
R2 internal 0 1k
.ends
V1 n1 0 1
X1 n1 cell
X2 n1 cell
.end
";
        let ckt = parse_netlist(deck).unwrap();
        assert!(ckt.find_node("x1.internal").is_some());
        assert!(ckt.find_node("x2.internal").is_some());
        assert_eq!(ckt.elements().len(), 5);
    }

    #[test]
    fn subckt_with_mosfet_and_model() {
        let deck = "t
.subckt inv in out vdd
MP out in vdd vdd pch W=2u L=0.2u
MN out in 0 0 nch W=1u L=0.2u
.ends
.model nch NMOS (VT0=0.5)
.model pch PMOS (VT0=-0.5)
VDD vdd 0 1.8
VIN in 0 0.9
X1 in out vdd inv
.end
";
        let ckt = parse_netlist(deck).unwrap();
        assert_eq!(ckt.elements().len(), 4);
        let op = crate::analysis::dc_operating_point(&ckt, &Default::default()).unwrap();
        let out = ckt.find_node("out").unwrap();
        assert!(op.voltage(out).is_finite());
    }

    #[test]
    fn subckt_errors() {
        assert!(parse_netlist("t\n.subckt a p\nR1 p 0 1k\n.end").is_err(), "unclosed");
        assert!(parse_netlist("t\n.ends\n.end").is_err(), "stray .ends");
        assert!(parse_netlist("t\nX1 a b nothere\n.end").is_err(), "unknown subckt");
        let wrong_ports = "t\n.subckt s a b\nR1 a b 1k\n.ends\nX1 n1 s\n.end";
        assert!(parse_netlist(wrong_ports).is_err(), "port count");
    }

    #[test]
    fn recursive_subckt_rejected() {
        let deck = "t
.subckt loopy a
Xinner a loopy
.ends
X1 n1 loopy
.end
";
        let e = parse_netlist(deck).unwrap_err();
        assert!(e.message.contains("nesting too deep"), "{}", e.message);
    }

    #[test]
    fn cards_after_end_ignored() {
        let ckt = parse_netlist("t\nR1 a 0 1k\n.end\nR2 b 0 2k\n").unwrap();
        assert_eq!(ckt.elements().len(), 1);
    }

    #[test]
    fn param_cards_substitute() {
        let ckt = parse_netlist("t\n.param rload=2*1k\nR1 a 0 {rload}\nV1 a 0 {vin}\n.param vin=1.5\n.end");
        // `vin` is defined after its use — sequential processing rejects it.
        assert!(ckt.is_err());
        let ckt =
            parse_netlist("t\n.param vin=1.5\n.param rload=2*1k\nR1 a 0 {rload}\nV1 a 0 {vin}\n.end").unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Resistor { ohms, .. } => assert_eq!(*ohms, 2e3),
            other => panic!("{other:?}"),
        }
        match &ckt.elements()[1].kind {
            ElementKind::Vsource { dc, .. } => assert_eq!(*dc, 1.5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn param_references_earlier_params() {
        let ckt = parse_netlist("t\n.param vdd=1.8\n.param vcm=0.55*{vdd}\nV1 a 0 {vcm}\n.end").unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Vsource { dc, .. } => assert_eq!(*dc, 0.55 * 1.8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn param_redefinition_latest_wins() {
        let ckt = parse_netlist("t\n.param r=1k\n.param r=2k\nR1 a 0 {r}\n.end").unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Resistor { ohms, .. } => assert_eq!(*ohms, 2e3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn param_errors_are_typed() {
        let e = parse_netlist("t\nR1 a 0 {nope}\n.end").unwrap_err();
        assert!(e.message.contains("unresolved parameter reference"), "{}", e.message);
        assert_eq!(e.line, 2);
        let e = parse_netlist("t\nR1 a 0 {oops\n.end").unwrap_err();
        assert!(e.message.contains("unterminated"), "{}", e.message);
        let e = parse_netlist("t\n.param\n.end").unwrap_err();
        assert!(e.message.contains(".param NAME=VALUE"), "{}", e.message);
        let e = parse_netlist("t\n.param 1bad=2\n.end").unwrap_err();
        assert!(e.message.contains("invalid parameter name"), "{}", e.message);
        let e = parse_netlist("t\n.param x=1**2\n.end").unwrap_err();
        assert!(e.message.contains("empty factor"), "{}", e.message);
        let e = parse_netlist("t\n.param x=1*zz\n.end").unwrap_err();
        assert!(e.message.contains("cannot parse"), "{}", e.message);
    }

    #[test]
    fn param_value_round_trips_exactly() {
        // A substituted constant must stamp bit-identically to the
        // computed value — the netlist-bench equivalence contract.
        let v: f64 = 0.55 * 1.8;
        let ckt = parse_netlist("t\n.param vdd=1.8\n.param vcm=0.55*{vdd}\nV1 a 0 {vcm}\n.end").unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Vsource { dc, .. } => assert_eq!(dc.to_bits(), v.to_bits()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sizing_directives_are_skipped_by_circuit_parser() {
        let ckt = parse_netlist(
            "t\n.sizeparam w 1e-6 1e-4 STEP 10\n.goal gain_db >= 60\n.fom power_w\n.process 45\n.corners nominal\nR1 a 0 1k\n.end",
        )
        .unwrap();
        assert_eq!(ckt.elements().len(), 1);
    }

    #[test]
    fn inline_include_is_rejected() {
        let e = parse_netlist("t\n.include models.sp\n.end").unwrap_err();
        assert!(e.message.contains(".include"), "{}", e.message);
    }

    #[test]
    fn include_loader_expands_and_guards() {
        let dir = std::env::temp_dir().join(format!("asdex_inc_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("models.inc"), ".model nch NMOS (VT0=0.5)\n").unwrap();
        std::fs::write(dir.join("sub").join("nested.inc"), "R9 a 0 9k\n").unwrap();
        std::fs::write(
            dir.join("main.sp"),
            "title\n.include models.inc\n.include sub/nested.inc\nR1 a 0 1k\n.end\n",
        )
        .unwrap();
        let src = read_deck_source(&dir.join("main.sp")).unwrap();
        assert!(src.contains(".model nch"));
        assert!(src.contains("R9 a 0 9k"));
        let ckt = parse_netlist(&src).unwrap();
        assert_eq!(ckt.elements().len(), 2);
        assert!(ckt.mos_model("nch").is_some());

        // Missing file.
        std::fs::write(dir.join("missing.sp"), "t\n.include nothere.inc\n.end\n").unwrap();
        let e = read_deck_source(&dir.join("missing.sp")).unwrap_err();
        assert!(e.message.contains("cannot read deck"), "{}", e.message);

        // Escape via `..` or an absolute path.
        std::fs::write(dir.join("escape.sp"), "t\n.include ../etc/passwd\n.end\n").unwrap();
        let e = read_deck_source(&dir.join("escape.sp")).unwrap_err();
        assert!(e.message.contains("escapes"), "{}", e.message);
        std::fs::write(dir.join("abs.sp"), "t\n.include /etc/passwd\n.end\n").unwrap();
        let e = read_deck_source(&dir.join("abs.sp")).unwrap_err();
        assert!(e.message.contains("escapes"), "{}", e.message);

        // Cycle.
        std::fs::write(dir.join("a.sp"), "t\n.include b.sp\n").unwrap();
        std::fs::write(dir.join("b.sp"), ".include a.sp\n").unwrap();
        let e = read_deck_source(&dir.join("a.sp")).unwrap_err();
        assert!(e.message.contains("cycle"), "{}", e.message);

        // Malformed directive.
        std::fs::write(dir.join("bad.sp"), "t\n.include\n.end\n").unwrap();
        assert!(read_deck_source(&dir.join("bad.sp")).is_err());
        std::fs::write(dir.join("bad2.sp"), "t\n.include a.inc b.inc\n.end\n").unwrap();
        let e = read_deck_source(&dir.join("bad2.sp")).unwrap_err();
        assert!(e.message.contains("exactly one path"), "{}", e.message);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn negative_and_exponent_values() {
        let ckt = parse_netlist("t\nV1 a 0 -1.5\nR1 a 0 1.2e3\n.end").unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Vsource { dc, .. } => assert_eq!(*dc, -1.5),
            other => panic!("{other:?}"),
        }
    }
}

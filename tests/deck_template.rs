//! The parsed deck template against the pipeline it replaced.
//!
//! A sizing deck is parsed once into a template circuit whose axis- and
//! supply-bound fields are value slots; each evaluation clones it and
//! writes the slots. The reference here is a verbatim copy of the old
//! per-evaluation pipeline: render the deck text with every `{axis}` and
//! `{vdd}` formatted `{:e}`, then parse the rendered deck into a circuit
//! seeded with the corner's models and temperature. At the grid midpoint
//! and at seeded random grid points, at every `signoff5` corner, the two
//! must build the same circuit: the same nodes in the same order, the same
//! elements (names, kinds, order and the bits of every value), the same
//! models and the same temperature. Binding references where no slot can
//! take them, and `.param`s named like a binding, are typed errors.

use asdex::env::circuits::opamp::TwoStageOpamp;
use asdex::env::{NetlistBench, Param, PvtCorner, PvtSet};
use asdex::spice::parser::parse_netlist_into;
use asdex::spice::{Circuit, ElementKind};
use asdex_rng::rngs::StdRng;
use asdex_rng::SeedableRng;

/// The shipped sizing decks; the first two are the built-in amplifiers.
const SIZING_DECKS: [&str; 6] = [
    "decks/two_stage_opamp_sized.sp",
    "decks/two_stage_opamp22_sized.sp",
    "decks/folded_cascode_opamp.sp",
    "decks/bandgap_reference.sp",
    "decks/comparator.sp",
    "decks/two_stage_ldo.sp",
];

/// The old renderer, verbatim but for taking the bench's fields as
/// arguments: substitutes each `{axis}` reference and the built-in `{vdd}`
/// binding, leaving `.param`-defined references for the parser.
fn render(source: &str, axes: &[Param], node_vdd: f64, x: &[f64], corner: &PvtCorner) -> String {
    let vdd_v = node_vdd * corner.vdd_scale;
    let mut table: Vec<(&str, String)> = Vec::with_capacity(x.len() + 1);
    for (param, value) in axes.iter().zip(x) {
        table.push((param.name.as_str(), format!("{value:e}")));
    }
    table.push(("vdd", format!("{vdd_v:e}")));

    let mut out = String::with_capacity(source.len());
    let mut rest = source;
    while let Some(open) = rest.find('{') {
        let after = &rest[open + 1..];
        match after.find('}') {
            Some(close) => {
                let name = &after[..close];
                match table.iter().find(|(n, _)| *n == name) {
                    Some((_, value)) => {
                        out.push_str(&rest[..open]);
                        out.push_str(value);
                        rest = &after[close + 1..];
                    }
                    None => {
                        // Not ours (a `.param` constant): copy through.
                        out.push_str(&rest[..open + 1]);
                        rest = after;
                    }
                }
            }
            None => break,
        }
    }
    out.push_str(rest);
    out
}

/// The old `NetlistBench::netlist` body: seed a circuit with the corner's
/// models and temperature, then parse the rendered deck into it.
fn reference(bench: &NetlistBench, x: &[f64], corner: &PvtCorner) -> Circuit {
    let node = bench.process();
    let rendered = render(bench.source(), bench.axes(), node.vdd, x, corner);
    let (nmos, pmos) = node.models_at(corner.process, corner.temp_celsius);
    let mut circuit = Circuit::new();
    circuit.temp_celsius = corner.temp_celsius;
    circuit.add_mos_model("nch", nmos);
    circuit.add_mos_model("pch", pmos);
    parse_netlist_into(&rendered, &mut circuit).expect("the rendered deck parses");
    circuit
}

/// Everything a circuit holds, one line per item. Rust's `{:?}` prints an
/// `f64` as the shortest text that reads back to the same bits, so two
/// dumps agree exactly when every value agrees bit for bit.
fn dump(c: &Circuit) -> Vec<String> {
    let mut out = vec![format!("temp {:016x}", c.temp_celsius.to_bits())];
    out.extend(c.node_ids().into_iter().map(|id| format!("node {id:?} {}", c.node_name(id))));
    for e in c.elements() {
        out.push(format!("element {e:?}"));
        if let ElementKind::Diode { model, .. } = &e.kind {
            out.push(format!("diode model {model} {:?}", c.diode_model(model)));
        }
    }
    for name in ["nch", "pch"] {
        out.push(format!("mos model {name} {:?}", c.mos_model(name)));
    }
    out
}

fn assert_same(bench: &NetlistBench, x: &[f64], corner: &PvtCorner, what: &str) {
    let ours = bench.netlist(x, corner).expect("the template stamps");
    let theirs = reference(bench, x, corner);
    let (ours, theirs) = (dump(&ours), dump(&theirs));
    assert_eq!(ours.len(), theirs.len(), "{what}: item count");
    for (a, b) in ours.iter().zip(&theirs) {
        assert_eq!(a, b, "{what} at {corner:?}");
    }
}

/// The grid midpoint and `n` seeded random grid points, in physical units.
fn points(bench: &NetlistBench, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let space = bench.problem().expect("the deck forms a problem").space;
    let mut rng = StdRng::seed_from_u64(seed);
    let midpoint = bench.axes().iter().map(|p| p.grid[(p.grid.len() - 1) / 2]).collect();
    let random = (0..n).map(|_| space.to_physical(&space.sample(&mut rng)).expect("on the grid"));
    std::iter::once(midpoint).chain(random).collect()
}

/// A 400-stage RC ladder into a common-source stage, the shape of the
/// sparse benchmark deck: every R and C bound to an axis, a diode every
/// eighth node, the input bias a `.param` of `{vdd}`.
fn ladder_deck(stages: usize) -> String {
    let mut lines = vec![
        format!("ladder{stages} rc ladder into a common-source stage bsim45"),
        ".process 45".to_string(),
        ".corners nominal".to_string(),
        ".sizeparam rstage 5 50 STEP 10".to_string(),
        ".sizeparam cstage 1e-14 1e-12 STEP 10".to_string(),
        ".sizeparam w_cs 1e-6 20e-6 STEP 20".to_string(),
        ".sizeparam rload 1e3 2e4 STEP 20".to_string(),
        ".goal gain_db >= 10".to_string(),
        ".goal power_w <= 5e-4".to_string(),
        ".param vb=0.4*{vdd}".to_string(),
        "VDD vdd 0 DC {vdd}".to_string(),
        "VIN n0 0 DC {vb} AC 1".to_string(),
    ];
    for k in 1..=stages {
        lines.push(format!("R{k} n{} n{k} {{rstage}}", k - 1));
        lines.push(format!("C{k} n{k} 0 {{cstage}}"));
        if k % 8 == 0 {
            lines.push(format!("D{k} 0 n{k} dshunt"));
        }
    }
    lines.extend([
        format!("M1 out n{stages} 0 0 nch W={{w_cs}} L=1.8e-7"),
        "RL vdd out {rload}".to_string(),
        "CL out 0 1e-13".to_string(),
        ".model dshunt D (IS=1e-14)".to_string(),
        ".end".to_string(),
    ]);
    lines.join("\n") + "\n"
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path} ships with the repo: {e}"))
}

#[test]
fn shipped_sizing_decks_stamp_like_render_and_parse_bitwise() {
    for (k, path) in SIZING_DECKS.iter().enumerate() {
        let bench = NetlistBench::compile(&read(path)).expect("shipped deck compiles");
        for x in points(&bench, 8, 100 + k as u64) {
            for corner in PvtSet::signoff5().corners() {
                assert_same(&bench, &x, corner, path);
            }
        }
    }
}

#[test]
fn the_built_in_amplifiers_are_their_decks() {
    for (amp, path) in [
        (TwoStageOpamp::bsim45(), SIZING_DECKS[0]),
        (TwoStageOpamp::bsim22(), SIZING_DECKS[1]),
    ] {
        let bench = NetlistBench::compile(&read(path)).expect("amplifier deck compiles");
        assert_eq!(amp.process().name, bench.process().name, "{path}");
        for x in points(&bench, 4, 7) {
            for corner in PvtSet::signoff5().corners() {
                let built_in = amp.netlist(&x, corner).expect("the built-in stamps");
                assert_eq!(dump(&built_in), dump(&reference(&bench, &x, corner)), "{path}");
            }
        }
    }
}

#[test]
fn a_400_stage_ladder_stamps_like_render_and_parse_bitwise() {
    let bench = NetlistBench::compile(&ladder_deck(400)).expect("ladder compiles");
    for x in points(&bench, 3, 400) {
        for corner in PvtSet::signoff5().corners() {
            assert_same(&bench, &x, corner, "ladder400");
        }
    }
}

#[test]
fn a_decks_own_models_and_temperature_win_over_the_corners() {
    let deck = read(SIZING_DECKS[0]).replace(
        ".end",
        ".temp 85\n.model nch NMOS (VT0=0.4 KP=300u LAMBDA=0.1)\n.end",
    );
    let bench = NetlistBench::compile(&deck).expect("deck with its own cards compiles");
    let hot = PvtSet::signoff5();
    for x in points(&bench, 2, 3) {
        for corner in hot.corners() {
            assert_same(&bench, &x, corner, "own .temp and .model nch");
            let c = bench.netlist(&x, corner).expect("stamps");
            assert_eq!(c.temp_celsius, 85.0);
            assert_eq!(c.mos_model("nch").expect("deck's nch").vt0, 0.4);
            let (_, pmos) = bench.process().models_at(corner.process, corner.temp_celsius);
            assert_eq!(c.mos_model("pch"), Some(&pmos), "pch still comes from the corner");
        }
    }
}

#[test]
fn bindings_outside_value_slots_are_typed_errors() {
    let base = read(SIZING_DECKS[0]);
    let cases: [(&str, &str, &str); 12] = [
        ("VIP inp 0 DC {vcm} AC 1", "VIP inp 0 DC {vcm} AC {vdd}", "may only set"),
        ("VIP inp 0 DC {vcm} AC 1", "VIP inp 0 DC {vcm} AC 1 {vcm}", "may only set"),
        ("CFB fb 0 1", "CFB fb 0 1\nVP p 0 PULSE(0 {vdd} 1n)\nRP p 0 1k", "may only set"),
        ("CFB fb 0 1", "CFB fb 0 1\nE1 e 0 out 0 {cc}\nRE e 0 1k", "may only set"),
        ("CFB fb 0 1", "CFB fb 0 1\nD1 fb 0 dx {w_in}\n.model dx D", "may only set"),
        (".end", ".model nch NMOS (VT0={vdd})\n.end", "may only set"),
        (".end", ".temp {vdd}\n.end", "may only set"),
        ("CL out 0 2e-12", "CL {vdd} 0 2e-12", "may only set"),
        ("M2 x2 inp tail 0 nch", "M2 x2 inp tail 0 {w_in}", "may only set"),
        ("W={w_mir} L=1.8e-7", "W={w_mir}u L=1.8e-7", "may only set a whole"),
        (".param vcm=0.55*{vdd}", ".param vcm=0.55*{vdd}0", "whole factor"),
        ("IB vdd nb {ibias}", "IB vdd nb {ibias}u", "may only set a whole"),
    ];
    for (from, to, needle) in cases {
        assert!(base.contains(from), "mutation target {from:?} missing");
        let e = NetlistBench::compile(&base.replacen(from, to, 1)).expect_err(to);
        assert!(e.to_string().contains(needle), "{to:?}: {e}");
        assert!(e.line > 0, "{to:?}: the error names its card: {e}");
    }
    for shadow in [".param vdd=1.8", ".param w_in=1e-6"] {
        let deck = base.replacen(".param vcm", &format!("{shadow}\n.param vcm"), 1);
        let e = NetlistBench::compile(&deck).expect_err(shadow);
        assert!(e.to_string().contains("shadows"), "{shadow}: {e}");
    }
    // Plain decks keep their constants: a `.param vdd` is a constant
    // when nothing binds `{vdd}`.
    let plain = "t\n.param vdd=1.8\n.param vcm=0.55*{vdd}\nV1 a 0 {vcm}\nR1 a 0 1k\n.end";
    assert!(asdex::spice::parser::parse_netlist(plain).is_ok());
}

#[test]
fn bound_params_follow_redefinition_and_dc_override_like_the_parser() {
    // A bound `.param` whose product order shows in its bits, redefined
    // midway; a source whose bare DC value follows the bound one; and a
    // MOSFET whose repeated `W=` ends on a literal: each card reads what
    // a parse of the rendered text reads.
    let deck = read(SIZING_DECKS[0])
        .replace(
            "CFB fb 0 1",
            "CFB fb 0 1\n.param rb=0.3*{cc}*1.1e12*0.7\nRB1 fb b1 {rb}\n.param rb=3*{rb}\n\
             RB2 b1 0 {rb}\nVB b2 0 {vcm} 0.25\nRB3 b2 0 1k",
        )
        .replace("M7 out nb 0 0 nch W={w_sink}", "M7 out nb 0 0 nch W={w_sink} W=3e-6");
    let bench = NetlistBench::compile(&deck).expect("deck compiles");
    for x in points(&bench, 3, 11) {
        for corner in PvtSet::signoff5().corners() {
            assert_same(&bench, &x, corner, "redefinitions");
        }
    }
}

//! Simulator and linear-algebra stages timed one by one, measured in every
//! traced run: each sweep deck at its grid midpoint and the nominal corner
//! goes through `Engine::compile`, `operating_point_with` and
//! `ac_analysis_with_op_in` exactly as an evaluation does.

use crate::report::Report;
use crate::stats;
use crate::sweep::{decks, Deck};
use asdex_env::circuits::ldo::Ldo;
use asdex_env::circuits::opamp::TwoStageOpamp;
use asdex_env::{NetlistBench, PvtCorner};
use asdex_linalg::{Lu, Matrix};
use asdex_spice::analysis::{
    ac_analysis_with_op_in, Engine, OpOptions, SolverChoice, SolverWorkspace, Sweep,
};
use asdex_spice::measure::checked_frequency_response;
use asdex_spice::parser::parse_netlist_into;
use asdex_spice::Circuit;
use std::time::Instant;

/// The AC sweep every evaluator runs.
const SWEEP: Sweep = Sweep::Decade {
    fstart: 10.0,
    fstop: 10e9,
    points_per_decade: 10,
};

/// Median seconds of `f`, repeated until 30 ms have passed (at least 5
/// and at most 200 times).
fn time<T>(mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (samples.len() < 200 && started.elapsed().as_secs_f64() < 0.03) {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&samples)
}

/// The deck's circuit at its grid midpoint and the nominal corner.
fn circuit(deck: &Deck) -> Circuit {
    let p = deck.problem(1);
    let u = p
        .space
        .snap(&vec![0.5; p.dim()])
        .expect("midpoint has the space's dimension");
    let x = p.space.to_physical(&u).expect("midpoint is on the grid");
    let corner = PvtCorner::nominal();
    let built = match deck.name {
        "opamp45" => TwoStageOpamp::bsim45().netlist(&x, &corner),
        "opamp22" => TwoStageOpamp::bsim22().netlist(&x, &corner),
        "ldo" => Ldo::n6().netlist(&x, &corner),
        _ => {
            return stamp(
                deck.netlist().expect("non-built-in decks are netlists"),
                &x,
                &corner,
            )
        }
    };
    built.expect("built-in netlists stamp at the midpoint")
}

/// Renders a sizing deck at `x` the way the netlist bench does — `{axis}`
/// and `{vdd}` substituted, the corner's MOS models preloaded — and
/// parses it. The bench's own renderer is private; `check_stamp` confirms
/// that this copy yields the circuit the evaluator solves.
fn stamp(source: &str, x: &[f64], corner: &PvtCorner) -> Circuit {
    let bench = NetlistBench::compile(source).expect("pinned deck compiles");
    let vdd = bench.process().vdd * corner.vdd_scale;
    let mut rendered = source.to_string();
    for (param, value) in bench.axes().iter().zip(x) {
        rendered = rendered.replace(&format!("{{{}}}", param.name), &format!("{value:e}"));
    }
    rendered = rendered.replace("{vdd}", &format!("{vdd:e}"));
    let (nmos, pmos) = bench
        .process()
        .models_at(corner.process, corner.temp_celsius);
    let mut circuit = Circuit::new();
    circuit.temp_celsius = corner.temp_celsius;
    circuit.add_mos_model("nch", nmos);
    circuit.add_mos_model("pch", pmos);
    parse_netlist_into(&rendered, &mut circuit).expect("rendered deck parses");
    circuit
}

/// Checks that the copied stamp reproduces, bit for bit, the measurements
/// the netlist evaluator reports at the deck's midpoint and the nominal
/// corner: the same five figures, from an operating point and AC sweep
/// of the stamped circuit, that the evaluator computes.
pub fn check_stamp(deck: &Deck) -> Result<(), String> {
    let Some(source) = deck.netlist() else {
        return Ok(());
    };
    let p = deck.problem(1);
    let u = p
        .space
        .snap(&vec![0.5; p.dim()])
        .expect("midpoint has the space's dimension");
    let x = p.space.to_physical(&u).expect("midpoint is on the grid");
    let corner = PvtCorner::nominal();
    let c = stamp(source, &x, &corner);
    let measured = || -> Result<Vec<f64>, String> {
        let engine = Engine::compile(&c).map_err(|e| e.to_string())?;
        let mut ws = SolverWorkspace::with_choice(SolverChoice::Auto);
        let op = engine
            .operating_point_with(&OpOptions::default(), None, &mut ws)
            .map_err(|e| e.to_string())?;
        let vdd = engine.branch_of("VDD").ok_or("no VDD source")?;
        let supply_w = op.branch_current(vdd).abs()
            * NetlistBench::compile(source)
                .map_err(|e| e.to_string())?
                .process()
                .vdd
            * corner.vdd_scale;
        let out = c.find_node("out").ok_or("no out node")?;
        let ac = ac_analysis_with_op_in(&engine, op, SWEEP, &mut ws).map_err(|e| e.to_string())?;
        let fr = checked_frequency_response(&ac, out).map_err(|e| e.to_string())?;
        Ok(vec![
            fr.dc_gain_db,
            fr.unity_gain_freq.unwrap_or(0.0),
            fr.phase_margin_deg.unwrap_or(0.0),
            supply_w,
            c.total_gate_area(),
        ])
    };
    let ours = measured()?;
    let theirs = p
        .evaluate_normalized(&u, 0)
        .measurements
        .ok_or("the evaluator failed at the midpoint")?;
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    if bits(&ours) == bits(&theirs) {
        Ok(())
    } else {
        Err(format!("stamped {ours:?}, evaluator {theirs:?}"))
    }
}

/// Unknowns in the deck's MNA system.
pub fn mna_dim(deck: &Deck) -> usize {
    Engine::compile(&circuit(deck))
        .expect("deck compiles")
        .dim()
}

/// Sets `spice.<deck>.*` and `linalg.*`.
pub fn measure(report: &mut Report) {
    let mut op_per_iter = Vec::new();
    for deck in decks() {
        if let Err(e) = check_stamp(&deck) {
            report.fail(format!(
                "{}: the copied stamp does not match the evaluator: {e}",
                deck.name
            ));
        }
        let c = circuit(&deck);
        let engine = Engine::compile(&c).expect("deck compiles");
        let mut ws = SolverWorkspace::with_choice(SolverChoice::Auto);
        let opts = OpOptions::default();
        let op = engine
            .operating_point_with(&opts, None, &mut ws)
            .expect("midpoint converges");
        let compile_us = time(|| Engine::compile(&c)) * 1e6;
        let op_us = time(|| engine.operating_point_with(&opts, None, &mut ws)) * 1e6;
        let ac_us = time(|| ac_analysis_with_op_in(&engine, op.clone(), SWEEP, &mut ws)) * 1e6;
        let name = deck.name;
        report.set(&format!("spice.{name}.compile_us"), compile_us);
        report.set(&format!("spice.{name}.op_us"), op_us);
        report.set(&format!("spice.{name}.newton_iters"), op.iterations as f64);
        report.set(&format!("spice.{name}.ac_us"), ac_us);
        op_per_iter.push((name, op_us / op.iterations.max(1) as f64));
    }
    let per_iter = |name| {
        op_per_iter
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    report.set("linalg.dense_op_us_per_iter", per_iter("opamp45"));
    report.set("linalg.sparse_op_us_per_iter", per_iter("ladder400"));
    report.set("linalg.lu12_factor_solve_us", lu12_us());
}

/// One factor-and-solve of a 12×12 diagonally dominant system, the size
/// of the opamp benches' MNA matrices.
fn lu12_us() -> f64 {
    const N: usize = 12;
    let rows: Vec<Vec<f64>> = (0..N)
        .map(|i| {
            (0..N)
                .map(|j| {
                    if i == j {
                        4.0 + i as f64
                    } else {
                        1.0 / (1 + i + j) as f64
                    }
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let a = Matrix::from_rows(&refs);
    let b: Vec<f64> = (0..N).map(|i| i as f64).collect();
    const REPS: usize = 1000;
    time(|| {
        for _ in 0..REPS {
            let lu = Lu::factor(std::hint::black_box(a.clone())).expect("nonsingular");
            std::hint::black_box(lu.solve(&b).expect("nonsingular"));
        }
    }) * 1e6
        / REPS as f64
}

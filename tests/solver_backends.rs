//! Backend cross-checks: the dense and sparse linear-solver backends are
//! interchangeable within solver tolerance, and each is individually
//! bitwise-repeatable.
//!
//! The determinism contract is *per backend*: `dense` and `sparse` each
//! reproduce themselves bit for bit at any thread count, but they reach
//! the solution through different eliminations, so across backends only
//! tolerance-level agreement is promised. These tests pin both halves:
//! tolerance agreement on the shipped decks, the MNA-backed sizing
//! benchmarks, and a generated ladder large enough that `auto` picks
//! sparse — and exact repeatability within one backend. On a 400-stage
//! ladder they also hold sparse LU to the speed that justifies it.

use asdex::env::circuits::ldo::Ldo;
use asdex::env::circuits::opamp::TwoStageOpamp;
use asdex::env::{EvalRequest, PvtCorner, SizingProblem};
use asdex::spice::analysis::{
    ac_analysis_with_op_in, solver_report, Engine, OpOptions, SolverChoice, SolverWorkspace,
    Sweep, DENSE_MAX_DIM,
};
use asdex::spice::devices::DiodeModel;
use asdex::spice::parser::parse_netlist;
use asdex::spice::Circuit;
use std::time::Instant;

/// Relative agreement with an absolute floor: MNA unknowns span volts to
/// nano-amp branch currents, so pure relative comparison is too brittle
/// near zero and pure absolute too loose at supply rails.
fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        assert!(
            (x - y).abs() <= tol * scale,
            "{what}[{i}]: dense {x} vs sparse {y} (scaled err {})",
            (x - y).abs() / scale
        );
    }
}

fn op_unknowns(engine: &Engine, choice: SolverChoice) -> Vec<f64> {
    let mut ws = SolverWorkspace::with_choice(choice);
    engine
        .operating_point_with(&OpOptions::default(), None, &mut ws)
        .expect("operating point converges")
        .unknowns()
        .to_vec()
}

/// A resistive ladder with shunt diodes: `stages + 1` nodes plus one
/// source branch, sparse by construction (≤ 4 entries per row) and
/// nonlinear enough that the operating point is a real Newton loop.
fn ladder(stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    ckt.add_diode_model("dladder", DiodeModel::default());
    let top = ckt.node("n0");
    ckt.add_vsource("Vs", top, Circuit::GROUND, 3.0).unwrap();
    let mut prev = top;
    for k in 1..=stages {
        let n = ckt.node(&format!("n{k}"));
        ckt.add_resistor(&format!("Rs{k}"), prev, n, 50.0).unwrap();
        ckt.add_resistor(&format!("Rg{k}"), n, Circuit::GROUND, 2.0e3).unwrap();
        if k % 8 == 0 {
            ckt.add_diode(&format!("D{k}"), n, Circuit::GROUND, "dladder", 1.0).unwrap();
        }
        prev = n;
    }
    ckt
}

/// The shipped decks, and the LDO at its human reference sizing.
#[test]
fn shipped_decks_agree_across_backends() {
    let decks = ["decks/rc_filter.cir", "decks/two_stage_opamp.cir"];
    let mut circuits: Vec<(&str, Circuit, &str)> = decks
        .into_iter()
        .map(|deck| {
            let src = std::fs::read_to_string(deck).expect("deck ships with the repo");
            (deck, parse_netlist(&src).expect("parses"), "out")
        })
        .collect();
    let ldo = Ldo::n6();
    let reference = ldo.netlist(&ldo.human_reference(), &PvtCorner::nominal()).expect("ldo builds");
    circuits.push(("ldo human reference", reference, "vout"));
    for (deck, ckt, out) in &circuits {
        let engine = Engine::compile(ckt).expect("compiles");
        let dense = op_unknowns(&engine, SolverChoice::Dense);
        let sparse = op_unknowns(&engine, SolverChoice::Sparse);
        assert_close(&dense, &sparse, 1e-6, &format!("{deck} op"));

        // The AC path replays the sparse symbolic factorization across
        // every frequency point; it must track the dense sweep too.
        let sweep = Sweep::Decade { fstart: 10.0, fstop: 1e9, points_per_decade: 5 };
        let mut per_backend = Vec::new();
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let mut ws = SolverWorkspace::with_choice(choice);
            let op = engine
                .operating_point_with(&OpOptions::default(), None, &mut ws)
                .expect("op converges");
            let ac = ac_analysis_with_op_in(&engine, op, sweep, &mut ws).expect("ac runs");
            let flat: Vec<f64> = (0..ac.len())
                .flat_map(|k| {
                    let out = ckt.find_node(out).expect("output node");
                    let v = ac.voltage(k, out);
                    [v.re, v.im]
                })
                .collect();
            per_backend.push(flat);
        }
        assert_close(&per_backend[0], &per_backend[1], 1e-6, &format!("{deck} ac"));
    }
}

#[test]
fn large_ladder_agrees_and_auto_selects_sparse() {
    let ckt = ladder(240); // 241 nodes + 1 source branch: dim 242
    let engine = Engine::compile(&ckt).expect("compiles");
    let dense = op_unknowns(&engine, SolverChoice::Dense);
    let sparse = op_unknowns(&engine, SolverChoice::Sparse);
    assert!(dense.len() > 200, "ladder must exceed 200 unknowns, got {}", dense.len());
    assert_close(&dense, &sparse, 1e-6, "ladder op");

    // `auto` resolves by dimension, and the sparse factorization of a
    // chain topology carries orders of magnitude fewer entries than the
    // dense square.
    let report = solver_report(&ckt, SolverChoice::Auto).expect("report builds");
    assert_eq!(report.backend, "sparse", "a {}-dim ladder must resolve sparse", report.dim);
    assert!(
        report.lu_nnz < report.dim * report.dim / 10,
        "fill-in {} of dense {} is not sparse",
        report.lu_nnz,
        report.dim * report.dim
    );

    let small = solver_report(&ladder(4), SolverChoice::Auto).expect("report builds");
    assert!(small.dim <= DENSE_MAX_DIM && small.backend == "dense");
}

/// The case for the sparse backend, on a sizing campaign's steady state:
/// warm workspaces re-running the full Newton operating point of a
/// 400-stage ladder, where each iteration is one assembly, one
/// factorization and one solve. The backends agree, every repeat takes
/// the warm-up's iteration count, and sparse costs at most a fifth of
/// dense per iteration. The backends alternate and each keeps its
/// fastest solve, so load on the host slows both alike.
#[test]
fn sparse_is_5x_faster_per_newton_iteration_on_a_400_stage_ladder() {
    const WARM_SOLVES: usize = 7;
    let engine = Engine::compile(&ladder(400)).expect("compiles");
    let opts = OpOptions::default();
    let backends = [SolverChoice::Dense, SolverChoice::Sparse];
    // The first solve allocates each workspace and, for sparse, computes
    // the symbolic factorization every later solve replays.
    let mut workspaces = backends.map(SolverWorkspace::with_choice);
    let warm: Vec<_> = workspaces
        .iter_mut()
        .map(|ws| engine.operating_point_with(&opts, None, ws).expect("op converges"))
        .collect();
    assert_close(warm[0].unknowns(), warm[1].unknowns(), 1e-6, "ladder400 op");
    let mut fastest_us_per_iter = [f64::INFINITY; 2];
    for _ in 0..WARM_SOLVES {
        for (b, ws) in workspaces.iter_mut().enumerate() {
            let start = Instant::now();
            let op = engine.operating_point_with(&opts, None, ws).expect("op converges");
            let us_per_iter = start.elapsed().as_secs_f64() * 1e6 / op.iterations as f64;
            fastest_us_per_iter[b] = fastest_us_per_iter[b].min(us_per_iter);
            let what = backends[b];
            assert_eq!(op.iterations, warm[b].iterations, "{what:?} repeat changed iterations");
        }
    }
    let [dense, sparse] = fastest_us_per_iter;
    let speedup = dense / sparse;
    println!("ladder400: dense {dense:.1} us/iter, sparse {sparse:.1} us/iter, {speedup:.2}x");
    assert!(speedup >= 5.0, "sparse must be at least 5x dense per Newton iteration: {speedup:.2}x");
}

/// A deterministic spread of multi-corner requests over the unit cube
/// (same generator the thread-invariance suite uses).
fn requests(n_points: usize, n_corners: usize, dim: usize) -> Vec<EvalRequest> {
    (0..n_points)
        .flat_map(|k| {
            let u: Vec<f64> = (0..dim).map(|i| ((k * 7 + i * 3) % 11) as f64 / 10.0).collect();
            EvalRequest::fan_out(&u, n_corners)
        })
        .collect()
}

fn sizing_problems(choice: SolverChoice) -> Vec<SizingProblem> {
    vec![
        TwoStageOpamp::bsim45().problem().expect("opamp builds").with_solver(choice),
        Ldo::n6().problem().expect("ldo builds").with_solver(choice),
    ]
}

#[test]
fn sizing_benchmarks_agree_across_backends() {
    for (dense_p, sparse_p) in
        sizing_problems(SolverChoice::Dense).into_iter().zip(sizing_problems(SolverChoice::Sparse))
    {
        let reqs = requests(3, dense_p.corners.len(), dense_p.dim());
        let dense = dense_p.evaluate_batch(&reqs, usize::MAX);
        let sparse = sparse_p.evaluate_batch(&reqs, usize::MAX);
        assert_eq!(dense.len(), sparse.len());
        for (d, s) in dense.iter().zip(&sparse) {
            assert_eq!(d.x_norm, s.x_norm, "{}: snapped coordinates differ", dense_p.name);
            assert_eq!(d.failure, s.failure, "{}: failure typing differs", dense_p.name);
            match (&d.measurements, &s.measurements) {
                (Some(dm), Some(sm)) => {
                    assert_close(dm, sm, 1e-5, &format!("{} measurements", dense_p.name));
                }
                (None, None) => {}
                _ => panic!("{}: one backend failed where the other converged", dense_p.name),
            }
            assert_close(&[d.value], &[s.value], 1e-5, &format!("{} value", dense_p.name));
            assert_eq!(d.feasible, s.feasible, "{}: feasibility flipped", dense_p.name);
        }
    }
}

#[test]
fn each_backend_is_bitwise_repeatable() {
    for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
        let problem = TwoStageOpamp::bsim45().problem().expect("opamp builds").with_solver(choice);
        let reqs = requests(2, problem.corners.len(), problem.dim());
        let first = problem.evaluate_batch(&reqs, usize::MAX);
        // Warm pool, warm symbolic factorization: the second pass must be
        // indistinguishable from the first.
        let second = problem.evaluate_batch(&reqs, usize::MAX);
        assert_eq!(first, second, "{choice:?} re-evaluation drifted");
        // And a cold problem on the same backend must reproduce it too.
        let cold = TwoStageOpamp::bsim45().problem().expect("opamp builds").with_solver(choice);
        let again = cold.evaluate_batch(&reqs, usize::MAX);
        assert_eq!(first, again, "{choice:?} cold run diverged from warm run");
    }
}

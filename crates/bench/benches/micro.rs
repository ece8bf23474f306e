//! Micro-benchmarks for the computational kernels: the LU solve, one full
//! opamp evaluation (DC + AC + measurements), one approximator training
//! epoch, one Monte-Carlo planning step, and the serial-vs-batch
//! multi-corner evaluation throughput of the batched pipeline. Timed with
//! a plain `Instant`-based harness so the suite runs hermetically (no
//! external benchmarking framework).

use asdex_bench::write_csv;
use asdex_core::{McPlanner, SpiceApproximator};
use asdex_env::circuits::opamp::TwoStageOpamp;
use asdex_env::{EvalRequest, PvtSet, SpecSet, ValueFn};
use asdex_linalg::{Lu, Matrix};
use asdex_rng::rngs::StdRng;
use asdex_rng::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Runs `f` for a few warm-up iterations, then times `iters` calls and
/// prints mean/min per-call wall time.
fn bench_function<F: FnMut()>(name: &str, iters: usize, mut f: F) {
    for _ in 0..iters.div_ceil(10) {
        f();
    }
    let mut best = f64::INFINITY;
    let start = Instant::now();
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let mean = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<32} mean {:>10.3} µs   min {:>10.3} µs   ({iters} iters)", mean * 1e6, best * 1e6);
}

fn bench_lu() {
    let n = 12; // the opamp MNA dimension
    let mut a = Matrix::<f64>::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = ((i * 5 + j * 3) % 7) as f64 * 0.1;
        }
        a[(i, i)] += 10.0;
    }
    let b = vec![1.0; n];
    bench_function("lu_factor_solve_12x12", 2000, || {
        let lu = Lu::factor(black_box(a.clone())).expect("nonsingular");
        black_box(lu.solve(&b).expect("solves"));
    });
}

fn bench_opamp_eval() {
    let problem = TwoStageOpamp::bsim45().problem().expect("problem builds");
    // A distinct grid point per call (0.012 in u exceeds one grid step on
    // every axis). The evaluator keeps no memo, so every call is a full
    // solve either way; the points only keep the bench's inputs varied.
    let points: Vec<Vec<f64>> = (0..64)
        .map(|k| vec![0.2 + 0.012 * k as f64; problem.dim()])
        .collect();
    let mut i = 0usize;
    bench_function("opamp_evaluate_full", 50, || {
        black_box(problem.evaluate_normalized(black_box(&points[i % points.len()]), 0));
        i += 1;
    });
}

fn bench_approximator_epoch() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut model = SpiceApproximator::new(7, 5, 48, 0.003, &mut rng);
    for k in 0..40 {
        let x: Vec<f64> = (0..7).map(|i| ((k * 7 + i) % 10) as f64 / 10.0).collect();
        let y: Vec<f64> = (0..5).map(|i| (k + i) as f64).collect();
        model.push(x, y);
    }
    bench_function("approximator_fit_epoch_40pts", 100, || {
        black_box(model.fit(1));
    });
}

fn bench_planner() {
    let problem = TwoStageOpamp::bsim45().problem().expect("problem builds");
    let mut rng = StdRng::seed_from_u64(0);
    let mut model = SpiceApproximator::new(7, 5, 48, 0.003, &mut rng);
    for k in 0..30 {
        let x = problem.space.sample(&mut rng);
        let y: Vec<f64> = (0..5).map(|i| (k + i) as f64).collect();
        model.push(x, y);
    }
    model.fit(5);
    let planner = McPlanner::new(200);
    let center = vec![0.5; 7];
    let specs: &SpecSet = &problem.specs;
    let value_fn = ValueFn::default();
    bench_function("mc_planner_200_samples", 50, || {
        black_box(planner.propose(
            &problem.space,
            &center,
            0.15,
            &model,
            &value_fn,
            specs,
            &mut rng,
        ));
    });
}

/// Serial-vs-batch multi-corner evaluation throughput.
///
/// The workload models the sign-off loop of an iterating search: every
/// round re-verifies the same eight incumbent candidates at all five
/// sign-off corners and scores two fresh proposals first seen that round.
/// The serial arm reproduces the pre-batch pipeline — one request at a
/// time through a fresh evaluator, so every call pays `Engine::compile`,
/// solver-matrix and sweep-grid allocation, and a full solve, exactly as
/// `evaluate_with_effort` did before the batched pipeline existed (it
/// kept no state between calls). The batch arm scores the same rounds
/// through `evaluate_batch` on one long-lived problem at 4 worker
/// threads, where every request still compiles its circuit but solves
/// in a pooled, reused workspace. Neither arm has a memo, so every
/// request in both arms, the repeated incumbents included, pays a full
/// solve; the ratio measures workspace pooling and threads. Both arms
/// must produce identical evaluations round for round; the speedup is
/// recorded to `bench_results/parallel_throughput.csv`.
fn bench_parallel_throughput() {
    let amp = TwoStageOpamp::bsim45();
    let template =
        amp.problem_with(amp.specs(), PvtSet::signoff5()).expect("problem builds");
    let n_corners = template.corners.len();
    let dim = template.dim();
    let rounds = 4usize;
    // Incumbents sit on distinct grid points (0.03 in u spans several
    // steps of every axis); fresh proposals live in a disjoint band,
    // spaced 0.0111 so consecutive rounds cannot snap to the same point.
    let round_requests = |round: usize| -> Vec<EvalRequest> {
        let mut requests: Vec<EvalRequest> = (0..8)
            .flat_map(|k| EvalRequest::fan_out(&vec![0.35 + 0.03 * k as f64; dim], n_corners))
            .collect();
        for k in 0..2 {
            let u = vec![0.60 + 0.0111 * (2 * round + k) as f64; dim];
            requests.extend(EvalRequest::fan_out(&u, n_corners));
        }
        requests
    };

    // Serial / cold: fresh evaluator per call → compile + allocate + solve
    // every time, repeats included.
    let t0 = Instant::now();
    let mut serial_evals = Vec::new();
    for round in 0..rounds {
        let mut round_evals = Vec::new();
        for r in round_requests(round) {
            let mut cold = template.clone();
            cold.evaluator = amp.problem().expect("problem builds").evaluator;
            round_evals.push(cold.evaluate_with_budget(&r.u, r.corner_idx, usize::MAX));
        }
        serial_evals.push(round_evals);
    }
    let serial_s = t0.elapsed().as_secs_f64() / rounds as f64;

    // Batch / pooled: one long-lived problem, 4 worker threads. Warm up on
    // the incumbent set only — the steady state of a search mid-run, with
    // the workspace pool filled.
    let batched = template.clone().with_threads(4);
    let incumbents: Vec<EvalRequest> =
        round_requests(0)[..8 * n_corners].to_vec();
    black_box(batched.evaluate_batch(&incumbents, usize::MAX));
    let t0 = Instant::now();
    let mut batch_evals = Vec::new();
    for round in 0..rounds {
        batch_evals.push(batched.evaluate_batch(&round_requests(round), usize::MAX));
    }
    let batch_s = t0.elapsed().as_secs_f64() / rounds as f64;
    assert_eq!(batch_evals, serial_evals, "batch must be observably equivalent to serial");

    let n = round_requests(0).len() as f64;
    let speedup = serial_s / batch_s;
    println!(
        "parallel_throughput              serial {:>8.3} ms/round   batch(4thr) {:>8.3} ms/round   speedup {speedup:.2}x ({n} evals/round)",
        serial_s * 1e3,
        batch_s * 1e3,
    );
    write_csv(
        "parallel_throughput",
        &["config", "evals_per_round", "rounds", "s_per_round", "evals_per_s", "speedup_vs_serial"],
        &[
            vec![
                "serial_cold".into(),
                format!("{n}"),
                rounds.to_string(),
                format!("{serial_s:.6}"),
                format!("{:.1}", n / serial_s),
                "1.00".into(),
            ],
            vec![
                "batch_4threads_pooled".into(),
                format!("{n}"),
                rounds.to_string(),
                format!("{batch_s:.6}"),
                format!("{:.1}", n / batch_s),
                format!("{speedup:.2}"),
            ],
        ],
    );
}

fn main() {
    bench_lu();
    bench_opamp_eval();
    bench_approximator_epoch();
    bench_planner();
    bench_parallel_throughput();
}

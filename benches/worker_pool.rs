//! Measures the cost of process isolation: one sign-off evaluation round
//! (a trust-region step's worth of points fanned out over the five
//! sign-off corners of the 45 nm opamp) dispatched in-process — serial
//! and on 4 threads — versus through pools of 1/2/4 worker *processes*.
//!
//! Every configuration must produce bitwise-identical evaluations (the
//! worker pool is a dispatcher, not a different simulator); the CSV
//! quantifies what the pipe round-trip and the per-worker workspace
//! pools cost relative to shared-memory threads. No configuration has a memo,
//! so every request is a full solve. Results land in
//! `bench_results/worker_pool.csv`.
//!
//! Run with `cargo bench --bench worker_pool`.

use asdex::env::{EvalRequest, Evaluation, SizingProblem};
use asdex::serve::{build_problem, WorkerPool, WorkerPoolConfig, WorkerStats};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const BENCH: &str = "opamp45";
const CORNERS: &str = "signoff5";
const ROUNDS: usize = 4;

fn problem() -> SizingProblem {
    build_problem(BENCH, CORNERS).expect("benchmark builds")
}

/// One sign-off round: 8 incumbents plus 2 fresh proposals, every point
/// at every corner; the proposals are distinct grid points per round.
fn round_requests(template: &SizingProblem, round: usize) -> Vec<EvalRequest> {
    let n_corners = template.corners.len();
    let dim = template.dim();
    let mut requests: Vec<EvalRequest> = (0..8)
        .flat_map(|k| EvalRequest::fan_out(&vec![0.35 + 0.03 * k as f64; dim], n_corners))
        .collect();
    for k in 0..2 {
        let u = vec![0.60 + 0.0111 * (2 * round + k) as f64; dim];
        requests.extend(EvalRequest::fan_out(&u, n_corners));
    }
    requests
}

/// Times `ROUNDS` sign-off rounds on `problem` after warming up on the
/// incumbent set (the steady state of a search mid-run, with every
/// workspace pool filled).
fn run_rounds(problem: &SizingProblem) -> (f64, Vec<Vec<Evaluation>>) {
    let incumbents = round_requests(problem, 0)[..8 * problem.corners.len()].to_vec();
    let _ = problem.evaluate_batch(&incumbents, usize::MAX);
    let t0 = Instant::now();
    let mut evals = Vec::new();
    for round in 0..ROUNDS {
        evals.push(problem.evaluate_batch(&round_requests(problem, round), usize::MAX));
    }
    (t0.elapsed().as_secs_f64() / ROUNDS as f64, evals)
}

fn main() {
    let evals_per_round = round_requests(&problem(), 0).len();
    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut reference: Option<Vec<Vec<Evaluation>>> = None;

    for threads in [0usize, 4] {
        let p = problem().with_threads(threads);
        let (s_per_round, evals) = run_rounds(&p);
        match &reference {
            None => reference = Some(evals),
            Some(r) => assert_eq!(&evals, r, "threaded run diverged"),
        }
        let label =
            if threads == 0 { "in_process_serial".to_string() } else { format!("in_process_{threads}threads") };
        rows.push((label, s_per_round));
    }

    for workers in [1usize, 2, 4] {
        let p = problem();
        let cfg = WorkerPoolConfig::new(
            PathBuf::from(env!("CARGO_BIN_EXE_asdex")),
            BENCH,
            CORNERS,
            workers,
        );
        let pool = WorkerPool::for_problem(cfg, &p, Arc::new(WorkerStats::new()));
        let p = p.with_dispatcher(pool.clone());
        let (s_per_round, evals) = run_rounds(&p);
        pool.shutdown();
        assert_eq!(
            Some(&evals),
            reference.as_ref(),
            "worker-pool run diverged from in-process"
        );
        rows.push((format!("worker_procs_{workers}"), s_per_round));
    }

    let serial_s = rows[0].1;
    let path = PathBuf::from("bench_results/worker_pool.csv");
    std::fs::create_dir_all(path.parent().unwrap()).expect("bench_results dir");
    let mut file = std::fs::File::create(&path).expect("csv creates");
    writeln!(file, "config,evals_per_round,rounds,s_per_round,evals_per_s,speedup_vs_serial")
        .unwrap();
    for (label, s_per_round) in &rows {
        println!(
            "{label:<24} {:>9.3} ms/round   {:>9.1} evals/s   {:>5.2}x vs serial",
            s_per_round * 1e3,
            evals_per_round as f64 / s_per_round,
            serial_s / s_per_round,
        );
        writeln!(
            file,
            "{label},{evals_per_round},{ROUNDS},{:.6},{:.1},{:.2}",
            s_per_round,
            evals_per_round as f64 / s_per_round,
            serial_s / s_per_round,
        )
        .unwrap();
    }
    println!("wrote {}", path.display());
}

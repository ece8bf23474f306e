//! Thread-count invariance: the batched evaluation pipeline must be
//! observably equivalent to serial evaluation.
//!
//! `SizingProblem::evaluate_batch` may fan requests out over a worker
//! pool, but the contract is that the thread count changes wall-clock
//! only: at 1, 4, and 8 threads every agent must return bitwise-identical
//! `Evaluation`s, `EvalStats`, and `SearchOutcome`s — on clean problems,
//! on the MNA-backed opamp, under injected faults, and under budgets too
//! tight to admit every request.

use asdex::baselines::rl::{A2c, Ppo, Trpo};
use asdex::baselines::{CustomizedBo, RandomSearch};
use asdex::core::LocalExplorer;
use asdex::env::circuits::opamp::TwoStageOpamp;
use asdex::env::circuits::synthetic::Bowl;
use asdex::env::{
    EvalRequest, EvalStats, FaultConfig, FaultInjectingEvaluator, SearchBudget, Searcher,
    SizingProblem,
};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

/// A 3-D bowl problem, optionally wrapped in deterministic fault
/// injection, running its batches on `threads` workers.
fn bowl(threads: usize, fault_rate: f64, fault_seed: u64) -> SizingProblem {
    let mut p = Bowl::problem(3, 0.2).expect("bowl builds");
    if fault_rate > 0.0 {
        p.evaluator = Arc::new(FaultInjectingEvaluator::new(
            p.evaluator.clone(),
            FaultConfig::new(fault_rate, fault_seed),
        ));
    }
    p.with_threads(threads)
}

fn agents() -> Vec<Box<dyn Searcher>> {
    vec![
        Box::new(LocalExplorer::default()),
        Box::new(RandomSearch::new()),
        Box::new(CustomizedBo::new()),
        Box::new(A2c::new()),
        Box::new(Ppo::new()),
        Box::new(Trpo::new()),
    ]
}

/// A deterministic spread of multi-corner requests over the unit cube.
fn requests(n_points: usize, n_corners: usize, dim: usize) -> Vec<EvalRequest> {
    (0..n_points)
        .flat_map(|k| {
            let u: Vec<f64> = (0..dim).map(|i| ((k * 7 + i * 3) % 11) as f64 / 10.0).collect();
            EvalRequest::fan_out(&u, n_corners)
        })
        .collect()
}

/// Evaluates `requests` at every thread count and asserts identical
/// evaluations and identical merged telemetry; returns the serial result.
fn assert_thread_invariant(
    make_problem: impl Fn(usize) -> SizingProblem,
    requests: &[EvalRequest],
    remaining: usize,
) {
    let mut reference = None;
    for threads in THREAD_COUNTS {
        let problem = make_problem(threads);
        let evals = problem.evaluate_batch(requests, remaining);
        let mut stats = EvalStats::new();
        for e in &evals {
            stats.record(e);
        }
        match &reference {
            None => reference = Some((evals, stats)),
            Some((ref_evals, ref_stats)) => {
                assert_eq!(&evals, ref_evals, "evaluations diverged at {threads} threads");
                assert_eq!(&stats, ref_stats, "telemetry diverged at {threads} threads");
            }
        }
    }
}

#[test]
fn batch_results_identical_across_thread_counts() {
    let dim = 3;
    let reqs = requests(12, 1, dim);
    assert_thread_invariant(|t| bowl(t, 0.0, 0), &reqs, usize::MAX);
}

#[test]
fn batch_results_identical_under_faults() {
    let dim = 3;
    let reqs = requests(12, 1, dim);
    for rate in [0.1, 0.4] {
        assert_thread_invariant(|t| bowl(t, rate, 17), &reqs, usize::MAX);
    }
}

#[test]
fn batch_results_identical_under_tight_budget() {
    let dim = 3;
    let reqs = requests(12, 1, dim);
    // Budgets below the full reservation truncate the admitted prefix;
    // the truncation point must not depend on the thread count.
    for remaining in [1, 5, 13] {
        assert_thread_invariant(|t| bowl(t, 0.3, 9), &reqs, remaining);
    }
}

#[test]
fn batch_results_identical_under_worker_panics() {
    // Injected panics exercise the isolation boundary and the quarantine
    // set; neither may leak scheduling into the results. Quarantine
    // updates happen in the ordered finalize pass, so which worker hits a
    // panicking point first cannot change what later requests observe.
    let dim = 3;
    let reqs = requests(12, 1, dim);
    let panicky = |threads: usize, rate: f64| {
        let mut p = Bowl::problem(dim, 0.2).expect("bowl builds");
        p.evaluator = Arc::new(FaultInjectingEvaluator::new(
            p.evaluator.clone(),
            FaultConfig::only(asdex::env::FaultMode::Panic, rate, 29),
        ));
        p.with_threads(threads)
    };
    for rate in [0.2, 1.0] {
        assert_thread_invariant(|t| panicky(t, rate), &reqs, usize::MAX);
    }
    // Agent-level: a whole campaign over the panicking problem must be
    // thread-count invariant too.
    let budget = SearchBudget::new(300);
    let mut agent = RandomSearch::new();
    let reference = agent.search(&panicky(1, 0.2), budget, 1);
    for threads in [2, 8] {
        let out = agent.search(&panicky(threads, 0.2), budget, 1);
        assert_eq!(out, reference, "random search diverged at {threads} threads under panics");
    }
}

#[test]
fn opamp_batch_identical_across_thread_counts() {
    // The MNA-backed path: pooled, reused workspaces must be invisible
    // in the results.
    let amp = TwoStageOpamp::bsim45();
    let template = amp.problem().expect("problem builds");
    let reqs = requests(3, template.corners.len(), template.dim());
    assert_thread_invariant(
        |t| {
            let amp = TwoStageOpamp::bsim45();
            amp.problem().expect("problem builds").with_threads(t)
        },
        &reqs,
        usize::MAX,
    );
    // Re-evaluating through one long-lived problem (warm workspace pool)
    // must also reproduce a cold problem's evaluations exactly.
    let warm = template.with_threads(2);
    let first = warm.evaluate_batch(&reqs, usize::MAX);
    let second = warm.evaluate_batch(&reqs, usize::MAX);
    assert_eq!(first, second, "warm re-evaluation must be bitwise stable");
}

#[test]
fn each_solver_backend_identical_across_thread_counts() {
    // The determinism contract is per backend: dense and sparse each
    // reproduce themselves bitwise at 1, 4, and 8 threads. The sparse
    // leg is the interesting one — pooled workspaces re-derive the
    // symbolic factorization from topology alone, and the rare
    // ill-conditioned pivot falls back to a dense solve that is a pure
    // function of the assembled values, so no thread ever observes a
    // factorization another thread warmed up.
    use asdex::spice::analysis::SolverChoice;
    let template = TwoStageOpamp::bsim45().problem().expect("problem builds");
    let reqs = requests(3, template.corners.len(), template.dim());
    for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
        assert_thread_invariant(
            |t| {
                let amp = TwoStageOpamp::bsim45();
                amp.problem().expect("problem builds").with_solver(choice).with_threads(t)
            },
            &reqs,
            usize::MAX,
        );
    }
}

#[test]
fn all_agents_identical_across_thread_counts() {
    let budget = SearchBudget::new(300);
    for (rate, seed) in [(0.0, 0), (0.3, 7)] {
        for mut agent in agents() {
            let reference = agent.search(&bowl(1, rate, seed), budget, 1);
            for threads in [2, 8] {
                let out = agent.search(&bowl(threads, rate, seed), budget, 1);
                assert_eq!(
                    out,
                    reference,
                    "{} diverged at {threads} threads (fault rate {rate})",
                    agent.name()
                );
            }
        }
    }
}

#[test]
fn env_var_thread_default_does_not_change_results() {
    // `threads == 0` defers to ASDEX_THREADS at evaluation time; whatever
    // the environment says, results must match the explicit serial path.
    let reqs = requests(8, 1, 3);
    let serial = bowl(1, 0.2, 3).evaluate_batch(&reqs, usize::MAX);
    let deferred = bowl(0, 0.2, 3).evaluate_batch(&reqs, usize::MAX);
    assert_eq!(serial, deferred);
}

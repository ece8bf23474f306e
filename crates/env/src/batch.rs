//! Batched evaluation: many (point × corner) requests through one call.
//!
//! The paper's cost model counts SPICE invocations, but wall-clock in a
//! production sizing flow is dominated by *running* them — real
//! deployments fan simulations out across workers. This module is the
//! single chokepoint every ASDEX agent routes through:
//! [`SizingProblem::evaluate_batch`] takes a slice of [`EvalRequest`]s and
//! returns their [`Evaluation`]s in request order, executed by a
//! dependency-free scoped-thread worker pool.
//!
//! Three invariants carry over from the serial path *exactly*:
//!
//! 1. **Deterministic ordering** — `results[i]` is the evaluation of
//!    `requests[i]`, and every entry is a pure function of
//!    `(problem, request, admitted budget)`. Running at 1, 2, or 8
//!    threads returns bitwise-identical results.
//! 2. **Budget-exact accounting** — admission charges the retry ladder's
//!    worst case against `remaining` *up front*: request `i` is admitted
//!    with an attempt cap only when the caps already handed out leave
//!    room. The summed [`Evaluation::sim_cost`] of the returned prefix can
//!    therefore never exceed `remaining`, so `sims <= max_sims` holds for
//!    every caller without post-hoc clamping.
//! 3. **Typed telemetry** — results are plain [`Evaluation`]s; callers
//!    fold them into [`crate::EvalStats`] in request order and obtain the
//!    same merged record at every thread count.
//!
//! Worker count comes from [`SizingProblem::resolved_threads`]: a live
//! fair share or the explicit [`SizingProblem::threads`], floored at an
//! attached worker pool's size, else the `ASDEX_THREADS` environment
//! variable, else 1 — serial by default, so unit tests and
//! single-evaluation callers never pay thread-spawn overhead.

use crate::problem::{Evaluation, SizingProblem};
use crate::stats::FailureKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One evaluation request: a normalized design point at a corner index.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Normalized (grid) coordinates of the design point.
    pub u: Vec<f64>,
    /// Index into the problem's [`crate::PvtSet`].
    pub corner_idx: usize,
}

impl EvalRequest {
    /// A request for `u` at corner `corner_idx`.
    pub fn new(u: Vec<f64>, corner_idx: usize) -> Self {
        EvalRequest { u, corner_idx }
    }

    /// Requests for one point at every corner index in `0..n_corners`.
    pub fn fan_out(u: &[f64], n_corners: usize) -> Vec<EvalRequest> {
        (0..n_corners).map(|c| EvalRequest::new(u.to_vec(), c)).collect()
    }
}

/// Resolves the worker count: an explicit setting wins, else the
/// `ASDEX_THREADS` environment variable, else 1 (serial).
pub(crate) fn resolve_threads(explicit: usize) -> usize {
    if explicit > 0 {
        return explicit;
    }
    std::env::var("ASDEX_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

impl SizingProblem {
    /// The worker count this batch call will use. The requested count is
    /// the dynamic fair-share source (if attached and non-zero), else the
    /// explicit [`SizingProblem::threads`] setting. A nonzero request is
    /// floored at the attached dispatcher's parallelism hint: a
    /// worker-process pool wants one feeder thread per worker, and a
    /// request of 1 would keep one attempt in flight and leave every other
    /// worker idle. With no request the hint is used as is, and with
    /// neither, `ASDEX_THREADS`, then 1.
    pub fn resolved_threads(&self) -> usize {
        let shared = self
            .thread_share
            .as_ref()
            .map(|s| s.load(std::sync::atomic::Ordering::SeqCst))
            .unwrap_or(0);
        let requested = if shared > 0 { shared } else { self.threads };
        let hinted = self.dispatcher.as_ref().map(|d| d.parallelism()).unwrap_or(0);
        match requested.max(hinted) {
            0 => resolve_threads(0),
            n => n,
        }
    }
}

impl SizingProblem {
    /// Evaluates a batch of requests with at most `remaining` simulator
    /// attempts available across the whole batch.
    ///
    /// Requests are admitted in order, each reserving up to
    /// `retry.max_attempts()` attempts (less when the remaining budget is
    /// smaller); once the budget is fully reserved the rest of the batch
    /// is *not* evaluated, so the returned vector can be shorter than
    /// `requests` — callers detect budget truncation with
    /// `results.len() < requests.len()`. The returned evaluations are in
    /// request order and identical at every thread count;
    /// [`SizingProblem::evaluate_with_budget`] is the one-request case.
    pub fn evaluate_batch(&self, requests: &[EvalRequest], remaining: usize) -> Vec<Evaluation> {
        // Admission: reserve worst-case attempt caps in request order.
        let max_attempts = self.retry.max_attempts();
        let mut caps = Vec::with_capacity(requests.len());
        let mut reserved = 0usize;
        for _ in requests {
            if reserved >= remaining {
                break;
            }
            let cap = max_attempts.min(remaining - reserved);
            caps.push(cap);
            reserved += cap;
        }
        let n = caps.len();
        // Drain hook: once the campaign's cancel token is pulled, no
        // further simulator calls are issued. Every admitted request comes
        // back as a typed `Cancelled` failure charging its reserved cap —
        // agents wind down through their normal budget accounting — and
        // nothing is journaled, so a resumed campaign re-runs these
        // requests live and reaches the uninterrupted outcome.
        if self.is_cancelled() {
            return requests[..n]
                .iter()
                .zip(&caps)
                .map(|(r, &cap)| self.cancelled_eval(&r.u, cap))
                .collect();
        }
        // Replay pre-pass, in request order and single-threaded: a journal
        // can hold several recorded outcomes under one (point, corner,
        // cap) key (e.g. a live failure followed by a quarantine
        // short-circuit), and popping them from concurrent workers would
        // make the pairing schedule-dependent.
        let mut seeded: Vec<Option<(Evaluation, bool)>> = Vec::with_capacity(n);
        for (r, &cap) in requests[..n].iter().zip(&caps) {
            seeded.push(self.take_replayed(&r.u, r.corner_idx, cap).map(|e| (e, true)));
        }
        let threads = self.resolved_threads().min(n);
        if threads <= 1 {
            return seeded
                .into_iter()
                .enumerate()
                .map(|(i, found)| {
                    let (e, replayed) = found.unwrap_or_else(|| {
                        (
                            self.evaluate_shared(&requests[i].u, requests[i].corner_idx, caps[i]),
                            false,
                        )
                    });
                    self.finalize_evaluation(&requests[i].u, requests[i].corner_idx, caps[i], e, replayed)
                })
                .collect();
        }
        // Scoped worker pool: an atomic cursor deals requests to workers;
        // each result lands in its request's slot, so the output order is
        // independent of scheduling. Workers only run the replay *misses*
        // (quarantine check + live evaluation); journal recording and
        // quarantine updates happen afterwards in the ordered finalize
        // pass, which keeps results bitwise identical to the serial path.
        let slots: Vec<Mutex<Option<(Evaluation, bool)>>> =
            seeded.into_iter().map(Mutex::new).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if slots[i].lock().map(|s| s.is_some()).unwrap_or(true) {
                        continue; // served from the journal
                    }
                    let e =
                        self.evaluate_shared(&requests[i].u, requests[i].corner_idx, caps[i]);
                    if let Ok(mut slot) = slots[i].lock() {
                        *slot = Some((e, false));
                    }
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let (e, replayed) = match slot.into_inner() {
                    Ok(Some(pair)) => pair,
                    // Unreachable in practice (worker panics are caught at
                    // the isolation boundary); typed worst-case keeps the
                    // no-panic and budget invariants even if a lock was
                    // poisoned.
                    _ => (self.failed_eval(requests[i].u.clone(), FailureKind::Other, caps[i]), false),
                };
                self.finalize_evaluation(&requests[i].u, requests[i].corner_idx, caps[i], e, replayed)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultInjectingEvaluator};
    use crate::problem::tests::{toy_problem, ToyEvaluator};
    use crate::stats::EvalStats;
    use std::sync::Arc;

    fn faulty_problem(rate: f64, seed: u64) -> SizingProblem {
        let mut p = toy_problem();
        p.evaluator = Arc::new(FaultInjectingEvaluator::new(
            Arc::new(ToyEvaluator::new()),
            FaultConfig::new(rate, seed),
        ));
        p
    }

    fn grid_requests(n: usize) -> Vec<EvalRequest> {
        (0..n)
            .map(|k| {
                let t = k as f64 / n as f64;
                EvalRequest::new(vec![t, 1.0 - t], 0)
            })
            .collect()
    }

    #[test]
    fn single_request_batch_equals_serial() {
        let p = faulty_problem(0.3, 7);
        for remaining in [1usize, 2, 3, 100] {
            let serial = p.evaluate_with_budget(&[0.8, 0.8], 0, remaining);
            let batch = p.evaluate_batch(&[EvalRequest::new(vec![0.8, 0.8], 0)], remaining);
            assert_eq!(batch, vec![serial], "remaining = {remaining}");
        }
    }

    #[test]
    fn results_identical_at_every_thread_count() {
        let reqs = grid_requests(40);
        let mut reference: Option<(Vec<Evaluation>, EvalStats)> = None;
        for threads in [1usize, 2, 8] {
            let mut p = faulty_problem(0.4, 11);
            p.threads = threads;
            let evals = p.evaluate_batch(&reqs, 1000);
            let mut stats = EvalStats::new();
            for e in &evals {
                stats.record(e);
            }
            match &reference {
                None => reference = Some((evals, stats)),
                Some((ref_evals, ref_stats)) => {
                    assert_eq!(&evals, ref_evals, "evaluations differ at {threads} threads");
                    assert_eq!(&stats, ref_stats, "stats differ at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn admission_never_overshoots_budget() {
        for remaining in [0usize, 1, 2, 5, 7, 100] {
            let mut p = faulty_problem(0.8, 3);
            p.threads = 4;
            let reqs = grid_requests(10);
            let evals = p.evaluate_batch(&reqs, remaining);
            let spent: usize = evals.iter().map(|e| e.sim_cost).sum();
            assert!(spent <= remaining, "spent {spent} > remaining {remaining}");
            if evals.len() < reqs.len() {
                // Truncated: the budget must be the reason.
                let max_attempts = p.retry.max_attempts();
                assert!(remaining < reqs.len() * max_attempts);
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let p = toy_problem();
        assert!(p.evaluate_batch(&[], 100).is_empty());
        assert!(p.evaluate_batch(&grid_requests(3), 0).is_empty());
    }

    #[test]
    fn fan_out_covers_every_corner() {
        let reqs = EvalRequest::fan_out(&[0.5, 0.5], 3);
        assert_eq!(reqs.len(), 3);
        assert!(reqs.iter().enumerate().all(|(i, r)| r.corner_idx == i && r.u == vec![0.5, 0.5]));
    }

    #[test]
    fn cancelled_batch_charges_budget_without_simulating() {
        use crate::cancel::CancelToken;
        let token = CancelToken::new();
        let p = toy_problem().with_cancel_token(token.clone());
        // Before cancellation the batch runs normally.
        let live = p.evaluate_batch(&grid_requests(4), 100);
        assert!(live.iter().all(|e| e.failure.is_none()));
        token.cancel();
        let drained = p.evaluate_batch(&grid_requests(4), 100);
        assert_eq!(drained.len(), 4);
        for e in &drained {
            assert_eq!(e.failure, Some(crate::stats::FailureKind::Cancelled));
            assert_eq!(e.sim_cost, p.retry.max_attempts(), "charges the reserved cap");
            assert!(e.measurements.is_none());
        }
        // Admission still bounds the total charge.
        let tight = p.evaluate_batch(&grid_requests(10), 5);
        let spent: usize = tight.iter().map(|e| e.sim_cost).sum();
        assert!(spent <= 5, "cancelled charges stay budget-exact");
    }

    #[test]
    fn cancelled_evaluations_never_reach_the_journal() {
        use crate::cancel::CancelToken;
        use crate::journal::{Journal, JournalMeta};
        let path = std::env::temp_dir()
            .join(format!("asdex-batch-cancel-{}.journal", std::process::id()));
        let journal = Journal::create(&path, JournalMeta::new().with("t", "c"), 1).unwrap();
        let token = CancelToken::new();
        let p = toy_problem().with_journal(journal).with_cancel_token(token.clone());
        p.evaluate_batch(&grid_requests(3), 100);
        token.cancel();
        p.evaluate_batch(&grid_requests(5), 100);
        let handle = p.journal_handle().unwrap();
        let recorded = handle.lock().unwrap().recorded();
        assert_eq!(recorded, 3, "only the live evaluations were journaled");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamic_thread_share_wins_over_static_setting() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let share = Arc::new(AtomicUsize::new(0));
        let p = toy_problem().with_threads(3).with_thread_share(share.clone());
        assert_eq!(p.resolved_threads(), 3, "share of 0 falls back to static");
        share.store(7, Ordering::SeqCst);
        assert_eq!(p.resolved_threads(), 7, "live share wins");
        // Rebalancing mid-campaign never changes results.
        let reqs = grid_requests(16);
        let at_share = p.evaluate_batch(&reqs, 1000);
        share.store(1, Ordering::SeqCst);
        let serial = p.evaluate_batch(&reqs, 1000);
        assert_eq!(at_share, serial);
    }

    #[test]
    fn a_thread_share_is_floored_at_the_dispatchers_parallelism() {
        use crate::dispatch::EvalDispatcher;
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// A three-worker backend; only its parallelism hint is read.
        struct ThreeWorkers;
        impl EvalDispatcher for ThreeWorkers {
            fn dispatch(&self, _: &[f64], _: usize, _: usize) -> Result<Vec<f64>, FailureKind> {
                Err(FailureKind::Other)
            }
            fn parallelism(&self) -> usize {
                3
            }
        }
        let share = Arc::new(AtomicUsize::new(1));
        let in_process = toy_problem().with_thread_share(share.clone());
        assert_eq!(in_process.resolved_threads(), 1, "in-process evaluation keeps its share");
        let pooled = in_process.with_dispatcher(Arc::new(ThreeWorkers));
        assert_eq!(pooled.resolved_threads(), 3, "one feeder thread per worker");
        share.store(5, Ordering::SeqCst);
        assert_eq!(pooled.resolved_threads(), 5, "a larger share still wins");
        let fixed = toy_problem().with_threads(1).with_dispatcher(Arc::new(ThreeWorkers));
        assert_eq!(fixed.resolved_threads(), 3, "a static count is floored the same way");
    }

    #[test]
    fn shared_store_is_invisible_in_results() {
        let reqs = grid_requests(12);
        let reference = toy_problem().evaluate_batch(&reqs, 1000);
        let store = crate::evalstore::EvalStore::shared();
        for threads in [1usize, 4] {
            let p = toy_problem().with_eval_store(store.clone()).with_threads(threads);
            assert_eq!(p.evaluate_batch(&reqs, 1000), reference, "threads = {threads}");
        }
        let s = store.stats();
        assert_eq!(s.misses, 12, "the first problem computed every key");
        assert_eq!(s.hits, 12, "the second problem reused every key");
    }

    #[test]
    fn concurrent_identical_campaigns_simulate_each_point_once() {
        use crate::corner::PvtCorner;
        use crate::problem::Evaluator;
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct Counting {
            names: Vec<String>,
            calls: Arc<AtomicUsize>,
        }
        impl Evaluator for Counting {
            fn measurement_names(&self) -> &[String] {
                &self.names
            }
            fn evaluate(
                &self,
                x: &[f64],
                corner: &PvtCorner,
            ) -> Result<Vec<f64>, crate::EnvError> {
                self.calls.fetch_add(1, Ordering::Relaxed);
                let derate = corner.vdd_scale;
                Ok(vec![(x[0] + x[1]) * derate, x[0] * x[1] * derate])
            }
        }

        let calls = Arc::new(AtomicUsize::new(0));
        let store = crate::evalstore::EvalStore::shared();
        let reqs = grid_requests(20);
        let make = || {
            let mut p = toy_problem();
            p.evaluator = Arc::new(Counting {
                names: vec!["sum".into(), "prod".into()],
                calls: calls.clone(),
            });
            p.with_eval_store(store.clone())
        };
        let solo = toy_problem().evaluate_batch(&reqs, 1000);
        let (a, b) = std::thread::scope(|s| {
            let ta = s.spawn(|| make().evaluate_batch(&reqs, 1000));
            let tb = s.spawn(|| make().evaluate_batch(&reqs, 1000));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(a, solo, "dedup never changes campaign A's results");
        assert_eq!(b, solo, "dedup never changes campaign B's results");
        assert_eq!(calls.load(Ordering::Relaxed), 20, "each point simulated exactly once");
        let s = store.stats();
        assert_eq!(s.hits, 20, "the duplicate campaign's evals were all store hits");
        assert_eq!(s.misses, 20);
    }

    #[test]
    fn env_var_resolution_prefers_explicit() {
        assert_eq!(resolve_threads(3), 3);
        // No ASDEX_THREADS in the test environment → serial default.
        if std::env::var("ASDEX_THREADS").is_err() {
            assert_eq!(resolve_threads(0), 1);
        }
    }
}

//! The sizing problem: design space + evaluator + specs + corners.
//!
//! This is the paper's standardized API surface (§IV-F): a designer
//! supplies the tunable parameters and ranges, the measurements observed
//! from simulation, and the specs per corner; every search agent consumes
//! the same [`SizingProblem`].

use crate::batch::EvalRequest;
use crate::cancel::CancelToken;
use crate::corner::{PvtCorner, PvtSet};
use crate::dispatch::EvalDispatcher;
use crate::error::EnvError;
use crate::evalstore::{EvalStore, Join};
use crate::journal::Journal;
use crate::robust::{EvalEffort, RetryPolicy};
use crate::space::DesignSpace;
use crate::spec::SpecSet;
use crate::stats::FailureKind;
use crate::value::ValueFn;
use std::collections::HashSet;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};

/// Identity of one (point, corner) job for quarantine bookkeeping: the
/// requested coordinates' IEEE-754 bits plus the corner index.
pub(crate) type JobKey = (Vec<u64>, usize);

pub(crate) fn job_key(u: &[f64], corner_idx: usize) -> JobKey {
    (u.iter().map(|v| v.to_bits()).collect(), corner_idx)
}

/// Identity of one evaluation: the requested coordinates' IEEE-754 bits,
/// the corner index, and the admitted attempt cap (the cap bounds the
/// retry ladder and so changes the outcome). An evaluation is a pure
/// function of this key for a fixed problem, so the journal replays and
/// the [`EvalStore`] shares results under it.
pub type EvalKey = (Vec<u64>, usize, usize);

/// The [`EvalKey`] of a request.
pub fn eval_key(u: &[f64], corner_idx: usize, cap: usize) -> EvalKey {
    (u.iter().map(|v| v.to_bits()).collect(), corner_idx, cap)
}

/// Maps a physical parameter vector to a measurement vector at a PVT
/// corner — the paper's opaque `S_pice(X)` relation.
///
/// Implementations must be deterministic for a given `(x, corner, effort)`
/// triple; agents rely on re-evaluation returning the same result.
pub trait Evaluator: Send + Sync {
    /// Names of the entries of the measurement vector, in order.
    fn measurement_names(&self) -> &[String];

    /// Evaluates physical parameters `x` at `corner`.
    ///
    /// # Errors
    ///
    /// [`EnvError::Simulation`] when the underlying simulation does not
    /// converge — agents treat this as a maximally infeasible point, not a
    /// fatal error.
    fn evaluate(&self, x: &[f64], corner: &PvtCorner) -> Result<Vec<f64>, EnvError>;

    /// Evaluates with an explicit solver-effort level, used by the retry
    /// ladder to escalate on convergence failures. The default ignores the
    /// effort — analytic evaluators have nothing to escalate — so only
    /// simulator-backed implementations need to override this.
    ///
    /// # Errors
    ///
    /// Same contract as [`Evaluator::evaluate`].
    fn evaluate_with_effort(
        &self,
        x: &[f64],
        corner: &PvtCorner,
        effort: EvalEffort,
    ) -> Result<Vec<f64>, EnvError> {
        let _ = effort;
        self.evaluate(x, corner)
    }

    /// Pins the linear-solver backend for every future evaluation (see
    /// [`asdex_spice::analysis::SolverChoice`]). The default is a no-op —
    /// analytic evaluators solve no linear systems — so only MNA-backed
    /// implementations need to override this; the MNA evaluator re-pins
    /// its workspace pool. Backends agree only within solver tolerance, not
    /// bitwise, so the choice is part of a campaign's identity.
    fn set_solver(&self, choice: asdex_spice::analysis::SolverChoice) {
        let _ = choice;
    }
}

/// Outcome of evaluating one design point at one corner.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The normalized (grid-snapped) coordinates that were evaluated.
    pub x_norm: Vec<f64>,
    /// Measurements, `None` when the simulation failed.
    pub measurements: Option<Vec<f64>>,
    /// Value-function score (0 ⇔ all specs met).
    pub value: f64,
    /// `true` when every spec is satisfied.
    pub feasible: bool,
    /// Why the final attempt failed, `None` on success. Wrong-dimension or
    /// non-finite measurement vectors are detected here and typed, so
    /// `measurements` is always well-formed when `Some`.
    pub failure: Option<FailureKind>,
    /// Budget units consumed: 1 for a plain evaluation, `1 + retries` when
    /// the retry ladder ran. Agents charge this (not a flat 1) against
    /// `SearchBudget::max_sims` so accounting stays exact under retries.
    pub sim_cost: usize,
}

impl Evaluation {
    /// `true` when the point failed at least once but the retry ladder
    /// eventually produced a valid result.
    pub fn recovered(&self) -> bool {
        self.failure.is_none() && self.sim_cost > 1
    }
}

/// A complete sizing task.
#[derive(Clone)]
pub struct SizingProblem {
    /// Problem name for reports.
    pub name: String,
    /// The discrete design space.
    pub space: DesignSpace,
    /// The simulation behind the problem.
    pub evaluator: Arc<dyn Evaluator>,
    /// Specs that must hold at every corner.
    pub specs: SpecSet,
    /// PVT corners to sign off.
    pub corners: PvtSet,
    /// Value function used to rank candidates.
    pub value_fn: ValueFn,
    /// Retry ladder applied to retryable failures (on by default; set to
    /// [`RetryPolicy::none`] to disable).
    pub retry: RetryPolicy,
    /// Worker threads for [`SizingProblem::evaluate_batch`]: 0 (the
    /// default) resolves from the `ASDEX_THREADS` environment variable,
    /// falling back to serial execution. Thread count never changes
    /// results — only wall-clock.
    pub threads: usize,
    /// Optional dynamic worker-count source, read at every
    /// [`SizingProblem::evaluate_batch`] call. A serving layer running
    /// many campaigns against one machine stores each campaign's
    /// fair share here and rebalances as campaigns start and finish;
    /// a value of 0 falls back to [`SizingProblem::threads`], and an
    /// attached dispatcher's parallelism floors whichever count applies
    /// (see [`SizingProblem::resolved_threads`]). Thread count never changes
    /// results — only wall-clock — so rebalancing mid-campaign is always
    /// safe.
    pub(crate) thread_share: Option<Arc<AtomicUsize>>,
    /// Optional cooperative cancellation flag (the serving layer's drain
    /// hook). Checked at every batch boundary; see [`crate::CancelToken`].
    pub(crate) cancel: Option<CancelToken>,
    /// Optional checkpoint journal, shared across clones of the problem.
    /// Replay lookups and recording happen in request order (never
    /// concurrently inside a worker), so thread count stays invisible.
    pub(crate) journal: Option<Arc<Mutex<Journal>>>,
    /// (point, corner) jobs whose retry ladder was exhausted by worker
    /// panics. Quarantined jobs short-circuit to a typed
    /// [`FailureKind::WorkerPanic`] failure at unit cost instead of
    /// panicking the evaluator again. Shared across clones; mutated only
    /// in the ordered finalize pass so results stay thread-invariant.
    pub(crate) quarantine: Arc<Mutex<HashSet<JobKey>>>,
    /// Optional execution backend for single attempts (e.g. a sandboxed
    /// worker-process pool). `None` runs attempts in-process on the
    /// calling thread; see [`crate::EvalDispatcher`] for the equivalence
    /// contract. Dispatch never changes results — only where they run.
    pub(crate) dispatcher: Option<Arc<dyn EvalDispatcher>>,
    /// Optional cross-campaign single-flight dedup store (see
    /// [`crate::EvalStore`]). Concurrent problems sharing a store wait on
    /// each other's in-flight evaluations instead of recomputing them;
    /// attaching a store never changes results — only simulator count and
    /// wall-clock. Callers sharing one store must agree on the problem
    /// identity (benchmark, corners, solver backend).
    pub(crate) eval_store: Option<Arc<EvalStore>>,
}

impl std::fmt::Debug for SizingProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SizingProblem")
            .field("name", &self.name)
            .field("dim", &self.space.dim())
            .field("specs", &self.specs.len())
            .field("corners", &self.corners.len())
            .finish()
    }
}

impl SizingProblem {
    /// Creates a problem, validating its pieces fit together.
    ///
    /// # Errors
    ///
    /// [`EnvError::InvalidProblem`] when a spec references a measurement
    /// index outside the evaluator's measurement vector.
    pub fn new(
        name: &str,
        space: DesignSpace,
        evaluator: Arc<dyn Evaluator>,
        specs: SpecSet,
        corners: PvtSet,
    ) -> Result<Self, EnvError> {
        let n_meas = evaluator.measurement_names().len();
        for s in specs.specs() {
            if s.measurement >= n_meas {
                return Err(EnvError::InvalidProblem {
                    reason: format!(
                        "spec {} references measurement {} but the evaluator provides {}",
                        s.name, s.measurement, n_meas
                    ),
                });
            }
        }
        Ok(SizingProblem {
            name: name.to_string(),
            space,
            evaluator,
            specs,
            corners,
            value_fn: ValueFn::default(),
            retry: RetryPolicy::default(),
            threads: 0,
            thread_share: None,
            cancel: None,
            journal: None,
            quarantine: Arc::new(Mutex::new(HashSet::new())),
            dispatcher: None,
            eval_store: None,
        })
    }

    /// Sets the batch-evaluation worker count (builder style); 0 restores
    /// the `ASDEX_THREADS`/serial default.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Pins the linear-solver backend on the problem's evaluator (builder
    /// style); see [`Evaluator::set_solver`]. Backend choice is part of a
    /// campaign's identity — each backend is individually deterministic,
    /// but they agree only within solver tolerance — so resumable
    /// campaigns record it and re-apply the same choice on resume.
    #[must_use]
    pub fn with_solver(self, choice: asdex_spice::analysis::SolverChoice) -> Self {
        self.evaluator.set_solver(choice);
        self
    }

    /// Attaches a dynamic worker-count source (builder style). The value
    /// is re-read at every [`SizingProblem::evaluate_batch`] call, so a
    /// scheduler can rebalance a shared thread budget across concurrent
    /// campaigns while they run; 0 falls back to the static
    /// [`SizingProblem::with_threads`] setting.
    #[must_use]
    pub fn with_thread_share(mut self, share: Arc<AtomicUsize>) -> Self {
        self.thread_share = Some(share);
        self
    }

    /// Attaches a cooperative cancellation token (builder style). Once
    /// cancelled, every subsequent batch returns typed
    /// [`FailureKind::Cancelled`] failures that charge their reserved
    /// budget without invoking the simulator or touching the journal —
    /// see [`crate::CancelToken`] for the drain semantics.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether the attached [`CancelToken`] (if any) has been pulled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Attaches a checkpoint journal (builder style): every non-replayed
    /// evaluation is recorded, and any outcomes already in the journal
    /// (after [`Journal::resume`]) are served back in request order
    /// without invoking the evaluator.
    #[must_use]
    pub fn with_journal(self, journal: Journal) -> Self {
        self.with_shared_journal(Arc::new(Mutex::new(journal)))
    }

    /// [`SizingProblem::with_journal`] for a journal whose handle the
    /// caller keeps, e.g. to checkpoint it from an interrupt handler while
    /// the campaign runs.
    #[must_use]
    pub fn with_shared_journal(mut self, journal: Arc<Mutex<Journal>>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Routes single evaluator attempts through `dispatcher` (builder
    /// style) — typically a worker-process pool. The retry ladder, budget
    /// accounting, journal, and quarantine stay in this process; only the
    /// raw attempt execution moves. Passing the problem's own evaluator
    /// semantics through the dispatcher is the implementer's contract
    /// (see [`crate::EvalDispatcher`]); when it holds, results are
    /// bitwise identical to the in-process path.
    #[must_use]
    pub fn with_dispatcher(mut self, dispatcher: Arc<dyn EvalDispatcher>) -> Self {
        self.dispatcher = Some(dispatcher);
        self
    }

    /// The attached attempt dispatcher, if any.
    pub fn dispatcher(&self) -> Option<Arc<dyn EvalDispatcher>> {
        self.dispatcher.clone()
    }

    /// Attaches a cross-campaign single-flight dedup store (builder
    /// style): live evaluations first consult the store, and the first
    /// caller for a given (point-bits, corner, attempt-cap) key computes
    /// the result while concurrent callers wait for it. See
    /// [`crate::EvalStore`] for the determinism and crash-safety
    /// contract. Journal replay always takes precedence over the store.
    #[must_use]
    pub fn with_eval_store(mut self, store: Arc<EvalStore>) -> Self {
        self.eval_store = Some(store);
        self
    }

    /// The attached dedup store, if any.
    pub fn eval_store(&self) -> Option<Arc<EvalStore>> {
        self.eval_store.clone()
    }

    /// A handle to the attached journal, if any — lets a supervisor force
    /// a [`Journal::checkpoint`] on graceful shutdown or read replay
    /// telemetry after a campaign.
    pub fn journal_handle(&self) -> Option<Arc<Mutex<Journal>>> {
        self.journal.clone()
    }

    /// Number of design parameters.
    pub fn dim(&self) -> usize {
        self.space.dim()
    }

    /// An infeasible worst-case outcome with a typed failure kind.
    pub(crate) fn failed_eval(
        &self,
        x_norm: Vec<f64>,
        kind: FailureKind,
        sim_cost: usize,
    ) -> Evaluation {
        Evaluation {
            x_norm,
            measurements: None,
            value: self.value_fn.failure_value(&self.specs),
            feasible: false,
            failure: Some(kind),
            sim_cost,
        }
    }

    /// Evaluates a normalized point at one corner (by index), translating
    /// simulation failures into worst-case values with a typed
    /// [`FailureKind`]. An out-of-range `corner_idx` is reported as an
    /// [`FailureKind::InvalidInput`] failure, not a panic.
    ///
    /// Retryable failures run the retry ladder (see
    /// [`SizingProblem::evaluate_with_budget`] to cap its attempts when
    /// the simulation budget is nearly spent).
    pub fn evaluate_normalized(&self, u: &[f64], corner_idx: usize) -> Evaluation {
        self.evaluate_with_budget(u, corner_idx, usize::MAX)
    }

    /// Evaluates a normalized point at one corner with at most `remaining`
    /// simulator attempts available. The retry ladder never issues more
    /// attempts than `remaining`, so charging the returned
    /// [`Evaluation::sim_cost`] against a budget can never overshoot it.
    ///
    /// This is a one-request [`SizingProblem::evaluate_batch`] with at
    /// least one attempt admitted: when a journal is attached (see
    /// [`SizingProblem::with_journal`]) a recorded outcome for
    /// `(u, corner_idx, cap)` is served back without touching the
    /// evaluator, and fresh outcomes are recorded.
    pub fn evaluate_with_budget(
        &self,
        u: &[f64],
        corner_idx: usize,
        remaining: usize,
    ) -> Evaluation {
        self.evaluate_batch(&[EvalRequest::new(u.to_vec(), corner_idx)], remaining.max(1))
            .pop()
            .expect("a budget of at least one attempt admits the request")
    }

    /// Pops the journaled outcome for this job, if a journal is attached
    /// and holds one. Callers must invoke this in request order (the batch
    /// pipeline does it in a serial pre-pass) so duplicate requests are
    /// served in their original sequence.
    pub(crate) fn take_replayed(
        &self,
        u: &[f64],
        corner_idx: usize,
        cap: usize,
    ) -> Option<Evaluation> {
        let journal = self.journal.as_ref()?;
        let mut journal = journal.lock().ok()?;
        journal.take_replay(u, corner_idx, cap)
    }

    /// The quarantine short-circuit outcome: a typed
    /// [`FailureKind::WorkerPanic`] failure at unit cost.
    fn quarantine_eval(&self, u: &[f64]) -> Evaluation {
        let x_norm = self.space.snap(u).unwrap_or_else(|_| u.to_vec());
        self.failed_eval(x_norm, FailureKind::WorkerPanic, 1)
    }

    /// The drain short-circuit outcome: a typed
    /// [`FailureKind::Cancelled`] failure that charges the request's full
    /// reserved attempt cap, so a cancelled agent burns through its
    /// remaining budget in one pass and terminates. Never journaled.
    pub(crate) fn cancelled_eval(&self, u: &[f64], cap: usize) -> Evaluation {
        let x_norm = self.space.snap(u).unwrap_or_else(|_| u.to_vec());
        self.failed_eval(x_norm, FailureKind::Cancelled, cap.max(1))
    }

    /// Whether this job is quarantined after repeated worker panics.
    fn is_quarantined(&self, u: &[f64], corner_idx: usize) -> bool {
        self.quarantine
            .lock()
            .map(|q| q.contains(&job_key(u, corner_idx)))
            .unwrap_or(false)
    }

    /// The live evaluation path: quarantine snapshot check, then the retry
    /// ladder with panic isolation, **without** journal replay/recording
    /// or quarantine updates (the batch pipeline runs those in an ordered
    /// finalize pass; see [`SizingProblem::finalize_evaluation`]).
    ///
    /// Each evaluator call runs under `catch_unwind` (or through the
    /// attached [`crate::EvalDispatcher`]): a panicking evaluator — or a
    /// dying worker process — is converted into a typed
    /// [`FailureKind::WorkerPanic`] failure that flows through the normal
    /// retry machinery instead of unwinding across (and poisoning) the
    /// worker pool.
    pub(crate) fn evaluate_unjournaled(
        &self,
        u: &[f64],
        corner_idx: usize,
        max_attempts: usize,
    ) -> Evaluation {
        if self.is_quarantined(u, corner_idx) {
            return self.quarantine_eval(u);
        }
        let Some(corner) = self.corners.corners().get(corner_idx).copied() else {
            return self.failed_eval(u.to_vec(), FailureKind::InvalidInput, 1);
        };
        // A failed snap (wrong dimension) is typed instead of silently
        // evaluating the raw point; callers can count it via EvalStats.
        let x_norm = match self.space.snap(u) {
            Ok(x) => x,
            Err(_) => return self.failed_eval(u.to_vec(), FailureKind::InvalidInput, 1),
        };
        let x_phys = match self.space.to_physical(&x_norm) {
            Ok(x) => x,
            Err(_) => return self.failed_eval(x_norm, FailureKind::InvalidInput, 1),
        };
        let n_meas = self.evaluator.measurement_names().len();
        let mut attempt = 0;
        loop {
            // One attempt, either in-process (the reference semantics) or
            // through the attached dispatcher. Shape and finiteness checks
            // are applied here, uniformly, to whatever comes back.
            let outcome = match &self.dispatcher {
                None => {
                    crate::dispatch::run_attempt(self.evaluator.as_ref(), &x_phys, &corner, attempt)
                }
                Some(d) => d.dispatch(&x_phys, corner_idx, attempt),
            };
            let kind = match outcome {
                Err(kind) => kind,
                Ok(meas) if meas.len() != n_meas => FailureKind::InvalidInput,
                Ok(meas) if meas.iter().any(|v| !v.is_finite()) => FailureKind::NonFinite,
                Ok(meas) => {
                    let value = self.value_fn.value(&meas, &self.specs);
                    let feasible = self.specs.all_satisfied(&meas);
                    return Evaluation {
                        x_norm,
                        measurements: Some(meas),
                        value,
                        feasible,
                        failure: None,
                        sim_cost: attempt + 1,
                    };
                }
            };
            if kind.is_retryable() && attempt + 1 < max_attempts {
                attempt += 1;
            } else {
                return self.failed_eval(x_norm, kind, attempt + 1);
            }
        }
    }

    /// The live evaluation path behind the optional dedup store: without
    /// a store this is exactly [`SizingProblem::evaluate_unjournaled`];
    /// with one, the call joins the single flight for
    /// `(u-bits, corner_idx, cap)` — computing and publishing as the
    /// owner, receiving a published clone as a waiter, or re-dispatching
    /// when an owner abandons the key. Only pure results are published
    /// (never [`FailureKind::Cancelled`] or [`FailureKind::WorkerPanic`];
    /// see [`crate::evalstore`] for why), so attaching a store never
    /// changes any campaign's results.
    pub(crate) fn evaluate_shared(
        &self,
        u: &[f64],
        corner_idx: usize,
        max_attempts: usize,
    ) -> Evaluation {
        let Some(store) = &self.eval_store else {
            return self.evaluate_unjournaled(u, corner_idx, max_attempts);
        };
        let key = eval_key(u, corner_idx, max_attempts);
        // Waiters on a slot an owner abandoned re-claim *inside* `join`,
        // so every arm here is terminal.
        match store.join(&key, || self.is_cancelled()) {
            Join::Done(e) => e,
            Join::Owner(guard) => {
                let e = self.evaluate_unjournaled(u, corner_idx, max_attempts);
                if Self::publishable(&e) {
                    guard.publish(e.clone());
                }
                // An unpublishable result drops the guard, vacating
                // the slot so a waiter re-dispatches.
                e
            }
            // A store whose every slot is in flight degrades to plain
            // local evaluation.
            Join::Bypass => self.evaluate_unjournaled(u, corner_idx, max_attempts),
            Join::Cancelled => self.cancelled_eval(u, max_attempts),
        }
    }

    /// Whether an evaluation is a pure function of its store key and may
    /// be published for other campaigns to reuse.
    fn publishable(e: &Evaluation) -> bool {
        !matches!(e.failure, Some(FailureKind::Cancelled) | Some(FailureKind::WorkerPanic))
    }

    /// The ordered finalize pass for one evaluation, applied in request
    /// order (the serial batch path does it inline; the threaded one
    /// after its workers join). Three steps, in this order:
    ///
    /// 1. A fresh (non-replayed) result whose job was quarantined by an
    ///    *earlier* request in the same batch is replaced with the
    ///    quarantine short-circuit — exactly what the serial interleaving
    ///    would have produced.
    /// 2. A terminal [`FailureKind::WorkerPanic`] quarantines the job.
    /// 3. A fresh result is recorded to the journal (replays are already
    ///    on disk).
    pub(crate) fn finalize_evaluation(
        &self,
        u: &[f64],
        corner_idx: usize,
        cap: usize,
        mut eval: Evaluation,
        replayed: bool,
    ) -> Evaluation {
        if !replayed && self.is_quarantined(u, corner_idx) {
            eval = self.quarantine_eval(u);
        }
        if eval.failure == Some(FailureKind::WorkerPanic) {
            if let Ok(mut quarantine) = self.quarantine.lock() {
                quarantine.insert(job_key(u, corner_idx));
            }
        }
        // Cancelled placeholders are not real simulator outcomes: keeping
        // them out of the journal is what makes a drained campaign resume
        // to the same outcome as an uninterrupted run.
        if eval.failure == Some(FailureKind::Cancelled) {
            return eval;
        }
        if !replayed {
            if let Some(journal) = &self.journal {
                if let Ok(mut journal) = journal.lock() {
                    // A failed append never fails the evaluation — the
                    // journal degrades to a shorter resume point, and the
                    // drop is tallied in `Journal::dropped` so campaign
                    // telemetry surfaces it as `journal_drops`.
                    let _ = journal.record(u, corner_idx, cap, &eval);
                }
            }
        }
        eval
    }

    /// Evaluates a normalized point at every corner, as one batch through
    /// [`SizingProblem::evaluate_batch`] (parallel when the problem has a
    /// worker pool configured). Returns the raw per-corner evaluations in
    /// corner order; each entry's `feasible` flag covers *that corner
    /// only*, so sign-off across corners is
    /// `evals.iter().all(|e| e.feasible)`.
    pub fn evaluate_all_corners(&self, u: &[f64]) -> Vec<Evaluation> {
        let requests = EvalRequest::fan_out(u, self.corners.len());
        self.evaluate_batch(&requests, usize::MAX)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::space::Param;
    use crate::spec::Spec;

    /// A 2-D analytic evaluator for tests: measurement = [x0 + x1, x0*x1].
    pub struct ToyEvaluator {
        names: Vec<String>,
    }

    impl ToyEvaluator {
        pub fn new() -> Self {
            ToyEvaluator { names: vec!["sum".into(), "prod".into()] }
        }
    }

    impl Evaluator for ToyEvaluator {
        fn measurement_names(&self) -> &[String] {
            &self.names
        }
        fn evaluate(&self, x: &[f64], corner: &PvtCorner) -> Result<Vec<f64>, EnvError> {
            // Corners make the task slightly harder at low supply.
            let derate = corner.vdd_scale;
            Ok(vec![(x[0] + x[1]) * derate, x[0] * x[1] * derate])
        }
    }

    pub fn toy_problem() -> SizingProblem {
        let space = DesignSpace::new(vec![
            Param::linear("x0", 0.0, 10.0, 101).unwrap(),
            Param::linear("x1", 0.0, 10.0, 101).unwrap(),
        ])
        .unwrap();
        SizingProblem::new(
            "toy",
            space,
            Arc::new(ToyEvaluator::new()),
            SpecSet::new(vec![Spec::at_least(0, "sum", 12.0), Spec::at_least(1, "prod", 20.0)]),
            PvtSet::nominal_only(),
        )
        .unwrap()
    }

    #[test]
    fn bad_spec_index_rejected() {
        let space = DesignSpace::new(vec![Param::linear("x", 0.0, 1.0, 2).unwrap()]).unwrap();
        let err = SizingProblem::new(
            "bad",
            space,
            Arc::new(ToyEvaluator::new()),
            SpecSet::new(vec![Spec::at_least(5, "nope", 0.0)]),
            PvtSet::nominal_only(),
        )
        .unwrap_err();
        assert!(matches!(err, EnvError::InvalidProblem { .. }));
    }

    #[test]
    fn evaluation_feasibility() {
        let p = toy_problem();
        // (8, 8): sum 16 >= 12, prod 64 >= 20 → feasible, value 0.
        let e = p.evaluate_normalized(&[0.8, 0.8], 0);
        assert!(e.feasible);
        assert_eq!(e.value, 0.0);
        assert_eq!(e.measurements.as_deref(), Some(&[16.0, 64.0][..]));
        // (1, 1): infeasible.
        let e = p.evaluate_normalized(&[0.1, 0.1], 0);
        assert!(!e.feasible);
        assert!(e.value < 0.0);
    }

    #[test]
    fn snapping_applied_before_evaluation() {
        let p = toy_problem();
        let e = p.evaluate_normalized(&[0.555, 0.0], 0);
        // 0.555 on a 101-point grid snaps to 0.56 → x = 5.6.
        assert!((e.x_norm[0] - 0.56).abs() < 1e-12);
        assert!((e.measurements.unwrap()[0] - 5.6).abs() < 1e-9);
    }

    #[test]
    fn all_corner_evaluation() {
        let mut p = toy_problem();
        p.corners = PvtSet::new(vec![
            PvtCorner::nominal(),
            PvtCorner { vdd_scale: 0.5, ..PvtCorner::nominal() },
        ]);
        let evals = p.evaluate_all_corners(&[0.8, 0.8]);
        assert_eq!(evals.len(), 2);
        assert!(evals[0].feasible);
        assert!(!evals[1].feasible, "derated corner misses the spec");
    }

    #[test]
    fn debug_format_mentions_name() {
        let p = toy_problem();
        assert!(format!("{p:?}").contains("toy"));
    }

    /// An evaluator that always reports NaN measurements.
    pub struct NanEvaluator {
        names: Vec<String>,
    }

    impl NanEvaluator {
        pub fn new() -> Self {
            NanEvaluator { names: vec!["sum".into(), "prod".into()] }
        }
    }

    impl Evaluator for NanEvaluator {
        fn measurement_names(&self) -> &[String] {
            &self.names
        }
        fn evaluate(&self, _x: &[f64], _corner: &PvtCorner) -> Result<Vec<f64>, EnvError> {
            Ok(vec![f64::NAN, f64::NAN])
        }
    }

    #[test]
    fn nan_measurements_are_typed_infeasible() {
        let mut p = toy_problem();
        p.evaluator = Arc::new(NanEvaluator::new());
        let e = p.evaluate_normalized(&[0.5, 0.5], 0);
        assert!(!e.feasible);
        assert_eq!(e.failure, Some(crate::stats::FailureKind::NonFinite));
        assert!(e.measurements.is_none(), "NaN never reaches the value function");
        assert_eq!(e.value, p.value_fn.failure_value(&p.specs));
        assert_eq!(e.sim_cost, 1, "non-finite results are not retried");
    }

    #[test]
    fn out_of_range_corner_is_typed_not_a_panic() {
        let p = toy_problem();
        let e = p.evaluate_normalized(&[0.5, 0.5], 99);
        assert!(!e.feasible);
        assert_eq!(e.failure, Some(crate::stats::FailureKind::InvalidInput));
        assert_eq!(e.sim_cost, 1);
    }

    #[test]
    fn wrong_dimension_point_is_typed_not_silently_snapped() {
        let p = toy_problem();
        let e = p.evaluate_normalized(&[0.5], 0);
        assert!(!e.feasible);
        assert_eq!(e.failure, Some(crate::stats::FailureKind::InvalidInput));
    }

    #[test]
    fn successful_evaluation_has_no_failure_and_unit_cost() {
        let p = toy_problem();
        let e = p.evaluate_normalized(&[0.8, 0.8], 0);
        assert_eq!(e.failure, None);
        assert_eq!(e.sim_cost, 1);
        assert!(!e.recovered());
    }

    #[test]
    fn retry_ladder_recovers_flaky_points_within_budget() {
        use crate::robust::EvalEffort;
        /// Fails with NoConvergence below a per-point attempt threshold.
        struct FlakyUntil {
            names: Vec<String>,
            succeed_at: usize,
        }
        impl Evaluator for FlakyUntil {
            fn measurement_names(&self) -> &[String] {
                &self.names
            }
            fn evaluate(&self, x: &[f64], c: &PvtCorner) -> Result<Vec<f64>, EnvError> {
                self.evaluate_with_effort(x, c, EvalEffort::default())
            }
            fn evaluate_with_effort(
                &self,
                x: &[f64],
                _c: &PvtCorner,
                effort: EvalEffort,
            ) -> Result<Vec<f64>, EnvError> {
                if effort.attempt < self.succeed_at {
                    Err(asdex_spice::SpiceError::NoConvergence { analysis: "op", iterations: 150 }
                        .into())
                } else {
                    Ok(vec![x[0] + x[1], x[0] * x[1]])
                }
            }
        }

        let mut p = toy_problem();
        p.evaluator =
            Arc::new(FlakyUntil { names: vec!["sum".into(), "prod".into()], succeed_at: 2 });
        // Default policy: 1 try + 2 retries → succeeds on the third attempt.
        let e = p.evaluate_normalized(&[0.8, 0.8], 0);
        assert!(e.feasible);
        assert_eq!(e.sim_cost, 3);
        assert!(e.recovered());

        // With only 2 attempts of budget left, the ladder is cut short.
        let e = p.evaluate_with_budget(&[0.8, 0.8], 0, 2);
        assert!(!e.feasible);
        assert_eq!(e.failure, Some(crate::stats::FailureKind::NoConvergence));
        assert_eq!(e.sim_cost, 2, "never exceeds the remaining budget");

        // With the ladder disabled, the first failure is terminal.
        p.retry = crate::robust::RetryPolicy::none();
        let e = p.evaluate_normalized(&[0.8, 0.8], 0);
        assert_eq!(e.sim_cost, 1);
        assert_eq!(e.failure, Some(crate::stats::FailureKind::NoConvergence));
    }

    /// Panics below a per-point attempt threshold, then succeeds; counts
    /// raw evaluator invocations.
    pub struct PanickyUntil {
        names: Vec<String>,
        succeed_at: usize,
        pub calls: std::sync::atomic::AtomicUsize,
    }

    impl PanickyUntil {
        pub fn new(succeed_at: usize) -> Self {
            PanickyUntil {
                names: vec!["sum".into(), "prod".into()],
                succeed_at,
                calls: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl Evaluator for PanickyUntil {
        fn measurement_names(&self) -> &[String] {
            &self.names
        }
        fn evaluate(&self, x: &[f64], c: &PvtCorner) -> Result<Vec<f64>, EnvError> {
            self.evaluate_with_effort(x, c, EvalEffort::default())
        }
        fn evaluate_with_effort(
            &self,
            x: &[f64],
            _c: &PvtCorner,
            effort: EvalEffort,
        ) -> Result<Vec<f64>, EnvError> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            assert!(effort.attempt >= self.succeed_at, "injected worker panic");
            Ok(vec![x[0] + x[1], x[0] * x[1]])
        }
    }

    #[test]
    fn panicking_evaluator_is_caught_and_typed() {
        let mut p = toy_problem();
        p.evaluator = Arc::new(PanickyUntil::new(usize::MAX));
        let e = p.evaluate_normalized(&[0.8, 0.8], 0);
        assert!(!e.feasible);
        assert_eq!(e.failure, Some(FailureKind::WorkerPanic));
        assert_eq!(e.sim_cost, 3, "the full ladder ran before giving up");
    }

    #[test]
    fn panic_recovers_within_the_ladder() {
        let mut p = toy_problem();
        p.evaluator = Arc::new(PanickyUntil::new(1));
        let e = p.evaluate_normalized(&[0.8, 0.8], 0);
        assert!(e.feasible, "second attempt succeeds");
        assert_eq!(e.sim_cost, 2);
        assert!(e.recovered());
        // A recovered panic never quarantines the job.
        let e = p.evaluate_normalized(&[0.8, 0.8], 0);
        assert_eq!(e.sim_cost, 2);
    }

    #[test]
    fn repeated_panics_quarantine_the_job() {
        let mut p = toy_problem();
        let evaluator = Arc::new(PanickyUntil::new(usize::MAX));
        p.evaluator = evaluator.clone();
        let first = p.evaluate_normalized(&[0.8, 0.8], 0);
        assert_eq!(first.failure, Some(FailureKind::WorkerPanic));
        assert_eq!(first.sim_cost, 3);
        let calls_after_first = evaluator.calls.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(calls_after_first, 3);
        // Second request for the same job short-circuits at unit cost
        // without touching the evaluator again.
        let second = p.evaluate_normalized(&[0.8, 0.8], 0);
        assert_eq!(second.failure, Some(FailureKind::WorkerPanic));
        assert_eq!(second.sim_cost, 1);
        assert_eq!(evaluator.calls.load(std::sync::atomic::Ordering::Relaxed), calls_after_first);
        // A different corner (or point) is a different job.
        let other_point = p.evaluate_normalized(&[0.2, 0.8], 0);
        assert!(evaluator.calls.load(std::sync::atomic::Ordering::Relaxed) > calls_after_first);
        assert_eq!(other_point.failure, Some(FailureKind::WorkerPanic));
    }

    #[test]
    fn journal_replays_without_touching_the_evaluator() {
        use crate::journal::{Journal, JournalMeta};
        let dir = std::env::temp_dir();
        let path = dir.join(format!("asdex-problem-journal-{}.log", std::process::id()));

        let journal = Journal::create(&path, JournalMeta::new().with("problem", "toy"), 1).unwrap();
        let p = toy_problem().with_journal(journal);
        let points = [[0.8, 0.8], [0.1, 0.1], [0.8, 0.8], [0.555, 0.0]];
        let original: Vec<Evaluation> =
            points.iter().map(|u| p.evaluate_normalized(u, 0)).collect();
        if let Some(j) = p.journal_handle() {
            j.lock().unwrap().checkpoint().unwrap();
        }
        drop(p);

        // Resume with an evaluator that would fail every request: replay
        // must serve all four outcomes and never call it.
        let journal = Journal::resume(&path, 1).unwrap();
        let mut p2 = toy_problem();
        let evaluator = Arc::new(PanickyUntil::new(usize::MAX));
        p2.evaluator = evaluator.clone();
        let p2 = p2.with_journal(journal);
        let resumed: Vec<Evaluation> =
            points.iter().map(|u| p2.evaluate_normalized(u, 0)).collect();
        assert_eq!(resumed, original, "replayed outcomes are bitwise identical");
        assert_eq!(evaluator.calls.load(std::sync::atomic::Ordering::Relaxed), 0);
        let handle = p2.journal_handle().unwrap();
        let j = handle.lock().unwrap();
        assert_eq!(j.replayed(), 4);
        assert_eq!(j.unconsumed(), 0);
        drop(j);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_record_tracks_retries_and_recoveries() {
        use crate::stats::{EvalStats, FailureKind};
        let p = toy_problem();
        let mut stats = EvalStats::new();
        stats.record(&p.evaluate_normalized(&[0.8, 0.8], 0));
        assert_eq!(stats.sims, 1);
        assert_eq!(stats.total_failures(), 0);
        let mut nan_p = toy_problem();
        nan_p.evaluator = Arc::new(NanEvaluator::new());
        stats.record(&nan_p.evaluate_normalized(&[0.5, 0.5], 0));
        assert_eq!(stats.sims, 2);
        assert_eq!(stats.failures_of(FailureKind::NonFinite), 1);
    }
}

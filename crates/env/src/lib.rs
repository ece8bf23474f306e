//! Sizing environments for analog design-space exploration.
//!
//! `asdex-env` implements the problem-formulation layer of the DAC 2021
//! paper (§III, §IV-A, §IV-D, §IV-E):
//!
//! * [`space::DesignSpace`] — discrete per-parameter grids, the CSP
//!   domains of eq. (2), with normalized-coordinate maps,
//! * [`spec::SpecSet`] — the constraints `C = (t, r)`,
//! * [`value::ValueFn`] — the sum-of-normalized-measurements value
//!   function (§IV-D),
//! * [`corner::PvtSet`] — process/voltage/temperature corners (§IV-E),
//! * [`problem::SizingProblem`] — the standardized API every agent
//!   consumes (§IV-F),
//! * [`circuits`] — the paper's benchmark circuits: the two-stage Miller
//!   opamp (45/22 nm), the LDO (n6), the ICO (n5), and synthetic
//!   landscapes for fast tests,
//! * [`netbench`] — netlist-defined benches: a SPICE deck plus a sizing
//!   stanza compiled into a sizing problem; the opamps are two such decks.
//!   The LDO and every netlist bench are simulated by one MNA evaluator;
//!   each supplies only its netlist and its measurement step, and
//! * the fault-tolerant evaluation layer: [`stats::FailureKind`] /
//!   [`stats::EvalStats`] (failure taxonomy + telemetry),
//!   [`robust::RetryPolicy`] (the escalating retry ladder), and
//!   [`fault::FaultInjectingEvaluator`] (deterministic chaos testing), and
//! * the batched evaluation pipeline: [`batch::EvalRequest`] /
//!   [`problem::SizingProblem::evaluate_batch`], a deterministic
//!   scoped-thread worker pool (`ASDEX_THREADS`) with budget-exact
//!   admission,
//! * the cross-campaign dedup layer: [`evalstore::EvalStore`], a shared
//!   single-flight result store keyed by the bitwise
//!   [`problem::EvalKey`] (point-bits, corner, attempt-cap) that the
//!   journal also replays under, so concurrent campaigns wait on
//!   in-flight evaluations instead of recomputing them; it is the only
//!   evaluation memo, and
//! * the crash-safety layer: [`journal::Journal`] (append-only
//!   checkpoint/resume journal with bitwise-faithful replay, a schema on
//!   the shared [`recordlog::RecordLog`]), worker
//!   panic isolation with quarantine
//!   ([`stats::FailureKind::WorkerPanic`]), and the solve watchdog
//!   surfaced as [`stats::FailureKind::Timeout`].
//!
//! # Example
//!
//! ```no_run
//! use asdex_env::circuits::opamp::TwoStageOpamp;
//!
//! # fn main() -> Result<(), asdex_env::EnvError> {
//! let problem = TwoStageOpamp::bsim45().problem()?;
//! let eval = problem.evaluate_normalized(&vec![0.5; problem.dim()], 0);
//! println!("value = {}", eval.value);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cancel;
pub mod circuits;
pub mod corner;
pub mod dispatch;
mod error;
pub mod evalstore;
pub mod fault;
pub mod health;
pub mod journal;
pub mod netbench;
pub mod problem;
pub mod recordlog;
pub mod robust;
pub mod search;
pub mod space;
pub mod spec;
pub mod stats;
pub mod value;

pub use batch::EvalRequest;
pub use cancel::CancelToken;
pub use corner::{PvtCorner, PvtSet};
pub use dispatch::{run_attempt, EvalDispatcher};
pub use error::EnvError;
pub use evalstore::{EvalStore, EvalStoreStats};
pub use fault::{
    arm_process_faults, process_faults_armed, FaultConfig, FaultInjectingEvaluator, FaultMode,
};
pub use health::HealthStats;
pub use journal::{Journal, JournalError, JournalMeta};
pub use netbench::{netlist_digest, NetbenchError, NetlistBench};
pub use problem::{Evaluation, Evaluator, SizingProblem};
pub use recordlog::{fnv1a, DiskFault, DiskFaultKind, RecordError, RecordLog};
pub use robust::{EvalEffort, RetryPolicy};
pub use search::{SearchBudget, SearchOutcome, Searcher};
pub use space::{DesignSpace, Param};
pub use spec::{Spec, SpecKind, SpecSet};
pub use stats::{EvalStats, FailureKind};
pub use value::ValueFn;

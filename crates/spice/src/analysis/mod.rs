//! Circuit analyses: DC operating point, AC small-signal sweeps, and
//! transient integration.

mod ac;
mod dc;
mod engine;
mod op;
mod solver;
mod tran;
mod workspace;

pub use ac::{
    ac_analysis, ac_analysis_with_op, ac_analysis_with_op_in, AcResult, Sweep, MAX_SWEEP_POINTS,
};
pub use dc::{dc_sweep, DcSweepResult};
pub use engine::Engine;
pub use op::{dc_operating_point, OpOptions, OpResult, SolveBudget};
pub use solver::{solver_report, SolverChoice, SolverReport, DENSE_MAX_DIM};
pub use tran::{transient, TranOptions, TranResult};
pub use workspace::SolverWorkspace;

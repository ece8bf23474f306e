//! Campaign construction and execution: the one runner behind `asdex
//! size` and the daemon.
//!
//! One campaign = one benchmark problem + one agent + one seed + one
//! budget, run to completion (or drain). A spec becomes a run here and
//! nowhere else:
//!
//! * [`validate`] is the admission check. `POST /campaigns` and `asdex
//!   size` both call it before any file is created, so a refused spec
//!   leaves nothing on disk.
//! * [`problem_for`] turns a spec into its problem: bench, corner set,
//!   solver backend, netlist digest. The runner and every worker process
//!   build through it.
//! * [`run_spec`] runs a campaign. It attaches what its caller supplies
//!   in a [`RunContext`] (journal, threads or thread share, cancel token,
//!   dedup store, worker pool, progress sink), runs [`run_campaign`]
//!   under a panic guard, and checkpoints the journal on every ending.
//!   The CLI and the daemon differ only in the context they pass and in
//!   how they open the journal.
//!
//! The names accepted here are the single vocabulary of benches, corner
//! sets, solvers and agents, so `asdex size`, `POST /campaigns`, journal
//! resume and worker processes accept exactly the same ones.

use crate::metrics::WorkerStats;
use crate::pool::{WorkerPool, WorkerPoolConfig};
use crate::protocol::CampaignSpec;
use asdex_baselines::{CustomizedBo, RandomSearch};
use asdex_core::{Framework, FrameworkConfig, ProgressEvent, ProgressHandle, ProgressPhase, PvtStrategy};
use asdex_env::circuits::ico::Ico;
use asdex_env::circuits::ldo::Ldo;
use asdex_env::circuits::opamp::TwoStageOpamp;
use asdex_env::circuits::synthetic::Bowl;
use asdex_env::{
    CancelToken, EvalStats, EvalStore, HealthStats, Journal, JournalError, NetlistBench, PvtSet,
    SearchBudget, Searcher, SizingProblem,
};
use asdex_spice::analysis::SolverChoice;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};

/// What a finished campaign reports, agent-agnostic. The serving layer's
/// canonical result record — serialized by
/// [`crate::protocol::outcome_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// `true` when a fully feasible point was found within budget.
    pub success: bool,
    /// Simulator invocations spent.
    pub simulations: usize,
    /// Best point found (normalized coordinates).
    pub best_point: Vec<f64>,
    /// Best point in physical parameter values.
    pub best_physical: Vec<f64>,
    /// Value of the best point (0 ⇔ feasible).
    pub best_value: f64,
    /// Evaluation telemetry.
    pub stats: EvalStats,
    /// Self-healing telemetry.
    pub health: HealthStats,
}

/// Builds a benchmark problem by name. Accepts the hardware benchmarks
/// (`opamp45`, `opamp22`, `ldo`, `ico`), the synthetic `bowl<dim>`
/// family (e.g. `bowl3`) whose nanosecond evaluations make service tests
/// and load generation cheap, and `netlist:<path>` — a sizing deck on
/// disk, compiled by [`asdex_env::NetlistBench`].
pub fn build_problem(bench: &str, corners: &str) -> Result<SizingProblem, String> {
    build_problem_checked(bench, corners, None)
}

/// [`build_problem`] with an expected netlist digest. For a
/// `netlist:<path>` bench the deck is re-compiled and its FNV-1a source
/// digest must match `netlist_digest` (when given) — the guard that
/// makes journal resume and worker processes refuse a deck that was
/// edited after admission. A digest on a built-in bench is a typed error.
pub fn build_problem_checked(
    bench: &str,
    corners: &str,
    netlist_digest: Option<u64>,
) -> Result<SizingProblem, String> {
    let corner_set = match corners {
        "nominal" => PvtSet::nominal_only(),
        "signoff5" => PvtSet::signoff5(),
        other => return Err(format!("unknown corner set {other:?} (nominal|signoff5)")),
    };
    if let Some(path) = bench.strip_prefix("netlist:") {
        if path.is_empty() {
            return Err("netlist bench has an empty path (use netlist:<path>)".to_string());
        }
        let deck = NetlistBench::load(Path::new(path)).map_err(|e| e.to_string())?;
        if let Some(want) = netlist_digest {
            deck.expect_digest(want).map_err(|e| e.to_string())?;
        }
        return deck.problem_with(corner_set).map_err(|e| e.to_string());
    }
    if let Some(digest) = netlist_digest {
        return Err(format!(
            "netlist digest {digest:016x} given for built-in benchmark {bench:?}"
        ));
    }
    let problem = match bench {
        "opamp45" => TwoStageOpamp::bsim45().problem(),
        "opamp22" => TwoStageOpamp::bsim22().problem(),
        "ldo" => Ldo::n6().problem(),
        "ico" => Ico::n5().problem(),
        _ => match bench.strip_prefix("bowl").and_then(|d| d.parse::<usize>().ok()) {
            Some(dim) if (1..=16).contains(&dim) => Bowl::problem(dim, 0.2),
            Some(dim) => return Err(format!("bowl dimension must be 1..=16, got {dim}")),
            None => {
                return Err(format!(
                    "unknown benchmark {bench:?} (opamp45|opamp22|ldo|ico|bowl<dim>|netlist:<path>)"
                ))
            }
        },
    };
    // Every built-in evaluates at whatever corners its problem carries.
    let mut problem = problem.map_err(|e| e.to_string())?;
    problem.corners = corner_set;
    Ok(problem)
}

/// Why [`pin_netlist`] refused a `netlist:<path>` bench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistRefusal {
    /// The path holds whitespace or `=`, which journal metadata and
    /// manifest records (whitespace-free `key=value` tokens) would mangle.
    Unjournalable(String),
    /// The deck cannot be read or does not compile.
    Deck(String),
}

impl fmt::Display for NetlistRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistRefusal::Unjournalable(msg) | NetlistRefusal::Deck(msg) => f.write_str(msg),
        }
    }
}

/// Admits a `netlist:<path>` bench before any journal exists, for `asdex
/// size` and the daemon alike: refuses a path no journal can record, then
/// pins the deck's source digest when the spec carries none, so that a
/// resume or a worker process refuses the deck once it is edited. Other
/// benches pass unchanged.
///
/// # Errors
///
/// [`NetlistRefusal`] for an unjournalable path or an unloadable deck.
pub fn pin_netlist(spec: &mut CampaignSpec) -> Result<(), NetlistRefusal> {
    let Some(path) = spec.bench.strip_prefix("netlist:") else {
        return Ok(());
    };
    if path.contains(char::is_whitespace) || path.contains('=') {
        return Err(NetlistRefusal::Unjournalable(format!(
            "netlist path {path:?} contains whitespace or '=' and cannot be journaled"
        )));
    }
    if spec.netlist_digest.is_none() && !path.is_empty() {
        let deck = NetlistBench::load(Path::new(path))
            .map_err(|e| NetlistRefusal::Deck(e.to_string()))?;
        spec.netlist_digest = Some(deck.digest());
    }
    Ok(())
}

/// The admission check: the spec's bench, corner set, solver and agent
/// are known, a netlist deck still matches its pinned digest, and the
/// agent can size the spec's corners (BO models one corner, so it takes
/// only single-corner sets). Returns the spec's problem with nothing
/// attached.
pub fn validate(spec: &CampaignSpec) -> Result<SizingProblem, String> {
    let problem = problem_for(spec)?;
    if !matches!(spec.agent.as_str(), "trm" | "bo" | "random") {
        return Err(format!("unknown agent {:?} (trm|bo|random)", spec.agent));
    }
    if spec.agent == "bo" && problem.corners.len() > 1 {
        return Err(format!(
            "unsupported corner set {:?} for agent \"bo\": it models one corner (use trm or random)",
            spec.corners
        ));
    }
    Ok(problem)
}

/// The problem a spec sizes: [`build_problem_checked`] on its bench,
/// corner set and netlist digest, with its solver backend pinned. Both
/// are part of the campaign's identity: the digest pinned at admission
/// (or restored from the journal on resume) must still match the deck on
/// disk, so an edited netlist is a typed failure, never a silently
/// different campaign.
pub fn problem_for(spec: &CampaignSpec) -> Result<SizingProblem, String> {
    let solver = SolverChoice::from_label(&spec.solver)
        .ok_or_else(|| format!("unknown solver {:?} (auto|dense|sparse)", spec.solver))?;
    Ok(build_problem_checked(&spec.bench, &spec.corners, spec.netlist_digest)?.with_solver(solver))
}

/// What one run of a campaign is given besides its spec. None of it is
/// part of the campaign's identity. Threads, workers, the dedup store and
/// the progress sink change where and how fast evaluations run, never the
/// outcome. The journal replays what an earlier run recorded. The cancel
/// token ends a run early, resumably.
#[derive(Debug, Default)]
pub struct RunContext {
    /// Journal to replay from and record into. The caller opened or
    /// resumed it, and may keep the handle.
    pub journal: Option<Arc<Mutex<Journal>>>,
    /// Static batch-evaluation thread count (`asdex size --threads`);
    /// 0 defers to `ASDEX_THREADS`.
    pub threads: usize,
    /// Live fair share of a shared thread budget, re-read at every batch;
    /// 0 (the default) defers to `threads`.
    pub thread_share: Arc<AtomicUsize>,
    /// Drain hook: once pulled, no further simulation starts. The default
    /// token is never pulled.
    pub cancel: CancelToken,
    /// Cross-campaign dedup store for the spec's evaluation identity.
    pub store: Option<Arc<EvalStore>>,
    /// Worker processes to evaluate in; 0 evaluates in this process.
    pub workers: usize,
    /// Binary spawned as `<program> worker …`; `None` re-executes the
    /// current one.
    pub worker_program: Option<PathBuf>,
    /// Supervision counters the worker pool reports into.
    pub worker_stats: Arc<WorkerStats>,
    /// Observational progress sink.
    pub progress: Option<ProgressHandle>,
}

/// How a [`run_spec`] ended.
#[derive(Debug)]
pub struct CampaignRun {
    /// The campaign's outcome, or why it could not run.
    pub outcome: Result<CampaignOutcome, String>,
    /// The final journal checkpoint: `(replayed, recorded)` after it, or
    /// its storage failure. `None` without a journal.
    pub journal: Option<Result<(usize, usize), JournalError>>,
}

/// Runs the campaign `spec` describes. Builds its problem with
/// [`problem_for`] and attaches what `ctx` carries. When `ctx.workers >
/// 0`, every attempt goes to a supervised pool of `asdex worker` children
/// built for the same spec; its fallback evaluator is the problem's own,
/// so a pool that loses every worker degrades to in-process execution
/// with an identical outcome. Then runs [`run_campaign`] with a panic
/// typed as a failure, shuts the pool down, and checkpoints the journal
/// on every ending: success, failure or drain.
pub fn run_spec(spec: &CampaignSpec, ctx: RunContext) -> CampaignRun {
    let journal = ctx.journal.clone();
    let outcome = run_attached(spec, ctx);
    let journal = journal.and_then(|handle| {
        let mut j = handle.lock().ok()?;
        Some(j.checkpoint().map(|()| (j.replayed(), j.recorded())))
    });
    CampaignRun { outcome, journal }
}

fn run_attached(spec: &CampaignSpec, ctx: RunContext) -> Result<CampaignOutcome, String> {
    let mut problem = problem_for(spec)?
        .with_threads(ctx.threads)
        .with_thread_share(ctx.thread_share)
        .with_cancel_token(ctx.cancel);
    if let Some(journal) = ctx.journal {
        problem = problem.with_shared_journal(journal);
    }
    if let Some(store) = ctx.store {
        problem = problem.with_eval_store(store);
    }
    let pool = if ctx.workers > 0 {
        let program = match ctx.worker_program {
            Some(program) => program,
            None => std::env::current_exe()
                .map_err(|e| format!("cannot locate the worker binary: {e}"))?,
        };
        let mut cfg = WorkerPoolConfig::new(program, &spec.bench, &spec.corners, ctx.workers);
        cfg.solver = spec.solver.clone();
        cfg.netlist_digest = spec.netlist_digest;
        let pool = WorkerPool::for_problem(cfg, &problem, ctx.worker_stats);
        problem = problem.with_dispatcher(pool.clone());
        Some(pool)
    } else {
        None
    };
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_campaign(&problem, spec, ctx.progress)
    }));
    if let Some(pool) = pool {
        pool.shutdown();
    }
    run.unwrap_or_else(|_| Err("campaign runner panicked".to_string()))
}

/// Runs one campaign's search on an already-configured problem:
/// [`run_spec`]'s inner step, public for harnesses that configure the
/// problem themselves. Progress events, when a sink is supplied, are
/// purely observational.
pub fn run_campaign(
    problem: &SizingProblem,
    spec: &CampaignSpec,
    progress: Option<ProgressHandle>,
) -> Result<CampaignOutcome, String> {
    let (success, simulations, best_point, best_value, stats, health) = match spec.agent.as_str() {
        "trm" => {
            let mut framework = Framework::new(
                FrameworkConfig {
                    budget: Some(spec.budget),
                    pvt_strategy: Some(PvtStrategy::ProgressiveHardest),
                    ..FrameworkConfig::default()
                },
                spec.seed,
            );
            if let Some(handle) = progress {
                framework = framework.with_progress(handle);
            }
            let out = framework.search(problem).map_err(|e| e.to_string())?;
            (out.success, out.simulations, out.best_point, out.best_value, out.stats, out.health)
        }
        "bo" | "random" => {
            let out = if spec.agent == "bo" {
                CustomizedBo::new().search(problem, SearchBudget::new(spec.budget), spec.seed)
            } else {
                RandomSearch::new().search(problem, SearchBudget::new(spec.budget), spec.seed)
            };
            // The baseline agents carry no progress plumbing; emit the
            // terminal event here so every campaign reports at least its
            // ending. Emission happens after the search returned — it
            // cannot perturb the outcome.
            if let Some(handle) = &progress {
                handle.emit(&ProgressEvent {
                    phase: ProgressPhase::Done,
                    simulations: out.simulations,
                    best_value: out.best_value,
                    feasible: out.success,
                    corner: None,
                });
            }
            (out.success, out.simulations, out.best_point, out.best_value, out.stats, out.health)
        }
        other => return Err(format!("unknown agent {other:?} (trm|bo|random)")),
    };
    let best_physical = problem.space.to_physical(&best_point).map_err(|e| e.to_string())?;
    // Surface journal appends that were degraded to drops. Zero on
    // healthy storage, so clean runs stay bitwise-comparable to
    // journal-less runs.
    let mut stats = stats;
    if let Some(handle) = problem.journal_handle() {
        if let Ok(journal) = handle.lock() {
            stats.journal_drops += journal.dropped();
        }
    }
    Ok(CampaignOutcome {
        success,
        simulations,
        best_point,
        best_physical,
        best_value,
        stats,
        health,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bowl_benchmarks_parse_and_run() {
        let problem = build_problem("bowl2", "nominal").unwrap();
        assert_eq!(problem.dim(), 2);
        let spec = CampaignSpec { budget: 400, ..CampaignSpec::default() };
        let outcome = run_campaign(&problem, &spec, None).unwrap();
        assert!(outcome.success, "bowl2 should be easy within 400 sims");
        assert_eq!(outcome.best_physical.len(), 2);
    }

    #[test]
    fn netlist_benches_build_and_digest_guard_is_typed() {
        let deck = "rc demo\n.process 45\n.sizeparam rser 1e3 1e5 STEP 8\n\
                    .goal gain_db >= -20\nVDD vdd 0 {vdd}\nVIN in 0 DC 0.5 AC 1\n\
                    RS in out {rser}\nRL vdd out 1e3\nC1 out 0 1e-9\n.end\n";
        let dir = std::env::temp_dir().join(format!("asdex-camp-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rc.sp");
        std::fs::write(&path, deck).unwrap();
        let bench = format!("netlist:{}", path.display());

        let problem = build_problem(&bench, "nominal").unwrap();
        assert_eq!(problem.dim(), 1);
        let good = asdex_env::netlist_digest(deck);
        assert!(build_problem_checked(&bench, "nominal", Some(good)).is_ok());
        // Wrong digest (edited deck), digest on a built-in bench, and a
        // missing file are all typed errors.
        let err = build_problem_checked(&bench, "nominal", Some(good ^ 1)).unwrap_err();
        assert!(err.contains("digest"), "{err}");
        assert!(build_problem_checked("bowl2", "nominal", Some(good)).is_err());
        assert!(build_problem("netlist:/nonexistent/x.sp", "nominal").is_err());
        assert!(build_problem("netlist:", "nominal").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_builtin_bench_runs_at_the_requested_corner_set() {
        for bench in ["opamp45", "opamp22", "ldo", "ico", "bowl2"] {
            for (corners, n) in [("nominal", 1), ("signoff5", 5)] {
                let problem = build_problem(bench, corners).unwrap();
                assert_eq!(problem.corners.len(), n, "{bench} at {corners}");
            }
        }
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        assert!(build_problem("opamp99", "nominal").is_err());
        assert!(build_problem("bowl0", "nominal").is_err());
        assert!(build_problem("bowl3", "weird").is_err());
        let problem = build_problem("bowl2", "nominal").unwrap();
        let spec =
            CampaignSpec { agent: "dqn".to_string(), budget: 10, ..CampaignSpec::default() };
        assert!(run_campaign(&problem, &spec, None).is_err());
    }

    #[test]
    fn agents_share_the_same_entry_point() {
        let problem = build_problem("bowl2", "nominal").unwrap();
        for agent in ["trm", "bo", "random"] {
            let spec = CampaignSpec {
                agent: agent.to_string(),
                budget: 150,
                ..CampaignSpec::default()
            };
            let outcome = run_campaign(&problem, &spec, None).unwrap();
            assert!(outcome.simulations <= 150 + 8, "{agent} overspent");
        }
    }
}

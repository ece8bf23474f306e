//! `asdex` — command-line front end for the sizing framework.
//!
//! ```text
//! asdex size <opamp45|opamp22|ldo|ico|bowl<dim>> [--agent trm|bo|random]
//!            [--budget N] [--seed N] [--corners nominal|signoff5] [--json]
//! asdex size --netlist <deck.sp> [...]
//! asdex size --resume <path>
//! asdex probe <opamp45|opamp22|ldo|ico|bowl<dim>> [--samples N] [--json]
//! asdex probe --netlist <deck.sp> [...]
//! asdex sim <deck.cir>
//! asdex serve [--addr host:port] [--journal-dir dir] [--threads N] [--workers N]
//! asdex loadgen [--addr host:port] [--n N] [--out csv]
//! asdex worker --bench name [--corners set]   (internal: pool child process)
//! ```
//!
//! `size` runs a search agent on a built-in benchmark and prints the sized
//! parameters; `probe` estimates the benchmark's feasible fraction (the
//! calibration workflow); `sim` parses a SPICE deck and reports its DC
//! operating point and, when an AC source is present, its frequency
//! response; `serve` runs the sizing-as-a-service daemon; `loadgen`
//! hammers a daemon with concurrent campaigns and records throughput.
//!
//! With `--journal` the campaign appends every evaluation to a crash-safe
//! checkpoint journal; after a crash (or Ctrl-C), `--resume` replays the
//! journal and continues the campaign, producing the same result as an
//! uninterrupted run. Journal status goes to stderr so stdout stays
//! byte-identical between clean and resumed runs.

use asdex::env::{Journal, JournalError};
use asdex::serve::json::Json;
use asdex::serve::lockdir::{DirLock, LockError};
use asdex::serve::protocol::{outcome_json, stats_json, CampaignSpec};
use asdex::serve::server::{DrainHandle, Server, ServerConfig};
use asdex::serve::{
    logging, pin_netlist, LoadgenConfig, LogLevel, NetlistRefusal, RunContext, SchedulerConfig,
};
use asdex::spice::analysis::{ac_analysis, dc_operating_point, dc_sweep, transient, OpOptions, Sweep, TranOptions};
use asdex::spice::measure::frequency_response;
use asdex::spice::parser::{parse_deck, AnalysisCard};
use asdex::spice::ElementKind;
use std::fmt;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const USAGE: &str = "\
asdex — analog sizing design-space explorer

USAGE:
    asdex size  <opamp45|opamp22|ldo|ico|bowl<dim>> [--agent trm|bo|random]
                [--budget N] [--seed N] [--corners nominal|signoff5]
                [--threads N] [--workers N] [--solver auto|dense|sparse]
                [--journal path] [--checkpoint-every N] [--json] [--quiet]
    asdex size  --netlist <deck.sp> [same flags as above]
    asdex size  --resume <path> [--threads N] [--checkpoint-every N]
    asdex probe <opamp45|opamp22|ldo|ico|bowl<dim>> [--samples N]
                [--threads N] [--json]
    asdex probe --netlist <deck.sp> [--samples N] [--threads N] [--json]
    asdex sim   <deck.cir>
    asdex serve [--addr host:port] [--journal-dir dir] [--threads N]
                [--workers N] [--queue N] [--max-active N]
                [--conn-timeout SECS] [--max-conns N] [--rate-limit PER_SEC]
                [--admission-timeout SECS] [--no-dedup]
                [--no-recover] [--log-level quiet|info|debug] [--quiet]
    asdex loadgen [--addr host:port] [--n N] [--concurrency N]
                  [--bench name] [--agent name] [--budget N]
                  [--corners set] [--out csv] [--timeout-secs N]
                  [--retries N] [--idle-conns N] [--duplicate]
                  [--netlist deck.sp] [--quiet]

`--threads N` sets the batch-evaluation worker count (default: the
ASDEX_THREADS environment variable, else serial); for `serve` it is the
global budget shared fairly across concurrent campaigns. The thread
count changes wall-clock only, never results.

`--workers N` runs every evaluation attempt in one of N sandboxed
`asdex worker` child processes (default 0: in-process). A worker crash,
hang, or kill is absorbed by the supervisor as a typed evaluation
failure — restarted with backoff, re-dispatched, or quarantined — and
never takes down the daemon. Results are bitwise identical at any
worker count, including 0.

`--solver` picks the linear-solver backend for every simulation in the
campaign (default `auto`: blocked dense for small MNA systems, sparse
LU with symbolic reuse for large ones; the ASDEX_SOLVER environment
variable sets the same default process-wide). Each backend is
individually bitwise-deterministic at any thread or worker count, but
dense and sparse agree only within solver tolerance, so the choice is
recorded in the journal and pinned on resume.

`--netlist deck.sp` sizes a user-written netlist bench instead of a
built-in one: the deck declares its own search axes (`.sizeparam`),
specs (`.goal`), objective (`.fom`), and process (`.process`), and is
compiled into exactly the problem shape the built-ins use. The deck's
FNV-1a source digest is recorded in the journal, so `--resume` (and the
daemon's crash recovery) refuse a deck edited after the campaign
started. For `loadgen`, the deck is read once and submitted inline in
every `POST /campaigns` body.

`--journal path` records every evaluation to an append-only journal
(fsync'd every --checkpoint-every records, default 25, and on Ctrl-C).
`--resume path` restores the campaign from a journal: the benchmark,
agent, seed, budget, and corners are read back from the journal's
metadata, recorded evaluations are replayed without simulating, and the
campaign continues to the same outcome an uninterrupted run produces.

`--json` prints one machine-readable JSON document to stdout (floats
also carried as IEEE-754 hex bits, the daemon's wire format). `--quiet`
silences stderr chatter.

`serve` fronts everything with a nonblocking connection reactor: open
connections are capped at --max-conns (arrivals beyond it are shed with
a typed 503 + Retry-After), and every connection phase — request head,
body, response write — is bounded by --conn-timeout, so slow-loris and
half-open clients are reaped, never accumulated. --rate-limit applies a
per-client token bucket to POST /campaigns (429 + Retry-After);
--admission-timeout sheds campaigns still queued after that many
seconds (typed failed, message prefixed `shed:`) instead of running
work whose client gave up. Concurrent campaigns with identical specs
share a cross-campaign evaluation dedup store — each point is simulated
once, with zero effect on results (disable with --no-dedup).

`loadgen` surfaces shed/retry counts; --idle-conns N holds N half-open
connections for the run's duration (an overload storm) and --duplicate
submits identical specs to exercise the dedup store.

`serve` accepts campaigns over HTTP (POST /campaigns) and journals each
to <journal-dir>/<id>.journal. Every admission and lifecycle transition
is also fsync'd write-ahead to <journal-dir>/manifest.log, so daemon
death is a non-event: on restart the scheduler replays the manifest,
re-exposes finished campaigns, and re-admits incomplete ones, which
resume from their journals with zero duplicate simulations. `GET
/readyz` answers 503 until that replay finishes (use it as the
readiness probe; /healthz stays the liveness probe); `--no-recover`
skips the replay. The journal directory is fenced by an exclusive
pid+epoch lock file (asdex.lock) honored by both the daemon and `size
--journal/--resume`; a second opener fails typed, and a lock left by a
dead process is reclaimed automatically. SIGINT and SIGTERM are handled
identically: the daemon drains gracefully (admission stops, running
campaigns checkpoint, exit 0); a journaled `size` run checkpoints and
exits 130.

EXIT CODES:
    0  success (serve: clean drain on SIGINT/SIGTERM)
    1  runtime failure                 2  usage error
    130  interrupted (SIGINT/SIGTERM; journal checkpointed)
";

/// Typed CLI failure with an exit-code mapping: usage mistakes exit 2,
/// runtime failures exit 1 (interrupts exit 130 via the signal path).
#[derive(Debug)]
enum CliError {
    /// The invocation itself was malformed (missing argument, unknown
    /// command/agent/benchmark, unparseable flag).
    Usage(String),
    /// A journal could not be created or resumed.
    Journal(JournalError),
    /// The journal directory is fenced by another live process.
    Lock(LockError),
    /// A file could not be read or written.
    Io { path: String, source: std::io::Error },
    /// The simulation or search itself failed.
    Runtime(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Journal(e) => write!(f, "{e}"),
            CliError::Lock(e) => write!(f, "{e}"),
            CliError::Io { path, source } => write!(f, "cannot access {path}: {source}"),
            CliError::Runtime(msg) => write!(f, "{msg}"),
        }
    }
}

impl From<JournalError> for CliError {
    fn from(e: JournalError) -> Self {
        CliError::Journal(e)
    }
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Journal(_)
            | CliError::Lock(_)
            | CliError::Io { .. }
            | CliError::Runtime(_) => 1,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--quiet") {
        logging::set_level(LogLevel::Quiet);
    }
    let result = match args.first().map(String::as_str) {
        Some("size") => cmd_size(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        Some("sim") => cmd_sim(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}\n\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// The flags one command reads, and whether it takes a positional
/// argument. Every command also takes `--quiet`.
struct Flags {
    /// The command's name, for error messages.
    command: &'static str,
    /// Flags that consume the following argument as their value.
    values: &'static [&'static str],
    /// Flags that stand alone.
    switches: &'static [&'static str],
    /// Whether the command takes one positional argument.
    positional: bool,
}

const SIZE_FLAGS: Flags = Flags {
    command: "size",
    values: &[
        "--agent", "--budget", "--seed", "--corners", "--threads", "--workers", "--solver",
        "--journal", "--checkpoint-every", "--resume", "--netlist",
    ],
    switches: &["--json"],
    positional: true,
};

const PROBE_FLAGS: Flags = Flags {
    command: "probe",
    values: &["--samples", "--threads", "--netlist"],
    switches: &["--json"],
    positional: true,
};

const SIM_FLAGS: Flags = Flags { command: "sim", values: &[], switches: &[], positional: true };

const SERVE_FLAGS: Flags = Flags {
    command: "serve",
    values: &[
        "--addr", "--journal-dir", "--threads", "--workers", "--queue", "--max-active",
        "--conn-timeout", "--max-conns", "--rate-limit", "--admission-timeout", "--log-level",
    ],
    switches: &["--no-dedup", "--no-recover"],
    positional: false,
};

const LOADGEN_FLAGS: Flags = Flags {
    command: "loadgen",
    values: &[
        "--addr", "--n", "--concurrency", "--bench", "--agent", "--budget", "--corners", "--out",
        "--timeout-secs", "--retries", "--idle-conns", "--netlist",
    ],
    switches: &["--duplicate"],
    positional: false,
};

const WORKER_FLAGS: Flags = Flags {
    command: "worker",
    values: &[
        "--bench", "--corners", "--solver", "--netlist-digest", "--fault-rate", "--fault-seed",
        "--fault-mode",
    ],
    switches: &[],
    positional: false,
};

/// One command's arguments, read against its [`Flags`]: a flag the
/// command does not read, a value flag with no value, or a positional
/// argument it does not take is a usage error that names it. A flag
/// given twice keeps its first value.
struct Args<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positional: Option<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(args: &'a [String], flags: &Flags) -> Result<Self, CliError> {
        let command = flags.command;
        let mut parsed = Args { values: Vec::new(), switches: Vec::new(), positional: None };
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if flags.values.contains(&arg) {
                let value = rest
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("{command}: {arg} needs a value")))?;
                parsed.values.push((arg, value));
            } else if arg == "--quiet" || flags.switches.contains(&arg) {
                parsed.switches.push(arg);
            } else if arg.starts_with("--") {
                return Err(CliError::Usage(format!(
                    "{command} does not take {arg} (see asdex --help)"
                )));
            } else if flags.positional && parsed.positional.is_none() {
                parsed.positional = Some(arg);
            } else {
                return Err(CliError::Usage(format!(
                    "{command}: unexpected argument {arg:?} (see asdex --help)"
                )));
            }
        }
        Ok(parsed)
    }

    /// The value given to `flag`, if any.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values.iter().find(|(f, _)| *f == flag).map(|&(_, v)| v)
    }

    /// Whether the bare `switch` is present.
    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The value given to `flag`, parsed, or `default` when absent.
    fn parse_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        match self.value(flag) {
            Some(v) => {
                v.parse().map_err(|_| CliError::Usage(format!("cannot parse {flag} value {v:?}")))
            }
            None => Ok(default),
        }
    }
}

/// Maps a campaign-vocabulary error (unknown bench, corner set, solver or
/// agent, or an agent that cannot size the corner set) to a usage error
/// and anything else, such as an unreadable or edited deck, to a runtime
/// failure. The vocabulary itself lives in [`asdex::serve::campaign`], so
/// the CLI and the daemon accept exactly the same specs.
fn spec_error(e: String) -> CliError {
    if e.starts_with("unknown") || e.starts_with("unsupported") {
        CliError::Usage(e)
    } else {
        CliError::Runtime(e)
    }
}

/// Resolves the `--netlist <path>` / positional-bench pair into one bench
/// name, rejecting ambiguous invocations.
fn netlist_or_positional(args: &Args, what: &str) -> Result<Option<String>, CliError> {
    match args.value("--netlist") {
        Some(path) => {
            if args.positional.is_some() {
                return Err(CliError::Usage(format!(
                    "{what} takes either a benchmark name or --netlist, not both"
                )));
            }
            Ok(Some(format!("netlist:{path}")))
        }
        None => Ok(args.positional.map(str::to_string)),
    }
}

/// Set by the `SIGINT`/`SIGTERM` handler; polled by the watcher thread.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Routes both `SIGINT` (Ctrl-C) and `SIGTERM` (service managers, `kill`)
/// to `action`, run once on a watcher thread. The two signals are handled
/// identically everywhere. The handler itself only flips an atomic (the
/// full async-signal-safe contract); all I/O happens on the watcher
/// thread.
fn on_interrupt(action: impl FnOnce() + Send + 'static) {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: installing a handler that only stores to a static
    // `AtomicBool` — async-signal-safe, and `signal` is specified for
    // exactly this use.
    unsafe {
        signal(SIGINT, on_sigint);
        signal(SIGTERM, on_sigint);
    }
    std::thread::spawn(move || {
        while !INTERRUPTED.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        action();
    });
}

/// Acquires the exclusive pid+epoch fence on a journal's directory — the
/// same lock the daemon holds on its `--journal-dir` — so a CLI resume
/// can never write into a directory a live daemon owns (and vice versa).
fn lock_journal_dir(journal_path: &Path) -> Result<DirLock, CliError> {
    let dir = match journal_path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    DirLock::acquire(&dir).map_err(CliError::Lock)
}

/// Checkpoints the journal, prints the resume hint and exits 130 on
/// `SIGINT`/`SIGTERM`. Only installed when a journal is active — without
/// one, default signal behaviour is left alone.
fn checkpoint_on_interrupt(journal: Arc<Mutex<Journal>>) {
    on_interrupt(move || {
        if let Ok(mut j) = journal.lock() {
            let _ = j.checkpoint();
            logging::info(format!("\ninterrupted: journal checkpointed at {}", j.path().display()));
            logging::info(format!("resume with: asdex size --resume {}", j.path().display()));
        }
        std::process::exit(130);
    });
}

/// A resume runs the campaign its journal recorded, so every flag that
/// names part of that campaign — the bench (by name or `--netlist`, whose
/// deck the journal pins by path and digest), agent, seed, budget, corner
/// set, solver and journal — must repeat the recorded value or be left
/// out. Anything else is a usage error naming the flag and the recorded
/// value, rather than a flag the resume would silently drop.
fn refuse_resume_conflicts(
    args: &Args,
    spec: &CampaignSpec,
    journal: &Path,
) -> Result<(), CliError> {
    let conflict = |flag: &str, given: &str, recorded: &dyn fmt::Debug| {
        Err(CliError::Usage(format!(
            "{flag} {given} conflicts with the journal's recorded value {recorded:?}; \
             resume runs the recorded campaign"
        )))
    };
    if let Some(bench) = netlist_or_positional(args, "size")?.filter(|b| *b != spec.bench) {
        return match args.value("--netlist") {
            Some(path) => conflict("--netlist", path, &spec.bench),
            None => conflict("benchmark", &bench, &spec.bench),
        };
    }
    for (flag, recorded) in
        [("--agent", &spec.agent), ("--corners", &spec.corners), ("--solver", &spec.solver)]
    {
        if let Some(given) = args.value(flag).filter(|v| *v != recorded) {
            return conflict(flag, given, recorded);
        }
    }
    if args.parse_or("--seed", spec.seed)? != spec.seed {
        return conflict("--seed", args.value("--seed").unwrap_or_default(), &spec.seed);
    }
    if args.parse_or("--budget", spec.budget)? != spec.budget {
        return conflict("--budget", args.value("--budget").unwrap_or_default(), &spec.budget);
    }
    if let Some(given) = args.value("--journal") {
        let canonical = |p: &Path| std::fs::canonicalize(p).ok();
        let recorded = canonical(journal);
        if recorded.is_none() || canonical(Path::new(given)) != recorded {
            return conflict("--journal", given, &journal.display().to_string());
        }
    }
    Ok(())
}

fn cmd_size(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse(args, &SIZE_FLAGS)?;
    let checkpoint_every = args.parse_or("--checkpoint-every", 25usize)?;
    let threads = args.parse_or("--threads", 0usize)?;
    let workers = args.parse_or("--workers", 0usize)?;
    let json_output = args.has("--json");
    let solver_flag = args.value("--solver");

    // Either restore the campaign identity from a journal, or read it from
    // the command line. Any journal activity first fences the journal's
    // directory — held for the whole run so a live daemon and a CLI resume
    // can never interleave writes.
    let resumed = match args.value("--resume") {
        Some(path) => {
            let guard = lock_journal_dir(Path::new(path))?;
            Some((Journal::resume(Path::new(path), checkpoint_every)?, guard))
        }
        None => None,
    };
    let spec = match &resumed {
        Some((journal, _)) => {
            let spec = CampaignSpec::from_meta(journal.meta()).map_err(CliError::Runtime)?;
            refuse_resume_conflicts(&args, &spec, journal.path())?;
            spec
        }
        None => {
            let bench = netlist_or_positional(&args, "size")?.ok_or_else(|| {
                CliError::Usage(format!("size needs a benchmark or --netlist\n\n{USAGE}"))
            })?;
            let mut spec = CampaignSpec {
                bench,
                agent: args.value("--agent").unwrap_or("trm").to_string(),
                seed: args.parse_or("--seed", 1u64)?,
                budget: args.parse_or("--budget", 10_000usize)?,
                corners: args.value("--corners").unwrap_or("nominal").to_string(),
                checkpoint_every,
                solver: solver_flag.unwrap_or("auto").to_string(),
                netlist: None,
                netlist_digest: None,
            };
            // The daemon's netlist admission, before the journal is
            // created: its metadata must record the deck's path intact
            // and its digest, so that resume can refuse an edited deck.
            pin_netlist(&mut spec).map_err(|e| match e {
                NetlistRefusal::Unjournalable(msg) => CliError::Usage(msg),
                NetlistRefusal::Deck(msg) => CliError::Runtime(msg),
            })?;
            spec
        }
    };
    // The daemon's admission check, before any journal file is created: a
    // refused spec leaves nothing on disk. The problem it returns has no
    // journal or worker pool attached, so the printout below can evaluate
    // on it without touching either.
    let problem = asdex::serve::validate(&spec).map_err(spec_error)?;
    let (journal, _dir_lock) = match resumed {
        Some((journal, guard)) => {
            logging::info(format!(
                "journal: resuming {} ({} recorded evaluations to replay)",
                journal.path().display(),
                journal.recorded()
            ));
            (Some(journal), Some(guard))
        }
        None => match args.value("--journal") {
            Some(jpath) => {
                let guard = lock_journal_dir(Path::new(jpath))?;
                let journal = Journal::create(Path::new(jpath), spec.to_meta(), checkpoint_every)?;
                logging::info(format!("journal: recording to {}", journal.path().display()));
                (Some(journal), Some(guard))
            }
            None => (None, None),
        },
    };
    let journal = journal.map(|j| Arc::new(Mutex::new(j)));
    if let Some(handle) = &journal {
        checkpoint_on_interrupt(Arc::clone(handle));
    }

    if !json_output {
        println!(
            "{} — {} parameters, |D| ≈ 10^{:.1}, {} corner(s), budget {}",
            problem.name,
            problem.dim(),
            problem.space.size_log10(),
            problem.corners.len(),
            spec.budget
        );
    }

    // The daemon's runner: with --workers, the CLI binary re-executes
    // itself as the workers. The runner checkpoints the journal before it
    // returns, so a crash after this point costs nothing.
    let ctx = RunContext { journal: journal.clone(), threads, workers, ..RunContext::default() };
    let run = asdex::serve::run_spec(&spec, ctx);
    let journal_info = run.journal.transpose()?;
    if let Some(j) = journal.as_ref().and_then(|handle| handle.lock().ok()) {
        logging::info(format!(
            "journal: {} evaluations replayed, {} on disk at {}",
            j.replayed(),
            j.recorded(),
            j.path().display()
        ));
        if j.unconsumed() > 0 {
            logging::info(format!(
                "journal: warning — {} recorded evaluations were never requested \
                 (campaign diverged from the journaled run?)",
                j.unconsumed()
            ));
        }
    }
    let outcome = run.outcome.map_err(CliError::Runtime)?;

    if json_output {
        // One machine-readable document, sharing the daemon's outcome
        // serializer: string equality on `outcome` ⇔ bitwise equality.
        let mut doc = Json::obj()
            .with("spec", spec.to_json())
            .with("outcome", outcome_json(&outcome));
        if let Some((replayed, recorded)) = journal_info {
            doc = doc.with(
                "journal",
                Json::obj()
                    .with("replayed", Json::Num(replayed as f64))
                    .with("recorded", Json::Num(recorded as f64)),
            );
        }
        println!("{}", doc.dump());
        return Ok(());
    }

    println!(
        "success: {} after {} simulations (value {:.4})",
        outcome.success, outcome.simulations, outcome.best_value
    );
    println!("telemetry: {}", outcome.stats);
    println!("health: {}", outcome.health);
    println!("parameters:");
    for (name, value) in problem.space.names().iter().zip(&outcome.best_physical) {
        println!("  {name:>10} = {value:.4e}");
    }
    if let Some(m) = problem.evaluate_with_budget(&outcome.best_point, 0, usize::MAX).measurements {
        println!("measurements (corner 0):");
        for (name, value) in problem.evaluator.measurement_names().iter().zip(&m) {
            println!("  {name:>14} = {value:.4e}");
        }
    }
    Ok(())
}

fn cmd_probe(args: &[String]) -> Result<(), CliError> {
    use asdex_rng::rngs::StdRng;
    use asdex_rng::SeedableRng;
    let args = Args::parse(args, &PROBE_FLAGS)?;
    let bench = netlist_or_positional(&args, "probe")?.ok_or_else(|| {
        CliError::Usage(format!("probe needs a benchmark or --netlist\n\n{USAGE}"))
    })?;
    let samples = args.parse_or("--samples", 5_000usize)?;
    let threads = args.parse_or("--threads", 0usize)?;
    let json_output = args.has("--json");
    let problem = asdex::serve::build_problem(&bench, "nominal")
        .map_err(spec_error)?
        .with_threads(threads);
    let mut rng = StdRng::seed_from_u64(1);
    let mut feasible = 0usize;
    let mut stats = asdex::env::EvalStats::new();
    // Probe in chunks so a worker pool keeps every thread busy without
    // building one giant request vector.
    const CHUNK: usize = 64;
    let mut remaining_samples = samples;
    while remaining_samples > 0 {
        let n = remaining_samples.min(CHUNK);
        let requests: Vec<asdex::env::EvalRequest> = (0..n)
            .map(|_| asdex::env::EvalRequest::new(problem.space.sample(&mut rng), 0))
            .collect();
        for e in problem.evaluate_batch(&requests, usize::MAX) {
            stats.record(&e);
            feasible += usize::from(e.feasible);
        }
        remaining_samples -= n;
    }
    if json_output {
        // Shares the daemon's telemetry serializer (satellite of the
        // serving protocol): `stats` here is the same shape as the
        // `stats` object in a campaign outcome.
        let doc = Json::obj()
            .with("bench", Json::Str(problem.name.to_string()))
            .with("samples", Json::Num(samples as f64))
            .with("feasible", Json::Num(feasible as f64))
            .with("fraction", Json::Num(feasible as f64 / samples as f64))
            .with("stats", stats_json(&stats));
        println!("{}", doc.dump());
        return Ok(());
    }
    println!(
        "{}: {feasible}/{samples} feasible ({:.2e}), {} simulation failures",
        problem.name,
        feasible as f64 / samples as f64,
        stats.total_failures()
    );
    println!("telemetry: {stats}");
    for kind in asdex::env::FailureKind::ALL {
        let n = stats.failures_of(kind);
        if n > 0 {
            println!("  {:>14}: {n}", kind.label());
        }
    }
    Ok(())
}

/// Runs the sizing-as-a-service daemon until SIGINT (or `POST /drain`),
/// then drains gracefully: admission stops, active campaigns checkpoint
/// their journals, and the process exits 0.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse(args, &SERVE_FLAGS)?;
    if let Some(label) = args.value("--log-level") {
        let level = LogLevel::from_label(label)
            .ok_or_else(|| CliError::Usage(format!("unknown log level {label:?} (quiet|info|debug)")))?;
        logging::set_level(level);
    }
    let admission_timeout = args.parse_or("--admission-timeout", 0u64)?;
    let rate_limit = args.parse_or("--rate-limit", 0.0f64)?;
    let cfg = ServerConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:8650").to_string(),
        conn_timeout: std::time::Duration::from_secs(
            args.parse_or("--conn-timeout", 10u64)?.max(1),
        ),
        max_conns: args.parse_or("--max-conns", 256usize)?.max(1),
        scheduler: SchedulerConfig {
            queue_capacity: args.parse_or("--queue", 64usize)?,
            max_active: args.parse_or("--max-active", 4usize)?,
            thread_budget: args.parse_or("--threads", 1usize)?.max(1),
            journal_dir: Path::new(args.value("--journal-dir").unwrap_or("journals"))
                .to_path_buf(),
            workers: args.parse_or("--workers", 0usize)?,
            worker_program: None,
            recover: !args.has("--no-recover"),
            disk_fault: None,
            admission_timeout: (admission_timeout > 0)
                .then(|| std::time::Duration::from_secs(admission_timeout)),
            rate_limit: (rate_limit > 0.0)
                .then(|| asdex::serve::RateLimit::per_sec(rate_limit)),
            dedup: !args.has("--no-dedup"),
        },
    };
    let drain = DrainHandle::new();
    let server = Server::bind(cfg, drain.clone())
        .map_err(|e| CliError::Runtime(format!("cannot start daemon: {e}")))?;
    // SIGINT/SIGTERM drain gracefully instead of killing the process: the
    // accept loop notices, the scheduler cancels and checkpoints, and
    // `cmd_serve` returns normally (exit 0).
    on_interrupt(move || drain.request_drain());
    server.run().map_err(|e| CliError::Runtime(format!("daemon failed: {e}")))
}

/// Hammers a daemon with concurrent campaigns and records throughput and
/// latency percentiles to a CSV.
fn cmd_loadgen(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse(args, &LOADGEN_FLAGS)?;
    // An inline-netlist load run reads the deck once and submits its
    // source in every campaign body; `bench` is then server-assigned.
    let netlist = match args.value("--netlist") {
        Some(path) => {
            if args.value("--bench").is_some() {
                return Err(CliError::Usage(
                    "loadgen takes either --bench or --netlist, not both".to_string(),
                ));
            }
            Some(std::fs::read_to_string(path).map_err(|e| CliError::Io {
                path: path.to_string(),
                source: e,
            })?)
        }
        None => None,
    };
    let cfg = LoadgenConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:8650").to_string(),
        campaigns: args.parse_or("--n", 16usize)?,
        concurrency: args.parse_or("--concurrency", 8usize)?,
        bench: args.value("--bench").unwrap_or("bowl3").to_string(),
        agent: args.value("--agent").unwrap_or("trm").to_string(),
        budget: args.parse_or("--budget", 400usize)?,
        corners: args.value("--corners").unwrap_or("nominal").to_string(),
        timeout: std::time::Duration::from_secs(args.parse_or("--timeout-secs", 300u64)?),
        retries: args.parse_or("--retries", 4u32)?,
        idle_conns: args.parse_or("--idle-conns", 0usize)?,
        duplicate: args.has("--duplicate"),
        netlist,
    };
    let out = Path::new(
        args.value("--out").unwrap_or("bench_results/serve_throughput.csv"),
    )
    .to_path_buf();
    let report = asdex::serve::loadgen::run(&cfg);
    report
        .write_csv(&out)
        .map_err(|e| CliError::Io { path: out.display().to_string(), source: e })?;
    println!(
        "loadgen: {}/{} campaigns completed in {:.2}s ({:.2} campaigns/s), {} client errors",
        report.samples.len(),
        cfg.campaigns,
        report.wall.as_secs_f64(),
        report.throughput(),
        report.client_errors
    );
    println!(
        "latency ms: submit p50 {:.2} p99 {:.2} | completion p50 {:.2} p99 {:.2}",
        report.submit_percentile_ms(0.50),
        report.submit_percentile_ms(0.99),
        report.completion_percentile_ms(0.50),
        report.completion_percentile_ms(0.99)
    );
    println!(
        "shed/retry: {} x 429, {} x 503, {} x conn-reset, {} retry-after hints honored",
        report.retries_429, report.retries_503, report.retries_conn, report.retry_after_honored
    );
    println!("csv: {}", out.display());
    if report.client_errors > 0 {
        return Err(CliError::Runtime(format!(
            "{} campaign(s) failed at the client level",
            report.client_errors
        )));
    }
    Ok(())
}

/// The sandboxed evaluation worker the pool spawns (`asdex worker …`).
/// Stdout is the frame channel, so this command prints nothing there; it
/// serves attempts until its supervisor closes the pipe. Not meant for
/// interactive use.
fn cmd_worker(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse(args, &WORKER_FLAGS)?;
    let bench = args.value("--bench")
        .ok_or_else(|| CliError::Usage("worker needs --bench".to_string()))?
        .to_string();
    let corners = args.value("--corners").unwrap_or("nominal").to_string();
    let solver = args.value("--solver").unwrap_or("auto").to_string();
    let rate = args.parse_or("--fault-rate", 0.0f64)?;
    let fault = if rate > 0.0 {
        let seed = args.parse_or("--fault-seed", 0u64)?;
        let mode = match args.value("--fault-mode") {
            Some(label) => Some(asdex::env::FaultMode::from_label(label).ok_or_else(|| {
                CliError::Usage(format!("unknown fault mode {label:?}"))
            })?),
            None => None,
        };
        Some((rate, seed, mode))
    } else {
        None
    };
    // The supervisor forwards the admitted campaign's netlist digest; the
    // worker re-compiles the deck and refuses to serve if it was edited.
    let netlist_digest = match args.value("--netlist-digest") {
        Some(hex) => Some(asdex::env::recordlog::u64_from_hex(hex).ok_or_else(|| {
            CliError::Usage(format!("--netlist-digest {hex:?} is not a 16-hex digest"))
        })?),
        None => None,
    };
    let cfg = asdex::serve::WorkerConfig { bench, corners, solver, fault, netlist_digest };
    asdex::serve::run_worker(&cfg).map_err(spec_error)
}

fn cmd_sim(args: &[String]) -> Result<(), CliError> {
    let path = Args::parse(args, &SIM_FLAGS)?
        .positional
        .ok_or_else(|| CliError::Usage(format!("sim needs a netlist path\n\n{USAGE}")))?;
    // read_deck_source expands `.include` cards (deck-relative, cycle- and
    // depth-guarded) before parsing, so composed decks simulate too.
    let source = asdex::spice::parser::read_deck_source(Path::new(path))
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let deck = parse_deck(&source).map_err(|e| CliError::Runtime(e.to_string()))?;
    let circuit = &deck.circuit;
    println!("{path}: {} elements, {} nodes", circuit.elements().len(), circuit.node_count());
    let opts = OpOptions::default();
    let probe = circuit
        .find_node("out")
        .or_else(|| circuit.node_ids().last().copied())
        .ok_or_else(|| CliError::Runtime("circuit has no nodes".to_string()))?;

    // Default behaviour when the deck carries no directives: an operating
    // point, plus an AC sweep if any source has an AC stimulus.
    let mut analyses = deck.analyses.clone();
    if analyses.is_empty() {
        analyses.push(AnalysisCard::Op);
        let has_ac = circuit.elements().iter().any(|e| {
            matches!(
                &e.kind,
                ElementKind::Vsource { ac: Some(_), .. } | ElementKind::Isource { ac: Some(_), .. }
            )
        });
        if has_ac {
            analyses.push(AnalysisCard::Ac { points_per_decade: 10, fstart: 10.0, fstop: 10e9 });
        }
    }

    let rt = |e: asdex::spice::SpiceError| CliError::Runtime(e.to_string());
    for analysis in &analyses {
        match analysis {
            AnalysisCard::Op => {
                let op = dc_operating_point(circuit, &opts).map_err(rt)?;
                println!("DC operating point:");
                for node in circuit.node_ids() {
                    println!("  v({}) = {:.6}", circuit.node_name(node), op.voltage(node));
                }
            }
            AnalysisCard::Dc { source, start, stop, step } => {
                let sweep = dc_sweep(circuit, source, *start, *stop, *step, &opts).map_err(rt)?;
                println!("DC sweep of {source} ({} points), v({}):", sweep.len(), circuit.node_name(probe));
                for (k, v) in sweep.values().iter().enumerate() {
                    println!("  {v:>12.4e}  ->  {:.6}", sweep.voltage(k, probe));
                }
            }
            AnalysisCard::Ac { points_per_decade, fstart, fstop } => {
                let sweep = Sweep::Decade {
                    fstart: *fstart,
                    fstop: *fstop,
                    points_per_decade: *points_per_decade,
                };
                let ac = ac_analysis(circuit, sweep, &opts).map_err(rt)?;
                let fr = frequency_response(&ac, probe);
                println!("AC response at v({}):", circuit.node_name(probe));
                println!("  dc gain = {:.2} dB", fr.dc_gain_db);
                if let Some(bw) = fr.bandwidth_3db {
                    println!("  bw(-3dB) = {bw:.4e} Hz");
                }
                if let (Some(ugf), Some(pm)) = (fr.unity_gain_freq, fr.phase_margin_deg) {
                    println!("  ugf = {ugf:.4e} Hz, pm = {pm:.1} deg");
                }
                if let Some(gm) = fr.gain_margin_db {
                    println!("  gain margin = {gm:.1} dB");
                }
            }
            AnalysisCard::Tran { tstep, tstop } => {
                let tr = transient(circuit, &TranOptions::new(*tstep, *tstop)).map_err(rt)?;
                let wave = tr.node_waveform(probe);
                let (lo, hi) = wave
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                println!(
                    "transient: {} points over {:.3e}s, v({}) ∈ [{lo:.4}, {hi:.4}]",
                    tr.len(),
                    tstop,
                    circuit.node_name(probe)
                );
            }
        }
    }
    Ok(())
}

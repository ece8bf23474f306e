//! The multi-campaign scheduler: bounded admission, fair-share threads,
//! crash-safe journals, graceful drain.
//!
//! Submissions enter a bounded FIFO queue; `max_active` runner threads
//! pop campaigns and run them to completion. The global evaluation-thread
//! budget is divided fairly across whatever is active *right now* — each
//! campaign holds an `Arc<AtomicUsize>` share that
//! `SizingProblem::resolved_threads` re-reads at every batch, and the
//! scheduler rewrites all shares whenever the active set changes. Thread
//! count never changes results (the repo's bitwise invariance contract),
//! so rebalancing mid-campaign is always safe.
//!
//! Every campaign journals to `<journal_dir>/<id>.journal`. Submitting an
//! id whose journal already exists *resumes* it: recorded evaluations are
//! replayed without simulating and the campaign continues to the same
//! outcome an uninterrupted run produces — this is both the crash story
//! and the restart story. [`Scheduler::drain`] stops admission, pulls
//! every active campaign's [`CancelToken`], waits for the runners to wind
//! down through their normal budget accounting, and checkpoints journals,
//! so a drained daemon restarts with zero duplicate simulations.

use crate::campaign::{pin_netlist, run_spec, validate, CampaignOutcome, RunContext};
use crate::lockdir::{DirLock, LockError};
use crate::logging;
use crate::manifest::{
    Manifest, ManifestCampaign, ManifestError, ManifestPhase, TerminalRecord, MANIFEST_FILE_NAME,
};
use crate::metrics::{Metrics, SchedulerGauges};
use crate::protocol::{outcome_json, CampaignSpec};
use asdex_core::{ProgressEvent, ProgressHandle};
use asdex_env::{
    CancelToken, DiskFault, EvalStats, EvalStore, EvalStoreStats, HealthStats, Journal, JournalError,
    NetlistBench,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Admission-queue capacity; submissions beyond it are rejected with
    /// a retryable error rather than queued unboundedly.
    pub queue_capacity: usize,
    /// Campaigns run concurrently (runner threads).
    pub max_active: usize,
    /// Global evaluation-thread budget shared by active campaigns.
    pub thread_budget: usize,
    /// Directory of per-campaign journals.
    pub journal_dir: PathBuf,
    /// Evaluation worker processes per campaign; `0` evaluates in the
    /// daemon's own process (the pre-isolation behaviour). Worker count
    /// never changes results — the repo's bitwise invariance contract
    /// extends to process-isolated execution.
    pub workers: usize,
    /// Binary spawned as `<program> worker …`; `None` uses
    /// `std::env::current_exe()` (the daemon re-executing itself).
    pub worker_program: Option<PathBuf>,
    /// Whether boot-time recovery replays the manifest: re-exposing
    /// terminal campaigns and re-admitting incomplete ones. `false`
    /// ignores the manifest's history (the `--no-recover` escape hatch).
    pub recover: bool,
    /// Seeded fault injector applied to every journal and manifest write
    /// path (chaos testing). `None` in production.
    pub disk_fault: Option<DiskFault>,
    /// Admission deadline: a campaign still *queued* after this long is
    /// shed (typed `failed`, message prefixed `shed:`) instead of run —
    /// under sustained overload the queue serves fresh work, not a
    /// graveyard of submissions whose clients gave up long ago. `None`
    /// disables shedding (queued work waits indefinitely).
    pub admission_timeout: Option<Duration>,
    /// Per-client admission rate limit (token bucket), keyed by client
    /// address via [`Scheduler::submit_from`]. `None` disables.
    pub rate_limit: Option<RateLimit>,
    /// Whether concurrent campaigns share a cross-campaign evaluation
    /// dedup store (one store per bench, corner set, solver and netlist
    /// digest): identical points are simulated once and the result is
    /// handed to every waiting campaign. Never changes results — only who
    /// computes them.
    pub dedup: bool,
}

/// Token-bucket admission rate limit, applied per client.
#[derive(Debug, Clone, Copy)]
pub struct RateLimit {
    /// Sustained admissions per second per client.
    pub per_sec: f64,
    /// Burst allowance (bucket capacity).
    pub burst: f64,
}

impl RateLimit {
    /// A limit of `per_sec` sustained submissions with a burst of twice
    /// that (at least 1).
    pub fn per_sec(per_sec: f64) -> RateLimit {
        let per_sec = per_sec.max(f64::MIN_POSITIVE);
        RateLimit { per_sec, burst: (per_sec * 2.0).max(1.0) }
    }
}

/// One client's token bucket.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            queue_capacity: 64,
            max_active: 4,
            thread_budget: 1,
            journal_dir: PathBuf::from("journals"),
            workers: 0,
            worker_program: None,
            recover: true,
            disk_fault: None,
            admission_timeout: None,
            rate_limit: None,
            dedup: true,
        }
    }
}

/// Why the scheduler could not start.
#[derive(Debug)]
pub enum StartError {
    /// Another live process owns the journal directory.
    Lock(LockError),
    /// The campaign manifest could not be opened or replayed.
    Manifest(ManifestError),
    /// The journal directory could not be created.
    Io(std::io::Error),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Lock(e) => write!(f, "{e}"),
            StartError::Manifest(e) => write!(f, "{e}"),
            StartError::Io(e) => write!(f, "journal directory error: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

impl From<std::io::Error> for StartError {
    fn from(e: std::io::Error) -> Self {
        StartError::Io(e)
    }
}

/// Lifecycle of one campaign inside the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Waiting for a runner.
    Queued,
    /// A runner is executing it.
    Running,
    /// Finished; the outcome is available.
    Completed,
    /// Stopped by a drain; the journal is checkpointed and resumable.
    Interrupted,
    /// Could not run (bad spec, journal error, runtime error).
    Failed,
}

impl CampaignStatus {
    /// Stable lowercase label for the wire protocol.
    pub fn label(self) -> &'static str {
        match self {
            CampaignStatus::Queued => "queued",
            CampaignStatus::Running => "running",
            CampaignStatus::Completed => "completed",
            CampaignStatus::Interrupted => "interrupted",
            CampaignStatus::Failed => "failed",
        }
    }

    /// Whether the campaign will make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            CampaignStatus::Completed | CampaignStatus::Interrupted | CampaignStatus::Failed
        )
    }
}

/// Progress lines kept per campaign; older lines are dropped.
const MAX_PROGRESS_LINES: usize = 10_000;

/// Shared state of one campaign, visible to runners and status queries.
#[derive(Debug)]
pub struct CampaignRecord {
    /// Campaign id (also the journal file stem).
    pub id: String,
    spec: Mutex<CampaignSpec>,
    status: Mutex<CampaignStatus>,
    progress: Mutex<VecDeque<String>>,
    outcome: Mutex<Option<Result<CampaignOutcome, String>>>,
    /// `(replayed, recorded)` journal telemetry after the run.
    journal_info: Mutex<Option<(usize, usize)>>,
    /// Terminal summary replayed from the manifest for a campaign that
    /// finished under a *previous* daemon. The full outcome object died
    /// with that process; the durable headline numbers did not.
    recovered: Mutex<Option<TerminalRecord>>,
    cancel: CancelToken,
    share: Arc<AtomicUsize>,
    /// When the record entered the queue; the admission-deadline shed
    /// clock.
    admitted: Instant,
}

impl CampaignRecord {
    fn new(id: String, spec: CampaignSpec) -> Arc<CampaignRecord> {
        Arc::new(CampaignRecord {
            id,
            spec: Mutex::new(spec),
            status: Mutex::new(CampaignStatus::Queued),
            progress: Mutex::new(VecDeque::new()),
            outcome: Mutex::new(None),
            journal_info: Mutex::new(None),
            recovered: Mutex::new(None),
            cancel: CancelToken::new(),
            share: Arc::new(AtomicUsize::new(0)),
            admitted: Instant::now(),
        })
    }

    /// Current status.
    pub fn status(&self) -> CampaignStatus {
        *self.status.lock().unwrap()
    }

    /// The effective spec (journal metadata wins over the submission on
    /// resume).
    pub fn spec(&self) -> CampaignSpec {
        self.spec.lock().unwrap().clone()
    }

    /// A snapshot of the retained progress lines.
    pub fn progress_lines(&self) -> Vec<String> {
        self.progress.lock().unwrap().iter().cloned().collect()
    }

    /// The outcome, once terminal.
    pub fn outcome(&self) -> Option<Result<CampaignOutcome, String>> {
        self.outcome.lock().unwrap().clone()
    }

    /// `(replayed, recorded)` journal telemetry, once the journal has
    /// been checkpointed.
    pub fn journal_info(&self) -> Option<(usize, usize)> {
        *self.journal_info.lock().unwrap()
    }

    /// The manifest's terminal summary, for a campaign that finished
    /// under a previous daemon and was re-exposed by boot-time recovery.
    pub fn recovered_summary(&self) -> Option<TerminalRecord> {
        self.recovered.lock().unwrap().clone()
    }

    fn set_status(&self, status: CampaignStatus) {
        *self.status.lock().unwrap() = status;
    }

    fn push_progress(&self, line: String) {
        let mut lines = self.progress.lock().unwrap();
        if lines.len() == MAX_PROGRESS_LINES {
            lines.pop_front();
        }
        lines.push_back(line);
    }
}

#[derive(Debug, Default)]
struct Inner {
    queue: VecDeque<Arc<CampaignRecord>>,
    active: Vec<Arc<CampaignRecord>>,
    registry: BTreeMap<String, Arc<CampaignRecord>>,
    draining: bool,
    next_id: usize,
    finished_eval: EvalStats,
    finished_health: HealthStats,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full; retry later.
    QueueFull,
    /// The daemon is draining and accepts no new work.
    Draining,
    /// A campaign with this id is already queued or running.
    Conflict(String),
    /// The spec failed validation.
    Invalid(String),
    /// Boot-time recovery is still replaying the manifest; retry later.
    Recovering,
    /// The admission could not be made durable (manifest write failed);
    /// nothing was admitted.
    Storage(String),
    /// The client exceeded its admission rate limit; retry after the
    /// given number of seconds.
    RateLimited {
        /// Seconds until the client's token bucket refills one token.
        retry_after: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue is full"),
            SubmitError::Draining => write!(f, "daemon is draining"),
            SubmitError::Conflict(id) => write!(f, "campaign {id:?} is already in flight"),
            SubmitError::Invalid(msg) => write!(f, "{msg}"),
            SubmitError::Recovering => write!(f, "daemon is recovering; retry shortly"),
            SubmitError::Storage(msg) => write!(f, "admission not durable: {msg}"),
            SubmitError::RateLimited { retry_after } => {
                write!(f, "rate limited; retry in {retry_after}s")
            }
        }
    }
}

/// What a campaign's evaluations depend on besides the point: bench,
/// corner-set name, solver and netlist digest.
type StoreIdentity = (String, String, String, Option<u64>);

/// The cross-campaign dedup stores: one per evaluation identity that a
/// queued or running campaign uses, plus the event totals of the stores
/// already dropped, so the `/metrics` counters never go backwards.
#[derive(Debug, Default)]
struct DedupStores {
    live: HashMap<StoreIdentity, Arc<EvalStore>>,
    retired: EvalStoreStats,
}

/// The multi-campaign scheduler. Create with [`Scheduler::start`]; shut
/// down with [`Scheduler::drain`].
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    inner: Mutex<Inner>,
    work_cv: Condvar,
    done_cv: Condvar,
    metrics: Arc<Metrics>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Exclusive fence on the journal directory; released on drain so a
    /// successor daemon can take over immediately.
    lock: Mutex<Option<DirLock>>,
    /// The write-ahead campaign manifest (`manifest.log`).
    manifest: Mutex<Manifest>,
    /// `false` until boot-time recovery has replayed the manifest;
    /// `/readyz` and admission key off this.
    ready: AtomicBool,
    /// Per-client admission token buckets ([`Scheduler::submit_from`]).
    buckets: Mutex<HashMap<String, Bucket>>,
    /// Cross-campaign evaluation dedup stores, one per
    /// `(bench, corners, solver, netlist digest)` identity that a queued
    /// or running campaign uses. The store key inside is `(point bits,
    /// corner index, attempt cap)` — a pure function of the evaluation —
    /// so sharing is only ever between campaigns whose evaluations are
    /// bitwise interchangeable.
    stores: Mutex<DedupStores>,
}

impl Scheduler {
    /// Fences the journal directory, opens and replays the campaign
    /// manifest, spawns `max_active` runner threads, and kicks off
    /// boot-time recovery (on its own thread, so the HTTP front end can
    /// answer `/readyz` 503 while the replay runs).
    ///
    /// # Errors
    ///
    /// * [`StartError::Lock`] when another live process owns the
    ///   directory.
    /// * [`StartError::Manifest`] when the manifest is corrupt.
    /// * [`StartError::Io`] when the directory cannot be created.
    pub fn start(
        cfg: SchedulerConfig,
        metrics: Arc<Metrics>,
    ) -> Result<Arc<Scheduler>, StartError> {
        std::fs::create_dir_all(&cfg.journal_dir)?;
        let lock = DirLock::acquire(&cfg.journal_dir).map_err(StartError::Lock)?;
        let manifest_path = cfg.journal_dir.join(MANIFEST_FILE_NAME);
        let (mut manifest, replayed) =
            Manifest::open(&manifest_path).map_err(StartError::Manifest)?;
        if let Some(fault) = cfg.disk_fault {
            manifest = manifest.with_disk_fault(fault);
        }
        let scheduler = Arc::new(Scheduler {
            cfg: cfg.clone(),
            inner: Mutex::new(Inner::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            metrics,
            workers: Mutex::new(Vec::new()),
            lock: Mutex::new(Some(lock)),
            manifest: Mutex::new(manifest),
            ready: AtomicBool::new(false),
            buckets: Mutex::new(HashMap::new()),
            stores: Mutex::new(DedupStores::default()),
        });
        let mut workers = scheduler.workers.lock().unwrap();
        for i in 0..cfg.max_active.max(1) {
            let me = Arc::clone(&scheduler);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("asdex-runner-{i}"))
                    .spawn(move || me.runner_loop())
                    .expect("spawn runner thread"),
            );
        }
        let entries = if cfg.recover { replayed } else { Vec::new() };
        if entries.is_empty() {
            // Nothing to replay: ready immediately, no recovery thread
            // (keeps fresh-directory startups race-free for callers that
            // submit right away).
            scheduler.ready.store(true, Ordering::SeqCst);
        } else {
            let me = Arc::clone(&scheduler);
            workers.push(
                std::thread::Builder::new()
                    .name("asdex-recovery".to_string())
                    .spawn(move || me.recover(entries))
                    .expect("spawn recovery thread"),
            );
        }
        drop(workers);
        Ok(scheduler)
    }

    /// Boot-time recovery: replay the manifest's campaigns — re-expose
    /// the durably finished ones, re-admit everything else — then flip
    /// the readiness flag.
    fn recover(self: Arc<Self>, entries: Vec<ManifestCampaign>) {
        let started = Instant::now();
        let total = entries.len();
        let mut readmitted = 0usize;
        for entry in entries {
            let record = CampaignRecord::new(entry.id.clone(), entry.spec);
            let mut inner = self.inner.lock().unwrap();
            // Keep generated ids (`c%04d`) from colliding with recovered
            // ones.
            if let Some(n) = entry
                .id
                .strip_prefix('c')
                .filter(|d| d.len() == 4)
                .and_then(|d| d.parse::<usize>().ok())
            {
                inner.next_id = inner.next_id.max(n);
            }
            match entry.phase {
                ManifestPhase::Terminal(t) if t.is_final() => {
                    if t.status == "failed" {
                        let msg =
                            t.error.clone().unwrap_or_else(|| "failed (no recorded error)".into());
                        *record.outcome.lock().unwrap() = Some(Err(msg));
                        record.set_status(CampaignStatus::Failed);
                    } else {
                        record.set_status(CampaignStatus::Completed);
                    }
                    *record.recovered.lock().unwrap() = Some(t);
                    inner.registry.insert(entry.id, record);
                }
                _ if inner.draining => {
                    // Drained before recovery finished: the manifest keeps
                    // these incomplete; the *next* boot re-admits them.
                    record.set_status(CampaignStatus::Interrupted);
                    self.metrics.campaigns_interrupted.fetch_add(1, Ordering::Relaxed);
                    inner.registry.insert(entry.id, record);
                }
                _ => {
                    readmitted += 1;
                    logging::info(format!(
                        "recovery: re-admitting incomplete campaign {}",
                        entry.id
                    ));
                    inner.registry.insert(entry.id, Arc::clone(&record));
                    inner.queue.push_back(record);
                    self.metrics.campaigns_submitted.fetch_add(1, Ordering::Relaxed);
                    drop(inner);
                    self.work_cv.notify_one();
                }
            }
        }
        self.metrics.recovered_campaigns.fetch_add(readmitted as u64, Ordering::Relaxed);
        self.metrics
            .recovery_us
            .store(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
        self.ready.store(true, Ordering::SeqCst);
        logging::info(format!(
            "recovery: replayed {total} campaign(s), re-admitted {readmitted}, ready in {:?}",
            started.elapsed()
        ));
    }

    /// Whether boot-time recovery has finished (`/readyz` truth source).
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst)
    }

    /// Netlist admission. An inline deck (`spec.netlist`) is compiled —
    /// failure is typed [`SubmitError::Invalid`] — then persisted
    /// content-addressed at `<journal_dir>/netlists/<digest>.sp`, and the
    /// spec is rewritten to `bench = netlist:<that path>` with the digest
    /// pinned, so journals, the manifest, boot recovery, and worker
    /// processes all re-compile the identical source. Every
    /// `netlist:<path>` bench then goes through [`pin_netlist`], as it
    /// does in `asdex size`.
    fn admit_netlist(&self, spec: &mut CampaignSpec) -> Result<(), SubmitError> {
        if let Some(source) = spec.netlist.take() {
            let deck = NetlistBench::compile(&source)
                .map_err(|e| SubmitError::Invalid(e.to_string()))?;
            let digest = deck.digest();
            let dir = self.cfg.journal_dir.join("netlists");
            std::fs::create_dir_all(&dir).map_err(|e| SubmitError::Storage(e.to_string()))?;
            let path = dir.join(format!("{digest:016x}.sp"));
            if !path.exists() {
                // Temp-file + rename: a crash mid-write can never leave a
                // half deck at the content-addressed name.
                let tmp = dir.join(format!("{digest:016x}.sp.tmp.{}", std::process::id()));
                std::fs::write(&tmp, &source)
                    .and_then(|()| std::fs::rename(&tmp, &path))
                    .map_err(|e| SubmitError::Storage(e.to_string()))?;
            }
            spec.bench = format!("netlist:{}", path.display());
            spec.netlist_digest = Some(digest);
        }
        pin_netlist(spec).map_err(|e| SubmitError::Invalid(e.to_string()))
    }

    /// Admits a campaign. With an explicit id whose journal file already
    /// exists, the campaign *resumes* from that journal. Returns the
    /// (possibly generated) campaign id.
    pub fn submit(
        &self,
        id: Option<String>,
        mut spec: CampaignSpec,
    ) -> Result<String, SubmitError> {
        // Inline netlists are compiled and persisted before anything else:
        // a deck that does not compile is a typed Invalid (HTTP 400), and
        // an admitted one is rewritten to a durable `netlist:<path>` bench
        // plus its source digest.
        self.admit_netlist(&mut spec)?;
        // Validate the vocabulary up front so the queue only holds
        // runnable work. For netlist benches this re-compiles the
        // persisted deck against the pinned digest.
        validate(&spec).map_err(SubmitError::Invalid)?;

        // Admission is one critical section: the drain flag, the
        // queue-capacity check, the duplicate-id check, and the
        // registry/queue insertion all happen under a single `inner`
        // lock, and runners publish terminal statuses under that same
        // lock — so two racing clients can never both pass the capacity
        // check for one slot, and a resubmitted id is admitted only once
        // its previous run has fully left the active set.
        let mut inner = self.inner.lock().unwrap();
        if !self.ready.load(Ordering::SeqCst) {
            // Recovery replay has exclusive admission rights: a client
            // submission racing with the re-admission of the same id
            // could otherwise put two writers on one journal.
            self.metrics.shed_unavailable.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Recovering);
        }
        if inner.draining {
            self.metrics.shed_unavailable.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Draining);
        }
        if inner.queue.len() >= self.cfg.queue_capacity {
            self.metrics.campaigns_rejected.fetch_add(1, Ordering::Relaxed);
            self.metrics.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull);
        }
        let id = match id {
            Some(id) => {
                if inner.registry.get(&id).is_some_and(|r| !r.status().is_terminal()) {
                    return Err(SubmitError::Conflict(id));
                }
                id
            }
            None => loop {
                inner.next_id += 1;
                let candidate = format!("c{:04}", inner.next_id);
                if !inner.registry.contains_key(&candidate) {
                    break candidate;
                }
            },
        };
        // Write-ahead: the admission record is fsync'd to the manifest
        // BEFORE the registry/queue insertion, so an admission the client
        // saw acknowledged can never be forgotten by a crash. If the
        // record cannot land, nothing is admitted.
        if let Err(e) = self.manifest.lock().unwrap().append_admitted(&id, &spec) {
            self.metrics.storage_errors.fetch_add(1, Ordering::Relaxed);
            logging::info(format!("scheduler: admission of {id} not durable: {e}"));
            return Err(SubmitError::Storage(e.to_string()));
        }
        let record = CampaignRecord::new(id.clone(), spec);
        inner.registry.insert(id.clone(), Arc::clone(&record));
        inner.queue.push_back(record);
        self.metrics.campaigns_submitted.fetch_add(1, Ordering::Relaxed);
        logging::debug(format!("scheduler: queued campaign {id}"));
        drop(inner);
        self.work_cv.notify_one();
        Ok(id)
    }

    /// [`Scheduler::submit`] on behalf of a named client, applying the
    /// per-client admission rate limit first. `None` (no client identity,
    /// e.g. in-process submission) bypasses the limiter.
    pub fn submit_from(
        &self,
        client: Option<&str>,
        id: Option<String>,
        spec: CampaignSpec,
    ) -> Result<String, SubmitError> {
        if let (Some(limit), Some(client)) = (self.cfg.rate_limit, client) {
            if let Err(retry_after) = self.take_token(client, limit) {
                self.metrics.shed_rate_limit.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::RateLimited { retry_after });
            }
        }
        self.submit(id, spec)
    }

    /// Takes one token from `client`'s bucket, refilling by elapsed time
    /// first. On an empty bucket, returns the whole seconds until one
    /// token accrues.
    fn take_token(&self, client: &str, limit: RateLimit) -> Result<(), u64> {
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap();
        // The map is bounded: under address-spoofing-scale client churn,
        // drop buckets that have refilled to full (forgetting one loses
        // nothing — a full bucket is the initial state).
        if buckets.len() >= 4096 {
            buckets.retain(|_, b| {
                b.tokens + now.duration_since(b.refilled).as_secs_f64() * limit.per_sec
                    < limit.burst
            });
        }
        let bucket = buckets
            .entry(client.to_string())
            .or_insert(Bucket { tokens: limit.burst, refilled: now });
        let elapsed = now.duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * limit.per_sec).min(limit.burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            Err(((1.0 - bucket.tokens) / limit.per_sec).ceil().max(1.0) as u64)
        }
    }

    /// The `Retry-After` hint for shed responses: scales with queue
    /// pressure (roughly the queue's depth in units of the active-slot
    /// count), clamped to `[1, 30]` seconds.
    pub fn retry_after_secs(&self) -> u64 {
        let queued = self.inner.lock().unwrap().queue.len();
        (1 + queued / self.cfg.max_active.max(1)).clamp(1, 30) as u64
    }

    /// Merged statistics of every cross-campaign dedup store, the dropped
    /// ones included (their entries are gone).
    pub fn dedup_stats(&self) -> EvalStoreStats {
        let stores = self.stores.lock().unwrap();
        let mut total = stores.retired;
        for store in stores.live.values() {
            total.merge(&store.stats());
        }
        total
    }

    /// The dedup store for a campaign's evaluation identity. The
    /// corner-set name is part of the key: the store is indexed by corner
    /// *index*, which only means the same thing within one named corner
    /// list. So is the netlist digest: a `netlist:<path>` bench names a
    /// file, and campaigns admitted before and after an edit of that file
    /// simulate different decks.
    fn store_for(&self, spec: &CampaignSpec) -> Arc<EvalStore> {
        let mut stores = self.stores.lock().unwrap();
        Arc::clone(stores.live.entry(store_identity(spec)).or_insert_with(EvalStore::shared))
    }

    /// Drops every dedup store that no queued or running campaign will
    /// use, adding its event counts to the retired total. Called as a
    /// campaign ends, with `inner` locked so no admission races the check.
    fn drop_idle_stores(&self, inner: &Inner) {
        let in_use: HashSet<StoreIdentity> = inner
            .queue
            .iter()
            .chain(&inner.active)
            .map(|job| store_identity(&job.spec()))
            .collect();
        let mut guard = self.stores.lock().unwrap();
        let DedupStores { live, retired } = &mut *guard;
        live.retain(|identity, store| {
            let keep = in_use.contains(identity);
            if !keep {
                retired.merge(&EvalStoreStats { entries: 0, ..store.stats() });
            }
            keep
        });
    }

    /// Looks up a campaign by id.
    pub fn get(&self, id: &str) -> Option<Arc<CampaignRecord>> {
        self.inner.lock().unwrap().registry.get(id).cloned()
    }

    /// Blocks until the campaign reaches a terminal status or the timeout
    /// expires. Returns `true` if it finished.
    pub fn wait(&self, id: &str, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            match inner.registry.get(id) {
                Some(r) if r.status().is_terminal() => return true,
                Some(_) => {}
                None => return false,
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self.done_cv.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
        }
    }

    /// Point-in-time gauges for `/metrics`.
    pub fn gauges(&self) -> SchedulerGauges {
        let dedup = self.dedup_stats();
        let inner = self.inner.lock().unwrap();
        SchedulerGauges {
            queue_depth: inner.queue.len(),
            active_campaigns: inner.active.len(),
            thread_budget: self.cfg.thread_budget,
            eval: inner.finished_eval.clone(),
            health: inner.finished_health,
            dedup,
        }
    }

    /// Whether a drain has been initiated.
    pub fn is_draining(&self) -> bool {
        self.inner.lock().unwrap().draining
    }

    /// Graceful shutdown: stop admission, mark queued campaigns
    /// interrupted, pull every active campaign's cancel token, and join
    /// the runners (each checkpoints its journal on the way out).
    /// Idempotent; later calls return immediately.
    pub fn drain(&self) {
        {
            let mut inner = self.inner.lock().unwrap();
            if inner.draining {
                drop(inner);
                self.join_workers();
                self.release_lock();
                return;
            }
            inner.draining = true;
            while let Some(job) = inner.queue.pop_front() {
                job.set_status(CampaignStatus::Interrupted);
                self.metrics.campaigns_interrupted.fetch_add(1, Ordering::Relaxed);
                // Best-effort: the standing `A` record already marks the
                // campaign incomplete, so a failed append changes nothing
                // about the next boot's recovery decision.
                if let Err(e) = self
                    .manifest
                    .lock()
                    .unwrap()
                    .append_terminal(&job.id, &TerminalRecord::interrupted(0))
                {
                    self.metrics.storage_errors.fetch_add(1, Ordering::Relaxed);
                    logging::info(format!(
                        "campaign {}: interrupted record not durable: {e}",
                        job.id
                    ));
                }
            }
            for job in &inner.active {
                job.cancel.cancel();
            }
            logging::info(format!(
                "scheduler: draining ({} active campaign(s) cancelled)",
                inner.active.len()
            ));
        }
        self.work_cv.notify_all();
        self.done_cv.notify_all();
        self.join_workers();
        self.release_lock();
        logging::info("scheduler: drained");
    }

    /// Releases the journal-directory fence so a successor (next daemon,
    /// CLI resume) can take over without waiting for this process to
    /// exit.
    fn release_lock(&self) {
        *self.lock.lock().unwrap() = None;
    }

    fn join_workers(&self) {
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Splits the thread budget across the active set: every campaign
    /// gets at least one thread; the remainder goes to the
    /// earliest-started campaigns. Shares are plain atomics that each
    /// campaign's `evaluate_batch` re-reads, so this takes effect at the
    /// next batch boundary.
    fn rebalance(inner: &Inner, thread_budget: usize) {
        let n = inner.active.len();
        if n == 0 {
            return;
        }
        let base = (thread_budget / n).max(1);
        let extra = if thread_budget >= n { thread_budget % n } else { 0 };
        for (i, job) in inner.active.iter().enumerate() {
            job.share.store(base + usize::from(i < extra), Ordering::SeqCst);
        }
    }

    /// Sheds a queued campaign whose admission deadline passed: typed
    /// terminal `failed` with a `shed:` message, durably recorded, never
    /// run. Called with the `inner` lock held so the terminal status
    /// publishes under the same critical section admission reads.
    fn shed_queued(
        &self,
        _inner: &mut Inner,
        job: &Arc<CampaignRecord>,
        waited: Duration,
        limit: Duration,
    ) {
        let msg = format!(
            "shed: admission deadline exceeded (queued {waited:.1?} > limit {limit:.1?})"
        );
        if let Err(e) = self.manifest.lock().unwrap().append_terminal(&job.id, &TerminalRecord::failed(&msg))
        {
            self.metrics.storage_errors.fetch_add(1, Ordering::Relaxed);
            logging::info(format!("campaign {}: shed record not durable: {e}", job.id));
        }
        *job.outcome.lock().unwrap() = Some(Err(msg.clone()));
        job.set_status(CampaignStatus::Failed);
        self.metrics.campaigns_failed.fetch_add(1, Ordering::Relaxed);
        self.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
        logging::info(format!("campaign {}: {msg}", job.id));
    }

    fn runner_loop(self: Arc<Self>) {
        loop {
            let job = {
                let mut inner = self.inner.lock().unwrap();
                loop {
                    if let Some(job) = inner.queue.pop_front() {
                        // Deadline propagation: work whose admission
                        // deadline already passed is shed typed, not run —
                        // its client has long since timed out, and running
                        // it would only delay work that can still matter.
                        if let Some(limit) = self.cfg.admission_timeout {
                            let waited = job.admitted.elapsed();
                            if waited > limit {
                                self.shed_queued(&mut inner, &job, waited, limit);
                                self.done_cv.notify_all();
                                continue;
                            }
                        }
                        inner.active.push(Arc::clone(&job));
                        Scheduler::rebalance(&inner, self.cfg.thread_budget);
                        break job;
                    }
                    if inner.draining {
                        return;
                    }
                    inner = self.work_cv.wait(inner).unwrap();
                }
            };

            let (result, status) = self.run_one(&job);

            // The terminal manifest record is written *before* the status
            // is published: once a client can observe "completed", the
            // observation survives any crash. An append failure is logged
            // and counted, never fatal — the in-memory outcome stays
            // served, and the next boot simply re-runs the campaign from
            // its journal (zero duplicate simulations, same outcome).
            let terminal = match (&result, status) {
                (Ok(outcome), CampaignStatus::Completed) => TerminalRecord::completed(
                    outcome.success,
                    outcome.simulations,
                    outcome.best_value,
                    &outcome_json(outcome).dump(),
                ),
                (Ok(outcome), _) => TerminalRecord::interrupted(outcome.simulations),
                (Err(msg), _) => TerminalRecord::failed(msg),
            };

            {
                // Publish the terminal status and leave the active set in
                // ONE `inner` critical section. Admission reads both under
                // the same lock, so there is no window where a racing
                // `submit` of the same id sees a terminal status (and
                // admits a resume) while this record still occupies an
                // active slot — the check-then-act race that could put two
                // writers on one journal.
                let mut inner = self.inner.lock().unwrap();
                if let Err(e) = self.manifest.lock().unwrap().append_terminal(&job.id, &terminal)
                {
                    self.metrics.storage_errors.fetch_add(1, Ordering::Relaxed);
                    logging::info(format!(
                        "campaign {}: terminal record not durable ({e}); \
                         the next boot re-runs it from the journal",
                        job.id
                    ));
                }
                if let Ok(outcome) = &result {
                    inner.finished_eval.merge(&outcome.stats);
                    inner.finished_health.merge(&outcome.health);
                }
                *job.outcome.lock().unwrap() = Some(result);
                job.set_status(status);
                inner.active.retain(|j| !Arc::ptr_eq(j, &job));
                Scheduler::rebalance(&inner, self.cfg.thread_budget);
                self.drop_idle_stores(&inner);
            }
            self.done_cv.notify_all();
        }
    }

    /// Runs one campaign end to end: open-or-resume the journal, build
    /// the problem, search, checkpoint, classify the ending. The caller
    /// (the runner loop) publishes the returned outcome and status
    /// atomically with the active-set removal.
    fn run_one(
        &self,
        job: &Arc<CampaignRecord>,
    ) -> (Result<CampaignOutcome, String>, CampaignStatus) {
        job.set_status(CampaignStatus::Running);
        // Write-ahead for the running transition too; a campaign whose
        // lifecycle cannot be recorded fails typed instead of running
        // off the books.
        let durable = self.manifest.lock().unwrap().append_running(&job.id);
        let result = match durable {
            Ok(()) => self.run_inner(job),
            Err(e) => {
                self.metrics.storage_errors.fetch_add(1, Ordering::Relaxed);
                Err(format!("running transition not durable: {e}"))
            }
        };
        if let Ok(outcome) = &result {
            // Evaluations that storage faults kept out of the journal:
            // survived (the run kept going) but counted.
            let drops = outcome.stats.journal_drops as u64;
            self.metrics.storage_errors.fetch_add(drops, Ordering::Relaxed);
        }
        let m = &self.metrics;
        let (status, counter) = match &result {
            Ok(_) if job.cancel.is_cancelled() => {
                (CampaignStatus::Interrupted, &m.campaigns_interrupted)
            }
            Ok(_) => (CampaignStatus::Completed, &m.campaigns_completed),
            Err(_) => (CampaignStatus::Failed, &m.campaigns_failed),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Err(msg) = &result {
            logging::info(format!("campaign {}: failed: {msg}", job.id));
        } else {
            logging::info(format!("campaign {}: {}", job.id, status.label()));
        }
        (result, status)
    }

    fn run_inner(&self, job: &Arc<CampaignRecord>) -> Result<CampaignOutcome, String> {
        let journal_path = self.cfg.journal_dir.join(format!("{}.journal", job.id));
        let submitted = job.spec();
        let resumed = if journal_path.exists() {
            match Journal::resume(&journal_path, submitted.checkpoint_every) {
                Ok(journal) => Some(journal),
                // Torn at creation: the daemon died before the metadata
                // line was durable, so nothing was evaluated, and the
                // manifest's spec restarts the campaign from scratch.
                Err(JournalError::Missing { .. }) => {
                    logging::info(format!(
                        "campaign {}: journal {} was torn at creation; starting it afresh",
                        job.id,
                        journal_path.display()
                    ));
                    None
                }
                Err(e) => return Err(e.to_string()),
            }
        } else {
            None
        };
        let journal = match resumed {
            Some(journal) => {
                let restored = CampaignSpec::from_meta(journal.meta())?;
                logging::info(format!(
                    "campaign {}: resuming journal {} ({} recorded evaluations to replay)",
                    job.id,
                    journal_path.display(),
                    journal.recorded()
                ));
                *job.spec.lock().unwrap() = restored;
                journal
            }
            None => Journal::create(&journal_path, submitted.to_meta(), submitted.checkpoint_every)
                .map_err(|e| e.to_string())?,
        };
        let journal = match self.cfg.disk_fault {
            Some(fault) => journal.with_disk_fault(fault),
            None => journal,
        };

        let spec = job.spec();
        let sink_job = Arc::clone(job);
        let run = run_spec(
            &spec,
            RunContext {
                journal: Some(Arc::new(Mutex::new(journal))),
                thread_share: Arc::clone(&job.share),
                cancel: job.cancel.clone(),
                // Cross-campaign dedup: concurrent campaigns with the same
                // evaluation identity share results through a
                // single-flight store. Journal replay still has precedence
                // (a replayed point never reaches the store), and waiters
                // fold shared results through the same finalize path as
                // locally computed ones, so outcomes stay bitwise
                // identical to a store-less run.
                store: self.cfg.dedup.then(|| self.store_for(&spec)),
                workers: self.cfg.workers,
                worker_program: self.cfg.worker_program.clone(),
                worker_stats: Arc::clone(&self.metrics.workers),
                progress: Some(ProgressHandle::new(Arc::new(move |event: &ProgressEvent| {
                    sink_job.push_progress(event.to_string());
                }))),
                ..RunContext::default()
            },
        );
        // A checkpoint is an fsync: its only failure is storage. (`None`:
        // a panic poisoned the journal's lock, and the outcome says so.)
        let info = run.journal.transpose().map_err(|e| {
            self.metrics.storage_errors.fetch_add(1, Ordering::Relaxed);
            format!("journal checkpoint failed: {e}")
        })?;
        if let Some((replayed, recorded)) = info {
            *job.journal_info.lock().unwrap() = info;
            logging::debug(format!(
                "campaign {}: journal {} ({replayed} replayed, {recorded} recorded)",
                job.id,
                journal_path.display()
            ));
        }
        run.outcome
    }
}

fn store_identity(spec: &CampaignSpec) -> StoreIdentity {
    (spec.bench.clone(), spec.corners.clone(), spec.solver.clone(), spec.netlist_digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("asdex-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_spec(seed: u64) -> CampaignSpec {
        CampaignSpec { bench: "bowl2".into(), seed, budget: 300, ..CampaignSpec::default() }
    }

    #[test]
    fn runs_campaigns_to_completion() {
        let dir = temp_dir("basic");
        let scheduler = Scheduler::start(
            SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let id = scheduler.submit(None, quick_spec(7)).unwrap();
        assert!(scheduler.wait(&id, Duration::from_secs(60)));
        let record = scheduler.get(&id).unwrap();
        assert_eq!(record.status(), CampaignStatus::Completed);
        let outcome = record.outcome().unwrap().unwrap();
        assert!(outcome.success);
        assert!(!record.progress_lines().is_empty());
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_specs_are_rejected_at_admission() {
        let dir = temp_dir("invalid");
        let scheduler = Scheduler::start(
            SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let bad_bench = CampaignSpec { bench: "nope".into(), ..CampaignSpec::default() };
        assert!(matches!(scheduler.submit(None, bad_bench), Err(SubmitError::Invalid(_))));
        let bad_agent = CampaignSpec { agent: "dqn".into(), ..quick_spec(1) };
        assert!(matches!(scheduler.submit(None, bad_agent), Err(SubmitError::Invalid(_))));
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inline_netlists_compile_at_admission_and_run() {
        let deck = "rc sizing demo\n.process 45\n.sizeparam rser 1e3 1e5 STEP 8\n\
                    .goal gain_db >= -60\nVDD vdd 0 {vdd}\nVIN in 0 DC 0.5 AC 1\n\
                    RS in out {rser}\nRL vdd out 1e3\nC1 out 0 1e-9\n.end\n";
        let dir = temp_dir("netlist");
        let scheduler = Scheduler::start(
            SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
            Arc::new(Metrics::new()),
        )
        .unwrap();

        // A deck that does not compile is rejected typed at admission.
        let bad = CampaignSpec {
            netlist: Some("broken deck\n.sizeparam\n.end\n".to_string()),
            ..CampaignSpec::default()
        };
        assert!(matches!(scheduler.submit(None, bad), Err(SubmitError::Invalid(_))));

        // A good inline deck is persisted content-addressed and runs.
        let spec = CampaignSpec {
            netlist: Some(deck.to_string()),
            agent: "random".to_string(),
            budget: 25,
            ..CampaignSpec::default()
        };
        let id = scheduler.submit(None, spec).unwrap();
        assert!(scheduler.wait(&id, Duration::from_secs(120)));
        let record = scheduler.get(&id).unwrap();
        assert_eq!(record.status(), CampaignStatus::Completed);
        let stored = record.spec();
        let digest = asdex_env::netlist_digest(deck);
        assert_eq!(stored.netlist_digest, Some(digest));
        assert!(stored.netlist.is_none(), "inline source must not be retained");
        let path = stored.bench.strip_prefix("netlist:").expect("rewritten bench").to_string();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), deck, "persisted source");

        // An edited deck no longer matches the pinned digest: typed
        // rejection, not a silently different campaign.
        std::fs::write(&path, deck.replace("1e3", "2e3")).unwrap();
        let resubmit = CampaignSpec {
            bench: stored.bench.clone(),
            netlist_digest: Some(digest),
            agent: "random".to_string(),
            budget: 25,
            ..CampaignSpec::default()
        };
        match scheduler.submit(Some(id.clone()), resubmit) {
            Err(SubmitError::Invalid(msg)) => assert!(msg.contains("digest"), "{msg}"),
            other => panic!("edited netlist must be rejected, got {other:?}"),
        }
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_capacity_bounds_admission() {
        let dir = temp_dir("capacity");
        // Single slow runner, capacity 1: with the runner busy, one spec
        // queues and the next is rejected.
        let scheduler = Scheduler::start(
            SchedulerConfig {
                queue_capacity: 1,
                max_active: 1,
                journal_dir: dir.clone(),
                ..SchedulerConfig::default()
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let mut rejected = false;
        let mut ids = Vec::new();
        for seed in 0..8 {
            match scheduler.submit(None, quick_spec(seed)) {
                Ok(id) => ids.push(id),
                Err(SubmitError::QueueFull) => {
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejected, "a bounded queue must reject eventually");
        for id in &ids {
            assert!(scheduler.wait(id, Duration::from_secs(60)));
        }
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_inflight_ids_conflict() {
        let dir = temp_dir("conflict");
        let scheduler = Scheduler::start(
            SchedulerConfig { max_active: 1, journal_dir: dir.clone(), ..SchedulerConfig::default() },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        scheduler.submit(Some("dup".into()), quick_spec(1)).unwrap();
        let second = scheduler.submit(Some("dup".into()), quick_spec(1));
        assert!(matches!(second, Err(SubmitError::Conflict(_))));
        assert!(scheduler.wait("dup", Duration::from_secs(60)));
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_interrupts_queued_work_and_rejects_new() {
        let dir = temp_dir("drain");
        let scheduler = Scheduler::start(
            SchedulerConfig {
                max_active: 1,
                journal_dir: dir.clone(),
                ..SchedulerConfig::default()
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let ids: Vec<String> =
            (0..4).map(|s| scheduler.submit(None, quick_spec(s)).unwrap()).collect();
        scheduler.drain();
        assert!(matches!(scheduler.submit(None, quick_spec(9)), Err(SubmitError::Draining)));
        for id in &ids {
            let status = scheduler.get(id).unwrap().status();
            assert!(status.is_terminal(), "{id} left non-terminal after drain: {status:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_resubmits_of_one_id_conserve_campaigns() {
        let dir = temp_dir("race");
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(
            SchedulerConfig {
                max_active: 2,
                queue_capacity: 4,
                journal_dir: dir.clone(),
                ..SchedulerConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        // Four clients hammer the same id. Each accepted submission is a
        // resume of the previous run's journal; the scheduler must
        // serialize them (Conflict while in flight) and never lose or
        // double-count one.
        let mut accepted = 0usize;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                let scheduler = &scheduler;
                handles.push(s.spawn(move || {
                    let mut ok = 0usize;
                    for _ in 0..12 {
                        match scheduler.submit(Some("hot".into()), quick_spec(3)) {
                            Ok(id) => {
                                ok += 1;
                                assert!(scheduler.wait(&id, Duration::from_secs(60)));
                            }
                            Err(SubmitError::Conflict(_)) | Err(SubmitError::QueueFull) => {
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("unexpected admission error: {e}"),
                        }
                    }
                    ok
                }));
            }
            for handle in handles {
                accepted += handle.join().unwrap();
            }
        });
        assert!(accepted >= 1, "at least one submission must win");
        // Conservation law at quiescence: every accepted campaign reached
        // exactly one terminal state. A double-admitted id (the old
        // check-then-act race) breaks this by running two records for one
        // submission window.
        let submitted = metrics.campaigns_submitted.load(Ordering::Relaxed) as usize;
        let terminal = (metrics.campaigns_completed.load(Ordering::Relaxed)
            + metrics.campaigns_interrupted.load(Ordering::Relaxed)
            + metrics.campaigns_failed.load(Ordering::Relaxed)) as usize;
        assert_eq!(submitted, accepted);
        assert_eq!(terminal, accepted, "every accepted campaign ends exactly once");
        assert_eq!(scheduler.get("hot").unwrap().status(), CampaignStatus::Completed);
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_scheduler_on_a_live_directory_is_rejected_typed() {
        let dir = temp_dir("fence");
        let first = Scheduler::start(
            SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let second = Scheduler::start(
            SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
            Arc::new(Metrics::new()),
        );
        match second {
            Err(StartError::Lock(LockError::Held { pid, .. })) => {
                assert_eq!(pid, std::process::id());
            }
            Ok(_) => panic!("two schedulers must not share a journal directory"),
            Err(other) => panic!("expected a Held lock error, got {other}"),
        }
        first.drain();
        // Drain released the fence: a successor starts immediately.
        let third = Scheduler::start(
            SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        third.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_recovery_reexposes_terminal_and_readmits_incomplete() {
        let dir = temp_dir("recover");
        let first = Scheduler::start(
            SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let done = first.submit(Some("done".into()), quick_spec(5)).unwrap();
        assert!(first.wait(&done, Duration::from_secs(60)));
        first.drain();
        drop(first);

        // Forge the crash window: an admission the daemon acknowledged
        // but never ran. (A real SIGKILL test lives in tests/recovery.rs;
        // this exercises the replay logic deterministically in-process.)
        let (mut m, _) =
            Manifest::open(&dir.join(MANIFEST_FILE_NAME)).unwrap();
        m.append_admitted("pend", &quick_spec(6)).unwrap();
        drop(m);

        let metrics = Arc::new(Metrics::new());
        let second = Scheduler::start(
            SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
            Arc::clone(&metrics),
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !second.is_ready() {
            assert!(Instant::now() < deadline, "recovery must finish");
            std::thread::sleep(Duration::from_millis(2));
        }
        // The incomplete campaign was re-admitted without any client
        // resubmission and runs to completion.
        assert!(second.wait("pend", Duration::from_secs(60)));
        assert_eq!(second.get("pend").unwrap().status(), CampaignStatus::Completed);
        assert_eq!(metrics.recovered_campaigns.load(Ordering::Relaxed), 1);
        // The finished campaign is re-exposed from its manifest summary,
        // not re-run.
        let record = second.get("done").unwrap();
        assert_eq!(record.status(), CampaignStatus::Completed);
        let summary = record.recovered_summary().expect("manifest summary");
        assert_eq!(summary.status, "completed");
        assert!(record.outcome().is_none(), "no fake outcome object");
        second.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queued_campaigns_past_the_admission_deadline_are_shed_typed() {
        let dir = temp_dir("shed");
        let metrics = Arc::new(Metrics::new());
        // A zero admission deadline: by the time any runner pops a job,
        // its deadline has passed — every submission is shed, none run.
        let scheduler = Scheduler::start(
            SchedulerConfig {
                max_active: 1,
                journal_dir: dir.clone(),
                admission_timeout: Some(Duration::ZERO),
                ..SchedulerConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let ids: Vec<String> =
            (0..3).map(|s| scheduler.submit(None, quick_spec(s)).unwrap()).collect();
        for id in &ids {
            assert!(scheduler.wait(id, Duration::from_secs(30)));
            let record = scheduler.get(id).unwrap();
            assert_eq!(record.status(), CampaignStatus::Failed);
            let err = record.outcome().unwrap().unwrap_err();
            assert!(err.starts_with("shed:"), "typed shed message, got {err:?}");
        }
        assert_eq!(metrics.shed_deadline.load(Ordering::Relaxed), 3);
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_client_token_buckets_rate_limit_admission() {
        let dir = temp_dir("rate");
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(
            SchedulerConfig {
                journal_dir: dir.clone(),
                // Tiny refill rate, burst 2: the third rapid submission
                // from one client must be limited; other clients and
                // anonymous submitters are unaffected.
                rate_limit: Some(RateLimit { per_sec: 0.001, burst: 2.0 }),
                ..SchedulerConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let a1 = scheduler.submit_from(Some("10.0.0.1"), None, quick_spec(1));
        let a2 = scheduler.submit_from(Some("10.0.0.1"), None, quick_spec(2));
        let a3 = scheduler.submit_from(Some("10.0.0.1"), None, quick_spec(3));
        assert!(a1.is_ok() && a2.is_ok());
        match a3 {
            Err(SubmitError::RateLimited { retry_after }) => assert!(retry_after >= 1),
            other => panic!("expected RateLimited, got {other:?}"),
        }
        assert!(scheduler.submit_from(Some("10.0.0.2"), None, quick_spec(4)).is_ok());
        assert!(scheduler.submit_from(None, None, quick_spec(5)).is_ok());
        assert_eq!(metrics.shed_rate_limit.load(Ordering::Relaxed), 1);
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_identical_campaigns_dedup_and_stay_bitwise_identical() {
        use crate::protocol::outcome_json;

        // Serial reference: dedup off.
        let dir = temp_dir("dedup-ref");
        let scheduler = Scheduler::start(
            SchedulerConfig { journal_dir: dir.clone(), dedup: false, ..SchedulerConfig::default() },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let id = scheduler.submit(None, quick_spec(11)).unwrap();
        assert!(scheduler.wait(&id, Duration::from_secs(60)));
        let reference = outcome_json(&scheduler.get(&id).unwrap().outcome().unwrap().unwrap()).dump();
        assert_eq!(scheduler.dedup_stats(), asdex_env::EvalStoreStats::default());
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);

        // Two campaigns with identical specs sharing one dedup store:
        // every simulated point is computed once, handed to the other
        // campaign as a hit, and both outcomes match the store-less
        // serial reference string-for-string (i.e. bitwise).
        let dir = temp_dir("dedup");
        let scheduler = Scheduler::start(
            SchedulerConfig { max_active: 2, journal_dir: dir.clone(), ..SchedulerConfig::default() },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let first = scheduler.submit(None, quick_spec(11)).unwrap();
        let second = scheduler.submit(None, quick_spec(11)).unwrap();
        assert!(scheduler.wait(&first, Duration::from_secs(60)));
        assert!(scheduler.wait(&second, Duration::from_secs(60)));
        for id in [&first, &second] {
            let outcome = scheduler.get(id).unwrap().outcome().unwrap().unwrap();
            assert_eq!(outcome_json(&outcome).dump(), reference, "campaign {id} diverged");
        }
        let stats = scheduler.dedup_stats();
        assert!(stats.hits > 0, "identical campaigns must share evaluations: {stats:?}");
        assert!(
            stats.hits >= stats.misses,
            "the twin campaign's evaluations must all be hits: {stats:?}"
        );
        assert_eq!(stats.aborts, 0, "no owner died mid-flight: {stats:?}");
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dedup_stores_are_keyed_on_the_netlist_digest() {
        let dir = temp_dir("store-identity");
        let scheduler = Scheduler::start(
            SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        // Campaigns admitted before and after an edit of one deck file
        // name the same bench but pin different digests.
        let spec = |digest| CampaignSpec {
            bench: "netlist:deck.sp".into(),
            netlist_digest: digest,
            ..CampaignSpec::default()
        };
        let store = scheduler.store_for(&spec(Some(1)));
        assert!(Arc::ptr_eq(&store, &scheduler.store_for(&spec(Some(1)))), "same identity");
        assert!(!Arc::ptr_eq(&store, &scheduler.store_for(&spec(Some(2)))), "edited deck");
        assert!(!Arc::ptr_eq(&store, &scheduler.store_for(&spec(None))), "unpinned deck");
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_dedup_store_is_dropped_when_its_last_campaign_ends() {
        let dir = temp_dir("store-release");
        let scheduler = Scheduler::start(
            SchedulerConfig {
                max_active: 2,
                journal_dir: dir.clone(),
                ..SchedulerConfig::default()
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        // Four distinct inline decks: four evaluation identities, each
        // with its own store while its campaign runs.
        let ids: Vec<String> = (1..=4)
            .map(|k| {
                let deck = format!(
                    "rc sizing demo {k}\n.process 45\n.sizeparam rser 1e3 1e5 STEP 8\n\
                     .goal gain_db >= -60\nVDD vdd 0 {{vdd}}\nVIN in 0 DC 0.5 AC 1\n\
                     RS in out {{rser}}\nRL vdd out {k}e3\nC1 out 0 1e-9\n.end\n"
                );
                let spec = CampaignSpec {
                    netlist: Some(deck),
                    agent: "random".to_string(),
                    budget: 6,
                    ..CampaignSpec::default()
                };
                scheduler.submit(None, spec).unwrap()
            })
            .collect();
        for id in &ids {
            assert!(scheduler.wait(id, Duration::from_secs(120)));
            assert_eq!(scheduler.get(id).unwrap().status(), CampaignStatus::Completed);
        }
        assert!(scheduler.stores.lock().unwrap().live.is_empty(), "no campaign runs, no store");
        // The dropped stores' events still count, so the counters never
        // go backwards.
        let stats = scheduler.dedup_stats();
        assert!(stats.misses >= 4, "every campaign computed through its store: {stats:?}");
        assert_eq!(stats.entries, 0);
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fair_share_splits_the_thread_budget() {
        let inner = Inner {
            active: vec![
                CampaignRecord::new("a".into(), quick_spec(1)),
                CampaignRecord::new("b".into(), quick_spec(2)),
                CampaignRecord::new("c".into(), quick_spec(3)),
            ],
            ..Inner::default()
        };
        Scheduler::rebalance(&inner, 8);
        let shares: Vec<usize> =
            inner.active.iter().map(|j| j.share.load(Ordering::SeqCst)).collect();
        assert_eq!(shares.iter().sum::<usize>(), 8);
        assert_eq!(shares, vec![3, 3, 2]);
        // Over-subscribed: everyone still gets at least one thread.
        Scheduler::rebalance(&inner, 2);
        let shares: Vec<usize> =
            inner.active.iter().map(|j| j.share.load(Ordering::SeqCst)).collect();
        assert_eq!(shares, vec![1, 1, 1]);
    }
}

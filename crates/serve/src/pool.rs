//! The supervision tree over sandboxed evaluation workers.
//!
//! A [`WorkerPool`] owns N `asdex worker` child processes (spawned from
//! [`crate::worker`]'s protocol) and implements
//! [`asdex_env::EvalDispatcher`], so a `SizingProblem` routes every
//! retry-ladder attempt through a worker process instead of the daemon's
//! own address space. The supervision policy:
//!
//! * **Crash detection.** A reader thread per worker turns pipe EOF into
//!   an immediate death signal; no polling of `wait(2)` on the hot path.
//! * **Restart with backoff.** A dead worker's slot goes `Down` and is
//!   respawned after an exponentially growing delay
//!   (`base_backoff … max_backoff`), up to `restart_budget` restarts,
//!   after which the slot is `Retired`. With every slot retired the pool
//!   falls back to in-process evaluation — degraded isolation, never a
//!   degraded answer.
//! * **Re-dispatch.** An attempt in flight on a worker that dies is
//!   re-sent to another worker, up to `redispatch_budget` times. Attempts
//!   are pure functions of `(x, corner, attempt)`, so a re-run is
//!   bitwise-identical — an externally SIGKILLed worker is invisible in
//!   the campaign outcome.
//! * **Quarantine.** An attempt that kills workers past its re-dispatch
//!   budget is deterministically lethal; the pool memoizes it as
//!   [`FailureKind::WorkerPanic`] — exactly what the in-process path
//!   reports for a caught panic — and never sends it to a worker again.
//! * **Deadlines.** Each attempt carries a wall deadline derived from
//!   [`asdex_spice::analysis::SolveBudget::wall_allowance`] (escalating with the
//!   retry rung, like the in-process solve watchdog). A worker that
//!   overruns it is killed and the attempt reports
//!   [`FailureKind::Timeout`] — the same type an in-process hang
//!   produces — with **no** re-dispatch, because a deterministic hang
//!   would hang again.
//! * **Heartbeats.** A monitor thread pings idle workers and proactively
//!   respawns `Down` slots, so a crashed-while-idle worker is replaced
//!   before the next attempt needs it.
//!
//! Worker death is a **typed evaluation failure**, never a daemon
//! outage: the supervisor absorbs aborts, kills, hangs, and handshake
//! failures into the existing [`FailureKind`] taxonomy that the retry
//! ladder, journal, and metrics already understand.

use crate::metrics::WorkerStats;
use crate::worker::{
    read_frame, write_frame, AttemptReply, AttemptRequest, Handshake, PROTOCOL_VERSION,
};
use asdex_env::{run_attempt, EvalDispatcher, Evaluator, FailureKind, FaultMode, PvtSet};
use asdex_spice::analysis::SolveBudget;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Extra wall time granted on top of an attempt's solve deadline before
/// the supervisor declares the worker hung: covers frame I/O and
/// scheduling noise so healthy-but-slow attempts are not killed.
const DEADLINE_GRACE: Duration = Duration::from_millis(250);

/// How long an idle worker may take to answer a heartbeat ping.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(2);

/// Supervision policy for one [`WorkerPool`].
#[derive(Debug, Clone)]
pub struct WorkerPoolConfig {
    /// Binary to spawn (normally `std::env::current_exe()`); invoked as
    /// `<program> worker --bench … --corners …`.
    pub program: PathBuf,
    /// Benchmark name, forwarded to the worker and validated against its
    /// handshake.
    pub bench: String,
    /// Corner-set name, forwarded and validated likewise.
    pub corners: String,
    /// Linear-solver backend label (`auto`, `dense`, `sparse`), forwarded
    /// as `--solver` so child workers factor with the same backend the
    /// in-process fallback evaluator would.
    pub solver: String,
    /// Expected netlist source digest for `netlist:<path>` benches,
    /// forwarded as `--netlist-digest` and validated against the worker's
    /// handshake — configuration skew on the deck is a typed spawn
    /// failure, never silent divergence.
    pub netlist_digest: Option<u64>,
    /// Worker processes in the pool.
    pub workers: usize,
    /// Restarts granted per slot before it is retired.
    pub restart_budget: u64,
    /// Times one attempt may be re-sent after killing a worker before it
    /// is quarantined as deterministically lethal.
    pub redispatch_budget: usize,
    /// First restart delay; doubles per consecutive failure.
    pub base_backoff: Duration,
    /// Ceiling on the restart delay.
    pub max_backoff: Duration,
    /// Base wall deadline for an attempt at rung 0; escalates with the
    /// rung via [`SolveBudget::wall_allowance`].
    pub attempt_deadline: Duration,
    /// How long a fresh worker may take to produce its handshake.
    pub spawn_timeout: Duration,
    /// Monitor-thread cadence for heartbeats and proactive restarts.
    pub heartbeat_interval: Duration,
    /// Deterministic fault plan forwarded to every worker
    /// (`rate, seed, mode`); workers arm process-level modes, so injected
    /// aborts/hangs/kills land on the sacrificial child.
    pub fault: Option<(f64, u64, Option<FaultMode>)>,
}

impl WorkerPoolConfig {
    /// A policy with production defaults for the given pool shape.
    pub fn new(program: PathBuf, bench: &str, corners: &str, workers: usize) -> Self {
        WorkerPoolConfig {
            program,
            bench: bench.to_string(),
            corners: corners.to_string(),
            solver: "auto".to_string(),
            netlist_digest: None,
            workers: workers.max(1),
            restart_budget: 16,
            redispatch_budget: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            attempt_deadline: Duration::from_secs(30),
            spawn_timeout: Duration::from_secs(10),
            heartbeat_interval: Duration::from_millis(500),
            fault: None,
        }
    }
}

/// A live worker process: the child handle, its request pipe, and the
/// reply stream fed by a dedicated reader thread (which turns pipe EOF
/// into a recv error, giving the supervisor crash detection and reply
/// deadlines from one `recv_timeout`).
struct WorkerProc {
    child: Child,
    stdin: ChildStdin,
    frames: mpsc::Receiver<std::io::Result<String>>,
}

enum SlotState {
    /// Live worker waiting for an attempt.
    Idle(WorkerProc),
    /// Checked out by a dispatcher or the monitor.
    Busy,
    /// Dead; eligible for respawn once `retry_at` passes.
    Down { retry_at: Instant },
    /// Restart budget exhausted; never respawned.
    Retired,
}

struct Slot {
    state: SlotState,
    /// Restart attempts consumed (spawn successes and failures alike).
    restarts: u64,
    /// Next backoff delay; doubles per failure, resets on a completed
    /// attempt.
    backoff: Duration,
}

/// Attempt identity: the point's IEEE-754 bits, corner index, and retry
/// rung — the key attempts are pure in.
type AttemptKey = (Vec<u64>, usize, usize);

struct Shared {
    cfg: WorkerPoolConfig,
    slots: Mutex<Vec<Slot>>,
    available: Condvar,
    /// Deterministically lethal attempts, keyed by the exact request
    /// identity `(x bits, corner, rung)`. Memoizing the typed failure is
    /// sound because attempts are pure in that key.
    quarantine: Mutex<HashMap<AttemptKey, FailureKind>>,
    shutting_down: AtomicBool,
    stats: Arc<WorkerStats>,
    /// In-process evaluator used verbatim when every slot is retired.
    fallback: Arc<dyn Evaluator>,
    corners: PvtSet,
}

/// A supervised pool of evaluation worker processes; see the module docs
/// for the policy. Implements [`EvalDispatcher`], so attach it with
/// [`asdex_env::SizingProblem::with_dispatcher`].
pub struct WorkerPool {
    shared: Arc<Shared>,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Builds the pool, eagerly spawning its workers, and starts the
    /// monitor thread. Spawn failures are not fatal: the slot goes into
    /// backoff like any other death, and a pool that never gets a worker
    /// up serves every attempt through the in-process fallback.
    pub fn new(
        cfg: WorkerPoolConfig,
        fallback: Arc<dyn Evaluator>,
        corners: PvtSet,
        stats: Arc<WorkerStats>,
    ) -> Arc<WorkerPool> {
        let mut slots = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let state = match spawn_worker(&cfg) {
                Ok(proc) => {
                    WorkerStats::bump(&stats.spawns);
                    stats.alive.fetch_add(1, Ordering::Relaxed);
                    SlotState::Idle(proc)
                }
                Err(_) => SlotState::Down { retry_at: Instant::now() + cfg.base_backoff },
            };
            slots.push(Slot { state, restarts: 0, backoff: cfg.base_backoff });
        }
        let shared = Arc::new(Shared {
            cfg,
            slots: Mutex::new(slots),
            available: Condvar::new(),
            quarantine: Mutex::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
            stats,
            fallback,
            corners,
        });
        let monitor = {
            let shared = shared.clone();
            std::thread::spawn(move || shared.monitor_loop())
        };
        Arc::new(WorkerPool { shared, monitor: Mutex::new(Some(monitor)) })
    }

    /// Convenience constructor pulling the fallback evaluator and corner
    /// set from the problem the pool will serve.
    pub fn for_problem(
        cfg: WorkerPoolConfig,
        problem: &asdex_env::SizingProblem,
        stats: Arc<WorkerStats>,
    ) -> Arc<WorkerPool> {
        WorkerPool::new(cfg, problem.evaluator.clone(), problem.corners.clone(), stats)
    }

    /// Workers currently alive (the `asdex_workers_alive` gauge).
    pub fn alive(&self) -> u64 {
        self.shared.stats.alive.load(Ordering::Relaxed)
    }

    /// Operating-system process ids of the live workers — the chaos
    /// harness's kill list.
    pub fn worker_pids(&self) -> Vec<u32> {
        let slots = self.shared.slots.lock().unwrap();
        slots
            .iter()
            .filter_map(|s| match &s.state {
                SlotState::Idle(proc) => Some(proc.child.id()),
                _ => None,
            })
            .collect()
    }

    /// Drains the pool: stops the monitor, asks idle workers to exit,
    /// and kills stragglers. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.available.notify_all();
        if let Some(handle) = self.monitor.lock().unwrap().take() {
            let _ = handle.join();
        }
        let mut procs = Vec::new();
        {
            let mut slots = self.shared.slots.lock().unwrap();
            for slot in slots.iter_mut() {
                if let SlotState::Idle(mut proc) =
                    std::mem::replace(&mut slot.state, SlotState::Retired)
                {
                    // Polite first: Q lets the worker exit its loop.
                    let _ = write_frame(&mut proc.stdin, "Q");
                    procs.push(proc);
                }
            }
        }
        for mut proc in procs {
            let deadline = Instant::now() + Duration::from_millis(500);
            while proc.child.try_wait().ok().flatten().is_none() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = proc.child.kill();
            let _ = proc.child.wait();
            self.shared.stats.alive.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl EvalDispatcher for WorkerPool {
    fn dispatch(
        &self,
        x_phys: &[f64],
        corner_idx: usize,
        attempt: usize,
    ) -> Result<Vec<f64>, FailureKind> {
        self.shared.dispatch(x_phys, corner_idx, attempt)
    }

    fn parallelism(&self) -> usize {
        self.shared.cfg.workers
    }
}

impl Shared {
    fn dispatch(
        &self,
        x_phys: &[f64],
        corner_idx: usize,
        attempt: usize,
    ) -> Result<Vec<f64>, FailureKind> {
        let key: AttemptKey =
            (x_phys.iter().map(|v| v.to_bits()).collect(), corner_idx, attempt);
        if let Some(kind) = self.quarantine.lock().unwrap().get(&key) {
            return Err(*kind);
        }
        let deadline = SolveBudget { max_wall: Some(self.cfg.attempt_deadline), ..SolveBudget::default() }
            .wall_allowance(attempt)
            .unwrap_or(self.cfg.attempt_deadline);
        let request = AttemptRequest {
            attempt,
            corner_idx,
            deadline_ms: deadline.as_millis().min(u128::from(u64::MAX)) as u64,
            x_phys: x_phys.to_vec(),
        }
        .to_frame();
        let mut deaths = 0usize;
        loop {
            let Some((idx, mut proc)) = self.checkout() else {
                // Every slot retired (or the pool is draining): degraded
                // isolation, same answer — run the attempt in-process.
                return self.run_in_process(x_phys, corner_idx, attempt);
            };
            if write_frame(&mut proc.stdin, &request).is_err() {
                // Worker died while idle; the attempt never reached it,
                // so this does not count against the re-dispatch budget.
                self.bury(idx, proc);
                continue;
            }
            match proc.frames.recv_timeout(deadline + DEADLINE_GRACE) {
                Ok(Ok(frame)) => {
                    if let Some(reply) = AttemptReply::parse(&frame) {
                        self.stats
                            .attempt_latency
                            .observe(Duration::from_micros(reply.elapsed_us));
                        self.checkin(idx, proc);
                        return reply.result;
                    }
                    // A live worker emitting garbage is as trustworthy as
                    // a dead one.
                    self.bury(idx, proc);
                    deaths += 1;
                }
                Ok(Err(_)) | Err(RecvTimeoutError::Disconnected) => {
                    self.bury(idx, proc);
                    deaths += 1;
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Deadline overrun: kill the worker, type the attempt
                    // as the in-process watchdog would. No re-dispatch —
                    // a deterministic hang would hang again.
                    WorkerStats::bump(&self.stats.deadline_kills);
                    self.bury(idx, proc);
                    return Err(FailureKind::Timeout);
                }
            }
            if deaths > self.cfg.redispatch_budget {
                // Deterministically lethal: memoize the same typed
                // failure the in-process path reports for a caught panic.
                WorkerStats::bump(&self.stats.quarantined);
                self.quarantine.lock().unwrap().insert(key, FailureKind::WorkerPanic);
                return Err(FailureKind::WorkerPanic);
            }
            WorkerStats::bump(&self.stats.redispatches);
        }
    }

    /// The in-process escape hatch: bitwise-identical to worker execution
    /// because both sides run [`asdex_env::run_attempt`] on the same
    /// evaluator configuration.
    fn run_in_process(
        &self,
        x_phys: &[f64],
        corner_idx: usize,
        attempt: usize,
    ) -> Result<Vec<f64>, FailureKind> {
        match self.corners.corners().get(corner_idx) {
            Some(corner) => run_attempt(self.fallback.as_ref(), x_phys, corner, attempt),
            None => Err(FailureKind::InvalidInput),
        }
    }

    /// Claims a live worker: an idle one if available, else a respawn of
    /// an eligible `Down` slot, else waits. Returns `None` when every
    /// slot is retired or the pool is draining.
    fn checkout(&self) -> Option<(usize, WorkerProc)> {
        let mut slots = self.slots.lock().unwrap();
        loop {
            if self.shutting_down.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(i) = slots.iter().position(|s| matches!(s.state, SlotState::Idle(_))) {
                let SlotState::Idle(proc) = std::mem::replace(&mut slots[i].state, SlotState::Busy)
                else {
                    unreachable!("position() just matched Idle");
                };
                return Some((i, proc));
            }
            let now = Instant::now();
            let eligible = slots.iter().position(
                |s| matches!(&s.state, SlotState::Down { retry_at } if *retry_at <= now),
            );
            if let Some(i) = eligible {
                let waited = slots[i].backoff;
                slots[i].state = SlotState::Busy; // reserve while spawning unlocked
                drop(slots);
                if let Some(proc) = self.try_restart(i, waited) {
                    return Some((i, proc));
                }
                slots = self.slots.lock().unwrap();
                continue;
            }
            if slots.iter().all(|s| matches!(s.state, SlotState::Retired)) {
                return None;
            }
            // Busy workers or backoffs pending: wait for a checkin or a
            // retry_at to pass.
            let (guard, _) = self
                .available
                .wait_timeout(slots, Duration::from_millis(50))
                .unwrap();
            slots = guard;
        }
    }

    /// Respawns the (reserved-`Busy`) slot `i`. On failure the slot goes
    /// back to `Down` with a doubled backoff, or `Retired` once the
    /// restart budget is spent.
    fn try_restart(&self, i: usize, waited: Duration) -> Option<WorkerProc> {
        match spawn_worker(&self.cfg) {
            Ok(proc) => {
                WorkerStats::bump(&self.stats.spawns);
                WorkerStats::bump(&self.stats.restarts);
                self.stats.restart_delay.observe(waited);
                self.stats.alive.fetch_add(1, Ordering::Relaxed);
                let mut slots = self.slots.lock().unwrap();
                slots[i].restarts += 1;
                Some(proc)
            }
            Err(_) => {
                let mut slots = self.slots.lock().unwrap();
                let slot = &mut slots[i];
                slot.restarts += 1;
                if slot.restarts >= self.cfg.restart_budget {
                    WorkerStats::bump(&self.stats.retired);
                    slot.state = SlotState::Retired;
                } else {
                    slot.state = SlotState::Down { retry_at: Instant::now() + slot.backoff };
                    slot.backoff = (slot.backoff * 2).min(self.cfg.max_backoff);
                }
                self.available.notify_all();
                None
            }
        }
    }

    /// Returns a healthy worker to its slot and resets its failure
    /// streak.
    fn checkin(&self, i: usize, mut proc: WorkerProc) {
        let mut slots = self.slots.lock().unwrap();
        if self.shutting_down.load(Ordering::SeqCst) {
            let _ = proc.child.kill();
            let _ = proc.child.wait();
            self.stats.alive.fetch_sub(1, Ordering::Relaxed);
            slots[i].state = SlotState::Retired;
            return;
        }
        slots[i].backoff = self.cfg.base_backoff;
        slots[i].state = SlotState::Idle(proc);
        drop(slots);
        self.available.notify_all();
    }

    /// Records a worker death: reaps the child and moves the slot to
    /// `Down` (backoff doubled) or `Retired` (budget spent).
    fn bury(&self, i: usize, mut proc: WorkerProc) {
        let _ = proc.child.kill();
        let _ = proc.child.wait();
        WorkerStats::bump(&self.stats.deaths);
        self.stats.alive.fetch_sub(1, Ordering::Relaxed);
        let mut slots = self.slots.lock().unwrap();
        let slot = &mut slots[i];
        if slot.restarts >= self.cfg.restart_budget {
            WorkerStats::bump(&self.stats.retired);
            slot.state = SlotState::Retired;
        } else {
            slot.state = SlotState::Down { retry_at: Instant::now() + slot.backoff };
            slot.backoff = (slot.backoff * 2).min(self.cfg.max_backoff);
        }
        drop(slots);
        self.available.notify_all();
    }

    /// Heartbeats idle workers and proactively respawns eligible `Down`
    /// slots until shutdown.
    fn monitor_loop(&self) {
        let mut last_heartbeat = Instant::now();
        while !self.shutting_down.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
            // Proactive restarts keep the pool warm between attempts.
            loop {
                if self.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                let reserved = {
                    let mut slots = self.slots.lock().unwrap();
                    let now = Instant::now();
                    let i = slots.iter().position(
                        |s| matches!(&s.state, SlotState::Down { retry_at } if *retry_at <= now),
                    );
                    match i {
                        Some(i) => {
                            let waited = slots[i].backoff;
                            slots[i].state = SlotState::Busy;
                            Some((i, waited))
                        }
                        None => None,
                    }
                };
                let Some((i, waited)) = reserved else { break };
                match self.try_restart(i, waited) {
                    Some(proc) => self.checkin(i, proc),
                    None => break, // backoff doubled; try next tick
                }
            }
            if last_heartbeat.elapsed() < self.cfg.heartbeat_interval {
                continue;
            }
            last_heartbeat = Instant::now();
            for i in 0..self.cfg.workers {
                if self.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                let proc = {
                    let mut slots = self.slots.lock().unwrap();
                    match slots.get_mut(i) {
                        Some(slot) if matches!(slot.state, SlotState::Idle(_)) => {
                            let SlotState::Idle(proc) =
                                std::mem::replace(&mut slot.state, SlotState::Busy)
                            else {
                                unreachable!("matches! just saw Idle");
                            };
                            proc
                        }
                        _ => continue,
                    }
                };
                let mut proc = proc;
                let healthy = write_frame(&mut proc.stdin, "P").is_ok()
                    && matches!(
                        proc.frames.recv_timeout(HEARTBEAT_TIMEOUT),
                        Ok(Ok(ref pong)) if pong == "O"
                    );
                if healthy {
                    self.checkin(i, proc);
                } else {
                    self.bury(i, proc);
                }
            }
        }
    }
}

/// Spawns one worker process and validates its handshake (protocol
/// version, benchmark, corner set). Any mismatch kills the child and
/// reports a spawn failure, so configuration skew cannot dispatch.
fn spawn_worker(cfg: &WorkerPoolConfig) -> std::io::Result<WorkerProc> {
    let mut cmd = Command::new(&cfg.program);
    cmd.arg("worker")
        .arg("--bench")
        .arg(&cfg.bench)
        .arg("--corners")
        .arg(&cfg.corners)
        .arg("--solver")
        .arg(&cfg.solver)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(digest) = cfg.netlist_digest {
        cmd.arg("--netlist-digest").arg(asdex_env::recordlog::hex_u64(digest));
    }
    if let Some((rate, seed, mode)) = &cfg.fault {
        cmd.arg("--fault-rate").arg(rate.to_string());
        cmd.arg("--fault-seed").arg(seed.to_string());
        if let Some(mode) = mode {
            cmd.arg("--fault-mode").arg(mode.label());
        }
    }
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take().expect("stdin was piped");
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || loop {
        match read_frame(&mut stdout) {
            Ok(frame) => {
                if tx.send(Ok(frame)).is_err() {
                    return;
                }
            }
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    });
    let bad_handshake = |child: &mut Child, why: String| {
        let _ = child.kill();
        let _ = child.wait();
        std::io::Error::new(std::io::ErrorKind::InvalidData, why)
    };
    match rx.recv_timeout(cfg.spawn_timeout) {
        Ok(Ok(frame)) => match Handshake::parse(&frame) {
            Some(h)
                if h.proto == PROTOCOL_VERSION
                    && h.bench == cfg.bench
                    && h.corners == cfg.corners
                    && h.netlist_digest == cfg.netlist_digest =>
            {
                Ok(WorkerProc { child, stdin, frames: rx })
            }
            Some(h) => Err(bad_handshake(
                &mut child,
                format!(
                    "handshake mismatch: worker says proto={} bench={} corners={} digest={:?}",
                    h.proto, h.bench, h.corners, h.netlist_digest
                ),
            )),
            None => Err(bad_handshake(&mut child, format!("unparseable handshake {frame:?}"))),
        },
        Ok(Err(e)) => Err(bad_handshake(&mut child, format!("handshake read: {e}"))),
        Err(_) => Err(bad_handshake(&mut child, "handshake timeout".to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dead_pool(workers: usize, restart_budget: u64) -> Arc<WorkerPool> {
        // A program that cannot possibly exist: every spawn fails, so the
        // supervision path (backoff, retire, fallback) runs without any
        // real child processes.
        let mut cfg = WorkerPoolConfig::new(
            PathBuf::from("/nonexistent/asdex-worker-binary"),
            "bowl2",
            "nominal",
            workers,
        );
        cfg.restart_budget = restart_budget;
        cfg.base_backoff = Duration::from_millis(1);
        cfg.max_backoff = Duration::from_millis(4);
        cfg.heartbeat_interval = Duration::from_millis(20);
        let problem = crate::campaign::build_problem("bowl2", "nominal").unwrap();
        WorkerPool::for_problem(cfg, &problem, Arc::new(WorkerStats::new()))
    }

    #[test]
    fn unspawnable_pool_falls_back_to_in_process_results() {
        let problem = crate::campaign::build_problem("bowl2", "nominal").unwrap();
        let pool = dead_pool(2, 2);
        let x = problem.space.to_physical(&[0.25, 0.75]).unwrap();
        let via_pool = pool.dispatch(&x, 0, 0);
        let direct = run_attempt(problem.evaluator.as_ref(), &x, &problem.corners.corners()[0], 0);
        assert_eq!(via_pool, direct, "fallback must be bitwise in-process");
        assert_eq!(pool.alive(), 0);
        pool.shutdown();
    }

    #[test]
    fn out_of_range_corner_is_invalid_input() {
        let pool = dead_pool(1, 1);
        let problem = crate::campaign::build_problem("bowl2", "nominal").unwrap();
        let x = problem.space.to_physical(&[0.5, 0.5]).unwrap();
        assert_eq!(pool.dispatch(&x, 99, 0), Err(FailureKind::InvalidInput));
        pool.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let pool = dead_pool(1, 1);
        pool.shutdown();
        pool.shutdown();
        drop(pool); // runs shutdown() again via Drop
    }
}

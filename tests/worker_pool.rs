//! Chaos and equivalence tests for process-isolated evaluation workers.
//!
//! The contracts under test extend the repo's determinism guarantees to
//! the worker-process execution model:
//!
//! 1. **Worker-count invariance** — campaigns dispatched to 1 or 4
//!    sandboxed `asdex worker` processes produce outcomes bitwise
//!    identical to in-process execution, and sign-off rounds of the
//!    45 nm opamp through 1, 2 or 4 workers evaluate exactly as they do
//!    in process, serially or on 4 threads.
//! 2. **Injected-fault equivalence** — process-level fault modes
//!    (worker-abort, worker-hang, worker-kill) produce evaluations
//!    bitwise identical to the unarmed in-process degradations of the
//!    same fault plan: abort/kill ⇔ a caught panic (`worker-panic`),
//!    hang ⇔ a solve-deadline expiry (`timeout`).
//! 3. **SIGKILL transparency** — externally killing random workers in a
//!    loop mid-campaign loses zero campaigns and zero evaluations: the
//!    daemon stays up, every campaign completes, and the outcome is
//!    bitwise identical to a clean run.
//! 4. **Lifecycle** — a pool starts its workers side by side, and a
//!    drain stops and reaps every worker, killing one that ignores `Q`
//!    at the drain deadline.

use asdex::env::{
    EvalRequest, Evaluation, FaultConfig, FaultInjectingEvaluator, FaultMode, SizingProblem,
};
use asdex::serve::protocol::outcome_json;
use asdex::serve::scheduler::CampaignStatus;
use asdex::serve::{
    build_problem, problem_for, run_campaign, CampaignSpec, Scheduler, SchedulerConfig,
    WorkerPool, WorkerPoolConfig, WorkerStats,
};
use asdex::serve::worker::{write_frame, Handshake, PROTOCOL_VERSION};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdex-wp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_asdex"))
}

/// Serial in-process reference for one campaign, as canonical JSON.
fn serial_reference(spec: &CampaignSpec) -> String {
    let problem = build_problem(&spec.bench, &spec.corners).expect("benchmark builds");
    let outcome = run_campaign(&problem, spec, None).expect("campaign runs");
    outcome_json(&outcome).dump()
}

fn scheduler_with_workers(dir: PathBuf, workers: usize) -> Arc<Scheduler> {
    Scheduler::start(
        SchedulerConfig {
            max_active: 4,
            thread_budget: 2,
            journal_dir: dir,
            workers,
            worker_program: Some(worker_binary()),
            ..SchedulerConfig::default()
        },
        Arc::new(asdex::serve::Metrics::new()),
    )
    .expect("scheduler starts")
}

#[test]
fn worker_counts_one_and_four_match_in_process_bitwise() {
    let specs: Vec<CampaignSpec> = (0..4u64)
        .map(|k| CampaignSpec {
            bench: "bowl3".to_string(),
            agent: ["trm", "bo", "random"][(k % 3) as usize].to_string(),
            seed: 500 + k,
            budget: 400,
            ..CampaignSpec::default()
        })
        .collect();
    let references: Vec<String> = specs.iter().map(serial_reference).collect();

    for workers in [1usize, 4] {
        let dir = temp_dir(&format!("count-{workers}"));
        let scheduler = scheduler_with_workers(dir.clone(), workers);
        let ids: Vec<String> = specs
            .iter()
            .enumerate()
            .map(|(k, s)| scheduler.submit(Some(format!("w{workers}-{k}")), s.clone()).unwrap())
            .collect();
        for (k, id) in ids.iter().enumerate() {
            assert!(scheduler.wait(id, Duration::from_secs(300)), "{id} timed out");
            let record = scheduler.get(id).expect("registered");
            assert_eq!(record.status(), CampaignStatus::Completed, "{id}");
            let outcome = record.outcome().expect("terminal").expect("no error");
            assert_eq!(
                outcome_json(&outcome).dump(),
                references[k],
                "campaign {id} diverged from in-process execution at {workers} worker(s)"
            );
        }
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One sign-off round: 8 incumbents plus 2 fresh proposals, each point
/// at every corner. The proposals are distinct grid points per round.
fn signoff_round(problem: &SizingProblem, round: usize) -> Vec<EvalRequest> {
    let (n_corners, dim) = (problem.corners.len(), problem.dim());
    let incumbents = (0..8).map(|k| vec![0.35 + 0.03 * k as f64; dim]);
    let proposals = (0..2).map(|k| vec![0.60 + 0.0111 * (2 * round + k) as f64; dim]);
    incumbents.chain(proposals).flat_map(|u| EvalRequest::fan_out(&u, n_corners)).collect()
}

/// The incumbents once, as a search mid-run has them in its workspaces,
/// then four sign-off rounds.
fn signoff_rounds(problem: &SizingProblem) -> Vec<Vec<Evaluation>> {
    let incumbents = signoff_round(problem, 0)[..8 * problem.corners.len()].to_vec();
    std::iter::once(incumbents)
        .chain((0..4).map(|round| signoff_round(problem, round)))
        .map(|requests| problem.evaluate_batch(&requests, usize::MAX))
        .collect()
}

#[test]
fn signoff_rounds_match_in_process_through_one_two_and_four_workers() {
    // Built as each worker builds it: `problem_for` pins `auto`, where an
    // unpinned problem would follow ASDEX_SOLVER.
    let spec = CampaignSpec {
        bench: "opamp45".to_string(),
        corners: "signoff5".to_string(),
        ..CampaignSpec::default()
    };
    let problem = || problem_for(&spec).expect("opamp45 builds");
    let serial = signoff_rounds(&problem().with_threads(1));
    assert_eq!(signoff_rounds(&problem().with_threads(4)), serial, "4 threads diverged");
    for workers in [1usize, 2, 4] {
        let cfg = WorkerPoolConfig::new(worker_binary(), &spec.bench, &spec.corners, workers);
        let p = problem();
        let pool = WorkerPool::for_problem(cfg, &p, Arc::new(WorkerStats::new()));
        let pooled = signoff_rounds(&p.with_threads(workers).with_dispatcher(pool.clone()));
        pool.shutdown();
        assert_eq!(pooled, serial, "{workers} worker(s) diverged from in-process");
    }
}

/// Compares pooled evaluation under an armed process-level fault plan
/// against in-process evaluation of the identical (unarmed) plan, point
/// by point, as full `Evaluation` structs.
fn assert_fault_mode_equivalence(mode: FaultMode, rate: f64, seed: u64) {
    let fault_cfg = FaultConfig::only(mode, rate, seed);

    let mut reference = build_problem("bowl3", "nominal").unwrap();
    reference.evaluator =
        Arc::new(FaultInjectingEvaluator::new(reference.evaluator.clone(), fault_cfg));

    let mut pooled = build_problem("bowl3", "nominal").unwrap();
    pooled.evaluator =
        Arc::new(FaultInjectingEvaluator::new(pooled.evaluator.clone(), fault_cfg));
    let mut cfg = WorkerPoolConfig::new(worker_binary(), "bowl3", "nominal", 2);
    cfg.fault = Some((rate, seed, Some(mode)));
    // Injected hangs are real sleeps in the worker; keep the supervisor
    // deadline tight so the test stays fast. Lethal attempts are
    // deterministic, so one re-dispatch is enough to prove the path.
    cfg.attempt_deadline = Duration::from_millis(250);
    cfg.redispatch_budget = 1;
    let stats = Arc::new(WorkerStats::new());
    let pool = WorkerPool::for_problem(cfg, &pooled, Arc::clone(&stats));
    let pooled = pooled.with_dispatcher(pool.clone());

    let mut mismatches = Vec::new();
    for k in 0..12usize {
        let t = k as f64 / 11.0;
        let u = vec![t, 1.0 - t, (0.3 + 0.4 * t).clamp(0.0, 1.0)];
        let via_pool = pooled.evaluate_normalized(&u, 0);
        let direct = reference.evaluate_normalized(&u, 0);
        if via_pool != direct {
            mismatches.push(format!("point {k}: pooled {via_pool:?} != direct {direct:?}"));
        }
    }
    pool.shutdown();
    assert!(
        mismatches.is_empty(),
        "{} under injected {} faults diverged:\n{}",
        "worker pool",
        mode.label(),
        mismatches.join("\n")
    );
    assert!(
        stats.deaths.load(Ordering::Relaxed) > 0 || mode == FaultMode::WorkerHang,
        "injected {} faults never killed a worker — the chaos was not exercised",
        mode.label()
    );
}

#[test]
fn injected_worker_abort_matches_in_process_panics() {
    assert_fault_mode_equivalence(FaultMode::WorkerAbort, 0.3, 41);
}

#[test]
fn injected_worker_kill_matches_in_process_panics() {
    assert_fault_mode_equivalence(FaultMode::WorkerKill, 0.3, 43);
}

#[test]
fn injected_worker_hang_matches_in_process_timeouts() {
    assert_fault_mode_equivalence(FaultMode::WorkerHang, 0.25, 47);
}

/// Pool-level SIGKILL chaos: a killer thread shoots live workers while a
/// stream of evaluations flows through the pool. Every evaluation must
/// come back bitwise identical to the in-process run.
#[test]
fn external_sigkill_of_workers_is_invisible_in_evaluations() {
    let reference = build_problem("bowl4", "nominal").unwrap();
    let pooled = build_problem("bowl4", "nominal").unwrap();
    let mut cfg = WorkerPoolConfig::new(worker_binary(), "bowl4", "nominal", 4);
    cfg.base_backoff = Duration::from_millis(5);
    cfg.max_backoff = Duration::from_millis(100);
    // Fast heartbeats so the monitor notices idle corpses within the
    // lifetime of this test rather than on the 500ms production cadence.
    cfg.heartbeat_interval = Duration::from_millis(25);
    let stats = Arc::new(WorkerStats::new());
    let pool = WorkerPool::for_problem(cfg, &pooled, Arc::clone(&stats));
    let pooled = pooled.with_dispatcher(pool.clone());

    let done = Arc::new(AtomicBool::new(false));
    let killer = {
        let pool = pool.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                if let Some(pid) = pool.worker_pids().first() {
                    let _ = std::process::Command::new("kill")
                        .args(["-9", &pid.to_string()])
                        .status();
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let mut mismatches = 0usize;
    for k in 0..200usize {
        // Attempts here are microsecond-fast; without pacing, the whole
        // stream finishes before the first kill takes effect. Yield
        // periodically so kills and supervisor recovery interleave with
        // live dispatches.
        if k % 25 == 0 {
            std::thread::sleep(Duration::from_millis(20));
        }
        let t = k as f64 / 199.0;
        let u = vec![t, 1.0 - t, 0.5, (2.0 * t) % 1.0];
        let via_pool = pooled.evaluate_normalized(&u, 0);
        let direct = reference.evaluate_normalized(&u, 0);
        if via_pool != direct {
            mismatches += 1;
        }
    }
    // Kills that land on *idle* workers are buried silently (no `death`)
    // and respawned by the monitor, so the proof that chaos landed is
    // spawns beyond the initial four. Give the monitor a moment to
    // finish its recovery pass.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while stats.spawns.load(Ordering::Relaxed) <= 4 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    done.store(true, Ordering::SeqCst);
    killer.join().unwrap();
    let spawns = stats.spawns.load(Ordering::Relaxed);
    pool.shutdown();
    assert_eq!(mismatches, 0, "evaluations diverged under SIGKILL chaos");
    assert!(spawns > 4, "the killer never landed — chaos was not exercised (spawns={spawns})");
}

/// Reads the parent pid (field 4 of `/proc/<pid>/stat`, after the
/// parenthesized comm).
fn ppid_of(pid: u32) -> Option<u32> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let (_, rest) = stat.rsplit_once(')')?;
    rest.split_whitespace().nth(1)?.parse().ok()
}

/// Finds `asdex worker` children of this process working on `bench` —
/// scoped by benchmark so this killer cannot interfere with the other
/// (concurrently running) pool tests.
fn worker_pids_for_bench(bench: &str) -> Vec<u32> {
    let me = std::process::id();
    let needle: Vec<u8> = format!("worker\0--bench\0{bench}\0").into_bytes();
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| ppid_of(pid) == Some(me))
        .filter(|&pid| {
            std::fs::read(format!("/proc/{pid}/cmdline"))
                .map(|cmd| cmd.windows(needle.len()).any(|w| w == needle))
                .unwrap_or(false)
        })
        .collect()
}

/// The acceptance scenario: SIGKILL random workers in a loop while the
/// scheduler runs campaigns at worker counts 1 and 4. Zero lost
/// campaigns, bitwise-identical outcomes, and the scheduler keeps
/// accepting work afterwards.
#[test]
fn sigkill_chaos_loses_no_campaigns_and_preserves_outcomes() {
    // bowl5 is unique to this test, so the /proc-scoped killer only ever
    // shoots this test's workers.
    let specs: Vec<CampaignSpec> = (0..3u64)
        .map(|k| CampaignSpec {
            bench: "bowl5".to_string(),
            agent: ["trm", "random", "bo"][(k % 3) as usize].to_string(),
            seed: 900 + k,
            budget: 500,
            ..CampaignSpec::default()
        })
        .collect();
    let references: Vec<String> = specs.iter().map(serial_reference).collect();

    for workers in [1usize, 4] {
        let dir = temp_dir(&format!("chaos-{workers}"));
        let scheduler = scheduler_with_workers(dir.clone(), workers);

        let done = Arc::new(AtomicBool::new(false));
        let killer = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    for pid in worker_pids_for_bench("bowl5") {
                        let _ = std::process::Command::new("kill")
                            .args(["-9", &pid.to_string()])
                            .status();
                    }
                    std::thread::sleep(Duration::from_millis(30));
                }
            })
        };

        let ids: Vec<String> = specs
            .iter()
            .enumerate()
            .map(|(k, s)| scheduler.submit(Some(format!("ch{workers}-{k}")), s.clone()).unwrap())
            .collect();
        for (k, id) in ids.iter().enumerate() {
            assert!(scheduler.wait(id, Duration::from_secs(300)), "{id} timed out under chaos");
            let record = scheduler.get(id).expect("registered");
            assert_eq!(
                record.status(),
                CampaignStatus::Completed,
                "{id} lost under SIGKILL chaos at {workers} worker(s)"
            );
            let outcome = record.outcome().expect("terminal").expect("no error");
            assert_eq!(
                outcome_json(&outcome).dump(),
                references[k],
                "campaign {id} diverged under SIGKILL chaos at {workers} worker(s)"
            );
        }
        done.store(true, Ordering::SeqCst);
        killer.join().unwrap();

        // The daemon-side scheduler is still healthy: it accepts and
        // completes new work after the massacre.
        let after = scheduler
            .submit(None, CampaignSpec { bench: "bowl5".into(), budget: 120, seed: 999, ..CampaignSpec::default() })
            .expect("scheduler still accepts work");
        assert!(scheduler.wait(&after, Duration::from_secs(120)));
        assert_eq!(scheduler.get(&after).unwrap().status(), CampaignStatus::Completed);

        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Writes an executable shell script. A child `sh` writes the file, so
/// this process never holds it open for writing, where a concurrent
/// test's fork could copy the descriptor and make executing the script
/// fail with "Text file busy".
fn write_script(path: &Path, body: &str) {
    let mut sh = Command::new("sh")
        .args(["-c", "cat > \"$0\" && chmod 755 \"$0\""])
        .arg(path)
        .stdin(Stdio::piped())
        .spawn()
        .expect("sh starts");
    sh.stdin.take().unwrap().write_all(body.as_bytes()).unwrap();
    assert!(sh.wait().unwrap().success(), "cannot write {}", path.display());
}

/// A bowl2 pool of `workers` children of `program`.
fn bowl2_pool(program: PathBuf, workers: usize, heartbeat: Duration) -> Arc<WorkerPool> {
    let problem = build_problem("bowl2", "nominal").unwrap();
    let mut cfg = WorkerPoolConfig::new(program, "bowl2", "nominal", workers);
    cfg.heartbeat_interval = heartbeat;
    WorkerPool::for_problem(cfg, &problem, Arc::new(WorkerStats::new()))
}

/// Asserts that none of `pids` has a `/proc` entry: each was reaped,
/// not left running or a zombie.
fn assert_reaped(pids: &[u32]) {
    for pid in pids {
        assert!(!Path::new(&format!("/proc/{pid}")).exists(), "worker {pid} outlived its pool");
    }
}

/// A pool starts its workers side by side: three children that each
/// take 0.4 s before they exec the real worker are all up in well under
/// the 1.2 s that starting them one after another takes.
#[test]
fn pool_starts_its_workers_together() {
    let dir = temp_dir("start");
    std::fs::create_dir_all(&dir).unwrap();
    let slow = dir.join("slow-asdex");
    write_script(&slow, &format!("#!/bin/sh\nsleep 0.4\nexec '{}' \"$@\"\n", worker_binary().display()));
    let start = Instant::now();
    let pool = bowl2_pool(slow, 3, Duration::from_millis(500));
    let took = start.elapsed();
    assert_eq!(pool.alive(), 3, "every slow worker handshakes");
    let pids = pool.worker_pids();
    pool.shutdown();
    assert!(took < Duration::from_secs(1), "3 slow workers took {took:?} to start");
    assert_eq!(pool.alive(), 0);
    assert_reaped(&pids);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Healthy idle workers exit on `Q` and are reaped as soon as their
/// stdout closes: no shutdown waits out a monitor tick or a poll.
#[test]
fn shutdown_of_idle_workers_is_prompt_and_reaps_them() {
    let mut fastest = Duration::MAX;
    for _ in 0..3 {
        let pool = bowl2_pool(worker_binary(), 2, Duration::from_millis(500));
        let pids = pool.worker_pids();
        assert_eq!(pids.len(), 2);
        // Let the monitor thread enter its loop, as it has in any pool
        // that served a campaign.
        std::thread::sleep(Duration::from_millis(10));
        let start = Instant::now();
        pool.shutdown();
        fastest = fastest.min(start.elapsed());
        assert_eq!(pool.alive(), 0);
        assert_reaped(&pids);
    }
    assert!(fastest < Duration::from_millis(40), "fastest 2-worker shutdown took {fastest:?}");
}

/// A worker that handshakes but never reads `Q` is killed at the drain
/// deadline and reaped.
#[test]
fn shutdown_kills_a_worker_that_ignores_quit() {
    let dir = temp_dir("deaf");
    std::fs::create_dir_all(&dir).unwrap();
    let hello = Handshake {
        proto: PROTOCOL_VERSION,
        bench: "bowl2".to_string(),
        corners: "nominal".to_string(),
        n_meas: build_problem("bowl2", "nominal").unwrap().evaluator.measurement_names().len(),
        netlist_digest: None,
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, &hello.to_frame()).unwrap();
    let frame_path = dir.join("hello.frame");
    std::fs::write(&frame_path, frame).unwrap();
    let deaf = dir.join("deaf-worker");
    write_script(&deaf, &format!("#!/bin/sh\ncat '{}'\nexec sleep 30\n", frame_path.display()));
    // No heartbeat within the test: only the drain deals with the worker.
    let pool = bowl2_pool(deaf, 1, Duration::from_secs(60));
    assert_eq!(pool.alive(), 1, "the fake handshake is accepted");
    let pids = pool.worker_pids();
    let start = Instant::now();
    pool.shutdown();
    let took = start.elapsed();
    assert_eq!(pool.alive(), 0);
    assert_reaped(&pids);
    assert!(
        took >= Duration::from_millis(500) && took < Duration::from_secs(2),
        "a deaf worker's drain took {took:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

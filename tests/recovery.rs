//! Durability tests: daemon death must be a non-event.
//!
//! The contracts under test, straight from the design's recovery story:
//!
//! 1. **SIGKILL chaos** — a daemon killed with `kill -9` mid-campaign
//!    loses nothing: a restart over the same journal directory replays
//!    the write-ahead manifest, re-admits every incomplete campaign, and
//!    finishes each with **zero duplicate simulations** and an outcome
//!    bitwise identical to a serial run. Invariant across worker counts
//!    and solver backends.
//! 2. **Journal-dir fencing** — one writer per directory, enforced
//!    against daemons *and* CLI resumes, with typed errors for the
//!    loser; a lock left by the SIGKILLed daemon is stale and reclaimed
//!    automatically (exercised by every restart in test 1).
//! 3. **Disk-fault degradation** — injected storage faults fail only the
//!    affected campaigns, typed; the daemon keeps scheduling and serving
//!    and counts every survived fault.
//! 4. **Journals torn at creation** — a campaign whose journal ends
//!    before its metadata line restarts from the manifest's spec to the
//!    serial outcome; a complete but corrupt metadata line stays a typed
//!    failure.

use asdex::env::{DiskFault, DiskFaultKind};
use asdex::serve::json::Json;
use asdex::serve::manifest::MANIFEST_FILE_NAME;
use asdex::serve::protocol::outcome_json;
use asdex::serve::scheduler::CampaignStatus;
use asdex::serve::{
    build_problem, run_campaign, CampaignOutcome, CampaignSpec, Client, Manifest, Scheduler,
    SchedulerConfig, SubmitError,
};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdex-recov-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Serial reference with the spec's solver pinned, matching what the
/// daemon runs. Returns the canonical bitwise outcome JSON.
fn serial_reference(spec: &CampaignSpec) -> String {
    let solver = asdex::spice::analysis::SolverChoice::from_label(&spec.solver)
        .expect("known solver");
    let problem =
        build_problem(&spec.bench, &spec.corners).expect("benchmark builds").with_solver(solver);
    let outcome = run_campaign(&problem, spec, None).expect("campaign runs");
    outcome_json(&outcome).dump()
}

/// Spawns a real `asdex serve` daemon process on `port` over `dir`.
fn spawn_daemon(port: u16, dir: &Path, workers: usize) -> Child {
    Command::new(env!("CARGO_BIN_EXE_asdex"))
        .args([
            "serve",
            "--addr",
            &format!("127.0.0.1:{port}"),
            "--journal-dir",
            &dir.display().to_string(),
            "--threads",
            "2",
            "--max-active",
            "4",
            "--workers",
            &workers.to_string(),
            "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns")
}

/// Picks a free TCP port by binding port 0 and releasing it.
fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr").port()
}

/// Polls until the daemon answers `/healthz` (process up) — distinct
/// from readiness, which the tests assert separately via `/readyz`.
fn wait_until_live(client: &Client, deadline: Duration) {
    let until = Instant::now() + deadline;
    loop {
        if client.healthz().is_ok() {
            return;
        }
        assert!(Instant::now() < until, "daemon never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Complete (newline-terminated) records starting with `tag` in a journal
/// file. `E ` records are the evaluations a resume is obliged to replay
/// rather than re-simulate; the `M ` record is the campaign metadata.
fn complete_lines(path: &Path, tag: &str) -> usize {
    match std::fs::read_to_string(path) {
        Ok(text) => text
            .split_inclusive('\n')
            .filter(|raw| raw.ends_with('\n') && raw.starts_with(tag))
            .count(),
        Err(_) => 0,
    }
}

/// The SIGKILL chaos matrix: in-process evaluation with the dense
/// backend, process-isolated workers with the sparse backend. Outcomes
/// must be bitwise identical to serial runs in both.
#[test]
fn sigkilled_daemon_recovers_bitwise_identically() {
    for (workers, solver) in [(0usize, "dense"), (4usize, "sparse")] {
        let specs: Vec<CampaignSpec> = (0..4u64)
            .map(|k| CampaignSpec {
                bench: "opamp45".to_string(),
                agent: "trm".to_string(),
                seed: 40 + k,
                budget: 1500,
                // fsync per evaluation: the worst case for torn tails,
                // and enough write pressure that the kill lands mid-run.
                checkpoint_every: 1,
                solver: solver.to_string(),
                ..CampaignSpec::default()
            })
            .collect();
        let references: Vec<String> = specs.iter().map(serial_reference).collect();
        let ids: Vec<String> = (0..specs.len()).map(|k| format!("r-{k}")).collect();

        let dir = temp_dir(&format!("kill-w{workers}-{solver}"));
        let mut victim = spawn_daemon(free_port(), &dir, workers);
        // Re-read the actual port: 0 is never passed, so reuse the one we
        // chose — but the daemon may have lost the race for it. Retry on
        // a fresh port until the bind sticks.
        let mut client = None;
        for _ in 0..4 {
            let _ = victim.kill();
            let _ = victim.wait();
            let port = free_port();
            victim = spawn_daemon(port, &dir, workers);
            let candidate = Client::new(format!("127.0.0.1:{port}"));
            let until = Instant::now() + Duration::from_secs(20);
            while Instant::now() < until {
                if candidate.healthz().is_ok() {
                    client = Some(candidate);
                    break;
                }
                if let Ok(Some(_)) = victim.try_wait() {
                    break; // lost the port race; next attempt
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            if client.is_some() {
                break;
            }
        }
        let client = client.expect("daemon came up");

        for (k, spec) in specs.iter().enumerate() {
            client.submit(Some(&ids[k]), spec).expect("admitted");
        }
        // Let the campaigns get partway in, then kill -9: no drain, no
        // checkpoint call, no Drop handlers — the worst case. Kill once
        // every journal holds its metadata and an evaluation is durable,
        // not after a fixed sleep: how long a campaign runs depends on
        // the agent's speed and the host, and the kill must land
        // mid-flight on both.
        let journal = |id: &String| dir.join(format!("{id}.journal"));
        let until = Instant::now() + Duration::from_secs(20);
        while !(ids.iter().all(|id| complete_lines(&journal(id), "M ") == 1)
            && ids.iter().any(|id| complete_lines(&journal(id), "E ") > 0))
        {
            assert!(Instant::now() < until, "campaigns never reached their journals");
            std::thread::sleep(Duration::from_millis(1));
        }
        victim.kill().expect("SIGKILL");
        victim.wait().expect("reaped");

        // The kill must have landed mid-flight for the test to mean
        // anything: the manifest on disk must show at least one campaign
        // without a final terminal record.
        let manifest_text =
            std::fs::read_to_string(dir.join("manifest.log")).unwrap_or_default();
        let finalized = ids
            .iter()
            .filter(|id| {
                manifest_text.lines().any(|l| {
                    l.starts_with(&format!("T id={id} "))
                        && (l.contains("status=completed") || l.contains("status=failed"))
                })
            })
            .count();
        assert!(
            finalized < ids.len(),
            "kill -9 landed after all campaigns finished (workers={workers}); \
             raise the budget or shorten the sleep"
        );

        // What landed on disk is all the successor may replay; anything
        // beyond it must come from real (but non-duplicated) simulation.
        let recorded_at_kill: Vec<usize> =
            ids.iter().map(|id| complete_lines(&journal(id), "E ")).collect();
        // The SIGKILLed daemon left its lock file behind with a dead
        // pid — the restart below must reclaim it, not wedge.
        assert!(dir.join("asdex.lock").exists(), "kill -9 leaves the stale lock");

        let port = free_port();
        let mut successor = spawn_daemon(port, &dir, workers);
        let client = Client::new(format!("127.0.0.1:{port}"));
        wait_until_live(&client, Duration::from_secs(20));
        // Readiness gate: /readyz flips to 200 once recovery has
        // replayed the manifest (it may be instant; liveness above never
        // implies it).
        let until = Instant::now() + Duration::from_secs(30);
        while !client.readyz().expect("readyz answers") {
            assert!(Instant::now() < until, "recovery never finished");
            std::thread::sleep(Duration::from_millis(10));
        }

        for (k, id) in ids.iter().enumerate() {
            // No resubmission: recovery re-admitted incomplete campaigns
            // on its own; campaigns that finished before the kill are
            // re-exposed with their durable manifest summary.
            let doc = client.wait_for(id, Duration::from_secs(300)).expect("terminal");
            let status = doc.get("status").and_then(Json::as_str).expect("status");
            assert_eq!(status, "completed", "{id} after SIGKILL recovery: {}", doc.dump());
            match doc.get("outcome") {
                Some(outcome) => {
                    assert_eq!(
                        outcome.dump(),
                        references[k],
                        "{id} diverged after SIGKILL (workers={workers}, solver={solver})"
                    );
                    let journal = doc.get("journal").expect("journal telemetry");
                    let replayed =
                        journal.get("replayed").and_then(Json::as_u64).expect("replayed") as usize;
                    assert_eq!(
                        replayed, recorded_at_kill[k],
                        "{id}: every evaluation on disk at kill time must be replayed, \
                         not re-simulated"
                    );
                }
                None => {
                    // Finished before the kill: served from the manifest
                    // summary, whose digest must match the serial run's
                    // outcome JSON bit for bit.
                    let recovered = doc.get("recovered").expect("summary for recovered terminal");
                    let digest =
                        recovered.get("outcome_digest").and_then(Json::as_str).expect("digest");
                    assert_eq!(
                        digest,
                        format!("{:016x}", asdex::env::fnv1a(&references[k])),
                        "{id}: recovered digest diverged from the serial outcome"
                    );
                }
            }
        }

        let metrics = client.metrics().expect("metrics");
        assert!(
            metrics.contains("asdex_recovered_campaigns_total"),
            "recovery metric family missing"
        );
        client.drain().expect("graceful drain");
        let status = successor.wait().expect("reaped");
        assert!(status.success(), "drained daemon exits 0");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn journal_dir_fencing_rejects_daemon_and_cli_second_openers() {
    let dir = temp_dir("fence");
    let holder = Scheduler::start(
        SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
        Arc::new(asdex::serve::Metrics::new()),
    )
    .expect("first owner starts");

    // A second daemon process on the same directory: typed startup
    // failure, exit 1, the lock diagnostic on stderr.
    let output = Command::new(env!("CARGO_BIN_EXE_asdex"))
        .args(["serve", "--addr", "127.0.0.1:0", "--journal-dir", &dir.display().to_string()])
        .output()
        .expect("daemon runs");
    assert_eq!(output.status.code(), Some(1), "second daemon must exit 1");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("locked by live process"), "stderr: {stderr}");

    // A CLI journaled run into the same directory: same typed rejection,
    // and not a single byte written.
    let journal = dir.join("cli.journal");
    let output = Command::new(env!("CARGO_BIN_EXE_asdex"))
        .args([
            "size",
            "bowl3",
            "--budget",
            "50",
            "--journal",
            &journal.display().to_string(),
        ])
        .output()
        .expect("CLI runs");
    assert_eq!(output.status.code(), Some(1), "CLI against a live daemon's dir must exit 1");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("locked by live process"), "stderr: {stderr}");
    assert!(!journal.exists(), "the fenced CLI must not have created its journal");

    // Graceful drain releases the fence; the same CLI run now succeeds
    // (and itself takes + releases the lock).
    holder.drain();
    let output = Command::new(env!("CARGO_BIN_EXE_asdex"))
        .args([
            "size",
            "bowl3",
            "--budget",
            "50",
            "--journal",
            &journal.display().to_string(),
            "--quiet",
        ])
        .output()
        .expect("CLI runs");
    assert!(output.status.success(), "CLI after drain: {output:?}");
    assert!(journal.exists());
    assert!(!dir.join("asdex.lock").exists(), "the CLI releases the lock on exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_disk_faults_fail_only_affected_campaigns() {
    let dir = temp_dir("faults");
    let metrics = Arc::new(asdex::serve::Metrics::new());
    let scheduler = Scheduler::start(
        SchedulerConfig {
            journal_dir: dir.clone(),
            max_active: 2,
            disk_fault: Some(DiskFault::new(DiskFaultKind::FsyncError, 0.25, 1)),
            ..SchedulerConfig::default()
        },
        Arc::clone(&metrics),
    )
    .expect("scheduler starts");

    let mut admitted = Vec::new();
    let mut rejected_typed = 0usize;
    for k in 0..8u64 {
        let spec = CampaignSpec {
            bench: "bowl3".to_string(),
            seed: 60 + k,
            budget: 400,
            ..CampaignSpec::default()
        };
        match scheduler.submit(Some(format!("df-{k}")), spec) {
            Ok(id) => admitted.push(id),
            Err(SubmitError::Storage(msg)) => {
                // Write-ahead refused: nothing admitted, typed error.
                assert!(msg.contains("storage error"), "{msg}");
                assert!(scheduler.get(&format!("df-{k}")).is_none(), "df-{k} half-admitted");
                rejected_typed += 1;
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }

    let mut completed = 0usize;
    let mut failed_typed = 0usize;
    for id in &admitted {
        assert!(scheduler.wait(id, Duration::from_secs(120)), "{id} timed out");
        let record = scheduler.get(id).expect("registered");
        match record.status() {
            CampaignStatus::Completed => completed += 1,
            CampaignStatus::Failed => {
                let err = record.outcome().expect("terminal").expect_err("failed has an error");
                assert!(
                    err.contains("storage error") || err.contains("not durable"),
                    "{id}: fault-induced failure must be typed, got: {err}"
                );
                failed_typed += 1;
            }
            other => panic!("{id}: unexpected terminal status {other:?}"),
        }
    }

    // The chosen (seed, rate) must actually exercise both sides of the
    // degradation contract: faults hurt someone, and never everyone.
    assert!(completed >= 1, "at least one campaign must survive the fault rate");
    assert!(
        failed_typed + rejected_typed >= 1,
        "at least one campaign must be degraded by the fault rate \
         (completed={completed}, admitted={})",
        admitted.len()
    );
    use std::sync::atomic::Ordering;
    assert!(
        metrics.storage_errors.load(Ordering::Relaxed) > 0,
        "survived faults must be counted"
    );

    // The daemon is still a daemon: after all that, a healthy submission
    // may still hit an injected fault at admission, but the scheduler
    // keeps scheduling — drain cleanly to prove nothing wedged.
    scheduler.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Boots a scheduler over a fresh journal directory whose manifest
/// admitted `spec` as campaign `torn` and whose journal for it holds
/// `journal`, and returns the campaign's terminal status and outcome.
fn recover_from_journal(
    tag: &str,
    spec: &CampaignSpec,
    journal: &str,
) -> (CampaignStatus, Result<CampaignOutcome, String>) {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).expect("journal dir");
    let (mut manifest, _) = Manifest::open(&dir.join(MANIFEST_FILE_NAME)).expect("manifest");
    manifest.append_admitted("torn", spec).expect("admission record");
    drop(manifest);
    std::fs::write(dir.join("torn.journal"), journal).expect("journal");

    let scheduler = Scheduler::start(
        SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
        Arc::new(asdex::serve::Metrics::new()),
    )
    .expect("scheduler starts");
    let until = Instant::now() + Duration::from_secs(20);
    while !scheduler.is_ready() {
        assert!(Instant::now() < until, "recovery never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(scheduler.wait("torn", Duration::from_secs(120)), "campaign never finished");
    let record = scheduler.get("torn").expect("re-admitted from the manifest");
    let result = (record.status(), record.outcome().expect("terminal"));
    scheduler.drain();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn torn_spec() -> CampaignSpec {
    CampaignSpec {
        bench: "bowl3".to_string(),
        agent: "trm".to_string(),
        seed: 71,
        budget: 400,
        ..CampaignSpec::default()
    }
}

#[test]
fn journal_torn_at_creation_restarts_from_the_manifest_spec() {
    let spec = torn_spec();
    let reference = serial_reference(&spec);
    // The daemon died after creating the journal but before its metadata
    // line was durable: the file is empty, holds a torn header, only the
    // header, or the header and a torn `M` line.
    let torn = ["", "asdex-jou", "asdex-journal v1\n", "asdex-journal v1\nM bench=bow"];
    for (k, journal) in torn.iter().enumerate() {
        let (status, outcome) = recover_from_journal(&format!("torn-{k}"), &spec, journal);
        assert_eq!(status, CampaignStatus::Completed, "{journal:?}: {outcome:?}");
        let outcome = outcome.expect("completed campaigns carry an outcome");
        assert_eq!(outcome_json(&outcome).dump(), reference, "{journal:?}: outcome diverged");
    }
}

#[test]
fn journal_with_a_corrupt_metadata_line_stays_a_typed_failure() {
    // A complete metadata line cannot come from a crash: it is corruption,
    // and the campaign must fail naming it rather than start over.
    let (status, outcome) =
        recover_from_journal("corrupt-meta", &torn_spec(), "asdex-journal v1\nM bench\n");
    assert_eq!(status, CampaignStatus::Failed, "{outcome:?}");
    let err = outcome.expect_err("failed campaigns carry an error");
    assert!(err.contains("corrupt journal at line 2"), "{err}");
}

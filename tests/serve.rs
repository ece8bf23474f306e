//! Integration tests for the sizing-as-a-service layer.
//!
//! The two contracts under test are the serving layer's versions of the
//! repo's determinism guarantees:
//!
//! 1. **Concurrency invariance** — N campaigns running concurrently on
//!    the daemon (any thread budget) produce outcomes bitwise identical
//!    to the same campaigns run serially through the library and through
//!    the CLI's `--json` mode. Compared via the shared outcome
//!    serializer, whose `*_bits` fields make JSON string equality ⇔
//!    bitwise equality (including `EvalStats`/`HealthStats`).
//! 2. **Drain/resume invariance** — a drain mid-campaign checkpoints the
//!    journal; a fresh scheduler over the same journal directory,
//!    resubmitted with the same id, resumes and finishes with an outcome
//!    bitwise identical to an uninterrupted run and with **zero
//!    duplicate simulations** (all prior work is replayed, not re-run).

use asdex::serve::json::Json;
use asdex::serve::protocol::outcome_json;
use asdex::serve::scheduler::CampaignStatus;
use asdex::serve::{
    build_problem, run_campaign, CampaignSpec, Client, DrainHandle, Scheduler, SchedulerConfig,
    Server, ServerConfig,
};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdex-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The eight fixed campaigns the concurrency tests submit: distinct
/// seeds, all three agents represented.
fn fixed_specs() -> Vec<CampaignSpec> {
    (0..8u64)
        .map(|k| CampaignSpec {
            bench: "bowl3".to_string(),
            agent: ["trm", "bo", "random"][(k % 3) as usize].to_string(),
            seed: 100 + k,
            budget: 400,
            ..CampaignSpec::default()
        })
        .collect()
}

/// Serial reference: the library path the CLI uses, no journal, no
/// threads, no scheduler. Returns the canonical outcome JSON string.
fn serial_reference(spec: &CampaignSpec) -> String {
    let problem = build_problem(&spec.bench, &spec.corners).expect("benchmark builds");
    let outcome = run_campaign(&problem, spec, None).expect("campaign runs");
    outcome_json(&outcome).dump()
}

#[test]
fn concurrent_campaigns_match_serial_runs_bitwise() {
    let specs = fixed_specs();
    let references: Vec<String> = specs.iter().map(serial_reference).collect();

    // Thread budgets 1 and 4: the fair-share division differs, the
    // outcomes must not.
    for thread_budget in [1usize, 4] {
        let dir = temp_dir(&format!("conc-t{thread_budget}"));
        let scheduler = Scheduler::start(
            SchedulerConfig {
                max_active: 8,
                thread_budget,
                journal_dir: dir.clone(),
                ..SchedulerConfig::default()
            },
            Arc::new(asdex::serve::Metrics::new()),
        )
        .expect("scheduler starts");
        let ids: Vec<String> = specs
            .iter()
            .enumerate()
            .map(|(k, spec)| {
                scheduler.submit(Some(format!("fix-{k}")), spec.clone()).expect("admitted")
            })
            .collect();
        for (k, id) in ids.iter().enumerate() {
            assert!(scheduler.wait(id, Duration::from_secs(120)), "campaign {id} timed out");
            let record = scheduler.get(id).expect("registered");
            assert_eq!(record.status(), CampaignStatus::Completed, "{id}");
            let outcome = record.outcome().expect("terminal").expect("no error");
            assert_eq!(
                outcome_json(&outcome).dump(),
                references[k],
                "campaign {id} diverged from its serial run at thread budget {thread_budget}"
            );
        }
        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn daemon_http_outcomes_match_serial_and_cli_json() {
    let specs = fixed_specs();
    let dir = temp_dir("http");
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: SchedulerConfig {
            max_active: 8,
            thread_budget: 4,
            journal_dir: dir.clone(),
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    };
    let drain = DrainHandle::new();
    let server = Server::bind(cfg, drain.clone()).expect("daemon binds");
    let addr = server.local_addr().expect("bound").to_string();
    let server_thread = std::thread::spawn(move || server.run().expect("daemon runs"));

    let client = Client::new(addr);
    assert_eq!(
        client.healthz().expect("healthz").get("status").and_then(Json::as_str),
        Some("ok")
    );

    // Submit all eight concurrently, then poll each over HTTP.
    let ids: Vec<String> =
        specs.iter().map(|spec| client.submit(None, spec).expect("submitted")).collect();
    for (k, id) in ids.iter().enumerate() {
        let doc = client.wait_for(id, Duration::from_secs(120)).expect("completes");
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("completed"), "{id}");
        let served = doc.get("outcome").expect("outcome present").dump();
        assert_eq!(served, serial_reference(&specs[k]), "campaign {id} diverged over HTTP");
        assert!(
            !doc.get("progress").and_then(Json::as_arr).expect("progress").is_empty(),
            "campaign {id} streamed no progress lines"
        );
    }

    // CLI `--json` shares the same serializer: its `outcome` document
    // must equal the daemon's, string for string.
    for k in [0usize, 1] {
        let spec = &specs[k];
        let output = Command::new(env!("CARGO_BIN_EXE_asdex"))
            .args([
                "size",
                &spec.bench,
                "--agent",
                &spec.agent,
                "--seed",
                &spec.seed.to_string(),
                "--budget",
                &spec.budget.to_string(),
                "--json",
                "--quiet",
            ])
            .output()
            .expect("CLI runs");
        assert!(output.status.success(), "CLI failed: {output:?}");
        let doc = Json::parse(std::str::from_utf8(&output.stdout).expect("utf-8"))
            .expect("CLI emits JSON");
        assert_eq!(
            doc.get("outcome").expect("outcome").dump(),
            serial_reference(spec),
            "CLI --json diverged for seed {}",
            spec.seed
        );
    }

    let metrics = client.metrics().expect("metrics scrape");
    assert!(metrics.contains("asdex_campaigns_total{state=\"completed\"} 8"), "{metrics}");
    assert!(metrics.contains("asdex_request_latency_us_bucket"));

    drain.request_drain();
    server_thread.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_checkpoints_and_restart_resumes_without_duplicate_sims() {
    // Real SPICE work (opamp45) so a quick drain reliably lands
    // mid-campaign; modest budget to keep the test tight.
    let specs: Vec<CampaignSpec> = (0..2u64)
        .map(|k| CampaignSpec {
            bench: "opamp45".to_string(),
            agent: "trm".to_string(),
            seed: 7 + k,
            budget: 250,
            checkpoint_every: 5,
            ..CampaignSpec::default()
        })
        .collect();
    let references: Vec<String> = specs.iter().map(serial_reference).collect();

    let dir = temp_dir("drain-resume");
    let first = Scheduler::start(
        SchedulerConfig {
            max_active: 2,
            thread_budget: 2,
            journal_dir: dir.clone(),
            ..SchedulerConfig::default()
        },
        Arc::new(asdex::serve::Metrics::new()),
    )
    .expect("scheduler starts");
    let ids: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(k, spec)| first.submit(Some(format!("dr-{k}")), spec.clone()).expect("admitted"))
        .collect();
    // Let the campaigns get partway in, then pull the plug.
    std::thread::sleep(Duration::from_millis(300));
    first.drain();

    let mut recorded_before = Vec::new();
    let mut interrupted_before = 0u64;
    for id in &ids {
        let record = first.get(id).expect("registered");
        assert!(record.status().is_terminal(), "{id} not terminal after drain");
        interrupted_before += u64::from(record.status() == CampaignStatus::Interrupted);
        // (replayed, recorded) when the runner got far enough to open the
        // journal; campaigns drained while still queued have no journal.
        recorded_before.push(record.journal_info().map(|(_, recorded)| recorded).unwrap_or(0));
    }

    // "Daemon restart": a fresh scheduler over the same journal
    // directory. Boot-time recovery replays the manifest and re-admits
    // every interrupted campaign on its own — no client resubmission.
    let metrics = Arc::new(asdex::serve::Metrics::new());
    let second = Scheduler::start(
        SchedulerConfig {
            max_active: 2,
            thread_budget: 2,
            journal_dir: dir.clone(),
            ..SchedulerConfig::default()
        },
        Arc::clone(&metrics),
    )
    .expect("scheduler restarts");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !second.is_ready() {
        assert!(std::time::Instant::now() < deadline, "recovery must finish");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        metrics.recovered_campaigns.load(std::sync::atomic::Ordering::Relaxed),
        interrupted_before,
        "recovery re-admits exactly the campaigns the drain interrupted"
    );
    for (k, id) in ids.iter().enumerate() {
        let record = second.get(id).expect("manifest re-exposed every campaign");
        // A campaign that finished before the drain is re-exposed from
        // its manifest summary, not re-run; explicitly resubmitting it is
        // still legal (the resume path) and must replay to the same
        // outcome, which is what this test asserts below.
        if record.recovered_summary().is_some() {
            second.submit(Some(id.clone()), specs[k].clone()).expect("resubmitted");
        }
    }
    for (k, id) in ids.iter().enumerate() {
        assert!(second.wait(id, Duration::from_secs(300)), "{id} timed out after resume");
        let record = second.get(id).expect("registered");
        assert_eq!(record.status(), CampaignStatus::Completed, "{id}");
        let outcome = record.outcome().expect("terminal").expect("no error");
        assert_eq!(
            outcome_json(&outcome).dump(),
            references[k],
            "campaign {id} diverged after drain + restart"
        );
        let (replayed, recorded) = record.journal_info().expect("journal telemetry");
        assert_eq!(
            replayed, recorded_before[k],
            "{id}: every checkpointed evaluation must be replayed, not re-simulated"
        );
        assert!(
            recorded >= recorded_before[k],
            "{id}: the journal can only grow across a resume"
        );
    }
    second.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_errors_surface_as_http_statuses() {
    let dir = temp_dir("http-errors");
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
        ..ServerConfig::default()
    };
    let drain = DrainHandle::new();
    let server = Server::bind(cfg, drain.clone()).expect("daemon binds");
    let addr = server.local_addr().expect("bound").to_string();
    let server_thread = std::thread::spawn(move || server.run().expect("daemon runs"));
    let client = Client::new(addr);

    // Unknown benchmark -> 400 at admission, not a failed campaign.
    let bad = CampaignSpec { bench: "op999".to_string(), ..CampaignSpec::default() };
    match client.submit(None, &bad) {
        Err(asdex::serve::ClientError::Status { status, .. }) => assert_eq!(status, 400),
        other => panic!("expected HTTP 400, got {other:?}"),
    }
    // Unknown campaign -> 404.
    match client.get_campaign("ghost") {
        Err(asdex::serve::ClientError::Status { status, .. }) => assert_eq!(status, 404),
        other => panic!("expected HTTP 404, got {other:?}"),
    }
    // Duplicate in-flight id -> 409 (first one is still queued/running).
    let slow = CampaignSpec { bench: "bowl4".to_string(), budget: 4_000, ..CampaignSpec::default() };
    client.submit(Some("dup"), &slow).expect("first admitted");
    match client.submit(Some("dup"), &slow) {
        Err(asdex::serve::ClientError::Status { status, .. }) => assert_eq!(status, 409),
        Ok(_) => {
            // The first finished before the second arrived; resubmission
            // of a terminal id is legal (that's the resume path).
        }
        other => panic!("expected HTTP 409 or success, got {other:?}"),
    }
    client.wait_for("dup", Duration::from_secs(120)).expect("dup completes");

    drain.request_drain();
    server_thread.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bo_with_a_multi_corner_set_is_refused_with_400() {
    let dir = temp_dir("bo-corners");
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
        ..ServerConfig::default()
    };
    let drain = DrainHandle::new();
    let server = Server::bind(cfg, drain.clone()).expect("daemon binds");
    let addr = server.local_addr().expect("bound").to_string();
    let server_thread = std::thread::spawn(move || server.run().expect("daemon runs"));
    let client = Client::new(addr);
    let spec = CampaignSpec {
        bench: "bowl3".to_string(),
        agent: "bo".to_string(),
        corners: "signoff5".to_string(),
        budget: 60,
        ..CampaignSpec::default()
    };
    match client.submit(Some("bo5"), &spec) {
        Err(asdex::serve::ClientError::Status { status, .. }) => assert_eq!(status, 400),
        other => panic!("expected HTTP 400, got {other:?}"),
    }
    let nominal = CampaignSpec { corners: "nominal".to_string(), ..spec };
    client.submit(Some("bo1"), &nominal).expect("single-corner bo admitted");
    client.wait_for("bo1", Duration::from_secs(120)).expect("bo1 completes");
    drain.request_drain();
    server_thread.join().expect("daemon thread");
    assert!(!dir.join("bo5.journal").exists(), "a refused campaign left a journal behind");
    let _ = std::fs::remove_dir_all(&dir);
}

//! `serve_table1`: the Table I campaigns of `trm_table1` sent to a child
//! `asdex serve --threads 1 --max-active 1 --queue 64` by one closed-loop
//! client, which submits a campaign, polls it every 5 ms until it is
//! terminal, and then submits the next. Against `trm_table1`, which runs
//! the same campaigns in process, it shows what the daemon path costs.
//!
//! A round submits the 100 seeds, in an order drawn from the run seed, to
//! a freshly spawned daemon with an empty journal directory, so no round
//! finds another's evaluations in the dedup store or its journals. A
//! campaign's time runs from the start of its `POST` to the poll that saw
//! it terminal, and a seed's time is its fastest round.
//!
//! The daemon appends and fsyncs its manifest three times per campaign.
//! Campaigns whose evaluations cost nothing would make the workload a
//! measure of the disk's fsync latency, which on a shared host varies
//! several-fold from minute to minute; Table I campaigns keep it a few
//! percent of campaign time. One campaign at a time keeps the workload on
//! one core, like `trm_table1`: two-core workloads move several times as
//! much with the shared host's load.

use crate::report::Report;
use crate::stats;
use crate::trace::{self, EvalCounters, TimedEvaluator};
use crate::trm;
use crate::Cfg;
use asdex_serve::{build_problem, outcome_json, run_campaign, Client, ClientConfig, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll cadence of the client. A campaign takes tens of milliseconds, so
/// a finer cadence would only add HTTP load that competes with the
/// campaign for the machine's two cores.
const POLL: Duration = Duration::from_millis(5);
/// How long a campaign may stay unfinished before it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(30);
/// Seeds, from the head of each run's first round, that are also run in
/// process and compared with the daemon's outcomes.
const REPLAYED: usize = 5;

/// The daemon under test.
struct Daemon {
    child: Child,
    client: Client,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns a daemon on a free loopback port with a fresh journal
    /// directory; returns it with the seconds until `/readyz` said 200.
    fn spawn(cfg: &Cfg, n: usize) -> Result<(Daemon, f64), String> {
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let dir = cfg.work_dir(&format!("serve-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        let child = Command::new(&cfg.asdex)
            .args([
                "serve",
                "--addr",
                &addr,
                "--threads",
                "1",
                "--max-active",
                "1",
            ])
            .args(["--queue", "64", "--log-level", "quiet"])
            .arg("--journal-dir")
            .arg(&dir)
            .env_remove("ASDEX_THREADS")
            .env_remove("ASDEX_SOLVER")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cfg.asdex.display()))?;
        let client = Client::new(addr).with_config(ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_retries: 0,
            ..ClientConfig::default()
        });
        let daemon = Daemon { child, client, dir };
        // Polled every 0.1 ms: a coarser poll would round set-up times of
        // a few milliseconds to its period.
        while !matches!(daemon.client.readyz(), Ok(true)) {
            if started.elapsed() > Duration::from_secs(20) {
                return Err("daemon did not become ready in 20 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the daemon and gives it 10 s to exit; dropping it then
    /// kills it if it has not.
    fn stop(mut self) {
        let _ = self.client.drain();
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Counters from `/metrics` (labels kept in the key), 0 on error.
    fn metrics(&self) -> BTreeMap<String, f64> {
        let text = self.client.metrics().unwrap_or_default();
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect()
    }
}

/// Kills and reaps the daemon (also when the benchmark unwinds) and
/// removes its journal directory.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One campaign as the client saw it.
struct Seen {
    seed: u64,
    /// From the start of the `POST` to the poll that saw it terminal.
    wall_ms: f64,
    /// `POST` round trip.
    submit_ms: f64,
    /// The terminal status document's `outcome`, dumped, or why there is
    /// none.
    outcome: Result<String, String>,
    sims: usize,
}

/// Client-side HTTP timings, µs.
#[derive(Default)]
struct Http {
    posts: Vec<f64>,
    gets: Vec<f64>,
}

/// Submits campaign `seed` as `id` and polls it until it is terminal.
fn campaign(client: &Client, id: &str, seed: u64, http: &mut Http, k: u64) -> Seen {
    let root = trace::new_id();
    let start = trace::now();
    let t0 = Instant::now();
    let mut seen = Seen {
        seed,
        wall_ms: 0.0,
        submit_ms: 0.0,
        outcome: Err(format!("campaign seed {seed} did not finish")),
        sims: 0,
    };
    let submitted = client.submit(Some(id), &trm::spec(seed));
    seen.submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    http.posts.push(seen.submit_ms * 1e3);
    trace::record(trace::new_id(), root, k, "serve", "submit", start);
    if let Err(e) = submitted {
        seen.outcome = Err(format!("submit seed {seed}: {e}"));
        return seen;
    }
    while t0.elapsed() < TIMEOUT {
        std::thread::sleep(POLL);
        let poll_start = trace::now();
        let t = Instant::now();
        let doc = client.get_campaign(id);
        http.gets.push(t.elapsed().as_secs_f64() * 1e6);
        trace::record(trace::new_id(), root, k, "serve", "poll", poll_start);
        let doc = match doc {
            Ok(doc) => doc,
            Err(e) => {
                seen.outcome = Err(format!("poll seed {seed}: {e}"));
                break;
            }
        };
        let status = doc.get("status").and_then(Json::as_str).unwrap_or("");
        if !matches!(status, "completed" | "interrupted" | "failed") {
            continue;
        }
        seen.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        seen.outcome = match doc.get("outcome") {
            Some(outcome) if status == "completed" => {
                seen.sims = outcome
                    .get("simulations")
                    .and_then(Json::as_u64)
                    .unwrap_or(0) as usize;
                Ok(outcome.dump())
            }
            _ => Err(format!(
                "campaign seed {seed} ended {status}: {}",
                doc.get("error").and_then(Json::as_str).unwrap_or("")
            )),
        };
        break;
    }
    trace::record(root, 0, k, "serve", "campaign", start);
    seen
}

/// What the daemons of one pass did, from `/metrics` and `/proc`.
#[derive(Default)]
struct DaemonUse {
    peak_rss_mb: f64,
    cpu_s: f64,
    write_syscalls: f64,
    write_bytes: f64,
    journal_bytes: f64,
    eval_sims: f64,
    dedup_hits: f64,
}

impl DaemonUse {
    /// Adds a finished round's daemon; it must not have been stopped yet.
    fn add(&mut self, d: &Daemon, metrics_before: &BTreeMap<String, f64>) {
        let after = d.metrics();
        let delta = |key: &str| {
            after.get(key).copied().unwrap_or(0.0) - metrics_before.get(key).copied().unwrap_or(0.0)
        };
        let (syscalls, bytes) = stats::io_writes(d.pid());
        self.peak_rss_mb = self.peak_rss_mb.max(stats::peak_rss_mb(d.pid()));
        self.cpu_s += stats::cpu_seconds(d.pid(), false);
        self.write_syscalls += syscalls;
        self.write_bytes += bytes;
        self.journal_bytes += stats::dir_bytes(&d.dir);
        self.eval_sims += delta("asdex_eval_sims_total");
        self.dedup_hits += delta("asdex_dedup_events_total{event=\"hit\"}");
    }
}

/// One measured pass: rounds on fresh daemons until `seconds` have
/// passed. The first round is always whole, so every seed has a time;
/// smoke runs may stop it after three campaigns.
struct Pass {
    campaigns: Vec<Seen>,
    setups: Vec<f64>,
    daemons: DaemonUse,
    http: Http,
    elapsed_s: f64,
    errors: Vec<String>,
}

fn run_pass(cfg: &Cfg, pass_no: usize, seconds: f64) -> Pass {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut pass = Pass {
        campaigns: Vec::new(),
        setups: Vec::new(),
        daemons: DaemonUse::default(),
        http: Http::default(),
        elapsed_s: 0.0,
        errors: Vec::new(),
    };
    let partial = cfg.smoke;
    let mut spawned = 0;
    for round_no in 0.. {
        if round_no > 0 && Instant::now() >= deadline {
            break;
        }
        // Set-up: the round's daemon is the last of `SETUPS_PER_POINT`
        // spawned and timed back to back; the others are stopped.
        let mut daemon: Option<Daemon> = None;
        let mut spawn_error = None;
        crate::time_setups(&mut pass.setups, || {
            if spawn_error.is_some() {
                return f64::INFINITY;
            }
            if let Some(d) = daemon.take() {
                d.stop();
            }
            spawned += 1;
            match Daemon::spawn(cfg, spawned) {
                Ok((d, ready_s)) => {
                    daemon = Some(d);
                    ready_s
                }
                Err(e) => {
                    spawn_error = Some(e);
                    f64::INFINITY
                }
            }
        });
        if let Some(e) = spawn_error {
            pass.errors.push(e);
            break;
        }
        let daemon = daemon.expect("a set-up ran");
        let before = daemon.metrics();
        for (k, seed) in trm::order(cfg.seed, round_no).into_iter().enumerate() {
            let over = Instant::now() >= deadline;
            if over && (round_no > 0 || (partial && k >= 3)) {
                break;
            }
            let id = format!("p{pass_no}r{round_no}s{seed}");
            let seen = campaign(&daemon.client, &id, seed, &mut pass.http, k as u64);
            pass.campaigns.push(seen);
        }
        pass.daemons.add(&daemon, &before);
        daemon.stop();
    }
    pass.elapsed_s = started.elapsed().as_secs_f64();
    pass
}

/// Each seed's first completed outcome, in seed order.
fn outcomes(campaigns: &[Seen]) -> BTreeMap<u64, &str> {
    let mut first = BTreeMap::new();
    for c in campaigns {
        if let Ok(json) = &c.outcome {
            first.entry(c.seed).or_insert(json.as_str());
        }
    }
    first
}

/// Each seed's fastest campaign time (ms) and its simulations, in seed
/// order.
fn best(campaigns: &[Seen]) -> Vec<(f64, usize)> {
    let mut by_seed: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    for c in campaigns.iter().filter(|c| c.outcome.is_ok()) {
        let b = by_seed.entry(c.seed).or_insert((f64::INFINITY, c.sims));
        b.0 = b.0.min(c.wall_ms);
    }
    by_seed.into_values().collect()
}

/// Checks the pass: every campaign completed, each seed's outcome is the
/// same in every round, and the first `REPLAYED` seeds of the run's order
/// match `run_campaign` in process, string for string (the serializer
/// carries every float's bits). The in-process replays go through a
/// timing decorator, which gives a traced run its `env.*` metrics.
fn check(cfg: &Cfg, pass: &Pass, counters: &Arc<EvalCounters>, report: &mut Report) -> f64 {
    for e in &pass.errors {
        report.fail(e.clone());
    }
    let first = outcomes(&pass.campaigns);
    for c in &pass.campaigns {
        match &c.outcome {
            Err(e) => report.fail(e.clone()),
            Ok(json) if first.get(&c.seed) != Some(&json.as_str()) => report.fail(format!(
                "campaign seed {} changed its outcome between rounds",
                c.seed
            )),
            Ok(_) => {}
        }
    }
    let started = Instant::now();
    for seed in trm::order(cfg.seed, 0).into_iter().take(REPLAYED) {
        let Some(daemon_json) = first.get(&seed) else {
            continue;
        };
        let mut p = build_problem(trm::BENCH, "nominal")
            .expect("opamp45 is a built-in bench")
            .with_threads(1);
        p.evaluator = TimedEvaluator::wrap(p.evaluator.clone(), counters.clone());
        let local = run_campaign(&p, &trm::spec(seed), None).map(|o| outcome_json(&o).dump());
        if local.as_deref() != Ok(*daemon_json) {
            report.fail(format!(
                "campaign seed {seed}: daemon outcome differs from in-process"
            ));
        }
    }
    started.elapsed().as_secs_f64()
}

/// Runs `serve_table1`.
pub fn run(cfg: &Cfg) -> Report {
    let mut report = Report::default();
    let mut digests = Vec::new();
    let mut untraced_mean = None;
    for (pass_no, (traced, seconds)) in cfg.passes().into_iter().enumerate() {
        trace::set_enabled(traced);
        let cpu0 = stats::cpu_seconds(std::process::id(), false);
        let pass = run_pass(cfg, pass_no, seconds);
        let cpu = stats::cpu_seconds(std::process::id(), false) - cpu0;
        trace::set_enabled(false);
        report.attempted += pass.campaigns.len().max(pass.errors.len()) as u64;
        let counters = Arc::new(EvalCounters::default());
        let replay_s = check(cfg, &pass, &counters, &mut report);
        digests.push(trm::digest(cfg, &outcomes(&pass.campaigns)));
        let best = best(&pass.campaigns);
        let ms: Vec<f64> = best.iter().map(|b| b.0).collect();
        let walls: Vec<f64> = pass.campaigns.iter().map(|c| c.wall_ms).collect();
        if !traced {
            let sims: usize = best.iter().map(|b| b.1).sum();
            report.set("setup_s", stats::setup_time(&pass.setups));
            report.set("sims_per_s", sims as f64 / (ms.iter().sum::<f64>() / 1e3));
            report.set("latency_ms_p50", stats::hd_quantile(&ms, 0.5));
            report.set("latency_ms_p90", stats::hd_quantile(&ms, 0.9));
            report.set("peak_rss_mb", pass.daemons.peak_rss_mb);
            report.notes.push(format!(
                "{} campaigns over {} seeds",
                pass.campaigns.len(),
                best.len()
            ));
            untraced_mean = Some(stats::mean(&walls));
            continue;
        }
        if let Some(base) = untraced_mean {
            report.set(
                "bench.trace_overhead_ratio",
                stats::mean(&walls) / base - 1.0,
            );
        }
        let d = &pass.daemons;
        let n = pass.campaigns.len().max(1) as f64;
        let submit: Vec<f64> = pass.campaigns.iter().map(|c| c.submit_ms).collect();
        report.set(
            "bench.cpu_util",
            (cpu + d.cpu_s) / pass.elapsed_s / crate::cores(),
        );
        report.set("bench.items", n);
        report.set("serve.campaigns_per_s", n / pass.elapsed_s);
        report.set("serve.submit_ms_p50", stats::quantile(&submit, 0.5));
        report.set("serve.submit_ms_p95", stats::quantile(&submit, 0.95));
        report.set("serve.polls_per_campaign", pass.http.gets.len() as f64 / n);
        report.set("serve.http_post_us_mean", stats::mean(&pass.http.posts));
        report.set("serve.http_get_us_mean", stats::mean(&pass.http.gets));
        report.set("serve.eval_sims", d.eval_sims);
        report.set("serve.dedup_hits", d.dedup_hits);
        report.set("serve.daemon_cpu_ms_per_campaign", d.cpu_s * 1e3 / n);
        report.set("serve.write_syscalls_per_campaign", d.write_syscalls / n);
        report.set(
            "serve.disk_write_kb_per_campaign",
            d.write_bytes / 1024.0 / n,
        );
        report.set(
            "serve.journal_kb_per_campaign",
            d.journal_bytes / 1024.0 / n,
        );
        crate::set_env_metrics(&mut report, &counters, replay_s, 1.0);
        cfg.write_spans("serve_table1", &trace::take());
    }
    report.notes.push(format!(
        "digest {:016x} over the outcomes of the checked seeds",
        digests[0]
    ));
    if digests.iter().any(|d| *d != digests[0]) {
        report.fail("traced and untraced passes produced different outcomes".to_string());
    }
    report.digest = Some(digests[0]);
    report
}

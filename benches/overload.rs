//! Measures the serving layer under load: a p99-vs-concurrency sweep of
//! the reactor front end, and the cross-campaign evaluation dedup store
//! on versus off under a duplicate-heavy workload.
//!
//! Each configuration boots a fresh in-process daemon on an ephemeral
//! port and drives it with the same load harness the CLI's `loadgen`
//! subcommand uses, so the numbers line up with
//! `bench_results/serve_throughput.csv`. Results land in
//! `bench_results/overload.csv`.
//!
//! Run with `cargo bench --bench overload`.

use asdex::serve::{
    loadgen, Client, DrainHandle, LoadgenConfig, SchedulerConfig, Server, ServerConfig,
};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

const CAMPAIGNS: usize = 16;
const BUDGET: usize = 300;

/// Boots a daemon; returns its address, drain handle, and thread.
fn boot(tag: &str, dedup: bool) -> (String, DrainHandle, std::thread::JoinHandle<()>) {
    let dir = std::env::temp_dir().join(format!("asdex-bench-overload-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: SchedulerConfig {
            journal_dir: dir,
            max_active: 4,
            thread_budget: 2,
            dedup,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    };
    let drain = DrainHandle::new();
    let server = Server::bind(cfg, drain.clone()).expect("daemon binds");
    let addr = server.local_addr().expect("bound").to_string();
    let thread = std::thread::spawn(move || server.run().expect("daemon runs"));
    (addr, drain, thread)
}

fn load(addr: &str, concurrency: usize, duplicate: bool) -> loadgen::LoadReport {
    loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        campaigns: CAMPAIGNS,
        concurrency,
        budget: BUDGET,
        timeout: Duration::from_secs(300),
        duplicate,
        ..LoadgenConfig::default()
    })
}

/// Scrapes one dedup counter from the daemon's metrics exposition.
fn dedup_metric(addr: &str, event: &str) -> u64 {
    let text = Client::new(addr).metrics().expect("metrics scrape");
    let prefix = format!("asdex_dedup_events_total{{event=\"{event}\"}}");
    text.lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn main() {
    let mut rows: Vec<String> = Vec::new();

    // The sweep: identical work, rising submitter concurrency. p99
    // completion latency is the overload signal — it should grow with
    // queueing, never with hangs.
    for concurrency in [1usize, 4, 8, 16] {
        let (addr, drain, thread) = boot(&format!("sweep{concurrency}"), true);
        let report = load(&addr, concurrency, false);
        assert_eq!(report.client_errors, 0, "sweep must complete cleanly");
        assert_eq!(report.samples.len(), CAMPAIGNS, "every campaign must come back");
        rows.push(format!(
            "sweep,concurrency,{concurrency},throughput_cps,{:.4},p50_completion_ms,{:.3},p99_completion_ms,{:.3},retries_429,{}",
            report.throughput(),
            report.completion_percentile_ms(0.50),
            report.completion_percentile_ms(0.99),
            report.retries_429,
        ));
        println!(
            "sweep c={concurrency}: {:.2} cps, p99 {:.1} ms",
            report.throughput(),
            report.completion_percentile_ms(0.99)
        );
        drain.request_drain();
        thread.join().expect("daemon thread");
    }

    // Dedup on/off: a duplicate-heavy workload (every campaign the same
    // spec). With the store on, the daemon computes each point once.
    for dedup in [false, true] {
        let (addr, drain, thread) = boot(if dedup { "dedup-on" } else { "dedup-off" }, dedup);
        let report = load(&addr, 8, true);
        assert_eq!(report.client_errors, 0, "dedup run must complete cleanly");
        let hits = dedup_metric(&addr, "hit");
        if dedup {
            assert!(hits > 0, "duplicate campaigns with the store on must share work");
        }
        rows.push(format!(
            "dedup,{},throughput_cps,{:.4},p99_completion_ms,{:.3},dedup_hits,{hits}",
            if dedup { "on" } else { "off" },
            report.throughput(),
            report.completion_percentile_ms(0.99),
        ));
        println!(
            "dedup {}: {:.2} cps, p99 {:.1} ms, hits {hits}",
            if dedup { "on" } else { "off" },
            report.throughput(),
            report.completion_percentile_ms(0.99)
        );
        drain.request_drain();
        thread.join().expect("daemon thread");
    }

    let out = PathBuf::from("bench_results/overload.csv");
    std::fs::create_dir_all(out.parent().expect("parent")).expect("bench_results dir");
    let mut file = std::fs::File::create(&out).expect("csv created");
    writeln!(file, "kind,key,value,key,value,key,value,key,value,key,value").expect("header");
    for row in &rows {
        writeln!(file, "{row}").expect("row");
    }
    println!("wrote {}", out.display());
}

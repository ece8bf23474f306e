//! Runs every workload at `--smoke` scale and checks that the benchmark
//! prints exactly the workloads and metrics `BENCHMARK.json` lists, each
//! with its unit. `sweep_workers` and `serve_table1` need the release
//! `asdex` binary next to `perfbench`; without it they are skipped.
//!
//! ```text
//! bash perfbench/run.sh --smoke     # builds asdex into the same target dir
//! cargo test --release --manifest-path perfbench/Cargo.toml --target-dir target
//! ```

use asdex_serve::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` of one metric list in `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> BTreeSet<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of the metrics in a run's last line.
fn printed(stdout: &str) -> BTreeSet<(String, String)> {
    let last = Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
    assert!(
        last.get("correct")
            .and_then(Json::as_bool)
            .expect("correct"),
        "run reported incorrect output:\n{stdout}"
    );
    let Some(Json::Obj(metrics)) = last.get("metrics") else {
        panic!("no metrics")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "perfbench {args:?} failed:\n{stdout}");
    stdout
}

fn asdex_present() -> bool {
    Path::new(env!("CARGO_BIN_EXE_perfbench"))
        .with_file_name("asdex")
        .exists()
}

#[test]
fn every_workload_prints_the_listed_end_to_end_metrics() {
    let doc = benchmark_json();
    let want = listed(&doc, "end_to_end");
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        if !asdex_present() && (name == "sweep_workers" || name == "serve_table1") {
            eprintln!("skipping {name}: no asdex binary next to perfbench");
            continue;
        }
        let got = printed(&run(&[
            "--workload",
            name,
            "--smoke",
            "--seed",
            "7",
            "--seconds",
            "0.5",
        ]));
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn a_traced_run_prints_the_listed_per_layer_metrics() {
    if !asdex_present() {
        eprintln!("skipping: the traced run probes the worker and serving layers");
        return;
    }
    let want = listed(&benchmark_json(), "per_layer");
    let got = printed(&run(&[
        "--workload",
        "pvt_sweep",
        "--smoke",
        "--trace",
        "1",
        "--seconds",
        "0.5",
    ]));
    assert_eq!(got, want);
}

#[test]
fn an_unknown_workload_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--workload")
        .arg("nope")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

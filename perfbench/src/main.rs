//! `perfbench` — the end-to-end and per-layer benchmark of ASDEX.
//!
//! ```text
//! perfbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!           [--smoke] [--repeat N]
//! ```
//!
//! With `--workload` it runs that workload in this process, prints every
//! metric by name with its unit, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics,
//! or with `--trace` the per-layer metrics. Without `--workload` it runs
//! all four, each in a child process so peak RSS stays per workload.
//! `--repeat N` runs each workload as two alternating sets of N runs and
//! checks each end-to-end metric's spreads, and the difference between
//! the two sets' medians, against its bound in `BENCHMARK.json`.
//! `--smoke` runs at a tiny scale and skips the golden digests. The
//! program spawns the release `asdex` binary next to it.

mod ladder;
mod layers;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;
mod trm;

use asdex_serve::Json;
use report::{owner, per_layer, result_json, Report, END_TO_END, WORKLOADS};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::Ordering;

const USAGE: &str = "usage: perfbench [--workload trm_table1|pvt_sweep|sweep_workers|serve_table1]
                 [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--repeat N]";

/// The seed whose output digests are recorded in `goldens.tsv`.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 1.0;
/// `workload<TAB>digest` for `DEFAULT_SEED` at full scale.
const GOLDENS: &str = include_str!("../goldens.tsv");

/// Set-ups timed back to back at each point of a run where a workload
/// samples its set-up time; `stats::setup_time` turns a run's samples
/// into `setup_s`.
pub const SETUPS_PER_POINT: usize = 3;

/// Times `SETUPS_PER_POINT` set-ups back to back into `samples`; `once`
/// performs one and returns its seconds.
pub fn time_setups(samples: &mut Vec<f64>, mut once: impl FnMut() -> f64) {
    for _ in 0..SETUPS_PER_POINT {
        samples.push(once());
    }
}

/// How one workload run is configured.
#[derive(Clone)]
pub struct Cfg {
    /// Workload seed; every input is generated from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny scale, goldens skipped; also the scale of the short passes
    /// that supply a traced run with the metrics of layers its workload
    /// does not drive.
    pub smoke: bool,
    /// The cargo target directory holding this binary.
    pub target: PathBuf,
    /// The `asdex` binary under test.
    pub asdex: PathBuf,
}

impl Cfg {
    /// `(traced, seconds)` of each measured pass. A traced run measures
    /// half its time untraced first, which gives the tracing overhead;
    /// end-to-end numbers come only from untraced passes.
    pub fn passes(&self) -> Vec<(bool, f64)> {
        if self.trace {
            vec![(false, self.seconds / 2.0), (true, self.seconds / 2.0)]
        } else {
            vec![(false, self.seconds)]
        }
    }

    /// Items in the golden-checked prefix: `full`, or `small` at smoke
    /// scale.
    pub fn scaled(&self, full: usize, small: usize) -> usize {
        if self.smoke {
            small
        } else {
            full
        }
    }

    /// A scratch path under `<target>/benchmark/`.
    pub fn work_dir(&self, name: &str) -> PathBuf {
        self.target.join("benchmark").join(name)
    }

    /// Writes a traced pass's spans to `<target>/benchmark/trace/`. A
    /// smoke-scale pass writes none, so the short passes that fill in a
    /// traced run's other layers never replace a workload's own spans.
    pub fn write_spans(&self, workload: &str, spans: &[trace::Span]) {
        if self.smoke {
            return;
        }
        let path = self.work_dir("trace").join(format!("{workload}.spans.tsv"));
        if let Err(e) = trace::write_tsv(&path, spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    /// Whether `workload`'s digest is compared with its golden: at full
    /// scale, for the default seed, or for any seed where the workload's
    /// outputs do not depend on it (the Table I workloads always run the
    /// same campaigns).
    fn golden_applies(&self, workload: &str) -> bool {
        !self.smoke
            && (self.seed == DEFAULT_SEED || workload == "trm_table1" || workload == "serve_table1")
    }
}

/// Cores available to this process.
pub fn cores() -> f64 {
    std::thread::available_parallelism().map_or(1, usize::from) as f64
}

/// Sets the `env.*` evaluator metrics from a decorator's counters.
pub fn set_env_metrics(report: &mut Report, c: &trace::EvalCounters, wall_s: f64, threads: f64) {
    let calls = c.calls.load(Ordering::Relaxed) as f64;
    let hits = c.hits.load(Ordering::Relaxed) as f64;
    let solves: Vec<f64> = c
        .solve_ns
        .lock()
        .expect("solve times poisoned")
        .iter()
        .map(|ns| *ns as f64 / 1e3)
        .collect();
    report.set("env.eval_calls", calls);
    report.set("env.solve_calls", calls - hits);
    report.set("env.memo_hit_ratio", hits / calls.max(1.0));
    report.set("env.solve_us_p50", stats::quantile(&solves, 0.5));
    report.set("env.solve_us_p99", stats::quantile(&solves, 0.99));
    report.set(
        "env.eval_busy_ratio",
        c.busy_ns.load(Ordering::Relaxed) as f64 / 1e9 / (wall_s * threads),
    );
    report.set(
        "env.eval_failures",
        c.failures.load(Ordering::Relaxed) as f64,
    );
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 0,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|_| "--repeat needs an integer")?;
                if args.repeat < 2 {
                    return Err("--repeat needs at least 2 runs".to_string());
                }
            }
            "--trace" => {
                args.trace = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    args.trace = v == "1";
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The benchmark fixes its own thread counts and solver choice; the
    // environment must not change them.
    std::env::remove_var("ASDEX_THREADS");
    std::env::remove_var("ASDEX_SOLVER");
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let exe = std::env::current_exe().expect("own executable path");
    let bin_dir = exe
        .parent()
        .expect("executable has a directory")
        .to_path_buf();
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace: args.trace,
        smoke: args.smoke,
        target: bin_dir.parent().unwrap_or(&bin_dir).to_path_buf(),
        asdex: bin_dir.join("asdex"),
    };
    let ok = if args.repeat > 0 {
        repeat(&cfg, args.workload.as_deref(), args.repeat)
    } else if let Some(w) = &args.workload {
        run_one(&cfg, w)
    } else {
        run_all(&cfg)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn golden(workload: &str) -> Option<u64> {
    GOLDENS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.split_once('\t').filter(|(w, _)| *w == workload))
        .and_then(|(_, d)| u64::from_str_radix(d.trim(), 16).ok())
}

/// Runs one workload's passes in this process.
fn run_workload(cfg: &Cfg, workload: &str) -> Report {
    if workload != "trm_table1" && workload != "pvt_sweep" && !cfg.asdex.exists() {
        let mut report = Report::default();
        report.fail(format!(
            "{workload} needs the asdex binary at {}",
            cfg.asdex.display()
        ));
        return report;
    }
    match workload {
        "trm_table1" => trm::run(cfg),
        "pvt_sweep" => sweep::run_pvt(cfg),
        "sweep_workers" => sweep::run_workers(cfg),
        _ => serve::run(cfg),
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(cfg: &Cfg, workload: &str) -> bool {
    let mut report = run_workload(cfg, workload);
    if report.attempted == 0 {
        report.fail("no item was attempted".to_string());
    }
    if let Some(d) = report.digest {
        if !cfg.golden_applies(workload) {
            report
                .notes
                .push("golden comparison skipped (another seed, or not at full scale)".to_string());
        } else if golden(workload) == Some(d) {
            report.notes.push("digest matches the golden".to_string());
        } else {
            report.fail(format!(
                "digest {d:016x} differs from the golden {:016x}",
                golden(workload).unwrap_or(0)
            ));
        }
    }
    let names: Vec<(String, &str)> = if cfg.trace {
        fill_from_probes(cfg, workload, &mut report);
        layers::measure(&mut report);
        for (name, _) in per_layer() {
            if !report.metrics.contains_key(&name) {
                report.fail(format!("per-layer metric {name} was not measured"));
            }
        }
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for note in &report.notes {
        println!("{workload}: {note}");
    }
    for (name, unit) in &names {
        let v = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("{workload} {name} = {} {unit}", report::number(v));
    }
    println!("{}", result_json(&report, &names));
    report.failed == 0
}

/// A traced run prints every per-layer metric. Those of layers `workload`
/// does not drive come from a short traced pass, in this process, of the
/// workload that does, and the notes say so.
fn fill_from_probes(cfg: &Cfg, workload: &str, report: &mut Report) {
    let layers = per_layer();
    let owners: BTreeSet<&str> = layers
        .iter()
        .filter(|(n, _)| !report.metrics.contains_key(n))
        .filter_map(|(n, _)| owner(n))
        .filter(|o| *o != workload)
        .collect();
    for probe in owners {
        let probe_cfg = Cfg {
            seconds: SMOKE_SECONDS,
            smoke: true,
            ..cfg.clone()
        };
        let probed = run_workload(&probe_cfg, probe);
        for note in probed.notes.iter().filter(|n| n.starts_with("FAILED")) {
            report.fail(format!("the {probe} probe: {note}"));
        }
        for (name, _) in &layers {
            if owner(name) == Some(probe) && !report.metrics.contains_key(name) {
                report.set(name, probed.metrics.get(name).copied().unwrap_or(0.0));
            }
        }
        report.notes.push(format!(
            "{probe}'s layer metrics are from a smoke-scale traced run of {probe}"
        ));
    }
}

/// Runs `perfbench --workload W --seed S <args>` as a child process and
/// parses its last line; stdout is forwarded when `echo` is set.
fn run_child(
    workload: &str,
    seed: u64,
    args: &[String],
    echo: bool,
) -> Result<(bool, u64, u64, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    let last = text.lines().last().ok_or("no output")?;
    let doc = Json::parse(last).map_err(|e| format!("last line is not JSON: {e}"))?;
    let correct = doc
        .get("correct")
        .and_then(Json::as_bool)
        .ok_or("no `correct`")?;
    let attempted = doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    let failed = doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(fields)) = doc.get("metrics") {
        for (name, m) in fields {
            metrics.insert(
                name.clone(),
                m.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            );
        }
    }
    Ok((correct, attempted, failed, metrics))
}

fn child_json(
    workload: &str,
    seed: u64,
    args: &[String],
) -> Result<(bool, BTreeMap<String, f64>), String> {
    run_child(workload, seed, args, false).map(|(c, _, _, m)| (c, m))
}

fn child_args(cfg: &Cfg) -> Vec<String> {
    let mut args = vec!["--seconds".to_string(), cfg.seconds.to_string()];
    if cfg.trace {
        args.extend(["--trace".to_string(), "1".to_string()]);
    }
    if cfg.smoke {
        args.push("--smoke".to_string());
    }
    args
}

/// Runs every workload in its own child process.
fn run_all(cfg: &Cfg) -> bool {
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut fields = Vec::new();
    let units: BTreeMap<String, &str> = if cfg.trace {
        per_layer().into_iter().collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for w in WORKLOADS {
        if cfg.smoke && !cfg.asdex.exists() && (w == "sweep_workers" || w == "serve_table1") {
            println!("{w}: skipped (no asdex binary at {})", cfg.asdex.display());
            continue;
        }
        match run_child(w, cfg.seed, &child_args(cfg), true) {
            Ok((correct, a, f, metrics)) => {
                all_ok &= correct;
                attempted += a;
                failed += f;
                for (name, v) in metrics {
                    let unit = units.get(&name).copied().unwrap_or("");
                    fields.push(format!(
                        "\"{w}.{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        report::number(v)
                    ));
                }
            }
            Err(e) => {
                eprintln!("perfbench: {w} failed: {e}");
                all_ok = false;
                failed += 1;
            }
        }
    }
    println!(
        "{{\"correct\": {all_ok}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
    all_ok
}

/// One end-to-end metric's regression bound and direction, from
/// `BENCHMARK.json`.
struct Bound {
    bound: f64,
    higher_is_better: bool,
}

/// Reads the end-to-end metrics' bounds from `BENCHMARK.json` in the
/// current directory.
fn bounds() -> Result<BTreeMap<String, Bound>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            let bound = Bound {
                bound: m.get("bound")?.as_f64()?,
                higher_is_better: m.get("better")?.as_str()? == "higher",
            };
            Some((m.get("name")?.as_str()?.to_string(), bound))
        })
        .collect())
}

/// Quartile spread of `v` as a share of its median.
fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = stats::quartiles(v);
    (q3 - q1) / stats::median(v)
}

/// Runs each workload as two sets of `n` runs, A with seeds S..S+n-1 and
/// B with seeds S+n..S+2n-1, alternating A and B run by run so that a
/// change in the machine's speed during the sets reaches both alike. For
/// each end-to-end metric it prints both sets' medians and quartile
/// spreads (shares of the median) and how much worse B's median is than
/// A's. Fails when a spread exceeds the metric's bound in
/// `BENCHMARK.json`, or B's median is worse than A's by more than it.
fn repeat(cfg: &Cfg, workload: Option<&str>, n: usize) -> bool {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return false;
        }
    };
    let mut ok = true;
    let workloads: Vec<&str> = workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    for w in workloads {
        // values[name] = (set A, set B)
        let mut values: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for i in 0..2 * n {
            let (set_b, k) = (i % 2 == 1, (i / 2) as u64);
            let seed = cfg.seed + k + if set_b { n as u64 } else { 0 };
            match child_json(w, seed, &["--seconds".to_string(), cfg.seconds.to_string()]) {
                Ok((correct, metrics)) => {
                    ok &= correct;
                    for (name, v) in metrics {
                        let sets = values.entry(name).or_default();
                        if set_b { &mut sets.1 } else { &mut sets.0 }.push(v);
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {w} seed {seed}: {e}");
                    ok = false;
                }
            }
        }
        println!(
            "{w}: sets of {n} runs alternating, A seeds {}..={}, B seeds {}..={}",
            cfg.seed,
            cfg.seed + n as u64 - 1,
            cfg.seed + n as u64,
            cfg.seed + 2 * n as u64 - 1
        );
        for (name, (a, b)) in &values {
            let Some(bound) = bounds.get(name) else {
                continue;
            };
            let (med_a, med_b) = (stats::median(a), stats::median(b));
            let worse = if bound.higher_is_better {
                (med_a - med_b) / med_a
            } else {
                (med_b - med_a) / med_a
            };
            let (spread_a, spread_b) = (spread(a), spread(b));
            let within = spread_a <= bound.bound && spread_b <= bound.bound && worse <= bound.bound;
            ok &= within;
            println!(
                "{w} {name:<16} A median {med_a:<12.6} spread {:>5.1}% | B median {med_b:<12.6} spread {:>5.1}% | B worse by {:>5.1}% | bound {:>4.1}%{}",
                100.0 * spread_a,
                100.0 * spread_b,
                100.0 * worse,
                100.0 * bound.bound,
                if within { "" } else { "  EXCEEDS BOUND" }
            );
            for (set, v) in [("A", a), ("B", b)] {
                let runs: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
                println!("{w} {name:<16} {set} runs {}", runs.join(" "));
            }
        }
    }
    ok
}

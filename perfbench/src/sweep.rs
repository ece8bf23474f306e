//! `pvt_sweep` and `sweep_workers`: seeded random design points fanned
//! out to all five `signoff5` corners, 13 points (65 requests) per
//! `evaluate_batch` call, one client, closed loop.
//!
//! `pvt_sweep` runs in process at 2 threads over eight decks.
//! `sweep_workers` sends the opamp45 and opamp22 streams through a
//! 2-process `WorkerPool` and checks every batch against the in-process
//! path.
//!
//! A run evaluates a fixed set of batches in rounds until `--seconds` have
//! passed (the first round always completes), each round on fresh problem
//! instances (or worker pools), so no round finds another's results in a
//! memo. A batch's time is its fastest
//! round: a shared machine slows code by up to ~2x for stretches of a
//! fraction of a second to a few seconds, and the fastest of several
//! rounds spread over the run is the batch's time outside such a stretch.
//! The rounds must agree bit for bit.

use crate::report::Report;
use crate::stats::{self, Fnv};
use crate::trace::{self, EvalCounters, TimedDispatcher, TimedEvaluator};
use crate::{ladder, Cfg};
use asdex_env::{EvalDispatcher, EvalRequest, Evaluation, NetlistBench, PvtSet, SizingProblem};
use asdex_rng::rngs::StdRng;
use asdex_rng::SeedableRng;
use asdex_serve::{build_problem, WorkerPool, WorkerPoolConfig, WorkerStats};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Design points per batch; each is evaluated at every corner.
const POINTS: usize = 13;
/// Requests per batch: 13 points at the five `signoff5` corners.
const REQUESTS: usize = POINTS * 5;
/// Batch-evaluation threads (the machine has two cores).
const THREADS: usize = 2;

/// The scenario decks, pinned as copies so edits to the repository's
/// `decks/` cannot change the workload.
const FOLDED_CASCODE: &str = include_str!("../decks/folded_cascode_opamp.sp");
const BANDGAP: &str = include_str!("../decks/bandgap_reference.sp");
const COMPARATOR: &str = include_str!("../decks/comparator.sp");
const TWO_STAGE_LDO: &str = include_str!("../decks/two_stage_ldo.sp");

/// One sweep deck: a built-in bench or a sizing netlist.
pub struct Deck {
    /// Name used in metric names (`spice.<name>.*`).
    pub name: &'static str,
    builtin: Option<&'static str>,
    netlist: Option<String>,
}

/// The eight decks, in `report::SPICE_DECKS` order.
pub fn decks() -> Vec<Deck> {
    let builtin = |name| Deck {
        name,
        builtin: Some(name),
        netlist: None,
    };
    let netlist = |name, src: String| Deck {
        name,
        builtin: None,
        netlist: Some(src),
    };
    vec![
        builtin("opamp45"),
        builtin("opamp22"),
        builtin("ldo"),
        netlist("folded_cascode", FOLDED_CASCODE.to_string()),
        netlist("bandgap", BANDGAP.to_string()),
        netlist("comparator", COMPARATOR.to_string()),
        netlist("two_stage_ldo", TWO_STAGE_LDO.to_string()),
        netlist("ladder400", ladder::deck()),
    ]
}

impl Deck {
    /// The bench's sizing problem at all `signoff5` corners.
    pub fn problem(&self, threads: usize) -> SizingProblem {
        let mut p = match (&self.builtin, &self.netlist) {
            (Some(bench), _) => build_problem(bench, "signoff5").expect("built-in bench"),
            (None, Some(src)) => NetlistBench::compile(src)
                .expect("pinned deck compiles")
                .problem_with(PvtSet::signoff5())
                .expect("pinned deck forms a problem"),
            (None, None) => unreachable!("a deck is built-in or a netlist"),
        };
        // `build_problem("ldo", ...)` ignores the corner-set name; the
        // sweep sets the corners on the problem directly.
        p.corners = PvtSet::signoff5();
        p.with_threads(threads)
    }

    /// The sizing netlist source, for netlist decks.
    pub fn netlist(&self) -> Option<&str> {
        self.netlist.as_deref()
    }
}

/// A deck's seeded stream of fresh grid points: no point repeats, and the
/// grid midpoint used for warm-up is never drawn, so the evaluator's memo
/// is bypassed.
struct Stream {
    rng: StdRng,
    seen: HashSet<Vec<u64>>,
}

impl Stream {
    fn new(seed: u64, deck: usize, p: &SizingProblem) -> Stream {
        let rng = StdRng::seed_from_u64(asdex_rng::mix64(seed ^ ((deck as u64 + 1) << 40)));
        let mut seen = HashSet::new();
        seen.insert(bits(&midpoint(p)));
        Stream { rng, seen }
    }

    fn batch(&mut self, p: &SizingProblem) -> Vec<EvalRequest> {
        let mut requests = Vec::with_capacity(POINTS * p.corners.len());
        while requests.len() < POINTS * p.corners.len() {
            let u = p.space.sample(&mut self.rng);
            if self.seen.insert(bits(&u)) {
                requests.extend(EvalRequest::fan_out(&u, p.corners.len()));
            }
        }
        requests
    }
}

fn bits(u: &[f64]) -> Vec<u64> {
    u.iter().map(|v| v.to_bits()).collect()
}

fn midpoint(p: &SizingProblem) -> Vec<f64> {
    p.space
        .snap(&vec![0.5; p.dim()])
        .expect("midpoint has the space's dimension")
}

/// Digest of a batch's evaluations, every field's bits in request order.
fn batch_digest(evals: &[Evaluation]) -> u64 {
    let mut h = Fnv::default();
    for e in evals {
        for v in &e.x_norm {
            h.write_u64(v.to_bits());
        }
        match &e.measurements {
            Some(m) => m.iter().for_each(|v| h.write_u64(v.to_bits())),
            None => h.write(b"-"),
        }
        h.write_u64(e.value.to_bits());
        h.write(&[u8::from(e.feasible)]);
        h.write(format!("{:?}", e.failure).as_bytes());
        h.write_u64(e.sim_cost as u64);
    }
    h.finish()
}

fn fold(digests: &[u64]) -> u64 {
    let mut h = Fnv::default();
    digests.iter().for_each(|d| h.write_u64(*d));
    h.finish()
}

/// One batch over the rounds. Its requests are not kept: the streams are
/// a pure function of the seed, so rounds and checks regenerate them, and
/// the benchmark's memory stays flat however many batches a run makes.
struct Batch {
    deck: usize,
    /// Fastest round, seconds.
    wall_s: f64,
    digest: u64,
}

/// Folds `this`, round `round` of batch `b`, into `batches`: the first
/// round appends, later ones keep the fastest time and must match the
/// digest.
fn fold_round(
    batches: &mut Vec<Batch>,
    b: usize,
    round: usize,
    this: Batch,
    what: &str,
    report: &mut Report,
) {
    if round == 0 {
        batches.push(this);
        return;
    }
    let batch = &mut batches[b];
    batch.wall_s = batch.wall_s.min(this.wall_s);
    if batch.digest != this.digest {
        report.fail(format!("batch {b} ({what}) differs between rounds"));
    }
}

/// Requests per second of `batches`, all of one size.
fn rate(batches: &[Batch]) -> f64 {
    (batches.len() * REQUESTS) as f64 / batches.iter().map(|b| b.wall_s).sum::<f64>()
}

/// Regenerates the run's request stream and re-evaluates `batches` on
/// `problems` (indexed like `decks()`): each must reproduce its digest
/// bit for bit.
fn reverify(
    seed: u64,
    problems: &[SizingProblem],
    batches: &[Batch],
    what: &str,
    report: &mut Report,
) {
    let mut streams: Vec<Stream> = problems
        .iter()
        .enumerate()
        .map(|(i, p)| Stream::new(seed, i, p))
        .collect();
    for (i, b) in batches.iter().enumerate() {
        let requests = streams[b.deck].batch(&problems[b.deck]);
        let evals = problems[b.deck].evaluate_batch(&requests, usize::MAX);
        if batch_digest(&evals) != b.digest {
            report.fail(format!(
                "batch {i} ({}) differs {what}",
                problems[b.deck].name
            ));
        }
    }
}

/// Evaluates one batch, counting typed evaluation failures and short
/// results against the run.
fn evaluate(
    p: &SizingProblem,
    requests: &[EvalRequest],
    report: &mut Report,
    deck: &str,
) -> (Vec<Evaluation>, f64) {
    let t = Instant::now();
    let evals = p.evaluate_batch(requests, usize::MAX);
    let wall = t.elapsed().as_secs_f64();
    if evals.len() != requests.len() {
        report.fail(format!(
            "{deck}: batch returned {} of {} results",
            evals.len(),
            requests.len()
        ));
    }
    let failed = evals.iter().filter(|e| e.failure.is_some()).count();
    if failed > 0 {
        report.fail(format!(
            "{deck}: {failed} evaluation(s) failed in one batch"
        ));
    }
    (evals, wall)
}

/// Batch deck order for `pvt_sweep`: the seven small decks in turn, and
/// the ladder once per 10 rounds of them, which puts the sparse solves at
/// about a quarter of evaluator busy time (one ladder batch costs about
/// as much as three rounds of the others).
fn schedule(b: usize) -> usize {
    const ROUND: usize = 7;
    const LADDER_EVERY: usize = 10;
    let slot = b % (ROUND * LADDER_EVERY + 1);
    if slot == ROUND * LADDER_EVERY {
        7
    } else {
        slot % ROUND
    }
}

/// Batches in one full schedule cycle: the golden-checked prefix.
const CYCLE: usize = 7 * 10 + 1;

/// Batches `pvt_sweep` evaluates per round: two schedule cycles, so 26
/// ladder points and 260 points of each small deck, which keeps the
/// round's cost nearly the same from seed to seed.
const PVT_BATCHES: usize = 2 * CYCLE;

/// Asserts the ladder is what the workload needs: finite, non-degenerate
/// midpoint measurements at the nominal corner, and an MNA system big
/// enough that the automatic solver choice goes sparse.
fn check_ladder(decks: &[Deck], report: &mut Report) {
    let ladder = &decks[7];
    let p = ladder.problem(1);
    let e = p.evaluate_normalized(&midpoint(&p), 0);
    let ok = e
        .measurements
        .as_ref()
        .is_some_and(|m| m.iter().all(|v| v.is_finite()) && m[0] > 0.0 && m[3] > 0.0);
    if !ok {
        report.fail(format!(
            "ladder400 midpoint is degenerate: {:?}",
            e.measurements
        ));
    }
    if crate::layers::mna_dim(ladder) <= asdex_spice::analysis::DENSE_MAX_DIM {
        report.fail("ladder400 is small enough for the dense solver".to_string());
    }
}

/// Runs `pvt_sweep`.
pub fn run_pvt(cfg: &Cfg) -> Report {
    let mut report = Report::default();
    let decks = decks();
    check_ladder(&decks, &mut report);
    let prefix = cfg.scaled(CYCLE, 8);
    let n = cfg.scaled(PVT_BATCHES, 8);
    let mut digests = Vec::new();
    let mut untraced_mean = None;
    for (traced, seconds) in cfg.passes() {
        let counters: Vec<Arc<EvalCounters>> = decks.iter().map(|_| Arc::default()).collect();
        let mut batches: Vec<Batch> = Vec::new();
        let mut setups = Vec::new();
        trace::set_enabled(traced);
        let cpu0 = stats::cpu_seconds(std::process::id(), false);
        let started = Instant::now();
        let over = || started.elapsed().as_secs_f64() >= seconds;
        let (mut round, mut evaluated) = (0, 0);
        while round == 0 || !over() {
            // Set-up: fresh instances of every deck, warmed with the
            // midpoint at every corner (engine pools compiled, workspaces
            // allocated). The last of the timed set-ups is used, so this
            // round's memos are empty.
            let mut problems = Vec::new();
            crate::time_setups(&mut setups, || {
                let t = Instant::now();
                problems = decks
                    .iter()
                    .map(|d| {
                        let p = d.problem(THREADS);
                        std::hint::black_box(p.evaluate_all_corners(&midpoint(&p)));
                        p
                    })
                    .collect();
                t.elapsed().as_secs_f64()
            });
            if traced {
                for (p, c) in problems.iter_mut().zip(&counters) {
                    p.evaluator = TimedEvaluator::wrap(p.evaluator.clone(), c.clone());
                }
            }
            let mut streams: Vec<Stream> = problems
                .iter()
                .enumerate()
                .map(|(i, p)| Stream::new(cfg.seed, i, p))
                .collect();
            for b in 0..n {
                if round > 0 && over() {
                    break;
                }
                let deck = schedule(b);
                let requests = streams[deck].batch(&problems[deck]);
                let root = trace::new_id();
                trace::set_current(root, b as u64);
                let start = trace::now();
                let (evals, wall_s) =
                    evaluate(&problems[deck], &requests, &mut report, decks[deck].name);
                trace::record(root, 0, b as u64, "env", "batch", start);
                let this = Batch {
                    deck,
                    wall_s,
                    digest: batch_digest(&evals),
                };
                fold_round(&mut batches, b, round, this, decks[deck].name, &mut report);
                evaluated += 1;
            }
            round += 1;
        }
        let elapsed = started.elapsed().as_secs_f64();
        let cpu = stats::cpu_seconds(std::process::id(), false) - cpu0;
        let rss = stats::peak_rss_mb(std::process::id());
        trace::set_enabled(false);
        report.attempted += evaluated as u64;
        let serial: Vec<SizingProblem> = decks.iter().map(|d| d.problem(1)).collect();
        reverify(
            cfg.seed,
            &serial,
            &batches[..prefix],
            "between 2 threads and 1",
            &mut report,
        );
        digests.push(fold(
            &batches[..prefix]
                .iter()
                .map(|b| b.digest)
                .collect::<Vec<_>>(),
        ));
        let walls: Vec<f64> = batches.iter().map(|b| b.wall_s * 1e3).collect();
        if !traced {
            report.set("setup_s", stats::setup_time(&setups));
            report.set("sims_per_s", rate(&batches));
            report.set("latency_ms_p50", stats::hd_quantile(&walls, 0.5));
            report.set("latency_ms_p90", stats::hd_quantile(&walls, 0.9));
            report.set("peak_rss_mb", rss);
            untraced_mean = Some(stats::mean(&walls));
            continue;
        }
        if let Some(base) = untraced_mean {
            report.set(
                "bench.trace_overhead_ratio",
                stats::mean(&walls) / base - 1.0,
            );
        }
        report.set("bench.cpu_util", cpu / elapsed / crate::cores());
        report.set("bench.items", evaluated as f64);
        let spans = trace::take();
        cfg.write_spans("pvt_sweep", &spans);
        let all = Arc::new(EvalCounters::default());
        for c in &counters {
            merge(&all, c);
        }
        crate::set_env_metrics(&mut report, &all, elapsed, THREADS as f64);
        batch_metrics(&mut report, &spans, cfg.seed, &decks);
        let busy = |c: &EvalCounters| c.busy_ns.load(Ordering::Relaxed) as f64;
        report.notes.push(format!(
            "ladder400 share of evaluator busy time: {:.1}%",
            100.0 * busy(&counters[7]) / busy(&all).max(1.0)
        ));
    }
    report.notes.push(format!(
        "digest {:016x} over the first {prefix} batches",
        digests[0]
    ));
    if digests.iter().any(|d| *d != digests[0]) {
        report.fail("traced and untraced passes produced different evaluations".to_string());
    }
    report.digest = Some(digests[0]);
    report
}

/// Adds `c`'s counts into `all`.
fn merge(all: &EvalCounters, c: &EvalCounters) {
    for (a, b) in [
        (&all.calls, &c.calls),
        (&all.hits, &c.hits),
        (&all.failures, &c.failures),
        (&all.busy_ns, &c.busy_ns),
    ] {
        a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
    }
    let solves = c.solve_ns.lock().expect("solve times poisoned");
    all.solve_ns
        .lock()
        .expect("solve times poisoned")
        .extend(solves.iter());
}

/// `env.batch_*`: batch count, idle share of the batch threads, and the
/// speedup of 2 threads over 1 on the first 40 opamp45 batches.
fn batch_metrics(report: &mut Report, spans: &[trace::Span], seed: u64, decks: &[Deck]) {
    let layers = trace::layer_times(spans);
    let batch = layers.get(&("env", "batch")).copied().unwrap_or_default();
    let busy: u64 = [("env", "solve"), ("env", "memo_hit")]
        .iter()
        .filter_map(|k| layers.get(k))
        .map(|t| t.total_ns)
        .sum();
    report.set("env.batch_calls", batch.count as f64);
    report.set(
        "env.batch_idle_ratio",
        1.0 - busy as f64 / (batch.total_ns.max(1) as f64 * THREADS as f64),
    );
    let replay = |threads: usize| {
        let p = decks[0].problem(threads);
        let mut stream = Stream::new(seed, 0, &p);
        let opamp: Vec<Vec<EvalRequest>> = (0..40).map(|_| stream.batch(&p)).collect();
        let t = Instant::now();
        for requests in &opamp {
            std::hint::black_box(p.evaluate_batch(requests, usize::MAX));
        }
        t.elapsed().as_secs_f64()
    };
    let serial = replay(1);
    report.set("env.batch_speedup_vs_serial", serial / replay(THREADS));
}

/// The decks `sweep_workers` sends through worker processes: the two
/// built-in opamps, whose worker-side problem honours `signoff5`.
const WORKER_DECKS: [usize; 2] = [0, 1];

fn pool(cfg: &Cfg, deck: &Deck, p: &SizingProblem, stats: &Arc<WorkerStats>) -> Arc<WorkerPool> {
    let name = deck.builtin.expect("worker decks are built-in benches");
    let pool_cfg = WorkerPoolConfig::new(cfg.asdex.clone(), name, "signoff5", THREADS);
    WorkerPool::for_problem(pool_cfg, p, stats.clone())
}

/// Batches of each deck `sweep_workers` evaluates per round.
const WORKER_BATCHES: usize = 40;

/// Runs `sweep_workers`.
pub fn run_workers(cfg: &Cfg) -> Report {
    let mut report = Report::default();
    let decks = decks();
    let prefix = cfg.scaled(20, 2);
    let n = cfg.scaled(WORKER_BATCHES, 2);
    let mut digests = Vec::new();
    let mut untraced_mean = None;
    for (traced, seconds) in cfg.passes() {
        let stats_ = Arc::new(WorkerStats::new());
        // Per deck, in stream order.
        let mut per_deck: Vec<Vec<Batch>> = WORKER_DECKS.iter().map(|_| Vec::new()).collect();
        let mut setups = Vec::new();
        let mut roundtrips: Vec<u64> = Vec::new();
        let mut children_cpu = 0.0;
        trace::set_enabled(traced);
        let cpu0 = stats::cpu_seconds(std::process::id(), false);
        let started = Instant::now();
        let over = || started.elapsed().as_secs_f64() >= seconds;
        let (mut round, mut evaluated) = (0, 0);
        while round == 0 || !over() {
            for (slot, &deck) in WORKER_DECKS.iter().enumerate() {
                if round > 0 && over() {
                    break;
                }
                // Set-up: a fresh pool, spawned, handshaken and warmed
                // with the midpoint at every corner. The last of the timed
                // set-ups serves the round; the others are shut down.
                let mut spare: Option<Arc<WorkerPool>> = None;
                let mut routed = None;
                crate::time_setups(&mut setups, || {
                    if let Some(old) = spare.take() {
                        old.shutdown();
                    }
                    let p = decks[deck].problem(THREADS);
                    let t = Instant::now();
                    let pool = pool(cfg, &decks[deck], &p, &stats_);
                    let timed = TimedDispatcher::new(pool.clone());
                    let dispatcher: Arc<dyn EvalDispatcher> =
                        if traced { timed.clone() } else { pool.clone() };
                    let r = p.with_dispatcher(dispatcher);
                    std::hint::black_box(r.evaluate_all_corners(&midpoint(&r)));
                    let s = t.elapsed().as_secs_f64();
                    spare = Some(pool.clone());
                    routed = Some((pool, timed, r));
                    s
                });
                let (pool, timed, routed) = routed.expect("a set-up ran");
                let mut stream = Stream::new(cfg.seed, deck, &routed);
                let batches = &mut per_deck[slot];
                for b in 0..n {
                    if round > 0 && over() {
                        break;
                    }
                    let requests = stream.batch(&routed);
                    let root = trace::new_id();
                    trace::set_current(root, b as u64);
                    let start = trace::now();
                    let (evals, wall_s) =
                        evaluate(&routed, &requests, &mut report, decks[deck].name);
                    trace::record(root, 0, b as u64, "env", "batch", start);
                    let this = Batch {
                        deck,
                        wall_s,
                        digest: batch_digest(&evals),
                    };
                    fold_round(batches, b, round, this, decks[deck].name, &mut report);
                    evaluated += 1;
                }
                children_cpu += pool
                    .worker_pids()
                    .iter()
                    .map(|pid| stats::cpu_seconds(*pid, false))
                    .sum::<f64>();
                pool.shutdown();
                roundtrips.extend(
                    timed
                        .roundtrip_ns
                        .lock()
                        .expect("round-trip times poisoned")
                        .iter(),
                );
            }
            round += 1;
        }
        trace::set_enabled(false);
        let elapsed = started.elapsed().as_secs_f64();
        let cpu = stats::cpu_seconds(std::process::id(), false) - cpu0;
        let rss = stats::peak_rss_mb(std::process::id());
        digests.push(fold(
            &per_deck
                .iter()
                .flat_map(|d| &d[..prefix])
                .map(|b| b.digest)
                .collect::<Vec<_>>(),
        ));
        let batches: Vec<Batch> = per_deck.into_iter().flatten().collect();
        report.attempted += evaluated as u64;
        // The in-process reference: every batch, on fresh problems warmed
        // like the pools, so `worker.ipc_overhead_us` compares warm paths.
        let inprocess = Arc::new(EvalCounters::default());
        let reference: Vec<SizingProblem> = decks
            .iter()
            .map(|d| {
                let mut p = d.problem(THREADS);
                std::hint::black_box(p.evaluate_all_corners(&midpoint(&p)));
                p.evaluator = TimedEvaluator::wrap(p.evaluator.clone(), inprocess.clone());
                p
            })
            .collect();
        let t = Instant::now();
        reverify(
            cfg.seed,
            &reference,
            &batches,
            "between workers and in-process",
            &mut report,
        );
        let reference_s = t.elapsed().as_secs_f64();
        let walls: Vec<f64> = batches.iter().map(|b| b.wall_s * 1e3).collect();
        if !traced {
            // The two decks' batch times form two clusters, so a quantile
            // over both would fall between them; each deck's quantile is
            // taken, and the two are averaged.
            let mean_q = |q| {
                WORKER_DECKS
                    .iter()
                    .map(|d| {
                        let ms: Vec<f64> = batches
                            .iter()
                            .filter(|b| b.deck == *d)
                            .map(|b| b.wall_s * 1e3)
                            .collect();
                        stats::hd_quantile(&ms, q)
                    })
                    .sum::<f64>()
                    / WORKER_DECKS.len() as f64
            };
            report.set("setup_s", stats::setup_time(&setups));
            report.set("sims_per_s", rate(&batches));
            report.set("latency_ms_p50", mean_q(0.5));
            report.set("latency_ms_p90", mean_q(0.9));
            report.set("peak_rss_mb", rss);
            untraced_mean = Some(stats::mean(&walls));
            continue;
        }
        if let Some(base) = untraced_mean {
            report.set(
                "bench.trace_overhead_ratio",
                stats::mean(&walls) / base - 1.0,
            );
        }
        report.set(
            "bench.cpu_util",
            (cpu + children_cpu) / elapsed / crate::cores(),
        );
        report.set("bench.items", evaluated as f64);
        let spans = trace::take();
        cfg.write_spans("sweep_workers", &spans);
        let rt: Vec<f64> = roundtrips.iter().map(|ns| *ns as f64 / 1e3).collect();
        let solve_us = inprocess.busy_ns.load(Ordering::Relaxed) as f64
            / 1e3
            / inprocess.calls.load(Ordering::Relaxed).max(1) as f64;
        report.set("worker.dispatch_calls", rt.len() as f64);
        report.set("worker.roundtrip_us_p50", stats::quantile(&rt, 0.5));
        report.set("worker.roundtrip_us_p99", stats::quantile(&rt, 0.99));
        report.set("worker.ipc_overhead_us", stats::mean(&rt) - solve_us);
        report.set(
            "worker.restarts",
            stats_.restarts.load(Ordering::Relaxed) as f64,
        );
        report.set("worker.children_cpu_s", children_cpu);
        crate::set_env_metrics(&mut report, &inprocess, reference_s, THREADS as f64);
        batch_metrics_workers(&mut report, &spans);
    }
    report.notes.push(format!(
        "digest {:016x} over the first {prefix} batches of each deck",
        digests[0]
    ));
    if digests.iter().any(|d| *d != digests[0]) {
        report.fail("traced and untraced passes produced different evaluations".to_string());
    }
    report.digest = Some(digests[0]);
    report
}

fn batch_metrics_workers(report: &mut Report, spans: &[trace::Span]) {
    let layers = trace::layer_times(spans);
    let batch = layers.get(&("env", "batch")).copied().unwrap_or_default();
    let dispatch = layers
        .get(&("worker", "dispatch"))
        .copied()
        .unwrap_or_default();
    report.set("env.batch_calls", batch.count as f64);
    report.set(
        "env.batch_idle_ratio",
        1.0 - dispatch.total_ns as f64 / (batch.total_ns.max(1) as f64 * THREADS as f64),
    );
}

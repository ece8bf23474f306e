//! In-memory span recording and the wrappers that produce spans from
//! outside the program: a timing decorator for `SizingProblem::evaluator`
//! and a timing `EvalDispatcher` around a worker pool.
//!
//! Spans stay in memory until the run ends and are then written as TSV.
//! A span's self time is its duration minus the union of its children's
//! intervals, so work on two threads under one parent is not counted
//! twice.

use asdex_env::{EnvError, EvalDispatcher, EvalEffort, Evaluator, FailureKind, PvtCorner};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (ids start at 1; 0 means "no parent").
    pub id: u64,
    /// Id of the span that caused this one, or 0.
    pub parent: u64,
    /// Item this span belongs to (campaign, batch, or arrival index).
    pub trace: u64,
    /// Layer, named by module: `core`, `env`, `worker`, `serve`.
    pub layer: &'static str,
    /// What happened inside the layer.
    pub name: &'static str,
    /// Small per-thread index.
    pub thread: u64,
    /// Start, nanoseconds since the process epoch.
    pub start: u64,
    /// End, nanoseconds since the process epoch.
    pub end: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
/// The root span and item of whatever the (single) driving thread is
/// working on; spans opened on helper threads hang under it.
static CURRENT: Mutex<(u64, u64)> = Mutex::new((0, 0));
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub fn now() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Reserves a span id, for a span whose children close before it does.
pub fn new_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Makes `(span, item)` the parent of spans opened without an explicit one.
pub fn set_current(span: u64, item: u64) {
    *CURRENT.lock().expect("span registry poisoned") = (span, item);
}

/// The current `(parent span, item)`.
pub fn current() -> (u64, u64) {
    *CURRENT.lock().expect("span registry poisoned")
}

/// Records a finished span with a pre-reserved `id`.
pub fn record(
    id: u64,
    parent: u64,
    item: u64,
    layer: &'static str,
    name: &'static str,
    start: u64,
) {
    if !enabled() {
        return;
    }
    let span = Span {
        id,
        parent,
        trace: item,
        layer,
        name,
        thread: THREAD.with(|t| *t),
        start,
        end: now(),
    };
    SPANS.lock().expect("span registry poisoned").push(span);
}

/// Records a finished leaf span under the current parent.
pub fn record_leaf(layer: &'static str, name: &'static str, start: u64) {
    let (parent, item) = current();
    record(new_id(), parent, item, layer, name, start);
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span registry poisoned"))
}

/// Writes spans as TSV with a header row.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\ttrace\tlayer\tname\tthread\tstart_ns\tend_ns"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.trace, s.layer, s.name, s.thread, s.start, s.end
        )?;
    }
    out.flush()
}

/// Call count, total duration and total self time of one `(layer, name)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Aggregates spans by `(layer, name)`, with self time = duration minus
/// the union of the children's intervals clipped to the span.
pub fn layer_times(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<(&'static str, &'static str), LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| union_within(c, s.start, s.end));
        let entry = out.entry((s.layer, s.name)).or_default();
        entry.count += 1;
        entry.total_ns += dur;
        entry.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Counters shared by every [`TimedEvaluator`] of one run.
#[derive(Debug, Default)]
pub struct EvalCounters {
    /// Evaluator calls.
    pub calls: AtomicU64,
    /// Calls whose key had already succeeded on the same evaluator
    /// (served by its own memo).
    pub hits: AtomicU64,
    /// Calls returning an error.
    pub failures: AtomicU64,
    /// Summed call durations, ns.
    pub busy_ns: AtomicU64,
    /// Durations of the calls that were not memo hits, ns.
    pub solve_ns: Mutex<Vec<u64>>,
}

/// A decorator swapped into `SizingProblem::evaluator`: forwards every
/// call unchanged and records its duration, memo-hit status and span.
pub struct TimedEvaluator {
    inner: Arc<dyn Evaluator>,
    counters: Arc<EvalCounters>,
    /// Keys that succeeded on `inner`, whose memo serves their repeats.
    seen: Mutex<HashSet<Vec<u64>>>,
}

impl TimedEvaluator {
    /// Wraps `inner`, reporting into `counters`.
    pub fn wrap(inner: Arc<dyn Evaluator>, counters: Arc<EvalCounters>) -> Arc<dyn Evaluator> {
        Arc::new(TimedEvaluator {
            inner,
            counters,
            seen: Mutex::new(HashSet::new()),
        })
    }
}

impl Evaluator for TimedEvaluator {
    fn measurement_names(&self) -> &[String] {
        self.inner.measurement_names()
    }

    fn evaluate(&self, x: &[f64], corner: &PvtCorner) -> Result<Vec<f64>, EnvError> {
        self.evaluate_with_effort(x, corner, EvalEffort::default())
    }

    fn evaluate_with_effort(
        &self,
        x: &[f64],
        corner: &PvtCorner,
        effort: EvalEffort,
    ) -> Result<Vec<f64>, EnvError> {
        let mut key: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        key.extend([
            corner.vdd_scale.to_bits(),
            corner.temp_celsius.to_bits(),
            corner.process as u64,
            effort.attempt as u64,
        ]);
        let hit = self
            .seen
            .lock()
            .expect("memo key set poisoned")
            .contains(&key);
        let start = now();
        let result = self.inner.evaluate_with_effort(x, corner, effort);
        let dur = now() - start;
        record_leaf("env", if hit { "memo_hit" } else { "solve" }, start);
        let c = &self.counters;
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.busy_ns.fetch_add(dur, Ordering::Relaxed);
        if hit {
            c.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            c.solve_ns.lock().expect("solve times poisoned").push(dur);
        }
        match &result {
            Ok(_) => {
                self.seen.lock().expect("memo key set poisoned").insert(key);
            }
            Err(_) => {
                c.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn set_solver(&self, choice: asdex_spice::analysis::SolverChoice) {
        self.inner.set_solver(choice);
    }
}

/// A timing [`EvalDispatcher`] around a worker pool: each attempt's
/// round-trip becomes a `worker/dispatch` span and a latency sample.
pub struct TimedDispatcher {
    inner: Arc<dyn EvalDispatcher>,
    /// Round-trip times, ns.
    pub roundtrip_ns: Mutex<Vec<u64>>,
}

impl TimedDispatcher {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn EvalDispatcher>) -> Arc<TimedDispatcher> {
        Arc::new(TimedDispatcher {
            inner,
            roundtrip_ns: Mutex::new(Vec::new()),
        })
    }
}

impl EvalDispatcher for TimedDispatcher {
    fn dispatch(
        &self,
        x_phys: &[f64],
        corner_idx: usize,
        attempt: usize,
    ) -> Result<Vec<f64>, FailureKind> {
        let start = now();
        let result = self.inner.dispatch(x_phys, corner_idx, attempt);
        let dur = now() - start;
        record_leaf("worker", "dispatch", start);
        self.roundtrip_ns
            .lock()
            .expect("round-trip times poisoned")
            .push(dur);
        result
    }

    fn parallelism(&self) -> usize {
        self.inner.parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            layer: "t",
            name: if parent == 0 { "root" } else { "leaf" },
            thread: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Root 0..100 with children 10..40 and 30..50 (two threads) and
        // 90..120 (clipped to 90..100): union 40 + 10 = 50.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 90, 120),
        ];
        let t = layer_times(&spans);
        let root = t[&("t", "root")];
        assert_eq!((root.total_ns, root.self_ns), (100, 50));
        assert_eq!(t[&("t", "leaf")].count, 3);
    }
}

//! Append-only checkpoint journal for crash-safe search campaigns.
//!
//! A search campaign is a deterministic function of `(problem, agent,
//! seed)` — every evaluator is required to be deterministic in
//! `(x, corner, effort)` and every agent is seeded. The journal exploits
//! that: instead of snapshotting agent state (fragile across versions), it
//! records every *evaluation outcome* the campaign consumed, keyed by its
//! [`EvalKey`] `(point, corner, attempt cap)`. Resuming re-runs the agent
//! from its seed; journaled evaluations are served back verbatim (no
//! simulator calls), and the campaign continues live exactly where it
//! died — producing a [`crate::SearchOutcome`] bitwise identical to an
//! uninterrupted run.
//!
//! # File format (version 1)
//!
//! A [`crate::recordlog`] schema — the log owns the header, newline-gated
//! commit, torn-tail repair, fsync cadence, and the hex float codec:
//!
//! ```text
//! asdex-journal v1
//! M problem=opamp45 seed=7 budget=500 ...
//! E c=0 cap=3 u=3fe0...,3fe8... x=3fe0...,3fe8... m=4010...,c008... v=0000000000000000 fz=1 k=- s=1
//! ```
//!
//! * Line 2 (`M …`) carries campaign metadata as whitespace-free
//!   `key=value` pairs — enough for a CLI to rebuild the same problem,
//!   agent, and seed without any other input.
//! * Each `E …` line is one evaluation: corner index `c`, admitted attempt
//!   cap `cap`, the requested normalized point `u`, and the full
//!   [`Evaluation`] (snapped point `x`, measurements `m` (`-` when the
//!   simulation failed), value `v`, feasibility `fz`, terminal failure
//!   kind `k` (`-` on success), and simulator cost `s`). An unknown key
//!   is corruption.
//!
//! The log fsyncs every `checkpoint_every` records and on
//! [`Journal::checkpoint`].

use crate::problem::{eval_key, EvalKey, Evaluation};
use crate::recordlog::{
    f64_from_hex, f64_list_from_hex, field_safe, hex_f64, hex_f64_list, split_record, unparseable,
    DiskFault, LogFormat, RecordError, RecordLog,
};
use crate::stats::FailureKind;
use std::collections::{HashMap, VecDeque};
use std::path::Path;

static JOURNAL: LogFormat = LogFormat { name: "journal", header: "asdex-journal v1" };

/// Why a journal could not be created, resumed, or appended to.
pub type JournalError = RecordError;

/// Campaign metadata stored on the journal's second line: ordered
/// `key=value` string pairs (keys and values are sanitized to be
/// whitespace-free). The environment layer treats this as opaque — the
/// CLI uses it to rebuild the problem, agent, and seed on `--resume`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalMeta {
    pairs: Vec<(String, String)>,
}

impl JournalMeta {
    /// An empty metadata record.
    pub fn new() -> Self {
        JournalMeta::default()
    }

    /// Sets `key` to `value` (replacing an existing entry). Whitespace and
    /// `=` in either are replaced with `_` so the on-disk line stays
    /// parseable.
    pub fn set(&mut self, key: &str, value: &str) {
        let key = field_safe(key);
        let value = field_safe(value);
        if let Some(entry) = self.pairs.iter_mut().find(|(k, _)| *k == key) {
            entry.1 = value;
        } else {
            self.pairs.push((key, value));
        }
    }

    /// Builder-style [`JournalMeta::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: &str) -> Self {
        self.set(key, value);
        self
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The `(key, value)` pairs, in the order they were first set.
    pub fn pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.pairs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// The `M …` line, newline included.
    fn to_line(&self) -> String {
        let mut line = String::from("M");
        for (k, v) in &self.pairs {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            line.push_str(v);
        }
        line.push('\n');
        line
    }

    /// Parses an `M …` line.
    fn parse(line: &str) -> Option<JournalMeta> {
        match split_record(line)? {
            ("M", fields) => Some(JournalMeta {
                pairs: fields.pairs().iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            }),
            _ => None,
        }
    }
}

/// An append-only, fsync'd evaluation journal (see the module docs for
/// the format and the determinism contract).
///
/// Attach one to a [`crate::SizingProblem`] via
/// [`crate::SizingProblem::with_journal`]: every non-replayed evaluation
/// is recorded, and after [`Journal::resume`] the recorded outcomes are
/// served back in request order without touching the simulator.
#[derive(Debug)]
pub struct Journal {
    log: RecordLog,
    meta: JournalMeta,
    replay: HashMap<EvalKey, VecDeque<Evaluation>>,
    replayed: usize,
    recorded: usize,
    dropped: usize,
}

fn fmt_eval_line(u: &[f64], corner_idx: usize, cap: usize, e: &Evaluation) -> String {
    format!(
        "E c={} cap={} u={} x={} m={} v={} fz={} k={} s={}\n",
        corner_idx,
        cap,
        hex_f64_list(u),
        hex_f64_list(&e.x_norm),
        e.measurements.as_deref().map_or_else(|| "-".to_string(), hex_f64_list),
        hex_f64(e.value),
        usize::from(e.feasible),
        e.failure.map_or("-", FailureKind::label),
        e.sim_cost,
    )
}

fn parse_eval_line(line: &str) -> Option<(EvalKey, Evaluation)> {
    let (tag, f) = split_record(line)?;
    // Exactly the nine keys below: an unknown key is corruption.
    if tag != "E" || f.pairs().len() != 9 {
        return None;
    }
    let u = f64_list_from_hex(f.get("u")?)?;
    let key = eval_key(&u, f.get("c")?.parse().ok()?, f.get("cap")?.parse().ok()?);
    let eval = Evaluation {
        x_norm: f64_list_from_hex(f.get("x")?)?,
        measurements: match f.get("m")? {
            "-" => None,
            m => Some(f64_list_from_hex(m)?),
        },
        value: f64_from_hex(f.get("v")?)?,
        feasible: match f.get("fz")? {
            "0" => false,
            "1" => true,
            _ => return None,
        },
        failure: match f.get("k")? {
            "-" => None,
            k => Some(FailureKind::from_label(k)?),
        },
        sim_cost: f.get("s")?.parse().ok()?,
    };
    Some((key, eval))
}

impl Journal {
    /// Creates a fresh journal at `path` (truncating any existing file),
    /// writing the version header and `meta` immediately and fsync'ing
    /// them. Subsequent records are fsync'd every `checkpoint_every`
    /// appends (minimum 1).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be created or written.
    pub fn create(
        path: &Path,
        meta: JournalMeta,
        checkpoint_every: usize,
    ) -> Result<Journal, JournalError> {
        let log = RecordLog::create(path, &JOURNAL, &meta.to_line(), checkpoint_every)?;
        Ok(Journal { log, meta, replay: HashMap::new(), replayed: 0, recorded: 0, dropped: 0 })
    }

    /// Opens an existing journal for resumption: parses every record into
    /// the replay map, truncates a torn final line (the signature of a
    /// `SIGKILL` mid-append) and reopens the file for appending.
    ///
    /// # Errors
    ///
    /// * [`JournalError::Io`] when the file cannot be read or reopened.
    /// * [`JournalError::Version`] when the header is unknown.
    /// * [`JournalError::Format`] when an interior line is corrupt (torn
    ///   tails are repaired, interior corruption is not).
    /// * [`JournalError::Missing`] when the file holds no complete
    ///   metadata line: its writer died while creating it, before any
    ///   evaluation was recorded.
    pub fn resume(path: &Path, checkpoint_every: usize) -> Result<Journal, JournalError> {
        let mut meta = None;
        let mut replay: HashMap<EvalKey, VecDeque<Evaluation>> = HashMap::new();
        let mut recorded = 0;
        let valid = RecordLog::scan(path, &JOURNAL, |line, body| {
            if line == 2 {
                meta = Some(JournalMeta::parse(body).ok_or_else(|| unparseable(body))?);
            } else {
                let (key, eval) = parse_eval_line(body).ok_or_else(|| unparseable(body))?;
                replay.entry(key).or_default().push_back(eval);
                recorded += 1;
            }
            Ok(())
        })?;
        let meta = meta.ok_or(JournalError::Missing {
            log: &JOURNAL,
            line: 2,
            what: "campaign metadata",
        })?;
        let log = RecordLog::reopen(path, &JOURNAL, valid, checkpoint_every)?;
        Ok(Journal { log, meta, replay, replayed: 0, recorded, dropped: 0 })
    }

    /// Attaches a seeded [`DiskFault`] injector to this journal's write
    /// and fsync paths (chaos testing).
    #[must_use]
    pub fn with_disk_fault(mut self, fault: DiskFault) -> Journal {
        self.log = self.log.with_disk_fault(fault);
        self
    }

    /// Pops the recorded outcome for `(u, corner_idx, cap)`, if this
    /// journal holds one that has not been served yet. Duplicate requests
    /// are served in recording order, exactly as the original run produced
    /// them.
    pub fn take_replay(&mut self, u: &[f64], corner_idx: usize, cap: usize) -> Option<Evaluation> {
        let key = eval_key(u, corner_idx, cap);
        let queue = self.replay.get_mut(&key)?;
        let eval = queue.pop_front()?;
        if queue.is_empty() {
            self.replay.remove(&key);
        }
        self.replayed += 1;
        Some(eval)
    }

    /// Appends one evaluation record, fsync'ing when `checkpoint_every`
    /// records have accumulated since the last sync.
    ///
    /// A failed append is also tallied in [`Journal::dropped`]: in-tree
    /// callers degrade by dropping the record (a shorter resume point, not
    /// a failed evaluation), and the tally keeps that degradation visible
    /// in campaign telemetry instead of silent.
    ///
    /// # Errors
    ///
    /// [`JournalError::Storage`] when the append or the periodic fsync
    /// fails (or a [`DiskFault`] fires).
    pub fn record(
        &mut self,
        u: &[f64],
        corner_idx: usize,
        cap: usize,
        eval: &Evaluation,
    ) -> Result<(), JournalError> {
        let result = self.log.append(&fmt_eval_line(u, corner_idx, cap, eval));
        // A failed periodic fsync is not a drop: the append itself landed.
        if matches!(result, Err(JournalError::Storage { op: "append", .. })) {
            self.dropped += 1;
        } else {
            self.recorded += 1;
        }
        result
    }

    /// Forces an fsync now (graceful-shutdown path: called on `SIGINT` and
    /// at the end of a campaign so the tail of the journal is durable).
    ///
    /// # Errors
    ///
    /// [`JournalError::Storage`] when the sync fails (or a [`DiskFault`]
    /// fires).
    pub fn checkpoint(&mut self) -> Result<(), JournalError> {
        self.log.sync()
    }

    /// Appends that failed and were degraded to a shorter resume point.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Where the journal lives on disk.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// The campaign metadata from the header.
    pub fn meta(&self) -> &JournalMeta {
        &self.meta
    }

    /// Evaluations served from the replay map so far.
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Evaluation records in the file (parsed on resume + appended since).
    pub fn recorded(&self) -> usize {
        self.recorded
    }

    /// Recorded evaluations not yet served back — nonzero after a resumed
    /// campaign diverges (e.g. a different seed), which a CLI should warn
    /// about.
    pub fn unconsumed(&self) -> usize {
        self.replay.values().map(VecDeque::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recordlog::DiskFaultKind;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("asdex-journal-test-{}-{name}.log", std::process::id()));
        p
    }

    fn sample_eval(ok: bool) -> Evaluation {
        if ok {
            Evaluation {
                x_norm: vec![0.5, 0.25],
                measurements: Some(vec![1.5, -2.25]),
                value: -0.125,
                feasible: true,
                failure: None,
                sim_cost: 1,
            }
        } else {
            Evaluation {
                x_norm: vec![0.5, 0.25],
                measurements: None,
                value: -100.0,
                feasible: false,
                failure: Some(FailureKind::WorkerPanic),
                sim_cost: 3,
            }
        }
    }

    /// Pinned bytes: journals already on disk hold exactly this format,
    /// so a change here would stop them from resuming.
    const GOLDEN: &str = "asdex-journal v1\n\
        M bench=opamp45 agent=trm seed=7\n\
        E c=2 cap=3 u=3fe0000000000001,3fd0000000000000 x=3fe0000000000000,3fd0000000000000 \
        m=3ff8000000000000,c002000000000000 v=bfc0000000000000 fz=1 k=- s=1\n\
        E c=0 cap=1 u=3fe8000000000000,3fd0000000000000 x=3fe0000000000000,3fd0000000000000 \
        m=- v=c059000000000000 fz=0 k=worker-panic s=3\n";

    #[test]
    fn bytes_match_the_golden_file_and_the_golden_file_replays() {
        let path = tmp_path("golden");
        let meta =
            JournalMeta::new().with("bench", "opamp45").with("agent", "trm").with("seed", "7");
        let mut j = Journal::create(&path, meta.clone(), 25).unwrap();
        j.record(&[0.5000000000000001, 0.25], 2, 3, &sample_eval(true)).unwrap();
        j.record(&[0.75, 0.25], 0, 1, &sample_eval(false)).unwrap();
        j.checkpoint().unwrap();
        drop(j);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), GOLDEN);

        std::fs::write(&path, GOLDEN).unwrap();
        let mut j = Journal::resume(&path, 25).unwrap();
        assert_eq!(*j.meta(), meta);
        assert_eq!(j.recorded(), 2);
        assert_eq!(j.take_replay(&[0.5000000000000001, 0.25], 2, 3), Some(sample_eval(true)));
        assert_eq!(j.take_replay(&[0.75, 0.25], 0, 1), Some(sample_eval(false)));
        assert_eq!(j.unconsumed(), 0);
        // An unknown key is corruption, not a newer writer.
        std::fs::write(&path, GOLDEN.replace("k=- s=1", "k=- s=1 extra=0")).unwrap();
        assert!(matches!(Journal::resume(&path, 25), Err(JournalError::Format { line: 3, .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_resume_replays_in_order() {
        let path = tmp_path("order");
        let meta = JournalMeta::new().with("problem", "toy").with("seed", "7");
        let mut j = Journal::create(&path, meta, 2).unwrap();
        let a = sample_eval(true);
        let b = sample_eval(false);
        // Two records under the SAME key: replay must preserve order.
        j.record(&[0.5, 0.25], 0, 3, &a).unwrap();
        j.record(&[0.5, 0.25], 0, 3, &b).unwrap();
        j.checkpoint().unwrap();
        drop(j);

        let mut j = Journal::resume(&path, 2).unwrap();
        assert_eq!(j.meta().get("problem"), Some("toy"));
        assert_eq!(j.meta().get("seed"), Some("7"));
        assert_eq!(j.recorded(), 2);
        assert_eq!(j.unconsumed(), 2);
        assert_eq!(j.take_replay(&[0.5, 0.25], 0, 3), Some(a));
        assert_eq!(j.take_replay(&[0.5, 0.25], 0, 3), Some(b));
        assert_eq!(j.take_replay(&[0.5, 0.25], 0, 3), None);
        assert_eq!(j.replayed(), 2);
        // A different cap is a different identity.
        assert_eq!(j.take_replay(&[0.5, 0.25], 0, 1), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_that_still_parses_is_dropped_not_replayed() {
        let path = tmp_path("torn-parseable");
        let mut j = Journal::create(&path, JournalMeta::new(), 1).unwrap();
        j.record(&[0.5, 0.25], 0, 3, &sample_eval(true)).unwrap();
        let mut expensive = sample_eval(true);
        expensive.sim_cost = 12;
        j.record(&[0.5, 0.25], 1, 3, &expensive).unwrap();
        drop(j);
        // Cut the final line inside its trailing `s=12` field: "s=1" is a
        // valid (wrong!) record, but the missing newline proves the write
        // never finished — it must be dropped, not served truncated.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.trim_end().len() - 1;
        assert!(text[..cut].ends_with("s=1"), "cut must leave a parseable prefix");
        std::fs::write(&path, &text[..cut]).unwrap();

        let mut j = Journal::resume(&path, 1).unwrap();
        assert_eq!(j.recorded(), 1, "the parseable torn record must still be dropped");
        assert!(j.take_replay(&[0.5, 0.25], 1, 3).is_none(), "phantom record served");
        // The file is valid again: appending + resuming works.
        j.record(&[0.75, 0.25], 1, 3, &sample_eval(false)).unwrap();
        drop(j);
        assert_eq!(Journal::resume(&path, 1).unwrap().recorded(), 2);
        // A journal torn inside its metadata line cannot name its campaign.
        std::fs::write(&path, "asdex-journal v1\nM bench=op").unwrap();
        let err = Journal::resume(&path, 1).unwrap_err();
        assert_eq!(err.to_string(), "corrupt journal at line 2: missing campaign metadata");
        assert!(matches!(err, JournalError::Missing { line: 2, .. }), "got {err:?}");
        // Nor can one that ends before that line or inside its header. A
        // complete metadata line that does not parse is corruption instead.
        for torn in ["asdex-journal v1\n", "asdex-jou", ""] {
            std::fs::write(&path, torn).unwrap();
            let err = Journal::resume(&path, 1).unwrap_err();
            assert!(matches!(err, JournalError::Missing { line: 2, .. }), "{torn:?}: {err:?}");
        }
        std::fs::write(&path, "asdex-journal v1\nM bench\n").unwrap();
        let err = Journal::resume(&path, 1).unwrap_err();
        assert!(matches!(err, JournalError::Format { line: 2, .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dropped_counts_failed_appends_not_failed_fsyncs() {
        let path = tmp_path("dropped");
        let j = Journal::create(&path, JournalMeta::new(), 1).unwrap();
        let mut j = j.with_disk_fault(DiskFault::new(DiskFaultKind::WriteError, 1.0, 7));
        let err = j.record(&[0.5, 0.25], 0, 3, &sample_eval(true)).unwrap_err();
        assert!(err.to_string().starts_with("journal storage error during append"), "got {err}");
        assert_eq!((j.dropped(), j.recorded()), (1, 0));

        // checkpoint_every=1: the periodic fsync inside record fails, but
        // the append itself landed — an error, not a drop.
        let j = Journal::create(&path, JournalMeta::new(), 1).unwrap();
        let mut j = j.with_disk_fault(DiskFault::new(DiskFaultKind::FsyncError, 1.0, 7));
        let err = j.record(&[0.5, 0.25], 0, 3, &sample_eval(true)).unwrap_err();
        assert!(matches!(err, JournalError::Storage { op: "fsync", .. }), "got {err}");
        assert_eq!((j.dropped(), j.recorded()), (0, 1));
        std::fs::remove_file(&path).ok();
    }
}

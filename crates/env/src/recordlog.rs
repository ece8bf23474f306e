//! The durable text-record log under the eval journal and the serve
//! manifest, and the codec every text record in the repo shares.
//!
//! # File format
//!
//! A record log is a plain text file. Line 1 is a version header naming
//! the schema (`asdex-journal v1`, `asdex-manifest v1`); every later line
//! is one record: a tag followed by whitespace-free `key=value` fields.
//! The schema on top decides what the tags and keys mean; this module
//! decides everything else, once:
//!
//! * **Newline-gated commit.** A line counts only once its `\n` is on
//!   disk. A line torn at a field boundary can still parse (a float list
//!   cut between entries reads as a shorter valid list), so the missing
//!   newline, not the parser, is what proves the write never finished.
//! * **Torn tails are repaired, interior corruption is typed.** Each
//!   record is appended with a single `write`, so a `SIGKILL` can tear at
//!   most the final line: [`RecordLog::scan`] drops it and
//!   [`RecordLog::reopen`] truncates it away. A complete line that does
//!   not parse cannot come from a crash, so it is a
//!   [`RecordError::Format`] naming the line, never a silent repair.
//! * **Batched fsync.** Only the fsync is batched: every `sync_every`
//!   appends and on [`RecordLog::sync`]. A `SIGKILL` therefore costs at
//!   most a torn final line; only an OS crash can lose the unsynced tail.
//! * **Deterministic disk faults.** A [`DiskFault`] fails appends and
//!   fsyncs as a pure function of (seed, file-name salt, op index).
//!
//! # Codec
//!
//! Every float and digest in a text record (journal and manifest lines,
//! worker frames, the `*_bits` JSON fields) is the 16-lowercase-hex-digit
//! form of its 64 bits, so round trips are bitwise exact and string
//! equality is value equality. [`u64_from_hex`] accepts exactly what
//! [`hex_u64`] writes — no sign, no short or long forms.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// FNV-1a 64 over a string: netlist digests, outcome digests, and the
/// per-file [`DiskFault`] salt.
pub fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The 16-hex-digit form of `v`.
pub fn hex_u64(v: u64) -> String {
    format!("{v:016x}")
}

/// Parses exactly the form [`hex_u64`] writes: 16 lowercase hex digits.
pub fn u64_from_hex(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The IEEE-754 bits of `v` as 16 hex digits.
pub fn hex_f64(v: f64) -> String {
    hex_u64(v.to_bits())
}

/// Inverse of [`hex_f64`].
pub fn f64_from_hex(s: &str) -> Option<f64> {
    u64_from_hex(s).map(f64::from_bits)
}

/// A comma-separated [`hex_f64`] list (empty for an empty slice).
pub fn hex_f64_list(xs: &[f64]) -> String {
    xs.iter().map(|v| hex_f64(*v)).collect::<Vec<_>>().join(",")
}

/// Inverse of [`hex_f64_list`].
pub fn f64_list_from_hex(s: &str) -> Option<Vec<f64>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(f64_from_hex).collect()
}

/// Maps whitespace and `=` to `_`, so a free-form string can be a key or
/// value in a `key=value` record.
pub fn field_safe(s: &str) -> String {
    s.chars().map(|c| if c.is_whitespace() || c == '=' { '_' } else { c }).collect()
}

/// The `key=value` fields of one record, in line order, keys unique.
#[derive(Debug, PartialEq)]
pub struct Fields<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Fields<'a> {
    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&'a str> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Every field, in line order.
    pub fn pairs(&self) -> &[(&'a str, &'a str)] {
        &self.0
    }
}

/// Splits a record into its tag and its `key=value` fields.
///
/// `None` when the line is empty, a token lacks `=`, or a key repeats: no
/// writer repeats a key, so a repeat is the signature of two records
/// fused by a lost newline. What unknown keys mean is the schema's call.
pub fn split_record(line: &str) -> Option<(&str, Fields<'_>)> {
    let mut tokens = line.split_whitespace();
    let tag = tokens.next()?;
    let mut fields: Vec<(&str, &str)> = Vec::new();
    for token in tokens {
        let (key, value) = token.split_once('=')?;
        if fields.iter().any(|(seen, _)| *seen == key) {
            return None;
        }
        fields.push((key, value));
    }
    Some((tag, Fields(fields)))
}

/// The [`RecordError::Format`] reason for a complete line a schema
/// cannot parse.
pub fn unparseable(body: &str) -> String {
    format!("unparseable record `{body}`")
}

/// One record-log schema: what its errors call it and the version header
/// on its first line.
#[derive(Debug)]
pub struct LogFormat {
    /// The noun in error messages (`journal`, `manifest`).
    pub name: &'static str,
    /// The exact first line of every file of this schema.
    pub header: &'static str,
}

/// Why a record log could not be created, scanned, or appended to. Every
/// variant names the schema, so a message says which log failed.
#[derive(Debug)]
pub enum RecordError {
    /// A file operation failed while creating or opening the log.
    Io {
        /// The log's schema.
        log: &'static LogFormat,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The first line is not this schema's version header.
    Version {
        /// The log's schema.
        log: &'static LogFormat,
        /// What the first line actually contained.
        found: String,
    },
    /// A complete line (i.e. not a torn tail) did not parse.
    Format {
        /// The log's schema.
        log: &'static LogFormat,
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A write or fsync on an open log failed (disk full, injected
    /// fault), carrying which operation failed.
    Storage {
        /// The log's schema.
        log: &'static LogFormat,
        /// The operation that failed (`append`, `fsync`).
        op: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Io { log, source } => write!(f, "{} I/O error: {source}", log.name),
            RecordError::Version { log, found } => {
                write!(f, "not an asdex {} (expected `{}`, found `{found}`)", log.name, log.header)
            }
            RecordError::Format { log, line, reason } => {
                write!(f, "corrupt {} at line {line}: {reason}", log.name)
            }
            RecordError::Storage { log, op, source } => {
                write!(f, "{} storage error during {op}: {source}", log.name)
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Which storage operation a seeded [`DiskFault`] sabotages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// The append fails outright before any byte lands (ENOSPC-style).
    WriteError,
    /// The append writes a prefix of the record and then fails — the
    /// on-disk shape of a torn tail, produced while the process lives.
    ShortWrite,
    /// `fsync` fails; buffered bytes may or may not be durable.
    FsyncError,
}

impl DiskFaultKind {
    /// Stable label for error messages and metrics.
    pub fn label(self) -> &'static str {
        match self {
            DiskFaultKind::WriteError => "write-error",
            DiskFaultKind::ShortWrite => "short-write",
            DiskFaultKind::FsyncError => "fsync-error",
        }
    }
}

/// A seeded, deterministic disk-fault injector for record-log appends
/// and fsyncs.
///
/// Whether an operation fails is a pure function of `(seed, salt, op
/// index)` — the same campaign with the same fault config fails at the
/// same operations on every run, so chaos tests are reproducible. `salt`
/// is derived from the file name, so two logs under one config fail on
/// *different* schedules (one campaign's storage can die while its
/// neighbors stay healthy).
#[derive(Debug, Clone, Copy)]
pub struct DiskFault {
    /// Which operation class to sabotage.
    pub kind: DiskFaultKind,
    /// Probability in `[0, 1]` that a given operation fails.
    pub rate: f64,
    /// Seed for the per-operation decision hash.
    pub seed: u64,
}

impl DiskFault {
    /// A fault of `kind` firing at `rate` under `seed`.
    pub fn new(kind: DiskFaultKind, rate: f64, seed: u64) -> DiskFault {
        DiskFault { kind, rate, seed }
    }

    /// Deterministic per-operation decision (splitmix64 over seed, salt,
    /// and the operation index).
    pub fn fires(&self, salt: u64, op: u64) -> bool {
        let mut z = self
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(salt.rotate_left(17))
            .wrapping_add(op.wrapping_mul(0xbf58476d1ce4e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.rate
    }

    /// The injected error for a firing operation.
    fn error(&self) -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            format!("injected disk fault ({})", self.kind.label()),
        )
    }
}

/// An open, append-only record log (see the module docs).
#[derive(Debug)]
pub struct RecordLog {
    log: &'static LogFormat,
    path: PathBuf,
    file: File,
    sync_every: usize,
    pending: usize,
    disk_fault: Option<DiskFault>,
    salt: u64,
    write_ops: u64,
    sync_ops: u64,
}

impl RecordLog {
    /// Creates a fresh log at `path` (truncating any existing file): the
    /// header line and `preamble` (whole lines, newline-terminated) in one
    /// write, then an fsync. Later appends fsync every `sync_every`
    /// (minimum 1).
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] when the file cannot be created or written.
    pub fn create(
        path: &Path,
        log: &'static LogFormat,
        preamble: &str,
        sync_every: usize,
    ) -> Result<RecordLog, RecordError> {
        let io = |source| RecordError::Io { log, source };
        let mut file =
            OpenOptions::new().write(true).create(true).truncate(true).open(path).map_err(io)?;
        file.write_all(format!("{}\n{preamble}", log.header).as_bytes()).map_err(io)?;
        file.sync_data().map_err(io)?;
        Ok(RecordLog::new(path, log, file, sync_every))
    }

    /// Reads the log at `path` without changing it: checks the header,
    /// then hands every complete record line to `apply` as `(1-based line
    /// number, line without its newline)`, in file order. `apply` returns
    /// the reason a line is corrupt. A torn final line is never handed
    /// over. Returns the byte length of the complete lines — 0 when even
    /// the header line is torn — for [`RecordLog::reopen`].
    ///
    /// # Errors
    ///
    /// * [`RecordError::Io`] when the file cannot be read.
    /// * [`RecordError::Version`] when the header is not `log.header`.
    /// * [`RecordError::Format`] when `apply` rejects a line.
    pub fn scan(
        path: &Path,
        log: &'static LogFormat,
        mut apply: impl FnMut(usize, &str) -> Result<(), String>,
    ) -> Result<u64, RecordError> {
        let mut text = String::new();
        File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|source| RecordError::Io { log, source })?;
        let mut valid = 0usize;
        for (idx, raw) in text.split_inclusive('\n').enumerate() {
            // No newline: the final write never finished. Drop it.
            let Some(body) = raw.strip_suffix('\n') else { break };
            let body = body.trim_end_matches('\r');
            let line = idx + 1;
            if line == 1 {
                if body != log.header {
                    return Err(RecordError::Version { log, found: body.to_string() });
                }
            } else {
                apply(line, body).map_err(|reason| RecordError::Format { log, line, reason })?;
            }
            valid += raw.len();
        }
        Ok(valid as u64)
    }

    /// Truncates `path` to `valid_len` — the length [`RecordLog::scan`]
    /// vouched for, cutting a torn tail — and opens it for appending.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] when the file cannot be truncated or reopened.
    pub fn reopen(
        path: &Path,
        log: &'static LogFormat,
        valid_len: u64,
        sync_every: usize,
    ) -> Result<RecordLog, RecordError> {
        let io = |source| RecordError::Io { log, source };
        OpenOptions::new().write(true).open(path).and_then(|f| f.set_len(valid_len)).map_err(io)?;
        let file = OpenOptions::new().append(true).open(path).map_err(io)?;
        Ok(RecordLog::new(path, log, file, sync_every))
    }

    fn new(path: &Path, log: &'static LogFormat, file: File, sync_every: usize) -> RecordLog {
        let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
        RecordLog {
            log,
            path: path.to_path_buf(),
            file,
            sync_every: sync_every.max(1),
            pending: 0,
            disk_fault: None,
            salt: fnv1a(&name),
            write_ops: 0,
            sync_ops: 0,
        }
    }

    /// Attaches a seeded [`DiskFault`] injector to the append and fsync
    /// paths (chaos testing).
    #[must_use]
    pub fn with_disk_fault(mut self, fault: DiskFault) -> RecordLog {
        self.disk_fault = Some(fault);
        self
    }

    /// Where the log lives on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record — `line` must end in its newline — with a
    /// single write, then fsyncs once `sync_every` appends have
    /// accumulated since the last sync.
    ///
    /// # Errors
    ///
    /// [`RecordError::Storage`] with op `append` when the write fails (no
    /// record landed, though a short write may have torn the tail), or
    /// with op `fsync` when the periodic sync fails (the record landed).
    pub fn append(&mut self, line: &str) -> Result<(), RecordError> {
        let log = self.log;
        let append_error = move |source| RecordError::Storage { log, op: "append", source };
        let bytes = line.as_bytes();
        let op = self.write_ops;
        self.write_ops += 1;
        if let Some(fault) = self.disk_fault.filter(|f| f.fires(self.salt, op)) {
            match fault.kind {
                DiskFaultKind::WriteError => return Err(append_error(fault.error())),
                DiskFaultKind::ShortWrite => {
                    // Land a prefix so the file genuinely tears, then fail
                    // the append like a half-completed write.
                    self.file.write_all(&bytes[..bytes.len() / 2]).map_err(append_error)?;
                    return Err(append_error(fault.error()));
                }
                DiskFaultKind::FsyncError => {}
            }
        }
        self.file.write_all(bytes).map_err(append_error)?;
        self.pending += 1;
        if self.pending >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Fsyncs now.
    ///
    /// # Errors
    ///
    /// [`RecordError::Storage`] with op `fsync` when the sync fails (or a
    /// [`DiskFault`] fires).
    pub fn sync(&mut self) -> Result<(), RecordError> {
        let log = self.log;
        let fsync_error = move |source| RecordError::Storage { log, op: "fsync", source };
        let op = self.sync_ops;
        self.sync_ops += 1;
        if let Some(fault) = self.disk_fault {
            if fault.kind == DiskFaultKind::FsyncError && fault.fires(self.salt, op) {
                return Err(fsync_error(fault.error()));
            }
        }
        self.file.sync_data().map_err(fsync_error)?;
        self.pending = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_LOG: LogFormat = LogFormat { name: "test log", header: "asdex-test v1" };

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("asdex-recordlog-test-{}-{name}.log", std::process::id()))
    }

    /// Scans `path` as a log of `N k=<n>` records, returning the `n`s.
    fn scan_records(path: &Path) -> Result<(Vec<u64>, u64), RecordError> {
        let mut records = Vec::new();
        let valid = RecordLog::scan(path, &TEST_LOG, |_, body| {
            let value = match split_record(body) {
                Some(("N", fields)) if fields.pairs().len() == 1 => {
                    fields.get("k").and_then(|k| k.parse().ok())
                }
                _ => None,
            };
            records.push(value.ok_or_else(|| unparseable(body))?);
            Ok(())
        })?;
        Ok((records, valid))
    }

    fn write_log(path: &Path, records: &[u64]) -> RecordLog {
        let mut log = RecordLog::create(path, &TEST_LOG, "", 100).unwrap();
        for k in records {
            log.append(&format!("N k={k}\n")).unwrap();
        }
        log.sync().unwrap();
        log
    }

    #[test]
    fn codec_round_trips_bitwise_and_parses_only_what_it_writes() {
        for v in [0.1 + 0.2, -0.0, f64::INFINITY, f64::MIN_POSITIVE, -1.5e-9] {
            assert_eq!(f64_from_hex(&hex_f64(v)).map(f64::to_bits), Some(v.to_bits()));
        }
        let list = [0.5, -2.25, 1e300];
        assert_eq!(f64_list_from_hex(&hex_f64_list(&list)), Some(list.to_vec()));
        assert_eq!(f64_list_from_hex(""), Some(Vec::new()));
        assert_eq!(hex_u64(0xaf63dc4c8601ec8c), "af63dc4c8601ec8c");
        assert_eq!(u64_from_hex("000000000000000a"), Some(10));
        // `u64::from_str_radix` alone accepts every one of these.
        for bad in [
            "+af63dc4c8601ec8c",
            "+0",
            "1",
            "0af63dc4c8601ec8c",
            "AF63DC4C8601EC8C",
            "af63dc4c8601ec8",
            "",
            "af63dc4c8601ec8g",
        ] {
            assert_eq!(u64_from_hex(bad), None, "{bad:?} accepted");
        }
        assert_eq!(f64_list_from_hex("3ff0000000000000,"), None, "empty list entry");
        assert_eq!(field_safe("trm ppo=x\tz"), "trm_ppo_x_z");
        assert_eq!(fnv1a(""), 0xcbf29ce484222325);
        assert_eq!(fnv1a("a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn split_record_rejects_missing_equals_and_repeated_keys() {
        let (tag, fields) = split_record("T a=1 b=x=y").unwrap();
        assert_eq!((tag, fields.pairs()), ("T", &[("a", "1"), ("b", "x=y")][..]));
        assert_eq!((fields.get("b"), fields.get("c")), (Some("x=y"), None));
        assert_eq!(split_record("Q"), Some(("Q", Fields(vec![]))));
        assert_eq!(split_record(""), None);
        assert_eq!(split_record("T a=1 garbage"), None);
        // Two records fused by a lost newline repeat their keys.
        assert_eq!(split_record("A id=c1 solver=autoR id=c1"), None);
    }

    #[test]
    fn every_byte_tear_of_the_final_record_drops_exactly_that_record() {
        let path = tmp_path("tear");
        drop(write_log(&path, &[1, 22, 333]));
        let bytes = std::fs::read(&path).unwrap();
        let last_line_start =
            bytes[..bytes.len() - 1].iter().rposition(|b| *b == b'\n').unwrap() + 1;
        // Cut at every byte of the final record. Cuts like `N k=33` parse
        // as a valid record; only the missing newline shows the tear.
        for cut in last_line_start..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (records, valid) = scan_records(&path).unwrap();
            assert_eq!(records, [1, 22], "cut at byte {cut}");
            assert_eq!(valid, last_line_start as u64, "cut at byte {cut}");
            assert_eq!(std::fs::read(&path).unwrap(), &bytes[..cut], "scan must not write");
            // Reopening truncates the tear, and the log keeps working.
            let mut log = RecordLog::reopen(&path, &TEST_LOG, valid, 1).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), &bytes[..last_line_start]);
            log.append("N k=4\n").unwrap();
            drop(log);
            assert_eq!(scan_records(&path).unwrap().0, [1, 22, 4], "cut at byte {cut}");
        }
        // A torn header leaves nothing valid: the schema decides.
        std::fs::write(&path, "asdex-te").unwrap();
        assert_eq!(scan_records(&path).unwrap(), (vec![], 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_and_a_foreign_header_are_typed_errors() {
        let path = tmp_path("interior");
        drop(write_log(&path, &[1, 2]));
        let clean = std::fs::read_to_string(&path).unwrap();
        let garbage = clean.replacen("N k=2", "garbage line\nN k=2", 1);
        std::fs::write(&path, &garbage).unwrap();
        let err = scan_records(&path).unwrap_err();
        assert!(matches!(err, RecordError::Format { line: 3, .. }), "got {err:?}");
        assert_eq!(
            err.to_string(),
            "corrupt test log at line 3: unparseable record `garbage line`"
        );
        // A cut interior line followed by intact records is not a tail.
        std::fs::write(&path, clean.replacen("N k=1", "N k=", 1)).unwrap();
        assert!(matches!(scan_records(&path), Err(RecordError::Format { line: 2, .. })));

        std::fs::write(&path, "asdex-test v99\nN k=1\n").unwrap();
        let err = scan_records(&path).unwrap_err();
        assert!(matches!(err, RecordError::Version { .. }), "got {err:?}");
        assert_eq!(
            err.to_string(),
            "not an asdex test log (expected `asdex-test v1`, found `asdex-test v99`)"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_write_error_lands_no_bytes() {
        let path = tmp_path("fault-write");
        let log = write_log(&path, &[1]);
        let mut log = log.with_disk_fault(DiskFault::new(DiskFaultKind::WriteError, 1.0, 7));
        let before = std::fs::read(&path).unwrap();
        let err = log.append("N k=2\n").unwrap_err();
        assert!(matches!(err, RecordError::Storage { op: "append", .. }), "got {err}");
        assert_eq!(
            err.to_string(),
            "test log storage error during append: injected disk fault (write-error)"
        );
        assert_eq!(std::fs::read(&path).unwrap(), before, "no bytes landed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_short_write_tears_the_tail_and_scan_repairs_it() {
        let path = tmp_path("fault-short");
        let log = write_log(&path, &[1]);
        let mut log = log.with_disk_fault(DiskFault::new(DiskFaultKind::ShortWrite, 1.0, 7));
        let err = log.append("N k=22222\n").unwrap_err();
        assert!(matches!(err, RecordError::Storage { op: "append", .. }), "got {err}");
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("N k=2"), "the short write must tear the file: {text:?}");
        assert_eq!(scan_records(&path).unwrap().0, [1], "torn half-record dropped");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_fsync_failure_fails_after_the_record_landed() {
        let path = tmp_path("fault-fsync");
        let log = RecordLog::create(&path, &TEST_LOG, "", 2).unwrap();
        let mut log = log.with_disk_fault(DiskFault::new(DiskFaultKind::FsyncError, 1.0, 7));
        log.append("N k=1\n").unwrap();
        // The second append reaches sync_every: its fsync fails, but the
        // record itself landed.
        let err = log.append("N k=2\n").unwrap_err();
        assert!(matches!(err, RecordError::Storage { op: "fsync", .. }), "got {err}");
        let err = log.sync().unwrap_err();
        assert!(matches!(err, RecordError::Storage { op: "fsync", .. }), "got {err}");
        drop(log);
        assert_eq!(scan_records(&path).unwrap().0, [1, 2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_fault_decisions_are_deterministic_and_salted() {
        let fault = DiskFault::new(DiskFaultKind::WriteError, 0.5, 42);
        let a: Vec<bool> = (0..64).map(|op| fault.fires(1, op)).collect();
        let b: Vec<bool> = (0..64).map(|op| fault.fires(1, op)).collect();
        assert_eq!(a, b, "same (seed, salt, op) must decide identically");
        let c: Vec<bool> = (0..64).map(|op| fault.fires(2, op)).collect();
        assert_ne!(a, c, "different salts must fail on different schedules");
        assert!(a.iter().any(|f| *f) && a.iter().any(|f| !*f), "rate 0.5 mixes outcomes");
        let never = DiskFault::new(DiskFaultKind::WriteError, 0.0, 42);
        assert!((0..64).all(|op| !never.fires(1, op)));
        let always = DiskFault::new(DiskFaultKind::WriteError, 1.0, 42);
        assert!((0..64).all(|op| always.fires(1, op)));
    }

    #[test]
    fn disk_fault_schedule_is_pinned_per_file_name() {
        // The append indices that fail at seed 42, rate 0.5, for two file
        // names. Pinned so a seeded chaos run stays replayable across
        // versions; failed appends advance the op index too.
        let dir = tmp_path("schedule");
        std::fs::create_dir_all(&dir).unwrap();
        let pinned: [(&str, &[u64]); 2] =
            [("manifest.log", &[0, 2, 7, 9, 10, 11, 12, 13]), ("c1.journal", &[0, 5, 9, 10, 14])];
        for (name, want) in pinned {
            let fault = DiskFault::new(DiskFaultKind::WriteError, 0.5, 42);
            let mut log = RecordLog::create(&dir.join(name), &TEST_LOG, "", 1)
                .unwrap()
                .with_disk_fault(fault);
            let fired: Vec<u64> = (0..16).filter(|_| log.append("N k=1\n").is_err()).collect();
            assert_eq!(fired, want, "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

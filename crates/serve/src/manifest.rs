//! Write-ahead campaign manifest: the daemon's durable admission record.
//!
//! The eval journal makes one *campaign* crash-safe; the manifest makes
//! the *daemon* crash-safe. Every admission and every lifecycle
//! transition is appended to `manifest.log` in the journal directory and
//! fsync'd **before** the transition takes effect (write-ahead), so a
//! SIGKILLed daemon forgets nothing: on boot the scheduler replays the
//! manifest, re-exposes terminal campaigns to `GET /campaigns/{id}`, and
//! re-admits every incomplete campaign, which then resumes from its eval
//! journal to a bitwise-identical outcome.
//!
//! # File format (version 1)
//!
//! A [`asdex_env::recordlog`] schema, like the eval journal — the log
//! owns the header, newline-gated commit, torn-tail repair, and the hex
//! codec; the manifest fsyncs every record:
//!
//! ```text
//! asdex-manifest v1
//! A id=c0001 bench=bowl3 agent=trm seed=7 budget=400 corners=nominal checkpoint_every=25 solver=auto
//! R id=c0001
//! T id=c0001 status=completed ok=1 sims=412 v=bfe0000000000000 digest=90b7582fdc2c593f
//! ```
//!
//! * `A` — the campaign was admitted, with its full [`CampaignSpec`]
//!   (enough to rebuild the run with zero other inputs).
//! * `R` — its runner thread picked it up.
//! * `T` — it reached a terminal state. `completed` records carry the
//!   outcome's headline numbers plus an FNV-1a digest of the full
//!   bitwise outcome JSON; `failed` records carry the sanitized error.
//!
//! The *latest* record per id wins on replay. A `completed`/`failed`
//! campaign is finished — re-exposed, not re-run. An `A`/`R`/
//! `interrupted` campaign is incomplete — the daemon died (or drained)
//! while it was queued or running — and is re-admitted on boot. A record
//! for an id that was never admitted is corruption: `A` is fsync'd first.

use crate::protocol::CampaignSpec;
use asdex_env::recordlog::{
    f64_from_hex, field_safe, fnv1a, hex_f64, hex_u64, split_record, u64_from_hex, unparseable,
    DiskFault, LogFormat, RecordError, RecordLog,
};
use asdex_env::JournalMeta;
use std::collections::BTreeMap;
use std::path::Path;

static MANIFEST: LogFormat = LogFormat { name: "manifest", header: "asdex-manifest v1" };

/// File name of the manifest inside a journal directory.
pub const MANIFEST_FILE_NAME: &str = "manifest.log";

/// Why a manifest could not be opened or appended to.
pub type ManifestError = RecordError;

/// The terminal line of one campaign's lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct TerminalRecord {
    /// Terminal status label: `completed`, `interrupted`, or `failed`.
    pub status: String,
    /// Whether a fully feasible point was found (completed runs).
    pub success: bool,
    /// Simulator invocations spent.
    pub simulations: usize,
    /// Best value found (completed runs; 0.0 otherwise).
    pub best_value: f64,
    /// FNV-1a 64 digest of the bitwise outcome JSON (completed runs).
    pub digest: u64,
    /// The error message (failed runs), whitespace-sanitized on disk.
    pub error: Option<String>,
}

impl TerminalRecord {
    /// A terminal record for a failed campaign.
    pub fn failed(error: &str) -> TerminalRecord {
        TerminalRecord {
            status: "failed".to_string(),
            success: false,
            simulations: 0,
            best_value: 0.0,
            digest: 0,
            error: Some(error.to_string()),
        }
    }

    /// A terminal record for an interrupted (drained) campaign.
    pub fn interrupted(simulations: usize) -> TerminalRecord {
        TerminalRecord {
            status: "interrupted".to_string(),
            success: false,
            simulations,
            best_value: 0.0,
            digest: 0,
            error: None,
        }
    }

    /// A terminal record for a completed campaign: headline numbers plus
    /// the digest of its bitwise outcome JSON.
    pub fn completed(
        success: bool,
        simulations: usize,
        best_value: f64,
        outcome_json: &str,
    ) -> TerminalRecord {
        TerminalRecord {
            status: "completed".to_string(),
            success,
            simulations,
            best_value,
            digest: fnv1a(outcome_json),
            error: None,
        }
    }

    /// Whether this terminal state finishes the campaign for good.
    /// `interrupted` does not: the work is unfinished, so boot-time
    /// recovery re-admits it.
    pub fn is_final(&self) -> bool {
        self.status != "interrupted"
    }
}

/// Lifecycle phase of one campaign as replayed from the manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestPhase {
    /// Admitted but never picked up by a runner.
    Admitted,
    /// A runner had started it when the daemon died.
    Running,
    /// It reached a terminal state.
    Terminal(TerminalRecord),
}

/// One campaign's replayed manifest state.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestCampaign {
    /// The campaign id.
    pub id: String,
    /// Its full spec from the admission record.
    pub spec: CampaignSpec,
    /// The latest lifecycle phase on record.
    pub phase: ManifestPhase,
}

impl ManifestCampaign {
    /// Whether boot-time recovery should re-admit this campaign:
    /// anything that is not durably finished (`completed`/`failed`).
    pub fn needs_recovery(&self) -> bool {
        match &self.phase {
            ManifestPhase::Admitted | ManifestPhase::Running => true,
            ManifestPhase::Terminal(t) => !t.is_final(),
        }
    }
}

/// An open, append-only campaign manifest (see the module docs).
#[derive(Debug)]
pub struct Manifest {
    log: RecordLog,
}

impl Manifest {
    /// Opens (or creates) the manifest at `path` and replays it: parses
    /// every record, truncates a torn final line, and returns the open
    /// manifest plus the per-campaign states in first-admission order.
    ///
    /// # Errors
    ///
    /// * [`ManifestError::Io`] when the file cannot be read or created.
    /// * [`ManifestError::Version`] when the header is unknown.
    /// * [`ManifestError::Format`] when an interior line is corrupt
    ///   (torn tails are repaired, interior corruption is not).
    pub fn open(path: &Path) -> Result<(Manifest, Vec<ManifestCampaign>), ManifestError> {
        let mut order: BTreeMap<String, usize> = BTreeMap::new();
        let mut campaigns: Vec<ManifestCampaign> = Vec::new();
        let valid = if path.exists() {
            RecordLog::scan(path, &MANIFEST, |_, body| {
                let record = parse_record(body).ok_or_else(|| unparseable(body))?;
                apply_record(&mut order, &mut campaigns, record)
            })?
        } else {
            0
        };
        // Nothing valid — not even the header line: the daemon died during
        // manifest creation, before any admission could have been
        // acknowledged. Start over.
        let log = if valid == 0 {
            RecordLog::create(path, &MANIFEST, "", 1)?
        } else {
            RecordLog::reopen(path, &MANIFEST, valid, 1)?
        };
        Ok((Manifest { log }, campaigns))
    }

    /// Attaches a seeded [`DiskFault`] injector to the append/fsync path
    /// (chaos testing).
    #[must_use]
    pub fn with_disk_fault(self, fault: DiskFault) -> Manifest {
        Manifest { log: self.log.with_disk_fault(fault) }
    }

    /// Where the manifest lives on disk.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Appends the admission record for `id` (write-ahead: call *before*
    /// acknowledging the admission).
    ///
    /// # Errors
    ///
    /// [`ManifestError::Storage`] when the append or fsync fails.
    pub fn append_admitted(&mut self, id: &str, spec: &CampaignSpec) -> Result<(), ManifestError> {
        let mut line = format!(
            "A id={} bench={} agent={} seed={} budget={} corners={} checkpoint_every={} solver={}",
            field_safe(id),
            field_safe(&spec.bench),
            field_safe(&spec.agent),
            spec.seed,
            spec.budget,
            field_safe(&spec.corners),
            spec.checkpoint_every,
            field_safe(&spec.solver),
        );
        // The netlist digest is part of the campaign identity: recovery
        // re-admits from this record alone, and the re-run must refuse a
        // deck edited since admission.
        if let Some(digest) = spec.netlist_digest {
            line.push_str(&format!(" netlist_digest={}", hex_u64(digest)));
        }
        line.push('\n');
        self.log.append(&line)
    }

    /// Appends the running transition for `id`.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Storage`] when the append or fsync fails.
    pub fn append_running(&mut self, id: &str) -> Result<(), ManifestError> {
        self.log.append(&format!("R id={}\n", field_safe(id)))
    }

    /// Appends the terminal transition for `id`.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Storage`] when the append or fsync fails.
    pub fn append_terminal(
        &mut self,
        id: &str,
        terminal: &TerminalRecord,
    ) -> Result<(), ManifestError> {
        debug_assert!(
            matches!(terminal.status.as_str(), "completed" | "interrupted" | "failed"),
            "not a terminal status: {}",
            terminal.status
        );
        let mut line = format!(
            "T id={} status={} ok={} sims={} v={} digest={}",
            field_safe(id),
            field_safe(&terminal.status),
            u8::from(terminal.success),
            terminal.simulations,
            hex_f64(terminal.best_value),
            hex_u64(terminal.digest),
        );
        if let Some(err) = &terminal.error {
            line.push_str(" err=");
            line.push_str(&field_safe(err));
        }
        line.push('\n');
        self.log.append(&line)
    }
}

/// One parsed manifest line.
enum Record {
    Admitted { id: String, spec: CampaignSpec },
    Running { id: String },
    Terminal { id: String, terminal: TerminalRecord },
}

fn parse_record(line: &str) -> Option<Record> {
    let (tag, fields) = split_record(line)?;
    let id = fields.get("id")?.to_string();
    match tag {
        "A" => {
            // Reuse the journal-meta round trip so manifest specs and
            // journal specs can never drift apart.
            let mut meta = JournalMeta::new();
            for (k, v) in fields.pairs() {
                if *k != "id" {
                    meta.set(k, v);
                }
            }
            let spec = CampaignSpec::from_meta(&meta).ok()?;
            asdex_spice::analysis::SolverChoice::from_label(&spec.solver)?;
            Some(Record::Admitted { id, spec })
        }
        "R" => Some(Record::Running { id }),
        "T" => {
            let status = fields.get("status")?.to_string();
            if !matches!(status.as_str(), "completed" | "interrupted" | "failed") {
                return None;
            }
            let terminal = TerminalRecord {
                status,
                success: match fields.get("ok")? {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                },
                simulations: fields.get("sims")?.parse().ok()?,
                best_value: f64_from_hex(fields.get("v")?)?,
                digest: u64_from_hex(fields.get("digest")?)?,
                error: fields.get("err").map(str::to_string),
            };
            Some(Record::Terminal { id, terminal })
        }
        _ => None,
    }
}

/// Applies one complete record to the replay state; `Err` is the reason
/// the line is corrupt.
fn apply_record(
    order: &mut BTreeMap<String, usize>,
    campaigns: &mut Vec<ManifestCampaign>,
    record: Record,
) -> Result<(), String> {
    let (id, phase) = match record {
        Record::Admitted { id, spec } => {
            match order.get(&id) {
                // Re-admission (a resumed terminal id): reset the phase.
                Some(&idx) => {
                    campaigns[idx].spec = spec;
                    campaigns[idx].phase = ManifestPhase::Admitted;
                }
                None => {
                    order.insert(id.clone(), campaigns.len());
                    campaigns.push(ManifestCampaign { id, spec, phase: ManifestPhase::Admitted });
                }
            }
            return Ok(());
        }
        Record::Running { id } => (id, ManifestPhase::Running),
        Record::Terminal { id, terminal } => (id, ManifestPhase::Terminal(terminal)),
    };
    // `A` is fsync'd before `R`/`T` can exist; an orphan is interior
    // corruption, not a torn write.
    let Some(&idx) = order.get(&id) else {
        let kind = if phase == ManifestPhase::Running { "running" } else { "terminal" };
        return Err(format!("{kind} record for unadmitted campaign `{id}`"));
    };
    campaigns[idx].phase = phase;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdex_env::DiskFaultKind;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("asdex-manifest-test-{}-{name}.log", std::process::id()))
    }

    fn spec(seed: u64) -> CampaignSpec {
        CampaignSpec { seed, budget: 400, ..CampaignSpec::default() }
    }

    fn netlist_spec() -> CampaignSpec {
        CampaignSpec {
            bench: "netlist:decks/x.sp".to_string(),
            corners: "signoff5".to_string(),
            netlist_digest: Some(0xaf63dc4c8601ec8c),
            ..CampaignSpec::default()
        }
    }

    /// Pinned bytes: manifests already on disk hold exactly this format,
    /// so a change here would stop a daemon from recovering them.
    const GOLDEN: &str = "asdex-manifest v1\n\
        A id=c1 bench=bowl3 agent=trm seed=7 budget=400 corners=nominal checkpoint_every=25 \
        solver=auto\n\
        A id=c2 bench=netlist:decks/x.sp agent=trm seed=1 budget=10000 corners=signoff5 \
        checkpoint_every=25 solver=auto netlist_digest=af63dc4c8601ec8c\n\
        A id=c3 bench=bowl3 agent=trm seed=7 budget=400 corners=nominal checkpoint_every=25 \
        solver=auto\n\
        R id=c1\n\
        T id=c1 status=completed ok=1 sims=412 v=bfc0000000000000 digest=3e7f9dfdbb7239c6\n\
        R id=c2\n\
        T id=c2 status=failed ok=0 sims=0 v=0000000000000000 digest=0000000000000000 \
        err=unknown_agent_`dqn`\n\
        T id=c3 status=interrupted ok=0 sims=99 v=0000000000000000 digest=0000000000000000\n";

    #[test]
    fn bytes_match_the_golden_file_and_the_golden_file_replays() {
        let path = tmp_path("golden");
        std::fs::remove_file(&path).ok();
        let completed = TerminalRecord::completed(true, 412, -0.125, r#"{"success":true}"#);
        let (mut m, _) = Manifest::open(&path).unwrap();
        m.append_admitted("c1", &spec(7)).unwrap();
        m.append_admitted("c2", &netlist_spec()).unwrap();
        m.append_admitted("c3", &spec(7)).unwrap();
        m.append_running("c1").unwrap();
        m.append_terminal("c1", &completed).unwrap();
        m.append_running("c2").unwrap();
        m.append_terminal("c2", &TerminalRecord::failed("unknown agent `dqn`")).unwrap();
        m.append_terminal("c3", &TerminalRecord::interrupted(99)).unwrap();
        drop(m);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), GOLDEN);

        std::fs::write(&path, GOLDEN).unwrap();
        let (_, replayed) = Manifest::open(&path).unwrap();
        let ids: Vec<&str> = replayed.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["c1", "c2", "c3"]);
        assert_eq!(replayed[0].spec, spec(7));
        assert_eq!(replayed[0].phase, ManifestPhase::Terminal(completed));
        assert_eq!(replayed[1].spec, netlist_spec());
        let failed = TerminalRecord::failed("unknown_agent_`dqn`");
        assert_eq!(replayed[1].phase, ManifestPhase::Terminal(failed), "error sanitized");
        assert_eq!(replayed[2].phase, ManifestPhase::Terminal(TerminalRecord::interrupted(99)));
        let recover: Vec<bool> = replayed.iter().map(ManifestCampaign::needs_recovery).collect();
        assert_eq!(recover, [false, false, true], "completed/failed are final, interrupted is not");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lifecycle_round_trips_through_replay() {
        let path = tmp_path("lifecycle");
        std::fs::remove_file(&path).ok();
        let (mut m, replayed) = Manifest::open(&path).unwrap();
        assert!(replayed.is_empty());
        m.append_admitted("c1", &spec(1)).unwrap();
        m.append_admitted("c2", &spec(2)).unwrap();
        m.append_admitted("c3", &spec(3)).unwrap();
        m.append_running("c1").unwrap();
        m.append_running("c3").unwrap();
        let t = TerminalRecord::completed(true, 412, -0.0, r#"{"success":true}"#);
        m.append_terminal("c1", &t).unwrap();
        drop(m);

        let (mut m, replayed) = Manifest::open(&path).unwrap();
        assert_eq!(replayed.len(), 3);
        match &replayed[0].phase {
            ManifestPhase::Terminal(got) => {
                assert_eq!(*got, t);
                assert_eq!(got.best_value.to_bits(), (-0.0f64).to_bits(), "bitwise value");
            }
            other => panic!("expected terminal, got {other:?}"),
        }
        assert!(!replayed[0].needs_recovery());
        assert_eq!((replayed[1].id.as_str(), &replayed[1].phase), ("c2", &ManifestPhase::Admitted));
        assert_eq!(replayed[2].phase, ManifestPhase::Running);
        assert!(replayed[1].needs_recovery() && replayed[2].needs_recovery());

        // Re-admission (a resumed terminal id) resets the phase.
        m.append_admitted("c1", &spec(1)).unwrap();
        drop(m);
        let (_, replayed) = Manifest::open(&path).unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[0].phase, ManifestPhase::Admitted);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn orphan_and_fused_records_are_typed_corruption() {
        let path = tmp_path("interior");
        std::fs::remove_file(&path).ok();
        let (mut m, _) = Manifest::open(&path).unwrap();
        m.append_admitted("c1", &spec(1)).unwrap();
        m.append_running("c1").unwrap();
        drop(m);
        let clean = std::fs::read_to_string(&path).unwrap();

        // Two records fused by a lost newline.
        let r_at = clean.find("R ").unwrap();
        let fused = format!("{}{}", &clean[..r_at - 1], &clean[r_at..]);
        std::fs::write(&path, &fused).unwrap();
        match Manifest::open(&path) {
            Err(ManifestError::Format { line: 2, .. }) => {}
            other => panic!("fused lines must be typed corruption, got {other:?}"),
        }

        // A lifecycle record for a campaign that was never admitted.
        for orphan in [
            "R id=ghost",
            "T id=ghost status=interrupted ok=0 sims=0 v=0000000000000000 \
                        digest=0000000000000000",
        ] {
            std::fs::write(&path, format!("{}\n{orphan}\n", MANIFEST.header)).unwrap();
            match Manifest::open(&path) {
                Err(err @ ManifestError::Format { line: 2, .. }) => {
                    assert!(err.to_string().contains("unadmitted campaign `ghost`"), "{err}");
                }
                other => panic!("expected Format at line 2, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_restarts_the_manifest() {
        let path = tmp_path("torn-header");
        // The daemon died mid-creation: no admission can have been
        // acknowledged, so an unterminated header restarts cleanly.
        std::fs::write(&path, "asdex-mani").unwrap();
        let (mut m, replayed) = Manifest::open(&path).unwrap();
        assert!(replayed.is_empty());
        m.append_admitted("c1", &spec(1)).unwrap();
        drop(m);
        let (_, replayed) = Manifest::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_append_is_fsynced_before_it_returns() {
        let path = tmp_path("fsync");
        std::fs::remove_file(&path).ok();
        let (m, _) = Manifest::open(&path).unwrap();
        let mut m = m.with_disk_fault(DiskFault::new(DiskFaultKind::FsyncError, 1.0, 9));
        // Each append's own fsync fails: the write landed, durability did
        // not, and the caller hears about it before acting.
        for id in ["c1", "c2"] {
            let err = m.append_admitted(id, &spec(1)).unwrap_err();
            assert!(matches!(err, ManifestError::Storage { op: "fsync", .. }), "got {err}");
            assert!(err.to_string().starts_with("manifest storage error during fsync"), "{err}");
        }
        drop(m);
        let (_, replayed) = Manifest::open(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}

//! The wire protocol: campaign specs in, outcomes out.
//!
//! The outcome serializer is shared by the daemon and the CLI's `--json`
//! mode, and it is **bitwise-comparable**: every float is emitted both as
//! a JSON number (for humans and dashboards) and as a 16-hex-digit
//! IEEE-754 bit pattern (`*_bits` fields). Two outcomes serialize to the
//! same string if and only if they are bitwise identical — string
//! equality on the JSON is the determinism check the serving tests and
//! the repo's thread-invariance contract rely on.

use crate::json::Json;
use asdex_env::recordlog::{hex_f64, hex_u64, u64_from_hex};
use asdex_env::{EvalStats, FailureKind, HealthStats, JournalMeta};

/// Identity and budget of one campaign — everything that must match
/// between the run that writes a journal and the run that resumes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Benchmark name (`opamp45`, `opamp22`, `ldo`, `ico`, `bowl<dim>`).
    pub bench: String,
    /// Agent name (`trm`, `bo`, `random`).
    pub agent: String,
    /// Seed for every stochastic choice.
    pub seed: u64,
    /// Simulation budget.
    pub budget: usize,
    /// Corner-set name (`nominal`, `signoff5`).
    pub corners: String,
    /// Journal fsync cadence.
    pub checkpoint_every: usize,
    /// Linear-solver backend (`auto`, `dense`, `sparse`). Part of the
    /// campaign's identity: each backend is individually deterministic,
    /// but they agree only within solver tolerance, so a resumed campaign
    /// must re-run on the backend that wrote the journal.
    pub solver: String,
    /// Inline netlist deck source (`POST /campaigns` body field
    /// `netlist`). Mutually exclusive with `bench`; the scheduler
    /// compiles it at admission, persists it content-addressed under the
    /// journal directory, and rewrites `bench` to `netlist:<path>` — so
    /// the inline source never reaches a journal or the manifest.
    pub netlist: Option<String>,
    /// FNV-1a 64 digest of the netlist source for `netlist:<path>`
    /// benches. Part of the campaign's identity: resume and worker
    /// processes re-compile the deck and refuse to run if the file no
    /// longer hashes to this value.
    pub netlist_digest: Option<u64>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            bench: "bowl3".to_string(),
            agent: "trm".to_string(),
            seed: 1,
            budget: 10_000,
            corners: "nominal".to_string(),
            checkpoint_every: 25,
            solver: "auto".to_string(),
            netlist: None,
            netlist_digest: None,
        }
    }
}

impl CampaignSpec {
    /// Parses a submission body. Unknown fields are ignored; missing
    /// fields take their defaults. Returns the spec plus the optional
    /// client-chosen campaign id.
    pub fn from_json(body: &Json) -> Result<(Option<String>, CampaignSpec), String> {
        if !matches!(body, Json::Obj(_)) {
            return Err("request body must be a JSON object".to_string());
        }
        let mut spec = CampaignSpec::default();
        let id = match body.get("id") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .filter(|s| !s.is_empty() && s.len() <= 64 && is_safe_id(s))
                    .ok_or("`id` must be a short string of [A-Za-z0-9._-]")?
                    .to_string(),
            ),
        };
        let take_str = |key: &str, into: &mut String| -> Result<(), String> {
            if let Some(v) = body.get(key) {
                *into = v.as_str().ok_or(format!("`{key}` must be a string"))?.to_string();
            }
            Ok(())
        };
        take_str("bench", &mut spec.bench)?;
        take_str("agent", &mut spec.agent)?;
        take_str("corners", &mut spec.corners)?;
        take_str("solver", &mut spec.solver)?;
        if let Some(v) = body.get("netlist") {
            if body.get("bench").is_some() {
                return Err("`netlist` and `bench` are mutually exclusive".to_string());
            }
            let source = v.as_str().ok_or("`netlist` must be a string")?;
            if source.trim().is_empty() {
                return Err("`netlist` must be a non-empty deck".to_string());
            }
            spec.netlist = Some(source.to_string());
        }
        if asdex_spice::analysis::SolverChoice::from_label(&spec.solver).is_none() {
            return Err("`solver` must be one of auto, dense, sparse".to_string());
        }
        if let Some(v) = body.get("seed") {
            spec.seed = v.as_u64().ok_or("`seed` must be a non-negative integer")?;
        }
        if let Some(v) = body.get("budget") {
            spec.budget =
                v.as_u64().filter(|b| *b > 0).ok_or("`budget` must be a positive integer")?
                    as usize;
        }
        if let Some(v) = body.get("checkpoint_every") {
            spec.checkpoint_every = v
                .as_u64()
                .filter(|c| *c > 0)
                .ok_or("`checkpoint_every` must be a positive integer")?
                as usize;
        }
        Ok((id, spec))
    }

    /// The spec as a JSON object (echoed in status responses, posted by
    /// the client). A not-yet-admitted inline deck is emitted as
    /// `netlist` *instead of* `bench` — the two are mutually exclusive on
    /// the wire. Admitted specs always have `netlist: None` (the
    /// scheduler consumed the source), so status responses echo only the
    /// rewritten `netlist:<path>` bench plus the digest, never the deck.
    pub fn to_json(&self) -> Json {
        let mut json = match &self.netlist {
            Some(source) => Json::obj().with("netlist", Json::Str(source.clone())),
            None => Json::obj().with("bench", Json::Str(self.bench.clone())),
        };
        json = json
            .with("agent", Json::Str(self.agent.clone()))
            .with("seed", Json::Num(self.seed as f64))
            .with("budget", Json::Num(self.budget as f64))
            .with("corners", Json::Str(self.corners.clone()))
            .with("checkpoint_every", Json::Num(self.checkpoint_every as f64))
            .with("solver", Json::Str(self.solver.clone()));
        if let Some(digest) = self.netlist_digest {
            json = json.with("netlist_digest", Json::Str(hex_u64(digest)));
        }
        json
    }

    /// The spec as journal metadata — the same keys the CLI writes, so
    /// daemon journals and `asdex size --journal` journals are mutually
    /// resumable.
    pub fn to_meta(&self) -> JournalMeta {
        let meta = JournalMeta::new()
            .with("bench", &self.bench)
            .with("agent", &self.agent)
            .with("seed", &self.seed.to_string())
            .with("budget", &self.budget.to_string())
            .with("corners", &self.corners)
            .with("checkpoint_every", &self.checkpoint_every.to_string())
            .with("solver", &self.solver);
        match self.netlist_digest {
            Some(digest) => meta.with("netlist_digest", &hex_u64(digest)),
            None => meta,
        }
    }

    /// Restores a spec from journal metadata.
    pub fn from_meta(meta: &JournalMeta) -> Result<CampaignSpec, String> {
        let get = |key: &str| {
            meta.get(key)
                .map(str::to_string)
                .ok_or_else(|| format!("journal metadata is missing `{key}`"))
        };
        fn num<T: std::str::FromStr>(key: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("journal metadata `{key}={v}` is not a number"))
        }
        Ok(CampaignSpec {
            bench: get("bench")?,
            agent: get("agent")?,
            seed: num("seed", get("seed")?)?,
            budget: num("budget", get("budget")?)?,
            corners: get("corners")?,
            checkpoint_every: num("checkpoint_every", get("checkpoint_every")?).unwrap_or(25),
            // Journals written before the solver field existed ran on the
            // then-only dense-shaped auto path; auto preserves them.
            solver: meta.get("solver").unwrap_or("auto").to_string(),
            // The inline source never reaches a journal; only the
            // admission-rewritten `netlist:<path>` bench + digest do.
            netlist: None,
            netlist_digest: match meta.get("netlist_digest") {
                None => None,
                Some(hex) => Some(u64_from_hex(hex).ok_or_else(|| {
                    format!("journal metadata `netlist_digest={hex}` is not a 16-hex digest")
                })?),
            },
        })
    }
}

fn is_safe_id(s: &str) -> bool {
    s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Serializes evaluation telemetry. Field order is fixed.
pub fn stats_json(stats: &EvalStats) -> Json {
    let mut failures = Json::obj();
    for kind in FailureKind::ALL {
        failures = failures.with(kind.label(), Json::Num(stats.failures_of(kind) as f64));
    }
    Json::obj()
        .with("sims", Json::Num(stats.sims as f64))
        .with("retries", Json::Num(stats.retries as f64))
        .with("recoveries", Json::Num(stats.recoveries as f64))
        .with("snap_fallbacks", Json::Num(stats.snap_fallbacks as f64))
        .with("journal_drops", Json::Num(stats.journal_drops as f64))
        .with("total_failures", Json::Num(stats.total_failures() as f64))
        .with("failures", failures)
}

/// Serializes self-healing telemetry. Field order is fixed.
pub fn health_json(health: &HealthStats) -> Json {
    Json::obj()
        .with("rollbacks", Json::Num(health.rollbacks as f64))
        .with("clipped_updates", Json::Num(health.clipped_updates as f64))
        .with("nonfinite_updates", Json::Num(health.nonfinite_updates as f64))
        .with("tr_reseeds", Json::Num(health.tr_reseeds as f64))
        .with("surrogate_fallbacks", Json::Num(health.surrogate_fallbacks as f64))
        .with("total", Json::Num(health.total() as f64))
}

/// Serializes one finished campaign. Includes every float twice — as a
/// number and as hex bits — so JSON string equality ⇔ bitwise outcome
/// equality.
pub fn outcome_json(outcome: &crate::campaign::CampaignOutcome) -> Json {
    Json::obj()
        .with("success", Json::Bool(outcome.success))
        .with("simulations", Json::Num(outcome.simulations as f64))
        .with("best_value", Json::Num(outcome.best_value))
        .with("best_value_bits", Json::Str(hex_f64(outcome.best_value)))
        .with("best_point", Json::Arr(outcome.best_point.iter().map(|&x| Json::Num(x)).collect()))
        .with(
            "best_point_bits",
            Json::Arr(outcome.best_point.iter().map(|&x| Json::Str(hex_f64(x))).collect()),
        )
        .with(
            "best_physical",
            Json::Arr(outcome.best_physical.iter().map(|&x| Json::Num(x)).collect()),
        )
        .with(
            "best_physical_bits",
            Json::Arr(outcome.best_physical.iter().map(|&x| Json::Str(hex_f64(x))).collect()),
        )
        .with("stats", stats_json(&outcome.stats))
        .with("health", health_json(&outcome.health))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignOutcome;

    #[test]
    fn spec_round_trips_through_json_and_meta() {
        let body = Json::parse(
            r#"{"id":"c-7","bench":"opamp45","agent":"bo","seed":9,"budget":500,"corners":"signoff5","checkpoint_every":10}"#,
        )
        .unwrap();
        let (id, spec) = CampaignSpec::from_json(&body).unwrap();
        assert_eq!(id.as_deref(), Some("c-7"));
        assert_eq!(spec.bench, "opamp45");
        assert_eq!(spec.agent, "bo");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.budget, 500);
        let restored = CampaignSpec::from_meta(&spec.to_meta()).unwrap();
        assert_eq!(restored, spec);
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let (id, spec) = CampaignSpec::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert!(id.is_none());
        assert_eq!(spec, CampaignSpec::default());
    }

    #[test]
    fn solver_field_is_validated_and_round_trips() {
        let (_, spec) =
            CampaignSpec::from_json(&Json::parse(r#"{"solver":"sparse"}"#).unwrap()).unwrap();
        assert_eq!(spec.solver, "sparse");
        assert_eq!(CampaignSpec::from_meta(&spec.to_meta()).unwrap().solver, "sparse");
        let bad = Json::obj().with("solver", Json::Str("qr".to_string()));
        assert!(CampaignSpec::from_json(&bad).is_err(), "unknown solver accepted");
        // Journals written before the field existed resume as auto.
        let legacy = JournalMeta::new()
            .with("bench", "bowl3")
            .with("agent", "trm")
            .with("seed", "1")
            .with("budget", "100")
            .with("corners", "nominal")
            .with("checkpoint_every", "25");
        assert_eq!(CampaignSpec::from_meta(&legacy).unwrap().solver, "auto");
    }

    #[test]
    fn netlist_fields_parse_and_round_trip_through_meta() {
        // Inline source is accepted alone, rejected next to `bench`.
        let (_, spec) = CampaignSpec::from_json(
            &Json::obj().with("netlist", Json::Str("title\n.end\n".to_string())),
        )
        .unwrap();
        assert_eq!(spec.netlist.as_deref(), Some("title\n.end\n"));
        let both = Json::obj()
            .with("netlist", Json::Str("title\n.end\n".to_string()))
            .with("bench", Json::Str("bowl2".to_string()));
        assert!(CampaignSpec::from_json(&both).is_err(), "bench+netlist accepted");
        let empty = Json::obj().with("netlist", Json::Str("  \n".to_string()));
        assert!(CampaignSpec::from_json(&empty).is_err(), "blank netlist accepted");

        // The digest round-trips through journal metadata as 16-hex; the
        // inline source never does.
        let spec = CampaignSpec {
            bench: "netlist:decks/x.sp".to_string(),
            netlist: Some("never journaled".to_string()),
            netlist_digest: Some(0xaf63dc4c8601ec8c),
            ..CampaignSpec::default()
        };
        let restored = CampaignSpec::from_meta(&spec.to_meta()).unwrap();
        assert_eq!(restored.netlist_digest, Some(0xaf63dc4c8601ec8c));
        assert_eq!(restored.netlist, None);
        assert_eq!(restored.bench, "netlist:decks/x.sp");
        assert!(spec.to_json().dump().contains("af63dc4c8601ec8c"));
        // An unsubmitted inline spec posts `netlist` in place of `bench`
        // (they are mutually exclusive on the wire), so a client-side
        // to_json round-trips through the server's from_json.
        let body = spec.to_json();
        assert!(body.get("bench").is_none());
        let (_, reparsed) = CampaignSpec::from_json(&body).unwrap();
        assert_eq!(reparsed.netlist.as_deref(), Some("never journaled"));
        // A mangled digest in the metadata is a typed error.
        let bad = spec.to_meta().with("netlist_digest", "xyz");
        assert!(CampaignSpec::from_meta(&bad).is_err());
    }

    #[test]
    fn digests_parse_only_in_the_form_every_writer_emits() {
        use crate::manifest::{Manifest, ManifestError};
        use crate::worker::Handshake;
        // A bare radix-16 parse accepts a sign, short forms, and 17
        // digits; every digest reader must take exactly `{:016x}`.
        let netlist =
            CampaignSpec { bench: "netlist:decks/x.sp".into(), ..CampaignSpec::default() };
        let path =
            std::env::temp_dir().join(format!("asdex-protocol-digest-{}.log", std::process::id()));
        let admitted = "A id=c1 bench=bowl3 agent=trm seed=7 budget=400 corners=nominal \
                        checkpoint_every=25 solver=auto";
        for (digest, canonical) in [
            ("af63dc4c8601ec8c", true),
            ("0000000000000000", true),
            ("+af63dc4c8601ec8c", false),
            ("+0", false),
            ("0", false),
            ("1", false),
            ("0af63dc4c8601ec8c", false),
            ("AF63DC4C8601EC8C", false),
        ] {
            let meta = netlist.to_meta().with("netlist_digest", digest);
            assert_eq!(CampaignSpec::from_meta(&meta).is_ok(), canonical, "meta {digest:?}");
            let hello = format!("H proto=1 bench=b corners=c n=1 digest={digest}");
            assert_eq!(Handshake::parse(&hello).is_some(), canonical, "handshake {digest:?}");
            for terminal in [
                format!("T id=c1 status=completed ok=1 sims=1 v={digest} digest=0000000000000000"),
                format!("T id=c1 status=completed ok=1 sims=1 v=0000000000000000 digest={digest}"),
            ] {
                std::fs::write(&path, format!("asdex-manifest v1\n{admitted}\n{terminal}\n"))
                    .unwrap();
                match Manifest::open(&path) {
                    Ok(_) if canonical => {}
                    Err(ManifestError::Format { line: 3, .. }) if !canonical => {}
                    other => panic!("{terminal}: got {other:?}"),
                }
            }
        }
        std::fs::write(
            &path,
            format!("asdex-manifest v1\n{admitted}\nT id=c1 status=completed ok=1 sims=1 v=+0 digest=0\n"),
        )
        .unwrap();
        assert!(matches!(Manifest::open(&path), Err(ManifestError::Format { line: 3, .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_ids_are_rejected() {
        for bad in ["../etc/passwd", "a/b", "", "x y"] {
            let body = Json::obj().with("id", Json::Str(bad.to_string()));
            assert!(CampaignSpec::from_json(&body).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn outcome_json_is_bitwise_faithful() {
        let outcome = CampaignOutcome {
            success: true,
            simulations: 123,
            best_point: vec![0.1, 1.0 / 3.0],
            best_physical: vec![1e-6, 2.5e-6],
            best_value: -0.0,
            stats: EvalStats::new(),
            health: HealthStats::new(),
        };
        let a = outcome_json(&outcome).dump();
        let b = outcome_json(&outcome.clone()).dump();
        assert_eq!(a, b);
        assert!(a.contains(&hex_f64(1.0 / 3.0)));
        assert!(a.contains(&hex_f64(-0.0)));

        let mut tweaked = outcome;
        tweaked.best_value = 0.0; // same ==, different bits than -0.0
        assert_ne!(outcome_json(&tweaked).dump(), a, "bit difference must show in the string");
    }
}

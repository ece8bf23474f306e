//! The sandboxed evaluation-worker side of the process-isolation layer.
//!
//! A worker is a child process running [`run_worker`] (the CLI's
//! `asdex worker` subcommand): it builds one benchmark problem, arms the
//! process-level fault modes (so injected aborts/hangs/kills take down
//! *this* process, never the daemon), and then serves single evaluator
//! attempts over a length-prefixed stdio protocol until its supervisor
//! closes the pipe or sends a shutdown frame.
//!
//! # Wire protocol (version 1)
//!
//! Every frame is a 4-byte big-endian payload length followed by a UTF-8
//! text record in the [`asdex_env::recordlog`] codec — a tag, then
//! `key=value` fields, floats and digests as 16-hex-digit bit patterns
//! (bitwise-exact round trips). Unknown keys are ignored:
//!
//! ```text
//! worker → supervisor   H proto=1 bench=bowl3 corners=nominal n=1   (handshake)
//! supervisor → worker   A a=0 c=2 d=10000 x=3fe0...,3fd5...         (attempt)
//! worker → supervisor   R t=812 m=4010...,c008...                   (measurements)
//! worker → supervisor   F t=313 k=no-convergence                    (typed failure)
//! supervisor → worker   P          worker → supervisor   O          (heartbeat)
//! supervisor → worker   Q                                           (shutdown)
//! ```
//!
//! `a` is the retry-ladder rung, `c` the corner index, `d` the
//! supervisor's wall deadline for this attempt in milliseconds (derived
//! from `asdex_spice::SolveBudget::wall_allowance`, purely informational
//! to the worker), `t` the worker-side solve time in microseconds. The
//! supervisor validates the handshake's protocol version, benchmark, and
//! corner set before dispatching anything, so a version or configuration
//! skew is a typed spawn failure, not silent corruption.

use crate::campaign::problem_for;
use crate::protocol::CampaignSpec;
use asdex_env::recordlog::{f64_list_from_hex, hex_f64_list, hex_u64, split_record, u64_from_hex};
use asdex_env::{
    arm_process_faults, run_attempt, FailureKind, FaultConfig, FaultInjectingEvaluator, FaultMode,
};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Instant;

/// Protocol version spoken by [`run_worker`]; bumped on any frame-format
/// change so a mixed-version daemon/worker pair fails the handshake
/// instead of misparsing frames.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame payload. Large enough for any measurement
/// vector by orders of magnitude; small enough that a corrupt length
/// prefix cannot make the reader allocate unboundedly.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Writes one length-prefixed frame and flushes it (a worker reply must
/// never sit in a buffer while the supervisor's deadline runs).
///
/// # Errors
///
/// [`std::io::Error`] when the peer is gone (EPIPE) or the payload
/// exceeds [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap", bytes.len()),
        ));
    }
    let len = bytes.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one length-prefixed frame. An EOF at a frame boundary is
/// surfaced as [`std::io::ErrorKind::UnexpectedEof`] — the reader thread
/// in the supervisor treats that as worker death.
///
/// # Errors
///
/// [`std::io::Error`] on EOF, a length prefix beyond
/// [`MAX_FRAME_BYTES`], or a non-UTF-8 payload.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<String> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 frame"))
}

/// The handshake frame a worker announces itself with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handshake {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub proto: u32,
    /// Benchmark the worker was built for.
    pub bench: String,
    /// Corner-set name the worker was built for.
    pub corners: String,
    /// Measurement-vector length the worker's evaluator produces.
    pub n_meas: usize,
    /// Netlist source digest the worker validated its deck against
    /// (`netlist:<path>` benches only). The supervisor requires this to
    /// equal its own expected digest, so a worker that compiled a
    /// different deck revision is a typed spawn failure.
    pub netlist_digest: Option<u64>,
}

impl Handshake {
    /// The `H …` frame payload.
    pub fn to_frame(&self) -> String {
        let mut frame = format!(
            "H proto={} bench={} corners={} n={}",
            self.proto, self.bench, self.corners, self.n_meas
        );
        if let Some(digest) = self.netlist_digest {
            frame.push_str(&format!(" digest={}", hex_u64(digest)));
        }
        frame
    }

    /// Parses an `H …` frame payload.
    pub fn parse(payload: &str) -> Option<Handshake> {
        let ("H", f) = split_record(payload)? else { return None };
        Some(Handshake {
            proto: f.get("proto")?.parse().ok()?,
            bench: f.get("bench")?.to_string(),
            corners: f.get("corners")?.to_string(),
            n_meas: f.get("n")?.parse().ok()?,
            netlist_digest: match f.get("digest") {
                Some(hex) => Some(u64_from_hex(hex)?),
                None => None,
            },
        })
    }
}

/// One attempt request, supervisor → worker.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRequest {
    /// Retry-ladder rung (0 = first try).
    pub attempt: usize,
    /// Corner index into the benchmark's corner set.
    pub corner_idx: usize,
    /// Supervisor wall deadline for this attempt, in milliseconds.
    pub deadline_ms: u64,
    /// Physical parameter vector.
    pub x_phys: Vec<f64>,
}

impl AttemptRequest {
    /// The `A …` frame payload.
    pub fn to_frame(&self) -> String {
        format!(
            "A a={} c={} d={} x={}",
            self.attempt,
            self.corner_idx,
            self.deadline_ms,
            hex_f64_list(&self.x_phys)
        )
    }

    /// Parses an `A …` frame payload.
    pub fn parse(payload: &str) -> Option<AttemptRequest> {
        let ("A", f) = split_record(payload)? else { return None };
        Some(AttemptRequest {
            attempt: f.get("a")?.parse().ok()?,
            corner_idx: f.get("c")?.parse().ok()?,
            deadline_ms: f.get("d")?.parse().ok()?,
            x_phys: f64_list_from_hex(f.get("x")?)?,
        })
    }
}

/// One attempt reply, worker → supervisor: measurements or a typed
/// failure, plus the worker-side solve time in microseconds (fed into the
/// supervisor's attempt-latency histogram).
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptReply {
    /// The attempt outcome in the shared failure taxonomy.
    pub result: Result<Vec<f64>, FailureKind>,
    /// Worker-side solve time, microseconds.
    pub elapsed_us: u64,
}

impl AttemptReply {
    /// The `R …`/`F …` frame payload.
    pub fn to_frame(&self) -> String {
        match &self.result {
            Ok(meas) => format!("R t={} m={}", self.elapsed_us, hex_f64_list(meas)),
            Err(kind) => format!("F t={} k={}", self.elapsed_us, kind.label()),
        }
    }

    /// Parses an `R …`/`F …` frame payload.
    pub fn parse(payload: &str) -> Option<AttemptReply> {
        let (tag, f) = split_record(payload)?;
        let result = match tag {
            "R" => Ok(f64_list_from_hex(f.get("m")?)?),
            "F" => Err(FailureKind::from_label(f.get("k")?)?),
            _ => return None,
        };
        Some(AttemptReply { result, elapsed_us: f.get("t")?.parse().ok()? })
    }
}

/// Configuration of one worker process, parsed from the `asdex worker`
/// CLI flags by the binary and handed to [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Benchmark name (`build_problem` vocabulary).
    pub bench: String,
    /// Corner-set name (`build_problem` vocabulary).
    pub corners: String,
    /// Linear-solver backend label (`auto`, `dense`, `sparse`). Forwarded
    /// from the campaign spec so every worker factors with the same
    /// backend the campaign recorded.
    pub solver: String,
    /// Expected netlist source digest for `netlist:<path>` benches
    /// (`--netlist-digest`, 16-hex). The worker re-compiles the deck and
    /// refuses to serve if the file no longer hashes to this value.
    pub netlist_digest: Option<u64>,
    /// Deterministic fault plan for chaos testing: `(rate, seed, mode)`;
    /// `mode = None` uses the default mix. Applied by wrapping the
    /// benchmark evaluator in a [`FaultInjectingEvaluator`], exactly as an
    /// in-process chaos run would.
    pub fault: Option<(f64, u64, Option<FaultMode>)>,
}

/// Runs the worker loop over `input`/`output` until EOF or a shutdown
/// frame. Split from the stdio binding so tests can drive a worker over
/// in-memory pipes.
///
/// # Errors
///
/// A human-readable message when the benchmark cannot be built or the
/// handshake cannot be written; protocol errors mid-loop terminate the
/// loop silently (the supervisor sees EOF and types the death).
pub fn serve_worker<R: Read, W: Write>(
    cfg: &WorkerConfig,
    input: &mut R,
    output: &mut W,
) -> Result<(), String> {
    let mut problem = problem_for(&CampaignSpec {
        bench: cfg.bench.clone(),
        corners: cfg.corners.clone(),
        solver: cfg.solver.clone(),
        netlist_digest: cfg.netlist_digest,
        ..CampaignSpec::default()
    })?;
    if let Some((rate, seed, mode)) = &cfg.fault {
        let fault_cfg = match mode {
            Some(m) => FaultConfig::only(*m, *rate, *seed),
            None => FaultConfig::new(*rate, *seed),
        };
        problem.evaluator =
            Arc::new(FaultInjectingEvaluator::new(problem.evaluator.clone(), fault_cfg));
    }
    let evaluator = problem.evaluator.clone();
    let corners = problem.corners.clone();
    let hello = Handshake {
        proto: PROTOCOL_VERSION,
        bench: cfg.bench.clone(),
        corners: cfg.corners.clone(),
        n_meas: evaluator.measurement_names().len(),
        netlist_digest: cfg.netlist_digest,
    };
    write_frame(output, &hello.to_frame()).map_err(|e| format!("handshake write: {e}"))?;
    loop {
        let frame = match read_frame(input) {
            Ok(f) => f,
            // Supervisor gone (EOF) or pipe corrupt: either way this
            // worker has no one to serve.
            Err(_) => return Ok(()),
        };
        let reply = match frame.chars().next() {
            Some('P') => "O".to_string(),
            Some('Q') | None => return Ok(()),
            Some('A') => match AttemptRequest::parse(&frame) {
                Some(req) => {
                    let start = Instant::now();
                    let result = match corners.corners().get(req.corner_idx).copied() {
                        Some(corner) => {
                            run_attempt(evaluator.as_ref(), &req.x_phys, &corner, req.attempt)
                        }
                        None => Err(FailureKind::InvalidInput),
                    };
                    let elapsed_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    AttemptReply { result, elapsed_us }.to_frame()
                }
                None => AttemptReply { result: Err(FailureKind::InvalidInput), elapsed_us: 0 }
                    .to_frame(),
            },
            Some(_) => {
                // Unknown frame tag: a version-skew symptom. Reply with a
                // typed failure rather than dying, so the supervisor can
                // keep its accounting.
                AttemptReply { result: Err(FailureKind::Other), elapsed_us: 0 }.to_frame()
            }
        };
        if write_frame(output, &reply).is_err() {
            return Ok(());
        }
    }
}

/// The `asdex worker` entry point: arms process-level faults, binds the
/// loop to stdin/stdout, and serves until the supervisor disconnects.
///
/// # Errors
///
/// A human-readable message when the benchmark cannot be built.
pub fn run_worker(cfg: &WorkerConfig) -> Result<(), String> {
    // Only a sacrificial worker process ever arms these: an injected
    // worker-abort/hang/kill must take down *this* process, not a test
    // harness or the daemon.
    arm_process_faults();
    let mut stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    serve_worker(cfg, &mut stdin, &mut stdout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_match_their_golden_payloads_and_round_trip_bitwise() {
        let hello = |bench: &str, corners: &str, n_meas, netlist_digest| Handshake {
            proto: PROTOCOL_VERSION,
            bench: bench.into(),
            corners: corners.into(),
            n_meas,
            netlist_digest,
        };
        let plain = hello("bowl3", "nominal", 1, None);
        let pinned = hello("netlist:decks/x.sp", "signoff5", 5, Some(0xaf63dc4c8601ec8c));
        let req = AttemptRequest {
            attempt: 2,
            corner_idx: 4,
            deadline_ms: 10_000,
            x_phys: vec![0.1 + 0.2, -1.5e-9, f64::MIN_POSITIVE],
        };
        let ok = AttemptReply { result: Ok(vec![1.25, -0.0]), elapsed_us: 812 };
        let fail = AttemptReply { result: Err(FailureKind::NoConvergence), elapsed_us: 3 };
        // Pinned payloads: any change here is a wire-format change that
        // needs a PROTOCOL_VERSION bump.
        let h_plain = "H proto=1 bench=bowl3 corners=nominal n=1";
        let h_pinned =
            "H proto=1 bench=netlist:decks/x.sp corners=signoff5 n=5 digest=af63dc4c8601ec8c";
        let a = "A a=2 c=4 d=10000 x=3fd3333333333334,be19c511dc3a41df,0010000000000000";
        let r = "R t=812 m=3ff4000000000000,8000000000000000";
        let f = "F t=3 k=no-convergence";
        assert_eq!(
            [plain.to_frame(), pinned.to_frame(), req.to_frame(), ok.to_frame(), fail.to_frame()],
            [h_plain, h_pinned, a, r, f]
        );
        // Each payload parses back to its input, and re-encoding the parse
        // reproduces the payload, so the round trip is bitwise.
        assert_eq!(Handshake::parse(h_plain), Some(plain));
        assert_eq!(Handshake::parse(h_pinned), Some(pinned));
        let parsed = AttemptRequest::parse(a).unwrap();
        assert_eq!((parsed.to_frame(), parsed), (a.to_string(), req));
        for (payload, reply) in [(r, ok), (f, fail)] {
            let parsed = AttemptReply::parse(payload).unwrap();
            assert_eq!((parsed.to_frame(), parsed), (payload.to_string(), reply));
        }
        // Unknown keys are ignored, so a newer supervisor's extra field
        // does not break an older frame reader.
        assert_eq!(AttemptReply::parse("F t=3 k=no-convergence z=1"), AttemptReply::parse(f));
        assert_eq!(Handshake::parse("H proto=1 bench=b corners=c n=1 digest=zz"), None);
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert_eq!(AttemptRequest::parse("A a=1"), None, "missing fields");
        assert_eq!(AttemptRequest::parse("B a=1 c=0 d=1 x="), None, "wrong tag");
        assert_eq!(AttemptReply::parse("R t=1 m=abc"), None, "short hex");
        assert_eq!(AttemptReply::parse("F t=1 k=not-a-kind"), None);
        assert_eq!(Handshake::parse("H proto=x bench=b corners=c n=1"), None);
    }

    #[test]
    fn frame_io_round_trips_and_caps_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "A a=0 c=0 d=1 x=").unwrap();
        write_frame(&mut buf, "Q").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), "A a=0 c=0 d=1 x=");
        assert_eq!(read_frame(&mut cursor).unwrap(), "Q");
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof,
            "clean EOF at a frame boundary"
        );
        // A hostile length prefix is rejected before allocation.
        let hostile = [0xFFu8, 0xFF, 0xFF, 0xFF];
        assert_eq!(
            read_frame(&mut &hostile[..]).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn worker_loop_serves_attempts_over_pipes() {
        let cfg =
            WorkerConfig {
                bench: "bowl2".into(),
                corners: "nominal".into(),
                solver: "auto".into(),
                netlist_digest: None,
                fault: None,
            };
        // Scripted supervisor side: ping, one attempt, shutdown.
        let problem = crate::campaign::build_problem("bowl2", "nominal").unwrap();
        let x = problem.space.to_physical(&[0.5, 0.5]).unwrap();
        let mut input = Vec::new();
        write_frame(&mut input, "P").unwrap();
        let req =
            AttemptRequest { attempt: 0, corner_idx: 0, deadline_ms: 1_000, x_phys: x.clone() };
        write_frame(&mut input, &req.to_frame()).unwrap();
        write_frame(&mut input, "Q").unwrap();

        let mut output = Vec::new();
        serve_worker(&cfg, &mut &input[..], &mut output).unwrap();

        let mut cursor = &output[..];
        let hello = Handshake::parse(&read_frame(&mut cursor).unwrap()).unwrap();
        assert_eq!(hello.proto, PROTOCOL_VERSION);
        assert_eq!(hello.bench, "bowl2");
        assert_eq!(read_frame(&mut cursor).unwrap(), "O", "pong");
        let reply = AttemptReply::parse(&read_frame(&mut cursor).unwrap()).unwrap();
        // The reply must be bitwise what the in-process reference produces.
        let reference = asdex_env::run_attempt(
            problem.evaluator.as_ref(),
            &x,
            &problem.corners.corners()[0],
            0,
        );
        assert_eq!(reply.result, reference);
    }
}

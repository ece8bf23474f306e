//! Sizing-as-a-service for ASDEX — the production serving layer.
//!
//! This crate turns the search library into a long-running daemon:
//!
//! * [`server`] — a dependency-free HTTP/1.1 front end over
//!   `std::net::TcpListener`: `POST /campaigns`, `GET /campaigns/{id}`,
//!   `GET /healthz`, `GET /metrics`, `POST /drain`.
//! * [`reactor`] / [`conn`] — the nonblocking connection front end: one
//!   thread drives every connection as a polled state machine with
//!   bounded buffers, absolute per-phase deadlines (slow-loris and
//!   half-open peers are reaped, not accumulated), a connection cap with
//!   typed `503` + `Retry-After` shedding, and graceful drain.
//! * [`scheduler`] — bounded admission, `max_active` concurrent
//!   campaigns, fair-share division of the global evaluation-thread
//!   budget, per-campaign crash-safe journals, graceful drain.
//! * [`protocol`] — the wire format, including a **bitwise-comparable**
//!   outcome serializer (floats carried as IEEE-754 hex bits) shared
//!   with the CLI's `--json` mode.
//! * [`campaign`] — benchmark/agent vocabulary and the single campaign
//!   entry point shared by daemon and CLI.
//! * [`worker`] / [`pool`] — process-isolated evaluation: sandboxed
//!   `asdex worker` child processes speaking a length-prefixed stdio
//!   protocol, supervised by a restart-with-backoff [`pool::WorkerPool`]
//!   that types worker death as
//!   [`asdex_env::FailureKind::WorkerPanic`] instead of a daemon outage.
//! * [`client`] / [`loadgen`] — a blocking client and a load harness
//!   that records throughput/latency CSVs.
//! * [`json`] / [`http`] / [`logging`] / [`metrics`] — the std-only
//!   infrastructure underneath.
//!
//! The serving layer inherits the repo's determinism contracts wholesale:
//! a campaign run by the daemon — at any thread share, across any number
//! of drain/restart cycles — produces a `SearchOutcome` bitwise identical
//! to the same campaign run serially by the CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod client;
pub mod conn;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod lockdir;
pub mod logging;
pub mod manifest;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod reactor;
pub mod scheduler;
pub mod server;
pub mod worker;

pub use campaign::{build_problem, build_problem_checked, run_campaign, CampaignOutcome};
pub use client::{Client, ClientConfig, ClientError, ClientStats};
pub use json::Json;
pub use loadgen::{LoadReport, LoadgenConfig};
pub use lockdir::{DirLock, LockError};
pub use logging::LogLevel;
pub use manifest::{Manifest, ManifestError, ManifestPhase, TerminalRecord};
pub use metrics::{Metrics, WorkerStats};
pub use pool::{WorkerPool, WorkerPoolConfig};
pub use protocol::{outcome_json, CampaignSpec};
pub use scheduler::{CampaignStatus, RateLimit, Scheduler, SchedulerConfig, StartError, SubmitError};
pub use server::{DrainHandle, Server, ServerConfig};
pub use worker::{run_worker, WorkerConfig};

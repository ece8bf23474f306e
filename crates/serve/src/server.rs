//! The HTTP front end: routing, drain coordination, request accounting.
//!
//! Connections are served by the nonblocking [`crate::reactor`]: one
//! thread drives every connection as a polled state machine with bounded
//! buffers and per-phase deadlines — requests are single-shot
//! (`Connection: close`), so the per-connection work is one parse, one
//! route, one response. Campaign execution never happens on the reactor
//! thread; `POST /campaigns` only enqueues.
//!
//! Under overload the daemon sheds typed, never hangs: beyond the
//! connection cap arrivals get `503` + `Retry-After`; a full admission
//! queue answers `429` + `Retry-After`; per-client token buckets answer
//! `429 rate limited`; slow or half-open clients are reaped by deadline.
//!
//! ## Routes
//!
//! | Route                 | Meaning                                          |
//! |-----------------------|--------------------------------------------------|
//! | `POST /campaigns`     | submit (or resume) a campaign → `202 {"id":...}` |
//! | `GET /campaigns/{id}` | status + progress lines + outcome                |
//! | `GET /healthz`        | liveness + drain state                           |
//! | `GET /metrics`        | Prometheus-style text exposition                 |
//! | `POST /drain`         | initiate graceful shutdown                       |

use crate::http::{Request, Response};
use crate::json::Json;
use crate::logging;
use crate::metrics::Metrics;
use crate::protocol::{outcome_json, CampaignSpec};
use crate::reactor::run_reactor;
use crate::scheduler::{Scheduler, SchedulerConfig, SubmitError};
use asdex_env::recordlog::{hex_f64, hex_u64};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8650`. Port 0 picks a free port.
    pub addr: String,
    /// Per-phase connection deadline (request head, body, and response
    /// write each): slow-loris and half-open clients are reaped when it
    /// lands (`--conn-timeout`).
    pub conn_timeout: Duration,
    /// Open-connection cap; arrivals beyond it are shed with a typed
    /// `503` + `Retry-After` (`--max-conns`).
    pub max_conns: usize,
    /// Scheduler knobs.
    pub scheduler: SchedulerConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8650".to_string(),
            conn_timeout: Duration::from_secs(10),
            max_conns: 256,
            scheduler: SchedulerConfig::default(),
        }
    }
}

/// A shared flag that asks the server to drain. Clone freely; the CLI's
/// SIGINT watcher holds one, `POST /drain` flips the same one.
#[derive(Debug, Clone, Default)]
pub struct DrainHandle {
    flag: Arc<AtomicBool>,
}

impl DrainHandle {
    /// A fresh, un-pulled handle.
    pub fn new() -> Self {
        DrainHandle::default()
    }

    /// Requests a drain.
    pub fn request_drain(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_drain_requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The running daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    metrics: Arc<Metrics>,
    drain: DrainHandle,
    conn_timeout: Duration,
    max_conns: usize,
}

impl Server {
    /// Binds the listener and starts the scheduler (runner threads spawn
    /// here; the accept loop does not run until [`Server::run`]). Boot-time
    /// recovery replays on its own thread — `/readyz` answers 503 until it
    /// finishes.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and scheduler-start failures (a held
    /// journal-directory lock, a corrupt manifest); the typed
    /// [`crate::scheduler::StartError`] rides inside the I/O error.
    pub fn bind(cfg: ServerConfig, drain: DrainHandle) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(cfg.scheduler, Arc::clone(&metrics))
            .map_err(std::io::Error::other)?;
        Ok(Server {
            listener,
            scheduler,
            metrics,
            drain,
            conn_timeout: cfg.conn_timeout,
            max_conns: cfg.max_conns,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The scheduler, for in-process inspection (tests, CLI wiring).
    pub fn scheduler(&self) -> Arc<Scheduler> {
        Arc::clone(&self.scheduler)
    }

    /// Serves until a drain is requested, then drains the scheduler
    /// (checkpointing every journal) and returns. The reactor gives
    /// in-flight connections a short grace period after the drain flag
    /// flips; campaign work drains through the scheduler's own protocol.
    pub fn run(&self) -> std::io::Result<()> {
        logging::info(format!("serving on http://{}", self.local_addr()?));
        let scheduler = Arc::clone(&self.scheduler);
        let metrics = Arc::clone(&self.metrics);
        let drain = self.drain.clone();
        let result = run_reactor(
            &self.listener,
            self.max_conns,
            self.conn_timeout,
            &self.drain,
            &self.metrics,
            |request, peer| {
                let started = Instant::now();
                let (endpoint, response) = route(request, Some(peer), &scheduler, &metrics, &drain);
                match endpoint {
                    Some(idx) => metrics.observe_request(idx, started.elapsed()),
                    None => {
                        metrics.unmatched_requests.fetch_add(1, Ordering::Relaxed);
                    }
                }
                logging::debug(format!(
                    "http: {} {} {} -> {}",
                    peer, request.method, request.path, response.status
                ));
                response
            },
            || scheduler.retry_after_secs(),
        );
        logging::info("drain requested: admission stopped");
        self.scheduler.drain();
        result
    }
}

fn error_body(message: &str) -> String {
    Json::obj().with("error", Json::Str(message.to_string())).dump()
}

fn route(
    request: &Request,
    peer: Option<SocketAddr>,
    scheduler: &Scheduler,
    metrics: &Metrics,
    drain: &DrainHandle,
) -> (Option<usize>, Response) {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("POST", "/campaigns") => {
            // Rate limits are per client *address*: one greedy submitter
            // cannot starve the admission queue for everyone else.
            let client = peer.map(|p| p.ip().to_string());
            (Metrics::endpoint_index("/campaigns"), post_campaign(request, client, scheduler))
        }
        ("GET", "/healthz") => {
            let body = Json::obj()
                .with("status", Json::Str("ok".to_string()))
                .with("draining", Json::Bool(scheduler.is_draining() || drain.is_drain_requested()))
                .dump();
            (Metrics::endpoint_index("/healthz"), Response::json(200, body))
        }
        ("GET", "/readyz") => {
            // Distinct from `/healthz`: the process is *live* the moment
            // it binds, but not *ready* until boot-time recovery has
            // replayed the manifest.
            let ready = scheduler.is_ready();
            let body = Json::obj()
                .with(
                    "status",
                    Json::Str(if ready { "ready" } else { "recovering" }.to_string()),
                )
                .with(
                    "recovered",
                    Json::Num(metrics.recovered_campaigns.load(Ordering::Relaxed) as f64),
                )
                .dump();
            let status = if ready { 200 } else { 503 };
            (Metrics::endpoint_index("/readyz"), Response::json(status, body))
        }
        ("GET", "/metrics") => {
            let text = metrics.render(&scheduler.gauges());
            (Metrics::endpoint_index("/metrics"), Response::text(200, text))
        }
        ("POST", "/drain") => {
            drain.request_drain();
            let body = Json::obj().with("draining", Json::Bool(true)).dump();
            (Metrics::endpoint_index("/healthz"), Response::json(202, body))
        }
        ("GET", p) if p.starts_with("/campaigns/") => {
            let id = &p["/campaigns/".len()..];
            (Metrics::endpoint_index("/campaigns/{id}"), get_campaign(id, scheduler))
        }
        (_, "/campaigns" | "/healthz" | "/readyz" | "/metrics" | "/drain") => {
            (None, Response::json(405, error_body("method not allowed")))
        }
        _ => (None, Response::json(404, error_body("no such route"))),
    }
}

fn post_campaign(request: &Request, client: Option<String>, scheduler: &Scheduler) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(_) => return Response::json(400, error_body("body is not UTF-8")),
    };
    let body = if text.trim().is_empty() { Json::obj() } else {
        match Json::parse(text) {
            Ok(v) => v,
            Err(e) => return Response::json(400, error_body(&e.to_string())),
        }
    };
    let (id, spec) = match CampaignSpec::from_json(&body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::json(400, error_body(&e)),
    };
    match scheduler.submit_from(client.as_deref(), id, spec) {
        Ok(id) => {
            let body = Json::obj()
                .with("id", Json::Str(id))
                .with("status", Json::Str("queued".to_string()))
                .dump();
            Response::json(202, body)
        }
        // Retryable sheds carry an explicit `Retry-After` so well-behaved
        // clients back off in step with actual queue pressure instead of
        // hammering blind.
        Err(SubmitError::QueueFull) => Response::json(429, error_body("admission queue is full"))
            .with_retry_after(scheduler.retry_after_secs()),
        Err(SubmitError::RateLimited { retry_after }) => {
            Response::json(429, error_body("rate limited")).with_retry_after(retry_after)
        }
        Err(SubmitError::Draining) => Response::json(503, error_body("daemon is draining")),
        Err(SubmitError::Recovering) => {
            Response::json(503, error_body("daemon is recovering; retry shortly"))
                .with_retry_after(1)
        }
        Err(SubmitError::Conflict(id)) => {
            Response::json(409, error_body(&format!("campaign {id:?} is already in flight")))
        }
        Err(SubmitError::Invalid(msg)) => Response::json(400, error_body(&msg)),
        Err(SubmitError::Storage(msg)) => {
            Response::json(500, error_body(&format!("admission not durable: {msg}")))
        }
    }
}

fn get_campaign(id: &str, scheduler: &Scheduler) -> Response {
    let record = match scheduler.get(id) {
        Some(record) => record,
        None => return Response::json(404, error_body("no such campaign")),
    };
    let status = record.status();
    let mut body = Json::obj()
        .with("id", Json::Str(record.id.clone()))
        .with("status", Json::Str(status.label().to_string()))
        .with("spec", record.spec().to_json())
        .with(
            "progress",
            Json::Arr(record.progress_lines().into_iter().map(Json::Str).collect()),
        );
    if let Some((replayed, recorded)) = record.journal_info() {
        body = body.with(
            "journal",
            Json::obj()
                .with("replayed", Json::Num(replayed as f64))
                .with("recorded", Json::Num(recorded as f64)),
        );
    }
    body = match record.outcome() {
        Some(Ok(outcome)) => body.with("outcome", outcome_json(&outcome)),
        Some(Err(message)) => body.with("error", Json::Str(message)),
        None => body,
    };
    // A campaign that finished under a previous daemon: the full outcome
    // object died with that process, but the manifest's terminal summary
    // (headline numbers + bitwise digest) is durable. Served distinctly —
    // never dressed up as a fresh outcome.
    if let Some(summary) = record.recovered_summary() {
        body = body.with(
            "recovered",
            Json::obj()
                .with("status", Json::Str(summary.status.clone()))
                .with("success", Json::Bool(summary.success))
                .with("simulations", Json::Num(summary.simulations as f64))
                .with("best_value_bits", Json::Str(hex_f64(summary.best_value)))
                .with("outcome_digest", Json::Str(hex_u64(summary.digest))),
        );
    }
    Response::json(200, body.dump())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server(tag: &str) -> (Server, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("asdex-srv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig { journal_dir: dir.clone(), ..SchedulerConfig::default() },
            ..ServerConfig::default()
        };
        (Server::bind(cfg, DrainHandle::new()).unwrap(), dir)
    }

    #[test]
    fn routes_respond_without_sockets() {
        let (server, dir) = test_server("routes");
        let scheduler = server.scheduler();
        let drain = DrainHandle::new();
        let metrics = Arc::new(Metrics::new());

        let health = Request {
            method: "GET".into(),
            path: "/healthz".into(),
            headers: vec![],
            body: vec![],
        };
        let (_, resp) = route(&health, None, &scheduler, &metrics, &drain);
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body).unwrap().contains("\"status\":\"ok\""));

        let submit = Request {
            method: "POST".into(),
            path: "/campaigns".into(),
            headers: vec![],
            body: br#"{"bench":"bowl2","budget":200,"seed":3}"#.to_vec(),
        };
        let (_, resp) = route(&submit, None, &scheduler, &metrics, &drain);
        assert_eq!(resp.status, 202);
        let body = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let id = body.get("id").unwrap().as_str().unwrap().to_string();
        assert!(scheduler.wait(&id, Duration::from_secs(60)));

        let get = Request {
            method: "GET".into(),
            path: format!("/campaigns/{id}"),
            headers: vec![],
            body: vec![],
        };
        let (_, resp) = route(&get, None, &scheduler, &metrics, &drain);
        assert_eq!(resp.status, 200);
        let body = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(body.get("status").unwrap().as_str(), Some("completed"));
        assert!(body.get("outcome").is_some());

        let missing = Request {
            method: "GET".into(),
            path: "/campaigns/ghost".into(),
            headers: vec![],
            body: vec![],
        };
        let (_, resp) = route(&missing, None, &scheduler, &metrics, &drain);
        assert_eq!(resp.status, 404);

        let bad = Request {
            method: "POST".into(),
            path: "/campaigns".into(),
            headers: vec![],
            body: b"not json".to_vec(),
        };
        let (_, resp) = route(&bad, None, &scheduler, &metrics, &drain);
        assert_eq!(resp.status, 400);

        let wrong_method = Request {
            method: "DELETE".into(),
            path: "/campaigns".into(),
            headers: vec![],
            body: vec![],
        };
        let (endpoint, resp) = route(&wrong_method, None, &scheduler, &metrics, &drain);
        assert!(endpoint.is_none());
        assert_eq!(resp.status, 405);

        scheduler.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

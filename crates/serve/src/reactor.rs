//! The std-only nonblocking connection reactor.
//!
//! One thread owns every connection: a readiness loop over a nonblocking
//! `TcpListener` and a set of nonblocking [`Conn`] state machines. There
//! is no thread-per-connection — a thousand idle sockets cost a thousand
//! small buffers, not a thousand stacks — and no `epoll`/`poll(2)`
//! either (the crate forbids `unsafe`): the loop drives every connection
//! as far as `WouldBlock` allows and sleeps ~1 ms only when the entire
//! set is quiescent. For this daemon's request mix (tiny control-plane
//! messages, campaign work running on scheduler threads) that trades a
//! negligible idle latency for a fully bounded front end:
//!
//! * **connection cap** — beyond `--max-conns` open connections, new
//!   arrivals get a typed `503` + `Retry-After` and are closed (never
//!   parsed); beyond a small overflow allowance they are dropped
//!   outright, so the shed path itself is bounded.
//! * **phase deadlines** — header, body, and write deadlines per
//!   connection (see [`crate::conn`]) reap slow-loris writers, half-open
//!   peers, and stalled readers within `--conn-timeout`.
//! * **drain** — once the drain flag flips, accepting stops immediately;
//!   in-flight connections get five seconds to finish before the loop
//!   returns.

use crate::conn::{Conn, ConnDeadlines, Drive};
use crate::http::{Request, Response};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::server::DrainHandle;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// How long in-flight connections may finish after a drain request.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Accepted connections allowed above the cap solely to carry a shed
/// response; beyond `max_conns + SHED_OVERFLOW` arrivals are dropped
/// without a response.
const SHED_OVERFLOW: usize = 64;

/// Accepts drained per loop iteration, so one accept flood cannot starve
/// established connections.
const ACCEPT_BURST: usize = 64;

/// Runs the reactor until `drain` is pulled and the grace period passes
/// (or every connection finishes). Arrivals beyond `max_conns` open
/// connections are shed with a 503; `conn_timeout` is the per-phase
/// connection deadline (header, body, and write each). `handler` routes
/// one parsed request to a response; `retry_after` supplies the
/// `Retry-After` hint for connection-cap sheds.
pub fn run_reactor(
    listener: &TcpListener,
    max_conns: usize,
    conn_timeout: Duration,
    drain: &DrainHandle,
    metrics: &Metrics,
    mut handler: impl FnMut(&Request, std::net::SocketAddr) -> Response,
    retry_after: impl Fn() -> u64,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let deadlines = ConnDeadlines::uniform(conn_timeout);
    let mut conns: Vec<Conn> = Vec::new();
    let mut draining_since: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let mut progressed = false;
        if draining_since.is_none() && drain.is_drain_requested() {
            draining_since = Some(now);
        }
        if draining_since.is_none() {
            progressed |=
                accept_burst(listener, max_conns, metrics, &mut conns, now, deadlines, &retry_after);
        }
        for conn in &mut conns {
            match conn.poll(now) {
                Drive::Pending { progressed: p } => progressed |= p,
                Drive::Ready(request) => {
                    progressed = true;
                    let response = handler(&request, conn.peer());
                    conn.respond(&response, now);
                    // Push the response bytes out right away; most fit in
                    // the socket buffer, so the common case finishes in
                    // this same iteration.
                    if let Drive::Pending { progressed: p } = conn.poll(now) {
                        progressed |= p;
                    }
                }
                Drive::Expired => {
                    progressed = true;
                    metrics.connections_reaped.fetch_add(1, Ordering::Relaxed);
                }
                Drive::Closed => progressed = true,
            }
        }
        conns.retain(|c| !c.is_done());
        metrics.connections_open.store(conns.len() as u64, Ordering::Relaxed);
        if let Some(since) = draining_since {
            if conns.is_empty() || now >= since + DRAIN_GRACE {
                metrics.connections_open.store(0, Ordering::Relaxed);
                return Ok(());
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Accepts up to [`ACCEPT_BURST`] pending connections, shedding above the
/// cap. Returns whether anything was accepted.
fn accept_burst(
    listener: &TcpListener,
    max_conns: usize,
    metrics: &Metrics,
    conns: &mut Vec<Conn>,
    now: Instant,
    deadlines: ConnDeadlines,
    retry_after: &impl Fn() -> u64,
) -> bool {
    let mut progressed = false;
    for _ in 0..ACCEPT_BURST {
        match listener.accept() {
            Ok((stream, peer)) => {
                progressed = true;
                metrics.connections_accepted.fetch_add(1, Ordering::Relaxed);
                if conns.len() >= max_conns {
                    metrics.connections_shed.fetch_add(1, Ordering::Relaxed);
                    metrics.shed_conn_cap.fetch_add(1, Ordering::Relaxed);
                    shed(stream, peer, now, deadlines, conns, max_conns, retry_after());
                } else if let Ok(conn) = Conn::accept(stream, peer, now, deadlines) {
                    conns.push(conn);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Transient accept errors (aborted handshakes, fd pressure)
            // must never kill the daemon; back off one iteration.
            Err(_) => break,
        }
    }
    progressed
}

/// Queues the typed connection-cap 503 on `stream`, unless even the shed
/// overflow is exhausted — then the stream is simply dropped.
fn shed(
    stream: TcpStream,
    peer: std::net::SocketAddr,
    now: Instant,
    deadlines: ConnDeadlines,
    conns: &mut Vec<Conn>,
    max_conns: usize,
    retry_after: u64,
) {
    if conns.len() >= max_conns + SHED_OVERFLOW {
        return; // drop: the shed path itself stays bounded
    }
    let body = Json::obj()
        .with("error", Json::Str("connection limit reached".to_string()))
        .dump();
    let response = Response::json(503, body).with_retry_after(retry_after);
    if let Ok(conn) = Conn::shed(stream, peer, now, deadlines, &response) {
        conns.push(conn);
    }
}

//! A dependency-free live telemetry endpoint for a running server.
//!
//! [`TelemetryServer`] binds a plain `std::net::TcpListener` and answers
//! three `GET` routes with minimal HTTP/1.1:
//!
//! * `/metrics`  — the global registry in Prometheus text exposition format
//! * `/healthz`  — liveness (`ok`) plus the registry's circuit-breaker
//!   summary when a [`HealthSource`] is attached
//! * `/trace/<session-id>` — the session's causal trace as Chrome
//!   trace-event JSON (populated once the session finishes)
//!
//! Connections are served one at a time on a blocking acceptor thread
//! (the wire host's acceptor type), which [`TelemetryServer::stop`] wakes
//! with a connection of its own, so stopping never waits on a quiet
//! socket.
//! Responses are built whole and written once; every connection is
//! `Connection: close`, so no keep-alive state exists to leak.

use crate::transport::Acceptor;
use rqp_catalog::RqpResult;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Finished-session traces, keyed by session id, rendered as Chrome
/// trace-event JSON. Shared between the serve workers (producers) and the
/// telemetry endpoint (consumer).
#[derive(Default)]
pub struct TraceStore {
    map: Mutex<HashMap<usize, String>>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<usize, String>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish a session's rendered trace.
    pub fn insert(&self, session: usize, chrome_json: String) {
        self.lock().insert(session, chrome_json);
    }

    /// The rendered trace for a session, if it has finished.
    pub fn get(&self, session: usize) -> Option<String> {
        self.lock().get(&session).cloned()
    }

    /// Session ids with a published trace, ascending.
    pub fn ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// How long one connection may take to deliver its request head before
/// being cut off (slow-loris guard).
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Extra `/healthz` detail rendered per request (the serving layer
/// attaches the registry's circuit-breaker summary). The returned text is
/// appended after the `ok` liveness line.
pub type HealthSource = Arc<dyn Fn() -> String + Send + Sync>;

/// The live telemetry endpoint. Dropping (or [`stop`](Self::stop)ping) it
/// shuts the accept loop down and joins the thread.
pub struct TelemetryServer {
    acceptor: Acceptor,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `127.0.0.1:9921`; port 0 picks a free port) and
    /// start answering telemetry requests against `traces`.
    ///
    /// One connection may dribble its request head for at most
    /// [`READ_TIMEOUT`] before being cut off (a slow-loris guard).
    ///
    /// # Errors
    /// [`rqp_catalog::RqpError::Config`] when the address cannot be bound;
    /// [`rqp_catalog::RqpError::Internal`] when the spawn fails.
    pub fn start(
        addr: &str,
        traces: Arc<TraceStore>,
        health: Option<HealthSource>,
    ) -> RqpResult<TelemetryServer> {
        let serve = move |stream| handle_connection(stream, &traces, health.as_ref());
        Ok(TelemetryServer {
            acceptor: Acceptor::bind(addr, "rqp-telemetry", Arc::default(), serve)?,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// Shut the accept loop down and join its thread. A failed stop is
    /// counted in `rqp_serve_telemetry_errors_total`.
    pub fn stop(mut self) {
        if self.acceptor.stop().is_err() {
            crate::obs::metrics().telemetry_errors.inc();
        }
    }
}

/// Handle one connection, counting any socket error in
/// `rqp_serve_telemetry_errors_total` instead of dropping it on the floor:
/// a scrape endpoint silently failing to answer looks exactly like a
/// wedged server, so the failure itself must be observable.
fn handle_connection(stream: TcpStream, traces: &Arc<TraceStore>, health: Option<&HealthSource>) {
    if try_handle(stream, traces, health).is_err() {
        crate::obs::metrics().telemetry_errors.inc();
    }
}

/// Read the request head (bounded), route it, and write one response.
fn try_handle(
    mut stream: TcpStream,
    traces: &Arc<TraceStore>,
    health: Option<&HealthSource>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 16 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = match std::str::from_utf8(&head).ok().and_then(|s| s.lines().next()) {
        Some(line) => line.to_string(),
        None => return Ok(()),
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return Ok(()),
    };
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain; charset=utf-8", "only GET is served\n".to_string())
    } else {
        route(path, traces, health)
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Resolve a `GET` path to `(status, content-type, body)`.
fn route(
    path: &str,
    traces: &Arc<TraceStore>,
    health: Option<&HealthSource>,
) -> (&'static str, &'static str, String) {
    const OK: &str = "200 OK";
    const NOT_FOUND: &str = "404 Not Found";
    const TEXT: &str = "text/plain; charset=utf-8";
    match path {
        "/metrics" => {
            // version 0.0.4 is the Prometheus text exposition format version,
            // not ours
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                rqp_obs::global().render_prometheus(),
            )
        }
        "/healthz" => {
            let mut body = "ok\n".to_string();
            if let Some(source) = health {
                body.push_str(&source());
            }
            (OK, TEXT, body)
        }
        "/trace" | "/trace/" => {
            let ids = traces.ids().iter().map(usize::to_string).collect::<Vec<_>>().join(", ");
            (OK, "application/json", format!("{{\"sessions\": [{ids}]}}\n"))
        }
        _ => match path.strip_prefix("/trace/").and_then(|id| id.parse::<usize>().ok()) {
            Some(id) => match traces.get(id) {
                Some(json) => (OK, "application/json", json),
                None => (NOT_FOUND, TEXT, format!("no trace for session {id}\n")),
            },
            None => (NOT_FOUND, TEXT, "routes: /metrics /healthz /trace/<session>\n".to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_healthz_and_traces() {
        let traces = Arc::new(TraceStore::new());
        traces.insert(3, "{\"traceEvents\": []}".to_string());
        let health_source: HealthSource =
            Arc::new(|| "breakers: 1 fingerprint(s), 1 open, 0 half_open\n".to_string());
        let srv = TelemetryServer::start("127.0.0.1:0", Arc::clone(&traces), Some(health_source))
            .unwrap();
        let addr = srv.local_addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("\r\n\r\nok\n"), "{health}");
        assert!(health.contains("breakers: 1 fingerprint(s), 1 open"), "{health}");

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");

        let index = get(addr, "/trace");
        assert!(index.contains("\"sessions\": [3]"), "{index}");
        let trace = get(addr, "/trace/3");
        assert!(trace.contains("traceEvents"), "{trace}");
        let missing = get(addr, "/trace/99");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        let bogus = get(addr, "/nope");
        assert!(bogus.starts_with("HTTP/1.1 404"), "{bogus}");
        srv.stop();
    }

    #[test]
    fn healthz_without_a_source_is_bare_liveness() {
        let traces = Arc::new(TraceStore::new());
        let srv = TelemetryServer::start("127.0.0.1:0", Arc::clone(&traces), None).unwrap();
        let health = get(srv.local_addr(), "/healthz");
        assert!(health.ends_with("ok\n"), "{health}");
        srv.stop();
    }

    #[test]
    fn responses_carry_content_length_and_connection_close() {
        // Clients that don't read to EOF (curl keep-alive, framed probes)
        // need an exact Content-Length and an explicit close.
        let traces = Arc::new(TraceStore::new());
        let srv = TelemetryServer::start("127.0.0.1:0", Arc::clone(&traces), None).unwrap();
        let response = get(srv.local_addr(), "/healthz");
        let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
        assert!(head.contains("Connection: close"), "{head}");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .parse()
            .expect("numeric Content-Length");
        assert_eq!(len, body.len(), "Content-Length must match the body byte count");
        srv.stop();
    }

    #[test]
    fn stop_with_no_request_pending_returns() {
        let srv = TelemetryServer::start("0.0.0.0:0", Arc::new(TraceStore::new()), None).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            srv.stop();
            tx.send(()).ok();
        });
        rx.recv_timeout(Duration::from_secs(10)).expect("telemetry stop hung");
    }
}

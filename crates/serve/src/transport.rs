//! The transport seam: one submit/drain contract with an in-process and
//! a TCP implementation.
//!
//! [`Transport`] is the boundary [`crate::serve_workload`] drives. The
//! in-proc arm wraps a [`Server`] directly; the TCP arm
//! ([`TcpTransport`]) speaks the framed protocol in [`crate::wire`] to
//! one [`TcpServeHost`] per shard process, each with its own
//! [`crate::EssRegistry`], routing each session to the shard that owns
//! its compile fingerprint, so every fingerprint compiles in exactly one
//! process. A workload driven through either arm produces a
//! [`ServeReport`] whose [`ServeReport::stable_render`] is
//! byte-identical (given quiet schedules), which is exactly what the
//! remote smoke test asserts.

use crate::registry::RegistryStats;
use crate::report::ServeReport;
use crate::server::{ServeConfig, Server, SessionUpdate};
use crate::session::{
    name_digest, session_fingerprint, SessionOutcome, SessionResult, SessionSpec,
};
use crate::wire::{read_frame, write_frame, Frame, WireRead, WireResult, PROTOCOL_VERSION};
use rqp_catalog::{RqpError, RqpResult};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Read timeout of a wire connection, on both ends: how long a read
/// blocks before its loop checks the stop flag (server) or simply reads
/// again (client). The server flushes finished results only between
/// reads, so before `bye` this is also its worst-case delivery delay.
const POLL_TIMEOUT: Duration = Duration::from_millis(200);

/// Cap on a client's wait for the server to finish draining a
/// connection's sessions (compiles included, so it is generous).
const DRAIN_WAIT_CAP: Duration = Duration::from_secs(600);

/// Cap on a client's wait for the server's `Hello` greeting.
const HELLO_WAIT_CAP: Duration = Duration::from_secs(10);

/// One way to run serving sessions: submit specs, then drain into a
/// report. Implementations must keep [`Server::submit`]'s non-blocking
/// admission contract — a full queue is a structured refusal, never a
/// stall.
pub trait Transport {
    /// Submit one session.
    ///
    /// # Errors
    /// [`RqpError::Overloaded`] / [`RqpError::Config`] for structured
    /// refusals the driver records as rejected sessions;
    /// [`RqpError::Internal`] for transport failures that abort the run.
    fn submit(&mut self, spec: SessionSpec) -> RqpResult<()>;

    /// Finish every submitted session and summarize.
    ///
    /// # Errors
    /// [`RqpError::Internal`] when the transport lost the server before
    /// all results arrived.
    fn drain(self: Box<Self>) -> RqpResult<ServeReport>;
}

/// The in-process arm: a [`Server`] behind the seam.
pub struct InProcTransport {
    server: Server,
}

impl InProcTransport {
    /// Start a server with `config`.
    ///
    /// # Errors
    /// Propagates [`Server::start`] errors.
    pub fn start(config: ServeConfig) -> RqpResult<InProcTransport> {
        Ok(InProcTransport { server: Server::start(config)? })
    }
}

impl Transport for InProcTransport {
    fn submit(&mut self, spec: SessionSpec) -> RqpResult<()> {
        self.server.submit(spec)
    }

    fn drain(self: Box<Self>) -> RqpResult<ServeReport> {
        Ok(self.server.drain())
    }
}

/// A refused spec as the drain report records it.
fn rejected_result(
    id: usize,
    query: String,
    algo: String,
    outcome: SessionOutcome,
) -> SessionResult {
    SessionResult {
        id,
        query,
        algo: algo.to_ascii_lowercase(),
        outcome,
        subopt: None,
        steps: 0,
        wall: Duration::ZERO,
        lookup: None,
        trace_render: None,
        total_cost: None,
        spans: Vec::new(),
    }
}

/// Expand session-file entries into specs, submit them all through the
/// transport, and drain. Structured refusals ([`RqpError::Overloaded`],
/// or [`RqpError::Config`] from a draining server) become
/// [`SessionOutcome::Rejected`] results; the driver never blocks on a
/// full queue and never silently drops a session.
///
/// # Errors
/// Propagates transport-level ([`RqpError::Internal`]) failures; every
/// per-session failure is reported in the [`ServeReport`] instead.
pub fn run_entries(
    mut transport: Box<dyn Transport>,
    entries: &[rqp_workloads::SessionEntry],
) -> RqpResult<ServeReport> {
    let mut rejected = Vec::new();
    let mut next_id = 0usize;
    for entry in entries {
        for _ in 0..entry.count {
            let mut spec = SessionSpec::new(next_id, entry.query.as_str(), entry.algo.as_str());
            spec.qa = entry.qa;
            next_id += 1;
            match transport.submit(spec.clone()) {
                Ok(()) => {}
                Err(RqpError::Overloaded { .. } | RqpError::Config(_)) => {
                    rejected.push(rejected_result(
                        spec.id,
                        spec.query,
                        spec.algo,
                        SessionOutcome::Rejected,
                    ));
                }
                Err(e) => return Err(e),
            }
        }
    }
    let mut report = transport.drain()?;
    report.results.extend(rejected);
    report.results.sort_by_key(|r| r.id);
    Ok(report)
}

// ---- TCP client -------------------------------------------------------

/// Observer for live server frames (progress, rejects) as they arrive on
/// a client connection; called off the reader threads.
pub type FrameObserver = Arc<dyn Fn(&Frame) + Send + Sync>;

/// What a connection's reader gathered by the time it stopped.
#[derive(Default)]
struct ConnState {
    results: Vec<SessionResult>,
    /// Sessions the server refused or failed before they ran.
    refused: Vec<(usize, SessionOutcome)>,
    stats: Option<RegistryStats>,
    error: Option<String>,
}

struct Conn {
    stream: TcpStream,
    /// Returns what the reader gathered, once the server sent its stats
    /// or the connection failed.
    reader: JoinHandle<ConnState>,
    /// Nothing is sent on it: it disconnects when the reader stops.
    stopped: Receiver<()>,
}

/// The TCP arm of the seam: one persistent connection per shard,
/// client-side fingerprint routing, a background reader per connection
/// streaming progress and results.
pub struct TcpTransport {
    conns: Vec<Conn>,
    shards: usize,
    resolution: Option<usize>,
    fp_cache: HashMap<String, Option<u64>>,
    /// id → (query, algo), so wire-level rejections reconstruct the same
    /// result record the in-proc driver synthesizes.
    specs: HashMap<usize, (String, String)>,
    started_at: Instant,
}

impl TcpTransport {
    /// Connect to every shard of a deployment. `addrs[i]` must be the
    /// server announcing shard `i` (order is validated against each
    /// server's `Hello`); `resolution` must match the servers' grid
    /// resolution override, because the client routes by the same
    /// (query, resolution) fingerprint the servers shard their
    /// registries by.
    ///
    /// # Errors
    /// [`RqpError::Config`] on connection failure, protocol-version or
    /// shard-topology mismatch.
    pub fn connect(addrs: &[String], resolution: Option<usize>) -> RqpResult<TcpTransport> {
        Self::connect_with(addrs, resolution, None)
    }

    /// [`connect`](Self::connect) with a live [`FrameObserver`] invoked
    /// for every streamed progress/reject frame.
    ///
    /// # Errors
    /// Same as [`connect`](Self::connect).
    pub fn connect_with(
        addrs: &[String],
        resolution: Option<usize>,
        observer: Option<FrameObserver>,
    ) -> RqpResult<TcpTransport> {
        if addrs.is_empty() {
            return Err(RqpError::Config("connect needs at least one server address".to_string()));
        }
        let mut conns = Vec::with_capacity(addrs.len());
        for (want_shard, addr) in addrs.iter().enumerate() {
            let mut stream = TcpStream::connect(addr)
                .map_err(|e| RqpError::Config(format!("cannot connect {addr}: {e}")))?;
            stream.set_nodelay(true).ok();
            stream
                .set_read_timeout(Some(POLL_TIMEOUT))
                .map_err(|e| RqpError::Config(format!("socket setup {addr}: {e}")))?;
            let hello = wait_for_hello(&mut stream, addr)?;
            let Frame::Hello { version, shard, shards } = hello else {
                return Err(RqpError::Config(format!("{addr} did not greet with hello")));
            };
            if version != PROTOCOL_VERSION {
                return Err(RqpError::Config(format!(
                    "{addr} speaks protocol v{version}, this client speaks v{PROTOCOL_VERSION}"
                )));
            }
            if shards != addrs.len() || shard != want_shard {
                return Err(RqpError::Config(format!(
                    "{addr} announces shard {shard}/{shards} but was given as shard \
                     {want_shard}/{} — pass every shard's address, in shard order",
                    addrs.len()
                )));
            }
            let reader_stream = stream
                .try_clone()
                .map_err(|e| RqpError::Config(format!("socket clone {addr}: {e}")))?;
            let (stopping, stopped) = std::sync::mpsc::channel::<()>();
            let reader_observer = observer.clone();
            let reader = std::thread::Builder::new()
                .name(format!("rqp-wire-client-{want_shard}"))
                .spawn(move || {
                    let _stopping = stopping;
                    client_reader_loop(reader_stream, reader_observer)
                })
                .map_err(|e| RqpError::Internal(format!("cannot spawn reader: {e}")))?;
            conns.push(Conn { stream, reader, stopped });
        }
        Ok(TcpTransport {
            conns,
            shards: addrs.len(),
            resolution,
            fp_cache: HashMap::new(),
            specs: HashMap::new(),
            started_at: Instant::now(),
        })
    }

    /// Which shard owns `query`: its compile fingerprint modulo the shard
    /// count — the same routing the in-proc registry uses for its lock
    /// shards. Unknown workloads (no fingerprint) route by a stable hash
    /// of the name so the owning server can fail them with the exact
    /// in-proc error.
    fn route(&mut self, query: &str) -> usize {
        let resolution = self.resolution;
        let fp = *self
            .fp_cache
            .entry(query.to_string())
            .or_insert_with(|| session_fingerprint(query, resolution).ok());
        let h = fp.unwrap_or_else(|| name_digest(query));
        (h % self.shards as u64) as usize
    }

    /// Ask every shard to shut its whole process down after draining
    /// (deployment control; servers honor it via
    /// [`TcpServeHost::run_until_shutdown`]).
    ///
    /// # Errors
    /// [`RqpError::Internal`] on a socket failure.
    pub fn send_shutdown(&mut self) -> RqpResult<()> {
        for conn in &mut self.conns {
            write_frame(&mut conn.stream, &Frame::Shutdown)?;
        }
        Ok(())
    }
}

fn wait_for_hello(stream: &mut TcpStream, addr: &str) -> RqpResult<Frame> {
    let deadline = Instant::now() + HELLO_WAIT_CAP;
    loop {
        match read_frame(stream)? {
            WireRead::Frame(f) => return Ok(f),
            WireRead::Closed => {
                return Err(RqpError::Config(format!("{addr} closed before greeting")));
            }
            WireRead::Idle => {
                if Instant::now() > deadline {
                    return Err(RqpError::Config(format!("{addr} sent no hello within 10s")));
                }
            }
        }
    }
}

/// Read server frames until the stats arrive or the connection fails,
/// and return what arrived.
fn client_reader_loop(mut stream: TcpStream, observer: Option<FrameObserver>) -> ConnState {
    let mut st = ConnState::default();
    loop {
        match read_frame(&mut stream) {
            Ok(WireRead::Idle) => {}
            Ok(WireRead::Closed) => {
                st.error.get_or_insert_with(|| "server closed before sending stats".to_string());
                return st;
            }
            Ok(WireRead::Frame(frame)) => {
                if let Some(obs) = &observer {
                    obs(&frame);
                }
                match frame {
                    Frame::Progress { .. } => {}
                    Frame::Result(w) => match w.into_result() {
                        Ok(r) => st.results.push(r),
                        Err(e) => st.error = Some(e.to_string()),
                    },
                    // queue depth and cap are carried on the wire; the
                    // record keeps the outcome
                    Frame::Reject { id, .. } => st.refused.push((id, SessionOutcome::Rejected)),
                    Frame::Error { id: Some(id), message, .. } => {
                        st.refused.push((id, SessionOutcome::Failed(message)));
                    }
                    Frame::Error { id: None, code, message } => {
                        st.error = Some(format!("server error [{code}]: {message}"));
                        return st;
                    }
                    Frame::Stats(s) => {
                        st.stats = Some(s);
                        return st;
                    }
                    other => {
                        st.error =
                            Some(format!("unexpected server frame {:?}", frame_name(&other)));
                        return st;
                    }
                }
            }
            Err(e) => {
                st.error = Some(e.to_string());
                return st;
            }
        }
    }
}

fn frame_name(f: &Frame) -> &'static str {
    match f {
        Frame::Hello { .. } => "hello",
        Frame::Session { .. } => "session",
        Frame::Progress { .. } => "progress",
        Frame::Result(_) => "result",
        Frame::Reject { .. } => "reject",
        Frame::Error { .. } => "error",
        Frame::Bye => "bye",
        Frame::Stats(_) => "stats",
        Frame::Shutdown => "shutdown",
    }
}

impl Transport for TcpTransport {
    fn submit(&mut self, spec: SessionSpec) -> RqpResult<()> {
        let shard = self.route(&spec.query);
        self.specs.insert(spec.id, (spec.query.clone(), spec.algo.clone()));
        let conn = self
            .conns
            .get_mut(shard)
            .ok_or_else(|| RqpError::Internal(format!("no connection for shard {shard}")))?;
        write_frame(
            &mut conn.stream,
            &Frame::Session {
                id: spec.id,
                query: spec.query,
                algo: spec.algo,
                qa: spec.qa,
                seed: spec.seed,
            },
        )
    }

    fn drain(mut self: Box<Self>) -> RqpResult<ServeReport> {
        for conn in &mut self.conns {
            write_frame(&mut conn.stream, &Frame::Bye)?;
        }
        let deadline = Instant::now() + DRAIN_WAIT_CAP;
        let mut states = Vec::with_capacity(self.conns.len());
        for conn in std::mem::take(&mut self.conns) {
            let left = deadline.saturating_duration_since(Instant::now());
            if let Err(RecvTimeoutError::Timeout) = conn.stopped.recv_timeout(left) {
                return Err(RqpError::Internal(
                    "server did not finish draining within the wait cap".to_string(),
                ));
            }
            let state = conn.reader.join();
            states.push(state.map_err(|_| RqpError::Internal("wire reader panicked".to_string()))?);
        }
        let mut results = Vec::new();
        let mut registry = RegistryStats::default();
        for mut st in states {
            if let Some(err) = st.error.take() {
                return Err(RqpError::Internal(err));
            }
            results.append(&mut st.results);
            for (id, outcome) in st.refused {
                let (query, algo) = self
                    .specs
                    .get(&id)
                    .cloned()
                    .unwrap_or_else(|| (format!("session-{id}"), "unknown".to_string()));
                results.push(rejected_result(id, query, algo, outcome));
            }
            if let Some(s) = st.stats {
                registry += s;
            }
        }
        results.sort_by_key(|r| r.id);
        Ok(ServeReport { results, registry, drained: 0, wall: self.started_at.elapsed() })
    }
}

// ---- TCP server host --------------------------------------------------

/// Pause after a failed `accept` (EMFILE and the like), so a lasting
/// accept error cannot turn into a hot spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Cap on [`Acceptor::stop`]'s wake connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// A blocking accept loop on a named thread: the one acceptor behind the
/// wire host and the telemetry endpoint. [`stop`](Acceptor::stop) sets the
/// stop flag, wakes the parked `accept` with a connection of its own and
/// joins the thread. The loop checks the flag before it dispatches a
/// connection, so the wake goes unserved.
pub(crate) struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Bind `addr` (port 0 picks a free port) and hand every accepted
    /// connection to `serve` on a thread named `name`, until `stop` is set.
    ///
    /// # Errors
    /// [`RqpError::Config`] when the address cannot be bound;
    /// [`RqpError::Internal`] when the thread cannot be spawned.
    pub(crate) fn bind(
        addr: &str,
        name: &str,
        stop: Arc<AtomicBool>,
        mut serve: impl FnMut(TcpStream) + Send + 'static,
    ) -> RqpResult<Acceptor> {
        let listener = TcpListener::bind(addr)
            .and_then(|l| Ok((l.local_addr()?, l)))
            .map_err(|e| RqpError::Config(format!("{name} cannot bind {addr}: {e}")));
        let (local, listener) = listener?;
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || loop {
                let accepted = listener.accept();
                if flag.load(Ordering::SeqCst) {
                    return;
                }
                match accepted {
                    Ok((stream, _)) => serve(stream),
                    Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                }
            })
            .map_err(|e| RqpError::Internal(format!("cannot spawn {name}: {e}")))?;
        Ok(Acceptor { addr: local, stop, thread: Some(thread) })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the thread; a second call does nothing.
    ///
    /// # Errors
    /// [`RqpError::Internal`] when the wake connection fails while the
    /// thread still runs (the thread is then left detached, so `stop`
    /// never hangs), or when the thread panicked.
    pub(crate) fn stop(&mut self) -> RqpResult<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.stop.store(true, Ordering::SeqCst);
        // A listener on 0.0.0.0 or [::] is reached through loopback.
        let ip = match self.addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        let wake = SocketAddr::new(ip, self.addr.port());
        if let Err(e) = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT) {
            if !thread.is_finished() {
                return Err(RqpError::Internal(format!("cannot wake the acceptor at {wake}: {e}")));
            }
        }
        thread.join().map_err(|_| RqpError::Internal(format!("the acceptor at {wake} panicked")))
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        // `stop` is the call that reports a failed wake.
        self.stop().ok();
    }
}

/// Raised by a connection that reads [`Frame::Shutdown`];
/// [`TcpServeHost::run_until_shutdown`] parks on it.
#[derive(Default)]
struct Shutdown {
    requested: Mutex<bool>,
    raised: Condvar,
}

impl Shutdown {
    fn lock(&self) -> std::sync::MutexGuard<'_, bool> {
        self.requested.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn raise(&self) {
        *self.lock() = true;
        self.raised.notify_all();
    }
}

/// A [`Server`] published on a TCP listener: accepts connections, decodes
/// [`Frame::Session`]s into [`Server::submit_with`] calls, streams
/// progress/result frames back, and maps admission refusals onto
/// [`Frame::Reject`]. One host is one registry shard (`--shard K/N`); an
/// unsharded deployment is the single shard `0/1`.
pub struct TcpServeHost {
    acceptor: Acceptor,
    shutdown: Arc<Shutdown>,
    /// Live connection threads; finished ones are dropped at each accept.
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    server: Option<Arc<Server>>,
}

impl TcpServeHost {
    /// Bind `addr` (port 0 picks a free port), start the serving pool,
    /// and begin accepting wire connections. `shard` is `(index, count)`;
    /// `None` means the sole shard of an unsharded deployment.
    ///
    /// # Errors
    /// [`RqpError::Config`] for an invalid shard spec or unbindable
    /// address; propagates [`Server::start`] errors.
    pub fn bind(
        addr: &str,
        config: ServeConfig,
        shard: Option<(usize, usize)>,
    ) -> RqpResult<TcpServeHost> {
        let (k, n) = shard.unwrap_or((0, 1));
        if n == 0 || k >= n {
            return Err(RqpError::Config(format!(
                "shard spec {k}/{n} is invalid: need 0 <= index < count"
            )));
        }
        let resolution = config.resolution;
        let server = Arc::new(Server::start(config)?);
        let stop = Arc::new(AtomicBool::new(false));
        let shutdown = Arc::new(Shutdown::default());
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let serve = {
            let (server, stop, shutdown, conns) =
                (Arc::clone(&server), Arc::clone(&stop), Arc::clone(&shutdown), Arc::clone(&conns));
            move |stream| {
                let (server, stop, shutdown) =
                    (Arc::clone(&server), Arc::clone(&stop), Arc::clone(&shutdown));
                let spawned = std::thread::Builder::new().name("rqp-wire-conn".to_string()).spawn(
                    move || conn_loop(stream, &server, (k, n), resolution, &stop, &shutdown),
                );
                let mut conns = conns.lock().unwrap_or_else(PoisonError::into_inner);
                conns.retain(|handle| !handle.is_finished());
                match spawned {
                    Ok(handle) => conns.push(handle),
                    // Thread exhaustion: refuse this connection, keep serving.
                    Err(_) => crate::obs::metrics().wire_frame_errors.inc(),
                }
            }
        };
        let acceptor = Acceptor::bind(addr, "rqp-wire-accept", stop, serve)?;
        Ok(TcpServeHost { acceptor, shutdown, conns, server: Some(server) })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// Whether a client asked the whole process to shut down
    /// ([`Frame::Shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        *self.shutdown.lock()
    }

    /// Serve until a client sends [`Frame::Shutdown`], then stop and
    /// return the drain report — the long-lived `rqp serve --listen`
    /// main loop.
    ///
    /// # Errors
    /// Propagates [`TcpServeHost::stop`] failures.
    pub fn run_until_shutdown(self) -> RqpResult<ServeReport> {
        let requested = self.shutdown.lock();
        drop(self.shutdown.raised.wait_while(requested, |requested| !*requested));
        self.stop()
    }

    /// Stop accepting, cut idle connections, finish every admitted
    /// session, and return the drain report.
    ///
    /// # Errors
    /// [`RqpError::Internal`] if the acceptor could not be woken, or if a
    /// connection thread leaked and still holds the server (the drain
    /// cannot run twice).
    pub fn stop(mut self) -> RqpResult<ServeReport> {
        self.halt()?;
        let server = self
            .server
            .take()
            .ok_or_else(|| RqpError::Internal("server already stopped".to_string()))?;
        match Arc::try_unwrap(server) {
            Ok(server) => Ok(server.drain()),
            Err(_) => Err(RqpError::Internal(
                "a connection thread still holds the server; cannot drain".to_string(),
            )),
        }
    }

    /// Stop the acceptor (which raises the connections' stop flag), then
    /// join every connection thread.
    fn halt(&mut self) -> RqpResult<()> {
        let stopped = self.acceptor.stop();
        let handles =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
        stopped
    }
}

impl Drop for TcpServeHost {
    fn drop(&mut self) {
        // `stop` is the call that reports a failed halt.
        self.halt().ok();
    }
}

/// One wire connection, on one thread. Until `bye` the loop alternates
/// between flushing the session-update channel to the socket and reading
/// the next client frame; the read times out after [`POLL_TIMEOUT`] so
/// the stop flag is honored. After `bye` it reads nothing more: it blocks
/// on the update channel until every session it admitted has its result
/// on the wire, then answers with the shard's registry stats. No lock is
/// ever held across socket IO.
fn conn_loop(
    mut stream: TcpStream,
    server: &Server,
    (k, n): (usize, usize),
    resolution: Option<usize>,
    stop: &AtomicBool,
    shutdown: &Shutdown,
) {
    let m = crate::obs::metrics();
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(POLL_TIMEOUT)).is_err()
        || write_frame(
            &mut stream,
            &Frame::Hello { version: PROTOCOL_VERSION, shard: k, shards: n },
        )
        .is_err()
    {
        return;
    }
    let (tx, rx) = std::sync::mpsc::channel::<SessionUpdate>();
    let mut accepted = 0usize;
    let mut finished = 0usize;
    let mut fp_cache: HashMap<String, Option<u64>> = HashMap::new();
    loop {
        // Flush pending live updates (progress + terminal results).
        // try_recv never yields Disconnected: this thread owns `tx`.
        while let Ok(update) = rx.try_recv() {
            if !forward(&mut stream, update, &mut finished) {
                return;
            }
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match read_frame(&mut stream) {
            Ok(WireRead::Idle) => {}
            Ok(WireRead::Closed) => return,
            Ok(WireRead::Frame(Frame::Session { id, query, algo, qa, seed })) => {
                let spec = SessionSpec { id, query, algo, qa, seed };
                // Routing check: a session whose fingerprint belongs to a
                // different shard is a client bug, refused loudly. Unknown
                // workloads have no fingerprint; they pass through and fail
                // in-session with the exact in-proc error.
                let fp = *fp_cache
                    .entry(spec.query.clone())
                    .or_insert_with(|| session_fingerprint(&spec.query, resolution).ok());
                if let Some(fp) = fp {
                    let owner = (fp % n as u64) as usize;
                    if owner != k {
                        let frame = Frame::Error {
                            id: Some(spec.id),
                            code: "config".to_string(),
                            message: format!(
                                "session {} reached shard {k}/{n} but its fingerprint \
                                 {fp:016x} is owned by shard {owner}",
                                spec.id
                            ),
                        };
                        if write_frame(&mut stream, &frame).is_err() {
                            return;
                        }
                        continue;
                    }
                }
                match server.submit_with(spec.clone(), Some(tx.clone())) {
                    Ok(()) => {
                        accepted += 1;
                        m.wire_sessions.inc();
                    }
                    Err(e) => {
                        if matches!(e, RqpError::Overloaded { .. }) {
                            m.wire_rejected.inc();
                        }
                        let frame = Frame::from_submit_error(&spec, &e);
                        if write_frame(&mut stream, &frame).is_err() {
                            return;
                        }
                    }
                }
            }
            Ok(WireRead::Frame(Frame::Bye)) => break,
            Ok(WireRead::Frame(Frame::Shutdown)) => shutdown.raise(),
            Ok(WireRead::Frame(other)) => {
                m.wire_frame_errors.inc();
                let frame = Frame::Error {
                    id: None,
                    code: "config".to_string(),
                    message: format!("unexpected client frame {:?}", frame_name(&other)),
                };
                write_frame(&mut stream, &frame).ok();
                return;
            }
            Err(e) => {
                // Framing is lost (hostile prefix, undecodable payload,
                // mid-frame stall): answer best-effort, drop the
                // connection, keep the server alive.
                m.wire_frame_errors.inc();
                let frame =
                    Frame::Error { id: None, code: "config".to_string(), message: e.to_string() };
                write_frame(&mut stream, &frame).ok();
                return;
            }
        }
    }
    // Drop this loop's sender, so the channel disconnects once no admitted
    // session can still send.
    drop(tx);
    while finished < accepted {
        let Ok(update) = rx.recv() else { break };
        if !forward(&mut stream, update, &mut finished) {
            return;
        }
    }
    write_frame(&mut stream, &Frame::Stats(server.registry_stats())).ok();
}

/// Write one live update to the socket, counting terminal results in
/// `finished`; false when the socket failed.
fn forward(stream: &mut TcpStream, update: SessionUpdate, finished: &mut usize) -> bool {
    let frame = update_frame(update);
    let terminal = matches!(frame, Frame::Result(_));
    if write_frame(stream, &frame).is_err() {
        return false;
    }
    *finished += usize::from(terminal);
    true
}

/// A live [`SessionUpdate`] as its wire frame.
fn update_frame(update: SessionUpdate) -> Frame {
    let phase = |id, phase: &str, lookup| Frame::Progress {
        id,
        phase: phase.to_string(),
        lookup,
        step: None,
        budget_bits: None,
        spent_bits: None,
        completed: None,
    };
    match update {
        SessionUpdate::Started { id } => phase(id, "started", None),
        SessionUpdate::Surface { id, lookup } => {
            phase(id, "surface", Some(lookup.label().to_string()))
        }
        SessionUpdate::Step { id, step, budget, spent, completed } => Frame::Progress {
            id,
            phase: "step".to_string(),
            lookup: None,
            step: Some(step),
            budget_bits: Some(budget.to_bits()),
            spent_bits: Some(spent.to_bits()),
            completed: Some(completed),
        },
        SessionUpdate::Finished(result) => {
            Frame::Result(Box::new(WireResult::from_result(&result)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` on a thread of its own and fail the test if it has not
    /// returned within ten seconds.
    fn returns<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()).ok());
        rx.recv_timeout(Duration::from_secs(10)).unwrap_or_else(|_| panic!("{what} hung"))
    }

    fn host(addr: &str) -> (TcpServeHost, Vec<String>) {
        let host = TcpServeHost::bind(addr, ServeConfig::default(), None).unwrap();
        let addrs = vec![format!("127.0.0.1:{}", host.local_addr().port())];
        (host, addrs)
    }

    #[test]
    fn stop_returns_with_no_client_on_any_address() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let (host, _) = host(addr);
            let report = returns("stop", move || host.stop()).unwrap();
            assert!(report.results.is_empty());
        }
    }

    #[test]
    fn stop_returns_with_an_idle_client_connected() {
        let (host, addrs) = host("127.0.0.1:0");
        let transport = TcpTransport::connect(&addrs, None).unwrap();
        returns("stop", move || host.stop()).unwrap();
        assert!(Box::new(transport).drain().is_err(), "a stopped host sends no stats");
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        let (host, addrs) = host("127.0.0.1:0");
        let cycles = 16;
        for _ in 0..cycles {
            let transport = TcpTransport::connect(&addrs, None).unwrap();
            assert!(Box::new(transport).drain().unwrap().results.is_empty());
        }
        let retained = host.conns.lock().unwrap().len();
        assert!(retained <= 4, "{retained} connection threads retained after {cycles} cycles");
        host.stop().unwrap();
    }
}

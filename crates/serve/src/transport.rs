//! The transport seam: one submit/drain contract with an in-process and
//! a TCP implementation.
//!
//! [`Transport`] is the boundary [`crate::serve_workload`] drives. The
//! in-proc arm wraps a [`Server`] directly; the TCP arm
//! ([`TcpTransport`]) speaks the framed protocol in [`crate::wire`] to
//! one [`TcpServeHost`] per registry shard, routing each session to the
//! shard that owns its compile fingerprint — the same stable fingerprint
//! the in-proc [`crate::EssRegistry`] shards its locks by, lifted to the
//! process level. A workload driven through either arm produces a
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
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a transport read polls between liveness checks.
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

#[derive(Default)]
struct ConnState {
    results: Vec<SessionResult>,
    rejects: Vec<(usize, usize, usize)>,
    session_errors: Vec<(usize, String)>,
    stats: Option<RegistryStats>,
    error: Option<String>,
    done: bool,
}

struct Conn {
    stream: TcpStream,
    state: Arc<Mutex<ConnState>>,
    reader: Option<std::thread::JoinHandle<()>>,
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
            let state = Arc::new(Mutex::new(ConnState::default()));
            let reader_stream = stream
                .try_clone()
                .map_err(|e| RqpError::Config(format!("socket clone {addr}: {e}")))?;
            let reader_state = Arc::clone(&state);
            let reader_observer = observer.clone();
            let reader = std::thread::Builder::new()
                .name(format!("rqp-wire-client-{want_shard}"))
                .spawn(move || client_reader_loop(reader_stream, &reader_state, reader_observer))
                .map_err(|e| RqpError::Internal(format!("cannot spawn reader: {e}")))?;
            conns.push(Conn { stream, state, reader: Some(reader) });
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

fn client_reader_loop(
    mut stream: TcpStream,
    state: &Arc<Mutex<ConnState>>,
    observer: Option<FrameObserver>,
) {
    // Every guard below is dropped before the next socket read — no lock
    // is held across blocking IO.
    fn lock(state: &Mutex<ConnState>) -> std::sync::MutexGuard<'_, ConnState> {
        state.lock().unwrap_or_else(PoisonError::into_inner)
    }
    loop {
        // Read first, lock after: no guard is ever held across socket IO.
        let read = read_frame(&mut stream);
        match read {
            Ok(WireRead::Idle) => {}
            Ok(WireRead::Closed) => {
                let mut st = lock(state);
                if st.stats.is_none() && st.error.is_none() {
                    st.error = Some("server closed before sending stats".to_string());
                }
                st.done = true;
                return;
            }
            Ok(WireRead::Frame(frame)) => {
                if let Some(obs) = &observer {
                    obs(&frame);
                }
                match frame {
                    Frame::Progress { .. } => {}
                    Frame::Result(w) => {
                        let decoded = w.into_result();
                        let mut st = lock(state);
                        match decoded {
                            Ok(r) => st.results.push(r),
                            Err(e) => st.error = Some(e.to_string()),
                        }
                    }
                    Frame::Reject { id, queue_depth, cap } => {
                        lock(state).rejects.push((id, queue_depth, cap));
                    }
                    Frame::Error { id: Some(id), message, .. } => {
                        lock(state).session_errors.push((id, message));
                    }
                    Frame::Error { id: None, code, message } => {
                        let mut st = lock(state);
                        st.error = Some(format!("server error [{code}]: {message}"));
                        st.done = true;
                        return;
                    }
                    Frame::Stats(s) => {
                        let mut st = lock(state);
                        st.stats = Some(s);
                        st.done = true;
                        return;
                    }
                    other => {
                        let mut st = lock(state);
                        st.error =
                            Some(format!("unexpected server frame {:?}", frame_name(&other)));
                        st.done = true;
                        return;
                    }
                }
            }
            Err(e) => {
                let mut st = lock(state);
                st.error = Some(e.to_string());
                st.done = true;
                return;
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
        for conn in &mut self.conns {
            loop {
                {
                    let st = conn.state.lock().unwrap_or_else(PoisonError::into_inner);
                    if st.done {
                        break;
                    }
                }
                if Instant::now() > deadline {
                    return Err(RqpError::Internal(
                        "server did not finish draining within the wait cap".to_string(),
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let mut results = Vec::new();
        let mut registry = RegistryStats::default();
        for conn in &mut self.conns {
            if let Some(handle) = conn.reader.take() {
                let _ = handle.join();
            }
            let mut st = conn.state.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(err) = st.error.take() {
                return Err(RqpError::Internal(err));
            }
            results.append(&mut st.results);
            for (id, queue_depth, cap) in st.rejects.drain(..) {
                let (query, algo) = self
                    .specs
                    .get(&id)
                    .cloned()
                    .unwrap_or_else(|| (format!("session-{id}"), "unknown".to_string()));
                let _ = (queue_depth, cap); // carried on the wire; the record keeps the outcome
                results.push(rejected_result(id, query, algo, SessionOutcome::Rejected));
            }
            for (id, message) in st.session_errors.drain(..) {
                let (query, algo) = self
                    .specs
                    .get(&id)
                    .cloned()
                    .unwrap_or_else(|| (format!("session-{id}"), "unknown".to_string()));
                results.push(rejected_result(id, query, algo, SessionOutcome::Failed(message)));
            }
            if let Some(s) = st.stats {
                registry.compiles += s.compiles;
                registry.hits += s.hits;
                registry.waits += s.waits;
                registry.disk_hits += s.disk_hits;
                registry.breaker_opens += s.breaker_opens;
                registry.breaker_reprobes += s.breaker_reprobes;
                registry.breaker_closes += s.breaker_closes;
                registry.breaker_refused += s.breaker_refused;
                registry.expired_waits += s.expired_waits;
                registry.entries += s.entries;
            }
        }
        results.sort_by_key(|r| r.id);
        Ok(ServeReport { results, registry, drained: 0, wall: self.started_at.elapsed() })
    }
}

// ---- TCP server host --------------------------------------------------

/// A [`Server`] published on a TCP listener: accepts connections, decodes
/// [`Frame::Session`]s into [`Server::submit_with`] calls, streams
/// progress/result frames back, and maps admission refusals onto
/// [`Frame::Reject`]. One host is one registry shard (`--shard K/N`); an
/// unsharded deployment is the single shard `0/1`.
pub struct TcpServeHost {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shutdown_flag: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
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
        let listener = TcpListener::bind(addr)
            .map_err(|e| RqpError::Config(format!("wire cannot bind {addr}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| RqpError::Config(format!("wire listener setup: {e}")))?;
        let local =
            listener.local_addr().map_err(|e| RqpError::Config(format!("wire local addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let shutdown_flag = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let shutdown_flag = Arc::clone(&shutdown_flag);
            let conns = Arc::clone(&conns);
            let server = Arc::clone(&server);
            std::thread::Builder::new()
                .name("rqp-wire-accept".to_string())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        &stop,
                        &shutdown_flag,
                        &conns,
                        &server,
                        (k, n),
                        resolution,
                    );
                })
                .map_err(|e| RqpError::Internal(format!("cannot spawn accept loop: {e}")))?
        };
        Ok(TcpServeHost {
            addr: local,
            stop,
            shutdown_flag,
            accept: Some(accept),
            conns,
            server: Some(server),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client asked the whole process to shut down
    /// ([`Frame::Shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_flag.load(Ordering::SeqCst)
    }

    /// Serve until a client sends [`Frame::Shutdown`], then stop and
    /// return the drain report — the long-lived `rqp serve --listen`
    /// main loop.
    ///
    /// # Errors
    /// Propagates [`TcpServeHost::stop`] failures.
    pub fn run_until_shutdown(self) -> RqpResult<ServeReport> {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.stop()
    }

    /// Stop accepting, cut idle connections, finish every admitted
    /// session, and return the drain report.
    ///
    /// # Errors
    /// [`RqpError::Internal`] if a connection thread leaked and still
    /// holds the server (the drain cannot run twice).
    pub fn stop(mut self) -> RqpResult<ServeReport> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
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
}

impl Drop for TcpServeHost {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
    shutdown_flag: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    server: &Arc<Server>,
    shard: (usize, usize),
    resolution: Option<usize>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let server = Arc::clone(server);
                let stop = Arc::clone(stop);
                let shutdown_flag = Arc::clone(shutdown_flag);
                let spawned = std::thread::Builder::new().name("rqp-wire-conn".to_string()).spawn(
                    move || {
                        conn_loop(stream, &server, shard, resolution, &stop, &shutdown_flag);
                    },
                );
                match spawned {
                    Ok(handle) => {
                        conns.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
                    }
                    // Thread exhaustion: refuse this connection, keep serving.
                    Err(_) => crate::obs::metrics().wire_frame_errors.inc(),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            // transient accept errors (aborted handshakes etc.): keep serving
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// One wire connection, single-threaded by design: the loop alternates
/// between flushing the session-update channel to the socket and reading
/// the next client frame (with a short timeout so the stop flag is
/// honored). No lock is ever held across socket IO.
fn conn_loop(
    mut stream: TcpStream,
    server: &Arc<Server>,
    (k, n): (usize, usize),
    resolution: Option<usize>,
    stop: &Arc<AtomicBool>,
    shutdown_flag: &Arc<AtomicBool>,
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
    let mut bye = false;
    let mut fp_cache: HashMap<String, Option<u64>> = HashMap::new();
    loop {
        // Flush pending live updates (progress + terminal results).
        // try_recv never yields Disconnected: this thread owns `tx`.
        while let Ok(update) = rx.try_recv() {
            let frame = update_frame(update);
            let terminal = matches!(frame, Frame::Result(_));
            if write_frame(&mut stream, &frame).is_err() {
                return;
            }
            if terminal {
                finished += 1;
            }
        }
        if bye && finished == accepted {
            // Everything this connection submitted has its terminal
            // frame; answer the drain with the shard's registry stats.
            write_frame(&mut stream, &Frame::Stats(server.registry_stats())).ok();
            return;
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if bye {
            std::thread::sleep(Duration::from_millis(10));
            continue;
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
            Ok(WireRead::Frame(Frame::Bye)) => bye = true,
            Ok(WireRead::Frame(Frame::Shutdown)) => {
                shutdown_flag.store(true, Ordering::SeqCst);
            }
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
}

/// A live [`SessionUpdate`] as its wire frame.
fn update_frame(update: SessionUpdate) -> Frame {
    match update {
        SessionUpdate::Started { id } => Frame::Progress {
            id,
            phase: "started".to_string(),
            lookup: None,
            step: None,
            budget_bits: None,
            spent_bits: None,
            completed: None,
        },
        SessionUpdate::Surface { id, lookup } => Frame::Progress {
            id,
            phase: "surface".to_string(),
            lookup: Some(lookup.label().to_string()),
            step: None,
            budget_bits: None,
            spent_bits: None,
            completed: None,
        },
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

//! The four serving workloads: their set-up, and one closed-loop driver
//! that plays a spec list against an in-proc [`Server`] or a pair of TCP
//! shards, timing every session from the client's side.

use crate::gen::FIXTURES;
use rqp_serve::{
    session_fingerprint, Frame, FrameObserver, Lookup, ServeConfig, Server, SessionResult,
    SessionSpec, SessionUpdate, TcpServeHost, TcpTransport, Transport, WireResult,
};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a client waits for the next update before declaring the run
/// wedged (a cold 5D compile takes well under a second).
const RECV_CAP: Duration = Duration::from_secs(60);

/// TCP shards of the remote workload.
const SHARDS: usize = 2;

/// Thread name of a TCP shard's accept loop. It polls its listener every
/// 5 ms whatever the load, so its CPU time follows the phase's wall time
/// and the host's wake-up cost, not the sessions; it is booked apart.
const ACCEPT_THREAD: &str = "rqp-wire-accept";

/// Ids of set-up sessions, kept clear of the timed phase's ids.
const PRIME_ID: usize = 1 << 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Cold,
    Restart,
    Remote,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Warm, Kind::Cold, Kind::Restart, Kind::Remote];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Warm => "warm",
            Kind::Cold => "cold",
            Kind::Restart => "restart",
            Kind::Remote => "remote",
        }
    }

    /// Sessions per (fixture, algo) per mix cycle, in [`FIXTURES`] order.
    /// Cold latencies form one band per fixture (compile time), so its
    /// mix puts p50 in the middle of the 4D band and p90 inside the 5D
    /// band instead of on a band boundary.
    pub fn weights(self) -> [usize; 4] {
        match self {
            Kind::Cold => [1, 4, 2, 1],
            _ => [1, 1, 1, 1],
        }
    }

    /// Sessions in flight (closed loop); never above the 2 cores the
    /// benchmark is sized for.
    pub fn in_flight(self) -> usize {
        match self {
            Kind::Warm | Kind::Remote => 2,
            Kind::Cold | Kind::Restart => 1,
        }
    }

    /// Whether the registry is wiped before every session.
    pub fn wipe_each(self) -> bool {
        matches!(self, Kind::Cold | Kind::Restart)
    }

    /// A run's fixed session count, sized from `--seconds` by a nominal
    /// rate per workload. The rates spend a run's time where the spread
    /// needs it: on 2 vCPUs, `--seconds 20` plays 13–16 s of `warm`,
    /// 22–28 s of `restart` and 30 s of `remote`. Restart's wall time wanders
    /// most of the in-proc workloads; remote's two lanes deliver about 10
    /// sessions/s (each waits out a ~200 ms stall), and its CPU time per
    /// session, spent in a few wake-ups of idle threads, needs many
    /// sessions to average out. Cold plays about 40 s: its compile-bound
    /// latency follows the host's speed, which drifts over tens of
    /// seconds, and a longer run averages over more of it.
    /// The floor keeps p90 supported by at least ten samples beyond it.
    pub fn sessions_for(self, seconds: u64) -> usize {
        let rate = match self {
            Kind::Warm => 1500,
            Kind::Cold => 12,
            Kind::Restart => 700,
            Kind::Remote => 15,
        };
        (rate * seconds as usize).max(100)
    }
}

/// One update as the client received it.
enum Ev {
    /// Started or a discovery step.
    Progress(usize),
    Surface(usize, Lookup),
    Done(usize, Box<SessionResult>),
    Refused(usize, String),
}

impl Ev {
    fn id(&self) -> usize {
        match self {
            Ev::Progress(id) | Ev::Surface(id, _) | Ev::Done(id, _) | Ev::Refused(id, _) => *id,
        }
    }
}

/// An update, its receipt time, and (when capturing) the wire frame
/// that carries it.
struct Stamped {
    at: Instant,
    ev: Ev,
    frame: Option<Frame>,
}

/// The wire frame an in-proc update would travel as over TCP (the same
/// mapping the TCP host applies), for replaying the codec on in-proc runs.
fn frame_of(update: &SessionUpdate) -> Frame {
    let progress = |id, phase: &str, lookup: Option<Lookup>| Frame::Progress {
        id,
        phase: phase.to_string(),
        lookup: lookup.map(|l| l.label().to_string()),
        step: None,
        budget_bits: None,
        spent_bits: None,
        completed: None,
    };
    match update {
        SessionUpdate::Started { id } => progress(*id, "started", None),
        SessionUpdate::Surface { id, lookup } => progress(*id, "surface", Some(*lookup)),
        SessionUpdate::Step { id, step, budget, spent, completed } => Frame::Progress {
            id: *id,
            phase: "step".to_string(),
            lookup: None,
            step: Some(*step),
            budget_bits: Some(budget.to_bits()),
            spent_bits: Some(spent.to_bits()),
            completed: Some(*completed),
        },
        SessionUpdate::Finished(r) => Frame::Result(Box::new(WireResult::from_result(r))),
    }
}

fn ev_of_update(update: SessionUpdate) -> Ev {
    match update {
        SessionUpdate::Started { id } | SessionUpdate::Step { id, .. } => Ev::Progress(id),
        SessionUpdate::Surface { id, lookup } => Ev::Surface(id, lookup),
        SessionUpdate::Finished(r) => Ev::Done(r.id, r),
    }
}

fn ev_of_frame(frame: &Frame) -> Option<Ev> {
    match frame {
        Frame::Progress { id, phase, lookup, .. } if phase == "surface" => {
            Some(match lookup.as_deref().and_then(Lookup::from_label) {
                Some(l) => Ev::Surface(*id, l),
                None => Ev::Refused(*id, format!("bad lookup label {lookup:?}")),
            })
        }
        Frame::Progress { id, .. } => Some(Ev::Progress(*id)),
        Frame::Result(w) => Some(match w.as_ref().clone().into_result() {
            Ok(r) => Ev::Done(r.id, Box::new(r)),
            Err(e) => Ev::Refused(w.id, e.to_string()),
        }),
        Frame::Reject { id, .. } => Some(Ev::Refused(*id, "rejected: queue full".to_string())),
        Frame::Error { id: Some(id), message, .. } => Some(Ev::Refused(*id, message.clone())),
        _ => None,
    }
}

/// A workload's start state: a running in-proc server or a pair of TCP
/// shards with a connected client.
pub enum Target {
    InProc {
        server: Server,
        tx: Sender<SessionUpdate>,
        rx: Receiver<SessionUpdate>,
        /// Capture the wire-equivalent frame of every update.
        capture: bool,
    },
    Remote {
        hosts: Vec<TcpServeHost>,
        transport: Box<TcpTransport>,
        rx: Receiver<(Instant, Frame)>,
        /// Forward progress frames too, not just terminal ones.
        capture: Arc<AtomicBool>,
    },
}

impl Target {
    fn submit(&mut self, spec: SessionSpec) -> Result<(), String> {
        match self {
            Target::InProc { server, tx, .. } => {
                server.submit_with(spec, Some(tx.clone())).map_err(|e| e.to_string())
            }
            Target::Remote { transport, .. } => transport.submit(spec).map_err(|e| e.to_string()),
        }
    }

    fn recv(&self) -> Result<Stamped, String> {
        let timeout = |e: RecvTimeoutError| format!("no session update within {RECV_CAP:?}: {e}");
        match self {
            Target::InProc { rx, capture, .. } => {
                let update = rx.recv_timeout(RECV_CAP).map_err(timeout)?;
                let at = Instant::now();
                let frame = capture.then(|| frame_of(&update));
                Ok(Stamped { at, ev: ev_of_update(update), frame })
            }
            Target::Remote { rx, capture, .. } => loop {
                let (at, frame) = rx.recv_timeout(RECV_CAP).map_err(timeout)?;
                if let Some(ev) = ev_of_frame(&frame) {
                    let frame = capture.load(Ordering::Relaxed).then_some(frame);
                    return Ok(Stamped { at, ev, frame });
                }
            },
        }
    }

    pub fn wipe(&self) {
        if let Target::InProc { server, .. } = self {
            server.wipe_registry();
        }
    }

    pub fn set_capture(&mut self, on: bool) {
        match self {
            Target::InProc { capture, .. } => *capture = on,
            Target::Remote { capture, .. } => capture.store(on, Ordering::Relaxed),
        }
    }

    /// Registry counters (in-proc only; TCP shards report theirs at
    /// drain).
    pub fn registry_stats(&self) -> Option<rqp_serve::RegistryStats> {
        match self {
            Target::InProc { server, .. } => Some(server.registry_stats()),
            Target::Remote { .. } => None,
        }
    }

    /// Stop every thread the target started and wait for it. Returns the
    /// registry counters the shards report at drain (summed), if remote.
    pub fn shutdown(self) -> Result<Option<rqp_serve::RegistryStats>, String> {
        match self {
            Target::InProc { server, .. } => {
                server.drain();
                Ok(None)
            }
            Target::Remote { hosts, transport, .. } => {
                let report = (transport as Box<dyn Transport>).drain().map_err(|e| e.to_string());
                for host in hosts {
                    host.stop().map_err(|e| e.to_string())?;
                }
                Ok(Some(report?.registry))
            }
        }
    }
}

/// Scratch space for the restart workload's compile cache, inside the
/// working directory.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench-tmp").join(format!("run-{}", std::process::id()))
}

/// Build the workload's start state: compile every fixture once through
/// the serving tier (the registry for warm and remote, a warm-up pass for
/// cold, the snapshot files for restart), leaving the measured phase
/// nothing but its own work.
pub fn setup(kind: Kind, rep: usize) -> Result<Target, String> {
    let config = ServeConfig {
        workers: if kind == Kind::Warm { 2 } else { 1 },
        cache_dir: (kind == Kind::Restart).then(|| scratch_dir().join(format!("cache-{rep}"))),
        ..ServeConfig::default()
    };
    if let Some(dir) = &config.cache_dir {
        // A fresh directory per set-up, so each one pays for its stores.
        std::fs::remove_dir_all(dir).ok();
    }
    let target = if kind == Kind::Remote {
        remote(config)?
    } else {
        let server = Server::start(config).map_err(|e| e.to_string())?;
        let (tx, rx) = channel();
        let mut t = Target::InProc { server, tx, rx, capture: false };
        prime(&mut t)?;
        t
    };
    if kind.wipe_each() {
        target.wipe();
    }
    Ok(target)
}

fn prime_specs() -> impl Iterator<Item = SessionSpec> {
    FIXTURES.iter().enumerate().map(|(i, q)| SessionSpec::new(PRIME_ID + i, *q, "sb"))
}

/// Run one midpoint session per fixture, one at a time.
fn prime(target: &mut Target) -> Result<(), String> {
    for spec in prime_specs() {
        let id = spec.id;
        target.submit(spec)?;
        loop {
            match target.recv()?.ev {
                Ev::Done(got, r) if got == id => {
                    if !r.discovered() {
                        return Err(format!("set-up session {} ended {:?}", r.query, r.outcome));
                    }
                    break;
                }
                Ev::Refused(got, why) if got == id => return Err(format!("set-up refused: {why}")),
                _ => {}
            }
        }
    }
    Ok(())
}

/// Two in-process shards on loopback, warmed one fixture at a time
/// through throwaway clients that are drained before the measured client
/// connects.
fn remote(config: ServeConfig) -> Result<Target, String> {
    let mut hosts = Vec::new();
    for k in 0..SHARDS {
        let host = TcpServeHost::bind("127.0.0.1:0", config.clone(), Some((k, SHARDS)))
            .map_err(|e| e.to_string())?;
        hosts.push(host);
    }
    let addrs: Vec<String> = hosts.iter().map(|h| h.local_addr().to_string()).collect();
    // One throwaway client per fixture, so the shards compile one fixture
    // at a time; after `Bye` a shard flushes on its short drain tick, not
    // on the 200 ms read timeout.
    for spec in prime_specs() {
        let mut warmup: Box<dyn Transport> =
            Box::new(TcpTransport::connect(&addrs, None).map_err(|e| e.to_string())?);
        warmup.submit(spec).map_err(|e| e.to_string())?;
        let report = warmup.drain().map_err(|e| e.to_string())?;
        if report.results.len() != 1 || !report.results.iter().all(|r| r.discovered()) {
            return Err("a remote set-up session did not complete".to_string());
        }
    }
    let (tx, rx) = channel::<(Instant, Frame)>();
    let capture = Arc::new(AtomicBool::new(false));
    let observe = Arc::clone(&capture);
    let observer: FrameObserver = Arc::new(move |frame: &Frame| {
        let wanted = match frame {
            Frame::Stats(_) => false,
            Frame::Progress { .. } => observe.load(Ordering::Relaxed),
            _ => true,
        };
        if wanted {
            tx.send((Instant::now(), frame.clone())).ok();
        }
    });
    let transport =
        TcpTransport::connect_with(&addrs, None, Some(observer)).map_err(|e| e.to_string())?;
    Ok(Target::Remote { hosts, transport: Box::new(transport), rx, capture })
}

/// What the client saw of one session.
#[derive(Default)]
pub struct Sample {
    pub submit: Option<Instant>,
    pub lookup: Option<Lookup>,
    pub done: Option<Instant>,
    pub result: Option<Box<SessionResult>>,
    pub refused: Option<String>,
}

impl Sample {
    /// Client-observed latency: submit → terminal update received.
    pub fn latency(&self) -> Option<Duration> {
        Some(self.done?.duration_since(self.submit?))
    }
}

/// One closed-loop pass.
pub struct Pass {
    pub samples: Vec<Sample>,
    pub wall: Duration,
    /// Process CPU time over the pass, less the accept loops'.
    pub cpu_s: f64,
    /// CPU time of the TCP shards' accept loops over the pass.
    pub accept_cpu_s: f64,
    pub frames: Vec<Frame>,
}

/// Which lane each spec plays in. Remote has one lane per TCP shard,
/// routed by the same fingerprint the transport routes by, so each shard
/// connection carries its own closed loop; in-proc workloads have one.
fn lanes(kind: Kind, specs: &[SessionSpec]) -> Result<(usize, Vec<usize>), String> {
    if kind != Kind::Remote {
        return Ok((1, vec![0; specs.len()]));
    }
    let lane = specs
        .iter()
        .map(|s| {
            session_fingerprint(&s.query, None)
                .map(|fp| (fp % SHARDS as u64) as usize)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok((SHARDS, lane))
}

/// Submit one session, wiping the registry first where the workload asks
/// for it; false if the submit was refused.
fn submit(target: &mut Target, kind: Kind, spec: &SessionSpec, sample: &mut Sample) -> bool {
    if kind.wipe_each() {
        target.wipe();
    }
    sample.submit = Some(Instant::now());
    match target.submit(spec.clone()) {
        Ok(()) => true,
        Err(e) => {
            sample.refused = Some(e);
            false
        }
    }
}

/// Play `specs` (ids `specs[0].id..` contiguous) as a closed loop: each
/// lane keeps `kind.in_flight() / lanes` sessions outstanding and plays
/// its sessions in order.
pub fn closed_loop(target: &mut Target, kind: Kind, specs: &[SessionSpec]) -> Result<Pass, String> {
    let first = specs.first().map_or(0, |s| s.id);
    let (lane_count, lane_of) = lanes(kind, specs)?;
    let depth = kind.in_flight() / lane_count;
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); lane_count];
    for (i, &lane) in lane_of.iter().enumerate() {
        queues[lane].push_back(i);
    }
    let mut open = vec![0usize; lane_count];
    let mut samples: Vec<Sample> = specs.iter().map(|_| Sample::default()).collect();
    let mut frames = Vec::new();
    let mut finished = 0;
    let cpu0 = crate::stats::process_cpu_s()?;
    let accept0 = crate::stats::threads_cpu_s(ACCEPT_THREAD)?;
    let t0 = Instant::now();
    // Top a lane up to `depth` outstanding sessions; returns how many
    // submits were refused (they finish at once).
    let mut refill =
        |target: &mut Target, samples: &mut [Sample], open: &mut usize, lane: usize| {
            let mut refused = 0;
            while *open < depth {
                let Some(i) = queues[lane].pop_front() else { break };
                if submit(target, kind, &specs[i], &mut samples[i]) {
                    *open += 1;
                } else {
                    refused += 1;
                }
            }
            refused
        };
    for (lane, open) in open.iter_mut().enumerate() {
        finished += refill(target, &mut samples, open, lane);
    }
    while finished < specs.len() {
        let Stamped { at, ev, frame } = target.recv()?;
        let Some(i) = ev.id().checked_sub(first).filter(|&i| i < samples.len()) else {
            continue;
        };
        if let Some(f) = frame {
            frames.push(f);
        }
        let sample = &mut samples[i];
        match ev {
            Ev::Progress(_) => continue,
            Ev::Surface(_, lookup) => {
                sample.lookup = Some(lookup);
                continue;
            }
            Ev::Done(_, r) => sample.result = Some(r),
            Ev::Refused(_, why) => sample.refused = Some(why),
        }
        sample.done = Some(at);
        finished += 1;
        let lane = lane_of[i];
        open[lane] -= 1;
        finished += refill(target, &mut samples, &mut open[lane], lane);
    }
    let wall = t0.elapsed();
    let accept_cpu_s = crate::stats::threads_cpu_s(ACCEPT_THREAD)? - accept0;
    let cpu_s = crate::stats::process_cpu_s()? - cpu0 - accept_cpu_s;
    Ok(Pass { samples, wall, cpu_s, accept_cpu_s, frames })
}

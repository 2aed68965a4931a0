//! The framed wire protocol for network serving.
//!
//! A connection carries a stream of **frames**: a 4-byte big-endian
//! length prefix followed by one UTF-8 JSON document encoded with the
//! self-contained codec in `rqp_obs::json` (no external dependency that
//! the offline build can stub out). The length is validated against
//! [`MAX_FRAME_LEN`] *before* any allocation, so a hostile or corrupt
//! prefix cannot make the server reserve gigabytes.
//!
//! Every float that must survive the round trip byte-exactly
//! (suboptimality, costs, budgets) crosses the wire as its IEEE-754 bit
//! pattern (`f64::to_bits`, a JSON integer), never as a decimal
//! rendering — remote reports must be *byte-identical* to in-proc ones
//! under [`crate::ServeReport::stable_render`], and that guarantee would
//! die in a lossy float print.
//!
//! The frame vocabulary maps one-to-one onto the in-proc serving API;
//! see `DESIGN.md` ("Wire protocol") for the full table. Briefly:
//! [`Frame::Session`] is [`crate::Server::submit`], [`Frame::Reject`] is
//! the structured [`rqp_catalog::RqpError::Overloaded`] admission
//! refusal, [`Frame::Progress`] streams [`crate::SessionUpdate`]s, and
//! [`Frame::Result`]/[`Frame::Stats`] carry what a drain report holds.

use crate::registry::{Lookup, RegistryStats};
use crate::session::{SessionOutcome, SessionResult, SessionSpec};
use rqp_catalog::{RqpError, RqpResult};
use rqp_obs::json::{self, JsonValue, Map};
use std::io::{Read, Write};
use std::time::Duration;

/// Protocol version carried in the [`Frame::Hello`] greeting; a client
/// refuses to speak to a server on a different version.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one frame's payload length. A length prefix above this is
/// a protocol error and drops the connection before any allocation —
/// the anti-OOM guard for hostile or corrupt prefixes.
pub const MAX_FRAME_LEN: usize = 4 * 1024 * 1024;

/// How many consecutive read timeouts *mid-frame* are tolerated before
/// the peer is declared wedged and the connection dropped. Timeouts at a
/// frame boundary are normal idleness ([`WireRead::Idle`]); a peer that
/// sends half a frame and stalls is a slow-loris and gets cut off.
const MID_FRAME_TIMEOUT_CAP: usize = 300;

/// One decoded message. The `doc` comments state the in-proc call each
/// frame replaces.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Server → client greeting: protocol version and the shard identity
    /// of this process (`shard` in `0..shards`; an unsharded server is
    /// `0/1`). Replaces constructing a [`crate::Server`] handle.
    Hello {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        version: u64,
        /// This server's shard index.
        shard: usize,
        /// Total shard count the deployment was launched with.
        shards: usize,
    },
    /// Client → server: run one session. Replaces
    /// [`crate::Server::submit`].
    Session {
        /// Client-assigned session id (echoed on every later frame).
        id: usize,
        /// Workload name.
        query: String,
        /// Algorithm token.
        algo: String,
        /// Actual-location cell (`None` = grid midpoint).
        qa: Option<usize>,
        /// Chaos seed.
        seed: u64,
    },
    /// Server → client: live progress for a running session. Replaces
    /// the [`crate::SessionUpdate`] sink of
    /// [`crate::Server::submit_with`].
    Progress {
        /// Session id.
        id: usize,
        /// `started` | `surface` | `step`.
        phase: String,
        /// Lookup label for the `surface` phase.
        lookup: Option<String>,
        /// Step index for the `step` phase.
        step: Option<usize>,
        /// Step budget bits (`f64::to_bits`) for the `step` phase.
        budget_bits: Option<u64>,
        /// Step spent bits for the `step` phase.
        spent_bits: Option<u64>,
        /// Whether the step's execution completed, for the `step` phase.
        completed: Option<bool>,
    },
    /// Server → client: a session's terminal result. Replaces reading
    /// one entry of [`crate::ServeReport::results`].
    Result(Box<WireResult>),
    /// Server → client: admission refused — the wire form of the
    /// structured [`RqpError::Overloaded`] backpressure error.
    Reject {
        /// Session id that was refused.
        id: usize,
        /// Queue depth at refusal.
        queue_depth: usize,
        /// Configured queue capacity.
        cap: usize,
    },
    /// Server → client: a structured error (`id = None` means the
    /// connection itself, e.g. a malformed frame).
    Error {
        /// Session the error belongs to, if any.
        id: Option<usize>,
        /// Stable error class (`config` | `internal` | `overloaded` | …).
        code: String,
        /// Human-readable reason.
        message: String,
    },
    /// Client → server: no more sessions on this connection; stream the
    /// remaining results, then [`Frame::Stats`]. Replaces
    /// [`crate::Server::drain`]'s "no new submissions" half.
    Bye,
    /// Server → client: final registry counters for this shard, sent
    /// after every session submitted on the connection has its terminal
    /// frame. Replaces [`crate::Server::registry_stats`].
    Stats(RegistryStats),
    /// Client → server: stop the whole server process after draining
    /// (deployment control for drills and smoke tests).
    Shutdown,
}

/// A [`SessionResult`] as it crosses the wire. Floats travel as bit
/// patterns; the causal span tree stays server-side (it is queryable via
/// the telemetry endpoint) but the rendered discovery trace — the
/// byte-identical-local-vs-remote artifact — travels intact.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// Session id.
    pub id: usize,
    /// Workload name.
    pub query: String,
    /// Algorithm token (lowercased by the server).
    pub algo: String,
    /// Outcome label (see [`SessionOutcome::label`]).
    pub outcome: String,
    /// Structured reason for refusal/failure outcomes.
    pub detail: Option<String>,
    /// `f64::to_bits` of the accounted suboptimality.
    pub subopt_bits: Option<u64>,
    /// Executions in the discovery trace.
    pub steps: usize,
    /// Server-side wall clock, in nanoseconds.
    pub wall_nanos: u64,
    /// Registry lookup label ([`Lookup::label`]).
    pub lookup: Option<String>,
    /// `f64::to_bits` of the total accounted execution cost.
    pub total_cost_bits: Option<u64>,
    /// Rendered discovery trace (present when the server keeps traces).
    pub trace_render: Option<String>,
}

impl WireResult {
    /// Encode a finished session for the wire.
    pub fn from_result(r: &SessionResult) -> WireResult {
        let (outcome, detail) = match &r.outcome {
            SessionOutcome::BreakerOpen(why)
            | SessionOutcome::InvalidSpec(why)
            | SessionOutcome::Failed(why) => (r.outcome.label(), Some(why.clone())),
            other => (other.label(), None),
        };
        WireResult {
            id: r.id,
            query: r.query.clone(),
            algo: r.algo.clone(),
            outcome: outcome.to_string(),
            detail,
            subopt_bits: r.subopt.map(f64::to_bits),
            steps: r.steps,
            wall_nanos: u64::try_from(r.wall.as_nanos()).unwrap_or(u64::MAX),
            lookup: r.lookup.map(Lookup::label).map(str::to_string),
            total_cost_bits: r.total_cost.map(f64::to_bits),
            trace_render: r.trace_render.clone(),
        }
    }

    /// Decode back into the [`SessionResult`] an in-proc drain would have
    /// produced (spans stay server-side).
    ///
    /// # Errors
    /// [`RqpError::Config`] on an unknown outcome or lookup label.
    pub fn into_result(self) -> RqpResult<SessionResult> {
        let detail = self.detail.unwrap_or_default();
        let outcome = SessionOutcome::from_label(&self.outcome, detail)
            .ok_or_else(|| RqpError::Config(format!("unknown wire outcome {:?}", self.outcome)))?;
        let lookup =
            match self.lookup {
                None => None,
                Some(label) => Some(Lookup::from_label(&label).ok_or_else(|| {
                    RqpError::Config(format!("unknown wire lookup label {label:?}"))
                })?),
            };
        Ok(SessionResult {
            id: self.id,
            query: self.query,
            algo: self.algo,
            outcome,
            subopt: self.subopt_bits.map(f64::from_bits),
            steps: self.steps,
            wall: Duration::from_nanos(self.wall_nanos),
            lookup,
            trace_render: self.trace_render,
            total_cost: self.total_cost_bits.map(f64::from_bits),
            spans: Vec::new(),
        })
    }
}

/// What one [`read_frame`] call produced.
#[derive(Debug)]
pub enum WireRead {
    /// One decoded frame.
    Frame(Frame),
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Closed,
    /// A read timeout fired at a frame boundary — the connection is
    /// merely idle; poll again.
    Idle,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Write one frame: big-endian length prefix, then the JSON payload.
///
/// # Errors
/// [`RqpError::Internal`] on a socket error or a frame over
/// [`MAX_FRAME_LEN`] (nothing legitimate encodes that large).
pub fn write_frame(stream: &mut impl Write, frame: &Frame) -> RqpResult<()> {
    let body = frame.encode().to_json();
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME_LEN {
        return Err(RqpError::Internal(format!(
            "refusing to send a {}-byte frame (cap {MAX_FRAME_LEN})",
            bytes.len()
        )));
    }
    let len = (bytes.len() as u32).to_be_bytes();
    stream
        .write_all(&len)
        .and_then(|()| stream.write_all(bytes))
        .and_then(|()| stream.flush())
        .map_err(|e| RqpError::Internal(format!("wire write: {e}")))
}

/// Read one frame, tolerating read timeouts at a frame boundary (so a
/// server thread can poll its stop flag between frames).
///
/// # Errors
/// [`RqpError::Config`] for protocol violations (oversized length
/// prefix, undecodable payload, unknown frame type) and
/// [`RqpError::Internal`] for socket errors, mid-frame EOF, or a peer
/// that stalls mid-frame past the slow-loris cap. Either way the caller
/// must drop the connection: framing is lost.
pub fn read_frame(stream: &mut impl Read) -> RqpResult<WireRead> {
    let mut len_buf = [0u8; 4];
    match read_exact_tolerant(stream, &mut len_buf, true)? {
        ReadStatus::Done => {}
        ReadStatus::CleanEof => return Ok(WireRead::Closed),
        ReadStatus::Idle => return Ok(WireRead::Idle),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(RqpError::Config(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut body = vec![0u8; len];
    match read_exact_tolerant(stream, &mut body, false)? {
        ReadStatus::Done => {}
        // Both are mid-frame here: the prefix promised `len` more bytes.
        ReadStatus::CleanEof | ReadStatus::Idle => {
            return Err(RqpError::Internal("connection closed mid-frame".to_string()));
        }
    }
    let value = json::parse_bytes(&body)
        .map_err(|e| RqpError::Config(format!("undecodable frame payload: {e}")))?;
    Frame::decode(&value).map(WireRead::Frame)
}

enum ReadStatus {
    Done,
    CleanEof,
    Idle,
}

/// Fill `buf`, retrying timeouts. With `at_boundary`, EOF/timeout before
/// the first byte is a clean state rather than an error; once any byte
/// has arrived the frame must complete within the slow-loris cap.
fn read_exact_tolerant(
    stream: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> RqpResult<ReadStatus> {
    let mut got = 0usize;
    let mut stalls = 0usize;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && at_boundary {
                    return Ok(ReadStatus::CleanEof);
                }
                return Err(RqpError::Internal("connection closed mid-frame".to_string()));
            }
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if is_timeout(&e) => {
                if got == 0 && at_boundary {
                    return Ok(ReadStatus::Idle);
                }
                stalls += 1;
                if stalls > MID_FRAME_TIMEOUT_CAP {
                    return Err(RqpError::Internal(
                        "peer stalled mid-frame; dropping the connection".to_string(),
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(RqpError::Internal(format!("wire read: {e}"))),
        }
    }
    Ok(ReadStatus::Done)
}

// ---- JSON mapping -----------------------------------------------------

fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert(k.to_string(), v);
    }
    JsonValue::Object(m)
}

fn u(v: u64) -> JsonValue {
    JsonValue::from(v)
}

fn need_u64(v: &JsonValue, key: &str) -> RqpResult<u64> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| RqpError::Config(format!("frame field {key:?} missing or not an integer")))
}

fn need_usize(v: &JsonValue, key: &str) -> RqpResult<usize> {
    usize::try_from(need_u64(v, key)?)
        .map_err(|_| RqpError::Config(format!("frame field {key:?} out of range")))
}

fn need_str(v: &JsonValue, key: &str) -> RqpResult<String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| RqpError::Config(format!("frame field {key:?} missing or not a string")))
}

fn opt_u64(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key).and_then(JsonValue::as_u64)
}

fn opt_usize(v: &JsonValue, key: &str) -> Option<usize> {
    opt_u64(v, key).and_then(|x| usize::try_from(x).ok())
}

fn opt_str(v: &JsonValue, key: &str) -> Option<String> {
    v.get(key).and_then(JsonValue::as_str).map(str::to_string)
}

fn opt_bool(v: &JsonValue, key: &str) -> Option<bool> {
    v.get(key).and_then(JsonValue::as_bool)
}

impl Frame {
    /// Encode to the JSON document that goes inside a length-prefixed
    /// frame. The `"type"` member discriminates.
    pub fn encode(&self) -> JsonValue {
        match self {
            Frame::Hello { version, shard, shards } => obj(vec![
                ("type", JsonValue::from("hello")),
                ("version", u(*version)),
                ("shard", u(*shard as u64)),
                ("shards", u(*shards as u64)),
            ]),
            Frame::Session { id, query, algo, qa, seed } => {
                let mut pairs = vec![
                    ("type", JsonValue::from("session")),
                    ("id", u(*id as u64)),
                    ("query", JsonValue::from(query.as_str())),
                    ("algo", JsonValue::from(algo.as_str())),
                    ("seed", u(*seed)),
                ];
                if let Some(qa) = qa {
                    pairs.push(("qa", u(*qa as u64)));
                }
                obj(pairs)
            }
            Frame::Progress { id, phase, lookup, step, budget_bits, spent_bits, completed } => {
                let mut pairs = vec![
                    ("type", JsonValue::from("progress")),
                    ("id", u(*id as u64)),
                    ("phase", JsonValue::from(phase.as_str())),
                ];
                if let Some(l) = lookup {
                    pairs.push(("lookup", JsonValue::from(l.as_str())));
                }
                if let Some(s) = step {
                    pairs.push(("step", u(*s as u64)));
                }
                if let Some(b) = budget_bits {
                    pairs.push(("budget_bits", u(*b)));
                }
                if let Some(s) = spent_bits {
                    pairs.push(("spent_bits", u(*s)));
                }
                if let Some(c) = completed {
                    pairs.push(("completed", JsonValue::from(*c)));
                }
                obj(pairs)
            }
            Frame::Result(r) => {
                let mut pairs = vec![
                    ("type", JsonValue::from("result")),
                    ("id", u(r.id as u64)),
                    ("query", JsonValue::from(r.query.as_str())),
                    ("algo", JsonValue::from(r.algo.as_str())),
                    ("outcome", JsonValue::from(r.outcome.as_str())),
                    ("steps", u(r.steps as u64)),
                    ("wall_nanos", u(r.wall_nanos)),
                ];
                if let Some(d) = &r.detail {
                    pairs.push(("detail", JsonValue::from(d.as_str())));
                }
                if let Some(b) = r.subopt_bits {
                    pairs.push(("subopt_bits", u(b)));
                }
                if let Some(l) = &r.lookup {
                    pairs.push(("lookup", JsonValue::from(l.as_str())));
                }
                if let Some(b) = r.total_cost_bits {
                    pairs.push(("total_cost_bits", u(b)));
                }
                if let Some(t) = &r.trace_render {
                    pairs.push(("trace_render", JsonValue::from(t.as_str())));
                }
                obj(pairs)
            }
            Frame::Reject { id, queue_depth, cap } => obj(vec![
                ("type", JsonValue::from("reject")),
                ("id", u(*id as u64)),
                ("queue_depth", u(*queue_depth as u64)),
                ("cap", u(*cap as u64)),
            ]),
            Frame::Error { id, code, message } => {
                let mut pairs = vec![
                    ("type", JsonValue::from("error")),
                    ("code", JsonValue::from(code.as_str())),
                    ("message", JsonValue::from(message.as_str())),
                ];
                if let Some(id) = id {
                    pairs.push(("id", u(*id as u64)));
                }
                obj(pairs)
            }
            Frame::Bye => obj(vec![("type", JsonValue::from("bye"))]),
            Frame::Stats(s) => obj(vec![
                ("type", JsonValue::from("stats")),
                ("compiles", u(s.compiles)),
                ("hits", u(s.hits)),
                ("waits", u(s.waits)),
                ("disk_hits", u(s.disk_hits)),
                ("breaker_opens", u(s.breaker_opens)),
                ("breaker_reprobes", u(s.breaker_reprobes)),
                ("breaker_closes", u(s.breaker_closes)),
                ("breaker_refused", u(s.breaker_refused)),
                ("expired_waits", u(s.expired_waits)),
                ("entries", u(s.entries as u64)),
            ]),
            Frame::Shutdown => obj(vec![("type", JsonValue::from("shutdown"))]),
        }
    }

    /// Decode a frame payload.
    ///
    /// # Errors
    /// [`RqpError::Config`] on a missing/unknown `type` or missing
    /// required fields — protocol errors that drop the connection.
    pub fn decode(v: &JsonValue) -> RqpResult<Frame> {
        let kind = need_str(v, "type")?;
        match kind.as_str() {
            "hello" => Ok(Frame::Hello {
                version: need_u64(v, "version")?,
                shard: need_usize(v, "shard")?,
                shards: need_usize(v, "shards")?,
            }),
            "session" => Ok(Frame::Session {
                id: need_usize(v, "id")?,
                query: need_str(v, "query")?,
                algo: need_str(v, "algo")?,
                qa: opt_usize(v, "qa"),
                seed: need_u64(v, "seed")?,
            }),
            "progress" => Ok(Frame::Progress {
                id: need_usize(v, "id")?,
                phase: need_str(v, "phase")?,
                lookup: opt_str(v, "lookup"),
                step: opt_usize(v, "step"),
                budget_bits: opt_u64(v, "budget_bits"),
                spent_bits: opt_u64(v, "spent_bits"),
                completed: opt_bool(v, "completed"),
            }),
            "result" => Ok(Frame::Result(Box::new(WireResult {
                id: need_usize(v, "id")?,
                query: need_str(v, "query")?,
                algo: need_str(v, "algo")?,
                outcome: need_str(v, "outcome")?,
                detail: opt_str(v, "detail"),
                subopt_bits: opt_u64(v, "subopt_bits"),
                steps: need_usize(v, "steps")?,
                wall_nanos: need_u64(v, "wall_nanos")?,
                lookup: opt_str(v, "lookup"),
                total_cost_bits: opt_u64(v, "total_cost_bits"),
                trace_render: opt_str(v, "trace_render"),
            }))),
            "reject" => Ok(Frame::Reject {
                id: need_usize(v, "id")?,
                queue_depth: need_usize(v, "queue_depth")?,
                cap: need_usize(v, "cap")?,
            }),
            "error" => Ok(Frame::Error {
                id: opt_usize(v, "id"),
                code: need_str(v, "code")?,
                message: need_str(v, "message")?,
            }),
            "bye" => Ok(Frame::Bye),
            "stats" => Ok(Frame::Stats(RegistryStats {
                compiles: need_u64(v, "compiles")?,
                hits: need_u64(v, "hits")?,
                waits: need_u64(v, "waits")?,
                disk_hits: need_u64(v, "disk_hits")?,
                breaker_opens: need_u64(v, "breaker_opens")?,
                breaker_reprobes: need_u64(v, "breaker_reprobes")?,
                breaker_closes: need_u64(v, "breaker_closes")?,
                breaker_refused: need_u64(v, "breaker_refused")?,
                expired_waits: need_u64(v, "expired_waits")?,
                entries: need_usize(v, "entries")?,
            })),
            "shutdown" => Ok(Frame::Shutdown),
            other => Err(RqpError::Config(format!("unknown frame type {other:?}"))),
        }
    }

    /// The wire form of a refused session spec, from the structured
    /// admission error ([`RqpError::Overloaded`] → [`Frame::Reject`],
    /// anything else → [`Frame::Error`]).
    pub fn from_submit_error(spec: &SessionSpec, err: &RqpError) -> Frame {
        match err {
            RqpError::Overloaded { queue_depth, cap } => {
                Frame::Reject { id: spec.id, queue_depth: *queue_depth, cap: *cap }
            }
            RqpError::Config(msg) => {
                Frame::Error { id: Some(spec.id), code: "config".to_string(), message: msg.clone() }
            }
            other => Frame::Error {
                id: Some(spec.id),
                code: "internal".to_string(),
                message: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).expect("encode");
        let mut cursor = &buf[..];
        match read_frame(&mut cursor).expect("decode") {
            WireRead::Frame(f) => f,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Hello { version: PROTOCOL_VERSION, shard: 1, shards: 2 },
            Frame::Session {
                id: 7,
                query: "2D_Q91".to_string(),
                algo: "sb".to_string(),
                qa: Some(3),
                seed: 42,
            },
            Frame::Session {
                id: 8,
                query: "3D_Q15".to_string(),
                algo: "ab".to_string(),
                qa: None,
                seed: 8,
            },
            Frame::Progress {
                id: 7,
                phase: "step".to_string(),
                lookup: None,
                step: Some(2),
                budget_bits: Some(1.5f64.to_bits()),
                spent_bits: Some(0.25f64.to_bits()),
                completed: Some(false),
            },
            Frame::Reject { id: 9, queue_depth: 64, cap: 64 },
            Frame::Error { id: None, code: "config".to_string(), message: "nope".to_string() },
            Frame::Bye,
            Frame::Stats(RegistryStats { compiles: 1, hits: 14, waits: 1, ..Default::default() }),
            Frame::Shutdown,
        ];
        for f in &frames {
            assert_eq!(&roundtrip(f), f, "{f:?}");
        }
    }

    #[test]
    fn results_round_trip_bit_exactly() {
        // Including a subnormal, a NaN and an infinity: bit patterns, not
        // decimal renderings, are what crosses the wire.
        for subopt in [1.0, 1.0000000000000002, f64::INFINITY, f64::NAN, 5e-324] {
            let r = SessionResult {
                id: 3,
                query: "2D_Q91".to_string(),
                algo: "sb".to_string(),
                outcome: SessionOutcome::Completed,
                subopt: Some(subopt),
                steps: 4,
                wall: Duration::from_micros(1234),
                lookup: Some(Lookup::Waited),
                trace_render: Some("band 1 plan 2".to_string()),
                total_cost: Some(subopt * 3.0),
                spans: Vec::new(),
            };
            let wire = WireResult::from_result(&r);
            let back = match roundtrip(&Frame::Result(Box::new(wire))) {
                Frame::Result(w) => w.into_result().expect("decode result"),
                other => panic!("expected result frame, got {other:?}"),
            };
            assert_eq!(back.subopt.map(f64::to_bits), r.subopt.map(f64::to_bits));
            assert_eq!(back.total_cost.map(f64::to_bits), r.total_cost.map(f64::to_bits));
            assert_eq!(back.outcome, r.outcome);
            assert_eq!(back.lookup, r.lookup);
            assert_eq!(back.trace_render, r.trace_render);
            assert_eq!(back.wall, r.wall);
        }
    }

    #[test]
    fn outcome_details_survive() {
        let r = SessionResult {
            id: 0,
            query: "q".to_string(),
            algo: "sb".to_string(),
            outcome: SessionOutcome::InvalidSpec("qa 99 is out of range".to_string()),
            subopt: None,
            steps: 0,
            wall: Duration::ZERO,
            lookup: None,
            trace_render: None,
            total_cost: None,
            spans: Vec::new(),
        };
        let back = WireResult::from_result(&r).into_result().expect("decode");
        assert_eq!(back.outcome, r.outcome);
        let mut unknown = WireResult::from_result(&r);
        unknown.outcome = "vanished".to_string();
        match unknown.into_result() {
            Err(RqpError::Config(msg)) => assert_eq!(msg, "unknown wire outcome \"vanished\""),
            other => panic!("expected a Config error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_length_prefix_is_refused_before_allocation() {
        // 0xFFFF_FFFF = a 4 GiB promise; must fail on the cap check, not
        // by attempting the allocation.
        let mut cursor = &[0xffu8, 0xff, 0xff, 0xff, b'{', b'}'][..];
        let err = match read_frame(&mut cursor) {
            Err(e) => e.to_string(),
            Ok(f) => panic!("hostile prefix must not decode: {f:?}"),
        };
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn truncated_and_garbage_payloads_are_structured_errors() {
        // Length prefix promises 10 bytes, stream has 3.
        let mut cursor = &[0u8, 0, 0, 10, b'{', b'}', b'!'][..];
        assert!(read_frame(&mut cursor).is_err());
        // Correct length, non-JSON payload.
        let mut cursor = &[0u8, 0, 0, 3, 0xff, 0xfe, 0xfd][..];
        let err = match read_frame(&mut cursor) {
            Err(e) => e.to_string(),
            Ok(f) => panic!("garbage must not decode: {f:?}"),
        };
        assert!(err.contains("undecodable"), "{err}");
        // Valid JSON, not a frame.
        let mut cursor = &[0u8, 0, 0, 2, b'{', b'}'][..];
        assert!(read_frame(&mut cursor).is_err());
        // Clean EOF at a boundary.
        let mut cursor = &[][..];
        assert!(matches!(read_frame(&mut cursor), Ok(WireRead::Closed)));
    }

    #[test]
    fn submit_errors_map_to_wire_frames() {
        let spec = SessionSpec::new(5, "2D_Q91", "sb");
        let f = Frame::from_submit_error(&spec, &RqpError::Overloaded { queue_depth: 8, cap: 8 });
        assert_eq!(f, Frame::Reject { id: 5, queue_depth: 8, cap: 8 });
        let f = Frame::from_submit_error(&spec, &RqpError::Config("draining".to_string()));
        assert!(matches!(f, Frame::Error { id: Some(5), .. }), "{f:?}");
    }
}

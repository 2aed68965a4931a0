#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! `rqp-serve` — a concurrent multi-session discovery service over a
//! shared POSP registry.
//!
//! The paper's runtime story is per-query: compile the ESS once, then
//! discover. A serving deployment runs *many* sessions at once, and most
//! of them repeat a small set of query templates — so the expensive
//! compile (§7's repeated optimizer calls) must be shared, not repeated.
//! This crate provides:
//!
//! * [`EssRegistry`] — a fingerprint-keyed map, under one lock, of compiled
//!   [`rqp_ess::Ess`] surfaces with **single-flight** compilation: N
//!   simultaneous sessions for one fingerprint trigger exactly one
//!   compile, peers block on a condvar and share the resulting
//!   `Arc<Ess>`. A failed compile opens a per-fingerprint circuit
//!   breaker; an unwinding compile publishes a failure instead of
//!   wedging its waiters.
//! * [`Server`] — a bounded admission queue in front of a worker-thread
//!   pool. Admission is non-blocking: beyond the queue cap,
//!   [`Server::submit`] returns the structured
//!   [`rqp_catalog::RqpError::Overloaded`] instead of stalling the
//!   caller. Per-session deadlines and suboptimality budget caps turn
//!   runaway sessions into structured outcomes; [`Server::drain`]
//!   finishes every admitted session before shutdown.
//! * [`ServeReport`] — session-level MSO/ASO per (query, algorithm)
//!   group, throughput, and latency percentiles, the serving analogue of
//!   the paper's robustness metrics.
//! * Causal tracing ([`ServeConfig::tracing`]) — each session records a
//!   deterministic span tree (session → compile/wait → step → execution,
//!   see `rqp_obs::trace`) carried in [`SessionResult::spans`], and
//!   [`TelemetryServer`] ([`ServeConfig::telemetry_addr`]) serves
//!   `/metrics`, `/healthz` and `/trace/<session>` live on the running
//!   server.
//!
//! Sessions may carry chaos fault schedules ([`ServeConfig::chaos`]);
//! faults strike a session's *executions*, never the shared registry —
//! the compiled surface is immutable behind its `Arc`.
//!
//! The **resilience tier** (see `DESIGN.md`'s failure-domain map) hardens
//! the compile path itself: per-fingerprint **circuit breakers** with
//! exponential-backoff half-open re-probes replace permanent failure
//! caching; registry waits, supervised retries and contour steps are
//! bounded by a per-session [`rqp_obs::Deadline`]; the registry reads
//! through / writes behind the persistent compile cache so a wiped
//! registry ([`Server::wipe_registry`]) recovers with **zero recompiles**;
//! and [`ServeConfig::degrade`] serves breaker-open sessions with the
//! native optimizer's plan, flagged [`SessionOutcome::Degraded`]. The
//! [`drill`] module packages the crash-recovery and chaos-storm drills
//! that assert those invariants end to end.
//!
//! ```
//! use rqp_serve::{serve_workload, ServeConfig};
//! use rqp_workloads::parse_session_file;
//!
//! let entries = parse_session_file("2D_Q91 sb x4\n2D_Q91 ab x4\n").unwrap();
//! let report = serve_workload(ServeConfig::default(), &entries).unwrap();
//! assert_eq!(report.completed(), 8);
//! assert_eq!(report.registry.compiles, 1); // one fingerprint, one compile
//! ```

pub mod drill;
pub mod obs;
pub mod registry;
pub mod report;
pub mod server;
pub mod session;
pub mod telemetry;
pub mod transport;
pub mod wire;

pub use drill::{crash_recover_drill, storm_drill, DrillReport};
pub use obs::register_metrics;
pub use registry::{BreakerConfig, BreakerPhase, BreakerState, EssRegistry, Lookup, RegistryStats};
pub use report::{GroupStats, ServeReport};
pub use rqp_core::SharedSurface;
pub use server::{serve_workload, ServeConfig, Server, SessionUpdate, UpdateSink};
pub use session::{
    algo_by_name, resolve_qa, session_fingerprint, SessionOutcome, SessionResult, SessionSpec,
};
pub use telemetry::{HealthSource, TelemetryServer, TraceStore};
pub use transport::{
    run_entries, FrameObserver, InProcTransport, TcpServeHost, TcpTransport, Transport,
};
pub use wire::{
    read_frame, write_frame, Frame, WireRead, WireResult, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

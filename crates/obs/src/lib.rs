#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp)
)]

//! Observability for robust-qp: metrics, timing spans and a structured
//! event stream.
//!
//! The paper's own prototype leans on run-time monitoring — operator
//! selectivity observation and budgeted-execution accounting (§6.1) — and
//! flags ESS compilation ("repeated calls to the optimizer") as the
//! dominant overhead (§7). This crate provides the system-wide telemetry
//! layer the rest of the workspace records into:
//!
//! * a thread-safe [`MetricsRegistry`] of named [`Counter`]s, [`Gauge`]s
//!   and fixed-bucket [`Histogram`]s, with JSON and Prometheus-text
//!   exports ([`MetricsRegistry::snapshot`],
//!   [`MetricsRegistry::render_prometheus`]);
//! * lightweight RAII timing spans ([`Timer`]) feeding histograms;
//! * hierarchical causal tracing ([`trace::Tracer`]) with deterministic
//!   span ids, thread-local propagation ([`trace::install`] /
//!   [`trace::current`]) and two exporters: Chrome trace-event JSON
//!   ([`chrome_trace_json`]) and folded flamegraph stacks
//!   ([`folded_stacks`]);
//! * a pluggable structured [`EventSink`] (JSONL via [`JsonlSink`], or
//!   in-memory via [`MemorySink`]) behind a process-global switch. The
//!   default sink is *none*: [`events_enabled`] is a single relaxed atomic
//!   load, so instrumented code costs approximately nothing when
//!   observability is off.
//!
//! Metric mutation (counter increments, histogram observations) is always
//! on — individual operations are single relaxed atomics, negligible next
//! to the optimizer invocations and plan costings they account for.
//!
//! All metric names used across the workspace are centralized in
//! [`names`] so producers and consumers cannot drift apart.

pub mod deadline;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod names;
pub mod span;
pub mod trace;

pub use deadline::Deadline;
pub use event::{
    clear_sink, emit, events_enabled, flush_sink, set_sink, Event, EventSink, JsonlSink, MemorySink,
};
pub use export::{chrome_trace_json, chrome_trace_json_multi, folded_stacks};
pub use json::{JsonError, JsonValue};
pub use metrics::{
    escape_label_value, exponential_buckets, global, labeled, Counter, Gauge, Histogram,
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use span::{
    default_compile_buckets, default_latency_buckets, time_histogram, Stopwatch, Timer,
};
pub use trace::{
    current, install, structural_render, SpanGuard, SpanKind, SpanRecord, TraceScope, Tracer,
};

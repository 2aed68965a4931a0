//! Hierarchical causal tracing with deterministic identifiers.
//!
//! The metrics layer answers "how much, in aggregate"; this module answers
//! *where a particular session's budget went*: admission → shared-registry
//! compile (or wait-on-peer) → per-contour climb → per-attempt execution.
//! Each unit of work is a [`SpanRecord`] with a `trace_id`/`span_id`/
//! `parent_id` triple. Identifiers are **deterministic**: the caller seeds
//! the trace id (session fingerprint), and span ids come from a per-trace
//! counter — so under a quiet (fault-free, fixed-seed) schedule the
//! structural shape of a trace is byte-identical across runs (see
//! [`structural_render`]).
//!
//! A [`Tracer`] is a cheap-clone handle; [`Tracer::disabled`] is a no-op
//! whose spans cost two branch tests, so instrumented code pays nothing
//! when tracing is off. The current tracer is carried in a thread-local
//! ([`install`]/[`current`]) so deep call chains (registry → ess →
//! supervisor → engine) need no signature changes: each serve worker
//! installs its session's tracer for the duration of the session; threads
//! that never install one (e.g. the workers a real rayon pool would run
//! compile cells on; the vendored stub runs them on the caller) see the
//! disabled tracer.
//!
//! [`SpanGuard`] subsumes the histogram-feeding [`crate::Timer`]: attach a
//! histogram with [`SpanGuard::with_histogram`] and the guard observes its
//! elapsed seconds on drop in addition to recording the span.

use crate::json::JsonValue;
use crate::metrics::Histogram;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a span *is*, causally. The kinds map onto the paper's budget
/// accounting: a `Session` owns everything; `Compile`/`Wait` are the
/// shared-ESS cost (amortized, §7); `Contour` is one iso-cost band of the
/// doubling climb; `Step` is one discovery decision; `Execution` is one
/// budgeted engine run whose `spent` attribute feeds
/// `check_trace_accounting`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A whole serve session (or CLI discovery run).
    Session,
    /// An ESS/POSP compile performed by this trace.
    Compile,
    /// One phase inside a compile (seed DP, recosting, fallback DP…).
    CompilePhase,
    /// Blocked on a peer session's in-flight compile (single-flight wait).
    Wait,
    /// One iso-cost contour band of the discovery climb.
    Contour,
    /// One discovery decision step (plan choice, re-optimization round…).
    Step,
    /// One budgeted engine execution attempt.
    Execution,
}

impl SpanKind {
    /// Stable lowercase label, used as the Chrome trace-event category.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Session => "session",
            SpanKind::Compile => "compile",
            SpanKind::CompilePhase => "compile_phase",
            SpanKind::Wait => "wait",
            SpanKind::Contour => "contour",
            SpanKind::Step => "step",
            SpanKind::Execution => "execution",
        }
    }
}

/// One completed span. `start`/`duration` are seconds relative to the
/// trace epoch (the `Tracer`'s creation instant), so records from one
/// trace are mutually comparable without any wall-clock anchor.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Deterministic trace identifier (seeded by the caller).
    pub trace_id: u64,
    /// Span identifier, unique within the trace (counter, starts at 1).
    pub span_id: u64,
    /// Enclosing span, or `None` for a root span.
    pub parent_id: Option<u64>,
    /// Span name — a constant from [`crate::names`] (enforced by rqp-lint).
    pub name: &'static str,
    /// Causal kind of this span.
    pub kind: SpanKind,
    /// Seconds since the trace epoch at which the span opened.
    pub start: f64,
    /// Span length in seconds.
    pub duration: f64,
    /// Typed attributes (band index, budget, spent, …).
    pub attrs: Vec<(&'static str, JsonValue)>,
    /// Display lane (one per worker/session in the Chrome export).
    pub lane: u64,
}

impl SpanRecord {
    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&JsonValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// An attribute coerced to `f64` (Int/UInt/Num), if present.
    pub fn attr_f64(&self, key: &str) -> Option<f64> {
        match self.attr(key)? {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct TracerInner {
    trace_id: u64,
    lane: u64,
    next_span: AtomicU64,
    epoch: Instant,
    state: Mutex<TraceState>,
}

#[derive(Default)]
struct TraceState {
    spans: Vec<SpanRecord>,
    /// Open-span stack; the top is the parent for new spans. Sessions are
    /// single-threaded so plain LIFO discipline holds.
    stack: Vec<u64>,
}

/// A cheap-clone handle to one trace. Cloning shares the underlying
/// buffer; the disabled tracer makes every operation a no-op.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => write!(f, "Tracer(trace_id={:#x}, lane={})", i.trace_id, i.lane),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A no-op tracer: spans are never recorded.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A live tracer. `trace_id` should be derived deterministically from
    /// the session (e.g. compile fingerprint ⊕ session id); `lane` selects
    /// the display row in the Chrome export (e.g. the session id).
    pub fn new(trace_id: u64, lane: u64) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                trace_id,
                lane,
                next_span: AtomicU64::new(1),
                epoch: Instant::now(),
                state: Mutex::new(TraceState::default()),
            })),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The deterministic trace id, or 0 when disabled.
    pub fn trace_id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.trace_id)
    }

    /// Open a span. The guard records a [`SpanRecord`] when dropped; the
    /// span's parent is whatever span is currently open on this trace.
    /// `name` must be a constant from [`crate::names`].
    pub fn span(&self, name: &'static str, kind: SpanKind) -> SpanGuard {
        match &self.inner {
            None => SpanGuard {
                inner: None,
                span_id: 0,
                parent_id: None,
                name,
                kind,
                start: 0.0,
                wall: None,
                attrs: Vec::new(),
                hist: None,
            },
            Some(inner) => {
                let span_id = inner.next_span.fetch_add(1, Ordering::Relaxed);
                let parent_id = {
                    let mut st = inner.state.lock();
                    let parent = st.stack.last().copied();
                    st.stack.push(span_id);
                    parent
                };
                SpanGuard {
                    inner: Some(Arc::clone(inner)),
                    span_id,
                    parent_id,
                    name,
                    kind,
                    start: inner.epoch.elapsed().as_secs_f64(),
                    wall: Some(Instant::now()),
                    attrs: Vec::new(),
                    hist: None,
                }
            }
        }
    }

    /// Record a synthetic (already-measured) span of `seconds` under the
    /// currently open span. Used for aggregate phases measured with
    /// [`crate::Stopwatch`] across parallel workers, where live guards
    /// per unit would be too fine-grained. `name` must be a constant from
    /// [`crate::names`].
    pub fn record_span(
        &self,
        name: &'static str,
        kind: SpanKind,
        seconds: f64,
        attrs: Vec<(&'static str, JsonValue)>,
    ) {
        let Some(inner) = &self.inner else { return };
        let span_id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let end = inner.epoch.elapsed().as_secs_f64();
        let mut st = inner.state.lock();
        let parent_id = st.stack.last().copied();
        st.spans.push(SpanRecord {
            trace_id: inner.trace_id,
            span_id,
            parent_id,
            name,
            kind,
            start: (end - seconds).max(0.0),
            duration: seconds.max(0.0),
            attrs,
            lane: inner.lane,
        });
    }

    /// Snapshot the completed spans so far, ordered by start time (ties
    /// broken by span id, so the order is deterministic).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else { return Vec::new() };
        let mut spans = inner.state.lock().spans.clone();
        spans.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.span_id.cmp(&b.span_id))
        });
        spans
    }
}

/// RAII span guard. Records its [`SpanRecord`] on drop; optionally also
/// observes its elapsed seconds into a histogram ([`Self::with_histogram`]),
/// subsuming [`crate::Timer`] at sites that want both.
pub struct SpanGuard {
    inner: Option<Arc<TracerInner>>,
    span_id: u64,
    parent_id: Option<u64>,
    name: &'static str,
    kind: SpanKind,
    start: f64,
    wall: Option<Instant>,
    attrs: Vec<(&'static str, JsonValue)>,
    hist: Option<Arc<Histogram>>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpanGuard({} #{})", self.name, self.span_id)
    }
}

impl SpanGuard {
    /// Attach a typed attribute to the span.
    pub fn attr(&mut self, key: &'static str, value: impl Into<JsonValue>) {
        if self.inner.is_some() {
            self.attrs.push((key, value.into()));
        }
    }

    /// Also observe the guard's elapsed seconds into `hist` on drop
    /// (works even on a disabled tracer, replacing a bare [`crate::Timer`]).
    pub fn with_histogram(mut self, hist: &Arc<Histogram>) -> Self {
        if self.wall.is_none() {
            self.wall = Some(Instant::now());
        }
        self.hist = Some(Arc::clone(hist));
        self
    }

    /// The span id (0 on a disabled tracer).
    pub fn span_id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.wall.map_or(0.0, |w| w.elapsed().as_secs_f64());
        if let Some(h) = self.hist.take() {
            h.observe(elapsed);
        }
        let Some(inner) = self.inner.take() else { return };
        let mut st = inner.state.lock();
        // LIFO discipline: this guard should be the top of the stack. Be
        // robust to out-of-order drops (e.g. guards held across scopes) by
        // removing wherever the id sits.
        if let Some(pos) = st.stack.iter().rposition(|&id| id == self.span_id) {
            st.stack.remove(pos);
        }
        st.spans.push(SpanRecord {
            trace_id: inner.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            name: self.name,
            kind: self.kind,
            start: self.start,
            duration: elapsed,
            attrs: std::mem::take(&mut self.attrs),
            lane: inner.lane,
        });
    }
}

thread_local! {
    static CURRENT: RefCell<Tracer> = RefCell::new(Tracer::disabled());
}

/// The tracer installed on this thread, or the disabled tracer.
pub fn current() -> Tracer {
    CURRENT.with(|c| c.borrow().clone())
}

/// Install `tracer` as this thread's current tracer for the lifetime of
/// the returned scope; the previous tracer is restored on drop.
#[must_use = "the tracer is uninstalled when the scope drops"]
pub fn install(tracer: Tracer) -> TraceScope {
    let prev = CURRENT.with(|c| c.replace(tracer));
    TraceScope { prev: Some(prev) }
}

/// RAII scope for [`install`]; restores the previously installed tracer.
#[derive(Debug)]
pub struct TraceScope {
    prev: Option<Tracer>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| {
                *c.borrow_mut() = prev;
            });
        }
    }
}

/// Render the purely structural shape of a trace — nesting, names, kinds
/// and ids, **no timings** — so quiet-schedule traces can be compared
/// byte-for-byte in tests.
pub fn structural_render(spans: &[SpanRecord]) -> String {
    fn walk(spans: &[SpanRecord], parent: Option<u64>, depth: usize, out: &mut String) {
        let mut children: Vec<&SpanRecord> =
            spans.iter().filter(|s| s.parent_id == parent).collect();
        children.sort_by_key(|s| s.span_id);
        for s in children {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&format!("{} [{}] #{}\n", s.name, s.kind.as_str(), s.span_id));
            walk(spans, Some(s.span_id), depth + 1, out);
        }
    }
    let mut out = String::new();
    walk(spans, None, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let mut g = t.span("x", SpanKind::Step);
            g.attr("k", 1i64);
        }
        t.record_span("y", SpanKind::CompilePhase, 0.5, Vec::new());
        assert!(t.spans().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn nesting_and_deterministic_ids() {
        let t = Tracer::new(0xDEAD, 7);
        {
            let _root = t.span("root", SpanKind::Session);
            {
                let mut child = t.span("child", SpanKind::Step);
                child.attr("band", 3i64);
            }
            {
                let _second = t.span("second", SpanKind::Execution);
            }
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "root").expect("root span");
        assert_eq!(root.span_id, 1);
        assert_eq!(root.parent_id, None);
        assert_eq!(root.trace_id, 0xDEAD);
        assert_eq!(root.lane, 7);
        let child = spans.iter().find(|s| s.name == "child").expect("child span");
        assert_eq!(child.parent_id, Some(1));
        assert_eq!(child.attr_f64("band"), Some(3.0));
        let second = spans.iter().find(|s| s.name == "second").expect("second span");
        assert_eq!(second.parent_id, Some(1));
        assert_ne!(child.span_id, second.span_id);
    }

    #[test]
    fn structural_render_is_timing_free_and_stable() {
        let render = |_| {
            let t = Tracer::new(42, 0);
            {
                let _root = t.span("session", SpanKind::Session);
                {
                    let _c = t.span("compile", SpanKind::Compile);
                    t.record_span("phase", SpanKind::CompilePhase, 0.001, Vec::new());
                }
                let _e = t.span("exec", SpanKind::Execution);
            }
            structural_render(&t.spans())
        };
        let a = render(0);
        let b = render(1);
        assert_eq!(a, b, "quiet-schedule structural traces must be byte-identical");
        assert!(a.contains("session [session] #1"));
        assert!(a.contains("  compile [compile] #2"));
        assert!(a.contains("    phase [compile_phase] #3"));
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        assert!(!current().is_enabled());
        let outer = Tracer::new(1, 0);
        {
            let _s1 = install(outer.clone());
            assert_eq!(current().trace_id(), 1);
            {
                let _s2 = install(Tracer::new(2, 0));
                assert_eq!(current().trace_id(), 2);
            }
            assert_eq!(current().trace_id(), 1);
        }
        assert!(!current().is_enabled());
    }

    #[test]
    fn span_guard_feeds_histogram_like_timer() {
        let reg = crate::metrics::MetricsRegistry::new();
        let h = reg.histogram("span_guard_seconds", &crate::span::default_latency_buckets());
        let t = Tracer::new(9, 0);
        {
            let _g = t.span("timed", SpanKind::Contour).with_histogram(&h);
        }
        assert_eq!(h.count(), 1);
        assert_eq!(t.spans().len(), 1);
        // And on a disabled tracer the histogram still fires.
        {
            let _g = Tracer::disabled().span("timed", SpanKind::Contour).with_histogram(&h);
        }
        assert_eq!(h.count(), 2);
    }
}

//! The serving scheduler: a bounded admission queue in front of a pool of
//! OS worker threads, all sharing one [`EssRegistry`].
//!
//! Admission is **non-blocking by contract**: [`Server::submit`] either
//! enqueues the session or returns [`RqpError::Overloaded`] immediately.
//! Backpressure is therefore visible to the caller as a structured error
//! (to be retried after backoff) instead of an invisible stall — the
//! serving-side analogue of the paper's "no silent worst case" stance.
//!
//! Shutdown is a graceful drain: [`Server::drain`] closes the queue,
//! lets the workers finish every already-admitted session, and only then
//! joins them. Sessions admitted before the close are never dropped.

use crate::obs::metrics;
use crate::registry::{BreakerConfig, EssRegistry};
use crate::report::ServeReport;
use crate::session::{algo_by_name, name_digest, SessionOutcome, SessionResult, SessionSpec};
use rqp_catalog::{Estimator, RqpError, RqpResult};
use rqp_chaos::{CompileFaultConfig, CompileFaultPlan, FaultConfig, FaultPlan};
use rqp_core::{RobustRuntime, SharedSurface};
use rqp_ess::{compile_fingerprint, CompileCache, Ess, EssConfig, Grid, LazyEss};
use rqp_executor::Engine;
use rqp_obs::{names, Deadline};
use rqp_optimizer::Optimizer;
use rqp_qplan::CostModel;
use rqp_workloads::Workload;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing sessions (≥ 1).
    pub workers: usize,
    /// Admission-queue capacity; a submit beyond this is refused with
    /// [`RqpError::Overloaded`] (≥ 1).
    pub queue_cap: usize,
    /// ESS grid resolution override; `None` uses the coarse default for
    /// each query's dimensionality.
    pub resolution: Option<usize>,
    /// Per-session wall-clock deadline, measured from admission. A
    /// session past its deadline is failed, not silently run.
    pub deadline: Option<Duration>,
    /// Cap on accounted suboptimality; a discovery spending more ends in
    /// [`SessionOutcome::OverBudget`].
    pub budget_cap: Option<f64>,
    /// Base fault schedule injected into every session (chaos serving).
    /// Each session mixes its own seed in, so schedules are independent.
    pub chaos: Option<FaultConfig>,
    /// Keep each session's rendered discovery trace in its result.
    pub keep_traces: bool,
    /// Directory for the persistent compile cache shared by the registry
    /// (`None` = in-memory registry only).
    pub cache_dir: Option<PathBuf>,
    /// Record a causal trace per session (admission → compile/wait →
    /// contour → execution spans); results carry their spans and finished
    /// traces are published to the trace store.
    pub tracing: bool,
    /// Bind address for the live telemetry endpoint (`/metrics`,
    /// `/healthz`, `/trace/<session>`); `None` disables it.
    pub telemetry_addr: Option<String>,
    /// Circuit-breaker tuning for the shared registry (backoff window per
    /// consecutive compile failure).
    pub breaker: BreakerConfig,
    /// Compile-seam fault schedule for the registry (chaos drills):
    /// seeded compile panics/failures, slow IO and cache corruption.
    pub compile_chaos: Option<CompileFaultConfig>,
    /// Serve sessions whose fingerprint breaker is open with the native
    /// optimizer's plan (no ESS, no robustness guarantee) instead of
    /// refusing them — the answer is flagged [`SessionOutcome::Degraded`].
    pub degrade: bool,
    /// Serve sessions from lazy anytime surfaces: the registry publishes
    /// a shared [`rqp_ess::LazyEss`] after costing only the ladder
    /// anchors, and each session materializes just the contour bands its
    /// discovery reaches. Cold-start sessions run orders of magnitude
    /// sooner; surfaces finish on demand if a whole-surface consumer asks.
    pub lazy: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 64,
            resolution: None,
            deadline: None,
            budget_cap: None,
            chaos: None,
            keep_traces: false,
            cache_dir: None,
            tracing: false,
            telemetry_addr: None,
            breaker: BreakerConfig::default(),
            compile_chaos: None,
            degrade: false,
            lazy: false,
        }
    }
}

/// Live notifications a transport can subscribe to by submitting through
/// [`Server::submit_with`]. The TCP wire layer streams these to the
/// client as progress frames; in-proc callers normally pass no sink and
/// read everything from the drained [`ServeReport`].
#[derive(Debug, Clone)]
pub enum SessionUpdate {
    /// The session left the queue and started executing on a worker.
    Started {
        /// Session id.
        id: usize,
    },
    /// The registry lookup resolved — the session has its surface.
    Surface {
        /// Session id.
        id: usize,
        /// How the lookup resolved (compiled / hit / waited / restored).
        lookup: crate::registry::Lookup,
    },
    /// One discovery execution from the session's trace.
    Step {
        /// Session id.
        id: usize,
        /// Step index within the trace.
        step: usize,
        /// Cost budget granted to this execution.
        budget: f64,
        /// Cost actually spent.
        spent: f64,
        /// Whether the execution ran to completion (vs. budget kill).
        completed: bool,
    },
    /// Terminal: the session's full result (also in the drain report).
    Finished(Box<SessionResult>),
}

/// Where [`Server::submit_with`] delivers a session's live updates.
pub type UpdateSink = std::sync::mpsc::Sender<SessionUpdate>;

/// Send a live update, ignoring a hung-up receiver: the transport
/// connection owning the sink is gone, and the session result still lands
/// in the drain report.
fn notify(sink: Option<&UpdateSink>, update: impl FnOnce() -> SessionUpdate) {
    if let Some(sink) = sink {
        sink.send(update()).ok();
    }
}

struct Queued {
    spec: SessionSpec,
    admitted_at: Instant,
    sink: Option<UpdateSink>,
}

struct QueueState {
    queue: VecDeque<Queued>,
    closed: bool,
}

struct Inner {
    config: ServeConfig,
    registry: EssRegistry,
    state: Mutex<QueueState>,
    work_ready: Condvar,
    results: Mutex<Vec<SessionResult>>,
    active: std::sync::atomic::AtomicUsize,
    /// Finished-session Chrome traces, shared with the telemetry endpoint.
    traces: Arc<crate::telemetry::TraceStore>,
}

impl Inner {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running serving instance: admission queue, worker pool, shared
/// registry.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    started_at: Instant,
    telemetry: Option<crate::telemetry::TelemetryServer>,
}

impl Server {
    /// Validate the config, build the shared registry, and spawn the
    /// worker pool.
    ///
    /// # Errors
    /// [`RqpError::Config`] on a zero worker/queue size or an unusable
    /// cache directory; [`RqpError::Internal`] if the OS refuses to spawn
    /// a thread.
    pub fn start(config: ServeConfig) -> RqpResult<Server> {
        if config.workers == 0 {
            return Err(RqpError::Config("serve needs at least one worker".to_string()));
        }
        if config.queue_cap == 0 {
            return Err(RqpError::Config("serve queue capacity must be at least 1".to_string()));
        }
        crate::obs::register_metrics();
        let mut registry = EssRegistry::new().with_breaker(config.breaker);
        if let Some(dir) = &config.cache_dir {
            registry = registry.with_cache(CompileCache::new(dir.clone())?);
        }
        if let Some(chaos) = config.compile_chaos {
            registry = registry.with_compile_injector(Arc::new(CompileFaultPlan::new(chaos)));
        }
        let inner = Arc::new(Inner {
            registry,
            state: Mutex::new(QueueState { queue: VecDeque::new(), closed: false }),
            work_ready: Condvar::new(),
            results: Mutex::new(Vec::new()),
            active: std::sync::atomic::AtomicUsize::new(0),
            traces: Arc::new(crate::telemetry::TraceStore::new()),
            config,
        });
        let telemetry = match &inner.config.telemetry_addr {
            Some(addr) => {
                // The health closure keeps an `Arc<Inner>` alive for the
                // telemetry thread's lifetime; `drain` stops that thread
                // before the server is dropped, so no cycle survives.
                let health_inner = Arc::clone(&inner);
                let health: crate::telemetry::HealthSource =
                    Arc::new(move || breaker_health(&health_inner.registry));
                Some(crate::telemetry::TelemetryServer::start(
                    addr,
                    Arc::clone(&inner.traces),
                    Some(health),
                )?)
            }
            None => None,
        };
        let mut workers = Vec::with_capacity(inner.config.workers);
        for i in 0..inner.config.workers {
            let inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("rqp-serve-{i}"))
                .spawn(move || worker_loop(&inner))
                .map_err(|e| RqpError::Internal(format!("cannot spawn serve worker: {e}")))?;
            workers.push(handle);
        }
        Ok(Server { inner, workers, started_at: Instant::now(), telemetry })
    }

    /// Admit a session, or refuse it immediately if the queue is full.
    ///
    /// # Errors
    /// [`RqpError::Overloaded`] (queue at capacity) or
    /// [`RqpError::Config`] (server already draining). Neither blocks.
    pub fn submit(&self, spec: SessionSpec) -> RqpResult<()> {
        self.submit_with(spec, None)
    }

    /// [`submit`](Self::submit), plus a live [`SessionUpdate`] sink the
    /// worker notifies as the session progresses (started → surface →
    /// per-step → finished). The wire transport uses one sink per
    /// connection to stream progress frames.
    ///
    /// # Errors
    /// Same contract as [`submit`](Self::submit).
    pub fn submit_with(&self, spec: SessionSpec, sink: Option<UpdateSink>) -> RqpResult<()> {
        let m = metrics();
        let mut st = self.inner.lock_state();
        if st.closed {
            return Err(RqpError::Config("server is draining; no new sessions".to_string()));
        }
        if st.queue.len() >= self.inner.config.queue_cap {
            let (depth, cap) = (st.queue.len(), self.inner.config.queue_cap);
            drop(st);
            m.rejected.inc();
            if rqp_obs::events_enabled() {
                rqp_obs::emit(
                    rqp_obs::Event::new(names::EV_SESSION_REJECTED)
                        .with("session", spec.id as u64)
                        .with("query", spec.query.as_str())
                        .with("queue_depth", depth as u64)
                        .with("cap", cap as u64),
                );
            }
            return Err(RqpError::Overloaded { queue_depth: depth, cap });
        }
        m.admitted.inc();
        if rqp_obs::events_enabled() {
            rqp_obs::emit(
                rqp_obs::Event::new(names::EV_SESSION_ADMITTED)
                    .with("session", spec.id as u64)
                    .with("query", spec.query.as_str())
                    .with("algo", spec.algo.as_str()),
            );
        }
        st.queue.push_back(Queued { spec, admitted_at: Instant::now(), sink });
        m.queue_depth.set(st.queue.len() as f64);
        drop(st);
        self.inner.work_ready.notify_one();
        Ok(())
    }

    /// Sessions currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.lock_state().queue.len()
    }

    /// The shared registry's lifetime counters.
    pub fn registry_stats(&self) -> crate::registry::RegistryStats {
        self.inner.registry.stats()
    }

    /// Wipe the in-memory registry (the crash-recovery drill's simulated
    /// process restart). With a cache directory configured, subsequent
    /// sessions restore from the disk tier with zero recompiles.
    pub fn wipe_registry(&self) {
        self.inner.registry.wipe();
    }

    /// Every fingerprint's current circuit-breaker phase (see
    /// [`EssRegistry::breaker_states`]).
    pub fn breaker_states(&self) -> Vec<crate::registry::BreakerState> {
        self.inner.registry.breaker_states()
    }

    /// The ordered breaker transition log (see
    /// [`EssRegistry::breaker_transitions`]).
    pub fn breaker_transitions(&self) -> Vec<crate::registry::BreakerTransition> {
        self.inner.registry.breaker_transitions()
    }

    /// The telemetry endpoint's bound address (`None` when disabled).
    /// With `telemetry_addr` set to port 0, this reveals the chosen port.
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.telemetry.as_ref().map(crate::telemetry::TelemetryServer::local_addr)
    }

    /// Close the queue, let the workers finish every admitted session,
    /// join them, and summarize the run.
    pub fn drain(self) -> ServeReport {
        let m = metrics();
        let drained = {
            let mut st = self.inner.lock_state();
            st.closed = true;
            st.queue.len()
        };
        m.drained.add(drained as u64);
        self.inner.work_ready.notify_all();
        for handle in self.workers {
            // A worker that panicked already published what it could; the
            // drain still returns every recorded result.
            let _ = handle.join();
        }
        if let Some(telemetry) = self.telemetry {
            // rqp-lint: allow(swallowed-result): TelemetryServer::stop returns (); the name pools with the fallible TcpServeHost::stop
            telemetry.stop();
        }
        let results =
            std::mem::take(&mut *self.inner.results.lock().unwrap_or_else(PoisonError::into_inner));
        let report = ServeReport {
            results,
            registry: self.inner.registry.stats(),
            drained,
            wall: self.started_at.elapsed(),
        };
        if rqp_obs::events_enabled() {
            rqp_obs::emit(
                rqp_obs::Event::new(names::EV_SERVE_DRAIN)
                    .with("completed", report.count(|r| r.outcome == SessionOutcome::Completed))
                    .with("failed", report.count(|r| r.outcome != SessionOutcome::Completed))
                    .with("drained", drained as u64)
                    .with("seconds", report.wall.as_secs_f64()),
            );
        }
        report
    }
}

fn worker_loop(inner: &Inner) {
    let m = metrics();
    loop {
        let queued = {
            let mut st = inner.lock_state();
            loop {
                if let Some(q) = st.queue.pop_front() {
                    m.queue_depth.set(st.queue.len() as f64);
                    break Some(q);
                }
                if st.closed {
                    break None;
                }
                st = inner.work_ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(queued) = queued else { return };
        use std::sync::atomic::Ordering;
        let sink = queued.sink.clone();
        notify(sink.as_ref(), || SessionUpdate::Started { id: queued.spec.id });
        m.sessions_active.set((inner.active.fetch_add(1, Ordering::Relaxed) + 1) as f64);
        let result = run_session(inner, queued);
        m.sessions_active.set((inner.active.fetch_sub(1, Ordering::Relaxed) - 1) as f64);
        m.session_seconds.observe(result.wall.as_secs_f64());
        match result.outcome {
            SessionOutcome::Completed => m.completed.inc(),
            // degraded sessions produced an answer; run_degraded counted
            // them in rqp_serve_degraded_total already
            SessionOutcome::Degraded => {}
            _ => m.failed.inc(),
        }
        if rqp_obs::events_enabled() {
            let mut ev = rqp_obs::Event::new(names::EV_SESSION_COMPLETE)
                .with("session", result.id as u64)
                .with("query", result.query.as_str())
                .with("algo", result.algo.as_str())
                .with("outcome", result.outcome.label())
                .with("seconds", result.wall.as_secs_f64());
            if let Some(s) = result.subopt {
                ev = ev.with("subopt", s);
            }
            rqp_obs::emit(ev);
        }
        inner.results.lock().unwrap_or_else(PoisonError::into_inner).push(result.clone());
        notify(sink.as_ref(), || SessionUpdate::Finished(Box::new(result)));
    }
}

/// Render the registry's circuit-breaker summary for `/healthz`: one
/// aggregate line plus one line per non-closed fingerprint, appended
/// after the `ok` liveness line.
fn breaker_health(registry: &EssRegistry) -> String {
    use crate::registry::BreakerPhase;
    use std::fmt::Write as _;
    let states = registry.breaker_states();
    let open = states.iter().filter(|s| s.phase == BreakerPhase::Open).count();
    let half = states.iter().filter(|s| s.phase == BreakerPhase::HalfOpen).count();
    let mut s = String::new();
    let _ =
        writeln!(s, "breakers: {} fingerprint(s), {} open, {} half_open", states.len(), open, half);
    for st in states.iter().filter(|s| s.phase != BreakerPhase::Closed) {
        let _ = writeln!(
            s,
            "breaker fp={:016x} phase={} failures={}",
            st.fp,
            st.phase.label(),
            st.failures
        );
    }
    s
}

/// Wrap one session in its causal trace: derive the deterministic trace
/// id, install the tracer on this worker thread, open the root session
/// span, run the session, and collect the spans into the result (and the
/// shared trace store for the telemetry endpoint).
fn run_session(inner: &Inner, queued: Queued) -> SessionResult {
    let spec = &queued.spec;
    let tracer = if inner.config.tracing {
        // deterministic: same (query, algo, id) → same trace id across runs
        let trace_id =
            name_digest(&spec.query) ^ name_digest(&spec.algo).rotate_left(17) ^ spec.id as u64;
        rqp_obs::Tracer::new(trace_id, spec.id as u64)
    } else {
        rqp_obs::Tracer::disabled()
    };
    let scope = rqp_obs::install(tracer.clone());
    let mut session_span = tracer.span(names::SPAN_SESSION, rqp_obs::SpanKind::Session);
    session_span.attr("session", spec.id as u64);
    session_span.attr("query", spec.query.as_str());
    session_span.attr("algo", spec.algo.as_str());
    let mut result = run_session_inner(inner, queued);
    session_span.attr("outcome", result.outcome.label());
    if let Some(total) = result.total_cost {
        session_span.attr("total_cost", total);
    }
    if let Some(s) = result.subopt {
        session_span.attr("subopt", s);
    }
    drop(session_span);
    drop(scope);
    if tracer.is_enabled() {
        result.spans = tracer.spans();
        inner.traces.insert(result.id, rqp_obs::chrome_trace_json(&result.spans).to_json_pretty());
    }
    result
}

/// Execute one admitted session end to end: resolve the workload, fetch
/// (or single-flight compile) the shared ESS, admit a runtime against it,
/// attach the session's fault schedule, and run discovery.
fn run_session_inner(inner: &Inner, queued: Queued) -> SessionResult {
    let Queued { spec, admitted_at, sink } = queued;
    let algo_token = spec.algo.to_ascii_lowercase();
    let mut result = SessionResult {
        id: spec.id,
        query: spec.query.clone(),
        algo: algo_token,
        outcome: SessionOutcome::Completed,
        subopt: None,
        steps: 0,
        wall: Duration::ZERO,
        lookup: None,
        trace_render: None,
        total_cost: None,
        spans: Vec::new(),
    };
    let finish = |mut r: SessionResult, outcome: SessionOutcome| {
        r.outcome = outcome;
        r.wall = admitted_at.elapsed();
        r
    };
    let past_deadline = || inner.config.deadline.is_some_and(|d| admitted_at.elapsed() > d);
    if past_deadline() {
        return finish(result, SessionOutcome::DeadlineExpired);
    }
    let algo = match algo_by_name(&spec.algo) {
        Ok(a) => a,
        Err(e) => return finish(result, SessionOutcome::Failed(e.to_string())),
    };
    let w = match Workload::by_name(&spec.query) {
        Ok(w) => w,
        Err(e) => return finish(result, SessionOutcome::Failed(e.to_string())),
    };
    let model = CostModel::default();
    let mut cfg = EssConfig::coarse(w.query.dims());
    if let Some(r) = inner.config.resolution {
        cfg.resolution = r;
    }
    // The session deadline, anchored at admission: it bounds the registry
    // wait (timed condvar), the supervised retries, and the final check
    // below. `None` config → an unbounded deadline that never lapses.
    let deadline = inner
        .config
        .deadline
        .and_then(|d| admitted_at.checked_add(d))
        .map_or(Deadline::none(), Deadline::at);
    let fp = compile_fingerprint(&w.catalog, &w.query, &model, &cfg);
    // The compile can carry an injected panic (chaos schedules); the
    // registry's drop guard turns that into an open breaker, and the
    // catch here keeps the worker thread alive to serve the next session.
    let lookup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        inner.registry.get_or_compile(fp, deadline, || {
            let optimizer = Optimizer::new(&w.catalog, &w.query, model);
            if inner.config.lazy {
                // Anytime serving: publish after the ladder anchors only;
                // this session (and its peers) pull bands on demand.
                LazyEss::begin(&optimizer, cfg).map(SharedSurface::lazy)
            } else {
                // the registry's disk tier is this compile's only cache
                Ok(SharedSurface::eager(Arc::new(Ess::compile(&optimizer, cfg)?)))
            }
        })
    }))
    .unwrap_or_else(|_| {
        Err(RqpError::Internal("ESS compile panicked; breaker opened".to_string()))
    });
    let (surface, how) = match lookup {
        Ok(pair) => pair,
        Err(RqpError::DeadlineExpired { .. }) => {
            return finish(result, SessionOutcome::DeadlineExpired)
        }
        Err(e @ RqpError::BreakerOpen { .. }) => {
            if inner.config.degrade {
                return run_degraded(&w, model, &cfg, &spec, result, finish);
            }
            return finish(result, SessionOutcome::BreakerOpen(e.to_string()));
        }
        Err(e) => return finish(result, SessionOutcome::Failed(e.to_string())),
    };
    result.lookup = Some(how);
    notify(sink.as_ref(), || SessionUpdate::Surface { id: spec.id, lookup: how });
    let mut rt = match RobustRuntime::with_surface(&w.catalog, &w.query, model, surface) {
        Ok(rt) => rt,
        Err(e) => return finish(result, SessionOutcome::Failed(e.to_string())),
    };
    rt.set_deadline(deadline);
    let plan = inner.config.chaos.map(|base| {
        let mut fc = base;
        fc.seed = fc.seed.wrapping_add(spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        FaultPlan::new(fc)
    });
    if let Some(plan) = &plan {
        rt.set_fault_injector(plan);
    }
    let cells = rt.grid().num_cells();
    let qa = match crate::session::resolve_qa(spec.qa, cells) {
        Ok(qa) => qa,
        Err(e) => {
            metrics().invalid_spec.inc();
            return finish(result, SessionOutcome::InvalidSpec(e.to_string()));
        }
    };
    let trace = algo.discover(&rt, qa);
    // Send the discovery steps to a live transport before the terminal
    // result frame, off the finished trace, so remote and local observers
    // see the identical step sequence. They go out after `discover`
    // returns rather than as the supervisor records each step: sending
    // from inside discovery cost warm sessions (about 93 steps each)
    // 22-25% more CPU, and batching the sends per band still cost 8-15%.
    if let Some(sink) = &sink {
        for (i, step) in trace.steps.iter().enumerate() {
            sink.send(SessionUpdate::Step {
                id: spec.id,
                step: i,
                budget: step.budget,
                spent: step.spent,
                completed: step.completed,
            })
            .ok();
        }
    }
    result.subopt = Some(trace.subopt());
    result.steps = trace.num_executions();
    result.total_cost = Some(trace.total_cost);
    if inner.config.keep_traces {
        result.trace_render = Some(trace.render());
    }
    if let Some(reason) = trace.failure {
        return finish(result, SessionOutcome::Failed(reason));
    }
    if past_deadline() {
        return finish(result, SessionOutcome::DeadlineExpired);
    }
    if inner.config.budget_cap.is_some_and(|cap| trace.total_cost > cap * trace.oracle_cost) {
        return finish(result, SessionOutcome::OverBudget);
    }
    finish(result, SessionOutcome::Completed)
}

/// Graceful degradation when the fingerprint's breaker is open: serve the
/// session the way a traditional engine would — the native optimizer's
/// plan at the estimated location, executed unbudgeted — instead of
/// refusing it. No ESS means no MSO guarantee; the outcome is flagged
/// [`SessionOutcome::Degraded`] and counted so the degradation is never
/// silent.
fn run_degraded<F>(
    w: &Workload,
    model: CostModel,
    cfg: &EssConfig,
    spec: &SessionSpec,
    mut result: SessionResult,
    finish: F,
) -> SessionResult
where
    F: FnOnce(SessionResult, SessionOutcome) -> SessionResult,
{
    // The ESS grid geometry without the ESS: enough to resolve the
    // session's qa cell to selectivities and cost the oracle plan there.
    let grid = match Grid::uniform(w.query.dims(), cfg.resolution, cfg.min_sel) {
        Ok(g) => g,
        Err(e) => return finish(result, SessionOutcome::Failed(e.to_string())),
    };
    let qe = match Estimator::new(&w.catalog).estimated_location(&w.query) {
        Ok(qe) => qe,
        Err(e) => return finish(result, SessionOutcome::Failed(e.to_string())),
    };
    let optimizer = Optimizer::new(&w.catalog, &w.query, model);
    let planned = optimizer.optimize(&qe);
    let cells = grid.num_cells();
    let qa = match crate::session::resolve_qa(spec.qa, cells) {
        Ok(qa) => qa,
        Err(e) => {
            metrics().invalid_spec.inc();
            return finish(result, SessionOutcome::InvalidSpec(e.to_string()));
        }
    };
    let qa_loc = grid.location(qa);
    let engine = Engine::new(&w.catalog, &w.query, model);
    let out = engine.execute_budgeted(&planned.plan, &qa_loc, f64::INFINITY);
    let oracle = optimizer.optimize(&qa_loc).cost;
    result.subopt = (oracle > 0.0).then(|| out.spent() / oracle);
    result.steps = 1;
    result.total_cost = Some(out.spent());
    metrics().degraded.inc();
    if rqp_obs::events_enabled() {
        rqp_obs::emit(
            rqp_obs::Event::new(names::EV_SESSION_DEGRADED)
                .with("session", spec.id as u64)
                .with("query", spec.query.as_str())
                .with("algo", spec.algo.as_str()),
        );
    }
    finish(result, SessionOutcome::Degraded)
}

/// Expand session-file entries into specs, submit them all, and drain.
///
/// Entries beyond the queue capacity are refused by admission control
/// (the structured [`RqpError::Overloaded`]) and recorded as
/// [`SessionOutcome::Rejected`] results — the driver never blocks on a
/// full queue and never silently drops a session.
///
/// # Errors
/// Propagates [`Server::start`] configuration errors; per-session
/// failures are reported in the [`ServeReport`], not as an `Err`.
pub fn serve_workload(
    config: ServeConfig,
    entries: &[rqp_workloads::SessionEntry],
) -> RqpResult<ServeReport> {
    let transport = Box::new(crate::transport::InProcTransport::start(config)?);
    crate::transport::run_entries(transport, entries)
}

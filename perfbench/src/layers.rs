//! The traced run: half the session list once untraced and once with the
//! program's events recorded, then direct timings of the lower layers'
//! public calls and snapshots of the `rqp_obs` counters the program keeps.
//!
//! Per-session layer split, from the program's own events timestamped
//! by an event sink on this process's monotonic clock (the TCP shards run
//! in-process too), so it needs no timely progress frames:
//! * `session_admitted` marks admission, `session_complete` the end of
//!   the server's work, on the worker thread that ran the session;
//! * the session started on its worker when that thread completed its
//!   previous session, or at admission if the worker was idle: queue wait
//!   runs from the client's submit to that start (so over TCP it includes
//!   the inbound hop);
//! * its first `budgeted_execution`/`spill_execution` event on that
//!   thread ends the registry lookup (compile, restore or hit) and starts
//!   the run; a completed session without one inside its span fails;
//! * delivery is the client-observed latency minus the server-reported
//!   `wall`.
//!
//! Two checks tie these clocks together, each within [`SUM_TOL_ABS_MS`]
//! plus [`SUM_TOL_REL`] of the mean client latency:
//! * per session, the event-timed span (admission event to completion
//!   event) must not be shorter than the program's own `wall`, and on
//!   average it may exceed it by at most the tolerance;
//! * the layer sum differs from the client latency by exactly the
//!   submit-to-admission hop plus that span gap, so its mean must agree
//!   with the mean latency within the tolerance.

use crate::check;
use crate::drive::{self, Kind, Pass};
use crate::fixtures::Fixtures;
use crate::gen::{fixture_index, ALGOS, FIXTURES};
use crate::stats::{mean, median};
use crate::{Metric, Outcome};
use rqp_core::{ExecMode, PlanRef};
use rqp_ess::{compile_fingerprint, CompileCache, Ess, PospSnapshot};
use rqp_executor::Engine;
use rqp_obs::{names, Event, EventSink};
use rqp_qplan::CostModel;
use rqp_serve::{algo_by_name, read_frame, write_frame, Frame, Lookup, SessionSpec, WireRead};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Span and layer-sum tolerance: absolute part, in ms.
pub const SUM_TOL_ABS_MS: f64 = 0.05;
/// Span and layer-sum tolerance: share of the mean client latency.
pub const SUM_TOL_REL: f64 = 0.02;

/// Repetitions of each direct layer timing; the median is reported.
const REPS: usize = 3;
/// Sessions per algorithm replayed through discovery and the executor.
const REPLAY_PER_ALGO: usize = 150;
/// Grid cells per fixture timed through the optimizer.
const OPTIMIZE_CELLS: usize = 64;

/// Server-side session boundaries, from the program's own events.
#[derive(Default)]
struct ServerClock(Mutex<ClockState>);

#[derive(Default)]
struct ClockState {
    admitted: HashMap<u64, Instant>,
    /// Per worker thread: its last completion, and its first execution
    /// since then.
    threads: HashMap<ThreadId, (Option<Instant>, Option<Instant>)>,
    /// Per session: the previous completion on its worker thread, its
    /// first execution, and its completion.
    sessions: HashMap<u64, (Option<Instant>, Option<Instant>, Instant)>,
}

impl EventSink for ServerClock {
    fn record(&self, event: &Event) {
        let at = Instant::now();
        let session = || event.fields.get("session").and_then(|v| v.as_u64());
        let mut st = self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match event.name.as_str() {
            names::EV_SESSION_ADMITTED => {
                if let Some(id) = session() {
                    st.admitted.insert(id, at);
                }
            }
            names::EV_BUDGETED_EXECUTION | names::EV_SPILL_EXECUTION => {
                st.threads.entry(std::thread::current().id()).or_default().1.get_or_insert(at);
            }
            names::EV_SESSION_COMPLETE => {
                let thread = st.threads.entry(std::thread::current().id()).or_default();
                let (previous, first) = (thread.0.replace(at), thread.1.take());
                if let Some(id) = session() {
                    st.sessions.insert(id, (previous, first, at));
                }
            }
            _ => {}
        }
    }
}

fn counter(name: &str) -> u64 {
    rqp_obs::global().counter(name).get()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median over [`REPS`] runs of `f`, in whatever unit `f` returns.
fn median_of(mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let v: Vec<f64> = (0..REPS).map(|_| f()).collect::<Result<_, _>>()?;
    Ok(median(&v))
}

pub fn run(kind: Kind, fixtures: &Fixtures, specs: &[SessionSpec]) -> Result<Outcome, String> {
    let half = &specs[..specs.len().div_ceil(2)];
    let mut target = drive::setup(kind, 0)?;
    let plain = drive::closed_loop(&mut target, kind, half)?;

    let clock = Arc::new(ServerClock::default());
    rqp_obs::set_sink(Arc::clone(&clock) as Arc<dyn EventSink>);
    target.set_capture(true);
    let stats0 = target.registry_stats();
    let execs0 = counter(names::EXEC_BUDGETED) + counter(names::EXEC_SPILL);
    let traced = drive::closed_loop(&mut target, kind, half);
    let execs = counter(names::EXEC_BUDGETED) + counter(names::EXEC_SPILL) - execs0;
    let stats1 = target.registry_stats();
    rqp_obs::clear_sink();
    let traced = traced?;
    let drained = target.shutdown()?;

    let n = half.len();
    let mut failures = Vec::new();
    let surfaces = fixtures.compile()?;
    let reference = check::reference(fixtures, &surfaces, half)?;
    for pass in [&plain, &traced] {
        failures.extend(
            half.iter()
                .zip(&pass.samples)
                .filter_map(|(spec, s)| check::verdict(spec, s, &reference)),
        );
    }

    let mut m = Vec::new();
    split(&traced, &clock, &mut m, &mut failures);
    registry(kind, &traced, stats0.zip(stats1), drained, &mut m, &mut failures);
    wire(kind, half, &traced, &mut m)?;
    m.push(Metric::new("executor.calls_per_session", execs as f64 / n as f64, "count", n));
    compile_layers(fixtures, &surfaces, &mut m)?;
    replay_discovery(fixtures, &surfaces, half, &mut m)?;
    let rate = |p: &Pass| n as f64 / p.wall.as_secs_f64();
    m.push(Metric::new("bench.trace_overhead", rate(&plain) / rate(&traced), "ratio", n));
    if kind == Kind::Cold {
        cold_bands(half, &plain, &traced, &mut failures);
    }
    Ok(Outcome { attempted: 2 * n, failures, metrics: m })
}

/// Queue wait, lookup, run and delivery per session; the per-session
/// span checks and the layer-sum check.
fn split(pass: &Pass, clock: &ServerClock, m: &mut Vec<Metric>, failures: &mut Vec<String>) {
    let st = clock.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut parts: [Vec<f64>; 6] = Default::default();
    for s in &pass.samples {
        let (Some(r), Some(lat), Some(submit)) = (&s.result, s.latency(), s.submit) else {
            continue;
        };
        let id = r.id as u64;
        let (Some(&admit), Some(&(previous, first, done))) =
            (st.admitted.get(&id), st.sessions.get(&id))
        else {
            failures.push(format!("session {id}: no server events"));
            continue;
        };
        let Some(first) = first.filter(|f| (admit..=done).contains(f)) else {
            failures.push(format!(
                "session {id}: no execution event between its admission and completion"
            ));
            continue;
        };
        // The admission event precedes the program's admission stamp and
        // the completion event follows its `wall`, so the event-timed span
        // can only be longer than `wall`.
        let gap = ms(done.saturating_duration_since(admit)) - ms(r.wall);
        if gap < 0.0 {
            failures.push(format!(
                "session {id}: its events span {gap:.4} ms less than its wall; they belong to \
                 another session"
            ));
            continue;
        }
        let start = previous.map_or(admit, |p| p.max(admit));
        let Some(queue) = start.checked_duration_since(submit) else {
            failures.push(format!("session {id}: admitted before the client submitted it"));
            continue;
        };
        for (v, x) in parts.iter_mut().zip([
            ms(queue),
            ms(first.saturating_duration_since(start)),
            ms(done - first),
            ms(lat) - ms(r.wall),
            ms(lat),
            gap,
        ]) {
            v.push(x);
        }
    }
    let n = parts[4].len();
    let [queue, lookup, run, delivery, lat, gap] = parts.map(|v| mean(&v));
    let tol = SUM_TOL_ABS_MS + SUM_TOL_REL * lat;
    if gap > tol {
        failures.push(format!(
            "event-timed spans exceed the program's wall by {gap:.4} ms on average, more than \
             {SUM_TOL_ABS_MS} ms + {SUM_TOL_REL} of the mean latency {lat:.4} ms"
        ));
    }
    let err = queue + lookup + run + delivery - lat;
    if err.abs() > tol {
        failures.push(format!(
            "layer sum differs from the client latency {lat:.4} ms by {err:.4} ms, more than \
             {SUM_TOL_ABS_MS} ms + {SUM_TOL_REL} of it"
        ));
    }
    m.push(Metric::new("serve.queue_wait_ms", queue, "ms", n));
    m.push(Metric::new("serve.lookup_ms", lookup, "ms", n));
    m.push(Metric::new("serve.run_ms", run, "ms", n));
    m.push(Metric::new("serve.delivery_ms", delivery, "ms", n));
    m.push(Metric::new("bench.span_gap_ms", gap, "ms", n));
    m.push(Metric::new("bench.layer_sum_error_ms", err, "ms", n));
}

/// Registry outcomes per session, and the identity each workload must
/// show: warm and remote all hits, cold one compile per session, restart
/// one disk restore per session.
fn registry(
    kind: Kind,
    pass: &Pass,
    in_proc: Option<(rqp_serve::RegistryStats, rqp_serve::RegistryStats)>,
    drained: Option<rqp_serve::RegistryStats>,
    m: &mut Vec<Metric>,
    failures: &mut Vec<String>,
) {
    let n = pass.samples.len() as u64;
    let (hits, compiles, disk_hits) = match in_proc {
        Some((a, b)) => (b.hits - a.hits, b.compiles - a.compiles, b.disk_hits - a.disk_hits),
        // TCP shards report counters only at drain; count the lookup each
        // session's surface frame carried.
        None => {
            let count =
                |l: Lookup| pass.samples.iter().filter(|s| s.lookup == Some(l)).count() as u64;
            (count(Lookup::Hit), count(Lookup::Compiled), count(Lookup::Restored))
        }
    };
    let want = match kind {
        Kind::Warm | Kind::Remote => (n, 0, 0),
        Kind::Cold => (0, n, 0),
        Kind::Restart => (0, 0, n),
    };
    if (hits, compiles, disk_hits) != want {
        failures.push(format!(
            "registry identity: {n} sessions gave {hits} hits, {compiles} compiles, \
             {disk_hits} disk hits; expected {want:?}"
        ));
    }
    if let Some(s) = drained {
        // Set-up compiled each fixture once; nothing after it may compile.
        if s.compiles != FIXTURES.len() as u64 {
            failures.push(format!(
                "remote shards compiled {} surfaces, not {}",
                s.compiles,
                FIXTURES.len()
            ));
        }
    }
    let per = |v: u64| v as f64 / n as f64;
    m.push(Metric::new("serve.registry_hits", per(hits), "count", n as usize));
    m.push(Metric::new("serve.registry_compiles", per(compiles), "count", n as usize));
    m.push(Metric::new("serve.registry_disk_hits", per(disk_hits), "count", n as usize));
}

/// Frame codec cost over the pass's frames (TCP: the frames the client
/// observed plus the session frames it sent; in-proc: the frames the same
/// updates would travel as), and what actually crossed a wire.
fn wire(kind: Kind, specs: &[SessionSpec], pass: &Pass, m: &mut Vec<Metric>) -> Result<(), String> {
    let mut frames: Vec<Frame> = specs
        .iter()
        .map(|s| Frame::Session {
            id: s.id,
            query: s.query.clone(),
            algo: s.algo.clone(),
            qa: s.qa,
            seed: s.seed,
        })
        .collect();
    frames.extend(pass.frames.iter().cloned());
    let mut buf = Vec::new();
    let encode = median_of(|| {
        buf.clear();
        let t = Instant::now();
        for f in &frames {
            write_frame(&mut buf, f).map_err(|e| e.to_string())?;
        }
        Ok(us(t.elapsed()) / frames.len() as f64)
    })?;
    let decode = median_of(|| {
        let mut cursor = std::io::Cursor::new(&buf);
        let t = Instant::now();
        let mut got = 0usize;
        while let WireRead::Frame(f) = read_frame(&mut cursor).map_err(|e| e.to_string())? {
            std::hint::black_box(f);
            got += 1;
        }
        if got != frames.len() {
            return Err(format!("decoded {got} of {} frames", frames.len()));
        }
        Ok(us(t.elapsed()) / frames.len() as f64)
    })?;
    let n = specs.len();
    let (count, bytes) = if kind == Kind::Remote { (frames.len(), buf.len()) } else { (0, 0) };
    m.push(Metric::new("serve.wire_encode_us", encode, "us", frames.len()));
    m.push(Metric::new("serve.wire_decode_us", decode, "us", frames.len()));
    m.push(Metric::new("serve.wire_frames_per_session", count as f64 / n as f64, "count", n));
    m.push(Metric::new("serve.wire_bytes_per_session", bytes as f64 / n as f64, "B", n));
    Ok(())
}

/// `Ess::compile` per fixture with the optimizer counters it moves,
/// `Optimizer::optimize` on grid cells, and the snapshot cache's store
/// and load + restore.
fn compile_layers(
    fixtures: &Fixtures,
    surfaces: &[Arc<Ess>],
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let model = CostModel::default();
    let dir = drive::scratch_dir().join("layers-cache");
    std::fs::remove_dir_all(&dir).ok();
    let cache = CompileCache::new(&dir).map_err(|e| e.to_string())?;
    let compile_counters = || {
        [names::OPTIMIZER_CALLS, names::OPTIMIZER_DP_ENTRIES, names::ESS_POSP_CELLS].map(counter)
    };
    let mut moved = [0u64; 3];
    let (mut optimize, mut store, mut load, mut bytes, mut plans) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (f, (q, ess)) in FIXTURES.iter().zip(surfaces).enumerate() {
        let w = &fixtures.workloads[f];
        let cfg = fixtures.config(f);
        let opt = fixtures.optimizer(f);
        let before = compile_counters();
        let compile = median_of(|| {
            let t = Instant::now();
            let ess = Ess::compile(&opt, cfg).map_err(|e| e.to_string())?;
            std::hint::black_box(ess);
            Ok(ms(t.elapsed()))
        })?;
        for (acc, (b, a)) in moved.iter_mut().zip(before.iter().zip(compile_counters())) {
            *acc += a - b;
        }
        m.push(Metric::new(format!("ess.compile_ms.{q}"), compile, "ms", REPS));
        plans.push(ess.posp.num_plans() as f64);

        let grid = ess.posp.grid();
        let stride = (grid.num_cells() / OPTIMIZE_CELLS).max(1);
        let locs: Vec<_> = grid.cells().step_by(stride).map(|c| grid.location(c)).collect();
        optimize.push(median_of(|| {
            let t = Instant::now();
            for loc in &locs {
                std::hint::black_box(opt.optimize(loc));
            }
            Ok(us(t.elapsed()) / locs.len() as f64)
        })?);

        let fp = compile_fingerprint(&w.catalog, &w.query, &model, &cfg);
        let snap = PospSnapshot::capture(ess);
        store.push(median_of(|| {
            let t = Instant::now();
            cache.store(fp, &snap).map_err(|e| e.to_string())?;
            Ok(ms(t.elapsed()))
        })?);
        let path = dir.join(format!("posp-{fp:016x}.rqpc"));
        bytes.push(std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64);
        load.push(median_of(|| {
            let t = Instant::now();
            let snap = cache.load(fp).ok_or("cached snapshot did not load")?;
            std::hint::black_box(snap.restore().map_err(|e| e.to_string())?);
            Ok(ms(t.elapsed()))
        })?);
    }
    std::fs::remove_dir_all(&dir).ok();
    // Each fixture compiled REPS times; the counters average over them.
    let per_compile = |v: u64| v as f64 / (REPS * FIXTURES.len()) as f64;
    let k = FIXTURES.len();
    m.push(Metric::new("ess.cache_store_ms", mean(&store), "ms", k));
    m.push(Metric::new("ess.cache_load_ms", mean(&load), "ms", k));
    m.push(Metric::new("ess.snapshot_bytes", mean(&bytes), "B", k));
    m.push(Metric::new("ess.cells_costed_per_compile", per_compile(moved[2]), "count", k));
    m.push(Metric::new("ess.posp_plans", mean(&plans), "count", k));
    m.push(Metric::new("optimizer.optimize_us", mean(&optimize), "us", k));
    m.push(Metric::new("optimizer.calls_per_compile", per_compile(moved[0]), "count", k));
    m.push(Metric::new("optimizer.dp_entries_per_compile", per_compile(moved[1]), "count", k));
    Ok(())
}

/// `Discovery::discover` per algorithm on the pass's own (query, qa)
/// draws, and `Engine::execute_budgeted` / `execute_spill` replayed on
/// the steps of those traces.
fn replay_discovery(
    fixtures: &Fixtures,
    surfaces: &[Arc<Ess>],
    specs: &[SessionSpec],
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let model = CostModel::default();
    let runtimes = fixtures.runtimes(surfaces)?;
    let engines: Vec<Engine<'_>> =
        fixtures.workloads.iter().map(|w| Engine::new(&w.catalog, &w.query, model)).collect();
    let (mut steps, mut bands) = (Vec::new(), Vec::new());
    let (mut budgeted, mut spill) = (Vec::new(), Vec::new());
    for algo_name in ALGOS {
        let algo = algo_by_name(algo_name).map_err(|e| e.to_string())?;
        let mine: Vec<&SessionSpec> =
            specs.iter().filter(|s| s.algo == algo_name).take(REPLAY_PER_ALGO).collect();
        let mut times = Vec::with_capacity(mine.len());
        for spec in mine {
            let f = fixture_index(&spec.query).ok_or("unknown fixture")?;
            let qa = spec.qa.ok_or("spec without qa")?;
            let t = Instant::now();
            let trace = algo.discover(&runtimes[f], qa);
            times.push(us(t.elapsed()));
            steps.push(trace.num_executions() as f64);
            bands.push(trace.steps.iter().map(|s| s.band).collect::<BTreeSet<_>>().len() as f64);
            let loc = surfaces[f].posp.grid().location(qa);
            for step in &trace.steps {
                let plan = match &step.plan {
                    PlanRef::Posp(id) => Arc::clone(surfaces[f].posp.plan(*id)),
                    PlanRef::Bespoke(p) => Arc::clone(p),
                };
                let t = Instant::now();
                match step.mode {
                    ExecMode::Full => {
                        std::hint::black_box(engines[f].execute_budgeted(&plan, &loc, step.budget));
                        budgeted.push(us(t.elapsed()));
                    }
                    ExecMode::Spill(epp) => {
                        std::hint::black_box(engines[f].execute_spill(
                            &plan,
                            epp,
                            &loc,
                            &loc,
                            step.budget,
                        ));
                        spill.push(us(t.elapsed()));
                    }
                }
            }
        }
        m.push(Metric::new(
            format!("core.discover_us.{algo_name}"),
            mean(&times),
            "us",
            times.len(),
        ));
    }
    m.push(Metric::new("core.steps_per_session", mean(&steps), "count", steps.len()));
    m.push(Metric::new("core.bands_per_session", mean(&bands), "count", bands.len()));
    m.push(Metric::new("executor.budgeted_us", mean(&budgeted), "us", budgeted.len()));
    m.push(Metric::new("executor.spill_us", mean(&spill), "us", spill.len()));
    Ok(())
}

/// Cold's reported percentiles must each fall inside one fixture's
/// latency band, as the traced pass measures the bands.
fn cold_bands(specs: &[SessionSpec], plain: &Pass, traced: &Pass, failures: &mut Vec<String>) {
    let mut band: HashMap<usize, (f64, f64)> = HashMap::new();
    for (spec, s) in specs.iter().zip(&traced.samples) {
        let (Some(f), Some(lat)) = (fixture_index(&spec.query), s.latency()) else { continue };
        let e = band.entry(f).or_insert((f64::INFINITY, 0.0));
        *e = (e.0.min(ms(lat)), e.1.max(ms(lat)));
    }
    let lat = crate::latencies_ms(plain);
    for p in [50.0, 90.0] {
        let Some((v, _)) = crate::stats::nearest_rank(&lat, p) else { continue };
        if !band.values().any(|&(lo, hi)| (lo..=hi).contains(&v)) {
            failures.push(format!("cold p{p} = {v:.3} ms lies between fixture latency bands"));
        }
    }
}

//! Instrumentation shared by the discovery algorithms.
//!
//! The [`crate::Supervisor`] records each discovery step as it happens
//! (the per-algorithm step counter and, when an event sink is installed, a
//! `learned_selectivity` event per learning step) and hands the finished
//! [`DiscoveryTrace`] to [`record_trace`] once, which bumps the run,
//! completion and structured-failure counters and emits one
//! `discovery_complete` summary. Exhaustive MSO evaluation runs through
//! the vendored rayon stub, which is sequential, but serve workers run
//! discovery on several threads at once, so everything here is lock-free
//! past the registry lookup.

use crate::trace::DiscoveryTrace;
use rqp_catalog::EppId;
use rqp_obs::{global, labeled, names, Counter, Histogram};
use std::sync::Arc;

/// Per-algorithm counter handle: `base{algo="<name>"}`.
pub(crate) fn algo_counter(base: &str, algo: &str) -> Arc<Counter> {
    global().counter(&labeled(base, &[("algo", algo)]))
}

/// Per-algorithm band-latency histogram:
/// `rqp_discovery_band_seconds{algo="<name>"}`.
pub(crate) fn band_histogram(algo: &str) -> Arc<Histogram> {
    global().histogram(
        &labeled(names::DISCOVERY_BAND_SECONDS, &[("algo", algo)]),
        &rqp_obs::default_latency_buckets(),
    )
}

/// Count one half-space pruning band promotion (SB/AB learnt only a lower
/// bound on the current contour and jumped to the next one, §3.1.2) and
/// emit the matching event.
pub(crate) fn half_space_prune(algo: &str, band: usize, epp_bounds: usize) {
    algo_counter(names::DISCOVERY_HALF_SPACE_PRUNES, algo).inc();
    if rqp_obs::events_enabled() {
        rqp_obs::emit(
            rqp_obs::Event::new(names::EV_HALF_SPACE_PRUNING)
                .with("algo", algo)
                .with("band", band as u64)
                .with("bounded_dims", epp_bounds as u64),
        );
    }
}

/// Count one supervised retry of a failed execution and emit the matching
/// event.
pub(crate) fn supervisor_retry(algo: &str, attempt: u32, budget: f64) {
    global().counter(names::SUPERVISOR_RETRIES).inc();
    if rqp_obs::events_enabled() {
        rqp_obs::emit(
            rqp_obs::Event::new(names::EV_EXECUTION_RETRY)
                .with("algo", algo)
                .with("attempt", attempt as u64)
                .with("budget", budget),
        );
    }
}

/// Count one plan quarantine and emit the matching event.
pub(crate) fn plan_quarantined(algo: &str, fingerprint: u64) {
    global().counter(names::SUPERVISOR_QUARANTINES).inc();
    if rqp_obs::events_enabled() {
        rqp_obs::emit(
            rqp_obs::Event::new(names::EV_PLAN_QUARANTINED)
                .with("algo", algo)
                .with("fingerprint", fingerprint),
        );
    }
}

/// Count one last-resort clean execution (retries ran dry).
pub(crate) fn last_resort(_algo: &str) {
    global().counter(names::SUPERVISOR_LAST_RESORT).inc();
}

/// Count one retry skipped because the session deadline lapsed.
pub(crate) fn deadline_stop(_algo: &str) {
    global().counter(names::SUPERVISOR_DEADLINE_STOPS).inc();
}

/// Emit one `learned_selectivity` event for a step that learnt `epp`.
pub(crate) fn learned_selectivity(algo: &str, band: usize, epp: EppId, value: f64, exact: bool) {
    if rqp_obs::events_enabled() {
        rqp_obs::emit(
            rqp_obs::Event::new(names::EV_LEARNED_SELECTIVITY)
                .with("algo", algo)
                .with("band", band as u64)
                .with("epp", epp.0 as u64)
                .with("value", value)
                .with("exact", exact),
        );
    }
}

/// Account a finished discovery run (its steps were counted as the
/// supervisor recorded them).
pub(crate) fn record_trace(trace: &DiscoveryTrace) {
    let algo = trace.algo;
    algo_counter(names::DISCOVERY_RUNS, algo).inc();
    if trace.steps.last().is_some_and(|s| s.completed) {
        algo_counter(names::DISCOVERY_COMPLETED, algo).inc();
    }
    if let Some(reason) = &trace.failure {
        algo_counter(names::DISCOVERY_STRUCTURED_FAILURES, algo).inc();
        if rqp_obs::events_enabled() {
            rqp_obs::emit(
                rqp_obs::Event::new(names::EV_DISCOVERY_FAILED)
                    .with("algo", algo)
                    .with("qa", trace.qa as u64)
                    .with("reason", reason.as_str())
                    .with("total_cost", trace.total_cost),
            );
        }
    }
    if rqp_obs::events_enabled() {
        rqp_obs::emit(
            rqp_obs::Event::new(names::EV_DISCOVERY_COMPLETE)
                .with("algo", algo)
                .with("qa", trace.qa as u64)
                .with("steps", trace.steps.len() as u64)
                .with("total_cost", trace.total_cost)
                .with("oracle_cost", trace.oracle_cost)
                .with("subopt", trace.subopt()),
        );
    }
}

/// Publish an algorithm's summarized evaluation as gauges
/// (`rqp_eval_mso{algo=…}`, `rqp_eval_aso{algo=…}`) and an `evaluation`
/// event.
pub(crate) fn record_evaluation(algo: &str, mso: f64, aso: f64, cells: usize) {
    global().gauge(&labeled(names::EVAL_MSO, &[("algo", algo)])).set(mso);
    global().gauge(&labeled(names::EVAL_ASO, &[("algo", algo)])).set(aso);
    if rqp_obs::events_enabled() {
        rqp_obs::emit(
            rqp_obs::Event::new(names::EV_EVALUATION)
                .with("algo", algo)
                .with("mso", mso)
                .with("aso", aso)
                .with("cells", cells as u64),
        );
    }
}

/// Pre-register the discovery metric series (at zero) for the standard
/// algorithm names, so snapshots taken before any discovery still list
/// them.
pub fn register_metrics() {
    for algo in ["PB", "SB", "AB", "Native", "ReOpt"] {
        let _ = algo_counter(names::DISCOVERY_RUNS, algo);
        let _ = algo_counter(names::DISCOVERY_STEPS, algo);
        let _ = algo_counter(names::DISCOVERY_COMPLETED, algo);
        let _ = algo_counter(names::DISCOVERY_HALF_SPACE_PRUNES, algo);
        let _ = algo_counter(names::DISCOVERY_STRUCTURED_FAILURES, algo);
        let _ = band_histogram(algo);
    }
    let g = global();
    let _ = g.counter(names::SUPERVISOR_RETRIES);
    let _ = g.counter(names::SUPERVISOR_QUARANTINES);
    let _ = g.counter(names::SUPERVISOR_LAST_RESORT);
    let _ = g.counter(names::SUPERVISOR_DEADLINE_STOPS);
    let _ = g.counter(names::CORE_CONTOUR_MEMO_HITS);
    let _ = g.counter(names::CORE_CONTOUR_MEMO_MISSES);
}

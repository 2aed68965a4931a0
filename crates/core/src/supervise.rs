//! Supervised execution: bounded retries with budget-doubling backoff and
//! per-plan quarantine, the recovery layer between the discovery
//! algorithms and a fault-prone engine.
//!
//! Every execution a discovery algorithm issues goes through a
//! [`Supervisor`]. On a clean substrate the supervisor is invisible: one
//! attempt, one [`Step`], identical accounting. When the engine carries a
//! fault injector (see `rqp-chaos`), executions can come back
//! [`failed`](rqp_executor::ExecOutcome::failed); the supervisor then
//!
//! 1. charges the sunk work against the running MSO accounting (wasted
//!    work is never hidden — every attempt becomes a trace [`Step`]),
//! 2. retries up to [`MAX_RETRIES`] times, multiplying the budget by
//!    [`BACKOFF`] each time (a crashed execution gets more room so a
//!    transient fault cannot starve it forever),
//! 3. quarantines a plan for the rest of the run once it has failed
//!    [`QUARANTINE_AFTER`] times in total, and
//! 4. for spill executions — whose learning the contour walk cannot
//!    progress without — falls back to one *last-resort* execution on the
//!    injector-free engine, which is guaranteed sound.
//!
//! The degraded MSO bound this implies is the clean bound times
//! [`degraded_factor`]: each logical execution can burn at most
//! `Σ_{i=0..MAX_RETRIES} BACKOFF^i` budgets across attempts plus one clean
//! budget for the last resort.

use crate::trace::{DiscoveryTrace, ExecMode, PlanRef, Step};
use rqp_catalog::{EppId, SelVector};
use rqp_ess::Cell;
use rqp_executor::{Engine, ExecOutcome, SpillOutcome};
use rqp_obs::{names as obs_names, Counter, Deadline, Histogram, SpanGuard, SpanKind};
use rqp_qplan::{Fingerprint, PlanNode};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Retries per logical execution after the first attempt fails.
pub const MAX_RETRIES: u32 = 2;

/// Budget multiplier applied on each retry (2.0 mirrors the contour
/// cost-doubling discipline).
pub const BACKOFF: f64 = 2.0;

/// Total failures after which a plan is quarantined for the run.
pub const QUARANTINE_AFTER: u32 = 3;

/// Worst-case charge multiplier per logical execution relative to its
/// clean budget: `Σ_{i=0..MAX_RETRIES} BACKOFF^i` for the supervised
/// attempts, plus one clean budget for a possible last-resort execution.
/// Multiply a clean MSO bound by this factor to get the degraded bound the
/// chaos harness asserts.
pub fn degraded_factor() -> f64 {
    let mut sum = 0.0;
    let mut b = 1.0;
    for _ in 0..=MAX_RETRIES {
        sum += b;
        b *= BACKOFF;
    }
    sum + 1.0
}

/// Per-run supervision state and the run's ledger.
///
/// One supervisor lives for one `discover` call; quarantine is therefore
/// scoped to a run, matching the paper's per-query discovery model (a
/// plan that misbehaves for this instance may be fine for the next). The
/// supervisor is the only writer of the run's ledger: every attempt's
/// [`Step`], its charge against the running total, its `execution` span
/// and its per-step metrics are recorded in one place, and
/// [`Supervisor::finish`] turns the ledger into the [`DiscoveryTrace`].
pub struct Supervisor {
    algo: &'static str,
    /// Session deadline: once lapsed, the supervisor stops spending the
    /// retry budget (first attempts and last resorts still run, so every
    /// discovery run terminates with honest accounting). The default
    /// [`Deadline::none`] never lapses — single-session behavior is
    /// byte-identical.
    deadline: Deadline,
    /// The discovery run's causal tracer (the thread's current tracer at
    /// construction; disabled outside traced serve sessions).
    tracer: rqp_obs::Tracer,
    /// `rqp_discovery_steps_total{algo}`, bumped as each step is recorded.
    steps_total: Arc<Counter>,
    /// The algorithm's band-latency histogram.
    band_hist: Arc<Histogram>,
    /// Total failures per plan fingerprint.
    fails: HashMap<u64, u32>,
    /// Fingerprints banned for the rest of the run.
    quarantined: BTreeSet<u64>,
    /// Every execution of the run, in order.
    steps: Vec<Step>,
    /// Sum of the steps' charges, accumulated in step order.
    total: f64,
}

/// What the ledger reads off an engine outcome: the reported charge,
/// whether the plan (or spilled subtree) completed, whether a fault killed
/// it, and the `(value, exact)` it learnt in spill mode.
type Reading = (f64, bool, bool, Option<(f64, bool)>);

trait Outcome {
    fn read(&self) -> Reading;
}

impl Outcome for ExecOutcome {
    fn read(&self) -> Reading {
        (self.spent(), self.completed(), self.failed(), None)
    }
}

impl Outcome for SpillOutcome {
    fn read(&self) -> Reading {
        let exact = self.learned.is_exact();
        let learned = (!self.failed).then(|| (self.learned.value(), exact));
        (self.spent, !self.failed && exact, self.failed, learned)
    }
}

impl Supervisor {
    /// A fresh supervisor for one discovery run.
    pub fn new(algo: &'static str) -> Self {
        Supervisor {
            algo,
            deadline: Deadline::none(),
            tracer: rqp_obs::current(),
            steps_total: crate::obs::algo_counter(obs_names::DISCOVERY_STEPS, algo),
            band_hist: crate::obs::band_histogram(algo),
            fails: HashMap::new(),
            quarantined: BTreeSet::new(),
            steps: Vec::new(),
            total: 0.0,
        }
    }

    /// Bound this run by a session deadline (serving tier): after it
    /// lapses, retries are skipped — each logical execution still gets its
    /// first attempt (and spills their last resort) so the trace stays
    /// complete, but no backoff-doubled budget is burned past the wall.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Whether the session deadline has lapsed (always `false` for the
    /// default unbounded supervisor).
    fn winding_down(&self) -> bool {
        if self.deadline.expired() {
            crate::obs::deadline_stop(self.algo);
            return true;
        }
        false
    }

    /// Whether `plan` is quarantined for the rest of this run.
    pub fn is_quarantined(&self, plan: &PlanNode) -> bool {
        // a clean run quarantines nothing: skip fingerprinting the plan
        !self.quarantined.is_empty() && self.quarantined.contains(&Fingerprint::of(plan).0)
    }

    /// Fingerprints of all quarantined plans (for the trace).
    pub fn quarantined(&self) -> Vec<u64> {
        self.quarantined.iter().copied().collect()
    }

    /// Sunk work is real work, but an injector-corrupted expenditure must
    /// never poison the accounting: clamp to a finite non-negative charge.
    fn sanitize(spent: f64) -> f64 {
        if spent.is_finite() && spent >= 0.0 {
            spent
        } else {
            0.0
        }
    }

    /// Record one failure of `fp`, quarantining the plan at the threshold.
    fn record_failure(&mut self, fp: u64) {
        let n = self.fails.entry(fp).or_insert(0);
        *n += 1;
        if *n >= QUARANTINE_AFTER && self.quarantined.insert(fp) {
            crate::obs::plan_quarantined(self.algo, fp);
        }
    }

    /// Whether a failed attempt should be retried: not once the plan is
    /// quarantined, retries are spent, or the deadline has lapsed. A retry
    /// is counted here.
    fn retry(&mut self, fp: u64, attempt: u32, budget: f64) -> bool {
        self.record_failure(fp);
        if self.quarantined.contains(&fp) || attempt >= MAX_RETRIES || self.winding_down() {
            return false;
        }
        crate::obs::supervisor_retry(self.algo, attempt + 1, budget);
        true
    }

    /// Open the `contour_band` span for `band`, timed into the algorithm's
    /// band-latency histogram.
    pub(crate) fn band_span(&self, band: usize) -> SpanGuard {
        let mut span = self
            .tracer
            .span(obs_names::SPAN_CONTOUR_BAND, SpanKind::Contour)
            .with_histogram(&self.band_hist);
        span.attr("band", band as u64);
        span
    }

    /// Open the `discovery_step` span of one logical execution.
    fn step_span(&self, band: usize, mode: &'static str) -> SpanGuard {
        let mut span = self.tracer.span(obs_names::SPAN_DISCOVERY_STEP, SpanKind::Step);
        span.attr("band", band as u64);
        span.attr("mode", mode);
        span
    }

    /// One engine call, recorded: run it under its `execution` span,
    /// charge its sanitised expenditure to the total, push its [`Step`],
    /// and count it (plus a `learned_selectivity` event if it learnt).
    fn attempt<O: Outcome>(
        &mut self,
        band: usize,
        plan: &PlanRef,
        mode: ExecMode,
        budget: f64,
        attempt: u32,
        run: impl FnOnce(f64) -> O,
    ) -> O {
        let mut span = self.tracer.span(obs_names::SPAN_EXECUTION, SpanKind::Execution);
        let out = run(budget);
        let (reported, completed, faulted, observed) = out.read();
        let spent = Self::sanitize(reported);
        self.total += spent;
        span.attr("band", band as u64);
        span.attr("attempt", attempt as u64);
        span.attr("budget", budget);
        span.attr("spent", spent);
        span.attr("completed", completed);
        span.attr("faulted", faulted);
        drop(span);
        let learned = match mode {
            ExecMode::Spill(epp) => observed.map(|(value, exact)| (epp, value, exact)),
            ExecMode::Full => None,
        };
        self.steps.push(Step {
            band,
            plan: plan.clone(),
            mode,
            budget,
            spent,
            completed,
            learned,
            attempt,
            faulted,
        });
        self.steps_total.inc();
        if let Some((epp, value, exact)) = learned {
            crate::obs::learned_selectivity(self.algo, band, epp, value, exact);
        }
        out
    }

    /// A full (non-spill) budgeted execution under supervision.
    ///
    /// Records one [`Step`] per attempt, every attempt's sunk work charged.
    /// Returns the final non-failed outcome, or `None` when the plan is
    /// quarantined or retries ran dry — the caller then degrades
    /// (PlanBouquet falls through to the next contour plan).
    pub fn execute_full(
        &mut self,
        engine: &Engine<'_>,
        plan: &PlanNode,
        plan_ref: &PlanRef,
        band: usize,
        qa_loc: &SelVector,
        budget: f64,
    ) -> Option<ExecOutcome> {
        let fp = Fingerprint::of(plan).0;
        if self.quarantined.contains(&fp) {
            return None;
        }
        let _step_span = self.step_span(band, "full");
        let mut b = budget;
        for attempt in 0..=MAX_RETRIES {
            let out = self.attempt(band, plan_ref, ExecMode::Full, b, attempt, |b| {
                engine.execute_budgeted(plan, qa_loc, b)
            });
            if !out.failed() {
                return Some(out);
            }
            if !self.retry(fp, attempt, b) {
                break;
            }
            b *= BACKOFF;
        }
        None
    }

    /// The terminal safety net's execution: run `plan` with an unbounded
    /// budget on the injector-free engine. No fault can strike it and an
    /// unbounded budget cannot expire, so the recorded [`Step`] completes —
    /// discovery is guaranteed to terminate with a result.
    pub fn finish_clean(
        &mut self,
        engine: &Engine<'_>,
        plan: &PlanNode,
        plan_ref: &PlanRef,
        band: usize,
        qa_loc: &SelVector,
    ) {
        crate::obs::last_resort(self.algo);
        let _step_span = self.step_span(band, "last_resort");
        let clean = engine.without_injector();
        let last = MAX_RETRIES + 1;
        self.attempt(band, plan_ref, ExecMode::Full, f64::INFINITY, last, |b| {
            clean.execute_budgeted(plan, qa_loc, b)
        });
    }

    /// A spill-mode execution under supervision.
    ///
    /// The contour walk cannot make quantum progress without a sound
    /// observation, so this never gives up: after retries run dry (or
    /// immediately, for an already-quarantined plan) a last-resort clean
    /// execution on the injector-free engine supplies one. The returned
    /// outcome therefore always has `failed == false` and its `learned`
    /// is safe to feed into [`crate::knowledge::Knowledge`].
    #[allow(clippy::too_many_arguments)]
    pub fn execute_spill(
        &mut self,
        engine: &Engine<'_>,
        plan: &PlanNode,
        plan_ref: &PlanRef,
        band: usize,
        epp: EppId,
        reference: &SelVector,
        qa_loc: &SelVector,
        budget: f64,
        refine: bool,
    ) -> SpillOutcome {
        let fp = Fingerprint::of(plan).0;
        let run = |eng: Engine<'_>, b: f64| {
            if refine {
                eng.execute_spill(plan, epp, reference, qa_loc, b)
            } else {
                eng.execute_spill_coarse(plan, epp, reference, qa_loc, b)
            }
        };
        let mode = ExecMode::Spill(epp);
        let mut step_span = self.step_span(band, "spill");
        step_span.attr("epp", epp.0 as u64);
        let mut b = budget;
        // A lapsed deadline routes straight to the last-resort clean
        // execution below: one sound observation, no budgeted retries.
        if !self.quarantined.contains(&fp) && !self.winding_down() {
            for attempt in 0..=MAX_RETRIES {
                let out = self.attempt(band, plan_ref, mode, b, attempt, |b| run(*engine, b));
                if !out.failed {
                    return out;
                }
                if !self.retry(fp, attempt, b) {
                    break;
                }
                b *= BACKOFF;
            }
        }
        // last resort: the clean engine at the base budget, guaranteed
        // sound (no injector, so `failed` cannot be set)
        crate::obs::last_resort(self.algo);
        let last = MAX_RETRIES + 1;
        self.attempt(band, plan_ref, mode, budget, last, |b| run(engine.without_injector(), b))
    }

    /// Mark the last step as an observation run: it executed the subtree
    /// that measures `epp` (exactly `value`), not the query, so it did not
    /// complete the query but learnt `epp`.
    pub fn observed(&mut self, epp: EppId, value: f64) {
        if let Some(last) = self.steps.last_mut() {
            last.completed = false;
            last.learned = Some((epp, value, true));
            crate::obs::learned_selectivity(self.algo, last.band, epp, value, true);
        }
    }

    /// Close the run and build its [`DiscoveryTrace`] from the ledger. The
    /// per-run metrics (runs, completions, structured failures and the
    /// `discovery_complete` event) are recorded here, once.
    pub fn finish(self, qa: Cell, oracle_cost: f64, failure: Option<String>) -> DiscoveryTrace {
        let trace = DiscoveryTrace {
            algo: self.algo,
            qa,
            quarantined: self.quarantined(),
            steps: self.steps,
            total_cost: self.total,
            oracle_cost,
            failure,
        };
        crate::obs::record_trace(&trace);
        debug_assert_eq!(crate::invariants::check_trace_accounting(&trace), Ok(()));
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_factor_is_geometric_plus_last_resort() {
        // 1 + 2 + 4 attempts + 1 last resort
        assert!((degraded_factor() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn quarantine_trips_at_the_threshold() {
        assert_eq!(QUARANTINE_AFTER, 3);
        let mut sup = Supervisor::new("test");
        sup.record_failure(42);
        sup.record_failure(42);
        assert!(sup.quarantined().is_empty());
        sup.record_failure(42);
        assert_eq!(sup.quarantined(), vec![42]);
        // further failures leave the one quarantine in place
        sup.record_failure(42);
        assert_eq!(sup.quarantined(), vec![42]);
    }

    #[test]
    fn a_lapsed_deadline_winds_the_supervisor_down() {
        // `core::time::Duration`, not `std::time`: this crate is under the
        // determinism lint; the wall-clock read happens inside rqp_obs.
        let sup =
            Supervisor::new("test").with_deadline(Deadline::within(core::time::Duration::ZERO));
        assert!(sup.winding_down(), "a zero-window deadline lapses immediately");
        assert!(sup.winding_down(), "a lapsed deadline stays lapsed");
        // The default supervisor is unbounded: it never winds down.
        let unbounded = Supervisor::new("test");
        assert!(!unbounded.winding_down());
    }

    #[test]
    fn sanitize_clamps_corrupt_expenditure() {
        assert_eq!(Supervisor::sanitize(3.5), 3.5);
        assert_eq!(Supervisor::sanitize(f64::NAN), 0.0);
        assert_eq!(Supervisor::sanitize(f64::INFINITY), 0.0);
        assert_eq!(Supervisor::sanitize(-1.0), 0.0);
    }
}

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
//! 2. retries up to [`RetryPolicy::max_retries`] times, multiplying the
//!    budget by [`RetryPolicy::backoff`] each time (a crashed execution
//!    gets more room so a transient fault cannot starve it forever),
//! 3. quarantines a plan for the rest of the run once it has failed
//!    [`RetryPolicy::quarantine_after`] times in total, and
//! 4. for spill executions — whose learning the contour walk cannot
//!    progress without — falls back to one *last-resort* execution on the
//!    injector-free engine, which is guaranteed sound.
//!
//! The degraded MSO bound this implies is the clean bound times
//! [`RetryPolicy::degraded_factor`]: each logical execution can burn at
//! most `Σ_{i=0..R} backoff^i` budgets across attempts plus one clean
//! budget for the last resort.

use crate::trace::{ExecMode, PlanRef, Step};
use rqp_catalog::{EppId, SelVector};
use rqp_executor::{Engine, ExecOutcome, SpillOutcome};
use rqp_obs::{names as obs_names, Deadline, SpanKind};
use rqp_qplan::{Fingerprint, PlanNode};
use std::collections::{BTreeSet, HashMap};

/// Bounded-retry policy for supervised executions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries per logical execution after the first attempt fails.
    pub max_retries: u32,
    /// Budget multiplier applied on each retry (≥ 1; 2.0 mirrors the
    /// contour cost-doubling discipline).
    pub backoff: f64,
    /// Total failures after which a plan is quarantined for the run.
    pub quarantine_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2, backoff: 2.0, quarantine_after: 3 }
    }
}

impl RetryPolicy {
    /// Worst-case charge multiplier per logical execution relative to its
    /// clean budget: `Σ_{i=0..max_retries} backoff^i` for the supervised
    /// attempts, plus one clean budget for a possible last-resort
    /// execution. Multiply a clean MSO bound by this factor to get the
    /// degraded bound the chaos harness asserts.
    pub fn degraded_factor(&self) -> f64 {
        let mut sum = 0.0;
        let mut b = 1.0;
        for _ in 0..=self.max_retries {
            sum += b;
            b *= self.backoff;
        }
        sum + 1.0
    }
}

/// Run statistics the supervisor accumulates for one discovery run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SupervisorStats {
    /// Retried executions (beyond first attempts).
    pub retries: u32,
    /// Plans quarantined during the run.
    pub quarantines: u32,
    /// Last-resort clean executions after retries ran dry.
    pub last_resort: u32,
    /// Full executions abandoned (caller degraded to the next plan).
    pub gave_up: u32,
    /// Retries skipped because the session deadline had already lapsed
    /// (the run winds down on first attempts and last resorts only).
    pub deadline_stops: u32,
}

/// Per-run supervision state: retry bookkeeping and the quarantine set.
///
/// One supervisor lives for one `discover` call; quarantine is therefore
/// scoped to a run, matching the paper's per-query discovery model (a
/// plan that misbehaves for this instance may be fine for the next).
pub struct Supervisor {
    algo: &'static str,
    policy: RetryPolicy,
    /// Session deadline: once lapsed, the supervisor stops spending the
    /// retry budget (first attempts and last resorts still run, so every
    /// discovery run terminates with honest accounting). The default
    /// [`Deadline::none`] never lapses — single-session behavior is
    /// byte-identical.
    deadline: Deadline,
    /// The discovery run's causal tracer (the thread's current tracer at
    /// construction; disabled outside traced serve sessions).
    tracer: rqp_obs::Tracer,
    /// Total failures per plan fingerprint.
    fails: HashMap<u64, u32>,
    /// Fingerprints banned for the rest of the run.
    quarantined: BTreeSet<u64>,
    /// Accumulated run statistics.
    pub stats: SupervisorStats,
}

impl Supervisor {
    /// A fresh supervisor for one discovery run.
    pub fn new(algo: &'static str, policy: RetryPolicy) -> Self {
        Supervisor {
            algo,
            policy,
            deadline: Deadline::none(),
            tracer: rqp_obs::current(),
            fails: HashMap::new(),
            quarantined: BTreeSet::new(),
            stats: SupervisorStats::default(),
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

    /// The policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Whether the session deadline has lapsed (always `false` for the
    /// default unbounded supervisor).
    fn winding_down(&mut self) -> bool {
        if self.deadline.expired() {
            self.stats.deadline_stops += 1;
            crate::obs::deadline_stop(self.algo);
            return true;
        }
        false
    }

    /// Whether `plan` is quarantined for the rest of this run.
    pub fn is_quarantined(&self, plan: &PlanNode) -> bool {
        self.quarantined.contains(&Fingerprint::of(plan).0)
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
        if *n >= self.policy.quarantine_after && self.quarantined.insert(fp) {
            self.stats.quarantines += 1;
            crate::obs::plan_quarantined(self.algo, fp);
        }
    }

    /// A full (non-spill) budgeted execution under supervision.
    ///
    /// Pushes one [`Step`] per attempt and charges every attempt's sunk
    /// work into `total`. Returns the final non-failed outcome, or `None`
    /// when the plan is quarantined or retries ran dry — the caller then
    /// degrades (PlanBouquet falls through to the next contour plan).
    #[allow(clippy::too_many_arguments)]
    pub fn execute_full(
        &mut self,
        engine: &Engine<'_>,
        plan: &PlanNode,
        plan_ref: &PlanRef,
        band: usize,
        qa_loc: &SelVector,
        budget: f64,
        total: &mut f64,
        steps: &mut Vec<Step>,
    ) -> Option<ExecOutcome> {
        let fp = Fingerprint::of(plan).0;
        if self.quarantined.contains(&fp) {
            return None;
        }
        let mut step_span = self.tracer.span(obs_names::SPAN_DISCOVERY_STEP, SpanKind::Step);
        step_span.attr("band", band as u64);
        step_span.attr("mode", "full");
        let mut b = budget;
        for attempt in 0..=self.policy.max_retries {
            let mut exec_span = self.tracer.span(obs_names::SPAN_EXECUTION, SpanKind::Execution);
            let out = engine.execute_budgeted(plan, qa_loc, b);
            let spent = Self::sanitize(out.spent());
            *total += spent;
            let faulted = out.failed();
            exec_span.attr("band", band as u64);
            exec_span.attr("attempt", attempt as u64);
            exec_span.attr("budget", b);
            exec_span.attr("spent", spent);
            exec_span.attr("completed", out.completed());
            exec_span.attr("faulted", faulted);
            drop(exec_span);
            steps.push(Step {
                band,
                plan: plan_ref.clone(),
                mode: ExecMode::Full,
                budget: b,
                spent,
                completed: out.completed(),
                learned: None,
                attempt,
                faulted,
            });
            if !faulted {
                return Some(out);
            }
            self.record_failure(fp);
            if self.quarantined.contains(&fp) {
                break;
            }
            if attempt < self.policy.max_retries {
                if self.winding_down() {
                    break;
                }
                self.stats.retries += 1;
                crate::obs::supervisor_retry(self.algo, attempt + 1, b);
                b *= self.policy.backoff;
            }
        }
        self.stats.gave_up += 1;
        None
    }

    /// The terminal safety net's execution: run `plan` with an unbounded
    /// budget on the injector-free engine. No fault can strike it and an
    /// unbounded budget cannot expire, so the pushed [`Step`] is always
    /// completed — discovery is guaranteed to terminate with a result.
    #[allow(clippy::too_many_arguments)]
    pub fn finish_clean(
        &mut self,
        engine: &Engine<'_>,
        plan: &PlanNode,
        plan_ref: &PlanRef,
        band: usize,
        qa_loc: &SelVector,
        total: &mut f64,
        steps: &mut Vec<Step>,
    ) {
        self.stats.last_resort += 1;
        crate::obs::last_resort(self.algo);
        let mut step_span = self.tracer.span(obs_names::SPAN_DISCOVERY_STEP, SpanKind::Step);
        step_span.attr("band", band as u64);
        step_span.attr("mode", "last_resort");
        let mut exec_span = self.tracer.span(obs_names::SPAN_EXECUTION, SpanKind::Execution);
        let out = engine.without_injector().execute_budgeted(plan, qa_loc, f64::INFINITY);
        let spent = Self::sanitize(out.spent());
        *total += spent;
        exec_span.attr("band", band as u64);
        exec_span.attr("attempt", (self.policy.max_retries + 1) as u64);
        exec_span.attr("spent", spent);
        exec_span.attr("completed", true);
        exec_span.attr("faulted", false);
        drop(exec_span);
        steps.push(Step {
            band,
            plan: plan_ref.clone(),
            mode: ExecMode::Full,
            budget: f64::INFINITY,
            spent,
            completed: true,
            learned: None,
            attempt: self.policy.max_retries + 1,
            faulted: false,
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
        total: &mut f64,
        steps: &mut Vec<Step>,
    ) -> SpillOutcome {
        let fp = Fingerprint::of(plan).0;
        let run = |eng: &Engine<'_>, b: f64| {
            if refine {
                eng.execute_spill(plan, epp, reference, qa_loc, b)
            } else {
                eng.execute_spill_coarse(plan, epp, reference, qa_loc, b)
            }
        };
        let mut step_span = self.tracer.span(obs_names::SPAN_DISCOVERY_STEP, SpanKind::Step);
        step_span.attr("band", band as u64);
        step_span.attr("mode", "spill");
        step_span.attr("epp", epp.0 as u64);
        let mut b = budget;
        // A lapsed deadline routes straight to the last-resort clean
        // execution below: one sound observation, no budgeted retries.
        if !self.quarantined.contains(&fp) && !self.winding_down() {
            for attempt in 0..=self.policy.max_retries {
                let mut exec_span =
                    self.tracer.span(obs_names::SPAN_EXECUTION, SpanKind::Execution);
                let out = run(engine, b);
                let spent = Self::sanitize(out.spent);
                *total += spent;
                exec_span.attr("band", band as u64);
                exec_span.attr("attempt", attempt as u64);
                exec_span.attr("budget", b);
                exec_span.attr("spent", spent);
                exec_span.attr("completed", !out.failed && out.learned.is_exact());
                exec_span.attr("faulted", out.failed);
                drop(exec_span);
                if !out.failed {
                    let exact = out.learned.is_exact();
                    steps.push(Step {
                        band,
                        plan: plan_ref.clone(),
                        mode: ExecMode::Spill(epp),
                        budget: b,
                        spent,
                        completed: exact,
                        learned: Some((epp, out.learned.value(), exact)),
                        attempt,
                        faulted: false,
                    });
                    return out;
                }
                steps.push(Step {
                    band,
                    plan: plan_ref.clone(),
                    mode: ExecMode::Spill(epp),
                    budget: b,
                    spent,
                    completed: false,
                    learned: None,
                    attempt,
                    faulted: true,
                });
                self.record_failure(fp);
                if self.quarantined.contains(&fp) {
                    break;
                }
                if attempt < self.policy.max_retries {
                    if self.winding_down() {
                        break;
                    }
                    self.stats.retries += 1;
                    crate::obs::supervisor_retry(self.algo, attempt + 1, b);
                    b *= self.policy.backoff;
                }
            }
        }
        // last resort: the clean engine at the base budget, guaranteed
        // sound (no injector, so `failed` cannot be set)
        self.stats.last_resort += 1;
        crate::obs::last_resort(self.algo);
        let mut exec_span = self.tracer.span(obs_names::SPAN_EXECUTION, SpanKind::Execution);
        let out = run(&engine.without_injector(), budget);
        let spent = Self::sanitize(out.spent);
        *total += spent;
        let exact = out.learned.is_exact();
        exec_span.attr("band", band as u64);
        exec_span.attr("attempt", (self.policy.max_retries + 1) as u64);
        exec_span.attr("budget", budget);
        exec_span.attr("spent", spent);
        exec_span.attr("completed", exact);
        exec_span.attr("faulted", false);
        drop(exec_span);
        steps.push(Step {
            band,
            plan: plan_ref.clone(),
            mode: ExecMode::Spill(epp),
            budget,
            spent,
            completed: exact,
            learned: Some((epp, out.learned.value(), exact)),
            attempt: self.policy.max_retries + 1,
            faulted: false,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_factor_is_geometric_plus_last_resort() {
        let p = RetryPolicy { max_retries: 2, backoff: 2.0, quarantine_after: 3 };
        // 1 + 2 + 4 attempts + 1 last resort
        assert!((p.degraded_factor() - 8.0).abs() < 1e-12);
        let none = RetryPolicy { max_retries: 0, backoff: 2.0, quarantine_after: 1 };
        assert!((none.degraded_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quarantine_trips_at_the_threshold() {
        let mut sup =
            Supervisor::new("test", RetryPolicy { quarantine_after: 2, ..Default::default() });
        sup.record_failure(42);
        assert!(sup.quarantined().is_empty());
        sup.record_failure(42);
        assert_eq!(sup.quarantined(), vec![42]);
        assert_eq!(sup.stats.quarantines, 1);
        // repeated failures do not double-count the quarantine
        sup.record_failure(42);
        assert_eq!(sup.stats.quarantines, 1);
    }

    #[test]
    fn a_lapsed_deadline_winds_the_supervisor_down() {
        // `core::time::Duration`, not `std::time`: this crate is under the
        // determinism lint; the wall-clock read happens inside rqp_obs.
        let mut sup = Supervisor::new("test", RetryPolicy::default())
            .with_deadline(Deadline::within(core::time::Duration::ZERO));
        assert!(sup.winding_down(), "a zero-window deadline lapses immediately");
        assert_eq!(sup.stats.deadline_stops, 1);
        // The default supervisor is unbounded: it never winds down.
        let mut unbounded = Supervisor::new("test", RetryPolicy::default());
        assert!(!unbounded.winding_down());
        assert_eq!(unbounded.stats.deadline_stops, 0);
    }

    #[test]
    fn sanitize_clamps_corrupt_expenditure() {
        assert_eq!(Supervisor::sanitize(3.5), 3.5);
        assert_eq!(Supervisor::sanitize(f64::NAN), 0.0);
        assert_eq!(Supervisor::sanitize(f64::INFINITY), 0.0);
        assert_eq!(Supervisor::sanitize(-1.0), 0.0);
    }
}

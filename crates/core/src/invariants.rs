//! Debug-build checks of the paper's structural invariants.
//!
//! Two assumptions underpin every MSO guarantee in the paper: (1) the
//! optimal cost surface is monotone (PCM, §2.3), so the iso-cost contours
//! are properly nested — the optimal cost recorded at every cell of band
//! `i` lies inside the band's cost window; and (2) contour budgets grow
//! geometrically (cost-doubling, §3.1) — `CC_{i+1} = r·CC_i`, and every
//! budgeted execution drawn from band `i` spends within that window.
//! Violating either does not crash anything; it silently voids the
//! guarantees, which is exactly the class of bug best caught by
//! `debug_assert!`. Every check here compiles to a no-op in release
//! builds, so the hot discovery loops pay nothing in production.

use crate::supervise::degraded_factor;
use crate::trace::DiscoveryTrace;
use rqp_ess::{Ess, Ladder};

/// Relative slack for the window checks: cells are banded under the
/// `cost_cmp` tolerance, so a cost may sit that far below its band's edge,
/// and consecutive `powi` edges differ from an exact ratio by rounding.
const SLACK: f64 = 1e-9;

/// Check the compiled contour set: lower edges grow geometrically by the
/// contour ratio, and every cell's optimal cost lies within its band's
/// window `[CC_i, r·CC_i)` (the discretized contour-nesting invariant;
/// the last band is open above because it absorbs the terminus).
///
/// Call once after ESS compilation. No-op in release builds.
pub fn debug_check_contours(ess: &Ess) {
    if !cfg!(debug_assertions) {
        return;
    }
    let contours = &ess.contours;
    let ratio = contours.ratio;
    for b in 1..contours.num_bands() {
        let r = contours.cc(b) / contours.cc(b - 1);
        debug_assert!(
            (r - ratio).abs() <= SLACK * ratio,
            "contour edges must grow by {ratio}: band {b} edge ratio {r}"
        );
    }
    let last = contours.num_bands() - 1;
    for b in 0..contours.num_bands() {
        let lo = contours.cc(b);
        for &cell in contours.cells(b) {
            let c = ess.posp.cost(cell);
            debug_assert!(
                c >= lo * (1.0 - SLACK),
                "cell {cell}: optimal cost {c} below band {b} lower edge {lo}"
            );
            debug_assert!(
                b == last || c < lo * ratio * (1.0 + SLACK),
                "cell {cell}: optimal cost {c} above band {b} upper edge {}",
                lo * ratio
            );
        }
    }
}

/// Check that a budget charged on band `band` respects the doubling
/// discipline: it is at least the band's lower edge `CC_band` and (except
/// on the open last band) below the next edge `r·CC_band`. It needs only
/// the ladder, so a lazily compiling surface is checked band by band
/// without a finished [`Ess`]. Discovery algorithms call this (through
/// `RobustRuntime::debug_check_band_budget`) at every POSP-derived
/// budget. No-op in release builds.
pub fn debug_check_band_budget(ladder: &Ladder, band: usize, budget: f64) {
    if !cfg!(debug_assertions) {
        return;
    }
    let (lo, ratio) = (ladder.cc(band), ladder.ratio());
    debug_assert!(
        budget >= lo * (1.0 - SLACK),
        "band {band}: budget {budget} below contour edge {lo}"
    );
    debug_assert!(
        band + 1 >= ladder.num_bands() || budget < lo * ratio * (1.0 + SLACK),
        "band {band}: budget {budget} breaches the doubling window (edge {lo}, ratio {ratio})"
    );
}

/// Check a finished trace's cost accounting, *including* under fault
/// injection: every step's expenditure is finite and non-negative, and the
/// step expenditures sum to the accounted `total_cost` (wasted retry work
/// must appear in both places or in neither). Unlike the debug checks
/// above this runs in release builds too — the chaos harness calls it on
/// every swept trace.
pub fn check_trace_accounting(trace: &DiscoveryTrace) -> Result<(), String> {
    if !trace.total_cost.is_finite() || trace.total_cost < 0.0 {
        return Err(format!(
            "{}: total cost {} is not finite/non-negative",
            trace.algo, trace.total_cost
        ));
    }
    let mut sum = 0.0;
    for (i, s) in trace.steps.iter().enumerate() {
        if !s.spent.is_finite() || s.spent < 0.0 {
            return Err(format!(
                "{}: step {i} spent {} is not finite/non-negative",
                trace.algo, s.spent
            ));
        }
        sum += s.spent;
    }
    let tol = SLACK * (1.0 + trace.total_cost.abs());
    if (sum - trace.total_cost).abs() > tol {
        return Err(format!(
            "{}: step expenditures sum to {sum} but the trace accounts {}",
            trace.algo, trace.total_cost
        ));
    }
    Ok(())
}

/// The degraded sub-optimality bound a clean guarantee implies under
/// supervised fault injection: every logical execution can be re-issued
/// with backed-off budgets plus one clean last resort, so the clean bound
/// dilates by exactly [`degraded_factor`].
pub fn chaos_degraded_bound(clean_bound: f64) -> f64 {
    clean_bound * degraded_factor()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::example_2d;
    use rqp_ess::EssConfig;
    use rqp_optimizer::Optimizer;
    use rqp_qplan::CostModel;

    fn compiled_ess() -> Ess {
        let (catalog, query) = example_2d();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        Ess::compile(&opt, EssConfig { resolution: 8, ..Default::default() }).unwrap()
    }

    #[test]
    fn compiled_ess_satisfies_both_invariants() {
        let ess = compiled_ess();
        debug_check_contours(&ess);
        for band in 0..ess.contours.num_bands() {
            for &cell in ess.contours.cells(band) {
                debug_check_band_budget(ess.contours.ladder(), band, ess.posp.cost(cell));
            }
        }
    }

    #[test]
    fn trace_accounting_accepts_consistent_and_rejects_corrupt_traces() {
        use crate::trace::{ExecMode, PlanRef, Step};
        let step = |spent: f64| Step {
            band: 0,
            plan: PlanRef::Posp(rqp_ess::PlanId(0)),
            mode: ExecMode::Full,
            budget: 10.0,
            spent,
            completed: true,
            learned: None,
            attempt: 0,
            faulted: false,
        };
        let mut t = DiscoveryTrace {
            algo: "T",
            qa: 0,
            steps: vec![step(3.0), step(4.5)],
            total_cost: 7.5,
            oracle_cost: 1.0,
            failure: None,
            quarantined: vec![],
        };
        assert!(check_trace_accounting(&t).is_ok());
        t.total_cost = 9.0;
        assert!(check_trace_accounting(&t).is_err());
        t.total_cost = 7.5;
        t.steps.push(step(f64::NAN));
        assert!(check_trace_accounting(&t).is_err());
    }

    #[test]
    fn degraded_bound_dilates_by_the_policy_factor() {
        let clean = 10.0;
        assert!((chaos_degraded_bound(clean) - clean * degraded_factor()).abs() < 1e-12);
        assert!(chaos_degraded_bound(clean) >= clean);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "doubling window")]
    fn budget_above_the_window_is_rejected() {
        let ess = compiled_ess();
        debug_check_band_budget(
            ess.contours.ladder(),
            0,
            ess.contours.cc(0) * ess.contours.ratio * 2.0,
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below contour edge")]
    fn budget_below_the_edge_is_rejected() {
        let ess = compiled_ess();
        debug_check_band_budget(ess.contours.ladder(), 1, ess.contours.cc(1) * 0.25);
    }
}

//! The traditional-optimizer baseline.
//!
//! A conventional engine estimates the epp selectivities (`qe`), picks the
//! plan optimal there, and runs it wherever the query actually lives
//! (`qa`). Its sub-optimality is `Cost(P_qe, qa) / Cost(P_qa, qa)`, and its
//! MSO — with estimation errors ranging over the whole ESS, as the paper
//! assumes — is the worst such ratio over all `(qe, qa)` pairs (Eq. 2).

use crate::runtime::RobustRuntime;
use crate::trace::{DiscoveryTrace, PlanRef};
use crate::Discovery;
use rayon::prelude::*;
use rqp_ess::Cell;
use std::sync::Arc;

/// The native-optimizer baseline with the catalog's own estimate for `qe`.
pub struct NativeOptimizer;

impl Discovery for NativeOptimizer {
    fn name(&self) -> &'static str {
        "Native"
    }

    fn discover(&self, rt: &RobustRuntime<'_>, qa: Cell) -> DiscoveryTrace {
        let qe = rt.estimated_location();
        let planned = rt.optimizer.optimize(qe);
        let plan = Arc::new(planned.plan);
        let qa_loc = rt.grid().location(qa);
        let band = rt.band_of(qa);
        let mut sup = rt.supervisor(self.name());
        let plan_ref = PlanRef::Bespoke(Arc::clone(&plan));
        // the traditional optimizer has exactly one plan and no fallback:
        // if it keeps faulting past the retry budget, the honest outcome is
        // a structured failure (with all sunk work accounted), not an abort
        let completed = sup
            .execute_full(&rt.engine, &plan, &plan_ref, band, &qa_loc, f64::INFINITY)
            .is_some_and(|out| out.completed());
        let failure = (!completed).then(|| {
            "native plan failed beyond the retry budget; \
             the traditional optimizer has no fallback plan"
                .to_string()
        });
        sup.finish(qa, rt.oracle_cost(qa), failure)
    }
}

/// Worst-case native MSO with estimation errors spanning the entire ESS:
/// `max_{qa} max_{qe} Cost(P_qe, qa) / Cost(P_qa, qa)`. Every `P_qe` is a
/// POSP plan, so the inner maximum ranges over the plan registry.
pub fn native_mso_worst_estimate(rt: &RobustRuntime<'_>) -> f64 {
    // the sweep ranges over the whole POSP plan pool, so pull every band
    // first (a full compile on a lazy surface — worst-case analysis is a
    // whole-surface consumer by definition)
    rt.band_cells(rt.num_bands() - 1);
    let plan_ids = rt.plan_pool();
    rt.grid()
        .cells()
        .into_par_iter()
        .map(|qa| {
            let oracle = rt.oracle_cost(qa);
            plan_ids.iter().map(|&id| rt.plan_cost_at(id, qa) / oracle).fold(0.0f64, f64::max)
        })
        .reduce(|| 0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{example_2d, runtime};

    #[test]
    fn native_subopt_is_at_least_one_everywhere() {
        let rt = runtime(example_2d(), 10);
        let native = NativeOptimizer;
        for qa in rt.grid().cells() {
            let t = native.discover(&rt, qa);
            assert!(t.subopt() >= 1.0 - 1e-9);
            assert_eq!(t.steps.len(), 1);
        }
    }

    #[test]
    fn worst_estimate_mso_dominates_fixed_estimate_mso() {
        let rt = runtime(example_2d(), 10);
        let native = NativeOptimizer;
        let fixed =
            rt.grid().cells().map(|qa| native.discover(&rt, qa).subopt()).fold(0.0f64, f64::max);
        let worst = native_mso_worst_estimate(&rt);
        assert!(worst >= fixed - 1e-9);
        assert!(worst >= 1.0);
    }
}

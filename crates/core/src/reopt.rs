//! A POP/Rio-style *mid-query reoptimization* baseline (§8).
//!
//! The influential pre-bouquet approaches to robustness (POP [Markl et al.
//! 2004], Rio [Babu et al. 2005], and the earlier Kabra–DeWitt scheme)
//! start from the optimizer's estimate and re-optimize mid-flight when
//! observed cardinalities stray outside a validity range. The paper
//! contrasts them with the bouquet family on two counts: they carry **no
//! MSO guarantee** (a bad first plan can sink arbitrary work before the
//! first checkpoint), and their behaviour is seed-dependent rather than
//! repeatable from the origin. This module implements the class faithfully
//! enough to measure that difference:
//!
//! * plan chosen at the current estimate `qe`;
//! * execution observes each error-prone predicate's true selectivity in
//!   pipeline order (the same observation points the spill machinery uses);
//! * the first observation deviating from its estimate by more than a
//!   `threshold` factor triggers reoptimization: the work performed so far
//!   (the subtree that produced the observation) is paid for, the estimate
//!   is corrected with every truth observed so far, and a new plan is
//!   chosen;
//! * when every epp observation stays within the validity range, the plan
//!   runs to completion.
//!
//! Each round fixes at least one more epp exactly, so there are at most
//! `D+1` rounds; but the *cost* of a round is unbounded relative to the
//! oracle — exactly why no MSO bound exists for this class.

use crate::runtime::RobustRuntime;
use crate::trace::{DiscoveryTrace, PlanRef};
use crate::Discovery;
use rqp_catalog::{EppId, Selectivity};
use rqp_ess::Cell;
use rqp_qplan::pipeline::{epp_spill_order, spill_subtree};
use std::sync::Arc;

/// The mid-query reoptimization baseline.
#[derive(Debug, Clone, Copy)]
pub struct ReOptimizer {
    /// Validity-range factor: an observation `o` with estimate `e`
    /// triggers reoptimization when `o > e·threshold` or `o < e/threshold`
    /// (POP's check-placement uses a comparable range; 2.0 is a common
    /// setting).
    pub threshold: f64,
}

impl ReOptimizer {
    /// A reoptimizer with the given validity factor.
    ///
    /// # Panics
    /// Panics unless `threshold > 1`.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold > 1.0, "validity factor must exceed 1");
        ReOptimizer { threshold }
    }
}

impl Default for ReOptimizer {
    fn default() -> Self {
        ReOptimizer::new(2.0)
    }
}

impl Discovery for ReOptimizer {
    fn name(&self) -> &'static str {
        "ReOpt"
    }

    fn discover(&self, rt: &RobustRuntime<'_>, qa: Cell) -> DiscoveryTrace {
        let grid = rt.grid();
        let qa_loc = grid.location(qa);
        // current selectivity beliefs: catalog estimates, progressively
        // overwritten by observed truths
        let mut believed = rt.estimated_location().clone();
        let mut observed = vec![false; grid.dims()];
        let mut sup = rt.supervisor(self.name());

        // each round observes ≥1 new epp or completes; D+1 bounds rounds
        for _round in 0..=grid.dims() {
            let planned = rt.optimizer.optimize(&believed);
            let plan = Arc::new(planned.plan);
            let band = rt.band_of(qa).min(rt.num_bands() - 1);

            // observation points in pipeline order
            let mut violation: Option<EppId> = None;
            for e in epp_spill_order(&plan, rt.query) {
                if observed[e.0] {
                    continue;
                }
                let est = believed.get(e.0).value();
                let truth = qa_loc.get(e.0).value();
                // the observation itself is now known either way
                observed[e.0] = true;
                believed.set(e.0, Selectivity::new(truth));
                if truth > est * self.threshold || truth < est / self.threshold {
                    violation = Some(e);
                    break;
                }
            }

            match violation {
                Some(e) => {
                    // pay for the work that produced the violating
                    // observation: the subtree rooted at the epp's node,
                    // at true cardinalities
                    // epp_spill_order only yields epps the plan evaluates, so
                    // the subtree always exists; if the invariant ever broke,
                    // charging the whole plan keeps the cost conservative.
                    let subtree = spill_subtree(&plan, rt.query, e).unwrap_or_else(|| {
                        debug_assert!(false, "plan evaluates epp {e}");
                        (*plan).clone()
                    });
                    let plan_ref = PlanRef::Bespoke(Arc::clone(&plan));
                    let done = sup.execute_full(
                        &rt.engine,
                        &subtree,
                        &plan_ref,
                        band,
                        &qa_loc,
                        f64::INFINITY,
                    );
                    if done.is_none() {
                        // the observing subtree failed beyond the retry
                        // budget: without the observation this class has no
                        // recovery path, so report a structured failure
                        // with all sunk work accounted
                        let failure = format!(
                            "reoptimization aborted: observing subtree for \
                             epp {e} failed beyond the retry budget"
                        );
                        return sup.finish(qa, rt.oracle_cost(qa), Some(failure));
                    }
                    // the subtree run only produced an observation, not the
                    // query result
                    sup.observed(e, qa_loc.get(e.0).value());
                    // loop: reoptimize with the corrected beliefs
                }
                None => {
                    // all observations in range: the plan runs to the end
                    let plan_ref = PlanRef::Bespoke(Arc::clone(&plan));
                    let completed = sup
                        .execute_full(&rt.engine, &plan, &plan_ref, band, &qa_loc, f64::INFINITY)
                        .is_some_and(|out| out.completed());
                    let failure = (!completed).then(|| {
                        "final reoptimization round failed beyond the retry budget".to_string()
                    });
                    return sup.finish(qa, rt.oracle_cost(qa), failure);
                }
            }
        }
        // every round observes ≥1 new epp, so the loop always returns from
        // its completion arm; surface a broken invariant without panicking
        debug_assert!(false, "D+1 reoptimization rounds did not complete");
        sup.finish(qa, rt.oracle_cost(qa), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::spillbound::SpillBound;
    use crate::test_support::{example_2d, runtime};

    #[test]
    fn completes_everywhere_with_bounded_rounds() {
        let rt = runtime(example_2d(), 12);
        let reopt = ReOptimizer::default();
        for qa in rt.grid().cells() {
            let t = reopt.discover(&rt, qa);
            assert!(t.steps.last().unwrap().completed, "cell {qa}");
            assert!(t.subopt() >= 1.0 - 1e-9, "cell {qa}: subopt {}", t.subopt());
            assert!(
                t.steps.len() <= rt.dims() + 1,
                "cell {qa}: {} rounds exceed D+1",
                t.steps.len()
            );
        }
    }

    #[test]
    fn when_the_estimate_is_right_no_reoptimization_happens() {
        let rt = runtime(example_2d(), 12);
        let reopt = ReOptimizer::default();
        // put qa at (a grid snap of) the estimated location
        let qe = rt.estimated_location();
        let grid = rt.grid();
        let coords: Vec<usize> = (0..2).map(|d| grid.snap_ceil(d, qe.get(d).value())).collect();
        let qa = grid.index(&coords);
        let t = reopt.discover(&rt, qa);
        // close to its own estimate the plan should run in one round
        assert!(t.steps.len() <= 2, "{} rounds near the estimate", t.steps.len());
    }

    #[test]
    fn reopt_has_no_mso_guarantee_but_sb_does() {
        // the motivating contrast of §8: ReOpt's worst case floats free of
        // any structural bound, SB's does not
        let rt = runtime(example_2d(), 12);
        let reopt_ev = evaluate(&rt, &ReOptimizer::default());
        let sb_ev = evaluate(&rt, &SpillBound::new());
        let sb_bound = 2.0 * crate::guarantees::sb_guarantee(rt.dims());
        assert!(sb_ev.mso <= sb_bound);
        // ReOpt completes but typically exceeds SB somewhere on the grid;
        // at minimum it must be a valid algorithm
        assert!(reopt_ev.mso >= 1.0);
        assert!(reopt_ev.aso >= 1.0);
    }

    #[test]
    fn wider_validity_ranges_mean_fewer_rounds() {
        let rt = runtime(example_2d(), 12);
        let strict = ReOptimizer::new(1.1);
        let loose = ReOptimizer::new(1e12);
        let qa = rt.grid().terminus();
        let t_strict = strict.discover(&rt, qa);
        let t_loose = loose.discover(&rt, qa);
        assert!(t_loose.steps.len() <= t_strict.steps.len());
        assert_eq!(t_loose.steps.len(), 1, "an enormous range never reoptimizes");
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn degenerate_threshold_rejected() {
        ReOptimizer::new(1.0);
    }
}

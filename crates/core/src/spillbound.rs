//! The SpillBound algorithm (Algorithm 1, §4).
//!
//! SpillBound walks the same doubling contours as PlanBouquet but replaces
//! brute-force plan cycling with *spill-mode* executions: on each contour,
//! for every remaining error-prone predicate `e_j`, it picks the contour
//! plan `P^j_max` that guarantees maximal selectivity learning along
//! dimension `j` (the plan optimal at the contour location with the largest
//! `j`-coordinate among locations whose plan spills on `j`, §3.2) and
//! executes it in spill-mode with the contour budget. Either some execution
//! completes — an epp's selectivity becomes exactly known and the epp is
//! retired — or all fail, which proves `qa` lies beyond the contour
//! (half-space pruning, Lemmas 3.1/4.3) and the search jumps to the next
//! contour. When a single epp remains, the discovery reduces to a 1-D
//! problem and plain PlanBouquet finishes the job (§4.1).
//!
//! The result is at most `D` fresh executions per contour and at most
//! `D(D-1)/2` repeat executions overall (Lemma 4.4), giving
//! `MSO ≤ D² + 3D` — a *structural* bound independent of the optimizer and
//! platform.

use crate::bouquet::bouquet_endgame;
use crate::knowledge::Knowledge;
use crate::runtime::RobustRuntime;
use crate::surface::memoise;
use crate::trace::{DiscoveryTrace, PlanRef};
use crate::Discovery;
use rqp_catalog::EppId;
use rqp_ess::{Cell, PlanId};
use rqp_qplan::pipeline::spill_target;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Memo key for per-contour decisions: the band and the exactly-learnt
/// `(dimension, grid coordinate)` pairs. The memo belongs to one surface
/// (see [`crate::surface::ContourMemo`]), so the key needs no surface
/// identity.
pub(crate) type StateKey = (usize, Vec<(usize, usize)>);

/// Per-contour choice: for each dimension, the maximal-learning cell and
/// its plan (`(q^j_max, P^j_max)`), if any contour plan spills on `j`.
pub(crate) struct ContourChoice {
    pub per_dim: Vec<Option<(Cell, PlanId)>>,
}

/// Build the cache key for the current knowledge state.
pub(crate) fn state_key(rt: &RobustRuntime<'_>, band: usize, know: &Knowledge) -> StateKey {
    let grid = rt.grid();
    let mut learnt = Vec::new();
    for d in 0..grid.dims() {
        if let Some(v) = know.exact(EppId(d)) {
            learnt.push((d, grid.snap_ceil(d, v)));
        }
    }
    (band, learnt)
}

/// Compute `(q^j_max, P^j_max)` for every unlearnt dimension on the
/// effective slice of a band.
pub(crate) fn contour_choice(
    rt: &RobustRuntime<'_>,
    band: usize,
    know: &Knowledge,
    unlearnt: &BTreeSet<EppId>,
) -> ContourChoice {
    let grid = rt.grid();
    let mut per_dim: Vec<Option<(Cell, PlanId)>> = vec![None; grid.dims()];
    for &cell in rt.band_cells(band).iter() {
        if !know.matches_exact(grid, cell) {
            continue;
        }
        let plan_id = rt.plan_id_at(cell);
        let plan = rt.plan(plan_id);
        let Some(j) = spill_target(&plan, rt.query, unlearnt) else { continue };
        let better = match per_dim[j.0] {
            None => true,
            Some((best, _)) => grid.coord(cell, j.0) > grid.coord(best, j.0),
        };
        if better {
            per_dim[j.0] = Some((cell, plan_id));
        }
    }
    ContourChoice { per_dim }
}

/// [`contour_choice`] through the surface's memo.
pub(crate) fn memo_choice(
    rt: &RobustRuntime<'_>,
    band: usize,
    know: &Knowledge,
    unlearnt: &BTreeSet<EppId>,
) -> Arc<ContourChoice> {
    memoise(&rt.memo().sb, state_key(rt, band, know), || contour_choice(rt, band, know, unlearnt))
}

/// The SpillBound algorithm.
pub struct SpillBound {
    /// Refine lower bounds by bisection on budget expiry (richer traces,
    /// slower); the guarantees only need the coarse `qa.j > q.j` learning.
    pub refine_bounds: bool,
}

impl SpillBound {
    /// SpillBound with coarse (guaranteed) learning — the default for
    /// exhaustive evaluation.
    pub fn new() -> Self {
        SpillBound { refine_bounds: false }
    }

    /// SpillBound with bisection-refined bound learning, matching what a
    /// selectivity monitor would actually observe. Produces the
    /// Manhattan-profile traces of Fig. 7 / Table 3.
    pub fn with_refined_bounds() -> Self {
        SpillBound { refine_bounds: true }
    }
}

impl Default for SpillBound {
    fn default() -> Self {
        SpillBound::new()
    }
}

impl Discovery for SpillBound {
    fn name(&self) -> &'static str {
        "SB"
    }

    fn discover(&self, rt: &RobustRuntime<'_>, qa: Cell) -> DiscoveryTrace {
        let grid = rt.grid();
        let qa_loc = grid.location(qa);
        let m = rt.num_bands();
        let mut sup = rt.supervisor(self.name());
        let mut know = Knowledge::new(grid);
        let mut band = 0usize;

        loop {
            let _band_span = sup.band_span(band);
            let unlearnt = know.unlearnt();
            if unlearnt.len() <= 1 || band >= m {
                bouquet_endgame(rt, &know, band.min(m - 1), &qa_loc, &mut sup);
                break;
            }
            let choice = memo_choice(rt, band, &know, &unlearnt);
            let mut learnt_exact = false;
            for &j in &unlearnt {
                let Some((cell, plan_id)) = choice.per_dim[j.0] else {
                    continue; // no contour plan spills on this epp: skip (§4.2)
                };
                let plan = rt.plan(plan_id);
                let budget = rt.oracle_cost(cell);
                rt.debug_check_band_budget(band, budget);
                let reference = grid.location(cell);
                // supervised: retried on injected failures, backed by a
                // clean surrogate execution, so the observation is always
                // sound
                let out = sup.execute_spill(
                    &rt.engine,
                    &plan,
                    &PlanRef::Posp(plan_id),
                    band,
                    j,
                    &reference,
                    &qa_loc,
                    budget,
                    self.refine_bounds,
                );
                if out.learned.is_exact() {
                    know.learn_exact(j, out.learned.value());
                    learnt_exact = true;
                    break; // re-derive choices on the same contour
                } else {
                    know.learn_bound(j, out.learned.value());
                }
            }
            if !learnt_exact {
                // half-space pruning: qa lies beyond this contour
                crate::obs::half_space_prune(self.name(), band, unlearnt.len());
                band += 1;
            }
        }
        sup.finish(qa, rt.oracle_cost(qa), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarantees::sb_guarantee;
    use crate::test_support::{example_2d, example_3d};
    use crate::trace::ExecMode;
    use rqp_ess::EssConfig;
    use rqp_qplan::CostModel;

    fn runtime_2d() -> RobustRuntime<'static> {
        let (catalog, query) = example_2d();
        let catalog: &'static _ = Box::leak(Box::new(catalog));
        let query: &'static _ = Box::leak(Box::new(query));
        RobustRuntime::compile(
            catalog,
            query,
            CostModel::default(),
            EssConfig { resolution: 12, min_sel: 1e-6, ..Default::default() },
        )
        .unwrap()
    }

    #[test]
    fn completes_everywhere_within_band_adjusted_guarantee() {
        let rt = runtime_2d();
        let sb = SpillBound::new();
        // band-discretized guarantee: 2×(D²+3D) (see DESIGN.md)
        let bound = 2.0 * sb_guarantee(rt.dims());
        for qa in rt.grid().cells() {
            let t = sb.discover(&rt, qa);
            assert!(t.subopt() >= 1.0 - 1e-9, "cell {qa}: subopt {} < 1", t.subopt());
            assert!(
                t.subopt() <= bound + 1e-9,
                "cell {qa}: subopt {} exceeds band-adjusted bound {bound}",
                t.subopt()
            );
        }
    }

    #[test]
    fn per_contour_spill_executions_bounded_by_d() {
        let rt = runtime_2d();
        let sb = SpillBound::new();
        let d = rt.dims();
        for qa in [0, rt.grid().num_cells() / 2, rt.grid().terminus()] {
            let t = sb.discover(&rt, qa);
            let mut consecutive_fail = 0usize;
            let mut prev_band = usize::MAX;
            for s in &t.steps {
                if s.band != prev_band {
                    consecutive_fail = 0;
                    prev_band = s.band;
                }
                if matches!(s.mode, ExecMode::Spill(_)) && !s.completed {
                    consecutive_fail += 1;
                    assert!(
                        consecutive_fail <= d,
                        "more than D consecutive failed spills on one contour"
                    );
                } else {
                    consecutive_fail = 0;
                }
            }
        }
    }

    #[test]
    fn learning_never_overshoots_truth() {
        let rt = runtime_2d();
        let sb = SpillBound::with_refined_bounds();
        let grid = rt.grid();
        for qa in (0..grid.num_cells()).step_by(7) {
            let qa_loc = grid.location(qa);
            let t = sb.discover(&rt, qa);
            for s in &t.steps {
                if let Some((j, v, exact)) = s.learned {
                    let truth = qa_loc.get(j.0).value();
                    if exact {
                        assert_eq!(v, truth, "cell {qa}: exact learning mismatch");
                    } else {
                        assert!(v < truth + 1e-15, "cell {qa}: bound {v} overshoots {truth}");
                    }
                }
            }
        }
    }

    #[test]
    fn three_dim_instance_completes_and_retires_epps_in_order() {
        let (catalog, query) = example_3d();
        let catalog: &'static _ = Box::leak(Box::new(catalog));
        let query: &'static _ = Box::leak(Box::new(query));
        let rt = RobustRuntime::compile(
            catalog,
            query,
            CostModel::default(),
            EssConfig { resolution: 7, min_sel: 1e-6, ..Default::default() },
        )
        .unwrap();
        let sb = SpillBound::new();
        let bound = 2.0 * sb_guarantee(3);
        for qa in (0..rt.grid().num_cells()).step_by(11) {
            let t = sb.discover(&rt, qa);
            assert!(t.steps.last().unwrap().completed, "cell {qa} did not complete");
            assert!(t.subopt() <= bound + 1e-9, "cell {qa}: subopt {} exceeds {bound}", t.subopt());
        }
    }

    #[test]
    fn cost_error_stays_within_inflated_guarantee() {
        // §7: with a δ-bounded cost-model error the MSO guarantee inflates
        // by at most (1+δ)²
        let (catalog, query) = example_2d();
        let catalog: &'static _ = Box::leak(Box::new(catalog));
        let query: &'static _ = Box::leak(Box::new(query));
        for delta in [0.1, 0.3, 0.5] {
            let mut rt = RobustRuntime::compile(
                catalog,
                query,
                CostModel::default(),
                EssConfig { resolution: 10, min_sel: 1e-6, ..Default::default() },
            )
            .unwrap();
            rt.set_cost_error(delta);
            let bound = (1.0 + delta) * (1.0 + delta) * 2.0 * sb_guarantee(rt.dims());
            let sb = SpillBound::new();
            for qa in rt.grid().cells() {
                let t = sb.discover(&rt, qa);
                assert!(t.steps.last().unwrap().completed, "δ={delta} cell {qa}");
                assert!(
                    t.subopt() <= bound + 1e-9,
                    "δ={delta} cell {qa}: subopt {} exceeds inflated bound {bound}",
                    t.subopt()
                );
            }
        }
    }

    #[test]
    fn empirical_mso_beats_plan_bouquet_on_the_example() {
        use crate::bouquet::PlanBouquet;
        let rt = runtime_2d();
        let sb = SpillBound::new();
        let pb = PlanBouquet::new();
        let (mut mso_sb, mut mso_pb) = (0.0f64, 0.0f64);
        for qa in rt.grid().cells() {
            mso_sb = mso_sb.max(sb.discover(&rt, qa).subopt());
            mso_pb = mso_pb.max(pb.discover(&rt, qa).subopt());
        }
        // the paper's headline comparison: SB's empirical MSO should not be
        // materially worse than PB's (and is typically much better)
        assert!(mso_sb <= mso_pb * 1.5 + 1e-9, "SB MSOe {mso_sb} much worse than PB MSOe {mso_pb}");
    }
}

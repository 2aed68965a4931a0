//! The SpillBound algorithm (Algorithm 1, §4) and the spill walk it
//! shares with AlignedBound.
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
//!
//! `contour_walk` is the one loop that spill-executes per contour. It
//! runs SpillBound and AlignedBound alike; the two differ only in the
//! per-contour execution list it is handed. SpillBound's list is
//! `sb_list`: one `SpillExec` per unlearnt dimension that some
//! effective contour plan spills on, in ascending dimension order.

use crate::bouquet::{bouquet_walk, effective_plans};
use crate::knowledge::Knowledge;
use crate::runtime::RobustRuntime;
use crate::surface::memoise;
use crate::trace::{DiscoveryTrace, PlanRef};
use crate::Discovery;
use rqp_catalog::EppId;
use rqp_ess::{Cell, PlanId};
use rqp_qplan::pipeline::spill_target;
use rqp_qplan::PlanNode;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Memo key for per-contour decisions: the band and the exactly-learnt
/// `(dimension, grid coordinate)` pairs. The memo belongs to one surface
/// (see [`crate::surface::ContourMemo`]), so the key needs no surface
/// identity.
pub(crate) type StateKey = (usize, Vec<(usize, usize)>);

/// A contour's execution list, in execution order.
pub(crate) type SpillList = Arc<Vec<SpillExec>>;

/// One spill execution of a contour's list.
#[derive(Clone)]
pub(crate) struct SpillExec {
    /// The dimension this execution learns.
    pub dim: EppId,
    /// The plan to spill-execute.
    pub plan: PlanRef,
    /// Assigned budget (cost of the plan at its reference cell).
    pub budget: f64,
    /// Reference cell supplying the spill-learning location.
    pub reference: Cell,
}

impl SpillExec {
    /// The plan tree to execute.
    fn node(&self, rt: &RobustRuntime<'_>) -> Arc<PlanNode> {
        match &self.plan {
            PlanRef::Posp(id) => rt.plan(*id),
            PlanRef::Bespoke(node) => Arc::clone(node),
        }
    }
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

/// SpillBound's execution list for a band's effective slice, through the
/// surface's memo: `(q^j_max, P^j_max)` for every unlearnt dimension `j`
/// that some contour plan spills on, budgeted at the optimal cost of
/// `q^j_max`, in ascending `j`.
pub(crate) fn sb_list(
    rt: &RobustRuntime<'_>,
    band: usize,
    know: &Knowledge,
    unlearnt: &BTreeSet<EppId>,
) -> SpillList {
    memoise(&rt.memo().sb, state_key(rt, band, know), || {
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
        // a dimension no contour plan spills on is skipped (§4.2)
        let execs = per_dim.into_iter().enumerate().filter_map(|(j, choice)| {
            let (cell, plan_id) = choice?;
            let budget = rt.oracle_cost(cell);
            rt.debug_check_band_budget(band, budget);
            Some(SpillExec { dim: EppId(j), plan: PlanRef::Posp(plan_id), budget, reference: cell })
        });
        execs.collect()
    })
}

/// The spill walk shared by SpillBound and AlignedBound. On each contour
/// it spill-executes `list`'s executions in order until one learns its
/// dimension exactly, then re-derives the list on the same contour with
/// the new knowledge; when none does, `qa` lies beyond the contour
/// (half-space pruning) and the walk moves to the next one. With at most
/// one epp unlearnt (or the contours exhausted) it hands off to the
/// bouquet endgame over the effective slice (§4.1). A contour gets one
/// `contour_band` span however often its list is re-derived; a contour
/// with nothing to run gets no span and no prune.
///
/// A quarantined plan is replaced by SpillBound's execution for the same
/// dimension, retaining the quadratic guarantee's execution shape. For
/// SpillBound's own list that surrogate is the quarantined plan itself,
/// so the rule changes nothing there.
pub(crate) fn contour_walk(
    rt: &RobustRuntime<'_>,
    qa: Cell,
    name: &'static str,
    refine_bounds: bool,
    list: impl Fn(&RobustRuntime<'_>, usize, &Knowledge, &BTreeSet<EppId>) -> SpillList,
) -> DiscoveryTrace {
    let grid = rt.grid();
    let qa_loc = grid.location(qa);
    let m = rt.num_bands();
    let mut sup = rt.supervisor(name);
    let mut know = Knowledge::new(grid);
    let mut band = 0usize;
    // The current band's span: it stays open while the walk re-derives
    // the list on the same contour, and passes to the endgame if that
    // starts there.
    let mut band_span = None;

    'walk: loop {
        let unlearnt = know.unlearnt();
        if unlearnt.len() <= 1 || band >= m {
            let lists = |b| effective_plans(rt, b, &know);
            let from = band.min(m - 1);
            bouquet_walk(rt, &mut sup, &qa_loc, from, band_span, &know, lists, |id| rt.plan(id));
            break;
        }
        let execs = list(rt, band, &know, &unlearnt);
        if execs.is_empty() {
            // nothing to run on this contour: pass it with no span, no prune
            band_span = None;
            band += 1;
            continue;
        }
        band_span.get_or_insert_with(|| sup.band_span(band));
        for exec in execs.iter() {
            let mut exec = exec.clone();
            let mut node = exec.node(rt);
            if sup.is_quarantined(&node) {
                let sb = sb_list(rt, band, &know, &unlearnt);
                let dim = exec.dim;
                if let Some(s) =
                    sb.iter().find(|s| s.dim == dim && !sup.is_quarantined(&s.node(rt)))
                {
                    exec = s.clone();
                    node = exec.node(rt);
                }
            }
            let reference = grid.location(exec.reference);
            // supervised: retried on injected failures, backed by a clean
            // surrogate execution, so the observation is always sound
            let out = sup.execute_spill(
                &rt.engine,
                &node,
                &exec.plan,
                band,
                exec.dim,
                &reference,
                &qa_loc,
                exec.budget,
                refine_bounds,
            );
            if out.learned.is_exact() {
                know.learn_exact(exec.dim, out.learned.value());
                continue 'walk; // re-derive the list on the same contour
            }
            know.learn_bound(exec.dim, out.learned.value());
        }
        // half-space pruning: qa lies beyond this contour
        crate::obs::half_space_prune(name, band, unlearnt.len());
        band_span = None;
        band += 1;
    }
    sup.finish(qa, rt.oracle_cost(qa), None)
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
        contour_walk(rt, qa, self.name(), self.refine_bounds, sb_list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aligned::AlignedBound;
    use crate::guarantees::sb_guarantee;
    use crate::test_support::{example_2d, example_3d, runtime};
    use crate::trace::ExecMode;

    #[test]
    fn completes_everywhere_within_band_adjusted_guarantee() {
        let rt = runtime(example_2d(), 12);
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
        // every cell of both fixtures, for both algorithms of the spill walk
        let algos: [&dyn Discovery; 2] = [&SpillBound::new(), &AlignedBound::new()];
        for rt in [runtime(example_2d(), 12), runtime(example_3d(), 7)] {
            let d = rt.dims();
            for algo in algos {
                for qa in rt.grid().cells() {
                    let t = algo.discover(&rt, qa);
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
                                "{} cell {qa}: more than D consecutive failed spills on one \
                                 contour",
                                algo.name()
                            );
                        } else {
                            consecutive_fail = 0;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn learning_never_overshoots_truth() {
        let rt = runtime(example_2d(), 12);
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
        let rt = runtime(example_3d(), 7);
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
        for delta in [0.1, 0.3, 0.5] {
            let mut rt = runtime(example_2d(), 10);
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
        let rt = runtime(example_2d(), 12);
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

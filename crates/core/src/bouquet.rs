//! The PlanBouquet baseline (Dutt & Haritsa, TODS 2016) and the bouquet
//! walk it shares with the 1-D endgame of SpillBound and AlignedBound.
//!
//! PlanBouquet walks the doubling iso-cost contours from the cheapest
//! upward; on each contour it executes *every* contour plan under the
//! contour budget, discarding partial results on expiry, until some plan
//! completes (§1.1). Its guarantee is `MSO ≤ 4(1+λ)·ρ_red`, where `ρ_red`
//! is the maximum contour plan-density after anorexic reduction — a
//! *behavioural* bound that depends on the optimizer and platform.
//!
//! `bouquet_walk` is the one loop that runs budgeted full executions per
//! band. PlanBouquet runs it from band 0 with no knowledge, over the raw
//! diagram's lists (memoised per surface) or the anorexic ones (built at
//! construction). The spill walk's endgame runs it from the contour it
//! reached, over the lists of `effective_plans`: the plans of the cells
//! matching the exactly-learnt dimensions.

use crate::knowledge::Knowledge;
use crate::runtime::RobustRuntime;
use crate::supervise::Supervisor;
use crate::surface::memoise;
use crate::trace::{DiscoveryTrace, PlanRef};
use crate::Discovery;
use rqp_catalog::{RqpResult, SelVector};
use rqp_ess::{anorexic_reduce, Cell, Ess, PlanId, Reduced};
use rqp_obs::SpanGuard;
use rqp_qplan::PlanNode;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-contour execution list: distinct plans with their budgets.
pub(crate) type BandPlans = Arc<Vec<(PlanId, f64)>>;

/// The anorexic-reduced diagram PB runs on (the paper always runs PB on
/// the reduced diagram, λ = 0.2, §6.2).
struct Anorexic {
    /// The materialized surface: its plan-id space is the one `reduced`
    /// and `bands` refer to.
    ess: Arc<Ess>,
    reduced: Reduced,
    /// Per-band execution lists over the reduced assignment, built once at
    /// construction.
    bands: Vec<BandPlans>,
}

/// The PlanBouquet algorithm.
pub struct PlanBouquet {
    /// Optional anorexic-reduced cell→plan assignment. Its reduced-id band
    /// lists live here; raw PB's lists live in the surface's memo.
    reduced: Option<Anorexic>,
}

impl PlanBouquet {
    /// PlanBouquet over the raw (unreduced) POSP diagram. On a lazy
    /// runtime, bands are compiled only as the doubling walk pulls them.
    pub fn new() -> Self {
        PlanBouquet { reduced: None }
    }

    /// PlanBouquet over the anorexic-reduced diagram with threshold
    /// `lambda` (paper default 0.2). Reduction inspects the whole plan
    /// diagram, so this materializes the full surface up front and builds
    /// every band's execution list.
    ///
    /// # Errors
    /// Propagates a lazy surface's materialization failure.
    pub fn anorexic(rt: &RobustRuntime<'_>, lambda: f64) -> RqpResult<Self> {
        let ess = rt.ess()?;
        let reduced = anorexic_reduce(&ess.posp, &rt.optimizer, lambda);
        let bands = (0..ess.contours.num_bands())
            .map(|band| {
                let plans = ess.contours.cells(band).iter().map(|&cell| {
                    let plan = reduced.cell_plan[cell];
                    (plan, ess.posp.cost_of_plan_at(&rt.optimizer, plan, cell))
                });
                Arc::new(by_budget(plans))
            })
            .collect();
        Ok(PlanBouquet { reduced: Some(Anorexic { ess, reduced, bands }) })
    }

    /// The swallowing threshold in use (0 when unreduced).
    pub fn lambda(&self) -> f64 {
        self.reduced.as_ref().map_or(0.0, |a| a.reduced.lambda)
    }

    /// The bouquet cardinality parameter of the MSO guarantee: maximum
    /// plan-density over all contours (ρ, or ρ_red when reduced).
    pub fn rho(&self, rt: &RobustRuntime<'_>) -> usize {
        match &self.reduced {
            Some(a) => a.ess.contours.max_density_with(&a.reduced.cell_plan),
            None => (0..rt.num_bands()).map(|b| rt.band_density(b)).max().unwrap_or(0),
        }
    }

    /// The plan tree for an execution-list id, resolved against whichever
    /// id space produced it (the reduced surface's, or the runtime's).
    fn plan_node(&self, rt: &RobustRuntime<'_>, id: PlanId) -> Arc<PlanNode> {
        match &self.reduced {
            Some(a) => Arc::clone(a.ess.posp.plan(id)),
            None => rt.plan(id),
        }
    }

    /// Distinct plans on a band with their budgets: the budget of plan `P`
    /// is the maximum of `Cost(P, q)` over the band cells assigned to `P`
    /// (equal to the optimal cost there for the unreduced diagram).
    fn band_plans(&self, rt: &RobustRuntime<'_>, band: usize) -> BandPlans {
        match &self.reduced {
            Some(a) => Arc::clone(&a.bands[band]),
            None => memoise(&rt.memo().pb, band, || {
                by_budget(
                    rt.band_cells(band)
                        .iter()
                        .map(|&cell| (rt.plan_id_at(cell), rt.oracle_cost(cell))),
                )
            }),
        }
    }
}

/// Distinct plans of `(plan, cost)` pairs, each with its maximum cost as
/// budget, in ascending budget order. Execute cheap probes first. Budget
/// order is surface-independent — plan ids are not (eager ids follow
/// cell-index order, lazy ids flood order), so iterating by id would make
/// contour-wise execution depend on which surface compiled the band.
fn by_budget(plans: impl Iterator<Item = (PlanId, f64)>) -> Vec<(PlanId, f64)> {
    let mut budgets: BTreeMap<PlanId, f64> = BTreeMap::new();
    for (plan, cost) in plans {
        let e = budgets.entry(plan).or_insert(0.0);
        if cost > *e {
            *e = cost;
        }
    }
    let mut list: Vec<(PlanId, f64)> = budgets.into_iter().collect();
    list.sort_by(|a, b| a.1.total_cmp(&b.1));
    list
}

impl Default for PlanBouquet {
    fn default() -> Self {
        PlanBouquet::new()
    }
}

impl Discovery for PlanBouquet {
    fn name(&self) -> &'static str {
        if self.reduced.is_some() {
            "PB"
        } else {
            "PB-raw"
        }
    }

    fn discover(&self, rt: &RobustRuntime<'_>, qa: Cell) -> DiscoveryTrace {
        let grid = rt.grid();
        let mut sup = rt.supervisor(self.name());
        bouquet_walk(
            rt,
            &mut sup,
            &grid.location(qa),
            0,
            None,
            &Knowledge::new(grid),
            |band| self.band_plans(rt, band),
            |id| self.plan_node(rt, id),
        );
        sup.finish(qa, rt.oracle_cost(qa), None)
    }
}

/// The bouquet walk: from `from_band` upward, run each band's execution
/// list (`lists`, plan ids resolved by `node`) as budgeted full
/// executions until one completes. Plans run in regular (non-spill) mode —
/// spilling in the 1-D endgame weakens the bound. A plan whose
/// supervision gave up (or that is quarantined) falls through to the next
/// one, exactly like a budget expiry; the doubling walk absorbs the skip.
/// `open` is `from_band`'s span when the caller already opened it; a band
/// with nothing to run is passed without one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bouquet_walk(
    rt: &RobustRuntime<'_>,
    sup: &mut Supervisor,
    qa_loc: &SelVector,
    from_band: usize,
    mut open: Option<SpanGuard>,
    know: &Knowledge,
    lists: impl Fn(usize) -> BandPlans,
    node: impl Fn(PlanId) -> Arc<PlanNode>,
) {
    for band in from_band..rt.num_bands() {
        let list = lists(band);
        let _band_span = match open.take() {
            Some(span) => span,
            None if list.is_empty() => continue,
            None => sup.band_span(band),
        };
        for &(plan_id, budget) in list.iter() {
            let plan = node(plan_id);
            let plan_ref = PlanRef::Posp(plan_id);
            let Some(out) = sup.execute_full(&rt.engine, &plan, &plan_ref, band, qa_loc, budget)
            else {
                continue;
            };
            if out.completed() {
                return;
            }
        }
    }
    // Terminal safety net, unreachable under a perfect cost model (qa's own
    // band plan always completes): with a δ-perturbed engine (§7) actual
    // costs can overshoot every budget, or chaos can quarantine every
    // contour plan. Run the plan at the *effective terminus* — learnt
    // dimensions pinned to their exact values, unlearnt ones at their
    // maxima — with an unbounded budget (a real engine's "just finish it"
    // step). The choice uses only discovered knowledge, never `qa`.
    let grid = rt.grid();
    let coords: Vec<usize> = (0..grid.dims())
        .map(|d| match know.exact(rqp_catalog::EppId(d)) {
            Some(v) => grid.snap_ceil(d, v),
            None => grid.res(d) - 1,
        })
        .collect();
    let plan_id = rt.plan_id_at(grid.index(&coords));
    let plan = rt.plan(plan_id);
    let band = rt.num_bands() - 1;
    let plan_ref = PlanRef::Posp(plan_id);
    // supervised attempt first (identical to the pre-chaos behaviour when
    // nothing is injected) …
    let done = sup
        .execute_full(&rt.engine, &plan, &plan_ref, band, qa_loc, f64::INFINITY)
        .is_some_and(|out| out.completed());
    // … but the terminal safety net must finish: if supervision gave up or
    // a spurious exhaust masqueraded as an expiry, the injector-free
    // engine settles it
    if !done {
        sup.finish_clean(&rt.engine, &plan, &plan_ref, band, qa_loc);
    }
}

/// The endgame's execution list for `band`: the distinct plans on the
/// band's *effective slice* (cells matching the exactly-learnt dimensions)
/// with their budgets. The endgame is 2D-SpillBound's 1-D phase (§4.1: "we
/// simply invoke the standard PlanBouquet with only the [remaining] epp,
/// starting from the contour currently being explored") and its
/// D-dimensional and AlignedBound generalizations.
pub(crate) fn effective_plans(rt: &RobustRuntime<'_>, band: usize, know: &Knowledge) -> BandPlans {
    let grid = rt.grid();
    let plans = by_budget(
        rt.band_cells(band)
            .iter()
            .filter(|&&cell| know.matches_exact(grid, cell))
            .map(|&cell| (rt.plan_id_at(cell), rt.oracle_cost(cell))),
    );
    for &(_, budget) in &plans {
        rt.debug_check_band_budget(band, budget);
    }
    Arc::new(plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{example_2d, runtime};

    #[test]
    fn completes_everywhere_with_subopt_at_least_one() {
        let rt = runtime(example_2d(), 12);
        let pb = PlanBouquet::new();
        for qa in rt.grid().cells() {
            let t = pb.discover(&rt, qa);
            assert!(t.subopt() >= 1.0 - 1e-9, "cell {qa}: subopt {}", t.subopt());
            assert!(t.steps.last().unwrap().completed);
        }
    }

    #[test]
    fn never_executes_more_than_density_per_band() {
        let rt = runtime(example_2d(), 12);
        let pb = PlanBouquet::new();
        let t = pb.discover(&rt, rt.grid().terminus());
        let mut per_band: BTreeMap<usize, usize> = BTreeMap::new();
        for s in &t.steps {
            *per_band.entry(s.band).or_default() += 1;
        }
        for (band, n) in per_band {
            assert!(n <= rt.band_density(band).max(1), "band {band}: {n} executions");
        }
    }

    #[test]
    fn anorexic_variant_respects_guarantee_parameters() {
        let rt = runtime(example_2d(), 12);
        let raw = PlanBouquet::new();
        let red = PlanBouquet::anorexic(&rt, 0.2).unwrap();
        assert!(red.rho(&rt) <= raw.rho(&rt));
        assert_eq!(red.lambda(), 0.2);
        assert_eq!(raw.lambda(), 0.0);
        // reduced bouquet still completes everywhere
        for qa in [0, rt.grid().num_cells() / 2, rt.grid().terminus()] {
            let t = red.discover(&rt, qa);
            assert!(t.steps.last().unwrap().completed);
            assert!(t.subopt() >= 1.0 - 1e-9);
        }
    }

    /// Per step: band, plan label, budget and spend bits; then the total.
    fn signature(t: &DiscoveryTrace) -> (Vec<(usize, String, u64, u64)>, u64) {
        let steps = t
            .steps
            .iter()
            .map(|s| (s.band, s.plan.to_string(), s.budget.to_bits(), s.spent.to_bits()))
            .collect();
        (steps, t.total_cost.to_bits())
    }

    #[test]
    fn raw_and_anorexic_bouquets_do_not_share_band_lists() {
        let cells: Vec<Cell> = runtime(example_2d(), 12).grid().cells().collect();
        // each variant alone, on a runtime of its own
        let alone = |anorexic: bool| -> Vec<_> {
            let rt = runtime(example_2d(), 12);
            let pb = if anorexic {
                PlanBouquet::anorexic(&rt, 0.2).unwrap()
            } else {
                PlanBouquet::new()
            };
            cells.iter().map(|&qa| signature(&pb.discover(&rt, qa))).collect()
        };
        let (raw_alone, red_alone) = (alone(false), alone(true));
        assert_ne!(raw_alone, red_alone, "the reduction must change some trace here");
        // both on one runtime (one surface memo), in either order
        for raw_first in [true, false] {
            let rt = runtime(example_2d(), 12);
            let raw = PlanBouquet::new();
            let red = PlanBouquet::anorexic(&rt, 0.2).unwrap();
            let order: [(&PlanBouquet, &Vec<_>); 2] = if raw_first {
                [(&raw, &raw_alone), (&red, &red_alone)]
            } else {
                [(&red, &red_alone), (&raw, &raw_alone)]
            };
            for (pb, want) in order {
                let got: Vec<_> =
                    cells.iter().map(|&qa| signature(&pb.discover(&rt, qa))).collect();
                assert_eq!(
                    &got,
                    want,
                    "{} moved beside its twin (raw first: {raw_first})",
                    pb.name()
                );
            }
        }
    }

    #[test]
    fn expired_contour_executions_charge_the_full_budget() {
        // paper-faithful accounting (Lemma 3.1): an execution that expires
        // against its contour budget is charged the *whole* budget in the
        // trace, even though the row executor aborted mid-flight — and the
        // trace total accumulates every such charge
        let rt = runtime(example_2d(), 12);
        let pb = PlanBouquet::new();
        let t = pb.discover(&rt, rt.grid().terminus());
        let expired: Vec<_> =
            t.steps.iter().filter(|s| !s.completed && s.budget.is_finite()).collect();
        assert!(!expired.is_empty(), "terminus discovery must expire some executions");
        let mut sum = 0.0;
        for s in &t.steps {
            if !s.completed && s.budget.is_finite() {
                assert!(
                    (s.spent - s.budget).abs() <= 1e-9 * s.budget,
                    "expired step charged {} against budget {}",
                    s.spent,
                    s.budget
                );
            }
            sum += s.spent;
        }
        assert!((sum - t.total_cost).abs() <= 1e-9 * t.total_cost);
        crate::invariants::check_trace_accounting(&t).unwrap();
    }

    #[test]
    fn origin_instance_is_cheap() {
        let rt = runtime(example_2d(), 12);
        let pb = PlanBouquet::new();
        let t = pb.discover(&rt, rt.grid().origin());
        // qa at the origin lies on the first contour: few executions
        assert!(t.steps.len() <= rt.band_density(0));
        assert!(t.subopt() < 4.0 * rt.band_density(0) as f64);
    }
}

//! The AlignedBound algorithm (Algorithm 2, §5) and contour-alignment
//! statistics (Table 2).
//!
//! A contour is *aligned* along dimension `j` when the plan at its extreme
//! location along `j` spills on `j`; an aligned contour needs only **one**
//! spill execution to make quantum progress (Lemma 3.3) instead of
//! SpillBound's `|EPP|`. AlignedBound generalizes this through *predicate
//! set alignment* (PSA): the remaining epps are partitioned into groups,
//! each group covered by a single leader-dimension execution, with optimal
//! plans replaced by cheap "aligned substitutes" where alignment must be
//! *induced* (§5.2). The partition with the minimum total replacement
//! penalty is chosen; when even the best partition is costlier than
//! SpillBound's `|EPP|` executions, the algorithm falls back to the
//! SpillBound procedure for that contour, retaining the `D²+3D` guarantee.
//! Overall: `MSO ∈ [2D+2, D²+3D]`.
//!
//! AlignedBound is SpillBound with a different per-contour execution list:
//! it runs on SpillBound's `contour_walk`, handing it the chosen
//! partition's executions (one per part) or, on fallback, SpillBound's own
//! list. A natively aligned part's execution is SpillBound's entry for its
//! leader dimension; only induced parts carry plans of their own.

use crate::knowledge::Knowledge;
use crate::runtime::RobustRuntime;
use crate::spillbound::{contour_walk, sb_list, state_key, SpillExec, SpillList};
use crate::surface::memoise;
use crate::trace::{DiscoveryTrace, PlanRef};
use crate::Discovery;
use rqp_catalog::EppId;
use rqp_ess::{Cell, PlanId};
use rqp_qplan::pipeline::spill_target;
use rqp_qplan::{Fingerprint, PlanNode};
use std::collections::BTreeSet;
use std::sync::Arc;

/// All set partitions of `items` (Bell number; ≤ 203 for 6 items).
pub(crate) fn partitions<T: Copy>(items: &[T]) -> Vec<Vec<Vec<T>>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    let first = items[0];
    let rest = partitions(&items[1..]);
    let mut out = Vec::new();
    for p in rest {
        // put `first` into each existing block
        for k in 0..p.len() {
            let mut q = p.clone();
            q[k].insert(0, first);
            out.push(q);
        }
        // or into a new block
        let mut q = p;
        q.insert(0, vec![first]);
        out.push(q);
    }
    out
}

/// The per-contour decision: the ordered executions (one per part, led
/// by the part's leader dimension) plus the Table-4 statistics.
pub(crate) struct ContourDecision {
    execs: SpillList,
    /// Total replacement penalty of the chosen partition (1.0 per natively
    /// aligned part).
    total_penalty: f64,
    /// Largest single-part replacement penalty in the chosen partition
    /// (the quantity Table 4 reports).
    max_part_penalty: f64,
    /// Whether the SpillBound fallback was taken.
    fallback: bool,
}

/// The cheapest plan spilling on `dim` over the candidate cells: searches
/// the POSP pool visible at the discovery band and asks the optimizer for
/// a purpose-built plan (the §6.1 engine extension). Returns
/// `(plan, cell, cost)`.
fn cheapest_spilling_plan(
    rt: &RobustRuntime<'_>,
    cells: &[Cell],
    band: usize,
    dim: EppId,
    unlearnt: &BTreeSet<EppId>,
) -> Option<(PlanRef, Cell, f64)> {
    if cells.is_empty() {
        return None;
    }
    // deterministic cap on the candidate cells
    let capped: Vec<Cell> = if cells.len() <= 48 {
        cells.to_vec()
    } else {
        let stride = cells.len().div_ceil(48);
        cells.iter().copied().step_by(stride).collect()
    };

    let mut best: Option<(PlanRef, Cell, f64)> = None;
    // pool: plans the surface assigns on contours up to the discovery
    // band, ordered by structural fingerprint. Both bounds keep the
    // candidate set surface-independent: a lazy surface has compiled
    // nothing above `band` (peeking higher would force the compile this
    // crate exists to avoid), and plan ids are surface-relative (eager
    // numbers plans in cell-index order, lazy in flood order), so id
    // order would resolve equal-cost ties differently per surface.
    let mut ids: BTreeSet<PlanId> = BTreeSet::new();
    for b in 0..=band.min(rt.num_bands().saturating_sub(1)) {
        for &cell in rt.band_cells(b).iter() {
            ids.insert(rt.plan_id_at(cell));
        }
    }
    let mut pool: Vec<(PlanId, Arc<PlanNode>)> = ids
        .into_iter()
        .map(|id| (id, rt.plan(id)))
        .filter(|(_, p)| spill_target(p, rt.query, unlearnt) == Some(dim))
        .collect();
    pool.sort_by_key(|(_, p)| Fingerprint::of(p));
    for &cell in &capped {
        for (id, _) in &pool {
            let cost = rt.plan_cost_at(*id, cell);
            if best.as_ref().is_none_or(|b| cost < b.2) {
                best = Some((PlanRef::Posp(*id), cell, cost));
            }
        }
    }
    // bespoke candidate from the spill-constrained optimizer at the
    // currently-cheapest cell (or the first candidate cell)
    let probe_cell = best.as_ref().map_or(capped[0], |b| b.1);
    let loc = rt.grid().location(probe_cell);
    if let Some(planned) = rt.optimizer.optimize_spilling_on(&loc, dim, unlearnt) {
        if best.as_ref().is_none_or(|b| planned.cost < b.2) {
            best = Some((PlanRef::Bespoke(Arc::new(planned.plan)), probe_cell, planned.cost));
        }
    }
    best
}

/// The AlignedBound algorithm. Its contour decisions live in the memo of
/// the surface it runs on, shared by every instance and session there.
pub struct AlignedBound;

impl AlignedBound {
    /// Create the algorithm.
    pub fn new() -> Self {
        AlignedBound
    }

    /// Largest single-part replacement penalty across all contour decisions
    /// taken so far on `rt`'s surface (Table 4's "max penalty for AB").
    /// Call after running [`Discovery::discover`] / `evaluate` on `rt`.
    pub fn max_part_penalty_seen(&self, rt: &RobustRuntime<'_>) -> f64 {
        rt.memo().ab.lock().values().map(|d| d.max_part_penalty).fold(1.0, f64::max)
    }

    /// Largest *partition-total* penalty (sum over parts) across all
    /// contour decisions taken so far on `rt`'s surface — AB's worst
    /// per-contour expenditure in contour-cost units.
    pub fn max_partition_penalty_seen(&self, rt: &RobustRuntime<'_>) -> f64 {
        rt.memo().ab.lock().values().map(|d| d.total_penalty).fold(0.0, f64::max)
    }

    /// Fraction of contour decisions on `rt`'s surface that fell back to
    /// the SpillBound procedure because inducing alignment was too
    /// expensive.
    pub fn fallback_fraction(&self, rt: &RobustRuntime<'_>) -> f64 {
        let decisions = rt.memo().ab.lock();
        if decisions.is_empty() {
            return 0.0;
        }
        decisions.values().filter(|d| d.fallback).count() as f64 / decisions.len() as f64
    }
}

impl Default for AlignedBound {
    fn default() -> Self {
        AlignedBound::new()
    }
}

/// Build the minimum-penalty partition decision for one contour.
fn compute_decision(
    rt: &RobustRuntime<'_>,
    band: usize,
    know: &Knowledge,
    unlearnt: &BTreeSet<EppId>,
) -> ContourDecision {
    let grid = rt.grid();
    let dims = grid.dims();

    // effective cells with their spill dimensions
    let mut spill_cells: Vec<(Cell, usize)> = Vec::new();
    for &cell in rt.band_cells(band).iter() {
        if !know.matches_exact(grid, cell) {
            continue;
        }
        let plan = rt.plan(rt.plan_id_at(cell));
        if let Some(j) = spill_target(&plan, rt.query, unlearnt) {
            spill_cells.push((cell, j.0));
        }
    }
    if spill_cells.is_empty() {
        return ContourDecision {
            execs: SpillList::default(),
            total_penalty: 0.0,
            max_part_penalty: 1.0,
            fallback: false,
        };
    }

    // M[s][j]: max grid coordinate along j among cells spilling on s
    let mut max_coord: Vec<Vec<Option<usize>>> = vec![vec![None; dims]; dims];
    for &(cell, s) in &spill_cells {
        for (j, e) in max_coord[s].iter_mut().enumerate() {
            let c = grid.coord(cell, j);
            if e.is_none_or(|v| c > v) {
                *e = Some(c);
            }
        }
    }
    let present: Vec<EppId> = (0..dims).filter(|&d| max_coord[d][d].is_some()).map(EppId).collect();

    // SpillBound's list (one execution per present dimension), reused for
    // native parts and the fallback
    let sb = sb_list(rt, band, know, unlearnt);

    // evaluate every partition of the present dimensions
    let mut best: Option<(f64, f64, Vec<SpillExec>)> = None;
    for partition in partitions(&present) {
        let mut execs = Vec::new();
        let mut penalty_total = 0.0;
        let mut penalty_max = 1.0f64;
        let mut feasible = true;
        for part in &partition {
            let mut part_best: Option<(f64, SpillExec)> = None;
            for &leader in part {
                let j = leader.0;
                // qTj: extreme coordinate along j among cells spilling on
                // any dimension of the part
                let Some(q_t_j) = part.iter().filter_map(|t| max_coord[t.0][j]).max() else {
                    debug_assert!(false, "part dims must be present");
                    continue;
                };
                let Some(native_max) = max_coord[j][j] else {
                    debug_assert!(false, "leader dim {j} must be present");
                    continue;
                };
                let (penalty, exec) = if q_t_j <= native_max {
                    // natively aligned: SpillBound's P^j_max covers the part
                    let Some(exec) = sb.iter().find(|e| e.dim == leader) else {
                        debug_assert!(false, "present dim {j} must have a choice");
                        continue;
                    };
                    (1.0, exec.clone())
                } else {
                    // induce: replace the optimal plan at a location with
                    // coordinate qTj along j by a j-spilling plan
                    let s_cells: Vec<Cell> = spill_cells
                        .iter()
                        .filter(|&&(c, _)| grid.coord(c, j) == q_t_j)
                        .map(|&(c, _)| c)
                        .collect();
                    match cheapest_spilling_plan(rt, &s_cells, band, leader, unlearnt) {
                        None => continue,
                        Some((plan, cell, cost)) => {
                            let penalty = cost / rt.oracle_cost(cell);
                            let exec =
                                SpillExec { dim: leader, plan, budget: cost, reference: cell };
                            (penalty.max(1.0), exec)
                        }
                    }
                };
                if part_best.as_ref().is_none_or(|b| penalty < b.0) {
                    part_best = Some((penalty, exec));
                }
            }
            match part_best {
                None => {
                    feasible = false;
                    break;
                }
                Some((p, exec)) => {
                    penalty_total += p;
                    penalty_max = penalty_max.max(p);
                    execs.push(exec);
                }
            }
        }
        if feasible && best.as_ref().is_none_or(|b| penalty_total < b.0 - 1e-12) {
            best = Some((penalty_total, penalty_max, execs));
        }
    }

    // retain the quadratic guarantee: if inducing alignment costs more than
    // SpillBound's |present| executions would, run SpillBound's list. It is
    // also the degradation path should no partition be feasible (debug
    // builds treat that as unreachable — the singleton partition is always
    // feasible).
    let n = present.len() as f64;
    match best {
        Some((total_penalty, max_part_penalty, execs)) if total_penalty <= n + 1e-9 => {
            let execs = Arc::new(execs);
            ContourDecision { execs, total_penalty, max_part_penalty, fallback: false }
        }
        best => {
            debug_assert!(best.is_some(), "singleton partition is always feasible");
            ContourDecision { execs: sb, total_penalty: n, max_part_penalty: 1.0, fallback: true }
        }
    }
}

/// AlignedBound's execution list for a band's effective slice: the
/// memoised partition decision's executions.
fn ab_list(
    rt: &RobustRuntime<'_>,
    band: usize,
    know: &Knowledge,
    unlearnt: &BTreeSet<EppId>,
) -> SpillList {
    let decision = memoise(&rt.memo().ab, state_key(rt, band, know), || {
        compute_decision(rt, band, know, unlearnt)
    });
    Arc::clone(&decision.execs)
}

impl Discovery for AlignedBound {
    fn name(&self) -> &'static str {
        "AB"
    }

    fn discover(&self, rt: &RobustRuntime<'_>, qa: Cell) -> DiscoveryTrace {
        contour_walk(rt, qa, self.name(), false, ab_list)
    }
}

/// Per-contour full-contour-alignment statistics (the machinery behind
/// Table 2 and Table 4).
#[derive(Debug, Clone)]
pub struct AlignmentStats {
    /// For each non-empty contour: the minimum penalty at which it can be
    /// made aligned along some dimension (1.0 = natively aligned;
    /// `f64::INFINITY` = no replacement plan exists).
    pub per_contour_penalty: Vec<f64>,
}

impl AlignmentStats {
    /// Percentage of contours aligned when replacement penalty is capped at
    /// `threshold` (threshold 1.0 ⇒ native alignment only).
    pub fn pct_within(&self, threshold: f64) -> f64 {
        if self.per_contour_penalty.is_empty() {
            return 0.0;
        }
        let n =
            self.per_contour_penalty.iter().filter(|&&p| p <= threshold * (1.0 + 1e-12)).count();
        100.0 * n as f64 / self.per_contour_penalty.len() as f64
    }

    /// Minimum penalty at which *all* contours satisfy alignment (the
    /// "Max λ" column of Table 2).
    pub fn max_penalty(&self) -> f64 {
        self.per_contour_penalty.iter().copied().fold(1.0, f64::max)
    }
}

/// Compute full-contour-alignment statistics in the initial state (all epps
/// unlearnt), as Table 2 does.
pub fn alignment_stats(rt: &RobustRuntime<'_>) -> AlignmentStats {
    let grid = rt.grid();
    let dims = grid.dims();
    let know = Knowledge::new(grid);
    let unlearnt = know.unlearnt();
    let mut per_contour_penalty = Vec::new();

    for band in 0..rt.num_bands() {
        let cells = rt.band_cells(band);
        if cells.is_empty() {
            continue;
        }
        // spill dimension per cell plus extremes
        let mut ext = vec![0usize; dims];
        let mut spill_max = vec![None::<usize>; dims];
        let mut spill_dim_of: Vec<(Cell, usize)> = Vec::with_capacity(cells.len());
        for &cell in cells.iter() {
            let plan = rt.plan(rt.plan_id_at(cell));
            let sj = spill_target(&plan, rt.query, &unlearnt).map(|e| e.0);
            for (j, e) in ext.iter_mut().enumerate() {
                let c = grid.coord(cell, j);
                if c > *e {
                    *e = c;
                }
            }
            if let Some(s) = sj {
                let c = grid.coord(cell, s);
                let e = &mut spill_max[s];
                if e.is_none_or(|v| c > v) {
                    *e = Some(c);
                }
                spill_dim_of.push((cell, s));
            }
        }
        if spill_dim_of.is_empty() {
            continue;
        }
        let mut penalty = f64::INFINITY;
        for j in 0..dims {
            if spill_max[j] == Some(ext[j]) {
                penalty = 1.0; // natively aligned along j
                break;
            }
            // induction cost along j: replace the optimal plan at an
            // extreme location with a j-spilling plan
            let extreme_cells: Vec<Cell> =
                cells.iter().copied().filter(|&c| grid.coord(c, j) == ext[j]).collect();
            if let Some((_, cell, cost)) =
                cheapest_spilling_plan(rt, &extreme_cells, band, EppId(j), &unlearnt)
            {
                penalty = penalty.min((cost / rt.oracle_cost(cell)).max(1.0));
            }
        }
        per_contour_penalty.push(penalty);
    }
    AlignmentStats { per_contour_penalty }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::guarantees::sb_guarantee;
    use crate::spillbound::SpillBound;
    use crate::test_support::{example_2d, runtime};

    #[test]
    fn partition_enumeration_matches_bell_numbers() {
        assert_eq!(partitions(&[1]).len(), 1);
        assert_eq!(partitions(&[1, 2]).len(), 2);
        assert_eq!(partitions(&[1, 2, 3]).len(), 5);
        assert_eq!(partitions(&[1, 2, 3, 4]).len(), 15);
        assert_eq!(partitions(&[1, 2, 3, 4, 5]).len(), 52);
        assert_eq!(partitions(&[1, 2, 3, 4, 5, 6]).len(), 203);
        // every partition covers the set exactly
        for p in partitions(&[1, 2, 3, 4]) {
            let mut all: Vec<i32> = p.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn completes_everywhere_within_band_adjusted_guarantee() {
        let rt = runtime(example_2d(), 12);
        let ab = AlignedBound::new();
        let bound = 2.0 * sb_guarantee(rt.dims());
        for qa in rt.grid().cells() {
            let t = ab.discover(&rt, qa);
            assert!(t.subopt() >= 1.0 - 1e-9, "cell {qa}");
            assert!(t.subopt() <= bound + 1e-9, "cell {qa}: subopt {} exceeds {bound}", t.subopt());
            assert!(t.steps.last().unwrap().completed);
        }
    }

    #[test]
    fn ab_no_worse_than_sb_on_mso_here() {
        let rt = runtime(example_2d(), 12);
        let sb = evaluate(&rt, &SpillBound::new());
        let ab = evaluate(&rt, &AlignedBound::new());
        // AB exploits alignment; on this workload it should be at least
        // competitive with SB on empirical MSO
        assert!(
            ab.mso <= sb.mso * 1.25 + 1e-9,
            "AB MSOe {} much worse than SB MSOe {}",
            ab.mso,
            sb.mso
        );
    }

    #[test]
    fn alignment_stats_are_well_formed() {
        let rt = runtime(example_2d(), 12);
        let stats = alignment_stats(&rt);
        assert!(!stats.per_contour_penalty.is_empty());
        for &p in &stats.per_contour_penalty {
            assert!(p >= 1.0, "penalty below 1: {p}");
        }
        let native = stats.pct_within(1.0);
        let loose = stats.pct_within(1e9);
        assert!(native <= loose);
        assert!((0.0..=100.0).contains(&native));
        assert!(stats.max_penalty() >= 1.0);
    }
}

//! The POSP: the Parametric Optimal Set of Plans over the ESS grid.
//!
//! The optimizer is invoked at grid locations ("repeated invocations of
//! the optimizer with different selectivity values", §2.2); the resulting
//! optimal plans are deduplicated into a [`PlanRegistry`] and each cell
//! stores its optimal plan id and cost. The band flood in [`crate::lazy`]
//! does the invoking; this module holds the compiled surface, the
//! seed-sublattice geometry of [`CompileMode::Recost`], and the canonical
//! plan-id assignment.

use crate::grid::{Cell, Grid};
use crate::registry::{PlanId, PlanRegistry};
use rqp_optimizer::Optimizer;
use rqp_qplan::{Fingerprint, PlanNode};

/// Strategy for computing the optimal-plan surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileMode {
    /// Full Selinger DP at every grid cell — the paper's brute-force
    /// enumeration ("repeated invocations of the optimizer", §2.2).
    Exact,
    /// DP only on a seed sublattice (every `seed_stride`-th coordinate per
    /// dimension, plus the axis ends). Each remaining cell looks at the
    /// corners of its surrounding seed box: when all corners agree on the
    /// optimal plan, that plan is recosted at the cell via
    /// `Optimizer::cost_of` (no DP); when they disagree, the cell falls
    /// back to full DP.
    Recost {
        /// Coordinate stride between seed cells; values ≤ 1 degrade to
        /// [`CompileMode::Exact`].
        seed_stride: usize,
    },
}

impl Default for CompileMode {
    fn default() -> Self {
        CompileMode::Recost { seed_stride: 3 }
    }
}

/// The compiled optimal-plan surface: for every grid cell, the optimal plan
/// and its cost (a discretized Optimal Cost Surface, §2.5).
#[derive(Debug, Clone)]
pub struct Posp {
    grid: Grid,
    registry: PlanRegistry,
    cell_plan: Vec<PlanId>,
    cell_cost: Vec<f64>,
}

/// Per-dimension seed coordinates for the recost sublattice: every
/// `stride`-th point plus the axis end.
///
/// Callers must uphold `stride > 1` (strides ≤ 1 compile in exact mode);
/// `step_by(0)` would panic.
pub(crate) fn seed_marks(grid: &Grid, stride: usize) -> Vec<Vec<bool>> {
    debug_assert!(stride > 1, "recost seed lattice requires stride > 1");
    (0..grid.dims())
        .map(|d| {
            let r = grid.res(d);
            let mut marks = vec![false; r];
            for c in (0..r).step_by(stride) {
                marks[c] = true;
            }
            marks[r - 1] = true;
            marks
        })
        .collect()
}

/// The corners of the seed box surrounding `cell`: per dimension the
/// nearest seed coordinate at-or-below (`lo`) and at-or-above (`hi`).
pub(crate) fn seed_box(
    grid: &Grid,
    is_seed: &[Vec<bool>],
    stride: usize,
    cell: Cell,
    lo: &mut [usize],
    hi: &mut [usize],
) {
    for d in 0..grid.dims() {
        let c = grid.coord(cell, d);
        lo[d] = (c / stride) * stride;
        hi[d] = if is_seed[d][c] { c } else { (lo[d] + stride).min(grid.res(d) - 1) };
    }
}

/// Whether `cell` lies on the seed sublattice.
pub(crate) fn is_seed_cell(grid: &Grid, is_seed: &[Vec<bool>], cell: Cell) -> bool {
    (0..grid.dims()).all(|d| is_seed[d][grid.coord(cell, d)])
}

impl Posp {
    /// Assign deterministic plan ids (first-seen order by cell index) and
    /// assemble the surface from per-cell `(fingerprint, cost)` pairs in
    /// cell-index order, taking each plan from `discovered`. The ids are
    /// therefore independent of the order in which the flood discovered
    /// the plans.
    pub(crate) fn assemble(
        grid: Grid,
        per_cell: impl Iterator<Item = (Fingerprint, f64)>,
        discovered: &PlanRegistry,
    ) -> Posp {
        let mut registry = PlanRegistry::new();
        let mut cell_plan = Vec::with_capacity(grid.num_cells());
        let mut cell_cost = Vec::with_capacity(grid.num_cells());
        for (fp, cost) in per_cell {
            let id = match (registry.get(fp), discovered.get(fp)) {
                (Some(id), _) => id,
                (None, Some(found)) => registry.insert((**discovered.plan(found)).clone()),
                (None, None) => {
                    // unreachable: every costed cell's plan was registered;
                    // degrade to the first plan id
                    debug_assert!(false, "plan recorded for fingerprint");
                    PlanId(0)
                }
            };
            cell_plan.push(id);
            cell_cost.push(cost);
        }
        Posp { grid, registry, cell_plan, cell_cost }
    }

    /// Reassemble a POSP from snapshot parts (see `crate::snapshot`).
    pub(crate) fn from_parts(
        grid: Grid,
        registry: PlanRegistry,
        cell_plan: Vec<PlanId>,
        cell_cost: Vec<f64>,
    ) -> Posp {
        Posp { grid, registry, cell_plan, cell_cost }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The plan registry.
    pub fn registry(&self) -> &PlanRegistry {
        &self.registry
    }

    /// Optimal cost `Cost(P_q, q)` at a cell.
    pub fn cost(&self, cell: Cell) -> f64 {
        self.cell_cost[cell]
    }

    /// Optimal plan id at a cell.
    pub fn plan_id(&self, cell: Cell) -> PlanId {
        self.cell_plan[cell]
    }

    /// The plan with the given id.
    pub fn plan(&self, id: PlanId) -> &std::sync::Arc<PlanNode> {
        self.registry.plan(id)
    }

    /// Minimum optimal cost over the grid (at the origin under PCM).
    pub fn cmin(&self) -> f64 {
        self.cell_cost.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum optimal cost over the grid (at the terminus under PCM).
    pub fn cmax(&self) -> f64 {
        self.cell_cost.iter().copied().fold(0.0, f64::max)
    }

    /// Number of distinct POSP plans.
    pub fn num_plans(&self) -> usize {
        self.registry.len()
    }

    /// Cost of an arbitrary registered plan at an arbitrary cell (used by
    /// anorexic reduction, AlignedBound's replacement search, and the
    /// native-optimizer baseline).
    pub fn cost_of_plan_at(&self, optimizer: &Optimizer<'_>, id: PlanId, cell: Cell) -> f64 {
        optimizer.cost_of(self.registry.plan(id), &self.grid.location(cell))
    }
}

/// Compile a 2D-or-wider test surface at `resolution` points per axis
/// from `min_sel`, without any cache.
#[cfg(test)]
pub(crate) fn compile(
    opt: &Optimizer<'_>,
    resolution: usize,
    min_sel: f64,
    mode: CompileMode,
) -> Posp {
    let config = crate::EssConfig { resolution, min_sel, mode, ..Default::default() };
    crate::Ess::compile_cached(opt, config, None).unwrap().posp
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder};
    use rqp_qplan::CostModel;

    fn fixture() -> (Catalog, Query) {
        let catalog = CatalogBuilder::new()
            .relation(
                RelationBuilder::new("part", 2_000_000)
                    .indexed_column("p_partkey", 2_000_000, 8)
                    .column("p_price", 50_000, 8)
                    .build(),
            )
            .relation(
                RelationBuilder::new("lineitem", 60_000_000)
                    .indexed_column("l_partkey", 2_000_000, 8)
                    .indexed_column("l_orderkey", 15_000_000, 8)
                    .build(),
            )
            .relation(
                RelationBuilder::new("orders", 15_000_000)
                    .indexed_column("o_orderkey", 15_000_000, 8)
                    .build(),
            )
            .build();
        let query = QueryBuilder::new(&catalog, "EQ")
            .table("part")
            .table("lineitem")
            .table("orders")
            .epp_join("part", "p_partkey", "lineitem", "l_partkey")
            .epp_join("orders", "o_orderkey", "lineitem", "l_orderkey")
            .filter("part", "p_price", 0.05)
            .build()
            .unwrap();
        (catalog, query)
    }

    #[test]
    fn compiles_with_multiple_plans_and_monotone_costs() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let posp = compile(&opt, 12, 1e-6, CompileMode::Exact);

        assert!(posp.num_plans() >= 3, "expected plan diversity, got {}", posp.num_plans());
        assert!(posp.cmin() > 0.0);
        assert!(posp.cmax() / posp.cmin() > 4.0, "cost surface should span several doublings");
        // PCM on the optimal surface: cost non-decreasing along each axis
        let g = posp.grid();
        for cell in g.cells() {
            for d in 0..g.dims() {
                if g.coord(cell, d) + 1 < g.res(d) {
                    let mut coords = g.coords_of(cell);
                    coords[d] += 1;
                    let up = g.index(&coords);
                    assert!(
                        posp.cost(up) >= posp.cost(cell) * (1.0 - 1e-12),
                        "optimal cost decreased along dim {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn cell_costs_match_reoptimization() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let posp = compile(&opt, 6, 1e-5, CompileMode::Exact);
        for cell in [0usize, 7, 17, posp.grid().terminus()] {
            let loc = posp.grid().location(cell);
            let planned = opt.optimize(&loc);
            assert!((planned.cost - posp.cost(cell)).abs() < 1e-9 * planned.cost);
            // optimal plan cost at its own cell equals the recorded cost
            let via_registry = posp.cost_of_plan_at(&opt, posp.plan_id(cell), cell);
            assert!((via_registry - posp.cost(cell)).abs() < 1e-9 * planned.cost);
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let a = compile(&opt, 8, 1e-5, CompileMode::Exact);
        let b = compile(&opt, 8, 1e-5, CompileMode::Exact);
        assert_eq!(a.cell_plan, b.cell_plan);
        assert_eq!(a.num_plans(), b.num_plans());
    }

    /// Pin the documented degrade path: `Recost { seed_stride: 0 | 1 }`
    /// falls through the `seed_stride > 1` guard of the flood into the
    /// exact surface — no `step_by(0)` panic, no division by zero in the
    /// seed-box arithmetic, and a surface bitwise-identical to
    /// `CompileMode::Exact`.
    #[test]
    fn degenerate_recost_strides_degrade_to_exact() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let exact = compile(&opt, 8, 1e-5, CompileMode::Exact);
        for stride in [0usize, 1] {
            let degraded = compile(&opt, 8, 1e-5, CompileMode::Recost { seed_stride: stride });
            assert_eq!(degraded.cell_plan, exact.cell_plan, "stride {stride}");
            assert_eq!(
                degraded.cell_cost.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                exact.cell_cost.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                "stride {stride}"
            );
            assert_eq!(degraded.num_plans(), exact.num_plans(), "stride {stride}");
        }
    }
}

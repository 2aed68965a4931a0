//! Iso-cost contours over the compiled POSP.
//!
//! On the continuum, contour `IC_i` is the curve where the optimal cost
//! equals `CC_i = r^(i-1) · C_min` (cost-doubling, `r = 2`, by default). On
//! a finite grid the curve becomes a **cost band**: cell `q` belongs to band
//! `i` iff `Cost(P_q, q) ∈ [CC_i, r·CC_i)`. Bands partition the grid, every
//! budgeted execution on band `i` uses the cost of its chosen cell (within
//! the band, so < `r·CC_i`), and all the discovery guarantees of §3–§5
//! survive discretization (see DESIGN.md, "Discretization of contours").
//!
//! The band edges form one [`Ladder`], anchored at the optimal costs of the
//! grid's origin and terminus — under plan-cost monotonicity (PCM, §2.5)
//! the surface's minimum and maximum. [`Ladder::band`] is the one mapping
//! from a cost to its band. The band flood ([`crate::LazyEss`]) builds the
//! [`ContourSet`] of every compiled surface as it floods; only a restored
//! snapshot is banded after the fact, by [`ContourSet::build`], through the
//! same ladder.

use crate::grid::Cell;
use crate::posp::Posp;
use crate::registry::PlanId;
use rqp_catalog::{RqpError, RqpResult};
use rqp_qplan::cost_cmp;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The geometric ladder of contour band edges, `cc[i] = cmin · ratio^i`,
/// up to the band holding `cmax`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    ratio: f64,
    /// Lower (inclusive) edge of each band; `cc.len()` is the band count.
    cc: Vec<f64>,
}

impl Ladder {
    /// The ladder anchored at `cmin` (band 0's lower edge) whose top band
    /// holds `cmax`.
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] if `ratio` is not a finite value above
    /// 1, or if the anchors are degenerate (a non-positive or non-finite
    /// `cmin`, or a non-finite `cmax`).
    pub fn new(cmin: f64, cmax: f64, ratio: f64) -> RqpResult<Ladder> {
        if !(ratio.is_finite() && ratio > 1.0) {
            return Err(RqpError::Config(format!("contour ratio must exceed 1, got {ratio}")));
        }
        if !(cmin > 0.0 && cmin.is_finite() && cmax.is_finite()) {
            return Err(RqpError::Config(format!(
                "degenerate optimal cost surface: cmin {cmin}, cmax {cmax}"
            )));
        }
        // Edges grow geometrically, so this stops once one passes `cmax`
        // (at the latest when `powi` saturates at +inf).
        let mut cc = vec![cmin];
        loop {
            let edge = cmin * ratio.powi(cc.len() as i32);
            if cost_cmp(cmax, edge) == Ordering::Less {
                break;
            }
            cc.push(edge);
        }
        Ok(Ladder { ratio, cc })
    }

    /// Geometric cost ratio between consecutive edges.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Number of bands, `m`.
    pub fn num_bands(&self) -> usize {
        self.cc.len()
    }

    /// Lower-edge cost `CC_i` of band `i` (0-based).
    pub fn cc(&self, band: usize) -> f64 {
        self.cc[band]
    }

    /// The band of cost `c`: the last edge at or below it under the
    /// workspace cost tolerance ([`cost_cmp`]), so a cost on an edge
    /// `cmin·r^k` — or within the tolerance below it — belongs to the band
    /// that edge opens. A cost above the top edge clamps into the top band
    /// and one below `cmin` into band 0.
    ///
    /// # Errors
    /// Non-finite or non-positive costs have no band on the ladder and
    /// return [`RqpError::Config`].
    pub fn band(&self, c: f64) -> RqpResult<usize> {
        if !(c.is_finite() && c > 0.0) {
            return Err(RqpError::Config(format!(
                "cost {c} cannot be placed on the contour ladder (cmin {}, ratio {}); \
                 costs must be finite and positive",
                self.cc[0], self.ratio
            )));
        }
        let at_or_below = self.cc.partition_point(|&edge| cost_cmp(c, edge) != Ordering::Less);
        Ok(at_or_below.saturating_sub(1))
    }
}

/// The contour bands of a compiled ESS.
#[derive(Debug, Clone)]
pub struct ContourSet {
    /// Geometric cost ratio between consecutive contours.
    pub ratio: f64,
    ladder: Ladder,
    /// Band of each cell ([`ContourSet::UNBANDED`] while the flood has not
    /// reached it).
    pub(crate) band_of: Vec<u32>,
    /// Cell list of each band built so far, ascending by cell index.
    pub(crate) bands: Vec<Arc<Vec<Cell>>>,
}

impl ContourSet {
    /// Sentinel in `band_of` for a cell not banded yet.
    pub(crate) const UNBANDED: u32 = u32::MAX;

    /// An empty contour set on `ladder` for a grid of `num_cells` cells,
    /// for the band flood to fill band by band.
    pub(crate) fn unbanded(ladder: Ladder, num_cells: usize) -> ContourSet {
        ContourSet {
            ratio: ladder.ratio(),
            ladder,
            band_of: vec![ContourSet::UNBANDED; num_cells],
            bands: Vec::new(),
        }
    }

    /// Band a restored surface: build the ladder anchored at the origin
    /// and terminus costs with the given ratio (the paper's default is 2;
    /// §4.2 notes ratios like 1.8 can shave the guarantee slightly) and
    /// place every cell on it.
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] if `ratio` is not a finite value above
    /// 1, if an anchor cost is degenerate, if any cell cost is non-finite
    /// or non-positive, or if some cell is cheaper than the origin or
    /// dearer than the terminus beyond the cost tolerance. No compile
    /// writes such a surface (PCM puts the extrema at the anchors), so it
    /// is refused rather than clamped into a band it does not fit.
    pub fn build(posp: &Posp, ratio: f64) -> RqpResult<ContourSet> {
        let grid = posp.grid();
        let (cmin, cmax) = (posp.cost(grid.origin()), posp.cost(grid.terminus()));
        let mut contours = ContourSet::unbanded(Ladder::new(cmin, cmax, ratio)?, grid.num_cells());
        let mut bands = vec![Vec::new(); contours.ladder.num_bands()];
        for cell in grid.cells() {
            let c = posp.cost(cell);
            let b = contours.ladder.band(c)?;
            if cost_cmp(c, cmin) == Ordering::Less || cost_cmp(c, cmax) == Ordering::Greater {
                return Err(RqpError::Config(format!(
                    "cell {cell} cost {c} lies outside the contour ladder's anchors \
                     [{cmin}, {cmax}]: the surface violates plan-cost monotonicity"
                )));
            }
            contours.band_of[cell] = b as u32;
            bands[b].push(cell);
        }
        contours.bands = bands.into_iter().map(Arc::new).collect();
        Ok(contours)
    }

    /// The ladder of band edges.
    pub fn ladder(&self) -> &Ladder {
        &self.ladder
    }

    /// Number of contours, `m`.
    pub fn num_bands(&self) -> usize {
        self.ladder.num_bands()
    }

    /// Lower-edge cost `CC_i` of band `i` (0-based).
    pub fn cc(&self, band: usize) -> f64 {
        self.ladder.cc(band)
    }

    /// The band a cell belongs to.
    pub fn band_of(&self, cell: Cell) -> usize {
        self.band_of[cell] as usize
    }

    /// Cells of a band, ascending by cell index.
    pub fn cells(&self, band: usize) -> &[Cell] {
        &self.bands[band]
    }

    /// Shared handle to a band's cell list (cheap to clone; lets a serving
    /// layer hand bands out without copying them per peer).
    pub fn cells_arc(&self, band: usize) -> Arc<Vec<Cell>> {
        Arc::clone(&self.bands[band])
    }

    /// Distinct optimal plans appearing on a band — the contour's plan set
    /// `PL_i`.
    pub fn plans_on(&self, posp: &Posp, band: usize) -> BTreeSet<PlanId> {
        self.bands[band].iter().map(|&c| posp.plan_id(c)).collect()
    }

    /// Plan density of a band (`|PL_i|`).
    pub fn density(&self, posp: &Posp, band: usize) -> usize {
        self.plans_on(posp, band).len()
    }

    /// Maximum density over all bands — the `ρ` of the PlanBouquet bound.
    pub fn max_density(&self, posp: &Posp) -> usize {
        (0..self.num_bands()).map(|b| self.density(posp, b)).max().unwrap_or(0)
    }

    /// Density of a band under a replacement cell→plan assignment (used for
    /// the anorexic-reduced bouquet's `ρ_red`).
    pub fn density_with(&self, assignment: &[PlanId], band: usize) -> usize {
        self.bands[band].iter().map(|&c| assignment[c]).collect::<BTreeSet<_>>().len()
    }

    /// Maximum density over all bands under a replacement assignment.
    pub fn max_density_with(&self, assignment: &[PlanId]) -> usize {
        (0..self.num_bands()).map(|b| self.density_with(assignment, b)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder};
    use rqp_optimizer::Optimizer;
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

    fn compiled() -> (Posp, ContourSet) {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let posp = crate::posp::compile(&opt, 12, 1e-6, crate::posp::CompileMode::Exact);
        let contours = ContourSet::build(&posp, 2.0).unwrap();
        (posp, contours)
    }

    /// A synthetic one-plan POSP whose cell costs are chosen exactly.
    fn synthetic(costs: Vec<f64>) -> Posp {
        let grid = Grid::uniform(1, costs.len(), 1e-4).unwrap();
        let mut registry = crate::registry::PlanRegistry::new();
        let id = registry.insert(rqp_qplan::PlanNode::SeqScan {
            rel: rqp_catalog::RelId(0),
            filters: Vec::new(),
        });
        let cell_plan = vec![id; costs.len()];
        Posp::from_parts(grid, registry, cell_plan, costs)
    }

    #[test]
    fn bands_partition_the_grid() {
        let (posp, contours) = compiled();
        let total: usize = (0..contours.num_bands()).map(|b| contours.cells(b).len()).sum();
        assert_eq!(total, posp.grid().num_cells());
        for b in 0..contours.num_bands() {
            for &cell in contours.cells(b) {
                assert_eq!(contours.band_of(cell), b);
                let c = posp.cost(cell);
                assert!(c >= contours.cc(b) * (1.0 - 1e-12));
                if b + 1 < contours.num_bands() {
                    assert!(c < contours.cc(b) * contours.ratio * (1.0 + 1e-12));
                }
            }
        }
    }

    #[test]
    fn band_edges_double() {
        let (_, contours) = compiled();
        assert!(contours.num_bands() >= 3, "expected several contours");
        for i in 1..contours.num_bands() {
            let r = contours.cc(i) / contours.cc(i - 1);
            assert!((r - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn origin_is_on_the_first_band_terminus_on_the_last() {
        let (posp, contours) = compiled();
        assert_eq!(contours.band_of(posp.grid().origin()), 0);
        assert_eq!(contours.band_of(posp.grid().terminus()), contours.num_bands() - 1);
    }

    #[test]
    fn densities_are_positive_and_bounded_by_plan_count() {
        let (posp, contours) = compiled();
        let rho = contours.max_density(&posp);
        assert!(rho >= 1 && rho <= posp.num_plans());
        // identity assignment reproduces plain densities
        let identity: Vec<PlanId> = posp.grid().cells().map(|c| posp.plan_id(c)).collect();
        assert_eq!(contours.max_density_with(&identity), rho);
    }

    #[test]
    fn custom_ratio_changes_band_count() {
        let (posp, _) = compiled();
        let c2 = ContourSet::build(&posp, 2.0).unwrap();
        let c15 = ContourSet::build(&posp, 1.5).unwrap();
        assert!(c15.num_bands() > c2.num_bands());
    }

    #[test]
    fn bad_ratio_is_a_config_error_not_a_panic() {
        let (posp, _) = compiled();
        for ratio in [1.0, 0.5, -2.0, f64::NAN, f64::INFINITY] {
            let err = ContourSet::build(&posp, ratio).unwrap_err();
            assert!(err.to_string().contains("contour ratio"), "{err}");
        }
    }

    #[test]
    fn exact_power_of_ratio_costs_land_on_their_own_band() {
        // Every cost sits exactly on a band edge cmin·r^k. The naive
        // floor(ln/ln) assignment drifts below the edge for some k (e.g.
        // ln(1.1^3)/ln(1.1) = 2.9999…); the ladder must put edge costs in
        // the band they open, for any ratio.
        for ratio in [2.0f64, 1.1, 1.8, 3.0] {
            let cmin = 7.5;
            let costs: Vec<f64> = (0..8).map(|k| cmin * ratio.powi(k)).collect();
            let ladder = Ladder::new(cmin, costs[7], ratio).unwrap();
            assert_eq!(ladder.num_bands(), costs.len(), "ratio {ratio}");
            for (k, &c) in costs.iter().enumerate() {
                assert_eq!(ladder.cc(k).to_bits(), c.to_bits(), "ratio {ratio}, edge {k}");
                assert_eq!(ladder.band(c).unwrap(), k, "ratio {ratio}, edge {k}");
            }
            let contours = ContourSet::build(&synthetic(costs.clone()), ratio).unwrap();
            for k in 0..costs.len() {
                assert_eq!(contours.cells(k), &[k]);
            }
        }
    }

    #[test]
    fn costs_a_hair_under_an_edge_stay_with_the_edge_band() {
        // A cost within the cost_eq tolerance below cmin·r^k counts as *on*
        // the edge and belongs to band k, not k-1.
        let cmin = 10.0;
        let ratio = 2.0;
        let edge = cmin * ratio * ratio; // opens band 2
        let hair = edge * (1.0 - 1e-13);
        let ladder = Ladder::new(cmin, hair, ratio).unwrap();
        assert_eq!(ladder.band(hair).unwrap(), 2);
        let contours = ContourSet::build(&synthetic(vec![cmin, hair]), ratio).unwrap();
        assert_eq!(contours.band_of(1), 2);
    }

    #[test]
    fn degenerate_cost_surface_is_rejected() {
        let posp = synthetic(vec![0.0, 4.0]);
        let err = ContourSet::build(&posp, 2.0).unwrap_err();
        assert!(err.to_string().contains("degenerate"), "{err}");
    }

    #[test]
    fn non_finite_costs_error_instead_of_spinning() {
        // Regression: the ln-seeded banding this ladder replaced looped
        // forever on +inf (powi saturates at +inf, cost_cmp(inf, inf) is
        // Equal via total_cmp but never Less) and on NaN (total_cmp orders
        // NaN above everything).
        let ladder = Ladder::new(1.0, 1024.0, 2.0).unwrap();
        for c in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -3.0] {
            let err = ladder.band(c).unwrap_err();
            assert!(err.to_string().contains("contour ladder"), "{c}: {err}");
        }
        assert_eq!(ladder.band(8.0).unwrap(), 3);
    }

    #[test]
    fn nan_cell_cost_is_a_build_error_not_a_hang() {
        // A NaN cell sneaks past any extrema check (f64::max ignores NaN);
        // the per-cell banding pass must surface it as a structured error.
        let posp = synthetic(vec![1.0, 2.0, f64::NAN, 8.0]);
        let err = ContourSet::build(&posp, 2.0).unwrap_err();
        assert!(err.to_string().contains("contour ladder"), "{err}");
    }

    #[test]
    fn clamped_band_index_is_total() {
        // the flood's banding: a cost with no band is charged the top band
        let clamped = |ladder: &Ladder, c: f64| ladder.band(c).unwrap_or(ladder.num_bands() - 1);
        let ten = Ladder::new(1.0, 512.0, 2.0).unwrap();
        assert_eq!(ten.num_bands(), 10);
        assert_eq!(clamped(&ten, 8.0), 3);
        let four = Ladder::new(1.0, 8.0, 2.0).unwrap();
        assert_eq!(four.num_bands(), 4);
        assert_eq!(clamped(&four, 1e9), 3, "overshoot clamps to m-1");
        assert_eq!(clamped(&four, f64::NAN), 3);
        assert_eq!(clamped(&four, f64::INFINITY), 3);
        assert_eq!(four.band(0.25).unwrap(), 0, "undershoot clamps to band 0");
    }

    #[test]
    fn cells_outside_the_anchors_are_refused() {
        // PCM puts the extrema at the origin and terminus; a surface that
        // breaks it is refused instead of clamped into the end bands.
        for costs in [vec![2.0, 1.0, 8.0], vec![1.0, 64.0, 8.0]] {
            let err = ContourSet::build(&synthetic(costs.clone()), 2.0).unwrap_err();
            assert!(err.to_string().contains("plan-cost monotonicity"), "{costs:?}: {err}");
        }
        // within the cost tolerance of an anchor is still on the ladder
        let c = ContourSet::build(&synthetic(vec![2.0, 2.0 * (1.0 - 1e-13), 8.0]), 2.0).unwrap();
        assert_eq!(c.band_of(1), 0);
    }

    #[test]
    fn band_arcs_are_shared_not_copied() {
        let (_, contours) = compiled();
        let a = contours.cells_arc(0);
        let b = contours.cells_arc(0);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&a[..], contours.cells(0));
    }
}

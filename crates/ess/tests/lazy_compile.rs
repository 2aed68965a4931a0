//! Integration tests for anytime compilation: a surface materialized band
//! by band on demand and finished afterwards must be cell-for-cell
//! indistinguishable from a full compile (same costs to the bit, same
//! plan assignment, same contour membership), and stopping at band `k`
//! must never cost cells above `k`'s boundary layer.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder, RqpResult};
use rqp_ess::{CompileMode, Ess, EssConfig, LazyEss, PospSnapshot};
use rqp_optimizer::Optimizer;
use rqp_qplan::CostModel;

fn catalog() -> Catalog {
    CatalogBuilder::new()
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
                .column("l_quantity", 50, 8)
                .build(),
        )
        .relation(
            RelationBuilder::new("orders", 15_000_000)
                .indexed_column("o_orderkey", 15_000_000, 8)
                .column("o_date", 2_400, 8)
                .build(),
        )
        .build()
}

fn query(catalog: &Catalog, dims: usize) -> RqpResult<Query> {
    let mut qb = QueryBuilder::new(catalog, "lazy")
        .table("part")
        .table("lineitem")
        .table("orders")
        .epp_join("part", "p_partkey", "lineitem", "l_partkey")
        .epp_join("orders", "o_orderkey", "lineitem", "l_orderkey")
        .filter("part", "p_price", 0.05);
    if dims >= 3 {
        qb = qb.epp_filter("orders", "o_date", 0.1);
    }
    if dims >= 4 {
        qb = qb.epp_filter("lineitem", "l_quantity", 0.3);
    }
    qb.build()
}

fn config(dims: usize, mode: CompileMode) -> EssConfig {
    let resolution = match dims {
        2 => 8,
        3 => 6,
        _ => 5,
    };
    EssConfig { resolution, mode, ..Default::default() }
}

/// Eager and lazily-finished surfaces must agree bit for bit: costs, plan
/// assignment, contour ladder and band membership.
fn assert_ess_identical(eager: &Ess, lazy: &Ess) {
    assert_eq!(eager.grid().num_cells(), lazy.grid().num_cells());
    assert_eq!(eager.posp.num_plans(), lazy.posp.num_plans());
    assert_eq!(eager.contours.num_bands(), lazy.contours.num_bands());
    for cell in eager.grid().cells() {
        assert_eq!(
            eager.posp.cost(cell).to_bits(),
            lazy.posp.cost(cell).to_bits(),
            "cell {cell} cost must be bitwise identical"
        );
        assert_eq!(eager.posp.plan_id(cell), lazy.posp.plan_id(cell), "cell {cell} plan");
        assert_eq!(eager.contours.band_of(cell), lazy.contours.band_of(cell), "cell {cell} band");
    }
    for band in 0..eager.contours.num_bands() {
        assert_eq!(eager.contours.cells(band), lazy.contours.cells(band), "band {band} members");
    }
}

#[test]
fn lazy_finish_matches_eager_exact_and_recost_2d_3d_4d() {
    let catalog = catalog();
    for dims in [2usize, 3, 4] {
        let query = query(&catalog, dims).unwrap();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        for mode in [CompileMode::Exact, CompileMode::Recost { seed_stride: 3 }] {
            let cfg = config(dims, mode);
            let eager = Ess::compile_cached(&opt, cfg, None).unwrap();
            let lazy = LazyEss::begin(&opt, cfg).unwrap();
            let finished = lazy.finish().unwrap();
            assert_ess_identical(&eager, &finished);
            // the final snapshots are byte-identical, not just equivalent
            assert_eq!(
                PospSnapshot::capture(&eager).encode(0),
                PospSnapshot::capture(&finished).encode(0),
                "{dims}D {mode:?}: finished lazy snapshot must be byte-identical to eager"
            );
        }
    }
}

#[test]
fn lazy_bands_match_eager_contours_without_finishing() {
    let catalog = catalog();
    let query = query(&catalog, 3).unwrap();
    let opt = Optimizer::new(&catalog, &query, CostModel::default());
    let cfg = config(3, CompileMode::Recost { seed_stride: 3 });
    let eager = Ess::compile_cached(&opt, cfg, None).unwrap();
    let lazy = LazyEss::begin(&opt, cfg).unwrap();
    assert_eq!(lazy.ladder(), eager.contours.ladder());
    for band in 0..2.min(lazy.ladder().num_bands()) {
        assert_eq!(
            *lazy.band_cells(band),
            eager.contours.cells(band).to_vec(),
            "band {band} members must match the eager contour set"
        );
    }
}

#[test]
fn compiling_through_band_k_never_costs_cells_above_its_boundary() {
    let catalog = catalog();
    let query = query(&catalog, 3).unwrap();
    let cfg = config(3, CompileMode::Exact);
    let opt = Optimizer::new(&catalog, &query, CostModel::default());
    let lazy = LazyEss::begin(&opt, cfg).unwrap();
    let total = lazy.grid().num_cells();
    assert!(lazy.ladder().num_bands() > 3, "fixture must have enough bands to stop early");

    lazy.compile_through(1);
    assert_eq!(lazy.bands_compiled(), 2);
    let costed = lazy.costed_cells();
    // bands 0..=1 plus their +1 boundary layer is a small fraction of the
    // grid — this is the whole point of the lazy compiler
    assert!(costed * 2 < total, "stopping at band 1 costed {costed} of {total} cells — not lazy");

    // exact-mode laziness is sharp: the costed set is exactly the flooded
    // down-set (bands 0..=1), its +1 boundary layer, and the terminus
    // ladder anchor — the frontier invariant
    let grid = lazy.grid();
    let dims = grid.dims();
    let mut expected: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for band in 0..2 {
        expected.extend(lazy.band_cells(band).iter().copied());
    }
    for cell in expected.clone() {
        let coords = grid.coords_of(cell);
        for d in 0..dims {
            if coords[d] + 1 < grid.res(d) {
                let mut up = coords.clone();
                up[d] += 1;
                expected.insert(grid.index(&up));
            }
        }
    }
    expected.insert(grid.terminus());
    assert_eq!(
        lazy.costed_cells(),
        expected.len(),
        "exact-mode costed set must be the down-set plus its boundary layer"
    );
}

#[test]
fn oracle_peeks_cost_single_cells_not_bands() {
    let catalog = catalog();
    let query = query(&catalog, 2).unwrap();
    let cfg = config(2, CompileMode::Exact);
    let opt = Optimizer::new(&catalog, &query, CostModel::default());
    let lazy = LazyEss::begin(&opt, cfg).unwrap();
    let baseline = lazy.costed_cells(); // the two ladder anchors
    let mid = lazy.grid().num_cells() / 2;
    let c = lazy.cost(mid);
    assert!(c.is_finite() && c > 0.0);
    assert_eq!(lazy.bands_compiled(), 0, "a peek must not trigger band compilation");
    assert!(lazy.costed_cells() <= baseline + 1, "a peek costs at most one new cell");
    // peeks are memoized
    let again = lazy.cost(mid);
    assert_eq!(c.to_bits(), again.to_bits());
    assert_eq!(lazy.costed_cells(), baseline + 1);
}

//! Integration tests for the compile acceleration layer: the exact surface
//! must be the brute-force surface bit for bit, the recosting surface must
//! be indistinguishable from it within the workspace cost tolerance, and a
//! compile routed through the persistent cache must restore byte-identical
//! surfaces and bands.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder, RqpResult};
use rqp_ess::{CompileCache, CompileMode, Ess, EssConfig, Grid, Posp};
use rqp_optimizer::Optimizer;
use rqp_qplan::{cost_eq, CostModel, Fingerprint};

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
    let mut qb = QueryBuilder::new(catalog, "accel")
        .table("part")
        .table("lineitem")
        .table("orders")
        .epp_join("part", "p_partkey", "lineitem", "l_partkey")
        .epp_join("orders", "o_orderkey", "lineitem", "l_orderkey")
        .filter("part", "p_price", 0.05);
    if dims >= 3 {
        qb = qb.epp_filter("orders", "o_date", 0.1);
    }
    qb.build()
}

/// The POSP by the paper's definition (§2.2): the optimizer invoked at
/// every grid location, as `(plan fingerprint, cost)` per cell.
fn brute_force(opt: &Optimizer<'_>, grid: &Grid) -> Vec<(Fingerprint, f64)> {
    grid.cells()
        .map(|cell| {
            let planned = opt.optimize(&grid.location(cell));
            (Fingerprint::of(&planned.plan), planned.cost)
        })
        .collect()
}

fn compile(opt: &Optimizer<'_>, resolution: usize, mode: CompileMode) -> Posp {
    let config = EssConfig { resolution, mode, ..Default::default() };
    Ess::compile_cached(opt, config, None).unwrap().posp
}

fn plan_fp(posp: &Posp, cell: usize) -> Fingerprint {
    Fingerprint::of(posp.plan(posp.plan_id(cell)))
}

#[test]
fn exact_mode_is_the_brute_force_surface() {
    let catalog = catalog();
    for (dims, res) in [(2, 9), (2, 16), (3, 10)] {
        let query = query(&catalog, dims).unwrap();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        // strides ≤ 1 degrade to exact mode
        for mode in [
            CompileMode::Exact,
            CompileMode::Recost { seed_stride: 0 },
            CompileMode::Recost { seed_stride: 1 },
        ] {
            let posp = compile(&opt, res, mode);
            let reference = brute_force(&opt, posp.grid());
            for (cell, &(fp, cost)) in reference.iter().enumerate() {
                assert_eq!(posp.cost(cell).to_bits(), cost.to_bits(), "{dims}D {mode:?} {cell}");
                assert_eq!(plan_fp(&posp, cell), fp, "{dims}D {mode:?} cell {cell} plan");
            }
        }
    }
}

#[test]
fn recost_mode_matches_brute_force() {
    let catalog = catalog();
    for (dims, res) in [(2, 9), (2, 16), (3, 10)] {
        let query = query(&catalog, dims).unwrap();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let fast = compile(&opt, res, CompileMode::Recost { seed_stride: 3 });
        let reference = brute_force(&opt, fast.grid());
        for (cell, &(_, e)) in reference.iter().enumerate() {
            let f = fast.cost(cell);
            assert!(
                cost_eq(e, f),
                "{dims}D cell {cell}: brute-force cost {e} vs recost surface cost {f} \
                 (recost plan P{})",
                fast.plan_id(cell).0 + 1,
            );
            // the recorded cost must really be the cost of the recorded plan
            let replayed = fast.cost_of_plan_at(&opt, fast.plan_id(cell), cell);
            assert!(cost_eq(replayed, f), "{dims}D cell {cell}: stored {f}, recosted {replayed}");
        }
    }
}

#[test]
fn compile_through_cache_restores_identical_surfaces_and_bands() {
    let catalog = catalog();
    let query = query(&catalog, 2).unwrap();
    let opt = Optimizer::new(&catalog, &query, CostModel::default());
    let config = EssConfig { resolution: 10, ..Default::default() };

    let dir = std::env::temp_dir().join(format!("rqp-accel-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CompileCache::new(&dir).unwrap();

    let cold = Ess::compile_cached(&opt, config, Some(&cache)).unwrap();
    let warm = Ess::compile_cached(&opt, config, Some(&cache)).unwrap();

    assert_eq!(cold.grid().num_cells(), warm.grid().num_cells());
    assert_eq!(cold.posp.num_plans(), warm.posp.num_plans());
    assert_eq!(cold.contours.num_bands(), warm.contours.num_bands());
    for cell in cold.grid().cells() {
        assert_eq!(cold.posp.cost(cell).to_bits(), warm.posp.cost(cell).to_bits());
        assert_eq!(cold.posp.plan_id(cell), warm.posp.plan_id(cell));
        assert_eq!(cold.contours.band_of(cell), warm.contours.band_of(cell));
    }
    for band in 0..cold.contours.num_bands() {
        assert_eq!(cold.contours.cells(band), warm.contours.cells(band));
        assert_eq!(
            cold.contours.plans_on(&cold.posp, band),
            warm.contours.plans_on(&warm.posp, band)
        );
    }

    // a config change must miss: different resolution, fresh compile
    let other = EssConfig { resolution: 11, ..Default::default() };
    let fresh = Ess::compile_cached(&opt, other, Some(&cache)).unwrap();
    assert_eq!(fresh.grid().num_cells(), 11 * 11);

    let _ = std::fs::remove_dir_all(&dir);
}

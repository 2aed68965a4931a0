//! Property-based tests over randomly generated catalogs, queries and
//! selectivity locations: the invariants every MSO guarantee rests on.

use proptest::prelude::*;
use robust_qp::prelude::*;

/// A randomly parameterized chain-join workload: `r0 ⋈ r1 ⋈ … ⋈ rk` with
/// every join error-prone and one filter on the first relation.
#[derive(Debug, Clone)]
struct ChainSpec {
    rows: Vec<u64>,
    ndv_frac: Vec<f64>,
    filter_sel: f64,
}

fn chain_spec() -> impl Strategy<Value = ChainSpec> {
    (2usize..=4)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(1_000u64..100_000_000, n),
                proptest::collection::vec(0.01f64..1.0, n),
                0.001f64..1.0,
            )
        })
        .prop_map(|(rows, ndv_frac, filter_sel)| ChainSpec { rows, ndv_frac, filter_sel })
}

fn build_workload(spec: &ChainSpec) -> (Catalog, Query) {
    let mut cb = CatalogBuilder::new();
    for (i, (&rows, &f)) in spec.rows.iter().zip(&spec.ndv_frac).enumerate() {
        let ndv = ((rows as f64 * f) as u64).max(2);
        cb = cb.relation(
            RelationBuilder::new(format!("r{i}"), rows)
                .indexed_column("k", ndv, 8)
                .indexed_column("j", ndv, 8)
                .column("v", (rows / 10).max(2), 8)
                .build(),
        );
    }
    let catalog = cb.build();
    let mut qb = QueryBuilder::new(&catalog, "chain");
    for i in 0..spec.rows.len() {
        qb = qb.table(&format!("r{i}"));
    }
    for i in 0..spec.rows.len() - 1 {
        let (l, r) = (format!("r{i}"), format!("r{}", i + 1));
        qb = qb.epp_join(&l, "j", &r, "k");
    }
    let query = qb.filter("r0", "v", spec.filter_sel).build().unwrap();
    (catalog, query)
}

fn sel_in_range() -> impl Strategy<Value = f64> {
    // log-uniform selectivity in [1e-6, 1]
    (0.0f64..1.0).prop_map(|t| 10f64.powf(-6.0 * (1.0 - t)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// PCM (§2.4): any plan's cost is non-decreasing under dominance.
    #[test]
    fn pcm_holds_for_optimizer_plans(
        spec in chain_spec(),
        base in proptest::collection::vec(sel_in_range(), 3),
        bumps in proptest::collection::vec(1.0f64..100.0, 3),
    ) {
        let (catalog, query) = build_workload(&spec);
        let d = query.dims();
        let q1 = SelVector::from_values(&base[..d]);
        let mut hi: Vec<f64> = base[..d].iter().zip(&bumps[..d]).map(|(&b, &m)| (b * m).min(1.0)).collect();
        for v in &mut hi {
            *v = v.max(1e-8);
        }
        let q2 = SelVector::from_values(&hi);
        prop_assume!(q2.dominates(&q1));

        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        // plans optimal at either endpoint must both respect PCM
        for planned in [opt.optimize(&q1), opt.optimize(&q2)] {
            let c1 = opt.cost_of(&planned.plan, &q1);
            let c2 = opt.cost_of(&planned.plan, &q2);
            prop_assert!(c2 >= c1 * (1.0 - 1e-9), "PCM violated: {c1} -> {c2}");
        }
    }

    /// The optimizer is optimal within its own plan space: re-costing the
    /// plan it returns reproduces the reported cost, and no plan optimal
    /// elsewhere beats it at its own location.
    #[test]
    fn posp_cells_are_mutually_consistent(spec in chain_spec()) {
        let (catalog, query) = build_workload(&spec);
        let rt = RobustRuntime::compile(
            &catalog,
            &query,
            CostModel::default(),
            EssConfig { resolution: 5, min_sel: 1e-5, ..Default::default() },
        )
        .unwrap();
        let ess = rt.ess().unwrap();
        let grid = ess.grid();
        let step = (grid.num_cells() / 16).max(1);
        for cell in (0..grid.num_cells()).step_by(step) {
            let oracle = ess.posp.cost(cell);
            for (id, _) in ess.posp.registry().iter() {
                let c = ess.posp.cost_of_plan_at(&rt.optimizer, id, cell);
                prop_assert!(
                    c >= oracle * (1.0 - 1e-9),
                    "plan {id} at cell {cell} beats the recorded optimum: {c} < {oracle}"
                );
            }
        }
    }

    /// SpillBound completes everywhere with `1 ≤ SubOpt ≤ 2(D²+3D)` and its
    /// learning never overshoots the truth.
    #[test]
    fn spillbound_invariants(spec in chain_spec()) {
        let (catalog, query) = build_workload(&spec);
        let rt = RobustRuntime::compile(
            &catalog,
            &query,
            CostModel::default(),
            EssConfig { resolution: 5, min_sel: 1e-5, ..Default::default() },
        )
        .unwrap();
        let grid = rt.grid();
        let sb = SpillBound::new();
        let bound = 2.0 * sb_guarantee(rt.dims());
        let step = (grid.num_cells() / 12).max(1);
        for qa in (0..grid.num_cells()).step_by(step) {
            let t = sb.discover(&rt, qa);
            prop_assert!(t.steps.last().unwrap().completed);
            prop_assert!(t.subopt() >= 1.0 - 1e-9, "subopt {}", t.subopt());
            prop_assert!(t.subopt() <= bound + 1e-9, "subopt {} > {bound}", t.subopt());
            let qa_loc = grid.location(qa);
            for s in &t.steps {
                if let Some((dim, v, exact)) = s.learned {
                    let truth = qa_loc.get(dim.0).value();
                    if exact {
                        prop_assert!((v - truth).abs() <= 1e-12 * truth);
                    } else {
                        prop_assert!(v <= truth * (1.0 + 1e-9));
                    }
                }
            }
        }
    }

    /// Contour bands partition the grid and band costs grow geometrically.
    #[test]
    fn contours_partition_and_double(spec in chain_spec()) {
        let (catalog, query) = build_workload(&spec);
        let rt = RobustRuntime::compile(
            &catalog,
            &query,
            CostModel::default(),
            EssConfig { resolution: 5, min_sel: 1e-5, ..Default::default() },
        )
        .unwrap();
        let ess = rt.ess().unwrap();
        let contours = &ess.contours;
        let total: usize = (0..contours.num_bands()).map(|b| contours.cells(b).len()).sum();
        prop_assert_eq!(total, ess.grid().num_cells());
        for b in 1..contours.num_bands() {
            prop_assert!((contours.cc(b) / contours.cc(b - 1) - 2.0).abs() < 1e-9);
        }
        for b in 0..contours.num_bands() {
            for &cell in contours.cells(b) {
                let c = ess.posp.cost(cell);
                prop_assert!(c >= contours.cc(b) * (1.0 - 1e-12));
                prop_assert!(c < contours.cc(b) * 2.0 * (1.0 + 1e-12));
            }
        }
    }

    /// Anorexic reduction never assigns a plan worse than (1+λ)×optimal.
    #[test]
    fn anorexic_respects_lambda(spec in chain_spec(), lambda in 0.0f64..1.0) {
        let (catalog, query) = build_workload(&spec);
        let rt = RobustRuntime::compile(
            &catalog,
            &query,
            CostModel::default(),
            EssConfig { resolution: 5, min_sel: 1e-5, ..Default::default() },
        )
        .unwrap();
        let ess = rt.ess().unwrap();
        let reduced = robust_qp::ess::anorexic_reduce(&ess.posp, &rt.optimizer, lambda);
        prop_assert!(reduced.num_plans <= ess.posp.num_plans());
        let step = (ess.grid().num_cells() / 16).max(1);
        for cell in (0..ess.grid().num_cells()).step_by(step) {
            let c = ess.posp.cost_of_plan_at(&rt.optimizer, reduced.cell_plan[cell], cell);
            prop_assert!(c <= (1.0 + lambda) * ess.posp.cost(cell) * (1.0 + 1e-9));
        }
    }

    /// Dominance on selectivity vectors is a partial order compatible with
    /// the component-wise max.
    #[test]
    fn dominance_lattice_laws(
        a in proptest::collection::vec(sel_in_range(), 3),
        b in proptest::collection::vec(sel_in_range(), 3),
    ) {
        let va = SelVector::from_values(&a);
        let vb = SelVector::from_values(&b);
        let m = va.join_max(&vb);
        prop_assert!(m.dominates(&va) && m.dominates(&vb));
        prop_assert!(va.dominates(&va));
        if va.dominates(&vb) && vb.dominates(&va) {
            prop_assert_eq!(va.clone(), vb.clone());
        }
        // join_max is the least upper bound: any common dominator of a and
        // b dominates their max
        let big = SelVector::from_values(&[1.0, 1.0, 1.0]);
        prop_assert!(big.dominates(&m));
    }
}

mod row_level {
    use super::*;
    use robust_qp::executor::{DataSet, RowExecutor};

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Row-level validation: structurally different optimal plans of the
        /// same query compute identical result cardinalities on real tuples.
        #[test]
        fn physical_plans_agree_on_generated_data(
            seed in 0u64..1000,
            sel_a in 0.001f64..0.2,
            sel_b in 0.001f64..0.2,
        ) {
            let w = robust_qp::workloads::synth_workload(
                robust_qp::workloads::SynthConfig::chain(3, seed),
            )
            .unwrap();
            let target = SelVector::from_values(&[sel_a, sel_b]);
            let data = DataSet::generate(&w.catalog, &w.query, &target, 400, seed);
            let opt = Optimizer::new(&w.catalog, &w.query, CostModel::default());
            let mut counts = Vec::new();
            for loc in [
                SelVector::from_values(&[1e-5, 1e-5]),
                target.clone(),
                SelVector::from_values(&[0.9, 0.9]),
            ] {
                let planned = opt.optimize(&loc);
                let mut exec = RowExecutor::new(&w.catalog, &w.query, &data);
                counts.push(exec.run(&planned.plan).expect("no quota").len());
            }
            prop_assert_eq!(counts[0], counts[1]);
            prop_assert_eq!(counts[1], counts[2]);
        }

        /// Snapshot round-trips preserve the full POSP bit-for-bit.
        #[test]
        fn snapshot_roundtrip_is_lossless(seed in 0u64..200) {
            let w = robust_qp::workloads::synth_workload(
                robust_qp::workloads::SynthConfig::star(3, seed),
            )
            .unwrap();
            let rt = w.runtime(EssConfig { resolution: 6, ..Default::default() }).unwrap();
            let ess = rt.ess().unwrap();
            let snap = robust_qp::ess::PospSnapshot::capture(&ess);
            let (_, back) = robust_qp::ess::PospSnapshot::decode(snap.encode(seed).as_bytes())
                .unwrap();
            let restored = back.restore().unwrap();
            for cell in ess.grid().cells() {
                prop_assert_eq!(restored.posp.cost(cell), ess.posp.cost(cell));
                prop_assert_eq!(restored.posp.plan_id(cell), ess.posp.plan_id(cell));
            }
        }
    }
}

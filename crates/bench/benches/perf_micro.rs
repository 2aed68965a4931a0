//! Micro-benchmarks of the substrate: optimizer invocations, plan costing,
//! spill-mode execution and contour machinery. These are the units whose
//! throughput determines how fast an ESS compiles and how fast exhaustive
//! MSO evaluation runs.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{runtime_for, Scale};
use rqp_catalog::SelVector;
use rqp_executor::Engine;
use rqp_optimizer::Optimizer;
use rqp_qplan::pipeline::{epp_spill_order, spill_target};
use rqp_qplan::{CostModel, PlanCtx};
use rqp_workloads::{BenchQuery, Workload};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let w = Workload::tpcds(BenchQuery::Q91_4D).expect("workload builds");
    let opt = Optimizer::new(&w.catalog, &w.query, CostModel::default());
    let model = CostModel::default();
    let loc = SelVector::from_values(&[1e-3, 1e-4, 1e-2, 1e-3]);

    c.bench_function("micro/optimize_7rel_4epp", |b| b.iter(|| black_box(opt.optimize(&loc).cost)));

    let planned = opt.optimize(&loc);
    c.bench_function("micro/cost_plan_at_location", |b| {
        b.iter(|| {
            let ctx = PlanCtx::new(&w.catalog, &w.query, &loc);
            black_box(model.cost(&planned.plan, &ctx))
        })
    });

    c.bench_function("micro/spill_order_extraction", |b| {
        b.iter(|| black_box(epp_spill_order(&planned.plan, &w.query).len()))
    });

    let engine = Engine::new(&w.catalog, &w.query, model);
    let unlearnt = (0..4).map(rqp_catalog::EppId).collect();
    let target = spill_target(&planned.plan, &w.query, &unlearnt).unwrap();
    let qa = SelVector::from_values(&[0.1, 0.1, 0.1, 0.1]);
    c.bench_function("micro/spill_execution_coarse", |b| {
        b.iter(|| {
            black_box(
                engine.execute_spill_coarse(&planned.plan, target, &loc, &qa, planned.cost).spent,
            )
        })
    });

    let rt = runtime_for(&w, Scale::Quick, None);
    let qa_cell = rt.grid().num_cells() / 2;
    let sb = rqp_core::SpillBound::new();
    use rqp_core::Discovery;
    sb.discover(&rt, qa_cell); // warm the per-contour cache
    c.bench_function("micro/sb_discover_warm_4d_q91", |b| {
        b.iter(|| black_box(sb.discover(&rt, qa_cell).total_cost))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);

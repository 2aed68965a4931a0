//! Fig. 13 & Table 4: AlignedBound vs SpillBound empirical MSO (with the
//! 2D+2 reference) and AB's maximum replacement penalty. Prints both, then
//! times one AlignedBound discovery including its partition search.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{fig13_table4_aligned, render_aligned, runtime_for, Scale};
use rqp_core::{AlignedBound, Discovery, RobustRuntime};
use rqp_qplan::CostModel;
use rqp_workloads::{BenchQuery, Workload};
use std::hint::black_box;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let rows = fig13_table4_aligned(Scale::Quick, None);
    println!("{}", render_aligned(&rows));

    let w = Workload::tpcds(BenchQuery::Q91_4D).expect("workload builds");
    let rt = runtime_for(&w, Scale::Quick, None);
    let qa = rt.grid().num_cells() / 2;
    let ess = rt.ess().expect("eager surface");
    c.bench_function("fig13/ab_discover_cold_4d_q91", |b| {
        b.iter(|| {
            // a fresh surface handle has an empty contour memo: full
            // partition search
            let cold = RobustRuntime::with_shared_ess(
                &w.catalog,
                &w.query,
                CostModel::default(),
                Arc::clone(&ess),
            )
            .expect("same workload");
            black_box(AlignedBound::new().discover(&cold, qa).total_cost)
        })
    });
    let ab = AlignedBound::new();
    ab.discover(&rt, qa);
    c.bench_function("fig13/ab_discover_warm_4d_q91", |b| {
        b.iter(|| black_box(ab.discover(&rt, qa).total_cost))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

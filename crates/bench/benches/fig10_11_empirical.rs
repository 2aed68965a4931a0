//! Figs. 10 & 11: empirical MSO and ASO of PlanBouquet vs SpillBound by
//! exhaustive ESS enumeration over the query suite. Prints both series,
//! then times one full-grid SpillBound evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{fig10_11_empirical, render_empirical, runtime_for, Scale};
use rqp_core::{evaluate, SpillBound};
use rqp_workloads::{BenchQuery, Workload};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = fig10_11_empirical(Scale::Quick, None);
    println!("{}", render_empirical(&rows));

    let w = Workload::tpcds(BenchQuery::Q15_3D).expect("workload builds");
    let rt = runtime_for(&w, Scale::Quick, None);
    c.bench_function("fig10/evaluate_sb_full_grid_3d_q15", |b| {
        b.iter(|| black_box(evaluate(&rt, &SpillBound::new()).mso))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

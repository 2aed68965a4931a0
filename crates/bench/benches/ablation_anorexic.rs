//! Ablation: the anorexic-reduction threshold λ — how the plan-diagram
//! cardinality ρ, PlanBouquet's guarantee and its empirical MSO respond.
//! Prints the sweep, then times one reduction.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{ablation_anorexic, render_anorexic, runtime_for, Scale};
use rqp_ess::anorexic_reduce;
use rqp_workloads::{BenchQuery, Workload};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = ablation_anorexic(Scale::Quick, None);
    println!("{}", render_anorexic(&rows));

    let w = Workload::tpcds(BenchQuery::Q96_3D).expect("workload builds");
    let rt = runtime_for(&w, Scale::Quick, None);
    let ess = rt.ess().expect("surface materializes");
    c.bench_function("ablation/anorexic_reduce_lambda02", |b| {
        b.iter(|| black_box(anorexic_reduce(&ess.posp, &rt.optimizer, 0.2).num_plans))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

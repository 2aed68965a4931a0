//! §8 comparison: the POP/Rio-style mid-query reoptimization heuristic vs
//! SpillBound — decent averages, unbounded worst case. Prints the
//! comparison, then times one ReOpt discovery (plan + up to D
//! reoptimizations).

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{baselines_comparison, render_baselines, runtime_for, Scale};
use rqp_core::{Discovery, ReOptimizer};
use rqp_workloads::{BenchQuery, Workload};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = baselines_comparison(Scale::Quick, None);
    println!("{}", render_baselines(&rows));

    let w = Workload::tpcds(BenchQuery::Q91_4D).expect("workload builds");
    let rt = runtime_for(&w, Scale::Quick, None);
    let qa = rt.grid().terminus();
    c.bench_function("baselines/reopt_discover_4d_q91", |b| {
        b.iter(|| black_box(ReOptimizer::default().discover(&rt, qa).total_cost))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

//! Fig. 12: the sub-optimality distribution over the ESS for 4D_Q91.
//! Prints the PB/SB histograms (bin width 5), then times histogram
//! extraction from a precomputed evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{fig12_distribution, render_histogram, runtime_for, Scale};
use rqp_core::{evaluate, SpillBound};
use rqp_workloads::{BenchQuery, Workload};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let h = fig12_distribution(Scale::Quick, None);
    println!("{}", render_histogram(&h));

    let w = Workload::tpcds(BenchQuery::Q91_4D).expect("workload builds");
    let rt = runtime_for(&w, Scale::Quick, None);
    let ev = evaluate(&rt, &SpillBound::new());
    c.bench_function("fig12/histogram_from_evaluation", |b| {
        b.iter(|| black_box(ev.histogram(5.0, 10)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

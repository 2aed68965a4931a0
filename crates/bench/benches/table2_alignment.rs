//! Table 2: the cost of enforcing contour alignment — percentage of
//! aligned contours at replacement-penalty thresholds. Prints the table,
//! then times the per-query alignment analysis.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{render_alignment, runtime_for, table2_alignment, Scale};
use rqp_core::alignment_stats;
use rqp_workloads::{BenchQuery, Workload};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = table2_alignment(Scale::Quick, None);
    println!("{}", render_alignment(&rows));

    let w = Workload::tpcds(BenchQuery::Q96_3D).expect("workload builds");
    let rt = runtime_for(&w, Scale::Quick, None);
    c.bench_function("table2/alignment_stats_3d_q96", |b| {
        b.iter(|| black_box(alignment_stats(&rt).max_penalty()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

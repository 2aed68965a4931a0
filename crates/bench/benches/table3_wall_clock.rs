//! Table 3 / §6.3: the wall-clock drill-down on 4D_Q91 — native vs SB vs
//! AB with cost units anchored to the paper's 44 s oracle time. Prints the
//! trace, then times the native baseline's single planning+costing step.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{render_wall_clock, runtime_for, table3_wall_clock, Scale};
use rqp_core::{Discovery, NativeOptimizer};
use rqp_workloads::{BenchQuery, Workload};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let r = table3_wall_clock(Scale::Quick, None);
    println!("{}", render_wall_clock(&r));

    let w = Workload::tpcds(BenchQuery::Q91_4D).expect("workload builds");
    let rt = runtime_for(&w, Scale::Quick, None);
    let qa = rt.grid().terminus();
    c.bench_function("table3/native_discover_4d_q91", |b| {
        b.iter(|| black_box(NativeOptimizer.discover(&rt, qa).total_cost))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

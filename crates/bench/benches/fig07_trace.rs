//! Fig. 7: the SpillBound execution trace on 2D_Q91. Prints the
//! Manhattan-profile drill-down, then times one full refined-bounds
//! discovery.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{fig7_trace, runtime_for, Scale};
use rqp_core::{Discovery, SpillBound};
use rqp_workloads::Workload;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("{}", fig7_trace(Scale::Quick, None));

    let w = Workload::q91(2).expect("workload builds");
    let rt = runtime_for(&w, Scale::Quick, None);
    let grid = rt.grid();
    let qa = grid.index(&[grid.snap_ceil(0, 0.04), grid.snap_ceil(1, 0.1)]);
    c.bench_function("fig07/sb_refined_discover_2d_q91", |b| {
        b.iter(|| {
            let sb = SpillBound::with_refined_bounds();
            black_box(sb.discover(&rt, qa).total_cost)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

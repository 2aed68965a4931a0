//! Ablation (§7): robustness to bounded cost-model error — SpillBound's
//! empirical MSO under a δ-perturbed execution engine vs the inflated
//! guarantee (1+δ)²(D²+3D). Prints the sweep, then times one perturbed
//! discovery.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{ablation_cost_error, render_cost_error, runtime_for, Scale};
use rqp_core::{Discovery, SpillBound};
use rqp_workloads::Workload;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = ablation_cost_error(Scale::Quick, None);
    println!("{}", render_cost_error(&rows));

    let w = Workload::q91(3).expect("workload builds");
    let mut rt = runtime_for(&w, Scale::Quick, None);
    rt.set_cost_error(0.3);
    let qa = rt.grid().num_cells() / 2;
    let sb = SpillBound::new();
    sb.discover(&rt, qa);
    c.bench_function("ablation/sb_discover_delta03_3d_q91", |b| {
        b.iter(|| black_box(sb.discover(&rt, qa).total_cost))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

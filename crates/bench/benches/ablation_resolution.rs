//! Ablation: grid-resolution stability of the empirical MSO — evidence
//! that the discretization substitution (DESIGN.md) preserves the paper's
//! comparisons. Prints the sweep, then times a full SB evaluation at the
//! middle resolution.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{ablation_resolution, render_resolution, Scale};
use rqp_core::{evaluate, SpillBound};
use rqp_ess::EssConfig;
use rqp_workloads::Workload;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = ablation_resolution(Scale::Quick, None);
    println!("{}", render_resolution(&rows));

    let w = Workload::q91(2).expect("workload builds");
    let rt = w.runtime(EssConfig { resolution: 16, ..Default::default() }).expect("ESS compiles");
    c.bench_function("ablation/evaluate_sb_res16_2d_q91", |b| {
        b.iter(|| black_box(evaluate(&rt, &SpillBound::new()).mso))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

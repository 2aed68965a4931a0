//! §6.5: the Join Order Benchmark's Q1a — the native optimizer's
//! thousands-scale MSO collapses to single digits under SB/AB. Prints the
//! comparison, then times the worst-estimate native MSO computation.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{job_q1a, render_job, runtime_for, Scale};
use rqp_core::native::native_mso_worst_estimate;
use rqp_workloads::Workload;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let r = job_q1a(Scale::Quick, None);
    println!("{}", render_job(&r));

    let w = Workload::job_q1a().expect("workload builds");
    let rt = runtime_for(&w, Scale::Quick, None);
    c.bench_function("job/native_worst_estimate_mso", |b| {
        b.iter(|| black_box(native_mso_worst_estimate(&rt)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

//! Fig. 8: MSO guarantees of PlanBouquet (4(1+λ)ρ_red) vs SpillBound
//! (D²+3D) across the benchmark suite. Prints the full comparison, then
//! times the ρ_red computation (anorexic reduction + contour densities).

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{fig8_mso_guarantees, render_guarantees, runtime_for, Scale};
use rqp_core::PlanBouquet;
use rqp_workloads::{BenchQuery, Workload};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = fig8_mso_guarantees(Scale::Quick, None);
    println!("{}", render_guarantees("Fig 8: MSO guarantees (PB vs SB)", &rows));

    let w = Workload::tpcds(BenchQuery::Q15_3D).expect("workload builds");
    let rt = runtime_for(&w, Scale::Quick, None);
    c.bench_function("fig08/anorexic_rho_red_3d_q15", |b| {
        b.iter(|| black_box(PlanBouquet::anorexic(&rt, 0.2).expect("reduces").rho(&rt)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

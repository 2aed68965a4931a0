//! Ablation (§4.2 remark): SpillBound under different geometric contour
//! ratios — cost doubling is the paper's default but not quite ideal.
//! Prints the sweep, then times contour construction at ratio 2.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{ablation_cost_ratio, render_ratio, runtime_for, Scale};
use rqp_ess::ContourSet;
use rqp_workloads::Workload;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = ablation_cost_ratio(Scale::Quick, None);
    println!("{}", render_ratio(&rows));

    let w = Workload::q91(2).expect("workload builds");
    let rt = runtime_for(&w, Scale::Quick, None);
    let ess = rt.ess().expect("surface materializes");
    c.bench_function("ablation/contour_build_ratio2", |b| {
        b.iter(|| black_box(ContourSet::build(&ess.posp, 2.0).map(|c| c.num_bands()).unwrap_or(0)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

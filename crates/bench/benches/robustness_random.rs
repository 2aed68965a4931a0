//! Robustness sweep: SpillBound's structural guarantee on seeded random
//! workloads (chain/star/branch geometries, with and without aggregation).
//! Prints the sweep, then times one random-workload ESS compile + eval.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{random_workload_sweep, render_random, Scale};
use rqp_core::{evaluate, SpillBound};
use rqp_ess::EssConfig;
use rqp_workloads::{synth_workload, SynthConfig};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = random_workload_sweep(Scale::Quick, None, 9);
    println!("{}", render_random(&rows));
    assert!(rows.iter().all(|r| r.sb_mso <= r.bound), "bound violated on a random workload");

    let w = synth_workload(SynthConfig::chain(4, 7)).expect("workload builds");
    c.bench_function("random/compile_and_evaluate_chain4", |b| {
        b.iter(|| {
            let rt =
                w.runtime(EssConfig { resolution: 6, ..Default::default() }).expect("ESS compiles");
            black_box(evaluate(&rt, &SpillBound::new()).mso)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

//! Fig. 9: MSO-guarantee variation with ESS dimensionality for TPC-DS Q91
//! (D = 2..6). Prints the sweep, then times the dominating cost of the
//! pipeline: ESS compilation (parallel POSP construction) for the 2-D
//! variant.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{fig9_dimensionality, render_guarantees, Scale};
use rqp_ess::Ess;
use rqp_optimizer::Optimizer;
use rqp_qplan::CostModel;
use rqp_workloads::Workload;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = fig9_dimensionality(Scale::Quick, None);
    println!("{}", render_guarantees("Fig 9: MSOg vs dimensionality (Q91)", &rows));

    let w = Workload::q91(2).expect("workload builds");
    let opt = Optimizer::new(&w.catalog, &w.query, CostModel::default());
    let cfg = Scale::Quick.ess_config(2);
    c.bench_function("fig09/ess_compile_2d_q91", |b| {
        b.iter(|| black_box(Ess::compile(&opt, cfg).expect("ESS compiles").posp.num_plans()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

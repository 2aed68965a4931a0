//! Lazy anytime compilation benchmarks (ISSUE 9): cold
//! compile-to-first-execution. An eager server pays the full `Ess::compile`
//! before any session can execute; a lazy server pays `LazyEss::begin`
//! (ladder anchors only) plus the flood of the first contour band. On 4D+
//! fixtures the gap is the point of the whole tier — the manual medians go
//! to `BENCH_7.json` at the repo root (target: ≥10×).

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_ess::{Ess, EssConfig, LazyEss};
use rqp_optimizer::Optimizer;
use rqp_qplan::CostModel;
use rqp_workloads::Workload;
use std::hint::black_box;
use std::time::Instant;

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn bench(c: &mut Criterion) {
    for dims in [3usize, 4] {
        let w = Workload::q91(dims).expect("workload builds");
        let cfg = EssConfig::coarse(dims);
        let opt = Optimizer::new(&w.catalog, &w.query, CostModel::default());

        c.bench_function(&format!("compile_lazy/{dims}d_eager_full"), |b| {
            b.iter(|| {
                let ess = Ess::compile(&opt, cfg).unwrap();
                black_box(ess.posp.num_plans())
            })
        });
        c.bench_function(&format!("compile_lazy/{dims}d_lazy_first_band"), |b| {
            b.iter(|| {
                let lazy = LazyEss::begin(&opt, cfg).unwrap();
                lazy.compile_through(0);
                black_box(lazy.band_cells(0).len())
            })
        });
    }

    // manual medians on the 4D fixture for the perf trajectory
    let w4 = Workload::q91(4).expect("workload builds");
    let cfg4 = EssConfig::coarse(4);
    let opt4 = Optimizer::new(&w4.catalog, &w4.query, CostModel::default());
    let reps = 5;
    let eager_s = median_secs(reps, || {
        Ess::compile(&opt4, cfg4).unwrap();
    });
    let lazy_s = median_secs(reps, || {
        let lazy = LazyEss::begin(&opt4, cfg4).unwrap();
        lazy.compile_through(0);
    });
    let probe = LazyEss::begin(&opt4, cfg4).unwrap();
    probe.compile_through(0);
    let (bands_first, bands_total) = (probe.bands_compiled(), probe.ladder().num_bands());

    // hand-rolled JSON: the workspace serde_json may be a stub (see
    // crates/ess/src/cache.rs), so the report is written directly
    let json = format!(
        "{{\n  \"bench\": \"compile_lazy\",\n  \"fixture\": \"q91 4D, EssConfig::coarse(4)\",\n  \
         \"reps\": {reps},\n  \"eager_full_seconds\": {eager_s:.6},\n  \
         \"lazy_first_band_seconds\": {lazy_s:.6},\n  \
         \"first_execution_speedup\": {:.2},\n  \
         \"bands_compiled_at_first_execution\": {bands_first},\n  \
         \"total_bands\": {bands_total}\n}}\n",
        eager_s / lazy_s.max(1e-12),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_7.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}\n{json}"),
        Err(e) => eprintln!("could not write {out}: {e}\n{json}"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

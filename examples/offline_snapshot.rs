//! Offline ESS compilation (§7): compile once, snapshot to the
//! checksummed snapshot format, reload instantly for canned queries.
//!
//! Run with: `cargo run --release --example offline_snapshot`

use robust_qp::ess::{compile_fingerprint, PospSnapshot};
use robust_qp::prelude::*;
use std::time::Instant;

fn main() {
    let w = Workload::q91(2).expect("Q91 builds");

    // the expensive step: optimizer at every grid location
    let t0 = Instant::now();
    let cfg = EssConfig { resolution: 32, ..Default::default() };
    let rt = w.runtime(cfg).expect("ESS compiles");
    let compile_time = t0.elapsed();
    let ess = rt.ess().expect("eager surface materializes");

    // snapshot it, recording the compile's fingerprint
    let fp = compile_fingerprint(&w.catalog, &w.query, &CostModel::default(), &cfg);
    let text = PospSnapshot::capture(&ess).encode(fp);
    let path = std::env::temp_dir().join("rqp_2d_q91.rqpc");
    std::fs::write(&path, &text).expect("snapshot written");
    println!(
        "compiled {} cells / {} plans in {compile_time:.2?}; snapshot {} KiB at {}",
        ess.grid().num_cells(),
        ess.posp.num_plans(),
        text.len() / 1024,
        path.display()
    );

    // the cheap step: restore without touching the optimizer
    let t1 = Instant::now();
    let loaded = std::fs::read(&path).expect("snapshot read");
    let (recorded, snap) = PospSnapshot::decode(&loaded).expect("snapshot decodes");
    assert_eq!(recorded, fp, "the snapshot records the compile it came from");
    let restored = snap.restore().expect("snapshot restores");
    println!(
        "restored in {:.2?} ({}x faster than compiling)",
        t1.elapsed(),
        (compile_time.as_nanos() / t1.elapsed().as_nanos().max(1)).max(1)
    );

    // the restored ESS is bit-identical where it matters
    assert_eq!(restored.posp.num_plans(), ess.posp.num_plans());
    for cell in ess.grid().cells() {
        assert_eq!(restored.posp.cost(cell), ess.posp.cost(cell));
        assert_eq!(restored.posp.plan_id(cell), ess.posp.plan_id(cell));
    }
    println!("restored ESS verified identical on all {} cells", ess.grid().num_cells());

    let _ = std::fs::remove_file(&path);
}

//! Golden digests of the compiled surfaces of the benchmark fixtures.
//!
//! Each case compiles one fixture at its coarse resolution in one compile
//! mode and pins an FNV-1a digest of the compiled surface itself: the grid
//! axes and every cell's cost as bit patterns, every cell's plan id, each
//! plan's `Debug` form in id order, and the contour ratio's bits. A
//! matching digest means a bit-identical surface: same plans, same
//! first-seen id assignment, same costs to the last bit. The digest reads
//! no persistence codec, so a change of snapshot format cannot move it.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_ess::{CompileMode, Ess, EssConfig};
use rqp_optimizer::Optimizer;
use rqp_qplan::{CostModel, StableHasher};
use rqp_workloads::Workload;

const RECOST: CompileMode = CompileMode::Recost { seed_stride: 3 };

/// `(fixture, mode, snapshot digest)`.
const PINS: [(&str, CompileMode, u64); 8] = [
    ("3D_Q15", CompileMode::Exact, 0xc4b2_24e3_a8cc_a795),
    ("3D_Q15", RECOST, 0xc4b2_24e3_a8cc_a795),
    ("4D_Q91", CompileMode::Exact, 0xd5db_e863_0974_1418),
    ("4D_Q91", RECOST, 0xd5db_e863_0974_1418),
    ("5D_Q19", CompileMode::Exact, 0x5e8e_ed82_3eb3_f464),
    ("5D_Q19", RECOST, 0x5e8e_ed82_3eb3_f464),
    ("JOB_Q1a", CompileMode::Exact, 0x64ca_4933_988a_e015),
    ("JOB_Q1a", RECOST, 0x0864_9f82_372c_25bc),
];

fn snapshot_digest(name: &str, mode: CompileMode) -> u64 {
    let w = Workload::by_name(name).unwrap();
    let opt = Optimizer::new(&w.catalog, &w.query, CostModel::default());
    let cfg = EssConfig { mode, ..EssConfig::coarse(w.query.dims()) };
    let ess = Ess::compile(&opt, cfg).unwrap();
    let grid = ess.grid();
    let mut h = StableHasher::new();
    h.write_usize(grid.dims());
    for d in 0..grid.dims() {
        h.write_usize(grid.res(d));
        for i in 0..grid.res(d) {
            h.write_f64(grid.value(d, i));
        }
    }
    h.write_usize(ess.posp.num_plans());
    for (_, plan) in ess.posp.registry().iter() {
        h.write_str(&format!("{plan:?}"));
    }
    for cell in grid.cells() {
        h.write_u32(ess.posp.plan_id(cell).0);
        h.write_f64(ess.posp.cost(cell));
    }
    h.write_f64(ess.contours.ratio);
    h.finish()
}

#[test]
fn fixture_surfaces_match_their_pinned_digests() {
    let mut mismatches = Vec::new();
    for (name, mode, want) in PINS {
        let got = snapshot_digest(name, mode);
        if got != want {
            mismatches.push(format!("{name} {mode:?}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "surface digests moved:\n{}", mismatches.join("\n"));
}

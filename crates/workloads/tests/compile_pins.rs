//! Golden digests of the compiled surfaces of the benchmark fixtures.
//!
//! Each case compiles one fixture at its coarse resolution in one compile
//! mode and pins the FNV-1a digest of the snapshot JSON. The JSON carries
//! every cell's plan id and cost bit pattern plus the plan registry in id
//! order, so a matching digest means a byte-identical surface: same
//! plans, same first-seen id assignment, same costs to the last bit.

use rqp_ess::{CompileMode, Ess, EssConfig, PospSnapshot};
use rqp_optimizer::Optimizer;
use rqp_qplan::{CostModel, StableHasher};
use rqp_workloads::Workload;

const RECOST: CompileMode = CompileMode::Recost { seed_stride: 3 };

/// `(fixture, mode, snapshot digest)`.
const PINS: [(&str, CompileMode, u64); 8] = [
    ("3D_Q15", CompileMode::Exact, 0x71f8_be5c_8123_3414),
    ("3D_Q15", RECOST, 0x71f8_be5c_8123_3414),
    ("4D_Q91", CompileMode::Exact, 0x466f_5c97_a0f3_7a5b),
    ("4D_Q91", RECOST, 0x466f_5c97_a0f3_7a5b),
    ("5D_Q19", CompileMode::Exact, 0x8298_f216_cd0e_3c5b),
    ("5D_Q19", RECOST, 0x8298_f216_cd0e_3c5b),
    ("JOB_Q1a", CompileMode::Exact, 0xd14c_f7cc_0ffd_fb04),
    ("JOB_Q1a", RECOST, 0xb43a_b3b7_aee7_0cc5),
];

fn snapshot_digest(name: &str, mode: CompileMode) -> u64 {
    let w = Workload::by_name(name).unwrap();
    let opt = Optimizer::new(&w.catalog, &w.query, CostModel::default());
    let cfg = EssConfig { mode, ..EssConfig::coarse(w.query.dims()) };
    let ess = Ess::compile(&opt, cfg).unwrap();
    let mut h = StableHasher::new();
    h.write_bytes(PospSnapshot::capture(&ess).to_json().unwrap().as_bytes());
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

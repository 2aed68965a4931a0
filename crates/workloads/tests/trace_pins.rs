//! Golden digests of the discovery traces of the benchmark fixtures.
//!
//! Each case compiles one fixture at its coarse resolution on an eager
//! surface, runs one algorithm at every `qa` cell, and pins an FNV-1a
//! digest of all the traces: per trace the total cost's bits and the step
//! count, and per step the band, the plan (POSP id, or a bespoke plan's
//! structural fingerprint), the execution mode, the budget and spend bits,
//! completion and what was learnt. A matching digest means every cell
//! runs the same executions in the same order with bit-identical costs.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_core::{
    AlignedBound, Discovery, DiscoveryTrace, ExecMode, PlanBouquet, PlanRef, RobustRuntime,
    SpillBound,
};
use rqp_ess::EssConfig;
use rqp_qplan::{Fingerprint, StableHasher};
use rqp_workloads::Workload;

/// The algorithms pinned, in the order of each fixture's digest row.
const ALGOS: [&str; 5] = ["SB", "SB-refined", "AB", "PB-raw", "PB-anorexic"];

/// `(fixture, one digest per entry of ALGOS)`.
const PINS: [(&str, [u64; 5]); 4] = [
    (
        "3D_Q15",
        [
            0x06a1_e36c_f8e7_2507,
            0x50a9_b5ac_775a_3dfa,
            0x0518_268d_2fb5_e034,
            0xcfc8_5d1d_5b67_3ac0,
            0xcd69_9795_aff3_f81a,
        ],
    ),
    (
        "4D_Q91",
        [
            0x1c7e_6c8e_349c_eee8,
            0x33a0_84e3_f1e3_8188,
            0x5d10_0d4c_d10d_0933,
            0x0f8c_356c_b575_8da3,
            0x5fac_3dfb_f71d_acfd,
        ],
    ),
    (
        "5D_Q19",
        [
            0x732f_1c59_416d_6106,
            0xb15e_f0c6_665c_b621,
            0x796b_5806_6d6c_87e4,
            0xba18_86c8_f057_aca1,
            0x4cb5_8ef7_7966_036f,
        ],
    ),
    (
        "JOB_Q1a",
        [
            0x28b4_53c7_e0f6_d2db,
            0xb57d_2bd4_81e4_6481,
            0x58fe_a287_11db_4926,
            0x4ea6_8abf_345d_b125,
            0xeca1_ebf3_a155_97f7,
        ],
    ),
];

fn algo(rt: &RobustRuntime<'_>, name: &str) -> Box<dyn Discovery> {
    match name {
        "SB" => Box::new(SpillBound::new()),
        "SB-refined" => Box::new(SpillBound::with_refined_bounds()),
        "AB" => Box::new(AlignedBound::new()),
        "PB-raw" => Box::new(PlanBouquet::new()),
        "PB-anorexic" => Box::new(PlanBouquet::anorexic(rt, 0.2).unwrap()),
        other => panic!("unknown algorithm {other}"),
    }
}

fn hash_trace(h: &mut StableHasher, t: &DiscoveryTrace) {
    h.write_f64(t.total_cost);
    h.write_usize(t.steps.len());
    for s in &t.steps {
        h.write_usize(s.band);
        match &s.plan {
            PlanRef::Posp(id) => {
                h.write_u8(0);
                h.write_u32(id.0);
            }
            PlanRef::Bespoke(node) => {
                h.write_u8(1);
                h.write_u64(Fingerprint::of(node).0);
            }
        }
        match s.mode {
            ExecMode::Full => h.write_u8(0),
            ExecMode::Spill(e) => {
                h.write_u8(1);
                h.write_usize(e.0);
            }
        }
        h.write_f64(s.budget);
        h.write_f64(s.spent);
        h.write_bool(s.completed);
        match s.learned {
            None => h.write_u8(0),
            Some((e, v, exact)) => {
                h.write_u8(1);
                h.write_usize(e.0);
                h.write_f64(v);
                h.write_bool(exact);
            }
        }
    }
}

fn trace_digests(name: &str) -> [u64; 5] {
    let w = Workload::by_name(name).unwrap();
    let rt = w.runtime(EssConfig::coarse(w.query.dims())).unwrap();
    ALGOS.map(|a| {
        let algo = algo(&rt, a);
        let mut h = StableHasher::new();
        for qa in rt.grid().cells() {
            hash_trace(&mut h, &algo.discover(&rt, qa));
        }
        h.finish()
    })
}

#[test]
fn fixture_traces_match_their_pinned_digests() {
    let mut mismatches = Vec::new();
    for (name, want) in PINS {
        let got = trace_digests(name);
        for ((a, g), w) in ALGOS.iter().zip(got).zip(want) {
            if g != w {
                mismatches.push(format!("{name} {a}: got {g:#018x}, pinned {w:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "trace digests moved:\n{}", mismatches.join("\n"));
}

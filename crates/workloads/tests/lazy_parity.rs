//! Discovery-level lazy/eager parity: every algorithm must produce a
//! bitwise-identical execution outcome whether its runtime is backed by an
//! eagerly compiled surface or a lazy anytime one.
//!
//! This is stricter than the surface-level equality tests in
//! `rqp-ess/tests/lazy_compile.rs`: plan *ids* are surface-relative (an
//! eager surface numbers plans in cell-index order, a lazy one in
//! flood-discovery order), so any id-order iteration or cross-surface id
//! reuse inside an algorithm shows up here as a cost or trace divergence.
//!
//! Each algorithm instance is reused across the eager and lazy runtimes.
//! Contour decisions (SpillBound / AlignedBound contour choices,
//! PlanBouquet band plans) live in each surface's own memo, not in the
//! instance, so a decision holding eager plan ids can never be replayed
//! against the lazy registry; this test keeps catching it if one ever is.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_core::{AlignedBound, Discovery, NativeOptimizer, PlanBouquet, ReOptimizer, SpillBound};
use rqp_ess::EssConfig;
use rqp_workloads::Workload;

#[test]
fn every_algorithm_discovers_identically_on_lazy_and_eager_surfaces() {
    for (name, w, cfg) in [
        ("2D_Q91", Workload::q91(2).unwrap(), EssConfig::coarse(2)),
        ("3D_Q91", Workload::q91(3).unwrap(), EssConfig::coarse(3)),
        ("JOB_Q1a", Workload::job_q1a().unwrap(), EssConfig::coarse(3)),
    ] {
        let eager = w.runtime(cfg).unwrap();
        let cells = eager.grid().num_cells();
        for qa in [0, cells / 3, cells / 2, cells - 1] {
            for algo in [
                Box::new(NativeOptimizer) as Box<dyn Discovery>,
                Box::new(ReOptimizer::default()),
                Box::new(PlanBouquet::new()),
                Box::new(SpillBound::new()),
                Box::new(AlignedBound::new()),
            ] {
                let lazy = w.runtime_lazy(cfg).unwrap();
                let te = algo.discover(&eager, qa);
                let tl = algo.discover(&lazy, qa);
                assert_eq!(
                    te.total_cost.to_bits(),
                    tl.total_cost.to_bits(),
                    "{name} {} qa {qa}: eager cost {} vs lazy {} ({} vs {} executions)",
                    algo.name(),
                    te.total_cost,
                    tl.total_cost,
                    te.num_executions(),
                    tl.num_executions(),
                );
                assert_eq!(
                    te.num_executions(),
                    tl.num_executions(),
                    "{name} {} qa {qa}: execution counts must match",
                    algo.name(),
                );
                // Anytime invariant: a walk that terminates at the origin
                // must leave the upper bands uncompiled.
                if qa == 0 && lazy.num_bands() > 2 {
                    assert!(
                        lazy.bands_compiled() < lazy.num_bands(),
                        "{name} {}: origin discovery compiled all {} bands",
                        algo.name(),
                        lazy.num_bands(),
                    );
                }
            }
        }
    }
}

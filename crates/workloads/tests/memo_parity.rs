//! Warm-memo / cold-memo parity: contour decisions memoised on a shared
//! surface handle must never change a discovery outcome.
//!
//! SpillBound, AlignedBound and raw PlanBouquet memoise their per-contour
//! decisions in the [`SharedSurface`] they run on, so every session on a
//! resident surface reuses what earlier sessions computed. That is only
//! sound if each decision is a pure function of the surface, the band and
//! the exactly-learnt coordinates. Here, for every probed `qa` cell, a
//! runtime on a handle that already served every cell must give the same
//! trace, bit for bit, as a runtime on a fresh handle with an empty memo,
//! on eager and lazy surfaces alike. Two threads filling one fresh handle
//! in opposite cell orders must agree with the cold answers too.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_core::{
    AlignedBound, Discovery, DiscoveryTrace, ExecMode, PlanBouquet, PlanRef, RobustRuntime,
    SharedSurface, SpillBound,
};
use rqp_ess::{Ess, EssConfig, LazyEss};
use rqp_optimizer::Optimizer;
use rqp_qplan::{CostModel, Fingerprint};
use rqp_workloads::Workload;
use std::sync::{Arc, Barrier};

/// Everything a session reports, with floats as bit patterns: total cost,
/// sub-optimality, and per step the band, plan, mode, budget, spend and
/// completion.
type Outcome = (u64, u64, Vec<(usize, u64, Option<usize>, u64, u64, bool)>);

fn outcome(t: &DiscoveryTrace) -> Outcome {
    let steps = t
        .steps
        .iter()
        .map(|s| {
            let plan = match &s.plan {
                PlanRef::Posp(id) => id.0 as u64,
                PlanRef::Bespoke(node) => Fingerprint::of(node).0,
            };
            let mode = match s.mode {
                ExecMode::Full => None,
                ExecMode::Spill(e) => Some(e.0),
            };
            (s.band, plan, mode, s.budget.to_bits(), s.spent.to_bits(), s.completed)
        })
        .collect();
    (t.total_cost.to_bits(), t.subopt().to_bits(), steps)
}

fn algos() -> Vec<Box<dyn Discovery>> {
    vec![
        Box::new(SpillBound::with_refined_bounds()),
        Box::new(AlignedBound::new()),
        Box::new(PlanBouquet::new()),
    ]
}

/// A second handle on the same surface: same plans and frontier, empty
/// memo.
fn fresh(handle: &SharedSurface) -> SharedSurface {
    match (handle.as_eager(), handle.as_lazy()) {
        (Some(ess), _) => SharedSurface::eager(Arc::clone(ess)),
        (_, Some(lazy)) => SharedSurface::lazy(Arc::clone(lazy)),
        (None, None) => unreachable!("a handle holds a surface"),
    }
}

fn check(name: &str, stride: usize) {
    let w = Workload::by_name(name).unwrap();
    let model = CostModel::default();
    let cfg = EssConfig::coarse(w.query.dims());
    let opt = Optimizer::new(&w.catalog, &w.query, model);
    let admit = |h: &SharedSurface| {
        RobustRuntime::with_surface(&w.catalog, &w.query, model, h.clone()).unwrap()
    };
    for handle in [
        SharedSurface::eager(Arc::new(Ess::compile(&opt, cfg).unwrap())),
        SharedSurface::lazy(LazyEss::begin(&opt, cfg).unwrap()),
    ] {
        let kind = if handle.as_lazy().is_some() { "lazy" } else { "eager" };
        let warm = admit(&handle);
        let cells: Vec<usize> = (0..warm.grid().num_cells()).step_by(stride).collect();
        for algo in algos() {
            // cold: every answer on a handle with an empty memo
            let cold: Vec<Outcome> = cells
                .iter()
                .map(|&qa| outcome(&algo.discover(&admit(&fresh(&handle)), qa)))
                .collect();
            // warm the shared handle on every cell, then ask again
            for &qa in &cells {
                algo.discover(&warm, qa);
            }
            for (&qa, want) in cells.iter().zip(&cold) {
                let got = outcome(&algo.discover(&warm, qa));
                assert!(
                    &got == want,
                    "{name} {kind} {} qa={qa}: warm memo moved the answer",
                    algo.name()
                );
            }
            // two threads fill one fresh handle in opposite cell orders
            let shared = fresh(&handle);
            let start = Barrier::new(2);
            std::thread::scope(|s| {
                for reverse in [false, true] {
                    let (shared, cells, cold, algo, start) =
                        (&shared, &cells, &cold, &algo, &start);
                    s.spawn(move || {
                        let rt = admit(shared);
                        start.wait();
                        let mut order: Vec<usize> = (0..cells.len()).collect();
                        if reverse {
                            order.reverse();
                        }
                        for i in order {
                            let got = outcome(&algo.discover(&rt, cells[i]));
                            assert!(
                                got == cold[i],
                                "{name} {kind} {} qa={}: concurrent memo moved the answer",
                                algo.name(),
                                cells[i]
                            );
                        }
                    });
                }
            });
        }
    }
}

#[test]
fn warm_memo_equals_cold_memo_on_3d_q15() {
    check("3D_Q15", 1);
}

#[test]
fn warm_memo_equals_cold_memo_on_job_q1a() {
    check("JOB_Q1a", 1);
}

#[test]
fn warm_memo_equals_cold_memo_on_4d_q91() {
    check("4D_Q91", 5);
}

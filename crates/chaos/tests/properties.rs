//! Seeded property-style tests: every discovery algorithm, many random
//! fault schedules, three invariants — termination, honest accounting,
//! and exact clean-trace reproduction under a zero-fault schedule.

// A test fails by panicking: unwrap, expect and panic are its asserts.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_chaos::{standard_schedules, sweep, FaultConfig, FaultPlan};
use rqp_core::invariants::check_trace_accounting;
use rqp_core::{
    AlignedBound, Discovery, DiscoveryTrace, NativeOptimizer, PlanBouquet, ReOptimizer, SpillBound,
};
use rqp_ess::EssConfig;
use rqp_workloads::Workload;

fn algorithms() -> Vec<Box<dyn Discovery>> {
    vec![
        Box::new(PlanBouquet::new()),
        Box::new(SpillBound::new()),
        Box::new(AlignedBound::new()),
        Box::new(NativeOptimizer),
        Box::new(ReOptimizer::default()),
    ]
}

/// A canonical rendering of everything that must replay exactly: the
/// human-readable trace plus the bit patterns of the accounted floats.
fn fingerprint(t: &DiscoveryTrace) -> String {
    let bits: Vec<String> = t
        .steps
        .iter()
        .map(|s| format!("{:016x}:{:016x}", s.budget.to_bits(), s.spent.to_bits()))
        .collect();
    format!("{}\n{:016x}\n{}", t.render(), t.total_cost.to_bits(), bits.join(","))
}

#[test]
fn fifty_plus_seeded_schedules_terminate_with_honest_accounting() {
    let w = Workload::q91(2).unwrap();
    let plan = FaultPlan::idle();
    let mut rt = w.runtime(EssConfig { resolution: 8, ..Default::default() }).unwrap();
    rt.set_fault_injector(&plan);
    let grid_cells = [rt.grid().origin(), rt.grid().num_cells() / 2, rt.grid().terminus()];
    let algos = algorithms();

    let mut checked = 0usize;
    for seed in 0..55u64 {
        // alternate single-class and storm schedules across seeds
        let cfg = match seed % 5 {
            0 => FaultConfig::single(seed, "fail", 0.4),
            1 => FaultConfig::single(seed, "spurious_exhaust", 0.4),
            2 => FaultConfig::single(seed, "perturb_cost", 0.4),
            3 => FaultConfig::single(seed, "corrupt_observation", 0.4),
            _ => FaultConfig::storm(seed, 0.3),
        };
        let qa = grid_cells[(seed % 3) as usize];
        for algo in &algos {
            plan.reconfigure(cfg);
            let t = algo.discover(&rt, qa);
            check_trace_accounting(&t)
                .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", algo.name()));
            assert!(
                t.subopt().is_finite() && t.subopt() > 0.0,
                "seed {seed} {}: subopt {}",
                algo.name(),
                t.subopt()
            );
            let completed = t.steps.last().is_some_and(|s| s.completed);
            assert!(
                completed || t.failed(),
                "seed {seed} {}: neither completed nor failed",
                algo.name()
            );
            checked += 1;
        }
    }
    assert!(checked >= 5 * 55);
}

#[test]
fn bouquet_family_survives_a_total_failure_storm() {
    // p_fail = 1.0, uncapped: every injected-engine execution crashes.
    // The supervisor's quarantine → fall-through → clean-last-resort
    // ladder must still complete every bouquet-family discovery.
    let w = Workload::q91(2).unwrap();
    let plan = FaultPlan::idle();
    let mut rt = w.runtime(EssConfig { resolution: 6, ..Default::default() }).unwrap();
    rt.set_fault_injector(&plan);
    let qa = rt.grid().terminus();
    for (i, algo) in
        [&PlanBouquet::new() as &dyn Discovery, &SpillBound::new(), &AlignedBound::new()]
            .into_iter()
            .enumerate()
    {
        plan.reconfigure(FaultConfig::single(1000 + i as u64, "fail", 1.0));
        let t = algo.discover(&rt, qa);
        assert!(t.steps.last().is_some_and(|s| s.completed), "{} did not complete", algo.name());
        assert!(!t.failed(), "{} reported structured failure", algo.name());
        assert!(t.faulted_steps() > 0, "{} saw no faults under p_fail=1", algo.name());
        check_trace_accounting(&t).unwrap();
    }
}

#[test]
fn zero_fault_schedules_reproduce_the_clean_trace_byte_for_byte() {
    let w = Workload::q91(2).unwrap();
    let plan = FaultPlan::idle();
    let mut rt = w.runtime(EssConfig { resolution: 8, ..Default::default() }).unwrap();
    let cells = [rt.grid().origin(), rt.grid().num_cells() / 2, rt.grid().terminus()];

    // clean pass: no injector attached at all
    let mut clean = Vec::new();
    for algo in &algorithms() {
        for &qa in &cells {
            clean.push(fingerprint(&algo.discover(&rt, qa)));
        }
    }

    // quiet pass: injector attached but zero-rate
    rt.set_fault_injector(&plan);
    plan.reconfigure(FaultConfig::quiet(123));
    let mut quiet = Vec::new();
    for algo in &algorithms() {
        for &qa in &cells {
            quiet.push(fingerprint(&algo.discover(&rt, qa)));
        }
    }

    assert_eq!(clean.len(), quiet.len());
    for (c, q) in clean.iter().zip(&quiet) {
        assert_eq!(c, q, "quiet-injector trace diverged from the clean trace");
    }
    assert_eq!(plan.counts().total(), 0);
}

#[test]
fn the_standard_sweep_passes_its_own_invariants() {
    let w = Workload::q91(2).unwrap();
    let plan = FaultPlan::idle();
    let mut rt = w.runtime(EssConfig { resolution: 6, ..Default::default() }).unwrap();
    rt.set_fault_injector(&plan);
    let cells = [rt.grid().terminus()];
    let schedules = standard_schedules(2024, 0.35);
    let report = sweep(&rt, &plan, &cells, &schedules).unwrap();
    // 6 schedules × 5 algorithms × 1 cell
    assert_eq!(report.runs.len(), 30);
    assert!(report.total_faults() > 0, "sweep injected nothing");
    let rendered = report.render();
    assert!(rendered.contains("PB"));
    assert!(rendered.contains("storm"));
}

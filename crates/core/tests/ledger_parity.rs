//! Counter/event parity: the metrics one `discover` call moves must match
//! the trace it returns, for every discovery algorithm, on clean runs and
//! under a fault source that exhausts every retry.
//!
//! The discovery counters and the event sink are process-global, so this
//! binary holds exactly one test.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder};
use rqp_core::invariants::check_trace_accounting;
use rqp_core::{
    AlignedBound, Discovery, DiscoveryTrace, NativeOptimizer, PlanBouquet, ReOptimizer,
    RobustRuntime, SpillBound,
};
use rqp_ess::EssConfig;
use rqp_executor::{FaultInjector, InjectedFault, Seam};
use rqp_obs::{names, Event, EventSink};
use rqp_qplan::CostModel;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// The introduction's example query EQ: two error-prone join predicates.
fn example_2d() -> (Catalog, Query) {
    let rel = |name, rows| RelationBuilder::new(name, rows);
    let catalog = CatalogBuilder::new()
        .relation(
            rel("part", 2_000_000)
                .indexed_column("p_partkey", 2_000_000, 8)
                .column("p_price", 50_000, 8)
                .build(),
        )
        .relation(
            rel("lineitem", 60_000_000)
                .indexed_column("l_partkey", 2_000_000, 8)
                .indexed_column("l_orderkey", 15_000_000, 8)
                .build(),
        )
        .relation(rel("orders", 15_000_000).indexed_column("o_orderkey", 15_000_000, 8).build())
        .build();
    let query = QueryBuilder::new(&catalog, "EQ")
        .table("part")
        .table("lineitem")
        .table("orders")
        .epp_join("part", "p_partkey", "lineitem", "l_partkey")
        .epp_join("orders", "o_orderkey", "lineitem", "l_orderkey")
        .filter("part", "p_price", 0.05)
        .build()
        .unwrap();
    (catalog, query)
}

/// Counts events by name.
#[derive(Default)]
struct Tally(Mutex<BTreeMap<String, u64>>);

impl EventSink for Tally {
    fn record(&self, event: &Event) {
        *self.0.lock().unwrap().entry(event.name.clone()).or_default() += 1;
    }
}

impl Tally {
    fn take(&self) -> BTreeMap<String, u64> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }
}

/// Strikes every execution dead, so supervision runs out of retries.
struct AlwaysFail;

impl FaultInjector for AlwaysFail {
    fn inject(&self, _seam: Seam) -> Option<InjectedFault> {
        Some(InjectedFault::Fail { spent_frac: 0.5 })
    }
}

fn counter(base: &str, algo: &str) -> u64 {
    rqp_obs::global().counter(&rqp_obs::labeled(base, &[("algo", algo)])).get()
}

/// The discovery counters of `algo`: runs, steps, completed, failures.
fn counters(algo: &str) -> [u64; 4] {
    [
        counter(names::DISCOVERY_RUNS, algo),
        counter(names::DISCOVERY_STEPS, algo),
        counter(names::DISCOVERY_COMPLETED, algo),
        counter(names::DISCOVERY_STRUCTURED_FAILURES, algo),
    ]
}

/// Samples in `algo`'s band-latency histogram: one per `contour_band` span.
fn band_samples(algo: &str) -> u64 {
    let name = rqp_obs::labeled(names::DISCOVERY_BAND_SECONDS, &[("algo", algo)]);
    rqp_obs::global().histogram(&name, &rqp_obs::default_latency_buckets()).count()
}

/// Run one discovery and check that the counters and events it moved
/// match its trace.
fn check(algo: &dyn Discovery, rt: &RobustRuntime<'_>, qa: usize, tally: &Tally) -> DiscoveryTrace {
    let name = algo.name();
    let before = counters(name);
    tally.take();
    let trace = algo.discover(rt, qa);
    let after = counters(name);
    let events = tally.take();
    let ctx = format!("{name} at cell {qa}");
    check_trace_accounting(&trace).unwrap();
    let completed = trace.steps.last().is_some_and(|s| s.completed);
    let want = [1, trace.steps.len() as u64, completed.into(), trace.failed().into()];
    let moved: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(moved, want, "{ctx}: counters (runs, steps, completed, failures)");
    let count = |kind: &str| events.get(kind).copied().unwrap_or(0);
    let learning = trace.steps.iter().filter(|s| s.learned.is_some()).count() as u64;
    assert_eq!(count(names::EV_LEARNED_SELECTIVITY), learning, "{ctx}: learned_selectivity");
    assert_eq!(count(names::EV_DISCOVERY_COMPLETE), 1, "{ctx}: discovery_complete");
    assert_eq!(count(names::EV_DISCOVERY_FAILED), u64::from(trace.failed()), "{ctx}");
    trace
}

#[test]
fn one_discovery_moves_the_counters_its_trace_records() {
    let (catalog, query) = example_2d();
    let faults = AlwaysFail;
    let config = EssConfig { resolution: 8, min_sel: 1e-6, ..Default::default() };
    let mut rt = RobustRuntime::compile(&catalog, &query, CostModel::default(), config).unwrap();
    let tally = Arc::new(Tally::default());
    rqp_obs::set_sink(Arc::clone(&tally) as Arc<dyn EventSink>);

    let anorexic = PlanBouquet::anorexic(&rt, 0.2).unwrap();
    let algos: [&dyn Discovery; 6] = [
        &SpillBound::new(),
        &AlignedBound::new(),
        &anorexic,
        &PlanBouquet::new(),
        &NativeOptimizer,
        &ReOptimizer::default(),
    ];
    let grid = rt.grid();
    let terminus = grid.terminus();
    let cells = [grid.origin(), grid.num_cells() / 2, terminus];

    let mut learnt = BTreeMap::new();
    for &algo in &algos {
        for &qa in &cells {
            let samples = band_samples(algo.name());
            let t = check(algo, &rt, qa, &tally);
            assert!(t.failure.is_none(), "{}: a clean run fails", algo.name());
            // one contour_band span per band the walk ran steps on; the
            // single-plan baselines walk no bands
            let walked: BTreeSet<usize> = t.steps.iter().map(|s| s.band).collect();
            let want = if matches!(algo.name(), "Native" | "ReOpt") { 0 } else { walked.len() };
            let moved = band_samples(algo.name()) - samples;
            assert_eq!(moved, want as u64, "{} at cell {qa}: band-seconds samples", algo.name());
            *learnt.entry(algo.name()).or_insert(0) +=
                t.steps.iter().filter(|s| s.learned.is_some()).count();
        }
    }
    for name in ["SB", "AB", "ReOpt"] {
        assert!(learnt[name] > 0, "{name}: no learning step was exercised");
    }

    // every execution dies: retries run out, spills fall back to the last
    // resort, and the single-plan baselines end in structured failures
    rt.set_fault_injector(&faults);
    for &algo in &algos {
        let t = check(algo, &rt, terminus, &tally);
        assert!(t.faulted_steps() > 0, "{}: the fault source never struck", algo.name());
        if matches!(algo.name(), "Native" | "ReOpt") {
            assert!(t.failed(), "{}: exhausted retries must fail the run", algo.name());
        }
    }
    rqp_obs::clear_sink();
}

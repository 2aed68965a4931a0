//! Stress tests for the serving layer: single-flight compilation under
//! heavy contention, non-blocking admission control at queue saturation,
//! and session-level determinism — a discovery trace must be
//! byte-identical whether the session runs alone or alongside 16 peers
//! hammering the same shared registry.

// A test fails by panicking: unwrap, expect and panic are its asserts.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_catalog::RqpError;
use rqp_chaos::FaultConfig;
use rqp_serve::{serve_workload, Lookup, ServeConfig, Server, SessionOutcome, SessionSpec};
use rqp_workloads::parse_session_file;

#[test]
fn sixteen_simultaneous_sessions_compile_exactly_once() {
    let server =
        Server::start(ServeConfig { workers: 16, queue_cap: 16, ..ServeConfig::default() })
            .unwrap();
    for id in 0..16 {
        server.submit(SessionSpec::new(id, "2D_Q91", "sb")).unwrap();
    }
    let report = server.drain();
    assert_eq!(report.completed(), 16, "{}", report.render());
    assert_eq!(report.registry.compiles, 1, "single-flight: one compile for one fingerprint");
    assert_eq!(report.registry.entries, 1);
    let compiled = report.count(|r| r.lookup == Some(Lookup::Compiled));
    assert_eq!(compiled, 1, "exactly one session ran the compile");
    let shared = report.count(|r| matches!(r.lookup, Some(Lookup::Hit) | Some(Lookup::Waited)));
    assert_eq!(shared, 15, "every peer rode the shared surface");
}

#[test]
fn saturated_queue_rejects_with_structured_overload_and_never_deadlocks() {
    // Direct admission: with one worker and a single queue slot, a burst
    // must see at least one structured rejection — and the rejection is an
    // immediate error, not a block.
    let server =
        Server::start(ServeConfig { workers: 1, queue_cap: 1, ..ServeConfig::default() }).unwrap();
    let mut admitted = 0u64;
    let mut rejected = 0u64;
    for id in 0..8 {
        match server.submit(SessionSpec::new(id, "2D_Q91", "sb")) {
            Ok(()) => admitted += 1,
            Err(RqpError::Overloaded { queue_depth, cap }) => {
                assert_eq!(cap, 1);
                assert!(queue_depth >= 1);
                rejected += 1;
            }
            Err(other) => panic!("expected Overloaded, got {other}"),
        }
    }
    assert_eq!(admitted + rejected, 8);
    assert!(rejected >= 1, "a burst of 8 into a 1-slot queue must overflow");
    let report = server.drain();
    assert_eq!(report.completed(), admitted, "every admitted session finished");

    // Driver-level saturation: 64 sessions through workers=2/queue=4 must
    // account for every single one (completed or rejected, nothing lost,
    // no deadlock).
    let entries = parse_session_file("2D_Q91 sb x64\n").unwrap();
    let report = serve_workload(
        ServeConfig { workers: 2, queue_cap: 4, ..ServeConfig::default() },
        &entries,
    )
    .unwrap();
    assert_eq!(report.results.len(), 64);
    assert_eq!(
        report.completed() + report.rejected(),
        64,
        "every session accounted: {}",
        report.render()
    );
    assert_eq!(report.registry.compiles, 1);
}

#[test]
fn traces_are_byte_identical_solo_and_alongside_sixteen_peers() {
    fn run(cfg: ServeConfig, spec: &str) -> rqp_serve::ServeReport {
        let entries = parse_session_file(spec).unwrap();
        serve_workload(cfg, &entries).unwrap()
    }
    let quiet = FaultConfig::quiet(3);
    let solo = run(
        ServeConfig {
            workers: 1,
            queue_cap: 4,
            keep_traces: true,
            chaos: Some(quiet),
            ..ServeConfig::default()
        },
        "2D_Q91 sb x1",
    );
    assert_eq!(solo.completed(), 1);
    let reference = solo.results[0].trace_render.clone().unwrap();

    let crowded = run(
        ServeConfig {
            workers: 8,
            queue_cap: 32,
            keep_traces: true,
            chaos: Some(quiet),
            ..ServeConfig::default()
        },
        "2D_Q91 sb x8\n3D_Q15 ab x4\nJOB_Q1a pb x4\n",
    );
    assert_eq!(crowded.completed(), 16, "{}", crowded.render());
    let probes: Vec<&String> = crowded
        .results
        .iter()
        .filter(|r| r.query == "2D_Q91" && r.algo == "sb")
        .map(|r| r.trace_render.as_ref().unwrap())
        .collect();
    assert_eq!(probes.len(), 8);
    for render in probes {
        assert_eq!(
            render, &reference,
            "a session's trace must not depend on its 16 concurrent peers"
        );
    }
}

#[test]
fn lazy_serving_single_flights_the_anchors_and_matches_eager_costs() {
    let entries = parse_session_file("2D_Q91 sb x8\n").unwrap();
    let eager = serve_workload(
        ServeConfig { workers: 4, queue_cap: 16, keep_traces: true, ..ServeConfig::default() },
        &entries,
    )
    .unwrap();
    let lazy = serve_workload(
        ServeConfig {
            workers: 4,
            queue_cap: 16,
            keep_traces: true,
            lazy: true,
            ..ServeConfig::default()
        },
        &entries,
    )
    .unwrap();
    assert_eq!(eager.completed(), 8, "{}", eager.render());
    assert_eq!(lazy.completed(), 8, "{}", lazy.render());
    assert_eq!(lazy.registry.compiles, 1, "one anchor-only begin for one fingerprint");
    let shared = lazy.count(|r| matches!(r.lookup, Some(Lookup::Hit) | Some(Lookup::Waited)));
    assert_eq!(shared, 7, "every peer rode the shared anytime surface");
    // Plan ids are surface-relative (flood order vs cell-index order), so
    // traces are compared numerically across modes: identical accounted
    // costs, executions and suboptimality — and bitwise among lazy peers,
    // who share one frontier.
    let e0 = &eager.results[0];
    let reference = lazy.results[0].trace_render.as_ref().unwrap();
    for r in &lazy.results {
        assert_eq!(r.subopt, e0.subopt, "lazy serving must not change suboptimality");
        assert_eq!(r.steps, e0.steps);
        assert_eq!(r.total_cost, e0.total_cost);
        assert_eq!(
            r.trace_render.as_ref().unwrap(),
            reference,
            "peers on one shared frontier must trace identically"
        );
    }
}

#[test]
fn storm_chaos_hits_sessions_but_never_poisons_the_shared_registry() {
    let entries = parse_session_file("2D_Q91 sb x8\n2D_Q91 pb x8\n").unwrap();
    let report = serve_workload(
        ServeConfig {
            workers: 8,
            queue_cap: 16,
            chaos: Some(FaultConfig::storm(9, 0.5)),
            ..ServeConfig::default()
        },
        &entries,
    )
    .unwrap();
    // The bouquet family is supervised: storms slow sessions down but
    // cannot make them fail, and the shared surface stays intact (one
    // compile, finite suboptimality everywhere).
    assert_eq!(report.completed(), 16, "{}", report.render());
    assert_eq!(report.registry.compiles, 1);
    assert_eq!(report.non_finite_subopts(), 0);
    for r in &report.results {
        assert_eq!(r.outcome, SessionOutcome::Completed, "session {} ended {:?}", r.id, r.outcome);
    }
}

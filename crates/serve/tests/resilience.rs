//! End-to-end resilience tests: circuit-breaker recovery with pinned
//! transition sequences, graceful degradation, the crash-recovery and
//! chaos-storm drills, and quiet-schedule determinism.

// A test fails by panicking: unwrap, expect and panic are its asserts.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_chaos::CompileFaultConfig;
use rqp_serve::registry::BreakerPhase;
use rqp_serve::{
    crash_recover_drill, serve_workload, storm_drill, BreakerConfig, ServeConfig, Server,
    SessionOutcome, SessionSpec,
};
use rqp_workloads::SessionEntry;
use std::time::Duration;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rqp-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast_config() -> ServeConfig {
    ServeConfig { workers: 2, queue_cap: 64, resolution: Some(6), ..ServeConfig::default() }
}

/// A deterministically transient compile fault (exactly one structured
/// failure, then quiet) must walk the breaker through the exact
/// open → half_open → closed sequence and leave later sessions served.
#[test]
fn a_transient_compile_fault_recovers_with_exact_breaker_transitions() {
    let config = ServeConfig {
        compile_chaos: Some(CompileFaultConfig {
            max_faults: Some(1),
            ..CompileFaultConfig::single(11, "fail", 1.0)
        }),
        breaker: BreakerConfig {
            backoff_base: Duration::from_millis(30),
            backoff_max: Duration::from_millis(30),
        },
        ..fast_config()
    };
    let server = Server::start(config).unwrap();

    // Session 0: the injected failure opens the breaker.
    server.submit(SessionSpec::new(0, "2D_Q91", "sb")).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let states = server.breaker_states();
    assert_eq!(states.len(), 1, "{states:?}");
    assert_eq!(states[0].phase, BreakerPhase::Open, "{states:?}");
    assert_eq!(states[0].failures, 1);

    // Session 1, past the backoff window: the half-open re-probe compiles
    // cleanly (the fault budget is spent) and closes the breaker.
    server.submit(SessionSpec::new(1, "2D_Q91", "sb")).unwrap();
    std::thread::sleep(Duration::from_millis(600));
    let states = server.breaker_states();
    assert_eq!(states.len(), 1, "{states:?}");
    assert_eq!(states[0].phase, BreakerPhase::Closed, "{states:?}");

    let labels: Vec<&'static str> =
        server.breaker_transitions().iter().map(|(_, p)| p.label()).collect();
    assert_eq!(labels, vec!["open", "half_open", "closed"], "exact transition sequence");

    let stats = server.registry_stats();
    assert_eq!(stats.breaker_opens, 1, "{stats:?}");
    assert_eq!(stats.breaker_reprobes, 1, "{stats:?}");
    assert_eq!(stats.breaker_closes, 1, "{stats:?}");

    let report = server.drain();
    let by_id = |id: usize| report.results.iter().find(|r| r.id == id).unwrap();
    assert!(
        matches!(by_id(0).outcome, SessionOutcome::Failed(_)),
        "first session carries the injected failure: {:?}",
        by_id(0).outcome
    );
    assert_eq!(by_id(1).outcome, SessionOutcome::Completed, "re-probe session is served");
}

/// With `degrade` on, sessions refused by an open breaker are served by
/// the native optimizer instead — flagged, counted, with a finite
/// suboptimality — and with `degrade` off they fail structurally.
#[test]
fn an_open_breaker_degrades_gracefully_when_configured() {
    // Every compile fails forever; the long backoff keeps the breaker
    // open for the whole test.
    let chaos = CompileFaultConfig::single(23, "fail", 1.0);
    let breaker = BreakerConfig {
        backoff_base: Duration::from_secs(30),
        backoff_max: Duration::from_secs(30),
    };
    let entries =
        [SessionEntry { query: "2D_Q91".to_string(), algo: "sb".to_string(), count: 4, qa: None }];

    let degraded_report = serve_workload(
        ServeConfig {
            workers: 1, // serialize: first session opens the breaker
            compile_chaos: Some(chaos),
            breaker,
            degrade: true,
            ..fast_config()
        },
        &entries,
    )
    .unwrap();
    assert_eq!(
        degraded_report.count(|r| matches!(r.outcome, SessionOutcome::Failed(_))),
        1,
        "{}",
        degraded_report.render()
    );
    assert_eq!(degraded_report.degraded(), 3, "{}", degraded_report.render());
    for r in degraded_report.results.iter().filter(|r| r.outcome == SessionOutcome::Degraded) {
        let subopt = r.subopt.expect("degraded sessions report their suboptimality");
        assert!(subopt.is_finite() && subopt >= 1.0 - 1e-9, "subopt {subopt}");
    }
    let groups = degraded_report.group_stats();
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].degraded, 3, "group rows surface the degraded count");

    let refused_report = serve_workload(
        ServeConfig {
            workers: 1,
            compile_chaos: Some(chaos),
            breaker,
            degrade: false,
            ..fast_config()
        },
        &entries,
    )
    .unwrap();
    assert_eq!(refused_report.breaker_refused(), 3, "{}", refused_report.render());
    let groups = refused_report.group_stats();
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].breaker_open, 3, "group rows surface the refusals");
}

/// The crash-recovery drill: zero recompiles after a registry wipe, the
/// global compile counter unchanged, byte-identical reports.
#[test]
fn crash_recovery_drill_restores_from_disk_with_zero_recompiles() {
    let dir = temp_dir("crash");
    let drill = crash_recover_drill(&dir).unwrap();
    assert!(drill.passed(), "{}", drill.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The seeded chaos storm over ≥ 100 sessions: every session's wall stays
/// within deadline + grace, breaker counters stay consistent, and every
/// admitted session ends in a structured outcome.
#[test]
fn storm_drill_holds_the_resilience_bounds() {
    let drill = storm_drill(0xC0FFEE, 120).unwrap();
    assert!(drill.passed(), "{}", drill.render());
}

/// Quiet schedules are deterministic end to end: a run with no chaos and
/// a run with an all-zero-rate chaos schedule render byte-identically
/// (the injector draws nothing from its PRNG stream for quiet classes).
#[test]
fn quiet_schedules_render_byte_identically() {
    let entries = [
        SessionEntry { query: "2D_Q91".to_string(), algo: "sb".to_string(), count: 4, qa: None },
        SessionEntry { query: "2D_Q91".to_string(), algo: "ab".to_string(), count: 2, qa: None },
    ];
    let without_chaos = serve_workload(fast_config(), &entries).unwrap();
    let with_quiet_chaos = serve_workload(
        ServeConfig { compile_chaos: Some(CompileFaultConfig::quiet(99)), ..fast_config() },
        &entries,
    )
    .unwrap();
    assert_eq!(
        without_chaos.stable_render(),
        with_quiet_chaos.stable_render(),
        "quiet chaos arm must be byte-identical to the control arm"
    );
}

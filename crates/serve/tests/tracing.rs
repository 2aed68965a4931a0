//! End-to-end causal-tracing tests over a traced serve run: span nesting
//! (session → compile/wait → step → execution), Chrome-export round-trip
//! through the obs JSON codec, cost accounting (Σ execution `spent` ==
//! session `total_cost`), and the live telemetry endpoint answering
//! `/metrics` while sessions are still in flight.

// A test fails by panicking: unwrap, expect and panic are its asserts.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_obs::{chrome_trace_json, names, JsonValue, SpanKind, SpanRecord};
use rqp_serve::{serve_workload, ServeConfig, Server, SessionSpec};
use rqp_workloads::parse_session_file;
use std::io::{Read, Write};
use std::net::TcpStream;

fn traced_report(spec: &str, workers: usize) -> rqp_serve::ServeReport {
    let entries = parse_session_file(spec).unwrap();
    serve_workload(
        ServeConfig { workers, queue_cap: 64, tracing: true, ..ServeConfig::default() },
        &entries,
    )
    .unwrap()
}

fn find(spans: &[SpanRecord], kind: SpanKind) -> Vec<&SpanRecord> {
    spans.iter().filter(|s| s.kind == kind).collect()
}

#[test]
fn traced_sessions_nest_compile_wait_step_and_execution_under_the_session() {
    let report = traced_report("2D_Q91 sb x8\n", 8);
    assert_eq!(report.completed(), 8, "{}", report.render());

    let mut saw_compile = 0u64;
    let mut saw_wait = 0u64;
    for r in &report.results {
        assert!(!r.spans.is_empty(), "tracing on: session {} must carry spans", r.id);
        let sessions = find(&r.spans, SpanKind::Session);
        assert_eq!(sessions.len(), 1, "one root session span per session");
        let root = sessions[0];
        assert_eq!(root.parent_id, None);
        assert_eq!(root.name, names::SPAN_SESSION);
        assert_eq!(root.lane, r.id as u64, "lane is the session id");

        // Every recorded span belongs to this trace, and every non-root
        // span's parent exists within it.
        for s in &r.spans {
            assert_eq!(s.trace_id, root.trace_id);
            if let Some(p) = s.parent_id {
                assert!(
                    r.spans.iter().any(|c| c.span_id == p),
                    "span {} ({}) has dangling parent {p}",
                    s.span_id,
                    s.name
                );
            } else {
                assert_eq!(s.span_id, root.span_id, "only the session span is a root");
            }
        }

        // Compile or wait sits directly under the session span.
        for c in find(&r.spans, SpanKind::Compile) {
            saw_compile += 1;
            assert_eq!(c.parent_id, Some(root.span_id));
            assert_eq!(c.name, names::SPAN_ESS_COMPILE);
        }
        for w in find(&r.spans, SpanKind::Wait) {
            saw_wait += 1;
            assert_eq!(w.parent_id, Some(root.span_id));
            assert_eq!(w.name, names::SPAN_REGISTRY_WAIT);
        }

        // Every execution span hangs off a discovery step span.
        let execs = find(&r.spans, SpanKind::Execution);
        assert!(!execs.is_empty(), "session {} ran no executions?", r.id);
        for e in &execs {
            let parent = e.parent_id.and_then(|p| r.spans.iter().find(|s| s.span_id == p));
            let parent = parent.unwrap_or_else(|| panic!("execution span without parent"));
            assert_eq!(parent.kind, SpanKind::Step, "execution nests under a step");
        }
    }
    assert_eq!(saw_compile, 1, "single-flight: exactly one compile span across the run");
    assert!(saw_wait >= 1, "8 simultaneous sessions on one fingerprint must produce a wait span");
}

#[test]
fn every_step_span_sits_under_the_span_of_its_own_band() {
    let mut spec = String::new();
    for query in ["3D_Q15", "4D_Q91"] {
        for algo in ["sb", "ab", "pb"] {
            spec.push_str(&format!("{query} {algo} x4\n"));
        }
    }
    let report = traced_report(&spec, 4);
    assert_eq!(report.completed(), 24, "{}", report.render());
    for r in &report.results {
        let steps = find(&r.spans, SpanKind::Step);
        assert!(!steps.is_empty(), "session {} ran no steps?", r.id);
        for s in steps {
            let parent = s.parent_id.and_then(|p| r.spans.iter().find(|c| c.span_id == p));
            let parent = parent.unwrap_or_else(|| panic!("step span without parent"));
            assert_eq!(parent.kind, SpanKind::Contour, "a step nests under a contour_band span");
            assert_eq!(parent.name, names::SPAN_CONTOUR_BAND);
            assert_eq!(
                parent.attr("band"),
                s.attr("band"),
                "session {} ({}): a step is booked to another band's span",
                r.id,
                r.algo
            );
        }
    }
}

#[test]
fn execution_span_spent_sums_to_the_session_total_cost() {
    let report = traced_report("2D_Q91 sb x2\n3D_Q15 pb x2\n", 4);
    assert_eq!(report.completed(), 4, "{}", report.render());
    for r in &report.results {
        let root = find(&r.spans, SpanKind::Session)[0];
        let total = root.attr_f64("total_cost").expect("session span carries total_cost");
        let spent: f64 =
            find(&r.spans, SpanKind::Execution).iter().filter_map(|e| e.attr_f64("spent")).sum();
        let err = (spent - total).abs() / total.max(1.0);
        assert!(
            err < 1e-9,
            "session {}: Σ execution spent {spent} != session total_cost {total}",
            r.id
        );
        assert_eq!(Some(total), r.total_cost, "result and span agree on the total");
    }
}

#[test]
fn chrome_export_round_trips_through_the_obs_codec() {
    let report = traced_report("2D_Q91 sb x2\n", 2);
    let traces: Vec<Vec<SpanRecord>> = report.results.iter().map(|r| r.spans.clone()).collect();
    let doc = rqp_obs::chrome_trace_json_multi(&traces);
    let text = doc.to_json_pretty();
    let parsed = rqp_obs::json::parse(&text).expect("exporter output must reparse");
    let JsonValue::Object(obj) = &parsed else { panic!("expected object") };
    let JsonValue::Array(events) = &obj["traceEvents"] else { panic!("expected traceEvents") };
    let total_spans: usize = traces.iter().map(Vec::len).sum();
    assert_eq!(events.len(), total_spans);
    // Events carry the causal triple in args and a per-session lane.
    let mut lanes = std::collections::BTreeSet::new();
    for ev in events {
        let JsonValue::Object(ev) = ev else { panic!("expected event object") };
        assert_eq!(ev["ph"], JsonValue::Str("X".to_owned()));
        let JsonValue::Object(args) = &ev["args"] else { panic!("expected args") };
        assert!(args.contains_key("trace_id") && args.contains_key("span_id"));
        lanes.insert(format!("{:?}", ev["tid"]));
    }
    assert_eq!(lanes.len(), 2, "one Chrome lane per session");
}

#[test]
fn trace_ids_are_deterministic_across_runs() {
    let a = traced_report("2D_Q91 sb x2\n", 2);
    let b = traced_report("2D_Q91 sb x2\n", 2);
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(ra.id, rb.id);
        let ta = find(&ra.spans, SpanKind::Session)[0].trace_id;
        let tb = find(&rb.spans, SpanKind::Session)[0].trace_id;
        assert_eq!(ta, tb, "same (query, algo, id) must derive the same trace id");
    }
    let t0 = find(&a.results[0].spans, SpanKind::Session)[0].trace_id;
    let t1 = find(&a.results[1].spans, SpanKind::Session)[0].trace_id;
    assert_ne!(t0, t1, "distinct sessions get distinct trace ids");
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn metrics_endpoint_answers_while_sessions_are_in_flight() {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 64,
        tracing: true,
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.telemetry_addr().expect("telemetry endpoint is live");
    for id in 0..8 {
        server.submit(SessionSpec::new(id, "2D_Q91", "sb")).unwrap();
    }
    // Sessions are still compiling/running: the endpoint must answer now.
    let metrics = http_get(addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    assert!(metrics.contains("# TYPE"), "prometheus text exposition: {metrics}");
    let health = http_get(addr, "/healthz");
    assert!(health.contains("\r\n\r\nok\n"), "{health}");
    assert!(health.contains("breakers:"), "health carries the breaker summary: {health}");

    let report = server.drain();
    assert_eq!(report.completed(), 8, "{}", report.render());
    // After the drain the endpoint is down; the traces live in the results.
    assert!(TcpStream::connect(addr).is_err(), "telemetry must stop with the server");
    let rendered = chrome_trace_json(&report.results[0].spans).to_json_pretty();
    assert!(rqp_obs::json::parse(&rendered).is_ok());
}

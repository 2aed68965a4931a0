//! End-to-end tests for the network serving tier: a sharded TCP
//! deployment must be indistinguishable from the in-process server —
//! byte-identical stable reports, the same structured rejections under
//! saturation, the same structured refusal of invalid specs — while
//! refusing hostile wire input without falling over.

// A test fails by panicking: unwrap, expect and panic are its asserts.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_serve::{
    run_entries, serve_workload, session_fingerprint, Frame, FrameObserver, ServeConfig,
    SessionOutcome, TcpServeHost, TcpTransport,
};
use rqp_workloads::parse_session_file;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fast_config() -> ServeConfig {
    ServeConfig { workers: 2, queue_cap: 64, resolution: Some(6), ..ServeConfig::default() }
}

fn bind_shards(n: usize, config: impl Fn() -> ServeConfig) -> (Vec<TcpServeHost>, Vec<String>) {
    let hosts: Vec<TcpServeHost> = (0..n)
        .map(|k| TcpServeHost::bind("127.0.0.1:0", config(), Some((k, n))).unwrap())
        .collect();
    let addrs = hosts.iter().map(|h| h.local_addr().to_string()).collect();
    (hosts, addrs)
}

/// The ISSUE's acceptance bar: a client driving a 2-shard TCP deployment
/// produces a `ServeReport` whose per-(query, algo) MSO/ASO rows are
/// byte-identical (via `stable_render`) to an in-process run of the same
/// workload — and per-step progress streams along the way.
#[test]
fn two_shard_tcp_serving_matches_in_proc_byte_for_byte() {
    let spec = "2D_Q91 sb x3\n2D_Q91 ab x2\n3D_Q15 sb x3\n3D_Q15 ab qa=3 x2\n";
    let entries = parse_session_file(spec).unwrap();
    let local = serve_workload(fast_config(), &entries).unwrap();

    let (hosts, addrs) = bind_shards(2, fast_config);
    let progress = Arc::new(AtomicUsize::new(0));
    let observer: FrameObserver = {
        let progress = Arc::clone(&progress);
        Arc::new(move |frame: &Frame| {
            if matches!(frame, Frame::Progress { .. }) {
                progress.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    let transport = TcpTransport::connect_with(&addrs, Some(6), Some(observer)).unwrap();
    let remote = run_entries(Box::new(transport), &entries).unwrap();

    assert_eq!(
        local.stable_render(),
        remote.stable_render(),
        "remote stable report must be byte-identical to the in-proc one"
    );
    assert!(
        progress.load(Ordering::Relaxed) > 0,
        "per-step discovery progress must stream over the wire"
    );

    // The two fingerprints route to different shards (deterministic: the
    // client and registry hash identically), so each shard served part
    // of the workload — prove the deployment actually sharded.
    let fp2 = session_fingerprint("2D_Q91", Some(6)).unwrap() % 2;
    let fp3 = session_fingerprint("3D_Q15", Some(6)).unwrap() % 2;
    assert_ne!(fp2, fp3, "test workload must span both shards");
    for (k, host) in hosts.into_iter().enumerate() {
        let shard_report = host.stop().unwrap();
        let want: usize = entries
            .iter()
            .filter(|e| session_fingerprint(&e.query, Some(6)).unwrap() % 2 == k as u64)
            .map(|e| e.count)
            .sum();
        assert_eq!(
            shard_report.results.len(),
            want,
            "shard {k} must have served exactly its fingerprints' sessions"
        );
    }
}

/// Queue saturation maps onto wire-level `Reject` frames: the client
/// records structured `Rejected` outcomes, every session is accounted
/// for, and nothing hangs or drops the connection.
#[test]
fn saturation_surfaces_as_structured_rejection_frames() {
    let config = || ServeConfig { workers: 1, queue_cap: 1, ..ServeConfig::default() };
    let (hosts, addrs) = bind_shards(1, config);
    let entries = parse_session_file("2D_Q91 sb x64\n").unwrap();
    let transport = TcpTransport::connect(&addrs, None).unwrap();
    let report = run_entries(Box::new(transport), &entries).unwrap();

    assert_eq!(report.results.len(), 64, "no session may be dropped");
    assert_eq!(
        report.completed() + report.rejected(),
        64,
        "every session ends completed or rejected: {}",
        report.render()
    );
    assert!(report.rejected() >= 1, "64 sessions into a 1-slot queue must overflow at least once");
    for r in &report.results {
        if r.outcome == SessionOutcome::Rejected {
            assert_eq!(r.query, "2D_Q91");
            assert_eq!(r.algo, "sb");
        }
    }
    // The server survives the burst and drains cleanly.
    let server_report = hosts.into_iter().next().unwrap().stop().unwrap();
    assert_eq!(server_report.completed(), report.completed());
}

/// An out-of-range `qa` cell fails structurally — same outcome label,
/// same stable report — whether the spec arrives in-process or as a
/// wire frame.
#[test]
fn out_of_range_qa_is_refused_structurally_local_and_remote() {
    let spec = "2D_Q91 sb qa=9999 x2\n2D_Q91 sb x2\n";
    let entries = parse_session_file(spec).unwrap();

    let local = serve_workload(fast_config(), &entries).unwrap();
    assert_eq!(local.invalid_specs(), 2);
    assert_eq!(local.completed(), 2);
    let refused =
        local.results.iter().find(|r| matches!(r.outcome, SessionOutcome::InvalidSpec(_))).unwrap();
    let SessionOutcome::InvalidSpec(reason) = &refused.outcome else { unreachable!() };
    assert!(reason.contains("out of range"), "{reason}");

    let (hosts, addrs) = bind_shards(1, fast_config);
    let transport = TcpTransport::connect(&addrs, Some(6)).unwrap();
    let remote = run_entries(Box::new(transport), &entries).unwrap();
    assert_eq!(remote.invalid_specs(), 2);
    assert_eq!(
        local.stable_render(),
        remote.stable_render(),
        "structured refusal must render identically local and remote"
    );
    hosts.into_iter().next().unwrap().stop().unwrap();
}

/// A hostile length prefix (4 GiB frame announcement) is refused before
/// any allocation: the connection is cut, and the server keeps serving
/// well-formed clients.
#[test]
fn hostile_length_prefix_drops_the_connection_but_not_the_server() {
    let (hosts, addrs) = bind_shards(1, fast_config);

    let mut evil = std::net::TcpStream::connect(&addrs[0]).unwrap();
    evil.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Consume the server's greeting, then announce a 0xFFFFFFFF-byte frame.
    match rqp_serve::read_frame(&mut evil).unwrap() {
        rqp_serve::WireRead::Frame(Frame::Hello { .. }) => {}
        other => panic!("expected hello, got {other:?}"),
    }
    evil.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
    evil.flush().unwrap();
    // The server answers with a structured error (best effort) and closes;
    // it must never try to honor the 4 GiB allocation.
    let mut saw_close = false;
    for _ in 0..8 {
        match rqp_serve::read_frame(&mut evil) {
            Ok(rqp_serve::WireRead::Frame(Frame::Error { .. })) => {}
            Ok(rqp_serve::WireRead::Closed) | Err(_) => {
                saw_close = true;
                break;
            }
            Ok(other) => panic!("unexpected frame after hostile prefix: {other:?}"),
        }
    }
    assert!(saw_close, "the poisoned connection must be cut");
    drop(evil);

    // A well-formed client on a fresh connection is served normally.
    let entries = parse_session_file("2D_Q91 sb x2\n").unwrap();
    let transport = TcpTransport::connect(&addrs, Some(6)).unwrap();
    let report = run_entries(Box::new(transport), &entries).unwrap();
    assert_eq!(report.completed(), 2, "server must survive the hostile client");
    hosts.into_iter().next().unwrap().stop().unwrap();
}

/// `Frame::Shutdown` releases [`TcpServeHost::run_until_shutdown`] — the
/// deployment control path `rqp connect --shutdown true` relies on.
#[test]
fn shutdown_frame_requests_process_shutdown() {
    let (mut hosts, addrs) = bind_shards(1, fast_config);
    let host = hosts.pop().unwrap();
    assert!(!host.shutdown_requested());
    let (tx, rx) = std::sync::mpsc::channel();
    let mut transport = TcpTransport::connect(&addrs, Some(6)).unwrap();
    std::thread::spawn(move || tx.send(host.run_until_shutdown()).ok());
    transport.send_shutdown().unwrap();
    let report = rx.recv_timeout(Duration::from_secs(10)).expect("run_until_shutdown hung");
    assert!(report.unwrap().results.is_empty());
}

//! Contour decisions are memoised once per published surface: a repeated
//! session on a resident surface computes none afresh, and a surface
//! published anew after a registry wipe starts with an empty memo. The
//! memo counters are process-wide, so this check has a test binary of its
//! own.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_obs::{global, names};
use rqp_serve::{Lookup, ServeConfig, Server, SessionOutcome, SessionSpec, SessionUpdate};

fn misses() -> u64 {
    global().counter(names::CORE_CONTOUR_MEMO_MISSES).get()
}

fn hits() -> u64 {
    global().counter(names::CORE_CONTOUR_MEMO_HITS).get()
}

/// Run one session to its end and return how its surface was looked up.
fn run(server: &Server, id: usize, algo: &str) -> Option<Lookup> {
    let (tx, rx) = std::sync::mpsc::channel();
    let mut spec = SessionSpec::new(id, "3D_Q15", algo);
    spec.qa = Some(777);
    server.submit_with(spec, Some(tx)).unwrap();
    loop {
        if let SessionUpdate::Finished(result) = rx.recv().unwrap() {
            assert_eq!(result.outcome, SessionOutcome::Completed, "session {id}");
            return result.lookup;
        }
    }
}

#[test]
fn resident_surfaces_reuse_their_contour_decisions_until_wiped() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        resolution: Some(10),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut id = 0;
    for algo in ["sb", "ab", "pb"] {
        let before = misses();
        run(&server, id, algo);
        assert!(misses() > before, "{algo}: the first session computes its decisions");
        let (before, hits_before) = (misses(), hits());
        assert_eq!(run(&server, id + 1, algo), Some(Lookup::Hit));
        assert_eq!(misses(), before, "{algo}: a repeated session recomputed a decision");
        assert!(hits() > hits_before, "{algo}: a repeated session reads the memo");
        id += 2;
    }
    server.wipe_registry();
    let before = misses();
    assert_eq!(run(&server, id, "sb"), Some(Lookup::Compiled));
    assert!(misses() > before, "a surface published after a wipe starts with an empty memo");
    server.drain();
}

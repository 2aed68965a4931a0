//! Adversarial-input sweep over the session-file parser: `rqp serve
//! --workload FILE` reads operator-supplied text, so every truncation and
//! single-byte mutation of a session file must parse or fail with a
//! structured `RqpError::Config`, never panic.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_catalog::RqpError;
use rqp_workloads::parse_session_file;

const DOC: &str = "# mixed workload\n2D_Q91 sb x4\n3D_Q15 ab qa=17 x2  # pinned\n\nJOB_Q1a pb\n";

#[test]
fn truncated_and_mutated_session_files_never_panic() {
    assert_eq!(parse_session_file(DOC).unwrap().len(), 3);
    let check = |text: &str, what: &str| {
        if let Err(e) = parse_session_file(text) {
            assert!(matches!(e, RqpError::Config(_)), "{what}: {e:?}");
        }
    };
    for cut in (0..DOC.len()).filter(|&c| DOC.is_char_boundary(c)) {
        check(&DOC[..cut], &format!("prefix of {cut} bytes"));
    }
    // the JSON sweeps' palette plus the session grammar's own delimiters
    for evil in [0x00, 0x1f, b'"', b'\\', b'{', b']', 0x7f, 0xc3, 0xff, b'#', b'\n', b'x', b'='] {
        for i in 0..DOC.len() {
            let mut bytes = DOC.as_bytes().to_vec();
            bytes[i] = evil;
            // files are read as text, so invalid UTF-8 fails at the read
            check(&String::from_utf8_lossy(&bytes), &format!("byte {i} set to {evil:#04x}"));
        }
    }
}

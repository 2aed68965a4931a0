//! Adversarial-input tests for the self-contained JSON codec.
//!
//! `rqp_obs::json` now fronts untrusted network sockets (the serve wire
//! protocol decodes frame payloads with it), so every malformed input —
//! truncation at any byte, single-byte mutation, pathological nesting,
//! over-long tokens, broken escapes, raw invalid UTF-8 — must come back
//! as a structured `JsonError`, never a panic, hang, or unbounded
//! allocation. The sweeps below are deterministic and exhaustive over
//! their input families rather than sampled, so failures reproduce.

// A test fails by panicking: unwrap, expect and panic are its asserts.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_obs::json::{parse, parse_bytes};
use rqp_obs::JsonValue;

/// A representative document exercising every value kind, escapes,
/// surrogate pairs, nested containers, and both integer ranges.
const DOC: &str = concat!(
    r#"{"arr":[1,-2,3.5,1e-3,18446744073709551615,true,false,null],"#,
    r#""obj":{"inner":{"deep":[{"k":"v"}]}},"#,
    r#""str":"tab\tquote\"slash\\unicodeépair😀","#,
    r#""neg":-9223372036854775808}"#
);

#[test]
fn baseline_document_parses() {
    let v = parse(DOC).expect("intact document parses");
    assert_eq!(v["arr"][0], JsonValue::Int(1));
    assert_eq!(v["str"].as_str().map(str::len), Some(33));
}

#[test]
fn truncation_at_every_byte_is_a_structured_error() {
    // Every proper prefix is malformed: either an incomplete value or a
    // bare scalar followed by nothing where the document expects more.
    for cut in 0..DOC.len() {
        if !DOC.is_char_boundary(cut) {
            continue;
        }
        let prefix = &DOC[..cut];
        match parse(prefix) {
            Err(_) => {}
            Ok(v) => panic!("prefix of {cut} bytes unexpectedly parsed: {v:?}"),
        }
    }
}

#[test]
fn single_byte_mutations_never_panic() {
    // Flip each byte through a hostile palette; the result must be a
    // clean Ok (some mutations keep the document valid, e.g. inside a
    // string) or a structured Err — never a panic or abort.
    let bytes = DOC.as_bytes();
    for i in 0..bytes.len() {
        for evil in [0x00u8, 0x1f, b'"', b'\\', b'{', b']', 0x7f, 0xc3, 0xff] {
            let mut mutated = bytes.to_vec();
            mutated[i] = evil;
            let _ = parse_bytes(&mutated);
        }
    }
}

#[test]
fn deep_nesting_is_rejected_not_overflowed() {
    // 10_000 levels would blow the stack in a naive recursive parser;
    // the codec must stop at its depth limit with a structured error.
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let deep = open.repeat(10_000) + &close.repeat(10_000);
        let err = parse(&deep).expect_err("pathological nesting must fail");
        assert!(err.to_string().contains("deep"), "unexpected error: {err}");
    }
}

#[test]
fn just_inside_depth_limit_still_parses() {
    let depth = 128;
    let doc = "[".repeat(depth) + "0" + &"]".repeat(depth);
    parse(&doc).expect("nesting at the documented limit parses");
    let doc = "[".repeat(depth + 1) + "0" + &"]".repeat(depth + 1);
    parse(&doc).expect_err("one level past the limit fails");
}

#[test]
fn over_long_tokens_fail_or_parse_without_hanging() {
    // A 1 MiB digit string is a legal (huge) number for the lexer to
    // chew through; a 1 MiB unterminated string must error at EOF.
    let digits = "9".repeat(1 << 20);
    assert!(parse(&digits).is_err(), "1 MiB of digits overflows every numeric type");
    let mut unterminated = String::with_capacity((1 << 20) + 1);
    unterminated.push('"');
    unterminated.push_str(&"a".repeat(1 << 20));
    let err = parse(&unterminated).expect_err("unterminated string");
    assert!(err.to_string().contains("unterminated") || err.to_string().contains("string"));
}

#[test]
fn a_frame_sized_string_parses_in_linear_time() {
    // A string as long as the largest wire frame (4 MiB) must be copied in
    // runs, not rescanned from the cursor to the end of the input for
    // every character: the quadratic scan held a reader for minutes.
    // 512 bytes, two escapes among them: 8192 chunks make 4 MiB
    let chunk = r#"\\\"abé"#.to_string() + &"abcdefgh".repeat(63);
    let doc = format!("[\"{}\"]", chunk.repeat(8192));
    let started = std::time::Instant::now();
    let v = parse(&doc).expect("a long string document parses");
    let elapsed = started.elapsed();
    let s = v[0].as_str().expect("the element is a string");
    assert_eq!(s.len(), 8192 * 510, "escapes decode to one byte each");
    assert!(s.starts_with(r#"\"abéabcdefgh"#), "escapes decode in place");
    assert!(elapsed < std::time::Duration::from_secs(5), "4 MiB string took {elapsed:?}");
}

#[test]
fn broken_escapes_are_structured_errors() {
    for bad in [
        r#""\x""#,           // unknown escape
        r#""\u12""#,         // truncated \u
        r#""\u12zz""#,       // non-hex \u
        r#""\ud800""#,       // lone high surrogate
        r#""\ude00""#,       // lone low surrogate
        r#""\ud800A""#,      // high surrogate + non-surrogate
        r#""\ud800\ud800""#, // high surrogate twice
        "\"\\",              // escape at EOF
    ] {
        let err = parse(bad).expect_err(bad);
        assert!(err.to_string().contains("byte"), "error should carry an offset: {err}");
    }
}

#[test]
fn raw_invalid_utf8_is_a_structured_error() {
    for bad in [
        &[b'"', 0xff, b'"'][..],
        &[0xc3][..],                         // truncated 2-byte sequence
        &[b'[', 0xed, 0xa0, 0x80, b']'][..], // surrogate encoded as UTF-8
        &[b'{', 0x80, b'}'][..],             // bare continuation byte
    ] {
        let err = parse_bytes(bad).expect_err("invalid UTF-8 must fail");
        assert!(err.to_string().contains("UTF-8"), "unexpected error: {err}");
    }
}

#[test]
fn parse_bytes_matches_parse_on_valid_input() {
    let a = parse(DOC).expect("str parse");
    let b = parse_bytes(DOC.as_bytes()).expect("byte parse");
    assert_eq!(a, b);
}

#[test]
fn control_characters_inside_strings_are_rejected() {
    for c in 0u8..0x20 {
        let doc = [b'"', b'a', c, b'b', b'"'];
        assert!(parse_bytes(&doc).is_err(), "raw control byte {c:#x} must be rejected");
    }
}

//! A small, self-contained JSON codec.
//!
//! The observability artifacts — JSONL events, metrics snapshots, POSP
//! snapshot files — must encode to real JSON and parse back regardless of
//! which `serde_json` the workspace was built against: the offline build
//! environment substitutes a typecheck-only stub whose `to_string`
//! degenerates to `"{}"` and whose `from_str` always errors. This module
//! owns the byte format outright, with no external dependency that can be
//! stubbed out from under it. The POSP snapshot format
//! (`crates/ess/src/snapshot.rs`) and the serve wire frames are built on
//! it, and both carry floats as `f64::to_bits` integers.
//!
//! Numbers are written so that decode(encode(x)) == x:
//!
//! * integers that fit `i64` are canonically [`JsonValue::Int`] (both the
//!   `From` constructors and the parser normalize, so `2u64` and a parsed
//!   `"2"` compare equal);
//! * integers above `i64::MAX` are [`JsonValue::UInt`];
//! * floats are written with Rust's shortest-round-trip formatting (always
//!   containing `.`, `e` or `E`, so they re-parse as floats);
//! * non-finite floats have no JSON representation and encode as `null`
//!   (the same degradation `serde_json` applies). Callers that cannot
//!   afford the loss must encode a sentinel themselves — see
//!   [`crate::MetricsSnapshot`], which round-trips non-finite gauges as
//!   `"Infinity"` / `"-Infinity"` / `"NaN"` strings.

use std::collections::BTreeMap;
use std::fmt;

/// Object representation: sorted keys, deterministic output.
pub type Map = BTreeMap<String, JsonValue>;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer in `i64` range (the canonical integer variant).
    Int(i64),
    /// An integer above `i64::MAX`.
    UInt(u64),
    /// A (finite) float.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object.
    Object(Map),
}

/// A parse or encode failure, with the byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    offset: Option<usize>,
}

impl JsonError {
    /// An error not tied to an input position (encode-side failures).
    pub fn new(msg: impl Into<String>) -> JsonError {
        JsonError { msg: msg.into(), offset: None }
    }

    fn at(msg: impl Into<String>, offset: usize) -> JsonError {
        JsonError { msg: msg.into(), offset: Some(offset) }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} at byte {o}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

macro_rules! from_small_int {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(x: $t) -> JsonValue { JsonValue::Int(x as i64) }
        }
    )*}
}
from_small_int!(i8, i16, i32, i64, isize, u8, u16, u32);

impl From<u64> for JsonValue {
    fn from(x: u64) -> JsonValue {
        match i64::try_from(x) {
            Ok(i) => JsonValue::Int(i),
            Err(_) => JsonValue::UInt(x),
        }
    }
}

impl From<usize> for JsonValue {
    fn from(x: usize) -> JsonValue {
        JsonValue::from(x as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> JsonValue {
        JsonValue::Num(x)
    }
}

impl From<f32> for JsonValue {
    fn from(x: f32) -> JsonValue {
        JsonValue::Num(f64::from(x))
    }
}

impl From<bool> for JsonValue {
    fn from(x: bool) -> JsonValue {
        JsonValue::Bool(x)
    }
}

impl From<&str> for JsonValue {
    fn from(x: &str) -> JsonValue {
        JsonValue::Str(x.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(x: String) -> JsonValue {
        JsonValue::Str(x)
    }
}

static NULL: JsonValue = JsonValue::Null;

impl std::ops::Index<&str> for JsonValue {
    type Output = JsonValue;
    fn index(&self, key: &str) -> &JsonValue {
        match self {
            JsonValue::Object(m) => m.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::Index<usize> for JsonValue {
    type Output = JsonValue;
    fn index(&self, i: usize) -> &JsonValue {
        match self {
            JsonValue::Array(v) => v.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl JsonValue {
    /// The value as `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Num(f) => Some(f),
            JsonValue::Int(i) => Some(i as f64),
            JsonValue::UInt(u) => Some(u as f64),
            _ => None,
        }
    }

    /// The value as `u64` (non-negative integer variants).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::Int(i) => u64::try_from(i).ok(),
            JsonValue::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// The value as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            JsonValue::Int(i) => Some(i),
            JsonValue::UInt(u) => i64::try_from(u).ok(),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Compact encoding.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty encoding (two-space indent, like `serde_json`).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        use std::fmt::Write as _;
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Num(f) => write_f64(out, *f),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

/// Shortest-round-trip float formatting. `{:?}` always yields `.`/`e`
/// notation for finite floats (`3.0`, `12.5`, `1e-7`), so the output
/// re-parses as a float, and Rust guarantees parse(format(x)) == x.
fn write_f64(out: &mut String, f: f64) {
    use std::fmt::Write as _;
    if f.is_finite() {
        let _ = write!(out, "{f:?}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
/// Returns [`JsonError`] (with a byte offset) on malformed input, trailing
/// garbage, or nesting deeper than 128 levels.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::at("trailing characters after JSON value", p.pos));
    }
    Ok(v)
}

/// Parse one JSON document from raw bytes (e.g. a framed network payload).
///
/// Network input is not guaranteed to be UTF-8, so the decode failure is a
/// structured [`JsonError`] (offset = first invalid byte) rather than a
/// caller-side conversion panic. Valid UTF-8 behaves exactly like
/// [`parse`].
///
/// # Errors
/// Returns [`JsonError`] on invalid UTF-8, malformed JSON, trailing
/// garbage, or nesting deeper than 128 levels.
pub fn parse_bytes(bytes: &[u8]) -> Result<JsonValue, JsonError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| JsonError::at("input is not valid UTF-8", e.valid_up_to()))?;
    parse(text)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn consume(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected {:?}", b as char), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::at(format!("expected {word:?}"), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at("nesting too deep", self.pos));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => {
                Err(JsonError::at(format!("unexpected character {:?}", b as char), self.pos))
            }
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(JsonError::at("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.consume(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(JsonError::at("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.consume(b'"')?;
        let mut out = String::new();
        let start = self.pos;
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(JsonError::at("unterminated string", start));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                // RFC 8259: control characters must arrive escaped; raw
                // ones in network input are a framing/injection smell.
                _ if b < 0x20 => {
                    return Err(JsonError::at(
                        format!("raw control character {b:#04x} in string"),
                        self.pos,
                    ));
                }
                _ => {
                    // copy the whole unescaped run up to the next quote,
                    // backslash or control byte in one slice: those are
                    // ASCII, so the run ends on a char boundary (input is
                    // &str, so valid UTF-8)
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let s = std::str::from_utf8(&self.bytes[self.pos..run])
                        .map_err(|e| JsonError::at("invalid UTF-8", self.pos + e.valid_up_to()))?;
                    out.push_str(s);
                    self.pos = run;
                }
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err(JsonError::at("unterminated escape", self.pos));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => return self.unicode_escape(),
            _ => return Err(JsonError::at(format!("bad escape \\{}", b as char), self.pos - 1)),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let at = self.pos;
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| JsonError::at("truncated \\u escape", at))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError::at("bad \\u escape", at))?;
        self.pos += 4;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // high surrogate: require a following \uXXXX low surrogate
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(JsonError::at("lone high surrogate", at));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(JsonError::at("invalid low surrogate", at));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| JsonError::at("bad surrogate pair", at))
        } else {
            char::from_u32(hi).ok_or_else(|| JsonError::at("bad \\u escape", at))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at("invalid number", start))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|f| f.is_finite())
            .map(JsonValue::Num)
            .ok_or_else(|| JsonError::at(format!("bad number {text:?}"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &JsonValue) -> JsonValue {
        parse(&v.to_json()).expect("round-trip parse")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            JsonValue::Null,
            JsonValue::Bool(true),
            JsonValue::Bool(false),
            JsonValue::Int(0),
            JsonValue::Int(-42),
            JsonValue::Int(i64::MAX),
            JsonValue::Int(i64::MIN),
            JsonValue::UInt(u64::MAX),
            JsonValue::Num(12.5),
            JsonValue::Num(3.0),
            JsonValue::Num(1e-300),
            JsonValue::Num(-0.0),
            JsonValue::Str("".into()),
            JsonValue::Str("hé \"quoted\" \\ line\nbreak\ttab".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "{}", v.to_json());
        }
    }

    #[test]
    fn float_bits_survive_exactly() {
        for f in [1.0 / 3.0, 0.1 + 0.2, f64::MIN_POSITIVE, 1.7976931348623157e308] {
            let JsonValue::Num(back) = roundtrip(&JsonValue::Num(f)) else {
                panic!("float parsed as non-float");
            };
            assert_eq!(back.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        // 3.0 encodes as "3.0", not "3", so the variant survives
        assert_eq!(JsonValue::Num(3.0).to_json(), "3.0");
        assert_eq!(roundtrip(&JsonValue::Num(3.0)), JsonValue::Num(3.0));
    }

    #[test]
    fn integers_normalize_to_int() {
        // From<u64> and the parser agree on the canonical variant
        assert_eq!(JsonValue::from(2u64), JsonValue::Int(2));
        assert_eq!(parse("2").unwrap(), JsonValue::Int(2));
        assert_eq!(parse("18446744073709551615").unwrap(), JsonValue::UInt(u64::MAX));
    }

    #[test]
    fn nested_structures_round_trip() {
        let mut obj = Map::new();
        obj.insert("name".into(), JsonValue::from("serve"));
        obj.insert(
            "latencies".into(),
            JsonValue::Array(vec![
                JsonValue::Num(0.5),
                JsonValue::Num(1.25),
                JsonValue::Null,
                JsonValue::Bool(false),
            ]),
        );
        obj.insert("nested".into(), JsonValue::Object(Map::new()));
        let v = JsonValue::Object(obj);
        assert_eq!(roundtrip(&v), v);
        // pretty form parses back to the same value too
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(JsonValue::Num(f64::INFINITY).to_json(), "null");
        assert_eq!(JsonValue::Num(f64::NAN).to_json(), "null");
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""Aé""#).unwrap(), JsonValue::from("Aé"));
        // surrogate pair: U+1F600
        assert_eq!(parse(r#""😀""#).unwrap(), JsonValue::from("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn malformed_inputs_are_rejected_with_offsets() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated", "{} trailing"] {
            let err = parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?}");
        }
        assert!(parse("nul").unwrap_err().to_string().contains("null"));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).unwrap_err().to_string().contains("deep"));
    }

    #[test]
    fn index_operators_mirror_lookup() {
        let v = parse(r#"{"a":[1,2],"b":{"c":true}}"#).unwrap();
        assert_eq!(v["a"][1], JsonValue::Int(2));
        assert_eq!(v["b"]["c"], JsonValue::Bool(true));
        assert!(v["missing"].is_null());
        assert!(v["a"][9].is_null());
    }
}

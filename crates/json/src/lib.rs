//! `ballfit-json`: the workspace's one JSON codec. The serve wire
//! protocol, the CLI's network files, `trace_diff`, the lint baseline,
//! `ballfit-bench`'s committed artifacts and its `--validate` check all
//! read and write through it.
//!
//! A recursive-descent parser produces a [`JsonValue`] tree, and two
//! writers turn a tree back into text: the canonical compact form
//! ([`fmt::Display`]) for wire messages and trace lines, and
//! [`JsonValue::to_artifact`]'s line layout for committed files. Both
//! share one string escaper and write numbers as their raw tokens.
//! Design points, all in service of the determinism contract:
//!
//! * Numbers keep their **raw token** ([`JsonValue::Num`]). Integer
//!   fields parse losslessly via `str::parse::<u64>` (no float
//!   round-trip, no float comparisons); float fields go through
//!   `str::parse::<f64>`, whose result is a pure function of the token.
//! * Floats enter a tree in Rust's shortest-round-trip `Display` form,
//!   so `write → parse → write` is a fixed point and response logs are
//!   byte-stable across runs and platforms.
//! * Object keys keep insertion order; the *encoder* (not a map)
//!   decides key order, so responses have a fixed key layout.
//! * Parsing never panics: malformed input, oversized nesting, bad
//!   escapes, and trailing garbage all return [`JsonError`].

use std::fmt;

/// Maximum nesting depth the parser accepts. Deeper input is rejected
/// (never a stack overflow) — wire messages are a few levels deep.
const MAX_DEPTH: usize = 64;

/// A JSON value, parsed or built for writing. Numbers carry their token
/// verbatim.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source token (e.g. `"-1.5e3"`).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys in source (or insertion) order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if this is a number whose raw
    /// token is one (`"3"` yes, `"3.0"` and `"-3"` no) — exact by
    /// construction, no float detour.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// The number as a finite `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse::<f64>().ok().filter(|v| v.is_finite()),
            _ => None,
        }
    }

    /// The layout of committed artifacts (`results/*.json`, the lint
    /// baseline), ending in a newline. The top-level object has one key
    /// per line, a non-empty array of objects (rows) has one element per
    /// line, and an object that holds rows has one key per line;
    /// everything else, rows nested inside a row included, is inline with
    /// `", "` and `": "`. Scalars are written as the compact form writes
    /// them, so `parse` then `to_artifact` reproduces an artifact.
    pub fn to_artifact(&self) -> String {
        fn rows(v: &JsonValue) -> bool {
            matches!(v, JsonValue::Arr(items)
                if !items.is_empty() && items.iter().all(|i| matches!(i, JsonValue::Obj(_))))
        }
        fn write(out: &mut String, v: &JsonValue, depth: usize, expand: bool) {
            let (open, close, children): (_, _, Vec<(Option<&String>, &JsonValue)>) = match v {
                JsonValue::Obj(pairs) => {
                    ('{', '}', pairs.iter().map(|(k, v)| (Some(k), v)).collect())
                }
                JsonValue::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
                scalar => {
                    out.push_str(&scalar.to_string());
                    return;
                }
            };
            let lines = expand
                && !children.is_empty()
                && (depth == 0 && matches!(v, JsonValue::Obj(_))
                    || rows(v)
                    || children.iter().any(|(key, child)| key.is_some() && rows(child)));
            let newline = |out: &mut String, depth: usize| {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            };
            out.push(open);
            for (i, (key, child)) in children.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if lines {
                    newline(out, depth + 1);
                } else if i > 0 {
                    out.push(' ');
                }
                if let Some(key) = key {
                    let _ = write_str_literal(out, key);
                    out.push_str(": ");
                }
                write(out, child, depth + 1, lines && key.is_some());
            }
            if lines {
                newline(out, depth);
            }
            out.push(close);
        }
        let mut out = String::new();
        write(&mut out, self, 0, true);
        out.push('\n');
        out
    }
}

/// The canonical compact form: no whitespace, keys in tree order,
/// numbers as their raw token, strings escaped per RFC 8259.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            JsonValue::Num(raw) => f.write_str(raw),
            JsonValue::Str(s) => write_str_literal(f, s),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str_literal(f, key)?;
                    f.write_str(":")?;
                    value.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_str_literal(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

/// An object with keys in the given order.
pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// An array of the given items, in order.
pub fn arr<T: Into<JsonValue>>(items: impl IntoIterator<Item = T>) -> JsonValue {
    JsonValue::Arr(items.into_iter().map(Into::into).collect())
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(v: $t) -> Self {
                JsonValue::Num(v.to_string())
            }
        }
    )*};
}
from_integer!(u32, u64, usize, i64);

/// A finite `f64` in Rust's shortest-round-trip form, a pure function of
/// the bits. Callers validate finiteness at their boundary; a non-finite
/// value here is a bug.
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        debug_assert!(v.is_finite(), "JSON numbers are finite");
        JsonValue::Num(v.to_string())
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

impl<T: Clone + Into<JsonValue>> From<&[T]> for JsonValue {
    fn from(items: &[T]) -> Self {
        arr(items.iter().cloned())
    }
}

/// A point as `[x,y,z]`.
impl From<[f64; 3]> for JsonValue {
    fn from(p: [f64; 3]) -> Self {
        arr(p)
    }
}

/// Why a JSON text failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable cause.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.at)
    }
}

/// Parses one complete JSON value from `text`; trailing non-whitespace
/// is an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError { at: pos, reason: "trailing characters" });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError { at: *pos, reason: "nesting too deep" });
    }
    match bytes.get(*pos) {
        None => Err(JsonError { at: *pos, reason: "unexpected end of input" }),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(JsonError { at: *pos, reason: "unexpected character" }),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError { at: *pos, reason: "invalid literal" })
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError { at: *pos, reason: "expected object key" });
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError { at: *pos, reason: "expected ':'" });
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            _ => return Err(JsonError { at: *pos, reason: "expected ',' or '}'" }),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(JsonError { at: *pos, reason: "expected ',' or ']'" }),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    *pos += 1; // '"'
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError { at: *pos, reason: "unterminated string" }),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = parse_hex4(bytes, pos)?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require \uXXXX for the low half.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err(JsonError { at: *pos, reason: "lone surrogate" });
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(JsonError { at: *pos, reason: "invalid surrogate" });
                            }
                            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(cp)
                                .ok_or(JsonError { at: *pos, reason: "invalid codepoint" })?
                        } else {
                            char::from_u32(hi)
                                .ok_or(JsonError { at: *pos, reason: "invalid codepoint" })?
                        };
                        out.push(c);
                        continue; // parse_hex4 already advanced past the digits
                    }
                    _ => return Err(JsonError { at: *pos, reason: "invalid escape" }),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(JsonError { at: *pos, reason: "control character in string" })
            }
            Some(_) => {
                // Copy one UTF-8 scalar (input is a &str, so boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos])
                        .map_err(|_| JsonError { at: start, reason: "invalid utf-8" })?,
                );
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let Some(hex) = bytes.get(*pos..*pos + 4) else {
        return Err(JsonError { at: *pos, reason: "truncated \\u escape" });
    };
    // Exactly four hex digits: `from_str_radix` alone would accept a sign.
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(JsonError { at: *pos, reason: "bad hex" });
    }
    let s = std::str::from_utf8(hex).map_err(|_| JsonError { at: *pos, reason: "bad hex" })?;
    let v = u32::from_str_radix(s, 16).map_err(|_| JsonError { at: *pos, reason: "bad hex" })?;
    *pos += 4;
    Ok(v)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: one zero, or a nonzero digit run.
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        _ => return Err(JsonError { at: *pos, reason: "invalid number" }),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            return Err(JsonError { at: *pos, reason: "invalid number" });
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            return Err(JsonError { at: *pos, reason: "invalid number" });
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    let raw = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError { at: start, reason: "invalid utf-8" })?;
    Ok(JsonValue::Num(raw.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values_and_keeps_raw_number_tokens() {
        let v = parse(r#"{"op":"create","n":42,"x":-1.5e3,"ok":true,"xs":[1,2,null]}"#).unwrap();
        assert_eq!(v.get("op").and_then(JsonValue::as_str), Some("create"));
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(v.get("x"), Some(&JsonValue::Num("-1.5e3".to_string())));
        assert_eq!(v.get("x").and_then(JsonValue::as_f64), Some(-1500.0));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("xs").and_then(JsonValue::as_arr).map(<[_]>::len), Some(3));
        for ok in [
            "null",
            "true",
            " false ",
            "0",
            "-0",
            "-12.5e3",
            "1e+9",
            r#""a \"quoted\" é string \u00e9 \/""#,
            "[]",
            "{}",
            "[1, 2, [3, {\"k\": null}]]",
            r#"{"meta": {"smoke": true, "nodes": 180}, "cells": [{"loss": 0.1}]}"#,
        ] {
            assert!(parse(ok).is_ok(), "should accept: {ok}");
        }
        let nested = "[".repeat(32) + &"]".repeat(32);
        assert!(parse(&nested).is_ok(), "artifact-depth nesting is fine");
    }

    #[test]
    fn integer_accessor_rejects_floats_and_negatives() {
        let v = parse(r#"{"a":3,"b":3.0,"c":-3}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(JsonValue::as_u64), None);
        assert_eq!(v.get("c").and_then(JsonValue::as_u64), None);
        assert_eq!(v.get("c").and_then(JsonValue::as_f64), Some(-3.0));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\nd\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA😀"));
        assert_eq!(JsonValue::from("a\"b\\c\nd\u{1}").to_string(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a: 1}",
            "tru",
            "nul",
            "01",
            "-",
            "1.",
            "1e",
            ".5",
            "+1",
            "NaN",
            "Infinity",
            "[1, NaN]",
            "\"\\x\"",
            "\"\\u12g4\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"raw\ttab\"",
            "\"unterminated",
            "{\"a\":1} trailing",
            "[1] trailing",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
        for n in [200, 4096] {
            let deep = "[".repeat(n) + &"]".repeat(n);
            assert!(parse(&deep).is_err(), "over-deep balanced nesting must fail");
        }
        assert!(parse(&"[".repeat(4096)).is_err(), "runaway nesting must fail, not overflow");
    }

    #[test]
    fn float_writer_is_shortest_round_trip() {
        for v in [0.0, 1.0, -2.5, 0.1, 1e300, 123456.789] {
            let out = JsonValue::from(v).to_string();
            let back: f64 = out.parse().unwrap();
            assert!((back - v).abs() < f64::MIN_POSITIVE, "{v} -> {out}");
        }
        assert_eq!(JsonValue::from(1.0).to_string(), "1");
    }

    #[test]
    fn writer_is_compact_and_a_fixed_point_of_parse() {
        let tree = obj([
            ("id", "a".into()),
            ("n", JsonValue::from(Some(3u32))),
            ("up", JsonValue::from(None::<usize>)),
            ("ok", true.into()),
            ("p", [0.5, -0.0, 1e21].into()),
            ("xs", JsonValue::from(&[1u64, 2][..])),
            ("e", obj([])),
        ]);
        let line = tree.to_string();
        assert_eq!(
            line,
            r#"{"id":"a","n":3,"up":null,"ok":true,"p":[0.5,-0,1000000000000000000000],"xs":[1,2],"e":{}}"#
        );
        assert_eq!(parse(&line), Ok(tree));
        assert_eq!(arr([1i64, -2]).to_string(), "[1,-2]");
    }

    #[test]
    fn artifact_layout_puts_rows_and_their_holders_on_lines() {
        let kept = || JsonValue::Num("1.0000".to_string());
        let tree = obj([
            ("meta", obj([("note", "say \"hi\" \\ bye".into()), ("tags", arr(["a", "b"]))])),
            (
                "rows",
                arr([
                    obj([("id", "a".into()), ("score", kept()), ("inner", arr([obj([])]))]),
                    obj([("id", "b".into()), ("score", kept()), ("inner", arr::<JsonValue>([]))]),
                ]),
            ),
            ("at_scale", obj([("rows", arr([obj([("n", 2u64.into())])])), ("fit", 0.5.into())])),
            ("empty", arr::<JsonValue>([])),
        ]);
        let text = tree.to_artifact();
        assert_eq!(
            text,
            r#"{
  "meta": {"note": "say \"hi\" \\ bye", "tags": ["a", "b"]},
  "rows": [
    {"id": "a", "score": 1.0000, "inner": [{}]},
    {"id": "b", "score": 1.0000, "inner": []}
  ],
  "at_scale": {
    "rows": [
      {"n": 2}
    ],
    "fit": 0.5
  },
  "empty": []
}
"#
        );
        assert_eq!(parse(&text).map(|v| v.to_artifact()), Ok(text));
    }
}

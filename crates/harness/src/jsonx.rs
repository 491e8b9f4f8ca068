//! The harness's JSON reader and writer: one module owns the format in
//! both directions.
//!
//! The workspace is hermetic (no serde). Every JSON artifact — litmus
//! reports, campaign shard / checkpoint / merged reports, and the
//! `BENCH_*.json` files — is built as a [`Value`] tree and written by
//! [`Value::to_json`]. [`parse`] reads back checkpoints (`--resume`) and
//! shard reports (`litmus_run merge`), strictly enough (trailing garbage,
//! lone surrogates, duplicate keys are errors) that a hand-edited file
//! fails loudly instead of resuming from garbage. Numbers keep their
//! text next to the `f64`, so 64-bit counters and digests survive
//! ([`Value::as_u64`]); objects keep their member order.
//!
//! **Output layout**, the one rule every artifact follows:
//!
//! * a container with no non-empty container among its members is
//!   written on one line (`[1, 2]`, `{"name": "SB", "worker": 0}`); any
//!   other puts each member on its own line, indented two spaces per
//!   level, and closes on its own line; the document ends with a newline;
//! * members are separated by `, ` (one line) or `,` + newline, and
//!   object members are written `"key": value`;
//! * a number is written as its text: an integer exactly (every `u64`
//!   up to `u64::MAX`), a float in Rust's shortest round-trip form (`{}`
//!   of `f64`, never an exponent), a parsed number as it was read, and a
//!   non-finite float as `null`;
//! * strings escape `"`, `\`, newline and tab by name and every other
//!   control character below U+0020 as `\u00XX`; everything else,
//!   non-BMP characters included, is written raw as UTF-8.

use std::fmt::Write as _;

/// A JSON value: parsed by [`parse`], or built by the `From` conversions
/// plus [`Value::obj`]/[`Value::with`] and written by [`Value::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number and its JSON text: the source text when parsed, the
    /// exact (integer) or shortest round-trip (float) decimal when built.
    Num(f64, String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in insertion order (keys are unique).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object, to be filled with [`Value::with`].
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// This object with `key: value` appended (panics on a non-object).
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        debug_assert!(self.get(key).is_none(), "duplicate key {key:?}");
        match &mut self {
            Value::Obj(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("Value::with({key:?}) on a non-object {other:?}"),
        }
        self
    }

    /// The value at `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n, _) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact `u64`, re-parsed from the source text (so
    /// 64-bit digests and counters survive, where `f64` would round).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(_, raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The document text, laid out by the rule in the module docs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (members, close): (Vec<(Option<&String>, &Value)>, char) = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n, raw) => return out.push_str(if n.is_finite() { raw } else { "null" }),
            Value::Str(s) => return write_str(out, s),
            Value::Arr(items) => (items.iter().map(|v| (None, v)).collect(), ']'),
            Value::Obj(fields) => (fields.iter().map(|(k, v)| (Some(k), v)).collect(), '}'),
        };
        out.push(if close == ']' { '[' } else { '{' });
        let multiline = members.iter().any(|(_, v)| match v {
            Value::Arr(items) => !items.is_empty(),
            Value::Obj(fields) => !fields.is_empty(),
            _ => false,
        });
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(if multiline { "," } else { ", " });
            }
            if multiline {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if multiline {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from {
    ($($t:ty => |$x:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $e
            }
        }
    )*};
}

from! {
    u64 => |n| Value::Num(n as f64, n.to_string()),
    usize => |n| Value::Num(n as f64, n.to_string()),
    u32 => |n| Value::Num(f64::from(n), n.to_string()),
    f64 => |n| Value::Num(n, n.to_string()),
    bool => |b| Value::Bool(b),
    &str => |s| Value::Str(s.to_owned()),
    String => |s| Value::Str(s),
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Collects into an array.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields: Vec<(String, Value)> = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Value::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos)?;
                if fields.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate object key {key:?}"));
                }
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Value::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let code = parse_hex4(b, *pos + 1)?;
                                *pos += 4;
                                let code = match code {
                                    // High surrogate: JSON encodes non-BMP
                                    // characters as a \uD800–\uDBFF +
                                    // \uDC00–\uDFFF pair.
                                    0xD800..=0xDBFF => {
                                        if b.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                            return Err("lone high surrogate \\u escape".into());
                                        }
                                        let low = parse_hex4(b, *pos + 3)?;
                                        if !(0xDC00..=0xDFFF).contains(&low) {
                                            return Err(format!(
                                                "high surrogate followed by \\u{low:04X}, \
                                                 not a low surrogate"
                                            ));
                                        }
                                        *pos += 6;
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                    }
                                    0xDC00..=0xDFFF => {
                                        return Err("lone low surrogate \\u escape".into())
                                    }
                                    c => c,
                                };
                                s.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| "bad \\u codepoint".to_string())?,
                                );
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Copy the full UTF-8 sequence starting at `c`.
                        let width = utf8_width(c);
                        let chunk = b
                            .get(*pos..*pos + width)
                            .ok_or("truncated UTF-8 sequence")?;
                        s.push_str(
                            std::str::from_utf8(chunk).map_err(|_| "bad UTF-8".to_string())?,
                        );
                        *pos += width;
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let raw = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_string())?;
            let n: f64 = raw
                .parse()
                .map_err(|_| format!("bad number {raw:?} at byte {start}"))?;
            Ok(Value::Num(n, raw.to_string()))
        }
    }
}

/// Parses the four hex digits of a `\u` escape starting at byte `at`.
fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err("bad \\u escape".into());
    }
    // Infallible after the digit check, but stay on the Result path.
    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn parses_the_shapes_our_reports_use() {
        let v = parse(
            r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": -2.5}, "big": 18446744073709551615}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("b").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\ny")
        );
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-2.5));
        assert_eq!(v.get("big").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap()[1], Value::Null);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{1: 2}").is_err());
        // A duplicated key is ambiguous (which `digest` would a resumed
        // campaign trust?), so it is an error naming the key.
        let err = parse(r#"{"digest": 1, "n": {"a": 1}, "digest": 2}"#).unwrap_err();
        assert!(err.contains("\"digest\""), "{err}");
        assert!(parse(r#"{"a": {"k": 1, "k": 1}}"#).is_err());
    }

    #[test]
    fn decodes_surrogate_pairs_and_raw_non_bmp() {
        // JSON encodes non-BMP characters as UTF-16 surrogate pairs:
        // U+1F600 is \uD83D\uDE00.
        assert_eq!(
            parse("\"\\uD83D\\uDE00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
        // A pair embedded between other escapes and text.
        assert_eq!(
            parse("\"a\\n\\uD83D\\uDE00b\"").unwrap().as_str(),
            Some("a\n\u{1F600}b")
        );
        // BMP escapes still decode directly.
        assert_eq!(parse("\"\\u00e9\"").unwrap().as_str(), Some("\u{e9}"));
        // Raw (unescaped) non-BMP UTF-8 passes through byte-for-byte.
        assert_eq!(parse("\"\u{1F600}\"").unwrap().as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_lone_and_mismatched_surrogates() {
        for bad in [
            "\"\\uD83D\"",        // lone high surrogate at end of string
            "\"\\uD83Dx\"",       // high surrogate followed by plain text
            "\"\\uD83D\\n\"",     // high surrogate followed by another escape
            "\"\\uD83D\\u0041\"", // high surrogate + non-surrogate escape
            "\"\\uDE00\"",        // lone low surrogate
            "\"\\uD83D\\uD83D\"", // high + high
            "\"\\uD83\"",         // truncated hex
            "\"\\u+123\"",        // sign is not a hex digit
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn roundtrips_report_strings_with_non_bmp_characters() {
        // The writer passes non-BMP characters through raw; the reader
        // must accept both that form and the surrogate pair escaped form
        // and produce the identical string.
        let name = "sb+\u{1F600}\u{10348}";
        let raw = Value::obj().with("name", name).to_json();
        assert_eq!(raw, format!("{{\"name\": \"{name}\"}}\n"));
        assert_eq!(
            parse(&raw).unwrap().get("name").unwrap().as_str(),
            Some(name)
        );
        let escaped = "{\"name\": \"sb+\\uD83D\\uDE00\\uD800\\uDF48\"}";
        assert_eq!(
            parse(escaped).unwrap().get("name").unwrap().as_str(),
            Some(name)
        );
    }

    #[test]
    fn json_escaping_handles_quotes_and_newlines() {
        assert_eq!(Value::from("a\"b\\c\nd").to_json(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(Value::from("\u{1}").to_json(), "\"\\u0001\"\n");
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let v: Value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5]
            .into_iter()
            .collect();
        assert_eq!(v.to_json(), "[null, null, null, 0.5]\n");
    }

    #[test]
    fn writes_the_documented_layout() {
        let v = Value::obj()
            .with("n", u64::MAX)
            .with("x", 1.25)
            .with("whole", 3.0)
            .with("none", None::<u64>)
            .with("empty", Value::Arr(vec![]))
            .with("flat", Value::Arr(vec![1u64.into(), "s".into()]))
            .with(
                "rows",
                Value::Arr(vec![Value::obj().with("a", true), Value::obj()]),
            );
        assert_eq!(
            v.to_json(),
            "{\n  \"n\": 18446744073709551615,\n  \"x\": 1.25,\n  \"whole\": 3,\n  \
             \"none\": null,\n  \"empty\": [],\n  \"flat\": [1, \"s\"],\n  \"rows\": [\n    \
             {\"a\": true},\n    {}\n  ]\n}\n"
        );
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn roundtrips_our_own_report_output() {
        use crate::{run_batch, MachineKind, Report};
        let tests = vec![litmus::classic::sb()];
        let (outcomes, elapsed) = run_batch(&tests, 1);
        let report = Report {
            outcomes,
            corpus_total: 1,
            jobs: 1,
            machine: MachineKind::Small,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            baseline_jobs1_ms: None,
            model_cache: Some(tso_model::cache::counters()),
            prefix_cache: Some(tso_model::prefix::counters()),
            store: None,
        };
        let v = parse(&report.to_json()).unwrap();
        assert_eq!(
            v.get("experiment").unwrap().as_str(),
            Some("litmus_harness")
        );
        assert_eq!(v.get("selected").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("passed").unwrap().as_bool(), Some(true));
    }

    /// A random [`Value`] tree, at most three containers deep: `u64`s
    /// biased to the edges (`u64::MAX` included), finite floats from
    /// random bits, booleans, `null`, and strings of arbitrary code
    /// points (control characters, `"`/`\\`, BMP and non-BMP).
    struct AnyValue;

    impl proptest::strategy::Strategy for AnyValue {
        type Value = Value;
        fn generate(&self, rng: &mut TestRng) -> Value {
            any_value(rng, 3)
        }
    }

    fn any_value(rng: &mut TestRng, depth: u32) -> Value {
        let kinds = if depth == 0 { 5 } else { 7 };
        match rng.next_u64() % kinds {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64() & 1 == 1),
            2 => Value::from(
                [u64::MAX, 0, rng.next_u64() % 1000, rng.next_u64()][rng.next_u64() as usize % 4],
            ),
            3 => {
                let f = f64::from_bits(rng.next_u64());
                Value::from(if f.is_finite() { f } else { rng.unit_f64() })
            }
            4 => Value::Str(any_string(rng)),
            5 => (0..rng.next_u64() % 4)
                .map(|_| any_value(rng, depth - 1))
                .collect(),
            _ => {
                let mut obj = Value::obj();
                for _ in 0..rng.next_u64() % 4 {
                    let key = any_string(rng);
                    if obj.get(&key).is_none() {
                        obj = obj.with(&key, any_value(rng, depth - 1));
                    }
                }
                obj
            }
        }
    }

    fn any_string(rng: &mut TestRng) -> String {
        (0..rng.next_u64() % 6)
            .map(|_| {
                let code = match rng.next_u64() % 4 {
                    0 => rng.next_u64() % 0x20,
                    1 => [u64::from(b'"'), u64::from(b'\\'), 0x7f][(rng.next_u64() % 3) as usize],
                    2 => rng.next_u64() % 0x1_0000,
                    _ => 0x1_0000 + rng.next_u64() % 0x10_0000,
                };
                // Surrogate code points are not chars.
                char::from_u32(code as u32).unwrap_or('\u{FFFD}')
            })
            .collect()
    }

    proptest! {
        #[test]
        fn serialized_values_parse_back_equal(v in AnyValue) {
            prop_assert_eq!(parse(&v.to_json()).unwrap(), v);
        }
    }
}

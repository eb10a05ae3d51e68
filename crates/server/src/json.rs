//! A minimal JSON value type with a reader and two writers, shared by the
//! wire protocol, the `ctxform-client` loadgen artifact, and the
//! `regress` bench harness (which previously hand-rolled its escaping and
//! number formatting inline).
//!
//! The build environment is offline — no serde — so this module is the
//! one place the workspace turns structured data into JSON text and back.
//! Objects preserve insertion order (they are vectors of pairs), which
//! keeps the `BENCH_<n>.json` trajectory artifacts diffable.

use std::fmt;

/// A JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; written without a trailing `.0` when
    /// integral).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from an ordered list of `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer-valued number (exact for |n| ≤ 2⁵³, far beyond any count
    /// this workspace produces).
    pub fn int(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// An integer-valued number from a `u64` counter.
    pub fn uint(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// A millisecond quantity rounded to 3 decimals (the formatting the
    /// bench trajectory has always used for `time_ms` fields).
    pub fn ms(v: f64) -> Json {
        Json::Num((v * 1000.0).round() / 1000.0)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes on one line (the wire format: one value per line).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation (the artifact format).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses one JSON value, requiring it to span the whole input (aside
    /// from surrounding whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the byte offset of the first problem.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(input, bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                offset: pos,
                message: "trailing characters after value".into(),
            });
        }
        Ok(value)
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

/// Writes `n` in the canonical style: integers without a decimal point,
/// everything else via the shortest round-trip representation.
fn write_number(out: &mut String, n: f64) {
    use fmt::Write as _;
    if !n.is_finite() {
        // JSON has no NaN/∞; `null` is the conventional downgrade.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` as a quoted JSON string, escaping the two mandatory
/// characters plus control bytes (the escaping `regress` previously
/// skipped because benchmark names happened to be tame).
pub fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write as _;
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

/// A 16-digit zero-padded hex rendering of a digest (the `ci_digest`
/// formatting of the bench trajectory, and the wire format for program
/// database keys).
pub fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

/// A malformed-JSON diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(input: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(input, bytes, pos),
        Some(b'[') => parse_array(input, bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(input, bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(input, bytes, pos),
        Some(c) => Err(err(*pos, format!("unexpected character `{}`", *c as char))),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected `{word}`")))
    }
}

fn parse_number(input: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    input[start..*pos]
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, format!("invalid number `{}`", &input[start..*pos])))
}

fn parse_string(input: &str, bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one piece.
        // Both are ASCII, so the run starts and ends on char boundaries.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| err(bytes.len(), "unterminated string"))?;
        out.push_str(&input[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        let Some(&esc) = bytes.get(*pos) else {
            return Err(err(*pos, "unterminated escape"));
        };
        *pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hex = input
                    .get(*pos..*pos + 4)
                    .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| err(*pos, format!("bad \\u escape `{hex}`")))?;
                *pos += 4;
                // Surrogate pairs are not produced by this writer; lone
                // surrogates decode to the replacement char.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            other => return Err(err(*pos, format!("unknown escape `\\{}`", other as char))),
        }
    }
}

fn parse_array(input: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(input, bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]` in array")),
        }
    }
}

fn parse_object(input: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected string key"));
        }
        let key = parse_string(input, bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected `:` after key"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(input, bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err(*pos, "expected `,` or `}` in object")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Json::obj([
            ("name", Json::str("box \"1\"\n")),
            ("count", Json::int(42)),
            ("time_ms", Json::ms(1.23456)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj([("k", Json::int(0))])),
        ]);
        for text in [v.to_line(), v.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn numbers_write_canonically() {
        assert_eq!(Json::int(7).to_line(), "7");
        assert_eq!(Json::ms(1.23456).to_line(), "1.235");
        assert_eq!(Json::Num(-0.5).to_line(), "-0.5");
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
    }

    #[test]
    fn escaping_covers_quotes_and_control_bytes() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\n\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\u0001\"");
        let back = Json::parse(&out).unwrap();
        assert_eq!(back.as_str().unwrap(), "a\"b\\c\n\u{1}");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "{", "{\"a\":}", "[1,]", "tru", "\"open", "1 2", "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// `s` written as a JSON string and parsed back.
    fn string_round_trip(s: &str) -> String {
        let mut text = String::new();
        write_escaped(&mut text, s);
        match Json::parse(&text) {
            Ok(Json::Str(back)) => back,
            other => panic!("{text:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn strings_round_trip_escapes_and_multibyte_text_at_run_edges() {
        for s in [
            "",
            "plain",
            "\"",
            "\\",
            "é",
            "é\n",
            "\né",
            "\"日本\"",
            "🦀\\🦀",
            "a\tb\u{1}c\u{1f}",
            "\n\n\n",
            "ends with é",
        ] {
            assert_eq!(string_round_trip(s), s);
        }
        // Escapes the writer never produces.
        let parsed = Json::parse(r#""\/\b\f\u00e9\u0041x\ud800""#).unwrap();
        assert_eq!(parsed.as_str(), Some("/\u{8}\u{c}éAx\u{fffd}"));
    }

    #[test]
    fn a_large_source_round_trips() {
        let cfg = ctxform_synth::preset("antlr").unwrap().scale_driver(20);
        let source = ctxform_synth::generate(&cfg) + "// ünïcödé 🦀 \"quoted\" \\ end\n";
        assert!(source.len() > 200_000);
        assert_eq!(string_round_trip(&source), source);
    }

    #[test]
    fn broken_strings_are_typed_errors() {
        for (bad, offset, message) in [
            ("\"open", 5, "unterminated string"),
            ("\"é", 3, "unterminated string"),
            ("\"ab\\", 4, "unterminated escape"),
            ("\"ab\\q\"", 5, "unknown escape `\\q`"),
            ("\"\\u12\"]", 3, "bad \\u escape `12\"]`"),
            ("\"\\u1", 3, "truncated \\u escape"),
            ("\"\\uzzzz\"", 3, "bad \\u escape `zzzz`"),
        ] {
            assert_eq!(
                Json::parse(bad),
                Err(JsonError {
                    offset,
                    message: message.into()
                }),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Json::parse("{\"a\": {\"b\": [1, \"x\", true]}}").unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn hex16_pads_to_sixteen_digits() {
        assert_eq!(hex16(0xabc), "0000000000000abc");
        assert_eq!(hex16(u64::MAX), "ffffffffffffffff");
    }
}

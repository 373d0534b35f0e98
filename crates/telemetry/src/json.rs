//! A minimal JSON value, writer and parser.
//!
//! The workspace builds fully offline with no `serde_json`, and the
//! vendored `serde` stand-in generates no code, so this module is the
//! workspace's one JSON codec. It covers exactly what sinks and manifests
//! need: objects with string keys, arrays, finite numbers, strings,
//! booleans and null. Non-finite numbers serialize as `null` (JSON has no NaN), which a
//! manifest diff surfaces as an anomaly instead of a parse error.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
///
/// Object keys are kept in a [`BTreeMap`] so rendering is deterministic —
/// two manifests with the same content are byte-identical, which is what
/// makes benchmark trajectories diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite double (non-finite values render as `null`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with deterministically ordered keys.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn object(pairs: Vec<(String, Json)>) -> Json {
        Json::Object(pairs.into_iter().collect())
    }

    /// The value at `key`, when this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact single-line JSON (the JSONL sink's format).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = self.render_into(&mut out, None, 0);
        out
    }

    /// Renders with two-space indentation (the manifest file format).
    /// The text is allocated once up front, sized from
    /// [`min_len`](Json::min_len) plus an eighth for the indentation and
    /// numbers it leaves out, so a checkpoint-sized document is never
    /// copied by a growing buffer.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let min_len = self.min_len();
        let mut out = String::with_capacity(min_len + min_len / 8);
        let _ = self.render_into(&mut out, Some(2), 0);
        out
    }

    /// A lower bound on the rendered length in either layout: strings
    /// and keys unescaped, a byte per scalar, no indentation.
    fn min_len(&self) -> usize {
        let commas = |n: usize| n.saturating_sub(1);
        match self {
            Json::Null | Json::Bool(_) | Json::Number(_) => 1,
            Json::String(s) => s.len() + 2,
            Json::Array(items) => {
                2 + commas(items.len()) + items.iter().map(Json::min_len).sum::<usize>()
            }
            Json::Object(map) => {
                2 + commas(map.len())
                    + map
                        .iter()
                        .map(|(key, value)| key.len() + 3 + value.min_len())
                        .sum::<usize>()
            }
        }
    }

    /// The one renderer behind [`render`](Json::render),
    /// [`render_pretty`](Json::render_pretty) and `Display`: streams into
    /// any `fmt::Write` sink, so large documents need not exist as one
    /// string first.
    fn render_into(
        &self,
        out: &mut impl fmt::Write,
        indent: Option<usize>,
        level: usize,
    ) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_string(out, s),
            Json::Array(items) => write_seq(
                out,
                indent,
                level,
                ['[', ']'],
                items.iter(),
                |out, item, lvl| item.render_into(out, indent, lvl),
            ),
            Json::Object(map) => write_seq(
                out,
                indent,
                level,
                ['{', '}'],
                map.iter(),
                |out, (key, value), lvl| {
                    write_string(out, key)?;
                    out.write_str(if indent.is_some() { ": " } else { ":" })?;
                    value.render_into(out, indent, lvl)
                },
            ),
        }
    }
}

/// Compact by default; the alternate flag (`{:#}`) renders exactly
/// [`Json::render_pretty`]'s bytes. Writing a document straight to a
/// file this way never builds the whole text in memory.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render_into(f, f.alternate().then_some(2), 0)
    }
}

/// Shared array/object layout: separators, newlines and indentation.
fn write_seq<W: fmt::Write, T>(
    out: &mut W,
    indent: Option<usize>,
    level: usize,
    [open, close]: [char; 2],
    items: impl ExactSizeIterator<Item = T>,
    mut item: impl FnMut(&mut W, T, usize) -> fmt::Result,
) -> fmt::Result {
    out.write_char(open)?;
    let empty = items.len() == 0;
    for (i, value) in items.enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        if let Some(width) = indent {
            write_indent(out, width * (level + 1))?;
        }
        item(out, value, level + 1)?;
    }
    if let (false, Some(width)) = (empty, indent) {
        write_indent(out, width * level)?;
    }
    out.write_char(close)
}

/// A newline and `spaces` spaces, copied from a static run instead of
/// allocating a fresh one per element.
fn write_indent(out: &mut impl fmt::Write, mut spaces: usize) -> fmt::Result {
    const SPACES: &str = "                                                                ";
    out.write_char('\n')?;
    while spaces > 0 {
        let n = spaces.min(SPACES.len());
        out.write_str(&SPACES[..n])?;
        spaces -= n;
    }
    Ok(())
}

/// Writes a number; non-finite values become `null`.
fn write_number(out: &mut impl fmt::Write, n: f64) -> fmt::Result {
    if n.is_finite() {
        // `{:?}` is Rust's shortest round-trip float rendering, which is
        // also valid JSON for finite values.
        write!(out, "{n:?}")
    } else {
        out.write_str("null")
    }
}

/// Writes a JSON string with the escapes the grammar requires. Every
/// byte that needs one is ASCII, so the runs between them are copied
/// whole and always split on character boundaries.
///
/// The scan tests 32-byte chunks at a time: a chunk with no `"`, `\` or
/// control byte is skipped whole, and only the others go through the
/// per-byte escaper. Checkpoint payloads are megabytes of hex digits, so
/// nearly every chunk is clean.
fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    const CHUNK: usize = 32;
    out.write_char('"')?;
    let (chunks, tail) = s.as_bytes().as_chunks::<CHUNK>();
    let mut run = 0;
    for (index, chunk) in chunks.iter().enumerate() {
        // `|` rather than `any`: no early exit, so the test vectorises.
        if chunk
            .iter()
            .fold(false, |dirty, &byte| dirty | needs_escape(byte))
        {
            escape_bytes(out, s, index * CHUNK, chunk, &mut run)?;
        }
    }
    escape_bytes(out, s, chunks.len() * CHUNK, tail, &mut run)?;
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Whether `byte` must be escaped inside a JSON string.
fn needs_escape(byte: u8) -> bool {
    byte < 0x20 || byte == b'"' || byte == b'\\'
}

/// The per-byte escaper over `bytes`, which sit at offset `start` of
/// `s`: writes the unescaped run `s[*run..]` up to each byte that needs
/// an escape, then the escape, and moves `*run` past it.
fn escape_bytes(
    out: &mut impl fmt::Write,
    s: &str,
    start: usize,
    bytes: &[u8],
    run: &mut usize,
) -> fmt::Result {
    for (i, &byte) in (start..).zip(bytes) {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            // The other control characters take the `\u00XX` form.
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[*run..i])?;
        if escape.is_empty() {
            write!(out, "\\u{byte:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        *run = i + 1;
    }
    Ok(())
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (used by round-trip tests and manifest
/// readers; trailing whitespace is allowed, trailing garbage is not).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after value"));
    }
    Ok(value)
}

fn err(at: usize, message: &str) -> ParseError {
    ParseError {
        at,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, "unexpected token"))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected ':' after object key"));
                }
                *pos += 1;
                map.insert(key, parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(map));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Number),
    }
}

/// Parses a string in one pass: each run of bytes up to the next `"` or
/// `\` is copied whole, so the cost is linear in the string's length.
fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let start = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        // The input is a `&str` and the run ends at an ASCII byte (or the
        // end), so the run is whole characters.
        out.push_str(
            std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "invalid UTF-8"))?,
        );
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // A backslash: decode one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not needed for telemetry
                        // payloads (all emitters write BMP text); map them
                        // to the replacement character rather than erroring.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or_else(|| err(start, "invalid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_len_is_a_lower_bound() {
        for text in [
            "null",
            "[]",
            "{}",
            "[\"\"]",
            r#"{"a": [1, "x\n", {"b": true}], "": "", "n": -1.5e300}"#,
        ] {
            let value = parse(text).expect("test value");
            // Compact is the shorter layout.
            assert!(value.min_len() <= value.render().len(), "{text}");
        }
    }

    #[test]
    fn renders_compact_and_sorted() {
        let value = Json::object(vec![
            ("b".to_string(), Json::Number(2.0)),
            ("a".to_string(), Json::Array(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(value.render(), r#"{"a":[true,null],"b":2.0}"#);
    }

    #[test]
    fn pretty_rendering_indents() {
        let value = Json::object(vec![("k".to_string(), Json::Number(1.0))]);
        assert_eq!(value.render_pretty(), "{\n  \"k\": 1.0\n}");
    }

    #[test]
    fn escapes_and_round_trips_strings() {
        let original = Json::String("line\n\"quoted\"\tand \\ unicode £".to_string());
        let text = original.render();
        assert_eq!(parse(&text).expect("test value"), original);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Number(f64::NAN).render(), "null");
        assert_eq!(Json::Number(f64::INFINITY).render(), "null");
    }

    #[test]
    fn round_trips_nested_structures() {
        let value = Json::object(vec![
            ("metrics".to_string(), Json::object(vec![
                ("count".to_string(), Json::Number(42.0)),
                ("ratio".to_string(), Json::Number(0.724)),
            ])),
            ("phases".to_string(), Json::Array(vec![
                Json::object(vec![
                    ("name".to_string(), Json::String("stress".to_string())),
                    ("wall_s".to_string(), Json::Number(1.5e-3)),
                ]),
            ])),
            ("git".to_string(), Json::Null),
        ]);
        assert_eq!(parse(&value.render()).expect("test value"), value);
        assert_eq!(parse(&value.render_pretty()).expect("test value"), value);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parses_numbers_in_all_common_shapes() {
        assert_eq!(parse("-1.5e3").expect("test value"), Json::Number(-1500.0));
        assert_eq!(parse("0").expect("test value"), Json::Number(0.0));
        assert_eq!(parse("[1,2.25]").expect("test value").as_array().expect("test value").len(), 2);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 1.5, "s": "x", "l": [1]}"#).expect("test value");
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("l").and_then(Json::as_array).map(<[Json]>::len), Some(1));
        assert!(v.get("missing").is_none());
    }
}

//! The JSON string codec: arbitrary Unicode round-trips through both
//! renderers and the parser, the run-copying writer matches a
//! character-at-a-time escaper byte for byte (escapes on its 32-byte
//! chunk edges included), and parsing a long string costs the same per
//! byte as parsing a short one.

use std::time::Instant;

use proptest::prelude::*;
use selfheal_telemetry::json::{self, Json};

/// Characters chosen to sit next to each other: the escaped ASCII set,
/// the other control characters, plain ASCII, and two- to four-byte
/// UTF-8 (surrogates excluded, so every draw is a `char`).
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        2 => Just('"'),
        2 => Just('\\'),
        1 => Just('/'),
        2 => (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        4 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        2 => (0x80u32..0x800).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        2 => (0x800u32..0xd800).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        2 => (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('?')),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any_char(), 0..48).prop_map(|chars| chars.into_iter().collect())
}

/// Byte offsets at and next to the writer's 32-byte chunk edges.
const CHUNK_EDGES: [usize; 7] = [31, 32, 33, 63, 64, 95, 96];

/// Escape-free ASCII strings of 0–200 bytes with a character that needs
/// an escape at each chunk edge the mask selects (when the string
/// reaches it): runs of clean chunks with dirty bytes on their borders.
fn chunk_edge_string() -> impl Strategy<Value = String> {
    let plain = prop_oneof![b'a'..=b'z', b'0'..=b'9', Just(b' ')];
    let escaped = prop_oneof![Just(b'"'), Just(b'\\'), 0u8..0x20];
    (
        proptest::collection::vec(plain, 0..201),
        proptest::collection::vec(escaped, CHUNK_EDGES.len()..CHUNK_EDGES.len() + 1),
        0u8..1 << CHUNK_EDGES.len(),
    )
        .prop_map(|(mut bytes, escapes, mask)| {
            for (bit, (&edge, escape)) in CHUNK_EDGES.iter().zip(escapes).enumerate() {
                if mask >> bit & 1 == 1 {
                    if let Some(byte) = bytes.get_mut(edge) {
                        *byte = escape;
                    }
                }
            }
            String::from_utf8(bytes).expect("ASCII is UTF-8")
        })
}

/// The grammar's escapes applied one character at a time: the reference
/// the run-copying writer must reproduce.
fn escape_per_char(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip_through_both_renderers(s in any_string(), key in any_string()) {
        let value = Json::object(vec![
            (key, Json::Array(vec![Json::String(s.clone()), Json::Number(1.5)])),
            ("s".to_string(), Json::String(s)),
        ]);
        let compact = value.render();
        let pretty = value.render_pretty();
        prop_assert_eq!(json::parse(&compact).expect("compact parses"), value.clone());
        prop_assert_eq!(json::parse(&pretty).expect("pretty parses"), value.clone());
        prop_assert_eq!(format!("{value}"), compact);
        prop_assert_eq!(format!("{value:#}"), pretty);
    }

    #[test]
    fn run_copying_writer_matches_the_per_char_escaper(s in any_string()) {
        prop_assert_eq!(Json::String(s.clone()).render(), escape_per_char(&s));
    }

    #[test]
    fn chunked_scan_escapes_on_chunk_edges(s in chunk_edge_string()) {
        prop_assert_eq!(Json::String(s.clone()).render(), escape_per_char(&s));
    }
}

#[test]
fn escape_free_and_escaping_strings_render_alike() {
    for s in [
        "",
        "plain ascii only",
        "0123456789abcdef0123456789abcdef",
        "£ € 𝄞 multi-byte, no escapes",
        "\"",
        "\\",
        "a\"b\\c\nd\re\tf\u{1}g\u{1f}h",
        "£\"€\\𝄞\n",
        "\u{0}\u{0}",
        "ends with an escape\n",
    ] {
        assert_eq!(
            Json::String(s.to_string()).render(),
            escape_per_char(s),
            "{s:?}"
        );
    }
}

/// Best of `reps` parses of `text`, in ns per byte.
fn parse_ns_per_byte(text: &str, reps: usize) -> f64 {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            let parsed = json::parse(text).expect("document parses");
            let elapsed = started.elapsed().as_secs_f64();
            drop(parsed);
            #[allow(clippy::cast_precision_loss)]
            let per_byte = elapsed * 1e9 / text.len() as f64;
            per_byte
        })
        .fold(f64::INFINITY, f64::min)
}

/// A document holding one string of about `bytes` bytes, with an escape
/// and a multi-byte character every 64 bytes so both paths of the
/// parser are in the loop.
fn one_string_document(bytes: usize) -> String {
    let chunk = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789ab£\\n";
    let text: String = chunk.repeat(bytes / chunk.len());
    format!("{{\"payload\": \"{text}\"}}")
}

#[test]
fn string_parsing_is_linear() {
    let small = one_string_document(400_000);
    let large = one_string_document(4_000_000);
    let small_ns = parse_ns_per_byte(&small, 5);
    let large_ns = parse_ns_per_byte(&large, 3);
    assert!(
        large_ns <= 3.0 * small_ns,
        "a 4 MB string parses at {large_ns:.2} ns/byte, a 400 KB one at {small_ns:.2} ns/byte"
    );
}

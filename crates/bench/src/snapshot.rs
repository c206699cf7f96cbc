//! Machine-readable perf snapshots (`BENCH_micro.json`).
//!
//! A snapshot records one run of the [`suite`](crate::suite): its mode, its
//! seed, the render kernel of the host it ran on and the per-bench
//! nanoseconds-per-op [`TimingRow`]s. The [`compare`](crate::compare) gate
//! diffs two snapshots in CI.
//!
//! The workspace has no serde_json (the vendored `serde` derives are no-ops,
//! see `vendor/README.md`), so this module hand-writes the snapshot JSON and
//! ships a minimal recursive-descent parser ([`parse_json`]) for the subset
//! of JSON the snapshots use — objects, arrays, strings, numbers, booleans
//! and null.

use shift_metrics::TimingRow;

/// A parsed JSON value (the minimal model used by snapshot files).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string, with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first match; snapshot objects never repeat keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a snapshot failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The text is not well-formed JSON (message, byte offset).
    Malformed(String, usize),
    /// The JSON parsed but a required member is missing or mistyped.
    Schema(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Malformed(message, offset) => {
                write!(f, "malformed JSON at byte {offset}: {message}")
            }
            SnapshotError::Schema(message) => write!(f, "snapshot schema error: {message}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Parses `text` as a single JSON value (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// [`SnapshotError::Malformed`] with the first offending byte offset.
pub fn parse_json(text: &str) -> Result<JsonValue, SnapshotError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(SnapshotError::Malformed(
            "trailing characters after value".into(),
            pos,
        ));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), SnapshotError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(SnapshotError::Malformed(
            format!("expected `{}`", byte as char),
            *pos,
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, SnapshotError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(SnapshotError::Malformed("expected a value".into(), *pos)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, SnapshotError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(SnapshotError::Malformed(
            format!("expected `{literal}`"),
            *pos,
        ))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, SnapshotError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(JsonValue::Number)
        .ok_or_else(|| SnapshotError::Malformed("invalid number".into(), start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, SnapshotError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(SnapshotError::Malformed("unterminated string".into(), *pos)),
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
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| {
                                SnapshotError::Malformed("invalid \\u escape".into(), *pos)
                            })?;
                        out.push(hex);
                        *pos += 4;
                    }
                    _ => {
                        return Err(SnapshotError::Malformed("invalid escape".into(), *pos));
                    }
                }
                *pos += 1;
            }
            Some(&byte) => {
                // Copy the raw UTF-8 bytes through (the input is a &str, so
                // multi-byte sequences are already valid).
                let len = utf8_len(byte);
                out.push_str(
                    std::str::from_utf8(&bytes[*pos..*pos + len])
                        .map_err(|_| SnapshotError::Malformed("invalid UTF-8".into(), *pos))?,
                );
                *pos += len;
            }
        }
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, SnapshotError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(SnapshotError::Malformed("expected `,` or `]`".into(), *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, SnapshotError> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            _ => return Err(SnapshotError::Malformed("expected `,` or `}`".into(), *pos)),
        }
    }
}

/// One `BENCH_micro.json` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `"full"` or `"smoke"` (snapshots of different modes are not
    /// comparable — the gate refuses to diff them).
    pub mode: String,
    /// The seed the suite fixtures were built from (snapshots of different
    /// seeds time different fixtures — the gate refuses to diff them too).
    pub seed: u64,
    /// The copy of the frame renderer the host ran,
    /// [`shift_video::image::render_kernel`]: `"avx512"` or `"portable"`.
    /// The fleet rows render every frame they step, so snapshots of
    /// different kernels time different code and the gate refuses to diff
    /// them as well.
    pub kernel: String,
    /// Per-bench measurements, in suite order.
    pub benches: Vec<TimingRow>,
}

impl Snapshot {
    /// Creates a snapshot.
    pub fn new(
        mode: impl Into<String>,
        seed: u64,
        kernel: impl Into<String>,
        benches: Vec<TimingRow>,
    ) -> Self {
        Self {
            mode: mode.into(),
            seed,
            kernel: kernel.into(),
            benches,
        }
    }

    /// Serializes the snapshot to the `BENCH_micro.json` wire format
    /// (single line, trailing newline, stable member order).
    pub fn to_json(&self) -> String {
        let benches: Vec<String> = self.benches.iter().map(TimingRow::json_fragment).collect();
        format!(
            "{{\"artifact\":\"micro\",\"mode\":\"{}\",\"seed\":{},\"kernel\":\"{}\",\"benches\":[{}]}}\n",
            self.mode,
            self.seed,
            self.kernel,
            benches.join(",")
        )
    }

    /// Parses a `BENCH_micro.json` document.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the text is malformed or the schema does not
    /// match.
    pub fn parse(text: &str) -> Result<Self, SnapshotError> {
        let value = parse_json(text)?;
        let mode = value
            .get("mode")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| SnapshotError::Schema("missing string `mode`".into()))?
            .to_string();
        let seed = value
            .get("seed")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| SnapshotError::Schema("missing numeric `seed`".into()))?
            as u64;
        let kernel = value
            .get("kernel")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| SnapshotError::Schema("missing string `kernel`".into()))?
            .to_string();
        let benches = value
            .get("benches")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| SnapshotError::Schema("missing array `benches`".into()))?
            .iter()
            .map(|bench| {
                let member = |key: &str| {
                    bench
                        .get(key)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| SnapshotError::Schema(format!("bench missing `{key}`")))
                };
                Ok(TimingRow::new(
                    bench
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| SnapshotError::Schema("bench missing `name`".into()))?,
                    member("ns_per_op")?,
                    member("samples")? as usize,
                    member("iters_per_sample")? as u64,
                ))
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        Ok(Self {
            mode,
            seed,
            kernel,
            benches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::BENCH_NAMES;

    #[test]
    fn snapshot_round_trips_through_json() {
        let snapshot = Snapshot::new(
            "smoke",
            2024,
            "avx512",
            vec![
                TimingRow::new("scheduler/argmax", 1234.5, 5, 100),
                TimingRow::new("ncc/context_detect", 98.0, 5, 2000),
            ],
        );
        let parsed = Snapshot::parse(&snapshot.to_json()).expect("round trip parses");
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn parser_handles_nesting_escapes_and_rejects_trailing_garbage() {
        let value = parse_json(r#"{"a":[1,-2.5,true,null],"b":{"c":"x\"y\nA"}}"#).unwrap();
        assert_eq!(
            value.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\"y\nA")
        );
        assert_eq!(value.get("a").unwrap().as_array().unwrap().len(), 4);
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"unterminated").is_err());
        assert!(matches!(
            parse_json("not json at all"),
            Err(SnapshotError::Malformed(..))
        ));
    }

    /// The committed seed the CI gate diffs against is a smoke-mode run of
    /// exactly the suite's benches, in order, on a named render kernel, and
    /// is what `to_json` writes.
    #[test]
    fn committed_micro_seed_parses_and_round_trips_byte_for_byte() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json");
        let text = std::fs::read_to_string(path).expect("the micro seed is committed");
        let seed = Snapshot::parse(&text).expect("the micro seed parses");
        assert_eq!(seed.mode, "smoke");
        assert!(
            ["avx512", "portable"].contains(&seed.kernel.as_str()),
            "unknown render kernel {:?}",
            seed.kernel
        );
        let names: Vec<&str> = seed.benches.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, BENCH_NAMES);
        for bench in &seed.benches {
            assert!(bench.ns_per_op > 0.0, "{} has no time", bench.name);
        }
        assert_eq!(seed.to_json(), text);
    }

    #[test]
    fn mismatched_schema_is_a_schema_error() {
        assert!(matches!(
            Snapshot::parse(r#"{"mode":"smoke","benches":[]}"#),
            Err(SnapshotError::Schema(_))
        ));
        assert!(matches!(
            Snapshot::parse(r#"{"mode":"smoke","seed":1,"benches":[]}"#),
            Err(SnapshotError::Schema(_))
        ));
        assert!(matches!(
            Snapshot::parse(
                r#"{"mode":"smoke","seed":1,"kernel":"portable","benches":[{"name":"x"}]}"#
            ),
            Err(SnapshotError::Schema(_))
        ));
    }
}

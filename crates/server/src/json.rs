//! A minimal JSON value type with a recursive-descent parser and a
//! serializer — the wire format of the session service.
//!
//! The workspace is offline (no serde), so this is its one JSON parser:
//! the server parses requests with it, and `fairsel-bench` writes and
//! reads `BENCH_engine.json` through it. The engine's stats document
//! (`EngineStats::to_json`) is still written by hand, because its bytes are
//! pinned. This module is deliberately small: objects preserve insertion
//! order (`Vec` of pairs, first key wins on lookup), numbers are `f64`
//! (integers round-trip exactly up to 2⁵³ — ample for row counts and
//! counters; 64-bit fingerprints travel as hex strings), strings support
//! the standard escapes including `\uXXXX` (surrogate pairs included).

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Field as `&str`.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Field as `f64`.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Field as `u64` (rejects negatives, non-integers, and values above
    /// 2⁵³ — the largest magnitude below which every integer is exactly
    /// representable as an `f64`). Known edge at the bound itself: a
    /// document spelling out 2⁵³ + 1 parses to the same `f64` as 2⁵³ and
    /// is therefore accepted as 2⁵³; values that must survive beyond
    /// 2⁵³ (seeds, fingerprints) travel as strings on this protocol.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        let n = self.get_num(key)?;
        (n >= 0.0 && n.fract() == 0.0 && n <= MAX_SAFE_INTEGER).then_some(n as u64)
    }

    /// Field as `bool`.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience constructor for an object.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing non-whitespace is an
    /// error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Serialization: `to_string()` yields compact JSON text.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// 2⁵³ — integers up to this magnitude are exactly representable as
/// `f64`; the serializer and [`Json::get_u64`] agree on this bound.
const MAX_SAFE_INTEGER: f64 = 9_007_199_254_740_992.0;

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; clamp to null (never produced by our
        // telemetry, but don't emit invalid documents).
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= MAX_SAFE_INTEGER {
        out.push_str(&format!("{}", n as i64));
    } else {
        // Round-trip precision for telemetry floats.
        out.push_str(&format!("{n:?}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts; a
/// document nested deeper is a [`JsonError`]. The parser recurses once per
/// level, so this bound is what keeps a frame of `[` characters from
/// overflowing a connection thread's stack. The protocol's own requests
/// and responses nest a few levels.
pub const MAX_JSON_DEPTH: usize = 64;

/// Parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        other => return Err(self.err(format!("bad escape \\{}", other as char))),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number {s:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = Json::obj(vec![
            ("cmd", Json::Str("select".into())),
            ("alpha", Json::Num(0.01)),
            ("workers", Json::Num(4.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "arr",
                Json::Arr(vec![Json::Num(1.0), Json::Str("x".into())]),
            ),
        ]);
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(back.get_str("cmd"), Some("select"));
        assert_eq!(back.get_num("alpha"), Some(0.01));
        assert_eq!(back.get_u64("workers"), Some(4));
        assert_eq!(back.get_bool("ok"), Some(true));
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nand\ttab",
            "unicode: é ☃ 𝄞",
            "control \u{1} char",
            "csv,header:cat2[sensitive]\n0,1\n",
        ] {
            let text = Json::Str(s.to_owned()).to_string();
            assert_eq!(
                Json::parse(&text).unwrap(),
                Json::Str(s.to_owned()),
                "{s:?}"
            );
        }
        // Standard escapes parse, including surrogate pairs.
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\ud834\\udd1e\\/\"").unwrap(),
            Json::Str("Aé𝄞/".into())
        );
    }

    #[test]
    fn numbers_round_trip() {
        for n in [
            0.0,
            -1.0,
            42.0,
            0.25,
            -17.5,
            1e-9,
            std::f64::consts::PI,
            8.0e15,
        ] {
            let text = Json::Num(n).to_string();
            assert_eq!(Json::parse(&text).unwrap(), Json::Num(n), "{n}");
        }
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("-2.5E-2").unwrap(), Json::Num(-0.025));
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
    }

    /// Regression: `get_u64` once capped at 9.0e15, rejecting valid
    /// exactly-representable integers in (9.0e15, 2⁵³]. The bound is 2⁵³
    /// in both directions: everything at or below it is accepted (and
    /// serialized as a plain integer), everything above is rejected
    /// (f64 can no longer represent every integer, so a round trip would
    /// be ambiguous).
    #[test]
    fn get_u64_accepts_up_to_2_pow_53_and_rejects_beyond() {
        const MAX_SAFE: u64 = 1 << 53;
        // In (9.0e15, 2^53]: previously rejected, now valid.
        for v in [9_000_000_000_000_001u64, MAX_SAFE - 1, MAX_SAFE] {
            let text = format!("{{\"v\":{v}}}");
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed.get_u64("v"), Some(v), "{v} must be accepted");
            // And the serializer emits it back as a plain integer.
            assert_eq!(Json::Num(v as f64).to_string(), v.to_string());
        }
        // Above 2^53: the nearest representable f64 integers must be
        // rejected even though `fract() == 0`.
        for text in ["9007199254740994", "9.1e15 ", "18446744073709551615"] {
            let parsed = Json::parse(&format!("{{\"v\":{}}}", text.trim())).unwrap();
            let expect = text.trim().parse::<f64>().unwrap() <= (MAX_SAFE as f64);
            assert_eq!(
                parsed.get_u64("v").is_some(),
                expect,
                "{text} acceptance must match the 2^53 bound"
            );
        }
        assert_eq!(
            Json::parse("{\"v\":9007199254740994}")
                .unwrap()
                .get_u64("v"),
            None,
            "2^53 + 2 must be rejected"
        );
        // Negatives and fractions stay rejected.
        assert_eq!(Json::parse("{\"v\":-1}").unwrap().get_u64("v"), None);
        assert_eq!(Json::parse("{\"v\":1.5}").unwrap().get_u64("v"), None);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\" 1}",
            "nul",
            "\"bad \\q escape\"",
            "\"\\ud834\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// Arrays and objects nested to [`MAX_JSON_DEPTH`] parse; one level
    /// more is an error, as is a long run of `[` that would otherwise
    /// recurse once per byte.
    #[test]
    fn nesting_is_bounded() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        for doc in [arrays(MAX_JSON_DEPTH), objects(MAX_JSON_DEPTH)] {
            assert!(Json::parse(&doc).is_ok(), "nesting at the bound: {doc}");
        }
        for doc in [
            arrays(MAX_JSON_DEPTH + 1),
            objects(MAX_JSON_DEPTH + 1),
            "[".repeat(100_000),
        ] {
            let err = Json::parse(&doc).expect_err("nesting past the bound");
            assert!(err.msg.contains("nesting deeper"), "{err}");
            // The parser stops at the first level past the bound.
            let level = if doc.starts_with('[') {
                1
            } else {
                "{\"k\":".len()
            };
            assert_eq!(err.pos, MAX_JSON_DEPTH * level, "{err}");
        }
    }

    #[test]
    fn nested_objects_and_lookup() {
        let v = Json::parse(r#"{"a":{"b":[1,2,{"c":true}]},"a":"shadowed"}"#).unwrap();
        // First key wins.
        assert!(matches!(v.get("a"), Some(Json::Obj(_))));
        let arr = v.get("a").unwrap().get("b").unwrap();
        match arr {
            Json::Arr(items) => assert_eq!(items.len(), 3),
            _ => panic!("expected array"),
        }
    }
}

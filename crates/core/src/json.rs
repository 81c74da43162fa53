//! A minimal, dependency-free JSON value model.
//!
//! The offline build keeps the workspace's dependency graph empty, so the
//! machine-readable outputs (bench binaries, `GenerationReport`
//! serialization) and the `mosaic-service` wire protocol share this tiny
//! encoder/parser instead of `serde`. It supports the full JSON data
//! model; objects preserve insertion order so encodings are stable and
//! diffable.
//!
//! # Example
//!
//! ```
//! use photomosaic::json::Json;
//!
//! let v = Json::obj([("total", Json::from(42u64)), ("ok", Json::Bool(true))]);
//! let text = v.encode();
//! assert_eq!(text, r#"{"total":42,"ok":true}"#);
//! assert_eq!(Json::parse(&text).unwrap().get("total").unwrap().as_u64(), Some(42));
//! ```

use std::fmt;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on objects (`None` for other variants or missing
    /// keys).
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

    /// The numeric payload as an unsigned integer (requires an exact
    /// non-negative integral value).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
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

    /// Serialize to compact JSON text (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse JSON text.
    ///
    /// Numbers follow the RFC 8259 grammar (no leading zeros, at least
    /// one digit after `.` and in an exponent) and must be finite as an
    /// `f64`: `1e400` is an error, not infinity.
    ///
    /// # Errors
    /// Returns [`JsonError`] with a byte offset on malformed input,
    /// including trailing garbage after the first value.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

fn write_number(n: f64, out: &mut String) {
    use std::fmt::Write as _;
    // Writing into a `String` cannot fail, so the `fmt::Result`s are moot.
    if !n.is_finite() {
        // JSON has no Inf/NaN; encode as null like JavaScript's JSON.stringify.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Write `s` as a JSON string literal: runs that need no escaping are
/// copied in bulk, and only `"`, `\` and control bytes are escaped.
fn write_string(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    while start < bytes.len() {
        // Every stop byte is ASCII, so both slice ends are char boundaries.
        let stop = start + plain_run_len(&bytes[start..]);
        out.push_str(&s[start..stop]);
        let Some(&b) = bytes.get(stop) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
                out.push(char::from(HEX_DIGITS[usize::from(b & 0xF)]));
            }
        }
        start = stop + 1;
    }
    out.push('"');
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Length of the leading run of `bytes` that a JSON string carries
/// verbatim: everything up to the first `"`, `\` or control byte
/// (< 0x20), or all of `bytes` when there is none.
///
/// Eight bytes are tested per step with the classic SWAR zero-byte test
/// (`(v - 0x01…) & !v & 0x80…` is nonzero exactly when some byte of `v`
/// is zero, or below `n` when `0x01…` is scaled by `n`); the word that
/// trips it is then scanned byte by byte for the exact position.
fn plain_run_len(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const QUOTES: u64 = u64::from_ne_bytes([b'"'; 8]);
    const BACKSLASHES: u64 = u64::from_ne_bytes([b'\\'; 8]);
    let has_zero = |v: u64| v.wrapping_sub(ONES) & !v & HIGHS;
    let mut at = 0;
    for chunk in bytes.chunks_exact(8) {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        let v = u64::from_ne_bytes(word);
        let control = v.wrapping_sub(ONES * 0x20) & !v & HIGHS;
        if control | has_zero(v ^ QUOTES) | has_zero(v ^ BACKSLASHES) != 0 {
            break;
        }
        at += 8;
    }
    bytes[at..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .map_or(bytes.len(), |i| at + i)
}

/// Deepest array/object nesting the parser accepts. The recursive
/// descent uses the call stack, so unbounded nesting would let a hostile
/// input (`[[[[…`) overflow it; past this depth parsing fails with a
/// normal [`JsonError`] instead.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The input; `bytes` is the same text, for byte-wise scanning.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        self.err_at(self.pos, message)
    }

    fn err_at(&self, offset: usize, message: &str) -> JsonError {
        JsonError {
            offset,
            message: message.to_string(),
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

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
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
        self.expect_byte(b'{')?;
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
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
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

    /// A string literal. Each run up to the next `"`, `\` or control
    /// byte is copied with one `push_str`; the input is a `&str`, and a
    /// run starts and ends next to ASCII bytes, so no UTF-8 decoding is
    /// needed.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            self.pos += plain_run_len(&self.bytes[start..]);
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Decode the escape after a `\` (already consumed) into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'u') => {
                self.pos += 1;
                let first = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&first) {
                    // Surrogate pair: expect \uXXXX low half.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    char::from_u32(0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00))
                } else {
                    char::from_u32(first)
                };
                // hex4 already advanced past the digits.
                return match c {
                    Some(c) => {
                        out.push(c);
                        Ok(())
                    }
                    None => Err(self.err("invalid unicode escape")),
                };
            }
            _ => return Err(self.err("invalid escape")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// Exactly four ASCII hex digits (no sign, no space).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.err("truncated unicode escape"));
        };
        let mut v = 0;
        for &b in digits {
            let d = char::from(b).to_digit(16);
            v = v * 16 + d.ok_or_else(|| self.err("invalid unicode escape"))?;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Consume a run of ASCII digits; `false` when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, per
    /// RFC 8259 §6, finite as an `f64`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zero in number"));
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("expected digit in number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(self.err("expected digit after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.err("expected digit in exponent"));
            }
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(self.err_at(start, "number out of range")),
            Err(_) => Err(self.err_at(start, "invalid number")),
        }
    }
}

/// The pre-bulk-copy codec, kept as the differential tests' oracle.
#[cfg(test)]
#[path = "wire_oracle.rs"]
pub(crate) mod wire_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.encode(), text);
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x","d":{"e":false}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.encode(), text);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj([("z", Json::from(1u64)), ("a", Json::from(2u64))]);
        assert_eq!(v.encode(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" back\\slash \u{1F600} \u{08}";
        let encoded = Json::Str(original.to_string()).encode();
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""Aé😀""#).unwrap().as_str(), Some("Aé😀"));
    }

    #[test]
    fn unicode_escape_takes_exactly_four_hex_digits() {
        // A sign or space among the digits is not hex, even where an
        // integer parser would skip it; the error points at the digits.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#] {
            assert_eq!(parse_err(bad), (3, "invalid unicode escape".to_string()));
        }
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap().as_str(), Some("é"));
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(Json::from(12_345u64).encode(), "12345");
        assert_eq!(Json::Num(2.5).encode(), "2.5");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn as_u64_rejects_non_integers() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
    }

    #[test]
    fn parse_errors_carry_offsets() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = Json::parse("[1, oops]").unwrap_err();
        assert!(err.offset > 0);
        assert!(!err.message.is_empty());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok(), "100 levels stay within bounds");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.encode(), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn numbers_with_exponents_parse() {
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("-2.5E-1").unwrap().as_f64(), Some(-0.25));
    }

    fn parse_err(text: &str) -> (usize, String) {
        let err = Json::parse(text).unwrap_err();
        (err.offset, err.message)
    }

    #[test]
    fn number_with_leading_zero_is_rejected() {
        assert_eq!(parse_err("01"), (1, "leading zero in number".to_string()));
        assert_eq!(parse_err("-01"), (2, "leading zero in number".to_string()));
    }

    #[test]
    fn number_with_double_zero_is_rejected() {
        assert_eq!(parse_err("00"), (1, "leading zero in number".to_string()));
        assert_eq!(parse_err("[00]"), (2, "leading zero in number".to_string()));
    }

    #[test]
    fn number_ending_in_decimal_point_is_rejected() {
        let expected = (2, "expected digit after decimal point".to_string());
        assert_eq!(parse_err("1."), expected);
        assert_eq!(parse_err("[1.]").0, 3);
    }

    #[test]
    fn number_with_empty_fraction_before_exponent_is_rejected() {
        assert_eq!(
            parse_err("1.e3"),
            (2, "expected digit after decimal point".to_string())
        );
    }

    #[test]
    fn number_without_integer_part_is_rejected() {
        assert_eq!(
            parse_err("-.5"),
            (1, "expected digit in number".to_string())
        );
        assert_eq!(parse_err("-"), (1, "expected digit in number".to_string()));
    }

    #[test]
    fn number_with_empty_exponent_is_rejected() {
        assert_eq!(
            parse_err("1e"),
            (2, "expected digit in exponent".to_string())
        );
        assert_eq!(
            parse_err("1e+"),
            (3, "expected digit in exponent".to_string())
        );
    }

    #[test]
    fn number_overflowing_f64_is_an_error_not_infinity() {
        for text in ["1e400", "-1e400", "1.5E+309"] {
            assert_eq!(
                parse_err(text),
                (0, "number out of range".to_string()),
                "{text}"
            );
        }
        assert_eq!(
            parse_err("[7,-1e400]"),
            (3, "number out of range".to_string())
        );
    }

    #[test]
    fn rfc_8259_numbers_still_parse() {
        for (text, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("-0.5e1", -5.0),
            ("10", 10.0),
            ("1E+2", 100.0),
            ("1e-400", 0.0),
            ("1.7976931348623157e308", f64::MAX),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_f64(), Some(value), "{text}");
        }
    }

    /// Differential fuzz of the bulk-copy string scanner and writer
    /// against [`wire_oracle`]'s per-character ones: string literals
    /// built from escapes, surrogate pairs, multibyte UTF-8, raw control
    /// bytes and unterminated ends, then mutated by a fixed-seed
    /// xorshift. Both parsers must return the same `Result` — the same
    /// value, or the same error offset and message — and both writers
    /// the same bytes.
    mod differential {
        use super::super::wire_oracle;
        use super::*;
        use mosaic_image::testutil::XorShift;

        /// Literal fragments: plain text, every escape kind (valid and
        /// broken), multibyte UTF-8 and raw control bytes.
        const FRAGMENTS: &[&str] = &[
            "a",
            "hello world",
            "0123456789abcdef",
            "\\\"",
            "\\\\",
            "\\/",
            "\\n",
            "\\r",
            "\\t",
            "\\b",
            "\\f",
            "\\u0041",
            "\\u00e9",
            "\\u20AC",
            "\\ud83d\\ude00",
            "\\uD834\\uDD1E",
            "\\ud83d",
            "\\ud83dx",
            "\\ud83d\\u0041",
            "\\udc00",
            "\\u12",
            "\\uZZZZ",
            "\\u+041",
            "\\x",
            "\\",
            "é",
            "€",
            "😀",
            "中文",
            "\u{7f}",
            "\u{0}",
            "\u{1}",
            "\u{1f}",
            "\n",
            "\t",
            "\"",
            "'",
        ];

        /// Characters a mutation inserts or substitutes.
        const MUTATIONS: &[char] = &[
            '"', '\\', 'u', 'd', '8', 'D', 'c', '0', 'f', 'n', '/', '\u{0}', '\u{1f}', '\n', ' ',
            'é', '€', '😀', '\u{7f}', 'z', '+', '{',
        ];

        fn literal(rng: &mut XorShift) -> String {
            let mut text = String::from("\"");
            for _ in 0..rng.below(12) {
                text.push_str(FRAGMENTS[rng.below(FRAGMENTS.len())]);
            }
            if rng.below(8) != 0 {
                text.push('"');
            }
            text
        }

        /// Insert, delete or replace a few characters after the opening
        /// quote (so the value stays a string literal, and the number
        /// grammar — deliberately stricter than the oracle's — is never
        /// reached).
        fn mutate(rng: &mut XorShift, text: &str) -> String {
            let mut chars: Vec<char> = text.chars().collect();
            for _ in 0..rng.below(4) {
                let at = 1 + rng.below(chars.len());
                let c = MUTATIONS[rng.below(MUTATIONS.len())];
                match rng.below(3) {
                    0 => chars.insert(at, c),
                    1 if at < chars.len() => {
                        chars.remove(at);
                    }
                    _ if at < chars.len() => chars[at] = c,
                    _ => chars.push(c),
                }
            }
            chars.into_iter().collect()
        }

        fn assert_same_parse(text: &str) {
            let fast = Json::parse(text);
            let oracle = wire_oracle::parse(text);
            assert_eq!(fast, oracle, "parse diverged on {:?}", preview(text));
            if let Ok(value) = &fast {
                assert_eq!(value.encode(), wire_oracle::encode(value));
            }
        }

        fn assert_same_encode(s: &str) {
            let value = Json::Str(s.to_string());
            let fast = value.encode();
            assert_eq!(
                fast,
                wire_oracle::encode(&value),
                "encode diverged on {:?}",
                preview(s)
            );
            assert_eq!(Json::parse(&fast).as_ref(), Ok(&value));
        }

        fn preview(text: &str) -> String {
            text.chars().take(80).collect()
        }

        #[test]
        fn mutated_string_literals_match_the_oracle() {
            let mut rng = XorShift::new(0x5EED_C0DE);
            for _ in 0..20_000 {
                let base = literal(&mut rng);
                assert_same_parse(&base);
                assert_same_parse(&mutate(&mut rng, &base));
                // The same literal as an object key and inside an array.
                let key = mutate(&mut rng, &base);
                assert_same_parse(&format!("{{{key}:1}}"));
                assert_same_parse(&format!("[{base},{key}]"));
            }
        }

        #[test]
        fn arbitrary_strings_encode_like_the_oracle() {
            let mut rng = XorShift::new(0x00E5_CA9E);
            for len in 0..200 {
                let s: String = (0..len)
                    .map(|_| match rng.below(4) {
                        0 => MUTATIONS[rng.below(MUTATIONS.len())],
                        1 => char::from(rng.below(0x20) as u8),
                        _ => char::from(b' ' + rng.below(95) as u8),
                    })
                    .collect();
                assert_same_encode(&s);
            }
        }

        /// Payloads from empty to 4 MiB, straddling the 8-byte word
        /// boundaries of the bulk scan, with a stop byte planted at the
        /// first, middle and last position.
        #[test]
        fn long_literals_match_the_oracle_at_every_size() {
            let mut rng = XorShift::new(0x4D1B);
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 4096, 65_537, 4 << 20] {
                let body: String = (0..len)
                    .map(|_| char::from(b'0' + rng.below(75) as u8))
                    .map(|c| if c == '\\' { '/' } else { c })
                    .collect();
                assert_same_encode(&body);
                assert_same_parse(&format!("\"{body}\""));
                assert_same_parse(&format!("\"{body}"));
                if len == 0 {
                    continue;
                }
                for at in [0, len / 2, len - 1] {
                    for stop in ["\\n", "\\u00e9", "\\ud83d\\ude00", "\u{1}", "\\q", "é"] {
                        let mut text = format!("\"{body}\"");
                        text.replace_range(1 + at..2 + at, stop);
                        assert_same_parse(&text);
                    }
                }
            }
        }
    }
}

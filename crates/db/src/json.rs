//! Minimal JSON model, parser, and writer.
//!
//! The journal format needs exact round-trips for three kinds of payload
//! that general-purpose JSON handles poorly:
//!
//! * `i64` values (tuning integers) must not travel through `f64`;
//! * `u64` seeds can exceed `2^53` and are therefore encoded as decimal
//!   *strings*;
//! * objective outputs can be `±inf`/`NaN` (failed runs), which JSON cannot
//!   represent — they are encoded as the strings `"inf"`, `"-inf"`, `"nan"`.
//!
//! Keeping the codec in-tree (std only) also keeps `gptune-db` free of
//! external dependencies, so the storage layer builds wherever the tuner
//! builds.
//!
//! Besides the [`Json`] tree, the crate's hot paths (checkpoint snapshots,
//! journal lines, dedup keys) use two tree-free pieces: `write_f64`,
//! `write_i64` and `write_escaped` append a number or a string literal
//! exactly as the tree writer spells it (`Json::write` itself goes through
//! them), and `Cursor` pulls a document member by member with the same
//! grammar as [`parse`].
//! `crates/db/tests/codec_equivalence.rs` pins their output and what they
//! accept to the tree forms.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value. Objects preserve key order (append order), which
/// keeps journal lines byte-stable across a parse→write round-trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction/exponent) that fits `i64`.
    Int(i64),
    /// Any other numeric literal.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered `(key, value)` pairs.
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

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view (integers only — floats are not truncated).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// Unsigned view: accepts a non-negative integer or a decimal string
    /// (the encoding used for `u64` seeds).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(x) if *x >= 0 => Some(*x as u64),
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Float view: accepts numeric literals plus the `"inf"`/`"-inf"`/
    /// `"nan"` escape strings used for non-finite objective outputs.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(x) => Some(*x as f64),
            Json::Num(x) => Some(*x),
            Json::Str(s) => match s.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encodes an `f64`, mapping non-finite values to their escape strings.
    pub fn from_f64(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else if x.is_nan() {
            Json::Str("nan".into())
        } else if x > 0.0 {
            Json::Str("inf".into())
        } else {
            Json::Str("-inf".into())
        }
    }

    /// Encodes a `u64` as a decimal string (safe beyond `2^53`).
    pub fn from_u64(x: u64) -> Json {
        Json::Str(x.to_string())
    }

    /// Appends the compact serialization to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(x) => write_i64(*x, out),
            // A non-finite Num should have been built via from_f64;
            // write_f64 degrades to the same escape strings instead of
            // emitting invalid JSON.
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
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
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact single-line serialization (`json.to_string()` via `Display`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Appends `s` as a quoted JSON string literal.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
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

/// Appends `x` exactly as `Json::from_f64(x).to_string()` spells it: the
/// shortest round-trip decimal, with `.0` forced onto integral values so
/// they re-parse as `Num` rather than `Int`, and the quoted escape strings
/// `"inf"`, `"-inf"` and `"nan"` for non-finite values.
pub(crate) fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let start = out.len();
        let _ = write!(out, "{x}");
        if !out
            .get(start..)
            .is_some_and(|s| s.contains(['.', 'e', 'E']))
        {
            out.push_str(".0");
        }
    } else if x.is_nan() {
        out.push_str("\"nan\"");
    } else if x > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Appends the decimal digits of `x`, as `write!(out, "{x}")` does but
/// without the formatting machinery (archive rows are mostly integers).
pub(crate) fn write_i64(x: i64, out: &mut String) {
    let mut digits = [b'0'; 20];
    let mut n = x.unsigned_abs();
    let mut len = 0;
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
        len += 1;
        if n == 0 {
            break;
        }
    }
    if x < 0 {
        out.push('-');
    }
    let start = digits.len() - len;
    out.extend(digits.iter().skip(start).map(|d| char::from(*d)));
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut cur = Cursor::new(input);
    let v = cur.value()?;
    cur.end()?;
    Ok(v)
}

/// A pull reader over one JSON document, for decoders that read a large
/// array in place instead of through a [`Json`] tree. It accepts exactly
/// the grammar of [`parse`]: the caller walks objects and arrays with
/// [`Cursor::next_key`]/[`Cursor::next_item`], reads or skips each member
/// with [`Cursor::value`] (or descends into it), and calls
/// [`Cursor::end`] to reject trailing data.
pub(crate) struct Cursor<'a> {
    p: Parser<'a>,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(input: &'a str) -> Cursor<'a> {
        Cursor {
            p: Parser {
                src: input,
                bytes: input.as_bytes(),
                pos: 0,
            },
        }
    }

    /// The next non-whitespace byte, not consumed.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        self.p.skip_ws();
        self.p.peek()
    }

    /// Consumes the `{` that opens an object.
    pub(crate) fn begin_object(&mut self) -> Result<(), ParseError> {
        self.p.skip_ws();
        self.p.expect_byte(b'{')
    }

    /// Consumes the `[` that opens an array.
    pub(crate) fn begin_array(&mut self) -> Result<(), ParseError> {
        self.p.skip_ws();
        self.p.expect_byte(b'[')
    }

    /// Advances to the next key of the current object and past its `:`,
    /// or consumes the closing `}` and returns `None`. The caller owns
    /// `started`: `false` before the first call on an object, then kept
    /// up to date by each call.
    pub(crate) fn next_key(
        &mut self,
        started: &mut bool,
    ) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next_member(started, b'}')? {
            return Ok(None);
        }
        self.p.skip_ws();
        let key = self.p.key()?;
        self.p.skip_ws();
        self.p.expect_byte(b':')?;
        Ok(Some(key))
    }

    /// Advances to the next item of the current array, or consumes the
    /// closing `]` and returns `false`; `started` as in
    /// [`Cursor::next_key`].
    pub(crate) fn next_item(&mut self, started: &mut bool) -> Result<bool, ParseError> {
        self.next_member(started, b']')
    }

    fn next_member(&mut self, started: &mut bool, close: u8) -> Result<bool, ParseError> {
        self.p.skip_ws();
        if self.p.peek() == Some(close) {
            self.p.pos += 1;
            return Ok(false);
        }
        if *started {
            self.p.expect_byte(b',')?;
        }
        *started = true;
        Ok(true)
    }

    /// Reads an array whose items `item` reads in place. `Ok(None)` when
    /// the next value is not an array or `item` returns `Ok(None)`; the
    /// cursor is then left inside the value, so the caller gives up on
    /// the document.
    pub(crate) fn array_of<T>(
        &mut self,
        mut item: impl FnMut(&mut Cursor<'a>) -> Result<Option<T>, ParseError>,
    ) -> Result<Option<Vec<T>>, ParseError> {
        if self.peek() != Some(b'[') {
            return Ok(None);
        }
        self.begin_array()?;
        let mut items = Vec::new();
        let mut started = false;
        while self.next_item(&mut started)? {
            let Some(x) = item(self)? else {
                return Ok(None);
            };
            items.push(x);
        }
        Ok(Some(items))
    }

    /// Reads one whole value as a tree (also how a member is skipped).
    pub(crate) fn value(&mut self) -> Result<Json, ParseError> {
        self.p.skip_ws();
        self.p.value()
    }

    /// Accepts only trailing whitespace after the document.
    pub(crate) fn end(&mut self) -> Result<(), ParseError> {
        self.p.skip_ws();
        if self.p.pos != self.p.bytes.len() {
            return Err(self.p.err("trailing data"));
        }
        Ok(())
    }
}

struct Parser<'a> {
    /// The original input; `bytes` is its byte view. Kept so string
    /// scanning can consume whole UTF-8 scalars without `unsafe`.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
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

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word.as_bytes()))
        {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
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

    fn array(&mut self) -> Result<Json, ParseError> {
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

    /// A string that borrows from the input when it has no escapes.
    fn key(&mut self) -> Result<Cow<'a, str>, ParseError> {
        if self.peek() == Some(b'"') {
            let start = self.pos + 1;
            let stop = self
                .bytes
                .get(start..)
                .and_then(|rest| rest.iter().position(|b| matches!(b, b'"' | b'\\')))
                .map(|n| start + n);
            if let Some(end) = stop.filter(|e| self.bytes.get(*e) == Some(&b'"')) {
                if let Some(key) = self.src.get(start..end) {
                    self.pos = end + 1;
                    return Ok(Cow::Borrowed(key));
                }
            }
        }
        self.string().map(Cow::Owned)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not expected in journal data;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is &str and pos
                    // only ever advances by whole scalars, so pos sits on
                    // a char boundary; if that invariant were ever broken,
                    // get() returns None and we report a parse error
                    // instead of touching unsafe.
                    let c = self
                        .src
                        .get(self.pos..)
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8 position"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(self.err("expected digit"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected digit in exponent"));
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("invalid number"))?;
        if !is_float {
            if let Ok(x) = text.parse::<i64>() {
                return Ok(Json::Int(x));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for s in ["null", "true", "false", "42", "-7", "3.5", "\"hi\""] {
            let v = parse(s).unwrap();
            assert_eq!(v.to_string(), s, "{s}");
        }
    }

    #[test]
    fn int_vs_float_distinction() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("42.0").unwrap(), Json::Num(42.0));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        // i64 extremes survive exactly.
        let s = i64::MAX.to_string();
        assert_eq!(parse(&s).unwrap(), Json::Int(i64::MAX));
        let s = i64::MIN.to_string();
        assert_eq!(parse(&s).unwrap(), Json::Int(i64::MIN));
        for x in [i64::MIN, i64::MIN + 1, -10, -1, 0, 9, 10, 99, i64::MAX] {
            assert_eq!(Json::Int(x).to_string(), x.to_string());
        }
    }

    #[test]
    fn float_writer_reparses_as_float() {
        let v = Json::Num(2.0);
        let s = v.to_string();
        assert_eq!(s, "2.0");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn nonfinite_floats_roundtrip() {
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let s = Json::from_f64(x).to_string();
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.is_nan(), x.is_nan());
            if !x.is_nan() {
                assert_eq!(back, x);
            }
        }
    }

    #[test]
    fn u64_roundtrip_beyond_2_53() {
        let x = u64::MAX - 3;
        let s = Json::from_u64(x).to_string();
        assert_eq!(parse(&s).unwrap().as_u64(), Some(x));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let src = r#"{"a":[1,2.5,"x"],"b":{"c":null,"d":true},"e":[]}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_string(), src);
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\slash\\ unicode: π control: \u{1}";
        let s = Json::Str(original.to_string()).to_string();
        assert_eq!(parse(&s).unwrap().as_str(), Some(original));
    }

    #[test]
    fn truncated_inputs_error() {
        for s in ["{\"a\":1", "[1,2", "\"abc", "{\"a\"", "12.", "{", "tru"] {
            assert!(parse(s).is_err(), "{s} should fail");
        }
    }

    #[test]
    fn garbage_inputs_error() {
        for s in ["", "  ", "{]", "[1 2]", "{'a':1}", "01x", "nulll", "1 2"] {
            assert!(parse(s).is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn float_precision_roundtrip() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -2.2e-308,
        ] {
            let s = Json::Num(x).to_string();
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{x} via {s}");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }
}

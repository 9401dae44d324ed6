//! Offline stand-in for the slice of `serde_json 1` this workspace uses.
//!
//! Provides a JSON [`Value`] tree with an **insertion-ordered** object
//! map (mirroring serde_json's `preserve_order` feature — the runtime's
//! `/stats` payload and `BENCH_runtime.json` keep their field order
//! stable), a strict recursive-descent [`from_str`] parser, a writer
//! whose float formatting (`{:?}`) round-trips exactly, and a minimal
//! [`Serialize`] trait so one struct can define the single canonical
//! JSON shape shared by every exporter.
//!
//! ```
//! use serde_json::{from_str, Map, Value};
//!
//! let mut obj = Map::new();
//! obj.insert("name", "cf");
//! obj.insert("speedup", 25.55);
//! let v = Value::Object(obj);
//! let text = v.to_string();
//! assert_eq!(text, r#"{"name":"cf","speedup":25.55}"#);
//! assert_eq!(from_str(&text).unwrap(), v);
//! ```

use std::fmt;

/// A JSON number: unsigned, signed or floating, kept distinct so `u64`
/// counters never lose precision through an `f64` detour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A float (formatted with `{:?}`, which round-trips exactly).
    F64(f64),
}

impl Number {
    /// The value as `f64` (lossy for large integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U64(n) => n as f64,
            Number::I64(n) => n as f64,
            Number::F64(n) => n,
        }
    }

    /// The value as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U64(n) => Some(n),
            Number::I64(n) => u64::try_from(n).ok(),
            Number::F64(_) => None,
        }
    }

    /// The value as `i64` when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U64(n) => i64::try_from(n).ok(),
            Number::I64(n) => Some(n),
            Number::F64(_) => None,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::U64(n) => write!(f, "{n}"),
            Number::I64(n) => write!(f, "{n}"),
            // `{:?}` prints the shortest representation that parses back
            // to the same bits (and always marks integral floats `1.0`).
            Number::F64(n) if n.is_finite() => write!(f, "{n:?}"),
            // JSON has no Infinity/NaN; mirror serde_json by emitting
            // null for non-finite floats.
            Number::F64(_) => write!(f, "null"),
        }
    }
}

/// An insertion-ordered JSON object.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty object.
    pub fn new() -> Self {
        Map::default()
    }

    /// Appends (or replaces) `key`, preserving first-insertion order.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        let key = key.into();
        let value = value.into();
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.entries.push((key, value)),
        }
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A parsed or constructed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (insertion-ordered).
    Object(Map),
}

impl Value {
    /// Object field access (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `i64` when it is an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as `f64` for any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::String(s) => write!(f, "{}", escape(s)),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Object(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(Number::U64(n))
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Number(Number::U64(u64::from(n)))
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(Number::U64(n as u64))
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Self {
        if n >= 0 {
            Value::Number(Number::U64(n as u64))
        } else {
            Value::Number(Number::I64(n))
        }
    }
}
impl From<i32> for Value {
    fn from(n: i32) -> Self {
        Value::from(i64::from(n))
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(Number::F64(n))
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}
impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::Object(m)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::Array(items)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        o.map_or(Value::Null, Into::into)
    }
}

/// Types with one canonical JSON representation.
///
/// The real serde splits this across `Serialize`/`Serializer`; the
/// offline subset collapses it to "produce a [`Value`]", which is all
/// the workspace needs to share one schema between exporters.
pub trait Serialize {
    /// The value's canonical JSON tree.
    fn to_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for &T {
    fn to_value(&self) -> Value {
        (*self).to_value()
    }
}

/// Serializes `value` to its compact JSON text.
pub fn to_string<T: Serialize>(value: &T) -> String {
    value.to_value().to_string()
}

/// JSON-escapes `s` into a quoted string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for Error {}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error (strict, like serde_json's `from_str`).
///
/// # Errors
///
/// Any grammar violation, with the byte offset where parsing stopped.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

/// Nesting depth cap: malformed deeply-nested input must not blow the
/// stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> Error {
        Error { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must
                                // follow as another \uXXXX escape.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 character (input was &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after `.`"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The slice is ASCII digits/signs by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U64(n)));
            }
            // `-0` is the integer 0, which renders (and re-parses) as `0`.
            if let Ok(n) = text.parse::<i64>() {
                let n = u64::try_from(n).map_or(Number::I64(n), Number::U64);
                return Ok(Value::Number(n));
            }
        }
        // A literal past `f64`'s range has no finite value to render
        // back; refuse it as serde_json does.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(Number::F64(n))),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_round_trips_with_insertion_order() {
        let mut m = Map::new();
        m.insert("z", 1u64);
        m.insert("a", 2u64);
        m.insert("list", Value::Array(vec![Value::from(true), Value::Null]));
        let v = Value::Object(m);
        let text = v.to_string();
        assert_eq!(text, r#"{"z":1,"a":2,"list":[true,null]}"#);
        assert_eq!(from_str(&text).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_via_debug_formatting() {
        for x in [0.0, 1.0, 25.55, 1e-9, 1234.5678901234, f64::MIN_POSITIVE, std::f64::consts::PI] {
            let text = Value::from(x).to_string();
            let back = from_str(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
    }

    #[test]
    fn u64_counters_keep_full_precision() {
        let n = u64::MAX - 3;
        let text = Value::from(n).to_string();
        assert_eq!(from_str(&text).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn negative_and_exponent_numbers_parse() {
        assert_eq!(from_str("-42").unwrap().as_i64(), Some(-42));
        assert_eq!(from_str("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(from_str("-0.5").unwrap().as_f64(), Some(-0.5));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{0007}é—\u{1F600}";
        let text = Value::from(s).to_string();
        assert_eq!(from_str(&text).unwrap().as_str(), Some(s));
        // Escaped input forms parse too, including surrogate pairs.
        assert_eq!(from_str(r#""\ud83d\ude00""#).unwrap().as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn strict_parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "tru",
            "\"\\x\"",
            "nan",
            "{1:2}",
            "[1] []",
            "\"unterminated",
            "{\"a\":1,}",
        ] {
            assert!(from_str(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn accessors_navigate_nested_documents() {
        let v = from_str(r#"{"a":{"b":[1,2.5,"x"]},"ok":true}"#).unwrap();
        let b = v.get("a").and_then(|a| a.get("b")).and_then(Value::as_array).unwrap();
        assert_eq!(b[0].as_u64(), Some(1));
        assert_eq!(b[1].as_f64(), Some(2.5));
        assert_eq!(b[2].as_str(), Some("x"));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn serialize_trait_and_to_string_agree_with_display() {
        struct Point {
            x: u64,
            y: f64,
        }
        impl Serialize for Point {
            fn to_value(&self) -> Value {
                let mut m = Map::new();
                m.insert("x", self.x);
                m.insert("y", self.y);
                Value::Object(m)
            }
        }
        let p = Point { x: 3, y: 0.25 };
        assert_eq!(to_string(&p), r#"{"x":3,"y":0.25}"#);
    }

    #[test]
    fn insert_replaces_duplicates_in_place() {
        let mut m = Map::new();
        m.insert("k", 1u64);
        m.insert("other", 2u64);
        m.insert("k", 9u64);
        assert_eq!(m.len(), 2);
        assert_eq!(Value::Object(m).to_string(), r#"{"k":9,"other":2}"#);
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(from_str(&deep).is_err());
    }
}

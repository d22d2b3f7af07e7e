//! Offline shim for the `serde_json` crate: a JSON value tree, the
//! `json!` macro over flat/nested objects, pretty printing, and a
//! minimal [`from_str`] parser (always targeting [`Value`]). No serde
//! derive integration — the workspace emits JSON records (the experiment
//! harness's `--json`, the checker's telemetry JSONL) and parses them
//! back only for validation and field-stripping in tests.

#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

/// JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All numbers carry an f64; integers print without a fraction.
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

/// Object map (sorted keys — deterministic output).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: BTreeMap<String, Value>,
}

impl Map {
    pub fn new() -> Self {
        Map::default()
    }

    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.entries.insert(key, value)
    }

    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.entries.remove(key)
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.get(key)
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries.get_mut(key)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter()
    }
}

/// Conversion into a [`Value`] by reference (what `json!` leaves call).
pub trait ToJson {
    fn to_json(&self) -> Value;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Value {
        Value::String((*self).to_string())
    }
}

macro_rules! tojson_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )*};
}
tojson_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Value {
        (*self).to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

/// Converts any [`ToJson`] into a [`Value`] (shim analog of
/// `serde_json::to_value`, but infallible).
pub fn to_value<T: ToJson + ?Sized>(v: &T) -> Value {
    v.to_json()
}

/// Build a [`Value`] with JSON-ish syntax. Supports `null`, object
/// literals with string-literal keys, array literals, nesting, and
/// arbitrary Rust expressions (converted via [`ToJson`]) in value
/// position.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $crate::json!(@object m $($body)*);
        $crate::Value::Object(m)
    }};
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$elem) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };

    // -- object muncher: `"key": value, ...` with nested {}/[]/null ----
    (@object $m:ident) => {};
    (@object $m:ident $key:literal : null $(, $($rest:tt)*)?) => {
        $m.insert($key.to_string(), $crate::Value::Null);
        $crate::json!(@object $m $($($rest)*)?);
    };
    (@object $m:ident $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $m.insert($key.to_string(), $crate::json!({ $($inner)* }));
        $crate::json!(@object $m $($($rest)*)?);
    };
    (@object $m:ident $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $m.insert($key.to_string(), $crate::json!([ $($inner)* ]));
        $crate::json!(@object $m $($($rest)*)?);
    };
    (@object $m:ident $key:literal : $val:expr , $($rest:tt)*) => {
        $m.insert($key.to_string(), $crate::to_value(&$val));
        $crate::json!(@object $m $($rest)*);
    };
    (@object $m:ident $key:literal : $val:expr) => {
        $m.insert($key.to_string(), $crate::to_value(&$val));
    };
}

/// Serialization/deserialization error. Serialization never produces
/// one; [`from_str`] reports the byte offset and what went wrong.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

fn escape(s: &str, out: &mut String) {
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

fn write_value(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Value::String(s) => escape(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                write_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            let n = map.len();
            for (i, (k, val)) in map.iter().enumerate() {
                out.push_str(&pad_in);
                escape(k, out);
                out.push_str(": ");
                write_value(val, indent + 1, out);
                if i + 1 < n {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Pretty-prints a value as indented JSON.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json(), 0, &mut out);
    Ok(out)
}

/// Parses a JSON document into a [`Value`] (the shim analog of
/// `serde_json::from_str::<Value>`). Numbers parse as f64. An object
/// with the same key twice is an error, where `serde_json` keeps the
/// last: what is parsed here is replayed into verdicts, and a record
/// that says two things says nothing.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser { src: s, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &str) -> Error {
        Error::new(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{', "expected '{'")?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value()?;
            if map.insert(key, val).is_some() {
                return Err(Error::new(format!("duplicate object key at byte {key_at}")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote, backslash or control byte
            // is copied in one piece. The run starts after an ASCII byte
            // and ends before one, so it is whole characters of `src`.
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Lone surrogates degrade to the replacement
                            // character — good enough for a validator.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes().len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes()[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes()[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::new(format!("invalid number at byte {start}")))
    }
}

/// Compact printing.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    let pretty = to_string_pretty(value)?;
    // Compact enough for a shim: strip the indentation newlines.
    Ok(pretty
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join(""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_str_round_trips_compact_output() {
        let v = json!({
            "s": "a \"quoted\"\nline\twith \\ unicode ✓",
            "n": 42u64,
            "f": 1.5f64,
            "neg": (-7i64),
            "b": true,
            "z": null,
            "arr": [1, 2, 3],
            "nested": { "empty_obj": {}, "empty_arr": [] },
        });
        let text = to_string(&v).unwrap();
        let back = from_str(&text).expect("round trip parses");
        assert_eq!(back, v);
        // Pretty output parses to the same tree too.
        assert_eq!(from_str(&to_string_pretty(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn from_str_accepts_escapes_and_rejects_garbage() {
        assert_eq!(
            from_str(r#""\u0041\u00e9""#).unwrap(),
            Value::String("Aé".to_string())
        );
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "{\"a\":1} x",
            "\"\\q\"",
        ] {
            assert!(from_str(bad).is_err(), "{bad:?} should fail to parse");
        }
    }

    #[test]
    fn from_str_rejects_an_object_with_a_key_twice() {
        for bad in [
            r#"{"a": 1, "a": 1}"#,
            r#"{"a": 1, "b": 2, "a": "later"}"#,
            r#"{"outer": {"k": null, "k": null}}"#,
            r#"[{"k": 1, "k": 2}]"#,
            // One key however it is spelt.
            r#"{"a": 1, "\u0061": 2}"#,
        ] {
            let err = from_str(bad).expect_err(bad).to_string();
            assert!(err.contains("duplicate object key"), "{bad}: {err}");
        }
        // The same key in two objects is two keys.
        let ok = r#"{"a": {"k": 1}, "b": {"k": 2}, "c": [{"k": 3}, {"k": 4}]}"#;
        assert!(from_str(ok).is_ok());
    }

    #[test]
    fn from_str_copies_the_runs_between_escapes_whole() {
        for (text, want) in [
            (r#""""#, ""),
            (r#""plain""#, "plain"),
            (r#""é✓𝄞""#, "é✓𝄞"),
            (r#""é\n✓\\ü\"x""#, "é\n✓\\ü\"x"),
            (r#""\u00e9é\u00e9""#, "ééé"),
            (r#""\t\t""#, "\t\t"),
            (
                "\"del \u{7f} is no control byte here\"",
                "del \u{7f} is no control byte here",
            ),
        ] {
            assert_eq!(
                from_str(text).unwrap(),
                Value::String(want.into()),
                "{text}"
            );
        }
        // A cut or a control byte inside a run, and an escape that runs
        // into a multi-byte character, are errors, not panics.
        for bad in [
            "\"é",
            "\"é\\",
            "\"é\u{1}\"",
            "\"line\nbreak\"",
            r#""\u0é""#,
            r#""\u00é""#,
            r#""\u000é""#,
        ] {
            assert!(from_str(bad).is_err(), "{bad:?} should fail to parse");
        }
    }

    #[test]
    fn json_macro_objects_and_arrays() {
        let name = String::from("demo");
        let v = json!({
            "name": name,
            "count": 3usize,
            "ok": true,
            "missing": (None::<u64>),
            "nested": { "xs": [1, 2, 3] },
        });
        match &v {
            Value::Object(m) => {
                assert_eq!(m.get("count"), Some(&Value::Number(3.0)));
                assert_eq!(m.get("missing"), Some(&Value::Null));
            }
            other => panic!("expected object, got {other:?}"),
        }
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\"name\": \"demo\""));
        assert!(text.contains("\"xs\""));
    }

    #[test]
    fn json_macro_takes_fields_by_reference() {
        struct Row {
            name: String,
        }
        let r = &Row { name: "x".into() };
        // Must not move out of `r.name`.
        let v = json!({ "n": r.name });
        assert_eq!(
            v,
            Value::Object({
                let mut m = Map::new();
                m.insert("n".into(), Value::String("x".into()));
                m
            })
        );
        assert_eq!(r.name, "x");
    }

    #[test]
    fn escaping() {
        let v = json!({ "s": "a\"b\nc" });
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("a\\\"b\\nc"));
    }
}

//! The crate's one JSON field reader, its 64-bit hex convention, and the
//! field writer of the one record written too often to build a tree for.
//!
//! Everything the checker parses back — WAL records, campaign reports,
//! environment stamps, dashboard streams — is a [`Map`] of fields written
//! by this crate but read from files anyone may have touched, so the
//! readers are strict: an integer is a whole number that an `f64` holds
//! exactly, a 64-bit value is `0x` plus one to sixteen hex digits, and
//! everything else is an error naming the field.

use serde_json::{Map, Value};
use std::fmt::Write;

/// The largest integer below which every whole `f64` is a distinct
/// integer (2^53 - 1): the shim's numbers are `f64`, so a larger count
/// has already been rounded by the time it is read.
pub(crate) const MAX_EXACT: f64 = 9_007_199_254_740_991.0;

/// 64-bit values (seeds, fingerprints, resource ids) go into JSON as hex
/// strings, since an `f64` would round them above 2^53. Always `0x` plus
/// 16 zero-padded digits, so the fields are fixed-width, ordered as
/// strings, and greppable across a campaign's worth of streams.
pub(crate) fn hex64(v: u64) -> String {
    format!("{v:#018x}")
}

/// One flat JSON object written field by field into a reused buffer,
/// byte for byte what `serde_json::to_string` prints for the [`Map`] with
/// the same entries: `{"a": 1,"b": "x"}`. A `Map` prints its keys sorted,
/// so the caller passes them sorted (held to it in debug builds).
pub(crate) struct ObjectLine<'a> {
    out: &'a mut String,
    last_key: &'static str,
}

impl<'a> ObjectLine<'a> {
    /// Opens the object at the end of `out`.
    pub(crate) fn open(out: &'a mut String) -> Self {
        out.push('{');
        ObjectLine { out, last_key: "" }
    }

    /// Writes `"key": ` (and the comma before it) and hands back the
    /// buffer for the value. `key` needs no escaping.
    fn key(&mut self, key: &'static str) -> &mut String {
        debug_assert!(self.last_key < key, "{key} after {}", self.last_key);
        if !self.last_key.is_empty() {
            self.out.push(',');
        }
        self.last_key = key;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\": ");
        self.out
    }

    /// A count, as `Value::Number(n as f64)` prints it: the integer below
    /// 9e15, the `f64` that carries it above.
    pub(crate) fn count(&mut self, key: &'static str, n: u64) {
        let out = self.key(key);
        let _ = if n < 9_000_000_000_000_000 {
            write!(out, "{n}")
        } else {
            write!(out, "{}", n as f64)
        };
    }

    /// A 64-bit value in the [`hex64`] form.
    pub(crate) fn hex(&mut self, key: &'static str, v: u64) {
        let _ = write!(self.key(key), "\"{v:#018x}\"");
    }

    /// A string whose text needs no escaping, written by `text`.
    pub(crate) fn plain(&mut self, key: &'static str, text: impl FnOnce(&mut String)) {
        let out = self.key(key);
        out.push('"');
        text(out);
        out.push('"');
    }

    /// A value already in its JSON form (an escaped string literal).
    pub(crate) fn literal(&mut self, key: &'static str, json: &str) {
        self.key(key).push_str(json);
    }

    /// Closes the object.
    pub(crate) fn close(self) {
        self.out.push('}');
    }
}

/// The inverse of [`hex64`], also taking unpadded digits: exactly one
/// `0x`, then 1–16 hex digits, nothing else.
pub(crate) fn parse_hex64(s: &str) -> Option<u64> {
    let digits = s.strip_prefix("0x")?;
    if digits.is_empty() || digits.len() > 16 || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

/// A JSON number as a count: non-negative, whole, and small enough that
/// the `f64` carrying it is exact.
pub(crate) fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(n) if *n >= 0.0 && *n <= MAX_EXACT && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
    }
}

pub(crate) fn get<'a>(m: &'a Map, k: &str) -> Result<&'a Value, String> {
    m.get(k).ok_or_else(|| format!("missing field {k:?}"))
}

pub(crate) fn get_u64(m: &Map, k: &str) -> Result<u64, String> {
    let v = get(m, k)?;
    as_u64(v).ok_or_else(|| format!("field {k:?}: expected an exact count, got {v:?}"))
}

/// A finite number (timings, rates).
pub(crate) fn get_f64(m: &Map, k: &str) -> Result<f64, String> {
    match get(m, k)? {
        Value::Number(n) if n.is_finite() => Ok(*n),
        v => Err(format!("field {k:?}: expected a finite number, got {v:?}")),
    }
}

pub(crate) fn get_str<'a>(m: &'a Map, k: &str) -> Result<&'a str, String> {
    match get(m, k)? {
        Value::String(s) => Ok(s),
        v => Err(format!("field {k:?}: expected string, got {v:?}")),
    }
}

pub(crate) fn get_hex(m: &Map, k: &str) -> Result<u64, String> {
    let s = get_str(m, k)?;
    parse_hex64(s).ok_or_else(|| format!("field {k:?}: expected 0x + 1-16 hex digits, got {s:?}"))
}

pub(crate) fn get_arr<'a>(m: &'a Map, k: &str) -> Result<&'a [Value], String> {
    match get(m, k)? {
        Value::Array(items) => Ok(items),
        v => Err(format!("field {k:?}: expected array, got {v:?}")),
    }
}

pub(crate) fn get_obj<'a>(m: &'a Map, k: &str) -> Result<&'a Map, String> {
    match get(m, k)? {
        Value::Object(o) => Ok(o),
        v => Err(format!("field {k:?}: expected object, got {v:?}")),
    }
}

/// The array field `k` as counts.
pub(crate) fn get_u64s(m: &Map, k: &str) -> Result<Vec<u64>, String> {
    u64s(get_arr(m, k)?, k)
}

pub(crate) fn u64s(items: &[Value], what: &str) -> Result<Vec<u64>, String> {
    items
        .iter()
        .map(|v| as_u64(v).ok_or_else(|| format!("{what}: expected an exact count, got {v:?}")))
        .collect()
}

/// `v` rebuilt without any object key named in `keys`, at every depth:
/// how a record is put into the form two runs must agree on
/// ([`crate::telemetry::TIMING_KEYS`], [`crate::campaign::VOLATILE_KEYS`]).
pub(crate) fn without_keys(v: &Value, keys: &[&str]) -> Value {
    match v {
        Value::Object(map) => {
            let mut out = Map::new();
            for (k, val) in map.iter() {
                if !keys.contains(&k.as_str()) {
                    out.insert(k.clone(), without_keys(val, keys));
                }
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(|v| without_keys(v, keys)).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn counts_are_whole_exact_and_non_negative() {
        for ok in [0.0, 1.0, 4096.0, MAX_EXACT] {
            assert_eq!(as_u64(&Value::Number(ok)), Some(ok as u64), "{ok}");
        }
        for bad in [-1.0, 1.5, MAX_EXACT + 1.0, 1e300, f64::INFINITY, f64::NAN] {
            assert_eq!(as_u64(&Value::Number(bad)), None, "{bad}");
        }
        assert_eq!(as_u64(&json!("7")), None);
        assert_eq!(as_u64(&Value::Null), None);
    }

    #[test]
    fn hex_takes_one_prefix_and_one_to_sixteen_digits() {
        assert_eq!(parse_hex64("0x0"), Some(0));
        assert_eq!(parse_hex64("0x1f"), Some(0x1f));
        assert_eq!(parse_hex64("0xDEADbeef"), Some(0xdead_beef));
        assert_eq!(parse_hex64(&hex64(u64::MAX)), Some(u64::MAX));
        for bad in [
            "",
            "0x",
            "1f",
            "0x0x1f",
            "0x+1f",
            "0x-1",
            "+0x1f",
            "0X1f",
            " 0x1f",
            "0x1f ",
            "0x1_f",
            "0x10000000000000000",
        ] {
            assert_eq!(parse_hex64(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn errors_name_the_field() {
        let Value::Object(m) = json!({ "n": 1.5, "s": 3 }) else {
            unreachable!()
        };
        assert!(get_u64(&m, "n").unwrap_err().contains("\"n\""));
        assert!(get_str(&m, "s").unwrap_err().contains("\"s\""));
        assert!(get_u64(&m, "absent").unwrap_err().contains("missing field"));
    }
}

//! The crate's one JSON field reader, its 64-bit hex convention, its
//! counter-table type, and the field writer and reader of the one record
//! written and read too often to build a tree for.
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
    let mut out = String::with_capacity(18);
    push_hex64(&mut out, v);
    out
}

/// Appends `v` in the [`hex64`] form, without going through `fmt`.
fn push_hex64(out: &mut String, v: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut text = *b"0x0000000000000000";
    for (i, digit) in text[2..].iter_mut().rev().enumerate() {
        *digit = DIGITS[(v >> (4 * i) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&text).expect("ASCII"));
}

/// One counter of a record: wire key, how two values of it fold into one
/// (a shard's into the whole run's), whether the stream's `run_end`
/// carries it too, and the field.
pub(crate) struct Counter<R> {
    pub(crate) key: &'static str,
    pub(crate) fold: fn(u64, u64) -> u64,
    pub(crate) in_run_end: bool,
    pub(crate) get: fn(&R) -> u64,
    pub(crate) set: fn(&mut R, u64),
}

impl<R> Counter<R> {
    /// Folds `from`'s value into `into`'s.
    pub(crate) fn fold(&self, into: &mut R, from: &R) {
        (self.set)(into, (self.fold)((self.get)(into), (self.get)(from)));
    }
}

/// A counter table: one `"key" field fold` row per counter, tagged
/// `run_end` when that record carries it too. A shard counts a `Sum`
/// counter over the executions it owns, disjoint from the other shards'.
/// A `Max` counter is one every shard derives alike (the schedule phase
/// is derivation spine), so any one is the whole, or the pool size, of
/// which a merge reports the largest. (An execution's counters are `Sum`
/// too, though nothing folds them through their table.)
macro_rules! counters {
    ($($key:literal $field:ident $fold:ident $($run_end:ident)?,)*) => {
        [$($crate::json::Counter {
            key: $key,
            fold: $crate::json::counters!(@$fold),
            in_run_end: $crate::json::counters!(@in $($run_end)?),
            get: |r| r.$field as u64,
            set: |r, n| r.$field = n as _,
        },)*]
    };
    (@Sum) => { |mine, theirs| mine + theirs };
    (@Max) => { u64::max };
    (@in) => { false };
    (@in run_end) => { true };
}
pub(crate) use counters;

/// One flat JSON object written field by field into a reused buffer,
/// byte for byte what `serde_json::to_string` prints for the [`Map`] with
/// the same entries: `{"a": 1,"b": "x"}`. A `Map` prints its keys sorted,
/// so the caller passes them sorted (held to it in debug builds), and the
/// counts given at [`open`](Self::open), sorted too, are merged in.
pub(crate) struct ObjectLine<'a> {
    out: &'a mut String,
    last_key: &'static str,
    /// Counts not written yet: each goes in before the first key that
    /// sorts after it, or at the close.
    counts: &'a [(&'static str, u64)],
}

impl<'a> ObjectLine<'a> {
    /// Opens the object at the end of `out`, to merge `counts` into.
    pub(crate) fn open(out: &'a mut String, counts: &'a [(&'static str, u64)]) -> Self {
        out.push('{');
        ObjectLine {
            out,
            last_key: "",
            counts,
        }
    }

    /// Writes the merged counts that sort before `key`, or all that are
    /// left with `None`.
    fn counts_before(&mut self, key: Option<&str>) {
        while let Some((&(count, n), rest)) = self.counts.split_first() {
            if key.is_some_and(|key| count > key) {
                break;
            }
            self.counts = rest;
            write_count(self.key(count), n);
        }
    }

    /// [`key`](Self::key), after the merged counts that sort before it.
    fn field(&mut self, key: &'static str) -> &mut String {
        self.counts_before(Some(key));
        self.key(key)
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

    /// A count (see [`write_count`]).
    pub(crate) fn count(&mut self, key: &'static str, n: u64) {
        write_count(self.field(key), n);
    }

    /// A 64-bit value in the [`hex64`] form.
    pub(crate) fn hex(&mut self, key: &'static str, v: u64) {
        let out = self.field(key);
        out.push('"');
        push_hex64(out, v);
        out.push('"');
    }

    /// A string whose text needs no escaping, written by `text`.
    pub(crate) fn plain(&mut self, key: &'static str, text: impl FnOnce(&mut String)) {
        let out = self.field(key);
        out.push('"');
        text(out);
        out.push('"');
    }

    /// A value already in its JSON form (an escaped string literal).
    pub(crate) fn literal(&mut self, key: &'static str, json: &str) {
        self.field(key).push_str(json);
    }

    /// Writes the counts left and closes the object.
    pub(crate) fn close(mut self) {
        self.counts_before(None);
        self.out.push('}');
    }
}

/// A count, as `Value::Number(n as f64)` prints it: the integer below
/// 9e15, its digits written by hand, and the `f64` that carries it above.
fn write_count(out: &mut String, mut n: u64) {
    if n >= 9_000_000_000_000_000 {
        let _ = write!(out, "{}", n as f64);
        return;
    }
    let mut digits = [0u8; 16];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII"));
}

/// The inverse of [`ObjectLine`]: reads one object in exactly the form
/// `ObjectLine` writes, key by key in the order the caller names them,
/// with the rows of a counter table merged in by key order and read into
/// `into`. Where a key or value is not in that form — another key or
/// order, a key twice, whitespace, an escape, a count not written the way
/// [`write_count`] writes one the tree reader takes back — the method
/// returns `None`: the object is declined, not refused, and the caller's
/// tree reader decides it. So what the reader takes, it reads exactly as
/// `Record`'s tree reader does. It allocates nothing.
pub(crate) struct ObjectReader<'a, 'r, R> {
    rest: &'a str,
    /// Whether a key has been read (every later one follows a comma).
    started: bool,
    /// Counters not read yet: each comes before the first key that sorts
    /// after it, or at the close.
    counters: &'r [Counter<R>],
    into: &'r mut R,
}

impl<'a, 'r, R> ObjectReader<'a, 'r, R> {
    /// Opens the object `line` holds, to read `counters` into `into`.
    pub(crate) fn open(line: &'a str, counters: &'r [Counter<R>], into: &'r mut R) -> Option<Self> {
        Some(ObjectReader {
            rest: line.strip_prefix('{')?,
            started: false,
            counters,
            into,
        })
    }

    /// Reads the merged counters that sort before `key`, or all that are
    /// left with `None`.
    fn counts_before(&mut self, key: Option<&str>) -> Option<()> {
        while let Some((c, rest)) = self.counters.split_first() {
            if key.is_some_and(|key| c.key > key) {
                break;
            }
            self.counters = rest;
            self.key(c.key)?;
            let n = self.digits()?;
            (c.set)(self.into, n);
        }
        Some(())
    }

    /// [`key`](Self::key), after the merged counters that sort before it.
    fn field(&mut self, key: &str) -> Option<()> {
        self.counts_before(Some(key))?;
        self.key(key)
    }

    /// Reads `"key": ` (and the comma before it).
    fn key(&mut self, key: &str) -> Option<()> {
        let mut rest = self.rest;
        if self.started {
            rest = rest.strip_prefix(',')?;
        }
        self.rest = rest
            .strip_prefix('"')?
            .strip_prefix(key)?
            .strip_prefix("\": ")?;
        self.started = true;
        Some(())
    }

    /// A count as [`write_count`] writes one that [`as_u64`] takes back:
    /// 1–16 digits, no leading zero, at most [`MAX_EXACT`].
    fn digits(&mut self) -> Option<u64> {
        let len = self.rest.bytes().take_while(u8::is_ascii_digit).count();
        let (digits, rest) = self.rest.split_at(len);
        if len == 0 || len > 16 || (len > 1 && digits.starts_with('0')) {
            return None;
        }
        let n = digits.bytes().fold(0, |n, d| n * 10 + u64::from(d - b'0'));
        self.rest = rest;
        (n <= MAX_EXACT as u64).then_some(n)
    }

    /// A count (see [`digits`](Self::digits)).
    pub(crate) fn count(&mut self, key: &str) -> Option<u64> {
        self.field(key)?;
        self.digits()
    }

    /// A string with no escape and no control character in it: its text
    /// is its value.
    pub(crate) fn plain(&mut self, key: &str) -> Option<&'a str> {
        self.field(key)?;
        let body = self.rest.strip_prefix('"')?;
        let end = body
            .bytes()
            .position(|b| b == b'"' || b == b'\\' || b < 0x20)?;
        let (text, rest) = body.split_at(end);
        self.rest = rest.strip_prefix('"')?;
        Some(text)
    }

    /// A 64-bit value, read as [`parse_hex64`] reads one.
    pub(crate) fn hex(&mut self, key: &str) -> Option<u64> {
        parse_hex64(self.plain(key)?)
    }

    /// Reads the counters left and the close, which must end the line.
    pub(crate) fn close(mut self) -> Option<()> {
        self.counts_before(None)?;
        (self.rest == "}").then_some(())
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

//! A fixed byte encoding of spec values, which is what the ghost engine
//! fingerprints a refinement trace by.
//!
//! The encoding is prefix-free: no value's bytes are a proper prefix of
//! another value's of the same type. So a sequence of encodings decodes
//! one way only, and two traces fold to the same bytes exactly when they
//! hold the same events. The rules:
//!
//! - an enum: one tag byte, the variant's position in its [`encode!`](crate::encode!)
//!   listing, then the variant's fields in order;
//! - `u64`, `usize` and [`Jid`]: 8 little-endian bytes; `u8`: one byte;
//! - a `String` or a `Vec`: its length as a `u64`, then its bytes or its
//!   elements;
//! - `Option`: tag `0` for `None`, tag `1` then the value for `Some`;
//! - a pair: its fields in order; `()`: no bytes.
//!
//! The scalar, string and container rules are written once, in this
//! module; every enum a trace carries (each spec's `Op` and `Ret`, and
//! `perennial::TraceEvent`) gets its encoding from [`encode!`](crate::encode!). `Debug`
//! output plays no part: renaming a variant or a change in how `std`
//! formats a value moves no fingerprint.

use crate::history::Jid;

/// A running 64-bit FNV-1a hash: the workspace's one fingerprint
/// function, as a value that can be copied mid-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The hash of no bytes: the FNV offset basis.
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Where an encoding goes: a hash state, or the bytes themselves.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Fnv1a {
    fn put(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A value with a fixed, prefix-free byte encoding (module docs).
pub trait Encode {
    /// Writes this value's encoding to `out`.
    fn encode(&self, out: &mut impl Sink);
}

impl Encode for u64 {
    fn encode(&self, out: &mut impl Sink) {
        out.put(&self.to_le_bytes());
    }
}

impl Encode for usize {
    fn encode(&self, out: &mut impl Sink) {
        (*self as u64).encode(out);
    }
}

impl Encode for Jid {
    fn encode(&self, out: &mut impl Sink) {
        self.0.encode(out);
    }
}

impl Encode for u8 {
    fn encode(&self, out: &mut impl Sink) {
        out.put(&[*self]);
    }
}

impl Encode for () {
    fn encode(&self, _: &mut impl Sink) {}
}

impl Encode for String {
    fn encode(&self, out: &mut impl Sink) {
        self.len().encode(out);
        out.put(self.as_bytes());
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut impl Sink) {
        self.len().encode(out);
        for x in self {
            x.encode(out);
        }
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut impl Sink) {
        match self {
            None => 0u8.encode(out),
            Some(x) => {
                1u8.encode(out);
                x.encode(out);
            }
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut impl Sink) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

/// Implements [`Encode`] for an enum: one tag byte, the variant's
/// position in the listing, then the variant's fields in order. Every
/// variant is listed with a name for each of its fields, so the listing
/// stops compiling when the enum gains a variant or a field. Type
/// parameters, if any, must be [`Encode`] themselves.
///
/// ```
/// use perennial_spec::{encode, Encode};
///
/// enum Op {
///     Read(u64),
///     Write { addr: u64, val: Vec<u8> },
///     Sync,
/// }
///
/// encode! {
///     enum Op { Read(a), Write { addr, val }, Sync }
/// }
///
/// let mut bytes = Vec::new();
/// Op::Read(1).encode(&mut bytes);
/// Op::Sync.encode(&mut bytes);
/// assert_eq!(bytes, [0, 1, 0, 0, 0, 0, 0, 0, 0, 2]);
/// ```
#[macro_export]
macro_rules! encode {
    (enum $name:ident $(<$($g:ident),*>)? {
        $($variant:ident $(($($f:ident),*))? $({$($n:ident),*})?),* $(,)?
    }) => {
        impl$(<$($g: $crate::Encode),*>)? $crate::Encode for $name$(<$($g),*>)? {
            fn encode(&self, out: &mut impl $crate::encode::Sink) {
                // The variants' positions in the listing.
                #[allow(non_camel_case_types, clippy::enum_variant_names)]
                enum Tag {
                    $($variant),*
                }
                match self {
                    $(Self::$variant $(($($f),*))? $({$($n),*})? => {
                        $crate::Encode::encode(&(Tag::$variant as u8), out);
                        $($($crate::Encode::encode($f, out);)*)?
                        $($($crate::Encode::encode($n, out);)*)?
                    })*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Put(u64, String),
        Get { key: u64 },
        Flush,
    }

    encode! {
        enum Op { Put(k, v), Get { key }, Flush }
    }

    fn bytes(x: &impl Encode) -> Vec<u8> {
        let mut out = Vec::new();
        x.encode(&mut out);
        out
    }

    #[test]
    fn scalars_are_fixed_width_and_little_endian() {
        assert_eq!(bytes(&0x0102u64), [2, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(bytes(&7usize), bytes(&7u64));
        assert_eq!(bytes(&Jid(7)), bytes(&7u64));
        assert!(bytes(&()).is_empty());
    }

    #[test]
    fn strings_and_sequences_are_length_prefixed() {
        let s = |x: &str| x.to_string();
        assert_eq!(bytes(&s("ab")), [2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b']);
        assert_eq!(bytes(&vec![1u8, 2]), [2, 0, 0, 0, 0, 0, 0, 0, 1, 2]);
        // Where a separator would be ambiguous, the lengths are not.
        assert_ne!(bytes(&(s("a"), s("bc"))), bytes(&(s("ab"), s("c"))));
        assert_ne!(
            bytes(&vec![vec![1u8], vec![]]),
            bytes(&vec![vec![], vec![1u8]])
        );
    }

    #[test]
    fn options_and_variants_are_tagged() {
        assert_eq!(bytes(&None::<u64>), [0]);
        assert_eq!(bytes(&Some(())), [1]);
        assert_eq!(bytes(&Op::Flush), [2]);
        assert_eq!(bytes(&Op::Get { key: 1 })[0], 1);
        let put = bytes(&Op::Put(3, "x".into()));
        assert_eq!(put[0], 0);
        assert_eq!(&put[1..9], &bytes(&3u64)[..]);
        assert_eq!(&put[9..], &bytes(&"x".to_string())[..]);
    }

    #[test]
    fn fnv_folds_bytes_in_any_pieces() {
        let mut whole = Fnv1a::default();
        whole.write(b"abc");
        let mut pieces = Fnv1a::default();
        pieces.put(b"a");
        pieces.put(b"bc");
        assert_eq!(whole, pieces);
        assert_eq!(Fnv1a::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_ne!(whole, Fnv1a::default());
    }
}

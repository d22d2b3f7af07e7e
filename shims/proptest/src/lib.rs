//! Offline shim for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use — integer
//! range strategies, tuples, `prop_map`, `Just`, `prop_oneof!`,
//! `collection::{vec, btree_map}`, `any::<u8>()`, a tiny `[x-y]{m,n}`
//! string pattern, and the `proptest!`/`prop_assert*` macros — with
//! deterministic random generation and **no shrinking**: a failing case
//! panics with the generated inputs' debug output instead of a minimal
//! counterexample.

#![deny(unsafe_code)]

pub mod strategy {
    use super::test_runner::TestRng;

    /// A value generator. The workspace names this trait in `impl
    /// Strategy<Value = T>` return positions and calls the `prop_map`
    /// combinator on it.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { base: self, f }
        }

        fn prop_filter<F>(self, _whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { base: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// Type-erased strategy (what `prop_oneof!` arms become).
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// `prop_map` combinator.
    pub struct Map<S, F> {
        pub(crate) base: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.generate(rng))
        }
    }

    /// `prop_filter` combinator (rejection sampling, bounded retries).
    pub struct Filter<S, F> {
        pub(crate) base: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.base.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1000 candidates in a row");
        }
    }

    /// Constant strategy.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<V> {
        pub(crate) options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = (rng.next() % self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as i128;
                    let hi = self.end as i128;
                    assert!(lo < hi, "empty range strategy");
                    let span = (hi - lo) as u128;
                    (lo + (rng.next() as u128 % span) as i128) as $t
                }
            }

            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = *self.start() as i128;
                    let hi = *self.end() as i128;
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u128 + 1;
                    (lo + (rng.next() as u128 % span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
    }

    /// A tiny `[x-y]{m,n}`-shaped string pattern strategy: enough for
    /// the workloads' message generators. Unrecognized patterns fall
    /// back to 1–8 lowercase letters.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (lo_ch, hi_ch, min_len, max_len) =
                parse_class_pattern(self).unwrap_or(('a', 'z', 1, 8));
            let span = (max_len - min_len + 1) as u64;
            let len = min_len + (rng.next() % span) as usize;
            let chars = (hi_ch as u32 - lo_ch as u32 + 1) as u64;
            (0..len)
                .map(|_| {
                    char::from_u32(lo_ch as u32 + (rng.next() % chars) as u32).expect("char range")
                })
                .collect()
        }
    }

    fn parse_class_pattern(pat: &str) -> Option<(char, char, usize, usize)> {
        // "[a-z]{1,6}"
        let rest = pat.strip_prefix('[')?;
        let (class, rest) = rest.split_once(']')?;
        let mut chars = class.chars();
        let lo = chars.next()?;
        if chars.next()? != '-' {
            return None;
        }
        let hi = chars.next()?;
        let counts = rest.strip_prefix('{')?.strip_suffix('}')?;
        let (m, n) = counts.split_once(',')?;
        Some((lo, hi, m.trim().parse().ok()?, n.trim().parse().ok()?))
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Types with a canonical strategy (`any::<T>()`).
    pub trait Arbitrary {
        type Strategy: Strategy<Value = Self>;
        fn arbitrary() -> Self::Strategy;
    }

    /// Full-domain integer strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyInt<T>(std::marker::PhantomData<T>);

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Strategy for AnyInt<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next() as $t
                }
            }

            impl Arbitrary for $t {
                type Strategy = AnyInt<$t>;
                fn arbitrary() -> Self::Strategy {
                    AnyInt(std::marker::PhantomData)
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Coin-flip strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next() & 1 == 1
        }
    }

    impl Arbitrary for bool {
        type Strategy = AnyBool;
        fn arbitrary() -> Self::Strategy {
            AnyBool
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;

    /// `collection::vec(element, size_range)`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + (rng.next() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `collection::btree_map(key, value, size_range)`.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: Range<usize>,
    ) -> BTreeMapStrategy<K, V> {
        BTreeMapStrategy { key, value, size }
    }

    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + (rng.next() % span) as usize;
            (0..len)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }
}

pub mod test_runner {
    /// Deterministic splitmix64 stream used by all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test's module path + name so every test gets a
        /// stable, distinct stream (reruns are reproducible).
        pub fn deterministic(label: &str) -> Self {
            let mut state = 0xcbf2_9ce4_8422_2325u64;
            for b in label.bytes() {
                state ^= b as u64;
                state = state.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state }
        }

        #[allow(clippy::should_implement_trait)]
        pub fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Failure payload produced by `prop_assert*` (a rendered message).
    pub type TestCaseError = String;

    /// Per-`proptest!` block configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Real proptest defaults to 256; the shim trades a little
            // coverage for CI time.
            ProptestConfig { cases: 64 }
        }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...)` body
/// runs `cases` times over generated inputs. No shrinking.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    (@impl $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for case in 0..cfg.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    )+
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(message) = outcome {
                        panic!(
                            "proptest case {case} failed: {message}\n\
                             (proptest shim: rerun reproduces this case; no shrinking)",
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl $crate::test_runner::ProptestConfig::default(); $($rest)*);
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "msg {}", args)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// `prop_assert_eq!(a, b)` with optional message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)+);
    }};
}

/// `prop_assume!(cond)`: skip the case when the precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

/// `prop_oneof![s1, s2, ...]`: uniform choice between the arms.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strat) ),+
        ])
    };
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic("t1");
        let s = (0u64..10, 5usize..6);
        for _ in 0..100 {
            let (a, b) = s.generate(&mut rng);
            assert!(a < 10);
            assert_eq!(b, 5);
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let mut rng = crate::test_runner::TestRng::deterministic("t2");
        let s = prop_oneof![Just(1u8), Just(2u8), (5u8..8).prop_map(|v| v)];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(s.generate(&mut rng));
        }
        assert!(seen.contains(&1) && seen.contains(&2) && seen.iter().any(|&v| v >= 5));
    }

    #[test]
    fn string_pattern_roughly_honored() {
        let mut rng = crate::test_runner::TestRng::deterministic("t3");
        let s = "[a-z]{1,6}";
        for _ in 0..50 {
            let v = crate::strategy::Strategy::generate(&s, &mut rng);
            assert!((1..=6).contains(&v.len()), "bad len: {v:?}");
            assert!(v.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn collections_respect_size() {
        let mut rng = crate::test_runner::TestRng::deterministic("t4");
        let s = crate::collection::vec(0u8..10, 2..5);
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
        let m = crate::collection::btree_map(0u64..16, 0u64..100, 0..8);
        for _ in 0..50 {
            let v = m.generate(&mut rng);
            assert!(v.len() < 8);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(a in 0u64..100, b in 0u64..100) {
            prop_assume!(a != 99);
            prop_assert!(a < 100);
            prop_assert_eq!(a + b, b + a);
        }
    }
}

//! Offline shim for the `rand` crate: a splitmix64/xoshiro-style PRNG
//! behind the `RngCore`/`SeedableRng`/`Rng` trait names the workspace
//! uses. Not cryptographic; deterministic for a given seed, which is all
//! the model runtime and workload generators need.

#![deny(unsafe_code)]

use std::ops::Range;

/// Core RNG interface (the subset of `rand::RngCore` used here).
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// Seedable construction (the subset of `rand::SeedableRng` used here).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Convenience methods over any [`RngCore`] (the subset of `rand::Rng`
/// used here).
pub trait Rng: RngCore {
    /// Uniform draw from `range` (start inclusive, end exclusive).
    fn gen_range(&mut self, range: Range<u64>) -> u64 {
        let span = range.end.checked_sub(range.start).expect("empty range");
        assert!(span > 0, "gen_range on an empty range");
        // Modulo bias is irrelevant for workload generation.
        range.start + self.next_u64() % span
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Deterministic PRNG (stands in for `rand::rngs::StdRng`).
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl RngCore for StdRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // One warm-up scramble so seed 0 doesn't start at state 0.
        let mut state = seed;
        let _ = splitmix64(&mut state);
        StdRng { state }
    }
}

pub mod rngs {
    pub use super::StdRng;

    /// Per-call entropy-seeded RNG (stands in for `rand::rngs::ThreadRng`).
    #[derive(Debug, Clone)]
    pub struct ThreadRng {
        pub(crate) inner: super::StdRng,
    }

    impl super::RngCore for ThreadRng {
        fn next_u32(&mut self) -> u32 {
            self.inner.next_u32()
        }

        fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.inner.fill_bytes(dest)
        }
    }
}

/// An OS-entropy-seeded RNG handle (stands in for `rand::thread_rng`).
pub fn thread_rng() -> rngs::ThreadRng {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0xdead_beef);
    let tid = std::thread::current().id();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    use std::hash::{Hash, Hasher};
    tid.hash(&mut h);
    rngs::ThreadRng {
        inner: StdRng::seed_from_u64(nanos ^ h.finish()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(3..9);
            assert!((3..9).contains(&v));
        }
    }

    #[test]
    fn gen_bool_mixes() {
        let mut r = StdRng::seed_from_u64(1);
        let trues = (0..1000).filter(|_| r.gen_bool(0.5)).count();
        assert!((300..700).contains(&trues), "suspicious bias: {trues}");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 11];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}

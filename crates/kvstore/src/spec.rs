//! The node key-value store specification: a map from keys to values
//! with linearizable `Put`/`Get`/`Delete` and a crash transition that
//! loses nothing (every acknowledged update is durable).
//!
//! This is the storage interface the paper's related work points at
//! (§2: "Perennial can be used to verify the kind of crash-safe,
//! concurrent node-storage system that Verdi assumes").

use perennial_spec::{ReplayError, SpecTS, Step, Transition};
use std::collections::BTreeMap;

/// Keys and values are `u64` (a serialization detail — the bucket layer
/// stores fixed-width pairs).
pub type Key = u64;
/// Value type.
pub type Val = u64;

/// Abstract state: the key-value map.
pub type KvState = BTreeMap<Key, Val>;

/// Capacity of one bucket (pairs); exceeding it is caller UB, like an
/// out-of-bounds disk address.
pub const BUCKET_CAP: usize = 3;

/// Number of buckets (fixed at format time).
pub const BUCKETS: u64 = 4;

/// Operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Insert or overwrite a key.
    Put(Key, Val),
    /// Look a key up.
    Get(Key),
    /// Remove a key (removing an absent key is a no-op returning None).
    Delete(Key),
}

/// Return values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvRet {
    /// `Put` acknowledgement.
    Done,
    /// `Get`/`Delete` result: the value present (before deletion).
    Val(Option<Val>),
}

perennial_spec::encode! {
    enum KvOp { Put(k, v), Get(k), Delete(k) }
}
perennial_spec::encode! {
    enum KvRet { Done, Val(v) }
}

/// Which bucket a key lives in.
pub fn bucket_of(k: Key) -> u64 {
    // SplitMix-style scramble so adjacent keys spread out.
    let mut x = k.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x % BUCKETS
}

/// The KV specification.
#[derive(Debug, Clone, Default)]
pub struct KvSpec;

impl SpecTS for KvSpec {
    type State = KvState;
    type Op = KvOp;
    type Ret = KvRet;

    fn init(&self) -> KvState {
        KvState::new()
    }

    fn op_transition(&self, op: &KvOp) -> Transition<KvState, KvRet> {
        match *op {
            KvOp::Put(k, v) => Transition::gets(move |s: &KvState| {
                // Bucket overflow is caller UB: count co-bucketed
                // keys if `k` is new.
                let in_bucket = s
                    .keys()
                    .filter(|k2| bucket_of(**k2) == bucket_of(k))
                    .count();
                s.contains_key(&k) || in_bucket < BUCKET_CAP
            })
            .and_then(move |fits| {
                fits.then_some(Transition::modify(move |s: &mut KvState| {
                    s.insert(k, v);
                }))
                .ok_or(ReplayError::Undefined)
            })
            .map(|()| KvRet::Done)
            .boxed(),
            KvOp::Get(k) => {
                Transition::gets(move |s: &KvState| KvRet::Val(s.get(&k).copied())).boxed()
            }
            KvOp::Delete(k) => Transition::gets(move |s: &KvState| s.get(&k).copied())
                .and_then(move |old| {
                    Transition::modify(move |s: &mut KvState| {
                        s.remove(&k);
                    })
                    .map(move |()| KvRet::Val(old))
                })
                .boxed(),
        }
    }

    /// Acknowledged updates are durable: crash loses nothing.
    fn crash_transition(&self) -> Transition<KvState, ()> {
        Transition::skip().boxed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perennial_spec::system::SeqReplay;

    #[test]
    fn put_get_delete_cycle() {
        let mut r = SeqReplay::new(KvSpec);
        assert_eq!(r.step_op(&KvOp::Get(1)).unwrap(), KvRet::Val(None));
        r.step_op(&KvOp::Put(1, 10)).unwrap();
        assert_eq!(r.step_op(&KvOp::Get(1)).unwrap(), KvRet::Val(Some(10)));
        r.step_op(&KvOp::Put(1, 11)).unwrap();
        assert_eq!(r.step_op(&KvOp::Delete(1)).unwrap(), KvRet::Val(Some(11)));
        assert_eq!(r.step_op(&KvOp::Delete(1)).unwrap(), KvRet::Val(None));
    }

    #[test]
    fn crash_preserves_everything() {
        let mut r = SeqReplay::new(KvSpec);
        r.step_op(&KvOp::Put(7, 70)).unwrap();
        r.step_crash().unwrap();
        assert_eq!(r.step_op(&KvOp::Get(7)).unwrap(), KvRet::Val(Some(70)));
    }

    #[test]
    fn bucket_overflow_is_undefined() {
        let mut r = SeqReplay::new(KvSpec);
        // Find BUCKET_CAP + 1 keys in the same bucket.
        let target = bucket_of(0);
        let keys: Vec<Key> = (0..10_000)
            .filter(|k| bucket_of(*k) == target)
            .take(BUCKET_CAP + 1)
            .collect();
        assert_eq!(keys.len(), BUCKET_CAP + 1);
        for k in &keys[..BUCKET_CAP] {
            r.step_op(&KvOp::Put(*k, 1)).unwrap();
        }
        assert!(r.step_op(&KvOp::Put(keys[BUCKET_CAP], 1)).is_err());
    }

    #[test]
    fn bucket_function_spreads() {
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..100 {
            seen.insert(bucket_of(k));
        }
        assert_eq!(seen.len() as u64, BUCKETS, "all buckets reachable");
    }
}

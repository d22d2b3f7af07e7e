//! Checker harness for the node KV store.

use crate::spec::{bucket_of, KvSpec};
use crate::store::{KvMutant, NodeKv};
use goose_rt::fault::FaultSurface;
use perennial_checker::{Harness, ScenarioSet, Script, World};
use perennial_disk::buffered::BufferedDisk;
use std::sync::Arc;

/// Workload shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvWorkload {
    /// One putter (smallest crash-sweep scenario).
    SinglePut,
    /// Two putters on different buckets plus a reader (parallel paths).
    CrossBucket,
    /// Two putters racing on the *same* bucket plus a reader of a
    /// co-bucketed key (bucket-lock contention).
    SameBucket,
    /// Put, delete, and get interleaving on one key.
    PutDeleteGet,
}

/// KV harness.
pub struct KvHarness {
    /// Which mutant.
    pub mutant: KvMutant,
    /// Which workload.
    pub workload: KvWorkload,
    /// Run a post-recovery verification round.
    pub after_round: bool,
}

impl Default for KvHarness {
    fn default() -> Self {
        KvHarness {
            mutant: KvMutant::None,
            workload: KvWorkload::CrossBucket,
            after_round: true,
        }
    }
}

/// The crate's expected-pass scenarios (correct system, every workload),
/// under the registry names `"kv/..."`.
pub fn scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, workload) in [
        (
            "kv/single-put",
            "one putter (smallest crash sweep)",
            KvWorkload::SinglePut,
        ),
        (
            "kv/cross-bucket",
            "putters on two buckets plus a reader",
            KvWorkload::CrossBucket,
        ),
        (
            "kv/same-bucket",
            "putters racing on one bucket lock",
            KvWorkload::SameBucket,
        ),
        (
            "kv/put-delete-get",
            "put/delete/get interleaving on one key",
            KvWorkload::PutDeleteGet,
        ),
    ] {
        set.add(
            name,
            desc,
            KvHarness {
                workload,
                ..KvHarness::default()
            },
        );
    }
    set
}

/// The crate's expected-fail scenarios (mutants the checker must catch),
/// under the registry names `"kv/mutant/..."`.
pub fn mutant_scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, mutant, workload) in [
        (
            "kv/mutant/in-place",
            "in-place bucket update",
            KvMutant::InPlace,
            KvWorkload::SinglePut,
        ),
        (
            "kv/mutant/flip-first",
            "flip pointer before data write",
            KvMutant::FlipFirst,
            KvWorkload::SinglePut,
        ),
        (
            "kv/mutant/no-lock",
            "no bucket lock",
            KvMutant::NoLock,
            KvWorkload::SameBucket,
        ),
    ] {
        set.add(
            name,
            desc,
            KvHarness {
                mutant,
                workload,
                ..KvHarness::default()
            },
        );
    }
    set
}

/// Two keys guaranteed to share a bucket, and one in a different bucket.
fn sample_keys() -> (u64, u64, u64) {
    let k0 = 0u64;
    let b0 = bucket_of(k0);
    let same = (1..10_000)
        .find(|k| bucket_of(*k) == b0)
        .expect("co-bucket key");
    let other = (1..10_000)
        .find(|k| bucket_of(*k) != b0)
        .expect("cross-bucket key");
    (k0, same, other)
}

impl Harness<KvSpec> for KvHarness {
    type Sys = NodeKv;

    fn spec(&self) -> KvSpec {
        KvSpec
    }

    fn make(&self, w: &World<KvSpec>) -> Script<NodeKv, KvSpec> {
        let disk = BufferedDisk::new(Arc::clone(&w.rt), NodeKv::NBLOCKS, NodeKv::BLOCK_SIZE);
        let mut script = Script::new(NodeKv::new(w, disk, self.mutant));
        let (k0, same, other) = sample_keys();
        match self.workload {
            KvWorkload::SinglePut => {
                script.thread("put", move |sys, w| sys.put(w, k0, 100));
            }
            KvWorkload::CrossBucket => {
                script.thread("put-a", move |sys, w| sys.put(w, k0, 1));
                script.thread("put-b", move |sys, w| sys.put(w, other, 2));
                script.thread("get", move |sys, w| {
                    let v = sys.get(w, k0);
                    assert!(v.is_none() || v == Some(1));
                });
            }
            KvWorkload::SameBucket => {
                script.thread("put-x", move |sys, w| sys.put(w, k0, 1));
                script.thread("put-y", move |sys, w| sys.put(w, same, 2));
                script.thread("get", move |sys, w| {
                    let v = sys.get(w, same);
                    assert!(v.is_none() || v == Some(2));
                });
            }
            KvWorkload::PutDeleteGet => {
                script.thread("put", move |sys, w| sys.put(w, k0, 9));
                script.thread("delete", move |sys, w| {
                    let old = sys.delete(w, k0);
                    assert!(old.is_none() || old == Some(9));
                });
                script.thread("get", move |sys, w| {
                    let v = sys.get(w, k0);
                    assert!(v.is_none() || v == Some(9));
                });
            }
        }
        if self.after_round {
            script.after("post-crash", move |sys, w| {
                // Reads first: whatever committed must be visible (their
                // finish_op checks values against σ).
                let _ = sys.get(w, k0);
                let _ = sys.get(w, other);
                sys.put(w, other, 77);
                assert_eq!(sys.get(w, other), Some(77));
                assert_eq!(sys.delete(w, other), Some(77));
            });
        }
        script
    }

    fn name(&self) -> &str {
        "node KV store"
    }

    fn fault_surface(&self) -> FaultSurface {
        FaultSurface {
            transient_disk_io: true,
            torn_writes: true,
            ..FaultSurface::none()
        }
    }
}

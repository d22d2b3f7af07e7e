//! Checker harness for the node KV store: its programs, over the spec's
//! own operations, and its scenarios.

use crate::spec::{KvOp, KvSpec};
use crate::store::{KvMutant, NodeKv};
use goose_rt::fault::FaultSurface;
use perennial_checker::{Harness, Program, ScenarioSet, Script, World};
use perennial_disk::buffered::BufferedDisk;
use std::sync::Arc;
use KvOp::{Delete, Get, Put};

/// A key, a second key in its bucket, and one in another bucket (pinned
/// by the unit test below).
const KEY: u64 = 0;
const SAME_BUCKET_KEY: u64 = 4;
const OTHER_BUCKET_KEY: u64 = 1;

/// Every program's post-recovery round: reads first, so whatever
/// committed must be visible, then a put and a delete.
const AFTER: &[KvOp] = &[
    Get(KEY),
    Get(OTHER_BUCKET_KEY),
    Put(OTHER_BUCKET_KEY, 77),
    Get(OTHER_BUCKET_KEY),
    Delete(OTHER_BUCKET_KEY),
];

/// One putter (smallest crash-sweep scenario).
pub static SINGLE_PUT: Program<KvOp> = Program {
    threads: &[("put", &[Put(KEY, 100)])],
    after: AFTER,
};

/// Two putters on different buckets plus a reader (parallel paths).
pub static CROSS_BUCKET: Program<KvOp> = Program {
    threads: &[
        ("put-a", &[Put(KEY, 1)]),
        ("put-b", &[Put(OTHER_BUCKET_KEY, 2)]),
        ("get", &[Get(KEY)]),
    ],
    after: AFTER,
};

/// Two putters racing on the *same* bucket plus a reader of a
/// co-bucketed key (bucket-lock contention).
pub static SAME_BUCKET: Program<KvOp> = Program {
    threads: &[
        ("put-x", &[Put(KEY, 1)]),
        ("put-y", &[Put(SAME_BUCKET_KEY, 2)]),
        ("get", &[Get(SAME_BUCKET_KEY)]),
    ],
    after: AFTER,
};

/// Put, delete, and get interleaving on one key.
pub static PUT_DELETE_GET: Program<KvOp> = Program {
    threads: &[
        ("put", &[Put(KEY, 9)]),
        ("delete", &[Delete(KEY)]),
        ("get", &[Get(KEY)]),
    ],
    after: AFTER,
};

/// KV harness: a mutant and the program it runs.
pub struct KvHarness {
    /// Which mutant ([`KvMutant::None`] = correct system).
    pub mutant: KvMutant,
    /// The workload.
    pub program: &'static Program<KvOp>,
}

/// The crate's expected-pass scenarios (correct system, every program),
/// under the registry names `"kv/..."`.
pub fn scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, program) in [
        (
            "kv/single-put",
            "one putter (smallest crash sweep)",
            &SINGLE_PUT,
        ),
        (
            "kv/cross-bucket",
            "putters on two buckets plus a reader",
            &CROSS_BUCKET,
        ),
        (
            "kv/same-bucket",
            "putters racing on one bucket lock",
            &SAME_BUCKET,
        ),
        (
            "kv/put-delete-get",
            "put/delete/get interleaving on one key",
            &PUT_DELETE_GET,
        ),
    ] {
        let mutant = KvMutant::None;
        set.add(name, desc, KvHarness { mutant, program });
    }
    set
}

/// The crate's expected-fail scenarios (mutants the checker must catch),
/// under the registry names `"kv/mutant/..."`.
pub fn mutant_scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, mutant, program) in [
        (
            "kv/mutant/in-place",
            "in-place bucket update",
            KvMutant::InPlace,
            &SINGLE_PUT,
        ),
        (
            "kv/mutant/flip-first",
            "flip pointer before data write",
            KvMutant::FlipFirst,
            &SINGLE_PUT,
        ),
        (
            "kv/mutant/no-lock",
            "no bucket lock",
            KvMutant::NoLock,
            &SAME_BUCKET,
        ),
    ] {
        set.add(name, desc, KvHarness { mutant, program });
    }
    set
}

/// Takes one step of a KV program: the operation, its return checked by
/// the ghost engine against σ.
pub fn step(sys: &NodeKv, w: &World<KvSpec>, op: &KvOp) {
    match *op {
        Put(k, v) => sys.put(w, k, v),
        Get(k) => _ = sys.get(w, k),
        Delete(k) => _ = sys.delete(w, k),
    }
}

impl Harness<KvSpec> for KvHarness {
    type Sys = NodeKv;

    fn spec(&self) -> KvSpec {
        KvSpec
    }

    fn make(&self, w: &World<KvSpec>) -> Script<NodeKv, KvSpec> {
        let disk = BufferedDisk::new(Arc::clone(&w.rt), NodeKv::NBLOCKS, NodeKv::BLOCK_SIZE);
        let mut script = Script::new(NodeKv::new(w, disk, self.mutant));
        script.program(self.program, step);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::bucket_of;

    #[test]
    fn program_keys_keep_their_bucket_relations() {
        assert_eq!(bucket_of(SAME_BUCKET_KEY), bucket_of(KEY));
        assert_ne!(bucket_of(OTHER_BUCKET_KEY), bucket_of(KEY));
    }
}

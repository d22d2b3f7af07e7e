//! Property test: the KV store tracks a reference map under long random
//! sequential scripts (run in controller context — the checker's model
//! tests cover concurrency; this covers bucket encode/decode, overwrite,
//! and delete logic at depth).

use goose_rt::sched::ModelRt;
use perennial::Ghost;
use perennial_checker::{System, World};
use perennial_disk::buffered::BufferedDisk;
use perennial_kv::spec::{bucket_of, KvSpec, BUCKET_CAP};
use perennial_kv::store::{KvMutant, NodeKv};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Step {
    Put(u64, u64),
    Get(u64),
    Delete(u64),
    CrashRecover,
}

/// A small key universe so collisions and overwrites are common; keys
/// are drawn to respect the per-bucket capacity.
fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..12, 0u64..1000).prop_map(|(k, v)| Step::Put(k, v)),
        (0u64..12).prop_map(Step::Get),
        (0u64..12).prop_map(Step::Delete),
        Just(Step::CrashRecover),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_tracks_reference_map(script in proptest::collection::vec(arb_step(), 0..60)) {
        let rt = ModelRt::new(0, 10_000_000);
        let ghost = Ghost::new(KvSpec);
        let w = World { rt: Arc::clone(&rt), ghost };
        let disk = BufferedDisk::new(Arc::clone(&rt), NodeKv::NBLOCKS, NodeKv::BLOCK_SIZE);
        let kv = NodeKv::new(&w, disk, KvMutant::None);
        kv.boot(&w);

        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for step in &script {
            match step {
                Step::Put(k, v) => {
                    // Respect the bucket-capacity precondition (the spec
                    // makes overflow UB, so the driver must not do it).
                    let new = !reference.contains_key(k);
                    let in_bucket = reference
                        .keys()
                        .filter(|k2| bucket_of(**k2) == bucket_of(*k))
                        .count();
                    if new && in_bucket >= BUCKET_CAP {
                        continue;
                    }
                    kv.put(&w, *k, *v);
                    reference.insert(*k, *v);
                }
                Step::Get(k) => {
                    prop_assert_eq!(kv.get(&w, *k), reference.get(k).copied());
                }
                Step::Delete(k) => {
                    prop_assert_eq!(kv.delete(&w, *k), reference.remove(k));
                }
                Step::CrashRecover => {
                    w.ghost.crash();
                    kv.boot(&w);
                    kv.recover(&w);
                    // Everything acknowledged survives.
                    for (k, v) in &reference {
                        prop_assert_eq!(kv.get(&w, *k), Some(*v));
                    }
                }
            }
        }
        // End-of-run obligations: ghost validates and AbsR holds.
        prop_assert!(w.ghost.validate().is_ok());
        prop_assert!(kv.abs_check(&w).is_ok());
        let sigma = w.ghost.spec_state();
        prop_assert_eq!(sigma, reference);
    }
}

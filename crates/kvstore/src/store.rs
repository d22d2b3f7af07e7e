//! The instrumented node KV store: hash buckets on a single disk, each
//! bucket updated atomically with the shadow-copy pattern, per-bucket
//! locks for concurrency.
//!
//! Disk layout (block size [`NodeKv::BLOCK_SIZE`]): bucket `b` owns three
//! consecutive blocks —
//!
//! ```text
//! block 3b:   install pointer (0 → slot A live, 1 → slot B live)
//! block 3b+1: slot A (count, then up to BUCKET_CAP (key, value) pairs)
//! block 3b+2: slot B
//! ```
//!
//! A mutation decodes the live slot, writes the modified copy to the
//! *inactive* slot, then flips the pointer — a single atomic block
//! write, the linearization point. A crash before the flip leaves the
//! half-written shadow invisible; recovery only re-establishes leases.
//! Operations on different buckets proceed fully in parallel.

use crate::spec::{bucket_of, KvOp, KvRet, KvSpec, Val, BUCKETS, BUCKET_CAP};
use goose_rt::runtime::{GLock, ModelRtExt};
use parking_lot::RwLock;
use perennial::{DurId, GhostUnwrap, Lease, LockInv};
use perennial_checker::{System, World};
use perennial_disk::buffered::BufferedDisk;
use perennial_disk::single::SingleDisk;
use std::sync::Arc;

/// Deliberate bugs for mutation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvMutant {
    /// The correct system.
    None,
    /// Mutate the live slot in place (a crash mid-rewrite tears the
    /// bucket).
    InPlace,
    /// Flip the pointer before writing the shadow slot.
    FlipFirst,
    /// Share one lock across all buckets but *claim* per-bucket locking
    /// by committing per-bucket — wait, that would be correct; instead:
    /// skip the bucket lock entirely.
    NoLock,
}

/// One bucket's ghost bundle: leases for pointer, slot A, slot B.
pub struct BucketBundle {
    leases: [Lease<Vec<u8>>; 3],
}

/// Decoded bucket contents.
type Pairs = Vec<(u64, u64)>;

/// The instrumented KV store.
pub struct NodeKv {
    mutant: KvMutant,
    disk: Arc<BufferedDisk>,
    cells: Vec<DurId<Vec<u8>>>,
    lockinvs: Vec<Arc<LockInv<BucketBundle>>>,
    locks: RwLock<Vec<Arc<dyn GLock>>>,
}

impl NodeKv {
    /// Bytes per block: count word plus `BUCKET_CAP` pairs.
    pub const BLOCK_SIZE: usize = 8 * (1 + 2 * BUCKET_CAP);
    /// Total blocks.
    pub const NBLOCKS: u64 = 3 * BUCKETS;

    /// Sets up ghost resources over a fresh disk.
    pub fn new(w: &World<KvSpec>, disk: Arc<BufferedDisk>, mutant: KvMutant) -> Self {
        let mut cells = Vec::new();
        let mut all_leases = Vec::new();
        for _ in 0..Self::NBLOCKS {
            let (c, l) = w.ghost.alloc_durable(vec![0u8; Self::BLOCK_SIZE]);
            cells.push(c);
            all_leases.push(Some(l));
        }
        let mut lockinvs = Vec::new();
        for b in 0..BUCKETS as usize {
            let leases = [
                all_leases[3 * b].take().expect("lease"),
                all_leases[3 * b + 1].take().expect("lease"),
                all_leases[3 * b + 2].take().expect("lease"),
            ];
            lockinvs.push(Arc::new(LockInv::new(BucketBundle { leases })));
        }
        NodeKv {
            mutant,
            disk,
            cells,
            lockinvs,
            locks: RwLock::new(Vec::new()),
        }
    }

    fn lock(&self, b: u64) -> Arc<dyn GLock> {
        Arc::clone(&self.locks.read()[b as usize])
    }

    fn decode(block: &[u8]) -> Pairs {
        let n = u64::from_le_bytes(block[..8].try_into().expect("short block")) as usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n.min(BUCKET_CAP) {
            let off = 8 + 16 * i;
            let k = u64::from_le_bytes(block[off..off + 8].try_into().unwrap());
            let v = u64::from_le_bytes(block[off + 8..off + 16].try_into().unwrap());
            out.push((k, v));
        }
        out
    }

    fn encode(pairs: &Pairs) -> Vec<u8> {
        assert!(pairs.len() <= BUCKET_CAP, "bucket overflow");
        let mut out = vec![0u8; Self::BLOCK_SIZE];
        out[..8].copy_from_slice(&(pairs.len() as u64).to_le_bytes());
        for (i, (k, v)) in pairs.iter().enumerate() {
            let off = 8 + 16 * i;
            out[off..off + 8].copy_from_slice(&k.to_le_bytes());
            out[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Buffered block write: volatile until the next flush barrier. The
    /// ghost master is advanced here (nothing compares master against the
    /// platter, and recovery never depends on an unflushed shadow slot).
    fn wblk(
        &self,
        w: &World<KvSpec>,
        bundle: &mut BucketBundle,
        b: u64,
        which: usize,
        data: Vec<u8>,
    ) {
        let block = 3 * b + which as u64;
        self.disk.write(block, &data);
        w.ghost
            .write_durable(self.cells[block as usize], &mut bundle.leases[which], data)
            .ghost_unwrap();
    }

    /// Write-through block write: a single atomic durable write (FUA),
    /// used for the install-pointer flip.
    fn wblk_through(
        &self,
        w: &World<KvSpec>,
        bundle: &mut BucketBundle,
        b: u64,
        which: usize,
        data: Vec<u8>,
    ) {
        let block = 3 * b + which as u64;
        self.disk.write_through(block, &data);
        w.ghost
            .write_durable(self.cells[block as usize], &mut bundle.leases[which], data)
            .ghost_unwrap();
    }

    /// Reads the live pairs of bucket `b` (under its lock).
    fn read_bucket(&self, b: u64) -> (u64, Pairs) {
        let ptr = self.disk.read(3 * b);
        let live = u64::from_le_bytes(ptr[..8].try_into().unwrap()) % 2;
        let slot = self.disk.read(3 * b + 1 + live);
        (live, Self::decode(&slot))
    }

    /// Rewrites bucket `b` with `pairs` using the shadow-copy protocol;
    /// the returned closure-free sequence commits `tok` adjacent to the
    /// pointer flip.
    fn rewrite_bucket(
        &self,
        w: &World<KvSpec>,
        bundle: &mut BucketBundle,
        b: u64,
        live: u64,
        pairs: &Pairs,
        tok: &perennial::OpToken,
    ) -> KvRet {
        let encoded = Self::encode(pairs);
        match self.mutant {
            KvMutant::InPlace => {
                // Mutant: commit, then overwrite the live slot in place
                // (no shadow). A crash between the commit and the write
                // loses an acknowledged-as-linearized update.
                let ret = w.ghost.commit_op(tok).ghost_unwrap();
                self.wblk(w, bundle, b, (1 + live) as usize, encoded);
                ret
            }
            KvMutant::FlipFirst => {
                let flip = 1 - live;
                let mut ptr = vec![0u8; Self::BLOCK_SIZE];
                ptr[..8].copy_from_slice(&flip.to_le_bytes());
                self.wblk_through(w, bundle, b, 0, ptr);
                let ret = w.ghost.commit_op(tok).ghost_unwrap();
                self.wblk(w, bundle, b, (1 + flip) as usize, encoded);
                self.disk.flush();
                ret
            }
            _ => {
                // Correct: buffered shadow write, flush barrier, then the
                // pointer flip as a single write-through + commit
                // (adjacent). A torn crash before the flush leaves the
                // half-written shadow both volatile *and* invisible.
                let flip = 1 - live;
                self.wblk(w, bundle, b, (1 + flip) as usize, encoded);
                self.disk.flush();
                let mut ptr = vec![0u8; Self::BLOCK_SIZE];
                ptr[..8].copy_from_slice(&flip.to_le_bytes());
                self.wblk_through(w, bundle, b, 0, ptr);
                w.ghost.commit_op(tok).ghost_unwrap()
            }
        }
    }

    /// Linearizable `Put`.
    pub fn put(&self, w: &World<KvSpec>, k: u64, v: Val) {
        let tok = w.ghost.begin_op(KvOp::Put(k, v)).ghost_unwrap();
        let b = bucket_of(k);
        let lock = self.lock(b);
        if self.mutant != KvMutant::NoLock {
            lock.acquire();
        }
        let mut bundle = self.lockinvs[b as usize].take().ghost_unwrap();
        let (live, mut pairs) = self.read_bucket(b);
        match pairs.iter_mut().find(|(k2, _)| *k2 == k) {
            Some(entry) => entry.1 = v,
            None => pairs.push((k, v)),
        }
        let ret = self.rewrite_bucket(w, &mut bundle, b, live, &pairs, &tok);
        self.lockinvs[b as usize].put(bundle).ghost_unwrap();
        if self.mutant != KvMutant::NoLock {
            lock.release();
        }
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }

    /// Linearizable `Get`.
    pub fn get(&self, w: &World<KvSpec>, k: u64) -> Option<Val> {
        let tok = w.ghost.begin_op(KvOp::Get(k)).ghost_unwrap();
        let b = bucket_of(k);
        let lock = self.lock(b);
        if self.mutant != KvMutant::NoLock {
            lock.acquire();
        }
        let bundle = self.lockinvs[b as usize].take().ghost_unwrap();
        // The live-slot read is the linearization point.
        let (_live, pairs) = self.read_bucket(b);
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        self.lockinvs[b as usize].put(bundle).ghost_unwrap();
        if self.mutant != KvMutant::NoLock {
            lock.release();
        }
        let got = pairs.iter().find(|(k2, _)| *k2 == k).map(|(_, v)| *v);
        w.ghost.finish_op(tok, &KvRet::Val(got)).ghost_unwrap();
        match ret {
            KvRet::Val(_) => got,
            KvRet::Done => unreachable!("get committed a put transition"),
        }
    }

    /// Linearizable `Delete`, returning the previous value.
    pub fn delete(&self, w: &World<KvSpec>, k: u64) -> Option<Val> {
        let tok = w.ghost.begin_op(KvOp::Delete(k)).ghost_unwrap();
        let b = bucket_of(k);
        let lock = self.lock(b);
        if self.mutant != KvMutant::NoLock {
            lock.acquire();
        }
        let mut bundle = self.lockinvs[b as usize].take().ghost_unwrap();
        let (live, mut pairs) = self.read_bucket(b);
        let old = pairs.iter().find(|(k2, _)| *k2 == k).map(|(_, v)| *v);
        let ret = if old.is_some() {
            pairs.retain(|(k2, _)| *k2 != k);
            self.rewrite_bucket(w, &mut bundle, b, live, &pairs, &tok)
        } else {
            // Nothing to remove: linearize at the read.
            w.ghost.commit_op(&tok).ghost_unwrap()
        };
        self.lockinvs[b as usize].put(bundle).ghost_unwrap();
        if self.mutant != KvMutant::NoLock {
            lock.release();
        }
        w.ghost.finish_op(tok, &KvRet::Val(old)).ghost_unwrap();
        match ret {
            KvRet::Val(spec_old) => {
                debug_assert_eq!(spec_old, old);
                old
            }
            KvRet::Done => unreachable!("delete committed a put transition"),
        }
    }
}

impl System<KvSpec> for NodeKv {
    /// Rebuilds the per-bucket in-memory locks at boot.
    fn boot(&self, w: &World<KvSpec>) {
        *self.locks.write() = (0..BUCKETS).map(|_| w.rt.new_glock()).collect();
    }

    /// Crash transition for the disk: drop (or tear) the volatile write
    /// buffer per the execution's fault plan.
    fn crash(&self) {
        self.disk.crash_torn();
    }

    /// Recovery: an uninstalled shadow slot is invisible — re-establish
    /// the leases and spend the crash token.
    fn recover(&self, w: &World<KvSpec>) {
        for b in 0..BUCKETS as usize {
            let leases = [
                w.ghost.recover_lease(self.cells[3 * b]).ghost_unwrap(),
                w.ghost.recover_lease(self.cells[3 * b + 1]).ghost_unwrap(),
                w.ghost.recover_lease(self.cells[3 * b + 2]).ghost_unwrap(),
            ];
            self.lockinvs[b].reset(BucketBundle { leases });
        }
        w.ghost.recovery_done().ghost_unwrap();
    }

    /// AbsR at quiescence: the union of all live bucket slots equals σ.
    fn abs_check(&self, w: &World<KvSpec>) -> Result<(), String> {
        let sigma = w.ghost.spec_state();
        let mut physical = std::collections::BTreeMap::new();
        for b in 0..BUCKETS {
            let ptr = self.disk.peek(3 * b);
            let live = u64::from_le_bytes(ptr[..8].try_into().unwrap()) % 2;
            let slot = self.disk.peek(3 * b + 1 + live);
            for (k, v) in Self::decode(&slot) {
                if bucket_of(k) != b {
                    return Err(format!("key {k} stored in wrong bucket {b}"));
                }
                physical.insert(k, v);
            }
        }
        if physical != sigma {
            return Err(format!(
                "AbsR violated: disk has {physical:?}, spec has {sigma:?}"
            ));
        }
        Ok(())
    }
}

//! The ghost-instrumented replicated disk — the runtime analog of the
//! paper's Perennial proof (§5, worked through §3–§5 as the running
//! example).
//!
//! Proof structure, matching the paper:
//!
//! - **Abstraction relation / lock invariants**: per address `a`, a lock
//!   protects a bundle of recovery leases for `d1[a]` and `d2[a]`, and
//!   when the lock is free the two (logical) disks agree at `a`.
//! - **Crash invariant**: the master copies of `d1[a]`/`d2[a]` live in
//!   the crash invariant (the ghost engine holds them), and whenever the
//!   physical disks differ at `a` there is a helping token `j ⇛
//!   Write(a, v1)` stashed under key `a` (§5.4's per-address helping
//!   assertion).
//! - **Linearization points**: a read linearizes at its (successful) disk
//!   read; a write linearizes at the *second* disk write — before that
//!   the operation has not logically happened, which is exactly why a
//!   crash in between leaves the helping token for recovery to redeem
//!   (Figure 6's diagram).
//!
//! Mutants for the checker's benefit are parameterized by [`RdMutant`];
//! `RdMutant::None` is the correct system.

use crate::spec::{Block, RdOp, RdRet, RdSpec, RdState};
use goose_rt::runtime::{GLock, ModelRtExt};
use parking_lot::RwLock;
use perennial::{DurId, GhostUnwrap, Lease, LockInv};
use perennial_checker::{System, World};
use perennial_disk::two::{DiskId, ModelTwoDisks, TwoDisks};
use std::sync::Arc;

/// Deliberate bugs used by mutation tests (DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdMutant {
    /// The correct system.
    None,
    /// Skip the write to disk 2 (breaks failover and crash recovery).
    SkipSecondWrite,
    /// Recovery zeroes both disks instead of copying (§1's canonical
    /// wrong recovery).
    ZeroingRecovery,
    /// Never stash a helping token (crash mid-write leaves recovery
    /// without the right to complete the operation).
    SkipHelping,
    /// Commit at the first disk write instead of the second (premature
    /// linearization: a crash in between loses a committed write).
    CommitEarly,
    /// Treat a single transient I/O error as a permanent disk failure:
    /// skip the write (or fail the read over to the other disk) instead
    /// of retrying. Invisible to crash sweeps — only the disk-fault
    /// sweep's transient plans expose the silently dropped write.
    GiveUpOnTransient,
}

/// Per-address lock-invariant bundle: the two recovery leases.
pub struct AddrBundle {
    lease1: Lease<Block>,
    lease2: Lease<Block>,
}

/// The instrumented replicated disk.
pub struct VerifiedReplDisk {
    mutant: RdMutant,
    disks: Arc<ModelTwoDisks>,
    d1: Vec<DurId<Block>>,
    d2: Vec<DurId<Block>>,
    lockinvs: Vec<Arc<LockInv<AddrBundle>>>,
    /// Rebuilt on every boot; the `RwLock` is held only long enough to
    /// clone a handle (never across a schedule point).
    locks: RwLock<Vec<Arc<dyn GLock>>>,
    size: u64,
}

impl VerifiedReplDisk {
    /// Sets up durable ghost resources over a fresh two-disk device.
    /// Call once per execution; [`System::boot`] rebuilds the volatile
    /// parts after each (simulated) reboot.
    pub fn new(w: &World<RdSpec>, disks: Arc<ModelTwoDisks>, mutant: RdMutant) -> Self {
        let size = disks.size();
        let block_size = disks.block_size();
        let mut d1 = Vec::new();
        let mut d2 = Vec::new();
        let mut lockinvs = Vec::new();
        for _ in 0..size {
            let (c1, l1) = w.ghost.alloc_durable(vec![0u8; block_size]);
            let (c2, l2) = w.ghost.alloc_durable(vec![0u8; block_size]);
            d1.push(c1);
            d2.push(c2);
            lockinvs.push(Arc::new(LockInv::new(AddrBundle {
                lease1: l1,
                lease2: l2,
            })));
        }
        VerifiedReplDisk {
            mutant,
            disks,
            d1,
            d2,
            lockinvs,
            locks: RwLock::new(Vec::new()),
            size,
        }
    }

    fn lock(&self, a: u64) -> Arc<dyn GLock> {
        Arc::clone(&self.locks.read()[a as usize])
    }

    /// Number of logical blocks.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The two-disk device (for fault injection in harnesses).
    pub fn disks(&self) -> &Arc<ModelTwoDisks> {
        &self.disks
    }

    /// Instrumented `rd_read` (Figure 4 plus proof steps).
    pub fn rd_read(&self, w: &World<RdSpec>, a: u64) -> Block {
        let tok = w.ghost.begin_op(RdOp::Read(a)).ghost_unwrap();
        let lock = self.lock(a);
        lock.acquire();
        let bundle = self.lockinvs[a as usize].take().ghost_unwrap();
        // Try disk 1; on failure fall back to disk 2. The successful read
        // is the linearization point: commit adjacently (same atomic
        // step, no schedule point in between).
        let v = if self.mutant == RdMutant::GiveUpOnTransient {
            // Mutant: one transient error and the disk is written off.
            match self.disks.try_disk_read(DiskId::D1, a) {
                Ok(Some(v)) => v,
                _ => self
                    .disks
                    .try_disk_read(DiskId::D2, a)
                    .ok()
                    .flatten()
                    .expect("both disks failed"),
            }
        } else {
            match self.disks.disk_read(DiskId::D1, a) {
                Some(v) => v,
                None => self
                    .disks
                    .disk_read(DiskId::D2, a)
                    .expect("both disks failed"),
            }
        };
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        self.lockinvs[a as usize].put(bundle).ghost_unwrap();
        lock.release();
        w.ghost
            .finish_op(tok, &RdRet::Val(v.clone()))
            .ghost_unwrap();
        match ret {
            RdRet::Val(spec_v) => {
                debug_assert_eq!(spec_v, v);
                v
            }
            RdRet::Unit => unreachable!("read committed a write transition"),
        }
    }

    /// Instrumented `rd_write` (Figure 4 plus proof steps, §5.4 helping).
    pub fn rd_write(&self, w: &World<RdSpec>, a: u64, v: &[u8]) {
        let tok = w.ghost.begin_op(RdOp::Write(a, v.to_vec())).ghost_unwrap();
        let lock = self.lock(a);
        lock.acquire();
        let mut bundle = self.lockinvs[a as usize].take().ghost_unwrap();

        // Stash j ⇛ Write(a, v) in the crash invariant before touching
        // disk 1: from here to the second write, a crash leaves the disks
        // divergent at `a` and recovery may complete the op on our
        // behalf.
        if self.mutant != RdMutant::SkipHelping {
            w.ghost.stash_op(&tok, a).ghost_unwrap();
        }

        // First physical write + its ghost mirror (one atomic step).
        if self.mutant == RdMutant::GiveUpOnTransient {
            // Mutant: no retry — a transient error silently drops the
            // write while the ghost mirror (and later the commit) still
            // advance.
            let _ = self.disks.try_disk_write(DiskId::D1, a, v);
        } else {
            self.disks.disk_write(DiskId::D1, a, v);
        }
        w.ghost
            .write_durable(self.d1[a as usize], &mut bundle.lease1, v.to_vec())
            .ghost_unwrap();

        let ret = if self.mutant == RdMutant::CommitEarly {
            if self.mutant != RdMutant::SkipHelping {
                w.ghost.unstash_op(&tok, a).ghost_unwrap();
            }
            w.ghost.commit_op(&tok).ghost_unwrap()
        } else {
            RdRet::Unit
        };

        // Second physical write: the linearization point. Mirror update,
        // token retrieval, and commit are adjacent (same atomic step).
        let ret = if self.mutant == RdMutant::SkipSecondWrite {
            // Mutant: pretend we wrote disk 2.
            if self.mutant != RdMutant::SkipHelping {
                w.ghost.unstash_op(&tok, a).ghost_unwrap();
            }
            w.ghost.commit_op(&tok).ghost_unwrap()
        } else {
            if self.mutant == RdMutant::GiveUpOnTransient {
                let _ = self.disks.try_disk_write(DiskId::D2, a, v);
            } else {
                self.disks.disk_write(DiskId::D2, a, v);
            }
            w.ghost
                .write_durable(self.d2[a as usize], &mut bundle.lease2, v.to_vec())
                .ghost_unwrap();
            if self.mutant == RdMutant::CommitEarly {
                ret
            } else {
                if self.mutant != RdMutant::SkipHelping {
                    w.ghost.unstash_op(&tok, a).ghost_unwrap();
                }
                w.ghost.commit_op(&tok).ghost_unwrap()
            }
        };

        self.lockinvs[a as usize].put(bundle).ghost_unwrap();
        lock.release();
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }
}

impl System<RdSpec> for VerifiedReplDisk {
    /// Rebuilds in-memory locks (called at every boot).
    fn boot(&self, w: &World<RdSpec>) {
        *self.locks.write() = (0..self.size).map(|_| w.rt.new_glock()).collect();
    }

    /// Disk platters are durable; locks are rebuilt by `boot`.
    fn crash(&self) {}

    /// Instrumented `rd_recover` (Figure 5 plus the §5.4 helping proof).
    ///
    /// Runs with `⇛Crashing` armed. For each address it copies disk 1 to
    /// disk 2; if the (logical) disks differed there, the copy is
    /// justified by redeeming the helping token the crashed writer left
    /// in the crash invariant. Finally it re-establishes every lock
    /// invariant with fresh leases and spends the crash token.
    fn recover(&self, w: &World<RdSpec>) {
        for a in 0..self.size {
            let mut lease1 = w.ghost.recover_lease(self.d1[a as usize]).ghost_unwrap();
            let mut lease2 = w.ghost.recover_lease(self.d2[a as usize]).ghost_unwrap();

            if self.mutant == RdMutant::ZeroingRecovery {
                let z = vec![0u8; self.disks.block_size()];
                self.disks.disk_write(DiskId::D1, a, &z);
                w.ghost
                    .write_durable(self.d1[a as usize], &mut lease1, z.clone())
                    .ghost_unwrap();
                self.disks.disk_write(DiskId::D2, a, &z);
                w.ghost
                    .write_durable(self.d2[a as usize], &mut lease2, z.clone())
                    .ghost_unwrap();
                self.lockinvs[a as usize].reset(AddrBundle { lease1, lease2 });
                continue;
            }

            if let Some(v1) = self.disks.disk_read(DiskId::D1, a) {
                let m2: Block = w.ghost.read_master(self.d2[a as usize]).ghost_unwrap();
                // Copy disk1 → disk2 (Figure 5). The ghost mirror update,
                // and — when the disks differed — the helping commit, are
                // adjacent to the physical write (one atomic step).
                self.disks.disk_write(DiskId::D2, a, &v1);
                w.ghost
                    .write_durable(self.d2[a as usize], &mut lease2, v1.clone())
                    .ghost_unwrap();
                if m2 != v1 {
                    // The disks diverged at `a`: a writer crashed between
                    // its two disk writes and its j ⇛ Write(a, v1) token
                    // is stashed under `a`. Redeem it (§5.4).
                    let (_jid, ret) = w.ghost.help_commit(a).ghost_unwrap();
                    debug_assert_eq!(ret, RdRet::Unit);
                } else if w.ghost.has_help(a) {
                    // Token stashed but the disks agree: the writer
                    // crashed before its first disk write took effect (or
                    // wrote the value already present). The operation
                    // never happened; drop the token.
                    w.ghost.drop_help(a).ghost_unwrap();
                }
            } else if w.ghost.has_help(a) {
                // Disk 1 has failed, so a write that crashed before
                // reaching disk 2 is simply lost with it — the operation
                // never happened (its caller observed no return).
                w.ghost.drop_help(a).ghost_unwrap();
            }
            self.lockinvs[a as usize].reset(AddrBundle { lease1, lease2 });
        }
        w.ghost.recovery_done().ghost_unwrap();
    }

    /// AbsR at quiescence: every *working* disk equals σ (the lock
    /// invariant's "values agree when the lock is free" holds at
    /// quiescence). A failed disk's platter is frozen and excused — the
    /// plan-scheduled failure sweeps fail either disk.
    fn abs_check(&self, w: &World<RdSpec>) -> Result<(), String> {
        let sigma: RdState = w.ghost.spec_state();
        let d1_failed = self.disks.is_failed(DiskId::D1);
        let d2_failed = self.disks.is_failed(DiskId::D2);
        for a in 0..self.size {
            let expect = sigma.get(&a).cloned().unwrap();
            if !d2_failed {
                let d2 = self.disks.peek(DiskId::D2, a);
                if d2 != expect {
                    return Err(format!(
                        "AbsR violated: disk2[{a}] = {d2:?}, spec has {expect:?}"
                    ));
                }
            }
            if !d1_failed {
                let d1 = self.disks.peek(DiskId::D1, a);
                if d1 != expect {
                    return Err(format!(
                        "AbsR violated: disk1[{a}] = {d1:?}, spec has {expect:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn fail_disk(&self, disk: u8) {
        self.disks
            .fail(if disk == 1 { DiskId::D1 } else { DiskId::D2 });
    }
}

//! The shadow-copy pattern (§9.1): atomic update of a pair of disk
//! blocks by writing a fresh copy and atomically flipping an install
//! pointer.
//!
//! Disk layout (block size 8):
//!
//! ```text
//! block 0: install pointer (0 → copy A is live, 1 → copy B is live)
//! blocks 1,2: copy A
//! blocks 3,4: copy B
//! ```
//!
//! `put` writes the *inactive* copy, then flips the pointer — a single
//! atomic block write, which is the linearization point. A crash before
//! the flip leaves the half-written shadow invisible (Mailboat's spool
//! files use the same idea, §9.1); recovery has nothing to repair beyond
//! re-establishing leases.

use crate::pair_spec::{dec, enc, PairOp, PairRet, PairSpec};
use goose_rt::fault::FaultSurface;
use goose_rt::runtime::{GLock, ModelRtExt};
use parking_lot::RwLock;
use perennial::{DurId, GhostUnwrap, Lease, LockInv};
use perennial_checker::{Harness, Script, System, World};
use perennial_disk::buffered::BufferedDisk;
use perennial_disk::single::SingleDisk;
use std::sync::Arc;

/// Deliberate bugs for mutation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowMutant {
    /// The correct system.
    None,
    /// Flip the install pointer *before* writing the shadow copy — a
    /// crash in between exposes a torn pair.
    FlipFirst,
    /// Write the new values directly over the live copy (no shadow at
    /// all) — a crash between the two writes exposes a torn pair.
    InPlace,
}

/// Ghost bundle protected by the global lock: leases for all five blocks.
pub struct ShadowBundle {
    leases: Vec<Lease<Vec<u8>>>,
}

/// The instrumented shadow-copy pair store.
pub struct ShadowPair {
    mutant: ShadowMutant,
    disk: Arc<BufferedDisk>,
    cells: Vec<DurId<Vec<u8>>>,
    lockinv: Arc<LockInv<ShadowBundle>>,
    lock: RwLock<Option<Arc<dyn GLock>>>,
}

impl ShadowPair {
    /// Blocks used by the pattern.
    pub const NBLOCKS: u64 = 5;

    /// Sets up ghost resources over a fresh 5-block disk.
    pub fn new(w: &World<PairSpec>, disk: Arc<BufferedDisk>, mutant: ShadowMutant) -> Self {
        let mut cells = Vec::new();
        let mut leases = Vec::new();
        for _ in 0..Self::NBLOCKS {
            let (c, l) = w.ghost.alloc_durable(vec![0u8; 8]);
            cells.push(c);
            leases.push(l);
        }
        ShadowPair {
            mutant,
            disk,
            cells,
            lockinv: Arc::new(LockInv::new(ShadowBundle { leases })),
            lock: RwLock::new(None),
        }
    }

    fn lock(&self) -> Arc<dyn GLock> {
        Arc::clone(self.lock.read().as_ref().expect("boot() not called"))
    }

    fn write_block(&self, w: &World<PairSpec>, bundle: &mut ShadowBundle, block: u64, v: u64) {
        self.disk.write(block, &enc(v));
        w.ghost
            .write_durable(
                self.cells[block as usize],
                &mut bundle.leases[block as usize],
                enc(v),
            )
            .ghost_unwrap();
    }

    /// Atomically replaces the pair.
    pub fn put(&self, w: &World<PairSpec>, a: u64, b: u64) {
        let tok = w.ghost.begin_op(PairOp::Put(a, b)).ghost_unwrap();
        let lock = self.lock();
        lock.acquire();
        let mut bundle = self.lockinv.take().ghost_unwrap();

        match self.mutant {
            ShadowMutant::None => {
                let live = dec(&self.disk.read(0));
                let (dst1, dst2, flip) = if live == 0 { (3, 4, 1) } else { (1, 2, 0) };
                // Write the shadow copy (invisible until installed) and
                // flush it durable before the install.
                self.write_block(w, &mut bundle, dst1, a);
                self.write_block(w, &mut bundle, dst2, b);
                self.disk.flush();
                // Flip the install pointer: the linearization point; the
                // ghost commit is adjacent to the atomic write-through.
                self.disk.write_through(0, &enc(flip));
                w.ghost
                    .write_durable(self.cells[0], &mut bundle.leases[0], enc(flip))
                    .ghost_unwrap();
                let ret = w.ghost.commit_op(&tok).ghost_unwrap();
                self.lockinv.put(bundle).ghost_unwrap();
                lock.release();
                w.ghost.finish_op(tok, &ret).ghost_unwrap();
            }
            ShadowMutant::FlipFirst => {
                let live = dec(&self.disk.read(0));
                let (dst1, dst2, flip) = if live == 0 { (3, 4, 1) } else { (1, 2, 0) };
                self.disk.write_through(0, &enc(flip));
                w.ghost
                    .write_durable(self.cells[0], &mut bundle.leases[0], enc(flip))
                    .ghost_unwrap();
                let ret = w.ghost.commit_op(&tok).ghost_unwrap();
                self.write_block(w, &mut bundle, dst1, a);
                self.write_block(w, &mut bundle, dst2, b);
                self.lockinv.put(bundle).ghost_unwrap();
                lock.release();
                w.ghost.finish_op(tok, &ret).ghost_unwrap();
            }
            ShadowMutant::InPlace => {
                let live = dec(&self.disk.read(0));
                let (dst1, dst2) = if live == 0 { (1, 2) } else { (3, 4) };
                self.write_block(w, &mut bundle, dst1, a);
                let ret = w.ghost.commit_op(&tok).ghost_unwrap();
                self.write_block(w, &mut bundle, dst2, b);
                self.lockinv.put(bundle).ghost_unwrap();
                lock.release();
                w.ghost.finish_op(tok, &ret).ghost_unwrap();
            }
        }
    }

    /// Reads the pair.
    pub fn get(&self, w: &World<PairSpec>) -> (u64, u64) {
        let tok = w.ghost.begin_op(PairOp::Get).ghost_unwrap();
        let lock = self.lock();
        lock.acquire();
        let bundle = self.lockinv.take().ghost_unwrap();
        let live = dec(&self.disk.read(0));
        let (src1, src2) = if live == 0 { (1, 2) } else { (3, 4) };
        let a = dec(&self.disk.read(src1));
        // The last read is the linearization point (commit adjacent).
        let b = dec(&self.disk.read(src2));
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        self.lockinv.put(bundle).ghost_unwrap();
        lock.release();
        w.ghost.finish_op(tok, &PairRet::Val(a, b)).ghost_unwrap();
        match ret {
            PairRet::Val(x, y) => (x, y),
            PairRet::Unit => unreachable!("get committed a put transition"),
        }
    }
}

impl System<PairSpec> for ShadowPair {
    /// Rebuilds the in-memory lock at boot.
    fn boot(&self, w: &World<PairSpec>) {
        *self.lock.write() = Some(w.rt.new_glock());
    }

    /// Crash transition for the disk: drop (or tear) the volatile write
    /// buffer per the execution's fault plan.
    fn crash(&self) {
        self.disk.crash_torn();
    }

    /// Recovery: nothing to repair — an uninstalled shadow is invisible.
    /// Re-establishes leases and spends the crash token.
    fn recover(&self, w: &World<PairSpec>) {
        let mut leases = Vec::new();
        for c in &self.cells {
            leases.push(w.ghost.recover_lease(*c).ghost_unwrap());
        }
        self.lockinv.reset(ShadowBundle { leases });
        w.ghost.recovery_done().ghost_unwrap();
    }

    /// AbsR at quiescence: the live copy equals σ.
    fn abs_check(&self, w: &World<PairSpec>) -> Result<(), String> {
        let sigma = w.ghost.spec_state();
        let live = dec(&self.disk.peek(0));
        let (s1, s2) = if live == 0 { (1, 2) } else { (3, 4) };
        let pair = (dec(&self.disk.peek(s1)), dec(&self.disk.peek(s2)));
        if pair != sigma {
            return Err(format!("AbsR violated: live copy {pair:?}, spec {sigma:?}"));
        }
        Ok(())
    }
}

/// Checker harness for the shadow-copy pattern.
pub struct ShadowHarness {
    /// Which mutant to run.
    pub mutant: ShadowMutant,
    /// Include a concurrent reader thread.
    pub with_reader: bool,
}

impl Default for ShadowHarness {
    fn default() -> Self {
        ShadowHarness {
            mutant: ShadowMutant::None,
            with_reader: true,
        }
    }
}

impl Harness<PairSpec> for ShadowHarness {
    type Sys = ShadowPair;

    fn spec(&self) -> PairSpec {
        PairSpec
    }

    fn make(&self, w: &World<PairSpec>) -> Script<ShadowPair, PairSpec> {
        let disk = BufferedDisk::new(Arc::clone(&w.rt), ShadowPair::NBLOCKS, 8);
        let mut script = Script::new(ShadowPair::new(w, disk, self.mutant));
        script.thread("putter", |sys, w| sys.put(w, 7, 8));
        if self.with_reader {
            script.thread("getter", |sys, w| {
                let (a, b) = sys.get(w);
                // Atomicity: never a torn pair.
                assert!((a, b) == (0, 0) || (a, b) == (7, 8), "torn pair ({a},{b})");
            });
        }
        script.after("post-crash", |sys, w| {
            // Read first: whatever committed before the crash must be
            // visible now (the get's finish_op checks the value against
            // the spec state).
            let _ = sys.get(w);
            sys.put(w, 10, 11);
            assert_eq!(sys.get(w), (10, 11));
        });
        script
    }

    fn name(&self) -> &str {
        "shadow copy"
    }

    fn fault_surface(&self) -> FaultSurface {
        FaultSurface {
            transient_disk_io: true,
            torn_writes: true,
            ..FaultSurface::none()
        }
    }
}

//! The write-ahead-log pattern (§9.1): atomic update of a pair of disk
//! blocks via a log, with **recovery helping** for a committed but
//! unapplied transaction — the paper: "The proof uses recovery helping to
//! justify completing a committed but unapplied transaction."
//!
//! Disk layout (block size 8):
//!
//! ```text
//! block 0: log header — 0 = empty, 1 = committed
//! blocks 1,2: logged pair
//! blocks 3,4: main pair (what readers see)
//! ```
//!
//! `put` logs both values, sets the header (making the transaction
//! durable), applies the log to the main region, and clears the header.
//! The *logical* update happens when the main region is complete: the
//! thread commits its spec step adjacently with the header-clear write.
//! If it crashes after setting the header but before clearing it,
//! recovery finds the committed transaction, finishes applying it, and
//! redeems the helping token stashed in the crash invariant to justify
//! the spec step on the crashed thread's behalf.
//!
//! The disk is a [`BufferedDisk`]: data writes land in a volatile buffer
//! and must be made durable by an explicit [`BufferedDisk::flush`]
//! *before* the header transition that depends on them; the header
//! itself goes through [`BufferedDisk::write_through`] so each commit
//! record stays a single atomic durable write. The checker's torn-write
//! sweep crashes with the buffer only partially persisted, so a missing
//! flush (see [`WalMutant::SkipCommitFlush`]) is a findable bug, not a
//! silent assumption.

use crate::pair_spec::{dec, enc, PairOp, PairRet, PairSpec};
use goose_rt::fault::FaultSurface;
use goose_rt::runtime::{GLock, ModelRtExt};
use perennial::{DurId, GhostUnwrap, Lease, LockInv};
use perennial_checker::{Harness, Program, Script, System, World};
use perennial_disk::buffered::{BufferedDisk, BufferedImage};
use perennial_disk::single::SingleDisk;
use perennial_disk::Block;
use std::sync::Arc;
use PairOp::{Get, Put};

/// Helping key for the single in-flight transaction (the global lock
/// admits one at a time).
const TXN_KEY: u64 = 0;

/// Deliberate bugs for mutation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalMutant {
    /// The correct system.
    None,
    /// Recovery ignores a committed-but-unapplied transaction (drops it).
    SkipRecoveryApply,
    /// Set the header before writing the log entries (a crash in between
    /// makes recovery apply garbage).
    HeaderFirst,
    /// Never stash the helping token.
    SkipHelping,
    /// Skip the flush that makes the log entries durable before the
    /// commit header is set. Invisible to the plain crash sweep (an
    /// un-torn crash persists the buffer anyway) — only the torn-write
    /// sweep catches it, by crashing with the header durable but the log
    /// torn away.
    SkipCommitFlush,
}

/// Ghost bundle protected by the global lock.
pub struct WalBundle {
    leases: Vec<Lease<Block>>,
}

/// The instrumented write-ahead-log pair store.
pub struct WalPair {
    mutant: WalMutant,
    disk: Arc<BufferedDisk>,
    cells: Vec<DurId<Block>>,
    lockinv: Arc<LockInv<WalBundle>>,
    lock: Arc<dyn GLock>,
}

impl WalPair {
    /// Blocks used by the pattern.
    pub const NBLOCKS: u64 = 5;

    /// Sets up ghost resources over a fresh 5-block disk.
    pub fn new(w: &World<PairSpec>, disk: Arc<BufferedDisk>, mutant: WalMutant) -> Self {
        let mut cells = Vec::new();
        let mut leases = Vec::new();
        for _ in 0..Self::NBLOCKS {
            let (c, l) = w.ghost.alloc_durable(Block::zeroed(8));
            cells.push(c);
            leases.push(l);
        }
        WalPair {
            mutant,
            disk,
            cells,
            lockinv: Arc::new(LockInv::new(WalBundle { leases })),
            lock: w.rt.new_glock(),
        }
    }

    /// Buffered data write + ghost update. The ghost master is updated at
    /// write time even though the physical write is still volatile; this
    /// is sound here because nothing compares the ghost master against
    /// the platter, and recovery rewrites every cell it touches (see
    /// DESIGN.md §10 on this deliberate modelling shortcut).
    fn wblk(&self, w: &World<PairSpec>, bundle: &mut WalBundle, block: u64, v: u64) {
        self.disk.write(block, &enc(v));
        w.ghost
            .write_durable(
                self.cells[block as usize],
                &mut bundle.leases[block as usize],
                enc(v),
            )
            .ghost_unwrap();
    }

    /// Durable header transition: a single write-through block write (the
    /// commit record must not have a torn window).
    fn set_header(&self, w: &World<PairSpec>, bundle: &mut WalBundle, v: u64) {
        self.disk.write_through(0, &enc(v));
        w.ghost
            .write_durable(self.cells[0], &mut bundle.leases[0], enc(v))
            .ghost_unwrap();
    }

    /// Atomically replaces the pair via the log.
    pub fn put(&self, w: &World<PairSpec>, a: u64, b: u64) {
        let tok = w.ghost.begin_op(PairOp::Put(a, b)).ghost_unwrap();
        self.lock.acquire();
        let mut bundle = self.lockinv.take().ghost_unwrap();

        // Stash j ⇛ Put(a, b): from the header write until the apply
        // completes, recovery may finish this transaction on our behalf.
        if self.mutant != WalMutant::SkipHelping {
            w.ghost.stash_op(&tok, TXN_KEY).ghost_unwrap();
        }

        if self.mutant == WalMutant::HeaderFirst {
            self.set_header(w, &mut bundle, 1);
            self.wblk(w, &mut bundle, 1, a);
            self.wblk(w, &mut bundle, 2, b);
            self.disk.flush();
        } else {
            // Log both values, flush so the log is durable, then commit
            // the transaction with the write-through header set.
            self.wblk(w, &mut bundle, 1, a);
            self.wblk(w, &mut bundle, 2, b);
            if self.mutant != WalMutant::SkipCommitFlush {
                self.disk.flush();
            }
            self.set_header(w, &mut bundle, 1);
        }

        // Apply the log to the main region and make it durable before
        // the header is cleared (recovery must never see an empty header
        // over a torn main region).
        self.wblk(w, &mut bundle, 3, a);
        self.wblk(w, &mut bundle, 4, b);
        self.disk.flush();

        // Clear the header: the apply is complete and the logical update
        // takes effect — retrieve the helping token and commit adjacently
        // with this atomic block write.
        self.set_header(w, &mut bundle, 0);
        if self.mutant != WalMutant::SkipHelping {
            w.ghost.unstash_op(&tok, TXN_KEY).ghost_unwrap();
        }
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();

        self.lockinv.put(bundle).ghost_unwrap();
        self.lock.release();
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }

    /// Reads the pair from the main region.
    pub fn get(&self, w: &World<PairSpec>) -> (u64, u64) {
        let tok = w.ghost.begin_op(PairOp::Get).ghost_unwrap();
        self.lock.acquire();
        let bundle = self.lockinv.take().ghost_unwrap();
        let a = dec(&self.disk.read(3));
        let b = dec(&self.disk.read(4));
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        self.lockinv.put(bundle).ghost_unwrap();
        self.lock.release();
        w.ghost.finish_op(tok, &PairRet::Val(a, b)).ghost_unwrap();
        match ret {
            PairRet::Val(x, y) => (x, y),
            PairRet::Unit => unreachable!("get committed a put transition"),
        }
    }
}

impl System<PairSpec> for WalPair {
    type Durable = BufferedImage;

    /// The disk, unflushed writes included: `crash` decides which of them
    /// survive.
    fn snapshot(&self) -> BufferedImage {
        self.disk.image()
    }

    fn restore(&self, snap: &BufferedImage) {
        self.disk.restore(snap);
    }

    /// Crash transition for the disk: drop (or tear) the volatile write
    /// buffer per the execution's fault plan.
    fn crash(&self) {
        self.disk.crash_torn();
    }

    /// Every cell's lease, back in the lock invariant.
    fn relet(&self, w: &World<PairSpec>) {
        let leases = self
            .cells
            .iter()
            .map(|c| w.ghost.recover_lease(*c).ghost_unwrap());
        self.lockinv.reset(WalBundle {
            leases: leases.collect(),
        });
    }

    /// Recovery (§9.1): delete incomplete transactions (header empty —
    /// nothing to do, the log is garbage) and finish applying committed
    /// ones, justifying the completion by redeeming the helping token.
    fn recover(&self, w: &World<PairSpec>) {
        let mut leases = Vec::new();
        for c in &self.cells {
            leases.push(w.ghost.recover_lease(*c).ghost_unwrap());
        }
        let mut bundle = WalBundle { leases };

        let header = dec(&self.disk.read(0));
        if header == 1 && self.mutant != WalMutant::SkipRecoveryApply {
            // Committed but unapplied: finish the apply, flush it durable,
            // then clear the header write-through.
            let a = dec(&self.disk.read(1));
            let b = dec(&self.disk.read(2));
            self.wblk(w, &mut bundle, 3, a);
            self.wblk(w, &mut bundle, 4, b);
            self.disk.flush();
            // Clear the header; the crashed thread's operation takes
            // logical effect here — redeem its token (§5.4).
            self.set_header(w, &mut bundle, 0);
            let (_jid, ret) = w.ghost.help_commit(TXN_KEY).ghost_unwrap();
            debug_assert_eq!(ret, PairRet::Unit);
        } else if w.ghost.has_help(TXN_KEY) {
            // Incomplete (header empty): the transaction never committed;
            // the crashed operation never happened.
            w.ghost.drop_help(TXN_KEY).ghost_unwrap();
        }

        self.lockinv.reset(bundle);
        w.ghost.recovery_done().ghost_unwrap();
    }

    /// AbsR at quiescence: the main region equals σ and no transaction is
    /// left committed-but-unapplied.
    fn abs_check(&self, w: &World<PairSpec>) -> Result<(), String> {
        let sigma = w.ghost.spec_state();
        let pair = (dec(&self.disk.peek(3)), dec(&self.disk.peek(4)));
        if pair != sigma {
            return Err(format!(
                "AbsR violated: main region {pair:?}, spec {sigma:?}"
            ));
        }
        if dec(&self.disk.peek(0)) != 0 {
            return Err("AbsR violated: header left committed at quiescence".into());
        }
        Ok(())
    }
}

/// The post-recovery round: read first (a committed-but-unapplied
/// transaction must have been completed by recovery and be visible
/// here), then update and read again.
const AFTER: &[PairOp] = &[Get, Put(20, 21), Get];

/// A putter and a concurrent getter.
pub static PUT_GET: Program<PairOp> = Program {
    threads: &[("putter", &[Put(5, 6)]), ("getter", &[Get])],
    after: AFTER,
};

/// The putter alone.
pub static PUT: Program<PairOp> = Program {
    threads: &[("putter", &[Put(5, 6)])],
    after: AFTER,
};

/// Checker harness for the write-ahead-log pattern: a mutant and the
/// program it runs.
pub struct WalHarness {
    /// Which mutant to run.
    pub mutant: WalMutant,
    /// The workload.
    pub program: &'static Program<PairOp>,
}

/// Takes one step of a pair program.
pub fn step(sys: &WalPair, w: &World<PairSpec>, op: &PairOp) {
    match *op {
        Put(a, b) => sys.put(w, a, b),
        Get => _ = sys.get(w),
    }
}

impl Harness<PairSpec> for WalHarness {
    type Sys = WalPair;

    fn spec(&self) -> PairSpec {
        PairSpec
    }

    fn make(&self, w: &World<PairSpec>) -> Script<WalPair, PairSpec> {
        let disk = BufferedDisk::new(Arc::clone(&w.rt), WalPair::NBLOCKS, 8);
        let mut script = Script::new(WalPair::new(w, disk, self.mutant));
        script.program(self.program, step);
        script
    }

    fn name(&self) -> &str {
        "write-ahead log"
    }

    fn fault_surface(&self) -> FaultSurface {
        crate::BUFFERED_DISK
    }
}

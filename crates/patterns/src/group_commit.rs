//! The group-commit pattern (§9.1): transactions are buffered in memory
//! and committed to disk in batches, amortizing the cost of commit at the
//! price of *losing buffered transactions on crash* — which the
//! specification says explicitly, via a crash transition that truncates
//! the un-persisted suffix.
//!
//! Disk layout (block size 8):
//!
//! ```text
//! block 0: count of persisted entries
//! blocks 1..=CAP: one entry per block, in append order
//! ```
//!
//! `append` linearizes immediately (the entry is in the logical log even
//! though it is volatile); `flush` persists the buffered suffix and then
//! advances the spec's `persisted` watermark via an *internal* spec
//! transition adjacent to the count-block write. The crash transition
//! then truncates precisely the entries beyond the watermark.

use goose_rt::fault::FaultSurface;
use goose_rt::runtime::{GLock, ModelRtExt};
use parking_lot::owner::OwnerCell;
use parking_lot::RwLock;
use perennial::{DurId, GhostUnwrap, Lease, LockInv};
use perennial_checker::{Harness, Script, System, World};
use perennial_disk::buffered::BufferedDisk;
use perennial_disk::single::SingleDisk;
use perennial_spec::{SpecTS, Transition};
use std::sync::Arc;

/// Maximum entries the on-disk log holds.
pub const CAP: u64 = 8;

/// Abstract state of the group-commit log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GcState {
    /// The logical log (including buffered entries).
    pub entries: Vec<u64>,
    /// How many leading entries are durable.
    pub persisted: usize,
}

/// Operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcOp {
    /// Append an entry (buffered until the next flush).
    Append(u64),
    /// Read the whole logical log.
    ReadAll,
}

/// Return values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcRet {
    /// `Append` acknowledgement.
    Done,
    /// `ReadAll` result.
    Entries(Vec<u64>),
}

/// The group-commit specification.
#[derive(Debug, Clone, Default)]
pub struct GcSpec;

impl GcSpec {
    /// The internal flush transition: everything buffered becomes
    /// durable.
    pub fn flush_transition() -> Transition<GcState, ()> {
        Transition::modify(|s: &GcState| {
            let mut s = s.clone();
            s.persisted = s.entries.len();
            s
        })
    }
}

impl SpecTS for GcSpec {
    type State = GcState;
    type Op = GcOp;
    type Ret = GcRet;

    fn init(&self) -> GcState {
        GcState::default()
    }

    fn op_transition(&self, op: &GcOp) -> Transition<GcState, GcRet> {
        match op.clone() {
            GcOp::Append(v) => {
                Transition::gets(|s: &GcState| s.entries.len() as u64).and_then(move |len| {
                    if len >= CAP {
                        // Appending past capacity is caller UB.
                        Transition::undefined()
                    } else {
                        Transition::modify(move |s: &GcState| {
                            let mut s = s.clone();
                            s.entries.push(v);
                            s
                        })
                        .map(|()| GcRet::Done)
                    }
                })
            }
            GcOp::ReadAll => Transition::gets(|s: &GcState| GcRet::Entries(s.entries.clone())),
        }
    }

    /// The crash transition drops the un-persisted suffix — this is the
    /// "specifies when transactions can be lost" of §9.1.
    fn crash_transition(&self) -> Transition<GcState, ()> {
        Transition::modify(|s: &GcState| {
            let mut s = s.clone();
            s.entries.truncate(s.persisted);
            s
        })
    }
}

/// Deliberate bugs for mutation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcMutant {
    /// The correct system.
    None,
    /// Write the count block before the entry blocks (a crash in between
    /// makes recovery read garbage entries as persisted).
    CountFirst,
    /// Acknowledge appends as durable: advance the spec watermark at
    /// append time without writing anything (crash loses acknowledged
    /// durability).
    FakeDurability,
}

/// Ghost bundle protected by the global lock.
pub struct GcBundle {
    leases: Vec<Lease<Vec<u8>>>,
}

/// The instrumented group-commit log.
pub struct GroupCommitLog {
    mutant: GcMutant,
    disk: Arc<BufferedDisk>,
    cells: Vec<DurId<Vec<u8>>>,
    lockinv: Arc<LockInv<GcBundle>>,
    lock: RwLock<Option<Arc<dyn GLock>>>,
    /// Volatile: entries appended since the last flush. Cleared at boot.
    buffer: OwnerCell<Vec<u64>>,
}

fn enc(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("short block"))
}

impl GroupCommitLog {
    /// Blocks used by the pattern.
    pub const NBLOCKS: u64 = CAP + 1;

    /// Sets up ghost resources over a fresh disk.
    pub fn new(w: &World<GcSpec>, disk: Arc<BufferedDisk>, mutant: GcMutant) -> Self {
        let mut cells = Vec::new();
        let mut leases = Vec::new();
        for _ in 0..Self::NBLOCKS {
            let (c, l) = w.ghost.alloc_durable(vec![0u8; 8]);
            cells.push(c);
            leases.push(l);
        }
        GroupCommitLog {
            mutant,
            disk,
            cells,
            lockinv: Arc::new(LockInv::new(GcBundle { leases })),
            lock: RwLock::new(None),
            buffer: OwnerCell::new(Vec::new()),
        }
    }

    fn lock(&self) -> Arc<dyn GLock> {
        Arc::clone(self.lock.read().as_ref().expect("boot() not called"))
    }

    /// Appends an entry. Linearizes immediately (at the buffer insert);
    /// durability comes only from a later flush.
    pub fn append(&self, w: &World<GcSpec>, v: u64) {
        let tok = w.ghost.begin_op(GcOp::Append(v)).ghost_unwrap();
        let lock = self.lock();
        lock.acquire();
        // The buffer insert is the linearization point.
        self.buffer.lock().push(v);
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        if self.mutant == GcMutant::FakeDurability {
            // Lie: advance the durable watermark without touching disk.
            w.ghost
                .internal_step(&GcSpec::flush_transition())
                .ghost_unwrap();
        }
        lock.release();
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }

    /// Flushes buffered entries to disk as one batch (the amortization).
    pub fn flush(&self, w: &World<GcSpec>) {
        let lock = self.lock();
        lock.acquire();
        let mut bundle = self.lockinv.take().ghost_unwrap();
        let persisted = dec(&self.disk.read(0)) as usize;
        let buffered: Vec<u64> = self.buffer.lock().clone();

        if self.mutant == GcMutant::CountFirst {
            let n = persisted + buffered.len();
            self.disk.write_through(0, &enc(n as u64));
            w.ghost
                .write_durable(self.cells[0], &mut bundle.leases[0], enc(n as u64))
                .ghost_unwrap();
            w.ghost
                .internal_step(&GcSpec::flush_transition())
                .ghost_unwrap();
            for (i, v) in buffered.iter().enumerate() {
                let blk = (persisted + i + 1) as u64;
                self.disk.write(blk, &enc(*v));
                w.ghost
                    .write_durable(
                        self.cells[blk as usize],
                        &mut bundle.leases[blk as usize],
                        enc(*v),
                    )
                    .ghost_unwrap();
            }
            self.disk.flush();
        } else {
            // Entry blocks first, flushed durable…
            for (i, v) in buffered.iter().enumerate() {
                let blk = (persisted + i + 1) as u64;
                self.disk.write(blk, &enc(*v));
                w.ghost
                    .write_durable(
                        self.cells[blk as usize],
                        &mut bundle.leases[blk as usize],
                        enc(*v),
                    )
                    .ghost_unwrap();
            }
            self.disk.flush();
            // …then the count block: the durability point, a single
            // write-through. The internal spec step advancing the
            // watermark is adjacent.
            let n = persisted + buffered.len();
            self.disk.write_through(0, &enc(n as u64));
            w.ghost
                .write_durable(self.cells[0], &mut bundle.leases[0], enc(n as u64))
                .ghost_unwrap();
            w.ghost
                .internal_step(&GcSpec::flush_transition())
                .ghost_unwrap();
        }

        self.buffer.lock().clear();
        self.lockinv.put(bundle).ghost_unwrap();
        lock.release();
    }

    /// Reads the whole logical log (durable prefix plus buffer).
    pub fn read_all(&self, w: &World<GcSpec>) -> Vec<u64> {
        let tok = w.ghost.begin_op(GcOp::ReadAll).ghost_unwrap();
        let lock = self.lock();
        lock.acquire();
        let bundle = self.lockinv.take().ghost_unwrap();
        let persisted = dec(&self.disk.read(0)) as usize;
        let mut out = Vec::new();
        for i in 0..persisted {
            out.push(dec(&self.disk.read(i as u64 + 1)));
        }
        out.extend(self.buffer.lock().iter().copied());
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        self.lockinv.put(bundle).ghost_unwrap();
        lock.release();
        w.ghost
            .finish_op(tok, &GcRet::Entries(out.clone()))
            .ghost_unwrap();
        match ret {
            GcRet::Entries(spec) => {
                debug_assert_eq!(spec, out);
                out
            }
            GcRet::Done => unreachable!("read committed an append transition"),
        }
    }
}

impl System<GcSpec> for GroupCommitLog {
    /// Rebuilds volatile state at boot: a fresh lock and an empty buffer
    /// (buffered transactions are lost — that is the point).
    fn boot(&self, w: &World<GcSpec>) {
        *self.lock.write() = Some(w.rt.new_glock());
        self.buffer.lock().clear();
    }

    /// Crash transition for the disk: drop (or tear) the volatile write
    /// buffer per the execution's fault plan.
    fn crash(&self) {
        self.disk.crash_torn();
    }

    /// Recovery: the durable prefix is already consistent; re-establish
    /// leases and spend the crash token (whose spec transition truncates
    /// the buffered suffix).
    fn recover(&self, w: &World<GcSpec>) {
        let mut leases = Vec::new();
        for c in &self.cells {
            leases.push(w.ghost.recover_lease(*c).ghost_unwrap());
        }
        self.lockinv.reset(GcBundle { leases });
        w.ghost.recovery_done().ghost_unwrap();
    }

    /// AbsR at quiescence: disk prefix + buffer equals σ's entries, and
    /// the persisted watermark matches the count block.
    fn abs_check(&self, w: &World<GcSpec>) -> Result<(), String> {
        let sigma = w.ghost.spec_state();
        let persisted = dec(&self.disk.peek(0)) as usize;
        let mut log = Vec::new();
        for i in 0..persisted {
            log.push(dec(&self.disk.peek(i as u64 + 1)));
        }
        log.extend(self.buffer.lock().iter().copied());
        if log != sigma.entries {
            return Err(format!(
                "AbsR violated: disk+buffer {log:?}, spec {:?}",
                sigma.entries
            ));
        }
        if persisted > sigma.entries.len() || persisted != sigma.persisted {
            return Err(format!(
                "AbsR violated: disk watermark {persisted}, spec watermark {}",
                sigma.persisted
            ));
        }
        Ok(())
    }
}

/// Checker harness for group commit.
pub struct GcHarness {
    /// Which mutant to run.
    pub mutant: GcMutant,
}

impl Default for GcHarness {
    fn default() -> Self {
        GcHarness {
            mutant: GcMutant::None,
        }
    }
}

impl Harness<GcSpec> for GcHarness {
    type Sys = GroupCommitLog;

    fn spec(&self) -> GcSpec {
        GcSpec
    }

    fn make(&self, w: &World<GcSpec>) -> Script<GroupCommitLog, GcSpec> {
        let disk = BufferedDisk::new(Arc::clone(&w.rt), GroupCommitLog::NBLOCKS, 8);
        let mut script = Script::new(GroupCommitLog::new(w, disk, self.mutant));
        script.thread("appender-a", |sys, w| {
            sys.append(w, 1);
            sys.append(w, 2);
        });
        script.thread("flusher", |sys, w| {
            sys.flush(w);
            sys.append(w, 3);
            sys.flush(w);
        });
        script.thread("reader", |sys, w| {
            let _ = sys.read_all(w);
        });
        script.after("post-crash", |sys, w| {
            // Whatever survived, appending and flushing still works and
            // reads reflect the spec.
            let before = sys.read_all(w);
            sys.append(w, 9);
            sys.flush(w);
            let after = sys.read_all(w);
            assert_eq!(after.len(), before.len() + 1);
            assert_eq!(*after.last().unwrap(), 9);
        });
        script
    }

    fn name(&self) -> &str {
        "group commit"
    }

    fn fault_surface(&self) -> FaultSurface {
        FaultSurface {
            transient_disk_io: true,
            torn_writes: true,
            ..FaultSurface::none()
        }
    }
}

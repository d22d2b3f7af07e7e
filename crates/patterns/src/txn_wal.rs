//! A generalized write-ahead log: multi-block atomic transactions.
//!
//! The paper's WAL example (§9.1) updates a fixed pair of blocks; this
//! module is the natural extension the paper's design points at — a
//! transaction writes an arbitrary set of (address, value) pairs
//! atomically over a data region, using an on-disk log with a commit
//! record and recovery helping for committed-but-unapplied transactions.
//!
//! Disk layout (block size 8, data region of `DATA_BLOCKS` blocks):
//!
//! ```text
//! block 0:                 log header — number of logged entries
//!                          (0 = log empty, n>0 = committed, n entries)
//! blocks 1..=MAX_TXN*2:    log entries, alternating address / value
//! blocks LOG_END..:        the data region
//! ```
//!
//! `commit_txn` writes the entries, then the header (the durable commit
//! point — a single atomic block write), applies them to the data
//! region, and clears the header; the *logical* update happens at the
//! header clear, with the helping token redeemed by recovery if a crash
//! intervenes (same structure as [`crate::wal`], generalized).

use goose_rt::fault::FaultSurface;
use goose_rt::runtime::{GLock, ModelRtExt};
use parking_lot::RwLock;
use perennial::{DurId, GhostUnwrap, Lease, LockInv};
use perennial_checker::{Harness, Script, System, World};
use perennial_disk::buffered::BufferedDisk;
use perennial_disk::single::SingleDisk;
use perennial_spec::{SpecTS, Transition};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Maximum (address, value) pairs per transaction.
pub const MAX_TXN: u64 = 4;
/// Number of data blocks.
pub const DATA_BLOCKS: u64 = 6;
/// First block of the data region.
pub const LOG_END: u64 = 1 + MAX_TXN * 2;

const TXN_KEY: u64 = 0;

/// Abstract state: the data region as a map.
pub type TxnState = BTreeMap<u64, u64>;

/// Operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOp {
    /// Atomically apply all writes.
    Commit(Vec<(u64, u64)>),
    /// Read one address.
    Read(u64),
}

/// Return values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnRet {
    /// `Commit` acknowledgement.
    Done,
    /// `Read` result.
    Val(u64),
}

/// The transactional-WAL specification.
#[derive(Debug, Clone, Default)]
pub struct TxnSpec;

impl SpecTS for TxnSpec {
    type State = TxnState;
    type Op = TxnOp;
    type Ret = TxnRet;

    fn init(&self) -> TxnState {
        (0..DATA_BLOCKS).map(|a| (a, 0)).collect()
    }

    fn op_transition(&self, op: &TxnOp) -> Transition<TxnState, TxnRet> {
        match op.clone() {
            TxnOp::Commit(writes) => {
                let probe = writes.clone();
                Transition::gets(move |s: &TxnState| {
                    probe.len() as u64 <= MAX_TXN && probe.iter().all(|(a, _)| s.contains_key(a))
                })
                .and_then(move |ok| {
                    let writes = writes.clone();
                    if ok {
                        Transition::modify(move |s: &TxnState| {
                            let mut s = s.clone();
                            for (a, v) in &writes {
                                s.insert(*a, *v);
                            }
                            s
                        })
                        .map(|()| TxnRet::Done)
                    } else {
                        Transition::undefined()
                    }
                })
            }
            TxnOp::Read(a) => {
                Transition::gets(move |s: &TxnState| s.get(&a).copied()).and_then(|mv| match mv {
                    Some(v) => Transition::ret(TxnRet::Val(v)),
                    None => Transition::undefined(),
                })
            }
        }
    }

    fn crash_transition(&self) -> Transition<TxnState, ()> {
        Transition::skip()
    }
}

/// Deliberate bugs for mutation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnMutant {
    /// The correct system.
    None,
    /// Apply directly to the data region, skipping the log entirely.
    NoLog,
    /// Write the header before the entries.
    HeaderFirst,
    /// Recovery replays only the first logged entry of a committed
    /// transaction (partial apply).
    PartialRecoveryApply,
}

fn enc(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("short block"))
}

/// Ghost bundle protected by the global transaction lock.
pub struct TxnBundle {
    leases: Vec<Lease<Vec<u8>>>,
}

/// The instrumented transactional WAL.
pub struct TxnWal {
    mutant: TxnMutant,
    disk: Arc<BufferedDisk>,
    cells: Vec<DurId<Vec<u8>>>,
    lockinv: Arc<LockInv<TxnBundle>>,
    lock: RwLock<Option<Arc<dyn GLock>>>,
}

impl TxnWal {
    /// Total blocks used.
    pub const NBLOCKS: u64 = LOG_END + DATA_BLOCKS;

    /// Sets up ghost resources over a fresh disk.
    pub fn new(w: &World<TxnSpec>, disk: Arc<BufferedDisk>, mutant: TxnMutant) -> Self {
        let mut cells = Vec::new();
        let mut leases = Vec::new();
        for _ in 0..Self::NBLOCKS {
            let (c, l) = w.ghost.alloc_durable(vec![0u8; 8]);
            cells.push(c);
            leases.push(l);
        }
        TxnWal {
            mutant,
            disk,
            cells,
            lockinv: Arc::new(LockInv::new(TxnBundle { leases })),
            lock: RwLock::new(None),
        }
    }

    fn lock(&self) -> Arc<dyn GLock> {
        Arc::clone(self.lock.read().as_ref().expect("boot() not called"))
    }

    fn wblk(&self, w: &World<TxnSpec>, bundle: &mut TxnBundle, block: u64, v: u64) {
        self.disk.write(block, &enc(v));
        w.ghost
            .write_durable(
                self.cells[block as usize],
                &mut bundle.leases[block as usize],
                enc(v),
            )
            .ghost_unwrap();
    }

    /// Durable header transition (write-through; see [`crate::wal`]).
    fn set_header(&self, w: &World<TxnSpec>, bundle: &mut TxnBundle, v: u64) {
        self.disk.write_through(0, &enc(v));
        w.ghost
            .write_durable(self.cells[0], &mut bundle.leases[0], enc(v))
            .ghost_unwrap();
    }

    /// Atomically applies `writes` to the data region.
    pub fn commit_txn(&self, w: &World<TxnSpec>, writes: &[(u64, u64)]) {
        assert!(writes.len() as u64 <= MAX_TXN, "transaction too large");
        let tok = w
            .ghost
            .begin_op(TxnOp::Commit(writes.to_vec()))
            .ghost_unwrap();
        let lock = self.lock();
        lock.acquire();
        let mut bundle = self.lockinv.take().ghost_unwrap();
        w.ghost.stash_op(&tok, TXN_KEY).ghost_unwrap();

        if self.mutant == TxnMutant::NoLog {
            for (a, v) in writes {
                self.wblk(w, &mut bundle, LOG_END + a, *v);
            }
            self.disk.flush();
        } else {
            if self.mutant == TxnMutant::HeaderFirst {
                self.set_header(w, &mut bundle, writes.len() as u64);
            }
            // Log the entries (address, value alternating).
            for (i, (a, v)) in writes.iter().enumerate() {
                self.wblk(w, &mut bundle, 1 + 2 * i as u64, *a);
                self.wblk(w, &mut bundle, 2 + 2 * i as u64, *v);
            }
            if self.mutant != TxnMutant::HeaderFirst {
                // Flush the log durable, then the durable commit point:
                // the write-through header names the entry count.
                self.disk.flush();
                self.set_header(w, &mut bundle, writes.len() as u64);
            }
            // Apply to the data region and flush it durable before the
            // header is cleared.
            for (a, v) in writes {
                self.wblk(w, &mut bundle, LOG_END + a, *v);
            }
            self.disk.flush();
        }

        // Clear the header; the logical update takes effect here.
        self.set_header(w, &mut bundle, 0);
        w.ghost.unstash_op(&tok, TXN_KEY).ghost_unwrap();
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();

        self.lockinv.put(bundle).ghost_unwrap();
        lock.release();
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }

    /// Reads one address from the data region.
    pub fn read(&self, w: &World<TxnSpec>, a: u64) -> u64 {
        let tok = w.ghost.begin_op(TxnOp::Read(a)).ghost_unwrap();
        let lock = self.lock();
        lock.acquire();
        let bundle = self.lockinv.take().ghost_unwrap();
        let v = dec(&self.disk.read(LOG_END + a));
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        self.lockinv.put(bundle).ghost_unwrap();
        lock.release();
        w.ghost.finish_op(tok, &TxnRet::Val(v)).ghost_unwrap();
        match ret {
            TxnRet::Val(x) => x,
            TxnRet::Done => unreachable!("read committed a txn transition"),
        }
    }
}

impl System<TxnSpec> for TxnWal {
    /// Rebuilds the in-memory lock at boot.
    fn boot(&self, w: &World<TxnSpec>) {
        *self.lock.write() = Some(w.rt.new_glock());
    }

    /// Crash transition for the disk: drop (or tear) the volatile write
    /// buffer per the execution's fault plan.
    fn crash(&self) {
        self.disk.crash_torn();
    }

    /// Recovery: replay a committed transaction from the log (helping),
    /// or discard an incomplete one.
    fn recover(&self, w: &World<TxnSpec>) {
        let mut leases = Vec::new();
        for c in &self.cells {
            leases.push(w.ghost.recover_lease(*c).ghost_unwrap());
        }
        let mut bundle = TxnBundle { leases };

        let n = dec(&self.disk.read(0));
        if n > 0 && n <= MAX_TXN {
            // Committed but (possibly) unapplied: replay the log.
            let limit = if self.mutant == TxnMutant::PartialRecoveryApply {
                1
            } else {
                n
            };
            for i in 0..limit {
                let a = dec(&self.disk.read(1 + 2 * i));
                let v = dec(&self.disk.read(2 + 2 * i));
                self.wblk(w, &mut bundle, LOG_END + a, v);
            }
            self.disk.flush();
            // Clear the header and redeem the crashed thread's token.
            self.set_header(w, &mut bundle, 0);
            let (_jid, ret) = w.ghost.help_commit(TXN_KEY).ghost_unwrap();
            debug_assert_eq!(ret, TxnRet::Done);
        } else if w.ghost.has_help(TXN_KEY) {
            // Incomplete: the transaction never committed.
            w.ghost.drop_help(TXN_KEY).ghost_unwrap();
        }

        self.lockinv.reset(bundle);
        w.ghost.recovery_done().ghost_unwrap();
    }

    /// AbsR at quiescence: data region equals σ and the log is clear.
    fn abs_check(&self, w: &World<TxnSpec>) -> Result<(), String> {
        let sigma = w.ghost.spec_state();
        for a in 0..DATA_BLOCKS {
            let disk_v = dec(&self.disk.peek(LOG_END + a));
            let spec_v = *sigma.get(&a).expect("address in spec");
            if disk_v != spec_v {
                return Err(format!(
                    "AbsR violated at data[{a}]: disk {disk_v}, spec {spec_v}"
                ));
            }
        }
        if dec(&self.disk.peek(0)) != 0 {
            return Err("AbsR violated: log header left committed".into());
        }
        Ok(())
    }
}

/// Checker harness for the transactional WAL.
pub struct TxnHarness {
    /// Which mutant to run.
    pub mutant: TxnMutant,
    /// Include a concurrent reader thread.
    pub with_reader: bool,
}

impl Default for TxnHarness {
    fn default() -> Self {
        TxnHarness {
            mutant: TxnMutant::None,
            with_reader: true,
        }
    }
}

impl Harness<TxnSpec> for TxnHarness {
    type Sys = TxnWal;

    fn spec(&self) -> TxnSpec {
        TxnSpec
    }

    fn make(&self, w: &World<TxnSpec>) -> Script<TxnWal, TxnSpec> {
        let disk = BufferedDisk::new(Arc::clone(&w.rt), TxnWal::NBLOCKS, 8);
        let mut script = Script::new(TxnWal::new(w, disk, self.mutant));
        script.thread("txn-writer", |sys, w| {
            sys.commit_txn(w, &[(0, 10), (2, 20), (4, 40)])
        });
        if self.with_reader {
            script.thread("reader", |sys, w| {
                // Two separate reads: the txn may commit in between (0
                // then 20 is legal), but the reverse order would mean the
                // committed transaction was torn back out.
                let v0 = sys.read(w, 0);
                let v2 = sys.read(w, 2);
                assert!(v0 == 0 || v0 == 10, "impossible data[0] = {v0}");
                assert!(v2 == 0 || v2 == 20, "impossible data[2] = {v2}");
                assert!(
                    !(v0 == 10 && v2 == 0),
                    "transaction unwound between reads: ({v0},{v2})"
                );
            });
        }
        script.after("post-crash", |sys, w| {
            // Read first (validates committed state survived), then run
            // another transaction.
            let _ = sys.read(w, 0);
            let _ = sys.read(w, 4);
            sys.commit_txn(w, &[(1, 11), (5, 55)]);
            assert_eq!(sys.read(w, 1), 11);
            assert_eq!(sys.read(w, 5), 55);
        });
        script
    }

    fn name(&self) -> &str {
        "transactional WAL"
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
    use perennial_spec::system::{ReplayError, SeqReplay};

    #[test]
    fn spec_applies_all_writes_atomically() {
        let mut r = SeqReplay::new(TxnSpec);
        r.step_op(&TxnOp::Commit(vec![(0, 1), (3, 9)])).unwrap();
        assert_eq!(r.step_op(&TxnOp::Read(0)).unwrap(), TxnRet::Val(1));
        assert_eq!(r.step_op(&TxnOp::Read(3)).unwrap(), TxnRet::Val(9));
        assert_eq!(r.step_op(&TxnOp::Read(1)).unwrap(), TxnRet::Val(0));
    }

    #[test]
    fn spec_rejects_oversized_or_oob_txn() {
        let mut r = SeqReplay::new(TxnSpec);
        let too_big: Vec<(u64, u64)> = (0..MAX_TXN + 1).map(|i| (i % DATA_BLOCKS, i)).collect();
        assert_eq!(
            r.step_op(&TxnOp::Commit(too_big)),
            Err(ReplayError::Undefined)
        );
        assert_eq!(
            r.step_op(&TxnOp::Commit(vec![(DATA_BLOCKS + 1, 0)])),
            Err(ReplayError::Undefined)
        );
    }
}

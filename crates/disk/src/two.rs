//! Two-disk semantics with single-disk failure (§1, Figure 1; Table 3's
//! "Two-disk semantics").
//!
//! `disk_read` returns `None` once the disk has failed; `disk_write` to a
//! failed disk is silently dropped. Only disk 1 can fail in the paper's
//! example (reads fall back to disk 2); we allow failing either disk so
//! tests can also check that the *system* only relies on the modelled
//! failover direction.

use crate::single::oob_ub;
use crate::{Block, Platter};
use goose_rt::fault::{retry_with_backoff, IoError, IoResult, DEFAULT_IO_ATTEMPTS};
use goose_rt::sched::{res, ModelRt};
use parking_lot::owner::OwnerCell;
use std::sync::Arc;

/// Which physical disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskId {
    /// The primary disk (reads try it first).
    D1,
    /// The backup disk.
    D2,
}

/// The two-disk interface.
pub trait TwoDisks: Send + Sync {
    /// Reads block `a` from `d`; `None` if the disk has failed. Absorbs
    /// transient faults internally.
    fn disk_read(&self, d: DiskId, a: u64) -> Option<Block>;

    /// Writes block `a` on `d`; dropped if the disk has failed. Absorbs
    /// transient faults internally.
    fn disk_write(&self, d: DiskId, a: u64, v: &[u8]);

    /// Fallible read: surfaces a plan-injected [`IoError::Transient`]
    /// instead of retrying, so systems can own (or botch) the retry
    /// policy. A transient error says nothing about disk failure —
    /// `Ok(None)` is the failed-disk answer.
    fn try_disk_read(&self, d: DiskId, a: u64) -> IoResult<Option<Block>> {
        Ok(self.disk_read(d, a))
    }

    /// Fallible write (see [`TwoDisks::try_disk_read`]).
    fn try_disk_write(&self, d: DiskId, a: u64, v: &[u8]) -> IoResult<()> {
        self.disk_write(d, a, v);
        Ok(())
    }

    /// Number of blocks per disk.
    fn size(&self) -> u64;
}

#[derive(Debug)]
struct TwoState {
    d1: Platter,
    d2: Platter,
    failed1: bool,
    failed2: bool,
    ops: u64,
}

/// Restoring an image copies into the platters the disks have.
impl Clone for TwoState {
    fn clone(&self) -> TwoState {
        TwoState {
            d1: self.d1.clone(),
            d2: self.d2.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &TwoState) {
        self.d1.clone_from(&source.d1);
        self.d2.clone_from(&source.d2);
        self.failed1 = source.failed1;
        self.failed2 = source.failed2;
        self.ops = source.ops;
    }
}

/// A [`ModelTwoDisks`] as a value: both platters, which have failed, and
/// the operation count ([`ModelTwoDisks::image`],
/// [`ModelTwoDisks::restore`]).
#[derive(Debug, Clone)]
pub struct TwoDiskImage(TwoState);

/// Model two-disk device: one scheduler step per operation; contents
/// durable across crashes; failure injectable by the controller.
pub struct ModelTwoDisks {
    rt: Arc<ModelRt>,
    state: OwnerCell<TwoState>,
    block_size: usize,
    /// Dependency-tracking resource id; accesses are per (disk, block).
    tag: u64,
}

impl ModelTwoDisks {
    /// Creates two zeroed disks of `nblocks` blocks of `block_size` bytes.
    pub fn new(rt: Arc<ModelRt>, nblocks: u64, block_size: usize) -> Arc<Self> {
        let tag = rt.alloc_resource_tag();
        Arc::new(ModelTwoDisks {
            rt,
            tag,
            state: OwnerCell::new(TwoState {
                d1: Platter::new(nblocks, block_size),
                d2: Platter::new(nblocks, block_size),
                failed1: false,
                failed2: false,
                ops: 0,
            }),
            block_size,
        })
    }

    /// Controller-side copy of everything the device holds.
    pub fn image(&self) -> TwoDiskImage {
        TwoDiskImage(self.state.lock().clone())
    }

    /// Controller-side: makes the device hold `image` (no scheduling, no
    /// accounting).
    pub fn restore(&self, image: &TwoDiskImage) {
        self.state.lock().clone_from(&image.0);
    }

    /// Fails a disk permanently (fault injection; also usable from a
    /// scheduled thread body, so it carries a dependency footprint).
    pub fn fail(&self, d: DiskId) {
        self.rt.note_access(res::instance(self.tag), true);
        self.rt
            .trace_event(goose_rt::trace::TraceKind::FaultDiskFail {
                disk: match d {
                    DiskId::D1 => 1,
                    DiskId::D2 => 2,
                },
            });
        let mut s = self.state.lock();
        match d {
            DiskId::D1 => s.failed1 = true,
            DiskId::D2 => s.failed2 = true,
        }
    }

    /// Whether `d` has failed.
    pub fn is_failed(&self, d: DiskId) -> bool {
        self.rt.note_access(res::instance(self.tag), false);
        let s = self.state.lock();
        match d {
            DiskId::D1 => s.failed1,
            DiskId::D2 => s.failed2,
        }
    }

    /// Controller-side snapshot of one block on one disk (even if the
    /// disk has failed — the platters still exist, they just don't serve
    /// requests).
    pub fn peek(&self, d: DiskId, a: u64) -> Block {
        let s = self.state.lock();
        match d {
            DiskId::D1 => s.d1.block(a),
            DiskId::D2 => s.d2.block(a),
        }
    }

    /// Operations performed (checker statistics).
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops
    }

    /// Whether the two disks currently agree on every *working* block —
    /// the final-state predicate the replicated-disk checker uses. If a
    /// disk failed, agreement is only required of the survivor with
    /// itself, which is vacuous, so we report agreement of the platters
    /// regardless of failure flags and let the checker decide.
    pub fn platters_agree(&self) -> bool {
        let s = self.state.lock();
        s.d1 == s.d2
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Packs (disk, block) into one dependency-resource address.
    fn addr(d: DiskId, a: u64) -> u64 {
        let disk_bit = match d {
            DiskId::D1 => 0u64,
            DiskId::D2 => 1u64,
        };
        (disk_bit << 31) | (a & 0x7fff_ffff)
    }
}

impl TwoDisks for ModelTwoDisks {
    fn disk_read(&self, d: DiskId, a: u64) -> Option<Block> {
        retry_with_backoff(&self.rt, DEFAULT_IO_ATTEMPTS, || self.try_disk_read(d, a))
            .unwrap_or_else(|e| {
                panic!("disk read of block {a}: {e} persisted after {DEFAULT_IO_ATTEMPTS} attempts")
            })
    }

    fn disk_write(&self, d: DiskId, a: u64, v: &[u8]) {
        retry_with_backoff(&self.rt, DEFAULT_IO_ATTEMPTS, || {
            self.try_disk_write(d, a, v)
        })
        .unwrap_or_else(|e| {
            panic!("disk write of block {a}: {e} persisted after {DEFAULT_IO_ATTEMPTS} attempts")
        })
    }

    fn try_disk_read(&self, d: DiskId, a: u64) -> IoResult<Option<Block>> {
        self.rt.yield_point();
        self.rt
            .note_access(res::disk_block(self.tag, Self::addr(d, a)), false);
        self.rt.note_disk_read(self.tag, Self::addr(d, a));
        // Reads consult the failure flags, which `fail` can flip from a
        // scheduled thread.
        self.rt.note_access(res::instance(self.tag), false);
        let mut s = self.state.lock();
        s.ops += 1;
        if a >= s.d1.len() {
            oob_ub("read", a, s.d1.len());
        }
        if self.rt.next_disk_op_faulty() {
            return Err(IoError::Transient);
        }
        Ok(match d {
            DiskId::D1 if s.failed1 => None,
            DiskId::D2 if s.failed2 => None,
            DiskId::D1 => Some(s.d1.block(a)),
            DiskId::D2 => Some(s.d2.block(a)),
        })
    }

    fn try_disk_write(&self, d: DiskId, a: u64, v: &[u8]) -> IoResult<()> {
        assert_eq!(v.len(), self.block_size, "partial block write");
        self.rt.yield_point();
        self.rt
            .note_access(res::disk_block(self.tag, Self::addr(d, a)), true);
        self.rt.note_disk_write(self.tag, Self::addr(d, a));
        self.rt.note_access(res::instance(self.tag), false);
        let mut s = self.state.lock();
        s.ops += 1;
        if a >= s.d1.len() {
            oob_ub("write", a, s.d1.len());
        }
        if self.rt.next_disk_op_faulty() {
            return Err(IoError::Transient);
        }
        match d {
            DiskId::D1 if s.failed1 => {}
            DiskId::D2 if s.failed2 => {}
            DiskId::D1 => s.d1.put(a, v),
            DiskId::D2 => s.d2.put(a, v),
        }
        Ok(())
    }

    fn size(&self) -> u64 {
        self.state.lock().d1.len()
    }
}

/// Native two-disk device: lock-per-block per disk, for benchmarks. Real
/// OS threads share it, so each block keeps a real lock.
pub struct NativeTwoDisks {
    d1: Vec<parking_lot::Mutex<Block>>,
    d2: Vec<parking_lot::Mutex<Block>>,
    failed1: std::sync::atomic::AtomicBool,
    failed2: std::sync::atomic::AtomicBool,
    block_size: usize,
}

impl NativeTwoDisks {
    /// Creates two zeroed disks.
    pub fn new(nblocks: u64, block_size: usize) -> Arc<Self> {
        Arc::new(NativeTwoDisks {
            d1: (0..nblocks)
                .map(|_| parking_lot::Mutex::new(Block::zeroed(block_size)))
                .collect(),
            d2: (0..nblocks)
                .map(|_| parking_lot::Mutex::new(Block::zeroed(block_size)))
                .collect(),
            failed1: std::sync::atomic::AtomicBool::new(false),
            failed2: std::sync::atomic::AtomicBool::new(false),
            block_size,
        })
    }

    /// Fails a disk permanently.
    pub fn fail(&self, d: DiskId) {
        use std::sync::atomic::Ordering;
        match d {
            DiskId::D1 => self.failed1.store(true, Ordering::SeqCst),
            DiskId::D2 => self.failed2.store(true, Ordering::SeqCst),
        }
    }
}

impl TwoDisks for NativeTwoDisks {
    fn disk_read(&self, d: DiskId, a: u64) -> Option<Block> {
        use std::sync::atomic::Ordering;
        match d {
            DiskId::D1 if self.failed1.load(Ordering::SeqCst) => None,
            DiskId::D2 if self.failed2.load(Ordering::SeqCst) => None,
            DiskId::D1 => Some(self.d1[a as usize].lock().clone()),
            DiskId::D2 => Some(self.d2[a as usize].lock().clone()),
        }
    }

    fn disk_write(&self, d: DiskId, a: u64, v: &[u8]) {
        use std::sync::atomic::Ordering;
        assert_eq!(v.len(), self.block_size, "partial block write");
        match d {
            DiskId::D1 if self.failed1.load(Ordering::SeqCst) => {}
            DiskId::D2 if self.failed2.load(Ordering::SeqCst) => {}
            DiskId::D1 => self.d1[a as usize].lock().copy_from_slice(v),
            DiskId::D2 => self.d2[a as usize].lock().copy_from_slice(v),
        }
    }

    fn size(&self) -> u64 {
        self.d1.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Arc<ModelTwoDisks> {
        let rt = ModelRt::new(0, 10_000);
        ModelTwoDisks::new(rt, 4, 8)
    }

    #[test]
    fn both_disks_independent() {
        let d = fixture();
        d.disk_write(DiskId::D1, 0, &[1; 8]);
        d.disk_write(DiskId::D2, 0, &[2; 8]);
        assert_eq!(d.disk_read(DiskId::D1, 0), Some(crate::block_of(8, 1)));
        assert_eq!(d.disk_read(DiskId::D2, 0), Some(crate::block_of(8, 2)));
        assert!(!d.platters_agree());
    }

    #[test]
    fn failed_disk_reads_none_and_drops_writes() {
        let d = fixture();
        d.disk_write(DiskId::D1, 1, &[5; 8]);
        d.fail(DiskId::D1);
        assert_eq!(d.disk_read(DiskId::D1, 1), None);
        d.disk_write(DiskId::D1, 1, &[9; 8]);
        // The platter still holds the pre-failure value.
        assert_eq!(d.peek(DiskId::D1, 1), vec![5; 8]);
        // Disk 2 unaffected.
        assert_eq!(d.disk_read(DiskId::D2, 1), Some(crate::block_of(8, 0)));
    }

    #[test]
    fn two_disk_oob_is_modelled_ub_naming_address_and_size() {
        use goose_rt::sched::UbSignal;
        let d = fixture();
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.disk_read(DiskId::D2, 7)))
                .expect_err("out-of-bounds read must unwind");
        let ub = err
            .downcast::<UbSignal>()
            .expect("out-of-bounds unwind carries a UbSignal, not a raw index panic");
        assert!(ub.0.contains("address 7"), "{}", ub.0);
        assert!(ub.0.contains("4 blocks"), "{}", ub.0);
    }

    #[test]
    fn transient_fault_surfaces_on_try_ops_and_is_absorbed_by_infallible_ops() {
        use goose_rt::fault::FaultPlan;
        let mut plan = FaultPlan::default();
        plan.transient_io.insert(0);
        plan.transient_io.insert(2);
        let rt = ModelRt::with_faults(0, 10_000, plan);
        let d = ModelTwoDisks::new(rt, 4, 8);
        assert_eq!(d.try_disk_read(DiskId::D1, 0), Err(IoError::Transient));
        // Op 1 succeeds, op 2 faults inside the retry loop and is retried.
        d.disk_write(DiskId::D1, 0, &[6; 8]);
        assert_eq!(d.disk_read(DiskId::D1, 0), Some(crate::block_of(8, 6)));
    }

    #[test]
    fn platters_agree_after_mirrored_writes() {
        let d = fixture();
        for a in 0..4 {
            d.disk_write(DiskId::D1, a, &[a as u8; 8]);
            d.disk_write(DiskId::D2, a, &[a as u8; 8]);
        }
        assert!(d.platters_agree());
    }
}

#[cfg(test)]
mod native_tests {
    use super::*;

    #[test]
    fn native_two_disks_roundtrip_and_failure() {
        let d = NativeTwoDisks::new(4, 8);
        d.disk_write(DiskId::D1, 0, &[3; 8]);
        d.disk_write(DiskId::D2, 0, &[3; 8]);
        assert_eq!(d.disk_read(DiskId::D1, 0), Some(crate::block_of(8, 3)));
        d.fail(DiskId::D1);
        assert_eq!(d.disk_read(DiskId::D1, 0), None);
        assert_eq!(d.disk_read(DiskId::D2, 0), Some(crate::block_of(8, 3)));
    }
}

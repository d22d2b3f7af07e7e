//! Single-disk semantics: the substrate for shadow copy, write-ahead
//! logging, and group commit (§9.1, Table 3's "Single-disk semantics").

use crate::Block;
use goose_rt::fault::{retry_with_backoff, IoError, IoResult, DEFAULT_IO_ATTEMPTS};
use goose_rt::sched::{res, ModelRt, UbSignal};
use parking_lot::owner::OwnerCell;
use std::sync::Arc;

/// The single-disk interface: addressable blocks, atomic per-block reads
/// and writes, contents durable across crashes.
pub trait SingleDisk: Send + Sync {
    /// Reads block `a`, absorbing transient faults internally.
    ///
    /// # Panics
    ///
    /// Panics with a [`UbSignal`] on out-of-bounds addresses: the specs
    /// make out-of-bounds access undefined behaviour, so verified code
    /// must never reach it — the checker reports it as a counterexample.
    fn read(&self, a: u64) -> Block;

    /// Writes block `a` atomically, absorbing transient faults
    /// internally.
    fn write(&self, a: u64, v: &[u8]);

    /// Fallible read: surfaces a plan-injected [`IoError::Transient`]
    /// instead of retrying. Systems that want to own their retry policy
    /// (or get it wrong, for mutation tests) use this.
    fn try_read(&self, a: u64) -> IoResult<Block> {
        Ok(self.read(a))
    }

    /// Fallible write (see [`SingleDisk::try_read`]).
    fn try_write(&self, a: u64, v: &[u8]) -> IoResult<()> {
        self.write(a, v);
        Ok(())
    }

    /// Number of blocks.
    fn size(&self) -> u64;
}

/// Raises modelled undefined behaviour for an out-of-bounds access: the
/// checker classifies the unwind as [`ExecOutcome::Ub`] and reports a
/// counterexample naming the address and the disk size, instead of a raw
/// index panic crashing the worker.
pub(crate) fn oob_ub(op: &str, a: u64, size: u64) -> ! {
    std::panic::panic_any(UbSignal(format!(
        "disk {op} out of bounds: address {a} on a disk of {size} blocks"
    )))
}

/// Model single disk: one scheduler step per operation; contents survive
/// crashes (the controller never clears them). Operations consult the
/// runtime's fault plan and may fail transiently; the infallible
/// [`SingleDisk::read`]/[`SingleDisk::write`] absorb those faults with
/// [`retry_with_backoff`].
pub struct ModelDisk {
    rt: Arc<ModelRt>,
    blocks: OwnerCell<Vec<Block>>,
    block_size: usize,
    ops: OwnerCell<u64>,
    /// Dependency-tracking resource id; accesses are per-block.
    tag: u64,
}

impl ModelDisk {
    /// Creates a disk of `nblocks` zeroed blocks of `block_size` bytes.
    pub fn new(rt: Arc<ModelRt>, nblocks: u64, block_size: usize) -> Arc<Self> {
        let tag = rt.alloc_resource_tag();
        Arc::new(ModelDisk {
            rt,
            blocks: OwnerCell::new(vec![vec![0; block_size]; nblocks as usize]),
            block_size,
            ops: OwnerCell::new(0),
            tag,
        })
    }

    /// Controller-side snapshot of block `a` (no scheduling).
    pub fn peek(&self, a: u64) -> Block {
        self.blocks.lock()[a as usize].clone()
    }

    /// Controller-side direct write (no scheduling, no ops accounting,
    /// no fault consult) — the primitive `BufferedDisk` uses to apply
    /// its buffer to the durable image.
    pub fn poke(&self, a: u64, v: &[u8]) {
        assert_eq!(v.len(), self.block_size, "partial block write");
        self.blocks.lock()[a as usize].copy_from_slice(v);
    }

    /// Controller-side full snapshot.
    pub fn snapshot(&self) -> Vec<Block> {
        self.blocks.lock().clone()
    }

    /// Operations performed (checker statistics).
    pub fn op_count(&self) -> u64 {
        *self.ops.lock()
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The runtime this disk schedules on.
    pub fn rt(&self) -> &Arc<ModelRt> {
        &self.rt
    }
}

impl SingleDisk for ModelDisk {
    fn read(&self, a: u64) -> Block {
        retry_with_backoff(&self.rt, DEFAULT_IO_ATTEMPTS, || self.try_read(a)).unwrap_or_else(|e| {
            panic!("disk read of block {a}: {e} persisted after {DEFAULT_IO_ATTEMPTS} attempts")
        })
    }

    fn write(&self, a: u64, v: &[u8]) {
        retry_with_backoff(&self.rt, DEFAULT_IO_ATTEMPTS, || self.try_write(a, v)).unwrap_or_else(
            |e| {
                panic!(
                    "disk write of block {a}: {e} persisted after {DEFAULT_IO_ATTEMPTS} attempts"
                )
            },
        )
    }

    fn try_read(&self, a: u64) -> IoResult<Block> {
        self.rt.yield_point();
        self.rt.note_access(res::disk_block(self.tag, a), false);
        self.rt.note_disk_read(self.tag, a);
        *self.ops.lock() += 1;
        let blocks = self.blocks.lock();
        if a as usize >= blocks.len() {
            oob_ub("read", a, blocks.len() as u64);
        }
        if self.rt.next_disk_op_faulty() {
            return Err(IoError::Transient);
        }
        Ok(blocks[a as usize].clone())
    }

    fn try_write(&self, a: u64, v: &[u8]) -> IoResult<()> {
        assert_eq!(v.len(), self.block_size, "partial block write");
        self.rt.yield_point();
        self.rt.note_access(res::disk_block(self.tag, a), true);
        self.rt.note_disk_write(self.tag, a);
        *self.ops.lock() += 1;
        let mut blocks = self.blocks.lock();
        if a as usize >= blocks.len() {
            oob_ub("write", a, blocks.len() as u64);
        }
        if self.rt.next_disk_op_faulty() {
            return Err(IoError::Transient);
        }
        blocks[a as usize].copy_from_slice(v);
        Ok(())
    }

    fn size(&self) -> u64 {
        self.blocks.lock().len() as u64
    }
}

/// Native single disk: lock-per-block, for benchmarks. Real OS threads
/// share it, so each block keeps a real lock.
pub struct NativeDisk {
    blocks: Vec<parking_lot::Mutex<Block>>,
    block_size: usize,
}

impl NativeDisk {
    /// Creates a disk of `nblocks` zeroed blocks of `block_size` bytes.
    pub fn new(nblocks: u64, block_size: usize) -> Arc<Self> {
        Arc::new(NativeDisk {
            blocks: (0..nblocks)
                .map(|_| parking_lot::Mutex::new(vec![0; block_size]))
                .collect(),
            block_size,
        })
    }
}

impl SingleDisk for NativeDisk {
    fn read(&self, a: u64) -> Block {
        self.blocks[a as usize].lock().clone()
    }

    fn write(&self, a: u64, v: &[u8]) {
        assert_eq!(v.len(), self.block_size, "partial block write");
        self.blocks[a as usize].lock().copy_from_slice(v);
    }

    fn size(&self) -> u64 {
        self.blocks.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goose_rt::fault::FaultPlan;

    #[test]
    fn model_disk_roundtrip() {
        let rt = ModelRt::new(0, 10_000);
        let d = ModelDisk::new(rt, 4, 8);
        d.write(2, &[7; 8]);
        assert_eq!(d.read(2), vec![7; 8]);
        assert_eq!(d.read(0), vec![0; 8]);
        assert_eq!(d.size(), 4);
        assert_eq!(d.op_count(), 3);
    }

    #[test]
    #[should_panic(expected = "partial block write")]
    fn model_disk_rejects_partial_write() {
        let rt = ModelRt::new(0, 10_000);
        let d = ModelDisk::new(rt, 4, 8);
        d.write(0, &[1, 2, 3]);
    }

    #[test]
    fn model_disk_oob_is_modelled_ub_naming_address_and_size() {
        let rt = ModelRt::new(0, 10_000);
        let d = ModelDisk::new(rt, 4, 8);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.read(9)))
            .expect_err("out-of-bounds read must unwind");
        let ub = err
            .downcast::<UbSignal>()
            .expect("out-of-bounds unwind carries a UbSignal, not a raw index panic");
        assert!(ub.0.contains("address 9"), "{}", ub.0);
        assert!(ub.0.contains("4 blocks"), "{}", ub.0);
    }

    #[test]
    fn transient_fault_surfaces_on_try_read_and_is_absorbed_by_read() {
        let mut plan = FaultPlan::default();
        plan.transient_io.insert(0); // fail the very first disk op
        let rt = ModelRt::with_faults(0, 10_000, plan);
        let d = ModelDisk::new(Arc::clone(&rt), 4, 8);
        // try_read surfaces the fault; the retry in read absorbs it.
        assert_eq!(d.try_read(0), Err(IoError::Transient));
        assert_eq!(d.read(0), vec![0; 8]);
    }

    #[test]
    fn native_disk_roundtrip() {
        let d = NativeDisk::new(8, 16);
        d.write(5, &[9; 16]);
        assert_eq!(d.read(5), vec![9; 16]);
        assert_eq!(d.size(), 8);
    }

    #[test]
    fn native_disk_concurrent_block_writes() {
        let d = NativeDisk::new(4, 8);
        let mut handles = Vec::new();
        for a in 0..4u64 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u8 {
                    d.write(a, &[i; 8]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for a in 0..4 {
            assert_eq!(d.read(a), vec![99; 8]);
        }
    }
}

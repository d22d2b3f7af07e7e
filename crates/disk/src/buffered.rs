//! Buffered single disk: a volatile write buffer with an explicit flush
//! barrier, so the checker's torn-write fault plans have something to
//! tear.
//!
//! A [`BufferedDisk`] wraps a [`ModelDisk`] (the durable image). Writes
//! land in an ordered volatile buffer; reads see the buffered view; a
//! [`BufferedDisk::flush`] applies the whole buffer durably as one
//! barrier step. On a crash the controller calls
//! [`BufferedDisk::crash_torn`], which persists only the subset of
//! unflushed writes chosen by the execution's fault plan
//! ([`ModelRt::torn_keep`]) — with an empty plan it keeps all of them,
//! which is exactly the atomic-write model the crash sweeps always used,
//! so plans opt *in* to torn semantics.
//!
//! [`BufferedDisk::write_through`] models a single write with a
//! write-through/FUA guarantee: it is durable the moment the operation's
//! atomic step executes, with no torn window. Commit records (a WAL
//! header, a shadow install pointer) go through it so that the commit
//! point stays a single atomic durable transition — everything else must
//! be made durable by an explicit flush *before* the commit record, or
//! the torn-write sweep will find the ordering bug.

use crate::single::{oob_ub, ModelDisk, SingleDisk};
use crate::Block;
use goose_rt::fault::{retry_with_backoff, IoError, IoResult, DEFAULT_IO_ATTEMPTS};
use goose_rt::sched::{res, ModelRt};
use parking_lot::owner::OwnerCell;
use std::sync::Arc;

/// A write-buffered disk over a durable [`ModelDisk`] image.
pub struct BufferedDisk {
    rt: Arc<ModelRt>,
    inner: Arc<ModelDisk>,
    /// Unflushed writes in program order (the same block may appear more
    /// than once; a torn crash keeping a later entry over an earlier one
    /// models write reordering).
    pending: OwnerCell<Vec<(u64, Block)>>,
    /// Dependency-tracking resource id. The whole device is one
    /// resource: the *order* of entries in the shared write buffer is
    /// observable through torn-crash plans, so buffered writes to
    /// different blocks still do not commute.
    tag: u64,
}

impl BufferedDisk {
    /// Creates a buffered disk over a fresh zeroed durable image.
    pub fn new(rt: Arc<ModelRt>, nblocks: u64, block_size: usize) -> Arc<Self> {
        let inner = ModelDisk::new(Arc::clone(&rt), nblocks, block_size);
        let tag = rt.alloc_resource_tag();
        Arc::new(BufferedDisk {
            rt,
            inner,
            pending: OwnerCell::new(Vec::new()),
            tag,
        })
    }

    /// The durable image (for controller-side inspection).
    pub fn durable(&self) -> &Arc<ModelDisk> {
        &self.inner
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    /// Flush barrier (one scheduler step): applies every buffered write
    /// to the durable image, in order, as one atomic step. A crash *at*
    /// the barrier step happens before any of it applies.
    pub fn flush(&self) {
        self.rt.yield_point();
        self.rt.note_access(res::instance(self.tag), true);
        let mut pending = self.pending.lock();
        self.rt.note_disk_flush(self.tag, pending.len() as u64);
        for (a, v) in pending.drain(..) {
            self.inner.poke(a, &v);
        }
    }

    /// Durable single write (write-through/FUA): one scheduler step, then
    /// the block is on the platter with no torn window. Buffered writes
    /// to the same block are superseded and dropped. Absorbs transient
    /// faults internally.
    pub fn write_through(&self, a: u64, v: &[u8]) {
        retry_with_backoff(&self.rt, DEFAULT_IO_ATTEMPTS, || {
            self.try_write_through(a, v)
        })
        .unwrap_or_else(|e| {
            panic!("write-through of block {a}: {e} persisted after {DEFAULT_IO_ATTEMPTS} attempts")
        });
    }

    /// Fallible [`BufferedDisk::write_through`].
    pub fn try_write_through(&self, a: u64, v: &[u8]) -> IoResult<()> {
        self.rt.yield_point();
        self.rt.note_access(res::instance(self.tag), true);
        if a >= self.inner.size() {
            oob_ub("write", a, self.inner.size());
        }
        if self.rt.next_disk_op_faulty() {
            return Err(IoError::Transient);
        }
        self.rt.note_disk_write_through(self.tag, a);
        self.pending.lock().retain(|(b, _)| *b != a);
        self.inner.poke(a, v);
        Ok(())
    }

    /// Controller-side crash transition: persists the plan-chosen subset
    /// of unflushed writes (all of them under an empty plan) and empties
    /// the buffer — volatile state does not survive the reboot.
    pub fn crash_torn(&self) {
        let mut pending = self.pending.lock();
        let keep = self.rt.torn_keep(pending.len());
        if self.rt.tracing_enabled() && !pending.is_empty() {
            let (mut kept_blocks, mut dropped_blocks) = (Vec::new(), Vec::new());
            for ((a, _), kept) in pending.iter().zip(&keep) {
                if *kept {
                    kept_blocks.push(*a);
                } else {
                    dropped_blocks.push(*a);
                }
            }
            self.rt.trace_event_for(
                None,
                goose_rt::trace::TraceKind::CrashTorn {
                    tag: self.tag,
                    kept: kept_blocks,
                    dropped: dropped_blocks,
                },
            );
        }
        for ((a, v), kept) in pending.drain(..).zip(keep) {
            if kept {
                self.inner.poke(a, &v);
            }
        }
    }

    /// Unflushed writes currently buffered.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().len()
    }

    /// Controller-side snapshot of the *buffered view* of block `a` (what
    /// a read would return).
    pub fn peek(&self, a: u64) -> Block {
        let pending = self.pending.lock();
        for (b, v) in pending.iter().rev() {
            if *b == a {
                return v.clone();
            }
        }
        self.inner.peek(a)
    }

    /// Controller-side snapshot of the *durable* block `a` (what survives
    /// a keep-none crash).
    pub fn peek_durable(&self, a: u64) -> Block {
        self.inner.peek(a)
    }
}

impl SingleDisk for BufferedDisk {
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
        self.rt.note_access(res::instance(self.tag), false);
        self.rt.note_disk_read(self.tag, a);
        if a >= self.inner.size() {
            oob_ub("read", a, self.inner.size());
        }
        if self.rt.next_disk_op_faulty() {
            return Err(IoError::Transient);
        }
        let pending = self.pending.lock();
        for (b, v) in pending.iter().rev() {
            if *b == a {
                return Ok(v.clone());
            }
        }
        Ok(self.inner.peek(a))
    }

    fn try_write(&self, a: u64, v: &[u8]) -> IoResult<()> {
        assert_eq!(v.len(), self.block_size(), "partial block write");
        self.rt.yield_point();
        self.rt.note_access(res::instance(self.tag), true);
        self.rt.note_disk_write(self.tag, a);
        if a >= self.inner.size() {
            oob_ub("write", a, self.inner.size());
        }
        if self.rt.next_disk_op_faulty() {
            return Err(IoError::Transient);
        }
        self.pending.lock().push((a, v.to_vec()));
        Ok(())
    }

    fn size(&self) -> u64 {
        self.inner.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goose_rt::fault::{FaultPlan, TornMode};

    fn disk_with(plan: FaultPlan) -> Arc<BufferedDisk> {
        BufferedDisk::new(ModelRt::with_faults(7, 10_000, plan), 4, 8)
    }

    #[test]
    fn reads_see_the_buffered_view_before_flush() {
        let d = disk_with(FaultPlan::default());
        d.write(1, &[5; 8]);
        assert_eq!(d.read(1), vec![5; 8], "read-your-writes");
        assert_eq!(d.peek_durable(1), vec![0; 8], "not durable yet");
        d.flush();
        assert_eq!(d.peek_durable(1), vec![5; 8]);
        assert_eq!(d.pending_len(), 0);
    }

    #[test]
    fn empty_plan_crash_keeps_all_buffered_writes() {
        let d = disk_with(FaultPlan::default());
        d.write(0, &[1; 8]);
        d.write(1, &[2; 8]);
        d.crash_torn();
        assert_eq!(d.peek_durable(0), vec![1; 8]);
        assert_eq!(d.peek_durable(1), vec![2; 8]);
    }

    #[test]
    fn keep_none_crash_drops_unflushed_but_not_flushed_writes() {
        let plan = FaultPlan {
            torn: Some(TornMode::KeepNone),
            ..FaultPlan::default()
        };
        let d = disk_with(plan);
        d.write(0, &[1; 8]);
        d.flush();
        d.write(1, &[2; 8]);
        d.crash_torn();
        assert_eq!(d.peek_durable(0), vec![1; 8], "flushed write survives");
        assert_eq!(d.peek_durable(1), vec![0; 8], "unflushed write torn away");
        assert_eq!(d.pending_len(), 0);
    }

    #[test]
    fn subset_crash_is_deterministic() {
        let survivors = |tag| {
            let plan = FaultPlan {
                torn: Some(TornMode::Subset(tag)),
                ..FaultPlan::default()
            };
            let d = disk_with(plan);
            for a in 0..4u64 {
                d.write(a, &[a as u8 + 1; 8]);
            }
            d.crash_torn();
            (0..4).map(|a| d.peek_durable(a)).collect::<Vec<_>>()
        };
        assert_eq!(survivors(1), survivors(1), "same plan tears identically");
    }

    #[test]
    fn write_through_is_immediately_durable_and_supersedes_buffered() {
        let plan = FaultPlan {
            torn: Some(TornMode::KeepNone),
            ..FaultPlan::default()
        };
        let d = disk_with(plan);
        d.write(2, &[9; 8]); // stale buffered write to the same block
        d.write_through(2, &[4; 8]);
        assert_eq!(d.peek_durable(2), vec![4; 8]);
        d.crash_torn();
        assert_eq!(d.peek_durable(2), vec![4; 8], "no stale reapply on crash");
    }

    #[test]
    fn transient_faults_surface_on_try_ops() {
        let mut plan = FaultPlan::default();
        plan.transient_io.insert(0);
        let d = disk_with(plan);
        assert_eq!(d.try_write(0, &[1; 8]), Err(IoError::Transient));
        // Internal retry in the infallible op absorbs the next fault too.
        d.write(0, &[1; 8]);
        assert_eq!(d.read(0), vec![1; 8]);
    }
}

//! The replicated disk (§1, §3 of the paper): two physical disks behaving
//! as one logical disk, tolerating a single disk failure, with
//! crash-recovery that preserves linearizability.
//!
//! Three pieces, mirroring the paper's structure:
//!
//! - [`spec`] — the atomic specification (Figure 3);
//! - [`ReplDisk`] in this module — the plain implementation (Figures 4
//!   and 5), runnable on any [`TwoDisks`] device in model or native mode;
//! - [`proof`] — the ghost-instrumented variant (the runtime analog of
//!   the Perennial proof), including the recovery-helping argument of
//!   §5.4, with [`harness`] plugging it into the checker.

#![deny(unsafe_code)]

pub mod harness;
pub mod proof;
pub mod spec;

use goose_rt::runtime::{GLock, Runtime};
use perennial_disk::two::{DiskId, TwoDisks};
use perennial_disk::Block;
use std::sync::Arc;

/// The plain (uninstrumented) replicated-disk library.
pub struct ReplDisk {
    disks: Arc<dyn TwoDisks>,
    locks: Vec<Arc<dyn GLock>>,
    size: u64,
}

impl ReplDisk {
    /// Creates the library over a two-disk device, with one lock per
    /// address (Figure 4's locking discipline).
    pub fn new(rt: &dyn Runtime, disks: Arc<dyn TwoDisks>) -> Self {
        let size = disks.size();
        ReplDisk {
            disks,
            locks: (0..size).map(|_| rt.new_lock()).collect(),
            size,
        }
    }

    /// Number of logical blocks.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Figure 4's `rd_read`: read disk 1, fall back to disk 2 on failure.
    ///
    /// # Panics
    ///
    /// Panics if both disks have failed (the system tolerates one
    /// failure) or on out-of-bounds addresses.
    pub fn rd_read(&self, a: u64) -> Block {
        self.locks[a as usize].acquire();
        let v = match self.disks.disk_read(DiskId::D1, a) {
            Some(v) => v,
            None => self
                .disks
                .disk_read(DiskId::D2, a)
                .expect("both disks failed"),
        };
        self.locks[a as usize].release();
        v
    }

    /// Figure 4's `rd_write`: write both disks under the address lock.
    pub fn rd_write(&self, a: u64, v: &[u8]) {
        self.locks[a as usize].acquire();
        self.disks.disk_write(DiskId::D1, a, v);
        self.disks.disk_write(DiskId::D2, a, v);
        self.locks[a as usize].release();
    }

    /// Figure 5's `rd_recover`: copy every readable block from disk 1 to
    /// disk 2, logically completing writes that crashed mid-flight.
    pub fn rd_recover(&self) {
        for a in 0..self.size {
            if let Some(v) = self.disks.disk_read(DiskId::D1, a) {
                self.disks.disk_write(DiskId::D2, a, &v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goose_rt::runtime::NativeRt;
    use goose_rt::sched::ModelRt;
    use perennial_disk::two::ModelTwoDisks;

    /// A native-mode smoke test of the plain library (the verified-mode
    /// tests live in `proof`/`harness`).
    #[test]
    fn native_write_read_failover() {
        let rt = ModelRt::new(0, 100_000);
        let disks = ModelTwoDisks::new(Arc::clone(&rt), 4, 4);
        let native = NativeRt::new();
        let rd = ReplDisk::new(&*native, disks.clone() as Arc<dyn TwoDisks>);
        rd.rd_write(2, &[5, 6, 7, 8]);
        assert_eq!(rd.rd_read(2), vec![5, 6, 7, 8]);
        disks.fail(DiskId::D1);
        // Failover to disk 2, which has the mirrored value.
        assert_eq!(rd.rd_read(2), vec![5, 6, 7, 8]);
    }

    #[test]
    fn recovery_copies_disk1_to_disk2() {
        let rt = ModelRt::new(0, 100_000);
        let disks = ModelTwoDisks::new(Arc::clone(&rt), 3, 4);
        // Simulate a crash mid-write: disks differ at address 1.
        disks.disk_write(DiskId::D1, 1, &[9; 4]);
        assert!(!disks.platters_agree());
        let native = NativeRt::new();
        let rd = ReplDisk::new(&*native, disks.clone() as Arc<dyn TwoDisks>);
        rd.rd_recover();
        assert!(disks.platters_agree());
        assert_eq!(rd.rd_read(1), vec![9; 4]);
    }
}

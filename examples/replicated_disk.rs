//! The paper's running example (§1, Figures 1–6), driven interactively:
//! a replicated disk on two physical disks, a crash in the middle of a
//! write, recovery completing the write via helping, and failover after
//! a disk failure.
//!
//! Run with: `cargo run --example replicated_disk`

use goose_rt::runtime::NativeRt;
use perennial_checker::{check, CheckConfig};
use perennial_disk::two::{DiskId, NativeTwoDisks, TwoDisks};
use repldisk::harness::{RdHarness, SINGLE_WRITE};
use repldisk::proof::RdMutant;
use repldisk::ReplDisk;
use std::sync::Arc;

fn main() {
    // ---- Part 1: the plain library on the native substrate. ----------
    println!("[native] replicated disk over two in-memory disks");
    let disks = NativeTwoDisks::new(8, 4096);
    let rt = NativeRt::new();
    let rd = ReplDisk::new(&*rt, Arc::clone(&disks) as Arc<dyn TwoDisks>);

    rd.rd_write(3, &vec![0xAB; 4096]);
    assert_eq!(rd.rd_read(3)[0], 0xAB);
    println!("  wrote block 3, read it back");

    // Simulate the crash of Figure 6: disk 1 written, disk 2 not.
    disks.disk_write(DiskId::D1, 5, &vec![0xCD; 4096]);
    println!("  simulated crash mid-write: disks differ at block 5");
    rd.rd_recover();
    assert_eq!(rd.rd_read(5)[0], 0xCD);
    println!("  rd_recover copied disk1 -> disk2; the write is complete");

    disks.fail(DiskId::D1);
    assert_eq!(rd.rd_read(3)[0], 0xAB);
    println!("  disk 1 failed; reads fail over to disk 2\n");

    // ---- Part 2: the verified variant under the checker. -------------
    println!("[model] sweeping a crash through every step of rd_write");
    let harness = RdHarness {
        mutant: RdMutant::None,
        program: &SINGLE_WRITE,
    };
    let report = check(
        &harness,
        &CheckConfig::builder()
            .dfs_max_executions(100)
            .random_samples(5)
            .random_crash_samples(10)
            .build(),
    );
    println!("  {}", report.summary());
    assert!(report.passed());
    assert!(report.helped_ops > 0);
    println!(
        "  {} crashed executions required recovery helping (Figure 6's\n  \
         'recovery completes the crashed write' -- checked, not assumed)",
        report.helped_ops
    );
}

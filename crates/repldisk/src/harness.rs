//! Checker harnesses for the replicated disk: concurrent workloads,
//! optional disk-failure injection, and mutants.

use crate::proof::{RdMutant, VerifiedReplDisk};
use crate::spec::RdSpec;
use goose_rt::fault::FaultSurface;
use perennial_checker::{Harness, ScenarioSet, Script, World};
use perennial_disk::two::{DiskId, ModelTwoDisks};
use std::sync::Arc;

/// Scenario shape: which workload threads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdWorkload {
    /// One writer, one reader on the same address plus a writer on
    /// another address (small enough for exhaustive DFS).
    Mixed,
    /// A single writer (the Figure 6 scenario: sweep a crash through one
    /// `rd_write`).
    SingleWrite,
    /// Two writers racing on the same address.
    WriteWrite,
    /// Writer then a thread that fails disk 1, then a reader (exercises
    /// failover).
    Failover,
}

/// Replicated-disk harness.
pub struct RdHarness {
    /// Number of blocks.
    pub size: u64,
    /// Block size in bytes.
    pub block_size: usize,
    /// Which mutant to run ([`RdMutant::None`] = correct system).
    pub mutant: RdMutant,
    /// Which workload shape.
    pub workload: RdWorkload,
    /// Run a post-recovery verification round.
    pub after_round: bool,
}

impl Default for RdHarness {
    fn default() -> Self {
        RdHarness {
            size: 3,
            block_size: 2,
            mutant: RdMutant::None,
            workload: RdWorkload::Mixed,
            after_round: true,
        }
    }
}

/// The crate's expected-pass scenarios (correct system, every workload),
/// under the registry names `"repldisk/..."`.
pub fn scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, workload) in [
        (
            "repldisk/mixed",
            "writer + reader + writer on another address",
            RdWorkload::Mixed,
        ),
        (
            "repldisk/single-write",
            "one write, crash swept through it (Fig. 6)",
            RdWorkload::SingleWrite,
        ),
        (
            "repldisk/write-race",
            "two writers racing on one address",
            RdWorkload::WriteWrite,
        ),
        (
            "repldisk/failover",
            "write, disk-1 failure, then read",
            RdWorkload::Failover,
        ),
    ] {
        set.add(
            name,
            desc,
            RdHarness {
                workload,
                ..RdHarness::default()
            },
        );
    }
    set
}

/// The crate's expected-fail scenarios (mutants the checker must catch),
/// under the registry names `"repldisk/mutant/..."`.
pub fn mutant_scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, mutant, workload) in [
        (
            "repldisk/mutant/skip-second-write",
            "skip second disk write",
            RdMutant::SkipSecondWrite,
            RdWorkload::Failover,
        ),
        (
            "repldisk/mutant/zeroing-recovery",
            "zeroing recovery (§1)",
            RdMutant::ZeroingRecovery,
            RdWorkload::SingleWrite,
        ),
        (
            "repldisk/mutant/skip-helping",
            "no helping token",
            RdMutant::SkipHelping,
            RdWorkload::SingleWrite,
        ),
        (
            "repldisk/mutant/commit-early",
            "commit at first write",
            RdMutant::CommitEarly,
            RdWorkload::SingleWrite,
        ),
        (
            "repldisk/mutant/transient-give-up",
            "transient I/O error treated as dead disk",
            RdMutant::GiveUpOnTransient,
            RdWorkload::SingleWrite,
        ),
    ] {
        set.add(
            name,
            desc,
            RdHarness {
                mutant,
                workload,
                ..RdHarness::default()
            },
        );
    }
    set
}

impl Harness<RdSpec> for RdHarness {
    type Sys = VerifiedReplDisk;

    fn spec(&self) -> RdSpec {
        RdSpec {
            size: self.size,
            block_size: self.block_size,
        }
    }

    fn make(&self, w: &World<RdSpec>) -> Script<VerifiedReplDisk, RdSpec> {
        let disks = ModelTwoDisks::new(Arc::clone(&w.rt), self.size, self.block_size);
        let mut script = Script::new(VerifiedReplDisk::new(w, disks, self.mutant));
        let bs = self.block_size;
        match self.workload {
            RdWorkload::SingleWrite => {
                script.thread("writer", move |sys, w| sys.rd_write(w, 0, &vec![7u8; bs]));
            }
            RdWorkload::Mixed => {
                script.thread("writer-0", move |sys, w| sys.rd_write(w, 0, &vec![1u8; bs]));
                script.thread("reader-0", move |sys, w| {
                    let v = sys.rd_read(w, 0);
                    assert!(v == vec![0u8; bs] || v == vec![1u8; bs]);
                });
                script.thread("writer-1", move |sys, w| sys.rd_write(w, 1, &vec![2u8; bs]));
            }
            RdWorkload::WriteWrite => {
                for (name, val) in [("writer-a", 3u8), ("writer-b", 4u8)] {
                    script.thread(name, move |sys, w| sys.rd_write(w, 0, &vec![val; bs]));
                }
            }
            RdWorkload::Failover => {
                script.thread("writer", move |sys, w| sys.rd_write(w, 0, &vec![9u8; bs]));
                script.thread("disk-failer", |sys, w| {
                    w.rt.yield_point();
                    sys.disks().fail(DiskId::D1);
                });
                script.thread("reader", move |sys, w| {
                    let v = sys.rd_read(w, 0);
                    assert!(v == vec![0u8; bs] || v == vec![9u8; bs]);
                });
            }
        }
        if self.after_round {
            script.after("post-crash", move |sys, w| {
                sys.rd_write(w, 2, &vec![5u8; bs]);
                let v = sys.rd_read(w, 2);
                assert_eq!(v, vec![5u8; bs]);
            });
        }
        script
    }

    fn name(&self) -> &str {
        "replicated disk"
    }

    fn fault_surface(&self) -> FaultSurface {
        // The failover workload injects its own disk-1 failure; a
        // plan-scheduled failure on top would exceed the one-failure
        // fault model the replicated disk is specified against.
        FaultSurface {
            transient_disk_io: true,
            two_disk: self.workload != RdWorkload::Failover,
            ..FaultSurface::none()
        }
    }
}

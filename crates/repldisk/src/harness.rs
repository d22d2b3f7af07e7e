//! Checker harness for the replicated disk: its programs (writes, reads
//! and a disk failure), its scenarios and mutants.

use crate::proof::{RdMutant, VerifiedReplDisk};
use crate::spec::RdSpec;
use goose_rt::fault::FaultSurface;
use perennial_checker::{Harness, Program, ScenarioSet, Script, World};
use perennial_disk::two::{DiskId, ModelTwoDisks};
use std::sync::Arc;
use RdStep::{FailDisk, Read, Write};

/// Number of blocks.
const SIZE: u64 = 3;
/// Block size in bytes.
const BLOCK_SIZE: usize = 2;

/// One step of a replicated-disk program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdStep {
    /// `rd_write(addr, [byte; BLOCK_SIZE])`.
    Write(u64, u8),
    /// `rd_read(addr)`.
    Read(u64),
    /// A yield, then the disk fails for good: the workload's own
    /// failure, which the plan-scheduled ones then leave alone.
    FailDisk(DiskId),
}

/// Every program's post-recovery round: the system still serves a write
/// and a read.
const AFTER: &[RdStep] = &[Write(2, 5), Read(2)];

/// One writer, one reader on the same address plus a writer on another
/// address (small enough for exhaustive DFS).
pub static MIXED: Program<RdStep> = Program {
    threads: &[
        ("writer-0", &[Write(0, 1)]),
        ("reader-0", &[Read(0)]),
        ("writer-1", &[Write(1, 2)]),
    ],
    after: AFTER,
};

/// A single writer (the Figure 6 scenario: sweep a crash through one
/// `rd_write`).
pub static SINGLE_WRITE: Program<RdStep> = Program {
    threads: &[("writer", &[Write(0, 7)])],
    after: AFTER,
};

/// Two writers racing on the same address.
pub static WRITE_RACE: Program<RdStep> = Program {
    threads: &[("writer-a", &[Write(0, 3)]), ("writer-b", &[Write(0, 4)])],
    after: AFTER,
};

/// A writer, a thread that fails disk 1, then a reader (exercises
/// failover).
pub static FAILOVER: Program<RdStep> = Program {
    threads: &[
        ("writer", &[Write(0, 9)]),
        ("disk-failer", &[FailDisk(DiskId::D1)]),
        ("reader", &[Read(0)]),
    ],
    after: AFTER,
};

/// Replicated-disk harness: a mutant and the program it runs.
pub struct RdHarness {
    /// Which mutant to run ([`RdMutant::None`] = correct system).
    pub mutant: RdMutant,
    /// The workload.
    pub program: &'static Program<RdStep>,
}

/// The crate's expected-pass scenarios (correct system, every program),
/// under the registry names `"repldisk/..."`.
pub fn scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, program) in [
        (
            "repldisk/mixed",
            "writer + reader + writer on another address",
            &MIXED,
        ),
        (
            "repldisk/single-write",
            "one write, crash swept through it (Fig. 6)",
            &SINGLE_WRITE,
        ),
        (
            "repldisk/write-race",
            "two writers racing on one address",
            &WRITE_RACE,
        ),
        (
            "repldisk/failover",
            "write, disk-1 failure, then read",
            &FAILOVER,
        ),
    ] {
        let mutant = RdMutant::None;
        set.add(name, desc, RdHarness { mutant, program });
    }
    set
}

/// The crate's expected-fail scenarios (mutants the checker must catch),
/// under the registry names `"repldisk/mutant/..."`.
pub fn mutant_scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, mutant, program) in [
        (
            "repldisk/mutant/skip-second-write",
            "skip second disk write",
            RdMutant::SkipSecondWrite,
            &FAILOVER,
        ),
        (
            "repldisk/mutant/zeroing-recovery",
            "zeroing recovery (§1)",
            RdMutant::ZeroingRecovery,
            &SINGLE_WRITE,
        ),
        (
            "repldisk/mutant/skip-helping",
            "no helping token",
            RdMutant::SkipHelping,
            &SINGLE_WRITE,
        ),
        (
            "repldisk/mutant/commit-early",
            "commit at first write",
            RdMutant::CommitEarly,
            &SINGLE_WRITE,
        ),
        (
            "repldisk/mutant/transient-give-up",
            "transient I/O error treated as dead disk",
            RdMutant::GiveUpOnTransient,
            &SINGLE_WRITE,
        ),
    ] {
        set.add(name, desc, RdHarness { mutant, program });
    }
    set
}

/// Takes one step of a replicated-disk program. A read's return is
/// checked by the ghost engine against σ.
pub fn step(sys: &VerifiedReplDisk, w: &World<RdSpec>, s: &RdStep) {
    match *s {
        Write(a, byte) => sys.rd_write(w, a, &[byte; BLOCK_SIZE]),
        Read(a) => _ = sys.rd_read(w, a),
        FailDisk(disk) => {
            w.rt.yield_point();
            sys.disks().fail(disk);
        }
    }
}

impl Harness<RdSpec> for RdHarness {
    type Sys = VerifiedReplDisk;

    fn spec(&self) -> RdSpec {
        RdSpec {
            size: SIZE,
            block_size: BLOCK_SIZE,
        }
    }

    fn make(&self, w: &World<RdSpec>) -> Script<VerifiedReplDisk, RdSpec> {
        let disks = ModelTwoDisks::new(Arc::clone(&w.rt), SIZE, BLOCK_SIZE);
        let mut script = Script::new(VerifiedReplDisk::new(w, disks, self.mutant));
        script.program(self.program, step);
        script
    }

    fn name(&self) -> &str {
        "replicated disk"
    }

    fn fault_surface(&self) -> FaultSurface {
        // A program that fails a disk itself takes no plan-scheduled
        // failure on top: that would exceed the one-failure fault model
        // the replicated disk is specified against.
        FaultSurface {
            transient_disk_io: true,
            two_disk: !self.program.any(|s| matches!(s, FailDisk(_))),
            ..FaultSurface::none()
        }
    }
}

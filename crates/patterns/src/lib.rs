//! The three crash-safety patterns of §9.1 (Table 3), each verified with
//! the checker: storage systems broadly use **replication** (see the
//! `repldisk` crate), **shadow copies**, and **write-ahead logging**
//! [Gray 1978]; plus the **group commit** optimization with its
//! weaker crash specification.
//!
//! Each pattern module contains the instrumented implementation (the
//! runtime analog of the paper's per-pattern proof), its checker harness,
//! and mutants for the mutation tests in `tests/check.rs`.

#![deny(unsafe_code)]

pub mod group_commit;
pub mod pair_spec;
pub mod shadow;
pub mod synced_log;
pub mod txn_wal;
pub mod wal;

pub use group_commit::{GcHarness, GcMutant, GcSpec, GroupCommitLog};
pub use pair_spec::{PairOp, PairRet, PairSpec};
pub use shadow::{ShadowHarness, ShadowMutant, ShadowPair};
pub use synced_log::{SlHarness, SlMutant, SyncedLog};
pub use txn_wal::{TxnHarness, TxnMutant, TxnWal};
pub use wal::{WalHarness, WalMutant, WalPair};

use goose_rt::fault::FaultSurface;
use perennial_checker::{PanicOnReset, ScenarioSet};

/// The fault surface of the patterns over a `BufferedDisk`: transient
/// I/O errors and torn writes.
const BUFFERED_DISK: FaultSurface = FaultSurface {
    transient_disk_io: true,
    torn_writes: true,
    two_disk: false,
    net: false,
};

/// The crate's expected-pass scenarios (each pattern's correct
/// implementation under its program with a reader), under the registry
/// names `"patterns/..."`.
pub fn scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    set.add(
        "patterns/shadow",
        "shadow-copy pair update",
        ShadowHarness {
            mutant: ShadowMutant::None,
            program: &shadow::PUT_GET,
        },
    );
    set.add(
        "patterns/wal",
        "write-ahead-logged pair update",
        WalHarness {
            mutant: WalMutant::None,
            program: &wal::PUT_GET,
        },
    );
    set.add(
        "patterns/txn-wal",
        "transactional WAL over two addresses",
        TxnHarness {
            mutant: TxnMutant::None,
            program: &txn_wal::COMMIT_READ,
        },
    );
    set.add(
        "patterns/group-commit",
        "group commit with deferred durability",
        GcHarness {
            mutant: GcMutant::None,
            program: &group_commit::APPEND_FLUSH,
        },
    );
    set.add(
        "patterns/synced-log",
        "synced log with deferred durability",
        SlHarness {
            mutant: SlMutant::None,
            program: &synced_log::APPEND_SYNC,
        },
    );
    set
}

/// The crate's expected-fail scenarios (mutants the checker must catch,
/// each writer without its reader), under the registry names
/// `"patterns/mutant/..."`.
pub fn mutant_scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, mutant) in [
        (
            "patterns/mutant/shadow-flip-first",
            "flip install pointer first",
            ShadowMutant::FlipFirst,
        ),
        (
            "patterns/mutant/shadow-in-place",
            "update in place",
            ShadowMutant::InPlace,
        ),
    ] {
        let program = &shadow::PUT;
        set.add(name, desc, ShadowHarness { mutant, program });
    }
    for (name, desc, mutant) in [
        (
            "patterns/mutant/wal-skip-recovery-apply",
            "recovery skips committed txn",
            WalMutant::SkipRecoveryApply,
        ),
        (
            "patterns/mutant/wal-header-first",
            "header before log entries",
            WalMutant::HeaderFirst,
        ),
        (
            "patterns/mutant/wal-skip-helping",
            "no helping token",
            WalMutant::SkipHelping,
        ),
        (
            "patterns/mutant/wal-skip-commit-flush",
            "no flush barrier before the commit header",
            WalMutant::SkipCommitFlush,
        ),
    ] {
        let program = &wal::PUT;
        set.add(name, desc, WalHarness { mutant, program });
    }
    for (name, desc, mutant) in [
        (
            "patterns/mutant/gc-count-first",
            "count block before entries",
            GcMutant::CountFirst,
        ),
        (
            "patterns/mutant/gc-fake-durability",
            "fake durability ack",
            GcMutant::FakeDurability,
        ),
    ] {
        let program = &group_commit::APPEND_FLUSH;
        set.add(name, desc, GcHarness { mutant, program });
    }
    for (name, desc, mutant) in [
        (
            "patterns/mutant/txn-no-log",
            "no log at all",
            TxnMutant::NoLog,
        ),
        (
            "patterns/mutant/txn-header-first",
            "header before entries",
            TxnMutant::HeaderFirst,
        ),
        (
            "patterns/mutant/txn-partial-recovery",
            "partial recovery apply",
            TxnMutant::PartialRecoveryApply,
        ),
    ] {
        let program = &txn_wal::COMMIT;
        set.add(name, desc, TxnHarness { mutant, program });
    }
    for (name, desc, mutant) in [
        (
            "patterns/mutant/sl-skip-fsync",
            "skip fsync",
            SlMutant::SkipFsync,
        ),
        (
            "patterns/mutant/sl-skip-dir-sync",
            "skip dir sync",
            SlMutant::SkipDirSync,
        ),
    ] {
        let program = &synced_log::APPEND_SYNC;
        set.add(name, desc, SlHarness { mutant, program });
    }
    // Not a bug in the code under test but in the *scenario*: the crash
    // hook panics. Campaigns must isolate it (ExecOutcome::HarnessPanic) and
    // keep going — pinned by tests/shard_resume.rs and tests/reduction.rs.
    set.add(
        "patterns/mutant/panic-reset",
        "harness crash hook panics (campaign isolation)",
        PanicOnReset(ShadowHarness {
            mutant: ShadowMutant::None,
            program: &shadow::PUT_GET,
        }),
    );
    set
}

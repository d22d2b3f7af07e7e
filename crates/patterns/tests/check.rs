//! Model-checking the three crash-safety patterns (Table 3 of the
//! paper), with mutation tests for each.

use crash_patterns::group_commit::{self, GcHarness, GcMutant};
use crash_patterns::shadow::{self, ShadowHarness, ShadowMutant};
use crash_patterns::wal::{self, WalHarness, WalMutant};
use perennial_checker::{check, CheckConfig, ExecOutcome, Pass};

fn cfg() -> CheckConfig {
    CheckConfig::builder()
        .dfs_max_executions(300)
        .random_samples(10)
        .random_crash_samples(20)
        .without_passes([Pass::NestedCrash])
        .build()
}

fn cfg_nested() -> CheckConfig {
    CheckConfig::builder()
        .dfs_max_executions(0)
        .random_samples(0)
        .random_crash_samples(0)
        .build()
}

// ---------------------------------------------------------------------
// Shadow copy.
// ---------------------------------------------------------------------

#[test]
fn shadow_copy_passes() {
    let report = check(
        &ShadowHarness {
            mutant: ShadowMutant::None,
            program: &shadow::PUT_GET,
        },
        &cfg(),
    );
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.crashes_injected > 10);
}

#[test]
fn shadow_copy_crash_during_recovery() {
    let h = ShadowHarness {
        mutant: ShadowMutant::None,
        program: &shadow::PUT,
    };
    let report = check(&h, &cfg_nested());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

#[test]
fn shadow_mutant_flip_first_caught() {
    let h = ShadowHarness {
        mutant: ShadowMutant::FlipFirst,
        program: &shadow::PUT,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("flip-first must be caught");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn shadow_mutant_in_place_caught() {
    let h = ShadowHarness {
        mutant: ShadowMutant::InPlace,
        program: &shadow::PUT,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("in-place must be caught");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

// ---------------------------------------------------------------------
// Write-ahead log.
// ---------------------------------------------------------------------

#[test]
fn wal_passes_and_uses_helping() {
    let report = check(
        &WalHarness {
            mutant: WalMutant::None,
            program: &wal::PUT_GET,
        },
        &cfg(),
    );
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    // The crash sweep must land between the header write and the apply,
    // forcing recovery to complete a committed-but-unapplied transaction.
    assert!(
        report.helped_ops >= 1,
        "no crash point exercised WAL recovery helping"
    );
}

#[test]
fn wal_crash_during_recovery() {
    let h = WalHarness {
        mutant: WalMutant::None,
        program: &wal::PUT,
    };
    let report = check(&h, &cfg_nested());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

#[test]
fn wal_mutant_skip_recovery_apply_caught() {
    let h = WalHarness {
        mutant: WalMutant::SkipRecoveryApply,
        program: &wal::PUT,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("skip-apply must be caught");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn wal_mutant_header_first_caught() {
    let h = WalHarness {
        mutant: WalMutant::HeaderFirst,
        program: &wal::PUT,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("header-first must be caught");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn wal_mutant_skip_helping_caught() {
    let h = WalHarness {
        mutant: WalMutant::SkipHelping,
        program: &wal::PUT,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("skip-helping must be caught");
    assert!(
        matches!(cx.outcome, ExecOutcome::Violation(_)),
        "expected a ghost violation, got {:?}",
        cx.outcome
    );
}

// ---------------------------------------------------------------------
// Group commit.
// ---------------------------------------------------------------------

#[test]
fn group_commit_passes() {
    let report = check(
        &GcHarness {
            mutant: GcMutant::None,
            program: &group_commit::APPEND_FLUSH,
        },
        &cfg(),
    );
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.crashes_injected > 10);
}

#[test]
fn group_commit_mutant_count_first_caught() {
    let h = GcHarness {
        mutant: GcMutant::CountFirst,
        program: &group_commit::APPEND_FLUSH,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("count-first must be caught");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn group_commit_mutant_fake_durability_caught() {
    let h = GcHarness {
        mutant: GcMutant::FakeDurability,
        program: &group_commit::APPEND_FLUSH,
    };
    let report = check(&h, &cfg());
    let cx = report
        .counterexample
        .expect("fake durability must be caught");
    assert!(
        matches!(
            cx.outcome,
            ExecOutcome::FinalCheckFailed(_) | ExecOutcome::Violation(_)
        ),
        "unexpected outcome {:?}",
        cx.outcome
    );
}

// ---------------------------------------------------------------------
// Transactional WAL (multi-block extension of the pattern).
// ---------------------------------------------------------------------

use crash_patterns::txn_wal::{self, TxnHarness, TxnMutant};

#[test]
fn txn_wal_passes_and_uses_helping() {
    let report = check(
        &TxnHarness {
            mutant: TxnMutant::None,
            program: &txn_wal::COMMIT_READ,
        },
        &cfg(),
    );
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(
        report.helped_ops >= 1,
        "no crash point exercised txn-WAL recovery helping"
    );
}

#[test]
fn txn_wal_crash_during_recovery() {
    let h = TxnHarness {
        mutant: TxnMutant::None,
        program: &txn_wal::COMMIT,
    };
    let report = check(&h, &cfg_nested());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

#[test]
fn txn_wal_mutant_no_log_caught() {
    let h = TxnHarness {
        mutant: TxnMutant::NoLog,
        program: &txn_wal::COMMIT,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("no-log must be caught");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn txn_wal_mutant_header_first_caught() {
    let h = TxnHarness {
        mutant: TxnMutant::HeaderFirst,
        program: &txn_wal::COMMIT,
    };
    let report = check(&h, &cfg());
    report.counterexample.expect("header-first must be caught");
}

#[test]
fn txn_wal_mutant_partial_recovery_caught() {
    let h = TxnHarness {
        mutant: TxnMutant::PartialRecoveryApply,
        program: &txn_wal::COMMIT,
    };
    let report = check(&h, &cfg());
    let cx = report
        .counterexample
        .expect("partial recovery apply must be caught");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

// ---------------------------------------------------------------------
// Synced log over the deferred-durability FS (§6.2 future work, built).
// ---------------------------------------------------------------------

use crash_patterns::synced_log::{self, SlHarness, SlMutant};

#[test]
fn synced_log_passes() {
    let report = check(
        &SlHarness {
            mutant: SlMutant::None,
            program: &synced_log::APPEND_SYNC,
        },
        &cfg(),
    );
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.crashes_injected > 10);
}

#[test]
fn synced_log_crash_during_recovery() {
    let report = check(
        &SlHarness {
            mutant: SlMutant::None,
            program: &synced_log::APPEND_SYNC,
        },
        &cfg_nested(),
    );
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

#[test]
fn synced_log_mutant_skip_fsync_caught() {
    let h = SlHarness {
        mutant: SlMutant::SkipFsync,
        program: &synced_log::APPEND_SYNC,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("skip-fsync must be caught");
    assert!(
        matches!(
            cx.outcome,
            ExecOutcome::FinalCheckFailed(_) | ExecOutcome::Violation(_)
        ),
        "unexpected outcome {:?}",
        cx.outcome
    );
}

#[test]
fn synced_log_mutant_skip_dir_sync_caught() {
    let h = SlHarness {
        mutant: SlMutant::SkipDirSync,
        program: &synced_log::APPEND_SYNC,
    };
    let report = check(&h, &cfg());
    // Caught either by the durable-image abstraction check (crash-free:
    // the watermark claims durability the durable image lacks) or by a
    // post-crash read of the vanished record.
    let cx = report.counterexample.expect("skip-dir-sync must be caught");
    assert!(
        matches!(cx.outcome, ExecOutcome::FinalCheckFailed(_)),
        "unexpected outcome {:?}",
        cx.outcome
    );
}

// ---------------------------------------------------------------------
// Fault-injection sweeps (torn writes at the buffered-disk layer).
// ---------------------------------------------------------------------

fn cfg_faults() -> CheckConfig {
    CheckConfig::builder()
        .dfs_max_executions(0)
        .random_samples(0)
        .random_crash_samples(0)
        .without_passes([Pass::NestedCrash])
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .build()
}

#[test]
fn wal_mutant_skip_commit_flush_invisible_to_plain_crash_sweep() {
    // Without torn writes every crash keeps the whole write buffer
    // (KeepAll), so skipping the flush barrier before the commit header
    // is unobservable — exactly why the torn-write sweep exists.
    let h = WalHarness {
        mutant: WalMutant::SkipCommitFlush,
        program: &wal::PUT,
    };
    let report = check(&h, &cfg());
    assert!(
        report.passed(),
        "plain crash sweep should NOT catch skip-commit-flush: {:?}",
        report.counterexample
    );
}

#[test]
fn wal_mutant_skip_commit_flush_caught_by_torn_write_sweep() {
    let h = WalHarness {
        mutant: WalMutant::SkipCommitFlush,
        program: &wal::PUT,
    };
    let report = check(&h, &cfg_faults());
    let cx = report
        .counterexample
        .expect("torn-write sweep must catch skip-commit-flush");
    assert_eq!(cx.pass, "torn-write-sweep");
    assert!(!cx.faults.is_empty(), "counterexample records the plan");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn patterns_pass_under_fault_sweeps() {
    let cfg = cfg_faults();
    let wal = check(
        &WalHarness {
            mutant: WalMutant::None,
            program: &wal::PUT,
        },
        &cfg,
    );
    assert!(wal.passed(), "wal: {:?}", wal.counterexample);
    let shadow = check(
        &ShadowHarness {
            mutant: ShadowMutant::None,
            program: &shadow::PUT,
        },
        &cfg,
    );
    assert!(shadow.passed(), "shadow: {:?}", shadow.counterexample);
    let gc = check(
        &GcHarness {
            mutant: GcMutant::None,
            program: &group_commit::APPEND_FLUSH,
        },
        &cfg,
    );
    assert!(gc.passed(), "group commit: {:?}", gc.counterexample);
    let txn = check(
        &TxnHarness {
            mutant: TxnMutant::None,
            program: &txn_wal::COMMIT,
        },
        &cfg,
    );
    assert!(txn.passed(), "txn wal: {:?}", txn.counterexample);
}

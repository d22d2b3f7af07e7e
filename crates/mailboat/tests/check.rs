//! Model-checking Mailboat (§8): concurrency, crash sweeps, the §8.3
//! undefined-behaviour argument, and mutants.

use mailboat::harness::{MbHarness, MbStep};
use mailboat::harness::{DELIVER_VS_PICKUP, NET_DELIVER, SINGLE_DELIVER, TWO_DELIVERS, TWO_USERS};
use mailboat::proof::MbMutant;
use perennial_checker::{check, CheckConfig, ExecOutcome, Pass, Program};

/// The §8.3 slice race without a post-recovery round.
static SLICE_RACE: Program<MbStep> = Program {
    threads: &[
        ("deliver-slice", &[MbStep::DeliverSlice(0)]),
        ("slice-mutator", &[MbStep::MutateSlice]),
    ],
    after: &[],
};

fn cfg() -> CheckConfig {
    CheckConfig::builder()
        .dfs_max_executions(250)
        .random_samples(10)
        .random_crash_samples(15)
        .without_passes([Pass::NestedCrash])
        .max_steps(200_000)
        .build()
}

fn cfg_no_crash() -> CheckConfig {
    CheckConfig::builder()
        .dfs_max_executions(400)
        .random_samples(20)
        .random_crash_samples(0)
        .without_passes([Pass::CrashSweep, Pass::NestedCrash])
        .max_steps(200_000)
        .build()
}

#[test]
fn deliver_vs_pickup_passes() {
    let report = check(
        &MbHarness {
            mutant: MbMutant::None,
            program: &DELIVER_VS_PICKUP,
        },
        &cfg(),
    );
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.executions > 100);
    assert!(report.crashes_injected > 10);
}

#[test]
fn two_delivers_same_user_pass() {
    let h = MbHarness {
        mutant: MbMutant::None,
        program: &TWO_DELIVERS,
    };
    let report = check(&h, &cfg());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

#[test]
fn two_users_with_pickup_pass() {
    let h = MbHarness {
        mutant: MbMutant::None,
        program: &TWO_USERS,
    };
    let report = check(&h, &cfg());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

#[test]
fn single_deliver_crash_during_recovery() {
    // §5.5 idempotence for Mailboat's recovery (spool cleanup).
    let h = MbHarness {
        mutant: MbMutant::None,
        program: &SINGLE_DELIVER,
    };
    let report = check(
        &h,
        &CheckConfig::builder()
            .dfs_max_executions(0)
            .random_samples(0)
            .random_crash_samples(0)
            .max_steps(200_000)
            .build(),
    );
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

#[test]
fn sec8_3_slice_race_is_flagged_as_ub() {
    // §8.3 "Exploiting undefined behaviour": a caller mutating the
    // message slice during Deliver is UB; the checker must find the
    // interleaving and classify it as such (not as a refinement bug).
    let h = MbHarness {
        mutant: MbMutant::None,
        program: &SLICE_RACE,
    };
    let report = check(&h, &cfg_no_crash());
    let cx = report.counterexample.expect("slice race must be detected");
    assert!(
        matches!(cx.outcome, ExecOutcome::Ub(_)),
        "expected UB, got {:?}",
        cx.outcome
    );
}

// ---------------------------------------------------------------------
// Mutants (DESIGN.md §8).
// ---------------------------------------------------------------------

#[test]
fn mutant_no_spool_caught() {
    // Direct writes into the mailbox let a concurrent pickup observe a
    // partial message (or a crash leave one behind).
    let h = MbHarness {
        mutant: MbMutant::NoSpool,
        program: &DELIVER_VS_PICKUP,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("no-spool must be caught");
    assert!(
        matches!(cx.outcome, ExecOutcome::Violation(_)),
        "unexpected outcome {:?}",
        cx.outcome
    );
}

#[test]
fn mutant_commit_at_spool_caught() {
    // Premature linearization: a crash between the spool write and the
    // link loses a committed message.
    let h = MbHarness {
        mutant: MbMutant::CommitAtSpool,
        program: &SINGLE_DELIVER,
    };
    let report = check(&h, &cfg());
    let cx = report
        .counterexample
        .expect("commit-at-spool must be caught");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn mutant_skip_recovery_cleanup_caught() {
    let h = MbHarness {
        mutant: MbMutant::SkipRecoveryCleanup,
        program: &SINGLE_DELIVER,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("skip-cleanup must be caught");
    assert!(
        matches!(cx.outcome, ExecOutcome::FinalCheckFailed(ref m) if m.contains("spool")),
        "unexpected outcome {:?}",
        cx.outcome
    );
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn mutant_delete_without_lock_caught() {
    let h = MbHarness {
        mutant: MbMutant::DeleteWithoutLock,
        program: &DELIVER_VS_PICKUP,
    };
    let report = check(&h, &cfg_no_crash());
    let cx = report
        .counterexample
        .expect("delete-without-lock must be caught");
    assert!(
        matches!(cx.outcome, ExecOutcome::Violation(_)),
        "unexpected outcome {:?}",
        cx.outcome
    );
}

// ---------------------------------------------------------------------
// Net-fault sweeps: the courier over the unreliable model channel.
// ---------------------------------------------------------------------

fn cfg_faults() -> CheckConfig {
    CheckConfig::builder()
        .dfs_max_executions(0)
        .random_samples(0)
        .random_crash_samples(0)
        .without_passes([Pass::NestedCrash])
        .max_steps(200_000)
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .build()
}

#[test]
fn net_deliver_passes_with_and_without_faults() {
    // The deduplicating courier is correct under a reliable channel and
    // under every single-fault plan (drop, duplicate, delay).
    let h = MbHarness {
        mutant: MbMutant::None,
        program: &NET_DELIVER,
    };
    let report = check(&h, &cfg());
    assert!(report.passed(), "reliable: {:?}", report.counterexample);
    let report = check(&h, &cfg_faults());
    assert!(report.passed(), "faulty: {:?}", report.counterexample);
}

#[test]
fn net_no_dedup_invisible_without_fault_sweep() {
    // A reliable channel never duplicates, so the missing dedup is
    // unobservable without the net-fault sweep.
    let h = MbHarness {
        mutant: MbMutant::NetNoDedup,
        program: &NET_DELIVER,
    };
    let report = check(&h, &cfg());
    assert!(
        report.passed(),
        "plain sweeps should NOT catch net-no-dedup: {:?}",
        report.counterexample
    );
}

#[test]
fn net_no_dedup_caught_by_net_fault_sweep() {
    let h = MbHarness {
        mutant: MbMutant::NetNoDedup,
        program: &NET_DELIVER,
    };
    let report = check(&h, &cfg_faults());
    let cx = report
        .counterexample
        .expect("net-fault sweep must catch net-no-dedup");
    assert_eq!(cx.pass, "net-fault-sweep");
    assert!(!cx.faults.is_empty(), "counterexample records the plan");
    assert!(
        matches!(cx.outcome, ExecOutcome::Bug(_)),
        "duplicate delivery trips the courier's at-most-once assert: {:?}",
        cx.outcome
    );
}

//! Model-checking the replicated disk: the paper's running example,
//! including the Figure 6 crash-mid-write scenario, disk failover, and
//! mutants that the checker must reject.

use perennial_checker::{check, CheckConfig, ExecOutcome, Pass, Program};
use repldisk::harness::{RdHarness, RdStep, FAILOVER, MIXED, SINGLE_WRITE, WRITE_RACE};
use repldisk::proof::RdMutant;

fn cfg() -> CheckConfig {
    CheckConfig::builder()
        .dfs_max_executions(400)
        .random_samples(15)
        .random_crash_samples(30)
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

#[test]
fn fig6_single_write_crash_sweep_uses_helping() {
    // Figure 6: a crash in the middle of rd_write; recovery completes the
    // operation via the helping token and the whole sequence refines one
    // crash step. Sweeping the crash point through the write guarantees
    // the "between the two disk writes" position is covered.
    let h = RdHarness {
        mutant: RdMutant::None,
        program: &SINGLE_WRITE,
    };
    let report = check(&h, &cfg());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    // At least one swept crash point must land between the two disk
    // writes, forcing a recovery-helping commit.
    assert!(
        report.helped_ops >= 1,
        "no crash point exercised recovery helping (helped={})",
        report.helped_ops
    );
}

/// `SINGLE_WRITE` without its post-recovery round.
static WRITE_ONLY: Program<RdStep> = Program {
    threads: &[("writer", &[RdStep::Write(0, 7)])],
    after: &[],
};

#[test]
fn fig6_crash_during_recovery_is_idempotent() {
    // §5.5's idempotence obligation: recovery must tolerate crashing and
    // re-running. Sweep a second crash through every recovery step.
    let h = RdHarness {
        mutant: RdMutant::None,
        program: &WRITE_ONLY,
    };
    let report = check(&h, &cfg_nested());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.crashes_injected > report.crash_points / 2);
}

#[test]
fn mixed_workload_passes_all_passes() {
    let h = RdHarness {
        mutant: RdMutant::None,
        program: &MIXED,
    };
    let report = check(&h, &cfg());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.executions > 100);
}

#[test]
fn write_write_race_is_linearizable() {
    let h = RdHarness {
        mutant: RdMutant::None,
        program: &WRITE_RACE,
    };
    let report = check(&h, &cfg());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

#[test]
fn failover_to_second_disk_is_correct() {
    let h = RdHarness {
        mutant: RdMutant::None,
        program: &FAILOVER,
    };
    let report = check(&h, &cfg());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

// ---------------------------------------------------------------------
// Mutants (DESIGN.md §8): each must be rejected.
// ---------------------------------------------------------------------

#[test]
fn mutant_skip_second_write_caught_by_failover() {
    let h = RdHarness {
        mutant: RdMutant::SkipSecondWrite,
        program: &FAILOVER,
    };
    let report = check(&h, &cfg());
    let cx = report
        .counterexample
        .expect("skip-second-write must be caught");
    assert!(
        matches!(cx.outcome, ExecOutcome::Violation(_)),
        "unexpected outcome {:?}",
        cx.outcome
    );
}

#[test]
fn mutant_zeroing_recovery_caught() {
    // §1: "it would be wrong for recovery to make the disks in sync by
    // zeroing them both."
    let h = RdHarness {
        mutant: RdMutant::ZeroingRecovery,
        program: &SINGLE_WRITE,
    };
    let report = check(&h, &cfg());
    let cx = report
        .counterexample
        .expect("zeroing recovery must be caught");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn mutant_skip_helping_caught() {
    // Without the stashed token, recovery has no right to complete the
    // crashed write — the ghost engine rejects the repair.
    let h = RdHarness {
        mutant: RdMutant::SkipHelping,
        program: &SINGLE_WRITE,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("skip-helping must be caught");
    assert!(
        matches!(cx.outcome, ExecOutcome::Violation(_)),
        "expected a ghost violation, got {:?}",
        cx.outcome
    );
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn mutant_commit_early_caught() {
    // Premature linearization: committing at the first disk write means a
    // crash in between loses a committed operation.
    let h = RdHarness {
        mutant: RdMutant::CommitEarly,
        program: &SINGLE_WRITE,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("commit-early must be caught");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

// ---------------------------------------------------------------------
// Fault-injection sweeps (transient I/O errors and plan-scheduled disk
// failures).
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
fn transient_give_up_invisible_without_fault_sweep() {
    // Without a transient plan no I/O op ever errors, so the mutant's
    // missing retry never fires — exactly why the disk-fault sweep
    // exists.
    let h = RdHarness {
        mutant: RdMutant::GiveUpOnTransient,
        program: &SINGLE_WRITE,
    };
    let report = check(&h, &cfg());
    assert!(
        report.passed(),
        "plain sweeps should NOT catch give-up-on-transient: {:?}",
        report.counterexample
    );
}

#[test]
fn transient_give_up_caught_by_disk_fault_sweep() {
    let h = RdHarness {
        mutant: RdMutant::GiveUpOnTransient,
        program: &SINGLE_WRITE,
    };
    let report = check(&h, &cfg_faults());
    let cx = report
        .counterexample
        .expect("disk-fault sweep must catch give-up-on-transient");
    assert_eq!(cx.pass, "disk-fault-sweep");
    assert!(!cx.faults.is_empty(), "counterexample records the plan");
}

#[test]
fn repldisk_passes_disk_fault_sweep() {
    // Transient errors are absorbed by retries, and a plan-scheduled
    // permanent failure of either disk (including during recovery) is
    // within the replicated disk's one-failure fault model.
    let cfg = cfg_faults();
    for (name, program) in [
        ("single-write", &SINGLE_WRITE),
        ("mixed", &MIXED),
        ("failover", &FAILOVER),
    ] {
        let report = check(
            &RdHarness {
                mutant: RdMutant::None,
                program,
            },
            &cfg,
        );
        assert!(report.passed(), "{name}: {:?}", report.counterexample);
    }
}

//! Model-checking the node KV store: all programs, crash sweeps, and
//! mutants.

use perennial_checker::{check, CheckConfig, ExecOutcome, Pass, Program};
use perennial_kv::harness::{CROSS_BUCKET, PUT_DELETE_GET, SAME_BUCKET, SINGLE_PUT};
use perennial_kv::{KvHarness, KvMutant, KvOp};

fn cfg() -> CheckConfig {
    CheckConfig::builder()
        .dfs_max_executions(300)
        .random_samples(10)
        .random_crash_samples(20)
        .without_passes([Pass::NestedCrash])
        .max_steps(200_000)
        .build()
}

#[test]
fn cross_bucket_parallel_ops_pass() {
    let report = check(
        &KvHarness {
            mutant: KvMutant::None,
            program: &CROSS_BUCKET,
        },
        &cfg(),
    );
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.executions > 100);
}

#[test]
fn same_bucket_contention_passes() {
    let h = KvHarness {
        mutant: KvMutant::None,
        program: &SAME_BUCKET,
    };
    let report = check(&h, &cfg());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

#[test]
fn put_delete_get_interleavings_pass() {
    let h = KvHarness {
        mutant: KvMutant::None,
        program: &PUT_DELETE_GET,
    };
    let report = check(&h, &cfg());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

/// `SINGLE_PUT` without its post-recovery round.
static PUT_ONLY: Program<KvOp> = Program {
    threads: &[("put", &[KvOp::Put(0, 100)])],
    after: &[],
};

#[test]
fn crash_during_recovery_is_idempotent() {
    let h = KvHarness {
        mutant: KvMutant::None,
        program: &PUT_ONLY,
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
fn mutant_in_place_caught() {
    let h = KvHarness {
        mutant: KvMutant::InPlace,
        program: &SINGLE_PUT,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("in-place must be caught");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn mutant_flip_first_caught() {
    let h = KvHarness {
        mutant: KvMutant::FlipFirst,
        program: &SINGLE_PUT,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("flip-first must be caught");
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn mutant_no_lock_caught() {
    let h = KvHarness {
        mutant: KvMutant::NoLock,
        program: &SAME_BUCKET,
    };
    let report = check(&h, &cfg());
    let cx = report.counterexample.expect("no-lock must be caught");
    assert!(
        matches!(cx.outcome, ExecOutcome::Violation(_)),
        "unexpected outcome {:?}",
        cx.outcome
    );
}

#[test]
fn kv_passes_fault_sweeps() {
    // Buffered shadow slots + flush barrier + write-through pointer
    // flip: torn crashes and transient I/O errors change nothing
    // observable.
    let cfg = CheckConfig::builder()
        .dfs_max_executions(0)
        .random_samples(0)
        .random_crash_samples(0)
        .without_passes([Pass::NestedCrash])
        .max_steps(200_000)
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .build();
    let h = KvHarness {
        mutant: KvMutant::None,
        program: &SINGLE_PUT,
    };
    let report = check(&h, &cfg);
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.fault_plans > 0, "fault passes actually ran");
}

//! The write-ahead-log pattern (§9.1) under the checker: atomic pair
//! updates, a crash swept through every step — including between the
//! log-header write and the apply, where recovery must *help* the
//! crashed transaction to completion — and the group-commit variant
//! whose spec explicitly permits losing buffered transactions.
//!
//! Run with: `cargo run --example wal_pair`

use crash_patterns::group_commit::{self, GcHarness, GcMutant};
use crash_patterns::shadow::{self, ShadowHarness, ShadowMutant};
use crash_patterns::wal::{self, WalHarness, WalMutant};
use perennial_checker::{check, CheckConfig, Pass};

fn main() {
    let config = CheckConfig::builder()
        .dfs_max_executions(300)
        .random_samples(10)
        .random_crash_samples(20)
        .without_passes([Pass::NestedCrash])
        .build();

    println!("Checking the three §9.1 crash-safety patterns:\n");

    let report = check(
        &ShadowHarness {
            mutant: ShadowMutant::None,
            program: &shadow::PUT_GET,
        },
        &config,
    );
    println!("shadow copy  : {}", report.summary());
    assert!(report.passed());

    let report = check(
        &WalHarness {
            mutant: WalMutant::None,
            program: &wal::PUT_GET,
        },
        &config,
    );
    println!("write-ahead  : {}", report.summary());
    assert!(report.passed());
    assert!(
        report.helped_ops > 0,
        "the crash sweep must hit the committed-but-unapplied window"
    );
    println!(
        "               {} executions needed recovery helping (a committed,\n               \
         unapplied transaction was finished by recovery)",
        report.helped_ops
    );

    let report = check(
        &GcHarness {
            mutant: GcMutant::None,
            program: &group_commit::APPEND_FLUSH,
        },
        &config,
    );
    println!("group commit : {}", report.summary());
    assert!(report.passed());
    println!(
        "               buffered transactions may be lost on crash — the spec's\n               \
         crash transition says exactly which (the un-flushed suffix)"
    );
}

//! Deep verification runs: larger exploration budgets than the default
//! CI tests. Ignored by default; run with
//!
//! ```console
//! cargo test --release --test deep_check -- --ignored --nocapture
//! ```

use perennial_checker::{CheckConfig, CheckReport};
use perennial_suite::all_scenarios;

fn deep() -> CheckConfig {
    CheckConfig::builder()
        .dfs_max_executions(5_000)
        .random_samples(200)
        .random_crash_samples(300)
        .max_steps(500_000)
        .build()
}

/// The registered scenario `name`, checked under [`deep`].
fn check(name: &str) -> CheckReport {
    let scenario = all_scenarios().get(name).expect("registered").clone();
    scenario.run(&deep())
}

#[test]
#[ignore = "deep exploration; run explicitly with --ignored"]
fn deep_replicated_disk_mixed() {
    let report = check("repldisk/mixed");
    eprintln!("{}", report.summary());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.executions > 1_000);
}

#[test]
#[ignore = "deep exploration; run explicitly with --ignored"]
fn deep_repldisk_failover() {
    let report = check("repldisk/failover");
    eprintln!("{}", report.summary());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

#[test]
#[ignore = "deep exploration; run explicitly with --ignored"]
fn deep_wal_and_txn_wal() {
    let report = check("patterns/wal");
    eprintln!("{}", report.summary());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.helped_ops > 0);

    let report = check("patterns/txn-wal");
    eprintln!("{}", report.summary());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.helped_ops > 0);
}

#[test]
#[ignore = "deep exploration; run explicitly with --ignored"]
fn deep_mailboat_two_users() {
    let report = check("mailboat/two-users");
    eprintln!("{}", report.summary());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

#[test]
#[ignore = "deep exploration; run explicitly with --ignored"]
fn deep_kv_same_bucket() {
    let report = check("kv/same-bucket");
    eprintln!("{}", report.summary());
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
}

//! Workspace integration: every verified system through the full
//! checking pipeline, at a budget between the per-crate quick tests and
//! the harness binary's full runs.

use crash_patterns::{wal, WalHarness, WalMutant};
use perennial_checker::{check, CheckConfig, CheckReport, Pass, Program};
use perennial_suite::all_scenarios;
use repldisk::harness::{RdHarness, RdStep};
use repldisk::proof::RdMutant;

fn cfg() -> CheckConfig {
    CheckConfig::builder()
        .dfs_max_executions(400)
        .random_samples(20)
        .random_crash_samples(30)
        .without_passes([Pass::NestedCrash])
        .max_steps(200_000)
        .build()
}

/// The registered scenario `name`, checked under `config`.
fn run(name: &str, config: &CheckConfig) -> CheckReport {
    let scenario = all_scenarios().get(name).expect("registered").clone();
    scenario.run(config)
}

/// `repldisk/single-write`'s program without its post-recovery round.
static WRITE_ONLY: Program<RdStep> = Program {
    threads: &[("writer", &[RdStep::Write(0, 7)])],
    after: &[],
};

#[test]
fn all_verified_systems_pass() {
    let mut summaries = Vec::new();

    let r = run("repldisk/mixed", &cfg());
    assert!(r.passed(), "replicated disk: {:?}", r.counterexample);
    summaries.push(r.summary());

    let r = run("patterns/shadow", &cfg());
    assert!(r.passed(), "shadow copy: {:?}", r.counterexample);
    summaries.push(r.summary());

    let r = run("patterns/wal", &cfg());
    assert!(r.passed(), "WAL: {:?}", r.counterexample);
    summaries.push(r.summary());

    let r = run("patterns/group-commit", &cfg());
    assert!(r.passed(), "group commit: {:?}", r.counterexample);
    summaries.push(r.summary());

    let r = run("mailboat/deliver-vs-pickup", &cfg());
    assert!(r.passed(), "mailboat: {:?}", r.counterexample);
    summaries.push(r.summary());

    let r = run("kv/cross-bucket", &cfg());
    assert!(r.passed(), "node KV: {:?}", r.counterexample);
    summaries.push(r.summary());

    for s in &summaries {
        eprintln!("{s}");
    }
}

#[test]
fn helping_systems_actually_help_under_crash_sweep() {
    // The two systems whose proofs rely on recovery helping must
    // exercise it when a crash is swept through their write paths.
    let r = run("repldisk/single-write", &cfg());
    assert!(r.passed());
    assert!(r.helped_ops > 0, "replicated disk: helping never fired");

    let r = run("patterns/wal", &cfg());
    assert!(r.passed());
    assert!(r.helped_ops > 0, "WAL: helping never fired");

    // The two that don't use helping must never fire it.
    let r = run("patterns/shadow", &cfg());
    assert!(r.passed());
    assert_eq!(r.helped_ops, 0, "shadow copy must not need helping");

    let r = run("patterns/group-commit", &cfg());
    assert!(r.passed());
    assert_eq!(r.helped_ops, 0, "group commit must not need helping");
}

#[test]
fn deeper_nested_crash_sweep_on_two_systems() {
    // Crash-during-recovery (the idempotence obligation), at integration
    // depth for the two helping-based systems.
    let nested = CheckConfig::builder()
        .dfs_max_executions(0)
        .random_samples(0)
        .random_crash_samples(0)
        .max_steps(200_000)
        .build();
    let r = check(
        &RdHarness {
            mutant: RdMutant::None,
            program: &WRITE_ONLY,
        },
        &nested,
    );
    assert!(r.passed(), "replicated disk nested: {:?}", r.counterexample);

    let r = check(
        &WalHarness {
            mutant: WalMutant::None,
            program: &wal::PUT,
        },
        &nested,
    );
    assert!(r.passed(), "WAL nested: {:?}", r.counterexample);
}

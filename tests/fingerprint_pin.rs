//! The scheduler's equality oracle, at tier-1 (ROADMAP item 2): how
//! `goose::sched` hands control around must never show in what the
//! checker explores or reports. The constants below were recorded while
//! the controller still granted every step itself; a hand-off change that
//! moves any of them changed behaviour, not just speed.

use perennial_checker::{
    failure_fingerprint, report_fingerprint, trace_fingerprint, CheckConfig, Pass, SleepSetDpor,
};
use perennial_suite::{all_mutant_scenarios, all_scenarios};

/// `scan --filter patterns` prints this at every worker count.
const PATTERNS_CAMPAIGN: u64 = 0xe474_5a87_2f73_2b5c;

#[test]
fn patterns_campaign_fingerprint_is_pinned_at_one_and_two_workers() {
    for workers in [1, 2] {
        // `scan`'s configuration and its fold over report fingerprints.
        let mut lines: Vec<String> = all_scenarios()
            .iter()
            .chain(all_mutant_scenarios().iter())
            .filter(|s| s.name().contains("patterns"))
            .map(|scenario| {
                let mut report = scenario.run(
                    &CheckConfig::builder()
                        .seed(7)
                        .dfs_max_executions(300)
                        .random_samples(10)
                        .random_crash_samples(25)
                        .max_steps(200_000)
                        .keep_going(true)
                        .workers(workers)
                        .build(),
                );
                // Mutants share their base scenario's harness name; the
                // campaign keys on the registry's.
                report.name = scenario.name().to_string();
                format!("{}={:#018x}", report.name, report_fingerprint(&report))
            })
            .collect();
        lines.sort();
        assert_eq!(
            trace_fingerprint(&lines.join("\n")),
            PATTERNS_CAMPAIGN,
            "campaign fingerprint moved at {workers} worker(s)"
        );
    }
}

/// One DPOR run's deterministic outline: sleep-set prunes, executions and
/// steps up to the counterexample, scheduler decisions summed over them,
/// and the counterexample's pass, index, schedule and failure identity.
type DporPin<'a> = (u64, usize, u64, u64, Pass, u64, &'a [usize], u64);

const DPOR_PINS: [(&str, DporPin<'static>); 3] = [
    // Prunes, then falls through to the crash sweep.
    (
        "patterns/mutant/gc-count-first",
        (
            15,
            1999,
            58_637,
            58_624,
            Pass::CrashSweep,
            12,
            &[],
            0xc01f_e3e1_82bf_bd8c,
        ),
    ),
    // Found deep in the reduced DFS.
    (
        "mailboat/mutant/no-spool",
        (
            0,
            169,
            2_574,
            2_574,
            Pass::Dfs,
            168,
            &[0, 0, 0, 1, 1, 1, 1, 1],
            0x6aca_d972_7e57_cb63,
        ),
    ),
    // A racy heap access: the failure is a thread's panic mid-run.
    (
        "mailboat/mutant/slice-race",
        (
            0,
            33,
            456,
            456,
            Pass::Dfs,
            32,
            &[0, 0, 0, 0, 0, 1, 1],
            0xbd55_42b3_eb6d_1c73,
        ),
    ),
];

#[test]
fn dpor_runs_are_pinned_on_three_mutants() {
    let registry = all_mutant_scenarios();
    for (name, pin) in DPOR_PINS {
        let scenario = registry.get(name).expect("registered mutant");
        // The benchmark's `hunt` configuration.
        let report = scenario.run(
            &CheckConfig::builder()
                .seed(7)
                .dfs_max_executions(2000)
                .random_samples(500)
                .random_crash_samples(100)
                .without_passes([Pass::NestedCrash])
                .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
                .max_steps(200_000)
                .strategy(SleepSetDpor)
                .workers(1)
                .build(),
        );
        let cx = report.counterexample.as_ref().expect("mutant caught");
        let seen: DporPin = (
            report.pruned,
            report.executions,
            report.total_steps,
            report.depth_hist.sum(),
            cx.pass,
            cx.index,
            &cx.schedule_prefix,
            failure_fingerprint(&cx.outcome),
        );
        assert_eq!(seen, pin, "{name}");
    }
}

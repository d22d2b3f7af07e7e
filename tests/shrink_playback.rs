//! The shrinking + playback contract (DESIGN.md §16): shrinking must
//! preserve the failure fingerprint, never grow a counterexample, and
//! be deterministic across worker counts; the emitted playback test
//! must pin the exact failure against the mutant while the same
//! coordinates do nothing against the fixed implementation.
//!
//! Representative mutants cover the three shrink shapes: a
//! schedule-phase DFS counterexample (`kv/mutant/no-lock`, a real
//! prefix reduction), a torn-write sweep counterexample
//! (`patterns/mutant/wal-skip-commit-flush`), and a net-fault sweep
//! counterexample (`mailboat/mutant/net-no-dedup`).

use perennial_checker::shrink::{cx_size, failure_fingerprint};
use perennial_checker::{emit_test, test_file_name, CheckConfig, CheckConfigBuilder, Pass};
use perennial_suite::{all_mutant_scenarios, all_scenarios};

/// `(mutant, fixed)` pairs running the *same workload*, so replaying
/// the mutant's pinned coordinates against the fixed scenario is
/// meaningful.
const REPRESENTATIVES: [(&str, &str); 3] = [
    ("kv/mutant/no-lock", "kv/same-bucket"),
    ("patterns/mutant/wal-skip-commit-flush", "patterns/wal"),
    ("mailboat/mutant/net-no-dedup", "mailboat/net-deliver"),
];

fn cfg() -> CheckConfigBuilder {
    CheckConfig::builder()
        .seed(7)
        .dfs_max_executions(300)
        .random_samples(10)
        .random_crash_samples(25)
        .max_steps(200_000)
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
}

#[test]
fn shrinking_preserves_the_fingerprint_and_never_grows() {
    let registry = all_mutant_scenarios();
    for (mutant, _) in REPRESENTATIVES {
        let scenario = registry.get(mutant).expect("registered mutant");

        let plain = scenario.run(&cfg().build());
        assert!(!plain.passed(), "{mutant}: mutant must fail");
        assert!(plain.shrink.is_none(), "{mutant}: shrink off => no stats");
        let original = &plain.counterexamples[0];
        let fp = failure_fingerprint(&original.outcome);
        let size = cx_size(original);

        let shrunk_report = scenario.run(&cfg().shrink(true).build());
        let stats = shrunk_report
            .shrink
            .expect("shrink on + counterexample => stats");
        let shrunk = &shrunk_report.counterexamples[0];

        // Same winning job both ways (shrink is post-selection) ...
        assert_eq!(shrunk.pass, original.pass, "{mutant}: pass changed");
        assert_eq!(shrunk.index, original.index, "{mutant}: index changed");
        // ... same failure identity, never a bigger certificate.
        assert_eq!(
            failure_fingerprint(&shrunk.outcome),
            fp,
            "{mutant}: shrinking changed the failure fingerprint"
        );
        let new_size = cx_size(shrunk);
        assert!(
            new_size <= size,
            "{mutant}: shrunk size {new_size} > original {size}"
        );
        assert_eq!(
            stats.steps_removed,
            (size - new_size) as u64,
            "{mutant}: steps_removed must equal the size delta"
        );
        assert!(stats.re_runs > 0, "{mutant}: shrinking must re-run");

        // The minimized certificate still reproduces under replay.
        let (outcome, _) = scenario.replay(shrunk, &cfg().build());
        assert!(outcome.is_failure(), "{mutant}: shrunk replay must fail");
        assert_eq!(
            failure_fingerprint(&outcome),
            fp,
            "{mutant}: shrunk replay fingerprint drifted"
        );
    }
}

#[test]
fn schedule_phase_counterexamples_shrink_strictly() {
    // Sweep-phase counterexamples are often born minimal (DESIGN.md
    // §16); schedule-phase ones carry a DFS prefix with real slack.
    // Pin that the flagship schedule-phase mutant actually reduces.
    let registry = all_mutant_scenarios();
    let scenario = registry.get("kv/mutant/no-lock").expect("registered");
    let report = scenario.run(&cfg().shrink(true).build());
    let stats = report.shrink.expect("stats");
    assert!(
        stats.steps_removed > 0,
        "kv/mutant/no-lock must shrink strictly (removed {})",
        stats.steps_removed
    );
}

#[test]
fn shrinking_is_deterministic_across_worker_counts() {
    let registry = all_mutant_scenarios();
    for (mutant, _) in REPRESENTATIVES {
        let scenario = registry.get(mutant).expect("registered mutant");
        let mut seen = Vec::new();
        for workers in [1usize, 8] {
            let report = scenario.run(&cfg().workers(workers).shrink(true).build());
            let cx = &report.counterexamples[0];
            seen.push((
                report.shrink.expect("stats"),
                cx.pass,
                cx.index,
                cx.seed,
                cx.schedule_prefix.clone(),
                cx.crash_points.clone(),
                cx.faults.compact(),
                failure_fingerprint(&cx.outcome),
            ));
        }
        assert_eq!(
            seen[0], seen[1],
            "{mutant}: shrink result differs between 1 and 8 workers"
        );
    }
}

/// The replay round trip, for every registered mutant (ROADMAP 4 (e)):
/// each harness's recovery and post-recovery round is driven from pinned
/// coordinates through the checker's one lifecycle.
#[test]
fn emitted_playback_test_pins_the_mutant_and_clears_the_fix() {
    let fixed_registry = all_scenarios();
    let replay_cfg = CheckConfig::builder().max_steps(200_000).build();
    for scenario in &all_mutant_scenarios() {
        let mutant = scenario.name();
        let report = scenario.run(&cfg().shrink(true).build());
        let cx = &report.counterexamples[0];
        let fp = failure_fingerprint(&cx.outcome);

        // The emitted source is a self-contained test with the pinned
        // coordinates as literals (compiled and executed for real by
        // the CI `playback` job).
        let source = emit_test(mutant, cx, 200_000);
        assert!(source.contains("#[test]"), "{mutant}: no test fn");
        assert!(source.contains(mutant), "{mutant}: scenario name absent");
        assert!(
            source.contains(&format!("{fp:#018x}")),
            "{mutant}: pinned fingerprint absent from the source"
        );
        assert!(
            source.contains(&format!("{:#018x}", cx.seed)),
            "{mutant}: pinned seed absent from the source"
        );
        assert!(
            source.contains("scenario.replay("),
            "{mutant}: emitted test must go through Scenario::replay"
        );
        let file = test_file_name(mutant);
        assert!(
            file.starts_with("replay_") && file.ends_with(".rs"),
            "{mutant}: bad file name {file}"
        );

        // The exact assertion the emitted test makes: the mutant
        // reproduces the pinned fingerprint ...
        let (outcome, _) = scenario.replay(cx, &replay_cfg);
        assert!(outcome.is_failure(), "{mutant}: replay must fail");
        assert_eq!(failure_fingerprint(&outcome), fp, "{mutant}: replay fp");

        // ... and, where a fixed twin runs the same workload, the fixed
        // implementation driven through the very same coordinates does
        // not fail at all — once a bug is fixed, the stale certificate
        // trips and gets deleted.
        let Some((_, fixed)) = REPRESENTATIVES.iter().find(|(m, _)| *m == mutant) else {
            continue;
        };
        let fixed_scenario = fixed_registry.get(fixed).expect("registered fixed");
        let (fixed_outcome, trace) = fixed_scenario.replay(cx, &replay_cfg);
        assert!(
            !fixed_outcome.is_failure(),
            "{fixed}: fixed code failed the mutant's coordinates: {fixed_outcome:?}\n{trace}"
        );
    }
}

#[test]
fn shrink_on_a_passing_scenario_is_a_no_op() {
    let registry = all_scenarios();
    let scenario = registry.get("kv/same-bucket").expect("registered");
    let report = scenario.run(&cfg().shrink(true).build());
    assert!(report.passed(), "correct scenario must pass");
    assert!(
        report.shrink.is_none(),
        "no counterexample => no shrink stats"
    );
}

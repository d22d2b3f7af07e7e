//! A resume replays a closed schedule phase instead of re-running it
//! (DESIGN.md §13), and the replay is checked differentially against the
//! cold run: every registered scenario under `verify`'s passes and every
//! mutant under sleep-set DPOR with early exit, each strategy, whole and
//! as either shard of two. Resumed from its complete log, a run lands on
//! the cold fingerprint and reads back every execution that passed at or
//! below the cutoff; resumed from the log cut just before its
//! `schedule_end`, it runs the schedule phase live and lands on the same
//! fingerprint.

use perennial_checker::telemetry::parse_wal;
use perennial_checker::{
    report_fingerprint, CheckConfig, CheckConfigBuilder, CheckReport, CoverageGuided, Exhaustive,
    Pass, Scenario, SleepSetDpor,
};
use perennial_suite::{all_mutant_scenarios, all_scenarios};
use std::path::PathBuf;

/// `verify`'s passes (the defaults), on budgets small enough for tier-1.
fn verify_cfg() -> CheckConfigBuilder {
    CheckConfig::builder()
        .seed(7)
        .dfs_max_executions(12)
        .random_samples(3)
        .random_crash_samples(3)
        .max_steps(200_000)
        .keep_going(true)
        .trace_capture(false)
        .workers(1)
}

/// `hunt`'s: sleep-set DPOR, the fault sweeps instead of the nested one,
/// and early exit.
fn hunt_cfg() -> CheckConfigBuilder {
    verify_cfg()
        .keep_going(false)
        .strategy(SleepSetDpor)
        .without_passes([Pass::NestedCrash])
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
}

fn wal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "perennial-schedule-replay-{}-{tag}.jsonl",
        std::process::id()
    ))
}

/// Runs `scenario` cold under `cfg` writing its log, then resumed from
/// the whole log and from the log cut just before its `schedule_end`.
/// Returns the cold report and how many executions the whole log's
/// resume read back.
fn resumes_to_the_cold_run(
    scenario: &Scenario,
    cfg: CheckConfigBuilder,
    tag: &str,
) -> (CheckReport, u64) {
    let name = scenario.name();
    let path = wal(tag);
    let cold = scenario.run(&cfg.clone().telemetry_path(&path).build());
    let want = report_fingerprint(&cold);
    let text = std::fs::read_to_string(&path).expect("the log");
    let log = parse_wal(&text, name);
    assert!(log.schedule_end.is_some(), "{name}: the phase closed");

    // Every execution that passed at or below the cutoff is in the log,
    // the schedule phase's included, and is read back.
    let cutoff = cold.counterexample.as_ref().map(|cx| cx.key());
    let passed = log.completed.keys();
    let below = passed.filter(|key| cutoff.is_none_or(|cut| **key <= cut));
    let resumed = scenario.run(&cfg.clone().resume_from(&path).build());
    assert_eq!(
        report_fingerprint(&resumed),
        want,
        "{name} {tag}: whole log"
    );
    assert_eq!(resumed.replayed, below.count() as u64, "{name} {tag}");

    // Without its close the schedule phase runs live: nothing before the
    // cut lies past the phase, so nothing is read back.
    let close = text.find("\"type\": \"schedule_end\"").expect("the record");
    let cut = &text[..text[..close].rfind('\n').map_or(0, |at| at + 1)];
    std::fs::write(&path, cut).expect("the cut log");
    let live = scenario.run(&cfg.resume_from(&path).build());
    let _ = std::fs::remove_file(&path);
    assert_eq!(report_fingerprint(&live), want, "{name} {tag}: cut log");
    assert_eq!(live.replayed, 0, "{name} {tag}: the phase ran live");
    (cold, resumed.replayed)
}

#[test]
fn every_correct_scenario_resumes_its_schedule_phase_from_the_log() {
    let shards = [None, Some((0, 2)), Some((1, 2))];
    for (i, scenario) in all_scenarios().iter().enumerate() {
        let cfg = match i % 3 {
            0 => verify_cfg().strategy(Exhaustive),
            1 => verify_cfg().strategy(SleepSetDpor),
            _ => verify_cfg().strategy(CoverageGuided),
        };
        let shard = shards[(i / 3) % 3];
        let tag = format!("v{i}");
        let (_, replayed) = resumes_to_the_cold_run(scenario, cfg.shard_opt(shard), &tag);
        assert!(replayed > 0, "{}", scenario.name());
    }
}

#[test]
fn every_mutant_resumes_its_schedule_phase_from_the_log() {
    let mut cancelled = 0;
    for (i, scenario) in all_mutant_scenarios().iter().enumerate() {
        let (cold, _) = resumes_to_the_cold_run(scenario, hunt_cfg(), &format!("m{i}"));
        let cx = cold.counterexample.expect("mutant caught");
        cancelled += usize::from(cx.pass == Pass::Dfs || cx.pass == Pass::Random);
    }
    // Both closes are covered: a phase a failure cancelled, whose failure
    // re-runs on resume, and a phase that ran out of waves.
    assert!(
        cancelled > 0 && cancelled < all_mutant_scenarios().len(),
        "{cancelled}"
    );
}

//! The profiler's side-channel contract (DESIGN.md §15): turning
//! `CheckConfig::profile(true)` on must not change what the checker
//! finds, writes, or fingerprints — and the profile's own counts must
//! be a pure function of the configuration, independent of the worker
//! count that happened to produce them.

use perennial_checker::telemetry::strip_timing;
use perennial_checker::{
    profile_to_json, report_fingerprint, CheckConfig, CheckConfigBuilder, Pass, TelemetrySink,
};
use perennial_suite::{all_mutant_scenarios, all_scenarios};
use serde_json::Value;

fn base_cfg() -> CheckConfigBuilder {
    CheckConfig::builder()
        .seed(7)
        .dfs_max_executions(150)
        .random_samples(10)
        .random_crash_samples(15)
        .without_passes([Pass::NestedCrash])
        .max_steps(200_000)
}

/// The profile as comparable JSON: wall-clock fields stripped (they are
/// the one legitimately machine-dependent part) and the worker count
/// removed (it is the one field that *names* the pool size).
fn comparable_profile(p: &perennial_checker::Profile) -> Value {
    let mut v = strip_timing(&profile_to_json(p));
    if let Value::Object(m) = &mut v {
        m.remove("workers");
    }
    v
}

/// The canonical job key `(pass rank, index)` of a per-execution WAL
/// record (`exec_done`, `counterexample`); `None` for the rest.
fn job_key(record: &Value) -> Option<(u8, u64)> {
    let Value::Object(m) = record else {
        return None;
    };
    match (m.get("pass"), m.get("index")) {
        (Some(Value::String(pass)), Some(Value::Number(index))) => {
            let pass: Pass = pass.parse().expect("a known pass name");
            Some((pass.rank(), *index as u64))
        }
        _ => None,
    }
}

#[test]
fn profiling_does_not_change_fingerprints_or_the_wal() {
    // The crossed contract: profiling {off, on} x workers {1, 8} must
    // produce the same report fingerprint and the same WAL contents
    // (timing fields excepted). The WAL comparison is what pins the
    // profiler as a pure consumer of records the checker already made.
    //
    // The mutant exits early, so a pool also logs whatever its other
    // workers had in flight past the winning `(pass, index)` key — how
    // much is a matter of timing. The report cuts those off; so does this
    // comparison.
    let registry = all_mutant_scenarios();
    let scenario = registry
        .get("repldisk/mutant/zeroing-recovery")
        .expect("registered scenario");
    let mut fingerprints = Vec::new();
    for workers in [1usize, 8] {
        let mut streams = Vec::new();
        for profiling in [false, true] {
            let (sink, buf) = TelemetrySink::shared_buffer();
            let report = scenario.run(
                &base_cfg()
                    .workers(workers)
                    .profile(profiling)
                    .telemetry(sink)
                    .build(),
            );
            assert_eq!(
                report.profile.is_some(),
                profiling,
                "profile presence must track the config"
            );
            fingerprints.push(report_fingerprint(&report));
            let winning = report
                .counterexample
                .as_ref()
                .expect("the mutant is caught")
                .key();
            let text = String::from_utf8(buf.lock().clone()).expect("stream is UTF-8");
            let mut lines: Vec<String> = text
                .lines()
                .map(|l| serde_json::from_str(l).expect("WAL line parses"))
                .filter(|v| job_key(v).is_none_or(|key| key <= winning))
                .map(|v| serde_json::to_string(&strip_timing(&v)).unwrap())
                .collect();
            // Worker pools emit exec_done records in discovery order;
            // sort so the comparison is about content, not interleaving.
            lines.sort();
            streams.push(lines);
        }
        assert_eq!(
            streams[0], streams[1],
            "profiling changed the WAL contents (workers={workers})"
        );
    }
    fingerprints.dedup();
    assert_eq!(
        fingerprints.len(),
        1,
        "report fingerprint varies with profiling or worker count"
    );
}

#[test]
fn profile_counts_are_worker_count_independent() {
    // Everything the profile counts — per-pass cost, the contention
    // table, collisions, strategy introspection — is aggregated under
    // the same canonical cutoff as the report statistics, so pool size
    // must not show through (wall-clock fields excepted).
    let registry = all_mutant_scenarios();
    let scenario = registry
        .get("repldisk/mutant/zeroing-recovery")
        .expect("registered scenario");
    let run = |workers: usize| {
        scenario
            .run(
                &base_cfg()
                    .workers(workers)
                    .keep_going(true)
                    .profile(true)
                    .build(),
            )
            .profile
            .expect("profiling was on")
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(
        comparable_profile(&seq),
        comparable_profile(&par),
        "profile counts differ between 1 and 8 workers"
    );
    assert_eq!(seq.workers.workers, 1);
    assert_eq!(par.workers.workers, 8);
}

#[test]
fn profile_cost_attribution_adds_up() {
    // On a passing scenario the profile is a partition of the report's
    // own totals: per-pass executions and steps must sum to exactly the
    // report's executions and total_steps, and the pass rows come out
    // in canonical rank order.
    let registry = all_scenarios();
    let scenario = registry.get("patterns/wal").expect("registered scenario");
    let report = scenario.run(&base_cfg().workers(4).profile(true).build());
    assert!(report.passed());
    let profile = report.profile.as_ref().expect("profiling was on");

    let execs: u64 = profile.passes.iter().map(|p| p.executions).sum();
    let steps: u64 = profile.passes.iter().map(|p| p.steps).sum();
    assert_eq!(
        execs, report.executions as u64,
        "pass executions must partition"
    );
    assert_eq!(steps, report.total_steps, "pass steps must partition");
    let ranks: Vec<u8> = profile.passes.iter().map(|p| p.rank).collect();
    let mut sorted = ranks.clone();
    sorted.sort_unstable();
    assert_eq!(ranks, sorted, "pass rows must be in rank order");
    assert!(
        profile.passes.iter().any(|p| p.executions > 0),
        "a real exploration attributes cost somewhere"
    );
}

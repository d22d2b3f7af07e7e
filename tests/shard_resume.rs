//! Campaign robustness: sharded runs merge back into the unsharded
//! report, SIGKILL-truncated WALs resume to the same fingerprint, and
//! misbehaving scenarios (panicking harnesses, livelocks) degrade to
//! recorded outcomes instead of aborting the campaign.
//!
//! The equality oracle throughout is
//! [`perennial_checker::report_fingerprint`]: a hash of the report's
//! deterministic content (timing, worker count, shard assignment, and
//! the replayed-execution diagnostic excluded).

use perennial_checker::telemetry::read_stream;
use perennial_checker::{
    check, merge_reports, report_fingerprint, CheckConfig, CheckConfigBuilder, ExecOutcome,
    OutcomeKind, Pass, Scenario, SleepSetDpor, SpinForever, TelemetrySink,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn base_cfg() -> CheckConfigBuilder {
    CheckConfig::builder()
        .seed(7)
        .dfs_max_executions(300)
        .random_samples(10)
        .random_crash_samples(25)
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .max_steps(200_000)
}

fn scenario(name: &str) -> Scenario {
    let mutants = crash_patterns::mutant_scenarios();
    crash_patterns::scenarios()
        .get(name)
        .or_else(|| mutants.get(name))
        .unwrap_or_else(|| panic!("unknown scenario {name}"))
        .clone()
}

fn tmp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "perennial-shard-resume-{}-{tag}",
        std::process::id()
    ));
    p
}

/// Sharding is a partition: every job key lands in exactly one shard,
/// and n = 1 means everything.
#[test]
fn shard_of_partitions_the_key_space() {
    use perennial_checker::shard_of;
    for rank in 0..10u8 {
        for index in 0..200u64 {
            assert_eq!(shard_of((rank, index), 1), 0);
            for n in [2u32, 3, 8] {
                let s = shard_of((rank, index), n);
                assert!(s < n, "key ({rank},{index}) mapped to shard {s} of {n}");
            }
        }
    }
    // The split is not degenerate: with n = 8 every shard owns work.
    let mut hit = [false; 8];
    for index in 0..200u64 {
        hit[perennial_checker::shard_of((3, index), 8) as usize] = true;
    }
    assert!(hit.iter().all(|h| *h), "some shard owns no rank-3 jobs");
}

/// The tentpole contract: run every shard separately (any worker
/// count), merge, and the fingerprint equals an unsharded keep-going
/// run — for a passing scenario and for a mutant with counterexamples,
/// with DPOR pruning on, including the nested-crash sweep.
#[test]
fn shard_merge_reproduces_unsharded_run() {
    for name in [
        "patterns/shadow",
        "patterns/wal",
        "patterns/mutant/wal-skip-recovery-apply",
    ] {
        let s = scenario(name);
        // Sharded runs force keep-going semantics, so the reference is
        // an unsharded keep-going run.
        let reference = s.run(
            &base_cfg()
                .strategy(SleepSetDpor)
                .with_passes([Pass::NestedCrash])
                .keep_going(true)
                .workers(1)
                .build(),
        );
        let want = report_fingerprint(&reference);
        assert!(reference.executions > 0, "{name}: empty reference run");

        for n in [2u32, 3, 8] {
            // Alternate worker counts across shards: the merge must not
            // care how each shard was parallelized.
            let shards: Vec<_> = (0..n)
                .map(|i| {
                    s.run(
                        &base_cfg()
                            .strategy(SleepSetDpor)
                            .with_passes([Pass::NestedCrash])
                            .shard(i, n)
                            .workers(if i % 2 == 0 { 1 } else { 8 })
                            .build(),
                    )
                })
                .collect();
            let total: usize = shards.iter().map(|r| r.executions).sum();
            assert_eq!(
                total, reference.executions,
                "{name} n={n}: shard executions don't sum to the unsharded count"
            );
            let merged = merge_reports(shards).unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
            assert_eq!(
                report_fingerprint(&merged),
                want,
                "{name} n={n}: merged fingerprint differs from unsharded run\n\
                 merged:    {}\n reference: {}",
                merged.summary(),
                reference.summary()
            );
        }
    }
}

/// Kill/resume contract: truncate the WAL at arbitrary byte offsets
/// (simulating SIGKILL mid-write) and resume — the final report
/// fingerprint matches the uninterrupted run, and the resumed run
/// actually replays work instead of starting over.
#[test]
fn truncated_wal_resumes_to_identical_fingerprint() {
    let s = scenario("patterns/wal");
    let cfg = || base_cfg().keep_going(true).workers(1);

    let cold = s.run(&cfg().build());
    let want = report_fingerprint(&cold);

    let full = tmp_path("full.jsonl");
    let walled = s.run(&cfg().telemetry_path(&full).build());
    assert_eq!(
        report_fingerprint(&walled),
        want,
        "telemetry changed the report"
    );
    let bytes = std::fs::read(&full).expect("WAL was written");
    assert!(
        bytes.len() > 1000,
        "WAL suspiciously small: {}",
        bytes.len()
    );

    // Cut mid-stream and mid-line: 30%, 60%, 95% of the file, nudged to
    // land inside a line.
    for (tag, frac) in [("30", 0.30f64), ("60", 0.60), ("95", 0.95)] {
        let mut cut = (bytes.len() as f64 * frac) as usize;
        while cut > 0 && bytes[cut - 1] == b'\n' {
            cut -= 1;
        }
        let path = tmp_path(&format!("cut{tag}.jsonl"));
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let resumed = s.run(&cfg().resume_from(&path).telemetry_path(&path).build());
        assert_eq!(
            report_fingerprint(&resumed),
            want,
            "resume from {frac} truncation diverged: {}",
            resumed.summary()
        );
        if frac > 0.5 {
            assert!(
                resumed.replayed > 0,
                "resume from {frac} truncation replayed nothing"
            );
        }
        // The resumed run appended its own records: resuming *again*
        // replays at least as much.
        let again = s.run(&cfg().resume_from(&path).telemetry_path(&path).build());
        assert_eq!(report_fingerprint(&again), want);
        assert!(again.replayed >= resumed.replayed);
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&full);
}

/// A record short of a counter is no record: the job re-runs. Zero-filling
/// the missing counter instead would replay the execution with, say, no
/// disk writes, and the resumed report would silently differ from a cold
/// run's.
#[test]
fn wal_records_short_of_a_counter_are_rerun_not_zero_filled() {
    use perennial_checker::telemetry::parse_wal;
    use serde_json::Value;

    let s = scenario("patterns/wal");
    let cfg = || base_cfg().keep_going(true).workers(1);
    let full = tmp_path("short-full.jsonl");
    let cold = s.run(&cfg().telemetry_path(&full).build());
    let want = report_fingerprint(&cold);
    let text = std::fs::read_to_string(&full).expect("WAL was written");
    let whole = parse_wal(&text, &cold.name).completed.len();
    assert!(whole > 50, "only {whole} replayable records");

    for key in [
        "steps",
        "depth",
        "crashes",
        "helped",
        "lock_blocks",
        "disk_ops",
        "net_msgs",
        "disk_reads",
        "disk_writes",
        "disk_flushes",
        "net_sends",
        "net_recvs",
        "trace_fp",
    ] {
        // The same log, every `exec_done` record missing `key`.
        let short: String = text
            .lines()
            .map(|line| {
                let Ok(Value::Object(mut m)) = serde_json::from_str(line) else {
                    panic!("unparseable WAL line {line}");
                };
                if m.get("type") == Some(&Value::String("exec_done".into())) {
                    assert!(m.remove(key).is_some(), "exec_done has no {key}");
                }
                serde_json::to_string(&Value::Object(m)).unwrap() + "\n"
            })
            .collect();
        let wal = parse_wal(&short, &cold.name);
        assert!(wal.completed.is_empty(), "records without {key} replayed");
        assert_eq!(wal.runs_started, 1, "the rest of the log still reads");

        let path = tmp_path(&format!("short-{key}.jsonl"));
        std::fs::write(&path, short).unwrap();
        let resumed = s.run(&cfg().resume_from(&path).build());
        assert_eq!(resumed.replayed, 0, "without {key}");
        assert_eq!(
            report_fingerprint(&resumed),
            want,
            "resuming over records without {key} diverged: {}",
            resumed.summary()
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&full);
}

/// A WAL written by a different configuration is rejected (cold start),
/// never trusted.
#[test]
fn wal_from_different_config_is_ignored() {
    let s = scenario("patterns/shadow");
    let path = tmp_path("other-config.jsonl");
    let a = s.run(
        &base_cfg()
            .keep_going(true)
            .workers(1)
            .telemetry_path(&path)
            .build(),
    );
    // Same scenario, different seed: the guard must refuse the replay.
    let resumed = s.run(
        &base_cfg()
            .seed(8)
            .keep_going(true)
            .workers(1)
            .resume_from(&path)
            .build(),
    );
    assert_eq!(resumed.replayed, 0, "replayed records from a seed-7 WAL");
    assert!(a.executions > 0);
    let _ = std::fs::remove_file(&path);
}

/// One stream may hold several scenarios' runs (`scenario_smoke
/// --telemetry f`, then `--telemetry f --resume f`): each run goes by its
/// registry name, so a scenario resumed from the shared stream replays
/// its own executions and none of a sibling's. Until PR 19 the stamp was
/// the harness's label, which these two share: `kv/single-put` came back
/// with 76 executions where the cold run has 60, verdict PASS.
#[test]
fn a_stream_shared_with_a_sibling_resumes_each_scenario_to_its_cold_report() {
    let registry = perennial_suite::all_scenarios();
    // `scenario_smoke`'s configuration.
    let cfg = || {
        CheckConfig::builder()
            .seed(0)
            .dfs_max_executions(200)
            .random_samples(10)
            .random_crash_samples(20)
            .without_passes([Pass::NestedCrash])
            .workers(1)
    };
    let siblings = ["kv/single-put", "kv/put-delete-get"].map(|name| {
        let s = registry.get(name).expect("registered").clone();
        let cold = s.run(&cfg().build());
        (s, cold)
    });
    let path = tmp_path("shared-stream.jsonl");
    let sink = TelemetrySink::to_file(&path).expect("temp file");
    for (s, _) in &siblings {
        s.run(&cfg().telemetry(sink.clone()).build());
    }
    for (s, cold) in &siblings {
        let resumed = s.run(&cfg().resume_from(&path).build());
        assert!(resumed.replayed > 0, "{}: nothing replayed", s.name());
        assert_eq!(
            (resumed.executions, resumed.total_steps),
            (cold.executions, cold.total_steps),
            "{}: resumed from the shared stream to another run",
            s.name()
        );
        assert_eq!(report_fingerprint(&resumed), report_fingerprint(cold));
    }
    // Every record of the stream carries one of the two registry names.
    let text = std::fs::read_to_string(&path).expect("the shared stream");
    let mut stamps: BTreeMap<String, usize> = BTreeMap::new();
    let torn = read_stream(&text, None, |stamp, _| {
        *stamps.entry(stamp.to_string()).or_default() += 1;
    });
    assert_eq!(torn, 0);
    let stamped: usize = siblings.iter().map(|(s, _)| stamps[s.name()]).sum();
    assert_eq!(stamped, text.lines().count(), "{stamps:?}");
    let _ = std::fs::remove_file(&path);
}

/// Isolation contract: a scenario whose harness panics in its crash hook
/// yields recorded `harness_panic` outcomes and a finished report — the
/// campaign survives and other executions still run.
#[test]
fn panicking_harness_completes_the_campaign() {
    let s = scenario("patterns/mutant/panic-reset");
    let report = s.run(&base_cfg().keep_going(true).workers(4).build());
    assert!(
        report.outcomes.get(OutcomeKind::HarnessPanic) > 0,
        "no harness_panic outcomes recorded: {}",
        report.summary()
    );
    assert!(
        report.outcomes.get(OutcomeKind::Ok) > 0,
        "campaign did not keep running crash-free executions"
    );
    let cx = report.counterexample.as_ref().expect("panics are failures");
    match &cx.outcome {
        ExecOutcome::HarnessPanic(msg) => {
            assert!(msg.contains("injected harness fault"), "{msg}")
        }
        other => panic!("expected HarnessPanic, got {other:?}"),
    }
    // Worker-count independence holds for panics too.
    let solo = s.run(&base_cfg().keep_going(true).workers(1).build());
    assert_eq!(report_fingerprint(&solo), report_fingerprint(&report));
}

/// Watchdog contract: a livelocked scenario exhausts its deterministic
/// step budget and is classified `Wedged` — the checker never hangs.
#[test]
fn livelocked_scenario_is_wedged_not_hung() {
    let spin = SpinForever(crash_patterns::ShadowHarness::default());
    let report = check(
        &spin,
        &CheckConfig::builder()
            .seed(7)
            .dfs_max_executions(2)
            .random_samples(0)
            .random_crash_samples(0)
            .without_passes([Pass::CrashSweep, Pass::NestedCrash])
            .max_steps(500)
            .build(),
    );
    let cx = report.counterexample.expect("the spinner must wedge");
    assert!(
        matches!(cx.outcome, ExecOutcome::Wedged(500)),
        "expected Wedged(500), got {:?}",
        cx.outcome
    );
    assert!(report.outcomes.get(OutcomeKind::Wedged) > 0);
}

/// Degradation contract: an execution budget cuts the run short but
/// produces a partial report with an explicit incomplete marker.
#[test]
fn exhausted_budget_degrades_to_partial_report() {
    let s = scenario("patterns/shadow");
    let report = s.run(
        &base_cfg()
            .keep_going(true)
            .workers(1)
            .exec_budget(10)
            .build(),
    );
    assert!(report.executions <= 10, "{}", report.executions);
    assert!(report.executions > 0);
    assert!(report.is_incomplete(), "budget exhaustion not marked");
    assert!(
        report.summary().contains("INCOMPLETE"),
        "{}",
        report.summary()
    );
    assert!(
        report.incomplete.iter().any(|m| m.contains("budget")),
        "{:?}",
        report.incomplete
    );
    // The budget is deterministic: same truncation at any worker count.
    let r8 = s.run(
        &base_cfg()
            .keep_going(true)
            .workers(8)
            .exec_budget(10)
            .build(),
    );
    assert_eq!(report_fingerprint(&report), report_fingerprint(&r8));
}

/// Merge edge cases: an empty shard list is a loud error, a 1-shard
/// campaign merges to exactly itself, and a merged (unsharded) report
/// refuses to merge again.
#[test]
fn merge_edge_cases_hold() {
    assert!(
        merge_reports(Vec::new())
            .unwrap_err()
            .contains("nothing to merge"),
        "empty merge must name the problem"
    );

    let s = scenario("patterns/wal");
    let solo = s.run(&base_cfg().shard(0, 1).workers(1).build());
    let merged = merge_reports(vec![solo.clone()]).expect("1-shard campaign merges");
    assert_eq!(
        report_fingerprint(&merged),
        report_fingerprint(&solo),
        "single-shard merge must be the identity"
    );
    assert_eq!(merged.executions, solo.executions);
    assert_eq!(merged.outcomes, solo.outcomes);
    assert_eq!(merged.coverage, solo.coverage);
    // The merged report is no longer a shard; merging it again is an
    // error, not a silent double-count.
    assert!(merge_reports(vec![merged]).is_err());
}

/// The environment stamp survives the round trip CLI campaigns take:
/// report -> JSON -> report -> merge. The merged stamp keeps the build
/// facts and re-reports the *combined* worker count.
#[test]
fn env_stamp_survives_serialization_and_merge() {
    use perennial_checker::{report_from_json, report_to_json, EnvStamp};
    let s = scenario("patterns/wal");
    let shards: Vec<_> = (0..2u32)
        .map(|i| {
            let r = s.run(
                &base_cfg()
                    .shard(i, 2)
                    .workers(if i == 0 { 1 } else { 4 })
                    .build(),
            );
            assert!(!r.env.rustc.is_empty(), "run did not stamp its environment");
            report_from_json(&report_to_json(&r)).expect("round trip")
        })
        .collect();
    let want = EnvStamp::current(0, "exhaustive");
    for r in &shards {
        assert_eq!(r.env.rustc, want.rustc, "rustc lost in serialization");
        assert_eq!(r.env.crate_version, want.crate_version);
        assert_eq!(r.env.strategy, "exhaustive");
    }
    let merged = merge_reports(shards).expect("shards merge");
    assert_eq!(merged.env.rustc, want.rustc, "rustc lost in the merge");
    assert_eq!(merged.env.crate_version, want.crate_version);
    assert_eq!(
        merged.env.workers, merged.workers as u64,
        "merged stamp must report the combined pool, not one shard's"
    );
}

//! The telemetry layer's side-channel contract (DESIGN.md §11):
//! enabling the JSONL event stream must not change what the checker
//! finds, the stream itself must be deterministic for a fixed seed
//! (timing fields excepted), and the coverage/metric fields of the
//! report must add up.

use perennial_checker::telemetry::strip_timing;
use perennial_checker::{
    render_summary, trace_fingerprint, validate_json_line, CheckConfig, CheckConfigBuilder,
    Counterexample, ExecOutcome, FaultPlan, Pass, TelemetrySink,
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

fn fingerprint(cx: &Counterexample) -> (String, u64, Vec<usize>, Vec<u64>, u64, FaultPlan) {
    (
        cx.pass.to_string(),
        cx.index,
        cx.schedule_prefix.clone(),
        cx.crash_points.clone(),
        cx.seed,
        cx.faults.clone(),
    )
}

/// Runs a scenario with a capturing sink and returns (report, lines).
fn run_with_stream(
    scenario: &perennial_checker::Scenario,
    cfg: CheckConfigBuilder,
) -> (perennial_checker::CheckReport, Vec<String>) {
    let (sink, buf) = TelemetrySink::shared_buffer();
    let report = scenario.run(&cfg.telemetry(sink).build());
    let text = String::from_utf8(buf.lock().clone()).expect("stream is UTF-8");
    (report, text.lines().map(str::to_string).collect())
}

#[test]
fn telemetry_does_not_change_the_counterexample() {
    // The side-channel contract, crossed with the worker-count
    // contract: telemetry {off, on} x workers {1, 8} must all select
    // the same canonical counterexample.
    let registry = all_mutant_scenarios();
    let scenario = registry
        .get("repldisk/mutant/zeroing-recovery")
        .expect("registered scenario");
    let mut prints = Vec::new();
    for workers in [1usize, 8] {
        let plain = scenario.run(&base_cfg().workers(workers).build());
        let (with_telem, lines) = run_with_stream(scenario, base_cfg().workers(workers));
        assert!(!lines.is_empty());
        for report in [&plain, &with_telem] {
            let cx = report
                .counterexample
                .as_ref()
                .unwrap_or_else(|| panic!("mutant not caught (workers={workers})"));
            prints.push(fingerprint(cx));
        }
        // Statistics are covered by the contract too.
        assert_eq!(plain.executions, with_telem.executions);
        assert_eq!(plain.total_steps, with_telem.total_steps);
        assert_eq!(plain.outcomes, with_telem.outcomes);
        assert_eq!(plain.coverage, with_telem.coverage);
    }
    prints.dedup();
    assert_eq!(
        prints.len(),
        1,
        "counterexample varies with telemetry or worker count"
    );
}

#[test]
fn jsonl_stream_is_byte_stable_for_a_fixed_seed() {
    // Two identical single-worker runs must produce identical streams
    // once the wall-clock fields (TIMING_KEYS) are stripped. At
    // workers=1 event order is canonical, so plain line-by-line
    // comparison is exact.
    let registry = all_scenarios();
    let scenario = registry
        .get("repldisk/single-write")
        .expect("registered scenario");
    let canonical = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .map(|line| {
                let v: Value = serde_json::from_str(line)
                    .unwrap_or_else(|e| panic!("unparseable line {line:?}: {e}"));
                serde_json::to_string(&strip_timing(&v)).unwrap()
            })
            .collect()
    };
    let (r1, lines1) = run_with_stream(scenario, base_cfg().workers(1));
    let (r2, lines2) = run_with_stream(scenario, base_cfg().workers(1));
    assert!(r1.passed() && r2.passed());
    assert_eq!(lines1.len(), lines2.len());
    assert_eq!(canonical(&lines1), canonical(&lines2));
}

#[test]
fn stream_has_the_documented_shape() {
    let registry = all_mutant_scenarios();
    let scenario = registry
        .get("repldisk/mutant/zeroing-recovery")
        .expect("registered scenario");
    let (report, lines) = run_with_stream(scenario, base_cfg().workers(1));
    assert!(!report.passed());

    let types: Vec<String> = lines
        .iter()
        .map(|l| validate_json_line(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
        .collect();
    assert_eq!(types.first().map(String::as_str), Some("run_start"));
    assert_eq!(types.last().map(String::as_str), Some("run_end"));
    assert!(types.iter().any(|t| t == "pass_start"));
    assert!(types.iter().any(|t| t == "counterexample"));
    let execs = types.iter().filter(|t| *t == "exec_done").count();
    assert!(execs > 0, "no exec_done events");

    // Every record is stamped with the (harness) scenario name, the
    // same one on every line of a single run's stream.
    let mut names = std::collections::BTreeSet::new();
    for line in &lines {
        let v: Value = serde_json::from_str(line).unwrap();
        let Value::Object(map) = &v else {
            unreachable!()
        };
        match map.get("scenario") {
            Some(Value::String(name)) if !name.is_empty() => {
                names.insert(name.clone());
            }
            other => panic!("bad scenario stamp {other:?} in {line}"),
        }
    }
    assert_eq!(names.len(), 1, "one run, one scenario stamp: {names:?}");
}

/// An execution's `trace_fp` is kept as its ghost events arrive and its
/// trace is rendered only for a reader. So: the reported counterexample
/// still carries the text it always did, `replay` renders the same text,
/// and the fingerprint in the stream — of the failing execution and of a
/// passing one, whose text nobody rendered — is the hash of that text.
#[test]
fn trace_text_is_for_readers_and_its_hash_is_in_the_stream_either_way() {
    const TRACE: &str = "  [  0] Invoke { jid: Jid(0), op: Write(0, [7, 7]) }
  [  1] Stash { jid: Jid(0), key: 0 }
  [  2] Crash { new_version: 1, aborted: [] }
  [  3] RecoveryDone { version: 1 }
  [  4] Invoke { jid: Jid(1), op: Write(2, [5, 5]) }
  [  5] Stash { jid: Jid(1), key: 2 }
  [  6] Unstash { jid: Jid(1), key: 2 }
  [  7] Commit { jid: Jid(1), op: Write(2, [5, 5]), ret: Unit }
  [  8] Return { jid: Jid(1), ret: Unit }
  [  9] Invoke { jid: Jid(2), op: Read(2) }
  [ 10] Commit { jid: Jid(2), op: Read(2), ret: Val([5, 5]) }
  [ 11] Return { jid: Jid(2), ret: Val([5, 5]) }
";
    let registry = all_mutant_scenarios();
    let scenario = registry
        .get("repldisk/mutant/zeroing-recovery")
        .expect("registered scenario");
    let config = base_cfg().workers(1).build();
    let (report, lines) = run_with_stream(scenario, base_cfg().workers(1));
    let cx = &report.counterexamples[0];
    assert_eq!((cx.pass, cx.index), (Pass::CrashSweep, 2));
    assert_eq!(cx.trace, TRACE);
    let (outcome, replayed) = scenario.replay(cx, &config);
    assert!(matches!(outcome, ExecOutcome::Violation(_)), "{outcome:?}");
    assert_eq!(replayed, TRACE);

    // (pass, index) -> (seed, trace_fp) of every `exec_done` record.
    let mut execs = std::collections::BTreeMap::new();
    for line in &lines {
        let Ok(Value::Object(map)) = serde_json::from_str(line) else {
            panic!("not a record: {line}")
        };
        let hex = |key: &str| match map.get(key) {
            Some(Value::String(s)) => u64::from_str_radix(&s[2..], 16).expect("a hex64"),
            other => panic!("{key}: {other:?} in {line}"),
        };
        if let (Some(Value::String(pass)), Some(Value::Number(index)), Some(_)) =
            (map.get("pass"), map.get("index"), map.get("trace_fp"))
        {
            execs.insert(
                (pass.clone(), *index as u64),
                (hex("seed"), hex("trace_fp")),
            );
        }
    }
    let (_, failed_fp) = execs[&(cx.pass.to_string(), cx.index)];
    assert_eq!(failed_fp, trace_fingerprint(TRACE));

    // The crash sweep's base execution passes (the mutant needs a crash):
    // replayed from its coordinates it renders the text its fingerprint
    // was kept over.
    let (seed, passing_fp) = execs[&(Pass::CrashSweepBase.to_string(), 0)];
    let passing = Counterexample {
        outcome: ExecOutcome::Ok,
        pass: Pass::CrashSweepBase,
        index: 0,
        seed,
        schedule_prefix: vec![],
        crash_points: vec![],
        clamped: vec![],
        faults: FaultPlan::default(),
        trace: String::new(),
        timeline: None,
    };
    let (outcome, text) = scenario.replay(&passing, &config);
    assert!(matches!(outcome, ExecOutcome::Ok), "{outcome:?}");
    assert!(text.lines().count() > 3, "{text}");
    assert_eq!(passing_fp, trace_fingerprint(&text));
}

#[test]
fn report_metrics_add_up_on_a_passing_run() {
    let registry = all_scenarios();
    let scenario = registry
        .get("repldisk/single-write")
        .expect("registered scenario");
    let report = scenario.run(
        &base_cfg()
            .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
            .workers(4)
            .build(),
    );
    assert!(report.passed());

    // Outcome histogram and step histogram both cover every execution.
    assert_eq!(report.outcomes.total(), report.executions as u64);
    assert_eq!(report.outcomes.failures(), 0);
    assert_eq!(report.steps_hist.count(), report.executions as u64);
    assert_eq!(report.steps_hist.sum(), report.total_steps);
    assert_eq!(report.depth_hist.count(), report.executions as u64);

    // Per-pass accounting partitions the executions.
    assert!(!report.per_pass.is_empty());
    let per_pass_execs: u64 = report.per_pass.iter().map(|p| p.executions).sum();
    assert_eq!(per_pass_execs, report.executions as u64);
    let ranks: Vec<u8> = report.per_pass.iter().map(|p| p.rank).collect();
    let mut sorted = ranks.clone();
    sorted.sort_unstable();
    assert_eq!(ranks, sorted, "per_pass must be in rank order");

    // A passing run sweeps its whole enumerable spaces.
    let cov = &report.coverage;
    assert!(cov.crash_points_enumerable > 0);
    assert_eq!(cov.crash_points_exercised, cov.crash_points_enumerable);
    assert!(cov.fault_plans_enumerable() > 0, "fault sweeps were on");
    assert!((cov.fault_plan_ratio() - 1.0).abs() < 1e-9);
    assert!(cov.distinct_traces > 0);
    assert!(cov.distinct_traces <= report.executions as u64);

    // And render_summary shows all of it.
    let text = render_summary(&report);
    assert!(text.starts_with("PASS"), "{text}");
    for needle in ["Outcomes", "Steps/exec", "Per pass", "Coverage", "execs/s"] {
        assert!(text.contains(needle), "summary lacks {needle:?}:\n{text}");
    }
}

#[test]
fn telemetry_file_sink_writes_parseable_jsonl() {
    // The file-backed path (`telemetry_path`) used by CLI consumers.
    let dir = std::env::temp_dir().join("perennial-telemetry-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("run-{}.jsonl", std::process::id()));
    let registry = all_scenarios();
    let scenario = registry
        .get("repldisk/single-write")
        .expect("registered scenario");
    let report = scenario.run(&base_cfg().workers(2).telemetry_path(&path).build());
    assert!(report.passed());
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().count() >= 3);
    for line in text.lines() {
        validate_json_line(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn progress_line_cadence_does_not_disturb_the_run() {
    // progress_every only writes to stderr; the report must be
    // identical to a run without it.
    let registry = all_scenarios();
    let scenario = registry
        .get("repldisk/single-write")
        .expect("registered scenario");
    let plain = scenario.run(&base_cfg().workers(2).build());
    let chatty = scenario.run(&base_cfg().workers(2).progress_every(10).build());
    assert_eq!(plain.executions, chatty.executions);
    assert_eq!(plain.outcomes, chatty.outcomes);
    assert_eq!(plain.coverage, chatty.coverage);
}

//! The causal-trace layer's side-channel contract (DESIGN.md §14):
//! capturing an execution trace must not change what the checker finds
//! — the counterexample and the report fingerprint are identical with
//! capture off or on, at any worker count — and the consumers built on
//! it (explain timelines, Chrome-trace export, campaign dashboards) are
//! pure functions of deterministic inputs.

use perennial_checker::telemetry::RunTelemetry;
use perennial_checker::{
    chrome_trace_json, merge_reports, render_explain, render_failure, report_fingerprint,
    CheckConfig, CheckConfigBuilder, Counterexample, Dashboard, FaultPlan, Pass, TelemetrySink,
};
use perennial_suite::{all_mutant_scenarios, all_scenarios};
use serde_json::Value;

fn base_cfg() -> CheckConfigBuilder {
    CheckConfig::builder()
        .seed(7)
        .dfs_max_executions(300)
        .random_samples(10)
        .random_crash_samples(25)
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
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

/// Trace capture {off, on} x workers {1, 8}: same counterexample, same
/// report fingerprint. The only difference capture makes is that the
/// counterexample carries a timeline.
#[test]
fn trace_capture_is_fingerprint_neutral() {
    let registry = all_mutant_scenarios();
    let scenario = registry
        .get("repldisk/mutant/zeroing-recovery")
        .expect("registered scenario");
    let mut prints = Vec::new();
    let mut cx_prints = Vec::new();
    for workers in [1usize, 8] {
        for capture in [false, true] {
            let report = scenario.run(&base_cfg().workers(workers).trace_capture(capture).build());
            let cx = report.counterexample.as_ref().unwrap_or_else(|| {
                panic!("mutant not caught (workers={workers}, capture={capture})")
            });
            assert_eq!(
                cx.timeline.is_some(),
                capture,
                "timeline present iff capture on (workers={workers})"
            );
            prints.push(report_fingerprint(&report));
            cx_prints.push(fingerprint(cx));
        }
    }
    prints.dedup();
    cx_prints.dedup();
    assert_eq!(prints.len(), 1, "report varies with capture or workers");
    assert_eq!(cx_prints.len(), 1, "cx varies with capture or workers");
}

/// Every registered mutant's failure report embeds the causal explain
/// timeline — the acceptance bar for the explain consumer.
#[test]
fn every_mutant_failure_report_includes_the_explain_timeline() {
    for scenario in &all_mutant_scenarios() {
        let report = scenario.run(&base_cfg().build());
        let cx = report
            .counterexample
            .as_ref()
            .unwrap_or_else(|| panic!("{}: mutant not caught", scenario.name()));
        let timeline = cx
            .timeline
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no timeline captured", scenario.name()));
        assert!(
            !timeline.events.is_empty(),
            "{}: empty trace",
            scenario.name()
        );
        let text = render_failure(&report)
            .unwrap_or_else(|| panic!("{}: no failure report", scenario.name()));
        assert!(
            text.contains("Causal explain timeline:"),
            "{}: failure report lacks the explain section:\n{text}",
            scenario.name()
        );
    }
}

/// The explain rendering is a pure function of the (deterministic)
/// trace: workers 1 and 8 produce byte-identical timelines. CI diffs
/// exactly this.
#[test]
fn explain_timeline_is_identical_across_worker_counts() {
    let registry = all_mutant_scenarios();
    let scenario = registry
        .get("kv/mutant/in-place")
        .expect("registered scenario");
    let texts: Vec<String> = [1usize, 8]
        .iter()
        .map(|&workers| {
            let report = scenario.run(&base_cfg().workers(workers).build());
            let cx = report.counterexample.expect("mutant caught");
            render_explain(cx.timeline.as_ref().expect("timeline captured"))
        })
        .collect();
    assert_eq!(texts[0], texts[1], "explain output depends on workers");
}

/// The Chrome trace-event export of a real counterexample has the
/// documented shape: a traceEvents array of objects, thread-name
/// metadata first, every event with ph/pid/tid, and flow ("s"/"f")
/// events balanced in pairs.
#[test]
fn chrome_trace_export_of_a_real_counterexample_is_well_formed() {
    let registry = all_mutant_scenarios();
    let scenario = registry
        .get("repldisk/mutant/zeroing-recovery")
        .expect("registered scenario");
    let report = scenario.run(&base_cfg().build());
    let cx = report.counterexample.expect("mutant caught");
    let timeline = cx.timeline.expect("timeline captured");
    let v = chrome_trace_json(&timeline, scenario.name());
    let Value::Object(top) = &v else {
        panic!("export is not an object")
    };
    let Some(Value::Array(events)) = top.get("traceEvents") else {
        panic!("no traceEvents array")
    };
    assert!(events.len() > timeline.events.len(), "metadata + slices");
    let mut starts = 0u64;
    let mut finishes = 0u64;
    for ev in events {
        let Value::Object(m) = ev else {
            panic!("trace event is not an object: {ev:?}")
        };
        for key in ["ph", "name", "pid", "tid"] {
            assert!(m.get(key).is_some(), "missing {key} in {ev:?}");
        }
        match m.get("ph") {
            Some(Value::String(ph)) if ph == "s" => starts += 1,
            Some(Value::String(ph)) if ph == "f" => finishes += 1,
            _ => {}
        }
    }
    assert_eq!(starts, finishes, "unbalanced flow pairs");
    // The serialized file is valid JSON end-to-end.
    let text = serde_json::to_string_pretty(&v).unwrap();
    assert!(serde_json::from_str(&text).is_ok());
}

/// The dashboard's view of a sharded campaign is `merge_reports`' over the
/// same shards. Fold each shard's stream into a `Dashboard`, write the
/// merged report's own `run_end` into another, and the two read back equal
/// on every field the record carries. The exceptions are wall-clock
/// timing, and the distinct crash point and trace counts: a dashboard has
/// counts, not the sets behind them, so it shows the largest shard's, a
/// lower bound. Each shard's cell in the grid is its own report's verdict.
#[test]
fn dashboard_totals_match_merge_reports_over_shards() {
    let (good, bad) = (all_scenarios(), all_mutant_scenarios());
    for name in ["patterns/wal", "repldisk/mutant/zeroing-recovery"] {
        let scenario = good
            .get(name)
            .or_else(|| bad.get(name))
            .expect("registered");
        let mut reports = Vec::new();
        let mut dash = Dashboard::default();
        for i in 0..2u32 {
            let (sink, buf) = TelemetrySink::shared_buffer();
            reports.push(scenario.run(&base_cfg().shard(i, 2).telemetry(sink).build()));
            dash.ingest(&String::from_utf8(buf.lock().clone()).expect("stream is UTF-8"));
        }
        assert_eq!(dash.scenarios.len(), 1, "one scenario across both streams");
        let s = &dash.scenarios[name];
        let grid: Vec<(bool, bool)> = (s.shards.values())
            .map(|run| (run.passed, run.report.is_incomplete()))
            .collect();
        let want_grid: Vec<(bool, bool)> = (reports.iter())
            .map(|r| (r.passed(), r.is_incomplete()))
            .collect();
        assert_eq!(grid, want_grid, "{name}: the pass/fail grid");
        assert!(!s.pass_wall_us.is_empty(), "{name}: no pass_end records");

        let merged = merge_reports(reports).expect("shards merge");
        assert_eq!(merged.passed(), !name.contains("mutant"), "{name}");
        let (sink, buf) = TelemetrySink::shared_buffer();
        RunTelemetry::open(name, &CheckConfig::builder().telemetry(sink).build(), 1).close(&merged);
        let mut whole = Dashboard::default();
        whole.ingest(&String::from_utf8(buf.lock().clone()).expect("stream is UTF-8"));
        assert_eq!(whole.torn_lines, 0);
        let want = whole.scenarios[name].merged();

        let mut seen = s.merged();
        let (c, w) = (&mut seen.report.coverage, &want.report.coverage);
        assert!(
            c.crash_points_exercised <= w.crash_points_exercised,
            "{name}"
        );
        assert!(c.distinct_traces <= w.distinct_traces, "{name}");
        c.crash_points_exercised = w.crash_points_exercised;
        c.distinct_traces = w.distinct_traces;
        seen.report.wall_time = want.report.wall_time;
        seen.report.execs_per_sec = want.report.execs_per_sec;
        // The strategy is the run's, not a total: the fold leaves it out.
        seen.report.strategy = want.report.strategy.clone();
        assert_eq!(seen, want, "{name}");

        let rendered = perennial_checker::render_dashboard(&dash);
        assert!(rendered.contains("CAMPAIGN DASHBOARD"), "{rendered}");
        assert!(
            rendered.contains(&format!("{} executions", merged.executions)),
            "{rendered}"
        );
    }
}

/// Model-op counters flow from the goose runtime all the way into the
/// report and its summary footer.
#[test]
fn model_op_counters_surface_in_the_summary() {
    let registry = all_scenarios();
    let scenario = registry
        .get("repldisk/single-write")
        .expect("registered scenario");
    let report = scenario.run(&base_cfg().build());
    assert!(
        report.disk_writes > 0,
        "a disk scenario records disk writes"
    );
    let text = perennial_checker::render_summary(&report);
    assert!(text.contains("Model ops"), "{text}");
}

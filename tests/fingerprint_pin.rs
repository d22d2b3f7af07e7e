//! The scheduler's equality oracle, at tier-1 (ROADMAP item 2): how
//! `goose::sched` hands control around must never show in what the
//! checker explores or reports. The constants below were recorded while
//! the controller still granted every step itself; a hand-off change that
//! moves any of them changed behaviour, not just speed. The fingerprint
//! pins were re-recorded once since, when a ghost trace came to be
//! fingerprinted by its events' encoding rather than its rendering; that
//! move renamed traces and changed nothing else, which the trace-count
//! pins below ([`PATTERNS_TRACE_COUNTS`], [`FAULT_TRACE_COUNTS`]), recorded
//! before it, hold at tier-1.

use perennial_checker::campaign::wal_file;
use perennial_checker::{
    campaign_fingerprint, failure_fingerprint, merge_reports, shard_of, strip_timing,
    trace_fingerprint, CheckConfig, CheckConfigBuilder, CheckReport, Pass, SleepSetDpor,
    TelemetrySink,
};
use perennial_suite::{all_mutant_scenarios, all_scenarios};
use serde_json::Value;

/// `scan --filter patterns` prints this at every worker count.
const PATTERNS_CAMPAIGN: u64 = 0xc1cf_55df_faa4_cc56;

/// The fault-sweep campaign below, whole: at one and two workers, and
/// again as two shards merged.
const FAULT_CAMPAIGN: u64 = 0x4ab7_0d92_318a_9d74;

/// The same campaign cut short by [`FAULT_BUDGET`], cold and resumed from
/// its own write-ahead log. Re-recorded at the random-crash epoch, when a
/// random-crash probe that fails stopped being charged for the crash run
/// it never gets (EXPERIMENTS.md).
const FAULT_CAMPAIGN_BUDGETED: u64 = 0x2a1c_4185_3199_cb11;

/// Lands inside the disk-fault sweep for two scenarios, the torn-write
/// sweep for seven, the net-fault sweep for one, and past the end of the
/// rest.
const FAULT_BUDGET: u64 = 110;

/// Each scenario's name, executions and distinct ghost traces in the
/// patterns campaign, folded by [`trace_counts`]. Recorded before the
/// encoding epoch and met unchanged after it: a new encoding of ghost
/// events renames traces but may not merge or split them.
const PATTERNS_TRACE_COUNTS: u64 = 0x1d4e_c0b1_9668_a72c;

/// The same for the fault campaign, whole.
const FAULT_TRACE_COUNTS: u64 = 0x8b88_b1d0_029c_5392;

/// The fold of each report's name, executions and distinct ghost traces:
/// what moves when a change tells traces apart differently, and not when
/// it only renames them.
fn trace_counts(reports: &[CheckReport]) -> u64 {
    let lines: String = reports
        .iter()
        .map(|r| {
            let distinct = r.coverage.distinct_traces;
            format!("{} {} {distinct}\n", r.name, r.executions)
        })
        .collect();
    trace_fingerprint(&lines)
}

/// `scan`'s configuration.
fn scan_cfg() -> CheckConfigBuilder {
    CheckConfig::builder()
        .seed(7)
        .dfs_max_executions(300)
        .random_samples(10)
        .random_crash_samples(25)
        .max_steps(200_000)
        .keep_going(true)
}

fn in_patterns_campaign(name: &str) -> bool {
    name.contains("patterns")
}

#[test]
fn patterns_campaign_fingerprint_is_pinned_at_one_and_two_workers() {
    for workers in [1, 2] {
        // `scan`'s fold over report fingerprints.
        let scan_cfg = scan_cfg().workers(workers).build();
        let (fingerprint, reports) = campaign(in_patterns_campaign, |_| scan_cfg.clone());
        assert_eq!(
            fingerprint, PATTERNS_CAMPAIGN,
            "campaign fingerprint moved at {workers} worker(s)"
        );
        let counts = trace_counts(&reports);
        assert_eq!(
            counts, PATTERNS_TRACE_COUNTS,
            "trace counts moved to {counts:#018x} at {workers} worker(s)"
        );
    }
}

/// Torn writes on the patterns, a second disk to fail (also during
/// recovery) on the replicated disk, a network to disturb under
/// `mailboat/net-deliver`: every fault sweep derives jobs here.
fn in_fault_campaign(name: &str) -> bool {
    name.contains("patterns") || name.contains("repldisk") || name == "mailboat/net-deliver"
}

/// A short schedule phase, so most of each run is sweeps.
fn fault_cfg() -> CheckConfigBuilder {
    CheckConfig::builder()
        .seed(7)
        .dfs_max_executions(40)
        .random_samples(5)
        .random_crash_samples(10)
        .without_passes([Pass::NestedCrash])
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .max_steps(200_000)
        .keep_going(true)
}

/// The reports of the registered scenarios `selected` picks, each run
/// under `config(scenario name)`, and `scan`'s fold over their
/// fingerprints.
fn campaign(
    selected: impl Fn(&str) -> bool,
    mut config: impl FnMut(&str) -> CheckConfig,
) -> (u64, Vec<CheckReport>) {
    let reports: Vec<CheckReport> = all_scenarios()
        .iter()
        .chain(all_mutant_scenarios().iter())
        .filter(|s| selected(s.name()))
        .map(|scenario| scenario.run(&config(scenario.name())))
        .collect();
    (campaign_fingerprint(&reports), reports)
}

fn fault_campaign(config: impl Fn(&str) -> CheckConfig) -> (u64, Vec<CheckReport>) {
    campaign(in_fault_campaign, config)
}

#[test]
fn fault_campaign_fingerprint_is_pinned_whole_and_sharded() {
    for workers in [1, 2] {
        let (fingerprint, reports) = fault_campaign(|_| fault_cfg().workers(workers).build());
        assert_eq!(
            fingerprint, FAULT_CAMPAIGN,
            "fault campaign fingerprint moved at {workers} worker(s)"
        );
        let counts = trace_counts(&reports);
        assert_eq!(
            counts, FAULT_TRACE_COUNTS,
            "fault trace counts moved to {counts:#018x} at {workers} worker(s)"
        );
        let swept = |pass: Pass| {
            reports
                .iter()
                .flat_map(|r| &r.per_pass)
                .filter(|pm| pm.pass == pass && pm.executions > 1)
                .count()
        };
        for pass in [Pass::DiskFault, Pass::TornWrite, Pass::NetFault] {
            assert!(swept(pass) > 0, "no scenario swept {pass:?}");
        }
    }
    let (_, shard0) = fault_campaign(|_| fault_cfg().shard(0, 2).workers(1).build());
    let (_, shard1) = fault_campaign(|_| fault_cfg().shard(1, 2).workers(2).build());
    let merged: Vec<CheckReport> = shard0
        .into_iter()
        .zip(shard1)
        .map(|(a, b)| {
            let name = a.name.clone();
            merge_reports(vec![a, b]).unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect();
    assert_eq!(
        campaign_fingerprint(&merged),
        FAULT_CAMPAIGN,
        "two shards no longer merge into the whole campaign"
    );
}

#[test]
fn budgeted_fault_campaign_is_pinned_cold_and_resumed() {
    let dir = std::env::temp_dir().join(format!("perennial-fault-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal = |name: &str| dir.join(wal_file(name));
    let (cold, reports) = fault_campaign(|name| {
        fault_cfg()
            .exec_budget(FAULT_BUDGET)
            .workers(1)
            .telemetry_path(wal(name))
            .build()
    });
    assert_eq!(cold, FAULT_CAMPAIGN_BUDGETED, "budgeted campaign moved");
    let truncated = reports.iter().filter(|r| r.is_incomplete()).count();
    assert!(
        truncated > 0 && truncated < reports.len(),
        "the budget should cut some runs short, not {truncated} of {}",
        reports.len()
    );
    let (resumed, reports) = fault_campaign(|name| {
        fault_cfg()
            .exec_budget(FAULT_BUDGET)
            .workers(2)
            .resume_from(wal(name))
            .build()
    });
    assert_eq!(
        resumed, FAULT_CAMPAIGN_BUDGETED,
        "resuming from the write-ahead log moved the budgeted campaign"
    );
    for r in &reports {
        // The budget lands after every scenario's schedule phase, which
        // its log closes, and the campaign keeps going past failures: so
        // every execution that passed is in the log and is read back,
        // the schedule phase's included.
        let replayable: u64 = r
            .per_pass
            .iter()
            .map(|pm| pm.executions - pm.failures)
            .sum();
        assert_eq!(r.replayed, replayable, "{}: replayed executions", r.name);
    }
    assert!(reports.iter().any(|r| r.replayed > 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A JSONL stream's records, timing and toolchain stamp dropped.
fn records(bytes: &[u8]) -> Vec<Value> {
    let text = std::str::from_utf8(bytes).expect("stream is UTF-8");
    text.lines()
        .map(|line| {
            let mut v = strip_timing(&serde_json::from_str(line).expect("a line parses"));
            // `run_start`'s stamp names the toolchain that built the checker.
            if let Value::Object(m) = &mut v {
                m.remove("env");
            }
            v
        })
        .collect()
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

/// The JSONL stream of one single-worker run, byte for byte once the
/// timing keys are dropped, as `(scenario, pin, epoch_pin, before, old
/// label, old_pin)`: as written (`pin`); as it read before the
/// random-crash epoch (`epoch_pin`, [`before_random_crash_epoch`]); that,
/// without its one `schedule_end` line, as it read before the schedule
/// phase's close was recorded (`before`); and that, with every record
/// stamped with the harness's label, as it read before records were
/// stamped with the registry name (`old_pin`). Meeting `epoch_pin` shows
/// the random-crash wave's records are all its epoch moved, meeting
/// `before` that the `schedule_end` line is all its epoch moved, and
/// meeting `old_pin` that the stamp is all the stamp moved. `before` and
/// `old_pin` were re-recorded at the encoding epoch, when every
/// `trace_fp` in them took a new name (EXPERIMENTS.md lists old → new).
/// `pin` was re-recorded at the random-crash epoch, when the crash runs
/// got a wave and a `pass_start` of their own; `epoch_pin` is `pin`
/// before it.
const STREAM_PINS: [(&str, u64, u64, u64, &str, u64); 3] = [
    (
        "patterns/wal",
        0x4f1a_5d9f_db3e_7b1a,
        0x2cf4_9ea4_2f01_803f,
        0xb99a_0ae3_56e4_929f,
        "write-ahead log",
        0x0f3c_f0b2_9d58_5247,
    ),
    // Fault passes on: `counterexample` records and fault-plan tags.
    (
        "patterns/mutant/wal-skip-commit-flush",
        0x20a4_22d8_6f5e_e0b8,
        0xc11a_f115_2533_bfe7,
        0x19a5_99ae_1061_6aaf,
        "write-ahead log",
        0x7f25_cbab_145f_6163,
    ),
    // As shard 0 of 2: a shard label, and spine executions it does not count.
    (
        "repldisk/single-write",
        0x2e12_b1d4_77d2_66d3,
        0x1647_aa8f_5446_ab63,
        0x9e8d_589d_f8c5_1249,
        "replicated disk",
        0xfa62_f4ba_f0f4_fbda,
    ),
];

/// Field `key` of a record, if it is a string.
fn text<'a>(record: &'a Value, key: &str) -> Option<&'a str> {
    match record {
        Value::Object(m) => match m.get(key) {
            Some(Value::String(s)) => Some(s),
            _ => None,
        },
        _ => None,
    }
}

/// An `exec_done` record's pass and index.
fn exec_of(record: &Value) -> Option<(&str, u64)> {
    let Value::Object(m) = record else {
        return None;
    };
    match (text(record, "type"), m.get("index")) {
        (Some("exec_done"), Some(Value::Number(i))) => Some((text(record, "pass")?, *i as u64)),
        _ => None,
    }
}

/// `records` as the stream read before the random-crash epoch, when a
/// random-crash probe and its crash run were one job: without the
/// `random-crash` pass's own `pass_start` and `pass_end`, each
/// `random-crash` `exec_done` (and the `counterexample` record after it,
/// if any) back right after its probe's, and, in shard `i` of `n`,
/// without the probes whose probe and crash keys (ranks 5 and 6) both
/// belong to another shard, which that job never ran.
fn before_random_crash_epoch(records: Vec<Value>, shard: Option<(u32, u32)>) -> Vec<Value> {
    let skipped = |index: u64| match shard {
        Some((i, n)) => shard_of((5, index), n) != i && shard_of((6, index), n) != i,
        None => false,
    };
    let mut kept = Vec::new();
    let mut crashes: Vec<(u64, Vec<Value>)> = Vec::new();
    let mut after_crash = false;
    for record in records {
        let (crash, probe) = match exec_of(&record) {
            Some(("random-crash", index)) => (Some(index), None),
            Some(("random-crash-probe", index)) => (None, Some(index)),
            _ => (None, None),
        };
        if let Some(index) = crash {
            crashes.push((index, vec![record]));
        } else if after_crash && text(&record, "type") == Some("counterexample") {
            crashes.last_mut().expect("a crash run").1.push(record);
        } else if text(&record, "pass") != Some("random-crash") && !probe.is_some_and(skipped) {
            kept.push(record);
        }
        after_crash = crash.is_some();
    }
    let mut out = Vec::with_capacity(kept.len());
    for record in kept {
        let probe = match exec_of(&record) {
            Some(("random-crash-probe", index)) => Some(index),
            _ => None,
        };
        out.push(record);
        if let Some(index) = probe {
            if let Some(at) = crashes.iter().position(|(i, _)| *i == index) {
                out.extend(crashes.remove(at).1);
            }
        }
    }
    assert!(crashes.is_empty(), "a random-crash run without its probe");
    out
}

#[test]
fn telemetry_stream_bytes_are_pinned() {
    let nested = || fault_cfg().with_passes([Pass::NestedCrash]);
    let configs = [
        (
            nested().without_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault]),
            None,
        ),
        (fault_cfg(), None),
        (nested().shard(0, 2), Some((0, 2))),
    ];
    for ((name, pin, epoch_pin, before, old_label, old_pin), (cfg, shard)) in
        STREAM_PINS.into_iter().zip(configs)
    {
        let scenario = all_scenarios()
            .iter()
            .chain(all_mutant_scenarios().iter())
            .find(|s| s.name() == name)
            .expect("registered scenario")
            .clone();
        let (sink, buf) = TelemetrySink::shared_buffer();
        scenario.run(&cfg.workers(1).telemetry(sink).build());
        let records = records(&buf.lock());
        assert!(records.len() > 50, "{name}: only {} records", records.len());
        let fingerprint = |records: &[Value]| {
            let lines: Vec<String> = records
                .iter()
                .map(|v| serde_json::to_string(v).expect("shim serialization is infallible"))
                .collect();
            trace_fingerprint(&lines.join("\n"))
        };
        let seen = fingerprint(&records);
        assert_eq!(
            seen, pin,
            "{name}: the telemetry stream's bytes moved to {seen:#018x}"
        );
        let records = before_random_crash_epoch(records, shard);
        let seen = fingerprint(&records);
        assert_eq!(
            seen, epoch_pin,
            "{name}: more than the random-crash wave moved, to {seen:#018x}"
        );
        let closes = |v: &Value| text(v, "type") == Some("schedule_end");
        assert_eq!(records.iter().filter(|v| closes(v)).count(), 1, "{name}");
        let unclosed: Vec<Value> = records.into_iter().filter(|v| !closes(v)).collect();
        let seen = fingerprint(&unclosed);
        assert_eq!(
            seen, before,
            "{name}: more than the schedule_end record moved, to {seen:#018x}"
        );
        let relabelled: Vec<Value> = unclosed
            .into_iter()
            .map(|mut v| {
                if let Value::Object(m) = &mut v {
                    let stamp = m.insert("scenario".into(), Value::String(old_label.into()));
                    assert_eq!(stamp, Some(Value::String(name.into())), "{name}: stamp");
                }
                v
            })
            .collect();
        let seen = fingerprint(&relabelled);
        assert_eq!(
            seen, old_pin,
            "{name}: more than the scenario stamp moved, to {seen:#018x}"
        );
    }
}

//! The scheduler's equality oracle, at tier-1 (ROADMAP item 2): how
//! `goose::sched` hands control around must never show in what the
//! checker explores or reports. The constants below were recorded while
//! the controller still granted every step itself; a hand-off change that
//! moves any of them changed behaviour, not just speed.

use perennial_checker::campaign::wal_file;
use perennial_checker::{
    campaign_fingerprint, failure_fingerprint, merge_reports, strip_timing, trace_fingerprint,
    CheckConfig, CheckConfigBuilder, CheckReport, Pass, SleepSetDpor, TelemetrySink,
};
use perennial_suite::{all_mutant_scenarios, all_scenarios};
use serde_json::Value;

/// `scan --filter patterns` prints this at every worker count.
const PATTERNS_CAMPAIGN: u64 = 0xe474_5a87_2f73_2b5c;

/// The fault-sweep campaign below, whole: at one and two workers, and
/// again as two shards merged.
const FAULT_CAMPAIGN: u64 = 0x8db7_14bd_11d5_0978;

/// The same campaign cut short by [`FAULT_BUDGET`], cold and resumed from
/// its own write-ahead log.
const FAULT_CAMPAIGN_BUDGETED: u64 = 0x9c1d_04cb_8160_9d0d;

/// Lands inside the disk-fault sweep for two scenarios, the torn-write
/// sweep for seven, the net-fault sweep for one, and past the end of the
/// rest.
const FAULT_BUDGET: u64 = 110;

#[test]
fn patterns_campaign_fingerprint_is_pinned_at_one_and_two_workers() {
    for workers in [1, 2] {
        // `scan`'s configuration and its fold over report fingerprints.
        let scan_cfg = CheckConfig::builder()
            .seed(7)
            .dfs_max_executions(300)
            .random_samples(10)
            .random_crash_samples(25)
            .max_steps(200_000)
            .keep_going(true)
            .workers(workers)
            .build();
        let (fingerprint, _) = campaign(|name| name.contains("patterns"), |_| scan_cfg.clone());
        assert_eq!(
            fingerprint, PATTERNS_CAMPAIGN,
            "campaign fingerprint moved at {workers} worker(s)"
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
    config: impl Fn(&str) -> CheckConfig,
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
        // Everything past the schedule phase that passed is in the log.
        let replayable: u64 = r
            .per_pass
            .iter()
            .filter(|pm| pm.pass >= Pass::CrashSweepBase)
            .map(|pm| pm.executions - pm.failures)
            .sum();
        assert_eq!(r.replayed, replayable, "{}: replayed executions", r.name);
    }
    assert!(reports.iter().any(|r| r.replayed > 0));
    let _ = std::fs::remove_dir_all(&dir);
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
/// timing keys are dropped: as written, and as it read before PR 19, when
/// every record was stamped with the harness's label rather than the
/// registry name. The second constant was recorded before `telemetry.rs`
/// got its one writer (PR 17): substituting the old label back and
/// meeting it shows the stamp is the only byte that moved.
const STREAM_PINS: [(&str, u64, &str, u64); 3] = [
    (
        "patterns/wal",
        0xd950_8432_b592_8df0,
        "write-ahead log",
        0xe573_5080_d32c_ed74,
    ),
    // Fault passes on: `counterexample` records and fault-plan tags.
    (
        "patterns/mutant/wal-skip-commit-flush",
        0x01fc_700e_5e19_1835,
        "write-ahead log",
        0x7f12_a581_b04e_6699,
    ),
    // As shard 0 of 2: a shard label, and spine executions it does not count.
    (
        "repldisk/single-write",
        0x57b1_d67f_168c_66a7,
        "replicated disk",
        0x72ef_9d80_7923_4710,
    ),
];

#[test]
fn telemetry_stream_bytes_are_pinned() {
    let nested = || fault_cfg().with_passes([Pass::NestedCrash]);
    let configs = [
        nested().without_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault]),
        fault_cfg(),
        nested().shard(0, 2),
    ];
    for ((name, pin, old_label, old_pin), cfg) in STREAM_PINS.into_iter().zip(configs) {
        let scenario = all_scenarios()
            .iter()
            .chain(all_mutant_scenarios().iter())
            .find(|s| s.name() == name)
            .expect("registered scenario")
            .clone();
        let (sink, buf) = TelemetrySink::shared_buffer();
        scenario.run(&cfg.workers(1).telemetry(sink).build());
        let text = String::from_utf8(buf.lock().clone()).expect("stream is UTF-8");
        let records: Vec<Value> = text
            .lines()
            .map(|line| {
                let mut v = strip_timing(&serde_json::from_str(line).expect("a line parses"));
                // `run_start`'s stamp names the toolchain that built the checker.
                if let Value::Object(m) = &mut v {
                    m.remove("env");
                }
                v
            })
            .collect();
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
        let relabelled: Vec<Value> = records
            .into_iter()
            .map(|mut v| {
                if let Value::Object(m) = &mut v {
                    let stamp = m.insert("scenario".into(), Value::String(old_label.into()));
                    assert_eq!(stamp, Some(Value::String(name.into())), "{name}: stamp");
                }
                v
            })
            .collect();
        assert_eq!(
            fingerprint(&relabelled),
            old_pin,
            "{name}: more than the scenario stamp moved"
        );
    }
}

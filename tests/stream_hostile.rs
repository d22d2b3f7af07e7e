//! The stream's one reader and the report reader under hostile input
//! (ROADMAP item 4 (c)).
//!
//! A WAL is a file anyone may have touched and a kill may have cut, and
//! what it replays becomes part of a verdict. So for every line of a real
//! stream — truncated at every byte, short of a key, with a value of the
//! wrong type, with a key twice, with bytes that are not UTF-8 spliced in —
//! `read_stream`, `parse_wal` and `Dashboard::ingest` must not panic, must
//! account for every non-empty line as either one whole record or one torn
//! line, and must never hand back an execution that differs from the one
//! the checker wrote under that key; and the canonical `exec_done` reader
//! `read_stream` tries first must decline each line or read it exactly as
//! the tree reader does.
//!
//! A counterexample record is what a failure replays from, so its fault
//! plan reads back only from the text its writer writes, and a failure
//! of each fault pass replays from the stream alone to the outcome it
//! recorded.
//!
//! A shard's report file is merged into a verdict the same way, so its
//! JSON gets the same treatment: `report_from_json` refuses every such
//! variant of a real shard report, and `merge_reports` refuses a set of
//! shards that does not cover the run once, naming the shard.

use perennial_checker::telemetry::{
    canonical_read_agrees, parse_wal, read_stream, CxRecord, ExecStats, Record,
};
use perennial_checker::{
    merge_reports, report_fingerprint, report_from_json, report_to_json, CheckConfig, CheckReport,
    Counterexample, Dashboard, ExecOutcome, OutcomeKind, Pass, PassMetrics, TelemetrySink,
};
use perennial_suite::all_mutant_scenarios;
use proptest::prelude::*;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A real stream and what it reads as before anyone touches it.
struct Pristine {
    /// The scenario stamp on every record.
    name: String,
    config: CheckConfig,
    lines: Vec<String>,
    /// Every typed record, in stream order.
    records: Vec<Record>,
    /// Every execution's measurements by `(pass, index)`, failed or not.
    executions: BTreeMap<(Pass, u64), ExecStats>,
    /// And each as the row of its pass the dashboard folds.
    rows: BTreeMap<(Pass, u64), PassMetrics>,
    /// The run's report fingerprint.
    fingerprint: u64,
}

/// A mutant under the fault sweeps, kept going: failing executions, fault
/// plans of every family.
fn config() -> CheckConfig {
    CheckConfig::builder()
        .seed(7)
        .dfs_max_executions(6)
        .random_samples(2)
        .random_crash_samples(3)
        .without_passes([Pass::NestedCrash])
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .keep_going(true)
        .workers(1)
        .build()
}

const MUTANT: &str = "patterns/mutant/wal-skip-commit-flush";

/// The mutant's stream: all seven record types, fault tags, failing
/// executions.
fn pristine() -> &'static Pristine {
    static PRISTINE: OnceLock<Pristine> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let registry = all_mutant_scenarios();
        let scenario = registry.get(MUTANT).expect("registered mutant");
        let config = config();
        let (sink, buf) = TelemetrySink::shared_buffer();
        let mut streamed = config.clone();
        streamed.telemetry = Some(sink);
        let report = scenario.run(&streamed);
        let text = String::from_utf8(buf.lock().clone()).expect("stream is UTF-8");
        let mut records = Vec::new();
        let torn = read_stream(&text, None, |_, record| records.push(record));
        assert_eq!(torn, 0, "the checker's own stream reads whole");
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(records.len(), lines.len());
        let mut executions = BTreeMap::new();
        let mut rows = BTreeMap::new();
        for record in &records {
            if let Record::ExecDone {
                pass,
                index,
                ok,
                faulted,
                duration,
                stats,
            } = *record
            {
                executions.insert((pass, index), stats);
                let row = PassMetrics::exec(pass, &stats, !ok, faulted, duration);
                rows.insert((pass, index), row);
            }
        }
        assert!(executions.len() > 40 && !report.passed());
        assert!(records.iter().any(|r| matches!(r, Record::RunEnd(_))));
        records.retain(|record| *record != Record::Other);
        Pristine {
            fingerprint: report_fingerprint(&report),
            name: report.name,
            config,
            lines,
            records,
            executions,
            rows,
        }
    })
}

/// The reader's contract on arbitrary bytes derived from the pristine stream.
fn check(hostile: &[u8]) -> Result<(), String> {
    let p = pristine();
    let text = String::from_utf8_lossy(hostile);
    let lines = text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
    let fail = |what: &str| Err(format!("{what}\nin: {text}"));

    // `read_stream` tries the canonical `exec_done` reader first: on every
    // line it must decline or read what the tree reader reads.
    for line in text.lines() {
        if let Err(e) = canonical_read_agrees(line) {
            return fail(&e);
        }
    }
    let mut whole = Vec::new();
    let torn = read_stream(&text, None, |_, record| whole.push(record));
    if whole.len() as u64 + torn != lines {
        return fail(&format!("{} whole + {torn} torn of {lines}", whole.len()));
    }
    for record in &whole {
        let written = match record {
            Record::Other => true,
            // What is left of a run_start either still names this run or
            // names no run of this configuration at all.
            Record::RunStart(run) => {
                p.records.contains(record) || !run.same_run(&p.name, &p.config)
            }
            _ => p.records.contains(record),
        };
        if !written {
            return fail(&format!("a record nobody wrote: {record:?}"));
        }
    }

    let wal = parse_wal(&text, &p.name);
    if wal.torn_lines != torn {
        return fail("the WAL loader counts torn lines differently");
    }
    let closes = wal.schedule_end.map(Record::ScheduleEnd);
    let failures = wal.failures.iter().cloned().map(Record::Counterexample);
    if let Some(record) = failures.chain(closes).find(|r| !p.records.contains(r)) {
        return fail(&format!(
            "the WAL loader reads a record nobody wrote: {record:?}"
        ));
    }
    for ((rank, index), stats) in &wal.completed {
        let pass = Pass::ALL[*rank as usize];
        if p.executions.get(&(pass, *index)) != Some(stats) {
            return fail(&format!("replays {pass} {index} as {stats:?}"));
        }
    }

    let mut dash = Dashboard::default();
    dash.ingest(&text);
    if dash.torn_lines != torn {
        return fail("the dashboard counts torn lines differently");
    }
    for scenario in dash.scenarios.values() {
        for (key, row) in &scenario.execs {
            if p.rows.get(key) != Some(row) {
                return fail(&format!("shows {key:?} as {row:?}"));
            }
        }
        for run in scenario.shards.values() {
            if !p.records.contains(&Record::RunEnd(run.clone())) {
                return fail(&format!("shows a run that ended as {run:?}"));
            }
        }
    }
    Ok(())
}

#[test]
fn every_line_truncated_at_every_byte_is_one_torn_line_or_nothing() {
    for line in &pristine().lines {
        check(line.as_bytes()).unwrap();
        for cut in 0..line.len() {
            check(&line.as_bytes()[..cut]).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        }
    }
}

#[test]
fn the_stream_cut_anywhere_loses_at_most_its_last_line() {
    let p = pristine();
    let text = p.lines.join("\n") + "\n";
    let whole = parse_wal(&text, &p.name).completed;
    for cut in (0..text.len()).step_by(97) {
        check(&text.as_bytes()[..cut]).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        let wal = parse_wal(&text[..cut], &p.name);
        assert!(wal.torn_lines <= 1, "cut at {cut}");
        let lost = whole.len() - wal.completed.len();
        let after = text[cut..].lines().count();
        assert!(lost <= after, "cut at {cut}: lost {lost} of {after} lines");
    }
}

/// Another value of `v`'s own type where its reader would take one (a
/// count, a fingerprint, a verdict), `v` itself otherwise.
fn of_the_same_type(v: &Value) -> Value {
    match v {
        Value::Number(n) => Value::Number(n + 1.0),
        Value::String(s) if s.starts_with("0x") => Value::String("0x0000000000000001".into()),
        Value::Bool(b) => Value::Bool(!b),
        other => other.clone(),
    }
}

/// A record that says one thing twice says nothing (ROADMAP item 4 (c)).
/// Every key of every record, written a second time with a value its
/// reader would have taken, before the record or after it: the line is
/// torn for all three readers, and no execution is replayed from it — in
/// particular not one with the later value.
#[test]
fn a_record_with_a_key_twice_is_torn_never_read_with_the_later_value() {
    let p = pristine();
    for line in &p.lines {
        let Ok(Value::Object(map)) = serde_json::from_str(line) else {
            unreachable!("pristine lines are records")
        };
        for (key, value) in map.iter() {
            let copy = serde_json::to_string(&of_the_same_type(value)).unwrap();
            let body = &line[1..line.len() - 1];
            for text in [
                format!("{{{key:?}: {copy},{body}}}"),
                format!("{{{body},{key:?}: {copy}}}"),
            ] {
                let mut whole = 0;
                let torn = read_stream(&text, None, |_, _| whole += 1);
                assert_eq!((whole, torn), (0, 1), "{text}");
                let wal = parse_wal(&text, &p.name);
                assert!(
                    wal.completed.is_empty() && wal.run_start.is_none(),
                    "{text}"
                );
                assert_eq!(wal.torn_lines, 1, "{text}");
                check(text.as_bytes()).unwrap();
            }
        }
    }
}

/// A value of another JSON type than `v`.
fn of_another_type(v: &Value) -> Value {
    match v {
        Value::Number(n) => Value::String(n.to_string()),
        Value::String(_) => Value::Number(7.0),
        Value::Bool(b) => Value::String(b.to_string()),
        Value::Null => Value::Number(0.0),
        Value::Array(_) => Value::Object(serde_json::Map::new()),
        Value::Object(_) => Value::Array(Vec::new()),
    }
}

/// The record on line `line % lines`, and its `key % keys`-th key.
fn record_and_key(line: usize, key: usize) -> (serde_json::Map, String) {
    let lines = &pristine().lines;
    let Ok(Value::Object(map)) = serde_json::from_str(&lines[line % lines.len()]) else {
        unreachable!("pristine lines are records")
    };
    let key = map.iter().nth(key % map.len()).expect("in range").0.clone();
    (map, key)
}

fn text_of(map: serde_json::Map) -> String {
    serde_json::to_string(&Value::Object(map)).expect("shim serialization is infallible")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn a_record_short_of_a_key_is_dropped_or_unchanged(line in 0usize..4096, key in 0usize..64) {
        let (mut map, key) = record_and_key(line, key);
        map.remove(&key);
        check(text_of(map).as_bytes())?;
    }

    #[test]
    fn a_value_of_the_wrong_type_is_dropped_or_unread(line in 0usize..4096, key in 0usize..64) {
        let (mut map, key) = record_and_key(line, key);
        let swapped = of_another_type(&map.get(&key).expect("its own key").clone());
        map.insert(key, swapped);
        check(text_of(map).as_bytes())?;
    }

    /// A second copy of a key, of the right type or the wrong one and
    /// wherever it sits, never makes the record read as something else
    /// (the deterministic test below: it makes the line torn).
    #[test]
    fn a_key_twice_is_dropped_or_unchanged(
        line in 0usize..4096,
        key in 0usize..64,
        first in any::<bool>(),
        same in any::<bool>(),
    ) {
        let (map, key) = record_and_key(line, key);
        let value = map.get(&key).expect("its own key").clone();
        let copy = if same { value.clone() } else { of_another_type(&value) };
        let copy = format!("{key:?}: {}", serde_json::to_string(&copy).unwrap());
        let text = text_of(map);
        let text = if first {
            format!("{{{copy}, {}", &text[1..])
        } else {
            format!("{}, {copy}}}", &text[..text.len() - 1])
        };
        check(text.as_bytes())?;
    }

    #[test]
    fn bytes_that_are_not_utf8_never_change_an_execution(
        line in 0usize..4096,
        at in 0usize..4096,
        bytes in proptest::collection::vec(0x80u8..=0xff, 1..4),
    ) {
        let lines = &pristine().lines;
        let mut hostile = lines[line % lines.len()].clone().into_bytes();
        let at = at % (hostile.len() + 1);
        hostile.splice(at..at, bytes);
        check(&hostile)?;
    }
}

/// Fault-plan texts `FaultPlan::compact` never writes: every record that
/// carries one with such a value is torn, or reads as the record that was
/// written (an `exec_done` keeps only whether its plan was empty).
const HOSTILE_FAULTS: [&str; 14] = [
    "",
    "+",
    "io@01",
    "io@2+io@1",
    "io@1+io@1",
    "torn-all+torn-all",
    "torn-sub",
    "d1@5+torn-none",
    "net-drop@2+net-drop@1",
    "net-lose@1",
    "IO@1",
    "io@1 ",
    "-+-",
    "io@99999999999999999999",
];

#[test]
fn a_fault_plan_the_writer_never_writes_is_torn_or_unread() {
    let p = pristine();
    let mut seen = 0;
    for line in &p.lines {
        let Ok(Value::Object(map)) = serde_json::from_str(line) else {
            unreachable!("pristine lines are records")
        };
        if map.get("faults").is_none() {
            continue;
        }
        seen += 1;
        for hostile in HOSTILE_FAULTS {
            let mut map = map.clone();
            map.insert("faults".to_string(), Value::String(hostile.to_string()));
            let text = text_of(map);
            check(text.as_bytes()).unwrap();
            if text.contains(r#""type":"counterexample""#) {
                let torn = read_stream(&text, None, |_, _| {});
                assert_eq!(torn, 1, "a counterexample read with faults {hostile:?}");
            }
        }
    }
    assert!(seen > 40, "{seen} lines carry a fault plan");
}

/// A counterexample rebuilt from its stream record alone: the replay
/// coordinates the record carries, nothing the run kept.
fn rebuilt(cx: &CxRecord) -> Counterexample {
    Counterexample {
        outcome: ExecOutcome::Ok,
        pass: cx.pass,
        index: cx.index,
        seed: cx.seed,
        schedule_prefix: cx.schedule_prefix.clone(),
        crash_points: cx.crash_points.clone(),
        clamped: Vec::new(),
        faults: cx.faults.clone(),
        trace: String::new(),
        timeline: None,
    }
}

#[test]
fn a_fault_pass_failure_replays_from_the_stream_alone() {
    let registry = all_mutant_scenarios();
    for (name, pass) in [
        (MUTANT, Pass::TornWrite),
        ("repldisk/mutant/transient-give-up", Pass::DiskFault),
        ("mailboat/mutant/net-no-dedup", Pass::NetFault),
    ] {
        let scenario = registry.get(name).expect("registered mutant");
        let (sink, buf) = TelemetrySink::shared_buffer();
        let mut streamed = config();
        streamed.telemetry = Some(sink);
        assert!(!scenario.run(&streamed).passed(), "{name}");
        let text = String::from_utf8(buf.lock().clone()).expect("stream is UTF-8");
        let mut failures = Vec::new();
        read_stream(&text, None, |_, record| {
            if let Record::Counterexample(cx) = record {
                failures.push(cx);
            }
        });
        assert!(
            failures
                .iter()
                .any(|cx| cx.pass == pass && !cx.faults.is_empty()),
            "{name}: no {pass} failure with a fault plan in {failures:?}"
        );
        for cx in &failures {
            let (outcome, _) = scenario.replay(&rebuilt(cx), &config());
            assert_eq!(OutcomeKind::of(&outcome), cx.outcome, "{name}: {cx:?}");
        }
    }
}

/// The mutant's run as two shards: each shard's report, and the text
/// `report_to_json` writes for it.
fn shards() -> &'static [(CheckReport, String); 2] {
    static SHARDS: OnceLock<[(CheckReport, String); 2]> = OnceLock::new();
    SHARDS.get_or_init(|| {
        let registry = all_mutant_scenarios();
        let scenario = registry.get(MUTANT).expect("registered mutant");
        [0, 1].map(|i| {
            let report = scenario.run(&CheckConfig {
                shard: Some((i, 2)),
                ..config()
            });
            assert!(report.counterexamples.len() > 1 && report.fault_plans > 0);
            let text = serde_json::to_string(&report_to_json(&report)).expect("infallible");
            (report, text)
        })
    })
}

/// The report reader's contract on bytes derived from a report's text:
/// they are not JSON, or not a report. Neither step may panic.
fn refused(hostile: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(hostile);
    match serde_json::from_str(&text).map(|v| report_from_json(&v)) {
        Ok(Ok(report)) => Err(format!("read as {}\nfrom: {text}", report.summary())),
        _ => Ok(()),
    }
}

/// One step on the way to a value inside a JSON tree.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every path from `v` to a value inside it, `at` prefixed.
fn paths(v: &Value, at: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    let children: Vec<(Step, &Value)> = match v {
        Value::Object(m) => m.iter().map(|(k, x)| (Step::Key(k.clone()), x)).collect(),
        Value::Array(items) => items
            .iter()
            .enumerate()
            .map(|(i, x)| (Step::Index(i), x))
            .collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        at.push(step);
        out.push(at.clone());
        paths(child, at, out);
        at.pop();
    }
}

fn at<'a>(v: &'a mut Value, path: &[Step]) -> &'a mut Value {
    path.iter().fold(v, |v, step| match (v, step) {
        (Value::Object(m), Step::Key(k)) => m.get_mut(k).expect("on the path"),
        (Value::Array(items), Step::Index(i)) => &mut items[*i],
        _ => unreachable!("paths only go where the tree does"),
    })
}

#[test]
fn a_shard_report_round_trips_and_its_shards_merge() {
    let [(a, a_text), (b, b_text)] = shards();
    let back: Vec<CheckReport> = [a_text, b_text]
        .map(|text| report_from_json(&serde_json::from_str(text).unwrap()).unwrap())
        .into();
    assert_eq!(report_fingerprint(&back[0]), report_fingerprint(a));
    assert_eq!(report_fingerprint(&back[1]), report_fingerprint(b));
    let whole = merge_reports(vec![a.clone(), b.clone()]).unwrap();
    assert_eq!(
        report_fingerprint(&merge_reports(back).unwrap()),
        report_fingerprint(&whole)
    );
}

/// Each key of each object removed, and each value swapped for one of
/// another JSON type: the reader refuses the report, never fills a default.
#[test]
fn a_report_short_of_a_key_or_with_a_value_of_another_type_is_refused() {
    for (_, text) in shards() {
        let root: Value = serde_json::from_str(text).unwrap();
        let mut all = Vec::new();
        paths(&root, &mut Vec::new(), &mut all);
        assert!(all.len() > 150, "{} paths", all.len());
        for path in &all {
            let mut swapped = root.clone();
            let v = at(&mut swapped, path);
            *v = of_another_type(v);
            let got = report_from_json(&swapped);
            assert!(got.is_err(), "{path:?} of another type was read as {got:?}");
            let Some((Step::Key(key), parent)) = path.split_last() else {
                continue;
            };
            let mut short = root.clone();
            let Value::Object(m) = at(&mut short, parent) else {
                unreachable!("a key's parent is an object")
            };
            m.remove(key);
            assert!(
                report_from_json(&short).is_err(),
                "{path:?} removed was read"
            );
        }
    }
}

/// Each key of each object written a second time, first or last among its
/// siblings: the text is not JSON. The text is made by adding a placeholder
/// key that sorts first (`!`) or last (`~`) among the object's keys, then
/// writing the key and its value in place of the placeholder.
#[test]
fn a_report_with_a_key_twice_is_refused() {
    let (_, text) = &shards()[0];
    let root: Value = serde_json::from_str(text).unwrap();
    let mut all = Vec::new();
    paths(&root, &mut Vec::new(), &mut all);
    for path in &all {
        let Some((Step::Key(key), parent)) = path.split_last() else {
            continue;
        };
        let json = |v: &Value| serde_json::to_string(v).unwrap();
        let value = at(&mut root.clone(), path).clone();
        let twice = format!("{}: {}", json(&Value::String(key.clone())), json(&value));
        for sentinel in ["!", "~"] {
            let mut marked = root.clone();
            let Value::Object(m) = at(&mut marked, parent) else {
                unreachable!("a key's parent is an object")
            };
            m.insert(sentinel.to_string(), Value::Null);
            let text = serde_json::to_string(&marked).unwrap();
            let text = text.replacen(&format!("\"{sentinel}\": null"), &twice, 1);
            assert!(
                serde_json::from_str(&text).is_err(),
                "{path:?} twice parsed"
            );
            refused(text.as_bytes()).unwrap();
        }
    }
}

#[test]
fn a_report_cut_at_any_byte_is_refused() {
    for (_, text) in shards() {
        for cut in 0..text.len() {
            refused(&text.as_bytes()[..cut]).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        }
    }
}

/// A set of shards, read back from their report text, that does not cover
/// the run exactly once is refused, and the refusal names the shard at
/// fault.
#[test]
fn merging_a_mis_covered_set_names_the_shard() {
    let [a, b] = shards()
        .each_ref()
        .map(|(_, text)| report_from_json(&serde_json::from_str(text).unwrap()).unwrap());
    let mut stranger = b.clone();
    stranger.name = "patterns/wal".into();
    for (set, culprit) in [
        (vec![b.clone()], "0/2"),
        (vec![a.clone()], "1/2"),
        (vec![a.clone(), a.clone(), b.clone()], "0/2"),
        (vec![a.clone(), b.clone(), b.clone()], "1/2"),
        (vec![a.clone(), stranger], "1/2"),
    ] {
        let err = merge_reports(set).expect_err(culprit);
        assert!(err.contains(culprit), "{culprit}: {err}");
    }
}

/// The mutant resumed from `lines` as its WAL.
fn resumed_from(lines: &[String], tag: &str) -> CheckReport {
    let p = pristine();
    let path = std::env::temp_dir().join(format!(
        "perennial-hostile-{}-{tag}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, lines.join("\n") + "\n").expect("the log");
    let registry = all_mutant_scenarios();
    let scenario = registry.get(MUTANT).expect("registered mutant");
    let report = scenario.run(&CheckConfig {
        resume_from: Some(path.clone()),
        ..p.config.clone()
    });
    let _ = std::fs::remove_file(&path);
    report
}

/// A resume replays the schedule phase only from a log that closed it
/// and holds all of it (DESIGN.md §13). Each log below says otherwise in
/// one place; each resumes to the cold report with the phase run live,
/// reading back only the executions past it — never to a short report.
#[test]
fn a_schedule_phase_the_log_does_not_close_whole_runs_live() {
    let p = pristine();
    let close = (p.lines.iter())
        .position(|line| line.contains("\"type\": \"schedule_end\""))
        .expect("the phase closed");
    let Some(&Record::ScheduleEnd(end)) = p
        .records
        .iter()
        .find(|r| matches!(r, Record::ScheduleEnd(_)))
    else {
        unreachable!("the close was read")
    };
    let text = p.lines.join("\n");
    let passed = parse_wal(&text, &p.name).completed;
    let past_the_phase = passed
        .keys()
        .filter(|(rank, _)| *rank > Pass::Random.rank());

    // The whole log replays the phase: everything that passed is read back.
    let whole = resumed_from(&p.lines, "whole");
    assert_eq!(report_fingerprint(&whole), p.fingerprint);
    assert_eq!(whole.replayed, passed.len() as u64);

    let dfs = format!("\"dfs\": {}", end.jobs[0]);
    let with_close = |close_line: String| {
        let mut lines = p.lines.clone();
        lines[close] = close_line;
        lines
    };
    let with_after_close = |extra: &String| {
        let mut lines = p.lines.clone();
        lines.insert(close + 1, extra.clone());
        lines
    };
    // The phase's passing jobs, each logged before its close.
    let ok = (0..close).filter(|&i| p.lines[i].contains("\"outcome\": \"ok\""));
    let ok: Vec<usize> = ok.collect();
    assert!(ok.len() > 2, "{} passing jobs in the phase", ok.len());
    let mut missing = p.lines.clone();
    missing.remove(ok[ok.len() / 2]);
    let more = format!("\"dfs\": {}", end.jobs[0] + 1);
    let pruned = format!("\"pruned\": {}", end.pruned);
    let disagreeing =
        p.lines[close].replacen(&pruned, &format!("\"pruned\": {}", end.pruned + 1), 1);
    for (what, lines) in [
        (
            "counts past the records",
            with_close(p.lines[close].replacen(&dfs, &more, 1)),
        ),
        ("two closes that disagree", with_after_close(&disagreeing)),
        (
            "a close of another run_start",
            with_after_close(&p.lines[0]),
        ),
        ("a key missing mid-phase", missing),
        (
            "a non-canonical count",
            with_close(p.lines[close].replacen(&dfs, &(dfs.clone() + ".0"), 1)),
        ),
    ] {
        assert_ne!(lines, p.lines, "{what}");
        let resumed = resumed_from(&lines, "hostile");
        assert_eq!(report_fingerprint(&resumed), p.fingerprint, "{what}");
        assert_eq!(
            resumed.replayed,
            past_the_phase.clone().count() as u64,
            "{what}"
        );
    }
}

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
//! the checker wrote under that key.
//!
//! A shard's report file is merged into a verdict the same way, so its
//! JSON gets the same treatment: `report_from_json` refuses every such
//! variant of a real shard report, and `merge_reports` refuses a set of
//! shards that does not cover the run once, naming the shard.

use perennial_checker::telemetry::{parse_wal, read_stream, ExecStats, Record};
use perennial_checker::{
    merge_reports, report_fingerprint, report_from_json, report_to_json, CheckConfig, CheckReport,
    Dashboard, Pass, TelemetrySink,
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

/// The mutant's stream: all six record types, fault tags, failing
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
        let executions: BTreeMap<_, _> = records
            .iter()
            .filter_map(|record| match record {
                Record::ExecDone {
                    pass, index, stats, ..
                } => Some(((*pass, *index), *stats)),
                _ => None,
            })
            .collect();
        assert!(executions.len() > 40 && !report.passed());
        assert!(records.iter().any(|r| matches!(r, Record::RunEnd(_))));
        records.retain(|record| *record != Record::Other);
        Pristine {
            name: report.name,
            config,
            lines,
            records,
            executions,
        }
    })
}

/// The reader's contract on arbitrary bytes derived from the pristine stream.
fn check(hostile: &[u8]) -> Result<(), String> {
    let p = pristine();
    let text = String::from_utf8_lossy(hostile);
    let lines = text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
    let fail = |what: &str| Err(format!("{what}\nin: {text}"));

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
        for (key, stats) in &scenario.exec_costs {
            if p.executions.get(key) != Some(stats) {
                return fail(&format!("shows {key:?} as {stats:?}"));
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

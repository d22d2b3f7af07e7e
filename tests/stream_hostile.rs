//! The stream's one reader under hostile input (ROADMAP item 4 (c)).
//!
//! A WAL is a file anyone may have touched and a kill may have cut, and
//! what it replays becomes part of a verdict. So for every line of a real
//! stream — truncated at every byte, short of a key, with a value of the
//! wrong type, with a key twice, with bytes that are not UTF-8 spliced in —
//! `read_stream`, `parse_wal` and `Dashboard::ingest` must not panic, must
//! account for every non-empty line as either one whole record or one torn
//! line, and must never hand back an execution that differs from the one
//! the checker wrote under that key.

use perennial_checker::telemetry::{parse_wal, read_stream, ExecStats, Record};
use perennial_checker::{CheckConfig, Dashboard, Pass, TelemetrySink};
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

/// A mutant under the fault sweeps, kept going: all six record types, fault
/// tags, failing executions.
fn pristine() -> &'static Pristine {
    static PRISTINE: OnceLock<Pristine> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let registry = all_mutant_scenarios();
        let scenario = registry
            .get("patterns/mutant/wal-skip-commit-flush")
            .expect("registered mutant");
        let config = CheckConfig::builder()
            .seed(7)
            .dfs_max_executions(6)
            .random_samples(2)
            .random_crash_samples(3)
            .without_passes([Pass::NestedCrash])
            .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
            .keep_going(true)
            .workers(1)
            .build();
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

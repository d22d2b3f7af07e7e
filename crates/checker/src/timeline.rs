//! Chrome-trace export of a counterexample's causal trace.
//!
//! Consumes the [`ExecTrace`] the goose runtime records when
//! [`CheckConfig::trace_capture`](crate::CheckConfig::trace_capture) is
//! on (the default): the winning counterexample is re-run with the
//! recorder enabled, and [`chrome_trace_json`] writes the resulting
//! causal event stream in the Chrome trace-event JSON format, loadable
//! in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`, with
//! causal edges exported as flow arrows. Its text form is
//! [`render_explain`](crate::render_explain). Both are pure functions of
//! the trace, so their output is identical across worker counts and
//! shard splits for the same counterexample.

use goose_rt::trace::ExecTrace;
use serde_json::{json, Value};

/// Synthetic Chrome-trace thread id for controller events (crashes,
/// fault injections outside any virtual thread).
const CONTROLLER_TID: u64 = 999;

/// Exports a causal trace in the Chrome trace-event JSON format.
///
/// Load the file at <https://ui.perfetto.dev> or `chrome://tracing`:
/// each virtual thread is a track (controller actions get their own),
/// the time axis is the virtual clock (one microsecond per trace seq),
/// and causal edges appear as flow arrows from the source event to the
/// dependent one.
pub fn chrome_trace_json(trace: &ExecTrace, scenario: &str) -> Value {
    let mut events: Vec<Value> = Vec::new();
    for (tid, name) in trace.threads.iter().enumerate() {
        events.push(json!({
            "ph": "M",
            "name": "thread_name",
            "pid": 0,
            "tid": tid as u64,
            "args": { "name": format!("t{tid} {name}") },
        }));
    }
    events.push(json!({
        "ph": "M",
        "name": "thread_name",
        "pid": 0,
        "tid": CONTROLLER_TID,
        "args": { "name": "controller" },
    }));
    for ev in &trace.events {
        let tid = ev.tid.map(|t| t as u64).unwrap_or(CONTROLLER_TID);
        events.push(json!({
            "ph": "X",
            "name": ev.kind.label(),
            "cat": ev.kind.category(),
            "pid": 0,
            "tid": tid,
            "ts": ev.seq,
            "dur": 1,
            "args": { "seq": ev.seq },
        }));
        if let Some(src) = ev.happens_after {
            let src_tid = trace
                .events
                .get(src as usize)
                .and_then(|e| e.tid)
                .map(|t| t as u64)
                .unwrap_or(CONTROLLER_TID);
            events.push(json!({
                "ph": "s",
                "name": "causal",
                "cat": "dep",
                "id": src,
                "pid": 0,
                "tid": src_tid,
                "ts": src,
            }));
            events.push(json!({
                "ph": "f",
                "bp": "e",
                "name": "causal",
                "cat": "dep",
                "id": src,
                "pid": 0,
                "tid": tid,
                "ts": ev.seq,
            }));
        }
    }
    json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "scenario": scenario,
            "threads": trace.threads.len() as u64,
            "truncated": trace.truncated,
        },
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use goose_rt::trace::{TraceEvent, TraceKind};

    pub(crate) fn sample_trace() -> ExecTrace {
        ExecTrace {
            events: vec![
                TraceEvent {
                    seq: 0,
                    tid: Some(0),
                    kind: TraceKind::LockRelease { lock: 1 },
                    happens_after: None,
                },
                TraceEvent {
                    seq: 1,
                    tid: None,
                    kind: TraceKind::Crash { step: 4 },
                    happens_after: None,
                },
                TraceEvent {
                    seq: 2,
                    tid: Some(1),
                    kind: TraceKind::LockAcquire { lock: 1 },
                    happens_after: Some(0),
                },
            ],
            threads: vec!["writer".into(), "recovery".into()],
            truncated: false,
        }
    }

    #[test]
    fn chrome_export_has_the_documented_shape() {
        let v = chrome_trace_json(&sample_trace(), "demo");
        let Value::Object(top) = &v else {
            panic!("not an object")
        };
        let Some(Value::Array(events)) = top.get("traceEvents") else {
            panic!("missing traceEvents array")
        };
        // 2 thread metadata + controller metadata + 3 slices + 1 flow pair.
        assert_eq!(events.len(), 3 + 3 + 2);
        for ev in events {
            let Value::Object(m) = ev else {
                panic!("event not an object")
            };
            for key in ["ph", "name", "pid", "tid"] {
                assert!(m.get(key).is_some(), "missing {key} in {ev:?}");
            }
        }
        // Flow pair binds source seq 0 to the acquire at seq 2.
        let flows: Vec<&Value> = events
            .iter()
            .filter(|e| matches!(e, Value::Object(m) if m.get("cat") == Some(&Value::String("dep".into()))))
            .collect();
        assert_eq!(flows.len(), 2, "one s/f flow pair");
    }

    #[test]
    fn empty_trace_exports_without_panicking() {
        let t = ExecTrace::default();
        let v = chrome_trace_json(&t, "x");
        assert!(serde_json::to_string(&v).unwrap().contains("traceEvents"));
    }
}

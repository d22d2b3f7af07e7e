//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's own files only (spans inside
//! the program are a later change), kept in a `Vec`, and written out when
//! the run ends. The benchmark is single-threaded at this level, so spans
//! nest strictly and a stack of open spans gives each its parent.

use serde_json::{json, Value};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Layer-boundary name: `workload`, `rep`, `checker.check`, `resume`,
    /// `codec`, or `micro.<metric>`.
    pub name: String,
    /// What the span was about (scenario name, repetition index).
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder; every method is a no-op when tracing is off, so the
/// untraced run executes the same code path minus the bookkeeping.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` gets the tracer back so it
    /// can open child spans.
    pub fn span<R>(&mut self, name: &str, label: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            label: label.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Value {
        let selfs = self_times_ns(&self.spans);
        Value::Array(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    json!({
                        "id": s.id,
                        "parent": s.parent,
                        "name": s.name,
                        "label": s.label,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "self_ns": self_ns,
                    })
                })
                .collect(),
        )
    }
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    selfs
}

/// Total duration of the spans called `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            label: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 holds a 10..40 and b 50..90; a holds c 20..30.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut t = Tracer::new(true);
        t.span("rep", "0", |t| {
            t.span("checker.check", "kv/a", |_| ());
            t.span("checker.check", "kv/b", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(s[1].end_ns <= s[2].start_ns);
        assert!(total_s(s, "checker.check") <= total_s(s, "rep"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_runs_the_body() {
        let mut t = Tracer::new(false);
        let out = t.span("rep", "0", |t| t.span("checker.check", "x", |_| 7));
        assert_eq!(out, 7);
        assert!(t.spans().is_empty());
    }
}

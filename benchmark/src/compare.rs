//! `benchmark compare A B`: judge run set B against baseline set A with
//! the directions and bounds `BENCHMARK.json` fixes.
//!
//! A set is a file of run records — the documents a run writes to
//! `benchmark/out/<workload>.json` or appends with `--out` — one JSON
//! document per line, or a single document. Every end-to-end metric gets
//! one row per workload. A count taken at the same seeds must repeat
//! exactly; a timing is a regression when B's median is worse than A's by
//! more than the bound, and *unresolved* — not "unchanged" — when the two
//! interquartile ranges overlap.

use crate::spec::{MetricDef, Spec};
use crate::stats::{summarize, Summary};
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact-match count, same on both sides.
    Identical,
    /// Exact-match count that moved (either way: the baseline is stale).
    Changed,
    Regression,
    Improved,
    /// Worse, resolved, and within the bound.
    WithinBound,
    /// Quartile ranges overlap, or a side is a single sample: the runs
    /// cannot tell the sides apart.
    Unresolved,
    /// One side has no run of this workload.
    Missing,
}

impl Verdict {
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Changed | Verdict::Regression | Verdict::Missing
        )
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Changed => "CHANGED",
            Verdict::Regression => "REGRESSION",
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "MISSING",
        }
    }
}

/// B's median against A's, as a share of A's, positive when worse.
fn worse_by(def: &MetricDef, a: &Summary, b: &Summary) -> f64 {
    let delta = if def.lower_is_better {
        b.median - a.median
    } else {
        a.median - b.median
    };
    if a.median == 0.0 {
        // Only a metric that is 0 on the baseline gets here; any movement
        // away from it in the bad direction is unbounded.
        return if delta > 0.0 { f64::INFINITY } else { 0.0 };
    }
    delta / a.median.abs()
}

/// `exact`: the metric is a deterministic count and both sides ran the
/// same seeds, so any difference is a behaviour change, not noise.
pub fn judge(def: &MetricDef, a: &Summary, b: &Summary, exact: bool) -> Verdict {
    if exact {
        return if a.median == b.median {
            Verdict::Identical
        } else {
            Verdict::Changed
        };
    }
    let worse = worse_by(def, a, b);
    if worse > def.bound.unwrap_or(f64::INFINITY) {
        Verdict::Regression
    } else if a.n < 2 || b.n < 2 || (a.q1 <= b.q3 && b.q1 <= a.q3) {
        // One sample has no spread to be outside of.
        Verdict::Unresolved
    } else if worse < 0.0 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

struct Run {
    seed: u64,
    /// metric → `[value, q1, q3, n]`, the last three over the run's own
    /// repetitions (a value that is not a median has n = 1).
    metrics: BTreeMap<String, [f64; 4]>,
}

/// The untraced runs of one file, by workload.
#[derive(Default)]
struct RunSet {
    runs: BTreeMap<String, Vec<Run>>,
    /// Verdict errors any run reported.
    failed: u64,
}

fn num(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

fn parse_records(text: &str) -> Result<Vec<Value>, String> {
    if let Ok(doc) = serde_json::from_str(text) {
        return Ok(vec![doc]);
    }
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::default();
    for doc in parse_records(&text).map_err(|e| format!("{path}: {e}"))? {
        let Value::Object(run) = doc else {
            return Err(format!("{path}: a record is not an object"));
        };
        if matches!(run.get("trace"), Some(Value::Bool(true))) {
            continue; // per-layer runs carry no end-to-end metrics
        }
        let (Some(Value::String(workload)), Some(seed), Some(Value::Object(metrics))) = (
            run.get("workload"),
            num(run.get("seed")),
            run.get("metrics"),
        ) else {
            return Err(format!("{path}: a record lacks workload, seed or metrics"));
        };
        set.failed += num(run.get("failed")).unwrap_or(0.0) as u64;
        let mut row = BTreeMap::new();
        for (name, m) in metrics.iter() {
            if let Value::Object(m) = m {
                if let Some(value) = num(m.get("value")) {
                    let q1 = num(m.get("q1")).unwrap_or(value);
                    let q3 = num(m.get("q3")).unwrap_or(value);
                    let n = num(m.get("n")).unwrap_or(1.0);
                    row.insert(name.clone(), [value, q1, q3, n]);
                }
            }
        }
        set.runs.entry(workload.clone()).or_default().push(Run {
            seed: seed as u64,
            metrics: row,
        });
    }
    Ok(set)
}

/// One side of a row: across runs when there are several, else the single
/// run's own repetition quartiles.
fn side(set: &RunSet, workload: &str, metric: &str) -> Option<(Summary, Vec<u64>)> {
    let runs = set.runs.get(workload)?;
    let found: Vec<(u64, [f64; 4])> = runs
        .iter()
        .filter_map(|run| Some((run.seed, *run.metrics.get(metric)?)))
        .collect();
    let mut seeds: Vec<u64> = found.iter().map(|(s, _)| *s).collect();
    seeds.sort_unstable();
    let summary = match found.as_slice() {
        [] => return None,
        [(_, [value, q1, q3, n])] => Summary {
            median: *value,
            q1: *q1,
            q3: *q3,
            min: *value,
            n: *n as usize,
        },
        many => summarize(&many.iter().map(|(_, v)| v[0]).collect::<Vec<_>>()),
    };
    Some((summary, seeds))
}

fn cell(s: &Summary) -> String {
    format!(
        "{:.6} [{:.6}, {:.6}] spread {:.1}% n={}",
        s.median,
        s.q1,
        s.q3,
        100.0 * s.spread(),
        s.n
    )
}

/// Entry point of `benchmark compare A B`; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    let [a_path, b_path] = args else {
        eprintln!("usage: benchmark compare A.json B.json");
        return 2;
    };
    let loaded = Spec::load().and_then(|s| Ok((s, load(a_path)?, load(b_path)?)));
    let (spec, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
    };
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a.runs.keys().chain(b.runs.keys()).collect();
        w.sort();
        w.dedup();
        w
    };
    let mut failing = 0;
    println!("workload\tmetric\tunit\tbetter\tbound\tA median [q1, q3]\tB median [q1, q3]\tworse by\tverdict");
    for workload in workloads {
        for def in &spec.end_to_end {
            let (sa, sb) = (side(&a, workload, &def.name), side(&b, workload, &def.name));
            let (verdict, cells, worse) = match (&sa, &sb) {
                (Some((sa, seeds_a)), Some((sb, seeds_b))) => {
                    let exact = def.unit == "count" && seeds_a == seeds_b;
                    (
                        judge(def, sa, sb, exact),
                        (cell(sa), cell(sb)),
                        format!("{:+.2}%", 100.0 * worse_by(def, sa, sb)),
                    )
                }
                _ => (
                    Verdict::Missing,
                    (
                        sa.map_or("-".into(), |(s, _)| cell(&s)),
                        sb.map_or("-".into(), |(s, _)| cell(&s)),
                    ),
                    "-".to_string(),
                ),
            };
            failing += i32::from(verdict.fails());
            println!(
                "{workload}\t{}\t{}\t{}\t{}\t{}\t{}\t{worse}\t{}",
                def.name,
                def.unit,
                if def.lower_is_better {
                    "lower"
                } else {
                    "higher"
                },
                def.bound
                    .map_or("-".into(), |b| format!("{:.0}%", 100.0 * b)),
                cells.0,
                cells.1,
                verdict.label(),
            );
        }
    }
    for (name, set) in [("A", &a), ("B", &b)] {
        if set.failed > 0 {
            println!("{name}: {} verdict error(s) in its runs", set.failed);
            failing += 1;
        }
    }
    println!(
        "{}",
        if failing == 0 {
            "compare: no regression, no changed count".to_string()
        } else {
            format!("compare: {failing} failing row(s)")
        }
    );
    i32::from(failing > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(unit: &str, lower: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: unit.into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            min: q1,
            n: 10,
        }
    }

    #[test]
    fn a_timing_worse_than_its_bound_is_a_regression_even_if_noisy() {
        let d = def("s", true, 0.10);
        assert_eq!(
            judge(&d, &s(4.8, 5.0, 5.9), &s(5.4, 5.6, 6.0), false),
            Verdict::Regression
        );
    }

    #[test]
    fn overlapping_quartiles_are_unresolved_not_unchanged() {
        let d = def("s", true, 0.10);
        assert_eq!(
            judge(&d, &s(4.8, 5.0, 5.4), &s(4.9, 5.2, 5.5), false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&d, &s(4.8, 5.0, 5.4), &s(4.5, 4.9, 5.0), false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_single_sample_resolves_nothing() {
        let d = def("s", true, 0.10);
        let one = Summary {
            n: 1,
            ..s(4.0, 4.0, 4.0)
        };
        assert_eq!(
            judge(&d, &s(4.9, 5.0, 5.1), &one, false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&d, &one, &s(5.9, 6.0, 6.1), false),
            Verdict::Regression
        );
    }

    #[test]
    fn separated_quartiles_resolve_to_improved_or_within_bound() {
        let d = def("s", true, 0.10);
        assert_eq!(
            judge(&d, &s(4.9, 5.0, 5.1), &s(4.0, 4.1, 4.2), false),
            Verdict::Improved
        );
        assert_eq!(
            judge(&d, &s(4.9, 5.0, 5.1), &s(5.2, 5.3, 5.4), false),
            Verdict::WithinBound
        );
    }

    #[test]
    fn direction_follows_the_metric() {
        let d = def("count", false, 0.02);
        // higher is better: dropping 5% is a regression, rising is not.
        assert_eq!(
            judge(&d, &s(100.0, 100.0, 100.0), &s(95.0, 95.0, 95.0), false),
            Verdict::Regression
        );
        assert_eq!(
            judge(&d, &s(100.0, 100.0, 100.0), &s(105.0, 105.0, 105.0), false),
            Verdict::Improved
        );
    }

    #[test]
    fn an_exact_count_must_repeat_and_fails_either_way() {
        let d = def("count", true, 0.01);
        let base = s(7070.0, 7070.0, 7070.0);
        assert_eq!(judge(&d, &base, &base, true), Verdict::Identical);
        let fewer = judge(&d, &base, &s(7000.0, 7000.0, 7000.0), true);
        assert_eq!(fewer, Verdict::Changed);
        assert!(fewer.fails() && Verdict::Regression.fails() && Verdict::Missing.fails());
        assert!(!Verdict::Unresolved.fails() && !Verdict::Identical.fails());
    }

    #[test]
    fn records_load_from_one_document_or_one_per_line() {
        let run = |seed: u64, wall: f64| {
            format!(
                r#"{{"workload":"verify","seed":{seed},"trace":false,"failed":0,"metrics":{{"campaign_wall_s":{{"value":{wall},"unit":"s","q1":{wall},"q3":{wall}}}}}}}"#
            )
        };
        assert_eq!(parse_records(&run(7, 5.0)).unwrap().len(), 1);
        let lines = format!("{}\n{}\n", run(7, 5.0), run(8, 5.5));
        assert_eq!(parse_records(&lines).unwrap().len(), 2);
        assert!(parse_records("{\"a\":1}\nnot json\n").is_err());
    }
}

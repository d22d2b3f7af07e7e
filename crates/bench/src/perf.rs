//! The counts gate: an exact, whole-tree comparison of a fresh `scale`
//! record against the committed `BENCH_scale.json`.
//!
//! Every leaf of the record is a pure function of the configuration
//! (see [`crate::scale`]), so there is nothing to tolerate: a changed,
//! missing or extra leaf, array element or section is a difference, and
//! any difference fails the gate. Nothing is matched up, skipped or
//! defaulted — a baseline with a section deleted differs at that
//! section's path. If the change was intended, regenerate the baseline.
//!
//! The one exception is a leaf named in [`ALLOC_LEAVES`]: it also counts
//! the standard library's allocations, which move with the toolchain, so
//! it differs only when it comes out more than [`ALLOC_SLACK`] over the
//! baseline's value.

use crate::scale::{ALLOC_LEAVES, ALLOC_SLACK};
use serde_json::Value;
use std::fmt::Write as _;

/// The outcome of comparing two JSON trees.
#[derive(Debug, Clone, Default)]
pub struct TreeDiff {
    /// Leaves present at the same path in both trees (equal or not).
    pub compared: usize,
    /// One line per difference, each starting with its JSON path.
    pub differences: Vec<String>,
}

/// Number of leaves (non-container values) under `v`.
pub fn leaf_count(v: &Value) -> usize {
    match v {
        Value::Object(m) => m.iter().map(|(_, v)| leaf_count(v)).sum(),
        Value::Array(a) => a.iter().map(leaf_count).sum(),
        _ => 1,
    }
}

fn is_leaf(v: &Value) -> bool {
    !matches!(v, Value::Object(_) | Value::Array(_))
}

/// A leaf's JSON text; a subtree's size (a deleted section should not
/// print its whole contents).
fn show(v: &Value) -> String {
    if is_leaf(v) {
        serde_json::to_string(v).expect("serializing a Value cannot fail")
    } else {
        format!("a subtree of {} leaves", leaf_count(v))
    }
}

/// Whether the leaf at `path` holds its baseline: equal, or for an
/// allocation leaf, at most [`ALLOC_SLACK`] over it.
fn holds(path: &str, baseline: &Value, current: &Value) -> bool {
    let bounded = ALLOC_LEAVES
        .iter()
        .any(|k| path.strip_suffix(k).is_some_and(|p| p.ends_with('.')));
    match (baseline, current) {
        (Value::Number(b), Value::Number(c)) if bounded => *c <= b * (1.0 + ALLOC_SLACK),
        _ => baseline == current,
    }
}

fn walk(path: &str, baseline: &Value, current: &Value, out: &mut TreeDiff) {
    let only =
        |side: &str, at: String, v: &Value| format!("{at}: only in the {side} ({})", show(v));
    match (baseline, current) {
        (Value::Object(b), Value::Object(c)) => {
            for (k, bv) in b.iter() {
                let at = format!("{path}.{k}");
                match c.get(k) {
                    Some(cv) => walk(&at, bv, cv, out),
                    None => out.differences.push(only("baseline", at, bv)),
                }
            }
            for (k, cv) in c.iter().filter(|(k, _)| b.get(k).is_none()) {
                out.differences
                    .push(only("current run", format!("{path}.{k}"), cv));
            }
        }
        (Value::Array(b), Value::Array(c)) => {
            for i in 0..b.len().max(c.len()) {
                let at = format!("{path}[{i}]");
                match (b.get(i), c.get(i)) {
                    (Some(bv), Some(cv)) => walk(&at, bv, cv, out),
                    (Some(bv), None) => out.differences.push(only("baseline", at, bv)),
                    (None, Some(cv)) => out.differences.push(only("current run", at, cv)),
                    (None, None) => unreachable!("i is below the longer length"),
                }
            }
        }
        _ => {
            if is_leaf(baseline) && is_leaf(current) {
                out.compared += 1;
            }
            if !holds(path, baseline, current) {
                out.differences.push(format!(
                    "{path}: baseline {}, current {}",
                    show(baseline),
                    show(current)
                ));
            }
        }
    }
}

/// Compares two JSON trees exactly: objects by key, arrays by index,
/// leaves by value (an allocation leaf by its bound). Paths are written
/// `$.section.rows[3].field`.
pub fn diff_trees(baseline: &Value, current: &Value) -> TreeDiff {
    let mut out = TreeDiff::default();
    walk("$", baseline, current, &mut out);
    out
}

/// Renders the differences and the summary line.
pub fn render_diff(d: &TreeDiff) -> String {
    let mut out = String::from("COUNTS vs baseline\n");
    for line in &d.differences {
        let _ = writeln!(out, "  DIFFERENT {line}");
    }
    let _ = writeln!(
        out,
        "  {} leaves compared, {} difference(s)",
        d.compared,
        d.differences.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::{
        record, run_alloc_counts, run_counts, run_reduction, run_resume, run_sync_counts,
    };
    use perennial_checker::{campaign::VOLATILE_KEYS, CheckConfig, Pass, TIMING_KEYS};
    use serde_json::json;

    fn committed() -> Value {
        serde_json::from_str(include_str!("../../../BENCH_scale.json")).expect("valid JSON")
    }

    /// The object at `keys` below `v`, for editing.
    fn object<'a>(v: &'a mut Value, keys: &[&str]) -> &'a mut serde_json::Map {
        let mut v = v;
        for k in keys {
            let Value::Object(m) = v else {
                panic!("not an object above {k}")
            };
            v = m.get_mut(k).unwrap_or_else(|| panic!("no key {k}"));
        }
        match v {
            Value::Object(m) => m,
            _ => panic!("{keys:?} is not an object"),
        }
    }

    fn mutants(v: &mut Value) -> &mut Vec<Value> {
        match object(v, &["strategy_reduction"]).get_mut("mutants") {
            Some(Value::Array(rows)) => rows,
            _ => panic!("no mutants array"),
        }
    }

    /// The one difference between the committed record and an edited
    /// copy of it.
    fn the_difference(edit: impl FnOnce(&mut Value)) -> String {
        let (base, mut cur) = (committed(), committed());
        edit(&mut cur);
        let d = diff_trees(&base, &cur);
        assert_eq!(d.differences.len(), 1, "{}", render_diff(&d));
        assert!(render_diff(&d).contains("1 difference(s)"));
        d.differences[0].clone()
    }

    #[test]
    fn identical_trees_compare_every_leaf_and_pass() {
        let r = committed();
        let d = diff_trees(&r, &r);
        assert!(d.differences.is_empty(), "{}", render_diff(&d));
        assert_eq!(d.compared, leaf_count(&r));
        assert!(
            d.compared > 500,
            "28 mutants x 21 leaves and the counts rows"
        );
    }

    #[test]
    fn a_changed_removed_or_added_leaf_fails_and_names_its_path() {
        let changed = the_difference(|r| {
            object(r, &["schedule_exploration"]).insert("steps".into(), json!(1));
        });
        assert!(
            changed.starts_with("$.schedule_exploration.steps: baseline 23919, current 1"),
            "{changed}"
        );
        let removed = the_difference(|r| {
            object(r, &["fault_exploration"]).remove("distinct_traces");
        });
        assert!(
            removed.starts_with("$.fault_exploration.distinct_traces: only in the baseline"),
            "{removed}"
        );
        let added = the_difference(|r| {
            object(r, &["resume_overhead"]).insert("wal_overhead".into(), json!(0.5));
        });
        assert!(
            added.starts_with("$.resume_overhead.wal_overhead: only in the current run"),
            "{added}"
        );
    }

    #[test]
    fn an_allocation_leaf_differs_only_over_its_bound() {
        let base = committed();
        let set = |r: &mut Value, keys: &[&str], leaf: &str, v: f64| {
            object(r, keys).insert(leaf.into(), json!(v));
        };
        let schedule = ["schedule_exploration"];
        let Some(Value::Number(allocs)) = object(&mut committed(), &schedule)
            .get("allocs_per_exec")
            .cloned()
        else {
            panic!("no allocs_per_exec in the schedule row")
        };
        for (v, over) in [(0.5, false), (1.09, false), (1.11, true)] {
            let mut cur = committed();
            set(&mut cur, &schedule, "allocs_per_exec", allocs * v);
            let d = diff_trees(&base, &cur);
            assert_eq!(
                d.differences.len(),
                usize::from(over),
                "{}",
                render_diff(&d)
            );
        }
        let over = the_difference(|r| {
            let Value::Object(dpor) = &mut mutants(r)[5] else {
                panic!("mutant rows are objects")
            };
            let Some(Value::Object(cell)) = dpor.get_mut("sleep_set_dpor") else {
                panic!("no DPOR cell")
            };
            cell.insert("alloc_bytes_per_exec".into(), json!(1e12));
        });
        assert!(
            over.starts_with(
                "$.strategy_reduction.mutants[5].sleep_set_dpor.alloc_bytes_per_exec: "
            ),
            "{over}"
        );
        let gone = the_difference(|r| {
            object(r, &schedule).remove("allocs_per_exec");
        });
        assert!(
            gone.starts_with("$.schedule_exploration.allocs_per_exec: only in the baseline"),
            "{gone}"
        );
        // The bound is the allocation leaves' alone.
        let exact = the_difference(|r| set(r, &schedule, "executions", 1.0));
        assert!(
            exact.starts_with("$.schedule_exploration.executions: "),
            "{exact}"
        );
    }

    #[test]
    fn a_removed_section_fails_whichever_side_lacks_it() {
        let gone = the_difference(|r| {
            object(r, &[]).remove("strategy_reduction");
        });
        assert!(
            gone.starts_with("$.strategy_reduction: only in the baseline (a subtree of"),
            "{gone}"
        );
        // The holed baseline: the section is missing from the committed
        // side, so nothing in it could be compared.
        let mut holed = committed();
        object(&mut holed, &[]).remove("strategy_reduction");
        let d = diff_trees(&holed, &committed());
        assert_eq!(d.differences.len(), 1, "{}", render_diff(&d));
        assert!(d.differences[0].starts_with("$.strategy_reduction: only in the current run"));
    }

    #[test]
    fn a_reordered_renamed_or_dropped_mutant_row_fails() {
        let (base, mut swapped) = (committed(), committed());
        mutants(&mut swapped).swap(0, 1);
        let d = diff_trees(&base, &swapped);
        assert!(
            d.differences
                .iter()
                .any(|l| l.starts_with("$.strategy_reduction.mutants[0].scenario: ")),
            "{}",
            render_diff(&d)
        );
        assert!(d
            .differences
            .iter()
            .any(|l| l.starts_with("$.strategy_reduction.mutants[1].scenario: ")));

        let renamed = the_difference(|r| {
            let Value::Object(row) = &mut mutants(r)[3] else {
                panic!("mutant rows are objects")
            };
            row.insert("scenario".into(), json!("kv/mutant/renamed"));
        });
        assert!(
            renamed.starts_with("$.strategy_reduction.mutants[3].scenario: "),
            "{renamed}"
        );
        let dropped = the_difference(|r| {
            mutants(r).pop();
        });
        assert!(
            dropped.starts_with("$.strategy_reduction.mutants[27]: only in the baseline"),
            "{dropped}"
        );
    }

    /// Every object key in the tree.
    fn keys(v: &Value, out: &mut Vec<String>) {
        match v {
            Value::Object(m) => {
                for (k, v) in m.iter() {
                    out.push(k.clone());
                    keys(v, out);
                }
            }
            Value::Array(a) => a.iter().for_each(|v| keys(v, out)),
            _ => {}
        }
    }

    #[test]
    fn the_record_holds_no_wall_clock_leaf() {
        let cfg = CheckConfig::builder()
            .dfs_max_executions(20)
            .random_samples(2)
            .random_crash_samples(2)
            .without_passes([Pass::NestedCrash])
            .build();
        let registry = crash_patterns::scenarios();
        let scenario = registry.get("patterns/wal").expect("registered");
        let counts = run_counts(scenario, &cfg, &[1, 2]).expect("deterministic");
        let wal = std::env::temp_dir().join(format!(
            "perennial-perf-test-resume-{}.jsonl",
            std::process::id()
        ));
        let resume = run_resume(scenario, &cfg, &wal);
        let _ = std::fs::remove_file(&wal);
        let reduction = run_reduction(&crash_patterns::mutant_scenarios(), &cfg);
        let sync = run_sync_counts(scenario, &cfg);
        let allocs = run_alloc_counts(scenario, &cfg);
        let fresh = record(
            scenario.name(),
            &counts,
            &sync,
            &allocs,
            &counts,
            &reduction,
            &resume,
        );

        for (what, tree) in [("a fresh record", fresh), ("BENCH_scale.json", committed())] {
            let mut found = Vec::new();
            keys(&tree, &mut found);
            assert!(found.iter().any(|k| k == "executions"), "{what} is empty");
            for k in &found {
                // `replayed` is volatile across a *campaign's* cold and
                // resumed reports; here it is the count from one resume
                // against a complete WAL, fixed by the configuration.
                let timing = TIMING_KEYS.contains(&k.as_str())
                    || (VOLATILE_KEYS.contains(&k.as_str()) && k != "replayed")
                    || k == "speedup"
                    || k == "resume_speedup"
                    || k.ends_with("_wall_time_s")
                    || k.starts_with("wal_overhead");
                assert!(!timing, "{what} has the wall-clock or per-run key {k:?}");
            }
        }
    }
}

//! Perf trajectory: diff a fresh `scale` run against a committed
//! baseline (`BENCH_scale.json`) and flag regressions.
//!
//! The record has two kinds of metric, diffed differently:
//!
//! - **Deterministic counts** (executions, the scheduler's hand-off
//!   wake-ups and their ratio to steps, executions-to-counterexample per
//!   mutant × strategy): the determinism contract says these are
//!   pure functions of the configuration. Any change is *drift* — a
//!   behaviour change, not noise — and is always flagged, with a note to
//!   refresh the baseline if the change was intentional.
//! - **Wall-clock rates** (execs/sec, WAL overhead): machine- and
//!   load-dependent, compared against [`Thresholds`] generous enough to
//!   hold on a noisy 1-CPU CI runner.
//!
//! Rows are matched by worker count, so CI can run a subset of the
//! baseline's pool sizes (`scale patterns/wal 1 2 --baseline … --diff`)
//! against a full committed record. The baseline's [`EnvStamp`] is
//! compared and mismatches (different rustc, strategy) are reported as
//! warnings, never silently ignored.

use perennial_checker::EnvStamp;
use serde_json::{Map, Value};
use std::fmt::Write as _;

/// Version of the `BENCH_scale.json` record layout. Bump when the
/// record's shape changes incompatibly; the differ warns on mismatch.
pub const SCALE_SCHEMA_VERSION: u64 = 1;

/// Noise tolerances for the wall-clock metrics. Defaults are generous
/// (CI shares cores): an execs/sec *drop* beyond `execs_per_sec_drop`
/// (0.6 = 60%) or a WAL overhead *increase* beyond `overhead_slack`
/// (absolute, 0.25 = 25 points) is a regression. Deterministic-count
/// drift ignores thresholds entirely.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    pub execs_per_sec_drop: f64,
    pub overhead_slack: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            execs_per_sec_drop: 0.6,
            overhead_slack: 0.25,
        }
    }
}

/// One metric's baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Metric path, e.g. `schedule_exploration[workers=2].execs_per_sec`.
    pub metric: String,
    pub baseline: f64,
    pub current: f64,
    /// Relative change `(current - baseline) / baseline` (0 when the
    /// baseline is 0 and the values agree).
    pub rel: f64,
    pub regression: bool,
    /// Why this is (or is not) a regression.
    pub note: String,
}

/// The full diff: per-metric deltas plus environment warnings.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    pub deltas: Vec<Delta>,
    /// Baseline/current environment or schema mismatches (informative).
    pub warnings: Vec<String>,
}

impl DiffReport {
    pub fn regressed(&self) -> bool {
        self.deltas.iter().any(|d| d.regression)
    }
}

fn obj<'a>(v: &'a Value, what: &str) -> Result<&'a Map, String> {
    match v {
        Value::Object(m) => Ok(m),
        _ => Err(format!("{what}: expected a JSON object")),
    }
}

fn num(m: &Map, k: &str) -> Option<f64> {
    match m.get(k) {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

fn rel_change(base: f64, cur: f64) -> f64 {
    if base == 0.0 {
        if cur == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cur - base) / base
    }
}

/// A deterministic count: any difference is drift and always flags.
fn drift_delta(metric: &str, base: f64, cur: f64) -> Delta {
    let changed = base != cur;
    Delta {
        metric: metric.to_string(),
        baseline: base,
        current: cur,
        rel: rel_change(base, cur),
        regression: changed,
        note: if changed {
            "deterministic count changed — behaviour drift; refresh the baseline if intentional"
                .to_string()
        } else {
            "deterministic count unchanged".to_string()
        },
    }
}

/// A wall-clock rate where *lower* current is the regression direction.
fn rate_delta(metric: &str, base: f64, cur: f64, max_drop: f64) -> Delta {
    let rel = rel_change(base, cur);
    let regression = rel < -max_drop;
    Delta {
        metric: metric.to_string(),
        baseline: base,
        current: cur,
        rel,
        regression,
        note: format!(
            "allowed drop {:.0}%{}",
            max_drop * 100.0,
            if regression { " EXCEEDED" } else { "" }
        ),
    }
}

/// Indexes a `schedule_exploration`-style row array by worker count.
fn rows_by_workers(v: &Value, what: &str) -> Result<Vec<(u64, Map)>, String> {
    let Value::Array(rows) = v else {
        return Err(format!("{what}: expected an array of rows"));
    };
    let mut out = Vec::new();
    for row in rows {
        let m = obj(row, what)?;
        let Some(w) = num(m, "workers") else {
            return Err(format!("{what}: row without a workers field"));
        };
        out.push((w as u64, m.clone()));
    }
    Ok(out)
}

fn diff_scaling_series(
    section: &str,
    base: &Value,
    cur: &Value,
    t: &Thresholds,
    out: &mut DiffReport,
) -> Result<(), String> {
    let base_rows = rows_by_workers(base, section)?;
    let cur_rows = rows_by_workers(cur, section)?;
    for (w, c) in &cur_rows {
        let Some((_, b)) = base_rows.iter().find(|(bw, _)| bw == w) else {
            out.warnings.push(format!(
                "{section}: baseline has no workers={w} row; skipped"
            ));
            continue;
        };
        if let (Some(be), Some(ce)) = (num(b, "executions"), num(c, "executions")) {
            out.deltas.push(drift_delta(
                &format!("{section}[workers={w}].executions"),
                be,
                ce,
            ));
        }
        // A baseline from before the field existed has nothing to drift
        // from.
        if let (Some(bw), Some(cw)) = (num(b, "wakeups"), num(c, "wakeups")) {
            out.deltas.push(drift_delta(
                &format!("{section}[workers={w}].wakeups"),
                bw,
                cw,
            ));
        }
        if let (Some(br), Some(cr)) = (num(b, "execs_per_sec"), num(c, "execs_per_sec")) {
            out.deltas.push(rate_delta(
                &format!("{section}[workers={w}].execs_per_sec"),
                br,
                cr,
                t.execs_per_sec_drop,
            ));
        }
    }
    Ok(())
}

fn diff_reduction(base: &Value, cur: &Value, out: &mut DiffReport) -> Result<(), String> {
    let b = obj(base, "strategy_reduction")?;
    let c = obj(cur, "strategy_reduction")?;
    let (Some(Value::Array(b_mut)), Some(Value::Array(c_mut))) =
        (b.get("mutants"), c.get("mutants"))
    else {
        return Err("strategy_reduction: missing mutants array".to_string());
    };
    for cm in c_mut {
        let cm = obj(cm, "mutant")?;
        let Some(Value::String(name)) = cm.get("scenario") else {
            continue;
        };
        let Some(bm) = b_mut.iter().find_map(|v| match v {
            Value::Object(m) if m.get("scenario") == Some(&Value::String(name.clone())) => Some(m),
            _ => None,
        }) else {
            out.warnings.push(format!(
                "strategy_reduction: baseline lacks mutant {name:?}; skipped"
            ));
            continue;
        };
        // Executions-to-counterexample is deterministic per strategy.
        for strat in ["exhaustive", "sleep_set_dpor", "coverage_guided"] {
            let (Some(Value::Object(bc)), Some(Value::Object(cc))) = (bm.get(strat), cm.get(strat))
            else {
                continue;
            };
            if let (Some(be), Some(ce)) = (num(bc, "executions"), num(cc, "executions")) {
                out.deltas.push(drift_delta(
                    &format!("strategy_reduction[{name}].{strat}.executions"),
                    be,
                    ce,
                ));
            }
        }
    }
    Ok(())
}

fn diff_resume(
    base: &Value,
    cur: &Value,
    t: &Thresholds,
    out: &mut DiffReport,
) -> Result<(), String> {
    let b = obj(base, "resume_overhead")?;
    let c = obj(cur, "resume_overhead")?;
    if let (Some(be), Some(ce)) = (num(b, "executions"), num(c, "executions")) {
        out.deltas
            .push(drift_delta("resume_overhead.executions", be, ce));
    }
    if let (Some(bo), Some(co)) = (num(b, "wal_overhead"), num(c, "wal_overhead")) {
        let regression = co > bo + t.overhead_slack;
        out.deltas.push(Delta {
            metric: "resume_overhead.wal_overhead".to_string(),
            baseline: bo,
            current: co,
            rel: rel_change(bo, co),
            regression,
            note: format!(
                "allowed absolute increase {:.2}{}",
                t.overhead_slack,
                if regression { " EXCEEDED" } else { "" }
            ),
        });
    }
    if matches!(c.get("fingerprints_match"), Some(Value::Bool(false))) {
        out.deltas.push(Delta {
            metric: "resume_overhead.fingerprints_match".to_string(),
            baseline: 1.0,
            current: 0.0,
            rel: -1.0,
            regression: true,
            note: "cold/walled/resumed fingerprints diverged".to_string(),
        });
    }
    Ok(())
}

/// Diffs a fresh `scale --json` record against a baseline. Errors mean
/// the records are structurally incomparable (different scenario,
/// missing sections); regressions live in the returned report.
pub fn diff_scale(baseline: &Value, current: &Value, t: &Thresholds) -> Result<DiffReport, String> {
    let b = obj(baseline, "baseline")?;
    let c = obj(current, "current")?;
    let mut out = DiffReport::default();

    match (b.get("scenario"), c.get("scenario")) {
        (Some(Value::String(bs)), Some(Value::String(cs))) if bs != cs => {
            return Err(format!(
                "scenario mismatch: baseline {bs:?} vs current {cs:?}"
            ));
        }
        _ => {}
    }
    let bv = num(b, "schema_version").unwrap_or(0.0) as u64;
    let cv = num(c, "schema_version").unwrap_or(0.0) as u64;
    if bv != cv {
        out.warnings.push(format!(
            "schema_version mismatch: baseline {bv} vs current {cv}"
        ));
    }
    match (
        b.get("env").and_then(EnvStamp::from_json),
        c.get("env").and_then(EnvStamp::from_json),
    ) {
        (Some(be), Some(ce)) => {
            if be.rustc != ce.rustc {
                out.warnings
                    .push(format!("rustc differs: {:?} vs {:?}", be.rustc, ce.rustc));
            }
            if be.strategy != ce.strategy {
                out.warnings.push(format!(
                    "strategy differs: {:?} vs {:?}",
                    be.strategy, ce.strategy
                ));
            }
        }
        _ => out
            .warnings
            .push("env stamp missing from baseline or current record".to_string()),
    }

    if let (Some(bw), Some(cw)) = (num(b, "wakeups_per_step"), num(c, "wakeups_per_step")) {
        out.deltas.push(drift_delta("wakeups_per_step", bw, cw));
    }
    for section in ["schedule_exploration", "fault_exploration"] {
        match (b.get(section), c.get(section)) {
            (Some(bs), Some(cs)) => diff_scaling_series(section, bs, cs, t, &mut out)?,
            _ => out.warnings.push(format!("{section}: missing; skipped")),
        }
    }
    if let (Some(bs), Some(cs)) = (b.get("strategy_reduction"), c.get("strategy_reduction")) {
        diff_reduction(bs, cs, &mut out)?;
    } else {
        out.warnings
            .push("strategy_reduction: missing; skipped".to_string());
    }
    if let (Some(bs), Some(cs)) = (b.get("resume_overhead"), c.get("resume_overhead")) {
        diff_resume(bs, cs, t, &mut out)?;
    } else {
        out.warnings
            .push("resume_overhead: missing; skipped".to_string());
    }
    Ok(out)
}

/// Renders the diff as a table, regressions marked.
pub fn render_diff(d: &DiffReport) -> String {
    let mut out = String::new();
    writeln!(out, "PERF DIFF vs baseline").unwrap();
    for w in &d.warnings {
        writeln!(out, "  warning: {w}").unwrap();
    }
    for delta in &d.deltas {
        let rel = if delta.rel.is_infinite() {
            "   inf".to_string()
        } else {
            format!("{:>+5.1}%", delta.rel * 100.0)
        };
        writeln!(
            out,
            "  {} {:<56} {:>12.2} -> {:>12.2}  {rel}  ({})",
            if delta.regression {
                "REGRESSION"
            } else {
                "        ok"
            },
            delta.metric,
            delta.baseline,
            delta.current,
            delta.note,
        )
        .unwrap();
    }
    writeln!(
        out,
        "  {} metric(s) compared, {} regression(s)",
        d.deltas.len(),
        d.deltas.iter().filter(|d| d.regression).count()
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// A minimal but complete record, as `scale --json` writes it.
    /// (Built through the parser — the shim's `json!` macro does not
    /// take object literals inside arrays.)
    fn record(execs: u64, rate: f64, overhead: f64, dpor_execs: u64) -> Value {
        serde_json::from_str(&format!(
            r#"{{
                "schema_version": {SCALE_SCHEMA_VERSION},
                "scenario": "patterns/wal",
                "env": {{
                    "rustc": "rustc 1.99.0",
                    "crate_version": "0.1.0",
                    "workers": 2,
                    "strategy": "exhaustive"
                }},
                "schedule_exploration": [
                    {{ "workers": 1, "executions": {execs}, "execs_per_sec": {rate} }},
                    {{ "workers": 2, "executions": {execs}, "execs_per_sec": {double_rate} }}
                ],
                "fault_exploration": [
                    {{ "workers": 1, "executions": {fault_execs}, "execs_per_sec": {rate} }}
                ],
                "strategy_reduction": {{
                    "mutants": [
                        {{
                            "scenario": "kv/mutant",
                            "exhaustive": {{ "executions": 100 }},
                            "sleep_set_dpor": {{ "executions": {dpor_execs} }},
                            "coverage_guided": {{ "executions": 30 }}
                        }}
                    ]
                }},
                "resume_overhead": {{
                    "executions": {execs},
                    "wal_overhead": {overhead},
                    "fingerprints_match": true
                }}
            }}"#,
            double_rate = rate * 1.8,
            fault_execs = execs * 2,
        ))
        .unwrap()
    }

    #[test]
    fn identical_records_do_not_regress() {
        let r = record(500, 1000.0, 0.02, 40);
        let d = diff_scale(&r, &r, &Thresholds::default()).unwrap();
        assert!(!d.regressed(), "{:?}", d.deltas);
        assert!(d.warnings.is_empty(), "{:?}", d.warnings);
        assert!(!d.deltas.is_empty());
    }

    #[test]
    fn throughput_noise_inside_the_threshold_passes() {
        let base = record(500, 1000.0, 0.02, 40);
        let cur = record(500, 600.0, 0.02, 40); // 40% drop < 60% allowed
        let d = diff_scale(&base, &cur, &Thresholds::default()).unwrap();
        assert!(!d.regressed(), "{}", render_diff(&d));
    }

    #[test]
    fn doctored_baseline_throughput_flags_a_regression() {
        // The baseline claims 10x the throughput the current run gets.
        let base = record(500, 10_000.0, 0.02, 40);
        let cur = record(500, 500.0, 0.02, 40);
        let d = diff_scale(&base, &cur, &Thresholds::default()).unwrap();
        assert!(d.regressed());
        let text = render_diff(&d);
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("execs_per_sec"), "{text}");
    }

    #[test]
    fn deterministic_drift_always_flags() {
        let base = record(500, 1000.0, 0.02, 40);
        let cur = record(501, 1000.0, 0.02, 40); // one extra execution
        let d = diff_scale(&base, &cur, &Thresholds::default()).unwrap();
        assert!(d.regressed());
        assert!(render_diff(&d).contains("refresh the baseline"));
    }

    #[test]
    fn a_changed_hand_off_count_is_drift() {
        let with_wakeups = |per_step: f64| {
            let mut r = record(500, 1000.0, 0.02, 40);
            if let Value::Object(m) = &mut r {
                m.insert("wakeups_per_step".into(), json!(per_step));
            }
            r
        };
        let base = with_wakeups(0.4375);
        let same = diff_scale(&base, &with_wakeups(0.4375), &Thresholds::default()).unwrap();
        assert!(!same.regressed(), "{}", render_diff(&same));
        // Every step going back through the controller again.
        let d = diff_scale(&base, &with_wakeups(2.0), &Thresholds::default()).unwrap();
        assert!(d.regressed());
        assert!(render_diff(&d).contains("wakeups_per_step"));
        // A baseline from before the field: nothing to compare.
        let old = record(500, 1000.0, 0.02, 40);
        let d = diff_scale(&old, &with_wakeups(0.4375), &Thresholds::default()).unwrap();
        assert!(!d.regressed(), "{}", render_diff(&d));
    }

    #[test]
    fn executions_to_counterexample_growth_flags() {
        let base = record(500, 1000.0, 0.02, 40);
        let cur = record(500, 1000.0, 0.02, 80); // DPOR got twice as slow
        let d = diff_scale(&base, &cur, &Thresholds::default()).unwrap();
        assert!(d.regressed());
        assert!(render_diff(&d).contains("sleep_set_dpor"));
    }

    #[test]
    fn wal_overhead_blowup_flags() {
        let base = record(500, 1000.0, 0.02, 40);
        let cur = record(500, 1000.0, 0.40, 40); // 2% -> 40% overhead
        let d = diff_scale(&base, &cur, &Thresholds::default()).unwrap();
        assert!(d.regressed());
        assert!(render_diff(&d).contains("wal_overhead"));
    }

    #[test]
    fn subset_of_worker_counts_diffs_against_a_full_baseline() {
        let base = record(500, 1000.0, 0.02, 40);
        let mut cur = record(500, 1000.0, 0.02, 40);
        // Current run only measured workers=1.
        if let Value::Object(m) = &mut cur {
            if let Some(Value::Array(rows)) = m.get_mut("schedule_exploration") {
                rows.truncate(1);
            }
        }
        let d = diff_scale(&base, &cur, &Thresholds::default()).unwrap();
        assert!(!d.regressed(), "{}", render_diff(&d));
    }

    #[test]
    fn scenario_mismatch_is_an_error_and_env_mismatch_a_warning() {
        let base = record(500, 1000.0, 0.02, 40);
        let mut other = record(500, 1000.0, 0.02, 40);
        if let Value::Object(m) = &mut other {
            m.insert("scenario".into(), json!("kv/other"));
        }
        assert!(diff_scale(&base, &other, &Thresholds::default()).is_err());

        let mut newer = record(500, 1000.0, 0.02, 40);
        if let Value::Object(m) = &mut newer {
            if let Some(Value::Object(env)) = m.get_mut("env") {
                env.insert("rustc".into(), json!("rustc 2.0.0"));
            }
        }
        let d = diff_scale(&base, &newer, &Thresholds::default()).unwrap();
        assert!(
            d.warnings.iter().any(|w| w.contains("rustc")),
            "{:?}",
            d.warnings
        );
    }
}

//! Human-readable text: every report, summary, profile, dashboard and
//! explain timeline a reader sees, drawn from the records the other
//! modules define (DESIGN.md §14). Nothing here feeds a fingerprint, a
//! stream or a JSON format, so only these words change when the text
//! does.
//!
//! Two shapes are drawn once each. The per-scenario line is
//! [`CheckReport::summary`]: totals, rate and verdict, and on a FAIL the
//! counterexample's coordinates. The per-pass table is `pass_table`:
//! one row per pass with its executions, steps, share of the steps, the
//! counters it has and its busy time. Its rows are [`PassMetrics`], from
//! one fold: the report's `per_pass` for the summary and failure footer,
//! the same rows as the profile's `passes`, and for the dashboard the
//! stream's `exec_done` records folded alike.

use crate::dashboard::{Dashboard, ScenarioDash};
use crate::explore::{CheckReport, ExecOutcome};
use crate::json::hex64;
use crate::metrics::{Coverage, FaultFamily, Histogram, OutcomeCounts, PassMetrics};
use crate::profile::Profile;
use crate::telemetry::RunEnd;
use goose_rt::trace::{ExecTrace, TraceEvent};
use std::fmt::Write as _;

/// Widest an explain column gets before labels are truncated with `…`.
const MAX_COL: usize = 34;

/// The explain grid caps out here; busier traces fall back to a flat
/// one-event-per-line listing that stays readable at any thread count.
const MAX_GRID_THREADS: usize = 6;

/// The verdict word of a report.
fn verdict(report: &CheckReport) -> &'static str {
    if report.passed() {
        "PASS"
    } else {
        "FAIL"
    }
}

impl CheckReport {
    /// The per-scenario line: totals, rate and verdict. A FAIL carries
    /// its counterexample's coordinates, with the compact fault schedule
    /// of one found by a fault pass, e.g.
    /// `[disk-fault-sweep @ crash [5] faults d1@5]`.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{}: {} executions, {} steps, {} crashes over {} crash points",
            self.name, self.executions, self.total_steps, self.crashes_injected, self.crash_points
        );
        if self.fault_plans > 0 {
            let _ = write!(out, ", {} fault plans", self.fault_plans);
        }
        let _ = write!(
            out,
            ", {} helped ops, {:.0} execs/s on {} workers",
            self.helped_ops, self.execs_per_sec, self.workers
        );
        if let Some((i, n)) = self.shard {
            let _ = write!(out, " [shard {i}/{n}]");
        }
        let _ = write!(out, " — {}", verdict(self));
        if let Some(cx) = &self.counterexample {
            let _ = write!(out, " [{} @ crash {:?}", cx.pass, cx.crash_points);
            if !cx.faults.is_empty() {
                let _ = write!(out, " faults {}", cx.faults.compact());
            }
            out.push(']');
        }
        if self.is_incomplete() {
            out.push_str(" (INCOMPLETE)");
        }
        out
    }
}

/// The per-pass table, under `heading` (nothing at all without rows):
/// each pass's executions, steps and share of the steps (a percentage
/// and a bar of 24), its non-zero counters, and its busy time.
fn pass_table(out: &mut String, heading: &str, rows: &[PassMetrics]) {
    if rows.is_empty() {
        return;
    }
    let total: u64 = rows.iter().map(|r| r.steps).sum();
    let _ = writeln!(out, "{heading}");
    for r in rows {
        let share = r.steps as f64 / total.max(1) as f64;
        let bar = "#".repeat((24.0 * share).round() as usize);
        let counts = [
            (r.crashes, "crashes"),
            (r.fault_plans, "fault plans"),
            (r.pruned, "pruned"),
            (r.coverage_guided, "guided"),
            (r.wakeups, "wake-ups"),
            (r.lock_blocks, "blocks"),
            (r.disk_ops, "disk ops"),
            (r.net_msgs, "net msgs"),
            (r.model_ops, "model ops"),
            (r.failures, "FAILURES"),
        ];
        let mut notes = String::new();
        for (n, unit) in counts.iter().filter(|(n, _)| *n > 0) {
            let _ = write!(notes, "{n} {unit}, ");
        }
        let _ = writeln!(
            out,
            "    {:<18} {:>7} execs {:>10} steps  {:>3.0}% {bar:<24}  ({notes}{:.3}s busy)",
            r.pass,
            r.executions,
            r.steps,
            100.0 * share,
            r.busy_time.as_secs_f64(),
        );
    }
}

/// A `Label           : value` line of the summary and failure report.
fn field(out: &mut String, label: &str, value: impl std::fmt::Display) {
    let _ = writeln!(out, "{label:<16}: {value}");
}

/// The footer the summary and the failure report share: the overall
/// rate, then the per-pass table.
fn pass_footer(out: &mut String, report: &CheckReport) {
    let (rate, wall) = (report.execs_per_sec, report.wall_time.as_secs_f64());
    let throughput = format!(
        "{rate:.0} execs/s on {} workers ({wall:.3}s wall)",
        report.workers
    );
    field(out, "Throughput", throughput);
    pass_table(out, "Per pass        : (share of steps)", &report.per_pass);
}

/// `ok=120 deadlock=2`, zero buckets left out.
fn outcomes_line(counts: &OutcomeCounts) -> String {
    let parts: Vec<String> = (counts.entries().iter())
        .filter(|(_, n)| *n > 0)
        .map(|(name, n)| format!("{name}={n}"))
        .collect();
    if parts.is_empty() {
        "(none)".to_string()
    } else {
        parts.join(" ")
    }
}

/// `0:3 1:5 2-3:9 4-7:21 (mean 5.2, max 7)`.
fn histogram_line(h: &Histogram) -> String {
    if h.count() == 0 {
        return "(empty)".to_string();
    }
    let buckets: Vec<String> = (h.buckets().into_iter())
        .map(|(lo, hi, n)| {
            if lo == hi {
                format!("{lo}:{n}")
            } else {
                format!("{lo}-{hi}:{n}")
            }
        })
        .collect();
    format!(
        "{} (mean {:.1}, max {})",
        buckets.join(" "),
        h.mean(),
        h.max()
    )
}

fn coverage_lines(out: &mut String, c: &Coverage) {
    // Exercised counts every pass's crash points (nested and random
    // ones too); the sweep enumerates the crash sweep's alone.
    let _ = writeln!(
        out,
        "  crash points   : {} distinct, {} in the crash sweep",
        c.crash_points_exercised, c.crash_points_enumerable,
    );
    let surfaces: Vec<String> = (FaultFamily::ALL.into_iter())
        .zip(c.plans_exercised.into_iter().zip(c.plans_enumerable))
        .filter(|(_, (_, total))| *total > 0)
        .map(|(family, (done, total))| format!("{} {done}/{total}", family.name()))
        .collect();
    let _ = write!(
        out,
        "  fault plans    : {}/{} exercised ({:.0}%)",
        c.fault_plans_exercised(),
        c.fault_plans_enumerable(),
        100.0 * c.fault_plan_ratio(),
    );
    if !surfaces.is_empty() {
        let _ = write!(out, " [{}]", surfaces.join(", "));
    }
    let _ = writeln!(
        out,
        "\n  ghost traces   : {} distinct fingerprints",
        c.distinct_traces
    );
}

/// Renders the full run summary — the passing-run counterpart of
/// [`render_failure`], and available for a failing run too.
pub fn render_summary(report: &CheckReport) -> String {
    let mut out = format!("{}: {}\n", verdict(report), report.name);
    let (executions, steps) = (report.executions, report.total_steps);
    field(
        &mut out,
        "Executions",
        format!("{executions} ({steps} steps total)"),
    );
    if !report.strategy.is_empty() {
        let mut strategy = report.strategy.clone();
        if report.pruned > 0 {
            let _ = write!(strategy, " ({} schedules pruned)", report.pruned);
        }
        if report.coverage_guided > 0 {
            let _ = write!(strategy, " ({} coverage-guided)", report.coverage_guided);
        }
        field(&mut out, "Strategy", strategy);
    }
    if report.is_incomplete() {
        field(&mut out, "INCOMPLETE", report.incomplete.join("; "));
    }
    if let Some((i, n)) = report.shard {
        field(&mut out, "Shard", format!("{i}/{n}"));
    }
    if report.replayed > 0 {
        let replayed = format!("{} executions replayed from the WAL", report.replayed);
        field(&mut out, "Resumed", replayed);
    }
    field(&mut out, "Outcomes", outcomes_line(&report.outcomes));
    field(&mut out, "Steps/exec", histogram_line(&report.steps_hist));
    field(
        &mut out,
        "Schedule depth",
        histogram_line(&report.depth_hist),
    );
    let disk = [report.disk_reads, report.disk_writes, report.disk_flushes];
    let net = [report.net_sends, report.net_recvs];
    if disk.iter().chain(&net).any(|&n| n > 0) {
        let ([reads, writes, flushes], [sends, recvs]) = (disk, net);
        field(
            &mut out,
            "Model ops",
            format!("disk {reads}r/{writes}w/{flushes}f, net {sends}s/{recvs}r"),
        );
    }
    pass_footer(&mut out, report);
    let _ = writeln!(out, "Coverage        :");
    coverage_lines(&mut out, &report.coverage);
    out
}

/// Renders a full failure report for a scenario, or `None` if every
/// explored execution passed.
pub fn render_failure(report: &CheckReport) -> Option<String> {
    let cx = report.counterexample.as_ref()?;
    let mut out = format!("VERIFICATION FAILED: {}\n", report.name);
    let _ = writeln!(out, "{}\n", describe_outcome(&cx.outcome));
    let found = format!("{} (execution #{})", cx.pass, cx.index);
    field(&mut out, "Found in pass", found);
    // The unit is defined on `Counterexample::crash_points`: absolute
    // grant counts, where an injected crash consumes one count.
    let crash = if cx.crash_points.is_empty() {
        "none (crash-free execution)".to_string()
    } else {
        format!(
            "at absolute grant count(s) {:?} (crash k fires before the (k+1)-th grant; \
             a crash consumes one count)",
            cx.crash_points
        )
    };
    field(&mut out, "Crash injection", crash);
    if !cx.faults.is_empty() {
        field(&mut out, "Fault injection", cx.faults.describe());
    }
    if !cx.schedule_prefix.is_empty() {
        let prefix = format!(
            "{:?} (choice indices; replay with checker::replay)",
            cx.schedule_prefix
        );
        field(&mut out, "Schedule prefix", prefix);
    }
    if !cx.clamped.is_empty() {
        let note = format!(
            "DFS prefix clamped at decision depth(s) {:?} — the prefix asked for a choice \
             index beyond the runnable count and was clamped to the last runnable thread",
            cx.clamped
        );
        field(&mut out, "Schedule note", note);
    }
    if let Some(s) = &report.shrink {
        let shrunk = format!(
            "removed {} step(s) in {} round(s) over {} re-run(s); the schedule/crash/fault \
             coordinates above are the minimized ones (fingerprint-preserving, DESIGN.md \u{a7}16)",
            s.steps_removed, s.rounds, s.re_runs
        );
        field(&mut out, "Shrinking", shrunk);
    }
    let _ = writeln!(out, "\nSpec-level trace up to the failure:");
    if cx.trace.is_empty() {
        let _ = writeln!(out, "  (no ghost events recorded)");
    } else {
        out.push_str(&cx.trace);
    }
    if let Some(timeline) = &cx.timeline {
        let _ = writeln!(out, "\nCausal explain timeline:");
        out.push_str(&render_explain(timeline));
    }
    let _ = writeln!(
        out,
        "\nExplored before failing: {} executions, {} steps, {} injected crashes.",
        report.executions, report.total_steps, report.crashes_injected
    );
    pass_footer(&mut out, report);
    Some(out)
}

/// One-paragraph description of what an outcome means.
pub fn describe_outcome(outcome: &ExecOutcome) -> String {
    match outcome {
        ExecOutcome::Ok => "No failure: the execution satisfied every obligation.".to_string(),
        ExecOutcome::Violation(e) => format!(
            "Ghost capability discipline violated: {e}\n\
             (a Table 1 rule failed — the runtime analog of a proof\n\
             obligation that would not typecheck in Coq)"
        ),
        ExecOutcome::Ub(msg) => format!(
            "Modelled undefined behaviour: {msg}\n\
             (the caller broke a spec precondition — racy shared-memory\n\
             access or iterator invalidation, §6.1 of the paper)"
        ),
        ExecOutcome::Bug(msg) => format!(
            "Plain panic in the code under test: {msg}\n\
             (an assertion or unwrap failed — a bug independent of the\n\
             refinement machinery)"
        ),
        ExecOutcome::Deadlock => "Deadlock: no thread is runnable but work remains \
             (blocked lock cycle)."
            .to_string(),
        ExecOutcome::FinalCheckFailed(msg) => format!(
            "Final-state predicate failed: {msg}\n\
             (the abstraction relation between physical state and\n\
             source(σ) does not hold at quiescence)"
        ),
        ExecOutcome::Wedged(budget) => format!(
            "Wedged: the execution exhausted its step budget of {budget}\n\
             (no progress toward quiescence — a livelock, an unbounded\n\
             retry loop, or a budget set too low for the scenario)"
        ),
        ExecOutcome::HarnessPanic(msg) => format!(
            "Harness panicked outside the modelled execution: {msg}\n\
             (a bug in the scenario's boot/recovery/final-check code, not\n\
             in the code under test; the campaign records it and goes on)"
        ),
    }
}

/// Renders a profile's hotspot view.
pub fn render_profile(p: &Profile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "PROFILE — {} (strategy {})",
        p.scenario, p.strategy.strategy
    );
    pass_table(&mut out, "  per-pass cost (share of steps):", &p.passes);
    // A forked crash job runs only what follows its crash, so the rate
    // is over the steps this process executed, not the logical ones.
    let wakeups: u64 = p.passes.iter().map(|pm| pm.wakeups).sum();
    let steps_run: u64 = p.passes.iter().map(|pm| pm.steps_run).sum();
    let _ = writeln!(
        out,
        "  hand-offs: {wakeups} OS wake-ups over {steps_run} executed steps ({:.2} per step)",
        wakeups as f64 / steps_run.max(1) as f64
    );
    if !p.resources.is_empty() {
        let _ = writeln!(out, "  contended resources (top {}):", p.resources.len());
        for r in &p.resources {
            let _ = writeln!(
                out,
                "    {:<10} {}  {:>6} blocks  {:>6} collisions  {:>6} prunes",
                r.kind,
                hex64(r.resource),
                r.lock_blocks,
                r.collisions,
                r.prunes,
            );
        }
        if p.resources_dropped > 0 {
            let _ = writeln!(out, "    (+{} more below the cut)", p.resources_dropped);
        }
    }
    let _ = writeln!(
        out,
        "  strategy: {} pruned, {} coverage-guided",
        p.strategy.pruned, p.strategy.coverage_guided
    );
    if let Some(c) = &p.strategy.coverage {
        let _ = writeln!(
            out,
            "    corpus: {} hits, {} evictions, {} saturated waves",
            c.corpus_hits, c.corpus_evictions, c.saturated_waves
        );
    }
    let _ = writeln!(
        out,
        "  workers: {} × {:.3}s wall, {:.3}s busy — {:.0}% utilized",
        p.workers.workers,
        p.workers.wall_us as f64 / 1e6,
        p.workers.busy_us as f64 / 1e6,
        100.0 * p.workers.utilization(),
    );
    out
}

/// Renders the merged campaign dashboard.
pub fn render_dashboard(d: &Dashboard) -> String {
    let mut out = String::new();
    let runs: Vec<(&String, &ScenarioDash, RunEnd)> = (d.scenarios.iter())
        .map(|(name, s)| (name, s, s.merged()))
        .collect();
    let sum = |total: fn(&RunEnd) -> u64| -> u64 { runs.iter().map(|(.., run)| total(run)).sum() };
    let failing = runs.iter().filter(|(.., run)| !run.passed).count();
    let _ = writeln!(
        out,
        "CAMPAIGN DASHBOARD\n  {} scenarios from {} streams — {} executions, {} steps, \
         {} counterexamples in {failing} failing scenarios",
        d.scenarios.len(),
        d.streams,
        sum(|run| run.report.executions as u64),
        sum(|run| run.report.total_steps),
        sum(|run| run.counterexamples),
    );
    if d.torn_lines > 0 {
        let _ = writeln!(out, "  ({} torn lines skipped)", d.torn_lines);
    }
    let name_w = d
        .scenarios
        .keys()
        .map(String::len)
        .max()
        .unwrap_or(8)
        .max(8);
    // Crash coverage uses the same unit `render_failure()` reports:
    // absolute grant counts from the start of the execution, not
    // per-pass offsets.
    let _ = writeln!(
        out,
        "\n  outcome grid ('.' shard passed, 'X' failed, '!' incomplete; \
         crash a, b = distinct absolute-grant-count crash points exercised by any pass, \
         and those the crash sweep enumerates; fault c/d = fault plans):"
    );
    for (name, s, run) in &runs {
        let grid: String = (s.shards.values())
            .map(|shard| match (shard.passed, shard.report.is_incomplete()) {
                (false, _) => 'X',
                (true, true) => '!',
                (true, false) => '.',
            })
            .collect();
        let (r, c) = (&run.report, &run.report.coverage);
        let _ = writeln!(
            out,
            "    {name:<name_w$}  [{grid:<4}]  {:>7} execs  {:>9} steps  {:>2} cx  \
             crash {} distinct, {} in the sweep  fault {}/{}",
            r.executions,
            r.total_steps,
            run.counterexamples,
            c.crash_points_exercised,
            c.crash_points_enumerable,
            c.fault_plans_exercised(),
            c.fault_plans_enumerable(),
        );
    }
    let heading = "\n  per-pass wall profile (share of steps; busy time of the executions):";
    pass_table(&mut out, heading, &d.passes());
    let mut slowest: Vec<(&String, f64)> = (runs.iter())
        .map(|(name, _, run)| (*name, run.report.wall_time.as_secs_f64()))
        .collect();
    slowest.sort_by(|a, b| b.1.total_cmp(&a.1));
    let _ = writeln!(out, "\n  slowest scenarios:");
    for (name, wall) in slowest.iter().take(5) {
        let _ = writeln!(out, "    {wall:>8.3}s  {name}");
    }
    let _ = writeln!(
        out,
        "\n  pruning: {} schedules pruned; {} executions replayed from WALs",
        sum(|run| run.report.pruned),
        sum(|run| run.report.replayed),
    );
    out
}

fn truncate(label: &str, width: usize) -> String {
    if label.chars().count() <= width {
        return label.to_string();
    }
    let mut out: String = label.chars().take(width.saturating_sub(1)).collect();
    out.push('…');
    out
}

fn thread_header(tid: usize, name: &str) -> String {
    format!("t{tid}:{name}")
}

fn edge_note(ev: &TraceEvent) -> String {
    match ev.happens_after {
        Some(src) => format!("  ←{src}"),
        None => String::new(),
    }
}

/// Renders a per-thread ASCII timeline of a causal execution trace.
///
/// One row per event in global (virtual-clock) order: the left gutter is
/// the event's sequence number, thread events land in their thread's
/// column, and controller events (crash injection, torn-buffer
/// resolution) span the row as `--` banners. A `←n` suffix marks a
/// cross-thread causal edge — this event synchronises with the event at
/// seq `n` (a lock hand-off or a matched network send). A pure function
/// of the trace, so identical across worker counts and shard splits.
pub fn render_explain(trace: &ExecTrace) -> String {
    let mut out = String::new();
    if trace.events.is_empty() {
        out.push_str("  (empty trace)\n");
        return out;
    }
    let threads: Vec<String> = (trace.threads.iter().enumerate())
        .map(|(i, n)| format!("[t{i}] {n}"))
        .collect();
    let _ = writeln!(out, "  threads: {}", threads.join("  "));
    out.push_str(
        "  (←n = causally after the event at seq n: a lock hand-off or a matched net send)\n\n",
    );

    if trace.threads.len() > MAX_GRID_THREADS {
        // Flat fallback: too many threads for columns.
        for ev in &trace.events {
            let who = match ev.tid {
                Some(t) => format!("t{t}"),
                None => "--".to_string(),
            };
            let (label, edge) = (ev.kind.label(), edge_note(ev));
            let _ = writeln!(out, "  {:>5} {who:>4} {label}{edge}", ev.seq);
        }
    } else {
        // Column widths: each thread's widest label (or its header),
        // capped so spec events can't blow the grid apart.
        let mut widths: Vec<usize> = (trace.threads.iter().enumerate())
            .map(|(i, n)| thread_header(i, n).len())
            .collect();
        for ev in &trace.events {
            if let Some(w) = ev.tid.and_then(|t| widths.get_mut(t)) {
                *w = (*w).max(ev.kind.label().len() + edge_note(ev).len());
            }
        }
        for w in &mut widths {
            *w = (*w).min(MAX_COL) + 2;
        }

        let mut header = format!("  {:>5}  ", "seq");
        for (i, name) in trace.threads.iter().enumerate() {
            let h = truncate(&thread_header(i, name), widths[i]);
            let _ = write!(header, "{h:<width$}", width = widths[i]);
        }
        out.push_str(header.trim_end());
        out.push('\n');

        for ev in &trace.events {
            match ev.tid {
                Some(t) => {
                    let mut row = format!("  {:>5}  ", ev.seq);
                    for w in widths.iter().take(t.min(widths.len())) {
                        row.push_str(&" ".repeat(*w));
                    }
                    let width = widths.get(t).copied().unwrap_or(MAX_COL);
                    let label = format!("{}{}", ev.kind.label(), edge_note(ev));
                    row.push_str(&truncate(&label, width));
                    out.push_str(row.trim_end());
                    out.push('\n');
                }
                None => {
                    let _ = writeln!(out, "  {:>5}  -- {} --", ev.seq, ev.kind.label());
                }
            }
        }
    }
    if trace.truncated {
        out.push_str("  … trace truncated (event cap reached)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Counterexample;
    use crate::metrics::OutcomeKind;
    use crate::pass::Pass;
    use crate::profile::{ProfileBuilder, StrategyProfile};
    use crate::timeline::tests::sample_trace;
    use goose_rt::sched::res;
    use perennial::GhostError;

    fn failing_report() -> CheckReport {
        CheckReport {
            name: "demo scenario".into(),
            executions: 42,
            total_steps: 1234,
            crashes_injected: 7,
            crash_points: 7,
            helped_ops: 1,
            counterexample: Some(Counterexample {
                outcome: ExecOutcome::Violation(GhostError::HelpTokenMissing { key: 3 }),
                pass: Pass::CrashSweep,
                index: 5,
                seed: 0xdead_beef,
                schedule_prefix: vec![0, 1, 0],
                crash_points: vec![5],
                clamped: vec![],
                faults: goose_rt::fault::FaultPlan::default(),
                trace: "  [  0] Invoke { jid: j0, op: Write(3, 9) }\n".into(),
                timeline: None,
            }),
            ..CheckReport::default()
        }
    }

    #[test]
    fn failure_report_contains_the_essentials() {
        let r = failing_report();
        let text = render_failure(&r).expect("has counterexample");
        assert!(text.contains("VERIFICATION FAILED: demo scenario"));
        assert!(text.contains("crash-sweep"));
        assert!(text.contains("at absolute grant count(s) [5]"));
        assert!(!text.contains("at step(s)"), "old misleading unit wording");
        assert!(text.contains("helping token"));
        assert!(text.contains("Invoke"));
        assert!(text.contains("42 executions"));
    }

    #[test]
    fn clamped_dfs_prefix_is_surfaced() {
        let mut r = failing_report();
        let cx = r.counterexample.as_mut().unwrap();
        cx.pass = Pass::Dfs;
        cx.crash_points = vec![];
        cx.clamped = vec![2, 4];
        let text = render_failure(&r).expect("has counterexample");
        assert!(text.contains("clamped at decision depth(s) [2, 4]"));

        // And absent when nothing was clamped.
        let clean = render_failure(&failing_report()).unwrap();
        assert!(!clean.contains("clamped"));
    }

    #[test]
    fn passing_report_renders_nothing() {
        let r = CheckReport {
            name: "clean".into(),
            ..CheckReport::default()
        };
        assert!(render_failure(&r).is_none());
        assert!(r.summary().ends_with("— PASS"), "{}", r.summary());
    }

    #[test]
    fn summary_of_a_failure_carries_its_coordinates() {
        let line = failing_report().summary();
        assert!(line.starts_with("demo scenario: 42 executions"), "{line}");
        assert!(line.ends_with("— FAIL [crash-sweep @ crash [5]]"), "{line}");
    }

    #[test]
    fn summary_carries_compact_fault_summary() {
        let mut r = failing_report();
        let cx = r.counterexample.as_mut().unwrap();
        cx.pass = Pass::DiskFault;
        cx.faults.disk_fail = Some((1, 5));
        r.incomplete.push("budget".into());
        let line = r.summary();
        assert!(
            line.ends_with("[disk-fault-sweep @ crash [5] faults d1@5] (INCOMPLETE)"),
            "{line}"
        );
    }

    #[test]
    fn summary_renders_metrics_and_coverage() {
        let mut r = CheckReport {
            name: "clean".into(),
            executions: 3,
            total_steps: 30,
            workers: 2,
            execs_per_sec: 123.0,
            ..CheckReport::default()
        };
        for _ in 0..3 {
            r.outcomes.record(OutcomeKind::Ok);
            r.steps_hist.record(10);
            r.depth_hist.record(10);
        }
        r.per_pass.push(PassMetrics {
            pass: Pass::CrashSweep,
            rank: 3,
            executions: 3,
            steps: 30,
            crashes: 2,
            ..PassMetrics::default()
        });
        r.coverage = Coverage {
            crash_points_exercised: 2,
            crash_points_enumerable: 10,
            distinct_traces: 3,
            ..Coverage::default()
        };
        let text = render_summary(&r);
        assert!(text.starts_with("PASS: clean"), "{text}");
        assert!(text.contains("ok=3"), "{text}");
        assert!(text.contains("8-15:3 (mean 10.0, max 10)"), "{text}");
        assert!(
            text.contains("crash-sweep              3 execs         30 steps  100%"),
            "{text}"
        );
        assert!(text.contains("(2 crashes, 0.000s busy)"), "{text}");
        assert!(
            text.contains("crash points   : 2 distinct, 10 in the crash sweep\n"),
            "{text}"
        );
        assert!(text.contains("3 distinct fingerprints"), "{text}");
        assert!(text.contains("execs/s"), "{text}");
    }

    #[test]
    fn failure_report_embeds_the_explain_timeline_when_captured() {
        use goose_rt::trace::{ExecTrace, TraceEvent, TraceKind};
        let mut r = failing_report();
        r.counterexample.as_mut().unwrap().timeline = Some(ExecTrace {
            events: vec![TraceEvent {
                seq: 0,
                tid: Some(0),
                kind: TraceKind::DiskWrite { tag: 0, block: 3 },
                happens_after: None,
            }],
            threads: vec!["writer".into()],
            truncated: false,
        });
        let text = render_failure(&r).expect("has counterexample");
        assert!(text.contains("Causal explain timeline:"), "{text}");
        assert!(text.contains("disk write b3"), "{text}");

        // And the section is absent entirely when capture was off.
        let plain = render_failure(&failing_report()).unwrap();
        assert!(!plain.contains("Causal explain timeline"), "{plain}");
    }

    #[test]
    fn summary_shows_model_op_counters_only_when_nonzero() {
        let quiet = CheckReport {
            name: "quiet".into(),
            ..CheckReport::default()
        };
        assert!(!render_summary(&quiet).contains("Model ops"));

        let busy = CheckReport {
            name: "busy".into(),
            disk_reads: 4,
            disk_writes: 9,
            disk_flushes: 2,
            net_sends: 5,
            net_recvs: 5,
            ..CheckReport::default()
        };
        let text = render_summary(&busy);
        assert!(
            text.contains("Model ops       : disk 4r/9w/2f, net 5s/5r"),
            "{text}"
        );
    }

    #[test]
    fn failure_report_includes_throughput_footer() {
        let mut r = failing_report();
        r.execs_per_sec = 99.0;
        r.workers = 4;
        let text = render_failure(&r).expect("has counterexample");
        assert!(text.contains("execs/s"), "{text}");
        assert!(text.contains("4 workers"), "{text}");
    }

    #[test]
    fn outcome_descriptions_are_distinct() {
        let outcomes = [
            ExecOutcome::Ok,
            ExecOutcome::Violation(GhostError::HelpTokenMissing { key: 0 }),
            ExecOutcome::Ub("racy write".into()),
            ExecOutcome::Bug("assert failed".into()),
            ExecOutcome::Deadlock,
            ExecOutcome::FinalCheckFailed("AbsR".into()),
            ExecOutcome::Wedged(200_000),
            ExecOutcome::HarnessPanic("boot failed".into()),
        ];
        let descs: Vec<String> = outcomes.iter().map(describe_outcome).collect();
        for (i, a) in descs.iter().enumerate() {
            for b in descs.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn outcomes_and_histograms_render_on_one_line() {
        let mut c = OutcomeCounts::default();
        for kind in [OutcomeKind::Ok, OutcomeKind::Ok, OutcomeKind::Bug] {
            c.record(kind);
        }
        assert_eq!(outcomes_line(&c), "ok=2 bug=1");
        assert_eq!(outcomes_line(&OutcomeCounts::default()), "(none)");
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        let line = histogram_line(&h);
        assert!(line.starts_with("0:1 1:1 2-3:2 4-7:2"), "{line}");
        assert!(
            line.ends_with("512-1023:1 (mean 128.1, max 1000)"),
            "{line}"
        );
        assert_eq!(histogram_line(&Histogram::default()), "(empty)");
    }

    #[test]
    fn coverage_names_each_swept_fault_surface() {
        let mut c = Coverage {
            crash_points_exercised: 3,
            crash_points_enumerable: 12,
            ..Coverage::default()
        };
        c.plans_exercised[FaultFamily::Torn as usize] = 6;
        c.plans_enumerable[FaultFamily::Torn as usize] = 36;
        let mut text = String::new();
        coverage_lines(&mut text, &c);
        assert!(text.contains("3 distinct, 12 in the crash sweep"), "{text}");
        assert!(!text.contains("exercised (25%)"), "{text}");
        assert!(
            text.contains("6/36 exercised (17%) [torn 6/36]\n"),
            "{text}"
        );
    }

    fn profile(passes: &[(Pass, u64, u64)]) -> Profile {
        let per_pass = passes.iter().map(|&(pass, steps, steps_run)| PassMetrics {
            pass,
            rank: pass.rank(),
            executions: 1,
            steps,
            steps_run,
            wakeups: steps_run / 2,
            ..PassMetrics::default()
        });
        let report = CheckReport {
            per_pass: per_pass.collect(),
            ..CheckReport::default()
        };
        let mut b = ProfileBuilder::default();
        b.record_lock_profile(&[(res::LOCK | 1, 4)]);
        b.finish(&report, StrategyProfile::default())
    }

    /// A forked crash job runs only what follows its crash: the hand-off
    /// rate is over the steps executed, not the logical ones.
    #[test]
    fn hand_offs_are_counted_over_executed_steps() {
        let p = profile(&[(Pass::Dfs, 100, 100), (Pass::CrashSweep, 300, 60)]);
        let text = render_profile(&p);
        assert!(
            text.contains("hand-offs: 80 OS wake-ups over 160 executed steps (0.50 per step)"),
            "{text}"
        );
        assert!(text.contains("per-pass cost (share of steps):"), "{text}");
        assert!(text.contains("crash-sweep"), "{text}");
        assert!(text.contains(" 75% ##################"), "{text}");
        assert!(text.contains("lock       0x0100000000000001"), "{text}");
    }

    #[test]
    fn the_profile_says_what_its_resource_cut_hid() {
        let mut b = ProfileBuilder::default();
        let rows: Vec<(u64, u64)> = (0..20).map(|i| (res::LOCK | i, 20 - i)).collect();
        b.record_lock_profile(&rows);
        let p = b.finish(&CheckReport::default(), StrategyProfile::default());
        let text = render_profile(&p);
        assert!(text.contains("(+8 more below the cut)"), "{text}");
    }

    #[test]
    fn explain_places_threads_in_columns_with_edges_and_banners() {
        let text = render_explain(&sample_trace());
        assert!(text.contains("[t0] writer"), "{text}");
        assert!(text.contains("lock 1 released"), "{text}");
        assert!(text.contains("-- CRASH at step 4 --"), "{text}");
        assert!(text.contains("lock 1 acquired  ←0"), "{text}");
        // The acquire sits in t1's column, i.e. to the right of where
        // the release was printed.
        let rel = text.lines().find(|l| l.contains("released")).unwrap();
        let acq = text.lines().find(|l| l.contains("acquired")).unwrap();
        let col = |line: &str, pat: &str| line.find(pat).unwrap();
        assert!(col(acq, "lock") > col(rel, "lock"), "{text}");
    }

    #[test]
    fn explain_is_deterministic_and_marks_truncation() {
        let mut t = sample_trace();
        assert_eq!(render_explain(&t), render_explain(&t.clone()));
        t.truncated = true;
        assert!(render_explain(&t).contains("trace truncated"));
        assert!(render_explain(&ExecTrace::default()).contains("empty trace"));
    }
}

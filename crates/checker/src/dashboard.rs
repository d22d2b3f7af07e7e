//! Campaign dashboards: one merged text view over many telemetry
//! streams.
//!
//! A sharded campaign leaves behind one JSONL WAL per scenario shard
//! (see DESIGN.md §13). This module folds any number of those streams
//! into a single [`Dashboard`] — per-scenario outcome grid across
//! shards, coverage ratios, a per-pass wall-time profile (from the
//! `pass_start`/`pass_end` timing records), the slowest scenarios, and
//! pruning effectiveness — and renders it as text (`scan --dashboard`).
//! The streams are read by [`read_stream`], the reader the WAL loader
//! uses: this module knows the records' typed form, not their keys.
//!
//! Totals come from `run_end` records only. Summing `exec_done` lines
//! would double-count derivation-spine executions, which run in every
//! shard but are *counted* only by their owner; the `run_end` totals
//! already apply that rule, and [`ScenarioDash::merged`] folds shards as
//! [`merge_reports`](crate::campaign::merge_reports) does, through the
//! report counter table's folds, so dashboard totals agree with a merge
//! of the same shards. The one exception is distinct crash points: sets
//! union, counts do not, so the dashboard shows the largest shard's
//! count, a lower bound. A resumed WAL holds several
//! `run_start`/`run_end` pairs for the same shard: the last `run_end`
//! wins (it covers the whole run, replayed prefix included), while pass
//! wall times accumulate across resumes (wall-clock actually spent).

use crate::campaign::fold_totals;
use crate::pass::Pass;
use crate::profile::{bar, pct, PassCost, ProfileBuilder};
use crate::telemetry::{read_stream, ExecStats, Record, RunEnd};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// One scenario's view across every ingested stream.
#[derive(Debug, Clone, Default)]
pub struct ScenarioDash {
    /// Last `run_end` per shard (`None` for an unsharded run).
    pub shards: BTreeMap<Option<(u32, u32)>, RunEnd>,
    /// Summed `pass_end` wall time per `(rank, pass name)`.
    pub pass_wall_us: BTreeMap<(u64, String), u64>,
    /// What each `exec_done` measured, by canonical job key. Keying
    /// dedupes derivation-spine executions, which appear in every shard's
    /// stream with identical deterministic statistics — so the per-pass
    /// cost profile matches what an unsharded run would report.
    pub exec_costs: BTreeMap<(Pass, u64), ExecStats>,
}

impl ScenarioDash {
    /// The shards folded into one run: passed when every shard passed,
    /// each total as a merge of the shards' reports has it.
    pub fn merged(&self) -> RunEnd {
        let mut all = RunEnd::default();
        for run in self.shards.values() {
            all.counterexamples += run.counterexamples;
            fold_totals(&mut all.report, &run.report);
        }
        all.passed = self.shards.values().all(|run| run.passed);
        all
    }
}

/// A campaign-wide merge of telemetry streams.
#[derive(Debug, Clone, Default)]
pub struct Dashboard {
    /// Scenarios by name.
    pub scenarios: BTreeMap<String, ScenarioDash>,
    /// Streams ingested.
    pub streams: u64,
    /// Lines skipped across all streams because they were not one whole
    /// record (torn WAL tails, records short of a field).
    pub torn_lines: u64,
}

impl Dashboard {
    /// Folds one JSONL telemetry stream into the dashboard, grouped by
    /// each record's scenario stamp (the registry name the run went by).
    /// Reads through [`read_stream`], like the WAL loader: a line that is
    /// not one whole record is counted, never shown in part.
    pub fn ingest(&mut self, text: &str) {
        self.streams += 1;
        let torn_lines = read_stream(text, None, |name, record| {
            match record {
                // Last run_end per shard wins (resume appends runs).
                Record::RunEnd(run) => {
                    self.scenario(name).shards.insert(run.report.shard, run);
                }
                Record::PassEnd { pass, duration } => {
                    let key = (u64::from(pass.rank()), pass.name().to_string());
                    let wall_us = &mut self.scenario(name).pass_wall_us;
                    *wall_us.entry(key).or_insert(0) += duration.as_micros() as u64;
                }
                Record::ExecDone {
                    pass, index, stats, ..
                } => {
                    self.scenario(name).exec_costs.insert((pass, index), stats);
                }
                Record::RunStart(_) | Record::Other => {}
            }
        });
        self.torn_lines += torn_lines;
    }

    fn scenario(&mut self, name: &str) -> &mut ScenarioDash {
        self.scenarios.entry(name.to_string()).or_default()
    }

    /// Per-pass wall profile summed over every scenario, rank order.
    pub fn pass_profile(&self) -> Vec<(String, u64)> {
        let mut acc: BTreeMap<(u64, String), u64> = BTreeMap::new();
        for s in self.scenarios.values() {
            for ((rank, pass), us) in &s.pass_wall_us {
                *acc.entry((*rank, pass.clone())).or_insert(0) += us;
            }
        }
        acc.into_iter().map(|((_, p), us)| (p, us)).collect()
    }

    /// Per-pass deterministic cost profile summed over every scenario's
    /// deduplicated `exec_done` records, rank order.
    pub fn cost_profile(&self) -> Vec<PassCost> {
        let mut costs = ProfileBuilder::default();
        for s in self.scenarios.values() {
            for ((pass, _), stats) in &s.exec_costs {
                costs.record_exec(*pass, stats, 0, Duration::ZERO);
            }
        }
        costs.into_passes()
    }
}

/// Renders the merged campaign dashboard as text.
pub fn render_dashboard(d: &Dashboard) -> String {
    let mut out = String::new();
    let runs: Vec<(&String, &ScenarioDash, RunEnd)> = (d.scenarios.iter())
        .map(|(name, s)| (name, s, s.merged()))
        .collect();
    let sum = |total: fn(&RunEnd) -> u64| -> u64 { runs.iter().map(|(.., run)| total(run)).sum() };
    let failing = runs.iter().filter(|(.., run)| !run.passed).count();
    writeln!(out, "CAMPAIGN DASHBOARD").unwrap();
    writeln!(
        out,
        "  {} scenarios from {} streams — {} executions, {} steps, {} counterexamples in {failing} failing scenarios",
        d.scenarios.len(),
        d.streams,
        sum(|run| run.report.executions as u64),
        sum(|run| run.report.total_steps),
        sum(|run| run.counterexamples),
    )
    .unwrap();
    if d.torn_lines > 0 {
        writeln!(out, "  ({} torn lines skipped)", d.torn_lines).unwrap();
    }
    out.push('\n');

    let name_w = d
        .scenarios
        .keys()
        .map(|n| n.len())
        .max()
        .unwrap_or(8)
        .max(8);
    // Crash coverage uses the same unit `render_failure()` reports:
    // absolute grant counts from the start of the execution, not
    // per-pass offsets.
    writeln!(
        out,
        "  outcome grid ('.' shard passed, 'X' failed, '!' incomplete; \
         crash a/b = absolute-grant-count crash points exercised/enumerable, \
         fault c/d = fault plans):"
    )
    .unwrap();
    for (name, s, run) in &runs {
        let grid: String = (s.shards.values())
            .map(|shard| match (shard.passed, shard.report.is_incomplete()) {
                (false, _) => 'X',
                (true, true) => '!',
                (true, false) => '.',
            })
            .collect();
        let (r, c) = (&run.report, &run.report.coverage);
        let cov = format!(
            "crash {}/{} fault {}/{}",
            c.crash_points_exercised,
            c.crash_points_enumerable,
            c.fault_plans_exercised(),
            c.fault_plans_enumerable(),
        );
        writeln!(
            out,
            "    {name:<name_w$}  [{grid:<4}]  {:>7} execs  {:>9} steps  {:>2} cx  {cov}",
            r.executions, r.total_steps, run.counterexamples,
        )
        .unwrap();
    }
    out.push('\n');

    let profile = d.pass_profile();
    let total_us: u64 = profile.iter().map(|(_, us)| *us).sum();
    if total_us > 0 {
        writeln!(out, "  per-pass wall profile:").unwrap();
        for (pass, us) in &profile {
            writeln!(
                out,
                "    {pass:<18} {:>9.3}s  {} {}",
                *us as f64 / 1e6,
                pct(*us, total_us),
                bar(*us, total_us, 24),
            )
            .unwrap();
        }
        out.push('\n');
    }

    let costs = d.cost_profile();
    let cost_steps: u64 = costs.iter().map(|c| c.steps).sum();
    if cost_steps > 0 {
        writeln!(out, "  profile (deterministic cost per pass):").unwrap();
        for c in &costs {
            writeln!(
                out,
                "    {:<18} {:>7} execs {:>10} steps  {} {}  ({} crashes, {} blocks, {} disk ops, {} net msgs)",
                c.pass,
                c.executions,
                c.steps,
                pct(c.steps, cost_steps),
                bar(c.steps, cost_steps, 24),
                c.crashes,
                c.lock_blocks,
                c.disk_ops,
                c.net_msgs,
            )
            .unwrap();
        }
        out.push('\n');
    }

    let mut slowest: Vec<(&String, f64)> = (runs.iter())
        .map(|(name, _, run)| (*name, run.report.wall_time.as_secs_f64()))
        .collect();
    slowest.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    writeln!(out, "  slowest scenarios:").unwrap();
    for (name, wall) in slowest.iter().take(5) {
        writeln!(out, "    {wall:>8.3}s  {name}").unwrap();
    }
    out.push('\n');

    writeln!(
        out,
        "  pruning: {} schedules pruned; {} executions replayed from WALs",
        sum(|run| run.report.pruned),
        sum(|run| run.report.replayed),
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{ev_exec_done, pass_end_record, run_end_record, stamped, ExecEvent};
    use crate::{CheckReport, Counterexample, ExecOutcome, FaultPlan, OutcomeKind};
    use serde_json::Value;

    /// One stream line, as the writer puts `record` there for `scenario`.
    fn line(record: Value, scenario: &str) -> String {
        serde_json::to_string(&stamped(record, scenario)).unwrap()
    }

    /// `line` without `key`.
    fn without(line: &str, key: &str) -> String {
        let Ok(Value::Object(mut m)) = serde_json::from_str(line) else {
            panic!("{line} is not a record")
        };
        assert!(m.remove(key).is_some(), "{line} has no {key}");
        serde_json::to_string(&Value::Object(m)).unwrap()
    }

    /// `line` with `key` set to `value`.
    fn with(line: &str, key: &str, value: Value) -> String {
        let Ok(Value::Object(mut m)) = serde_json::from_str(line) else {
            panic!("{line} is not a record")
        };
        assert!(
            m.insert(key.to_string(), value).is_some(),
            "{line} has no {key}"
        );
        serde_json::to_string(&Value::Object(m)).unwrap()
    }

    /// The `run_end` record of a run that ended like this.
    fn run_end_line(scenario: &str, shard: &str, execs: u64, passed: bool) -> String {
        let mut report = CheckReport {
            executions: execs as usize,
            total_steps: execs * 10,
            crashes_injected: 3,
            pruned: 7,
            replayed: 2,
            wall_time: Duration::from_millis(250),
            shard: Some(crate::parse_shard(shard).unwrap()),
            ..CheckReport::default()
        };
        report.coverage.crash_points_exercised = 4;
        report.coverage.crash_points_enumerable = 8;
        if !passed {
            let cx = Counterexample {
                outcome: ExecOutcome::Deadlock,
                pass: Pass::Dfs,
                index: 0,
                seed: 0,
                schedule_prefix: vec![],
                crash_points: vec![],
                clamped: vec![],
                faults: FaultPlan::default(),
                trace: String::new(),
                timeline: None,
            };
            report.counterexample = Some(cx.clone());
            report.counterexamples = vec![cx];
        }
        line(run_end_record(&report), scenario)
    }

    fn pass_end_line(scenario: &str, pass: Pass, us: u64) -> String {
        line(pass_end_record(pass, Duration::from_micros(us)), scenario)
    }

    #[test]
    fn shard_totals_sum_and_enumerables_max() {
        let mut d = Dashboard::default();
        d.ingest(&run_end_line("s", "0/2", 100, true));
        d.ingest(&run_end_line("s", "1/2", 50, false));
        let s = d.scenarios["s"].merged();
        assert_eq!(s.report.executions, 150);
        assert_eq!(s.report.total_steps, 1500);
        assert_eq!(s.counterexamples, 1);
        assert_eq!(s.report.coverage.crash_points_enumerable, 8);
        assert_eq!(
            s.report.pruned, 7,
            "spine counters agree across shards: max"
        );
        assert_eq!(s.report.replayed, 4);
        assert!(!s.passed);
        let text = render_dashboard(&d);
        assert!(
            text.contains("150 executions, 1500 steps, 1 counterexamples"),
            "{text}"
        );
    }

    #[test]
    fn resumed_wal_keeps_only_the_last_run_end_per_shard() {
        let mut d = Dashboard::default();
        let text = format!(
            "{}\n{}\n",
            run_end_line("s", "0/2", 10, false),
            run_end_line("s", "0/2", 100, true),
        );
        d.ingest(&text);
        let s = d.scenarios["s"].merged();
        assert_eq!(s.report.executions, 100);
        assert!(s.passed);
    }

    #[test]
    fn pass_wall_profile_accumulates_under_the_stamp() {
        let mut d = Dashboard::default();
        let text = format!(
            "{}\n{}\nnot json at all\n",
            pass_end_line("mutant/skip-flush", Pass::Dfs, 100),
            pass_end_line("mutant/skip-flush", Pass::Dfs, 50),
        );
        d.ingest(&text);
        assert_eq!(d.torn_lines, 1);
        let s = &d.scenarios["mutant/skip-flush"];
        assert_eq!(s.pass_wall_us[&(0, "dfs".to_string())], 150);
        assert_eq!(d.pass_profile(), vec![("dfs".to_string(), 150)]);
    }

    /// A pass's wall time files under the pass's own rank, whatever
    /// `rank` the line claims.
    #[test]
    fn pass_end_is_keyed_by_the_rank_of_its_pass() {
        let honest = pass_end_line("s", Pass::CrashSweep, 40);
        let lying = honest.replace("\"rank\": 3", "\"rank\": 0");
        assert_ne!(honest, lying);
        let mut d = Dashboard::default();
        d.ingest(&format!("{honest}\n{lying}\n"));
        let wall = &d.scenarios["s"].pass_wall_us;
        assert_eq!(wall.len(), 1, "{wall:?}");
        assert_eq!(wall[&(3, "crash-sweep".to_string())], 80);
    }

    fn exec_done_line(scenario: &str, pass: &str, index: u64, steps: u64) -> String {
        let stats = ExecStats {
            steps,
            crashes: 1,
            lock_blocks: 2,
            disk_ops: 3,
            net_msgs: 4,
            ..ExecStats::default()
        };
        let (pass, ok) = (pass.parse().unwrap(), OutcomeKind::Ok);
        let event = ExecEvent::new(pass, index, 0, ok, &stats, "-", Duration::ZERO);
        line(ev_exec_done(&event), scenario)
    }

    #[test]
    fn cost_profile_dedupes_spine_executions_across_shards() {
        let mut d = Dashboard::default();
        // The same dfs execution appears in both shard streams (spine);
        // a second distinct execution appears once.
        let text = format!(
            "{}\n{}\n{}\n",
            exec_done_line("s", "dfs", 0, 10),
            exec_done_line("s", "dfs", 0, 10),
            exec_done_line("s", "dfs", 1, 20),
        );
        d.ingest(&text);
        let costs = d.cost_profile();
        assert_eq!(costs.len(), 1);
        let c = &costs[0];
        assert_eq!(c.pass, "dfs");
        assert_eq!(c.executions, 2, "duplicate (rank, index) must collapse");
        assert_eq!(c.steps, 30);
        assert_eq!(
            (c.crashes, c.lock_blocks, c.disk_ops, c.net_msgs),
            (2, 4, 6, 8)
        );
        let text = render_dashboard(&d);
        assert!(
            text.contains("profile (deterministic cost per pass)"),
            "{text}"
        );
    }

    /// A record short of a field is counted and dropped, not read as
    /// zeros: without its `index` an execution used to be filed as job 0,
    /// over the real execution 0's row.
    #[test]
    fn an_exec_done_without_index_does_not_replace_execution_zero() {
        let mut d = Dashboard::default();
        let text = format!(
            "{}\n{}\n",
            exec_done_line("s", "dfs", 0, 10),
            without(&exec_done_line("s", "dfs", 5, 99), "index"),
        );
        d.ingest(&text);
        assert_eq!(d.torn_lines, 1);
        let costs = d.cost_profile();
        assert_eq!((costs[0].executions, costs[0].steps), (1, 10));
    }

    /// Nor is a `run_end` without its verdict a failed shard.
    #[test]
    fn a_run_end_without_passed_draws_no_failed_shard() {
        let mut d = Dashboard::default();
        d.ingest(&run_end_line("s", "0/2", 100, true));
        d.ingest(&without(&run_end_line("s", "1/2", 50, true), "passed"));
        assert_eq!(d.torn_lines, 1);
        assert_eq!(d.scenarios["s"].shards.len(), 1);
        assert!(d.scenarios["s"].merged().passed);
        let text = render_dashboard(&d);
        assert!(text.contains("[.   ]"), "{text}");
        assert!(text.contains("(1 torn lines skipped)"), "{text}");
    }

    /// The dashboard reads a `run_end` as the report reader reads the same
    /// fields: a negative wall time, a shard that is not `i/n`, and
    /// incomplete marks that are not strings make the line torn.
    fn refused(key: &str, value: Value) {
        let mut d = Dashboard::default();
        d.ingest(&run_end_line("s", "0/2", 100, true));
        d.ingest(&with(&run_end_line("s", "1/2", 50, true), key, value));
        assert_eq!(d.torn_lines, 1, "{key}");
        assert_eq!(d.scenarios["s"].shards.len(), 1, "{key}");
    }

    #[test]
    fn a_run_end_with_a_negative_wall_time_is_torn() {
        refused("wall_time_s", Value::Number(-5.0));
    }

    #[test]
    fn a_run_end_whose_shard_is_not_i_of_n_is_torn() {
        refused("shard", Value::String("east".into()));
    }

    #[test]
    fn a_run_end_whose_incomplete_marks_are_not_strings_is_torn() {
        refused("incomplete", Value::Array(vec![Value::Number(7.0)]));
    }

    #[test]
    fn render_mentions_every_scenario_and_the_profile() {
        let mut d = Dashboard::default();
        d.ingest(&run_end_line("alpha", "0/1", 10, true));
        d.ingest(&pass_end_line("alpha", Pass::CrashSweep, 2000));
        let text = render_dashboard(&d);
        assert!(text.contains("CAMPAIGN DASHBOARD"), "{text}");
        assert!(text.contains("alpha"), "{text}");
        assert!(text.contains("crash-sweep"), "{text}");
        assert!(text.contains("slowest scenarios"), "{text}");
    }
}

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
//! already apply that rule, so dashboard totals agree with
//! [`merge_reports`](crate::campaign::merge_reports) over the same
//! shards. A resumed WAL holds several `run_start`/`run_end` pairs for
//! the same shard: the last `run_end` wins (it covers the whole run,
//! replayed prefix included), while pass wall times accumulate across
//! resumes (wall-clock actually spent).

use crate::pass::Pass;
use crate::profile::{bar, pct, PassCost, ProfileBuilder};
use crate::telemetry::{read_stream, ExecStats, Record, RunEnd};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// One scenario's view across every ingested stream.
#[derive(Debug, Clone, Default)]
pub struct ScenarioDash {
    /// Last `run_end` per shard label (`"-"` for unsharded runs).
    pub shards: BTreeMap<String, RunEnd>,
    /// Summed `pass_end` wall time per `(rank, pass name)`.
    pub pass_wall_us: BTreeMap<(u64, String), u64>,
    /// What each `exec_done` measured, by canonical job key. Keying
    /// dedupes derivation-spine executions, which appear in every shard's
    /// stream with identical deterministic statistics — so the per-pass
    /// cost profile matches what an unsharded run would report.
    pub exec_costs: BTreeMap<(Pass, u64), ExecStats>,
}

impl ScenarioDash {
    /// Whether every shard of this scenario passed.
    pub fn passed(&self) -> bool {
        self.shards.values().all(|s| s.passed)
    }

    fn sum(&self, f: impl Fn(&RunEnd) -> u64) -> u64 {
        self.shards.values().map(f).sum()
    }

    fn max(&self, f: impl Fn(&RunEnd) -> u64) -> u64 {
        self.shards.values().map(f).max().unwrap_or(0)
    }

    /// Summed wall time across shards (and resumes), in seconds.
    pub fn wall_time_s(&self) -> f64 {
        self.shards.values().map(|s| s.wall_time_s).sum()
    }

    /// Merged executions, following the same rules as `merge_reports`:
    /// counted statistics sum across shards; enumerable horizons are
    /// probe-derived and agree across shards, so max = any.
    pub fn executions(&self) -> u64 {
        self.sum(|s| s.executions)
    }
    /// Summed scheduler grants across shards.
    pub fn total_steps(&self) -> u64 {
        self.sum(|s| s.total_steps)
    }
    /// Summed injected crashes across shards.
    pub fn crashes_injected(&self) -> u64 {
        self.sum(|s| s.crashes_injected)
    }
    /// Summed counterexamples across shards.
    pub fn counterexamples(&self) -> u64 {
        self.sum(|s| s.counterexamples)
    }
    /// Summed per-surface fault plans exercised across shards.
    pub fn fault_plans_exercised(&self) -> u64 {
        self.sum(|s| s.fault_plans_exercised)
    }
    /// Strategy-pruned executions (max: the spine is shared, not split).
    pub fn pruned(&self) -> u64 {
        self.max(|s| s.pruned)
    }
    /// Summed WAL-replayed executions across shards.
    pub fn replayed(&self) -> u64 {
        self.sum(|s| s.replayed)
    }
    /// Probe-enumerated crash-point horizon (agrees across shards).
    pub fn crash_points_enumerable(&self) -> u64 {
        self.max(|s| s.crash_points_enumerable)
    }
    /// Probe-enumerated fault-plan horizon (agrees across shards).
    pub fn fault_plans_enumerable(&self) -> u64 {
        self.max(|s| s.fault_plans_enumerable)
    }

    /// Distinct crash points across shards is not recoverable from
    /// `run_end` alone (sets union, counts don't) — report the max as a
    /// lower bound, exactly what one shard proved on its own.
    pub fn crash_points_exercised_at_least(&self) -> u64 {
        self.max(|s| s.crash_points_exercised)
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
                    self.scenario(name).shards.insert(run.shard.clone(), run);
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

    /// Campaign-wide totals (executions, steps, counterexamples).
    pub fn totals(&self) -> (u64, u64, u64) {
        let mut execs = 0;
        let mut steps = 0;
        let mut cxs = 0;
        for s in self.scenarios.values() {
            execs += s.executions();
            steps += s.total_steps();
            cxs += s.counterexamples();
        }
        (execs, steps, cxs)
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
    let (execs, steps, cxs) = d.totals();
    let failing = d.scenarios.values().filter(|s| !s.passed()).count();
    writeln!(out, "CAMPAIGN DASHBOARD").unwrap();
    writeln!(
        out,
        "  {} scenarios from {} streams — {execs} executions, {steps} steps, {cxs} counterexamples in {} failing scenarios",
        d.scenarios.len(),
        d.streams,
        failing
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
    for (name, s) in &d.scenarios {
        let grid: String = s
            .shards
            .values()
            .map(|run| {
                if !run.passed {
                    'X'
                } else if run.incomplete {
                    '!'
                } else {
                    '.'
                }
            })
            .collect();
        let cov = format!(
            "crash {}/{} fault {}/{}",
            s.crash_points_exercised_at_least(),
            s.crash_points_enumerable(),
            s.fault_plans_exercised(),
            s.fault_plans_enumerable(),
        );
        writeln!(
            out,
            "    {name:<name_w$}  [{grid:<4}]  {:>7} execs  {:>9} steps  {:>2} cx  {cov}",
            s.executions(),
            s.total_steps(),
            s.counterexamples(),
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

    let mut slowest: Vec<(&String, f64)> = d
        .scenarios
        .iter()
        .map(|(n, s)| (n, s.wall_time_s()))
        .collect();
    slowest.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    writeln!(out, "  slowest scenarios:").unwrap();
    for (name, wall) in slowest.iter().take(5) {
        writeln!(out, "    {wall:>8.3}s  {name}").unwrap();
    }
    out.push('\n');

    let pruned: u64 = d.scenarios.values().map(|s| s.pruned()).sum();
    let replayed: u64 = d.scenarios.values().map(|s| s.replayed()).sum();
    writeln!(
        out,
        "  pruning: {pruned} schedules pruned; {replayed} executions replayed from WALs"
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
        let s = &d.scenarios["s"];
        assert_eq!(s.executions(), 150);
        assert_eq!(s.total_steps(), 1500);
        assert_eq!(s.counterexamples(), 1);
        assert_eq!(s.crash_points_enumerable(), 8);
        assert_eq!(s.pruned(), 7, "spine counters agree across shards: max");
        assert_eq!(s.replayed(), 4);
        assert!(!s.passed());
        assert_eq!(d.totals(), (150, 1500, 1));
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
        assert_eq!(d.scenarios["s"].executions(), 100);
        assert!(d.scenarios["s"].passed());
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
        assert!(d.scenarios["s"].passed());
        let text = render_dashboard(&d);
        assert!(text.contains("[.   ]"), "{text}");
        assert!(text.contains("(1 torn lines skipped)"), "{text}");
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

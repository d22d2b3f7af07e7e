//! Campaign dashboards: one merged view over many telemetry streams.
//!
//! A sharded campaign leaves behind one JSONL WAL per scenario shard
//! (see DESIGN.md §13). This module folds any number of those streams
//! into a single [`Dashboard`]: per-scenario results across shards, and
//! the per-pass table of the report, folded from the stream's `exec_done`
//! records by the report's own fold, which
//! [`render_dashboard`](crate::render_dashboard) draws as text (`scan
//! --dashboard`). The streams are read by [`read_stream`], the reader the
//! WAL loader uses: this module knows the records' typed form, not their
//! keys.
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
//! wins (it covers the whole run, replayed prefix included). The per-pass
//! rows key each `exec_done` by its job, so a spine execution, or one a
//! resumed run wrote again, counts once.

use crate::campaign::fold_totals;
use crate::metrics::{credit_session, fold_passes, PassMetrics};
use crate::pass::Pass;
use crate::telemetry::{read_stream, Record, RunEnd};
use std::collections::BTreeMap;

/// One scenario's view across every ingested stream.
#[derive(Debug, Clone, Default)]
pub struct ScenarioDash {
    /// Last `run_end` per shard (`None` for an unsharded run).
    pub shards: BTreeMap<Option<(u32, u32)>, RunEnd>,
    /// Each `exec_done` as a row of its pass, by canonical job key.
    /// Keying dedupes derivation-spine executions, which appear in every
    /// shard's stream with identical deterministic statistics, so the
    /// per-pass table matches what an unsharded run would report.
    pub execs: BTreeMap<(Pass, u64), PassMetrics>,
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
                Record::ExecDone {
                    pass,
                    index,
                    ok,
                    faulted,
                    duration,
                    stats,
                } => {
                    let row = PassMetrics::exec(pass, &stats, !ok, faulted, duration);
                    self.scenario(name).execs.insert((pass, index), row);
                }
                _ => {}
            }
        });
        self.torn_lines += torn_lines;
    }

    fn scenario(&mut self, name: &str) -> &mut ScenarioDash {
        self.scenarios.entry(name.to_string()).or_default()
    }

    /// The per-pass table summed over every scenario, in rank order: the
    /// deduplicated `exec_done` records through the report's fold, with
    /// the schedule phase's session counters from the `run_end` records.
    /// The stream carries no `steps_run` or `wakeups`: those stay 0.
    pub fn passes(&self) -> Vec<PassMetrics> {
        let execs = self.scenarios.values().flat_map(|s| s.execs.values());
        let mut rows = fold_passes(execs.cloned());
        let runs: Vec<RunEnd> = self.scenarios.values().map(ScenarioDash::merged).collect();
        let sum = |n: fn(&RunEnd) -> u64| runs.iter().map(n).sum();
        let (pruned, guided) = (sum(|r| r.report.pruned), sum(|r| r.report.coverage_guided));
        credit_session(&mut rows, pruned, guided);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render_dashboard;
    use crate::telemetry::{ev_exec_done, run_end_record, stamped, ExecEvent, ExecStats};
    use crate::{CheckReport, Counterexample, ExecOutcome, FaultPlan, OutcomeKind};
    use serde_json::Value;
    use std::time::Duration;

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

    fn exec_done_line(scenario: &str, pass: &str, index: u64, steps: u64) -> String {
        exec_line(scenario, pass, index, steps, OutcomeKind::Ok, "-", 0)
    }

    /// An `exec_done` line of an execution that ended as `outcome` under
    /// the fault plan `faults` after `us` µs.
    fn exec_line(
        scenario: &str,
        pass: &str,
        index: u64,
        steps: u64,
        outcome: OutcomeKind,
        faults: &str,
        us: u64,
    ) -> String {
        let stats = ExecStats {
            steps,
            crashes: 1,
            lock_blocks: 2,
            disk_ops: 3,
            net_msgs: 4,
            disk_reads: 5,
            ..ExecStats::default()
        };
        let duration = Duration::from_micros(us);
        let event = ExecEvent::new(
            pass.parse().unwrap(),
            index,
            0,
            outcome,
            &stats,
            faults,
            duration,
        );
        line(ev_exec_done(&event), scenario)
    }

    /// The dashboard's rows count what the report's count: the busy time
    /// of each pass's executions (a pass's `pass_end` wall time is not
    /// read), its failures and fault plans, and the session's prunes on
    /// `dfs`.
    #[test]
    fn rows_carry_the_executions_time_failures_and_fault_plans() {
        let mut d = Dashboard::default();
        let failed = OutcomeKind::FinalCheckFailed;
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            exec_line("s", "random-crash", 0, 10, OutcomeKind::Ok, "-", 300),
            exec_line("s", "torn-write-sweep", 1, 20, failed, "torn-none", 40),
            exec_line("s", "dfs", 0, 5, OutcomeKind::Ok, "-", 7),
            run_end_line("s", "0/1", 3, true),
        );
        d.ingest(&text);
        assert_eq!(d.torn_lines, 0);
        let rows = d.passes();
        let row = |pass: Pass| rows.iter().find(|pm| pm.pass == pass).unwrap();
        let random = row(Pass::RandomCrash);
        assert_eq!(random.busy_time, Duration::from_micros(300));
        assert_eq!((random.failures, random.fault_plans), (0, 0));
        let torn = row(Pass::TornWrite);
        assert_eq!((torn.failures, torn.fault_plans), (1, 1));
        assert_eq!((torn.lock_blocks, torn.model_ops), (2, 5));
        assert_eq!(row(Pass::Dfs).pruned, 7, "run_end's prunes, on dfs");
        let text = render_dashboard(&d);
        assert!(
            text.contains(
                "(1 crashes, 2 blocks, 3 disk ops, 4 net msgs, 5 model ops, 0.000s busy)"
            ),
            "{text}"
        );
    }

    #[test]
    fn pass_costs_dedupe_spine_executions_across_shards() {
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
        let costs = d.passes();
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
        assert!(text.contains("per-pass wall profile"), "{text}");
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
        let costs = d.passes();
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
        d.ingest(&exec_done_line("alpha", "crash-sweep", 1, 10));
        let text = render_dashboard(&d);
        assert!(text.contains("CAMPAIGN DASHBOARD"), "{text}");
        assert!(text.contains("alpha"), "{text}");
        assert!(text.contains("crash-sweep"), "{text}");
        assert!(text.contains("slowest scenarios"), "{text}");
    }
}

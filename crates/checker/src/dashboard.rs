//! Campaign dashboards: one merged text view over many telemetry
//! streams.
//!
//! A sharded campaign leaves behind one JSONL WAL per scenario shard
//! (see DESIGN.md §13). This module folds any number of those streams
//! into a single [`Dashboard`] — per-scenario outcome grid across
//! shards, coverage ratios, a per-pass wall-time profile (from the
//! `pass_start`/`pass_end` timing records), the slowest scenarios, and
//! pruning effectiveness — and renders it as text (`scan --dashboard`).
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

use crate::json::{get_f64, get_str, get_u64};
use crate::profile::{bar, pct};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The last `run_end` record of one scenario shard stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardRun {
    /// Whether the shard's verdict was a pass.
    pub passed: bool,
    /// Whether the run was marked incomplete (budget hit, stream error).
    pub incomplete: bool,
    /// Executions the shard finished.
    pub executions: u64,
    /// Scheduler grants summed over the shard's executions.
    pub total_steps: u64,
    /// Crashes the shard injected.
    pub crashes_injected: u64,
    /// Fault plans the shard exercised.
    pub fault_plans: u64,
    /// Counterexamples the shard recorded.
    pub counterexamples: u64,
    /// Distinct absolute-grant-count crash points exercised.
    pub crash_points_exercised: u64,
    /// Crash points the probe pass enumerated as reachable.
    pub crash_points_enumerable: u64,
    /// Fault plans exercised across all fault surfaces.
    pub fault_plans_exercised: u64,
    /// Fault plans enumerable across all fault surfaces.
    pub fault_plans_enumerable: u64,
    /// Executions pruned by the strategy (DPOR sleep sets).
    pub pruned: u64,
    /// Executions replayed from a WAL instead of re-run.
    pub replayed: u64,
    /// Wall-clock seconds, accumulated across resumes.
    pub wall_time_s: f64,
}

/// One `exec_done` record's deterministic cost (dashboard profile feed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecCostRow {
    /// Pass name the execution ran under.
    pub pass: String,
    /// Scheduler grants the execution consumed.
    pub steps: u64,
    /// Crashes injected during the execution.
    pub crashes: u64,
    /// Times a thread blocked on a contended lock.
    pub lock_blocks: u64,
    /// Total disk operations.
    pub disk_ops: u64,
    /// Total network messages.
    pub net_msgs: u64,
}

/// One scenario's view across every ingested stream.
#[derive(Debug, Clone, Default)]
pub struct ScenarioDash {
    /// Last `run_end` per shard label (`"-"` for unsharded runs).
    pub shards: BTreeMap<String, ShardRun>,
    /// Summed `pass_end` wall time per `(rank, pass name)`.
    pub pass_wall_us: BTreeMap<(u64, String), u64>,
    /// `exec_done` costs keyed by canonical job key `(rank, index)`.
    /// Keying dedupes derivation-spine executions, which appear in every
    /// shard's stream with identical deterministic statistics — so the
    /// per-pass cost profile matches what an unsharded run would report.
    pub exec_costs: BTreeMap<(u64, u64), ExecCostRow>,
}

impl ScenarioDash {
    /// Whether every shard of this scenario passed.
    pub fn passed(&self) -> bool {
        self.shards.values().all(|s| s.passed)
    }

    fn sum(&self, f: impl Fn(&ShardRun) -> u64) -> u64 {
        self.shards.values().map(f).sum()
    }

    fn max(&self, f: impl Fn(&ShardRun) -> u64) -> u64 {
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
    /// Summed fault plans exercised across shards.
    pub fn fault_plans(&self) -> u64 {
        self.sum(|s| s.fault_plans)
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
    /// Unparseable lines skipped across all streams (torn WAL tails).
    pub torn_lines: u64,
}

impl Dashboard {
    /// Folds one JSONL telemetry stream into the dashboard.
    ///
    /// `scenario_hint` overrides the per-record scenario stamp as the
    /// grouping key — pass the registry name when ingesting a per-
    /// scenario WAL file (mutant variants share their base harness's
    /// human name, and the file name is what disambiguates them).
    /// Tolerant like the WAL parser: torn lines are counted, not fatal.
    pub fn ingest(&mut self, scenario_hint: Option<&str>, text: &str) {
        self.streams += 1;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(Value::Object(map)) = serde_json::from_str(line) else {
                self.torn_lines += 1;
                continue;
            };
            let Ok(ty) = get_str(&map, "type") else {
                self.torn_lines += 1;
                continue;
            };
            let Some(scenario) = scenario_hint.or_else(|| get_str(&map, "scenario").ok()) else {
                continue;
            };
            let scenario = scenario.to_string();
            // A dashboard shows what it can: an absent or refused field
            // reads as zero.
            let n = |k: &str| get_u64(&map, k).unwrap_or(0);
            match ty {
                "run_end" => {
                    let shard = get_str(&map, "shard").unwrap_or("-").to_string();
                    let run = ShardRun {
                        passed: matches!(map.get("passed"), Some(Value::Bool(true))),
                        incomplete: matches!(
                            map.get("incomplete"),
                            Some(Value::Array(v)) if !v.is_empty()
                        ),
                        executions: n("executions"),
                        total_steps: n("total_steps"),
                        crashes_injected: n("crashes_injected"),
                        fault_plans: n("fault_plans"),
                        counterexamples: n("counterexamples"),
                        crash_points_exercised: n("crash_points_exercised"),
                        crash_points_enumerable: n("crash_points_enumerable"),
                        fault_plans_exercised: n("fault_plans_exercised"),
                        fault_plans_enumerable: n("fault_plans_enumerable"),
                        pruned: n("pruned"),
                        replayed: n("replayed"),
                        wall_time_s: get_f64(&map, "wall_time_s").unwrap_or(0.0),
                    };
                    // Last run_end per shard wins (resume appends runs).
                    self.scenarios
                        .entry(scenario)
                        .or_default()
                        .shards
                        .insert(shard, run);
                }
                "pass_end" => {
                    let Ok(pass) = get_str(&map, "pass") else {
                        continue;
                    };
                    let rank = n("rank");
                    *self
                        .scenarios
                        .entry(scenario)
                        .or_default()
                        .pass_wall_us
                        .entry((rank, pass.to_string()))
                        .or_insert(0) += n("duration_us");
                }
                "exec_done" => {
                    let Ok(pass) = get_str(&map, "pass") else {
                        continue;
                    };
                    let Ok(p) = pass.parse::<crate::Pass>() else {
                        continue;
                    };
                    let key = (p.rank() as u64, n("index"));
                    self.scenarios
                        .entry(scenario)
                        .or_default()
                        .exec_costs
                        .insert(
                            key,
                            ExecCostRow {
                                pass: pass.to_string(),
                                steps: n("steps"),
                                crashes: n("crashes"),
                                lock_blocks: n("lock_blocks"),
                                disk_ops: n("disk_ops"),
                                net_msgs: n("net_msgs"),
                            },
                        );
                }
                _ => {}
            }
        }
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
    /// deduplicated `exec_done` records, rank order:
    /// `(pass, executions, steps, crashes, lock_blocks, disk_ops, net_msgs)`.
    #[allow(clippy::type_complexity)]
    pub fn cost_profile(&self) -> Vec<(String, u64, u64, u64, u64, u64, u64)> {
        let mut acc: BTreeMap<(u64, String), (u64, u64, u64, u64, u64, u64)> = BTreeMap::new();
        for s in self.scenarios.values() {
            for ((rank, _), c) in &s.exec_costs {
                let e = acc.entry((*rank, c.pass.clone())).or_default();
                e.0 += 1;
                e.1 += c.steps;
                e.2 += c.crashes;
                e.3 += c.lock_blocks;
                e.4 += c.disk_ops;
                e.5 += c.net_msgs;
            }
        }
        acc.into_iter()
            .map(|((_, p), (e, st, cr, lb, d, n))| (p, e, st, cr, lb, d, n))
            .collect()
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
    let cost_steps: u64 = costs.iter().map(|r| r.2).sum();
    if cost_steps > 0 {
        writeln!(out, "  profile (deterministic cost per pass):").unwrap();
        for (pass, execs, steps, crashes, lock_blocks, disk_ops, net_msgs) in &costs {
            writeln!(
                out,
                "    {pass:<18} {execs:>7} execs {steps:>10} steps  {} {}  ({crashes} crashes, {lock_blocks} blocks, {disk_ops} disk ops, {net_msgs} net msgs)",
                pct(*steps, cost_steps),
                bar(*steps, cost_steps, 24),
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

    fn run_end_line(scenario: &str, shard: &str, execs: u64, passed: bool) -> String {
        format!(
            concat!(
                "{{\"type\": \"run_end\", \"scenario\": {s:?}, \"shard\": {sh:?}, ",
                "\"passed\": {p}, \"executions\": {e}, \"total_steps\": {st}, ",
                "\"counterexamples\": {cx}, \"crashes_injected\": 3, ",
                "\"crash_points_exercised\": 4, \"crash_points_enumerable\": 8, ",
                "\"pruned\": 7, \"replayed\": 2, \"wall_time_s\": 0.25, ",
                "\"incomplete\": []}}"
            ),
            s = scenario,
            sh = shard,
            p = passed,
            e = execs,
            st = execs * 10,
            cx = u64::from(!passed),
        )
    }

    #[test]
    fn shard_totals_sum_and_enumerables_max() {
        let mut d = Dashboard::default();
        d.ingest(None, &run_end_line("s", "0/2", 100, true));
        d.ingest(None, &run_end_line("s", "1/2", 50, false));
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
        d.ingest(None, &text);
        assert_eq!(d.scenarios["s"].executions(), 100);
        assert!(d.scenarios["s"].passed());
    }

    #[test]
    fn pass_wall_profile_accumulates_and_hint_overrides_stamp() {
        let mut d = Dashboard::default();
        let text = concat!(
            "{\"type\": \"pass_end\", \"scenario\": \"base\", \"pass\": \"dfs\", \"rank\": 0, \"duration_us\": 100}\n",
            "{\"type\": \"pass_end\", \"scenario\": \"base\", \"pass\": \"dfs\", \"rank\": 0, \"duration_us\": 50}\n",
            "not json at all\n",
        );
        d.ingest(Some("mutant/skip-flush"), text);
        assert_eq!(d.torn_lines, 1);
        let s = &d.scenarios["mutant/skip-flush"];
        assert_eq!(s.pass_wall_us[&(0, "dfs".to_string())], 150);
        assert_eq!(d.pass_profile(), vec![("dfs".to_string(), 150)]);
    }

    fn exec_done_line(scenario: &str, pass: &str, index: u64, steps: u64) -> String {
        format!(
            concat!(
                "{{\"type\": \"exec_done\", \"scenario\": {s:?}, \"pass\": {p:?}, ",
                "\"index\": {i}, \"outcome\": \"ok\", \"steps\": {st}, \"crashes\": 1, ",
                "\"lock_blocks\": 2, \"disk_ops\": 3, \"net_msgs\": 4}}"
            ),
            s = scenario,
            p = pass,
            i = index,
            st = steps,
        )
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
        d.ingest(None, &text);
        let costs = d.cost_profile();
        assert_eq!(costs.len(), 1);
        let (ref pass, execs, steps, crashes, lock_blocks, disk_ops, net_msgs) = costs[0];
        assert_eq!(pass, "dfs");
        assert_eq!(execs, 2, "duplicate (rank, index) must collapse");
        assert_eq!(steps, 30);
        assert_eq!((crashes, lock_blocks, disk_ops, net_msgs), (2, 4, 6, 8));
        let text = render_dashboard(&d);
        assert!(
            text.contains("profile (deterministic cost per pass)"),
            "{text}"
        );
    }

    #[test]
    fn render_mentions_every_scenario_and_the_profile() {
        let mut d = Dashboard::default();
        d.ingest(None, &run_end_line("alpha", "0/1", 10, true));
        d.ingest(
            None,
            concat!(
                "{\"type\": \"pass_end\", \"scenario\": \"alpha\", ",
                "\"pass\": \"crash-sweep\", \"rank\": 3, \"duration_us\": 2000}\n"
            ),
        );
        let text = render_dashboard(&d);
        assert!(text.contains("CAMPAIGN DASHBOARD"), "{text}");
        assert!(text.contains("alpha"), "{text}");
        assert!(text.contains("crash-sweep"), "{text}");
        assert!(text.contains("slowest scenarios"), "{text}");
    }
}

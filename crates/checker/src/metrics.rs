//! Deterministic run metrics: outcome histograms, per-pass accounting,
//! and coverage ratios.
//!
//! Everything in this module is computed from the explorer's canonical
//! job outcomes *after* the worker-count-independent cutoff is applied
//! (see `explore.rs`), so — with the sole exception of the wall-clock
//! `busy_time` fields — every number here is identical for 1 and 8
//! workers, and identical with telemetry on or off. The live, racy
//! counters that feed the progress line live in [`crate::telemetry`];
//! these are the trustworthy ones that end up in [`crate::CheckReport`].

use crate::campaign::PASS_COUNTERS;
use crate::explore::ExecOutcome;
use crate::pass::Pass;
use crate::telemetry::ExecStats;
use goose_rt::fault::FaultPlan;
use std::time::Duration;

/// The eight ways an explored execution can end, as a flat tag (the
/// histogram key; [`ExecOutcome`] carries the full payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutcomeKind {
    /// Every obligation held ([`ExecOutcome::Ok`]).
    Ok,
    /// Ghost capability rule violated ([`ExecOutcome::Violation`]).
    Violation,
    /// Modelled undefined behaviour ([`ExecOutcome::Ub`]).
    Ub,
    /// Plain panic in the code under test ([`ExecOutcome::Bug`]).
    Bug,
    /// No runnable thread with work left ([`ExecOutcome::Deadlock`]).
    Deadlock,
    /// Final predicate failed ([`ExecOutcome::FinalCheckFailed`]).
    FinalCheckFailed,
    /// Step budget exhausted ([`ExecOutcome::Wedged`]).
    Wedged,
    /// Controller-side hook panicked ([`ExecOutcome::HarnessPanic`]).
    HarnessPanic,
}

impl OutcomeKind {
    /// Every kind, in declaration (= canonical report) order.
    pub const ALL: [OutcomeKind; 8] = [
        OutcomeKind::Ok,
        OutcomeKind::Violation,
        OutcomeKind::Ub,
        OutcomeKind::Bug,
        OutcomeKind::Deadlock,
        OutcomeKind::FinalCheckFailed,
        OutcomeKind::Wedged,
        OutcomeKind::HarnessPanic,
    ];

    /// Classifies a full outcome into its histogram tag.
    pub fn of(outcome: &ExecOutcome) -> Self {
        match outcome {
            ExecOutcome::Ok => OutcomeKind::Ok,
            ExecOutcome::Violation(_) => OutcomeKind::Violation,
            ExecOutcome::Ub(_) => OutcomeKind::Ub,
            ExecOutcome::Bug(_) => OutcomeKind::Bug,
            ExecOutcome::Deadlock => OutcomeKind::Deadlock,
            ExecOutcome::FinalCheckFailed(_) => OutcomeKind::FinalCheckFailed,
            ExecOutcome::Wedged(_) => OutcomeKind::Wedged,
            ExecOutcome::HarnessPanic(_) => OutcomeKind::HarnessPanic,
        }
    }

    /// Stable lowercase name (the JSONL `outcome` field).
    pub fn name(self) -> &'static str {
        match self {
            OutcomeKind::Ok => "ok",
            OutcomeKind::Violation => "violation",
            OutcomeKind::Ub => "ub",
            OutcomeKind::Bug => "bug",
            OutcomeKind::Deadlock => "deadlock",
            OutcomeKind::FinalCheckFailed => "final_check_failed",
            OutcomeKind::Wedged => "wedged",
            OutcomeKind::HarnessPanic => "harness_panic",
        }
    }
}

/// Counts of executions by [`OutcomeKind`], one bucket per kind in
/// [`OutcomeKind::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts([u64; OutcomeKind::ALL.len()]);

impl OutcomeCounts {
    /// Bumps the bucket for one outcome.
    pub fn record(&mut self, kind: OutcomeKind) {
        self.0[kind as usize] += 1;
    }

    /// Executions that ended as `kind`.
    pub fn get(&self, kind: OutcomeKind) -> u64 {
        self.0[kind as usize]
    }

    /// Overwrites one bucket (deserialization).
    pub fn set(&mut self, kind: OutcomeKind, n: u64) {
        self.0[kind as usize] = n;
    }

    /// Adds another tally into this one (shard-report merging).
    pub fn merge(&mut self, other: &OutcomeCounts) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }

    /// Total executions recorded.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Executions that ended in any non-Ok outcome.
    pub fn failures(&self) -> u64 {
        self.total() - self.get(OutcomeKind::Ok)
    }

    /// `(name, count)` pairs in canonical order, zeros included.
    pub fn entries(&self) -> [(&'static str, u64); 8] {
        OutcomeKind::ALL.map(|kind| (kind.name(), self.get(kind)))
    }
}

/// A power-of-two bucketed histogram of u64 samples (bucket `i` covers
/// `[2^(i-1), 2^i)`, with bucket 0 holding exact zeros). Coarse on
/// purpose: the checker cares about the *shape* of steps-per-execution
/// and schedule-depth distributions, not exact quantiles, and log2
/// buckets merge deterministically and render in a fixed width.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize; // 0 for v == 0
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Merges another histogram into this one — bucket-wise addition,
    /// so merging shard histograms equals the unsharded histogram
    /// (shard-report merging, DESIGN.md §13).
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, n) in other.buckets.iter().enumerate() {
            self.buckets[i] += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Raw bucket counts (index = log2 bucket), for serialization.
    pub fn raw_buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuilds a histogram from its serialized parts.
    pub fn from_parts(buckets: Vec<u64>, count: u64, sum: u64, max: u64) -> Self {
        Histogram {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(bucket_lo, bucket_hi_inclusive, count)` triples for non-empty
    /// buckets, in increasing order.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| match i {
                0 => (0, 0, *n),
                _ => (1u64 << (i - 1), (1u64 << i) - 1, *n),
            })
            .collect()
    }
}

/// Accounting for one exploration pass, accumulated over its executions:
/// the crate's one per-pass row. The report's `per_pass`, the profile's
/// `passes` and the dashboard's table are lists of it, each summed by
/// `fold_passes`. The counters of campaign.rs's `PASS_COUNTERS` go into
/// report JSON; the cost counters from `steps_run` on are the process's
/// own (0 in a report read back from JSON; a dashboard has what the
/// stream carries, no `steps_run` or `wakeups`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassMetrics {
    /// Which pass.
    pub pass: Pass,
    /// Canonical pass rank (the report sort key).
    pub rank: u8,
    /// Executions this pass scheduled (post-cutoff).
    pub executions: u64,
    /// Scheduled steps summed over the pass's executions.
    pub steps: u64,
    /// Crashes injected by the pass.
    pub crashes: u64,
    /// Executions that ran with a non-empty fault plan.
    pub fault_plans: u64,
    /// Executions that ended in a non-Ok outcome.
    pub failures: u64,
    /// Schedules the strategy pruned as redundant (attributed to the
    /// DFS pass; 0 elsewhere and under non-DPOR strategies).
    pub pruned: u64,
    /// Executions re-seeded by coverage feedback (attributed to the
    /// random pass; 0 elsewhere and under non-guided strategies).
    pub coverage_guided: u64,
    /// Of `steps`, those executed in this process: a crash job forked
    /// off a shared execution runs only what follows its crash, a job
    /// read back from a WAL runs nothing, and the first job of a
    /// crash-sweep group also carries the steps of the executions the
    /// group forked its jobs off.
    pub steps_run: u64,
    /// OS-thread wake-ups the scheduler hand-off issued
    /// (`ModelRt::wakeups`): the deterministic proxy for what scheduling
    /// the pass's steps cost. Executions replayed from a WAL add none.
    pub wakeups: u64,
    /// Times a thread parked on a held model lock.
    pub lock_blocks: u64,
    /// Disk operations consulted against the fault plan.
    pub disk_ops: u64,
    /// Network sends consulted against the fault plan.
    pub net_msgs: u64,
    /// Block reads + writes + flushes + net sends + net receives
    /// ([`ExecStats::model_ops`]).
    pub model_ops: u64,
    /// Summed per-execution wall time across the pass. The one
    /// timing-dependent field in this module: with a pool, passes
    /// overlap on the wall clock, so this is *busy* time, not elapsed.
    pub busy_time: Duration,
}

impl PassMetrics {
    /// One execution as a row of its pass: what it measured, `failed`
    /// when it ended in a non-Ok outcome, `faulted` when it ran under a
    /// non-empty fault plan, and the wall time it took.
    pub fn exec(
        pass: Pass,
        stats: &ExecStats,
        failed: bool,
        faulted: bool,
        busy_time: Duration,
    ) -> Self {
        PassMetrics {
            pass,
            rank: pass.rank(),
            executions: 1,
            steps: stats.steps,
            crashes: stats.crashes,
            fault_plans: u64::from(faulted),
            failures: u64::from(failed),
            lock_blocks: stats.lock_blocks,
            disk_ops: stats.disk_ops,
            net_msgs: stats.net_msgs,
            model_ops: stats.model_ops(),
            busy_time,
            ..PassMetrics::default()
        }
    }

    /// Folds `o`, a row of the same pass, into this one: each report
    /// counter as its `PASS_COUNTERS` row says, the cost counters and the
    /// busy time summed.
    fn fold(&mut self, o: &PassMetrics) {
        for c in &PASS_COUNTERS {
            c.fold(self, o);
        }
        self.steps_run += o.steps_run;
        self.wakeups += o.wakeups;
        self.lock_blocks += o.lock_blocks;
        self.disk_ops += o.disk_ops;
        self.net_msgs += o.net_msgs;
        self.model_ops += o.model_ops;
        self.busy_time += o.busy_time;
    }
}

/// The one per-pass fold: `rows` (each one execution's, or one shard's
/// table) summed per pass, in rank order. The explorer folds its counted
/// outcomes through it, `merge_reports` its shards' tables, and the
/// dashboard its deduplicated `exec_done` records, so the three tables
/// count alike.
pub(crate) fn fold_passes(rows: impl IntoIterator<Item = PassMetrics>) -> Vec<PassMetrics> {
    let mut by_rank: [Option<PassMetrics>; Pass::ALL.len()] = Default::default();
    for row in rows {
        match &mut by_rank[row.pass.rank() as usize] {
            Some(sum) => sum.fold(&row),
            first => *first = Some(row),
        }
    }
    by_rank.into_iter().flatten().collect()
}

/// Credits the schedule phase's session counters to its two passes'
/// rows: the prunes to `dfs`, the coverage re-seeds to `random`.
pub(crate) fn credit_session(rows: &mut [PassMetrics], pruned: u64, coverage_guided: u64) {
    for pm in rows {
        match pm.pass {
            Pass::Dfs => pm.pruned = pruned,
            Pass::Random => pm.coverage_guided = coverage_guided,
            _ => {}
        }
    }
}

/// Which fault surface a non-empty plan exercises: the index of the
/// per-surface tallies in [`Coverage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFamily {
    /// Transient I/O errors and permanent disk failures.
    Disk,
    /// Torn (partially persisted) write buffers at a crash.
    Torn,
    /// Dropped, duplicated or delayed messages.
    Net,
}

impl FaultFamily {
    /// Every family, in declaration order.
    pub const ALL: [FaultFamily; 3] = [FaultFamily::Disk, FaultFamily::Torn, FaultFamily::Net];

    /// The family `plan` exercises; `None` for the empty plan.
    pub fn of(plan: &FaultPlan) -> Option<Self> {
        if !plan.transient_io.is_empty() || plan.disk_fail.is_some() {
            Some(FaultFamily::Disk)
        } else if plan.torn.is_some() {
            Some(FaultFamily::Torn)
        } else if !plan.net.is_empty() {
            Some(FaultFamily::Net)
        } else {
            None
        }
    }

    /// Per family: the pass that sweeps it, its short name in summaries,
    /// and the stem of its two keys in report JSON (`<stem>_exercised`,
    /// `<stem>_enumerable`).
    const TABLE: [(Pass, &'static str, &'static str); 3] = [
        (Pass::DiskFault, "disk", "disk_fault_plans"),
        (Pass::TornWrite, "torn", "torn_plans"),
        (Pass::NetFault, "net", "net_plans"),
    ];

    /// The family `pass` sweeps, if it sweeps fault plans at all.
    pub fn swept_by(pass: Pass) -> Option<Self> {
        let swept = |family: &FaultFamily| Self::TABLE[*family as usize].0 == pass;
        FaultFamily::ALL.into_iter().find(swept)
    }

    /// Short name, as summaries print it.
    pub fn name(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// Stem of the family's keys in report JSON.
    pub fn wire_name(self) -> &'static str {
        Self::TABLE[self as usize].2
    }
}

/// Coverage accounting: how much of each enumerable sweep space the run
/// actually exercised. Ratios stay below 1.0 when a counterexample cut
/// the run short (statistics stop at the winning key) or when a bound
/// (e.g. `dfs_max_executions`) clipped the space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Distinct crash points injected (any pass, nested points counted
    /// individually).
    pub crash_points_exercised: u64,
    /// Crash points the systematic sweep enumerates: the baseline
    /// schedule's horizon (0 when the crash sweep is disabled).
    pub crash_points_enumerable: u64,
    /// Distinct non-empty fault plans executed, indexed by
    /// [`FaultFamily`] (`family as usize`).
    pub plans_exercised: [u64; FaultFamily::ALL.len()],
    /// Fault plans the sweeps enumerate, indexed the same way.
    pub plans_enumerable: [u64; FaultFamily::ALL.len()],
    /// Distinct ghost-trace fingerprints observed across executions — a
    /// proxy for behavioural coverage (two executions with the same
    /// fingerprint drove the spec through the same event sequence).
    pub distinct_traces: u64,
}

impl Coverage {
    /// Records that `pass` enumerated `n` more points of its sweep space
    /// (a no-op for passes that sweep no space).
    pub(crate) fn enumerated(&mut self, pass: Pass, n: u64) {
        match FaultFamily::swept_by(pass) {
            Some(family) => self.plans_enumerable[family as usize] += n,
            None if pass == Pass::CrashSweep => self.crash_points_enumerable += n,
            None => {}
        }
    }

    /// Folds another shard's sweep spaces in. Exercised plans are counted
    /// per owned execution (disjoint across shards): sum. Enumerable
    /// horizons are probe-derived and agree across shards: max = any. The
    /// two set-backed counts (`crash_points_exercised`, `distinct_traces`)
    /// take the max, a lower bound on the union: a merger that holds the
    /// sets counts the union instead.
    pub(crate) fn merge(&mut self, o: &Coverage) {
        self.crash_points_enumerable = self.crash_points_enumerable.max(o.crash_points_enumerable);
        self.crash_points_exercised = self.crash_points_exercised.max(o.crash_points_exercised);
        self.distinct_traces = self.distinct_traces.max(o.distinct_traces);
        for i in 0..FaultFamily::ALL.len() {
            self.plans_exercised[i] += o.plans_exercised[i];
            self.plans_enumerable[i] = self.plans_enumerable[i].max(o.plans_enumerable[i]);
        }
    }

    /// All fault surfaces pooled into one ratio (1.0 when nothing is
    /// enumerable: a sweep disabled, or no surface, counts as covered).
    pub fn fault_plan_ratio(&self) -> f64 {
        match self.fault_plans_enumerable() {
            0 => 1.0,
            total => self.fault_plans_exercised() as f64 / total as f64,
        }
    }

    /// Non-empty fault plans executed, summed over every surface.
    pub fn fault_plans_exercised(&self) -> u64 {
        self.plans_exercised.iter().sum()
    }

    /// Enumerable fault plans, summed over every surface.
    pub fn fault_plans_enumerable(&self) -> u64 {
        self.plans_enumerable.iter().sum()
    }
}

/// FNV-1a over text already in hand: a report's or a campaign's JSON, a
/// failure's identity, a rendered ghost trace. Stable across runs (pure
/// function of the bytes). An execution's own `trace_fp` is not this: it
/// is the fold of its ghost events' fixed byte encoding
/// ([`perennial_spec::Encode`]), kept by its [`perennial::Trace`] as
/// events arrive, and the rendered text is for readers.
pub fn trace_fingerprint(trace: &str) -> u64 {
    let mut hash = perennial::Fnv1a::default();
    hash.write(trace.as_bytes());
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_counts_classify() {
        let mut c = OutcomeCounts::default();
        c.record(OutcomeKind::of(&ExecOutcome::Ok));
        c.record(OutcomeKind::of(&ExecOutcome::Ok));
        c.record(OutcomeKind::of(&ExecOutcome::Deadlock));
        c.record(OutcomeKind::of(&ExecOutcome::Bug("b".into())));
        assert_eq!(c.get(OutcomeKind::Ok), 2);
        assert_eq!(c.total(), 4);
        assert_eq!(c.failures(), 2);
    }

    /// `kind as usize` indexes the buckets, so the table must list the
    /// variants in declaration order, each once.
    #[test]
    fn kind_and_family_tables_are_in_declaration_order() {
        for (i, kind) in OutcomeKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
        for (i, family) in FaultFamily::ALL.into_iter().enumerate() {
            assert_eq!(family as usize, i, "{family:?}");
        }
        // One sweep per family, in the same order.
        let swept: Vec<FaultFamily> = Pass::ALL
            .into_iter()
            .filter_map(FaultFamily::swept_by)
            .collect();
        assert_eq!(swept, FaultFamily::ALL);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1000);
        assert_eq!(
            h.buckets(),
            vec![
                (0, 0, 1),
                (1, 1, 1),
                (2, 3, 2),
                (4, 7, 2),
                (8, 15, 1),
                (512, 1023, 1)
            ]
        );
    }

    #[test]
    fn coverage_ratios_handle_empty_spaces() {
        assert_eq!(Coverage::default().fault_plan_ratio(), 1.0);
        let mut c = Coverage::default();
        c.plans_exercised[FaultFamily::Torn as usize] = 6;
        c.plans_enumerable[FaultFamily::Torn as usize] = 36;
        assert!((c.fault_plan_ratio() - 6.0 / 36.0).abs() < 1e-12);
    }

    #[test]
    fn trace_fingerprints_distinguish_traces() {
        let a = trace_fingerprint("Invoke { jid: j0 }");
        let b = trace_fingerprint("Invoke { jid: j1 }");
        assert_ne!(a, b);
        assert_eq!(a, trace_fingerprint("Invoke { jid: j0 }"));
    }
}

//! The deterministic counts behind `BENCH_scale.json`: what one
//! scenario's exploration does, in numbers that are pure functions of
//! the configuration (executions, scheduler steps, hand-off wake-ups,
//! lock acquisitions and cell borrows per step, heap allocations per
//! execution, outcome and coverage counts, executions-to-counterexample
//! per mutant and strategy, executions replayed from a complete WAL).
//!
//! Nothing here reads a clock: wall-clock numbers are `BENCHMARK.json`'s
//! (`benchmark/`), measured on workloads long enough to time. See
//! `cargo run --release -p perennial-bench --bin scale`.

use crate::count_alloc;
use perennial_checker::telemetry::read_wal;
use perennial_checker::{
    report_fingerprint, trace_fingerprint, CheckConfig, CheckReport, Coverage, CoverageGuided,
    Exhaustive, OutcomeCounts, OutcomeKind, Scenario, ScenarioSet, SleepSetDpor, Strategy,
};
use serde_json::{json, Value};
use std::fmt::Write as _;
use std::sync::Arc;

/// Version of the `BENCH_scale.json` record layout (2: counts only, one
/// row per section; 3: `model_locks_per_step` and `cell_borrows_per_step`
/// beside `wakeups_per_step`; 4: `allocs_per_exec` and
/// `alloc_bytes_per_exec` in `schedule_exploration` and in every
/// mutant's `sleep_set_dpor` cell; 5: `steps_executed` beside `steps` in
/// `schedule_exploration` and `fault_exploration`; 6: `wal_records` and
/// `read_allocs_per_record` in `resume_overhead`; 7: `live_on_resume` in
/// `resume_overhead`). A record of another
/// version differs from this one at `schema_version`, like at any other
/// leaf.
///
/// The allocation leaves ([`ALLOC_LEAVES`]) are the only ones the gate
/// does not compare exactly. Counted at one worker on the thread that ran
/// the exploration, they agree run after run and whatever pool sizes ran
/// before them, but they include the standard library's own allocations
/// (collection growth, sort scratch, formatting), and CI builds with
/// whatever toolchain is stable that day. So [`crate::perf::diff_trees`]
/// holds each under a bound instead: the committed value plus
/// [`ALLOC_SLACK`], the margin `tests/alloc_budget.rs` allows. A missing
/// or extra allocation leaf still fails like any other.
pub const SCALE_SCHEMA_VERSION: u64 = 7;

/// The record's leaves that count heap allocations: upper-bounded by the
/// gate, not matched exactly (see [`SCALE_SCHEMA_VERSION`]).
pub const ALLOC_LEAVES: [&str; 3] = [
    "allocs_per_exec",
    "alloc_bytes_per_exec",
    "read_allocs_per_record",
];

/// How far over its committed value an allocation leaf may come out:
/// 10 %.
pub const ALLOC_SLACK: f64 = 0.10;

/// `n` per scheduler step (per one step when there were none).
fn per_step(n: u64, steps: u64) -> f64 {
    n as f64 / steps.max(1) as f64
}

/// One configuration's counts. The determinism contract makes them the
/// same at every pool size, which [`run_counts`] checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub executions: usize,
    /// Scheduler steps over those executions.
    pub steps: u64,
    /// Of `steps`, those executed in this process (`PassMetrics::steps_run`):
    /// fewer than `steps` when crash jobs were forked off a shared
    /// execution instead of re-running its prefix.
    pub steps_executed: u64,
    /// Baton passes the scheduler's hand-off issued for them
    /// (`ModelRt::wakeups`).
    pub wakeups: u64,
    /// How many of those executions carried a non-empty fault plan
    /// (non-zero only when the config enables the fault sweeps).
    pub fault_plans: usize,
    pub outcomes: OutcomeCounts,
    pub coverage: Coverage,
}

impl Counts {
    /// Hand-off wake-ups per scheduler step executed in this process (a
    /// forked crash job wakes no thread for the prefix it did not run):
    /// up to 2 when every step goes back through the controller, below 1
    /// with run-on grants.
    pub fn wakeups_per_step(&self) -> f64 {
        per_step(self.wakeups, self.steps_executed)
    }

    fn to_json(&self) -> Value {
        json!({
            "executions": self.executions,
            "steps": self.steps,
            "steps_executed": self.steps_executed,
            "wakeups": self.wakeups,
            "fault_plans": self.fault_plans,
            "ok": self.outcomes.get(OutcomeKind::Ok),
            "failures": self.outcomes.failures(),
            "crash_points_exercised": self.coverage.crash_points_exercised,
            "crash_points_enumerable": self.coverage.crash_points_enumerable,
            "fault_plans_exercised": self.coverage.fault_plans_exercised(),
            "fault_plans_enumerable": self.coverage.fault_plans_enumerable(),
            "distinct_traces": self.coverage.distinct_traces,
        })
    }
}

fn counts_at(scenario: &Scenario, base: &CheckConfig, workers: usize) -> Counts {
    let mut cfg = base.clone();
    cfg.workers = workers;
    let report = scenario.run(&cfg);
    Counts {
        executions: report.executions,
        steps: report.total_steps,
        steps_executed: report.per_pass.iter().map(|pass| pass.steps_run).sum(),
        wakeups: report.per_pass.iter().map(|pass| pass.wakeups).sum(),
        fault_plans: report.fault_plans,
        outcomes: report.outcomes,
        coverage: report.coverage,
    }
}

/// Runs `scenario` once per pool size in `worker_counts` (the base
/// config's own `workers` field is overridden) and returns the counts
/// they all share, or an error naming the first pool size whose counts
/// differ from the first one's.
pub fn run_counts(
    scenario: &Scenario,
    base: &CheckConfig,
    worker_counts: &[usize],
) -> Result<Counts, String> {
    let (&w0, rest) = worker_counts
        .split_first()
        .ok_or("no worker counts given")?;
    let agreed = counts_at(scenario, base, w0);
    for &w in rest {
        let counts = counts_at(scenario, base, w);
        if counts != agreed {
            return Err(format!(
                "{}: counts differ between pool sizes\n  workers={w0}: {agreed:?}\n  workers={w}: {counts:?}",
                scenario.name()
            ));
        }
    }
    Ok(agreed)
}

/// Renders one counts row.
pub fn render_counts(name: &str, worker_counts: &[usize], c: &Counts) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Exploration counts: {name} (identical at workers {worker_counts:?})"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>10} {:>10} {:>13} {:>12} {:>8} {:>9} {:>16}",
        "executions",
        "steps",
        "executed",
        "wakeups",
        "wakeups/step",
        "fault plans",
        "ok",
        "failures",
        "distinct traces"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>10} {:>10} {:>13.3} {:>12} {:>8} {:>9} {:>16}",
        c.executions,
        c.steps,
        c.steps_executed,
        c.wakeups,
        c.wakeups_per_step(),
        c.fault_plans,
        c.outcomes.get(OutcomeKind::Ok),
        c.outcomes.failures(),
        c.coverage.distinct_traces,
    );
    out
}

// ---------------------------------------------------------------------
// Synchronisation per step: real locks taken, owner cells borrowed
// ---------------------------------------------------------------------

/// What one exploration paid in synchronisation, counted by the
/// `parking_lot` shim (`parking_lot::count`) on the thread that ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncCounts {
    /// Scheduler steps of the exploration.
    pub steps: u64,
    /// `Mutex::lock` calls: real locks, which an execution should take
    /// none of — what is left belongs to the job pipeline.
    pub mutex_locks: u64,
    /// `OwnerCell` borrows: the runtime, the pilot, the ghost engine and
    /// the models reaching their own state, each a thread-id compare and
    /// a flag.
    pub cell_borrows: u64,
}

impl SyncCounts {
    pub fn model_locks_per_step(&self) -> f64 {
        per_step(self.mutex_locks, self.steps)
    }

    pub fn cell_borrows_per_step(&self) -> f64 {
        per_step(self.cell_borrows, self.steps)
    }
}

/// Runs `scenario` with one worker — inline on the calling thread, which
/// is where the shim's per-thread counters then see every acquisition —
/// and returns what it counted.
///
/// # Panics
///
/// Panics if the shim was built without its `count` feature (this
/// package's default feature turns it on): the record would say 0.
pub fn run_sync_counts(scenario: &Scenario, base: &CheckConfig) -> SyncCounts {
    use parking_lot::count;
    // Not a `const` assertion: the library also builds, uncounted, as a
    // dependency of the root package, which never calls this.
    if !count::ENABLED {
        panic!("perennial-bench built without its `count` feature: nothing counts acquisitions");
    }
    let mut cfg = base.clone();
    cfg.workers = 1;
    let (locks, borrows) = (count::mutex_locks(), count::cell_borrows());
    let report = scenario.run(&cfg);
    SyncCounts {
        steps: report.total_steps,
        mutex_locks: count::mutex_locks() - locks,
        cell_borrows: count::cell_borrows() - borrows,
    }
}

/// Renders the synchronisation row.
pub fn render_sync(name: &str, s: &SyncCounts) -> String {
    format!(
        "Synchronisation per step: {name} (one worker)\n\
         {} steps, {} Mutex::lock calls ({:.3}/step), {} owner-cell borrows ({:.3}/step)\n",
        s.steps,
        s.mutex_locks,
        s.model_locks_per_step(),
        s.cell_borrows,
        s.cell_borrows_per_step(),
    )
}

// ---------------------------------------------------------------------
// Allocations per execution: the heap's exact proxy
// ---------------------------------------------------------------------

/// What an exploration allocated on the thread that ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    pub executions: usize,
    /// Allocation calls.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

impl AllocCounts {
    pub fn allocs_per_exec(&self) -> f64 {
        self.allocs as f64 / self.executions.max(1) as f64
    }

    pub fn bytes_per_exec(&self) -> f64 {
        self.bytes as f64 / self.executions.max(1) as f64
    }

    /// Adds the per-execution leaves ([`ALLOC_LEAVES`]) to a record's
    /// object.
    fn put(&self, row: &mut Value) {
        if let Value::Object(row) = row {
            let [allocs, bytes, _] = ALLOC_LEAVES;
            row.insert(allocs.into(), json!(self.allocs_per_exec()));
            row.insert(bytes.into(), json!(self.bytes_per_exec()));
        }
    }
}

/// Runs `cfg` on `scenario` with one worker — inline on the calling
/// thread, which is where [`count_alloc::thread_totals`] then sees every
/// allocation — and counts what the run allocated. No count depends on
/// the pool size. A process that installs no [`count_alloc::Counting`]
/// reads zeros.
fn measured(scenario: &Scenario, mut cfg: CheckConfig) -> (CheckReport, AllocCounts) {
    cfg.workers = 1;
    let (calls, bytes) = count_alloc::thread_totals();
    let report = scenario.run(&cfg);
    let (calls_after, bytes_after) = count_alloc::thread_totals();
    let counts = AllocCounts {
        executions: report.executions,
        allocs: calls_after - calls,
        bytes: bytes_after - bytes,
    };
    (report, counts)
}

/// Runs `scenario` with one worker and returns what it allocated.
pub fn run_alloc_counts(scenario: &Scenario, base: &CheckConfig) -> AllocCounts {
    measured(scenario, base.clone()).1
}

/// Renders the allocation row.
pub fn render_allocs(name: &str, a: &AllocCounts) -> String {
    format!(
        "Allocations per execution: {name} (one worker)\n\
         {} executions, {} allocations ({:.1}/exec), {} bytes ({:.0}/exec)\n",
        a.executions,
        a.allocs,
        a.allocs_per_exec(),
        a.bytes,
        a.bytes_per_exec(),
    )
}

// ---------------------------------------------------------------------
// Resume: a complete WAL replays, and changes no fingerprint
// ---------------------------------------------------------------------

/// What the checkpoint/resume machinery did on one scenario: a run
/// without a WAL, the same run writing its JSONL write-ahead log, and a
/// run resumed from that complete log.
#[derive(Debug, Clone)]
pub struct ResumeRow {
    pub executions: usize,
    /// Executions the resumed run satisfied from the WAL.
    pub replayed: u64,
    /// All three runs produced the same report fingerprint.
    pub fingerprints_match: bool,
    /// Lines (records) of the complete WAL.
    pub wal_records: u64,
    /// Allocation calls `read_wal` made reading the complete WAL, on the
    /// calling thread (zeros without [`count_alloc::Counting`]).
    pub read_allocs: u64,
}

impl ResumeRow {
    /// Executions the resumed run still ran: the complete WAL closed every
    /// phase, so 0.
    pub fn live_on_resume(&self) -> u64 {
        self.executions as u64 - self.replayed
    }

    /// Allocations the WAL reader makes per record it reads.
    pub fn read_allocs_per_record(&self) -> f64 {
        self.read_allocs as f64 / self.wal_records.max(1) as f64
    }
}

/// Runs `scenario` cold, writing `wal`, and resumed from `wal`, and
/// counts what reading the complete `wal` allocates. Sharded configs
/// force keep-going semantics, so every variant uses `keep_going`.
pub fn run_resume(scenario: &Scenario, base: &CheckConfig, wal: &std::path::Path) -> ResumeRow {
    let mut cold = base.clone();
    cold.keep_going = true;
    let mut walled = cold.clone();
    walled.telemetry_path = Some(wal.to_path_buf());
    // Resumed against the *complete* WAL: everything replayable is
    // replayed.
    let mut resumed = walled.clone();
    resumed.resume_from = Some(wal.to_path_buf());

    let [cold, walled] = [cold, walled].map(|cfg| scenario.run(&cfg));
    let wal_records =
        std::fs::read(wal).map_or(0, |bytes| bytes.iter().filter(|b| **b == b'\n').count());
    let (calls, _) = count_alloc::thread_totals();
    let read = read_wal(wal, scenario.name());
    let (calls_after, _) = count_alloc::thread_totals();
    assert!(read.is_ok_and(|w| w.torn_lines == 0), "the WAL reads whole");
    let resumed = scenario.run(&resumed);
    let fingerprints = [&cold, &walled, &resumed].map(report_fingerprint);
    ResumeRow {
        executions: cold.executions,
        replayed: resumed.replayed,
        fingerprints_match: fingerprints.iter().all(|fp| *fp == fingerprints[0]),
        wal_records: wal_records as u64,
        read_allocs: calls_after - calls,
    }
}

/// Renders the resume row.
pub fn render_resume(name: &str, row: &ResumeRow) -> String {
    format!(
        "Checkpoint/resume: {name}\n{} executions, {} replayed from the complete WAL, {} run \
         live; cold, with-WAL and resumed fingerprints {}\n\
         reading the WAL: {} records, {} allocations ({:.2}/record)\n",
        row.executions,
        row.replayed,
        row.live_on_resume(),
        if row.fingerprints_match {
            "match"
        } else {
            "DIFFER"
        },
        row.wal_records,
        row.read_allocs,
        row.read_allocs_per_record(),
    )
}

// ---------------------------------------------------------------------
// Strategy reduction: executions-to-counterexample per mutant
// ---------------------------------------------------------------------

/// One strategy's result on one mutant scenario.
#[derive(Debug, Clone)]
pub struct StrategyCell {
    /// Executions performed before the run stopped (the canonical
    /// executions-to-counterexample count under `keep_going = false`).
    pub executions: usize,
    /// Sleep-set prunes charged to the DFS budget.
    pub pruned: u64,
    /// Coverage-guided (prefix-seeded) samples.
    pub guided: u64,
    /// `(pass name, ghost-trace fingerprint)` of the counterexample;
    /// `None` means the mutant escaped this strategy.
    pub fingerprint: Option<(String, u64)>,
}

/// Executions-to-counterexample across strategies for one mutant.
#[derive(Debug, Clone)]
pub struct ReductionRow {
    pub scenario: String,
    pub exhaustive: StrategyCell,
    pub dpor: StrategyCell,
    /// What the DPOR run allocated.
    pub dpor_allocs: AllocCounts,
    pub coverage: StrategyCell,
}

impl ReductionRow {
    /// Baseline-vs-DPOR executions ratio (>1 means DPOR needed fewer).
    pub fn dpor_ratio(&self) -> f64 {
        self.exhaustive.executions as f64 / (self.dpor.executions.max(1)) as f64
    }

    /// Baseline-vs-coverage-guided executions ratio.
    pub fn coverage_ratio(&self) -> f64 {
        self.exhaustive.executions as f64 / (self.coverage.executions.max(1)) as f64
    }

    /// Whether both reduced strategies found a counterexample equivalent
    /// to the baseline's. The crash and fault sweeps are strategy-
    /// independent, so a sweep-phase find must match the baseline's
    /// `(pass, ghost-trace fingerprint)` exactly; a find in the schedule
    /// phase (dfs/random) on either side is a different-but-equivalent
    /// interleaving of the same mutant and counts as agreement.
    pub fn fingerprints_agree(&self) -> bool {
        let Some((base_pass, _)) = &self.exhaustive.fingerprint else {
            return false;
        };
        let schedule = |p: &str| p == "dfs" || p == "random";
        let agrees = |c: &StrategyCell| match &c.fingerprint {
            None => false,
            Some((p, _)) if schedule(base_pass) || schedule(p) => true,
            Some(_) => c.fingerprint == self.exhaustive.fingerprint,
        };
        agrees(&self.dpor) && agrees(&self.coverage)
    }
}

impl StrategyCell {
    fn of(report: &CheckReport) -> Self {
        StrategyCell {
            executions: report.executions,
            pruned: report.pruned,
            guided: report.coverage_guided,
            fingerprint: report
                .counterexample
                .as_ref()
                .map(|cx| (cx.pass.to_string(), trace_fingerprint(&cx.trace))),
        }
    }
}

/// Runs every mutant in `registry` under the three strategies and
/// reports executions-to-counterexample for each. `base.strategy` is
/// ignored; everything else (budgets, passes, workers) carries over,
/// except that the DPOR run takes one worker, to count what it
/// allocated.
pub fn run_reduction(registry: &ScenarioSet, base: &CheckConfig) -> Vec<ReductionRow> {
    let under = |strategy: Arc<dyn Strategy>| {
        let mut cfg = base.clone();
        cfg.strategy = strategy;
        cfg
    };
    let mut rows = Vec::new();
    for scenario in registry {
        let exhaustive = StrategyCell::of(&scenario.run(&under(Arc::new(Exhaustive))));
        let (dpor, dpor_allocs) = measured(scenario, under(Arc::new(SleepSetDpor)));
        rows.push(ReductionRow {
            scenario: scenario.name().to_string(),
            exhaustive,
            dpor: StrategyCell::of(&dpor),
            dpor_allocs,
            coverage: StrategyCell::of(&scenario.run(&under(Arc::new(CoverageGuided)))),
        });
    }
    rows
}

/// Median of a ratio over the rows (0.0 for an empty slice).
pub fn median_ratio(rows: &[ReductionRow], ratio: impl Fn(&ReductionRow) -> f64) -> f64 {
    let mut v: Vec<f64> = rows.iter().map(ratio).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Renders the reduction table.
pub fn render_reduction(rows: &[ReductionRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Executions to counterexample (exhaustive vs sleep-set DPOR vs coverage-guided)"
    );
    let _ = writeln!(
        out,
        "{:<36} {:>10} {:>10} {:>8} {:>10} {:>8} {:>6} {:>12}",
        "mutant", "exhaustive", "dpor", "ratio", "coverage", "ratio", "fp=", "dpor allocs"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<36} {:>10} {:>10} {:>7.1}x {:>10} {:>7.1}x {:>6} {:>7.1}/exec",
            r.scenario,
            r.exhaustive.executions,
            r.dpor.executions,
            r.dpor_ratio(),
            r.coverage.executions,
            r.coverage_ratio(),
            if r.fingerprints_agree() { "yes" } else { "NO" },
            r.dpor_allocs.allocs_per_exec(),
        );
    }
    let _ = writeln!(
        out,
        "{:<36} {:>10} {:>10} {:>7.1}x {:>10} {:>7.1}x",
        "(median)",
        "",
        "",
        median_ratio(rows, ReductionRow::dpor_ratio),
        "",
        median_ratio(rows, ReductionRow::coverage_ratio),
    );
    out
}

// ---------------------------------------------------------------------
// The record
// ---------------------------------------------------------------------

impl StrategyCell {
    fn to_json(&self) -> Value {
        json!({
            "executions": self.executions,
            "pruned": self.pruned,
            "coverage_guided": self.guided,
            "counterexample_pass": self.fingerprint.as_ref().map(|(p, _)| p.clone()),
            "trace_fingerprint": self.fingerprint.as_ref().map(|(_, fp)| *fp),
        })
    }
}

impl ReductionRow {
    fn to_json(&self) -> Value {
        let mut dpor = self.dpor.to_json();
        self.dpor_allocs.put(&mut dpor);
        json!({
            "scenario": self.scenario,
            "exhaustive": self.exhaustive.to_json(),
            "sleep_set_dpor": dpor,
            "coverage_guided": self.coverage.to_json(),
            "dpor_ratio": self.dpor_ratio(),
            "coverage_ratio": self.coverage_ratio(),
            "fingerprints_agree": self.fingerprints_agree(),
        })
    }
}

/// The `BENCH_scale.json` record: every leaf a deterministic function
/// of the configuration, so [`crate::perf::diff_trees`] can compare two
/// of them (exactly but for [`ALLOC_LEAVES`]). `allocs` is the schedule
/// exploration's.
pub fn record(
    scenario: &str,
    schedule: &Counts,
    sync: &SyncCounts,
    allocs: &AllocCounts,
    fault: &Counts,
    reduction: &[ReductionRow],
    resume: &ResumeRow,
) -> Value {
    let mut schedule_row = schedule.to_json();
    allocs.put(&mut schedule_row);
    json!({
        "schema_version": SCALE_SCHEMA_VERSION,
        "scenario": scenario,
        "wakeups_per_step": schedule.wakeups_per_step(),
        "model_locks_per_step": sync.model_locks_per_step(),
        "cell_borrows_per_step": sync.cell_borrows_per_step(),
        "schedule_exploration": schedule_row,
        "fault_exploration": fault.to_json(),
        "strategy_reduction": {
            "mutants": reduction.iter().map(ReductionRow::to_json).collect::<Vec<_>>(),
            "median_dpor_ratio": median_ratio(reduction, ReductionRow::dpor_ratio),
            "median_coverage_ratio": median_ratio(reduction, ReductionRow::coverage_ratio),
        },
        "resume_overhead": {
            "executions": resume.executions,
            "replayed": resume.replayed,
            "live_on_resume": resume.live_on_resume(),
            "fingerprints_match": resume.fingerprints_match,
            "wal_records": resume.wal_records,
            "read_allocs_per_record": resume.read_allocs_per_record(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perennial_checker::Pass;

    fn quick() -> CheckConfig {
        CheckConfig::builder()
            .dfs_max_executions(50)
            .random_samples(5)
            .random_crash_samples(5)
            .without_passes([Pass::NestedCrash])
            .build()
    }

    #[test]
    fn pool_sizes_share_one_row_of_counts() {
        let registry = crash_patterns::scenarios();
        let scenario = registry.get("patterns/wal").expect("registered");
        let c = run_counts(scenario, &quick(), &[1, 2]).expect("deterministic");
        assert_eq!(c.outcomes.total(), c.executions as u64);
        assert!(c.coverage.distinct_traces > 0);
        assert!(c.wakeups > 0 && c.wakeups_per_step() < 1.0);
        assert_eq!(run_counts(scenario, &quick(), &[2]).as_ref(), Ok(&c));
        assert!(render_counts("patterns/wal", &[1, 2], &c).contains("wakeups/step"));
    }

    /// An execution takes no real lock: what `Mutex::lock` calls remain
    /// are the job pipeline's, a handful per execution and far under one
    /// per step, while every step borrows its runtime's cells.
    #[test]
    fn an_exploration_borrows_cells_and_takes_next_to_no_locks() {
        let registry = crash_patterns::scenarios();
        let scenario = registry.get("patterns/wal").expect("registered");
        let s = run_sync_counts(scenario, &quick());
        assert!(s.steps > 0);
        assert!(s.model_locks_per_step() <= 0.1, "{s:?}");
        assert!(s.cell_borrows_per_step() > 1.0, "{s:?}");
        assert_eq!(run_sync_counts(scenario, &quick()), s, "a count, so exact");
        assert!(render_sync("patterns/wal", &s).contains("/step"));
    }

    /// This test binary installs no counting allocator, so a run reads
    /// zeros (`tests/alloc_budget.rs` counts for real); the leaves are the
    /// totals over the executions.
    #[test]
    fn allocation_leaves_are_totals_per_execution() {
        let registry = crash_patterns::scenarios();
        let scenario = registry.get("patterns/wal").expect("registered");
        let a = run_alloc_counts(scenario, &quick());
        assert!(a.executions > 0);
        assert_eq!(
            (a.allocs, a.bytes),
            (0, 0),
            "nothing installed, nothing counted"
        );
        let a = AllocCounts {
            executions: 4,
            allocs: 10,
            bytes: 96,
        };
        let mut row = json!({ "executions": 4 });
        a.put(&mut row);
        let expected = json!({
            "executions": 4,
            "allocs_per_exec": 2.5,
            "alloc_bytes_per_exec": 24.0,
        });
        assert_eq!(row, expected);
        assert!(render_allocs("patterns/wal", &a).contains("(2.5/exec)"));
    }

    #[test]
    fn a_complete_wal_replays_and_keeps_the_fingerprint() {
        let registry = crash_patterns::scenarios();
        let scenario = registry.get("patterns/wal").expect("registered");
        let wal = std::env::temp_dir().join(format!(
            "perennial-scale-test-resume-{}.jsonl",
            std::process::id()
        ));
        let row = run_resume(scenario, &quick(), &wal);
        let _ = std::fs::remove_file(&wal);
        assert!(row.fingerprints_match);
        assert!(row.replayed > 0 && row.executions > 0);
        assert_eq!(
            row.live_on_resume(),
            0,
            "the complete WAL replays every execution"
        );
    }
}

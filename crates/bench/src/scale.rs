//! Parallel-explorer scaling measurement: run the same scenario at
//! several pool sizes and report throughput and speedup over one worker.
//!
//! The determinism contract means every row explores the *same* set of
//! executions, so the comparison is pure wall-clock — see
//! `cargo run --release -p perennial-bench --bin scale`.

use perennial_checker::{
    trace_fingerprint, CheckConfig, Coverage, CoverageGuided, Exhaustive, OutcomeCounts, Scenario,
    ScenarioSet, SleepSetDpor, Strategy,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// One pool size's measurement.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    pub workers: usize,
    pub executions: usize,
    /// Scheduler steps over those executions (deterministic).
    pub steps: u64,
    /// OS-thread wake-ups the scheduler's hand-off issued for them
    /// (`ModelRt::wakeups`): the deterministic companion of
    /// `execs_per_sec`, identical across rows.
    pub wakeups: u64,
    /// How many of those executions carried a non-empty fault plan
    /// (non-zero only when the config enables the fault sweeps).
    pub fault_plans: usize,
    pub wall_time: Duration,
    pub execs_per_sec: f64,
    /// Throughput relative to the 1-worker row.
    pub speedup: f64,
    /// Outcome histogram (deterministic: identical across rows).
    pub outcomes: OutcomeCounts,
    /// Coverage accounting (deterministic: identical across rows).
    pub coverage: Coverage,
}

impl ScaleRow {
    /// Hand-off wake-ups per scheduler step (2 when every step returns
    /// to the controller; below 1 with run-on grants).
    pub fn wakeups_per_step(&self) -> f64 {
        self.wakeups as f64 / self.steps.max(1) as f64
    }
}

/// Runs `scenario` once per pool size in `worker_counts` (the base
/// config's own `workers` field is overridden per row).
pub fn run_scale(
    scenario: &Scenario,
    base: &CheckConfig,
    worker_counts: &[usize],
) -> Vec<ScaleRow> {
    let mut rows: Vec<ScaleRow> = Vec::new();
    let mut baseline: Option<f64> = None;
    for &workers in worker_counts {
        let mut cfg = base.clone();
        cfg.workers = workers.max(1);
        // The profiler is where the hand-off count surfaces.
        cfg.profile = true;
        let report = scenario.run(&cfg);
        let wakeups = report
            .profile
            .iter()
            .flat_map(|p| &p.passes)
            .map(|pass| pass.wakeups)
            .sum();
        let per_sec = report.execs_per_sec;
        let base_rate = *baseline.get_or_insert(per_sec);
        rows.push(ScaleRow {
            workers: cfg.workers,
            executions: report.executions,
            steps: report.total_steps,
            wakeups,
            fault_plans: report.fault_plans,
            wall_time: report.wall_time,
            execs_per_sec: per_sec,
            speedup: per_sec / base_rate.max(1e-9),
            outcomes: report.outcomes,
            coverage: report.coverage,
        });
    }
    rows
}

/// Renders the scaling table.
pub fn render_scale(name: &str, rows: &[ScaleRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Explorer scaling: {name}");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12} {:>14} {:>9} {:>13}",
        "workers", "executions", "fault plans", "wall time", "execs/sec", "speedup", "wakeups/step"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>12} {:>11.2}s {:>14.0} {:>8.2}x {:>13.3}",
            r.workers,
            r.executions,
            r.fault_plans,
            r.wall_time.as_secs_f64(),
            r.execs_per_sec,
            r.speedup,
            r.wakeups_per_step(),
        );
    }
    out
}

// ---------------------------------------------------------------------
// Resume overhead: what does making a run resumable cost?
// ---------------------------------------------------------------------

/// Cost accounting for the checkpoint/resume machinery on one scenario.
///
/// Alternating pairs of a *cold* run (no WAL) and a *walled* one (same
/// run writing its JSONL write-ahead log), then one *resumed* run
/// (re-run against the completed WAL, replaying finished executions
/// instead of re-executing them). One pair is two ≈40 ms runs and reads
/// anywhere from −8 % to +34 %, so the recorded overhead is the median
/// over the pairs, with its quartiles beside it. The acceptance target
/// is `overhead() < 0.05`: writing the WAL costs less than 5% of the
/// cold wall time, so campaigns can always afford to be resumable.
#[derive(Debug, Clone)]
pub struct ResumeRow {
    pub executions: usize,
    /// Median cold and walled wall times over the pairs.
    pub cold: Duration,
    pub walled: Duration,
    pub resumed: Duration,
    /// Per-pair `walled / cold - 1`, ascending.
    pub overheads: Vec<f64>,
    /// Executions the resumed run satisfied from the WAL.
    pub replayed: u64,
    /// Every run produced the same report fingerprint.
    pub fingerprints_match: bool,
}

/// The value `q` of the way through an ascending, non-empty sample
/// (linear interpolation between neighbours).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

impl ResumeRow {
    /// Fractional wall-time cost of writing the WAL (0.03 = 3%): the
    /// median over the pairs.
    pub fn overhead(&self) -> f64 {
        quantile(&self.overheads, 0.5)
    }

    /// First and third quartile of the per-pair overheads.
    pub fn overhead_quartiles(&self) -> (f64, f64) {
        (
            quantile(&self.overheads, 0.25),
            quantile(&self.overheads, 0.75),
        )
    }

    /// How much faster a fully-replayed resume is than a cold run.
    pub fn resume_speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.resumed.as_secs_f64().max(1e-9)
    }
}

/// Measures checkpoint/resume cost for `scenario` using `wal` as the
/// log path, over `pairs` cold/walled pairs that alternate which side
/// runs first. Sharded configs force keep-going semantics, so the
/// comparison uses `keep_going` on every variant.
pub fn run_resume(
    scenario: &Scenario,
    base: &CheckConfig,
    wal: &std::path::Path,
    pairs: usize,
) -> ResumeRow {
    use perennial_checker::report_fingerprint;
    let mut cfg = base.clone();
    cfg.keep_going = true;
    let mut walled_cfg = cfg.clone();
    walled_cfg.telemetry_path = Some(wal.to_path_buf());

    let mut fingerprints = Vec::new();
    let (mut colds, mut walleds, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
    let mut executions = 0;
    for pair in 0..pairs.max(1) {
        let mut time = |c: &CheckConfig| {
            let report = scenario.run(c);
            fingerprints.push(report_fingerprint(&report));
            executions = report.executions;
            report.wall_time.as_secs_f64()
        };
        let (cold, walled) = if pair % 2 == 0 {
            let cold = time(&cfg);
            (cold, time(&walled_cfg))
        } else {
            let walled = time(&walled_cfg);
            (time(&cfg), walled)
        };
        colds.push(cold);
        walleds.push(walled);
        overheads.push(walled / cold.max(1e-9) - 1.0);
    }
    for sample in [&mut colds, &mut walleds, &mut overheads] {
        sample.sort_by(f64::total_cmp);
    }
    // One resumed run against the *complete* WAL: everything replayable
    // is replayed, which is the steady-state cost of the machinery.
    let mut rcfg = walled_cfg.clone();
    rcfg.resume_from = Some(wal.to_path_buf());
    let resumed = scenario.run(&rcfg);
    fingerprints.push(report_fingerprint(&resumed));

    ResumeRow {
        executions,
        cold: Duration::from_secs_f64(quantile(&colds, 0.5)),
        walled: Duration::from_secs_f64(quantile(&walleds, 0.5)),
        resumed: resumed.wall_time,
        overheads,
        replayed: resumed.replayed,
        fingerprints_match: fingerprints.windows(2).all(|w| w[0] == w[1]),
    }
}

/// Renders the resume-overhead measurement.
pub fn render_resume(name: &str, row: &ResumeRow) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Checkpoint/resume cost: {name}");
    let _ = writeln!(
        out,
        "{:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>4}",
        "executions", "cold", "with WAL", "resumed", "overhead", "speedup", "fp="
    );
    let _ = writeln!(
        out,
        "{:>12} {:>11.3}s {:>11.3}s {:>11.3}s {:>9.1}% {:>9.1}x {:>4}",
        row.executions,
        row.cold.as_secs_f64(),
        row.walled.as_secs_f64(),
        row.resumed.as_secs_f64(),
        row.overhead() * 100.0,
        row.resume_speedup(),
        if row.fingerprints_match { "yes" } else { "NO" },
    );
    let (q1, q3) = row.overhead_quartiles();
    let _ = writeln!(
        out,
        "(overhead: median of {} alternating pairs, quartiles {:.1}% .. {:.1}%; \
         {} executions replayed from the WAL)",
        row.overheads.len(),
        q1 * 100.0,
        q3 * 100.0,
        row.replayed
    );
    out
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

fn run_cell(scenario: &Scenario, base: &CheckConfig, strategy: Arc<dyn Strategy>) -> StrategyCell {
    let mut cfg = base.clone();
    cfg.strategy = strategy;
    let report = scenario.run(&cfg);
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

/// Runs every mutant in `registry` under the three strategies and
/// reports executions-to-counterexample for each. `base.strategy` is
/// ignored; everything else (budgets, passes, workers) carries over.
pub fn run_reduction(registry: &ScenarioSet, base: &CheckConfig) -> Vec<ReductionRow> {
    let mut rows = Vec::new();
    for scenario in registry {
        rows.push(ReductionRow {
            scenario: scenario.name().to_string(),
            exhaustive: run_cell(scenario, base, Arc::new(Exhaustive)),
            dpor: run_cell(scenario, base, Arc::new(SleepSetDpor)),
            coverage: run_cell(scenario, base, Arc::new(CoverageGuided)),
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
        "{:<36} {:>10} {:>10} {:>8} {:>10} {:>8} {:>6}",
        "mutant", "exhaustive", "dpor", "ratio", "coverage", "ratio", "fp="
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<36} {:>10} {:>10} {:>7.1}x {:>10} {:>7.1}x {:>6}",
            r.scenario,
            r.exhaustive.executions,
            r.dpor.executions,
            r.dpor_ratio(),
            r.coverage.executions,
            r.coverage_ratio(),
            if r.fingerprints_agree() { "yes" } else { "NO" },
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

#[cfg(test)]
mod tests {
    use super::*;
    use perennial_checker::CheckConfig;

    #[test]
    fn scale_rows_share_the_execution_count() {
        let registry = crash_patterns::scenarios();
        let scenario = registry.get("patterns/wal").expect("registered");
        let cfg = CheckConfig::builder()
            .dfs_max_executions(50)
            .random_samples(5)
            .random_crash_samples(5)
            .without_passes([perennial_checker::Pass::NestedCrash])
            .build();
        let rows = run_scale(scenario, &cfg, &[1, 2]);
        assert_eq!(rows.len(), 2);
        // Determinism contract: both pool sizes explore the same set,
        // with identical outcome histograms and coverage.
        assert_eq!(rows[0].executions, rows[1].executions);
        assert_eq!(rows[0].outcomes, rows[1].outcomes);
        assert_eq!(rows[0].coverage, rows[1].coverage);
        assert_eq!(rows[0].outcomes.total(), rows[0].executions as u64);
        assert!(rows[0].coverage.distinct_traces > 0);
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        // The hand-off count is as deterministic as the rest.
        assert_eq!(
            (rows[0].steps, rows[0].wakeups),
            (rows[1].steps, rows[1].wakeups)
        );
        assert!(rows[0].wakeups > 0 && rows[0].wakeups_per_step() < 1.0);
        let table = render_scale("patterns/wal", &rows);
        assert!(table.contains("workers"));
        assert!(table.contains("speedup"));
    }

    #[test]
    fn wal_overhead_is_the_median_of_its_pairs() {
        let row = ResumeRow {
            executions: 1,
            cold: Duration::from_millis(40),
            walled: Duration::from_millis(42),
            resumed: Duration::from_millis(10),
            overheads: vec![-0.08, 0.02, 0.05, 0.11, 0.34],
            replayed: 0,
            fingerprints_match: true,
        };
        assert_eq!(row.overhead(), 0.05);
        assert_eq!(row.overhead_quartiles(), (0.02, 0.11));
        assert_eq!(quantile(&[0.0, 1.0], 0.25), 0.25);
        assert_eq!(quantile(&[0.3], 0.75), 0.3);
    }

    #[test]
    fn resume_measurement_alternates_pairs_and_keeps_one_fingerprint() {
        let registry = crash_patterns::scenarios();
        let scenario = registry.get("patterns/wal").expect("registered");
        let cfg = CheckConfig::builder()
            .dfs_max_executions(20)
            .random_samples(2)
            .random_crash_samples(2)
            .without_passes([perennial_checker::Pass::NestedCrash])
            .build();
        let wal = std::env::temp_dir().join(format!(
            "perennial-scale-test-resume-{}.jsonl",
            std::process::id()
        ));
        let row = run_resume(scenario, &cfg, &wal, 3);
        let _ = std::fs::remove_file(&wal);
        assert_eq!(row.overheads.len(), 3);
        assert!(row.overheads.windows(2).all(|w| w[0] <= w[1]));
        assert!(row.fingerprints_match);
        assert!(row.replayed > 0 && row.executions > 0);
    }
}

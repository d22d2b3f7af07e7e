//! The explorer: bounded model checking over schedules and crash points.
//!
//! This is the reproduction's substitute for the paper's Coq proofs (see
//! DESIGN.md §1): instead of a theorem over *all* executions, the
//! explorer enumerates a bounded set — a schedule phase over crash-free
//! interleavings driven by a pluggable [`Strategy`](crate::Strategy)
//! (exhaustive DFS, random sampling, sleep-set DPOR, coverage-guided
//! sampling; see DESIGN.md §12), a systematic sweep of crash points
//! including crashes during recovery, and fault-plan sweeps — and
//! requires the ghost discipline (Theorem 2's obligations) to hold on
//! every one.
//!
//! # One pipeline
//!
//! [`check`] is the order in which the passes enter one pipeline
//! (DESIGN.md §9): a pass's job list is *derived* as a pure function of
//! a probe's horizon (`jobs.rs`), *admitted* by the one job driver
//! against the cancellation-and-budget gate, *run* as a wave across the
//! worker pool (each job run, read back from the resume WAL, or skipped
//! as another shard's), *observed* by the strategy if it is a complete
//! schedule-phase wave, and finally *aggregated* under the canonical
//! cutoff into the [`CheckReport`]. One execution is `exec.rs`'s
//! business; what it measured travels as one record
//! ([`ExecStats`](crate::telemetry::ExecStats)).
//!
//! # Parallel exploration and the determinism contract
//!
//! Every explored execution is independent (fresh
//! [`ModelRt`](goose_rt::ModelRt) + ghost state per run), so the explorer
//! dispatches them across a worker pool ([`CheckConfig::workers`]).
//! Determinism is preserved by construction:
//!
//! - Every execution has a canonical **job key** `(pass.rank(), index)`
//!   assigned before it runs, independent of worker count or timing
//!   (ranks in [`Pass`]).
//! - Each execution's model seed is `hash(base_seed, pass_rank, index)`
//!   (see `exec_seed`), never a shared mutable RNG.
//! - The reported counterexample is the failure with the **minimum job
//!   key**, not the first one found on the wall clock. A job is skipped
//!   only when a failure with a *smaller* key is already known, which
//!   cannot hide the minimum-key failure — so `workers = 8` reports the
//!   same [`Counterexample`] as `workers = 1` for the same config.
//! - Strategy feedback (DFS frontier expansion, sleep-set pruning,
//!   coverage re-seeding) advances only on *complete* waves in canonical
//!   job order; a wave interrupted by a failure is never observed. So
//!   the explored set — and the `pruned`/`coverage_guided` counters —
//!   are identical at every worker count.
//! - Report statistics count exactly the executions with keys up to the
//!   winning counterexample's key (all of them, if no failure), so
//!   `executions`/`total_steps`/... are reproducible too.
//!
//! With [`CheckConfig::keep_going`] set, nothing is cancelled and every
//! failure is collected into [`CheckReport::counterexamples`], sorted by
//! canonical key.

pub use crate::config::{CheckConfig, CheckConfigBuilder};
pub use crate::exec::{Counterexample, ExecOutcome};
pub use crate::jobs::shard_of;

use crate::exec::rerun;
use crate::harness::Harness;
use crate::jobs::{
    crash_sweep_jobs, disk_fault_jobs, disk_fault_recovery_jobs, nested_crash_jobs, net_fault_jobs,
    random_crash_jobs, schedule_jobs, torn_write_jobs, Driver, Job, JobKey, JobOutcome,
};
use crate::metrics::{Coverage, Histogram, OutcomeCounts, OutcomeKind, PassMetrics};
use crate::pass::Pass;
use crate::profile::{collisions, ProfileBuilder, StrategyProfile};
use crate::shrink::shrink_counterexample;
use crate::strategy::{ObservedExec, StrategySession};
use crate::telemetry::EnvStamp;
use goose_rt::fault::FaultSurface;
use perennial_spec::SpecTS;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Aggregate result of checking one scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// Scenario name.
    pub name: String,
    /// Executions explored (counted up to the winning counterexample's
    /// canonical key, so the number is worker-count independent).
    pub executions: usize,
    /// Total scheduled steps across executions.
    pub total_steps: u64,
    /// Crashes injected across executions.
    pub crashes_injected: usize,
    /// Distinct crash points swept.
    pub crash_points: usize,
    /// Distinct fault plans swept (executions run with a non-empty
    /// [`goose_rt::fault::FaultPlan`]).
    pub fault_plans: usize,
    /// Operations helped by recovery across executions.
    pub helped_ops: u64,
    /// Disk block reads across executions (model-op accounting).
    pub disk_reads: u64,
    /// Disk block writes (buffered + write-through) across executions.
    pub disk_writes: u64,
    /// Disk flush barriers across executions.
    pub disk_flushes: u64,
    /// Network sends across executions.
    pub net_sends: u64,
    /// Network receives that dequeued a message, across executions.
    pub net_recvs: u64,
    /// Wall-clock time the check took.
    pub wall_time: Duration,
    /// Worker threads the pool actually used.
    pub workers: usize,
    /// Executions per wall-clock second.
    pub execs_per_sec: f64,
    /// Name of the schedule-phase strategy that ran.
    pub strategy: String,
    /// Schedules the strategy pruned as redundant (sleep-set hits) —
    /// deterministic across worker counts.
    pub pruned: u64,
    /// Executions whose schedule was re-seeded by coverage feedback.
    pub coverage_guided: u64,
    /// The canonical (minimum-key) counterexample, if any.
    pub counterexample: Option<Counterexample>,
    /// All counterexamples found, sorted by canonical key. Without
    /// [`CheckConfig::keep_going`] this holds at most the canonical one.
    pub counterexamples: Vec<Counterexample>,
    /// Executions by outcome (same cutoff as `executions`, so
    /// worker-count independent).
    pub outcomes: OutcomeCounts,
    /// Per-pass accounting, in canonical rank order. Only passes that
    /// scheduled at least one execution appear.
    pub per_pass: Vec<PassMetrics>,
    /// Steps-per-execution distribution (log2 buckets).
    pub steps_hist: Histogram,
    /// Schedule-depth (decisions-per-execution) distribution.
    pub depth_hist: Histogram,
    /// Coverage accounting: sweep spaces exercised vs. enumerable, and
    /// distinct ghost-trace fingerprints seen.
    pub coverage: Coverage,
    /// Shard assignment this report covers (`None` = the whole space).
    pub shard: Option<(u32, u32)>,
    /// Executions satisfied from the resume WAL instead of re-run.
    /// Excluded from the report fingerprint: a resumed run and a cold
    /// run must otherwise be identical.
    pub replayed: u64,
    /// Why the run degraded to a partial result (execution budget
    /// exhausted, telemetry sink failures). Empty for a complete run;
    /// [`CheckReport::passed`] is unaffected, but summaries carry an
    /// explicit INCOMPLETE marker.
    pub incomplete: Vec<String>,
    /// The distinct crash points behind
    /// [`Coverage::crash_points_exercised`] — kept as a set so shard
    /// reports merge by union, not by sum.
    pub crash_point_set: BTreeSet<u64>,
    /// The distinct ghost-trace fingerprints behind
    /// [`Coverage::distinct_traces`], kept for the same reason.
    pub trace_fps: BTreeSet<u64>,
    /// Cost profile, present when [`CheckConfig::profile`] was on.
    /// Debug/observability payload: excluded from campaign JSON and
    /// report fingerprints exactly like a counterexample's timeline.
    pub profile: Option<crate::profile::Profile>,
    /// Shrink statistics, present when [`CheckConfig::shrink`] was on
    /// and a counterexample was found (the counterexample itself is then
    /// the *shrunk* one). Observability payload: excluded from campaign
    /// JSON like [`CheckReport::profile`] — the shrunk counterexample,
    /// not its bookkeeping, is the durable artifact.
    pub shrink: Option<crate::shrink::ShrinkStats>,
    /// Environment stamp (rustc, crate version, workers, strategy) for
    /// cross-machine comparability of serialized reports. Volatile:
    /// stripped by [`crate::report_fingerprint`].
    pub env: crate::telemetry::EnvStamp,
}

impl CheckReport {
    /// Whether every explored execution passed.
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }

    /// Whether the run degraded to a partial result (see
    /// [`CheckReport::incomplete`]).
    pub fn is_incomplete(&self) -> bool {
        !self.incomplete.is_empty()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        let faults = if self.fault_plans > 0 {
            format!(", {} fault plans", self.fault_plans)
        } else {
            String::new()
        };
        let shard = match self.shard {
            Some((i, n)) => format!(" [shard {i}/{n}]"),
            None => String::new(),
        };
        format!(
            "{}: {} executions, {} steps, {} crashes over {} crash points{}, {} helped ops, \
             {:.0} execs/s on {} workers{} — {}{}",
            self.name,
            self.executions,
            self.total_steps,
            self.crashes_injected,
            self.crash_points,
            faults,
            self.helped_ops,
            self.execs_per_sec,
            self.workers,
            shard,
            if self.passed() { "PASS" } else { "FAIL" },
            if self.is_incomplete() {
                " (INCOMPLETE)"
            } else {
                ""
            }
        )
    }
}

/// Runs all configured exploration passes over a scenario, dispatching
/// executions across [`CheckConfig::workers`] threads. See the module
/// docs for the pipeline and the determinism contract. The run goes by
/// the harness's own label; a registered [`Scenario`](crate::Scenario)
/// runs under its registry name.
pub fn check<S: SpecTS, H: Harness<S>>(harness: &H, config: &CheckConfig) -> CheckReport {
    check_as(harness.name(), harness, config)
}

/// [`check`] under `name`: the one identity of the run, carried by the
/// report, every stream record's stamp, the resume WAL's guard and the
/// profile.
pub(crate) fn check_as<S: SpecTS, H: Harness<S>>(
    name: &str,
    harness: &H,
    config: &CheckConfig,
) -> CheckReport {
    let start = Instant::now();
    let mut driver = Driver::new(name, harness, config);
    let mut session = config.strategy.session(config);
    schedule_phase(&mut driver, session.as_mut());
    crash_sweeps(&mut driver);
    fault_sweeps(&mut driver);

    // Without keep_going, statistics and counterexamples are restricted
    // to jobs at or below the winning key — exactly the set a
    // canonical-order sequential run would have executed — which makes
    // the whole report worker-count independent. Sharded runs count only
    // owned outcomes (spine jobs executed for derivation are excluded),
    // so summing shard reports reproduces the unsharded totals.
    let mut counterexamples: Vec<Counterexample> = driver
        .outcomes
        .iter_mut()
        .flatten()
        .filter(|o| o.counted)
        .filter_map(|o| o.cx.take())
        .map(|cx| *cx)
        .collect();
    counterexamples.sort_by_key(|cx| cx.key());
    let cutoff = match counterexamples.first() {
        Some(first) if !driver.shared.cancel.keep_going => Some(first.key()),
        _ => None,
    };
    if let Some(cut) = cutoff {
        counterexamples.retain(|cx| cx.key() <= cut);
    }

    // Shrink the winning counterexample before the timeline is captured,
    // so the causal trace below is recorded from the *minimized*
    // schedule. Shrinking is sequential post-processing over one
    // counterexample, so the result is deterministic at every worker
    // count (DESIGN.md §16).
    let mut shrink = None;
    if let Some(first) = counterexamples.first_mut() {
        if config.shrink {
            shrink = Some(shrink_counterexample(harness, first, config.max_steps));
        }
        // Attach a causal timeline by re-running the winner with the
        // trace recorder on — a pure side channel: the timeline is
        // excluded from campaign JSON and fingerprints, so the report is
        // byte-identical with capture on or off.
        if config.trace_capture {
            first.timeline = rerun(harness, first, config.max_steps, true).exec_trace;
        }
    }

    // The profiler folds the same cutoff-filtered outcomes the report
    // statistics come from, so its counts inherit the worker-count
    // independence argument instead of needing their own.
    let mut profile = config.profile.then(ProfileBuilder::default);
    let mut report = aggregate(&driver.outcomes, cutoff, driver.coverage, profile.as_mut());
    report.name = name.to_string();
    report.workers = driver.workers;
    report.strategy = config.strategy.name().to_string();
    report.pruned = session.pruned();
    report.coverage_guided = session.guided();
    for pm in &mut report.per_pass {
        if pm.pass == Pass::Dfs {
            pm.pruned = report.pruned;
        }
        if pm.pass == Pass::Random {
            pm.coverage_guided = report.coverage_guided;
        }
    }
    report.counterexample = counterexamples.first().cloned();
    report.counterexamples = counterexamples;
    report.shrink = shrink;
    report.shard = config.shard;
    report.replayed = driver.shared.replayed.load(Ordering::Relaxed);
    let telem = &driver.shared.telem;
    if let Some(e) = telem.open_error() {
        report.incomplete.push(format!("telemetry degraded: {e}"));
    }
    if !driver.budget_open() {
        report.incomplete.push(format!(
            "execution budget of {} exhausted; later jobs were skipped",
            config.exec_budget
        ));
    }
    if let Some(e) = telem.stream_error() {
        report
            .incomplete
            .push(format!("telemetry stream error: {e}"));
    }
    report.wall_time = start.elapsed();
    report.execs_per_sec = report.executions as f64 / report.wall_time.as_secs_f64().max(1e-9);
    report.env = EnvStamp::current(driver.workers as u64, config.strategy.name());
    if let Some(p) = profile {
        let strategy = StrategyProfile {
            strategy: report.strategy.clone(),
            pruned: report.pruned,
            coverage_guided: report.coverage_guided,
            prunes_by_resource: session.prunes_by_resource(),
            coverage: session.coverage_introspection(),
        };
        let workers = driver.workers as u64;
        report.profile = Some(p.finish(name, strategy, workers, report.wall_time));
    }
    driver.shared.telem.close(&report);
    report
}

/// Schedule phase (ranks 0-1): the strategy decides which crash-free
/// schedules to run, as a wave loop with feedback. Each wave's job keys
/// are assigned in spec order before anything runs, and feedback
/// (frontier expansion, sleep-set pruning, coverage re-seeding) is applied
/// only from *complete* waves, so the explored set and the pruned/guided
/// counters are worker-count independent.
fn schedule_phase<S: SpecTS, H: Harness<S>>(
    driver: &mut Driver<'_, H>,
    session: &mut dyn StrategySession,
) {
    let profile = driver.shared.config.profile;
    let mut next_index = [0u64; Pass::ALL.len()];
    while driver.live() {
        let Some(wave) = session.next_wave() else {
            break;
        };
        let pass = wave.pass;
        let first = next_index[pass.rank() as usize];
        next_index[pass.rank() as usize] += wave.specs.len() as u64;
        let Some(outs) = driver.run_pass(pass, schedule_jobs(pass, first, &wave.specs)) else {
            break;
        };
        let observed: Vec<ObservedExec> = outs
            .iter_mut()
            .map(|o| {
                // Footprints and decision paths are the bulk of a
                // schedule-phase outcome: they live for this wave, not
                // the whole check.
                let deps = o.deps.take().map(|deps| *deps);
                if let (true, Some(deps)) = (profile, &deps) {
                    o.collisions = collisions(&o.decisions, deps);
                }
                ObservedExec {
                    slot: (o.key.1 - first) as usize,
                    decisions: std::mem::take(&mut o.decisions),
                    trace_fp: o.stats.trace_fp,
                    failed: o.kind != OutcomeKind::Ok,
                    deps,
                }
            })
            .collect();
        // A wave cut short is run (its executions were paid for) but
        // never observed: by a failure, later jobs were skipped, and
        // partial feedback would make strategy state depend on worker
        // timing; by the budget, on where the budget landed rather than
        // on canonical job order.
        if !driver.live() {
            break;
        }
        session.observe(pass, &observed);
    }
}

/// Ranks 2-6, on schedules fixed in advance: the systematic crash sweep
/// over the round-robin baseline and the random-crash pairs.
fn crash_sweeps<S: SpecTS, H: Harness<S>>(driver: &mut Driver<'_, H>) {
    let config = driver.shared.config;
    if config.passes.contains(Pass::CrashSweep) {
        crash_sweep(driver, config.passes.contains(Pass::NestedCrash));
    }
    if config.passes.contains(Pass::RandomCrash) {
        let jobs = random_crash_jobs(config.random_crash_samples as u64);
        driver.run_pass(Pass::RandomCrashProbe, jobs);
    }
}

/// Ranks 2-4: the baseline's crash-free horizon, one crash at every
/// grant up to it, then (`nested`) a second crash inside each recovery.
fn crash_sweep<S: SpecTS, H: Harness<S>>(driver: &mut Driver<'_, H>, nested: bool) {
    let Some(base) = driver.probe(Job::probe(Pass::CrashSweepBase, 0)) else {
        return;
    };
    let Some(sweep) = driver.run_pass(Pass::CrashSweep, crash_sweep_jobs(base.steps)) else {
        return;
    };
    if nested {
        let jobs = nested_crash_jobs(sweep.iter().map(|o| (o.key.1, o.stats.steps)));
        driver.run_pass(Pass::NestedCrash, jobs);
    }
}

/// Ranks 7-9: deterministic fault-injection sweeps, each on the surface
/// the harness declares. A pass probes the fault-free round-robin
/// schedule at index 0 to learn its enumeration horizon (grant count,
/// disk-op count, or message count), then enumerates one fault plan per
/// job at indices >= 1. The probe is deterministic, so the derived job
/// list — and hence every job key — is independent of worker count.
fn fault_sweeps<S: SpecTS, H: Harness<S>>(driver: &mut Driver<'_, H>) {
    let surface = driver.harness.fault_surface();
    let passes = driver.shared.config.passes;
    if passes.contains(Pass::DiskFault) && (surface.transient_disk_io || surface.two_disk) {
        disk_fault_sweep(driver, surface);
    }
    if passes.contains(Pass::TornWrite) && surface.torn_writes {
        if let Some(probe) = driver.probe(Job::probe(Pass::TornWrite, 0)) {
            driver.run_pass(Pass::TornWrite, torn_write_jobs(probe.steps));
        }
    }
    if passes.contains(Pass::NetFault) && surface.net {
        if let Some(probe) = driver.probe(Job::probe(Pass::NetFault, 0)) {
            driver.run_pass(Pass::NetFault, net_fault_jobs(probe.net_msgs));
        }
    }
}

/// Rank 7: transient I/O errors and permanent disk failures on the
/// baseline, then disk failures *during recovery*: probe one mid-schedule
/// crash to learn the recovery horizon, and fail each disk at every
/// post-crash grant count.
fn disk_fault_sweep<S: SpecTS, H: Harness<S>>(driver: &mut Driver<'_, H>, surface: FaultSurface) {
    let Some(probe) = driver.probe(Job::probe(Pass::DiskFault, 0)) else {
        return;
    };
    let horizon = probe.steps;
    let jobs = disk_fault_jobs(surface, horizon, probe.disk_ops);
    let next = 1 + jobs.len() as u64;
    if driver.run_pass(Pass::DiskFault, jobs).is_none() || !surface.two_disk || horizon == 0 {
        return;
    }
    let k = horizon / 2;
    if let Some(recovery) = driver.probe(Job::probe(Pass::DiskFault, next).crashing_at(k)) {
        let jobs = disk_fault_recovery_jobs(next + 1, k, recovery.steps);
        driver.run_pass(Pass::DiskFault, jobs);
    }
}

/// Folds the outcomes at or below `cutoff` that this shard counts into
/// the report's statistics, histograms, coverage and per-pass table (and
/// the profile, when one is being built). Everything else in the report
/// — names, verdict, strategy counters, timing — is the caller's.
fn aggregate(
    outcomes: &[Vec<JobOutcome>],
    cutoff: Option<JobKey>,
    mut coverage: Coverage,
    mut profile: Option<&mut ProfileBuilder>,
) -> CheckReport {
    let mut report = CheckReport::default();
    let mut per_pass: BTreeMap<Pass, PassMetrics> = BTreeMap::new();
    for out in outcomes.iter().flatten() {
        if !out.counted || cutoff.is_some_and(|cut| out.key > cut) {
            continue;
        }
        let stats = &out.stats;
        let failed = out.kind != OutcomeKind::Ok;
        let plans = usize::from(out.family.is_some());
        report.executions += 1;
        report.total_steps += stats.steps;
        report.crashes_injected += stats.crashes as usize;
        report.helped_ops += stats.helped;
        report.crash_points += out.swept;
        report.fault_plans += plans;
        report.disk_reads += stats.disk_reads;
        report.disk_writes += stats.disk_writes;
        report.disk_flushes += stats.disk_flushes;
        report.net_sends += stats.net_sends;
        report.net_recvs += stats.net_recvs;

        report.outcomes.record(out.kind);
        report.steps_hist.record(stats.steps);
        report.depth_hist.record(stats.depth);
        report.trace_fps.insert(stats.trace_fp);
        report.crash_point_set.extend(&out.crash_points);
        if let Some(family) = out.family {
            coverage.plans_exercised[family as usize] += 1;
        }
        let pm = per_pass.entry(out.pass).or_insert(PassMetrics {
            pass: out.pass,
            rank: out.key.0,
            ..PassMetrics::default()
        });
        pm.executions += 1;
        pm.steps += stats.steps;
        pm.crashes += stats.crashes;
        pm.fault_plans += plans as u64;
        pm.failures += u64::from(failed);
        pm.busy_time += out.duration;
        if let Some(p) = profile.as_deref_mut() {
            p.record_exec(out.pass, stats, out.wakeups, out.duration);
            p.record_lock_profile(&out.lock_profile);
            p.record_collisions(&out.collisions);
        }
    }
    coverage.crash_points_exercised = report.crash_point_set.len() as u64;
    coverage.distinct_traces = report.trace_fps.len() as u64;
    report.coverage = coverage;
    report.per_pass = per_pass.into_values().collect();
    report
}

/// Replays a counterexample: reruns the execution with the recorded
/// schedule, seed, and crash points, returning the (deterministic)
/// outcome and trace — the debugging entry point for a failing
/// [`Counterexample`].
///
/// DFS counterexamples carry a choice-index prefix; crash-sweep ones
/// replay round-robin with the recorded crash points; random-pass
/// counterexamples replay the recorded per-execution seed (plus the
/// corpus prefix, for coverage-guided samples).
pub fn replay<S: SpecTS, H: Harness<S>>(
    harness: &H,
    cx: &Counterexample,
    config: &CheckConfig,
) -> (ExecOutcome, String) {
    let r = rerun(harness, cx, config.max_steps, false);
    (r.outcome, r.trace)
}

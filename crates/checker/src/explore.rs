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
use crate::harness::{AnyHarness, Erased, Harness};
use crate::jobs::{
    crash_sweep_jobs, disk_fault_jobs, disk_fault_recovery_jobs, nested_crash_jobs, net_fault_jobs,
    random_crash_jobs, random_crash_probes, schedule_jobs, torn_write_jobs, Driver, Job, JobKey,
    JobOutcome,
};
use crate::metrics::{
    credit_session, fold_passes, Coverage, Histogram, OutcomeCounts, OutcomeKind, PassMetrics,
};
use crate::pass::Pass;
use crate::profile::{collisions, ProfileBuilder, StrategyProfile};
use crate::strategy::{ObservedExec, StrategySession};
use crate::telemetry::{EnvStamp, ScheduleEnd};
use goose_rt::fault::FaultSurface;
use perennial_spec::SpecTS;
use std::collections::BTreeSet;
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
}

/// Runs all configured exploration passes over a scenario, dispatching
/// executions across [`CheckConfig::workers`] threads. See the module
/// docs for the pipeline and the determinism contract. The run goes by
/// the harness's own label; a registered [`Scenario`](crate::Scenario)
/// runs under its registry name.
pub fn check<S: SpecTS, H: Harness<S>>(harness: &H, config: &CheckConfig) -> CheckReport {
    check_as(harness.name(), &Erased::new(harness), config)
}

/// [`check`] under `name`: the one identity of the run, carried by the
/// report, every stream record's stamp, the resume WAL's guard and the
/// profile.
pub(crate) fn check_as(name: &str, harness: &dyn AnyHarness, config: &CheckConfig) -> CheckReport {
    let start = Instant::now();
    let mut driver = Driver::new(name, harness, config);
    let mut session = config.strategy.session(config);
    let (pruned, coverage_guided) = schedule_phase(&mut driver, session.as_mut());
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
            shrink = Some(crate::shrink::shrink(harness, first, config.max_steps));
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
    report.pruned = pruned;
    report.coverage_guided = coverage_guided;
    credit_session(&mut report.per_pass, report.pruned, report.coverage_guided);
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
        report.profile = Some(p.finish(&report, strategy));
    }
    // Read once the stream is closed: a write error on the closing
    // records or the final flush counts too.
    let telem = &mut driver.shared.telem;
    telem.close(&report);
    if let Some(e) = telem.stream_error() {
        report
            .incomplete
            .push(format!("telemetry stream error: {e}"));
    }
    report
}

/// Schedule phase (ranks 0-1): replayed whole from the resume WAL if it
/// closed the phase (`Driver::replay_schedule`), or else run live. Either
/// way, a phase that closed writes its `schedule_end`, and the session's
/// pruned/guided counters come back.
fn schedule_phase(driver: &mut Driver<'_>, session: &mut dyn StrategySession) -> (u64, u64) {
    let end = driver
        .replay_schedule()
        .or_else(|| live_schedule_phase(driver, session));
    if let Some(end) = &end {
        driver.shared.telem.schedule_end(end);
    }
    match end {
        Some(end) => (end.pruned, end.coverage_guided),
        None => (session.pruned(), session.guided()),
    }
}

/// The live schedule phase: the strategy decides which crash-free
/// schedules to run, as a wave loop with feedback. Each wave's job keys
/// are assigned in spec order before anything runs, and feedback
/// (frontier expansion, sleep-set pruning, coverage re-seeding) is applied
/// only from *complete* waves, so the explored set and the pruned/guided
/// counters are worker-count independent. Returns how the phase closed;
/// `None` when the execution budget cut it.
fn live_schedule_phase(
    driver: &mut Driver<'_>,
    session: &mut dyn StrategySession,
) -> Option<ScheduleEnd> {
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
                let deps = o.deps.take();
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
        for o in observed {
            driver.spares.recycle(o.decisions, o.deps);
        }
    }
    driver.budget_open().then_some(ScheduleEnd {
        jobs: [next_index[0], next_index[1]],
        pruned: session.pruned(),
        coverage_guided: session.guided(),
        cancelled: driver.shared.cancel.cancelled(),
    })
}

/// Ranks 2-6, on schedules fixed in advance: the systematic crash sweep
/// over the round-robin baseline, then random schedules probed crash-free
/// (rank 5) and each one that passed re-run with a crash point below its
/// horizon (rank 6).
fn crash_sweeps(driver: &mut Driver<'_>) {
    let config = driver.shared.config;
    if config.passes.contains(Pass::CrashSweep) {
        crash_sweep(driver, config.passes.contains(Pass::NestedCrash));
    }
    if config.passes.contains(Pass::RandomCrash) {
        let probes = random_crash_probes(config.random_crash_samples as u64);
        let Some(probed) = driver.run_pass(Pass::RandomCrashProbe, probes) else {
            return;
        };
        let passed = probed.iter().filter(|o| o.kind == OutcomeKind::Ok);
        let jobs = random_crash_jobs(config.seed, passed.map(|o| (o.key.1, o.stats.steps)));
        driver.run_pass(Pass::RandomCrash, jobs);
    }
}

/// Ranks 2-4: the baseline's crash-free horizon, one crash at every
/// grant up to it, then (`nested`) a second crash inside each recovery.
fn crash_sweep(driver: &mut Driver<'_>, nested: bool) {
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
fn fault_sweeps(driver: &mut Driver<'_>) {
    let surface = driver.shared.harness.fault_surface();
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
fn disk_fault_sweep(driver: &mut Driver<'_>, surface: FaultSurface) {
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
/// the report's statistics, histograms and coverage, and each once into
/// its pass's row (and the profile's resource table, when one is being
/// built). Everything else in the report — names, verdict, strategy
/// counters, timing — is the caller's.
fn aggregate(
    outcomes: &[Vec<JobOutcome>],
    cutoff: Option<JobKey>,
    mut coverage: Coverage,
    mut profile: Option<&mut ProfileBuilder>,
) -> CheckReport {
    let mut report = CheckReport::default();
    let kept = |out: &&JobOutcome| out.counted && cutoff.is_none_or(|cut| out.key <= cut);
    let counted = || outcomes.iter().flatten().filter(kept);
    for out in counted() {
        let stats = &out.stats;
        report.executions += 1;
        report.total_steps += stats.steps;
        report.crashes_injected += stats.crashes as usize;
        report.helped_ops += stats.helped;
        report.crash_points += out.swept as usize;
        report.fault_plans += usize::from(out.family.is_some());
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
        if let Some(p) = profile.as_deref_mut() {
            p.record_lock_profile(&out.lock_profile);
            p.record_collisions(&out.collisions);
        }
    }
    report.per_pass = fold_passes(counted().map(|out| {
        let (failed, faulted) = (out.kind != OutcomeKind::Ok, out.family.is_some());
        PassMetrics {
            steps_run: out.steps_run,
            wakeups: out.wakeups,
            ..PassMetrics::exec(out.pass, &out.stats, failed, faulted, out.duration)
        }
    }));
    coverage.crash_points_exercised = report.crash_point_set.len() as u64;
    coverage.distinct_traces = report.trace_fps.len() as u64;
    report.coverage = coverage;
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
    let r = rerun(&Erased::new(harness), cx, config.max_steps, false);
    (r.outcome, r.trace)
}

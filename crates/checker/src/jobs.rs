//! Jobs: the unit the explorer derives, admits, runs and aggregates.
//!
//! A [`Job`] is one execution with a canonical key assigned before
//! anything runs. Each sweep's job list is a pure function of a probe's
//! horizon (the `*_jobs` functions below); the
//! [`Driver`] admits a list against the execution budget, runs it as one
//! wave across the worker pool — the crash sweeps' jobs in groups forked
//! off one shared execution ([`execute_group`]) — and keeps the
//! [`JobOutcome`]s for aggregation. Shard ownership, WAL replay and
//! minimum-key cancellation are all decided per job, in `Group::execute`
//! or at the job's fork, from state every worker shares ([`Shared`]).

use crate::config::CheckConfig;
use crate::exec::{
    cx_policy, rerun, run_one, run_stopping, Counterexample, Exec, ExecOutcome, ExecSpec, Policy,
    RunResult,
};
use crate::harness::{AnyHarness, Worlds};
use crate::metrics::{Coverage, FaultFamily, OutcomeKind};
use crate::pass::Pass;
use crate::strategy::{Buffers, DepTrace, ScheduleSpec, Spares};
use crate::telemetry::{self, CxRecord, ExecStats, RunTelemetry, ScheduleEnd, WalReplay};
use goose_rt::fault::{FaultPlan, FaultSurface, NetFault, TornMode};
use goose_rt::splitmix64;
use parking_lot::Mutex;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Canonical job key: (pass rank, index within the pass).
pub(crate) type JobKey = (u8, u64);

/// Derives the per-execution seed: `hash(base_seed, pass_rank, index)`.
/// Every execution's randomness is a pure function of these three, which
/// is what makes parallel and sequential runs indistinguishable.
fn exec_seed(base: u64, rank: u8, index: u64) -> u64 {
    splitmix64(splitmix64(base ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ index)
}

/// Deterministic shard assignment for a job key: a splitmix hash of
/// `(rank, index)` reduced mod `n`. Pure function of the key, so every
/// process — and every worker count — agrees on who owns which job
/// (DESIGN.md §13).
pub fn shard_of(key: (u8, u64), n: u32) -> u32 {
    if n <= 1 {
        return 0;
    }
    let mixed = splitmix64(((key.0 as u64) << 56) ^ key.1.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (mixed % n as u64) as u32
}

#[derive(Debug)]
pub(crate) struct Job {
    key: JobKey,
    /// The rank whose seed at this job's index the execution draws: its
    /// own, but for a random-crash job, which replays its probe's
    /// schedule. (A rank, not a key: it fits in padding the job has.)
    seed_rank: u8,
    pass: Pass,
    policy: Policy,
    /// Record each grant's dependency footprint (DPOR's DFS jobs).
    track_deps: bool,
    crash_points: Vec<u64>,
    /// Distinct crash points this job sweeps (for the report counter).
    swept: u32,
    /// The fault plan injected into this job's execution.
    faults: FaultPlan,
    /// Whether later job derivation depends on this execution's result
    /// (horizon probes). Probes run in every shard — a shard that
    /// skipped them could not enumerate the same downstream job keys —
    /// but are counted only by their owner.
    probe: bool,
}

impl Job {
    /// A fault-free single execution (the common case), at `index` of
    /// `pass`.
    fn new(pass: Pass, index: u64, policy: Policy) -> Job {
        Job {
            key: (pass.rank(), index),
            seed_rank: pass.rank(),
            pass,
            policy,
            track_deps: false,
            crash_points: Vec::new(),
            swept: 0,
            faults: FaultPlan::default(),
            probe: false,
        }
    }

    /// The sweeps' baseline: the round-robin schedule, at `index` of `pass`.
    fn round_robin(pass: Pass, index: u64) -> Job {
        Job::new(pass, index, Policy::RoundRobin)
    }

    /// A horizon probe: the fault-free baseline whose step, disk-op or
    /// message count the pass's remaining jobs are enumerated from.
    pub(crate) fn probe(pass: Pass, index: u64) -> Job {
        Job {
            probe: true,
            ..Job::round_robin(pass, index)
        }
    }

    /// This job, also crashing at `k`.
    pub(crate) fn crashing_at(self, k: u64) -> Job {
        Job {
            crash_points: vec![k],
            swept: 1,
            ..self
        }
    }
}

// ---------------------------------------------------------------------
// Derivation: horizon -> job list, one pure function per sweep. Keys are
// strictly increasing within a pass (and dense, but for random-crash's,
// which keep their probe's index), so a job list is the same at every
// worker count, in every shard and on every resume.
// ---------------------------------------------------------------------

/// Schedule phase (ranks 0-1): one job per spec of a strategy wave, keyed
/// in spec order from `first`.
pub(crate) fn schedule_jobs(pass: Pass, first: u64, specs: &[ScheduleSpec]) -> Vec<Job> {
    specs
        .iter()
        .zip(first..)
        .map(|(spec, index)| {
            let (policy, track_deps) = match spec {
                ScheduleSpec::Dfs { prefix, track_deps } => {
                    (Policy::DfsPrefix(prefix.clone()), *track_deps)
                }
                ScheduleSpec::Random { prefix } => (Policy::Random(prefix.clone()), false),
            };
            Job {
                track_deps,
                ..Job::new(pass, index, policy)
            }
        })
        .collect()
}

/// Rank 3: one crash at every grant count up to the baseline's horizon.
pub(crate) fn crash_sweep_jobs(horizon: u64) -> Vec<Job> {
    (0..horizon)
        .map(|k| Job::round_robin(Pass::CrashSweep, k).crashing_at(k))
        .collect()
}

/// Rank 4: a second crash at every step of each recovery, in `(k, m)`
/// order from the first-level sweep's `(crash point, steps)` results.
pub(crate) fn nested_crash_jobs(sweep: impl IntoIterator<Item = (u64, u64)>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (k, steps) in sweep {
        for m in 0..steps.saturating_sub(k + 1) {
            jobs.push(Job {
                crash_points: vec![k, k + 1 + m],
                swept: 1,
                ..Job::round_robin(Pass::NestedCrash, jobs.len() as u64)
            });
        }
    }
    jobs
}

/// Rank 5: random schedules, run crash-free to measure their horizons.
pub(crate) fn random_crash_probes(samples: u64) -> Vec<Job> {
    (0..samples)
        .map(|i| Job {
            probe: true,
            ..Job::new(Pass::RandomCrashProbe, i, Policy::Random(Vec::new()))
        })
        .collect()
}

/// Rank 6: each probe that passed, as `(index, steps)`, re-run at its
/// index on its seed — so the schedule replays — with one crash point
/// drawn from that seed below the probe's horizon.
pub(crate) fn random_crash_jobs(
    seed: u64,
    passed: impl IntoIterator<Item = (u64, u64)>,
) -> Vec<Job> {
    let probe_rank = Pass::RandomCrashProbe.rank();
    passed
        .into_iter()
        .map(|(i, steps)| {
            let k = splitmix64(exec_seed(seed, probe_rank, i)) % steps.max(1);
            let job = Job::new(Pass::RandomCrash, i, Policy::Random(Vec::new()));
            Job {
                seed_rank: probe_rank,
                ..job.crashing_at(k)
            }
        })
        .collect()
}

/// One baseline job per fault plan, keyed from `first` in plan order.
fn fault_jobs(pass: Pass, first: u64, plans: impl Iterator<Item = FaultPlan>) -> Vec<Job> {
    plans
        .zip(first..)
        .map(|(faults, index)| Job {
            faults,
            ..Job::round_robin(pass, index)
        })
        .collect()
}

/// Either disk failing for good at each of `grants`.
fn disk_failures(grants: std::ops::Range<u64>) -> impl Iterator<Item = FaultPlan> {
    grants.flat_map(|g| {
        [1u8, 2u8].map(|d| FaultPlan {
            disk_fail: Some((d, g)),
            ..FaultPlan::default()
        })
    })
}

/// Rank 7, after the probe at index 0: a transient I/O error on every
/// disk op, then (on two-disk substrates) a permanent single-disk failure
/// at every grant count.
pub(crate) fn disk_fault_jobs(surface: FaultSurface, horizon: u64, disk_ops: u64) -> Vec<Job> {
    let transient_ops = if surface.transient_disk_io {
        disk_ops
    } else {
        0
    };
    let failing_grants = if surface.two_disk { horizon } else { 0 };
    let transient = (0..transient_ops).map(|op| FaultPlan {
        transient_io: [op].into(),
        ..FaultPlan::default()
    });
    fault_jobs(
        Pass::DiskFault,
        1,
        transient.chain(disk_failures(0..failing_grants)),
    )
}

/// Rank 7, disk failure *during recovery*: with one crash at `k`, whose
/// probe took `recovered` steps, fail each disk at every post-crash grant
/// count. Keyed from `first`, after that probe.
pub(crate) fn disk_fault_recovery_jobs(first: u64, k: u64, recovered: u64) -> Vec<Job> {
    fault_jobs(Pass::DiskFault, first, disk_failures(k + 1..recovered))
        .into_iter()
        .map(|job| job.crashing_at(k))
        .collect()
}

/// Rank 8, after the probe at index 0: at every crash point of the
/// baseline, crashes that persist none or a pseudo-random subset of the
/// unflushed write buffer (persisting *all* of it is exactly the plain
/// crash sweep).
pub(crate) fn torn_write_jobs(horizon: u64) -> Vec<Job> {
    const MODES: [TornMode; 3] = [TornMode::KeepNone, TornMode::Subset(0), TornMode::Subset(1)];
    let crashes = (0..horizon).flat_map(|k| MODES.map(|mode| (k, mode)));
    crashes
        .zip(1..)
        .map(|((k, mode), index)| Job {
            faults: FaultPlan {
                torn: Some(mode),
                ..FaultPlan::default()
            },
            ..Job::round_robin(Pass::TornWrite, index).crashing_at(k)
        })
        .collect()
}

/// Rank 9, after the probe at index 0: drop, duplicate, or delay each
/// message of the baseline, one fault per execution.
pub(crate) fn net_fault_jobs(net_msgs: u64) -> Vec<Job> {
    const FAULTS: [NetFault; 3] = [NetFault::Drop, NetFault::Duplicate, NetFault::Delay];
    let plans = (0..net_msgs).flat_map(|msg| {
        FAULTS.map(|fault| FaultPlan {
            net: [(msg, fault)].into(),
            ..FaultPlan::default()
        })
    });
    fault_jobs(Pass::NetFault, 1, plans)
}

// ---------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------

/// What the check keeps of one execution until aggregation.
pub(crate) struct JobOutcome {
    pub key: JobKey,
    pub pass: Pass,
    pub swept: u32,
    /// Which surface the job's fault plan exercised; `None` for an
    /// empty plan (fault-plan and coverage accounting).
    pub family: Option<FaultFamily>,
    /// What the execution measured, live or read back from the WAL.
    pub stats: ExecStats,
    /// Steps this process executed for it (`RunResult::steps_run`), plus,
    /// on the first job of a crash-sweep group, those of the executions
    /// the group's jobs were forked off; 0 when read back from the WAL.
    pub steps_run: u64,
    /// How the execution ended (outcome histogram feed).
    pub kind: OutcomeKind,
    /// Crash points this execution injected (coverage accounting).
    pub crash_points: Vec<u64>,
    /// Whether this shard owns the job key. Spine executions (schedule
    /// phase, probes) run everywhere but count toward statistics and
    /// counterexample selection only in the owning shard, which is what
    /// makes shard reports exactly summable.
    pub counted: bool,
    /// Per-lock split of `stats.lock_blocks` and hand-off wake-ups
    /// (profiler feed; empty and 0 for WAL-replayed outcomes).
    pub lock_profile: Vec<(u64, u64)>,
    pub wakeups: u64,
    /// Wall time of the execution (telemetry only; the lone
    /// non-deterministic field here).
    pub duration: Duration,
    /// Full decision path and dependency observations of a
    /// schedule-phase job, until the wave's strategy feedback takes them.
    pub decisions: Vec<(usize, usize)>,
    pub deps: Option<Box<DepTrace>>,
    /// What the profiler keeps of `deps` (`profile::collisions`).
    pub collisions: Vec<(u64, u64)>,
    /// Boxed: failures are rare, and an inline counterexample more than
    /// doubles every outcome the campaign keeps until aggregation.
    pub cx: Option<Box<Counterexample>>,
}

impl JobOutcome {
    /// The outcome of a replayed execution: deterministic job metadata
    /// around the recorded statistics, and nothing only a live run has.
    fn new(job: &Job, counted: bool, kind: OutcomeKind, stats: ExecStats) -> JobOutcome {
        JobOutcome {
            key: job.key,
            pass: job.pass,
            swept: job.swept,
            family: FaultFamily::of(&job.faults),
            stats,
            steps_run: 0,
            kind,
            crash_points: job.crash_points.clone(),
            counted,
            lock_profile: Vec::new(),
            wakeups: 0,
            duration: Duration::ZERO,
            decisions: Vec::new(),
            deps: None,
            collisions: Vec::new(),
            cx: None,
        }
    }
}

// ---------------------------------------------------------------------
// Running jobs
// ---------------------------------------------------------------------

/// Shared cancellation state: the minimum-key counterexample found so
/// far, plus a cheap "anything failed yet?" flag.
pub(crate) struct Cancel {
    pub keep_going: bool,
    stop: AtomicBool,
    best: Mutex<Option<JobKey>>,
}

impl Cancel {
    fn new(keep_going: bool) -> Self {
        Cancel {
            keep_going,
            stop: AtomicBool::new(false),
            best: Mutex::new(None),
        }
    }

    /// Whether a job with this key still needs to run. Skipping only
    /// jobs whose key is *greater* than a known failure's key preserves
    /// determinism: the minimum-key failure can never be skipped, so the
    /// reported counterexample is independent of worker timing.
    fn should_run(&self, key: JobKey) -> bool {
        if self.keep_going || !self.stop.load(Ordering::Relaxed) {
            return true;
        }
        match *self.best.lock() {
            Some(best) => key < best,
            None => true,
        }
    }

    fn offer(&self, key: JobKey) {
        let mut best = self.best.lock();
        if best.is_none_or(|b| key < b) {
            *best = Some(key);
        }
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether the exploration should stop scheduling further waves:
    /// a failure has been found and the config asked for early exit.
    pub(crate) fn cancelled(&self) -> bool {
        !self.keep_going && self.stop.load(Ordering::Relaxed)
    }
}

/// What every worker shares while a wave runs.
pub(crate) struct Shared<'a> {
    pub harness: &'a dyn AnyHarness,
    pub config: &'a CheckConfig,
    pub cancel: Cancel,
    pub telem: RunTelemetry,
    /// The sweeps' completed `ok` executions from the resume WAL, keyed
    /// by job key (the schedule phase's replay as a whole:
    /// [`Driver::replay_schedule`]).
    replay: BTreeMap<JobKey, ExecStats>,
    /// Executions satisfied from the WAL instead of run.
    pub replayed: AtomicU64,
}

impl Shared<'_> {
    /// The execution seed of `job`.
    fn seed(&self, job: &Job) -> u64 {
        exec_seed(self.config.seed, job.seed_rank, job.key.1)
    }

    /// Whether the resume WAL already holds `job`.
    fn replays(&self, job: &Job) -> bool {
        self.replay.contains_key(&job.key)
    }

    /// `job`'s outcome read back from its `ok` record instead of run:
    /// deterministic job metadata around the recorded statistics, counted
    /// in `replayed`.
    fn read_back(&self, job: &Job, counted: bool, stats: ExecStats) -> JobOutcome {
        self.replayed.fetch_add(1, Ordering::Relaxed);
        JobOutcome::new(job, counted, OutcomeKind::Ok, stats)
    }

    /// Whether `job` runs live in this process: its shard executes it and
    /// the resume WAL does not hold it.
    fn runs_live(&self, job: &Job) -> bool {
        (self.owns(job.key) || self.is_spine(job)) && !self.replays(job)
    }

    /// The spec `job` runs under, in buffers of its own.
    fn spec<'j>(&self, job: &'j Job, seed: u64) -> ExecSpec<'j> {
        ExecSpec {
            policy: job.policy.clone(),
            crash_points: &job.crash_points,
            faults: &job.faults,
            seed,
            max_steps: self.config.max_steps,
            track_deps: job.track_deps,
            capture_trace: false,
            render_trace: false,
            buffers: Buffers::default(),
        }
    }

    fn owns(&self, key: JobKey) -> bool {
        match self.config.shard {
            None => true,
            Some((i, n)) => shard_of(key, n) == i,
        }
    }

    /// Whether every shard must *execute* this job even when it does
    /// not own it: its result feeds deterministic job derivation or
    /// strategy feedback, which must be identical across shards. The
    /// nested sweep promotes the first-level crash sweep into the spine:
    /// its enumeration needs every rank-3 step count.
    fn is_spine(&self, job: &Job) -> bool {
        job.probe
            || matches!(job.pass, Pass::Dfs | Pass::Random)
            || (job.pass == Pass::CrashSweep && self.config.passes.contains(Pass::NestedCrash))
    }
}

/// Whether `job` is in the fixed sample a debug build re-runs by itself
/// ([`CROSS_CHECKED`]).
fn sampled(job: &Job) -> bool {
    cfg!(debug_assertions) && shard_of(job.key, CROSS_CHECKED) == 0
}

/// `job` run by itself on an OS thread of its own, whose pool is empty,
/// so its world is fresh from `make`: nothing of this one's (its
/// contexts, its worlds, its allocation counts) is shared with the check.
fn isolated(shared: &Shared<'_>, job: &Job, seed: u64) -> RunResult {
    let (harness, spec) = (shared.harness, shared.spec(job, seed));
    std::thread::scope(|scope| scope.spawn(|| run_one(&Worlds::new(harness), spec)).join())
        .expect("a re-run is isolated: it does not panic")
}

/// A live execution of `job`, recorded in the telemetry stream
/// (`exec_done`, live counters, `counterexample`) and offered for
/// cancellation if it failed. The `exec_done` record doubles as the WAL
/// entry, so a replayed execution emits nothing: its record is already in
/// the log. A sweep job's decision path goes back to `spares`.
fn record(
    shared: &Shared<'_>,
    job: &Job,
    seed: u64,
    counted: bool,
    r: RunResult,
    spares: &mut Spares,
) -> JobOutcome {
    let kind = OutcomeKind::of(&r.outcome);
    let (telem, index) = (&shared.telem, job.key.1);
    telem.exec_done(
        (job.pass, index),
        seed,
        kind,
        &r.stats,
        &job.faults,
        r.duration,
    );
    let mut cx = None;
    if r.outcome.is_failure() {
        let found = Counterexample {
            clamped: r.clamped,
            trace: r.trace,
            ..counterexample_of(job, seed, r.outcome)
        };
        telem.counterexample(&found);
        shared.cancel.offer(job.key);
        cx = Some(Box::new(found));
    }
    JobOutcome {
        steps_run: r.steps_run,
        lock_profile: r.lock_profile,
        wakeups: r.wakeups,
        duration: r.duration,
        // The strategies feed on schedule-phase decision paths; the
        // sweeps' are not kept.
        decisions: if job.pass < Pass::CrashSweepBase {
            r.decisions
        } else {
            spares.recycle(r.decisions, None);
            Vec::new()
        },
        deps: r.deps,
        cx,
        ..JobOutcome::new(job, counted, kind, r.stats)
    }
}

/// `job`'s counterexample, with no trace text or clamps yet.
fn counterexample_of(job: &Job, seed: u64, outcome: ExecOutcome) -> Counterexample {
    Counterexample {
        outcome,
        pass: job.pass,
        index: job.key.1,
        seed,
        schedule_prefix: job.policy.prefix().to_vec(),
        crash_points: job.crash_points.clone(),
        clamped: Vec::new(),
        faults: job.faults.clone(),
        trace: String::new(),
        timeline: None,
    }
}

/// In debug builds, the passing forks and the executions a reused world
/// served whose job key falls in shard 0 of this many are also run by
/// themselves in a fresh world and compared field by field
/// (`Group::confirm`, `Group::run_alone`): one in eight, fixed by the key,
/// which keeps the debug test suite's time within reach of what it was
/// before forking.
const CROSS_CHECKED: u32 = 8;

/// The jobs one worker takes together, in key order: the whole crash
/// sweep (rank 3), one first-level crash point of the nested sweep
/// (rank 4), or any other single job.
fn groups(jobs: &[Job]) -> Vec<&[Job]> {
    match jobs.first().map(|job| job.pass) {
        Some(Pass::CrashSweep) => vec![jobs],
        Some(Pass::NestedCrash) => jobs
            .chunk_by(|a, b| a.crash_points[0] == b.crash_points[0])
            .collect(),
        _ => jobs.chunks(1).collect(),
    }
}

/// Runs one group's jobs in key order, appending their outcomes to
/// `outs`. The crash sweeps run the prefix
/// their jobs share once and fork each job off it at its crash point
/// (DESIGN.md §9); a job the shared execution cannot serve — it drew
/// model randomness first, or ended before the job's crash point — is
/// run by itself. Shards, the WAL and cancellation decide per job, as
/// [`Group::execute`] does. Executions fill buffers from `spares`. Any
/// job whose debug cross-check found a difference panics once the group
/// is done, naming the first.
fn execute_group(
    (shared, worlds): (&Shared<'_>, &Worlds<'_>),
    jobs: &[Job],
    outs: &mut Vec<JobOutcome>,
    spares: &mut Spares,
) {
    let mut group = Group {
        shared,
        worlds,
        spares,
        jobs,
        done: 0,
        first: outs.len(),
        outs,
        shared_steps: 0,
        mismatch: None,
    };
    match jobs.first().map(|job| job.pass) {
        Some(Pass::CrashSweep) => group.crash_sweep(),
        Some(Pass::NestedCrash) => group.nested_sweep(),
        _ => {}
    }
    group.finish()
}

/// A group's jobs as they are worked off, in key order.
struct Group<'g, 'a> {
    shared: &'g Shared<'a>,
    /// The worker's pool: the shared executions and the jobs forked off
    /// them take their worlds from it.
    worlds: &'g Worlds<'a>,
    spares: &'g mut Spares,
    jobs: &'g [Job],
    /// Jobs handled so far.
    done: usize,
    /// Where the group's outcomes start in `outs`.
    first: usize,
    outs: &'g mut Vec<JobOutcome>,
    /// Steps the shared executions ran, which no job's own count holds.
    shared_steps: u64,
    /// How the first cross-checked job that differed from its re-run
    /// differed ([`Group::note`]).
    mismatch: Option<String>,
}

impl<'g> Group<'g, '_> {
    /// The crash point at `level` of each job that runs live, ascending.
    fn stops(&self, level: usize) -> Vec<u64> {
        let live = self.jobs.iter().filter(|job| self.shared.runs_live(job));
        live.map(|job| job.crash_points[level]).collect()
    }

    /// A round-robin execution with `crash_points`, seeded like the
    /// group's first job.
    fn round_robin(&mut self, crash_points: &'g [u64]) -> ExecSpec<'g> {
        let first: &'g Job = &self.jobs[0];
        ExecSpec {
            crash_points,
            buffers: self.spares.take(false),
            ..self.shared.spec(first, self.shared.seed(first))
        }
    }

    /// Done with a shared execution: its steps counted, its decision
    /// path kept for the next execution.
    fn shared_done(&mut self, r: RunResult) {
        self.shared_steps += r.steps_run;
        self.spares.recycle(r.decisions, None);
    }

    /// Rank 3: the round-robin base, each job forked off it at its crash
    /// point.
    fn crash_sweep(&mut self) {
        let stops = self.stops(0);
        if stops.is_empty() {
            return;
        }
        let (worlds, base) = (self.worlds, self.round_robin(&[]));
        let base = run_stopping(worlds, base, None, &stops, &mut |here| self.fork(here, 0));
        self.shared_done(base);
    }

    /// Rank 4, one first-level crash point `k`: the round-robin base to
    /// `k`, the first-level job forked off it there, and each second
    /// crash forked off that one's recovery. A base that is not the
    /// first-level job's prefix serves no job of the group.
    fn nested_sweep(&mut self) {
        let stops = self.stops(1);
        if stops.is_empty() {
            return;
        }
        let (worlds, jobs) = (self.worlds, self.jobs);
        let k = &jobs[0].crash_points[..1];
        let base = self.round_robin(&[]);
        let base = run_stopping(worlds, base, None, k, &mut |here| {
            if here.shareable() {
                let first = self.round_robin(k);
                let at = &mut |here: &Exec| self.fork(here, 1);
                let first = run_stopping(worlds, first, Some(here), &stops, at);
                self.shared_done(first);
            }
        });
        self.shared_done(base);
    }

    /// At a stop of a shared execution: the jobs before the one crashing
    /// here are worked off, and that one is forked off it — or run by
    /// itself, if the execution is not its prefix.
    fn fork(&mut self, here: &Exec, level: usize) {
        let k = here.step();
        let Some(i) = (self.done..self.jobs.len()).find(|&i| self.jobs[i].crash_points[level] == k)
        else {
            return;
        };
        self.catch_up(i);
        self.done = i + 1;
        let (shared, job) = (self.shared, &self.jobs[i]);
        if !shared.cancel.should_run(job.key) {
            return;
        }
        let seed = shared.seed(job);
        let r = if here.shareable() {
            let spec = ExecSpec {
                buffers: self.spares.take(job.track_deps),
                ..shared.spec(job, seed)
            };
            let forked = run_stopping(self.worlds, spec, Some(here), &[], &mut |_| {});
            self.confirm(job, seed, forked)
        } else {
            self.run_alone(job, seed)
        };
        let counted = shared.owns(job.key);
        let out = record(shared, job, seed, counted, r, self.spares);
        self.outs.push(out);
    }

    /// Holds a fork to what a re-run of its job gives: in debug builds a
    /// fixed sample of the forks ([`sampled`]), in all builds every
    /// failing one — a failing fork's counterexample text is its
    /// re-run's ([`rerun`]).
    fn confirm(&mut self, job: &Job, seed: u64, forked: RunResult) -> RunResult {
        let failed = forked.outcome.is_failure();
        if !failed && !sampled(job) {
            return forked;
        }
        let (harness, max_steps) = (self.shared.harness, self.shared.config.max_steps);
        let again = if failed {
            let cx = counterexample_of(job, seed, forked.outcome.clone());
            rerun(harness, &cx, max_steps, false)
        } else {
            isolated(self.shared, job, seed)
        };
        let (diff, key) = (forked.difference(&again), job.key);
        self.note(diff, |diff| {
            format!("the fork of job {key:?} differs from its re-run in {diff}")
        });
        RunResult {
            clamped: again.clamped,
            trace: again.trace,
            ..forked
        }
    }

    /// Works off the jobs before `upto` that no shared execution served:
    /// each replayed, skipped or run by itself.
    fn catch_up(&mut self, upto: usize) {
        let jobs = self.jobs;
        for job in &jobs[self.done..upto] {
            self.execute(job);
        }
        self.done = self.done.max(upto);
    }

    /// Runs one job by itself and appends its outcome, applying shard
    /// ownership: leaf jobs other shards own are skipped, spine jobs run
    /// but are not counted. A job that completed in the resume WAL is
    /// read back from it instead: only `ok` records are in the map, and
    /// every field of the outcome is deterministic job metadata or a
    /// recorded statistic, so a resumed run aggregates to the same report
    /// as a cold one.
    fn execute(&mut self, job: &Job) {
        let shared = self.shared;
        let owned = shared.owns(job.key);
        if !(owned || shared.is_spine(job)) || !shared.cancel.should_run(job.key) {
            return;
        }
        let out = match shared.replay.get(&job.key) {
            Some(&stats) => shared.read_back(job, owned, stats),
            None => {
                let seed = shared.seed(job);
                let r = self.run_alone(job, seed);
                record(shared, job, seed, owned, r, self.spares)
            }
        };
        self.outs.push(out);
    }

    /// `job` run from its first step in a world from the pool. In debug
    /// builds, a fixed sample of the executions a reused world served
    /// ([`sampled`]) is held to a fresh world's.
    fn run_alone(&mut self, job: &Job, seed: u64) -> RunResult {
        let spec = ExecSpec {
            buffers: self.spares.take(job.track_deps),
            ..self.shared.spec(job, seed)
        };
        let r = run_one(self.worlds, spec);
        if r.reused && sampled(job) {
            let (diff, key) = (r.difference(&isolated(self.shared, job, seed)), job.key);
            self.note(diff, |diff| {
                format!("job {key:?} run in a reused world differs from a fresh world in {diff}")
            });
        }
        r
    }

    /// Keeps the first difference a cross-check found, for
    /// [`Group::finish`] to panic with: a panic here, inside a shared
    /// execution's stop, would be that execution's harness panic.
    fn note(&mut self, diff: Option<String>, says: impl FnOnce(String) -> String) {
        if let (Some(diff), None) = (diff, &self.mismatch) {
            let name = self.shared.telem.name();
            self.mismatch = Some(format!("{name}: {}", says(diff)));
        }
    }

    /// Works off every job left. Panics if a cross-check found a
    /// difference.
    fn finish(mut self) {
        self.catch_up(self.jobs.len());
        if let Some(first) = self.outs.get_mut(self.first) {
            first.steps_run += self.shared_steps;
        }
        if let Some(mismatch) = self.mismatch {
            panic!("{mismatch}");
        }
    }
}

/// Runs a batch of jobs across the worker pool, one [`groups`] group at
/// a time per worker (inline, in `worlds`, when a single worker
/// suffices), and returns their outcomes in job order. Each worker takes
/// a share of `spares` for its executions to fill and hands back what it
/// is done with, and builds a pool of worlds of its own for the wave: a
/// world belongs to the OS thread that built it.
fn run_wave(
    (shared, worlds): (&Shared<'_>, &Worlds<'_>),
    workers: usize,
    spares: &mut Spares,
    jobs: &[Job],
) -> Vec<JobOutcome> {
    let groups = groups(jobs);
    let workers = workers.min(groups.len()).max(1);
    if workers == 1 {
        // Sized up front: a job yields at most one outcome, and a wave
        // grown by doubling would hold twice its size at the end.
        let mut outs = Vec::with_capacity(jobs.len());
        for group in groups {
            execute_group((shared, worlds), group, &mut outs, spares);
        }
        return outs;
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Vec<JobOutcome>>> =
        (0..groups.len()).map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|scope| {
        let (next, groups, slots) = (&next, &groups, &slots);
        let hands: Vec<_> = spares
            .deal(workers)
            .into_iter()
            .map(|mut hand| {
                scope.spawn(move || {
                    let worlds = Worlds::new(shared.harness);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= groups.len() {
                            break hand;
                        }
                        let outs = &mut slots[i].lock();
                        execute_group((shared, &worlds), groups[i], outs, &mut hand);
                    }
                })
            })
            .collect();
        for hand in hands {
            spares.gather(hand.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
    });
    slots
        .into_iter()
        .flat_map(|slot| slot.into_inner())
        .collect()
}

/// Deterministic execution-budget gate: admits job waves in canonical
/// order until [`CheckConfig::exec_budget`] executions have been
/// *enumerated* (owned or not, replayed or not — so the gate closes at
/// the same job across shards and resumes), then truncates.
struct BudgetGate {
    limit: u64,
    used: u64,
    exhausted: bool,
}

impl BudgetGate {
    fn new(limit: u64) -> Self {
        BudgetGate {
            limit,
            used: 0,
            exhausted: false,
        }
    }

    /// Truncates `jobs` to the remaining budget, one execution a job;
    /// marks the gate exhausted on truncation.
    fn admit(&mut self, mut jobs: Vec<Job>) -> Vec<Job> {
        if self.limit == 0 {
            return jobs;
        }
        let kept = jobs.len().min((self.limit - self.used) as usize);
        self.used += kept as u64;
        if kept < jobs.len() {
            self.exhausted = true;
            jobs.truncate(kept);
        }
        jobs
    }
}

/// A schedule phase the resume WAL closed, as a resume replays it
/// (DESIGN.md §13): the phase's `schedule_end`, and every job key up to
/// the cutoff with its `ok` record or its failure's coordinates.
pub(crate) struct ClosedPhase {
    end: ScheduleEnd,
    /// Jobs to replay per schedule pass, by rank: every job the driver
    /// issued or, in a cancelled phase, those up to the failure that
    /// cancelled it.
    upto: [u64; 2],
    ok: BTreeMap<JobKey, ExecStats>,
    failures: BTreeMap<JobKey, CxRecord>,
}

/// What a resume WAL gives a run: the sweeps' `ok` records by job key,
/// and the schedule phase if the log closed it.
type Resume = (BTreeMap<JobKey, ExecStats>, Option<ClosedPhase>);

/// Loads the resume WAL, if configured. Any problem — unreadable file,
/// config mismatch — degrades to a cold start ([`usable`] says whether
/// with a warning) rather than failing the run: a campaign must make
/// progress even when its checkpoint is useless.
fn load_wal(name: &str, config: &CheckConfig) -> Resume {
    let Some(path) = &config.resume_from else {
        return (BTreeMap::new(), None);
    };
    match usable(telemetry::read_wal(path, name), name, config) {
        Ok(mut wal) => {
            if wal.torn_lines > 0 {
                eprintln!(
                    "[checker] {name}: WAL {}: dropped {} torn line(s)",
                    path.display(),
                    wal.torn_lines
                );
            }
            // The phase boundary: the sweeps replay job by job, the
            // schedule phase as a whole or not at all.
            let sweeps = wal.completed.split_off(&(Pass::CrashSweepBase.rank(), 0));
            (sweeps, closed_phase(wal, config))
        }
        Err(why) => {
            if let Some(why) = why {
                eprintln!(
                    "[checker] {name}: WAL {} {why}; starting cold",
                    path.display()
                );
            }
            (BTreeMap::new(), None)
        }
    }
}

/// Whether a resume WAL, read as `read`, is of use to the run `name`
/// under `config`: `Ok` to replay from it; `Err(None)` for the expected
/// cold start — no file yet, or one with nothing of the scenario's in it;
/// `Err(Some(why))` for a cold start worth a warning.
fn usable(
    read: std::io::Result<WalReplay>,
    name: &str,
    config: &CheckConfig,
) -> Result<WalReplay, Option<String>> {
    let wal = match read {
        Ok(wal) => wal,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(None),
        Err(e) => return Err(Some(format!("cannot be read: {e}"))),
    };
    match &wal.run_start {
        Some(run_start) if run_start.same_run(name, config) => Ok(wal),
        Some(_) => Err(Some("was written by a different configuration".to_string())),
        None if wal.runs_started + wal.torn_lines + wal.completed.len() as u64 == 0 => Err(None),
        None => Err(Some("has no usable run_start record".to_string())),
    }
}

/// The schedule phase `wal` closed, if a resume may replay it instead of
/// running it (`wal.completed` holds the phase's `ok` records alone): its
/// last run section's `schedule_end` says `done` or `cancelled`; no job
/// of the phase is logged past the jobs that record says were issued; no
/// key is logged both as `ok` and as a failure, or as two different
/// failures; and every key below the cutoff is logged — every key of a
/// `done` phase, each up to the first failure of a `cancelled` one. A
/// phase that fails any of these runs live.
fn closed_phase(wal: WalReplay, config: &CheckConfig) -> Option<ClosedPhase> {
    let end = wal.schedule_end?;
    let mut failures = BTreeMap::new();
    for cx in wal.failures {
        if !Pass::SCHEDULE.contains(&cx.pass) {
            continue;
        }
        if cx.outcome == OutcomeKind::Ok {
            return None;
        }
        match failures.entry((cx.pass.rank(), cx.index)) {
            Entry::Vacant(slot) => _ = slot.insert(cx),
            Entry::Occupied(seen) if *seen.get() != cx => return None,
            Entry::Occupied(_) => {}
        }
    }
    let mut ok = wal.completed;
    let issued = |key: &JobKey| key.1 < end.jobs[key.0 as usize];
    if !ok.keys().chain(failures.keys()).all(issued) || ok.keys().any(|k| failures.contains_key(k))
    {
        return None;
    }
    // Sharded runs keep going; a run that does not is cancelled by its
    // first failure.
    let keep_going = config.keep_going || config.shard.is_some();
    let cutoff = match end.cancelled {
        false if keep_going || failures.is_empty() => None,
        true if !keep_going => Some(*failures.keys().next()?),
        _ => return None,
    };
    let upto = [0u8, 1].map(|rank| match cutoff {
        Some((cut, index)) if rank == cut => index + 1,
        Some((cut, _)) if rank > cut => 0,
        _ => end.jobs[rank as usize],
    });
    let replayed = |key: &JobKey| key.1 < upto[key.0 as usize];
    ok.retain(|key, _| replayed(key));
    failures.retain(|key, _| replayed(key));
    let logged = |key| ok.contains_key(&key) || failures.contains_key(&key);
    let all_logged = (0..2u8).all(|rank| (0..upto[rank as usize]).all(|i| logged((rank, i))));
    all_logged.then_some(ClosedPhase {
        end,
        upto,
        ok,
        failures,
    })
}

/// The one job driver: every pass's jobs go through [`Driver::run_pass`],
/// which gates, announces, admits, runs and keeps them. Coordinator-only
/// state lives here (and, for the stream's pass bookkeeping, behind
/// `&mut` [`RunTelemetry`]); what the workers see is [`Shared`].
pub(crate) struct Driver<'a> {
    pub shared: Shared<'a>,
    /// The coordinator's pool of worlds, which a wave run inline uses:
    /// at one worker, every execution of the check.
    worlds: Worlds<'a>,
    pub workers: usize,
    budget: BudgetGate,
    /// One entry per wave, as `run_wave` returned it: a single list would
    /// copy every outcome again each time it grew.
    pub outcomes: Vec<Vec<JobOutcome>>,
    /// Enumerable sweep spaces, recorded as each sweep's job list arrives
    /// (deterministic: job derivation is probe-driven, not timed).
    pub coverage: Coverage,
    /// Decision paths and dependency traces the check is done with.
    pub spares: Spares,
    /// The schedule phase the resume WAL closed, until it is replayed.
    closed: Option<ClosedPhase>,
}

impl<'a> Driver<'a> {
    /// Opens a run: resume WAL first (the telemetry file may be the same
    /// file, about to be appended to), then the stream and its
    /// `run_start` record.
    pub(crate) fn new(name: &str, harness: &'a dyn AnyHarness, config: &'a CheckConfig) -> Self {
        let workers = config.effective_workers();
        let (replay, closed) = load_wal(name, config);
        let telem = RunTelemetry::open(name, config, workers);
        Driver {
            shared: Shared {
                harness,
                config,
                // Sharded runs force keep-going semantics: a cutoff chosen
                // inside one shard would depend on which jobs that shard
                // owns, and shard statistics must be exactly summable by
                // `merge_reports`.
                cancel: Cancel::new(config.keep_going || config.shard.is_some()),
                telem,
                replay,
                replayed: AtomicU64::new(0),
            },
            worlds: Worlds::new(harness),
            workers,
            budget: BudgetGate::new(config.exec_budget),
            outcomes: Vec::new(),
            coverage: Coverage::default(),
            spares: Spares::default(),
            closed,
        }
    }

    /// The gate in front of every wave: no failure has cancelled the run
    /// and the execution budget is not exhausted.
    pub(crate) fn live(&self) -> bool {
        !self.shared.cancel.cancelled() && self.budget_open()
    }

    /// Whether the execution budget has cut no job list short.
    pub(crate) fn budget_open(&self) -> bool {
        !self.budget.exhausted
    }

    /// Runs `jobs` as one wave of `pass`, or nothing (`None`) once the
    /// gate has closed: announce the pass if it is new, record the
    /// sweep space, admit against the budget, run, flush the wave's
    /// records to the stream, keep the outcomes.
    pub(crate) fn run_pass(&mut self, pass: Pass, jobs: Vec<Job>) -> Option<&mut [JobOutcome]> {
        let jobs = self.admit(pass, jobs)?;
        let pools = (&self.shared, &self.worlds);
        let outs = run_wave(pools, self.workers, &mut self.spares, &jobs);
        self.shared.telem.flush();
        self.outcomes.push(outs);
        self.outcomes.last_mut().map(Vec::as_mut_slice)
    }

    /// The gate in front of a wave of `pass`: `None` once it has closed;
    /// otherwise the pass announced if it is new, the sweep space
    /// recorded, and `jobs` admitted against the budget.
    fn admit(&mut self, pass: Pass, jobs: Vec<Job>) -> Option<Vec<Job>> {
        if !self.live() {
            return None;
        }
        self.shared.telem.pass(pass);
        // The space is recorded whole, before the budget cuts it; probes
        // are not part of it.
        let enumerable = jobs.iter().filter(|job| !job.probe).count();
        self.coverage.enumerated(pass, enumerable as u64);
        Some(self.budget.admit(jobs))
    }

    /// Replays the schedule phase the resume WAL closed, if it closed
    /// one, and returns the phase's `schedule_end`; `None` leaves the
    /// phase to run live. Each logged failure re-runs first, from its
    /// key's seed and its recorded prefix (through [`cx_policy`]): one
    /// that does not fail as logged leaves the phase live, before
    /// anything is admitted or written. Then each pass's
    /// jobs up to the cutoff are admitted like a wave; the `ok` ones are
    /// read back like replayed sweep jobs, and each failure is recorded
    /// from its re-run — its counterexample, cancellation and stream
    /// records a cold run's.
    pub(crate) fn replay_schedule(&mut self) -> Option<ScheduleEnd> {
        let phase = self.closed.take()?;
        let job = |pass: Pass, i: u64| match phase.failures.get(&(pass.rank(), i)) {
            Some(cx) => Job::new(pass, i, cx_policy(pass, cx.schedule_prefix.clone())),
            // A job read back runs under no policy.
            None => Job::new(pass, i, Policy::RoundRobin),
        };
        let mut reruns = BTreeMap::new();
        for (&key, cx) in &phase.failures {
            let failing = job(cx.pass, cx.index);
            let seed = self.shared.seed(&failing);
            let r = run_one(&self.worlds, self.shared.spec(&failing, seed));
            if OutcomeKind::of(&r.outcome) != cx.outcome {
                return None;
            }
            reruns.insert(key, r);
        }
        let passes = Pass::SCHEDULE.into_iter().zip(phase.upto);
        for (pass, upto) in passes.filter(|&(_, upto)| upto > 0) {
            let Some(jobs) = self.admit(pass, (0..upto).map(|i| job(pass, i)).collect()) else {
                break;
            };
            let (shared, spares) = (&self.shared, &mut self.spares);
            let outs = jobs.iter().map(|job| {
                let (counted, seed) = (shared.owns(job.key), shared.seed(job));
                match reruns.remove(&job.key) {
                    Some(r) => record(shared, job, seed, counted, r, spares),
                    None => shared.read_back(job, counted, phase.ok[&job.key]),
                }
            });
            self.outcomes.push(outs.collect());
        }
        Some(phase.end)
    }

    /// Runs one probe job and returns what it measured (zeros if it was
    /// skipped), or `None` once the gate has closed.
    pub(crate) fn probe(&mut self, job: Job) -> Option<ExecStats> {
        let outs = self.run_pass(job.pass, vec![job])?;
        Some(outs.first().map(|o| o.stats).unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Count, first and last key, and that keys are dense and strictly
    /// increasing from `first` within `pass`.
    fn assert_dense(jobs: &[Job], pass: Pass, first: u64, count: usize) {
        assert_eq!(jobs.len(), count, "{pass:?}: job count");
        for (job, index) in jobs.iter().zip(first..) {
            assert_eq!(job.key, (pass.rank(), index), "{pass:?}: key");
            assert_eq!(job.pass, pass);
            assert_eq!(job.seed_rank, pass.rank(), "{pass:?}: seed rank");
            assert!(!job.probe, "{pass:?}: a derived job is not a probe");
        }
    }

    #[test]
    fn crash_sweep_has_one_job_per_grant() {
        for horizon in [0u64, 1, 3] {
            let jobs = crash_sweep_jobs(horizon);
            assert_dense(&jobs, Pass::CrashSweep, 0, horizon as usize);
            for (job, k) in jobs.iter().zip(0..) {
                assert_eq!(job.crash_points, [k]);
                assert_eq!(job.swept, 1);
                assert_eq!(job.faults, FaultPlan::default());
                assert_eq!(job.policy, Policy::RoundRobin);
            }
        }
    }

    #[test]
    fn nested_sweep_crashes_at_every_step_after_the_first_crash() {
        assert_dense(&nested_crash_jobs([]), Pass::NestedCrash, 0, 0);
        // A run that ended at its crash point has no recovery to sweep.
        assert_dense(&nested_crash_jobs([(0, 1)]), Pass::NestedCrash, 0, 0);
        assert_dense(&nested_crash_jobs([(5, 2)]), Pass::NestedCrash, 0, 0);
        // Crash at 0 of a 4-step run, at 1 of a 3-step run, at 2 of a
        // 6-step run: 3 + 1 + 3 second crashes, in (k, m) order.
        let jobs = nested_crash_jobs([(0, 4), (1, 3), (2, 6)]);
        assert_dense(&jobs, Pass::NestedCrash, 0, 7);
        let points: Vec<&[u64]> = jobs.iter().map(|j| j.crash_points.as_slice()).collect();
        assert_eq!(
            points,
            [
                &[0, 1][..],
                &[0, 2],
                &[0, 3],
                &[1, 2],
                &[2, 3],
                &[2, 4],
                &[2, 5]
            ]
        );
        assert!(jobs.iter().all(|j| j.swept == 1));
    }

    #[test]
    fn random_crash_probes_are_crash_free_random_schedules() {
        for samples in [0u64, 1, 3] {
            let probes = random_crash_probes(samples);
            assert_eq!(probes.len(), samples as usize);
            for (job, i) in probes.iter().zip(0..) {
                assert_eq!(job.key, (Pass::RandomCrashProbe.rank(), i));
                assert_eq!(job.seed_rank, job.key.0);
                assert_eq!(job.policy, Policy::Random(Vec::new()));
                assert!(job.probe && job.crash_points.is_empty());
            }
        }
    }

    #[test]
    fn a_random_crash_job_replays_its_probe_with_one_crash_below_its_horizon() {
        // Probes 0, 2 and 5 passed, after 7, 1 and 0 steps; 1, 3 and 4
        // failed or were skipped.
        let jobs = random_crash_jobs(7, [(0, 7), (2, 1), (5, 0)]);
        let keys: Vec<JobKey> = jobs.iter().map(|job| job.key).collect();
        let rank = Pass::RandomCrash.rank();
        assert_eq!(
            keys,
            [(rank, 0), (rank, 2), (rank, 5)],
            "each at its probe's index"
        );
        for (job, steps) in jobs.iter().zip([7u64, 1, 0]) {
            let probe = (Pass::RandomCrashProbe.rank(), job.key.1);
            assert_eq!(job.seed_rank, probe.0, "drawn from the probe's seed");
            assert_eq!(job.pass, Pass::RandomCrash);
            assert_eq!(job.policy, Policy::Random(Vec::new()));
            assert!(!job.probe && job.swept == 1);
            let k = splitmix64(exec_seed(7, probe.0, probe.1)) % steps.max(1);
            assert_eq!(job.crash_points, [k]);
            assert!(k < steps.max(1));
        }
        assert!(random_crash_jobs(7, []).is_empty());
    }

    #[test]
    fn disk_fault_sweep_is_transient_errors_then_disk_failures() {
        let both = FaultSurface {
            transient_disk_io: true,
            two_disk: true,
            ..FaultSurface::none()
        };
        for horizon in [0u64, 1, 3] {
            let disk_ops = horizon + 1;
            let jobs = disk_fault_jobs(both, horizon, disk_ops);
            assert_dense(&jobs, Pass::DiskFault, 1, (disk_ops + 2 * horizon) as usize);
            let (transient, failures) = jobs.split_at(disk_ops as usize);
            for (job, op) in transient.iter().zip(0..) {
                assert_eq!(job.faults.transient_io, [op].into());
                assert_eq!(job.faults.disk_fail, None);
            }
            let failed: Vec<_> = failures.iter().map(|j| j.faults.disk_fail).collect();
            let want: Vec<_> = (0..horizon)
                .flat_map(|g| [Some((1, g)), Some((2, g))])
                .collect();
            assert_eq!(failed, want);
            assert!(jobs
                .iter()
                .all(|j| j.crash_points.is_empty() && j.swept == 0));
        }
        // Each family only on a surface that has it.
        let transient_only = FaultSurface {
            transient_disk_io: true,
            ..FaultSurface::none()
        };
        assert_dense(
            &disk_fault_jobs(transient_only, 3, 2),
            Pass::DiskFault,
            1,
            2,
        );
        let two_disk_only = FaultSurface {
            two_disk: true,
            ..FaultSurface::none()
        };
        assert_dense(&disk_fault_jobs(two_disk_only, 3, 2), Pass::DiskFault, 1, 6);
    }

    #[test]
    fn disk_failures_during_recovery_follow_the_recovery_probe() {
        // The main sweep ended at index 7, so the recovery probe is 8
        // and these start at 9; crash at 1, recovery ran to step 4.
        let jobs = disk_fault_recovery_jobs(9, 1, 4);
        assert_dense(&jobs, Pass::DiskFault, 9, 4);
        let failed: Vec<_> = jobs.iter().map(|j| j.faults.disk_fail).collect();
        assert_eq!(
            failed,
            [Some((1, 2)), Some((2, 2)), Some((1, 3)), Some((2, 3))]
        );
        assert!(jobs.iter().all(|j| j.crash_points == [1] && j.swept == 1));
        // Nothing ran after the crash (or the probe was skipped).
        for recovered in [0, 1, 2] {
            assert_dense(
                &disk_fault_recovery_jobs(9, 1, recovered),
                Pass::DiskFault,
                9,
                0,
            );
        }
    }

    #[test]
    fn torn_write_sweep_has_three_modes_per_crash_point() {
        for horizon in [0u64, 1, 3] {
            let jobs = torn_write_jobs(horizon);
            assert_dense(&jobs, Pass::TornWrite, 1, 3 * horizon as usize);
            for (i, job) in jobs.iter().enumerate() {
                let (k, m) = (i as u64 / 3, i % 3);
                assert_eq!(job.key.1, 1 + k * 3 + m as u64);
                assert_eq!(job.crash_points, [k]);
                assert_eq!(job.swept, 1);
                let modes = [TornMode::KeepNone, TornMode::Subset(0), TornMode::Subset(1)];
                assert_eq!(job.faults.torn, Some(modes[m]));
            }
        }
    }

    #[test]
    fn net_fault_sweep_has_three_faults_per_message() {
        for net_msgs in [0u64, 1, 3] {
            let jobs = net_fault_jobs(net_msgs);
            assert_dense(&jobs, Pass::NetFault, 1, 3 * net_msgs as usize);
            for (i, job) in jobs.iter().enumerate() {
                let (msg, f) = (i as u64 / 3, i % 3);
                let faults = [NetFault::Drop, NetFault::Duplicate, NetFault::Delay];
                assert_eq!(job.faults.net, [(msg, faults[f])].into());
                assert!(job.crash_points.is_empty() && job.swept == 0);
            }
        }
    }

    #[test]
    fn schedule_jobs_are_keyed_in_spec_order_from_first() {
        let specs = [
            ScheduleSpec::Dfs {
                prefix: vec![0, 1],
                track_deps: true,
            },
            ScheduleSpec::Random { prefix: vec![2] },
        ];
        assert_dense(&schedule_jobs(Pass::Dfs, 4, &[]), Pass::Dfs, 4, 0);
        let jobs = schedule_jobs(Pass::Dfs, 4, &specs);
        assert_dense(&jobs, Pass::Dfs, 4, 2);
        assert_eq!(jobs[0].policy, Policy::DfsPrefix(vec![0, 1]));
        assert_eq!(jobs[1].policy, Policy::Random(vec![2]));
        assert!(jobs[0].track_deps && !jobs[1].track_deps);
    }

    #[test]
    fn probes_sit_at_their_index_and_are_marked() {
        let probe = Job::probe(Pass::TornWrite, 0);
        assert_eq!(probe.key, (Pass::TornWrite.rank(), 0));
        assert!(probe.probe && probe.crash_points.is_empty());
        let mid_recovery = Job::probe(Pass::DiskFault, 8).crashing_at(2);
        assert!(mid_recovery.probe);
        assert_eq!(mid_recovery.crash_points, [2]);
        assert_eq!(mid_recovery.swept, 1);
    }

    /// A wave holds one of these per job, thousands in a long sweep.
    #[test]
    fn job_has_not_grown() {
        assert!(std::mem::size_of::<Job>() <= 168);
    }

    /// A campaign holds one of these per execution until aggregation, so
    /// a field added here shows in peak memory (PR 13 measured 8 bytes).
    #[test]
    fn job_outcome_has_not_grown() {
        assert!(std::mem::size_of::<JobOutcome>() <= 272);
    }

    #[test]
    fn only_a_wal_that_exists_and_has_no_run_start_is_a_silent_cold_start() {
        use std::io::{Error, ErrorKind};
        let (name, config) = ("s", CheckConfig::default());
        let usable = |read| usable(read, name, &config).map(|_| ());
        let missing = Error::new(ErrorKind::NotFound, "gone");
        assert_eq!(usable(Err(missing)), Err(None), "no file yet");
        assert_eq!(usable(Ok(WalReplay::default())), Err(None), "an empty file");
        let denied = usable(Err(Error::new(ErrorKind::PermissionDenied, "no")));
        assert_eq!(denied, Err(Some("cannot be read: no".to_string())));
        let torn = WalReplay {
            torn_lines: 1,
            ..WalReplay::default()
        };
        let why = usable(Ok(torn)).unwrap_err().expect("a warning");
        assert!(why.contains("no usable run_start"), "{why}");
    }

    /// A phase `done` after three DFS jobs and one random one, with a
    /// logged failure at DFS job 1 of a keep-going run.
    fn closed_wal() -> WalReplay {
        let failure = CxRecord {
            pass: Pass::Dfs,
            index: 1,
            seed: 9,
            outcome: OutcomeKind::Deadlock,
            schedule_prefix: vec![0, 1],
            crash_points: Vec::new(),
            faults: FaultPlan::default(),
        };
        WalReplay {
            completed: [(0, 0), (0, 2), (1, 0)]
                .map(|key| (key, ExecStats::default()))
                .into(),
            failures: vec![failure.clone(), failure],
            schedule_end: Some(ScheduleEnd {
                jobs: [3, 1],
                pruned: 2,
                coverage_guided: 0,
                cancelled: false,
            }),
            ..WalReplay::default()
        }
    }

    #[test]
    fn a_closed_phase_replays_only_when_the_log_holds_all_of_it() {
        let keep_going = CheckConfig {
            keep_going: true,
            ..CheckConfig::default()
        };
        let phase = closed_phase(closed_wal(), &keep_going).expect("replayable");
        assert_eq!(phase.upto, [3, 1]);
        assert_eq!(phase.failures.keys().collect::<Vec<_>>(), [&(0, 1)]);
        let spoilt = |spoil: &dyn Fn(&mut WalReplay)| {
            let mut wal = closed_wal();
            spoil(&mut wal);
            closed_phase(wal, &keep_going).is_none()
        };
        assert!(spoilt(&|w| w.schedule_end = None), "no schedule_end");
        assert!(
            spoilt(&|w| w.schedule_end.as_mut().unwrap().jobs[1] = 2),
            "a job missing"
        );
        assert!(
            spoilt(&|w| _ = w.completed.remove(&(0, 2))),
            "a key missing"
        );
        assert!(
            spoilt(&|w| _ = w.completed.insert((0, 3), ExecStats::default())),
            "past the count"
        );
        assert!(
            spoilt(&|w| _ = w.completed.insert((0, 1), ExecStats::default())),
            "ok and failed"
        );
        assert!(
            spoilt(&|w| w.failures[1].schedule_prefix.push(0)),
            "two failures disagree"
        );
        assert!(
            spoilt(&|w| w.failures[0].outcome = OutcomeKind::Ok),
            "a failure that passed"
        );
        // Fail-fast: a failure ends the phase, which then says so.
        let fail_fast = CheckConfig::default();
        assert!(
            closed_phase(closed_wal(), &fail_fast).is_none(),
            "done past a failure"
        );
        let mut cancelled = closed_wal();
        cancelled.schedule_end.as_mut().unwrap().cancelled = true;
        let phase = closed_phase(cancelled, &fail_fast).expect("cancelled at (0, 1)");
        assert_eq!(phase.upto, [2, 0], "up to the failure, nothing after it");
        assert_eq!(phase.ok.keys().collect::<Vec<_>>(), [&(0, 0)]);
        let mut cancelled = closed_wal();
        cancelled.schedule_end.as_mut().unwrap().cancelled = true;
        assert!(
            closed_phase(cancelled, &keep_going).is_none(),
            "a keep-going run is never cancelled"
        );
    }

    #[test]
    fn budget_gate_charges_one_execution_a_job() {
        let mut gate = BudgetGate::new(5);
        assert_eq!(gate.admit(crash_sweep_jobs(2)).len(), 2);
        assert_eq!(gate.admit(random_crash_probes(2)).len(), 2);
        assert!(!gate.exhausted, "an exact fit leaves the gate open");
        // One left: the first job fits, the second does not.
        assert_eq!(gate.admit(random_crash_jobs(7, [(0, 3), (1, 3)])).len(), 1);
        assert!(gate.exhausted);
        assert!(gate.admit(random_crash_probes(1)).is_empty());
        let mut unlimited = BudgetGate::new(0);
        assert_eq!(unlimited.admit(random_crash_probes(3)).len(), 3);
        assert!(!unlimited.exhausted);
    }
}

//! Jobs: the unit the explorer derives, admits, runs and aggregates.
//!
//! A [`Job`] is one execution (or a probe-then-crash pair) with a
//! canonical key assigned before anything runs. Each sweep's job list is a
//! pure function of a probe's horizon (the `*_jobs` functions below); the
//! [`Driver`] admits a list against the execution budget, runs it as one
//! wave across the worker pool, and keeps the [`JobOutcome`]s for
//! aggregation. Shard ownership, WAL replay and minimum-key cancellation
//! are all decided per job, in [`execute_job`], from state every worker
//! shares ([`Shared`]).

use crate::config::CheckConfig;
use crate::exec::{run_one, Counterexample, ExecSpec, Policy};
use crate::harness::Harness;
use crate::metrics::{Coverage, FaultFamily, OutcomeKind};
use crate::pass::Pass;
use crate::strategy::{DepTrace, ScheduleSpec};
use crate::telemetry::{self, ExecStats, RunTelemetry};
use goose_rt::fault::{FaultPlan, FaultSurface, NetFault, TornMode};
use goose_rt::splitmix64;
use parking_lot::Mutex;
use perennial_spec::SpecTS;
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    /// One execution.
    Single,
    /// A random-crash pair: probe the schedule crash-free to find its
    /// horizon, then rerun it with one derived crash point. The crash
    /// run reports under pass "random-crash" with the same index.
    ProbeThenCrash,
}

#[derive(Debug)]
pub(crate) struct Job {
    key: JobKey,
    pass: Pass,
    policy: Policy,
    /// Record each grant's dependency footprint (DPOR's DFS jobs).
    track_deps: bool,
    crash_points: Vec<u64>,
    /// Distinct crash points this job sweeps (for the report counter).
    swept: usize,
    /// The fault plan injected into this job's execution.
    faults: FaultPlan,
    kind: JobKind,
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
            pass,
            policy,
            track_deps: false,
            crash_points: Vec::new(),
            swept: 0,
            faults: FaultPlan::default(),
            kind: JobKind::Single,
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
// dense and strictly increasing within a pass, so a job list is the same
// at every worker count, in every shard and on every resume.
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

/// Ranks 5-6: random schedules with a random crash point each (probe and
/// crash run are one job; the crash run reuses the probe's seed).
pub(crate) fn random_crash_jobs(samples: u64) -> Vec<Job> {
    (0..samples)
        .map(|i| Job {
            kind: JobKind::ProbeThenCrash,
            ..Job::new(Pass::RandomCrashProbe, i, Policy::Random(Vec::new()))
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
    pub swept: usize,
    /// Which surface the job's fault plan exercised; `None` for an
    /// empty plan (fault-plan and coverage accounting).
    pub family: Option<FaultFamily>,
    /// What the execution measured, live or read back from the WAL.
    pub stats: ExecStats,
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
    fn cancelled(&self) -> bool {
        !self.keep_going && self.stop.load(Ordering::Relaxed)
    }
}

/// What every worker shares while a wave runs.
pub(crate) struct Shared<'a> {
    pub config: &'a CheckConfig,
    pub cancel: Cancel,
    pub telem: RunTelemetry,
    /// Completed `ok` executions from the resume WAL, keyed by job key.
    replay: BTreeMap<JobKey, ExecStats>,
    /// Executions satisfied from the WAL instead of run.
    pub replayed: AtomicU64,
}

impl Shared<'_> {
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

/// Runs one job (one or two executions) and produces its outcomes,
/// applying shard ownership: leaf jobs other shards own are skipped,
/// spine jobs run but are not counted.
fn execute_job<S: SpecTS, H: Harness<S>>(
    harness: &H,
    shared: &Shared<'_>,
    job: &Job,
) -> Vec<JobOutcome> {
    let owned = shared.owns(job.key);
    let crash_key = (Pass::RandomCrash.rank(), job.key.1);
    // A random-crash probe must also run when this shard owns only the
    // derived crash half: the crash point is a function of the probe's
    // horizon.
    let crash_owned = job.kind == JobKind::ProbeThenCrash && shared.owns(crash_key);
    if !owned && !crash_owned && !shared.is_spine(job) {
        return Vec::new();
    }
    if !shared.cancel.should_run(job.key) {
        return Vec::new();
    }
    let seed = exec_seed(shared.config.seed, job.key.0, job.key.1);
    let out = run_or_replay(harness, shared, job, seed, owned);
    if !crash_owned || out.kind != OutcomeKind::Ok || !shared.cancel.should_run(crash_key) {
        return vec![out];
    }
    // The probe succeeded: rerun the same schedule with one crash point
    // derived from the probe's horizon. The crash run reuses the probe's
    // seed so the schedule replays.
    let k = splitmix64(seed) % out.stats.steps.max(1);
    let crash = Job {
        faults: job.faults.clone(),
        ..Job::new(Pass::RandomCrash, job.key.1, Policy::Random(Vec::new())).crashing_at(k)
    };
    let crashed = run_or_replay(harness, shared, &crash, seed, true);
    vec![out, crashed]
}

/// One execution of a job: read back from the resume WAL if it completed
/// there, otherwise run, recorded in the telemetry stream (`exec_done`,
/// live counters, `counterexample`) and offered for cancellation if it
/// failed. The `exec_done` record doubles as the WAL entry, so a replayed
/// execution emits nothing: its record is already in the log.
fn run_or_replay<S: SpecTS, H: Harness<S>>(
    harness: &H,
    shared: &Shared<'_>,
    job: &Job,
    seed: u64,
    counted: bool,
) -> JobOutcome {
    // Schedule-phase executions (ranks 0-1) always run live — the
    // strategy needs their decision paths and dependency traces for
    // feedback; everything from the crash-sweep base up is replayable.
    // Only `ok` records are in the map, and every field of the outcome
    // is deterministic job metadata or a recorded statistic, so a resumed
    // run aggregates to the same report as a cold one.
    if job.pass >= Pass::CrashSweepBase {
        if let Some(stats) = shared.replay.get(&job.key) {
            shared.replayed.fetch_add(1, Ordering::Relaxed);
            return JobOutcome::new(job, counted, OutcomeKind::Ok, *stats);
        }
    }
    let spec = ExecSpec {
        policy: job.policy.clone(),
        crash_points: &job.crash_points,
        faults: &job.faults,
        seed,
        max_steps: shared.config.max_steps,
        track_deps: job.track_deps,
        capture_trace: false,
        render_trace: false,
    };
    let r = run_one(harness, spec);
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
            outcome: r.outcome,
            pass: job.pass,
            index,
            seed,
            schedule_prefix: job.policy.prefix().to_vec(),
            crash_points: job.crash_points.clone(),
            clamped: r.clamped,
            faults: job.faults.clone(),
            trace: r.trace,
            timeline: None,
        };
        telem.counterexample(&found);
        shared.cancel.offer(job.key);
        cx = Some(Box::new(found));
    }
    JobOutcome {
        lock_profile: r.lock_profile,
        wakeups: r.wakeups,
        duration: r.duration,
        // The strategies feed on schedule-phase decision paths; the
        // sweeps' are not kept.
        decisions: if job.pass < Pass::CrashSweepBase {
            r.decisions
        } else {
            Vec::new()
        },
        deps: r.deps,
        cx,
        ..JobOutcome::new(job, counted, kind, r.stats)
    }
}

/// Runs a batch of jobs across the worker pool (inline when a single
/// worker suffices) and returns their outcomes in job order.
fn run_wave<S: SpecTS, H: Harness<S>>(
    harness: &H,
    shared: &Shared<'_>,
    workers: usize,
    jobs: &[Job],
) -> Vec<JobOutcome> {
    let workers = workers.min(jobs.len()).max(1);
    if workers == 1 {
        // Sized up front: almost every job yields one outcome, and a
        // wave grown by doubling would hold twice its size at the end.
        let mut outs = Vec::with_capacity(jobs.len());
        for job in jobs {
            outs.extend(execute_job(harness, shared, job));
        }
        return outs;
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Vec<JobOutcome>>> =
        (0..jobs.len()).map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let outs = execute_job(harness, shared, &jobs[i]);
                *slots[i].lock() = outs;
            });
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

    /// Truncates `jobs` to the remaining budget (a probe-then-crash job
    /// costs two executions); marks the gate exhausted on truncation.
    fn admit(&mut self, mut jobs: Vec<Job>) -> Vec<Job> {
        if self.limit == 0 {
            return jobs;
        }
        let mut kept = 0;
        for job in &jobs {
            let cost = match job.kind {
                JobKind::Single => 1,
                JobKind::ProbeThenCrash => 2,
            };
            if self.used + cost > self.limit {
                break;
            }
            self.used += cost;
            kept += 1;
        }
        if kept < jobs.len() {
            self.exhausted = true;
            jobs.truncate(kept);
        }
        jobs
    }
}

/// Loads the resume WAL, if configured. Any problem — unreadable file,
/// config mismatch — degrades to a cold start with a warning rather
/// than failing the run: a campaign must make progress even when its
/// checkpoint is useless.
fn load_wal(name: &str, config: &CheckConfig) -> BTreeMap<JobKey, ExecStats> {
    let Some(path) = &config.resume_from else {
        return BTreeMap::new();
    };
    let wal = match telemetry::read_wal(path, name) {
        Ok(w) => w,
        Err(e) => {
            eprintln!(
                "[checker] {name}: cannot read WAL {}: {e}; starting cold",
                path.display()
            );
            return BTreeMap::new();
        }
    };
    let why = match &wal.run_start {
        Some(run_start) if run_start.same_run(name, config) => {
            if wal.torn_lines > 0 {
                eprintln!(
                    "[checker] {name}: WAL {}: dropped {} torn line(s)",
                    path.display(),
                    wal.torn_lines
                );
            }
            return wal.completed;
        }
        Some(_) => "was written by a different configuration",
        // An empty or foreign file is simply a cold start.
        None if wal.runs_started + wal.torn_lines + wal.completed.len() as u64 == 0 => {
            return BTreeMap::new();
        }
        None => "has no usable run_start record",
    };
    eprintln!(
        "[checker] {name}: WAL {} {why}; starting cold",
        path.display()
    );
    BTreeMap::new()
}

/// The one job driver: every pass's jobs go through [`Driver::run_pass`],
/// which gates, announces, admits, runs and keeps them. Coordinator-only
/// state lives here (and, for the stream's pass bookkeeping, behind
/// `&mut` [`RunTelemetry`]); what the workers see is [`Shared`].
pub(crate) struct Driver<'a, H> {
    pub harness: &'a H,
    pub shared: Shared<'a>,
    pub workers: usize,
    budget: BudgetGate,
    /// One entry per wave, as `run_wave` returned it: a single list would
    /// copy every outcome again each time it grew.
    pub outcomes: Vec<Vec<JobOutcome>>,
    /// Enumerable sweep spaces, recorded as each sweep's job list arrives
    /// (deterministic: job derivation is probe-driven, not timed).
    pub coverage: Coverage,
}

impl<'a, H> Driver<'a, H> {
    /// Opens a run: resume WAL first (the telemetry file may be the same
    /// file, about to be appended to), then the stream and its
    /// `run_start` record.
    pub(crate) fn new<S: SpecTS>(name: &str, harness: &'a H, config: &'a CheckConfig) -> Self
    where
        H: Harness<S>,
    {
        let workers = config.effective_workers();
        let replay = load_wal(name, config);
        let telem = RunTelemetry::open(name, config, workers);
        Driver {
            harness,
            shared: Shared {
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
            workers,
            budget: BudgetGate::new(config.exec_budget),
            outcomes: Vec::new(),
            coverage: Coverage::default(),
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
    /// sweep space, admit against the budget, run, keep the outcomes.
    pub(crate) fn run_pass<S: SpecTS>(
        &mut self,
        pass: Pass,
        jobs: Vec<Job>,
    ) -> Option<&mut [JobOutcome]>
    where
        H: Harness<S>,
    {
        if !self.live() {
            return None;
        }
        self.shared.telem.pass(pass);
        // The space is recorded whole, before the budget cuts it; probes
        // are not part of it.
        let enumerable = jobs.iter().filter(|job| !job.probe).count();
        self.coverage.enumerated(pass, enumerable as u64);
        let jobs = self.budget.admit(jobs);
        let outs = run_wave(self.harness, &self.shared, self.workers, &jobs);
        self.outcomes.push(outs);
        self.outcomes.last_mut().map(Vec::as_mut_slice)
    }

    /// Runs one probe job and returns what it measured (zeros if it was
    /// skipped), or `None` once the gate has closed.
    pub(crate) fn probe<S: SpecTS>(&mut self, job: Job) -> Option<ExecStats>
    where
        H: Harness<S>,
    {
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
            assert_eq!(job.kind, JobKind::Single);
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
    fn random_crash_jobs_are_probe_then_crash_pairs() {
        for samples in [0u64, 1, 3] {
            let jobs = random_crash_jobs(samples);
            assert_eq!(jobs.len(), samples as usize);
            for (job, i) in jobs.iter().zip(0..) {
                assert_eq!(job.key, (Pass::RandomCrashProbe.rank(), i));
                assert_eq!(job.kind, JobKind::ProbeThenCrash);
                assert!(job.crash_points.is_empty() && !job.probe);
            }
        }
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

    /// A campaign holds one of these per execution until aggregation, so
    /// a field added here shows in peak memory (PR 13 measured 8 bytes).
    #[test]
    fn job_outcome_has_not_grown() {
        assert!(std::mem::size_of::<JobOutcome>() <= 272);
    }

    #[test]
    fn budget_gate_charges_two_for_a_probe_then_crash_pair() {
        let mut gate = BudgetGate::new(5);
        assert_eq!(gate.admit(crash_sweep_jobs(2)).len(), 2);
        // Three left: one pair fits, the second does not.
        assert_eq!(gate.admit(random_crash_jobs(3)).len(), 1);
        assert!(gate.exhausted);
        let mut unlimited = BudgetGate::new(0);
        assert_eq!(unlimited.admit(random_crash_jobs(3)).len(), 3);
        assert!(!unlimited.exhausted);
    }
}

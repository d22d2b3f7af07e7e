//! The explorer: bounded model checking over schedules and crash points.
//!
//! This is the reproduction's substitute for the paper's Coq proofs (see
//! DESIGN.md §1): instead of a theorem over *all* executions, the
//! explorer enumerates a bounded set — a schedule phase over crash-free
//! interleavings driven by a pluggable [`Strategy`] (exhaustive DFS,
//! random sampling, sleep-set DPOR, coverage-guided sampling; see
//! DESIGN.md §12), and a systematic sweep of crash points including
//! crashes during recovery — and requires the ghost discipline
//! (Theorem 2's obligations) to hold on every one.
//!
//! # Parallel exploration and the determinism contract
//!
//! Every explored execution is independent (fresh [`ModelRt`] + ghost
//! state per run), so the explorer dispatches them across a worker pool
//! ([`CheckConfig::workers`]). Determinism is preserved by construction:
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

use crate::harness::{Harness, World};
use crate::metrics::{
    trace_fingerprint, Coverage, Histogram, OutcomeCounts, OutcomeKind, PassMetrics,
};
use crate::pass::{Pass, PassSet};
use crate::strategy::{DepTrace, Exhaustive, ObservedExec, ScheduleSpec, Strategy};
use crate::telemetry::{self, RunTelemetry, TelemetrySink};
use goose_rt::fault::{FaultPlan, NetFault, TornMode};
use goose_rt::sched::{
    quiet_worker_panics, res, ModelRt, PanicKind, Pilot, SharedPilot, StepAccess, StepResult, Tid,
};
use goose_rt::trace::{ExecTrace, TraceKind};
use parking_lot::Mutex;
use perennial::{Ghost, GhostError};
use perennial_spec::SpecTS;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Explorer configuration.
///
/// Construct with [`CheckConfig::builder`] (preferred), or start from
/// [`CheckConfig::default`] / [`CheckConfig::quick`] and override fields.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Base seed for deterministic randomness. Per-execution seeds are
    /// derived from it as `hash(seed, pass_rank, index)`.
    pub seed: u64,
    /// Per-execution step bound (livelock backstop).
    pub max_steps: u64,
    /// Cap on DFS-enumerated schedules (0 disables DFS). Under
    /// [`SleepSetDpor`](crate::strategy::SleepSetDpor), pruned schedules
    /// are charged against this budget too.
    pub dfs_max_executions: usize,
    /// Number of random schedules to sample (crash-free).
    pub random_samples: usize,
    /// Random schedules to sample *with* a random crash point each.
    pub random_crash_samples: usize,
    /// Which exploration passes run. [`PassSet::defaults`] enables DFS,
    /// random sampling, the crash sweep with nesting, and random
    /// crashes; the fault sweeps ([`Pass::DiskFault`],
    /// [`Pass::TornWrite`], [`Pass::NetFault`]) opt in and additionally
    /// require the matching [`Harness::fault_surface`] flag.
    pub passes: PassSet,
    /// Schedule-phase exploration strategy: how the crash-free DFS and
    /// random passes pick what to run (see [`crate::strategy`] and
    /// DESIGN.md §12). The crash and fault sweeps are strategy-
    /// independent. Defaults to [`Exhaustive`].
    pub strategy: Arc<dyn Strategy>,
    /// Worker threads for the exploration pool; `0` means use
    /// `std::thread::available_parallelism()`.
    pub workers: usize,
    /// Keep exploring after a failure and collect every counterexample
    /// (instead of cancelling outstanding work).
    pub keep_going: bool,
    /// Optional JSONL event stream (see [`crate::telemetry`] and
    /// DESIGN.md §11). Side-channel only: enabling it changes neither
    /// the explored set nor the reported counterexample.
    pub telemetry: Option<TelemetrySink>,
    /// Convenience alternative to [`CheckConfig::telemetry`]: create
    /// (truncate) this file as the event stream when the check starts.
    /// Ignored when `telemetry` is set.
    pub telemetry_path: Option<PathBuf>,
    /// Print a progress line to stderr every N completed executions
    /// (`0` = off, the default) so long sweeps are observable live.
    pub progress_every: u64,
    /// Shard assignment `(i, n)`: this run owns only the job keys whose
    /// [`shard_of`] hash lands on shard `i` of `n`. Derivation-spine
    /// executions (schedule phase, probes, and the first-level crash
    /// sweep when the nested sweep is on) still run in every shard so
    /// every shard enumerates the identical job space, but they are
    /// *counted* only by their owner — `merge_reports` over all `n`
    /// shards reproduces the unsharded report (DESIGN.md §13). Sharded
    /// runs imply `keep_going` semantics so shard statistics are exactly
    /// summable.
    pub shard: Option<(u32, u32)>,
    /// Resume checkpoint: a telemetry JSONL file from a previous
    /// (possibly killed) run of the same scenario + config, replayed as
    /// a write-ahead log. Completed sweep-phase executions (`exec_done`
    /// records with outcome `ok`) are skipped and their recorded
    /// statistics reused; everything else re-runs. A torn final line
    /// (SIGKILL mid-write) is tolerated. A missing file is a cold
    /// start, and a config-mismatched WAL is ignored with a warning.
    pub resume_from: Option<PathBuf>,
    /// Hard cap on executions this run may schedule (0 = unlimited).
    /// Applied by truncating job lists in canonical order, so the cap
    /// is deterministic across worker counts and shards; exhaustion
    /// degrades to a partial report with an `incomplete` marker rather
    /// than a panic.
    pub exec_budget: u64,
    /// Re-run the winning counterexample with the causal trace recorder
    /// on and attach the resulting [`goose_rt::ExecTrace`] as
    /// [`Counterexample::timeline`] (default on). Pure side channel: the
    /// exploration itself always runs untraced, the re-run emits no
    /// telemetry, and report fingerprints are identical either way.
    pub trace_capture: bool,
    /// Build a [`Profile`](crate::profile::Profile) (per-pass cost attribution, resource
    /// contention, strategy introspection, worker utilization) and
    /// attach it as [`CheckReport::profile`] (default off). Pure side
    /// channel: the profile is aggregated from counters the check
    /// collects anyway, is excluded from campaign JSON and report
    /// fingerprints, and its deterministic counts are identical at
    /// every worker count (DESIGN.md §15).
    pub profile: bool,
    /// Delta-debug the winning counterexample after exploration: greedily
    /// drop schedule grants, crash points, and fault events while
    /// re-running and requiring the failure fingerprint (outcome kind +
    /// message, see [`crate::shrink::failure_fingerprint`]) to be
    /// preserved (default off). **Not** a pure side channel: shrinking
    /// rewrites [`CheckReport::counterexample`] in place, so serialized
    /// reports (and their fingerprints) differ between shrink-on and
    /// shrink-off runs — but the shrunk result itself is deterministic at
    /// every worker count (DESIGN.md §16). Shrink statistics land in
    /// [`CheckReport::shrink`].
    pub shrink: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            seed: 0,
            max_steps: 100_000,
            dfs_max_executions: 2_000,
            random_samples: 50,
            random_crash_samples: 100,
            passes: PassSet::defaults(),
            strategy: Arc::new(Exhaustive),
            workers: 0,
            keep_going: false,
            telemetry: None,
            telemetry_path: None,
            progress_every: 0,
            shard: None,
            resume_from: None,
            exec_budget: 0,
            trace_capture: true,
            profile: false,
            shrink: false,
        }
    }
}

impl CheckConfig {
    /// A quick configuration for unit tests (small bounds).
    pub fn quick() -> Self {
        let mut passes = PassSet::defaults();
        passes.remove(Pass::NestedCrash);
        CheckConfig {
            dfs_max_executions: 200,
            random_samples: 10,
            random_crash_samples: 20,
            passes,
            ..CheckConfig::default()
        }
    }

    /// Starts a builder preloaded with the defaults.
    pub fn builder() -> CheckConfigBuilder {
        CheckConfigBuilder {
            config: CheckConfig::default(),
        }
    }

    /// The worker count this config resolves to at run time.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Fluent constructor for [`CheckConfig`]:
///
/// ```
/// use perennial_checker::{CheckConfig, Pass, SleepSetDpor};
/// let cfg = CheckConfig::builder()
///     .seed(7)
///     .workers(8)
///     .with_passes([Pass::DiskFault])
///     .strategy(SleepSetDpor)
///     .build();
/// assert_eq!(cfg.seed, 7);
/// assert_eq!(cfg.workers, 8);
/// assert!(cfg.passes.contains(Pass::DiskFault));
/// assert_eq!(cfg.strategy.name(), "sleep-set-dpor");
/// ```
#[derive(Debug, Clone)]
pub struct CheckConfigBuilder {
    config: CheckConfig,
}

impl CheckConfigBuilder {
    /// Sets the base PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the per-execution scheduler-grant budget.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.config.max_steps = max_steps;
        self
    }

    /// Caps the DFS pass's execution count.
    pub fn dfs_max_executions(mut self, n: usize) -> Self {
        self.config.dfs_max_executions = n;
        self
    }

    /// Sets the random-schedule sample count.
    pub fn random_samples(mut self, n: usize) -> Self {
        self.config.random_samples = n;
        self
    }

    /// Sets the random-crash-point sample count.
    pub fn random_crash_samples(mut self, n: usize) -> Self {
        self.config.random_crash_samples = n;
        self
    }

    /// Replaces the pass set wholesale.
    pub fn passes(mut self, passes: impl IntoIterator<Item = Pass>) -> Self {
        self.config.passes = passes.into_iter().collect();
        self
    }

    /// Adds passes to the current set.
    pub fn with_passes(mut self, passes: impl IntoIterator<Item = Pass>) -> Self {
        for p in passes {
            self.config.passes.insert(p);
        }
        self
    }

    /// Removes passes from the current set.
    pub fn without_passes(mut self, passes: impl IntoIterator<Item = Pass>) -> Self {
        for p in passes {
            self.config.passes.remove(p);
        }
        self
    }

    /// Sets the schedule-phase exploration strategy.
    pub fn strategy(mut self, strategy: impl Strategy + 'static) -> Self {
        self.config.strategy = Arc::new(strategy);
        self
    }

    /// Sets the worker-thread count (0 = one per available core).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Keeps exploring after the first counterexample instead of
    /// stopping the run.
    pub fn keep_going(mut self, on: bool) -> Self {
        self.config.keep_going = on;
        self
    }

    /// Streams JSONL telemetry into an existing sink (shareable across
    /// scenario runs — every run appends to the same stream).
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.config.telemetry = Some(sink);
        self
    }

    /// Streams JSONL telemetry into any writer.
    pub fn telemetry_writer(self, w: impl std::io::Write + Send + 'static) -> Self {
        self.telemetry(TelemetrySink::to_writer(w))
    }

    /// Streams JSONL telemetry into a file created at check start.
    pub fn telemetry_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.telemetry_path = Some(path.into());
        self
    }

    /// Prints a progress line to stderr every `n` executions (0 = off).
    pub fn progress_every(mut self, n: u64) -> Self {
        self.config.progress_every = n;
        self
    }

    /// Runs only shard `i` of `n` of the deterministic job space (see
    /// [`CheckConfig::shard`]). Panics if `i >= n` or `n == 0`.
    pub fn shard(mut self, i: u32, n: u32) -> Self {
        assert!(n > 0 && i < n, "shard {i}/{n} is not a valid assignment");
        self.config.shard = Some((i, n));
        self
    }

    /// Optional variant of [`Self::shard`] for flag plumbing.
    pub fn shard_opt(mut self, shard: Option<(u32, u32)>) -> Self {
        if let Some((i, n)) = shard {
            assert!(n > 0 && i < n, "shard {i}/{n} is not a valid assignment");
        }
        self.config.shard = shard;
        self
    }

    /// Resumes from a telemetry JSONL checkpoint (see
    /// [`CheckConfig::resume_from`]). When this equals
    /// [`CheckConfig::telemetry_path`] the stream is opened in append
    /// mode so the same file keeps serving as the write-ahead log.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.resume_from = Some(path.into());
        self
    }

    /// Caps scheduled executions (0 = unlimited); see
    /// [`CheckConfig::exec_budget`].
    pub fn exec_budget(mut self, n: u64) -> Self {
        self.config.exec_budget = n;
        self
    }

    /// Enables (or disables) counterexample trace capture; see
    /// [`CheckConfig::trace_capture`].
    pub fn trace_capture(mut self, on: bool) -> Self {
        self.config.trace_capture = on;
        self
    }

    /// Enables (or disables) the cost profiler; see
    /// [`CheckConfig::profile`].
    pub fn profile(mut self, on: bool) -> Self {
        self.config.profile = on;
        self
    }

    /// Enables (or disables) counterexample shrinking; see
    /// [`CheckConfig::shrink`].
    pub fn shrink(mut self, on: bool) -> Self {
        self.config.shrink = on;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> CheckConfig {
        self.config
    }
}

/// How one explored execution ended.
#[derive(Debug, Clone)]
pub enum ExecOutcome {
    /// Ghost validation and the final check both passed.
    Ok,
    /// A ghost capability rule or end-of-execution obligation failed —
    /// a refinement violation.
    Violation(GhostError),
    /// Modelled undefined behaviour was triggered.
    Ub(String),
    /// A plain panic in the code under test.
    Bug(String),
    /// No runnable thread but unfinished work: a deadlock.
    Deadlock,
    /// The harness's final predicate failed.
    FinalCheckFailed(String),
    /// The execution exhausted its step budget (`max_steps`) without
    /// finishing — a livelock or runaway loop. Carries the budget. The
    /// watchdog is deterministic (step counts, not wall clock), so a
    /// wedged execution wedges identically on replay.
    Wedged(u64),
    /// The harness itself (a controller-side hook: boot, crash_reset,
    /// recovery construction, final_check) panicked. Isolated by
    /// `catch_unwind` and recorded as an outcome so one broken scenario
    /// cannot poison a campaign.
    HarnessPanic(String),
}

impl ExecOutcome {
    /// Whether this outcome counts as a verification failure.
    pub fn is_failure(&self) -> bool {
        !matches!(self, ExecOutcome::Ok)
    }
}

/// A failing execution, with enough context to reproduce and debug it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What failed.
    pub outcome: ExecOutcome,
    /// Which exploration pass produced it.
    pub pass: Pass,
    /// Canonical index of the failing execution within its pass; the
    /// pair (pass, index) totally orders counterexamples and is how the
    /// parallel explorer picks the one to report.
    pub index: u64,
    /// The derived per-execution seed (model randomness; also the
    /// schedule seed for random passes). [`replay`] feeds it back in.
    pub seed: u64,
    /// The schedule prefix (choice indices) that reproduces it — DFS
    /// prefixes, or the replayed corpus prefix of a coverage-guided
    /// random sample; empty for round-robin and plain random passes.
    pub schedule_prefix: Vec<usize>,
    /// Injected crash points. Unit: **absolute grant counts** from the
    /// start of the execution (crash k fires before the (k+1)-th grant);
    /// an injected crash itself consumes one count, so nested points
    /// land inside recovery.
    pub crash_points: Vec<u64>,
    /// Decision depths at which the schedule prefix asked for a choice
    /// index out of range and was clamped to the last runnable thread —
    /// non-empty means the prefix came from a differently-shaped run.
    pub clamped: Vec<usize>,
    /// The fault plan active during the failing execution (empty for the
    /// schedule/crash passes). [`replay`] re-injects it.
    pub faults: FaultPlan,
    /// Rendered ghost trace at failure.
    pub trace: String,
    /// Causal execution trace of the failing run, recorded by re-running
    /// it with the [`goose_rt::trace`] recorder on (see
    /// [`CheckConfig::trace_capture`]). Debug-only payload: excluded
    /// from campaign JSON and from every fingerprint, so reports are
    /// byte-identical with capture on or off.
    pub timeline: Option<goose_rt::ExecTrace>,
}

impl Counterexample {
    /// The canonical ordering key `(pass_rank, index)`.
    pub fn key(&self) -> (u8, u64) {
        (self.pass.rank(), self.index)
    }
}

/// Aggregate result of checking one scenario.
#[derive(Debug, Clone, Default)]
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
    /// [`FaultPlan`]).
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

/// Schedule policy for one execution.
enum Policy {
    /// Deterministic: follow the recorded prefix, then always pick the
    /// first runnable (DFS order).
    DfsPrefix(Vec<usize>),
    /// Round-robin over runnable threads.
    RoundRobin,
    /// Replay the (possibly empty) decision prefix, then seeded
    /// pseudo-random choice.
    Random { seed: u64, prefix: Vec<usize> },
}

struct ScheduleState {
    policy: Policy,
    /// (choice index, number of runnable options) per decision.
    decisions: Vec<(usize, usize)>,
    /// Decision depths where a replayed prefix index was out of range.
    clamped: Vec<usize>,
    rr_next: usize,
    rng: u64,
}

impl ScheduleState {
    fn new(policy: Policy) -> Self {
        let rng = match &policy {
            Policy::Random { seed, .. } => *seed | 1,
            _ => 1,
        };
        ScheduleState {
            policy,
            decisions: Vec::new(),
            clamped: Vec::new(),
            rr_next: 0,
            rng,
        }
    }

    fn choose(&mut self, runnable: &[Tid]) -> Tid {
        let n = runnable.len();
        let d = self.decisions.len();
        let idx = match &self.policy {
            Policy::DfsPrefix(prefix) => {
                if d < prefix.len() {
                    if prefix[d] >= n {
                        // Out-of-range prefix entry: the prefix came from
                        // a run that had more runnable threads here.
                        // Record the clamp so reports can surface it.
                        self.clamped.push(d);
                    }
                    prefix[d].min(n - 1)
                } else {
                    0
                }
            }
            Policy::RoundRobin => {
                let idx = self.rr_next % n;
                self.rr_next += 1;
                idx
            }
            Policy::Random { prefix, .. } => {
                if d < prefix.len() {
                    if prefix[d] >= n {
                        self.clamped.push(d);
                    }
                    prefix[d].min(n - 1)
                } else {
                    // xorshift64*
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    (self.rng as usize) % n
                }
            }
        };
        self.decisions.push((idx, n));
        runnable[idx]
    }
}

/// Phase of one execution's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Main,
    Recovering,
    After,
}

struct RunResult {
    outcome: ExecOutcome,
    decisions: Vec<(usize, usize)>,
    clamped: Vec<usize>,
    steps: u64,
    crashes: usize,
    helped: u64,
    /// Disk operations attempted (fault-sweep probes use this as the
    /// transient-error enumeration horizon).
    disk_ops: u64,
    /// Network messages sent (net-fault-sweep enumeration horizon).
    net_msgs: u64,
    /// Times a thread parked on a held lock (sched contention counter).
    lock_blocks: u64,
    /// Per-lock share of `lock_blocks` (`ModelRt::lock_block_profile`),
    /// consumed by the profiler's resource-contention table.
    lock_profile: Vec<(u64, u64)>,
    /// FNV-1a fingerprint of the rendered ghost trace (behavioural
    /// coverage proxy).
    trace_fp: u64,
    /// Model-op accounting from [`SchedStats`]: block reads, block
    /// writes, flush barriers, net sends, net receives.
    disk_reads: u64,
    disk_writes: u64,
    disk_flushes: u64,
    net_sends: u64,
    net_recvs: u64,
    /// OS-thread wake-ups the hand-off issued (`ModelRt::wakeups`): the
    /// profiler's deterministic proxy for scheduling cost, in no report.
    wakeups: u64,
    /// Wall time of this single execution (telemetry only).
    duration: Duration,
    trace: String,
    /// Per-grant dependency observations (schedule-phase DPOR runs).
    /// Boxed here and in [`JobOutcome`], where most executions have none.
    deps: Option<Box<DepTrace>>,
    /// Causal execution trace (capture-trace runs only).
    exec_trace: Option<ExecTrace>,
}

/// Runs one execution under `policy`, injecting crashes at the given
/// absolute grant counts and faults per `faults`. With `track_deps`, the
/// runtime records each grant's dependency footprint and the result
/// carries a [`DepTrace`] for partial-order reduction. With
/// `capture_trace`, the runtime's causal recorder is on and the result
/// carries an [`ExecTrace`] — a pure observer that changes no counter,
/// schedule, or fault index.
///
/// The execution is **isolated**: the harness body runs under
/// `catch_unwind`, so a panicking harness hook becomes an
/// [`ExecOutcome::HarnessPanic`] outcome instead of killing the worker,
/// and any virtual threads a failed or panicked execution left suspended
/// are unwound before returning, which frees their stacks (nothing
/// stays suspended across a long keep-going campaign).
#[allow(clippy::too_many_arguments)]
fn run_one<S: SpecTS, H: Harness<S>>(
    harness: &H,
    policy: Policy,
    crash_points: &[u64],
    faults: &FaultPlan,
    seed: u64,
    max_steps: u64,
    track_deps: bool,
    capture_trace: bool,
) -> RunResult {
    let rt = ModelRt::with_faults(seed, max_steps, faults.clone());
    let run_started = Instant::now();
    let result = quiet_worker_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_one_inner(
                harness,
                &rt,
                policy,
                crash_points,
                faults,
                track_deps,
                capture_trace,
            )
        }))
    });
    match result {
        Ok(r) => {
            if r.outcome.is_failure() {
                // Deadlocked, wedged, or panicked executions leave
                // virtual threads parked; reap them.
                rt.crash_all();
            }
            r
        }
        Err(payload) => {
            rt.crash_all();
            let stats = rt.sched_stats();
            RunResult {
                outcome: ExecOutcome::HarnessPanic(panic_message(payload)),
                decisions: Vec::new(),
                clamped: Vec::new(),
                steps: stats.steps,
                crashes: 0,
                helped: 0,
                disk_ops: stats.disk_ops,
                net_msgs: stats.net_msgs,
                lock_blocks: stats.lock_blocks,
                lock_profile: rt.lock_block_profile(),
                trace_fp: trace_fingerprint(""),
                disk_reads: stats.disk_reads,
                disk_writes: stats.disk_writes,
                disk_flushes: stats.disk_flushes,
                net_sends: stats.net_sends,
                net_recvs: stats.net_recvs,
                wakeups: rt.wakeups(),
                duration: run_started.elapsed(),
                trace: String::new(),
                deps: None,
                exec_trace: capture_trace.then(|| rt.take_trace()),
            }
        }
    }
}

/// Renders an arbitrary unwind payload for the harness-panic outcome.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What the explorer decides and records at every step boundary,
/// packaged as the runtime's [`Pilot`] so the thread holding the baton
/// can do it without waking the controller: the schedule choice and its
/// decision log, the step clock crash points and disk failures are
/// scheduled on, and, when on, the per-grant dependency footprint and
/// the ghost-trace watermark of the causal trace.
struct ExecPilot<S: SpecTS> {
    sched: ScheduleState,
    /// Grants plus injected crashes so far.
    steps: u64,
    /// Pending crash points, reversed: the next one is last.
    crash_points: Vec<u64>,
    disk_fail: Option<(u8, u64)>,
    ghost: Arc<Ghost<S>>,
    /// Per-grant dependency observations (`track_deps` executions).
    dep: Option<DepTrace>,
    /// Ghost-engine calls made before the current grant.
    ghost_ops: u64,
    /// How many ghost events have been copied into the causal trace
    /// (`capture_trace` executions).
    spec_mark: Option<usize>,
}

impl<S: SpecTS> ExecPilot<S> {
    /// Whether the plan fails a disk at this step boundary.
    fn disk_fail_due(&self) -> bool {
        self.disk_fail.is_some_and(|(_, g)| g == self.steps)
    }

    /// Whether a crash is to be injected at this step boundary.
    fn crash_due(&self) -> bool {
        self.crash_points.last() == Some(&self.steps)
    }

    /// Copies the ghost events that appeared since the last call into the
    /// causal trace, attributed to `tid` (`None`: the controller).
    fn drain_spec(&mut self, rt: &ModelRt, tid: Option<Tid>) {
        let Some(mark) = self.spec_mark.as_mut() else {
            return;
        };
        let snapshot = self.ghost.trace();
        let events = snapshot.events();
        for ev in &events[*mark..] {
            rt.trace_event_for(
                tid,
                TraceKind::Spec {
                    event: format!("{ev:?}"),
                },
            );
        }
        *mark = events.len();
    }
}

impl<S: SpecTS> Pilot for ExecPilot<S> {
    fn step_done(&mut self, rt: &ModelRt, tid: Tid) {
        self.steps += 1;
        if let Some(dep) = self.dep.as_mut() {
            let mut acc = rt.take_step_accesses();
            if self.ghost.op_count() != self.ghost_ops {
                // Ghost activity is tagged per thread: a thread's spec
                // events are ordered by its own program order, and any
                // cross-thread spec coupling (helping, linearization
                // against a shared object) is mediated by a physical
                // primitive whose resource tag is already in the
                // footprint. Untagged cross-thread ghost coupling would
                // be unsound to commute — see DESIGN.md §12.
                acc.push(StepAccess::write(res::GHOST | tid as u64));
            }
            dep.accesses.push(acc);
        }
        self.drain_spec(rt, Some(tid));
    }

    fn pick(&mut self, _rt: &ModelRt, runnable: &[Tid]) -> Option<Tid> {
        // A disk failure or a crash due here is the controller's to
        // inject.
        if self.disk_fail_due() || self.crash_due() {
            return None;
        }
        let tid = self.sched.choose(runnable);
        if let Some(dep) = self.dep.as_mut() {
            dep.runnables.push(runnable.to_vec());
            // Snapshot immediately before the grant so controller-side
            // ghost calls (crash(), validate()) between grants never
            // pollute the per-grant delta.
            self.ghost_ops = self.ghost.op_count();
        }
        Some(tid)
    }
}

fn run_one_inner<S: SpecTS, H: Harness<S>>(
    harness: &H,
    rt: &Arc<ModelRt>,
    policy: Policy,
    crash_points: &[u64],
    faults: &FaultPlan,
    track_deps: bool,
    capture_trace: bool,
) -> RunResult {
    let rt = Arc::clone(rt);
    rt.set_track_deps(track_deps);
    rt.set_tracing(capture_trace);
    let ghost = Ghost::new(harness.spec());
    let w = World {
        rt: Arc::clone(&rt),
        ghost: Arc::clone(&ghost),
    };
    let mut exec = harness.make(&w);
    exec.boot(&w);
    for (name, body) in exec.threads(&w) {
        rt.spawn(name, body);
    }

    let pilot = Arc::new(Mutex::new(ExecPilot {
        sched: ScheduleState::new(policy),
        steps: 0,
        crash_points: crash_points.iter().rev().copied().collect(),
        disk_fail: faults.disk_fail,
        ghost: Arc::clone(&ghost),
        dep: track_deps.then(DepTrace::default),
        ghost_ops: 0,
        spec_mark: capture_trace.then_some(0),
    }));
    let shared: SharedPilot = pilot.clone();
    let mut crashes = 0usize;
    let mut phase = Phase::Main;
    let mut recovery_tid: Option<Tid> = None;
    let mut after_spawned = false;
    if track_deps {
        // Discard anything noted during boot/spawn: footprints belong to
        // granted steps, not setup.
        rt.take_step_accesses();
    }
    // Spec-visible ghost events stream into the causal trace as they
    // appear: the pilot drains them after every grant (attributed to the
    // granted thread), the controller around its own transitions.
    pilot.lock().drain_spec(&rt, None);

    let run_started = Instant::now();
    let finish = |outcome: ExecOutcome, crashes: usize, helped: u64| {
        let mut pilot = pilot.lock();
        let stats = rt.sched_stats();
        let trace = ghost.trace().render();
        RunResult {
            outcome,
            decisions: std::mem::take(&mut pilot.sched.decisions),
            clamped: std::mem::take(&mut pilot.sched.clamped),
            steps: pilot.steps,
            crashes,
            helped,
            disk_ops: stats.disk_ops,
            net_msgs: stats.net_msgs,
            lock_blocks: stats.lock_blocks,
            lock_profile: rt.lock_block_profile(),
            trace_fp: trace_fingerprint(&trace),
            disk_reads: stats.disk_reads,
            disk_writes: stats.disk_writes,
            disk_flushes: stats.disk_flushes,
            net_sends: stats.net_sends,
            net_recvs: stats.net_recvs,
            wakeups: rt.wakeups(),
            duration: run_started.elapsed(),
            trace,
            deps: pilot.dep.take().map(Box::new),
            exec_trace: capture_trace.then(|| rt.take_trace()),
        }
    };

    // One iteration per event only the controller can handle: the pilot
    // schedules every step in between on the virtual threads' own stacks.
    loop {
        let first = {
            let mut p = pilot.lock();
            // Plan-scheduled permanent disk failure at this grant
            // boundary? (Fires before a same-count crash and does not
            // consume a step — it models the device dying, not the
            // process.)
            if p.disk_fail_due() {
                let (d, _) = p.disk_fail.take().expect("a due failure is pending");
                exec.inject_disk_failure(&w, d);
            }

            // Crash injection at this step boundary?
            if p.crash_due() {
                p.crash_points.pop();
                crashes += 1;
                rt.crash_all();
                ghost.crash();
                exec.crash_reset(&w);
                exec.boot(&w);
                let body = exec.recovery(&w);
                recovery_tid = Some(rt.spawn("recovery", body));
                phase = Phase::Recovering;
                p.drain_spec(&rt, None);
                if track_deps {
                    // Crash unwinding and re-boot are controller
                    // transitions, not granted steps; drop any footprint
                    // they left behind.
                    rt.take_step_accesses();
                }
                // A crash consumes a "step" so nested sweeps can target
                // positions inside recovery distinctly.
                p.steps += 1;
                continue;
            }

            let runnable = rt.runnable();
            if runnable.is_empty() {
                if rt.all_done() {
                    // Pending crash points beyond the end are simply
                    // unused.
                    break;
                }
                drop(p);
                return finish(ExecOutcome::Deadlock, crashes, 0);
            }
            p.pick(&rt, &runnable)
                .expect("nothing is due, so the pilot picks")
        };
        let outcome = match rt.run(&shared, first) {
            // The pilot declined or nothing is runnable: the top of the
            // loop finds out which.
            (_, StepResult::Yielded | StepResult::Blocked) => continue,
            (tid, StepResult::Finished) => {
                if phase == Phase::Recovering && recovery_tid == Some(tid) {
                    phase = Phase::After;
                    if !after_spawned {
                        after_spawned = true;
                        for (name, body) in exec.after_recovery(&w) {
                            rt.spawn(name, body);
                        }
                    }
                }
                continue;
            }
            (_, StepResult::Panicked(PanicKind::Ghost(e))) => ExecOutcome::Violation(e),
            (_, StepResult::Panicked(PanicKind::Ub(msg))) => ExecOutcome::Ub(msg),
            (_, StepResult::Panicked(PanicKind::Other(msg))) => ExecOutcome::Bug(msg),
            // Deterministic stall watchdog: the execution burned its
            // whole step budget without finishing.
            (_, StepResult::Panicked(PanicKind::StepBudget(budget))) => ExecOutcome::Wedged(budget),
            (_, StepResult::Panicked(PanicKind::CrashUnwind)) => {
                // Only reachable via crash_all, which we drive ourselves.
                unreachable!("crash unwind surfaced outside crash injection");
            }
        };
        return finish(outcome, crashes, 0);
    }

    // A crash point scheduled exactly at the end of all work: treat as
    // unused (nothing was in flight; the sweep's earlier points covered
    // every interesting boundary).

    let (outcome, helped) = match ghost.validate() {
        Ok(report) => {
            let helped = report.helped as u64;
            match exec.final_check(&w) {
                Ok(()) => (ExecOutcome::Ok, helped),
                Err(msg) => (ExecOutcome::FinalCheckFailed(msg), helped),
            }
        }
        Err(e) => (ExecOutcome::Violation(e), 0),
    };
    pilot.lock().drain_spec(&rt, None);
    finish(outcome, crashes, helped)
}

// ---------------------------------------------------------------------
// Parallel exploration machinery
// ---------------------------------------------------------------------

/// Canonical job key: (pass rank, index within the pass).
type JobKey = (u8, u64);

/// Derives the per-execution seed: `hash(base_seed, pass_rank, index)`.
/// Every execution's randomness is a pure function of these three, which
/// is what makes parallel and sequential runs indistinguishable.
fn exec_seed(base: u64, rank: u8, index: u64) -> u64 {
    splitmix(splitmix(base ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ index)
}

/// Deterministic shard assignment for a job key: a splitmix hash of
/// `(rank, index)` reduced mod `n`. Pure function of the key, so every
/// process — and every worker count — agrees on who owns which job
/// (DESIGN.md §13).
pub fn shard_of(key: (u8, u64), n: u32) -> u32 {
    if n <= 1 {
        return 0;
    }
    let mixed = splitmix(((key.0 as u64) << 56) ^ key.1.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (mixed % n as u64) as u32
}

enum JobKind {
    /// One `run_one` execution.
    Single,
    /// A random-crash pair: probe the schedule crash-free to find its
    /// horizon, then rerun it with one derived crash point. The crash
    /// run reports under pass "random-crash" with the same index.
    ProbeThenCrash,
}

enum PolicySpec {
    Dfs {
        prefix: Vec<usize>,
        track_deps: bool,
    },
    RoundRobin,
    Random {
        prefix: Vec<usize>,
    },
}

struct Job {
    key: JobKey,
    pass: Pass,
    policy: PolicySpec,
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
    /// A fault-free single execution (the common case).
    fn plain(key: JobKey, pass: Pass, policy: PolicySpec) -> Job {
        Job {
            key,
            pass,
            policy,
            crash_points: Vec::new(),
            swept: 0,
            faults: FaultPlan::default(),
            kind: JobKind::Single,
            probe: false,
        }
    }
}

/// Which fault surface a plan exercises (coverage accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultFamily {
    None,
    Disk,
    Torn,
    Net,
}

impl FaultFamily {
    fn of(plan: &FaultPlan) -> Self {
        if !plan.transient_io.is_empty() || plan.disk_fail.is_some() {
            FaultFamily::Disk
        } else if plan.torn.is_some() {
            FaultFamily::Torn
        } else if !plan.net.is_empty() {
            FaultFamily::Net
        } else {
            FaultFamily::None
        }
    }
}

struct JobOutcome {
    key: JobKey,
    pass: Pass,
    steps: u64,
    crashes: usize,
    helped: u64,
    swept: usize,
    /// Which surface the job's fault plan exercised; `None` for an
    /// empty plan (fault-plan and coverage accounting).
    family: FaultFamily,
    /// Disk ops / net messages of the execution (probe horizons).
    disk_ops: u64,
    net_msgs: u64,
    /// Lock contention: total parks and the per-lock split (profiler
    /// feed; the split is empty for WAL-replayed outcomes).
    lock_blocks: u64,
    lock_profile: Vec<(u64, u64)>,
    /// Model-op accounting (report totals; recorded in the WAL so
    /// resumed totals match cold ones).
    disk_reads: u64,
    disk_writes: u64,
    disk_flushes: u64,
    net_sends: u64,
    net_recvs: u64,
    /// Hand-off wake-ups (profiler feed; 0 for WAL-replayed outcomes).
    wakeups: u64,
    /// How the execution ended (outcome histogram feed).
    kind: OutcomeKind,
    /// Schedule decisions taken (depth histogram feed).
    depth: u64,
    /// Crash points this execution injected (coverage accounting).
    crash_points: Vec<u64>,
    /// Ghost-trace fingerprint (behavioural coverage feed).
    trace_fp: u64,
    /// Wall time of the execution (telemetry only; the lone
    /// non-deterministic field here).
    duration: Duration,
    /// Full decision path — kept for schedule-phase jobs (strategy
    /// feedback: tree expansion, coverage corpora).
    decisions: Vec<(usize, usize)>,
    /// Dependency observations (DPOR-tracked jobs only), until the
    /// wave's strategy feedback takes them.
    deps: Option<Box<DepTrace>>,
    /// What the profiler keeps of `deps` (`profile::collisions`).
    collisions: Vec<(u64, u64)>,
    /// Boxed: failures are rare, and an inline counterexample more than
    /// doubles every outcome the campaign keeps until aggregation.
    cx: Option<Box<Counterexample>>,
    /// Whether this shard owns the job key. Spine executions (schedule
    /// phase, probes) run everywhere but count toward statistics and
    /// counterexample selection only in the owning shard, which is what
    /// makes shard reports exactly summable.
    counted: bool,
}

/// Per-run exploration context: shard ownership and the WAL replay map.
struct ExploreCtx {
    shard: Option<(u32, u32)>,
    /// Completed `ok` executions from the resume WAL, keyed by job key.
    replay: BTreeMap<JobKey, telemetry::WalExec>,
    /// Whether the nested crash sweep is enabled (it promotes the
    /// first-level crash sweep into the derivation spine: nested job
    /// enumeration needs every rank-3 step count).
    nested_on: bool,
    /// Executions satisfied from the WAL instead of run.
    replayed: AtomicU64,
}

impl ExploreCtx {
    fn owns(&self, key: JobKey) -> bool {
        match self.shard {
            None => true,
            Some((i, n)) => shard_of(key, n) == i,
        }
    }

    /// Whether every shard must *execute* this job even when it does
    /// not own it: its result feeds deterministic job derivation or
    /// strategy feedback, which must be identical across shards.
    fn is_spine(&self, job: &Job) -> bool {
        job.probe
            || matches!(job.pass, Pass::Dfs | Pass::Random)
            || (job.pass == Pass::CrashSweep && self.nested_on)
    }
}

/// Shared cancellation state: the minimum-key counterexample found so
/// far, plus a cheap "anything failed yet?" flag.
struct Cancel {
    keep_going: bool,
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

    fn any_failure(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Whether the exploration should stop scheduling further phases:
    /// a failure has been found and the config asked for early exit.
    fn cancelled(&self) -> bool {
        !self.keep_going && self.any_failure()
    }
}

fn make_counterexample(
    r: &RunResult,
    pass: Pass,
    index: u64,
    seed: u64,
    schedule_prefix: Vec<usize>,
    crash_points: Vec<u64>,
    faults: FaultPlan,
) -> Counterexample {
    Counterexample {
        outcome: r.outcome.clone(),
        pass,
        index,
        seed,
        schedule_prefix,
        crash_points,
        clamped: r.clamped.clone(),
        faults,
        trace: r.trace.clone(),
        timeline: None,
    }
}

/// Builds a [`JobOutcome`] from one finished execution and emits its
/// telemetry (`exec_done`, live counters, optional `counterexample`).
/// The `exec_done` record doubles as the resume WAL entry, so it
/// carries everything a replayed outcome needs (helped ops and probe
/// horizons included).
#[allow(clippy::too_many_arguments)]
fn finish_execution(
    r: &RunResult,
    key: JobKey,
    pass: Pass,
    seed: u64,
    crash_points: Vec<u64>,
    swept: usize,
    faults: &FaultPlan,
    keep_decisions: bool,
    telem: &RunTelemetry,
    counted: bool,
) -> JobOutcome {
    let kind = OutcomeKind::of(&r.outcome);
    telem.emit(&telemetry::ev_exec_done(&telemetry::ExecEvent {
        pass,
        index: key.1,
        seed,
        outcome: kind,
        steps: r.steps,
        depth: r.decisions.len() as u64,
        crashes: r.crashes as u64,
        helped: r.helped,
        lock_blocks: r.lock_blocks,
        disk_ops: r.disk_ops,
        net_msgs: r.net_msgs,
        disk_reads: r.disk_reads,
        disk_writes: r.disk_writes,
        disk_flushes: r.disk_flushes,
        net_sends: r.net_sends,
        net_recvs: r.net_recvs,
        trace_fp: r.trace_fp,
        faults: &faults.compact(),
        duration: r.duration,
    }));
    telem.exec_finished(r.steps, r.outcome.is_failure());
    JobOutcome {
        key,
        pass,
        steps: r.steps,
        crashes: r.crashes,
        helped: r.helped,
        swept,
        family: FaultFamily::of(faults),
        disk_ops: r.disk_ops,
        net_msgs: r.net_msgs,
        lock_blocks: r.lock_blocks,
        lock_profile: r.lock_profile.clone(),
        disk_reads: r.disk_reads,
        disk_writes: r.disk_writes,
        disk_flushes: r.disk_flushes,
        net_sends: r.net_sends,
        net_recvs: r.net_recvs,
        wakeups: r.wakeups,
        kind,
        depth: r.decisions.len() as u64,
        crash_points,
        trace_fp: r.trace_fp,
        duration: r.duration,
        decisions: if keep_decisions {
            r.decisions.clone()
        } else {
            Vec::new()
        },
        // The clone is exact-sized; the original carries the slack of
        // having been pushed to grant by grant.
        deps: r.deps.clone(),
        collisions: Vec::new(),
        cx: None,
        counted,
    }
}

/// Synthesizes a [`JobOutcome`] from a WAL record instead of running
/// the execution. Only `ok` records are replayable, and every field
/// below is either deterministic job metadata or a recorded
/// deterministic statistic, so a resumed run aggregates to the same
/// report as a cold one. Emits no telemetry: the record is already in
/// the WAL.
fn replayed_outcome(
    key: JobKey,
    pass: Pass,
    w: &telemetry::WalExec,
    crash_points: Vec<u64>,
    swept: usize,
    faults: &FaultPlan,
    counted: bool,
) -> JobOutcome {
    JobOutcome {
        key,
        pass,
        steps: w.steps,
        crashes: w.crashes as usize,
        helped: w.helped,
        swept,
        family: FaultFamily::of(faults),
        disk_ops: w.disk_ops,
        net_msgs: w.net_msgs,
        lock_blocks: w.lock_blocks,
        lock_profile: Vec::new(),
        disk_reads: w.disk_reads,
        disk_writes: w.disk_writes,
        disk_flushes: w.disk_flushes,
        net_sends: w.net_sends,
        net_recvs: w.net_recvs,
        wakeups: 0,
        kind: OutcomeKind::Ok,
        depth: w.depth,
        crash_points,
        trace_fp: w.trace_fp,
        duration: Duration::ZERO,
        decisions: Vec::new(),
        deps: None,
        collisions: Vec::new(),
        cx: None,
        counted,
    }
}

/// Runs one job (one or two executions) and produces its outcomes,
/// applying shard ownership (skip leaf jobs other shards own; run but
/// don't count spine jobs) and the WAL replay map (skip sweep-phase
/// executions the checkpoint already completed).
fn execute_job<S: SpecTS, H: Harness<S>>(
    harness: &H,
    config: &CheckConfig,
    cancel: &Cancel,
    telem: &RunTelemetry,
    ctx: &ExploreCtx,
    job: &Job,
) -> Vec<JobOutcome> {
    let owned = ctx.owns(job.key);
    let paired = matches!(job.kind, JobKind::ProbeThenCrash);
    let crash_key = (Pass::RandomCrash.rank(), job.key.1);
    // A random-crash probe must also run when this shard owns only the
    // derived crash half: the crash point is a function of the probe's
    // horizon.
    let crash_owned = paired && ctx.owns(crash_key);
    if !owned && !crash_owned && !ctx.is_spine(job) {
        return Vec::new();
    }
    if !cancel.should_run(job.key) {
        return Vec::new();
    }
    let (rank, index) = job.key;
    let seed = exec_seed(config.seed, rank, index);

    // Schedule-phase executions (ranks 0-1) always run live — the
    // strategy needs their decision paths and dependency traces for
    // feedback; everything from the crash-sweep base up is replayable.
    let replayable = rank >= Pass::CrashSweepBase.rank();

    let mut first_failed = false;
    let out = if replayable && ctx.replay.contains_key(&job.key) {
        ctx.replayed.fetch_add(1, Ordering::Relaxed);
        replayed_outcome(
            job.key,
            job.pass,
            &ctx.replay[&job.key],
            job.crash_points.clone(),
            job.swept,
            &job.faults,
            owned,
        )
    } else {
        let (policy, keep_decisions) = match &job.policy {
            PolicySpec::Dfs { prefix, .. } => (Policy::DfsPrefix(prefix.clone()), true),
            PolicySpec::RoundRobin => (Policy::RoundRobin, false),
            PolicySpec::Random { prefix } => (
                Policy::Random {
                    seed,
                    prefix: prefix.clone(),
                },
                // The coverage strategy feeds on random-pass decision
                // paths; the random-crash probes (rank 5) don't need
                // them.
                job.pass == Pass::Random,
            ),
        };
        let track = matches!(
            &job.policy,
            PolicySpec::Dfs {
                track_deps: true,
                ..
            }
        );
        let r = run_one(
            harness,
            policy,
            &job.crash_points,
            &job.faults,
            seed,
            config.max_steps,
            track,
            false,
        );
        let mut out = finish_execution(
            &r,
            job.key,
            job.pass,
            seed,
            job.crash_points.clone(),
            job.swept,
            &job.faults,
            keep_decisions,
            telem,
            owned,
        );
        if r.outcome.is_failure() {
            first_failed = true;
            let prefix = match &job.policy {
                PolicySpec::Dfs { prefix, .. } => prefix.clone(),
                PolicySpec::Random { prefix } => prefix.clone(),
                PolicySpec::RoundRobin => Vec::new(),
            };
            let cx = make_counterexample(
                &r,
                job.pass,
                index,
                seed,
                prefix,
                job.crash_points.clone(),
                job.faults.clone(),
            );
            telem.emit(&telemetry::ev_counterexample(&cx));
            out.cx = Some(Box::new(cx));
            cancel.offer(job.key);
        }
        out
    };
    if first_failed {
        return vec![out];
    }

    match job.kind {
        JobKind::Single => vec![out],
        JobKind::ProbeThenCrash => {
            // The probe succeeded: rerun the same schedule with one
            // crash point derived from the probe's horizon. The crash
            // run reuses the probe's seed so the schedule replays.
            if !crash_owned || !cancel.should_run(crash_key) {
                return vec![out];
            }
            let horizon = out.steps.max(1);
            let k = splitmix(seed) % horizon;
            if let Some(w) = ctx.replay.get(&crash_key) {
                ctx.replayed.fetch_add(1, Ordering::Relaxed);
                let out2 = replayed_outcome(
                    crash_key,
                    Pass::RandomCrash,
                    w,
                    vec![k],
                    1,
                    &job.faults,
                    true,
                );
                return vec![out, out2];
            }
            let r2 = run_one(
                harness,
                Policy::Random {
                    seed,
                    prefix: Vec::new(),
                },
                &[k],
                &job.faults,
                seed,
                config.max_steps,
                false,
                false,
            );
            let mut out2 = finish_execution(
                &r2,
                crash_key,
                Pass::RandomCrash,
                seed,
                vec![k],
                1,
                &job.faults,
                false,
                telem,
                true,
            );
            if r2.outcome.is_failure() {
                let cx = make_counterexample(
                    &r2,
                    Pass::RandomCrash,
                    index,
                    seed,
                    Vec::new(),
                    vec![k],
                    job.faults.clone(),
                );
                telem.emit(&telemetry::ev_counterexample(&cx));
                out2.cx = Some(Box::new(cx));
                cancel.offer(crash_key);
            }
            vec![out, out2]
        }
    }
}

/// Runs a batch of jobs across the worker pool (inline when a single
/// worker suffices) and returns their outcomes in job order.
fn run_wave<S: SpecTS, H: Harness<S>>(
    harness: &H,
    config: &CheckConfig,
    cancel: &Cancel,
    telem: &RunTelemetry,
    ctx: &ExploreCtx,
    workers: usize,
    jobs: &[Job],
) -> Vec<JobOutcome> {
    let workers = workers.min(jobs.len()).max(1);
    if workers == 1 {
        // Sized up front: almost every job yields one outcome, and a
        // wave grown by doubling would hold twice its size at the end.
        let mut outs = Vec::with_capacity(jobs.len());
        for job in jobs {
            outs.extend(execute_job(harness, config, cancel, telem, ctx, job));
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
                let outs = execute_job(harness, config, cancel, telem, ctx, &jobs[i]);
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

    fn open(&self) -> bool {
        !self.exhausted
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

/// Whether a WAL's `run_start` record matches the resuming
/// configuration. Workers are excluded (reports are worker-count
/// independent); everything else — seed, budgets, passes, strategy,
/// shard — must agree, or replayed statistics would be lies.
fn wal_matches_config(stored: &Value, name: &str, config: &CheckConfig) -> bool {
    let mut want = telemetry::ev_run_start(name, config, 0);
    let mut got = stored.clone();
    for v in [&mut want, &mut got] {
        if let Value::Object(m) = v {
            m.remove("workers");
            // The env stamp carries the worker count and toolchain; a
            // WAL from a different machine is still replayable because
            // every replayed statistic is deterministic.
            m.remove("env");
        }
    }
    want == got
}

/// Loads the resume WAL, if configured. Any problem — unreadable file,
/// config mismatch — degrades to a cold start with a warning rather
/// than failing the run: a campaign must make progress even when its
/// checkpoint is useless.
fn load_wal(name: &str, config: &CheckConfig) -> BTreeMap<JobKey, telemetry::WalExec> {
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
    match &wal.run_start {
        Some(rs) if wal_matches_config(rs, name, config) => {
            if wal.torn_lines > 0 {
                eprintln!(
                    "[checker] {name}: WAL {}: dropped {} torn line(s)",
                    path.display(),
                    wal.torn_lines
                );
            }
            wal.completed
        }
        Some(_) => {
            eprintln!(
                "[checker] {name}: WAL {} was written by a different configuration; starting cold",
                path.display()
            );
            BTreeMap::new()
        }
        None => {
            if wal.runs_started + wal.torn_lines + wal.completed.len() as u64 > 0 {
                eprintln!(
                    "[checker] {name}: WAL {} has no usable run_start record; starting cold",
                    path.display()
                );
            }
            BTreeMap::new()
        }
    }
}

/// Runs all configured exploration passes over a scenario, dispatching
/// executions across [`CheckConfig::workers`] threads. See the module
/// docs for the determinism contract.
pub fn check<S: SpecTS, H: Harness<S>>(harness: &H, config: &CheckConfig) -> CheckReport {
    let start = Instant::now();
    let workers = config.effective_workers();
    let mut incomplete: Vec<String> = Vec::new();
    let replay = load_wal(harness.name(), config);
    let ctx = ExploreCtx {
        shard: config.shard,
        replay,
        nested_on: config.passes.contains(Pass::NestedCrash),
        replayed: AtomicU64::new(0),
    };
    let mut budget = BudgetGate::new(config.exec_budget);
    let telem = RunTelemetry::new(harness.name(), config);
    if let Some(e) = &telem.open_error {
        incomplete.push(format!("telemetry degraded: {e}"));
    }
    telem.emit(&telemetry::ev_run_start(harness.name(), config, workers));
    // Sharded runs force keep-going semantics: a cutoff chosen inside
    // one shard would depend on which jobs that shard owns, and shard
    // statistics must be exactly summable by `merge_reports`.
    let keep_going = config.keep_going || config.shard.is_some();
    let cancel = Cancel::new(keep_going);
    // One entry per wave, as `run_wave` returned it: a single list would
    // copy every outcome again each time it grew.
    let mut outcomes: Vec<Vec<JobOutcome>> = Vec::new();
    // Enumerable sweep spaces, recorded as each pass derives its job
    // list (deterministic: job derivation is probe-driven, not timed).
    let mut coverage = Coverage::default();
    // Per-pass wall-time profile: each `pass_start` closes the previous
    // pass with a timed `pass_end` record, and the run tail closes the
    // last one. Emitted from the coordinating thread only, so the event
    // order is deterministic for a fixed config.
    let pass_timer: Mutex<Option<(Pass, Instant)>> = Mutex::new(None);
    let pass_start = |pass: Pass| {
        let mut cur = pass_timer.lock();
        if let Some((prev, started)) = cur.take() {
            telem.emit(&telemetry::ev_pass_end(prev, started.elapsed()));
        }
        *cur = Some((pass, Instant::now()));
        telem.emit(&telemetry::ev_pass_start(pass));
    };

    // Schedule phase (ranks 0-1): the strategy decides which crash-free
    // schedules to run, as a wave loop with feedback. Each wave's job
    // keys are assigned in spec order before anything runs; feedback
    // (frontier expansion, sleep-set pruning, coverage re-seeding) is
    // applied only from *complete* waves — a wave cut short by a failure
    // is never observed — so the explored set and the pruned/guided
    // counters are worker-count independent.
    let mut session = config.strategy.session(config);
    let mut announced = PassSet::empty();
    let mut next_index: BTreeMap<u8, u64> = BTreeMap::new();
    while !cancel.cancelled() && budget.open() {
        let Some(wave) = session.next_wave() else {
            break;
        };
        let pass = wave.pass;
        if !announced.contains(pass) {
            announced.insert(pass);
            pass_start(pass);
        }
        let first = *next_index.entry(pass.rank()).or_insert(0);
        let jobs: Vec<Job> = wave
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let key = (pass.rank(), first + i as u64);
                let policy = match spec {
                    ScheduleSpec::Dfs { prefix, track_deps } => PolicySpec::Dfs {
                        prefix: prefix.clone(),
                        track_deps: *track_deps,
                    },
                    ScheduleSpec::Random { prefix } => PolicySpec::Random {
                        prefix: prefix.clone(),
                    },
                };
                Job::plain(key, pass, policy)
            })
            .collect();
        let jobs = budget.admit(jobs);
        next_index.insert(pass.rank(), first + jobs.len() as u64);
        let mut outs = run_wave(harness, config, &cancel, &telem, &ctx, workers, &jobs);
        let observed: Vec<ObservedExec> = outs
            .iter_mut()
            .map(|o| {
                // Footprints are the bulk of a tracked outcome: they
                // live for this wave, not the whole check.
                let deps = o.deps.take().map(|deps| *deps);
                if config.profile {
                    if let Some(deps) = &deps {
                        o.collisions = crate::profile::collisions(&o.decisions, deps);
                    }
                }
                ObservedExec {
                    slot: (o.key.1 - first) as usize,
                    decisions: o.decisions.clone(),
                    trace_fp: o.trace_fp,
                    failed: o.kind != OutcomeKind::Ok,
                    deps,
                }
            })
            .collect();
        outcomes.push(outs);
        if !keep_going && cancel.any_failure() {
            // Break *before* observing: the failing wave may be partial
            // (later jobs skipped), and partial feedback would make
            // strategy state depend on worker timing.
            break;
        }
        if !budget.open() {
            // A budget-truncated wave is run (its executions were paid
            // for) but never observed: feedback from a partial wave
            // would make strategy state depend on where the budget
            // landed rather than on canonical job order.
            break;
        }
        session.observe(pass, &observed);
    }

    // Passes 2-4: systematic crash sweep on the round-robin schedule.
    if config.passes.contains(Pass::CrashSweep) && !cancel.cancelled() && budget.open() {
        pass_start(Pass::CrashSweepBase);
        // Rank 2: discover the crash-free horizon first. The probe is
        // derivation spine: every shard runs it (only the owner counts
        // it), because the rank-3 job list depends on its step count.
        let base_jobs = budget.admit(vec![Job {
            probe: true,
            ..Job::plain(
                (Pass::CrashSweepBase.rank(), 0),
                Pass::CrashSweepBase,
                PolicySpec::RoundRobin,
            )
        }]);
        let base = run_wave(harness, config, &cancel, &telem, &ctx, workers, &base_jobs);
        let horizon = base.first().map_or(0, |o| o.steps);
        outcomes.push(base);

        // Rank 3: one crash at every grant count up to the horizon.
        if !cancel.cancelled() && budget.open() {
            pass_start(Pass::CrashSweep);
            coverage.crash_points_enumerable = horizon;
            let jobs: Vec<Job> = (0..horizon)
                .map(|k| Job {
                    crash_points: vec![k],
                    swept: 1,
                    ..Job::plain(
                        (Pass::CrashSweep.rank(), k),
                        Pass::CrashSweep,
                        PolicySpec::RoundRobin,
                    )
                })
                .collect();
            let jobs = budget.admit(jobs);
            let sweep = run_wave(harness, config, &cancel, &telem, &ctx, workers, &jobs);

            // Rank 4: a second crash inside each recovery, generated in
            // deterministic (k, m) order from the sweep's step counts.
            if config.passes.contains(Pass::NestedCrash) && !cancel.cancelled() && budget.open() {
                pass_start(Pass::NestedCrash);
                let mut nested: Vec<Job> = Vec::new();
                let mut index: u64 = 0;
                for out in &sweep {
                    let k = out.key.1;
                    let after = out.steps.saturating_sub(k + 1);
                    for m in 0..after {
                        nested.push(Job {
                            crash_points: vec![k, k + 1 + m],
                            swept: 1,
                            ..Job::plain(
                                (Pass::NestedCrash.rank(), index),
                                Pass::NestedCrash,
                                PolicySpec::RoundRobin,
                            )
                        });
                        index += 1;
                    }
                }
                let nested = budget.admit(nested);
                outcomes.push(sweep);
                outcomes.push(run_wave(
                    harness, config, &cancel, &telem, &ctx, workers, &nested,
                ));
            } else {
                outcomes.push(sweep);
            }
        }
    }

    // Passes 5-6: random schedules with a random crash point each (probe
    // + crash run are one job; the crash run reuses the probe's seed).
    if config.passes.contains(Pass::RandomCrash) && !cancel.cancelled() && budget.open() {
        pass_start(Pass::RandomCrashProbe);
        let jobs: Vec<Job> = (0..config.random_crash_samples as u64)
            .map(|i| Job {
                kind: JobKind::ProbeThenCrash,
                ..Job::plain(
                    (Pass::RandomCrashProbe.rank(), i),
                    Pass::RandomCrashProbe,
                    PolicySpec::Random { prefix: Vec::new() },
                )
            })
            .collect();
        let jobs = budget.admit(jobs);
        outcomes.push(run_wave(
            harness, config, &cancel, &telem, &ctx, workers, &jobs,
        ));
    }

    // Passes 7-9: deterministic fault-injection sweeps. Each pass probes
    // the fault-free round-robin schedule at index 0 to learn the
    // enumeration horizon (grant count, disk-op count, or message
    // count), then enumerates one fault plan per job at indices >= 1.
    // The probe is deterministic, so the derived job list — and hence
    // every job key — is independent of worker count.
    let surface = harness.fault_surface();

    // Pass 7: transient I/O errors on every disk op, plus (on two-disk
    // substrates) a permanent single-disk failure at every grant count,
    // including during recovery.
    if config.passes.contains(Pass::DiskFault)
        && (surface.transient_disk_io || surface.two_disk)
        && !cancel.cancelled()
        && budget.open()
    {
        let rank = Pass::DiskFault.rank();
        pass_start(Pass::DiskFault);
        let probe_jobs = budget.admit(vec![Job {
            probe: true,
            ..Job::plain((rank, 0), Pass::DiskFault, PolicySpec::RoundRobin)
        }]);
        let probe = run_wave(harness, config, &cancel, &telem, &ctx, workers, &probe_jobs);
        let horizon = probe.first().map_or(0, |o| o.steps);
        let disk_ops = probe.first().map_or(0, |o| o.disk_ops);
        outcomes.push(probe);

        if !cancel.cancelled() && budget.open() {
            let mut jobs: Vec<Job> = Vec::new();
            let mut index: u64 = 1;
            if surface.transient_disk_io {
                for j in 0..disk_ops {
                    let mut faults = FaultPlan::default();
                    faults.transient_io.insert(j);
                    jobs.push(Job {
                        faults,
                        ..Job::plain((rank, index), Pass::DiskFault, PolicySpec::RoundRobin)
                    });
                    index += 1;
                }
            }
            if surface.two_disk {
                for g in 0..horizon {
                    for d in [1u8, 2u8] {
                        let faults = FaultPlan {
                            disk_fail: Some((d, g)),
                            ..FaultPlan::default()
                        };
                        jobs.push(Job {
                            faults,
                            ..Job::plain((rank, index), Pass::DiskFault, PolicySpec::RoundRobin)
                        });
                        index += 1;
                    }
                }
            }
            coverage.disk_fault_plans_enumerable += jobs.len() as u64;
            let jobs = budget.admit(jobs);
            outcomes.push(run_wave(
                harness, config, &cancel, &telem, &ctx, workers, &jobs,
            ));

            // Disk failure *during recovery*: probe one mid-schedule
            // crash to learn the recovery horizon, then fail each disk
            // at every post-crash grant count.
            if surface.two_disk && horizon > 0 && !cancel.cancelled() && budget.open() {
                let k = horizon / 2;
                let probe2_jobs = budget.admit(vec![Job {
                    crash_points: vec![k],
                    swept: 1,
                    probe: true,
                    ..Job::plain((rank, index), Pass::DiskFault, PolicySpec::RoundRobin)
                }]);
                index += 1;
                let probe2 = run_wave(
                    harness,
                    config,
                    &cancel,
                    &telem,
                    &ctx,
                    workers,
                    &probe2_jobs,
                );
                let h2 = probe2.first().map_or(0, |o| o.steps);
                outcomes.push(probe2);
                if !cancel.cancelled() && budget.open() {
                    let mut jobs: Vec<Job> = Vec::new();
                    for g in k + 1..h2 {
                        for d in [1u8, 2u8] {
                            let faults = FaultPlan {
                                disk_fail: Some((d, g)),
                                ..FaultPlan::default()
                            };
                            jobs.push(Job {
                                crash_points: vec![k],
                                swept: 1,
                                faults,
                                ..Job::plain((rank, index), Pass::DiskFault, PolicySpec::RoundRobin)
                            });
                            index += 1;
                        }
                    }
                    coverage.disk_fault_plans_enumerable += jobs.len() as u64;
                    let jobs = budget.admit(jobs);
                    outcomes.push(run_wave(
                        harness, config, &cancel, &telem, &ctx, workers, &jobs,
                    ));
                }
            }
        }
    }

    // Pass 8: torn-write sweep — at every crash point of the baseline
    // schedule, crashes that persist none or a pseudo-random subset of
    // the unflushed write buffer (persisting *all* of it is exactly the
    // plain crash sweep).
    if config.passes.contains(Pass::TornWrite)
        && surface.torn_writes
        && !cancel.cancelled()
        && budget.open()
    {
        let rank = Pass::TornWrite.rank();
        pass_start(Pass::TornWrite);
        let probe_jobs = budget.admit(vec![Job {
            probe: true,
            ..Job::plain((rank, 0), Pass::TornWrite, PolicySpec::RoundRobin)
        }]);
        let probe = run_wave(harness, config, &cancel, &telem, &ctx, workers, &probe_jobs);
        let horizon = probe.first().map_or(0, |o| o.steps);
        outcomes.push(probe);

        if !cancel.cancelled() && budget.open() {
            const MODES: [TornMode; 3] =
                [TornMode::KeepNone, TornMode::Subset(0), TornMode::Subset(1)];
            let jobs: Vec<Job> = (0..horizon)
                .flat_map(|k| {
                    MODES.iter().enumerate().map(move |(m, mode)| {
                        let faults = FaultPlan {
                            torn: Some(*mode),
                            ..FaultPlan::default()
                        };
                        Job {
                            crash_points: vec![k],
                            swept: 1,
                            faults,
                            ..Job::plain(
                                (rank, 1 + k * MODES.len() as u64 + m as u64),
                                Pass::TornWrite,
                                PolicySpec::RoundRobin,
                            )
                        }
                    })
                })
                .collect();
            coverage.torn_plans_enumerable += jobs.len() as u64;
            let jobs = budget.admit(jobs);
            outcomes.push(run_wave(
                harness, config, &cancel, &telem, &ctx, workers, &jobs,
            ));
        }
    }

    // Pass 9: network-fault sweep — drop, duplicate, or delay each
    // message of the baseline schedule, one fault per execution.
    if config.passes.contains(Pass::NetFault) && surface.net && !cancel.cancelled() && budget.open()
    {
        let rank = Pass::NetFault.rank();
        pass_start(Pass::NetFault);
        let probe_jobs = budget.admit(vec![Job {
            probe: true,
            ..Job::plain((rank, 0), Pass::NetFault, PolicySpec::RoundRobin)
        }]);
        let probe = run_wave(harness, config, &cancel, &telem, &ctx, workers, &probe_jobs);
        let net_msgs = probe.first().map_or(0, |o| o.net_msgs);
        outcomes.push(probe);

        if !cancel.cancelled() && budget.open() {
            const FAULTS: [NetFault; 3] = [NetFault::Drop, NetFault::Duplicate, NetFault::Delay];
            let jobs: Vec<Job> = (0..net_msgs)
                .flat_map(|m| {
                    FAULTS.iter().enumerate().map(move |(f, fault)| {
                        let mut faults = FaultPlan::default();
                        faults.net.insert(m, *fault);
                        Job {
                            faults,
                            ..Job::plain(
                                (rank, 1 + m * FAULTS.len() as u64 + f as u64),
                                Pass::NetFault,
                                PolicySpec::RoundRobin,
                            )
                        }
                    })
                })
                .collect();
            coverage.net_plans_enumerable += jobs.len() as u64;
            let jobs = budget.admit(jobs);
            outcomes.push(run_wave(
                harness, config, &cancel, &telem, &ctx, workers, &jobs,
            ));
        }
    }

    // Aggregate. Without keep_going, statistics and counterexamples are
    // restricted to jobs at or below the winning key — exactly the set a
    // canonical-order sequential run would have executed — which makes
    // the whole report worker-count independent. Sharded runs count only
    // owned outcomes (spine jobs executed for derivation are excluded),
    // so summing shard reports reproduces the unsharded totals.
    let mut counterexamples: Vec<Counterexample> = outcomes
        .iter()
        .flatten()
        .filter(|o| o.counted)
        .filter_map(|o| o.cx.as_deref().cloned())
        .collect();
    counterexamples.sort_by_key(|cx| cx.key());
    let cutoff = if keep_going {
        None
    } else {
        counterexamples.first().map(|cx| cx.key())
    };
    if let Some(cut) = cutoff {
        counterexamples.retain(|cx| cx.key() <= cut);
    }

    // Shrink the winning counterexample before the timeline is captured,
    // so the causal trace below is recorded from the *minimized*
    // schedule. Shrinking is sequential post-processing over one
    // counterexample, so the result is deterministic at every worker
    // count; its re-runs emit no telemetry and count toward no
    // statistic (DESIGN.md §16).
    let mut shrink_stats = None;
    if config.shrink {
        if let Some(first) = counterexamples.first_mut() {
            shrink_stats = Some(crate::shrink::shrink_counterexample(
                harness,
                first,
                config.max_steps,
            ));
        }
    }

    // Attach a causal timeline to the winning counterexample by
    // re-running it with the trace recorder on. The re-run is a pure
    // side channel: it emits no telemetry, counts toward no statistic,
    // and the timeline is excluded from campaign JSON and fingerprints,
    // so the report is byte-identical with capture on or off.
    if config.trace_capture {
        if let Some(first) = counterexamples.first_mut() {
            let r = run_one(
                harness,
                cx_policy(first),
                &first.crash_points,
                &first.faults,
                first.seed,
                config.max_steps,
                false,
                true,
            );
            first.timeline = r.exec_trace;
        }
    }

    let mut report = CheckReport {
        name: harness.name().to_string(),
        workers,
        ..CheckReport::default()
    };
    let mut per_pass: BTreeMap<Pass, PassMetrics> = BTreeMap::new();
    let mut crash_point_set: BTreeSet<u64> = BTreeSet::new();
    let mut trace_set: BTreeSet<u64> = BTreeSet::new();
    // The profiler folds the same cutoff-filtered outcomes the report
    // statistics come from, so its counts inherit the worker-count
    // independence argument instead of needing their own.
    let mut prof = config.profile.then(crate::profile::ProfileBuilder::default);
    for out in outcomes.iter().flatten() {
        if !out.counted || cutoff.is_some_and(|cut| out.key > cut) {
            continue;
        }
        report.executions += 1;
        report.total_steps += out.steps;
        report.crashes_injected += out.crashes;
        report.helped_ops += out.helped;
        report.crash_points += out.swept;
        let plans = usize::from(out.family != FaultFamily::None);
        report.fault_plans += plans;
        report.disk_reads += out.disk_reads;
        report.disk_writes += out.disk_writes;
        report.disk_flushes += out.disk_flushes;
        report.net_sends += out.net_sends;
        report.net_recvs += out.net_recvs;

        report.outcomes.record(out.kind);
        report.steps_hist.record(out.steps);
        report.depth_hist.record(out.depth);
        trace_set.insert(out.trace_fp);
        crash_point_set.extend(out.crash_points.iter().copied());
        match out.family {
            FaultFamily::Disk => coverage.disk_fault_plans_exercised += 1,
            FaultFamily::Torn => coverage.torn_plans_exercised += 1,
            FaultFamily::Net => coverage.net_plans_exercised += 1,
            FaultFamily::None => {}
        }
        let pm = per_pass.entry(out.pass).or_insert(PassMetrics {
            pass: out.pass,
            rank: out.key.0,
            ..PassMetrics::default()
        });
        pm.executions += 1;
        pm.steps += out.steps;
        pm.crashes += out.crashes as u64;
        pm.fault_plans += plans as u64;
        pm.failures += u64::from(out.kind != OutcomeKind::Ok);
        pm.busy_time += out.duration;
        if let Some(p) = prof.as_mut() {
            p.record_exec(&crate::profile::ExecCost {
                pass: out.pass,
                rank: out.key.0,
                steps: out.steps,
                crashes: out.crashes as u64,
                lock_blocks: out.lock_blocks,
                disk_ops: out.disk_ops,
                net_msgs: out.net_msgs,
                model_ops: out.disk_reads
                    + out.disk_writes
                    + out.disk_flushes
                    + out.net_sends
                    + out.net_recvs,
                wakeups: out.wakeups,
                duration_us: out.duration.as_micros() as u64,
            });
            p.record_lock_profile(&out.lock_profile);
            p.record_collisions(&out.collisions);
        }
    }
    coverage.crash_points_exercised = crash_point_set.len() as u64;
    coverage.distinct_traces = trace_set.len() as u64;
    report.crash_point_set = crash_point_set;
    report.trace_fps = trace_set;
    report.per_pass = per_pass.into_values().collect();
    report.coverage = coverage;
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
    report.shrink = shrink_stats;
    report.shard = config.shard;
    report.replayed = ctx.replayed.load(Ordering::Relaxed);
    if !budget.open() {
        incomplete.push(format!(
            "execution budget of {} exhausted; later jobs were skipped",
            config.exec_budget
        ));
    }
    if let Some(e) = telem.stream_error() {
        incomplete.push(format!("telemetry stream error: {e}"));
    }
    report.incomplete = incomplete;
    report.wall_time = start.elapsed();
    report.execs_per_sec = report.executions as f64 / report.wall_time.as_secs_f64().max(1e-9);
    report.env = telemetry::EnvStamp::current(workers as u64, config.strategy.name());
    if let Some(p) = prof {
        let strategy = crate::profile::StrategyProfile {
            strategy: report.strategy.clone(),
            pruned: report.pruned,
            coverage_guided: report.coverage_guided,
            prunes_by_resource: session.prunes_by_resource(),
            coverage: session.coverage_introspection(),
        };
        report.profile = Some(p.finish(harness.name(), strategy, workers as u64, report.wall_time));
    }
    if let Some((prev, started)) = pass_timer.lock().take() {
        telem.emit(&telemetry::ev_pass_end(prev, started.elapsed()));
    }
    telem.emit(&telemetry::ev_run_end(&report));
    report
}

/// Reruns a single execution (round-robin schedule) with explicit crash
/// points — used by tests that target one specific interleaving, like the
/// paper's Figure 6 scenario.
pub fn run_scenario<S: SpecTS, H: Harness<S>>(
    harness: &H,
    crash_points: &[u64],
    config: &CheckConfig,
) -> (ExecOutcome, String) {
    let r = run_one(
        harness,
        Policy::RoundRobin,
        crash_points,
        &FaultPlan::default(),
        config.seed,
        config.max_steps,
        false,
        false,
    );
    (r.outcome, r.trace)
}

/// The schedule policy that reproduces a counterexample: DFS prefixes
/// for the DFS pass, the recorded seed (plus corpus prefix) for the
/// random passes, round-robin for the sweep passes.
fn cx_policy(cx: &Counterexample) -> Policy {
    match cx.pass {
        Pass::Random | Pass::RandomCrash | Pass::RandomCrashProbe => Policy::Random {
            seed: cx.seed,
            prefix: cx.schedule_prefix.clone(),
        },
        Pass::CrashSweepBase
        | Pass::CrashSweep
        | Pass::NestedCrash
        | Pass::DiskFault
        | Pass::TornWrite
        | Pass::NetFault => Policy::RoundRobin,
        Pass::Dfs => Policy::DfsPrefix(cx.schedule_prefix.clone()),
    }
}

/// Re-runs a shrink candidate: the counterexample's recorded policy,
/// crash points, and fault plan, untraced and untracked. Returns the
/// outcome plus the clamp depths and ghost trace of the re-run, which
/// the shrinker folds back into an accepted candidate.
pub(crate) fn rerun_candidate<S: SpecTS, H: Harness<S>>(
    harness: &H,
    cx: &Counterexample,
    max_steps: u64,
) -> (ExecOutcome, Vec<usize>, String) {
    let r = run_one(
        harness,
        cx_policy(cx),
        &cx.crash_points,
        &cx.faults,
        cx.seed,
        max_steps,
        false,
        false,
    );
    (r.outcome, r.clamped, r.trace)
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
    let r = run_one(
        harness,
        cx_policy(cx),
        &cx.crash_points,
        &cx.faults,
        cx.seed,
        config.max_steps,
        false,
        false,
    );
    (r.outcome, r.trace)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

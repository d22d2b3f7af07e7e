//! Explorer configuration: what to explore ([`CheckConfig`]) and its
//! fluent [`CheckConfigBuilder`].

use crate::pass::{Pass, PassSet};
use crate::strategy::{Exhaustive, Strategy};
use crate::telemetry::TelemetrySink;
use std::path::PathBuf;
use std::sync::Arc;

/// Explorer configuration.
///
/// Construct with [`CheckConfig::builder`] (preferred), or start from
/// [`CheckConfig::default`] and override fields.
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
    /// require the matching [`Harness::fault_surface`](crate::Harness::fault_surface) flag.
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
    /// Shard assignment `(i, n)`: this run owns only the job keys whose
    /// [`shard_of`](crate::shard_of) hash lands on shard `i` of `n`. Derivation-spine
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
    /// [`Counterexample::timeline`](crate::Counterexample::timeline) (default on). Pure side channel: the
    /// exploration itself always runs untraced, the re-run emits no
    /// telemetry, and report fingerprints are identical either way.
    pub trace_capture: bool,
    /// Build a [`Profile`](crate::profile::Profile) (per-pass cost attribution, resource
    /// contention, strategy introspection, worker utilization) and
    /// attach it as [`CheckReport::profile`](crate::CheckReport::profile) (default off). Pure side
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
    /// rewrites [`CheckReport::counterexample`](crate::CheckReport::counterexample) in place, so serialized
    /// reports (and their fingerprints) differ between shrink-on and
    /// shrink-off runs — but the shrunk result itself is deterministic at
    /// every worker count (DESIGN.md §16). Shrink statistics land in
    /// [`CheckReport::shrink`](crate::CheckReport::shrink).
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

    /// Streams JSONL telemetry into a file created at check start.
    pub fn telemetry_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.telemetry_path = Some(path.into());
        self
    }

    /// Runs only shard `i` of `n` of the deterministic job space (see
    /// [`CheckConfig::shard`]). Panics if `i >= n` or `n == 0`.
    pub fn shard(self, i: u32, n: u32) -> Self {
        self.shard_opt(Some((i, n)))
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

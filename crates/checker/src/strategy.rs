//! Exploration strategies: how the schedule phase picks what to run.
//!
//! A [`Strategy`] governs the *schedule phase* of a check — the DFS and
//! random passes that enumerate interleavings. The crash and fault
//! sweeps are enumerable spaces driven by probes (see DESIGN.md §12);
//! they stay identical across strategies, which is what lets a pruned
//! run report byte-identical crash/fault counterexamples.
//!
//! The explorer drives a [`StrategySession`] as a wave loop: ask for a
//! [`Wave`] of schedules, execute them across the worker pool, then feed
//! the observed decisions/footprints back via
//! [`StrategySession::observe`]. All strategy state advances only on
//! *complete* waves in canonical job order, never on wall-clock arrival
//! — that is how the PR-1 determinism contract survives pruning.
//!
//! Three implementations:
//!
//! - [`Exhaustive`] — bounded DFS frontier + uniform random sampling
//!   (the historical behaviour, bit-for-bit; without [`Pass::Dfs`] it is
//!   random sampling only).
//! - [`SleepSetDpor`] — DFS with sleep-set partial-order reduction over
//!   the per-grant dependency footprints recorded by `goose::sched`.
//! - [`CoverageGuided`] — wave-based novelty search that re-seeds random
//!   samples from schedules whose ghost-trace fingerprints were new.

use crate::explore::CheckConfig;
use crate::pass::Pass;
use goose_rt::sched::{StepAccess, Tid};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Lex-ordered wave size for DFS frontier expansion. Fixed (not derived
/// from the worker count) so the explored set is identical for every
/// pool size.
pub(crate) const DFS_WAVE: usize = 64;

/// Wave size for coverage-guided sampling.
const COVERAGE_WAVE: usize = 16;
/// Corpus entries re-seeded per coverage wave.
const COVERAGE_RESEED: usize = 8;
/// Corpus retention bound.
const COVERAGE_CORPUS: usize = 32;
/// Hard cap on coverage-guided samples (4 waves). The stop rule is
/// saturation — a wave with no new fingerprint — but on scenarios whose
/// behaviour space never saturates, novelty alone would burn the whole
/// schedule budget without getting closer to a bug; the cap keeps the
/// phase a cheap biased sample rather than a second exhaustive pass.
const COVERAGE_MAX_SAMPLES: usize = 4 * COVERAGE_WAVE;

/// One schedule the strategy wants executed.
#[derive(Debug, Clone)]
pub enum ScheduleSpec {
    /// Deterministic prefix replay, then first-runnable (DFS order).
    /// With `track_deps`, the run records per-grant dependency
    /// footprints for partial-order reduction.
    Dfs {
        /// Forced scheduler choices, replayed in order before DFS order
        /// takes over.
        prefix: Vec<usize>,
        /// Record per-grant dependency footprints for partial-order
        /// reduction.
        track_deps: bool,
    },
    /// Seeded random schedule, optionally replaying a recorded decision
    /// prefix first (coverage-guided re-seeding).
    Random {
        /// Recorded decision prefix to replay before random choice.
        prefix: Vec<usize>,
    },
}

/// A batch of schedules to run under one pass.
#[derive(Debug)]
pub struct Wave {
    /// The pass the batch's executions are attributed to.
    pub pass: Pass,
    /// The schedules to execute, in slot order.
    pub specs: Vec<ScheduleSpec>,
}

/// Rows of `T` stored back to back: one flat array, appended in place,
/// and where each row ends in it.
#[derive(Debug, Clone)]
struct Rows<T> {
    items: Vec<T>,
    ends: Vec<usize>,
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Rows {
            items: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<T> Rows<T> {
    fn with_capacity(rows: usize) -> Self {
        Rows {
            items: Vec::with_capacity(rows),
            ends: Vec::with_capacity(rows),
        }
    }

    /// Ends a row holding whatever `fill` appends to the flat array.
    fn push_with(&mut self, fill: impl FnOnce(&mut Vec<T>)) -> &[T] {
        let start = self.items.len();
        fill(&mut self.items);
        self.ends.push(self.items.len());
        &self.items[start..]
    }

    fn get(&self, row: usize) -> Option<&[T]> {
        let end = *self.ends.get(row)?;
        let start = row.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        Some(&self.items[start..end])
    }

    fn iter(&self) -> impl Iterator<Item = &[T]> {
        (0..self.ends.len()).filter_map(|row| self.get(row))
    }
}

/// Per-grant dependency observations of one execution: which threads
/// were runnable at each decision, and the dependency footprint of the
/// granted step. Each is one flat array with row ends, appended in place
/// by the execution's pilot (DESIGN.md §12), so recording a grant
/// allocates nothing once the arrays have grown to the execution's
/// length.
#[derive(Debug, Clone, Default)]
pub struct DepTrace {
    runnables: Rows<Tid>,
    footprints: Rows<StepAccess>,
}

impl DepTrace {
    /// An empty trace with room for `decisions` rows of one entry each
    /// before an array grows.
    pub(crate) fn with_capacity(decisions: usize) -> Self {
        DepTrace {
            runnables: Rows::with_capacity(decisions),
            footprints: Rows::with_capacity(decisions),
        }
    }

    /// Appends the runnable set of the next decision.
    pub(crate) fn push_runnable(&mut self, runnable: &[Tid]) {
        self.runnables
            .push_with(|items| items.extend_from_slice(runnable));
    }

    /// Appends the footprint of the next granted step: whatever `fill`
    /// appends to the buffer it is handed. A footprint names each
    /// resource once (what `ModelRt::drain_step_accesses` yields, plus the
    /// thread's own ghost tag), which the prune attribution counts on.
    pub(crate) fn push_footprint(&mut self, fill: impl FnOnce(&mut Vec<StepAccess>)) {
        let row = self.footprints.push_with(fill);
        debug_assert!(resource_distinct(row), "a resource twice in {row:?}");
    }

    /// The runnable set at decision `d`, if recorded.
    pub fn runnable(&self, d: usize) -> Option<&[Tid]> {
        self.runnables.get(d)
    }

    /// The footprint of the step granted at decision `d`, if recorded.
    pub fn footprint(&self, d: usize) -> Option<&[StepAccess]> {
        self.footprints.get(d)
    }

    /// Every recorded footprint, in decision order.
    pub fn footprints(&self) -> impl Iterator<Item = &[StepAccess]> {
        self.footprints.iter()
    }
}

/// Whether no resource appears twice in `footprint`.
fn resource_distinct(footprint: &[StepAccess]) -> bool {
    footprint
        .iter()
        .enumerate()
        .all(|(i, a)| footprint[..i].iter().all(|b| b.resource != a.resource))
}

/// What the explorer reports back for one executed schedule.
#[derive(Debug)]
pub struct ObservedExec {
    /// Position in the wave's `specs` (pairs the result with its spec).
    pub slot: usize,
    /// (choice index, number of runnable options) per decision.
    pub decisions: Vec<(usize, usize)>,
    /// Ghost-trace fingerprint of the run.
    pub trace_fp: u64,
    /// Whether the run failed.
    pub failed: bool,
    /// Dependency observations (present when the spec asked for them).
    pub deps: Option<DepTrace>,
}

/// A schedule-phase exploration strategy (factory for sessions).
///
/// # Contract
///
/// A strategy decides *which* crash-free schedules run; it never
/// executes anything itself. The explorer drives a [`StrategySession`]
/// in a wave loop — `next_wave` → execute every spec → `observe` with
/// the complete wave's results — and implementations must uphold:
///
/// - **Determinism across worker counts.** Decisions may depend only on
///   the config (seed included) and on *complete-wave* feedback, never
///   on completion order or timing within a wave. The explored set must
///   be identical at `workers = 1` and `workers = 8` (pinned by
///   `tests/strategy.rs`).
/// - **Canonical job indices.** Specs are numbered by wave-slot order;
///   the explorer turns them into job keys `(pass.rank(), index)`.
///   A strategy must emit specs in a stable order so indices — and
///   therefore counterexample selection — are reproducible.
/// - **Termination.** `next_wave` must eventually return `None`;
///   budgets (`dfs_max_executions`, sample counts) are the strategy's
///   responsibility to enforce.
/// - **Soundness of pruning.** A strategy may skip schedules only when
///   they are provably equivalent to an explored one (e.g. sleep-set
///   commutation); pruned counts are reported, never silent.
pub trait Strategy: fmt::Debug + Send + Sync {
    /// Stable name (telemetry, reports).
    fn name(&self) -> &'static str;
    /// Starts a session for one check run.
    fn session(&self, config: &CheckConfig) -> Box<dyn StrategySession>;
}

/// Corpus bookkeeping of a coverage-guided session, exposed for the
/// profiler (see [`crate::profile`]). Every counter is driven by
/// complete-wave feedback only, so the numbers are worker-count
/// independent like [`StrategySession::guided`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageIntrospection {
    /// Executions whose ghost-trace fingerprint was previously unseen
    /// (each one entered the corpus).
    pub corpus_hits: u64,
    /// Corpus entries dropped by the retention bound.
    pub corpus_evictions: u64,
    /// Complete waves that discovered no new fingerprint (the first one
    /// ends the phase).
    pub saturated_waves: u64,
}

/// Mutable per-run strategy state driven by the explorer's wave loop.
pub trait StrategySession: Send {
    /// The next wave of schedules, or `None` when the phase is done.
    fn next_wave(&mut self) -> Option<Wave>;
    /// Feeds back one *complete* wave's results, in slot order.
    fn observe(&mut self, pass: Pass, execs: &[ObservedExec]);
    /// Schedules pruned as redundant (sleep-set hits).
    fn pruned(&self) -> u64 {
        0
    }
    /// Executions whose seed/prefix was chosen by coverage feedback.
    fn guided(&self) -> u64 {
        0
    }
    /// Sleep-set prunes attributed to the resources in the sleeping
    /// step's footprint, as `(resource, prunes)` in resource order.
    /// Empty for strategies that never prune.
    fn prunes_by_resource(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }
    /// Corpus bookkeeping, for strategies that keep one.
    fn coverage_introspection(&self) -> Option<CoverageIntrospection> {
        None
    }
}

/// Whether two step footprints commute: they conflict iff some resource
/// appears in both with a write on either side.
fn independent(a: &[StepAccess], b: &[StepAccess]) -> bool {
    // Footprints are tiny (a handful of entries), so the quadratic scan
    // beats building sets.
    for x in a {
        for y in b {
            if x.resource == y.resource && (x.write || y.write) {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------
// Exhaustive
// ---------------------------------------------------------------------

/// The historical default: bounded exhaustive DFS, then uniform random
/// sampling.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive;

impl Strategy for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn session(&self, config: &CheckConfig) -> Box<dyn StrategySession> {
        let mut pending = BTreeSet::new();
        pending.insert(Vec::new());
        Box::new(ExhaustiveSession {
            pending,
            budget: if config.passes.contains(Pass::Dfs) {
                config.dfs_max_executions
            } else {
                0
            },
            random_samples: config.random_samples,
            random_enabled: config.passes.contains(Pass::Random),
            random_done: false,
            issued: Vec::new(),
        })
    }
}

struct ExhaustiveSession {
    pending: BTreeSet<Vec<usize>>,
    budget: usize,
    random_samples: usize,
    random_enabled: bool,
    random_done: bool,
    /// Prefix lengths of the outstanding DFS wave, in slot order: the
    /// prefixes themselves went out with the wave's specs.
    issued: Vec<usize>,
}

impl StrategySession for ExhaustiveSession {
    fn next_wave(&mut self) -> Option<Wave> {
        self.issued.clear();
        let mut specs = Vec::new();
        while specs.len() < DFS_WAVE.min(self.budget) {
            let Some(prefix) = self.pending.pop_first() else {
                break;
            };
            self.issued.push(prefix.len());
            specs.push(ScheduleSpec::Dfs {
                prefix,
                track_deps: false,
            });
        }
        if !specs.is_empty() {
            self.budget -= specs.len();
            return Some(Wave {
                pass: Pass::Dfs,
                specs,
            });
        }
        if self.random_enabled && !self.random_done {
            self.random_done = true;
            return Some(Wave {
                pass: Pass::Random,
                specs: (0..self.random_samples)
                    .map(|_| ScheduleSpec::Random { prefix: Vec::new() })
                    .collect(),
            });
        }
        None
    }

    fn observe(&mut self, pass: Pass, execs: &[ObservedExec]) {
        if pass != Pass::Dfs {
            return;
        }
        // Running a prefix p reveals its decision path; every sibling
        // choice at depths >= |p| becomes a new pending prefix (depths
        // < |p| were already enqueued by p's ancestors), so each
        // schedule is enumerated exactly once.
        for exec in execs {
            for d in self.issued[exec.slot]..exec.decisions.len() {
                let (choice, n) = exec.decisions[d];
                for c in choice + 1..n {
                    let mut q = Vec::with_capacity(d + 1);
                    q.extend(exec.decisions[..d].iter().map(|(i, _)| *i));
                    q.push(c);
                    self.pending.insert(q);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sleep-set DPOR
// ---------------------------------------------------------------------

/// DFS with sleep-set partial-order reduction.
///
/// Two grants commute when their dependency footprints touch disjoint
/// state (or only read shared state). When the DFS would branch to a
/// sibling thread that is in the node's sleep set — meaning the sibling
/// was already explored from an equivalent earlier branch and nothing
/// dependent has run since — the branch is pruned. Pruned branches
/// still consume DFS budget, so reduction translates directly into
/// fewer executions. Soundness leans on a property of this codebase's
/// primitives: a parked thread's next-step footprint is determined by
/// the primitive's arguments, so recorded footprints stay valid while
/// the thread sleeps.
///
/// Unlike [`Exhaustive`], this strategy runs no uniform-random tail:
/// the reduced DFS replaces the whole schedule phase. Random sampling
/// exists to cover what a bounded frontier misses; pruning spends the
/// same budget reaching deeper systematically instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct SleepSetDpor;

impl Strategy for SleepSetDpor {
    fn name(&self) -> &'static str {
        "sleep-set-dpor"
    }

    fn session(&self, config: &CheckConfig) -> Box<dyn StrategySession> {
        Box::new(DporSession::new(config))
    }
}

/// A sleeping thread and the footprint of the step it would take. The
/// footprint is shared by every sleep set it enters: it is copied out of
/// its execution's [`DepTrace`] once, when a later sibling first sleeps
/// on it, and freed when the last pending prefix holding it is issued
/// and observed.
type SleepEntry = (Tid, Arc<[StepAccess]>);

struct DporSession {
    /// Pending prefixes (lex order) with their sleep sets.
    pending: BTreeMap<Vec<usize>, Vec<SleepEntry>>,
    budget: usize,
    /// (prefix length, sleep set) of the outstanding DFS wave, in slot
    /// order: the prefixes themselves went out with the wave's specs.
    issued: Vec<(usize, Vec<SleepEntry>)>,
    pruned: u64,
    /// Prunes attributed to the distinct resources of the sleeping
    /// step's footprint (profiler introspection; one prune can credit
    /// several resources).
    prunes_by_resource: BTreeMap<u64, u64>,
}

/// The footprint of `tid`'s next granted step strictly after depth `d`
/// in this execution, if it was ever granted again. By footprint
/// stability (a parked primitive's next-step footprint is determined by
/// its arguments), that footprint is also what `tid` *would have*
/// accessed if granted at depth `d`.
fn next_footprint<'a>(
    deps: &'a DepTrace,
    decisions: &[(usize, usize)],
    d: usize,
    tid: Tid,
) -> Option<&'a [StepAccess]> {
    for (e, (choice, _)) in decisions.iter().enumerate().skip(d + 1) {
        if *deps.runnable(e)?.get(*choice)? == tid {
            return deps.footprint(e);
        }
    }
    None
}

impl DporSession {
    fn new(config: &CheckConfig) -> Self {
        let mut pending = BTreeMap::new();
        pending.insert(Vec::new(), Vec::new());
        DporSession {
            pending,
            budget: if config.passes.contains(Pass::Dfs) {
                config.dfs_max_executions
            } else {
                0
            },
            issued: Vec::new(),
            pruned: 0,
            prunes_by_resource: BTreeMap::new(),
        }
    }

    /// Expands one executed run: enqueue sibling prefixes, pruning those
    /// whose deviating thread is asleep, and maintain the sleep set down
    /// the executed path. `sleep` is the sleep set the run's prefix was
    /// issued with.
    fn expand(&mut self, prefix_len: usize, sleep: Vec<SleepEntry>, exec: &ObservedExec) {
        let deps = exec.deps.as_ref();
        // `alive` is the sleep set at the current depth. The walk starts
        // one edge *before* the frontier (at the prefix's own last
        // decision) so the wake filter applies this run's true footprint
        // of the deviating step — the footprint recorded when the
        // parent enqueued this prefix belonged to the parent's run.
        let mut alive = sleep;
        // Branches already scheduled from the current node, in
        // exploration order: the executed continuation first, then each
        // enqueued sibling. Later siblings sleep on all of them — the
        // classical sleep-set accumulation.
        let mut explored: Vec<SleepEntry> = Vec::new();
        for d in prefix_len.saturating_sub(1)..exec.decisions.len() {
            let (choice, n) = exec.decisions[d];
            let edge = deps.and_then(|dt| {
                let runnable = dt.runnable(d)?;
                let fp = dt.footprint(d)?;
                let t0 = *runnable.get(choice)?;
                (runnable.len() == n).then_some((runnable, fp, t0))
            });
            if d >= prefix_len && choice + 1 < n {
                explored.clear();
                // Shared into the sleep sets once a sibling is enqueued:
                // a node whose siblings are all pruned copies nothing.
                let mut executed = edge.map(|(_, fp, t0)| (t0, fp));
                for c in choice + 1..n {
                    let tid_c = edge.map(|(runnable, _, _)| runnable[c]);
                    let sleeper = tid_c.and_then(|t| alive.iter().find(|(s, _)| *s == t));
                    if let Some((_, fp)) = sleeper {
                        // An equivalent interleaving was already
                        // explored; skip the branch but charge it to
                        // the DFS budget so reduction shows up as
                        // fewer executions, not a longer frontier. The
                        // prune is credited to each resource of the
                        // sleeping step's footprint, which names each
                        // once (`DepTrace::push_footprint` asserts it;
                        // profiler attribution: *what* commuted).
                        self.pruned += 1;
                        self.budget = self.budget.saturating_sub(1);
                        for a in fp.iter() {
                            *self.prunes_by_resource.entry(a.resource).or_insert(0) += 1;
                        }
                        continue;
                    }
                    if let Some((t0, fp)) = executed.take() {
                        explored.push((t0, Arc::from(fp)));
                    }
                    let mut q = Vec::with_capacity(d + 1);
                    q.extend(exec.decisions[..d].iter().map(|(i, _)| *i));
                    q.push(c);
                    // A prefix reachable two ways keeps only the
                    // *intersection* of its sleep sets to stay sound;
                    // the empty set is the conservative intersection
                    // and keeps the outcome order-independent.
                    match self.pending.entry(q) {
                        Entry::Occupied(mut seen) => seen.get_mut().clear(),
                        Entry::Vacant(slot) => {
                            slot.insert(match edge {
                                Some(_) => alive.iter().chain(&explored).cloned().collect(),
                                None => Vec::new(),
                            });
                        }
                    }
                    // This sibling is scheduled now, so still-later
                    // siblings may sleep on it — footprint recovered
                    // from the thread's next granted step in this run
                    // (it parks, unchanged, until then).
                    if let (Some(t), Some(dt), true) = (tid_c, deps, c + 1 < n) {
                        if let Some(fp_c) = next_footprint(dt, &exec.decisions, d, t) {
                            explored.push((t, Arc::from(fp_c)));
                        }
                    }
                }
            }
            // Wake filter: executing t0 removes t0's own entry, and any
            // sleeper whose step conflicts with what just ran.
            match edge {
                Some((_, fp, t0)) => {
                    alive.retain(|(t, f)| *t != t0 && independent(f, fp));
                }
                None => alive.clear(),
            }
        }
    }
}

impl StrategySession for DporSession {
    fn next_wave(&mut self) -> Option<Wave> {
        if self.budget == 0 {
            return None;
        }
        self.issued.clear();
        let mut specs = Vec::new();
        while specs.len() < DFS_WAVE.min(self.budget) {
            let Some((prefix, sleep)) = self.pending.pop_first() else {
                break;
            };
            self.issued.push((prefix.len(), sleep));
            specs.push(ScheduleSpec::Dfs {
                prefix,
                track_deps: true,
            });
        }
        self.budget -= specs.len();
        // No random tail: the reduced DFS *is* the schedule phase.
        // Uniform sampling exists to cover what a bounded exhaustive
        // frontier misses; sleep-set pruning spends the same budget
        // reaching deeper systematically instead.
        (!specs.is_empty()).then_some(Wave {
            pass: Pass::Dfs,
            specs,
        })
    }

    fn observe(&mut self, pass: Pass, execs: &[ObservedExec]) {
        if pass != Pass::Dfs {
            return;
        }
        let mut issued = std::mem::take(&mut self.issued);
        for exec in execs {
            let (prefix_len, sleep) = &mut issued[exec.slot];
            self.expand(*prefix_len, std::mem::take(sleep), exec);
        }
        self.issued = issued;
    }

    fn pruned(&self) -> u64 {
        self.pruned
    }

    fn prunes_by_resource(&self) -> Vec<(u64, u64)> {
        self.prunes_by_resource
            .iter()
            .map(|(r, n)| (*r, *n))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Coverage-guided
// ---------------------------------------------------------------------

/// Coverage-guided random sampling.
///
/// Runs random schedules in waves and keeps a corpus of schedules whose
/// ghost-trace fingerprints were previously unseen. Later waves replay
/// truncated prefixes of corpus schedules (then diverge randomly),
/// concentrating samples near behaviour that was novel. The phase stops
/// as soon as a wave yields no new fingerprint — on scenarios whose
/// behaviour space saturates quickly this is the
/// executions-to-counterexample win counted per mutant in
/// `BENCH_scale.json` (`strategy_reduction.median_coverage_ratio`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoverageGuided;

impl Strategy for CoverageGuided {
    fn name(&self) -> &'static str {
        "coverage-guided"
    }

    fn session(&self, config: &CheckConfig) -> Box<dyn StrategySession> {
        let enabled = config.passes.contains(Pass::Random) || config.passes.contains(Pass::Dfs);
        Box::new(CoverageSession {
            budget: if enabled {
                (config.dfs_max_executions + config.random_samples).min(COVERAGE_MAX_SAMPLES)
            } else {
                0
            },
            spent: 0,
            wave_num: 0,
            novel_last_wave: false,
            seen: BTreeSet::new(),
            corpus: Vec::new(),
            guided: 0,
            introspection: CoverageIntrospection::default(),
        })
    }
}

struct CoverageSession {
    budget: usize,
    spent: usize,
    wave_num: usize,
    novel_last_wave: bool,
    /// Ghost-trace fingerprints observed so far.
    seen: BTreeSet<u64>,
    /// Decision paths of novel runs, most recent first.
    corpus: Vec<Vec<usize>>,
    guided: u64,
    /// Corpus bookkeeping for the profiler.
    introspection: CoverageIntrospection,
}

impl StrategySession for CoverageSession {
    fn next_wave(&mut self) -> Option<Wave> {
        if self.spent >= self.budget {
            return None;
        }
        if self.wave_num > 0 && !self.novel_last_wave {
            // Coverage saturated: the last full wave discovered nothing
            // new, so further sampling has diminishing returns.
            return None;
        }
        let mut specs: Vec<ScheduleSpec> = Vec::new();
        if self.wave_num > 0 {
            for path in self.corpus.iter().take(COVERAGE_RESEED) {
                for cut in [path.len() / 3, (2 * path.len()) / 3] {
                    if cut == 0 {
                        continue;
                    }
                    specs.push(ScheduleSpec::Random {
                        prefix: path[..cut].to_vec(),
                    });
                }
            }
            specs.truncate(COVERAGE_WAVE);
        }
        let seeded = specs.len();
        while specs.len() < COVERAGE_WAVE {
            specs.push(ScheduleSpec::Random { prefix: Vec::new() });
        }
        specs.truncate(self.budget - self.spent);
        self.guided += specs.len().min(seeded) as u64;
        self.spent += specs.len();
        self.wave_num += 1;
        self.novel_last_wave = false;
        Some(Wave {
            pass: Pass::Random,
            specs,
        })
    }

    fn observe(&mut self, pass: Pass, execs: &[ObservedExec]) {
        if pass != Pass::Random {
            return;
        }
        for exec in execs {
            if self.seen.insert(exec.trace_fp) {
                self.novel_last_wave = true;
                self.introspection.corpus_hits += 1;
                self.corpus
                    .insert(0, exec.decisions.iter().map(|(i, _)| *i).collect());
            }
        }
        self.introspection.corpus_evictions +=
            self.corpus.len().saturating_sub(COVERAGE_CORPUS) as u64;
        self.corpus.truncate(COVERAGE_CORPUS);
        if !self.novel_last_wave {
            self.introspection.saturated_waves += 1;
        }
    }

    fn guided(&self) -> u64 {
        self.guided
    }

    fn coverage_introspection(&self) -> Option<CoverageIntrospection> {
        Some(self.introspection)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn acc(resource: u64, write: bool) -> StepAccess {
        StepAccess { resource, write }
    }

    /// A trace with these rows, appended as a pilot appends them.
    pub(crate) fn dep_trace(
        runnables: Vec<Vec<Tid>>,
        footprints: Vec<Vec<StepAccess>>,
    ) -> DepTrace {
        let mut deps = DepTrace::default();
        for runnable in &runnables {
            deps.push_runnable(runnable);
        }
        for footprint in &footprints {
            deps.push_footprint(|row| row.extend_from_slice(footprint));
        }
        deps
    }

    #[test]
    fn independence_requires_a_write_on_a_shared_resource() {
        let r = acc(1, false);
        let w = acc(1, true);
        let w2 = acc(2, true);
        assert!(independent(&[r], &[r]));
        assert!(!independent(&[r], &[w]));
        assert!(!independent(&[w], &[w]));
        assert!(independent(&[w], &[w2]));
        assert!(independent(&[], &[w]));
    }

    fn quick_cfg() -> CheckConfig {
        CheckConfig::builder()
            .dfs_max_executions(200)
            .random_samples(10)
            .build()
    }

    #[test]
    fn exhaustive_session_walks_the_frontier() {
        let mut s = Exhaustive.session(&quick_cfg());
        let w = s.next_wave().expect("dfs wave");
        assert_eq!(w.pass, Pass::Dfs);
        assert_eq!(w.specs.len(), 1); // the empty prefix
                                      // A run with a 2-way branch at depth 0 yields one sibling.
        s.observe(
            Pass::Dfs,
            &[ObservedExec {
                slot: 0,
                decisions: vec![(0, 2), (0, 1)],
                trace_fp: 1,
                failed: false,
                deps: None,
            }],
        );
        let w2 = s.next_wave().expect("second dfs wave");
        assert_eq!(w2.specs.len(), 1);
        match &w2.specs[0] {
            ScheduleSpec::Dfs { prefix, .. } => assert_eq!(prefix, &vec![1]),
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn dpor_prunes_independent_sibling() {
        // Two threads, disjoint write footprints: after exploring
        // thread 0 first, the sibling branch (thread 1 first) at the
        // *next* node should find thread 0 asleep and prune the
        // commuted continuation.
        let mut s = SleepSetDpor.session(&quick_cfg());
        let w = s.next_wave().expect("dfs wave");
        assert_eq!(w.specs.len(), 1);
        // Root run: grants tid 10 (choice 0 of {10, 11}), then tid 11.
        s.observe(
            Pass::Dfs,
            &[ObservedExec {
                slot: 0,
                decisions: vec![(0, 2), (0, 1)],
                trace_fp: 1,
                failed: false,
                deps: Some(dep_trace(
                    vec![vec![10, 11], vec![11]],
                    vec![vec![acc(1, true)], vec![acc(2, true)]],
                )),
            }],
        );
        // Sibling [1] enqueued with sleep {10}.
        let w2 = s.next_wave().expect("sibling wave");
        assert_eq!(w2.specs.len(), 1);
        // Sibling run: grants tid 11 first (choice 1), then tid 10.
        // At depth 1 the only alternative ordering is 10-before-11,
        // which sleeps — the expansion prunes it.
        s.observe(
            Pass::Dfs,
            &[ObservedExec {
                slot: 0,
                decisions: vec![(1, 2), (0, 1)],
                trace_fp: 2,
                failed: false,
                deps: Some(dep_trace(
                    vec![vec![10, 11], vec![10]],
                    vec![vec![acc(2, true)], vec![acc(1, true)]],
                )),
            }],
        );
        assert_eq!(s.pruned(), 0, "no sibling existed to prune at depth 1");
        // Frontier is now empty: both interleavings of the dependent
        // pair were explored, nothing redundant was scheduled, and DPOR
        // runs no random tail.
        assert!(s.next_wave().is_none());
    }

    #[test]
    fn dpor_sleep_suppresses_commuted_branch() {
        // Three threads with pairwise-disjoint write footprints: every
        // interleaving is equivalent, so sleep sets must prune at least
        // one commuted branch of the 3! tree.
        let mut s = SleepSetDpor.session(&quick_cfg());
        s.next_wave().expect("root wave");
        // Root run: grants 10, then 11, then 12.
        s.observe(
            Pass::Dfs,
            &[ObservedExec {
                slot: 0,
                decisions: vec![(0, 3), (0, 2), (0, 1)],
                trace_fp: 1,
                failed: false,
                deps: Some(dep_trace(
                    vec![vec![10, 11, 12], vec![11, 12], vec![12]],
                    vec![vec![acc(1, true)], vec![acc(2, true)], vec![acc(3, true)]],
                )),
            }],
        );
        // Root expansion enqueues siblings at every depth: [0,1] with
        // sleep {11}, [1] with sleep {10}, and [2] with sleep {10, 11}
        // (sibling accumulation: [2] sleeps on the already-scheduled
        // branch [1] too, with 11's footprint read off its next grant).
        let w2 = s.next_wave().expect("sibling wave");
        assert_eq!(w2.specs.len(), 3);
        let prefixes: Vec<Vec<usize>> = w2
            .specs
            .iter()
            .map(|sp| match sp {
                ScheduleSpec::Dfs { prefix, .. } => prefix.clone(),
                other => panic!("unexpected spec {other:?}"),
            })
            .collect();
        assert_eq!(prefixes, vec![vec![0, 1], vec![1], vec![2]]);
        s.observe(
            Pass::Dfs,
            &[
                // [0,1]: grants 10, 12, 11. No new siblings below the
                // frontier (depth 2 has a single runnable).
                ObservedExec {
                    slot: 0,
                    decisions: vec![(0, 3), (1, 2), (0, 1)],
                    trace_fp: 2,
                    failed: false,
                    deps: Some(dep_trace(
                        vec![vec![10, 11, 12], vec![11, 12], vec![11]],
                        vec![vec![acc(1, true)], vec![acc(3, true)], vec![acc(2, true)]],
                    )),
                },
                // [1]: grants 11, 10, 12. Deviating to 12 at depth 1 is
                // awake (12 never slept) — enqueued, not pruned.
                ObservedExec {
                    slot: 1,
                    decisions: vec![(1, 3), (0, 2), (0, 1)],
                    trace_fp: 3,
                    failed: false,
                    deps: Some(dep_trace(
                        vec![vec![10, 11, 12], vec![10, 12], vec![12]],
                        vec![vec![acc(2, true)], vec![acc(1, true)], vec![acc(3, true)]],
                    )),
                },
                // [2]: grants 12, 10, 11. Deviating to 11 at depth 1
                // finds 11 asleep (it slept through 12's and 10's
                // independent steps) — the commuted branch is pruned.
                ObservedExec {
                    slot: 2,
                    decisions: vec![(2, 3), (0, 2), (0, 1)],
                    trace_fp: 4,
                    failed: false,
                    deps: Some(dep_trace(
                        vec![vec![10, 11, 12], vec![10, 11], vec![11]],
                        vec![vec![acc(3, true)], vec![acc(1, true)], vec![acc(2, true)]],
                    )),
                },
            ],
        );
        assert_eq!(s.pruned(), 1, "the 12-10-11-commuted branch is pruned");
        // Only [1,1] (11, 12, 10) survives into the next wave.
        let w3 = s.next_wave().expect("third dfs wave");
        assert_eq!(w3.pass, Pass::Dfs);
        assert_eq!(w3.specs.len(), 1);
        match &w3.specs[0] {
            ScheduleSpec::Dfs { prefix, .. } => assert_eq!(prefix, &vec![1, 1]),
            other => panic!("unexpected spec {other:?}"),
        }
        // Its expansion finds nothing new; the schedule phase is done.
        s.observe(
            Pass::Dfs,
            &[ObservedExec {
                slot: 0,
                decisions: vec![(1, 3), (1, 2), (0, 1)],
                trace_fp: 5,
                failed: false,
                deps: Some(dep_trace(
                    vec![vec![10, 11, 12], vec![10, 12], vec![10]],
                    vec![vec![acc(2, true)], vec![acc(3, true)], vec![acc(1, true)]],
                )),
            }],
        );
        assert!(s.next_wave().is_none());
    }

    #[test]
    fn coverage_session_stops_when_novelty_dries() {
        let mut s = CoverageGuided.session(&quick_cfg());
        let w = s.next_wave().expect("wave 0");
        assert_eq!(w.pass, Pass::Random);
        let execs: Vec<ObservedExec> = (0..w.specs.len())
            .map(|i| ObservedExec {
                slot: i,
                decisions: vec![(0, 2); 6],
                trace_fp: 42, // all identical: one novel fp
                failed: false,
                deps: None,
            })
            .collect();
        s.observe(Pass::Random, &execs);
        let w2 = s.next_wave().expect("wave 1 (novelty seen)");
        assert!(w2
            .specs
            .iter()
            .any(|sp| matches!(sp, ScheduleSpec::Random { prefix } if !prefix.is_empty())));
        assert!(s.guided() > 0);
        // No novelty this time: the phase ends.
        let execs2: Vec<ObservedExec> = (0..w2.specs.len())
            .map(|i| ObservedExec {
                slot: i,
                decisions: vec![(0, 2); 6],
                trace_fp: 42,
                failed: false,
                deps: None,
            })
            .collect();
        s.observe(Pass::Random, &execs2);
        assert!(s.next_wave().is_none());
    }

    /// The nested-`Vec` sleep-set DPOR this module shipped before the
    /// flat [`DepTrace`] (PR 23), kept as the reference the rewrite is
    /// checked against: every row its own vector, every sleep entry its
    /// own copy of the footprint.
    mod reference {
        use super::super::{independent, DFS_WAVE};
        use goose_rt::sched::{StepAccess, Tid};
        use std::collections::{BTreeMap, BTreeSet};

        pub struct NestedDeps {
            pub runnables: Vec<Vec<Tid>>,
            pub accesses: Vec<Vec<StepAccess>>,
        }

        pub struct Exec {
            pub slot: usize,
            pub decisions: Vec<(usize, usize)>,
            pub deps: Option<NestedDeps>,
        }

        pub type SleepEntry = (Tid, Vec<StepAccess>);

        pub struct DporSession {
            pub pending: BTreeMap<Vec<usize>, Vec<SleepEntry>>,
            pub budget: usize,
            issued: Vec<(Vec<usize>, Vec<SleepEntry>)>,
            pub pruned: u64,
            pub prunes_by_resource: BTreeMap<u64, u64>,
        }

        fn next_footprint(
            deps: &NestedDeps,
            decisions: &[(usize, usize)],
            d: usize,
            tid: Tid,
        ) -> Option<Vec<StepAccess>> {
            for (e, (choice, _)) in decisions.iter().enumerate().skip(d + 1) {
                let runnable = deps.runnables.get(e)?;
                let granted = *runnable.get(*choice)?;
                if granted == tid {
                    return deps.accesses.get(e).cloned();
                }
            }
            None
        }

        impl DporSession {
            pub fn new(budget: usize) -> Self {
                let mut pending = BTreeMap::new();
                pending.insert(Vec::new(), Vec::new());
                DporSession {
                    pending,
                    budget,
                    issued: Vec::new(),
                    pruned: 0,
                    prunes_by_resource: BTreeMap::new(),
                }
            }

            fn expand(&mut self, prefix: &[usize], sleep: &[SleepEntry], exec: &Exec) {
                let deps = exec.deps.as_ref();
                let mut alive: Vec<SleepEntry> = sleep.to_vec();
                let start = prefix.len().saturating_sub(1);
                for d in start..exec.decisions.len() {
                    let (choice, n) = exec.decisions[d];
                    let edge = deps.and_then(|dt| {
                        let runnable = dt.runnables.get(d)?;
                        let fp = dt.accesses.get(d)?;
                        let t0 = *runnable.get(choice)?;
                        (runnable.len() == n).then_some((runnable, fp, t0))
                    });
                    if d >= prefix.len() {
                        let mut explored: Vec<SleepEntry> = Vec::new();
                        if let Some((_, fp, t0)) = edge {
                            explored.push((t0, fp.clone()));
                        }
                        for c in choice + 1..n {
                            let sleeper = edge.and_then(|(runnable, _, _)| {
                                let tid_c = runnable[c];
                                alive.iter().find(|(t, _)| *t == tid_c)
                            });
                            if let Some((_, fp)) = sleeper {
                                self.pruned += 1;
                                self.budget = self.budget.saturating_sub(1);
                                let resources: BTreeSet<u64> =
                                    fp.iter().map(|a| a.resource).collect();
                                for r in resources {
                                    *self.prunes_by_resource.entry(r).or_insert(0) += 1;
                                }
                                continue;
                            }
                            let mut q: Vec<usize> =
                                exec.decisions[..d].iter().map(|(i, _)| *i).collect();
                            q.push(c);
                            let child_sleep = match edge {
                                Some(_) => {
                                    let mut s = alive.clone();
                                    s.extend(explored.iter().cloned());
                                    s
                                }
                                None => Vec::new(),
                            };
                            self.pending
                                .entry(q)
                                .and_modify(|s| s.clear())
                                .or_insert(child_sleep);
                            if let Some((runnable, _, _)) = edge {
                                let tid_c = runnable[c];
                                if let Some(dt) = deps {
                                    if let Some(fp_c) =
                                        next_footprint(dt, &exec.decisions, d, tid_c)
                                    {
                                        explored.push((tid_c, fp_c));
                                    }
                                }
                            }
                        }
                    }
                    match edge {
                        Some((_, fp, t0)) => {
                            alive.retain(|(t, f)| *t != t0 && independent(f, fp));
                        }
                        None => alive.clear(),
                    }
                }
            }

            /// The next wave's prefixes, in slot order.
            pub fn next_wave(&mut self) -> Option<Vec<Vec<usize>>> {
                if self.budget > 0 && !self.pending.is_empty() {
                    let take = DFS_WAVE.min(self.budget);
                    let keys: Vec<Vec<usize>> = self.pending.keys().take(take).cloned().collect();
                    let wave: Vec<(Vec<usize>, Vec<SleepEntry>)> = keys
                        .into_iter()
                        .map(|k| {
                            let s = self.pending.remove(&k).unwrap_or_default();
                            (k, s)
                        })
                        .collect();
                    self.budget -= wave.len();
                    let prefixes = wave.iter().map(|(prefix, _)| prefix.clone()).collect();
                    self.issued = wave;
                    return Some(prefixes);
                }
                None
            }

            pub fn observe(&mut self, execs: &[Exec]) {
                let issued = std::mem::take(&mut self.issued);
                for exec in execs {
                    let (prefix, sleep) = &issued[exec.slot];
                    self.expand(prefix, sleep, exec);
                }
            }
        }
    }

    /// A splitmix64 stream: the generator behind the equivalence tests.
    pub(crate) struct Gen(pub u64);

    impl Gen {
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n.max(1) as u64) as usize
        }
    }

    /// A decision path with its runnable sets and footprints, as nested
    /// rows.
    pub(crate) type NestedRows = (Vec<(usize, usize)>, Vec<Vec<Tid>>, Vec<Vec<StepAccess>>);

    /// One generated execution's observations: a decision path that
    /// replays `prefix` (or stops short of it), a runnable set per
    /// decision (now and then one thread too many, which makes the edge
    /// unusable), and a footprint per decision as the runtime drains it —
    /// sorted, one entry per resource, a write subsuming the reads.
    pub(crate) fn random_rows(g: &mut Gen, prefix: &[usize]) -> NestedRows {
        let len = if g.below(10) == 0 {
            g.below(prefix.len() + 1)
        } else {
            prefix.len() + g.below(7)
        };
        let (mut decisions, mut runnables, mut footprints) = (Vec::new(), Vec::new(), Vec::new());
        for d in 0..len {
            let forced = prefix.get(d).copied();
            let n = (1 + g.below(4)).max(forced.map_or(0, |c| c + 1));
            let choice = forced.unwrap_or(if g.below(4) == 0 { g.below(n) } else { 0 });
            decisions.push((choice, n));
            let mut tids: Vec<Tid> = (0..6).collect();
            for i in (1..tids.len()).rev() {
                tids.swap(i, g.below(i + 1));
            }
            let shown = if g.below(25) == 0 { n + 1 } else { n };
            let mut runnable = tids[..shown.min(6)].to_vec();
            runnable.sort_unstable();
            runnables.push(runnable);
            let mut footprint: Vec<StepAccess> = (0..g.below(4))
                .map(|_| StepAccess {
                    resource: g.below(5) as u64,
                    write: g.below(3) == 0,
                })
                .collect();
            footprint.sort_by_key(|a| (a.resource, !a.write));
            footprint.dedup_by_key(|a| a.resource);
            footprints.push(footprint);
        }
        (decisions, runnables, footprints)
    }

    fn flat_pending(s: &DporSession) -> Vec<(Vec<usize>, Vec<reference::SleepEntry>)> {
        s.pending
            .iter()
            .map(|(prefix, sleep)| {
                let sleep = sleep.iter().map(|(t, fp)| (*t, fp.to_vec())).collect();
                (prefix.clone(), sleep)
            })
            .collect()
    }

    /// Random waves through the flat session and the nested reference give
    /// the same next waves in the same prefix order, the same pending
    /// sleep sets entry for entry, and the same `pruned` and
    /// `prunes_by_resource` — including runs with rows missing, with no
    /// observations at all, and with a runnable set of the wrong size.
    #[test]
    fn flat_dpor_matches_the_nested_reference_on_generated_waves() {
        let cfg = CheckConfig::builder().dfs_max_executions(300).build();
        let mut total_pruned = 0;
        for seed in 0..200 {
            let mut g = Gen(seed);
            let mut flat = DporSession::new(&cfg);
            let mut nested = reference::DporSession::new(cfg.dfs_max_executions);
            loop {
                let wave = flat.next_wave().map(|w| {
                    w.specs
                        .into_iter()
                        .map(|spec| match spec {
                            ScheduleSpec::Dfs { prefix, .. } => prefix,
                            other => panic!("unexpected spec {other:?}"),
                        })
                        .collect::<Vec<_>>()
                });
                assert_eq!(wave, nested.next_wave(), "seed {seed}: next wave");
                let Some(prefixes) = wave else { break };
                let (mut observed, mut reference) = (Vec::new(), Vec::new());
                for (slot, prefix) in prefixes.iter().enumerate() {
                    let (decisions, runnables, mut footprints) = random_rows(&mut g, prefix);
                    let mut runnables_seen = runnables.clone();
                    match g.below(10) {
                        0 => runnables_seen.truncate(g.below(runnables.len() + 1)),
                        1 => footprints.truncate(g.below(footprints.len() + 1)),
                        _ => {}
                    }
                    let with_deps = g.below(10) != 0;
                    observed.push(ObservedExec {
                        slot,
                        decisions: decisions.clone(),
                        trace_fp: 0,
                        failed: false,
                        deps: with_deps
                            .then(|| dep_trace(runnables_seen.clone(), footprints.clone())),
                    });
                    reference.push(reference::Exec {
                        slot,
                        decisions,
                        deps: with_deps.then_some(reference::NestedDeps {
                            runnables: runnables_seen,
                            accesses: footprints,
                        }),
                    });
                }
                flat.observe(Pass::Dfs, &observed);
                nested.observe(&reference);
                let nested_pending: Vec<_> = nested.pending.clone().into_iter().collect();
                assert_eq!(
                    flat_pending(&flat),
                    nested_pending,
                    "seed {seed}: sleep sets"
                );
                assert_eq!(flat.pruned, nested.pruned, "seed {seed}: pruned");
                assert_eq!(flat.budget, nested.budget, "seed {seed}: budget");
                let nested_prunes: Vec<(u64, u64)> =
                    nested.prunes_by_resource.clone().into_iter().collect();
                assert_eq!(flat.prunes_by_resource(), nested_prunes, "seed {seed}");
            }
            total_pruned += flat.pruned;
        }
        assert!(
            total_pruned > 100,
            "the generator must exercise pruning: {total_pruned}"
        );
    }
}

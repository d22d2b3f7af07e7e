//! One execution: the schedule [`Policy`] that drives it, the pilot that
//! decides and records at every step boundary, and [`run_one`], which
//! runs a harness once under an [`ExecSpec`] and reports how it ended
//! ([`ExecOutcome`]) and what it measured ([`ExecStats`]).

use crate::harness::{AnyGhost, AnyHarness, AnyWorld, Worlds};
use crate::pass::Pass;
use crate::strategy::{Buffers, DepTrace};
use crate::telemetry::{ExecStats, EXEC_COUNTERS};
use goose_rt::fault::FaultPlan;
use goose_rt::sched::{
    quiet_worker_panics, res, shared_pilot, ModelRt, PanicKind, Pilot, PilotCell, SharedPilot,
    StepAccess, StepResult, Tid,
};
use goose_rt::trace::{ExecTrace, TraceKind};
use perennial::{Fnv1a, GhostError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one explored execution ended.
#[derive(Debug, Clone, PartialEq)]
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
    /// The harness itself (a controller-side hook: make, boot, crash,
    /// abs_check) panicked. Isolated by `catch_unwind` and recorded as an
    /// outcome so one broken scenario cannot poison a campaign.
    HarnessPanic(String),
}

impl ExecOutcome {
    /// Whether this outcome counts as a verification failure.
    pub fn is_failure(&self) -> bool {
        !matches!(self, ExecOutcome::Ok)
    }
}

/// A failing execution, with enough context to reproduce and debug it.
#[derive(Debug, Clone, PartialEq)]
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
    /// schedule seed for random passes). [`replay`](crate::replay) feeds it
    /// back in.
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
    /// schedule/crash passes). [`replay`](crate::replay) re-injects it.
    pub faults: FaultPlan,
    /// Rendered ghost trace at failure.
    pub trace: String,
    /// Causal execution trace of the failing run, recorded by re-running
    /// it with the [`goose_rt::trace`] recorder on (see
    /// [`CheckConfig::trace_capture`](crate::CheckConfig::trace_capture)).
    /// Debug-only payload: excluded from campaign JSON and from every
    /// fingerprint, so reports are byte-identical with capture on or off.
    pub timeline: Option<goose_rt::ExecTrace>,
}

impl Counterexample {
    /// The canonical ordering key `(pass_rank, index)`.
    pub fn key(&self) -> (u8, u64) {
        (self.pass.rank(), self.index)
    }
}

/// Schedule policy for one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Policy {
    /// Deterministic: follow the recorded prefix, then always pick the
    /// first runnable (DFS order).
    DfsPrefix(Vec<usize>),
    /// Round-robin over runnable threads.
    RoundRobin,
    /// Replay the (possibly empty) decision prefix, then pseudo-random
    /// choice seeded by the execution's seed.
    Random(Vec<usize>),
}

impl Policy {
    /// The recorded decisions the policy replays before choosing itself.
    pub(crate) fn prefix(&self) -> &[usize] {
        match self {
            Policy::DfsPrefix(prefix) | Policy::Random(prefix) => prefix,
            Policy::RoundRobin => &[],
        }
    }
}

/// Room for the decisions of an execution under `policy`: one that
/// replays a prefix makes at least that many. Rounded up to a power of
/// two, the sizes a growing vector takes anyway: one-off sizes left the
/// allocator's free lists fragmented after a DPOR campaign, and every
/// allocation of the process slower (EXPERIMENTS.md, PR 25).
fn decisions_hint(policy: &Policy) -> usize {
    match policy.prefix().len() {
        0 => 0,
        n => n.next_power_of_two().max(4),
    }
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
    fn new(policy: Policy, seed: u64, decisions: Vec<(usize, usize)>) -> Self {
        ScheduleState {
            decisions,
            policy,
            clamped: Vec::new(),
            rr_next: 0,
            rng: seed | 1,
        }
    }

    fn choose(&mut self, runnable: &[Tid]) -> Tid {
        let n = runnable.len();
        let d = self.decisions.len();
        let idx = match (self.policy.prefix().get(d), &self.policy) {
            (Some(&recorded), _) => {
                if recorded >= n {
                    // Out-of-range prefix entry: the prefix came from
                    // a run that had more runnable threads here.
                    // Record the clamp so reports can surface it.
                    self.clamped.push(d);
                }
                recorded.min(n - 1)
            }
            (None, Policy::DfsPrefix(_)) => 0,
            (None, Policy::RoundRobin) => {
                let idx = self.rr_next % n;
                self.rr_next += 1;
                idx
            }
            (None, Policy::Random(_)) => {
                // xorshift64*
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                (self.rng as usize) % n
            }
        };
        self.decisions.push((idx, n));
        runnable[idx]
    }
}

/// Everything that determines one execution: the schedule policy, the
/// crash points (absolute grant counts) and fault plan to inject, the
/// model seed and step bound, and which observers ride along. With
/// `track_deps` the runtime records each grant's dependency footprint and
/// the result carries a [`DepTrace`] for partial-order reduction; with
/// `capture_trace` its causal recorder is on and the result carries an
/// [`ExecTrace`] — a pure observer that changes no counter, schedule, or
/// fault index. With `render_trace` the result carries the ghost trace's
/// text even when the execution passes; a failing one always does. Its
/// decision path and dependency trace fill `buffers`.
pub(crate) struct ExecSpec<'a> {
    pub policy: Policy,
    pub crash_points: &'a [u64],
    pub faults: &'a FaultPlan,
    pub seed: u64,
    pub max_steps: u64,
    pub track_deps: bool,
    pub capture_trace: bool,
    pub render_trace: bool,
    pub buffers: Buffers,
}

/// The schedule policy that reproduces a failure of `pass` from its
/// recorded schedule prefix: DFS prefixes for the DFS pass, the recorded
/// seed (plus corpus prefix) for the random passes, round-robin for the
/// sweep passes. A counterexample's re-run and a resumed schedule phase's
/// re-run of a logged failure both go through it.
pub(crate) fn cx_policy(pass: Pass, prefix: Vec<usize>) -> Policy {
    match pass {
        Pass::Random | Pass::RandomCrash | Pass::RandomCrashProbe => Policy::Random(prefix),
        Pass::CrashSweepBase
        | Pass::CrashSweep
        | Pass::NestedCrash
        | Pass::DiskFault
        | Pass::TornWrite
        | Pass::NetFault => Policy::RoundRobin,
        Pass::Dfs => Policy::DfsPrefix(prefix),
    }
}

/// One finished execution, handed on by value.
pub(crate) struct RunResult {
    pub outcome: ExecOutcome,
    pub decisions: Vec<(usize, usize)>,
    pub clamped: Vec<usize>,
    pub stats: ExecStats,
    /// Steps this process executed for the execution: `stats.steps`, less
    /// the prefix it shared with the execution it was forked off.
    pub steps_run: u64,
    /// Per-lock share of `stats.lock_blocks` (`ModelRt::lock_block_profile`),
    /// consumed by the profiler's resource-contention table.
    pub lock_profile: Vec<(u64, u64)>,
    /// OS-thread wake-ups the hand-off issued (`ModelRt::wakeups`): the
    /// profiler's deterministic proxy for scheduling cost, in no report.
    pub wakeups: u64,
    /// Wall time of this single execution (telemetry only).
    pub duration: Duration,
    /// The rendered ghost trace, of a failing execution or one run with
    /// `render_trace`; empty otherwise (`stats.trace_fp` is its hash
    /// either way).
    pub trace: String,
    /// Per-grant dependency observations (`track_deps` executions), boxed
    /// because most executions have none.
    pub deps: Option<Box<DepTrace>>,
    /// Causal execution trace (`capture_trace` executions).
    pub exec_trace: Option<ExecTrace>,
    /// Whether the execution's world served an earlier one
    /// ([`Worlds`]).
    pub reused: bool,
}

/// What the pilot and the ghost state knew when the execution ended. The
/// default is what survives a harness panic: nothing.
#[derive(Default)]
struct PilotLog {
    decisions: Vec<(usize, usize)>,
    clamped: Vec<usize>,
    /// Grants plus injected crashes.
    steps: u64,
    crashes: u64,
    helped: u64,
    /// The ghost trace's running fingerprint: of no events, the hash of
    /// no bytes.
    trace_fp: Fnv1a,
    trace: String,
    deps: Option<Box<DepTrace>>,
}

impl RunResult {
    /// Closes an execution: the pilot's log plus everything the runtime
    /// counted (nothing, if its world was never built), however the
    /// execution ended. `inherited` steps were run by the execution it was
    /// forked off. The duration and whether its world was reused are
    /// [`run_stopping`]'s to stamp.
    fn close(
        rt: Option<&ModelRt>,
        capture_trace: bool,
        inherited: u64,
        outcome: ExecOutcome,
        log: PilotLog,
    ) -> RunResult {
        let stats = ExecStats::new(
            &rt.map(ModelRt::sched_stats).unwrap_or_default(),
            log.steps,
            log.decisions.len() as u64,
            log.crashes,
            log.helped,
            log.trace_fp.finish(),
        );
        RunResult {
            outcome,
            decisions: log.decisions,
            clamped: log.clamped,
            stats,
            steps_run: log.steps.saturating_sub(inherited),
            lock_profile: rt.map(ModelRt::lock_block_profile).unwrap_or_default(),
            wakeups: rt.map_or(0, ModelRt::wakeups),
            duration: Duration::ZERO,
            trace: log.trace,
            deps: log.deps,
            exec_trace: capture_trace.then(|| rt.map(ModelRt::take_trace).unwrap_or_default()),
            reused: false,
        }
    }

    /// The first thing two runs of one execution differ in — the outcome,
    /// an [`ExecStats`] field, the per-lock blocks — named, with both
    /// values; `None` if they agree on all of them.
    pub(crate) fn difference(&self, other: &RunResult) -> Option<String> {
        if self.outcome != other.outcome {
            return Some(format!(
                "`outcome`: {:?} vs {:?}",
                self.outcome, other.outcome
            ));
        }
        let (a, b) = (&self.stats, &other.stats);
        let fields = EXEC_COUNTERS
            .iter()
            .map(|c| (c.key, (c.get)(a), (c.get)(b)));
        let trace_fp = ("trace_fp", a.trace_fp, b.trace_fp);
        if let Some((name, x, y)) = fields.chain([trace_fp]).find(|(_, x, y)| x != y) {
            return Some(format!("`{name}`: {x} vs {y}"));
        }
        (self.lock_profile != other.lock_profile).then(|| {
            let (x, y) = (&self.lock_profile, &other.lock_profile);
            format!("`lock_profile`: {x:?} vs {y:?}")
        })
    }
}

/// Runs one execution as `spec` describes it, in a world from `worlds`.
///
/// The execution is **isolated**: the harness body runs under
/// `catch_unwind`, so a panicking harness hook becomes an
/// [`ExecOutcome::HarnessPanic`] outcome instead of killing the worker,
/// and any virtual threads a failed or panicked execution left suspended
/// are unwound before returning, which frees their stacks (nothing
/// stays suspended across a long keep-going campaign).
pub(crate) fn run_one(worlds: &Worlds<'_>, spec: ExecSpec<'_>) -> RunResult {
    run_stopping(worlds, spec, None, &[], &mut |_: &Exec| {})
}

/// [`run_one`], from its first step or — `base` given — crashed at the
/// step boundary `base` is stopped at, stopping at each step boundary in
/// `stops` (ascending) it reaches, where `at` may fork crash jobs off the
/// execution before it carries on. A crashed copy is a job on `base`'s
/// schedule: its statistics, outcome and ghost trace are a re-run's with
/// `base`'s step added to its crash points, and it executes only what
/// follows the crash. Nothing of `base` is resumed, unwound or changed.
/// A world whose execution ended well goes back to `worlds`.
pub(crate) fn run_stopping(
    worlds: &Worlds<'_>,
    spec: ExecSpec<'_>,
    base: Option<&Exec>,
    stops: &[u64],
    at: &mut dyn FnMut(&Exec),
) -> RunResult {
    let inherited = base.map_or(0, Exec::step);
    let capture_trace = spec.capture_trace;
    let started = Instant::now();
    // The runtime to reap should the execution go down with a panic.
    let mut rt = None;
    let result = quiet_worker_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (mut world, reused) = worlds.world(&spec);
            rt = Some(Arc::clone(world.rt()));
            world.start(&spec, base.map(|b| &*b.world));
            let mut exec = Exec::new(world, spec, base, stops);
            let r = exec.drive(at);
            (RunResult { reused, ..r }, exec.world)
        }))
    });
    let mut r = match result {
        Ok((r, world)) => {
            if r.outcome.is_failure() {
                // Deadlocked, wedged, or panicked executions leave
                // virtual threads parked; reap them, and drop the world.
                world.rt().crash_all();
            } else {
                worlds.keep(world);
            }
            r
        }
        Err(payload) => {
            rt.iter().for_each(|rt| rt.crash_all());
            // The pilot went down with the harness: the runtime's own
            // grant count stands in for its step clock.
            let log = PilotLog {
                steps: rt.as_ref().map_or(0, |rt| rt.sched_stats().steps),
                ..PilotLog::default()
            };
            let outcome = ExecOutcome::HarnessPanic(panic_message(payload));
            RunResult::close(rt.as_deref(), capture_trace, inherited, outcome, log)
        }
    };
    // The teardown is the execution's too: a failed world's threads
    // reaped, and it and its runtime dropped, before the clock is read.
    drop(rt);
    r.duration = started.elapsed();
    r
}

/// Re-runs the execution a counterexample records — the one path behind
/// [`crate::replay`], the shrinker's candidates and the trace-capture
/// re-run — in a world of its own. It emits no telemetry and counts
/// toward no statistic.
pub(crate) fn rerun(
    harness: &dyn AnyHarness,
    cx: &Counterexample,
    max_steps: u64,
    capture_trace: bool,
) -> RunResult {
    let spec = ExecSpec {
        policy: cx_policy(cx.pass, cx.schedule_prefix.clone()),
        crash_points: &cx.crash_points,
        faults: &cx.faults,
        seed: cx.seed,
        max_steps,
        track_deps: false,
        capture_trace,
        render_trace: true,
        buffers: Buffers::default(),
    };
    run_one(&Worlds::new(harness), spec)
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
/// decision log, the step clock crash points, stops and disk failures are
/// scheduled on, and, when on, the per-grant dependency footprint and
/// the ghost-trace watermark of the causal trace.
struct ExecPilot {
    sched: ScheduleState,
    /// Grants plus injected crashes so far.
    steps: u64,
    /// Pending crash points, reversed: the next one is last.
    crash_points: Vec<u64>,
    /// Pending stops ([`run_stopping`]), reversed.
    stops: Vec<u64>,
    disk_fail: Option<(u8, u64)>,
    ghost: Arc<dyn AnyGhost>,
    /// Per-grant dependency observations (`track_deps` executions).
    dep: Option<Box<DepTrace>>,
    /// Ghost-engine calls made before the current grant.
    ghost_ops: u64,
    /// How many ghost events have been copied into the causal trace
    /// (`capture_trace` executions).
    spec_mark: Option<usize>,
}

impl ExecPilot {
    /// Whether the plan fails a disk at this step boundary.
    fn disk_fail_due(&self) -> bool {
        self.disk_fail.is_some_and(|(_, g)| g == self.steps)
    }

    /// Whether a crash is to be injected at this step boundary.
    fn crash_due(&self) -> bool {
        self.crash_points.last() == Some(&self.steps)
    }

    /// Whether the execution stops at this step boundary.
    fn stop_due(&self) -> bool {
        self.stops.last() == Some(&self.steps)
    }

    /// Copies the ghost events that appeared since the last call into the
    /// causal trace, attributed to `tid` (`None`: the controller).
    fn drain_spec(&mut self, rt: &ModelRt, tid: Option<Tid>) {
        let Some(mark) = self.spec_mark.as_mut() else {
            return;
        };
        *mark = self.ghost.events_from(*mark, &mut |event| {
            rt.trace_event_for(tid, TraceKind::Spec { event });
        });
    }
}

impl Pilot for ExecPilot {
    fn step_done(&mut self, rt: &ModelRt, tid: Tid) {
        self.steps += 1;
        if let Some(dep) = self.dep.as_mut() {
            // Ghost activity is tagged per thread: a thread's spec events
            // are ordered by its own program order, and any cross-thread
            // spec coupling (helping, linearization against a shared
            // object) is mediated by a physical primitive whose resource
            // tag is already in the footprint. Untagged cross-thread
            // ghost coupling would be unsound to commute — see DESIGN.md
            // §12.
            let ghost = self.ghost.op_count() != self.ghost_ops;
            dep.push_footprint(|row| {
                rt.drain_step_accesses(row);
                if ghost {
                    row.push(StepAccess::write(res::GHOST | tid as u64));
                }
            });
        }
        self.drain_spec(rt, Some(tid));
    }

    fn pick(&mut self, _rt: &ModelRt, runnable: &[Tid]) -> Option<Tid> {
        // A disk failure, a crash or a stop due here is the controller's.
        if self.disk_fail_due() || self.crash_due() || self.stop_due() {
            return None;
        }
        let tid = self.sched.choose(runnable);
        if let Some(dep) = self.dep.as_mut() {
            dep.push_runnable(runnable);
            // Snapshot immediately before the grant so controller-side
            // ghost calls (crash(), validate()) between grants never
            // pollute the per-grant delta.
            self.ghost_ops = self.ghost.op_count();
        }
        Some(tid)
    }
}

/// One execution, from its start — or the crash it was forked off another
/// execution at — to its end: the runtime, the world and the pilot
/// steering them, and the one statement of the lifecycle's order
/// (DESIGN.md §9): at every injected crash the unwind, the world's crash
/// and the recovery thread; after the first completed recovery the
/// post-recovery round. At a stop ([`run_stopping`]) the crash jobs that
/// crash there fork off it, each in a world of its own, and it carries on
/// untouched when the stop returns.
pub(crate) struct Exec {
    rt: Arc<ModelRt>,
    world: Box<dyn AnyWorld>,
    /// The recovery thread still running, if the last crash's is.
    recovering: Option<Tid>,
    pilot: PilotCell<ExecPilot>,
    crashes: u64,
    /// Steps of the execution this one was forked off, up to the fork:
    /// in its statistics, not run by it.
    inherited: u64,
    render_trace: bool,
}

impl Exec {
    /// The execution `spec` describes in `world`, started: from its first
    /// step (booted, the main round spawned), or from the crashed copy of
    /// `base`'s world, its schedule carried on, the crash's step taken and
    /// recovery spawned.
    fn new(
        world: Box<dyn AnyWorld>,
        mut spec: ExecSpec<'_>,
        base: Option<&Exec>,
        stops: &[u64],
    ) -> Self {
        let rt = &Arc::clone(world.rt());
        // A crashed copy restarts into recovery.
        let recovering = base.map(|_| world.restart());
        let hint = decisions_hint(&spec.policy);
        let dep = spec.track_deps.then(|| spec.buffers.deps(hint));
        let mut sched = ScheduleState::new(spec.policy, spec.seed, spec.buffers.path(hint));
        let (inherited, crashes) = match base {
            None => (0, 0),
            Some(base) => {
                // A job carries on the schedule it forks off, whatever
                // its policy: the decisions, the clamps, and where the
                // round-robin cursor and the random stream stand.
                let p = base.pilot.lock();
                sched.decisions.clone_from(&p.sched.decisions);
                sched.clamped.clone_from(&p.sched.clamped);
                sched.rr_next = p.sched.rr_next;
                sched.rng = p.sched.rng;
                (p.steps, base.crashes + 1)
            }
        };
        // A crashed copy's crash consumes a step, as an injected one does.
        let steps = inherited + u64::from(base.is_some());
        // The crash points up to a crashed copy's are its base's.
        let pending = spec.crash_points.iter().filter(|&&k| k >= steps);
        let pilot = shared_pilot(ExecPilot {
            sched,
            steps,
            crash_points: pending.rev().copied().collect(),
            stops: stops.iter().rev().copied().collect(),
            disk_fail: spec.faults.disk_fail,
            ghost: world.ghost(),
            dep,
            ghost_ops: 0,
            spec_mark: spec.capture_trace.then_some(0),
        });
        if spec.track_deps {
            // Footprints belong to granted steps: what setup noted is
            // dropped.
            rt.drain_step_accesses(&mut Vec::new());
        }
        // Spec-visible ghost events stream into the causal trace as they
        // appear: the pilot drains them after every grant (attributed to
        // the granted thread), the controller around its own transitions
        // and after a fresh world's set-up (a crashed copy is never traced).
        if base.is_none() {
            pilot.lock().drain_spec(rt, None);
        }
        Exec {
            rt: Arc::clone(rt),
            world,
            recovering,
            pilot,
            crashes,
            inherited,
            render_trace: spec.render_trace,
        }
    }

    /// The step boundary the execution stands at.
    pub(crate) fn step(&self) -> u64 {
        self.pilot.lock().steps
    }

    /// Whether every job crashing at this step has this execution's past
    /// as its own: it drew no model randomness, whose values follow the
    /// seed, and a job's seed is its own.
    pub(crate) fn shareable(&self) -> bool {
        self.rt.sched_stats().rand_draws == 0
    }

    /// Closes the execution with `outcome`.
    fn finish(&self, outcome: ExecOutcome, helped: u64) -> RunResult {
        let mut pilot = self.pilot.lock();
        // The text is for a reader: nobody reads a passing execution's.
        let (trace_fp, trace) = pilot.ghost.trace(self.render_trace || outcome.is_failure());
        let log = PilotLog {
            decisions: std::mem::take(&mut pilot.sched.decisions),
            clamped: std::mem::take(&mut pilot.sched.clamped),
            steps: pilot.steps,
            crashes: self.crashes,
            helped,
            trace_fp,
            trace: trace.unwrap_or_default(),
            deps: pilot.dep.take(),
        };
        let capture = pilot.spec_mark.is_some();
        RunResult::close(Some(&self.rt), capture, self.inherited, outcome, log)
    }

    /// Runs the execution to its end, handing it to `at` at every stop.
    fn drive(&mut self, at: &mut dyn FnMut(&Exec)) -> RunResult {
        let shared: SharedPilot = self.pilot.clone();
        // Crash unwinding and re-boot are controller transitions, not
        // granted steps: what they note is drained here and dropped.
        let mut discarded = Vec::new();
        // One iteration per event only the controller can handle: the pilot
        // schedules every step in between on the virtual threads' own stacks.
        let mut runnable = Vec::new();
        loop {
            let first = {
                let mut p = self.pilot.lock();
                if p.stop_due() {
                    p.stops.pop();
                    drop(p);
                    at(self);
                    continue;
                }
                // Plan-scheduled permanent disk failure at this grant
                // boundary? (Fires before a same-count crash and does not
                // consume a step — it models the device dying, not the
                // process.)
                if p.disk_fail_due() {
                    let (d, _) = p.disk_fail.take().expect("a due failure is pending");
                    self.world.fail_disk(d);
                }

                // Crash injection at this step boundary? Every thread is
                // unwound, then the world crashes and restarts into
                // recovery.
                if p.crash_due() {
                    p.crash_points.pop();
                    self.crashes += 1;
                    self.rt.crash_all();
                    self.world.crash();
                    self.recovering = Some(self.world.restart());
                    p.drain_spec(&self.rt, None);
                    if p.dep.is_some() {
                        discarded.clear();
                        self.rt.drain_step_accesses(&mut discarded);
                    }
                    // A crash consumes a "step" so nested sweeps can target
                    // positions inside recovery distinctly.
                    p.steps += 1;
                    continue;
                }

                self.rt.runnable_into(&mut runnable);
                if runnable.is_empty() {
                    if self.rt.all_done() {
                        // Pending crash points beyond the end are simply
                        // unused.
                        break;
                    }
                    drop(p);
                    return self.finish(ExecOutcome::Deadlock, 0);
                }
                p.pick(&self.rt, &runnable)
                    .expect("nothing is due, so the pilot picks")
            };
            let outcome = match self.rt.run(&shared, first) {
                // The pilot declined or nothing is runnable: the top of the
                // loop finds out which.
                (_, StepResult::Yielded | StepResult::Blocked) => continue,
                (tid, StepResult::Finished) => {
                    // The first recovery to finish starts the
                    // post-recovery round.
                    if self.recovering == Some(tid) {
                        self.recovering = None;
                        self.world.recovered();
                    }
                    continue;
                }
                (_, StepResult::Panicked(PanicKind::Ghost(e))) => ExecOutcome::Violation(e),
                (_, StepResult::Panicked(PanicKind::Ub(msg))) => ExecOutcome::Ub(msg),
                (_, StepResult::Panicked(PanicKind::Other(msg))) => ExecOutcome::Bug(msg),
                // Deterministic stall watchdog: the execution burned its
                // whole step budget without finishing.
                (_, StepResult::Panicked(PanicKind::StepBudget(budget))) => {
                    ExecOutcome::Wedged(budget)
                }
                (_, StepResult::Panicked(PanicKind::CrashUnwind)) => {
                    // Only reachable via crash_all, which we drive ourselves.
                    unreachable!("crash unwind surfaced outside crash injection");
                }
            };
            return self.finish(outcome, 0);
        }

        let (outcome, helped) = self.world.verdict();
        self.pilot.lock().drain_spec(&self.rt, None);
        self.finish(outcome, helped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Erased, Harness, PanicOnReset, Script, System, World, Worlds};
    use perennial::{GhostUnwrap, TraceEvent};
    use perennial_spec::fixtures::{RegOp, RegSpec};
    use perennial_spec::{Encode, Jid};

    /// One register write over a system with no state of its own,
    /// reporting `returns` as the write's return value.
    struct OneWrite {
        returns: Option<u64>,
    }

    struct NoState;

    impl System<RegSpec> for NoState {
        type Durable = ();

        fn snapshot(&self) {}

        fn restore(&self, _: &()) {}

        fn crash(&self) {}

        fn recover(&self, w: &World<RegSpec>) {
            w.ghost.recovery_done().ghost_unwrap();
        }

        fn abs_check(&self, _: &World<RegSpec>) -> Result<(), String> {
            Ok(())
        }
    }

    impl Harness<RegSpec> for OneWrite {
        type Sys = NoState;

        fn spec(&self) -> RegSpec {
            RegSpec { size: 1 }
        }

        fn make(&self, _: &World<RegSpec>) -> Script<NoState, RegSpec> {
            let returns = self.returns;
            let mut script = Script::new(NoState);
            script.thread("writer", move |_, w| {
                let tok = w.ghost.begin_op(RegOp::Write(0, 1)).ghost_unwrap();
                w.ghost.commit_op(&tok).ghost_unwrap();
                w.ghost.finish_op(tok, &returns).ghost_unwrap();
            });
            script
        }
    }

    fn run<H: Harness<RegSpec>>(
        harness: &H,
        crash_points: &[u64],
        render_trace: bool,
    ) -> RunResult {
        let spec = ExecSpec {
            policy: Policy::RoundRobin,
            crash_points,
            faults: &FaultPlan::default(),
            seed: 7,
            max_steps: 1_000,
            track_deps: false,
            capture_trace: false,
            render_trace,
            buffers: Buffers::default(),
        };
        run_one(&Worlds::new(&Erased::new(harness)), spec)
    }

    /// The fold of `events`' encodings: what an execution that recorded
    /// them reports as its `trace_fp`.
    fn fold(events: &[TraceEvent<RegOp, Option<u64>>]) -> u64 {
        let mut hash = Fnv1a::default();
        events.iter().for_each(|ev| ev.encode(&mut hash));
        hash.finish()
    }

    /// The fingerprint never needs the text: a passing execution carries
    /// none unless asked, a failing one always does, and either way the
    /// fingerprint is the fold of the encodings of the events the text
    /// renders.
    #[test]
    fn only_a_failing_or_replayed_execution_carries_its_trace_text() {
        let (jid, op) = (Jid(0), RegOp::Write(0, 1));
        let invoke = TraceEvent::Invoke {
            jid,
            op: op.clone(),
        };
        let commit = TraceEvent::Commit { jid, op, ret: None };
        let correct = OneWrite { returns: None };
        let quiet = run(&correct, &[], false);
        let asked = run(&correct, &[], true);
        assert!(
            matches!(quiet.outcome, ExecOutcome::Ok),
            "{:?}",
            quiet.outcome
        );
        assert_eq!(quiet.trace, "");
        assert_eq!(asked.trace.lines().count(), 3, "{}", asked.trace);
        assert_eq!(quiet.stats, asked.stats);
        let ret = TraceEvent::Return { jid, ret: None };
        assert_eq!(
            quiet.stats.trace_fp,
            fold(&[invoke.clone(), commit.clone(), ret])
        );

        // The return is refused, so it is not recorded.
        let failed = run(&OneWrite { returns: Some(9) }, &[], false);
        assert!(matches!(failed.outcome, ExecOutcome::Violation(_)));
        assert!(failed.trace.contains("Commit"), "{}", failed.trace);
        assert_eq!(failed.trace.lines().count(), 2, "{}", failed.trace);
        assert_eq!(failed.stats.trace_fp, fold(&[invoke, commit]));

        // A harness that panics takes the ghost state down with it: no
        // text, and the fingerprint of no events.
        let panicked = run(&PanicOnReset(correct), &[1], false);
        assert!(matches!(panicked.outcome, ExecOutcome::HarnessPanic(_)));
        assert_eq!(panicked.trace, "");
        assert_eq!(panicked.stats.trace_fp, fold(&[]));
    }

    /// Two writers, and two more after recovery: choices for a random
    /// schedule to draw on before a crash and after it.
    struct Writers;

    fn write(w: &World<RegSpec>, a: u64) {
        let tok = w.ghost.begin_op(RegOp::Write(a, a + 1)).ghost_unwrap();
        w.rt.yield_point();
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        w.rt.yield_point();
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }

    impl Harness<RegSpec> for Writers {
        type Sys = NoState;

        fn spec(&self) -> RegSpec {
            RegSpec { size: 2 }
        }

        fn make(&self, _: &World<RegSpec>) -> Script<NoState, RegSpec> {
            let mut script = Script::new(NoState);
            script.thread("a", |_, w| write(w, 0));
            script.thread("b", |_, w| write(w, 1));
            script.after("c", |_, w| write(w, 0));
            script.after("d", |_, w| write(w, 1));
            script
        }
    }

    fn random<'a>(crash_points: &'a [u64], faults: &'a FaultPlan) -> ExecSpec<'a> {
        ExecSpec {
            policy: Policy::Random(Vec::new()),
            crash_points,
            faults,
            seed: 11,
            max_steps: 1_000,
            track_deps: false,
            capture_trace: false,
            render_trace: true,
            buffers: Buffers::default(),
        }
    }

    /// A job forked off a random schedule carries on that schedule's
    /// random stream: it is the same execution crashed in place.
    #[test]
    fn a_fork_of_a_random_schedule_is_its_crash_in_place() {
        let (harness, faults) = (Erased::new(&Writers), FaultPlan::default());
        let worlds = Worlds::new(&harness);
        for k in 1..6 {
            let crash = [k];
            let in_place = run_one(&worlds, random(&crash, &faults));
            let mut forked = None;
            run_stopping(&worlds, random(&[], &faults), None, &crash, &mut |here| {
                let spec = random(&crash, &faults);
                let fork = run_stopping(&worlds, spec, Some(here), &[], &mut |_| {});
                forked = Some(fork);
            });
            let forked = forked.expect("the base reaches the crash point");
            assert_eq!(forked.difference(&in_place), None, "crash at {k}");
            assert_eq!(forked.decisions, in_place.decisions, "crash at {k}");
            assert_eq!(forked.trace, in_place.trace, "crash at {k}");
        }
    }
}

//! One execution: the schedule [`Policy`] that drives it, the pilot that
//! decides and records at every step boundary, and [`run_one`], which
//! runs a harness once under an [`ExecSpec`] and reports how it ended
//! ([`ExecOutcome`]) and what it measured ([`ExecStats`]).

use crate::harness::{Harness, Op, Script, System, World};
use crate::pass::Pass;
use crate::strategy::DepTrace;
use crate::telemetry::ExecStats;
use goose_rt::fault::FaultPlan;
use goose_rt::sched::{
    quiet_worker_panics, res, shared_pilot, ModelRt, PanicKind, Pilot, SharedPilot, StepAccess,
    StepResult, Tid,
};
use goose_rt::trace::{ExecTrace, TraceKind};
use perennial::{Fnv1a, Ghost, GhostError};
use perennial_spec::SpecTS;
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
    fn new(policy: Policy, seed: u64) -> Self {
        ScheduleState {
            decisions: Vec::with_capacity(decisions_hint(&policy)),
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
/// text even when the execution passes; a failing one always does.
pub(crate) struct ExecSpec<'a> {
    pub policy: Policy,
    pub crash_points: &'a [u64],
    pub faults: &'a FaultPlan,
    pub seed: u64,
    pub max_steps: u64,
    pub track_deps: bool,
    pub capture_trace: bool,
    pub render_trace: bool,
}

/// The schedule policy that reproduces a counterexample: DFS prefixes
/// for the DFS pass, the recorded seed (plus corpus prefix) for the
/// random passes, round-robin for the sweep passes.
fn cx_policy(cx: &Counterexample) -> Policy {
    match cx.pass {
        Pass::Random | Pass::RandomCrash | Pass::RandomCrashProbe => {
            Policy::Random(cx.schedule_prefix.clone())
        }
        Pass::CrashSweepBase
        | Pass::CrashSweep
        | Pass::NestedCrash
        | Pass::DiskFault
        | Pass::TornWrite
        | Pass::NetFault => Policy::RoundRobin,
        Pass::Dfs => Policy::DfsPrefix(cx.schedule_prefix.clone()),
    }
}

/// One finished execution, handed on by value.
pub(crate) struct RunResult {
    pub outcome: ExecOutcome,
    pub decisions: Vec<(usize, usize)>,
    pub clamped: Vec<usize>,
    pub stats: ExecStats,
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
    deps: Option<DepTrace>,
}

impl RunResult {
    /// Closes an execution: the pilot's log plus everything the runtime
    /// counted, however the execution ended.
    fn close(
        rt: &ModelRt,
        started: Instant,
        capture_trace: bool,
        outcome: ExecOutcome,
        log: PilotLog,
    ) -> RunResult {
        let stats = ExecStats::new(
            &rt.sched_stats(),
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
            lock_profile: rt.lock_block_profile(),
            wakeups: rt.wakeups(),
            duration: started.elapsed(),
            trace: log.trace,
            deps: log.deps.map(Box::new),
            exec_trace: capture_trace.then(|| rt.take_trace()),
        }
    }
}

/// Runs one execution as `spec` describes it.
///
/// The execution is **isolated**: the harness body runs under
/// `catch_unwind`, so a panicking harness hook becomes an
/// [`ExecOutcome::HarnessPanic`] outcome instead of killing the worker,
/// and any virtual threads a failed or panicked execution left suspended
/// are unwound before returning, which frees their stacks (nothing
/// stays suspended across a long keep-going campaign).
pub(crate) fn run_one<S: SpecTS, H: Harness<S>>(harness: &H, spec: ExecSpec<'_>) -> RunResult {
    let rt = ModelRt::with_faults(spec.seed, spec.max_steps, spec.faults.clone());
    let capture_trace = spec.capture_trace;
    let started = Instant::now();
    let result = quiet_worker_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_one_inner(harness, &rt, spec)
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
            // The pilot went down with the harness: the runtime's own
            // grant count stands in for its step clock.
            let log = PilotLog {
                steps: rt.sched_stats().steps,
                ..PilotLog::default()
            };
            let outcome = ExecOutcome::HarnessPanic(panic_message(payload));
            RunResult::close(&rt, started, capture_trace, outcome, log)
        }
    }
}

/// Re-runs the execution a counterexample records — the one path behind
/// [`crate::replay`], the shrinker's candidates and the trace-capture
/// re-run. It emits no telemetry and counts toward no statistic.
pub(crate) fn rerun<S: SpecTS, H: Harness<S>>(
    harness: &H,
    cx: &Counterexample,
    max_steps: u64,
    capture_trace: bool,
) -> RunResult {
    let spec = ExecSpec {
        policy: cx_policy(cx),
        crash_points: &cx.crash_points,
        faults: &cx.faults,
        seed: cx.seed,
        max_steps,
        track_deps: false,
        capture_trace,
        render_trace: true,
    };
    run_one(harness, spec)
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
        self.ghost.with_trace(|trace| {
            let events = trace.events();
            for ev in &events[*mark..] {
                rt.trace_event_for(
                    tid,
                    TraceKind::Spec {
                        event: format!("{ev:?}"),
                    },
                );
            }
            *mark = events.len();
        });
    }
}

impl<S: SpecTS> Pilot for ExecPilot<S> {
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
        // A disk failure or a crash due here is the controller's to
        // inject.
        if self.disk_fail_due() || self.crash_due() {
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

/// The system under test across one execution, and the one statement of
/// its lifecycle (DESIGN.md §9): boot and the main round, then at every
/// injected crash the substrate's crash transition, a re-boot and the
/// recovery thread, and after the first completed recovery the
/// post-recovery round.
struct Lifecycle<Sys, S: SpecTS> {
    w: World<S>,
    sys: Arc<Sys>,
    crash: fn(&Sys),
    /// The post-recovery round, until it is spawned.
    after: Vec<Op<Sys, S>>,
    /// The recovery thread still running, if the last crash's is.
    recovering: Option<Tid>,
}

impl<Sys: System<S>, S: SpecTS> Lifecycle<Sys, S> {
    /// Boots the script's system and spawns its main round.
    fn start(script: Script<Sys, S>, w: World<S>) -> Self {
        let life = Lifecycle {
            w,
            sys: Arc::new(script.sys),
            crash: script.crash,
            after: script.after,
            recovering: None,
        };
        life.sys.boot(&life.w);
        life.spawn_all(script.main);
        life
    }

    /// Spawns `op` as a virtual thread over the system.
    fn spawn(&self, name: &str, op: impl FnOnce(&Sys, &World<S>) + Send + 'static) -> Tid {
        let (sys, w) = (Arc::clone(&self.sys), self.w.clone());
        self.w.rt.spawn(name, move || op(&sys, &w))
    }

    fn spawn_all(&self, ops: Vec<Op<Sys, S>>) {
        for (name, op) in ops {
            self.spawn(name, op);
        }
    }

    /// An injected crash: every thread is unwound, the ghost state and
    /// the substrate take their crash transitions, and the process
    /// restarts into recovery.
    fn crash(&mut self) {
        self.w.rt.crash_all();
        self.w.ghost.crash();
        (self.crash)(&self.sys);
        self.sys.boot(&self.w);
        self.recovering = Some(self.spawn("recovery", Sys::recover));
    }

    /// Thread `tid` ran to its end: if it was the recovery thread, the
    /// post-recovery round starts (once per execution).
    fn finished(&mut self, tid: Tid) {
        if self.recovering == Some(tid) {
            self.recovering = None;
            let after = std::mem::take(&mut self.after);
            self.spawn_all(after);
        }
    }
}

fn run_one_inner<S: SpecTS, H: Harness<S>>(
    harness: &H,
    rt: &Arc<ModelRt>,
    spec: ExecSpec<'_>,
) -> RunResult {
    let ExecSpec {
        policy,
        crash_points,
        faults,
        seed,
        track_deps,
        capture_trace,
        render_trace,
        ..
    } = spec;
    let rt = Arc::clone(rt);
    rt.set_track_deps(track_deps);
    rt.set_tracing(capture_trace);
    let ghost = Ghost::new(harness.spec());
    let w = World {
        rt: Arc::clone(&rt),
        ghost: Arc::clone(&ghost),
    };
    let mut life = Lifecycle::start(harness.make(&w), w);

    let dep = track_deps.then(|| DepTrace::with_capacity(decisions_hint(&policy)));
    let pilot = shared_pilot(ExecPilot {
        sched: ScheduleState::new(policy, seed),
        steps: 0,
        crash_points: crash_points.iter().rev().copied().collect(),
        disk_fail: faults.disk_fail,
        ghost: Arc::clone(&ghost),
        dep,
        ghost_ops: 0,
        spec_mark: capture_trace.then_some(0),
    });
    let shared: SharedPilot = pilot.clone();
    let mut crashes = 0u64;
    // Footprints belong to granted steps: what setup and the crash
    // transitions note is drained here and dropped.
    let mut discarded = Vec::new();
    if track_deps {
        rt.drain_step_accesses(&mut discarded);
    }
    // Spec-visible ghost events stream into the causal trace as they
    // appear: the pilot drains them after every grant (attributed to the
    // granted thread), the controller around its own transitions.
    pilot.lock().drain_spec(&rt, None);

    let started = Instant::now();
    let finish = |outcome: ExecOutcome, crashes: u64, helped: u64| {
        let mut pilot = pilot.lock();
        // The text is for a reader: nobody reads a passing execution's.
        let render = render_trace || outcome.is_failure();
        let (trace_fp, trace) = ghost.with_trace(|trace| {
            let text = if render {
                trace.render()
            } else {
                String::new()
            };
            (trace.fingerprint(), text)
        });
        let log = PilotLog {
            decisions: std::mem::take(&mut pilot.sched.decisions),
            clamped: std::mem::take(&mut pilot.sched.clamped),
            steps: pilot.steps,
            crashes,
            helped,
            trace_fp,
            trace,
            deps: pilot.dep.take(),
        };
        RunResult::close(&rt, started, capture_trace, outcome, log)
    };

    // One iteration per event only the controller can handle: the pilot
    // schedules every step in between on the virtual threads' own stacks.
    let mut runnable = Vec::new();
    loop {
        let first = {
            let mut p = pilot.lock();
            // Plan-scheduled permanent disk failure at this grant
            // boundary? (Fires before a same-count crash and does not
            // consume a step — it models the device dying, not the
            // process.)
            if p.disk_fail_due() {
                let (d, _) = p.disk_fail.take().expect("a due failure is pending");
                life.sys.fail_disk(d);
            }

            // Crash injection at this step boundary?
            if p.crash_due() {
                p.crash_points.pop();
                crashes += 1;
                life.crash();
                p.drain_spec(&rt, None);
                if track_deps {
                    // Crash unwinding and re-boot are controller
                    // transitions, not granted steps.
                    discarded.clear();
                    rt.drain_step_accesses(&mut discarded);
                }
                // A crash consumes a "step" so nested sweeps can target
                // positions inside recovery distinctly.
                p.steps += 1;
                continue;
            }

            rt.runnable_into(&mut runnable);
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
                life.finished(tid);
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
            match life.sys.abs_check(&life.w) {
                Ok(()) => (ExecOutcome::Ok, helped),
                Err(msg) => (ExecOutcome::FinalCheckFailed(msg), helped),
            }
        }
        Err(e) => (ExecOutcome::Violation(e), 0),
    };
    pilot.lock().drain_spec(&rt, None);
    finish(outcome, crashes, helped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::PanicOnReset;
    use crate::metrics::trace_fingerprint;
    use perennial::GhostUnwrap;
    use perennial_spec::fixtures::{RegOp, RegSpec};

    /// One register write over a system with no state of its own,
    /// reporting `returns` as the write's return value.
    struct OneWrite {
        returns: Option<u64>,
    }

    struct NoState;

    impl System<RegSpec> for NoState {
        fn boot(&self, _: &World<RegSpec>) {}

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
        };
        run_one(harness, spec)
    }

    /// The fingerprint never needs the text: a passing execution carries
    /// none unless asked, a failing one always does, and either way the
    /// fingerprint is the hash of the text there is or would have been.
    #[test]
    fn only_a_failing_or_replayed_execution_carries_its_trace_text() {
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
        assert_eq!(quiet.stats.trace_fp, trace_fingerprint(&asked.trace));

        let failed = run(&OneWrite { returns: Some(9) }, &[], false);
        assert!(matches!(failed.outcome, ExecOutcome::Violation(_)));
        assert!(failed.trace.contains("Commit"), "{}", failed.trace);
        assert_eq!(failed.stats.trace_fp, trace_fingerprint(&failed.trace));

        // A harness that panics takes the ghost state down with it: no
        // text, and the fingerprint of none.
        let panicked = run(&PanicOnReset(correct), &[1], false);
        assert!(matches!(panicked.outcome, ExecOutcome::HarnessPanic(_)));
        assert_eq!(panicked.trace, "");
        assert_eq!(panicked.stats.trace_fp, trace_fingerprint(""));
    }
}

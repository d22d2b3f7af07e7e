//! The harness interface: how a system under test plugs into the
//! explorer.
//!
//! A system contributes what Perennial asks of a proof author — its
//! operations, its recovery procedure and its abstraction relation — as
//! one [`System`] impl. A [`Harness`] describes a *scenario* over it: the
//! spec, how to build fresh durable state, and the workload — a
//! [`Program`] of steps — returned in a [`Script`]. The crash → recovery
//! lifecycle is the checker's, stated once: it instantiates the script
//! once per explored execution (stateless model checking), drives the
//! schedule, injects crashes, and validates the ghost trace at the end.
//!
//! The driver (`exec.rs`, `jobs.rs`, `explore.rs`) names no harness type.
//! Every `H: Harness<S>` reaches it as one object-safe handle, `AnyHarness`
//! (a blanket impl at the public entry points erases `H` and `S`), which
//! makes each execution's world as an `AnyWorld`: booted with its main
//! round spawned, or the crashed copy of another world built from that
//! world's `snapshot` — a `Box<dyn Any>` of [`System::snapshot`] and the
//! runtime and ghost state to copy. The crash sweeps fork each crash job
//! off a shared execution this way instead of re-running its prefix
//! (DESIGN.md §9): a fresh world and a crashed copy differ only in where
//! `AnyHarness::world` takes their state from.
//!
//! The lifecycle of one execution:
//!
//! ```text
//! make() ──► boot() ──► the script's main round runs under the
//!                │      explorer's schedule
//!                │  (injected crash: rt.crash_all releases every lock,
//!                ▼   ghost.crash, crash(), boot() again)
//!           recover() runs as a scheduled thread (crashes here are
//!                │      explored too — "crash during recovery")
//!                ▼
//!          the script's post-recovery round ──► abs_check()
//! ```
//!
//! `make()` builds the system, its model locks included, once per
//! execution; `boot()` rebuilds only the system's own volatile state.

use crate::exec::ExecOutcome;
use goose_rt::fault::FaultSurface;
use goose_rt::runtime::ModelRtExt;
use goose_rt::sched::{ModelRt, Tid};
use perennial::{Fnv1a, Ghost};
use perennial_spec::SpecTS;
use std::any::Any;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;

/// Shared execution context handed to every harness hook.
pub struct World<S: SpecTS> {
    /// The model runtime (scheduler).
    pub rt: Arc<ModelRt>,
    /// The ghost engine for this execution.
    pub ghost: Arc<Ghost<S>>,
}

impl<S: SpecTS> Clone for World<S> {
    fn clone(&self) -> Self {
        World {
            rt: Arc::clone(&self.rt),
            ghost: Arc::clone(&self.ghost),
        }
    }
}

/// A system under test: what it does at the points of the crash →
/// recovery lifecycle the checker drives. Its operations are inherent
/// methods, called from a [`Script`]'s threads.
pub trait System<S: SpecTS>: Send + Sync + 'static {
    /// What [`System::snapshot`] copies out: `()` for a system with no
    /// state of its own.
    type Durable: 'static;

    /// Copies out everything [`System::crash`] does not wipe: durable
    /// images, the unflushed buffers `crash` decides the fate of, and any
    /// field that outlives a crash. Called from the controller between
    /// steps, on a running execution the checker forks a crash job off.
    fn snapshot(&self) -> Self::Durable;

    /// Makes a system fresh from [`Harness::make`] hold `snap`, before its
    /// crash hook and [`System::boot`] run: with the two, the forked job
    /// must be in the state a crash at the snapshot's step leaves a re-run
    /// in. Schedules nothing and counts nothing.
    fn restore(&self, snap: &Self::Durable);

    /// Rebuilds the system's own volatile state — caches, buffers, open
    /// handles — called after [`Harness::make`] and again after every
    /// crash, modelling the process restart. Model locks are not rebuilt
    /// here: built once in the system's constructor, each keeps its id
    /// across crashes and comes back from one unheld. Default: nothing
    /// volatile of its own, nothing to do.
    fn boot(&self, _w: &World<S>) {}

    /// The crash transition of the *substrate*: drops (or tears) volatile
    /// state such as write buffers, heap contents and file descriptors.
    /// The explorer has already unwound the threads and called
    /// `ghost.crash()`.
    fn crash(&self);

    /// The recovery procedure, run as a scheduled virtual thread so
    /// crashes *during recovery* are explored like any other step. Must
    /// finish by spending the crash token (`ghost.recovery_done()`).
    fn recover(&self, w: &World<S>);

    /// The abstraction relation at quiescence, over the real (non-ghost)
    /// state, e.g. "the two disk platters agree with σ".
    fn abs_check(&self, w: &World<S>) -> Result<(), String>;

    /// A plan-scheduled permanent disk failure (`disk` is 1 or 2),
    /// injected between grants at the plan's grant count; systems over a
    /// two-disk substrate forward it to `ModelTwoDisks::fail`. Default:
    /// no failable disks, ignore.
    fn fail_disk(&self, _disk: u8) {}
}

/// One named workload thread: an operation sequence over the system.
pub(crate) type Op<Sys, S> = (
    &'static str,
    Box<dyn FnOnce(&Sys, &World<S>) + Send + 'static>,
);

/// One execution's system and workload, as data: the checker boots the
/// system, spawns the main round, and — after the first completed
/// recovery — the post-recovery round.
pub struct Script<Sys, S: SpecTS> {
    /// The system under test, over fresh durable state.
    pub sys: Sys,
    /// The main workload threads, spawned after the first boot.
    pub(crate) main: Vec<Op<Sys, S>>,
    /// The workload run after a completed recovery (checks the system
    /// still serves requests correctly post-crash).
    pub(crate) after: Vec<Op<Sys, S>>,
    /// The crash hook: [`System::crash`], unless a harness-fault mutant
    /// overrides it.
    pub(crate) crash: fn(&Sys),
}

impl<Sys: System<S>, S: SpecTS> Script<Sys, S> {
    /// A script over `sys` with no workload yet.
    pub fn new(sys: Sys) -> Self {
        Script {
            sys,
            main: Vec::new(),
            after: Vec::new(),
            crash: Sys::crash,
        }
    }

    /// Adds a main-round thread.
    pub fn thread(
        &mut self,
        name: &'static str,
        op: impl FnOnce(&Sys, &World<S>) + Send + 'static,
    ) {
        self.main.push((name, Box::new(op)));
    }

    /// Adds a post-recovery thread.
    pub fn after(&mut self, name: &'static str, op: impl FnOnce(&Sys, &World<S>) + Send + 'static) {
        self.after.push((name, Box::new(op)));
    }

    /// Adds `program`'s threads, each taking its steps in order through
    /// `step`, and its post-recovery round as the thread `"post-crash"`.
    pub fn program<St: Sync>(
        &mut self,
        program: &'static Program<St>,
        step: impl Fn(&Sys, &World<S>, &St) + Copy + Send + 'static,
    ) {
        for &(name, steps) in program.threads {
            self.thread(name, move |sys, w| {
                steps.iter().for_each(|s| step(sys, w, s))
            });
        }
        if !program.after.is_empty() {
            let steps = program.after;
            self.after("post-crash", move |sys, w| {
                steps.iter().for_each(|s| step(sys, w, s))
            });
        }
    }
}

/// A workload as data: each main-round thread's name and steps, and the
/// steps of the round run after a completed recovery. A system's step
/// alphabet is its spec's operations plus whatever else its workloads
/// do between them (fail a disk, flush, drive the network).
pub struct Program<St: 'static> {
    /// The main round's threads, spawned in this order.
    pub threads: &'static [(&'static str, &'static [St])],
    /// The post-recovery round (none when empty).
    pub after: &'static [St],
}

impl<St> Program<St> {
    /// Whether a thread of either round takes a step `pred` holds of.
    pub fn any(&self, pred: impl Fn(&St) -> bool) -> bool {
        let steps = self.threads.iter().flat_map(|&(_, steps)| steps);
        steps.chain(self.after).any(pred)
    }
}

/// A checkable scenario.
pub trait Harness<S: SpecTS>: Sync {
    /// The system this scenario exercises.
    type Sys: System<S>;

    /// A fresh spec instance (defines the initial abstract state).
    fn spec(&self) -> S;

    /// Builds fresh durable state and ghost resources for one execution,
    /// and the workload to run over them.
    fn make(&self, w: &World<S>) -> Script<Self::Sys, S>;

    /// The label of a direct [`check`](crate::check) of this harness. A
    /// registered [`Scenario`](crate::Scenario) runs under its registry
    /// name instead.
    fn name(&self) -> &str {
        "unnamed scenario"
    }

    /// Which fault classes this scenario's substrate actually models.
    /// The fault sweeps only enumerate plans a scenario can express:
    /// e.g. a torn-write sweep over a system with no write buffer would
    /// re-explore identical executions. Default: no fault surface.
    fn fault_surface(&self) -> FaultSurface {
        FaultSurface::none()
    }
}

/// A harness with its spec and system types erased: what the driver asks
/// of a scenario. Every [`Harness`] is one through [`Erased`].
pub(crate) trait AnyHarness: Send + Sync {
    /// [`Harness::fault_surface`].
    fn fault_surface(&self) -> FaultSurface;

    /// One execution's world over `rt`: [`Harness::make`] over a fresh
    /// ghost engine, then the system booted and the main round spawned —
    /// or, from `base`, the crashed copy of `base`'s world, to be
    /// [restarted](AnyWorld::restart).
    fn world(&self, rt: &Arc<ModelRt>, base: Option<&dyn AnyWorld>) -> Box<dyn AnyWorld>;
}

/// One execution's world — the system, what is left of its workload and
/// its ghost state — behind one object-safe handle, so the driver that
/// steps it is compiled once.
pub(crate) trait AnyWorld {
    /// What the crashed copy of this world is built from, now: the
    /// system's [`System::snapshot`] and the runtime and ghost state to
    /// copy. Only [`AnyHarness::world`] of the same harness reads it.
    fn snapshot(&self) -> Box<dyn Any>;

    /// The world's ghost state, which the pilot shares.
    fn ghost(&self) -> Arc<dyn AnyGhost>;

    /// The ghost state's crash transition, once the runtime has unwound
    /// every thread.
    fn crash(&self);

    /// The script's crash hook (the substrate's crash transition), a
    /// re-boot, and the recovery thread, which it returns.
    fn restart(&self) -> Tid;

    /// A recovery thread finished: the post-recovery round is spawned,
    /// the first time only.
    fn recovered(&mut self);

    /// [`System::fail_disk`].
    fn fail_disk(&self, disk: u8);

    /// The verdict at quiescence — ghost validation, then
    /// [`System::abs_check`] — and the operations recovery helped.
    fn verdict(&self) -> (ExecOutcome, u64);
}

/// A world's ghost state with its spec erased: the trace's fingerprint,
/// text and op count.
pub(crate) trait AnyGhost: Send + Sync {
    /// Ghost-engine calls so far.
    fn op_count(&self) -> u64;

    /// The trace's running fingerprint, and its text if `render`.
    fn trace(&self, render: bool) -> (Fnv1a, Option<String>);

    /// Hands each ghost event from the `from`-th on to `each`, as
    /// `Debug` text, and returns how many there are.
    fn events_from(&self, from: usize, each: &mut dyn FnMut(String)) -> usize;
}

impl<S: SpecTS> AnyGhost for Ghost<S> {
    fn op_count(&self) -> u64 {
        Ghost::op_count(self)
    }

    fn trace(&self, render: bool) -> (Fnv1a, Option<String>) {
        self.with_trace(|trace| (trace.fingerprint(), render.then(|| trace.render())))
    }

    fn events_from(&self, from: usize, each: &mut dyn FnMut(String)) -> usize {
        self.with_trace(|trace| {
            let events = trace.events();
            for ev in &events[from..] {
                each(format!("{ev:?}"));
            }
            events.len()
        })
    }
}

/// A harness behind a pointer (`&H`, `Box<H>`) as an [`AnyHarness`]: the
/// door every public entry point erases `H` and `S` at.
pub(crate) struct Erased<S, P>(P, PhantomData<fn() -> S>);

impl<S, P> Erased<S, P> {
    pub(crate) fn new(harness: P) -> Self {
        Erased(harness, PhantomData)
    }
}

impl<S: SpecTS, P> AnyHarness for Erased<S, P>
where
    P: Deref + Send + Sync,
    P::Target: Harness<S>,
{
    fn fault_surface(&self) -> FaultSurface {
        self.0.fault_surface()
    }

    fn world(&self, rt: &Arc<ModelRt>, base: Option<&dyn AnyWorld>) -> Box<dyn AnyWorld> {
        let w = World {
            rt: Arc::clone(rt),
            ghost: Ghost::new(self.0.spec()),
        };
        // `make` runs over a fresh engine even for a crashed copy, so what
        // it allocates does not touch the copies that overwrite it.
        let script = self.0.make(&w);
        let mut live = Live {
            w,
            sys: Arc::new(script.sys),
            crash: script.crash,
            after: script.after,
        };
        let Some(base) = base else {
            live.sys.boot(&live.w);
            for (name, op) in script.main {
                live.spawn(name, op);
            }
            return Box::new(live);
        };
        // The crashed copy, with nothing run yet: the system restored,
        // then the runtime and the ghost state overwritten with their
        // crashed copies, and the post-recovery round dropped if `base`
        // has spawned its own.
        let snapshot = base.snapshot();
        let base = snapshot.downcast_ref::<Crashed<<P::Target as Harness<S>>::Sys, S>>();
        let base = base.expect("a snapshot of this harness's world");
        if base.recovered {
            live.after.clear();
        }
        live.sys.restore(&base.durable);
        live.w.rt.restore_crashed(&base.w.rt);
        live.w.ghost.fork_crashed(&base.w.ghost);
        Box::new(live)
    }
}

/// What [`AnyWorld::snapshot`] holds: the system's snapshot and the world
/// it was taken in.
struct Crashed<Sys: System<S>, S: SpecTS> {
    durable: Sys::Durable,
    w: World<S>,
    /// Whether the world has spawned its post-recovery round.
    recovered: bool,
}

/// The [`AnyWorld`] of a script's system.
struct Live<Sys, S: SpecTS> {
    w: World<S>,
    sys: Arc<Sys>,
    crash: fn(&Sys),
    /// The post-recovery round, until it is spawned.
    after: Vec<Op<Sys, S>>,
}

impl<Sys: System<S>, S: SpecTS> Live<Sys, S> {
    /// Spawns `op` as a virtual thread over the system.
    fn spawn(&self, name: &'static str, op: impl FnOnce(&Sys, &World<S>) + Send + 'static) -> Tid {
        let (sys, w) = (Arc::clone(&self.sys), self.w.clone());
        self.w.rt.spawn(name, move || op(&sys, &w))
    }
}

impl<Sys: System<S>, S: SpecTS> AnyWorld for Live<Sys, S> {
    fn snapshot(&self) -> Box<dyn Any> {
        Box::new(Crashed::<Sys, S> {
            durable: self.sys.snapshot(),
            w: self.w.clone(),
            recovered: self.after.is_empty(),
        })
    }

    fn ghost(&self) -> Arc<dyn AnyGhost> {
        self.w.ghost.clone()
    }

    fn crash(&self) {
        self.w.ghost.crash();
    }

    fn restart(&self) -> Tid {
        (self.crash)(&self.sys);
        self.sys.boot(&self.w);
        self.spawn("recovery", Sys::recover)
    }

    fn recovered(&mut self) {
        for (name, op) in std::mem::take(&mut self.after) {
            self.spawn(name, op);
        }
    }

    fn fail_disk(&self, disk: u8) {
        self.sys.fail_disk(disk);
    }

    fn verdict(&self) -> (ExecOutcome, u64) {
        let helped = match self.w.ghost.validate() {
            Ok(report) => report.helped as u64,
            Err(e) => return (ExecOutcome::Violation(e), 0),
        };
        match self.sys.abs_check(&self.w) {
            Ok(()) => (ExecOutcome::Ok, helped),
            Err(msg) => (ExecOutcome::FinalCheckFailed(msg), helped),
        }
    }
}

/// Harness-fault mutant: the wrapped scenario's script with a crash hook
/// that panics. Scenario code — not the code under test — failing this
/// way must not abort a campaign: the explorer isolates the panic and
/// records the execution as [`crate::ExecOutcome::HarnessPanic`].
pub struct PanicOnReset<H>(pub H);

impl<S: SpecTS, H: Harness<S>> Harness<S> for PanicOnReset<H> {
    type Sys = H::Sys;

    fn spec(&self) -> S {
        self.0.spec()
    }

    fn make(&self, w: &World<S>) -> Script<H::Sys, S> {
        let mut script = self.0.make(w);
        script.crash = |_| panic!("injected harness fault: crash_reset panics");
        script
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn fault_surface(&self) -> FaultSurface {
        self.0.fault_surface()
    }
}

/// Liveness mutant: the wrapped scenario's script plus one workload
/// thread that spins on a lock forever. Every explored execution exhausts
/// [`crate::CheckConfig::max_steps`] and is classified
/// [`crate::ExecOutcome::Wedged`] — never a checker hang. Use with a
/// small step budget: each wedged execution costs the full budget.
pub struct SpinForever<H>(pub H);

impl<S: SpecTS, H: Harness<S>> Harness<S> for SpinForever<H> {
    type Sys = H::Sys;

    fn spec(&self) -> S {
        self.0.spec()
    }

    fn make(&self, w: &World<S>) -> Script<H::Sys, S> {
        let mut script = self.0.make(w);
        script.thread("spinner", |_, w| {
            let lock = w.rt.new_glock();
            loop {
                lock.acquire();
                lock.release();
            }
        });
        script
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn fault_surface(&self) -> FaultSurface {
        self.0.fault_surface()
    }
}

//! The harness interface: how a system under test plugs into the
//! explorer.
//!
//! A system contributes what Perennial asks of a proof author — its
//! operations, its recovery procedure and its abstraction relation — as
//! one [`System`] impl. A [`Harness`] describes a *scenario* over it: the
//! spec, how to build fresh durable state, and the workload — a
//! [`Program`] of steps — returned in a [`Script`]. The crash → recovery
//! lifecycle is the checker's, stated once: every explored execution
//! starts from the scenario's initial state (stateless model checking);
//! the checker drives the schedule, injects crashes, and validates the
//! ghost trace at the end.
//!
//! The driver (`exec.rs`, `jobs.rs`, `explore.rs`) names no harness type.
//! Every `H: Harness<S>` reaches it as one object-safe handle, `AnyHarness`
//! (a blanket impl at the public entry points erases `H` and `S`), which
//! builds a world as an `AnyWorld`. A worker keeps the worlds of the
//! scenario it checks in a pool (`Worlds`) and resets one between the
//! executions it serves instead of building another: its system restored
//! to the snapshot taken right after `make` and its volatile state
//! dropped, its runtime and ghost state put back to their copies from
//! then, its leases minted again ([`System::relet`]). A started world is
//! booted with its main round spawned, or is the crashed copy of another
//! world made from that world's `snapshot` — a `Box<dyn Any>` of
//! [`System::snapshot`] and the runtime and ghost state to copy. The crash
//! sweeps fork each crash job off a shared execution this way instead of
//! re-running its prefix (DESIGN.md §9).
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
//! `make()` builds the system, its model locks included, once per world,
//! and a world serves many executions; `boot()` rebuilds only the
//! system's own volatile state.

use crate::exec::{ExecOutcome, ExecSpec};
use goose_rt::fault::FaultSurface;
use goose_rt::runtime::ModelRtExt;
use goose_rt::sched::{ModelRt, Tid};
use perennial::{Fnv1a, Ghost};
use perennial_spec::SpecTS;
use std::any::Any;
use std::cell::Cell;
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

    /// Makes the system hold `snap`, before its crash hook and
    /// [`System::boot`] run. The system may be fresh from
    /// [`Harness::make`] or have served earlier executions, so `restore`
    /// overwrites everything `snapshot` copies: with the crash hook and
    /// `boot`, a forked job must be in the state a crash at the snapshot's
    /// step leaves a re-run in, and a world reset to its snapshot from
    /// right after `make` in the state `make` and `boot` leave a fresh
    /// one in. Schedules nothing and counts nothing.
    fn restore(&self, snap: &Self::Durable);

    /// Mints again, with [`Ghost::recover_lease`] and
    /// [`Ghost::recover_set_lease`], every lease the system was handed
    /// when it was built, and puts each where its constructor put it —
    /// the lease part of [`System::recover`], without the recovery.
    /// Called when a world goes back to its state right after
    /// [`Harness::make`] to serve another execution: its ghost engine is
    /// back at that state with no lease out, and the leases the system
    /// holds may be a later version's. Default: the system holds none.
    fn relet(&self, _w: &World<S>) {}

    /// Rebuilds the system's own volatile state — caches, buffers, open
    /// handles — called after [`Harness::make`], after every crash
    /// (modelling the process restart), and when a world is reset to
    /// serve another execution. Model locks are not rebuilt
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

/// One named workload thread: an operation sequence over the system,
/// spawned again for each execution its world serves.
pub(crate) type Op<Sys, S> = (
    &'static str,
    Box<dyn Fn(&Sys, &World<S>) + Send + Sync + 'static>,
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

    /// Adds a main-round thread. `op` runs once per execution the
    /// world serves, so it is a `Fn`.
    pub fn thread(
        &mut self,
        name: &'static str,
        op: impl Fn(&Sys, &World<S>) + Send + Sync + 'static,
    ) {
        self.main.push((name, Box::new(op)));
    }

    /// Adds a post-recovery thread.
    pub fn after(
        &mut self,
        name: &'static str,
        op: impl Fn(&Sys, &World<S>) + Send + Sync + 'static,
    ) {
        self.after.push((name, Box::new(op)));
    }

    /// Adds `program`'s threads, each taking its steps in order through
    /// `step`, and its post-recovery round as the thread `"post-crash"`.
    pub fn program<St: Sync>(
        &mut self,
        program: &'static Program<St>,
        step: impl Fn(&Sys, &World<S>, &St) + Copy + Send + Sync + 'static,
    ) {
        // Each round holds what its program spawns, no more: a world
        // keeps its rounds for every execution it serves.
        self.main.reserve_exact(program.threads.len());
        for &(name, steps) in program.threads {
            self.thread(name, move |sys, w| {
                steps.iter().for_each(|s| step(sys, w, s))
            });
        }
        if !program.after.is_empty() {
            let steps = program.after;
            self.after.reserve_exact(1);
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

    /// The pool's builder ([`Worlds`]): a runtime for `spec`'s execution,
    /// a fresh ghost engine, and the world [`Harness::make`] builds over
    /// them, each copied as it stands then — what a reset puts back — so
    /// the world can serve again. Not started.
    fn build(&self, spec: &ExecSpec<'_>) -> Box<dyn AnyWorld>;
}

/// One world — the system, its workload and its ghost state — behind one
/// object-safe handle, so the driver that steps it is compiled once. A
/// world serves one execution at a time, and the executions of one
/// scenario on one OS thread one after another ([`Worlds`]).
pub(crate) trait AnyWorld {
    /// The runtime the world's system is built over.
    fn rt(&self) -> &Arc<ModelRt>;

    /// Readies the world for `spec`'s execution. One that served an
    /// earlier execution is reset first: its runtime to `spec`'s seed,
    /// step bound and fault plan, and — unless `base` is given — its
    /// system to the snapshot taken right after `make` with its volatile
    /// state dropped ([`System::crash`]), its ghost state to its copy
    /// from then, and the system's leases minted again
    /// ([`System::relet`]). Then it is booted with its main round
    /// spawned, or, from `base`, made the crashed copy of `base`'s world,
    /// to be [restarted](AnyWorld::restart).
    fn start(&mut self, spec: &ExecSpec<'_>, base: Option<&dyn AnyWorld>);

    /// What the crashed copy of this world is built from, now: the
    /// system's [`System::snapshot`] and the runtime and ghost state to
    /// copy. Only [`AnyWorld::start`] of a world of the same harness reads
    /// it.
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

/// One scenario's worlds on one OS thread, for the length of one check
/// (one wave's worker, at two workers or more). An execution takes the
/// pool's world or has the harness build one, and gives it back if it
/// ended well; a world whose execution failed, panicked or wedged is
/// dropped. The pool keeps one world: the jobs a crash sweep forks off
/// its shared execution, which holds a world of its own, build a second
/// (a nested sweep's, a third), and of the worlds that come back the
/// first is kept. A traced execution always gets a new world: its build
/// is part of what the trace records.
pub(crate) struct Worlds<'h> {
    harness: &'h dyn AnyHarness,
    free: Cell<Option<Box<dyn AnyWorld>>>,
}

impl<'h> Worlds<'h> {
    /// An empty pool over `harness`.
    pub(crate) fn new(harness: &'h dyn AnyHarness) -> Self {
        Worlds {
            harness,
            free: Cell::new(None),
        }
    }

    /// A world for `spec`'s execution, not yet started, and whether it
    /// served an earlier one.
    pub(crate) fn world(&self, spec: &ExecSpec<'_>) -> (Box<dyn AnyWorld>, bool) {
        let kept = if spec.capture_trace {
            None
        } else {
            self.free.take()
        };
        match kept {
            Some(world) => (world, true),
            None => (self.harness.build(spec), false),
        }
    }

    /// Keeps `world`, whose execution ended well, for a later one, unless
    /// the pool holds one already.
    pub(crate) fn keep(&self, world: Box<dyn AnyWorld>) {
        let kept = self.free.take();
        self.free.set(kept.or(Some(world)));
    }
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

    fn build(&self, spec: &ExecSpec<'_>) -> Box<dyn AnyWorld> {
        let rt = ModelRt::with_faults(spec.seed, spec.max_steps, spec.faults.clone());
        rt.set_track_deps(spec.track_deps);
        rt.set_tracing(spec.capture_trace);
        let w = World {
            rt,
            ghost: Ghost::new(self.0.spec()),
        };
        let script = self.0.make(&w);
        w.rt.mark_pristine();
        w.ghost.mark_pristine();
        Box::new(Live {
            pristine: script.sys.snapshot(),
            scene: Arc::new(Scene {
                w,
                sys: script.sys,
                main: script.main,
                after: script.after,
            }),
            crash: script.crash,
            recovered: false,
            used: false,
        })
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

/// What a world's virtual threads reach, behind the one `Arc` each of
/// them holds: the system, the runtime and ghost engine, and the
/// rounds' operations.
struct Scene<Sys, S: SpecTS> {
    w: World<S>,
    sys: Sys,
    main: Vec<Op<Sys, S>>,
    after: Vec<Op<Sys, S>>,
}

impl<Sys, S: SpecTS> Scene<Sys, S> {
    /// The post-recovery round's threads if `after`, else the main
    /// round's.
    fn round(&self, after: bool) -> &[Op<Sys, S>] {
        if after {
            &self.after
        } else {
            &self.main
        }
    }
}

/// The [`AnyWorld`] of a script's system.
struct Live<Sys: System<S>, S: SpecTS> {
    scene: Arc<Scene<Sys, S>>,
    crash: fn(&Sys),
    /// Whether the post-recovery round has been spawned (in a crashed
    /// copy, whether its base's had).
    recovered: bool,
    /// The system's snapshot right after `make`; the runtime and the
    /// ghost engine keep their own copies.
    pristine: Sys::Durable,
    /// Whether the world has served an execution.
    used: bool,
}

impl<Sys: System<S>, S: SpecTS> Live<Sys, S> {
    /// Spawns `op` as a virtual thread over the world.
    fn spawn(&self, name: &'static str, op: impl FnOnce(&Scene<Sys, S>) + Send + 'static) -> Tid {
        let scene = Arc::clone(&self.scene);
        self.scene.w.rt.spawn(name, move || op(&scene))
    }

    /// Spawns each thread of a round ([`Scene::round`]), in order.
    fn spawn_round(&self, after: bool) {
        for (i, &(name, _)) in self.scene.round(after).iter().enumerate() {
            self.spawn(name, move |scene| {
                (scene.round(after)[i].1)(&scene.sys, &scene.w)
            });
        }
    }
}

impl<Sys: System<S>, S: SpecTS> AnyWorld for Live<Sys, S> {
    fn rt(&self) -> &Arc<ModelRt> {
        &self.scene.w.rt
    }

    fn start(&mut self, spec: &ExecSpec<'_>, base: Option<&dyn AnyWorld>) {
        let Scene { w, sys, .. } = &*self.scene;
        let rt = &w.rt;
        if std::mem::replace(&mut self.used, true) {
            if base.is_none() {
                sys.restore(&self.pristine);
                Sys::crash(sys);
                w.ghost.reset();
                sys.relet(w);
            }
            // After the system's crash hook, which may count on it.
            rt.reset(spec.seed, spec.max_steps, spec.faults.clone());
            rt.set_track_deps(spec.track_deps);
            rt.set_tracing(spec.capture_trace);
        }
        let Some(base) = base else {
            self.recovered = false;
            sys.boot(w);
            self.spawn_round(false);
            return;
        };
        // The crashed copy, with nothing run yet: the system restored,
        // then the runtime and the ghost state overwritten with their
        // crashed copies, and the post-recovery round left unspawned if
        // `base` has spawned its own.
        let snapshot = base.snapshot();
        let base = snapshot.downcast_ref::<Crashed<Sys, S>>();
        let base = base.expect("a snapshot of this harness's world");
        self.recovered = base.recovered;
        sys.restore(&base.durable);
        rt.restore_crashed(&base.w.rt);
        w.ghost.fork_crashed(&base.w.ghost);
    }

    fn snapshot(&self) -> Box<dyn Any> {
        Box::new(Crashed::<Sys, S> {
            durable: self.scene.sys.snapshot(),
            w: self.scene.w.clone(),
            recovered: self.recovered,
        })
    }

    fn ghost(&self) -> Arc<dyn AnyGhost> {
        self.scene.w.ghost.clone()
    }

    fn crash(&self) {
        self.scene.w.ghost.crash();
    }

    fn restart(&self) -> Tid {
        let Scene { w, sys, .. } = &*self.scene;
        (self.crash)(sys);
        sys.boot(w);
        self.spawn("recovery", |scene| scene.sys.recover(&scene.w))
    }

    fn recovered(&mut self) {
        if !std::mem::replace(&mut self.recovered, true) {
            self.spawn_round(true);
        }
    }

    fn fail_disk(&self, disk: u8) {
        self.scene.sys.fail_disk(disk);
    }

    fn verdict(&self) -> (ExecOutcome, u64) {
        let Scene { w, sys, .. } = &*self.scene;
        let helped = match w.ghost.validate() {
            Ok(report) => report.helped as u64,
            Err(e) => return (ExecOutcome::Violation(e), 0),
        };
        match sys.abs_check(w) {
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

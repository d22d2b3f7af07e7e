//! The harness interface: how a system under test plugs into the
//! explorer.
//!
//! A system contributes what Perennial asks of a proof author — its
//! operations, its recovery procedure and its abstraction relation — as
//! one [`System`] impl. A [`Harness`] describes a *scenario* over it: the
//! spec, how to build fresh durable state, and the workload, returned as
//! data in a [`Script`]. The crash → recovery lifecycle is the checker's,
//! stated once (`exec.rs`): it instantiates the script once per explored
//! execution (stateless model checking), drives the schedule, injects
//! crashes, and validates the ghost trace at the end.
//!
//! The lifecycle of one execution:
//!
//! ```text
//! make() ──► boot() ──► the script's main round runs under the
//!                │      explorer's schedule
//!                │  (injected crash: rt.crash_all, ghost.crash,
//!                ▼   crash(), boot() again)
//!           recover() runs as a scheduled thread (crashes here are
//!                │      explored too — "crash during recovery")
//!                ▼
//!          the script's post-recovery round ──► abs_check()
//! ```

use goose_rt::fault::FaultSurface;
use goose_rt::runtime::ModelRtExt;
use goose_rt::sched::ModelRt;
use perennial::Ghost;
use perennial_spec::SpecTS;
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
    /// (Re)builds in-memory structures — locks, caches, handles — called
    /// after [`Harness::make`] and again after every crash, modelling the
    /// process restart.
    fn boot(&self, w: &World<S>);

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

//! The model scheduler: virtual threads with explicit atomic step points.
//!
//! Goose models Go code as a sequence of atomic primitive operations
//! (§6.1): heap accesses, file-system calls, lock operations. In model
//! mode every primitive calls [`ModelRt::yield_point`], which ends the
//! calling thread's step: it runs on only if it is granted the next one.
//! The *controller* (the checker's explorer) therefore fully determines
//! the interleaving, and can inject a crash at any step boundary by
//! poisoning the runtime: all parked threads unwind with a
//! [`CrashSignal`] payload, exactly modelling "the process died here".
//!
//! The design is stateless-model-checking style: each explored execution
//! builds a fresh [`ModelRt`] and replays a recorded schedule prefix.
//! Virtual threads are **stackful contexts** (`crate::coro`) on the OS
//! thread that spawns them — in the checker, the worker that runs the
//! execution, which is also its controller. [`ModelRt::spawn`] takes a
//! stack from that OS thread's free list and primes it; the body first
//! runs when the thread is granted. No OS thread is created, parked or
//! woken anywhere in this module, so a runtime must be driven (`run`,
//! `grant`, `crash_all`) from the OS thread its threads were spawned on;
//! anything else panics in the caller before a stack is touched.
//!
//! Exactly one context runs at a time, and the right to run is a
//! **baton** passed by switching contexts in user space.
//!
//! The scheduling decision is taken where the step ends. The controller
//! packages it as a [`Pilot`] — "this step is over; who is next?" — and
//! starts a [`ModelRt::run`]; from then on the baton is held by a virtual
//! thread, and at every yield or block that thread asks the pilot itself.
//! Picked again, it simply keeps running: no switch at all. Another
//! thread picked, it switches straight to it: one baton pass. The
//! controller holds the baton only between runs, and gets it back only
//! when the baton *comes home*: the pilot declines to pick (the
//! explorer's does at a crash point or a disk-failure grant count),
//! nothing is runnable, or the running thread finished or panicked (a
//! blown step budget is a panic). What only the controller can do —
//! inject the crash, spawn recovery, classify the verdict — therefore
//! stays with it. The pilot is called with no runtime state borrowed and
//! by the one thread that is running, so it may read the runtime freely.
//! [`ModelRt::grant`] is the same path with no pilot: the first step
//! boundary comes home.
//!
//! **Who may switch to whom.** The controller switches to the thread it
//! grants, or to the first thread a crash unwinds. A virtual thread
//! switches to the thread the pilot picked, home to the controller, or —
//! unwinding from a crash — to the next thread to unwind. Nobody else
//! switches, and every switch is `ModelRt::pass_to`, except a thread's
//! last: `thread_done` says where the baton goes and the base of the
//! thread's stack makes the switch, once nothing is left on it.
//!
//! **One owner, no locks.** Everything a runtime owns — its state, the
//! pilot, the trace and footprint buffers — is reached only from the OS
//! thread that built it, so each sits in an [`OwnerCell`], not behind a
//! mutex: a borrow checks the calling OS thread and that no other borrow
//! is alive, and synchronises nothing. The ghost engine and the storage
//! models built over a runtime follow the same rule.
//!
//! **No borrow is held across a switch.** The context switched to runs on
//! the same OS thread, so a borrow the switcher still held would still be
//! alive when a peer asked for it, and the peer would panic where a mutex
//! would have deadlocked the OS thread against itself. The state, the
//! pilot and the trace and footprint buffers are all released before
//! `pass_to`. A body that holds a real mutex across a model primitive
//! still deadlocks — as it did when threads were OS threads, where the
//! peer blocked for good.
//!
//! [`ModelRt::current_tid`] and the quiet-panic scope
//! ([`quiet_worker_panics`]) are thread-locals of the one OS thread, so
//! each context saves its own around every switch it makes and gets them
//! back when it resumes, unwinding included; a new thread starts with its
//! own tid and its spawner's quiet scope.
//!
//! A panic in a thread body is caught on the thread's own stack and
//! attributed to the virtual thread's name ([`ModelRt::failures`]); the
//! OS thread it happened on is the worker's.

use crate::coro::{self, Ctx};
use crate::fault::{FaultPlan, NetFault, TornMode};
use crate::trace::{ExecTrace, TraceBuf, TraceKind};
use parking_lot::owner::{OwnerCell, OwnerGuard};
use perennial::GhostPanic;
use std::borrow::Cow;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::LocalKey;

/// Virtual thread id (index into the runtime's thread table).
pub type Tid = usize;

/// Sentinel owner for locks taken from controller context (setup code
/// running outside any virtual thread).
const CONTROLLER_TID: Tid = usize::MAX;

/// Lock id (index into the runtime's lock table).
pub type LockId = usize;

/// Unwind payload for a simulated crash: the thread's execution is cut
/// off mid-operation.
#[derive(Debug, Clone, Copy)]
pub struct CrashSignal;

/// Unwind payload for modelled undefined behaviour (§6.1: racy access to
/// shared data).
#[derive(Debug, Clone)]
pub struct UbSignal(pub String);

/// Unwind payload raised when an execution exhausts its per-execution
/// step budget (`max_steps`): the model is wedged in a livelock or a
/// runaway loop. The checker maps this to a wedged-execution outcome
/// instead of hanging the campaign. Carries the exhausted budget.
#[derive(Debug, Clone, Copy)]
pub struct StepBudgetSignal(pub u64);

/// How a granted step ended.
#[derive(Debug, Clone, PartialEq)]
pub enum StepResult {
    /// The thread reached its next yield point.
    Yielded,
    /// The thread blocked on a lock; it is not runnable until release.
    Blocked,
    /// The thread's body returned.
    Finished,
    /// The thread panicked; the payload classifies the failure.
    Panicked(PanicKind),
}

/// Classified panic payloads surfacing from virtual threads.
#[derive(Debug, Clone, PartialEq)]
pub enum PanicKind {
    /// A ghost capability rule was violated — a verification failure.
    Ghost(perennial::GhostError),
    /// Modelled undefined behaviour (racy heap access, invalidated
    /// iterator) — the caller broke the spec's precondition.
    Ub(String),
    /// Any other panic — a plain bug in the code under test.
    Other(String),
    /// The thread was unwound by an injected crash (not a failure).
    CrashUnwind,
    /// The execution exceeded its step budget (livelock backstop); the
    /// payload is the exhausted budget.
    StepBudget(u64),
}

/// The scheduling decision taken at every step boundary, packaged so that
/// whichever thread holds the baton can take it (see [`ModelRt::run`]).
/// Both methods are called with no runtime state borrowed, by the one
/// thread that is running, so they may use any `ModelRt` method except `run`,
/// `grant`, `crash_all` and `join_all`. A pilot must not panic: on a
/// virtual thread's stack there is no controller frame to catch it.
pub trait Pilot: Send {
    /// The step granted to `tid` has ended — it yielded, blocked, finished
    /// or panicked. Called once per granted step, before the next
    /// [`Pilot::pick`].
    fn step_done(&mut self, rt: &ModelRt, tid: Tid);

    /// Picks the next thread to run from `runnable` (never empty), or
    /// `None` to send the baton home to the controller.
    fn pick(&mut self, rt: &ModelRt, runnable: &[Tid]) -> Option<Tid>;
}

/// A pilot of type `P` shared between the controller, which reads it
/// between runs, and the runtime, which holds a handle for the length of
/// one run and borrows it at each step boundary. Like the runtime it
/// steers, it belongs to the OS thread that built it ([`shared_pilot`]).
pub type PilotCell<P> = Arc<OwnerCell<P>>;

/// A pilot as [`ModelRt::run`] takes it: any [`PilotCell`].
pub type SharedPilot = PilotCell<dyn Pilot>;

/// Shares `pilot` between its controller and the runs it will steer. The
/// handle coerces to a [`SharedPilot`]; `lock()` on it borrows the pilot,
/// which the controller may do between runs only.
pub fn shared_pilot<P: Pilot>(pilot: P) -> PilotCell<P> {
    Arc::new(OwnerCell::new(pilot))
}

#[derive(Debug, Clone, PartialEq)]
enum TState {
    /// Spawned; waiting for its first grant.
    Registered,
    /// Holds the grant; currently running user code.
    Granted,
    /// Parked at a yield point; runnable.
    Paused,
    /// Waiting for a lock; not runnable.
    Blocked(LockId),
    Done,
    Panicked(PanicKind),
}

struct ThreadMeta {
    state: TState,
    /// Borrowed for the `&'static str` names harnesses give their
    /// threads: a spawn or a crashed copy of the table copies no text.
    name: Cow<'static, str>,
    /// The context the thread's body runs on.
    ctx: Ctx,
}

#[derive(Clone)]
struct LockSlot {
    held_by: Option<Tid>,
    /// Times a thread parked on this lock while held (the per-resource
    /// share of `SchedStats::lock_blocks`, for contention attribution).
    blocks: u64,
}

struct RtState {
    thread_table: Vec<ThreadMeta>,
    /// Virtual threads not yet `Done`/`Panicked`.
    live: usize,
    /// The context driving this runtime: whoever last called `run`,
    /// `grant` or `crash_all`, and so where a baton coming home goes.
    controller: Option<Ctx>,
    /// The pilot steering the current [`ModelRt::run`]; `None` between
    /// runs, under [`ModelRt::grant`], and while a step boundary has it
    /// out to call it.
    pilot: Option<SharedPilot>,
    /// Set by the thread that ends a run — the one whose step the pilot
    /// did not follow with another grant — and taken by the controller.
    came_home: Option<Tid>,
    /// Scratch for the runnable set shown to the pilot, kept so a step
    /// boundary allocates nothing.
    runnable_buf: Vec<Tid>,
    locks: Vec<LockSlot>,
    poisoned: bool,
    /// The execution's counters; `threads` is filled in by
    /// [`ModelRt::sched_stats`] from the thread table.
    stats: SchedStats,
    /// Drives deterministic randomness ([`ModelRt::rand_u64`]).
    seed: u64,
    /// The step budget (a livelock backstop).
    max_steps: u64,
    /// This execution's fault schedule (empty = inject nothing), fixed
    /// when the execution starts, like the seed, so fault injection is a
    /// pure function of the canonical job key.
    faults: FaultPlan,
    /// What [`ModelRt::reset`] puts back.
    pristine: Option<Box<Pristine>>,
}

/// The runtime as its world's builder left it ([`ModelRt::mark_pristine`]):
/// what [`ModelRt::reset`] restores before a world serves another
/// execution.
struct Pristine {
    locks: Vec<LockSlot>,
    stats: SchedStats,
    tags: u64,
    wakeups: u64,
}

impl RtState {
    /// Runnable thread ids, ascending: registered or paused.
    fn runnable(&self) -> impl Iterator<Item = Tid> + '_ {
        self.thread_table
            .iter()
            .enumerate()
            .filter(|(_, m)| matches!(m.state, TState::Registered | TState::Paused))
            .map(|(i, _)| i)
    }

    /// During a crash: the live thread that unwinds next, or the
    /// controller once there is none.
    fn next_to_unwind(&self) -> Ctx {
        self.thread_table
            .iter()
            .find(|m| !matches!(m.state, TState::Done | TState::Panicked(_)))
            .map(|m| m.ctx)
            .or(self.controller)
            .expect("a crash has a controller waiting on it")
    }
}

/// Snapshot of the runtime's step counters, the scheduler-level raw
/// material for the checker's telemetry (`exec_done` events and the
/// per-execution histograms). Every field is a deterministic function of
/// the schedule and fault plan, never of wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Yield points passed (scheduled atomic steps).
    pub steps: u64,
    /// Virtual threads spawned over the execution's lifetime.
    pub threads: u64,
    /// Disk operations consulted against the fault plan.
    pub disk_ops: u64,
    /// Network sends consulted against the fault plan.
    pub net_msgs: u64,
    /// Successful model-lock acquisitions.
    pub lock_acquires: u64,
    /// Acquisitions that parked on a held lock first (contention).
    pub lock_blocks: u64,
    /// Deterministic random draws consumed.
    pub rand_draws: u64,
    /// Disk block reads (all disk models).
    pub disk_reads: u64,
    /// Disk block writes, buffered or direct (all disk models).
    pub disk_writes: u64,
    /// Disk flush barriers, including write-throughs.
    pub disk_flushes: u64,
    /// Network sends that reached a channel.
    pub net_sends: u64,
    /// Network receives that dequeued a message.
    pub net_recvs: u64,
}

thread_local! {
    static CURRENT_TID: Cell<Option<Tid>> = const { Cell::new(None) };
}

/// A thread-local cell set for a scope: the previous value comes back
/// when the guard drops, unwinding included.
struct Scoped<T: Copy + 'static> {
    key: &'static LocalKey<Cell<T>>,
    prev: T,
}

fn scoped<T: Copy>(key: &'static LocalKey<Cell<T>>, value: T) -> Scoped<T> {
    Scoped {
        key,
        prev: key.with(|c| c.replace(value)),
    }
}

impl<T: Copy> Drop for Scoped<T> {
    fn drop(&mut self) {
        self.key.with(|c| c.set(self.prev));
    }
}

/// One shared-state access performed during a granted step, as recorded
/// by the dependency hooks (see [`ModelRt::note_access`]). The checker's
/// partial-order reduction treats two steps as *independent* — freely
/// commutable — exactly when no resource appears in both footprints with
/// a write on either side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepAccess {
    /// Opaque resource id; see [`res`] for the naming scheme.
    pub resource: u64,
    /// Whether the access mutates the resource.
    pub write: bool,
}

impl StepAccess {
    /// A read access.
    pub fn read(resource: u64) -> Self {
        StepAccess {
            resource,
            write: false,
        }
    }

    /// A write access.
    pub fn write(resource: u64) -> Self {
        StepAccess {
            resource,
            write: true,
        }
    }
}

/// Resource-id naming scheme for [`StepAccess`] footprints. Ids are
/// opaque to the checker — all it needs is that two accesses to the same
/// shared state produce the same id, and accesses to disjoint state
/// produce different ids. The high byte tags the resource class; model
/// instances (disks, channels, file systems) disambiguate themselves with
/// a runtime-allocated tag ([`ModelRt::alloc_resource_tag`]).
pub mod res {
    /// A model lock (low bits: the [`LockId`](super::LockId)).
    pub const LOCK: u64 = 0x01 << 56;
    /// A heap object (low bits: the pointer id).
    pub const HEAP: u64 = 0x02 << 56;
    /// The shared deterministic-randomness counter (every draw advances
    /// it, so draws never commute — reordering them changes the values).
    pub const RAND: u64 = 0x03 << 56;
    /// Shared allocators (heap ids, lock ids, thread ids): allocation
    /// order determines the allocated id, so allocations never commute.
    pub const ALLOC: u64 = 0x04 << 56;
    /// One block of a model disk (bits 32..56: instance tag; low bits:
    /// block address, with bit 31 carrying the disk number on two-disk
    /// substrates).
    pub const DISK: u64 = 0x05 << 56;
    /// A whole model instance treated as one resource (network channels,
    /// file systems, write buffers).
    pub const INSTANCE: u64 = 0x06 << 56;
    /// A thread's ghost-engine activity (low bits: the thread id). Spec
    /// events are ordered per thread; cross-thread spec coupling must be
    /// mediated by a physical primitive whose own resource tag appears
    /// in the footprint (DESIGN.md §12).
    pub const GHOST: u64 = 0x07 << 56;
    /// The disk-op fault counter — only shared when the execution's plan
    /// schedules transient I/O faults (the index stream then decides
    /// *which* op fails).
    pub const DISK_FAULT_CTR: u64 = 0x08 << 56;
    /// The net-send fault counter (see [`DISK_FAULT_CTR`]).
    pub const NET_FAULT_CTR: u64 = 0x09 << 56;

    /// Resource id for a model lock.
    pub fn lock(id: super::LockId) -> u64 {
        LOCK | id as u64
    }

    /// Resource id for a heap object.
    pub fn heap_obj(id: u64) -> u64 {
        HEAP | (id & 0x00ff_ffff_ffff_ffff)
    }

    /// Resource id for one block of a tagged disk instance.
    pub fn disk_block(tag: u64, block: u64) -> u64 {
        DISK | ((tag & 0x00ff_ffff) << 32) | (block & 0xffff_ffff)
    }

    /// Resource id for a whole tagged model instance.
    pub fn instance(tag: u64) -> u64 {
        INSTANCE | (tag & 0x00ff_ffff_ffff_ffff)
    }
}

/// The model runtime: scheduler state plus the primitives virtual threads
/// call.
pub struct ModelRt {
    state: OwnerCell<RtState>,
    /// Baton passes made so far (see [`ModelRt::wakeups`]). Written by
    /// the owning OS thread only, so a plain load and store.
    wakeups: AtomicU64,
    /// Whether the dependency hooks record accesses (off by default; the
    /// checker enables it for executions feeding partial-order
    /// reduction). Disabled runs pay one relaxed load per primitive.
    track_deps: AtomicBool,
    /// Accesses of the currently granted step, drained when it ends
    /// via [`ModelRt::drain_step_accesses`].
    cur_accesses: OwnerCell<Vec<StepAccess>>,
    /// Next instance tag for [`ModelRt::alloc_resource_tag`].
    next_tag: AtomicU64,
    /// Whether the causal trace recorder is on (off by default; the
    /// checker enables it when re-running a counterexample for explain
    /// output). Untraced runs pay one relaxed load per event site.
    tracing: AtomicBool,
    /// The trace recording buffer (drained via [`ModelRt::take_trace`]).
    trace_buf: OwnerCell<TraceBuf>,
}

/// Installs a process-wide panic hook (once) that silences the expected
/// control-flow unwinds — crash signals, ghost violations, modelled UB —
/// while delegating genuine panics to the previous hook.
fn install_quiet_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<CrashSignal>()
                || p.is::<GhostPanic>()
                || p.is::<UbSignal>()
                || p.is::<StepBudgetSignal>()
                || QUIET_PANICS.with(|q| q.get())
            {
                return;
            }
            prev(info);
        }));
    });
}

thread_local! {
    /// Set while a checker worker runs a harness under `catch_unwind`:
    /// any panic on this thread is an *isolated* execution outcome, not
    /// a process failure, so the default backtrace spew is suppressed.
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with panics on the *current* thread silenced in the quiet
/// hook. The checker wraps each isolated execution in this so that a
/// panicking harness is recorded as an outcome without flooding stderr;
/// panics on other (virtual) threads are unaffected.
pub fn quiet_worker_panics<R>(f: impl FnOnce() -> R) -> R {
    let _quiet = scoped(&QUIET_PANICS, true);
    f()
}

impl ModelRt {
    /// Creates a runtime with no fault plan. `seed` drives deterministic
    /// randomness; `max_steps` bounds runaway executions (a livelock
    /// backstop).
    pub fn new(seed: u64, max_steps: u64) -> Arc<Self> {
        Self::with_faults(seed, max_steps, FaultPlan::default())
    }

    /// Creates a runtime carrying a fault schedule the storage and
    /// network models consult during the execution.
    pub fn with_faults(seed: u64, max_steps: u64, faults: FaultPlan) -> Arc<Self> {
        install_quiet_hook();
        Arc::new(ModelRt {
            state: OwnerCell::new(RtState {
                thread_table: Vec::new(),
                live: 0,
                controller: None,
                pilot: None,
                came_home: None,
                runnable_buf: Vec::new(),
                locks: Vec::new(),
                poisoned: false,
                stats: SchedStats::default(),
                seed,
                max_steps,
                faults,
                pristine: None,
            }),
            wakeups: AtomicU64::new(0),
            track_deps: AtomicBool::new(false),
            cur_accesses: OwnerCell::new(Vec::new()),
            next_tag: AtomicU64::new(0),
            tracing: AtomicBool::new(false),
            trace_buf: OwnerCell::new(TraceBuf::default()),
        })
    }

    // ------------------------------------------------------------------
    // Causal trace recording (explain / trace-export support).
    // ------------------------------------------------------------------

    /// Enables (or disables) the causal trace recorder. A pure side
    /// channel: no counter, schedule, or fault index observes it.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether the trace recorder is currently on.
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Records one trace event attributed to the calling virtual thread
    /// (or the controller, outside any). No-op when tracing is off.
    pub fn trace_event(&self, kind: TraceKind) {
        self.trace_event_for(Self::current_tid(), kind);
    }

    /// Records one trace event attributed to an explicit thread — the
    /// controller uses this to attribute grants and spec events to the
    /// thread it just granted. No-op when tracing is off.
    pub fn trace_event_for(&self, tid: Option<Tid>, kind: TraceKind) {
        if !self.tracing.load(Ordering::Relaxed) {
            return;
        }
        self.trace_buf.lock().push(tid, kind);
    }

    /// Drains the recorded trace (with the thread-name table) and resets
    /// the recorder.
    pub fn take_trace(&self) -> ExecTrace {
        let threads = {
            let s = self.state.lock();
            s.thread_table.iter().map(|m| m.name.to_string()).collect()
        };
        self.trace_buf.lock().take(threads)
    }

    // ------------------------------------------------------------------
    // Dependency hooks (partial-order reduction support).
    // ------------------------------------------------------------------

    /// Enables (or disables) access recording for this execution. The
    /// checker turns it on for executions whose footprints feed
    /// partial-order reduction.
    pub fn set_track_deps(&self, on: bool) {
        self.track_deps.store(on, Ordering::Relaxed);
    }

    /// Records one shared-state access of the currently granted step.
    /// No-op unless tracking is enabled and a virtual thread is running
    /// (controller-context setup code is not part of any step).
    pub fn note_access(&self, resource: u64, write: bool) {
        if !self.track_deps.load(Ordering::Relaxed) || Self::current_tid().is_none() {
            return;
        }
        self.cur_accesses
            .lock()
            .push(StepAccess { resource, write });
    }

    /// Drains the accesses recorded since the last drain — the footprint
    /// of the granted step that just ended — onto the end of `out`:
    /// sorted by resource, one entry per resource, a read subsumed by a
    /// write to the same resource. The runtime keeps its buffer's
    /// capacity, so a step that records no more accesses than an earlier
    /// one allocates nothing here.
    pub fn drain_step_accesses(&self, out: &mut Vec<StepAccess>) {
        let mut cur = self.cur_accesses.lock();
        // Entries equal under the key are equal, so an unstable sort
        // gives the stable sort's order, without its scratch buffer.
        cur.sort_unstable_by_key(|a| (a.resource, !a.write));
        cur.dedup_by_key(|a| a.resource);
        out.append(&mut cur);
    }

    /// [`ModelRt::drain_step_accesses`] into a vector of its own.
    pub fn take_step_accesses(&self) -> Vec<StepAccess> {
        let mut out = Vec::new();
        self.drain_step_accesses(&mut out);
        out
    }

    /// Allocates a fresh instance tag for a model (disk, channel, file
    /// system) so its accesses are distinguishable in footprints.
    /// Deterministic: models are constructed in a deterministic order
    /// per schedule.
    pub fn alloc_resource_tag(&self) -> u64 {
        self.next_tag.fetch_add(1, Ordering::Relaxed)
    }

    /// Consumes the next disk-operation index and reports whether the
    /// plan injects a transient fault there. Every fault-aware model-disk
    /// operation calls this exactly once per attempt, so the index stream
    /// is deterministic per schedule.
    pub fn next_disk_op_faulty(&self) -> bool {
        // With transient faults planned, the shared op-index stream
        // decides *which* op fails, so consuming an index is a
        // dependency-relevant write.
        let (planned, faulty) = {
            let mut s = self.state.lock();
            let i = s.stats.disk_ops;
            s.stats.disk_ops += 1;
            let planned = &s.faults.transient_io;
            (!planned.is_empty(), planned.contains(&i).then_some(i))
        };
        if planned {
            self.note_access(res::DISK_FAULT_CTR, true);
        }
        if let Some(op) = faulty {
            self.trace_event(TraceKind::FaultDiskTransient { op });
            return true;
        }
        false
    }

    /// Disk operations consulted so far (fault-sweep probes use this to
    /// size the transient-error enumeration).
    pub fn disk_ops(&self) -> u64 {
        self.state.lock().stats.disk_ops
    }

    /// Consumes the next network-send index and returns the fault the
    /// plan injects there, if any.
    pub fn next_net_fault(&self) -> Option<NetFault> {
        let (planned, i, fault) = {
            let mut s = self.state.lock();
            let i = s.stats.net_msgs;
            s.stats.net_msgs += 1;
            (!s.faults.net.is_empty(), i, s.faults.net.get(&i).copied())
        };
        if planned {
            self.note_access(res::NET_FAULT_CTR, true);
        }
        if let Some(f) = fault {
            self.trace_event(TraceKind::FaultNet { msg: i, fault: f });
        }
        fault
    }

    // ------------------------------------------------------------------
    // Model-operation accounting (disk / fs / net hooks).
    //
    // The storage and network models call these once per operation; each
    // bumps the matching `SchedStats` counter and, when tracing is on,
    // records the structured trace event. Counters are unconditional —
    // they are deterministic schedule functions the checker reports —
    // while trace events are the opt-in side channel.
    // ------------------------------------------------------------------

    /// Accounts one disk block read.
    pub fn note_disk_read(&self, tag: u64, block: u64) {
        self.state.lock().stats.disk_reads += 1;
        self.trace_event(TraceKind::DiskRead { tag, block });
    }

    /// Accounts one buffered or direct disk block write.
    pub fn note_disk_write(&self, tag: u64, block: u64) {
        self.state.lock().stats.disk_writes += 1;
        self.trace_event(TraceKind::DiskWrite { tag, block });
    }

    /// Accounts one write-through (a write plus an immediate barrier).
    pub fn note_disk_write_through(&self, tag: u64, block: u64) {
        {
            let mut s = self.state.lock();
            s.stats.disk_writes += 1;
            s.stats.disk_flushes += 1;
        }
        self.trace_event(TraceKind::DiskWriteThrough { tag, block });
    }

    /// Accounts one flush barrier that applied `applied` buffered writes.
    pub fn note_disk_flush(&self, tag: u64, applied: u64) {
        self.state.lock().stats.disk_flushes += 1;
        self.trace_event(TraceKind::DiskFlush { tag, applied });
    }

    /// Accounts one file-system operation (traced, not counted: fs ops
    /// are not disk ops — `BufferedFs` durability is modelled at the
    /// image level, not per block).
    pub fn note_fs_op(&self, tag: u64, op: &'static str, write: bool) {
        self.trace_event(TraceKind::FsOp { tag, op, write });
    }

    /// Accounts one network send.
    pub fn note_net_send(&self, tag: u64, bytes: u64) {
        self.state.lock().stats.net_sends += 1;
        self.trace_event(TraceKind::NetSend { tag, bytes });
    }

    /// Accounts one network receive that dequeued a message.
    pub fn note_net_recv(&self, tag: u64, bytes: u64) {
        self.state.lock().stats.net_recvs += 1;
        self.trace_event(TraceKind::NetRecv { tag, bytes });
    }

    /// Network sends consulted so far (net-fault-sweep probes use this
    /// to size the enumeration).
    pub fn net_msgs(&self) -> u64 {
        self.state.lock().stats.net_msgs
    }

    /// Which of `n` buffered writes survive a crash, per the plan's
    /// [`TornMode`]. Pure function of the runtime seed and the mode, so
    /// replays tear identically.
    pub fn torn_keep(&self, n: usize) -> Vec<bool> {
        let (torn, seed) = {
            let s = self.state.lock();
            (s.faults.torn, s.seed)
        };
        match torn {
            None | Some(TornMode::KeepAll) => vec![true; n],
            Some(TornMode::KeepNone) => vec![false; n],
            Some(TornMode::Subset(tag)) => (0..n)
                .map(|i| {
                    let bits =
                        splitmix64(seed ^ tag ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    bits & 1 == 1
                })
                .collect(),
        }
    }

    /// Spawns a virtual thread. It does not run until granted.
    pub fn spawn(
        self: &Arc<Self>,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce() + Send + 'static,
    ) -> Tid {
        let name = name.into();
        // Spawn order determines thread ids (and hence the schedule's
        // choice indices), so spawns from within a step never commute.
        self.note_access(res::ALLOC, true);
        let traced_name = self.tracing_enabled().then(|| name.to_string());
        let (rt, quiet) = (Arc::clone(self), QUIET_PANICS.with(Cell::get));
        let tid = {
            let mut s = self.state.lock();
            let tid = s.thread_table.len();
            // Only primes a stack: the body first runs when granted (or
            // is dropped unrun by a crash).
            let ctx = coro::spawn(move || rt.thread_main(tid, quiet, f));
            s.thread_table.push(ThreadMeta {
                state: TState::Registered,
                name,
                ctx,
            });
            s.live += 1;
            tid
        };
        if let Some(name) = traced_name {
            self.trace_event_for(Some(tid), TraceKind::Spawn { name });
        }
        tid
    }

    /// A virtual thread from its first switch-in to its end, on its own
    /// stack. Returns where the baton goes from here.
    fn thread_main(&self, tid: Tid, quiet: bool, body: impl FnOnce()) -> Ctx {
        CURRENT_TID.with(|c| c.set(Some(tid)));
        QUIET_PANICS.with(|q| q.set(quiet));
        // First switched to by a grant or by a crash. A thread crashed
        // before its first grant has nothing to unwind: its body is
        // dropped unrun.
        let started = !self.state.lock().poisoned;
        let ended = catch_unwind(AssertUnwindSafe(move || {
            if started {
                body()
            }
        }));
        // Whoever resumes next restores its own; a root that never saved
        // any (an OS thread retiring its contexts) finds the defaults.
        CURRENT_TID.with(|c| c.set(None));
        QUIET_PANICS.with(|q| q.set(false));
        let kind = match ended {
            Ok(()) if started => None,
            Ok(()) => Some(PanicKind::CrashUnwind),
            // The OS thread is ending under a thread nobody reaped: not
            // an outcome of the execution.
            Err(payload) if payload.is::<coro::Retired>() => resume_unwind(payload),
            Err(payload) => Some(classify_panic(payload)),
        };
        self.thread_done(tid, kind)
    }

    /// The virtual thread id of the caller, if it is a virtual thread.
    pub fn current_tid() -> Option<Tid> {
        CURRENT_TID.with(|c| c.get())
    }

    /// Baton passes made by this runtime so far: context switches, each
    /// of which was an OS-thread wake-up before virtual threads became
    /// contexts (hence the name; the numbers are the same). A [`run`]
    /// costs one to its first thread and one back to the controller when
    /// the baton comes home; inside it a step that runs on costs none and
    /// a switch to another thread one. [`grant`] is a run of one step, so
    /// two. A crash costs one per live thread — each unwinds and passes
    /// straight to the next — plus the one back from the last. A
    /// deterministic proxy for the hand-off cost of a schedule, kept out
    /// of [`SchedStats`], reports and fingerprints.
    ///
    /// [`run`]: ModelRt::run
    /// [`grant`]: ModelRt::grant
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// Counts one baton pass. Every caller has just borrowed `state`, so
    /// it is the owning OS thread and the only writer: no `lock xadd`.
    fn count_pass(&self) {
        let passes = self.wakeups.load(Ordering::Relaxed);
        self.wakeups.store(passes + 1, Ordering::Relaxed);
    }

    /// Passes the baton to `to`: the one place a context switch is made.
    /// Returns when the baton is passed back to the caller. Callers
    /// release every borrow of the runtime first: `to` runs on this OS
    /// thread and would find it still alive.
    fn pass_to(&self, to: Ctx) {
        self.count_pass();
        // The thread-locals belong to whoever is running: put the
        // caller's back when it resumes, or unwinds from here.
        let _tid = scoped(&CURRENT_TID, CURRENT_TID.with(Cell::get));
        let _quiet = scoped(&QUIET_PANICS, QUIET_PANICS.with(Cell::get));
        coro::switch(to);
    }

    /// Marks `tid` as holding the grant and returns its context, for the
    /// caller to switch to once it has released the state.
    fn mark_granted(&self, s: &mut RtState, tid: Tid) -> Ctx {
        match s.thread_table[tid].state {
            TState::Registered | TState::Paused => {}
            ref other => panic!(
                "grant to non-runnable thread {tid} ({}) in state {:?}",
                s.thread_table[tid].name, other
            ),
        }
        self.trace_event_for(
            Some(tid),
            TraceKind::Grant {
                step: s.stats.steps,
            },
        );
        s.thread_table[tid].state = TState::Granted;
        s.thread_table[tid].ctx
    }

    /// The step boundary, on the thread that holds the baton: `tid`'s
    /// granted step has ended and its state is published. Reports the
    /// step to the pilot and, unless the thread `terminated`, asks it who
    /// runs next. Returns where the baton goes: the picked thread, or
    /// home with no pilot, when it declines, or when nothing is runnable
    /// — and `None` if `tid` itself was picked, and so keeps the baton.
    fn next_holder<'a>(
        &'a self,
        mut s: OwnerGuard<'a, RtState>,
        tid: Tid,
        terminated: bool,
    ) -> Option<Ctx> {
        let mut next = None;
        // Taken out for the call and put back after it: the run's handle
        // is moved, not reference-counted, at every step.
        if let Some(pilot) = s.pilot.take() {
            let mut runnable = std::mem::take(&mut s.runnable_buf);
            runnable.clear();
            runnable.extend(s.runnable());
            // The pilot reads the runtime through its public methods, so
            // it is never called with the state borrowed.
            drop(s);
            {
                let mut pilot = pilot.lock();
                pilot.step_done(self, tid);
                if !terminated && !runnable.is_empty() {
                    next = pilot.pick(self, &runnable);
                }
            }
            s = self.state.lock();
            s.runnable_buf = runnable;
            s.pilot = Some(pilot);
        }
        match next {
            Some(next) => {
                let ctx = self.mark_granted(&mut s, next);
                (next != tid).then_some(ctx)
            }
            None => {
                s.came_home = Some(tid);
                Some(
                    s.controller
                        .expect("a granted step has a controller waiting on it"),
                )
            }
        }
    }

    /// Ends a granted step at a yield or a block: publishes `state`,
    /// passes the baton on and, unless the thread keeps it, is suspended
    /// until the next grant or unwinds with a [`CrashSignal`].
    fn hand_back(&self, mut s: OwnerGuard<'_, RtState>, tid: Tid, state: TState) {
        s.thread_table[tid].state = state;
        let Some(next) = self.next_holder(s, tid, false) else {
            return;
        };
        self.pass_to(next);
        let s = self.state.lock();
        if s.poisoned {
            drop(s);
            // Not `panic_any`: the quiet hook would drop a `CrashSignal`
            // anyway, so the hook call and its location and message
            // machinery are skipped, once per unwound thread.
            resume_unwind(Box::new(CrashSignal));
        }
        debug_assert_eq!(s.thread_table[tid].state, TState::Granted);
    }

    /// Publishes `tid` as terminated, from the end of its own stack, and
    /// returns where the baton goes. A thread that ends its granted step
    /// this way sends it home; one unwound by a crash passes it to the
    /// next thread to unwind, lowest id first, and the last one home.
    fn thread_done(&self, tid: Tid, kind: Option<PanicKind>) -> Ctx {
        let mut s = self.state.lock();
        let was_granted = s.thread_table[tid].state == TState::Granted;
        s.thread_table[tid].state = match kind {
            None => TState::Done,
            Some(k) => TState::Panicked(k),
        };
        s.live -= 1;
        let next = if was_granted {
            self.next_holder(s, tid, true)
                .expect("a terminated thread is not picked again")
        } else {
            debug_assert!(s.poisoned, "only a crash ends a thread between grants");
            s.next_to_unwind()
        };
        // The switch itself is made by the context's base, once this
        // stack has nothing left on it.
        self.count_pass();
        next
    }

    /// One atomic step boundary: the calling thread's step ends here,
    /// and it returns when the thread is granted its next one (or
    /// unwinds with a crash).
    pub fn yield_point(&self) {
        let tid = match Self::current_tid() {
            Some(t) => t,
            // Controller-context calls (e.g. setup code running outside
            // any virtual thread) are not scheduled.
            None => return,
        };
        let mut s = self.state.lock();
        s.stats.steps += 1;
        if s.stats.steps > s.max_steps {
            let budget = s.max_steps;
            drop(s);
            // Typed payload so the checker can classify the stall as a
            // wedged execution rather than a generic bug.
            std::panic::panic_any(StepBudgetSignal(budget));
        }
        self.hand_back(s, tid, TState::Paused);
    }

    /// Deterministic randomness: depends only on the seed and how many
    /// random draws have happened, so replaying a schedule prefix replays
    /// the same values.
    pub fn rand_u64(&self) -> u64 {
        self.yield_point();
        self.note_access(res::RAND, true);
        let mut s = self.state.lock();
        s.stats.rand_draws += 1;
        splitmix64(s.seed ^ s.stats.rand_draws.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    // ------------------------------------------------------------------
    // Locks.
    // ------------------------------------------------------------------

    /// Allocates a model lock. The lock outlives a crash:
    /// [`ModelRt::crash_all`] releases it and keeps its id, and
    /// [`ModelRt::restore_crashed`] copies it into a fork, released, so a
    /// system allocates its locks once per execution.
    pub fn new_lock(&self) -> LockId {
        // Allocation order determines the lock id.
        self.note_access(res::ALLOC, true);
        let mut s = self.state.lock();
        s.locks.push(LockSlot {
            held_by: None,
            blocks: 0,
        });
        s.locks.len() - 1
    }

    /// Acquires a model lock; one schedule point, then blocks (scheduler-
    /// visibly) until the lock is free.
    ///
    /// Callable from controller context (no virtual thread): the lock is
    /// taken immediately and must be free — with no concurrent virtual
    /// threads running, a held lock would be a self-deadlock.
    pub fn lock_acquire(&self, lock: LockId) {
        let tid = match Self::current_tid() {
            Some(t) => t,
            None => {
                let mut s = self.state.lock();
                assert!(
                    s.locks[lock].held_by.is_none(),
                    "controller-context acquire of a held lock (self-deadlock)"
                );
                s.locks[lock].held_by = Some(CONTROLLER_TID);
                s.stats.lock_acquires += 1;
                return;
            }
        };
        self.yield_point();
        loop {
            // Noted per attempt so a blocked-then-woken retry carries
            // the lock in its own step footprint too.
            self.note_access(res::lock(lock), true);
            let mut s = self.state.lock();
            if s.locks[lock].held_by.is_none() {
                s.locks[lock].held_by = Some(tid);
                s.stats.lock_acquires += 1;
                drop(s);
                self.trace_event(TraceKind::LockAcquire { lock });
                return;
            }
            assert_ne!(
                s.locks[lock].held_by,
                Some(tid),
                "model lock is not reentrant"
            );
            s.stats.lock_blocks += 1;
            s.locks[lock].blocks += 1;
            self.trace_event_for(Some(tid), TraceKind::LockBlock { lock });
            self.hand_back(s, tid, TState::Blocked(lock));
            // Granted after a release: retry the acquire.
        }
    }

    /// Releases a model lock; one schedule point, then wakes waiters.
    pub fn lock_release(&self, lock: LockId) {
        let tid = match Self::current_tid() {
            Some(t) => t,
            None => {
                let mut s = self.state.lock();
                assert_eq!(
                    s.locks[lock].held_by,
                    Some(CONTROLLER_TID),
                    "controller-context release of a lock it does not hold"
                );
                s.locks[lock].held_by = None;
                return;
            }
        };
        self.yield_point();
        self.note_access(res::lock(lock), true);
        let mut s = self.state.lock();
        assert_eq!(
            s.locks[lock].held_by,
            Some(tid),
            "releasing a lock the thread does not hold"
        );
        s.locks[lock].held_by = None;
        for meta in s.thread_table.iter_mut() {
            if meta.state == TState::Blocked(lock) {
                meta.state = TState::Paused;
            }
        }
        self.trace_event_for(Some(tid), TraceKind::LockRelease { lock });
    }

    /// Whether `lock` is currently held (controller-side inspection).
    pub fn lock_held(&self, lock: LockId) -> bool {
        self.state.lock().locks[lock].held_by.is_some()
    }

    // ------------------------------------------------------------------
    // Controller interface.
    // ------------------------------------------------------------------

    /// Runnable thread ids: registered or paused (not blocked/done).
    pub fn runnable(&self) -> Vec<Tid> {
        self.state.lock().runnable().collect()
    }

    /// [`ModelRt::runnable`] into a buffer the caller keeps: `out` is
    /// cleared and refilled, so a controller loop allocates once.
    pub fn runnable_into(&self, out: &mut Vec<Tid>) {
        out.clear();
        out.extend(self.state.lock().runnable());
    }

    /// Whether every virtual thread has terminated (done or panicked).
    pub fn all_done(&self) -> bool {
        self.state.lock().live == 0
    }

    /// Whether some thread is blocked (used for deadlock detection:
    /// runnable empty + not all done = deadlock).
    pub fn any_blocked(&self) -> bool {
        let s = self.state.lock();
        s.thread_table
            .iter()
            .any(|m| matches!(m.state, TState::Blocked(_)))
    }

    /// Grants one step to `tid` and returns when the thread has yielded,
    /// blocked, finished, or panicked: a [`run`](ModelRt::run) with no
    /// pilot, so the first step boundary brings the baton home.
    pub fn grant(&self, tid: Tid) -> StepResult {
        self.drive(None, tid).1
    }

    /// Grants a step to `first` and lets `pilot` schedule from there on
    /// the virtual threads' own stacks: at every step boundary the thread
    /// holding the baton reports its step ([`Pilot::step_done`]) and asks
    /// who is next ([`Pilot::pick`]). Picked itself, it just keeps
    /// running; picking another thread switches to it directly. The
    /// controller is suspended until the baton comes home, which is when
    /// the pilot declines, nothing is runnable, or the running thread
    /// finishes or panicks. Returns the thread that took the last step
    /// and how that step ended; `step_done` has been called for it.
    ///
    /// Stepping the same pilot from the controller — `pick`, [`grant`],
    /// `step_done` — makes the same calls in the same order.
    ///
    /// [`grant`]: ModelRt::grant
    pub fn run(&self, pilot: &SharedPilot, first: Tid) -> (Tid, StepResult) {
        self.drive(Some(Arc::clone(pilot)), first)
    }

    fn drive(&self, pilot: Option<SharedPilot>, first: Tid) -> (Tid, StepResult) {
        let ctx = {
            let mut s = self.state.lock();
            let ctx = self.mark_granted(&mut s, first);
            s.controller = Some(coro::current());
            s.pilot = pilot;
            ctx
        };
        self.pass_to(ctx);
        let mut s = self.state.lock();
        let tid = s
            .came_home
            .take()
            .expect("the baton comes home from the thread that took the last step");
        s.pilot = None;
        let step = match &s.thread_table[tid].state {
            TState::Paused => StepResult::Yielded,
            TState::Blocked(_) => StepResult::Blocked,
            TState::Done => StepResult::Finished,
            TState::Panicked(k) => StepResult::Panicked(k.clone()),
            other => unreachable!("baton came home from a thread in state {other:?}"),
        };
        (tid, step)
    }

    /// Injects a crash: every live virtual thread unwinds with a
    /// [`CrashSignal`] on its own stack (one that never started has its
    /// body dropped unrun), every lock is released (an in-memory lock
    /// comes back unheld after a reboot) and keeps its id and slot, and
    /// the runtime is ready to schedule recovery threads. Returns once no
    /// virtual thread is live.
    ///
    /// Must only be called from the controller between grants (no thread
    /// is running user code at that point).
    pub fn crash_all(&self) {
        let first = {
            let mut s = self.state.lock();
            let step = s.stats.steps;
            self.trace_event_for(None, TraceKind::Crash { step });
            if s.live == 0 {
                None
            } else {
                s.poisoned = true;
                s.controller = Some(coro::current());
                Some(s.next_to_unwind())
            }
        };
        if let Some(first) = first {
            // Comes back from the last thread to unwind.
            self.pass_to(first);
        }
        let mut s = self.state.lock();
        assert_eq!(s.live, 0, "a crash leaves no thread live");
        s.poisoned = false;
        for slot in s.locks.iter_mut() {
            slot.held_by = None;
        }
    }

    /// Overwrites this runtime with what [`ModelRt::crash_all`] would leave
    /// of `from` at this moment, without resuming or unwinding any of
    /// `from`'s threads: every counter, the random-draw and resource-tag
    /// counters, the lock table with its holders wiped (per-lock block
    /// counts kept), and the thread table as dead entries, so the next
    /// spawn gets the id it would get after the crash. The seed, step
    /// bound and fault plan stay this runtime's own. Called from the
    /// controller before this runtime has started a thread.
    pub fn restore_crashed(&self, from: &ModelRt) {
        let src = from.state.lock();
        let mut s = self.state.lock();
        assert_eq!(
            s.live, 0,
            "a runtime is overwritten before it runs a thread"
        );
        let root = coro::current();
        s.thread_table.clear();
        s.thread_table
            .extend(src.thread_table.iter().map(|m| ThreadMeta {
                state: match &m.state {
                    TState::Done => TState::Done,
                    TState::Panicked(k) => TState::Panicked(k.clone()),
                    _ => TState::Panicked(PanicKind::CrashUnwind),
                },
                name: m.name.clone(),
                ctx: root,
            }));
        s.locks.clear();
        s.locks.extend(src.locks.iter().map(|slot| LockSlot {
            held_by: None,
            blocks: slot.blocks,
        }));
        s.stats = src.stats;
        let tags = from.next_tag.load(Ordering::Relaxed);
        self.next_tag.store(tags, Ordering::Relaxed);
    }

    /// Records the runtime as it stands — its lock table, counters,
    /// resource-tag counter and baton passes — as what [`ModelRt::reset`]
    /// restores. A world's builder calls it once the system is built over
    /// the runtime and before anything runs on it.
    pub fn mark_pristine(&self) {
        let mut s = self.state.lock();
        assert_eq!(s.live, 0, "a runtime is marked before it runs a thread");
        s.pristine = Some(Box::new(Pristine {
            locks: s.locks.clone(),
            stats: s.stats,
            tags: self.next_tag.load(Ordering::Relaxed),
            wakeups: self.wakeups(),
        }));
    }

    /// Makes this runtime what [`ModelRt::with_faults`]`(seed, max_steps,
    /// faults)` followed by its builder's work up to
    /// [`ModelRt::mark_pristine`] made it: an empty thread table, the
    /// marked lock table (slots and ids kept, the marked holders and
    /// block counts), counters, resource-tag counter and baton passes, no
    /// footprint or trace recorded and both recorders off. A recorder's
    /// buffer is emptied only if the recorder was on: one that was off
    /// since the last reset recorded nothing. Allocates nothing beyond the
    /// plan's clone. Called from the controller once every thread of the
    /// last execution has ended.
    pub fn reset(&self, seed: u64, max_steps: u64, faults: FaultPlan) {
        let mut s = self.state.lock();
        assert_eq!(s.live, 0, "a runtime is reset with no thread live");
        let s = &mut *s;
        let pristine = s.pristine.as_deref().expect("the runtime was marked");
        s.thread_table.clear();
        s.controller = None;
        s.pilot = None;
        s.came_home = None;
        s.poisoned = false;
        s.locks.clone_from(&pristine.locks);
        s.stats = pristine.stats;
        s.seed = seed;
        s.max_steps = max_steps;
        s.faults = faults;
        self.next_tag.store(pristine.tags, Ordering::Relaxed);
        self.wakeups.store(pristine.wakeups, Ordering::Relaxed);
        // A recorder that was off recorded nothing since the last reset
        // (or the build) emptied its buffer.
        if self.track_deps.swap(false, Ordering::Relaxed) {
            self.cur_accesses.lock().clear();
        }
        if self.tracing.swap(false, Ordering::Relaxed) {
            *self.trace_buf.lock() = TraceBuf::default();
        }
    }

    /// Checks that every virtual thread has terminated (end of a
    /// crash-free execution). Nothing runs while the controller does, so
    /// there is nothing to wait for: threads still suspended at a yield
    /// point or on a lock are a caller bug, to be reaped with
    /// [`ModelRt::crash_all`].
    pub fn join_all(&self) {
        let live = self.state.lock().live;
        assert_eq!(
            live, 0,
            "join_all with {live} virtual thread(s) still suspended: reap them with crash_all"
        );
    }

    /// Total steps scheduled so far.
    pub fn steps(&self) -> u64 {
        self.state.lock().stats.steps
    }

    /// Snapshot of every scheduler-level counter (telemetry feed).
    pub fn sched_stats(&self) -> SchedStats {
        let s = self.state.lock();
        SchedStats {
            threads: s.thread_table.len() as u64,
            ..s.stats
        }
    }

    /// Per-lock contention profile: `(res::lock(id), blocks)` for every
    /// model lock that ever parked a thread, in lock-id order. The
    /// entries sum to [`SchedStats::lock_blocks`] and obey the same
    /// determinism contract: a pure function of the schedule and fault
    /// plan, never of wall-clock time.
    pub fn lock_block_profile(&self) -> Vec<(u64, u64)> {
        let s = self.state.lock();
        s.locks
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.blocks > 0)
            .map(|(id, slot)| (res::lock(id), slot.blocks))
            .collect()
    }

    /// Panic kinds of all panicked threads (excluding crash unwinds).
    pub fn failures(&self) -> Vec<(String, PanicKind)> {
        let s = self.state.lock();
        s.thread_table
            .iter()
            .filter_map(|m| match &m.state {
                TState::Panicked(k) if *k != PanicKind::CrashUnwind => {
                    Some((m.name.to_string(), k.clone()))
                }
                _ => None,
            })
            .collect()
    }
}

/// Classifies an unwind payload into a [`PanicKind`].
fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> PanicKind {
    if payload.is::<CrashSignal>() {
        return PanicKind::CrashUnwind;
    }
    if let Some(sb) = payload.downcast_ref::<StepBudgetSignal>() {
        return PanicKind::StepBudget(sb.0);
    }
    match payload.downcast::<GhostPanic>() {
        Ok(gp) => PanicKind::Ghost(gp.0),
        Err(payload) => match payload.downcast::<UbSignal>() {
            Ok(ub) => PanicKind::Ub(ub.0),
            Err(payload) => {
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                PanicKind::Other(msg)
            }
        },
    }
}

/// SplitMix64, the standard seed-expansion mix.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    // For what the test bodies log into, not for anything of the runtime's.
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Runs all runnable threads round-robin to completion.
    fn run_round_robin(rt: &Arc<ModelRt>) {
        loop {
            let runnable = rt.runnable();
            if runnable.is_empty() {
                assert!(rt.all_done(), "deadlock in test scheduler");
                break;
            }
            for tid in runnable {
                let _ = rt.grant(tid);
            }
        }
        rt.join_all();
    }

    #[test]
    fn threads_interleave_at_yield_points() {
        let rt = ModelRt::new(0, 10_000);
        let log = Arc::new(Mutex::new(Vec::new()));
        for label in ["a", "b"] {
            let rt2 = Arc::clone(&rt);
            let log2 = Arc::clone(&log);
            rt.spawn(label, move || {
                for i in 0..3 {
                    rt2.yield_point();
                    log2.lock().push(format!("{label}{i}"));
                }
            });
        }
        run_round_robin(&rt);
        let log = log.lock();
        assert_eq!(log.len(), 6);
        // Round-robin grants strictly alternate the two threads.
        assert_eq!(*log, vec!["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    /// A drained footprint is what `take_step_accesses` always returned —
    /// sorted by resource, one entry each, a write subsuming the reads —
    /// appended after what the caller's buffer already holds, and the
    /// runtime's own buffer keeps its allocation from step to step.
    #[test]
    fn drained_footprints_are_sorted_deduplicated_and_reuse_the_buffer() {
        let rt = ModelRt::new(0, 10_000);
        rt.set_track_deps(true);
        let rt2 = Arc::clone(&rt);
        let tid = rt.spawn("t", move || {
            for _ in 0..3 {
                for (resource, write) in [(9, false), (3, false), (9, true), (3, false), (5, true)]
                {
                    rt2.note_access(resource, write);
                }
                rt2.yield_point();
            }
        });
        let row = [
            StepAccess::read(3),
            StepAccess::write(5),
            StepAccess::write(9),
        ];
        assert_eq!(rt.grant(tid), StepResult::Yielded);
        let mut out = vec![StepAccess::read(1)];
        rt.drain_step_accesses(&mut out);
        assert_eq!(out[0], StepAccess::read(1), "appended, not replaced");
        assert_eq!(out[1..], row);
        let buf = {
            let cur = rt.cur_accesses.lock();
            assert!(cur.is_empty() && cur.capacity() >= 5);
            cur.as_ptr()
        };
        assert_eq!(rt.grant(tid), StepResult::Yielded);
        assert_eq!(
            rt.take_step_accesses(),
            row,
            "the wrapper drains the same row"
        );
        assert_eq!(
            rt.cur_accesses.lock().as_ptr(),
            buf,
            "one buffer for every step"
        );
        assert_eq!(rt.grant(tid), StepResult::Yielded);
        out.clear();
        rt.drain_step_accesses(&mut out);
        assert_eq!(out, row);
        assert!(rt.take_step_accesses().is_empty(), "drained to nothing");
        assert_eq!(rt.cur_accesses.lock().as_ptr(), buf);
        assert_eq!(rt.grant(tid), StepResult::Finished);
        rt.join_all();
    }

    #[test]
    fn controller_chooses_the_interleaving() {
        // Granting only thread 1 until it finishes serializes it first.
        let rt = ModelRt::new(0, 10_000);
        let ctr = Arc::new(AtomicU64::new(0));
        let mut finish_order = Vec::new();
        for t in 0..2u64 {
            let rt2 = Arc::clone(&rt);
            let ctr2 = Arc::clone(&ctr);
            rt.spawn(format!("t{t}"), move || {
                rt2.yield_point();
                ctr2.fetch_add(t + 1, Ordering::SeqCst);
            });
        }
        // Drive tid 1 to completion first, then tid 0.
        for tid in [1usize, 0] {
            loop {
                match rt.grant(tid) {
                    StepResult::Finished => break,
                    StepResult::Yielded => continue,
                    other => panic!("unexpected {other:?}"),
                }
            }
            finish_order.push(tid);
        }
        rt.join_all();
        assert_eq!(finish_order, vec![1, 0]);
        assert_eq!(ctr.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn locks_block_and_wake() {
        let rt = ModelRt::new(0, 10_000);
        let lock = rt.new_lock();
        let order = Arc::new(Mutex::new(Vec::new()));
        for label in ["first", "second"] {
            let rt2 = Arc::clone(&rt);
            let order2 = Arc::clone(&order);
            rt.spawn(label, move || {
                rt2.lock_acquire(lock);
                order2.lock().push(format!("{label}-in"));
                rt2.yield_point();
                order2.lock().push(format!("{label}-out"));
                rt2.lock_release(lock);
            });
        }
        run_round_robin(&rt);
        let order = order.lock();
        // Critical sections never interleave.
        assert_eq!(order.len(), 4);
        let first_in = order[0].trim_end_matches("-in").to_string();
        assert_eq!(order[1], format!("{first_in}-out"));
    }

    #[test]
    fn blocked_thread_reported_not_runnable() {
        let rt = ModelRt::new(0, 10_000);
        let lock = rt.new_lock();
        let rt_a = Arc::clone(&rt);
        rt.spawn("holder", move || {
            rt_a.lock_acquire(lock);
            rt_a.yield_point(); // hold across a step
            rt_a.lock_release(lock);
        });
        let rt_b = Arc::clone(&rt);
        rt.spawn("waiter", move || {
            rt_b.lock_acquire(lock);
            rt_b.lock_release(lock);
        });
        // Let holder take the lock.
        assert_eq!(rt.grant(0), StepResult::Yielded); // acquire point
        assert_eq!(rt.grant(0), StepResult::Yielded); // inner yield: now holds
                                                      // Waiter reaches its acquire point, then blocks.
        assert_eq!(rt.grant(1), StepResult::Yielded);
        assert_eq!(rt.grant(1), StepResult::Blocked);
        assert!(!rt.runnable().contains(&1));
        // Holder releases; waiter becomes runnable and finishes.
        loop {
            if rt.grant(0) == StepResult::Finished {
                break;
            }
        }
        assert!(rt.runnable().contains(&1));
        loop {
            if rt.grant(1) == StepResult::Finished {
                break;
            }
        }
        rt.join_all();
    }

    #[test]
    fn crash_unwinds_all_threads() {
        let rt = ModelRt::new(0, 10_000);
        let progressed = Arc::new(AtomicU64::new(0));
        for t in 0..3 {
            let rt2 = Arc::clone(&rt);
            let p2 = Arc::clone(&progressed);
            rt.spawn(format!("t{t}"), move || {
                rt2.yield_point();
                p2.fetch_add(1, Ordering::SeqCst);
                rt2.yield_point();
                p2.fetch_add(100, Ordering::SeqCst);
            });
        }
        // One step each, then crash.
        for tid in 0..3 {
            assert_eq!(rt.grant(tid), StepResult::Yielded);
        }
        // Each thread is parked at its first yield_point, before any add.
        assert_eq!(progressed.load(Ordering::SeqCst), 0);
        rt.crash_all();
        // No thread performed its second increment.
        assert_eq!(progressed.load(Ordering::SeqCst), 0);
        assert!(rt.all_done());
        // Crash unwinds are not failures.
        assert!(rt.failures().is_empty());
    }

    #[test]
    fn crash_releases_locks() {
        let rt = ModelRt::new(0, 10_000);
        let lock = rt.new_lock();
        let rt2 = Arc::clone(&rt);
        rt.spawn("holder", move || {
            rt2.lock_acquire(lock);
            rt2.yield_point();
            rt2.lock_release(lock);
        });
        assert_eq!(rt.grant(0), StepResult::Yielded);
        assert_eq!(rt.grant(0), StepResult::Yielded);
        assert!(rt.lock_held(lock));
        rt.crash_all();
        assert!(!rt.lock_held(lock));
    }

    #[test]
    fn user_panic_classified_as_other() {
        let rt = ModelRt::new(0, 10_000);
        let rt2 = Arc::clone(&rt);
        rt.spawn("bug", move || {
            rt2.yield_point();
            panic!("boom");
        });
        assert_eq!(rt.grant(0), StepResult::Yielded);
        match rt.grant(0) {
            StepResult::Panicked(PanicKind::Other(msg)) => assert!(msg.contains("boom")),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rt.failures().len(), 1);
        rt.join_all();
    }

    #[test]
    fn step_budget_exhaustion_is_classified_as_wedged() {
        let rt = ModelRt::new(0, 16);
        let rt2 = Arc::clone(&rt);
        rt.spawn("spin", move || loop {
            rt2.yield_point();
        });
        let mut wedged = false;
        for _ in 0..64 {
            match rt.grant(0) {
                StepResult::Yielded => {}
                StepResult::Panicked(PanicKind::StepBudget(budget)) => {
                    assert_eq!(budget, 16);
                    wedged = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(wedged, "spinner never hit the step budget");
        rt.join_all();
    }

    #[test]
    fn sched_stats_count_every_primitive() {
        let rt = ModelRt::new(0, 10_000);
        let lock = rt.new_lock();
        for label in ["a", "b"] {
            let rt2 = Arc::clone(&rt);
            rt.spawn(label, move || {
                rt2.lock_acquire(lock);
                rt2.yield_point(); // hold across a step to force contention
                rt2.lock_release(lock);
                let _ = rt2.rand_u64();
            });
        }
        run_round_robin(&rt);
        let stats = rt.sched_stats();
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.lock_acquires, 2);
        assert!(
            stats.lock_blocks >= 1,
            "round-robin over a held lock must park at least once: {stats:?}"
        );
        assert_eq!(stats.rand_draws, 2);
        assert_eq!(stats.steps, rt.steps());
        assert!(stats.steps > 0);
        assert_eq!(stats.disk_ops, 0);
        assert_eq!(stats.net_msgs, 0);
        assert_eq!(stats.disk_reads, 0);
        assert_eq!(stats.disk_writes, 0);
        assert_eq!(stats.disk_flushes, 0);
        assert_eq!(stats.net_sends, 0);
        assert_eq!(stats.net_recvs, 0);
    }

    /// A crashed copy starts from every counter its source reached, and
    /// from its thread table.
    #[test]
    fn restore_crashed_copies_every_counter() {
        let rt = ModelRt::new(0, 10_000);
        let lock = rt.new_lock();
        for label in ["a", "b"] {
            let rt2 = Arc::clone(&rt);
            rt.spawn(label, move || {
                rt2.lock_acquire(lock);
                rt2.yield_point(); // hold across a step to force contention
                rt2.lock_release(lock);
                let _ = rt2.rand_u64();
                let _ = rt2.next_disk_op_faulty();
                rt2.note_disk_read(0, 1);
                rt2.note_disk_write_through(0, 2);
                rt2.note_disk_flush(0, 1);
                let _ = rt2.next_net_fault();
                rt2.note_net_send(1, 8);
                rt2.note_net_recv(1, 8);
            });
        }
        run_round_robin(&rt);
        let stats = rt.sched_stats();
        assert!(stats.lock_blocks >= 1, "{stats:?}");
        assert_eq!(stats.rand_draws, 2);
        assert_eq!((stats.disk_ops, stats.net_msgs), (2, 2));
        let copy = ModelRt::new(1, 10_000);
        copy.restore_crashed(&rt);
        assert_eq!(copy.sched_stats(), stats);
    }

    #[test]
    fn lock_block_profile_attributes_contention_per_lock() {
        let rt = ModelRt::new(0, 10_000);
        let hot = rt.new_lock();
        let cold = rt.new_lock();
        for label in ["a", "b"] {
            let rt2 = Arc::clone(&rt);
            rt.spawn(label, move || {
                rt2.lock_acquire(hot);
                rt2.yield_point(); // hold across a step to force contention
                rt2.lock_release(hot);
            });
        }
        run_round_robin(&rt);
        let stats = rt.sched_stats();
        let profile = rt.lock_block_profile();
        assert!(stats.lock_blocks >= 1);
        assert_eq!(
            profile.iter().map(|(_, n)| n).sum::<u64>(),
            stats.lock_blocks,
            "per-lock counts must sum to the total: {profile:?}"
        );
        assert!(
            profile.iter().all(|(r, _)| *r != res::lock(cold)),
            "an uncontended lock must not appear: {profile:?}"
        );
        assert_eq!(profile[0].0, res::lock(hot));
    }

    #[test]
    fn model_op_hooks_feed_the_new_counters() {
        let rt = ModelRt::new(0, 10_000);
        rt.note_disk_read(0, 3);
        rt.note_disk_write(0, 3);
        rt.note_disk_write_through(0, 4);
        rt.note_disk_flush(0, 2);
        rt.note_net_send(1, 16);
        rt.note_net_send(1, 16);
        rt.note_net_recv(1, 16);
        let stats = rt.sched_stats();
        assert_eq!(stats.disk_reads, 1);
        assert_eq!(stats.disk_writes, 2, "write-through counts as a write");
        assert_eq!(stats.disk_flushes, 2, "write-through counts as a flush");
        assert_eq!(stats.net_sends, 2);
        assert_eq!(stats.net_recvs, 1);
    }

    #[test]
    fn tracing_is_a_pure_side_channel() {
        let run = |traced: bool| {
            let rt = ModelRt::new(5, 10_000);
            rt.set_tracing(traced);
            let lock = rt.new_lock();
            for label in ["a", "b"] {
                let rt2 = Arc::clone(&rt);
                rt.spawn(label, move || {
                    rt2.lock_acquire(lock);
                    rt2.yield_point();
                    rt2.lock_release(lock);
                });
            }
            run_round_robin(&rt);
            (rt.sched_stats(), rt.take_trace())
        };
        let (stats_off, trace_off) = run(false);
        let (stats_on, trace_on) = run(true);
        assert_eq!(stats_off, stats_on, "tracing must not perturb counters");
        assert!(trace_off.events.is_empty());
        assert!(!trace_on.events.is_empty());
        assert_eq!(trace_on.threads, vec!["a".to_string(), "b".to_string()]);
        // The hand-off: some acquire carries a causal edge to a release.
        let handoff = trace_on
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::LockAcquire { .. }) && e.happens_after.is_some());
        assert!(handoff, "no lock hand-off edge in {:#?}", trace_on.events);
    }

    #[test]
    fn crash_is_traced_with_its_step() {
        let rt = ModelRt::new(0, 10_000);
        rt.set_tracing(true);
        let rt2 = Arc::clone(&rt);
        rt.spawn("w", move || {
            rt2.yield_point();
            rt2.yield_point();
        });
        assert_eq!(rt.grant(0), StepResult::Yielded);
        rt.crash_all();
        let trace = rt.take_trace();
        let crash = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::Crash { .. }))
            .expect("crash event recorded");
        assert_eq!(crash.tid, None, "crashes are controller events");
    }

    #[test]
    fn sched_stats_are_deterministic_per_schedule() {
        let run = || {
            let rt = ModelRt::new(3, 10_000);
            let lock = rt.new_lock();
            for t in 0..3 {
                let rt2 = Arc::clone(&rt);
                rt.spawn(format!("t{t}"), move || {
                    rt2.lock_acquire(lock);
                    rt2.yield_point();
                    rt2.lock_release(lock);
                });
            }
            run_round_robin(&rt);
            rt.sched_stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rand_is_deterministic_per_schedule() {
        let draws = |seed: u64| -> Vec<u64> {
            let rt = ModelRt::new(seed, 10_000);
            let out = Arc::new(Mutex::new(Vec::new()));
            let rt2 = Arc::clone(&rt);
            let out2 = Arc::clone(&out);
            rt.spawn("r", move || {
                for _ in 0..4 {
                    out2.lock().push(rt2.rand_u64());
                }
            });
            run_round_robin(&rt);
            let v = out.lock().clone();
            v
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn a_grant_costs_two_wakeups_whoever_else_is_parked() {
        for bystanders in [1usize, 8] {
            let rt = ModelRt::new(0, 10_000);
            for t in 0..=bystanders {
                let rt2 = Arc::clone(&rt);
                rt.spawn(format!("t{t}"), move || loop {
                    rt2.yield_point();
                });
            }
            // Park every bystander at a yield point; a first grant (which
            // starts the body on its carrier) costs the same two.
            for tid in 1..=bystanders {
                let before = rt.wakeups();
                assert_eq!(rt.grant(tid), StepResult::Yielded);
                assert_eq!(rt.wakeups() - before, 2);
            }
            const GRANTS: u64 = 100;
            let before = rt.wakeups();
            for _ in 0..GRANTS {
                assert_eq!(rt.grant(0), StepResult::Yielded);
            }
            assert_eq!(
                rt.wakeups() - before,
                2 * GRANTS,
                "one to the granted thread, one back, with {bystanders} parked"
            );
            // A crash wakes each live thread once; the last one to unwind
            // hands the baton back.
            let before = rt.wakeups();
            rt.crash_all();
            assert_eq!(rt.wakeups() - before, (bystanders as u64 + 1) + 1);
            assert!(rt.all_done());
        }
    }

    #[test]
    fn blocking_on_a_lock_hands_back_once_and_release_wakes_nobody() {
        let rt = ModelRt::new(0, 10_000);
        let lock = rt.new_lock();
        for label in ["holder", "waiter"] {
            let rt2 = Arc::clone(&rt);
            rt.spawn(label, move || {
                rt2.lock_acquire(lock);
                rt2.yield_point();
                rt2.lock_release(lock);
            });
        }
        assert_eq!(rt.grant(0), StepResult::Yielded); // acquire point
        assert_eq!(rt.grant(0), StepResult::Yielded); // holds the lock
        assert_eq!(rt.grant(1), StepResult::Yielded); // acquire point
        let before = rt.wakeups();
        assert_eq!(rt.grant(1), StepResult::Blocked);
        assert_eq!(rt.wakeups() - before, 2);
        // The release step makes the waiter runnable without waking it.
        let before = rt.wakeups();
        assert_eq!(rt.grant(0), StepResult::Yielded); // release point
        assert_eq!(rt.grant(0), StepResult::Finished); // releases, returns
        assert_eq!(rt.wakeups() - before, 4);
        assert_eq!(rt.runnable(), vec![1]);
        run_round_robin(&rt);
    }

    /// A pilot that follows a script of picks and sends the baton home
    /// when the script runs out, or — with `stop_at` — before granting
    /// its `stop_at`-th step, as the explorer does at a crash point or a
    /// disk-failure grant count. Logs every step it is told about.
    #[derive(Default)]
    struct Script {
        picks: std::collections::VecDeque<Tid>,
        stop_at: Option<u64>,
        steps: u64,
        done: Vec<Tid>,
    }

    impl Script {
        fn shared(picks: &[Tid], stop_at: Option<u64>) -> PilotCell<Script> {
            shared_pilot(Script {
                picks: picks.iter().copied().collect(),
                stop_at,
                ..Script::default()
            })
        }
    }

    impl Pilot for Script {
        fn step_done(&mut self, _rt: &ModelRt, tid: Tid) {
            self.steps += 1;
            self.done.push(tid);
        }

        fn pick(&mut self, _rt: &ModelRt, runnable: &[Tid]) -> Option<Tid> {
            if self.stop_at == Some(self.steps) {
                return None;
            }
            let tid = self.picks.pop_front()?;
            assert!(runnable.contains(&tid), "script picks parked thread {tid}");
            Some(tid)
        }
    }

    /// `n` threads that log `(thread, iteration)` after every yield.
    fn spawn_loggers(rt: &Arc<ModelRt>, n: usize) -> Arc<Mutex<Vec<(usize, u64)>>> {
        let log = Arc::new(Mutex::new(Vec::new()));
        for t in 0..n {
            let (rt2, log2) = (Arc::clone(rt), Arc::clone(&log));
            rt.spawn(format!("t{t}"), move || {
                for i in 0.. {
                    rt2.yield_point();
                    log2.lock().push((t, i));
                }
            });
        }
        log
    }

    #[test]
    fn a_run_of_same_thread_steps_costs_two_wakeups_in_total() {
        for k in [1usize, 2, 50] {
            let rt = ModelRt::new(0, 10_000);
            spawn_loggers(&rt, 3);
            let script = Script::shared(&vec![1; k - 1], None);
            let pilot: SharedPilot = script.clone();
            assert_eq!(rt.run(&pilot, 1), (1, StepResult::Yielded));
            assert_eq!(rt.wakeups(), 2, "{k} steps: one out, one home");
            assert_eq!(rt.steps(), k as u64);
            assert_eq!(script.lock().done, vec![1; k]);
            rt.crash_all();
        }
    }

    #[test]
    fn a_switch_inside_a_run_costs_one_wakeup() {
        let rt = ModelRt::new(0, 10_000);
        let log = spawn_loggers(&rt, 2);
        // 0 0 | 1 1 1 | 0 | 1: three switches.
        let script = Script::shared(&[0, 1, 1, 1, 0, 1], None);
        let pilot: SharedPilot = script.clone();
        assert_eq!(rt.run(&pilot, 0), (1, StepResult::Yielded));
        assert_eq!(rt.wakeups(), 2 + 3);
        assert_eq!(script.lock().done, vec![0, 0, 1, 1, 1, 0, 1]);
        // A thread's first step only reaches its first yield; each later
        // one logs.
        assert_eq!(*log.lock(), vec![(0, 0), (1, 0), (1, 1), (0, 1), (1, 2)]);
        rt.crash_all();
    }

    #[test]
    fn a_blocked_step_passes_the_baton_straight_to_the_next_pick() {
        let rt = ModelRt::new(0, 10_000);
        let lock = rt.new_lock();
        for label in ["holder", "waiter"] {
            let rt2 = Arc::clone(&rt);
            rt.spawn(label, move || {
                rt2.lock_acquire(lock);
                rt2.yield_point();
                rt2.lock_release(lock);
            });
        }
        // Holder takes the lock (2 steps); waiter reaches its acquire and
        // blocks (2 steps); holder releases and returns (2 steps).
        let script = Script::shared(&[0, 1, 1, 0, 0], None);
        let pilot: SharedPilot = script.clone();
        assert_eq!(rt.run(&pilot, 0), (0, StepResult::Finished));
        // Out, holder→waiter, waiter (blocked)→holder, home.
        assert_eq!(rt.wakeups(), 4);
        assert_eq!(rt.sched_stats().lock_blocks, 1);
        assert_eq!(
            rt.runnable(),
            vec![1],
            "the release made the waiter runnable"
        );
        // A run whose only runnable thread blocks comes home by itself.
        let rt = ModelRt::new(0, 10_000);
        let lock = rt.new_lock();
        rt.lock_acquire(lock); // held by the controller: never released
        let rt2 = Arc::clone(&rt);
        rt.spawn("stuck", move || rt2.lock_acquire(lock));
        let pilot: SharedPilot = Script::shared(&[0, 0, 0], None);
        assert_eq!(rt.run(&pilot, 0), (0, StepResult::Blocked));
        assert!(rt.runnable().is_empty() && rt.any_blocked());
        rt.crash_all();
    }

    /// Drives `script` to its first refusal: on the carriers (`run`), or
    /// from the controller one `grant` at a time.
    fn drive(rt: &ModelRt, script: &PilotCell<Script>, on_carriers: bool) -> (Tid, StepResult) {
        let first = script
            .lock()
            .pick(rt, &rt.runnable())
            .expect("a first pick");
        if on_carriers {
            let pilot: SharedPilot = script.clone();
            return rt.run(&pilot, first);
        }
        let mut tid = first;
        loop {
            let step = rt.grant(tid);
            let mut script = script.lock();
            script.step_done(rt, tid);
            let runnable = rt.runnable();
            let next = match step {
                StepResult::Yielded | StepResult::Blocked if !runnable.is_empty() => {
                    script.pick(rt, &runnable)
                }
                _ => None,
            };
            match next {
                Some(next) => tid = next,
                None => return (tid, step),
            }
        }
    }

    #[test]
    fn a_run_stops_exactly_where_the_pilot_declines() {
        let picks: Vec<Tid> = (0..40).map(|i| [0, 0, 1, 2, 2, 2, 1][i % 7]).collect();
        for stop_at in 1..30u64 {
            let observe = |on_carriers: bool| {
                let rt = ModelRt::new(0, 10_000);
                let log = spawn_loggers(&rt, 3);
                let script = Script::shared(&picks, Some(stop_at));
                let home = drive(&rt, &script, on_carriers);
                // The boundary a crash or a disk failure is injected at.
                let at_stop = (
                    home,
                    rt.sched_stats(),
                    rt.runnable(),
                    log.lock().clone(),
                    script.lock().done.clone(),
                );
                rt.crash_all();
                assert!(rt.all_done() && rt.failures().is_empty());
                let logged_after_crash = log.lock().len();
                (at_stop, logged_after_crash)
            };
            let (stepwise, on_carriers) = (observe(false), observe(true));
            assert_eq!(stepwise, on_carriers, "stop at {stop_at}");
            assert_eq!(stepwise.0 .1.steps, stop_at);
            assert_eq!(stepwise.1, stepwise.0 .3.len(), "the crash ran no step");
        }
    }

    #[test]
    fn a_wedge_or_a_panic_inside_a_run_comes_home_from_its_thread() {
        // Step budget: the 17th yield of the run, whoever takes it.
        let rt = ModelRt::new(0, 16);
        spawn_loggers(&rt, 2);
        let picks: Vec<Tid> = (0..40).map(|i| i % 3 % 2).collect();
        let pilot: SharedPilot = Script::shared(&picks, None);
        let wedged = picks[15]; // the first grant is not a pick
        assert_eq!(
            rt.run(&pilot, 0),
            (wedged, StepResult::Panicked(PanicKind::StepBudget(16)))
        );
        rt.crash_all();

        // A plain panic, three steps into another thread's company.
        let rt = ModelRt::new(0, 10_000);
        spawn_loggers(&rt, 1);
        let rt2 = Arc::clone(&rt);
        rt.spawn("bug", move || {
            rt2.yield_point();
            rt2.yield_point();
            panic!("boom");
        });
        let script = Script::shared(&[1, 0, 0, 1, 1, 0, 0], None);
        let pilot: SharedPilot = script.clone();
        let before = rt.wakeups();
        match rt.run(&pilot, 0) {
            (1, StepResult::Panicked(PanicKind::Other(msg))) => assert!(msg.contains("boom")),
            other => panic!("unexpected {other:?}"),
        }
        // Out, 0→1, 1→0, 0→1, home; the panicking step was reported.
        assert_eq!(rt.wakeups() - before, 5);
        assert_eq!(script.lock().done, vec![0, 1, 0, 0, 1, 1]);
        assert_eq!(rt.failures()[0].0, "bug");
        assert_eq!(rt.runnable(), vec![0], "the rest of the script never ran");
        rt.crash_all();
    }

    #[test]
    fn a_crash_ahead_of_the_first_grant_costs_the_same_every_time() {
        for _ in 0..200 {
            let rt = ModelRt::new(0, 10_000);
            spawn_loggers(&rt, 3);
            rt.crash_all();
            assert_eq!(rt.wakeups(), 3 + 1);
        }
    }

    #[test]
    fn a_crash_drops_a_body_that_never_started_without_running_it() {
        let rt = ModelRt::new(0, 10_000);
        let owned = Arc::new(());
        let ran = Arc::new(AtomicBool::new(false));
        let (owned2, ran2) = (Arc::clone(&owned), Arc::clone(&ran));
        rt.spawn("never granted", move || {
            let _owned = owned2;
            ran2.store(true, Ordering::SeqCst);
        });
        rt.crash_all();
        assert!(rt.all_done() && rt.failures().is_empty());
        assert!(!ran.load(Ordering::SeqCst));
        assert_eq!(Arc::strong_count(&owned), 1, "the body was dropped");
    }

    /// What a foreign OS thread is told when it does `what` to a runtime.
    fn refused<R: Send + 'static>(what: impl FnOnce() -> R + Send + 'static) -> String {
        let refused = std::thread::spawn(what)
            .join()
            .err()
            .expect("refused from another OS thread");
        let msg = refused.downcast_ref::<String>().cloned();
        msg.unwrap_or_else(|| {
            refused
                .downcast_ref::<&str>()
                .expect("a message")
                .to_string()
        })
    }

    #[test]
    fn a_runtime_is_driven_from_the_os_thread_its_threads_were_spawned_on() {
        let rt = ModelRt::new(0, 10_000);
        spawn_loggers(&rt, 1);
        let ghost = perennial::Ghost::new(perennial_spec::fixtures::RegSpec { size: 1 });
        type Call = fn(&Arc<ModelRt>);
        let foreign: [(&str, Call); 6] = [
            ("grant", |rt| drop(rt.grant(0))),
            ("crash_all", |rt| rt.crash_all()),
            ("spawn", |rt| {
                rt.spawn("theirs", || {});
            }),
            // No yield point, no switch: still the owner's to read.
            ("steps", |rt| {
                rt.steps();
            }),
            ("sched_stats", |rt| {
                rt.sched_stats();
            }),
            ("runnable", |rt| drop(rt.runnable())),
        ];
        for (what, call) in foreign {
            let rt2 = Arc::clone(&rt);
            let msg = refused(move || call(&rt2));
            assert!(msg.contains("another OS thread"), "{what}: {msg}");
        }
        let msg = refused(move || ghost.version());
        assert!(msg.contains("another OS thread"), "Ghost::version: {msg}");
        // Every call was refused before it touched anything.
        assert_eq!(rt.sched_stats().threads, 1);
        assert_eq!(rt.grant(0), StepResult::Yielded);
        rt.crash_all();
    }

    /// A pilot that reads the runtime it steers at every boundary.
    struct Reader {
        seen: Vec<(u64, Vec<Tid>)>,
    }

    impl Pilot for Reader {
        fn step_done(&mut self, rt: &ModelRt, _tid: Tid) {
            assert_eq!(rt.sched_stats().steps, rt.steps());
        }

        fn pick(&mut self, rt: &ModelRt, runnable: &[Tid]) -> Option<Tid> {
            assert_eq!(rt.runnable(), runnable);
            self.seen.push((rt.steps(), runnable.to_vec()));
            (self.seen.len() < 6).then(|| runnable[self.seen.len() % runnable.len()])
        }
    }

    #[test]
    fn the_pilot_is_never_called_with_the_state_borrowed() {
        let rt = ModelRt::new(0, 10_000);
        spawn_loggers(&rt, 2);
        let reader = shared_pilot(Reader { seen: Vec::new() });
        let pilot: SharedPilot = reader.clone();
        assert_eq!(rt.run(&pilot, 0), (1, StepResult::Yielded));
        let seen = std::mem::take(&mut reader.lock().seen);
        assert_eq!(
            seen.iter().map(|(steps, _)| *steps).collect::<Vec<_>>(),
            [1, 2, 3, 4, 5, 6],
            "a pick per boundary, each reading the step count through the runtime"
        );
        assert!(seen.iter().all(|(_, r)| r == &[0, 1]));
        // The handle was put back after every call and dropped by `run`.
        assert_eq!(Arc::strong_count(&reader), 2);
        rt.crash_all();
    }

    #[test]
    fn quiet_worker_panics_is_scoped_even_when_the_closure_unwinds() {
        install_quiet_hook();
        let unwound = catch_unwind(|| {
            quiet_worker_panics(|| {
                assert!(QUIET_PANICS.with(|q| q.get()));
                std::panic::panic_any(CrashSignal);
            })
        });
        assert!(unwound.is_err());
        assert!(
            !QUIET_PANICS.with(|q| q.get()),
            "a worker that unwound once must not silence later panics"
        );
    }
}

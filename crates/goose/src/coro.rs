//! Stackful contexts: the substrate virtual threads run on, and the only
//! `unsafe` in the repository.
//!
//! A **context** is a body running on a stack of its own, on the OS
//! thread that spawned it. Control moves by [`switch`]: the caller is
//! suspended where it stands and the target resumes where *it* was
//! suspended (or starts its body). Nothing runs in parallel, and no
//! kernel call, lock or wake-up is involved: a switch saves the
//! callee-saved registers, swaps stack pointers and restores them.
//!
//! **Who may switch to whom.** Switching is symmetric: any context, and
//! the OS thread's own stack (the *root*, [`current`] outside any
//! context), may switch to any other suspended one — on the same OS
//! thread. A [`Ctx`] handle is plain data and may travel anywhere, but
//! [`switch`] checks it against the calling thread's own table before it
//! touches a stack pointer: a handle from another OS thread, or to a
//! context that has finished, panics in the caller and changes nothing.
//! A body ends by returning the context control goes to next; its stack
//! goes back to the thread's free list first (safe, because nothing else
//! runs on this OS thread until the final switch is done).
//!
//! **Unwinding stops at the base.** Every body runs under
//! `catch_unwind`, because an unwind past the bottom of a hand-made
//! stack is undefined. A panic the body lets out hands control to the
//! root and the payload is dropped; callers that care (the scheduler
//! does) catch inside their body.
//!
//! **Nothing is left behind.** When the owning OS thread ends, every
//! context still suspended mid-body is switched to one last time and
//! unwinds with a [`Retired`] payload, so what its frames own is dropped;
//! a body that never started is dropped unrun; then the stacks are
//! unmapped.
//!
//! **Stacks.** 1 MiB usable above a 64 KiB `PROT_NONE` guard, from
//! `mmap`, so only touched pages are resident (a checker worker touches a
//! few tens of KiB per stack) and an overflow faults instead of
//! corrupting a neighbour. Rust probes every page of a large frame, so
//! the guard cannot be stepped over. Stacks are reused most-recent-first
//! and a thread maps as many as it ever had contexts alive at once.
//!
//! **Holding a lock across a switch** deadlocks the OS thread against
//! itself if the context switched to wants the same lock: there is no
//! second thread to release it. This module holds no borrow of its own
//! table across a switch; callers must do the same with their locks.
//!
//! **Targets.** x86-64 and aarch64 Linux. The `switch` routine is the
//! only per-target code; anything else is a compile error rather than a
//! silent fallback to OS threads, so there is one hand-off path.

use std::cell::{Cell, RefCell};
use std::ffi::{c_int, c_void};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "goose::coro has a context switch for x86-64 and aarch64 Linux only; \
     porting means writing `switch` (and the first frame in `Stack::prime`) for the new target"
);

/// Usable bytes of a context's stack.
const STACK_BYTES: usize = 1 << 20;
/// Inaccessible bytes below it. A multiple of every page size in use on
/// the supported targets (4, 16 and 64 KiB), like `STACK_BYTES`.
const GUARD_BYTES: usize = 64 << 10;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// Saves the callee-saved registers on the current stack, makes `to_sp`
/// the stack pointer, restores the registers found there and returns —
/// on the *other* stack, into whoever suspended there, with the stack
/// pointer just left behind as the return value (and as the first
/// argument, for a context entered for the first time).
///
/// The floating-point control words (`mxcsr`, the x87 control word,
/// `fpcr`) are not switched: nothing in a Rust program changes them.
///
/// # Safety
///
/// `to_sp` must be the value this function returned on the stack being
/// switched to, when that stack was last left, or the address
/// [`Stack::prime`] produced for a stack that has not run yet; that stack
/// must be mapped, must belong to the calling OS thread, and `to_sp` must
/// not have been switched to before.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn switch_stacks(to_sp: *mut u8) -> *mut u8 {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov rax, rsp",
        "mov rsp, rdi",
        "mov rdi, rax",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// See the x86-64 version: same contract, AAPCS64 callee-saved set
/// (`x19`–`x30`, `d8`–`d15`), 160 bytes.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn switch_stacks(to_sp: *mut u8) -> *mut u8 {
    core::arch::naked_asm!(
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "mov sp, x0",
        "mov x0, x9",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    )
}

/// Where a new aarch64 context's first `ret` lands: clears the link
/// register, so a backtrace taken inside the context ends at [`enter`]
/// instead of looping through it, and jumps to the address primed in
/// `x19`. (On x86-64 the return address is a stack slot, primed to zero.)
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn boot() {
    core::arch::naked_asm!("mov x30, xzr", "br x19")
}

/// One mapped stack: `GUARD_BYTES` inaccessible, then `STACK_BYTES` of
/// stack growing down towards them.
struct Stack {
    base: *mut u8,
}

impl Stack {
    fn map() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases no existing memory.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mapping a {len}-byte context stack: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack { base: base.cast() };
        // SAFETY: the range is the low end of the mapping made above,
        // which nothing uses yet.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert!(
            rc == 0,
            "protecting a context stack's guard: {}",
            std::io::Error::last_os_error()
        );
        stack
    }

    /// Writes the frame [`switch_stacks`] expects to find, so that the
    /// first switch to this stack "returns" into [`enter`], and gives the
    /// stack pointer to switch to.
    fn prime(&self) -> *mut u8 {
        // SAFETY: `base` maps GUARD_BYTES + STACK_BYTES, so `top` is one
        // past the end of the mapping and the words written below lie in
        // its accessible part. The mapping is page-aligned and both sizes
        // are multiples of 16, so every store is aligned. No context is
        // running on this stack: it is fresh, or its last one finished.
        unsafe {
            let top = self.base.add(GUARD_BYTES + STACK_BYTES).cast::<usize>();
            #[cfg(target_arch = "x86_64")]
            {
                // Six zeroed registers, then the address `ret` pops, then
                // `enter`'s own return address: zero ends a backtrace and
                // leaves the stack pointer where a `call` would (8 mod 16).
                let sp = top.sub(8);
                sp.write_bytes(0, 8);
                sp.add(6).write(enter as *const () as usize);
                sp.cast()
            }
            #[cfg(target_arch = "aarch64")]
            {
                // 160 bytes of zeroed registers: `x19` (slot 0) carries
                // the entry point to `boot`, `x30` (slot 11) is `boot`.
                let sp = top.sub(20);
                sp.write_bytes(0, 20);
                sp.write(enter as *const () as usize);
                sp.add(11).write(boot as *const () as usize);
                sp.cast()
            }
        }
    }

    fn unmap(self) {
        // SAFETY: unmaps exactly the mapping `map` made; the caller gives
        // up the only handle to it, and no context runs on it (stacks are
        // unmapped from the free list only).
        let rc = unsafe { munmap(self.base.cast(), GUARD_BYTES + STACK_BYTES) };
        debug_assert_eq!(rc, 0, "unmapping a context stack");
    }
}

/// A body: runs once, returns the context that gets control next.
type Body = Box<dyn FnOnce() -> Ctx>;

/// Unwind payload of a context that is being retired because its OS
/// thread is ending. A body that catches unwinds must let this one
/// through (`resume_unwind`).
pub(crate) struct Retired;

/// The OS thread's own stack, or a context by its slot in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Who {
    Root,
    Slot(u32),
}

/// A handle to a context, or to the root of an OS thread. Plain data: it
/// can be stored and sent anywhere, but only the OS thread it came from
/// can [`switch`] to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ctx {
    /// The [`Local`] this handle indexes.
    owner: u64,
    who: Who,
    /// The slot's generation when the context was spawned: a slot is
    /// reused, a handle is not.
    gen: u32,
}

struct Slot {
    gen: u32,
    /// `None`: the slot is free.
    stack: Option<Stack>,
    /// Where to resume. Meaningless while the context runs.
    sp: *mut u8,
    /// The body, until the context is first switched to.
    body: Option<Body>,
    /// Set when the OS thread is ending: the context unwinds when resumed.
    retiring: bool,
}

/// One OS thread's contexts. Only ever touched by that thread.
struct Local {
    id: u64,
    slots: RefCell<Vec<Slot>>,
    free_slots: RefCell<Vec<u32>>,
    /// Stacks no context runs on, most recently used last.
    free_stacks: RefCell<Vec<Stack>>,
    /// Where the root resumes, while a context runs.
    root_sp: Cell<*mut u8>,
    current: Cell<Who>,
    /// Who made the last switch, for the side that resumes to file the
    /// stack pointer it was handed; `None` if that context finished.
    previous: Cell<Option<Who>>,
    /// Stacks this thread has mapped and not unmapped.
    #[cfg(test)]
    mapped: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

/// Owns the thread's [`Local`] from the thread-local slot; frames
/// suspended across a switch hold clones, so they never borrow from a
/// slot that is being destroyed.
struct Owner(Rc<Local>);

thread_local! {
    static LOCAL: Owner = Owner(Rc::new(Local::new()));
}

fn local() -> Rc<Local> {
    LOCAL
        .try_with(|o| Rc::clone(&o.0))
        .expect("contexts are unavailable while their OS thread's locals are being destroyed")
}

impl Local {
    fn new() -> Local {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Local {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            slots: RefCell::new(Vec::new()),
            free_slots: RefCell::new(Vec::new()),
            free_stacks: RefCell::new(Vec::new()),
            root_sp: Cell::new(std::ptr::null_mut()),
            current: Cell::new(Who::Root),
            previous: Cell::new(None),
            #[cfg(test)]
            mapped: Default::default(),
        }
    }

    fn handle(&self, who: Who) -> Ctx {
        let gen = match who {
            Who::Root => 0,
            Who::Slot(i) => self.slots.borrow()[i as usize].gen,
        };
        Ctx {
            owner: self.id,
            who,
            gen,
        }
    }

    /// Checks a handle against this thread's table.
    fn resolve(&self, ctx: Ctx) -> Who {
        assert!(
            ctx.owner == self.id,
            "context {ctx:?} belongs to another OS thread: \
             a context runs only on the thread that spawned it"
        );
        if let Who::Slot(i) = ctx.who {
            let slots = self.slots.borrow();
            let slot = &slots[i as usize];
            assert!(
                slot.stack.is_some() && slot.gen == ctx.gen,
                "context {ctx:?} has already finished"
            );
        }
        ctx.who
    }

    fn spawn(&self, body: Body) -> Ctx {
        let stack = self.free_stacks.borrow_mut().pop().unwrap_or_else(|| {
            #[cfg(test)]
            self.mapped.fetch_add(1, Ordering::Relaxed);
            Stack::map()
        });
        let sp = stack.prime();
        let mut slots = self.slots.borrow_mut();
        let i = self.free_slots.borrow_mut().pop().unwrap_or_else(|| {
            slots.push(Slot {
                gen: 0,
                stack: None,
                sp: std::ptr::null_mut(),
                body: None,
                retiring: false,
            });
            u32::try_from(slots.len() - 1).expect("fewer than 2^32 contexts on one OS thread")
        });
        let slot = &mut slots[i as usize];
        slot.stack = Some(stack);
        slot.sp = sp;
        slot.body = Some(body);
        Ctx {
            owner: self.id,
            who: Who::Slot(i),
            gen: slot.gen,
        }
    }

    /// Frees slot `i` and puts its stack on the free list. The stack may
    /// be the one this call runs on: it is not reused before the next
    /// `spawn`, which the caller never reaches.
    fn release(&self, i: u32) {
        let stack = {
            let mut slots = self.slots.borrow_mut();
            let slot = &mut slots[i as usize];
            slot.gen = slot.gen.wrapping_add(1);
            slot.retiring = false;
            slot.stack.take().expect("releasing an occupied slot")
        };
        self.free_slots.borrow_mut().push(i);
        self.free_stacks.borrow_mut().push(stack);
    }

    /// Makes `to` the running context and gives the stack pointer to
    /// switch to; `from` is what the other side files the old one under.
    fn depart(&self, from: Option<Who>, to: Who) -> *mut u8 {
        self.previous.set(from);
        self.current.set(to);
        match to {
            Who::Root => self.root_sp.get(),
            Who::Slot(i) => self.slots.borrow()[i as usize].sp,
        }
    }

    /// The first thing done on a stack that was just switched to: files
    /// the stack pointer of whoever switched here.
    fn arrive(&self, from_sp: *mut u8) {
        match self.previous.get() {
            Some(Who::Root) => self.root_sp.set(from_sp),
            Some(Who::Slot(i)) => self.slots.borrow_mut()[i as usize].sp = from_sp,
            None => {}
        }
    }

    /// Suspends the running context and resumes `to`; returns when
    /// something switches back.
    fn transfer(&self, to: Who) {
        let me = self.current.get();
        assert!(me != to, "a context cannot switch to itself");
        let to_sp = self.depart(Some(me), to);
        // SAFETY: `to` is not the running context and passed `resolve` (or
        // is a live slot picked by `retire_all`), so it is suspended on a
        // mapped stack of this OS thread — `Local` is reachable only
        // through this thread's thread-local — and `to_sp` is what
        // `arrive` filed when it was last left, or what `prime` wrote.
        // Each filed pointer is used once: the target is now `current`
        // and cannot be switched to again until it has left and filed a
        // new one. No `RefCell` borrow of this table is alive here.
        let from_sp = unsafe { switch_stacks(to_sp) };
        self.arrive(from_sp);
        if let Who::Slot(i) = me {
            if self.slots.borrow()[i as usize].retiring {
                resume_unwind(Box::new(Retired));
            }
        }
    }

    /// Ends the thread's contexts: unstarted bodies are dropped, started
    /// ones unwind, and every stack is unmapped.
    fn retire_all(&self) {
        loop {
            let live = {
                let slots = self.slots.borrow();
                slots.iter().position(|s| s.stack.is_some())
            };
            let Some(i) = live else { break };
            let unstarted = self.slots.borrow_mut()[i].body.take();
            match unstarted {
                Some(body) => {
                    // Dropped with no borrow held: what the body owns may
                    // hold handles, or spawn, as it goes.
                    drop(body);
                    self.release(i as u32);
                }
                None => {
                    self.slots.borrow_mut()[i].retiring = true;
                    self.transfer(Who::Slot(i as u32));
                }
            }
        }
        let stacks = std::mem::take(&mut *self.free_stacks.borrow_mut());
        for stack in stacks {
            stack.unmap();
            #[cfg(test)]
            self.mapped.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for Owner {
    fn drop(&mut self) {
        // Thread-local destructors run on the thread's own stack.
        debug_assert_eq!(self.0.current.get(), Who::Root);
        self.0.retire_all();
    }
}

/// The first frame of every context.
extern "C" fn enter(from_sp: *mut u8) -> ! {
    let to_sp = {
        let local = local();
        local.arrive(from_sp);
        let Who::Slot(me) = local.current.get() else {
            unreachable!("the root has a stack of its own");
        };
        let body = local.slots.borrow_mut()[me as usize].body.take();
        let body = body.expect("a context is entered once");
        // The base of the stack: no unwind may pass it.
        let next = catch_unwind(AssertUnwindSafe(|| local.resolve(body())));
        let retiring = local.slots.borrow()[me as usize].retiring;
        let to = match next {
            Ok(to) if !retiring => to,
            // Retired contexts were resumed from the root; an escaped
            // panic has nowhere better to go. The payload is dropped.
            _ => Who::Root,
        };
        local.release(me);
        local.depart(None, to)
    };
    // SAFETY: as in `transfer` — `to` was resolved, or is the root, which
    // is suspended whenever a context runs. This stack is on the free
    // list already, which is sound because nothing can pop it before
    // this switch completes, and nothing ever switches back here: no
    // frame above this one is live and every local of this function has
    // been dropped.
    unsafe { switch_stacks(to_sp) };
    unreachable!("a finished context was resumed");
}

/// The running context: the root of the calling OS thread, or the context
/// whose body is executing.
pub(crate) fn current() -> Ctx {
    let local = local();
    local.handle(local.current.get())
}

/// Creates a context that will run `body` on a stack of its own, on this
/// OS thread, when first switched to. `body` returns the context that
/// gets control when it is done.
pub(crate) fn spawn(body: impl FnOnce() -> Ctx + 'static) -> Ctx {
    local().spawn(Box::new(body))
}

/// Suspends the caller and resumes `to`. Returns when some context
/// switches back to the caller — or unwinds with [`Retired`] if that
/// never happened before the OS thread ended.
///
/// Panics, without switching, if `to` belongs to another OS thread, has
/// finished, or is the caller itself.
pub(crate) fn switch(to: Ctx) {
    let local = local();
    let to = local.resolve(to);
    local.transfer(to);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Runs `f` on an OS thread of its own, so the test sees only its own
    /// contexts and stacks.
    fn on_fresh_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f).join().expect("the test thread")
    }

    fn mapped_here() -> Arc<AtomicUsize> {
        Arc::clone(&local().mapped)
    }

    #[test]
    fn contexts_ping_pong_in_switch_order() {
        let log = on_fresh_thread(|| {
            let log = Rc::new(RefCell::new(Vec::new()));
            let root = current();
            let peer: Rc<Cell<Option<Ctx>>> = Rc::default();
            let (log_a, peer_a) = (Rc::clone(&log), Rc::clone(&peer));
            let a = spawn(move || {
                for i in 0..3 {
                    log_a.borrow_mut().push(format!("a{i}"));
                    switch(peer_a.get().expect("b is spawned before a runs"));
                }
                root
            });
            let log_b = Rc::clone(&log);
            let b = spawn(move || {
                for i in 0..2 {
                    log_b.borrow_mut().push(format!("b{i}"));
                    switch(a);
                }
                log_b.borrow_mut().push("b2".into());
                a
            });
            peer.set(Some(b));
            log.borrow_mut().push("root".into());
            switch(a);
            log.borrow_mut().push("home".into());
            assert_eq!(current(), root);
            let log = log.borrow().clone();
            log
        });
        assert_eq!(
            log,
            ["root", "a0", "b0", "a1", "b1", "a2", "b2", "home"],
            "a finished b hands over to a, a finished a to the root"
        );
    }

    #[test]
    fn a_panic_stops_at_the_base_and_peers_keep_running() {
        on_fresh_thread(|| {
            let root = current();
            let steps = Rc::new(Cell::new(0));
            let steps_p = Rc::clone(&steps);
            let peer = spawn(move || {
                steps_p.set(1);
                switch(root);
                steps_p.set(2);
                root
            });
            switch(peer);
            let bomb = spawn(|| std::panic::panic_any("boom"));
            // Comes back to the root although the body named nobody.
            switch(bomb);
            assert_eq!(steps.get(), 1);
            let finished = catch_unwind(|| switch(bomb)).expect_err("a finished context");
            let msg = finished.downcast_ref::<String>().expect("a message");
            assert!(msg.contains("already finished"), "{msg}");
            switch(peer);
            assert_eq!(steps.get(), 2, "the peer resumed where it was suspended");
        });
    }

    #[test]
    fn a_context_retired_mid_body_runs_its_destructors() {
        let owned = Arc::new(());
        let theirs = Arc::clone(&owned);
        let unstarted = Arc::clone(&owned);
        let mapped = on_fresh_thread(move || {
            let root = current();
            let suspended = spawn(move || {
                let _held = theirs;
                switch(root);
                unreachable!("retired, not resumed");
            });
            spawn(move || {
                let _held = unstarted;
                root
            });
            switch(suspended);
            assert_eq!(mapped_here().load(Ordering::Relaxed), 2);
            mapped_here()
        });
        assert_eq!(
            Arc::strong_count(&owned),
            1,
            "both bodies' captures were dropped with their thread"
        );
        assert_eq!(
            mapped.load(Ordering::Relaxed),
            0,
            "stacks go with the thread"
        );
    }

    #[test]
    fn a_handle_from_another_os_thread_is_refused() {
        // Kept alive until the other thread has tried: otherwise the
        // handle would (also) be stale.
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let owner = std::thread::spawn(move || {
            let root = current();
            tx.send((root, spawn(move || root)))
                .expect("receiver waits");
            let _ = done_rx.recv();
        });
        let (their_root, theirs) = rx.recv().expect("owner sends");
        for handle in [theirs, their_root] {
            let refused = catch_unwind(|| switch(handle)).expect_err("a foreign handle");
            let msg = refused.downcast_ref::<String>().expect("a message");
            assert!(msg.contains("another OS thread"), "{msg}");
        }
        assert_eq!(current().who, Who::Root, "nothing was switched");
        drop(done_tx);
        owner.join().expect("the owner thread");
    }

    #[test]
    fn spawn_finish_cycles_reuse_a_bounded_number_of_stacks() {
        on_fresh_thread(|| {
            let root = current();
            let runs = Rc::new(Cell::new(0u32));
            for _ in 0..10_000 {
                // Two alive at a time: the second runs while the first is
                // suspended, then both finish.
                let runs_a = Rc::clone(&runs);
                let a = spawn(move || {
                    switch(root);
                    runs_a.set(runs_a.get() + 1);
                    root
                });
                let runs_b = Rc::clone(&runs);
                let b = spawn(move || {
                    runs_b.set(runs_b.get() + 1);
                    root
                });
                switch(a);
                switch(b);
                switch(a);
            }
            assert_eq!(runs.get(), 20_000);
            assert_eq!(mapped_here().load(Ordering::Relaxed), 2);
            assert_eq!(local().slots.borrow().len(), 2);
        });
    }

    #[test]
    fn a_frame_of_half_the_stack_fits() {
        on_fresh_thread(|| {
            let root = current();
            let sum = Rc::new(Cell::new(0usize));
            let sum_c = Rc::clone(&sum);
            let c = spawn(move || {
                // Every page touched, top to bottom as a real frame would.
                let mut big = [0u8; STACK_BYTES / 2];
                for i in (0..big.len()).step_by(4096).rev() {
                    big[i] = 1;
                }
                let big = std::hint::black_box(&big);
                sum_c.set(big.iter().map(|&b| b as usize).sum());
                root
            });
            switch(c);
            assert_eq!(sum.get(), STACK_BYTES / 2 / 4096);
        });
    }
}

//! An owner-checked cell: `Mutex`'s call shape for state only one OS
//! thread can reach.
//!
//! Not part of the real `parking_lot`; it lives here because this shim is
//! the one crate every layer of the workspace already depends on.
//!
//! An execution of the model checker — its runtime, ghost engine, pilot
//! and storage models — is built and driven by one OS thread: virtual
//! threads are contexts on that thread, so nothing inside an execution is
//! ever contended. An [`OwnerCell`] states that as a checked rule in
//! place of a lock that never waits:
//!
//! - it records the OS thread that built it, and [`OwnerCell::lock`]
//!   from any other thread panics before the value is touched;
//! - a second `lock()` while a guard is alive panics, naming the caller —
//!   exactly where a mutex would have deadlocked the thread against
//!   itself (a virtual thread that switches away with a guard alive still
//!   holds it, as it held the mutex);
//! - there is no poisoning: a guard dropped by an unwind releases the
//!   borrow, which the runtime's crash unwinds rely on.
//!
//! `lock()` returns a guard, so a call site reads as it did with a mutex.
//! State that real OS threads share keeps a real lock.

use crate::count;
use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};

/// A non-zero id for the calling OS thread, never given to another for
/// the life of the process (unlike the address of a thread-local, which
/// a later thread can inherit).
#[inline]
fn this_thread() -> u32 {
    // Relaxed: the counter publishes nothing, an atomic add alone makes
    // every id distinct.
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static ID: Cell<u32> = const { Cell::new(0) };
    }
    ID.with(|id| {
        if id.get() == 0 {
            let fresh = NEXT
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_add(1))
                .expect("OS thread ids exhausted");
            id.set(fresh);
        }
        id.get()
    })
}

/// A value that only the OS thread that built the cell may borrow, one
/// borrow at a time.
pub struct OwnerCell<T: ?Sized> {
    /// [`this_thread`] of the thread that called [`OwnerCell::new`].
    owner: u32,
    /// Whether a guard is alive. Read and written by the owner only.
    borrowed: Cell<bool>,
    value: UnsafeCell<T>,
}

// SAFETY: moving the cell to another thread moves `value` there (`T:
// Send` covers it, and its drop on that thread); `owner` is a plain
// integer and `borrowed` is false whenever the cell can be moved, since a
// guard borrows the cell. The new thread is not the owner, so all it can
// do with the value is drop it.
unsafe impl<T: ?Sized + Send> Send for OwnerCell<T> {}

// SAFETY: a `&OwnerCell` on a thread other than the owner can only call
// `lock`, which compares `owner` (immutable after `new`) with the caller's
// id and panics before it reads `borrowed` or forms a reference into
// `value`. So `borrowed` and `value` are only ever accessed through `&self`
// by one thread, and never concurrently. `T: Send` because the last
// `Arc<OwnerCell<T>>` may be dropped, and with it the value, on a thread
// that is not the owner. `T: Sync` is not needed: no other thread ever
// obtains a `&T`.
unsafe impl<T: ?Sized + Send> Sync for OwnerCell<T> {}

/// The borrow of an [`OwnerCell`], released on drop (unwinding included).
pub struct OwnerGuard<'a, T: ?Sized> {
    cell: &'a OwnerCell<T>,
    /// A guard stays on the thread that took it: it was checked to be the
    /// owner, another would not be.
    _not_send: PhantomData<*mut ()>,
}

impl<T> OwnerCell<T> {
    /// Wraps `value`; the calling OS thread becomes the owner.
    pub fn new(value: T) -> Self {
        OwnerCell {
            owner: this_thread(),
            borrowed: Cell::new(false),
            value: UnsafeCell::new(value),
        }
    }
}

impl<T: ?Sized> OwnerCell<T> {
    /// Borrows the value.
    ///
    /// # Panics
    ///
    /// Panics if the caller is not the OS thread that built the cell, or
    /// if a guard from an earlier `lock()` is still alive.
    #[inline]
    #[track_caller]
    pub fn lock(&self) -> OwnerGuard<'_, T> {
        if this_thread() != self.owner {
            foreign_thread();
        }
        if self.borrowed.replace(true) {
            reentrant();
        }
        count::cell_borrow();
        OwnerGuard {
            cell: self,
            _not_send: PhantomData,
        }
    }
}

#[cold]
#[track_caller]
fn foreign_thread() -> ! {
    panic!(
        "OwnerCell borrowed from another OS thread: a runtime, its ghost state and its \
         models belong to the OS thread that built them"
    )
}

#[cold]
#[track_caller]
fn reentrant() -> ! {
    panic!(
        "OwnerCell borrowed at {} while an earlier guard is alive: the mutex this cell \
         replaces would have deadlocked here",
        std::panic::Location::caller()
    )
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OwnerCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if this_thread() != self.owner {
            return f.write_str("OwnerCell { <another thread's> }");
        }
        if self.borrowed.get() {
            return f.write_str("OwnerCell { <borrowed> }");
        }
        f.debug_struct("OwnerCell")
            .field("data", &&*self.lock())
            .finish()
    }
}

impl<T: ?Sized> Deref for OwnerGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard was made by `lock` on the owner thread after
        // it found `borrowed` false and set it, and it cannot leave that
        // thread; `borrowed` stays true until this guard drops, so no
        // other guard — hence no other reference into `value` — exists.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T: ?Sized> DerefMut for OwnerGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; `&mut self` makes this the only live
        // reference obtained through the one guard.
        unsafe { &mut *self.cell.value.get() }
    }
}

impl<T: ?Sized> Drop for OwnerGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.cell.borrowed.set(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().expect("a message").to_string(),
        }
    }

    #[test]
    fn the_owner_borrows_one_guard_at_a_time() {
        let cell = OwnerCell::new(vec![1, 2]);
        cell.lock().push(3);
        assert_eq!(*cell.lock(), [1, 2, 3]);
    }

    #[test]
    fn the_cell_is_no_larger_than_the_mutex_it_replaces() {
        use std::mem::size_of;
        assert!(size_of::<OwnerCell<u64>>() <= size_of::<crate::Mutex<u64>>());
        assert!(size_of::<OwnerCell<Vec<u8>>>() <= size_of::<crate::Mutex<Vec<u8>>>());
    }

    #[test]
    fn an_unsized_value_is_borrowed_through_its_trait() {
        trait Bump: Send {
            fn bump(&mut self) -> u32;
        }
        struct Ctr(u32);
        impl Bump for Ctr {
            fn bump(&mut self) -> u32 {
                self.0 += 1;
                self.0
            }
        }
        let typed = Arc::new(OwnerCell::new(Ctr(0)));
        let erased: Arc<OwnerCell<dyn Bump>> = typed.clone();
        assert_eq!(erased.lock().bump(), 1);
        assert_eq!(typed.lock().bump(), 2);
    }

    #[test]
    fn a_borrow_from_a_second_os_thread_panics_and_names_the_rule() {
        let cell = Arc::new(OwnerCell::new(0u64));
        let theirs = Arc::clone(&cell);
        let refused = std::thread::spawn(move || {
            *theirs.lock() += 1;
        })
        .join()
        .expect_err("a borrow from another OS thread");
        let msg = message(refused);
        assert!(msg.contains("another OS thread"), "{msg}");
        assert!(msg.contains("the OS thread that built them"), "{msg}");
        // Refused before the value or the borrow flag was touched.
        assert_eq!(*cell.lock(), 0);
    }

    #[test]
    fn a_second_lock_while_a_guard_lives_panics_at_the_callers_location() {
        let cell = OwnerCell::new(0u64);
        let guard = cell.lock();
        let line = line!() + 1;
        let refused = catch_unwind(AssertUnwindSafe(|| drop(cell.lock())));
        let msg = message(refused.expect_err("a re-entrant borrow"));
        assert!(msg.contains("would have deadlocked"), "{msg}");
        assert!(msg.contains(&format!("{}:{line}:", file!())), "{msg}");
        // The refused call left the first borrow as it was.
        drop(guard);
        *cell.lock() = 1;
    }

    #[test]
    fn a_guard_dropped_by_an_unwind_releases_the_borrow() {
        let cell = OwnerCell::new(0u64);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut g = cell.lock();
            *g = 7;
            std::panic::resume_unwind(Box::new("holder unwinds"));
        }));
        assert!(unwound.is_err());
        assert_eq!(*cell.lock(), 7, "no poisoning, and the borrow is free");
    }

    #[test]
    fn the_last_handle_may_be_dropped_on_another_thread() {
        let cell = Arc::new(OwnerCell::new(vec![0u8; 16]));
        std::thread::spawn(move || drop(cell))
            .join()
            .expect("dropping borrows nothing");
    }

    #[test]
    fn debug_never_panics() {
        let cell = Arc::new(OwnerCell::new(5u8));
        assert_eq!(format!("{cell:?}"), "OwnerCell { data: 5 }");
        let guard = cell.lock();
        assert_eq!(format!("{cell:?}"), "OwnerCell { <borrowed> }");
        drop(guard);
        let theirs = Arc::clone(&cell);
        let text = std::thread::spawn(move || format!("{theirs:?}"))
            .join()
            .expect("formatting borrows nothing");
        assert_eq!(text, "OwnerCell { <another thread's> }");
    }

    /// `Send`/`Sync` exactly when `T: Send`: a cell of an `Rc` would let
    /// another thread drop it. Checked when this test is compiled: the
    /// inherent constant shadows the trait's only where its bound holds.
    #[test]
    fn send_and_sync_follow_t_send() {
        fn is_send_sync<T: Send + Sync>() {}
        is_send_sync::<OwnerCell<u64>>();
        is_send_sync::<OwnerCell<Cell<u64>>>(); // Send, not Sync: enough
        is_send_sync::<Arc<OwnerCell<dyn FnMut() + Send>>>();

        struct Probe<T: ?Sized>(PhantomData<T>);
        trait Neither {
            const SEND: bool = false;
            const SYNC: bool = false;
        }
        impl<T: ?Sized> Neither for Probe<T> {}
        impl<T: ?Sized + Send> Probe<T> {
            const SEND: bool = true;
        }
        impl<T: ?Sized + Sync> Probe<T> {
            const SYNC: bool = true;
        }
        const {
            assert!(<Probe<OwnerCell<u64>>>::SEND && <Probe<OwnerCell<u64>>>::SYNC);
            assert!(<Probe<OwnerCell<Cell<u64>>>>::SYNC);
            assert!(!<Probe<OwnerCell<std::rc::Rc<u64>>>>::SEND);
            assert!(!<Probe<OwnerCell<std::rc::Rc<u64>>>>::SYNC);
            assert!(!<Probe<OwnerGuard<'static, u64>>>::SEND);
            assert!(!<Probe<OwnerGuard<'static, u64>>>::SYNC);
        }
    }
}

//! How often the calling OS thread took a [`Mutex`](crate::Mutex) or
//! borrowed an [`OwnerCell`](crate::owner::OwnerCell): the exact proxy
//! for what an execution pays in synchronisation per step, which a noisy
//! host cannot read off a stopwatch.
//!
//! The counters are per OS thread (a plain thread-local `Cell`, so
//! counting costs no synchronisation of its own) and only advance when
//! this crate is built with the `count` feature. `perennial-bench`'s
//! `scale` turns it on; the end-to-end benchmark's build does not, so
//! nothing is added to the paths it times.

use std::cell::Cell;

/// Whether this build counts. Off, both counters read 0 for ever.
pub const ENABLED: bool = cfg!(feature = "count");

thread_local! {
    static MUTEX_LOCKS: Cell<u64> = const { Cell::new(0) };
    static CELL_BORROWS: Cell<u64> = const { Cell::new(0) };
}

/// `Mutex::lock` and `try_lock` calls made by this OS thread so far.
pub fn mutex_locks() -> u64 {
    MUTEX_LOCKS.with(Cell::get)
}

/// `OwnerCell::lock` calls that returned a guard on this OS thread so far.
pub fn cell_borrows() -> u64 {
    CELL_BORROWS.with(Cell::get)
}

#[inline(always)]
pub(crate) fn mutex_lock() {
    #[cfg(feature = "count")]
    MUTEX_LOCKS.with(|n| n.set(n.get() + 1));
}

#[inline(always)]
pub(crate) fn cell_borrow() {
    #[cfg(feature = "count")]
    CELL_BORROWS.with(|n| n.set(n.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::OwnerCell;
    use crate::Mutex;

    #[test]
    fn each_acquisition_counts_once_on_its_own_thread_when_enabled() {
        let (m, c) = (Mutex::new(0), OwnerCell::new(0));
        let (locks, borrows) = (mutex_locks(), cell_borrows());
        *m.lock() += 1;
        drop(m.try_lock());
        *c.lock() += 1;
        let step = u64::from(ENABLED);
        assert_eq!(mutex_locks() - locks, 2 * step);
        assert_eq!(cell_borrows() - borrows, step);
        // Another thread's acquisitions are its own.
        std::thread::spawn(move || drop(m.lock()))
            .join()
            .expect("the other thread");
        assert_eq!(mutex_locks() - locks, 2 * step);
    }
}

//! A counting global allocator, for the binaries that gate on heap
//! allocations per execution: `scale` (`BENCH_scale.json`'s
//! `allocs_per_exec`) and `tests/alloc_budget.rs`. Every `alloc`,
//! `alloc_zeroed` and `realloc` call is counted, with the bytes it asks
//! for, in totals kept per OS thread — like `parking_lot::count`, so what
//! other threads allocate (parallel tests, pool workers) never mixes into
//! a count.
//!
//! Declaring the type installs nothing: a `#[global_allocator]` static
//! does, and only those two binaries hold one. Everything else that links
//! this library (the root package, `benchmark/`) keeps the system
//! allocator, and [`thread_totals`] reads zeros there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting on the way.
pub struct Counting;

thread_local! {
    // `const`-initialised and without a destructor: reaching them never
    // allocates, so the allocator may touch them from inside a call.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    CALLS.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + bytes as u64));
}

/// The calling thread's allocation calls and bytes asked for so far.
pub fn thread_totals() -> (u64, u64) {
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches two
// thread-local cells and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc` contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's `realloc` contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `dealloc` contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

//! Virtual threads panic on their controller's OS thread, so whether a
//! body's panic reaches the process's panic hook follows the quiet scope
//! the thread was spawned in — the checker wraps every execution in
//! [`quiet_worker_panics`], and an expected, classified body panic must
//! stay as silent there as it was when bodies ran on threads of their
//! own. Alone in this file (one test, one process): the hook is global.

use goose_rt::{quiet_worker_panics, CrashSignal, ModelRt, PanicKind, StepResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Panics that got through to the hook installed before the runtime's.
static REPORTED: AtomicUsize = AtomicUsize::new(0);

/// Runs one execution whose "bug" thread panics two steps in, next to a
/// bystander, and returns whose name the failure is filed under.
fn run_a_panicking_body() -> String {
    let rt = ModelRt::new(0, 10_000);
    let rt2 = Arc::clone(&rt);
    rt.spawn("bystander", move || loop {
        rt2.yield_point();
    });
    let rt2 = Arc::clone(&rt);
    let bug = rt.spawn("bug", move || {
        rt2.yield_point();
        panic!("boom");
    });
    assert_eq!(rt.grant(0), StepResult::Yielded);
    assert_eq!(rt.grant(bug), StepResult::Yielded);
    match rt.grant(bug) {
        StepResult::Panicked(PanicKind::Other(msg)) => assert!(msg.contains("boom")),
        other => panic!("unexpected {other:?}"),
    }
    let failures = rt.failures();
    rt.crash_all();
    assert_eq!(failures.len(), 1);
    failures[0].0.clone()
}

#[test]
fn hosted_threads_are_as_quiet_as_the_scope_they_were_spawned_in() {
    // Before the first runtime exists: its hook wraps this one.
    std::panic::set_hook(Box::new(|info| {
        REPORTED.fetch_add(1, Ordering::SeqCst);
        // Captured by the test harness; shown if an assertion here fails.
        eprintln!("reported: {info}");
    }));
    let reported = || REPORTED.load(Ordering::SeqCst);

    // A quiet worker's threads are quiet, and the panic is still the
    // virtual thread's.
    assert_eq!(quiet_worker_panics(run_a_panicking_body), "bug");
    assert_eq!(reported(), 0);

    // Outside the scope the same panic is reported, once.
    assert_eq!(run_a_panicking_body(), "bug");
    assert_eq!(reported(), 1);

    // A worker that unwinds out of its scope, past a thread suspended
    // in it, is not quiet afterwards.
    let rt = ModelRt::new(0, 10_000);
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        quiet_worker_panics(|| {
            let rt2 = Arc::clone(&rt);
            rt.spawn("suspended", move || loop {
                rt2.yield_point();
            });
            assert_eq!(rt.grant(0), StepResult::Yielded);
            std::panic::panic_any(CrashSignal);
        })
    }));
    assert!(unwound.is_err());
    rt.crash_all();
    assert_eq!(reported(), 1, "crash unwinds are never reported");
    assert_eq!(run_a_panicking_body(), "bug");
    assert_eq!(reported(), 2);

    // A scope entered by a virtual thread is that thread's: it is
    // suspended inside it, and neither the controller nor a peer spawned
    // outside it is silenced.
    let rt = ModelRt::new(0, 10_000);
    let rt2 = Arc::clone(&rt);
    rt.spawn("hushed", move || {
        quiet_worker_panics(|| {
            rt2.yield_point();
            panic!("not reported");
        })
    });
    assert_eq!(rt.grant(0), StepResult::Yielded);
    assert!(catch_unwind(|| panic!("the controller's own")).is_err());
    assert_eq!(reported(), 3);
    assert_eq!(run_a_panicking_body(), "bug");
    assert_eq!(reported(), 4);
    assert!(matches!(
        rt.grant(0),
        StepResult::Panicked(PanicKind::Other(_))
    ));
    assert_eq!(reported(), 4);
    rt.crash_all();
}

//! Virtual threads are contexts on their controller's own OS thread: a
//! long campaign adds no OS thread at all, however the executions end and
//! whether the controller grants every step or a pilot schedules on the
//! virtual threads' stacks, `current_tid` is the controller's own again
//! between runs, and two controllers at work at once never meet. Alone in
//! this file (one test, one process) so that `/proc/self/status` counts
//! nobody else's threads.
#![cfg(target_os = "linux")]

use goose_rt::{shared_pilot, ModelRt, PanicKind, Pilot, SharedPilot, StepResult, Tid};
use std::sync::{Arc, Barrier};

/// The most virtual threads live at once in any execution below.
const HIGH_WATER: usize = 3;

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Round-robin over whatever is runnable, never declining.
struct RoundRobin(usize);

impl Pilot for RoundRobin {
    fn step_done(&mut self, _rt: &ModelRt, _tid: Tid) {}

    fn pick(&mut self, _rt: &ModelRt, runnable: &[Tid]) -> Option<Tid> {
        self.0 += 1;
        Some(runnable[self.0 % runnable.len()])
    }
}

/// Schedules round-robin until nothing is runnable or a thread panics
/// (returned): one `grant` per step, or `piloted`, in runs on the
/// virtual threads' own stacks.
fn drain(rt: &ModelRt, piloted: bool) -> Option<(Tid, PanicKind)> {
    let pilot: SharedPilot = shared_pilot(RoundRobin(0));
    loop {
        let runnable = rt.runnable();
        if runnable.is_empty() {
            return None;
        }
        let ended = if piloted {
            vec![rt.run(&pilot, runnable[0])]
        } else {
            runnable.iter().map(|&tid| (tid, rt.grant(tid))).collect()
        };
        for (tid, step) in ended {
            if let StepResult::Panicked(kind) = step {
                return Some((tid, kind));
            }
        }
    }
}

fn spawn_lockers(rt: &Arc<ModelRt>, n: usize) {
    let lock = rt.new_lock();
    for t in 0..n {
        let rt2 = Arc::clone(rt);
        rt.spawn(format!("t{t}"), move || {
            rt2.lock_acquire(lock);
            rt2.yield_point();
            rt2.lock_release(lock);
        });
    }
}

fn clean_finish(piloted: bool) {
    let rt = ModelRt::new(1, 10_000);
    spawn_lockers(&rt, HIGH_WATER);
    assert_eq!(drain(&rt, piloted), None);
    rt.join_all();
    assert!(rt.all_done() && rt.failures().is_empty());
}

/// Crash mid-flight (one thread never granted), crash again inside
/// recovery, then recover and run the post-recovery threads.
fn crash_with_nested_recovery(piloted: bool) {
    let rt = ModelRt::new(2, 10_000);
    spawn_lockers(&rt, HIGH_WATER);
    for tid in [0, 1, 0] {
        let _ = rt.grant(tid);
    }
    rt.crash_all();
    for attempt in 0..2 {
        let rt2 = Arc::clone(&rt);
        let recovery = rt.spawn("recovery", move || {
            rt2.yield_point();
            rt2.yield_point();
        });
        assert_eq!(rt.grant(recovery), StepResult::Yielded);
        if attempt == 0 {
            rt.crash_all();
        }
    }
    spawn_lockers(&rt, HIGH_WATER - 1);
    assert_eq!(drain(&rt, piloted), None);
    rt.join_all();
    assert!(rt.all_done() && rt.failures().is_empty());
}

fn deadlock(piloted: bool) {
    let rt = ModelRt::new(3, 10_000);
    let (a, b) = (rt.new_lock(), rt.new_lock());
    for (first, second) in [(a, b), (b, a)] {
        let rt2 = Arc::clone(&rt);
        rt.spawn("philosopher", move || {
            rt2.lock_acquire(first);
            rt2.lock_acquire(second);
        });
    }
    assert_eq!(drain(&rt, piloted), None);
    assert!(!rt.all_done() && rt.any_blocked());
    rt.crash_all();
    assert!(rt.all_done());
}

fn step_budget_wedge(piloted: bool) {
    let rt = ModelRt::new(4, 16);
    for name in ["spin", "bystander"] {
        let rt2 = Arc::clone(&rt);
        rt.spawn(name, move || loop {
            rt2.yield_point();
        });
    }
    // Round-robin, the seventeenth yield is thread 0's.
    assert_eq!(drain(&rt, piloted), Some((0, PanicKind::StepBudget(16))));
    rt.crash_all();
    assert!(rt.all_done());
}

fn panicking_body(piloted: bool) {
    let rt = ModelRt::new(5, 10_000);
    let rt2 = Arc::clone(&rt);
    rt.spawn("bystander", move || loop {
        rt2.yield_point();
    });
    rt.spawn("bug", || panic!("boom"));
    assert!(matches!(
        drain(&rt, piloted),
        Some((1, PanicKind::Other(_)))
    ));
    // Reported under the virtual thread's name, not the OS thread's.
    assert_eq!(rt.failures()[0].0, "bug");
    rt.crash_all();
}

#[test]
fn executions_add_no_os_threads_and_controllers_do_not_meet() {
    const CONTROLLERS: usize = 2;
    const EXECUTIONS: usize = 2_000;
    const BATCH: usize = 250;
    let before = os_threads();
    // Both controllers are mid-campaign at every batch boundary, so each
    // runs its contexts while the other does.
    let in_step = Arc::new(Barrier::new(CONTROLLERS));
    let controllers: Vec<_> = (0..CONTROLLERS)
        .map(|_| {
            let in_step = Arc::clone(&in_step);
            // A controller of its own, as each checker worker is.
            std::thread::spawn(move || {
                let shapes = [
                    clean_finish,
                    crash_with_nested_recovery,
                    deadlock,
                    step_budget_wedge,
                    panicking_body,
                ];
                for i in 0..EXECUTIONS {
                    if i % BATCH == 0 {
                        in_step.wait();
                    }
                    shapes[i % shapes.len()](i / shapes.len() % 2 == 1);
                    assert_eq!(ModelRt::current_tid(), None);
                    let now = os_threads();
                    assert!(
                        now <= before + CONTROLLERS,
                        "execution {i}: {now} OS threads, {before} before the controllers"
                    );
                }
            })
        })
        .collect();
    for controller in controllers {
        controller.join().expect("a controller thread");
    }
    assert_eq!(os_threads(), before);
}

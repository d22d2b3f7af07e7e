//! One pilot, two drivers: scheduling on the carriers ([`ModelRt::run`])
//! must be indistinguishable from the controller granting every step
//! itself and consulting the same pilot in between. Random scripted
//! workloads — yields, heap loads and (sometimes racy) stores, contended
//! locks, threads spawned from inside a step, deterministic randomness, a
//! panicking body, a crash followed by a recovery thread — are run both
//! ways from the same seed, with dependency tracking and the causal trace
//! on, and everything observable is compared.

use goose_rt::{
    shared_pilot, ExecTrace, HVal, Heap, LockId, ModelRt, PanicKind, Pilot, Ptr, SchedStats,
    SharedPilot, StepAccess, StepResult, Tid,
};
use parking_lot::Mutex;
use std::sync::Arc;

const SEEDS: u64 = 2_000;
const CELLS: usize = 3;
const LOCKS: usize = 2;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

#[derive(Debug, Clone)]
enum Op {
    Yield,
    Load(usize),
    Store(usize, u64),
    /// Acquire, run the inner ops, release.
    Locked(usize, Vec<Op>),
    Rand,
    Spawn(Vec<Op>),
    Panic,
}

fn script(rng: &mut Rng, len: u64, nested: bool) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.below(if nested { 12 } else { 20 }) {
            0..=2 => Op::Yield,
            3..=5 => Op::Load(rng.below(CELLS as u64) as usize),
            // Unlocked stores race now and then: modelled UB, a panic.
            6..=8 => Op::Store(rng.below(CELLS as u64) as usize, rng.below(100)),
            9..=10 => Op::Rand,
            11 => Op::Yield,
            12..=16 => {
                let len = 1 + rng.below(3);
                Op::Locked(rng.below(LOCKS as u64) as usize, script(rng, len, true))
            }
            17..=18 => {
                let len = 1 + rng.below(4);
                Op::Spawn(script(rng, len, true))
            }
            _ => Op::Panic,
        })
        .collect()
}

/// What the thread bodies share: the runtime, its heap, and the ordered
/// log every thread appends to (one thread runs at a time).
#[derive(Clone)]
struct Shared {
    rt: Arc<ModelRt>,
    heap: Arc<Heap>,
    cells: Arc<Vec<Ptr>>,
    locks: Arc<Vec<LockId>>,
    log: Arc<Mutex<Vec<(String, String)>>>,
}

impl Shared {
    fn say(&self, who: &str, what: String) {
        self.log.lock().push((who.to_string(), what));
    }

    fn spawn(&self, name: String, ops: Vec<Op>) {
        let (me, who) = (self.clone(), name.clone());
        self.rt.spawn(name, move || me.interpret(&who, &ops));
    }

    fn interpret(&self, who: &str, ops: &[Op]) {
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Yield => {
                    self.rt.yield_point();
                    self.say(who, "yield".into());
                }
                Op::Load(c) => {
                    let v = self.heap.load(self.cells[*c]).as_u64();
                    self.say(who, format!("load c{c} = {v}"));
                }
                Op::Store(c, v) => {
                    self.heap.store(self.cells[*c], HVal::U64(*v));
                    self.say(who, format!("store c{c} := {v}"));
                }
                Op::Locked(l, inner) => {
                    self.rt.lock_acquire(self.locks[*l]);
                    self.say(who, format!("acquired l{l}"));
                    self.interpret(who, inner);
                    self.rt.lock_release(self.locks[*l]);
                    self.say(who, format!("released l{l}"));
                }
                Op::Rand => {
                    let v = self.rt.rand_u64();
                    self.say(who, format!("rand {v:#x}"));
                }
                Op::Spawn(child) => {
                    self.rt.yield_point();
                    self.spawn(format!("{who}.{i}"), child.clone());
                    self.say(who, format!("spawned {who}.{i}"));
                }
                Op::Panic => {
                    self.rt.yield_point();
                    panic!("scripted panic in {who}");
                }
            }
        }
    }
}

/// Seeded random choice that declines once, at `crash_at`, and keeps the
/// per-step record both drivers must agree on.
struct Recorder {
    rng: Rng,
    steps: u64,
    crash_at: Option<u64>,
    decisions: Vec<(usize, usize)>,
    footprints: Vec<(Tid, Vec<StepAccess>)>,
}

impl Pilot for Recorder {
    fn step_done(&mut self, rt: &ModelRt, tid: Tid) {
        self.steps += 1;
        self.footprints.push((tid, rt.take_step_accesses()));
    }

    fn pick(&mut self, _rt: &ModelRt, runnable: &[Tid]) -> Option<Tid> {
        if self.crash_at == Some(self.steps) {
            return None;
        }
        let idx = self.rng.below(runnable.len() as u64) as usize;
        self.decisions.push((idx, runnable.len()));
        Some(runnable[idx])
    }
}

#[derive(Debug, PartialEq)]
struct Observation {
    decisions: Vec<(usize, usize)>,
    footprints: Vec<(Tid, Vec<StepAccess>)>,
    log: Vec<(String, String)>,
    /// Every thread that terminated on a granted step, in order.
    ended: Vec<(Tid, StepResult)>,
    stats: SchedStats,
    failures: Vec<(String, PanicKind)>,
    deadlocked: bool,
    trace: ExecTrace,
}

fn execute(seed: u64, on_carriers: bool) -> (Observation, u64) {
    let mut rng = Rng::new(seed);
    let rt = ModelRt::new(seed, 400);
    rt.set_track_deps(true);
    rt.set_tracing(true);
    let heap = Heap::new(Arc::clone(&rt));
    let mut shared = Shared {
        rt: Arc::clone(&rt),
        cells: Arc::new((0..CELLS).map(|_| heap.alloc(HVal::U64(0))).collect()),
        locks: Arc::new((0..LOCKS).map(|_| rt.new_lock()).collect()),
        heap,
        log: Arc::default(),
    };
    for t in 0..2 + rng.below(3) {
        let len = 2 + rng.below(7);
        shared.spawn(format!("t{t}"), script(&mut rng, len, false));
    }
    let recovery = script(&mut rng, 4, false);
    let recorder = shared_pilot(Recorder {
        rng: Rng::new(seed ^ 0xa5a5),
        steps: 0,
        crash_at: (rng.below(3) > 0).then(|| rng.below(25)),
        decisions: Vec::new(),
        footprints: Vec::new(),
    });
    let pilot: SharedPilot = recorder.clone();
    let mut ended = Vec::new();

    loop {
        let mut r = recorder.lock();
        if r.crash_at == Some(r.steps) {
            r.crash_at = None;
            r.steps += 1;
            rt.crash_all();
            shared.say("controller", "crash".into());
            // Memory is gone; the lock table was wiped by the runtime.
            shared.heap.crash();
            shared.cells = Arc::new(
                (0..CELLS)
                    .map(|_| shared.heap.alloc(HVal::U64(7)))
                    .collect(),
            );
            shared.spawn("recovery".into(), recovery.clone());
            continue;
        }
        let runnable = rt.runnable();
        if runnable.is_empty() {
            break;
        }
        let first = r.pick(&rt, &runnable).expect("no crash is due");
        drop(r);
        let (tid, step) = if on_carriers {
            rt.run(&pilot, first)
        } else {
            let step = rt.grant(first);
            recorder.lock().step_done(&rt, first);
            (first, step)
        };
        if matches!(step, StepResult::Finished | StepResult::Panicked(_)) {
            ended.push((tid, step));
        }
    }

    let deadlocked = !rt.all_done();
    let wakeups = rt.wakeups();
    rt.crash_all();
    let mut r = recorder.lock();
    let observation = Observation {
        decisions: std::mem::take(&mut r.decisions),
        footprints: std::mem::take(&mut r.footprints),
        log: std::mem::take(&mut *shared.log.lock()),
        ended,
        stats: rt.sched_stats(),
        failures: rt.failures(),
        deadlocked,
        trace: rt.take_trace(),
    };
    (observation, wakeups)
}

#[test]
fn piloted_runs_are_indistinguishable_from_stepwise_grants() {
    let (mut crashes, mut panics, mut deadlocks, mut blocks, mut spawns) = (0, 0, 0, 0u64, 0u64);
    let (mut wakeups_stepwise, mut wakeups_piloted, mut steps) = (0, 0, 0);
    for seed in 0..SEEDS {
        let (stepwise, w_stepwise) = execute(seed, false);
        let (piloted, w_piloted) = execute(seed, true);
        assert_eq!(stepwise, piloted, "seed {seed}");
        assert_eq!(
            stepwise.decisions.len(),
            stepwise.footprints.len(),
            "seed {seed}: every granted step was reported"
        );
        assert!(w_piloted <= w_stepwise, "seed {seed}");
        crashes += usize::from(stepwise.log.iter().any(|(_, what)| what == "crash"));
        panics += usize::from(!stepwise.failures.is_empty());
        deadlocks += usize::from(stepwise.deadlocked);
        blocks += stepwise.stats.lock_blocks;
        spawns += stepwise.stats.threads;
        steps += stepwise.decisions.len() as u64;
        wakeups_stepwise += w_stepwise;
        wakeups_piloted += w_piloted;
    }
    // The generator reaches every behaviour the claim is about.
    let seeds = SEEDS as usize;
    assert!(
        crashes > seeds / 4 && panics > seeds / 4,
        "{crashes} crashes, {panics} panics"
    );
    assert!(blocks > SEEDS / 4, "{blocks} blocked acquires");
    assert!(
        spawns > 4 * SEEDS,
        "few threads spawned inside a step: {spawns}"
    );
    assert!(deadlocks < seeds / 4, "{deadlocks} deadlocks");
    assert!(
        wakeups_piloted < wakeups_stepwise / 2,
        "{wakeups_piloted} wake-ups piloted, {wakeups_stepwise} stepwise, {steps} steps"
    );
}

//! End-to-end self-test of the checking pipeline: a lock-per-address
//! durable register machine on the model disk, instrumented with ghost
//! calls (the runtime analog of a Perennial proof), checked across
//! schedules and crash points — plus buggy mutants that the checker must
//! reject. A verifier that cannot fail is not evidence (DESIGN.md §8).

use goose_rt::runtime::{GLock, ModelRtExt};
use parking_lot::RwLock;
use perennial::{DurId, GhostUnwrap, Lease, LockInv};
use perennial_checker::{check, CheckConfig, ExecOutcome, Harness, Script, System, World};
use perennial_disk::{ModelDisk, SingleDisk};
use perennial_spec::fixtures::{RegOp, RegSpec};
use std::sync::Arc;

fn enc(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// Which deliberate bug (if any) to inject into the implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bug {
    None,
    /// Write a different value to disk than committed to the spec.
    WrongValue,
    /// Skip the commit (no linearization point).
    SkipCommit,
    /// Skip the per-address lock entirely.
    NoLock,
    /// Recovery forgets to renew leases (post-crash writes use stale
    /// capabilities).
    StaleLeaseAfterRecovery,
    /// Recovery zeroes the disk ("making the disks consistent" the wrong
    /// way, §1's canonical wrong recovery).
    ZeroingRecovery,
}

struct RegHarness {
    nregs: u64,
    bug: Bug,
}

struct RegSys {
    bug: Bug,
    disk: Arc<ModelDisk>,
    cells: Vec<DurId<u64>>,
    lockinvs: Vec<Arc<LockInv<Lease<u64>>>>,
    /// In-memory locks, rebuilt on every boot.
    locks: RwLock<Vec<Arc<dyn GLock>>>,
}

impl RegSys {
    fn lock(&self, a: u64) -> Arc<dyn GLock> {
        Arc::clone(&self.locks.read()[a as usize])
    }

    fn write(&self, w: &World<RegSpec>, a: u64, v: u64) {
        let tok = w.ghost.begin_op(RegOp::Write(a, v)).ghost_unwrap();
        if self.bug != Bug::NoLock {
            self.lock(a).acquire();
        }
        let mut lease = self.lockinvs[a as usize].take().ghost_unwrap();
        let disk_value = if self.bug == Bug::WrongValue {
            v + 1
        } else {
            v
        };
        // The disk write is the linearization point: the physical write,
        // the ghost mirror update, and the spec commit happen with no
        // schedule point in between (one atomic step).
        self.disk.write(a, &enc(disk_value));
        w.ghost
            .write_durable(self.cells[a as usize], &mut lease, v)
            .ghost_unwrap();
        let ret = if self.bug == Bug::SkipCommit {
            None
        } else {
            w.ghost.commit_op(&tok).ghost_unwrap()
        };
        self.lockinvs[a as usize].put(lease).ghost_unwrap();
        if self.bug != Bug::NoLock {
            self.lock(a).release();
        }
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }

    fn read(&self, w: &World<RegSpec>, a: u64) -> u64 {
        let tok = w.ghost.begin_op(RegOp::Read(a)).ghost_unwrap();
        if self.bug != Bug::NoLock {
            self.lock(a).acquire();
        }
        let lease = self.lockinvs[a as usize].take().ghost_unwrap();
        let v = dec(&self.disk.read(a));
        let ghost_v = w
            .ghost
            .read_durable(self.cells[a as usize], &lease)
            .ghost_unwrap();
        assert_eq!(v, ghost_v, "disk and ghost mirror diverged");
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        self.lockinvs[a as usize].put(lease).ghost_unwrap();
        if self.bug != Bug::NoLock {
            self.lock(a).release();
        }
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
        match ret {
            Some(v) => v,
            None => unreachable!("read committed without a value"),
        }
    }
}

impl System<RegSpec> for RegSys {
    fn boot(&self, w: &World<RegSpec>) {
        *self.locks.write() = (0..self.cells.len()).map(|_| w.rt.new_glock()).collect();
    }

    fn crash(&self) {
        // Disk contents are durable; nothing volatile to clear besides
        // the locks boot() rebuilds.
    }

    fn recover(&self, w: &World<RegSpec>) {
        if self.bug == Bug::ZeroingRecovery {
            for a in 0..self.cells.len() as u64 {
                self.disk.write(a, &enc(0));
            }
        }
        for (a, cell) in self.cells.iter().enumerate() {
            // The stale-lease bug forgets recover_lease: the stale bundle
            // stays in place and post-crash ops trip the version check.
            if self.bug != Bug::StaleLeaseAfterRecovery {
                let lease = w.ghost.recover_lease(*cell).ghost_unwrap();
                self.lockinvs[a].reset(lease);
            }
        }
        w.ghost.recovery_done().ghost_unwrap();
    }

    fn abs_check(&self, w: &World<RegSpec>) -> Result<(), String> {
        // The abstraction relation at quiescence: every disk block equals
        // the spec state.
        let sigma = w.ghost.spec_state();
        for (a, _) in self.cells.iter().enumerate() {
            let disk_v = dec(&self.disk.peek(a as u64));
            let spec_v = *sigma.get(&(a as u64)).unwrap();
            if disk_v != spec_v {
                return Err(format!(
                    "AbsR violated at address {a}: disk has {disk_v}, spec has {spec_v}"
                ));
            }
        }
        Ok(())
    }
}

impl Harness<RegSpec> for RegHarness {
    type Sys = RegSys;

    fn spec(&self) -> RegSpec {
        RegSpec { size: self.nregs }
    }

    fn make(&self, w: &World<RegSpec>) -> Script<RegSys, RegSpec> {
        let disk = ModelDisk::new(Arc::clone(&w.rt), self.nregs, 8);
        let mut cells = Vec::new();
        let mut lockinvs = Vec::new();
        for _ in 0..self.nregs {
            let (cell, lease) = w.ghost.alloc_durable(0u64);
            cells.push(cell);
            lockinvs.push(Arc::new(LockInv::new(lease)));
        }
        let mut script = Script::new(RegSys {
            bug: self.bug,
            disk,
            cells,
            lockinvs,
            locks: RwLock::new(Vec::new()),
        });
        script.thread("writer-a", |sys, w| {
            sys.write(w, 0, 10);
            sys.write(w, 1, 11);
        });
        script.thread("writer-b", |sys, w| sys.write(w, 0, 20));
        script.thread("reader", |sys, w| {
            let v0 = sys.read(w, 0);
            assert!(v0 == 0 || v0 == 10 || v0 == 20, "impossible read {v0}");
        });
        script.after("post-crash", |sys, w| {
            sys.write(w, 2, 33);
            assert_eq!(sys.read(w, 2), 33);
        });
        script
    }

    fn name(&self) -> &str {
        "register self-test"
    }
}

fn quick() -> CheckConfig {
    CheckConfig::builder()
        .dfs_max_executions(300)
        .random_samples(15)
        .random_crash_samples(25)
        .build()
}

#[test]
fn correct_register_machine_passes_all_passes() {
    let h = RegHarness {
        nregs: 4,
        bug: Bug::None,
    };
    let report = check(&h, &quick());
    assert!(
        report.passed(),
        "unexpected counterexample: {:?}",
        report.counterexample
    );
    assert!(report.executions > 100, "too few executions explored");
    assert!(report.crashes_injected > 10, "crash sweep did not run");
}

#[test]
fn mutant_wrong_value_is_caught() {
    let h = RegHarness {
        nregs: 4,
        bug: Bug::WrongValue,
    };
    let report = check(&h, &quick());
    let cx = report.counterexample.expect("wrong-value mutant must fail");
    // Either the reader's mirror assertion (Bug) or the final AbsR check
    // fires, depending on the schedule.
    assert!(
        matches!(
            cx.outcome,
            ExecOutcome::Bug(_) | ExecOutcome::FinalCheckFailed(_) | ExecOutcome::Violation(_)
        ),
        "unexpected outcome {:?}",
        cx.outcome
    );
}

#[test]
fn mutant_skip_commit_is_caught() {
    let h = RegHarness {
        nregs: 4,
        bug: Bug::SkipCommit,
    };
    let report = check(&h, &quick());
    let cx = report.counterexample.expect("skip-commit mutant must fail");
    assert!(
        matches!(cx.outcome, ExecOutcome::Violation(_)),
        "expected a ghost violation, got {:?}",
        cx.outcome
    );
}

#[test]
fn mutant_no_lock_is_caught() {
    let h = RegHarness {
        nregs: 4,
        bug: Bug::NoLock,
    };
    let report = check(&h, &quick());
    let cx = report.counterexample.expect("no-lock mutant must fail");
    assert!(
        matches!(cx.outcome, ExecOutcome::Violation(_) | ExecOutcome::Bug(_)),
        "unexpected outcome {:?}",
        cx.outcome
    );
}

#[test]
fn mutant_stale_lease_recovery_is_caught() {
    let h = RegHarness {
        nregs: 4,
        bug: Bug::StaleLeaseAfterRecovery,
    };
    let report = check(&h, &quick());
    let cx = report.counterexample.expect("stale-lease mutant must fail");
    assert!(
        matches!(cx.outcome, ExecOutcome::Violation(_)),
        "expected a ghost violation, got {:?}",
        cx.outcome
    );
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn mutant_zeroing_recovery_is_caught() {
    // §1: "it would be wrong for recovery to make the disks in sync by
    // zeroing them" — here, zeroing loses committed writes.
    let h = RegHarness {
        nregs: 4,
        bug: Bug::ZeroingRecovery,
    };
    let report = check(&h, &quick());
    let cx = report.counterexample.expect("zeroing mutant must fail");
    assert!(
        matches!(
            cx.outcome,
            ExecOutcome::FinalCheckFailed(_) | ExecOutcome::Bug(_) | ExecOutcome::Violation(_)
        ),
        "unexpected outcome {:?}",
        cx.outcome
    );
    assert!(!cx.crash_points.is_empty(), "only reachable via a crash");
}

#[test]
fn counterexamples_replay_deterministically() {
    // A found counterexample must reproduce: same failing outcome kind
    // when re-run from its recorded schedule and crash points.
    let h = RegHarness {
        nregs: 4,
        bug: Bug::ZeroingRecovery,
    };
    let report = check(&h, &quick());
    let cx = report.counterexample.expect("mutant must fail");
    let (outcome, trace) = perennial_checker::replay(&h, &cx, &quick());
    assert!(
        std::mem::discriminant(&outcome) == std::mem::discriminant(&cx.outcome),
        "replay produced {outcome:?}, original was {:?}",
        cx.outcome
    );
    assert!(!trace.is_empty(), "replay must produce a ghost trace");
}

#[test]
fn spawn_from_inside_a_virtual_thread_is_scheduled() {
    // Goroutine-style nested spawn: a workload thread spawns a child
    // mid-execution; the checker schedules it like any other thread.
    use goose_rt::sched::ModelRt;
    use std::sync::atomic::{AtomicU64, Ordering};

    let rt = ModelRt::new(0, 100_000);
    let counter = Arc::new(AtomicU64::new(0));
    let rt2 = Arc::clone(&rt);
    let c2 = Arc::clone(&counter);
    rt.spawn("parent", move || {
        rt2.yield_point();
        let c3 = Arc::clone(&c2);
        let rt3 = Arc::clone(&rt2);
        rt2.spawn("child", move || {
            rt3.yield_point();
            c3.fetch_add(10, Ordering::SeqCst);
        });
        c2.fetch_add(1, Ordering::SeqCst);
    });
    loop {
        let runnable = rt.runnable();
        if runnable.is_empty() {
            assert!(rt.all_done());
            break;
        }
        for tid in runnable {
            let _ = rt.grant(tid);
        }
    }
    rt.join_all();
    assert_eq!(counter.load(Ordering::SeqCst), 11);
    assert!(rt.failures().is_empty());
}

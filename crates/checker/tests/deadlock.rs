//! The checker must also detect liveness-adjacent structural failures:
//! lock-order deadlocks surface as `ExecOutcome::Deadlock` (no runnable
//! thread, unfinished work) rather than hanging the explorer.

use goose_rt::runtime::{GLock, ModelRtExt};
use parking_lot::RwLock;
use perennial::GhostUnwrap;
use perennial_checker::{check, CheckConfig, ExecOutcome, Harness, Pass, Script, System, World};
use perennial_spec::fixtures::{RegOp, RegSpec};
use std::sync::Arc;

/// Two in-memory locks and nothing durable.
#[derive(Default)]
struct TwoLocks {
    locks: RwLock<Vec<Arc<dyn GLock>>>,
}

impl TwoLocks {
    /// One register read under lock `first`, then lock `second`.
    fn read_under(&self, w: &World<RegSpec>, first: usize, second: usize) {
        let (l1, l2) = {
            let locks = self.locks.read();
            (Arc::clone(&locks[first]), Arc::clone(&locks[second]))
        };
        let tok = w.ghost.begin_op(RegOp::Read(0)).ghost_unwrap();
        l1.acquire();
        l2.acquire();
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        l2.release();
        l1.release();
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }
}

impl System<RegSpec> for TwoLocks {
    fn boot(&self, w: &World<RegSpec>) {
        *self.locks.write() = vec![w.rt.new_glock(), w.rt.new_glock()];
    }

    fn crash(&self) {}

    fn recover(&self, w: &World<RegSpec>) {
        w.ghost.recovery_done().ghost_unwrap();
    }

    fn abs_check(&self, _w: &World<RegSpec>) -> Result<(), String> {
        Ok(())
    }
}

/// A two-lock system where thread A takes (L0, L1) and thread B takes
/// (L1, L0) — the classic ABBA deadlock, reachable under some schedules.
struct AbbaHarness;

impl Harness<RegSpec> for AbbaHarness {
    type Sys = TwoLocks;

    fn spec(&self) -> RegSpec {
        RegSpec { size: 1 }
    }

    fn make(&self, _w: &World<RegSpec>) -> Script<TwoLocks, RegSpec> {
        let mut script = Script::new(TwoLocks::default());
        script.thread("ab", |sys, w| sys.read_under(w, 0, 1));
        script.thread("ba", |sys, w| sys.read_under(w, 1, 0));
        script
    }

    fn name(&self) -> &str {
        "ABBA deadlock"
    }
}

#[test]
fn abba_deadlock_is_found_and_classified() {
    let report = check(
        &AbbaHarness,
        &CheckConfig::builder()
            .dfs_max_executions(200)
            .random_samples(0)
            .random_crash_samples(0)
            .without_passes([Pass::CrashSweep, Pass::NestedCrash])
            .build(),
    );
    let cx = report
        .counterexample
        .expect("DFS must reach the deadlocking interleaving");
    assert!(
        matches!(cx.outcome, ExecOutcome::Deadlock),
        "expected Deadlock, got {:?}",
        cx.outcome
    );
    assert!(
        !cx.schedule_prefix.is_empty(),
        "counterexample must carry its schedule for replay"
    );
}

/// The same structure with a consistent lock order never deadlocks.
struct OrderedHarness;

impl Harness<RegSpec> for OrderedHarness {
    type Sys = TwoLocks;

    fn spec(&self) -> RegSpec {
        RegSpec { size: 1 }
    }

    fn make(&self, _w: &World<RegSpec>) -> Script<TwoLocks, RegSpec> {
        let mut script = Script::new(TwoLocks::default());
        for name in ["t1", "t2"] {
            script.thread(name, |sys, w| sys.read_under(w, 0, 1));
        }
        script
    }

    fn name(&self) -> &str {
        "ordered locks"
    }
}

#[test]
fn consistent_lock_order_never_deadlocks() {
    let report = check(
        &OrderedHarness,
        &CheckConfig::builder()
            .dfs_max_executions(500)
            .random_samples(20)
            .random_crash_samples(0)
            .without_passes([Pass::CrashSweep, Pass::NestedCrash])
            .build(),
    );
    assert!(
        report.passed(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.executions > 50, "DFS explored too little");
}

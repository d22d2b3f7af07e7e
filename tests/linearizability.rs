//! Independent linearizability cross-check: drive the replicated disk
//! under the model scheduler while recording only *observable* events
//! (invocations and responses), then verify the history with the
//! standalone Wing–Gong checker. This validates that the ghost
//! commit-point instrumentation isn't what makes executions look
//! correct — the histories are linearizable on their own.

use goose_rt::runtime::NativeRt;
use goose_rt::sched::ModelRt;
use perennial_checker::linearize::{check_linearizable, Verdict};
use perennial_checker::recorder::Recorder;
use perennial_disk::two::{DiskId, ModelTwoDisks, NativeTwoDisks, TwoDisks};
use repldisk::spec::{RdOp, RdRet, RdSpec};
use repldisk::ReplDisk;
use std::sync::Arc;

const BLOCKS: u64 = 3;
const BS: usize = 2;

type Rec = Recorder<RdOp, RdRet>;

/// Runs a concurrent workload on the plain replicated disk under the
/// model scheduler with the given seed, recording the history.
fn run_recorded(seed: u64) -> Vec<perennial_checker::HistOp<RdOp, RdRet>> {
    let rt = ModelRt::new(seed, 1_000_000);
    let disks = ModelTwoDisks::new(Arc::clone(&rt), BLOCKS, BS);
    // The plain library with model locks: build it with the model
    // runtime so lock operations are schedulable.
    let runtime: Arc<dyn goose_rt::runtime::Runtime> =
        goose_rt::runtime::ModelRtExt::as_runtime(&rt);
    let rd = Arc::new(ReplDisk::new(&*runtime, disks as Arc<dyn TwoDisks>));
    let rec = Arc::new(Rec::new());

    for t in 0..3u64 {
        let rd = Arc::clone(&rd);
        let rec = Arc::clone(&rec);
        rt.spawn(format!("t{t}"), move || match t {
            0 => {
                let op = RdOp::Write(0, vec![1; BS]);
                let h = rec.invoke(op);
                rd.rd_write(0, &[1; BS]);
                rec.finish(h, RdRet::Unit);
            }
            1 => {
                let op = RdOp::Write(0, vec![2; BS]);
                let h = rec.invoke(op);
                rd.rd_write(0, &[2; BS]);
                rec.finish(h, RdRet::Unit);
            }
            _ => {
                let h = rec.invoke(RdOp::Read(0));
                let v = rd.rd_read(0);
                rec.finish(h, RdRet::Val(v.to_vec()));
                let h = rec.invoke(RdOp::Read(1));
                let v = rd.rd_read(1);
                rec.finish(h, RdRet::Val(v.to_vec()));
            }
        });
    }

    // Seeded pseudo-random schedule.
    let mut x = seed | 1;
    loop {
        let runnable = rt.runnable();
        if runnable.is_empty() {
            assert!(rt.all_done(), "deadlock");
            break;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let tid = runnable[(x as usize) % runnable.len()];
        let _ = rt.grant(tid);
    }
    rt.join_all();
    assert!(rt.failures().is_empty(), "{:?}", rt.failures());
    rec.history()
}

#[test]
fn recorded_histories_are_linearizable_across_many_schedules() {
    let spec = RdSpec {
        size: BLOCKS,
        block_size: BS,
    };
    for seed in 0..60u64 {
        let ops = run_recorded(seed);
        assert_eq!(ops.len(), 4);
        let verdict = check_linearizable(&spec, &ops, 1_000_000);
        assert_eq!(
            verdict,
            Verdict::Linearizable,
            "seed {seed} produced a non-linearizable history: {ops:?}"
        );
    }
}

#[test]
fn broken_replica_produces_non_linearizable_history() {
    // Sanity that the cross-check can fail: a "replicated" disk whose
    // second replica is stale serves a stale read after failover.
    let spec = RdSpec {
        size: BLOCKS,
        block_size: BS,
    };
    let disks = NativeTwoDisks::new(BLOCKS, BS);
    let rt = NativeRt::new();
    let rd = ReplDisk::new(&*rt, Arc::clone(&disks) as Arc<dyn TwoDisks>);
    let rec = Rec::new();

    let h = rec.invoke(RdOp::Write(0, vec![9; BS]));
    // A buggy write that skips disk 2 (performed directly on the device
    // to simulate the mutant in the plain library).
    disks.disk_write(DiskId::D1, 0, &[9; BS]);
    rec.finish(h, RdRet::Unit);

    disks.fail(DiskId::D1);

    let h = rec.invoke(RdOp::Read(0));
    let v = rd.rd_read(0); // fails over to the stale disk 2
    rec.finish(h, RdRet::Val(v.to_vec()));
    assert_eq!(v, vec![0; BS], "setup: the stale value must be served");

    let verdict = check_linearizable(&spec, &rec.history(), 1_000_000);
    assert_eq!(verdict, Verdict::NotLinearizable);
}

//! Per-layer unit costs, timed around public calls into each layer.
//!
//! These run only in the traced run. Every metric is the median over
//! [`BATCHES`] batches of a fixed, deterministic amount of work, and is
//! reported with that count, so a later change can be held to "this unit
//! cost moved, that count did not". Model operations are called from
//! controller context (no virtual thread), where `yield_point` returns at
//! once: they measure the model, not the scheduler. The scheduler rows
//! drive a bare `ModelRt` the way the checker's executor does.

use crate::spans::Tracer;
use crate::stats::{summarize, Summary};
use crate::sys;
use crate::workloads::{Part, MAX_STEPS};
use goose_rt::fault::{FaultPlan, TornMode};
use goose_rt::{res, FileSys, HVal, Heap, ModelFs, ModelNet, ModelRt};
use perennial::{Ghost, GhostUnwrap};
use perennial_checker::linearize::{check_linearizable, HistOp, Verdict};
use perennial_checker::telemetry::{ev_exec_done, parse_wal, ExecEvent};
use perennial_checker::{
    merge_reports, report_from_json, report_to_json, CheckReport, Counterexample, ExecOutcome,
    OutcomeKind, Pass, Scenario, TelemetrySink,
};
use perennial_disk::buffered::BufferedDisk;
use perennial_disk::single::SingleDisk;
use perennial_disk::two::{DiskId, ModelTwoDisks, TwoDisks};
use perennial_spec::fixtures::{RegOp, RegSpec};
use perennial_spec::Jid;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BATCHES: usize = 10;

/// One per-layer measurement: per-batch values and the deterministic
/// amount of work behind them.
pub struct Micro {
    pub name: &'static str,
    pub summary: Summary,
    /// Operations measured over all batches.
    pub count: u64,
}

/// Times `BATCHES` runs of `batch`, which returns the time it measured and
/// how many operations that covered; `value` turns one batch into the
/// metric's unit.
fn micro_as(
    tracer: &mut Tracer,
    name: &'static str,
    value: fn(Duration, u64) -> f64,
    mut batch: impl FnMut() -> (Duration, u64),
) -> Micro {
    let mut values = Vec::with_capacity(BATCHES);
    let mut count = 0;
    for b in 0..BATCHES {
        let (elapsed, ops) = tracer.span(&format!("micro.{name}"), &b.to_string(), |_| batch());
        values.push(value(elapsed, ops));
        count += ops;
    }
    Micro {
        name,
        summary: summarize(&values),
        count,
    }
}

/// [`micro_as`] in µs per operation, the unit of every cost row.
fn micro(tracer: &mut Tracer, name: &'static str, batch: impl FnMut() -> (Duration, u64)) -> Micro {
    micro_as(
        tracer,
        name,
        |t, ops| t.as_secs_f64() * 1e6 / ops as f64,
        batch,
    )
}

/// Bytes per microsecond is MB/s.
fn mb_per_s(t: Duration, bytes: u64) -> f64 {
    bytes as f64 / (t.as_secs_f64() * 1e6)
}

fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

// ----------------------------------------------------------------------
// goose::sched
// ----------------------------------------------------------------------

const THREADS: usize = 3;
const YIELDS: u64 = 2_000;

/// Drives `THREADS` virtual threads of `YIELDS` yield points each to
/// completion, round-robin, re-reading `runnable()` before every grant as
/// the executor does. Returns (time, grants, voluntary context switches).
fn grant_loop(track_deps: bool, tracing: bool) -> (Duration, u64, u64) {
    let rt = ModelRt::new(7, MAX_STEPS);
    rt.set_track_deps(track_deps);
    rt.set_tracing(tracing);
    for i in 0..THREADS {
        let r = Arc::clone(&rt);
        rt.spawn(format!("t{i}"), move || {
            for _ in 0..YIELDS {
                r.yield_point();
                if track_deps {
                    r.note_access(res::heap_obj(i as u64), true);
                }
            }
        });
    }
    let before = sys::rusage();
    let t0 = Instant::now();
    let mut grants = 0u64;
    loop {
        let runnable = rt.runnable();
        if runnable.is_empty() {
            break;
        }
        black_box(rt.grant(runnable[grants as usize % runnable.len()]));
        if track_deps {
            black_box(rt.take_step_accesses());
        }
        grants += 1;
    }
    let elapsed = t0.elapsed();
    let switches = sys::rusage().since(&before).voluntary_switches;
    rt.join_all();
    assert!(rt.all_done() && rt.failures().is_empty());
    if tracing {
        black_box(rt.take_trace());
    }
    (elapsed, grants, switches)
}

fn sched(tracer: &mut Tracer, out: &mut Vec<Micro>) {
    let mut switches = Vec::with_capacity(BATCHES);
    let mut grants_total = 0;
    out.push(micro(tracer, "goose.sched.grant_us", || {
        let (t, grants, cs) = grant_loop(false, false);
        switches.push(cs as f64 / grants as f64);
        grants_total += grants;
        (t, grants)
    }));
    out.push(Micro {
        name: "goose.sched.ctx_switches_per_grant",
        summary: summarize(&switches),
        count: grants_total,
    });
    out.push(micro(tracer, "goose.sched.deps_grant_us", || {
        let (t, grants, _) = grant_loop(true, false);
        (t, grants)
    }));
    out.push(micro(tracer, "goose.sched.trace_grant_us", || {
        let (t, grants, _) = grant_loop(false, true);
        (t, grants)
    }));

    const EXECS: u64 = 40;
    out.push(micro(tracer, "goose.sched.spawn_join_us", || {
        let t = timed(|| {
            for _ in 0..EXECS {
                let rt = ModelRt::new(7, MAX_STEPS);
                for i in 0..THREADS {
                    rt.spawn(format!("t{i}"), || {});
                }
                for tid in rt.runnable() {
                    black_box(rt.grant(tid));
                }
                rt.join_all();
            }
        });
        (t, EXECS)
    }));
    out.push(micro(tracer, "goose.sched.crash_unwind_us", || {
        let mut t = Duration::ZERO;
        for _ in 0..EXECS {
            let rt = ModelRt::new(7, MAX_STEPS);
            for i in 0..THREADS {
                let r = Arc::clone(&rt);
                rt.spawn(format!("t{i}"), move || loop {
                    r.yield_point();
                });
            }
            for tid in rt.runnable() {
                black_box(rt.grant(tid));
            }
            t += timed(|| rt.crash_all());
        }
        (t, EXECS)
    }));

    const PAIRS: u64 = 500;
    out.push(micro(tracer, "goose.sched.lock_handoff_us", || {
        let rt = ModelRt::new(7, MAX_STEPS);
        let lock = rt.new_lock();
        for i in 0..2 {
            let r = Arc::clone(&rt);
            rt.spawn(format!("t{i}"), move || {
                for _ in 0..PAIRS {
                    r.lock_acquire(lock);
                    r.lock_release(lock);
                }
            });
        }
        let mut k = 0usize;
        let t = timed(|| loop {
            let runnable = rt.runnable();
            if runnable.is_empty() {
                break;
            }
            black_box(rt.grant(runnable[k % runnable.len()]));
            k += 1;
        });
        rt.join_all();
        assert!(rt.all_done() && rt.failures().is_empty());
        (t, 2 * PAIRS)
    }));
}

// ----------------------------------------------------------------------
// goose::{heap, fs, net}, disk, core — controller context, no scheduling
// ----------------------------------------------------------------------

fn models(tracer: &mut Tracer, out: &mut Vec<Micro>) {
    const OPS: u64 = 2_000;
    out.push(micro(tracer, "goose.heap.store_load_us", || {
        let heap = Heap::new(ModelRt::new(7, MAX_STEPS));
        let p = heap.alloc(HVal::U64(0));
        let t = timed(|| {
            for i in 0..OPS {
                heap.store(p, HVal::U64(i));
                black_box(heap.load(p));
            }
        });
        (t, OPS)
    }));
    out.push(micro(tracer, "goose.fs.op_us", || {
        const FILES: u64 = 500;
        let fs = ModelFs::new(ModelRt::new(7, MAX_STEPS), &["spool", "mbox"]);
        let (spool, mbox) = (fs.resolve("spool").unwrap(), fs.resolve("mbox").unwrap());
        let names: Vec<String> = (0..FILES).map(|i| format!("m{i}")).collect();
        let t = timed(|| {
            for name in &names {
                let fd = fs.create(spool, name).unwrap().unwrap();
                fs.append(fd, &[7u8; 64]).unwrap();
                fs.close(fd).unwrap();
                black_box(fs.link(spool, name, mbox, name).unwrap());
            }
        });
        (t, 4 * FILES)
    }));
    out.push(micro(tracer, "goose.net.send_recv_us", || {
        let net = ModelNet::new(ModelRt::new(7, MAX_STEPS));
        let t = timed(|| {
            for _ in 0..OPS {
                net.send(&[7u8; 32]);
                black_box(net.recv());
            }
        });
        (t, OPS)
    }));

    const BLOCK: usize = 64;
    out.push(micro(tracer, "disk.buffered.write_flush_us", || {
        let disk = BufferedDisk::new(ModelRt::new(7, MAX_STEPS), 8, BLOCK);
        let t = timed(|| {
            for i in 0..OPS {
                disk.write(i % 8, &[i as u8; BLOCK]);
                disk.flush();
            }
        });
        (t, OPS)
    }));
    out.push(micro(tracer, "disk.buffered.crash_torn_us", || {
        // A Subset plan makes the crash decide write by write, the most
        // work `crash_torn` does; the 8 buffered writes are in the time.
        let plan = FaultPlan {
            torn: Some(TornMode::Subset(3)),
            ..FaultPlan::default()
        };
        let disk = BufferedDisk::new(ModelRt::with_faults(7, MAX_STEPS, plan), 8, BLOCK);
        let t = timed(|| {
            for i in 0..OPS / 4 {
                for a in 0..8 {
                    disk.write(a, &[i as u8; BLOCK]);
                }
                disk.crash_torn();
            }
        });
        (t, OPS / 4)
    }));
    out.push(micro(tracer, "disk.two.write_read_us", || {
        let disks = ModelTwoDisks::new(ModelRt::new(7, MAX_STEPS), 8, BLOCK);
        let t = timed(|| {
            for i in 0..OPS {
                disks.disk_write(DiskId::D1, i % 8, &[i as u8; BLOCK]);
                black_box(disks.disk_read(DiskId::D1, i % 8));
            }
        });
        (t, OPS)
    }));

    // The ghost engine keeps its refinement trace, so each batch gets a
    // fresh engine and stays the size of a long execution.
    const GHOST_OPS: u64 = 200;
    out.push(micro(tracer, "core.engine.op_cycle_us", || {
        let g = Ghost::new(RegSpec { size: 8 });
        let t = timed(|| {
            for i in 0..GHOST_OPS {
                let tok = g.begin_op(RegOp::Write(i % 8, i)).ghost_unwrap();
                let ret = g.commit_op(&tok).ghost_unwrap();
                g.finish_op(tok, &ret).ghost_unwrap();
            }
        });
        (t, GHOST_OPS)
    }));
    out.push(micro(tracer, "core.engine.durable_write_us", || {
        let g = Ghost::new(RegSpec { size: 8 });
        let (cell, mut lease) = g.alloc_durable(0u64);
        let t = timed(|| {
            for i in 0..GHOST_OPS {
                g.write_durable(cell, &mut lease, i).ghost_unwrap();
            }
        });
        (t, GHOST_OPS)
    }));
    out.push(micro(tracer, "core.engine.crash_recover_us", || {
        let g = Ghost::new(RegSpec { size: 8 });
        let (cell, _) = g.alloc_durable(0u64);
        let t = timed(|| {
            for _ in 0..GHOST_OPS {
                g.crash();
                black_box(g.recover_lease(cell).ghost_unwrap());
                g.recovery_done().ghost_unwrap();
            }
        });
        (t, GHOST_OPS)
    }));
    out.push(micro(tracer, "core.engine.validate_us", || {
        let g = Ghost::new(RegSpec { size: 8 });
        for i in 0..8 {
            let tok = g.begin_op(RegOp::Write(i, i)).ghost_unwrap();
            let ret = g.commit_op(&tok).ghost_unwrap();
            g.finish_op(tok, &ret).ghost_unwrap();
        }
        let t = timed(|| {
            for _ in 0..GHOST_OPS {
                black_box(g.validate().unwrap());
            }
        });
        (t, GHOST_OPS)
    }));
}

// ----------------------------------------------------------------------
// checker: one execution, telemetry, WAL parsing, codecs, linearize
// ----------------------------------------------------------------------

/// A round-robin execution with the given crash points, in the shape
/// `Scenario::replay` takes it.
fn round_robin(crash_points: Vec<u64>) -> Counterexample {
    Counterexample {
        outcome: ExecOutcome::Ok,
        pass: Pass::CrashSweep,
        index: 0,
        seed: 7,
        schedule_prefix: Vec::new(),
        crash_points,
        clamped: Vec::new(),
        faults: FaultPlan::default(),
        trace: String::new(),
        timeline: None,
    }
}

fn replay_micro(
    tracer: &mut Tracer,
    name: &'static str,
    scenario: &Scenario,
    crash_points: &[u64],
) -> Micro {
    const REPLAYS: u64 = 40;
    let cfg = Part::Verify.config(7, false).build();
    let cx = round_robin(crash_points.to_vec());
    micro(tracer, name, || {
        let t = timed(|| {
            for _ in 0..REPLAYS {
                let (outcome, _) = scenario.replay(&cx, &cfg);
                assert!(!outcome.is_failure(), "{name}: {outcome:?}");
            }
        });
        (t, REPLAYS)
    })
}

/// The `patterns/txn-wal` campaign under `verify`'s configuration with
/// telemetry into memory: the sample report and WAL text the recording
/// rows work on (the same records `observe` writes for that scenario).
fn sample_wal(scenario: &Scenario) -> (CheckReport, String) {
    let (sink, buf) = TelemetrySink::shared_buffer();
    let cfg = Part::Verify.config(7, false).telemetry(sink).build();
    let mut report = scenario.run(&cfg);
    report.name = scenario.name().to_string();
    let text = String::from_utf8(buf.lock().clone()).expect("telemetry is UTF-8");
    (report, text)
}

fn checker(tracer: &mut Tracer, out: &mut Vec<Micro>) {
    let good = perennial_suite::all_scenarios();
    let get = |name: &str| {
        good.get(name)
            .unwrap_or_else(|| panic!("no scenario {name}"))
    };
    let short = get("repldisk/single-write");
    out.push(replay_micro(tracer, "checker.exec_us.short", short, &[]));
    out.push(replay_micro(
        tracer,
        "checker.exec_us.long",
        get("mailboat/net-deliver"),
        &[],
    ));
    out.push(replay_micro(tracer, "checker.exec_crash_us", short, &[5]));

    const EVENTS: u64 = 2_000;
    out.push(micro(tracer, "checker.telemetry.emit_us", || {
        let (sink, buf) = TelemetrySink::shared_buffer();
        let t = timed(|| {
            for index in 0..EVENTS {
                sink.emit(&ev_exec_done(&ExecEvent {
                    pass: Pass::CrashSweep,
                    index,
                    seed: 0x9e37_79b9_7f4a_7c15 ^ index,
                    outcome: OutcomeKind::Ok,
                    steps: 28,
                    depth: 9,
                    crashes: 1,
                    helped: 0,
                    lock_blocks: 1,
                    disk_ops: 6,
                    net_msgs: 0,
                    disk_reads: 2,
                    disk_writes: 3,
                    disk_flushes: 1,
                    net_sends: 0,
                    net_recvs: 0,
                    trace_fp: 0xcbf2_9ce4_8422_2325 ^ index,
                    faults: "",
                    duration: Duration::from_micros(400),
                }));
            }
        });
        black_box(buf.lock().len());
        (t, EVENTS)
    }));

    let txn = get("patterns/txn-wal");
    let (report, wal) = sample_wal(txn);
    let records = wal.lines().count() as u64;
    out.push(micro(
        tracer,
        "checker.telemetry.parse_wal_us_per_record",
        || {
            let t = timed(|| {
                let replay = parse_wal(&wal, txn.name());
                assert_eq!(replay.torn_lines, 0);
                black_box(replay);
            });
            (t, records)
        },
    ));
    let values: Vec<serde_json::Value> = wal
        .lines()
        .map(|l| serde_json::from_str(l).expect("a WAL line the checker wrote parses"))
        .collect();
    out.push(micro_as(
        tracer,
        "shims.serde_json.parse_mb_s",
        mb_per_s,
        || {
            let t = timed(|| {
                for line in wal.lines() {
                    black_box(serde_json::from_str(line).unwrap());
                }
            });
            (t, wal.len() as u64)
        },
    ));
    out.push(micro_as(
        tracer,
        "shims.serde_json.write_mb_s",
        mb_per_s,
        || {
            let mut bytes = 0;
            let t = timed(|| {
                for v in &values {
                    bytes += serde_json::to_string(v).unwrap().len() as u64;
                }
            });
            (t, bytes)
        },
    ));

    const TRIPS: u64 = 20;
    out.push(micro(tracer, "checker.campaign.roundtrip_us", || {
        let t = timed(|| {
            for _ in 0..TRIPS {
                let text = serde_json::to_string(&report_to_json(&report)).unwrap();
                let back = report_from_json(&serde_json::from_str(&text).unwrap()).unwrap();
                black_box(back);
            }
        });
        (t, TRIPS)
    }));
    let wal_scenario = get("patterns/wal");
    let shards: Vec<CheckReport> = (0..2)
        .map(|i| wal_scenario.run(&Part::Verify.config(7, false).shard(i, 2).build()))
        .collect();
    out.push(micro(tracer, "checker.campaign.merge_us", || {
        let mut t = Duration::ZERO;
        for _ in 0..TRIPS {
            let input = shards.clone();
            t += timed(|| {
                black_box(merge_reports(input).expect("two shards of one run merge"));
            });
        }
        (t, TRIPS)
    }));

    // Eight overlapping register operations: four writers of one
    // register and four readers that each saw a different write.
    let history: Vec<HistOp<RegOp, Option<u64>>> = (0..8u64)
        .map(|i| HistOp {
            jid: Jid(i),
            op: if i < 4 {
                RegOp::Write(0, i + 1)
            } else {
                RegOp::Read(0)
            },
            ret: Some(if i < 4 { None } else { Some(i - 3) }),
            invoked_at: i,
            returned_at: 100 + i,
        })
        .collect();
    out.push(micro(tracer, "checker.linearize.check_us", || {
        const CHECKS: u64 = 20;
        let spec = RegSpec { size: 1 };
        let t = timed(|| {
            for _ in 0..CHECKS {
                let v = check_linearizable(&spec, &history, 1_000_000);
                assert_eq!(v, Verdict::Linearizable);
            }
        });
        (t, CHECKS)
    }));
}

/// Every unit-cost row, in the order the README lists them.
pub fn run_all(tracer: &mut Tracer) -> Vec<Micro> {
    let mut out = Vec::new();
    sched(tracer, &mut out);
    models(tracer, &mut out);
    checker(tracer, &mut out);
    out
}

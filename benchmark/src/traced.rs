//! The traced run: one untraced and one traced repetition, every unit
//! cost from [`crate::layers`], and the side experiments that belong to
//! the workload. End-to-end metrics never come from here.
//!
//! A workload that does not exercise a layer reports 0 for that layer's
//! workload-specific rows (README.md says which rows belong to which
//! workload): the result must carry every per-layer metric.

use crate::layers;
use crate::measure::{put, Measured, Measurements, Tally};
use crate::spans::Tracer;
use crate::sys;
use crate::workloads::{run_rep, wal_path, Channels, Rep, RunOpts, Workload};
use perennial_checker::{CheckConfigBuilder, Exhaustive, Pass};
use std::collections::BTreeMap;

/// The scenarios the one-consumer-at-a-time experiment runs on: small
/// enough to interleave five rounds of six configurations in the time cap.
const SIDE_CHANNEL_SUBSET: &str = "repldisk/";

fn pct(with: f64, base: f64) -> f64 {
    100.0 * (with - base) / base
}

pub fn run(
    w: &Workload,
    base: &RunOpts,
    env: &crate::Env,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Measurements {
    let mut m = Measurements::new();
    let usage0 = sys::rusage();
    let plain = run_rep(w, base, "untraced", &mut Tracer::new(false));
    let usage = sys::rusage().since(&usage0);
    tally.add(&plain);
    let rep = run_rep(w, base, "traced", tracer);
    tally.add(&rep);
    tally.attempted += 1;
    if rep.fingerprint != plain.fingerprint {
        tally
            .errors
            .push("traced and untraced repetitions disagree on the campaign fingerprint".into());
    }
    put(&mut m, "trace_overhead_pct", pct(rep.wall_s, plain.wall_s));
    put(&mut m, "proc.sys_cpu_share", usage.sys_share());

    let micros = layers::run_all(tracer);
    let unit_us: BTreeMap<&str, f64> = micros.iter().map(|x| (x.name, x.summary.median)).collect();
    for x in micros {
        m.insert(
            x.name.to_string(),
            Measured {
                value: x.summary.median,
                summary: Some(x.summary),
                count: Some(x.count),
            },
        );
    }

    // WAL records of the traced repetition: the count behind the
    // telemetry share (no WAL, no records, outside `observe`).
    let records: u64 = w
        .items
        .iter()
        .filter(|_| w.observed)
        .filter_map(|i| std::fs::read_to_string(wal_path(base.wal_dir, i.scenario.name())).ok())
        .map(|text| text.lines().count() as u64)
        .sum();
    campaign_rows(&mut m, &rep);
    attribution(&mut m, &rep, &unit_us, records);

    put(&mut m, "checker.telemetry.wal_bytes", rep.wal_bytes as f64);
    put(&mut m, "checker.telemetry.records", records as f64);
    let re_runs = rep.sum(|r| r.shrink_re_runs);
    put(&mut m, "checker.shrink.re_runs", re_runs as f64);
    let check_s = if w.observed { rep.check_s } else { 0.0 };
    put(&mut m, "checker.observe.check_wall_s", check_s);
    put(&mut m, "checker.resume.wall_s", rep.resume_s);
    put(&mut m, "checker.codec.wall_s", rep.codec_s);

    let ratio = match w.name {
        "hunt" => dpor_exec_ratio(w, base, &rep, tracer, tally),
        _ => 0.0,
    };
    put(&mut m, "checker.strategy.dpor_exec_ratio", ratio);
    let speedup = match (w.name, env.cpu, env.allowed.as_slice()) {
        ("verify", Some(cpu), [.., a, b]) => pool_speedup(w, base, cpu, &[*a, *b], tracer, tally),
        _ => 0.0,
    };
    put(&mut m, "checker.pool.speedup_w2", speedup);
    let overheads = if w.observed {
        channel_overheads(w, base, tracer, tally)
    } else {
        [0.0; 5]
    };
    for (name, value) in ["overhead", "wal", "profile", "trace", "shrink"]
        .iter()
        .zip(overheads)
    {
        put(&mut m, &format!("checker.observe.{name}_pct"), value);
    }
    m
}

/// Rates and deterministic counts of the first-derivation pass.
fn campaign_rows(m: &mut Measurements, rep: &Rep) {
    let (execs, steps) = (rep.sum(|r| r.executions), rep.sum(|r| r.steps));
    put(m, "checker.execs_per_s", execs as f64 / rep.check_s);
    put(m, "checker.us_per_step", 1e6 * rep.check_s / steps as f64);
    put(m, "checker.strategy.pruned", rep.sum(|r| r.pruned) as f64);
    for pass in Pass::ALL {
        let n: u64 = rep
            .rows
            .iter()
            .flat_map(|r| &r.per_pass)
            .filter(|(p, _)| *p == pass)
            .map(|(_, n)| n)
            .sum();
        let name = format!("checker.pass.{}.executions", pass.name());
        put(m, &name, n as f64);
    }
    for family in ["kv", "repldisk", "mailboat", "patterns"] {
        let rows: Vec<_> = rep.rows.iter().filter(|r| r.family() == family).collect();
        let execs: u64 = rows.iter().map(|r| r.executions).sum();
        let wall_s: f64 = rows.iter().map(|r| r.wall_s).sum();
        let steps: u64 = rows.iter().map(|r| r.steps).sum();
        let per_exec = format!("family.{family}.us_per_exec");
        put(m, &per_exec, 1e6 * wall_s / execs as f64);
        let steps_per_exec = format!("family.{family}.steps_per_exec");
        put(m, &steps_per_exec, steps as f64 / execs as f64);
    }
}

/// Outside-in attribution: unit cost × the repetition's deterministic
/// count ÷ its wall-clock. What the unit costs do not explain is what
/// spans inside the program must later resolve.
fn attribution(m: &mut Measurements, rep: &Rep, unit_us: &BTreeMap<&str, f64>, records: u64) {
    let us = |name: &str| unit_us[name];
    // Both disk rows time two model operations per iteration.
    let disk_op_us = (us("disk.buffered.write_flush_us") + us("disk.two.write_read_us")) / 4.0;
    let net_op_us = us("goose.net.send_recv_us") / 2.0;
    let costs_us = [
        (
            "goose.sched.grant",
            us("goose.sched.grant_us") * rep.sum(|r| r.steps) as f64,
        ),
        (
            "goose.sched.spawn_join",
            us("goose.sched.spawn_join_us") * rep.sum(|r| r.executions) as f64,
        ),
        (
            "goose.sched.crash_unwind",
            us("goose.sched.crash_unwind_us") * rep.sum(|r| r.crashes) as f64,
        ),
        ("disk", disk_op_us * rep.sum(|r| r.disk_ops) as f64),
        ("goose.net", net_op_us * rep.sum(|r| r.net_ops) as f64),
        (
            "telemetry",
            us("checker.telemetry.emit_us") * records as f64,
        ),
    ];
    let mut explained = 0.0;
    for (layer, cost_us) in costs_us {
        let share = cost_us / (1e6 * rep.check_s);
        explained += share;
        put(m, &format!("attrib.{layer}.share"), share);
    }
    put(m, "attrib.unexplained.share", 1.0 - explained);
}

/// `hunt` once more under `Exhaustive`: how many times the executions
/// sleep-set DPOR needs to reach the same 28 verdicts.
fn dpor_exec_ratio(
    w: &Workload,
    base: &RunOpts,
    dpor: &Rep,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> f64 {
    let exhaustive = |c: CheckConfigBuilder| c.strategy(Exhaustive);
    let opts = RunOpts {
        tweak: Some(&exhaustive),
        ..*base
    };
    let other = run_rep(w, &opts, "exhaustive", tracer);
    tally.add(&other);
    other.sum(|r| r.executions) as f64 / dpor.sum(|r| r.executions) as f64
}

/// `patterns/*` at `workers(2)` on two CPUs against pinned `workers(1)`.
/// Informational: 0 when the second CPU cannot be had.
fn pool_speedup(
    w: &Workload,
    base: &RunOpts,
    pinned: u32,
    two_cpus: &[u32],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> f64 {
    let part = w.subset("patterns/");
    let one = run_rep(&part, base, "workers-1", tracer);
    tally.add(&one);
    let two_workers = |c: CheckConfigBuilder| c.workers(2);
    let opts = RunOpts {
        tweak: Some(&two_workers),
        ..*base
    };
    let mut speedup = 0.0;
    if sys::set_affinity(two_cpus).is_ok() {
        let two = run_rep(&part, &opts, "workers-2", tracer);
        tally.add(&two);
        speedup = one.check_s / two.check_s;
    }
    // Back onto the one CPU before anything else is timed.
    let _ = sys::set_affinity(&[pinned]);
    speedup
}

/// All channels on, then one consumer at a time, against all off, over a
/// subset and interleaved. The overheads are a few percent and a shared
/// host drifts by more than that within a second, so each configuration
/// is taken at its fastest round: interference only ever adds time.
fn channel_overheads(
    w: &Workload,
    base: &RunOpts,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> [f64; 5] {
    const ROUNDS: usize = 5;
    let part = w.subset(SIDE_CHANNEL_SUBSET);
    let off = Channels::default();
    let configs = [
        off,
        Channels::ALL,
        Channels { wal: true, ..off },
        Channels {
            profile: true,
            ..off
        },
        Channels { trace: true, ..off },
        Channels {
            shrink: true,
            ..off
        },
    ];
    let mut fastest_s = [f64::INFINITY; 6];
    for round in 0..ROUNDS {
        for (i, channels) in configs.iter().enumerate() {
            let opts = RunOpts {
                channels: *channels,
                rederive: false,
                ..*base
            };
            let r = run_rep(&part, &opts, &format!("channels-{i}-{round}"), tracer);
            tally.add(&r);
            fastest_s[i] = fastest_s[i].min(r.check_s);
        }
    }
    let [off_s, with_s @ ..] = fastest_s;
    with_s.map(|s| pct(s, off_s))
}

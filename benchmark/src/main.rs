//! The repository's benchmark: wall-clock and executions to a verdict for
//! a whole checking campaign, with a traced run for per-layer numbers.
//!
//! ```text
//! benchmark --workload verify|hunt|faults|observe [--seed N] [--seconds S]
//!           [--trace 0|1] [--quick] [--out FILE]
//! benchmark compare A.json B.json
//! ```
//!
//! Run discipline (README.md has the measurements behind it): closed
//! loop, one client — `workers(1)`, so never more than one runnable
//! thread — in a process pinned to one CPU before the first `ModelRt`
//! exists. One invocation runs one workload: set-up (nine times, the
//! median is `setup_s`), then whole-campaign repetitions for `--seconds`.
//! The last line of stdout is the one JSON result; the full record, with
//! quartiles and per-scenario rows, goes to `benchmark/out/`.

mod compare;
mod layers;
mod measure;
mod oracle;
mod spans;
mod spec;
mod stats;
mod sys;
mod traced;
mod workloads;

use measure::{put, put_series, Measured, Measurements, Tally};
use oracle::Oracle;
use perennial_checker::{CheckConfigBuilder, EnvStamp, Pass};
use serde_json::{json, Map, Value};
use spans::Tracer;
use spec::{MetricDef, Spec};
use stats::{geomean, median};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{run_rep, Rep, RunOpts, Workload};

/// A campaign is repeated at least twice, so every run can assert that
/// one seed yields one campaign fingerprint.
const MIN_REPS: usize = 2;
const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String], default_seconds: f64) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: default_seconds,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "1" => true,
                    "0" => false,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of: {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// `benchmark/out/`, next to this crate's sources: inside the checkout
/// wherever the command is started from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Where and on what the numbers were taken.
struct Env {
    /// The CPU the process is pinned to; `None` where pinning was refused.
    cpu: Option<u32>,
    allowed: Vec<u32>,
    nproc: usize,
    warning: Option<String>,
}

/// Pins the process to the highest-numbered CPU it may use (interrupts
/// land on CPU 0 first). A refusal is recorded, not fatal: the numbers
/// are still numbers, just noisier, and the record says so.
fn pin() -> Env {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let allowed = sys::allowed_cpus();
    let (cpu, warning) = match allowed.last() {
        Some(&cpu) => match sys::set_affinity(&[cpu]) {
            Ok(()) => (Some(cpu), None),
            Err(e) => (None, Some(e)),
        },
        None => (None, Some("cannot read the CPU affinity mask".to_string())),
    };
    Env {
        cpu,
        allowed,
        nproc,
        warning: warning.map(|w| format!("not pinned ({w}): expect several times the spread")),
    }
}

impl Env {
    fn to_json(&self) -> Value {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            });
        json!({
            "pinned": self.cpu.is_some(),
            "cpu": self.cpu,
            "nproc": self.nproc,
            "rustc": EnvStamp::current(1, "").rustc,
            "commit": commit,
            "warning": self.warning,
        })
    }
}

/// Expected harness-assertion panics on virtual threads are verdicts, not
/// noise worth a backtrace each (the environment sets RUST_BACKTRACE=1).
/// Only the benchmark's own thread still reports a panic.
fn install_silent_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        if std::thread::current().name() == Some("main") {
            eprintln!("benchmark: {info}");
        }
    }));
}

/// One set-up: known answers, registries, the WAL directory, and a
/// warm-up repetition small enough to repeat (tiny budgets, no nested
/// sweep) that still takes every scenario through every enabled pass.
fn set_up(name: &str, seed: u64) -> Result<(Workload, Oracle, PathBuf), String> {
    let oracle = Oracle::load()?;
    let workload = Workload::new(name)?;
    let (good, bad) = (
        perennial_suite::all_scenarios(),
        perennial_suite::all_mutant_scenarios(),
    );
    oracle.require(good.names().into_iter().chain(bad.names()))?;
    let wal_dir = out_dir().join("wal").join(name);
    std::fs::create_dir_all(&wal_dir).map_err(|e| format!("{}: {e}", wal_dir.display()))?;
    let warm = |c: CheckConfigBuilder| {
        c.dfs_max_executions(8)
            .random_samples(2)
            .random_crash_samples(2)
            .without_passes([Pass::NestedCrash])
    };
    let opts = RunOpts {
        seed,
        quick: false,
        channels: workload.channels(),
        rederive: workload.observed,
        tweak: Some(&warm),
        wal_dir: &wal_dir,
        oracle: &oracle,
    };
    // Verdicts are not judged here: these budgets are too small to find
    // every seeded bug.
    run_rep(&workload, &opts, "warm-up", &mut Tracer::new(false));
    Ok((workload, oracle, wal_dir))
}

/// Each scenario's median time to its verdict over the repetitions, in
/// registry order.
fn verdict_ms(reps: &[Rep]) -> Vec<f64> {
    (0..reps[0].rows.len())
        .map(|i| 1e3 * median(&reps.iter().map(|r| r.rows[i].wall_s).collect::<Vec<_>>()))
        .collect()
}

/// What a person running the campaign pays or gets.
fn end_to_end(reps: &[Rep], setup_s: &[f64]) -> Measurements {
    let mut m = Measurements::new();
    let first = &reps[0];
    put_series(&mut m, "setup_s", setup_s);
    put_series(
        &mut m,
        "campaign_wall_s",
        &reps.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
    );
    put(&mut m, "executions", first.sum(|r| r.executions) as f64);
    put(
        &mut m,
        "distinct_traces",
        first.sum(|r| r.distinct_traces) as f64,
    );
    put(&mut m, "verdict_ms_geomean", geomean(&verdict_ms(reps)));
    put(
        &mut m,
        "execs_to_verdict_geomean",
        geomean(
            &first
                .rows
                .iter()
                .map(|r| r.executions as f64)
                .collect::<Vec<_>>(),
        ),
    );
    put(&mut m, "peak_rss_mb", sys::peak_rss_mb());
    m
}

fn metric_json(def: &MetricDef, x: &Measured, full: bool) -> Value {
    let mut o = Map::new();
    o.insert("value".into(), json!(x.value));
    o.insert("unit".into(), json!(def.unit));
    if full {
        o.insert(
            "better".into(),
            json!(if def.lower_is_better {
                "lower"
            } else {
                "higher"
            }),
        );
        if let Some(b) = def.bound {
            o.insert("bound".into(), json!(b));
        }
        if let Some(s) = &x.summary {
            o.insert("q1".into(), json!(s.q1));
            o.insert("q3".into(), json!(s.q3));
            o.insert("min".into(), json!(s.min));
            o.insert("n".into(), json!(s.n));
        }
        if let Some(c) = x.count {
            o.insert("count".into(), json!(c));
        }
    }
    Value::Object(o)
}

/// Exactly the metrics `BENCHMARK.json` lists, or what is missing.
fn select(defs: &[MetricDef], m: &Measurements, full: bool) -> Result<Value, String> {
    let mut out = Map::new();
    for def in defs {
        match m.get(&def.name) {
            Some(x) if x.value.is_finite() => {
                out.insert(def.name.clone(), metric_json(def, x, full));
            }
            Some(x) => return Err(format!("metric {} is {}", def.name, x.value)),
            None => return Err(format!("metric {} was not measured", def.name)),
        }
    }
    Ok(Value::Object(out))
}

fn print_table(defs: &[MetricDef], m: &Measurements) {
    eprintln!(
        "{:<46} {:>14} {:<6} {:<6} {:>5}  quartiles / min / n",
        "metric", "value", "unit", "better", "bound"
    );
    for def in defs {
        let Some(x) = m.get(&def.name) else { continue };
        let series = x.summary.map_or(String::new(), |s| {
            format!("[{:.4}, {:.4}] min {:.4} n={}", s.q1, s.q3, s.min, s.n)
        });
        eprintln!(
            "{:<46} {:>14.4} {:<6} {:<6} {:>5}  {series}",
            def.name,
            x.value,
            def.unit,
            if def.lower_is_better {
                "lower"
            } else {
                "higher"
            },
            def.bound
                .map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
        );
    }
}

/// What was run, where, and (for an untraced run) one row per scenario.
fn run_record(args: &Args, env: &Env, workload: &str, reps: &[Rep]) -> Map {
    let mut record = Map::new();
    record.insert("workload".into(), json!(workload));
    record.insert("seed".into(), json!(args.seed));
    record.insert("trace".into(), json!(args.trace));
    record.insert("quick".into(), json!(args.quick));
    record.insert("seconds".into(), json!(args.seconds));
    record.insert("env".into(), env.to_json());
    if let Some(first) = reps.first() {
        record.insert("reps".into(), json!(reps.len()));
        record.insert(
            "campaign_fingerprint".into(),
            json!(format!("{:#018x}", first.fingerprint)),
        );
        let rows: Vec<Value> = first
            .rows
            .iter()
            .zip(verdict_ms(reps))
            .map(|(row, ms)| {
                json!({
                    "name": row.name,
                    "verdict_ms": ms,
                    "executions": row.executions,
                    "steps": row.steps,
                })
            })
            .collect();
        record.insert("scenarios".into(), Value::Array(rows));
    }
    record
}

/// Whole-campaign repetitions until `--seconds` is used up: at least
/// [`MIN_REPS`], and one more only while that ends closer to the target
/// than stopping would. `--quick` runs exactly one.
fn timed_reps(
    workload: &Workload,
    opts: &RunOpts,
    args: &Args,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<Rep> {
    let mut reps: Vec<Rep> = Vec::new();
    let t0 = Instant::now();
    loop {
        let rep = run_rep(workload, opts, &reps.len().to_string(), tracer);
        tally.add(&rep);
        // Every repetition at one seed is the same campaign.
        tally.attempted += 1;
        if reps
            .first()
            .is_some_and(|r| r.fingerprint != rep.fingerprint)
        {
            tally.errors.push(format!(
                "repetition {} has another campaign fingerprint than repetition 0",
                reps.len()
            ));
        }
        reps.push(rep);
        let elapsed = t0.elapsed().as_secs_f64();
        let next_would_end = elapsed + 0.5 * elapsed / reps.len() as f64;
        if args.quick || (reps.len() >= MIN_REPS && next_would_end >= args.seconds) {
            return reps;
        }
    }
}

fn run(args: &Args, spec: &Spec) -> Result<i32, String> {
    install_silent_panic_hook();
    let env = pin();
    if let Some(w) = &env.warning {
        eprintln!("benchmark: warning: {w}");
    }

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        ready = Some(set_up(&args.workload, args.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (workload, oracle, wal_dir) = ready.expect("SETUPS > 0");
    let opts = RunOpts {
        seed: args.seed,
        quick: args.quick,
        channels: workload.channels(),
        rederive: workload.observed,
        tweak: None,
        wal_dir: &wal_dir,
        oracle: &oracle,
    };

    let mut tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let mut reps = Vec::new();
    let measurements = if args.trace {
        tracer.span("workload", workload.name, |t| {
            traced::run(&workload, &opts, &env, t, &mut tally)
        })
    } else {
        reps = timed_reps(&workload, &opts, args, &mut tracer, &mut tally);
        end_to_end(&reps, &setup_s)
    };
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir(out_dir().join("wal")); // only when no other run uses it

    let defs = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    print_table(defs, &measurements);
    let Tally { attempted, errors } = tally;
    for e in &errors {
        eprintln!("benchmark: verdict error: {e}");
    }
    let correct = errors.is_empty();
    let failed = (errors.len() as u64).min(attempted);

    let mut record = run_record(args, &env, workload.name, &reps);
    record.insert("correct".into(), json!(correct));
    record.insert("attempted".into(), json!(attempted));
    record.insert("failed".into(), json!(failed));
    record.insert("errors".into(), json!(errors));
    record.insert("metrics".into(), select(defs, &measurements, true)?);
    let record = Value::Object(record);
    let line = serde_json::to_string(&record).expect("shim serialization is infallible");

    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    if args.trace {
        // A repetition is nothing but calls into the layers: whatever its
        // spans do not cover is the benchmark's own cost.
        let rep_s = spans::total_s(tracer.spans(), "rep");
        let layer_s: f64 = ["checker.check", "resume", "codec"]
            .iter()
            .map(|name| spans::total_s(tracer.spans(), name))
            .sum();
        eprintln!(
            "spans: {} recorded; layer calls cover {:.2}% of the rep spans",
            tracer.spans().len(),
            100.0 * layer_s / rep_s
        );
        let doc = json!({
            "run": record,
            "rep_spans_s": rep_s,
            "layer_spans_s": layer_s,
            "spans": tracer.to_json(),
        });
        let path = out.join(format!("{}.trace.json", workload.name));
        let text = serde_json::to_string_pretty(&doc).expect("shim serialization is infallible");
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        let path = out.join(format!("{}.json", workload.name));
        std::fs::write(&path, format!("{line}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &args.out {
        use std::io::Write;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(defs, &measurements, false)?,
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("shim serialization is infallible")
    );
    Ok(i32::from(!correct))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&argv[1..]));
    }
    let outcome = Spec::load().and_then(|spec| {
        let args = parse_args(&argv, spec.run_seconds).map_err(|e| format!("{e}\n{USAGE}"))?;
        run(&args, &spec)
    });
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "usage: benchmark --workload verify|hunt|faults|observe [--seed N] \
[--seconds S] [--trace 0|1] [--quick] [--out FILE]\n       benchmark compare A.json B.json";

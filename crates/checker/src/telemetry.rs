//! Telemetry: the run's one JSONL event stream — its writer, its reader,
//! and the periodic progress line.
//!
//! Everything here is a **side channel**: the stream observes the
//! exploration but feeds nothing back into scheduling, seeding, or
//! counterexample selection, so a run with telemetry enabled reports
//! byte-for-byte the same [`crate::Counterexample`] as one without (pinned
//! by `tests/telemetry.rs`). The stream is at once telemetry, the resume
//! write-ahead log and the dashboard's input, and this module is the only
//! one that knows its format (DESIGN.md §11 is its schema), but for
//! `run_end`'s totals, which are report JSON's, stated once in
//! `campaign.rs`:
//!
//! - **In.** The executor's whole contact with the stream is five calls on
//!   [`RunTelemetry`]: [`open`](RunTelemetry::open) (`run_start`),
//!   [`pass`](RunTelemetry::pass) (`pass_end` of the previous pass,
//!   `pass_start`), [`exec_done`](RunTelemetry::exec_done),
//!   [`counterexample`](RunTelemetry::counterexample) and
//!   [`close`](RunTelemetry::close) (`pass_end`, `run_end`). With no stream
//!   open each returns before it formats anything. Four of the five build
//!   a [`Value`]; `exec_done`, called once per execution, writes its line
//!   straight from the fields, and the `Value` form ([`ev_exec_done`]) is
//!   the reference it is tested against. Event *content* is
//!   deterministic (timing fields excepted); event *order* is completion
//!   order, so it is canonical at `workers = 1` and
//!   interleaved-but-complete at higher pool sizes.
//! - **Out.** [`read_stream`] turns stream text back into typed
//!   [`Record`]s. It owns the line loop, the scenario filter and the
//!   all-or-nothing rule: a line that is not one whole record — torn by a
//!   kill, short of a field, or carrying a value the strict field readers
//!   of `json.rs` refuse — is counted and dropped, never read in part.
//!   [`parse_wal`] and [`crate::dashboard::Dashboard::ingest`] are two
//!   `match`es over it.
//!
//! [`TelemetrySink`] is the shared line writer underneath. The progress
//! line ([`CheckConfig::progress_every`]) is fed by live, wall-clock-ordered
//! counters that are *not* the numbers reported in [`crate::CheckReport`];
//! those are computed from canonical job outcomes (see [`crate::metrics`]).

use crate::campaign::{read_totals, with_totals};
use crate::explore::{CheckConfig, CheckReport, Counterexample};
use crate::json::{get, get_hex, get_str, get_u64, hex64, without_keys, ObjectLine};
use crate::metrics::OutcomeKind;
use crate::pass::{Pass, PassSet};
use goose_rt::fault::FaultPlan;
use goose_rt::sched::SchedStats;
use parking_lot::Mutex;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared handle to a JSONL event stream. Cloning shares the
/// underlying writer (all clones append to the same stream).
#[derive(Clone)]
pub struct TelemetrySink {
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
    /// First write error, if any. Telemetry never aborts a check, but a
    /// campaign resuming from this stream would silently lose progress,
    /// so the error surfaces in `CheckReport::incomplete`.
    error: Arc<Mutex<Option<String>>>,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySink").finish_non_exhaustive()
    }
}

impl TelemetrySink {
    /// Streams events into any writer (a file, a pipe, a test buffer).
    pub fn to_writer(w: impl Write + Send + 'static) -> Self {
        TelemetrySink {
            writer: Arc::new(Mutex::new(Box::new(w))),
            error: Arc::new(Mutex::new(None)),
        }
    }

    /// Creates (truncates) a JSONL file at `path`.
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::to_writer(std::io::BufWriter::new(f)))
    }

    /// Opens `path` for appending, creating it if absent — the WAL mode
    /// used when a resumed run checkpoints into the stream it replayed.
    pub fn append_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self::to_writer(std::io::BufWriter::new(f)))
    }

    /// A sink backed by an in-memory buffer, plus the buffer — the
    /// test-side way to capture and inspect a stream.
    pub fn shared_buffer() -> (Self, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (TelemetrySink::to_writer(SharedBuf(Arc::clone(&buf))), buf)
    }

    /// Appends one event as a compact JSON line. Write errors never
    /// abort the check; the first one is recorded and surfaced via
    /// [`TelemetrySink::last_error`].
    pub fn emit(&self, event: &Value) {
        let mut line = serde_json::to_string(event).expect("shim serialization is infallible");
        line.push('\n');
        self.write_line(&line);
    }

    /// Appends `line`, which ends with its newline, in one write, and
    /// flushes: a kill between records leaves whole lines, a kill inside
    /// one at most a torn last line.
    fn write_line(&self, line: &str) {
        let mut w = self.writer.lock();
        if let Err(e) = w.write_all(line.as_bytes()).and_then(|()| w.flush()) {
            let mut slot = self.error.lock();
            if slot.is_none() {
                *slot = Some(e.to_string());
            }
        }
    }

    /// The first write error this sink hit, if any.
    pub fn last_error(&self) -> Option<String> {
        self.error.lock().clone()
    }
}

struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The owner of one run's event stream: the executor's whole contact
/// with telemetry is [`open`](Self::open), [`pass`](Self::pass),
/// [`exec_done`](Self::exec_done), [`counterexample`](Self::counterexample)
/// and [`close`](Self::close). `pass` and `close` take `&mut self`: pass
/// bookkeeping belongs to the coordinating thread, so the order of
/// `pass_start`/`pass_end` records is deterministic for a fixed config.
pub struct RunTelemetry {
    stream: Option<TelemetrySink>,
    /// The name the run goes by — a registered scenario's registry name
    /// — stamped onto every record.
    name: String,
    /// `name` as a JSON string literal, escaped once for every
    /// `exec_done` line.
    name_json: String,
    /// The `exec_done` line being written: one buffer for the whole run.
    line: Mutex<String>,
    open_error: Option<String>,
    announced: PassSet,
    /// The pass whose timed `pass_end` record is still owed: each
    /// `pass_start` closes the previous pass, `close` the last one.
    open_pass: Option<(Pass, Instant)>,
    /// Print the progress line every this many executions (0 = never).
    progress_every: u64,
    start: Instant,
    /// Executions, steps and failures so far, in completion order: the
    /// progress line's feed, untouched while it is off.
    live: [AtomicU64; 3],
}

impl RunTelemetry {
    /// Opens the run's stream — the configured shared sink, or the file
    /// path (appending when it is also the file the WAL was replayed from,
    /// truncating otherwise) — and writes its `run_start` record. A file
    /// that cannot be opened degrades the run to no stream, reported by
    /// [`open_error`](Self::open_error), instead of aborting it.
    pub fn open(name: &str, config: &CheckConfig, workers: usize) -> Self {
        let mut open_error = None;
        let stream = config.telemetry.clone().or_else(|| {
            config.telemetry_path.as_ref().and_then(|p| {
                let same = config.resume_from.as_deref() == Some(p.as_path());
                let opened = if same {
                    TelemetrySink::append_file(p)
                } else {
                    TelemetrySink::to_file(p)
                };
                match opened {
                    Ok(sink) => Some(sink),
                    Err(e) => {
                        let msg = format!("telemetry file {}: {e}", p.display());
                        eprintln!("[checker] {name}: {msg}; continuing without a stream");
                        open_error = Some(msg);
                        None
                    }
                }
            })
        });
        let telem = RunTelemetry {
            stream,
            name: name.to_string(),
            name_json: serde_json::to_string(&name).expect("shim serialization is infallible"),
            line: Mutex::new(String::new()),
            open_error,
            announced: PassSet::empty(),
            open_pass: None,
            progress_every: config.progress_every,
            start: Instant::now(),
            live: Default::default(),
        };
        telem.emit(|| run_start_record(config, workers));
        telem
    }

    /// Why the configured telemetry file could not be opened, if it could
    /// not (no checkpoint is being written).
    pub fn open_error(&self) -> Option<&str> {
        self.open_error.as_deref()
    }

    /// The first write error the stream hit, if any.
    pub fn stream_error(&self) -> Option<String> {
        self.stream.as_ref().and_then(|s| s.last_error())
    }

    /// Writes the record `build` makes, stamped with the scenario so that
    /// streams holding several scenarios' runs (`scenario_smoke
    /// --telemetry`) stay attributable line by line — and resumable: the
    /// stamp is the key [`parse_wal`] filters by, so it must be unique to
    /// the scenario, which the registry name is and a harness's label is
    /// not. With no stream open `build` never runs.
    fn emit(&self, build: impl FnOnce() -> Value) {
        if let Some(stream) = &self.stream {
            stream.emit(&stamped(build(), &self.name));
        }
    }

    /// A wave of `pass` is about to run: the first time, closes the
    /// previous pass with its timed `pass_end` and announces this one.
    pub fn pass(&mut self, pass: Pass) {
        if self.announced.contains(pass) {
            return;
        }
        self.announced.insert(pass);
        self.end_pass();
        self.open_pass = Some((pass, Instant::now()));
        self.emit(|| json!({ "type": "pass_start", "pass": pass.name(), "rank": pass.rank() }));
    }

    fn end_pass(&mut self) {
        if let Some((pass, started)) = self.open_pass.take() {
            self.emit(|| pass_end_record(pass, started.elapsed()));
        }
    }

    /// One execution of `job` (its pass and index within the pass) ended:
    /// the `exec_done` record, which doubles as the WAL entry, and the
    /// progress line when its cadence says so. A run writes one such
    /// record per execution where every other record is a handful per
    /// run, so this one goes from the fields straight into its line:
    /// byte for byte `to_string(stamped(ev_exec_done(..), name))`, with
    /// no tree in between.
    pub fn exec_done(
        &self,
        job: (Pass, u64),
        seed: u64,
        outcome: OutcomeKind,
        stats: &ExecStats,
        faults: &FaultPlan,
        duration: Duration,
    ) {
        if let Some(stream) = &self.stream {
            let mut line = self.line.lock();
            line.clear();
            let mut o = ObjectLine::open(&mut line);
            o.count("crashes", stats.crashes);
            o.count("depth", stats.depth);
            o.count("disk_flushes", stats.disk_flushes);
            o.count("disk_ops", stats.disk_ops);
            o.count("disk_reads", stats.disk_reads);
            o.count("disk_writes", stats.disk_writes);
            o.count("duration_us", duration.as_micros() as u64);
            o.plain("faults", |out| {
                let _ = faults.write_compact(out);
            });
            o.count("helped", stats.helped);
            o.count("index", job.1);
            o.count("lock_blocks", stats.lock_blocks);
            o.count("net_msgs", stats.net_msgs);
            o.count("net_recvs", stats.net_recvs);
            o.count("net_sends", stats.net_sends);
            o.plain("outcome", |out| out.push_str(outcome.name()));
            o.plain("pass", |out| out.push_str(job.0.name()));
            o.literal("scenario", &self.name_json);
            o.hex("seed", seed);
            o.count("steps", stats.steps);
            o.hex("trace_fp", stats.trace_fp);
            o.plain("type", |out| out.push_str("exec_done"));
            o.close();
            line.push('\n');
            stream.write_line(&line);
        }
        if self.progress_every > 0 {
            let [executions, steps, failures] = &self.live;
            steps.fetch_add(stats.steps, Ordering::Relaxed);
            failures.fetch_add(u64::from(outcome != OutcomeKind::Ok), Ordering::Relaxed);
            let n = executions.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(self.progress_every) {
                eprintln!("{}", self.progress_line());
            }
        }
    }

    /// The progress line (stderr, so it never pollutes piped output).
    fn progress_line(&self) -> String {
        let [executions, steps, failures] = self.live.each_ref().map(|n| n.load(Ordering::Relaxed));
        let rate = executions as f64 / self.start.elapsed().as_secs_f64().max(1e-9);
        format!(
            "[checker] {}: {executions} execs, {steps} steps, {failures} failures, {rate:.0} execs/s",
            self.name
        )
    }

    /// A failure was found: its replay coordinates (pass, index, seed,
    /// schedule prefix, crash points, fault plan).
    pub fn counterexample(&self, cx: &Counterexample) {
        self.emit(|| {
            json!({
                "type": "counterexample",
                "pass": cx.pass.name(),
                "index": cx.index,
                "seed": hex64(cx.seed),
                "outcome": OutcomeKind::of(&cx.outcome).name(),
                "crash_points": cx.crash_points,
                "schedule_prefix": cx.schedule_prefix,
                "faults": cx.faults.compact(),
            })
        });
    }

    /// The run is over: the last pass's `pass_end`, then `run_end` with
    /// the report's totals and verdict.
    pub fn close(&mut self, report: &CheckReport) {
        self.end_pass();
        self.emit(|| run_end_record(report));
    }
}

/// `record` with its `scenario` stamp.
pub(crate) fn stamped(mut record: Value, scenario: &str) -> Value {
    if let Value::Object(map) = &mut record {
        map.insert("scenario".to_string(), Value::String(scenario.to_string()));
    }
    record
}

/// Where a record was produced: toolchain, crate version, worker count,
/// and strategy. Stamped on every `run_start` record and on campaign
/// report JSON / perf baselines, so streams and baselines from
/// different machines are comparable — a perf diff against a baseline
/// built by a different rustc or worker count is flagged, not silently
/// trusted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvStamp {
    /// `rustc --version` of the compiler that built the checker.
    pub rustc: String,
    /// The checker crate's own version (`CARGO_PKG_VERSION`).
    pub crate_version: String,
    /// Worker-thread count the run used.
    pub workers: u64,
    /// Exploration strategy name (`exhaustive`, `dpor`, `coverage`).
    pub strategy: String,
}

impl EnvStamp {
    /// The stamp for this build and run configuration.
    pub fn current(workers: u64, strategy: &str) -> Self {
        EnvStamp {
            rustc: env!("CHECKER_RUSTC_VERSION").to_string(),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            workers,
            strategy: strategy.to_string(),
        }
    }

    /// Serializes the stamp as the `env` object of a `run_start` record.
    pub fn to_json(&self) -> Value {
        json!({
            "rustc": self.rustc,
            "crate_version": self.crate_version,
            "workers": self.workers,
            "strategy": self.strategy,
        })
    }

    /// Parses a stamp back out of report/baseline JSON; `None` when any
    /// field is missing or mistyped.
    pub fn from_json(v: &Value) -> Option<EnvStamp> {
        let Value::Object(m) = v else { return None };
        Some(EnvStamp {
            rustc: get_str(m, "rustc").ok()?.to_string(),
            crate_version: get_str(m, "crate_version").ok()?.to_string(),
            workers: get_u64(m, "workers").ok()?,
            strategy: get_str(m, "strategy").ok()?.to_string(),
        })
    }
}

/// The `run_start` record: the full deterministic configuration of the
/// run. Deliberately excludes observer-only knobs (trace capture,
/// profiling, shrinking) so enabling them never invalidates a WAL.
fn run_start_record(config: &CheckConfig, workers: usize) -> Value {
    json!({
        "type": "run_start",
        "seed": hex64(config.seed),
        "workers": workers,
        "env": EnvStamp::current(workers as u64, config.strategy.name()).to_json(),
        "max_steps": config.max_steps,
        "dfs_max_executions": config.dfs_max_executions,
        "random_samples": config.random_samples,
        "random_crash_samples": config.random_crash_samples,
        "passes": config.passes.iter().map(Pass::name).collect::<Vec<_>>(),
        "strategy": config.strategy.name(),
        "keep_going": config.keep_going,
        "shard": config.shard.map(|(i, n)| format!("{i}/{n}")),
        "exec_budget": config.exec_budget,
    })
}

/// The keys of a `run_start` record that say where the run happened, not
/// what it explored.
const POOL_KEYS: [&str; 2] = ["workers", "env"];

/// A `run_start` record read back: what the run it opened explored.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStart(Value);

impl RunStart {
    /// Whether this record opened a run of `name` under `config`. The pool
    /// size and the environment stamp are left out of the comparison — a
    /// WAL from another machine replays, because every replayed statistic
    /// is deterministic; everything else (seed, budgets, passes, strategy,
    /// shard) must agree, or replayed statistics would be lies.
    pub fn same_run(&self, name: &str, config: &CheckConfig) -> bool {
        let want = stamped(run_start_record(config, 0), name);
        self.0 == without_keys(&want, &POOL_KEYS)
    }
}

/// Closes a pass with its wall-time profile. `duration_us` is a
/// [`TIMING_KEYS`] member, so byte-stability comparisons see a stable
/// record while dashboards get a per-pass wall profile.
pub(crate) fn pass_end_record(pass: Pass, duration: Duration) -> Value {
    json!({
        "type": "pass_end",
        "pass": pass.name(),
        "rank": pass.rank(),
        "duration_us": (duration.as_micros() as u64),
    })
}

/// One finished execution, as recorded in the JSONL stream. The record
/// doubles as the campaign WAL entry: it carries every deterministic
/// statistic a resumed run needs to reconstruct the execution's
/// outcome record without re-running it.
#[derive(Debug, Clone)]
pub struct ExecEvent<'a> {
    /// Which pass produced this execution.
    pub pass: Pass,
    /// The execution's index within its pass (job key = rank + index).
    pub index: u64,
    /// The per-execution PRNG seed.
    pub seed: u64,
    /// How the execution ended.
    pub outcome: OutcomeKind,
    /// Scheduler grants consumed.
    pub steps: u64,
    /// Deepest schedule depth reached.
    pub depth: u64,
    /// Crashes injected during the execution.
    pub crashes: u64,
    /// Helping steps granted to blocked threads.
    pub helped: u64,
    /// Times a thread blocked on a contended lock.
    pub lock_blocks: u64,
    /// Total disk operations (reads + writes + flushes).
    pub disk_ops: u64,
    /// Total network messages (sends + receives).
    pub net_msgs: u64,
    /// Disk reads performed.
    pub disk_reads: u64,
    /// Disk writes performed.
    pub disk_writes: u64,
    /// Disk flushes performed.
    pub disk_flushes: u64,
    /// Network sends performed.
    pub net_sends: u64,
    /// Network receives performed.
    pub net_recvs: u64,
    /// FNV fingerprint of the execution's ghost trace.
    pub trace_fp: u64,
    /// Compact description of the fault plan in force (empty = none).
    pub faults: &'a str,
    /// Wall-clock time the execution took (a [`TIMING_KEYS`] field).
    pub duration: Duration,
}

impl<'a> ExecEvent<'a> {
    /// The event for one finished execution: its job identity and ending
    /// around what it measured.
    pub fn new(
        pass: Pass,
        index: u64,
        seed: u64,
        outcome: OutcomeKind,
        stats: &ExecStats,
        faults: &'a str,
        duration: Duration,
    ) -> Self {
        ExecEvent {
            pass,
            index,
            seed,
            outcome,
            steps: stats.steps,
            depth: stats.depth,
            crashes: stats.crashes,
            helped: stats.helped,
            lock_blocks: stats.lock_blocks,
            disk_ops: stats.disk_ops,
            net_msgs: stats.net_msgs,
            disk_reads: stats.disk_reads,
            disk_writes: stats.disk_writes,
            disk_flushes: stats.disk_flushes,
            net_sends: stats.net_sends,
            net_recvs: stats.net_recvs,
            trace_fp: stats.trace_fp,
            faults,
            duration,
        }
    }
}

/// The `exec_done` record (also the campaign WAL entry) for one
/// finished execution, as a tree: the schema in one place, and the
/// reference [`RunTelemetry::exec_done`]'s line is tested against.
pub fn ev_exec_done(e: &ExecEvent<'_>) -> Value {
    json!({
        "type": "exec_done",
        "pass": e.pass.name(),
        "index": e.index,
        "seed": hex64(e.seed),
        "outcome": e.outcome.name(),
        "steps": e.steps,
        "depth": e.depth,
        "crashes": e.crashes,
        "helped": e.helped,
        "lock_blocks": e.lock_blocks,
        "disk_ops": e.disk_ops,
        "net_msgs": e.net_msgs,
        "disk_reads": e.disk_reads,
        "disk_writes": e.disk_writes,
        "disk_flushes": e.disk_flushes,
        "net_sends": e.net_sends,
        "net_recvs": e.net_recvs,
        "trace_fp": hex64(e.trace_fp),
        "faults": e.faults,
        "duration_us": (e.duration.as_micros() as u64),
    })
}

/// The `run_end` record: the report's deterministic totals and verdict.
/// `RunEnd::from_json` reads it back.
pub(crate) fn run_end_record(report: &CheckReport) -> Value {
    let c = &report.coverage;
    let record = json!({
        "type": "run_end",
        "passed": report.passed(),
        "counterexamples": report.counterexamples.len(),
        "crash_points_exercised": c.crash_points_exercised,
        "crash_points_enumerable": c.crash_points_enumerable,
        "fault_plans_exercised": c.fault_plans_exercised(),
        "fault_plans_enumerable": c.fault_plans_enumerable(),
        "distinct_traces": c.distinct_traces,
    });
    let mut ev = with_totals(record, report, true);
    // Shrink bookkeeping rides along only when shrinking actually ran,
    // so shrink-off streams stay byte-identical to pre-shrink ones.
    if let (Some(s), Value::Object(map)) = (&report.shrink, &mut ev) {
        for (key, n) in [
            ("shrink_steps_removed", s.steps_removed),
            ("shrink_rounds", s.rounds),
            ("shrink_re_runs", s.re_runs),
        ] {
            map.insert(key.to_string(), serde_json::to_value(&n));
        }
    }
    ev
}

/// A `run_end` record read back: one run's verdict, and its totals as
/// far as the record carries them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunEnd {
    /// Whether the verdict was a pass (`report` holds no counterexample,
    /// so its own `passed()` cannot say).
    pub passed: bool,
    /// Counterexamples the run recorded.
    pub counterexamples: u64,
    /// The totals the record carries, read through the report's counter
    /// table: counters, outcome tally, strategy, shard, incomplete marks
    /// and timing, and coverage. The fault plans come summed over the
    /// families, in the first family's slot, which the family sums and
    /// `Coverage::merge` read alike.
    pub report: Box<CheckReport>,
}

impl RunEnd {
    /// Reads a `run_end` record: all or nothing, like every record.
    fn from_json(m: &Map) -> Result<Self, String> {
        let mut report = read_totals(m, true)?;
        let c = &mut report.coverage;
        c.crash_points_exercised = get_u64(m, "crash_points_exercised")?;
        c.crash_points_enumerable = get_u64(m, "crash_points_enumerable")?;
        c.plans_exercised[0] = get_u64(m, "fault_plans_exercised")?;
        c.plans_enumerable[0] = get_u64(m, "fault_plans_enumerable")?;
        c.distinct_traces = get_u64(m, "distinct_traces")?;
        Ok(RunEnd {
            passed: match get(m, "passed")? {
                Value::Bool(b) => *b,
                v => return Err(format!("passed: expected a boolean, got {v:?}")),
            },
            counterexamples: get_u64(m, "counterexamples")?,
            report: Box::new(report),
        })
    }
}

/// Keys whose values are wall-clock dependent. Strip these before
/// comparing two streams of the same seeded run for byte equality.
/// `busy_time_us` and `utilization` appear only in profile JSON
/// ([`crate::profile::profile_to_json`]), never in telemetry events, so
/// extending the list cannot destabilize existing streams.
pub const TIMING_KEYS: [&str; 5] = [
    "duration_us",
    "wall_time_s",
    "execs_per_sec",
    "busy_time_us",
    "utilization",
];

/// Validates one JSONL line: parseable, an object, with a string
/// `type`. Returns the event type.
pub fn validate_json_line(line: &str) -> Result<String, String> {
    match serde_json::from_str(line).map_err(|e| e.to_string())? {
        Value::Object(map) => Ok(get_str(&map, "type")?.to_string()),
        _ => Err("telemetry line is not a JSON object".to_string()),
    }
}

/// What one execution measured: every deterministic per-execution
/// counter, built once when the execution ends, carried by value to
/// aggregation, and written into its `exec_done` record — from which a
/// resumed run reads it back instead of re-running the execution, so a
/// resumed report aggregates exactly like a cold one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Scheduler grants consumed, plus one per injected crash.
    pub steps: u64,
    /// Schedule decisions taken.
    pub depth: u64,
    /// Crashes injected during the execution.
    pub crashes: u64,
    /// Operations helped by recovery.
    pub helped: u64,
    /// Times a thread parked on a held lock. Per-lock attribution is
    /// not part of the record and is empty on replay.
    pub lock_blocks: u64,
    /// Disk operations attempted (the transient-error sweep's horizon).
    pub disk_ops: u64,
    /// Network messages sent (the net-fault sweep's horizon).
    pub net_msgs: u64,
    /// Disk block reads.
    pub disk_reads: u64,
    /// Disk block writes, buffered or write-through.
    pub disk_writes: u64,
    /// Disk flush barriers.
    pub disk_flushes: u64,
    /// Network sends that reached a channel.
    pub net_sends: u64,
    /// Network receives that dequeued a message.
    pub net_recvs: u64,
    /// FNV-1a fingerprint of the rendered ghost trace.
    pub trace_fp: u64,
}

impl ExecStats {
    /// The record of an execution that just ended: the runtime's
    /// counters plus what only the explorer's pilot and the ghost state
    /// know.
    pub fn new(
        sched: &SchedStats,
        steps: u64,
        depth: u64,
        crashes: u64,
        helped: u64,
        trace_fp: u64,
    ) -> Self {
        ExecStats {
            steps,
            depth,
            crashes,
            helped,
            lock_blocks: sched.lock_blocks,
            disk_ops: sched.disk_ops,
            net_msgs: sched.net_msgs,
            disk_reads: sched.disk_reads,
            disk_writes: sched.disk_writes,
            disk_flushes: sched.disk_flushes,
            net_sends: sched.net_sends,
            net_recvs: sched.net_recvs,
            trace_fp,
        }
    }

    /// Reads the record back out of an `exec_done` object. All or
    /// nothing: a record missing a counter (truncated, or written by
    /// something else) is an error, never a record with zeros in it.
    fn from_json(m: &Map) -> Result<Self, String> {
        Ok(ExecStats {
            steps: get_u64(m, "steps")?,
            depth: get_u64(m, "depth")?,
            crashes: get_u64(m, "crashes")?,
            helped: get_u64(m, "helped")?,
            lock_blocks: get_u64(m, "lock_blocks")?,
            disk_ops: get_u64(m, "disk_ops")?,
            net_msgs: get_u64(m, "net_msgs")?,
            disk_reads: get_u64(m, "disk_reads")?,
            disk_writes: get_u64(m, "disk_writes")?,
            disk_flushes: get_u64(m, "disk_flushes")?,
            net_sends: get_u64(m, "net_sends")?,
            net_recvs: get_u64(m, "net_recvs")?,
            trace_fp: get_hex(m, "trace_fp")?,
        })
    }

    /// Model operations of every kind (the profiler's folded count).
    pub fn model_ops(&self) -> u64 {
        self.disk_reads + self.disk_writes + self.disk_flushes + self.net_sends + self.net_recvs
    }
}

/// One whole record of a stream, typed. A variant exists for what some
/// reader consumes; every other well-formed record is [`Record::Other`].
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// `run_start`: a run opened (the WAL loader's config guard).
    RunStart(RunStart),
    /// `exec_done`: one execution finished.
    ExecDone {
        /// The pass it ran under; `(pass.rank(), index)` is its job key.
        pass: Pass,
        /// Its index within the pass.
        index: u64,
        /// Whether its outcome was `ok` (only those are replayable).
        ok: bool,
        /// What it measured.
        stats: ExecStats,
    },
    /// `pass_end`: a pass closed after `duration` on the wall clock.
    PassEnd {
        /// The pass.
        pass: Pass,
        /// Wall time from its `pass_start` to the next pass's.
        duration: Duration,
    },
    /// `run_end`: a run finished with these totals.
    RunEnd(RunEnd),
    /// A well-formed record of a type no reader consumes (`pass_start`,
    /// `counterexample`, or one a later writer added).
    Other,
}

impl Record {
    /// The one place that decides whether a record is whole: an object
    /// with a string `type` and `scenario` and, when typed, every field of
    /// its variant, each passing its strict reader. Returns the scenario
    /// stamp with the record.
    fn from_json(v: &Value) -> Result<(&str, Record), String> {
        let Value::Object(m) = v else {
            return Err("not an object".to_string());
        };
        let pass = || get_str(m, "pass")?.parse::<Pass>();
        let record = match get_str(m, "type")? {
            "run_start" => Record::RunStart(RunStart(without_keys(v, &POOL_KEYS))),
            "exec_done" => {
                let outcome = get_str(m, "outcome")?;
                if !OutcomeKind::ALL.iter().any(|kind| kind.name() == outcome) {
                    return Err(format!("unknown outcome {outcome:?}"));
                }
                Record::ExecDone {
                    pass: pass()?,
                    index: get_u64(m, "index")?,
                    ok: outcome == OutcomeKind::Ok.name(),
                    stats: ExecStats::from_json(m)?,
                }
            }
            "pass_end" => Record::PassEnd {
                pass: pass()?,
                duration: Duration::from_micros(get_u64(m, "duration_us")?),
            },
            "run_end" => Record::RunEnd(RunEnd::from_json(m)?),
            _ => Record::Other,
        };
        Ok((get_str(m, "scenario")?, record))
    }
}

/// Reads a JSONL stream: calls `each` with the scenario stamp and the
/// typed form of every whole record, and returns how many non-empty lines
/// were not one — unparseable (a SIGKILL mid-write leaves at most one torn
/// final line), not an object, or failing [`Record`]'s all-or-nothing
/// rule. With `only`, records stamped with another scenario are passed
/// over (streams can hold several scenarios: `scenario_smoke` appends all
/// of them to one file).
pub fn read_stream(text: &str, only: Option<&str>, mut each: impl FnMut(&str, Record)) -> u64 {
    let mut torn_lines = 0;
    for line in text.lines().filter(|line| !line.trim().is_empty()) {
        let Ok(v) = serde_json::from_str(line) else {
            torn_lines += 1;
            continue;
        };
        match Record::from_json(&v) {
            Ok((scenario, record)) if only.is_none_or(|wanted| wanted == scenario) => {
                each(scenario, record)
            }
            Ok(_) => {}
            Err(_) => torn_lines += 1,
        }
    }
    torn_lines
}

/// The recovered state of an interrupted (or completed) run: which
/// executions finished, plus enough metadata to sanity-check that the
/// WAL belongs to the configuration about to resume.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Successfully completed executions by job key `(pass rank, index)`.
    /// Only `ok` outcomes are recorded: failures are cheap to re-run and
    /// must be, to regenerate their counterexample payloads.
    pub completed: BTreeMap<(u8, u64), ExecStats>,
    /// Number of `run_start` records seen (1 = first resume of a clean
    /// run; more = the WAL has been resumed into before).
    pub runs_started: u64,
    /// Lines that were not one whole record (see [`read_stream`]); their
    /// executions, if any, re-run.
    pub torn_lines: u64,
    /// The last `run_start` record, for the config guard.
    pub run_start: Option<RunStart>,
}

/// Parses a JSONL telemetry stream as a write-ahead log for `scenario`:
/// its `ok` executions by job key and its last `run_start`.
pub fn parse_wal(text: &str, scenario: &str) -> WalReplay {
    let mut wal = WalReplay::default();
    wal.torn_lines = read_stream(text, Some(scenario), |_, record| match record {
        Record::RunStart(run_start) => {
            wal.runs_started += 1;
            wal.run_start = Some(run_start);
        }
        Record::ExecDone {
            pass,
            index,
            ok: true,
            stats,
        } => {
            wal.completed.insert((pass.rank(), index), stats);
        }
        _ => {}
    });
    wal
}

/// Reads `path` and parses it as a WAL for `scenario`. Invalid UTF-8 is
/// replaced rather than fatal — the log survives arbitrary torn tails.
pub fn read_wal(path: impl AsRef<Path>, scenario: &str) -> std::io::Result<WalReplay> {
    let bytes = std::fs::read(path)?;
    Ok(parse_wal(&String::from_utf8_lossy(&bytes), scenario))
}

/// Rebuilds a parsed event without its [`TIMING_KEYS`] (recursively) —
/// the canonical form for byte-stability comparisons.
pub fn strip_timing(v: &Value) -> Value {
    without_keys(v, &TIMING_KEYS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn sink_emits_one_line_per_event() {
        let (sink, buf) = TelemetrySink::shared_buffer();
        sink.emit(&json!({ "type": "run_start", "scenario": "t" }));
        sink.emit(&json!({ "type": "run_end" }));
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(validate_json_line(lines[0]).unwrap(), "run_start");
        assert_eq!(validate_json_line(lines[1]).unwrap(), "run_end");
    }

    #[test]
    fn clones_share_the_stream() {
        let (sink, buf) = TelemetrySink::shared_buffer();
        let clone = sink.clone();
        sink.emit(&json!({ "type": "a" }));
        clone.emit(&json!({ "type": "b" }));
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
    }

    const STATS: ExecStats = ExecStats {
        steps: 7,
        depth: 3,
        crashes: 1,
        helped: 2,
        lock_blocks: 6,
        disk_ops: 4,
        net_msgs: 5,
        disk_reads: 11,
        disk_writes: 12,
        disk_flushes: 13,
        net_sends: 14,
        net_recvs: 15,
        trace_fp: 0xdead_beef,
    };

    fn sample_cx() -> Counterexample {
        Counterexample {
            outcome: crate::ExecOutcome::Deadlock,
            pass: Pass::CrashSweep,
            index: 3,
            seed: 0xbeef,
            schedule_prefix: vec![],
            crash_points: vec![2],
            clamped: vec![],
            faults: FaultPlan::default(),
            trace: String::new(),
            timeline: None,
        }
    }

    /// The parsed records of the stream the five calls write for a small
    /// made-up run of scenario `s` under `config`: a DFS execution, a
    /// failing crash-sweep one with its counterexample, and `report`.
    fn sample_stream(config: CheckConfig, report: &CheckReport) -> Vec<Map> {
        let (sink, buf) = TelemetrySink::shared_buffer();
        let config = CheckConfig {
            telemetry: Some(sink),
            ..config
        };
        let mut telem = RunTelemetry::open("s", &config, 1);
        let none = FaultPlan::default();
        telem.pass(Pass::Dfs);
        telem.pass(Pass::Dfs);
        telem.exec_done(
            (Pass::Dfs, 0),
            7,
            OutcomeKind::Ok,
            &STATS,
            &none,
            Duration::ZERO,
        );
        telem.pass(Pass::CrashSweep);
        let failed = (Pass::CrashSweep, 3);
        telem.exec_done(
            failed,
            8,
            OutcomeKind::Deadlock,
            &STATS,
            &none,
            Duration::ZERO,
        );
        telem.counterexample(&sample_cx());
        telem.close(report);
        assert_eq!(telem.stream_error(), None);
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        text.lines()
            .map(|line| match serde_json::from_str(line) {
                Ok(Value::Object(m)) => m,
                other => panic!("{line}: {other:?}"),
            })
            .collect()
    }

    /// The stream's schema (DESIGN.md §11), key for key: a key added to
    /// or dropped from a record moves this test and that table together.
    #[test]
    fn each_record_type_has_exactly_its_documented_keys() {
        const EXEC_DONE: &str = "crashes depth disk_flushes disk_ops disk_reads disk_writes \
            duration_us faults helped index lock_blocks net_msgs net_recvs net_sends outcome \
            pass scenario seed steps trace_fp type";
        const RUN_END: &str = "counterexamples coverage_guided crash_points \
            crash_points_enumerable crash_points_exercised crashes_injected disk_flushes \
            disk_reads disk_writes distinct_traces execs_per_sec executions fault_plans \
            fault_plans_enumerable fault_plans_exercised incomplete net_recvs net_sends \
            outcomes passed pruned replayed scenario shard strategy total_steps type \
            wall_time_s workers";
        let schema = [
            (
                "run_start",
                "dfs_max_executions env exec_budget keep_going max_steps passes \
                 random_crash_samples random_samples scenario seed shard strategy type workers",
            ),
            ("pass_start", "pass rank scenario type"),
            ("pass_end", "duration_us pass rank scenario type"),
            ("exec_done", EXEC_DONE),
            (
                "counterexample",
                "crash_points faults index outcome pass scenario schedule_prefix seed type",
            ),
            ("run_end", RUN_END),
        ];
        let stream = sample_stream(CheckConfig::default(), &CheckReport::default());
        let types: Vec<&str> = stream.iter().map(|m| get_str(m, "type").unwrap()).collect();
        assert_eq!(
            types,
            [
                "run_start",
                "pass_start",
                "exec_done",
                "pass_end",
                "pass_start",
                "exec_done",
                "counterexample",
                "pass_end",
                "run_end"
            ],
            "a pass is announced once, and closed by the next pass or the run's end"
        );
        for record in &stream {
            let ty = get_str(record, "type").unwrap();
            let keys: Vec<&str> = record.iter().map(|(k, _)| k.as_str()).collect();
            let (_, want) = schema.iter().find(|(name, _)| *name == ty).unwrap();
            assert_eq!(keys, want.split_whitespace().collect::<Vec<_>>(), "{ty}");
            assert_eq!(get_str(record, "scenario"), Ok("s"), "{ty}");
        }
        // Shrink bookkeeping rides along only when shrinking ran.
        let shrunk = CheckReport {
            shrink: Some(crate::ShrinkStats::default()),
            ..CheckReport::default()
        };
        let stream = sample_stream(CheckConfig::default(), &shrunk);
        let have: BTreeSet<&str> = stream.last().unwrap().iter().map(|(k, _)| &**k).collect();
        let mut want: BTreeSet<&str> = RUN_END.split_whitespace().collect();
        want.extend(["shrink_steps_removed", "shrink_rounds", "shrink_re_runs"]);
        assert_eq!(have, want);
    }

    #[test]
    fn the_progress_counters_move_only_while_the_line_is_on() {
        for every in [0, 2] {
            let config = CheckConfig {
                progress_every: every,
                ..CheckConfig::default()
            };
            let telem = RunTelemetry::open("demo", &config, 1);
            let none = FaultPlan::default();
            telem.exec_done(
                (Pass::Dfs, 0),
                7,
                OutcomeKind::Ok,
                &STATS,
                &none,
                Duration::ZERO,
            );
            telem.exec_done(
                (Pass::Dfs, 1),
                8,
                OutcomeKind::Bug,
                &STATS,
                &none,
                Duration::ZERO,
            );
            let line = telem.progress_line();
            if every == 0 {
                assert!(
                    line.contains("demo: 0 execs, 0 steps, 0 failures"),
                    "{line}"
                );
            } else {
                assert!(
                    line.contains("demo: 2 execs, 14 steps, 1 failures"),
                    "{line}"
                );
            }
        }
    }

    #[test]
    fn strip_timing_removes_only_timing_keys() {
        let v = json!({
            "type": "exec_done",
            "steps": 7,
            "duration_us": 123,
            "nested": { "wall_time_s": 0.5, "kept": true },
        });
        let stripped = strip_timing(&v);
        let text = serde_json::to_string(&stripped).unwrap();
        assert!(!text.contains("duration_us"), "{text}");
        assert!(!text.contains("wall_time_s"), "{text}");
        assert!(text.contains("\"steps\": 7"), "{text}");
        assert!(text.contains("\"kept\": true"), "{text}");
    }

    #[test]
    fn validate_rejects_non_events() {
        assert!(validate_json_line("not json").is_err());
        assert!(validate_json_line("[1,2]").is_err());
        assert!(validate_json_line("{\"no_type\": 1}").is_err());
    }

    /// The `exec_done` record of scenario `s`, as the writer stamps it.
    fn exec_event(seed: u64, outcome: OutcomeKind) -> Value {
        let event = ExecEvent::new(Pass::Dfs, 0, seed, outcome, &STATS, "-", Duration::ZERO);
        stamped(ev_exec_done(&event), "s")
    }

    /// Counts where the two ways of printing one could part: small ones,
    /// both sides of 9e15 (where the shim stops printing integers) and of
    /// `MAX_EXACT` (where `f64`s stop being exact), and any `u64` at all.
    fn arb_count() -> impl Strategy<Value = u64> {
        const MAX: u64 = crate::json::MAX_EXACT as u64;
        (0u8..5, any::<u64>()).prop_map(|(range, n)| match range {
            0 => n % 100,
            1 => n % (MAX + 1),
            2 => 9_000_000_000_000_000 - 2 + n % 5,
            3 => MAX - 2 + n % 5,
            _ => n,
        })
    }

    fn arb_faults() -> impl Strategy<Value = FaultPlan> {
        use goose_rt::fault::{NetFault, TornMode};
        let net = (0u64..9, 0u8..3).prop_map(|(i, f)| {
            let fault = [NetFault::Drop, NetFault::Duplicate, NetFault::Delay][f as usize];
            (i, fault)
        });
        (
            proptest::collection::vec(arb_count(), 0..3),
            (0u8..5, any::<u64>()),
            (0u8..3, arb_count()),
            proptest::collection::vec(net, 0..3),
        )
            .prop_map(|(io, (torn, variant), (disk, grant), net)| FaultPlan {
                transient_io: io.into_iter().collect(),
                torn: match torn {
                    0 => Some(TornMode::KeepAll),
                    1 => Some(TornMode::KeepNone),
                    2 => Some(TornMode::Subset(variant)),
                    _ => None,
                },
                disk_fail: (disk > 0).then_some((disk, grant)),
                net: net.into_iter().collect(),
            })
    }

    /// Scenario names out of everything the shim's escaper treats
    /// specially, and what it must leave alone.
    fn arb_name() -> impl Strategy<Value = String> {
        const CHARS: [char; 16] = [
            'k', 'v', '/', '-', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é',
            '✓', '{',
        ];
        proptest::collection::vec(0usize..CHARS.len(), 0..12)
            .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The line `exec_done` writes from the fields is the line the
        /// `Value` path — `ev_exec_done`, stamped, serialised — prints.
        #[test]
        fn the_written_exec_done_line_is_the_value_paths(
            name in arb_name(),
            (pass, outcome) in (0usize..Pass::ALL.len(), 0usize..OutcomeKind::ALL.len()),
            (seed, trace_fp) in (any::<u64>(), any::<u64>()),
            counts in proptest::collection::vec(arb_count(), 14..15),
            faults in arb_faults(),
        ) {
            let (pass, outcome) = (Pass::ALL[pass], OutcomeKind::ALL[outcome]);
            let [index, micros, steps, depth, crashes, helped, lock_blocks, disk_ops, net_msgs,
                disk_reads, disk_writes, disk_flushes, net_sends, net_recvs] = counts[..]
            else {
                unreachable!("fourteen counts")
            };
            let stats = ExecStats {
                steps, depth, crashes, helped, lock_blocks, disk_ops, net_msgs, disk_reads,
                disk_writes, disk_flushes, net_sends, net_recvs, trace_fp,
            };
            let duration = Duration::from_micros(micros);

            let compact = faults.compact();
            let event = ExecEvent::new(pass, index, seed, outcome, &stats, &compact, duration);
            let want = serde_json::to_string(&stamped(ev_exec_done(&event), &name)).unwrap() + "\n";

            let (sink, buf) = TelemetrySink::shared_buffer();
            let config = CheckConfig { telemetry: Some(sink), ..CheckConfig::default() };
            let telem = RunTelemetry::open(&name, &config, 1);
            // Twice: the second line starts from a used buffer.
            for _ in 0..2 {
                telem.exec_done((pass, index), seed, outcome, &stats, &faults, duration);
            }
            let text = String::from_utf8(buf.lock().clone()).unwrap();
            let (_run_start, lines) = text.split_once('\n').expect("a run_start line");
            prop_assert_eq!(lines, want.repeat(2));
            prop_assert_eq!(telem.stream_error(), None);
        }
    }

    #[test]
    fn big_seeds_survive_as_hex() {
        let seed = u64::MAX - 12345;
        let text = serde_json::to_string(&exec_event(seed, OutcomeKind::Ok)).unwrap();
        assert!(text.contains(&format!("{seed:#018x}")), "{text}");
        assert!(text.contains("0x00000000deadbeef"), "{text}");
    }

    /// Every hex-encoded 64-bit field in every event type is exactly 18
    /// characters: `0x` plus 16 zero-padded hex digits. Fixed width
    /// keeps the fields greppable and lexicographically ordered across a
    /// campaign's worth of streams.
    #[test]
    fn hex_fields_are_zero_padded_to_16_digits_in_every_event() {
        let config = CheckConfig {
            seed: 0x1,
            ..CheckConfig::default()
        };
        let mut checked = 0;
        for record in sample_stream(config, &CheckReport::default()) {
            for key in ["seed", "trace_fp"] {
                let Some(Value::String(s)) = record.get(key) else {
                    continue;
                };
                assert_eq!(s.len(), 18, "{key}={s} is not 18 chars");
                assert!(s.starts_with("0x"), "{key}={s}");
                assert!(
                    s[2..].chars().all(|c| c.is_ascii_hexdigit()),
                    "{key}={s} has non-hex digits"
                );
                // Round-trips through the WAL parser's decoding.
                assert!(u64::from_str_radix(&s[2..], 16).is_ok(), "{key}={s}");
                checked += 1;
            }
        }
        // run_start's seed, two exec_done seeds and fingerprints, and
        // the counterexample's seed.
        assert_eq!(checked, 6);
    }

    /// `strip_timing` is shape-preserving: an event with no timing keys
    /// anywhere — including nested objects and arrays — round-trips
    /// byte-identically.
    #[test]
    fn strip_timing_round_trips_nested_events_unchanged() {
        let v = json!({
            "type": "run_end",
            "outcomes": { "ok": 5, "deadlock": 0 },
            "incomplete": ["a", "b"],
            "nested": { "deep": [ json!({ "seed": "0x00000000000000ff" }) ] },
        });
        assert_eq!(strip_timing(&v), v);
        let text_before = serde_json::to_string(&v).unwrap();
        let text_after = serde_json::to_string(&strip_timing(&v)).unwrap();
        assert_eq!(text_before, text_after);
    }

    #[test]
    fn pass_end_carries_its_duration_as_a_timing_key() {
        let v = pass_end_record(Pass::CrashSweep, Duration::from_micros(250));
        let Value::Object(m) = &v else {
            panic!("not an object")
        };
        assert_eq!(m.get("type"), Some(&Value::String("pass_end".into())));
        assert_eq!(m.get("duration_us"), Some(&Value::Number(250.0)));
        // The duration is stripped for byte-stability comparisons.
        let stripped = strip_timing(&v);
        let Value::Object(sm) = &stripped else {
            panic!("not an object")
        };
        assert!(sm.get("duration_us").is_none());
        assert_eq!(sm.get("pass"), Some(&Value::String("crash-sweep".into())));
    }

    #[test]
    fn wal_round_trips_ok_executions_and_skips_failures() {
        let mut text = serde_json::to_string(&exec_event(42, OutcomeKind::Ok)).unwrap() + "\n";
        let mut bad = exec_event(43, OutcomeKind::Violation);
        if let Value::Object(m) = &mut bad {
            m.insert("index".into(), Value::Number(9.0));
        }
        text.push_str(&serde_json::to_string(&bad).unwrap());
        text.push('\n');
        let wal = parse_wal(&text, "s");
        assert_eq!(wal.completed.len(), 1, "violations must not be replayed");
        assert_eq!(wal.completed[&(Pass::Dfs.rank(), 0)], STATS);
        assert_eq!(wal.torn_lines, 0);
    }

    /// The record [`exec_event`] writes, with `key` removed and, when
    /// `literal` is given, put back as that raw JSON text.
    fn wal_line_with(key: &str, literal: Option<&str>) -> String {
        let Value::Object(mut m) = exec_event(42, OutcomeKind::Ok) else {
            unreachable!()
        };
        assert!(m.remove(key).is_some(), "{key} is not an exec_done field");
        let text = serde_json::to_string(&Value::Object(m)).unwrap();
        match literal {
            Some(literal) => format!("{{\"{key}\": {literal}, {}\n", &text[1..]),
            None => text + "\n",
        }
    }

    const COUNTERS: [&str; 12] = [
        "steps",
        "depth",
        "crashes",
        "helped",
        "lock_blocks",
        "disk_ops",
        "net_msgs",
        "disk_reads",
        "disk_writes",
        "disk_flushes",
        "net_sends",
        "net_recvs",
    ];

    #[test]
    fn wal_records_are_all_or_nothing() {
        // The spliced form parses when nothing is wrong with it.
        assert_eq!(
            parse_wal(&wal_line_with("steps", Some("7")), "s")
                .completed
                .len(),
            1
        );
        for key in COUNTERS
            .into_iter()
            .chain(["index", "trace_fp", "pass", "outcome", "scenario", "type"])
        {
            let wal = parse_wal(&wal_line_with(key, None), "s");
            assert!(
                wal.completed.is_empty(),
                "a record without {key} was replayed"
            );
            assert_eq!(wal.torn_lines, 1, "a record without {key} is counted");
        }
    }

    #[test]
    fn wal_refuses_hostile_field_values() {
        let numbers = [
            "1.5",
            "-1",
            "1e400",
            "9007199254740993",
            "1e17",
            "\"7\"",
            "null",
            "[7]",
        ];
        for key in COUNTERS.into_iter().chain(["index"]) {
            for literal in numbers {
                let wal = parse_wal(&wal_line_with(key, Some(literal)), "s");
                assert!(wal.completed.is_empty(), "{key}: {literal} was replayed");
                assert_eq!(wal.torn_lines, 1, "{key}: {literal} is counted");
            }
        }
        let hexes = [
            "0x0x1f",
            "+1f",
            "0x+1f",
            "1f",
            "0x",
            "0x1f ",
            "0x10000000000000000",
        ];
        for hex in hexes {
            let wal = parse_wal(&wal_line_with("trace_fp", Some(&format!("\"{hex}\""))), "s");
            assert!(wal.completed.is_empty(), "trace_fp {hex:?} was replayed");
        }
        // An unpadded fingerprint is still one prefix and 1-16 digits.
        let wal = parse_wal(&wal_line_with("trace_fp", Some("\"0x1f\"")), "s");
        assert_eq!(wal.completed[&(Pass::Dfs.rank(), 0)].trace_fp, 0x1f);
        // An outcome is one of the eight, a pass one of the ten.
        for (key, literal) in [("outcome", "\"fine\""), ("pass", "\"dfs2\"")] {
            let wal = parse_wal(&wal_line_with(key, Some(literal)), "s");
            assert_eq!((wal.completed.len(), wal.torn_lines), (0, 1), "{key}");
        }
    }

    /// Every typed record is all or nothing, not only `exec_done`: each
    /// line of a real stream, short of any one key its reader takes, is
    /// counted as torn; short of any other key it still reads.
    #[test]
    fn every_record_type_is_all_or_nothing() {
        // `None`: the reader takes every key the writer wrote (`run_end`,
        // read through the report's counter table, like report JSON).
        let read: [(&str, Option<&[&str]>); 3] = [
            ("pass_end", Some(&["pass", "duration_us"])),
            ("run_end", None),
            ("pass_start", Some(&[])),
        ];
        for record in sample_stream(CheckConfig::default(), &CheckReport::default()) {
            let ty = get_str(&record, "type").unwrap().to_string();
            let Some((_, taken)) = read.iter().find(|(name, _)| *name == ty) else {
                continue;
            };
            for (key, _) in record.iter() {
                let mut short = record.clone();
                short.remove(key);
                let line = serde_json::to_string(&Value::Object(short)).unwrap();
                let mut seen = 0;
                let torn = read_stream(&line, None, |_, _| seen += 1);
                // Every record needs its type and its scenario stamp.
                let needed = taken.is_none_or(|taken| taken.contains(&key.as_str()))
                    || key == "type"
                    || key == "scenario";
                assert_eq!(torn, u64::from(needed), "{ty} without {key}");
                assert_eq!(seen, u64::from(!needed), "{ty} without {key}");
            }
        }
    }

    #[test]
    fn env_stamp_refuses_an_inexact_worker_count() {
        let stamp = EnvStamp::current(4, "exhaustive");
        assert_eq!(EnvStamp::from_json(&stamp.to_json()), Some(stamp.clone()));
        for workers in [1.5, -1.0, 1e17, f64::INFINITY] {
            let Value::Object(mut m) = stamp.to_json() else {
                unreachable!()
            };
            m.insert("workers".into(), Value::Number(workers));
            assert_eq!(EnvStamp::from_json(&Value::Object(m)), None, "{workers}");
        }
    }

    #[test]
    fn wal_filters_by_scenario_and_tracks_run_starts() {
        let config = |seed| CheckConfig {
            seed,
            ..CheckConfig::default()
        };
        let line = |name: &str, seed, workers| {
            let record = stamped(run_start_record(&config(seed), workers), name);
            serde_json::to_string(&record).unwrap() + "\n"
        };
        let text = line("a", 7, 1) + &line("b", 8, 1) + &line("a", 9, 4);
        let wal = parse_wal(&text, "a");
        assert_eq!((wal.runs_started, wal.torn_lines), (2, 0));
        // The last run_start of scenario `a`, whatever pool it ran on.
        let last = wal.run_start.expect("a run_start");
        assert!(last.same_run("a", &config(9)));
        assert!(!last.same_run("a", &config(7)), "another seed");
        assert!(!last.same_run("b", &config(9)), "another scenario");
        let sharded = CheckConfig {
            shard: Some((0, 2)),
            ..config(9)
        };
        assert!(!last.same_run("a", &sharded), "another shard");
        // A record short of a key is no run of any configuration.
        let short = line("a", 9, 4).replace("\"keep_going\": false,", "");
        let short = parse_wal(&short, "a").run_start.expect("still a record");
        assert!(!short.same_run("a", &config(9)));
    }

    #[test]
    fn wal_survives_any_tail_truncation() {
        // A SIGKILL can land mid-write: replay must cope with the file
        // cut at *every* byte boundary, never panicking and never
        // inventing records.
        let mut text = String::new();
        for i in 0..3u64 {
            let mut ev = exec_event(i, OutcomeKind::Ok);
            if let Value::Object(m) = &mut ev {
                m.insert("index".into(), Value::Number(i as f64));
            }
            text.push_str(&serde_json::to_string(&ev).unwrap());
            text.push('\n');
        }
        let full = parse_wal(&text, "s").completed.len();
        assert_eq!(full, 3);
        for cut in 0..text.len() {
            let wal = parse_wal(&text[..cut], "s");
            assert!(wal.completed.len() <= full);
            assert!(
                wal.torn_lines <= 1,
                "cut at {cut}: {} torn lines",
                wal.torn_lines
            );
            // Every surviving record must be one of the originals.
            for (k, w) in &wal.completed {
                assert_eq!(k.0, Pass::Dfs.rank());
                assert_eq!(w.steps, 7, "cut at {cut} corrupted a record");
            }
        }
    }
}

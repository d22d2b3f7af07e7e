//! Campaign tooling: sharding, report serialization, and shard-merge.
//!
//! A *campaign* runs a set of scenarios (optionally × mutants × fault
//! passes) as one deterministically partitioned workload. Four pieces
//! live here:
//!
//! - [`parse_shard`] — the `i/n` command-line shard syntax shared by
//!   the drivers (`scan`, `scale`, `scenario_smoke`).
//! - [`campaign_fingerprint`], [`wal_file`], [`trace_file`] — a
//!   campaign's conventions, which its drivers and tests must agree on:
//!   the fold over per-scenario fingerprints that `scan` prints last,
//!   and how a registry name becomes a file name.
//! - [`report_to_json`] / [`report_from_json`] — a lossless-enough
//!   [`CheckReport`] serialization for cross-process merging. One thing
//!   does not survive: a counterexample's [`ExecOutcome`] payload comes
//!   back as [`GhostError::Imported`] carrying the rendered message, so
//!   fingerprints (which hash the rendering) round-trip exactly.
//! - [`merge_reports`] — recombines one report per shard into the
//!   report an unsharded run of the same configuration would produce:
//!   each counter folds as its table row says, histograms sum, coverage
//!   sets union, and the canonical counterexample is the minimum-key
//!   failure across all shards.
//!
//! The report's counters and the per-pass counters are each one table
//! (`REPORT_COUNTERS`, `PASS_COUNTERS`): wire key, shard fold, field.
//! The report codec, the merge, and the stream's `run_end` record (its
//! writer, its reader and the dashboard's fold) all go through them, so
//! a counter is added in one row.
//!
//! [`report_fingerprint`] is the campaign's equality oracle: a hash of
//! the report's deterministic content (timing, worker count, shard
//! assignment, and the replayed-execution diagnostic excluded). The
//! robustness contract — pinned by `tests/shard_resume.rs` and the CI
//! `campaign` job — is that sharded-then-merged and killed-then-resumed
//! runs produce the same fingerprint as one uninterrupted run.

use crate::explore::{CheckReport, Counterexample, ExecOutcome};
use crate::json::{
    as_u64, get, get_arr, get_f64, get_hex, get_obj, get_str, get_u64, get_u64s, hex64,
    parse_hex64, u64s, without_keys,
};
use crate::metrics::{
    trace_fingerprint, FaultFamily, Histogram, OutcomeCounts, OutcomeKind, PassMetrics,
};
use crate::pass::Pass;
use crate::telemetry::EnvStamp;
use goose_rt::fault::{FaultPlan, NetFault, TornMode};
use perennial::GhostError;
use serde_json::{json, Map, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Parses the `i/n` shard syntax: `0/4` is the first of four shards.
pub fn parse_shard(s: &str) -> Result<(u32, u32), String> {
    let (i, n) = s
        .split_once('/')
        .ok_or_else(|| format!("shard {s:?}: expected i/n, e.g. 0/4"))?;
    let i: u32 = i.parse().map_err(|_| format!("shard index {i:?}"))?;
    let n: u32 = n.parse().map_err(|_| format!("shard count {n:?}"))?;
    if n == 0 || i >= n {
        return Err(format!("shard {i}/{n}: index must satisfy i < n, n > 0"));
    }
    Ok((i, n))
}

fn faults_to_json(f: &FaultPlan) -> Value {
    let torn = f.torn.map(|t| match t {
        TornMode::KeepAll => "keep-all".to_string(),
        TornMode::KeepNone => "keep-none".to_string(),
        TornMode::Subset(k) => format!("subset:{k}"),
    });
    json!({
        "transient_io": f.transient_io.iter().copied().collect::<Vec<u64>>(),
        "torn": torn,
        "disk_fail": f.disk_fail.map(|(d, g)| vec![d as u64, g]),
        "net": f
            .net
            .iter()
            .map(|(i, nf)| {
                let name = match nf {
                    NetFault::Drop => "drop",
                    NetFault::Duplicate => "duplicate",
                    NetFault::Delay => "delay",
                };
                json!([i, name])
            })
            .collect::<Vec<Value>>(),
    })
}

fn outcome_to_json(o: &ExecOutcome) -> Value {
    let msg = match o {
        ExecOutcome::Ok | ExecOutcome::Deadlock => String::new(),
        ExecOutcome::Violation(e) => e.to_string(),
        ExecOutcome::Ub(m)
        | ExecOutcome::Bug(m)
        | ExecOutcome::FinalCheckFailed(m)
        | ExecOutcome::HarnessPanic(m) => m.clone(),
        ExecOutcome::Wedged(b) => b.to_string(),
    };
    json!({ "kind": OutcomeKind::of(o).name(), "msg": msg })
}

fn cx_to_json(cx: &Counterexample) -> Value {
    json!({
        "outcome": outcome_to_json(&cx.outcome),
        "pass": cx.pass.name(),
        "index": cx.index,
        "seed": hex64(cx.seed),
        "schedule_prefix": cx.schedule_prefix.iter().map(|v| *v as u64).collect::<Vec<u64>>(),
        "crash_points": cx.crash_points.clone(),
        "clamped": cx.clamped.iter().map(|v| *v as u64).collect::<Vec<u64>>(),
        "faults": faults_to_json(&cx.faults),
        "trace": cx.trace.clone(),
        // `cx.timeline` is deliberately NOT serialized: it is a debug
        // payload (re-derivable by replaying the counterexample) and
        // keeping it out of campaign JSON keeps report fingerprints
        // identical whether trace capture was on or off.
    })
}

/// The outcome tally as an object, one key per kind, zeros included.
fn outcomes_to_json(outcomes: &OutcomeCounts) -> Value {
    let mut map = Map::new();
    for (name, n) in outcomes.entries() {
        map.insert(name.to_string(), serde_json::to_value(&n));
    }
    Value::Object(map)
}

fn hist_to_json(h: &Histogram) -> Value {
    json!({
        "buckets": h.raw_buckets().to_vec(),
        "count": h.count(),
        "sum": h.sum(),
        "max": h.max(),
    })
}

/// One counter of a record: wire key, how shards fold it into the whole
/// run's value, whether the stream's `run_end` carries it too, and the
/// field.
struct Counter<R> {
    key: &'static str,
    fold: fn(u64, u64) -> u64,
    in_run_end: bool,
    get: fn(&R) -> u64,
    set: fn(&mut R, u64),
}

impl<R> Counter<R> {
    /// Folds shard `from`'s value into `into`'s.
    fn fold(&self, into: &mut R, from: &R) {
        (self.set)(into, (self.fold)((self.get)(into), (self.get)(from)));
    }
}

/// A counter table: one `"key" field fold` row per counter, tagged
/// `run_end` when that record carries it too. A shard counts a `Sum`
/// counter over the executions it owns, disjoint from the other shards'.
/// A `Max` counter is one every shard derives alike (the schedule phase
/// is derivation spine), so any one is the whole, or the pool size, of
/// which a merge reports the largest.
macro_rules! counters {
    ($($key:literal $field:ident $fold:ident $($run_end:ident)?,)*) => {
        [$(Counter {
            key: $key,
            fold: counters!(@$fold),
            in_run_end: counters!(@in $($run_end)?),
            get: |r| r.$field as u64,
            set: |r, n| r.$field = n as _,
        },)*]
    };
    (@Sum) => { |mine, theirs| mine + theirs };
    (@Max) => { u64::max };
    (@in) => { false };
    (@in run_end) => { true };
}

/// [`CheckReport`]'s counters. Report JSON carries every row; `run_end`
/// has never carried `helped_ops`.
static REPORT_COUNTERS: [Counter<CheckReport>; 15] = counters![
    "executions"       executions       Sum run_end,
    "total_steps"      total_steps      Sum run_end,
    "crashes_injected" crashes_injected Sum run_end,
    "crash_points"     crash_points     Sum run_end,
    "fault_plans"      fault_plans      Sum run_end,
    "helped_ops"       helped_ops       Sum,
    "disk_reads"       disk_reads       Sum run_end,
    "disk_writes"      disk_writes      Sum run_end,
    "disk_flushes"     disk_flushes     Sum run_end,
    "net_sends"        net_sends        Sum run_end,
    "net_recvs"        net_recvs        Sum run_end,
    "pruned"           pruned           Max run_end,
    "coverage_guided"  coverage_guided  Max run_end,
    "replayed"         replayed         Sum run_end,
    "workers"          workers          Max run_end,
];

/// [`PassMetrics`]' counters: one object per pass in report JSON's
/// `per_pass`. `pruned` and `coverage_guided` are the schedule phase's
/// session counters, attributed to its two passes.
static PASS_COUNTERS: [Counter<PassMetrics>; 7] = counters![
    "executions"      executions      Sum,
    "steps"           steps           Sum,
    "crashes"         crashes         Sum,
    "fault_plans"     fault_plans     Sum,
    "failures"        failures        Sum,
    "pruned"          pruned          Max,
    "coverage_guided" coverage_guided Max,
];

/// `record` (an object) with the totals report JSON and `run_end` share:
/// the counters the record carries (`run_end`: the rows tagged so), the
/// outcome tally, strategy, shard, incomplete marks and timing.
/// [`read_totals`] is the inverse.
pub(crate) fn with_totals(mut record: Value, r: &CheckReport, run_end: bool) -> Value {
    if let Value::Object(m) = &mut record {
        for c in REPORT_COUNTERS.iter().filter(|c| c.in_run_end || !run_end) {
            m.insert(c.key.to_string(), serde_json::to_value(&(c.get)(r)));
        }
        for (key, value) in [
            ("outcomes", outcomes_to_json(&r.outcomes)),
            ("strategy", json!(r.strategy)),
            ("shard", json!(r.shard.map(|(i, n)| format!("{i}/{n}")))),
            ("incomplete", json!(r.incomplete)),
            ("wall_time_s", json!(r.wall_time.as_secs_f64())),
            ("execs_per_sec", json!(r.execs_per_sec)),
        ] {
            m.insert(key.to_string(), value);
        }
    }
    record
}

/// Reads what [`with_totals`] wrote into an otherwise empty report: all
/// or nothing, each field through the strict readers of `json.rs`.
pub(crate) fn read_totals(m: &Map, run_end: bool) -> Result<CheckReport, String> {
    let mut r = CheckReport {
        strategy: get_str(m, "strategy")?.to_string(),
        ..CheckReport::default()
    };
    for c in REPORT_COUNTERS.iter().filter(|c| c.in_run_end || !run_end) {
        (c.set)(&mut r, get_u64(m, c.key)?);
    }
    let outcomes = get_obj(m, "outcomes")?;
    for kind in OutcomeKind::ALL {
        r.outcomes.set(kind, get_u64(outcomes, kind.name())?);
    }
    r.shard = match get(m, "shard")? {
        Value::Null => None,
        Value::String(s) => Some(parse_shard(s)?),
        v => return Err(format!("shard: expected string or null, got {v:?}")),
    };
    for msg in get_arr(m, "incomplete")? {
        let Value::String(s) = msg else {
            return Err(format!("incomplete: expected string, got {msg:?}"));
        };
        r.incomplete.push(s.clone());
    }
    r.wall_time = Duration::try_from_secs_f64(get_f64(m, "wall_time_s")?)
        .map_err(|e| format!("wall_time_s: {e}"))?;
    r.execs_per_sec = get_f64(m, "execs_per_sec")?;
    Ok(r)
}

/// Folds shard `r`'s totals into `out`, as [`merge_reports`] and the
/// dashboard's fold of `run_end` records share them: each counter by its
/// row's fold, the outcome tally and wall time summed, coverage by
/// [`Coverage::merge`](crate::metrics::Coverage::merge), each incomplete
/// mark once.
pub(crate) fn fold_totals(out: &mut CheckReport, r: &CheckReport) {
    for c in &REPORT_COUNTERS {
        c.fold(out, r);
    }
    out.outcomes.merge(&r.outcomes);
    out.coverage.merge(&r.coverage);
    out.wall_time += r.wall_time;
    for msg in &r.incomplete {
        if !out.incomplete.contains(msg) {
            out.incomplete.push(msg.clone());
        }
    }
}

fn pass_to_json(pm: &PassMetrics) -> Value {
    let busy_time_us = pm.busy_time.as_micros() as u64;
    let mut record = json!({ "pass": pm.pass.name(), "busy_time_us": busy_time_us });
    if let Value::Object(m) = &mut record {
        for c in &PASS_COUNTERS {
            m.insert(c.key.to_string(), serde_json::to_value(&(c.get)(pm)));
        }
    }
    record
}

/// Serializes a [`CheckReport`] for cross-process merging and the
/// campaign fingerprint. The inverse is [`report_from_json`].
pub fn report_to_json(r: &CheckReport) -> Value {
    let (mut coverage, c) = (Map::new(), &r.coverage);
    let mut put = |key: &str, n: u64| coverage.insert(key.to_string(), serde_json::to_value(&n));
    put("crash_points_enumerable", c.crash_points_enumerable);
    for family in FaultFamily::ALL {
        let (i, stem) = (family as usize, family.wire_name());
        put(&format!("{stem}_exercised"), c.plans_exercised[i]);
        put(&format!("{stem}_enumerable"), c.plans_enumerable[i]);
    }
    let record = json!({
        "name": r.name,
        "counterexamples": r.counterexamples.iter().map(cx_to_json).collect::<Vec<Value>>(),
        "per_pass": r.per_pass.iter().map(pass_to_json).collect::<Vec<Value>>(),
        "steps_hist": hist_to_json(&r.steps_hist),
        "depth_hist": hist_to_json(&r.depth_hist),
        "coverage": Value::Object(coverage),
        "crash_point_set": r.crash_point_set.iter().copied().collect::<Vec<u64>>(),
        "trace_fps": r.trace_fps.iter().map(|fp| hex64(*fp)).collect::<Vec<String>>(),
        // The environment stamp is volatile (it names the machine's
        // toolchain and pool size), but serialized so baselines and
        // archived campaign reports say where they came from.
        // `r.profile` is deliberately NOT serialized, like
        // `cx.timeline`: both are debug/observability side channels,
        // and excluding them keeps report fingerprints identical
        // whether profiling (or trace capture) was on or off.
        "env": r.env.to_json(),
    });
    with_totals(record, r, false)
}

fn outcome_from_json(m: &Map) -> Result<ExecOutcome, String> {
    let kind = get_str(m, "kind")?;
    let msg = get_str(m, "msg")?.to_string();
    Ok(match kind {
        "ok" => ExecOutcome::Ok,
        "violation" => ExecOutcome::Violation(GhostError::Imported { msg }),
        "ub" => ExecOutcome::Ub(msg),
        "bug" => ExecOutcome::Bug(msg),
        "deadlock" => ExecOutcome::Deadlock,
        "final_check_failed" => ExecOutcome::FinalCheckFailed(msg),
        "wedged" => ExecOutcome::Wedged(
            msg.parse()
                .map_err(|e| format!("wedged budget {msg:?}: {e}"))?,
        ),
        "harness_panic" => ExecOutcome::HarnessPanic(msg),
        other => return Err(format!("unknown outcome kind {other:?}")),
    })
}

#[allow(clippy::field_reassign_with_default)] // each field's parse can fail; a struct literal can't `?` per field readably
fn faults_from_json(m: &Map) -> Result<FaultPlan, String> {
    let mut f = FaultPlan::default();
    f.transient_io = get_u64s(m, "transient_io")?.into_iter().collect();
    f.torn = match get(m, "torn")? {
        Value::Null => None,
        Value::String(s) => Some(match s.as_str() {
            "keep-all" => TornMode::KeepAll,
            "keep-none" => TornMode::KeepNone,
            other => match other.strip_prefix("subset:") {
                Some(k) => TornMode::Subset(k.parse().map_err(|e| format!("torn {other:?}: {e}"))?),
                None => return Err(format!("unknown torn mode {other:?}")),
            },
        }),
        v => return Err(format!("torn: expected string or null, got {v:?}")),
    };
    f.disk_fail = match get(m, "disk_fail")? {
        Value::Null => None,
        Value::Array(pair) => match u64s(pair, "disk_fail")?.as_slice() {
            [d @ 0..=255, g] => Some((*d as u8, *g)),
            _ => return Err("disk_fail: expected [disk, grant]".to_string()),
        },
        v => return Err(format!("disk_fail: expected array or null, got {v:?}")),
    };
    for entry in get_arr(m, "net")? {
        let Value::Array(pair) = entry else {
            return Err(format!("net: expected [index, fault], got {entry:?}"));
        };
        let (Some(i), Some(Value::String(name))) = (pair.first().and_then(as_u64), pair.get(1))
        else {
            return Err(format!("net: expected [index, fault], got {entry:?}"));
        };
        let nf = match name.as_str() {
            "drop" => NetFault::Drop,
            "duplicate" => NetFault::Duplicate,
            "delay" => NetFault::Delay,
            other => return Err(format!("unknown net fault {other:?}")),
        };
        f.net.insert(i, nf);
    }
    Ok(f)
}

fn cx_from_json(v: &Value) -> Result<Counterexample, String> {
    let Value::Object(m) = v else {
        return Err(format!("counterexample: expected object, got {v:?}"));
    };
    Ok(Counterexample {
        outcome: outcome_from_json(get_obj(m, "outcome")?)?,
        pass: get_str(m, "pass")?.parse::<Pass>()?,
        index: get_u64(m, "index")?,
        seed: get_hex(m, "seed")?,
        schedule_prefix: get_u64s(m, "schedule_prefix")?
            .into_iter()
            .map(|v| v as usize)
            .collect(),
        crash_points: get_u64s(m, "crash_points")?,
        clamped: get_u64s(m, "clamped")?
            .into_iter()
            .map(|v| v as usize)
            .collect(),
        faults: faults_from_json(get_obj(m, "faults")?)?,
        trace: get_str(m, "trace")?.to_string(),
        timeline: None,
    })
}

fn hist_from_json(m: &Map) -> Result<Histogram, String> {
    Ok(Histogram::from_parts(
        get_u64s(m, "buckets")?,
        get_u64(m, "count")?,
        get_u64(m, "sum")?,
        get_u64(m, "max")?,
    ))
}

fn pass_from_json(v: &Value) -> Result<PassMetrics, String> {
    let Value::Object(p) = v else {
        return Err(format!("per_pass: expected object, got {v:?}"));
    };
    let pass = get_str(p, "pass")?.parse::<Pass>()?;
    let mut pm = PassMetrics {
        pass,
        rank: pass.rank(),
        busy_time: Duration::from_micros(get_u64(p, "busy_time_us")?),
        ..PassMetrics::default()
    };
    for c in &PASS_COUNTERS {
        (c.set)(&mut pm, get_u64(p, c.key)?);
    }
    Ok(pm)
}

/// Deserializes a report written by [`report_to_json`]: all or nothing,
/// so a field missing or of another type is an error, never a default.
pub fn report_from_json(v: &Value) -> Result<CheckReport, String> {
    let Value::Object(m) = v else {
        return Err("report: expected a JSON object".to_string());
    };
    let mut r = read_totals(m, false)?;
    r.name = get_str(m, "name")?.to_string();
    for cx in get_arr(m, "counterexamples")? {
        r.counterexamples.push(cx_from_json(cx)?);
    }
    r.counterexample = r.counterexamples.first().cloned();
    for pm in get_arr(m, "per_pass")? {
        r.per_pass.push(pass_from_json(pm)?);
    }
    r.steps_hist = hist_from_json(get_obj(m, "steps_hist")?)?;
    r.depth_hist = hist_from_json(get_obj(m, "depth_hist")?)?;
    let cov = get_obj(m, "coverage")?;
    r.coverage.crash_points_enumerable = get_u64(cov, "crash_points_enumerable")?;
    for family in FaultFamily::ALL {
        let (i, stem) = (family as usize, family.wire_name());
        r.coverage.plans_exercised[i] = get_u64(cov, &format!("{stem}_exercised"))?;
        r.coverage.plans_enumerable[i] = get_u64(cov, &format!("{stem}_enumerable"))?;
    }
    r.crash_point_set = get_u64s(m, "crash_point_set")?.into_iter().collect();
    for fp in get_arr(m, "trace_fps")? {
        let Value::String(s) = fp else {
            return Err(format!("trace_fps: expected hex string, got {fp:?}"));
        };
        r.trace_fps
            .insert(parse_hex64(s).ok_or_else(|| format!("trace_fps: bad hex {s:?}"))?);
    }
    r.coverage.crash_points_exercised = r.crash_point_set.len() as u64;
    r.coverage.distinct_traces = r.trace_fps.len() as u64;
    let env = get(m, "env")?;
    r.env = EnvStamp::from_json(env).ok_or_else(|| format!("env: not a stamp: {env:?}"))?;
    Ok(r)
}

/// Keys excluded from [`report_fingerprint`]: wall-clock timing, pool
/// size, shard assignment, and the resume diagnostic — everything that
/// may differ between two runs that checked the same executions.
pub const VOLATILE_KEYS: [&str; 8] = [
    "wall_time_s",
    "execs_per_sec",
    "busy_time_us",
    "workers",
    "shard",
    "replayed",
    "duration_us",
    "env",
];

/// A hash of the report's deterministic content. Two runs of the same
/// configuration — whatever their worker count, shard split, or
/// kill/resume history — must agree on this value.
pub fn report_fingerprint(r: &CheckReport) -> u64 {
    let canon = without_keys(&report_to_json(r), &VOLATILE_KEYS);
    trace_fingerprint(&serde_json::to_string(&canon).expect("shim serialization is infallible"))
}

/// The campaign-level equality oracle: the per-scenario report
/// fingerprints (already timing-, worker- and shard-insensitive) folded in
/// name order. `scan` prints it last; a campaign keys its reports on the
/// registry name, which is what [`Scenario::run`](crate::Scenario::run)
/// puts in [`CheckReport::name`].
pub fn campaign_fingerprint(reports: &[CheckReport]) -> u64 {
    let mut lines: Vec<String> = reports
        .iter()
        .map(|r| format!("{}={:#018x}", r.name, report_fingerprint(r)))
        .collect();
    lines.sort();
    trace_fingerprint(&lines.join("\n"))
}

/// A campaign's per-scenario WAL file: `"kv/cross-bucket"` →
/// `kv__cross-bucket.jsonl` (a registry name is not a path).
pub fn wal_file(scenario: &str) -> String {
    format!("{}.jsonl", scenario.replace('/', "__"))
}

/// A failing scenario's Chrome trace file: `kv__cross-bucket.trace.json`.
pub fn trace_file(scenario: &str) -> String {
    format!("{}.trace.json", scenario.replace('/', "__"))
}

/// Merges one [`CheckReport`] per shard (a complete `0..n` cover, all
/// from the same scenario) into the report an unsharded run would have
/// produced. Each counter folds as its row of `REPORT_COUNTERS` or
/// `PASS_COUNTERS` says; tallies and histograms sum, coverage sets union,
/// and counterexamples re-sort by canonical key. A cover with a shard
/// missing, twice, or of another scenario is refused, naming that shard.
pub fn merge_reports(mut reports: Vec<CheckReport>) -> Result<CheckReport, String> {
    let Some(first) = reports.first() else {
        return Err("nothing to merge".to_string());
    };
    let name = first.name.clone();
    let n = match first.shard {
        Some((_, n)) => n,
        None => return Err(format!("report for {name:?} is not a shard")),
    };
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    for r in &reports {
        let i = match r.shard {
            Some((i, m)) if m == n => i,
            other => return Err(format!("shard {other:?} of {name:?} is not one of {n}")),
        };
        if r.name != name {
            return Err(format!("shard {i}/{n} is of {:?}, not {name:?}", r.name));
        }
        if !seen.insert(i) {
            return Err(format!("duplicate shard {i}/{n} for {name:?}"));
        }
    }
    if let Some(i) = (0..n).find(|i| !seen.contains(i)) {
        return Err(format!(
            "incomplete cover for {name:?}: shard {i}/{n} is missing"
        ));
    }
    reports.sort_by_key(|r| r.shard.map(|(i, _)| i));

    let mut out = CheckReport {
        name,
        strategy: reports[0].strategy.clone(),
        // The stamp survives the merge: shards of one campaign share a
        // toolchain, so the first shard's block speaks for all (the
        // worker count is re-pointed at the merged pool size below).
        env: reports[0].env.clone(),
        ..CheckReport::default()
    };
    let mut per_pass: BTreeMap<u8, PassMetrics> = BTreeMap::new();
    for r in &reports {
        fold_totals(&mut out, r);
        out.steps_hist.merge(&r.steps_hist);
        out.depth_hist.merge(&r.depth_hist);
        out.crash_point_set
            .extend(r.crash_point_set.iter().copied());
        out.trace_fps.extend(r.trace_fps.iter().copied());
        out.counterexamples
            .extend(r.counterexamples.iter().cloned());
        for pm in &r.per_pass {
            let slot = per_pass.entry(pm.rank).or_insert(PassMetrics {
                pass: pm.pass,
                rank: pm.rank,
                ..PassMetrics::default()
            });
            for c in &PASS_COUNTERS {
                c.fold(slot, pm);
            }
            slot.busy_time += pm.busy_time;
        }
    }
    out.coverage.crash_points_exercised = out.crash_point_set.len() as u64;
    out.coverage.distinct_traces = out.trace_fps.len() as u64;
    out.per_pass = per_pass.into_values().collect();
    out.counterexamples.sort_by_key(|cx| cx.key());
    out.counterexample = out.counterexamples.first().cloned();
    out.execs_per_sec = out.executions as f64 / out.wall_time.as_secs_f64().max(1e-9);
    out.env.workers = out.workers as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_file_names_are_the_registry_name_made_a_path() {
        let name = "patterns/mutant/wal-skip-helping";
        assert_eq!(wal_file(name), "patterns__mutant__wal-skip-helping.jsonl");
        assert_eq!(trace_file("kv/cross-bucket"), "kv__cross-bucket.trace.json");
    }

    #[test]
    fn shard_syntax_parses_and_rejects() {
        assert_eq!(parse_shard("0/4").unwrap(), (0, 4));
        assert_eq!(parse_shard("3/4").unwrap(), (3, 4));
        assert!(parse_shard("4/4").is_err());
        assert!(parse_shard("0/0").is_err());
        assert!(parse_shard("x/2").is_err());
        assert!(parse_shard("2").is_err());
    }

    fn sample_report() -> CheckReport {
        let mut r = CheckReport {
            name: "demo".into(),
            executions: 10,
            total_steps: 500,
            crashes_injected: 3,
            crash_points: 3,
            fault_plans: 2,
            helped_ops: 1,
            strategy: "exhaustive".into(),
            pruned: 4,
            coverage_guided: 0,
            workers: 8,
            replayed: 2,
            incomplete: vec!["execution budget of 10 exhausted".into()],
            ..CheckReport::default()
        };
        r.outcomes.set(OutcomeKind::Ok, 9);
        r.outcomes.set(OutcomeKind::Violation, 1);
        r.steps_hist.record(50);
        r.depth_hist.record(12);
        r.crash_point_set.extend([1, 2, 5]);
        r.trace_fps.extend([0xabc, 0xdef]);
        r.coverage.crash_points_exercised = 3;
        r.coverage.distinct_traces = 2;
        r.coverage.crash_points_enumerable = 7;
        let mut faults = FaultPlan::default();
        faults.transient_io.insert(3);
        faults.torn = Some(TornMode::Subset(1));
        faults.net.insert(2, NetFault::Delay);
        faults.disk_fail = Some((2, 9));
        let cx = Counterexample {
            outcome: ExecOutcome::Violation(GhostError::HelpTokenMissing { key: 3 }),
            pass: Pass::CrashSweep,
            index: 5,
            seed: u64::MAX - 99,
            schedule_prefix: vec![0, 2, 1],
            crash_points: vec![5],
            clamped: vec![1],
            faults,
            trace: "t0 op begin\nt1 crash".into(),
            timeline: None,
        };
        r.counterexample = Some(cx.clone());
        r.counterexamples = vec![cx];
        r.per_pass = vec![PassMetrics {
            pass: Pass::CrashSweep,
            rank: Pass::CrashSweep.rank(),
            executions: 10,
            steps: 500,
            crashes: 3,
            fault_plans: 2,
            failures: 1,
            pruned: 0,
            coverage_guided: 0,
            busy_time: Duration::from_micros(1234),
        }];
        r
    }

    #[test]
    fn report_round_trips_through_json_with_stable_fingerprint() {
        let r = sample_report();
        let v = report_to_json(&r);
        let text = serde_json::to_string(&v).unwrap();
        let back = report_from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(report_fingerprint(&r), report_fingerprint(&back));
        assert_eq!(back.executions, r.executions);
        assert_eq!(back.counterexamples.len(), 1);
        // The violation comes back as Imported but renders identically.
        let orig = match &r.counterexample.as_ref().unwrap().outcome {
            ExecOutcome::Violation(e) => e.to_string(),
            _ => unreachable!(),
        };
        match &back.counterexample.as_ref().unwrap().outcome {
            ExecOutcome::Violation(GhostError::Imported { msg }) => assert_eq!(*msg, orig),
            other => panic!("expected imported violation, got {other:?}"),
        }
        assert_eq!(
            back.counterexample.unwrap().faults.compact(),
            r.counterexample.unwrap().faults.compact()
        );
    }

    /// Replaces the value at `path` (object keys and array indices) of
    /// the sample report's JSON and parses the result.
    fn report_with(path: &[&str], value: Value) -> Result<CheckReport, String> {
        let mut root = report_to_json(&sample_report());
        let mut at = &mut root;
        for step in path {
            at = match at {
                Value::Object(m) => m.get_mut(step),
                Value::Array(items) => items.get_mut(step.parse::<usize>().unwrap()),
                _ => None,
            }
            .unwrap_or_else(|| panic!("no {step} on the way to {path:?}"));
        }
        *at = value;
        report_from_json(&root)
    }

    #[test]
    fn report_parser_refuses_hostile_numbers_and_hex() {
        assert!(report_with(&["executions"], json!(10)).is_ok());
        let counts: [&[&str]; 14] = [
            &["executions"],
            &["total_steps"],
            &["helped_ops"],
            &["disk_flushes"],
            &["workers"],
            &["outcomes", "ok"],
            &["per_pass", "0", "steps"],
            &["per_pass", "0", "busy_time_us"],
            &["steps_hist", "count"],
            &["steps_hist", "buckets", "0"],
            &["coverage", "crash_points_enumerable"],
            &["crash_point_set", "0"],
            &["counterexamples", "0", "index"],
            &["counterexamples", "0", "schedule_prefix", "1"],
        ];
        let numbers = [
            1.5,
            -1.0,
            1e17,
            9_007_199_254_740_992.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for path in counts {
            for n in numbers {
                let got = report_with(path, Value::Number(n));
                assert!(got.is_err(), "{path:?} = {n} was accepted");
            }
            assert!(report_with(path, json!("7")).is_err(), "{path:?} = \"7\"");
        }
        for path in [&["counterexamples", "0", "seed"][..], &["trace_fps", "0"]] {
            for hex in ["0x0x1f", "+1f", "0x+1f", "1f", "0x", "0x10000000000000000"] {
                assert!(report_with(path, json!(hex)).is_err(), "{path:?} = {hex:?}");
            }
            assert!(report_with(path, json!("0x1f")).is_ok(), "{path:?}");
        }
        // Timing is not exact, but it is finite and a duration.
        for n in [-1.0, f64::INFINITY, f64::NAN, 1e300] {
            assert!(
                report_with(&["wall_time_s"], Value::Number(n)).is_err(),
                "{n}"
            );
        }
        assert!(report_with(&["execs_per_sec"], Value::Number(f64::NAN)).is_err());
        // Fault plans: a disk is a small number, a net index a count.
        let faults = ["counterexamples", "0", "faults"];
        let disk_fail = [&faults[..], &["disk_fail"]].concat();
        assert!(report_with(&disk_fail, json!([256, 9])).is_err());
        assert!(report_with(&disk_fail, json!([2, 9.5])).is_err());
        let net = [&faults[..], &["net", "0"]].concat();
        assert!(report_with(&net, json!([2.5, "delay"])).is_err());
        assert!(report_with(&net, json!([2, "delay"])).is_ok());
    }

    #[test]
    fn fingerprint_ignores_volatile_fields_only() {
        let r = sample_report();
        let mut timed = r.clone();
        timed.wall_time = Duration::from_secs(99);
        timed.execs_per_sec = 1e6;
        timed.workers = 1;
        timed.replayed = 0;
        timed.shard = Some((0, 2));
        timed.per_pass[0].busy_time = Duration::ZERO;
        assert_eq!(report_fingerprint(&r), report_fingerprint(&timed));
        let mut changed = r.clone();
        changed.total_steps += 1;
        assert_ne!(report_fingerprint(&r), report_fingerprint(&changed));
        let mut marked = r.clone();
        marked.incomplete.push("sink died".into());
        assert_ne!(report_fingerprint(&r), report_fingerprint(&marked));
    }

    #[test]
    fn merge_requires_a_complete_cover() {
        let mut a = sample_report();
        a.shard = Some((0, 2));
        assert!(merge_reports(vec![a.clone()]).is_err());
        assert!(merge_reports(vec![]).is_err());
        let mut dup = a.clone();
        dup.shard = Some((0, 2));
        assert!(merge_reports(vec![a.clone(), dup]).is_err());
        let mut other = sample_report();
        other.shard = Some((1, 2));
        other.name = "different".into();
        assert!(merge_reports(vec![a, other]).is_err());
    }

    #[test]
    fn merge_sums_disjoint_halves() {
        let mut a = sample_report();
        a.shard = Some((0, 2));
        let mut b = sample_report();
        b.shard = Some((1, 2));
        b.counterexamples.clear();
        b.counterexample = None;
        b.outcomes.set(OutcomeKind::Violation, 0);
        b.outcomes.set(OutcomeKind::Ok, 10);
        b.crash_point_set = [5, 9].into_iter().collect();
        b.trace_fps = [0xdef, 0x123].into_iter().collect();
        let merged = merge_reports(vec![b, a]).unwrap();
        assert_eq!(merged.executions, 20);
        assert_eq!(merged.total_steps, 1000);
        assert_eq!(merged.outcomes.get(OutcomeKind::Ok), 19);
        assert_eq!(merged.outcomes.get(OutcomeKind::Violation), 1);
        // Sets union: {1,2,5} ∪ {5,9} and {abc,def} ∪ {def,123}.
        assert_eq!(merged.coverage.crash_points_exercised, 4);
        assert_eq!(merged.coverage.distinct_traces, 3);
        // Session counters agree across shards: max, not sum.
        assert_eq!(merged.pruned, 4);
        assert_eq!(merged.shard, None);
        assert_eq!(merged.replayed, 4);
        assert!(merged.counterexample.is_some());
        assert_eq!(merged.incomplete.len(), 1, "identical messages dedup");
    }
}

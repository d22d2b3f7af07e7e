//! Campaign driver: sweep every registered scenario and mutant under
//! one partitioned, resumable configuration.
//!
//! ```text
//! scan [--filter SUBSTR] [--shard I/N] [--wal DIR] [--resume]
//!      [--out FILE] [--faults] [--strategy exhaustive|dpor|coverage]
//!      [--workers N] [--budget N] [--seed N]
//!      [--trace-out DIR] [--explain] [--profile FILE]
//!      [--shrink] [--emit-test DIR]
//! scan --merge FILE... [--out FILE]
//! scan --dashboard PATH...
//! ```
//!
//! A campaign runs scenarios × mutants × passes. `--shard I/N` hands
//! this process the I-th deterministic slice of every scenario's job
//! space; shard report files (`--out`) from all N slices recombine with
//! `--merge` into exactly the unsharded campaign — same fingerprint.
//! `--wal DIR` writes one JSONL write-ahead log per scenario; with
//! `--resume`, completed executions found in those logs are replayed
//! instead of re-run, so a SIGKILLed campaign picks up where it died
//! and still lands on the same fingerprint.
//!
//! Failing scenarios carry a causal execution trace (DESIGN.md §14):
//! `--explain` prints each counterexample's per-thread explain timeline
//! between `=== explain NAME ===` / `=== end explain ===` markers (pure
//! function of the trace — identical across worker counts, which CI
//! diffs), and `--trace-out DIR` writes one Chrome trace-event JSON per
//! failing scenario, loadable at <https://ui.perfetto.dev>.
//! `--dashboard PATH...` is an offline mode like `--merge`: it folds
//! telemetry/WAL JSONL streams (files, or directories of `*.jsonl`)
//! into one merged campaign dashboard and exits; with no data yet it
//! prints `no campaign data` and exits 0 (not a usage error).
//! `--profile FILE` turns on the checker's cost profiler (DESIGN.md
//! §15): each scenario prints a hotspot view (per-pass cost, contended
//! resources, strategy introspection, worker utilization) and FILE gets
//! a JSON array of `{scenario, profile}` records. Profiling is a pure
//! side channel — fingerprints and WAL contents are unchanged, and all
//! counts are worker-count independent.
//!
//! `--shrink` delta-debugs each winning counterexample down to a
//! minimal reproducer before it is reported (DESIGN.md §16) — the
//! summary, explain timeline, and Chrome trace all describe the
//! *minimized* schedule. Unlike profiling this is not a pure side
//! channel: the counterexample in the report (and hence the campaign
//! fingerprint) changes, deterministically. `--emit-test DIR` (implies
//! `--shrink`) additionally writes one self-contained replay test
//! (`replay_<scenario>.rs`) per failing scenario into DIR; drop it in
//! `tests/` and `cargo test --test replay_<scenario>` re-derives the
//! failure deterministically.
//!
//! The final line is always `campaign fingerprint: 0x…` — a hash of the
//! per-scenario report fingerprints (timing and worker-count excluded),
//! which is the equality oracle CI uses for kill/resume and shard/merge.
//! Exit status: 0 when the campaign completed (mutant FAILs are
//! expected findings, not campaign errors), 1 when a run degraded to an
//! INCOMPLETE partial report, 2 on usage errors.

#![deny(unsafe_code)]

use perennial_bench::args::{apply_strategy, flag, parse_args, rest, value};
use perennial_bench::registry::{all_mutant_scenarios, all_scenarios};
use perennial_checker::campaign::{trace_file, wal_file};
use perennial_checker::{
    campaign_fingerprint, chrome_trace_json, emit_test, merge_reports, parse_shard,
    profile_to_json, render_dashboard, render_explain, render_profile, report_from_json,
    report_to_json, test_file_name, CheckConfig, CheckReport, Dashboard, Pass,
};
use std::path::PathBuf;

fn write_out(path: &str, shard: Option<(u32, u32)>, reports: &[CheckReport]) {
    let mut root = serde_json::Map::new();
    root.insert(
        "shard".into(),
        match shard {
            Some((i, n)) => serde_json::Value::String(format!("{i}/{n}")),
            None => serde_json::Value::Null,
        },
    );
    root.insert(
        "campaign_fingerprint".into(),
        serde_json::Value::String(format!("{:#018x}", campaign_fingerprint(reports))),
    );
    root.insert(
        "scenarios".into(),
        serde_json::Value::Array(reports.iter().map(report_to_json).collect()),
    );
    let text = serde_json::to_string_pretty(&serde_json::Value::Object(root)).unwrap();
    std::fs::write(path, text).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
    println!("(campaign report written to {path})");
}

fn read_out(path: &str) -> Vec<CheckReport> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
    let v = serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("parsing {path}: {e}")));
    let serde_json::Value::Object(map) = v else {
        die(&format!("{path}: not a campaign report object"));
    };
    let Some(serde_json::Value::Array(items)) = map.get("scenarios") else {
        die(&format!("{path}: no \"scenarios\" array"));
    };
    items
        .iter()
        .map(|item| {
            report_from_json(item).unwrap_or_else(|e| die(&format!("{path}: bad report: {e}")))
        })
        .collect()
}

/// Merge mode: one campaign report file per shard in, the recombined
/// whole-campaign report out.
fn merge_mode(files: &[String], out: Option<&str>) -> i32 {
    let mut by_name: std::collections::BTreeMap<String, Vec<CheckReport>> = Default::default();
    for f in files {
        for r in read_out(f) {
            by_name.entry(r.name.clone()).or_default().push(r);
        }
    }
    let mut merged = Vec::new();
    for (name, shards) in by_name {
        match merge_reports(shards) {
            Ok(r) => {
                println!("{}", r.summary());
                merged.push(r);
            }
            Err(e) => die(&format!("merging {name}: {e}")),
        }
    }
    let incomplete = merged.iter().any(|r| r.is_incomplete());
    if let Some(path) = out {
        write_out(path, None, &merged);
    }
    println!(
        "campaign fingerprint: {:#018x}",
        campaign_fingerprint(&merged)
    );
    i32::from(incomplete)
}

/// Dashboard mode: fold telemetry/WAL JSONL streams into one merged
/// campaign dashboard. Each path is a `.jsonl` file or a directory
/// scanned for them; the scenario key is each record's stamp, the
/// registry name its run went by.
fn dashboard_mode(paths: &[String]) -> i32 {
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        let path = PathBuf::from(p);
        if path.is_dir() {
            let mut found: Vec<PathBuf> = std::fs::read_dir(&path)
                .unwrap_or_else(|e| die(&format!("reading {path:?}: {e}")))
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
                .collect();
            found.sort();
            files.extend(found);
        } else {
            files.push(path);
        }
    }
    // An empty or not-yet-populated WAL directory is not a usage error
    // — a fresh campaign simply has nothing to show yet. Say so and
    // exit cleanly so scripted dashboards don't fail before first data.
    if files.is_empty() {
        println!("no campaign data: no .jsonl streams under the given paths");
        return 0;
    }
    let mut dash = Dashboard::default();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| die(&format!("reading {file:?}: {e}")));
        dash.ingest(&text);
    }
    if dash.scenarios.is_empty() {
        println!("no campaign data: the streams held no campaign records");
        return 0;
    }
    print!("{}", render_dashboard(&dash));
    0
}

fn die(msg: &str) -> ! {
    eprintln!("scan: {msg}");
    std::process::exit(2);
}

fn main() {
    let spec = [
        value("--filter"),
        value("--shard"),
        value("--wal"),
        flag("--resume"),
        value("--out"),
        flag("--faults"),
        value("--strategy"),
        value("--workers"),
        value("--budget"),
        value("--seed"),
        rest("--merge"),
        rest("--dashboard"),
        value("--trace-out"),
        flag("--explain"),
        value("--profile"),
        flag("--shrink"),
        value("--emit-test"),
    ];
    let args = parse_args(std::env::args().skip(1), &spec).unwrap_or_else(|e| die(&e));
    if let [stray, ..] = args.positionals() {
        die(&format!(
            "unexpected argument {stray:?} (see the doc comment)"
        ));
    }
    let filter = args.value("--filter");
    let shard = args
        .value("--shard")
        .map(|s| parse_shard(s).unwrap_or_else(|e| die(&e)));
    let wal_dir = args.value("--wal").map(PathBuf::from);
    let resume = args.flag("--resume");
    let out = args.value("--out");
    let faults = args.flag("--faults");
    let strategy = args.value("--strategy").unwrap_or("exhaustive");
    let workers: usize = args // 0 = builder default
        .parse_value("--workers")
        .unwrap_or_else(|e| die(&e))
        .unwrap_or(0);
    let budget: u64 = args
        .parse_value("--budget")
        .unwrap_or_else(|e| die(&e))
        .unwrap_or(0);
    let seed: u64 = args
        .parse_value("--seed")
        .unwrap_or_else(|e| die(&e))
        .unwrap_or(7);
    let trace_out = args.value("--trace-out").map(PathBuf::from);
    let explain = args.flag("--explain");
    let profile_out = args.value("--profile");
    let emit_test_dir = args.value("--emit-test").map(PathBuf::from);
    let shrink = args.flag("--shrink") || emit_test_dir.is_some();

    if !args.tail("--merge").is_empty() {
        std::process::exit(merge_mode(args.tail("--merge"), out));
    }
    if !args.tail("--dashboard").is_empty() {
        std::process::exit(dashboard_mode(args.tail("--dashboard")));
    }
    if resume && wal_dir.is_none() {
        die("--resume needs --wal DIR (the logs to resume from)");
    }
    if let Some(dir) = &wal_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("creating {dir:?}: {e}")));
    }
    if let Some(dir) = &trace_out {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("creating {dir:?}: {e}")));
    }
    if let Some(dir) = &emit_test_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("creating {dir:?}: {e}")));
    }

    let mut registry = all_scenarios();
    registry.extend(all_mutant_scenarios());
    let selected: Vec<_> = registry
        .iter()
        .filter(|s| filter.is_none_or(|f| s.name().contains(f)))
        .collect();
    if selected.is_empty() {
        die("no scenario matches the filter; run without --filter to sweep everything");
    }

    let mut reports = Vec::new();
    let mut profiles = Vec::new();
    for scenario in selected {
        let mut cfg = CheckConfig::builder()
            .seed(seed)
            .dfs_max_executions(300)
            .random_samples(10)
            .random_crash_samples(25)
            .max_steps(200_000)
            .shard_opt(shard)
            .keep_going(true)
            .profile(profile_out.is_some())
            .shrink(shrink);
        if faults {
            cfg = cfg.with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault]);
        }
        cfg = apply_strategy(cfg, strategy).unwrap_or_else(|e| die(&e));
        if workers > 0 {
            cfg = cfg.workers(workers);
        }
        if budget > 0 {
            cfg = cfg.exec_budget(budget);
        }
        if let Some(dir) = &wal_dir {
            let wal = dir.join(wal_file(scenario.name()));
            cfg = cfg.telemetry_path(&wal);
            if resume {
                cfg = cfg.resume_from(&wal);
            }
        }
        let mut report = scenario.run(&cfg.build());
        println!("{}", report.summary());
        if let (Some(s), Some(cx)) = (&report.shrink, &report.counterexample) {
            println!(
                "(shrink: removed {} step(s) in {} round(s), {} re-runs; \
                 now {} grant(s) + {} crash point(s), faults {})",
                s.steps_removed,
                s.rounds,
                s.re_runs,
                cx.schedule_prefix.len(),
                cx.crash_points.len(),
                cx.faults.compact(),
            );
        }
        if let (Some(dir), Some(cx)) = (&emit_test_dir, &report.counterexample) {
            let path = dir.join(test_file_name(&report.name));
            let source = emit_test(&report.name, cx, 200_000);
            std::fs::write(&path, source)
                .unwrap_or_else(|e| die(&format!("writing {path:?}: {e}")));
            println!("(replay test written to {})", path.display());
        }
        if let Some(timeline) = report
            .counterexample
            .as_ref()
            .and_then(|cx| cx.timeline.as_ref())
        {
            if let Some(dir) = &trace_out {
                let path = dir.join(trace_file(&report.name));
                let json = chrome_trace_json(timeline, &report.name);
                let text = serde_json::to_string_pretty(&json).unwrap();
                std::fs::write(&path, text)
                    .unwrap_or_else(|e| die(&format!("writing {path:?}: {e}")));
                println!("(chrome trace written to {})", path.display());
            }
            if explain {
                println!("=== explain {} ===", report.name);
                print!("{}", render_explain(timeline));
                println!("=== end explain ===");
            }
        }
        if let Some(profile) = report.profile.take() {
            print!("{}", render_profile(&profile));
            let mut entry = serde_json::Map::new();
            entry.insert(
                "scenario".into(),
                serde_json::Value::String(report.name.clone()),
            );
            entry.insert("profile".into(), profile_to_json(&profile));
            profiles.push(serde_json::Value::Object(entry));
        }
        reports.push(report);
    }

    let incomplete = reports.iter().any(|r| r.is_incomplete());
    let replayed: u64 = reports.iter().map(|r| r.replayed).sum();
    if replayed > 0 {
        println!("(resume: {replayed} executions replayed from the WAL)");
    }
    if let Some(path) = profile_out {
        let text = serde_json::to_string_pretty(&serde_json::Value::Array(profiles)).unwrap();
        std::fs::write(path, text).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        println!("(profile written to {path})");
    }
    if let Some(path) = out {
        write_out(path, shard, &reports);
    }
    println!(
        "campaign fingerprint: {:#018x}",
        campaign_fingerprint(&reports)
    );
    std::process::exit(i32::from(incomplete));
}

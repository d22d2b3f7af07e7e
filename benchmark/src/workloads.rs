//! The four workloads and the loop that runs one repetition of a
//! campaign through the checker's public API.
//!
//! Why these four (the README has the long form):
//! - `verify`: time to a PASS verdict — the run-to-budget path, dominated
//!   by scheduler grants and crash unwinds; no dependency tracking, no
//!   side channels, no fault plans.
//! - `hunt`: time and executions to the first counterexample — the same
//!   executor used the other way (early exit, footprints on every grant).
//! - `faults`: fault-plan exploration — the disk, fault and network
//!   models do their most work here and almost none in `verify`.
//! - `observe`: `verify` ∪ `hunt` with every side channel on, then every
//!   verdict re-derived from its write-ahead log and every report sent
//!   through the JSON codec — the recording layers the other three bypass.

use crate::oracle::Oracle;
use crate::spans::Tracer;
use perennial_checker::{
    report_fingerprint, report_from_json, report_to_json, trace_fingerprint, CheckConfig,
    CheckConfigBuilder, CheckReport, Pass, Scenario, SleepSetDpor,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const NAMES: [&str; 4] = ["verify", "hunt", "faults", "observe"];

/// Per-execution step bound, the same everywhere (`scan`'s value).
pub const MAX_STEPS: u64 = 200_000;

const FAULT_PASSES: [Pass; 3] = [Pass::DiskFault, Pass::TornWrite, Pass::NetFault];

/// Which exploration configuration a scenario runs under. `observe`
/// mixes two of them, so the choice sits on the item, not the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    Verify,
    Hunt,
    Faults,
}

impl Part {
    fn fault_passes_on(self) -> bool {
        self != Part::Verify
    }

    /// Budgets are fixed: they size the workload, and a count that moved
    /// because a budget moved would say nothing about the checker.
    /// `--quick` divides them by ten for a smoke run.
    pub fn config(self, seed: u64, quick: bool) -> CheckConfigBuilder {
        let (dfs, random, crash) = match self {
            Part::Verify => (300, 10, 25),
            Part::Hunt => (2000, 500, 100),
            Part::Faults => (500, 100, 200),
        };
        let div = if quick { 10 } else { 1 };
        let cfg = CheckConfig::builder()
            .seed(seed)
            .workers(1)
            .max_steps(MAX_STEPS)
            .dfs_max_executions(dfs / div)
            .random_samples(random / div)
            .random_crash_samples(crash / div)
            .trace_capture(false);
        match self {
            Part::Verify => cfg.keep_going(true),
            Part::Hunt => cfg
                .keep_going(false)
                .strategy(SleepSetDpor)
                .without_passes([Pass::NestedCrash])
                .with_passes(FAULT_PASSES),
            Part::Faults => cfg
                .keep_going(true)
                .without_passes([Pass::NestedCrash])
                .with_passes(FAULT_PASSES),
        }
    }
}

#[derive(Clone)]
pub struct Item {
    pub scenario: Scenario,
    pub part: Part,
}

pub struct Workload {
    pub name: &'static str,
    pub items: Vec<Item>,
    /// `observe`: side channels on, then resume and codec passes.
    pub observed: bool,
}

impl Workload {
    pub fn new(name: &str) -> Result<Workload, String> {
        let items = |set: perennial_checker::ScenarioSet, part| {
            set.iter()
                .map(|s| Item {
                    scenario: s.clone(),
                    part,
                })
                .collect::<Vec<_>>()
        };
        let good = perennial_suite::all_scenarios;
        let bad = perennial_suite::all_mutant_scenarios;
        let (name, items, observed) = match name {
            "verify" => ("verify", items(good(), Part::Verify), false),
            "hunt" => ("hunt", items(bad(), Part::Hunt), false),
            "faults" => ("faults", items(good(), Part::Faults), false),
            "observe" => {
                let mut all = items(good(), Part::Verify);
                all.extend(items(bad(), Part::Hunt));
                ("observe", all, true)
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?} (one of: {})",
                    NAMES.join(", ")
                ))
            }
        };
        Ok(Workload {
            name,
            items,
            observed,
        })
    }

    /// The side channels this workload runs with: all of them on
    /// `observe`, none elsewhere.
    pub fn channels(&self) -> Channels {
        if self.observed {
            Channels::ALL
        } else {
            Channels::default()
        }
    }

    /// The same workload restricted to scenarios whose name contains
    /// `fragment` — the traced run's cheaper side experiments use it.
    pub fn subset(&self, fragment: &str) -> Workload {
        Workload {
            name: self.name,
            items: self
                .items
                .iter()
                .filter(|i| i.scenario.name().contains(fragment))
                .cloned()
                .collect(),
            observed: self.observed,
        }
    }
}

/// Which of `observe`'s side channels are on; all off elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Channels {
    pub wal: bool,
    pub profile: bool,
    pub trace: bool,
    pub shrink: bool,
}

impl Channels {
    pub const ALL: Channels = Channels {
        wal: true,
        profile: true,
        trace: true,
        shrink: true,
    };
}

/// Everything one repetition needs besides the workload.
pub struct RunOpts<'a> {
    pub seed: u64,
    pub quick: bool,
    pub channels: Channels,
    /// Run the resume and codec passes after the observed pass.
    pub rederive: bool,
    /// Override the part's strategy/worker count (traced-run experiments).
    pub tweak: Option<&'a dyn Fn(CheckConfigBuilder) -> CheckConfigBuilder>,
    pub wal_dir: &'a Path,
    pub oracle: &'a Oracle,
}

/// One scenario's verdict and what it cost.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub wall_s: f64,
    pub executions: u64,
    pub steps: u64,
    pub crashes: u64,
    pub disk_ops: u64,
    pub net_ops: u64,
    pub distinct_traces: u64,
    pub pruned: u64,
    pub per_pass: Vec<(Pass, u64)>,
    pub shrink_re_runs: u64,
}

impl Row {
    /// `kv`, `repldisk`, `mailboat` or `patterns`.
    pub fn family(&self) -> &str {
        self.name.split('/').next().unwrap_or("")
    }
}

/// One repetition of the whole campaign.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall-clock until every verdict was delivered (on `observe`: live,
    /// re-derived from the WALs, and round-tripped through JSON).
    pub wall_s: f64,
    /// The first-derivation pass alone.
    pub check_s: f64,
    pub resume_s: f64,
    pub codec_s: f64,
    pub rows: Vec<Row>,
    /// Fold of the report fingerprints in name order, as `scan` prints it.
    pub fingerprint: u64,
    /// Verdicts checked against a known answer or a reference fingerprint.
    pub attempted: u64,
    pub errors: Vec<String>,
    pub wal_bytes: u64,
}

impl Rep {
    pub fn sum(&self, f: impl Fn(&Row) -> u64) -> u64 {
        self.rows.iter().map(f).sum()
    }
}

pub fn wal_path(dir: &Path, scenario: &str) -> PathBuf {
    dir.join(format!("{}.jsonl", scenario.replace('/', "__")))
}

fn campaign_fingerprint(mut lines: Vec<String>) -> u64 {
    lines.sort();
    trace_fingerprint(&lines.join("\n"))
}

fn config_for(item: &Item, opts: &RunOpts) -> CheckConfigBuilder {
    let c = opts.channels;
    let mut cfg = item
        .part
        .config(opts.seed, opts.quick)
        .profile(c.profile)
        .trace_capture(c.trace)
        .shrink(c.shrink);
    if let Some(tweak) = opts.tweak {
        cfg = tweak(cfg);
    }
    cfg
}

/// Runs every scenario once, judges every verdict, and (when asked)
/// re-derives each verdict from its WAL and through the report codec.
pub fn run_rep(w: &Workload, opts: &RunOpts, label: &str, tracer: &mut Tracer) -> Rep {
    tracer.span("rep", label, |tracer| {
        let mut rep = Rep::default();
        let mut reports: Vec<(CheckReport, u64)> = Vec::with_capacity(w.items.len());
        let mut lines = Vec::with_capacity(w.items.len());
        let t_rep = Instant::now();
        for item in &w.items {
            let name = item.scenario.name();
            let mut cfg = config_for(item, opts);
            if opts.channels.wal {
                cfg = cfg.telemetry_path(wal_path(opts.wal_dir, name));
            }
            let cfg = cfg.build();
            let t0 = Instant::now();
            let mut report = tracer.span("checker.check", name, |_| item.scenario.run(&cfg));
            let wall_s = t0.elapsed().as_secs_f64();
            // Mutants share their base scenario's human name; campaign
            // files key on the unique registry name, as `scan` does.
            report.name = name.to_string();
            rep.attempted += 1;
            rep.errors.extend(
                opts.oracle
                    .judge(name, &report, item.part.fault_passes_on()),
            );
            let fp = report_fingerprint(&report);
            lines.push(format!("{name}={fp:#018x}"));
            rep.rows.push(Row {
                name: name.to_string(),
                wall_s,
                executions: report.executions as u64,
                steps: report.total_steps,
                crashes: report.crashes_injected as u64,
                disk_ops: report.disk_reads + report.disk_writes + report.disk_flushes,
                net_ops: report.net_sends + report.net_recvs,
                distinct_traces: report.coverage.distinct_traces,
                pruned: report.pruned,
                per_pass: report
                    .per_pass
                    .iter()
                    .map(|p| (p.pass, p.executions))
                    .collect(),
                shrink_re_runs: report.shrink.map_or(0, |s| s.re_runs),
            });
            reports.push((report, fp));
        }
        rep.fingerprint = campaign_fingerprint(lines);
        rep.check_s = t_rep.elapsed().as_secs_f64();

        if opts.channels.wal {
            rep.wal_bytes = w
                .items
                .iter()
                .filter_map(|i| std::fs::metadata(wal_path(opts.wal_dir, i.scenario.name())).ok())
                .map(|m| m.len())
                .sum();
        }
        if opts.rederive {
            let t0 = Instant::now();
            for (item, (_, want)) in w.items.iter().zip(&reports) {
                let name = item.scenario.name();
                let cfg = config_for(item, opts)
                    .resume_from(wal_path(opts.wal_dir, name))
                    .build();
                let mut resumed = tracer.span("resume", name, |_| item.scenario.run(&cfg));
                resumed.name = name.to_string();
                rep.attempted += 1;
                if report_fingerprint(&resumed) != *want {
                    rep.errors
                        .push(format!("{name}: resumed from its WAL to another report"));
                }
            }
            rep.resume_s = t0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            for (report, want) in &reports {
                let back = tracer.span("codec", &report.name, |_| {
                    let text = serde_json::to_string(&report_to_json(report))
                        .expect("shim serialization is infallible");
                    serde_json::from_str(&text)
                        .map_err(|e| e.to_string())
                        .and_then(|v| report_from_json(&v))
                });
                rep.attempted += 1;
                match back {
                    Ok(r) if report_fingerprint(&r) == *want => {}
                    Ok(_) => rep.errors.push(format!(
                        "{}: JSON round trip changed the report",
                        report.name
                    )),
                    Err(e) => rep
                        .errors
                        .push(format!("{}: JSON round trip failed: {e}", report.name)),
                }
            }
            rep.codec_s = t0.elapsed().as_secs_f64();
        }
        rep.wall_s = t_rep.elapsed().as_secs_f64();
        rep
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_cover_the_registries() {
        assert_eq!(Workload::new("verify").unwrap().items.len(), 18);
        assert_eq!(Workload::new("hunt").unwrap().items.len(), 28);
        assert_eq!(Workload::new("faults").unwrap().items.len(), 18);
        let observe = Workload::new("observe").unwrap();
        assert_eq!(observe.items.len(), 46);
        assert!(observe.observed);
        assert!(Workload::new("nope").is_err());
        assert_eq!(observe.subset("patterns/").items.len(), 5 + 14);
    }

    #[test]
    fn a_quick_hunt_finds_every_bug_and_repeats_its_fingerprint() {
        let oracle = Oracle::load().unwrap();
        let wal_dir = std::env::temp_dir();
        let opts = RunOpts {
            seed: 7,
            quick: true,
            channels: Channels::default(),
            rederive: false,
            tweak: None,
            wal_dir: &wal_dir,
            oracle: &oracle,
        };
        let hunt = Workload::new("hunt").unwrap();
        let mut tracer = Tracer::new(true);
        let a = run_rep(&hunt, &opts, "a", &mut tracer);
        let b = run_rep(&hunt, &opts, "b", &mut tracer);
        assert_eq!(a.errors, Vec::<String>::new());
        assert_eq!((a.attempted, a.rows.len()), (28, 28));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.sum(|r| r.executions), b.sum(|r| r.executions));
        // Two `rep` spans, each the parent of 28 `checker.check` spans.
        let spans = tracer.spans();
        assert_eq!(spans.iter().filter(|s| s.name == "rep").count(), 2);
        assert_eq!(
            spans.iter().filter(|s| s.name == "checker.check").count(),
            56
        );
    }

    #[test]
    fn quick_divides_budgets_and_keeps_the_passes() {
        let full = Part::Hunt.config(7, false).build();
        let quick = Part::Hunt.config(7, true).build();
        assert_eq!(
            (
                full.dfs_max_executions,
                full.random_samples,
                full.random_crash_samples
            ),
            (2000, 500, 100)
        );
        assert_eq!(
            (
                quick.dfs_max_executions,
                quick.random_samples,
                quick.random_crash_samples
            ),
            (200, 50, 10)
        );
        assert_eq!(full.passes, quick.passes);
        assert!(full.passes.contains(Pass::NetFault) && !full.passes.contains(Pass::NestedCrash));
        assert!(Part::Verify
            .config(7, false)
            .build()
            .passes
            .contains(Pass::NestedCrash));
        assert_eq!(full.workers, 1);
    }
}

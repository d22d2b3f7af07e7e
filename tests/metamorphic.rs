//! Metamorphic toggles (ROADMAP item 4 (b)): how a run is carried out must
//! not show in what it reports. Generated tuples over pool size × event
//! stream × profiler × trace capture × cold/resumed × whole/sharded (in
//! two, three or four) × whose runs the resumed stream holds all land on
//! the fingerprint of the plainest run of the same scenario — one worker,
//! no stream, every side channel off. Shrinking changes the
//! counterexample, so a shrink-on run of the mutant is held to a baseline
//! of its own: a shrink-on run at one worker. The crash sweeps' jobs run in
//! groups forked off one shared execution, so two tests pin the group
//! boundaries: a stream cut inside a nested-crash group resumes to the
//! cold run, and the pool size changes neither the report nor which jobs
//! the stream records.

use perennial_checker::telemetry::{parse_wal, read_stream, Record};
use perennial_checker::{
    merge_reports, report_fingerprint, CheckConfig, CheckConfigBuilder, CheckReport, Pass,
    Scenario, ShrinkStats, TelemetrySink,
};
use perennial_suite::{all_mutant_scenarios, all_scenarios};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

const SCENARIOS: [&str; 3] = [
    "patterns/shadow",
    "repldisk/single-write",
    "patterns/mutant/shadow-flip-first",
];

/// For each scenario, the one whose run may share its stream: the shadow
/// copy and its mutant run the same harness, so their job keys coincide.
const SIBLING: [usize; 3] = [2, 0, 0];

/// Small budgets, every sweep on. Sharded runs keep going past a failure
/// (their statistics must sum), so every run here does.
fn base_cfg() -> CheckConfigBuilder {
    CheckConfig::builder()
        .seed(7)
        .dfs_max_executions(30)
        .random_samples(4)
        .random_crash_samples(6)
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .max_steps(200_000)
        .keep_going(true)
        .trace_capture(false)
}

/// Each scenario with the fingerprint of its everything-off run.
fn baselines() -> &'static [(Scenario, u64)] {
    static BASELINES: OnceLock<Vec<(Scenario, u64)>> = OnceLock::new();
    BASELINES.get_or_init(|| {
        let (good, bad) = (all_scenarios(), all_mutant_scenarios());
        SCENARIOS
            .iter()
            .map(|name| {
                let scenario = good
                    .get(name)
                    .or_else(|| bad.get(name))
                    .expect("registered");
                let report = scenario.run(&base_cfg().workers(1).build());
                assert!(report.executions > 100, "{name}: {}", report.summary());
                assert_eq!(report.passed(), !name.contains("mutant"), "{name}");
                (scenario.clone(), report_fingerprint(&report))
            })
            .collect()
    })
}

#[derive(Debug, Clone, Copy)]
enum Stream {
    None,
    SharedSink,
    File,
}

/// Whether the stream resumed from also holds a sibling scenario's run
/// (same configuration, same file), and on which side of the own run.
#[derive(Debug, Clone, Copy)]
enum Sibling {
    None,
    Before,
    After,
}

#[derive(Debug, Clone, Copy)]
struct Toggles {
    workers: usize,
    stream: Stream,
    profile: bool,
    trace_capture: bool,
    resumed: bool,
    /// Shards the run is split into; 1 runs it whole.
    shards: u32,
    sibling: Sibling,
    shrink: bool,
}

fn wal_path(case: &str, shard: Option<(u32, u32)>) -> PathBuf {
    let shard = shard.map_or(String::new(), |(i, n)| format!("-{i}of{n}"));
    std::env::temp_dir().join(format!(
        "perennial-metamorphic-{}-{case}{shard}.jsonl",
        std::process::id()
    ))
}

/// One run (of the whole space, or of one shard) of `baselines()[index]`
/// under the toggles.
fn run(index: usize, t: Toggles, shard: Option<(u32, u32)>, case: &str) -> CheckReport {
    let scenario = &baselines()[index].0;
    let cfg = || {
        base_cfg()
            .workers(t.workers)
            .shard_opt(shard)
            .shrink(t.shrink)
    };
    let wal = wal_path(case, shard);
    if t.resumed {
        // The log this run resumes from: the same run's, complete, and
        // maybe a sibling's in the same stream.
        let sink = TelemetrySink::to_file(&wal).expect("temp file");
        let sibling = &baselines()[SIBLING[index]].0;
        let runs: &[&Scenario] = match t.sibling {
            Sibling::None => &[scenario],
            Sibling::Before => &[sibling, scenario],
            Sibling::After => &[scenario, sibling],
        };
        for s in runs {
            s.run(&cfg().telemetry(sink.clone()).build());
        }
    }
    let mut measured = cfg().profile(t.profile).trace_capture(t.trace_capture);
    if t.resumed {
        measured = measured.resume_from(&wal);
    }
    measured = match t.stream {
        Stream::None => measured,
        Stream::SharedSink => measured.telemetry(TelemetrySink::shared_buffer().0),
        // Resuming, this is the file being replayed: appended to.
        Stream::File => measured.telemetry_path(&wal),
    };
    let report = scenario.run(&measured.build());
    let _ = std::fs::remove_file(&wal);
    assert_eq!(report.profile.is_some(), t.profile);
    assert!(!report.is_incomplete(), "{:?}", report.incomplete);
    if t.resumed {
        assert!(report.replayed > 0, "{t:?}: nothing replayed");
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn how_a_run_is_carried_out_does_not_show_in_its_fingerprint(
        scenario in 0usize..3,
        workers in 1usize..4,
        stream in 0usize..3,
        profile in any::<bool>(),
        trace_capture in any::<bool>(),
        resumed in any::<bool>(),
        (sharded, n) in (any::<bool>(), 2u32..5),
        sibling in 0usize..3,
    ) {
        let index = scenario;
        let (scenario, want) = &baselines()[index];
        let stream = [Stream::None, Stream::SharedSink, Stream::File][stream];
        let sibling = [Sibling::None, Sibling::Before, Sibling::After][sibling];
        let shards = if sharded { n } else { 1 };
        let t = Toggles {
            workers, stream, profile, trace_capture, resumed, shards, sibling, shrink: false,
        };
        let case = format!("{}-{t:?}", scenario.name()).replace(|c: char| !c.is_alphanumeric(), "");
        let report = if t.shards > 1 {
            let shards = (0..t.shards).map(|i| run(index, t, Some((i, t.shards)), &case)).collect();
            merge_reports(shards)?
        } else {
            run(index, t, None, &case)
        };
        prop_assert_eq!(
            report_fingerprint(&report),
            *want,
            "{}: {:?} reports {}",
            scenario.name(),
            t,
            report.summary()
        );
    }
}

/// The index of `patterns/mutant/shadow-flip-first` in [`SCENARIOS`].
const MUTANT: usize = 2;

/// The fingerprint and shrink statistics of a shrink-on run of the mutant
/// at one worker. Here the winning counterexample (one crash point) is
/// already minimal, so shrinking only re-runs candidates; the statistics
/// pin that those re-runs are the same ones wherever the run happens.
fn shrunk_baseline() -> (u64, ShrinkStats) {
    static SHRUNK: OnceLock<(u64, ShrinkStats)> = OnceLock::new();
    *SHRUNK.get_or_init(|| {
        let scenario = &baselines()[MUTANT].0;
        let report = scenario.run(&base_cfg().workers(1).shrink(true).build());
        let stats = report.shrink.expect("a counterexample to shrink");
        assert!(stats.re_runs > 1, "{stats:?}");
        (report_fingerprint(&report), stats)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn how_a_shrinking_run_is_carried_out_does_not_show_in_its_fingerprint(
        workers in 1usize..4,
        stream in 0usize..3,
        resumed in any::<bool>(),
    ) {
        let stream = [Stream::None, Stream::SharedSink, Stream::File][stream];
        let t = Toggles {
            workers,
            stream,
            profile: false,
            trace_capture: false,
            resumed,
            shards: 1,
            sibling: Sibling::None,
            shrink: true,
        };
        let case = format!("shrink-{t:?}").replace(|c: char| !c.is_alphanumeric(), "");
        let report = run(MUTANT, t, None, &case);
        let got = (report_fingerprint(&report), report.shrink.expect("shrunk"));
        prop_assert_eq!(got, shrunk_baseline(), "{:?}: {}", t, report.summary());
    }
}

/// The `exec_done` records of a stream, as `(pass, index, steps)` in
/// stream order.
fn exec_done(text: &str) -> Vec<(Pass, u64, u64)> {
    let mut done = Vec::new();
    read_stream(text, None, |_, record| {
        if let Record::ExecDone {
            pass, index, stats, ..
        } = record
        {
            done.push((pass, index, stats.steps));
        }
    });
    done
}

/// `patterns/shadow` under the base configuration, nested crashes on,
/// streamed to `wal`.
fn streamed(workers: usize, wal: &std::path::Path) -> CheckReport {
    let scenario = &baselines()[0].0;
    let cfg = base_cfg().workers(workers).telemetry_path(wal).build();
    assert!(cfg.passes.contains(Pass::NestedCrash));
    scenario.run(&cfg)
}

#[test]
fn a_stream_cut_inside_a_nested_crash_group_resumes_to_the_cold_run() {
    let (scenario, want) = &baselines()[0];
    let wal = wal_path("nested-cut", None);
    let _ = std::fs::remove_file(&wal);
    let cold = streamed(1, &wal);
    assert_eq!(report_fingerprint(&cold), *want);
    let text = std::fs::read_to_string(&wal).expect("the stream");
    let done = exec_done(&text);
    // Nested group `k` holds one job per step of the first-level job `k`
    // after its crash: the rank-3 record `k`'s steps, less `k + 1`.
    let sizes: Vec<u64> = done
        .iter()
        .filter(|(pass, ..)| *pass == Pass::CrashSweep)
        .map(|&(_, k, steps)| steps.saturating_sub(k + 1))
        .collect();
    let (k, size) = sizes
        .iter()
        .enumerate()
        .find(|(_, &size)| size >= 3)
        .expect("a nested group of three jobs");
    // Cut after the group's second job, then tear the next line in half.
    let cut_at: u64 = sizes[..k].iter().sum::<u64>() + 1;
    assert!(cut_at + 1 < sizes[..k].iter().sum::<u64>() + size);
    let lines: Vec<&str> = text.lines().collect();
    let keep = 1 + lines
        .iter()
        .position(|line| {
            exec_done(line)
                .first()
                .is_some_and(|&(pass, index, _)| pass == Pass::NestedCrash && index == cut_at)
        })
        .expect("the cut's record");
    let torn = &lines[keep][..lines[keep].len() / 2];
    let mut cut = lines[..keep].join("\n");
    cut.push('\n');
    cut.push_str(torn);
    std::fs::write(&wal, cut).expect("the cut stream");

    let resumed = scenario.run(&base_cfg().workers(1).resume_from(&wal).build());
    let _ = std::fs::remove_file(&wal);
    assert_eq!(report_fingerprint(&resumed), *want, "{}", resumed.summary());
    // Every whole `ok` record is read back — the schedule phase's, which
    // the log closed before the cut, and the nested group's first two
    // jobs included; the rest run again.
    let kept = parse_wal(&lines[..keep].join("\n"), scenario.name());
    assert!(
        kept.schedule_end.is_some(),
        "the cut falls after the schedule phase"
    );
    assert_eq!(resumed.replayed, kept.completed.len() as u64);
}

#[test]
fn the_pool_size_changes_neither_the_report_nor_the_recorded_jobs() {
    let keys = |workers: usize| {
        let wal = wal_path(&format!("pool-{workers}"), None);
        let _ = std::fs::remove_file(&wal);
        let report = streamed(workers, &wal);
        let text = std::fs::read_to_string(&wal).expect("the stream");
        let _ = std::fs::remove_file(&wal);
        let mut keys: Vec<(Pass, u64)> = exec_done(&text)
            .into_iter()
            .map(|(pass, index, _)| (pass, index))
            .collect();
        keys.sort();
        (report, keys)
    };
    let (one, one_keys) = keys(1);
    let (three, three_keys) = keys(3);
    assert_eq!(report_fingerprint(&one), report_fingerprint(&three));
    assert_eq!(report_fingerprint(&one), baselines()[0].1);
    assert!(one_keys.iter().any(|(pass, _)| *pass == Pass::NestedCrash));
    assert_eq!(one_keys, three_keys);
}

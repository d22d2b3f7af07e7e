//! Metamorphic toggles (ROADMAP item 4 (b)): how a run is carried out must
//! not show in what it reports. Generated tuples over pool size × event
//! stream × profiler × trace capture × cold/resumed × whole/sharded (in
//! two, three or four) × whose runs the resumed stream holds all land on
//! the fingerprint of the plainest run of the same scenario — one worker,
//! no stream, every side channel off.

use perennial_checker::{
    merge_reports, report_fingerprint, CheckConfig, CheckConfigBuilder, CheckReport, Pass,
    Scenario, TelemetrySink,
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
    let cfg = || base_cfg().workers(t.workers).shard_opt(shard);
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
        let t = Toggles { workers, stream, profile, trace_capture, resumed, shards, sibling };
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

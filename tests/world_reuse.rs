//! One world per worker, reset between executions (DESIGN.md §9): which
//! executions a world served before must not show in what an execution
//! reports.
//!
//! At one worker every execution of a check shares one pool of worlds; at
//! three, each wave's workers keep a pool each, so most executions are
//! served by a world with a different past. Every registered scenario and
//! mutant runs under the `faults` workload's passes and under the `hunt`
//! workload's DPOR configuration at both pool sizes, and each job's
//! `exec_done` record — every counter and the ghost trace's fingerprint —
//! must read back the same from the two streams.
//!
//! And the debug build's cross-check must catch a system whose reset
//! leaves one volatile field behind: a fixed sample of the executions a
//! reused world served is re-run in a fresh world, and a difference
//! panics, naming the job.

use perennial_checker::telemetry::{read_stream, ExecStats, Record};
use perennial_checker::{
    check, CheckConfig, CheckConfigBuilder, Harness, Pass, Scenario, Script, SleepSetDpor, System,
    TelemetrySink, World,
};
use perennial_spec::fixtures::{RegOp, RegSpec};
use perennial_suite::{all_mutant_scenarios, all_scenarios};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// The `faults` workload's passes, at budgets a test suite affords.
fn faults() -> CheckConfigBuilder {
    CheckConfig::builder()
        .seed(7)
        .dfs_max_executions(40)
        .random_samples(8)
        .random_crash_samples(12)
        .without_passes([Pass::NestedCrash])
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .max_steps(200_000)
        .keep_going(true)
}

/// The `hunt` workload's configuration: sleep-set DPOR, the fault passes,
/// stopping at the first failure.
fn hunt() -> CheckConfigBuilder {
    faults().strategy(SleepSetDpor).keep_going(false)
}

/// A job's key: its pass and its index in the pass.
type Key = (Pass, u64);

/// Each execution's statistics in the stream of `scenario` run under
/// `cfg`, by job key, and the first failure's key.
fn executions(
    scenario: &Scenario,
    cfg: CheckConfigBuilder,
) -> (BTreeMap<Key, ExecStats>, Option<Key>) {
    let (sink, buf) = TelemetrySink::shared_buffer();
    let report = scenario.run(&cfg.telemetry(sink).build());
    let text = String::from_utf8(buf.lock().clone()).expect("the stream is UTF-8");
    let mut done = BTreeMap::new();
    let torn = read_stream(&text, None, |_, record| {
        if let Record::ExecDone {
            pass, index, stats, ..
        } = record
        {
            assert!(
                done.insert((pass, index), stats).is_none(),
                "{pass} {index} twice"
            );
        }
    });
    assert_eq!(torn, 0, "{}", scenario.name());
    let first = report.counterexample.map(|cx| (cx.pass, cx.index));
    (done, first)
}

/// `scenario` under `cfg` at one worker and at three: every job both
/// streams hold reads back the same, and both hold every job up to the
/// first failure.
fn same_at_one_and_three(scenario: &Scenario, cfg: fn() -> CheckConfigBuilder) -> usize {
    let name = scenario.name();
    let (one, first) = executions(scenario, cfg().workers(1));
    let (three, first3) = executions(scenario, cfg().workers(3));
    assert_eq!(first, first3, "{name}: the first failure");
    let upto =
        |key: &&(Pass, u64)| first.is_none_or(|(pass, index)| (key.0, key.1) <= (pass, index));
    let below: Vec<_> = one.keys().filter(upto).collect();
    assert_eq!(
        below,
        three.keys().filter(upto).collect::<Vec<_>>(),
        "{name}: jobs run"
    );
    let mut compared = 0;
    for (key, stats) in &one {
        if let Some(other) = three.get(key) {
            assert_eq!(
                stats, other,
                "{name}: job {key:?} at one worker and at three"
            );
            compared += 1;
        }
    }
    compared
}

#[test]
fn every_scenario_reads_the_same_whoever_served_its_worlds() {
    let (good, bad) = (all_scenarios(), all_mutant_scenarios());
    assert_eq!((good.len(), bad.len()), (18, 28));
    for scenario in good.iter().chain(bad.iter()) {
        assert!(
            same_at_one_and_three(scenario, faults) > 40,
            "{}",
            scenario.name()
        );
        assert!(
            same_at_one_and_three(scenario, hunt) > 0,
            "{}",
            scenario.name()
        );
    }
}

/// A system with one volatile field, `warm`: the workload's first step
/// sets it, and the crash hook clears it — unless `leaky`, a reset that
/// leaves it behind. A cold system takes one step more, so its decision
/// path is one deeper (`depth`, the first counter that differs) — or,
/// crashed at the same step, it crashes elsewhere.
struct Warm {
    leaky: bool,
    warm: AtomicBool,
}

impl System<RegSpec> for Warm {
    type Durable = ();

    fn snapshot(&self) {}

    fn restore(&self, _: &()) {}

    fn crash(&self) {
        if !self.leaky {
            self.warm.store(false, Ordering::Relaxed);
        }
    }

    fn recover(&self, w: &World<RegSpec>) {
        w.ghost.recovery_done().expect("the crash token is armed");
    }

    fn abs_check(&self, _: &World<RegSpec>) -> Result<(), String> {
        Ok(())
    }
}

struct WarmHarness {
    leaky: bool,
    /// Each thread draws model randomness first, so no crash job can be
    /// forked off the crash sweep's shared execution: each runs by itself.
    draws: bool,
}

impl Harness<RegSpec> for WarmHarness {
    type Sys = Warm;

    fn spec(&self) -> RegSpec {
        RegSpec { size: 2 }
    }

    fn make(&self, _: &World<RegSpec>) -> Script<Warm, RegSpec> {
        let mut script = Script::new(Warm {
            leaky: self.leaky,
            warm: AtomicBool::new(false),
        });
        let draws = self.draws;
        for (name, a) in [("a", 0), ("b", 1)] {
            script.thread(name, move |sys, w| {
                if draws {
                    w.rt.rand_u64();
                }
                if !sys.warm.swap(true, Ordering::Relaxed) {
                    w.rt.yield_point();
                }
                for v in 1..10 {
                    let tok = w.ghost.begin_op(RegOp::Write(a, v)).expect("begin");
                    w.rt.yield_point();
                    let ret = w.ghost.commit_op(&tok).expect("commit");
                    w.ghost.finish_op(tok, &ret).expect("finish");
                }
            });
        }
        script
    }

    fn name(&self) -> &str {
        "warm"
    }
}

fn warm_config() -> CheckConfig {
    CheckConfig::builder()
        .seed(7)
        .random_samples(40)
        .workers(1)
        .keep_going(true)
        .build()
}

/// The crash sweep alone: its probe, then its jobs, each crashed at one
/// step of a shared execution.
fn crash_sweep_config() -> CheckConfig {
    CheckConfig::builder()
        .seed(7)
        .without_passes(Pass::ALL)
        .with_passes([Pass::CrashSweepBase, Pass::CrashSweep])
        .workers(1)
        .keep_going(true)
        .build()
}

#[test]
fn a_reset_that_clears_every_volatile_field_passes() {
    for (draws, cfg) in [(false, warm_config()), (true, crash_sweep_config())] {
        let report = check(
            &WarmHarness {
                leaky: false,
                draws,
            },
            &cfg,
        );
        assert!(
            report.passed() && report.executions > 20,
            "{}",
            report.summary()
        );
    }
}

/// The panic `check` of a leaky [`Warm`] under `cfg` goes down with.
fn leaky_panic(draws: bool, cfg: fn() -> CheckConfig) -> String {
    let harness = WarmHarness { leaky: true, draws };
    let caught = std::panic::catch_unwind(|| check(&harness, &cfg()));
    let payload = caught.expect_err("the leaky reset went unnoticed");
    let message = payload
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    message.clone()
}

/// Only a debug build holds reused worlds to fresh ones; an optimized
/// build trusts the reset.
#[cfg(debug_assertions)]
#[test]
fn a_reset_that_leaves_a_volatile_field_behind_is_caught() {
    let message = leaky_panic(false, warm_config);
    let reused = "run in a reused world differs from a fresh world in `depth`";
    assert!(
        message.starts_with("warm: job (") && message.contains(reused),
        "{message}"
    );
}

/// A job the crash sweep cannot fork off its shared execution runs by
/// itself while that execution waits at the job's crash point, so a
/// cross-check that panicked there would be the shared execution's
/// harness panic, which serves no job. The difference is held until the
/// sweep is done, and only then panics, naming the job. At this
/// workload's length the sweep has 20 jobs, and of those the fixed
/// sample re-runs in a fresh world only one shows the leak: a panic at
/// its crash point would leave nothing to report it.
#[cfg(debug_assertions)]
#[test]
fn a_leak_in_a_crash_job_run_by_itself_is_caught() {
    let message = leaky_panic(true, crash_sweep_config);
    let reused = "run in a reused world differs from a fresh world in `";
    assert!(
        message.starts_with("warm: job (3, ") && message.contains(reused),
        "{message}"
    );
}

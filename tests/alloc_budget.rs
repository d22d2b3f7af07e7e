//! Heap allocations per execution, held under a budget at tier-1
//! (ROADMAP item 1 (e), item 2). The count is exact where a stopwatch on
//! a noisy 2-vCPU host cannot resolve a 10 % change, so this is what
//! keeps the allocation-free dependency tracking of PR 25 from
//! regressing silently: two mutants under sleep-set DPOR (footprints on
//! every grant) and one correct scenario under the exhaustive strategy,
//! each at one worker with no stream, each against its own budget.
//!
//! The allocator is the one `scale` installs
//! (`perennial_bench::count_alloc`): every `alloc`, `alloc_zeroed` and
//! `realloc` call, counted per OS thread, so the tests the harness runs
//! in parallel never mix counts.
//!
//! The counts are this test binary's (a debug build); `BENCH_scale.json`
//! carries the release build's for every mutant.

use perennial_bench::count_alloc::{self, Counting};
use perennial_checker::{CheckConfig, CheckConfigBuilder, Pass, SleepSetDpor};
use perennial_suite::{all_mutant_scenarios, all_scenarios};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls per execution of one run, on this thread.
fn allocs_per_exec(name: &str, cfg: CheckConfigBuilder, mutant: bool) -> f64 {
    let registry = if mutant {
        all_mutant_scenarios()
    } else {
        all_scenarios()
    };
    let scenario = registry.get(name).expect("registered");
    let cfg = cfg.seed(7).workers(1).max_steps(200_000).build();
    let (before, _) = count_alloc::thread_totals();
    let report = scenario.run(&cfg);
    let (after, _) = count_alloc::thread_totals();
    assert_eq!(
        report.counterexample.is_some(),
        mutant,
        "{name}: wrong verdict"
    );
    (after - before) as f64 / report.executions as f64
}

/// `benchmark/`'s `hunt` configuration.
fn hunt() -> CheckConfigBuilder {
    CheckConfig::builder()
        .dfs_max_executions(2000)
        .random_samples(500)
        .random_crash_samples(100)
        .keep_going(false)
        .strategy(SleepSetDpor)
        .without_passes([Pass::NestedCrash])
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
}

/// `benchmark/`'s `verify` configuration (exhaustive strategy).
fn verify() -> CheckConfigBuilder {
    CheckConfig::builder()
        .dfs_max_executions(300)
        .random_samples(10)
        .random_crash_samples(25)
        .keep_going(true)
}

fn within(name: &str, measured: f64, budget: f64) {
    // A counter that counts nothing would pass every budget.
    assert!(measured > 0.0, "{name}: no allocation counted");
    assert!(
        measured <= budget,
        "{name}: {measured:.1} allocations per execution, over the budget of {budget:.1}"
    );
}

// Budgets: the value measured at PR 25 plus 10 %. The parent of PR 25
// (nested footprint rows, a `to_vec()` of the runnable set per grant,
// footprints cloned into every sleep set) measured 269.9, 157.6 and
// 119.5 on the same three runs.

#[test]
fn dpor_footprints_allocate_within_budget() {
    // 1 999 executions, nearly all of them in the DPOR schedule phase:
    // 145.2 per execution at PR 25.
    let name = "patterns/mutant/gc-count-first";
    within(name, allocs_per_exec(name, hunt(), true), 159.7);
    // 69 executions, caught in the crash sweep: 89.1 at PR 25.
    let name = "patterns/mutant/panic-reset";
    within(name, allocs_per_exec(name, hunt(), true), 98.0);
}

#[test]
fn exhaustive_exploration_allocates_within_budget() {
    // No dependency tracking: 108.9 at PR 25.
    let name = "patterns/wal";
    within(name, allocs_per_exec(name, verify(), false), 119.8);
}

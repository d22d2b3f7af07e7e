//! Heap allocations per execution, held under a budget at tier-1
//! (ROADMAP item 1 (e), item 2). The count is exact where a stopwatch on
//! a noisy 2-vCPU host cannot resolve a 10 % change, so this is what
//! keeps the allocation-free dependency tracking of PR 25 and the
//! allocation-free spec steps, disk blocks and ghost cells of PR 35 from
//! regressing silently: three mutants under sleep-set DPOR (footprints
//! on every grant; one of them over the file-system and network models),
//! one correct scenario under the exhaustive strategy and one under the
//! fault sweeps (random-crash and torn-write jobs, which crash in
//! place), each at one worker with no stream, each against its own
//! budget.
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

/// `benchmark/`'s `faults` configuration.
fn faults() -> CheckConfigBuilder {
    CheckConfig::builder()
        .dfs_max_executions(500)
        .random_samples(100)
        .random_crash_samples(200)
        .keep_going(true)
        .without_passes([Pass::NestedCrash])
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
}

fn within(name: &str, measured: f64, budget: f64) {
    // A counter that counts nothing would pass every budget.
    assert!(measured > 0.0, "{name}: no allocation counted");
    assert!(
        measured <= budget,
        "{name}: {measured:.1} allocations per execution, over the budget of {budget:.1}"
    );
}

// Budgets: the value measured once a world was reset between the
// executions it serves instead of rebuilt (27.7, 24.3, 22.8, 82.3 and
// 23.7), plus 10 %. Each check starts with no spare decision paths,
// dependency traces or worlds, so a run's count does not depend on which
// run went before it on the thread. Its parent, which built every
// execution's world with `make`, measured 65.8, 54.7, 52.7, 131.5 and
// 61.1 on the same five runs; the
// parent of PR 35 (a boxed closure per spec combinator and a cloned σ per
// update, a heap buffer per disk block, a box per ghost-cell write)
// 142.5, 92.1, 98.0, 213.1 and 176.8; the parent of PR 25 (nested
// footprint rows, a `to_vec()` of the runnable set per grant, footprints
// cloned into every sleep set) 269.9, 157.6 and 119.5 on the first three.

#[test]
fn dpor_footprints_allocate_within_budget() {
    // 1 999 executions, nearly all of them in the DPOR schedule phase.
    let name = "patterns/mutant/gc-count-first";
    within(name, allocs_per_exec(name, hunt(), true), 30.5);
    // 69 executions, caught in the crash sweep.
    let name = "patterns/mutant/panic-reset";
    within(name, allocs_per_exec(name, hunt(), true), 26.8);
}

#[test]
fn exhaustive_exploration_allocates_within_budget() {
    // No dependency tracking, and the crash sweeps' jobs forked off one
    // shared execution. The forks a debug build re-runs to cross-check
    // them run on a thread of their own, so they are not counted here.
    let name = "patterns/wal";
    within(name, allocs_per_exec(name, verify(), false), 25.2);
}

#[test]
fn fault_sweeps_allocate_within_budget() {
    // 2 245 executions under DPOR, over the file-system and network
    // models: the largest share of `hunt`'s executions.
    let name = "mailboat/mutant/net-no-dedup";
    within(name, allocs_per_exec(name, hunt(), true), 90.6);
    // The fault passes' random-crash and torn-write jobs crash in
    // place, and the disk-fault jobs fork.
    let name = "patterns/txn-wal";
    within(name, allocs_per_exec(name, faults(), false), 26.1);
}

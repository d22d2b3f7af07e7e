//! The workspace's scenario registry: the four system crates' scenarios
//! under one [`ScenarioSet`] each for the expected-pass and the
//! expected-fail half. `scan`, `scale`, the examples, the root tests and
//! `benchmark/` (through `perennial_suite`'s re-export) all enumerate the
//! workspace through these two functions. [`campaign_status`] is `scan`'s
//! exit rule over the two halves.

use perennial_checker::{CheckReport, ScenarioSet};

/// Every expected-pass scenario registered across the workspace
/// (`kv/...`, `repldisk/...`, `mailboat/...`, `patterns/...`).
pub fn all_scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    set.extend(perennial_kv::scenarios());
    set.extend(repldisk::harness::scenarios());
    set.extend(mailboat::scenarios());
    set.extend(crash_patterns::scenarios());
    set
}

/// Every expected-fail scenario (mutants and the §8.3 slice race) across
/// the workspace — the checker must report a counterexample for each.
pub fn all_mutant_scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    set.extend(perennial_kv::mutant_scenarios());
    set.extend(repldisk::harness::mutant_scenarios());
    set.extend(mailboat::mutant_scenarios());
    set.extend(crash_patterns::mutant_scenarios());
    set
}

/// A campaign's exit status, over each report and whether its scenario is
/// expected to pass (one of [`all_scenarios`]): 1 when a run is INCOMPLETE
/// or an expected-pass scenario FAILed, else 0. A mutant's verdict never
/// changes it: a FAIL is what it is there for, and a PASS is expected of
/// the mutants that only the fault passes reach, when they are off.
pub fn campaign_status<'a>(runs: impl IntoIterator<Item = (&'a CheckReport, bool)>) -> i32 {
    let failed = |(report, expect_pass): (&CheckReport, bool)| {
        report.is_incomplete() || (expect_pass && !report.passed())
    };
    i32::from(runs.into_iter().any(failed))
}

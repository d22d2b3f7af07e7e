//! The workspace's scenario registry: the four system crates' scenarios
//! under one [`ScenarioSet`] each for the expected-pass and the
//! expected-fail half. `scan`, `scale`, the examples, the root tests and
//! `benchmark/` (through `perennial_suite`'s re-export) all enumerate the
//! workspace through these two functions.

use perennial_checker::ScenarioSet;

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

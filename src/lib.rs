//! The Perennial reproduction workspace facade.
//!
//! This crate exists to host the workspace-level `examples/` and
//! `tests/`; the substance lives in the member crates:
//!
//! - [`perennial_spec`] — the transition-system specification DSL;
//! - [`perennial`] — the ghost capability engine (the paper's core
//!   contribution: crash invariants, versioned memory, recovery leases,
//!   refinement resources, recovery helping);
//! - [`goose_rt`] — the Goose runtime model (scheduler, heap with
//!   racy-access-is-UB semantics, crashable file system);
//! - [`perennial_disk`] — single- and two-disk substrates;
//! - [`perennial_checker`] — bounded exploration of schedules and crash
//!   points with online refinement validation;
//! - [`repldisk`] — the replicated disk (the paper's running example);
//! - [`crash_patterns`] — shadow copy, write-ahead logging, group
//!   commit;
//! - [`mailboat`] — the mail server, its proof harness, and the
//!   GoMail/CMAIL baselines.

#![deny(unsafe_code)]

pub use crash_patterns;
pub use goose_rt;
pub use mailboat;
pub use perennial;
pub use perennial_checker;
pub use perennial_disk;
pub use perennial_kv;
pub use perennial_spec;
pub use repldisk;

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

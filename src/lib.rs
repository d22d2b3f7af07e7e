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

/// The scenario registry (`kv/...`, `repldisk/...`, `mailboat/...`,
/// `patterns/...`): every expected-pass scenario, and every expected-fail
/// one (mutants and the §8.3 slice race).
pub use perennial_bench::registry::{all_mutant_scenarios, all_scenarios};

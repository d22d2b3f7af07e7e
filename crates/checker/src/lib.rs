//! The Perennial reproduction's model checker: bounded exploration of
//! thread interleavings and crash points with online refinement
//! validation.
//!
//! This crate is the substitute for the paper's "for all executions" Coq
//! theorem (DESIGN.md §1). A system plugs in as a [`System`] and a
//! [`Harness`] over it; the [`check`] entry point then:
//!
//! 1. enumerates crash-free schedules by DFS (exhaustive for small
//!    configurations) and random sampling;
//! 2. sweeps an injected crash at *every* step of a baseline schedule,
//!    runs the recovery procedure as a scheduled thread, and optionally
//!    sweeps a *second* crash at every step of recovery ("crashes during
//!    recovery", §5.5's idempotence obligation);
//! 3. requires, on every execution, that the ghost capability discipline
//!    (Table 1) held at each step, that the Theorem 2 end-of-execution
//!    obligations are met, and that the harness's final-state predicate
//!    holds.
//!
//! A separate Wing–Gong [`linearize`] checker validates histories from
//! observable events alone, as an independent cross-check of the
//! commit-point instrumentation.
//!
//! When a check fails, [`shrink`] delta-debugs the counterexample down
//! to a minimal reproducer and [`playback`] compiles it into a
//! standalone replay test (DESIGN.md §16).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod campaign;
pub mod config;
pub mod dashboard;
mod exec;
pub mod explore;
pub mod harness;
mod jobs;
mod json;
pub mod linearize;
pub mod metrics;
pub mod pass;
pub mod playback;
pub mod profile;
pub mod recorder;
pub mod render;
pub mod scenario;
pub mod shrink;
pub mod strategy;
pub mod telemetry;
pub mod timeline;

pub use campaign::{
    campaign_fingerprint, merge_reports, parse_shard, report_fingerprint, report_from_json,
    report_to_json,
};
pub use dashboard::{Dashboard, ScenarioDash};
pub use explore::{
    check, replay, shard_of, CheckConfig, CheckConfigBuilder, CheckReport, Counterexample,
    ExecOutcome,
};
pub use goose_rt::fault::{FaultPlan, FaultSurface, IoError, IoResult, NetFault, TornMode};
pub use harness::{Harness, PanicOnReset, Program, Script, SpinForever, System, World};
pub use linearize::{check_linearizable, HistOp, Verdict};
pub use metrics::{
    trace_fingerprint, Coverage, FaultFamily, Histogram, OutcomeCounts, OutcomeKind, PassMetrics,
};
pub use pass::{Pass, PassSet};
pub use playback::{emit_test, test_file_name};
pub use profile::{profile_to_json, Profile};
pub use recorder::{Recorder, DROPPED};
pub use render::{
    describe_outcome, render_dashboard, render_explain, render_failure, render_profile,
    render_summary,
};
pub use scenario::{Scenario, ScenarioSet};
pub use shrink::{failure_fingerprint, shrink_counterexample, ShrinkStats};
pub use strategy::{CoverageGuided, Exhaustive, SleepSetDpor, Strategy, StrategySession};
pub use telemetry::{strip_timing, validate_json_line, EnvStamp, TelemetrySink, TIMING_KEYS};
pub use timeline::chrome_trace_json;

/// One-stop imports for writing and running harnesses:
/// `use perennial_checker::prelude::*;`.
pub mod prelude {
    pub use crate::explore::{
        check, replay, CheckConfig, CheckConfigBuilder, CheckReport, Counterexample, ExecOutcome,
    };
    pub use crate::harness::{Harness, Program, Script, System, World};
    pub use crate::pass::{Pass, PassSet};
    pub use crate::scenario::{Scenario, ScenarioSet};
    pub use crate::shrink::{failure_fingerprint, ShrinkStats};
    pub use crate::strategy::{CoverageGuided, Exhaustive, SleepSetDpor, Strategy};
    pub use crate::telemetry::TelemetrySink;
    pub use goose_rt::fault::{FaultPlan, FaultSurface, IoError, IoResult, NetFault, TornMode};
}

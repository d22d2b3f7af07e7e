//! Quickstart: verify a tiny crash-safe system end to end.
//!
//! Builds the ghost-instrumented replicated disk, explores schedules and
//! crash points with the checker, and prints the verification report —
//! the five-minute version of what this repository does.
//!
//! Run with: `cargo run --example quickstart`

use perennial_checker::prelude::*;
use repldisk::harness::{RdHarness, MIXED, SINGLE_WRITE};
use repldisk::proof::RdMutant;

fn main() {
    println!("Perennial-rs quickstart: checking the replicated disk\n");

    // 1. The correct system: one writer, one reader, one background
    //    writer; every interleaving (bounded DFS), every crash point,
    //    crashes during recovery.
    let harness = RdHarness {
        mutant: RdMutant::None,
        program: &MIXED,
    };
    let config = CheckConfig::builder()
        .dfs_max_executions(500)
        .random_samples(20)
        .random_crash_samples(40)
        .without_passes([Pass::NestedCrash])
        .build();
    let report = check(&harness, &config);
    println!("correct system : {}", report.summary());
    assert!(report.passed(), "the verified system must pass");

    // 2. A broken variant — the §1 "zero both disks" recovery — must be
    //    rejected, and the checker shows the failing crash point.
    let broken = RdHarness {
        mutant: RdMutant::ZeroingRecovery,
        program: &SINGLE_WRITE,
    };
    let report = check(&broken, &config);
    println!("zeroing mutant : {}", report.summary());
    let cx = report
        .counterexample
        .expect("the zeroing recovery must be caught");
    println!(
        "  rejected in pass '{}' with crash at absolute grant count(s) {:?}:\n  {:?}",
        cx.pass, cx.crash_points, cx.outcome
    );
    println!("\nquickstart OK: the checker accepts the correct system and");
    println!("rejects the broken recovery.");
}

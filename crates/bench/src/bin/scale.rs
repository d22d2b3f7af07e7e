//! Deterministic-counts driver: the producer and the gate of
//! `BENCH_scale.json`.
//!
//! Usage: `cargo run --release -p perennial-bench --bin scale -- \
//!           [scenario-name] [worker counts…] [--json FILE] \
//!           [--shard I/N] [--baseline BENCH_scale.json]`
//!
//! Defaults to `patterns/wal` over pool sizes 1 2 4 8. Runs the
//! scenario at every pool size under two configs — schedule exploration
//! (crash sweeps) and fault-sweep exploration (torn writes, transient
//! I/O, disk/net fault plans) — and exits 1 unless every pool size
//! produced the same counts; once more with one worker to count the
//! schedule exploration's lock acquisitions and cell borrows per step
//! (`parking_lot::count`), and once more to count its heap allocations
//! per execution (the counting allocator this binary installs); then
//! the executions-to-counterexample table for every registered mutant
//! under the three strategies (the DPOR cells with their allocations
//! per execution), and a
//! cold / with-WAL / resumed-from-the-WAL triple whose fingerprints
//! must match. `--shard I/N` scopes the two exploration configs to one
//! deterministic campaign slice (DESIGN.md §13). `--json` writes the
//! record; `--baseline FILE` compares the record against a committed
//! one leaf for leaf and exits 1 on any changed, missing or extra leaf
//! or section, or an allocation leaf more than 10 % over its committed
//! value. The record holds no wall-clock number: those are
//! `BENCHMARK.json`'s (EXPERIMENTS.md "Counts baseline" maps each
//! retired timing leaf to its owner).

#![deny(unsafe_code)]

use perennial_bench::args::{parse_args, value};
use perennial_bench::count_alloc::Counting;
use perennial_bench::perf::{diff_trees, render_diff};
use perennial_bench::registry::{all_mutant_scenarios, all_scenarios};
use perennial_bench::scale::{
    record, render_allocs, render_counts, render_reduction, render_resume, render_sync,
    run_alloc_counts, run_counts, run_reduction, run_resume, run_sync_counts,
};
use perennial_checker::{parse_shard, CheckConfig, Pass};

/// Every heap allocation of this process goes through the counter, which
/// keeps one total per OS thread.
#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let spec = [value("--json"), value("--shard"), value("--baseline")];
    let args = parse_args(std::env::args().skip(1), &spec).unwrap_or_else(|e| die(&e));
    let json_path = args.value("--json");
    // `--shard I/N`: count one deterministic slice of the job space
    // (applied to both exploration configs; the reduction table stays
    // unsharded — executions-to-counterexample is a whole-space metric).
    let shard = args
        .value("--shard")
        .map(|s| parse_shard(s).unwrap_or_else(|e| die(&e)));
    let baseline_path = args.value("--baseline");
    let mut positional = args.positionals().iter();
    let name = positional
        .next()
        .cloned()
        .unwrap_or_else(|| "patterns/wal".to_string());
    let mut counts: Vec<usize> = positional
        .map(|a| match a.parse() {
            Ok(n) if n > 0 => n,
            _ => die(&format!(
                "worker count {a:?} is not a positive whole number"
            )),
        })
        .collect();
    if counts.is_empty() {
        counts = vec![1, 2, 4, 8];
    }

    let registry = all_scenarios();
    let Some(scenario) = registry.get(&name) else {
        eprintln!("unknown scenario {name:?}; registered names:");
        for n in registry.names() {
            eprintln!("  {n}");
        }
        std::process::exit(2);
    };

    // A deliberately heavy config: the nested crash sweep gives the pool
    // thousands of independent executions to chew on.
    let cfg = CheckConfig::builder()
        .dfs_max_executions(500)
        .random_samples(100)
        .random_crash_samples(200)
        .max_steps(200_000)
        .shard_opt(shard)
        .build();
    // The fault config swaps the nested sweep for the fault sweeps.
    let fault_cfg = CheckConfig::builder()
        .dfs_max_executions(500)
        .random_samples(100)
        .random_crash_samples(200)
        .without_passes([Pass::NestedCrash])
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .max_steps(200_000)
        .shard_opt(shard)
        .build();

    // A pool size that changes a count breaks the determinism contract:
    // that is a failed run, not a row to record.
    let [schedule, fault] = [&cfg, &fault_cfg].map(|c| {
        run_counts(scenario, c, &counts).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1)
        })
    });
    print!("{}", render_counts(scenario.name(), &counts, &schedule));
    let sync = run_sync_counts(scenario, &cfg);
    print!("{}", render_sync(scenario.name(), &sync));
    let allocs = run_alloc_counts(scenario, &cfg);
    print!("{}", render_allocs(scenario.name(), &allocs));
    println!();
    let fault_name = format!("{} (fault sweeps)", scenario.name());
    print!("{}", render_counts(&fault_name, &counts, &fault));

    // Strategy reduction: executions-to-counterexample on every
    // registered mutant, exhaustive vs DPOR vs coverage-guided. All
    // three strategies get the same generous schedule budget (the
    // passes run in rank order, so a crash- or fault-swept bug pays
    // for the whole schedule phase first); the reduced strategies must
    // reach an equivalent counterexample spending far less of it. The
    // fault sweeps are on because three registered mutants are only
    // reachable through them.
    let reduction_cfg = CheckConfig::builder()
        .dfs_max_executions(2000)
        .random_samples(500)
        .random_crash_samples(100)
        .without_passes([Pass::NestedCrash])
        .with_passes([Pass::DiskFault, Pass::TornWrite, Pass::NetFault])
        .max_steps(200_000)
        .workers(1)
        .build();
    let reduction = run_reduction(&all_mutant_scenarios(), &reduction_cfg);
    println!();
    print!("{}", render_reduction(&reduction));

    // Checkpoint/resume on the fault config (the heavier per-execution
    // telemetry records).
    let wal = std::env::temp_dir().join(format!(
        "perennial-scale-resume-{}.jsonl",
        std::process::id()
    ));
    let resume = run_resume(scenario, &fault_cfg, &wal);
    let _ = std::fs::remove_file(&wal);
    println!();
    print!("{}", render_resume(scenario.name(), &resume));

    let record = record(
        scenario.name(),
        &schedule,
        &sync,
        &allocs,
        &fault,
        &reduction,
        &resume,
    );
    if let Some(path) = json_path {
        let text = serde_json::to_string_pretty(&record).expect("serializing a Value cannot fail");
        std::fs::write(path, text).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        println!("\n(machine-readable record written to {path})");
    }

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("reading baseline {path}: {e}")));
        let baseline = serde_json::from_str(&text)
            .unwrap_or_else(|e| die(&format!("parsing baseline {path}: {e}")));
        let diff = diff_trees(&baseline, &record);
        println!();
        print!("{}", render_diff(&diff));
        if !diff.differences.is_empty() {
            println!("  (if the change is intended, regenerate {path} with --json)");
            std::process::exit(1);
        }
    }
}

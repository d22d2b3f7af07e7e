//! Ablation study: which exploration passes are load-bearing?
//!
//! DESIGN.md calls out the checker's pass structure (schedule DFS,
//! random sampling, systematic crash sweep, nested crash sweep) as the
//! substitute for the paper's universally quantified theorem. This
//! module ablates it: every mutant in the repository is re-checked under
//! each pass in isolation, showing that
//!
//! - concurrency bugs (no-lock deletes, racy slices) are caught by
//!   schedule exploration alone, crashes unnecessary;
//! - crash-safety bugs (zeroing recovery, premature commits, skipped
//!   log applies) are **missed** by crash-free exploration and need the
//!   sweep — evidence that the sweep is not redundant;
//! - a few bugs are caught statically-ish by the end-of-execution
//!   abstraction check in any pass.

use crate::registry::all_mutant_scenarios;
use perennial_checker::CheckConfig;

/// The exploration passes ablated over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// DFS over crash-free schedules only.
    DfsOnly,
    /// Random crash-free schedules only.
    RandomOnly,
    /// Systematic crash sweep only (round-robin schedule).
    CrashSweepOnly,
    /// Everything (the default configuration).
    Full,
}

impl Pass {
    /// All passes, in report order.
    pub fn all() -> [Pass; 4] {
        [
            Pass::DfsOnly,
            Pass::RandomOnly,
            Pass::CrashSweepOnly,
            Pass::Full,
        ]
    }

    /// Short column label.
    pub fn label(&self) -> &'static str {
        match self {
            Pass::DfsOnly => "dfs",
            Pass::RandomOnly => "random",
            Pass::CrashSweepOnly => "sweep",
            Pass::Full => "full",
        }
    }

    fn config(&self) -> CheckConfig {
        let base = CheckConfig::builder()
            .dfs_max_executions(0)
            .random_samples(0)
            .random_crash_samples(0)
            .without_passes([
                perennial_checker::Pass::CrashSweep,
                perennial_checker::Pass::NestedCrash,
            ])
            .max_steps(200_000);
        match self {
            Pass::DfsOnly => base.dfs_max_executions(300).build(),
            Pass::RandomOnly => base.random_samples(40).build(),
            Pass::CrashSweepOnly => base
                .with_passes([perennial_checker::Pass::CrashSweep])
                .build(),
            Pass::Full => CheckConfig::builder()
                .dfs_max_executions(300)
                .random_samples(15)
                .random_crash_samples(25)
                .max_steps(200_000)
                .build(),
        }
    }
}

/// One mutant's row in the ablation matrix.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Mutant name.
    pub name: String,
    /// Per-pass verdicts, in [`Pass::all`] order: true = caught.
    pub caught: Vec<bool>,
}

/// Runs the full ablation matrix over every registered mutant.
pub fn run_ablation() -> Vec<AblationRow> {
    let row = |scenario: &perennial_checker::Scenario| AblationRow {
        name: scenario.name().to_string(),
        caught: Pass::all()
            .iter()
            .map(|p| !scenario.run(&p.config()).passed())
            .collect(),
    };
    all_mutant_scenarios().iter().map(row).collect()
}

/// Renders the ablation matrix. A mutant no column catches needs a
/// fault sweep (a disk failure, a torn write or a lost packet), which no
/// ablated configuration runs; those rows are counted apart.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    out.push_str("== Ablation: mutant x exploration pass (DESIGN.md §8) ==\n\n");
    out.push_str(&format!("{:<42}", "mutant"));
    for p in Pass::all() {
        out.push_str(&format!("{:>8}", p.label()));
    }
    out.push('\n');
    let (mut sweep_only, mut fault_only) = (0, 0);
    for row in rows {
        out.push_str(&format!("{:<42}", row.name));
        for c in &row.caught {
            out.push_str(&format!("{:>8}", if *c { "CAUGHT" } else { "-" }));
        }
        out.push('\n');
        // Crash-dependent bugs: missed by both crash-free passes, caught
        // by the sweep.
        if !row.caught[0] && !row.caught[1] && row.caught[2] {
            sweep_only += 1;
        }
        if !row.caught.contains(&true) {
            fault_only += 1;
        }
    }
    out.push_str(&format!(
        "\n{} of {} mutants are invisible to crash-free exploration and need\nthe crash sweep — the sweep is load-bearing, not redundant.\n{} more are caught by no column: only a fault sweep (`scan --faults`) reaches them.\n",
        sweep_only,
        rows.len(),
        fault_only
    ));
    out
}

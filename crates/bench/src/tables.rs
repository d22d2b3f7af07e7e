//! Rendering for the per-table/figure harness output, plus the Table 1
//! and Table 3 experiment drivers.

use crate::fig11::Fig11Report;
use crate::loc::LocRow;
use perennial_checker::{CheckConfig, CheckReport, ScenarioSet};

/// Renders a LoC comparison table.
pub fn render_loc_table(title: &str, rows: &[LocRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<28} {:>10} {:>10}  {}\n",
        "Component", "paper LoC", "ours LoC", "mapping"
    ));
    for r in rows {
        let paper = r
            .paper
            .map(|v| v.to_string())
            .unwrap_or_else(|| "—".to_string());
        let ours = r
            .ours
            .map(|v| v.to_string())
            .unwrap_or_else(|| "n/a".to_string());
        out.push_str(&format!(
            "{:<28} {:>10} {:>10}  {}\n",
            r.component, paper, ours, r.note
        ));
    }
    out
}

/// Table 1 is the techniques summary; its executable form is the
/// `table1_*` test family in `crates/core/tests/table1.rs`. The harness
/// prints the mapping.
pub fn render_table1() -> String {
    let rows: &[(&str, &str)] = &[
        (
            "crash invariant (§5.1)",
            "table1_crash_invariant_masters_survive_crash / _volatile_resources_are_lost",
        ),
        (
            "versioned memory (§5.2)",
            "table1_versioned_memory_current_version_read_write / _stale_write_rejected",
        ),
        (
            "recovery leases (§5.3)",
            "table1_lease_write_requires_current_lease / _synthesized_after_crash_exactly_once / _for_wrong_resource_rejected",
        ),
        (
            "refinement (§4)",
            "table1_refinement_commit_advances_source / _double_commit_rejected / _finish_without_commit_rejected / _return_value_mismatch_rejected / _spec_undefined_behaviour_rejected",
        ),
        (
            "crash refinement (§5.5)",
            "table1_crash_refinement_token_lifecycle / _ops_blocked_until_recovery / _crash_during_recovery_collapses / _crash_transition_applied",
        ),
        (
            "recovery helping (§5.4)",
            "table1_helping_recovery_completes_crashed_op / _no_crash_path_unstashes / _outside_recovery_rejected / _missing_token_rejected / _stashed_op_cannot_self_commit",
        ),
    ];
    let mut out = String::new();
    out.push_str("== Table 1: Perennial techniques as executable laws ==\n");
    out.push_str("Each rule of the paper's Table 1 is enforced by the ghost engine and\n");
    out.push_str("exercised (rule + violation) by named tests in crates/core/tests/table1.rs:\n\n");
    for (technique, tests) in rows {
        out.push_str(&format!("  {technique}\n      {tests}\n"));
    }
    out.push_str("\nRun them with: cargo test -p perennial --test table1\n");
    out
}

/// The scenarios Table 3's dynamic half runs: the default workload of
/// each system, pulled from the per-crate registries.
pub fn pattern_scenarios() -> ScenarioSet {
    let all = crate::registry::all_scenarios();
    let mut set = ScenarioSet::new();
    for name in [
        "repldisk/mixed",
        "patterns/shadow",
        "patterns/wal",
        "patterns/group-commit",
        "mailboat/deliver-vs-pickup",
        "kv/cross-bucket",
    ] {
        set.register(all.get(name).expect("registered scenario").clone());
    }
    set
}

/// Table 3's dynamic half: check every crash-safety pattern and report
/// the exploration statistics next to the LoC counts.
pub fn run_pattern_checks(config: &CheckConfig) -> Vec<CheckReport> {
    pattern_scenarios().run_all(config)
}

/// Renders the pattern-check statistics.
pub fn render_check_reports(reports: &[CheckReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>10} {:>12} {:>9} {:>13} {:>8}  {}\n",
        "Scenario", "executions", "steps", "crashes", "crash points", "helped", "verdict"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<28} {:>10} {:>12} {:>9} {:>13} {:>8}  {}\n",
            r.name,
            r.executions,
            r.total_steps,
            r.crashes_injected,
            r.crash_points,
            r.helped_ops,
            if r.passed() { "PASS" } else { "FAIL" }
        ));
    }
    out
}

/// Renders the Figure 11 report as the paper's series.
pub fn render_fig11(report: &Fig11Report) -> String {
    let mut out = String::new();
    out.push_str("== Figure 11: throughput vs cores (requests/sec) ==\n\n");
    out.push_str(&format!(
        "Measured on this host, 1 core  : Mailboat {:>9.0}  GoMail {:>9.0}  CMAIL {:>9.0}\n",
        report.series[0].measured_1core,
        report.series[1].measured_1core,
        report.series[2].measured_1core,
    ));
    let r_mg = report.series[0].measured_1core / report.series[1].measured_1core;
    let r_gc = report.series[1].measured_1core / report.series[2].measured_1core;
    out.push_str(&format!(
        "Single-core ratios             : Mailboat/GoMail = {r_mg:.2}x (paper 1.81x), \
         GoMail/CMAIL = {r_gc:.2}x (paper 1.34x, calibrated)\n",
    ));
    out.push_str(&format!(
        "CMAIL overhead calibration     : {} burn iterations/request\n\n",
        report.cmail_overhead_iters
    ));
    out.push_str("Simulated multicore curves (single-core host; DES over measured costs,\nsee DESIGN.md §1):\n\n");
    out.push_str(&format!("{:<8}", "cores"));
    for s in &report.series {
        out.push_str(&format!("{:>12}", s.name));
    }
    out.push('\n');
    let npoints = report.series[0].points.len();
    for i in 0..npoints {
        out.push_str(&format!("{:<8}", report.series[0].points[i].0));
        for s in &report.series {
            out.push_str(&format!("{:>12.0}", s.points[i].1));
        }
        out.push('\n');
    }
    out.push('\n');
    for s in &report.series {
        let t1 = s.points.first().map(|p| p.1).unwrap_or(1.0);
        let (nl, tl) = *s.points.last().unwrap();
        out.push_str(&format!(
            "{:<10} speedup at {} cores: {:.2}x (sublinear: < {}x)\n",
            s.name,
            nl,
            tl / t1,
            nl
        ));
    }
    out
}

/// Costs section for provenance.
pub fn render_costs(report: &Fig11Report) -> String {
    let c = &report.costs_ns;
    format!(
        "Measured request costs (ns): mailboat deliver {} / pickup {}; gomail deliver {} / pickup {}; \
         fs create {} link {} delete {}; burn {} ns/kiter\n",
        c.mb_deliver,
        c.mb_pickup,
        c.gm_deliver,
        c.gm_pickup,
        c.fs_create,
        c.fs_link,
        c.fs_delete,
        c.burn_per_kiter
    )
}

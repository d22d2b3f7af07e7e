//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§9) from this reproduction.
//!
//! Usage:
//!
//! ```text
//! cargo run -p perennial-bench --release --bin harness -- [all|table1|table2|table3|table4|fig11] [--json FILE]
//! ```

#![deny(unsafe_code)]

use perennial_bench::ablation::{render_ablation, run_ablation};
use perennial_bench::fig11::{run_fig11, Fig11Config};
use perennial_bench::loc::{table2_rows, table3_rows, table4_rows};
use perennial_bench::tables::{
    render_check_reports, render_costs, render_fig11, render_loc_table, render_table1,
    run_pattern_checks,
};
use perennial_checker::{CheckConfig, Pass};

fn pattern_check_config() -> CheckConfig {
    CheckConfig::builder()
        .dfs_max_executions(300)
        .random_samples(10)
        .random_crash_samples(20)
        .without_passes([Pass::NestedCrash])
        .max_steps(200_000)
        .build()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut what: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--") && Some(*a) != json_path.as_deref())
        .collect();
    if what.is_empty() || what.contains(&"all") {
        what = vec!["table1", "table2", "table3", "table4", "fig11", "ablation"];
    }
    let mut json = serde_json::Map::new();
    let mut failed = false;

    for item in what {
        match item {
            "table1" => {
                println!("{}", render_table1());
            }
            "table2" => {
                let rows = table2_rows();
                println!(
                    "{}",
                    render_loc_table("Table 2: Perennial and Goose lines of code", &rows)
                );
                json.insert("table2".into(), loc_json(&rows));
            }
            "table3" => {
                let rows = table3_rows();
                println!(
                    "{}",
                    render_loc_table("Table 3: lines of code per crash-safety pattern", &rows)
                );
                json.insert("table3_loc".into(), loc_json(&rows));
                println!("Checker statistics per pattern (the dynamic counterpart of the");
                println!("paper's \"we verified each pattern\"):\n");
                let reports = run_pattern_checks(&pattern_check_config());
                println!("{}", render_check_reports(&reports));
                let stats: Vec<serde_json::Value> = reports
                    .iter()
                    .map(|r| {
                        serde_json::json!({
                            "scenario": r.name,
                            "executions": r.executions,
                            "steps": r.total_steps,
                            "crashes": r.crashes_injected,
                            "crash_points": r.crash_points,
                            "helped_ops": r.helped_ops,
                            "passed": r.passed(),
                        })
                    })
                    .collect();
                json.insert("table3_checks".into(), serde_json::Value::Array(stats));
            }
            "table4" => {
                let rows = table4_rows();
                println!(
                    "{}",
                    render_loc_table("Table 4: Mailboat vs CMAIL lines of code", &rows)
                );
                json.insert("table4".into(), loc_json(&rows));
            }
            "ablation" => {
                let rows = run_ablation();
                println!("{}", render_ablation(&rows));
                let matrix: Vec<serde_json::Value> = rows
                    .iter()
                    .map(|r| {
                        serde_json::json!({
                            "mutant": r.name,
                            "caught": r.caught,
                        })
                    })
                    .collect();
                json.insert("ablation".into(), serde_json::Value::Array(matrix));
            }
            "fig11" => {
                let cfg = Fig11Config::default();
                let report = run_fig11(&cfg);
                println!("{}", render_fig11(&report));
                println!("{}", render_costs(&report));
                if !report.measured_order_holds() {
                    eprintln!("fig11: measured single-core order is not Mailboat > GoMail > CMAIL");
                    failed = true;
                }
                let series: Vec<serde_json::Value> = report
                    .series
                    .iter()
                    .map(|s| {
                        serde_json::json!({
                            "name": s.name,
                            "measured_1core_rps": s.measured_1core,
                            "simulated": s.points.iter().map(|(c, r)| {
                                serde_json::json!({"cores": c, "rps": r})
                            }).collect::<Vec<_>>(),
                        })
                    })
                    .collect();
                json.insert(
                    "fig11".into(),
                    serde_json::json!({
                        "series": series,
                        "cmail_overhead_iters": report.cmail_overhead_iters,
                    }),
                );
            }
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = json_path {
        let value = serde_json::Value::Object(json);
        std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("(machine-readable record written to {path})");
    }
    if failed {
        std::process::exit(1);
    }
}

fn loc_json(rows: &[perennial_bench::loc::LocRow]) -> serde_json::Value {
    serde_json::Value::Array(
        rows.iter()
            .map(|r| {
                serde_json::json!({
                    "component": r.component,
                    "paper": r.paper,
                    "ours": r.ours,
                    "note": r.note,
                })
            })
            .collect(),
    )
}

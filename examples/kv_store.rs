//! The node KV store (the §2 "Verdi node storage" system) under the
//! checker: cross-bucket parallelism, same-bucket contention, crash
//! sweeps, and a broken variant rejected.
//!
//! Run with: `cargo run --example kv_store`

use perennial_checker::{check, CheckConfig, Pass};
use perennial_kv::harness::{CROSS_BUCKET, PUT_DELETE_GET, SAME_BUCKET, SINGLE_PUT};
use perennial_kv::{KvHarness, KvMutant};

fn main() {
    let config = CheckConfig::builder()
        .dfs_max_executions(400)
        .random_samples(15)
        .random_crash_samples(30)
        .without_passes([Pass::NestedCrash])
        .build();

    println!("Checking the crash-safe node KV store:\n");

    for (label, program) in [
        ("cross-bucket ops ", &CROSS_BUCKET),
        ("same-bucket race ", &SAME_BUCKET),
        ("put/delete/get   ", &PUT_DELETE_GET),
    ] {
        let mutant = KvMutant::None;
        let h = KvHarness { mutant, program };
        let report = check(&h, &config);
        println!("{label}: {}", report.summary());
        assert!(report.passed(), "{:?}", report.counterexample);
    }

    // The in-place mutant loses an acknowledged put if a crash lands
    // between the commit and the write.
    let h = KvHarness {
        mutant: KvMutant::InPlace,
        program: &SINGLE_PUT,
    };
    let report = check(&h, &config);
    let cx = report.counterexample.expect("in-place must fail");
    println!(
        "\nin-place mutant  : rejected in pass '{}' with crash at grant count(s) {:?}",
        cx.pass, cx.crash_points
    );
    println!("\nkv_store OK: per-bucket shadow copies + per-bucket locks verify;");
    println!("in-place updates do not.");
}

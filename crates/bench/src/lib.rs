//! Experiment-regeneration support and the deterministic-counts gate
//! for the Perennial reproduction (DESIGN.md §3's per-experiment index).
//! Wall-clock benchmarking lives in the stand-alone `benchmark/`
//! package (`BENCHMARK.json`), not here.
//!
//! - [`loc`] — LoC accounting for Tables 2–4;
//! - [`sim`] — the discrete-event multicore contention simulator
//!   substituting for the paper's 12-core testbed (DESIGN.md §1);
//! - [`fig11`] — the Figure 11 experiment (measured single-core anchors
//!   plus simulated scaling curves);
//! - [`tables`] — rendering and the Table 1/Table 3 drivers.
//!
//! [`ablation`] additionally re-checks every mutant under each
//! exploration pass in isolation, demonstrating which passes are
//! load-bearing. [`args`] is the shared CLI flag parser for the bench
//! binaries and examples. [`scale`] produces the deterministic counts
//! recorded in `BENCH_scale.json` and [`perf`] compares a fresh record
//! with the committed one, leaf for leaf. [`registry`] is the one list of
//! the workspace's scenarios. [`count_alloc`] is the counting allocator
//! `scale` and `tests/alloc_budget.rs` install.
//!
//! The `harness` binary regenerates every table and figure:
//! `cargo run -p perennial-bench --release --bin harness -- all`.

#![deny(unsafe_code)]

pub mod ablation;
pub mod args;
// The one module here allowed `unsafe`: it implements `GlobalAlloc`.
#[allow(unsafe_code)]
pub mod count_alloc;
pub mod fig11;
pub mod loc;
pub mod perf;
pub mod registry;
pub mod scale;
pub mod sim;
pub mod tables;

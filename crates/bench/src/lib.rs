#![warn(missing_docs)]

//! # bench
//!
//! The experiment harness: regenerates every table and figure of the
//! ICPP'15 *matchmaking* paper from the simulated platform, in a form
//! directly comparable with the published numbers.
//!
//! * [`experiments`] — one function per table/figure, returning structured
//!   results (also serialisable to JSON for EXPERIMENTS.md).
//! * [`report`] — plain-text rendering of those results (what the `repro`
//!   binary prints).
//! * [`validation`] — the empirical Table I ranking check with the paper's
//!   own tolerance for "no visible difference" ties, and the documented
//!   deviations.
//! * [`trajectory`] — the timing loop and `BENCH_*.json` schema shared by
//!   the perf-trajectory benches.
//!
//! Run `cargo run --release -p bench --bin repro -- all` to regenerate
//! everything.

pub mod experiments;
pub mod report;
pub mod trajectory;
pub mod validation;

pub use experiments::{
    coverage_study, fig12_speedups, paper_variants, run_all, task_size_ablation, AppRun, ConfigRun,
    SpeedupRow,
};
pub use validation::{validate_rankings, RankingCheck};

#![warn(missing_docs)]

//! # matchmaker
//!
//! The primary contribution of *"Matchmaking Applications and Partitioning
//! Strategies for Efficient Execution on Heterogeneous Platforms"* (Shen,
//! Varbanescu, Martorell, Sips — ICPP 2015): an **application analyzer**
//! that selects the best workload-partitioning strategy for a given
//! data-parallel application on a CPU+GPU platform.
//!
//! The pieces, in paper order:
//!
//! * [`descriptor`] — the analyzer's input: kernels, buffer access
//!   patterns, execution flow and required synchronisation.
//! * [`class`] — the five-class application classification by kernel
//!   structure (SK-One, SK-Loop, MK-Seq, MK-Loop, MK-DAG; Fig. 3).
//! * [`strategy`] — the five partitioning strategies (SP-Single,
//!   SP-Unified, SP-Varied, DP-Dep, DP-Perf; Fig. 4) and the baseline
//!   execution configurations.
//! * [`ranking`](mod@ranking) — Table I: the suitable strategies and their theoretical
//!   performance ranking per class (Propositions 1–3).
//! * [`plan`] — lowering a strategy to a concrete `hetero-runtime` program
//!   (partition sizes from the `glinda` solver, pinnings, taskwaits).
//! * [`analyzer`] — the end-to-end pipeline of Fig. 2: classify → rank →
//!   select → plan → execute.
//! * [`convert`] — §V's recipe for making a dynamic runtime behave like a
//!   static partitioning with minimal effort.
//! * [`service`] — the analyzer as a long-lived, overload-hardened
//!   planning service: admission control, deadline budgets, load shedding
//!   and deterministic service-level chaos (DESIGN.md §8.9).
//!
//! ```no_run
//! use matchmaker::{Analyzer, ExecutionConfig};
//! use hetero_platform::Platform;
//! # fn descriptor() -> matchmaker::AppDescriptor { unimplemented!() }
//!
//! let platform = Platform::icpp15();
//! let analyzer = Analyzer::new(&platform);
//! let app = descriptor();
//! let (analysis, report) = analyzer.run_best(&app);
//! println!(
//!     "{} is {} -> {} ({} ms, {:.0}% on GPU)",
//!     analysis.app, analysis.class, analysis.best,
//!     report.makespan.as_millis_f64(), 100.0 * report.gpu_item_share()
//! );
//! ```

pub mod analyzer;
pub mod autotune;
pub mod class;
pub mod convert;
pub mod dag;
pub mod descriptor;
pub mod fuzz;
pub mod journal;
pub mod plan;
pub mod profile;
pub mod ranking;
pub mod robustness;
pub mod service;
pub mod strategy;
pub mod stream;

pub use analyzer::{Analysis, Analyzer};
pub use autotune::{tune_task_size, AutotuneResult};
pub use class::{classify, AppClass};
pub use convert::{max_ratio_error, ratio_to_counts, realized_ratio};
pub use dag::{analyze_dag, refine_class, DagProfile};
pub use descriptor::{
    AccessPattern, AppDescriptor, BufferSpec, ExecutionFlow, KernelSpec, SyncPolicy,
};
pub use fuzz::{
    fuzz_campaign, load_corpus, run_oracles, run_seed, save_corpus_entry, shrink, CorpusEntry,
    FuzzConfig, FuzzFailure, FuzzOutcome, FuzzReport, InjectedBreak, Scenario,
};
pub use hetero_runtime::PlanError;
pub use hetero_runtime::{JournalError, JournalSink, RunJournal, SalvageReport};
pub use hetero_runtime::{OracleKind, OracleViolation};
pub use hetero_runtime::{ReplanConfig, ReplanError, RunMode, RunSpec};
pub use plan::{KernelModel, KernelSplit, Plan, Planner, SurvivorPlan};
pub use profile::{ProfileStore, RateProfile};
pub use ranking::{best_strategy, escalation_target, rank_of, ranking, SyncMode};
pub use robustness::DegradationEntry;
pub use service::{
    check_shed_or_serve, decode_request, encode_request, encode_response, generate_load, run_load,
    template_app, Arrival, ChaosEvent, ChaosSchedule, LoadConfig, LoadOutcome, PlanRequest,
    PlanResponse, PlanService, RateLimit, ServiceConfig, ServiceError, ServiceOutcome,
    CHAOS_STREAM, LOAD_STREAM,
};
pub use strategy::{ExecutionConfig, Strategy};
pub use stream::STREAM_STRATEGY_LABEL;

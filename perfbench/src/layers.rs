//! Calls into the analyzer's layers that more than one workload makes:
//! plan lowering, the executor under the configuration's scheduler, and
//! the Glinda decisions plan lowering takes internally.

use std::collections::BTreeMap;

use hetero_platform::Platform;
use hetero_runtime::{
    simulate, simulate_dp_perf_warmed, DepScheduler, PinnedScheduler, Program, RunReport,
};
use matchmaker::{AppDescriptor, ExecutionConfig, Planner, Strategy};

use crate::span::{Agg, Spans};
use crate::Report;

/// Span name of an executor call under `config`'s scheduler.
pub fn executor_span(config: ExecutionConfig) -> &'static str {
    match config {
        ExecutionConfig::Strategy(Strategy::DpDep) => "executor.dep",
        ExecutionConfig::Strategy(Strategy::DpPerf) => "executor.perf",
        _ => "executor.pinned",
    }
}

/// Tasks the executor simulates for one run of `program` under `config`:
/// DP-Perf runs a profiling warm-up pass before the measured one.
pub fn simulated_tasks(program: &Program, config: ExecutionConfig) -> u64 {
    let passes = match config {
        ExecutionConfig::Strategy(Strategy::DpPerf) => 2,
        _ => 1,
    };
    passes * program.task_count() as u64
}

/// Simulate `program` with the scheduler `config` calls for — the
/// executor half of `Analyzer::simulate`, called directly.
pub fn simulate_config(
    platform: &Platform,
    program: &Program,
    config: ExecutionConfig,
) -> RunReport {
    match config {
        ExecutionConfig::Strategy(Strategy::DpDep) => {
            simulate(program, platform, &mut DepScheduler::new(platform))
        }
        ExecutionConfig::Strategy(Strategy::DpPerf) => simulate_dp_perf_warmed(program, platform),
        _ => simulate(program, platform, &mut PinnedScheduler),
    }
}

/// Glinda decisions plan lowering makes for `config`: one per kernel for
/// SP-Varied, one for the fused sequence (SP-Unified) or the single
/// kernel (SP-Single), none for baselines and dynamic strategies.
pub fn glinda_solves(desc: &AppDescriptor, config: ExecutionConfig) -> u64 {
    match config {
        ExecutionConfig::Strategy(Strategy::SpSingle | Strategy::SpUnified) => 1,
        ExecutionConfig::Strategy(Strategy::SpVaried) | ExecutionConfig::ConvertedStatic => {
            desc.kernels.len() as u64
        }
        _ => 0,
    }
}

/// Replay, each under a `glinda.decide` span, the static partitioning
/// decisions plan lowering makes for `config` (profiling plus the Glinda
/// solve). Returns the decisions rendered with `Debug`, one per kernel,
/// for comparison with `Plan::kernel_configs`; empty for configurations
/// that solve nothing.
pub fn replay_glinda(
    planner: &Planner,
    desc: &AppDescriptor,
    config: ExecutionConfig,
    spans: &mut Spans,
) -> Vec<String> {
    let kernels: Vec<usize> = match config {
        ExecutionConfig::Strategy(Strategy::SpSingle) => vec![0],
        ExecutionConfig::Strategy(Strategy::SpVaried) | ExecutionConfig::ConvertedStatic => {
            (0..desc.kernels.len()).collect()
        }
        ExecutionConfig::Strategy(Strategy::SpUnified) => {
            let split = spans.time("glinda.decide", 1, || planner.decide_unified(desc));
            return vec![format!("{split:?}"); desc.kernels.len()];
        }
        _ => return Vec::new(),
    };
    kernels
        .into_iter()
        .map(|k| {
            format!(
                "{:?}",
                spans.time("glinda.decide", 1, || planner.decide_kernel(desc, k))
            )
        })
        .collect()
}

/// The static decisions a plan carries, rendered like [`replay_glinda`].
pub fn planned_decisions(plan: &matchmaker::Plan) -> Vec<String> {
    plan.kernel_configs
        .iter()
        .flatten()
        .map(|split| format!("{split:?}"))
        .collect()
}

/// Per-layer metrics of the spans every workload records the same way:
/// `analyze`, `plan`, the executor under each scheduler and the replayed
/// Glinda decisions. Spans a run never opened leave their metric unset.
pub fn span_metrics(report: &mut Report, agg: &BTreeMap<&'static str, Agg>) {
    for (span, metric, per_unit, scale) in [
        ("analyze", "analyze.call_ns", false, 1.0),
        ("plan", "plan.lower_ns_per_task", true, 1.0),
        ("executor.pinned", "executor.pinned_ns_per_task", true, 1.0),
        ("executor.dep", "executor.dep_ns_per_task", true, 1.0),
        ("executor.perf", "executor.perf_ns_per_task", true, 1.0),
        ("executor.faulty", "executor.faulty_ns_per_task", true, 1.0),
        ("glinda.decide", "glinda.solve_us", false, 1e-3),
    ] {
        let Some(a) = agg.get(span) else { continue };
        let per = if per_unit { a.units } else { a.calls };
        report.set(metric, a.total_ns as f64 / per as f64 * scale);
    }
}

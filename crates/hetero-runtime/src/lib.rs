#![warn(missing_docs)]

//! # hetero-runtime
//!
//! An OmpSs-analog task-based runtime for heterogeneous platforms, built
//! from scratch as the dynamic-partitioning substrate of the ICPP'15
//! *matchmaking* reproduction (see the repository `DESIGN.md`).
//!
//! The programming model mirrors what the paper relies on (§II-B):
//!
//! * applications are recorded as [`Program`]s — streams of *task instance*
//!   submissions with declared `in`/`out`/`inout` region accesses, plus
//!   `taskwait` global synchronisation points;
//! * the runtime derives the task dependency graph ([`TaskGraph`]) from the
//!   declared accesses and keeps data consistent across memory spaces
//!   ([`coherence`]), inserting host↔device transfers;
//! * placement is pluggable ([`Scheduler`]): pinned placement for static
//!   partitioning plans, and the paper's two dynamic policies — [`DepScheduler`]
//!   (**DP-Dep**, breadth-first + dependency-chain affinity) and
//!   [`PerfScheduler`] (**DP-Perf**, performance-aware earliest-finisher with a
//!   profiling warm-up);
//! * [`execute`] runs a program in deterministic virtual time over a
//!   `hetero_platform::Platform` and reports makespan, partitioning ratios,
//!   transfer volumes and scheduling overhead. Its [`RunSpec`] picks the
//!   optional layers, one more per [`RunMode`]:
//!
//!   | Mode | Active layers | DP-Perf warm-up runs under | Analyzer planner |
//!   |---|---|---|---|
//!   | `Plain` | none | `Plain` | the analyzer's own |
//!   | `Faulty` | faults, retry, failover | `Faulty`, [`warmup_schedule`] | the analyzer's own |
//!   | `Resilient` | + [`health`] | `Resilient`, [`warmup_schedule`] | the analyzer's own |
//!   | `Adaptive` | + [`adapt`] repartitioning | `Resilient`, [`warmup_schedule`] | misprediction planner + adapt plan |
//!   | `Repairing` | + plan repair ([`ReplanConfig`]) | `Resilient`, [`warmup_schedule`] | misprediction planner + adapt plan |
//!
//!   [`simulate`], [`simulate_resilient`] and [`simulate_dp_perf_warmed`]
//!   are fixed specs passed through it;
//! * [`native`] executes the program's real computation on host data to
//!   validate that partitioning is semantically correct.
//!
//! ```
//! use hetero_platform::{KernelProfile, Platform};
//! use hetero_runtime::{simulate, Access, PinnedScheduler, Program, Region};
//! use hetero_platform::DeviceId;
//!
//! // A two-instance program: half the buffer on the GPU, half on the CPU.
//! let mut b = Program::builder();
//! let x = b.buffer("x", 1_000_000, 4);
//! let k = b.kernel("square", KernelProfile::compute_only(8.0));
//! b.submit_pinned(k, 500_000, vec![Access::read_write(Region::new(x, 0, 500_000))], DeviceId(1));
//! b.submit_pinned(k, 500_000, vec![Access::read_write(Region::new(x, 500_000, 1_000_000))], DeviceId(0));
//! let program = b.build();
//!
//! let platform = Platform::icpp15();
//! let report = simulate(&program, &platform, &mut PinnedScheduler);
//! assert!(report.makespan > hetero_platform::SimTime::ZERO);
//! assert_eq!(report.counters.devices[1].items, 500_000);
//! ```

pub mod adapt;
pub mod coherence;
pub mod data;
pub mod executor;
pub mod fuzz;
pub mod graph;
pub mod health;
pub mod interval;
pub mod journal;
pub mod native;
pub mod obs;
pub mod program;
pub mod scheduler;
pub mod spec;
pub mod stats;
pub mod trace;

pub use adapt::{
    AdaptConfig, AdaptPlan, AdaptReport, KernelAdaptPlan, MultiAdaptPlan, ReplanConfig, ReplanError,
};
pub use coherence::{CoherenceDir, Transfer};
pub use data::{Access, AccessMode, BufferDesc, BufferId, Region};
pub use executor::{
    execute, simulate, simulate_resilient, ADAPT_STREAM, CORRELATED_STREAM, HEALTH_STREAM,
    REPLAN_STREAM,
};
pub use fuzz::{check_blame_identity, check_identical, report_digest, OracleKind, OracleViolation};
pub use graph::TaskGraph;
pub use health::{
    BreakerConfig, BreakerState, HealthConfig, HealthReport, QuarantineSpan, VerificationPolicy,
    WatchdogConfig,
};
pub use interval::{Interval, IntervalMap, IntervalSet};
pub use journal::{
    EpochDelta, EpochRecord, JournalError, JournalHeader, JournalSink, RngCursors, RunJournal,
    SalvageReport, StreamConstants, JOURNAL_VERSION,
};
pub use native::{run_native, run_native_parallel, ExecOrder, HostBuffers, KernelFn};
pub use obs::{
    apply_snapshot, fold_stream, CriticalPath, DeviceBreakdown, DiffEntry, DiffVerdict,
    EpochSnapshot, LogHistogram, MetricsObserver, MetricsRegistry, MultiObserver, NullObserver,
    Observer, OpenState, PathKind, PathSegment, RunDiff, Series, SeriesHandle, SeriesTable,
    SeriesValue, SnapshotObserver, Span, SpanKind, SpanTree, TimeBreakdown, TraceObserver,
};
pub use program::{
    split_even, KernelDesc, KernelId, Op, PlanError, Program, ProgramBuilder, TaskDesc, TaskId,
};
pub use scheduler::{
    BindCtx, DepScheduler, PerfScheduler, PinnedScheduler, RateObservation, Scheduler,
    WorkConservingScheduler,
};
pub use spec::{warmup_schedule, RunMode, RunSpec};
pub use stats::{KernelStats, RunReport};
pub use trace::{Trace, TraceEvent, DEFAULT_GANTT_WIDTH};

/// Run a program under DP-Perf with the paper's methodology: a warm-up run
/// performs the profiling phase (3 instances per kernel per device), then
/// the measured run starts from the learned rates with profiling excluded
/// from the reported numbers (see [`PerfScheduler::warmed`]).
pub fn simulate_dp_perf_warmed(
    program: &Program,
    platform: &hetero_platform::Platform,
) -> RunReport {
    let spec = RunSpec::plain();
    let warmed = PerfScheduler::warmed(program, platform, &spec);
    simulate(
        program,
        platform,
        &mut warmed.expect("a plain warm-up cannot fail"),
    )
}

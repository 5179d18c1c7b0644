//! The virtual-time executor.
//!
//! Drives a [`Program`] over a [`Platform`] under a [`Scheduler`], producing
//! a [`RunReport`]. The execution model mirrors the OmpSs runtime the paper
//! uses:
//!
//! * task instances become *ready* when their data dependences are
//!   satisfied and their taskwait epoch is active;
//! * ready instances are *bound* to a device by the scheduler and wait in
//!   that device's FIFO queue for a free slot (a CPU hardware thread, or
//!   the GPU);
//! * dispatching an instance first satisfies coherence (host↔device
//!   transfers for its read regions — serialised with the device's work,
//!   as in a single-command-queue OpenCL device), then executes under the
//!   device's roofline model;
//! * dynamic policies pay the platform's per-decision scheduling overhead
//!   per instance; pinned (static) plans do not;
//! * each `taskwait` waits for all prior instances, flushes device-resident
//!   data to the host and invalidates device copies;
//! * a final implicit flush returns all results to the host — the paper's
//!   "one device-to-host data transfer after the last kernel finishes".
//!
//! # Run modes
//!
//! [`execute`] is the one run entry. Its [`RunSpec`]'s [`RunMode`] decides
//! which optional layers are active; each mode adds one layer to the mode
//! before it, and with the added layer's config disabled a mode is exactly
//! the mode before it, byte for byte. The analyzer
//! (`matchmaker::Analyzer::execute`) adds the DP-Perf warm-up and the
//! planner choice per mode:
//!
//! | Mode | Active layers | DP-Perf warm-up runs under | Analyzer planner |
//! |---|---|---|---|
//! | [`RunMode::Plain`] | none | `Plain` | the analyzer's own |
//! | [`RunMode::Faulty`] | faults, retry, failover | `Faulty`, warm-up schedule | the analyzer's own |
//! | [`RunMode::Resilient`] | + health (watchdog, verification, breaker) | `Resilient`, warm-up schedule | the analyzer's own |
//! | [`RunMode::Adaptive`] | + adaptive repartitioning | `Resilient`, warm-up schedule | misprediction planner + adapt plan |
//! | [`RunMode::Repairing`] | + degraded-mode plan repair | `Resilient`, warm-up schedule | misprediction planner + adapt plan |
//!
//! The warm-up schedule is [`crate::warmup_schedule`] (correlated
//! triggering off, replayed synthesized windows stripped); see
//! [`PerfScheduler::warmed`] and [`RunSpec::warmup`].
//!
//! # Resilient execution
//!
//! [`RunMode::Faulty`] runs the same model under a seeded
//! [`FaultSchedule`]:
//!
//! * **throttle ramps** multiply an attempt's execution time;
//! * **transfer faults** re-issue the transfer at full wire cost;
//! * a **transient task fault** wastes the attempt, then the
//!   [`RetryPolicy`] retries on the same device with exponential backoff
//!   charged as simulated time; when retries are exhausted the task *fails
//!   over* to the surviving device with the most slots (ultimately the
//!   host, mirroring the paper's Only-CPU baseline), and a task that
//!   exhausts retries with nowhere left to go finishes in *safe mode*
//!   (fault sampling disabled) so every run terminates;
//! * a **device dropout** kills the device's queued and in-flight work and
//!   re-binds it to survivors; uncommitted completions of the *current*
//!   epoch that ran on the dead device are re-executed, because their
//!   results lived in the dead memory and the host only holds the previous
//!   taskwait's checkpoint. Epochs whose barrier was already reached are
//!   committed checkpoints and are never re-executed.
//!
//! The fault path is strictly additive: with no schedule the executor takes
//! the exact event sequence of the healthy simulator, byte for byte.
//!
//! # Gray-failure resilience
//!
//! [`RunMode::Resilient`] layers the [`crate::health`] subsystem on top:
//! a straggler *watchdog* that hedges slow attempts onto the best other
//! device (first finisher wins), *duplicate-check* verification that
//! catches silently corrupted epochs at their barrier and rolls them back
//! to the checkpoint, and a per-device *circuit breaker* fed by an EWMA
//! health score. With [`HealthConfig::disabled`] the resilient executor is
//! exactly the faulty one, byte for byte. Because attempt durations
//! are sampled at dispatch, the watchdog is *prescient*: the fire event is
//! armed up front exactly when the attempt will still be running at its
//! deadline — semantically identical to a wall-clock watchdog. Two
//! documented simplifications: a hedged duplicate re-reads its inputs
//! without re-charging transfers and samples no faults of its own, and a
//! hedge win leaves the coherence directory naming the primary's memory
//! space (only timing and attribution move to the peer).
//!
//! # Adaptive repartitioning
//!
//! [`RunMode::Adaptive`] layers the [`crate::adapt`] controller on top:
//! at each taskwait barrier the per-device busy-time skew of the closing
//! epoch is measured, a sustained imbalance re-solves the plan's Glinda
//! partition against the *observed* throughputs and re-pins the remaining
//! epochs' chunks, and when re-solves are exhausted the static plan
//! escalates to an internal DP-Perf scheduler seeded with the run's own
//! observations. With [`AdaptConfig::disabled`] the adaptive executor is
//! exactly the resilient one, byte for byte. Skew accounting is
//! dispatch-based (a hedge win still attributes to the primary's
//! dispatch), and a dropout or epoch rollback clears the open epoch's
//! observation window — the detector is a heuristic over committed work,
//! not an audit trail.

use crate::adapt::{AdaptConfig, AdaptPlan, AdaptReport, ReplanConfig, ReplanError};
use crate::coherence::CoherenceDir;
use crate::graph::TaskGraph;
use crate::health::{BreakerState, HealthConfig, HealthReport, QuarantineSpan, VerificationPolicy};
use crate::journal::{EpochRecord, JournalError, JournalSink, RngCursors};
use crate::obs::{route_event, DeviceBreakdown, NullObserver, Observer, TimeBreakdown};
use crate::program::{KernelId, Program, TaskDesc, TaskId};
use crate::scheduler::{BindCtx, PerfScheduler, RateObservation, Scheduler};
use crate::spec::{RunMode, RunSpec};
use crate::stats::{KernelStats, RunReport};
use crate::trace::TraceEvent;
use glinda::{MultiDeviceProblem, MultiSolution};
use hetero_platform::{
    DeviceId, EventQueue, FaultCounters, FaultEvent, FaultRng, FaultSchedule, MemSpaceId, Platform,
    PlatformCounters, RetryPolicy, SimTime,
};
use std::collections::{BTreeMap, VecDeque};

/// Stream-splitting constant for the health RNG: verification sampling
/// draws from its own SplitMix64 stream so enabling it never perturbs
/// fault sampling.
///
/// Public (with [`ADAPT_STREAM`] and [`CORRELATED_STREAM`]) so the fuzzing
/// harness can pin the values with a golden-seed test: changing any of
/// these constants silently re-rolls every recorded fault trace and fuzz
/// corpus entry, so a refactor must not be able to shift them unnoticed.
pub const HEALTH_STREAM: u64 = 0x5EED_C0DE_D00D_FEED;

/// Stream-splitting constant for the adaptation RNG: the controller's
/// tie-breaks draw from their own SplitMix64 stream so enabling
/// adaptation never perturbs fault or verification sampling.
pub const ADAPT_STREAM: u64 = 0xADA7_ADA7_ADA7_ADA7;

/// Stream-splitting constant for the correlated-trigger RNG: conditional
/// sibling draws come from their own SplitMix64 stream so a schedule with
/// fault domains replays the *base* fault sampling of the same schedule
/// without domains byte-identically. The stream is only allocated when
/// [`FaultSchedule::has_correlation`] is true.
pub const CORRELATED_STREAM: u64 = 0x00C0_DEFA_17D0_5EED;

/// Stream-splitting constant for the plan-repair RNG: survivor re-plan
/// tie-breaks draw from their own SplitMix64 stream so enabling repair
/// never perturbs fault, health, or adaptation sampling and identical
/// seeds replay byte-identically.
pub const REPLAN_STREAM: u64 = 0x9EBA_1A2C_D00D_5EED;

/// Safety margin of the N-way rebind guard: a survivor re-plan (or barrier
/// rebalance) applies an epoch's moves only when the modeled wall beats the
/// naive chunk-by-chunk failover wall by at least this fraction. The model
/// is a per-epoch LPT relaxation — it prices execution at observed rates
/// plus host round-trip and migration transfers, but cannot see link
/// serialization or queue interleaving — so marginal predicted wins are
/// not acted on.
const NWAY_GUARD_MARGIN: f64 = 0.10;

enum Ev {
    TaskDone {
        task: TaskId,
        dev: DeviceId,
        gen: u32,
    },
    TaskAborted {
        task: TaskId,
        dev: DeviceId,
        gen: u32,
    },
    EpochFlushed,
    DeviceDropout {
        dev: DeviceId,
    },
    /// The straggler watchdog's deadline passed with the attempt still
    /// running (`started`/`gen` identify the exact dispatch watched).
    WatchdogFire {
        task: TaskId,
        started: SimTime,
        gen: u32,
    },
    /// A hedged duplicate designated the winner finished on its peer.
    HedgeDone {
        task: TaskId,
        dev: DeviceId,
        gen: u32,
    },
    /// A quarantined device's cool-down elapsed: half-open the circuit.
    CircuitProbe {
        dev: DeviceId,
    },
}

/// Run `program` on `platform` under `scheduler` with the layers `spec`
/// enables (see the module docs' mode table). This is the executor's one
/// run entry; every other run function is a fixed spec passed through it.
///
/// * `plan` is the static partitioning decision behind the program, which
///   the adaptive controller re-solves on imbalance. Programs without a
///   static split pass `None` and can still escalate. It is read only in
///   [`RunMode::Adaptive`] and up.
/// * `obs` receives every executor event (see [`crate::obs`]). Observers
///   are strictly observational: the run's virtual-time outcome is
///   identical for any observer.
/// * `journal`, when present, commits one [`EpochRecord`] per epoch flush
///   and must have been opened with [`JournalSink::begin`]. A journaled
///   run is byte-identical to its unjournaled twin: the sink observes
///   commits, it never steers.
///
/// Returns [`JournalError::InvalidSpec`] when `spec` fails
/// [`RunSpec::validate`] (checked before any event runs),
/// [`JournalError::Killed`] when the sink's
/// [`hetero_platform::KillSchedule`] fires (the journal text written so
/// far is valid and resumable), and [`JournalError::DivergentReplay`] when
/// a resumed run fails the byte-exact redo-replay validation. An
/// unjournaled run of a valid spec never fails.
pub fn execute(
    program: &Program,
    platform: &Platform,
    scheduler: &mut dyn Scheduler,
    spec: &RunSpec,
    plan: Option<AdaptPlan>,
    obs: &mut dyn Observer,
    journal: Option<&mut JournalSink>,
) -> Result<RunReport, JournalError> {
    spec.validate()?;
    Sim::new(program, platform, scheduler, spec, plan, obs, journal).run()
}

/// Simulate `program` on `platform` under `scheduler`: [`execute`] with
/// [`RunSpec::plain`], unobserved and unjournaled.
pub fn simulate(
    program: &Program,
    platform: &Platform,
    scheduler: &mut dyn Scheduler,
) -> RunReport {
    let spec = RunSpec::plain();
    execute(
        program,
        platform,
        scheduler,
        &spec,
        None,
        &mut NullObserver,
        None,
    )
    .expect("a plain unjournaled run cannot fail")
}

/// [`execute`] in [`RunMode::Resilient`] under `schedule`, `policy` and
/// `health`, unobserved and unjournaled. With [`HealthConfig::disabled`]
/// this is exactly the [`RunMode::Faulty`] run. Panics on an invalid
/// schedule or health config.
pub fn simulate_resilient(
    program: &Program,
    platform: &Platform,
    scheduler: &mut dyn Scheduler,
    schedule: &FaultSchedule,
    policy: RetryPolicy,
    health: &HealthConfig,
) -> RunReport {
    let spec = RunSpec {
        policy,
        ..RunSpec::resilient(schedule.clone(), *health)
    };
    execute(
        program,
        platform,
        scheduler,
        &spec,
        None,
        &mut NullObserver,
        None,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

impl PerfScheduler {
    /// DP-Perf after the paper's profiling warm-up: one unobserved,
    /// unjournaled run under [`RunSpec::warmup`] learns the rates (3
    /// instances per kernel per device), and the returned scheduler starts
    /// the measured run from them, so profiling stays out of the measured
    /// numbers. The warm-up is a pure function of the program, platform and
    /// spec, so a resumed run regenerates it.
    pub fn warmed(
        program: &Program,
        platform: &Platform,
        spec: &RunSpec,
    ) -> Result<Self, JournalError> {
        let mut warm = PerfScheduler::new(platform);
        let warmup = spec.warmup();
        execute(
            program,
            platform,
            &mut warm,
            &warmup,
            None,
            &mut NullObserver,
            None,
        )?;
        Ok(PerfScheduler::seeded(platform, warm.rates().clone()))
    }
}

/// Mutable fault-injection state, present only on the faulty path.
struct FaultCtx<'a> {
    schedule: &'a FaultSchedule,
    policy: RetryPolicy,
    rng: FaultRng,
    counters: FaultCounters,
    /// Per device: permanently dropped out.
    dead: Vec<bool>,
    /// Per task: attempt generation; completion events carry the
    /// generation they were issued under, so a dropout can invalidate the
    /// in-flight event of a task it kills by bumping this.
    gen: Vec<u32>,
    /// Per task: already failed over once (next exhaustion → safe mode).
    failed_over: Vec<bool>,
    /// Per task: placement was forced (scheduler bypassed), so the
    /// scheduler must not be told about its completion — its own books
    /// still name the device *it* chose.
    suppress_complete: Vec<bool>,
    /// Per task: currently occupying a slot (dispatched, not done).
    in_flight: Vec<bool>,
    /// Per task: dispatch time of the current attempt batch.
    started_at: Vec<SimTime>,
    /// Per task: `record_task` was applied for the current dispatch (false
    /// while an aborting dispatch only charged raw busy time).
    recorded: Vec<bool>,
    /// Per task: fault loss (failed attempts, backoff, transfer retries)
    /// already booked into `time_lost` for the current dispatch, so a
    /// dropout that discards the dispatch charges only the remainder.
    booked_loss: Vec<SimTime>,
    /// Per task: the current committed result is silently corrupted
    /// (ground truth, tracked whether or not verification is on).
    corrupt: Vec<bool>,
    /// Corrupt results injected across all dispatches.
    corruptions_injected: u64,
    /// Corruption injection disabled for the open epoch's re-runs (set
    /// after `max_rollbacks_per_epoch`; the SDC analog of safe mode).
    suppress_corruption: bool,
    /// Sibling fault windows synthesized by correlated triggering during
    /// this run, in trigger order (exported as
    /// `RunReport::synthesized_faults` for trace recording).
    synth: Vec<FaultEvent>,
    /// Conditional-trigger stream, allocated only when the schedule has a
    /// domain with `trigger_prob > 0` so domain-free schedules replay
    /// byte-identically.
    corr_rng: Option<FaultRng>,
}

impl FaultCtx<'_> {
    /// Task-fault probability for `dev` at `at`, for an attempt of a task
    /// dispatched at `dispatched`: composes the schedule's windows with the
    /// sibling windows synthesized so far (same ordered product a replayed
    /// [`hetero_platform::FaultTrace`] computes). The dispatch time lets a
    /// replay schedule gate its baked-in synthesized windows to exactly
    /// the tasks the recorded run's live windows could reach.
    fn task_fault_prob(&self, dev: DeviceId, at: SimTime, dispatched: SimTime) -> f64 {
        self.schedule
            .task_fault_prob_dispatched(dev, at, dispatched, &self.synth)
    }

    /// `true` while any synthesized sibling window is open at `now`.
    fn synth_window_open(&self, now: SimTime) -> bool {
        self.synth.iter().any(|ev| {
            matches!(ev, FaultEvent::TaskFaults { from, until, .. }
                if *from <= now && now < *until)
        })
    }
}

/// A member of a fault domain faulted at `now` on `source`: draw, per
/// sibling, whether the shared root condition propagates — opening a
/// `sibling_fault_prob` window of the domain's length on the sibling. The
/// draws come from the dedicated correlated stream and every opened window
/// is recorded in `f.synth` (and the trace), so a recorded run replays
/// byte-identically with triggering disabled.
fn trigger_correlated(f: &mut FaultCtx, obs: &mut dyn Observer, source: DeviceId, now: SimTime) {
    let Some(rng) = f.corr_rng.as_mut() else {
        return;
    };
    for (di, d) in f.schedule.domains.iter().enumerate() {
        if d.trigger_prob <= 0.0 || !d.contains(source) {
            continue;
        }
        for &sib in &d.members {
            if sib == source {
                continue;
            }
            if rng.next_f64() >= d.trigger_prob {
                continue;
            }
            let until = now + d.window;
            f.synth.push(FaultEvent::TaskFaults {
                dev: Some(sib),
                prob: d.sibling_fault_prob,
                from: now,
                until,
            });
            f.counters.correlated_triggers += 1;
            route_event(
                obs,
                &TraceEvent::CorrelatedFaultTriggered {
                    domain: di,
                    source,
                    sibling: sib,
                    until,
                    at: now,
                },
            );
        }
    }
}

/// An active hedged duplicate of one straggling task.
#[derive(Clone, Copy)]
struct Hedge {
    /// Device the duplicate runs on.
    peer: DeviceId,
    /// When the duplicate was launched.
    launched: SimTime,
    /// The duplicate will finish before the straggling primary (decided at
    /// launch — attempt durations are known at dispatch).
    winner: bool,
}

/// Mutable gray-failure state, present only when a [`HealthConfig`] with
/// at least one mitigation enabled was supplied.
struct HealthCtx {
    config: HealthConfig,
    /// Verification-sampling stream, independent of the fault stream.
    rng: FaultRng,
    report: HealthReport,
    /// Per device: consecutive bad observations (resets on a good one).
    consecutive_bad: Vec<u32>,
    /// Per device: circuit-breaker state.
    state: Vec<BreakerState>,
    /// Per device: the probe task let through while half-open.
    probe_task: Vec<Option<TaskId>>,
    /// Per task: the watchdog fired for the current dispatch.
    straggled: Vec<bool>,
    /// Per task: active hedged duplicate.
    hedge: Vec<Option<Hedge>>,
    /// Rollbacks of the open epoch so far.
    rollbacks_this_epoch: u32,
}

/// Mutable adaptation state, present only when an [`AdaptConfig`] with at
/// least one mitigation enabled was supplied.
struct AdaptCtx {
    config: AdaptConfig,
    /// The static partitioning decision behind the program, re-solved on
    /// imbalance (`solution` tracks the currently applied split). `None`
    /// disables repartitioning but still allows escalation.
    plan: Option<AdaptPlan>,
    /// Tie-break stream, independent of the fault and health streams.
    rng: FaultRng,
    report: AdaptReport,
    /// Per device: busy time committed in the open epoch's window.
    epoch_busy: Vec<SimTime>,
    /// Per device: items committed in the open epoch's window.
    epoch_items: Vec<u64>,
    /// Cumulative (kernel, device) throughput observations; seeds the
    /// escalated DP-Perf scheduler.
    obs: BTreeMap<(KernelId, DeviceId), RateObservation>,
    /// Consecutive barriers whose skew exceeded the threshold.
    consecutive_imbalanced: u32,
    /// Re-solves since the run last met the balance target.
    resolves_since_balance: u32,
    /// Per task: repartition override re-pinning a not-yet-placed chunk.
    override_of: Vec<Option<DeviceId>>,
    /// The internal DP-Perf scheduler, once the static plan is abandoned.
    escalated: Option<PerfScheduler>,
    /// Per task: bound by the escalated scheduler (pays the dynamic
    /// per-decision scheduling overhead, routes `on_complete` internally).
    bound_by_escalated: Vec<bool>,
    /// Consecutive escalated barriers that were balanced *and* free of any
    /// open disturbance window; reaching `reinstate_after` attempts a
    /// de-escalation back to the (re-solved) static plan.
    calm_barriers: u32,
    /// When the previous taskwait barrier was reached — the closing
    /// epoch's wall clock, the de-escalation guard's dynamic baseline.
    last_barrier_at: SimTime,
}

/// Mutable plan-repair state, present only when an enabled
/// [`ReplanConfig`] was supplied (see [`RunMode::Repairing`]).
struct ReplanCtx {
    config: ReplanConfig,
    /// Tie-break stream, independent of the fault/health/adapt streams.
    rng: FaultRng,
    /// Survivor re-plans applied after a death or quarantine.
    replans: u64,
    /// Healing re-plans applied after a breaker reclose.
    readmissions: u64,
    /// Why the last repair attempt failed, if any did.
    error: Option<ReplanError>,
    /// Per task: survivor re-plan override re-pinning a pending chunk.
    override_of: Vec<Option<DeviceId>>,
    /// Per device: cumulative committed items, for observed-rate re-solves.
    obs_items: Vec<f64>,
    /// Per device: cumulative committed slot-busy seconds (pairs with
    /// `obs_items`; whole-device rate = items × slots / busy).
    obs_secs: Vec<f64>,
}

/// The available device with the most slots (ties → lowest id), excluding
/// `exclude`; `blocked` marks devices no binding may target (dead, or
/// quarantined by the circuit breaker). The host (device 0, never dead and
/// never quarantined) is the target of last resort.
fn fallback_device(platform: &Platform, blocked: &[bool], exclude: Option<DeviceId>) -> DeviceId {
    platform
        .devices
        .iter()
        .filter(|d| !blocked[d.id.0] && Some(d.id) != exclude)
        .max_by_key(|d| (d.spec.kind.slots(), std::cmp::Reverse(d.id.0)))
        .map(|d| d.id)
        .unwrap_or(DeviceId(0))
}

/// Per-dispatch blame decomposition of one task's slot occupancy, mirrored
/// alongside `busy_of` so reversals (dropout kills, epoch resets, hedge
/// losses, rollbacks) can recategorize exactly what dispatch charged.
/// Invariant: `sched + adapt + transfer + link + fault + exec == busy_of`
/// for a successful dispatch (`exec == 0` for an aborted one).
#[derive(Clone, Copy, Default)]
struct TaskCost {
    sched: SimTime,
    adapt: SimTime,
    transfer: SimTime,
    exec: SimTime,
    /// Mirrors the dispatch's `booked_loss`: fault time already charged to
    /// `fault_loss` at dispatch, so reversals charge only the remainder.
    fault: SimTime,
    /// Extra wire time a successful transfer paid on a degraded link over
    /// its nominal cost (reversed with `transfer` on reversal).
    link: SimTime,
    /// Binding overhead charged because a survivor re-plan re-pinned this
    /// chunk (the plan-repair analogue of `sched`/`adapt`).
    replan: SimTime,
}

struct Sim<'a> {
    program: &'a Program,
    platform: &'a Platform,
    scheduler: &'a mut dyn Scheduler,
    graph: TaskGraph,
    tasks: Vec<&'a TaskDesc>,
    epochs: Vec<Vec<TaskId>>,

    now: SimTime,
    queue: EventQueue<Ev>,
    coherence: CoherenceDir,
    counters: PlatformCounters,
    per_kernel: Vec<KernelStats>,

    remaining_preds: Vec<usize>,
    completed: Vec<bool>,
    busy_of: Vec<SimTime>,
    exec_of: Vec<SimTime>,
    placements: Vec<Option<DeviceId>>,
    dev_queues: Vec<VecDeque<TaskId>>,
    free_slots: Vec<usize>,
    /// Completion time of the last task finished on each device, used to
    /// start the taskwait flush of a device's data as soon as that device
    /// is done (overlapping with other devices still computing, as the
    /// runtime's asynchronous write-back does).
    dev_last_done: Vec<SimTime>,

    cur_epoch: usize,
    epoch_remaining: usize,
    flushes_done: usize,
    obs: &'a mut dyn Observer,
    /// Per-device blame accumulators (always on; `dead`/`idle`/`slots` are
    /// filled in at `finish`).
    blame: Vec<DeviceBreakdown>,
    /// Per-task blame mirror of the current dispatch's accounting.
    cost_of: Vec<TaskCost>,
    /// Per-device dropout time (for the `dead` blame component).
    death_at: Vec<Option<SimTime>>,
    /// Accelerator device owning each non-host memory space (`None` for
    /// the host space), for mapping a transfer hop to the host↔device
    /// link a [`FaultEvent::LinkDegrade`] window names.
    space_dev: Vec<Option<DeviceId>>,
    faults: Option<FaultCtx<'a>>,
    health: Option<HealthCtx>,
    adapt: Option<AdaptCtx>,
    replan: Option<ReplanCtx>,
    /// The write-ahead run journal, when this run is journaled (see
    /// [`crate::journal`]): one record per committed epoch flush.
    journal: Option<&'a mut JournalSink>,
    /// A journal failure (kill, divergent replay) raised mid-event; the
    /// run loop surfaces it as the run's `Err` after the event returns.
    journal_err: Option<JournalError>,
    /// Per device: cumulative *actual* exec seconds of committed chunks
    /// (throttle windows included), paired with [`Sim::cal_model`].
    cal_exec: Vec<f64>,
    /// Per device: the model-predicted exec seconds of those same chunks.
    /// The ratio `cal_exec / cal_model` calibrates the device model for
    /// rebalancing cost estimates — unlike a raw items-per-second
    /// extrapolation it is immune to launch-overhead and kernel-mix skew,
    /// while still capturing sustained throttling.
    cal_model: Vec<f64>,
}

impl<'a> Sim<'a> {
    /// A run of `spec`'s layers; `spec` has passed [`RunSpec::validate`].
    fn new(
        program: &'a Program,
        platform: &'a Platform,
        scheduler: &'a mut dyn Scheduler,
        spec: &'a RunSpec,
        plan: Option<AdaptPlan>,
        obs: &'a mut dyn Observer,
        journal: Option<&'a mut JournalSink>,
    ) -> Self {
        let graph = TaskGraph::build(program);
        let tasks: Vec<&TaskDesc> = program.tasks().into_iter().map(|(_, t)| t).collect();
        let epochs = program.epochs();
        let n = tasks.len();
        let per_kernel = program
            .kernels
            .iter()
            .map(|k| KernelStats {
                name: k.name.clone(),
                items_per_device: vec![0; platform.devices.len()],
                tasks_per_device: vec![0; platform.devices.len()],
            })
            .collect();
        let mode = spec.mode;
        let schedule = spec.schedule.as_ref().filter(|_| mode >= RunMode::Faulty);
        let faults = schedule.map(|schedule| FaultCtx {
            schedule,
            policy: spec.policy,
            rng: schedule.rng(),
            counters: FaultCounters::default(),
            dead: vec![false; platform.devices.len()],
            gen: vec![0; n],
            failed_over: vec![false; n],
            suppress_complete: vec![false; n],
            in_flight: vec![false; n],
            started_at: vec![SimTime::ZERO; n],
            recorded: vec![false; n],
            booked_loss: vec![SimTime::ZERO; n],
            corrupt: vec![false; n],
            corruptions_injected: 0,
            suppress_corruption: false,
            synth: Vec::new(),
            corr_rng: schedule
                .has_correlation()
                .then(|| FaultRng::new(schedule.seed ^ CORRELATED_STREAM)),
        });
        let seed = schedule.map_or(0, |s| s.seed);
        let ndev = platform.devices.len();
        let health = (mode >= RunMode::Resilient)
            .then_some(spec.health)
            .filter(HealthConfig::enabled)
            .map(|config| HealthCtx {
                config,
                rng: FaultRng::new(seed ^ HEALTH_STREAM),
                report: HealthReport {
                    scores: vec![1.0; ndev],
                    ..HealthReport::default()
                },
                consecutive_bad: vec![0; ndev],
                state: vec![BreakerState::Closed; ndev],
                probe_task: vec![None; ndev],
                straggled: vec![false; n],
                hedge: vec![None; n],
                rollbacks_this_epoch: 0,
            });
        let adapt = (mode >= RunMode::Adaptive)
            .then_some(spec.adapt)
            .filter(AdaptConfig::enabled)
            .map(|config| AdaptCtx {
                config,
                plan,
                rng: FaultRng::new(seed ^ ADAPT_STREAM),
                report: AdaptReport::default(),
                epoch_busy: vec![SimTime::ZERO; ndev],
                epoch_items: vec![0; ndev],
                obs: BTreeMap::new(),
                consecutive_imbalanced: 0,
                resolves_since_balance: 0,
                override_of: vec![None; n],
                escalated: None,
                bound_by_escalated: vec![false; n],
                calm_barriers: 0,
                last_barrier_at: SimTime::ZERO,
            });
        let replan = (mode == RunMode::Repairing)
            .then_some(spec.replan)
            .filter(ReplanConfig::enabled)
            .map(|config| ReplanCtx {
                config,
                rng: FaultRng::new(seed ^ REPLAN_STREAM),
                replans: 0,
                readmissions: 0,
                error: None,
                override_of: vec![None; n],
                obs_items: vec![0.0; ndev],
                obs_secs: vec![0.0; ndev],
            });
        Sim {
            remaining_preds: graph.preds.iter().map(Vec::len).collect(),
            graph,
            tasks,
            epochs,
            program,
            platform,
            scheduler,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            coherence: CoherenceDir::new(platform.mem_spaces, &program.buffers),
            counters: PlatformCounters::new(platform.devices.len()),
            per_kernel,
            completed: vec![false; n],
            busy_of: vec![SimTime::ZERO; n],
            exec_of: vec![SimTime::ZERO; n],
            placements: vec![None; n],
            dev_queues: platform.devices.iter().map(|_| VecDeque::new()).collect(),
            free_slots: platform
                .devices
                .iter()
                .map(|d| d.spec.kind.slots())
                .collect(),
            dev_last_done: vec![SimTime::ZERO; platform.devices.len()],
            cur_epoch: 0,
            epoch_remaining: 0,
            flushes_done: 0,
            obs,
            blame: vec![DeviceBreakdown::default(); ndev],
            cost_of: vec![TaskCost::default(); n],
            death_at: vec![None; ndev],
            space_dev: {
                let mut map = vec![None; platform.mem_spaces];
                for d in &platform.devices {
                    if !d.mem_space.is_host() {
                        map[d.mem_space.0] = Some(d.id);
                    }
                }
                map
            },
            faults,
            health,
            adapt,
            replan,
            journal,
            journal_err: None,
            cal_exec: vec![0.0; ndev],
            cal_model: vec![0.0; ndev],
        }
    }

    /// Reverse the non-fault blame components of `t`'s current dispatch on
    /// `dev` — the blame mirror of taking back `busy_of[t]` from the device
    /// counters. The `fault` component stays booked (it mirrors
    /// `time_lost`, which reversals also keep).
    fn unblame(&mut self, t: TaskId, dev: DeviceId) {
        let c = self.cost_of[t.0];
        let b = &mut self.blame[dev.0];
        b.scheduling = b.scheduling.saturating_sub(c.sched);
        b.adaptation = b.adaptation.saturating_sub(c.adapt);
        b.transfer = b.transfer.saturating_sub(c.transfer);
        b.link_degraded = b.link_degraded.saturating_sub(c.link);
        b.compute = b.compute.saturating_sub(c.exec);
        b.replan = b.replan.saturating_sub(c.replan);
    }

    fn run(mut self) -> Result<RunReport, JournalError> {
        if self.epochs.is_empty() || self.tasks.is_empty() {
            return Ok(self.finish());
        }
        // Dropouts are scheduled up front: their events carry the lowest
        // sequence numbers, so at a time tie the failure wins — a task
        // finishing exactly when its device dies is killed.
        if let Some(f) = &self.faults {
            let dropouts = f.schedule.dropouts();
            for (dev, at) in dropouts {
                self.queue.push(at, Ev::DeviceDropout { dev });
            }
        }
        self.activate_epoch();
        while let Some((t, ev)) = self.queue.pop() {
            // Injected coordinator death at simulated time: the process
            // dies before processing any event at or past the instant.
            if let Some(kill_at) = self.journal.as_deref().and_then(JournalSink::time_kill_at) {
                if t >= kill_at {
                    let records = self.journal.as_deref().map_or(0, JournalSink::records);
                    return Err(JournalError::Killed { records, at: t });
                }
            }
            match ev {
                Ev::TaskDone { task, dev, gen } => {
                    if self.stale(task, gen) {
                        continue;
                    }
                    self.now = t;
                    self.on_task_done(task, dev);
                }
                Ev::TaskAborted { task, dev, gen } => {
                    if self.stale(task, gen) {
                        continue;
                    }
                    self.now = t;
                    self.on_task_aborted(task, dev);
                }
                Ev::EpochFlushed => {
                    self.now = t;
                    self.on_epoch_flushed();
                }
                Ev::DeviceDropout { dev } => {
                    // A dropout after the program finished is a non-event;
                    // skipping it keeps the makespan untouched.
                    if self.cur_epoch >= self.epochs.len() {
                        continue;
                    }
                    self.now = t;
                    self.on_device_dropout(dev);
                }
                Ev::WatchdogFire { task, started, gen } => {
                    if self.stale(task, gen) {
                        continue;
                    }
                    self.now = t;
                    self.on_watchdog_fire(task, started);
                }
                Ev::HedgeDone { task, dev, gen } => {
                    if self.stale(task, gen) {
                        continue;
                    }
                    self.now = t;
                    self.on_hedge_done(task, dev);
                }
                Ev::CircuitProbe { dev } => {
                    // Like dropouts, probes after the program finished must
                    // not extend the makespan.
                    if self.cur_epoch >= self.epochs.len() {
                        continue;
                    }
                    self.now = t;
                    self.on_circuit_probe(dev);
                }
            }
            // A journal failure (injected record-kill, divergent replay)
            // terminates the run at the event that raised it.
            if let Some(e) = self.journal_err.take() {
                return Err(e);
            }
        }
        assert!(
            self.completed.iter().all(|&c| c),
            "deadlock: not all tasks completed (cyclic program or lost event)"
        );
        Ok(self.finish())
    }

    fn finish(self) -> RunReport {
        let mut health = self.health.map(|h| h.report).unwrap_or_default();
        if let Some(f) = &self.faults {
            // Ground truth is reported whether or not verification ran.
            health.corruptions_injected = f.corruptions_injected;
            health.corrupt_committed = f.corrupt.iter().filter(|&&c| c).count() as u64;
        }
        // A breaker still open (or a device that died while quarantined) at
        // run end leaves its span open-ended; close it at the makespan so
        // the blame table and the exported quarantine seconds agree.
        for span in health.quarantine.iter_mut() {
            if span.until.is_none() {
                span.until = Some(self.now);
            }
        }
        // Close the blame books: per device, capacity = makespan × slots;
        // dead time covers the post-dropout tail, idle is the remainder —
        // so every device's components sum exactly to its capacity.
        let makespan = self.now;
        let mut per_device = self.blame;
        for (i, d) in self.platform.devices.iter().enumerate() {
            let b = &mut per_device[i];
            b.slots = d.spec.kind.slots() as u64;
            let cap = makespan * b.slots;
            b.dead = self.death_at[i]
                .map(|at| makespan.saturating_sub(at) * b.slots)
                .unwrap_or(SimTime::ZERO);
            b.idle = cap.saturating_sub(b.active() + b.dead);
        }
        let report = RunReport {
            scheduler: self.scheduler.name().to_string(),
            makespan,
            counters: self.counters,
            per_kernel: self.per_kernel,
            device_is_gpu: self
                .platform
                .devices
                .iter()
                .map(|d| d.spec.kind.is_gpu())
                .collect(),
            synthesized_faults: self
                .faults
                .as_ref()
                .map(|f| f.synth.clone())
                .unwrap_or_default(),
            faults: self.faults.map(|f| f.counters).unwrap_or_default(),
            health,
            adapt: {
                let mut adapt = self.adapt.map(|a| a.report).unwrap_or_default();
                if let Some(r) = self.replan {
                    adapt.replans = r.replans;
                    adapt.readmissions = r.readmissions;
                    adapt.replan_error = r.error;
                }
                adapt
            },
            breakdown: TimeBreakdown {
                makespan,
                per_device,
            },
        };
        if self.obs.enabled() {
            self.obs.on_run_end(&report);
        }
        report
    }

    /// `true` when a completion event belongs to a dispatch that a dropout
    /// has since invalidated.
    fn stale(&self, t: TaskId, gen: u32) -> bool {
        self.faults.as_ref().is_some_and(|f| f.gen[t.0] != gen)
    }

    fn cur_gen(&self, t: TaskId) -> u32 {
        self.faults.as_ref().map_or(0, |f| f.gen[t.0])
    }

    /// Begin the current epoch: bind its dependency-free tasks.
    fn activate_epoch(&mut self) {
        // Rollback budgets are per epoch: a fresh epoch re-enables
        // corruption injection (rollback's re-activation bypasses this).
        if let Some(h) = &mut self.health {
            h.rollbacks_this_epoch = 0;
        }
        if let Some(f) = &mut self.faults {
            f.suppress_corruption = false;
        }
        // The skew detector observes one epoch at a time.
        if let Some(a) = &mut self.adapt {
            a.epoch_busy.fill(SimTime::ZERO);
            a.epoch_items.fill(0);
        }
        let tasks: Vec<TaskId> = self.epochs[self.cur_epoch].clone();
        self.epoch_remaining = tasks.len();
        if tasks.is_empty() {
            // An empty epoch is just a flush point.
            self.start_flush();
            return;
        }
        for t in tasks {
            if self.remaining_preds[t.0] == 0 {
                self.make_ready(t);
            }
        }
        self.dispatch_all();
    }

    /// Bind a ready task to a device and enqueue it there.
    fn make_ready(&mut self, t: TaskId) {
        let pred_placements: Vec<DeviceId> = self.graph.preds[t.0]
            .iter()
            .map(|p| {
                self.placements[p.0].expect("predecessor completed, so it must have been placed")
            })
            .collect();
        let task = self.tasks[t.0];
        let coherence = &self.coherence;
        let platform = self.platform;
        let buffers = &self.program.buffers;
        // Estimates see the wire as it stands *now*: an open LinkDegrade
        // window steers dynamic policies away from the throttled device.
        let now = self.now;
        let link_sched = self
            .faults
            .as_ref()
            .map(|f| f.schedule)
            .filter(|s| s.has_link_degrade());
        let transfer_estimate = move |dev: DeviceId| -> SimTime {
            let space = platform.device(dev).mem_space;
            let (bw, lat) = link_sched.map_or((1.0, 1.0), |s| s.link_factors(dev, now));
            let price = |from: MemSpaceId, to: MemSpaceId, bytes: u64| -> SimTime {
                if bw == 1.0 && lat == 1.0 {
                    platform.transfer_time(from, to, bytes)
                } else {
                    platform
                        .link(from, to)
                        .map_or(SimTime::ZERO, |l| l.transfer_time_scaled(bytes, bw, lat))
                }
            };
            let mut total = SimTime::ZERO;
            for acc in &task.accesses {
                if acc.mode.reads() {
                    let bytes =
                        coherence.missing_read_bytes(acc.region.buffer, acc.region.span, space);
                    if bytes > 0 {
                        // Approximation: data arrives from the host.
                        total += price(MemSpaceId::HOST, space, bytes);
                    }
                }
                if acc.mode.writes() && !space.is_host() {
                    // Data produced off-host must eventually be written
                    // back; charge it to the placement (conservative, as in
                    // a descriptor-based data-movement estimate).
                    let bytes = acc.region.len() * buffers[acc.region.buffer.0].item_bytes;
                    total += price(space, MemSpaceId::HOST, bytes);
                }
            }
            total
        };
        // Once the plan escalated, the internal DP-Perf scheduler binds
        // everything that follows; its view of the task has the static pin
        // stripped (a pinned task would otherwise bypass the policy).
        // Before escalation, a repartition override re-pins the chunk.
        let escalated_bind = self.adapt.as_ref().is_some_and(|a| a.escalated.is_some());
        let stripped;
        let bind_task = if escalated_bind {
            stripped = TaskDesc {
                pinned: None,
                ..task.clone()
            };
            &stripped
        } else {
            task
        };
        let ctx = BindCtx {
            now: self.now,
            platform: self.platform,
            task: bind_task,
            task_id: t,
            pred_placements: &pred_placements,
            transfer_estimate: &transfer_estimate,
        };
        let mut dev = if escalated_bind {
            let a = self.adapt.as_mut().unwrap();
            if !a.bound_by_escalated[t.0] {
                a.bound_by_escalated[t.0] = true;
                a.report.escalated_tasks += 1;
            }
            a.escalated.as_mut().unwrap().bind(&ctx)
        } else if let Some(d) = self.replan.as_ref().and_then(|r| r.override_of[t.0]) {
            // A survivor re-plan's re-pin takes precedence over the
            // repartition override: repair runs later and already folded
            // the adaptation state into its decision.
            d
        } else if let Some(d) = self.adapt.as_ref().and_then(|a| a.override_of[t.0]) {
            d
        } else {
            self.scheduler.bind(&ctx)
        };
        // A binding that names a dead or quarantined device is redirected
        // to the fallback survivor (a pinned plan keeps naming its dead
        // device; redirecting here is what "falls back to Only-CPU
        // completion"). Half-open devices keep their bindings: they become
        // probe candidates.
        if self.faults.is_some() {
            let unavail = self.unavailable();
            let redirect = unavail[dev.0]
                && !self
                    .health
                    .as_ref()
                    .is_some_and(|h| h.state[dev.0] == BreakerState::HalfOpen);
            if redirect {
                let target = fallback_device(self.platform, &unavail, None);
                if let Some(f) = self.faults.as_mut() {
                    f.counters.failovers += 1;
                    f.suppress_complete[t.0] = true;
                }
                route_event(
                    &mut *self.obs,
                    &TraceEvent::Failover {
                        task: t,
                        from: dev,
                        to: target,
                        at: self.now,
                    },
                );
                dev = target;
            }
        }
        self.placements[t.0] = Some(dev);
        self.dev_queues[dev.0].push_back(t);
        if self.obs.enabled() {
            let depth = self.dev_queues[dev.0].len();
            self.obs.on_task_bound(t, dev, self.now, depth);
        }
    }

    fn dispatch_all(&mut self) {
        for d in 0..self.dev_queues.len() {
            self.dispatch(DeviceId(d));
        }
    }

    /// Start as many queued tasks on `dev` as free slots allow. A
    /// quarantined device dispatches nothing; a half-open device lets a
    /// single probe task through at a time.
    fn dispatch(&mut self, dev: DeviceId) {
        if self.faults.as_ref().is_some_and(|f| f.dead[dev.0]) {
            return;
        }
        let half_open = match self.health.as_ref().map(|h| h.state[dev.0]) {
            Some(BreakerState::Open) => return,
            Some(BreakerState::HalfOpen) => {
                if self.health.as_ref().unwrap().probe_task[dev.0].is_some() {
                    return;
                }
                true
            }
            _ => false,
        };
        while self.free_slots[dev.0] > 0 {
            let Some(t) = self.dev_queues[dev.0].pop_front() else {
                break;
            };
            self.free_slots[dev.0] -= 1;
            let (busy, nominal, aborted) = self.start_task(t, dev);
            let gen = self.cur_gen(t);
            if let Some(f) = &mut self.faults {
                f.in_flight[t.0] = true;
                f.started_at[t.0] = self.now;
            }
            if let Some(h) = &mut self.health {
                h.straggled[t.0] = false;
                if half_open {
                    h.probe_task[dev.0] = Some(t);
                    h.report.probes += 1;
                }
            }
            let ev = if aborted {
                Ev::TaskAborted { task: t, dev, gen }
            } else {
                Ev::TaskDone { task: t, dev, gen }
            };
            self.queue.push(self.now + busy, ev);
            // Prescient watchdog: attempt durations are sampled at
            // dispatch, so the fire event is armed up front exactly when
            // the attempt will still be running at its deadline.
            if !aborted {
                if let Some(w) = self.health.as_ref().and_then(|h| h.config.watchdog) {
                    let deadline = SimTime::from_secs_f64(nominal.as_secs_f64() * w.slack);
                    if nominal > SimTime::ZERO && busy > deadline {
                        self.queue.push(
                            self.now + deadline,
                            Ev::WatchdogFire {
                                task: t,
                                started: self.now,
                                gen,
                            },
                        );
                    }
                }
            }
            if half_open {
                break;
            }
        }
    }

    /// Account one task's slot occupancy: scheduling overhead + coherence
    /// transfers + roofline execution (+ fault attempts, under a schedule).
    /// Mutates the coherence directory. Returns the slot occupancy, the
    /// *nominal* occupancy (the model's fault- and throttle-free
    /// prediction, which is what the watchdog's deadline is computed
    /// against), and whether the task aborted (exhausted its retries and
    /// must fail over).
    fn start_task(&mut self, t: TaskId, dev: DeviceId) -> (SimTime, SimTime, bool) {
        let task = self.tasks[t.0];
        let device = self.platform.device(dev);
        let space = device.mem_space;
        let mut busy = SimTime::ZERO;
        let mut nominal = SimTime::ZERO;
        let mut cost = TaskCost::default();

        if let Some(f) = &mut self.faults {
            f.booked_loss[t.0] = SimTime::ZERO;
        }

        // Tasks bound by the escalated DP-Perf scheduler pay the dynamic
        // per-decision overhead even though the run started static.
        let by_escalated = self
            .adapt
            .as_ref()
            .is_some_and(|a| a.bound_by_escalated[t.0]);
        let dynamic_bound = self.scheduler.is_dynamic() || by_escalated;
        if dynamic_bound {
            busy += self.platform.sched_overhead;
            nominal += self.platform.sched_overhead;
            self.counters.record_sched(self.platform.sched_overhead);
            // Overhead paid *because* the run escalated is adaptation
            // blame; ordinary dynamic-policy overhead is scheduling blame.
            if by_escalated {
                cost.adapt += self.platform.sched_overhead;
            } else {
                cost.sched += self.platform.sched_overhead;
            }
        }
        // Chunks re-pinned by a survivor re-plan pay the same per-decision
        // overhead, booked to the `replan` blame component.
        let by_replan = !by_escalated
            && !dynamic_bound
            && self
                .replan
                .as_ref()
                .is_some_and(|r| r.override_of[t.0].is_some());
        if by_replan {
            busy += self.platform.sched_overhead;
            nominal += self.platform.sched_overhead;
            self.counters.record_sched(self.platform.sched_overhead);
            cost.replan += self.platform.sched_overhead;
        }

        for acc in &task.accesses {
            if acc.mode.reads() {
                for tr in self
                    .coherence
                    .acquire_for_read(acc.region.buffer, acc.region.span, space)
                {
                    // Degraded cost prices the wire as it stands when the
                    // transfer is issued; the nominal cost keeps the
                    // watchdog baseline degradation-free.
                    let ddt =
                        self.degraded_transfer_cost(tr.from, tr.to, tr.bytes, self.now + busy);
                    let ndt = transfer_cost(self.platform, tr.from, tr.to, tr.bytes);
                    // A faulty link re-issues the transfer at full cost;
                    // after max_attempts failed tries it goes through
                    // regardless (the retry storm has been paid for).
                    if let Some(f) = &mut self.faults {
                        let mut attempts = 0;
                        while attempts < f.policy.max_attempts {
                            let p = f.schedule.transfer_fault_prob(self.now + busy);
                            if p <= 0.0 || f.rng.next_f64() >= p {
                                break;
                            }
                            f.counters.transfer_faults += 1;
                            f.counters.transfer_retries += 1;
                            f.counters.time_lost += ddt;
                            f.booked_loss[t.0] += ddt;
                            cost.fault += ddt;
                            self.counters.record_transfer(tr.bytes, ddt);
                            route_event(
                                &mut *self.obs,
                                &TraceEvent::TransferRetry {
                                    from: tr.from,
                                    to: tr.to,
                                    bytes: tr.bytes,
                                    start: self.now + busy,
                                    end: self.now + busy + ddt,
                                },
                            );
                            busy += ddt;
                            attempts += 1;
                        }
                    }
                    route_event(
                        &mut *self.obs,
                        &TraceEvent::Transfer {
                            from: tr.from,
                            to: tr.to,
                            bytes: tr.bytes,
                            start: self.now + busy,
                            end: self.now + busy + ddt,
                        },
                    );
                    busy += ddt;
                    nominal += ndt;
                    // The slowdown beyond the nominal wire is link blame;
                    // the nominal part stays transfer blame. `extra` is
                    // zero whenever the link is at (or above) spec.
                    let extra = ddt.saturating_sub(ndt);
                    cost.transfer += ddt - extra;
                    cost.link += extra;
                    self.counters.record_transfer(tr.bytes, ddt);
                }
            }
        }

        let profile = &self.program.kernels[task.kernel.0].profile;
        let base_exec = device.exec_time_weighted(profile, task.items, task.cost_scale);
        nominal += base_exec;
        let mut exec = base_exec;
        let mut aborted = false;
        // Attempt outcomes are computed here, at dispatch time: replayed
        // synthesized windows that opened later cannot apply (see
        // `FaultSchedule::task_fault_prob_dispatched`).
        let dispatched = self.now;
        if let Some(f) = &mut self.faults {
            let max = f.policy.max_attempts.max(1);
            let mut attempt: u32 = 1;
            loop {
                let at = self.now + busy;
                let this_exec = f.schedule.throttled_exec(dev, at, base_exec);
                let p = f.task_fault_prob(dev, at, dispatched);
                let failed = p > 0.0 && f.rng.next_f64() < p;
                if !failed {
                    exec = this_exec;
                    busy += this_exec;
                    break;
                }
                // The attempt runs to completion, then is detected failed.
                f.counters.task_faults += 1;
                f.counters.time_lost += this_exec;
                f.booked_loss[t.0] += this_exec;
                cost.fault += this_exec;
                busy += this_exec;
                route_event(
                    &mut *self.obs,
                    &TraceEvent::TaskFault {
                        task: t,
                        dev,
                        attempt,
                        at: self.now + busy,
                    },
                );
                // A member fault may raise sibling fault probability for a
                // window (correlated fault domains).
                trigger_correlated(f, &mut *self.obs, dev, self.now + busy);
                if attempt >= max {
                    let has_failover_target = !f.failed_over[t.0]
                        && self
                            .platform
                            .devices
                            .iter()
                            .any(|d| !f.dead[d.id.0] && d.id != dev);
                    if has_failover_target {
                        aborted = true;
                    } else {
                        // Safe mode: one final fault-free attempt
                        // guarantees termination on the last resort.
                        let final_exec = f.schedule.throttled_exec(dev, self.now + busy, base_exec);
                        exec = final_exec;
                        busy += final_exec;
                        f.counters.safe_mode_tasks += 1;
                    }
                    break;
                }
                let bo = f.policy.backoff_for(attempt);
                f.counters.task_retries += 1;
                f.counters.backoff_time += bo;
                f.counters.time_lost += bo;
                f.booked_loss[t.0] += bo;
                cost.fault += bo;
                busy += bo;
                attempt += 1;
            }
            // Silent corruption: the attempt "succeeds" on time but its
            // committed result is wrong. Ground truth is tracked whether
            // or not verification is on; the draw is gated on a positive
            // probability so schedules without SDC events keep their
            // exact fault stream.
            if !aborted {
                f.corrupt[t.0] = false;
                let cp = f.schedule.corruption_prob(dev, self.now);
                if cp > 0.0 && !f.suppress_corruption && f.rng.next_f64() < cp {
                    f.corrupt[t.0] = true;
                    f.corruptions_injected += 1;
                }
            }
        } else {
            busy += exec;
        }

        if aborted {
            // Nothing was produced: no writes land, no work is recorded —
            // the slot was simply held for the wasted attempts. The trace
            // still needs the occupancy (span trees tile capacity against
            // the blame books), so the span goes out as a held slot
            // rather than a task.
            self.counters.devices[dev.0].busy += busy;
            self.busy_of[t.0] = busy;
            if let Some(f) = &mut self.faults {
                f.recorded[t.0] = false;
            }
            self.cost_of[t.0] = cost;
            self.apply_blame(dev, cost);
            route_event(
                &mut *self.obs,
                &TraceEvent::SlotHeld {
                    task: t,
                    kernel: task.kernel,
                    dev,
                    start: self.now,
                    end: self.now + busy,
                },
            );
            return (busy, nominal, true);
        }

        for acc in &task.accesses {
            if acc.mode.writes() {
                self.coherence
                    .record_write(acc.region.buffer, acc.region.span, space);
            }
        }

        self.counters.record_task(dev, task.items, busy);
        let ks = &mut self.per_kernel[task.kernel.0];
        ks.items_per_device[dev.0] += task.items;
        ks.tasks_per_device[dev.0] += 1;
        self.busy_of[t.0] = busy;
        self.exec_of[t.0] = exec;
        cost.exec = exec;
        self.cost_of[t.0] = cost;
        self.apply_blame(dev, cost);
        if let Some(f) = &mut self.faults {
            f.recorded[t.0] = true;
        }
        // Feed the adaptation observers: per-epoch skew accumulators and
        // the cumulative rate table that seeds an eventual escalation.
        if let Some(a) = &mut self.adapt {
            a.epoch_busy[dev.0] += busy;
            a.epoch_items[dev.0] += task.items;
            let o = a.obs.entry((task.kernel, dev)).or_default();
            o.count += 1;
            o.items += task.items as f64;
            o.secs += exec.as_secs_f64();
        }
        // Plan repair keeps its own whole-device rate books, so survivor
        // re-solves see observed throughput even with adaptation disabled.
        if let Some(r) = &mut self.replan {
            r.obs_items[dev.0] += task.items as f64;
            r.obs_secs[dev.0] += busy.as_secs_f64();
        }
        self.cal_exec[dev.0] += exec.as_secs_f64();
        self.cal_model[dev.0] += base_exec.as_secs_f64();
        route_event(
            &mut *self.obs,
            &TraceEvent::Task {
                task: t,
                kernel: task.kernel,
                dev,
                items: task.items,
                start: self.now,
                end: self.now + busy,
            },
        );
        (busy, nominal, false)
    }

    /// Charge one dispatch's blame components to `dev`'s accumulators.
    fn apply_blame(&mut self, dev: DeviceId, cost: TaskCost) {
        let b = &mut self.blame[dev.0];
        b.scheduling += cost.sched;
        b.adaptation += cost.adapt;
        b.transfer += cost.transfer;
        b.link_degraded += cost.link;
        b.fault_loss += cost.fault;
        b.compute += cost.exec;
        b.replan += cost.replan;
    }

    fn on_task_done(&mut self, t: TaskId, dev: DeviceId) {
        self.completed[t.0] = true;
        self.free_slots[dev.0] += 1;
        self.dev_last_done[dev.0] = self.dev_last_done[dev.0].max(self.now);
        if self.obs.enabled() {
            self.obs.on_task_done(t, dev, self.now);
        }
        let task = self.tasks[t.0];
        let suppress = if let Some(f) = &mut self.faults {
            f.in_flight[t.0] = false;
            f.suppress_complete[t.0]
        } else {
            false
        };
        if !suppress {
            // Escalated bindings report to the internal DP-Perf scheduler
            // whose books they live in, not the original (static) policy.
            if self
                .adapt
                .as_ref()
                .is_some_and(|a| a.bound_by_escalated[t.0])
            {
                if let Some(esc) = self.adapt.as_mut().and_then(|a| a.escalated.as_mut()) {
                    esc.on_complete(
                        t,
                        task.kernel,
                        dev,
                        task.items,
                        self.busy_of[t.0],
                        self.exec_of[t.0],
                        self.now,
                    );
                }
            } else {
                self.scheduler.on_complete(
                    t,
                    task.kernel,
                    dev,
                    task.items,
                    self.busy_of[t.0],
                    self.exec_of[t.0],
                    self.now,
                );
            }
        }

        // A loser hedge is cancelled the moment its primary finishes: the
        // peer slot it burned is charged to `time_hedged` and freed.
        if let Some(h) = &mut self.health {
            if let Some(hd) = h.hedge[t.0].take() {
                let span = self.now.saturating_sub(hd.launched);
                self.counters.devices[hd.peer.0].busy += span;
                self.blame[hd.peer.0].hedge_waste += span;
                h.report.time_hedged += span;
                self.free_slots[hd.peer.0] += 1;
                self.dev_last_done[hd.peer.0] = self.dev_last_done[hd.peer.0].max(self.now);
            }
        }
        if self.health.is_some() {
            let bad = self.health.as_ref().unwrap().straggled[t.0]
                || self
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.booked_loss[t.0] > SimTime::ZERO);
            self.observe(dev, !bad, Some(t));
        }

        self.release_and_advance(t);
    }

    /// Completion tail shared by [`Sim::on_task_done`] and a winning
    /// hedge: release successors, advance the epoch, refill slots.
    fn release_and_advance(&mut self, t: TaskId) {
        // Release successors whose dependences are now satisfied. Only
        // successors in the *active* epoch become ready (later epochs wait
        // for their taskwait barrier; `activate_epoch` re-scans them). A
        // successor that is already placed (queued, in flight, or completed
        // — possible only when a dropout re-armed this dependence while the
        // consumer's standing result was left alone) must not be re-bound.
        let succs = self.graph.succs[t.0].clone();
        for s in succs {
            self.remaining_preds[s.0] -= 1;
            if self.remaining_preds[s.0] == 0
                && self.graph.epoch_of[s.0] == self.cur_epoch
                && self.placements[s.0].is_none()
            {
                self.make_ready(s);
            }
        }

        self.epoch_remaining -= 1;
        if self.epoch_remaining == 0 {
            self.on_epoch_barrier();
        }
        self.dispatch_all();
    }

    /// Retry exhaustion on a live device: free the slot and fail the task
    /// over to the fallback survivor (forced placement — the scheduler is
    /// bypassed and will not be told about the eventual completion).
    fn on_task_aborted(&mut self, t: TaskId, dev: DeviceId) {
        self.free_slots[dev.0] += 1;
        self.dev_last_done[dev.0] = self.dev_last_done[dev.0].max(self.now);
        {
            let f = self
                .faults
                .as_mut()
                .expect("aborts only occur under faults");
            f.in_flight[t.0] = false;
            f.failed_over[t.0] = true;
            f.suppress_complete[t.0] = true;
            f.counters.failovers += 1;
        }
        // Observe first: the exhaustion may trip the breaker, and the
        // fallback choice must see the updated quarantine set.
        self.observe(dev, false, Some(t));
        let unavail = self.unavailable();
        let target = fallback_device(self.platform, &unavail, Some(dev));
        route_event(
            &mut *self.obs,
            &TraceEvent::Failover {
                task: t,
                from: dev,
                to: target,
                at: self.now,
            },
        );
        self.placements[t.0] = Some(target);
        self.dev_queues[target.0].push_back(t);
        self.dispatch_all();
    }

    /// Permanent device failure. Kills the device's queued and in-flight
    /// work, re-executes its uncommitted completions of the open epoch
    /// (their results lived in the dead memory space), restores lost data
    /// from the host's epoch checkpoint, and re-binds everything to the
    /// survivors. Committed epochs (barrier reached) are never touched.
    fn on_device_dropout(&mut self, dev: DeviceId) {
        if dev.0 == 0 {
            return; // the host is the last resort and cannot die
        }
        {
            let f = self
                .faults
                .as_mut()
                .expect("dropouts only occur under faults");
            if f.dead[dev.0] {
                return;
            }
            f.dead[dev.0] = true;
            f.counters.device_dropouts += 1;
            // A dropout is the strongest member fault a domain can see;
            // surviving siblings get the correlated window.
            trigger_correlated(f, &mut *self.obs, dev, self.now);
        }
        self.free_slots[dev.0] = 0;
        self.death_at[dev.0] = Some(self.now);
        route_event(
            &mut *self.obs,
            &TraceEvent::DeviceDropout { dev, at: self.now },
        );

        // Hedge bookkeeping: a hedge whose peer died is lost (a
        // designated-winner's primary completion is revived), and a hedge
        // whose primary is about to be killed below is cancelled with it.
        if self.health.is_some() {
            for ti in 0..self.tasks.len() {
                let Some(hd) = self.health.as_ref().and_then(|h| h.hedge[ti]) else {
                    continue;
                };
                let span = self.now.saturating_sub(hd.launched);
                if hd.peer == dev {
                    self.counters.devices[dev.0].busy += span;
                    self.blame[dev.0].hedge_waste += span;
                    if let Some(h) = self.health.as_mut() {
                        h.report.time_hedged += span;
                        h.hedge[ti] = None;
                    }
                    if hd.winner {
                        // The primary is still physically running; its
                        // completion was invalidated when the hedge was
                        // designated winner — revive it under the current
                        // generation (the primary outlives the hedge by
                        // construction: hedge_end < primary_end).
                        let f = self.faults.as_ref().unwrap();
                        let end = f.started_at[ti] + self.busy_of[ti];
                        let gen = f.gen[ti];
                        let pdev = self.placements[ti].expect("hedged task was placed");
                        self.queue.push(
                            end,
                            Ev::TaskDone {
                                task: TaskId(ti),
                                dev: pdev,
                                gen,
                            },
                        );
                    }
                } else if self.placements[ti] == Some(dev)
                    && self.faults.as_ref().is_some_and(|f| f.in_flight[ti])
                {
                    // The kill loop below requeues the primary; the
                    // duplicate's result is discarded with it.
                    self.counters.devices[hd.peer.0].busy += span;
                    self.blame[hd.peer.0].hedge_waste += span;
                    self.free_slots[hd.peer.0] += 1;
                    if let Some(h) = self.health.as_mut() {
                        h.report.time_hedged += span;
                        h.hedge[ti] = None;
                    }
                }
            }
        }

        // With the epoch's barrier already reached (flush in flight), the
        // epoch is committed: its data is home — or racing down the link,
        // which we let win — and nothing needs re-execution.
        let epoch_open = self.epoch_remaining > 0;

        // 1. Queued (bound, not yet started) work dies with its queue.
        let drained: Vec<TaskId> = self.dev_queues[dev.0].drain(..).collect();

        // 2. In-flight work is killed: invalidate its completion event and
        // take back the accounting recorded at dispatch.
        let killed: Vec<TaskId> = (0..self.tasks.len())
            .map(TaskId)
            .filter(|t| {
                self.placements[t.0] == Some(dev)
                    && self.faults.as_ref().is_some_and(|f| f.in_flight[t.0])
            })
            .collect();
        for &t in &killed {
            let task = self.tasks[t.0];
            let (was_recorded, lost, overbooked) = {
                let f = self.faults.as_mut().unwrap();
                f.gen[t.0] += 1;
                f.in_flight[t.0] = false;
                // The dispatch's failed attempts, backoff and transfer
                // retries were already booked at dispatch; charge only the
                // rest of the discarded span. Attempts sampled at dispatch
                // may sit logically *after* the death — that portion was
                // never burned (the dead tail covers it), so it comes back.
                let span = self.now.saturating_sub(f.started_at[t.0]);
                let booked = f.booked_loss[t.0];
                (
                    f.recorded[t.0],
                    span.saturating_sub(booked),
                    booked.saturating_sub(span),
                )
            };
            {
                let tl = &mut self.faults.as_mut().unwrap().counters.time_lost;
                *tl = (*tl + lost).saturating_sub(overbooked);
            }
            let c = &mut self.counters.devices[dev.0];
            c.busy = c.busy.saturating_sub(self.busy_of[t.0]);
            if was_recorded {
                c.tasks -= 1;
                c.items -= task.items;
                let ks = &mut self.per_kernel[task.kernel.0];
                ks.items_per_device[dev.0] -= task.items;
                ks.tasks_per_device[dev.0] -= 1;
            }
            // Blame mirror: the dispatch's categorized charges come back;
            // the slot's net fault charge becomes exactly the span it
            // really burned before the death.
            self.unblame(t, dev);
            let fl = &mut self.blame[dev.0].fault_loss;
            *fl = (*fl + lost).saturating_sub(overbooked);
        }

        // 3. Uncommitted completions of the open epoch that ran here must
        // re-execute: their outputs existed only in the dead memory.
        let resets: Vec<TaskId> = if epoch_open {
            self.epochs[self.cur_epoch]
                .iter()
                .copied()
                .filter(|t| self.completed[t.0] && self.placements[t.0] == Some(dev))
                .collect()
        } else {
            Vec::new()
        };
        for &t in &resets {
            self.completed[t.0] = false;
            self.epoch_remaining += 1;
            let task = self.tasks[t.0];
            let c = &mut self.counters.devices[dev.0];
            c.tasks -= 1;
            c.items -= task.items;
            c.busy = c.busy.saturating_sub(self.busy_of[t.0]);
            let ks = &mut self.per_kernel[task.kernel.0];
            ks.items_per_device[dev.0] -= task.items;
            ks.tasks_per_device[dev.0] -= 1;
            let f = self.faults.as_mut().unwrap();
            f.counters.reexecutions += 1;
            // As with kills, the fault loss inside `busy_of` was already
            // booked at dispatch.
            f.counters.time_lost += self.busy_of[t.0].saturating_sub(f.booked_loss[t.0]);
            // Blame mirror: the whole discarded span becomes fault loss
            // (its fault component was already booked at dispatch).
            self.unblame(t, dev);
            let extra = self.busy_of[t.0].saturating_sub(self.cost_of[t.0].fault);
            self.blame[dev.0].fault_loss += extra;
        }
        // Everything the dropout un-ran loses its placement: from here on
        // "placed" again means queued, in flight, or completed.
        for &t in drained.iter().chain(&killed).chain(&resets) {
            self.placements[t.0] = None;
        }
        // Re-arm the dependences the resets had satisfied. Every consumer
        // regains an unsatisfied dependence — the reset producer's
        // re-completion will decrement it again — but only consumers that
        // have not run yet go back to unready: a successor that already
        // started read the data while it was still valid, so its result
        // stands (the placement guard in `on_task_done` keeps it from
        // being re-bound when the count returns to zero).
        for &t in &resets {
            for s in self.graph.succs[t.0].clone() {
                let ran =
                    self.completed[s.0] || self.faults.as_ref().is_some_and(|f| f.in_flight[s.0]);
                if !ran && self.placements[s.0].is_some() {
                    // A bound-but-unstarted consumer goes back to unready.
                    for q in &mut self.dev_queues {
                        q.retain(|&x| x != s);
                    }
                    self.placements[s.0] = None;
                }
                self.remaining_preds[s.0] += 1;
            }
        }

        // 4. Data that lived only in the dead space is recovered from the
        // host's epoch checkpoint.
        let dead_space = self.platform.device(dev).mem_space;
        self.coherence.drop_space(dead_space);

        // The reversals above made the open epoch's skew window garbage;
        // the detector sits this epoch out rather than acting on it.
        if let Some(a) = &mut self.adapt {
            a.epoch_busy.fill(SimTime::ZERO);
            a.epoch_items.fill(0);
        }

        // Survivor re-planning: re-solve the remaining epochs over the
        // live device set (and rebind other devices' queues) before the
        // dead device's own work is re-bound below, so step 5's
        // `make_ready` already sees the repaired overrides.
        self.plan_repair(dev, false);

        // 5. Re-bind everything that is still dependency-free, in TaskId
        // order (deterministic). Tasks whose dependences the re-arm put
        // back wait for their producers to re-complete.
        let mut requeue: Vec<TaskId> = killed
            .into_iter()
            .chain(drained)
            .chain(resets)
            .filter(|t| self.remaining_preds[t.0] == 0)
            .collect();
        requeue.sort_unstable();
        requeue.dedup();
        for t in requeue {
            self.make_ready(t);
        }
        self.dispatch_all();
    }

    /// Devices no new binding may target: dead, or with an open/half-open
    /// circuit (half-open devices keep their existing bindings as probe
    /// candidates but are not fallback targets).
    fn unavailable(&self) -> Vec<bool> {
        let mut v: Vec<bool> = match &self.faults {
            Some(f) => f.dead.clone(),
            None => vec![false; self.platform.devices.len()],
        };
        if let Some(h) = &self.health {
            for (i, s) in h.state.iter().enumerate() {
                if *s != BreakerState::Closed {
                    v[i] = true;
                }
            }
        }
        v
    }

    /// Fold one good/bad observation of `dev` into its EWMA health score
    /// and the circuit breaker. `task` identifies the observation's source
    /// for half-open probe matching.
    fn observe(&mut self, dev: DeviceId, good: bool, task: Option<TaskId>) {
        enum Action {
            None,
            Trip(SimTime),
            Close,
            Reopen(SimTime),
        }
        let action = {
            let Some(h) = self.health.as_mut() else {
                return;
            };
            let alpha = h.config.ewma_alpha;
            let s = &mut h.report.scores[dev.0];
            *s = (1.0 - alpha) * *s + alpha * if good { 1.0 } else { 0.0 };
            if good {
                h.consecutive_bad[dev.0] = 0;
            } else {
                h.consecutive_bad[dev.0] += 1;
            }
            match (h.config.breaker, h.state[dev.0]) {
                (Some(b), BreakerState::Closed)
                    if !good
                        && h.consecutive_bad[dev.0] >= b.trip_after
                        && dev.0 != 0
                        && !self.faults.as_ref().is_some_and(|f| f.dead[dev.0]) =>
                {
                    Action::Trip(b.cooldown)
                }
                (Some(b), BreakerState::HalfOpen)
                    if task.is_some() && h.probe_task[dev.0] == task =>
                {
                    if good {
                        Action::Close
                    } else {
                        Action::Reopen(b.cooldown)
                    }
                }
                _ => Action::None,
            }
        };
        match action {
            Action::None => {}
            Action::Trip(cooldown) => self.trip_breaker(dev, cooldown),
            Action::Close => {
                let h = self.health.as_mut().unwrap();
                h.state[dev.0] = BreakerState::Closed;
                h.probe_task[dev.0] = None;
                h.consecutive_bad[dev.0] = 0;
                h.report.circuit_closes += 1;
                if let Some(span) = h
                    .report
                    .quarantine
                    .iter_mut()
                    .rev()
                    .find(|q| q.dev == dev && q.until.is_none())
                {
                    span.until = Some(self.now);
                }
                route_event(
                    &mut *self.obs,
                    &TraceEvent::CircuitClose { dev, at: self.now },
                );
                // Healing re-plan: the readmitted device is a survivor
                // again; re-solve and migrate work back onto it (mirrors
                // PR 5's disturbance-aware de-escalation).
                if self
                    .replan
                    .as_ref()
                    .is_some_and(|r| r.config.heal_on_reclose)
                    && self.plan_repair(dev, true)
                {
                    self.dispatch_all();
                }
            }
            Action::Reopen(cooldown) => {
                {
                    let h = self.health.as_mut().unwrap();
                    h.state[dev.0] = BreakerState::Open;
                    h.probe_task[dev.0] = None;
                }
                self.queue
                    .push(self.now + cooldown, Ev::CircuitProbe { dev });
                self.drain_and_rebind(dev);
            }
        }
    }

    /// Open the circuit: quarantine `dev`, schedule its half-open probe,
    /// and redirect its queued (unstarted) work. In-flight work finishes —
    /// quarantine is not a dropout.
    fn trip_breaker(&mut self, dev: DeviceId, cooldown: SimTime) {
        {
            let h = self.health.as_mut().unwrap();
            h.state[dev.0] = BreakerState::Open;
            h.probe_task[dev.0] = None;
            h.report.circuit_opens += 1;
            h.report.quarantine.push(QuarantineSpan {
                dev,
                from: self.now,
                until: None,
            });
        }
        route_event(
            &mut *self.obs,
            &TraceEvent::CircuitOpen { dev, at: self.now },
        );
        self.queue
            .push(self.now + cooldown, Ev::CircuitProbe { dev });
        // Survivor re-planning before the naive drain: a successful repair
        // rebinds every queue (including `dev`'s) under the new overrides,
        // leaving the drain below nothing to redirect.
        self.plan_repair(dev, false);
        self.drain_and_rebind(dev);
    }

    /// Re-bind a quarantined device's queued work; `make_ready` redirects
    /// it to survivors (counted as failovers).
    fn drain_and_rebind(&mut self, dev: DeviceId) {
        let drained: Vec<TaskId> = self.dev_queues[dev.0].drain(..).collect();
        for &t in &drained {
            self.placements[t.0] = None;
        }
        for t in drained {
            self.make_ready(t);
        }
    }

    /// Cool-down elapsed: half-open the circuit and let one probe through.
    fn on_circuit_probe(&mut self, dev: DeviceId) {
        if self.faults.as_ref().is_some_and(|f| f.dead[dev.0]) {
            return; // died while quarantined; the circuit stays open
        }
        let Some(h) = self.health.as_mut() else {
            return;
        };
        if h.state[dev.0] != BreakerState::Open {
            return;
        }
        h.state[dev.0] = BreakerState::HalfOpen;
        h.probe_task[dev.0] = None;
        self.dispatch(dev);
    }

    /// The watchdog's deadline passed with the attempt still running:
    /// record a straggle observation and (if configured) launch a hedged
    /// duplicate on the best other device.
    fn on_watchdog_fire(&mut self, t: TaskId, started: SimTime) {
        let live = self
            .faults
            .as_ref()
            .is_some_and(|f| f.in_flight[t.0] && f.started_at[t.0] == started);
        if !live {
            return;
        }
        let Some(primary) = self.placements[t.0] else {
            return;
        };
        {
            let h = self.health.as_mut().unwrap();
            if h.straggled[t.0] || h.hedge[t.0].is_some() {
                return;
            }
            h.straggled[t.0] = true;
        }
        self.observe(primary, false, Some(t));
        let hedging = self
            .health
            .as_ref()
            .unwrap()
            .config
            .watchdog
            .is_some_and(|w| w.hedging);
        if !hedging {
            return;
        }
        // Best live, closed peer with a free slot: minimum throttled
        // execution estimate. The duplicate re-reads the inputs the
        // primary already staged, so transfers are not re-charged, and it
        // samples no faults of its own (see the module docs).
        let unavail = self.unavailable();
        let task = self.tasks[t.0];
        let profile = &self.program.kernels[task.kernel.0].profile;
        let mut best: Option<(SimTime, DeviceId)> = None;
        for d in &self.platform.devices {
            if d.id == primary || unavail[d.id.0] || self.free_slots[d.id.0] == 0 {
                continue;
            }
            let base = d.exec_time_weighted(profile, task.items, task.cost_scale);
            let cost = self
                .faults
                .as_ref()
                .map_or(base, |f| f.schedule.throttled_exec(d.id, self.now, base));
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, d.id));
            }
        }
        let Some((cost, peer)) = best else {
            return;
        };
        let hedge_end = self.now + cost;
        let primary_end = self.faults.as_ref().unwrap().started_at[t.0] + self.busy_of[t.0];
        self.free_slots[peer.0] -= 1;
        // First finisher wins, and both finish times are known here.
        let winner = hedge_end < primary_end;
        if winner {
            let f = self.faults.as_mut().unwrap();
            f.gen[t.0] += 1; // invalidate the straggling primary's completion
            let gen = f.gen[t.0];
            self.queue.push(
                hedge_end,
                Ev::HedgeDone {
                    task: t,
                    dev: peer,
                    gen,
                },
            );
        }
        let h = self.health.as_mut().unwrap();
        h.report.hedges_issued += 1;
        h.hedge[t.0] = Some(Hedge {
            peer,
            launched: self.now,
            winner,
        });
        route_event(
            &mut *self.obs,
            &TraceEvent::HedgeLaunched {
                task: t,
                from: primary,
                to: peer,
                at: self.now,
            },
        );
    }

    /// A winning hedged duplicate finished: cancel the straggling primary
    /// mid-attempt, commit the result on the peer, and complete the task.
    fn on_hedge_done(&mut self, t: TaskId, peer: DeviceId) {
        let hd = self.health.as_mut().unwrap().hedge[t.0]
            .take()
            .expect("hedge event implies an active hedge");
        let primary = self.placements[t.0].expect("hedged task was placed");
        let task = self.tasks[t.0];
        // Reverse the primary's dispatch accounting; the slot span it
        // actually occupied is charged (net of fault losses already booked
        // to `time_lost`) to `time_hedged`.
        let span_primary;
        {
            let f = self.faults.as_mut().unwrap();
            span_primary = self.now.saturating_sub(f.started_at[t.0]);
            f.in_flight[t.0] = false;
            f.suppress_complete[t.0] = true;
            f.corrupt[t.0] = false; // the primary's result is discarded
            let c = &mut self.counters.devices[primary.0];
            c.busy = c.busy.saturating_sub(self.busy_of[t.0]) + span_primary;
            if f.recorded[t.0] {
                c.tasks -= 1;
                c.items -= task.items;
                let ks = &mut self.per_kernel[task.kernel.0];
                ks.items_per_device[primary.0] -= task.items;
                ks.tasks_per_device[primary.0] -= 1;
            }
        }
        {
            let h = self.health.as_mut().unwrap();
            h.report.hedges_won += 1;
            h.report.time_hedged +=
                span_primary.saturating_sub(self.faults.as_ref().unwrap().booked_loss[t.0]);
        }
        // Blame mirror: reverse the primary's categorized charges; the slot
        // span it actually burned (net of booked fault loss) is hedge
        // waste, matching `time_hedged`.
        self.unblame(t, primary);
        self.blame[primary.0].hedge_waste += span_primary.saturating_sub(self.cost_of[t.0].fault);
        self.free_slots[primary.0] += 1;
        self.dev_last_done[primary.0] = self.dev_last_done[primary.0].max(self.now);
        // Commit the duplicate's result on the peer.
        let hspan = self.now.saturating_sub(hd.launched);
        self.counters.record_task(peer, task.items, hspan);
        let ks = &mut self.per_kernel[task.kernel.0];
        ks.items_per_device[peer.0] += task.items;
        ks.tasks_per_device[peer.0] += 1;
        self.busy_of[t.0] = hspan;
        self.exec_of[t.0] = hspan;
        // The committed dispatch is now the peer's span, all of it useful
        // execution — a later rollback reverses exactly that.
        self.cost_of[t.0] = TaskCost {
            exec: hspan,
            ..TaskCost::default()
        };
        self.blame[peer.0].compute += hspan;
        self.placements[t.0] = Some(peer);
        self.free_slots[peer.0] += 1;
        self.dev_last_done[peer.0] = self.dev_last_done[peer.0].max(self.now);
        self.completed[t.0] = true;
        route_event(
            &mut *self.obs,
            &TraceEvent::Task {
                task: t,
                kernel: task.kernel,
                dev: peer,
                items: task.items,
                start: hd.launched,
                end: self.now,
            },
        );
        route_event(
            &mut *self.obs,
            &TraceEvent::HedgeWon {
                task: t,
                dev: peer,
                at: self.now,
            },
        );
        if self.obs.enabled() {
            self.obs.on_task_done(t, peer, self.now);
        }
        self.observe(peer, true, Some(t));
        self.release_and_advance(t);
    }

    /// All tasks of the open epoch completed. Under `DupCheck` a seeded
    /// sample is re-executed on a peer device first; a mismatch rolls the
    /// epoch back to its checkpoint instead of committing it.
    fn on_epoch_barrier(&mut self) {
        if let Some(sample_rate) = self.dup_check_rate() {
            let (verify_end, detected) = self.verify_epoch(sample_rate);
            self.now = self.now.max(verify_end);
            if detected {
                self.rollback_epoch();
                return;
            }
        }
        // The epoch's results stand: let the adaptive controller observe
        // it and correct the remaining epochs before the flush commits.
        self.adapt_at_barrier();
        self.start_flush();
    }

    fn dup_check_rate(&self) -> Option<f64> {
        match self.health.as_ref().map(|h| h.config.verification) {
            Some(VerificationPolicy::DupCheck { sample_rate }) if sample_rate > 0.0 => {
                Some(sample_rate)
            }
            _ => None,
        }
    }

    /// Re-execute a seeded sample of the epoch's tasks on peer devices and
    /// compare. Verification serialises per peer starting at the barrier;
    /// returns when the last comparison lands and whether any corruption
    /// was detected.
    fn verify_epoch(&mut self, sample_rate: f64) -> (SimTime, bool) {
        let epoch_tasks = self.epochs[self.cur_epoch].clone();
        let mut cursors: Vec<SimTime> = vec![self.now; self.platform.devices.len()];
        let mut any = false;
        let mut bad_obs: Vec<(DeviceId, TaskId)> = Vec::new();
        for t in epoch_tasks {
            let sampled = if sample_rate >= 1.0 {
                true
            } else {
                self.health.as_mut().unwrap().rng.next_f64() < sample_rate
            };
            if !sampled {
                continue;
            }
            let placed = self.placements[t.0].expect("epoch task completed");
            let unavail = self.unavailable();
            let task = self.tasks[t.0];
            let profile = &self.program.kernels[task.kernel.0].profile;
            let mut best: Option<(SimTime, DeviceId)> = None;
            for d in &self.platform.devices {
                if d.id == placed || unavail[d.id.0] {
                    continue;
                }
                let base = d.exec_time_weighted(profile, task.items, task.cost_scale);
                let cost = self.faults.as_ref().map_or(base, |f| {
                    f.schedule.throttled_exec(d.id, cursors[d.id.0], base)
                });
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, d.id));
                }
            }
            let Some((cost, peer)) = best else {
                continue; // no peer left to verify against
            };
            let end = cursors[peer.0] + cost;
            cursors[peer.0] = end;
            self.counters.devices[peer.0].busy += cost;
            self.blame[peer.0].verify += cost;
            let h = self.health.as_mut().unwrap();
            h.report.tasks_verified += 1;
            h.report.time_verifying += cost;
            if self.faults.as_ref().is_some_and(|f| f.corrupt[t.0]) {
                any = true;
                h.report.corruptions_detected += 1;
                route_event(
                    &mut *self.obs,
                    &TraceEvent::CorruptionDetected {
                        task: t,
                        dev: placed,
                        at: end,
                    },
                );
                bad_obs.push((placed, t));
            }
        }
        let verify_end = cursors.into_iter().max().unwrap_or(self.now);
        for (dev, t) in bad_obs {
            self.observe(dev, false, Some(t));
        }
        (verify_end, any)
    }

    /// A detected corruption invalidates the open epoch: reverse its
    /// committed accounting, drop the untrusted device copies (readers
    /// re-fetch from the host checkpoint), and re-run it. After
    /// `max_rollbacks_per_epoch` attempts, corruption injection is
    /// suppressed so the re-run commits clean — the SDC analog of safe
    /// mode, guaranteeing termination.
    fn rollback_epoch(&mut self) {
        {
            let h = self.health.as_mut().unwrap();
            h.report.epoch_rollbacks += 1;
            h.rollbacks_this_epoch += 1;
            if h.rollbacks_this_epoch >= h.config.max_rollbacks_per_epoch {
                if let Some(f) = self.faults.as_mut() {
                    f.suppress_corruption = true;
                }
            }
        }
        let epoch_tasks = self.epochs[self.cur_epoch].clone();
        for &t in &epoch_tasks {
            let dev = self.placements[t.0].expect("epoch task completed");
            let task = self.tasks[t.0];
            self.completed[t.0] = false;
            let c = &mut self.counters.devices[dev.0];
            c.tasks -= 1;
            c.items -= task.items;
            c.busy = c.busy.saturating_sub(self.busy_of[t.0]);
            let ks = &mut self.per_kernel[task.kernel.0];
            ks.items_per_device[dev.0] -= task.items;
            ks.tasks_per_device[dev.0] -= 1;
            // Blame mirror: the reversed dispatch's physical span stays on
            // the device as rollback loss (already-booked fault loss keeps
            // its category).
            self.unblame(t, dev);
            self.blame[dev.0].rollback += self.busy_of[t.0].saturating_sub(self.cost_of[t.0].fault);
            let f = self.faults.as_mut().unwrap();
            f.corrupt[t.0] = false;
            self.placements[t.0] = None;
        }
        // Re-arm every dependence the epoch's completions had satisfied;
        // re-completions will satisfy them again.
        for &t in &epoch_tasks {
            for s in self.graph.succs[t.0].clone() {
                self.remaining_preds[s.0] += 1;
            }
        }
        for d in &self.platform.devices {
            if !d.mem_space.is_host() {
                self.coherence.drop_space(d.mem_space);
            }
        }
        self.epoch_remaining = epoch_tasks.len();
        // The rolled-back accounting invalidates the epoch's observation
        // window; the re-run is observed fresh.
        if let Some(a) = &mut self.adapt {
            a.epoch_busy.fill(SimTime::ZERO);
            a.epoch_items.fill(0);
        }
        for t in epoch_tasks {
            if self.remaining_preds[t.0] == 0 {
                self.make_ready(t);
            }
        }
        self.dispatch_all();
    }

    /// The adaptive-repartitioning controller, run at each taskwait
    /// barrier once the epoch's results are verified (a rolled-back epoch
    /// is re-run, not observed). Detection compares slot-normalised
    /// per-device busy time of the closing epoch; hysteresis demands the
    /// imbalance persist before anything changes; the response is a
    /// re-solve while corrections remain and an escalation once
    /// `max_resolves` consecutive corrections have missed the balance
    /// target.
    fn adapt_at_barrier(&mut self) {
        if self.adapt.is_none() {
            return;
        }
        // Detect: skew = (max − min) / max over busy/slots of the devices
        // that ran work this epoch. One participant (or none) is trivially
        // balanced — there is no peer to be skewed against.
        let (skew, participants) = {
            let a = self.adapt.as_ref().unwrap();
            let mut max_n = 0.0f64;
            let mut min_n = f64::INFINITY;
            let mut participants = 0u32;
            for d in &self.platform.devices {
                let busy = a.epoch_busy[d.id.0];
                if busy == SimTime::ZERO {
                    continue;
                }
                let n = busy.as_secs_f64() / d.spec.kind.slots() as f64;
                max_n = max_n.max(n);
                min_n = min_n.min(n);
                participants += 1;
            }
            if participants >= 2 && max_n > 0.0 {
                ((max_n - min_n) / max_n, participants)
            } else {
                (0.0, participants)
            }
        };
        let imbalanced = {
            let a = self.adapt.as_mut().unwrap();
            a.report.barriers_observed += 1;
            if participants >= 2 {
                a.report.max_skew = a.report.max_skew.max(skew);
                a.report.final_skew = skew;
            }
            if skew <= a.config.balance_target {
                // Balance restored: the correction budget refills.
                a.resolves_since_balance = 0;
            }
            if skew > a.config.skew_threshold {
                a.report.imbalances_detected += 1;
                a.consecutive_imbalanced += 1;
                true
            } else {
                a.consecutive_imbalanced = 0;
                false
            }
        };
        if imbalanced {
            route_event(
                &mut *self.obs,
                &TraceEvent::ImbalanceDetected {
                    epoch: self.cur_epoch,
                    skew,
                    at: self.now,
                },
            );
        }
        // De-escalation: an escalated run watches for calm barriers and
        // hands the remaining epochs back to the static plan once the
        // disturbance has passed (the reversible side of the Table I
        // SP-* → DP-Perf escalation).
        if self
            .adapt
            .as_ref()
            .is_some_and(|a| a.escalated.is_some() && a.config.reinstate_after > 0)
        {
            self.try_reinstate(skew);
        }
        if let Some(a) = self.adapt.as_mut() {
            a.last_barrier_at = self.now;
        }
        // Act only while there are future epochs to correct.
        let a = self.adapt.as_ref().unwrap();
        let triggered = a.consecutive_imbalanced >= a.config.hysteresis
            && a.escalated.is_none()
            && self.cur_epoch + 1 < self.epochs.len();
        if !triggered {
            return;
        }
        let exhausted = {
            let a = self.adapt.as_mut().unwrap();
            a.consecutive_imbalanced = 0; // re-arm the hysteresis window
            a.config.escalation && a.resolves_since_balance >= a.config.max_resolves
        };
        if exhausted {
            self.escalate();
        } else {
            let a = self.adapt.as_mut().unwrap();
            let can_repartition = a.config.repartition && a.plan.is_some();
            a.resolves_since_balance += 1;
            if can_repartition {
                self.repartition();
            }
        }
    }

    /// Re-solve the plan's partition against the observed whole-device
    /// throughputs ([`glinda::resolve_with_observations`], warm-started
    /// from the prior split) and re-pin the remaining epochs' chunks.
    /// Whole chunks move (region splits are baked into the plan), and the
    /// chunk-level assignment minimises a *slot-quantised* predicted epoch
    /// wall at the observed rates rather than chasing the continuous item
    /// target — equal-size chunks run in waves over a device's slots, and
    /// a count-based target can balance busy time without shortening the
    /// critical path. A no-regression guard keeps an epoch's old placement
    /// when the model predicts no improvement.
    fn repartition(&mut self) {
        // A plan carrying per-kernel splits (multi-kernel SP-Varied)
        // re-solves each remaining epoch against its own kernel's problem
        // and observed rates instead of the SP-Single projection.
        if self
            .adapt
            .as_ref()
            .and_then(|a| a.plan.as_ref())
            .is_some_and(|p| p.per_kernel.is_some())
        {
            self.repartition_varied();
            return;
        }
        // A plan carrying an N-way split re-balances over the *full* live
        // device set (the multi-accelerator adaptation path).
        if self
            .adapt
            .as_ref()
            .and_then(|a| a.plan.as_ref())
            .is_some_and(|p| p.multi.is_some())
        {
            self.repartition_multi();
            return;
        }
        let (plan, obs_cpu, obs_gpu) = {
            let a = self.adapt.as_ref().unwrap();
            let plan = a.plan.clone().expect("repartition requires a plan");
            // Effective whole-device throughput: items per second of wall
            // time, busy spread over the device's slots, transfers and
            // overheads folded in. The two-way Glinda model sees the host
            // as the CPU side and the plan's accelerator as the GPU side.
            let rate = |dev: DeviceId| -> Option<f64> {
                let busy = a.epoch_busy[dev.0].as_secs_f64();
                let slots = self.platform.device(dev).spec.kind.slots() as f64;
                let items = a.epoch_items[dev.0] as f64;
                (busy > 0.0 && items > 0.0).then_some(items * slots / busy)
            };
            let gpu = plan.gpu;
            (plan, rate(DeviceId(0)), rate(gpu))
        };
        // One side idle this epoch (or its device dead): nothing observed
        // to correct with — leave the plan alone.
        let (Some(obs_cpu), Some(obs_gpu)) = (obs_cpu, obs_gpu) else {
            return;
        };
        if self.faults.as_ref().is_some_and(|f| f.dead[plan.gpu.0]) {
            return;
        }
        let corrected =
            glinda::resolve_with_observations(&plan.problem, &plan.solution, obs_cpu, obs_gpu);
        if plan.problem.items == 0 {
            return;
        }
        // Per-chunk costs at the observed whole-device rates, and the
        // slot-quantised wall clock of one side: chunks dispatch onto a
        // device's parallel slots, so equal-size CPU chunks run in *waves*
        // (24 vs 17 chunks on 12 threads are both two waves) — an
        // item-count target that ignores this can balance busy time
        // without moving the epoch's critical path. `lpt` mirrors the
        // executor's least-loaded dispatch (longest chunks first).
        let cpu_slots = self.platform.device(DeviceId(0)).spec.kind.slots();
        let gpu_slots = self.platform.device(plan.gpu).spec.kind.slots();
        let lpt = |times: &[f64], slots: usize| -> f64 {
            let mut load = vec![0.0f64; slots.max(1)];
            for &t in times {
                let m = load
                    .iter_mut()
                    .min_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
                    .unwrap();
                *m += t;
            }
            load.into_iter().fold(0.0, f64::max)
        };
        // Chunk time on a side: the observed-rate extrapolation captures
        // how the device is *actually* running (throttle windows, flaky
        // retries), but it under-prices small fragments — a rate observed
        // on big chunks amortizes launch overhead a fragment pays in
        // full. Floor it with the device model's own per-chunk prediction
        // (which prices the launch exactly).
        let t_cpu = |t: TaskId, items: u64| -> f64 {
            let task = self.tasks[t.0];
            let profile = &self.program.kernels[task.kernel.0].profile;
            let floor = self
                .platform
                .device(DeviceId(0))
                .exec_time_weighted(profile, items, task.cost_scale)
                .as_secs_f64();
            (items as f64 * cpu_slots as f64 / obs_cpu).max(floor)
        };
        let t_gpu = |t: TaskId, items: u64| -> f64 {
            let task = self.tasks[t.0];
            let profile = &self.program.kernels[task.kernel.0].profile;
            let floor = self
                .platform
                .device(plan.gpu)
                .exec_time_weighted(profile, items, task.cost_scale)
                .as_secs_f64();
            (items as f64 * gpu_slots as f64 / obs_gpu).max(floor)
        };
        // A migrated chunk re-reads its inputs across the link before it
        // can start; the candidate walls must price that hop, or a slow
        // link turns a predicted win into a real loss — the regression
        // the guard exists to prevent.
        let program = self.program;
        let cpu_space = self.platform.device(DeviceId(0)).mem_space;
        let gpu_space = self.platform.device(plan.gpu).mem_space;
        let read_bytes = |t: TaskId| -> u64 {
            self.tasks[t.0]
                .accesses
                .iter()
                .filter(|acc| acc.mode.reads())
                .map(|acc| acc.region.span.len() * program.buffers[acc.region.buffer.0].item_bytes)
                .sum()
        };
        let move_secs = |t: TaskId, cur: DeviceId| -> f64 {
            let (from, to) = if cur == plan.gpu {
                (gpu_space, cpu_space)
            } else {
                (cpu_space, gpu_space)
            };
            transfer_cost(self.platform, from, to, read_bytes(t)).as_secs_f64()
        };
        let mut moved_items = 0u64;
        let mut changed = false;
        let epochs = &self.epochs;
        let tasks = &self.tasks;
        let a = self.adapt.as_mut().unwrap();
        for epoch in epochs.iter().skip(self.cur_epoch + 1) {
            // The epoch's statically placed chunks and their current homes
            // (plus what moving each one across the link would cost).
            let mut chunks: Vec<(TaskId, u64, DeviceId, f64)> = Vec::new();
            let mut total = 0u64;
            for &t in epoch {
                let Some(cur) = a.override_of[t.0].or(tasks[t.0].pinned) else {
                    continue;
                };
                chunks.push((t, tasks[t.0].items, cur, move_secs(t, cur)));
                total += tasks[t.0].items;
            }
            if chunks.len() < 2 || total == 0 {
                continue;
            }
            // Sweep the prefix splits of the size-ordered chunks (the
            // corrected split always offloads a contiguous "biggest
            // chunks" share): GPU takes the first `j`, the CPU the rest;
            // pick the `j` with the smallest predicted wall (a coin from
            // the adaptation stream breaks an exact tie).
            let mut order: Vec<usize> = (0..chunks.len()).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(chunks[i].1), chunks[i].0));
            let mut best_j = 0usize;
            let mut best_wall = f64::INFINITY;
            for j in 0..=order.len() {
                let gpu_times: Vec<f64> = order[..j]
                    .iter()
                    .map(|&i| {
                        let (t, items, cur, mv) = chunks[i];
                        t_gpu(t, items) + if cur == plan.gpu { 0.0 } else { mv }
                    })
                    .collect();
                let cpu_times: Vec<f64> = order[j..]
                    .iter()
                    .map(|&i| {
                        let (t, items, cur, mv) = chunks[i];
                        t_cpu(t, items) + if cur == plan.gpu { mv } else { 0.0 }
                    })
                    .collect();
                let wall = lpt(&gpu_times, gpu_slots).max(lpt(&cpu_times, cpu_slots));
                let better = match wall.partial_cmp(&best_wall) {
                    Some(std::cmp::Ordering::Less) => true,
                    Some(std::cmp::Ordering::Equal) => a.rng.next_f64() < 0.5,
                    _ => false,
                };
                if better {
                    best_wall = wall;
                    best_j = j;
                }
            }
            // No-regression guard: apply only if the observed-rate model
            // predicts the new assignment strictly beats the current one.
            let cur_gpu_times: Vec<f64> = chunks
                .iter()
                .filter(|&&(_, _, cur, _)| cur == plan.gpu)
                .map(|&(t, items, _, _)| t_gpu(t, items))
                .collect();
            let cur_cpu_times: Vec<f64> = chunks
                .iter()
                .filter(|&&(_, _, cur, _)| cur != plan.gpu)
                .map(|&(t, items, _, _)| t_cpu(t, items))
                .collect();
            let cur_wall = lpt(&cur_gpu_times, gpu_slots).max(lpt(&cur_cpu_times, cpu_slots));
            if best_wall >= cur_wall {
                continue;
            }
            let mut assign_gpu = vec![false; chunks.len()];
            for &i in &order[..best_j] {
                assign_gpu[i] = true;
            }
            for (i, &(t, items, cur, _)) in chunks.iter().enumerate() {
                let dest = if assign_gpu[i] { plan.gpu } else { DeviceId(0) };
                if dest != cur {
                    a.override_of[t.0] = Some(dest);
                    moved_items += items;
                    changed = true;
                }
            }
        }
        if changed {
            a.report.repartitions += 1;
            a.report.items_moved += moved_items;
            if let Some(p) = a.plan.as_mut() {
                // The applied split becomes the next re-solve's warm start.
                p.solution = corrected;
            }
            route_event(
                &mut *self.obs,
                &TraceEvent::Repartitioned {
                    epoch: self.cur_epoch,
                    gpu_items: corrected.gpu_items,
                    cpu_items: corrected.cpu_items,
                    at: self.now,
                },
            );
        }
    }

    /// The SP-Varied sibling of [`Sim::repartition`]: SP-Varied separates
    /// kernels with taskwaits, so each remaining epoch's statically placed
    /// chunks all belong to one kernel — the controller re-solves *that
    /// kernel's* stored problem against *that kernel's* cumulative
    /// observed rates. The SP-Single approximation (kernel 0's problem,
    /// whole-application aggregate rates) mis-repins as soon as kernels
    /// have opposite device affinities: the aggregate rate says "the GPU
    /// is slow" even when only one kernel is, and every epoch — including
    /// the GPU-friendly ones — gets dragged toward the CPU. Chunk binding,
    /// migration pricing, and the no-regression guard are identical to
    /// [`Sim::repartition`], applied per epoch.
    fn repartition_varied(&mut self) {
        let (plan, mut kernels) = {
            let a = self.adapt.as_ref().unwrap();
            let plan = a.plan.clone().expect("repartition requires a plan");
            let kernels = plan
                .per_kernel
                .clone()
                .expect("varied repartition carries per-kernel plans");
            (plan, kernels)
        };
        if self.faults.as_ref().is_some_and(|f| f.dead[plan.gpu.0]) {
            return;
        }
        let cpu_slots = self.platform.device(DeviceId(0)).spec.kind.slots();
        let gpu_slots = self.platform.device(plan.gpu).spec.kind.slots();
        let lpt = |times: &[f64], slots: usize| -> f64 {
            let mut load = vec![0.0f64; slots.max(1)];
            for &t in times {
                let m = load
                    .iter_mut()
                    .min_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
                    .unwrap();
                *m += t;
            }
            load.into_iter().fold(0.0, f64::max)
        };
        let platform = self.platform;
        let program = self.program;
        let cpu_space = self.platform.device(DeviceId(0)).mem_space;
        let gpu_space = self.platform.device(plan.gpu).mem_space;
        let read_bytes = |t: TaskId| -> u64 {
            self.tasks[t.0]
                .accesses
                .iter()
                .filter(|acc| acc.mode.reads())
                .map(|acc| acc.region.span.len() * program.buffers[acc.region.buffer.0].item_bytes)
                .sum()
        };
        let move_secs = |t: TaskId, cur: DeviceId| -> f64 {
            let (from, to) = if cur == plan.gpu {
                (gpu_space, cpu_space)
            } else {
                (cpu_space, gpu_space)
            };
            transfer_cost(self.platform, from, to, read_bytes(t)).as_secs_f64()
        };
        let mut moved_items = 0u64;
        let mut changed = false;
        let epochs = &self.epochs;
        let tasks = &self.tasks;
        let a = self.adapt.as_mut().unwrap();
        for epoch in epochs.iter().skip(self.cur_epoch + 1) {
            let mut chunks: Vec<(TaskId, u64, DeviceId, f64)> = Vec::new();
            let mut total = 0u64;
            for &t in epoch {
                let Some(cur) = a.override_of[t.0].or(tasks[t.0].pinned) else {
                    continue;
                };
                chunks.push((t, tasks[t.0].items, cur, move_secs(t, cur)));
                total += tasks[t.0].items;
            }
            if chunks.len() < 2 || total == 0 {
                continue;
            }
            // One kernel per SP-Varied epoch; a mixed epoch has no single
            // per-kernel problem to re-solve, so it is left alone. A
            // kernel without a stored entry (its decision was Only-CPU or
            // Only-GPU) has no split to correct either.
            let kid = tasks[chunks[0].0 .0].kernel;
            if chunks.iter().any(|&(t, _, _, _)| tasks[t.0].kernel != kid) {
                continue;
            }
            let Some(ki) = kernels.iter().position(|kp| kp.kernel == kid.0) else {
                continue;
            };
            if kernels[ki].problem.items == 0 {
                continue;
            }
            // This kernel's own observed whole-device throughputs, from
            // the run's cumulative (kernel, device) rate table: items ×
            // slots / slot-busy seconds. A side this kernel has never run
            // on gives the model nothing to correct with.
            let (obs_cpu, obs_gpu) = {
                let rate = |dev: DeviceId| -> Option<f64> {
                    let o = a.obs.get(&(kid, dev))?;
                    let slots = platform.device(dev).spec.kind.slots() as f64;
                    (o.secs > 0.0 && o.items > 0.0).then(|| o.items * slots / o.secs)
                };
                (rate(DeviceId(0)), rate(plan.gpu))
            };
            let (Some(obs_cpu), Some(obs_gpu)) = (obs_cpu, obs_gpu) else {
                continue;
            };
            let corrected = glinda::resolve_with_observations(
                &kernels[ki].problem,
                &kernels[ki].solution,
                obs_cpu,
                obs_gpu,
            );
            let t_cpu = |t: TaskId, items: u64| -> f64 {
                let task = tasks[t.0];
                let profile = &program.kernels[task.kernel.0].profile;
                let floor = platform
                    .device(DeviceId(0))
                    .exec_time_weighted(profile, items, task.cost_scale)
                    .as_secs_f64();
                (items as f64 * cpu_slots as f64 / obs_cpu).max(floor)
            };
            let t_gpu = |t: TaskId, items: u64| -> f64 {
                let task = tasks[t.0];
                let profile = &program.kernels[task.kernel.0].profile;
                let floor = platform
                    .device(plan.gpu)
                    .exec_time_weighted(profile, items, task.cost_scale)
                    .as_secs_f64();
                (items as f64 * gpu_slots as f64 / obs_gpu).max(floor)
            };
            let mut order: Vec<usize> = (0..chunks.len()).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(chunks[i].1), chunks[i].0));
            let mut best_j = 0usize;
            let mut best_wall = f64::INFINITY;
            for j in 0..=order.len() {
                let gpu_times: Vec<f64> = order[..j]
                    .iter()
                    .map(|&i| {
                        let (t, items, cur, mv) = chunks[i];
                        t_gpu(t, items) + if cur == plan.gpu { 0.0 } else { mv }
                    })
                    .collect();
                let cpu_times: Vec<f64> = order[j..]
                    .iter()
                    .map(|&i| {
                        let (t, items, cur, mv) = chunks[i];
                        t_cpu(t, items) + if cur == plan.gpu { mv } else { 0.0 }
                    })
                    .collect();
                let wall = lpt(&gpu_times, gpu_slots).max(lpt(&cpu_times, cpu_slots));
                let better = match wall.partial_cmp(&best_wall) {
                    Some(std::cmp::Ordering::Less) => true,
                    Some(std::cmp::Ordering::Equal) => a.rng.next_f64() < 0.5,
                    _ => false,
                };
                if better {
                    best_wall = wall;
                    best_j = j;
                }
            }
            let cur_gpu_times: Vec<f64> = chunks
                .iter()
                .filter(|&&(_, _, cur, _)| cur == plan.gpu)
                .map(|&(t, items, _, _)| t_gpu(t, items))
                .collect();
            let cur_cpu_times: Vec<f64> = chunks
                .iter()
                .filter(|&&(_, _, cur, _)| cur != plan.gpu)
                .map(|&(t, items, _, _)| t_cpu(t, items))
                .collect();
            let cur_wall = lpt(&cur_gpu_times, gpu_slots).max(lpt(&cur_cpu_times, cpu_slots));
            if best_wall >= cur_wall {
                continue;
            }
            let mut assign_gpu = vec![false; chunks.len()];
            for &i in &order[..best_j] {
                assign_gpu[i] = true;
            }
            let mut epoch_changed = false;
            for (i, &(t, items, cur, _)) in chunks.iter().enumerate() {
                let dest = if assign_gpu[i] { plan.gpu } else { DeviceId(0) };
                if dest != cur {
                    a.override_of[t.0] = Some(dest);
                    moved_items += items;
                    epoch_changed = true;
                }
            }
            if epoch_changed {
                changed = true;
                // This kernel's applied split warm-starts its next
                // re-solve (later epochs of the same kernel in this very
                // sweep included).
                kernels[ki].solution = corrected;
            }
        }
        if changed {
            a.report.repartitions += 1;
            a.report.items_moved += moved_items;
            let (gpu_items, cpu_items) = kernels.iter().fold((0, 0), |(g, c), kp| {
                (g + kp.solution.gpu_items, c + kp.solution.cpu_items)
            });
            if let Some(p) = a.plan.as_mut() {
                p.per_kernel = Some(kernels);
            }
            route_event(
                &mut *self.obs,
                &TraceEvent::Repartitioned {
                    epoch: self.cur_epoch,
                    gpu_items,
                    cpu_items,
                    at: self.now,
                },
            );
        }
    }

    /// The N-way sibling of [`Sim::repartition`]: re-solve the plan's
    /// stored multi-device split at the observed whole-device rates over
    /// the live device set, then re-pin the remaining epochs' statically
    /// placed chunks wave-aware with migrations priced by the nominal
    /// link. The same strict no-regression guard applies — the baseline is
    /// the current assignment — so a multi-accelerator plan can never be
    /// made worse by adaptation than by leaving it alone.
    fn repartition_multi(&mut self) {
        let unavail = self.unavailable();
        let targets: Vec<DeviceId> = self
            .platform
            .devices
            .iter()
            .filter(|d| !unavail[d.id.0])
            .map(|d| d.id)
            .collect();
        if targets.len() < 2 {
            return;
        }
        self.resolve_surviving_multi(&targets);
        let (moves, moved_items) = self.nway_rebalance(&targets, &unavail, false);
        if moves.is_empty() {
            return;
        }
        let a = self.adapt.as_mut().unwrap();
        for &(t, d) in &moves {
            a.override_of[t.0] = Some(d);
        }
        a.report.repartitions += 1;
        a.report.items_moved += moved_items;
        let (gpu_items, cpu_items) = a
            .plan
            .as_ref()
            .and_then(|p| p.multi.as_ref())
            .map(|m| (m.solution.accel_items.iter().sum(), m.solution.cpu_items))
            .unwrap_or((0, 0));
        route_event(
            &mut *self.obs,
            &TraceEvent::Repartitioned {
                epoch: self.cur_epoch,
                gpu_items,
                cpu_items,
                at: self.now,
            },
        );
    }

    /// Re-solve the plan's stored N-way split over the *surviving*
    /// accelerator subset at the observed whole-device rates
    /// ([`glinda::resolve_multi_with_observations`]), writing the
    /// corrected shares back as the plan's warm start. Dropped (dead or
    /// quarantined) accelerators get a zero share; a readmitted one is a
    /// survivor again and earns its share back. Chunk-level binding is
    /// separate (see [`Sim::nway_rebalance`]) — this keeps the *plan*
    /// honest so later re-solves and reports start from the degraded
    /// split, closing the multi-accelerator `adapt_plan` gap.
    fn resolve_surviving_multi(&mut self, targets: &[DeviceId]) {
        let Some(multi) = self
            .adapt
            .as_ref()
            .and_then(|a| a.plan.as_ref())
            .and_then(|p| p.multi.clone())
        else {
            return;
        };
        let rate = self.whole_device_rates();
        let Some(obs_cpu) = rate[0] else {
            return; // nothing observed on the host yet — keep the plan
        };
        let surviving: Vec<usize> = multi
            .accels
            .iter()
            .enumerate()
            .filter(|(_, d)| targets.contains(d))
            .map(|(i, _)| i)
            .collect();
        if surviving.is_empty() {
            return; // host-only: the N-way plan has nothing left to split
        }
        let sub = MultiDeviceProblem {
            items: multi.problem.items,
            cpu_rate: multi.problem.cpu_rate,
            accelerators: surviving
                .iter()
                .map(|&i| multi.problem.accelerators[i])
                .collect(),
        };
        // The prior split restricted to the survivors (the dead devices'
        // items fall back to the CPU side for the warm-start comparison).
        let mut prior_accel: Vec<u64> = surviving
            .iter()
            .map(|&i| multi.solution.accel_items.get(i).copied().unwrap_or(0))
            .collect();
        let mut assigned: u64 = 0;
        for n in prior_accel.iter_mut() {
            *n = (*n).min(sub.items - assigned);
            assigned += *n;
        }
        let prior = MultiSolution {
            cpu_items: sub.items - assigned,
            predicted_time: sub.predicted_time(sub.items - assigned, &prior_accel),
            accel_items: prior_accel,
        };
        let obs_accels: Vec<Option<f64>> =
            surviving.iter().map(|&i| rate[multi.accels[i].0]).collect();
        let corrected = glinda::resolve_multi_with_observations(&sub, &prior, obs_cpu, &obs_accels);
        if let Some(m) = self
            .adapt
            .as_mut()
            .and_then(|a| a.plan.as_mut())
            .and_then(|p| p.multi.as_mut())
        {
            m.solution.accel_items = vec![0; m.accels.len()];
            for (k, &i) in surviving.iter().enumerate() {
                m.solution.accel_items[i] = corrected.accel_items[k];
            }
            m.solution.cpu_items = corrected.cpu_items;
            m.solution.predicted_time = corrected.predicted_time;
        }
    }

    /// Observed whole-device throughputs (items/s across all slots):
    /// plan-repair's cumulative books when present, else the adaptation
    /// controller's cumulative observations, else `None` (model only).
    fn whole_device_rates(&self) -> Vec<Option<f64>> {
        (0..self.platform.devices.len())
            .map(|d| {
                let slots = self.platform.devices[d].spec.kind.slots() as f64;
                if let Some(r) = &self.replan {
                    if r.obs_secs[d] > 0.0 && r.obs_items[d] > 0.0 {
                        return Some(r.obs_items[d] * slots / r.obs_secs[d]);
                    }
                }
                if let Some(a) = &self.adapt {
                    let (mut items, mut secs) = (0.0f64, 0.0f64);
                    for ((_, dd), o) in a.obs.iter() {
                        if dd.0 == d {
                            items += o.items;
                            secs += o.secs;
                        }
                    }
                    if secs > 0.0 && items > 0.0 {
                        return Some(items * slots / secs);
                    }
                }
                None
            })
            .collect()
    }

    /// Wave-aware N-way re-pin of the not-yet-checkpointed epochs' static
    /// chunks over `targets`: chunks (longest first) go to whichever
    /// survivor's least-loaded slot finishes them earliest, with each
    /// chunk's time the device model scaled by the device's observed ÷
    /// predicted calibration ratio (never below the model — see
    /// [`Sim::cal_model`]) and a migration away from its current home
    /// priced by the nominal link ([`transfer_cost`]). Each epoch is guarded
    /// independently against the *naive* assignment — every chunk stays
    /// home unless its home is unavailable, in which case it redirects to
    /// [`fallback_device`] (exactly what chunk-by-chunk host failover
    /// would do) — and applies only when the model predicts a strictly
    /// smaller wall. Returns the winning moves and their item total; an
    /// exact tie between candidate devices is broken by a coin from the
    /// replan stream (`use_replan_stream`) or the adaptation stream.
    fn nway_rebalance(
        &mut self,
        targets: &[DeviceId],
        unavail: &[bool],
        use_replan_stream: bool,
    ) -> (Vec<(TaskId, DeviceId)>, u64) {
        struct Chunk {
            t: TaskId,
            items: u64,
            cur: DeviceId,
            /// Per target: exec time + migration from the current home.
            cost: Vec<f64>,
            /// Target index the naive host-failover baseline would pick.
            naive: usize,
        }
        // Per-device slowdown of committed work vs the model's prediction.
        // A raw items-per-second extrapolation is *not* usable here: rates
        // observed on launch-overhead-dominated or cheaper-kernel chunks
        // wildly misprice large chunks, and an inflated naive baseline
        // makes a regressive rebind look like a win. The time-over-time
        // ratio cancels launch overhead and kernel mix exactly, and still
        // sees sustained throttling.
        let scale: Vec<f64> = (0..self.platform.devices.len())
            .map(|d| {
                if self.cal_model[d] > 0.0 && self.cal_exec[d] > 0.0 {
                    (self.cal_exec[d] / self.cal_model[d]).max(1.0)
                } else {
                    1.0
                }
            })
            .collect();
        let fallback = fallback_device(self.platform, unavail, None);
        let fb_idx = targets.iter().position(|&d| d == fallback).unwrap_or(0);
        let slots_of: Vec<usize> = targets
            .iter()
            .map(|&d| self.platform.device(d).spec.kind.slots())
            .collect();
        let mut per_epoch: Vec<Vec<Chunk>> = Vec::new();
        for epoch in self.epochs.iter().skip(self.cur_epoch) {
            let mut chunks: Vec<Chunk> = Vec::new();
            for &t in epoch {
                if self.completed[t.0] || self.faults.as_ref().is_some_and(|f| f.in_flight[t.0]) {
                    continue;
                }
                let cur = self.placements[t.0]
                    .or_else(|| self.replan.as_ref().and_then(|r| r.override_of[t.0]))
                    .or_else(|| self.adapt.as_ref().and_then(|a| a.override_of[t.0]))
                    .or(self.tasks[t.0].pinned);
                let Some(cur) = cur else {
                    continue; // dynamically bound: the scheduler re-places it
                };
                let task = self.tasks[t.0];
                let profile = &self.program.kernels[task.kernel.0].profile;
                let (mut read_bytes, mut write_bytes) = (0u64, 0u64);
                for acc in task.accesses.iter() {
                    let bytes = acc.region.span.len()
                        * self.program.buffers[acc.region.buffer.0].item_bytes;
                    if acc.mode.reads() {
                        read_bytes += bytes;
                    }
                    if acc.mode.writes() {
                        write_bytes += bytes;
                    }
                }
                let cur_space = self.platform.device(cur).mem_space;
                let cost: Vec<f64> = targets
                    .iter()
                    .map(|&d| {
                        let device = self.platform.device(d);
                        let exec = device
                            .exec_time_weighted(profile, task.items, task.cost_scale)
                            .as_secs_f64()
                            * scale[d.0];
                        // Epoch data is write-back coherent: an accelerator
                        // placement fetches the chunk's reads from the host
                        // side and flushes its writes back, so every
                        // non-host target is priced for the round trip —
                        // the chunk's current home included (after the
                        // epoch flush, staying put re-fetches like everyone
                        // else).
                        let space = device.mem_space;
                        let round_trip = if space == MemSpaceId::HOST {
                            0.0
                        } else {
                            transfer_cost(self.platform, MemSpaceId::HOST, space, read_bytes)
                                .as_secs_f64()
                                + transfer_cost(self.platform, space, MemSpaceId::HOST, write_bytes)
                                    .as_secs_f64()
                        };
                        // Migrating away from the current home additionally
                        // moves whatever is resident there right now.
                        let mv = if d == cur {
                            0.0
                        } else {
                            transfer_cost(self.platform, cur_space, space, read_bytes).as_secs_f64()
                        };
                        exec + round_trip + mv
                    })
                    .collect();
                let naive = if unavail[cur.0] {
                    fb_idx
                } else {
                    targets.iter().position(|&d| d == cur).unwrap_or(fb_idx)
                };
                chunks.push(Chunk {
                    t,
                    items: task.items,
                    cur,
                    cost,
                    naive,
                });
            }
            per_epoch.push(chunks);
        }
        let rng = if use_replan_stream {
            &mut self.replan.as_mut().unwrap().rng
        } else {
            &mut self.adapt.as_mut().unwrap().rng
        };
        let lpt_push = |load: &mut [f64], t: f64| {
            let m = load
                .iter_mut()
                .min_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
                .unwrap();
            *m += t;
        };
        let mut moves: Vec<(TaskId, DeviceId)> = Vec::new();
        let mut moved_items = 0u64;
        for chunks in &per_epoch {
            if chunks.is_empty() {
                continue;
            }
            let mut order: Vec<usize> = (0..chunks.len()).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(chunks[i].items), chunks[i].t));
            // The naive baseline dispatches the same longest-first waves.
            let mut naive_loads: Vec<Vec<f64>> =
                slots_of.iter().map(|&s| vec![0.0; s.max(1)]).collect();
            for &i in &order {
                let c = &chunks[i];
                lpt_push(&mut naive_loads[c.naive], c.cost[c.naive]);
            }
            let naive_wall = naive_loads
                .iter()
                .flat_map(|l| l.iter())
                .fold(0.0f64, |m, &v| m.max(v));
            // Repaired assignment: earliest predicted finish wins.
            let mut loads: Vec<Vec<f64>> = slots_of.iter().map(|&s| vec![0.0; s.max(1)]).collect();
            let mut dest = vec![0usize; chunks.len()];
            for &i in &order {
                let c = &chunks[i];
                let mut best: Option<(f64, usize)> = None;
                for (k, load) in loads.iter().enumerate() {
                    let slack = load.iter().fold(f64::INFINITY, |m, &v| m.min(v));
                    let fin = slack + c.cost[k];
                    let better = match best {
                        None => true,
                        Some((bf, _)) => match fin.partial_cmp(&bf) {
                            Some(std::cmp::Ordering::Less) => true,
                            Some(std::cmp::Ordering::Equal) => rng.next_f64() < 0.5,
                            _ => false,
                        },
                    };
                    if better {
                        best = Some((fin, k));
                    }
                }
                let (_, k) = best.expect("at least one surviving target");
                lpt_push(&mut loads[k], c.cost[k]);
                dest[i] = k;
            }
            let wall = loads
                .iter()
                .flat_map(|l| l.iter())
                .fold(0.0f64, |m, &v| m.max(v));
            // Per-epoch no-regression guard: repair must beat the naive
            // failover at the model's own predictions *with margin* —
            // the model is a per-epoch LPT relaxation that cannot see
            // link serialization, queue interleaving or the scheduling
            // overhead a rebound chunk pays, so a marginal predicted win
            // is not worth the risk of a real loss.
            if wall >= naive_wall * (1.0 - NWAY_GUARD_MARGIN) {
                continue;
            }
            for (i, c) in chunks.iter().enumerate() {
                let d = targets[dest[i]];
                if d != c.cur {
                    moves.push((c.t, d));
                    moved_items += c.items;
                }
            }
        }
        (moves, moved_items)
    }

    /// Degraded-mode plan repair (see [`RunMode::Repairing`]): re-solve
    /// the not-yet-checkpointed epochs over the surviving device set and
    /// rebind the queued chunks. `heal` marks a healing re-plan after a
    /// breaker reclose (the readmitted `dev` is a survivor again);
    /// otherwise `dev` just died or was quarantined. Returns whether a
    /// repair was applied. Bounded by [`ReplanConfig::max_replans`];
    /// failures are recorded once in [`AdaptReport::replan_error`] and the
    /// executor falls back to chunk-by-chunk host failover.
    fn plan_repair(&mut self, dev: DeviceId, heal: bool) -> bool {
        let Some(r) = self.replan.as_ref() else {
            return false;
        };
        let max = r.config.max_replans;
        if r.replans + r.readmissions >= u64::from(max) {
            let r = self.replan.as_mut().unwrap();
            if r.error.is_none() {
                r.error = Some(ReplanError::BudgetExhausted { max_replans: max });
            }
            return false;
        }
        let unavail = self.unavailable();
        let targets: Vec<DeviceId> = self
            .platform
            .devices
            .iter()
            .filter(|d| !unavail[d.id.0])
            .map(|d| d.id)
            .collect();
        if targets.is_empty() {
            let r = self.replan.as_mut().unwrap();
            if r.error.is_none() {
                r.error = Some(ReplanError::NoSurvivingAccelerator);
            }
            return false;
        }
        // Keep the stored N-way plan honest about the degraded platform.
        self.resolve_surviving_multi(&targets);
        let (moves, _moved_items) = self.nway_rebalance(&targets, &unavail, true);
        if moves.is_empty() {
            // No-regression guard: the naive failover was predicted no
            // worse, so the standing bindings (and the guard's fallback
            // redirects) stay.
            return false;
        }
        {
            let r = self.replan.as_mut().unwrap();
            for &(t, d) in &moves {
                r.override_of[t.0] = Some(d);
            }
            if heal {
                r.readmissions += 1;
            } else {
                r.replans += 1;
            }
        }
        // Mirror the moves into the repartition override map so a later
        // barrier re-solve starts from the applied assignment.
        if let Some(a) = self.adapt.as_mut() {
            for &(t, d) in &moves {
                a.override_of[t.0] = Some(d);
            }
        }
        self.rebind_queued();
        let moved = moves.len() as u64;
        let ev = if heal {
            TraceEvent::DeviceReadmitted {
                dev,
                moved,
                at: self.now,
            }
        } else {
            TraceEvent::PlanRepaired {
                dev,
                moved,
                at: self.now,
            }
        };
        route_event(&mut *self.obs, &ev);
        true
    }

    /// Drain every device queue and re-bind the drained chunks in TaskId
    /// order so freshly written repair overrides take effect immediately.
    /// In-flight work is untouched — a migration never cancels running
    /// work, it only re-homes work that has not started.
    fn rebind_queued(&mut self) {
        let mut requeue: Vec<TaskId> = Vec::new();
        for q in &mut self.dev_queues {
            requeue.extend(q.drain(..));
        }
        requeue.sort_unstable();
        for &t in &requeue {
            self.placements[t.0] = None;
        }
        for t in requeue {
            self.make_ready(t);
        }
    }

    /// Hand the rest of the run to an internal DP-Perf scheduler seeded
    /// with the run's own per-(kernel, device) observations — the Table I
    /// static → dynamic sibling escalation (SP-* → DP-Perf).
    fn escalate(&mut self) {
        let a = self.adapt.as_mut().unwrap();
        a.escalated = Some(PerfScheduler::seeded(self.platform, a.obs.clone()));
        a.calm_barriers = 0; // a fresh escalation starts a fresh calm count
        a.report.escalated = true;
        a.report.escalated_at_epoch = Some(self.cur_epoch);
        route_event(
            &mut *self.obs,
            &TraceEvent::StrategyEscalated {
                epoch: self.cur_epoch,
                at: self.now,
            },
        );
    }

    /// Disturbance-aware de-escalation (ROADMAP: "plan reinstatement").
    /// Each barrier the escalated run closes with skew at or below the
    /// balance target and *no open fault window* — scheduled or
    /// synthesized by a correlated trigger — bumps a calm counter;
    /// anything else resets it. After `reinstate_after` consecutive calm
    /// barriers the remaining epochs are handed back to the static plan,
    /// re-solved at the observed whole-device rates exactly as
    /// [`Sim::repartition`] would. A no-regression guard keeps DP-Perf
    /// when the slot-quantised model predicts the static split would run
    /// the next epoch slower than the dynamic scheduler just ran the
    /// closing one.
    fn try_reinstate(&mut self, skew: f64) {
        let now = self.now;
        let disturbed = self
            .faults
            .as_ref()
            .is_some_and(|f| f.schedule.disturbance_open(now) || f.synth_window_open(now));
        let plan = self.adapt.as_ref().unwrap().plan.clone();
        let gpu_dead = match &plan {
            Some(p) => self.faults.as_ref().is_some_and(|f| f.dead[p.gpu.0]),
            None => true,
        };
        let calm = {
            let a = self.adapt.as_ref().unwrap();
            skew <= a.config.balance_target
                && !disturbed
                && !gpu_dead
                && self.cur_epoch + 1 < self.epochs.len()
        };
        let ready = {
            let a = self.adapt.as_mut().unwrap();
            if !calm {
                a.calm_barriers = 0;
                return;
            }
            a.calm_barriers += 1;
            a.calm_barriers >= a.config.reinstate_after
        };
        if !ready {
            return;
        }
        let plan = plan.expect("calm implies a live plan");
        if plan.problem.items == 0 {
            return;
        }
        // Observed whole-device rates of the closing epoch (same model as
        // `repartition`). DP-Perf may have starved a side entirely this
        // epoch; fall back to the run's cumulative observations so a
        // one-sided dynamic placement can still be un-escalated.
        let (obs_cpu, obs_gpu) = {
            let a = self.adapt.as_ref().unwrap();
            let rate = |dev: DeviceId| -> Option<f64> {
                let slots = self.platform.device(dev).spec.kind.slots() as f64;
                let busy = a.epoch_busy[dev.0].as_secs_f64();
                let items = a.epoch_items[dev.0] as f64;
                if busy > 0.0 && items > 0.0 {
                    return Some(items * slots / busy);
                }
                let (mut items, mut secs) = (0.0f64, 0.0f64);
                for ((_, d), o) in a.obs.iter() {
                    if *d == dev {
                        items += o.items;
                        secs += o.secs;
                    }
                }
                (secs > 0.0 && items > 0.0).then_some(items * slots / secs)
            };
            (rate(DeviceId(0)), rate(plan.gpu))
        };
        // A device with no observations at all would make the static
        // plan blind: keep the dynamic scheduler and keep waiting.
        let (Some(obs_cpu), Some(obs_gpu)) = (obs_cpu, obs_gpu) else {
            return;
        };
        let corrected =
            glinda::resolve_with_observations(&plan.problem, &plan.solution, obs_cpu, obs_gpu);
        let cpu_slots = self.platform.device(DeviceId(0)).spec.kind.slots();
        let gpu_slots = self.platform.device(plan.gpu).spec.kind.slots();
        let lpt = |times: &[f64], slots: usize| -> f64 {
            let mut load = vec![0.0f64; slots.max(1)];
            for &t in times {
                let m = load
                    .iter_mut()
                    .min_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
                    .unwrap();
                *m += t;
            }
            load.into_iter().fold(0.0, f64::max)
        };
        let t_cpu = |items: u64| items as f64 * cpu_slots as f64 / obs_cpu;
        let t_gpu = |items: u64| items as f64 * gpu_slots as f64 / obs_gpu;
        let dynamic_wall = {
            let a = self.adapt.as_ref().unwrap();
            now.saturating_sub(a.last_barrier_at).as_secs_f64()
        };
        let epochs = &self.epochs;
        let tasks = &self.tasks;
        let a = self.adapt.as_mut().unwrap();
        let mut guard_checked = false;
        let mut moves: Vec<(TaskId, DeviceId)> = Vec::new();
        for epoch in epochs.iter().skip(self.cur_epoch + 1) {
            let mut chunks: Vec<(TaskId, u64, DeviceId)> = Vec::new();
            for &t in epoch {
                let Some(cur) = a.override_of[t.0].or(tasks[t.0].pinned) else {
                    continue;
                };
                chunks.push((t, tasks[t.0].items, cur));
            }
            if chunks.is_empty() {
                continue;
            }
            let mut order: Vec<usize> = (0..chunks.len()).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(chunks[i].1), chunks[i].0));
            let mut best_j = 0usize;
            let mut best_wall = f64::INFINITY;
            for j in 0..=order.len() {
                let gpu_times: Vec<f64> = order[..j].iter().map(|&i| t_gpu(chunks[i].1)).collect();
                let cpu_times: Vec<f64> = order[j..].iter().map(|&i| t_cpu(chunks[i].1)).collect();
                let wall = lpt(&gpu_times, gpu_slots).max(lpt(&cpu_times, cpu_slots));
                let better = match wall.partial_cmp(&best_wall) {
                    Some(std::cmp::Ordering::Less) => true,
                    Some(std::cmp::Ordering::Equal) => a.rng.next_f64() < 0.5,
                    _ => false,
                };
                if better {
                    best_wall = wall;
                    best_j = j;
                }
            }
            if !guard_checked {
                guard_checked = true;
                // No-regression guard, against the *measured* dynamic
                // wall of the epoch that just closed.
                if best_wall > dynamic_wall {
                    a.calm_barriers = 0;
                    return;
                }
            }
            let mut assign_gpu = vec![false; chunks.len()];
            for &i in &order[..best_j] {
                assign_gpu[i] = true;
            }
            for (i, &(t, _, cur)) in chunks.iter().enumerate() {
                let dest = if assign_gpu[i] { plan.gpu } else { DeviceId(0) };
                if dest != cur {
                    moves.push((t, dest));
                }
            }
        }
        for &(t, dest) in &moves {
            a.override_of[t.0] = Some(dest);
        }
        if let Some(p) = a.plan.as_mut() {
            // The reinstated split becomes the next re-solve's warm start.
            p.solution = corrected;
        }
        a.escalated = None;
        a.calm_barriers = 0;
        a.consecutive_imbalanced = 0;
        a.resolves_since_balance = 0;
        a.report.reinstated = true;
        a.report.reinstated_at_epoch = Some(self.cur_epoch);
        route_event(
            &mut *self.obs,
            &TraceEvent::StrategyReinstated {
                epoch: self.cur_epoch,
                at: now,
            },
        );
    }

    fn on_epoch_flushed(&mut self) {
        // The flush event is the journal's commit point: it fires only
        // after SDC verification passed (a rollback re-runs the epoch
        // *before* the flush starts), so records are final and epoch
        // indices strictly increase.
        if self.journal.is_some() {
            if let Err(e) = self.journal_commit() {
                self.journal_err = Some(e);
                return;
            }
        }
        self.cur_epoch += 1;
        if self.cur_epoch < self.epochs.len() {
            self.activate_epoch();
        }
    }

    /// Build and commit this epoch's [`EpochRecord`]. On a resumed run the
    /// sink byte-compares the record against the journal's stored line
    /// instead of appending — the validated-redo-replay check that makes
    /// the saved RNG cursors and counters load-bearing.
    fn journal_commit(&mut self) -> Result<(), JournalError> {
        let epoch = self.cur_epoch;
        let placements: Vec<(usize, usize)> = self.epochs[epoch]
            .iter()
            .map(|t| {
                let dev = self.placements[t.0].expect("flushed epoch tasks are placed");
                (t.0, dev.0)
            })
            .collect();
        let record = EpochRecord {
            epoch,
            at: self.now,
            completed: self.completed.iter().filter(|&&c| c).count() as u64,
            placements,
            rng: RngCursors {
                fault: self.faults.as_ref().map(|f| f.rng.cursor()),
                correlated: self
                    .faults
                    .as_ref()
                    .and_then(|f| f.corr_rng.as_ref())
                    .map(FaultRng::cursor),
                health: self.health.as_ref().map(|h| h.rng.cursor()),
                adapt: self.adapt.as_ref().map(|a| a.rng.cursor()),
                replan: self.replan.as_ref().map(|r| r.rng.cursor()),
            },
            faults: self
                .faults
                .as_ref()
                .map(|f| f.counters.clone())
                .unwrap_or_default(),
            blame: self.blame.clone(),
            counters: self.counters.clone(),
        };
        let journal = self
            .journal
            .as_mut()
            .expect("journal_commit runs only with a sink");
        journal.append_epoch(&record)?;
        Ok(())
    }

    /// [`transfer_cost`] priced on the links *as they stand at `at`*: each
    /// host↔accelerator hop is scaled by the accelerator's open
    /// [`FaultEvent::LinkDegrade`] windows (`FaultSchedule::link_factors`).
    /// With no degradation anywhere in the schedule this takes the nominal
    /// path and is bit-identical to [`transfer_cost`].
    fn degraded_transfer_cost(
        &self,
        from: MemSpaceId,
        to: MemSpaceId,
        bytes: u64,
        at: SimTime,
    ) -> SimTime {
        let Some(f) = self
            .faults
            .as_ref()
            .filter(|f| f.schedule.has_link_degrade())
        else {
            return transfer_cost(self.platform, from, to, bytes);
        };
        if from == to {
            return SimTime::ZERO;
        }
        let hop = |a: MemSpaceId, b: MemSpaceId, at: SimTime| -> SimTime {
            let accel = if a.is_host() { b } else { a };
            let (bw, lat) =
                self.space_dev[accel.0].map_or((1.0, 1.0), |dev| f.schedule.link_factors(dev, at));
            let l = self
                .platform
                .link(a, b)
                .expect("distinct memory spaces are linked");
            l.transfer_time_scaled(bytes, bw, lat)
        };
        // Device-to-device moves route through the host (two hops); the
        // second hop is priced at the time the first one lands.
        if !from.is_host() && !to.is_host() {
            let first = hop(from, MemSpaceId::HOST, at);
            return first + hop(MemSpaceId::HOST, to, at + first);
        }
        hop(from, to, at)
    }

    /// Flush device data home at a taskwait / end of program.
    ///
    /// Each device's write-back begins when *that device* finished its last
    /// task of the epoch — the runtime drains a device's dirty data
    /// asynchronously while other devices are still computing — and the
    /// links drain in parallel. The barrier completes when every write-back
    /// has landed.
    fn start_flush(&mut self) {
        let transfers = self.coherence.flush_and_invalidate();
        // Serialise per source space; spaces drain in parallel. Each
        // device's write-back starts when that device finished its last
        // task of the epoch.
        let mut cursors: std::collections::BTreeMap<usize, SimTime> =
            std::collections::BTreeMap::new();
        let mut flush_start = self.now;
        let mut flush_end = self.now;
        for tr in transfers {
            let start_at = self
                .platform
                .devices
                .iter()
                .filter(|d| d.mem_space == tr.from)
                .map(|d| self.dev_last_done[d.id.0])
                .max()
                .unwrap_or(self.now);
            let t0 = *cursors.entry(tr.from.0).or_insert(start_at);
            // Checkpoint write-backs ride the same wire as reads: an open
            // LinkDegrade window stretches the flush.
            let dt = self.degraded_transfer_cost(tr.from, tr.to, tr.bytes, t0);
            self.counters.record_transfer(tr.bytes, dt);
            let cursor = cursors.get_mut(&tr.from.0).expect("cursor just inserted");
            *cursor = t0 + dt;
            flush_start = flush_start.min(t0);
            flush_end = flush_end.max(*cursor);
            route_event(
                &mut *self.obs,
                &TraceEvent::Transfer {
                    from: tr.from,
                    to: tr.to,
                    bytes: tr.bytes,
                    start: t0,
                    end: t0 + dt,
                },
            );
        }
        route_event(
            &mut *self.obs,
            &TraceEvent::Flush {
                epoch: self.flushes_done,
                start: flush_start.min(self.now),
                end: flush_end,
            },
        );
        self.flushes_done += 1;
        self.queue.push(flush_end, Ev::EpochFlushed);
    }
}

fn transfer_cost(platform: &Platform, from: MemSpaceId, to: MemSpaceId, bytes: u64) -> SimTime {
    if from == to {
        return SimTime::ZERO;
    }
    // Device-to-device moves route through the host: two link hops.
    if !from.is_host() && !to.is_host() {
        return platform.transfer_time(from, MemSpaceId::HOST, bytes)
            + platform.transfer_time(MemSpaceId::HOST, to, bytes);
    }
    platform.transfer_time(from, to, bytes)
}

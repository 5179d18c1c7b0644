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

mod adapt;
mod fault;
mod health;
mod repair;

use crate::adapt::{AdaptConfig, AdaptPlan, ReplanConfig};
use crate::coherence::CoherenceDir;
use crate::graph::TaskGraph;
use crate::health::{BreakerState, HealthConfig};
use crate::journal::{EpochRecord, JournalError, JournalSink, RngCursors};
use crate::obs::{DeviceBreakdown, NullObserver, Observer, TimeBreakdown};
use crate::program::{Program, TaskDesc, TaskId};
use crate::scheduler::{BindCtx, PerfScheduler, Scheduler};
use crate::spec::{RunMode, RunSpec};
use crate::stats::{KernelStats, RunReport};
use crate::trace::TraceEvent;
use adapt::AdaptCtx;
use fault::FaultCtx;
use health::HealthCtx;
use hetero_platform::{
    DeviceId, EventQueue, FaultRng, FaultSchedule, MemSpaceId, Platform, PlatformCounters,
    RetryPolicy, SimTime,
};
use repair::ReplanCtx;
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

#[derive(Clone, Copy)]
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

/// [`execute`] unobserved and unjournaled.
fn execute_quiet(
    program: &Program,
    platform: &Platform,
    scheduler: &mut dyn Scheduler,
    spec: &RunSpec,
) -> Result<RunReport, JournalError> {
    execute(
        program,
        platform,
        scheduler,
        spec,
        None,
        &mut NullObserver,
        None,
    )
}

/// Simulate `program` on `platform` under `scheduler`: [`execute`] with
/// [`RunSpec::plain`], unobserved and unjournaled.
pub fn simulate(
    program: &Program,
    platform: &Platform,
    scheduler: &mut dyn Scheduler,
) -> RunReport {
    execute_quiet(program, platform, scheduler, &RunSpec::plain())
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
    execute_quiet(program, platform, scheduler, &spec).unwrap_or_else(|e| panic!("{e}"))
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
        execute_quiet(program, platform, &mut warm, &spec.warmup())?;
        Ok(PerfScheduler::seeded(platform, warm.rates().clone()))
    }
}

/// The ledger entry of one task's current dispatch: its slot occupancy
/// split into blame components, booked by [`Sim::book`] and taken back by
/// [`Sim::unbook`]. The components sum to the slot time the dispatch held
/// ([`TaskCost::busy`]); `exec` is zero for a dispatch that exhausted its
/// retries and produced nothing.
#[derive(Clone, Copy, Default)]
struct TaskCost {
    sched: SimTime,
    adapt: SimTime,
    transfer: SimTime,
    exec: SimTime,
    /// Failed attempts, backoff and transfer retries: booked to
    /// `fault_loss` (and `time_lost`) at dispatch, so a reversal charges
    /// only the rest of the discarded span.
    fault: SimTime,
    /// Extra wire time a successful transfer paid on a degraded link over
    /// its nominal cost (reversed with `transfer` on reversal).
    link: SimTime,
    /// Binding overhead charged because a survivor re-plan re-pinned this
    /// chunk (the plan-repair analogue of `sched`/`adapt`).
    replan: SimTime,
    /// The dispatch produced a result, so it counts as one of its device's
    /// tasks (false while an aborting dispatch only held its slot).
    produced: bool,
}

impl TaskCost {
    /// The slot time the dispatch held.
    fn busy(&self) -> SimTime {
        self.sched + self.adapt + self.transfer + self.exec + self.fault + self.link + self.replan
    }
}

/// The blame category a reversed dispatch's discarded slot span goes to.
#[derive(Clone, Copy)]
enum Discard {
    /// A dropout killed or reset the dispatch (also `time_lost`).
    FaultLoss,
    /// A winning hedge cancelled the straggling primary (also
    /// `time_hedged`).
    HedgeWaste,
    /// Duplicate-check verification rolled the epoch back.
    Rollback,
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
    /// Per task: the ledger entry of its current dispatch.
    cost_of: Vec<TaskCost>,
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
        let ndev = platform.devices.len();
        let schedule = spec.schedule.as_ref().filter(|_| mode >= RunMode::Faulty);
        let faults = schedule.map(|schedule| FaultCtx::new(schedule, spec.policy, n, ndev));
        let seed = schedule.map_or(0, |s| s.seed);
        let health = (mode >= RunMode::Resilient)
            .then_some(spec.health)
            .filter(HealthConfig::enabled)
            .map(|config| HealthCtx::new(config, seed, n, ndev));
        let adapt = (mode >= RunMode::Adaptive)
            .then_some(spec.adapt)
            .filter(AdaptConfig::enabled)
            .map(|config| AdaptCtx::new(config, plan, seed, n, ndev));
        let replan = (mode == RunMode::Repairing)
            .then_some(spec.replan)
            .filter(ReplanConfig::enabled)
            .map(|config| ReplanCtx::new(config, seed, n, ndev));
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
            counters: PlatformCounters::new(ndev),
            per_kernel,
            completed: vec![false; n],
            placements: vec![None; n],
            dev_queues: platform.devices.iter().map(|_| VecDeque::new()).collect(),
            free_slots: platform
                .devices
                .iter()
                .map(|d| d.spec.kind.slots())
                .collect(),
            dev_last_done: vec![SimTime::ZERO; ndev],
            cur_epoch: 0,
            epoch_remaining: 0,
            flushes_done: 0,
            obs,
            blame: vec![DeviceBreakdown::default(); ndev],
            cost_of: vec![TaskCost::default(); n],
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
            // Completions, watchdogs and hedges of a dispatch a dropout or
            // a winning hedge has since invalidated are stale; dropouts and
            // probes after the program finished are non-events, so the
            // makespan stays untouched.
            let skip = match ev {
                Ev::TaskDone { task, gen, .. }
                | Ev::TaskAborted { task, gen, .. }
                | Ev::WatchdogFire { task, gen, .. }
                | Ev::HedgeDone { task, gen, .. } => self.stale(task, gen),
                Ev::DeviceDropout { .. } | Ev::CircuitProbe { .. } => {
                    self.cur_epoch >= self.epochs.len()
                }
                Ev::EpochFlushed => false,
            };
            if skip {
                continue;
            }
            self.now = t;
            match ev {
                Ev::TaskDone { task, dev, .. } => self.on_task_done(task, dev),
                Ev::TaskAborted { task, dev, .. } => self.on_task_aborted(task, dev),
                Ev::EpochFlushed => self.on_epoch_flushed(),
                Ev::DeviceDropout { dev } => self.on_device_dropout(dev),
                Ev::WatchdogFire { task, started, .. } => self.on_watchdog_fire(task, started),
                Ev::HedgeDone { task, dev, .. } => self.on_hedge_done(task, dev),
                Ev::CircuitProbe { dev } => self.on_circuit_probe(dev),
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
        for span in health.quarantine.iter_mut().filter(|q| q.until.is_none()) {
            span.until = Some(self.now);
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
            b.dead = (self.faults.as_ref())
                .and_then(|f| f.dead_at[i])
                .map(|at| makespan.saturating_sub(at) * b.slots)
                .unwrap_or(SimTime::ZERO);
            b.idle = cap.saturating_sub(b.active() + b.dead);
        }
        let (synthesized_faults, faults) = self
            .faults
            .map(|f| (f.synth, f.counters))
            .unwrap_or_default();
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
            synthesized_faults,
            faults,
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
        self.obs.on_run_end(&report);
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
        self.reset_skew_window();
        let tasks: Vec<TaskId> = self.epochs[self.cur_epoch].clone();
        self.epoch_remaining = tasks.len();
        if tasks.is_empty() {
            // An empty epoch is just a flush point.
            self.start_flush();
            return;
        }
        self.ready_and_dispatch(tasks);
    }

    /// Bind those of `tasks` whose dependences are satisfied, in order,
    /// then fill every device's free slots.
    fn ready_and_dispatch(&mut self, tasks: impl IntoIterator<Item = TaskId>) {
        for t in tasks {
            if self.remaining_preds[t.0] == 0 {
                self.make_ready(t);
            }
        }
        self.dispatch_all();
    }

    /// Re-arm the dependences `producers` had satisfied: every consumer
    /// regains an unsatisfied dependence — the producer's re-completion
    /// will decrement it again — but only consumers that have not run yet
    /// go back to unready. A consumer that already started read the data
    /// while it was still valid, so its result stands (the placement guard
    /// in [`Sim::release_and_advance`] keeps it from being re-bound when
    /// the count returns to zero).
    fn rearm_consumers(&mut self, producers: &[TaskId]) {
        for &t in producers {
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
                (platform.link(from, to))
                    .map_or(SimTime::ZERO, |l| l.transfer_time_scaled(bytes, bw, lat))
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
        if self.faults.is_some() {
            dev = self.redirect_unavailable(t, dev);
        }
        self.placements[t.0] = Some(dev);
        self.dev_queues[dev.0].push_back(t);
        let depth = self.dev_queues[dev.0].len();
        self.obs.on_task_bound(t, dev, self.now, depth);
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
        if self.is_dead(dev) {
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
            if aborted {
                self.queue
                    .push(self.now + busy, Ev::TaskAborted { task: t, dev, gen });
            } else {
                self.queue
                    .push(self.now + busy, Ev::TaskDone { task: t, dev, gen });
                self.arm_watchdog(t, busy, nominal, gen);
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
        let mut nominal = SimTime::ZERO;
        let mut cost = TaskCost::default();

        // Dynamic policies pay the per-decision overhead, and so do tasks
        // bound by the escalated DP-Perf scheduler (even though the run
        // started static) and chunks a survivor re-plan re-pinned. Overhead
        // paid *because* the run escalated is adaptation blame, because of
        // a re-plan replan blame; ordinary dynamic-policy overhead is
        // scheduling blame.
        let by_escalated = self
            .adapt
            .as_ref()
            .is_some_and(|a| a.bound_by_escalated[t.0]);
        let dynamic_bound = self.scheduler.is_dynamic() || by_escalated;
        let by_replan = !dynamic_bound
            && self
                .replan
                .as_ref()
                .is_some_and(|r| r.override_of[t.0].is_some());
        if dynamic_bound || by_replan {
            let overhead = self.platform.sched_overhead;
            nominal += overhead;
            self.counters.record_sched(overhead);
            if by_escalated {
                cost.adapt += overhead;
            } else if by_replan {
                cost.replan += overhead;
            } else {
                cost.sched += overhead;
            }
        }

        for acc in task.accesses.iter().filter(|acc| acc.mode.reads()) {
            for tr in self
                .coherence
                .acquire_for_read(acc.region.buffer, acc.region.span, space)
            {
                // Degraded cost prices the wire as it stands when the
                // transfer is issued; the nominal cost keeps the watchdog
                // baseline degradation-free.
                let ddt =
                    self.degraded_transfer_cost(tr.from, tr.to, tr.bytes, self.now + cost.busy());
                let ndt = transfer_cost(self.platform, tr.from, tr.to, tr.bytes);
                cost.fault += self.retry_transfer(&tr, ddt, self.now + cost.busy());
                let start = self.now + cost.busy();
                self.obs.on_event(&TraceEvent::Transfer {
                    from: tr.from,
                    to: tr.to,
                    bytes: tr.bytes,
                    start,
                    end: start + ddt,
                });
                nominal += ndt;
                // The slowdown beyond the nominal wire is link blame; the
                // nominal part stays transfer blame. `extra` is zero
                // whenever the link is at (or above) spec.
                let extra = ddt.saturating_sub(ndt);
                cost.transfer += ddt - extra;
                cost.link += extra;
                self.counters.record_transfer(tr.bytes, ddt);
            }
        }

        let profile = &self.program.kernels[task.kernel.0].profile;
        let base_exec = device.exec_time_weighted(profile, task.items, task.cost_scale);
        nominal += base_exec;
        let (exec, lost, aborted) = self.sample_attempts(t, dev, base_exec, self.now + cost.busy());
        cost.fault += lost;

        if aborted {
            // Nothing was produced: no writes land, no work is recorded —
            // the slot was simply held for the wasted attempts. The trace
            // still needs the occupancy (span trees tile capacity against
            // the blame books), so the span goes out as a held slot
            // rather than a task.
            self.book(t, dev, cost);
            self.obs.on_event(&TraceEvent::SlotHeld {
                task: t,
                kernel: task.kernel,
                dev,
                start: self.now,
                end: self.now + cost.busy(),
            });
            return (cost.busy(), nominal, true);
        }

        for acc in &task.accesses {
            if acc.mode.writes() {
                self.coherence
                    .record_write(acc.region.buffer, acc.region.span, space);
            }
        }

        cost.exec = exec;
        cost.produced = true;
        self.book(t, dev, cost);
        let busy = cost.busy();
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
        self.obs.on_event(&TraceEvent::Task {
            task: t,
            kernel: task.kernel,
            dev,
            items: task.items,
            start: self.now,
            end: self.now + busy,
        });
        (busy, nominal, false)
    }

    /// Book a dispatch of `t` on `dev` in every ledger: `t`'s ledger entry,
    /// `dev`'s slot time and blame components, and — when the dispatch
    /// produced a result — `dev`'s task and item counts and the kernel's
    /// per-device stats. The one place a dispatch is committed.
    fn book(&mut self, t: TaskId, dev: DeviceId, cost: TaskCost) {
        self.cost_of[t.0] = cost;
        let b = &mut self.blame[dev.0];
        b.scheduling += cost.sched;
        b.adaptation += cost.adapt;
        b.transfer += cost.transfer;
        b.link_degraded += cost.link;
        b.fault_loss += cost.fault;
        b.compute += cost.exec;
        b.replan += cost.replan;
        if !cost.produced {
            self.counters.devices[dev.0].busy += cost.busy();
            return;
        }
        let task = self.tasks[t.0];
        self.counters.record_task(dev, task.items, cost.busy());
        let ks = &mut self.per_kernel[task.kernel.0];
        ks.items_per_device[dev.0] += task.items;
        ks.tasks_per_device[dev.0] += 1;
    }

    /// Take `t`'s current dispatch on `dev` back out of every ledger
    /// [`Sim::book`] charged, and charge the `span` of slot time it really
    /// burned to the blame category `into` and, whatever the category, to
    /// the device's `busy`. The fault loss booked at dispatch keeps its
    /// category, so `into` gets `span` net of it. For
    /// [`Discard::FaultLoss`] the net may be negative: booked attempts
    /// that sit after a dropout were never burned (the dead tail covers
    /// them) and come back out of `fault_loss` and `time_lost`.
    fn unbook(&mut self, t: TaskId, dev: DeviceId, span: SimTime, into: Discard) {
        let cost = self.cost_of[t.0];
        let task = self.tasks[t.0];
        let c = &mut self.counters.devices[dev.0];
        c.busy = c.busy.saturating_sub(cost.busy()) + span;
        if cost.produced {
            c.tasks -= 1;
            c.items -= task.items;
            let ks = &mut self.per_kernel[task.kernel.0];
            ks.items_per_device[dev.0] -= task.items;
            ks.tasks_per_device[dev.0] -= 1;
        }
        let b = &mut self.blame[dev.0];
        b.scheduling = b.scheduling.saturating_sub(cost.sched);
        b.adaptation = b.adaptation.saturating_sub(cost.adapt);
        b.transfer = b.transfer.saturating_sub(cost.transfer);
        b.link_degraded = b.link_degraded.saturating_sub(cost.link);
        b.compute = b.compute.saturating_sub(cost.exec);
        b.replan = b.replan.saturating_sub(cost.replan);
        let net = span.saturating_sub(cost.fault);
        match into {
            Discard::FaultLoss => {
                let back = cost.fault.saturating_sub(span);
                b.fault_loss = (b.fault_loss + net).saturating_sub(back);
                if let Some(f) = &mut self.faults {
                    let tl = &mut f.counters.time_lost;
                    *tl = (*tl + net).saturating_sub(back);
                }
            }
            Discard::HedgeWaste => {
                // The primary held its slot until the peer won.
                b.hedge_waste += net;
                if let Some(h) = &mut self.health {
                    h.report.time_hedged += net;
                }
            }
            Discard::Rollback => b.rollback += net,
        }
    }

    fn on_task_done(&mut self, t: TaskId, dev: DeviceId) {
        self.completed[t.0] = true;
        self.free_slot(dev);
        let task = self.tasks[t.0];
        let suppress = if let Some(f) = &mut self.faults {
            f.in_flight[t.0] = false;
            f.suppress_complete[t.0]
        } else {
            false
        };
        if !suppress {
            // Escalated bindings report to the internal DP-Perf scheduler
            // whose books they live in (to none once the static plan is
            // reinstated), not the original (static) policy.
            let escalated = self
                .adapt
                .as_mut()
                .filter(|a| a.bound_by_escalated[t.0])
                .map(|a| a.escalated.as_mut());
            let scheduler: Option<&mut dyn Scheduler> = match escalated {
                Some(esc) => esc.map(|s| s as &mut dyn Scheduler),
                None => Some(&mut *self.scheduler),
            };
            if let Some(s) = scheduler {
                let cost = self.cost_of[t.0];
                let (busy, now) = (cost.busy(), self.now);
                s.on_complete(t, task.kernel, dev, task.items, busy, cost.exec, now);
            }
        }

        // A loser hedge is cancelled the moment its primary finishes: the
        // peer slot it burned is charged and freed.
        if let Some(hd) = self.cancel_hedge(t) {
            self.free_slot(hd.peer);
        }
        if let Some(h) = &self.health {
            let bad = h.straggled[t.0] || self.cost_of[t.0].fault > SimTime::ZERO;
            self.observe(dev, !bad, Some(t));
        }

        self.release_and_advance(t);
    }

    /// A slot on `dev` frees up now.
    fn free_slot(&mut self, dev: DeviceId) {
        self.free_slots[dev.0] += 1;
        self.dev_last_done[dev.0] = self.dev_last_done[dev.0].max(self.now);
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
    /// `dev` permanently dropped out.
    fn is_dead(&self, dev: DeviceId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.dead_at[dev.0].is_some())
    }

    /// Devices no new binding may target: dead, or with an open/half-open
    /// circuit (half-open devices keep their existing bindings as probe
    /// candidates but are not fallback targets).
    fn unavailable(&self) -> Vec<bool> {
        let mut v: Vec<bool> = match &self.faults {
            Some(f) => f.dead_at.iter().map(Option::is_some).collect(),
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

    /// Drain queued (unstarted) work and re-bind it through
    /// [`Sim::make_ready`], so redirects and fresh overrides take effect
    /// immediately: `dev`'s queue in FIFO order (a quarantined device's
    /// work, redirected to survivors as failovers), or with `None` every
    /// queue in TaskId order (after a plan repair). In-flight work is
    /// untouched.
    fn rebind_queued(&mut self, dev: Option<DeviceId>) {
        let requeue: Vec<TaskId> = match dev {
            Some(dev) => self.dev_queues[dev.0].drain(..).collect(),
            None => {
                let mut all: Vec<TaskId> = self
                    .dev_queues
                    .iter_mut()
                    .flat_map(|q| q.drain(..))
                    .collect();
                all.sort_unstable();
                all
            }
        };
        for &t in &requeue {
            self.placements[t.0] = None;
        }
        for t in requeue {
            self.make_ready(t);
        }
    }

    /// All tasks of the open epoch completed: verify it (a detected
    /// corruption re-runs it instead), let the adaptive controller observe
    /// it and correct the remaining epochs, then flush to commit.
    fn on_epoch_barrier(&mut self) {
        if self.verify_at_barrier() {
            return;
        }
        self.adapt_at_barrier();
        self.start_flush();
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
        let mut cursors: BTreeMap<usize, SimTime> = BTreeMap::new();
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
            self.obs.on_event(&TraceEvent::Transfer {
                from: tr.from,
                to: tr.to,
                bytes: tr.bytes,
                start: t0,
                end: t0 + dt,
            });
        }
        self.obs.on_event(&TraceEvent::Flush {
            epoch: self.flushes_done,
            start: flush_start.min(self.now),
            end: flush_end,
        });
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

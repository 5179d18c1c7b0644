//! The adaptation layer (`RunMode::Adaptive` and up): the barrier
//! controller's skew detection, two-way and N-way repartitioning,
//! escalation to DP-Perf and reinstatement of the static plan.

use super::{transfer_cost, Sim, ADAPT_STREAM};
use crate::adapt::{AdaptConfig, AdaptPlan, AdaptReport, KernelAdaptPlan};
use crate::program::{KernelId, TaskDesc, TaskId};
use crate::scheduler::{PerfScheduler, RateObservation};
use crate::trace::TraceEvent;
use glinda::PartitionSolution;
use hetero_platform::{DeviceId, FaultRng, Platform, SimTime};
use std::collections::BTreeMap;

/// Mutable adaptation state, present only when an [`AdaptConfig`] with at
/// least one mitigation enabled was supplied.
pub(super) struct AdaptCtx {
    pub(super) config: AdaptConfig,
    /// The static partitioning decision behind the program, re-solved on
    /// imbalance (`solution` tracks the currently applied split). `None`
    /// disables repartitioning but still allows escalation.
    pub(super) plan: Option<AdaptPlan>,
    /// Tie-break stream, independent of the fault and health streams.
    pub(super) rng: FaultRng,
    pub(super) report: AdaptReport,
    /// Per device: busy time committed in the open epoch's window.
    pub(super) epoch_busy: Vec<SimTime>,
    /// Per device: items committed in the open epoch's window.
    pub(super) epoch_items: Vec<u64>,
    /// Cumulative (kernel, device) throughput observations; seeds the
    /// escalated DP-Perf scheduler.
    pub(super) obs: BTreeMap<(KernelId, DeviceId), RateObservation>,
    /// Consecutive barriers whose skew exceeded the threshold.
    consecutive_imbalanced: u32,
    /// Re-solves since the run last met the balance target.
    resolves_since_balance: u32,
    /// Per task: repartition override re-pinning a not-yet-placed chunk.
    pub(super) override_of: Vec<Option<DeviceId>>,
    /// The internal DP-Perf scheduler, once the static plan is abandoned.
    pub(super) escalated: Option<PerfScheduler>,
    /// Per task: bound by the escalated scheduler (pays the dynamic
    /// per-decision scheduling overhead, routes `on_complete` internally).
    pub(super) bound_by_escalated: Vec<bool>,
    /// Consecutive escalated barriers that were balanced *and* free of any
    /// open disturbance window; reaching `reinstate_after` attempts a
    /// de-escalation back to the (re-solved) static plan.
    calm_barriers: u32,
    /// When the previous taskwait barrier was reached — the closing
    /// epoch's wall clock, the de-escalation guard's dynamic baseline.
    last_barrier_at: SimTime,
}

impl AdaptCtx {
    pub(super) fn new(
        config: AdaptConfig,
        plan: Option<AdaptPlan>,
        seed: u64,
        n: usize,
        ndev: usize,
    ) -> Self {
        AdaptCtx {
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
        }
    }

    /// `dev`'s observed rate over the closing epoch.
    fn epoch_rate(&self, platform: &Platform, dev: DeviceId) -> Option<f64> {
        let secs = self.epoch_busy[dev.0].as_secs_f64();
        observed_rate(platform, dev, self.epoch_items[dev.0] as f64, secs)
    }

    /// `dev`'s observed rate over the run so far, all kernels summed.
    pub(super) fn cumulative_rate(&self, platform: &Platform, dev: DeviceId) -> Option<f64> {
        let (mut items, mut secs) = (0.0f64, 0.0f64);
        for (_, o) in self.obs.iter().filter(|((_, d), _)| *d == dev) {
            items += o.items;
            secs += o.secs;
        }
        observed_rate(platform, dev, items, secs)
    }

    /// One kernel's observed rate on `dev` over the run so far.
    fn kernel_rate(&self, platform: &Platform, kernel: KernelId, dev: DeviceId) -> Option<f64> {
        let o = self.obs.get(&(kernel, dev))?;
        observed_rate(platform, dev, o.items, o.secs)
    }
}

/// Observed whole-device throughput: `items` committed in `secs` of
/// slot-busy time, spread over `dev`'s slots (items per second of wall
/// time, transfers and overheads folded in). `None` until both are
/// positive.
pub(super) fn observed_rate(
    platform: &Platform,
    dev: DeviceId,
    items: f64,
    secs: f64,
) -> Option<f64> {
    let slots = platform.device(dev).spec.kind.slots() as f64;
    (secs > 0.0 && items > 0.0).then(|| items * slots / secs)
}

/// The slot-quantised LPT "wave" model of one device's predicted
/// schedule. Each chunk lands on the least-loaded slot (the executor's
/// least-loaded dispatch, fed longest first), so equal-size chunks run in
/// waves: 24 and 17 chunks on 12 threads are both two waves, which an
/// item-count target cannot see.
pub(super) struct Waves(Vec<f64>);

impl Waves {
    pub(super) fn new(slots: usize) -> Self {
        Waves(vec![0.0; slots.max(1)])
    }

    /// The wall of `times` dispatched in order over `slots`.
    fn wall_of(times: impl IntoIterator<Item = f64>, slots: usize) -> f64 {
        let mut waves = Waves::new(slots);
        for t in times {
            waves.push(t);
        }
        waves.wall()
    }

    pub(super) fn push(&mut self, t: f64) {
        let slot = self
            .0
            .iter_mut()
            .min_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
            .unwrap();
        *slot += t;
    }

    /// When the first slot frees up.
    pub(super) fn earliest_free(&self) -> f64 {
        self.0.iter().fold(f64::INFINITY, |m, &v| m.min(v))
    }

    /// When the last slot finishes.
    pub(super) fn wall(&self) -> f64 {
        self.0.iter().fold(0.0, |m, &v| m.max(v))
    }
}

/// Whether candidate `x` replaces the best `best` so far: strictly
/// smaller, or an exact tie won on one coin from `rng`.
pub(super) fn beats(x: f64, best: f64, rng: &mut FaultRng) -> bool {
    match x.partial_cmp(&best) {
        Some(std::cmp::Ordering::Less) => true,
        Some(std::cmp::Ordering::Equal) => rng.next_f64() < 0.5,
        _ => false,
    }
}

/// An epoch's statically placed chunks as `(task, items, current home)`:
/// the controller's override, else the plan's pin. Dynamically bound
/// tasks are skipped.
fn pinned_chunks(
    epoch: &[TaskId],
    override_of: &[Option<DeviceId>],
    tasks: &[&TaskDesc],
) -> Vec<(TaskId, u64, DeviceId)> {
    epoch
        .iter()
        .filter_map(|&t| Some((t, tasks[t.0].items, override_of[t.0].or(tasks[t.0].pinned)?)))
        .collect()
}

/// The two-way prefix sweep behind every barrier re-pin (repartitioning
/// and reinstatement). A corrected split always offloads a contiguous
/// "biggest chunks" share, so the chunks are sorted longest first (ties by
/// `TaskId`); for each prefix split `j` the GPU side takes the first `j`
/// and the host the rest, each side's [`Waves`] wall is priced through
/// `gpu_secs` / `cpu_secs`, and the smallest wall wins. An exact tie draws
/// one coin from `rng`. Returns that wall and the chunks whose device
/// changes, with their destination (`gpu` or the host).
fn prefix_sweep(
    chunks: &[(TaskId, u64, DeviceId)],
    platform: &Platform,
    gpu: DeviceId,
    gpu_secs: impl Fn(&(TaskId, u64, DeviceId)) -> f64,
    cpu_secs: impl Fn(&(TaskId, u64, DeviceId)) -> f64,
    rng: &mut FaultRng,
) -> (f64, Vec<(TaskId, u64, DeviceId)>) {
    let gpu_times: Vec<f64> = chunks.iter().map(gpu_secs).collect();
    let cpu_times: Vec<f64> = chunks.iter().map(cpu_secs).collect();
    let gpu_slots = platform.device(gpu).spec.kind.slots();
    let cpu_slots = platform.device(DeviceId(0)).spec.kind.slots();
    let mut order: Vec<usize> = (0..chunks.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(chunks[i].1), chunks[i].0));
    let (mut best_wall, mut best_j) = (f64::INFINITY, 0);
    for j in 0..=order.len() {
        let wall = Waves::wall_of(order[..j].iter().map(|&i| gpu_times[i]), gpu_slots).max(
            Waves::wall_of(order[j..].iter().map(|&i| cpu_times[i]), cpu_slots),
        );
        if beats(wall, best_wall, rng) {
            (best_wall, best_j) = (wall, j);
        }
    }
    let mut dest = vec![DeviceId(0); chunks.len()];
    for &i in &order[..best_j] {
        dest[i] = gpu;
    }
    let moves = chunks
        .iter()
        .zip(dest)
        .filter(|((_, _, cur), d)| d != cur)
        .map(|(&(t, items, _), d)| (t, items, d))
        .collect();
    (best_wall, moves)
}

impl<'a> Sim<'a> {
    /// The adaptive-repartitioning controller, run at each taskwait
    /// barrier once the epoch's results are verified (a rolled-back epoch
    /// is re-run, not observed). Detection compares slot-normalised
    /// per-device busy time of the closing epoch; hysteresis demands the
    /// imbalance persist before anything changes; the response is a
    /// re-solve while corrections remain and an escalation once
    /// `max_resolves` consecutive corrections have missed the balance
    /// target.
    pub(super) fn adapt_at_barrier(&mut self) {
        let Some(a) = self.adapt.as_mut() else {
            return;
        };
        // Detect: skew = (max − min) / max over busy/slots of the devices
        // that ran work this epoch. One participant (or none) is trivially
        // balanced — there is no peer to be skewed against.
        let (mut max_n, mut min_n, mut participants) = (0.0f64, f64::INFINITY, 0u32);
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
        let skew = if participants >= 2 && max_n > 0.0 {
            (max_n - min_n) / max_n
        } else {
            0.0
        };
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
            self.obs.on_event(&TraceEvent::ImbalanceDetected {
                epoch: self.cur_epoch,
                skew,
                at: self.now,
            });
        } else {
            a.consecutive_imbalanced = 0;
        }
        // De-escalation: an escalated run watches for calm barriers and
        // hands the remaining epochs back to the static plan once the
        // disturbance has passed (the reversible side of the Table I
        // SP-* → DP-Perf escalation).
        if a.escalated.is_some() && a.config.reinstate_after > 0 {
            self.try_reinstate(skew);
        }
        let a = self.adapt.as_mut().unwrap();
        a.last_barrier_at = self.now;
        // Act only while there are future epochs to correct.
        if a.consecutive_imbalanced < a.config.hysteresis
            || a.escalated.is_some()
            || self.cur_epoch + 1 >= self.epochs.len()
        {
            return;
        }
        a.consecutive_imbalanced = 0; // re-arm the hysteresis window
        if a.config.escalation && a.resolves_since_balance >= a.config.max_resolves {
            self.escalate();
        } else {
            a.resolves_since_balance += 1;
            if a.config.repartition && a.plan.is_some() {
                self.repartition();
            }
        }
    }

    /// Re-solve the plan's partition against observed whole-device
    /// throughputs ([`glinda::resolve_with_observations`], warm-started
    /// from the prior split) and re-pin the remaining epochs' chunks with
    /// [`prefix_sweep`]. Whole chunks move (region splits are baked into
    /// the plan), and the assignment minimises the [`Waves`] wall at the
    /// observed rates rather than chasing the continuous item target. A
    /// no-regression guard keeps an epoch's old placement when the model
    /// predicts no improvement.
    ///
    /// Plans differ only in where an epoch's re-solve comes from. SP-Single
    /// re-solves the plan's problem once, at the closing epoch's aggregate
    /// rates. A multi-kernel SP-Varied plan (per-kernel splits) re-solves
    /// each epoch's own kernel problem at *that kernel's* cumulative rates:
    /// the aggregate says "the GPU is slow" even when only one kernel is,
    /// and would drag the GPU-friendly epochs toward the CPU too. SP-Varied
    /// separates kernels with taskwaits; an epoch that mixes kernels has no
    /// single problem and is left alone.
    fn repartition(&mut self) {
        let plan = self.adapt.as_ref().unwrap().plan.clone();
        let plan = plan.expect("repartition requires a plan");
        // A plan carrying an N-way split re-balances over the *full* live
        // device set (the multi-accelerator adaptation path).
        if plan.per_kernel.is_none() && plan.multi.is_some() {
            self.repartition_multi();
            return;
        }
        if self.is_dead(plan.gpu) {
            return;
        }
        let (platform, program, tasks) = (self.platform, self.program, &self.tasks);
        let (cpu, gpu) = (DeviceId(0), plan.gpu);
        /// Where an epoch's re-solve comes from.
        enum Source {
            /// SP-Single: the plan's problem, re-solved once at the closing
            /// epoch's aggregate rates (CPU, GPU).
            Plan(f64, f64, PartitionSolution),
            /// SP-Varied: the epoch's own kernel problem at that kernel's
            /// cumulative rates, each applied split written back.
            Kernels(Vec<KernelAdaptPlan>),
        }
        let a = self.adapt.as_mut().unwrap();
        let mut source = match plan.per_kernel {
            Some(kernels) => Source::Kernels(kernels),
            None => {
                // One side idle this epoch: nothing observed to correct with.
                let (Some(obs_cpu), Some(obs_gpu)) =
                    (a.epoch_rate(platform, cpu), a.epoch_rate(platform, gpu))
                else {
                    return;
                };
                let corrected = glinda::resolve_with_observations(
                    &plan.problem,
                    &plan.solution,
                    obs_cpu,
                    obs_gpu,
                );
                if plan.problem.items == 0 {
                    return;
                }
                Source::Plan(obs_cpu, obs_gpu, corrected)
            }
        };
        // Chunk time on a side: the observed-rate extrapolation captures
        // how the device is *actually* running (throttle windows, flaky
        // retries), but it under-prices small fragments — a rate observed
        // on big chunks amortizes launch overhead a fragment pays in
        // full. Floor it with the device model's own per-chunk prediction
        // (which prices the launch exactly).
        let exec_secs = |t: TaskId, items: u64, dev: DeviceId, rate: f64| -> f64 {
            let task = tasks[t.0];
            let device = platform.device(dev);
            let profile = &program.kernels[task.kernel.0].profile;
            let floor = device
                .exec_time_weighted(profile, items, task.cost_scale)
                .as_secs_f64();
            (items as f64 * device.spec.kind.slots() as f64 / rate).max(floor)
        };
        // A migrated chunk re-reads its inputs across the link before it
        // can start; the candidate walls must price that hop, or a slow
        // link turns a predicted win into a real loss — the regression
        // the guard exists to prevent.
        let move_secs = |t: TaskId, cur: DeviceId| -> f64 {
            let (from, to) = if cur == gpu { (gpu, cpu) } else { (cpu, gpu) };
            let bytes = tasks[t.0]
                .accesses
                .iter()
                .filter(|acc| acc.mode.reads())
                .map(|acc| acc.region.span.len() * program.buffers[acc.region.buffer.0].item_bytes)
                .sum();
            let space = |dev: DeviceId| platform.device(dev).mem_space;
            transfer_cost(platform, space(from), space(to), bytes).as_secs_f64()
        };
        let mut moved_items = 0u64;
        let mut changed = false;
        for epoch in self.epochs.iter().skip(self.cur_epoch + 1) {
            let chunks = pinned_chunks(epoch, &a.override_of, tasks);
            if chunks.len() < 2 || chunks.iter().map(|c| c.1).sum::<u64>() == 0 {
                continue;
            }
            let (slot, obs_cpu, obs_gpu, corrected) = match &source {
                Source::Plan(obs_cpu, obs_gpu, corrected) => (None, *obs_cpu, *obs_gpu, *corrected),
                Source::Kernels(kernels) => {
                    let kid = tasks[chunks[0].0 .0].kernel;
                    if chunks.iter().any(|&(t, ..)| tasks[t.0].kernel != kid) {
                        continue;
                    }
                    // A kernel without a stored entry (its decision was
                    // Only-CPU or Only-GPU) has no split to correct, and a
                    // side it never ran on gives nothing to correct with.
                    let Some(ki) = kernels.iter().position(|kp| kp.kernel == kid.0) else {
                        continue;
                    };
                    if kernels[ki].problem.items == 0 {
                        continue;
                    }
                    let (Some(obs_cpu), Some(obs_gpu)) = (
                        a.kernel_rate(platform, kid, cpu),
                        a.kernel_rate(platform, kid, gpu),
                    ) else {
                        continue;
                    };
                    let kp = &kernels[ki];
                    let corrected = glinda::resolve_with_observations(
                        &kp.problem,
                        &kp.solution,
                        obs_cpu,
                        obs_gpu,
                    );
                    (Some(ki), obs_cpu, obs_gpu, corrected)
                }
            };
            let (best_wall, moves) = prefix_sweep(
                &chunks,
                platform,
                gpu,
                |&(t, items, cur)| {
                    exec_secs(t, items, gpu, obs_gpu)
                        + if cur == gpu { 0.0 } else { move_secs(t, cur) }
                },
                |&(t, items, cur)| {
                    exec_secs(t, items, cpu, obs_cpu)
                        + if cur == gpu { move_secs(t, cur) } else { 0.0 }
                },
                &mut a.rng,
            );
            // No-regression guard: apply only if the observed-rate model
            // predicts the new assignment strictly beats the current one.
            let (on_gpu, on_cpu): (Vec<_>, Vec<_>) = chunks.iter().partition(|c| c.2 == gpu);
            let cur_wall = |side: &[&(TaskId, u64, DeviceId)], dev: DeviceId, rate: f64| {
                let times = side
                    .iter()
                    .map(|&&(t, items, _)| exec_secs(t, items, dev, rate));
                Waves::wall_of(times, platform.device(dev).spec.kind.slots())
            };
            if moves.is_empty()
                || best_wall >= cur_wall(&on_gpu, gpu, obs_gpu).max(cur_wall(&on_cpu, cpu, obs_cpu))
            {
                continue;
            }
            for &(t, items, dest) in &moves {
                a.override_of[t.0] = Some(dest);
                moved_items += items;
            }
            changed = true;
            // The applied split warm-starts the kernel's next re-solve
            // (later epochs of the same kernel in this very sweep included).
            if let (Some(ki), Source::Kernels(kernels)) = (slot, &mut source) {
                kernels[ki].solution = corrected;
            }
        }
        if !changed {
            return;
        }
        a.report.repartitions += 1;
        a.report.items_moved += moved_items;
        let p = a.plan.as_mut().expect("repartition requires a plan");
        // The applied split becomes the next re-solve's warm start.
        let (gpu_items, cpu_items) = match source {
            Source::Plan(_, _, corrected) => {
                p.solution = corrected;
                (corrected.gpu_items, corrected.cpu_items)
            }
            Source::Kernels(kernels) => {
                let totals = kernels.iter().fold((0, 0), |(g, c), kp| {
                    (g + kp.solution.gpu_items, c + kp.solution.cpu_items)
                });
                p.per_kernel = Some(kernels);
                totals
            }
        };
        self.obs.on_event(&TraceEvent::Repartitioned {
            epoch: self.cur_epoch,
            gpu_items,
            cpu_items,
            at: self.now,
        });
    }

    /// The N-way sibling of [`Sim::repartition`]: re-solve the plan's
    /// stored multi-device split at the observed whole-device rates over
    /// the live device set, then re-pin the remaining epochs' statically
    /// placed chunks wave-aware with migrations priced by the nominal
    /// link. The same strict no-regression guard applies — the baseline is
    /// the current assignment — so a multi-accelerator plan can never be
    /// made worse by adaptation than by leaving it alone.
    fn repartition_multi(&mut self) {
        let (unavail, targets) = self.live_targets();
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
        self.obs.on_event(&TraceEvent::Repartitioned {
            epoch: self.cur_epoch,
            gpu_items,
            cpu_items,
            at: self.now,
        });
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
        self.obs.on_event(&TraceEvent::StrategyEscalated {
            epoch: self.cur_epoch,
            at: self.now,
        });
    }

    /// Disturbance-aware de-escalation (plan reinstatement).
    /// Each barrier the escalated run closes with skew at or below the
    /// balance target and *no open fault window* — scheduled or
    /// synthesized by a correlated trigger — bumps a calm counter;
    /// anything else resets it. After `reinstate_after` consecutive calm
    /// barriers the remaining epochs are handed back to the static plan,
    /// re-solved at the observed whole-device rates and re-pinned through
    /// the same [`prefix_sweep`] as [`Sim::repartition`] (pure rate
    /// extrapolation here: no launch floor, no migration term). A
    /// no-regression guard keeps DP-Perf when the model predicts the
    /// static split would run the next epoch slower than the dynamic
    /// scheduler just ran the closing one.
    fn try_reinstate(&mut self, skew: f64) {
        let now = self.now;
        let disturbed = self
            .faults
            .as_ref()
            .is_some_and(|f| f.schedule.disturbance_open(now) || f.synth_window_open(now));
        let plan = self.adapt.as_ref().unwrap().plan.clone();
        let gpu_dead = match &plan {
            Some(p) => self.is_dead(p.gpu),
            None => true,
        };
        let a = self.adapt.as_mut().unwrap();
        let calm = skew <= a.config.balance_target
            && !disturbed
            && !gpu_dead
            && self.cur_epoch + 1 < self.epochs.len();
        a.calm_barriers = if calm { a.calm_barriers + 1 } else { 0 };
        if !calm || a.calm_barriers < a.config.reinstate_after {
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
        let platform = self.platform;
        let a = self.adapt.as_mut().unwrap();
        let rate = |dev: DeviceId| {
            a.epoch_rate(platform, dev)
                .or_else(|| a.cumulative_rate(platform, dev))
        };
        // A device with no observations at all would make the static
        // plan blind: keep the dynamic scheduler and keep waiting.
        let (Some(obs_cpu), Some(obs_gpu)) = (rate(DeviceId(0)), rate(plan.gpu)) else {
            return;
        };
        let corrected =
            glinda::resolve_with_observations(&plan.problem, &plan.solution, obs_cpu, obs_gpu);
        let secs = |items: u64, dev: DeviceId, rate: f64| {
            items as f64 * platform.device(dev).spec.kind.slots() as f64 / rate
        };
        let dynamic_wall = now.saturating_sub(a.last_barrier_at).as_secs_f64();
        let mut guard_checked = false;
        for epoch in self.epochs.iter().skip(self.cur_epoch + 1) {
            let chunks = pinned_chunks(epoch, &a.override_of, &self.tasks);
            if chunks.is_empty() {
                continue;
            }
            let (best_wall, moves) = prefix_sweep(
                &chunks,
                platform,
                plan.gpu,
                |c| secs(c.1, plan.gpu, obs_gpu),
                |c| secs(c.1, DeviceId(0), obs_cpu),
                &mut a.rng,
            );
            if !guard_checked {
                guard_checked = true;
                // No-regression guard, against the *measured* dynamic
                // wall of the epoch that just closed.
                if best_wall > dynamic_wall {
                    a.calm_barriers = 0;
                    return;
                }
            }
            for (t, _, dest) in moves {
                a.override_of[t.0] = Some(dest);
            }
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
        self.obs.on_event(&TraceEvent::StrategyReinstated {
            epoch: self.cur_epoch,
            at: now,
        });
    }

    /// Clear the open epoch's skew window: the detector observes one epoch
    /// at a time, and a reversal (dropout, rollback) makes the window's
    /// committed work garbage.
    pub(super) fn reset_skew_window(&mut self) {
        if let Some(a) = &mut self.adapt {
            a.epoch_busy.fill(SimTime::ZERO);
            a.epoch_items.fill(0);
        }
    }
}

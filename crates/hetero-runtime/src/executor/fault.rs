//! The fault layer (`RunMode::Faulty` and up): seeded fault sampling at
//! dispatch, correlated sibling triggering, retry exhaustion and failover,
//! device dropout, and link-degraded transfer pricing.

use super::{transfer_cost, Discard, Ev, Sim, CORRELATED_STREAM};
use crate::coherence::Transfer;
use crate::health::BreakerState;
use crate::obs::Observer;
use crate::program::TaskId;
use crate::trace::TraceEvent;
use hetero_platform::{
    DeviceId, FaultCounters, FaultEvent, FaultRng, FaultSchedule, MemSpaceId, Platform,
    RetryPolicy, SimTime,
};

/// Mutable fault-injection state, present only on the faulty path.
pub(super) struct FaultCtx<'a> {
    pub(super) schedule: &'a FaultSchedule,
    policy: RetryPolicy,
    pub(super) rng: FaultRng,
    pub(super) counters: FaultCounters,
    /// Per device: when it permanently dropped out (for the `dead` blame
    /// component).
    pub(super) dead_at: Vec<Option<SimTime>>,
    /// Per task: attempt generation; completion events carry the
    /// generation they were issued under, so a dropout can invalidate the
    /// in-flight event of a task it kills by bumping this.
    pub(super) gen: Vec<u32>,
    /// Per task: already failed over once (next exhaustion → safe mode).
    failed_over: Vec<bool>,
    /// Per task: placement was forced (scheduler bypassed), so the
    /// scheduler must not be told about its completion — its own books
    /// still name the device *it* chose.
    pub(super) suppress_complete: Vec<bool>,
    /// Per task: currently occupying a slot (dispatched, not done).
    pub(super) in_flight: Vec<bool>,
    /// Per task: dispatch time of the current attempt batch.
    pub(super) started_at: Vec<SimTime>,
    /// Per task: the current committed result is silently corrupted
    /// (ground truth, tracked whether or not verification is on).
    pub(super) corrupt: Vec<bool>,
    /// Corrupt results injected across all dispatches.
    pub(super) corruptions_injected: u64,
    /// Corruption injection disabled for the open epoch's re-runs (set
    /// after `max_rollbacks_per_epoch`; the SDC analog of safe mode).
    pub(super) suppress_corruption: bool,
    /// Sibling fault windows synthesized by correlated triggering during
    /// this run, in trigger order (exported as
    /// `RunReport::synthesized_faults` for trace recording).
    pub(super) synth: Vec<FaultEvent>,
    /// Conditional-trigger stream, allocated only when the schedule has a
    /// domain with `trigger_prob > 0` so domain-free schedules replay
    /// byte-identically.
    pub(super) corr_rng: Option<FaultRng>,
}

impl<'a> FaultCtx<'a> {
    pub(super) fn new(
        schedule: &'a FaultSchedule,
        policy: RetryPolicy,
        n: usize,
        ndev: usize,
    ) -> Self {
        FaultCtx {
            schedule,
            policy,
            rng: schedule.rng(),
            counters: FaultCounters::default(),
            dead_at: vec![None; ndev],
            gen: vec![0; n],
            failed_over: vec![false; n],
            suppress_complete: vec![false; n],
            in_flight: vec![false; n],
            started_at: vec![SimTime::ZERO; n],
            corrupt: vec![false; n],
            corruptions_injected: 0,
            suppress_corruption: false,
            synth: Vec::new(),
            corr_rng: schedule
                .has_correlation()
                .then(|| FaultRng::new(schedule.seed ^ CORRELATED_STREAM)),
        }
    }

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
    pub(super) fn synth_window_open(&self, now: SimTime) -> bool {
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
            obs.on_event(&TraceEvent::CorrelatedFaultTriggered {
                domain: di,
                source,
                sibling: sib,
                until,
                at: now,
            });
        }
    }
}

/// The available device with the most slots (ties → lowest id), excluding
/// `exclude`; `blocked` marks devices no binding may target (dead, or
/// quarantined by the circuit breaker). The host (device 0, never dead and
/// never quarantined) is the target of last resort.
pub(super) fn fallback_device(
    platform: &Platform,
    blocked: &[bool],
    exclude: Option<DeviceId>,
) -> DeviceId {
    platform
        .devices
        .iter()
        .filter(|d| !blocked[d.id.0] && Some(d.id) != exclude)
        .max_by_key(|d| (d.spec.kind.slots(), std::cmp::Reverse(d.id.0)))
        .map(|d| d.id)
        .unwrap_or(DeviceId(0))
}

impl<'a> Sim<'a> {
    /// Re-issue transfer `tr` while its link faults: each failed try burns
    /// the full degraded wire time `ddt`, the first from `start`; after
    /// `max_attempts` failed tries it goes through regardless (the retry
    /// storm has been paid for). Returns the time lost to retries.
    pub(super) fn retry_transfer(
        &mut self,
        tr: &Transfer,
        ddt: SimTime,
        start: SimTime,
    ) -> SimTime {
        let mut lost = SimTime::ZERO;
        let Some(f) = self.faults.as_mut() else {
            return lost;
        };
        for _ in 0..f.policy.max_attempts {
            let at = start + lost;
            let p = f.schedule.transfer_fault_prob(at);
            if p <= 0.0 || f.rng.next_f64() >= p {
                break;
            }
            f.counters.transfer_faults += 1;
            f.counters.transfer_retries += 1;
            f.counters.time_lost += ddt;
            self.counters.record_transfer(tr.bytes, ddt);
            self.obs.on_event(&TraceEvent::TransferRetry {
                from: tr.from,
                to: tr.to,
                bytes: tr.bytes,
                start: at,
                end: at + ddt,
            });
            lost += ddt;
        }
        lost
    }

    /// Sample the execution attempts of `t` on `dev`, the first starting
    /// at `start`. Outcomes are drawn here, at dispatch: replayed
    /// synthesized windows that opened later cannot apply (see
    /// `FaultSchedule::task_fault_prob_dispatched`). A failed attempt runs
    /// to completion, then backs off and retries; once retries are
    /// exhausted the task aborts to fail over, or — with nowhere left to go
    /// — finishes one fault-free safe-mode attempt. A committed attempt may
    /// be silently corrupted. Returns the committed attempt's execution
    /// time (zero when aborted), the time lost to failed attempts and
    /// backoff, and whether the task aborted. Without faults the one
    /// attempt runs at the model's `base_exec`.
    pub(super) fn sample_attempts(
        &mut self,
        t: TaskId,
        dev: DeviceId,
        base_exec: SimTime,
        start: SimTime,
    ) -> (SimTime, SimTime, bool) {
        let dispatched = self.now;
        let Some(f) = self.faults.as_mut() else {
            return (base_exec, SimTime::ZERO, false);
        };
        let max = f.policy.max_attempts.max(1);
        let mut lost = SimTime::ZERO;
        let mut attempt: u32 = 1;
        let exec = loop {
            let at = start + lost;
            let this_exec = f.schedule.throttled_exec(dev, at, base_exec);
            let p = f.task_fault_prob(dev, at, dispatched);
            if !(p > 0.0 && f.rng.next_f64() < p) {
                break Some(this_exec);
            }
            f.counters.task_faults += 1;
            f.counters.time_lost += this_exec;
            lost += this_exec;
            self.obs.on_event(&TraceEvent::TaskFault {
                task: t,
                dev,
                attempt,
                at: start + lost,
            });
            // A member fault may raise sibling fault probability for a
            // window (correlated fault domains).
            trigger_correlated(f, &mut *self.obs, dev, start + lost);
            if attempt >= max {
                let has_failover_target = !f.failed_over[t.0]
                    && self
                        .platform
                        .devices
                        .iter()
                        .any(|d| f.dead_at[d.id.0].is_none() && d.id != dev);
                if has_failover_target {
                    break None;
                }
                // Safe mode: one final fault-free attempt guarantees
                // termination on the last resort.
                f.counters.safe_mode_tasks += 1;
                break Some(f.schedule.throttled_exec(dev, start + lost, base_exec));
            }
            let bo = f.policy.backoff_for(attempt);
            f.counters.task_retries += 1;
            f.counters.backoff_time += bo;
            f.counters.time_lost += bo;
            lost += bo;
            attempt += 1;
        };
        let Some(exec) = exec else {
            return (SimTime::ZERO, lost, true);
        };
        // Silent corruption: the attempt "succeeds" on time but its
        // committed result is wrong. Ground truth is tracked whether or not
        // verification is on; the draw is gated on a positive probability
        // so schedules without SDC events keep their exact fault stream.
        f.corrupt[t.0] = false;
        let cp = f.schedule.corruption_prob(dev, self.now);
        if cp > 0.0 && !f.suppress_corruption && f.rng.next_f64() < cp {
            f.corrupt[t.0] = true;
            f.corruptions_injected += 1;
        }
        (exec, lost, false)
    }

    /// `t`'s binding to `dev`, redirected to the fallback survivor when
    /// `dev` is dead or quarantined (a pinned plan keeps naming its dead
    /// device; redirecting here is what "falls back to Only-CPU
    /// completion"). Half-open devices keep their bindings: they become
    /// probe candidates.
    pub(super) fn redirect_unavailable(&mut self, t: TaskId, dev: DeviceId) -> DeviceId {
        let half_open = self
            .health
            .as_ref()
            .is_some_and(|h| h.state[dev.0] == BreakerState::HalfOpen);
        if !self.unavailable()[dev.0] || half_open {
            return dev;
        }
        self.fail_over(t, dev, None)
    }

    /// Force `t` off `from` onto the fallback survivor (never `exclude`):
    /// the placement bypasses the scheduler, which will not be told about
    /// the eventual completion. Returns the target.
    fn fail_over(&mut self, t: TaskId, from: DeviceId, exclude: Option<DeviceId>) -> DeviceId {
        let to = fallback_device(self.platform, &self.unavailable(), exclude);
        let f = self
            .faults
            .as_mut()
            .expect("failover only occurs under faults");
        f.counters.failovers += 1;
        f.suppress_complete[t.0] = true;
        self.obs.on_event(&TraceEvent::Failover {
            task: t,
            from,
            to,
            at: self.now,
        });
        to
    }

    /// Retry exhaustion on a live device: free the slot and fail the task
    /// over to the fallback survivor (forced placement — the scheduler is
    /// bypassed and will not be told about the eventual completion).
    pub(super) fn on_task_aborted(&mut self, t: TaskId, dev: DeviceId) {
        self.free_slot(dev);
        let f = self
            .faults
            .as_mut()
            .expect("aborts only occur under faults");
        f.in_flight[t.0] = false;
        f.failed_over[t.0] = true;
        // Observe first: the exhaustion may trip the breaker, and the
        // fallback choice must see the updated quarantine set.
        self.observe(dev, false, Some(t));
        let target = self.fail_over(t, dev, Some(dev));
        self.placements[t.0] = Some(target);
        self.dev_queues[target.0].push_back(t);
        self.dispatch_all();
    }

    /// Permanent device failure. Kills the device's queued and in-flight
    /// work, re-executes its uncommitted completions of the open epoch
    /// (their results lived in the dead memory space), restores lost data
    /// from the host's epoch checkpoint, and re-binds everything to the
    /// survivors. Committed epochs (barrier reached) are never touched.
    pub(super) fn on_device_dropout(&mut self, dev: DeviceId) {
        if dev.0 == 0 {
            return; // the host is the last resort and cannot die
        }
        {
            let f = self
                .faults
                .as_mut()
                .expect("dropouts only occur under faults");
            if f.dead_at[dev.0].is_some() {
                return;
            }
            f.dead_at[dev.0] = Some(self.now);
            f.counters.device_dropouts += 1;
            // A dropout is the strongest member fault a domain can see;
            // surviving siblings get the correlated window.
            trigger_correlated(f, &mut *self.obs, dev, self.now);
        }
        self.free_slots[dev.0] = 0;
        self.obs
            .on_event(&TraceEvent::DeviceDropout { dev, at: self.now });

        // Hedge bookkeeping: a hedge whose peer died is lost (a
        // designated-winner's primary completion is revived), and a hedge
        // whose primary is about to be killed below is cancelled with it.
        for ti in 0..self.tasks.len() {
            let t = TaskId(ti);
            let Some(hd) = self.health.as_ref().and_then(|h| h.hedge[ti]) else {
                continue;
            };
            if hd.peer == dev {
                self.cancel_hedge(t);
                if hd.winner {
                    // The primary is still physically running; its
                    // completion was invalidated when the hedge was
                    // designated winner — revive it under the current
                    // generation (the primary outlives the hedge by
                    // construction: hedge_end < primary_end).
                    let f = self.faults.as_ref().unwrap();
                    let end = f.started_at[ti] + self.cost_of[ti].busy();
                    let gen = f.gen[ti];
                    let pdev = self.placements[ti].expect("hedged task was placed");
                    self.queue.push(
                        end,
                        Ev::TaskDone {
                            task: t,
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
                self.cancel_hedge(t);
                self.free_slots[hd.peer.0] += 1;
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
            let f = self.faults.as_mut().unwrap();
            f.gen[t.0] += 1;
            f.in_flight[t.0] = false;
            // The slot's fault charge becomes exactly the span it really
            // burned before the death.
            let span = self.now.saturating_sub(f.started_at[t.0]);
            self.unbook(t, dev, span, Discard::FaultLoss);
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
            self.faults.as_mut().unwrap().counters.reexecutions += 1;
            // The whole discarded span becomes fault loss.
            self.unbook(t, dev, self.cost_of[t.0].busy(), Discard::FaultLoss);
        }
        // Everything the dropout un-ran loses its placement: from here on
        // "placed" again means queued, in flight, or completed.
        for &t in drained.iter().chain(&killed).chain(&resets) {
            self.placements[t.0] = None;
        }
        self.rearm_consumers(&resets);

        // 4. Data that lived only in the dead space is recovered from the
        // host's epoch checkpoint.
        let dead_space = self.platform.device(dev).mem_space;
        self.coherence.drop_space(dead_space);

        // The reversals above made the open epoch's skew window garbage;
        // the detector sits this epoch out rather than acting on it.
        self.reset_skew_window();

        // Survivor re-planning: re-solve the remaining epochs over the
        // live device set (and rebind other devices' queues) before the
        // dead device's own work is re-bound below, so step 5's
        // `make_ready` already sees the repaired overrides.
        self.plan_repair(dev, false);

        // 5. Re-bind everything that is still dependency-free, in TaskId
        // order (deterministic). Tasks whose dependences the re-arm put
        // back wait for their producers to re-complete.
        let mut requeue: Vec<TaskId> = killed.into_iter().chain(drained).chain(resets).collect();
        requeue.sort_unstable();
        requeue.dedup();
        self.ready_and_dispatch(requeue);
    }

    /// [`transfer_cost`] priced on the links *as they stand at `at`*: each
    /// host↔accelerator hop is scaled by the accelerator's open
    /// [`FaultEvent::LinkDegrade`] windows (`FaultSchedule::link_factors`).
    /// With no degradation anywhere in the schedule this takes the nominal
    /// path and is bit-identical to [`transfer_cost`].
    pub(super) fn degraded_transfer_cost(
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
            // The accelerator owning the hop's device-side memory space.
            let dev = self
                .platform
                .devices
                .iter()
                .rev()
                .find(|d| d.mem_space == accel);
            let (bw, lat) = dev.map_or((1.0, 1.0), |d| f.schedule.link_factors(d.id, at));
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
}

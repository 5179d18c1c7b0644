//! The gray-failure layer (`RunMode::Resilient` and up): the EWMA health
//! score and circuit breaker, the straggler watchdog and its hedged
//! duplicates, and duplicate-check verification with epoch rollback.

use super::{Discard, Ev, Sim, TaskCost, HEALTH_STREAM};
use crate::health::{BreakerState, HealthConfig, HealthReport, QuarantineSpan, VerificationPolicy};
use crate::program::TaskId;
use crate::trace::TraceEvent;
use hetero_platform::{DeviceId, FaultRng, SimTime};

/// An active hedged duplicate of one straggling task.
#[derive(Clone, Copy)]
pub(super) struct Hedge {
    /// Device the duplicate runs on.
    pub(super) peer: DeviceId,
    /// When the duplicate was launched.
    launched: SimTime,
    /// The duplicate will finish before the straggling primary (decided at
    /// launch — attempt durations are known at dispatch).
    pub(super) winner: bool,
}

/// Mutable gray-failure state, present only when a [`HealthConfig`] with
/// at least one mitigation enabled was supplied.
pub(super) struct HealthCtx {
    pub(super) config: HealthConfig,
    /// Verification-sampling stream, independent of the fault stream.
    pub(super) rng: FaultRng,
    pub(super) report: HealthReport,
    /// Per device: consecutive bad observations (resets on a good one).
    consecutive_bad: Vec<u32>,
    /// Per device: circuit-breaker state.
    pub(super) state: Vec<BreakerState>,
    /// Per device: the probe task let through while half-open.
    pub(super) probe_task: Vec<Option<TaskId>>,
    /// Per task: the watchdog fired for the current dispatch.
    pub(super) straggled: Vec<bool>,
    /// Per task: active hedged duplicate.
    pub(super) hedge: Vec<Option<Hedge>>,
    /// Rollbacks of the open epoch so far.
    pub(super) rollbacks_this_epoch: u32,
}

impl HealthCtx {
    pub(super) fn new(config: HealthConfig, seed: u64, n: usize, ndev: usize) -> Self {
        HealthCtx {
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
        }
    }
}

impl<'a> Sim<'a> {
    /// Fold one good/bad observation of `dev` into its EWMA health score
    /// and the circuit breaker. `task` identifies the observation's source
    /// for half-open probe matching.
    pub(super) fn observe(&mut self, dev: DeviceId, good: bool, task: Option<TaskId>) {
        enum Action {
            None,
            Trip(SimTime),
            Close,
            Reopen(SimTime),
        }
        let dead = self.is_dead(dev);
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
                    if !good && h.consecutive_bad[dev.0] >= b.trip_after && dev.0 != 0 && !dead =>
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
            Action::Trip(cooldown) => self.open_circuit(dev, cooldown, true),
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
                self.obs
                    .on_event(&TraceEvent::CircuitClose { dev, at: self.now });
                // Healing re-plan: the readmitted device is a survivor
                // again; re-solve and migrate work back onto it (mirrors
                // the disturbance-aware de-escalation).
                if self
                    .replan
                    .as_ref()
                    .is_some_and(|r| r.config.heal_on_reclose)
                    && self.plan_repair(dev, true)
                {
                    self.dispatch_all();
                }
            }
            Action::Reopen(cooldown) => self.open_circuit(dev, cooldown, false),
        }
    }

    /// Open `dev`'s circuit, schedule its half-open probe and redirect its
    /// queued (unstarted) work. In-flight work finishes — quarantine is not
    /// a dropout. A `trip` from closed starts a quarantine span and tries a
    /// survivor re-plan first; a failed probe only re-opens.
    fn open_circuit(&mut self, dev: DeviceId, cooldown: SimTime, trip: bool) {
        let h = self.health.as_mut().unwrap();
        h.state[dev.0] = BreakerState::Open;
        h.probe_task[dev.0] = None;
        if trip {
            h.report.circuit_opens += 1;
            h.report.quarantine.push(QuarantineSpan {
                dev,
                from: self.now,
                until: None,
            });
            self.obs
                .on_event(&TraceEvent::CircuitOpen { dev, at: self.now });
        }
        self.queue
            .push(self.now + cooldown, Ev::CircuitProbe { dev });
        // Survivor re-planning before the naive drain: a successful repair
        // rebinds every queue (including `dev`'s) under the new overrides,
        // leaving the drain below nothing to redirect.
        if trip {
            self.plan_repair(dev, false);
        }
        self.rebind_queued(Some(dev));
    }

    /// Cool-down elapsed: half-open the circuit and let one probe through.
    pub(super) fn on_circuit_probe(&mut self, dev: DeviceId) {
        if self.is_dead(dev) {
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
    pub(super) fn on_watchdog_fire(&mut self, t: TaskId, started: SimTime) {
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
        let h = self.health.as_mut().unwrap();
        if h.straggled[t.0] || h.hedge[t.0].is_some() {
            return;
        }
        h.straggled[t.0] = true;
        let hedging = h.config.watchdog.is_some_and(|w| w.hedging);
        self.observe(primary, false, Some(t));
        if !hedging {
            return;
        }
        // Best live, closed peer with a free slot. The duplicate re-reads
        // the inputs the primary already staged, so transfers are not
        // re-charged, and it samples no faults of its own (see the module
        // docs).
        let now = self.now;
        let Some((cost, peer)) = self.fastest_peer(t, primary, true, |_| now) else {
            return;
        };
        let hedge_end = self.now + cost;
        let primary_end = self.faults.as_ref().unwrap().started_at[t.0] + self.cost_of[t.0].busy();
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
        self.obs.on_event(&TraceEvent::HedgeLaunched {
            task: t,
            from: primary,
            to: peer,
            at: self.now,
        });
    }

    /// A winning hedged duplicate finished: cancel the straggling primary
    /// mid-attempt, commit the result on the peer, and complete the task.
    pub(super) fn on_hedge_done(&mut self, t: TaskId, peer: DeviceId) {
        let hd = self.health.as_mut().unwrap().hedge[t.0]
            .take()
            .expect("hedge event implies an active hedge");
        let primary = self.placements[t.0].expect("hedged task was placed");
        let task = self.tasks[t.0];
        // Take back the primary's dispatch; the slot span it actually
        // occupied is hedge waste.
        let span_primary = {
            let f = self.faults.as_mut().unwrap();
            f.in_flight[t.0] = false;
            f.suppress_complete[t.0] = true;
            f.corrupt[t.0] = false; // the primary's result is discarded
            self.now.saturating_sub(f.started_at[t.0])
        };
        self.health.as_mut().unwrap().report.hedges_won += 1;
        self.unbook(t, primary, span_primary, Discard::HedgeWaste);
        self.free_slot(primary);
        // Commit the duplicate's result on the peer: the committed dispatch
        // is now the peer's span, all of it useful execution — a later
        // reversal takes back exactly that.
        let hspan = self.now.saturating_sub(hd.launched);
        let cost = TaskCost {
            exec: hspan,
            produced: true,
            ..TaskCost::default()
        };
        self.book(t, peer, cost);
        self.placements[t.0] = Some(peer);
        self.free_slot(peer);
        self.completed[t.0] = true;
        self.obs.on_event(&TraceEvent::Task {
            task: t,
            kernel: task.kernel,
            dev: peer,
            items: task.items,
            start: hd.launched,
            end: self.now,
        });
        self.obs.on_event(&TraceEvent::HedgeWon {
            task: t,
            dev: peer,
            at: self.now,
        });
        self.observe(peer, true, Some(t));
        self.release_and_advance(t);
    }

    /// Under `DupCheck`, re-execute a seeded sample of the closing epoch
    /// on peer devices first; a mismatch rolls the epoch back to its
    /// checkpoint instead of committing it. Returns whether it rolled back.
    pub(super) fn verify_at_barrier(&mut self) -> bool {
        let sample_rate = match self.health.as_ref().map(|h| h.config.verification) {
            Some(VerificationPolicy::DupCheck { sample_rate }) if sample_rate > 0.0 => sample_rate,
            _ => return false,
        };
        let (verify_end, detected) = self.verify_epoch(sample_rate);
        self.now = self.now.max(verify_end);
        if detected {
            self.rollback_epoch();
        }
        detected
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
            let sampled =
                sample_rate >= 1.0 || self.health.as_mut().unwrap().rng.next_f64() < sample_rate;
            if !sampled {
                continue;
            }
            let placed = self.placements[t.0].expect("epoch task completed");
            let Some((cost, peer)) = self.fastest_peer(t, placed, false, |d| cursors[d.0]) else {
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
                self.obs.on_event(&TraceEvent::CorruptionDetected {
                    task: t,
                    dev: placed,
                    at: end,
                });
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
            self.completed[t.0] = false;
            // The reversed dispatch's physical span stays on the device as
            // rollback loss.
            self.unbook(t, dev, self.cost_of[t.0].busy(), Discard::Rollback);
            self.faults.as_mut().unwrap().corrupt[t.0] = false;
            self.placements[t.0] = None;
        }
        // No consumer of the epoch has run: every one goes back to waiting.
        self.rearm_consumers(&epoch_tasks);
        for d in &self.platform.devices {
            if !d.mem_space.is_host() {
                self.coherence.drop_space(d.mem_space);
            }
        }
        self.epoch_remaining = epoch_tasks.len();
        // The rolled-back accounting invalidates the epoch's observation
        // window; the re-run is observed fresh.
        self.reset_skew_window();
        self.ready_and_dispatch(epoch_tasks);
    }

    /// Cancel `t`'s hedged duplicate, if it has one: the slot span the
    /// duplicate burned on its peer so far is hedge waste. The caller
    /// decides what happens to the peer's slot.
    pub(super) fn cancel_hedge(&mut self, t: TaskId) -> Option<Hedge> {
        let h = self.health.as_mut()?;
        let hd = h.hedge[t.0].take()?;
        let span = self.now.saturating_sub(hd.launched);
        h.report.time_hedged += span;
        self.counters.devices[hd.peer.0].busy += span;
        self.blame[hd.peer.0].hedge_waste += span;
        Some(hd)
    }

    /// The device other than `placed` that would run a replica of `t`
    /// fastest, with that time: minimum throttled execution estimate when
    /// started at `at(dev)` (ties → lowest id), over devices a binding may
    /// target (and, with `need_slot`, that have a free slot).
    fn fastest_peer(
        &self,
        t: TaskId,
        placed: DeviceId,
        need_slot: bool,
        at: impl Fn(DeviceId) -> SimTime,
    ) -> Option<(SimTime, DeviceId)> {
        let unavail = self.unavailable();
        let task = self.tasks[t.0];
        let profile = &self.program.kernels[task.kernel.0].profile;
        let mut best: Option<(SimTime, DeviceId)> = None;
        for d in &self.platform.devices {
            if d.id == placed || unavail[d.id.0] || (need_slot && self.free_slots[d.id.0] == 0) {
                continue;
            }
            let base = d.exec_time_weighted(profile, task.items, task.cost_scale);
            let cost = self
                .faults
                .as_ref()
                .map_or(base, |f| f.schedule.throttled_exec(d.id, at(d.id), base));
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, d.id));
            }
        }
        best
    }

    /// Prescient watchdog: attempt durations are sampled at dispatch, so
    /// the fire event for `t`'s dispatch (slot time `busy`, fault-free
    /// prediction `nominal`) is armed up front exactly when the attempt
    /// will still be running at its deadline.
    pub(super) fn arm_watchdog(&mut self, t: TaskId, busy: SimTime, nominal: SimTime, gen: u32) {
        let Some(w) = self.health.as_ref().and_then(|h| h.config.watchdog) else {
            return;
        };
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

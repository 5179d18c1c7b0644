//! The plan-repair layer (`RunMode::Repairing`): survivor re-plans after a
//! death or quarantine, healing re-plans after a breaker reclose, and the
//! wave-aware N-way rebalance they share with N-way repartitioning.

use super::adapt::{beats, observed_rate, Waves};
use super::fault::fallback_device;
use super::{transfer_cost, Sim, REPLAN_STREAM};
use crate::adapt::{ReplanConfig, ReplanError};
use crate::program::TaskId;
use crate::trace::TraceEvent;
use glinda::{MultiDeviceProblem, MultiSolution};
use hetero_platform::{DeviceId, FaultRng, MemSpaceId};

/// Safety margin of the N-way rebind guard: a survivor re-plan (or barrier
/// rebalance) applies an epoch's moves only when the modeled wall beats the
/// naive chunk-by-chunk failover wall by at least this fraction. The model
/// is a per-epoch LPT relaxation — it prices execution at observed rates
/// plus host round-trip and migration transfers, but cannot see link
/// serialization or queue interleaving — so marginal predicted wins are
/// not acted on.
const NWAY_GUARD_MARGIN: f64 = 0.10;

/// Mutable plan-repair state, present only when an enabled
/// [`ReplanConfig`] was supplied (see [`RunMode::Repairing`](crate::RunMode::Repairing)).
pub(super) struct ReplanCtx {
    pub(super) config: ReplanConfig,
    /// Tie-break stream, independent of the fault/health/adapt streams.
    pub(super) rng: FaultRng,
    /// Survivor re-plans applied after a death or quarantine.
    pub(super) replans: u64,
    /// Healing re-plans applied after a breaker reclose.
    pub(super) readmissions: u64,
    /// Why the last repair attempt failed, if any did.
    pub(super) error: Option<ReplanError>,
    /// Per task: survivor re-plan override re-pinning a pending chunk.
    pub(super) override_of: Vec<Option<DeviceId>>,
    /// Per device: cumulative committed items, for observed-rate re-solves.
    pub(super) obs_items: Vec<f64>,
    /// Per device: cumulative committed slot-busy seconds (pairs with
    /// `obs_items`; whole-device rate = items × slots / busy).
    pub(super) obs_secs: Vec<f64>,
}

impl ReplanCtx {
    pub(super) fn new(config: ReplanConfig, seed: u64, n: usize, ndev: usize) -> Self {
        ReplanCtx {
            config,
            rng: FaultRng::new(seed ^ REPLAN_STREAM),
            replans: 0,
            readmissions: 0,
            error: None,
            override_of: vec![None; n],
            obs_items: vec![0.0; ndev],
            obs_secs: vec![0.0; ndev],
        }
    }
}

impl<'a> Sim<'a> {
    /// Re-solve the plan's stored N-way split over the *surviving*
    /// accelerator subset at the observed whole-device rates
    /// ([`glinda::resolve_multi_with_observations`]), writing the
    /// corrected shares back as the plan's warm start. Dropped (dead or
    /// quarantined) accelerators get a zero share; a readmitted one is a
    /// survivor again and earns its share back. Chunk-level binding is
    /// separate (see [`Sim::nway_rebalance`]) — this keeps the *plan*
    /// honest so later re-solves and reports start from the degraded
    /// split, closing the multi-accelerator `adapt_plan` gap.
    pub(super) fn resolve_surviving_multi(&mut self, targets: &[DeviceId]) {
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
        let platform = self.platform;
        platform
            .devices
            .iter()
            .map(|d| {
                let dev = d.id;
                let repair = self.replan.as_ref().and_then(|r| {
                    observed_rate(platform, dev, r.obs_items[dev.0], r.obs_secs[dev.0])
                });
                repair.or_else(|| self.adapt.as_ref()?.cumulative_rate(platform, dev))
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
    pub(super) fn nway_rebalance(
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
        let mut moves: Vec<(TaskId, DeviceId)> = Vec::new();
        let mut moved_items = 0u64;
        for chunks in &per_epoch {
            if chunks.is_empty() {
                continue;
            }
            let mut order: Vec<usize> = (0..chunks.len()).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(chunks[i].items), chunks[i].t));
            // The naive baseline dispatches the same longest-first waves.
            let mut naive_loads: Vec<Waves> = slots_of.iter().map(|&s| Waves::new(s)).collect();
            for &i in &order {
                let c = &chunks[i];
                naive_loads[c.naive].push(c.cost[c.naive]);
            }
            let naive_wall = naive_loads.iter().map(Waves::wall).fold(0.0, f64::max);
            // Repaired assignment: earliest predicted finish wins.
            let mut loads: Vec<Waves> = slots_of.iter().map(|&s| Waves::new(s)).collect();
            let mut dest = vec![0usize; chunks.len()];
            for &i in &order {
                let c = &chunks[i];
                let mut best: Option<(f64, usize)> = None;
                for (k, load) in loads.iter().enumerate() {
                    let fin = load.earliest_free() + c.cost[k];
                    if best.is_none_or(|(bf, _)| beats(fin, bf, rng)) {
                        best = Some((fin, k));
                    }
                }
                let (_, k) = best.expect("at least one surviving target");
                loads[k].push(c.cost[k]);
                dest[i] = k;
            }
            let wall = loads.iter().map(Waves::wall).fold(0.0, f64::max);
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

    /// Degraded-mode plan repair (see [`RunMode::Repairing`](crate::RunMode::Repairing)): re-solve
    /// the not-yet-checkpointed epochs over the surviving device set and
    /// rebind the queued chunks. `heal` marks a healing re-plan after a
    /// breaker reclose (the readmitted `dev` is a survivor again);
    /// otherwise `dev` just died or was quarantined. Returns whether a
    /// repair was applied. Bounded by [`ReplanConfig::max_replans`];
    /// failures are recorded once in [`AdaptReport::replan_error`](crate::AdaptReport::replan_error) and the
    /// executor falls back to chunk-by-chunk host failover.
    pub(super) fn plan_repair(&mut self, dev: DeviceId, heal: bool) -> bool {
        let Some(r) = self.replan.as_ref() else {
            return false;
        };
        let max = r.config.max_replans;
        if r.replans + r.readmissions >= u64::from(max) {
            let error = &mut self.replan.as_mut().unwrap().error;
            error.get_or_insert(ReplanError::BudgetExhausted { max_replans: max });
            return false;
        }
        let (unavail, targets) = self.live_targets();
        if targets.is_empty() {
            let error = &mut self.replan.as_mut().unwrap().error;
            error.get_or_insert(ReplanError::NoSurvivingAccelerator);
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
        self.rebind_queued(None);
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
        self.obs.on_event(&ev);
        true
    }

    /// The devices no binding is barred from, with [`Sim::unavailable`]'s
    /// mask they were read from.
    pub(super) fn live_targets(&self) -> (Vec<bool>, Vec<DeviceId>) {
        let unavail = self.unavailable();
        let targets = self
            .platform
            .devices
            .iter()
            .filter(|d| !unavail[d.id.0])
            .map(|d| d.id)
            .collect();
        (unavail, targets)
    }
}

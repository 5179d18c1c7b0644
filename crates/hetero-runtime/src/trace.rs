//! Execution traces: what happened when, on which device.
//!
//! A [`crate::TraceObserver`] passed to [`crate::execute`] records a
//! [`Trace`] alongside the run report: per-instance start/end times and placements, every data
//! transfer, and the taskwait flush windows. Traces power debugging, the
//! timeline example, and tests that assert *when* things happened rather
//! than only aggregate counters.

use crate::program::{KernelId, TaskId};
use hetero_platform::{DeviceId, MemSpaceId, Platform, SimTime};
use serde::{Deserialize, Serialize};

/// Default bucket count for ASCII gantt rendering, shared by the bench
/// binary and the examples (`--width` overrides it in `matchmake`).
pub const DEFAULT_GANTT_WIDTH: usize = 72;

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A task instance occupied a device slot over `[start, end)` (the
    /// span includes its scheduling overhead and inbound transfers).
    Task {
        /// Instance id.
        task: TaskId,
        /// Kernel the instance belongs to.
        kernel: KernelId,
        /// Device it ran on.
        dev: DeviceId,
        /// Items processed.
        items: u64,
        /// Slot occupancy start.
        start: SimTime,
        /// Slot occupancy end.
        end: SimTime,
    },
    /// A host↔device transfer.
    Transfer {
        /// Source memory space.
        from: MemSpaceId,
        /// Destination memory space.
        to: MemSpaceId,
        /// Payload bytes.
        bytes: u64,
        /// Transfer start.
        start: SimTime,
        /// Transfer end.
        end: SimTime,
    },
    /// A taskwait (or end-of-program) flush window.
    Flush {
        /// Barrier sequence number (0-based).
        epoch: usize,
        /// When the barrier was reached.
        start: SimTime,
        /// When all write-backs had landed.
        end: SimTime,
    },
    /// A transient task-attempt failure (the attempt's work was wasted;
    /// the retry policy decides what happens next).
    TaskFault {
        /// The instance that faulted.
        task: TaskId,
        /// Device it was running on.
        dev: DeviceId,
        /// Attempt number on this device (1-based).
        attempt: u32,
        /// When the failure was detected (end of the wasted attempt).
        at: SimTime,
    },
    /// A transfer attempt failed and was re-issued at full wire cost.
    TransferRetry {
        /// Source memory space.
        from: MemSpaceId,
        /// Destination memory space.
        to: MemSpaceId,
        /// Payload bytes.
        bytes: u64,
        /// Failed attempt start.
        start: SimTime,
        /// Failed attempt end (the re-issue follows).
        end: SimTime,
    },
    /// A device permanently dropped out.
    DeviceDropout {
        /// The device that died.
        dev: DeviceId,
        /// When it died.
        at: SimTime,
    },
    /// A task was forcibly moved to a surviving device (retry exhaustion,
    /// or its binding named a dead device).
    Failover {
        /// The instance that moved.
        task: TaskId,
        /// Where it was bound.
        from: DeviceId,
        /// Where it will run instead.
        to: DeviceId,
        /// When the move happened.
        at: SimTime,
    },
    /// Retry exhaustion held a device slot over `[start, end)`: the
    /// dispatch burned its failed attempts and backoffs, produced nothing,
    /// and the task failed over elsewhere — the span is pure occupancy
    /// (blamed as fault loss), not useful execution.
    SlotHeld {
        /// The instance whose failed attempts held the slot.
        task: TaskId,
        /// Kernel the instance belongs to.
        kernel: KernelId,
        /// Device whose slot was held.
        dev: DeviceId,
        /// When the doomed dispatch began.
        start: SimTime,
        /// When the slot was released (the failover instant).
        end: SimTime,
    },
    /// The watchdog judged an attempt a straggler and launched a hedged
    /// duplicate on another device (first finisher wins).
    HedgeLaunched {
        /// The straggling instance.
        task: TaskId,
        /// Device the straggling attempt occupies.
        from: DeviceId,
        /// Device the duplicate was launched on.
        to: DeviceId,
        /// When the hedge was launched.
        at: SimTime,
    },
    /// A hedged duplicate finished before the straggling original; the
    /// original's result is discarded and its slot time charged to
    /// `time_hedged`.
    HedgeWon {
        /// The instance whose hedge won.
        task: TaskId,
        /// Device the winning duplicate ran on.
        dev: DeviceId,
        /// When the duplicate finished.
        at: SimTime,
    },
    /// Duplicate-execution verification caught a silently corrupted output.
    CorruptionDetected {
        /// The instance whose output was wrong.
        task: TaskId,
        /// Device that produced the corrupt output.
        dev: DeviceId,
        /// When the mismatch was established.
        at: SimTime,
    },
    /// The health circuit breaker quarantined a device (its queue is
    /// redirected to survivors until a probe succeeds).
    CircuitOpen {
        /// The quarantined device.
        dev: DeviceId,
        /// When the breaker tripped.
        at: SimTime,
    },
    /// A half-open probe succeeded and the device rejoined the pool.
    CircuitClose {
        /// The rehabilitated device.
        dev: DeviceId,
        /// When the breaker re-closed.
        at: SimTime,
    },
    /// The adaptive controller observed per-device busy-time skew above
    /// its threshold at a taskwait barrier.
    ImbalanceDetected {
        /// Epoch whose barrier observed the imbalance.
        epoch: usize,
        /// Observed skew, `(max − min) / max` over slot-normalised busy.
        skew: f64,
        /// When the barrier was reached.
        at: SimTime,
    },
    /// The controller re-solved the partition against observed
    /// throughputs and re-pinned the remaining epochs' chunks.
    Repartitioned {
        /// Epoch whose barrier triggered the re-solve.
        epoch: usize,
        /// Corrected split: items on the accelerator side.
        gpu_items: u64,
        /// Corrected split: items on the CPU side.
        cpu_items: u64,
        /// When the re-solve was applied.
        at: SimTime,
    },
    /// The static plan was abandoned for its dynamic sibling (DP-Perf)
    /// after consecutive corrections missed the balance target.
    StrategyEscalated {
        /// Epoch whose barrier escalated the strategy.
        epoch: usize,
        /// When the escalation happened.
        at: SimTime,
    },
    /// A fault in one member of a fault domain raised a sibling's fault
    /// probability for a window (correlated trigger, synthesized during
    /// the run and recorded in `RunReport::synthesized_faults`).
    CorrelatedFaultTriggered {
        /// Index of the triggering domain in `FaultSchedule::domains`.
        domain: usize,
        /// The member whose fault triggered the correlation.
        source: DeviceId,
        /// The sibling whose fault probability was raised.
        sibling: DeviceId,
        /// End of the raised-probability window.
        until: SimTime,
        /// When the trigger fired.
        at: SimTime,
    },
    /// An escalated run returned to its (re-solved) static plan after
    /// consecutive calm barriers with no open fault window (DP-Perf →
    /// SP-* de-escalation).
    StrategyReinstated {
        /// Epoch whose barrier reinstated the static plan.
        epoch: usize,
        /// When the reinstatement happened.
        at: SimTime,
    },
    /// The plan-repair subsystem re-solved the remaining epochs over the
    /// surviving device set after a device death or quarantine and
    /// rebound the queued chunks.
    PlanRepaired {
        /// The device whose death or quarantine triggered the repair.
        dev: DeviceId,
        /// Queued chunks whose binding changed.
        moved: u64,
        /// When the repair was applied.
        at: SimTime,
    },
    /// A healing re-plan readmitted a reclosed (HalfOpen→Closed) device
    /// into the surviving split.
    DeviceReadmitted {
        /// The readmitted device.
        dev: DeviceId,
        /// Queued chunks whose binding changed.
        moved: u64,
        /// When the healing re-plan was applied.
        at: SimTime,
    },
}

impl TraceEvent {
    /// The `[start, end)` interval of a span event (tasks, transfers,
    /// retried transfers, flush windows); `None` for point events.
    ///
    /// The match is exhaustive on purpose: a new variant must decide here
    /// whether it is a span or a point, which keeps every consumer
    /// ([`Trace::end_time`], the gantt, the Chrome exporter, the critical
    /// path) in sync automatically.
    pub fn span(&self) -> Option<(SimTime, SimTime)> {
        match self {
            TraceEvent::Task { start, end, .. }
            | TraceEvent::Transfer { start, end, .. }
            | TraceEvent::Flush { start, end, .. }
            | TraceEvent::TransferRetry { start, end, .. }
            | TraceEvent::SlotHeld { start, end, .. } => Some((*start, *end)),
            TraceEvent::TaskFault { .. }
            | TraceEvent::DeviceDropout { .. }
            | TraceEvent::Failover { .. }
            | TraceEvent::HedgeLaunched { .. }
            | TraceEvent::HedgeWon { .. }
            | TraceEvent::CorruptionDetected { .. }
            | TraceEvent::CircuitOpen { .. }
            | TraceEvent::CircuitClose { .. }
            | TraceEvent::ImbalanceDetected { .. }
            | TraceEvent::Repartitioned { .. }
            | TraceEvent::StrategyEscalated { .. }
            | TraceEvent::CorrelatedFaultTriggered { .. }
            | TraceEvent::StrategyReinstated { .. }
            | TraceEvent::PlanRepaired { .. }
            | TraceEvent::DeviceReadmitted { .. } => None,
        }
    }

    /// The instant the event is anchored at: a span's `end`, a point
    /// event's `at`. This is the timestamp `Trace::end_time` maximises
    /// over.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Task { end, .. }
            | TraceEvent::Transfer { end, .. }
            | TraceEvent::Flush { end, .. }
            | TraceEvent::TransferRetry { end, .. }
            | TraceEvent::SlotHeld { end, .. } => *end,
            TraceEvent::TaskFault { at, .. }
            | TraceEvent::DeviceDropout { at, .. }
            | TraceEvent::Failover { at, .. }
            | TraceEvent::HedgeLaunched { at, .. }
            | TraceEvent::HedgeWon { at, .. }
            | TraceEvent::CorruptionDetected { at, .. }
            | TraceEvent::CircuitOpen { at, .. }
            | TraceEvent::CircuitClose { at, .. }
            | TraceEvent::ImbalanceDetected { at, .. }
            | TraceEvent::Repartitioned { at, .. }
            | TraceEvent::StrategyEscalated { at, .. }
            | TraceEvent::CorrelatedFaultTriggered { at, .. }
            | TraceEvent::StrategyReinstated { at, .. }
            | TraceEvent::PlanRepaired { at, .. }
            | TraceEvent::DeviceReadmitted { at, .. } => *at,
        }
    }
}

/// A complete execution trace.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Events in recording order (task events ordered by dispatch).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// All task events, in dispatch order.
    pub fn tasks(&self) -> impl Iterator<Item = (&TaskId, &DeviceId, &SimTime, &SimTime)> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Task {
                task,
                dev,
                start,
                end,
                ..
            } => Some((task, dev, start, end)),
            _ => None,
        })
    }

    /// Total busy time recorded for one device across all its slots.
    pub fn device_busy(&self, dev: DeviceId) -> SimTime {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Task {
                    dev: d, start, end, ..
                } if *d == dev => Some(*end - *start),
                _ => None,
            })
            .sum()
    }

    /// The latest instant any recorded event touches ([`TraceEvent::at`]
    /// maximised over the trace); zero for an empty trace.
    pub fn end_time(&self) -> SimTime {
        self.events
            .iter()
            .map(TraceEvent::at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Render an ASCII utilisation timeline: one row per device, `width`
    /// time buckets; each cell shows the fraction of the device's slots
    /// busy in that bucket (` .:-=+*#%@` from idle to saturated).
    pub fn gantt(&self, platform: &Platform, width: usize) -> String {
        const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let end = self.end_time();
        if end.is_zero() || width == 0 {
            return String::from("(empty trace)\n");
        }
        let total = end.as_secs_f64();
        let bucket = total / width as f64;
        let mut out = String::new();
        for dev in &platform.devices {
            let slots = dev.spec.kind.slots() as f64;
            // busy[b] = slot-seconds of work in bucket b.
            let mut busy = vec![0.0f64; width];
            for e in &self.events {
                let TraceEvent::Task {
                    dev: d, start, end, ..
                } = e
                else {
                    continue;
                };
                if *d != dev.id {
                    continue;
                }
                let (s, t) = (start.as_secs_f64(), end.as_secs_f64());
                let first = ((s / bucket) as usize).min(width - 1);
                let last = ((t / bucket) as usize).min(width - 1);
                for (b, slot) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
                    let b0 = b as f64 * bucket;
                    let b1 = b0 + bucket;
                    let overlap = (t.min(b1) - s.max(b0)).max(0.0);
                    *slot += overlap;
                }
            }
            let row: String = busy
                .iter()
                .map(|&b| {
                    let util = (b / (bucket * slots)).clamp(0.0, 1.0);
                    SHADES[((util * 9.0).round() as usize).min(9)]
                })
                .collect();
            out.push_str(&format!("{:<24} |{row}|\n", dev.spec.name));
        }
        out.push_str(&format!(
            "{:<24}  0 {:.<width$} {}\n",
            "",
            "",
            end,
            width = width.saturating_sub(2)
        ));
        out
    }
}

impl Trace {
    /// Export as Chrome trace-event JSON (load in `chrome://tracing` or
    /// Perfetto). Tasks become complete (`"ph":"X"`) events; each device is
    /// a process and overlapping tasks are spread over numbered lanes
    /// (threads) greedily, so concurrent CPU instances render side by side.
    /// Transfers and flush windows appear under a synthetic "interconnect"
    /// process.
    pub fn to_chrome_json(&self, platform: &Platform) -> String {
        #[derive(serde::Serialize)]
        struct Ev<'a> {
            name: String,
            ph: &'a str,
            ts: f64,
            dur: f64,
            pid: usize,
            tid: usize,
            args: serde_json::Value,
        }
        let mut events: Vec<Ev> = Vec::new();
        // Greedy lane assignment per device.
        let mut lanes: Vec<Vec<SimTime>> = platform.devices.iter().map(|_| Vec::new()).collect();
        // Cumulative per-device slot busy, sampled as a counter track at
        // each flush barrier.
        let mut cum_busy: Vec<SimTime> = vec![SimTime::ZERO; platform.devices.len()];
        for e in &self.events {
            match e {
                TraceEvent::Task {
                    task,
                    kernel,
                    dev,
                    items,
                    start,
                    end,
                } => {
                    cum_busy[dev.0] += *end - *start;
                    let lane = {
                        let ls = &mut lanes[dev.0];
                        match ls.iter().position(|&free| free <= *start) {
                            Some(i) => {
                                ls[i] = *end;
                                i
                            }
                            None => {
                                ls.push(*end);
                                ls.len() - 1
                            }
                        }
                    };
                    events.push(Ev {
                        name: format!("task{} (k{})", task.0, kernel.0),
                        ph: "X",
                        ts: start.as_micros_f64(),
                        dur: (*end - *start).as_micros_f64(),
                        pid: dev.0,
                        tid: lane,
                        args: serde_json::json!({ "items": items }),
                    });
                }
                TraceEvent::SlotHeld {
                    task,
                    kernel,
                    dev,
                    start,
                    end,
                } => {
                    cum_busy[dev.0] += *end - *start;
                    let lane = {
                        let ls = &mut lanes[dev.0];
                        match ls.iter().position(|&free| free <= *start) {
                            Some(i) => {
                                ls[i] = *end;
                                i
                            }
                            None => {
                                ls.push(*end);
                                ls.len() - 1
                            }
                        }
                    };
                    events.push(Ev {
                        name: format!("task{} HELD (k{})", task.0, kernel.0),
                        ph: "X",
                        ts: start.as_micros_f64(),
                        dur: (*end - *start).as_micros_f64(),
                        pid: dev.0,
                        tid: lane,
                        args: serde_json::Value::Null,
                    });
                }
                TraceEvent::Transfer {
                    from,
                    to,
                    bytes,
                    start,
                    end,
                } => {
                    events.push(Ev {
                        name: format!("xfer mem{}->mem{} ({} B)", from.0, to.0, bytes),
                        ph: "X",
                        ts: start.as_micros_f64(),
                        dur: (*end - *start).as_micros_f64(),
                        pid: platform.devices.len(),
                        tid: from.0,
                        args: serde_json::json!({ "bytes": bytes }),
                    });
                }
                TraceEvent::Flush { epoch, start, end } => {
                    events.push(Ev {
                        name: format!("taskwait flush #{epoch}"),
                        ph: "X",
                        ts: start.as_micros_f64(),
                        dur: (*end - *start).as_micros_f64(),
                        pid: platform.devices.len(),
                        tid: 64,
                        args: serde_json::Value::Null,
                    });
                    // Blame counter track: cumulative slot-busy seconds per
                    // device, sampled at each barrier (renders as stacked
                    // counter series in chrome://tracing / Perfetto).
                    events.push(Ev {
                        name: String::from("cumulative busy (s)"),
                        ph: "C",
                        ts: end.as_micros_f64(),
                        dur: 0.0,
                        pid: platform.devices.len(),
                        tid: 65,
                        args: serde_json::Value::Map(
                            platform
                                .devices
                                .iter()
                                .map(|d| {
                                    (
                                        d.spec.name.clone(),
                                        serde_json::Value::F64(cum_busy[d.id.0].as_secs_f64()),
                                    )
                                })
                                .collect(),
                        ),
                    });
                }
                TraceEvent::TransferRetry {
                    from,
                    to,
                    bytes,
                    start,
                    end,
                } => {
                    events.push(Ev {
                        name: format!("xfer RETRY mem{}->mem{} ({} B)", from.0, to.0, bytes),
                        ph: "X",
                        ts: start.as_micros_f64(),
                        dur: (*end - *start).as_micros_f64(),
                        pid: platform.devices.len(),
                        tid: from.0,
                        args: serde_json::json!({ "bytes": bytes }),
                    });
                }
                TraceEvent::TaskFault {
                    task,
                    dev,
                    attempt,
                    at,
                } => {
                    events.push(Ev {
                        name: format!("FAULT task{} attempt {attempt}", task.0),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: dev.0,
                        tid: 63,
                        args: serde_json::json!({ "attempt": attempt }),
                    });
                }
                TraceEvent::DeviceDropout { dev, at } => {
                    events.push(Ev {
                        name: format!("DROPOUT device {}", dev.0),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: dev.0,
                        tid: 63,
                        args: serde_json::Value::Null,
                    });
                }
                TraceEvent::Failover { task, from, to, at } => {
                    events.push(Ev {
                        name: format!("FAILOVER task{} dev{}->dev{}", task.0, from.0, to.0),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: to.0,
                        tid: 63,
                        args: serde_json::Value::Null,
                    });
                }
                TraceEvent::HedgeLaunched { task, from, to, at } => {
                    events.push(Ev {
                        name: format!("HEDGE task{} dev{}->dev{}", task.0, from.0, to.0),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: to.0,
                        tid: 63,
                        args: serde_json::Value::Null,
                    });
                }
                TraceEvent::HedgeWon { task, dev, at } => {
                    events.push(Ev {
                        name: format!("HEDGE WON task{}", task.0),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: dev.0,
                        tid: 63,
                        args: serde_json::Value::Null,
                    });
                }
                TraceEvent::CorruptionDetected { task, dev, at } => {
                    events.push(Ev {
                        name: format!("CORRUPT task{}", task.0),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: dev.0,
                        tid: 63,
                        args: serde_json::Value::Null,
                    });
                }
                TraceEvent::CircuitOpen { dev, at } => {
                    events.push(Ev {
                        name: format!("CIRCUIT OPEN device {}", dev.0),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: dev.0,
                        tid: 63,
                        args: serde_json::Value::Null,
                    });
                }
                TraceEvent::CircuitClose { dev, at } => {
                    events.push(Ev {
                        name: format!("CIRCUIT CLOSE device {}", dev.0),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: dev.0,
                        tid: 63,
                        args: serde_json::Value::Null,
                    });
                }
                TraceEvent::ImbalanceDetected { epoch, skew, at } => {
                    events.push(Ev {
                        name: format!("IMBALANCE epoch {epoch} (skew {skew:.2})"),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: platform.devices.len(),
                        tid: 63,
                        args: serde_json::json!({ "skew": skew }),
                    });
                }
                TraceEvent::Repartitioned {
                    epoch,
                    gpu_items,
                    cpu_items,
                    at,
                } => {
                    events.push(Ev {
                        name: format!(
                            "REPARTITION epoch {epoch} (gpu {gpu_items} / cpu {cpu_items})"
                        ),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: platform.devices.len(),
                        tid: 63,
                        args: serde_json::json!({ "gpu_items": gpu_items, "cpu_items": cpu_items }),
                    });
                }
                TraceEvent::StrategyEscalated { epoch, at } => {
                    events.push(Ev {
                        name: format!("ESCALATE epoch {epoch} -> DP-Perf"),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: platform.devices.len(),
                        tid: 63,
                        args: serde_json::Value::Null,
                    });
                }
                TraceEvent::CorrelatedFaultTriggered {
                    domain,
                    source,
                    sibling,
                    until,
                    at,
                } => {
                    events.push(Ev {
                        name: format!(
                            "CORRELATED domain {domain} dev{}->dev{}",
                            source.0, sibling.0
                        ),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: sibling.0,
                        tid: 63,
                        args: serde_json::json!({ "until_us": until.as_micros_f64() }),
                    });
                }
                TraceEvent::StrategyReinstated { epoch, at } => {
                    events.push(Ev {
                        name: format!("REINSTATE epoch {epoch} -> static plan"),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: platform.devices.len(),
                        tid: 63,
                        args: serde_json::Value::Null,
                    });
                }
                TraceEvent::PlanRepaired { dev, moved, at } => {
                    events.push(Ev {
                        name: format!("PLAN REPAIR after dev{} ({moved} moved)", dev.0),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: platform.devices.len(),
                        tid: 63,
                        args: serde_json::json!({ "moved": moved }),
                    });
                }
                TraceEvent::DeviceReadmitted { dev, moved, at } => {
                    events.push(Ev {
                        name: format!("READMIT dev{} ({moved} moved)", dev.0),
                        ph: "X",
                        ts: at.as_micros_f64(),
                        dur: 0.0,
                        pid: dev.0,
                        tid: 63,
                        args: serde_json::json!({ "moved": moved }),
                    });
                }
            }
        }
        serde_json::to_string_pretty(&events).expect("serializable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(task: usize, dev: usize, s: u64, e: u64) -> TraceEvent {
        TraceEvent::Task {
            task: TaskId(task),
            kernel: KernelId(0),
            dev: DeviceId(dev),
            items: 1,
            start: SimTime::from_millis(s),
            end: SimTime::from_millis(e),
        }
    }

    #[test]
    fn device_busy_sums_task_spans() {
        let trace = Trace {
            events: vec![t(0, 0, 0, 10), t(1, 0, 5, 20), t(2, 1, 0, 7)],
        };
        assert_eq!(trace.device_busy(DeviceId(0)), SimTime::from_millis(25));
        assert_eq!(trace.device_busy(DeviceId(1)), SimTime::from_millis(7));
    }

    #[test]
    fn gantt_renders_rows_per_device() {
        let platform = hetero_platform::Platform::test_small();
        let trace = Trace {
            events: vec![t(0, 0, 0, 50), t(1, 1, 50, 100)],
        };
        let g = trace.gantt(&platform, 20);
        assert_eq!(g.lines().count(), 3); // 2 devices + axis
        assert!(g.contains("test-cpu"));
        assert!(g.contains("test-gpu"));
    }

    #[test]
    fn chrome_export_is_valid_json_with_nonoverlapping_lanes() {
        let platform = hetero_platform::Platform::test_small();
        let trace = Trace {
            events: vec![t(0, 0, 0, 50), t(1, 0, 10, 60), t(2, 0, 55, 80)],
        };
        let json = trace.to_chrome_json(&platform);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = parsed.as_array().unwrap();
        assert_eq!(arr.len(), 3);
        // Overlapping tasks 0 and 1 get distinct lanes; task 2 reuses one.
        let lanes: Vec<(f64, f64, u64)> = arr
            .iter()
            .map(|e| {
                (
                    e["ts"].as_f64().unwrap(),
                    e["dur"].as_f64().unwrap(),
                    e["tid"].as_u64().unwrap(),
                )
            })
            .collect();
        assert_ne!(lanes[0].2, lanes[1].2);
        // No two events on the same lane overlap.
        for i in 0..lanes.len() {
            for j in i + 1..lanes.len() {
                if lanes[i].2 == lanes[j].2 {
                    let (a, b) = (&lanes[i], &lanes[j]);
                    assert!(a.0 + a.1 <= b.0 || b.0 + b.1 <= a.0);
                }
            }
        }
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let platform = hetero_platform::Platform::test_small();
        let g = Trace::default().gantt(&platform, 20);
        assert!(g.contains("empty trace"));
    }
}

//! Runtime observability: pluggable observer hooks, a metrics registry with
//! Prometheus/JSON export, and makespan blame attribution.
//!
//! Prior to this module each executor path hand-built a [`Trace`] behind a
//! `traced: bool` flag. The executor now emits every event through one
//! hook, [`Observer::on_event`], and trace recording, metrics collection
//! and user-defined sinks are all just observer implementations, each
//! matching the events it cares about:
//!
//! * [`NullObserver`] — the default; every hook is empty, and an unobserved
//!   run stays byte-identical to the pre-observer executor.
//! * [`TraceObserver`] — collects the full [`TraceEvent`] stream of a run
//!   passed to [`crate::execute`].
//! * [`MetricsObserver`] — feeds a [`MetricsRegistry`] of typed counters,
//!   gauges and log-bucketed histograms labeled by device/kernel/strategy.
//! * [`MultiObserver`] — fans one event stream out to several sinks.
//! * [`SnapshotObserver`] — live observability: emits one delta-encoded
//!   [`EpochSnapshot`] JSON line per committed taskwait barrier, with the
//!   invariant that [`fold_stream`] reconstructs the final registry
//!   byte-for-byte (fuzz oracle 9, `stream-fold-equivalence`).
//!
//! Post-hoc analyses over a collected [`Trace`]: [`SpanTree`] lifts the
//! flat event stream into a causal run → epoch → wave → task hierarchy
//! (folded stacks for speedscope, Chrome-trace flow arrows appended to
//! the events of [`Trace::to_chrome_json`], `hm_span_seconds` tiling);
//! [`RunDiff`] compares two metrics/report exports into a typed
//! per-series verdict table (`matchmake diff`).
//!
//! Observers are strictly *observational*: no hook can influence virtual
//! time, placement, or any other simulation outcome. Determinism of the
//! simulator therefore extends to everything an observer records.
//!
//! Blame attribution ([`TimeBreakdown`], [`CriticalPath`]) lives in
//! [`blame`] and is always on — the executor tracks where every slot-second
//! went regardless of which observer is installed, and publishes the result
//! as `RunReport::breakdown`.

pub mod blame;
pub mod diff;
pub mod metrics;
pub mod snapshot;
pub mod span;

pub use blame::{CriticalPath, DeviceBreakdown, PathKind, PathSegment, TimeBreakdown};
pub use diff::{DiffEntry, DiffVerdict, RunDiff};
pub use metrics::{
    LogHistogram, MetricsObserver, MetricsRegistry, Series, SeriesHandle, SeriesTable, SeriesValue,
};
pub use snapshot::{apply_snapshot, fold_stream, EpochSnapshot, OpenState, SnapshotObserver};
pub use span::{Span, SpanKind, SpanTree};

use crate::program::TaskId;
use crate::stats::RunReport;
use crate::trace::{Trace, TraceEvent};
use hetero_platform::{DeviceId, SimTime};

/// A sink for executor events. Every hook has an empty default body: an
/// implementation overrides only what it cares about.
///
/// The executor calls [`Observer::on_event`] with every [`TraceEvent`] it
/// would previously have pushed into a `Trace`, in exactly the same order.
/// Two hooks have no `TraceEvent` equivalent and are invoked directly:
/// [`Observer::on_task_bound`] (a task is placed on a device queue) and
/// [`Observer::on_run_end`] (the final [`RunReport`], including its blame
/// breakdown).
pub trait Observer {
    /// Every event, in emission order.
    fn on_event(&mut self, _ev: &TraceEvent) {}

    /// A task was bound to `dev` and enqueued; `queue_depth` is the device
    /// queue length including this task.
    fn on_task_bound(&mut self, _task: TaskId, _dev: DeviceId, _at: SimTime, _queue_depth: usize) {}

    /// The run finished; `report` is the final [`RunReport`] (with
    /// `breakdown` populated).
    fn on_run_end(&mut self, _report: &RunReport) {}
}

/// The do-nothing observer: every hook is the empty default. An
/// unobserved [`crate::execute`] run uses it.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Collects the full event stream into a [`Trace`]. Pass it to
/// [`crate::execute`] to trace a run; the resulting trace is identical to
/// what the executor used to build by hand.
#[derive(Clone, Debug, Default)]
pub struct TraceObserver {
    trace: Trace,
}

impl TraceObserver {
    /// A fresh, empty trace collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace collected so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consume the observer and return the collected trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl Observer for TraceObserver {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.trace.events.push(ev.clone());
    }
}

/// Fans one event stream out to several observers, in order.
#[derive(Default)]
pub struct MultiObserver<'a> {
    sinks: Vec<&'a mut dyn Observer>,
}

impl<'a> MultiObserver<'a> {
    /// An empty fan-out.
    pub fn new() -> Self {
        Self { sinks: Vec::new() }
    }

    /// Add a sink; returns `self` for chaining.
    pub fn with(mut self, obs: &'a mut dyn Observer) -> Self {
        self.sinks.push(obs);
        self
    }
}

impl Observer for MultiObserver<'_> {
    fn on_event(&mut self, ev: &TraceEvent) {
        for s in &mut self.sinks {
            s.on_event(ev);
        }
    }

    fn on_task_bound(&mut self, task: TaskId, dev: DeviceId, at: SimTime, queue_depth: usize) {
        for s in &mut self.sinks {
            s.on_task_bound(task, dev, at, queue_depth);
        }
    }

    fn on_run_end(&mut self, report: &RunReport) {
        for s in &mut self.sinks {
            s.on_run_end(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_event_feeds_trace_observer() {
        let mut obs = TraceObserver::new();
        let ev = TraceEvent::DeviceDropout {
            dev: DeviceId(1),
            at: SimTime::from_millis(3),
        };
        obs.on_event(&ev);
        assert_eq!(obs.trace().events.len(), 1);
    }

    #[test]
    fn multi_observer_fans_out() {
        let mut a = TraceObserver::new();
        let mut b = TraceObserver::new();
        {
            let mut multi = MultiObserver::new().with(&mut a).with(&mut b);
            let ev = TraceEvent::CircuitOpen {
                dev: DeviceId(2),
                at: SimTime::from_millis(1),
            };
            multi.on_event(&ev);
        }
        assert_eq!(a.trace().events.len(), 1);
        assert_eq!(b.trace().events.len(), 1);
    }
}

//! Streaming per-epoch metrics: pass a [`SnapshotObserver`] to
//! [`Analyzer::execute`](crate::Analyzer::execute) (any
//! [`RunSpec`](hetero_runtime::RunSpec)) and get a per-epoch delta-encoded
//! metrics feed alongside the final report — one `EpochSnapshot` JSON line
//! per committed taskwait barrier plus a final run-end line, delivered live
//! to a [`SnapshotObserver::with_sink`] callback. This is the feed behind
//! `matchmake run --metrics-stream <path>`. The hard invariant (fuzz oracle
//! 9, `stream-fold-equivalence`) is that
//! [`fold_stream`](hetero_runtime::fold_stream) over the emitted lines
//! reproduces the end-of-run
//! [`MetricsRegistry`](hetero_runtime::MetricsRegistry) byte-for-byte.

#[cfg(doc)]
use hetero_runtime::SnapshotObserver;

/// The strategy label streamed snapshots are tagged with, matching the
/// label `matchmake run`/`resume` use for journaled metrics exports.
pub const STREAM_STRATEGY_LABEL: &str = "journaled";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::Analyzer;
    use crate::descriptor::tests_support::toy_descriptor;
    use crate::descriptor::{AppDescriptor, ExecutionFlow};
    use crate::strategy::{ExecutionConfig, Strategy};
    use hetero_platform::{DeviceId, FaultSchedule, Platform, SimTime};
    use hetero_runtime::{fold_stream, RunSpec, SnapshotObserver};

    fn desc() -> AppDescriptor {
        let mut d = toy_descriptor(2, ExecutionFlow::Sequence);
        d.buffers[0].items = 1 << 18;
        for k in &mut d.kernels {
            k.domain = 1 << 18;
        }
        d.sync.between_kernels = true;
        d
    }

    #[test]
    fn streamed_run_folds_back_to_its_registry() {
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        let config = ExecutionConfig::Strategy(Strategy::SpVaried);
        let schedule = FaultSchedule::new(29).with_flaky(
            DeviceId(1),
            0.3,
            SimTime::ZERO,
            SimTime::from_millis(50),
        );
        let mut obs = SnapshotObserver::new(&platform, STREAM_STRATEGY_LABEL);
        let report = analyzer
            .execute(&desc(), config, &RunSpec::faulty(schedule), &mut obs, None)
            .expect("streamed run");
        assert!(!report.makespan.is_zero());
        assert!(obs.lines().len() >= 2, "per-epoch lines plus run-end line");
        let folded = fold_stream(&obs.stream()).expect("stream folds");
        assert_eq!(folded.to_json(), obs.registry().to_json());
    }

    #[test]
    fn live_sink_sees_every_line_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        let config = ExecutionConfig::Strategy(Strategy::SpVaried);
        let seen: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let tap = seen.clone();
        let mut obs =
            SnapshotObserver::new(&platform, STREAM_STRATEGY_LABEL).with_sink(move |line| {
                tap.borrow_mut().push(line.to_string());
            });
        analyzer
            .execute(&desc(), config, &RunSpec::plain(), &mut obs, None)
            .expect("streaming run");
        assert_eq!(*seen.borrow(), obs.lines());
    }
}

//! Runtime observability, end to end: a custom [`Observer`], the built-in
//! metrics registry with Prometheus/JSON export, blame attribution, and the
//! critical-path extractor — on a healthy run and under a mid-run GPU
//! dropout.
//!
//! Everything printed here is deterministic: CI runs this example twice and
//! diffs the output (including the full Prometheus and Chrome-trace
//! exports) byte for byte.
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use hetero_match::matchmaker::{ExecutionConfig, ExecutionFlow, Planner, Strategy};
use hetero_match::platform::{DeviceId, FaultSchedule, MemSpaceId, Platform, SimTime};
use hetero_match::runtime::{
    execute, CriticalPath, MetricsObserver, MultiObserver, Observer, PinnedScheduler, RunReport,
    RunSpec, TraceEvent, TraceObserver,
};

/// A user-defined observer: tallies the event stream without touching the
/// simulation. Implementations override only the hooks they care about.
#[derive(Default)]
struct EventTally {
    events: usize,
    tasks: usize,
    transfers: usize,
    transfer_bytes: u64,
    epochs: usize,
    faults: usize,
    makespan: SimTime,
}

impl Observer for EventTally {
    fn on_event(&mut self, _ev: &TraceEvent) {
        self.events += 1;
    }

    fn on_task_start(
        &mut self,
        _task: hetero_match::runtime::TaskId,
        _kernel: hetero_match::runtime::KernelId,
        _dev: DeviceId,
        _items: u64,
        _start: SimTime,
        _end: SimTime,
    ) {
        self.tasks += 1;
    }

    fn on_transfer(
        &mut self,
        _from: MemSpaceId,
        _to: MemSpaceId,
        bytes: u64,
        _start: SimTime,
        _end: SimTime,
    ) {
        self.transfers += 1;
        self.transfer_bytes += bytes;
    }

    fn on_epoch_end(&mut self, _epoch: usize, _start: SimTime, _end: SimTime) {
        self.epochs += 1;
    }

    fn on_fault(&mut self, _ev: &TraceEvent) {
        self.faults += 1;
    }

    fn on_run_end(&mut self, report: &RunReport) {
        self.makespan = report.makespan;
    }
}

fn main() {
    let platform = Platform::icpp15();
    let names: Vec<&str> = platform
        .devices
        .iter()
        .map(|d| d.spec.name.as_str())
        .collect();

    // SK-Loop with a taskwait per iteration: four epochs, so transfers,
    // flushes and per-epoch utilization gauges all show up.
    let app = hetero_match::apps::synth::single_kernel(
        "observed-loop",
        1 << 18,
        4096.0,
        ExecutionFlow::Loop { iterations: 4 },
        true,
    );
    let program = Planner::new(&platform)
        .plan(&app, ExecutionConfig::Strategy(Strategy::SpSingle))
        .program;

    // --- 1. Healthy run, three sinks fed by one event stream -------------
    let mut tally = EventTally::default();
    let mut metrics = MetricsObserver::new(&platform, "SP-Single");
    let mut tracer = TraceObserver::new();
    let report = {
        let mut multi = MultiObserver::new()
            .with(&mut tally)
            .with(&mut metrics)
            .with(&mut tracer);
        let spec = RunSpec::plain();
        execute(
            &program,
            &platform,
            &mut PinnedScheduler,
            &spec,
            None,
            &mut multi,
            None,
        )
        .expect("plain runs cannot fail")
    };
    println!("healthy SP-Single run: {}", report.makespan);
    println!(
        "custom observer saw {} events: {} tasks, {} transfers ({} bytes), {} epochs, {} faults",
        tally.events,
        tally.tasks,
        tally.transfers,
        tally.transfer_bytes,
        tally.epochs,
        tally.faults
    );
    assert_eq!(tally.makespan, report.makespan);

    // --- 2. Blame attribution --------------------------------------------
    println!("\nblame (slot time per device):");
    print!("{}", report.breakdown.render(&names));
    assert!(
        report.breakdown.identity_holds(),
        "components must sum to makespan × slots on every device"
    );

    // --- 3. Critical path -------------------------------------------------
    let path = CriticalPath::from_trace(tracer.trace());
    println!("\ncritical path: {}", path.summary());
    assert_eq!(path.end(), report.makespan);

    // --- 4. A faulty run through the same machinery ----------------------
    // The GPU drops out halfway; the fault stream reaches on_fault, the
    // lost capacity lands in the `dead` blame component, and the metrics
    // pick up the fault counters.
    let at = SimTime::from_secs_f64(report.makespan.as_secs_f64() / 2.0);
    let spec = RunSpec::faulty(FaultSchedule::new(2026).with_dropout(DeviceId(1), at));
    let mut faulty_metrics = MetricsObserver::new(&platform, "SP-Single/dropout");
    let faulty = execute(
        &program,
        &platform,
        &mut PinnedScheduler,
        &spec,
        None,
        &mut faulty_metrics,
        None,
    )
    .expect("valid schedule");
    println!("\nGPU dropout at {at}: makespan {}", faulty.makespan);
    println!("blame (slot time per device):");
    print!("{}", faulty.breakdown.render(&names));
    assert!(faulty.breakdown.identity_holds());

    // --- 5. Deterministic exports ----------------------------------------
    // Both runs merged into one registry; the renderings below are
    // byte-stable across replays (CI diffs a double run of this example).
    let mut registry = metrics.into_registry();
    registry.merge(faulty_metrics.registry());
    println!("\n--- prometheus export ---");
    print!("{}", registry.to_prometheus());
    println!("--- chrome trace export (healthy run) ---");
    println!("{}", tracer.trace().to_chrome_json(&platform));
}

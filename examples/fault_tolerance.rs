//! Fault tolerance: what happens to each partitioning strategy when the
//! platform fails mid-run?
//!
//! The scenario: a compute-heavy single-kernel application, planned for
//! the paper's healthy CPU+GPU testbed — and then the GPU drops out at 50%
//! of the healthy makespan. The resilient executor re-binds the lost work
//! to the CPU (the paper's Only-CPU baseline as failover target), restores
//! lost data from the last taskwait checkpoint, and completes the run.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use hetero_match::matchmaker::{Analyzer, ExecutionConfig, Planner, RunSpec, Strategy};
use hetero_match::platform::{DeviceId, FaultSchedule, Platform, SimTime};
use hetero_match::runtime::{
    execute, simulate, NullObserver, PerfScheduler, PinnedScheduler, Program, Scheduler,
};

fn main() {
    let platform = Platform::icpp15();
    let n = 1u64 << 20;
    let app = hetero_match::apps::synth::single_kernel(
        "resilient-compute",
        n,
        65536.0,
        hetero_match::matchmaker::ExecutionFlow::Sequence,
        false,
    );
    let planner = Planner::new(&platform);

    // --- 1. SP-Single survives a GPU dropout at 50% progress -------------
    let static_prog = planner
        .plan(&app, ExecutionConfig::Strategy(Strategy::SpSingle))
        .program;
    let healthy = simulate(&static_prog, &platform, &mut PinnedScheduler);
    let at = SimTime::from_secs_f64(healthy.makespan.as_secs_f64() / 2.0);
    let spec = RunSpec::faulty(FaultSchedule::new(2026).with_dropout(DeviceId(1), at));
    let faulty = |program: &Program, scheduler: &mut dyn Scheduler| {
        execute(
            program,
            &platform,
            scheduler,
            &spec,
            None,
            &mut NullObserver,
            None,
        )
        .expect("valid schedule")
    };

    let failed_over = faulty(&static_prog, &mut PinnedScheduler);
    let done: u64 = failed_over.counters.devices.iter().map(|c| c.items).sum();
    println!("SP-Single, GPU dropout at {at}:");
    println!("  healthy makespan   : {}", healthy.makespan);
    println!("  failed-over        : {}", failed_over.makespan);
    println!(
        "  items              : {done}/{n} (CPU {}, GPU {})",
        failed_over.counters.devices[0].items, failed_over.counters.devices[1].items
    );
    println!(
        "  faults             : {} dropout(s), {} failover(s), {} re-execution(s), {} lost",
        failed_over.faults.device_dropouts,
        failed_over.faults.failovers,
        failed_over.faults.reexecutions,
        failed_over.faults.time_lost
    );
    assert_eq!(done, n, "every item still processed exactly once");

    // --- 2. DP-Perf reroutes and beats the failed-over static plan -------
    let dynamic_prog = planner
        .plan(&app, ExecutionConfig::Strategy(Strategy::DpPerf))
        .program;
    let mut warmed = PerfScheduler::warmed(&dynamic_prog, &platform, &spec).expect("valid spec");
    let adaptive = faulty(&dynamic_prog, &mut warmed);
    println!("\nDP-Perf under the same dropout:");
    println!("  makespan           : {}", adaptive.makespan);
    println!(
        "  vs failed-over plan: {:.2}x faster",
        failed_over.makespan.as_secs_f64() / adaptive.makespan.as_secs_f64()
    );
    assert!(
        adaptive.makespan < failed_over.makespan,
        "dynamic rerouting must beat a stale static plan's failover storm"
    );

    // --- 3. Seeded faults replay byte-for-byte ---------------------------
    let replay = faulty(&static_prog, &mut PinnedScheduler);
    assert_eq!(replay.makespan, failed_over.makespan);
    assert_eq!(replay.faults, failed_over.faults);
    println!("\nreplay with the same seed: identical makespan and fault counters ✓");

    // --- 4. The matchmaker's robustness ranking --------------------------
    let analyzer = Analyzer::new(&platform);
    println!("\nrobustness ranking under this schedule (degradation = faulty/healthy):");
    for e in analyzer
        .rank_by_degradation(&app, &spec)
        .expect("valid spec")
    {
        println!(
            "  {:<16} {:>7.2}x   (healthy {}, faulty {}, resilience overhead {})",
            e.config.to_string(),
            e.degradation(),
            e.healthy.makespan,
            e.faulty.makespan,
            e.resilience_overhead()
        );
    }

    // --- 5. Blame attribution: where did the failed-over time go? --------
    // The breakdown decomposes `makespan × slots` per device: useful
    // compute, transfers, fault losses, capacity dead after the dropout,
    // and idle — and the books must balance exactly.
    let names: Vec<&str> = platform
        .devices
        .iter()
        .map(|d| d.spec.name.as_str())
        .collect();
    println!("\nSP-Single failed-over blame (slot time per device):");
    print!("{}", failed_over.breakdown.render(&names));
    assert!(
        failed_over.breakdown.identity_holds(),
        "blame components must sum to makespan × slots on every device"
    );
}

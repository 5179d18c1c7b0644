//! Multi-accelerator partitioning: CPU + K20m + Phi-class coprocessor.
//!
//! Glinda "supports various platforms, with one or more accelerators,
//! identical or non-identical", and the paper's future work targets other
//! accelerator types. This example plans a three-way static split on the
//! extended paper platform and shows it beating every smaller
//! configuration.
//!
//! ```sh
//! cargo run --release --example dual_accelerator
//! ```

use hetero_match::apps::synth;
use hetero_match::matchmaker::{ExecutionConfig, KernelSplit, Planner, Strategy};
use hetero_match::platform::Platform;
use hetero_match::runtime::{
    execute, simulate, PinnedScheduler, RunSpec, TraceObserver, DEFAULT_GANTT_WIDTH,
};

fn main() {
    let platform = Platform::icpp15_with_phi();
    println!("platform:");
    for d in &platform.devices {
        println!(
            "  {:<28} {:>2} slots, {:>6.0} GFLOPS SP, {:>5.0} GB/s",
            d.spec.name,
            d.spec.kind.slots(),
            d.spec.peak_gflops_sp,
            d.spec.mem_bandwidth_gbs
        );
    }

    // A compute-heavy single-kernel workload worth spreading three ways.
    let desc = synth::single_kernel(
        "spectral-transform",
        4 << 20,
        16384.0,
        hetero_match::matchmaker::ExecutionFlow::Sequence,
        false,
    );
    let planner = Planner::new(&platform);
    let plan = planner.plan(&desc, ExecutionConfig::Strategy(Strategy::SpSingle));
    let KernelSplit::Multi(split) = plan.kernel_configs[0].as_ref().unwrap() else {
        panic!("expected a multi-accelerator split");
    };
    let n = desc.kernels[0].domain;
    println!();
    println!("three-way static split of {n} items (equal-finish-time waterfilling):");
    println!(
        "  CPU   : {:>8} items ({:>5.1}%)",
        split.cpu_items,
        100.0 * split.cpu_items as f64 / n as f64
    );
    for (i, (&items, dev)) in split
        .accel_items
        .iter()
        .zip(platform.accelerators())
        .enumerate()
    {
        println!(
            "  acc{i} ({}) : {:>8} items ({:>5.1}%)",
            dev.spec.name,
            items,
            100.0 * items as f64 / n as f64
        );
    }

    println!();
    println!("{:<26} {:>12}", "configuration", "time");
    let mut tobs = TraceObserver::new();
    let spec = RunSpec::plain();
    let report = execute(
        &plan.program,
        &platform,
        &mut PinnedScheduler,
        &spec,
        None,
        &mut tobs,
        None,
    )
    .expect("plain runs cannot fail");
    let trace = tobs.into_trace();
    println!(
        "{:<26} {:>12}",
        "CPU + K20m + Phi (3-way)",
        report.makespan.to_string()
    );
    for (label, config) in [
        ("Only-GPU (K20m)", ExecutionConfig::OnlyGpu),
        ("Only-CPU", ExecutionConfig::OnlyCpu),
    ] {
        let p = planner.plan(&desc, config);
        let r = simulate(&p.program, &platform, &mut PinnedScheduler);
        println!("{:<26} {:>12}", label, r.makespan.to_string());
    }
    // Two-way split planned as if the Phi didn't exist.
    let two_way_platform = Platform::icpp15();
    let two_way =
        Planner::new(&two_way_platform).plan(&desc, ExecutionConfig::Strategy(Strategy::SpSingle));
    let r = simulate(&two_way.program, &platform, &mut PinnedScheduler);
    println!(
        "{:<26} {:>12}",
        "CPU + K20m (2-way)",
        r.makespan.to_string()
    );

    println!();
    println!("three-way timeline:");
    print!("{}", trace.gantt(&platform, DEFAULT_GANTT_WIDTH));
}

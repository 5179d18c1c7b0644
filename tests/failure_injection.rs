//! Failure injection / robustness: performance variability and degraded
//! hardware, the scenarios that motivate dynamic partitioning (cf. Boyer et
//! al. "Load Balancing in a Changing World" and Grewe et al.'s GPU
//! contention work cited in §VI).
//!
//! The static strategies bake profiling results into the plan; if the
//! hardware then degrades (thermal throttling, contention from another
//! tenant), the static split goes stale. A performance-aware dynamic
//! scheduler re-learns the rates at runtime. These tests inject such
//! perturbations through the runtime's `FaultSchedule` — the same seeded
//! fault machinery the resilience tests use — and verify both sides of the
//! trade-off.

use hetero_match::matchmaker::{Analyzer, ExecutionConfig, Planner, Strategy};
use hetero_match::platform::{FaultSchedule, Platform, RetryPolicy, SimTime};
use hetero_match::runtime::{
    execute, simulate, simulate_dp_perf_warmed, simulate_resilient, HealthConfig, NullObserver,
    PerfScheduler, PinnedScheduler, RunSpec,
};

/// The perturbation: from t=0 the GPU runs `slowdown` times slower than the
/// rates every plan was built against (contention from a co-tenant). The
/// schedule carries no transient faults, so runs under it are purely
/// throttled — deterministic for any seed.
fn gpu_contention(slowdown: f64) -> FaultSchedule {
    FaultSchedule::new(7).with_throttle(
        hetero_match::platform::DeviceId(1),
        SimTime::ZERO,
        SimTime::MAX,
        slowdown,
        slowdown,
    )
}

/// A compute-heavy single-kernel app where the (healthy) GPU dominates.
fn compute_app(n: u64) -> hetero_match::matchmaker::AppDescriptor {
    hetero_match::apps::synth::single_kernel(
        "contended",
        n,
        65536.0,
        hetero_match::matchmaker::ExecutionFlow::Sequence,
        false,
    )
}

#[test]
fn stale_static_plan_suffers_under_gpu_contention() {
    let platform = Platform::icpp15();
    let planner = Planner::new(&platform);
    let desc = compute_app(1 << 20);

    // Plan SP-Single against the healthy platform, then throttle the GPU 8x.
    let stale = planner
        .plan(&desc, ExecutionConfig::Strategy(Strategy::SpSingle))
        .program;
    let healthy = simulate(&stale, &platform, &mut PinnedScheduler);
    let degraded = simulate_resilient(
        &stale,
        &platform,
        &mut PinnedScheduler,
        &gpu_contention(8.0),
        RetryPolicy::default(),
        &HealthConfig::disabled(),
    );

    // The stale plan's makespan balloons (the GPU partition was sized for a
    // healthy GPU).
    assert!(
        degraded.makespan.as_secs_f64() > 3.0 * healthy.makespan.as_secs_f64(),
        "healthy {} vs degraded {}",
        healthy.makespan,
        degraded.makespan
    );
    // Throttling is not a fault: nothing retried, nothing failed over.
    assert_eq!(degraded.faults.faults_injected(), 0);
}

#[test]
fn dp_perf_adapts_to_gpu_contention() {
    let platform = Platform::icpp15();
    let planner = Planner::new(&platform);
    let desc = compute_app(1 << 20);
    let contention = gpu_contention(8.0);

    // Both plans built healthy; the world degrades before execution.
    let static_prog = planner
        .plan(&desc, ExecutionConfig::Strategy(Strategy::SpSingle))
        .program;
    let dynamic_prog = planner
        .plan(&desc, ExecutionConfig::Strategy(Strategy::DpPerf))
        .program;

    let stale_static = simulate_resilient(
        &static_prog,
        &platform,
        &mut PinnedScheduler,
        &contention,
        RetryPolicy::default(),
        &HealthConfig::disabled(),
    );
    // DP-Perf profiles at runtime (warm-up run also sees the throttled GPU).
    let spec = RunSpec::faulty(contention);
    let mut warmed = PerfScheduler::warmed(&dynamic_prog, &platform, &spec).unwrap();
    let adaptive = execute(
        &dynamic_prog,
        &platform,
        &mut warmed,
        &spec,
        None,
        &mut NullObserver,
        None,
    )
    .unwrap();

    assert!(
        adaptive.makespan < stale_static.makespan,
        "adaptive {} vs stale static {}",
        adaptive.makespan,
        stale_static.makespan
    );
    // And DP-Perf's placement shifted towards the CPU relative to the
    // healthy-world optimum.
    let healthy_share = {
        let healthy_prog = planner
            .plan(&desc, ExecutionConfig::Strategy(Strategy::DpPerf))
            .program;
        simulate_dp_perf_warmed(&healthy_prog, &platform).gpu_item_share()
    };
    assert!(
        adaptive.gpu_item_share() < healthy_share,
        "degraded share {} vs healthy share {}",
        adaptive.gpu_item_share(),
        healthy_share
    );
}

#[test]
fn replanning_restores_static_performance() {
    // The analyzer's answer to contention: re-profile and re-plan. A fresh
    // SP-Single plan on the degraded platform matches or beats adaptive
    // dynamic execution (Proposition 2 re-established).
    let degraded_platform = {
        let healthy = Platform::icpp15();
        let mut p = Platform::builder()
            .cpu(healthy.cpu().spec.clone())
            .accelerator(
                {
                    let mut g = healthy.gpu().unwrap().spec.clone();
                    g.peak_gflops_sp /= 8.0;
                    g.peak_gflops_dp /= 8.0;
                    g.mem_bandwidth_gbs /= 8.0;
                    g
                },
                healthy
                    .link(
                        hetero_match::platform::MemSpaceId::HOST,
                        healthy.gpu().unwrap().mem_space,
                    )
                    .unwrap()
                    .clone(),
            )
            .sched_overhead(healthy.sched_overhead)
            .build();
        p.sched_overhead = healthy.sched_overhead;
        p
    };
    let desc = compute_app(1 << 20);
    let analyzer = Analyzer::new(&degraded_platform);
    let fresh_static = analyzer.simulate(&desc, ExecutionConfig::Strategy(Strategy::SpSingle));
    let dynamic = analyzer.simulate(&desc, ExecutionConfig::Strategy(Strategy::DpPerf));
    assert!(
        fresh_static.makespan <= dynamic.makespan + SimTime::from_millis(1),
        "fresh static {} vs dynamic {}",
        fresh_static.makespan,
        dynamic.makespan
    );
}

#[test]
fn link_degradation_shifts_partitioning_to_cpu() {
    // PCIe contention: halving the link bandwidth must move the predicted
    // split towards the CPU for transfer-bound kernels (the G metric).
    let healthy = Platform::icpp15();
    let desc = hetero_match::apps::stream::descriptor(1 << 22, None, false);

    let slow_link = Platform::builder()
        .cpu(healthy.cpu().spec.clone())
        .accelerator(
            healthy.gpu().unwrap().spec.clone(),
            hetero_match::platform::LinkSpec::new(1.5, SimTime::from_micros(15)),
        )
        .sched_overhead(healthy.sched_overhead)
        .build();

    let healthy_share = Planner::new(&healthy)
        .decide_unified(&desc)
        .gpu_items(1 << 22) as f64;
    let slow_share = Planner::new(&slow_link)
        .decide_unified(&desc)
        .gpu_items(1 << 22) as f64;
    assert!(
        slow_share < healthy_share,
        "slow-link share {slow_share} vs healthy {healthy_share}"
    );
}

//! Degraded-mode plan repair: survivor re-planning on device death and
//! quarantine.
//!
//! PR 2's fault layer makes permanent device death *survivable*: queued
//! chunks fail over one by one to a fallback device — the host, in the
//! worst case — while any other accelerator idles. This example walks the
//! repair subsystem that makes survival *efficient*:
//!
//! 1. a **permanent GPU death** mid-BlackScholes on the dual-accelerator
//!    platform — naive failover strands the dead GPU's share on the host;
//!    plan repair re-solves the split over the survivors and rebinds the
//!    queued chunks onto the coprocessor;
//! 2. a **breaker reclose**: a flaky GPU is quarantined, probed after the
//!    cool-down, and — once clean — *readmitted* by the symmetric healing
//!    re-plan, which migrates the chunks stranded on the host back;
//! 3. the **planner-level API**: `Planner::replan_surviving` keeping the
//!    strategy over a shrunken accelerator set, downgrading to Only-CPU
//!    when only the host survives, and the typed errors for survivor sets
//!    it cannot plan for;
//! 4. byte-for-byte **determinism** of the repaired runs, and the `replan`
//!    blame component accounting for the repair's cost.
//!
//! ```sh
//! cargo run --release --example plan_repair
//! ```

use hetero_match::apps::blackscholes;
use hetero_match::matchmaker::{
    Analyzer, ExecutionConfig, Planner, ReplanConfig, ReplanError, RunSpec, Strategy,
};
use hetero_match::platform::{
    DeviceId, Efficiency, FaultSchedule, KernelProfile, Platform, Precision, RetryPolicy, SimTime,
};
use hetero_match::runtime::{
    execute, simulate_resilient, Access, AdaptConfig, BreakerConfig, HealthConfig, NullObserver,
    Observer, PinnedScheduler, Program, Region, TraceEvent, TraceObserver,
};

/// A compute-only kernel running at full efficiency everywhere: 400 Gflop/s
/// on `Platform::test_small`'s GPU vs 25 Gflop/s per CPU thread — losing
/// the GPU is expensive, and getting it back is worth a healing re-plan.
fn gpu_favored(flops_per_item: f64) -> KernelProfile {
    KernelProfile {
        flops_per_item,
        bytes_per_item: 0.0,
        fixed_flops: 0.0,
        fixed_bytes: 0.0,
        precision: Precision::Single,
        cpu_efficiency: Efficiency {
            compute: 1.0,
            bandwidth: 1.0,
        },
        gpu_efficiency: Efficiency {
            compute: 1.0,
            bandwidth: 1.0,
        },
    }
}

fn main() {
    let policy = RetryPolicy::default();

    // --- 1. Permanent GPU death: survivor re-plan ------------------------
    // BlackScholes under SP-Single on the CPU + K20m + Phi-class platform.
    // The K20m dies for good at 30% of the healthy makespan. Without
    // repair, its not-yet-started chunks fail over chunk-by-chunk to the
    // host while the coprocessor finishes early and idles. Plan repair
    // re-solves the remaining epochs over {host, coprocessor} at observed
    // rates and rebinds the queue.
    let platform = Platform::icpp15_with_phi();
    let analyzer = Analyzer::new(&platform);
    let desc = blackscholes::descriptor(1 << 20);
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let health = HealthConfig::disabled();

    let run = |spec: &RunSpec, obs: &mut dyn Observer| {
        analyzer
            .execute(&desc, config, spec, obs, None)
            .expect("valid spec")
    };
    let healthy = run(
        &RunSpec::resilient(FaultSchedule::new(11), health),
        &mut NullObserver,
    );
    let death = SimTime::from_secs_f64(0.3 * healthy.makespan.as_secs_f64());
    let schedule = FaultSchedule::new(11).with_dropout(DeviceId(1), death);

    let naive = run(
        &RunSpec::resilient(schedule.clone(), health),
        &mut NullObserver,
    );
    let repairing = RunSpec::repairing(
        schedule,
        health,
        AdaptConfig::disabled(),
        ReplanConfig::enabled_default(),
    );
    let mut tracer = TraceObserver::new();
    let repaired = run(&repairing, &mut tracer);
    assert!(
        repaired.adapt.replan_error.is_none(),
        "the host and the coprocessor survive"
    );

    println!("1. BlackScholes (SP-Single), K20m dies permanently at {death}:");
    println!("   healthy              : {}", healthy.makespan);
    println!("   naive host failover  : {}", naive.makespan);
    println!(
        "   plan repair          : {}  ({} repair(s))",
        repaired.makespan, repaired.adapt.replans
    );
    for (label, report) in [("naive", &naive), ("repaired", &repaired)] {
        let items: Vec<u64> = report.counters.devices.iter().map(|d| d.items).collect();
        println!(
            "   {label:<8} items      : host {}, K20m {}, coprocessor {}",
            items[0], items[1], items[2]
        );
    }
    for ev in &tracer.trace().events {
        if let TraceEvent::PlanRepaired { dev, moved, at } = ev {
            println!(
                "   PlanRepaired         : device {} lost, {moved} chunk(s) rebound at {at}",
                dev.0
            );
        }
    }
    assert!(
        repaired.adapt.replans >= 1,
        "the death must trigger a repair"
    );
    assert!(
        repaired.makespan < naive.makespan,
        "survivor re-planning must beat naive host failover"
    );
    assert!(
        repaired.counters.devices[2].items > naive.counters.devices[2].items,
        "the repair must shift work onto the surviving coprocessor"
    );

    // --- 2. Breaker reclose: healing readmission -------------------------
    // A producer -> prober chain plus 24 GPU-pinned workers on the small
    // symmetric platform. The GPU fails every attempt for its first 700us:
    // two retry storms trip the breaker at ~660us and the worker queue
    // drains to the (16x slower per slot) CPU. The producer finishes while
    // the circuit is half-open, so its dependent GPU-pinned prober is let
    // through as the probe; the GPU is clean again, the circuit recloses,
    // and the healing re-plan migrates the stranded workers back.
    let platform2 = Platform::test_small();
    let mut b = Program::builder();
    let pipe = b.buffer("pipe", 1000, 4);
    let work = b.buffer("work", 24_000, 4);
    let k_prod = b.kernel("produce", gpu_favored(22_500.0)); // 900us on one CPU thread
    let k_work = b.kernel("work", gpu_favored(40_000.0)); // 100us GPU, 1.6ms CPU thread
    b.submit_pinned(
        k_prod,
        1000,
        vec![Access::write(Region::new(pipe, 0, 1000))],
        DeviceId(0),
    );
    b.submit_pinned(
        k_work,
        200,
        vec![Access::read(Region::new(pipe, 0, 1000))],
        DeviceId(1),
    );
    for i in 0..24u64 {
        b.submit_pinned(
            k_work,
            1000,
            vec![Access::read_write(Region::new(
                work,
                i * 1000,
                (i + 1) * 1000,
            ))],
            DeviceId(1),
        );
    }
    let program = b.build();
    let flaky = FaultSchedule::new(61).with_flaky(
        DeviceId(1),
        1.0,
        SimTime::ZERO,
        SimTime::from_micros(700),
    );
    let breaker = HealthConfig {
        breaker: Some(BreakerConfig {
            trip_after: 2,
            cooldown: SimTime::from_micros(100),
        }),
        ..HealthConfig::disabled()
    };
    let stranded = simulate_resilient(
        &program,
        &platform2,
        &mut PinnedScheduler,
        &flaky,
        policy,
        &breaker,
    );
    let healing = RunSpec::repairing(
        flaky,
        breaker,
        AdaptConfig::disabled(),
        ReplanConfig::enabled_default(),
    );
    let mut tobs = TraceObserver::new();
    let healed = execute(
        &program,
        &platform2,
        &mut PinnedScheduler,
        &healing,
        None,
        &mut tobs,
        None,
    )
    .expect("valid spec");
    let trace = tobs.into_trace();
    println!("\n2. flaky GPU quarantined, then readmitted on reclose:");
    println!(
        "   breaker              : {} open(s), {} probe(s), {} close(s)",
        healed.health.circuit_opens, healed.health.probes, healed.health.circuit_closes
    );
    println!("   stranded on the CPU  : {}", stranded.makespan);
    println!(
        "   healing re-plan      : {}  ({} readmission(s))",
        healed.makespan, healed.adapt.readmissions
    );
    for ev in &trace.events {
        if let TraceEvent::DeviceReadmitted { dev, moved, at } = ev {
            println!(
                "   DeviceReadmitted     : device {} healed, {moved} chunk(s) migrated back at {at}",
                dev.0
            );
        }
    }
    assert!(healed.health.circuit_closes >= 1, "the probe must reclose");
    assert!(
        healed.adapt.readmissions >= 1,
        "the reclose must trigger a healing re-plan"
    );
    assert!(
        healed.makespan < stranded.makespan,
        "readmitting the healed GPU must beat leaving its work stranded"
    );

    // --- 3. The planner-level API: downgrade and typed errors ------------
    let planner = Planner::new(&platform);
    let two_way = planner
        .replan_surviving(
            &desc,
            config,
            &[DeviceId(0), DeviceId(2)],
            None,
            &[None, None],
        )
        .expect("host + coprocessor is plannable");
    let host_only = planner
        .replan_surviving(&desc, config, &[DeviceId(0)], None, &[None, None])
        .expect("the host alone is plannable");
    let nobody = planner
        .replan_surviving(&desc, config, &[], None, &[None, None])
        .expect_err("an empty survivor set is not plannable");
    let headless = planner
        .replan_surviving(
            &desc,
            config,
            &[DeviceId(1), DeviceId(2)],
            None,
            &[None, None],
        )
        .expect_err("a survivor set without the host is not plannable");
    println!("\n3. Planner::replan_surviving on the degraded platform:");
    let multi = two_way.multi.as_ref().expect("one accelerator re-solved");
    println!(
        "   host + coprocessor   : {} survives over {} accelerator(s) (CPU {} / coprocessor {} items)",
        two_way.config,
        two_way.accels.len(),
        multi.cpu_items,
        multi.accel_items.iter().sum::<u64>()
    );
    println!(
        "   host only            : downgraded to {}, {} accelerator(s)",
        host_only.config,
        host_only.accels.len()
    );
    println!("   no survivors         : {nobody}");
    println!("   host itself dead     : {headless}");
    assert_eq!(two_way.config, config, "the strategy survives the re-solve");
    assert!(matches!(host_only.config, ExecutionConfig::OnlyCpu));
    assert!(host_only.multi.is_none());
    assert!(matches!(nobody, ReplanError::NoSurvivingAccelerator));
    assert!(matches!(headless, ReplanError::SolverInfeasible { .. }));

    // --- 4. Seeded repairs replay byte-for-byte --------------------------
    let replay = run(&repairing, &mut NullObserver);
    assert!(
        replay.adapt.replan_error.is_none(),
        "same schedule, same survivors"
    );
    assert_eq!(replay.makespan, repaired.makespan);
    assert_eq!(replay.adapt, repaired.adapt);
    assert_eq!(replay.breakdown, repaired.breakdown);
    println!("\nreplay with the same seed: identical makespan, adapt report and blame breakdown ✓");

    // --- 5. Blame: the repair's cost is visible, not hidden --------------
    let names: Vec<&str> = platform
        .devices
        .iter()
        .map(|d| d.spec.name.as_str())
        .collect();
    println!("\nrepaired-run blame (K20m died at {death}):");
    print!("{}", repaired.breakdown.render(&names));
    assert!(repaired.breakdown.identity_holds());
}

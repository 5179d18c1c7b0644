//! Gray failures: what happens when a device degrades without ever
//! *failing*?
//!
//! PR 1's fault machinery handles fail-stop faults — attempts abort,
//! devices drop out, and the runtime notices immediately. This example
//! walks the three gray-failure modes that no retry loop ever sees, and
//! the health subsystem that closes the gap:
//!
//! 1. a **straggler** (mid-run 4x GPU throttle) hedged around by the
//!    watchdog — first finisher wins;
//! 2. **silent data corruption** caught by duplicate-check verification at
//!    the taskwait barrier and rolled back to the epoch checkpoint;
//! 3. a **flaky** device quarantined by the circuit breaker, probed after
//!    a cool-down, and readmitted once it behaves.
//!
//! ```sh
//! cargo run --release --example gray_failures
//! ```

use hetero_match::platform::{
    DeviceId, Efficiency, FaultSchedule, KernelProfile, Platform, Precision, RetryPolicy, SimTime,
};
use hetero_match::runtime::{
    simulate, simulate_resilient, Access, BreakerConfig, HealthConfig, PinnedScheduler, Program,
    Region, VerificationPolicy, WatchdogConfig,
};

/// A compute-bound kernel whose effective rate is identical on
/// `Platform::test_small`'s GPU and on one of its CPU slots (25 Gflop/s
/// each), so a hedge costs exactly what the unthrottled primary would.
fn balanced_profile(flops_per_item: f64) -> KernelProfile {
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
            compute: 0.0625,
            bandwidth: 1.0,
        },
    }
}

fn gpu_chain(per_task: u64, tasks: u64, flops_per_item: f64) -> Program {
    let mut b = Program::builder();
    let x = b.buffer("x", tasks * per_task, 4);
    let k = b.kernel("k", balanced_profile(flops_per_item));
    for i in 0..tasks {
        b.submit_pinned(
            k,
            per_task,
            vec![Access::read_write(Region::new(
                x,
                i * per_task,
                (i + 1) * per_task,
            ))],
            DeviceId(1),
        );
    }
    b.build()
}

fn main() {
    let platform = Platform::test_small();
    let policy = RetryPolicy::default();

    // --- 1. Straggler: watchdog + hedging --------------------------------
    // Four serialized GPU tasks; the GPU throttles 4x from mid-run onward.
    // Every attempt still "succeeds", so the fail-stop executor just
    // waits. The watchdog notices each attempt running 50% past its
    // prediction and hedges it onto an idle CPU slot.
    let program = gpu_chain(1 << 16, 4, 400_000.0);
    let healthy = simulate(&program, &platform, &mut PinnedScheduler);
    let mid = SimTime::from_secs_f64(healthy.makespan.as_secs_f64() / 2.0);
    let straggler =
        FaultSchedule::new(2026).with_throttle(DeviceId(1), mid, SimTime::MAX, 4.0, 4.0);

    let fail_stop = simulate_resilient(
        &program,
        &platform,
        &mut PinnedScheduler,
        &straggler,
        policy,
        &HealthConfig::disabled(),
    );
    let hedging = HealthConfig {
        watchdog: Some(WatchdogConfig {
            slack: 1.5,
            hedging: true,
        }),
        ..HealthConfig::disabled()
    };
    let hedged = simulate_resilient(
        &program,
        &platform,
        &mut PinnedScheduler,
        &straggler,
        policy,
        &hedging,
    );
    println!("1. straggler: GPU throttles 4x at {mid}");
    println!("   healthy makespan     : {}", healthy.makespan);
    println!("   fail-stop (blind)    : {}", fail_stop.makespan);
    println!(
        "   hedged               : {}  ({} hedge(s), {} won, {} reclaimed)",
        hedged.makespan,
        hedged.health.hedges_issued,
        hedged.health.hedges_won,
        hedged.health.time_hedged
    );
    assert!(
        hedged.makespan < fail_stop.makespan,
        "hedging around the straggler must beat waiting it out"
    );

    // --- 2. Silent data corruption: DupCheck + rollback ------------------
    // Two epochs of four tasks each; every successful GPU attempt corrupts
    // its output. Without verification the run "succeeds" with wrong
    // results; DupCheck re-executes each task on a peer at the barrier and
    // rolls corrupt epochs back to their checkpoint.
    let mut b = Program::builder();
    let x = b.buffer("x", 8000, 4);
    let k = b.kernel("k", balanced_profile(2500.0));
    for epoch in 0..2u64 {
        for i in 0..4u64 {
            let j = epoch * 4 + i;
            b.submit_pinned(
                k,
                1000,
                vec![Access::read_write(Region::new(x, j * 1000, (j + 1) * 1000))],
                DeviceId(if i < 2 { 1 } else { 0 }),
            );
        }
        if epoch == 0 {
            b.taskwait();
        }
    }
    let two_epochs = b.build();
    let sdc =
        FaultSchedule::new(7).with_silent_corruption(DeviceId(1), 1.0, SimTime::ZERO, SimTime::MAX);

    let unchecked = HealthConfig::disabled();
    let silent = simulate_resilient(
        &two_epochs,
        &platform,
        &mut PinnedScheduler,
        &sdc,
        policy,
        &unchecked,
    );
    let checking = HealthConfig {
        verification: VerificationPolicy::DupCheck { sample_rate: 1.0 },
        ..HealthConfig::disabled()
    };
    let checked = simulate_resilient(
        &two_epochs,
        &platform,
        &mut PinnedScheduler,
        &sdc,
        policy,
        &checking,
    );
    println!("\n2. silent corruption on every GPU task:");
    println!(
        "   unverified           : {} corrupt result(s) committed, 0 detected",
        silent.health.corrupt_committed
    );
    println!(
        "   DupCheck             : {} detected, {} rollback(s), {} committed corrupt",
        checked.health.corruptions_detected,
        checked.health.epoch_rollbacks,
        checked.health.corrupt_committed
    );
    println!(
        "   verification cost    : {} task(s) re-checked, {} of simulated time",
        checked.health.tasks_verified, checked.health.time_verifying
    );
    assert!(silent.health.corrupt_committed >= 1);
    assert_eq!(checked.health.corrupt_committed, 0, "final commit is clean");

    // --- 3. Flaky device: circuit breaker --------------------------------
    // The GPU fails every attempt for its first millisecond, then
    // recovers. Three consecutive retry exhaustions trip the breaker; the
    // quarantined queue drains to the CPU; after the cool-down one probe
    // task is let through and, now clean, re-closes the circuit.
    let mut b = Program::builder();
    let x = b.buffer("x", 28_000, 4);
    let k = b.kernel("k", balanced_profile(2500.0));
    for i in 0..8u64 {
        b.submit_pinned(
            k,
            1000,
            vec![Access::read_write(Region::new(x, i * 1000, (i + 1) * 1000))],
            DeviceId(1),
        );
    }
    for i in 8..24u64 {
        b.submit_pinned(
            k,
            1000,
            vec![Access::read_write(Region::new(x, i * 1000, (i + 1) * 1000))],
            DeviceId(0),
        );
    }
    b.taskwait();
    for i in 24..28u64 {
        b.submit_pinned(
            k,
            1000,
            vec![Access::read_write(Region::new(x, i * 1000, (i + 1) * 1000))],
            DeviceId(1),
        );
    }
    let flaky_prog = b.build();
    let flaky =
        FaultSchedule::new(61).with_flaky(DeviceId(1), 1.0, SimTime::ZERO, SimTime::from_millis(1));
    let breaker = HealthConfig {
        breaker: Some(BreakerConfig {
            trip_after: 3,
            cooldown: SimTime::from_micros(150),
        }),
        ..HealthConfig::disabled()
    };
    let guarded = simulate_resilient(
        &flaky_prog,
        &platform,
        &mut PinnedScheduler,
        &flaky,
        policy,
        &breaker,
    );
    println!("\n3. flaky GPU (every attempt fails for 1ms):");
    println!(
        "   breaker              : {} open(s), {} probe(s), {} close(s)",
        guarded.health.circuit_opens, guarded.health.probes, guarded.health.circuit_closes
    );
    for q in &guarded.health.quarantine {
        match q.until {
            Some(until) => println!(
                "   quarantine           : device {} [{} .. {}]",
                q.dev.0, q.from, until
            ),
            None => println!(
                "   quarantine           : device {} [{} .. run end]",
                q.dev.0, q.from
            ),
        }
    }
    println!(
        "   final health scores  : CPU {:.3}, GPU {:.3}",
        guarded.health.scores[0], guarded.health.scores[1]
    );
    println!(
        "   GPU readmitted       : {} item(s) after the circuit re-closed",
        guarded.counters.devices[1].items
    );
    assert_eq!(guarded.health.circuit_closes, 1);

    // --- 4. Seeded gray failures replay byte-for-byte --------------------
    let replay = simulate_resilient(
        &program,
        &platform,
        &mut PinnedScheduler,
        &straggler,
        policy,
        &hedging,
    );
    assert_eq!(replay.makespan, hedged.makespan);
    assert_eq!(replay.health, hedged.health);
    println!("\nreplay with the same seed: identical makespan and health report ✓");
}

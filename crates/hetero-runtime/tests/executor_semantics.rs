//! Virtual-time executor semantics, validated on the round-number
//! `Platform::test_small()` (CPU: 4 slots, 100 GFLOPS, 50 GB/s aggregate;
//! GPU: 1 slot, 400 GFLOPS, 200 GB/s; link 10 GB/s, zero latencies/overheads).

use hetero_platform::{DeviceId, KernelProfile, Platform, SimTime};
use hetero_runtime::{
    simulate, Access, DepScheduler, PerfScheduler, PinnedScheduler, Program, Region,
};

const CPU: DeviceId = DeviceId(0);
const GPU: DeviceId = DeviceId(1);

/// 1e9 flops/item => 1 item = 1s on a 1 GFLOPS slot. On test_small:
/// CPU slot = 25 GFLOPS => 40ms/item; GPU = 400 GFLOPS => 2.5ms/item.
fn compute_kernel() -> KernelProfile {
    KernelProfile::compute_only(1e9)
}

#[test]
fn single_cpu_task_runs_for_roofline_time() {
    let mut b = Program::builder();
    let x = b.buffer("x", 10, 4);
    let k = b.kernel("k", compute_kernel());
    b.submit_pinned(k, 10, vec![Access::read_write(Region::new(x, 0, 10))], CPU);
    let p = b.build();
    let r = simulate(&p, &Platform::test_small(), &mut PinnedScheduler);
    // 10 items * 40ms = 400ms; no transfers (host data), no flush needed.
    assert_eq!(r.makespan, SimTime::from_millis(400));
    assert_eq!(r.counters.transfers.count, 0);
    assert_eq!(r.counters.sched_decisions, 0);
}

#[test]
fn gpu_task_pays_transfers_in_and_flush_out() {
    let mut b = Program::builder();
    // 10 items x 4 bytes = 40 B in; out buffer 10 items x 4 B = 40 B.
    let x = b.buffer("x", 10, 4);
    let y = b.buffer("y", 10, 4);
    let k = b.kernel("k", compute_kernel());
    b.submit_pinned(
        k,
        10,
        vec![
            Access::read(Region::new(x, 0, 10)),
            Access::write(Region::new(y, 0, 10)),
        ],
        GPU,
    );
    let p = b.build();
    let r = simulate(&p, &Platform::test_small(), &mut PinnedScheduler);
    // Upload 40B at 10GB/s = 4ns; exec 10 * 2.5ms; flush 40B down = 4ns.
    let expect = SimTime::from_nanos(4) + SimTime::from_millis(25) + SimTime::from_nanos(4);
    assert_eq!(r.makespan, expect);
    assert_eq!(r.counters.transfers.count, 2);
    assert_eq!(r.counters.transfers.bytes, 80);
}

#[test]
fn independent_cpu_tasks_run_concurrently_on_slots() {
    let mut b = Program::builder();
    let x = b.buffer("x", 40, 4);
    let k = b.kernel("k", compute_kernel());
    for i in 0..4u64 {
        b.submit_pinned(
            k,
            10,
            vec![Access::read_write(Region::new(x, i * 10, (i + 1) * 10))],
            CPU,
        );
    }
    let p = b.build();
    let r = simulate(&p, &Platform::test_small(), &mut PinnedScheduler);
    // 4 slots, 4 tasks of 400ms each => 400ms, not 1600ms.
    assert_eq!(r.makespan, SimTime::from_millis(400));
}

#[test]
fn fifth_task_waits_for_a_free_slot() {
    let mut b = Program::builder();
    let x = b.buffer("x", 50, 4);
    let k = b.kernel("k", compute_kernel());
    for i in 0..5u64 {
        b.submit_pinned(
            k,
            10,
            vec![Access::read_write(Region::new(x, i * 10, (i + 1) * 10))],
            CPU,
        );
    }
    let p = b.build();
    let r = simulate(&p, &Platform::test_small(), &mut PinnedScheduler);
    assert_eq!(r.makespan, SimTime::from_millis(800));
}

#[test]
fn dependent_tasks_serialize() {
    let mut b = Program::builder();
    let x = b.buffer("x", 10, 4);
    let k = b.kernel("k", compute_kernel());
    for _ in 0..3 {
        b.submit_pinned(k, 10, vec![Access::read_write(Region::new(x, 0, 10))], CPU);
    }
    let p = b.build();
    let r = simulate(&p, &Platform::test_small(), &mut PinnedScheduler);
    assert_eq!(r.makespan, SimTime::from_millis(1200));
}

#[test]
fn taskwait_flush_forces_reupload_each_iteration() {
    // SK-Loop shape: the same GPU task iterated with a taskwait per
    // iteration re-uploads its data every time (flush invalidates).
    let iters = 4;
    let mut b = Program::builder();
    let x = b.buffer("x", 1000, 4);
    let k = b.kernel("k", compute_kernel());
    for _ in 0..iters {
        b.submit_pinned(
            k,
            1000,
            vec![Access::read_write(Region::new(x, 0, 1000))],
            GPU,
        );
        b.taskwait();
    }
    let p = b.build();
    let r = simulate(&p, &Platform::test_small(), &mut PinnedScheduler);
    // Each iteration: 4000B up + 4000B down.
    assert_eq!(r.counters.transfers.count, 2 * iters);
    assert_eq!(r.counters.transfers.bytes, 2 * iters * 4000);
}

#[test]
fn no_sync_keeps_data_on_device_single_round_trip() {
    // SP-Unified shape: chained kernels on the GPU with no taskwait incur
    // exactly one upload and one final flush download.
    let mut b = Program::builder();
    let x = b.buffer("x", 1000, 4);
    let y = b.buffer("y", 1000, 4);
    let k1 = b.kernel("k1", compute_kernel());
    let k2 = b.kernel("k2", compute_kernel());
    b.submit_pinned(
        k1,
        1000,
        vec![
            Access::read(Region::new(x, 0, 1000)),
            Access::write(Region::new(y, 0, 1000)),
        ],
        GPU,
    );
    b.submit_pinned(
        k2,
        1000,
        vec![Access::read_write(Region::new(y, 0, 1000))],
        GPU,
    );
    let p = b.build();
    let r = simulate(&p, &Platform::test_small(), &mut PinnedScheduler);
    // One upload of x (4000B), no movement of y between kernels, one
    // download of y (4000B) at the final flush. x was never dirtied.
    assert_eq!(r.counters.transfers.count, 2);
    assert_eq!(r.counters.transfers.bytes, 8000);
}

#[test]
fn dynamic_scheduling_charges_overhead() {
    let mut spec = Platform::test_small();
    spec.sched_overhead = SimTime::from_micros(10);
    let mut b = Program::builder();
    let x = b.buffer("x", 40, 4);
    let k = b.kernel("k", compute_kernel());
    for i in 0..4u64 {
        b.submit_dynamic(
            k,
            10,
            vec![Access::read_write(Region::new(x, i * 10, (i + 1) * 10))],
        );
    }
    let p = b.build();
    let mut sched = DepScheduler::new(&spec);
    let r = simulate(&p, &spec, &mut sched);
    assert_eq!(r.counters.sched_decisions, 4);
    assert_eq!(r.counters.sched_overhead, SimTime::from_micros(40));
    // DP-Dep round-robin over 5 slots: first 4 instances land on CPU slots.
    assert_eq!(r.counters.devices[GPU.0].tasks, 0);
}

#[test]
fn dep_scheduler_chain_affinity_avoids_transfers() {
    // Partition a buffer in two; iterate a dependent kernel over each half
    // without sync. DP-Dep keeps each chain on its first device.
    let mut b = Program::builder();
    let x = b.buffer("x", 2000, 4);
    let k = b.kernel("k", compute_kernel());
    for _ in 0..3 {
        for (s, e) in [(0u64, 1000u64), (1000, 2000)] {
            b.submit_dynamic(k, e - s, vec![Access::read_write(Region::new(x, s, e))]);
        }
    }
    let p = b.build();
    let platform = Platform::test_small();
    let mut sched = DepScheduler::new(&platform);
    let r = simulate(&p, &platform, &mut sched);
    // Round-robin puts both chains on CPU slots 0 and 1; chains never move,
    // so zero transfers happen at all.
    assert_eq!(r.counters.transfers.count, 0);
}

#[test]
fn perf_scheduler_finds_the_faster_device() {
    // A compute-heavy kernel with many instances: after warm-up DP-Perf
    // should route the bulk of instances to the 16x-faster GPU.
    let mut b = Program::builder();
    let n = 32_000u64;
    let x = b.buffer("x", n, 4);
    let k = b.kernel("k", compute_kernel());
    for (s, e) in hetero_runtime::split_even(n, 32) {
        b.submit_dynamic(k, e - s, vec![Access::read_write(Region::new(x, s, e))]);
    }
    let p = b.build();
    let platform = Platform::test_small();
    let r = hetero_runtime::simulate_dp_perf_warmed(&p, &platform);
    assert!(
        r.gpu_item_share() > 0.7,
        "expected GPU-dominant placement, got {}",
        r.gpu_item_share()
    );
    // And DP-Perf beats DP-Dep on this workload (Proposition 1).
    let mut dep = DepScheduler::new(&platform);
    let r_dep = simulate(&p, &platform, &mut dep);
    assert!(r.makespan < r_dep.makespan);
}

#[test]
fn perf_scheduler_plain_run_profiles_each_device() {
    let mut b = Program::builder();
    let n = 6400u64;
    let x = b.buffer("x", n, 4);
    let k = b.kernel("k", compute_kernel());
    for (s, e) in hetero_runtime::split_even(n, 8) {
        b.submit_dynamic(k, e - s, vec![Access::read_write(Region::new(x, s, e))]);
    }
    let p = b.build();
    let platform = Platform::test_small();
    let mut sched = PerfScheduler::new(&platform);
    let r = simulate(&p, &platform, &mut sched);
    // Warm-up guarantees both devices saw at least 3 instances.
    assert!(r.counters.devices[CPU.0].tasks >= 3);
    assert!(r.counters.devices[GPU.0].tasks >= 3);
}

#[test]
fn makespan_at_least_critical_path_and_at_most_serial() {
    let mut b = Program::builder();
    let x = b.buffer("x", 100, 4);
    let k = b.kernel("k", compute_kernel());
    for (s, e) in hetero_runtime::split_even(100, 10) {
        b.submit_pinned(
            k,
            e - s,
            vec![Access::read_write(Region::new(x, s, e))],
            CPU,
        );
    }
    let p = b.build();
    let r = simulate(&p, &Platform::test_small(), &mut PinnedScheduler);
    let per_task = SimTime::from_millis(400);
    assert!(r.makespan >= per_task);
    assert!(r.makespan <= per_task * 10);
    // 10 tasks over 4 slots => ceil(10/4) = 3 waves.
    assert_eq!(r.makespan, per_task * 3);
}

#[test]
fn empty_program_is_instant() {
    let p = Program::builder().build();
    let r = simulate(&p, &Platform::test_small(), &mut PinnedScheduler);
    assert_eq!(r.makespan, SimTime::ZERO);
}

#[test]
fn report_partitioning_ratio_matches_pinning() {
    let mut b = Program::builder();
    let x = b.buffer("x", 100, 4);
    let k = b.kernel("k", compute_kernel());
    b.submit_pinned(k, 30, vec![Access::read_write(Region::new(x, 0, 30))], GPU);
    b.submit_pinned(
        k,
        70,
        vec![Access::read_write(Region::new(x, 30, 100))],
        CPU,
    );
    let p = b.build();
    let r = simulate(&p, &Platform::test_small(), &mut PinnedScheduler);
    assert!((r.gpu_item_share() - 0.3).abs() < 1e-12);
    assert!((r.cpu_item_share() - 0.7).abs() < 1e-12);
}

#[test]
fn determinism_same_inputs_same_report() {
    let build = || {
        let mut b = Program::builder();
        let x = b.buffer("x", 5000, 4);
        let k = b.kernel("k", compute_kernel());
        for (s, e) in hetero_runtime::split_even(5000, 16) {
            b.submit_dynamic(k, e - s, vec![Access::read_write(Region::new(x, s, e))]);
        }
        b.build()
    };
    let platform = Platform::test_small();
    let r1 = simulate(&build(), &platform, &mut DepScheduler::new(&platform));
    let r2 = simulate(&build(), &platform, &mut DepScheduler::new(&platform));
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.counters, r2.counters);
}

#[test]
fn traced_run_matches_untraced_report() {
    let mut b = Program::builder();
    let x = b.buffer("x", 4000, 4);
    let k = b.kernel("k", compute_kernel());
    for (s, e) in hetero_runtime::split_even(4000, 8) {
        b.submit_dynamic(k, e - s, vec![Access::read_write(Region::new(x, s, e))]);
    }
    b.taskwait();
    for (s, e) in hetero_runtime::split_even(4000, 8) {
        b.submit_dynamic(k, e - s, vec![Access::read_write(Region::new(x, s, e))]);
    }
    let p = b.build();
    let platform = Platform::test_small();

    let plain = {
        let mut s = hetero_runtime::DepScheduler::new(&platform);
        hetero_runtime::simulate(&p, &platform, &mut s)
    };
    let (traced, trace) = {
        let mut s = hetero_runtime::DepScheduler::new(&platform);
        let mut obs = hetero_runtime::TraceObserver::new();
        let spec = hetero_runtime::RunSpec::plain();
        let report =
            hetero_runtime::execute(&p, &platform, &mut s, &spec, None, &mut obs, None).unwrap();
        (report, obs.into_trace())
    };
    assert_eq!(plain.makespan, traced.makespan);
    assert_eq!(plain.counters, traced.counters);

    // Trace consistency: one task event per instance, spans within the
    // makespan, per-device busy matches the counters.
    let task_events = trace.tasks().count();
    assert_eq!(task_events, p.task_count());
    for (_, _, start, end) in trace.tasks() {
        assert!(start <= end);
        assert!(*end <= traced.makespan);
    }
    for d in 0..platform.devices.len() {
        assert_eq!(
            trace.device_busy(DeviceId(d)),
            traced.counters.devices[d].busy,
            "device {d}"
        );
    }

    // A flush event per taskwait plus the final implicit one.
    let flushes = trace
        .events
        .iter()
        .filter(|e| matches!(e, hetero_runtime::TraceEvent::Flush { .. }))
        .count();
    assert_eq!(flushes, 2);

    // The gantt renders one row per device plus an axis.
    let g = trace.gantt(&platform, 40);
    assert_eq!(g.lines().count(), platform.devices.len() + 1);
}

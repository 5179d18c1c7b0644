//! Adaptive repartitioning: what happens when the *model* is wrong?
//!
//! PRs 1–2 made the runtime survive faults the hardware announces (or at
//! least exhibits). This example walks the failure mode where nothing is
//! broken at all: the planner profiled the platform badly, and a static
//! strategy executes a mispredicted split at full hardware health. The
//! adaptive controller closes the loop at taskwait barriers:
//!
//! 1. a **mispredicted profile** (the planner saw the GPU at half speed)
//!    detected from per-epoch busy-time skew and corrected by re-solving
//!    the split from *observed* throughputs;
//! 2. **escalation**: when re-solving is exhausted without reaching the
//!    balance target, the static plan falls back to its dynamic sibling
//!    (SP-Single → DP-Perf, the Table I escalation) seeded with the run's
//!    own observations;
//! 3. **mid-run drift** (a GPU throttle while the plan was solved for full
//!    speed) — the same loop re-balances against rates the planner could
//!    never have measured up front.
//!
//! ```sh
//! cargo run --release --example adaptive_rebalance
//! ```

use hetero_match::apps::synth;
use hetero_match::matchmaker::{
    Analyzer, AppDescriptor, ExecutionConfig, ExecutionFlow, RunSpec, Strategy,
};
use hetero_match::platform::{DeviceId, FaultSchedule, Platform, SimTime};
use hetero_match::runtime::{AdaptConfig, HealthConfig, NullObserver};

/// SK-Loop: 8 iterations of a compute-heavy kernel with a taskwait between
/// iterations — 8 barriers for the controller to observe and correct at.
fn app() -> AppDescriptor {
    synth::single_kernel(
        "rebalance",
        1 << 20,
        65536.0,
        ExecutionFlow::Loop { iterations: 8 },
        true,
    )
}

fn main() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let health = HealthConfig::disabled();
    let run = |spec: &RunSpec| {
        analyzer
            .execute(&desc, config, spec, &mut NullObserver, None)
            .expect("valid spec")
    };

    // --- 1. Mispredicted profile: detect + re-solve ----------------------
    // The planner profiled the GPU at half its true throughput; the
    // SP-Single split under-offloads and every epoch leaves the GPU idle
    // while the CPU grinds. Execution itself is untouched.
    let halved =
        FaultSchedule::new(42).with_profile_perturb(DeviceId(1), 0.5, SimTime::ZERO, SimTime::MAX);
    let oracle = run(&RunSpec::resilient(halved.clone(), health));
    let mispredicted = run(&RunSpec::adaptive(
        halved.clone(),
        health,
        AdaptConfig::disabled(),
    ));
    let adaptive = run(&RunSpec::adaptive(
        halved.clone(),
        health,
        AdaptConfig::enabled_default(),
    ));
    let gap = mispredicted.makespan.as_secs_f64() - oracle.makespan.as_secs_f64();
    let recovered = mispredicted.makespan.as_secs_f64() - adaptive.makespan.as_secs_f64();
    println!("1. planner saw the GPU at half speed (SP-Single, 8 epochs):");
    println!("   oracle (true profile): {}", oracle.makespan);
    println!("   mispredicted (blind) : {}", mispredicted.makespan);
    println!(
        "   adaptive             : {}  ({} imbalanced barrier(s), {} re-solve(s), {} items moved)",
        adaptive.makespan,
        adaptive.adapt.imbalances_detected,
        adaptive.adapt.repartitions,
        adaptive.adapt.items_moved
    );
    println!(
        "   skew                 : {:.3} max -> {:.3} final, {:.0}% of the gap recovered",
        adaptive.adapt.max_skew,
        adaptive.adapt.final_skew,
        100.0 * recovered / gap
    );
    assert!(adaptive.makespan < mispredicted.makespan);
    assert!(!adaptive.adapt.escalated, "re-solving restored balance");

    // --- 2. Escalation: SP-Single -> DP-Perf -----------------------------
    // Same misprediction, but repartitioning is disabled: every trigger
    // burns a re-solve that cannot help, and after `max_resolves` misses
    // the static plan hands its remaining pinned tasks to an internal
    // DP-Perf scheduler seeded with the observed rates.
    let stubborn = AdaptConfig {
        repartition: false,
        max_resolves: 1,
        ..AdaptConfig::enabled_default()
    };
    let escalated = run(&RunSpec::adaptive(halved.clone(), health, stubborn));
    println!("\n2. re-solving disabled, escalation after 1 miss:");
    println!(
        "   escalated            : at epoch {} barrier, {} task(s) handed to DP-Perf",
        escalated.adapt.escalated_at_epoch.expect("escalated"),
        escalated.adapt.escalated_tasks
    );
    println!(
        "   makespan             : {} (vs {} riding the bad plan)",
        escalated.makespan, mispredicted.makespan
    );
    assert!(escalated.adapt.escalated);
    assert!(escalated.makespan < mispredicted.makespan);

    // --- 3. Mid-run drift: the profile *was* right -----------------------
    // The plan was solved from a faithful profile, but the CPU throttles
    // 2.5x from mid-run onward (a DVFS/thermal event, as a ThrottleRamp).
    // The same barrier loop re-solves from the observed — now throttled —
    // rates and shifts the CPU's chunks onto the GPU. (The reverse drift,
    // a GPU throttle, is not repairable here: SP-Single emits the GPU
    // share as one chunk, and region splits are baked into the plan.)
    let healthy = run(&RunSpec::resilient(FaultSchedule::new(7), health));
    let mid = SimTime::from_secs_f64(healthy.makespan.as_secs_f64() / 2.0);
    let drift = FaultSchedule::new(7).with_throttle(DeviceId(0), mid, SimTime::MAX, 2.5, 2.5);
    let blind = run(&RunSpec::adaptive(
        drift.clone(),
        health,
        AdaptConfig::disabled(),
    ));
    let rebalanced = run(&RunSpec::adaptive(
        drift.clone(),
        health,
        AdaptConfig::enabled_default(),
    ));
    println!("\n3. CPU throttles 2.5x at {mid} (plan was faithful):");
    println!("   no throttle          : {}", healthy.makespan);
    println!("   static plan (blind)  : {}", blind.makespan);
    println!(
        "   adaptive             : {}  ({} re-solve(s), {} items moved, escalated: {})",
        rebalanced.makespan,
        rebalanced.adapt.repartitions,
        rebalanced.adapt.items_moved,
        rebalanced.adapt.escalated
    );
    assert!(
        rebalanced.makespan < blind.makespan,
        "rebalancing must beat riding the stale plan"
    );

    // --- 4. Seeded adaptation replays byte-for-byte ----------------------
    let replay = run(&RunSpec::adaptive(
        halved.clone(),
        health,
        AdaptConfig::enabled_default(),
    ));
    assert_eq!(replay.makespan, adaptive.makespan);
    assert_eq!(replay.adapt, adaptive.adapt);
    assert_eq!(replay.breakdown, adaptive.breakdown);
    println!("\nreplay with the same seed: identical makespan, adapt report and blame breakdown ✓");

    // --- 5. Blame: adaptation overhead is visible, not hidden ------------
    let names: Vec<&str> = platform
        .devices
        .iter()
        .map(|d| d.spec.name.as_str())
        .collect();
    println!("\nadaptive-run blame (planner saw the GPU at half speed):");
    print!("{}", adaptive.breakdown.render(&names));
    assert!(adaptive.breakdown.identity_holds());
}

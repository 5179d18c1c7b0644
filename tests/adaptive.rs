//! End-to-end acceptance for adaptive repartitioning (PR 3).
//!
//! A seeded `ProfilePerturb` halves the planner's GPU-throughput estimate:
//! the static SP-Single plan under-offloads, and the run is imbalanced at
//! every taskwait barrier while execution proceeds at the platform's true
//! rates. The adaptive controller must (a) detect the skew, (b) re-solve
//! the split from observed throughputs and recover most of the makespan
//! gap versus the oracle (unskewed) plan, (c) escalate to DP-Perf *only*
//! when re-solving is exhausted, and (d) replay byte-identically from the
//! same seed. With adaptation off and no perturbation, the adaptive entry
//! point must be byte-identical to the resilient executor.

use hetero_match::apps::synth;
use hetero_match::matchmaker::{
    AccessPattern, Analyzer, AppDescriptor, BufferSpec, ExecutionConfig, ExecutionFlow, KernelSpec,
    Planner, RunSpec, Strategy, SyncPolicy,
};
use hetero_match::platform::{
    DeviceId, Efficiency, FaultSchedule, KernelProfile, Platform, Precision, SimTime,
};
use hetero_match::runtime::{
    execute, AccessMode, AdaptConfig, AdaptPlan, HealthConfig, NullObserver, PinnedScheduler,
    RunReport,
};
use proptest::prelude::*;

/// One unobserved, unjournaled analyzer run of `spec`.
fn run(
    analyzer: &Analyzer,
    desc: &AppDescriptor,
    config: ExecutionConfig,
    spec: &RunSpec,
) -> RunReport {
    analyzer
        .execute(desc, config, spec, &mut NullObserver, None)
        .unwrap()
}

/// SK-Loop: 8 iterations of a compute-heavy kernel with a taskwait between
/// iterations, so the controller gets 7 barriers to observe and correct.
fn app() -> AppDescriptor {
    synth::single_kernel(
        "adaptive",
        1 << 20,
        65536.0,
        ExecutionFlow::Loop { iterations: 8 },
        true,
    )
}

/// The planner-visible GPU rate is halved for the whole run; true
/// execution rates are untouched (that is the point of `ProfilePerturb`).
fn halved_gpu_profile(seed: u64) -> FaultSchedule {
    FaultSchedule::new(seed).with_profile_perturb(DeviceId(1), 0.5, SimTime::ZERO, SimTime::MAX)
}

const CONFIG: ExecutionConfig = ExecutionConfig::Strategy(Strategy::SpSingle);

#[test]
fn misprediction_hurts_and_repartitioning_recovers_the_gap() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let schedule = halved_gpu_profile(42);
    let health = HealthConfig::disabled();

    // Oracle: the faithful plan. The perturbation only skews profiling, so
    // executing the unskewed plan under the schedule costs nothing.
    let oracle = run(
        &analyzer,
        &desc,
        CONFIG,
        &RunSpec::resilient(schedule.clone(), health),
    );
    assert_eq!(oracle.makespan, analyzer.simulate(&desc, CONFIG).makespan);

    // Mispredicted baseline: the skewed plan, no mitigation.
    let mis = run(
        &analyzer,
        &desc,
        CONFIG,
        &RunSpec::adaptive(schedule.clone(), health, AdaptConfig::disabled()),
    );
    assert!(
        mis.makespan > oracle.makespan,
        "halving the planner's GPU estimate must cost makespan \
         (mis {:?} vs oracle {:?})",
        mis.makespan,
        oracle.makespan
    );

    // Adaptive run: detect, re-solve, re-pin.
    let adaptive = run(
        &analyzer,
        &desc,
        CONFIG,
        &RunSpec::adaptive(schedule.clone(), health, AdaptConfig::enabled_default()),
    );
    assert!(adaptive.adapt.imbalances_detected >= 1);
    assert!(adaptive.adapt.repartitions >= 1, "{:?}", adaptive.adapt);
    assert!(adaptive.adapt.items_moved > 0);
    // Re-solving fixed the balance, so escalation never became legal.
    assert!(!adaptive.adapt.escalated, "{:?}", adaptive.adapt);
    assert!(adaptive.adapt.final_skew < adaptive.adapt.max_skew);

    let gap = mis.makespan.as_secs_f64() - oracle.makespan.as_secs_f64();
    let recovered = mis.makespan.as_secs_f64() - adaptive.makespan.as_secs_f64();
    assert!(
        recovered >= 0.6 * gap,
        "adaptation must recover >= 60% of the misprediction gap \
         (recovered {:.3e} of {:.3e}s, {:.0}%)",
        recovered,
        gap,
        100.0 * recovered / gap
    );
}

#[test]
fn escalation_fires_only_when_resolves_are_exhausted() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let schedule = halved_gpu_profile(42);
    let health = HealthConfig::disabled();

    // Repartitioning disabled: every trigger burns a "re-solve" that
    // cannot help, so after `max_resolves` misses the plan escalates.
    let cfg = AdaptConfig {
        repartition: false,
        max_resolves: 1,
        ..AdaptConfig::enabled_default()
    };
    let escalated = run(
        &analyzer,
        &desc,
        CONFIG,
        &RunSpec::adaptive(schedule.clone(), health, cfg),
    );
    assert!(escalated.adapt.escalated, "{:?}", escalated.adapt);
    assert_eq!(escalated.adapt.repartitions, 0);
    assert!(escalated.adapt.escalated_at_epoch.is_some());
    assert!(escalated.adapt.escalated_tasks > 0);

    // The escalated DP-Perf (seeded from the run's own observations)
    // still beats riding the mispredicted plan to the end.
    let mis = run(
        &analyzer,
        &desc,
        CONFIG,
        &RunSpec::adaptive(schedule.clone(), health, AdaptConfig::disabled()),
    );
    assert!(
        escalated.makespan < mis.makespan,
        "escalated {:?} vs mispredicted {:?}",
        escalated.makespan,
        mis.makespan
    );

    // Plenty of re-solve budget with working repartitioning: the balance
    // target is met again before the budget runs out, so no escalation.
    let repaired = run(
        &analyzer,
        &desc,
        CONFIG,
        &RunSpec::adaptive(schedule.clone(), health, AdaptConfig::enabled_default()),
    );
    assert!(!repaired.adapt.escalated);
}

#[test]
fn adaptive_runs_replay_byte_identically() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let health = HealthConfig::disabled();
    for cfg in [
        AdaptConfig::enabled_default(),
        AdaptConfig {
            repartition: false,
            max_resolves: 1,
            ..AdaptConfig::enabled_default()
        },
    ] {
        let a = run(
            &analyzer,
            &desc,
            CONFIG,
            &RunSpec::adaptive(halved_gpu_profile(42), health, cfg),
        );
        let b = run(
            &analyzer,
            &desc,
            CONFIG,
            &RunSpec::adaptive(halved_gpu_profile(42), health, cfg),
        );
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed must replay the identical run ({cfg:?})"
        );
    }
}

#[test]
fn disabled_adaptation_without_perturbation_matches_resilient_exactly() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let schedule = FaultSchedule::new(7); // no events at all
    let health = HealthConfig::disabled();

    let resilient = run(
        &analyzer,
        &desc,
        CONFIG,
        &RunSpec::resilient(schedule.clone(), health),
    );
    let adaptive_off = run(
        &analyzer,
        &desc,
        CONFIG,
        &RunSpec::adaptive(schedule.clone(), health, AdaptConfig::disabled()),
    );
    assert_eq!(
        serde_json::to_string(&resilient).unwrap(),
        serde_json::to_string(&adaptive_off).unwrap(),
        "adaptation off + no perturbation must be byte-identical to the resilient path"
    );

    // A well-predicted plan stays balanced: the controller observes but
    // never escalates.
    let adaptive_on = run(
        &analyzer,
        &desc,
        CONFIG,
        &RunSpec::adaptive(schedule.clone(), health, AdaptConfig::enabled_default()),
    );
    assert!(adaptive_on.adapt.barriers_observed > 0);
    assert!(!adaptive_on.adapt.escalated);
}

#[test]
fn degradation_ranking_with_adaptation_is_deterministic_and_complete() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = app();
    let schedule = halved_gpu_profile(42);
    let health = HealthConfig::disabled();
    let adapt = AdaptConfig::enabled_default();

    let entries = analyzer
        .rank_by_degradation(&desc, &RunSpec::adaptive(schedule.clone(), health, adapt))
        .unwrap();
    // Baselines + the SK-Loop ranking (SP-Single, DP-Perf, DP-Dep).
    assert_eq!(entries.len(), 5);
    assert!(entries
        .iter()
        .any(|e| e.config == ExecutionConfig::Strategy(Strategy::SpSingle)));
    // Sorted by degradation, most robust first.
    for w in entries.windows(2) {
        assert!(w[0].degradation() <= w[1].degradation() + 1e-12);
    }
    // The single-device baselines never consulted the mispredicted model.
    for e in &entries {
        if matches!(
            e.config,
            ExecutionConfig::OnlyCpu | ExecutionConfig::OnlyGpu
        ) {
            assert!((e.degradation() - 1.0).abs() < 1e-9, "{}", e.config);
        }
    }
    let again = analyzer
        .rank_by_degradation(&desc, &RunSpec::adaptive(schedule.clone(), health, adapt))
        .unwrap();
    for (a, b) in entries.iter().zip(&again) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.faulty.makespan, b.faulty.makespan);
    }
}

/// MK-Loop with two kernels of *opposite* device affinity over the same
/// buffer: `gpu_leaning` is compute-dense and efficient on the GPU,
/// `cpu_leaning` runs its best on the host. SP-Varied gives each kernel
/// its own split; what the adaptation controller must preserve.
fn opposed_affinity_app() -> AppDescriptor {
    let n = 1u64 << 20;
    let profile = |cpu: f64, gpu: f64| KernelProfile {
        flops_per_item: 65536.0,
        bytes_per_item: 8.0,
        fixed_flops: 0.0,
        fixed_bytes: 0.0,
        precision: Precision::Single,
        cpu_efficiency: Efficiency {
            compute: cpu,
            bandwidth: 0.6,
        },
        gpu_efficiency: Efficiency {
            compute: gpu,
            bandwidth: 0.7,
        },
    };
    AppDescriptor {
        name: "opposed".into(),
        buffers: vec![BufferSpec {
            name: "data".into(),
            items: n,
            item_bytes: 8,
        }],
        kernels: vec![
            KernelSpec {
                name: "gpu_leaning".into(),
                profile: profile(0.15, 0.45),
                domain: n,
                accesses: vec![AccessPattern::part(0, AccessMode::InOut)],
                weights: None,
            },
            KernelSpec {
                name: "cpu_leaning".into(),
                profile: profile(0.60, 0.02),
                domain: n,
                accesses: vec![AccessPattern::part(0, AccessMode::InOut)],
                weights: None,
            },
        ],
        flow: ExecutionFlow::Loop { iterations: 4 },
        sync: SyncPolicy::FULL,
    }
}

/// PR 8 satellite regression: SP-Varied adaptation must re-solve *each
/// kernel's own* problem against that kernel's observed rates. The old
/// SP-Single projection (kernel 0's problem, whole-device aggregate
/// rates) mis-repins when kernels have opposite affinities — the blended
/// CPU rate, inflated by `cpu_leaning`'s throughput, drags the
/// GPU-friendly epochs toward the host. Both paths face the same
/// mispredicted profile; the per-kernel re-solve must strictly beat the
/// projection.
#[test]
fn sp_varied_adaptation_resolves_each_kernel_not_the_sp_single_projection() {
    let platform = Platform::icpp15();
    let desc = opposed_affinity_app();
    let config = ExecutionConfig::Strategy(Strategy::SpVaried);
    // The planner profiled a perturbed platform: its GPU estimate is half
    // the true rate, so every kernel's static split under-offloads.
    let mut planner = Planner::new(&platform);
    planner.profile_skew = (1.0, 0.5);
    let plan = planner.plan(&desc, config);
    let adapt_plan = planner
        .adapt_plan(&desc, config)
        .expect("SP-Varied on a hybrid app yields an adapt plan");
    let per_kernel = adapt_plan
        .per_kernel
        .as_ref()
        .expect("multi-kernel SP-Varied plan must carry per-kernel splits");
    assert_eq!(per_kernel.len(), 2);
    assert_ne!(
        per_kernel[0].solution.gpu_items, per_kernel[1].solution.gpu_items,
        "opposite affinities must produce different splits"
    );

    // Execution itself is fault-free: the error lives in the profile.
    let schedule = FaultSchedule::new(3);
    let health = HealthConfig::disabled();
    let adapt = AdaptConfig {
        escalation: false,
        ..AdaptConfig::enabled_default()
    };
    let run = |cfg: &AdaptConfig, ap: Option<AdaptPlan>| {
        execute(
            &plan.program,
            &platform,
            &mut PinnedScheduler,
            &RunSpec::adaptive(schedule.clone(), health, *cfg),
            ap,
            &mut NullObserver,
            None,
        )
        .unwrap()
    };

    let mis = run(&AdaptConfig::disabled(), None);
    // The old approximation: strip the per-kernel splits, leaving kernel
    // 0's problem and the aggregate-rate re-solve.
    let projected = run(
        &adapt,
        Some(AdaptPlan {
            per_kernel: None,
            ..adapt_plan.clone()
        }),
    );
    let varied = run(&adapt, Some(adapt_plan.clone()));

    assert!(
        varied.adapt.repartitions >= 1,
        "per-kernel re-solve must fire: {:?}",
        varied.adapt
    );
    assert!(
        varied.makespan < mis.makespan,
        "per-kernel adaptation must recover misprediction (varied {:?} vs mispredicted {:?})",
        varied.makespan,
        mis.makespan
    );
    assert!(
        varied.makespan < projected.makespan,
        "per-kernel re-solve must beat the SP-Single projection \
         (varied {:?} vs projected {:?})",
        varied.makespan,
        projected.makespan
    );

    // Byte-determinism of the new path: same seed, same run.
    let again = run(&adapt, Some(adapt_plan.clone()));
    assert_eq!(
        serde_json::to_string(&varied).unwrap(),
        serde_json::to_string(&again).unwrap()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The controller never oscillates: every corrective action consumes a
    /// fresh imbalance trigger, so actions are bounded by detections, which
    /// are bounded by the program's barriers — on any seeded mix of
    /// profile misprediction and mid-run throttling. And the whole run is
    /// a pure function of the seed.
    #[test]
    fn controller_actions_are_bounded_and_deterministic(
        seed in 0u64..1_000,
        factor in prop_oneof![0.25f64..0.8, 1.25f64..4.0],
        ramp in any::<bool>(),
    ) {
        let platform = Platform::icpp15();
        let analyzer = Analyzer::new(&platform);
        let desc = app();
        let mut schedule = FaultSchedule::new(seed)
            .with_profile_perturb(DeviceId(1), factor, SimTime::ZERO, SimTime::MAX);
        if ramp {
            schedule = schedule.with_throttle(
                DeviceId(0),
                SimTime::ZERO,
                SimTime::from_millis(200),
                1.0,
                2.0,
            );
        }
        let health = HealthConfig::disabled();
        let adapt = AdaptConfig::enabled_default();

        let r = run(&analyzer, &desc, CONFIG, &RunSpec::adaptive(schedule.clone(), health, adapt));
        // 8 epochs: 7 taskwait barriers plus the end-of-program flush.
        prop_assert!(r.adapt.barriers_observed <= 8);
        prop_assert!(r.adapt.imbalances_detected <= r.adapt.barriers_observed);
        let actions = r.adapt.repartitions + u64::from(r.adapt.escalated);
        prop_assert!(
            actions <= r.adapt.imbalances_detected,
            "{} actions from {} detections: {:?}",
            actions, r.adapt.imbalances_detected, r.adapt
        );
        prop_assert_eq!(r.adapt.escalated, r.adapt.escalated_at_epoch.is_some());
        prop_assert!(r.adapt.final_skew <= r.adapt.max_skew);

        let r2 = run(&analyzer, &desc, CONFIG, &RunSpec::adaptive(schedule.clone(), health, adapt));
        prop_assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    /// With escalation off, every correction passes the no-regression
    /// guard, so adaptation never loses to riding the mispredicted plan.
    #[test]
    fn repartitioning_never_loses_to_the_mispredicted_plan(
        seed in 0u64..1_000,
        factor in prop_oneof![0.3f64..0.85, 1.2f64..3.0],
    ) {
        let platform = Platform::icpp15();
        let analyzer = Analyzer::new(&platform);
        let desc = app();
        let schedule = FaultSchedule::new(seed)
            .with_profile_perturb(DeviceId(1), factor, SimTime::ZERO, SimTime::MAX);
        let health = HealthConfig::disabled();

        let mis = run(&analyzer, &desc, CONFIG, &RunSpec::adaptive(schedule.clone(), health, AdaptConfig::disabled()));
        let cfg = AdaptConfig { escalation: false, ..AdaptConfig::enabled_default() };
        let adaptive = run(&analyzer, &desc, CONFIG, &RunSpec::adaptive(schedule.clone(), health, cfg));
        prop_assert!(
            adaptive.makespan.as_secs_f64() <= mis.makespan.as_secs_f64() * (1.0 + 1e-9),
            "adaptive {:?} worse than mispredicted {:?} (factor {}, {:?})",
            adaptive.makespan, mis.makespan, factor, adaptive.adapt
        );
    }
}

//! Serde round-trips for every serialisable boundary type: the CLI feeds
//! descriptors through JSON, the harness dumps run matrices, and traces
//! export to Chrome JSON — all of these must survive a round trip intact.

use hetero_match::apps::{blackscholes, stream, synth};
use hetero_match::matchmaker::{
    Analyzer, AppDescriptor, ExecutionConfig, ExecutionFlow, Planner, RunSpec, Strategy,
};
use hetero_match::platform::{
    DeviceId, FaultCounters, FaultSchedule, FaultTrace, Platform, RetryPolicy, SimTime,
};
use hetero_match::runtime::{
    execute, simulate_resilient, AdaptConfig, AdaptReport, BreakerConfig, HealthConfig,
    HealthReport, NullObserver, PinnedScheduler, Program, RunReport, Trace, TraceObserver,
    VerificationPolicy, WatchdogConfig,
};

#[test]
fn descriptor_roundtrips_through_json() {
    for desc in [
        blackscholes::paper_descriptor(),
        stream::paper_loop(true),
        hetero_match::apps::binomial::descriptor(4096, 128),
        hetero_match::apps::synth::dag("d", 1024, 4, 32.0),
    ] {
        let json = serde_json::to_string(&desc).unwrap();
        let back: AppDescriptor = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(back.name, desc.name);
        assert_eq!(back.kernels.len(), desc.kernels.len());
        assert_eq!(back.buffers.len(), desc.buffers.len());
        assert_eq!(back.flow, desc.flow);
        assert_eq!(back.sync, desc.sync);
        for (a, b) in back.kernels.iter().zip(&desc.kernels) {
            assert_eq!(a.profile, b.profile);
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.weights, b.weights);
        }
        // And the round-tripped descriptor plans to an identical program.
        let platform = Platform::icpp15();
        let planner = Planner::new(&platform);
        let p1 = planner.plan(&desc, ExecutionConfig::OnlyCpu).program;
        let p2 = planner.plan(&back, ExecutionConfig::OnlyCpu).program;
        assert_eq!(p1.task_count(), p2.task_count());
        for ((_, t1), (_, t2)) in p1.tasks().iter().zip(p2.tasks().iter()) {
            assert_eq!(t1.items, t2.items);
            assert_eq!(t1.accesses, t2.accesses);
            assert_eq!(t1.cost_scale, t2.cost_scale);
        }
    }
}

#[test]
fn program_and_report_roundtrip() {
    let platform = Platform::icpp15();
    let planner = Planner::new(&platform);
    let desc = stream::descriptor(1 << 16, None, true);
    let program = planner
        .plan(&desc, ExecutionConfig::Strategy(Strategy::SpVaried))
        .program;

    let json = serde_json::to_string(&program).unwrap();
    let back: Program = serde_json::from_str(&json).unwrap();
    back.validate().unwrap();
    assert_eq!(back.task_count(), program.task_count());
    assert_eq!(back.epochs(), program.epochs());

    // Simulating the round-tripped program is identical.
    let r1 = hetero_match::runtime::simulate(&program, &platform, &mut PinnedScheduler);
    let r2 = hetero_match::runtime::simulate(&back, &platform, &mut PinnedScheduler);
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.counters, r2.counters);

    // Reports round-trip too.
    let rj = serde_json::to_string(&r1).unwrap();
    let rb: RunReport = serde_json::from_str(&rj).unwrap();
    assert_eq!(rb.makespan, r1.makespan);
    assert_eq!(rb.counters, r1.counters);
    assert_eq!(rb.gpu_item_share(), r1.gpu_item_share());
}

#[test]
fn trace_roundtrips_and_chrome_export_parses() {
    let platform = Platform::icpp15();
    let planner = Planner::new(&platform);
    let desc = blackscholes::descriptor(1 << 18);
    let program = planner
        .plan(&desc, ExecutionConfig::Strategy(Strategy::SpSingle))
        .program;
    let mut tobs = TraceObserver::new();
    let spec = RunSpec::plain();
    execute(
        &program,
        &platform,
        &mut PinnedScheduler,
        &spec,
        None,
        &mut tobs,
        None,
    )
    .unwrap();
    let trace = tobs.into_trace();
    assert!(!trace.events.is_empty());

    let json = serde_json::to_string(&trace).unwrap();
    let back: Trace = serde_json::from_str(&json).unwrap();
    assert_eq!(back.events, trace.events);

    let chrome = trace.to_chrome_json(&platform);
    let parsed: serde_json::Value = serde_json::from_str(&chrome).unwrap();
    assert!(parsed.as_array().unwrap().len() >= trace.events.len());
}

#[test]
fn fault_schedule_and_retry_policy_roundtrip() {
    // A schedule exercising every event kind and a correlated domain.
    let schedule = FaultSchedule::new(42)
        .with_profile_perturb(
            DeviceId(1),
            0.75,
            SimTime::from_millis(2),
            SimTime::from_millis(9),
        )
        .with_task_faults(
            Some(DeviceId(1)),
            0.25,
            SimTime::ZERO,
            SimTime::from_millis(5),
        )
        .with_task_faults(None, 0.1, SimTime::from_millis(1), SimTime::from_millis(2))
        .with_transfer_faults(0.5, SimTime::ZERO, SimTime::MAX)
        .with_dropout(DeviceId(1), SimTime::from_millis(3))
        .with_throttle(
            DeviceId(1),
            SimTime::ZERO,
            SimTime::from_millis(10),
            1.0,
            8.0,
        )
        .with_silent_corruption(DeviceId(1), 0.2, SimTime::ZERO, SimTime::from_millis(4))
        .with_flaky(
            DeviceId(1),
            0.4,
            SimTime::from_millis(1),
            SimTime::from_millis(6),
        )
        .with_link_degrade(
            DeviceId(1),
            0.25,
            2.0,
            SimTime::from_millis(2),
            SimTime::from_millis(7),
        )
        .with_domain(
            "rail-a",
            vec![DeviceId(1), DeviceId(2)],
            0.5,
            0.3,
            SimTime::from_millis(2),
        )
        .with_domain_dropout(0, SimTime::from_millis(8))
        .with_domain_throttle(0, SimTime::from_millis(4), SimTime::from_millis(6), 2.0);
    schedule.validate().unwrap();

    let json = serde_json::to_string(&schedule).unwrap();
    let back: FaultSchedule = serde_json::from_str(&json).unwrap();
    assert_eq!(back, schedule);
    // Behavioural equality too: the round-tripped schedule samples the
    // same probabilities and replays the same RNG stream.
    assert_eq!(
        back.task_fault_prob(DeviceId(1), SimTime::from_micros(1500)),
        schedule.task_fault_prob(DeviceId(1), SimTime::from_micros(1500))
    );
    assert_eq!(
        back.corruption_prob(DeviceId(1), SimTime::from_micros(1500)),
        schedule.corruption_prob(DeviceId(1), SimTime::from_micros(1500))
    );
    assert_eq!(
        back.profile_factor(DeviceId(1), SimTime::from_millis(5)),
        schedule.profile_factor(DeviceId(1), SimTime::from_millis(5))
    );
    assert_eq!(back.dropouts(), schedule.dropouts());
    assert_eq!(
        back.link_factors(DeviceId(1), SimTime::from_millis(3)),
        schedule.link_factors(DeviceId(1), SimTime::from_millis(3))
    );
    assert_eq!(
        back.link_factors(DeviceId(1), SimTime::from_millis(3)),
        (0.25, 2.0)
    );
    assert_eq!(back.rng().next_u64(), schedule.rng().next_u64());

    let policy = RetryPolicy {
        max_attempts: 5,
        backoff: SimTime::from_micros(25),
        backoff_multiplier: 1.5,
    };
    let pj = serde_json::to_string(&policy).unwrap();
    let pb: RetryPolicy = serde_json::from_str(&pj).unwrap();
    assert_eq!(pb, policy);
    assert_eq!(pb.backoff_for(3), policy.backoff_for(3));
}

#[test]
fn fault_trace_roundtrips_and_replays() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = synth::single_kernel(
        "trace",
        1 << 16,
        4096.0,
        ExecutionFlow::Loop { iterations: 3 },
        true,
    );
    // A single-pass strategy: DP-Perf's warm-up pass would synthesize its
    // own trigger windows, which a baked replay schedule cannot reproduce.
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let policy = RetryPolicy::default();
    let schedule = FaultSchedule::new(7)
        .with_task_faults(
            Some(DeviceId(1)),
            0.3,
            SimTime::ZERO,
            SimTime::from_millis(20),
        )
        .with_domain(
            "switch",
            vec![DeviceId(0), DeviceId(1)],
            0.9,
            0.5,
            SimTime::from_millis(2),
        );
    let (report, trace) = analyzer
        .record_fault_trace(&desc, config, &schedule, policy)
        .unwrap();
    assert!(report.faults.correlated_triggers > 0);
    assert_eq!(
        trace.synthesized.len() as u64,
        report.faults.correlated_triggers
    );

    // The trace round-trips structurally and byte-identically.
    let json = trace.to_json();
    let back = FaultTrace::from_json(&json).unwrap();
    assert_eq!(back, trace);
    assert_eq!(back.to_json(), json);

    // Replaying the parsed trace reproduces the recorded run without any
    // live conditional triggering.
    let replay = analyzer
        .execute(
            &desc,
            config,
            &RunSpec {
                policy,
                ..RunSpec::faulty(back.replay_schedule())
            },
            &mut NullObserver,
            None,
        )
        .unwrap();
    assert_eq!(replay.makespan, report.makespan);
    assert_eq!(replay.breakdown, report.breakdown);
    assert_eq!(replay.faults.task_faults, report.faults.task_faults);
    assert_eq!(replay.faults.correlated_triggers, 0);
}

#[test]
fn faulty_report_and_counters_roundtrip() {
    let platform = Platform::icpp15();
    let planner = Planner::new(&platform);
    let desc = blackscholes::descriptor(1 << 16);
    let program = planner
        .plan(&desc, ExecutionConfig::Strategy(Strategy::SpSingle))
        .program;
    let schedule =
        FaultSchedule::new(9).with_task_faults(Some(DeviceId(1)), 1.0, SimTime::ZERO, SimTime::MAX);
    let report = simulate_resilient(
        &program,
        &platform,
        &mut PinnedScheduler,
        &schedule,
        RetryPolicy::default(),
        &HealthConfig::disabled(),
    );
    assert!(report.faults.faults_injected() > 0);

    // The full report, fault counters included, survives a round trip.
    let json = serde_json::to_string(&report).unwrap();
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.makespan, report.makespan);
    assert_eq!(back.counters, report.counters);
    assert_eq!(back.faults, report.faults);

    // FaultCounters stand alone too.
    let cj = serde_json::to_string(&report.faults).unwrap();
    let cb: FaultCounters = serde_json::from_str(&cj).unwrap();
    assert_eq!(cb, report.faults);
}

#[test]
fn health_config_roundtrips() {
    for config in [
        HealthConfig::disabled(),
        HealthConfig::monitored(),
        HealthConfig {
            watchdog: Some(WatchdogConfig {
                slack: 2.5,
                hedging: false,
            }),
            verification: VerificationPolicy::DupCheck { sample_rate: 0.5 },
            breaker: Some(BreakerConfig {
                trip_after: 5,
                cooldown: SimTime::from_micros(250),
            }),
            ewma_alpha: 0.1,
            max_rollbacks_per_epoch: 4,
        },
    ] {
        config.validate().unwrap();
        let json = serde_json::to_string(&config).unwrap();
        let back: HealthConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        assert_eq!(back.enabled(), config.enabled());
    }
}

#[test]
fn adapt_config_and_report_roundtrip() {
    for config in [
        AdaptConfig::disabled(),
        AdaptConfig::enabled_default(),
        AdaptConfig {
            skew_threshold: 0.4,
            balance_target: 0.2,
            hysteresis: 2,
            max_resolves: 3,
            repartition: true,
            escalation: false,
            reinstate_after: 3,
        },
    ] {
        config.validate().unwrap();
        let json = serde_json::to_string(&config).unwrap();
        let back: AdaptConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        assert_eq!(back.enabled(), config.enabled());
    }

    // A real adaptive run's report survives a round trip, adapt section
    // included.
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = synth::single_kernel(
        "roundtrip",
        1 << 20,
        65536.0,
        ExecutionFlow::Loop { iterations: 4 },
        true,
    );
    let schedule =
        FaultSchedule::new(11).with_profile_perturb(DeviceId(1), 0.5, SimTime::ZERO, SimTime::MAX);
    let report = analyzer
        .execute(
            &desc,
            ExecutionConfig::Strategy(Strategy::SpSingle),
            &RunSpec::adaptive(
                schedule.clone(),
                HealthConfig::disabled(),
                AdaptConfig::enabled_default(),
            ),
            &mut NullObserver,
            None,
        )
        .unwrap();
    assert!(report.adapt.barriers_observed > 0);
    let json = serde_json::to_string(&report).unwrap();
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.makespan, report.makespan);
    assert_eq!(back.adapt, report.adapt);

    // AdaptReport stands alone too.
    let aj = serde_json::to_string(&report.adapt).unwrap();
    let ab: AdaptReport = serde_json::from_str(&aj).unwrap();
    assert_eq!(ab, report.adapt);
}

#[test]
fn replan_types_and_repairing_report_roundtrip() {
    use hetero_match::matchmaker::SurvivorPlan;
    use hetero_match::runtime::{AdaptPlan, ReplanConfig, ReplanError, TraceEvent};

    for config in [
        ReplanConfig::disabled(),
        ReplanConfig::enabled_default(),
        ReplanConfig {
            enabled: true,
            max_replans: 2,
            heal_on_reclose: false,
        },
    ] {
        let json = serde_json::to_string(&config).unwrap();
        let back: ReplanConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        assert_eq!(back.enabled(), config.enabled());
    }

    for error in [
        ReplanError::NoSurvivingAccelerator,
        ReplanError::SolverInfeasible {
            detail: "no static plan".into(),
        },
        ReplanError::BudgetExhausted { max_replans: 4 },
    ] {
        let json = serde_json::to_string(&error).unwrap();
        let back: ReplanError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, error);
        assert_eq!(back.to_string(), error.to_string());
    }

    // A survivor plan and a multi-accelerator adapt plan, produced by the
    // real planner on the 3-device preset, survive round trips.
    let platform = Platform::icpp15_with_phi();
    let planner = Planner::new(&platform);
    let desc = blackscholes::descriptor(1 << 18);
    let config = ExecutionConfig::Strategy(Strategy::SpSingle);
    let survivors: Vec<DeviceId> = platform.devices.iter().map(|d| d.id).collect();
    let plan = planner
        .replan_surviving(&desc, config, &survivors, None, &[None, None])
        .unwrap();
    let json = serde_json::to_string(&plan).unwrap();
    let back: SurvivorPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(back, plan);

    let adapt = planner.adapt_plan(&desc, config).unwrap();
    assert!(adapt.multi.is_some(), "3-device platform must plan N-way");
    let aj = serde_json::to_string(&adapt).unwrap();
    let ab: AdaptPlan = serde_json::from_str(&aj).unwrap();
    assert_eq!(ab, adapt);

    // A repairing run's report — replan counters populated — and its
    // trace events survive round trips.
    let analyzer = Analyzer::new(&platform);
    let schedule = FaultSchedule::new(7).with_dropout(DeviceId(1), SimTime::from_micros(100));
    let mut obs = hetero_match::runtime::TraceObserver::new();
    let spec = RunSpec::repairing(
        schedule,
        HealthConfig::disabled(),
        AdaptConfig::disabled(),
        ReplanConfig::enabled_default(),
    );
    let report = analyzer
        .execute(&desc, config, &spec, &mut obs, None)
        .unwrap();
    assert_eq!(report.adapt.replan_error, None);
    assert!(report.adapt.replans >= 1, "the dropout must trigger repair");
    let rj = serde_json::to_string(&report).unwrap();
    let rb: RunReport = serde_json::from_str(&rj).unwrap();
    assert_eq!(rb.makespan, report.makespan);
    assert_eq!(rb.adapt, report.adapt);

    let trace = obs.into_trace();
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::PlanRepaired { .. })));
    let tj = serde_json::to_string(&trace).unwrap();
    let tb: Trace = serde_json::from_str(&tj).unwrap();
    assert_eq!(tb.events, trace.events);
}

#[test]
fn resilient_report_health_roundtrips() {
    let platform = Platform::test_small();
    let planner = Planner::new(&platform);
    let desc = blackscholes::descriptor(1 << 14);
    let program = planner
        .plan(&desc, ExecutionConfig::Strategy(Strategy::SpSingle))
        .program;
    // A gray schedule that exercises the whole health report: a straggling
    // window for the watchdog, silent corruption for DupCheck, flakiness
    // for the breaker.
    let schedule = FaultSchedule::new(7)
        .with_throttle(
            DeviceId(1),
            SimTime::ZERO,
            SimTime::from_millis(1),
            4.0,
            4.0,
        )
        .with_silent_corruption(DeviceId(1), 1.0, SimTime::ZERO, SimTime::MAX)
        .with_flaky(DeviceId(1), 0.5, SimTime::ZERO, SimTime::from_micros(500));
    let report = simulate_resilient(
        &program,
        &platform,
        &mut PinnedScheduler,
        &schedule,
        RetryPolicy::default(),
        &HealthConfig::monitored(),
    );
    assert!(report.health.corruptions_injected >= 1);
    assert!(!report.health.scores.is_empty());

    // The full report, health included, survives a round trip.
    let json = serde_json::to_string(&report).unwrap();
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.makespan, report.makespan);
    assert_eq!(back.health, report.health);

    // HealthReport stands alone too.
    let hj = serde_json::to_string(&report.health).unwrap();
    let hb: HealthReport = serde_json::from_str(&hj).unwrap();
    assert_eq!(hb, report.health);
    assert_eq!(
        hb.detection_shortfall(),
        report.health.detection_shortfall()
    );
}

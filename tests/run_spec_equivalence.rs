//! Pins the output of every analyzer run path: each `RunMode` × every
//! compared execution configuration × each observer kind, on a toy
//! descriptor and on STREAM-Loop, under one fault schedule that makes
//! retry, the health subsystem, the misprediction planner and plan repair
//! all fire.
//!
//! For every case the fixture `tests/fixtures/run_spec_digests.txt` holds
//! an FNV-1a of the run's `report_digest` and of the observer's export.
//! Every case is also re-run journaled and must match its unjournaled twin
//! byte for byte. A mismatch writes the regenerated table next to the test
//! binary's scratch directory (`CARGO_TARGET_TMPDIR`) and names the first
//! differing line.

use hetero_match::apps::stream;
use hetero_match::matchmaker::descriptor::tests_support::toy_descriptor;
use hetero_match::matchmaker::{
    Analyzer, AppDescriptor, ExecutionConfig, ExecutionFlow, JournalSink, RunMode, RunSpec,
    Strategy,
};
use hetero_match::platform::{DeviceId, FaultSchedule, Platform, SimTime};
use hetero_match::runtime::{
    report_digest, AdaptConfig, HealthConfig, MetricsObserver, NullObserver, Observer,
    ReplanConfig, RunReport, SnapshotObserver, TraceObserver,
};

const FIXTURE: &str = include_str!("fixtures/run_spec_digests.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn toy() -> AppDescriptor {
    let mut d = toy_descriptor(2, ExecutionFlow::Sequence);
    d.buffers[0].items = 1 << 20;
    for k in &mut d.kernels {
        k.domain = 1 << 20;
    }
    d.sync.between_kernels = true;
    d
}

/// One schedule for every faulty mode: a flaky GPU window (retries), a
/// GPU throttle ramp (straggler hedging), a `ProfilePerturb` open at
/// t = 0 (the misprediction planner) and a GPU dropout (failover and
/// plan repair).
fn schedule() -> FaultSchedule {
    let gpu = DeviceId(1);
    FaultSchedule::new(0x5EC)
        .with_flaky(gpu, 0.3, SimTime::ZERO, SimTime::from_millis(1))
        .with_throttle(
            gpu,
            SimTime::from_micros(200),
            SimTime::from_millis(2),
            2.0,
            4.0,
        )
        .with_profile_perturb(gpu, 0.5, SimTime::ZERO, SimTime::MAX)
        .with_dropout(gpu, SimTime::from_micros(1200))
}

fn specs() -> Vec<RunSpec> {
    let health = HealthConfig::monitored();
    let adapt = AdaptConfig::enabled_default();
    vec![
        RunSpec::plain(),
        RunSpec::faulty(schedule()),
        RunSpec::resilient(schedule(), health),
        RunSpec::adaptive(schedule(), health, adapt),
        RunSpec::repairing(schedule(), health, adapt, ReplanConfig::enabled_default()),
    ]
}

/// Both baselines, every ranked static strategy, then both dynamic ones.
fn configs(analyzer: &Analyzer, desc: &AppDescriptor) -> Vec<ExecutionConfig> {
    let ranked = analyzer.analyze(desc).ranking;
    [ExecutionConfig::OnlyGpu, ExecutionConfig::OnlyCpu]
        .into_iter()
        .chain(
            ranked
                .into_iter()
                .filter(|s| !s.is_dynamic())
                .map(ExecutionConfig::Strategy),
        )
        .chain([
            ExecutionConfig::Strategy(Strategy::DpPerf),
            ExecutionConfig::Strategy(Strategy::DpDep),
        ])
        .collect()
}

#[derive(Clone, Copy)]
enum ObsKind {
    Null,
    Trace,
    Metrics,
    Snapshot,
}

impl ObsKind {
    const ALL: [ObsKind; 4] = [
        ObsKind::Null,
        ObsKind::Trace,
        ObsKind::Metrics,
        ObsKind::Snapshot,
    ];

    fn name(self) -> &'static str {
        match self {
            ObsKind::Null => "null",
            ObsKind::Trace => "trace",
            ObsKind::Metrics => "metrics",
            ObsKind::Snapshot => "snapshot",
        }
    }
}

/// A fresh observer of one kind, type-erased, with its export.
enum AnyObs {
    Null(NullObserver),
    Trace(TraceObserver),
    Metrics(MetricsObserver),
    Snapshot(SnapshotObserver),
}

impl AnyObs {
    fn new(kind: ObsKind, platform: &Platform) -> Self {
        match kind {
            ObsKind::Null => AnyObs::Null(NullObserver),
            ObsKind::Trace => AnyObs::Trace(TraceObserver::new()),
            ObsKind::Metrics => AnyObs::Metrics(MetricsObserver::new(platform, "equivalence")),
            ObsKind::Snapshot => AnyObs::Snapshot(SnapshotObserver::new(platform, "equivalence")),
        }
    }

    fn as_dyn(&mut self) -> &mut dyn Observer {
        match self {
            AnyObs::Null(o) => o,
            AnyObs::Trace(o) => o,
            AnyObs::Metrics(o) => o,
            AnyObs::Snapshot(o) => o,
        }
    }

    fn export(&self) -> String {
        match self {
            AnyObs::Null(_) => String::new(),
            AnyObs::Trace(o) => serde_json::to_string(o.trace()).expect("trace serializes"),
            AnyObs::Metrics(o) => o.registry().to_json(),
            AnyObs::Snapshot(o) => o.stream(),
        }
    }
}

/// One unjournaled run through the analyzer's run entries: the report, or
/// the replan error a repairing run gave up with. The null observer takes
/// the fault-free entry point where one exists.
fn run(
    analyzer: &Analyzer,
    desc: &AppDescriptor,
    config: ExecutionConfig,
    spec: &RunSpec,
    obs: &mut AnyObs,
) -> Result<RunReport, String> {
    let report = match (spec.mode, obs) {
        (RunMode::Plain, AnyObs::Null(_)) => analyzer.simulate(desc, config),
        (_, obs) => analyzer
            .execute(desc, config, spec, obs.as_dyn(), None)
            .unwrap_or_else(|e| panic!("{config} {:?}: {e}", spec.mode)),
    };
    outcome(report)
}

/// A run's outcome: the report, or the replan error it gave up with.
fn outcome(report: RunReport) -> Result<RunReport, String> {
    match &report.adapt.replan_error {
        Some(e) => Err(format!("{e:?}")),
        None => Ok(report),
    }
}

#[test]
fn every_run_path_matches_the_pinned_digests() {
    let platform = Platform::icpp15_with_phi();
    let analyzer = Analyzer::new(&platform);
    let mut table = String::new();
    let mut fired = [false; 4];
    for (label, desc) in [
        ("toy", toy()),
        ("stream-loop", stream::descriptor(1 << 18, Some(3), true)),
    ] {
        for spec in specs() {
            for config in configs(&analyzer, &desc) {
                for kind in ObsKind::ALL {
                    let mut obs = AnyObs::new(kind, &platform);
                    let unjournaled = run(&analyzer, &desc, config, &spec, &mut obs);
                    let export = obs.export();
                    if let Ok(report) = &unjournaled {
                        fired[0] |= report.faults.task_retries > 0;
                        fired[1] |= report.health.hedges_issued > 0;
                        fired[2] |= report.adapt.repartitions > 0 || report.adapt.escalated;
                        fired[3] |= report.adapt.replans > 0;
                    }

                    let mut jobs = AnyObs::new(kind, &platform);
                    let mut sink = JournalSink::record();
                    let journaled_outcome = analyzer
                        .simulate_journaled_observed(&desc, config, &spec, &mut sink, jobs.as_dyn())
                        .map(outcome)
                        .unwrap_or_else(|e| panic!("{label} {config} {:?}: {e}", spec.mode));
                    let case = format!("{label} {:?} {config} {}", spec.mode, kind.name());
                    let digest = |o: &Result<RunReport, String>| match o {
                        Ok(r) => format!("{:016x}", fnv1a(report_digest(r).as_bytes())),
                        Err(e) => format!("replan-error:{e}"),
                    };
                    let report_line = digest(&unjournaled);
                    assert_eq!(
                        digest(&journaled_outcome),
                        report_line,
                        "{case}: journaled run differs from the unjournaled run"
                    );
                    assert!(
                        jobs.export() == export,
                        "{case}: journaled observer export differs from the unjournaled run"
                    );
                    table.push_str(&format!(
                        "{case} report={report_line} export={:016x}\n",
                        fnv1a(export.as_bytes())
                    ));
                }
            }
        }
    }
    assert_eq!(
        fired, [true; 4],
        "the schedule must exercise retry, hedging, adaptation and repair"
    );
    if table != FIXTURE {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("run_spec_digests.txt");
        std::fs::write(&out, &table).expect("write regenerated table");
        let first = table
            .lines()
            .zip(FIXTURE.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("expected `{b}`, got `{a}`"))
            .unwrap_or_else(|| "line count differs".into());
        panic!(
            "run outputs drifted from the pinned fixture ({first}); regenerated table at {}",
            out.display()
        );
    }
}

/// A `RunMode` list kept in sync with the table above: adding a mode
/// without pinning it fails here.
#[test]
fn the_table_covers_every_run_mode() {
    let modes: Vec<RunMode> = specs().iter().map(|s| s.mode).collect();
    assert_eq!(
        modes,
        [
            RunMode::Plain,
            RunMode::Faulty,
            RunMode::Resilient,
            RunMode::Adaptive,
            RunMode::Repairing
        ]
    );
}

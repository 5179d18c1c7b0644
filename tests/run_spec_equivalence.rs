//! Pins the output of every analyzer run path: each `RunMode` × every
//! compared execution configuration × each observer kind, on a toy
//! descriptor and on STREAM-Loop, under one fault schedule that makes
//! retry, the health subsystem, the misprediction planner and plan repair
//! all fire. Three two-device rows follow: on the single-accelerator
//! platform they drive the adaptation controller's two-way re-pin paths
//! (the plan-wide SP-Single barrier sweep, its per-kernel SP-Varied form
//! and DP-Perf → static reinstatement), and each asserts its path fired.
//! Four ledger rows close the table: each drives one path that reverses or
//! re-commits a dispatch's booking (a hedge win, a duplicate-check epoch
//! rollback, a dropout re-executing completed work, safe mode) and asserts
//! it fired.
//!
//! For every case the fixture `tests/fixtures/run_spec_digests.txt` holds
//! an FNV-1a of the run's `report_digest` and of the observer's export.
//! After those lines, one line per traced case pins the trace's Chrome
//! export, its Chrome export with causal flow arrows and its folded span
//! stacks. The ledger rows' run and trace lines follow, in the same form. Every case is also re-run journaled and must match its
//! unjournaled twin byte for byte. A mismatch writes the regenerated table next to the test
//! binary's scratch directory (`CARGO_TARGET_TMPDIR`) and names the first
//! differing line.

use hetero_match::apps::{stream, synth};
use hetero_match::matchmaker::descriptor::tests_support::toy_descriptor;
use hetero_match::matchmaker::{
    Analyzer, AppDescriptor, ExecutionConfig, ExecutionFlow, JournalSink, Planner, RunMode,
    RunSpec, Strategy,
};
use hetero_match::platform::{DeviceId, FaultSchedule, Platform, SimTime};
use hetero_match::runtime::{
    report_digest, AdaptConfig, EpochSnapshot, HealthConfig, MetricsObserver, MetricsRegistry,
    NullObserver, Observer, ReplanConfig, RunReport, Series, SeriesValue, SnapshotObserver,
    SpanTree, TaskId, TraceEvent, TraceObserver, VerificationPolicy, WatchdogConfig,
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

/// The fixture being regenerated.
#[derive(Default)]
struct Table {
    /// One line per run: report and observer-export digests.
    runs: String,
    /// One line per traced run: Chrome, Chrome-with-flows and folded
    /// digests.
    traces: String,
    /// Whether the traced runs include a `Failover`, `HedgeLaunched`,
    /// `Repartitioned` and `PlanRepaired` event, in that order.
    kinds: [bool; 4],
}

impl Table {
    /// Pin one traced run's three exports and note which of the four
    /// adaptation-path events it holds.
    fn pin_trace(&mut self, case: &str, obs: &AnyObs, platform: &Platform) {
        let AnyObs::Trace(o) = obs else {
            return;
        };
        let trace = o.trace();
        for ev in &trace.events {
            self.kinds[0] |= matches!(ev, TraceEvent::Failover { .. });
            self.kinds[1] |= matches!(ev, TraceEvent::HedgeLaunched { .. });
            self.kinds[2] |= matches!(ev, TraceEvent::Repartitioned { .. });
            self.kinds[3] |= matches!(ev, TraceEvent::PlanRepaired { .. });
        }
        self.traces.push_str(&format!(
            "{case} chrome={:016x} flows={:016x} folded={:016x}\n",
            fnv1a(trace.to_chrome_json(platform).as_bytes()),
            fnv1a(SpanTree::to_chrome_json_with_flows(trace, platform).as_bytes()),
            fnv1a(SpanTree::from_trace(trace, platform).to_folded().as_bytes()),
        ));
    }

    /// The whole fixture: run lines, then trace lines.
    fn render(&self) -> String {
        format!("{}{}", self.runs, self.traces)
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

/// Run one case under every observer kind, unjournaled and journaled,
/// append its table lines and return the unjournaled outcomes.
fn pin_case(
    table: &mut Table,
    analyzer: &Analyzer,
    platform: &Platform,
    label: &str,
    desc: &AppDescriptor,
    config: ExecutionConfig,
    spec: &RunSpec,
) -> Vec<Result<RunReport, String>> {
    let mut outcomes = Vec::new();
    for kind in ObsKind::ALL {
        let mut obs = AnyObs::new(kind, platform);
        let unjournaled = run(analyzer, desc, config, spec, &mut obs);
        let export = obs.export();

        let mut jobs = AnyObs::new(kind, platform);
        let mut sink = JournalSink::record();
        let journaled_outcome = analyzer
            .simulate_journaled_observed(desc, config, spec, &mut sink, jobs.as_dyn())
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
        table.runs.push_str(&format!(
            "{case} report={report_line} export={:016x}\n",
            fnv1a(export.as_bytes())
        ));
        table.pin_trace(&case, &obs, platform);
        outcomes.push(unjournaled);
    }
    outcomes
}

/// A two-device row: one run on the single-accelerator platform that
/// drives one two-way re-pin path of the adaptation controller, and the
/// report field that proves the path fired.
struct TwoWayCase {
    label: &'static str,
    desc: AppDescriptor,
    config: ExecutionConfig,
    spec: RunSpec,
    /// Whether the case's `AdaptPlan` carries per-kernel (SP-Varied) splits.
    per_kernel: bool,
    fired: fn(&RunReport) -> bool,
}

/// Two kernels of opposite device affinity (the second barely runs on the
/// GPU), separated by taskwaits.
fn opposed(items: u64, flops_per_item: f64, iterations: u32) -> AppDescriptor {
    let flow = ExecutionFlow::Loop { iterations };
    let mut d = synth::multi_kernel("opposed", items, 2, flops_per_item, flow, true);
    d.kernels[1].profile.cpu_efficiency.compute = 0.6;
    d.kernels[1].profile.gpu_efficiency.compute = 0.02;
    d
}

/// The plan-wide (SP-Single) barrier sweep, here behind an SP-Unified
/// plan; its per-kernel SP-Varied form; and DP-Perf → static
/// reinstatement. A scaled-down GPU profile makes every static split
/// under-offload, so the controller has something to correct. Each row is
/// chosen so that the sweep's tie coin, its rate floor or migration
/// pricing, or reinstatement's rate source changes its digest.
fn two_way_cases() -> Vec<TwoWayCase> {
    let gpu = DeviceId(1);
    let stale = |factor: f64| {
        FaultSchedule::new(42).with_profile_perturb(gpu, factor, SimTime::ZERO, SimTime::MAX)
    };
    let no_health = HealthConfig::disabled();
    // Escalate after one miss, never re-solve, and reinstate after two calm
    // barriers.
    let reinstate = AdaptConfig {
        repartition: false,
        max_resolves: 1,
        reinstate_after: 2,
        ..AdaptConfig::enabled_default()
    };
    vec![
        TwoWayCase {
            label: "sp-single-sweep",
            desc: opposed(1 << 18, 8192.0, 6),
            config: ExecutionConfig::Strategy(Strategy::SpUnified),
            spec: RunSpec::adaptive(stale(0.02), no_health, AdaptConfig::enabled_default()),
            per_kernel: false,
            fired: |r| r.adapt.repartitions > 0,
        },
        TwoWayCase {
            label: "sp-varied-sweep",
            desc: opposed(1 << 18, 8192.0, 6),
            config: ExecutionConfig::Strategy(Strategy::SpVaried),
            spec: RunSpec::adaptive(
                stale(0.5).with_task_faults(Some(gpu), 0.2, SimTime::ZERO, SimTime::from_millis(5)),
                no_health,
                AdaptConfig::enabled_default(),
            ),
            per_kernel: true,
            fired: |r| r.adapt.repartitions > 0,
        },
        TwoWayCase {
            label: "reinstatement",
            desc: opposed(1 << 16, 1024.0, 4),
            config: ExecutionConfig::Strategy(Strategy::SpVaried),
            spec: RunSpec::adaptive(stale(0.8), no_health, reinstate),
            per_kernel: true,
            fired: |r| r.adapt.reinstated,
        },
    ]
}

/// A ledger row: one run on the single-accelerator platform that drives
/// one path reversing or re-committing a dispatch's booking, and the
/// report field that proves the path fired.
struct LedgerCase {
    label: &'static str,
    config: ExecutionConfig,
    spec: RunSpec,
    fired: fn(&RunReport) -> bool,
}

/// The ledger rows' app: one compute-bound four-iteration loop.
fn ledger_app() -> AppDescriptor {
    synth::single_kernel(
        "ledger",
        1 << 18,
        8192.0,
        ExecutionFlow::Loop { iterations: 4 },
        true,
    )
}

/// A 300x GPU throttle under straggler hedging (hedge wins), silent GPU
/// corruption under duplicate-check verification (epoch rollbacks), a
/// mid-run GPU dropout under DP-Perf (completed work re-executed) and
/// task faults on every device (safe mode), all on one compute-bound
/// four-iteration loop.
fn ledger_cases() -> Vec<LedgerCase> {
    let gpu = DeviceId(1);
    let schedule = || FaultSchedule::new(7);
    let hedging = HealthConfig {
        watchdog: Some(WatchdogConfig {
            slack: 1.5,
            hedging: true,
        }),
        ..HealthConfig::disabled()
    };
    let dup_check = HealthConfig {
        verification: VerificationPolicy::DupCheck { sample_rate: 1.0 },
        ..HealthConfig::disabled()
    };
    let sp_single = ExecutionConfig::Strategy(Strategy::SpSingle);
    vec![
        LedgerCase {
            label: "hedge-win",
            config: sp_single,
            spec: RunSpec::resilient(
                schedule().with_throttle(gpu, SimTime::ZERO, SimTime::MAX, 300.0, 300.0),
                hedging,
            ),
            fired: |r| r.health.hedges_won > 0,
        },
        LedgerCase {
            label: "dup-check-rollback",
            config: sp_single,
            spec: RunSpec::resilient(
                schedule().with_silent_corruption(gpu, 1.0, SimTime::ZERO, SimTime::MAX),
                dup_check,
            ),
            fired: |r| r.health.epoch_rollbacks > 0,
        },
        LedgerCase {
            label: "dropout-reexecution",
            config: ExecutionConfig::Strategy(Strategy::DpPerf),
            spec: RunSpec::faulty(schedule().with_dropout(gpu, SimTime::from_micros(4970))),
            fired: |r| r.faults.reexecutions > 0,
        },
        LedgerCase {
            label: "safe-mode",
            config: sp_single,
            spec: RunSpec::faulty(schedule().with_task_faults(
                None,
                1.0,
                SimTime::ZERO,
                SimTime::MAX,
            )),
            fired: |r| r.faults.safe_mode_tasks > 0,
        },
    ]
}

#[test]
fn every_run_path_matches_the_pinned_digests() {
    let platform = Platform::icpp15_with_phi();
    let analyzer = Analyzer::new(&platform);
    let mut table = Table::default();
    let mut fired = [false; 4];
    for (label, desc) in [
        ("toy", toy()),
        ("stream-loop", stream::descriptor(1 << 18, Some(3), true)),
    ] {
        for spec in specs() {
            for config in configs(&analyzer, &desc) {
                let outcomes = pin_case(
                    &mut table, &analyzer, &platform, label, &desc, config, &spec,
                );
                for report in outcomes.iter().flatten() {
                    fired[0] |= report.faults.task_retries > 0;
                    fired[1] |= report.health.hedges_issued > 0;
                    fired[2] |= report.adapt.repartitions > 0 || report.adapt.escalated;
                    fired[3] |= report.adapt.replans > 0;
                }
            }
        }
    }
    assert_eq!(
        fired, [true; 4],
        "the schedule must exercise retry, hedging, adaptation and repair"
    );

    let two_way = Platform::icpp15();
    let analyzer = Analyzer::new(&two_way);
    for case in two_way_cases() {
        let plan = Planner::new(&two_way)
            .adapt_plan(&case.desc, case.config)
            .unwrap_or_else(|| panic!("{}: no adapt plan", case.label));
        assert_eq!(plan.multi, None, "{}: two-way plan expected", case.label);
        assert_eq!(
            plan.per_kernel.is_some(),
            case.per_kernel,
            "{}: per-kernel splits",
            case.label
        );
        let outcomes = pin_case(
            &mut table,
            &analyzer,
            &two_way,
            case.label,
            &case.desc,
            case.config,
            &case.spec,
        );
        for outcome in outcomes {
            let report = outcome.unwrap_or_else(|e| panic!("{}: {e}", case.label));
            assert!(
                (case.fired)(&report),
                "{}: the path did not fire: {:?}",
                case.label,
                report.adapt
            );
        }
    }

    assert_eq!(
        table.kinds, [true; 4],
        "the pinned traces must include a Failover, HedgeLaunched, Repartitioned \
         and PlanRepaired event"
    );

    let mut ledger = Table::default();
    let app = ledger_app();
    for case in ledger_cases() {
        let outcomes = pin_case(
            &mut ledger,
            &analyzer,
            &two_way,
            case.label,
            &app,
            case.config,
            &case.spec,
        );
        for outcome in outcomes {
            let report = outcome.unwrap_or_else(|e| panic!("{}: {e}", case.label));
            assert!(
                (case.fired)(&report),
                "{}: the path did not fire: {:?} {:?}",
                case.label,
                report.faults,
                report.health
            );
        }
    }

    let table = table.render() + &ledger.render();
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

/// A device's `busy` counter is its blame activity, every component but
/// `dead` and `idle`, on each ledger row: slot time a hedge win, a
/// rollback or a dropout reverses stays busy time.
#[test]
fn busy_equals_blame_activity_on_the_ledger_rows() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    for case in ledger_cases() {
        let report = analyzer
            .execute(
                &ledger_app(),
                case.config,
                &case.spec,
                &mut NullObserver,
                None,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", case.label));
        for (d, b) in report.breakdown.per_device.iter().enumerate() {
            let activity = b
                .components()
                .into_iter()
                .filter(|(name, _)| !matches!(*name, "dead" | "idle"))
                .map(|(_, v)| v)
                .sum::<SimTime>();
            assert_eq!(
                report.counters.devices[d].busy, activity,
                "{}: device {d}",
                case.label
            );
        }
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

/// A [`SnapshotObserver`] held to the algorithm the stream was first built
/// on: clone the whole registry at every barrier and at run end, diff every
/// series against the previous clone, and require each emitted line to be
/// exactly the line that diff gives.
struct ReferenceStream {
    inner: SnapshotObserver,
    prev: MetricsRegistry,
    lines: usize,
}

impl ReferenceStream {
    fn new(platform: &Platform) -> Self {
        ReferenceStream {
            inner: SnapshotObserver::new(platform, "equivalence"),
            prev: MetricsRegistry::new(),
            lines: 0,
        }
    }

    fn counter_sum(reg: &MetricsRegistry, name: &str) -> u64 {
        reg.series
            .values()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                SeriesValue::Counter(c) => c,
                _ => 0,
            })
            .sum()
    }

    fn delta(prev: &Series, cur: &Series) -> Series {
        let value = match (&prev.value, &cur.value) {
            (SeriesValue::Counter(a), SeriesValue::Counter(b)) => SeriesValue::Counter(b - a),
            (SeriesValue::Histogram(a), SeriesValue::Histogram(b)) => {
                let mut d = b.clone();
                for (db, ab) in d.buckets.iter_mut().zip(&a.buckets) {
                    *db -= ab;
                }
                d.overflow -= a.overflow;
                d.count -= a.count;
                d.sum_nanos -= a.sum_nanos;
                SeriesValue::Histogram(d)
            }
            (_, v) => v.clone(),
        };
        Series {
            value,
            ..cur.clone()
        }
    }

    /// Check the line just emitted against the whole-registry diff.
    fn check(&mut self) {
        let cur = self.inner.registry().clone();
        let mut changed = Vec::new();
        for (id, s) in &cur.series {
            match self.prev.series.get(id) {
                Some(p) if p.value == s.value => {}
                Some(p) => changed.push(Self::delta(p, s)),
                None => changed.push(s.clone()),
            }
        }
        let lines = self.inner.lines();
        assert_eq!(lines.len(), self.lines + 1, "one line per barrier");
        let line = &lines[self.lines];
        let emitted: EpochSnapshot = serde_json::from_str(line).expect("line decodes");
        let reference = EpochSnapshot {
            tasks_total: Self::counter_sum(&cur, "hm_tasks_total"),
            faults_total: Self::counter_sum(&cur, "hm_faults_total"),
            changed,
            ..emitted
        };
        assert_eq!(
            &serde_json::to_string(&reference).expect("snapshot serializes"),
            line,
            "line {} differs from the whole-registry diff",
            self.lines
        );
        self.lines += 1;
        self.prev = cur;
    }
}

impl Observer for ReferenceStream {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.inner.on_event(ev);
        if matches!(ev, TraceEvent::Flush { .. }) {
            self.check();
        }
    }

    fn on_task_bound(&mut self, task: TaskId, dev: DeviceId, at: SimTime, queue_depth: usize) {
        self.inner.on_task_bound(task, dev, at, queue_depth);
    }

    fn on_run_end(&mut self, report: &RunReport) {
        self.inner.on_run_end(report);
        self.check();
    }
}

/// Every snapshot line equals the line a whole-registry clone-and-diff
/// gives, on every run mode and compared configuration of both pinned
/// apps and on the four ledger rows.
#[test]
fn snapshot_lines_match_a_whole_registry_diff() {
    let check =
        |analyzer: &Analyzer, platform: &Platform, desc: &AppDescriptor, config, spec: &RunSpec| {
            let mut obs = ReferenceStream::new(platform);
            analyzer
                .execute(desc, config, spec, &mut obs, None)
                .unwrap_or_else(|e| panic!("{config} {:?}: {e}", spec.mode));
            assert!(
                obs.lines >= 2,
                "{config} {:?}: a barrier and run end",
                spec.mode
            );
        };
    let platform = Platform::icpp15_with_phi();
    let analyzer = Analyzer::new(&platform);
    for desc in [toy(), stream::descriptor(1 << 18, Some(3), true)] {
        for spec in specs() {
            for config in configs(&analyzer, &desc) {
                check(&analyzer, &platform, &desc, config, &spec);
            }
        }
    }
    let two_way = Platform::icpp15();
    let analyzer = Analyzer::new(&two_way);
    for case in ledger_cases() {
        check(&analyzer, &two_way, &ledger_app(), case.config, &case.spec);
    }
}

//! `journaled-run`: STREAM-Loop ×32 with synchronisation under a seeded
//! GPU task-fault schedule. One op is a journaled run with a snapshot
//! observer, `fold_stream` of its metrics stream, and `Analyzer::resume`
//! of a torn mid-run crash. It takes the executor's fault path and loads
//! the observer, journal and their JSON encoding.

use std::time::Instant;

use hetero_apps::stream;
use hetero_platform::{FaultSchedule, KillSchedule, Platform, SimTime};
use hetero_runtime::{
    fold_stream, report_digest, simulate_resilient, HealthConfig, JournalError, JournalSink,
    MetricsObserver, PinnedScheduler, RunJournal, SnapshotObserver,
};
use matchmaker::{Analyzer, AppDescriptor, ExecutionConfig, RunSpec, Strategy};

use crate::layers::{glinda_solves, planned_decisions, replay_glinda, span_metrics};
use crate::span::Spans;
use crate::{
    check_pinned, median, op_metrics, pinned_digest, run_ops, setup, Counts, Ctx, Fnv, Report,
};

const ITERATIONS: u32 = 32;
const CONFIG: ExecutionConfig = ExecutionConfig::Strategy(Strategy::SpUnified);
/// Per-attempt GPU task-fault probability over the whole run.
const FAULT_PROB: f64 = 0.3;
/// The crash kills the coordinator after this many committed records,
/// tearing the last line.
const KILL_AFTER_RECORDS: u64 = 64;

struct Inputs {
    platform: Platform,
    desc: AppDescriptor,
    schedule: FaultSchedule,
    spec: RunSpec,
    /// Journal text the crashed run left behind.
    crashed: String,
}

fn build(seed: u64) -> Result<Inputs, String> {
    let platform = Platform::icpp15();
    let desc = stream::descriptor(1 << 20, Some(ITERATIONS), true);
    let gpu = platform.gpu().ok_or("platform has no GPU")?.id;
    let schedule = FaultSchedule::new(seed).with_task_faults(
        Some(gpu),
        FAULT_PROB,
        SimTime::ZERO,
        SimTime::MAX,
    );
    let spec = RunSpec::faulty(schedule.clone());
    let crashed = {
        let analyzer = Analyzer::new(&platform);
        let mut sink =
            JournalSink::record_with_kill(KillSchedule::after_records(KILL_AFTER_RECORDS).torn());
        match analyzer.simulate_journaled(&desc, CONFIG, &spec, &mut sink) {
            Err(JournalError::Killed { .. }) => sink.text(),
            other => return Err(format!("the injected crash did not fire: {other:?}")),
        }
    };
    Ok(Inputs {
        platform,
        desc,
        schedule,
        spec,
        crashed,
    })
}

pub fn run(ctx: &Ctx, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let (inputs, setup_s) = setup(5, 0.3, || build(ctx.seed));
    report.set("setup_s", setup_s);
    let inputs = match inputs {
        Ok(inputs) => inputs,
        Err(e) => {
            report.check(false, || e);
            return report;
        }
    };
    let analyzer = Analyzer::new(&inputs.platform);
    let tasks_per_run = analyzer.plan(&inputs.desc, CONFIG).program.task_count() as u64;
    let mut counts = Counts::default();
    let mut resume_ms = Vec::new();
    let pinned = pinned_digest("journaled-run", ctx.seed);

    let op = |i: u64, spans: &mut Spans, report: &mut Report| -> f64 {
        spans.set_op(i);
        report.attempted += 1;
        let mut sink = JournalSink::record();
        let mut snap = SnapshotObserver::new(&inputs.platform, "journaled");
        let start = Instant::now();
        let root = spans.enter("op");
        let run = spans.time("journaled_run", tasks_per_run, || {
            analyzer.simulate_journaled_observed(
                &inputs.desc,
                CONFIG,
                &inputs.spec,
                &mut sink,
                &mut snap,
            )
        });
        let lines = snap.lines().len() as u64;
        let folded = spans.time("fold_stream", lines, || fold_stream(&snap.stream()));
        let resume_start = Instant::now();
        let resumed = spans.time("resume", KILL_AFTER_RECORDS, || {
            analyzer.resume(&inputs.crashed)
        });
        let resume_s = resume_start.elapsed().as_secs_f64();
        spans.exit(root, 2 * tasks_per_run);
        let secs = start.elapsed().as_secs_f64();
        if i > 0 {
            resume_ms.push(resume_s * 1e3);
        }

        let (run, (resumed, full_text), folded) = match (run, resumed, folded) {
            (Ok(run), Ok(resumed), Ok(folded)) => (run, resumed, folded),
            (run, resumed, folded) => {
                report.check(false, || {
                    format!(
                        "op failed: run {:?}, resume {:?}, fold {:?}",
                        run.err(),
                        resumed.err(),
                        folded.err()
                    )
                });
                return secs;
            }
        };
        let text = sink.text();
        let digest = report_digest(&run);
        let mut h = Fnv::default();
        for part in [digest.as_str(), text.as_str(), snap.stream().as_str()] {
            h.bytes(part.as_bytes());
        }
        check_pinned(report, pinned.as_deref(), h.0, || {
            format!("journaled-run seed {}", ctx.seed)
        });
        report.check(report_digest(&resumed) == digest, || {
            "resumed report differs from the uninterrupted run".into()
        });
        report.check(full_text == text, || {
            "resumed journal differs from the uninterrupted run's".into()
        });
        report.check(folded.to_json() == snap.registry().to_json(), || {
            "folded stream differs from the final registry".into()
        });

        if spans.enabled() {
            // Derived layer costs: the same run without the journal and
            // observer (plan + executor called directly), journal only,
            // and journal + metrics observer; the op's own run is journal
            // + snapshot observer.
            let open = spans.enter("plan");
            let plan = analyzer.plan(&inputs.desc, CONFIG);
            spans.exit(open, plan.program.task_count() as u64);
            let bare = spans.time("executor.faulty", tasks_per_run, || {
                simulate_resilient(
                    &plan.program,
                    &inputs.platform,
                    &mut PinnedScheduler,
                    &inputs.schedule,
                    inputs.spec.policy,
                    &HealthConfig::disabled(),
                )
            });
            report.check(report_digest(&bare) == digest, || {
                "unjournaled faulty run differs from the journaled one".into()
            });
            let decisions = replay_glinda(analyzer.planner(), &inputs.desc, CONFIG, spans);
            report.check(decisions == planned_decisions(&plan), || {
                "replayed Glinda decision differs from the plan's".into()
            });
            let mut journal_only = JournalSink::record();
            let r = spans.time("variant.journal", tasks_per_run, || {
                analyzer.simulate_journaled(&inputs.desc, CONFIG, &inputs.spec, &mut journal_only)
            });
            report.check(
                r.map(|r| report_digest(&r)).ok() == Some(digest.clone()),
                || "journal-only variant differs".into(),
            );
            let mut metrics = MetricsObserver::new(&inputs.platform, "journaled");
            let mut journal_metrics = JournalSink::record();
            let r = spans.time("variant.journal_metrics", tasks_per_run, || {
                analyzer.simulate_journaled_observed(
                    &inputs.desc,
                    CONFIG,
                    &inputs.spec,
                    &mut journal_metrics,
                    &mut metrics,
                )
            });
            report.check(
                r.map(|r| report_digest(&r)).ok() == Some(digest.clone()),
                || "journal+metrics variant differs".into(),
            );
            let loaded = spans.time("journal.load", text.len() as u64, || {
                RunJournal::load(&text)
            });
            report.check(loaded.is_ok(), || "completed journal does not load".into());
        }

        let c = [
            ("executor.tasks", 2 * tasks_per_run),
            ("executor.transfers", run.counters.transfers.count),
            ("executor.sched_decisions", run.counters.sched_decisions),
            ("faults.task_faults", run.faults.task_faults),
            ("faults.task_retries", run.faults.task_retries),
            ("journal.records", sink.records()),
            ("journal.bytes", text.len() as u64),
            ("obs.stream_bytes", snap.stream().len() as u64),
            ("obs.stream_lines", lines),
            ("plan.tasks", 2 * tasks_per_run),
            ("glinda.solves", 2 * glinda_solves(&inputs.desc, CONFIG)),
            ("output_digest", h.0),
        ];
        counts.observe(report, &c);
        secs
    };

    let times = run_ops(ctx, spans, &mut report, 11, op);
    if ctx.trace {
        let agg = spans.aggregate();
        span_metrics(&mut report, &agg);
        let mean = |name: &str| {
            let a = agg.get(name).copied().unwrap_or_default();
            a.total_ns as f64 / a.calls.max(1) as f64
        };
        let tasks = tasks_per_run as f64;
        let records = counts.get("journal.records") as f64;
        let journal = mean("variant.journal");
        report.set(
            "journal.append_ns_per_record",
            (journal - mean("plan") - mean("executor.faulty")) / records,
        );
        report.set(
            "obs.metrics_ns_per_task",
            (mean("variant.journal_metrics") - journal) / tasks,
        );
        report.set(
            "obs.snapshot_ns_per_task",
            (mean("journaled_run") - journal) / tasks,
        );
        report.set(
            "obs.fold_ns_per_line",
            mean("fold_stream") / counts.get("obs.stream_lines") as f64,
        );
        report.set(
            "journal.load_ns_per_byte",
            mean("journal.load") / counts.get("journal.bytes") as f64,
        );
        report.set("journal.resume_p50_ms", median(&resume_ms));
        counts.publish(&mut report);
    } else {
        eprintln!(
            "resume: n={} host p50 {:.3} ms",
            resume_ms.len(),
            median(&resume_ms)
        );
        eprintln!("output digest {:016x}", counts.get("output_digest"));
        op_metrics(&mut report, &times, counts.get("executor.tasks") as f64);
    }
    report
}

//! `paper-matrix`: the paper's eight application variants, each under
//! Only-GPU, Only-CPU and every Table I strategy of its class, fault-free
//! and unobserved. One op is one whole pass. It is all analyzer, planner,
//! Glinda and executor: no codec, journal, observer or service work.

use std::collections::BTreeMap;
use std::time::Instant;

use bench::experiments::paper_variants;
use hetero_platform::Platform;
use hetero_runtime::{report_digest, RunReport};
use matchmaker::{Analyzer, AppDescriptor, ExecutionConfig, Plan, Strategy};

use crate::layers::{
    executor_span, glinda_solves, planned_decisions, replay_glinda, simulate_config,
    simulated_tasks, span_metrics,
};
use crate::span::Spans;
use crate::{op_metrics, run_ops, setup, Counts, Ctx, Fnv, Report, Rng};

/// Pinned FNV-1a digests of `report_digest` per (app, config).
const EXPECTED: &str = include_str!("../expected/paper-matrix.txt");
/// The reference output whose Figure 12 rows every pass must reproduce.
const REPRO_OUTPUT: &str = include_str!("../../docs/repro_output.txt");

struct Inputs {
    platform: Platform,
    variants: Vec<AppDescriptor>,
    /// Per app, in visiting order: (app index, configs in visiting order).
    jobs: Vec<(usize, Vec<ExecutionConfig>)>,
    /// Per app index: the Table I ranking `analyze` must return.
    rankings: Vec<Vec<Strategy>>,
}

struct Eval {
    app: usize,
    config: ExecutionConfig,
    plan: Plan,
    report: RunReport,
    tasks: u64,
}

fn build(seed: u64) -> Inputs {
    let platform = Platform::icpp15();
    let variants = paper_variants();
    let analyzer = Analyzer::new(&platform);
    let mut rng = Rng::new(seed);
    let rankings: Vec<Vec<Strategy>> = variants
        .iter()
        .map(|d| analyzer.analyze(d).ranking)
        .collect();
    let mut jobs: Vec<(usize, Vec<ExecutionConfig>)> = rankings
        .iter()
        .enumerate()
        .map(|(app, ranking)| {
            let mut configs: Vec<ExecutionConfig> =
                [ExecutionConfig::OnlyGpu, ExecutionConfig::OnlyCpu]
                    .into_iter()
                    .chain(ranking.iter().map(|&s| ExecutionConfig::Strategy(s)))
                    .collect();
            rng.shuffle(&mut configs);
            (app, configs)
        })
        .collect();
    rng.shuffle(&mut jobs);
    Inputs {
        platform,
        variants,
        jobs,
        rankings,
    }
}

/// One pass over the matrix. Returns its host time in seconds and every
/// evaluation, in visiting order.
fn pass(inputs: &Inputs, analyzer: &Analyzer, spans: &mut Spans) -> (f64, Vec<Eval>, u64) {
    let mut evals = Vec::new();
    let mut ranking_errors = 0;
    let start = Instant::now();
    let root = spans.enter("op");
    for (app, configs) in &inputs.jobs {
        let desc = &inputs.variants[*app];
        let analysis = spans.time("analyze", 1, || analyzer.analyze(desc));
        if analysis.ranking != inputs.rankings[*app] {
            ranking_errors += 1;
        }
        for &config in configs {
            let open = spans.enter("plan");
            let plan = analyzer.plan(desc, config);
            spans.exit(open, plan.program.task_count() as u64);
            let tasks = simulated_tasks(&plan.program, config);
            let report = spans.time(executor_span(config), tasks, || {
                simulate_config(&inputs.platform, &plan.program, config)
            });
            evals.push(Eval {
                app: *app,
                config,
                plan,
                report,
                tasks,
            });
        }
    }
    let tasks = evals.iter().map(|e| e.tasks).sum();
    spans.exit(root, tasks);
    (start.elapsed().as_secs_f64(), evals, ranking_errors)
}

fn expected_digests() -> BTreeMap<(String, String), String> {
    EXPECTED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split('\t');
            Some(((f.next()?.into(), f.next()?.into()), f.next()?.into()))
        })
        .collect()
}

/// The Figure 12 block of the reference output: per-app rows and the
/// average line, whitespace-normalised.
fn expected_fig12() -> Vec<String> {
    REPRO_OUTPUT
        .lines()
        .skip_while(|l| !l.starts_with("Figure 12"))
        .skip(2)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let mut words: Vec<&str> = l.split_whitespace().collect();
            if let Some(p) = words.iter().position(|w| w.starts_with("(paper")) {
                words.truncate(p);
            }
            words.join(" ")
        })
        .collect()
}

/// Figure 12 recomputed from one pass, in the reference's row format.
fn fig12(inputs: &Inputs, evals: &[Eval]) -> Vec<String> {
    let mut rows = Vec::new();
    let (mut sum_og, mut sum_oc) = (0.0, 0.0);
    for (app, desc) in inputs.variants.iter().enumerate() {
        let ms = |c: ExecutionConfig| {
            evals
                .iter()
                .find(|e| e.app == app && e.config == c)
                .map(|e| e.report.makespan.as_millis_f64())
        };
        let (Some(og), Some(oc)) = (ms(ExecutionConfig::OnlyGpu), ms(ExecutionConfig::OnlyCpu))
        else {
            return vec!["missing baseline".into()];
        };
        // Best strategy in Table I rank order; the first minimum wins.
        let Some((best, t)) = inputs.rankings[app]
            .iter()
            .filter_map(|&s| ms(ExecutionConfig::Strategy(s)).map(|t| (s, t)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
        else {
            return vec!["missing strategy".into()];
        };
        sum_og += og / t;
        sum_oc += oc / t;
        rows.push(format!(
            "{} {best} {:.2}x {:.2}x",
            desc.name,
            og / t,
            oc / t
        ));
    }
    let n = inputs.variants.len() as f64;
    rows.push(format!("Average {:.2}x {:.2}x", sum_og / n, sum_oc / n));
    rows
}

pub fn run(ctx: &Ctx, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let (inputs, setup_s) = setup(5, 0.2, || build(ctx.seed));
    report.set("setup_s", setup_s);
    let analyzer = Analyzer::new(&inputs.platform);
    let expected = expected_digests();
    let fig12_ref = expected_fig12();
    let mut counts = Counts::default();

    let op = |i: u64, spans: &mut Spans, report: &mut Report| -> f64 {
        spans.set_op(i);
        let (secs, evals, ranking_errors) = pass(&inputs, &analyzer, spans);
        report.attempted += evals.len() as u64;
        report.check(ranking_errors == 0, || {
            format!("{ranking_errors} analyses disagree with Table I")
        });
        for e in &evals {
            let app = &inputs.variants[e.app].name;
            let label = e.config.to_string();
            let digest = report_digest(&e.report);
            let mut h = Fnv::default();
            h.bytes(digest.as_bytes());
            let got = format!("{:016x}", h.0);
            let want = expected.get(&(app.clone(), label.clone()));
            report.check(want == Some(&got), || {
                format!(
                    "report digest for {app} / {label}: want {want:?}, got {app}\t{label}\t{got}"
                )
            });
            if i == 0 {
                // Plan and executor called separately must give exactly
                // what the analyzer's one-call path gives.
                let whole = analyzer.simulate(&inputs.variants[e.app], e.config);
                report.check(report_digest(&whole) == digest, || {
                    format!("{app} / {label}: plan+simulate differs from Analyzer::simulate")
                });
            }
            if spans.enabled() {
                let replayed =
                    replay_glinda(analyzer.planner(), &inputs.variants[e.app], e.config, spans);
                report.check(replayed == planned_decisions(&e.plan), || {
                    format!("{app} / {label}: replayed Glinda decisions differ from the plan's")
                });
            }
        }
        let got = fig12(&inputs, &evals);
        report.check(got == fig12_ref, || {
            format!("Figure 12 differs from docs/repro_output.txt: {got:?} vs {fig12_ref:?}")
        });
        let sum = |f: &dyn Fn(&Eval) -> u64| evals.iter().map(f).sum::<u64>();
        let c = [
            ("executor.tasks", sum(&|e| e.tasks)),
            ("plan.tasks", sum(&|e| e.plan.program.task_count() as u64)),
            (
                "executor.transfers",
                sum(&|e| e.report.counters.transfers.count),
            ),
            (
                "executor.sched_decisions",
                sum(&|e| e.report.counters.sched_decisions),
            ),
            (
                "glinda.solves",
                sum(&|e| glinda_solves(&inputs.variants[e.app], e.config)),
            ),
        ];
        counts.observe(report, &c);
        secs
    };

    let times = run_ops(ctx, spans, &mut report, 11, op);
    if ctx.trace {
        span_metrics(&mut report, &spans.aggregate());
        counts.publish(&mut report);
    } else {
        op_metrics(&mut report, &times, counts.get("executor.tasks") as f64);
    }
    report
}

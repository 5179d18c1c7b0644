//! `service-calm` and `service-burst`: 10⁵ requests from `generate_load`
//! replayed through `PlanService::run`, an open loop on the virtual clock
//! (mean gap 120 µs, 8 clients). Calm exercises the codec's decode path
//! and the plan cache; burst adds the canonical overload schedule (10×
//! arrivals over the middle half, torn, malformed and oversized frames, a
//! stalled worker), the only load that reaches the codec's reject paths
//! and admission's degrade and shed branches. Load generation is client
//! work and counts as set-up. One op is one `PlanService::run`.

use std::collections::BTreeMap;
use std::time::Instant;

use hetero_platform::{Platform, SimTime};
use hetero_runtime::{LogHistogram, SeriesValue};
use matchmaker::{
    check_shed_or_serve, decode_request, encode_request, generate_load, Analyzer, Arrival,
    ChaosSchedule, ExecutionConfig, LoadConfig, PlanService, ServiceConfig, ServiceError,
    ServiceOutcome,
};

use crate::layers::{executor_span, replay_glinda, simulate_config, simulated_tasks, span_metrics};
use crate::span::Spans;
use crate::{
    check_pinned, op_metrics, pinned_digest, quantile_u64, run_ops, setup, Counts, Ctx, Fnv,
    Report, PER_LAYER,
};

const REQUESTS: u64 = 100_000;
/// Arrival-rate multiplier of the burst window.
const BURST_FACTOR: u32 = 10;

struct Inputs {
    platform: Platform,
    chaos: ChaosSchedule,
    arrivals: Vec<Arrival>,
}

fn build(seed: u64, burst: bool) -> Inputs {
    let load = LoadConfig {
        requests: REQUESTS,
        seed,
        ..LoadConfig::default()
    };
    let chaos = if burst {
        let span = SimTime::from_micros(REQUESTS * load.mean_gap_us);
        ChaosSchedule::burst(seed, BURST_FACTOR, span)
    } else {
        ChaosSchedule::calm(seed)
    };
    let arrivals = generate_load(&load, &chaos);
    Inputs {
        platform: Platform::icpp15(),
        chaos,
        arrivals,
    }
}

/// Verdicts the wire codec returns (the frame never reached admission).
fn codec_reject(e: &ServiceError) -> bool {
    matches!(
        e,
        ServiceError::BadFrame { .. }
            | ServiceError::Oversized { .. }
            | ServiceError::TornBody { .. }
            | ServiceError::BadJson { .. }
    )
}

/// Order-sensitive digest of every outcome's observable fields.
fn outcome_digest(outcomes: &[ServiceOutcome]) -> u64 {
    let mut h = Fnv::default();
    for o in outcomes {
        h.u64(o.seq);
        h.u64(o.arrival.as_nanos());
        h.u64(o.done.as_nanos());
        match &o.result {
            Ok(r) => {
                h.bytes(format!("{}|{}|{}", r.app, r.class, r.config).as_bytes());
                for x in [
                    r.id,
                    r.tasks,
                    r.makespan_us.unwrap_or(u64::MAX),
                    u64::from(r.cached),
                    u64::from(r.degraded),
                    r.queue_us,
                    r.service_us,
                ] {
                    h.u64(x);
                }
            }
            Err(e) => h.bytes(e.verdict().as_bytes()),
        }
    }
    h.0
}

/// Sum of the counter series named `name` whose labels pass `keep`.
fn counter_sum(svc: &PlanService, name: &str, keep: impl Fn(&[(String, String)]) -> bool) -> u64 {
    svc.registry()
        .series
        .values()
        .filter(|s| s.name == name && keep(&s.labels))
        .map(|s| match s.value {
            SeriesValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// Replay the codec and solver work of one run from outside: decode every
/// frame (and re-encode every request that decoded), and redo classify +
/// lower (+ simulate for what-if) for every fresh solve. Each call runs
/// under its own span.
fn replay(
    inputs: &Inputs,
    analyzer: &Analyzer,
    outcomes: &[ServiceOutcome],
    spans: &mut Spans,
    report: &mut Report,
) {
    let max_body = ServiceConfig::default().max_body_bytes;
    for (arrival, outcome) in inputs.arrivals.iter().zip(outcomes) {
        let bytes = arrival.bytes.len() as u64;
        let rejected = matches!(&outcome.result, Err(e) if codec_reject(e));
        let name = if rejected {
            "codec.reject"
        } else {
            "codec.decode"
        };
        let decoded = spans.time(name, bytes, || decode_request(&arrival.bytes, max_body));
        let req = match decoded {
            Ok(req) if !rejected => req,
            Err(_) if rejected => continue,
            other => {
                report.check(false, || {
                    format!(
                        "arrival {}: replayed decode disagrees: {other:?}",
                        outcome.seq
                    )
                });
                continue;
            }
        };
        let encoded = spans.time("codec.encode", bytes, || encode_request(&req));
        report.check(encoded == arrival.bytes, || {
            format!("arrival {}: encode(decode(frame)) != frame", outcome.seq)
        });
        let Ok(resp) = &outcome.result else { continue };
        if resp.cached {
            continue;
        }
        let root = spans.enter("service.solve");
        let analysis = spans.time("analyze", 1, || analyzer.analyze(&req.app));
        let config = req
            .config
            .unwrap_or(ExecutionConfig::Strategy(analysis.best));
        let open = spans.enter("plan");
        let plan = analyzer.plan(&req.app, config);
        let tasks = plan.program.task_count() as u64;
        spans.exit(open, tasks);
        let makespan_us = req.what_if.then(|| {
            // `Analyzer::simulate` lowers the plan again before running it.
            let open = spans.enter("plan");
            let plan = analyzer.plan(&req.app, config);
            spans.exit(open, tasks);
            let report = spans.time(
                executor_span(config),
                simulated_tasks(&plan.program, config),
                || simulate_config(&inputs.platform, &plan.program, config),
            );
            report.makespan.as_nanos() / 1_000
        });
        spans.exit(root, 1);
        report.check(
            (analysis.class, config, tasks, makespan_us)
                == (resp.class, resp.config, resp.tasks, resp.makespan_us),
            || {
                format!(
                    "arrival {}: replayed solve differs from the response",
                    outcome.seq
                )
            },
        );
        replay_glinda(analyzer.planner(), &req.app, config, spans);
    }
}

pub fn run(ctx: &Ctx, spans: &mut Spans, burst: bool) -> Report {
    let workload = if burst {
        "service-burst"
    } else {
        "service-calm"
    };
    let mut report = Report::default();
    let (inputs, setup_s) = setup(3, 0.0, || build(ctx.seed, burst));
    report.set("setup_s", setup_s);
    let analyzer = Analyzer::new(&inputs.platform);
    let n = inputs.arrivals.len();
    let pinned = pinned_digest(workload, ctx.seed);
    let mut counts = Counts::default();
    let mut layer = BTreeMap::<&'static str, f64>::new();
    let mut last_outcomes = None;

    let op = |i: u64, spans: &mut Spans, report: &mut Report| -> f64 {
        spans.set_op(i);
        let mut svc = PlanService::new(
            &inputs.platform,
            ServiceConfig::default(),
            inputs.chaos.clone(),
        );
        let start = Instant::now();
        let root = spans.enter("op");
        let outcomes = spans.time("service.run", n as u64, || svc.run(&inputs.arrivals));
        spans.exit(root, n as u64);
        let secs = start.elapsed().as_secs_f64();

        report.attempted += n as u64;
        report.check(check_shed_or_serve(n, &outcomes).is_ok(), || {
            "shed-or-serve violated".into()
        });
        let mut shed_by: BTreeMap<String, u64> = PER_LAYER
            .iter()
            .filter(|(name, _)| name.starts_with("service.shed."))
            .map(|(name, _)| (name.to_string(), 0))
            .collect();
        let (mut served, mut shed, mut cached, mut degraded, mut rejected) = (0, 0, 0, 0, 0);
        let mut latency_ns = Vec::with_capacity(n);
        let mut queue_us = Vec::new();
        let mut hist = LogHistogram::default();
        for o in &outcomes {
            let lat = o.done.saturating_sub(o.arrival);
            latency_ns.push(lat.as_nanos());
            hist.observe(lat);
            match &o.result {
                Ok(r) => {
                    served += 1;
                    cached += u64::from(r.cached);
                    degraded += u64::from(r.degraded);
                    queue_us.push(r.queue_us);
                }
                Err(e) => {
                    shed += 1;
                    rejected += u64::from(codec_reject(e));
                    *shed_by
                        .entry(format!("service.shed.{}", e.verdict()))
                        .or_default() += 1;
                }
            }
        }
        report.shed += shed;
        report.check(served + shed == n as u64, || {
            format!("{served} served + {shed} shed != {n}")
        });
        let requests = counter_sum(&svc, "hm_service_requests_total", |_| true);
        let reg_served = counter_sum(&svc, "hm_service_served_total", |_| true);
        let reg_shed = counter_sum(&svc, "hm_service_admission_total", |l| {
            !l.iter().any(|(_, v)| v == "enqueued" || v == "degraded")
        });
        report.check(
            (requests, reg_served, reg_shed) == (n as u64, served, shed),
            || format!("registry counts {requests}/{reg_served}/{reg_shed} vs {n}/{served}/{shed}"),
        );
        let digest = outcome_digest(&outcomes);
        check_pinned(report, pinned.as_deref(), digest, || {
            format!("{workload} seed {}", ctx.seed)
        });
        let mut c: Vec<(String, u64)> = shed_by.into_iter().collect();
        for (k, v) in [
            ("output_digest", digest),
            ("codec.frames_ok", n as u64 - rejected),
            ("codec.frames_rejected", rejected),
            ("service.fresh_solves", served - cached),
            ("service.cached", cached),
            ("service.degraded", degraded),
        ] {
            c.push((k.to_string(), v));
        }
        counts.observe(report, &c);

        if layer.is_empty() {
            latency_ns.sort_unstable();
            queue_us.sort_unstable();
            let exact_p99 = quantile_u64(&latency_ns, 0.99) as f64 / 1e3;
            layer.insert(
                "service.virt_p50_us",
                quantile_u64(&latency_ns, 0.50) as f64 / 1e3,
            );
            layer.insert("service.virt_p99_us", exact_p99);
            layer.insert(
                "service.queue_wait_p99_us",
                quantile_u64(&queue_us, 0.99) as f64,
            );
            layer.insert("service.cache_hit_ratio", cached as f64 / served as f64);
            layer.insert(
                "obs.loghist_p99_rel_err",
                (hist.quantile(0.99) * 1e6 - exact_p99).abs() / exact_p99,
            );
            eprintln!(
                "{workload}: {n} arrivals, {served} served ({cached} cached, {degraded} degraded), \
                 {shed} shed ({rejected} at the codec); virtual p50 {:.1} µs, p99 {exact_p99:.1} µs \
                 (log2 histogram p99 {:.1} µs)",
                layer["service.virt_p50_us"],
                hist.quantile(0.99) * 1e6
            );
        }
        if spans.enabled() {
            last_outcomes = Some(outcomes);
        }
        secs
    };

    let times = run_ops(ctx, spans, &mut report, 5, op);
    if ctx.trace {
        // Replayed after the timed ops, so its allocations cannot slow them.
        if let Some(outcomes) = last_outcomes.take() {
            spans.set_op(times.host.len() as u64 + 1);
            let t0 = Instant::now();
            replay(&inputs, &analyzer, &outcomes, spans, &mut report);
            eprintln!(
                "replayed codec and solver work in {:.2} s",
                t0.elapsed().as_secs_f64()
            );
        }
        let agg = spans.aggregate();
        span_metrics(&mut report, &agg);
        let per = |name: &str| agg.get(name).copied().unwrap_or_default();
        let per_kb = |name: &str| {
            let a = per(name);
            if a.units == 0 {
                return 0.0;
            }
            a.total_ns as f64 / (a.units as f64 / 1024.0)
        };
        report.set("codec.decode_ns_per_kb", per_kb("codec.decode"));
        report.set("codec.reject_ns_per_kb", per_kb("codec.reject"));
        report.set("codec.encode_ns_per_kb", per_kb("codec.encode"));
        let solve = per("service.solve");
        report.set(
            "service.solve_us",
            solve.total_ns as f64 / solve.calls as f64 / 1e3,
        );
        // Admission, queueing, cache and registry work: what is left of
        // one run once one replay's decode and solve time is taken out.
        let run = per("service.run");
        let run_ns = run.total_ns as f64 / run.calls as f64;
        let replayed_ns =
            per("codec.decode").total_ns + per("codec.reject").total_ns + solve.total_ns;
        report.set(
            "service.admission_self_ms",
            (run_ns - replayed_ns as f64) / 1e6,
        );
        // Work counts of the replayed misses (one run's worth).
        report.set("glinda.solves", per("glinda.decide").calls as f64);
        report.set("plan.tasks", per("plan").units as f64);
        let executed: u64 = ["executor.pinned", "executor.dep", "executor.perf"]
            .iter()
            .map(|s| per(s).units)
            .sum();
        report.set("executor.tasks", executed as f64);
        counts.publish(&mut report);
        for (name, v) in layer {
            report.set(name, v);
        }
    } else {
        op_metrics(&mut report, &times, n as f64);
        eprintln!("output digest {:016x}", counts.get("output_digest"));
    }
    report
}

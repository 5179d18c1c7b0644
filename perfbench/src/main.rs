//! Layered benchmark of the matchmaking analyzer, its journaled runtime
//! and its planning service, driven only through the public API.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `paper-matrix`, `journaled-run`, `service-calm`,
//! `service-burst` (see README.md for what each stresses and why). With
//! `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` spans are recorded around the layer
//! calls and the object carries every per-layer metric instead. Every
//! workload checks its outputs; a failed check is counted in `failed`,
//! sets `correct` to false and makes the process exit 1. Requests the
//! service sheds under chaos are its checked, designed answer, not failed
//! ops: they lower `ok_ratio` but are not counted in `failed`.

mod calib;
mod journaled;
mod layers;
mod matrix;
mod service;
mod span;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics (untraced runs), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("op_p50_ms", "ms"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload never
/// calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("glinda.solve_us", "us"),
    ("glinda.solves", "count"),
    ("analyze.call_ns", "ns"),
    ("plan.lower_ns_per_task", "ns/task"),
    ("plan.tasks", "count"),
    ("executor.pinned_ns_per_task", "ns/task"),
    ("executor.dep_ns_per_task", "ns/task"),
    ("executor.perf_ns_per_task", "ns/task"),
    ("executor.faulty_ns_per_task", "ns/task"),
    ("executor.tasks", "count"),
    ("executor.transfers", "count"),
    ("executor.sched_decisions", "count"),
    ("obs.metrics_ns_per_task", "ns/task"),
    ("obs.snapshot_ns_per_task", "ns/task"),
    ("obs.stream_bytes", "bytes"),
    ("obs.fold_ns_per_line", "ns/line"),
    ("obs.loghist_p99_rel_err", "ratio"),
    ("journal.append_ns_per_record", "ns/record"),
    ("journal.load_ns_per_byte", "ns/byte"),
    ("journal.records", "count"),
    ("journal.bytes", "bytes"),
    ("journal.resume_p50_ms", "ms"),
    ("codec.decode_ns_per_kb", "ns/KB"),
    ("codec.reject_ns_per_kb", "ns/KB"),
    ("codec.encode_ns_per_kb", "ns/KB"),
    ("codec.frames_ok", "count"),
    ("codec.frames_rejected", "count"),
    ("service.solve_us", "us"),
    ("service.fresh_solves", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.degraded", "count"),
    ("service.shed.bad_frame", "count"),
    ("service.shed.oversized", "count"),
    ("service.shed.torn_body", "count"),
    ("service.shed.bad_json", "count"),
    ("service.shed.invalid_request", "count"),
    ("service.shed.queue_full", "count"),
    ("service.shed.rate_limited", "count"),
    ("service.shed.deadline_queue", "count"),
    ("service.shed.deadline_solve", "count"),
    ("service.queue_wait_p99_us", "virt_us"),
    ("service.admission_self_ms", "ms"),
    ("service.virt_p50_us", "virt_us"),
    ("service.virt_p99_us", "virt_us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.ops", "count"),
];

/// What one invocation measures.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A workload's result: op accounting, failed checks and metric values.
#[derive(Default)]
pub struct Report {
    /// Ops (or requests) attempted.
    pub attempted: u64,
    /// Requests the service shed (answered with a typed rejection).
    pub shed: u64,
    /// Output checks that failed; each also counts as a failed op.
    pub check_failures: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures += 1;
            let msg = what();
            if self.errors.len() < 20 {
                self.errors.push(msg);
            }
        }
    }
}

/// Exact counts that must repeat on every op of a run: the first op sets
/// the reference, any later op that differs is a failed check.
#[derive(Default)]
pub struct Counts {
    first: Option<BTreeMap<String, u64>>,
}

impl Counts {
    pub fn observe<K: AsRef<str>>(&mut self, report: &mut Report, op: &[(K, u64)]) {
        let op: BTreeMap<String, u64> = op
            .iter()
            .map(|(k, v)| (k.as_ref().to_string(), *v))
            .collect();
        match &self.first {
            None => self.first = Some(op),
            Some(first) => report.check(*first == op, || {
                format!("counts differ between ops of one run: {first:?} vs {op:?}")
            }),
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.first
            .as_ref()
            .and_then(|m| m.get(name).copied())
            .unwrap_or(0)
    }

    /// Report every count as a metric (output digests only repeat).
    pub fn publish(&self, report: &mut Report) {
        for (name, v) in self.first.iter().flatten() {
            if name != "output_digest" {
                report.set(name.as_str(), *v as f64);
            }
        }
    }
}

/// Build the workload inputs at least `min_reps` times and until `min_s`
/// seconds have passed; returns the last inputs and the median build time
/// in reference-speed seconds (see `calib`). Cheap builds are timed in
/// batches of at least `BATCH_S`, each between two reference measurements.
/// Earlier builds are dropped, untimed, before the next starts, so peak
/// memory holds one copy.
pub fn setup<T>(min_reps: usize, min_s: f64, mut build: impl FnMut() -> T) -> (T, f64) {
    const BATCH_S: f64 = 0.01;
    let start = Instant::now();
    let mut builds = 0;
    let mut per_build = Vec::new();
    let mut last = None;
    let mut before = calib::pass_s(0.0);
    while builds < min_reps || start.elapsed().as_secs_f64() < min_s {
        let batch = Instant::now();
        let (mut busy, mut k) = (0.0, 0);
        while k == 0 || batch.elapsed().as_secs_f64() < BATCH_S {
            drop(last.take());
            let t0 = Instant::now();
            let v = build();
            busy += t0.elapsed().as_secs_f64();
            last = Some(v);
            k += 1;
        }
        let after = calib::pass_s(batch.elapsed().as_secs_f64());
        per_build.push(calib::reference_s(busy / k as f64, before, after));
        before = after;
        builds += k;
    }
    (last.expect("at least one build"), median(&per_build))
}

/// Times of the timed ops of one run, in ms.
pub struct OpTimes {
    /// Host time.
    pub host: Vec<f64>,
    /// Reference-speed time (see `calib`).
    pub reference: Vec<f64>,
}

/// Run `op` once as an untimed warm-up, then again until `seconds` have
/// passed and at least `min_ops` timed ops ran. `op(i)` returns its own
/// host time in seconds (checks it does afterwards are not timed). The
/// reference kernel runs between ops.
fn timed_ops(seconds: f64, min_ops: usize, mut op: impl FnMut(u64) -> f64) -> OpTimes {
    let warm = op(0);
    let start = Instant::now();
    let mut times = OpTimes {
        host: Vec::new(),
        reference: Vec::new(),
    };
    let mut before = calib::pass_s(warm);
    while times.host.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let secs = op(times.host.len() as u64 + 1);
        let after = calib::pass_s(secs);
        times.host.push(secs * 1e3);
        times
            .reference
            .push(calib::reference_s(secs, before, after) * 1e3);
        before = after;
    }
    times
}

/// Time a workload's ops. Untraced: for `ctx.seconds`. Traced: untraced
/// for a third of that, then with spans for the rest (each phase's warm-up
/// op untraced); sets `trace.overhead_pct` and `trace.ops` and returns the
/// traced times.
pub fn run_ops(
    ctx: &Ctx,
    spans: &mut span::Spans,
    report: &mut Report,
    min_ops: usize,
    mut op: impl FnMut(u64, &mut span::Spans, &mut Report) -> f64,
) -> OpTimes {
    let mut off = span::Spans::new(false);
    if !ctx.trace {
        return timed_ops(ctx.seconds, min_ops, |i| op(i, &mut off, report));
    }
    let untraced = timed_ops(ctx.seconds / 3.0, 3, |i| op(i, &mut off, report));
    let traced = timed_ops(ctx.seconds * 2.0 / 3.0, 3, |i| {
        if i == 0 {
            op(i, &mut off, report)
        } else {
            op(i, spans, report)
        }
    });
    report.set("trace.overhead_pct", overhead_pct(&untraced, &traced));
    report.set("trace.ops", traced.host.len() as f64);
    traced
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail: the highest sample with at least ten samples above it, i.e.
/// the (n−10)/n quantile. Needs n ≥ 11; returns (value, percentile).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    (n >= 11).then(|| (v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

/// Nearest-rank quantile of integer samples (the rank rule
/// `LogHistogram::quantile` uses, so the two are comparable).
pub fn quantile_u64(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
    sorted[(rank - 1) as usize]
}

/// Host peak resident set size in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Pinned output digests per (workload, seed).
const PINNED: &str = include_str!("../expected/outcomes.txt");

/// The pinned output digest of `workload` at `seed`, if one is recorded.
pub fn pinned_digest(workload: &str, seed: u64) -> Option<String> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (f.len() == 3 && f[0] == workload && f[1] == seed.to_string()).then(|| f[2].to_string())
        })
}

/// Fail the check when a digest is pinned and `got` differs from it.
pub fn check_pinned(
    report: &mut Report,
    pinned: Option<&str>,
    got: u64,
    what: impl FnOnce() -> String,
) {
    if let Some(want) = pinned {
        report.check(want == format!("{got:016x}"), || {
            format!("output digest for {}: want {want}, got {got:016x}", what())
        });
    }
}

/// SplitMix64: the seeded generator behind input permutations.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// FNV-1a over a byte stream, for output digests.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Op-time metrics shared by every workload: the median reference-speed
/// op time and the work done per reference-speed second (`units_per_op`
/// work units per op). Raw host times go to stderr: median and tail, with
/// the sample count.
pub fn op_metrics(report: &mut Report, times: &OpTimes, units_per_op: f64) {
    let p50 = median(&times.reference);
    report.set("op_p50_ms", p50);
    report.set("work_per_s", units_per_op / (p50 / 1e3));
    let n = times.host.len();
    let host = median(&times.host);
    match tail(&times.host) {
        Some((v, pct)) => eprintln!("ops: n={n} host p50 {host:.3} ms, tail (p{pct:.1}) {v:.3} ms"),
        None => eprintln!("ops: n={n} host p50 {host:.3} ms (no tail: fewer than 11 samples)"),
    }
}

/// Tracing overhead in percent: traced against untraced median
/// reference-speed op time.
fn overhead_pct(untraced: &OpTimes, traced: &OpTimes) -> f64 {
    100.0 * (median(&traced.reference) / median(&untraced.reference) - 1.0)
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Ctx {
            seed: seed.unwrap_or(7),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-matrix|journaled-run|service-calm|service-burst> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut spans = span::Spans::new(ctx.trace);
    let mut report = match workload.as_str() {
        "paper-matrix" => matrix::run(&ctx, &mut spans),
        "journaled-run" => journaled::run(&ctx, &mut spans),
        "service-calm" => service::run(&ctx, &mut spans, false),
        "service-burst" => service::run(&ctx, &mut spans, true),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    match peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report.check(false, || "cannot read VmHWM from /proc/self/status".into()),
    }
    let attempted = report.attempted.max(1);
    if ctx.trace {
        report.set("trace.spans", spans.len() as f64);
        // Flat profile: where the traced run's time went, by self time.
        let mut flat: Vec<_> = spans.aggregate().into_iter().collect();
        flat.sort_by_key(|(_, a)| std::cmp::Reverse(a.self_ns));
        for (name, a) in flat {
            eprintln!(
                "span {name:<24} calls {:>8}  total {:>10.3} ms  self {:>10.3} ms",
                a.calls,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            );
        }
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perfbench/target"));
        let path = dir
            .join("perfbench-spans")
            .join(format!("{workload}-seed{}.jsonl", ctx.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!("spans: {} -> {}", spans.len(), path.display()),
            Err(e) => report.check(false, || format!("writing {}: {e}", path.display())),
        }
    }

    let not_ok = report.shed + report.check_failures;
    report.set("ok_ratio", 1.0 - not_ok as f64 / attempted as f64);
    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if ctx.trace => 0.0,
            None => {
                report.check(false, || {
                    format!("end-to-end metric {name} was not measured")
                });
                continue;
            }
        };
        if !value.is_finite() {
            report.check(false, || format!("metric {name} is not finite: {value}"));
            continue;
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for (name, value) in &report.metrics {
        eprintln!("  {name:<32} {value}");
    }
    for e in &report.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = report.check_failures == 0;
    let failed = report.check_failures;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

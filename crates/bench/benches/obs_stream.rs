//! Observability-path micro-benchmarks (PR 9): streaming-snapshot
//! emission overhead vs a plain run, delta-stream folding, span-tree
//! lifting from a recorded trace, and the run-diff engine — over a
//! repro-corpus app (STREAM with synchronisation, one snapshot per loop
//! barrier).
//!
//! Prints one summary line per benchmark and writes the measurements as
//! machine-readable `BENCH_9.json` at the workspace root, extending the
//! `BENCH_*.json` perf trajectory.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use hetero_apps::stream;
use hetero_platform::Platform;
use hetero_runtime::{
    fold_stream, MetricsRegistry, RunDiff, SnapshotObserver, SpanTree, TraceObserver,
};
use matchmaker::{Analyzer, ExecutionConfig, RunSpec, Strategy, STREAM_STRATEGY_LABEL};
use serde::Serialize;

/// Mean wall-clock nanoseconds per call over `samples` calls (after one
/// warm-up call), in the same spirit as the vendored criterion stand-in.
fn measure<O, F: FnMut() -> O>(samples: u32, mut f: F) -> f64 {
    black_box(f());
    let start = Instant::now();
    for _ in 0..samples {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / f64::from(samples)
}

#[derive(Serialize)]
struct BenchResult {
    name: String,
    mean_ns: f64,
    /// Logical units processed per call (snapshots, spans, series, ...).
    units: u64,
    unit: &'static str,
}

#[derive(Serialize)]
struct BenchFile {
    pr: u32,
    bench: &'static str,
    samples: u32,
    results: Vec<BenchResult>,
}

fn main() {
    const SAMPLES: u32 = 20;
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = stream::descriptor(1 << 20, Some(8), true);
    let config = ExecutionConfig::Strategy(Strategy::SpUnified);
    let spec = RunSpec::plain();

    // One reference streamed run supplies the snapshot lines, registry
    // JSON and trace every benchmark below chews on.
    let streamed_run = || {
        let mut obs = SnapshotObserver::new(&platform, STREAM_STRATEGY_LABEL);
        let report = analyzer.execute(&desc, config, &spec, &mut obs, None);
        (report.expect("streamed run"), obs)
    };
    let (_, obs) = streamed_run();
    let stream_text = obs.stream();
    let snapshots = obs.lines().len() as u64;
    assert!(snapshots >= 4, "want a multi-epoch stream, got {snapshots}");
    let registry_json = obs.registry().to_json();
    let series = obs.registry().series.len() as u64;

    let mut tobs = TraceObserver::new();
    analyzer
        .execute(&desc, config, &RunSpec::plain(), &mut tobs, None)
        .unwrap();
    let tree = SpanTree::from_trace(tobs.trace(), &platform);
    let spans = tree.span_count() as u64;
    let events = tobs.trace().events.len() as u64;

    let mut results = Vec::new();
    let mut push = |name: &str, mean_ns: f64, units: u64, unit: &'static str| {
        let per = mean_ns / units.max(1) as f64;
        eprintln!("bench obs_stream/{name:<26} {mean_ns:>12.0} ns/iter  ({per:.0} ns/{unit})");
        results.push(BenchResult {
            name: name.to_string(),
            mean_ns,
            units,
            unit,
        });
    };

    // Emission overhead: the same run bare vs with the snapshot observer
    // delta-encoding a line at every barrier.
    let plain = measure(SAMPLES, || analyzer.simulate(&desc, config).makespan);
    push("simulate_plain", plain, snapshots, "snapshot");
    let streamed = measure(SAMPLES, || streamed_run().0.makespan);
    push("simulate_streamed", streamed, snapshots, "snapshot");

    // Consumer side: fold the delta lines back into a full registry (the
    // `stream-fold-equivalence` path a monitoring client replays).
    let fold = measure(SAMPLES, || fold_stream(&stream_text).unwrap().series.len());
    push("fold_stream", fold, snapshots, "snapshot");

    // Span profiling: lift the flat trace into the causal span tree.
    let lift = measure(SAMPLES, || {
        SpanTree::from_trace(tobs.trace(), &platform).span_count()
    });
    push("span_tree_from_trace", lift, events, "event");

    // Span export: tile the tree into hm_span_seconds gauges.
    let export = measure(SAMPLES, || {
        let mut registry = MetricsRegistry::new();
        tree.export_metrics(&mut registry, STREAM_STRATEGY_LABEL);
        registry.series.len()
    });
    push("span_export_metrics", export, spans, "span");

    // Run-diff engine: compare a registry against itself (worst case for
    // the matcher — every series pairs up).
    let diff = measure(SAMPLES, || {
        RunDiff::between(&registry_json, &registry_json, 5.0)
            .unwrap()
            .entries
            .len()
    });
    push("run_diff_between", diff, series, "series");

    let out = BenchFile {
        pr: 9,
        bench: "obs_stream",
        samples: SAMPLES,
        results,
    };
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_9.json");
    std::fs::write(&path, serde_json::to_string_pretty(&out).unwrap() + "\n")
        .expect("write BENCH_9.json");
    eprintln!("wrote {}", path.display());
}

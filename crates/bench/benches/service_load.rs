//! Planning-service load benchmark (PR 10): 10⁵ seeded requests through
//! the overload-hardened service front-end, calm and under the canonical
//! 10× burst chaos schedule, publishing terminal-latency percentiles
//! (virtual time) and wall-clock throughput as `BENCH_10.json` at the
//! workspace root — the acceptance run for the `shed-or-serve` oracle.

use std::time::Instant;

use bench::trajectory::{BenchFile, BenchResult};
use hetero_platform::{Platform, SimTime};
use hetero_runtime::LogHistogram;
use matchmaker::{check_shed_or_serve, run_load, ChaosSchedule, LoadConfig, ServiceConfig};

fn main() {
    const REQUESTS: u64 = 100_000;
    let platform = Platform::icpp15();
    let load = LoadConfig {
        requests: REQUESTS,
        seed: 7,
        ..LoadConfig::default()
    };
    let span = SimTime::from_micros(REQUESTS * load.mean_gap_us);

    let mut results = Vec::new();
    let mut push = |name: &str, mean_ns: f64, units: u64, unit: &'static str| {
        eprintln!("bench service_load/{name:<22} {mean_ns:>14.0} ns  ({units} {unit}s)");
        results.push(BenchResult {
            name: name.to_string(),
            mean_ns,
            units,
            unit,
        });
    };

    for (what, chaos) in [
        ("calm", ChaosSchedule::calm(7)),
        ("chaos", ChaosSchedule::burst(7, 10, span)),
    ] {
        let start = Instant::now();
        let out = run_load(&platform, &ServiceConfig::default(), &load, &chaos);
        let wall = start.elapsed().as_nanos() as f64;
        check_shed_or_serve(REQUESTS as usize, &out.outcomes)
            .expect("every request gets exactly one terminal response");

        let served = out.outcomes.iter().filter(|o| o.result.is_ok()).count() as u64;
        let shed = REQUESTS - served;
        let mut hist = LogHistogram::default();
        for o in &out.outcomes {
            hist.observe(o.done.saturating_sub(o.arrival));
        }
        // Virtual terminal latency (arrival -> response) percentiles: the
        // service-level numbers the hm_service_latency_seconds histogram
        // exports, here pinned into the perf trajectory.
        push(
            &format!("{what}/latency_p50"),
            hist.quantile(0.50) * 1e9,
            served,
            "request",
        );
        push(
            &format!("{what}/latency_p95"),
            hist.quantile(0.95) * 1e9,
            served,
            "request",
        );
        push(
            &format!("{what}/latency_p99"),
            hist.quantile(0.99) * 1e9,
            served,
            "request",
        );
        // Wall-clock cost of planning the whole load (real solver work on
        // every cache miss), as mean nanoseconds per request.
        push(
            &format!("{what}/wall_per_request"),
            wall / REQUESTS as f64,
            REQUESTS,
            "request",
        );
        push(&format!("{what}/shed"), shed as f64, shed.max(1), "request");
        eprintln!("{}", out.summary);
    }

    let out = BenchFile {
        pr: 10,
        bench: "service_load",
        samples: 1,
        results,
    };
    eprintln!("wrote {}", out.write().display());
}

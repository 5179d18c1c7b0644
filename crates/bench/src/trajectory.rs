//! The shared pieces of the `BENCH_*.json` perf-trajectory benches
//! (`journal`, `obs_stream`, `service_load`): one timing loop and one
//! output schema, written at the workspace root.

use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Mean wall-clock nanoseconds per call over `samples` calls (after one
/// warm-up call), in the same spirit as the vendored criterion stand-in.
pub fn measure<O, F: FnMut() -> O>(samples: u32, mut f: F) -> f64 {
    black_box(f());
    let start = Instant::now();
    for _ in 0..samples {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / f64::from(samples)
}

/// One measured series.
#[derive(Serialize)]
pub struct BenchResult {
    /// Series name, `bench`-relative (`load_decode`, `calm/latency_p50`).
    pub name: String,
    /// Mean nanoseconds per call (or the measured quantity in ns).
    pub mean_ns: f64,
    /// Logical units processed per call (records, bytes, requests, ...).
    pub units: u64,
    /// What one unit is.
    pub unit: &'static str,
}

/// One `BENCH_<pr>.json` file.
#[derive(Serialize)]
pub struct BenchFile {
    /// The trajectory point this file belongs to.
    pub pr: u32,
    /// The bench binary that wrote it.
    pub bench: &'static str,
    /// Calls averaged per series.
    pub samples: u32,
    /// The measured series, in the order they ran.
    pub results: Vec<BenchResult>,
}

impl BenchFile {
    /// Write the file as pretty JSON to `BENCH_<pr>.json` at the workspace
    /// root and return its path.
    pub fn write(&self) -> PathBuf {
        let path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{}.json", self.pr));
        let json = serde_json::to_string_pretty(self).expect("bench results serialize");
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        path
    }
}

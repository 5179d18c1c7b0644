//! Run-diff regression engine: compare two metrics/report/bench JSON
//! exports into a typed per-series verdict table.
//!
//! Three input shapes are auto-detected:
//!
//! - a [`MetricsRegistry`] export (`matchmake run --metrics`): each
//!   counter/gauge series becomes one numeric entry; histograms contribute
//!   `.count` and `.sum_seconds` sub-entries plus their quantiles;
//! - a bench file (`BENCH_N.json`, `{"results": [{"name", "mean_ns"}]}`):
//!   each result's `mean_ns` becomes one entry;
//! - any other JSON: every numeric leaf keyed by its `a.b[2].c` path.
//!
//! Series whose name smells like a duration (`seconds`, `_ns`, `nanos`,
//! `makespan`) are *lower-is-better*: a decrease beyond tolerance is
//! `Improved`, an increase `Regressed`. Other series treat any move beyond
//! tolerance as `Regressed` (counts changing under a supposedly identical
//! configuration is a determinism regression, not progress). The engine
//! backs `matchmake diff <a.json> <b.json> [--tolerance pct]`, which exits
//! 1 when [`RunDiff::has_regressions`] and 4 when the only finding is
//! series missing from B ([`RunDiff::has_missing`]) — a renamed or dropped
//! series is a coverage gap, not a measured slowdown, so the two are
//! reported apart.

use super::metrics::MetricsRegistry;
use serde::{Deserialize, Serialize};

/// Verdict for one series when comparing run B against baseline A.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiffVerdict {
    /// Time-like series decreased beyond tolerance.
    Improved,
    /// Series moved beyond tolerance in the wrong (or any, for
    /// non-time-like series) direction.
    Regressed,
    /// Within tolerance (or exactly equal).
    Unchanged,
    /// Present only in B.
    New,
    /// Present only in A.
    Missing,
}

impl DiffVerdict {
    /// Stable lower-case name for table rendering and JSON export.
    pub fn name(self) -> &'static str {
        match self {
            DiffVerdict::Improved => "improved",
            DiffVerdict::Regressed => "regressed",
            DiffVerdict::Unchanged => "unchanged",
            DiffVerdict::New => "new",
            DiffVerdict::Missing => "missing",
        }
    }
}

/// One row of the diff table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiffEntry {
    /// Series identifier (`hm_makespan_seconds{...}`, bench name, or
    /// JSON path).
    pub name: String,
    /// The verdict for this series.
    pub verdict: DiffVerdict,
    /// Baseline value (run A), if present.
    pub a: Option<f64>,
    /// Candidate value (run B), if present.
    pub b: Option<f64>,
    /// Relative change in percent, `(b - a) / |a| × 100`; 0 when either
    /// side is missing or the baseline is 0 with b equal.
    pub delta_pct: f64,
}

/// The comparison of two runs: a verdict per series, ordered by name.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunDiff {
    /// Per-series verdicts, sorted by series name.
    pub entries: Vec<DiffEntry>,
    /// The tolerance (percent) the verdicts were computed with.
    pub tolerance_pct: f64,
}

/// True when the series name denotes a duration, where smaller is better.
fn lower_is_better(name: &str) -> bool {
    name.contains("seconds")
        || name.contains("makespan")
        || name.contains("nanos")
        || name.contains("_ns")
        || name.contains("mean_ns")
}

/// Extract comparable `(name, value)` pairs from one export.
fn extract(v: &serde_json::Value) -> Vec<(String, f64)> {
    // Shape 1: a MetricsRegistry export.
    if let Ok(reg) = MetricsRegistry::from_value(v) {
        if !reg.series.is_empty() {
            let mut out = Vec::new();
            for (id, series) in &reg.series {
                match &series.value {
                    super::metrics::SeriesValue::Counter(c) => out.push((id.clone(), *c as f64)),
                    super::metrics::SeriesValue::Gauge(g) => out.push((id.clone(), *g)),
                    super::metrics::SeriesValue::Histogram(h) => {
                        out.push((format!("{id}.count"), h.count as f64));
                        out.push((format!("{id}.sum_seconds"), h.sum_nanos as f64 / 1e9));
                        out.push((format!("{id}.p50_seconds"), h.quantile(0.50)));
                        out.push((format!("{id}.p95_seconds"), h.quantile(0.95)));
                        out.push((format!("{id}.p99_seconds"), h.quantile(0.99)));
                    }
                }
            }
            return out;
        }
    }
    // Shape 2: a bench file with named mean_ns results.
    if let Some(m) = v.as_map() {
        if let Some(results) = m
            .iter()
            .find(|(k, _)| k == "results")
            .and_then(|(_, v)| v.as_array())
        {
            let mut out = Vec::new();
            for r in results {
                let name = r["name"].as_str();
                let mean = r["mean_ns"]
                    .as_f64()
                    .or_else(|| r["mean_ns"].as_u64().map(|u| u as f64));
                if let (Some(name), Some(mean)) = (name, mean) {
                    out.push((format!("{name}.mean_ns"), mean));
                }
            }
            if !out.is_empty() {
                return out;
            }
        }
    }
    // Shape 3: generic numeric leaves by path.
    let mut out = Vec::new();
    walk(v, String::new(), &mut out);
    out
}

fn walk(v: &serde_json::Value, path: String, out: &mut Vec<(String, f64)>) {
    use serde_json::Value;
    match v {
        Value::U64(u) => out.push((path, *u as f64)),
        Value::I64(i) => out.push((path, *i as f64)),
        Value::F64(f) => out.push((path, *f)),
        Value::Map(m) => {
            for (k, v) in m {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                walk(v, p, out);
            }
        }
        Value::Seq(s) => {
            for (i, v) in s.iter().enumerate() {
                walk(v, format!("{path}[{i}]"), out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

impl RunDiff {
    /// Compare two JSON exports (candidate `b` against baseline `a`) with
    /// a symmetric relative tolerance in percent.
    pub fn between(
        a_json: &str,
        b_json: &str,
        tolerance_pct: f64,
    ) -> Result<RunDiff, serde::Error> {
        let a: serde_json::Value = serde_json::from_str(a_json)
            .map_err(|e| serde::Error::custom(format!("baseline: {e}")))?;
        let b: serde_json::Value = serde_json::from_str(b_json)
            .map_err(|e| serde::Error::custom(format!("candidate: {e}")))?;
        let mut names: Vec<String> = Vec::new();
        let amap: std::collections::BTreeMap<String, f64> = extract(&a).into_iter().collect();
        let bmap: std::collections::BTreeMap<String, f64> = extract(&b).into_iter().collect();
        names.extend(amap.keys().cloned());
        names.extend(bmap.keys().filter(|k| !amap.contains_key(*k)).cloned());
        names.sort();
        let entries = names
            .into_iter()
            .map(|name| {
                let av = amap.get(&name).copied();
                let bv = bmap.get(&name).copied();
                let (verdict, delta_pct) = match (av, bv) {
                    (None, Some(_)) => (DiffVerdict::New, 0.0),
                    (Some(_), None) => (DiffVerdict::Missing, 0.0),
                    (Some(a), Some(b)) => {
                        let delta_pct = if a == b {
                            0.0
                        } else if a == 0.0 {
                            100.0 * b.signum()
                        } else {
                            (b - a) / a.abs() * 100.0
                        };
                        let verdict = if delta_pct.abs() <= tolerance_pct {
                            DiffVerdict::Unchanged
                        } else if lower_is_better(&name) && delta_pct < 0.0 {
                            DiffVerdict::Improved
                        } else {
                            DiffVerdict::Regressed
                        };
                        (verdict, delta_pct)
                    }
                    (None, None) => unreachable!("name came from one of the maps"),
                };
                DiffEntry {
                    name,
                    verdict,
                    a: av,
                    b: bv,
                    delta_pct,
                }
            })
            .collect();
        Ok(RunDiff {
            entries,
            tolerance_pct,
        })
    }

    /// True when any series present on both sides regressed.
    pub fn has_regressions(&self) -> bool {
        self.count(DiffVerdict::Regressed) > 0
    }

    /// True when any baseline series is absent from the candidate.
    pub fn has_missing(&self) -> bool {
        self.count(DiffVerdict::Missing) > 0
    }

    /// Count entries with the given verdict.
    pub fn count(&self, verdict: DiffVerdict) -> usize {
        self.entries.iter().filter(|e| e.verdict == verdict).count()
    }

    /// Render the verdict table (one row per series plus a summary line).
    pub fn render(&self) -> String {
        let width = self
            .entries
            .iter()
            .map(|e| e.name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<w$}  {:>14}  {:>14}  {:>9}  verdict\n",
            "series",
            "baseline",
            "candidate",
            "delta",
            w = width
        ));
        let fmt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.6}"),
            None => "-".to_string(),
        };
        for e in &self.entries {
            out.push_str(&format!(
                "{:<w$}  {:>14}  {:>14}  {:>8.2}%  {}\n",
                e.name,
                fmt(e.a),
                fmt(e.b),
                e.delta_pct,
                e.verdict.name(),
                w = width
            ));
        }
        out.push_str(&format!(
            "{} series: {} improved, {} regressed, {} unchanged, {} new, {} missing (tolerance {}%)\n",
            self.entries.len(),
            self.count(DiffVerdict::Improved),
            self.count(DiffVerdict::Regressed),
            self.count(DiffVerdict::Unchanged),
            self.count(DiffVerdict::New),
            self.count(DiffVerdict::Missing),
            self.tolerance_pct,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_registries_diff_clean() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("hm_tasks_total", "Tasks.", &[("strategy", "t")], 4);
        reg.gauge_set(
            "hm_makespan_seconds",
            "Makespan.",
            &[("strategy", "t")],
            1.5,
        );
        let json = reg.to_json();
        let diff = RunDiff::between(&json, &json, 0.0).unwrap();
        assert!(!diff.has_regressions());
        assert!(diff
            .entries
            .iter()
            .all(|e| e.verdict == DiffVerdict::Unchanged));
    }

    #[test]
    fn time_like_improvement_and_regression_have_direction() {
        let mut a = MetricsRegistry::new();
        a.gauge_set(
            "hm_makespan_seconds",
            "Makespan.",
            &[("strategy", "t")],
            2.0,
        );
        a.counter_add("hm_tasks_total", "Tasks.", &[("strategy", "t")], 4);
        let mut b = MetricsRegistry::new();
        b.gauge_set(
            "hm_makespan_seconds",
            "Makespan.",
            &[("strategy", "t")],
            1.0,
        );
        b.counter_add("hm_tasks_total", "Tasks.", &[("strategy", "t")], 5);
        let diff = RunDiff::between(&a.to_json(), &b.to_json(), 0.0).unwrap();
        let makespan = diff
            .entries
            .iter()
            .find(|e| e.name.starts_with("hm_makespan_seconds"))
            .unwrap();
        assert_eq!(makespan.verdict, DiffVerdict::Improved);
        assert_eq!(makespan.delta_pct, -50.0);
        // A task-count drift is a regression even though it "went up".
        let tasks = diff
            .entries
            .iter()
            .find(|e| e.name.starts_with("hm_tasks_total"))
            .unwrap();
        assert_eq!(tasks.verdict, DiffVerdict::Regressed);
        assert!(diff.has_regressions());
    }

    #[test]
    fn tolerance_absorbs_small_moves_and_missing_regresses() {
        let mut a = MetricsRegistry::new();
        a.gauge_set(
            "hm_makespan_seconds",
            "Makespan.",
            &[("strategy", "t")],
            1.00,
        );
        a.counter_add("hm_retries_total", "Retries.", &[("strategy", "t")], 2);
        let mut b = MetricsRegistry::new();
        b.gauge_set(
            "hm_makespan_seconds",
            "Makespan.",
            &[("strategy", "t")],
            1.02,
        );
        let diff = RunDiff::between(&a.to_json(), &b.to_json(), 5.0).unwrap();
        let makespan = diff
            .entries
            .iter()
            .find(|e| e.name.starts_with("hm_makespan_seconds"))
            .unwrap();
        assert_eq!(makespan.verdict, DiffVerdict::Unchanged);
        let retries = diff
            .entries
            .iter()
            .find(|e| e.name.starts_with("hm_retries_total"))
            .unwrap();
        assert_eq!(retries.verdict, DiffVerdict::Missing);
        // A missing series is reported apart from regressions.
        assert!(!diff.has_regressions());
        assert!(diff.has_missing());
        // A regression beyond tolerance is still one, missing or not.
        let diff = RunDiff::between(&a.to_json(), &b.to_json(), 1.0).unwrap();
        assert!(diff.has_regressions());
        assert!(diff.has_missing());
        // And the same series on both sides is neither.
        let same = RunDiff::between(&a.to_json(), &a.to_json(), 0.0).unwrap();
        assert!(!same.has_regressions());
        assert!(!same.has_missing());
    }

    #[test]
    fn bench_files_compare_by_mean_ns() {
        let a = r#"{"pr": 8, "bench": "journal", "results": [
            {"name": "record", "mean_ns": 1000.0, "units": 1, "unit": "run"},
            {"name": "resume", "mean_ns": 2000.0, "units": 1, "unit": "run"}
        ]}"#;
        let b = r#"{"pr": 9, "bench": "journal", "results": [
            {"name": "record", "mean_ns": 900.0, "units": 1, "unit": "run"},
            {"name": "resume", "mean_ns": 2500.0, "units": 1, "unit": "run"}
        ]}"#;
        let diff = RunDiff::between(a, b, 10.0).unwrap();
        assert_eq!(diff.entries.len(), 2);
        assert_eq!(diff.entries[0].name, "record.mean_ns");
        assert_eq!(diff.entries[0].verdict, DiffVerdict::Unchanged);
        assert_eq!(diff.entries[1].verdict, DiffVerdict::Regressed);
        let table = diff.render();
        assert!(table.contains("regressed"));
        assert!(table.contains("tolerance 10%"));
    }

    #[test]
    fn generic_json_diffs_by_path() {
        let a = r#"{"makespan": {"seconds": 3.0}, "tasks": [1, 2]}"#;
        let b = r#"{"makespan": {"seconds": 3.0}, "tasks": [1, 3]}"#;
        let diff = RunDiff::between(a, b, 0.0).unwrap();
        let changed: Vec<_> = diff
            .entries
            .iter()
            .filter(|e| e.verdict != DiffVerdict::Unchanged)
            .collect();
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].name, "tasks[1]");
        assert_eq!(changed[0].verdict, DiffVerdict::Regressed);
    }
}

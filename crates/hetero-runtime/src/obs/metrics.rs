//! A deterministic metrics registry: typed counters, gauges and log-bucketed
//! histograms with Prometheus text exposition and JSON export, plus the
//! built-in [`MetricsObserver`] that feeds it from executor events.
//!
//! Determinism is load-bearing: the simulator replays byte-for-byte from a
//! seed, and the exported metrics must too (CI diffs a double run). Every
//! export therefore walks series in the order of their rendered identity
//! (`name{label="value",...}` with labels sorted by key) and renders floats
//! with Rust's shortest-roundtrip `Display` — no HashMap iteration order, no
//! locale, no timestamps.
//!
//! Hot paths do not render that identity per update. Each update through
//! the string API (`counter_add`, `gauge_set`, `gauge_max`, `observe`)
//! returns a `Copy` [`SeriesHandle`], and the `*_at` methods update by
//! handle alone. Every update also marks its series in a dirty set, which
//! the [`SnapshotObserver`](super::SnapshotObserver) drains at each barrier
//! instead of comparing the whole registry.

use crate::program::{KernelId, TaskId};
use crate::stats::RunReport;
use crate::trace::TraceEvent;
use hetero_platform::{DeviceId, Platform, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::Observer;

/// Number of log2 buckets in a [`LogHistogram`]. With a 1µs base bucket the
/// largest finite bound is `1µs × 2^26 ≈ 67s`; beyond that counts land in
/// the overflow (`+Inf`) bucket.
pub const HISTOGRAM_BUCKETS: usize = 27;

/// Base (smallest) bucket upper bound for [`LogHistogram`], in nanoseconds.
pub const HISTOGRAM_BASE_NANOS: u64 = 1_000;

/// A log2-bucketed latency histogram over virtual time. Bucket `i` counts
/// observations `≤ HISTOGRAM_BASE_NANOS << i`; larger observations go to the
/// overflow bucket (rendered as `+Inf`).
///
/// Serialization is hand-written: the JSON form carries the four stored
/// fields plus a computed `quantiles` object (`p50`/`p95`/`p99`, in
/// seconds). The derived deserialization reads only the stored fields and
/// skips `quantiles` as an unknown key — quantiles are derived, so a value
/// survives a JSON round-trip unchanged and two equal histograms always
/// serialize to identical bytes.
#[derive(Clone, Debug, PartialEq, Deserialize)]
pub struct LogHistogram {
    /// Per-bucket (non-cumulative) observation counts.
    pub buckets: Vec<u64>,
    /// Observations above the largest finite bound.
    pub overflow: u64,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observations, in nanoseconds.
    pub sum_nanos: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            overflow: 0,
            count: 0,
            sum_nanos: 0,
        }
    }
}

impl LogHistogram {
    /// Record one observation.
    pub fn observe(&mut self, t: SimTime) {
        let ns = t.as_nanos();
        self.count += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(ns);
        match self.buckets.get_mut(Self::bucket_of(ns)) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// The bucket an observation of `ns` nanoseconds lands in: the least
    /// `i` with `ns <= HISTOGRAM_BASE_NANOS << i`, or `HISTOGRAM_BUCKETS`
    /// and above for the overflow bucket. With `c = ceil(ns / base)` that
    /// is the least `i` with `c <= 2^i`, i.e. `ceil(log2(c))`.
    fn bucket_of(ns: u64) -> usize {
        let c = ns.div_ceil(HISTOGRAM_BASE_NANOS);
        if c <= 1 {
            0
        } else {
            (u64::BITS - (c - 1).leading_zeros()) as usize
        }
    }

    /// Merge another histogram into this one (bucketwise addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
    }

    /// The upper bound of bucket `i`, in seconds (for `le` labels).
    pub fn bound_secs(i: usize) -> f64 {
        (HISTOGRAM_BASE_NANOS << i) as f64 / 1e9
    }

    /// The quantile-`q` estimate, in seconds: the upper bound of the bucket
    /// containing the `⌈q·count⌉`-th observation (log-bucketed histograms
    /// resolve to bucket boundaries, the conservative upper estimate).
    /// Observations in the overflow bucket report the first bound past the
    /// largest finite one; an empty histogram reports `0`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return Self::bound_secs(i);
            }
        }
        Self::bound_secs(HISTOGRAM_BUCKETS)
    }
}

impl Serialize for LogHistogram {
    fn serialize(&self, w: &mut serde::ser::Writer) {
        w.map_begin();
        w.map_key("buckets");
        self.buckets.serialize(w);
        w.map_key("overflow");
        w.u64(self.overflow);
        w.map_key("count");
        w.u64(self.count);
        w.map_key("sum_nanos");
        w.u64(self.sum_nanos);
        w.map_key("quantiles");
        w.map_begin();
        for (key, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            w.map_key(key);
            w.f64(self.quantile(q));
        }
        w.map_end();
        w.map_end();
    }
}

/// The value of one series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SeriesValue {
    /// A monotonically increasing integer.
    Counter(u64),
    /// A point-in-time float.
    Gauge(f64),
    /// A latency distribution.
    Histogram(LogHistogram),
}

/// One labeled series in the registry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Metric name (Prometheus naming conventions, `hm_` prefix).
    pub name: String,
    /// Help text emitted as `# HELP`.
    pub help: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The series value.
    pub value: SeriesValue,
}

impl Series {
    /// The rendered registry identity of this series:
    /// `name{label="value",...}` with labels sorted by key (the key the
    /// registry stores it under, and the id streaming deltas carry).
    pub fn id(&self) -> String {
        series_id(&self.name, &self.labels)
    }
}

/// A registry-local index of one series. Every update through the string
/// API returns it, and the `*_at` methods take it to update that series
/// without rendering its identity again. A handle is valid for the registry
/// that returned it and for that registry's clones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesHandle(u32);

impl SeriesHandle {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The series of a [`MetricsRegistry`]: stored by [`SeriesHandle`] in
/// registration order and indexed by rendered identity `name{k="v",...}`.
/// Every view (`iter`, `keys`, `values`, `&table` in a `for` loop) walks
/// series in identity order.
#[derive(Clone, Default)]
pub struct SeriesTable {
    slots: Vec<Series>,
    ids: Vec<String>,
    index: BTreeMap<String, SeriesHandle>,
}

impl SeriesTable {
    /// Number of series.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table holds no series.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The series rendered as `id`.
    pub fn get(&self, id: &str) -> Option<&Series> {
        self.index.get(id).map(|&h| &self.slots[h.index()])
    }

    /// `(id, series)` pairs in identity order.
    pub fn iter(&self) -> SeriesIter<'_> {
        SeriesIter {
            index: self.index.iter(),
            slots: &self.slots,
        }
    }

    /// Rendered identities, in order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.index.keys()
    }

    /// Series, in identity order.
    pub fn values(&self) -> impl Iterator<Item = &Series> {
        self.iter().map(|(_, s)| s)
    }

    /// The series behind `h`.
    pub(crate) fn at(&self, h: SeriesHandle) -> &Series {
        &self.slots[h.index()]
    }

    /// The rendered identity of the series behind `h`.
    pub(crate) fn id_at(&self, h: SeriesHandle) -> &str {
        &self.ids[h.index()]
    }

    fn insert(&mut self, id: String, series: Series) -> SeriesHandle {
        let h = SeriesHandle(u32::try_from(self.slots.len()).expect("fewer than 2^32 series"));
        self.slots.push(series);
        self.ids.push(id.clone());
        self.index.insert(id, h);
        h
    }
}

/// Iterator over a [`SeriesTable`]'s `(id, series)` pairs in identity order.
pub struct SeriesIter<'a> {
    index: std::collections::btree_map::Iter<'a, String, SeriesHandle>,
    slots: &'a [Series],
}

impl<'a> Iterator for SeriesIter<'a> {
    type Item = (&'a String, &'a Series);

    fn next(&mut self) -> Option<Self::Item> {
        self.index
            .next()
            .map(|(id, &h)| (id, &self.slots[h.index()]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.index.size_hint()
    }
}

impl<'a> IntoIterator for &'a SeriesTable {
    type Item = (&'a String, &'a Series);
    type IntoIter = SeriesIter<'a>;

    fn into_iter(self) -> SeriesIter<'a> {
        self.iter()
    }
}

/// Equal when the same ids hold equal series, whatever order they were
/// registered in.
impl PartialEq for SeriesTable {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for SeriesTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The handles updated since the last drain, each listed once.
#[derive(Clone, Debug, Default)]
struct DirtySet {
    bits: Vec<u64>,
    list: Vec<SeriesHandle>,
}

impl DirtySet {
    fn mark(&mut self, h: SeriesHandle) {
        let (word, bit) = (h.index() / 64, 1u64 << (h.index() % 64));
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.list.push(h);
        }
    }

    fn drain_into(&mut self, out: &mut Vec<SeriesHandle>) {
        for h in &self.list {
            self.bits[h.index() / 64] &= !(1u64 << (h.index() % 64));
        }
        out.append(&mut self.list);
    }
}

/// A registry of labeled series with deterministic iteration and export.
///
/// Serialization is hand-written: the JSON form is `{"series": [[id,
/// series], ...]}` in identity order (the form a `BTreeMap` keyed by id
/// writes), and neither handles nor the dirty set are part of it.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    /// Series by handle, viewed in rendered-identity order.
    pub series: SeriesTable,
    dirty: DirtySet,
}

/// Equal when the series are: the dirty set is bookkeeping for the
/// snapshot stream, not registry content.
impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.series == other.series
    }
}

impl Serialize for MetricsRegistry {
    fn serialize(&self, w: &mut serde::ser::Writer) {
        w.map_begin();
        w.map_key("series");
        w.seq_begin();
        for pair in &self.series {
            w.seq_elem();
            pair.serialize(w);
        }
        w.seq_end();
        w.map_end();
    }
}

/// Reads what a derived `{ series: BTreeMap<String, Series> }` would: the
/// first `series` key wins, unknown keys are skipped, a missing one is an
/// error.
impl Deserialize for MetricsRegistry {
    fn deserialize(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::Error> {
        let mut series: Option<BTreeMap<String, Series>> = None;
        r.map_begin()?;
        while let Some(key) = r.map_next()? {
            match &*key {
                "series" => r.field(&mut series)?,
                _ => r.skip()?,
            }
        }
        let mut reg = MetricsRegistry::new();
        for (id, s) in serde::de::required(series, "series", "MetricsRegistry")? {
            reg.series.insert(id, s);
        }
        Ok(reg)
    }
}

fn series_id<K: std::fmt::Display, V: std::fmt::Display>(name: &str, labels: &[(K, V)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut id = String::from(name);
    id.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            id.push(',');
        }
        let _ = write!(id, "{k}=\"{v}\"");
    }
    id.push('}');
    id
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle of the series `name{labels}`, registering it with value
    /// `init()` if absent. The caller updates it next, so a series never
    /// exists without an update.
    fn entry(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> SeriesValue,
    ) -> SeriesHandle {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        let id = series_id(name, &sorted);
        if let Some(&h) = self.series.index.get(&id) {
            return h;
        }
        let series = Series {
            name: name.to_string(),
            help: help.to_string(),
            labels: sorted
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value: init(),
        };
        self.series.insert(id, series)
    }

    /// Mark `h` dirty and return its value for an update.
    fn value_at(&mut self, h: SeriesHandle) -> &mut SeriesValue {
        self.dirty.mark(h);
        &mut self.series.slots[h.index()].value
    }

    /// Move every handle updated since the last call into `out`, each
    /// once, in update order.
    pub(crate) fn take_dirty(&mut self, out: &mut Vec<SeriesHandle>) {
        self.dirty.drain_into(out);
    }

    /// Add `delta` to a counter series, creating it at zero if absent.
    pub fn counter_add(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        delta: u64,
    ) -> SeriesHandle {
        let h = self.entry(name, help, labels, || SeriesValue::Counter(0));
        self.counter_add_at(h, delta);
        h
    }

    /// Add `delta` to the counter series behind `h`.
    pub fn counter_add_at(&mut self, h: SeriesHandle, delta: u64) {
        if let SeriesValue::Counter(c) = self.value_at(h) {
            *c += delta;
        }
    }

    /// Set a gauge series to `value`.
    pub fn gauge_set(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) -> SeriesHandle {
        let h = self.entry(name, help, labels, || SeriesValue::Gauge(0.0));
        self.gauge_set_at(h, value);
        h
    }

    /// Set the gauge series behind `h` to `value`.
    pub fn gauge_set_at(&mut self, h: SeriesHandle, value: f64) {
        if let SeriesValue::Gauge(g) = self.value_at(h) {
            *g = value;
        }
    }

    /// Raise a gauge series to `value` if larger (high-water mark).
    pub fn gauge_max(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) -> SeriesHandle {
        let h = self.entry(name, help, labels, || SeriesValue::Gauge(f64::NEG_INFINITY));
        self.gauge_max_at(h, value);
        h
    }

    /// Raise the gauge series behind `h` to `value` if larger.
    pub fn gauge_max_at(&mut self, h: SeriesHandle, value: f64) {
        if let SeriesValue::Gauge(g) = self.value_at(h) {
            if value > *g {
                *g = value;
            }
        }
    }

    /// Record an observation into a histogram series.
    pub fn observe(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        t: SimTime,
    ) -> SeriesHandle {
        let h = self.entry(name, help, labels, || {
            SeriesValue::Histogram(LogHistogram::default())
        });
        self.observe_at(h, t);
        h
    }

    /// Record an observation into the histogram series behind `h`.
    pub fn observe_at(&mut self, h: SeriesHandle, t: SimTime) {
        if let SeriesValue::Histogram(hist) = self.value_at(h) {
            hist.observe(t);
        }
    }

    /// Fold `s`, stored under `id` in another registry or a stream, into
    /// this one: an absent id is copied in; a present one is combined by
    /// `combine(mine, theirs)`, which returns `false` when the two kinds
    /// cannot combine. Returns whether the fold succeeded.
    pub(crate) fn fold_series(
        &mut self,
        id: &str,
        s: &Series,
        combine: impl FnOnce(&mut SeriesValue, &SeriesValue) -> bool,
    ) -> bool {
        match self.series.index.get(id) {
            None => {
                let h = self.series.insert(id.to_string(), s.clone());
                self.dirty.mark(h);
                true
            }
            Some(&h) => combine(self.value_at(h), &s.value),
        }
    }

    /// Merge another registry: counters add, histograms merge bucketwise,
    /// gauges take the maximum. Series absent here are copied.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (id, s) in &other.series {
            // A kind mismatch keeps this registry's series as it is.
            self.fold_series(id, s, |mine, theirs| {
                match (mine, theirs) {
                    (SeriesValue::Counter(a), SeriesValue::Counter(b)) => *a += b,
                    (SeriesValue::Gauge(a), SeriesValue::Gauge(b)) if *b > *a => *a = *b,
                    (SeriesValue::Histogram(a), SeriesValue::Histogram(b)) => a.merge(b),
                    _ => {}
                }
                true
            });
        }
    }

    /// Render the registry in the Prometheus text exposition format.
    /// Deterministic: metric families sorted by name, series by label
    /// identity, histograms expanded to cumulative `_bucket`/`_sum`/`_count`.
    pub fn to_prometheus(&self) -> String {
        let mut families: BTreeMap<&str, Vec<&Series>> = BTreeMap::new();
        for s in self.series.values() {
            families.entry(&s.name).or_default().push(s);
        }
        let mut out = String::new();
        for (name, series) in families {
            let (help, kind) = {
                let s = series[0];
                let kind = match s.value {
                    SeriesValue::Counter(_) => "counter",
                    SeriesValue::Gauge(_) => "gauge",
                    SeriesValue::Histogram(_) => "histogram",
                };
                (&s.help, kind)
            };
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for s in series {
                let id = series_id(&s.name, &s.labels);
                match &s.value {
                    SeriesValue::Counter(c) => {
                        let _ = writeln!(out, "{id} {c}");
                    }
                    SeriesValue::Gauge(g) => {
                        let _ = writeln!(out, "{id} {g}");
                    }
                    SeriesValue::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, b) in h.buckets.iter().enumerate() {
                            cum += b;
                            let mut labels = s.labels.clone();
                            labels.push(("le".into(), format!("{}", LogHistogram::bound_secs(i))));
                            labels.sort();
                            let _ = writeln!(
                                out,
                                "{} {cum}",
                                series_id(&format!("{name}_bucket"), &labels)
                            );
                        }
                        let mut labels = s.labels.clone();
                        labels.push(("le".into(), "+Inf".into()));
                        labels.sort();
                        let _ = writeln!(
                            out,
                            "{} {}",
                            series_id(&format!("{name}_bucket"), &labels),
                            cum + h.overflow
                        );
                        let sum = h.sum_nanos as f64 / 1e9;
                        let _ = writeln!(
                            out,
                            "{} {sum}",
                            series_id(&format!("{name}_sum"), &s.labels)
                        );
                        let _ = writeln!(
                            out,
                            "{} {}",
                            series_id(&format!("{name}_count"), &s.labels),
                            h.count
                        );
                    }
                }
            }
        }
        out
    }

    /// Render the registry as pretty-printed JSON (via serde).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics registry serializes")
    }
}

/// The built-in metrics sink: implements [`Observer`] and feeds a
/// [`MetricsRegistry`] with the metric catalog documented in DESIGN.md §8.3
/// (task latency, transfer bytes/latency, queue depth, fault and adaptation
/// counts, per-epoch per-device utilization, and the final makespan plus
/// blame components).
#[derive(Clone, Debug)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
    strategy: String,
    dev_names: Vec<String>,
    dev_slots: Vec<u64>,
    epoch_busy: Vec<SimTime>,
    last_flush_end: SimTime,
    queue_peak: Vec<usize>,
    /// `[tasks, items, slot seconds]` handles per (kernel, device), at
    /// `kernel × (devices + 1) + device`; the last column is the shared
    /// `unknown` device. Filled on each pair's first task.
    task_series: Vec<Option<[SeriesHandle; 3]>>,
    /// `[transfers, bytes, seconds]` handles, filled on the first transfer.
    transfer_series: Option<[SeriesHandle; 3]>,
    tasks_total: u64,
    faults_total: u64,
}

impl MetricsObserver {
    /// A metrics sink for one run of `strategy` on `platform`. The strategy
    /// string becomes the `strategy` label on every series.
    pub fn new(platform: &Platform, strategy: &str) -> Self {
        let n = platform.devices.len();
        Self {
            registry: MetricsRegistry::new(),
            strategy: strategy.to_string(),
            dev_names: platform
                .devices
                .iter()
                .map(|d| d.spec.name.clone())
                .collect(),
            dev_slots: platform
                .devices
                .iter()
                .map(|d| d.spec.kind.slots() as u64)
                .collect(),
            epoch_busy: vec![SimTime::ZERO; n],
            last_flush_end: SimTime::ZERO,
            queue_peak: vec![0; n],
            task_series: Vec::new(),
            transfer_series: None,
            tasks_total: 0,
            faults_total: 0,
        }
    }

    /// The registry accumulated so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consume the observer and return its registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }

    /// Running sums of every `hm_tasks_total` and every `hm_faults_total`
    /// series.
    pub(crate) fn totals(&self) -> (u64, u64) {
        (self.tasks_total, self.faults_total)
    }

    /// Move the handles updated since the last call into `out`.
    pub(crate) fn take_dirty(&mut self, out: &mut Vec<SeriesHandle>) {
        self.registry.take_dirty(out);
    }

    /// A task instance committed `slot` of occupancy on `dev`.
    fn task_slot(&mut self, kernel: KernelId, dev: DeviceId, items: u64, slot: SimTime) {
        let n = self.dev_names.len();
        let at = kernel.0 * (n + 1) + dev.0.min(n);
        if at >= self.task_series.len() {
            self.task_series.resize(at + 1, None);
        }
        self.tasks_total += 1;
        if let Some([tasks, items_h, slot_h]) = self.task_series[at] {
            self.registry.counter_add_at(tasks, 1);
            self.registry.counter_add_at(items_h, items);
            self.registry.observe_at(slot_h, slot);
        } else {
            let device = self.dev_names.get(dev.0).map_or("unknown", String::as_str);
            let kernel = format!("k{}", kernel.0);
            let labels: &[(&str, &str)] = &[
                ("device", device),
                ("kernel", kernel.as_str()),
                ("strategy", self.strategy.as_str()),
            ];
            self.task_series[at] = Some([
                self.registry.counter_add(
                    "hm_tasks_total",
                    "Task instances committed to a device slot.",
                    labels,
                    1,
                ),
                self.registry.counter_add(
                    "hm_task_items_total",
                    "Work items across committed task instances.",
                    labels,
                    items,
                ),
                self.registry.observe(
                    "hm_task_slot_seconds",
                    "Slot occupancy per task instance (transfers + attempts + execution).",
                    labels,
                    slot,
                ),
            ]);
        }
        if let Some(b) = self.epoch_busy.get_mut(dev.0) {
            *b += slot;
        }
    }

    /// A coherence or write-back transfer of `bytes` took `latency`.
    fn transfer(&mut self, bytes: u64, latency: SimTime) {
        if let Some([count, bytes_h, seconds]) = self.transfer_series {
            self.registry.counter_add_at(count, 1);
            self.registry.counter_add_at(bytes_h, bytes);
            self.registry.observe_at(seconds, latency);
            return;
        }
        let labels: &[(&str, &str)] = &[("strategy", self.strategy.as_str())];
        self.transfer_series = Some([
            self.registry.counter_add(
                "hm_transfers_total",
                "Coherence and write-back transfers.",
                labels,
                1,
            ),
            self.registry.counter_add(
                "hm_transfer_bytes_total",
                "Bytes moved by coherence and write-back transfers.",
                labels,
                bytes,
            ),
            self.registry.observe(
                "hm_transfer_seconds",
                "Latency per transfer.",
                labels,
                latency,
            ),
        ]);
    }

    /// Flush `epoch` ended at `end`: publish each device's utilization
    /// over the window since the previous flush.
    fn epoch_end(&mut self, epoch: usize, end: SimTime) {
        let window = end.saturating_sub(self.last_flush_end);
        let epoch_s = format!("{epoch}");
        for d in 0..self.epoch_busy.len() {
            let cap = window * self.dev_slots[d];
            let util = if cap.is_zero() {
                0.0
            } else {
                self.epoch_busy[d].as_secs_f64() / cap.as_secs_f64()
            };
            self.registry.gauge_set(
                "hm_epoch_utilization",
                "Fraction of a device's slot capacity busy within an epoch window.",
                &[
                    ("device", self.dev_names[d].as_str()),
                    ("epoch", epoch_s.as_str()),
                    ("strategy", self.strategy.as_str()),
                ],
                util,
            );
            self.epoch_busy[d] = SimTime::ZERO;
        }
        self.last_flush_end = end;
    }

    /// Count one fault or mitigation event of `kind`.
    fn fault(&mut self, kind: &str) {
        self.faults_total += 1;
        self.count(FAULTS, kind);
    }

    /// Count one event of `kind` in a `(name, help)` counter family.
    fn count(&mut self, (name, help): (&str, &str), kind: &str) {
        self.registry.counter_add(
            name,
            help,
            &[("kind", kind), ("strategy", self.strategy.as_str())],
            1,
        );
    }
}

const FAULTS: (&str, &str) = ("hm_faults_total", "Fault and mitigation events by kind.");
const ADAPT: (&str, &str) = ("hm_adapt_total", "Adaptation events by kind.");

impl Observer for MetricsObserver {
    /// The match is exhaustive on purpose: adding a [`TraceEvent`] variant
    /// without deciding which metrics it feeds is a compile error.
    fn on_event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Task {
                kernel,
                dev,
                items,
                start,
                end,
                ..
            } => self.task_slot(kernel, dev, items, end.saturating_sub(start)),
            TraceEvent::Transfer {
                bytes, start, end, ..
            } => self.transfer(bytes, end.saturating_sub(start)),
            TraceEvent::Flush { epoch, end, .. } => self.epoch_end(epoch, end),
            // A held slot is pure occupancy geometry: its per-attempt
            // faults already arrived as `TaskFault` events, so the span
            // feeds trace recording and span trees, never the metrics.
            TraceEvent::SlotHeld { .. } => {}
            TraceEvent::TaskFault { .. } => self.fault("task_fault"),
            TraceEvent::TransferRetry { .. } => self.fault("transfer_retry"),
            TraceEvent::DeviceDropout { .. } => self.fault("dropout"),
            TraceEvent::Failover { .. } => self.fault("failover"),
            TraceEvent::HedgeLaunched { .. } => self.fault("hedge_launched"),
            TraceEvent::HedgeWon { .. } => self.fault("hedge_won"),
            TraceEvent::CorruptionDetected { .. } => self.fault("corruption_detected"),
            TraceEvent::CircuitOpen { .. } => self.fault("circuit_open"),
            TraceEvent::CircuitClose { .. } => self.fault("circuit_close"),
            TraceEvent::CorrelatedFaultTriggered { .. } => self.fault("correlated"),
            TraceEvent::ImbalanceDetected { .. } => self.count(ADAPT, "imbalance_detected"),
            TraceEvent::Repartitioned { .. } => self.count(ADAPT, "repartitioned"),
            TraceEvent::StrategyEscalated { .. } => self.count(ADAPT, "escalated"),
            TraceEvent::StrategyReinstated { .. } => self.count(ADAPT, "reinstated"),
            TraceEvent::PlanRepaired { .. } => self.count(ADAPT, "plan_repaired"),
            TraceEvent::DeviceReadmitted { .. } => self.count(ADAPT, "device_readmitted"),
        }
    }

    fn on_task_bound(&mut self, _task: TaskId, dev: DeviceId, _at: SimTime, queue_depth: usize) {
        if let Some(p) = self.queue_peak.get_mut(dev.0) {
            if queue_depth > *p {
                *p = queue_depth;
            }
        }
    }

    fn on_run_end(&mut self, report: &RunReport) {
        let strategy = self.strategy.clone();
        self.registry.gauge_set(
            "hm_makespan_seconds",
            "Run makespan.",
            &[
                ("scheduler", report.scheduler.as_str()),
                ("strategy", strategy.as_str()),
            ],
            report.makespan.as_secs_f64(),
        );
        for (d, peak) in self.queue_peak.iter().enumerate() {
            let device = self.dev_names[d].clone();
            self.registry.gauge_max(
                "hm_queue_depth_peak",
                "High-water mark of a device's bound-task queue.",
                &[("device", device.as_str()), ("strategy", strategy.as_str())],
                *peak as f64,
            );
        }
        for (d, b) in report.breakdown.per_device.iter().enumerate() {
            let device = self
                .dev_names
                .get(d)
                .cloned()
                .unwrap_or_else(|| format!("dev{d}"));
            for (component, v) in b.components() {
                self.registry.gauge_set(
                    "hm_blame_seconds",
                    "Slot time attributed to each blame component.",
                    &[
                        ("component", component),
                        ("device", device.as_str()),
                        ("strategy", strategy.as_str()),
                    ],
                    v.as_secs_f64(),
                );
            }
        }
        // Quarantined time per device. The executor closes open-ended spans
        // at run end, but tolerate `until: None` (treat as "until makespan")
        // so a hand-built report still exports consistently.
        let mut quarantined: Vec<SimTime> = vec![SimTime::ZERO; self.dev_names.len()];
        for span in &report.health.quarantine {
            if let Some(q) = quarantined.get_mut(span.dev.0) {
                let until = span.until.unwrap_or(report.makespan);
                *q += until.saturating_sub(span.from);
            }
        }
        for (d, q) in quarantined.iter().enumerate() {
            if q.is_zero() {
                continue;
            }
            let device = self.dev_names[d].clone();
            self.registry.gauge_set(
                "hm_quarantine_seconds",
                "Total time a device spent quarantined by the circuit breaker.",
                &[("device", device.as_str()), ("strategy", strategy.as_str())],
                q.as_secs_f64(),
            );
        }
        let retries = report.faults.task_retries + report.faults.transfer_retries;
        for (name, help, v) in [
            (
                "hm_retries_total",
                "Task and transfer retries across the run.",
                retries,
            ),
            (
                "hm_hedges_won_total",
                "Hedged replicas that overtook their primary.",
                report.health.hedges_won,
            ),
            (
                "hm_rollbacks_total",
                "Epoch rollbacks after corruption detection.",
                report.health.epoch_rollbacks,
            ),
            (
                "hm_repartitions_total",
                "Barrier repartitions applied by the adaptive controller.",
                report.adapt.repartitions,
            ),
            (
                "hm_replans_total",
                "Survivor re-plans applied after device death or quarantine.",
                report.adapt.replans,
            ),
            (
                "hm_readmissions_total",
                "Healing re-plans that readmitted a reclosed device.",
                report.adapt.readmissions,
            ),
        ] {
            self.registry
                .counter_add(name, help, &[("strategy", strategy.as_str())], v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_export() {
        let mut h = LogHistogram::default();
        h.observe(SimTime::from_nanos(500)); // bucket 0 (≤ 1µs)
        h.observe(SimTime::from_micros(3)); // ≤ 4µs → bucket 2
        h.observe(SimTime::from_secs_f64(100.0)); // overflow
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.overflow, 1);
    }

    /// The bucket rule `observe` used before the closed form: the first
    /// `i` with `ns <= base << i`, else overflow.
    fn bucket_by_scan(ns: u64) -> usize {
        (0..HISTOGRAM_BUCKETS)
            .find(|&i| ns <= HISTOGRAM_BASE_NANOS << i)
            .unwrap_or(HISTOGRAM_BUCKETS)
    }

    #[test]
    fn closed_form_bucket_matches_the_linear_scan() {
        let mut probes = vec![0, u64::MAX];
        for i in 0..=HISTOGRAM_BUCKETS + 1 {
            let bound = HISTOGRAM_BASE_NANOS << i;
            probes.extend([bound - 1, bound, bound + 1]);
        }
        for ns in probes {
            let want = bucket_by_scan(ns);
            assert_eq!(
                LogHistogram::bucket_of(ns).min(HISTOGRAM_BUCKETS),
                want,
                "{ns} ns"
            );
            let mut h = LogHistogram::default();
            h.observe(SimTime::from_nanos(ns));
            let landed = h.buckets.iter().position(|&b| b == 1);
            assert_eq!(landed.unwrap_or(HISTOGRAM_BUCKETS), want, "{ns} ns");
            assert_eq!(h.overflow, u64::from(want == HISTOGRAM_BUCKETS), "{ns} ns");
        }
    }

    #[test]
    fn quantiles_pin_bucket_boundaries() {
        // Empty histogram: every quantile is zero.
        let h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        // Exact-boundary observations land in the bucket they bound:
        // `ns <= base << i` is inclusive, so 1µs is bucket 0 and 2µs bucket 1.
        let mut h = LogHistogram::default();
        h.observe(SimTime::from_micros(1));
        assert_eq!(h.buckets[0], 1);
        h.observe(SimTime::from_micros(2));
        assert_eq!(h.buckets[1], 1);
        // 50 obs in bucket 0, 45 in bucket 2, 5 in overflow: p50 resolves to
        // bucket 0's bound, p95 to bucket 2's, and p99 (rank 99 > largest
        // finite cumulative count 97) to the first bound past the table.
        let mut h = LogHistogram::default();
        for _ in 0..50 {
            h.observe(SimTime::from_nanos(500));
        }
        for _ in 0..45 {
            h.observe(SimTime::from_micros(3));
        }
        for _ in 0..5 {
            h.observe(SimTime::from_secs_f64(100.0));
        }
        assert_eq!(h.count, 100);
        assert_eq!(h.quantile(0.50), LogHistogram::bound_secs(0));
        assert_eq!(h.quantile(0.95), LogHistogram::bound_secs(2));
        assert_eq!(
            h.quantile(0.99),
            LogHistogram::bound_secs(HISTOGRAM_BUCKETS)
        );
        // A quantile beyond 1.0 clamps to the last observation's bucket.
        assert_eq!(h.quantile(1.0), LogHistogram::bound_secs(HISTOGRAM_BUCKETS));
    }

    #[test]
    fn histogram_json_carries_quantiles_and_round_trips() {
        let mut r = MetricsRegistry::new();
        for _ in 0..20 {
            r.observe("hm_lat", "lat", &[], SimTime::from_micros(2));
        }
        let json = r.to_json();
        assert!(
            json.contains("\"quantiles\""),
            "computed quantiles exported"
        );
        assert!(json.contains("\"p50\""));
        assert!(json.contains("\"p95\""));
        assert!(json.contains("\"p99\""));
        // Quantiles are derived, not stored: the registry round-trips to an
        // equal value and re-serializes to identical bytes.
        let back: MetricsRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn prometheus_export_is_deterministic_and_sorted() {
        let mut r = MetricsRegistry::new();
        r.counter_add("hm_b", "b help", &[("x", "2")], 2);
        r.counter_add("hm_a", "a help", &[], 1);
        r.observe("hm_lat", "lat", &[], SimTime::from_micros(2));
        let a = r.to_prometheus();
        let b = r.to_prometheus();
        assert_eq!(a, b);
        let ia = a.find("# HELP hm_a").unwrap();
        let ib = a.find("# HELP hm_b").unwrap();
        assert!(ia < ib, "families sorted by name");
        assert!(a.contains("hm_lat_bucket{le=\"+Inf\"} 1"));
        assert!(a.contains("hm_lat_count 1"));
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("hm_c", "h", &[], 1);
        b.counter_add("hm_c", "h", &[], 2);
        b.gauge_set("hm_g", "h", &[], 4.0);
        a.merge(&b);
        match &a.series.get("hm_c").unwrap().value {
            SeriesValue::Counter(c) => assert_eq!(*c, 3),
            _ => panic!("counter expected"),
        }
        assert!(a.series.get("hm_g").is_some());
    }

    #[test]
    fn registry_json_roundtrip() {
        let mut r = MetricsRegistry::new();
        r.counter_add("hm_c", "h", &[("device", "cpu")], 7);
        r.observe("hm_lat", "lat", &[], SimTime::from_micros(9));
        let json = r.to_json();
        let back: MetricsRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}

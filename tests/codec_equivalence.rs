//! Pins what the JSON codec accepts and what it decodes to, over every
//! kind of JSON text the workspace reads: service frames (calm and 10×
//! burst load with every chaos corruption, at two seeds), the fuzz
//! corpus, a faulty run's journal, snapshot stream and `fold_stream`, a
//! metrics export, a recorded fault trace, the `BENCH_*.json` trajectory
//! read as a generic `Value`, and every truncation and single-byte flip of
//! one frame, one journal record and one stream line.
//!
//! Each input becomes one line of `tests/fixtures/codec_digests.txt`: the
//! FNV-1a of `to_string` and of `to_string_pretty` of the decoded value,
//! or `err` when decoding fails. The verdict and the re-encoded bytes are
//! pinned; parser error text is not. Inputs holding a `\u` escape of a
//! high surrogate or nesting deeper than [`serde::de::MAX_DEPTH`] are left
//! out: the codec rejects invalid surrogate pairs and over-deep nesting
//! on purpose, and `tests/serde_roundtrips.rs` and `tests/service.rs` test
//! both. A mismatch writes the regenerated table to `CARGO_TARGET_TMPDIR`
//! and names the first differing line.

use hetero_match::apps::synth;
use hetero_match::matchmaker::service::DEFAULT_MAX_BODY_BYTES;
use hetero_match::matchmaker::{
    decode_request, generate_load, Analyzer, ChaosSchedule, CorpusEntry, ExecutionConfig,
    ExecutionFlow, JournalSink, LoadConfig, RunSpec, Strategy,
};
use hetero_match::platform::{DeviceId, FaultSchedule, FaultTrace, Platform, RetryPolicy, SimTime};
use hetero_match::runtime::{
    fold_stream, EpochRecord, EpochSnapshot, JournalHeader, MetricsObserver, MetricsRegistry,
    MultiObserver, SnapshotObserver,
};
use serde::{Deserialize, Serialize};

mod common;
use common::damaged;

const FIXTURE: &str = include_str!("fixtures/codec_digests.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// An input whose verdict the codec changes on purpose.
fn excluded(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    let high_surrogate = ["\\ud8", "\\ud9", "\\uda", "\\udb"]
        .iter()
        .any(|p| lower.contains(p));
    let mut depth = 0usize;
    let mut deepest = 0usize;
    for b in text.bytes() {
        match b {
            b'[' | b'{' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            b']' | b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    high_surrogate || deepest > serde::de::MAX_DEPTH
}

#[derive(Default)]
struct Table(String);

impl Table {
    fn section(&mut self, name: &str) {
        self.0.push_str(&format!("# {name}\n"));
    }

    fn line<T: Serialize, E>(&mut self, decoded: Result<T, E>) {
        match decoded {
            Ok(v) => {
                let compact = serde_json::to_string(&v).expect("a decoded value re-encodes");
                let pretty = serde_json::to_string_pretty(&v).expect("a decoded value re-encodes");
                self.0.push_str(&format!(
                    "{:016x} {:016x}\n",
                    fnv1a(compact.as_bytes()),
                    fnv1a(pretty.as_bytes())
                ));
            }
            Err(_) => self.0.push_str("err\n"),
        }
    }

    /// One line for `text` decoded as `T`, unless the input is excluded.
    fn text<T: Serialize + Deserialize>(&mut self, text: &str) {
        if !excluded(text) {
            self.line(serde_json::from_str::<T>(text));
        }
    }

    fn frame(&mut self, bytes: &[u8]) {
        if !excluded(&String::from_utf8_lossy(bytes)) {
            self.line(decode_request(bytes, DEFAULT_MAX_BODY_BYTES));
        }
    }
}

/// The body of one enveloped journal line (`{"h":"…","body":<body>}`).
fn journal_body(line: &str) -> &str {
    let (_, rest) = line
        .split_once(",\"body\":")
        .expect("journal lines carry a body");
    rest.strip_suffix('}').expect("journal lines end in `}`")
}

fn service_frames(table: &mut Table) -> Vec<u8> {
    let mut first = Vec::new();
    for seed in [7u64, 1009] {
        for burst in [false, true] {
            let load = LoadConfig {
                requests: 2000,
                seed,
                ..LoadConfig::default()
            };
            let chaos = if burst {
                let span = SimTime::from_micros(load.requests * load.mean_gap_us);
                ChaosSchedule::burst(seed, 10, span)
            } else {
                ChaosSchedule::calm(seed)
            };
            let label = if burst { "burst" } else { "calm" };
            table.section(&format!("service frames, {label}, seed {seed}"));
            for arrival in generate_load(&load, &chaos) {
                table.frame(&arrival.bytes);
                if first.is_empty() {
                    first = arrival.bytes;
                }
            }
        }
    }
    first
}

/// Journal, snapshot stream, metrics export and fault trace of one
/// journaled run under GPU task faults.
struct Recorded {
    journal: String,
    stream: String,
    metrics: String,
    trace: String,
}

fn record_faulty_run() -> Recorded {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = synth::single_kernel(
        "codec",
        1 << 16,
        2048.0,
        ExecutionFlow::Loop { iterations: 4 },
        true,
    );
    let config = ExecutionConfig::Strategy(Strategy::SpUnified);
    let schedule = FaultSchedule::new(0xC0DEC).with_task_faults(
        Some(DeviceId(1)),
        0.3,
        SimTime::ZERO,
        SimTime::from_millis(1000),
    );
    let mut sink = JournalSink::record();
    let mut metrics = MetricsObserver::new(&platform, "codec");
    let mut snap = SnapshotObserver::new(&platform, "codec");
    {
        let mut multi = MultiObserver::new().with(&mut metrics).with(&mut snap);
        analyzer
            .simulate_journaled_observed(
                &desc,
                config,
                &RunSpec::faulty(schedule.clone()),
                &mut sink,
                &mut multi,
            )
            .expect("the journaled run completes");
    }
    let (_, trace) = analyzer
        .record_fault_trace(&desc, config, &schedule, RetryPolicy::default())
        .expect("the fault trace records");
    Recorded {
        journal: sink.text(),
        stream: snap.stream(),
        metrics: metrics.registry().to_json(),
        trace: trace.to_json(),
    }
}

fn render() -> String {
    let mut table = Table::default();
    let frame = service_frames(&mut table);

    table.section("fuzz corpus");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("fuzz corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        table.text::<CorpusEntry>(&std::fs::read_to_string(&path).expect("corpus file"));
    }

    let run = record_faulty_run();
    table.section("journal");
    let lines: Vec<&str> = run.journal.lines().collect();
    assert!(lines.len() >= 4, "the run spans several epochs");
    table.text::<JournalHeader>(journal_body(lines[0]));
    for line in &lines[1..] {
        table.text::<EpochRecord>(journal_body(line));
    }
    table.section("snapshot stream and its fold");
    for line in run.stream.lines() {
        table.text::<EpochSnapshot>(line);
    }
    table.line(fold_stream(&run.stream));
    table.section("metrics export");
    table.text::<MetricsRegistry>(&run.metrics);
    table.section("fault trace");
    table.line(FaultTrace::from_json(&run.trace));

    table.section("bench trajectory as Value");
    for bench in [
        include_str!("../BENCH_8.json"),
        include_str!("../BENCH_9.json"),
        include_str!("../BENCH_10.json"),
    ] {
        table.text::<serde_json::Value>(bench);
    }

    table.section("damaged frame");
    let frame = String::from_utf8(frame).expect("a calm frame is UTF-8");
    for input in damaged(&frame) {
        table.frame(input.as_bytes());
    }
    table.section("damaged journal record");
    for input in damaged(journal_body(lines[lines.len() / 2])) {
        table.text::<EpochRecord>(&input);
    }
    table.section("damaged stream line");
    let stream: Vec<&str> = run.stream.lines().collect();
    for input in damaged(stream[stream.len() / 2]) {
        table.text::<EpochSnapshot>(&input);
    }
    table.0
}

#[test]
fn codec_verdicts_and_reencodings_match_the_pinned_digests() {
    let table = render();
    if table != FIXTURE {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("codec_digests.txt");
        std::fs::write(&out, &table).expect("write regenerated table");
        let first = table
            .lines()
            .zip(FIXTURE.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: expected `{b}`, got `{a}`", i + 1))
            .unwrap_or_else(|| "line count differs".into());
        panic!(
            "codec output drifted from the pinned fixture ({first}); regenerated table at {}",
            out.display()
        );
    }
}

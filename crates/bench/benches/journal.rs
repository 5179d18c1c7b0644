//! Journal-path micro-benchmarks (PR 8): record-side append/encode and
//! recovery-side decode + redo-replay, over a repro-corpus app (STREAM
//! with synchronisation — one committed record per loop barrier).
//!
//! Prints one summary line per benchmark and writes the measurements as
//! machine-readable `BENCH_8.json` at the workspace root — the first
//! point of the `BENCH_*.json` perf trajectory ROADMAP.md asks for.

use bench::trajectory::{measure, BenchFile, BenchResult};
use hetero_apps::stream;
use hetero_platform::{KillSchedule, Platform};
use matchmaker::{Analyzer, ExecutionConfig, JournalSink, RunJournal, RunSpec, Strategy};

fn main() {
    const SAMPLES: u32 = 20;
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let desc = stream::descriptor(1 << 20, Some(8), true);
    let config = ExecutionConfig::Strategy(Strategy::SpUnified);
    let spec = RunSpec::plain();

    // One full journaled run supplies the header, the committed records,
    // and the journal text every benchmark below chews on.
    let mut sink = JournalSink::record();
    analyzer
        .simulate_journaled(&desc, config, &spec, &mut sink)
        .expect("reference journaled run");
    let text = sink.text();
    let journal = RunJournal::load(&text).expect("reference journal loads");
    let records = journal.records.len() as u64;
    assert!(records >= 4, "want a multi-epoch journal, got {records}");

    // A crashed prefix (half the records, torn final line) for the
    // recovery-side benchmarks.
    let mut crashed =
        JournalSink::record_with_kill(KillSchedule::after_records(records / 2).torn());
    let partial = match analyzer.simulate_journaled(&desc, config, &spec, &mut crashed) {
        Err(matchmaker::JournalError::Killed { .. }) => crashed.text(),
        other => panic!("expected the injected kill to fire, got {other:?}"),
    };

    let mut results = Vec::new();
    let mut push = |name: &str, mean_ns: f64, units: u64, unit: &'static str| {
        let per = mean_ns / units.max(1) as f64;
        eprintln!("bench journal/{name:<28} {mean_ns:>12.0} ns/iter  ({per:.0} ns/{unit})");
        results.push(BenchResult {
            name: name.to_string(),
            mean_ns,
            units,
            unit,
        });
    };

    // Record side: encode + hash + append every epoch record through the
    // sink, header included — the per-barrier cost a journaled run adds.
    let append = measure(SAMPLES, || {
        let mut sink = JournalSink::record();
        sink.begin(&journal.header).unwrap();
        for rec in &journal.records {
            sink.append_epoch(rec).unwrap();
        }
        sink.records()
    });
    push("append_encode", append, records, "record");

    // Recovery side, cold half: parse + hash-check + sequence-validate
    // the full journal text.
    let load = measure(SAMPLES, || RunJournal::load(&text).unwrap().record_count());
    push("load_decode", load, text.len() as u64, "byte");

    // Recovery side, full path: load the crashed prefix, redo-replay the
    // validated records, and finish the run.
    let resume = measure(SAMPLES, || analyzer.resume(&partial).unwrap().0.makespan);
    push("resume_redo_replay", resume, records, "record");

    // Context: the same run journaled vs unjournaled, so the trajectory
    // can watch the observer overhead too.
    let plain = measure(SAMPLES, || analyzer.simulate(&desc, config).makespan);
    push("simulate_plain", plain, records, "epoch");
    let journaled = measure(SAMPLES, || {
        let mut sink = JournalSink::record();
        analyzer
            .simulate_journaled(&desc, config, &spec, &mut sink)
            .unwrap()
            .makespan
    });
    push("simulate_journaled", journaled, records, "epoch");

    let out = BenchFile {
        pr: 8,
        bench: "journal",
        samples: SAMPLES,
        results,
    };
    eprintln!("wrote {}", out.write().display());
}

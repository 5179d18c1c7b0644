//! Execution timelines: trace a run and render per-device utilisation,
//! making the strategies' behaviour visible — SP-Single's single dense GPU
//! block vs DP-Dep's CPU-bound sprawl, and the taskwait gaps of the
//! synchronised STREAM run.
//!
//! ```sh
//! cargo run --release --example timeline
//! ```

use hetero_match::apps::{blackscholes, stream};
use hetero_match::matchmaker::{Analyzer, ExecutionConfig, Strategy};
use hetero_match::platform::Platform;
use hetero_match::runtime::{
    execute, PinnedScheduler, Program, RunReport, RunSpec, Trace, TraceObserver,
    DEFAULT_GANTT_WIDTH,
};

/// Simulate a pinned plan fault-free, recording its execution trace.
fn traced(program: &Program, platform: &Platform) -> (RunReport, Trace) {
    let mut tobs = TraceObserver::new();
    let spec = RunSpec::plain();
    let report = execute(
        program,
        platform,
        &mut PinnedScheduler,
        &spec,
        None,
        &mut tobs,
        None,
    )
    .expect("plain runs cannot fail");
    (report, tobs.into_trace())
}

fn main() {
    let platform = Platform::icpp15();
    let analyzer = Analyzer::new(&platform);
    let width = DEFAULT_GANTT_WIDTH;

    println!("BlackScholes (80.5M options) — slot utilisation over time\n");
    for (label, config) in [
        (
            "SP-Single (matched)",
            ExecutionConfig::Strategy(Strategy::SpSingle),
        ),
        ("Only-GPU", ExecutionConfig::OnlyGpu),
        ("Only-CPU", ExecutionConfig::OnlyCpu),
    ] {
        let plan = analyzer.plan(&blackscholes::paper_descriptor(), config);
        let (report, trace) = traced(&plan.program, &platform);
        println!("-- {label}: {} --", report.makespan);
        print!("{}", trace.gantt(&platform, width));
        println!();
    }

    println!("STREAM-Seq with inter-kernel sync — SP-Varied (matched strategy)\n");
    let plan = analyzer.plan(
        &stream::paper_seq(true),
        ExecutionConfig::Strategy(Strategy::SpVaried),
    );
    let (report, trace) = traced(&plan.program, &platform);
    println!("-- SP-Varied: {} --", report.makespan);
    print!("{}", trace.gantt(&platform, width));
    println!();
    let flushes = trace
        .events
        .iter()
        .filter(|e| matches!(e, hetero_match::runtime::TraceEvent::Flush { .. }))
        .count();
    println!(
        "{} taskwait flush windows (one per kernel boundary + the final write-back)",
        flushes
    );
}

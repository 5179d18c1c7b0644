//! Crash-consistent analyzer runs: journaled execution and resume.
//!
//! The executor-level journal (`hetero_runtime::journal`) records *one*
//! run; this module makes a whole analyzer invocation durable. A
//! [`RunSpec`] names which executor path the run takes and carries every
//! configuration knob beyond the descriptor/config pair;
//! [`Analyzer::simulate_journaled`] serializes the descriptor, platform,
//! execution config, and spec into the journal header and executes the
//! run with a `JournalSink` committing one record per epoch. A later
//! [`Analyzer::resume`] reconstructs the entire run *from the journal
//! alone* — descriptor, config, and spec are parsed back out of the
//! header (the platform is byte-validated against the resuming analyzer's
//! own), the prefix is re-executed under byte-exact redo-replay
//! validation, and the run continues past the crash point to a final
//! report byte-identical to the uninterrupted run. See DESIGN.md §8.7.

use crate::analyzer::Analyzer;
use crate::descriptor::AppDescriptor;
use crate::strategy::ExecutionConfig;
use hetero_runtime::{
    JournalError, JournalHeader, JournalSink, Observer, RunJournal, RunReport, RunSpec,
};
use serde::Serialize;

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("journal inputs always serialize")
}

fn parse_input<T: serde::Deserialize>(
    header: &JournalHeader,
    key: &str,
) -> Result<T, JournalError> {
    let raw = header.require_input(key)?;
    serde_json::from_str(raw).map_err(|e| JournalError::BadParse {
        line: 1,
        error: format!("header input `{key}`: {e}"),
    })
}

impl<'a> Analyzer<'a> {
    /// [`Analyzer::execute`] of `spec`, unobserved, with `sink` committing
    /// one journal record per epoch flush. The sink is opened here: the
    /// header (descriptor, platform, config, and spec serialized as named
    /// inputs) is written before the first event executes, making the
    /// journal self-contained. Returns [`JournalError::Killed`] when the
    /// sink's kill schedule fires — the journal text accumulated in the
    /// sink is valid and resumable — and never fails for an unkilled
    /// record-mode run of a valid spec. A repairing run that gave up
    /// reports through `RunReport::adapt.replan_error`.
    pub fn simulate_journaled(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
        spec: &RunSpec,
        sink: &mut JournalSink,
    ) -> Result<RunReport, JournalError> {
        self.simulate_journaled_observed(
            desc,
            config,
            spec,
            sink,
            &mut hetero_runtime::NullObserver,
        )
    }

    /// [`Analyzer::simulate_journaled`] with a pluggable [`Observer`]
    /// (DP-Perf's warm-up pass runs unobserved *and* unjournaled — it is
    /// a pure function of the schedule, so resume regenerates it).
    pub fn simulate_journaled_observed(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
        spec: &RunSpec,
        sink: &mut JournalSink,
        obs: &mut dyn Observer,
    ) -> Result<RunReport, JournalError> {
        sink.begin(&self.journal_header(desc, config, spec))?;
        self.execute(desc, config, spec, obs, Some(sink))
    }

    /// Resume a run from loaded journal `text`: validate and parse the
    /// journal, reconstruct the descriptor/config/spec from its header,
    /// byte-validate the platform against this analyzer's, then re-execute
    /// under redo-replay validation and run to completion. Returns the
    /// final report plus the *complete* journal text — byte-identical to
    /// what the uninterrupted run would have written, ready to be stored
    /// in place of the truncated file.
    pub fn resume(&self, text: &str) -> Result<(RunReport, String), JournalError> {
        self.resume_observed(text, &mut hetero_runtime::NullObserver)
    }

    /// [`Analyzer::resume`] with a pluggable [`Observer`]. The observer
    /// sees the whole run from `t = 0` (redo-replay re-executes the
    /// prefix), so traces and metrics exports match the uninterrupted run
    /// byte-for-byte.
    pub fn resume_observed(
        &self,
        text: &str,
        obs: &mut dyn Observer,
    ) -> Result<(RunReport, String), JournalError> {
        let journal = RunJournal::load(text)?;
        self.resume_from_journal(&journal, obs)
    }

    /// [`Analyzer::resume`] in salvage mode: load the journal through
    /// [`RunJournal::load_salvaged`], resume from the longest valid record
    /// prefix, and report what was cut. Where strict resume refuses a
    /// mid-file corruption outright, salvage treats everything from the
    /// first bad committed line as if it had never been written — redo-
    /// replay re-executes the salvaged prefix and runs to completion, so
    /// the regenerated journal and report are byte-identical to the
    /// uninterrupted run's. The error path is reserved for journals with
    /// nothing to salvage (empty, unreadable header, wrong version) and
    /// for salvaged prefixes that fail resume's own header validation.
    pub fn resume_salvaged(
        &self,
        text: &str,
        obs: &mut dyn Observer,
    ) -> Result<(RunReport, String, Option<hetero_runtime::SalvageReport>), JournalError> {
        let (journal, salvage) = RunJournal::load_salvaged(text)?;
        let (report, full_text) = self.resume_from_journal(&journal, obs)?;
        Ok((report, full_text, salvage))
    }

    /// Shared tail of the resume paths: header validation, redo-replay,
    /// run to completion.
    fn resume_from_journal(
        &self,
        journal: &RunJournal,
        obs: &mut dyn Observer,
    ) -> Result<(RunReport, String), JournalError> {
        let desc: AppDescriptor = parse_input(&journal.header, "descriptor")?;
        let config: ExecutionConfig = parse_input(&journal.header, "config")?;
        let spec: RunSpec = parse_input(&journal.header, "run")?;
        let stored_platform = journal.header.require_input("platform")?;
        if stored_platform != json(self.planner().platform) {
            return Err(JournalError::HeaderMismatch {
                field: "platform (the journal was recorded on a different platform)".into(),
            });
        }
        let mut sink = JournalSink::resume(journal);
        sink.begin(&self.journal_header(&desc, config, &spec))?;
        let report = self.execute(&desc, config, &spec, obs, Some(&mut sink))?;
        Ok((report, sink.text()))
    }

    /// The journal header for one run: seed, stream constants, and the
    /// four input documents resume needs.
    fn journal_header(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
        spec: &RunSpec,
    ) -> JournalHeader {
        JournalHeader::new(spec.schedule.as_ref().map(|s| s.seed))
            .with_input("descriptor", json(desc))
            .with_input("platform", json(self.planner().platform))
            .with_input("config", json(&config))
            .with_input("run", json(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::tests_support::toy_descriptor;
    use crate::descriptor::ExecutionFlow;
    use crate::strategy::Strategy;
    use hetero_platform::{DeviceId, FaultSchedule, KillSchedule, Platform, SimTime};
    use hetero_runtime::{check_identical, OracleKind};

    fn desc() -> AppDescriptor {
        let mut d = toy_descriptor(2, ExecutionFlow::Sequence);
        d.buffers[0].items = 1 << 18;
        for k in &mut d.kernels {
            k.domain = 1 << 18;
        }
        d.sync.between_kernels = true;
        d
    }

    #[test]
    fn journaled_run_matches_unjournaled_and_round_trips() {
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        let config = ExecutionConfig::Strategy(Strategy::SpVaried);
        let baseline = analyzer.simulate(&desc(), config);
        let mut sink = JournalSink::record();
        let report = analyzer
            .simulate_journaled(&desc(), config, &RunSpec::plain(), &mut sink)
            .unwrap();
        check_identical(
            OracleKind::CrashResumeEquivalence,
            "journaled vs unjournaled",
            &baseline,
            &report,
        )
        .unwrap();
        // The journal is self-contained: a fresh analyzer resumes the
        // *complete* journal (a no-crash resume re-validates every record)
        // and regenerates identical text.
        let text = sink.text();
        let (resumed, resumed_text) = analyzer.resume(&text).unwrap();
        check_identical(
            OracleKind::CrashResumeEquivalence,
            "resume of a complete journal",
            &report,
            &resumed,
        )
        .unwrap();
        assert_eq!(text, resumed_text);
    }

    #[test]
    fn kill_and_resume_reproduce_the_uninterrupted_run() {
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        let config = ExecutionConfig::Strategy(Strategy::SpVaried);
        let schedule = FaultSchedule::new(11).with_flaky(
            DeviceId(1),
            0.2,
            SimTime::ZERO,
            SimTime::from_millis(50),
        );
        let spec = RunSpec::faulty(schedule);
        let mut full = JournalSink::record();
        let report = analyzer
            .simulate_journaled(&desc(), config, &spec, &mut full)
            .unwrap();
        let full_text = full.text();
        let records = full.records();
        assert!(records >= 2, "toy run should span several epochs");
        for k in 0..records {
            let mut sink = JournalSink::record_with_kill(KillSchedule::after_records(k));
            let err = analyzer
                .simulate_journaled(&desc(), config, &spec, &mut sink)
                .unwrap_err();
            assert!(matches!(err, JournalError::Killed { records, .. } if records == k));
            let (resumed, resumed_text) = analyzer.resume(&sink.text()).unwrap();
            check_identical(
                OracleKind::CrashResumeEquivalence,
                &format!("kill point {k}"),
                &report,
                &resumed,
            )
            .unwrap();
            assert_eq!(full_text, resumed_text, "kill point {k}: journal differs");
        }
    }

    #[test]
    fn resume_rejects_a_different_platform() {
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        let config = ExecutionConfig::Strategy(Strategy::SpUnified);
        let mut sink = JournalSink::record();
        analyzer
            .simulate_journaled(&desc(), config, &RunSpec::plain(), &mut sink)
            .unwrap();
        let other = Platform::icpp15();
        let resumer = Analyzer::new(&other);
        let err = resumer.resume(&sink.text()).unwrap_err();
        assert!(
            matches!(err, JournalError::HeaderMismatch { field } if field.contains("platform"))
        );
    }

    /// A well-enveloped journal whose `run` header carries a spec that
    /// cannot execute resumes to a typed error, one per validator — never
    /// a panic.
    #[test]
    fn resume_rejects_an_invalid_spec_typed() {
        use hetero_runtime::{AdaptConfig, HealthConfig, ReplanConfig};
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        let config = ExecutionConfig::Strategy(Strategy::SpVaried);
        let ok = FaultSchedule::new(1);
        let flaky = |p| {
            FaultSchedule::new(1).with_flaky(DeviceId(1), p, SimTime::ZERO, SimTime::from_millis(1))
        };
        let specs = [
            ("fault schedule", RunSpec::faulty(flaky(7.0))),
            (
                "health config",
                RunSpec::resilient(
                    ok.clone(),
                    HealthConfig {
                        ewma_alpha: 0.0,
                        ..HealthConfig::monitored()
                    },
                ),
            ),
            (
                "adapt config",
                RunSpec::adaptive(
                    ok.clone(),
                    HealthConfig::disabled(),
                    AdaptConfig {
                        skew_threshold: 2.0,
                        ..AdaptConfig::enabled_default()
                    },
                ),
            ),
            (
                "replan config",
                RunSpec::repairing(
                    ok,
                    HealthConfig::disabled(),
                    AdaptConfig::disabled(),
                    ReplanConfig {
                        max_replans: 0,
                        ..ReplanConfig::enabled_default()
                    },
                ),
            ),
        ];
        for (what, spec) in specs {
            let mut sink = JournalSink::record();
            sink.begin(&analyzer.journal_header(&desc(), config, &spec))
                .unwrap();
            let err = analyzer.resume(&sink.text()).unwrap_err();
            assert!(
                matches!(&err, JournalError::InvalidSpec { reason } if reason.starts_with(what)),
                "{what}: {err}"
            );
            // Recording the same spec fails the same way.
            let err = analyzer
                .simulate_journaled(&desc(), config, &spec, &mut JournalSink::record())
                .unwrap_err();
            assert!(
                matches!(err, JournalError::InvalidSpec { .. }),
                "{what}: {err}"
            );
        }
    }
}

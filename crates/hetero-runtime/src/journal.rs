//! Crash-consistent execution: the append-only write-ahead run journal.
//!
//! The in-process resilience stack (retries, rollback, quarantine,
//! survivor re-planning) assumes the *coordinating process* survives; all
//! of its checkpoints live in memory. This module makes coordinator death
//! a first-class, injectable, recoverable fault:
//!
//! * [`JournalSink`] — threaded through the executor, it appends one
//!   [`EpochRecord`] per *committed* epoch checkpoint (the epoch-flush
//!   event, which fires only after SDC verification passed and any
//!   rollback re-ran the epoch), under a versioned [`JournalHeader`]
//!   carrying everything needed to re-create the run.
//! * [`hetero_platform::KillSchedule`] — deterministic kill-point
//!   injection: the run aborts with [`JournalError::Killed`] after the
//!   k-th journal record or at simulated time *t*, optionally tearing the
//!   interrupted write.
//! * [`RunJournal::load`] — typed validation of a journal file: per-line
//!   integrity envelopes, version and header checks, sequential epoch
//!   indices; a torn *final* line is tolerated and discarded, corruption
//!   anywhere else is rejected.
//!
//! Recovery is **validated deterministic redo-replay**: the executor is
//! fully deterministic, so resume re-executes the program from `t = 0`
//! with a [`JournalSink`] in resume mode that *byte-compares* each
//! regenerated epoch record against the stored one (divergence is a typed
//! [`JournalError::DivergentReplay`]) before continuing to append past the
//! crash point. Byte-identity of the final report/trace/metrics follows
//! from determinism; the journal's records — RNG stream cursors included —
//! are what make that determinism *checked* instead of assumed, record by
//! record. This is the crash-resume-equivalence oracle's substrate.
//!
//! ## Line format
//!
//! JSON-lines. Every line is an integrity envelope
//!
//! ```text
//! {"h":"<16 hex digits>","body":<record JSON>}
//! ```
//!
//! where `h` is FNV-1a 64 over the *exact bytes* of `<record JSON>`. Both
//! hashing and validation operate on the raw body substring — never on a
//! parse → re-serialize round trip — so integrity is byte-exact and
//! independent of float formatting. Line 1 carries the [`JournalHeader`];
//! every further line one [`EpochRecord`].

use std::collections::BTreeMap;

use hetero_platform::{
    fnv1a_64, validate_version, FaultCounters, KillSchedule, PlatformCounters, SimTime,
};
use serde::{Deserialize, Serialize};

use crate::executor::{ADAPT_STREAM, CORRELATED_STREAM, HEALTH_STREAM, REPLAN_STREAM};
use crate::obs::DeviceBreakdown;

/// The journal format version this build writes and reads.
pub const JOURNAL_VERSION: u32 = 1;

/// The dedicated RNG stream constants in force when the journal was
/// written. Recorded so a resume on a build with different constants (a
/// pinned-stream change is an explicit compatibility break, see
/// `PROPERTY-TESTS.md`) fails with a typed header mismatch instead of a
/// divergent replay deep into the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamConstants {
    /// [`HEALTH_STREAM`].
    pub health: u64,
    /// [`ADAPT_STREAM`].
    pub adapt: u64,
    /// [`CORRELATED_STREAM`].
    pub correlated: u64,
    /// [`REPLAN_STREAM`].
    pub replan: u64,
}

impl StreamConstants {
    /// The constants compiled into this build.
    pub fn current() -> Self {
        StreamConstants {
            health: HEALTH_STREAM,
            adapt: ADAPT_STREAM,
            correlated: CORRELATED_STREAM,
            replan: REPLAN_STREAM,
        }
    }
}

/// The journal's first line: everything needed to re-create and validate
/// the run. The `inputs` map carries opaque, named JSON documents set by
/// the caller (the analyzer stores the app descriptor, platform,
/// execution config, and run spec), so `matchmake resume <journal>`
/// reconstructs the entire run from the journal alone.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Format version ([`JOURNAL_VERSION`]).
    pub version: u32,
    /// The fault schedule's seed (`None` for an unfaulted run) — the root
    /// of every RNG stream below.
    pub seed: Option<u64>,
    /// RNG stream constants in force at write time.
    pub streams: StreamConstants,
    /// Named input documents (serialized JSON strings), byte-compared on
    /// resume.
    pub inputs: BTreeMap<String, String>,
}

impl JournalHeader {
    /// A header for a run seeded with `seed`, stamped with this build's
    /// version and stream constants.
    pub fn new(seed: Option<u64>) -> Self {
        JournalHeader {
            version: JOURNAL_VERSION,
            seed,
            streams: StreamConstants::current(),
            inputs: BTreeMap::new(),
        }
    }

    /// Attach a named input document (builder-style).
    pub fn with_input(mut self, key: &str, value: String) -> Self {
        self.inputs.insert(key.to_string(), value);
        self
    }

    /// The input document stored under `key`, or a typed error naming the
    /// missing field.
    pub fn require_input(&self, key: &str) -> Result<&str, JournalError> {
        self.inputs
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| JournalError::HeaderMismatch {
                field: format!("missing input `{key}`"),
            })
    }
}

/// Saved positions of every live RNG stream at an epoch commit (`None`
/// for streams the run's configuration never allocated). Restoring a
/// stream with `FaultRng::from_cursor` reproduces its future draws
/// exactly; resume cross-validates these byte-for-byte at every replayed
/// record, so any drift in random state surfaces at the *first* epoch it
/// occurs, not as a makespan mismatch at the end.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngCursors {
    /// The base fault-sampling stream.
    pub fault: Option<u64>,
    /// The correlated-trigger stream ([`CORRELATED_STREAM`]).
    pub correlated: Option<u64>,
    /// The verification-sampling stream ([`HEALTH_STREAM`]).
    pub health: Option<u64>,
    /// The adaptation tie-break stream ([`ADAPT_STREAM`]).
    pub adapt: Option<u64>,
    /// The plan-repair tie-break stream ([`REPLAN_STREAM`]).
    pub replan: Option<u64>,
}

/// One committed epoch checkpoint: the journal's unit of durability,
/// written at the epoch-flush event (after SDC verification and any
/// rollback, so records are final and epoch indices strictly increase).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// The epoch just flushed (0-based, strictly sequential).
    pub epoch: usize,
    /// Simulated time of the flush completion.
    pub at: SimTime,
    /// Tasks completed so far, across all epochs.
    pub completed: u64,
    /// `(task, device)` placement of every chunk of the flushed epoch.
    pub placements: Vec<(usize, usize)>,
    /// Every live RNG stream's position at the commit.
    pub rng: RngCursors,
    /// Cumulative fault counters.
    pub faults: FaultCounters,
    /// Cumulative per-device blame accumulators (capacity components —
    /// `dead`/`idle`/`slots` — are only closed at run end).
    pub blame: Vec<DeviceBreakdown>,
    /// Cumulative platform counters.
    pub counters: PlatformCounters,
}

/// Per-epoch metrics movement between two consecutive journal records —
/// the "what did this epoch cost" view a streaming scrape would export.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct EpochDelta {
    /// The epoch the delta describes.
    pub epoch: usize,
    /// Wall-clock the epoch spanned (flush-to-flush).
    pub wall: SimTime,
    /// Tasks completed in this epoch.
    pub completed: u64,
    /// Per-device items committed in this epoch.
    pub items: Vec<u64>,
    /// Per-device busy time committed in this epoch.
    pub busy: Vec<SimTime>,
    /// Transfer bytes moved in this epoch.
    pub transfer_bytes: u64,
    /// Task faults injected in this epoch.
    pub task_faults: u64,
}

impl EpochRecord {
    /// The metrics delta from `prev` (the preceding record, or `None` for
    /// the first epoch) to this record.
    pub fn delta_from(&self, prev: Option<&EpochRecord>) -> EpochDelta {
        let base_at = prev.map(|p| p.at).unwrap_or(SimTime::ZERO);
        let dev = |i: usize| -> (u64, SimTime) {
            let cur = &self.counters.devices[i];
            match prev {
                Some(p) => {
                    let old = &p.counters.devices[i];
                    (cur.items - old.items, cur.busy.saturating_sub(old.busy))
                }
                None => (cur.items, cur.busy),
            }
        };
        let n = self.counters.devices.len();
        EpochDelta {
            epoch: self.epoch,
            wall: self.at.saturating_sub(base_at),
            completed: self.completed - prev.map(|p| p.completed).unwrap_or(0),
            items: (0..n).map(|i| dev(i).0).collect(),
            busy: (0..n).map(|i| dev(i).1).collect(),
            transfer_bytes: self.counters.transfers.bytes
                - prev.map(|p| p.counters.transfers.bytes).unwrap_or(0),
            task_faults: self.faults.task_faults - prev.map(|p| p.faults.task_faults).unwrap_or(0),
        }
    }
}

/// Why a journal could not be written, loaded, or replayed.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalError {
    /// The journal text is empty.
    Empty,
    /// No committed header line (the file holds only a torn fragment, or
    /// its first committed line fails the integrity envelope).
    MissingHeader,
    /// A committed (newline-terminated) line failing the integrity
    /// envelope or its hash. 1-based; the header is line 1.
    CorruptLine {
        /// The offending line number.
        line: usize,
    },
    /// The header was written by a different journal format version.
    VersionMismatch {
        /// The version the file declares.
        found: u32,
        /// The version this build reads ([`JOURNAL_VERSION`]).
        expected: u32,
    },
    /// A line whose envelope is intact but whose body JSON does not parse
    /// as the expected record type.
    BadParse {
        /// The offending line number (1-based).
        line: usize,
        /// The underlying parse error, rendered.
        error: String,
    },
    /// Epoch records must be strictly sequential from 0.
    NonSequentialEpoch {
        /// The offending line number (1-based).
        line: usize,
        /// The epoch the record claims.
        found: usize,
        /// The epoch its position demands.
        expected: usize,
    },
    /// A resume whose inputs (or header) do not match the journal's.
    HeaderMismatch {
        /// Which field disagreed.
        field: String,
    },
    /// A resumed run regenerated an epoch record that is not byte-equal
    /// to the journal's — the determinism the journal checks was violated
    /// (different build, perturbed inputs, or an executor bug).
    DivergentReplay {
        /// The first diverging epoch.
        epoch: usize,
    },
    /// The run was killed by its [`KillSchedule`] (injected coordinator
    /// death). Not a corruption: the journal written so far is valid and
    /// resumable.
    Killed {
        /// Journal records committed before death.
        records: u64,
        /// Simulated time of death.
        at: SimTime,
    },
    /// A run spec that cannot execute: a faulty mode without a schedule,
    /// or an out-of-range schedule, health, adapt or replan config (see
    /// [`crate::RunSpec::validate`]).
    InvalidSpec {
        /// What is wrong, rendered.
        reason: String,
    },
    /// An I/O failure reading or writing the journal file (CLI layer).
    Io(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Empty => write!(f, "journal is empty"),
            JournalError::MissingHeader => {
                write!(f, "journal has no committed header line")
            }
            JournalError::CorruptLine { line } => {
                write!(
                    f,
                    "journal line {line}: integrity envelope or hash check failed"
                )
            }
            JournalError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "journal format version {found} (this build reads version {expected})"
                )
            }
            JournalError::BadParse { line, error } => {
                write!(f, "journal line {line}: body does not parse: {error}")
            }
            JournalError::NonSequentialEpoch {
                line,
                found,
                expected,
            } => {
                write!(
                    f,
                    "journal line {line}: epoch {found} where {expected} was expected"
                )
            }
            JournalError::HeaderMismatch { field } => {
                write!(f, "journal header does not match this run: {field}")
            }
            JournalError::DivergentReplay { epoch } => {
                write!(
                    f,
                    "resume diverged from the journal at epoch {epoch}: the replayed run \
                     regenerated a different record than the one on disk"
                )
            }
            JournalError::Killed { records, at } => {
                write!(
                    f,
                    "killed by the kill schedule after {records} journal record(s) at {at}"
                )
            }
            JournalError::InvalidSpec { reason } => write!(f, "invalid run spec: {reason}"),
            JournalError::Io(msg) => write!(f, "journal I/O: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

const HASH_PREFIX: &str = "{\"h\":\"";
const BODY_PREFIX: &str = "\",\"body\":";

/// Wrap `body` (a serialized JSON document) in the integrity envelope.
fn encode_line(body: &str) -> String {
    format!(
        "{HASH_PREFIX}{:016x}{BODY_PREFIX}{body}}}",
        fnv1a_64(body.as_bytes())
    )
}

/// Validate a line's envelope and hash; return the raw body substring.
/// Purely textual — the body is *extracted*, never re-serialized — so the
/// check is byte-exact regardless of what the body contains.
fn decode_line(line: &str) -> Option<&str> {
    let rest = line.strip_prefix(HASH_PREFIX)?;
    if rest.len() < 16 + BODY_PREFIX.len() + 1 {
        return None;
    }
    let (hex, rest) = rest.split_at(16);
    let body = rest.strip_prefix(BODY_PREFIX)?.strip_suffix('}')?;
    let want = u64::from_str_radix(hex, 16).ok()?;
    (fnv1a_64(body.as_bytes()) == want).then_some(body)
}

/// A loaded, validated journal: the parsed header and records plus their
/// raw body bytes (resume validates against the bytes, not the parse).
#[derive(Clone, Debug, PartialEq)]
pub struct RunJournal {
    /// The parsed header.
    pub header: JournalHeader,
    /// The parsed epoch records, in epoch order.
    pub records: Vec<EpochRecord>,
    /// A torn (newline-less) final line was discarded during load.
    pub torn_discarded: bool,
    /// Raw body substrings of the records, for byte-exact replay checks.
    bodies: Vec<String>,
}

impl RunJournal {
    /// Load and validate journal `text`.
    ///
    /// Torn-write semantics: only newline-terminated lines are
    /// *committed*. A final line without its newline is the write the
    /// crash interrupted — tolerated and discarded. A committed line that
    /// fails its envelope, hash, parse, or sequence check is rejected
    /// with a typed error: mid-file corruption is never skipped over.
    pub fn load(text: &str) -> Result<Self, JournalError> {
        match Self::scan(text)? {
            (journal, None) => Ok(journal),
            (_, Some(cut)) => Err(cut.error),
        }
    }

    /// Load `text`, salvaging the longest valid record prefix.
    ///
    /// Where [`RunJournal::load`] rejects the whole journal on the first
    /// mid-file corruption, this keeps every record *before* the first bad
    /// committed line and reports the cut as a typed [`SalvageReport`]
    /// (first bad line, the reason strict load would have given, and how
    /// many committed lines were discarded). The error path is reserved
    /// for journals with nothing to salvage: empty text, an unreadable
    /// header, or a version this build cannot read. A journal that loads
    /// cleanly returns `(journal, None)`.
    pub fn load_salvaged(text: &str) -> Result<(Self, Option<SalvageReport>), JournalError> {
        let (mut journal, cut) = Self::scan(text)?;
        // A cut prefix behaves exactly like a journal whose tail was never
        // committed — resume re-executes from the cut.
        journal.torn_discarded |= cut.is_some();
        let salvage = cut.map(|cut| SalvageReport {
            first_bad_line: cut.line,
            reason: cut.error.to_string(),
            discarded_lines: cut.discarded,
        });
        Ok((journal, salvage))
    }

    /// The one scan behind both loaders: split off the committed lines,
    /// decode and version-check the header (the only failures that leave
    /// nothing to keep), then read records until the first committed line
    /// that fails its envelope, hash, parse or sequence check. Returns the
    /// valid record prefix and, if a line failed, where and why.
    fn scan(text: &str) -> Result<(Self, Option<Cut>), JournalError> {
        if text.is_empty() {
            return Err(JournalError::Empty);
        }
        let mut committed: Vec<&str> = Vec::new();
        let mut torn_discarded = false;
        for seg in text.split_inclusive('\n') {
            match seg.strip_suffix('\n') {
                Some(line) => committed.push(line),
                None => torn_discarded = true,
            }
        }
        let Some((&header_line, record_lines)) = committed.split_first() else {
            return Err(JournalError::MissingHeader);
        };
        let Some(header_body) = decode_line(header_line) else {
            return Err(JournalError::MissingHeader);
        };
        let header: JournalHeader =
            serde_json::from_str(header_body).map_err(|e| JournalError::BadParse {
                line: 1,
                error: e.to_string(),
            })?;
        validate_version(header.version, JOURNAL_VERSION)
            .map_err(|(found, expected)| JournalError::VersionMismatch { found, expected })?;
        let mut records = Vec::with_capacity(record_lines.len());
        let mut bodies = Vec::with_capacity(record_lines.len());
        let mut cut = None;
        for (i, &line) in record_lines.iter().enumerate() {
            let lineno = i + 2;
            match decode_record(line, lineno, i) {
                Ok((record, body)) => {
                    records.push(record);
                    bodies.push(body.to_string());
                }
                Err(error) => {
                    cut = Some(Cut {
                        line: lineno,
                        error,
                        discarded: record_lines.len() - i,
                    });
                    break;
                }
            }
        }
        let journal = RunJournal {
            header,
            records,
            torn_discarded,
            bodies,
        };
        Ok((journal, cut))
    }

    /// The number of committed epoch records.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }
}

/// Record `index` of a journal, on 1-based file line `lineno`: its envelope
/// and hash, its parse and its place in the epoch sequence.
fn decode_record(
    line: &str,
    lineno: usize,
    index: usize,
) -> Result<(EpochRecord, &str), JournalError> {
    let body = decode_line(line).ok_or(JournalError::CorruptLine { line: lineno })?;
    let record: EpochRecord = serde_json::from_str(body).map_err(|e| JournalError::BadParse {
        line: lineno,
        error: e.to_string(),
    })?;
    if record.epoch != index {
        return Err(JournalError::NonSequentialEpoch {
            line: lineno,
            found: record.epoch,
            expected: index,
        });
    }
    Ok((record, body))
}

/// The first committed record line a scan rejected.
struct Cut {
    /// 1-based file line.
    line: usize,
    /// The typed error strict load raises there.
    error: JournalError,
    /// Committed lines from `line` to end of file.
    discarded: usize,
}

/// What [`RunJournal::load_salvaged`] cut and why: the strict-load error
/// turned into a record of the salvage decision, for operators deciding
/// whether the salvaged prefix is trustworthy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SalvageReport {
    /// 1-based line number (in the journal file) of the first committed
    /// line that failed its envelope, hash, parse, or sequence check.
    pub first_bad_line: usize,
    /// The typed error strict [`RunJournal::load`] raises there, rendered.
    pub reason: String,
    /// Committed lines discarded from `first_bad_line` to end of file.
    pub discarded_lines: usize,
}

impl std::fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "salvaged: discarded {} committed line(s) from line {} ({})",
            self.discarded_lines, self.first_bad_line, self.reason
        )
    }
}

enum SinkMode {
    /// A fresh run: every record is appended.
    Record,
    /// A resumed run: the first `bodies.len()` records are byte-validated
    /// against the loaded journal, then appending continues.
    Resume,
}

/// The executor-facing journal writer. In-memory and append-only; the
/// caller persists [`JournalSink::text`] (the CLI writes it back to the
/// journal path after the run — and after a [`JournalError::Killed`], to
/// model exactly what the dying coordinator managed to flush).
pub struct JournalSink {
    mode: SinkMode,
    kill: Option<KillSchedule>,
    began: bool,
    header_line: Option<String>,
    lines: Vec<String>,
    /// A half-written line the injected kill tore (no trailing newline).
    torn_tail: Option<String>,
    records: u64,
    replay_header_body: Option<String>,
    replay_bodies: Vec<String>,
}

impl JournalSink {
    /// A sink for a fresh journaled run.
    pub fn record() -> Self {
        JournalSink {
            mode: SinkMode::Record,
            kill: None,
            began: false,
            header_line: None,
            lines: Vec::new(),
            torn_tail: None,
            records: 0,
            replay_header_body: None,
            replay_bodies: Vec::new(),
        }
    }

    /// A recording sink with an injected coordinator death.
    pub fn record_with_kill(kill: KillSchedule) -> Self {
        JournalSink {
            kill: Some(kill),
            ..JournalSink::record()
        }
    }

    /// A sink resuming from a loaded journal: the stored records become
    /// the validation prefix of the redo-replay.
    pub fn resume(journal: &RunJournal) -> Self {
        let header_body = serde_json::to_string(&journal.header)
            .expect("journal header serialization cannot fail");
        JournalSink {
            mode: SinkMode::Resume,
            replay_header_body: Some(header_body),
            replay_bodies: journal.bodies.clone(),
            ..JournalSink::record()
        }
    }

    /// Open the journal with `header`. Record mode commits the header
    /// line; resume mode byte-compares the rebuilt header against the
    /// loaded journal's, so a resume under different inputs is rejected
    /// before any simulation happens.
    pub fn begin(&mut self, header: &JournalHeader) -> Result<(), JournalError> {
        let body = serde_json::to_string(header).expect("journal header serialization cannot fail");
        if let SinkMode::Resume = self.mode {
            let stored = self
                .replay_header_body
                .as_deref()
                .expect("resume sink holds the stored header");
            if stored != body {
                return Err(JournalError::HeaderMismatch {
                    field: "header body".to_string(),
                });
            }
        }
        self.header_line = Some(encode_line(&body));
        self.began = true;
        Ok(())
    }

    /// Commit one epoch record. Returns `true` when the record was
    /// byte-validated against the resume prefix (rather than newly
    /// appended). A configured record-kill fires *instead of* the append
    /// and surfaces as [`JournalError::Killed`].
    pub fn append_epoch(&mut self, record: &EpochRecord) -> Result<bool, JournalError> {
        assert!(self.began, "JournalSink::begin must run before records");
        let body = serde_json::to_string(record).expect("epoch record serialization cannot fail");
        if (self.records as usize) < self.replay_bodies.len() {
            if self.replay_bodies[self.records as usize] != body {
                return Err(JournalError::DivergentReplay {
                    epoch: record.epoch,
                });
            }
            self.lines.push(encode_line(&body));
            self.records += 1;
            return Ok(true);
        }
        if let Some(k) = &self.kill {
            if k.after_records == Some(self.records) {
                if k.torn {
                    let line = encode_line(&body);
                    self.torn_tail = Some(line[..line.len() / 2].to_string());
                }
                return Err(JournalError::Killed {
                    records: self.records,
                    at: record.at,
                });
            }
        }
        self.lines.push(encode_line(&body));
        self.records += 1;
        Ok(false)
    }

    /// The configured time-kill instant, if any.
    pub fn time_kill_at(&self) -> Option<SimTime> {
        self.kill.as_ref().and_then(|k| k.at_time)
    }

    /// Records committed (validated or appended) so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The journal's full on-disk text: header + committed records, one
    /// envelope per newline-terminated line, plus the torn tail (no
    /// newline) when the injected kill tore its write.
    pub fn text(&self) -> String {
        let mut out = String::new();
        if let Some(h) = &self.header_line {
            out.push_str(h);
            out.push('\n');
        }
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        if let Some(t) = &self.torn_tail {
            out.push_str(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: usize) -> EpochRecord {
        EpochRecord {
            epoch,
            at: SimTime::from_millis(1 + epoch as u64),
            completed: (epoch as u64 + 1) * 2,
            placements: vec![(2 * epoch, 0), (2 * epoch + 1, 1)],
            rng: RngCursors {
                fault: Some(0xAB + epoch as u64),
                ..RngCursors::default()
            },
            faults: FaultCounters::default(),
            blame: vec![DeviceBreakdown::default(); 2],
            counters: PlatformCounters::new(2),
        }
    }

    fn journal_text(n: usize) -> String {
        let mut sink = JournalSink::record();
        sink.begin(&JournalHeader::new(Some(7)).with_input("app", "{}".to_string()))
            .unwrap();
        for e in 0..n {
            sink.append_epoch(&record(e)).unwrap();
        }
        sink.text()
    }

    #[test]
    fn round_trips_and_counts() {
        let text = journal_text(3);
        let j = RunJournal::load(&text).unwrap();
        assert_eq!(j.record_count(), 3);
        assert!(!j.torn_discarded);
        assert_eq!(j.header.seed, Some(7));
        assert_eq!(j.header.require_input("app").unwrap(), "{}");
        assert!(matches!(
            j.header.require_input("nope"),
            Err(JournalError::HeaderMismatch { .. })
        ));
        assert_eq!(j.records[2].epoch, 2);
    }

    #[test]
    fn torn_final_line_is_tolerated_and_discarded() {
        let text = journal_text(3);
        // Cut the final line's newline and half its bytes: the torn write.
        let cut = text.trim_end_matches('\n');
        let torn = &cut[..cut.len() - 10];
        let j = RunJournal::load(torn).unwrap();
        assert_eq!(j.record_count(), 2);
        assert!(j.torn_discarded);
    }

    #[test]
    fn committed_corruption_is_rejected_not_skipped() {
        let text = journal_text(3);
        let lines: Vec<&str> = text.lines().collect();
        // Flip a byte inside a *committed* (non-final) record line.
        let mut bad = lines[1].to_string();
        let flip = bad.len() - 5;
        bad.replace_range(flip..flip + 1, "X");
        let rebuilt = format!("{}\n{}\n{}\n{}\n", lines[0], bad, lines[2], lines[3]);
        assert_eq!(
            RunJournal::load(&rebuilt),
            Err(JournalError::CorruptLine { line: 2 })
        );
    }

    #[test]
    fn missing_header_and_version_mismatch_are_typed() {
        assert_eq!(RunJournal::load(""), Err(JournalError::Empty));
        // Only a torn fragment: no committed header.
        assert_eq!(
            RunJournal::load("{\"h\":\"00"),
            Err(JournalError::MissingHeader)
        );
        // A committed header from a future version.
        let mut sink = JournalSink::record();
        let mut h = JournalHeader::new(None);
        h.version = 99;
        sink.begin(&h).unwrap();
        assert_eq!(
            RunJournal::load(&sink.text()),
            Err(JournalError::VersionMismatch {
                found: 99,
                expected: JOURNAL_VERSION
            })
        );
    }

    #[test]
    fn non_sequential_epochs_are_rejected() {
        let mut sink = JournalSink::record();
        sink.begin(&JournalHeader::new(None)).unwrap();
        sink.append_epoch(&record(0)).unwrap();
        sink.append_epoch(&record(2)).unwrap();
        assert_eq!(
            RunJournal::load(&sink.text()),
            Err(JournalError::NonSequentialEpoch {
                line: 3,
                found: 2,
                expected: 1
            })
        );
    }

    #[test]
    fn record_kill_commits_the_prefix_and_can_tear() {
        let mut sink = JournalSink::record_with_kill(KillSchedule::after_records(1));
        sink.begin(&JournalHeader::new(None)).unwrap();
        sink.append_epoch(&record(0)).unwrap();
        let err = sink.append_epoch(&record(1)).unwrap_err();
        assert_eq!(
            err,
            JournalError::Killed {
                records: 1,
                at: SimTime::from_millis(2)
            }
        );
        let j = RunJournal::load(&sink.text()).unwrap();
        assert_eq!(j.record_count(), 1);
        assert!(!j.torn_discarded);

        let mut sink = JournalSink::record_with_kill(KillSchedule::after_records(1).torn());
        sink.begin(&JournalHeader::new(None)).unwrap();
        sink.append_epoch(&record(0)).unwrap();
        sink.append_epoch(&record(1)).unwrap_err();
        let j = RunJournal::load(&sink.text()).unwrap();
        assert_eq!(j.record_count(), 1);
        assert!(j.torn_discarded);
    }

    #[test]
    fn resume_validates_prefix_and_detects_divergence() {
        let text = journal_text(2);
        let loaded = RunJournal::load(&text).unwrap();
        let header = JournalHeader::new(Some(7)).with_input("app", "{}".to_string());

        // Faithful replay: both records validate, then appends continue,
        // and the final text is byte-identical to an uninterrupted run.
        let mut sink = JournalSink::resume(&loaded);
        sink.begin(&header).unwrap();
        assert!(sink.append_epoch(&record(0)).unwrap());
        assert!(sink.append_epoch(&record(1)).unwrap());
        assert!(!sink.append_epoch(&record(2)).unwrap());
        assert_eq!(sink.text(), journal_text(3));

        // A diverging record is a typed error at the exact epoch.
        let mut sink = JournalSink::resume(&loaded);
        sink.begin(&header).unwrap();
        sink.append_epoch(&record(0)).unwrap();
        let mut wrong = record(1);
        wrong.completed += 1;
        assert_eq!(
            sink.append_epoch(&wrong),
            Err(JournalError::DivergentReplay { epoch: 1 })
        );

        // Mismatched inputs are rejected at begin, before any simulation.
        let mut sink = JournalSink::resume(&loaded);
        let other = JournalHeader::new(Some(8)).with_input("app", "{}".to_string());
        assert!(matches!(
            sink.begin(&other),
            Err(JournalError::HeaderMismatch { .. })
        ));
    }

    #[test]
    fn epoch_deltas_subtract_consecutive_records() {
        let mut a = record(0);
        a.counters.devices[0].items = 10;
        a.counters.devices[0].busy = SimTime::from_millis(3);
        a.counters.transfers.bytes = 100;
        let mut b = record(1);
        b.counters.devices[0].items = 25;
        b.counters.devices[0].busy = SimTime::from_millis(8);
        b.counters.transfers.bytes = 160;

        let first = a.delta_from(None);
        assert_eq!(first.items[0], 10);
        assert_eq!(first.wall, SimTime::from_millis(1));

        let d = b.delta_from(Some(&a));
        assert_eq!(d.epoch, 1);
        assert_eq!(d.items[0], 15);
        assert_eq!(d.busy[0], SimTime::from_millis(5));
        assert_eq!(d.transfer_bytes, 60);
        assert_eq!(d.completed, 2);
        assert_eq!(d.wall, SimTime::from_millis(1));
    }
}

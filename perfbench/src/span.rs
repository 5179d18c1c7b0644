//! In-memory span recorder for the traced mode.
//!
//! Spans are opened and closed by the benchmark around calls into one
//! layer's public functions; nothing inside the program is instrumented.
//! Every span carries the id of the op it belongs to and the index of its
//! parent, and is kept in memory until [`Spans::write`] at the end of the
//! run. A disabled recorder never reads the clock.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Work units the call processed (tasks, bytes, records, ...).
    units: u64,
    /// Nanoseconds covered by direct children.
    child_ns: u64,
}

/// Per-name aggregate over every closed span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the time direct children cover.
    pub self_ns: u64,
    pub units: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on belong to op `id`.
    pub fn set_op(&mut self, id: u64) {
        self.op = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            units: 0,
            child_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open, units: u64) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.units = units;
        let dur = end - span.start_ns;
        if let Some(p) = span.parent {
            self.spans[p].child_ns += dur;
        }
    }

    /// Time `f` as a span named `name` carrying `units`.
    pub fn time<T>(&mut self, name: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open, units);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Aggregate closed spans by name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for s in &self.spans {
            let a = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            a.calls += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(s.child_ns);
            a.units += s.units;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"units\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.units
            )?;
        }
        out.flush()
    }
}

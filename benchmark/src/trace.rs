//! Span recorder for the traced run. Spans are taken from the benchmark's
//! side of every call into a layer (the engine is not instrumented), kept
//! in memory, and written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded call: `parent` is the span that caused it (0 = none).
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub pass: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread recorder; a disabled tracer records nothing and reads no clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Ids are `lane` + a counter, so two threads never collide.
    lane: u32,
    pass: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, lane: u32, pass: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            lane: lane << 28,
            pass,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; close it with [`Tracer::end`]. Returns 0 when disabled.
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.lane + self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            pass: self.pass,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        if id != 0 {
            let at = self.epoch.elapsed().as_nanos() as u64;
            self.spans[(id - self.lane - 1) as usize].end_ns = at;
        }
    }

    /// Record `f` as one span under `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Write `spans` to `path`, one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"pass\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, workload, s.pass, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Per span name: calls, total time and self time (total minus the part
/// covered by child spans), sorted by self time.
pub fn summarize(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    use std::collections::HashMap;
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut by_name: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(name, (calls, total, own))| (name, calls, total, own))
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

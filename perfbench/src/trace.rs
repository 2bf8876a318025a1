//! In-memory spans for the traced run.
//!
//! A span has a name, a start and an end (ns since the tracer was made), a
//! parent, and the id of the request or build item it belongs to. Spans
//! are kept in memory and written out as JSON lines when the run ends. A
//! span's self time is its duration minus the durations of its children;
//! children never overlap, since each layer runs to completion before the
//! next starts. A disabled tracer records nothing and costs one branch per
//! call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Request (or build item) id.
    pub req: u64,
    /// Enclosing span.
    pub parent: SpanId,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
}

/// Span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; records nothing unless `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span now.
    pub fn open(&mut self, name: &'static str, req: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span now.
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            let now = self.now_ns();
            self.spans[i].end_ns = now;
        }
    }

    /// Self time in µs of every span, by name and then by request id
    /// (summed when one request has several spans of a name).
    pub fn self_times(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_default().entry(s.req).or_insert(0.0) += own as f64 / 1e3;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"span":{i},"name":"{}","req":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tr: &mut Tracer, name: &'static str, req: u64, parent: SpanId, start: u64, end: u64) -> SpanId {
        tr.spans.push(Span {
            name,
            req,
            parent,
            start_ns: start,
            end_ns: end,
        });
        Some(tr.spans.len() - 1)
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let root = span(&mut tr, "request", 1, None, 0, 10_000);
        span(&mut tr, "parse", 1, root, 1_000, 3_000);
        span(&mut tr, "forward", 1, root, 3_000, 9_000);
        span(&mut tr, "request", 2, None, 10_000, 11_000);
        let st = tr.self_times();
        assert_eq!(st["request"][&1], 2.0);
        assert_eq!(st["parse"][&1], 2.0);
        assert_eq!(st["forward"][&1], 6.0);
        assert_eq!(st["request"][&2], 1.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.open("x", 0, None);
        assert!(s.is_none());
        tr.close(s);
        assert!(tr.self_times().is_empty());
    }

    #[test]
    fn spans_are_written_as_json_lines() {
        let mut tr = Tracer::new(true);
        let a = tr.open("outer", 3, None);
        let b = tr.open("inner", 3, a);
        tr.close(b);
        tr.close(a);
        let path = std::env::temp_dir().join(format!("perfbench-trace-{}.jsonl", std::process::id()));
        tr.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""name":"outer","req":3,"parent":null"#));
        assert!(lines[1].contains(r#""name":"inner","req":3,"parent":0"#));
    }
}

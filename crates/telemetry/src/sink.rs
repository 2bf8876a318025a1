//! Event types and the pluggable [`Sink`] trait, with three shipped
//! implementations: JSON-lines file, pretty stderr, and test capture.

use crate::json::Obj;
use crate::lock_unpoisoned;
use crate::registry::Snapshot;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One typed value in a point event.
#[derive(Clone, Debug, PartialEq)]
pub enum Field {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}

impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::I64(v)
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}

impl From<f32> for Field {
    fn from(v: f32) -> Self {
        Field::F64(f64::from(v))
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}

/// One telemetry record.
#[derive(Clone, Debug)]
pub enum Event {
    /// A completed span scope.
    Span {
        /// Span name (the innermost scope).
        name: &'static str,
        /// `/`-joined path of enclosing spans on this thread, ending in
        /// `name`.
        path: String,
        /// Wall-clock duration in microseconds.
        micros: f64,
        /// Name of the recording thread.
        thread: String,
    },
    /// A structured point event (e.g. one per training epoch).
    Point {
        /// Event name.
        name: &'static str,
        /// Ordered field list.
        fields: Vec<(String, Field)>,
    },
    /// A human-facing progress line (always emitted, never filtered).
    Progress {
        /// Reporting component (usually the binary name).
        topic: String,
        /// The message.
        message: String,
    },
    /// A metrics-registry snapshot.
    Snapshot(Snapshot),
}

impl Event {
    /// Render as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Event::Span {
                name,
                path,
                micros,
                thread,
            } => Obj::new()
                .str("type", "span")
                .str("name", name)
                .str("path", path)
                .str("thread", thread)
                .f64("us", *micros)
                .finish(),
            Event::Point { name, fields } => {
                let mut f = Obj::new();
                for (k, v) in fields {
                    f = match v {
                        Field::U64(x) => f.u64(k, *x),
                        Field::I64(x) => f.i64(k, *x),
                        Field::F64(x) => f.f64(k, *x),
                        Field::Str(x) => f.str(k, x),
                    };
                }
                Obj::new()
                    .str("type", "event")
                    .str("name", name)
                    .raw("fields", &f.finish())
                    .finish()
            }
            Event::Progress { topic, message } => Obj::new()
                .str("type", "progress")
                .str("topic", topic)
                .str("message", message)
                .finish(),
            Event::Snapshot(snap) => snap.to_json(),
        }
    }

    /// The standard single-line stderr rendering of this event.
    pub fn progress_line(&self) -> String {
        match self {
            Event::Span {
                path,
                micros,
                thread,
                ..
            } => format!("[alss:span] {path} {micros:.1}us ({thread})"),
            Event::Point { name, fields } => {
                let mut line = format!("[alss:{name}]");
                for (k, v) in fields {
                    match v {
                        Field::U64(x) => line.push_str(&format!(" {k}={x}")),
                        Field::I64(x) => line.push_str(&format!(" {k}={x}")),
                        Field::F64(x) => line.push_str(&format!(" {k}={x:.6}")),
                        Field::Str(x) => line.push_str(&format!(" {k}={x}")),
                    }
                }
                line
            }
            Event::Progress { topic, message } => format!("[alss:{topic}] {message}"),
            Event::Snapshot(snap) => {
                format!(
                    "[alss:snapshot] {} counters, {} gauges, {} histograms",
                    snap.counters.len(),
                    snap.gauges.len(),
                    snap.histograms.len()
                )
            }
        }
    }
}

/// Where completed events go. Implementations must be cheap and must
/// never panic: telemetry may not take the instrumented program down.
pub trait Sink {
    /// Consume one event.
    fn emit(&self, event: &Event);

    /// Flush buffered output (called on uninstall and by guards).
    fn flush(&self) {}

    /// `true` when this sink already prints [`Event::Progress`] lines to
    /// stderr, so [`crate::progress`] should not echo them again.
    fn prints_progress(&self) -> bool {
        false
    }
}

/// JSON-lines file sink: one JSON object per line, with a monotone `seq`
/// field stamped on every line.
pub struct JsonLinesSink {
    out: Mutex<BufWriter<File>>,
    seq: AtomicU64,
}

impl JsonLinesSink {
    /// Create (truncate) the output file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let f = File::create(path)?;
        Ok(JsonLinesSink {
            out: Mutex::new(BufWriter::new(f)),
            seq: AtomicU64::new(0),
        })
    }
}

impl Sink for JsonLinesSink {
    fn emit(&self, event: &Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut json = event.to_json();
        // splice the seq in before the closing brace
        json.pop();
        let line = if json.len() > 1 {
            format!("{json},\"seq\":{seq}}}")
        } else {
            format!("{json}\"seq\":{seq}}}")
        };
        let mut w = lock_unpoisoned(&self.out);
        // I/O errors are swallowed by design: a full disk must not abort
        // the instrumented run.
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = lock_unpoisoned(&self.out).flush();
    }
}

/// Pretty stderr sink: renders every event with [`Event::progress_line`].
pub struct StderrSink;

impl Sink for StderrSink {
    #[expect(
        clippy::print_stderr,
        reason = "this sink is the sanctioned stderr path for library output"
    )]
    fn emit(&self, event: &Event) {
        eprintln!("{}", event.progress_line());
    }

    fn prints_progress(&self) -> bool {
        true
    }
}

/// Test sink: buffers every event for later assertions.
#[derive(Default)]
pub struct CaptureSink {
    events: Mutex<Vec<Event>>,
}

impl CaptureSink {
    /// An empty capture buffer.
    pub fn new() -> Self {
        CaptureSink::default()
    }

    /// Copy of everything captured so far.
    pub fn events(&self) -> Vec<Event> {
        lock_unpoisoned(&self.events).clone()
    }

    /// Drain the buffer.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut lock_unpoisoned(&self.events))
    }
}

impl Sink for CaptureSink {
    fn emit(&self, event: &Event) {
        lock_unpoisoned(&self.events).push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_event_json_shape() {
        let e = Event::Span {
            name: "decompose",
            path: "encode/decompose".to_string(),
            micros: 12.5,
            thread: "main".to_string(),
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"span\",\"name\":\"decompose\",\"path\":\"encode/decompose\",\
             \"thread\":\"main\",\"us\":12.5}"
        );
    }

    #[test]
    fn point_event_json_shape() {
        let e = Event::Point {
            name: "train.epoch",
            fields: vec![
                ("epoch".to_string(), Field::U64(3)),
                ("loss".to_string(), Field::F64(0.5)),
            ],
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"event\",\"name\":\"train.epoch\",\
             \"fields\":{\"epoch\":3,\"loss\":0.5}}"
        );
    }

    #[test]
    fn progress_line_format() {
        let e = Event::Progress {
            topic: "fig4".to_string(),
            message: "done".to_string(),
        };
        assert_eq!(e.progress_line(), "[alss:fig4] done");
        assert_eq!(
            e.to_json(),
            "{\"type\":\"progress\",\"topic\":\"fig4\",\"message\":\"done\"}"
        );
    }

    #[test]
    fn capture_sink_buffers_and_drains() {
        let s = CaptureSink::new();
        s.emit(&Event::Progress {
            topic: "t".to_string(),
            message: "m".to_string(),
        });
        assert_eq!(s.events().len(), 1);
        assert_eq!(s.take().len(), 1);
        assert!(s.events().is_empty());
    }

    #[test]
    fn jsonl_sink_stamps_seq() {
        let dir = std::env::temp_dir().join("alss-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seq.jsonl");
        let sink = JsonLinesSink::create(&path).unwrap();
        sink.emit(&Event::Progress {
            topic: "a".to_string(),
            message: "b".to_string(),
        });
        sink.emit(&Event::Snapshot(Snapshot::default()));
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with(",\"seq\":0}"), "{}", lines[0]);
        assert!(lines[1].ends_with(",\"seq\":1}"), "{}", lines[1]);
        std::fs::remove_file(&path).ok();
    }
}

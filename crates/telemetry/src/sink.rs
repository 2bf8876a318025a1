//! Event types and the pluggable [`Sink`] trait, with three shipped
//! implementations: JSON-lines file, pretty stderr, and test capture.

use crate::lock_unpoisoned;
use crate::metrics::Snapshot;
use serde_json::Value;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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
        /// Ordered field list (a JSON object's pairs).
        fields: Vec<(String, Value)>,
    },
    /// A human-facing progress line (always emitted, never filtered).
    Progress {
        /// Reporting component (usually the binary name).
        topic: String,
        /// The message.
        message: String,
    },
    /// A metrics snapshot.
    Snapshot(Snapshot),
}

impl Event {
    /// The JSON object this event renders to.
    pub fn to_value(&self) -> Value {
        let s = |x: &str| Value::Str(x.to_string());
        match self {
            Event::Span {
                name,
                path,
                micros,
                thread,
            } => Value::Object(vec![
                ("type".into(), s("span")),
                ("name".into(), s(name)),
                ("path".into(), s(path)),
                ("thread".into(), s(thread)),
                ("us".into(), Value::Float(*micros)),
            ]),
            Event::Point { name, fields } => Value::Object(vec![
                ("type".into(), s("event")),
                ("name".into(), s(name)),
                ("fields".into(), Value::Object(fields.clone())),
            ]),
            Event::Progress { topic, message } => Value::Object(vec![
                ("type".into(), s("progress")),
                ("topic".into(), s(topic)),
                ("message".into(), s(message)),
            ]),
            Event::Snapshot(snap) => snap.to_value(),
        }
    }

    /// Render as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value())
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
                        Value::Float(x) => line.push_str(&format!(" {k}={x:.6}")),
                        Value::Str(x) => line.push_str(&format!(" {k}={x}")),
                        v => line.push_str(&format!(" {k}={}", serde_json::to_string(v))),
                    }
                }
                line
            }
            Event::Progress { topic, message } => format!("[alss:{topic}] {message}"),
            Event::Snapshot(snap) => {
                format!(
                    "[alss:snapshot] {} counters, {} histograms",
                    snap.counters.len(),
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
        let mut value = event.to_value();
        // Every event renders to an object; `seq` is its last key.
        if let Value::Object(pairs) = &mut value {
            pairs.push(("seq".into(), Value::UInt(seq)));
        }
        let line = serde_json::to_string(&value);
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
                ("epoch".to_string(), Value::UInt(3)),
                ("loss".to_string(), Value::Float(0.5)),
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

//! # alss-telemetry
//!
//! Zero-dependency structured tracing, metrics, and profiling hooks for the
//! ALSS workspace. Three layers:
//!
//! 1. **Tracing core** ([`span`]) — RAII [`Span`] scopes with per-thread
//!    span stacks and monotonic timing, plus a [`Stopwatch`] for explicit
//!    interval measurement. Completed spans are routed to a pluggable
//!    [`Sink`]: a JSON-lines file sink, a pretty stderr sink, and a
//!    test-capturing sink ship in [`sink`].
//! 2. **Metrics registry** ([`registry`]) — named [`Counter`]s, [`Gauge`]s,
//!    and log-scale [`LogHistogram`]s (p50/p95/p99/max). [`snapshot`]
//!    freezes the registry into a [`Snapshot`] that serializes to the same
//!    JSON-lines schema the sinks write.
//! 3. **Probes** — the instrumented crates (`alss-graph`, `alss-core`,
//!    `alss-matching`, `alss-estimators`, `alss-bench`) call [`Span::enter`],
//!    [`counter`], [`event`], … directly; a disabled probe is one untaken
//!    branch.
//!
//! ## Gating
//!
//! Recording is gated at **run time** by the `ALSS_TELEMETRY` environment
//! filter — a comma-separated subset of `spans`, `metrics`, `events` (or
//! `all` / `off`), parsed once by [`init`] into a bitmask checked with one
//! relaxed atomic load per probe. With the filter unset every probe is a
//! single untaken branch.
//!
//! [`progress`] is the one exception: it replaces the ad-hoc
//! `println!`-style progress reporting of the bench binaries and therefore
//! always prints (to the installed sink when one accepts it, else to
//! stderr in the same `[alss:<topic>] <message>` format).
//!
//! ## JSON-lines schema
//!
//! Every emitted line is one JSON object tagged by `"type"`:
//!
//! ```json
//! {"type":"span","name":"decompose","path":"encode.query/decompose","thread":"main","us":12.5}
//! {"type":"event","name":"train.epoch","fields":{"epoch":1,"loss":0.52,"grad_norm":1.8,"lr":0.003}}
//! {"type":"progress","topic":"fig4","message":"aids: 80 train / 20 test"}
//! {"type":"snapshot","counters":{"matching.nodes_expanded":10234},"gauges":{},"histograms":{"span.matching.count_us":{"count":96,"sum":5120,"mean":53.3,"p50":48,"p95":96,"p99":96,"max":101}}}
//! ```

// Library code reports failures as `Result`, prints only through
// `alss_telemetry`, and waives a lint only with `#[expect(.., reason)]`.
#![deny(
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "a panic is a test's failure report, and fixtures are tiny"
    )
)]

pub mod json;
pub mod registry;
pub mod sink;
pub mod span;

pub use registry::{Counter, Gauge, Histogram, HistogramSummary, LogHistogram, Snapshot};
pub use sink::{CaptureSink, Event, Field, JsonLinesSink, Sink, StderrSink};
pub use span::{Span, Stopwatch};

use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Categories of recorded data; bits of the runtime enable mask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// RAII span scopes (timing tree).
    Spans,
    /// Counters, gauges, histograms.
    Metrics,
    /// Structured point events (e.g. one per training epoch).
    Events,
}

impl Category {
    /// This category's bit in the enable mask.
    pub const fn bit(self) -> u8 {
        match self {
            Category::Spans => 1,
            Category::Metrics => 2,
            Category::Events => 4,
        }
    }

    /// Mask with every category enabled.
    pub const ALL: u8 = 7;
}

static MASK: AtomicU8 = AtomicU8::new(0);
static SINK: RwLock<Option<Arc<dyn Sink + Send + Sync>>> = RwLock::new(None);

/// Is recording for `cat` enabled? One relaxed atomic load of the mask.
#[inline(always)]
pub fn enabled(cat: Category) -> bool {
    MASK.load(Ordering::Relaxed) & cat.bit() != 0
}

/// Install a sink and set the runtime enable mask. Replaces any previous
/// sink (which is flushed first).
pub fn install(sink: Arc<dyn Sink + Send + Sync>, mask: u8) {
    if let Ok(mut s) = SINK.write() {
        if let Some(prev) = s.take() {
            prev.flush();
        }
        *s = Some(sink);
    }
    MASK.store(mask & Category::ALL, Ordering::Relaxed);
}

/// Disable recording and drop the sink (flushing it).
pub fn uninstall() {
    MASK.store(0, Ordering::Relaxed);
    if let Ok(mut s) = SINK.write() {
        if let Some(prev) = s.take() {
            prev.flush();
        }
    }
}

/// Parse the `ALSS_TELEMETRY` environment filter. `None` when unset;
/// `Some(mask)` otherwise (`off`/`0` give 0; `all`/`1`/`on` give
/// [`Category::ALL`]; otherwise a comma-separated subset of
/// `spans`,`metrics`,`events`).
pub fn mask_from_env() -> Option<u8> {
    let raw = std::env::var("ALSS_TELEMETRY").ok()?;
    Some(parse_mask(&raw))
}

/// Parse a filter string (see [`mask_from_env`]).
pub fn parse_mask(raw: &str) -> u8 {
    let raw = raw.trim();
    match raw {
        "" | "0" | "off" | "none" => return 0,
        "1" | "all" | "on" => return Category::ALL,
        _ => {}
    }
    let mut mask = 0;
    for tok in raw.split(',') {
        mask |= match tok.trim() {
            "spans" | "span" => Category::Spans.bit(),
            "metrics" | "metric" => Category::Metrics.bit(),
            "events" | "event" => Category::Events.bit(),
            _ => 0,
        };
    }
    mask
}

/// Keeps the sink installed for the lifetime of a binary's `main`; on
/// drop it emits a final metrics-registry snapshot and flushes, so a
/// capture always ends with the aggregate counters and histograms.
pub struct TelemetryGuard {
    active: bool,
}

impl TelemetryGuard {
    /// `true` when [`init`] installed a sink.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if self.active {
            emit_snapshot();
            flush();
        }
    }
}

/// Set up telemetry for a binary named `topic`. Call it before any
/// instrumented work and keep the returned guard alive until exit.
///
/// * `capture`: install a JSON-lines file sink at this path; the recording
///   mask comes from `ALSS_TELEMETRY` and defaults to everything. A path
///   that cannot be opened is reported as progress and nothing is
///   installed.
/// * Without `capture`, a non-zero `ALSS_TELEMETRY` installs the pretty
///   stderr sink; otherwise nothing is installed and recording stays off.
///
/// The guard is active exactly when a sink was installed.
pub fn init(topic: &str, capture: Option<&str>) -> TelemetryGuard {
    init_with_mask(topic, capture, mask_from_env())
}

/// [`init`] with the parsed `ALSS_TELEMETRY` value passed in.
fn init_with_mask(topic: &str, capture: Option<&str>, env_mask: Option<u8>) -> TelemetryGuard {
    let active = match capture {
        Some(path) => match JsonLinesSink::create(Path::new(path)) {
            Ok(sink) => {
                install(Arc::new(sink), env_mask.unwrap_or(Category::ALL));
                true
            }
            Err(e) => {
                progress(topic, &format!("cannot open {path}: {e}"));
                false
            }
        },
        None => match env_mask.filter(|&m| m != 0) {
            Some(mask) => {
                install(Arc::new(StderrSink), mask);
                true
            }
            None => false,
        },
    };
    TelemetryGuard { active }
}

/// Route one event to the installed sink (no-op without one).
pub fn emit(event: &Event) {
    if let Ok(guard) = SINK.read() {
        if let Some(sink) = guard.as_ref() {
            sink.emit(event);
        }
    }
}

/// Flush the installed sink.
pub fn flush() {
    if let Ok(guard) = SINK.read() {
        if let Some(sink) = guard.as_ref() {
            sink.flush();
        }
    }
}

/// Counter handle for `name` (no-op when metrics are disabled).
#[inline]
pub fn counter(name: &str) -> Counter {
    if !enabled(Category::Metrics) {
        return Counter::noop();
    }
    registry::global().counter(name)
}

/// Gauge handle for `name` (no-op when metrics are disabled).
#[inline]
pub fn gauge(name: &str) -> Gauge {
    if !enabled(Category::Metrics) {
        return Gauge::noop();
    }
    registry::global().gauge(name)
}

/// Histogram handle for `name` (no-op when metrics are disabled).
#[inline]
pub fn histogram(name: &str) -> Histogram {
    if !enabled(Category::Metrics) {
        return Histogram::noop();
    }
    registry::global().histogram(name)
}

/// Emit a structured point event. The field list is only materialized
/// when events are enabled, so pass-through cost is one branch.
#[inline]
pub fn event(name: &'static str, fields: &[(&str, Field)]) {
    if !enabled(Category::Events) {
        return;
    }
    emit(&Event::Point {
        name,
        fields: fields
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
    });
}

/// Freeze the metrics registry into a snapshot (empty when metrics were
/// never enabled).
pub fn snapshot() -> Snapshot {
    registry::global().snapshot()
}

/// Emit the current registry snapshot as an event through the sink.
pub fn emit_snapshot() {
    emit(&Event::Snapshot(snapshot()));
}

/// Progress reporting: the consistent replacement for ad-hoc `println!`
/// progress lines in the binaries. Always visible — goes to the installed
/// sink when one is present, and to stderr in the standard
/// `[alss:<topic>] <message>` format otherwise (or when the sink asks for
/// an echo, as the JSON-lines sink does).
#[expect(
    clippy::print_stderr,
    reason = "progress must stay visible with no sink installed"
)]
pub fn progress(topic: &str, message: &str) {
    let ev = Event::Progress {
        topic: topic.to_string(),
        message: message.to_string(),
    };
    let mut echoed = false;
    if let Ok(guard) = SINK.read() {
        if let Some(sink) = guard.as_ref() {
            sink.emit(&ev);
            echoed = sink.prints_progress();
        }
    }
    if !echoed {
        eprintln!("{}", ev.progress_line());
    }
}

/// Lock a mutex, recovering the guard from a poisoned lock (telemetry
/// must never abort the instrumented program).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Support for integration tests that need the *global* sink: installs a
/// capture sink for the duration of a closure, serialized process-wide so
/// concurrently running tests do not steal each other's events.
pub mod test_support {
    use super::*;

    static TEST_GUARD: Mutex<()> = Mutex::new(());

    /// Run `f` while holding the process-wide lock that every test
    /// touching the global sink or mask must hold.
    pub fn serialized<R>(f: impl FnOnce() -> R) -> R {
        let _serialized = lock_unpoisoned(&TEST_GUARD);
        f()
    }

    /// Run `f` with a fresh [`CaptureSink`] installed under `mask`, and
    /// return its result plus everything captured. Note the metrics
    /// registry is process-global and is *not* reset — assert on deltas
    /// or on uniquely named instruments.
    pub fn with_capture<R>(mask: u8, f: impl FnOnce() -> R) -> (R, Vec<Event>) {
        serialized(|| {
            let sink = Arc::new(CaptureSink::new());
            install(sink.clone(), mask);
            let result = f();
            let events = sink.take();
            uninstall();
            (result, events)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_parsing() {
        assert_eq!(parse_mask("off"), 0);
        assert_eq!(parse_mask("0"), 0);
        assert_eq!(parse_mask(""), 0);
        assert_eq!(parse_mask("all"), Category::ALL);
        assert_eq!(parse_mask("1"), Category::ALL);
        assert_eq!(parse_mask("spans"), Category::Spans.bit());
        assert_eq!(
            parse_mask("spans,metrics"),
            Category::Spans.bit() | Category::Metrics.bit()
        );
        assert_eq!(parse_mask(" events , spans "), 5);
        assert_eq!(parse_mask("bogus"), 0);
    }

    #[test]
    fn disabled_handles_are_noops() {
        // Noop handles are inert and never touch the registry.
        let c = Counter::noop();
        c.add(5);
        c.inc();
        let g = Gauge::noop();
        g.set(3);
        let h = Histogram::noop();
        h.record(10);
    }

    #[test]
    fn capture_path_installs_a_jsonl_sink() {
        let path = std::env::temp_dir().join(format!("alss-init-{}.jsonl", std::process::id()));
        test_support::serialized(|| {
            let guard = init_with_mask("init-test", path.to_str(), None);
            assert!(guard.is_active());
            assert!(enabled(Category::Spans) && enabled(Category::Metrics));
            progress("init-test", "hello");
            drop(guard);
            uninstall();
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains(r#""type":"progress""#), "{text}");
        assert!(
            lines.last().unwrap().contains(r#""type":"snapshot""#),
            "{text}"
        );
    }

    #[test]
    fn unopenable_capture_path_warns_and_stays_inactive() {
        let path = std::env::temp_dir()
            .join(format!("alss-no-such-dir-{}", std::process::id()))
            .join("t.jsonl");
        let (active, events) = test_support::with_capture(Category::ALL, || {
            init_with_mask("init-test", path.to_str(), Some(Category::ALL)).is_active()
        });
        assert!(!active);
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Progress { message, .. } if message.starts_with("cannot open")
        )));
    }

    #[test]
    fn no_capture_installs_stderr_sink_only_for_a_nonzero_mask() {
        test_support::serialized(|| {
            for unset in [None, Some(parse_mask("off"))] {
                assert!(!init_with_mask("init-test", None, unset).is_active());
                assert!(!enabled(Category::Spans));
            }
            let guard = init_with_mask("init-test", None, Some(parse_mask("metrics,events")));
            assert!(guard.is_active());
            assert!(enabled(Category::Metrics) && enabled(Category::Events));
            assert!(!enabled(Category::Spans));
            drop(guard);
            uninstall();
        });
    }
}

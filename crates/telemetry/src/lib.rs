//! # alss-telemetry
//!
//! Structured tracing, metrics, and profiling hooks for the ALSS
//! workspace. Its one dependency is the workspace's JSON crate
//! (`serde_json`), which prints every JSON line. Three layers:
//!
//! 1. **Tracing core** ([`span`]) — RAII [`Span`] scopes with per-thread
//!    span stacks and monotonic timing, plus a [`Stopwatch`] for explicit
//!    interval measurement. Completed spans are routed to a pluggable
//!    [`Sink`]: a JSON-lines file sink, a pretty stderr sink, and a
//!    test-capturing sink ship in [`sink`].
//! 2. **Metrics** — [`add`] bumps a named counter and [`record`] adds a
//!    sample to a named log₂-bucketed histogram (p50/p95/p99/max), both in
//!    one private table behind one lock. [`snapshot`] freezes the table
//!    into a [`Snapshot`] that renders to the same JSON-lines schema the
//!    sinks write.
//! 3. **Probes** — the instrumented crates (`alss-graph`, `alss-core`,
//!    `alss-matching`, `alss-estimators`, `alss-bench`) call [`Span::enter`],
//!    [`add`], [`record`], [`event`], … directly, each keyed by a
//!    `&'static str`.
//!
//! ## One recording path
//!
//! Every probe always updates the metrics table: [`add`], [`record`],
//! [`Stopwatch::record`] and each span's `span.<name>_us` histogram take
//! one lock and, once their name is in the table, allocate nothing. A
//! [`Sink`] only decides which lines get written: [`install`] puts one in
//! place and [`uninstall`] removes it, and while none is installed span
//! and event lines are never built (a span's path and thread name, an
//! event's field list). [`init`] installs a sink for a
//! `--telemetry <path>` capture, or when the `ALSS_TELEMETRY` environment
//! variable is set to anything but empty, `0`, `off` or `none`.
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
//! {"type":"snapshot","counters":{"matching.nodes_expanded":10234},"histograms":{"span.matching.count_us":{"count":96,"sum":5120,"mean":53.3,"p50":48,"p95":96,"p99":96,"max":101}}}
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

mod metrics;
pub mod sink;
pub mod span;

pub use metrics::{add, record, snapshot, HistogramSummary, Snapshot};
pub use sink::{CaptureSink, Event, JsonLinesSink, Sink, StderrSink};
pub use span::{Span, Stopwatch};

use serde_json::Value;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

static SINK: RwLock<Option<Arc<dyn Sink + Send + Sync>>> = RwLock::new(None);

/// Install a sink: span, event and progress lines are written to it from
/// now on. Replaces any previous sink (which is flushed first).
pub fn install(sink: Arc<dyn Sink + Send + Sync>) {
    if let Ok(mut s) = SINK.write() {
        if let Some(prev) = s.take() {
            prev.flush();
        }
        *s = Some(sink);
    }
}

/// Drop the sink (flushing it); no further lines are written.
pub fn uninstall() {
    if let Ok(mut s) = SINK.write() {
        if let Some(prev) = s.take() {
            prev.flush();
        }
    }
}

/// Does this `ALSS_TELEMETRY` value ask for the stderr sink? Unset, empty,
/// `0`, `off` and `none` do not; any other value does.
fn switched_on(raw: Option<&str>) -> bool {
    raw.is_some_and(|raw| !matches!(raw.trim(), "" | "0" | "off" | "none"))
}

/// Keeps the sink installed for the lifetime of a binary's `main`; on
/// drop it emits a final metrics snapshot and flushes, so a
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
            with_sink(|sink| {
                sink.emit(&Event::Snapshot(snapshot()));
                sink.flush();
            });
        }
    }
}

/// Set up telemetry for a binary named `topic`. Call it before any
/// instrumented work and keep the returned guard alive until exit.
///
/// * `capture`: install a JSON-lines file sink at this path, which writes
///   every line. A path that cannot be opened is reported as progress and
///   nothing is installed.
/// * Without `capture`, an `ALSS_TELEMETRY` that is switched on installs
///   the pretty stderr sink; otherwise nothing is installed and the
///   metrics table records without writing any line.
///
/// The guard is active exactly when a sink was installed.
pub fn init(topic: &str, capture: Option<&str>) -> TelemetryGuard {
    let env = std::env::var("ALSS_TELEMETRY").ok();
    init_with(topic, capture, switched_on(env.as_deref()))
}

/// [`init`] with the `ALSS_TELEMETRY` switch passed in.
fn init_with(topic: &str, capture: Option<&str>, env_on: bool) -> TelemetryGuard {
    let active = match capture {
        Some(path) => match JsonLinesSink::create(Path::new(path)) {
            Ok(sink) => {
                install(Arc::new(sink));
                true
            }
            Err(e) => {
                progress(topic, &format!("cannot open {path}: {e}"));
                false
            }
        },
        None if env_on => {
            install(Arc::new(StderrSink));
            true
        }
        None => false,
    };
    TelemetryGuard { active }
}

/// Run `f` on the installed sink; without one, do nothing.
fn with_sink(f: impl FnOnce(&dyn Sink)) {
    if let Ok(guard) = SINK.read() {
        if let Some(sink) = guard.as_deref() {
            f(sink);
        }
    }
}

/// Route the event that `build` makes to the installed sink. Without a
/// sink, `build` never runs, so nothing is copied or formatted.
pub(crate) fn emit_with(build: impl FnOnce() -> Event) {
    with_sink(|sink| sink.emit(&build()));
}

/// Emit a structured point event. The field list is only copied when a
/// sink is installed.
pub fn event(name: &'static str, fields: &[(&str, Value)]) {
    emit_with(|| Event::Point {
        name,
        fields: fields
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
    });
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
    with_sink(|sink| {
        sink.emit(&ev);
        echoed = sink.prints_progress();
    });
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
    /// touching the global sink must hold.
    pub fn serialized<R>(f: impl FnOnce() -> R) -> R {
        let _serialized = lock_unpoisoned(&TEST_GUARD);
        f()
    }

    /// Run `f` with a fresh [`CaptureSink`] installed, and return
    /// its result plus everything captured. Note the metrics table is
    /// process-global and is *not* reset — assert on deltas or on uniquely
    /// named probes.
    pub fn with_capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
        serialized(|| {
            let sink = Arc::new(CaptureSink::new());
            install(sink.clone());
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

    fn sink_installed() -> bool {
        SINK.read().is_ok_and(|s| s.is_some())
    }

    #[test]
    fn the_env_switch_is_off_only_for_unset_empty_0_off_and_none() {
        for off in [
            None,
            Some(""),
            Some("0"),
            Some("off"),
            Some("none"),
            Some(" off "),
        ] {
            assert!(!switched_on(off), "{off:?}");
        }
        for on in ["1", "on", "all", "spans", "metrics,events"] {
            assert!(switched_on(Some(on)), "{on:?}");
        }
    }

    #[test]
    fn capture_path_installs_a_jsonl_sink() {
        let path = std::env::temp_dir().join(format!("alss-init-{}.jsonl", std::process::id()));
        test_support::serialized(|| {
            let guard = init_with("init-test", path.to_str(), false);
            assert!(guard.is_active());
            assert!(sink_installed());
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
        let (active, events) =
            test_support::with_capture(|| init_with("init-test", path.to_str(), true).is_active());
        assert!(!active);
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Progress { message, .. } if message.starts_with("cannot open")
        )));
    }

    #[test]
    fn no_capture_installs_stderr_sink_only_when_switched_on() {
        test_support::serialized(|| {
            assert!(!init_with("init-test", None, false).is_active());
            assert!(!sink_installed());
            let guard = init_with("init-test", None, true);
            assert!(guard.is_active());
            assert!(sink_installed());
            drop(guard);
            uninstall();
        });
    }
}
